import hashlib
import random

import pytest

from mtix import (
    CodecConfig,
    Factorization,
    Lexicon,
    MetaTerm,
    PostingList,
    export_factors,
    export_triples,
    factor,
    factor_whole_rows,
    index_sections,
    ingest_triples,
    ingest_tsv,
    matrix_from_cells,
    nnz,
    prune,
    save_index,
    stats,
)
from mtix.cli import main
from mtix.synth import planted_matrix, random_matrix, random_queries, zipf_corpus
from conftest import brute_force_top_k


@pytest.fixture
def tiny_corpus(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("d1\ta a b\nd2\tb b b cat\nd3\tcat dog a\n", encoding="utf-8")
    return path


def test_build_writes_index_and_stats(tiny_corpus, tmp_path, capsys):
    index = tmp_path / "out.idx"
    rc = main(["build", str(tiny_corpus), str(index), "--tsv"])
    assert rc == 0
    assert index.exists() and index.stat().st_size > 0
    lines = dict(l.split("\t") for l in capsys.readouterr().out.strip().splitlines())
    assert lines["nnz_V"] == "7"
    assert set(lines) == {"nnz_V", "nnz_W", "nnz_H", "bytes_direct", "bytes_factored", "ratio"}


def test_build_is_deterministic(tiny_corpus, tmp_path):
    a, b = tmp_path / "a.idx", tmp_path / "b.idx"
    assert main(["build", str(tiny_corpus), str(a)]) == 0
    assert main(["build", str(tiny_corpus), str(b)]) == 0
    assert hashlib.sha256(a.read_bytes()).digest() == hashlib.sha256(b.read_bytes()).digest()


def test_build_verbose_prints_section_bytes(tiny_corpus, tmp_path, capsys):
    index = tmp_path / "out.idx"
    assert main(["build", str(tiny_corpus), str(index), "--verbose"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == f"wrote {index.stat().st_size} bytes to {index}"
    sections = index_sections(index)
    assert lines[1:] == [f"  {part:<10} {size} bytes" for part, size in sections.items()]


def test_factor_no_stage2_matches_whole_rows(tmp_path, capsys):
    V, _ = planted_matrix(num_groups=3, rows_per_group=3, cols_per_group=8,
                          noise_rows=10, num_docs=60, noise_len_range=(3, 6),
                          rng=random.Random(14))
    # two more rows with one ratio on docs 0-4 only: stage 2 merges them,
    # stage 1 does not, so --no-stage2 changes every output below
    cells = {row.term: dict(zip(row.docs, row.payloads)) for row in V.rows}
    cells[V.num_terms] = {**{d: 1 for d in range(5)}, 50: 7}
    cells[V.num_terms + 1] = {**{d: 2 for d in range(5)}, 51: 3}
    V = matrix_from_cells(cells, num_docs=V.num_docs)
    assert factor(V) != factor_whole_rows(V)
    triples = tmp_path / "v.triples"
    export_triples(V, triples)
    rc = main(["factor", str(triples), str(tmp_path / "cli"), "--triples", "--no-stage2"])
    assert rc == 0
    lib_h = tmp_path / "lib.h"
    lib_w = tmp_path / "lib.w"
    export_factors(factor_whole_rows(V), lib_h, lib_w)
    assert (tmp_path / "cli.h").read_text() == lib_h.read_text()
    assert (tmp_path / "cli.w").read_text() == lib_w.read_text()

    # build and stats read the matrix back from the triples
    M = ingest_triples(triples)
    f1 = factor_whole_rows(M)
    assert main(["build", str(triples), str(tmp_path / "cli.idx"), "--triples", "--no-stage2"]) == 0
    save_index(f1, M.lexicon, CodecConfig(), tmp_path / "lib.idx", M.doc_names)
    assert (tmp_path / "cli.idx").read_bytes() == (tmp_path / "lib.idx").read_bytes()
    capsys.readouterr()
    assert main(["stats", str(triples), "--triples", "--no-stage2", "--tsv"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{k}\t{v}" for k, v in stats(M, f1, CodecConfig()).rows()]


def test_build_and_stats_factor_under_their_codec_flags(tmp_path, capsys):
    # under vbyte, meta-terms that lose bits under gamma pay, so the flags
    # must reach factor() as well as save_index and stats
    corpus = tmp_path / "zipf.tsv"
    docs = zipf_corpus(120, 400, rng=random.Random(3))
    corpus.write_text("".join(f"{doc}\t{body}\n" for doc, body in docs), encoding="utf-8")
    V = ingest_tsv(corpus)
    vbyte = CodecConfig("vbyte", "vbyte", "vbyte")
    f = factor(V, cfg=vbyte)
    assert f != factor(V) and f.metaterms
    flags = ["--codec-doc", "vbyte", "--codec-payload", "vbyte", "--codec-coeff", "vbyte"]
    assert main(["build", str(corpus), str(tmp_path / "cli.idx"), *flags]) == 0
    save_index(f, V.lexicon, vbyte, tmp_path / "lib.idx", V.doc_names)
    assert (tmp_path / "cli.idx").read_bytes() == (tmp_path / "lib.idx").read_bytes()
    capsys.readouterr()
    assert main(["stats", str(corpus), "--tsv", *flags]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{k}\t{v}" for k, v in stats(V, f, vbyte).rows()]
    # mtix factor has no codec flags: it exports factor() under the defaults
    assert main(["factor", str(corpus), str(tmp_path / "cli")]) == 0
    export_factors(factor(V), tmp_path / "lib.h", tmp_path / "lib.w")
    assert (tmp_path / "cli.h").read_text() == (tmp_path / "lib.h").read_text()
    assert (tmp_path / "cli.w").read_text() == (tmp_path / "lib.w").read_text()


def test_verbose_metaterm_count_is_the_exported_ids(tmp_path, capsys):
    # factor -v and stats -v count what the .h file numbers: the meta-terms
    # and one per non-empty residual row
    V, _ = planted_matrix(num_groups=3, rows_per_group=3, cols_per_group=8,
                          noise_rows=10, num_docs=60, noise_len_range=(3, 6),
                          rng=random.Random(14))
    triples = tmp_path / "v.triples"
    export_triples(V, triples)
    capsys.readouterr()
    assert main(["factor", str(triples), str(tmp_path / "cli"), "--triples", "--verbose"]) == 0
    factor_err = capsys.readouterr().err
    ids = {line.split()[0] for line in (tmp_path / "cli.h").read_text().splitlines()}
    f = factor(ingest_triples(triples))
    assert 0 < len(f.metaterms) < len(ids) == len(f.metaterms) + sum(map(bool, f.residual))
    assert factor_err.startswith(f"{len(ids)} meta-terms, total size ")
    assert main(["stats", str(triples), "--triples", "--verbose"]) == 0
    assert capsys.readouterr().err == f"{len(ids)} meta-terms over {f.num_terms} terms\n"


def test_query_command_blocks_and_tsv(tiny_corpus, tmp_path, capsys):
    index = tmp_path / "q.idx"
    main(["build", str(tiny_corpus), str(index)])
    qfile = tmp_path / "queries.txt"
    qfile.write_text("a b\nzebra\ncat\n", encoding="utf-8")
    capsys.readouterr()

    rc = main(["query", str(index), str(qfile), "--k", "2"])
    assert rc == 0
    blocks = capsys.readouterr().out.split("\n\n")
    # three blocks (last split piece is the trailing empty string)
    assert len([b for b in blocks if b != ""]) == 2  # zebra block is empty
    first = blocks[0].splitlines()
    assert first[0].split("\t") == ["1", "d1", "3"]
    assert first[1].split("\t") == ["2", "d2", "3"]

    rc = main(["query", str(index), str(qfile), "--k", "2", "--tsv"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0].split("\t") == ["0", "1", "d1", "3"]
    qids = {line.split("\t")[0] for line in out}
    assert qids == {"0", "2"}  # query 1 (zebra) contributes no rows


def test_query_file_lines_end_only_at_newlines(tiny_corpus, tmp_path, capsys):
    # \f, \u2028 and \x85 are line breaks to str.splitlines but only
    # whitespace inside a query line; blank lines stay empty queries
    index = tmp_path / "q.idx"
    main(["build", str(tiny_corpus), str(index)])
    odd = tmp_path / "odd.txt"
    odd.write_bytes("a\fb\ncat\u2028dog\r\n\r\ncat\x85a\r".encode("utf-8"))
    plain = tmp_path / "plain.txt"
    plain.write_text("a b\ncat dog\n\ncat a\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["query", str(index), str(odd), "--k", "5", "--tsv"]) == 0
    out = capsys.readouterr().out
    assert {line.split("\t")[0] for line in out.splitlines()} == {"0", "1", "3"}
    assert main(["query", str(index), str(plain), "--k", "5", "--tsv"]) == 0
    assert capsys.readouterr().out == out


def test_query_k_larger_than_corpus(tiny_corpus, tmp_path, capsys):
    index = tmp_path / "k.idx"
    main(["build", str(tiny_corpus), str(index)])
    qfile = tmp_path / "q.txt"
    qfile.write_text("a\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["query", str(index), str(qfile), "--k", "50", "--tsv"])
    assert rc == 0
    out = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(out) == 2  # docs d1 and d3 contain "a"


def test_query_matches_brute_force_on_planted(tmp_path, capsys):
    V, _ = planted_matrix(rng=random.Random(77))
    triples = tmp_path / "p.triples"
    export_triples(V, triples)
    index = tmp_path / "p.idx"
    assert main(["build", str(triples), str(index), "--triples"]) == 0
    rng = random.Random(78)
    queries = random_queries(V.lexicon, 20, rng=rng)
    qfile = tmp_path / "pq.txt"
    qfile.write_text("\n".join(" ".join(q) for q in queries) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["query", str(index), str(qfile), "--k", "5", "--tsv"]) == 0
    got: dict[int, list[tuple[str, int]]] = {}
    for line in capsys.readouterr().out.splitlines():
        qi, rank, name, score = line.split("\t")
        got.setdefault(int(qi), []).append((name, int(score)))
    for qi, terms in enumerate(queries):
        expected = [(str(d), s) for d, s in brute_force_top_k(V, terms, 5)]
        assert got.get(qi, []) == expected


def test_prune_command(tmp_path, capsys):
    V = random_matrix(10, 30, 0.3, rng=random.Random(3))
    src = tmp_path / "v.triples"
    export_triples(V, src)
    out = tmp_path / "pruned.triples"
    rc = main(["prune", str(src), str(out), "--theta", "8", "--triples"])
    assert rc == 0
    expected = tmp_path / "expected.triples"
    export_triples(prune(V, 8), expected)
    assert out.read_text() == expected.read_text()
    again = ingest_triples(out)
    assert all(p >= 8 for row in again.rows for _, p in row)


def test_bench_theta_one_is_identity(tmp_path, capsys):
    V, _ = planted_matrix(num_groups=2, rows_per_group=4, cols_per_group=12,
                          noise_rows=6, num_docs=50, noise_len_range=(3, 8),
                          rng=random.Random(19))
    src = tmp_path / "b.triples"
    export_triples(V, src)
    qfile = tmp_path / "bq.txt"
    qfile.write_text("0 1\n3\n", encoding="utf-8")
    rc = main(["bench", str(src), "--triples", "--queries", str(qfile),
               "--thetas", "1", "--k", "3", "--tsv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == ["theta", "nnz", "bytes_direct", "bytes_factored", "ratio", "overlap@k"]
    assert len(lines) == 2
    row = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
    assert row["theta"] == "1"
    assert int(row["nnz"]) == nnz(V)
    assert row["overlap@k"] == "1.0000"
    # a k above every query's matches among the 50 docs leaves each top-k
    # shorter than k, and equal lists still score 1
    rc = main(["bench", str(src), "--triples", "--queries", str(qfile),
               "--thetas", "1", "--k", "60", "--tsv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].split("\t")[-1] == "1.0000"


def test_bench_monotone_bytes_on_random_corpus(tmp_path, capsys):
    V = random_matrix(60, 200, 0.06, rng=random.Random(20260808))
    src = tmp_path / "r.triples"
    export_triples(V, src)
    qfile = tmp_path / "rq.txt"
    qfile.write_text("1 2 3\n10 11\n", encoding="utf-8")
    rc = main(["bench", str(src), "--triples", "--queries", str(qfile),
               "--thetas", "1,4,8,12,16", "--tsv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    nnzs = [int(l.split("\t")[1]) for l in lines]
    bytes_f = [int(l.split("\t")[3]) for l in lines]
    assert nnzs == sorted(nnzs, reverse=True) or all(a >= b for a, b in zip(nnzs, nnzs[1:]))
    assert all(a >= b for a, b in zip(bytes_f, bytes_f[1:]))


def test_bench_ratio_below_one_on_planted(tmp_path, capsys):
    V, _ = planted_matrix(rng=random.Random(5))
    src = tmp_path / "p.triples"
    export_triples(V, src)
    qfile = tmp_path / "q.txt"
    qfile.write_text("0\n", encoding="utf-8")
    rc = main(["bench", str(src), "--triples", "--queries", str(qfile), "--thetas", "1", "--tsv"])
    assert rc == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split("\t")
    assert float(row[4]) < 1.0


def test_bench_rejects_unsorted_thetas(tmp_path, capsys):
    V = random_matrix(5, 10, 0.3, rng=random.Random(1))
    src = tmp_path / "v.triples"
    export_triples(V, src)
    qfile = tmp_path / "q.txt"
    qfile.write_text("0\n", encoding="utf-8")
    rc = main(["bench", str(src), "--triples", "--queries", str(qfile), "--thetas", "5,2"])
    assert rc == 2


def test_diag_remainder_all_ones_product(tmp_path, capsys):
    (tmp_path / "v.t").write_text("0 0 1\n1 1 1\n2 2 1\n")
    (tmp_path / "w.t").write_text("0 0 1\n1 0 1\n2 0 1\n")
    (tmp_path / "h.t").write_text("0 0 1\n0 1 1\n0 2 1\n")
    rc = main(["diag-remainder", str(tmp_path / "v.t"), str(tmp_path / "w.t"), str(tmp_path / "h.t")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nnz_V\t3" in out
    assert "nnz_WH\t9" in out
    assert "nnz_R\t6" in out
    assert "R larger than V: yes" in out


def test_diag_remainder_own_factors_is_zero(tmp_path, capsys):
    V, _ = planted_matrix(num_groups=2, rows_per_group=3, cols_per_group=10,
                          noise_rows=8, num_docs=40, noise_len_range=(2, 7),
                          rng=random.Random(12))
    triples = tmp_path / "v.triples"
    export_triples(V, triples)
    assert main(["factor", str(triples), str(tmp_path / "own"), "--triples"]) == 0
    rc = main(["diag-remainder", str(triples), str(tmp_path / "own.w"), str(tmp_path / "own.h")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nnz_R\t0" in out
    assert "R larger than V: no" in out


def test_diag_remainder_zero_w(tmp_path, capsys):
    (tmp_path / "v.t").write_text("0 0 5\n0 3 2\n2 1 7\n")
    (tmp_path / "w.t").write_text("")
    (tmp_path / "h.t").write_text("0 0 1\n")
    rc = main(["diag-remainder", str(tmp_path / "v.t"), str(tmp_path / "w.t"), str(tmp_path / "h.t")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nnz_V\t3" in out and "nnz_WH\t0" in out and "nnz_R\t3" in out
    assert "R larger than V: no" in out


def test_diag_remainder_reads_factors_in_any_order(tmp_path, capsys):
    # zero and negative W and H values, \r\n line ends, lines out of order
    (tmp_path / "v.t").write_bytes(b"1 1 4\n0 1 3\n0 0 2\n")
    (tmp_path / "w.t").write_bytes(b"1 0 2\r\n0 1 -1\r\n0 0 1\r\n1 1 0\r\n")
    (tmp_path / "h.t").write_bytes(b"1 2 5\r\n0 1 3\r\n0 0 2\r\n1 0 -2\r\n1 1 0\r\n")
    argv = ["diag-remainder", str(tmp_path / "v.t"), str(tmp_path / "w.t"), str(tmp_path / "h.t")]
    assert main(argv) == 0
    # WH: term 0 = (4, 3, -5), term 1 = (4, 6, 0); only V's (0, 1) = 3 agrees
    assert capsys.readouterr().out == "nnz_V\t3\nnnz_WH\t5\nnnz_R\t4\nR larger than V: yes\n"
    (tmp_path / "w.t").write_bytes(b"1 0 2\r\n0 1 x\r\n0 0 1\r\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "line 2: non-integer field" in err and "Traceback" not in err


def test_diag_remainder_dimension_mismatch(tmp_path, capsys):
    (tmp_path / "v.t").write_text("0 0 1\n")
    (tmp_path / "w.t").write_text("0 5 1\n")  # meta-term 5 has no H row
    (tmp_path / "h.t").write_text("0 0 1\n")
    rc = main(["diag-remainder", str(tmp_path / "v.t"), str(tmp_path / "w.t"), str(tmp_path / "h.t")])
    assert rc == 2


def test_usage_errors_exit_1(capsys):
    assert main(["not-a-command"]) == 1
    assert main(["build"]) == 1
    assert main([]) == 1


def test_input_errors_exit_2(tmp_path, capsys):
    assert main(["build", str(tmp_path / "missing.tsv"), str(tmp_path / "x.idx")]) == 2
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"not an index file at all")
    qfile = tmp_path / "q.txt"
    qfile.write_text("a\n")
    assert main(["query", str(bad), str(qfile)]) == 2


@pytest.mark.parametrize(
    "command, line_no",
    [("build", 3), ("build-triples", 2), ("diag-remainder", 2), ("query", 2)],
)
def test_undecodable_input_exits_2_with_line(command, line_no, tiny_corpus, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    triples = tmp_path / "ok.t"
    triples.write_text("0 0 1\n1 1 2\n")
    index = tmp_path / "ok.idx"
    if command == "build":
        bad.write_bytes(b"d1\ta b\r\nd2\tb\r\nd3\tcaf\xe9\n")  # Latin-1, not UTF-8
        argv = ["build", str(bad), str(index)]
    elif command == "build-triples":
        bad.write_bytes(b"0 0 1\n1 1 \xe9\n")
        argv = ["build", str(bad), str(index), "--triples"]
    elif command == "diag-remainder":
        bad.write_bytes(b"0 0 1\n1 0 \xb2\n")
        argv = ["diag-remainder", str(triples), str(bad), str(triples)]
    else:
        assert main(["build", str(tiny_corpus), str(index)]) == 0
        bad.write_bytes(b"a b\n\xff cat\n")
        argv = ["query", str(index), str(bad)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"line {line_no}" in err and "Traceback" not in err


def test_invariant_violation_exits_3(tmp_path, capsys):
    # hand-build an index whose term 0 has overlapping memberships
    bad = Factorization(
        metaterms=(MetaTerm(0, (0, 1), (1, 1)), MetaTerm(1, (1, 2), (1, 1))),
        memberships=(((0, 1), (1, 1)),),
        residual=(PostingList(0, (), ()),),
        num_terms=1,
        num_docs=3,
    )
    path = tmp_path / "bad.idx"
    save_index(bad, Lexicon(["a"]), CodecConfig(), path, ["d0", "d1", "d2"])
    qfile = tmp_path / "q.txt"
    qfile.write_text("a\n")
    assert main(["query", str(path), str(qfile)]) == 3


def test_stats_command_matches_build_output(tiny_corpus, tmp_path, capsys):
    index = tmp_path / "s.idx"
    assert main(["build", str(tiny_corpus), str(index), "--tsv"]) == 0
    build_out = capsys.readouterr().out
    assert main(["stats", str(tiny_corpus), "--tsv"]) == 0
    assert capsys.readouterr().out == build_out


def test_payload_past_64_bits_exits_2(tmp_path, capsys):
    triples = tmp_path / "wide.t"
    triples.write_text(f"0 0 {1 << 70}\n0 1 3\n1 0 5\n")
    queries = tmp_path / "q.txt"
    queries.write_text("0\n")
    for argv in (
        ["build", str(triples), str(tmp_path / "w.idx"), "--triples"],
        ["stats", str(triples), "--triples"],
        ["bench", str(triples), "--triples", "--queries", str(queries), "--thetas", "1"],
    ):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "list value outside [1, 2^64)" in err and "Traceback" not in err


def test_id_past_the_limit_exits_2(tmp_path, capsys):
    # One line must not make ingest allocate a row or a doc name per id.
    for line, what in (("0 10000000000 1", "doc"), ("10000000000 0 1", "term")):
        triples = tmp_path / "huge.t"
        triples.write_text(line + "\n")
        capsys.readouterr()
        assert main(["build", str(triples), str(tmp_path / "h.idx"), "--triples"]) == 2
        err = capsys.readouterr().err
        assert f"{what} id 10000000000 past the limit" in err and "Traceback" not in err
