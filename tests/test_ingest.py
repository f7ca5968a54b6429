"""Ingest in blocks against the line-at-a-time reference, on bounded memory,
and on the benchmark's inputs."""

import random
import re
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import ingest_reference as reference
from mtix import MtixError, ingest_triples, ingest_tsv, nnz
from mtix import codec, matrix
from mtix.matrix import read_triples
from conftest import bench_workloads, one_object_per_value


def _summary(V):
    """Everything a matrix holds, with each column checked to be a tuple of exact ints."""
    for row in V.rows:
        assert type(row.docs) is tuple and type(row.payloads) is tuple
        assert all(type(v) is int for v in row.docs + row.payloads)
    return [(r.term, r.docs, r.payloads) for r in V.rows], V.num_docs, V.lexicon.terms, V.doc_names


def _outcome(read, path):
    try:
        return read(path)
    except MtixError as exc:
        return type(exc), str(exc)


def _assert_same(read, want_read, path):
    got, want = _outcome(read, path), _outcome(want_read, path)
    if isinstance(want, tuple):
        assert got == want
    elif isinstance(want, dict):
        # read_triples: the same cells, rows in first-seen order and cells in file order
        assert [(i, list(row.items())) for i, row in got.items()] == [(i, list(row.items())) for i, row in want.items()]
    else:
        assert _summary(got) == _summary(want)


def _spelled(n, zeros, sign, cut):
    """n as int() reads it, with leading zeros, a '+' (or '-' on 0) and one '_'
    between digits when `cut` falls inside them."""
    digits = "0" * zeros + str(abs(n))
    if 0 < cut < len(digits):
        digits = digits[:cut] + "_" + digits[cut:]
    return ("-" if n < 0 else sign if sign != "-" or n == 0 else "").encode() + digits.encode()


def _number(values):
    return st.builds(_spelled, values, st.sampled_from([0, 0, 1, 2]), st.sampled_from(["", "", "+", "-"]), st.integers(0, 4))


_ID = st.integers(0, 5) | st.sampled_from([-1, 1 << 20, 10**10])
_PAYLOAD = st.integers(1, 9) | st.sampled_from([0, -2])
_BAD_FIELD = st.sampled_from(
    [b"x", b"1.5", b"1e3", b"0x1", b"1__2", b"_1", b"1_", b"+-1", b"\xe9", b"\xd9\xa1", b"1\x1c2", b"9" * 5000]
)
_SEP = st.sampled_from([b" ", b"\t", b"\x0b", b"\x0c", b"  ", b" \t"])
_BLANK = st.sampled_from([b"", b"", b" ", b"\t", b"\x0b\x0c"])
_END = st.sampled_from([b"\n", b"\r\n", b"\r"])


@st.composite
def _triples_file(draw):
    """A triples file: mostly cells, with blank, short, long and bad lines,
    mixed line ends and no final line end at times."""
    out = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["cell"] * 8 + ["blank", "bad", "short", "long"]))
        fields = [draw(_number(_ID)), draw(_number(_ID)), draw(_number(_PAYLOAD))]
        if kind == "blank":
            fields = []
        elif kind == "bad":
            fields[draw(st.integers(0, 2))] = draw(_BAD_FIELD)
        elif kind == "short":
            fields = fields[: draw(st.integers(1, 2))]
        elif kind == "long":
            fields.append(draw(_number(_ID)))
        line = draw(_BLANK)
        for i, field in enumerate(fields):
            line += (draw(_SEP) if i else b"") + field
        out.append(line + draw(_BLANK) + draw(_END))
    if out and draw(st.booleans()):
        out[-1] = out[-1].rstrip(b"\r\n")
    return b"".join(out)


@pytest.mark.parametrize("block", [1, 2, 7, 65536])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_triples_file())
@example(data=b"0 0 1\r\n0 1 2\r\n1 0 3\r\n")  # a \r\n across the edge of 2- and 7-byte blocks
@example(data=b"0 0 1\r\n1 1 1")  # no final line end
@example(data=b"0 0 1\r\r\n\r0 2 1\r")
@example(data=b"\n \t\n0\t1\x0b2\x0c\n\x0b\n")
@example(data=b"+1 0_1 007\n-0 +0 1_0\n")
@example(data=b"2 1 1\n0 3 1\n0 1 1\n2 0 5\n")  # terms and docs out of order
@example(data=b"0 0 1\nx\n0 0 2\n0 0\n")  # a duplicate after one bad line and before another
@example(data=b"0 0 1\n0 0 2\nx\n")  # a duplicate before a bad line
@example(data=b"0 1 1\n-1 0 1\n")
@example(data=b"0 1 1\n0 -1 1\n")
@example(data=b"0 1 0\n0 0 1\n1 0 -3\n")
@example(data=b"0 0 1.5\n")
@example(data=b"0 0 \xe9\n")
@example(data=b"\xd9\xa1 0 1\n")
@example(data=b"0 0 " + b"1" * 5000 + b"\n")  # past int()'s digit limit
@example(data=b"1048576 0 0\n0 1048576 1\n")  # the id limits before the zero payload
@example(data=b"0 1048576 0\n")
def test_triples_match_line_reference(tmp_path, monkeypatch, block, data):
    monkeypatch.setattr(matrix, "_BLOCK", block)
    path = tmp_path / "t.triples"
    path.write_bytes(data)
    _assert_same(ingest_triples, reference.ingest_triples, path)
    _assert_same(read_triples, reference.read_triples, path)


@settings(max_examples=300, deadline=None)
@given(data=_triples_file())
@example(data=b"0 0 1\n0 1\n \x0b\n1 1 1 1")
@example(data=b"1 2 3 4 5 6\n")  # six fields: one ^^^ comes out, three ^s stay
@example(data=b"^ ^^^ x\r\n^ ^\n")  # the check's own marks as field bytes
def test_block_check_is_blank_or_three_fields_per_line(data):
    want = all(len(line.split()) in (0, 3) for line in data.splitlines())
    assert matrix._three_fields_per_line(data) == want


def _patterns(value):
    if isinstance(value, re.Pattern):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _patterns(v)


def test_patterns_compile_on_python_3_10():
    # pyproject.toml supports 3.10, whose re has no possessive quantifiers
    # (*+ ++ ?+ {m,n}+) and no atomic groups (?>...): either fails to compile there
    newer_syntax = re.compile(r"(?<!\\)[*+?}]\+|\(\?>")
    patterns = [p for module in (codec, matrix) for v in vars(module).values() for p in _patterns(v)]
    assert patterns
    for p in patterns:
        text = p.pattern.decode("latin-1") if isinstance(p.pattern, bytes) else p.pattern
        assert not newer_syntax.search(text), text


_TOKENS = st.sampled_from(["a", "B", "a", "c1", "x-y", "Zz9", "été", "  ", "\t", "!"])


@st.composite
def _tsv_file(draw):
    out = []
    for d in range(draw(st.integers(0, 8))):
        body = "".join(draw(st.lists(_TOKENS, max_size=8)))
        line = (f"d{d}\t" + body).encode() if draw(st.integers(0, 9)) else b"no tab " + body.encode()
        if not draw(st.integers(0, 19)):
            line += b"\xff"
        out.append(line + draw(_END))
    if out and draw(st.booleans()):
        out[-1] = out[-1].rstrip(b"\r\n")
    return b"".join(out)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_tsv_file())
@example(data=b"d0\ta a A b\r\nd1\t\r\nd2\tb\tb a\rd3\t\n")  # repeated tokens, empty bodies
@example(data=b"d0\ta\nno tab\n")
@example(data=b"d0\ta\nd1\tcaf\xe9\n")
def test_tsv_matches_line_reference(tmp_path, data):
    path = tmp_path / "c.tsv"
    path.write_bytes(data)
    _assert_same(ingest_tsv, reference.ingest_tsv, path)


def _write_canonical_triples(path, end):
    """About 2.4 MB (2.6 MB with \\r\\n) of "term doc payload" lines in canonical order."""
    rng = random.Random(21)
    with open(path, "w", encoding="ascii", newline="") as fh:
        for t in range(2000):
            for d in sorted(rng.sample(range(20000), 100)):
                fh.write(f"{t} {d} {rng.randint(1, 9)}{end}")


def _ingest_traced(path):
    """ingest_triples' tracemalloc peak and the bytes its result keeps."""
    tracemalloc.start()
    try:
        V = ingest_triples(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nnz(V) == 200_000
    return peak, kept


def _within_bound(peak, kept):
    # Beyond the matrix it returns, ingest may hold about one block's fields,
    # not a copy of the file or of all its fields.
    return peak <= kept + (1 << 20)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_ingest_peak_memory_stays_near_the_matrix(tmp_path, end):
    path = tmp_path / "big.triples"
    _write_canonical_triples(path, end)
    assert path.stat().st_size > 2_000_000
    assert _within_bound(*_ingest_traced(path))


def test_whole_file_parse_exceeds_the_memory_bound(tmp_path, monkeypatch):
    # one read, one split and one map(int) over the whole file
    path = tmp_path / "big.triples"
    _write_canonical_triples(path, "\n")
    monkeypatch.setattr(matrix, "_BLOCK", path.stat().st_size + 1)
    assert not _within_bound(*_ingest_traced(path))


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
def test_blocks_carry_at_most_one_line(tmp_path, monkeypatch, end):
    monkeypatch.setattr(matrix, "_BLOCK", 64)
    data = b"".join(b"%d %d 1%s" % (t, t * 7, end) for t in range(500))
    path = tmp_path / "t.triples"
    path.write_bytes(data)
    with open(path, "rb") as fh:
        pieces = list(matrix._blocks(fh))
    assert b"".join(pieces) == data
    longest = max(map(len, data.splitlines(keepends=True)))
    assert all(len(p) <= 64 + longest and p.endswith((b"\n", b"\r")) for p in pieces[:-1])


@pytest.mark.parametrize("workload", ["zipf-text", "planted-triples", "random-triples"])
def test_bench_inputs_ingest_to_the_generated_matrix(tmp_path, workload):
    workloads = bench_workloads()
    gen = workloads.generate(workload, 1, tmp_path)
    want = _summary(workloads.raw_matrix(gen))
    assert _summary((ingest_triples if gen.triples else ingest_tsv)(gen.corpus)) == want
    if workload == "random-triples":
        reversed_lines = tmp_path / "reversed.triples"
        reversed_lines.write_bytes(b"".join(reversed(gen.corpus.read_bytes().splitlines(keepends=True))))
        assert _summary(ingest_triples(reversed_lines)) == want


@pytest.mark.parametrize("order", ["canonical", "shuffled"])
def test_triples_share_one_int_per_doc_id(tmp_path, monkeypatch, order):
    # blocks of 4 KiB, so ids recur across blocks; ids past 256, which
    # CPython does not cache
    monkeypatch.setattr(matrix, "_BLOCK", 4096)
    rng = random.Random(22)
    lines = [f"{t} {d} {rng.randint(1, 9)}\n" for t in range(300) for d in sorted(rng.sample(range(2000), 30))]
    if order == "shuffled":
        rng.shuffle(lines)
    path = tmp_path / "t.triples"
    path.write_text("".join(lines))
    docs = [d for row in ingest_triples(path).rows for d in row.docs]
    assert len(set(docs)) > 1000 and one_object_per_value(docs)
    assert one_object_per_value(j for row in read_triples(path).values() for j in row)


def test_tsv_shares_one_int_per_doc_id(tmp_path):
    rng = random.Random(23)
    path = tmp_path / "c.tsv"
    path.write_text("".join(f"d{d}\t{' '.join(rng.choices('abcdefgh', k=6))}\n" for d in range(1000)))
    docs = [d for row in ingest_tsv(path).rows for d in row.docs]
    assert len(set(docs)) == 1000 and one_object_per_value(docs)
