import io
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from mtix import (
    ParseError,
    PostingList,
    ValidationError,
    export_triples,
    ingest_triples,
    ingest_tsv,
    matrix_from_cells,
    nnz,
    primitive_form,
)
from mtix.synth import zipf_corpus


def test_ingest_tsv_counts_frequencies(tmp_path):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("d1\ta a b\nd2\tb b b\n", encoding="utf-8")
    m = ingest_tsv(corpus)
    assert m.lexicon.terms == ("a", "b")
    assert m.doc_names == ["d1", "d2"]
    assert m.rows[0].postings == ((0, 2),)
    assert m.rows[1].postings == ((0, 1), (1, 3))
    assert m.num_docs == 2


def test_ingest_tsv_empty_file(tmp_path):
    corpus = tmp_path / "empty.tsv"
    corpus.write_text("", encoding="utf-8")
    m = ingest_tsv(corpus)
    assert m.num_terms == 0 and m.num_docs == 0 and nnz(m) == 0


def test_ingest_tsv_missing_tab_reports_line(tmp_path):
    corpus = tmp_path / "bad.tsv"
    corpus.write_text("d1\tok body\nno tab here\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        ingest_tsv(corpus)


def test_ingest_tsv_nnz_matches_one_pass_tally(tmp_path):
    # independent recount: tally distinct (term, doc) pairs while writing
    rng = random.Random(99)
    vocab = [f"w{i}" for i in range(40)]
    lines = []
    pairs = set()
    for doc in range(100):
        words = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        for w in words:
            pairs.add((w, doc))
        lines.append(f"doc{doc}\t{' '.join(words)}")
    corpus = tmp_path / "synth.tsv"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    m = ingest_tsv(corpus)
    assert nnz(m) == len(pairs)
    # and the payloads really are frequencies
    per_doc = Counter()
    for line in lines:
        name, body = line.split("\t", 1)
        for w in body.split():
            per_doc[(w, name)] += 1
    for row in m.rows:
        term = m.lexicon.term_of(row.term)
        for d, p in row:
            assert per_doc[(term, m.doc_names[d])] == p


def test_zipf_corpus_is_seeded(tmp_path):
    docs = zipf_corpus(50, 200, doc_len=(5, 40), rng=random.Random(3))
    assert docs == zipf_corpus(50, 200, doc_len=(5, 40), rng=random.Random(3))
    assert docs != zipf_corpus(50, 200, doc_len=(5, 40), rng=random.Random(4))
    assert [name for name, _ in docs] == [f"doc{d:05d}" for d in range(50)]
    counts = Counter()
    for _, body in docs:
        tokens = body.split()
        assert 5 <= len(tokens) <= 40
        counts.update(tokens)
    assert len(counts) <= 200
    # weight 1/rank: the rank-1 word takes about 1/H(200) ~ 17% of tokens
    assert counts.most_common(1)[0][1] > 0.1 * sum(counts.values())
    corpus = tmp_path / "zipf.tsv"
    corpus.write_text("".join(f"{name}\t{body}\n" for name, body in docs), encoding="utf-8")
    assert nnz(ingest_tsv(corpus)) == sum(len(set(body.split())) for _, body in docs)
    with pytest.raises(ValueError):
        zipf_corpus(1, 0)


def test_ingest_triples_basic(tmp_path):
    path = tmp_path / "t.triples"
    path.write_text("0 0 2\n0 1 4\n", encoding="ascii")
    m = ingest_triples(path)
    assert m.rows[0].postings == ((0, 2), (1, 4))
    assert nnz(m) == 2


def test_ingest_triples_zero_payload_rejected(tmp_path):
    path = tmp_path / "z.triples"
    path.write_text("0 0 0\n", encoding="ascii")
    with pytest.raises(ValidationError):
        ingest_triples(path)


def test_ingest_triples_duplicate_cell_rejected(tmp_path):
    path = tmp_path / "d.triples"
    path.write_text("1 2 3\n1 2 5\n", encoding="ascii")
    with pytest.raises(ValidationError):
        ingest_triples(path)


def test_ingest_triples_nnz_equals_line_count(tmp_path):
    rng = random.Random(5)
    cells = set()
    while len(cells) < 50:
        cells.add((rng.randint(0, 19), rng.randint(0, 39)))
    lines = [f"{t} {d} {rng.randint(1, 99)}" for t, d in sorted(cells)]
    path = tmp_path / "r.triples"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    assert nnz(ingest_triples(path)) == 50


def test_export_then_ingest_is_identity(tmp_path):
    rng = random.Random(3)
    for trial in range(20):
        cells = {}
        num_terms = rng.randint(1, 8)
        num_docs = rng.randint(1, 10)
        for t in range(num_terms):
            docs = rng.sample(range(num_docs), rng.randint(0, num_docs))
            if docs:
                cells[t] = {d: rng.randint(1, 30) for d in docs}
        # triple format cannot carry trailing empty rows/docs; pin the corners
        cells.setdefault(num_terms - 1, {})[num_docs - 1] = 7
        m = matrix_from_cells(cells)
        path = tmp_path / f"rt{trial}.triples"
        export_triples(m, path)
        again = ingest_triples(path)
        assert again.same_cells(m)


def test_export_triples_canonical_order():
    m = matrix_from_cells({1: {3: 9, 0: 4}, 0: {2: 1}})
    buf = io.StringIO()
    export_triples(m, buf)
    assert buf.getvalue() == "0 2 1\n1 0 4\n1 3 9\n"


def test_primitive_form_examples():
    row = PostingList.from_pairs(0, [(0, 2), (1, 4), (2, 6)])
    p = primitive_form(row)
    assert p.scale == 2 and tuple(b.payload for b in p.base) == (1, 2, 3)

    p = primitive_form(PostingList.from_pairs(0, [(4, 5)]))
    assert p.scale == 5 and p.base == ((4, 1),)

    p = primitive_form(PostingList.from_pairs(0, [(0, 3), (1, 7)]))
    assert p.scale == 1 and tuple(b.payload for b in p.base) == (3, 7)


def test_primitive_form_empty_row_rejected():
    with pytest.raises(ValidationError):
        primitive_form(PostingList(0, ()))


def test_posting_list_invariants():
    with pytest.raises(ValidationError):
        PostingList.from_pairs(0, [(2, 1), (2, 3)])
    with pytest.raises(ValidationError):
        PostingList.from_pairs(0, [(0, 0)])


rows_strategy = st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 200)), min_size=1, max_size=12, unique_by=lambda p: p[0]
).map(lambda pairs: PostingList.from_pairs(0, sorted(pairs)))


@given(rows_strategy)
def test_primitive_form_reconstructs_row(row):
    p = primitive_form(row)
    rebuilt = tuple((d, p.scale * u) for d, u in p.base)
    assert rebuilt == row.postings


@given(rows_strategy, rows_strategy)
def test_multiple_iff_identical_primitive_base(a, b):
    # cross-ratio oracle: same support and a_i * b_0 == b_i * a_0 everywhere
    same_support = a.support() == b.support()
    cross_equal = same_support and all(
        pa.payload * b.postings[0].payload == pb.payload * a.postings[0].payload
        for pa, pb in zip(a.postings, b.postings)
    )
    bases_equal = primitive_form(a).base == primitive_form(b).base
    assert cross_equal == (same_support and bases_equal)


def test_nnz_examples():
    assert nnz(matrix_from_cells({})) == 0
    assert nnz(matrix_from_cells({0: {0: 1, 2: 4}, 3: {1: 2}})) == 3


def test_lexicon_first_seen_order(tmp_path):
    corpus = tmp_path / "o.tsv"
    corpus.write_text("d\tzeta alpha zeta mid\n", encoding="utf-8")
    m = ingest_tsv(corpus)
    assert m.lexicon.terms == ("zeta", "alpha", "mid")
    assert m.lexicon.id_of("alpha") == 1
    assert m.lexicon.id_of("nope") is None
