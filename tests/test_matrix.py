import io
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mtix import (
    CodecConfig,
    Factorization,
    FactorParams,
    MetaTerm,
    ParseError,
    Posting,
    PostingList,
    ValidationError,
    expand_term,
    export_triples,
    factor,
    ingest_triples,
    ingest_tsv,
    matrix_from_cells,
    nnz,
    prune,
    reconstruct,
)
from mtix.codec import decode_lists, encode_lists
from mtix.matrix import primitive
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


def test_ids_past_the_limit_rejected_before_allocation():
    # Ids set the size of the row and doc-name tables, so a huge one must be
    # refused up front, not allocated (these would ask for 10^10 entries).
    with pytest.raises(ValidationError, match="doc id 10000000000 past the limit"):
        matrix_from_cells({0: {10**10: 1}})
    with pytest.raises(ValidationError, match="term id 10000000000 past the limit"):
        matrix_from_cells({10**10: {0: 1}})
    with pytest.raises(ValidationError, match="doc id 1048576 past the limit"):
        matrix_from_cells({0: {1 << 20: 1}})
    with pytest.raises(ValidationError, match="term id 1048576 past the limit"):
        matrix_from_cells({0: {0: 1}}, num_terms=(1 << 20) + 1)
    assert matrix_from_cells({0: {(1 << 20) - 1: 1}}).num_docs == 1 << 20


def test_negative_term_id_rejected_before_allocation():
    # No row is built for a negative id, so its cells were dropped without a
    # word: the first matrix came back with 1 term and nnz 1.
    with pytest.raises(ValidationError, match="^term id -1 is negative$"):
        matrix_from_cells({-1: {0: 1}, 0: {1: 2}})
    with pytest.raises(ValidationError, match="^term id -3 is negative$"):
        matrix_from_cells({0: {0: 1}, -3: {0: 1}, -1: {}}, num_terms=1 << 20)


def test_negative_doc_id_rejected_before_allocation():
    # It read as an ordering fault from inside row building: "term 0: doc
    # ids not strictly ascending at -1".
    with pytest.raises(ValidationError, match="^doc id -1 is negative$"):
        matrix_from_cells({0: {-1: 1}})
    with pytest.raises(ValidationError, match="^doc id -5 is negative$"):
        matrix_from_cells({0: {3: 1, -2: 1}, 1: {}, 2: {-5: 1}}, num_docs=1 << 20)


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
    scale, base = primitive(row.payloads)
    assert scale == 2 and base == (1, 2, 3)

    row = PostingList.from_pairs(0, [(4, 5)])
    scale, base = primitive(row.payloads)
    assert scale == 5 and tuple(zip(row.docs, base)) == ((4, 1),)

    scale, base = primitive(PostingList.from_pairs(0, [(0, 3), (1, 7)]).payloads)
    assert scale == 1 and base == (3, 7)


def test_posting_list_invariants():
    with pytest.raises(ValidationError):
        PostingList.from_pairs(0, [(2, 1), (2, 3)])
    with pytest.raises(ValidationError):
        PostingList.from_pairs(0, [(0, 0)])


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(-1, 2)], "term 4: doc ids not strictly ascending at -1"),
        ([(0, 1), (-3, 2)], "term 4: doc ids not strictly ascending at -3"),
        ([(0, 1), (2, 1), (2, 3)], "term 4: doc ids not strictly ascending at 2"),
        ([(0, 1), (5, 1), (3, 1)], "term 4: doc ids not strictly ascending at 3"),
        ([(0, 0)], "term 4: payload 0 for doc 0 must be >= 1"),
        ([(1, 2), (6, -5)], "term 4: payload -5 for doc 6 must be >= 1"),
        # the first bad posting is named; within one posting the doc comes first
        ([(0, 1), (1, 0), (1, 5)], "term 4: payload 0 for doc 1 must be >= 1"),
        ([(0, 1), (3, 1), (2, 0), (4, 0)], "term 4: doc ids not strictly ascending at 2"),
        ([(-1, 0)], "term 4: doc ids not strictly ascending at -1"),
        ([(2, 0), (1, 3)], "term 4: payload 0 for doc 2 must be >= 1"),
    ],
)
def test_from_pairs_error_messages(pairs, message):
    with pytest.raises(ValidationError) as err:
        PostingList.from_pairs(4, pairs)
    assert str(err.value) == message


def test_from_pairs_builds_postings_of_ints():
    row = PostingList.from_pairs(2, iter([(0, 3), ("4", 1.0)]))
    assert row.postings == ((0, 3), (4, 1))
    assert all(type(p) is Posting and type(p.doc) is int and type(p.payload) is int for p in row)
    assert PostingList.from_pairs(2, []).postings == ()


rows_strategy = st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 200)), min_size=1, max_size=12, unique_by=lambda p: p[0]
).map(lambda pairs: PostingList.from_pairs(0, sorted(pairs)))


@given(rows_strategy)
def test_primitive_form_reconstructs_row(row):
    scale, base = primitive(row.payloads)
    rebuilt = tuple((d, scale * u) for d, u in zip(row.docs, base))
    assert rebuilt == row.postings


@given(rows_strategy, rows_strategy)
def test_multiple_iff_identical_primitive_base(a, b):
    # cross-ratio oracle: same support and a_i * b_0 == b_i * a_0 everywhere
    same_support = a.docs == b.docs
    cross_equal = same_support and all(
        pa.payload * b.postings[0].payload == pb.payload * a.postings[0].payload
        for pa, pb in zip(a.postings, b.postings)
    )
    bases_equal = (a.docs, primitive(a.payloads)[1]) == (b.docs, primitive(b.payloads)[1])
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


class _Int(int):
    """An int subclass: from_pairs must store it as an exact int."""


def _assert_columnar(pl):
    assert type(pl.docs) is tuple and type(pl.payloads) is tuple
    assert all(type(v) is int for v in pl.docs + pl.payloads)
    assert pl.postings == tuple(zip(pl.docs, pl.payloads))
    assert all(type(p) is Posting for p in pl.postings)
    assert tuple(pl) == pl.postings and all(type(p) is Posting for p in pl)
    assert len(pl) == len(pl.postings) and bool(pl) == bool(pl.postings)
    assert pl.docs == tuple(p.doc for p in pl.postings)


def _assert_same_cells_agrees(a, b):
    by_postings = a.num_docs == b.num_docs and [r.postings for r in a.rows] == [r.postings for r in b.rows]
    assert a.same_cells(b) == by_postings


_cells = st.dictionaries(
    st.integers(0, 6), st.dictionaries(st.integers(0, 9), st.integers(1, 7), max_size=8), max_size=6
)


@settings(max_examples=150, deadline=None)
@given(_cells, st.sampled_from([int, _Int, str, float]), st.integers(0, 8))
def test_every_constructor_builds_int_columns(cells, convert, theta):
    # matrix_from_cells and from_pairs (the column path, with values that
    # int() converts, and the one-posting-at-a-time path)
    V = matrix_from_cells(cells, num_docs=10)
    for row in V.rows:
        _assert_columnar(row)
        pairs = [(convert(d), convert(p)) for d, p in zip(row.docs, row.payloads)]
        for pl in (PostingList.from_pairs(row.term, pairs), PostingList._from_pairs_in_order(row.term, pairs)):
            _assert_columnar(pl)
            assert pl == row
    # expand_term, on single memberships and on merges of several
    f = factor(V, FactorParams(min_cols=2))
    for t in range(f.num_terms):
        _assert_columnar(expand_term(f, t))
    W = reconstruct(f)
    _assert_same_cells_agrees(V, W)
    # a list decoded from an index section
    cfg = CodecConfig()
    for row in V.rows:
        blob, _ = encode_lists([(row.docs, row.payloads)], cfg.doc_gap, cfg.payload)
        ((docs, payloads),) = decode_lists(blob, 1, cfg.doc_gap, cfg.payload)
        decoded = PostingList._from_columns(row.term, docs, payloads)
        _assert_columnar(decoded)
        assert decoded == row
    # prune
    P = prune(V, theta)
    for row in P.rows:
        _assert_columnar(row)
    _assert_same_cells_agrees(V, P)
    _assert_same_cells_agrees(P, V)


def test_expand_term_paths_build_int_columns():
    # terms 0 and 2: one membership, coefficient 1 and 3; term 1: a merge of
    # two; term 3: a membership merged with a residual row; term 4: a
    # residual row alone
    f = Factorization(
        metaterms=(MetaTerm(0, (0, 4), (1, 2)), MetaTerm(1, (2, 7), (5, 1))),
        memberships=(((0, 1),), ((0, 3), (1, 2)), ((1, 3),), ((0, 1),), ()),
        residual=(*(PostingList(t, (), ()) for t in range(3)), PostingList(3, (1, 5), (4, 2)), PostingList(4, (3,), (6,))),
        num_terms=5,
        num_docs=8,
    )
    want = {
        0: ((0, 1), (4, 2)),
        1: ((0, 3), (2, 10), (4, 6), (7, 2)),
        2: ((2, 15), (7, 3)),
        3: ((0, 1), (1, 4), (4, 2), (5, 2)),
        4: ((3, 6),),
    }
    for t, postings in want.items():
        pl = expand_term(f, t)
        _assert_columnar(pl)
        assert pl.postings == postings
