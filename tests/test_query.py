import hashlib
import random
import tempfile
from collections import Counter
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import query_reference as reference
from mtix import (
    CodecConfig,
    Factorization,
    FactorParams,
    InvariantError,
    Lexicon,
    MetaTerm,
    Posting,
    PostingList,
    Query,
    ScoredDoc,
    ValidationError,
    expand_term,
    factor,
    ingest_tsv,
    load_index,
    matrix_from_cells,
    nnz,
    overlap_at_k,
    prune,
    reconstruct,
    save_index,
    stats,
    top_k,
)
from conftest import brute_force_top_k, singleton_form
from mtix.synth import planted_matrix, random_matrix, random_queries, zipf_corpus
from test_factorize import correlated_matrices, small_matrices


def test_expand_term_singleton_scalar_multiply():
    # exported as a singleton membership with coefficient 2 over base [(0,1),(3,4)]
    V = matrix_from_cells({0: {0: 2, 3: 8}})
    f = factor(V)
    g = singleton_form(f)
    assert g.metaterms[0].base == (1, 4)
    assert g.memberships[0] == ((0, 2),)
    assert expand_term(f, 0).postings == ((0, 2), (3, 8))
    assert expand_term(g, 0).postings == ((0, 2), (3, 8))


def test_expand_term_returns_the_residual_row_itself():
    # terms 1 and 2 merge (gain(2, 4) = 2); term 0 has no membership
    V = matrix_from_cells({0: {0: 2, 3: 8}, 1: {1: 1, 2: 1, 4: 1, 5: 3}, 2: {1: 2, 2: 2, 4: 2, 5: 6}})
    f = factor(V)
    assert f.memberships[0] == () and f.memberships[1] and not f.residual[1]
    assert expand_term(f, 0) is f.residual[0] and f.residual[0] == V.rows[0]
    assert expand_term(f, 1) == V.rows[1]


@pytest.mark.parametrize(
    "memberships, residual_docs, lowest",
    [
        (((0, 2), (1, 1)), (1, 5), 1),
        (((0, 2), (1, 1)), (4, 7, 9), 7),
        (((1, 3),), (3, 8, 9), 9),  # one membership beside a residual row
    ],
)
def test_residual_row_overlapping_a_membership_raises(memberships, residual_docs, lowest):
    f = Factorization(
        metaterms=(MetaTerm(0, (0, 1, 7), (1, 1, 1)), MetaTerm(1, (2, 9), (1, 1))),
        memberships=(memberships,),
        residual=(PostingList(0, residual_docs, (1,) * len(residual_docs)),),
        num_terms=1,
        num_docs=10,
    )
    with pytest.raises(InvariantError, match=f"^term 0: memberships overlap on doc {lowest}$"):
        expand_term(f, 0)
    with pytest.raises(InvariantError, match=f"^term 0: memberships overlap on doc {lowest}$"):
        reconstruct(f)


def test_expand_term_merges_disjoint_memberships():
    V = matrix_from_cells(
        {
            0: {0: 1, 1: 1, 2: 5, 7: 3},
            1: {0: 2, 1: 2, 2: 10},
        }
    )
    f = factor(V, FactorParams(min_cols=3))
    assert len(f.memberships[0]) == 1 and f.residual[0].docs == (7,)  # merged block plus leftover row
    assert expand_term(f, 0).postings == V.rows[0].postings


def test_expand_term_unknown_id():
    f = factor(matrix_from_cells({0: {0: 1}}))
    with pytest.raises(KeyError):
        expand_term(f, 5)


def test_expand_term_equals_row_property():
    rng = random.Random(17)
    V = random_matrix(40, 60, 0.15, rng=rng)
    f = factor(V, FactorParams(min_cols=2))
    for t in range(V.num_terms):
        assert expand_term(f, t).postings == V.rows[t].postings


def test_top_k_single_term():
    V = matrix_from_cells({0: {0: 3, 1: 9, 2: 5}})
    f = factor(V)
    got = top_k(f, Query(("0",), 2), V.lexicon)
    assert got == [ScoredDoc(1, 9), ScoredDoc(2, 5)]


def test_top_k_whole_rows_example():
    # rows [2,4,6] and [3,6,9]: querying both terms, doc 2 scores 6 + 9 = 15
    V = matrix_from_cells({0: {0: 2, 1: 4, 2: 6}, 1: {0: 3, 1: 6, 2: 9}})
    f = factor(V)
    assert top_k(f, Query(("0", "1"), 1), V.lexicon) == [ScoredDoc(2, 15)]


def test_top_k_tie_breaks_by_doc_id():
    V = matrix_from_cells({0: {4: 7, 1: 7, 9: 7}})
    f = factor(V)
    assert top_k(f, Query(("0",), 3), V.lexicon) == [
        ScoredDoc(1, 7),
        ScoredDoc(4, 7),
        ScoredDoc(9, 7),
    ]


def test_top_k_unknown_terms_dropped():
    V = matrix_from_cells({0: {0: 2}})
    f = factor(V)
    assert top_k(f, Query(("0", "missing"), 5), V.lexicon) == [ScoredDoc(0, 2)]
    assert top_k(f, Query(("missing",), 5), V.lexicon) == []


def test_top_k_scores_are_positive():
    rng = random.Random(23)
    V = random_matrix(30, 40, 0.1, rng=rng)
    f = factor(V)
    for terms in random_queries(V.lexicon, 30, rng=rng):
        for sd in top_k(f, Query(tuple(terms), 10), V.lexicon):
            assert sd.score >= 1


def test_top_k_matches_raw_accumulator():
    rng = random.Random(29)
    V = random_matrix(60, 150, 0.08, rng=rng)
    f = factor(V, FactorParams(min_cols=2))
    for terms in random_queries(V.lexicon, 100, rng=rng):
        assert top_k(f, Query(tuple(terms), 10), V.lexicon) == brute_force_top_k(V, terms, 10)


def test_factor_and_top_k_call_their_stages_by_module_name(monkeypatch):
    # factor() and top_k() look these names up in their modules on each call;
    # wrapping them there is how a caller traces the stages.
    import mtix.factorize
    import mtix.query

    calls = Counter()

    def count(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    count(mtix.factorize, "factor_whole_rows")
    count(mtix.factorize, "refine_partial")
    count(mtix.query, "expand_term")
    V = random_matrix(20, 40, 0.2, rng=random.Random(47))
    f = factor(V)
    assert calls == {"factor_whole_rows": 1, "refine_partial": 1}
    top_k(f, Query(("0", "no-such-term", "3", "7"), 5), V.lexicon)
    assert calls["expand_term"] == 3


def test_query_validates_k():
    with pytest.raises(ValidationError):
        Query(("a",), 0)


def test_prune_identity_thresholds():
    rng = random.Random(41)
    V = random_matrix(10, 20, 0.3, rng=rng)
    assert prune(V, 0).same_cells(V)
    assert prune(V, 1).same_cells(V)


def test_prune_above_max_empties_but_keeps_rows():
    V = matrix_from_cells({0: {0: 3}, 1: {1: 9}})
    out = prune(V, 10)
    assert nnz(out) == 0
    assert out.num_terms == 2 and out.num_docs == V.num_docs
    assert out.lexicon is V.lexicon


def test_prune_keeps_exactly_threshold_and_above():
    V = matrix_from_cells({0: {0: 1, 1: 5, 2: 9}})
    assert prune(V, 5).rows[0].postings == ((1, 5), (2, 9))


def test_prune_monotone_and_composes():
    rng = random.Random(43)
    V = random_matrix(15, 25, 0.4, rng=rng)
    prev = nnz(V)
    for theta in range(0, 18, 3):
        cur = prune(V, theta)
        assert nnz(cur) <= prev
        prev = nnz(cur)
    for t1, t2 in [(2, 5), (3, 3), (1, 9)]:
        assert prune(prune(V, t1), t2).same_cells(prune(V, max(t1, t2)))


def test_overlap_examples():
    a = [ScoredDoc(d, 10 - d) for d in range(10)]
    assert overlap_at_k(a, list(a), 10) == 1.0
    b = [ScoredDoc(d + 100, 5) for d in range(10)]
    assert overlap_at_k(a, b, 10) == 0.0
    assert overlap_at_k(a[:5], a[5:], 5) == 0.0
    assert overlap_at_k(a, a[:5] + b[:5], 10) == 0.5


def test_overlap_degrades_with_pruning():
    rng = random.Random(20260808)
    V = random_matrix(100, 800, 0.05, rng=rng)
    queries = random_queries(V.lexicon, 50, rng=rng)
    f0 = factor(V)
    base = [top_k(f0, Query(tuple(q), 10), V.lexicon) for q in queries]
    payloads = sorted(p for row in V.rows for _, p in row)
    median = payloads[len(payloads) // 2]
    means = []
    for theta in (1, median, payloads[-1] + 1):
        fp = factor(prune(V, theta))
        overlaps = [
            overlap_at_k(top_k(fp, Query(tuple(q), 10), V.lexicon), ref, 10)
            for q, ref in zip(queries, base)
        ]
        assert all(0.0 <= o <= 1.0 for o in overlaps)
        means.append(sum(overlaps) / len(overlaps))
    assert means[0] == 1.0
    assert means[0] >= means[1] >= means[2]


@st.composite
def matrices_and_queries(draw):
    num_docs = draw(st.integers(1, 12))
    num_terms = draw(st.integers(1, 6))
    cells = {}
    for t in range(num_terms):
        docs = draw(st.sets(st.integers(0, num_docs - 1), max_size=num_docs))
        if docs:
            cells[t] = {d: draw(st.integers(1, 9)) for d in sorted(docs)}
    V = matrix_from_cells(cells, num_terms=num_terms, num_docs=num_docs)
    terms = draw(st.lists(st.integers(0, num_terms), min_size=1, max_size=4))
    return V, [str(t) for t in terms]  # may include out-of-vocabulary ids


@settings(max_examples=80, deadline=None)
@given(matrices_and_queries(), st.integers(1, 5))
def test_lossless_query_equivalence_property(mq, k):
    V, terms = mq
    f = factor(V, FactorParams(min_cols=2))
    assert top_k(f, Query(tuple(terms), k), V.lexicon) == brute_force_top_k(V, terms, k)


def test_top_k_ties_at_kth_score_go_to_lowest_docs():
    # five docs tie at the 2nd-best score; k=3 keeps the two lowest of them
    V = matrix_from_cells({0: {8: 4, 2: 4, 6: 9, 5: 4, 1: 2, 3: 4, 7: 4}})
    f = factor(V)
    assert top_k(f, Query(("0",), 3), V.lexicon) == [ScoredDoc(6, 9), ScoredDoc(2, 4), ScoredDoc(3, 4)]


def test_top_k_k_larger_than_scored_docs():
    V = matrix_from_cells({0: {4: 1, 0: 3}, 1: {2: 3, 9: 5}}, num_docs=12)
    f = factor(V)
    got = top_k(f, Query(("0", "1"), 50), V.lexicon)
    assert got == [ScoredDoc(9, 5), ScoredDoc(0, 3), ScoredDoc(2, 3), ScoredDoc(4, 1)]


def test_top_k_repeated_term_counts_twice():
    V = matrix_from_cells({0: {0: 2, 1: 5}, 1: {0: 4}})
    f = factor(V)
    assert top_k(f, Query(("0", "0"), 5), V.lexicon) == [ScoredDoc(1, 10), ScoredDoc(0, 4)]
    assert top_k(f, Query(("0", "1", "0"), 5), V.lexicon) == [ScoredDoc(1, 10), ScoredDoc(0, 8)]


def test_top_k_all_terms_unknown():
    V = matrix_from_cells({0: {0: 2}})
    f = factor(V)
    assert top_k(f, Query(("x", "y", "x"), 3), V.lexicon) == []
    assert top_k(f, Query((), 3), V.lexicon) == []


def _golden_query_corpus(name, tmp_path):
    if name == "zipf":
        path = tmp_path / "zipf.tsv"
        docs = zipf_corpus(300, 2000, rng=random.Random(7))
        path.write_text("".join(f"{doc}\t{body}\n" for doc, body in docs), encoding="utf-8")
        return ingest_tsv(path)
    if name == "planted":
        V, _ = planted_matrix(
            num_groups=6, cols_per_group=40, noise_rows=80, num_docs=80,
            noise_payload_range=(1, 2), rng=random.Random(5),
        )
        return V
    return random_matrix(60, 40, 0.3, payload_range=(1, 3), rng=random.Random(9))


@pytest.mark.parametrize(
    "corpus, digest",
    [
        ("zipf", "13f11f87e680a308e8288702467b56ece877fa19bd15db25733bd82c3cb4ced0"),
        ("planted", "ebfd1f1effd61b0063025af7c3e0e688f667053aa794f4d263975a12ff2ce5ca"),
        ("random", "0fb750db5e2c1c2adb49a9614d59c7e569c2d6cc80d2e811e9e424adfce7febe"),
    ],
)
def test_top_k_golden_digest(corpus, digest, tmp_path):
    # Pinned rankings over seeded queries (ties, repeats, unknown terms and
    # k from 1 to past the result size): any change in a score or in the
    # order of tied docs shows up here.
    V = _golden_query_corpus(corpus, tmp_path)
    f = factor(V)
    rng = random.Random(13)
    queries = random_queries(V.lexicon, 300, terms_range=(1, 5), rng=rng)
    results = []
    for i, terms in enumerate(queries):
        if i % 7 == 0:
            terms = terms + terms[:1] + ["no-such-term"]
        results.append(top_k(f, Query(tuple(terms), (1, 3, 10, 100)[i % 4]), V.lexicon))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == digest


def _outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as err:  # compared by type and message below
        return type(err), str(err)


def _assert_same_outcome(got, want):
    assert got == want
    if isinstance(got, PostingList):
        assert type(want) is PostingList and got.term == want.term
        assert all(type(p) is Posting for p in got.postings)
    elif isinstance(got, list):
        assert all(type(sd) is ScoredDoc for sd in got)


def _assert_query_path_matches_reference(f, ref, queries):
    """mtix on f answers as the reference on ref, f in the singleton form
    (every residual row empty) that the reference reads."""
    for t in range(f.num_terms + 1):  # one past the end raises KeyError in both
        _assert_same_outcome(_outcome(expand_term, f, t), _outcome(reference.expand_term, ref, t))
    lexicon = Lexicon(str(t) for t in range(f.num_terms))
    for terms, k in queries:
        q = Query(tuple(terms), k)
        _assert_same_outcome(_outcome(top_k, f, q, lexicon), _outcome(reference.top_k, ref, q, lexicon))


def _query_lists(num_terms):
    # term ids may repeat and may be out of vocabulary
    return st.lists(
        st.tuples(st.lists(st.integers(0, num_terms).map(str), max_size=5), st.integers(1, 6)),
        min_size=1,
        max_size=6,
    )


@st.composite
def factorizations_and_queries(draw):
    V = draw(st.one_of(small_matrices(), correlated_matrices()))
    f = factor(V, FactorParams(min_cols=draw(st.integers(2, 4))))
    if draw(st.booleans()):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.idx"
            save_index(f, Lexicon(str(t) for t in range(f.num_terms)), CodecConfig(), path)
            f = load_index(path).factorization
    return f, draw(_query_lists(f.num_terms))


@settings(max_examples=200, deadline=None)
@given(factorizations_and_queries())
def test_query_path_matches_reference(fq):
    f, queries = fq
    _assert_query_path_matches_reference(f, singleton_form(f), queries)


def _corrupt(draw, f):
    """f with one defect the expansion must reject or sort out as before."""
    metaterms, memberships = list(f.metaterms), list(f.memberships)
    m = draw(st.integers(0, len(metaterms) - 1))
    mt = metaterms[m]
    i = draw(st.integers(0, len(mt.cols) - 1))
    kinds = ["overlap", "dup_col", "unsorted", "negative_doc", "zero_coeff", "zero_base"]
    kind = draw(st.sampled_from(kinds))
    if kind == "overlap":
        t = draw(st.integers(0, f.num_terms - 1))
        memberships[t] = memberships[t] + ((m, draw(st.integers(1, 3))),)
    elif kind == "dup_col":
        metaterms[m] = replace(mt, cols=mt.cols + (mt.cols[i],), base=mt.base + (draw(st.integers(1, 4)),))
    elif kind == "unsorted":
        order = draw(st.permutations(range(len(mt.cols))))
        cols, base = tuple(mt.cols[j] for j in order), tuple(mt.base[j] for j in order)
        metaterms[m] = replace(mt, cols=cols, base=base)
    elif kind == "negative_doc":
        metaterms[m] = replace(mt, cols=mt.cols[:i] + (-1 - i,) + mt.cols[i + 1 :])
    elif kind == "zero_base":
        metaterms[m] = replace(mt, base=mt.base[:i] + (0,) + mt.base[i + 1 :])
    else:
        users = [t for t, row in enumerate(memberships) if row]
        t = draw(st.sampled_from(users))
        j = draw(st.integers(0, len(memberships[t]) - 1))
        row = list(memberships[t])
        row[j] = (row[j][0], 0)
        memberships[t] = tuple(row)
    return replace(f, metaterms=tuple(metaterms), memberships=tuple(memberships))


@st.composite
def malformed_factorizations_and_queries(draw):
    if draw(st.booleans()):
        V = draw(st.one_of(small_matrices(), correlated_matrices()))
        f = singleton_form(factor(V, FactorParams(min_cols=draw(st.integers(2, 4)))))
        if not f.metaterms:
            f = singleton_form(factor(matrix_from_cells({0: {0: 1, 2: 3}, 1: {0: 2, 2: 6}, 2: {1: 5}})))
        for _ in range(draw(st.integers(1, 2))):
            f = _corrupt(draw, f)
    else:
        # free-form: any columns (negative, repeated, unordered), any
        # non-negative base entries and coefficients, and a base one entry
        # shorter or longer than its columns (zip pairs up the shorter)
        num_docs = draw(st.integers(1, 8))
        metaterms = []
        for m in range(draw(st.integers(1, 5))):
            cols = draw(st.lists(st.integers(-2, num_docs - 1), max_size=5))
            base = draw(st.lists(st.integers(0, 4), min_size=max(len(cols) - 1, 0), max_size=len(cols) + 1))
            metaterms.append(MetaTerm(m, tuple(cols), tuple(base)))
        membership = st.tuples(st.integers(0, len(metaterms) - 1), st.integers(0, 3))
        memberships = tuple(
            tuple(draw(st.lists(membership, max_size=3))) for _ in range(draw(st.integers(1, 5)))
        )
        residual = tuple(PostingList(t, (), ()) for t in range(len(memberships)))
        f = Factorization(tuple(metaterms), memberships, residual, len(memberships), num_docs)
    return f, draw(_query_lists(f.num_terms))


@settings(max_examples=400, deadline=None)
@given(malformed_factorizations_and_queries())
def test_malformed_query_path_matches_reference(fq):
    f, queries = fq
    _assert_query_path_matches_reference(f, f, queries)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 8), st.integers(-1, 4)), max_size=8), st.booleans())
def test_from_pairs_matches_reference(pairs, ordered):
    if ordered:
        pairs.sort()
    _assert_same_outcome(_outcome(PostingList.from_pairs, 3, pairs), _outcome(reference.from_pairs, 3, pairs))


def _no_posting_view(*_):
    raise AssertionError("built the Posting view of a posting list")


def _without_posting_views():
    """Make PostingList.postings and iteration over a PostingList raise, so
    a path that builds one Posting per posting fails."""
    stack = ExitStack()
    stack.enter_context(mock.patch.object(PostingList, "postings", property(_no_posting_view)))
    stack.enter_context(mock.patch.object(PostingList, "__iter__", _no_posting_view))
    return stack


@settings(max_examples=100, deadline=None)
@given(factorizations_and_queries())
def test_query_path_builds_no_posting_view(fq):
    f, queries = fq
    lexicon = Lexicon(str(t) for t in range(f.num_terms))
    terms = range(f.num_terms + 1)
    queries = [Query(tuple(q), k) for q, k in queries]
    ref = singleton_form(f)
    want = [_outcome(reference.expand_term, ref, t) for t in terms]
    want += [_outcome(reference.top_k, ref, q, lexicon) for q in queries]
    with _without_posting_views():
        got = [_outcome(expand_term, f, t) for t in terms]
        got += [_outcome(top_k, f, q, lexicon) for q in queries]
    for g, w in zip(got, want, strict=True):
        _assert_same_outcome(g, w)


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_matrices(), correlated_matrices()), st.integers(2, 4))
def test_build_path_builds_no_posting_view(V, min_cols):
    cfg = CodecConfig()
    with _without_posting_views(), tempfile.TemporaryDirectory() as tmp:
        f = factor(V, FactorParams(min_cols=min_cols))
        path = Path(tmp) / "f.idx"
        save_index(f, V.lexicon, cfg, path, V.doc_names)
        index_stats = stats(V, f, cfg)
        assert reconstruct(load_index(path).factorization).same_cells(V)
    assert index_stats.nnz_v == nnz(V) and index_stats.bytes_direct > 0
