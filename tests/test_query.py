import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mtix import (
    FactorParams,
    Query,
    ScoredDoc,
    ValidationError,
    expand_term,
    factor,
    matrix_from_cells,
    nnz,
    overlap_at_k,
    prune,
    top_k,
)
from conftest import brute_force_top_k
from mtix.synth import random_matrix, random_queries


def test_expand_term_singleton_scalar_multiply():
    # singleton membership with coefficient 2 over base [(0,1),(3,4)]
    V = matrix_from_cells({0: {0: 2, 3: 8}})
    f = factor(V)
    assert f.metaterms[0].base == (1, 4)
    assert f.memberships[0] == ((0, 2),)
    assert expand_term(f, 0).postings == ((0, 2), (3, 8))


def test_expand_term_merges_disjoint_memberships():
    V = matrix_from_cells(
        {
            0: {0: 1, 1: 1, 2: 5, 7: 3},
            1: {0: 2, 1: 2, 2: 10},
        }
    )
    f = factor(V, FactorParams(min_cols=3))
    assert len(f.memberships[0]) == 2  # merged block plus leftover singleton
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
