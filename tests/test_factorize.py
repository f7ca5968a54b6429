import hashlib
import io
import os
import random
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mtix import (
    CodecConfig,
    FactorParams,
    Factorization,
    InvariantError,
    MetaTerm,
    PostingList,
    ValidationError,
    export_factors,
    factor,
    factor_whole_rows,
    gain,
    ingest_tsv,
    matrix_from_cells,
    nnz,
    reconstruct,
    refine_partial,
    total_size,
)
import mtix
from mtix.factorize import _Lazy, _assemble, _bits, _later_partners, _later_partners_sliced
from mtix.matrix import primitive
from mtix.synth import planted_matrix, random_matrix, zipf_corpus
from conftest import singleton_form
from stage1_reference import factor_whole_rows as reference_factor_whole_rows
from stage2_reference import refine_partial as reference_refine_partial


def _biclusters_are_primitive(f):
    """Every meta-term has members and columns, a gcd-1 base and coefficients
    >= 1; with reconstruct(f) equal to V, each is a bicluster of V."""
    return all(b.rows and b.cols and primitive(b.base)[0] == 1 and min(b.coeffs) >= 1 for b in f.provenance())


def test_gain_examples():
    assert gain(2, 2) == 0
    for c in (1, 2, 7, 100):
        assert gain(1, c) == -1
    assert gain(5, 50) == 195
    with pytest.raises(ValidationError):
        gain(0, 3)


@pytest.mark.parametrize("value", [4.5, 4.0, "4", True, None])
@pytest.mark.parametrize("field", ["min_cols", "max_candidates_per_term"])
def test_factor_params_rejects_a_non_int(field, value):
    # FactorParams(min_cols=4.5) once passed and acted as 5
    with pytest.raises(ValidationError, match=f"{field} must be an int"):
        FactorParams(**{field: value})


def test_factor_whole_rows_groups_multiples():
    V = matrix_from_cells({0: {0: 2, 1: 4, 2: 6}, 1: {0: 3, 1: 6, 2: 9}})
    f = factor_whole_rows(V)
    assert len(f.metaterms) == 1
    assert f.metaterms[0].base == (1, 2, 3)
    assert f.memberships == (((0, 2),), ((0, 3),))
    assert total_size(f) == 5
    assert nnz(V) == 6
    assert reconstruct(f).same_cells(V)


def test_factor_whole_rows_distinct_bases_stay_singleton():
    V = matrix_from_cells({0: {0: 1, 1: 2}, 1: {0: 2, 1: 3}})
    f = factor_whole_rows(V)
    assert f.metaterms == () and f.residual == tuple(V.rows)
    g = singleton_form(f)  # as exported: one single-member meta-term per row
    assert len(g.metaterms) == 2
    assert all(len(row) == 1 for row in g.memberships)
    assert reconstruct(f).same_cells(V)


def test_factor_whole_rows_small_group_not_merged():
    # gain(2, 2) == 0, so a 2x2 multiple group passes through as singletons
    V = matrix_from_cells({0: {0: 1, 1: 2}, 1: {0: 2, 1: 4}})
    f = factor_whole_rows(V)
    assert f.metaterms == () and f.residual == tuple(V.rows)
    g = singleton_form(f)
    assert g.metaterms == (MetaTerm(0, (0, 1), (1, 2)), MetaTerm(1, (0, 1), (1, 2)))
    assert g.memberships == (((0, 1),), ((1, 2),))


def test_factor_whole_rows_empty_matrix():
    f = factor_whole_rows(matrix_from_cells({}))
    assert f.metaterms == () and total_size(f) == 0
    assert reconstruct(f).same_cells(matrix_from_cells({}))


def test_factor_whole_rows_recovers_planted_groups():
    V, report = planted_matrix(rng=random.Random(42))
    f = factor_whole_rows(V)
    multi = [b for b in f.provenance() if len(b.rows) >= 2]
    assert len(multi) == len(report.groups) == 10
    got = {(b.rows, b.cols, b.base, b.coeffs) for b in multi}
    want = {(g.terms, g.docs, g.base, g.coeffs) for g in report.groups}
    assert got == want
    planted_factored = sum(len(b.rows) + len(b.cols) for b in multi)
    assert planted_factored == 10 * (5 + 50)
    assert report.planted_nnz == 10 * 5 * 50
    assert nnz(V) == report.total_nnz
    assert reconstruct(f).same_cells(V)


def test_refine_partial_skips_zero_gain_pair():
    # shared ratio on 2 columns only: gain(2, 2) == 0, not applied
    V = matrix_from_cells({0: {0: 1, 1: 1, 2: 7}, 1: {0: 2, 1: 2, 2: 9}})
    f = factor(V, FactorParams(min_cols=2))
    assert f.metaterms == () and len(singleton_form(f).metaterms) == 2
    assert total_size(f) == 2 + 6
    assert reconstruct(f).same_cells(V)


def test_refine_partial_applies_three_column_overlap():
    # constant ratio on all 3 columns: gain(2, 3) == 1, applied
    V = matrix_from_cells({0: {0: 1, 1: 1, 2: 5}, 1: {0: 2, 1: 2, 2: 10}})
    f = factor(V, FactorParams(min_cols=2))
    assert len(f.metaterms) == 1
    assert f.metaterms[0].base == (1, 1, 5)
    assert f.memberships == (((0, 1),), ((0, 2),))
    assert total_size(f) == 5
    assert reconstruct(f).same_cells(V)


def test_refine_partial_residual_cells_become_singletons():
    # ratio constant on columns {0,1,2}; each row keeps one leftover cell
    V = matrix_from_cells(
        {0: {0: 1, 1: 1, 2: 5, 3: 7}, 1: {0: 2, 1: 2, 2: 10, 4: 9}}
    )
    f = refine_partial(factor_whole_rows(V), FactorParams(min_cols=3))
    assert reconstruct(f).same_cells(V)
    assert len(f.metaterms) == 1 and [row.docs for row in f.residual] == [(3,), (4,)]
    g = singleton_form(f)
    assert len(g.metaterms) == 3  # the merge plus two leftover singletons
    sizes = sorted(len(mt.cols) for mt in g.metaterms)
    assert sizes == [1, 1, 3]


def test_refine_partial_skips_pairs_below_min_lift():
    # the rows above: 4 residual cells each, 3 shared docs of 5, so lift
    # 3 * 5 / (4 * 4) = 0.94
    cells = {0: {0: 1, 1: 1, 2: 5, 3: 7}, 1: {0: 2, 1: 2, 2: 10, 4: 9}}
    p = FactorParams(min_cols=3)
    assert refine_partial(factor_whole_rows(matrix_from_cells(cells)), p, 2).metaterms == ()
    # the same rows among 20 docs: lift 3.75, and the same bicluster
    V = matrix_from_cells(cells, num_docs=20)
    f = refine_partial(factor_whole_rows(V), p, 2)
    assert [(b.rows, b.cols) for b in f.provenance()] == [((0, 1), (0, 1, 2))]
    assert f == refine_partial(factor_whole_rows(V), p)


def test_refine_partial_counts_a_skipped_pair_toward_the_cap():
    # among 60 docs, row 0 (20 cells) shares docs 0-3 with row 1 (14
    # cells), lift 0.86, and docs 4-13 with row 2 (10 cells), lift 3
    cells = {0: dict.fromkeys(range(20), 1), 1: dict.fromkeys([0, 1, 2, 3, *range(20, 30)], 1), 2: dict.fromkeys(range(4, 14), 2)}
    f1 = factor_whole_rows(matrix_from_cells(cells, num_docs=60))

    def biclusters(cap, min_lift):
        f = refine_partial(f1, FactorParams(min_cols=4, max_candidates_per_term=cap), min_lift)
        return [(b.rows, b.cols) for b in f.provenance()]

    assert biclusters(1, 2) == []  # row 0's one try went to row 1
    assert biclusters(2, 2) == [((0, 2), tuple(range(4, 14)))]
    assert biclusters(1, 0) == [((0, 1), (0, 1, 2, 3))]


def test_refine_partial_extends_to_a_row_min_lift_never_pairs():
    # among 12 docs, rows 0 (4 cells) and 1 (5 cells) share docs 0-3 in the
    # ratio 1:2, lift 2.4. Row 2 is 3 times their base there, and with 7
    # cells, 2 * 7 > 12: at min_lift 2 it is never an anchor or a partner,
    # yet the candidate's extension takes it in
    base = {0: 1, 1: 2, 2: 1, 3: 1}
    cells = {
        0: dict(base),
        1: {**{d: 2 * u for d, u in base.items()}, 8: 3},
        2: {**{d: 3 * u for d, u in base.items()}, 4: 1, 5: 1, 6: 1},
    }
    V = matrix_from_cells(cells, num_docs=12)
    f1 = factor_whole_rows(V)
    assert f1.metaterms == ()
    f = refine_partial(f1, FactorParams(), 2)
    assert [(b.rows, b.cols, b.base, b.coeffs) for b in f.provenance()] == [((0, 1, 2), (0, 1, 2, 3), (1, 2, 1, 1), (1, 2, 3))]
    assert f.residual[2].docs == (4, 5, 6) and f.residual[1].docs == (8,)
    assert f == refine_partial(f1, FactorParams())
    assert reconstruct(f).same_cells(V)


def test_refine_partial_passes_untouched_rows_through_as_they_are():
    # stats sizes a residual row that is V's own row object as V's row, so
    # stage 2 must hand back each row no bicluster touches as that object
    rng = random.Random(3)
    V = random_matrix(60, 40, 0.2, payload_range=(1, 2), rng=rng)
    f1 = factor_whole_rows(V)
    for min_lift in (0, 2):
        f2 = refine_partial(f1, FactorParams(min_cols=3), min_lift)
        touched = {t for t, row in enumerate(f2.memberships) if len(row) > len(f1.memberships[t])}
        assert f2.metaterms and touched
        for t in range(V.num_terms):
            assert (f2.residual[t] is f1.residual[t]) is (t not in touched)


def test_refine_partial_memory_per_residual_cell(tmp_path):
    # Stage 2's tracemalloc peak per residual cell, on each partner search.
    # 2,000 x 10,000 at density 0.005, about 100k residual cells, takes the
    # Counter search; stage 2 reads the rows' columns, with no {doc:
    # payload} dict per row, and stays under 32 B (about 20 B measured; a
    # dict per row took about 63 B). Zipf text over 300 docs, about 19k
    # cells, is dense enough for the bit-sliced search, whose doc and row
    # bitsets set its peak at min_lift 0: under 400 B (about 339 B
    # measured)
    path = tmp_path / "zipf.tsv"
    path.write_text("".join(f"{doc}\t{body}\n" for doc, body in zipf_corpus(300, 1000, rng=random.Random(1))), encoding="utf-8")
    for V, bound in ((random_matrix(2000, 10_000, 0.005, rng=random.Random(1)), 32), (ingest_tsv(path), 400)):
        f1 = factor_whole_rows(V)
        cells = sum(map(len, f1.residual))
        tracemalloc.start()
        try:
            refine_partial(f1, FactorParams())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * cells, (bound, peak / cells)


# Stage 2's tracemalloc peak per residual cell at min_lift 2, as factor()
# runs it, measured in a fresh interpreter: objects freed before and kept
# for reuse (the tuple free lists) would hide part of the peak, by as much
# as the bound's margin.
_FRESH_PEAK = """
import random, sys, tracemalloc
from mtix import FactorParams, ingest_tsv
from mtix.factorize import factor_whole_rows, refine_partial
f1 = factor_whole_rows(ingest_tsv(sys.argv[1]))
tracemalloc.start()
refine_partial(f1, FactorParams(), 2)
print(tracemalloc.get_traced_memory()[1] / sum(map(len, f1.residual)))
"""


def test_refine_partial_memory_per_residual_cell_dense_at_min_lift(tmp_path):
    # Zipf text over 1,000 docs of 20-60 words from 4,000, about 32k
    # cells, takes the bit-sliced search and has many rows of a few cells:
    # under 62 B (about 58.6 B measured). A search that built each anchor's
    # row bitset before its first partner, not once one is found, takes
    # about 66 B.
    path = tmp_path / "zipf.tsv"
    docs = zipf_corpus(1000, 4000, doc_len=(20, 60), rng=random.Random(1))
    path.write_text("".join(f"{doc}\t{body}\n" for doc, body in docs), encoding="utf-8")
    src = str(Path(mtix.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_PEAK, str(path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout
    assert float(out) < 62, out


def test_refine_partial_requeues_after_losing_rows_to_higher_gain():
    # candidate A = rows {0,1,3} on docs 0..5 (gain 9); candidate B = rows
    # {0,2} on docs 0..11 (gain 10). B wins, consumes row 0's cells, A loses
    # row 0 on revalidation and must re-enter the queue as {1,3} (gain 4).
    V = matrix_from_cells(
        {
            0: {d: 1 for d in range(12)},
            1: {**{d: 2 for d in range(6)}, 20: 7},
            3: {**{d: 5 for d in range(6)}, 21: 9},
            2: {d: 3 for d in range(12)},
        }
    )
    f = factor(V, FactorParams(min_cols=3))
    assert reconstruct(f).same_cells(V)
    multi = sorted((b.rows, b.cols) for b in f.provenance() if len(b.rows) >= 2)
    assert multi == [((0, 2), tuple(range(12))), ((1, 3), tuple(range(6)))]


def test_refine_partial_drops_candidate_fully_consumed():
    # after the 3-row merge on docs 0..4 wins, the (0,1) pair candidate over
    # docs 0..5 has no two live rows left and must be discarded
    V = matrix_from_cells(
        {
            0: {**{d: 1 for d in range(5)}, 5: 4},
            1: {**{d: 2 for d in range(5)}, 5: 8, 20: 3},
            2: {d: 3 for d in range(5)},
        }
    )
    f = factor(V, FactorParams(min_cols=3))
    assert reconstruct(f).same_cells(V)
    multi = [b for b in f.provenance() if len(b.rows) >= 2]
    assert len(multi) == 1
    assert multi[0].rows == (0, 1, 2) or multi[0].rows == (0, 1)


def test_refine_partial_candidate_cap_limits_work():
    # rows 1..9 are all multiples of row 0 over the same 4 columns but with
    # distinct supports; a cap of 1 candidate per term still factors exactly
    cells = {0: {0: 1, 1: 1, 2: 1, 3: 1}}
    for t in range(1, 10):
        cells[t] = {d: t + 1 for d in range(4)}
        cells[t][10 + t] = 13  # unique extra column defeats stage 1
    V = matrix_from_cells(cells)
    capped = factor(V, FactorParams(min_cols=4, max_candidates_per_term=1))
    full = factor(V, FactorParams(min_cols=4))
    assert reconstruct(capped).same_cells(V)
    assert reconstruct(full).same_cells(V)
    assert total_size(full) <= total_size(capped) <= total_size(factor_whole_rows(V))


def test_expand_empty_membership_row():
    V = matrix_from_cells({0: {0: 1}}, num_terms=3)
    f = factor(V)
    assert f.memberships[1] == () and f.memberships[2] == ()
    from mtix import expand_term

    assert expand_term(f, 2).postings == ()


def test_correlated_rows_torture():
    # rows drawn as integer multiples of a few shared bases over overlapping
    # column windows, plus noise: heavy stage-2 traffic, exactness must hold
    rng = random.Random(60)
    for trial in range(15):
        num_docs = rng.randint(12, 30)
        bases = []
        for _ in range(rng.randint(1, 3)):
            start = rng.randrange(0, num_docs - 6)
            width = rng.randint(4, min(10, num_docs - start))
            bases.append({start + i: rng.randint(1, 4) for i in range(width)})
        cells = {}
        t = 0
        for _ in range(rng.randint(4, 10)):
            base = rng.choice(bases)
            k = rng.randint(1, 6)
            row = {d: k * u for d, u in base.items()}
            for _ in range(rng.randint(0, 3)):  # noise cells on top
                row[rng.randrange(num_docs)] = rng.randint(1, 9)
            cells[t] = row
            t += 1
        for _ in range(rng.randint(0, 4)):  # pure noise rows
            cells[t] = {
                d: rng.randint(1, 9)
                for d in rng.sample(range(num_docs), rng.randint(1, 6))
            }
            t += 1
        V = matrix_from_cells(cells, num_terms=t, num_docs=num_docs)
        f1 = factor_whole_rows(V)
        f2 = factor(V, FactorParams(min_cols=3))
        assert reconstruct(f2).same_cells(V), trial
        assert total_size(f2) <= total_size(f1)
        assert factor(V, FactorParams(min_cols=3)) == f2  # deterministic
        assert _biclusters_are_primitive(f2)


def test_refine_partial_no_candidates_is_identity():
    V = matrix_from_cells({0: {0: 1, 1: 2}, 1: {2: 3, 3: 4}, 2: {0: 5, 2: 6}})
    f1 = factor_whole_rows(V)
    f2 = refine_partial(f1, FactorParams(min_cols=2))
    assert f1 == f2


def test_refine_partial_never_increases_size():
    rng = random.Random(11)
    for _ in range(30):
        V = random_matrix(8, 8, 0.5, payload_range=(1, 4), rng=rng)
        f1 = factor_whole_rows(V)
        f2 = refine_partial(f1, FactorParams(min_cols=2))
        assert total_size(f2) <= total_size(f1)
        assert reconstruct(f2).same_cells(V)


def test_reconstruct_detects_overlapping_memberships():
    bad = Factorization(
        metaterms=(MetaTerm(0, (0, 1), (1, 1)), MetaTerm(1, (1, 2), (1, 1))),
        memberships=(((0, 1), (1, 1)),),
        residual=(PostingList(0, (), ()),),
        num_terms=1,
        num_docs=3,
    )
    with pytest.raises(InvariantError):
        reconstruct(bad)


def test_total_size_examples():
    assert total_size(factor(matrix_from_cells({}))) == 0
    # all-singleton factorization of T rows: T coefficients + nnz base entries
    V = matrix_from_cells({0: {0: 1, 1: 2}, 1: {0: 2, 1: 3}, 2: {5: 4}})
    f = factor_whole_rows(V)
    assert total_size(f) == 3 + nnz(V)


def test_w_coefficients_are_positive_integers():
    rng = random.Random(21)
    V = random_matrix(30, 40, 0.2, payload_range=(2, 12), rng=rng)
    f = factor(V, FactorParams(min_cols=2))
    for row in f.memberships:
        for _, coeff in row:
            assert isinstance(coeff, int) and coeff >= 1


def test_metaterm_canonical_order():
    rng = random.Random(31)
    V = random_matrix(25, 30, 0.25, payload_range=(1, 5), rng=rng)
    f = refine_partial(factor_whole_rows(V), FactorParams(min_cols=2))
    # by (lowest member TermId, lowest DocId); every meta-term has members
    keys = [(b.rows[0], b.cols[0]) for b in f.provenance()]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert all(len(b.rows) >= 2 for b in f.provenance())
    assert f.metaterms and any(f.residual)
    for mid, mt in enumerate(f.metaterms):
        assert mt.id == mid
    # as exported, each residual row is a single-member meta-term after them
    keys = [(len(b.rows) < 2, b.rows[0], b.cols[0]) for b in singleton_form(f).provenance()]
    assert keys == sorted(keys)
    assert 0 < sum(single for single, _, _ in keys) < len(keys)
    # stage 1 numbers its groups as they come, with no renumbering pass: the
    # ids are positions and ascend by lowest member term, which planted_matrix's
    # shuffled term ids make differ from the order the groups were planted in
    V, report = planted_matrix(num_groups=8, rows_per_group=3, cols_per_group=6, noise_rows=30,
                               num_docs=60, noise_len_range=(2, 5), rng=random.Random(31))
    planted_lowest = [g.terms[0] for g in report.groups]
    assert planted_lowest != sorted(planted_lowest)
    f1 = factor_whole_rows(V)
    assert [mt.id for mt in f1.metaterms] == list(range(len(f1.metaterms)))
    assert [b.rows[0] for b in f1.provenance()] == sorted(planted_lowest)
    assert _assemble([(mt.cols, mt.base) for mt in f1.metaterms], f1.memberships, f1.residual, f1.num_docs) == f1
    # a meta-term left with no member, as the dissolve pass leaves one, is
    # dropped and the others are numbered from 0 in the same order
    gone = [t for t, row in enumerate(f1.memberships) if row and row[0][0] == 0]
    assert len(gone) >= 2 and len(f1.metaterms) >= 3
    memberships = [() if t in gone else row for t, row in enumerate(f1.memberships)]
    residual = [V.rows[t] if t in gone else row for t, row in enumerate(f1.residual)]
    assert _assemble([(mt.cols, mt.base) for mt in f1.metaterms], memberships, residual, f1.num_docs) == Factorization(
        metaterms=tuple(MetaTerm(mt.id - 1, mt.cols, mt.base) for mt in f1.metaterms[1:]),
        memberships=tuple(tuple((m - 1, k) for m, k in row) for row in memberships),
        residual=tuple(residual),
        num_terms=f1.num_terms,
        num_docs=f1.num_docs,
    )


def test_factor_is_deterministic():
    rng = random.Random(77)
    V = random_matrix(40, 50, 0.15, payload_range=(1, 9), rng=rng)
    f1 = factor(V, FactorParams(min_cols=2))
    f2 = factor(V, FactorParams(min_cols=2))
    assert f1 == f2


def test_membership_columns_are_disjoint_and_cover_support():
    rng = random.Random(13)
    V = random_matrix(20, 20, 0.4, payload_range=(1, 6), rng=rng)
    f = factor(V, FactorParams(min_cols=2))
    for t, row in enumerate(f.memberships):
        seen = set(f.residual[t].docs)
        for m, _ in row:
            cols = set(f.metaterms[m].cols)
            assert not cols & seen
            seen |= cols
        assert seen == set(V.rows[t].docs)


@st.composite
def small_matrices(draw):
    num_docs = draw(st.integers(1, 9))
    num_terms = draw(st.integers(1, 8))
    cells = {}
    for t in range(num_terms):
        docs = draw(st.sets(st.integers(0, num_docs - 1), max_size=num_docs))
        if docs:
            cells[t] = {d: draw(st.integers(1, 6)) for d in sorted(docs)}
    return matrix_from_cells(cells, num_terms=num_terms, num_docs=num_docs)


@settings(max_examples=120, deadline=None)
@given(small_matrices(), st.integers(2, 4), st.booleans())
def test_factor_exactness_property(V, min_cols, stage2):
    f = factor(V, FactorParams(min_cols=min_cols)) if stage2 else factor_whole_rows(V)
    assert reconstruct(f).same_cells(V)
    non_empty = sum(1 for row in V.rows if row.postings)
    assert total_size(f) <= non_empty + nnz(V)
    assert _biclusters_are_primitive(f)


def _golden_corpus(name, tmp_path):
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


GOLDEN_PARAMS = {"default": FactorParams(), "capped": FactorParams(min_cols=3, max_candidates_per_term=2)}


GOLDEN_DIGESTS = [
    ("zipf", "default", "b8d7bec9ddc1ced61fd074a34b636bace6d862c9f53e92affee2c3a3c9cf9445"),
    ("zipf", "capped", "9d928cff8966ee44301cd9b2ec538dd15af9bee1ffa1ff3572f3c9c29ec32da1"),
    ("planted", "default", "db2aee5882e0d18d376435ed1aedc197b83feb9956f722c569d99f98fb810296"),
    ("planted", "capped", "7cc4f9df10dc7dc8b0190deec9528a0df64bca2231f1c50e19bc1ab6691391b2"),
    ("random", "default", "c9d13394978a0ebc2ff5168ac65abd1333f954b1730ccbacba10a343fcee94e4"),
    ("random", "capped", "0c088e84cbfb34a6b95a9fc86496e94b9c63d50b7e1c530a623b7f21be949021"),
]


def _digest(f):
    h, w = io.StringIO(), io.StringIO()
    export_factors(f, h, w)
    return hashlib.sha256((h.getvalue() + w.getvalue()).encode()).hexdigest()


# Named by corpus and params alone, so that a regenerated digest keeps the test's name.
@pytest.mark.parametrize("corpus, params, digest", GOLDEN_DIGESTS, ids=[f"{c}-{p}" for c, p, _ in GOLDEN_DIGESTS])
def test_factor_golden_digest(corpus, params, digest, tmp_path):
    # Pinned greedy, the two entry-based stages: any change to stage 1 or
    # stage 2 output, including candidate order under the per-term cap,
    # shows up here.
    V = _golden_corpus(corpus, tmp_path)
    assert _digest(refine_partial(factor_whole_rows(V), GOLDEN_PARAMS[params])) == digest


# factor() on the same corpora: the greedy, then the dissolve pass under
# all-gamma codes. Under them stage 2 skips pairs below twice chance, so the
# greedy finds 316 and 307 meta-terms on zipf (403 and 444 at min_lift 0,
# as pinned above), 13 and 18 on planted (43 and 58) and 2 and 1 on random
# (17 and 34). The pass keeps none and 3 of them on zipf, none on random,
# and the 6 planted groups on planted, so both parameter sets give the same
# planted and random factorization.
FACTOR_DIGESTS = [
    ("zipf", "default", "dd665edd4ef15cbf6a2f463717948c90dd43de6d9ebc8975fae77e7cecf1cbfd"),
    ("zipf", "capped", "2d382b40249b00adb9f7e98f904f110eaf10dd6f33cd0d7ac381b24d1f2fe39c"),
    ("planted", "default", "3d475a1378d92705f3ced7cd8bb64db05a20418cb16d50ffaf2825efaec3886f"),
    ("planted", "capped", "3d475a1378d92705f3ced7cd8bb64db05a20418cb16d50ffaf2825efaec3886f"),
    ("random", "default", "bb098f89990f1492f7e7540a4a77bafff4d379243c77e3646ef7ddd1754ef65b"),
    ("random", "capped", "bb098f89990f1492f7e7540a4a77bafff4d379243c77e3646ef7ddd1754ef65b"),
]


@pytest.mark.parametrize("corpus, params, digest", FACTOR_DIGESTS, ids=[f"{c}-{p}" for c, p, _ in FACTOR_DIGESTS])
def test_factor_digest(corpus, params, digest, tmp_path):
    cfg = CodecConfig("gamma", "gamma", "gamma")
    assert _digest(factor(_golden_corpus(corpus, tmp_path), GOLDEN_PARAMS[params], cfg)) == digest


# factor() under all-vbyte, where the dissolve pass keeps 399 of zipf's 403
# meta-terms and 342 of its 444, so survivors with gaps between their ids are
# numbered densely again. It keeps every meta-term on planted and random, whose
# digests are then their GOLDEN_DIGESTS.
FACTOR_DIGESTS_VBYTE = [
    ("zipf", "default", "7c972955d0c39dbb4d3550fb21541fefea1f1511a90d51d6340d4036612c1005"),
    ("zipf", "capped", "772a4908b8b74b77f3e947cbec935bb8cd511e8a1f6065d78579eb626b01f8ed"),
    ("planted", "default", "db2aee5882e0d18d376435ed1aedc197b83feb9956f722c569d99f98fb810296"),
    ("planted", "capped", "7cc4f9df10dc7dc8b0190deec9528a0df64bca2231f1c50e19bc1ab6691391b2"),
    ("random", "default", "c9d13394978a0ebc2ff5168ac65abd1333f954b1730ccbacba10a343fcee94e4"),
    ("random", "capped", "0c088e84cbfb34a6b95a9fc86496e94b9c63d50b7e1c530a623b7f21be949021"),
]


@pytest.mark.parametrize(
    "corpus, params, digest", FACTOR_DIGESTS_VBYTE, ids=[f"{c}-{p}" for c, p, _ in FACTOR_DIGESTS_VBYTE]
)
def test_factor_digest_vbyte(corpus, params, digest, tmp_path):
    cfg = CodecConfig("vbyte", "vbyte", "vbyte")
    assert _digest(factor(_golden_corpus(corpus, tmp_path), GOLDEN_PARAMS[params], cfg)) == digest


@st.composite
def correlated_matrices(draw):
    # rows are integer multiples of a few shared bases over overlapping
    # column windows, plus noise cells: many ratio classes per row pair
    num_docs = draw(st.integers(6, 24))
    bases = []
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, num_docs - 2))
        width = draw(st.integers(2, min(10, num_docs - start)))
        bases.append({start + i: draw(st.integers(1, 4)) for i in range(width)})
    cells = {}
    for t in range(draw(st.integers(2, 12))):
        base = bases[draw(st.integers(0, len(bases) - 1))]
        k = draw(st.integers(1, 5))
        row = {d: k * u for d, u in base.items()}
        for _ in range(draw(st.integers(0, 3))):
            row[draw(st.integers(0, num_docs - 1))] = draw(st.integers(1, 9))
        cells[t] = row
    return matrix_from_cells(cells, num_docs=num_docs)


@st.composite
def sparse_id_matrices(draw):
    # correlated_matrices' rows spread over term ids into the thousands: runs
    # of empty rows and whole-row groups that stage 1 merges lie between
    # them, so the residual ids are sparse and cross machine-word boundaries
    V = draw(correlated_matrices())
    cells = {}
    t = 0
    for row in V.rows:
        t += draw(st.one_of(st.integers(0, 3), st.integers(60, 68), st.integers(500, 1500)))
        if draw(st.booleans()):
            # r >= 2 multiples over c >= 3 whole columns: gain(r, c) > 0
            cols = draw(st.lists(st.integers(0, V.num_docs - 1), min_size=3, max_size=6, unique=True))
            group_base = [draw(st.integers(1, 3)) for _ in cols]
            for _ in range(draw(st.integers(2, 3))):
                k = draw(st.integers(1, 4))
                cells[t] = {d: k * u for d, u in zip(cols, group_base)}
                t += 1
        cells[t] = dict(zip(row.docs, row.payloads))
        t += 1
    return matrix_from_cells(cells, num_docs=V.num_docs)


def _residual_index(V):
    """refine_partial's view of V's rows: term -> doc column, each doc's
    terms past an anchor, and its two partner searches, each bound to the
    tables it reads. The Counter search reads a doc's list as its terms
    past the anchor: the caller adds each anchor to its docs' lists after
    searching from it, from the last anchor back."""
    residual = {t: row.docs for t, row in enumerate(V.rows) if row}
    terms_of_doc = {}
    for t, docs in residual.items():
        for d in docs:
            terms_of_doc.setdefault(d, []).append(t)
    later = {d: [] for d in terms_of_doc}
    doc_bits = _Lazy(lambda d: _bits(terms_of_doc[d]))
    row_bits = _Lazy(lambda t: _bits(residual[t]))
    lanes = (1 << next(reversed(residual), -1) + 1) - 1
    return residual, later, partial(_later_partners, later), partial(_later_partners_sliced, doc_bits, row_bits, lanes)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(small_matrices(), correlated_matrices(), sparse_id_matrices()),
    st.sampled_from([2, 3, 4, 5, 7, 8, 9]),
)
def test_partner_searches_agree(V, min_cols):
    # refine_partial picks one partner search per call by density, so both
    # are called here directly, for every anchor, the last residual term
    # among them, and also with a min_cols above every row's length; each
    # yields every later row sharing at least min_cols docs, with the count
    residual, later, counted, sliced = _residual_index(V)
    above = max(map(len, residual.values()), default=0) + 1
    for t1 in sorted(residual, reverse=True):
        row1 = residual[t1]
        want = list(counted(row1, min_cols))
        assert list(sliced(row1, t1, min_cols)) == want
        shares = ((t2, len(set(row1).intersection(row2))) for t2, row2 in residual.items() if t2 > t1)
        assert want == [(t2, s) for t2, s in shares if s >= min_cols]
        assert list(sliced(row1, t1, above)) == [] == list(counted(row1, above))
        if t1 == max(residual):
            assert want == [] == list(counted(row1, 2)) == list(sliced(row1, t1, 2))
        for d in row1:
            later[d].append(t1)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(correlated_matrices(), sparse_id_matrices()),
    st.sampled_from([2, 3, 4, 5, 8]),
    st.sampled_from([1, 2, 64]),
)
def test_refine_partial_matches_reference(V, min_cols, cap):
    params = FactorParams(min_cols=min_cols, max_candidates_per_term=cap)
    f1 = factor_whole_rows(V)
    want = reference_refine_partial(V, singleton_form(f1), params)
    assert singleton_form(refine_partial(f1, params)) == want


def _refuse(*args):
    raise AssertionError("the other partner search ran")


def test_refine_partial_matches_reference_mid_size(tmp_path, monkeypatch):
    # Zipf text with default parameters: about 3,500 terms, thousands of
    # candidates, residual ids up to the last term. Its residual is dense,
    # so the bit-sliced partner search runs.
    path = tmp_path / "zipf.tsv"
    docs = zipf_corpus(400, 4000, rng=random.Random(11))
    path.write_text("".join(f"{doc}\t{body}\n" for doc, body in docs), encoding="utf-8")
    V = ingest_tsv(path)
    f1 = factor_whole_rows(V)
    monkeypatch.setattr("mtix.factorize._later_partners", _refuse)
    f2 = refine_partial(f1, FactorParams())
    assert singleton_form(f2) == reference_refine_partial(V, singleton_form(f1), FactorParams())
    assert total_size(f2) < total_size(f1)  # stage 2 applied biclusters


def test_refine_partial_matches_reference_sparse_mid_size(monkeypatch):
    # 1,500 terms over 4,000 docs at density 0.003, with 40 partial-column
    # groups of 3 rows x 6 docs laid over them: the residual is too sparse
    # for doc bitsets to count partners, so the Counter search runs
    rng = random.Random(13)
    V = random_matrix(1500, 4000, 0.003, payload_range=(1, 2), rng=rng)
    cells = {t: dict(zip(row.docs, row.payloads)) for t, row in enumerate(V.rows) if row}
    for _ in range(40):
        docs = rng.sample(range(4000), 6)
        base = [rng.randint(1, 3) for _ in docs]
        for t in rng.sample(range(1500), 3):
            k = rng.randint(1, 3)
            cells.setdefault(t, {}).update((d, k * u) for d, u in zip(docs, base))
    V = matrix_from_cells(cells, num_terms=1500, num_docs=4000)
    f1 = factor_whole_rows(V)
    monkeypatch.setattr("mtix.factorize._later_partners_sliced", _refuse)
    f2 = refine_partial(f1, FactorParams())
    assert singleton_form(f2) == reference_refine_partial(V, singleton_form(f1), FactorParams())
    assert total_size(f2) < total_size(f1)  # stage 2 applied biclusters


@st.composite
def small_planted_matrices(draw):
    V, _ = planted_matrix(
        num_groups=draw(st.integers(1, 4)),
        rows_per_group=draw(st.integers(2, 4)),
        cols_per_group=draw(st.integers(2, 4)),
        noise_rows=draw(st.integers(0, 12)),
        num_docs=draw(st.integers(8, 24)),
        coeff_range=(1, 3),
        base_range=(1, 3),
        noise_len_range=(5, 8),
        rng=random.Random(draw(st.integers(0, 2**32 - 1))),
    )
    return V


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_matrices(), correlated_matrices(), small_planted_matrices()))
def test_factor_whole_rows_matches_reference(V):
    assert singleton_form(factor_whole_rows(V)) == reference_factor_whole_rows(V)
