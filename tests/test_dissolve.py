"""factor()'s dissolve pass: the index it factors is never larger than the
directly coded one, under the codecs it is written with."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import query_reference as reference
from mtix import (
    CodecConfig,
    FactorParams,
    Query,
    brute_force_optimal,
    factor,
    factor_whole_rows,
    ingest_tsv,
    matrix_from_cells,
    reconstruct,
    refine_partial,
    stats,
    top_k,
    total_size,
)
from mtix.factorize import _MIN_LIFT, _Cover, _dissolve, _min_lift
from mtix.synth import planted_matrix, random_matrix, whole_row_multiple_instance, zipf_corpus
from conftest import singleton_form
from test_factorize import correlated_matrices, small_matrices, small_planted_matrices, sparse_id_matrices

# the three all-same configurations, and the smallest direct coding measured
# on zipf text: doc gaps in delta, payloads and coefficients in gamma
CFGS = [CodecConfig(c, c, c) for c in ("gamma", "delta", "vbyte")] + [CodecConfig("delta", "gamma", "gamma")]
CFG_IDS = ["gamma", "delta", "vbyte", "delta-gamma-gamma"]


def _zipf_matrix(tmp_path, num_docs, vocab_size, seed):
    path = tmp_path / "zipf.tsv"
    docs = zipf_corpus(num_docs, vocab_size, rng=random.Random(seed))
    path.write_text("".join(f"{doc}\t{body}\n" for doc, body in docs), encoding="utf-8")
    return ingest_tsv(path)


def _assert_never_larger_than_direct(V, f, cfg):
    """The factored W and H take no more bytes than V coded directly, plus
    the one bit per term of the W rows, which a factorization with no
    meta-term costs."""
    st_ = stats(V, f, cfg)
    assert st_.bytes_factored <= st_.bytes_direct + -(-V.num_terms // 8)


# perfbench's three corpora, scaled down by ten
def _bench_shaped(name, tmp_path):
    if name == "zipf-text":
        return _zipf_matrix(tmp_path, 200, 500, 1)
    if name == "planted-triples":
        V, _ = planted_matrix(num_groups=100, noise_rows=1000, num_docs=2000, rng=random.Random(1))
        return V
    return random_matrix(400, 2000, 0.005, rng=random.Random(1))


@pytest.mark.parametrize("cfg", CFGS, ids=CFG_IDS)
@pytest.mark.parametrize("corpus", ["zipf-text", "planted-triples", "random-triples"])
def test_factor_is_never_larger_than_direct_on_bench_shaped_corpora(corpus, cfg, tmp_path):
    V = _bench_shaped(corpus, tmp_path)
    f = factor(V, cfg=cfg)
    _assert_never_larger_than_direct(V, f, cfg)
    assert reconstruct(f).same_cells(V)
    if corpus == "planted-triples":  # every planted group pays under every codec
        assert len(f.metaterms) == 100


def test_zipf_text_under_delta_gaps_falls_back_to_direct(tmp_path, monkeypatch):
    # Under doc-gap delta, the pass dissolves all but 14 of the meta-terms
    # stage 2 finds on this corpus with no pair skipped, and no survivor's
    # dissolution alone saves bits, yet together they cost 66 B more than
    # their members' rows coded directly: the final check returns the
    # all-direct form.
    V = _zipf_matrix(tmp_path, 500, 2000, 1)
    cfg = CodecConfig("delta", "gamma", "gamma")
    greedy = refine_partial(factor_whole_rows(V), FactorParams())
    f = _dissolve(V, greedy, cfg)
    assert f.metaterms == () and f.residual == tuple(V.rows)
    assert all(row == () for row in f.memberships)
    st_ = stats(V, f, cfg)
    assert st_.bytes_factored == st_.bytes_direct + -(-V.num_terms // 8)

    # factor() skips the pairs below twice chance: one 4 x 4 meta-term is
    # left, and it pays
    factored = factor(V, cfg=cfg)
    assert [(len(b.rows), len(b.cols)) for b in factored.provenance()] == [(4, 4)]
    assert stats(V, factored, cfg).bytes_factored == st_.bytes_factored - 4

    monkeypatch.setattr(_Cover, "pays", lambda cover, matrix: True)
    fixpoint = _dissolve(V, greedy, cfg)
    assert len(fixpoint.metaterms) == 14
    assert stats(V, fixpoint, cfg).bytes_factored == st_.bytes_factored + 66


factor_inputs = st.one_of(small_matrices(), correlated_matrices(), sparse_id_matrices(), small_planted_matrices())


@settings(max_examples=200, deadline=None)
@given(factor_inputs, st.sampled_from(CFGS), st.integers(2, 4))
def test_factor_is_never_larger_than_direct(V, cfg, min_cols):
    _assert_never_larger_than_direct(V, factor(V, FactorParams(min_cols=min_cols), cfg), cfg)


# vbyte spends a byte or more on any gap and payload, so a chance-level
# bicluster still saves bytes there
VBYTE_CFGS = [cfg for cfg in CFGS if _min_lift(cfg) == 0]


@settings(max_examples=100, deadline=None)
@given(factor_inputs, st.sampled_from(VBYTE_CFGS), st.integers(2, 4))
def test_factor_skips_no_pair_under_vbyte_streams(V, cfg, min_cols):
    p = FactorParams(min_cols=min_cols)
    assert factor(V, p, cfg) == _dissolve(V, refine_partial(factor_whole_rows(V), p), cfg)


@pytest.mark.parametrize(
    "codes", [("vbyte",) * 3, ("vbyte", "gamma", "gamma"), ("gamma", "vbyte", "gamma"), ("delta", "vbyte", "vbyte")]
)
def test_min_lift_loses_bytes_under_vbyte_streams(tmp_path, codes):
    # why factor() skips no pair under a vbyte doc-gap or payload code: on
    # zipf text, stage 2 at _MIN_LIFT leaves a larger index there
    cfg = CodecConfig(*codes)
    assert _min_lift(cfg) == 0
    V = _zipf_matrix(tmp_path, 60, 100, 1)
    skipping = _dissolve(V, refine_partial(factor_whole_rows(V), FactorParams(), _MIN_LIFT), cfg)
    assert stats(V, factor(V, cfg=cfg), cfg).bytes_factored < stats(V, skipping, cfg).bytes_factored


@settings(max_examples=200, deadline=None)
@given(factor_inputs, st.sampled_from(CFGS), st.integers(2, 4))
# a survivor that only the min-lift-2 greedy forms: under gamma, factor()
# keeps a bicluster that refine_partial at min_lift 0 does not make
@example(
    matrix_from_cells(
        {
            0: {0: 2, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1},
            1: {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 7: 1},
            **{t: dict.fromkeys(range(5), 1) for t in (2, 3, 4)},
            5: dict.fromkeys(range(7), 1),
        },
        num_docs=14,
    ),
    CodecConfig(),
    2,
)
def test_dissolve_pass_properties(V, cfg, min_cols):
    f = factor(V, FactorParams(min_cols=min_cols), cfg)
    assert reconstruct(f).same_cells(V)
    names = [V.lexicon.term_of(row.term) for row in V.rows if row]
    g = singleton_form(f)
    for q in [Query((name,), 5) for name in names] + [Query(tuple(names), 10)]:
        assert top_k(f, q, V.lexicon) == reference.top_k(g, q, V.lexicon)

    # the survivors keep the greedy's canonical order: by (lowest member
    # term, lowest doc), each id its position
    provenance = f.provenance()
    keys = [(b.rows[0], b.cols[0]) for b in provenance]
    assert keys == sorted(set(keys))
    assert [mt.id for mt in f.metaterms] == list(range(len(f.metaterms)))
    assert all(len(b.rows) >= 2 for b in provenance)
    greedy = refine_partial(factor_whole_rows(V), FactorParams(min_cols=min_cols), _min_lift(cfg))
    greedy = {(b.rows, b.cols) for b in greedy.provenance()}
    assert {(b.rows, b.cols) for b in provenance} <= greedy

    # a fixpoint: by the pass's own accounting, dissolving any one survivor
    # saves no bits
    cover = _Cover(f, cfg)
    assert all(cover.saving(m) <= 0 for m in range(len(f.metaterms)))


@settings(max_examples=300, deadline=None)
@given(factor_inputs, st.sampled_from(CFGS), st.integers(2, 4))
def test_final_check_keeps_exactly_what_is_no_larger(V, cfg, min_cols):
    # on the greedy's output, whose meta-terms often lose bytes: the check
    # sizes only the member terms' lists, yet decides as whole files would
    f = refine_partial(factor_whole_rows(V), FactorParams(min_cols=min_cols))
    st_ = stats(V, f, cfg)
    assert _Cover(f, cfg).pays(V) == (st_.bytes_factored <= st_.bytes_direct + -(-V.num_terms // 8))


@pytest.mark.parametrize("cfg", CFGS, ids=CFG_IDS)
def test_whole_row_instances_keep_their_optimum(cfg):
    # criterion 3's instances under every codec: each group pays in bits too
    for seed in range(50):
        V, expected = whole_row_multiple_instance(random.Random(seed))
        assert brute_force_optimal(V) == expected == total_size(factor(V, cfg=cfg))
