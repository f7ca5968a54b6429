"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s -v` to see the per-criterion
lines. Every tolerance is exact (integer or float equality) and every
criterion carries its runtime bound.
"""

import hashlib
import os
import random
import subprocess
import sys
import time
from itertools import accumulate, chain
from operator import sub
from pathlib import Path

import mtix
from mtix import (
    CodecConfig,
    FactorParams,
    Query,
    delta_decode,
    delta_encode,
    factor,
    factor_whole_rows,
    gamma_decode,
    gamma_encode,
    load_index,
    nnz,
    overlap_at_k,
    prune,
    reconstruct,
    save_index,
    stats,
    top_k,
    total_size,
    vbyte_decode,
    vbyte_encode,
    brute_force_optimal,
)
from mtix.cli import main
from mtix.codec import CODEC_NAMES, decode_lists, encode_lists
from mtix.synth import planted_matrix, random_matrix, random_queries, whole_row_multiple_instance
from conftest import brute_force_top_k

from test_codec import load_vectors


class criterion:
    """Times a criterion body, prints its PASS/FAIL line, enforces the bound."""

    def __init__(self, num: int, name: str, time_limit: float | None = None):
        self.num = num
        self.name = name
        self.time_limit = time_limit

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        in_time = self.time_limit is None or elapsed <= self.time_limit
        ok = exc_type is None and in_time
        budget = "" if self.time_limit is None else f" of {self.time_limit:g}s"
        print(f"\nACCEPTANCE {self.num} {self.name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s{budget})")
        if exc_type is None and not in_time:
            raise AssertionError(
                f"criterion {self.num} exceeded its {self.time_limit}s budget: {elapsed:.1f}s"
            )
        return False


def test_criterion_1_lossless_end_to_end(tmp_path):
    with criterion(1, "lossless end-to-end", time_limit=60.0):
        master = random.Random(101)
        for i in range(50):
            V = random_matrix(200, 1000, 0.01, payload_range=(1, 15), rng=master)
            f = factor(V)
            path = tmp_path / f"m{i}.idx"
            save_index(f, V.lexicon, CodecConfig(), path, V.doc_names)
            idx = load_index(path)
            assert idx.factorization == f
            rebuilt = reconstruct(idx.factorization)
            assert rebuilt.same_cells(V), f"matrix {i} not reconstructed exactly"
            for terms in random_queries(V.lexicon, 100, terms_range=(1, 4), rng=master):
                got = top_k(idx.factorization, Query(tuple(terms), 10), idx.lexicon)
                assert got == brute_force_top_k(V, terms, 10)


def test_criterion_2_planted_recovery():
    with criterion(2, "planted-bicluster recovery", time_limit=5.0):
        V, report = planted_matrix(
            num_groups=10,
            rows_per_group=5,
            cols_per_group=50,
            noise_rows=100,
            coeff_range=(1, 9),
            rng=random.Random(4242),
        )
        f = factor_whole_rows(V)
        multi = [b for b in f.provenance() if len(b.rows) >= 2]
        got = {(b.rows, b.cols, b.base, b.coeffs) for b in multi}
        want = {(g.terms, g.docs, g.base, g.coeffs) for g in report.groups}
        assert got == want, "recovered groups differ from the plant"
        planted_raw = report.planted_nnz
        planted_factored = sum(len(b.rows) + len(b.cols) for b in multi)
        assert planted_raw == 2500
        assert planted_factored == 550
        assert planted_raw / planted_factored >= 4.5
        assert reconstruct(f).same_cells(V)


def test_criterion_3_oracle_sandwich():
    with criterion(3, "oracle sandwich", time_limit=120.0):
        rng = random.Random(303)
        checked = 0
        while checked < 200:
            V = random_matrix(4, 6, 0.35, payload_range=(1, 6), rng=rng)
            n = nnz(V)
            if not 1 <= n <= 10:
                continue
            checked += 1
            optimum = brute_force_optimal(V)
            greedy = total_size(factor(V, FactorParams(min_cols=2)))
            non_empty = sum(1 for row in V.rows if row.postings)
            assert optimum <= greedy <= non_empty + n
        for seed in range(50):
            V, expected = whole_row_multiple_instance(random.Random(seed))
            assert brute_force_optimal(V) == expected == total_size(factor(V))


def _bits(data: bytes) -> str:
    return "".join(format(b, "08b") for b in data)


def _as_lists(values, size):
    """`values` in order as lists of `size` postings: each posting's key gap
    is one value and its payload the next."""
    lists = []
    for i in range(0, len(values), 2 * size):
        gaps, payloads = values[i : i + 2 * size : 2], values[i + 1 : i + 2 * size : 2]
        lists.append(([k - 1 for k in accumulate(gaps)], list(payloads)))
    return lists


def _assert_round_trip(lists, gap_codec, val_codec):
    blob, offsets = encode_lists(lists, gap_codec, val_codec)
    assert list(decode_lists(blob, offsets, gap_codec, val_codec)) == lists


def _assert_gamma_length_law(values):
    # One list ((0,), (x,)) per value, then one more to mark the end of the
    # last: each list's length, from encode_lists' offsets, is the 4-bit head
    # gamma(2) + gamma(1) plus gamma(x)'s length, 2*floor(log2 x) + 1.
    _, offsets = encode_lists((((0,), (x,)) for x in chain(values, (1,))), "gamma", "gamma")
    lengths = list(map(sub, offsets[1:], offsets))
    assert lengths == [4 + 2 * (x.bit_length() - 1) + 1 for x in values]


def test_criterion_4_codec_conformance():
    with criterion(4, "codec conformance", time_limit=30.0):
        for value, codec, encoded in load_vectors():
            if codec == "vbyte":
                assert vbyte_encode(value).hex() == encoded
                assert vbyte_decode(bytes.fromhex(encoded)) == (value, len(encoded) // 2)
            elif codec == "gamma":
                assert gamma_encode(value) == encoded
                assert gamma_decode(encoded) == (value, len(encoded))
            else:
                assert delta_encode(value) == encoded
                assert delta_decode(encoded) == (value, len(encoded))
            if value == 0:
                continue  # list values are >= 1; vbyte 0 is the string codec's alone
            # the one-posting list ((0,), (value,)): head gamma(2) + gamma(1),
            # then the frozen word, then zero bits to the byte
            blob, offsets = encode_lists([((0,), (value,))], "gamma", codec)
            bits = "0101" + (_bits(bytes.fromhex(encoded)) if codec == "vbyte" else encoded)
            assert (_bits(blob), offsets) == (bits + "0" * (-len(bits) % 8), [0])
            assert list(decode_lists(blob, offsets, "gamma", codec)) == [([0], [value])]

        # 1..2^20 in each codec, each value coded once, as a gap or a payload;
        # the first list's words (1..4094) come from the kernel's small-value
        # table, the others are formatted
        top = 1 << 20
        ranges = _as_lists(range(1, top + 1), 2047)
        for codec in CODEC_NAMES:
            _assert_round_trip(ranges, codec, codec)
        assert vbyte_decode(vbyte_encode(0)) == (0, 1)

        _assert_gamma_length_law(range(1, top + 1))

        # seeded 64-bit samples in lists of 8 postings under three mixed
        # (gap, payload) codec pairs: each codec codes every sample once,
        # next to words of the other codecs
        rng = random.Random(404)
        samples = [rng.randrange(1, 1 << 64) for _ in range(100_000)]
        lists = _as_lists(samples, 8)
        for gap_codec, val_codec in (("gamma", "delta"), ("delta", "vbyte"), ("vbyte", "gamma")):
            _assert_round_trip(lists, gap_codec, val_codec)
        _assert_gamma_length_law(samples)


def test_criterion_5_pruning_behavior():
    with criterion(5, "pruning behavior", time_limit=60.0):
        rng = random.Random(20260808)
        V = random_matrix(100, 800, 0.05, payload_range=(1, 15), rng=rng)
        queries = random_queries(V.lexicon, 50, terms_range=(1, 4), rng=rng)
        cfg = CodecConfig()

        payloads = sorted(p for row in V.rows for _, p in row)
        def pct(q):
            return payloads[min(len(payloads) - 1, int(q * len(payloads)))]
        thetas = [1, pct(0.25), pct(0.50), pct(0.75), payloads[-1] + 1]
        assert thetas == sorted(thetas)

        f0 = factor(V)
        baseline = [top_k(f0, Query(tuple(q), 10), V.lexicon) for q in queries]
        assert all(len(r) == 10 for r in baseline), "queries must fill k results"

        prev_nnz = prev_bytes = None
        for theta in thetas:
            pruned = prune(V, theta)
            f = factor(pruned)
            st = stats(pruned, f, cfg)
            if prev_nnz is not None:
                assert st.nnz_v <= prev_nnz, f"nnz increased at theta={theta}"
                assert st.bytes_factored <= prev_bytes, f"factored bytes increased at theta={theta}"
            prev_nnz, prev_bytes = st.nnz_v, st.bytes_factored

            results = [top_k(f, Query(tuple(q), 10), V.lexicon) for q in queries]
            if theta == 1:
                assert all(
                    overlap_at_k(res, ref, 10) == 1.0 for res, ref in zip(results, baseline)
                ), "theta=1 must leave results identical"
            if theta == thetas[-1]:
                assert st.nnz_v == 0
                assert all(res == [] for res in results), "max+1 must empty all results"


def test_criterion_6_remainder_diagnostic(tmp_path, capsys):
    with criterion(6, "remainder diagnostic", time_limit=30.0):
        # this tool's own factors: R must be empty
        V, _ = planted_matrix(
            num_groups=4, rows_per_group=4, cols_per_group=20,
            noise_rows=30, num_docs=200, noise_len_range=(4, 15),
            rng=random.Random(606),
        )
        from mtix import export_triples

        triples = tmp_path / "v.triples"
        export_triples(V, triples)
        assert main(["factor", str(triples), str(tmp_path / "own"), "--triples"]) == 0
        assert main([
            "diag-remainder", str(triples), str(tmp_path / "own.w"), str(tmp_path / "own.h"),
        ]) == 0
        out = capsys.readouterr().out
        assert "nnz_R\t0" in out and "R larger than V: no" in out

        # hand-built 3x3: identity-pattern V, all-ones product
        (tmp_path / "v3.t").write_text("0 0 1\n1 1 1\n2 2 1\n")
        (tmp_path / "w3.t").write_text("0 0 1\n1 0 1\n2 0 1\n")
        (tmp_path / "h3.t").write_text("0 0 1\n0 1 1\n0 2 1\n")
        assert main([
            "diag-remainder", str(tmp_path / "v3.t"), str(tmp_path / "w3.t"), str(tmp_path / "h3.t"),
        ]) == 0
        out = capsys.readouterr().out
        assert "nnz_V\t3" in out
        assert "nnz_R\t6" in out
        assert "R larger than V: yes" in out


def test_criterion_7_build_determinism(tmp_path):
    with criterion(7, "build determinism", time_limit=60.0):
        V, _ = planted_matrix(rng=random.Random(707))
        from mtix import export_triples

        corpus = tmp_path / "corpus.triples"
        export_triples(V, corpus)
        digests = []
        for name in ("a.idx", "b.idx"):
            out = tmp_path / name
            assert main(["build", str(corpus), str(out), "--triples"]) == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        # and once more in a fresh interpreter, importing this same mtix
        out = tmp_path / "c.idx"
        src = str(Path(mtix.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "mtix.cli", "build", str(corpus), str(out), "--triples"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert len(set(digests)) == 1, "index bytes differ across runs"
