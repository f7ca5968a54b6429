"""The stage-2 miner as it was before candidate mining moved into set and
count builtins, kept verbatim as the reference the differential test in
test_factorize compares factorize.refine_partial against. Not used by mtix.

It reads and returns the singleton form (see stage1_reference): every cell
in a meta-term, each row's leftover cells a single-member one.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import gcd

from mtix.factorize import Bicluster, FactorParams, Factorization, gain
from mtix.matrix import TermDocMatrix
from stage1_reference import _assemble


def _candidate_from_cols(
    residual: dict[int, dict[int, int]],
    terms_of_doc: dict[int, list[int]],
    anchor: int,
    docs: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Extend (anchor, docs) to the maximal residual row set proportional to
    the anchor's restriction; returns (rows, cols, primitive base, coeffs)."""
    anchor_cells = residual[anchor]
    g = 0
    for d in docs:
        g = gcd(g, anchor_cells[d])
    base = tuple(anchor_cells[d] // g for d in docs)

    probe = min(docs, key=lambda d: len(terms_of_doc[d]))
    rows = []
    coeffs = []
    d0, u0 = docs[0], base[0]
    for t in terms_of_doc[probe]:
        cells = residual[t]
        v0 = cells.get(d0)
        if v0 is None:
            continue
        k, rem = divmod(v0, u0)
        if rem or k < 1:
            continue
        if all(cells.get(d) == k * u for d, u in zip(docs, base)):
            rows.append(t)
            coeffs.append(k)
    return tuple(rows), docs, base, tuple(coeffs)


def refine_partial(matrix: TermDocMatrix, f: Factorization, params: FactorParams) -> Factorization:
    """Stage 2: greedy partial-column merging over singleton-covered cells.

    Candidates come from pairs of residual rows sharing at least min_cols
    columns with a constant payload ratio; each candidate is extended to all
    residual rows that are exact multiples of its base, then candidates are
    applied in descending gain order (ties: lowest TermId, then lowest DocId),
    revalidated against already-consumed cells first. Leftover cells of a
    partially consumed row become a fresh singleton meta-term, so the output
    total size never exceeds the input's.
    """
    multi: list[Bicluster] = []
    residual: dict[int, dict[int, int]] = {}
    for b in f.provenance():
        if len(b.rows) >= 2:
            multi.append(b)
        else:
            t = b.rows[0]
            cells = residual.setdefault(t, {})
            k = b.coeffs[0]
            for d, u in zip(b.cols, b.base):
                cells[d] = k * u

    terms_of_doc: dict[int, list[int]] = {}
    for t in sorted(residual):
        for d in residual[t]:
            terms_of_doc.setdefault(d, []).append(t)

    # Candidate generation, one pass over residual row pairs.
    heap: list[tuple] = []
    seen: set[tuple] = set()
    for t1 in sorted(residual):
        row1 = residual[t1]
        if len(row1) < params.min_cols:
            continue
        shared_count: dict[int, int] = {}
        for d in row1:
            for t2 in terms_of_doc[d]:
                if t2 > t1:
                    shared_count[t2] = shared_count.get(t2, 0) + 1
        made = 0
        for t2 in sorted(shared_count):
            if made >= params.max_candidates_per_term:
                break
            if shared_count[t2] < params.min_cols:
                continue
            row2 = residual[t2]
            by_ratio: dict[tuple[int, int], list[int]] = {}
            for d in sorted(d for d in row1 if d in row2):
                a, b = row1[d], row2[d]
                g = gcd(a, b)
                by_ratio.setdefault((a // g, b // g), []).append(d)
            for ratio in sorted(by_ratio, key=lambda rt: by_ratio[rt][0]):
                docs = by_ratio[ratio]
                if len(docs) < params.min_cols:
                    continue
                rows, cols, base, coeffs = _candidate_from_cols(
                    residual, terms_of_doc, t1, tuple(docs)
                )
                sig = (cols, base)
                if sig in seen:
                    continue
                seen.add(sig)
                g_val = gain(len(rows), len(cols))
                if len(rows) < 2 or g_val <= 0:
                    continue
                heappush(heap, (-g_val, rows[0], cols[0], rows, cols, base, coeffs))
                made += 1

    # Greedy application with revalidation against consumed cells.
    applied: list[Bicluster] = []
    while heap:
        _, _, _, rows, cols, base, coeffs = heappop(heap)
        live = [
            (t, k)
            for t, k in zip(rows, coeffs)
            if t in residual and all(d in residual[t] for d in cols)
        ]
        if len(live) < 2:
            continue
        g_val = gain(len(live), len(cols))
        if g_val <= 0:
            continue
        if len(live) != len(rows):
            live_rows = tuple(t for t, _ in live)
            live_coeffs = tuple(k for _, k in live)
            heappush(heap, (-g_val, live_rows[0], cols[0], live_rows, cols, base, live_coeffs))
            continue
        for t in rows:
            cells = residual[t]
            for d in cols:
                del cells[d]
            if not cells:
                del residual[t]
        applied.append(Bicluster(rows, cols, base, coeffs))

    biclusters = multi + applied
    for t in sorted(residual):
        cells = residual[t]
        docs = tuple(sorted(cells))
        payloads = [cells[d] for d in docs]
        g = 0
        for p in payloads:
            g = gcd(g, p)
        biclusters.append(Bicluster((t,), docs, tuple(p // g for p in payloads), (g,)))
    return _assemble(biclusters, f.num_terms, f.num_docs)
