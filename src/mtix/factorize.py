"""Exact factorization V = W.H via disjoint constant-ratio bicluster discovery.

A bicluster is an all-non-zero submatrix whose rows are integer multiples of
one primitive (GCD-1) base vector. Each discovered bicluster becomes a
meta-term: its base over its columns is stored once in H, and every member
row stores only its integer coefficient in W. Covering every non-zero cell
with element-disjoint biclusters makes the factorization exact; the objective
is to keep the total bicluster size (rows + columns, i.e. nnz(W) + nnz(H))
small. Finding the best cover is intractable, so the factorizer is a
two-stage greedy:

* Stage 1 groups whole rows by identical (support, primitive base) signature;
  a group of r rows over c columns is merged whenever gain(r, c) > 0.
* Stage 2 mines the remaining singleton-covered cells for partial-column
  biclusters: column subsets on which pairs of rows keep a constant payload
  ratio, extended to all rows that fit, applied greedily by descending gain.

A desk-scale exhaustive oracle (brute_force_optimal) provides the exact
minimum for tiny instances so the greedy can be sandwich-tested.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, compress, repeat
from math import gcd
from operator import ge, itemgetter
from pathlib import Path
from typing import IO, Sequence

from .errors import InvariantError, ValidationError
from .matrix import Lexicon, PostingList, TermDocMatrix, primitive_form


def gain(r: int, c: int) -> int:
    """Stored entries saved by merging r rows over c columns: r*c - (r + c)."""
    if r < 1 or c < 1:
        raise ValidationError("gain: r and c must be >= 1")
    return r * c - (r + c)


@dataclass(frozen=True)
class Bicluster:
    """Witness that rows x cols of V equals outer(coeffs, base), base primitive."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    base: tuple[int, ...]
    coeffs: tuple[int, ...]

    def check_against(self, matrix: TermDocMatrix) -> None:
        """Cell-by-cell validation; raises InvariantError on any mismatch."""
        if not self.rows or not self.cols:
            raise InvariantError("bicluster must have at least one row and one column")
        g = 0
        for u in self.base:
            g = gcd(g, u)
        if g != 1:
            raise InvariantError(f"bicluster base has gcd {g}, expected 1")
        for t, k in zip(self.rows, self.coeffs):
            if k < 1:
                raise InvariantError(f"coefficient {k} for term {t} must be >= 1")
            cells = dict(matrix.rows[t].postings)
            for d, u in zip(self.cols, self.base):
                if cells.get(d) != k * u:
                    raise InvariantError(
                        f"cell ({t}, {d}): expected {k * u}, matrix has {cells.get(d)}"
                    )


@dataclass(frozen=True)
class MetaTerm:
    """A synthetic term: the base vector of one bicluster over its columns."""

    id: int
    cols: tuple[int, ...]
    base: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.cols)


@dataclass(frozen=True)
class FactorParams:
    """Stage-2 knobs. The pipeline is deterministic."""

    min_cols: int = 4
    max_candidates_per_term: int = 64
    enable_stage2: bool = True

    def __post_init__(self) -> None:
        if self.min_cols < 2:
            raise ValidationError("min_cols must be >= 2")
        if self.max_candidates_per_term < 1:
            raise ValidationError("max_candidates_per_term must be >= 1")


@dataclass(frozen=True)
class Factorization:
    """H (meta-term store) plus W (per-term meta-term memberships).

    memberships[t] is the ascending (meta-term id, coefficient) list of term t;
    meta-term ids are indices into metaterms. Exactness contract:
    reconstruct(f) equals the source matrix cell for cell, and each term's
    membership columns are pairwise disjoint.
    """

    metaterms: tuple[MetaTerm, ...]
    memberships: tuple[tuple[tuple[int, int], ...], ...]
    num_terms: int
    num_docs: int

    @property
    def nnz_w(self) -> int:
        return sum(len(row) for row in self.memberships)

    @property
    def nnz_h(self) -> int:
        return sum(len(mt.cols) for mt in self.metaterms)

    def provenance(self) -> list[Bicluster]:
        """The originating bicluster of each meta-term, rebuilt from W and H."""
        members: list[list[tuple[int, int]]] = [[] for _ in self.metaterms]
        for t, row in enumerate(self.memberships):
            for m, k in row:
                members[m].append((t, k))
        return [
            Bicluster(
                rows=tuple(t for t, _ in mem),
                cols=mt.cols,
                base=mt.base,
                coeffs=tuple(k for _, k in mem),
            )
            for mt, mem in zip(self.metaterms, members)
        ]


def total_size(f: Factorization) -> int:
    """nnz(W) + nnz(H): the minimized objective."""
    return f.nnz_w + f.nnz_h


def _assemble(biclusters: Sequence[Bicluster], num_terms: int, num_docs: int) -> Factorization:
    """Canonical meta-term order: by (lowest member TermId, lowest DocId)."""
    order = sorted(range(len(biclusters)), key=lambda i: (biclusters[i].rows[0], biclusters[i].cols[0]))
    metaterms = []
    memberships: list[list[tuple[int, int]]] = [[] for _ in range(num_terms)]
    for mid, i in enumerate(order):
        b = biclusters[i]
        metaterms.append(MetaTerm(mid, b.cols, b.base))
        for t, k in zip(b.rows, b.coeffs):
            memberships[t].append((mid, k))
    return Factorization(
        metaterms=tuple(metaterms),
        memberships=tuple(tuple(sorted(row)) for row in memberships),
        num_terms=num_terms,
        num_docs=num_docs,
    )


def factor_whole_rows(matrix: TermDocMatrix) -> Factorization:
    """Stage 1: merge rows that are exact multiples over their full support.

    Rows are grouped by identical (support, primitive base); a group of r >= 2
    rows over c columns is merged into one bicluster when gain(r, c) > 0,
    otherwise each row passes through as a singleton meta-term with its GCD
    scale as the W coefficient.
    """
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for t, row in enumerate(matrix.rows):
        if not row.postings:
            continue
        prim = primitive_form(row)
        groups.setdefault(prim.base, []).append((t, prim.scale))

    biclusters = []
    for key, members in groups.items():
        cols = tuple(d for d, _ in key)
        base = tuple(u for _, u in key)
        if len(members) >= 2 and gain(len(members), len(cols)) > 0:
            biclusters.append(
                Bicluster(
                    rows=tuple(t for t, _ in members),
                    cols=cols,
                    base=base,
                    coeffs=tuple(s for _, s in members),
                )
            )
        else:
            for t, s in members:
                biclusters.append(Bicluster((t,), cols, base, (s,)))
    return _assemble(biclusters, matrix.num_terms, matrix.num_docs)


def _later_partners(
    terms_of_doc: dict[int, list[int]], row1: dict[int, int], t1: int, min_cols: int
) -> list[int]:
    """The residual rows t2 > t1 sharing at least min_cols docs with row1,
    ascending. A doc's term list is ascending, so t1's later partners in it
    are the suffix past t1."""
    counts = Counter(
        chain.from_iterable((later := terms_of_doc[d])[bisect_right(later, t1) :] for d in row1)
    )
    return sorted(compress(counts, map(ge, counts.values(), repeat(min_cols))))


def _candidate_rows(
    residual: dict[int, dict[int, int]],
    terms_of_doc: dict[int, list[int]],
    docs: tuple[int, ...],
    base: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The residual rows equal to k * base over docs for some k >= 1, in
    ascending TermId order, with their k.

    Only terms present in every one of docs can match, so the term lists of
    docs are intersected first (smallest list first) and the exact ratio
    check runs on the survivors alone.
    """
    lists = sorted(map(terms_of_doc.__getitem__, docs), key=len)
    payloads = itemgetter(*docs)  # len(docs) >= min_cols >= 2: returns a tuple
    rows = []
    coeffs = []
    for t in sorted(set(lists[0]).intersection(*lists[1:])):
        cells = payloads(residual[t])
        k, rem = divmod(cells[0], base[0])
        if not rem and k >= 1 and cells == tuple([k * u for u in base]):
            rows.append(t)
            coeffs.append(k)
    return tuple(rows), tuple(coeffs)


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
    min_cols = params.min_cols
    heap: list[tuple] = []
    seen: set[tuple] = set()
    for t1 in sorted(residual):
        row1 = residual[t1]
        if len(row1) < min_cols:
            continue
        made = 0
        for t2 in _later_partners(terms_of_doc, row1, t1, min_cols):
            if made >= params.max_candidates_per_term:
                break
            row2 = residual[t2]
            by_ratio: dict[tuple[int, int], list[int]] = {}
            for d in sorted(row1.keys() & row2.keys()):
                a, b = row1[d], row2[d]
                g = gcd(a, b)
                by_ratio.setdefault((a // g, b // g), []).append(d)
            # Docs were added in ascending order: the classes come by first doc.
            for docs in by_ratio.values():
                if len(docs) < min_cols:
                    continue
                cols = tuple(docs)
                anchor = [row1[d] for d in cols]
                g = gcd(*anchor)
                base = tuple([u // g for u in anchor])
                # (cols, base) fixes the extended rows, so a repeat is dropped unextended.
                sig = (cols, base)
                if sig in seen:
                    continue
                seen.add(sig)
                rows, coeffs = _candidate_rows(residual, terms_of_doc, cols, base)
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


def factor(matrix: TermDocMatrix, params: FactorParams = FactorParams()) -> Factorization:
    """Full pipeline: whole-row grouping, then optional partial refinement."""
    f = factor_whole_rows(matrix)
    if params.enable_stage2:
        f = refine_partial(matrix, f, params)
    return f


def expand_term(f: Factorization, t: int) -> PostingList:
    """Rebuild term t's original posting list from its meta-term memberships.

    Overlapping memberships for a single cell raise InvariantError (the cover
    must be element-disjoint).
    """
    if not 0 <= t < f.num_terms:
        raise KeyError(t)
    pairs: list[tuple[int, int]] = []
    for m, k in f.memberships[t]:
        mt = f.metaterms[m]
        pairs.extend((d, k * u) for d, u in zip(mt.cols, mt.base))
    pairs.sort()
    for (d1, _), (d2, _) in zip(pairs, pairs[1:]):
        if d1 == d2:
            raise InvariantError(f"term {t}: memberships overlap on doc {d1}")
    return PostingList.from_pairs(t, pairs)


def reconstruct(f: Factorization) -> TermDocMatrix:
    """Expand W.H back into a matrix, one expand_term per term; the exactness
    contract is that this equals the factored source cell for cell."""
    rows = [expand_term(f, t) for t in range(f.num_terms)]
    for row in rows:
        if row.postings and row.postings[-1].doc >= f.num_docs:
            raise ValidationError(f"doc {row.postings[-1].doc} outside num_docs={f.num_docs}")
    return TermDocMatrix(rows, f.num_docs, Lexicon(str(t) for t in range(f.num_terms)))


MAX_ORACLE_NNZ = 12


def brute_force_optimal(matrix: TermDocMatrix) -> int:
    """Exact minimum total size over all element-disjoint bicluster covers.

    Enumerates every cell subset, keeps those forming a valid bicluster (a
    complete all-non-zero grid whose rows share one primitive base), and runs
    an exact-cover minimization over the cell bitmask lattice, which walks
    every partition of the cells into valid biclusters. Exponential: refuses
    instances with more than MAX_ORACLE_NNZ non-zeros.
    """
    cells = [(row.term, d, p) for row in matrix.rows for d, p in row.postings]
    n = len(cells)
    if n > MAX_ORACLE_NNZ:
        raise ValidationError(f"brute_force_optimal refuses nnz {n} > {MAX_ORACLE_NNZ}")
    if n == 0:
        return 0

    by_lowest: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for mask in range(1, 1 << n):
        sub = [cells[i] for i in range(n) if mask >> i & 1]
        rows = sorted({t for t, _, _ in sub})
        cols = sorted({d for _, d, _ in sub})
        if len(sub) != len(rows) * len(cols):
            continue
        grid = {(t, d): p for t, d, p in sub}
        vectors = [[grid.get((t, d)) for d in cols] for t in rows]
        if any(v is None for vec in vectors for v in vec):
            continue
        ref = vectors[0]
        g = 0
        for v in ref:
            g = gcd(g, v)
        base = [v // g for v in ref]
        ok = True
        for vec in vectors:
            k, rem = divmod(vec[0], base[0])
            if rem or vec != [k * u for u in base]:
                ok = False
                break
        if ok:
            low = (mask & -mask).bit_length() - 1
            by_lowest[low].append((mask, len(rows) + len(cols)))

    full = (1 << n) - 1
    infinity = 1 << 30
    dp = [infinity] * (full + 1)
    dp[0] = 0
    for mask in range(1, full + 1):
        low = (mask & -mask).bit_length() - 1
        best = infinity
        for bmask, weight in by_lowest[low]:
            if bmask & mask == bmask:
                prev = dp[mask ^ bmask]
                if prev + weight < best:
                    best = prev + weight
        dp[mask] = best
    return dp[full]


def export_factors(f: Factorization, h_out: str | Path | IO[str], w_out: str | Path | IO[str]) -> None:
    """Write H as "metaterm doc payload" and W as "term metaterm coeff"
    triples, in canonical (id-ascending) order."""

    def _write_h(fh: IO[str]) -> None:
        for mt in f.metaterms:
            for d, u in zip(mt.cols, mt.base):
                fh.write(f"{mt.id} {d} {u}\n")

    def _write_w(fh: IO[str]) -> None:
        for t, row in enumerate(f.memberships):
            for m, k in row:
                fh.write(f"{t} {m} {k}\n")

    for target, writer in ((h_out, _write_h), (w_out, _write_w)):
        if isinstance(target, (str, Path)):
            with open(target, "w", encoding="ascii") as fh:
                writer(fh)
        else:
            writer(target)
