"""Exact factorization V = W.H via disjoint constant-ratio bicluster discovery.

A bicluster is an all-non-zero submatrix whose rows are integer multiples of
one primitive (GCD-1) base vector. Each discovered bicluster becomes a
meta-term: its base over its columns is stored once in H, and every member
row stores only its integer coefficient in W. Covering every non-zero cell
with element-disjoint biclusters makes the factorization exact; the objective
is to keep the total bicluster size (rows + columns, i.e. nnz(W) + nnz(H))
small. Finding the best cover is intractable, so factor() is a two-stage
greedy, refine_partial(factor_whole_rows(V)); stage 1 alone is the CLI's
--no-stage2:

* Stage 1 groups whole rows by identical (support, primitive base) signature;
  a group of r rows over c columns is merged whenever gain(r, c) > 0.
* Stage 2 mines the residual rows (the cells no meta-term covers) for
  partial-column biclusters: column subsets on which pairs of rows keep a
  constant payload ratio, extended to all rows that fit, applied greedily
  by descending gain.

Cells that no bicluster covers stay in their term's residual row, stored as
they are; for the objective each non-empty residual row costs what a
single-member meta-term would (one W entry plus its cells).

A desk-scale exhaustive oracle (brute_force_optimal) provides the exact
minimum for tiny instances so the greedy can be sandwich-tested.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from itertools import chain, compress, islice, repeat
from math import gcd
from operator import and_, ge, itemgetter, lshift, lt, mul
from pathlib import Path
from typing import IO, Sequence

from .errors import InvariantError, ValidationError
from .matrix import Lexicon, PostingList, TermDocMatrix, primitive


def gain(r: int, c: int) -> int:
    """Stored entries saved by merging r rows over c columns: r*c - (r + c)."""
    if r < 1 or c < 1:
        raise ValidationError("gain: r and c must be >= 1")
    return r * c - (r + c)


@dataclass(frozen=True)
class Bicluster:
    """One meta-term as Factorization.provenance() returns it: rows x cols of
    V equals outer(coeffs, base), base primitive."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    base: tuple[int, ...]
    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class MetaTerm:
    """A synthetic term: the base vector of one bicluster over its columns."""

    id: int
    cols: tuple[int, ...]
    base: tuple[int, ...]


@dataclass(frozen=True)
class FactorParams:
    """Stage-2 knobs; stage 1 has none. The pipeline is deterministic."""

    min_cols: int = 4
    max_candidates_per_term: int = 64

    def __post_init__(self) -> None:
        if self.min_cols < 2:
            raise ValidationError("min_cols must be >= 2")
        if self.max_candidates_per_term < 1:
            raise ValidationError("max_candidates_per_term must be >= 1")


@dataclass(frozen=True)
class Factorization:
    """H (meta-term store), W (per-term meta-term memberships) and the
    per-term residual rows.

    memberships[t] is the ascending (meta-term id, coefficient) list of term t;
    meta-term ids are indices into metaterms. residual[t] is term t's cells
    that no meta-term covers, as a PostingList of term t (empty when there
    are none). Exactness contract: reconstruct(f) equals the source matrix
    cell for cell, and each term's residual docs and membership columns are
    pairwise disjoint.
    """

    metaterms: tuple[MetaTerm, ...]
    memberships: tuple[tuple[tuple[int, int], ...], ...]
    residual: tuple[PostingList, ...]
    num_terms: int
    num_docs: int

    @property
    def nnz_w(self) -> int:
        """W entries, a non-empty residual row counting as one."""
        return sum(map(len, self.memberships)) + sum(map(bool, self.residual))

    @property
    def nnz_h(self) -> int:
        """H entries, a residual row counting one per cell."""
        return sum(len(mt.cols) for mt in self.metaterms) + sum(map(len, self.residual))

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


def _assemble(
    metaterms: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
    memberships: Sequence[Sequence[tuple[int, int]]],
    residual: Sequence[PostingList],
    num_docs: int,
) -> Factorization:
    """Stage 2's numbering: the (cols, base) meta-terms canonically, by
    (lowest member TermId, lowest DocId), and the memberships to match."""
    lowest: dict[int, int] = {}
    for t, row in enumerate(memberships):
        for m, _ in row:
            lowest.setdefault(m, t)
    order = sorted(range(len(metaterms)), key=lambda m: (lowest[m], metaterms[m][0][0]))
    new_id = dict(zip(order, range(len(order))))
    return Factorization(
        metaterms=tuple(MetaTerm(i, *metaterms[m]) for i, m in enumerate(order)),
        memberships=tuple(tuple(sorted((new_id[m], k) for m, k in row)) for row in memberships),
        residual=tuple(residual),
        num_terms=len(residual),
        num_docs=num_docs,
    )


def factor_whole_rows(matrix: TermDocMatrix) -> Factorization:
    """Stage 1: merge rows that are exact multiples over their full support.

    Rows are grouped by identical (support, primitive base); a group of r >= 2
    rows over c columns is merged into one bicluster when gain(r, c) > 0.
    Every other row is its term's residual row, as it is. Groups come in
    the order of their lowest member term, so numbering them as they merge
    gives the canonical ids.
    """
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for t, row in enumerate(matrix.rows):
        if not row:
            continue
        scale, base = primitive(row.payloads)
        groups.setdefault((row.docs, base), []).append((t, scale))

    metaterms: list[MetaTerm] = []
    memberships: list[tuple[tuple[int, int], ...]] = [()] * matrix.num_terms
    residual = list(matrix.rows)
    for (cols, base), members in groups.items():
        if len(members) >= 2 and gain(len(members), len(cols)) > 0:
            m = len(metaterms)
            for t, k in members:
                memberships[t] = ((m, k),)
                residual[t] = PostingList(t, (), ())
            metaterms.append(MetaTerm(m, cols, base))
    return Factorization(tuple(metaterms), tuple(memberships), tuple(residual), matrix.num_terms, matrix.num_docs)


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


class _DocBits(dict):
    """Doc id -> int bitset over residual term ids (bit t set iff term t has
    a residual cell in that doc), each built the first time it is looked up.
    """

    def __init__(self, terms_of_doc: dict[int, list[int]]):
        super().__init__()
        self.terms_of_doc = terms_of_doc

    def __missing__(self, d: int) -> int:
        bits = self[d] = sum(map(lshift, repeat(1), self.terms_of_doc[d]))
        return bits


def _candidate_rows(
    residual: dict[int, dict[int, int]],
    doc_bits: _DocBits,
    docs: tuple[int, ...],
    base: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The residual rows equal to k * base over docs for some k >= 1, in
    ascending TermId order, with their k.

    Only terms present in every one of docs can match: their bits survive
    the AND of the docs' bitsets, and the primitive-form rule runs on those
    rows alone (base is primitive, so a row is k * base exactly when its
    primitive form is (k, base)).
    """
    common = reduce(and_, map(doc_bits.__getitem__, docs))
    payloads = itemgetter(*docs)  # len(docs) >= min_cols >= 2: returns a tuple
    rows = []
    coeffs = []
    while common:
        low = common & -common
        common ^= low
        t = low.bit_length() - 1
        k, row_base = primitive(payloads(residual[t]))
        if row_base == base:
            rows.append(t)
            coeffs.append(k)
    return tuple(rows), tuple(coeffs)


def refine_partial(f: Factorization, params: FactorParams) -> Factorization:
    """Stage 2: greedy partial-column merging over the residual rows.

    Candidates come from pairs of residual rows sharing at least min_cols
    columns with a constant payload ratio; each candidate is extended to all
    residual rows that are exact multiples of its base, then candidates are
    applied in descending gain order (ties: lowest TermId, then lowest DocId),
    revalidated against already-consumed cells first. A partly consumed row
    keeps its leftover cells as its residual row, so the output total size
    never exceeds the input's; rows no bicluster touches pass through as
    they are.
    """
    residual = {t: dict(zip(row.docs, row.payloads)) for t, row in enumerate(f.residual) if row}

    # residual's keys ascend, so each doc's term list does too.
    terms_of_doc: dict[int, list[int]] = {}
    for t, cells in residual.items():
        for d in cells:
            terms_of_doc.setdefault(d, []).append(t)

    # Candidate generation, one pass over residual row pairs.
    min_cols = params.min_cols
    doc_bits = _DocBits(terms_of_doc)
    # One tuple per distinct base (most are all ones), shared by the heap
    # and seen, which hold one per candidate.
    bases: dict[tuple[int, ...], tuple[int, ...]] = {}
    heap: list[tuple] = []
    seen: set[tuple] = set()
    for t1, row1 in residual.items():
        if len(row1) < min_cols:
            continue
        made = 0
        for t2 in _later_partners(terms_of_doc, row1, t1, min_cols):
            if made >= params.max_candidates_per_term:
                break
            row2 = residual[t2]
            by_ratio: dict[tuple[int, int], list[int]] = {}
            for d in sorted(row1.keys() & row2.keys()):
                _, ratio = primitive((row1[d], row2[d]))
                by_ratio.setdefault(ratio, []).append(d)
            # Docs were added in ascending order: the classes come by first doc.
            for docs in by_ratio.values():
                if len(docs) < min_cols:
                    continue
                cols = tuple(docs)
                _, base = primitive([row1[d] for d in cols])
                base = bases.setdefault(base, base)
                # (cols, base) fixes the extended rows, so a repeat is dropped unextended.
                sig = (cols, base)
                if sig in seen:
                    continue
                seen.add(sig)
                rows, coeffs = _candidate_rows(residual, doc_bits, cols, base)
                g_val = gain(len(rows), len(cols))
                if len(rows) < 2 or g_val <= 0:
                    continue
                heappush(heap, (-g_val, rows[0], cols[0], rows, cols, base, coeffs))
                made += 1

    # Generation ends at stage 2's memory peak: free its indexes before
    # application allocates.
    del doc_bits, bases, seen, terms_of_doc

    # Greedy application with revalidation against consumed cells.
    metaterms = [(mt.cols, mt.base) for mt in f.metaterms]
    memberships = list(map(list, f.memberships))
    while heap:
        _, _, _, rows, cols, base, coeffs = heappop(heap)
        live = [(t, k) for t, k in zip(rows, coeffs) if all(d in residual[t] for d in cols)]
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
        for t, k in live:
            cells = residual[t]
            for d in cols:
                del cells[d]
            memberships[t].append((len(metaterms), k))
        metaterms.append((cols, base))

    residual_rows = list(f.residual)
    for t, cells in residual.items():
        if len(cells) < len(residual_rows[t]):  # a bicluster took some of its cells
            docs = tuple(sorted(cells))
            residual_rows[t] = PostingList(t, docs, tuple(map(cells.__getitem__, docs)))
    return _assemble(metaterms, memberships, residual_rows, f.num_docs)


def factor(matrix: TermDocMatrix, params: FactorParams = FactorParams()) -> Factorization:
    """Full pipeline: whole-row grouping, then partial refinement."""
    return refine_partial(factor_whole_rows(matrix), params)


def expand_term(f: Factorization, t: int) -> PostingList:
    """Rebuild term t's original posting list: its residual row merged with
    its meta-term memberships; a term with no membership gets its residual
    row itself.

    A cell covered twice raises InvariantError (the cover must be
    element-disjoint).
    """
    if not 0 <= t < f.num_terms:
        raise KeyError(t)
    memberships = f.memberships[t]
    residual = f.residual[t]
    if not memberships:
        return residual
    if len(memberships) == 1 and not residual:
        ((m, k),) = memberships
        mt = f.metaterms[m]
        if all(map(lt, mt.cols, islice(mt.cols, 1, None))):
            return PostingList._from_columns(t, mt.cols, _scaled(mt.base, k))
    merged = dict(zip(residual.docs, residual.payloads))
    size = len(residual)
    for m, k in memberships:
        mt = f.metaterms[m]
        merged.update(zip(mt.cols, _scaled(mt.base, k)))
        size += min(len(mt.cols), len(mt.base))  # what zip pairs up
    if len(merged) < size:
        cols = (d for m, _ in memberships for d, _ in zip(f.metaterms[m].cols, f.metaterms[m].base))
        docs = sorted(chain(residual.docs, cols))
        lowest = next(d1 for d1, d2 in zip(docs, docs[1:]) if d1 == d2)
        raise InvariantError(f"term {t}: memberships overlap on doc {lowest}")
    docs = sorted(merged)
    payloads = list(map(merged.__getitem__, docs))
    del merged  # not held while the columns are built: it sets the peak on long lists
    return PostingList._from_columns(t, docs, payloads)


def _scaled(base: tuple[int, ...], k: int) -> Sequence[int]:
    """k * base, entry by entry: base itself when k is 1, else a list.

    A list, not tuple(map(...)): CPython builds a tuple from an iterator at
    a guessed length and then resizes it, which moves it between its
    per-size tuple free lists. Those keep up to 2,000 tuples per size until
    a full GC pass clears them, so a query loop that rarely runs one would
    hold several MB in them.
    """
    return base if k == 1 else list(map(mul, base, repeat(k)))


def reconstruct(f: Factorization) -> TermDocMatrix:
    """Expand W.H back into a matrix, one expand_term per term; the exactness
    contract is that this equals the factored source cell for cell."""
    rows = [expand_term(f, t) for t in range(f.num_terms)]
    for row in rows:
        if row and row.docs[-1] >= f.num_docs:
            raise ValidationError(f"doc {row.docs[-1]} outside num_docs={f.num_docs}")
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
    cells = [(row.term, d, p) for row in matrix.rows for d, p in zip(row.docs, row.payloads)]
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
    triples, in canonical (id-ascending) order.

    Each non-empty residual row is written as the single-member meta-term it
    stands for: ids follow the meta-terms' in term order, with the row's
    primitive base in H and its gcd scale in W."""
    singles = {}  # term -> (meta-term id, docs, scale, base)
    for t, row in enumerate(f.residual):
        if row:
            singles[t] = (len(f.metaterms) + len(singles), row.docs, *primitive(row.payloads))

    def _write_h(fh: IO[str]) -> None:
        for mt in f.metaterms:
            for d, u in zip(mt.cols, mt.base):
                fh.write(f"{mt.id} {d} {u}\n")
        for m, docs, _, base in singles.values():
            for d, u in zip(docs, base):
                fh.write(f"{m} {d} {u}\n")

    def _write_w(fh: IO[str]) -> None:
        for t, row in enumerate(f.memberships):
            for m, k in row:
                fh.write(f"{t} {m} {k}\n")
            if t in singles:
                m, _, scale, _ = singles[t]
                fh.write(f"{t} {m} {scale}\n")

    for target, writer in ((h_out, _write_h), (w_out, _write_w)):
        if isinstance(target, (str, Path)):
            with open(target, "w", encoding="ascii") as fh:
                writer(fh)
        else:
            writer(target)
