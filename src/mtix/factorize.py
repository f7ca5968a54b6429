"""Exact factorization V = W.H via disjoint constant-ratio bicluster discovery.

A bicluster is an all-non-zero submatrix whose rows are integer multiples of
one primitive (GCD-1) base vector. Each discovered bicluster becomes a
meta-term: its base over its columns is stored once in H, and every member
row stores only its integer coefficient in W. Covering every non-zero cell
with element-disjoint biclusters makes the factorization exact. The
objective is the bits the index file spends on H and W under the
CodecConfig it is written with. Finding the best cover is intractable, so
factor() is a greedy in three passes; the first two order and accept
biclusters by stored entries (rows + columns, i.e. nnz(W) + nnz(H)), the
third by bits:

* Stage 1 (factor_whole_rows) groups whole rows by identical (support,
  primitive base) signature; a group of r rows over c columns is merged
  whenever gain(r, c) > 0. Run alone, it is the CLI's --no-stage2.
* Stage 2 (refine_partial) mines the residual rows (the cells no meta-term
  covers) for partial-column biclusters: column subsets on which pairs of
  rows keep a constant payload ratio, extended to all rows that fit,
  applied greedily by descending gain. A row's partners, each with the
  count of docs it shares, come from bit-sliced counters over per-doc term
  bitsets when the residual is dense enough for the bitsets to be cheap,
  else from a Counter. Rows are read by bisection into the residual
  PostingLists' columns; only a row read often gets a dict. Under
  bit-level doc-gap and payload codes, factor() skips a pair that shares
  its docs only by chance (lift below _MIN_LIFT); under vbyte it skips
  none.
* The dissolve pass puts a meta-term's cells back into its members' direct
  lists wherever that saves bits under the codec, until none does. If the
  meta-terms left still cost more bytes than their members' rows coded
  directly, factor() returns the all-direct form, so a factored index is
  never larger than the direct one plus one bit per term (its empty W rows).

Cells that no bicluster covers stay in their term's residual row, stored as
they are; for the entry objective each non-empty residual row costs what a
single-member meta-term would (one W entry plus its cells).

A desk-scale exhaustive oracle (brute_force_optimal) provides the exact
entry minimum for tiny instances so the greedy can be sandwich-tested.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from heapq import heapify, heappop, heappush
from itertools import chain, compress, islice, repeat
from operator import and_, attrgetter, ge, itemgetter, lshift, lt, mul, ne, sub
from pathlib import Path
from re import finditer
from typing import IO, Iterable, Iterator, Sequence

from .codec import CodecConfig, _Lazy, code_bits, code_lengths, gap_lengths, list_bit_lengths, rice_k, unzip_pairs
from .errors import InvariantError, ValidationError, check_int
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
        for name, low in (("min_cols", 2), ("max_candidates_per_term", 1)):
            value = getattr(self, name)
            check_int(name, value)
            if value < low:
                raise ValidationError(f"{name} must be >= {low}")


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
    """nnz(W) + nnz(H): the entry objective the two greedy stages order by."""
    return f.nnz_w + f.nnz_h


def _assemble(
    metaterms: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
    memberships: Sequence[Sequence[tuple[int, int]]],
    residual: Sequence[PostingList],
    num_docs: int,
) -> Factorization:
    """The factorizer's one numbering after stage 1, for stage 2's output
    and each dissolve round's survivors: the (cols, base) meta-terms
    canonically, by (lowest member TermId, lowest DocId), and the
    memberships to match. A meta-term with no member is dropped."""
    lowest: dict[int, int] = {}
    for t, row in enumerate(memberships):
        for m, _ in row:
            lowest.setdefault(m, t)
    order = sorted(lowest, key=lambda m: (lowest[m], metaterms[m][0][0]))
    new_id = dict(zip(order, range(len(order))))
    return Factorization(
        metaterms=tuple(MetaTerm(i, *metaterms[m]) for i, m in enumerate(order)),
        memberships=tuple(tuple(sorted([(new_id[m], k) for m, k in row])) if row else () for row in memberships),
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


def _later_partners(later: dict[int, list[int]], docs1: Sequence[int], min_cols: int) -> Iterator[tuple[int, int]]:
    """(t2, s) for each residual row t2 past an anchor that shares s >=
    min_cols of docs1, the anchor's docs, ascending, counted in a Counter.
    later[d] holds doc d's residual terms past the anchor, whole, if it
    has any."""
    counts = Counter(chain.from_iterable(map(later.get, docs1, repeat(()))))
    partners = sorted(compress(counts, map(ge, counts.values(), repeat(min_cols))))
    return zip(partners, map(counts.__getitem__, partners))


def _bits(ids: Iterable[int]) -> int:
    """The int bitset with bit i set for each i of ids."""
    return sum(map(lshift, repeat(1), ids))


def _later_partners_sliced(
    doc_bits: _Lazy, row_bits: _Lazy, lanes: int, docs1: Sequence[int], t1: int, min_cols: int
) -> Iterator[tuple[int, int]]:
    """_later_partners in bit-sliced counters (Rinfret, O'Neil and O'Neil,
    SIGMOD 2001) over doc_bits, each doc's bitset of residual term ids;
    `lanes` has every such id's bit set. Bit j of plane i is bit i of lane
    j's count, the docs of docs1 that hold term t1 + 1 + j. The L =
    (min_cols - 1).bit_length() planes start at 2**L - min_cols; each doc
    adds its bitset shifted past t1, and a carry out of the top plane marks
    a lane that reached min_cols. Each partner's count s is the popcount of
    the AND of the two rows' doc bitsets in row_bits. The partners are
    yielded as they are read: the caller stops at its cap.
    """
    shift = t1 + 1
    depth = (min_cols - 1).bit_length()
    offset = (1 << depth) - min_cols
    lanes >>= shift
    planes = [lanes if offset >> i & 1 else 0 for i in range(depth)]
    reached = 0
    for bits in map(doc_bits.__getitem__, docs1):
        carry = bits >> shift
        i = 0
        while carry and i < depth:
            plane = planes[i]
            planes[i] = plane ^ carry
            carry &= plane
            i += 1
        reached |= carry
    for lane in finditer("1", bin(reached)[:1:-1]):  # lane j at index j
        t2 = shift + lane.start()
        yield t2, (row_bits[t1] & row_bits[t2]).bit_count()


class _Bisected:
    """Row t of a residual table, read by bisection into its doc column;
    its last allowed read, once it has been read as many times as it has
    cells, puts the row's dict in its place in the table. A bisection costs
    several dict reads, and a dict about one read per cell to build, so a
    row read often pays for its dict, and a row read a few times gets none."""

    __slots__ = ("table", "t", "docs", "payloads", "left")

    def __init__(self, table: _Lazy, t: int, row: PostingList):
        self.table, self.t, self.docs, self.payloads = table, t, row.docs, row.payloads
        self.left = len(row.docs)

    def __getitem__(self, d: int) -> int:
        self.left -= 1
        if not self.left:
            self.table[self.t] = dict(zip(self.docs, self.payloads))
        return self.payloads[bisect_left(self.docs, d)]


def _candidate_rows(
    residual: _Lazy,
    doc_bits: _Lazy,
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
    (d0, d1), (u0, u1) = docs[:2], base[:2]
    rows = []
    coeffs = []
    while common:
        low = common & -common
        common ^= low
        t = low.bit_length() - 1
        cells = residual[t]
        if cells[d0] * u1 != cells[d1] * u0:  # not even its first two columns in base's ratio
            continue
        k, row_base = primitive(payloads(cells))
        if row_base == base:
            rows.append(t)
            coeffs.append(k)
    return tuple(rows), tuple(coeffs)


def _cut(row: PostingList, keep: Sequence[bool]) -> PostingList:
    """row with only the cells that keep, a mask over its columns, marks."""
    return PostingList(row.term, tuple(compress(row.docs, keep)), tuple(compress(row.payloads, keep)))


def refine_partial(f: Factorization, params: FactorParams, min_lift: int = 0) -> Factorization:
    """Stage 2: greedy partial-column merging over the residual rows.

    Candidates come from pairs of residual rows sharing at least min_cols
    columns with a constant payload ratio; each candidate is extended to all
    residual rows that are exact multiples of its base, then candidates are
    applied in descending gain order (ties: lowest TermId, then lowest DocId),
    revalidated against already-consumed cells first. A partly consumed row
    keeps its leftover cells as its residual row, so the output total size
    never exceeds the input's; rows no bicluster touches pass through as
    the same PostingList objects. Partners are counted in bit-sliced
    counters over the doc bitsets when those take at most 16 B per residual
    cell, else with a Counter: on a sparse residual, bitsets for every doc
    cost more memory than they save time. Both find the same partners, each
    with s, the number of docs it shares with the anchor: the Counter holds
    it, and the dense path takes the popcount of the AND of the two rows'
    doc bitsets. The Counter search runs from the last anchor back, as the
    per-doc term lists are built, so that it counts each doc's terms past
    the anchor as a whole list, and splits each partner's shared docs into
    ratio classes there, once; the ascending pass that makes candidates
    pops them anchor by anchor.

    Stage 2's indexes are _Lazy tables, each entry built the first time it
    is read: the doc bitsets, the row bitsets (dense path only) and the
    rows, read as _Bisected views of f.residual's doc and payload columns
    until a row has been read as many times as it has cells, and then
    through a {doc: payload} dict. A pair's shared docs are the anchor's
    doc set intersected with the partner's row. Application records the
    docs each row loses, and a candidate row is live while it has lost
    none of the candidate's columns.

    A pair of rows of n1 and n2 residual cells shares about n1 * n2 /
    num_docs docs by chance. A pair whose s shared docs fall below min_lift
    times that, s * num_docs < min_lift * n1 * n2 (the association ratio of
    collocation mining; Church and Hanks, 1990), is not intersected and
    makes no candidate, yet counts toward its anchor's
    max_candidates_per_term: otherwise each anchor scans further partners,
    and stage 2 takes longer, not less. min_lift 0 skips no pair. Since s
    <= n1, an anchor with min_lift * n1 > num_docs has no pair that passes,
    and is not searched.
    """
    rows = f.residual
    min_cols = params.min_cols
    num_docs = f.num_docs
    num_lanes = next((t + 1 for t in range(f.num_terms - 1, -1, -1) if rows[t]), 0)

    def anchors(n: int) -> bool:  # whether a row of n cells has a pair that can pass the lift test
        return min_cols <= n and min_lift * n <= num_docs

    def classes(table: _Lazy, t1: int, partners: Iterable[tuple[int, int]]) -> Iterator[list[list[int]] | None]:
        # For each of anchor t1's (t2, s) partners: None if the pair is below
        # min_lift times chance, else the docs they share, in classes by the
        # ratio of their payloads, the classes of at least min_cols docs, by
        # first doc. The rows are read through table.
        anchor = set(rows[t1].docs)
        chance = min_lift * len(anchor)
        for t2, s in partners:
            if s * num_docs < chance * len(rows[t2].docs):
                yield None
                continue
            row1, row2 = table[t1], table[t2]
            by_ratio: dict[tuple[int, int], list[int]] = {}
            for d in sorted(row2.keys() & anchor if type(row2) is dict else anchor.intersection(row2.docs)):
                _, ratio = primitive((row1[d], row2[d]))
                by_ratio.setdefault(ratio, []).append(d)
            yield [docs for docs in by_ratio.values() if len(docs) >= min_cols]

    # Each doc's residual terms, built from the last row back, so that each
    # list descends. On a sparse residual the Counter search runs as they
    # are built, when a doc's list holds the terms past the anchor whole,
    # and stacks each anchor's partners' classes in found for the ascending
    # pass to pop, less the partners that make nothing: those that pass the
    # lift test but share no class, and those below it after the last
    # partner that makes a class, which would only count toward the cap.
    with_cells = bytearray(num_docs)  # 1 for each doc with a residual cell
    for row in rows:
        for d in row.docs:
            with_cells[d] = 1
    dense = sum(map(len, rows)) * 128 >= (num_docs - with_cells.count(0)) * num_lanes
    del with_cells
    found: list[tuple[int, list]] = []  # (anchor, its partners' classes), the last anchor on top
    later: dict[int, list[int]] = {}
    for t in range(num_lanes - 1, -1, -1):
        docs = rows[t].docs
        if not dense and anchors(len(docs)):
            views = _Lazy(lambda t2: _Bisected(views, t2, rows[t2]))  # freed with the anchor
            kept = [c for c in classes(views, t, _later_partners(later, docs, min_cols)) if c != []]
            while kept and kept[-1] is None:
                kept.pop()
            if kept:
                found.append((t, kept))
        for d in docs:
            later.setdefault(d, []).append(t)

    # Candidate generation, one pass over the anchors' partners.
    doc_bits = _Lazy(lambda d: _bits(reversed(later[d])))  # lowest bit first: the running sum stays short
    row_bits = _Lazy(lambda t: _bits(rows[t].docs))  # read on the dense path only
    sliced = partial(_later_partners_sliced, doc_bits, row_bits, (1 << num_lanes) - 1)
    del row_bits  # freed with sliced
    residual = _Lazy(lambda t: _Bisected(residual, t, rows[t]))
    # One tuple per distinct base (most are all ones), shared by the heap
    # and seen, which hold one per candidate.
    bases: dict[tuple[int, ...], tuple[int, ...]] = {}
    heap: list[tuple] = []
    seen: set[tuple] = set()
    for t1 in compress(range(num_lanes), rows):
        docs1 = rows[t1].docs
        if not anchors(len(docs1)):
            continue
        if dense:
            partners = classes(residual, t1, sliced(docs1, t1, min_cols))
        else:
            partners = found.pop()[1] if found and found[-1][0] == t1 else ()
        made = 0
        for pair_classes in partners:
            if pair_classes is None:  # below the lift test
                made += 1
            else:
                row1 = residual[t1]
                for docs in pair_classes:
                    cols = tuple(docs)
                    _, base = primitive([row1[d] for d in cols])
                    base = bases.setdefault(base, base)
                    # (cols, base) fixes the extended rows, so a repeat is dropped unextended.
                    sig = (cols, base)
                    if sig in seen:
                        continue
                    seen.add(sig)
                    # t1 and its partner are among the members: both are multiples of base over cols.
                    members, coeffs = _candidate_rows(residual, doc_bits, cols, base)
                    g_val = gain(len(members), len(cols))
                    if g_val > 0:
                        heap.append((-g_val, members[0], cols[0], members, cols, base, coeffs))
                        made += 1
            if made >= params.max_candidates_per_term:
                break

    # Generation ends at stage 2's memory peak: free its indexes before
    # application allocates.
    del doc_bits, bases, seen, later, found, residual, sliced
    heapify(heap)  # no two keys are equal: (cols, base) differs

    # Greedy application with revalidation against consumed cells.
    metaterms = [(mt.cols, mt.base) for mt in f.metaterms]
    memberships = list(map(list, f.memberships))
    lost: dict[int, set[int]] = {}  # term -> the docs of its row that biclusters took
    while heap:
        _, _, _, members, cols, base, coeffs = heappop(heap)
        live = [(t, k) for t, k in zip(members, coeffs) if t not in lost or lost[t].isdisjoint(cols)]
        if len(live) < 2:
            continue
        g_val = gain(len(live), len(cols))
        if g_val <= 0:
            continue
        if len(live) != len(members):
            live_rows = tuple(t for t, _ in live)
            live_coeffs = tuple(k for _, k in live)
            heappush(heap, (-g_val, live_rows[0], cols[0], live_rows, cols, base, live_coeffs))
            continue
        for t, k in live:
            lost.setdefault(t, set()).update(cols)
            memberships[t].append((len(metaterms), k))
        metaterms.append((cols, base))

    residual_rows = list(rows)
    for t, gone in lost.items():
        residual_rows[t] = _cut(rows[t], [d not in gone for d in rows[t].docs])
    return _assemble(metaterms, memberships, residual_rows, f.num_docs)


# Stage 2's min_lift in factor() when no vbyte code is in play.
_MIN_LIFT = 2


def _min_lift(cfg: CodecConfig) -> int:
    """The min_lift factor() runs stage 2 with under `cfg`: _MIN_LIFT, or 0
    when doc gaps or payloads are coded in vbyte."""
    return 0 if "vbyte" in (cfg.doc_gap, cfg.payload) else _MIN_LIFT


def factor(
    matrix: TermDocMatrix, params: FactorParams = FactorParams(), cfg: CodecConfig = CodecConfig()
) -> Factorization:
    """Full pipeline: whole-row grouping, partial refinement, then the
    dissolve pass under `cfg`, the codec the index is written with.

    Stage 2 skips row pairs below _MIN_LIFT times chance, unless `cfg`
    codes doc gaps or payloads in vbyte. A bit-level code spends a bit or
    two on a cell of a dense list, so a chance-level bicluster saves about
    nothing and the dissolve pass takes it back. vbyte spends at least a
    byte on every gap and payload, so such a bicluster still saves bytes.
    """
    return _dissolve(matrix, refine_partial(factor_whole_rows(matrix), params, _min_lift(cfg)), cfg)


_GAMMA = code_lengths("gamma")  # each list's head is gamma(count + 1)
_FIRST = itemgetter(0)  # a member's term, a W entry's meta-term id


def _gap_bits(cost: dict[int, int], keys: Sequence[int]) -> int:
    """Bits of the key gaps of `keys`; cost[g] is the code length of gap g."""
    return sum(map(cost.__getitem__, map(sub, keys, chain((-1,), keys))))


def _gap_bits_added(cost: dict[int, int], docs: Sequence[int], cols: Sequence[int]) -> int:
    """Bits the doc gaps of `docs` grow by when `cols`, ascending and
    disjoint from them, are merged in, one at a time; cost[g] is the code
    length of gap g.

    Each doc merged in splits the gap it falls in: from the doc before it
    (the one merged last, if that fell in the same gap; -1 before the first
    doc) to the doc after it, found with bisect.
    """
    n = len(docs)
    bits = 0
    last = slot = -1
    for d in cols:
        p = bisect_left(docs, d)
        left = last if p == slot else docs[p - 1] if p else -1
        if p < n:
            right = docs[p]
            bits += cost[d - left] + cost[right - d] - cost[right - left]
        else:
            bits += cost[d - left]
        last = d
        slot = p
    return bits


class _Cover:
    """The dissolve pass's state over a factorization f: each term's W row
    and residual docs, and each meta-term's members, updated as meta-terms
    are dissolved. Ids stay f's: a dissolved meta-term leaves its id unused
    until result() numbers the survivors through _assemble.
    """

    def __init__(self, f: Factorization, cfg: CodecConfig):
        self.f = f
        self.cfg = cfg
        self.coeff = code_lengths(cfg.coeff)
        self.min_value = code_lengths(cfg.payload)[1]
        rice = cfg.doc_gap == "rice"
        # the rice parameter of an H list and of a W row of n keys (0 under
        # another gap code), and the code length of each key gap, by the
        # gap, under each parameter
        self.h_k = _Lazy(lambda n: rice_k(n, f.num_docs) if rice and n else 0)
        self.w_k = _Lazy(lambda n: rice_k(n, len(f.metaterms)) if rice and n else 0)
        top = max(f.num_docs, len(f.metaterms))
        self.cost = _Lazy(lambda k: gap_lengths(cfg.doc_gap, top, k))
        # term -> parameter -> the gap bits of its direct list, and of its W
        # row, each kept until the list changes
        self.h_sums: dict[int, dict[int, int]] = {}
        self.w_sums: dict[int, dict[int, int]] = {}
        self.w_rows: list[Sequence[tuple[int, int]]] = list(f.memberships)
        self.docs: list[Sequence[int]] = list(map(attrgetter("docs"), f.residual))
        self.members: list[list[tuple[int, int]] | None] = [[] for _ in f.metaterms]
        for t in compress(range(f.num_terms), f.memberships):
            for m, k in f.memberships[t]:
                self.members[m].append((t, k))
        self.h: dict[int, tuple[int, int]] = {}  # meta-term -> its H list's (gap, value) bits

    def _h_bits(self, m: int) -> tuple[int, int]:
        if m not in self.h:
            cols = self.f.metaterms[m].cols
            gap_bits = _gap_bits(self.cost[self.h_k[len(cols)]], cols)
            self.h[m] = (gap_bits, code_bits(self.f.metaterms[m].base, self.cfg.payload))
        return self.h[m]

    def _gap_sum(self, sums: dict[int, dict[int, int]], t: int, k: int, keys: Sequence[int]) -> int:
        """The bits of the gaps of term t's `keys` under parameter k, from or
        into `sums`."""
        by_k = sums.setdefault(t, {})
        if k not in by_k:
            by_k[k] = _gap_bits(self.cost[k], keys)
        return by_k[k]

    def _w_saved(self, t: int, m: int, k: int) -> int:
        """Bits term t's W row loses with its entry (m, k): the count word,
        the entry's id gap and coefficient, and its two neighbours' gaps
        merged into one. Where that changes the row's rice parameter, its
        other gaps are costed again."""
        row = self.w_rows[t]
        n = len(row)
        j = bisect_left(row, (m,))
        bits = _GAMMA[(n + 1).bit_length()] - _GAMMA[n.bit_length()] + self.coeff[k.bit_length()]
        if n == 1:  # the row empties
            return bits + self.cost[self.w_k[1]][m + 1]
        k0, k1 = self.w_k[n], self.w_k[n - 1]
        cost = self.cost[k1]
        prev = row[j - 1][0] if j else -1
        bits += cost[m - prev]
        if j + 1 < n:
            nxt = row[j + 1][0]
            bits += cost[nxt - m] - cost[nxt - prev]
        if k1 != k0:  # the row's rice parameter changes: its gaps are costed again
            ids = list(map(_FIRST, row))
            bits += self._gap_sum(self.w_sums, t, k0, ids) - self._gap_sum(self.w_sums, t, k1, ids)
        return bits

    def saving(self, m: int) -> int:
        """Bits the file loses when meta-term m is dissolved: its H list and
        its members' W entries go, and its cells join its members' direct
        lists. The shift of the later ids in other W rows is left out: it
        can only shorten their gaps, so the saving is never overstated,
        but under rice fewer meta-terms can also move those rows' parameter
        either way. pays() sizes the file that results exactly."""
        mt = self.f.metaterms[m]
        c = len(mt.cols)
        gap_bits, base_bits = self._h_bits(m)
        head = _GAMMA[(c + 1).bit_length()]
        saved = head + gap_bits + base_bits
        for t, k in self.members[m]:
            saved += self._w_saved(t, m, k)
            cells = base_bits if k == 1 else code_bits(map(mul, mt.base, repeat(k)), self.cfg.payload)
            docs = self.docs[t]
            if docs:
                n = len(docs)
                k0, k1 = self.h_k[n], self.h_k[n + c]
                saved -= _GAMMA[(n + c + 1).bit_length()] - _GAMMA[(n + 1).bit_length()] + cells
                saved -= _gap_bits_added(self.cost[k1], docs, mt.cols)
                if k1 != k0:  # the list's rice parameter changes: its own gaps are costed again
                    saved -= self._gap_sum(self.h_sums, t, k1, docs) - self._gap_sum(self.h_sums, t, k0, docs)
            else:  # gamma(1), an empty list, becomes k * base over m's columns
                saved -= head - 1 + gap_bits + cells
        return saved

    def keeps(self, m: int) -> bool:
        """Whether dissolving meta-term m saves no bits.

        When every member's direct list is empty, each becomes k * base
        over m's columns, which costs at least m's H list less one bit. So
        the saving is at most the W bits saved plus r, less (r - 1) times
        the shortest H list of m's width: that decides most whole-row
        groups without a code length of their cells."""
        members = self.members[m]
        if not any(map(self.docs.__getitem__, map(_FIRST, members))):
            if sum(self._w_saved(t, m, k) for t, k in members) + self._shape_bound(m) <= 0:
                return True
        return self.saving(m) <= 0

    def _shape_bound(self, m: int) -> int:
        """r - (r - 1) times the shortest H list of meta-term m's width."""
        r, c = len(self.members[m]), len(self.f.metaterms[m].cols)
        min_cell = self.cost[self.h_k[c]][1] + self.min_value  # gap 1, value 1
        return r - (r - 1) * (_GAMMA[(c + 1).bit_length()] + c * min_cell)

    def dissolve(self, m: int) -> list[int]:
        """Put meta-term m's cells back into its members' direct lists;
        returns the ids of the meta-terms that share a member with it."""
        cols = self.f.metaterms[m].cols
        others = []
        for t, _ in self.members[m]:
            row = self.w_rows[t]
            j = bisect_left(row, (m,))
            row = self.w_rows[t] = row[:j] + row[j + 1 :]
            self.w_sums.pop(t, None)
            if row:  # else no meta-term reads t again, and result() takes its row of V
                others += map(_FIRST, row)
                docs = self.docs[t] = [*self.docs[t], *cols]
                docs.sort()  # two ascending runs: one merge
                self.h_sums.pop(t, None)
        self.members[m] = None
        return others

    def result(self, matrix: TermDocMatrix) -> Factorization:
        """The factorization as dissolved: f itself if nothing was, else
        the survivors numbered through _assemble. A term left with no
        membership gets its row of V back."""
        f = self.f
        if None not in self.members:
            return f
        residual = list(f.residual)
        for t, row in enumerate(self.w_rows):
            if row is not f.memberships[t]:  # it lost an entry
                if not row:
                    residual[t] = matrix.rows[t]
                else:
                    docs = set(self.docs[t])
                    residual[t] = _cut(matrix.rows[t], [d in docs for d in matrix.rows[t].docs])
        return _assemble([(mt.cols, mt.base) for mt in f.metaterms], self.w_rows, residual, f.num_docs)

    def pays(self, matrix: TermDocMatrix) -> bool:
        """Whether f, with no meta-term dissolved, takes no more bytes than
        the all-direct form of matrix.

        Only member terms differ between the two: their W rows against an
        empty one each, and the meta-terms' H lists and the members'
        residual rows against their rows of V. The other direct lists are
        not sized, so the H section's padding is bounded either way, and
        every row of V is sized only when the bounds do not decide. A
        whole-row group (each member with that one membership and no
        residual cell) is bounded from its shape first, as in keeps().
        """
        f = self.f
        cfg = self.cfg

        def direct_bits(rows: list[PostingList]) -> int:
            lists = ((row.docs, row.payloads) for row in rows)
            return sum(list_bit_lengths(lists, cfg.doc_gap, cfg.payload, f.num_docs))

        def h_excess(terms: Sequence[int]) -> int:
            """The H bits of the meta-terms of `terms` and their residual
            rows, less their rows of V."""
            ms = {m for t in terms for m, _ in f.memberships[t]}
            return (
                sum(_GAMMA[(len(f.metaterms[m].cols) + 1).bit_length()] + sum(self._h_bits(m)) for m in ms)
                + direct_bits([f.residual[t] for t in terms])
                - direct_bits([matrix.rows[t] for t in terms])
            )

        # w: the W section's bits; bound_x: a bound on the whole-row groups'
        # share of x, the H section's bits less the direct bits of V
        w = f.num_terms
        bound_x = 0
        lone = {t for t in compress(range(f.num_terms), f.memberships) if len(f.memberships[t]) == 1 and not self.docs[t]}
        opened: dict[int, None] = {}  # the other member terms, each once
        for m, members in enumerate(self.members):
            if all(map(lone.__contains__, map(_FIRST, members))):
                w += sum(self._w_saved(t, m, k) for t, k in members)  # each W row is one bit once its entry goes
                bound_x += self._shape_bound(m)
            else:
                opened.update(dict.fromkeys(map(_FIRST, members)))
        w_lists = map(unzip_pairs, map(f.memberships.__getitem__, opened))
        w += sum(list_bit_lengths(w_lists, cfg.doc_gap, cfg.coeff, len(f.metaterms)))
        w -= len(opened)

        # Whatever the other lists' bits, ceil((D + x) / 8) - ceil(D / 8)
        # lies from floor(x / 8) to ceil(x / 8) bytes.
        w_bytes = -(-w // 8) - -(-f.num_terms // 8)
        if -(-(bound_x + h_excess(list(opened))) // 8) + w_bytes <= 0:
            return True
        x = h_excess([t for t, row in enumerate(f.memberships) if row])
        if -(-x // 8) + w_bytes <= 0:
            return True
        if x // 8 + w_bytes > 0:
            return False
        d = direct_bits(matrix.rows)
        return -(-(d + x) // 8) - -(-d // 8) + w_bytes <= 0


def _dissolve(matrix: TermDocMatrix, f: Factorization, cfg: CodecConfig) -> Factorization:
    """The pass after stage 2: dissolve each meta-term whose cells cost
    fewer bits under `cfg` in its members' direct lists.

    Meta-terms are taken in id order. Dissolving one changes the saving of
    only those that share a member with it, so only they are taken again,
    in a next sweep, until a sweep dissolves none. The survivors are then
    numbered densely, which shortens W rows' id gaps, and taken again, until
    none is dissolved: no survivor's dissolution then saves bits. Last, f
    is kept only if its meta-terms take no more bytes than the all-direct
    form of matrix, which is returned otherwise.
    """
    while True:
        cover = _Cover(f, cfg)
        todo: Sequence[int] = range(len(f.metaterms))
        while todo:
            changed: set[int] = set()  # changed since it was last taken
            for m in todo:
                changed.discard(m)
                if cover.members[m] is not None and not cover.keeps(m):
                    changed.update(cover.dissolve(m))
            todo = sorted(changed)
        dissolved = cover.result(matrix)
        if dissolved is f:
            break
        f = dissolved
    if cover.pays(matrix):
        return f
    return Factorization((), ((),) * f.num_terms, tuple(matrix.rows), f.num_terms, f.num_docs)


def expand_term(f: Factorization, t: int) -> PostingList:
    """Rebuild term t's original posting list: its residual row merged with
    its meta-term memberships' cells; a term with no membership gets its
    residual row itself.

    The memberships' cells are merged in a dict, sorted and checked; each
    finds its place in the residual row by bisection, and the row, already
    a PostingList, is copied in slices between them. A cell covered twice
    raises InvariantError (the cover must be element-disjoint), naming the
    lowest such doc.
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
    cells: dict[int, int] = {}
    size = 0
    for m, k in memberships:
        mt = f.metaterms[m]
        cells.update(zip(mt.cols, _scaled(mt.base, k)))
        size += min(len(mt.cols), len(mt.base))  # what zip pairs up
    docs = sorted(cells)
    spots = list(map(bisect_left, repeat(residual.docs), docs))
    if len(cells) < size or any(map(ne, spots, map(bisect_right, repeat(residual.docs), docs))):
        cols = (d for m, _ in memberships for d, _ in zip(f.metaterms[m].cols, f.metaterms[m].base))
        docs = sorted(chain(residual.docs, cols))
        lowest = next(d1 for d1, d2 in zip(docs, docs[1:]) if d1 == d2)
        raise InvariantError(f"term {t}: memberships overlap on doc {lowest}")
    payloads = list(map(cells.__getitem__, docs))
    del cells  # not held while the columns are built: it sets the peak on long lists
    merged = PostingList._from_columns(t, docs, payloads)
    return PostingList(t, _splice(residual.docs, merged.docs, spots), _splice(residual.payloads, merged.payloads, spots))


def _splice(row: Sequence[int], cells: Sequence[int], spots: list[int]) -> tuple[int, ...]:
    """row with cells[i] placed before row[spots[i]], spots ascending: row
    is copied in slices between the cells."""
    out: list[int] = []
    start = 0
    for at, x in zip(spots, cells):
        out += row[start:at]
        out.append(x)
        start = at
    out += row[start:]
    return tuple(out)


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
        _, base = primitive(vectors[0])
        if all(primitive(vec)[1] == base for vec in vectors[1:]):
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
