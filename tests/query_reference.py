"""The query path as it was before expansion and scoring moved into C-level
builtins: PostingList.from_pairs, expand_term and top_k, kept verbatim (one
Python frame per posting) as the reference the differential test in
test_query compares mtix against. Not used by mtix.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from mtix.errors import InvariantError, ValidationError
from mtix.factorize import Factorization
from mtix.matrix import Lexicon, Posting, PostingList
from mtix.query import Query, ScoredDoc


def from_pairs(term: int, pairs: Iterable[tuple[int, int]]) -> PostingList:
    postings = tuple(Posting(int(d), int(p)) for d, p in pairs)
    prev = -1
    for d, p in postings:
        if d <= prev:
            raise ValidationError(f"term {term}: doc ids not strictly ascending at {d}")
        if p < 1:
            raise ValidationError(f"term {term}: payload {p} for doc {d} must be >= 1")
        prev = d
    return PostingList(term, tuple(d for d, _ in postings), tuple(p for _, p in postings))


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
    return from_pairs(t, pairs)


def top_k(f: Factorization, q: Query, lexicon: Lexicon) -> list[ScoredDoc]:
    """Documents ranked by summed payload desc, doc id asc; at most k results.

    Unknown query terms are dropped; a query resolving to no terms returns an
    empty list.
    """
    scores: dict[int, int] = {}
    for term in q.terms:
        tid = lexicon.id_of(term)
        if tid is None:
            continue
        for d, p in expand_term(f, tid):
            scores[d] = scores.get(d, 0) + p
    ranked = heapq.nsmallest(q.k, [(-s, d) for d, s in scores.items()])
    return [ScoredDoc(d, -neg) for neg, d in ranked]
