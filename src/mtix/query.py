"""Top-k retrieval over the factored index, plus lossy static pruning.

Scoring is additive integer impact: a document's score for a query is the
sum of the matched terms' payloads. Because term expansion from W.H is exact,
ranked results over the factored index are identical to the same computation
over the raw matrix, with ties broken by ascending doc id so result lists are
canonical. Queries are read-only over an immutable index; accumulator state
is per query.

top_k expands every resolved query term through expand_term, in query order
(a term given twice counts twice), then builds one doc -> score map: the
longest list seeds it in one C-level dict() call and the others add their
payloads posting by posting. It ranks from a threshold: the k-th largest
score bounds which docs can place, and only those docs are looked up and
sorted.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress, repeat
from operator import ge
from typing import NamedTuple, Sequence

from .errors import ValidationError, check_int
from .factorize import Factorization, expand_term
from .matrix import Lexicon, PostingList, TermDocMatrix


@dataclass(frozen=True)
class Query:
    terms: tuple[str, ...]
    k: int

    def __post_init__(self) -> None:
        check_int("k", self.k)
        if self.k < 1:
            raise ValidationError("k must be >= 1")


class ScoredDoc(NamedTuple):
    doc: int
    score: int


def top_k(f: Factorization, q: Query, lexicon: Lexicon) -> list[ScoredDoc]:
    """Documents ranked by summed payload desc, doc id asc; at most k results.

    Unknown query terms are dropped; a query resolving to no terms returns an
    empty list. Every resolved term is expanded before any is scored, so a
    malformed factorization raises the error of its first failing term.
    """
    lists = [expand_term(f, tid) for tid in map(lexicon.id_of, q.terms) if tid is not None]
    if not lists:
        return []
    # Addition commutes, so the longest list can seed the map whatever its
    # place in the query; the rank below does not depend on insertion order.
    lists.sort(key=len)
    seed = lists.pop()
    scores = dict(zip(seed.docs, seed.payloads))
    get = scores.get
    for pl in lists:
        for d, p in zip(pl.docs, pl.payloads):
            scores[d] = get(d, 0) + p
    if not scores:
        return []
    # Only docs scoring at least the k-th best score can rank; sort those by
    # doc id, then stably by score descending.
    kth = heapq.nlargest(q.k, scores.values())[-1]
    best = sorted(compress(scores, map(ge, scores.values(), repeat(kth))))
    best.sort(key=scores.__getitem__, reverse=True)
    del best[q.k :]
    return list(map(ScoredDoc, best, map(scores.__getitem__, best)))


def resolve_terms(q: Query, lexicon: Lexicon) -> tuple[list[str], list[str]]:
    """(resolved, dropped) term strings, for verbose reporting."""
    resolved, dropped = [], []
    for term in q.terms:
        (resolved if lexicon.id_of(term) is not None else dropped).append(term)
    return resolved, dropped


def prune(matrix: TermDocMatrix, theta: int) -> TermDocMatrix:
    """Keep exactly the postings with payload >= theta (static pruning).

    Rows that become empty are kept as empty rows so the lexicon stays stable.
    theta <= 1 is the identity on any valid matrix.
    """
    check_int("theta", theta)
    if theta < 0:
        raise ValidationError("theta must be >= 0")
    rows = []
    for row in matrix.rows:
        keep = list(map(ge, row.payloads, repeat(theta)))
        docs, payloads = tuple(compress(row.docs, keep)), tuple(compress(row.payloads, keep))
        rows.append(PostingList(row.term, docs, payloads))
    return TermDocMatrix(rows, matrix.num_docs, matrix.lexicon, list(matrix.doc_names))


def overlap_at_k(a: Sequence[ScoredDoc], b: Sequence[ScoredDoc], k: int) -> float:
    """|top-k(a) docs intersect top-k(b) docs| over the larger of the two
    doc sets, so two equal lists score 1.0 even when shorter than k; 1.0
    when both are empty."""
    check_int("k", k)
    if k < 1:
        raise ValidationError("k must be >= 1")
    docs_a = {sd[0] for sd in a[:k]}
    docs_b = {sd[0] for sd in b[:k]}
    return len(docs_a & docs_b) / max(len(docs_a), len(docs_b)) if docs_a or docs_b else 1.0
