"""Correctness oracle: brute-force top-k over raw V, and index fingerprints.

The scorer shares no code with mtix.query: it reads V as counted by the
workload generator (not by mtix's ingest) and ranks with a heap instead of
a sort. It applies the ranking rule mtix documents: summed payload
descending, doc id ascending, unknown terms ignored.
"""

from __future__ import annotations

import hashlib
import heapq
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from mtix import TermDocMatrix


class BruteForceScorer:
    def __init__(self, v: TermDocMatrix) -> None:
        self._postings = {v.lexicon.term_of(row.term): row.postings for row in v.rows}
        self._doc_names = v.doc_names

    def top_k(self, terms: Sequence[str], k: int) -> list[list]:
        """[[doc name, score], ...] for the k best documents."""
        scores: dict[int, int] = {}
        for term in terms:
            for d, p in self._postings.get(term, ()):
                scores[d] = scores.get(d, 0) + p
        best = heapq.nsmallest(k, scores.items(), key=lambda item: (-item[1], item[0]))
        return [[self._doc_names[d], s] for d, s in best]


def index_fingerprint(f, lexicon, doc_names: Sequence[str]) -> str:
    """sha256 over a factorization, its lexicon and doc names.

    Hashes piecewise, so a build child can call it after its timed region
    without raising its own peak RSS.
    """
    h = hashlib.sha256(repr((f.num_terms, f.num_docs, len(f.metaterms))).encode())
    for mt in f.metaterms:
        h.update(repr((mt.id, mt.cols, mt.base)).encode())
    for row in f.memberships:
        h.update(repr(row).encode())
    for s in (*lexicon.terms, "\x00", *doc_names):
        h.update(s.encode("utf-8") + b"\x00")
    return h.hexdigest()
