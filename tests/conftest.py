from __future__ import annotations

import io

from mtix import Factorization, MetaTerm, PostingList, export_factors


def brute_force_top_k(matrix, terms, k):
    """Independent accumulator over raw V rows; the oracle for lossless
    query equivalence. Returns plain (doc, score) tuples."""
    scores: dict[int, int] = {}
    for term in terms:
        tid = matrix.lexicon.id_of(term)
        if tid is None:
            continue
        for d, p in matrix.rows[tid]:
            scores[d] = scores.get(d, 0) + p
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def singleton_form(f):
    """f as export_factors writes it, read back from the text: each non-empty
    residual row becomes the single-member meta-term it stands for, after
    the others in term order, and every residual row is empty. The test
    references (stage1_reference, stage2_reference, query_reference) know
    only this form."""
    h, w = io.StringIO(), io.StringIO()
    export_factors(f, h, w)
    cells: dict[int, list[tuple[int, int]]] = {}
    for line in h.getvalue().splitlines():
        m, d, u = map(int, line.split())
        cells.setdefault(m, []).append((d, u))
    memberships: list[list[tuple[int, int]]] = [[] for _ in range(f.num_terms)]
    for line in w.getvalue().splitlines():
        t, m, k = map(int, line.split())
        memberships[t].append((m, k))
    return Factorization(
        metaterms=tuple(MetaTerm(m, *map(tuple, zip(*cells[m]))) for m in range(len(cells))),
        memberships=tuple(map(tuple, memberships)),
        residual=tuple(PostingList(t, (), ()) for t in range(f.num_terms)),
        num_terms=f.num_terms,
        num_docs=f.num_docs,
    )
