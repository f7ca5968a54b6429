"""Stage 1 and primitive_form as they were before both went through one
primitive-form rule in mtix.matrix, kept verbatim as the reference the
differential test in test_factorize compares factorize.factor_whole_rows
against. Not used by mtix; it keeps its own gcd code on purpose.
"""

from __future__ import annotations

from math import gcd

from mtix.errors import ValidationError
from mtix.factorize import Bicluster, Factorization, _assemble, gain
from mtix.matrix import Posting, PostingList, PrimitiveRow, TermDocMatrix


def primitive_form(row: PostingList) -> PrimitiveRow:
    """GCD-normalize a row: scale = gcd of payloads, base = row / scale.

    Two non-empty rows are scalar multiples of each other exactly when their
    primitive forms have identical (support, base) sequences.
    """
    if not row.postings:
        raise ValidationError("primitive_form: row is empty")
    g = 0
    for _, p in row.postings:
        g = gcd(g, p)
    base = tuple(Posting(d, p // g) for d, p in row.postings)
    return PrimitiveRow(g, base)


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
