"""Stage 1 and primitive_form as they were before both went through one
primitive-form rule in mtix.matrix, kept verbatim as the reference the
differential test in test_factorize compares factorize.factor_whole_rows
against. Not used by mtix; it keeps its own gcd code on purpose.

PrimitiveRow and primitive_form left mtix.matrix, and _assemble (the
meta-term numbering of the singleton form, single-member meta-terms last in
term order) left mtix.factorize, when Factorization took per-term residual
rows; they live on here verbatim. Its Factorization has an empty residual
row per term: every cell sits in a meta-term. stage2_reference assembles
through the same _assemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from mtix.errors import ValidationError
from mtix.factorize import Bicluster, Factorization, MetaTerm, gain
from mtix.matrix import Posting, PostingList, TermDocMatrix


@dataclass(frozen=True)
class PrimitiveRow:
    """Canonical witness that a row is `scale` times a GCD-1 base vector."""

    scale: int
    base: tuple[Posting, ...]


def _assemble(biclusters: Sequence[Bicluster], num_terms: int, num_docs: int) -> Factorization:
    """Canonical meta-term order: the multi-row meta-terms first, then the
    single-member ones, each part by (lowest member TermId, lowest DocId).
    The single-member meta-terms thus come last, in term order, which is
    where the index file stores them as direct posting lists."""
    order = sorted(
        range(len(biclusters)),
        key=lambda i: (len(biclusters[i].rows) < 2, biclusters[i].rows[0], biclusters[i].cols[0]),
    )
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
        residual=tuple(PostingList(t, (), ()) for t in range(num_terms)),
        num_terms=num_terms,
        num_docs=num_docs,
    )


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
