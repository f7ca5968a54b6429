"""Synthetic corpora: random sparse instances, planted bicluster plants and
Zipfian text.

Every generator takes an explicit random.Random so runs are reproducible, and
reports its own tallies (cells emitted, planted structure) so tests can check
the pipeline against an independent count rather than against the pipeline
itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from math import gcd, log

from .matrix import Lexicon, TermDocMatrix, matrix_from_cells


def _bernoulli_support(num_docs: int, density: float, rng: random.Random) -> list[int]:
    """Doc ids kept by independent Bernoulli(density) draws, via geometric
    gap skipping so cost is O(selected) instead of O(num_docs)."""
    if density <= 0:
        return []
    if density >= 1:
        return list(range(num_docs))
    docs = []
    d = -1
    log_q = log(1.0 - density)
    while True:
        u = rng.random()
        d += 1 + int(log(1.0 - u) / log_q)
        if d >= num_docs:
            return docs
        docs.append(d)


def random_matrix(
    num_terms: int,
    num_docs: int,
    density: float,
    payload_range: tuple[int, int] = (1, 15),
    rng: random.Random | None = None,
) -> TermDocMatrix:
    """Each cell is non-zero independently with probability `density`;
    payloads are uniform in payload_range."""
    rng = rng or random.Random(0)
    lo, hi = payload_range
    cells: dict[int, dict[int, int]] = {}
    for t in range(num_terms):
        support = _bernoulli_support(num_docs, density, rng)
        if support:
            cells[t] = {d: rng.randint(lo, hi) for d in support}
    return matrix_from_cells(cells, num_terms=num_terms, num_docs=num_docs)


@dataclass(frozen=True)
class PlantedGroup:
    terms: tuple[int, ...]
    docs: tuple[int, ...]
    base: tuple[int, ...]
    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class PlantReport:
    groups: tuple[PlantedGroup, ...]
    planted_nnz: int
    noise_nnz: int

    @property
    def total_nnz(self) -> int:
        return self.planted_nnz + self.noise_nnz


def planted_matrix(
    num_groups: int = 10,
    rows_per_group: int = 5,
    cols_per_group: int = 50,
    noise_rows: int = 100,
    num_docs: int = 1000,
    coeff_range: tuple[int, int] = (1, 9),
    base_range: tuple[int, int] = (1, 9),
    noise_len_range: tuple[int, int] = (5, 30),
    noise_payload_range: tuple[int, int] = (1, 15),
    rng: random.Random | None = None,
) -> tuple[TermDocMatrix, PlantReport]:
    """Plant whole-row multiple groups among noise rows.

    Each group gets a fresh random doc subset, a random primitive base, and a
    random positive coefficient per row. Term ids are shuffled so planted and
    noise rows interleave. Noise row lengths are kept different from
    cols_per_group and noise signatures are deduplicated, so no accidental
    whole-row group can form outside the plant.
    """
    rng = rng or random.Random(0)
    if noise_len_range[0] <= cols_per_group <= noise_len_range[1]:
        raise ValueError("noise_len_range must exclude cols_per_group")
    total_terms = num_groups * rows_per_group + noise_rows
    perm = list(range(total_terms))
    rng.shuffle(perm)

    cells: dict[int, dict[int, int]] = {}
    groups = []
    planted_nnz = 0
    next_slot = 0
    for _ in range(num_groups):
        docs = tuple(sorted(rng.sample(range(num_docs), cols_per_group)))
        base = [rng.randint(*base_range) for _ in docs]
        g = 0
        for u in base:
            g = gcd(g, u)
        base = tuple(u // g for u in base)
        terms = []
        coeffs = []
        for _ in range(rows_per_group):
            t = perm[next_slot]
            next_slot += 1
            k = rng.randint(*coeff_range)
            cells[t] = {d: k * u for d, u in zip(docs, base)}
            planted_nnz += len(docs)
            terms.append(t)
            coeffs.append(k)
        order = sorted(range(len(terms)), key=lambda i: terms[i])
        groups.append(
            PlantedGroup(
                terms=tuple(terms[i] for i in order),
                docs=docs,
                base=base,
                coeffs=tuple(coeffs[i] for i in order),
            )
        )

    noise_nnz = 0
    seen_signatures = {(g.docs, g.base) for g in groups}
    for _ in range(noise_rows):
        t = perm[next_slot]
        next_slot += 1
        while True:
            length = rng.randint(*noise_len_range)
            docs = tuple(sorted(rng.sample(range(num_docs), length)))
            payloads = tuple(rng.randint(*noise_payload_range) for _ in docs)
            g = 0
            for p in payloads:
                g = gcd(g, p)
            signature = (docs, tuple(p // g for p in payloads))
            if signature not in seen_signatures:
                seen_signatures.add(signature)
                break
        cells[t] = dict(zip(docs, payloads))
        noise_nnz += len(docs)

    matrix = matrix_from_cells(cells, num_terms=total_terms, num_docs=num_docs)
    report = PlantReport(tuple(groups), planted_nnz, noise_nnz)
    return matrix, report


def zipf_corpus(
    num_docs: int,
    vocab_size: int,
    doc_len: tuple[int, int] = (20, 200),
    rng: random.Random | None = None,
) -> list[tuple[str, str]]:
    """(doc name, body) pairs of Zipfian text, ready for "name<TAB>body" lines.

    The vocabulary is vocab_size distinct lowercase words; each doc draws a
    uniform length in doc_len and then that many tokens with weight 1/rank.
    """
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    rng = rng or random.Random(0)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < vocab_size:
        word = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(2, 9)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    cum = list(accumulate(1.0 / rank for rank in range(1, vocab_size + 1)))
    return [
        (f"doc{d:05d}", " ".join(rng.choices(words, cum_weights=cum, k=rng.randint(*doc_len))))
        for d in range(num_docs)
    ]


def random_queries(
    lexicon: Lexicon,
    count: int,
    terms_range: tuple[int, int] = (1, 4),
    rng: random.Random | None = None,
) -> list[list[str]]:
    """Random queries of 1..n distinct terms drawn from the lexicon."""
    rng = rng or random.Random(0)
    vocab = list(lexicon.terms)
    queries = []
    for _ in range(count):
        n = min(rng.randint(*terms_range), len(vocab))
        queries.append(rng.sample(vocab, n) if n else [])
    return queries


_GROUP_SHAPES = ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4))


def whole_row_multiple_instance(
    rng: random.Random | None = None, max_nnz: int = 12
) -> tuple[TermDocMatrix, int]:
    """A tiny instance whose optimal cover is exactly its whole-row groups.

    Groups are row- and column-disjoint with gain(r, c) > 0, optionally padded
    with isolated single cells (which cost 2 under any cover). Returns the
    matrix and its optimal total size, Sum(r + c) + 2 * singles.
    """
    rng = rng or random.Random(0)
    shapes = []
    budget = max_nnz
    while True:
        fits = [s for s in _GROUP_SHAPES if s[0] * s[1] <= budget]
        if not fits or (shapes and rng.random() < 0.4):
            break
        r, c = rng.choice(fits)
        shapes.append((r, c))
        budget -= r * c
    singles = rng.randint(0, budget)

    cells: dict[int, dict[int, int]] = {}
    optimum = 0
    next_term = 0
    next_doc = 0
    for r, c in shapes:
        docs = range(next_doc, next_doc + c)
        base = [rng.randint(1, 5) for _ in range(c)]
        g = 0
        for u in base:
            g = gcd(g, u)
        base = [u // g for u in base]
        for _ in range(r):
            k = rng.randint(1, 5)
            cells[next_term] = {d: k * u for d, u in zip(docs, base)}
            next_term += 1
        next_doc += c
        optimum += r + c
    for _ in range(singles):
        cells[next_term] = {next_doc: rng.randint(1, 9)}
        next_term += 1
        next_doc += 1
        optimum += 2
    return matrix_from_cells(cells, num_terms=next_term, num_docs=next_doc), optimum
