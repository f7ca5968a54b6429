"""Seeded workload generators and the raw matrix each workload should index.

Every workload writes a corpus file and a query file (one whitespace-
separated query per line), the two inputs `mtix build` and `mtix query`
read. The same seed gives byte-identical files. The program under test only
ever sees those files; the in-memory data returned next to them gives the
correctness oracle its own copy of V.

Why these three workloads:

* zipf-text: realistic text. Token weight is proportional to 1/rank, so a
  few terms have very long posting lists. Stage 1 finds no groups, stage 2
  does most of the build, factoring loses to direct coding, and queries hit
  long lists.
* planted-triples: whole-row bicluster groups among noise rows, the case
  where factoring pays. Stage 1 does the work, stage 2 is nearly idle, and
  queries expand through shared multi-row meta-terms.
* random-triples: no structure at all, so every byte and second the
  factorizer spends is overhead. Time goes to ingest, encode and the
  largest index load.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Sequence

from mtix import synth
from mtix.matrix import Lexicon, TermDocMatrix, export_triples, matrix_from_cells

WORKLOADS = ("zipf-text", "planted-triples", "random-triples")

# zipf-text: 2k docs x 5k vocab, about 150k postings. The 10k-doc corpus
# takes over a minute per build, too long for repeated runs.
ZIPF_DOCS = 2000
ZIPF_VOCAB = 5000
ZIPF_DOC_LEN = (20, 200)

QUERY_COUNT = 1000
QUERY_TERMS = (1, 4)
LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Generated:
    """Input files on disk plus the data they were written from."""

    corpus: Path
    queries: Path
    triples: bool
    docs: list[list[str]] | None = None  # zipf-text token lists, in doc order
    matrix: TermDocMatrix | None = None  # triples workloads: mtix.synth output

    def digests(self) -> dict[str, str]:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (self.corpus, self.queries)}


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    seen: set[str] = set()
    words = []
    while len(words) < size:
        word = "".join(rng.choice(LETTERS) for _ in range(rng.randint(2, 9)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _draw_queries(
    rng: random.Random, population: Sequence[str], weights: Sequence[float]
) -> list[list[str]]:
    """QUERY_COUNT queries of 1-4 distinct terms drawn by `weights`."""
    cum = list(accumulate(weights))
    queries = []
    for _ in range(QUERY_COUNT):
        want = rng.randint(*QUERY_TERMS)
        terms: list[str] = []
        while len(terms) < want:
            term = rng.choices(population, cum_weights=cum)[0]
            if term not in terms:
                terms.append(term)
        queries.append(terms)
    return queries


def _write_queries(path: Path, queries: list[list[str]]) -> None:
    path.write_text("".join(" ".join(q) + "\n" for q in queries), encoding="utf-8")


def _zipf_text(rng: random.Random, out: Path) -> Generated:
    vocab = _vocabulary(rng, ZIPF_VOCAB)
    zipf = [1.0 / rank for rank in range(1, len(vocab) + 1)]
    cum = list(accumulate(zipf))
    docs = [rng.choices(vocab, cum_weights=cum, k=rng.randint(*ZIPF_DOC_LEN)) for _ in range(ZIPF_DOCS)]
    corpus = out / "corpus.tsv"
    with open(corpus, "w", encoding="utf-8") as fh:
        for d, tokens in enumerate(docs):
            fh.write(f"doc{d:05d}\t{' '.join(tokens)}\n")
    queries = out / "queries.txt"
    _write_queries(queries, _draw_queries(rng, vocab, zipf))
    return Generated(corpus, queries, triples=False, docs=docs)


def _triples(matrix: TermDocMatrix, rng: random.Random, out: Path) -> Generated:
    """Write a synth matrix as triples, with queries weighted by document frequency."""
    corpus = out / "corpus.triples"
    export_triples(matrix, corpus)
    live = [row for row in matrix.rows if row.postings]
    queries = out / "queries.txt"
    _write_queries(queries, _draw_queries(rng, [str(r.term) for r in live], [len(r) for r in live]))
    return Generated(corpus, queries, triples=True, matrix=matrix)


def generate(workload: str, seed: int, out: Path) -> Generated:
    """Write the workload's corpus and query files for `seed` into `out`."""
    rng = random.Random(seed)
    if workload == "zipf-text":
        return _zipf_text(rng, out)
    if workload == "planted-triples":
        matrix, _ = synth.planted_matrix(
            num_groups=1000, rows_per_group=5, cols_per_group=50, noise_rows=10000, num_docs=20000, rng=rng
        )
        return _triples(matrix, rng, out)
    if workload == "random-triples":
        return _triples(synth.random_matrix(4000, 20000, 0.005, rng=rng), rng, out)
    raise ValueError(f"unknown workload {workload!r}")


def raw_matrix(gen: Generated) -> TermDocMatrix:
    """V as the corpus file defines it, taken from the generator's data
    rather than from mtix's ingest: term and doc ids follow the ingest
    conventions (first-seen order for TSV, the integers themselves for
    triples)."""
    if gen.docs is not None:
        lexicon = Lexicon()
        cells: dict[int, dict[int, int]] = {}
        for d, tokens in enumerate(gen.docs):
            for token in tokens:
                row = cells.setdefault(lexicon.intern(token), {})
                row[d] = row.get(d, 0) + 1
        names = [f"doc{d:05d}" for d in range(len(gen.docs))]
        return matrix_from_cells(cells, len(lexicon), len(names), lexicon, names)
    # A triples file carries only non-zeros, so ids run up to the largest one present.
    live = [row for row in gen.matrix.rows if row.postings]
    num_terms = max((row.term for row in live), default=-1) + 1
    num_docs = max((row.postings[-1].doc for row in live), default=-1) + 1
    lexicon = Lexicon(str(t) for t in range(num_terms))
    return TermDocMatrix(gen.matrix.rows[:num_terms], num_docs, lexicon, [str(d) for d in range(num_docs)])
