from __future__ import annotations

import importlib.util
import io
import sys
import zlib
from pathlib import Path

from mtix import Factorization, MetaTerm, PostingList, export_factors
from mtix.store import _HEADER


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


def one_object_per_value(ints):
    """Whether equal ints among `ints` are one and the same object."""
    ints = list(ints)
    return len(set(map(id, ints))) == len(set(ints))


def inflated_image(data):
    """An index file's bytes with the CRC and the section offsets zeroed and
    each name table's zlib stream replaced by its inflated bytes: the file's
    content, the same under any zlib build. H and W stay byte for byte."""
    fields = list(_HEADER.unpack_from(data))
    off_doc, off_lex, off_h, _ = fields[-4:]
    fields[5] = 0  # the CRC32
    fields[-4:] = [0] * 4
    tables = (data[a : a + 16] + zlib.decompress(data[a + 16 : b]) for a, b in ((off_doc, off_lex), (off_lex, off_h)))
    return _HEADER.pack(*fields) + b"".join(tables) + data[off_h:]


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


def bench_workloads():
    """perfbench's seeded workload generators, loaded from their file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module
