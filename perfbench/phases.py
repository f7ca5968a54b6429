"""The two phases a user runs, each executed in a fresh interpreter.

    python3 perfbench/phases.py SPEC.json

SPEC names the phase ("build" or "query"), its input files, whether to
trace, and where to write the result JSON. A traced build with "counts" set
also reports the byte and count metrics, after its timed region. A fresh process per phase lets
that phase's peak RSS be its own; the workload generator and the
correctness checks stay out of it.

* build: what `mtix build` does: ingest, factor, save_index, stats.
* query: what `mtix query` does: a cold load_index and the first top-k,
  then, if "warm" is set, a closed loop of top-k queries from one client,
  each sent after the previous one returned, for at least "seconds" and at
  least one pass over the query file.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import Tracer, span_factory

CODECS = ("gamma", "delta", "vbyte")


def _peak_rss_mb() -> float:
    """This process's own peak RSS (VmHWM), in MB.

    Not ru_maxrss: Linux carries the spawning process's high-water mark
    across exec into it, so a child would report the parent's peak.
    """
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _multirow(f) -> int:
    members = Counter(m for row in f.memberships for m, _ in row)
    return sum(1 for c in members.values() if c >= 2)


def build(spec: dict, tracer: Tracer | None) -> dict:
    import mtix.factorize
    import mtix.store
    from mtix import CodecConfig, factor, ingest_triples, ingest_tsv, save_index, stats, total_size
    from oracle import index_fingerprint

    cfg = CodecConfig()
    stage1_out = []
    if tracer is not None:
        # factor() looks both stages up as module globals when it runs.
        tracer.patch(mtix.factorize, "factor_whole_rows", "factorize.stage1", lambda rec, f1: stage1_out.append(f1))
        tracer.patch(mtix.factorize, "refine_partial", "factorize.stage2")
    span = span_factory(tracer)

    t0 = time.perf_counter()
    with span("build"):
        with span("matrix.ingest"):
            matrix = (ingest_triples if spec["triples"] else ingest_tsv)(spec["corpus"])
        with span("factorize.factor"):
            f = factor(matrix)
        with span("store.save"):
            written = save_index(f, matrix.lexicon, cfg, spec["index"], matrix.doc_names)
        with span("store.stats"):
            st = stats(matrix, f, cfg)
    build_s = time.perf_counter() - t0

    out = {
        "build_s": build_s,
        "nnz": st.nnz_v,
        "file_bytes": written,
        "bytes_direct": st.bytes_direct,
        "bytes_factored": st.bytes_factored,
        "fingerprint": index_fingerprint(f, matrix.lexicon, matrix.doc_names),
    }
    if not spec.get("counts"):
        return out

    f1 = stage1_out[0]
    counts = {
        "factorize.stage1_multirow_metaterms": _multirow(f1),
        "factorize.stage2_biclusters_applied": _multirow(f) - _multirow(f1),
        "factorize.total_size": total_size(f),
        "factorize.stage2_entries_saved": total_size(f1) - total_size(f),
        "factorize.stage2_bytes_saved": stats(matrix, f1, cfg).bytes_factored - st.bytes_factored,
    }
    for codec in CODECS:
        ratio = stats(matrix, f, CodecConfig(codec, codec, codec)).ratio
        counts[f"codec.ratio_{codec}"] = float(ratio)
    parts = getattr(mtix.store, "encoded_section_parts", None)
    if parts is not None:
        h_offsets, h, w, _ = parts(f, cfg)
        counts["store.bytes.h_offsets"] = len(h_offsets)
        counts["store.bytes.h"] = len(h)
        counts["store.bytes.w"] = len(w)
        counts["store.bytes.other"] = written - len(h_offsets) - len(h) - len(w)
    out["counts"] = counts
    return out


def query(spec: dict, tracer: Tracer | None) -> dict:
    import mtix.query
    from mtix import Query, load_index, top_k

    queries = [line.split() for line in Path(spec["queries"]).read_text(encoding="utf-8").splitlines()]
    k = spec["k"]
    if tracer is not None:
        # top_k() looks expand_term up as a module global for every term.
        def count_postings(rec, posting_list):
            rec.count = len(posting_list)

        tracer.patch(mtix.query, "expand_term", "query.expand_term", count_postings)
    span = span_factory(tracer)

    t0 = time.perf_counter()
    with span("store.load"):
        idx = load_index(spec["index"])
    with span("query.top_k"):
        first = top_k(idx.factorization, Query(tuple(queries[0]), k), idx.lexicon)
    cold_first_s = time.perf_counter() - t0

    f, lexicon, doc_names = idx.factorization, idx.lexicon, idx.doc_names
    out = {"cold_first_s": cold_first_s, "first": [[doc_names[d], s] for d, s in first]}
    if not spec["warm"]:
        return out

    latencies = []
    results = []
    mismatches = 0
    n = 0
    deadline = time.perf_counter() + spec["seconds"]
    while n < len(queries) or time.perf_counter() < deadline:
        i = n % len(queries)
        q = Query(tuple(queries[i]), k)
        if tracer is not None:
            tracer.query_id = n
        with span("query.top_k"):
            a = time.perf_counter()
            ranked = top_k(f, q, lexicon)
            b = time.perf_counter()
        latencies.append(b - a)
        named = [[doc_names[d], s] for d, s in ranked]
        if n < len(queries):
            results.append(named)
        elif named != results[i]:
            mismatches += 1
        n += 1
    out.update(latencies=latencies, results=results, mismatches=mismatches)

    if tracer is not None:
        # Meta-term memberships per resolved term over one pass: an exact count.
        lists = [len(f.memberships[t]) for q in queries for t in map(lexicon.id_of, q) if t is not None]
        out["counts"] = {"query.lists_per_term": sum(lists) / len(lists) if lists else 0.0}
    return out


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    tracer = Tracer() if spec["traced"] else None
    out = (build if spec["phase"] == "build" else query)(spec, tracer)
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        out["spans"] = [s.as_list() for s in tracer.spans]
    Path(spec["out"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
