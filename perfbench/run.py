"""mtix benchmark: build and query one seeded workload from this checkout.

    python3 perfbench/run.py --workload zipf-text --seed 1 --seconds 2 --trace 0

Runs what `mtix build` does (ingest, factor, save_index, stats) and then
what `mtix query` does (a cold load_index, then a closed loop of top-k
queries from one client) on the inputs generated for the seed. Each build
and each query phase runs in its own child process (see phases.py), so its
peak RSS is its own. Every build, load and query is checked against an
oracle outside the timed regions; a wrong result counts as a failure.

With --trace 0 the last stdout line is a JSON object carrying the
end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics, taken from spans recorded around each call into mtix.
The run record (environment, input digests, metrics and, when traced, all
spans) is written to .perfbench_run/<workload>-seed<n>-trace<t>.json.
A run whose checks fail still prints the result line, with "correct":
false, and exits 1; a run that cannot be made exits non-zero without one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".perfbench_run"
PHASES = HERE / "phases.py"
PINNED = HERE / "pinned_inputs.json"

K = 10  # `mtix query` default
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run

# One round generates the inputs, runs one build child, then query children
# on that build's index: one with the warm loop and COLD_STARTS more cold
# starts. Every kind of sample is thus spread over the whole run rather than
# bunched into one stretch of it, which matters on a shared machine whose
# speed drifts over tens of seconds. Each flag says whether that round's
# children are traced; a traced run puts an untraced round between two
# traced ones, and their difference is the tracing overhead.
ROUNDS = {False: (False, False, False), True: (True, False, True)}
COLD_STARTS = 2

BUILD_LAYERS = ("matrix.ingest", "factorize.stage1", "factorize.stage2", "store.save", "store.stats")


class Run:
    """One benchmark invocation: its work directory, children and tallies."""

    def __init__(self, workload: str, seed: int, seconds: int, traced: bool) -> None:
        self.workload, self.seed, self.seconds, self.traced = workload, seed, seconds, traced
        self.work = RECORDS / f"{workload}-seed{seed}-{os.getpid()}"
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def tally(self, attempted: int, failed: int, why: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{failed} of {attempted} failed: {why}")

    def spawn(self, spec: dict) -> dict | None:
        """Run one phase child and return its result, or None if it failed."""
        n = len(list(self.work.glob("spec-*.json")))
        spec_path = self.work / f"spec-{n}.json"
        spec = dict(spec, src=str(SRC), out=str(self.work / f"out-{n}.json"))
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        try:
            # The child's stdout goes to stderr: this process's stdout ends in the result line.
            done = subprocess.run(
                [sys.executable, str(PHASES), str(spec_path)],
                stdout=sys.stderr,
                timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started)),
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            self.notes.append(f"{spec['phase']} child killed at the run time limit")
            return None
        if done.returncode != 0:
            return None
        return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _check_builds(run: Run, builds: list, v) -> None:
    """Gate the builds: identical files, a faithful reload, exact reconstruction."""
    from mtix import load_index, reconstruct
    from oracle import index_fingerprint

    done = [i for i, res in enumerate(builds) if res is not None]
    run.tally(len(builds) - len(done), len(builds) - len(done), "build raised")
    if not done:
        return
    ref = run.work / f"index-{done[0]}.mtix"
    ref_sha = _sha256(ref)
    same = [i for i in done if _sha256(run.work / f"index-{i}.mtix") == ref_sha]
    run.tally(len(done) - len(same), len(done) - len(same), "repeated builds wrote different bytes")
    try:
        idx = load_index(ref)
        loaded = index_fingerprint(idx.factorization, idx.lexicon, idx.doc_names)
        exact = reconstruct(idx.factorization).same_cells(v)
    except Exception as exc:  # any failure to reload is a failed build, not a crash
        run.notes.append(f"reloading the index raised {exc!r}")
        loaded, exact = None, False
    good = [i for i in same if builds[i]["fingerprint"] == loaded and exact]
    why = "reconstruct(f) differs from V" if not exact else "reloaded index differs from the build"
    run.tally(len(same), len(same) - len(good), why)


def _check_queries(run: Run, res: dict | None, queries: list[list[str]], expected: list[list]) -> None:
    """Count the loads and queries of one query child, and which were wrong."""
    if res is None:
        run.tally(2, 2, "query child raised")
        return
    run.tally(2, int(res["first"] != expected[0]), "cold first query differs from the oracle")
    if "latencies" not in res:
        return
    executed = len(res["latencies"])
    passes, rest = divmod(executed, len(queries))
    wrong = sum(passes + (i < rest) for i, got in enumerate(res["results"]) if got != expected[i])
    run.tally(executed, min(executed, wrong + res["mismatches"]), "top-k differs from the brute-force oracle")


def _end_to_end(run: Run, setup_times, builds, warm, cold) -> dict[str, float]:
    # The shared host this was tuned on switches between a fast and a slow
    # speed for stretches of tens of seconds. A median of samples drawn from both
    # jumps between the two as their mix crosses one half; totals and means
    # move in proportion to it, so build throughput and the cold start use them.
    lat = sorted(t for res in warm for t in res["latencies"])
    starts = [r["cold_first_s"] for r in warm + cold]
    return {
        "setup_s": statistics.median(setup_times),
        "build_postings_per_s": sum(r["nnz"] for r in builds) / sum(r["build_s"] for r in builds),
        "build_peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in builds),
        "index_bytes_per_posting": builds[0]["file_bytes"] / builds[0]["nnz"],
        "factored_to_direct_ratio": builds[0]["bytes_factored"] / builds[0]["bytes_direct"],
        "cold_first_query_s": statistics.fmean(starts),
        "query_p50_ms": statistics.median(lat) * 1e3,
        "query_p99_ms": _nearest_rank(lat, 0.99) * 1e3,
        "queries_per_s": len(lat) / sum(lat),
        "query_peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in warm),
        "ok_share": 1 - run.failed / run.attempted,
    }


def _build_layers(spans: list[list]) -> dict[str, float]:
    """Layer self times of one traced build, and the part no layer covers."""
    from tracing import self_times

    own: dict[str, float] = {}
    for span, self_s in zip(spans, self_times(spans)):
        own[span[0]] = own.get(span[0], 0.0) + self_s
    total = next(end - start for name, start, end, *_ in spans if name == "build")
    times = {f"{name}_s": own[name] for name in BUILD_LAYERS}
    times["build.traced_s"] = total
    times["build.uncovered_s"] = total - sum(own[name] for name in BUILD_LAYERS)
    return times


def _query_layers(res: dict) -> tuple[list[float], list[float], int]:
    """Per warm query of one traced child: expand time, the rest of top_k,
    and the postings expanded over the first pass."""
    from tracing import self_times

    expand: dict[int, float] = {}
    rest: dict[int, float] = {}
    postings = 0
    one_pass = len(res["results"])
    for (name, start, end, _, qid, count), self_s in zip(res["spans"], self_times(res["spans"])):
        if qid is None:  # the cold first query
            continue
        if name == "query.expand_term":
            expand[qid] = expand.get(qid, 0.0) + (end - start)
            postings += count if qid < one_pass else 0
        elif name == "query.top_k":
            rest[qid] = self_s
    return [expand.get(q, 0.0) for q in rest], list(rest.values()), postings


def _per_layer(builds, warm, cold) -> dict[str, float]:
    rounds = ROUNDS[True]
    traced_builds = [res for res, t in zip(builds, rounds) if t]
    plain_builds = [res for res, t in zip(builds, rounds) if not t]
    traced_queries = [res for res, t in zip(warm, rounds) if t]
    plain_queries = [res for res, t in zip(warm, rounds) if not t]
    traced_loads = traced_queries + [res for starts, t in zip(cold, rounds) if t for res in starts]

    layer_runs = [_build_layers(res["spans"]) for res in traced_builds]
    metrics = {name: statistics.median(t[name] for t in layer_runs) for name in layer_runs[0]}
    metrics.update(traced_builds[0]["counts"])
    metrics["trace.build_overhead_s"] = statistics.median(r["build_s"] for r in traced_builds) - statistics.median(
        r["build_s"] for r in plain_builds
    )

    per_child = [_query_layers(res) for res in traced_queries]
    expand = [t for e, _, _ in per_child for t in e]
    rest = [t for _, r, _ in per_child for t in r]
    postings = per_child[0][2]
    metrics.update(traced_queries[0]["counts"])
    metrics["store.load_s"] = statistics.median(
        end - start for res in traced_loads for name, start, end, *_ in res["spans"] if name == "store.load"
    )
    metrics["store.load_bytes"] = traced_builds[0]["file_bytes"]
    metrics["query.expand_s"] = statistics.fmean(expand)
    metrics["query.accumulate_rank_s"] = statistics.fmean(rest)
    metrics["query.postings_scored"] = postings / len(traced_queries[0]["results"])
    metrics["trace.query_overhead_ms"] = 1e3 * (
        statistics.fmean(t for res in traced_queries for t in res["latencies"])
        - statistics.fmean(t for res in plain_queries for t in res["latencies"])
    )
    return metrics


def _pinned_status(workload: str, seed: int, digests: dict[str, str]) -> str:
    pinned = json.loads(PINNED.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
    if pinned is None:
        return "no pinned digests for this seed"
    if pinned == digests:
        return "inputs match the pinned digests"
    return "WARNING: inputs differ from the pinned digests; the workload changed"


def execute(run: Run) -> tuple[dict, dict]:
    """Set up, build, query and check; returns (metrics, run record)."""
    import mtix
    import workloads
    from oracle import BruteForceScorer

    rounds = ROUNDS[run.traced]
    setup_times, digests, builds, warm, cold = [], None, [], [], []
    for i, traced in enumerate(rounds):
        t0 = time.perf_counter()
        gen = workloads.generate(run.workload, run.seed, run.work)
        setup_times.append(time.perf_counter() - t0)
        if digests is None:
            digests = gen.digests()
        elif gen.digests() != digests:
            raise SystemExit("perfbench: the generator is not deterministic for this seed")
        index = str(run.work / f"index-{i}.mtix")
        builds.append(run.spawn({"phase": "build", "traced": traced, "counts": traced and i == rounds.index(True),
                                 "triples": gen.triples, "corpus": str(gen.corpus), "index": index}))
        query = {"phase": "query", "traced": traced, "index": index, "queries": str(gen.queries), "k": K}
        warm.append(run.spawn(dict(query, warm=True, seconds=run.seconds / len(rounds))))
        cold.append([run.spawn(dict(query, warm=False)) for _ in range(COLD_STARTS)])

    v = workloads.raw_matrix(gen)
    _check_builds(run, builds, v)
    queries = [line.split() for line in gen.queries.read_text(encoding="utf-8").splitlines()]
    scorer = BruteForceScorer(v)
    expected = [scorer.top_k(q, K) for q in queries]
    cold_all = [res for starts in cold for res in starts]
    for res in warm + cold_all:
        _check_queries(run, res, queries, expected)

    if run.failed:
        metrics = {"ok_share": 1 - run.failed / run.attempted}
    elif run.traced:
        metrics = _per_layer(builds, warm, cold)
    else:
        metrics = _end_to_end(run, setup_times, builds, warm, cold_all)
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.traced),
        "mtix_file": mtix.__file__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "inputs_sha256": digests,
        "pinned": _pinned_status(run.workload, run.seed, digests),
        "cold_first_s": [res and res["cold_first_s"] for res in warm + cold_all],
        "build_s": [res and res["build_s"] for res in builds],
    }
    if run.traced:
        record["spans"] = {
            f"{kind}-{i}": res["spans"]
            for kind, children in (("build", builds), ("query", warm), ("cold", cold_all))
            for i, res in enumerate(children)
            if res is not None and "spans" in res
        }
    return metrics, record


def _import_checkout() -> None:
    """Put this checkout's src/ first on the path and make sure mtix comes from it."""
    if not (SRC / "mtix" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mtix source under {SRC}")
    sys.path.insert(0, str(SRC))
    import mtix

    if Path(mtix.__file__).resolve().parent != SRC / "mtix":
        raise SystemExit(f"perfbench: imported mtix from {mtix.__file__}, not from this checkout")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="warm query loop length, summed over the rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_checkout()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.work.mkdir(parents=True)
    try:
        metrics, record = execute(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    correct = run.failed == 0
    out = {}
    for m in declared:
        if m["name"] in metrics:
            out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        elif correct and not m["name"].startswith("store.bytes."):
            raise SystemExit(f"perfbench: metric {m['name']} was not measured")
    record.update(correct=correct, attempted=run.attempted, failed=run.failed, notes=run.notes, metrics=out)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RECORDS / name).write_text(json.dumps(record), encoding="utf-8")

    print(f"# {args.workload} seed {args.seed}: mtix {record['mtix_file']}, "
          f"python {record['python']}, nproc {record['nproc']}")
    for file, digest in record["inputs_sha256"].items():
        print(f"# input {file} sha256 {digest}")
    print(f"# {record['pinned']}")
    for note in run.notes:
        print(f"# FAILED {note}")
    for key, m in out.items():
        print(f"# {key:<40} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
