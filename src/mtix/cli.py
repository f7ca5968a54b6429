"""Command-line front end: build, factor, stats, query, prune, bench,
diag-remainder.

Exit codes: 0 success, 1 usage, 2 input error, 3 internal invariant
violation. Every command is deterministic given its flags and inputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .codec import CODEC_NAMES, CodecConfig
from .errors import InvariantError, MtixError, ValidationError, utf8_error
from .factorize import FactorParams, Factorization, export_factors, factor, total_size
from .matrix import TermDocMatrix, export_triples, ingest_triples, ingest_tsv, nnz, read_triples
from .query import Query, overlap_at_k, prune, resolve_terms, top_k
from .store import IndexStats, load_index, save_index, stats


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_codec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--codec-doc", choices=CODEC_NAMES, default="gamma", help="doc-gap codec")
    p.add_argument("--codec-payload", choices=CODEC_NAMES, default="gamma", help="payload codec")
    p.add_argument("--codec-coeff", choices=CODEC_NAMES, default="gamma", help="coefficient codec")


def _add_factor_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--min-cols", type=int, default=4, metavar="N", help="minimum shared columns for a partial-merge candidate")
    p.add_argument("--max-candidates", type=int, default=64, metavar="N", help="candidate cap per term")
    p.add_argument("--no-stage2", action="store_true", help="whole-row grouping only")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--triples", action="store_true", help="input is 'term doc payload' triples, not a TSV corpus")


def _cfg(args: argparse.Namespace) -> CodecConfig:
    return CodecConfig(args.codec_doc, args.codec_payload, args.codec_coeff)


def _params(args: argparse.Namespace) -> FactorParams:
    return FactorParams(
        min_cols=args.min_cols,
        max_candidates_per_term=args.max_candidates,
        enable_stage2=not args.no_stage2,
    )


def _load_matrix(path: str, triples: bool) -> TermDocMatrix:
    return ingest_triples(path) if triples else ingest_tsv(path)


def _read_queries(path: str) -> list[list[str]]:
    """One whitespace-separated query per line of a UTF-8 file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise utf8_error(Path(path).read_bytes()) from None
    return [line.split() for line in text.splitlines()]


def _print_stats(st: IndexStats, tsv: bool) -> None:
    for key, value in st.rows():
        if tsv:
            print(f"{key}\t{value}")
        else:
            print(f"{key:<16} {value}")


def _factored_corpus(args: argparse.Namespace) -> tuple[TermDocMatrix, Factorization]:
    """The corpus of build/stats, pruned if --theta is given, and its factors."""
    matrix = _load_matrix(args.corpus, args.triples)
    if args.theta is not None:
        matrix = prune(matrix, args.theta)
    return matrix, factor(matrix, _params(args))


def _metaterm_count(f: Factorization) -> int:
    """The meta-term ids export_factors writes: one per meta-term and one
    per non-empty residual row."""
    return len(f.metaterms) + sum(map(bool, f.residual))


def cmd_build(args: argparse.Namespace) -> int:
    matrix, f = _factored_corpus(args)
    written = save_index(f, matrix.lexicon, _cfg(args), args.index, matrix.doc_names)
    _print_stats(stats(matrix, f, _cfg(args)), args.tsv)
    if args.verbose:
        print(f"wrote {written} bytes to {args.index}", file=sys.stderr)
    return 0


def cmd_factor(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args.input, args.triples)
    f = factor(matrix, _params(args))
    h_path = f"{args.out_prefix}.h"
    w_path = f"{args.out_prefix}.w"
    export_factors(f, h_path, w_path)
    if args.verbose:
        print(
            f"{_metaterm_count(f)} meta-terms, total size {total_size(f)} "
            f"(nnz_V {nnz(matrix)})",
            file=sys.stderr,
        )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    matrix, f = _factored_corpus(args)
    _print_stats(stats(matrix, f, _cfg(args)), args.tsv)
    if args.verbose:
        print(f"{_metaterm_count(f)} meta-terms over {matrix.num_terms} terms", file=sys.stderr)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    idx = load_index(args.index)
    queries = _read_queries(args.queries)
    for qi, terms in enumerate(queries):
        q = Query(tuple(terms), args.k)
        if args.verbose:
            _, dropped = resolve_terms(q, idx.lexicon)
            if dropped:
                print(f"query {qi}: dropped unknown terms {dropped}", file=sys.stderr)
        results = top_k(idx.factorization, q, idx.lexicon)
        for rank, sd in enumerate(results, start=1):
            name = idx.doc_names[sd.doc]
            if args.tsv:
                print(f"{qi}\t{rank}\t{name}\t{sd.score}")
            else:
                print(f"{rank}\t{name}\t{sd.score}")
        if not args.tsv:
            print()
    return 0


def cmd_prune(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args.input, args.triples)
    pruned = prune(matrix, args.theta)
    export_triples(pruned, args.out)
    if args.verbose:
        print(f"kept {nnz(pruned)} of {nnz(matrix)} postings", file=sys.stderr)
    return 0


_BENCH_COLUMNS = ("theta", "nnz", "bytes_direct", "bytes_factored", "ratio", "overlap@k")


def cmd_bench(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args.corpus, args.triples)
    try:
        thetas = [int(x) for x in args.thetas.split(",") if x.strip()]
    except ValueError:
        raise ValidationError(f"bad theta list {args.thetas!r}") from None
    if not thetas or any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise ValidationError("theta list must be non-empty and strictly ascending")
    queries = _read_queries(args.queries)

    cfg = _cfg(args)
    params = _params(args)
    baseline_f = factor(matrix, params)
    baseline = [top_k(baseline_f, Query(tuple(t), args.k), matrix.lexicon) for t in queries]

    rows = []
    for theta in thetas:
        pruned = prune(matrix, theta)
        f = factor(pruned, params)
        st = stats(pruned, f, cfg)
        if args.verbose:
            print(f"theta={theta}: kept {st.nnz_v} postings", file=sys.stderr)
        if queries:
            overlaps = [
                overlap_at_k(top_k(f, Query(tuple(t), args.k), matrix.lexicon), ref, args.k)
                for t, ref in zip(queries, baseline)
            ]
            mean_overlap = f"{sum(overlaps) / len(overlaps):.4f}"
        else:
            mean_overlap = "-"
        ratio = f"{float(st.ratio):.4f}" if st.ratio is not None else "-"
        rows.append((str(theta), str(st.nnz_v), str(st.bytes_direct), str(st.bytes_factored), ratio, mean_overlap))

    if args.tsv:
        print("\t".join(_BENCH_COLUMNS))
        for row in rows:
            print("\t".join(row))
    else:
        widths = [max(len(c), *(len(r[i]) for r in rows)) for i, c in enumerate(_BENCH_COLUMNS)]
        print("  ".join(c.rjust(w) for c, w in zip(_BENCH_COLUMNS, widths)))
        for row in rows:
            print("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return 0


def cmd_diag_remainder(args: argparse.Namespace) -> int:
    matrix = ingest_triples(args.v)
    w_rows = read_triples(args.w)
    h_rows = read_triples(args.h)

    product: dict[tuple[int, int], int] = {}
    for t, w_row in w_rows.items():
        acc: dict[int, int] = {}
        for m, coeff in w_row.items():
            h_row = h_rows.get(m)
            if h_row is None:
                raise ValidationError(
                    f"dimension mismatch: W references meta-term {m} with no H row"
                )
            for d, value in h_row.items():
                acc[d] = acc.get(d, 0) + coeff * value
        for d, value in acc.items():
            if value:
                product[(t, d)] = value

    v_cells = {(row.term, d): p for row in matrix.rows for d, p in zip(row.docs, row.payloads)}
    nnz_r = 0
    for cell in v_cells.keys() | product.keys():
        if v_cells.get(cell, 0) - product.get(cell, 0) != 0:
            nnz_r += 1

    print(f"nnz_V\t{len(v_cells)}")
    print(f"nnz_WH\t{len(product)}")
    print(f"nnz_R\t{nnz_r}")
    print(f"R larger than V: {'yes' if nnz_r > len(v_cells) else 'no'}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="mtix", description="Factored inverted-index compression engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="ingest, factor, and save a binary index")
    p.add_argument("corpus")
    p.add_argument("index")
    p.add_argument("--theta", type=int, default=None, metavar="N", help="prune payloads < N before factoring (lossy)")
    _add_input_flags(p)
    _add_factor_flags(p)
    _add_codec_flags(p)
    p.add_argument("--tsv", action="store_true")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("factor", help="factor a corpus and export W/H triples")
    p.add_argument("input")
    p.add_argument("out_prefix", help="writes <prefix>.h and <prefix>.w")
    _add_input_flags(p)
    _add_factor_flags(p)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("stats", help="print raw vs factored size statistics")
    p.add_argument("corpus")
    p.add_argument("--theta", type=int, default=None, metavar="N")
    _add_input_flags(p)
    _add_factor_flags(p)
    _add_codec_flags(p)
    p.add_argument("--tsv", action="store_true")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("query", help="run top-k queries against a saved index")
    p.add_argument("index")
    p.add_argument("queries", help="file with one whitespace-separated query per line")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--tsv", action="store_true")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("prune", help="drop postings below a payload threshold")
    p.add_argument("input")
    p.add_argument("out", help="output triples file")
    p.add_argument("--theta", type=int, required=True, metavar="N")
    _add_input_flags(p)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("bench", help="size/quality trade-off table over a theta sweep")
    p.add_argument("corpus")
    p.add_argument("--queries", required=True)
    p.add_argument("--thetas", required=True, help="ascending comma-separated thresholds")
    p.add_argument("--k", type=int, default=10)
    _add_input_flags(p)
    _add_factor_flags(p)
    _add_codec_flags(p)
    p.add_argument("--tsv", action="store_true")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("diag-remainder", help="nnz of R = V - W.H for external factors")
    p.add_argument("v", help="V triples: 'term doc payload'")
    p.add_argument("w", help="W triples: 'term metaterm coeff' (any integers)")
    p.add_argument("h", help="H triples: 'metaterm doc payload' (any integers)")
    p.set_defaults(func=cmd_diag_remainder)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"mtix: invariant violation: {exc}", file=sys.stderr)
        return 3
    except (MtixError, OSError) as exc:
        print(f"mtix: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
