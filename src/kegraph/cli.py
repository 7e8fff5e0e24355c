"""Command-line surface: analyze, batch, gen, verify.

Exit codes: 0 success, 1 verify violation, 2 parse/parameter error,
3 size-gated fields omitted without --force, 141 standard output closed
before all output was written (as `kegraph analyze ... | head -5` does;
141 is the status a shell reports for a process ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import multiprocessing
import os
import sys
import warnings

from .errors import BadParamsError, KegraphError, ParseError, UnknownNameError
from .fixtures import FAMILIES, FIXTURE_NAMES, fixture, generate
from .formats import emit_graph6, parse_edge_list, parse_graph6
from .graph import Graph
from .independence import DEFAULT_OMEGA_CAP
from .report import CSV_COLUMNS, analyze_graph, csv_row
from .verify import DEFAULT_SEED, run_suite

__all__ = ["main"]


def _env_seed() -> int:
    try:
        return int(os.environ.get("KEG_SEED", DEFAULT_SEED))
    except ValueError:
        return DEFAULT_SEED


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (a build takes over a
    millisecond); parsing keeps no state in it from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="kegraph",
        description=(
            "Matching and independence invariants, critical independent sets, "
            "and Konig-Egervary recognition with certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full report for a single graph")
    src = pa.add_mutually_exclusive_group()
    src.add_argument("path", nargs="?", default="-",
                     help="input file, or - for stdin (default)")
    src.add_argument("--fixture", choices=FIXTURE_NAMES,
                     help="analyze a named fixture instead of reading input")
    pa.add_argument("--format", choices=("graph6", "edges"), default="graph6")
    out = pa.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true", help="JSON output (default)")
    out.add_argument("--csv", action="store_true", help="CSV output")
    pa.add_argument("--force", action="store_true",
                    help="lift the exact-solver size gate")
    pa.add_argument("--oracle", action="store_true",
                    help="cross-check against brute force (small graphs)")

    pb = sub.add_parser("batch", help="CSV stream of reports for graph6 lines")
    pb.add_argument("path", help="file of graph6 records, one per line")
    pb.add_argument("--jobs", type=int, default=1,
                    help="parallel workers, capped by lines and CPUs; order is kept")
    pb.add_argument("--poly-only", action="store_true",
                    help="polynomial fields only (skip alpha/core/chain)")
    pb.add_argument("--force", action="store_true")
    pb.add_argument("--oracle", action="store_true")

    pg = sub.add_parser("gen", help="emit a family member as graph6")
    pg.add_argument("family", choices=FAMILIES)
    pg.add_argument("params", nargs="*", type=int)

    pv = sub.add_parser("verify", help="run the self-check suites")
    pv.add_argument("--scope", choices=("quick", "full"), default="quick")
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--cap", type=int, default=DEFAULT_OMEGA_CAP)

    return parser


def _read_graph(args: argparse.Namespace) -> tuple[Graph, str]:
    if args.fixture:
        return fixture(args.fixture), args.fixture
    # Input is strict UTF-8 whatever the locale, from stdin as from a file.
    if args.path == "-":
        text = sys.stdin.buffer.read().decode("utf-8")
        name = "stdin"
    else:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
        name = os.path.basename(args.path)
    if args.format == "edges":
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = parse_edge_list(text)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        return g, name
    return parse_graph6(text.strip()), name


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        g, name = _read_graph(args)
    except (ParseError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = analyze_graph(g, name=name, force=args.force, with_oracle=args.oracle)
    if args.csv:
        print(",".join(CSV_COLUMNS))
        print(csv_row(report))
    else:
        print(report.to_json(indent=2))
    return 3 if report.gated else 0


def _batch_one(
    item: tuple[int, str], **options: bool
) -> tuple[int, str, str, bool | None, bool | None]:
    """One batch line: its CSV row, or its error line; *options* go to
    analyze_graph."""
    lineno, line = item
    try:
        report = analyze_graph(parse_graph6(line), name=line, **options)
        chain_holds = report.chain["chain_holds"] if report.chain else None
        return lineno, csv_row(report), "", report.is_ke, chain_holds
    except KegraphError as exc:
        return lineno, "", f"line {lineno}: {exc}", None, None
    except Exception as exc:  # a defect on one line must not end the run
        detail = f"internal error: {type(exc).__name__}: {exc}"
        return lineno, "", f"line {lineno}: {detail}", None, None


def _cmd_batch(args: argparse.Namespace) -> int:
    try:
        # Undecodable bytes become lone surrogates, which parse_graph6
        # rejects, so such a line ends in a line error like any other.
        with open(args.path, encoding="utf-8", errors="surrogateescape") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    items = [
        (lineno, line.strip())
        for lineno, line in enumerate(lines, start=1)
        if line.strip()
    ]
    one = functools.partial(
        _batch_one, force=args.force, poly_only=args.poly_only, with_oracle=args.oracle
    )
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(args.jobs, len(items), cpus or 1)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            parsed = _emit_batch(pool.imap(one, items, chunksize=64))
    else:
        parsed = _emit_batch(map(one, items))
    return 0 if parsed else 2


def _emit_batch(results) -> int:
    print(",".join(CSV_COLUMNS))
    parsed = ke = chain_non_ke = 0
    for lineno, row, err, is_ke, chain_holds in results:
        if err:
            print(err, file=sys.stderr)
            continue
        parsed += 1
        if is_ke:
            ke += 1
        elif chain_holds:
            chain_non_ke += 1
        print(row)
    other = parsed - ke - chain_non_ke
    print(f"#summary total={parsed} ke={ke} chain_holds_non_ke={chain_non_ke} other={other}")
    return parsed


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        g = generate(args.family, *args.params)
    except (BadParamsError, UnknownNameError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(emit_graph6(g))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    violation = run_suite(
        args.scope, seed, log=lambda msg: print(msg, file=sys.stderr), cap=args.cap
    )
    if violation is None:
        print(f"verify {args.scope}: all checks passed", file=sys.stderr)
        return 0
    print(f"violation in {violation.check}: {violation.detail}", file=sys.stderr)
    if violation.graph is not None:
        print(emit_graph6(violation.graph))
    return 1


EXIT_OUTPUT_CLOSED = 141


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "batch": _cmd_batch,
        "gen": _cmd_gen,
        "verify": _cmd_verify,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Whoever read the output stopped reading. Point stdout at the null
        # device so the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OUTPUT_CLOSED
    return code


if __name__ == "__main__":
    sys.exit(main())
