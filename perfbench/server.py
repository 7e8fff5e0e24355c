"""Serving process of the benchmark: runs the kegraph CLI ops that run.py sends.

run.py starts one per run as ``python3 perfbench/server.py --cpus 1
[--trace]``; the process, and the pool workers it forks, run on the listed
CPUs only. It imports kegraph and the standard library only (and the tracer
when started with --trace), so its memory is the program's and not the
harness's. It reads one JSON request a line on stdin and writes one JSON
reply a line on stdout:

- ``{"cmd": "op", "argv": [...]}`` runs ``kegraph.cli.main(argv)`` with
  stdout and stderr captured. The reply holds the exit code (or the
  exception that escaped), when it started (``time.monotonic()``), its wall
  time in ms, and the output.
  With ``"trace": true`` the call runs with a span around it and around
  every layer call (perfbench/tracer.py); ``"oid"`` names the op and
  ``"gids"`` maps each graph6 record of the op to its graph id.
- ``{"cmd": "offpath", "gid": ..., "adj": [...], "exact": bool}`` times,
  each under its own span, the layer calls the CLI path does not make on
  their own: ``emit_graph6``, ``critical_difference`` and the alpha value.
- ``{"cmd": "spans"}`` returns every span recorded so far.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _timed(call, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = call(argv)
    except SystemExit as exc:
        rc = f"SystemExit({exc.code})"
    except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
        rc = repr(exc)[:300]
    ms = (time.perf_counter() - t0) * 1e3
    return {"rc": rc, "start": start, "ms": ms, "stdout": out.getvalue(), "stderr": err.getvalue()}


class Server:
    """The request handlers; *tracer* is None unless started with --trace."""

    def __init__(self, cli_main, tracer=None):
        self.main = cli_main
        self.tracer = tracer
        self.missing: list[str] = []

    def op(self, req: dict) -> dict:
        t = self.tracer if req.get("trace") else None
        if t is None:
            return _timed(self.main, req["argv"])
        t.gid_of_text = req["gids"]
        root = []

        def call(argv):
            with t.span("cli.main", gid=req["oid"]) as span:
                root.append(span)
                return self.main(argv)

        with t.installed() as self.missing:
            reply = _timed(call, req["argv"])
        reply["span_ms"] = root[0].ms
        return reply

    def offpath(self, req: dict) -> dict:
        from kegraph.critical import critical_difference
        from kegraph.formats import emit_graph6
        from kegraph.graph import Graph
        from kegraph.independence import enumerate_maximum_independent_sets

        t = self.tracer
        g = Graph.from_adjacency(req["adj"])
        t.current_gid = req["gid"]
        with t.span("formats.emit_graph6"):
            text = emit_graph6(g)
        with t.span("critical.critical_difference"):
            d = critical_difference(g)
        alpha = None
        if req["exact"]:
            # Building the stream computes alpha without enumerating a set.
            with t.span("independence.alpha_value"):
                alpha = enumerate_maximum_independent_sets(g, limit=None).alpha
        return {"text": text, "d": d, "alpha": alpha}

    def spans(self, _req: dict) -> dict:
        return {"spans": [s.as_dict() for s in self.tracer.spans], "missing": self.missing}


def serve(cpus: list[int], trace: bool) -> int:
    os.sched_setaffinity(0, cpus)
    sys.path.insert(0, SRC)
    import kegraph.cli

    where = os.path.dirname(os.path.dirname(os.path.abspath(kegraph.__file__)))
    if where != SRC:
        print(f"perfbench server: imported kegraph from {where}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    server = Server(kegraph.cli.main, tracer)
    handlers = {"op": server.op, "offpath": server.offpath, "spans": server.spans}
    reply_to = sys.stdout
    for line in sys.stdin:
        req = json.loads(line)
        reply_to.write(json.dumps(handlers[req["cmd"]](req)) + "\n")
        reply_to.flush()
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="kegraph benchmark serving process")
    ap.add_argument("--cpus", required=True, help="comma-separated CPU numbers")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    sys.exit(serve([int(c) for c in args.cpus.split(",")], args.trace))
