"""kegraph benchmark: seeded CLI workloads, checked outputs, and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze-exact --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: the next `kegraph` CLI op
starts when the previous one returns. Ops run through `kegraph.cli.main(argv)`
in one long-lived serving process (perfbench/server.py) that imports only
kegraph; `batch --jobs 2` forks its pool from there. This process generates
the inputs (perfbench/workloads.py) before any op is timed and checks every
op's output (perfbench/checker.py) while the serving process waits. Time only
counts while an op runs. A run stops once that time reaches --seconds and
the current cycle of input specs is complete, so every run holds the same
mix of input sizes and kinds. The run exits with code 1 if any output fails
its check.

Each vCPU of the reference machine flips between a fast and a slow state
many times a second, so the work is pinned to known CPUs, a sampler
process on each of them times a short kernel every 25 ms, and every op's
and cold start's wall time is scaled by the kernel times measured around
it to a reference host speed (perfbench/hostspeed.py). The time metrics
are those scaled times, in seconds and milliseconds of the reference host
(units s, ms and 1/s); the unscaled figures are printed and written beside
them.

--trace 0 prints the end-to-end metrics. --trace 1 runs a share of the same
ops both untraced and with a span around every call into a layer
(perfbench/tracer.py), and prints the per-layer metrics and the tracing
overhead. The last stdout line is one JSON object; a fuller record, spans
included, goes to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 8  # cold starts in each of the two blocks, before and after the loop
SPAN_SLACK_MS = 1.0  # the cli.main span may start and end this much inside the timed call

sys.path.insert(0, HERE)
import checker  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class ServerError(RuntimeError):
    pass


@dataclass
class Record:
    op: workloads.Op
    rc: object
    start: float  # time.monotonic() when the op started
    ms: float  # wall time
    problems: list
    facts: dict


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def measure_setup(cpu: int) -> tuple[list[float], list[float]]:
    """Seconds from a fresh interpreter to the return of `gen empty 1`, as
    measured and as scaled to the reference host speed, with the starts and
    a host-speed sampler on *cpu*."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", "kegraph", "gen", "empty", "1"]
    starts = []
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})  # the starts inherit it
    try:
        with hostspeed.Samplers([cpu]) as host:
            for i in range(SETUP_REPEATS + 1):
                t0 = time.monotonic()
                proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True)
                dt = time.monotonic() - t0
                if proc.returncode != 0 or proc.stdout != "@\n":
                    _fail(f"`kegraph gen empty 1` failed: rc={proc.returncode} {proc.stderr[-300:]}")
                if i:  # the first start also writes the bytecode cache
                    starts.append((t0, dt))
    finally:
        os.sched_setaffinity(0, mask)
    return [dt for _, dt in starts], [dt * host.factor(t0, t0 + dt) for t0, dt in starts]


class Server:
    """The serving process (perfbench/server.py) and the pipes to it."""

    def __init__(self, cpus: list[int], trace: bool):
        argv = [sys.executable, os.path.join(HERE, "server.py"), "--cpus", ",".join(map(str, cpus))]
        if trace:
            argv.append("--trace")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def ask(self, **request) -> dict:
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # the reply read below reports the exit
        line = self.proc.stdout.readline()
        if not line:
            raise ServerError(f"the serving process exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident size of process *pid* in kB, or 0 once it has ended."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry))
    return out


class PeakRss:
    """Peak resident memory of the serving process plus its pool workers.

    A thread sums the VmHWM (each process's own peak resident size) of the
    serving process and its live children every 100 ms and keeps the
    largest sum. VmHWM only grows, so a worker's peak counts as long as the
    worker is sampled once before it ends; batch workers live for a whole
    batch op, about 300 ms. A scan of /proc for the children takes about
    1.5 ms, so the thread runs only when the serving process has children.
    """

    def __init__(self, pid: int, with_children: bool):
        self.pid = pid
        self.with_children = with_children
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        kb = _vm_hwm_kb(self.pid)
        if self.with_children:
            kb += sum(_vm_hwm_kb(c) for c in _children(self.pid))
        self.peak_kb = max(self.peak_kb, kb)

    def _run(self) -> None:
        while not self._stop.wait(0.1):
            self.sample()

    def __enter__(self):
        if self.with_children:
            self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        if self.with_children:
            self._thread.join()
        self.sample()


class Runner:
    """Sends ops to the serving process and checks each output as it arrives."""

    def __init__(self, workload: workloads.Workload, server: Server):
        self.workload = workload
        self.server = server
        self.refs: dict[str, checker.Reference] = {}

    def _refs(self, op: workloads.Op):
        for g in op.graphs:
            if g.gid not in self.refs:
                self.refs[g.gid] = checker.reference(g.adj)
        return [self.refs[g.gid] for g in op.graphs]

    def call(self, op: workloads.Op, argv=None, trace: bool = False) -> dict:
        request = {"cmd": "op", "argv": list(argv or op.argv)}
        if trace:
            request.update(trace=True, oid=op.oid, gids={g.text: g.gid for g in op.graphs})
        return self.server.ask(**request)

    def check(self, op: workloads.Op, reply: dict) -> tuple[list, dict]:
        rc, stdout, stderr = reply["rc"], reply["stdout"], reply["stderr"]
        if rc != op.expected_rc:
            return [f"exit code {rc!r}, expected {op.expected_rc}: {stderr[-300:]}"], {}
        refs = self._refs(op)
        if self.workload.batch:
            return checker.check_batch(op.graphs, refs, stdout, stderr)
        g = op.graphs[0]
        return checker.check_report(
            g.adj, refs[0], stdout, os.path.basename(op.argv[1]), self.workload.exact
        )

    def record(self, op: workloads.Op, reply: dict) -> Record:
        problems, facts = self.check(op, reply)
        return Record(op, reply["rc"], reply["start"], reply["ms"], problems, facts)

    def loop(self, seconds: float) -> list[Record]:
        """Closed loop over the workload's ops until *seconds* of op time,
        ending on a whole spec cycle so every run holds the same mix."""
        records, busy, i = [], 0.0, 0
        ops = self.workload.ops
        while busy < seconds * 1e3 or i % self.workload.cycle:
            op = ops[i % len(ops)]
            records.append(self.record(op, self.call(op)))
            busy += records[-1].ms
            i += 1
        return records


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile q (0..100) of *values*."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def descriptors(wl: workloads.Workload, records: list[Record]) -> dict:
    """Input properties of the ops run, so a later change can cite their share."""
    graphs = [g for r in records for g in r.op.graphs]
    ns = [g.n for g in graphs]
    ms = [g.m for g in graphs]
    if wl.batch:
        ke = sum(r.facts.get("ke", 0) for r in records)
        gated = 0
    else:
        ke = sum(bool(r.facts.get("is_ke")) for r in records)
        gated = sum(bool(r.facts.get("gated")) for r in records)
    return {
        "ops": len(records),
        "graphs": len(graphs),
        "distinct_graphs": len({g.gid for g in graphs}),
        "n_mean": statistics.mean(ns), "n_max": max(ns),
        "m_mean": statistics.mean(ms), "m_max": max(ms),
        "input_bytes": sum(len(g.text) + 1 for g in graphs),
        "bipartite_share": sum(g.kind == "bip" for g in graphs) / len(graphs),
        "ke_share": ke / len(graphs),
        "gated_share": gated / len(graphs),
    }


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def time_metrics(wl: workloads.Workload, records: list[Record], lat: list[float], setup_s: float):
    """The time metrics from the per-op times *lat* (ms) of *records*."""
    return {
        "setup_s": setup_s,
        "graphs_per_s": sum(len(r.op.graphs) for r in records) / (sum(lat) / 1e3),
        "latency_ms.p50": statistics.median(lat),
        "latency_ms.tail": percentile(lat, wl.tail_percentile),
    }


def end_to_end(wl, records: list[Record], lat: list[float], setup_s: float, peak_kb: int):
    """The end-to-end metrics and the sample counts behind them, from the
    scaled op times *lat* and the scaled setup time."""
    times = time_metrics(wl, records, lat, setup_s)
    failed = sum(1 for r in records if r.problems)
    metrics = {
        "setup_s": (times["setup_s"], "s"),
        "graphs_per_s": (times["graphs_per_s"], "1/s"),
        "latency_ms.p50": (times["latency_ms.p50"], "ms"),
        "latency_ms.tail": (times["latency_ms.tail"], "ms"),
        "ops_ok_ratio": (1.0 - failed / len(records), "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    samples = {
        "ops": len(records),
        "tail_percentile": wl.tail_percentile,
        "samples_beyond_tail": sum(1 for x in lat if x > times["latency_ms.tail"]),
    }
    return metrics, samples


def work_cpus(batch: bool) -> list[int]:
    """CPUs the serving process runs on: one for single-graph ops, one per
    pool worker for batch ops."""
    avail = sorted(os.sched_getaffinity(0))
    return avail[-workloads.BATCH_JOBS:] if batch else avail[-1:]


PER_LAYER = (
    ("formats.parse_graph6.ms", "ms"), ("formats.parse_graph6.p50_ms", "ms"),
    ("formats.parse_graph6.bytes_per_s", "B/s"),
    ("formats.emit_graph6.ms", "ms"), ("formats.emit_graph6.p50_ms", "ms"),
    ("matching.maximum_matching.ms", "ms"), ("matching.maximum_matching.p50_ms", "ms"),
    ("matching.saturating_matching.ms", "ms"), ("matching.saturating_matching.p50_ms", "ms"),
    ("critical.critical_difference.ms", "ms"), ("critical.critical_difference.p50_ms", "ms"),
    ("critical.max_critical_independent_set.ms", "ms"),
    ("critical.max_critical_independent_set.p50_ms", "ms"),
    ("independence.alpha_value.ms", "ms"), ("independence.alpha_value.p50_ms", "ms"),
    ("independence.alpha.ms", "ms"), ("independence.alpha.p50_ms", "ms"),
    ("independence.core.ms", "ms"), ("independence.core.p50_ms", "ms"),
    ("koenig.certificate_from_parts.ms", "ms"), ("koenig.certificate_from_parts.p50_ms", "ms"),
    ("report.analyze_graph.ms", "ms"), ("report.analyze_graph.p50_ms", "ms"),
    ("report.analyze_graph.self_ms", "ms"),
    ("report.to_json.ms", "ms"), ("report.to_json.p50_ms", "ms"),
    ("report.csv_row.ms", "ms"), ("report.csv_row.p50_ms", "ms"),
    ("cli.self_ms", "ms"), ("cli.self_p50_ms", "ms"),
    ("cli.batch.parallel_efficiency", "ratio"),
    ("trace.op_ms", "ms"), ("trace.overhead_ratio", "ratio"),
)


def traced_run(runner: Runner, seconds: float):
    """A short untraced loop picks the ops; each is then run untraced and
    traced in turn; off-path layer calls are replayed on the same graphs.

    Batch ops are traced with --jobs 1 so that every span is in the serving
    process; their untraced --jobs 1 runs give both the tracing baseline and
    the single-process work for parallel efficiency.
    """
    wl = runner.workload
    # Batch ops run twice more at --jobs 1, which takes about twice as long.
    base = runner.loop(seconds / 5 if wl.batch else seconds / 3)
    ops = [r.op for r in base]

    def single(op):
        argv = list(op.argv)
        if wl.batch:
            argv[argv.index("--jobs") + 1] = "1"
        return argv

    # Each op runs once untraced and once traced, alternating which goes
    # first, so drift over the run does not bias the overhead.
    untraced, traced, problems = [], [], []
    for i, op in enumerate(ops):
        for side in ((False, True) if i % 2 == 0 else (True, False)):
            reply = runner.call(op, single(op), trace=side)
            (traced if side else untraced).append(runner.record(op, reply))
            if side and not 0.0 <= reply["ms"] - reply["span_ms"] <= SPAN_SLACK_MS:
                problems.append(
                    f"{op.oid}: cli.main span {reply['span_ms']:.3f} ms "
                    f"does not match the timed call, {reply['ms']:.3f} ms"
                )

    # Off the op path, on the same graphs: encode, d alone, and the alpha
    # value alone.
    alpha_of = {r.op.graphs[0].gid: r.facts.get("alpha") for r in base if not wl.batch}
    seen = set()
    for op in ops:
        for g6 in op.graphs:
            if g6.gid in seen:
                continue
            seen.add(g6.gid)
            reply = runner.server.ask(cmd="offpath", gid=g6.gid, adj=list(g6.adj), exact=wl.exact)
            if reply["text"] != g6.text or reply["d"] != runner.refs[g6.gid].d:
                problems.append(f"{g6.gid}: emit_graph6 or critical_difference disagrees")
            if wl.exact and reply["alpha"] != alpha_of[g6.gid]:
                problems.append(f"{g6.gid}: alpha value disagrees with the report")

    dump = runner.server.ask(cmd="spans")
    spans = [tracing.Span(**d) for d in dump["spans"]]
    metrics, accounting = tracing.layer_metrics(spans)
    untraced_ms = sum(r.ms for r in untraced)
    metrics["trace.op_ms"] = accounting["op_ms"]
    metrics["trace.overhead_ratio"] = sum(r.ms for r in traced) / untraced_ms - 1.0
    metrics["cli.batch.parallel_efficiency"] = (
        untraced_ms / (workloads.BATCH_JOBS * sum(r.ms for r in base)) if wl.batch else 0.0
    )
    extra = {
        "accounting": accounting,
        "unwrapped_names": dump["missing"],
        "untraced_ms": untraced_ms,
        "calls": {k[:-6]: v for k, v in metrics.items() if k.endswith(".calls")},
        "spans": dump["spans"],
    }
    out = {name: (metrics.get(name, 0.0), unit) for name, unit in PER_LAYER}
    return out, base, base + untraced + traced, problems, extra


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "kegraph", "__init__.py")):
        _fail(f"no kegraph sources under {SRC}; run from the root of a checkout")
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    extra, wall, setup, lat = {}, {}, {}, []
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        cpus = work_cpus(wl.batch)
        if not args.trace:
            starts, scaled = measure_setup(cpus[-1])
            setup = {"starts_s": starts, "scaled_s": scaled}
        with Server(cpus, bool(args.trace)) as server:
            runner = Runner(wl, server)
            if args.trace:
                metrics, measured, records, off_problems, extra = traced_run(runner, args.seconds)
                samples = {"ops_traced": len(measured)}
            else:
                with PeakRss(server.proc.pid, with_children=wl.batch) as rss:
                    with hostspeed.Samplers(cpus) as host:
                        records = measured = runner.loop(args.seconds)
                # A second block of cold starts, --seconds after the first: the
                # host's speed drifts over a run in ways the scaling misses.
                late_starts, late_scaled = measure_setup(cpus[-1])
                starts += late_starts
                scaled += late_scaled
                lat = [r.ms * host.factor(r.start, r.start + r.ms / 1e3) for r in records]
                metrics, samples = end_to_end(
                    wl, records, lat, statistics.median(scaled), rss.peak_kb
                )
                wall = time_metrics(wl, records, [r.ms for r in records], statistics.median(starts))
                wall["host_speed"] = statistics.median(x / r.ms for x, r in zip(lat, records))
                off_problems = []
    except ServerError as exc:
        _fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r.problems]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
        "samples": samples,
        "cpus": cpus,
        "setup": setup,
    }
    result = {
        "correct": not failed and not off_problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = {
        "meta": meta,
        "descriptors": descriptors(wl, measured),
        "wall": wall,
        "result": result,
        "problems": [f"{r.op.oid}: {p}" for r in failed for p in r.problems][:50] + off_problems,
        "op_ms": [[r.op.oid, r.start, r.ms] for r in records],
        "op_ref_ms": lat,
        **extra,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.4f} {unit}")
    for key, value in {**full["descriptors"], **samples}.items():
        print(f"# {key} = {value}")
    for key, value in wall.items():
        print(f"# wall {key} = {value:.4f}")
    for p in full["problems"][:10]:
        print(f"# problem: {p}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
