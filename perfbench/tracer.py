"""In-memory spans around the calls into each layer of kegraph.

The traced run wraps the public names through which one layer calls the
next (for example ``kegraph.report.maximum_matching``), so every call made
while the CLI handles an op gets one span: name, start, end, parent span and
graph id. Private helpers are never wrapped, and the wrappers are removed
once the op returns. Spans are kept in a list in the serving process
(perfbench/server.py), handed to run.py when the run ends and written out
with the run's record.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import statistics
import time
from contextlib import contextmanager

# (module, attribute path, span name): the public names the CLI path calls
# through. The span name is "<layer module>.<function>".
WRAPPED = (
    ("kegraph.cli", "parse_graph6", "formats.parse_graph6"),
    ("kegraph.cli", "analyze_graph", "report.analyze_graph"),
    ("kegraph.cli", "csv_row", "report.csv_row"),
    ("kegraph.report", "AnalysisReport.to_json", "report.to_json"),
    ("kegraph.report", "maximum_matching", "matching.maximum_matching"),
    ("kegraph.report", "max_critical_independent_set", "critical.max_critical_independent_set"),
    ("kegraph.critical", "saturating_matching", "matching.saturating_matching"),
    ("kegraph.koenig", "certificate_from_parts", "koenig.certificate_from_parts"),
    ("kegraph.report", "alpha", "independence.alpha"),
    ("kegraph.report", "core", "independence.core"),
)

# Layer of each span name, for the self-time accounting; cli.main is the root.
LAYERS = ("cli", "formats", "report", "matching", "critical", "koenig", "independence")


@dataclasses.dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    gid: str | None
    start_ns: int
    end_ns: int = 0
    nbytes: int = 0  # input size, for parse spans

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class Tracer:
    """Collects spans; ``current_gid`` tags new spans with the graph in hand,
    and ``gid_of_text`` maps a graph6 record to the id of its graph."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.gid_of_text: dict[str, str] = {}
        self.current_gid: str | None = None

    @contextmanager
    def span(self, name: str, gid: str | None = None, nbytes: int = 0):
        s = Span(
            len(self.spans), name, self._stack[-1] if self._stack else None,
            gid if gid is not None else self.current_gid, 0, nbytes=nbytes,
        )
        self.spans.append(s)
        self._stack.append(s.sid)
        s.start_ns = time.perf_counter_ns()
        try:
            yield s
        finally:
            s.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nbytes = 0
            if name == "formats.parse_graph6":
                text = args[0]
                nbytes = len(text)
                tracer.current_gid = tracer.gid_of_text.get(
                    text.strip() if isinstance(text, str) else text, tracer.current_gid
                )
            with tracer.span(name, nbytes=nbytes):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED that exists; restore them on exit.

        Yields the names that were missing, so a run can report them.
        """
        saved, missing = [], []
        for module, path, name in WRAPPED:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if attr not in vars(owner):
                missing.append(f"{module}.{path}")
                continue
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        try:
            yield missing
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)



def children_ms(spans: list[Span]) -> list[float]:
    """Per span, the summed duration of its direct children."""
    out = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            out[s.parent] += s.ms
    return out


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], op_root: str = "cli.main") -> tuple[dict, dict]:
    """Per-function totals and p50s, and the self time of each layer.

    Returns (metrics, accounting). In the accounting, each layer's self time
    is summed over all spans under the op roots. cli.main's own self time is
    the remainder no layer span covers, so the layer self times add up to the
    op time by construction.
    """
    child = children_ms(spans)
    by_name: dict[str, list[float]] = {}
    self_by_name: dict[str, list[float]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s.ms)
        self_by_name.setdefault(s.name, []).append(s.ms - child[s.sid])

    in_op = [False] * len(spans)
    for s in spans:  # parents precede children in the list
        in_op[s.sid] = s.name == op_root if s.parent is None else in_op[s.parent]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        if in_op[s.sid]:
            layer_self[s.name.split(".", 1)[0]] += s.ms - child[s.sid]
    accounting = {
        "op_ms": sum(by_name.get(op_root, [])),
        "layer_self_ms": layer_self,
        "unaccounted_ms": layer_self["cli"],
    }

    metrics = {}
    for name, vals in by_name.items():
        if name == op_root:
            continue
        metrics[f"{name}.ms"] = sum(vals)
        metrics[f"{name}.p50_ms"] = _p50(vals)
        metrics[f"{name}.calls"] = len(vals)
    parse = [s for s in spans if s.name == "formats.parse_graph6"]
    parse_s = sum(s.ms for s in parse) / 1e3
    metrics["formats.parse_graph6.bytes_per_s"] = (
        sum(s.nbytes for s in parse) / parse_s if parse_s else 0.0
    )
    analyze_self = self_by_name.get("report.analyze_graph", [])
    metrics["report.analyze_graph.self_ms"] = sum(analyze_self)
    cli_self = self_by_name.get(op_root, [])
    metrics["cli.self_ms"] = sum(cli_self)
    metrics["cli.self_p50_ms"] = _p50(cli_self)
    return metrics, accounting
