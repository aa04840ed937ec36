"""In-process replay of a workload's CLI steps, with spans and call counts.

``replay`` runs each CLI step as ``geocausal.cli.main(argv)`` in this
process, inside a span, with the command's output captured. Two sets of
wrappers time what the command does:

* ``STEP_CALLS``, the library functions a CLI command calls for its step
  (workspace load and dump, rule parsing, ingest, ``infer``, ``why``, the
  exports). Each call is kept as a span, and its return value is kept for
  the replay's counts. ``replay`` installs these itself.
* ``WRAPPED``, the public functions that ``engine`` and ``query`` call into
  (graph methods, the spatio-temporal predicates, rule evaluation and
  lookup, ``engine.explain``). ``install_wrappers(tracer)`` adds them.
  They are too many to keep one by one (hundreds of thousands per
  ``infer`` on the default storm workload); each wrapped function instead
  accumulates its call count, inclusive time and self time.

Both replace a function under every name the package binds it to.
"""

from __future__ import annotations

import importlib
import io
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from geocausal import cli, engine, export, graph, ingest, rules, spatiotemporal, storage

# The module: the package binds the name ``query`` to the function.
query = importlib.import_module("geocausal.query")

#: (owner, attribute, layer) of each library call a CLI step makes.
STEP_CALLS = [
    (storage, "loads_graph", "storage"),
    (storage, "dump_graph", "storage"),
    (rules, "parse_rules", "rules"),
    (ingest, "ingest_storm_csv", "ingest"),
    (ingest, "ingest_observations_csv", "ingest"),
    (engine, "infer", "engine"),
    (query, "why", "query"),
    (query, "render_explanation_text", "query"),
    (export, "graph_to_json", "export"),
    (export, "graph_to_dot", "export"),
]

#: (owner, attribute, layer) of every function the counting wrappers time.
WRAPPED = [
    *((graph.KnowledgeGraph, name, "graph") for name in (
        "entity", "entities", "has_triple", "add_triple", "triple", "triples", "match",
        "region_of", "validate",
    )),
    *((spatiotemporal, name, "spatiotemporal") for name in (
        "co_occurs", "precedes", "gap_between", "spatial_overlap",
    )),
    (rules, "evaluate", "rules"),
    (rules.RuleSet, "precondition", "rules"),
    (engine, "explain", "engine"),
]


class Tracer:
    """Spans (name, layer, start, end, parent) plus per-function totals.

    Self time is a frame's duration minus the time of the frames nested
    directly inside it.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [layer, calls, inclusive_s, self_s]
        self.pair_checks = 0
        self.returned: dict[str, object] = {}  # span name -> last value returned
        self._stack: list[list] = []  # [layer, child_s, span index or None]

    def _close(self, name: str, layer: str, frame: list, elapsed: float) -> None:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [layer, 0, 0.0, 0.0]
        stat[1] += 1
        stat[2] += elapsed
        stat[3] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    @contextmanager
    def span(self, name: str, layer: str):
        parent = next((f[2] for f in reversed(self._stack) if f[2] is not None), None)
        index = len(self.spans)
        self.spans.append(None)
        frame = [layer, 0.0, index]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, layer, start - self.origin, end - self.origin, parent)
            self._close(name, layer, frame, end - start)

    def wrap(self, name: str, layer: str, fn, keep: bool = False):
        """``fn`` timed under ``name``; with ``keep``, each call is a span
        and its return value is kept in ``returned``."""
        if keep:
            def spanned(*args, **kwargs):
                with self.span(name, layer):
                    value = fn(*args, **kwargs)
                self.returned[name] = value
                return value

            spanned.__wrapped__ = fn
            return spanned

        stack = self._stack
        close = self._close
        perf = time.perf_counter
        pair_check = layer == "spatiotemporal"

        def wrapper(*args, **kwargs):
            if pair_check and not (stack and stack[-1][0] == "spatiotemporal"):
                self.pair_checks += 1
            frame = [layer, 0.0, None]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                close(name, layer, frame, elapsed)

        wrapper.__wrapped__ = fn
        return wrapper

    def total(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat[2] if stat else 0.0

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat[1] if stat else 0

    def layer_table(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self seconds), over every span and wrapper."""
        table: dict[str, list] = {}
        for layer, calls, _, self_s in self.stats.values():
            row = table.setdefault(layer, [0, 0.0])
            row[0] += calls
            row[1] += self_s
        return {layer: (row[0], row[1]) for layer, row in sorted(table.items())}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "geocausal" or name.startswith("geocausal."))]


def install_wrappers(tracer: Tracer, functions=WRAPPED, keep: bool = False):
    """Wrap every function in ``functions`` under every name the package
    binds it to; returns the undo list for ``remove_wrappers``."""
    undo = []
    modules = _package_modules()
    for owner, attr, layer in functions:
        original = getattr(owner, attr)
        wrapper = tracer.wrap(f"{layer}.{attr}", layer, original, keep)
        targets = [owner] if isinstance(owner, type) else modules
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is original:
                    setattr(target, name, wrapper)
                    undo.append((target, name, original))
    originals = {id(original) for _, _, original in undo}
    for module in modules:
        for name, value in vars(module).items():
            if id(value) in originals:
                remove_wrappers(undo)
                raise RuntimeError(f"{module.__name__}.{name} escaped the wrappers")
    return undo


def remove_wrappers(undo) -> None:
    for target, name, original in reversed(undo):
        setattr(target, name, original)


# --------------------------------------------------------------------------
# Replay
# --------------------------------------------------------------------------


@dataclass
class ReplayResult:
    """Counts summed over a replay's steps, and its final graph and rules."""

    derived: int = 0
    iterations: int = 0
    diagnostics: int = 0
    rows_read: int = 0
    rows_rejected: int = 0
    why_edges: int = 0
    json_bytes: int = 0
    workspace_bytes: int = 0
    records: int = 0
    graph: object = None
    rules: object = None
    infer_inputs: list = field(default_factory=list)  # workspace text before each infer
    failures: list = field(default_factory=list)


def replay(steps, workspace: Path, tracer: Tracer) -> ReplayResult:
    """Run ``steps`` in-process against ``workspace`` through ``cli.main``."""
    result = ReplayResult()
    undo = install_wrappers(tracer, STEP_CALLS, keep=True)
    try:
        for step in steps:
            if step.kind == "infer":
                result.infer_inputs.append(
                    workspace.read_text(encoding="utf-8") if workspace.exists() else "")
            tracer.returned.clear()
            out, err = io.StringIO(), io.StringIO()
            with tracer.span(f"step.{step.kind}", "cli"), redirect_stdout(out), redirect_stderr(err):
                code = cli.main(step.argv(workspace))
            if code != 0:
                result.failures.append(f"replay {step.kind}: exit {code}: {err.getvalue().strip()[-300:]}")
                continue
            returned = tracer.returned
            result.graph = returned.get("storage.loads_graph", result.graph)
            result.rules = returned.get("rules.parse_rules", result.rules)
            if step.kind == "ingest":
                report = returned["ingest.ingest_storm_csv" if step.sub == "storm"
                                  else "ingest.ingest_observations_csv"]
                result.rows_read += report.rows_read
                result.rows_rejected += len(report.errors)
            elif step.kind == "infer":
                inferred = returned["engine.infer"]
                result.derived += len(inferred.derived)
                result.iterations += inferred.iterations
                result.diagnostics += len(inferred.diagnostics)
            elif step.kind == "why":
                result.why_edges += len(returned["query.why"].edges)
            elif step.kind == "export" and step.fmt == "json":
                result.json_bytes += len(returned["export.graph_to_json"].encode("utf-8"))
    finally:
        remove_wrappers(undo)
    if workspace.exists():
        data = workspace.read_bytes()
        result.workspace_bytes = len(data)
        result.records = sum(1 for line in data.splitlines() if line and not line.startswith(b"#"))
    return result
