"""``--trace 1``: per-layer metrics for one workload.

The run times a no-op command (start-up), then works in rounds until
``--seconds`` are used: each round makes one checked CLI pass of the
command sequence, one in-process replay of it through ``cli.main`` with
only the step-level spans of ``tracing.STEP_CALLS``, and then times
``infer`` on fresh loads of the workspace each infer step of that replay
started from, with all rules and with rule subsets, back to back. Every
whole-call time is the fastest over the rounds; these figures are not
gated, so they are not scaled to a reference host speed as the
end-to-end ones are. ``cli.overhead_s`` is the fastest CLI pass's wall
time minus the in-process time of the same commands: interpreter
start-up, imports and process costs. One replay with the counting
wrappers installed as well gives call counts, self times and spans; its
extra time over the fastest replay without them is the tracing overhead.

There are no per-rule hooks in the engine, so rule times come from those
rule-subset calls: ``engine.aff_s`` with no rules (R-AFF only),
``engine.sat_eff_s`` with the preconditions only minus ``aff_s``,
``engine.cau_s`` with the cause rules only minus ``aff_s``. As
differences of two timings, a rule time near zero can come out slightly
negative.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from pathlib import Path

import tracing
from geocausal.graph import RelationKind
from geocausal.query import render_explanation_text, why
from geocausal.engine import infer
from geocausal.rules import RuleSet, parse_rules
from geocausal.storage import loads_graph
from pipeline import run_cli, run_pipeline

STARTUP_SAMPLES = 5
IN_PROCESS_WHY_CALLS = 1200

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("engine.infer_s", "s"), ("engine.cau_s", "s"), ("engine.sat_eff_s", "s"),
    ("engine.aff_s", "s"), ("engine.derived", "count"), ("engine.iterations", "count"),
    ("engine.diagnostics", "count"),
    ("graph.region_of_calls", "count"), ("graph.match_calls", "count"),
    ("graph.entities_calls", "count"), ("graph.has_triple_calls", "count"),
    ("graph.add_triple_calls", "count"), ("graph.self_s", "s"), ("graph.validate_s", "s"),
    ("spatiotemporal.pair_checks", "count"), ("spatiotemporal.fired_ratio", "ratio"),
    ("rules.evaluate_calls", "count"), ("rules.evaluate_s", "s"), ("rules.parse_s", "s"),
    ("storage.loads_s", "s"), ("storage.dump_s", "s"), ("storage.records", "count"),
    ("storage.workspace_bytes", "bytes"),
    ("ingest.storm_s", "s"), ("ingest.obs_s", "s"), ("ingest.rows_per_s", "1/s"),
    ("ingest.rows_rejected", "count"),
    ("query.why_p50_ms", "ms"), ("query.why_p99_ms", "ms"), ("query.explain_calls", "count"),
    ("query.why_edges", "count"),
    ("export.json_s", "s"), ("export.dot_s", "s"), ("export.json_bytes", "bytes"),
    ("cli.startup_ms", "ms"), ("cli.overhead_s", "s"),
    ("trace.overhead_s", "s"),
    ("share.infer_cau", "ratio"), ("share.infer_sat_eff", "ratio"), ("share.infer_aff", "ratio"),
    ("share.pipeline_storage", "ratio"), ("share.pipeline_cli", "ratio"),
]


def _library_s(tracer: tracing.Tracer) -> float:
    return sum(stat[2] for name, stat in tracer.stats.items() if name.startswith("step."))


def _replay(inputs, steps, work: Path, tracer=None):
    workspace = work / "replay.graph"
    if workspace.exists():
        workspace.unlink()
    if inputs.base_workspace:
        shutil.copyfile(work / inputs.base_workspace, workspace)
    tracer = tracer or tracing.Tracer()
    return tracer, tracing.replay(steps, workspace, tracer)


def _infer_s(texts, ruleset) -> float:
    """Seconds of ``infer`` with ``ruleset`` over fresh loads of ``texts``."""
    total = 0.0
    for text in texts:
        loaded = loads_graph(text)
        start = time.perf_counter()
        infer(loaded, ruleset)
        total += time.perf_counter() - start
    return total


def _why_latencies(result, steps, calls: int) -> list[float]:
    targets = [s.target for s in steps if s.kind == "why"]
    latencies = []
    for i in range(calls):
        target = targets[i % len(targets)]
        start = time.perf_counter()
        explanation = why(result.graph, target, max_depth=10, rules=result.rules)
        render_explanation_text(explanation, result.graph)
        latencies.append((time.perf_counter() - start) * 1000)
    return latencies


def traced_run(args, inputs, steps, work, env, expected_lines, failures, attempted, out_dir):
    deadline = time.perf_counter() + args.seconds
    rules_file = work / inputs.rules_file

    startup = []
    for _ in range(STARTUP_SAMPLES):
        run = run_cli(["rules", "check", str(rules_file)], work, env)
        startup.append(run.wall * 1000)
        if run.code != 0:
            failures.append(f"rules check: exit {run.code}")
    attempted[0] += STARTUP_SAMPLES

    parsed = parse_rules(rules_file.read_text(encoding="utf-8"))
    rulesets = {
        "all": parsed,
        "aff": RuleSet(),
        "sat_eff": RuleSet(preconditions=parsed.preconditions),
        "cau": RuleSet(cause_rules=parsed.cause_rules),
    }
    rounds = []
    while True:
        start = time.perf_counter()
        workspace, runs = run_pipeline(inputs, steps, work, env, expected_lines, failures)
        attempted[0] += len(runs)
        tracer, last = _replay(inputs, steps, work)
        failures.extend(last.failures)
        attempted[0] += len(steps)
        subset_s = {name: _infer_s(last.infer_inputs, rs) for name, rs in rulesets.items()}
        rounds.append((sum(r.wall for _, r in runs), tracer, subset_s))
        now = time.perf_counter()
        # leave room for the wrapped replay, about twice an unwrapped one
        if now + (now - start) + 2 * _library_s(tracer) > deadline:
            break

    wrapped = tracing.Tracer()
    undo = tracing.install_wrappers(wrapped)
    try:
        _, traced = _replay(inputs, steps, work, tracer=wrapped)
    finally:
        tracing.remove_wrappers(undo)
    failures.extend(traced.failures)
    attempted[0] += len(steps)

    latencies = _why_latencies(last, steps, IN_PROCESS_WHY_CALLS)

    def fastest(fn):
        return min(fn(tracer, subset_s) for _, tracer, subset_s in rounds)

    cli_wall = min(wall for wall, _, _ in rounds)
    infer_s = fastest(lambda t, s: s["all"])
    aff_s = fastest(lambda t, s: s["aff"])
    sat_eff_s = fastest(lambda t, s: s["sat_eff"]) - aff_s
    cau_s = fastest(lambda t, s: s["cau"]) - aff_s
    library_s = fastest(lambda t, s: _library_s(t))
    loads_s = fastest(lambda t, s: t.total("storage.loads_graph"))
    dump_s = fastest(lambda t, s: t.total("storage.dump_graph"))
    storm_s = fastest(lambda t, s: t.total("ingest.ingest_storm_csv"))
    obs_s = fastest(lambda t, s: t.total("ingest.ingest_observations_csv"))
    fired = sum(1 for t in last.graph.triples()
                if t.is_derived and t.predicate in (RelationKind.CAUSES, RelationKind.EFFECTS))
    pair_checks = wrapped.pair_checks
    percentiles = statistics.quantiles(latencies, n=100)
    graph_stats = {name: stat for name, stat in wrapped.stats.items() if stat[0] == "graph"}

    values = {
        "engine.infer_s": infer_s,
        "engine.cau_s": cau_s,
        "engine.sat_eff_s": sat_eff_s,
        "engine.aff_s": aff_s,
        "engine.derived": last.derived,
        "engine.iterations": last.iterations,
        "engine.diagnostics": last.diagnostics,
        "graph.region_of_calls": wrapped.calls("graph.region_of"),
        "graph.match_calls": wrapped.calls("graph.match"),
        "graph.entities_calls": wrapped.calls("graph.entities"),
        "graph.has_triple_calls": wrapped.calls("graph.has_triple"),
        "graph.add_triple_calls": wrapped.calls("graph.add_triple"),
        "graph.self_s": sum(stat[3] for stat in graph_stats.values()),
        "graph.validate_s": wrapped.total("graph.validate"),
        "spatiotemporal.pair_checks": pair_checks,
        "spatiotemporal.fired_ratio": fired / pair_checks if pair_checks else 0.0,
        "rules.evaluate_calls": wrapped.calls("rules.evaluate"),
        "rules.evaluate_s": wrapped.total("rules.evaluate"),
        "rules.parse_s": fastest(lambda t, s: t.total("rules.parse_rules")),
        "storage.loads_s": loads_s,
        "storage.dump_s": dump_s,
        "storage.records": last.records,
        "storage.workspace_bytes": last.workspace_bytes,
        "ingest.storm_s": storm_s,
        "ingest.obs_s": obs_s,
        "ingest.rows_per_s": last.rows_read / (storm_s + obs_s),
        "ingest.rows_rejected": last.rows_rejected,
        "query.why_p50_ms": statistics.median(latencies),
        "query.why_p99_ms": percentiles[98],
        "query.explain_calls": wrapped.calls("engine.explain"),
        "query.why_edges": traced.why_edges,
        "export.json_s": fastest(lambda t, s: t.total("export.graph_to_json")),
        "export.dot_s": fastest(lambda t, s: t.total("export.graph_to_dot")),
        "export.json_bytes": last.json_bytes,
        "cli.startup_ms": statistics.median(startup),
        "cli.overhead_s": cli_wall - library_s,
        "trace.overhead_s": _library_s(wrapped) - library_s,
        "share.infer_cau": cau_s / infer_s,
        "share.infer_sat_eff": sat_eff_s / infer_s,
        "share.infer_aff": aff_s / infer_s,
        "share.pipeline_storage": (loads_s + dump_s) / cli_wall,
        "share.pipeline_cli": (cli_wall - library_s) / cli_wall,
    }

    spans_path = out_dir / f"spans-{inputs.workload}-{inputs.seed}.json"
    spans_path.write_text(json.dumps({
        "workload": inputs.workload,
        "seed": inputs.seed,
        "spans": [dict(zip(("name", "layer", "start", "end", "parent"), s)) for s in wrapped.spans],
        "functions": {name: dict(zip(("layer", "calls", "inclusive_s", "self_s"), stat))
                      for name, stat in sorted(wrapped.stats.items())},
        "pair_checks": pair_checks,
    }, indent=1) + "\n")

    print(f"{len(rounds)} round(s) of CLI pass and unwrapped replays; spans in {spans_path}")
    print(f"{'layer':<16} {'calls':>10} {'self_s':>10}   (wrapped replay)")
    for layer, (calls, self_s) in wrapped.layer_table().items():
        print(f"{layer:<16} {calls:>10} {self_s:>10.4f}")
    print(f"{'cli process':<16} {len(runs):>10} {values['cli.overhead_s']:>10.4f}   (CLI wall - library time)")
    print(f"tracing overhead: {values['trace.overhead_s']:.4f} s over {library_s:.4f} s of library time")
    print(f"layer shares: infer = cau {values['share.infer_cau']:.3f} + sat_eff "
          f"{values['share.infer_sat_eff']:.3f} + aff {values['share.infer_aff']:.3f}; "
          f"pipeline: storage {values['share.pipeline_storage']:.3f}, cli {values['share.pipeline_cli']:.3f}")
    return {name: (values[name], unit) for name, unit in PER_LAYER}, workspace, runs
