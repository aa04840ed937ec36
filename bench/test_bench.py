"""Checks of the benchmark itself (run: python -m pytest bench/test_bench.py).

Each workload generator runs at a small scale on several seeds through
the benchmark's own command sequence, in-process via ``geocausal.cli.main``.
The closure the benchmark expects must equal the brute-force closure
oracle of the test suite, and every command must pass the benchmark's
output checks, so the check is sound for seeds with no recorded reference.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]

from closure import Closure  # noqa: E402
from generate import WORKLOADS, generate  # noqa: E402
from geocausal.cli import main  # noqa: E402
from geocausal.engine import EngineConfig  # noqa: E402
from geocausal.graph import KnowledgeGraph  # noqa: E402
from geocausal.ingest import ingest_observations_csv, ingest_storm_csv  # noqa: E402
from geocausal.rules import parse_rules  # noqa: E402
from geocausal.storage import loads_graph  # noqa: E402
from pipeline import (  # noqa: E402
    DERIVED_PREDICATES, CliRun, Step, build_steps, check_step, closures_for,
)
from support import brute_force_closure  # noqa: E402
import tracing  # noqa: E402

SMALL = {"storm-causal": 40, "dam-effects": 30, "append-reinfer": 36}
SEEDS = tuple(range(1, 9))


def cli(argv) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return CliRun(code, out.getvalue(), err.getvalue(), 0.0, 0.0, 0.0)


def pre_inference_graph(inputs, directory: Path) -> KnowledgeGraph:
    graph = KnowledgeGraph()
    if inputs.base_workspace:
        graph = loads_graph((directory / inputs.base_workspace).read_text(encoding="utf-8"))
    for names in inputs.batches:
        for name in names:
            ingest = ingest_observations_csv if name.startswith("observations") else ingest_storm_csv
            ingest(graph, directory / name)
    return graph


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_expected_closure_matches_oracle_and_cli(workload, seed, tmp_path):
    inputs = generate(workload, seed, SMALL[workload])
    assert len(inputs.events) <= 40
    inputs.write(tmp_path)
    closures = closures_for(inputs)
    expected = closures[-1]

    graph = pre_inference_graph(inputs, tmp_path)
    rules = parse_rules((tmp_path / inputs.rules_file).read_text(encoding="utf-8"))
    assert set(expected.derived) == {
        (s, p.value, o) for s, p, o in brute_force_closure(graph, rules, EngineConfig())
    }

    workspace = tmp_path / "workspace.graph"
    if inputs.base_workspace:
        workspace.write_bytes(inputs.files[inputs.base_workspace])
    for step in build_steps(inputs, closures, tmp_path):
        run = cli(step.argv(workspace))
        assert check_step(step, run, expected.lines()) is None, step.argv(workspace)

    got = []
    for predicate in DERIVED_PREDICATES:
        for line in cli(["query", f"? {predicate} ?", "--workspace", str(workspace)]).out.splitlines():
            triple, rule = line.split(" [derived rule=")
            got.append(f"{triple} {rule.rstrip(']')}")
    assert sorted(got) == expected.lines()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert generate(workload, 7, SMALL[workload]).digest() == generate(workload, 7, SMALL[workload]).digest()
    assert generate(workload, 7, SMALL[workload]).digest() != generate(workload, 8, SMALL[workload]).digest()


def test_checks_reject_wrong_output():
    inputs = generate("dam-effects", 1, SMALL["dam-effects"])
    expected = Closure(inputs)
    lines = expected.lines()
    assert lines, "the small dam workload derives nothing"
    s, p, o, rule = lines[0].split()
    json_doc = ('{"triples": [{"subject": "%s", "predicate": "%s", "object": "%s", '
                '"provenance": "derived", "rule": "%s"}]}' % (s, p, o, rule))
    export = Step("export", fmt="json")
    assert check_step(export, CliRun(0, json_doc, "", 0, 0, 0), lines[:1]) is None
    assert check_step(export, CliRun(0, json_doc, "", 0, 0, 0), lines[:2]) is not None
    infer = Step("infer", expect_derived=len(lines), expect_skips=len(expected.diagnostics))
    assert check_step(infer, CliRun(0, f"derived {len(lines) - 1} triple(s)\n", "", 0, 0, 0), lines)
    assert check_step(infer, CliRun(1, "", "error[x]: boom", 0, 0, 0), lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_replay_counts_match_expected_closure(workload, tmp_path):
    inputs = generate(workload, 3, SMALL[workload])
    inputs.write(tmp_path)
    closures = closures_for(inputs)
    steps = build_steps(inputs, closures, tmp_path)
    workspace = tmp_path / "replay.graph"
    if inputs.base_workspace:
        workspace.write_bytes(inputs.files[inputs.base_workspace])
    tracer = tracing.Tracer()
    undo = tracing.install_wrappers(tracer)
    try:
        result = tracing.replay(steps, workspace, tracer)
    finally:
        tracing.remove_wrappers(undo)
    assert result.failures == []
    assert result.derived == len(closures[-1].derived)
    assert len(result.infer_inputs) == len(inputs.batches)
    assert tracer.calls("engine.infer") == len(inputs.batches)
    # every command loads the workspace, except a first ingest into none
    assert tracer.calls("storage.loads_graph") == len(steps) - (inputs.base_workspace is None)
    assert tracer.calls("graph.add_triple") > 0
    step_spans = [s for s in tracer.spans if s[0].startswith("step.")]
    assert len(step_spans) == len(steps)
    assert all(s[4] is not None for s in tracer.spans if s[0] == "engine.infer")
