"""The output gate: one sha256 per named output of the library and the CLI.

``tests/test_golden.py`` recomputes every digest and compares it with
``tests/golden.json``. Run this script to rewrite that file:

    PYTHONPATH=src python tests/record_golden.py

It prints the name of each entry that moved, appeared or disappeared.
A change that re-records an entry must say which and why.

Library outputs cover ``random_engine_case`` seeds 0-299 under the default
engine configuration and under a 3 h gap with the spatial gate off.
Causal outputs cover ``random_causal_case`` seeds 0-24, whose why-queries
hold chains, cycles, evidence of each status and affects edges. CLI
outputs cover the benchmark's three workloads at the sizes of
``bench/test_bench.py``, each command run in-process through ``cli.main``.
The benchmark's generator and command sequence are imported, not copied.
Load outcomes cover the text and JSON documents of ``random_engine_case``
seeds 0-39 and ``random_causal_case`` seeds 0-9, each changed by every
mutation of ``support.MUTATIONS`` several times: the ``ParseError`` (line
and message) that each mutated document raises, or the dump of the graph
it loads. The ``load/`` group pins both readers' refusals; re-record it
only together with a reader change that says which refusals moved and why.
Ingest outcomes cover the storm and observation files of the benchmark's
generator, seeds 0-5, each changed by every change of ``support.CSV_CHANGES``
several times, and ingested strict and lenient, into a fresh graph and onto
an earlier ingest of the unchanged file's first half, under two id
prefixes: the ``IngestError`` (line and message) each ingest raises, or its
report (text and JSON); then the dump of the graph either way.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
for path in (TESTS, ROOT / "src", ROOT / "bench"):
    if str(path) not in sys.path:
        sys.path.append(str(path))

from geocausal.cli import main as cli_main  # noqa: E402
from geocausal.engine import EngineConfig, explain, infer  # noqa: E402
from geocausal.errors import IngestError, ParseError  # noqa: E402
from geocausal.export import (  # noqa: E402
    explanation_to_dot, explanation_to_json, graph_from_json, graph_to_dot, graph_to_json,
)
from geocausal.graph import RELATION_TOKENS, KnowledgeGraph, Role  # noqa: E402
from geocausal.ingest import Strictness, ingest_observations_csv, ingest_storm_csv  # noqa: E402
from geocausal.query import render_explanation_text, why  # noqa: E402
from geocausal.storage import dump_graph, loads_graph  # noqa: E402

from support import (  # noqa: E402
    CSV_CHANGES, MUTATIONS, change_csv_cells, mutate_document, random_causal_case, random_engine_case,
)

GOLDEN = TESTS / "golden.json"
ENGINE_SEEDS = range(300)
CONFIGS = {
    "default": EngineConfig(),
    "gap3h-nospatial": EngineConfig(max_gap=timedelta(hours=3), require_spatial_overlap=False),
}
CAUSAL_SEEDS = range(25)
WHY_DEPTHS = {"1": 1, "3": 3, "10": 10, "unbounded": sys.maxsize}
CLI_SIZES = {"storm-causal": 40, "dam-effects": 30, "append-reinfer": 36}  # bench/test_bench.py SMALL
CLI_SEEDS = (1, 2, 3)
LOAD_CASES = {"engine": (random_engine_case, range(40)), "causal": (random_causal_case, range(10))}
LOAD_MUTANTS = 6  # documents per case, format and mutation
INGEST_SEEDS = range(6)
INGEST_CHANGED = 4  # files per seed, file kind and change
INGEST_PREFIXES = ("ev:", "noaa/")


class _Digests:
    def __init__(self) -> None:
        self._hashes: dict = {}  # name -> sha256 object

    def add(self, name: str, *parts: str | bytes) -> None:
        h = self._hashes.setdefault(name, hashlib.sha256())
        for part in parts:
            h.update(part if isinstance(part, bytes) else part.encode("utf-8", "surrogatepass"))
            h.update(b"\x1e")
        h.update(b"\x1d")

    def result(self) -> dict[str, str]:
        return {name: h.hexdigest() for name, h in sorted(self._hashes.items())}


def _triple_text(t) -> str:
    if not t.is_derived:
        return f"{t.subject} {t.predicate.value} {t.object} asserted"
    premises = " ".join(f"({s},{p.value},{o})" for s, p, o in t.provenance.premises)
    return f"{t.subject} {t.predicate.value} {t.object} {t.provenance.rule_id} {premises}"


def _case_digests(add, graph, rules, config=None) -> None:
    """Infer over one case, then add each of its outputs under its name."""
    result = infer(graph, rules, config)
    add("derived", *map(_triple_text, result.derived))
    add("skips", *(d.render() for d in result.diagnostics))
    dump = dump_graph(graph)
    add("dump", dump)
    add("json", graph_to_json(graph))
    add("dot", graph_to_dot(graph))
    add("reload-dump", dump_graph(loads_graph(dump)))
    add("explain", *(explain(graph, t).render() for t in result.derived))
    for event in graph.entities(Role.EVENT):
        for depth_name, depth in WHY_DEPTHS.items():
            explanation = why(graph, event.id, max_depth=depth, rules=rules)
            add(f"why-text/depth-{depth_name}", event.id, render_explanation_text(explanation, graph))
            add(f"why-json/depth-{depth_name}", event.id, explanation_to_json(explanation, graph))
            add(f"why-dot/depth-{depth_name}", event.id, explanation_to_dot(explanation, graph))


def library_digests() -> dict[str, str]:
    digests = _Digests()
    for config_name, config in CONFIGS.items():
        for seed in ENGINE_SEEDS:
            def add(output: str, *parts) -> None:
                digests.add(f"library/{config_name}/{output}", f"seed {seed}", *parts)

            _case_digests(add, *random_engine_case(random.Random(seed)), config)
    return digests.result()


def causal_digests() -> dict[str, str]:
    digests = _Digests()
    for seed in CAUSAL_SEEDS:
        def add(output: str, *parts) -> None:
            digests.add(f"causal/{output}", f"seed {seed}", *parts)

        _case_digests(add, *random_causal_case(random.Random(seed)))
    return digests.result()


def _load_outcome(read, document: str) -> str:
    try:
        graph = read(document)
    except ParseError as exc:
        return f"ParseError at {exc.line}: {exc}"
    return dump_graph(graph)


def load_digests() -> dict[str, str]:
    digests = _Digests()
    for case_name, (case, seeds) in LOAD_CASES.items():
        for seed in seeds:
            graph, rules = case(random.Random(seed))
            infer(graph, rules)
            vocabulary = sorted(e.id for e in graph.entities()) + sorted(RELATION_TOKENS)
            readers = {"text": (loads_graph, dump_graph(graph)), "json": (graph_from_json, graph_to_json(graph))}
            for format_name, (read, document) in readers.items():
                rng = random.Random(f"{case_name} {seed} {format_name}")
                for mutation in MUTATIONS:
                    for _ in range(LOAD_MUTANTS):
                        mutated = mutate_document(document, vocabulary, mutation, rng.randrange)
                        digests.add(f"load/{format_name}/{mutation}", f"{case_name} seed {seed}",
                                    mutated, _load_outcome(read, mutated))
    return digests.result()


def _ingest_files(seed: int) -> dict[str, tuple]:
    """File kind -> (its ingest, a storm or observation file of the benchmark's generator)."""
    from generate import generate

    storm = generate("append-reinfer", seed, 4 * 30).files["storm-2.csv"]
    observations = generate("dam-effects", seed, 30).files["observations.csv"]
    return {"storm": (ingest_storm_csv, storm.decode()), "obs": (ingest_observations_csv, observations.decode())}


def _ingest_outcomes(ingest, unchanged: str, text: str) -> list[str]:
    """Each run of ``text``'s ingest: strict and lenient, fresh and appended
    onto an ingest of the first half of ``unchanged``, under each prefix."""
    lines = unchanged.splitlines(keepends=True)
    earlier = "".join(lines[: len(lines) // 2])
    outcomes = []
    for prefix in INGEST_PREFIXES:
        for strictness in Strictness:
            for appended in (False, True):
                graph = KnowledgeGraph()
                if appended:
                    ingest(graph, io.StringIO(earlier, newline=""), Strictness.LENIENT, prefix)
                try:
                    report = ingest(graph, io.StringIO(text, newline=""), strictness, prefix)
                    outcome = report.render() + "\n" + report.to_json()
                except IngestError as exc:
                    outcome = f"IngestError at {exc.line}: {exc}"
                outcomes.append(f"{prefix} {strictness.value} {'appended' if appended else 'fresh'}\n{outcome}")
                outcomes.append(dump_graph(graph))
    return outcomes


def ingest_digests() -> dict[str, str]:
    digests = _Digests()
    for seed in INGEST_SEEDS:
        for kind, (ingest, text) in _ingest_files(seed).items():
            digests.add(f"ingest/{kind}/unchanged", f"seed {seed}", *_ingest_outcomes(ingest, text, text))
            rng = random.Random(f"{kind} {seed}")
            for change in CSV_CHANGES:
                for _ in range(INGEST_CHANGED):
                    changed = change_csv_cells(text, kind, change, rng.randrange)
                    digests.add(f"ingest/{kind}/{change}", f"seed {seed}", changed,
                                *_ingest_outcomes(ingest, text, changed))
    return digests.result()


def _cli_commands(inputs, workspace: Path) -> list[list[str]]:
    """The benchmark's command sequence, then a few read-only commands it
    does not run: validate, predicate-only queries and why in every format."""
    from pipeline import build_steps, closures_for

    steps = build_steps(inputs, closures_for(inputs), Path("."))
    commands = [step.argv(workspace) for step in steps]
    ws = ["--workspace", str(workspace)]
    commands.append(["validate", *ws])
    for predicate in ("causes", "effects", "participant-in", "?"):
        commands.append(["query", f"? {predicate} ?", *ws])
    targets = sorted(step.target for step in steps if step.kind == "why")[:1]
    for target in targets:
        for fmt in ("json", "dot"):
            commands.append(["why", target, "--depth", "3", "--format", fmt, *ws])
    return commands


def _run_workload(digests: _Digests, inputs, prefix: str) -> None:
    """Run the commands in the current directory, which holds nothing else."""
    inputs.write(Path("."))
    workspace = Path("workspace.graph")
    if inputs.base_workspace:
        workspace.write_bytes(inputs.files[inputs.base_workspace])
    for i, argv in enumerate(_cli_commands(inputs, workspace)):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(argv)
        state = workspace.read_bytes() if workspace.exists() else b""
        digests.add(f"{prefix}/{i:02d}-{argv[0]}",
                    " ".join(argv), str(code), out.getvalue(), err.getvalue(), state)


def cli_digests() -> dict[str, str]:
    from generate import generate

    digests = _Digests()
    cwd = os.getcwd()
    for workload, size in CLI_SIZES.items():
        for seed in CLI_SEEDS:
            inputs = generate(workload, seed, size)
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)  # relative paths keep outputs free of the directory name
                try:
                    _run_workload(digests, inputs, f"cli/{workload}/seed-{seed}")
                finally:
                    os.chdir(cwd)
    return digests.result()


def all_digests() -> dict[str, str]:
    return {**library_digests(), **causal_digests(), **cli_digests(), **load_digests(), **ingest_digests()}


def moved(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """Names whose digest differs, or that are in only one of the two."""
    return sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))


def main() -> int:
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    new = all_digests()
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    changed = moved(old, new)
    for name in changed:
        print(name)
    print(f"{len(new)} entries, {len(changed)} moved", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
