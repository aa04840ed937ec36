"""The package's public names, each checked in a new interpreter, because
this one has already imported every submodule."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import geocausal

#: submodule -> the public names ``import geocausal`` has always exported from it.
EXPORTS = {
    "engine": ["Diagnostic", "EngineConfig", "InferenceResult", "ProvenanceTree", "explain", "infer"],
    "graph": ["ASSERTED", "Asserted", "Derived", "KnowledgeGraph", "RelationKind", "Role", "Triple"],
    "ingest": ["IngestReport", "Strictness", "ingest_observations_csv", "ingest_storm_csv"],
    "model": [
        "BBox", "GeoEvent", "GeoObject", "GeoSituation", "Geometry", "Measurement", "Point",
        "SpatioTemporalRegion", "TimeInterval",
    ],
    "query": ["Explanation", "query", "render_explanation_text", "why"],
    "rules": [
        "CauseRule", "CoOccurs", "Condition", "Precedes", "PrecedesWithin", "PreconditionSet",
        "RuleSet", "SatisfactionResult", "Truth", "evaluate", "parse_rules", "print_rules",
    ],
    "spatiotemporal": [
        "IntervalRelation", "co_occurs", "interval_relation", "precedes", "spatial_overlap",
        "temporally_nested",
    ],
    "storage": ["dump_graph", "load_graph", "loads_graph", "save_graph"],
    "units": [
        "Categorical", "Comparator", "Dimension", "Quantity", "Unit", "compare", "convert", "get_unit",
    ],
}


def run_fresh(code: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(Path(geocausal.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_public_names_are_the_submodules_objects():
    assert sum(map(len, EXPORTS.values())) == 60
    run_fresh(f"""
        import importlib, sys
        import geocausal
        assert "geocausal.engine" not in sys.modules
        assert set(dir(geocausal)) >= set(geocausal.__all__)
        exports = {EXPORTS!r}
        assert sorted(geocausal.__all__) == sorted(n for names in exports.values() for n in names)
        for module, names in exports.items():
            source = importlib.import_module("geocausal." + module)
            for name in names:
                assert getattr(geocausal, name) is getattr(source, name), name
    """)


def test_query_stays_the_function():
    for first in ("import geocausal.query", "import geocausal; geocausal.why"):
        run_fresh(f"""
            import sys
            {first}
            import geocausal.query
            assert geocausal.query is sys.modules["geocausal.query"].query, geocausal.query
        """)


def test_an_unknown_name_raises_attribute_error_and_submodules_still_import():
    run_fresh("""
        import geocausal
        try:
            geocausal.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("no AttributeError")
        from geocausal import engine
        assert engine.__name__ == "geocausal.engine"
    """)


def test_the_package_imports_only_the_standard_library():
    """Every module the package imports is in the standard library or is
    geocausal itself (relative imports are)."""
    import ast

    allowed = set(sys.stdlib_module_names) | {"geocausal"}
    modules = sorted(Path(geocausal.__file__).parent.rglob("*.py"))
    foreign = []
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{module.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert len(modules) >= 10
    assert foreign == []


def test_no_command_imports_dataclasses_or_inspect(tmp_path):
    """Value classes are plain slotted classes: no command generates code
    with dataclasses, which would import inspect, at start-up. Modules that
    site loaded before the command ran do not count."""
    from support import build_chain_case, katrina_csv

    from geocausal.rules import print_rules
    from geocausal.storage import dump_graph

    graph, rules = build_chain_case()
    (tmp_path / "chain.graph").write_text(dump_graph(graph), encoding="utf-8")
    (tmp_path / "rules.gcr").write_text(print_rules(rules), encoding="utf-8")
    (tmp_path / "storm.csv").write_text(katrina_csv(8), encoding="utf-8")
    commands = [
        ["rules", "check", "rules.gcr"],
        ["ingest", "storm", "storm.csv"],
        ["infer", "--rules", "rules.gcr"],
        ["why", "ev:flashflood"],
        ["query", "? causes ?"],
        ["validate"],
        ["export", "--format", "json"],
        ["export", "--format", "dot"],
    ]
    for argv in commands:
        run_fresh(f"""
            import os, sys
            before = set(sys.modules)
            from geocausal.cli import main
            os.chdir({str(tmp_path)!r})
            assert main({argv!r} + ["--workspace", "chain.graph"]) == 0
            loaded = set(sys.modules) - before
            assert not loaded & {{"dataclasses", "inspect"}}, {argv!r}
        """)


def test_ingest_imports_neither_strptime_nor_json(tmp_path):
    """Storm timestamps are parsed without strptime, and json is imported
    only to print a --json report. Modules that site loaded before the
    command ran do not count."""
    from support import katrina_csv

    (tmp_path / "storm.csv").write_text(katrina_csv(8), encoding="utf-8")
    (tmp_path / "obs.csv").write_text(
        "SITUATION_ID,TIMESTAMP_START,TIMESTAMP_END,ATTRIBUTE,VALUE,UNIT\n"
        "s1,2005-08-23T00:00:00Z,2005-08-23T09:00:00Z,Temp,30,degC\n",
        encoding="utf-8",
    )
    for argv in (["ingest", "storm", "storm.csv"], ["ingest", "obs", "obs.csv"]):
        run_fresh(f"""
            import os, sys
            before = set(sys.modules)
            from geocausal.cli import main
            os.chdir({str(tmp_path)!r})
            assert main({argv!r} + ["--workspace", "ingested.graph"]) == 0
            loaded = set(sys.modules) - before
            assert not loaded & {{"_strptime", "json"}}, {argv!r}
        """)
    assert (tmp_path / "ingested.graph").read_text(encoding="utf-8").count("ENT ev:situation-s1 ") == 1
