"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s or -rA to see them). Time budgets are asserted where stated."""

import io
import random
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement

import pytest

from geocausal.cli import main as cli_main
from geocausal.engine import EngineConfig, infer
from geocausal.errors import SchemaViolation
from geocausal.graph import KnowledgeGraph, RelationKind
from geocausal.ingest import Strictness, ingest_storm_csv
from geocausal.model import GeoSituation, Measurement
from geocausal.query import query, why
from geocausal.rules import Truth, evaluate, parse_rules, print_rules
from geocausal.spatiotemporal import interval_relation, precedes
from geocausal.storage import dump_graph, loads_graph
from geocausal.units import Categorical, REGISTRY, convert

from support import (
    INVERSE,
    brute_force_closure,
    build_chain_case,
    build_flood_case_a,
    build_flood_case_b,
    graphs_equal,
    iv,
    katrina_csv,
    q,
    random_engine_case,
    random_storage_graph,
)

from test_spatiotemporal import allen_oracle


@contextmanager
def criterion(number, description, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")


def test_criterion_1_katrina_structure():
    with criterion(1, "episode CSV yields 1 parent, 23 part-of edges, 23 regions", budget=1.0):
        graph = KnowledgeGraph()
        report = ingest_storm_csv(graph, io.StringIO(katrina_csv()), Strictness.STRICT)
        assert report.rows_read == 23 and report.errors == []

        episodes = [e for e in graph.entities() if getattr(e, "kind", None) == "Episode"]
        assert len(episodes) == 1 and episodes[0].id == "ev:episode-1"

        part_of = graph.match(predicate=RelationKind.PART_OF, object="ev:episode-1")
        assert len(part_of) == 23

        child_regions = {graph.region_of(t.subject).id for t in part_of}
        assert len(child_regions) == 23

        assert len(query(graph, "? part-of ev:episode-1")) == 23


PC_TC = """
precondition PC_TC effects TropicalCyclone {
    SeaSurfaceTemp > 82 degF;
    AtmosphericPressure > 1000 hPa;
    WindShear > 10 m/s;
    CoriolisForce present
}
"""


def _tc_situation(**overrides):
    values = {
        "SeaSurfaceTemp": q(83, "degF"),
        "AtmosphericPressure": q(1005, "hPa"),
        "WindShear": q(12, "m/s"),
        "CoriolisForce": Categorical("present"),
    }
    values.update(overrides)
    measurements = tuple(
        Measurement(name, value) for name, value in values.items() if value is not None
    )
    return GeoSituation("sit:tc", iv(0, 6), measurements)


def test_criterion_2_tropical_cyclone_precondition():
    with criterion(2, "tropical-cyclone precondition evaluates exactly three-valued"):
        pc = parse_rules(PC_TC).preconditions[0]

        assert evaluate(pc, _tc_situation()).satisfied is Truth.TRUE
        assert evaluate(pc, _tc_situation(SeaSurfaceTemp=q(80, "degF"))).satisfied is Truth.FALSE
        assert evaluate(pc, _tc_situation(WindShear=None)).satisfied is Truth.UNKNOWN

        # 28.33 degC is just above 82 degF; aggregates must match the degF runs
        converted = evaluate(pc, _tc_situation(SeaSurfaceTemp=q(28.33, "degC")))
        assert converted.satisfied is Truth.TRUE
        cold = evaluate(
            pc, _tc_situation(SeaSurfaceTemp=convert(q(80, "degF"), REGISTRY["degC"]))
        )
        assert cold.satisfied is Truth.FALSE


def test_criterion_3_flood_dichotomy():
    with criterion(3, "rain causes flood; dam situation effects it; dam object never causes"):
        graph_a, rules_a = build_flood_case_a()
        infer(graph_a, rules_a)
        assert graph_a.has_triple("ev:heavyrain", RelationKind.CAUSES, "ev:flashflood")

        graph_b, rules_b = build_flood_case_b()
        infer(graph_b, rules_b)
        assert graph_b.has_triple("sit:overflow", RelationKind.SATISFIES, "PC_DAM")
        assert graph_b.has_triple("sit:overflow", RelationKind.EFFECTS, "ev:flood")
        assert graph_b.match(subject="obj:dam", predicate=RelationKind.CAUSES) == []
        assert graph_b.match(subject="obj:dam", predicate=RelationKind.EFFECTS) == []

        with pytest.raises(SchemaViolation):
            graph_b.assert_triple("obj:dam", RelationKind.CAUSES, "ev:flood")


def test_criterion_4_fixpoint_oracle_equivalence():
    with criterion(4, "engine equals brute-force closure on 200 random graphs", budget=30.0):
        config = EngineConfig()
        for case in range(200):
            seed = 10_000 + case
            graph, rules = random_engine_case(random.Random(seed))
            assert graph.entity_count <= 8
            expected = brute_force_closure(graph, rules, config)

            twin_graph, twin_rules = random_engine_case(random.Random(seed))
            infer(graph, rules, config)
            infer(twin_graph, twin_rules, config)

            derived = {t.key for t in graph.triples() if t.is_derived}
            assert derived == expected, f"seed {seed}"
            assert dump_graph(graph) == dump_graph(twin_graph), f"seed {seed}"


def test_criterion_5_allen_algebra():
    with criterion(5, "13 Allen relations partition all pairs over endpoints 0..6", budget=1.0):
        intervals = [iv(s, e) for s, e in combinations_with_replacement(range(7), 2)]
        for a in intervals:
            for b in intervals:
                holding = allen_oracle(a, b)
                assert len(holding) == 1
                relation = interval_relation(a, b)
                assert relation is holding[0]
                assert INVERSE[relation] is interval_relation(b, a)
        for a in intervals:
            for b in intervals:
                if not precedes(a, b):
                    continue
                for c in intervals:
                    if precedes(b, c):
                        assert precedes(a, c)


def test_criterion_6_persistence_round_trip():
    with criterion(6, "save/load round-trip on 100 randomized graphs", budget=10.0):
        rng = random.Random(20050829)
        for case in range(100):
            graph = random_storage_graph(rng, 10 * (case + 1))
            text = dump_graph(graph)
            loaded = loads_graph(text)
            assert graphs_equal(graph, loaded), f"case {case}"
            assert dump_graph(loaded) == text, f"case {case}"
        assert graph.triple_count >= 900  # the ramp really reaches large graphs


def test_criterion_7_why_query(tmp_path, capsys):
    with criterion(7, "why-query over the causal chain carries 3 edges and evidence"):
        graph, rules = build_chain_case()
        infer(graph, rules)

        workspace = tmp_path / "chain.graph"
        rules_path = tmp_path / "chain.gcr"
        rules_path.write_text(print_rules(rules), encoding="utf-8")
        workspace.write_text(
            f"# rules: {rules_path}\n" + dump_graph(graph), encoding="utf-8"
        )
        code = cli_main(
            ["why", "ev:flashflood", "--depth", "3", "--workspace", str(workspace)]
        )
        out = capsys.readouterr().out
        assert code == 0
        causal_lines = [l for l in out.splitlines() if "<- causes --" in l or "<- effects --" in l]
        assert len(causal_lines) == 3
        assert any("WaterLevel" in l and "12 m" in l for l in out.splitlines())

        shallow = why(graph, "ev:flashflood", max_depth=1, rules=rules)
        deep = why(graph, "ev:flashflood", max_depth=3, rules=rules)
        deep_keys = {e.triple.key for e in deep.edges}
        assert {e.triple.key for e in shallow.edges} <= deep_keys
        assert deep_keys == {
            ("ev:heavyrain", RelationKind.CAUSES, "ev:flashflood"),
            ("ev:tropicalstorm", RelationKind.CAUSES, "ev:heavyrain"),
            ("sit:overflow", RelationKind.EFFECTS, "ev:flashflood"),
        }


def test_criterion_8_unit_layer():
    with criterion(8, "unit conversions round-trip below 1e-9 relative error"):
        for unit_a in REGISTRY.values():
            for unit_b in REGISTRY.values():
                if unit_a.dimension is not unit_b.dimension:
                    continue
                for magnitude in (-40.0, 0.0, 1.0, 82.0, 130.0, 1013.25, 98765.4321):
                    original = q(magnitude, unit_a.symbol)
                    back = convert(convert(original, unit_b), unit_a)
                    scale = max(1.0, abs(magnitude))
                    assert abs(back.magnitude - magnitude) / scale < 1e-9

        # recomputed independently: kelvin = (82 - 32) * 5/9 + 273.15
        expected_kelvin = (82.0 - 32.0) * 5.0 / 9.0 + 273.15
        kelvin = convert(q(82, "degF"), REGISTRY["K"]).magnitude
        assert abs(kelvin - expected_kelvin) / expected_kelvin < 1e-9
        assert kelvin == pytest.approx(300.9278, abs=1e-4)
        fahrenheit = convert(q(expected_kelvin, "K"), REGISTRY["degF"]).magnitude
        assert abs(fahrenheit - 82.0) / 82.0 < 1e-9
