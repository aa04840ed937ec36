import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from geocausal import engine
from geocausal.engine import Diagnostic, EngineConfig, explain, infer
from geocausal.errors import ConfigError, ParseError, UnknownTriple
from geocausal.graph import KnowledgeGraph, RelationKind, Role
from geocausal.model import BBox, GeoEvent, GeoObject, GeoSituation, Measurement, Point, SpatioTemporalRegion, TimeInterval
from geocausal.rules import CauseRule, Condition, CoOccurs, Precedes, PrecedesWithin, PreconditionSet, RuleSet, parse_rules
from geocausal.spatiotemporal import gap_between, precedes
from geocausal.storage import dump_graph, loads_graph
from geocausal.units import Comparator

from support import brute_force_closure, build_chain_case, iv, q, random_engine_case, schema_violations

STP = RelationKind.SPATIO_TEMPORALLY_PRESENT


def derived_keys(result):
    return {(t.subject, t.predicate, t.object) for t in result.derived}


def _add_random_valid_triple(graph, rng):
    """Assert one random schema-valid triple; False if no slot was found."""
    from geocausal.graph import Role

    events = graph.entities(Role.EVENT)
    objects = graph.entities(Role.OBJECT)
    situations = graph.entities(Role.SITUATION)
    candidates = []
    if len(events) >= 2:
        candidates.append((events[0].id, RelationKind.CAUSES, events[-1].id))
        candidates.append((events[-1].id, RelationKind.PART_OF, events[0].id))
    if objects and events:
        candidates.append((objects[0].id, RelationKind.PARTICIPANT_IN, events[0].id))
    if objects and situations:
        candidates.append((objects[0].id, RelationKind.SETTING, situations[0].id))
    if events and situations:
        candidates.append((events[0].id, RelationKind.SETTING, situations[0].id))
    if situations:
        candidates.append((situations[0].id, RelationKind.SATISFIES, "PC_MANUAL"))
    fresh = [c for c in candidates if not graph.has_triple(*c)]
    if not fresh:
        return False
    graph.assert_triple(*rng.choice(fresh))
    return True


class TestFloodFixtures:
    def test_fixture_a_rain_causes_flood(self, flood_case_a):
        graph, rules = flood_case_a
        result = infer(graph, rules)
        assert derived_keys(result) == {("ev:heavyrain", RelationKind.CAUSES, "ev:flashflood")}
        triple = result.derived[0]
        assert triple.provenance.rule_id == "R-CAU:R1"
        # premises are the two region attachments
        assert set(triple.provenance.premises) == {
            ("ev:heavyrain", STP, "reg:hr"),
            ("ev:flashflood", STP, "reg:ff"),
        }

    def test_fixture_b_satisfies_and_effects(self, flood_case_b):
        graph, rules = flood_case_b
        result = infer(graph, rules)
        assert derived_keys(result) == {
            ("sit:overflow", RelationKind.SATISFIES, "PC_DAM"),
            ("sit:overflow", RelationKind.EFFECTS, "ev:flood"),
        }
        # the dam object is never a causal subject
        assert graph.match(subject="obj:dam", predicate=RelationKind.CAUSES) == []
        assert graph.match(subject="obj:dam", predicate=RelationKind.EFFECTS) == []

    def test_fixture_b_effects_premises(self, flood_case_b):
        graph, rules = flood_case_b
        infer(graph, rules)
        effects = graph.triple(("sit:overflow", RelationKind.EFFECTS, "ev:flood"))
        assert effects.provenance.rule_id == "R-EFF:PC_DAM"
        assert ("sit:overflow", RelationKind.SATISFIES, "PC_DAM") in effects.provenance.premises
        assert ("obj:dam", RelationKind.SETTING, "sit:overflow") in effects.provenance.premises


class TestEdgeCases:
    def test_empty_rule_set(self, flood_case_a):
        graph, _ = flood_case_a
        result = infer(graph, RuleSet())
        assert result.derived == []
        assert result.iterations == 1

    def test_mixed_setting_blocks_effects(self, flood_case_b):
        graph, rules = flood_case_b
        graph.add_entity(GeoEvent("ev:bystander", "Other"))
        graph.assert_triple("ev:bystander", RelationKind.SETTING, "sit:overflow")
        result = infer(graph, rules)
        # still satisfied, but no effects edge
        assert ("sit:overflow", RelationKind.SATISFIES, "PC_DAM") in derived_keys(result)
        assert graph.match(predicate=RelationKind.EFFECTS) == []
        assert Diagnostic("R-EFF", ("sit:overflow", "PC_DAM"), "mixed-setting") in result.diagnostics

    def test_unknown_satisfaction_diagnostic(self, flood_case_b):
        graph, rules = flood_case_b
        graph.add_entity(GeoSituation("sit:sparse", iv(0, 5)))  # no observations at all
        result = infer(graph, rules)
        assert Diagnostic("R-SAT", ("sit:sparse", "PC_DAM"), "unknown-satisfaction") in result.diagnostics
        assert ("sit:sparse", RelationKind.SATISFIES, "PC_DAM") not in derived_keys(result)

    def test_gap_too_large_blocks_effects(self, flood_case_b):
        graph, rules = flood_case_b
        result = infer(graph, rules, EngineConfig(max_gap=timedelta(hours=1)))
        # flood starts two hours after the situation ends
        assert graph.match(predicate=RelationKind.EFFECTS) == []
        assert Diagnostic("R-EFF", ("sit:overflow", "PC_DAM"), "no-temporal-adjacency") in result.diagnostics

    def test_event_before_situation_blocks_effects(self, flood_case_b):
        graph, rules = flood_case_b
        graph.add_entity(GeoEvent("ev:early", "Flood"))
        graph.add_entity(SpatioTemporalRegion("reg:early", Point(30.0, -90.0), iv(-20, -10)))
        graph.assert_triple("ev:early", STP, "reg:early")
        infer(graph, rules)
        assert not graph.has_triple("sit:overflow", RelationKind.EFFECTS, "ev:early")

    def test_spatial_overlap_gate(self, flood_case_b):
        graph, rules = flood_case_b
        # move the flood far from the dam
        graph.add_entity(GeoEvent("ev:remote", "Flood"))
        graph.add_entity(SpatioTemporalRegion("reg:remote", Point(-40.0, 100.0), iv(12, 20)))
        graph.assert_triple("ev:remote", STP, "reg:remote")
        result = infer(graph, rules)
        assert not graph.has_triple("sit:overflow", RelationKind.EFFECTS, "ev:remote")
        assert (
            Diagnostic("R-EFF", ("sit:overflow", "PC_DAM", "ev:remote"), "no-spatial-overlap")
            in result.diagnostics
        )
        # disabling the spatial requirement lets it fire
        infer(graph, rules, EngineConfig(require_spatial_overlap=False))
        assert graph.has_triple("sit:overflow", RelationKind.EFFECTS, "ev:remote")

    def test_affects_rule(self, flood_case_b):
        graph, rules = flood_case_b
        # the flood event is situated in a co-temporal situation with the dam participating
        graph.add_entity(GeoSituation("sit:during", iv(12, 20)))
        graph.assert_triple("ev:flood", RelationKind.SETTING, "sit:during")
        graph.assert_triple("obj:dam", RelationKind.PARTICIPANT_IN, "ev:flood")
        result = infer(graph, rules)
        assert ("sit:during", RelationKind.AFFECTS, "obj:dam") in derived_keys(result)
        affects = graph.triple(("sit:during", RelationKind.AFFECTS, "obj:dam"))
        assert affects.provenance.rule_id == "R-AFF"
        assert set(affects.provenance.premises) == {
            ("ev:flood", RelationKind.SETTING, "sit:during"),
            ("obj:dam", RelationKind.PARTICIPANT_IN, "ev:flood"),
        }

    def test_asserted_satisfies_feeds_effects(self, flood_case_b):
        graph, rules = flood_case_b
        # an empty-observation situation with a manually asserted satisfies edge
        graph.add_entity(GeoSituation("sit:manual", iv(0, 10)))
        graph.assert_triple("obj:dam", RelationKind.SETTING, "sit:manual")
        graph.assert_triple("sit:manual", RelationKind.SATISFIES, "PC_DAM")
        infer(graph, rules)
        assert graph.has_triple("sit:manual", RelationKind.EFFECTS, "ev:flood")

    def test_negative_gap_config(self):
        with pytest.raises(ConfigError):
            EngineConfig(max_gap=timedelta(hours=-1))

    def test_first_region_in_id_order_wins(self):
        # obj:dam and ev:flood are each present at two regions. The "-b"
        # regions are attached first but sort last; they are far away and,
        # for the flood, days later, so neither rule fires through them.
        graph = KnowledgeGraph()
        graph.add_entity(GeoObject("obj:dam", "Dam"))
        graph.add_entity(GeoEvent("ev:flood", "Flood"))
        graph.add_entity(GeoEvent("ev:rain", "HeavyRain"))
        for region in (
            SpatioTemporalRegion("reg:dam-b", Point(-40.0, 100.0), iv(0, 72)),
            SpatioTemporalRegion("reg:flood-b", Point(10.0, 10.0), iv(200, 210)),
            SpatioTemporalRegion("reg:dam-a", Point(30.0, -90.0), iv(0, 72)),
            SpatioTemporalRegion("reg:flood-a", Point(30.0, -90.0), iv(12, 20)),
            SpatioTemporalRegion("reg:rain", BBox(29.0, -91.0, 31.0, -89.0), iv(0, 48)),
        ):
            graph.add_entity(region)
        for subject, region in (
            ("obj:dam", "reg:dam-b"),
            ("ev:flood", "reg:flood-b"),
            ("obj:dam", "reg:dam-a"),
            ("ev:flood", "reg:flood-a"),
            ("ev:rain", "reg:rain"),
        ):
            graph.assert_triple(subject, STP, region)
        graph.add_entity(
            GeoSituation("sit:overflow", iv(0, 10), (Measurement("WaterLevel", q(12, "m")),))
        )
        graph.assert_triple("obj:dam", RelationKind.SETTING, "sit:overflow")
        rules = parse_rules(
            """
            precondition PC_DAM effects Flood { WaterLevel > 10 m }
            rule R1: HeavyRain causes Flood when co-occurs
            """
        )
        result = infer(graph, rules)
        assert result.diagnostics == []

        causes = graph.triple(("ev:rain", RelationKind.CAUSES, "ev:flood"))
        assert causes.provenance.premises == (
            ("ev:rain", STP, "reg:rain"),
            ("ev:flood", STP, "reg:flood-a"),
        )
        effects = graph.triple(("sit:overflow", RelationKind.EFFECTS, "ev:flood"))
        assert effects.provenance.premises == (
            ("ev:flood", STP, "reg:flood-a"),
            ("obj:dam", RelationKind.SETTING, "sit:overflow"),
            ("obj:dam", STP, "reg:dam-a"),
            ("sit:overflow", RelationKind.SATISFIES, "PC_DAM"),
        )


class TestFixpointProperties:
    def test_rerun_derives_nothing(self, chain_case):
        graph, rules = chain_case
        first = infer(graph, rules)
        assert len(first.derived) > 0
        second = infer(graph, rules)
        assert second.derived == []

    def test_deterministic_across_runs(self):
        graph_a, rules_a = build_chain_case()
        graph_b, rules_b = build_chain_case()
        infer(graph_a, rules_a)
        infer(graph_b, rules_b)
        assert dump_graph(graph_a) == dump_graph(graph_b)

    def test_iterations_bounded(self, chain_case):
        graph, rules = chain_case
        result = infer(graph, rules)
        assert len(result.derived) > 0
        assert result.iterations == 1

    def test_monotone_under_new_assertions(self):
        # adding an asserted triple never removes a previously derivable
        # triple: derived edges persist and re-derivation only grows the set
        rng = random.Random(555)
        cases = 0
        while cases < 25:
            graph, rules = random_engine_case(rng)
            infer(graph, rules)
            before = {t.key for t in graph.triples()}
            if not _add_random_valid_triple(graph, rng):
                continue
            cases += 1
            infer(graph, rules)
            after = {t.key for t in graph.triples()}
            assert before <= after

    def test_derived_premises_exist_in_final_graph(self):
        rng = random.Random(777)
        for _ in range(30):
            graph, rules = random_engine_case(rng)
            result = infer(graph, rules)
            for triple in result.derived:
                for premise in triple.provenance.premises:
                    assert graph.has_triple(*premise)

    def test_oracle_equivalence_on_random_graphs(self):
        rng = random.Random(1234)
        config = EngineConfig()
        for _ in range(40):
            graph, rules = random_engine_case(rng)
            expected = brute_force_closure(graph, rules, config)
            result = infer(graph, rules, config)
            assert derived_keys(result) == expected

    def test_derived_edges_respect_schema(self):
        rng = random.Random(99)
        for _ in range(20):
            graph, rules = random_engine_case(rng)
            infer(graph, rules)
            assert schema_violations(graph) == []

    def test_double_run_byte_identical(self):
        rng = random.Random(321)
        for _ in range(10):
            seed = rng.randint(0, 10**9)
            graph_a, rules_a = random_engine_case(random.Random(seed))
            graph_b, rules_b = random_engine_case(random.Random(seed))
            infer(graph_a, rules_a)
            infer(graph_b, rules_b)
            assert dump_graph(graph_a) == dump_graph(graph_b)


#: Few places, so that most pairs overlap in space and some do not.
_GRID_GEOMETRIES = (Point(30.0, -90.0), BBox(29.0, -91.0, 31.0, -89.0), Point(40.0, -70.0))
_GRID_KINDS = ("Rain", "Flood")
_grid_hours = st.integers(0, 4)


@st.composite
def grid_cases(draw):
    """Events and situations on a 12-hour grid of whole-hour endpoints, with
    one cause rule of each constraint kind and an effects rule per kind.

    The grid makes the window edges common: point intervals, an event that
    starts where another ends, equal starts, a gap equal to a rule's limit
    and a zero limit.
    """
    graph = KnowledgeGraph()
    events = draw(st.lists(
        st.tuples(st.sampled_from(_GRID_KINDS), st.integers(0, 12), st.integers(0, 3),
                  st.sampled_from(_GRID_GEOMETRIES), st.integers(0, 9)),
        min_size=20, max_size=60,
    ))
    for i, (kind, start, length, geometry, placed) in enumerate(events):
        graph.add_entity(GeoEvent(f"ev:{i:02d}", kind))
        if placed:  # one event in ten has no region
            graph.add_entity(SpatioTemporalRegion(f"reg:{i:02d}", geometry, iv(start, start + length)))
            graph.assert_triple(f"ev:{i:02d}", STP, f"reg:{i:02d}")
    situations = draw(st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 3), st.sampled_from(_GRID_GEOMETRIES),
                  st.sampled_from([8.0, 12.0])),
        max_size=4,
    ))
    for i, (start, length, geometry, level) in enumerate(situations):
        graph.add_entity(GeoObject(f"obj:{i}", "Gauge"))
        graph.add_entity(SpatioTemporalRegion(f"reg:obj{i}", geometry, iv(0, 16)))
        graph.assert_triple(f"obj:{i}", STP, f"reg:obj{i}")
        measurements = (Measurement("WaterLevel", q(level, "m")),)
        graph.add_entity(GeoSituation(f"sit:{i}", iv(start, start + length), measurements))
        graph.assert_triple(f"obj:{i}", RelationKind.SETTING, f"sit:{i}")

    def kinds():
        return draw(st.sampled_from(_GRID_KINDS)), draw(st.sampled_from(_GRID_KINDS))

    co_occurring = draw(st.permutations(_GRID_KINDS))  # co-occurs needs two kinds
    cause_rules = (
        CauseRule("R1", *co_occurring, CoOccurs()),
        CauseRule("R2", *kinds(), PrecedesWithin(timedelta(hours=draw(_grid_hours)))),
        CauseRule("R3", *kinds(), Precedes()),
    )
    level_over_10m = (Condition("WaterLevel", Comparator.GT, q(10, "m")),)
    preconditions = tuple(PreconditionSet(f"PC_{kind}", kind, level_over_10m) for kind in _GRID_KINDS)
    config = EngineConfig(timedelta(hours=draw(_grid_hours)), draw(st.booleans()))
    return graph, RuleSet(preconditions, cause_rules), config


class TestOutputSensitiveJoins:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(grid_cases())
    def test_windows_lose_no_edge_at_their_boundaries(self, case):
        graph, rules, config = case
        expected = brute_force_closure(graph, rules, config)

        def temporally_adjacent(situation, pc):
            for event in graph.entities(Role.EVENT):
                region = graph.region_of(event.id)
                if event.kind == pc.event_kind and region is not None and precedes(
                    situation.holds_during, region.interval
                ) and gap_between(situation.holds_during, region.interval) <= config.max_gap:
                    return True
            return False

        expected_no_adjacency = {
            (situation.id, pc.id)
            for situation in graph.entities(Role.SITUATION)
            for pc in rules.preconditions
            if (situation.id, RelationKind.SATISFIES, pc.id) in expected
            and not temporally_adjacent(situation, pc)
        }
        result = infer(graph, rules, config)
        assert derived_keys(result) == expected
        assert {
            d.entities for d in result.diagnostics if d.reason == "no-temporal-adjacency"
        } == expected_no_adjacency

    def test_windows_past_the_datetime_range_stay_open(self):
        # Each window bound below year 1 or past year 9999 is left open.
        def at(year, month, day):
            return datetime(year, month, day, tzinfo=timezone.utc)

        graph = KnowledgeGraph()
        spans = {
            "ev:rain": ("Rain", at(1, 1, 3), at(1, 1, 4)),
            "ev:long": ("Flood", at(1, 1, 2), at(9999, 12, 30)),
            "ev:last": ("Flood", at(9999, 12, 31), at(9999, 12, 31)),
        }
        for event_id, (kind, start, end) in spans.items():
            graph.add_entity(GeoEvent(event_id, kind))
            graph.add_entity(SpatioTemporalRegion(f"reg:{event_id}", Point(30.0, -90.0), TimeInterval(start, end)))
            graph.assert_triple(event_id, STP, f"reg:{event_id}")
        graph.add_entity(GeoObject("obj:gauge", "Gauge"))
        graph.add_entity(SpatioTemporalRegion("reg:gauge", Point(30.0, -90.0), iv(0, 1)))
        graph.assert_triple("obj:gauge", STP, "reg:gauge")
        graph.add_entity(GeoSituation("sit:s", TimeInterval(at(1, 1, 1), at(1, 1, 2)),
                                      (Measurement("WaterLevel", q(12, "m")),)))
        graph.assert_triple("obj:gauge", RelationKind.SETTING, "sit:s")
        rules = parse_rules(
            "precondition PC effects Flood { WaterLevel > 10 m }\n"
            "rule R1: Rain causes Flood when co-occurs\n"
            "rule R2: Rain causes Flood when precedes within 3700000d\n"
        )
        config = EngineConfig(max_gap=timedelta(days=3_700_000), require_spatial_overlap=False)
        expected = brute_force_closure(graph, rules, config)
        result = infer(graph, rules, config)
        assert derived_keys(result) == expected
        assert {
            ("ev:rain", RelationKind.CAUSES, "ev:long"),
            ("ev:rain", RelationKind.CAUSES, "ev:last"),
            ("sit:s", RelationKind.EFFECTS, "ev:last"),
        } <= expected

    def test_constraint_checks_grow_with_output_not_pairs(self, monkeypatch):
        # A count, not a time, so it holds on any machine. Testing all pairs
        # would take about n^2 / 4 checks per rule here.
        graph = KnowledgeGraph()
        n = 2000
        for i in range(n):
            graph.add_entity(GeoEvent(f"ev:{i:04d}", "Rain" if i % 2 else "Flood"))
            graph.add_entity(SpatioTemporalRegion(f"reg:{i:04d}", Point(30.0, -90.0), iv(3 * i, 3 * i + i % 7)))
            graph.assert_triple(f"ev:{i:04d}", STP, f"reg:{i:04d}")
        rules = parse_rules(
            "rule R1: Rain causes Flood when co-occurs\n"
            "rule R2: Rain causes Flood when precedes within 6h\n"
        )
        calls = 0
        constraint_holds = engine._constraint_holds

        def counted(*args):
            nonlocal calls
            calls += 1
            return constraint_holds(*args)

        monkeypatch.setattr(engine, "_constraint_holds", counted)
        result = infer(graph, rules)
        assert {t.provenance.rule_id for t in result.derived} == {"R-CAU:R1", "R-CAU:R2"}
        assert calls <= 4 * (n + len(result.derived))


class TestExplain:
    def test_asserted_leaf(self, flood_case_a):
        graph, _ = flood_case_a
        triple = graph.assert_triple("ev:heavyrain", RelationKind.CAUSES, "ev:flashflood")
        tree = explain(graph, triple)
        assert tree.rule_id is None and tree.premises == []

    def test_effects_tree(self, flood_case_b):
        graph, rules = flood_case_b
        infer(graph, rules)
        tree = explain(graph, ("sit:overflow", RelationKind.EFFECTS, "ev:flood"))
        assert tree.rule_id == "R-EFF:PC_DAM"
        premise_keys = {p.triple.key for p in tree.premises}
        assert ("sit:overflow", RelationKind.SATISFIES, "PC_DAM") in premise_keys
        # the satisfies premise is itself derived, with its own rule id
        satisfies_node = next(
            p for p in tree.premises if p.triple.predicate is RelationKind.SATISFIES
        )
        assert satisfies_node.rule_id == "R-SAT:PC_DAM"
        rendered = tree.render()
        assert "R-EFF:PC_DAM" in rendered and "[asserted]" in rendered

    def test_causes_tree_cites_regions(self, flood_case_a):
        graph, rules = flood_case_a
        infer(graph, rules)
        tree = explain(graph, ("ev:heavyrain", RelationKind.CAUSES, "ev:flashflood"))
        assert tree.rule_id == "R-CAU:R1"
        assert {p.triple.predicate for p in tree.premises} == {STP}

    def test_tree_survives_reload(self, chain_case):
        graph, rules = chain_case
        infer(graph, rules)
        derived = [t for t in graph.triples() if t.is_derived]
        assert any(t.provenance.premises for t in derived)
        loaded = loads_graph(dump_graph(graph))
        for t in derived:
            assert explain(loaded, t.key) == explain(graph, t.key)

    def test_premise_cycle_raises(self):
        # a premise cycle is refused when the graph is built, so explain never meets one
        with pytest.raises(ParseError):
            loads_graph("ENT a event Rain\nENT b event Flood\nTRI a causes b DERIVED rule=R a causes b\n")

    def test_deep_chain_of_shared_premises(self):
        # each level cites the one below twice: 2**3000 paths through 3001
        # distinct triples, deeper than the interpreter's recursion limit
        depth = 3000
        lines = [f"ENT e{i} event Rain" for i in range(depth + 2)]
        lines.append("TRI e0 causes e1")
        for i in range(1, depth + 1):
            below = f"e{i - 1} causes e{i}"
            lines.append(f"TRI e{i} causes e{i + 1} DERIVED rule=R {below} {below}")
        graph = loads_graph("\n".join(lines) + "\n")
        tree = explain(graph, (f"e{depth}", RelationKind.CAUSES, f"e{depth + 1}"))
        levels = 0
        while tree.premises:
            assert tree.premises[0] is tree.premises[1]
            tree, levels = tree.premises[0], levels + 1
        assert levels == depth and tree.rule_id is None

    def test_unknown_triple(self, flood_case_a):
        graph, _ = flood_case_a
        with pytest.raises(UnknownTriple):
            explain(graph, ("ev:x", RelationKind.CAUSES, "ev:y"))


def test_diagnostic_render_format():
    d = Diagnostic("R-EFF", ("sit:overflow", "PC_DAM", "ev:remote"), "no-spatial-overlap")
    assert d.render() == "SKIP R-EFF sit:overflow PC_DAM ev:remote reason=no-spatial-overlap"
