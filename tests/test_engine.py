import random
from datetime import timedelta

import pytest

from geocausal.engine import Diagnostic, EngineConfig, explain, infer
from geocausal.errors import ConfigError, ProvenanceCycle, UnknownTriple
from geocausal.graph import KnowledgeGraph, RelationKind
from geocausal.model import BBox, GeoEvent, GeoObject, GeoSituation, Measurement, Point, SpatioTemporalRegion
from geocausal.rules import RuleSet, parse_rules
from geocausal.storage import dump_graph, loads_graph

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
        graph = loads_graph(
            "ENT a event Rain\nENT b event Flood\nTRI a causes b DERIVED rule=R a causes b\n"
        )
        with pytest.raises(ProvenanceCycle):
            explain(graph, ("a", RelationKind.CAUSES, "b"))

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
