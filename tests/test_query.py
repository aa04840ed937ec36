import importlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from geocausal.engine import infer
from geocausal.errors import ConfigError, NotAnEvent, PatternParseError, UnknownEntity, UnknownRelation
from geocausal.export import explanation_to_dot, explanation_to_json
from geocausal.graph import Derived, KnowledgeGraph, RelationKind, Role
from geocausal.model import GeoEvent, GeoSituation, Measurement
from geocausal.query import parse_pattern, query, render_explanation_text, why
from geocausal.rules import Condition, ConditionOutcome, RuleSet, Truth, parse_rules
from geocausal.units import Categorical, Comparator

from support import build_affects_case, iv, q, random_engine_case

# The package binds the name ``query`` to the function.
query_module = importlib.import_module("geocausal.query")


def causes_graph(n: int, edges) -> KnowledgeGraph:
    """Events ev:0 .. ev:<n-1>, with an asserted causes edge for each
    (cause, effect) pair of ``edges``."""
    graph = KnowledgeGraph()
    for i in range(n):
        graph.add_entity(GeoEvent(f"ev:{i}", "Storm"))
    for a, b in edges:
        graph.assert_triple(f"ev:{a}", RelationKind.CAUSES, f"ev:{b}")
    return graph


@st.composite
def why_cases(draw):
    """An inferred ``random_engine_case`` graph, or asserted causes edges
    among a few events: cycles, self-loops and diamonds included."""
    if draw(st.booleans()):
        graph, rules = random_engine_case(random.Random(draw(st.integers(0, 2**32 - 1))))
        infer(graph, rules)
        return graph, rules
    n = draw(st.integers(1, 7))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    return causes_graph(n, sorted(edges)), None


class TestWhy:
    def test_event_with_no_causes(self):
        graph = KnowledgeGraph()
        graph.add_entity(GeoEvent("ev:lonely", "Flood"))
        explanation = why(graph, "ev:lonely")
        assert explanation.root == "ev:lonely"
        assert explanation.edges == []
        assert explanation.depth_reached == 0
        assert not explanation.truncated

    def test_unknown_event(self):
        with pytest.raises(UnknownEntity):
            why(KnowledgeGraph(), "ev:ghost")

    def test_not_an_event(self, flood_case_b):
        graph, _ = flood_case_b
        with pytest.raises(NotAnEvent):
            why(graph, "obj:dam")

    def test_dam_evidence_attached(self, flood_case_b):
        graph, rules = flood_case_b
        infer(graph, rules)
        explanation = why(graph, "ev:flood", rules=rules)
        assert [e.triple.predicate for e in explanation.edges] == [RelationKind.EFFECTS]
        edge = explanation.edges[0]
        assert edge.precondition_id == "PC_DAM"
        [(condition, outcome)] = edge.evidence
        assert condition == Condition("WaterLevel", Comparator.GT, q(10, "m"))
        assert outcome == ConditionOutcome(Truth.TRUE, q(12, "m"))

    def test_effects_edge_whose_precondition_is_not_in_the_rules(self):
        graph = KnowledgeGraph()
        graph.add_entity(GeoSituation("sit:a", iv(0, 1)))
        graph.add_entity(GeoEvent("ev:b", "Flood"))
        graph.add_triple("sit:a", RelationKind.SATISFIES, "PC_X", Derived("R-SAT:PC_X"))
        graph.add_triple("sit:a", RelationKind.EFFECTS, "ev:b", Derived("R-EFF:PC_X"))
        explanation = why(graph, "ev:b", rules=RuleSet())
        [edge] = explanation.edges
        assert edge.precondition_id is None and edge.evidence == ()
        assert render_explanation_text(explanation, graph).splitlines() == [
            "ev:b (Flood)",
            "  <- effects -- sit:a (situation)",
        ]
        [doc] = json.loads(explanation_to_json(explanation, graph))["edges"]
        assert doc["rule"] == "R-EFF:PC_X" and doc["precondition"] is None

    def test_stale_rules_name_the_satisfied_precondition_of_the_event_kind(self):
        """The edge's R-EFF set is gone from the rules; the situation's other
        satisfied set of the event's kind is named instead."""
        graph = KnowledgeGraph()
        graph.add_entity(GeoSituation("sit:a", iv(0, 1), (Measurement("WaterLevel", q(20, "m")),)))
        graph.add_entity(GeoEvent("ev:b", "Flood"))
        graph.add_triple("sit:a", RelationKind.SATISFIES, "PC_X", Derived("R-SAT:PC_X"))
        graph.add_triple("sit:a", RelationKind.SATISFIES, "PC_Y", Derived("R-SAT:PC_Y"))
        graph.add_triple("sit:a", RelationKind.EFFECTS, "ev:b", Derived("R-EFF:PC_X"))
        rules = parse_rules("precondition PC_Y effects Flood { WaterLevel > 15 m }\n")
        explanation = why(graph, "ev:b", rules=rules)
        [edge] = explanation.edges
        assert edge.precondition_id == "PC_Y"
        assert edge.evidence == (
            (Condition("WaterLevel", Comparator.GT, q(15, "m")), ConditionOutcome(Truth.TRUE, q(20, "m"))),
        )
        [doc] = json.loads(explanation_to_json(explanation, graph))["edges"]
        assert doc["rule"] == "R-EFF:PC_X" and doc["precondition"] == "PC_Y"

    def test_evidence_of_each_status_in_text_and_json(self):
        """An asserted effects edge: the evidence is for the situation's
        satisfies edge, with a value of another dimension (false), no
        observation (unknown), a unary comparator and a categorical."""
        graph = KnowledgeGraph()
        graph.add_entity(GeoSituation("sit:a", iv(0, 1), (
            Measurement("WaterLevel", q(12, "degC")),
            Measurement("Debris", Categorical("present")),
            Measurement("Spillway", Categorical("open")),
        )))
        graph.add_entity(GeoEvent("ev:flood", "Flood"))
        graph.assert_triple("sit:a", RelationKind.SATISFIES, "PC_X")
        graph.assert_triple("sit:a", RelationKind.EFFECTS, "ev:flood")
        rules = parse_rules(
            "precondition PC_X effects Flood "
            "{ WaterLevel > 10 m; InflowRate > 3 m/s; Debris present; Spillway = open }\n"
        )
        explanation = why(graph, "ev:flood", rules=rules)
        assert render_explanation_text(explanation, graph).splitlines() == [
            "ev:flood (Flood)",
            "  <- effects -- sit:a (situation)",
            "       evidence [PC_X]: WaterLevel > 10 m (observed 12 degC) => false",
            "       evidence [PC_X]: InflowRate > 3 m/s (not observed) => unknown",
            "       evidence [PC_X]: Debris present (observed present) => true",
            "       evidence [PC_X]: Spillway = open (observed open) => true",
        ]
        [edge] = json.loads(explanation_to_json(explanation, graph))["edges"]
        assert edge["precondition"] == "PC_X"
        assert edge["evidence"] == [
            {"attribute": "WaterLevel", "comparator": ">", "threshold": "10 m",
             "observed": "12 degC", "status": "false"},
            {"attribute": "InflowRate", "comparator": ">", "threshold": "3 m/s",
             "observed": None, "status": "unknown"},
            {"attribute": "Debris", "comparator": "present", "threshold": None,
             "observed": "present", "status": "true"},
            {"attribute": "Spillway", "comparator": "=", "threshold": "open",
             "observed": "open", "status": "true"},
        ]

    @staticmethod
    def _two_preconditions_case() -> tuple[KnowledgeGraph, RuleSet]:
        """A situation satisfying PC_A (effects Drought) and PC_B (effects
        Flood), with an asserted effects edge to a flood."""
        graph = KnowledgeGraph()
        graph.add_entity(GeoSituation("sit:a", iv(0, 1), (
            Measurement("Rain", q(5, "m")), Measurement("WaterLevel", q(20, "m")),
        )))
        graph.add_entity(GeoEvent("ev:flood", "Flood"))
        graph.assert_triple("sit:a", RelationKind.EFFECTS, "ev:flood")
        rules = parse_rules(
            "precondition PC_A effects Drought { Rain > 1 m }\n"
            "precondition PC_B effects Flood { WaterLevel > 15 m }\n"
        )
        infer(graph, rules)
        assert [t.object for t in graph.match(subject="sit:a", predicate=RelationKind.SATISFIES)] == [
            "PC_A", "PC_B"
        ]
        return graph, rules

    def test_evidence_is_for_a_precondition_that_effects_the_event(self):
        graph, rules = self._two_preconditions_case()
        explanation = why(graph, "ev:flood", rules=rules)
        assert render_explanation_text(explanation, graph).splitlines() == [
            "ev:flood (Flood)",
            "  <- effects -- sit:a (situation)",
            "       evidence [PC_B]: WaterLevel > 15 m (observed 20 m) => true",
        ]

    def test_no_evidence_where_no_satisfied_precondition_effects_the_event(self):
        graph, rules = self._two_preconditions_case()
        graph.add_entity(GeoEvent("ev:storm", "Storm"))
        graph.assert_triple("sit:a", RelationKind.EFFECTS, "ev:storm")
        [edge] = why(graph, "ev:storm", rules=rules).edges
        assert edge.precondition_id is None and edge.evidence == ()

    def test_without_rules_no_precondition_is_named(self, flood_case_b):
        """Which precondition effects which event kind is in the rules, so
        without them an asserted and an R-EFF-derived edge name none."""
        graph, _ = self._two_preconditions_case()
        [edge] = why(graph, "ev:flood").edges
        assert edge.precondition_id is None and edge.evidence == ()
        graph, rules = flood_case_b
        infer(graph, rules)
        [edge] = why(graph, "ev:flood").edges
        assert edge.triple.provenance.rule_id == "R-EFF:PC_DAM"
        assert edge.precondition_id is None and edge.evidence == ()

    def test_chain_depth_behaviour(self, chain_case):
        graph, rules = chain_case
        infer(graph, rules)
        full = why(graph, "ev:flashflood", max_depth=3, rules=rules)
        causal = {(e.triple.subject, e.triple.predicate, e.triple.object) for e in full.edges}
        assert causal == {
            ("ev:heavyrain", RelationKind.CAUSES, "ev:flashflood"),
            ("sit:overflow", RelationKind.EFFECTS, "ev:flashflood"),
            ("ev:tropicalstorm", RelationKind.CAUSES, "ev:heavyrain"),
        }
        assert full.depth_reached == 2
        assert "sit:overflow" in full.nodes and "ev:tropicalstorm" in full.nodes

    def test_negative_depth_is_refused(self, chain_case):
        graph, rules = chain_case
        infer(graph, rules)
        with pytest.raises(ConfigError) as exc:
            why(graph, "ev:flashflood", max_depth=-1, rules=rules)
        assert str(exc.value) == "max_depth must be 0 or more, got -1"
        assert why(graph, "ev:flashflood", max_depth=0).edges == []

    def test_monotone_in_depth(self, chain_case):
        graph, rules = chain_case
        infer(graph, rules)
        shallow = why(graph, "ev:flashflood", max_depth=1, rules=rules)
        deep = why(graph, "ev:flashflood", max_depth=3, rules=rules)
        shallow_keys = {e.triple.key for e in shallow.edges}
        deep_keys = {e.triple.key for e in deep.edges}
        assert shallow_keys <= deep_keys
        assert shallow.truncated and not deep.truncated

    def test_cycle_broken(self):
        graph = KnowledgeGraph()
        graph.add_entity(GeoEvent("ev:a", "Storm"))
        graph.add_entity(GeoEvent("ev:b", "Flood"))
        graph.assert_triple("ev:a", RelationKind.CAUSES, "ev:b")
        graph.assert_triple("ev:b", RelationKind.CAUSES, "ev:a")
        explanation = why(graph, "ev:b", max_depth=10)
        keys = {e.triple.key for e in explanation.edges}
        assert keys == {("ev:a", RelationKind.CAUSES, "ev:b")}

    def test_truncated_only_when_a_deeper_walk_adds_an_edge(self):
        # Back from ev:1, the edge ev:1 -> ev:0 closes a cycle, so depth 1
        # already holds every edge there is.
        cycle = causes_graph(2, [(0, 1), (1, 0)])
        for depth in (1, 2, 3):
            explanation = why(cycle, "ev:1", max_depth=depth)
            assert len(explanation.edges) == 1 and not explanation.truncated
        explanation = why(cycle, "ev:1", max_depth=1)
        assert "truncated" not in render_explanation_text(explanation, cycle)
        assert json.loads(explanation_to_json(explanation, cycle))["truncated"] is False
        # A chain cut off by the bound is still truncated.
        chain = causes_graph(3, [(0, 1), (1, 2)])
        explanation = why(chain, "ev:2", max_depth=1)
        assert explanation.truncated
        assert render_explanation_text(explanation, chain).endswith("... truncated at depth 1")
        assert json.loads(explanation_to_json(explanation, chain))["truncated"] is True
        assert not why(chain, "ev:2", max_depth=2).truncated

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(why_cases())
    def test_truncated_exactly_when_one_more_level_adds_an_edge(self, case):
        graph, rules = case
        for event in graph.entities(Role.EVENT):
            for depth in (0, 1, 2, 3):
                explanation = why(graph, event.id, max_depth=depth, rules=rules)
                deeper = why(graph, event.id, max_depth=depth + 1, rules=rules)
                assert explanation.truncated == (len(deeper.edges) > len(explanation.edges))

    def test_text_rendering(self, chain_case):
        graph, rules = chain_case
        infer(graph, rules)
        text = render_explanation_text(why(graph, "ev:flashflood", max_depth=3, rules=rules), graph)
        assert "<- causes -- ev:heavyrain (HeavyRain)" in text
        assert "<- effects -- sit:overflow (situation)" in text
        assert "WaterLevel > 10 m" in text and "12 m" in text
        # nested edge indented deeper than its parent
        rain_line = next(l for l in text.splitlines() if "ev:heavyrain" in l and "causes" in l)
        storm_line = next(l for l in text.splitlines() if "ev:tropicalstorm" in l)
        assert len(storm_line) - len(storm_line.lstrip()) > len(rain_line) - len(rain_line.lstrip())

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(why_cases())
    def test_text_has_one_line_per_edge(self, case):
        graph, rules = case
        for event in graph.entities(Role.EVENT):
            for depth in (1, 3, 10):
                explanation = why(graph, event.id, max_depth=depth, rules=rules)
                text = render_explanation_text(explanation, graph)
                arrows = [line.split() for line in text.splitlines() if line.lstrip().startswith("<- ")]
                assert sorted((a[1], a[3]) for a in arrows) == sorted(
                    (e.triple.predicate.value, e.triple.subject) for e in explanation.edges
                )

    def test_stacked_diamonds_print_each_edge_once(self):
        # 2**16 paths from the top to the bottom over 64 edges
        edges = []
        for k in range(16):
            edges += [(3 * k, 3 * k + 1), (3 * k, 3 * k + 2), (3 * k + 1, 3 * k + 3), (3 * k + 2, 3 * k + 3)]
        graph = causes_graph(49, edges)
        explanation = why(graph, "ev:48", max_depth=32)
        assert len(explanation.edges) == 64 and not explanation.truncated
        lines = render_explanation_text(explanation, graph).splitlines()
        assert len(lines) == 65
        # the shared cause ev:45 is expanded under its first edge only
        assert lines[:4] == [
            "ev:48 (Storm)",
            "  <- causes -- ev:46 (Storm)",
            "    <- causes -- ev:45 (Storm)",
            "      <- causes -- ev:43 (Storm)",
        ]
        assert lines.count("  <- causes -- ev:47 (Storm)") == 1
        assert lines[lines.index("  <- causes -- ev:47 (Storm)") + 1] == "    <- causes -- ev:45 (Storm)"

    def test_reachability_walks_only_where_a_cycle_can_close(self, monkeypatch):
        # A count, not a time, so it holds on any machine. A walk for every
        # edge would make a why down a chain quadratic.
        n = 2000
        graph = causes_graph(n, [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)])
        walks = 0
        reachable = query_module.reachable

        def counted(*args):
            nonlocal walks
            walks += 1
            return reachable(*args)

        monkeypatch.setattr(query_module, "reachable", counted)
        explanation = why(graph, f"ev:{n - 1}", max_depth=n)
        assert len(explanation.edges) == n - 1 and not explanation.truncated
        assert (f"ev:{n - 1}", RelationKind.CAUSES, "ev:0") not in {e.triple.key for e in explanation.edges}
        assert walks == 1  # only the edge back to the root is met from a node already reached

    def test_why_never_mutates_the_graph(self, chain_case):
        from geocausal.storage import dump_graph

        graph, rules = chain_case
        infer(graph, rules)
        before = dump_graph(graph)
        explanation = why(graph, "ev:flashflood", max_depth=3, rules=rules)
        assert dump_graph(graph) == before
        # every explanation edge is a stored triple
        for edge in explanation.edges:
            assert graph.has_triple(*edge.triple.key)

    def test_affects_side_information(self):
        graph, rules = build_affects_case()
        explanation = why(graph, "ev:flood", rules=rules)
        assert [(t.subject, t.object) for t in explanation.affects] == [("sit:overflow", "obj:dam")]
        assert render_explanation_text(explanation, graph).splitlines() == [
            "ev:flood (Flood)",
            "  <- effects -- sit:overflow (situation)",
            "       evidence [PC_DAM]: WaterLevel > 10 m (observed 12 m) => true",
            "       affects: obj:dam (Dam)",
        ]
        # the affected object is no node of the walk, so it gets a node line of its own
        assert explanation_to_dot(explanation, graph).splitlines() == [
            "digraph explanation {",
            "  rankdir=RL;",
            '  "ev:flood" [shape=box label="ev:flood\\nFlood"];',
            '  "sit:overflow" [shape=diamond label="sit:overflow"];',
            '  "obj:dam" [shape=ellipse label="obj:dam\\nDam"];',
            '  "sit:overflow" -> "ev:flood" [label="effects"];',
            '  "sit:overflow" -> "obj:dam" [label="affects" style=dashed];',
            "}",
        ]
        assert json.loads(explanation_to_json(explanation, graph))["affects"] == [{
            "subject": "sit:overflow",
            "predicate": "affects",
            "object": "obj:dam",
            "provenance": "derived",
            "rule": "R-AFF",
            "premises": [
                ["ev:companion", "setting", "sit:overflow"],
                ["obj:dam", "participant-in", "ev:companion"],
            ],
        }]


class TestPatterns:
    def test_wildcards(self, flood_case_a):
        graph, rules = flood_case_a
        infer(graph, rules)
        assert len(query(graph, "? ? ?")) == graph.triple_count
        found = query(graph, "? causes ev:flashflood")
        assert [(t.subject, t.object) for t in found] == [("ev:heavyrain", "ev:flashflood")]
        assert query(graph, "ev:heavyrain causes ?")[0].object == "ev:flashflood"

    def test_empty_graph(self):
        assert query(KnowledgeGraph(), "? ? ?") == []

    def test_unknown_relation_lists_tokens(self):
        with pytest.raises(UnknownRelation) as exc:
            parse_pattern("ev:x partof ?")
        message = str(exc.value)
        assert "part-of" in message and "causes" in message
        assert isinstance(exc.value, PatternParseError)

    @pytest.mark.parametrize("bad", ["", "? ?", "a b c d"])
    def test_arity_errors(self, bad):
        with pytest.raises(PatternParseError):
            parse_pattern(bad)

    def test_all_relation_tokens_accepted(self):
        for token in [
            "part-of", "spatio-temporally-present", "participant-in", "has-geometry",
            "time", "setting", "satisfies", "causes", "effects", "affects",
        ]:
            subject, predicate, object_ = parse_pattern(f"? {token} ?")
            assert predicate is not None
