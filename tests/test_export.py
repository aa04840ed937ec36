import json

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from geocausal.engine import infer
from geocausal.export import (
    explanation_to_dot,
    explanation_to_json,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
)
from geocausal.graph import SIGNATURES, Derived, KnowledgeGraph, RelationKind, Role
from geocausal.model import GeoEvent, GeoObject, GeoSituation, Measurement
from geocausal.query import Explanation, ExplanationEdge, why
from geocausal.rules import Condition, ConditionOutcome, Truth
from geocausal.storage import dump_graph, loads_graph
from geocausal.units import Categorical, Comparator

import random

from support import (
    PICKS,
    UNLISTED_TIMESTAMPS,
    build_affects_case,
    build_flood_case_b,
    entity_doc,
    explanation_doc,
    graphs,
    graphs_equal,
    iv,
    random_causal_case,
    random_engine_case,
    random_storage_graph,
    triple_doc,
)


class TestDot:
    def test_empty_graph(self):
        dot = graph_to_dot(KnowledgeGraph())
        assert dot.splitlines()[0] == "digraph geocausal {"
        assert dot.rstrip().endswith("}")
        assert len(dot.splitlines()) == 3  # header, rankdir, closing brace

    def test_node_styles(self, flood_case_b):
        graph, _ = flood_case_b
        dot = graph_to_dot(graph)
        assert 'shape=box label="ev:flood\\nFlood"' in dot
        assert 'shape=ellipse label="obj:dam\\nDam"' in dot
        assert "shape=diamond" in dot
        assert "shape=note" in dot

    def test_derived_edges_dashed(self, flood_case_b):
        graph, rules = flood_case_b
        infer(graph, rules)
        dot = graph_to_dot(graph)
        assert '"sit:overflow" -> "ev:flood" [label="effects" style=dashed];' in dot

    def test_explanation_dot_contains_dashed_effects(self, flood_case_b):
        graph, rules = flood_case_b
        infer(graph, rules)
        explanation = why(graph, "ev:flood", rules=rules)
        dot = explanation_to_dot(explanation, graph)
        assert '"sit:overflow" -> "ev:flood" [label="effects" style=dashed];' in dot

    def test_deterministic(self, flood_case_b):
        graph, rules = flood_case_b
        infer(graph, rules)
        assert graph_to_dot(graph) == graph_to_dot(graph)


class TestJson:
    def test_round_trip_fixture(self, flood_case_b):
        graph, rules = flood_case_b
        infer(graph, rules)
        text = graph_to_json(graph)
        loaded = graph_from_json(text)
        assert graphs_equal(graph, loaded)
        assert graph_to_json(loaded) == text
        assert dump_graph(loaded) == dump_graph(graph)

    def test_round_trip_random(self):
        rng = random.Random(77)
        for _ in range(10):
            graph = random_storage_graph(rng, rng.randint(0, 120))
            text = graph_to_json(graph)
            loaded = graph_from_json(text)
            assert graphs_equal(graph, loaded)
            assert graph_to_json(loaded) == text

    def test_document_shape(self, flood_case_b):
        graph, rules = flood_case_b
        infer(graph, rules)
        doc = json.loads(graph_to_json(graph))
        assert doc["format"] == "geocausal-graph"
        roles = {e["id"]: e["role"] for e in doc["entities"]}
        assert roles["ev:flood"] == "event"
        assert roles["obj:dam"] == "object"
        assert roles["sit:overflow"] == "situation"
        assert roles["reg:dam"] == "region"
        derived = [t for t in doc["triples"] if t["provenance"] == "derived"]
        assert derived and all("rule" in t and "premises" in t for t in derived)

    def test_explanation_json(self, flood_case_b):
        graph, rules = flood_case_b
        infer(graph, rules)
        explanation = why(graph, "ev:flood", rules=rules)
        doc = json.loads(explanation_to_json(explanation, graph))
        assert doc["format"] == "geocausal-explanation"
        assert doc["root"] == "ev:flood"
        (edge,) = doc["edges"]
        assert edge["predicate"] == "effects"
        assert edge["precondition"] == "PC_DAM"
        (evidence,) = edge["evidence"]
        assert evidence["attribute"] == "WaterLevel"
        assert evidence["observed"] == "12 m"
        assert evidence["status"] == "true"

    def test_premises_are_keys(self, flood_case_b):
        graph, rules = flood_case_b
        infer(graph, rules)
        doc = json.loads(graph_to_json(graph))
        assert doc["version"] == 2
        (effects,) = [t for t in doc["triples"] if t["predicate"] == "effects"]
        stored = graph.triple(("sit:overflow", RelationKind.EFFECTS, "ev:flood"))
        assert effects["premises"] == [[s, p.value, o] for s, p, o in stored.provenance.premises]
        assert ["sit:overflow", "satisfies", "PC_DAM"] in effects["premises"]

    @pytest.mark.parametrize(
        "entities, triples, where",
        [
            ([{"id": "ev:a", "role": "event"}], [], "entities[0]"),
            ([{"id": "ev:a", "role": "event", "kind": "Rain"}, {"id": "ev:a", "role": "event", "kind": "Rain"}], [], "entities[1]"),
            ([{"id": "reg:r", "role": "region", "geometry": "POINT(0 0)", "start": 3, "end": "2005-08-01"}], [], "entities[0]"),
            ([{"id": "obj:o", "role": "object", "kind": "Dam", "attributes": {"Level": 3}}], [], "entities[0]"),
            (
                [{"id": "ev:a", "role": "event", "kind": "Rain"}],
                [{"subject": "ev:a", "predicate": "part-of", "object": "ev:a",
                  "provenance": "derived", "rule": "R", "premises": [["ev:a", "causes", "ev:a"]]}],
                "triples[0]",
            ),
            (
                [{"id": "ev:a", "role": "event", "kind": "Rain"}],
                [{"subject": "ev:a", "predicate": "part-of", "object": "ev:a",
                  "provenance": "derived", "rule": "R", "premises": [["ev:a", "part-of"]]}],
                "triples[0]",
            ),
            (
                [{"id": "ev:a", "role": "event", "kind": "Rain"}],
                [{"subject": "ev:a", "predicate": ["part-of"], "object": "ev:a"}],
                "triples[0]",
            ),
            (
                [{"id": "ev:a", "role": "event", "kind": "Rain"}],
                [{"subject": "ev:a", "predicate": "part-of", "object": "ev:a", "provenance": "asserted"},
                 {"subject": "ev:a", "predicate": "causes", "object": "ev:a",
                  "provenance": "derivd", "rule": "R", "premises": [["ev:a", "part-of", "ev:a"]]}],
                "triples[1]",
            ),
            (
                [{"id": "ev:a", "role": "event", "kind": "Rain"}],
                [{"subject": "ev:a", "predicate": "part-of", "object": "ev:a"}],
                "triples[0]",
            ),
            ([{"id": "ev:a", "role": "event", "kind": "Rain"},
              {"id": "sit:s", "role": "situation", "kind": "Flood", "start": "2005-08-01", "end": "2005-08-02"}],
             [], "entities[1]"),
            ([{"id": "ev:a", "role": "event", "kind": "Rain", "observations": {"A": "1 m"}}], [], "entities[0]"),
        ],
    )
    def test_malformed_entries_are_parse_errors(self, entities, triples, where):
        from geocausal.errors import ParseError

        doc = {"format": "geocausal-graph", "version": 2, "entities": entities, "triples": triples}
        with pytest.raises(ParseError) as exc:
            graph_from_json(json.dumps(doc))
        assert str(exc.value).startswith(where + ": ")

    @pytest.mark.parametrize("stamp", UNLISTED_TIMESTAMPS)
    @pytest.mark.parametrize("entry", [
        {"id": "r", "role": "region", "geometry": "POINT(0 0)", "end": "2005-08-30"},
        {"id": "s", "role": "situation", "end": "2005-08-30", "observations": {}},
    ])
    def test_an_unlisted_timestamp_form_is_refused_at_its_entry(self, entry, stamp):
        from geocausal.errors import ParseError

        entities = [{"id": "a", "role": "event", "kind": "Rain"}, {**entry, "start": stamp}]
        doc = {"format": "geocausal-graph", "version": 2, "entities": entities, "triples": []}
        with pytest.raises(ParseError) as exc:
            graph_from_json(json.dumps(doc))
        assert str(exc.value) == f"entities[1]: invalid timestamp {stamp!r}"

    @pytest.mark.parametrize("role, fields", [
        ("event", {"kind": "Rain"}),
        ("object", {"kind": "Dam", "attributes": {}}),
        ("situation", {"start": "2005-08-01", "end": "2005-08-02", "observations": {}}),
        ("region", {"geometry": "POINT(0 0)", "start": "2005-08-01", "end": "2005-08-02"}),
    ])
    def test_a_field_of_another_role_is_refused_not_dropped(self, role, fields):
        """An entry loads with its own role's fields only: a field only another
        role's entries carry, or a key no role uses, is a ParseError naming it."""
        from geocausal.errors import ParseError

        def load(entry):
            doc = {"format": "geocausal-graph", "version": 2, "entities": [entry], "triples": []}
            return graph_from_json(json.dumps(doc))

        own = {"id": "x:1", "role": role, **fields}
        assert load(own).entity_count == 1
        with pytest.raises(ParseError, match=rf"^entities\[0\]: {role} records carry no key 'note'$"):
            load({**own, "note": "kept out"})
        foreign = {"kind": "Flood", "attributes": {}, "observations": {"A": "1 m"}, "start": "2005-08-01",
                   "end": "2005-08-02", "geometry": "POINT(0 0)"}
        for field in sorted(set(foreign) - set(fields)):
            with pytest.raises(ParseError, match=rf"^entities\[0\]: {role} records carry no key '{field}'$"):
                load({**own, field: foreign[field]})

    @pytest.mark.parametrize("change, message", [
        ({"premisses": []}, r"triples\[1\]: derived triples carry no key 'premisses'"),
        ({"rule": "R"}, r"triples\[0\]: asserted triples carry no key 'rule'"),
        ({"entites": []}, r"geocausal-graph documents carry no key 'entites'"),
    ], ids=["derived-triple", "asserted-triple", "document"])
    def test_a_key_the_writer_does_not_write_is_refused(self, change, message):
        """A misspelt key would load as if absent: a derived triple with no
        premises, or an empty graph. The message names the key."""
        from geocausal.errors import ParseError

        doc = {"format": "geocausal-graph", "version": 2,
               "entities": [{"id": "ev:a", "role": "event", "kind": "Rain"}],
               "triples": [{"subject": "ev:a", "predicate": "part-of", "object": "ev:a", "provenance": "asserted"},
                           {"subject": "ev:a", "predicate": "causes", "object": "ev:a", "provenance": "derived",
                            "rule": "R", "premises": [["ev:a", "part-of", "ev:a"]]}]}
        assert graph_from_json(json.dumps(doc)).triple_count == 2
        if "entites" in change:
            doc.update(change, triples=[])
        else:
            doc["triples"][0 if "rule" in change else 1].update(change)
        with pytest.raises(ParseError, match=f"^{message}$"):
            graph_from_json(json.dumps(doc))

    def test_a_key_fault_is_reported_at_its_entry_in_reading_order(self):
        """Keys are checked as each entry is read, so a key fault in an entity
        entry is reported before a triple entry that names a missing entity."""
        from geocausal.errors import ParseError

        doc = {"format": "geocausal-graph", "version": 2,
               "entities": [{"id": "ev:a", "role": "event", "kind": "Rain", "note": ""}],
               "triples": [{"subject": "ev:a", "predicate": "causes", "object": "ev:b", "provenance": "asserted"}]}
        with pytest.raises(ParseError, match=r"^entities\[0\]: event records carry no key 'note'$"):
            graph_from_json(json.dumps(doc))
        del doc["entities"][0]["note"]
        with pytest.raises(ParseError, match=r"^triples\[0\]: no entity with id 'ev:b'$"):
            graph_from_json(json.dumps(doc))

    def test_rejects_foreign_documents(self):
        from geocausal.errors import ParseError

        with pytest.raises(ParseError):
            graph_from_json("{}")
        with pytest.raises(ParseError):
            graph_from_json("not json")
        with pytest.raises(ParseError):  # version 1 stored premise counts, not keys
            graph_from_json('{"format": "geocausal-graph", "version": 1}')
        with pytest.raises(ParseError, match=r"^unsupported geocausal-graph version 2\.0$"):  # the integer 2 only
            graph_from_json('{"format": "geocausal-graph", "version": 2.0, "entities": [], "triples": []}')
        with pytest.raises(ParseError):
            graph_from_json('{"format": "geocausal-graph", "version": 2, "entities": [1]}')

    @pytest.mark.parametrize("change, message", [
        ({"entities": {}}, r"'entities' must be a list of objects"),
        ({"triples": ["x"]}, r"'triples' must be a list of objects"),
        ({"triples": [{"subject": 5, "predicate": "part-of", "object": "ev:a", "provenance": "asserted"}]},
         r"triples\[0\]: a triple needs string subject, predicate and object"),
        ({"triples": [{"subject": "ev:a", "predicate": "causes", "object": "ev:a", "provenance": "derived",
                       "rule": "R", "premises": [[1, "causes", "ev:b"]]}]},
         r"triples\[0\]: a triple needs string subject, predicate and object"),
    ], ids=["entities-not-a-list", "triple-not-an-object", "subject-not-a-string", "premise-subject-not-a-string"])
    def test_a_badly_typed_list_or_triple_is_refused(self, change, message):
        from geocausal.errors import ParseError

        doc = {"format": "geocausal-graph", "version": 2,
               "entities": [{"id": "ev:a", "role": "event", "kind": "Rain"}], "triples": []}
        with pytest.raises(ParseError, match=f"^{message}$"):
            graph_from_json(json.dumps({**doc, **change}))


# The message a removed key gives where it selects the record's shape: the
# document's format and version, an entity's role, a triple's provenance.
_SELECTOR_FAULTS = {
    "format": "not a geocausal-graph document",
    "version": "unsupported geocausal-graph version None",
    "role": "unknown entity role None",
    "provenance": "provenance must be 'asserted' or 'derived', got None",
}


@pytest.mark.parametrize("seed", [None, 0, 1, 2], ids=["flood-case-b", "causal-0", "causal-1", "causal-2"])
def test_the_reader_accepts_exactly_the_written_keys(seed):
    """In a document the writer wrote, the first record of each shape (the
    document, each entity role, each provenance) with any one key removed,
    or with one key added that the writer never writes or writes only for
    another shape, is a ParseError naming the entry and the key."""
    from geocausal.errors import ParseError

    graph, rules = build_flood_case_b() if seed is None else random_causal_case(random.Random(seed))
    infer(graph, rules)
    doc = json.loads(graph_to_json(graph))
    shapes = {"document": ("", None, 0, doc, "geocausal-graph documents")}
    for name, selector, noun in (("entities", "role", "records"), ("triples", "provenance", "triples")):
        for i, entry in enumerate(doc[name]):
            shapes.setdefault(entry[selector], (f"{name}[{i}]: ", name, i, entry, f"{entry[selector]} {noun}"))
    if seed is None:
        assert len(shapes) == 7
    every_key = set().union(*(record for _, _, _, record, _ in shapes.values()))
    for shape, (where, name, i, record, what) in shapes.items():
        changes = [({k: v for k, v in record.items() if k != key},
                    _SELECTOR_FAULTS.get(key, f"{what} need key {key!r}")) for key in record]
        changes += [({**record, key: "x"}, f"{what} carry no key {key!r}")
                    for key in (every_key - record.keys()) | {"note"}]
        for changed, message in changes:
            if name is not None:
                changed = {**doc, name: [*doc[name][:i], changed, *doc[name][i + 1:]]}
            with pytest.raises(ParseError) as exc:
                graph_from_json(json.dumps(changed))
            assert str(exc.value) == where + message, shape


def _escaped_graph() -> KnowledgeGraph:
    """Ids, kinds, a rule id and a token that JSON escapes (a backslash,
    non-ASCII and astral characters), an object with no attributes and a
    situation with no observations."""
    graph = KnowledgeGraph()
    graph.add_entity(GeoEvent("ev:a\\b", "Str\u00f6m"))
    graph.add_entity(GeoEvent("ev:\U0001f30a", "Flood"))
    graph.add_entity(GeoObject("obj:\u00e9", "Dam"))
    graph.add_entity(
        GeoObject("obj:x", "Gauge", (Measurement("Note", Categorical("a\\\u00e9\U0001f30a")),))
    )
    graph.add_entity(GeoSituation("sit:\u2205", iv(0, 1), ()))
    graph.assert_triple("obj:\u00e9", RelationKind.SETTING, "sit:\u2205")
    graph.add_triple(
        "ev:a\\b", RelationKind.CAUSES, "ev:\U0001f30a",
        Derived("R-CAU:\u00e9\\", (("obj:\u00e9", RelationKind.SETTING, "sit:\u2205"),)),
    )
    return graph


# Derived triples with no premises, as a version 1 workspace loads them.
_V1 = (
    "# geocausal graph v1\nENT ev:a event Rain\nENT ev:b event Flood\n"
    "TRI ev:a causes ev:b DERIVED rule=R-CAU:R1 premises=2\n"
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(graphs())
@example(KnowledgeGraph())
@example(_escaped_graph())
@example(loads_graph(_V1))
def test_graph_json_is_json_dumps_indent_2(graph):
    """The export writes, byte for byte, what ``json.dumps(indent=2)``
    writes for the graph's document."""
    doc = {
        "format": "geocausal-graph",
        "version": 2,
        "entities": [entity_doc(e) for e in graph.entities()],
        "triples": [triple_doc(t) for t in graph.triples()],
    }
    assert graph_to_json(graph) == json.dumps(doc, indent=2) + "\n"


_WHY_RELATIONS = (RelationKind.CAUSES, RelationKind.EFFECTS, RelationKind.AFFECTS)


@st.composite
def explanations(draw):
    """A why-query over an inferred ``random_engine_case`` graph, with up to
    six causes, effects and affects edges asserted on top (cycles among
    them), at depth 0, 1, 3, 10 or 100; and the graph. Half the roots are
    picked among the events that have a cause."""
    graph, rules = random_engine_case(random.Random(draw(st.integers(0, 2**32 - 1))))
    infer(graph, rules)
    ids: dict[Role, list[str]] = {}
    for entity in graph.entities():
        ids.setdefault(entity.role, []).append(entity.id)
    for predicate in draw(st.lists(st.sampled_from(_WHY_RELATIONS), max_size=6)):
        ((subject_role, object_role),) = SIGNATURES[predicate]
        subjects, objects = ids.get(subject_role), ids.get(object_role)
        if subjects and objects:
            key = (subjects[draw(PICKS) % len(subjects)], predicate, objects[draw(PICKS) % len(objects)])
            if not graph.has_triple(*key):
                graph.assert_triple(*key)
    events = [e.id for e in graph.entities() if isinstance(e, GeoEvent)]
    caused = sorted({t.object for t in graph.triples()
                     if t.predicate in (RelationKind.CAUSES, RelationKind.EFFECTS)})
    if caused and draw(st.booleans()):
        events = caused
    assume(events)
    root = events[draw(PICKS) % len(events)]
    return why(graph, root, draw(st.sampled_from([0, 1, 3, 10, 100])), rules), graph


def _affects_explanation():
    graph, rules = build_affects_case()
    return why(graph, "ev:flood", rules=rules), graph


def _escaped_explanation():
    """Over ``_escaped_graph``: escaped ids, precondition id and observed
    value (a threshold is a grammar token, so it needs no escape), null
    thresholds, observations and preconditions, and a truncated walk."""
    graph = _escaped_graph()
    graph.assert_triple("sit:\u2205", RelationKind.EFFECTS, "ev:\U0001f30a")
    graph.assert_triple("sit:\u2205", RelationKind.AFFECTS, "obj:\u00e9")
    evidence = (
        (Condition("Note", Comparator.EQ, Categorical("calm")),
         ConditionOutcome(Truth.FALSE, Categorical("a\\\u00e9\U0001f30a"))),
        (Condition("Debris", Comparator.PRESENT), ConditionOutcome(Truth.UNKNOWN)),
    )
    edges = [
        ExplanationEdge(graph.triple(("ev:a\\b", RelationKind.CAUSES, "ev:\U0001f30a")), 1),
        ExplanationEdge(
            graph.triple(("sit:\u2205", RelationKind.EFFECTS, "ev:\U0001f30a")), 1, "PC:\u00e9\\", evidence
        ),
    ]
    affects = graph.match(subject="sit:\u2205", predicate=RelationKind.AFFECTS)
    nodes = ["ev:\U0001f30a", "ev:a\\b", "sit:\u2205"]
    return Explanation("ev:\U0001f30a", nodes, edges, affects, depth_reached=1, truncated=True), graph


@settings(derandomize=True, max_examples=200, deadline=None)
@given(explanations())
@example(_affects_explanation())
@example(_escaped_explanation())
@example((Explanation("ev:a"), KnowledgeGraph()))
def test_explanation_json_is_json_dumps_indent_2(case):
    """The why document is, byte for byte, what ``json.dumps(indent=2)``
    writes for it."""
    explanation, graph = case
    doc = explanation_doc(explanation, graph)
    assert explanation_to_json(explanation, graph) == json.dumps(doc, indent=2) + "\n"
