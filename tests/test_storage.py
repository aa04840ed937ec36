import json
import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from geocausal.engine import infer
from geocausal.errors import InvariantViolation, ParseError, SchemaViolation, UnknownEntity
from geocausal.export import graph_from_json, graph_to_json
from geocausal.graph import ASSERTED, Derived, KnowledgeGraph, RelationKind
from geocausal.model import (
    BBox,
    GeoEvent,
    GeoObject,
    GeoSituation,
    Measurement,
    Point,
    SpatioTemporalRegion,
    TimeInterval,
    validate_entity_id,
)
from geocausal.storage import dump_graph, graphs_equal, load_graph, loads_graph, save_graph
from geocausal.units import REGISTRY, Categorical, Quantity

from support import iv, q, random_engine_case, random_storage_graph


class TestRoundTrip:
    def test_empty_graph(self):
        g = KnowledgeGraph()
        assert graphs_equal(g, loads_graph(dump_graph(g)))

    def test_fixture_graph(self, flood_case_a):
        g, _ = flood_case_a
        g.assert_triple("ev:heavyrain", RelationKind.CAUSES, "ev:flashflood")
        loaded = loads_graph(dump_graph(g))
        assert graphs_equal(g, loaded)
        assert dump_graph(loaded) == dump_graph(g)

    def test_measurements_survive(self):
        g = KnowledgeGraph()
        g.add_entity(
            GeoObject(
                "obj:atm",
                "Atmosphere",
                (
                    Measurement("WindSpeed", q(130, "kn")),
                    Measurement("SeaSurfaceTemp", q(27.5, "degC")),
                    Measurement("CoriolisForce", Categorical("present")),
                ),
            )
        )
        g.add_entity(
            GeoSituation("sit:x", iv(0, 6), (Measurement("WaterLevel", q(12, "m")),))
        )
        loaded = loads_graph(dump_graph(g))
        assert loaded.entity("obj:atm") == g.entity("obj:atm")
        assert loaded.entity("sit:x") == g.entity("sit:x")

    def test_derived_provenance_survives(self):
        g = KnowledgeGraph()
        g.add_entity(GeoEvent("ev:a", "Rain"))
        g.add_entity(GeoEvent("ev:b", "Flood"))
        g.add_entity(SpatioTemporalRegion("reg:a", Point(0, 0), iv(0, 1)))
        g.add_entity(SpatioTemporalRegion("reg:b", Point(0, 0), iv(2, 3)))
        premises = (
            ("ev:b", RelationKind.SPATIO_TEMPORALLY_PRESENT, "reg:b"),
            ("ev:a", RelationKind.SPATIO_TEMPORALLY_PRESENT, "reg:a"),
        )
        for premise in premises:
            g.assert_triple(*premise)
        g.add_triple("ev:a", RelationKind.CAUSES, "ev:b", Derived("R-CAU:R1", premises))
        text = dump_graph(g)
        assert (
            "TRI ev:a causes ev:b DERIVED rule=R-CAU:R1 "
            "ev:b spatio-temporally-present reg:b ev:a spatio-temporally-present reg:a"
        ) in text.splitlines()
        loaded = loads_graph(text)
        t = loaded.match(predicate=RelationKind.CAUSES)[0]
        assert t.provenance == Derived("R-CAU:R1", premises)  # keys kept, in stored order
        assert dump_graph(loaded) == text

    def test_file_round_trip(self, tmp_path, flood_case_a):
        g, _ = flood_case_a
        target = tmp_path / "graph.txt"
        save_graph(g, target)
        assert graphs_equal(g, load_graph(target))

    def test_stream_round_trip(self, flood_case_a):
        import io

        g, _ = flood_case_a
        buffer = io.StringIO()
        save_graph(g, buffer)
        buffer.seek(0)
        assert graphs_equal(g, load_graph(buffer))

    def test_randomized_graphs(self):
        rng = random.Random(42)
        for _ in range(15):
            g = random_storage_graph(rng, rng.randint(0, 200))
            text = dump_graph(g)
            loaded = loads_graph(text)
            assert graphs_equal(g, loaded)
            assert dump_graph(loaded) == text


class TestEscapeFree:
    def test_quotes_and_backslashes_reload_unchanged(self):
        g = KnowledgeGraph()
        g.add_entity(GeoEvent("a\\b", "O'Hare"))
        g.add_entity(GeoEvent("x'y", "k\\"))
        g.add_entity(
            GeoObject(
                "obj:'",
                "Gauge",
                (
                    Measurement("Note", Categorical("a\\\\b")),
                    Measurement("Tail", Categorical("ends\\")),
                    Measurement("Mark", Categorical("it's=#")),
                ),
            )
        )
        g.assert_triple("a\\b", RelationKind.CAUSES, "x'y")
        text = dump_graph(g)
        loaded = loads_graph(text)
        assert graphs_equal(g, loaded)
        assert loaded.has_triple("a\\b", RelationKind.CAUSES, "x'y")
        assert loaded.entity("obj:'").attribute("Note") == Categorical("a\\\\b")
        assert dump_graph(loaded) == text

    def test_unbalanced_double_quote(self):
        with pytest.raises(ParseError) as exc:
            loads_graph('ENT ev:a event Rain\nENT obj:o object Gauge Level="3 m\n')
        assert exc.value.line == 2


class TestVersion1Migration:
    V1 = "\n".join(
        [
            "# geocausal graph v1",
            "ENT ev:a event Rain",
            "ENT ev:b event Flood",
            "ENT ev:c event Flood",
            "TRI ev:a causes ev:b DERIVED rule=R-CAU:R1 premises=2",
            "TRI ev:a causes ev:c DERIVED rule=R-CAU:R2 premises=2",
            "",
        ]
    )

    def test_rule_ids_kept_premises_dropped(self):
        g = loads_graph(self.V1)
        assert [t.provenance for t in g.triples()] == [
            Derived("R-CAU:R1", ()),
            Derived("R-CAU:R2", ()),
        ]
        assert dump_graph(g).splitlines() == [
            "# geocausal graph v2",
            "ENT ev:a event Rain",
            "ENT ev:b event Flood",
            "ENT ev:c event Flood",
            "TRI ev:a causes ev:b DERIVED rule=R-CAU:R1",
            "TRI ev:a causes ev:c DERIVED rule=R-CAU:R2",
        ]


class TestDocumentErrors:
    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            loads_graph("# ok\nENT ev:x event\n")
        assert exc.value.line == 2

    def test_schema_violation_at_load(self):
        doc = "\n".join(
            [
                "ENT obj:dam object Dam",
                "ENT ev:flood event Flood",
                "TRI obj:dam causes ev:flood",
            ]
        )
        with pytest.raises(SchemaViolation) as exc:
            loads_graph(doc)
        assert "line 3" in str(exc.value)

    def test_unknown_reference(self):
        with pytest.raises(UnknownEntity):
            loads_graph("ENT ev:a event Rain\nTRI ev:a causes ev:ghost\n")

    def test_unknown_tag(self):
        with pytest.raises(ParseError):
            loads_graph("FOO bar\n")

    def test_unknown_relation_token(self):
        doc = "ENT ev:a event Rain\nENT ev:b event Flood\nTRI ev:a explodes ev:b\n"
        with pytest.raises(ParseError):
            loads_graph(doc)

    def test_duplicate_entity_line(self):
        doc = "ENT ev:a event Rain\nENT ev:a event Flood\n"
        with pytest.raises(ParseError) as exc:
            loads_graph(doc)
        assert exc.value.line == 2

    def test_bad_region(self):
        with pytest.raises(ParseError):
            loads_graph("REG reg:r POINT(91 0) 2005-08-01T00:00:00Z 2005-08-02T00:00:00Z\n")

    def test_situation_needs_bounds(self):
        with pytest.raises(ParseError):
            loads_graph("ENT sit:x situation - .start=2005-08-01T00:00:00Z\n")

    def test_premise_must_name_a_stored_triple(self):
        doc = "ENT ev:a event Rain\nENT ev:b event Flood\nTRI ev:a causes ev:b DERIVED rule=R ev:b causes ev:a\n"
        with pytest.raises(ParseError) as exc:
            loads_graph(doc)
        assert exc.value.line == 3
        assert "ev:b causes ev:a" in str(exc.value)

    @pytest.mark.parametrize("premises", ["ev:a", "ev:a causes", "ev:a causes ev:b ev:a"])
    def test_premise_tokens_come_in_threes(self, premises):
        doc = f"ENT ev:a event Rain\nENT ev:b event Flood\nTRI ev:a causes ev:b DERIVED rule=R {premises}\n"
        with pytest.raises(ParseError) as exc:
            loads_graph(doc)
        assert exc.value.line == 3

    def test_invalid_rule_id(self):
        doc = "ENT ev:a event Rain\nENT ev:b event Flood\nTRI ev:a causes ev:b DERIVED rule=\n"
        with pytest.raises(ParseError) as exc:
            loads_graph(doc)
        assert exc.value.line == 3


class TestPremiseOrder:
    """Triple records may come in any order: each is added after its premises."""

    def test_shuffled_records_load_equal(self):
        with_premises = 0
        for seed in range(100):
            graph, rules = random_engine_case(random.Random(seed))
            infer(graph, rules)
            text = dump_graph(graph)
            lines = text.splitlines()
            triples = [line for line in lines if line.startswith("TRI ")]
            with_premises += any(" DERIVED " in line and "=R-SAT" not in line for line in triples)
            for shuffle_seed in range(4):
                random.Random(shuffle_seed).shuffle(triples)
                shuffled = [line for line in lines if not line.startswith("TRI ")] + triples
                loaded = loads_graph("\n".join(shuffled) + "\n")
                assert graphs_equal(graph, loaded)
                assert dump_graph(loaded) == text
        assert with_premises >= 10

    def test_deep_chain_written_premise_last(self):
        depth = 3000
        lines = [f"ENT e{i} event Rain" for i in range(depth + 2)]
        for i in range(depth, 0, -1):
            lines.append(f"TRI e{i} causes e{i + 1} DERIVED rule=R e{i - 1} causes e{i}")
        lines.append("TRI e0 causes e1")
        graph = loads_graph("\n".join(lines) + "\n")
        assert graph.triple_count == depth + 1
        assert dump_graph(graph) == dump_graph(loads_graph(dump_graph(graph)))

    @pytest.mark.parametrize(
        "records, line",
        [
            (["TRI a causes b DERIVED rule=R a causes b"], 3),
            (["TRI a causes b DERIVED rule=R b causes a", "TRI b causes a DERIVED rule=R a causes b"], 4),
        ],
        ids=["self", "two-record"],
    )
    def test_premise_cycle_names_a_record(self, records, line):
        with pytest.raises(ParseError) as exc:
            loads_graph("\n".join(["ENT a event Rain", "ENT b event Flood", *records]) + "\n")
        assert exc.value.line == line
        assert "leads back" in str(exc.value)
        triples = []
        for record in records:  # the same records as JSON entries
            _, s, p, o, _, _, *premise = record.split()
            triples.append({"subject": s, "predicate": p, "object": o, "provenance": "derived", "rule": "R",
                            "premises": [premise]})
        document = {
            "format": "geocausal-graph",
            "version": 2,
            "entities": [{"id": "a", "role": "event", "kind": "Rain"}, {"id": "b", "role": "event", "kind": "Flood"}],
            "triples": triples,
        }
        with pytest.raises(ParseError, match=rf"^triples\[{line - 3}\]: premise .* leads back"):
            graph_from_json(json.dumps(document))


class TestFormatDetails:
    def test_comments_and_blank_lines_ignored(self):
        doc = "# a comment\n\nENT ev:a event Rain\n   \n# another\n"
        g = loads_graph(doc)
        assert g.entity_count == 1

    def test_triples_may_precede_entities(self):
        doc = "TRI ev:a causes ev:b\nENT ev:a event Rain\nENT ev:b event Flood\n"
        g = loads_graph(doc)
        assert g.triple_count == 1

    def test_output_is_sorted(self):
        g = KnowledgeGraph()
        g.add_entity(GeoEvent("ev:z", "Rain"))
        g.add_entity(GeoEvent("ev:a", "Flood"))
        g.add_entity(SpatioTemporalRegion("reg:m", Point(0, 0), iv(0, 1)))
        g.assert_triple("ev:z", RelationKind.CAUSES, "ev:a")
        g.assert_triple("ev:a", RelationKind.SPATIO_TEMPORALLY_PRESENT, "reg:m")
        lines = dump_graph(g).splitlines()
        assert lines[1].startswith("ENT ev:a")
        assert lines[2].startswith("ENT ev:z")
        assert lines[3].startswith("REG reg:m")
        assert lines[4].startswith("TRI ev:a")
        assert lines[5].startswith("TRI ev:z")


# ---------------------------------------------------------------------------
# Round-trip property over everything the model accepts
# ---------------------------------------------------------------------------


def _accepted_by(check):
    def accepted(char):
        try:
            check(char)
        except InvariantViolation:
            return False
        return True

    return accepted


# Each check is per character, so these are exactly the characters allowed
# in ids and kinds (and rule ids), and in categorical tokens.
_ID_CHARS = st.one_of(
    st.sampled_from("'\\=#:-"),
    st.characters().filter(_accepted_by(validate_entity_id)),
)
_TOKEN_CHARS = st.one_of(
    st.sampled_from("'\\=#"),
    st.characters().filter(_accepted_by(Categorical)),
)
IDS = st.text(_ID_CHARS, min_size=1, max_size=6)
VALUES = st.one_of(
    st.text(_TOKEN_CHARS, min_size=1, max_size=6).map(Categorical),
    st.builds(
        Quantity,
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(sorted(REGISTRY)).map(REGISTRY.get),
    ),
)
MEASUREMENTS = st.dictionaries(
    st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,5}", fullmatch=True), VALUES, max_size=3
).map(lambda values: tuple(Measurement(name, value) for name, value in values.items()))
INSTANTS = st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59),
    timezones=st.just(timezone.utc),
)
INTERVALS = st.lists(INSTANTS, min_size=2, max_size=2).map(lambda pair: TimeInterval(*sorted(pair)))
LATS = st.floats(-90, 90)
LONS = st.floats(-180, 180)
GEOMETRIES = st.one_of(
    st.builds(Point, LATS, LONS),
    st.tuples(LATS, LATS, LONS, LONS).map(
        lambda c: BBox(min(c[0], c[1]), min(c[2], c[3]), max(c[0], c[1]), max(c[2], c[3]))
    ),
)


# (constructor, arguments after the id); strategies are built once, here,
# because building them inside a draw makes Hypothesis validate them anew.
ENTITY_PARTS = st.one_of(
    st.tuples(st.just(GeoEvent), IDS),
    st.tuples(st.just(GeoObject), IDS, MEASUREMENTS),
    st.tuples(st.just(GeoSituation), INTERVALS, MEASUREMENTS),
    st.tuples(st.just(SpatioTemporalRegion), GEOMETRIES, INTERVALS),
)
PREDICATES = st.sampled_from(
    [r for r in RelationKind if r not in (RelationKind.HAS_GEOMETRY, RelationKind.TIME)]
)
PICKS = st.integers(0, 63)  # an index into a list, taken modulo its length


@st.composite
def graphs(draw):
    """Any entities, and schema-valid triples; derived ones cite triples
    added before them as premises."""
    graph = KnowledgeGraph()
    for entity_id in draw(st.lists(IDS, max_size=8, unique=True)):
        constructor, *args = draw(ENTITY_PARTS)
        graph.add_entity(constructor(entity_id, *args))
    ids = [e.id for e in graph.entities()]
    keys = []
    for _ in range(draw(st.integers(0, 12)) if ids else 0):
        predicate = draw(PREDICATES)
        subject = ids[draw(PICKS) % len(ids)]
        if predicate is RelationKind.SATISFIES:
            object_ = draw(IDS)
        else:
            object_ = ids[draw(PICKS) % len(ids)]
        provenance = ASSERTED
        if draw(st.booleans()):
            picks = draw(st.lists(PICKS, max_size=3)) if keys else []
            provenance = Derived(draw(IDS), tuple(keys[i % len(keys)] for i in picks))
        if graph.has_triple(subject, predicate, object_):
            continue
        try:
            graph.add_triple(subject, predicate, object_, provenance)
        except SchemaViolation:
            continue
        keys.append((subject, predicate, object_))
    return graph


@settings(derandomize=True, max_examples=150, deadline=None)
@given(graphs())
def test_round_trip_property(graph):
    text = dump_graph(graph)
    loaded = loads_graph(text)
    assert graphs_equal(graph, loaded)
    assert dump_graph(loaded) == text
    document = graph_to_json(graph)
    from_json = graph_from_json(document)
    assert graphs_equal(graph, from_json)
    assert graph_to_json(from_json) == document


def test_only_storage_opens_files():
    """``storage.read_text`` is the one place a file's bytes become text and
    ``write_text_atomic`` the one write path, so no other module of the
    package opens a file or calls a Path read or write method."""
    import ast
    from pathlib import Path

    import geocausal

    file_calls = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
    found = []
    for module in sorted(Path(geocausal.__file__).parent.glob("*.py")):
        if module.name == "storage.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in file_calls) or (
                isinstance(func, ast.Name) and func.id == "open"
            ):
                found.append(f"{module.name}:{node.lineno}")
    assert found == []
