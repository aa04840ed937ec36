import contextlib
import functools
import gc
import io
import json
import os
import random
import re
import stat

import pytest
from hypothesis import given, settings, strategies as st

from geocausal.engine import infer
from geocausal import storage
from geocausal.errors import GeoCausalError, ParseError
from geocausal.export import graph_from_json, graph_to_json
from geocausal.graph import ASSERTED, RELATION_TOKENS, Derived, KnowledgeGraph, RelationKind
from geocausal.model import (
    GeoEvent,
    GeoObject,
    GeoSituation,
    Measurement,
    Point,
    SpatioTemporalRegion,
    TimeInterval,
)
from geocausal.storage import (
    dump_graph, load_graph, loads_graph, parse_geometry, save_graph, write_text_atomic,
)
from geocausal.units import Categorical, parse_value

from support import (
    MUTATIONS, UNLISTED_TIMESTAMPS, graphs, graphs_equal, iv, katrina_csv, mutate_document, q, random_causal_case,
    random_engine_case, random_storage_graph,
)


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
        assert Measurement("Note", Categorical("a\\\\b")) in loaded.entity("obj:'").attributes
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


# One single-fault document per fault ``loads_graph`` can reach, with the
# exact message it reports: the loader's own record checks, then the model,
# unit and graph faults raised while a record is built or added.
LOADER_FAULTS = [
    pytest.param('FOO bar\n', 1, "unknown record tag 'FOO'", id='unknown-tag'),
    pytest.param('# header\nENT a event\n', 2, 'ENT record needs at least <id> <role> <kind>', id='ent-too-short'),
    pytest.param('ENT o object Gauge Level="3 m\n', 1, 'unbalanced double quote', id='unbalanced-quote'),
    pytest.param('ENT o object Gauge Level\n', 1, "expected key=value attribute, got 'Level'", id='attribute-not-key-value'),
    pytest.param('ENT o object Gauge Level="3 m" Level="4 m"\n', 1, "duplicate attribute key 'Level'", id='duplicate-attribute-key'),
    pytest.param('ENT x thing Rain\n', 1, "unknown entity role 'thing'", id='unknown-role'),
    pytest.param('ENT a event Rain Level="3 m"\n', 1, 'event records carry no attributes', id='event-with-attributes'),
    pytest.param('ENT s situation Flood .start=2005-01-01T00:00:00Z .end=2005-01-02T00:00:00Z\n', 1, "a situation record has '-' in the kind slot, got 'Flood'", id='situation-with-kind'),
    pytest.param('ENT r region K\n', 1, 'a region is a REG record, not an ENT record', id='region-as-ent'),
    pytest.param('ENT s situation - .end=2005-08-02T00:00:00Z\n', 1, "situation record needs a string 'start'", id='situation-without-start'),
    pytest.param('ENT s situation - .start=2005-08-01T00:00:00Z\n', 1, "situation record needs a string 'end'", id='situation-without-end'),
    pytest.param('ENT s situation - .start=yesterday .end=2005-08-02T00:00:00Z\n', 1, "invalid timestamp 'yesterday'", id='invalid-timestamp'),
    pytest.param('ENT s situation - .start=0001-01-01T00:00:00+01:00 .end=2005-08-02T00:00:00Z\n', 1, 'timestamp 0001-01-01T00:00:00+01:00 is outside years 1-9999 UTC', id='timestamp-before-year-1'),
    pytest.param('ENT s situation - .start=2005-08-02T00:00:00Z .end=2005-08-01T00:00:00Z\n', 1, 'interval start 2005-08-02T00:00:00Z is after end 2005-08-01T00:00:00Z', id='interval-order'),
    pytest.param('ENT o object Gauge 1x="3 m"\n', 1, "attribute name '1x' must match [A-Za-z][A-Za-z0-9_]*", id='attribute-name'),
    pytest.param('ENT o object Gauge Level=""\n', 1, 'empty measurement value', id='empty-value'),
    pytest.param('ENT o object Gauge Level="x m"\n', 1, "invalid quantity literal 'x m'", id='invalid-quantity'),
    pytest.param('ENT o object Gauge Level="3 furlong"\n', 1, "unknown unit 'furlong' (registered: 1, K, Pa, atm, degC, degF, hPa, km, km/h, kn, m, m/s, mb, mi, mph)", id='unknown-unit'),
    pytest.param('ENT o object Gauge Level="inf m"\n', 1, 'quantity magnitude must be finite, got inf', id='non-finite-magnitude'),
    pytest.param('ENT o object Gauge Level="a\tb"\n', 1, "categorical token 'a\\tb' must be a single bare word", id='categorical-token'),
    pytest.param('ENT a\x01 event Rain\n', 1, "entity id 'a\\x01' must not contain whitespace, control, quote or surrogate characters", id='id-control-character'),
    pytest.param('ENT a event Ra\x01in\n', 1, "kind 'Ra\\x01in' must not contain whitespace, control, quote or surrogate characters", id='kind-control-character'),
    pytest.param('ENT a event Rain\nENT a event Flood\n', 2, "entity id 'a' already present", id='repeated-id'),
    pytest.param('REG r POINT(1 2)\n', 1, 'malformed REG record', id='malformed-region'),
    pytest.param('REG r POINT(x 2) 2005-08-01T00:00:00Z 2005-08-02T00:00:00Z\n', 1, "invalid coordinates in 'POINT(x 2)'", id='invalid-coordinates'),
    pytest.param('REG r POINT(1) 2005-08-01T00:00:00Z 2005-08-02T00:00:00Z\n', 1, 'POINT takes 2 coordinates, got 1', id='point-arity'),
    pytest.param('REG r BBOX(1 2 3) 2005-08-01T00:00:00Z 2005-08-02T00:00:00Z\n', 1, 'BBOX takes 4 coordinates, got 3', id='bbox-arity'),
    pytest.param('REG r POINT(91 0) 2005-08-01T00:00:00Z 2005-08-02T00:00:00Z\n', 1, 'latitude 91.0 outside [-90, 90]', id='latitude'),
    pytest.param('REG r POINT(0 181) 2005-08-01T00:00:00Z 2005-08-02T00:00:00Z\n', 1, 'longitude 181.0 outside [-180, 180]', id='longitude'),
    pytest.param('REG r BBOX(2 0 1 1) 2005-08-01T00:00:00Z 2005-08-02T00:00:00Z\n', 1, 'bbox min corner must not exceed max corner', id='bbox-corners'),
    pytest.param('REG r POINT(0 0) never 2005-08-02T00:00:00Z\n', 1, "invalid timestamp 'never'", id='region-timestamp'),
    *(pytest.param(f'ENT a event Rain\nREG r POINT(0 0) {stamp} 2005-08-30T00:00:00Z\n', 2, f"invalid timestamp {stamp!r}",
                   id=f'unlisted-timestamp-{stamp}') for stamp in UNLISTED_TIMESTAMPS),
    *(pytest.param(f'ENT s situation - .start=2005-08-01T00:00:00Z .end={stamp}\n', 1, f"invalid timestamp {stamp!r}",
                   id=f'unlisted-situation-timestamp-{stamp}') for stamp in UNLISTED_TIMESTAMPS),
    pytest.param('ENT a event Rain\nENT b event Flood\nTRI a causes\n', 3, 'TRI record needs <subject> <predicate> <object>', id='triple-too-short'),
    pytest.param('ENT a event Rain\nENT b event Flood\nTRI a causes b DERIVED\n', 3, 'TRI record needs <subject> <predicate> <object>', id='triple-five-tokens'),
    pytest.param('ENT a event Rain\nENT b event Flood\nTRI a causes b INFERRED rule=R\n', 3, 'expected DERIVED rule=<id> after the object', id='derived-marker'),
    pytest.param('ENT a event Rain\nENT b event Flood\nTRI a causes b DERIVED R\n', 3, 'expected DERIVED rule=<id> after the object', id='derived-rule-prefix'),
    pytest.param('ENT a event Rain\nENT b event Flood\nTRI a causes b DERIVED rule=R a causes\n', 3, 'premises take three tokens each (<s> <p> <o>), got 2', id='premise-arity'),
    pytest.param('ENT a event Rain\nENT b event Flood\nTRI a explodes b\n', 3, "unknown relation 'explodes'", id='unknown-relation'),
    pytest.param('ENT a event Rain\nENT b event Flood\nTRI a causes b DERIVED rule=R a explodes b\n', 3, "unknown relation 'explodes'", id='unknown-premise-relation'),
    pytest.param('ENT a event Rain\nENT b event Flood\nTRI a causes b DERIVED rule=\n', 3, 'rule id must be a non-empty string', id='empty-rule-id'),
    pytest.param('ENT a event Rain\nENT b event Flood\nTRI a causes b DERIVED rule=R"x\n', 3, 'rule id \'R"x\' must not contain whitespace, control, quote or surrogate characters', id='rule-id-quote'),
    pytest.param('ENT a event Rain\nENT b event Flood\nTRI a causes ghost\n', 3, "no entity with id 'ghost'", id='unknown-entity'),
    pytest.param('ENT o object Dam\nENT b event Flood\nTRI o causes b\n', 3, 'causes: expected event -> event, got object -> event', id='signature'),
    pytest.param('ENT a event Rain\nENT b event Flood\nTRI a has-geometry b\n', 3, 'has-geometry is structural (held as region fields, not assertable)', id='structural-relation'),
    pytest.param('ENT a event Rain\nENT b event Flood\nTRI a satisfies P\n', 3, 'satisfies: subject must be a situation, got event', id='satisfies-subject'),
    pytest.param('ENT s situation - .start=2005-08-01T00:00:00Z .end=2005-08-02T00:00:00Z\nTRI s satisfies P\x01\n', 2, "entity id 'P\\x01' must not contain whitespace, control, quote or surrogate characters", id='satisfies-object'),
    pytest.param('ENT a event Rain\nENT b event Flood\nTRI a causes b DERIVED rule=R b causes a\n', 3, 'premise (b causes a) is not a stored triple', id='premise-not-stored'),
    pytest.param('ENT a event Rain\nENT b event Flood\nTRI a causes b DERIVED rule=R a causes b\n', 3, 'premise (a causes b) leads back to this triple', id='premise-cycle'),
]


class TestDocumentErrors:
    @pytest.mark.parametrize("document, line, message", LOADER_FAULTS)
    def test_every_fault_names_its_line_and_message(self, document, line, message):
        with pytest.raises(ParseError) as exc:
            loads_graph(document)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

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
        with pytest.raises(ParseError) as exc:
            loads_graph(doc)
        assert exc.value.line == 3
        assert str(exc.value) == "line 3: causes: expected event -> event, got object -> event"

    def test_unknown_reference(self):
        with pytest.raises(ParseError) as exc:
            loads_graph("ENT ev:a event Rain\nTRI ev:a causes ev:ghost\n")
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: no entity with id 'ev:ghost'"

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


class TestCollectorPause:
    """A load pauses the cyclic collector and restores it as it was."""

    BAD = LOADER_FAULTS[-1].values[0]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("document", ["ENT a event Rain\n", BAD], ids=["loads", "fails"])
    def test_collector_state_is_restored(self, enabled, document):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with contextlib.suppress(ParseError):
                loads_graph(document)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_loaded_values_hold_no_cycles(self):
        texts = []
        for seed in range(20):
            graph, rules = random_engine_case(random.Random(seed))
            infer(graph, rules)
            texts.append(dump_graph(graph))
        derived = [line.split() for text in texts for line in text.splitlines() if " DERIVED " in line]
        assert any(len(tokens) > 6 for tokens in derived)  # some records cite premises
        was = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            loaded = [loads_graph(text) for text in texts]
            del loaded
            assert gc.collect() == 0
            for text in texts:
                with contextlib.suppress(ParseError):
                    loads_graph(text + self.BAD)
            assert gc.collect() == 0
        finally:
            if was:
                gc.enable()


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

    def test_a_premise_cited_by_many_records_is_held_once(self):
        document = ("ENT a event Rain\nENT b event Flood\nENT c event Surge\n"
                    "TRI a causes c DERIVED rule=R a causes b\nTRI b causes c DERIVED rule=R a causes b\n"
                    "TRI a causes b\n")
        for graph in (loads_graph(document), graph_from_json(graph_to_json(loads_graph(document)))):
            (first,), (second,) = (t.provenance.premises for t in graph.match(object="c"))
            assert first == ("a", RelationKind.CAUSES, "b") and first is second

    def test_a_key_recorded_asserted_then_derived_keeps_its_first_record(self):
        """A premise that names the key resolves to its first record, the
        asserted one, so the derived record after it closes no cycle."""
        document = ("ENT a event Rain\nENT b event Flood\n"
                    "TRI b causes a DERIVED rule=R a causes b\n"
                    "TRI a causes b\n"
                    "TRI a causes b DERIVED rule=R b causes a\n")
        graph = loads_graph(document)
        assert graph.triple(("a", RelationKind.CAUSES, "b")).provenance is ASSERTED
        assert graph.triple(("b", RelationKind.CAUSES, "a")).provenance.premises == (("a", RelationKind.CAUSES, "b"),)

    def test_premise_keys_hold_the_entities_own_id_strings(self):
        """After either reader, each premise's subject, and its object when that
        is an entity, is the entity's own id string, not a second copy of it."""
        cited = 0
        for seed in range(25):
            graph, rules = random_causal_case(random.Random(seed))
            infer(graph, rules)
            for loaded in (loads_graph(dump_graph(graph)), graph_from_json(graph_to_json(graph))):
                for t in loaded.triples():
                    for s, _, o in t.provenance.premises if t.is_derived else ():
                        cited += 1
                        assert s is loaded.entity(s).id
                        assert not loaded.has_entity(o) or o is loaded.entity(o).id
        assert cited >= 1000

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


def _add_order(graph: KnowledgeGraph) -> tuple:
    """The order the graph's triples were added in, as its three indexes keep it."""
    return list(graph._triples), graph._by_subject, graph._by_object


@pytest.mark.parametrize("case, seeds", [(random_engine_case, range(100)), (random_causal_case, range(25))],
                         ids=["engine", "causal"])
def test_inferred_graphs_reload_equal_in_one_add_order(case, seeds):
    """Both readers give back an inferred graph and its bytes, and add its
    triples in one order: which record owns a repeated triple's provenance
    after a reload depends on that order."""
    for seed in seeds:
        graph, rules = case(random.Random(seed))
        infer(graph, rules)
        text, document = dump_graph(graph), graph_to_json(graph)
        from_text, from_json = loads_graph(text), graph_from_json(document)
        assert graphs_equal(graph, from_text) and graphs_equal(graph, from_json), seed
        assert (dump_graph(from_text), graph_to_json(from_json)) == (text, document), seed
        assert _add_order(from_text) == _add_order(from_json), seed


@pytest.mark.parametrize("change", ["provenance", "attribute", "extra-triple"])
def test_graphs_differing_in_one_thing_are_unequal(change):
    def build(changed: bool) -> KnowledgeGraph:
        g = KnowledgeGraph()
        level = "4 m" if changed and change == "attribute" else "3 m"
        g.add_entity(GeoObject("obj:gauge", "Gauge", (Measurement("Level", parse_value(level)),)))
        g.add_entity(GeoEvent("ev:a", "Rain"))
        g.add_entity(GeoEvent("ev:b", "Flood"))
        provenance = Derived("R-CAU:R1") if changed and change == "provenance" else ASSERTED
        g.add_triple("ev:a", RelationKind.CAUSES, "ev:b", provenance)
        if changed and change == "extra-triple":
            g.assert_triple("ev:b", RelationKind.CAUSES, "ev:a")
        return g

    assert graphs_equal(build(False), build(False))
    assert not graphs_equal(build(False), build(True))
    assert not graphs_equal(build(True), build(False))


@functools.cache
def _inferred_documents(seed: int) -> tuple[str, str, tuple[str, ...]]:
    """An inferred ``random_engine_case`` graph as text and as JSON, and
    the tokens a mutation may swap in: its entity ids and the relation tokens."""
    graph, rules = random_engine_case(random.Random(seed))
    infer(graph, rules)
    vocabulary = tuple(sorted(e.id for e in graph.entities())) + tuple(sorted(RELATION_TOKENS))
    return dump_graph(graph), graph_to_json(graph), vocabulary


@st.composite
def mutated_documents(draw):
    """A text or JSON document with one line changed by one of ``MUTATIONS``:
    deleted, duplicated, a token replaced by an entity id or a relation token,
    a quote inserted or removed, its whitespace changed, or a timestamp or
    number token replaced by a malformed one."""
    text, document, vocabulary = _inferred_documents(draw(st.integers(0, 39)))
    as_json = draw(st.booleans())
    mutation = draw(st.sampled_from(MUTATIONS))
    mutated = mutate_document(document if as_json else text, vocabulary, mutation,
                              lambda n: draw(st.integers(0, n - 1)))
    return as_json, mutated


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mutated_documents())
def test_a_document_loads_or_raises_parse_error(case):
    """Whatever is wrong with a record (syntax, schema, a missing entity or
    premise, a repeated id), loading fails with ParseError naming the record."""
    as_json, document = case
    try:
        graph_from_json(document) if as_json else loads_graph(document)
    except ParseError as exc:
        assert as_json or exc.line is not None


# The patterns the text reader once matched with, as oracles: the reader
# compiles none, and must split and refuse every line as they did.
_QUOTED_TOKEN = re.compile(r'(?:[^\s"]+|"[^"]*")+')
_GEOMETRY = re.compile(r"(?P<geometry>(?P<shape>POINT|BBOX)\((?P<coords>[^)]*)\))")
_REG = re.compile(rf"\s*REG\s+(?P<id>\S+)\s+{_GEOMETRY.pattern}\s+(?P<start>\S+)\s+(?P<end>\S+)\s*")
_V1_PREMISE_COUNT = re.compile(r"premises=\d+\Z")
_FRAGMENTS = st.sampled_from([
    "REG", "ENT", " ", "  ", "\t", "\u00a0", "\x1f", "POINT", "BBOX", "(", ")", "1", "-2.5", "nan", "x", '"', "=",
    "2005-08-01T00:00:00Z", "reg:a", 'A="1 m"',
])
_WHITESPACE = st.sampled_from(["", " ", "  ", "\t", "\u00a0"])
_REG_PIECES = st.sampled_from([
    "reg:a", "x", "(", ")", '"', "2005-08-01T00:00:00Z", "2005-08-02", "POINT(1 2)", "BBOX(1 2 3 4)", "POINT(",
    "BBOX(1 2 3 4", "POINT(1 2))", "POINT(1 2", "BBOX((1 2 3 4)", "POINT(nan 1e999)", "POINT(91 0)",
])
_LINES = st.one_of(
    st.lists(_FRAGMENTS, max_size=12).map("".join),
    st.lists(st.tuples(_WHITESPACE, _REG_PIECES).map("".join), max_size=6).map(lambda parts: "REG" + "".join(parts)),
    st.lists(st.sampled_from(["premises=", "premises", "7", "\u0663", "\u00b2", "x", "="]), min_size=1, max_size=3)
    .map(lambda parts: "TRI a causes b DERIVED rule=R " + "".join(parts)),
    st.lists(st.sampled_from(["POINT", "BBOX", "(", ")", " ", "\t", "1", "-2", "x"]), max_size=8).map("".join),
)


def _outcome(read, *args):
    try:
        return read(*args)
    except GeoCausalError as exc:
        return f"{type(exc).__name__}: {exc}"


def _region_by_pattern(line: str):
    if not (m := _REG.fullmatch(line)):
        raise ParseError("malformed REG record")
    interval = TimeInterval(m["start"], m["end"])
    return SpatioTemporalRegion(m["id"], parse_geometry(m["geometry"]), interval)


@settings(derandomize=True, max_examples=2000, deadline=None)
@given(_LINES)
def test_the_reader_splits_and_refuses_each_line_as_its_patterns_did(line):
    if line.count('"') % 2 == 0:
        assert storage._unquoted(line) == [token.replace('"', "") for token in _QUOTED_TOKEN.findall(line)]
    tokens = line.split()
    if tokens[:1] == ["REG"]:
        assert _outcome(storage._text_record, line) == _outcome(_region_by_pattern, line)
    if len(tokens) == 7 and tokens[0] == "TRI":
        v1 = bool(_V1_PREMISE_COUNT.match(tokens[6]))
        assert (_outcome(storage._triple_record, tokens) == ("ParseError: premises take three tokens each "
                                                             "(<s> <p> <o>), got 1")) != v1
    if (m := _GEOMETRY.fullmatch(line.strip())) is None:
        assert _outcome(parse_geometry, line) == f"ParseError: invalid geometry literal {line.strip()!r}"
    else:
        assert _outcome(parse_geometry, line) == _outcome(storage._geometry, m["shape"], m["coords"])


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


@pytest.mark.parametrize("reader", ["load_graph", "ingest_storm_csv", "ingest_observations_csv"])
def test_one_leading_byte_order_mark_is_dropped_from_a_path_or_a_stream(tmp_path, reader):
    """A path, an open text file and a string stream read alike through
    ``read_text``, with or without one leading U+FEFF."""
    from geocausal.ingest import Strictness, ingest_observations_csv, ingest_storm_csv

    def ingested(ingest):
        def read(source):
            graph = KnowledgeGraph()
            ingest(graph, source, Strictness.STRICT)
            return graph
        return read

    text, read = {
        "load_graph": ("# geocausal graph v2\nENT ev:a event Rain\n", load_graph),
        "ingest_storm_csv": (katrina_csv(3), ingested(ingest_storm_csv)),
        "ingest_observations_csv": (
            "SITUATION_ID,TIMESTAMP_START,TIMESTAMP_END,ATTRIBUTE,VALUE,UNIT,LAT,LON\n"
            "s1,2005-08-23T00:00:00Z,2005-08-23T06:00:00Z,SeaSurfaceTemp,83,degF,,\n",
            ingested(ingest_observations_csv),
        ),
    }[reader]
    dumps = []
    for prefix in ("", "\ufeff"):
        path = tmp_path / f"{len(prefix)}.txt"
        path.write_text(prefix + text, encoding="utf-8")  # "\ufeff" is written as EF BB BF
        dumps += [dump_graph(read(path)), dump_graph(read(io.StringIO(prefix + text, newline="")))]
        with open(path, encoding="utf-8", newline="") as handle:
            dumps.append(dump_graph(read(handle)))
    assert len(dumps[0].splitlines()) > 1 and dumps == [dumps[0]] * 6


def test_a_directory_the_platform_cannot_open_skips_only_its_fsync(tmp_path, monkeypatch):
    """Where a directory cannot be opened (Windows), the new text is still in
    place and no temporary file is left."""
    path = tmp_path / "ws.graph"
    path.write_text("old\n", encoding="utf-8")
    refused = []
    open_ = os.open

    def refusing_open(file, flags, *args, **kwargs):
        if os.fspath(file) == os.fspath(tmp_path):
            refused.append(file)
            raise OSError("a directory cannot be opened here")
        return open_(file, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", refusing_open)
    write_text_atomic(path, "new text\n")
    assert refused == [tmp_path]
    assert path.read_text(encoding="utf-8") == "new text\n"
    assert [p.name for p in tmp_path.iterdir()] == ["ws.graph"]


def test_an_atomic_write_is_fsynced_before_and_after_the_rename(tmp_path, monkeypatch):
    """The temporary file's whole text reaches the disk before the rename,
    and the directory entry after it. (A real power loss is not tested.)"""
    path = tmp_path / "ws.graph"
    path.write_text("old\n", encoding="utf-8")
    calls = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        info = os.fstat(fd)
        calls.append(("fsync", "directory" if stat.S_ISDIR(info.st_mode) else f"file of {info.st_size} bytes"))
        fsync(fd)

    def recording_replace(source, target):
        calls.append(("replace", path.read_text(encoding="utf-8")))
        replace(source, target)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    write_text_atomic(path, "new text\n")
    assert calls == [("fsync", "file of 9 bytes"), ("replace", "old\n"), ("fsync", "directory")]
    assert path.read_text(encoding="utf-8") == "new text\n"
    assert [p.name for p in tmp_path.iterdir()] == ["ws.graph"]
