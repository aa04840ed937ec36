import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from geocausal.engine import explain, infer
from geocausal.errors import (
    DuplicateId, GeoCausalError, InvariantViolation, SchemaViolation, UnknownEntity, UnknownTriple,
)
from geocausal.graph import ASSERTED, Derived, KnowledgeGraph, RelationKind, Role, role_of
from geocausal.model import (
    GeoEvent,
    GeoObject,
    GeoSituation,
    Point,
    SpatioTemporalRegion,
)
from geocausal.storage import dump_graph, loads_graph

from support import build_chain_case, iv, random_storage_graph

STP = RelationKind.SPATIO_TEMPORALLY_PRESENT


def small_graph():
    g = KnowledgeGraph()
    g.add_entity(GeoObject("obj:dam", "Dam"))
    g.add_entity(GeoEvent("ev:flood", "Flood"))
    g.add_entity(GeoEvent("ev:rain", "HeavyRain"))
    g.add_entity(GeoSituation("sit:overflow", iv(0, 4)))
    g.add_entity(SpatioTemporalRegion("reg:r1", Point(30, -90), iv(0, 10)))
    return g


class TestEntities:
    def test_add_and_retrieve(self):
        g = KnowledgeGraph()
        g.add_entity(GeoEvent("ev:Katrina", "Hurricane"))
        assert g.entity_count == 1
        assert g.entity("ev:Katrina").kind == "Hurricane"

    def test_duplicate_id(self):
        g = KnowledgeGraph()
        g.add_entity(GeoEvent("ev:x", "Hurricane"))
        with pytest.raises(DuplicateId):
            g.add_entity(GeoObject("ev:x", "Dam"))

    def test_many_sub_events_all_retrievable(self):
        g = KnowledgeGraph()
        for i in range(23):
            g.add_entity(GeoEvent(f"ev:sub-{i:02d}", "FlashFlood"))
        assert g.entity_count == 23
        for i in range(23):
            assert g.entity(f"ev:sub-{i:02d}").kind == "FlashFlood"

    def test_unknown_entity(self):
        with pytest.raises(UnknownEntity):
            KnowledgeGraph().entity("ev:absent")

    def test_entities_filtered_by_role_and_sorted(self):
        g = small_graph()
        assert [e.id for e in g.entities(Role.EVENT)] == ["ev:flood", "ev:rain"]
        assert [e.id for e in g.entities()][0] == "ev:flood"


class TestAssert:
    def test_event_causes_event(self):
        g = small_graph()
        t = g.assert_triple("ev:rain", RelationKind.CAUSES, "ev:flood")
        assert t.provenance is ASSERTED
        assert g.has_triple("ev:rain", RelationKind.CAUSES, "ev:flood")

    def test_object_cannot_cause(self):
        g = small_graph()
        with pytest.raises(SchemaViolation) as exc:
            g.assert_triple("obj:dam", RelationKind.CAUSES, "ev:flood")
        assert "causes" in str(exc.value)
        assert "object" in str(exc.value)

    def test_situation_effects_event(self):
        g = small_graph()
        g.assert_triple("sit:overflow", RelationKind.EFFECTS, "ev:flood")

    def test_event_cannot_effect(self):
        g = small_graph()
        with pytest.raises(SchemaViolation):
            g.assert_triple("ev:rain", RelationKind.EFFECTS, "ev:flood")

    def test_unknown_ids(self):
        g = small_graph()
        with pytest.raises(UnknownEntity):
            g.assert_triple("ev:ghost", RelationKind.CAUSES, "ev:flood")
        with pytest.raises(UnknownEntity):
            g.assert_triple("ev:rain", RelationKind.CAUSES, "ev:ghost")

    def test_repeat_assertion_is_idempotent(self):
        g = small_graph()
        g.assert_triple("ev:rain", RelationKind.CAUSES, "ev:flood")
        g.assert_triple("ev:rain", RelationKind.CAUSES, "ev:flood")
        assert g.triple_count == 1

    def test_provenance_is_immutable(self):
        g = small_graph()
        g.add_triple("ev:rain", RelationKind.CAUSES, "ev:flood", Derived("R-CAU:R1", ()))
        kept = g.assert_triple("ev:rain", RelationKind.CAUSES, "ev:flood")
        assert kept.is_derived

    @pytest.mark.parametrize(
        "premise",
        [("ev:rain", RelationKind.CAUSES, "ev:flood"), ("ev:flood", STP, "reg:r1")],
        ids=["not-stored", "own-key"],
    )
    def test_premise_must_already_be_stored(self, premise):
        g = small_graph()
        g.assert_triple("ev:rain", STP, "reg:r1")
        before = (g.triple_count, g.match(), g.region_of("ev:rain"), g.region_of("ev:flood"))
        with pytest.raises(UnknownTriple):
            g.add_triple("ev:flood", STP, "reg:r1", Derived("R", (("ev:rain", STP, "reg:r1"), premise)))
        assert (g.triple_count, g.match(), g.region_of("ev:rain"), g.region_of("ev:flood")) == before
        assert before[3] is None

    @pytest.mark.parametrize("rule_id", ["", "my rule", "R\tX", 'R"X', "R\x00"])
    def test_rule_id_is_a_bare_token(self, rule_id):
        with pytest.raises(InvariantViolation):
            Derived(rule_id)

    def test_structural_relations_not_assertable(self):
        g = small_graph()
        with pytest.raises(SchemaViolation):
            g.assert_triple("reg:r1", RelationKind.HAS_GEOMETRY, "reg:r1")
        with pytest.raises(SchemaViolation):
            g.assert_triple("reg:r1", RelationKind.TIME, "reg:r1")

    def test_satisfies_takes_external_object(self):
        g = small_graph()
        g.assert_triple("sit:overflow", RelationKind.SATISFIES, "PC_DAM")
        with pytest.raises(SchemaViolation):
            g.assert_triple("ev:rain", RelationKind.SATISFIES, "PC_DAM")

    def test_part_of_pairs_must_match(self):
        g = small_graph()
        g.add_entity(GeoEvent("ev:parent", "Episode"))
        g.assert_triple("ev:flood", RelationKind.PART_OF, "ev:parent")
        with pytest.raises(SchemaViolation):
            g.assert_triple("ev:flood", RelationKind.PART_OF, "sit:overflow")

    def test_setting_and_participant(self):
        g = small_graph()
        g.assert_triple("obj:dam", RelationKind.SETTING, "sit:overflow")
        g.assert_triple("ev:flood", RelationKind.SETTING, "sit:overflow")
        g.assert_triple("obj:dam", RelationKind.PARTICIPANT_IN, "ev:flood")
        with pytest.raises(SchemaViolation):
            g.assert_triple("ev:flood", RelationKind.PARTICIPANT_IN, "ev:rain")


@pytest.mark.parametrize("key,message", [
    (("ev:rain", RelationKind.CAUSES, "ev:flood"), "no triple (ev:rain, causes, ev:flood)"),
    (("ev:rain", "causes", "ev:flood"), "no triple ('ev:rain', 'causes', 'ev:flood')"),
    (("ev:rain", RelationKind.CAUSES), "no triple ('ev:rain', <RelationKind.CAUSES: 'causes'>)"),
    (["ev:rain", RelationKind.CAUSES, "ev:flood"],
     "no triple ['ev:rain', <RelationKind.CAUSES: 'causes'>, 'ev:flood']"),
], ids=["unstored", "str-predicate", "two-elements", "list"])
def test_every_key_not_held_is_an_unknown_triple(key, message):
    g = small_graph()
    for read in (g.triple, lambda key: explain(g, key)):
        with pytest.raises(UnknownTriple) as caught:
            read(key)
        assert str(caught.value) == message


_REFUSED = pytest.mark.parametrize("args,error,message", [
    (("ev:rain", "causes", "ev:flood"), SchemaViolation, "'causes' is not a relation kind"),
    (("ev:rain", ["causes"], "ev:flood"), SchemaViolation, "['causes'] is not a relation kind"),
    ((["ev:rain"], RelationKind.CAUSES, "ev:flood"), UnknownEntity, "no entity with id ['ev:rain']"),
    (("ev:rain", RelationKind.CAUSES, ["ev:flood"]), UnknownEntity, "no entity with id ['ev:flood']"),
], ids=["str-predicate", "list-predicate", "list-subject", "list-object"])


@_REFUSED
def test_add_triple_refuses_what_is_not_an_id_or_a_relation(args, error, message):
    g = small_graph()
    with pytest.raises(error) as caught:
        g.add_triple(*args)
    assert str(caught.value) == message
    assert g.triple_count == 0


def test_an_unhashable_id_is_an_unknown_entity():
    with pytest.raises(UnknownEntity, match=r"no entity with id \['ev:rain'\]"):
        small_graph().entity(["ev:rain"])


def test_has_entity_refuses_an_unhashable_id():
    g = small_graph()
    with pytest.raises(UnknownEntity) as caught:
        g.has_entity(["ev:rain"])
    assert str(caught.value) == "no entity with id ['ev:rain']"
    assert g.has_entity("ev:none") is False


@_REFUSED
def test_has_triple_refuses_what_add_triple_refuses(args, error, message):
    g = small_graph()
    g.assert_triple("ev:rain", RelationKind.CAUSES, "ev:flood")
    with pytest.raises(error) as caught:
        g.has_triple(*args)
    assert str(caught.value) == message
    assert g.has_triple("ev:rain", RelationKind.CAUSES, "ev:none") is False


@_REFUSED
def test_match_refuses_what_add_triple_refuses(args, error, message):
    g = small_graph()
    g.assert_triple("ev:rain", RelationKind.CAUSES, "ev:flood")
    with pytest.raises(error) as caught:
        g.match(*args)
    assert str(caught.value) == message
    with pytest.raises(SchemaViolation, match="'causes' is not a relation kind"):
        g.match(predicate="causes")
    assert g.match(subject="ev:none", predicate=RelationKind.CAUSES) == []


_HOSTILE = st.one_of(
    st.none(), st.integers(), st.floats(), st.text(max_size=8), st.binary(max_size=8),
    st.lists(st.text(max_size=3), max_size=2), st.sampled_from(RelationKind),
    st.sampled_from(["ev:flood", "ev:rain", "obj:dam", "sit:overflow", "reg:r1", "PC_X"]),
)


@settings(max_examples=300)
@given(_HOSTILE, _HOSTILE, _HOSTILE)
def test_add_triple_raises_only_its_own_errors(subject, predicate, object):
    try:
        small_graph().add_triple(subject, predicate, object)
    except GeoCausalError:
        pass


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_HOSTILE, _HOSTILE, _HOSTILE)
def test_read_methods_raise_only_their_own_errors(subject, predicate, object):
    g = small_graph()
    g.assert_triple("ev:rain", RelationKind.CAUSES, "ev:flood")
    for read in (lambda: g.has_entity(subject), lambda: g.has_triple(subject, predicate, object),
                 lambda: g.match(subject, predicate, object)):
        try:
            read()
        except GeoCausalError:
            pass


class TestMatch:
    def test_empty_graph(self):
        assert KnowledgeGraph().match() == []

    def test_single_cause_lookup(self, flood_case_a):
        g, _ = flood_case_a
        g.assert_triple("ev:heavyrain", RelationKind.CAUSES, "ev:flashflood")
        found = g.match(predicate=RelationKind.CAUSES, object="ev:flashflood")
        assert [t.subject for t in found] == ["ev:heavyrain"]

    def test_part_of_fanout(self):
        g = KnowledgeGraph()
        g.add_entity(GeoEvent("ev:episode-1", "Episode"))
        for i in range(23):
            g.add_entity(GeoEvent(f"ev:sub-{i:02d}", "FlashFlood"))
            g.assert_triple(f"ev:sub-{i:02d}", RelationKind.PART_OF, "ev:episode-1")
        found = g.match(predicate=RelationKind.PART_OF, object="ev:episode-1")
        assert len(found) == 23

    def test_deterministic_order(self):
        g = small_graph()
        g.assert_triple("ev:rain", RelationKind.CAUSES, "ev:flood")
        g.assert_triple("sit:overflow", RelationKind.EFFECTS, "ev:flood")
        g.assert_triple("ev:rain", STP, "reg:r1")
        keys = [(t.subject, t.predicate.value, t.object) for t in g.match()]
        assert keys == sorted(keys)

    def test_index_matches_linear_scan(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_storage_graph(rng, rng.randint(5, 60))
            triples = g.triples()
            for t in rng.sample(triples, min(5, len(triples))):
                via_index = g.match(subject=t.subject, predicate=t.predicate, object=t.object)
                via_scan = [
                    x
                    for x in triples
                    if (x.subject, x.predicate, x.object) == (t.subject, t.predicate, t.object)
                ]
                assert via_index == via_scan
            sample_subject = triples[0].subject if triples else None
            if sample_subject:
                assert g.match(subject=sample_subject) == sorted(
                    (x for x in triples if x.subject == sample_subject),
                    key=lambda x: (x.subject, x.predicate.value, x.object),
                )


    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 80), st.data())
    def test_every_pattern_equals_a_filtered_scan(self, seed, size, data):
        g = random_storage_graph(random.Random(seed), size)
        triples = g.triples()
        # Each position takes the value of one stored triple or any other
        # value (an id that is absent included), so that bound sets of every
        # size meet, overlap or miss one another.
        base = data.draw(st.sampled_from(triples)).key if triples else ("ev:absent", STP, "ev:absent")
        pools = (
            [t.subject for t in triples] + ["ev:absent"],
            list(RelationKind),
            [t.object for t in triples] + ["ev:absent"],
        )
        values = [
            data.draw(st.sampled_from([fixed, *pool]) if pool else st.just(fixed))
            for fixed, pool in zip(base, pools)
        ]
        for bound in itertools.product((False, True), repeat=3):
            pattern = [value if b else None for value, b in zip(values, bound)]
            expected = [t for t in triples if all(v is None or v == x for v, x in zip(pattern, t.key))]
            assert g.match(*pattern) == expected, pattern


class TestRegionOf:
    def test_present(self):
        g = small_graph()
        g.assert_triple("ev:flood", STP, "reg:r1")
        assert g.region_of("ev:flood").id == "reg:r1"

    def test_absent(self):
        g = small_graph()
        assert g.region_of("ev:flood") is None

    def test_shared_region(self):
        g = small_graph()
        g.assert_triple("ev:flood", STP, "reg:r1")
        g.assert_triple("obj:dam", STP, "reg:r1")
        assert g.region_of("ev:flood") is g.region_of("obj:dam")

    def test_unknown_entity(self):
        with pytest.raises(UnknownEntity):
            small_graph().region_of("ev:ghost")

    def test_several_regions_lowest_id_wins(self):
        g = small_graph()
        for region_id, lowest in (
            ("reg:c", "reg:c"), ("reg:b", "reg:b"), ("reg:a", "reg:a"), ("reg:d", "reg:a")
        ):
            g.add_entity(SpatioTemporalRegion(region_id, Point(30, -90), iv(0, 10)))
            g.assert_triple("ev:flood", STP, region_id)
            assert g.region_of("ev:flood").id == lowest


class TestValidate:
    def test_clean_graph(self):
        assert small_graph().validate() == []

    def test_participant_region_overlap_warning(self):
        g = small_graph()
        g.add_entity(SpatioTemporalRegion("reg:far", Point(-40, 100), iv(50, 60)))
        g.assert_triple("ev:flood", STP, "reg:r1")
        g.assert_triple("obj:dam", STP, "reg:far")
        g.assert_triple("obj:dam", RelationKind.PARTICIPANT_IN, "ev:flood")
        warnings = g.validate()  # a warning, not a rejection
        assert len(warnings) == 1
        assert "obj:dam" in warnings[0]

    def test_overlapping_participant_is_quiet(self):
        g = small_graph()
        g.add_entity(SpatioTemporalRegion("reg:near", Point(30, -90), iv(2, 8)))
        g.assert_triple("ev:flood", STP, "reg:r1")
        g.assert_triple("obj:dam", STP, "reg:near")
        g.assert_triple("obj:dam", RelationKind.PARTICIPANT_IN, "ev:flood")
        assert g.validate() == []

    def test_participant_without_a_region_is_quiet(self):
        g = small_graph()
        g.assert_triple("ev:flood", STP, "reg:r1")
        g.assert_triple("obj:dam", RelationKind.PARTICIPANT_IN, "ev:flood")
        assert g.region_of("obj:dam") is None
        assert g.validate() == []


def test_role_reads_the_stored_role():
    g = small_graph()
    assert {e.id: g.role(e.id) for e in g.entities()} == {e.id: role_of(e) for e in g.entities()}
    with pytest.raises(UnknownEntity):
        g.role("ev:absent")


@pytest.mark.parametrize("enum", [Role, RelationKind])
def test_vocabulary_members_hash_by_identity(enum):
    """Triple keys hash their relation in C; each member is still one set element."""
    assert enum.__hash__ is object.__hash__
    assert len({*enum, *enum}) == len(enum)


def test_role_of_rejects_foreign_values():
    with pytest.raises(TypeError):
        role_of("ev:string")


def test_each_entity_class_owns_its_role():
    from geocausal import model

    assert Role is model.Role
    assert [cls.role for cls in (GeoObject, GeoEvent, GeoSituation, SpatioTemporalRegion)] == [
        Role.OBJECT, Role.EVENT, Role.SITUATION, Role.REGION,
    ]


def test_the_store_keeps_entities_triples_and_two_indexes():
    g = small_graph()
    assert set(vars(g)) == {"_entities", "_triples", "_by_subject", "_by_object"}


def test_indexes_stay_in_sync_with_triple_set():
    rng = random.Random(17)
    for _ in range(10):
        g = random_storage_graph(rng, rng.randint(0, 80))
        all_keys = {t.key for t in g.triples()}
        assert set().union(*g._by_subject.values(), set()) == all_keys
        assert set().union(*g._by_object.values(), set()) == all_keys


def _assert_each_key_held_once_with_the_stored_ids(g):
    stored = {id(key) for key in g._triples}
    for index in (g._by_subject, g._by_object):
        for keys in index.values():
            assert type(keys) is list and len(set(keys)) == len(keys)
            assert all(id(key) in stored for key in keys)  # the stored tuple, not a copy
    for (s, p, o), t in g._triples.items():
        assert s is t.subject is g._entities[s].id and o is t.object
        if p is not RelationKind.SATISFIES:
            assert o is g._entities[o].id


def test_each_key_is_held_once_with_the_stored_entity_ids():
    rng = random.Random(23)
    graphs = [random_storage_graph(rng, rng.randint(0, 80)) for _ in range(10)]
    chain, rules = build_chain_case()
    infer(chain, rules)
    for g in [*graphs, chain]:
        _assert_each_key_held_once_with_the_stored_ids(g)
        _assert_each_key_held_once_with_the_stored_ids(loads_graph(dump_graph(g)))
