"""Value semantics of every public value class: equality and hash by field,
immutability, ``Name(field=value, ...)`` repr, ordering where defined, and
no per-instance ``__dict__``."""

import copy
import pickle
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from geocausal.engine import Diagnostic, EngineConfig, InferenceResult, ProvenanceTree
from geocausal.errors import ConfigError, GeoCausalError, InvariantViolation
from geocausal.graph import ASSERTED, Asserted, Derived, KnowledgeGraph, RelationKind, Triple
from geocausal.ingest import IngestReport, Strictness
from geocausal.model import (
    BBox,
    GeoEvent,
    GeoObject,
    GeoSituation,
    Measurement,
    Point,
    SpatioTemporalRegion,
    TimeInterval,
)
from geocausal.query import Explanation, ExplanationEdge
from geocausal.rules import (
    CauseRule,
    CoOccurs,
    Condition,
    ConditionOutcome,
    Precedes,
    PrecedesWithin,
    PreconditionSet,
    RuleSet,
    SatisfactionResult,
    Truth,
)
from geocausal.storage import dump_graph, loads_graph
from geocausal.units import Categorical, Comparator, Dimension, Quantity, Unit, get_unit

from support import iv, q

_CAUSES = RelationKind.CAUSES
_TRIPLE = Triple("ev:a", _CAUSES, "ev:b", Derived("R-CAU:R1", (("ev:x", _CAUSES, "ev:a"),)))
_CONDITION = Condition("Temp", Comparator.GT, q(3, "K"))

#: class -> (a factory of one value, its fields in constructor order). Each
#: factory call builds a new value equal to the last.
IMMUTABLE = {
    TimeInterval: (lambda: iv(0, 2), ["start", "end"]),
    Point: (lambda: Point(30.0, -90.0), ["lat", "lon"]),
    BBox: (lambda: BBox(29.0, -91.0, 31.0, -89.0), ["min_lat", "min_lon", "max_lat", "max_lon"]),
    Measurement: (lambda: Measurement("WaterLevel", q(12, "m")), ["attribute", "value"]),
    GeoObject: (lambda: GeoObject("obj:dam", "Dam", (Measurement("H", q(1, "m")),)),
                ["id", "kind", "attributes"]),
    GeoEvent: (lambda: GeoEvent("ev:a", "Rain"), ["id", "kind"]),
    GeoSituation: (lambda: GeoSituation("sit:a", iv(0, 1), (Measurement("T", q(1, "K")),)),
                   ["id", "holds_during", "observations"]),
    SpatioTemporalRegion: (lambda: SpatioTemporalRegion("reg:a", Point(30.0, -90.0), iv(0, 1)),
                           ["id", "geometry", "interval"]),
    Unit: (lambda: Unit("kn", Dimension.SPEED, 0.5, 1.0), ["symbol", "dimension", "scale", "offset"]),
    Quantity: (lambda: q(82, "degF"), ["magnitude", "unit"]),
    Categorical: (lambda: Categorical("present"), ["token"]),
    Asserted: (Asserted, []),
    Derived: (lambda: Derived("R-CAU:R1", (("ev:x", _CAUSES, "ev:a"),)), ["rule_id", "premises"]),
    Triple: (lambda: Triple("ev:a", _CAUSES, "ev:b"), ["subject", "predicate", "object", "provenance"]),
    Condition: (lambda: Condition("Temp", Comparator.GT, q(3, "K")),
                ["attribute", "comparator", "threshold"]),
    PreconditionSet: (lambda: PreconditionSet("PC", "Flood", (_CONDITION,)),
                      ["id", "event_kind", "conditions"]),
    CoOccurs: (CoOccurs, []),
    Precedes: (Precedes, []),
    PrecedesWithin: (lambda: PrecedesWithin(timedelta(hours=12)), ["max_gap"]),
    CauseRule: (lambda: CauseRule("R1", "Rain", "Flood", CoOccurs()),
                ["id", "cause_kind", "effect_kind", "constraint"]),
    RuleSet: (lambda: RuleSet((PreconditionSet("PC", "Flood", (_CONDITION,)),)),
              ["preconditions", "cause_rules"]),
    ConditionOutcome: (lambda: ConditionOutcome(Truth.TRUE, q(4, "K")), ["status", "observed"]),
    SatisfactionResult: (
        lambda: SatisfactionResult(Truth.TRUE, ((_CONDITION, ConditionOutcome(Truth.TRUE)),)),
        ["satisfied", "per_condition", "diagnostics"],
    ),
    EngineConfig: (lambda: EngineConfig(timedelta(hours=6)), ["max_gap", "require_spatial_overlap"]),
    Diagnostic: (lambda: Diagnostic("R-EFF", ("sit:a", "ev:b"), "mixed-setting"),
                 ["rule", "entities", "reason"]),
}

MUTABLE = {
    InferenceResult: (lambda: InferenceResult([_TRIPLE], 1, []), ["derived", "iterations", "diagnostics"]),
    ProvenanceTree: (lambda: ProvenanceTree(_TRIPLE, "R-CAU:R1", [ProvenanceTree(_TRIPLE)]),
                     ["triple", "rule_id", "premises"]),
    IngestReport: (lambda: IngestReport(3, 2, 5, [(4, "bad")], [], Strictness.STRICT),
                   ["rows_read", "entities_created", "triples_created", "errors", "warnings",
                    "strictness"]),
    ExplanationEdge: (lambda: ExplanationEdge(_TRIPLE, 1, "PC", ()),
                      ["triple", "depth", "precondition_id", "evidence"]),
    Explanation: (lambda: Explanation("ev:b", ["ev:a"], [], [], 1, False),
                  ["root", "nodes", "edges", "affects", "depth_reached", "truncated"]),
}

ALL = {**IMMUTABLE, **MUTABLE}


@pytest.mark.parametrize("cls", ALL, ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_values(cls):
    make, fields = ALL[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert cls.__match_args__ == tuple(fields)
    if cls in IMMUTABLE:
        assert hash(a) == hash(b)
    else:
        assert cls.__hash__ is None


@pytest.mark.parametrize("cls", ALL, ids=lambda cls: cls.__name__)
def test_values_of_different_classes_are_not_equal(cls):
    value = ALL[cls][0]()
    others = [make() for other, (make, _) in ALL.items() if other is not cls]
    assert all(value != other and not value == other for other in others)
    assert CoOccurs() != Precedes() and Asserted() != CoOccurs()


@pytest.mark.parametrize("cls", IMMUTABLE, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    make, fields = IMMUTABLE[cls]
    value = make()
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == make()


@pytest.mark.parametrize("cls", ALL, ids=lambda cls: cls.__name__)
def test_repr_names_each_field(cls):
    make, fields = ALL[cls]
    value = make()
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("cls", IMMUTABLE, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_give_an_equal_value(cls):
    value = IMMUTABLE[cls][0]()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_intervals_and_diagnostics_sort_by_their_field_tuple():
    intervals = [iv(2, 3), iv(0, 5), iv(0, 1), iv(2, 2)]
    assert sorted(intervals) == sorted(intervals, key=lambda i: (i.start, i.end))
    assert iv(0, 1) < iv(0, 2) <= iv(0, 2) < iv(1, 1) and iv(1, 1) >= iv(0, 9) > iv(0, 8)
    diagnostics = [
        Diagnostic("R-EFF", ("sit:b", "ev:a"), "mixed-setting"),
        Diagnostic("R-EFF", ("sit:a", "ev:b"), "no-spatial-overlap"),
        Diagnostic("R-EFF", ("sit:a", "ev:b"), "mixed-setting"),
        Diagnostic("R-CAU", ("ev:z",), "no-temporal-adjacency"),
    ]
    assert sorted(diagnostics) == sorted(diagnostics, key=lambda d: (d.rule, d.entities, d.reason))
    with pytest.raises(TypeError):
        iv(0, 1) < Point(0.0, 0.0)


@pytest.mark.parametrize("cls", ALL, ids=lambda cls: cls.__name__)
def test_no_instance_has_a_dict(cls):
    assert not hasattr(ALL[cls][0](), "__dict__")


def test_default_lists_are_fresh():
    first, second = InferenceResult(), InferenceResult()
    first.derived.append(_TRIPLE)
    assert second.derived == [] and Explanation("ev:a").nodes == []
    assert Triple("ev:a", _CAUSES, "ev:b").provenance is ASSERTED


@pytest.mark.parametrize("build", [
    lambda: Measurement("H", 5),
    lambda: Measurement("H", Quantity(5.0, "m")),
    lambda: Measurement(5, Categorical("present")),
    lambda: Categorical(5),
    lambda: Derived("R", [("ev:x", _CAUSES)]),
    lambda: Derived("R", ["ev:x"]),
    lambda: Derived("R", [("ev:x", "causes", "ev:a")]),
    lambda: Quantity("x", q(1, "m").unit),
    lambda: Quantity(None, q(1, "m").unit),
    lambda: Quantity(10**400, q(1, "m").unit),
    lambda: Quantity(5, Unit("furlong", Dimension.LENGTH, 201.0)),
    lambda: Quantity(5, Unit("m", Dimension.LENGTH, 2.0)),
    lambda: Point(None, 0),
    lambda: Point(0, "east"),
    lambda: BBox(29.0, None, 31.0, -89.0),
    lambda: Unit(["m"], Dimension.LENGTH, 1.0),
    lambda: Unit("", Dimension.LENGTH, 1.0),
    lambda: Unit("m", "length", 1.0),
    lambda: Unit("m", Dimension.LENGTH, None),
    lambda: Unit("m", Dimension.LENGTH, "x"),
    lambda: Unit("m", Dimension.LENGTH, float("nan")),
    lambda: Unit("m", Dimension.LENGTH, float("inf")),
    lambda: Unit("m", Dimension.LENGTH, 0.0),
    lambda: Unit("m", Dimension.LENGTH, -1.0),
    lambda: Unit("m", Dimension.LENGTH, 1.0, None),
    lambda: Unit("m", Dimension.LENGTH, 1.0, float("-inf")),
    lambda: Unit("m", Dimension.LENGTH, 1.0, float("nan")),
], ids=["int-value", "str-unit", "int-attribute", "int-token", "short-premise", "str-premise",
        "str-predicate", "str-magnitude", "none-magnitude", "huge-magnitude", "unregistered-unit",
        "unit-unlike-its-registered-namesake", "none-latitude", "str-longitude", "none-bbox-corner",
        "list-unit-symbol", "empty-unit-symbol", "str-unit-dimension", "none-unit-scale",
        "str-unit-scale", "nan-unit-scale", "inf-unit-scale", "zero-unit-scale", "negative-unit-scale",
        "none-unit-offset", "inf-unit-offset", "nan-unit-offset"])
def test_constructors_reject_values_that_cannot_be_saved(build):
    with pytest.raises(InvariantViolation):
        build()


_OTHER_TYPES = {
    "none": None,
    "int": 3,
    "float": 2.5,
    "bool": True,
    "str": "no",
    "datetime": datetime(2005, 8, 29, tzinfo=timezone.utc),
    "timedelta": timedelta(hours=1),
    "object": object(),
}
_TYPED_ARGUMENTS = {
    "max-gap": (lambda value: EngineConfig(value), ConfigError),
    "spatial-flag": (lambda value: EngineConfig(timedelta(1), value), ConfigError),
    "object-attributes": (lambda value: GeoObject("obj:a", "K", value), InvariantViolation),
    "situation-observations": (lambda value: GeoSituation("sit:a", iv(0, 1), value), InvariantViolation),
    "derived-premises": (lambda value: Derived("R", value), InvariantViolation),
}


@pytest.mark.parametrize("build, error, value", [
    pytest.param(build, error, value, id=f"{argument}-{kind}")
    for argument, (build, error) in _TYPED_ARGUMENTS.items()
    for kind, value in _OTHER_TYPES.items()
    if (argument, kind) not in {("max-gap", "timedelta"), ("spatial-flag", "bool")}  # their own types
])
def test_an_argument_of_another_type_is_refused(build, error, value):
    with pytest.raises(error):
        build(value)


def test_derived_holds_its_premises_as_a_tuple_of_keys():
    key = ("ev:x", _CAUSES, "ev:a")
    derived = Derived("R", [key, list(key)])
    assert derived.premises == (key, key) and type(derived.premises) is tuple
    assert all(type(premise) is tuple for premise in derived.premises)
    triple = Triple("ev:a", _CAUSES, "ev:b", derived)
    assert hash(triple) == hash(Triple("ev:a", _CAUSES, "ev:b", Derived("R", (key, key))))


_OFFSETS = st.builds(timezone, st.timedeltas(timedelta(hours=-23, minutes=-59), timedelta(hours=23, minutes=59)))
_INSTANCES = [make() for make, _ in IMMUTABLE.values()] + [get_unit("m"), get_unit("degF")]
_HOSTILE_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(st.characters(exclude_categories=()), max_size=6),  # surrogates included
    st.sampled_from(["", " ", "\t", "a b", '"', "\ud800", "\u2028", "ev:a", "present", "WaterLevel",
                     "2005-08-29T00:00:00Z", " 2005-08-29 ", "0001-01-01T00:00:00+05:00"]),
    st.binary(max_size=4),
    st.datetimes(timezones=st.none() | _OFFSETS),
    st.sampled_from([datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=5))),
                     datetime(9999, 12, 31, 23, tzinfo=timezone(timedelta(hours=-5)))]),
    st.sampled_from(_INSTANCES),
)
_HOSTILE = _HOSTILE_LEAF | st.lists(_HOSTILE_LEAF, max_size=3)
# Arguments of the expected types, so that values get built and saved too.
_TOKEN = st.text(st.characters(exclude_categories=("C", "Z")), min_size=1, max_size=6)
_WHEN = st.datetimes(timezones=st.none() | _OFFSETS) | st.datetimes().map(datetime.isoformat)
_LAT, _LON = st.floats(-90, 90), st.floats(-180, 180)
_INTERVAL = st.sampled_from([iv(0, 1), iv(-3, 2)])
_VALUE = st.sampled_from([q(12, "m"), q(-0.0, "degF"), Categorical("present")])
_MEASUREMENTS = st.lists(st.builds(Measurement, st.sampled_from(["A", "b_1", "WaterLevel"]), _VALUE), max_size=3)
#: Constructor -> an argument of the expected type for each parameter, optional ones included.
_TYPED = {
    TimeInterval: (_WHEN, _WHEN),
    Point: (_LAT, _LON),
    BBox: (_LAT, _LON, _LAT, _LON),
    Measurement: (st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,4}", fullmatch=True), _VALUE),
    Quantity: (st.floats() | st.integers(), st.sampled_from([get_unit("m"), get_unit("degF"), get_unit("1")])),
    Categorical: (_TOKEN,),
    GeoEvent: (_TOKEN, _TOKEN),
    GeoObject: (_TOKEN, _TOKEN, _MEASUREMENTS),
    GeoSituation: (_TOKEN, _INTERVAL, _MEASUREMENTS),
    SpatioTemporalRegion: (_TOKEN, st.sampled_from([Point(30.0, -90.0), BBox(-1.0, -2.0, 1.0, 2.0)]), _INTERVAL),
}
#: How a value that is not an entity is saved: inside the entity that holds it.
_HOLDERS = {
    TimeInterval: lambda value: GeoSituation("sit:held", value),
    Point: lambda value: SpatioTemporalRegion("reg:held", value, iv(0, 1)),
    BBox: lambda value: SpatioTemporalRegion("reg:held", value, iv(0, 1)),
    Measurement: lambda value: GeoObject("obj:held", "K", (value,)),
    Quantity: lambda value: GeoObject("obj:held", "K", (Measurement("A", value),)),
    Categorical: lambda value: GeoObject("obj:held", "K", (Measurement("A", value),)),
}


@pytest.mark.parametrize("cls", _TYPED, ids=lambda cls: cls.__name__)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_hostile_arguments_raise_only_geocausal_errors_and_what_is_built_saves(cls, data):
    arguments = [data.draw(st.booleans().flatmap(lambda hostile: _HOSTILE if hostile else typed))
                 for typed in _TYPED[cls]]
    try:
        value = cls(*arguments)
    except GeoCausalError:
        return
    entity = _HOLDERS.get(cls, lambda entity: entity)(value)
    graph = KnowledgeGraph()
    graph.add_entity(entity)
    assert loads_graph(dump_graph(graph)).entity(entity.id) == entity
