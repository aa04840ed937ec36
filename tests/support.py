"""Shared test helpers: interval shorthand, random graph generators (among
them the Hypothesis strategy ``graphs``), the JSON export's documents as
dicts, mutated documents for the readers, changed CSV files for the
ingest, and the brute-force inference
oracle the engine is checked against, with its own definitions of the
interval and rectangle predicates."""

from __future__ import annotations

import csv
import io
import random
import re
from datetime import datetime, timedelta, timezone
from typing import Callable, Sequence

from hypothesis import strategies as st

from geocausal.errors import InvariantViolation, SchemaViolation
from geocausal.graph import SIGNATURES, KnowledgeGraph, RelationKind, Role, Derived, ASSERTED, Triple
from geocausal.model import (
    BBox,
    Entity,
    GeoEvent,
    GeoObject,
    GeoSituation,
    Measurement,
    Point,
    SpatioTemporalRegion,
    TimeInterval,
    format_timestamp,
    validate_entity_id,
)
from geocausal.query import Explanation
from geocausal.rules import (
    CauseRule,
    CoOccurs,
    Condition,
    Precedes,
    PrecedesWithin,
    PreconditionSet,
    RuleSet,
    Truth,
    evaluate,
)
from geocausal.spatiotemporal import IntervalRelation
from geocausal.storage import format_geometry
from geocausal.units import REGISTRY, Categorical, Comparator, Dimension, Quantity, Unit, format_value, get_unit

EPOCH = datetime(2005, 8, 1, tzinfo=timezone.utc)


def hours(n) -> datetime:
    return EPOCH + timedelta(hours=n)


def iv(a, b) -> TimeInterval:
    """Interval from hour offsets relative to a fixed epoch."""
    return TimeInterval(hours(a), hours(b))


def q(magnitude, symbol) -> Quantity:
    return Quantity(magnitude, get_unit(symbol))


#: Each Allen relation's converse: ``r`` holds of (a, b) when ``INVERSE[r]`` holds of (b, a).
INVERSE: dict[IntervalRelation, IntervalRelation] = {
    IntervalRelation.BEFORE: IntervalRelation.AFTER,
    IntervalRelation.AFTER: IntervalRelation.BEFORE,
    IntervalRelation.MEETS: IntervalRelation.MET_BY,
    IntervalRelation.MET_BY: IntervalRelation.MEETS,
    IntervalRelation.OVERLAPS: IntervalRelation.OVERLAPPED_BY,
    IntervalRelation.OVERLAPPED_BY: IntervalRelation.OVERLAPS,
    IntervalRelation.STARTS: IntervalRelation.STARTED_BY,
    IntervalRelation.STARTED_BY: IntervalRelation.STARTS,
    IntervalRelation.DURING: IntervalRelation.CONTAINS,
    IntervalRelation.CONTAINS: IntervalRelation.DURING,
    IntervalRelation.FINISHES: IntervalRelation.FINISHED_BY,
    IntervalRelation.FINISHED_BY: IntervalRelation.FINISHES,
    IntervalRelation.EQUALS: IntervalRelation.EQUALS,
}

#: Each dimension's canonical unit, the one every comparison is made in.
CANONICAL: dict[Dimension, Unit] = {
    Dimension.TEMPERATURE: REGISTRY["K"],
    Dimension.PRESSURE: REGISTRY["hPa"],
    Dimension.SPEED: REGISTRY["m/s"],
    Dimension.LENGTH: REGISTRY["m"],
    Dimension.DIMENSIONLESS: REGISTRY["1"],
}


def schema_violations(graph: KnowledgeGraph) -> list[str]:
    """Stored triples that break their relation's signature.

    Checked here against ``SIGNATURES`` rather than through the store's
    own check, so a store that stopped checking would be caught.
    """
    def role(entity_id):
        return graph.entity(entity_id).role if graph.has_entity(entity_id) else None

    violations = []
    for t in graph.triples():
        if t.predicate is RelationKind.SATISFIES:
            fits = role(t.subject) is Role.SITUATION  # object: external precondition id
        else:
            fits = (role(t.subject), role(t.object)) in SIGNATURES[t.predicate]
        if not fits:
            violations.append(f"{t.subject} {t.predicate.value} {t.object}")
    return violations


# ---------------------------------------------------------------------------
# Shared fixture builders
# ---------------------------------------------------------------------------

STP = RelationKind.SPATIO_TEMPORALLY_PRESENT


def build_flood_case_a() -> tuple[KnowledgeGraph, RuleSet]:
    """Two co-occurring events plus the rain-causes-flood rule."""
    from geocausal.rules import parse_rules

    graph = KnowledgeGraph()
    graph.add_entity(GeoEvent("ev:heavyrain", "HeavyRain"))
    graph.add_entity(GeoEvent("ev:flashflood", "FlashFlood"))
    graph.add_entity(SpatioTemporalRegion("reg:hr", BBox(29.0, -91.0, 31.0, -89.0), iv(0, 48)))
    graph.add_entity(SpatioTemporalRegion("reg:ff", Point(30.0, -90.0), iv(24, 60)))
    graph.assert_triple("ev:heavyrain", STP, "reg:hr")
    graph.assert_triple("ev:flashflood", STP, "reg:ff")
    rules = parse_rules("rule R1: HeavyRain causes FlashFlood when co-occurs\n")
    return graph, rules


def build_flood_case_b() -> tuple[KnowledgeGraph, RuleSet]:
    """A dam-overflow situation effecting a flood two hours later."""
    from geocausal.rules import parse_rules

    graph = KnowledgeGraph()
    graph.add_entity(GeoObject("obj:dam", "Dam"))
    graph.add_entity(SpatioTemporalRegion("reg:dam", Point(30.0, -90.0), iv(0, 72)))
    graph.assert_triple("obj:dam", STP, "reg:dam")
    graph.add_entity(
        GeoSituation("sit:overflow", iv(0, 10), (Measurement("WaterLevel", q(12, "m")),))
    )
    graph.assert_triple("obj:dam", RelationKind.SETTING, "sit:overflow")
    graph.add_entity(GeoEvent("ev:flood", "Flood"))
    graph.add_entity(SpatioTemporalRegion("reg:flood", Point(30.0, -90.0), iv(12, 20)))
    graph.assert_triple("ev:flood", STP, "reg:flood")
    rules = parse_rules("precondition PC_DAM effects Flood { WaterLevel > 10 m }\n")
    return graph, rules


def build_affects_case() -> tuple[KnowledgeGraph, RuleSet]:
    """``build_flood_case_b`` inferred, with an event in the overflow's
    setting and an asserted effects edge to the flood.

    The event setter lets R-AFF derive that the overflow affects the dam,
    and stops R-EFF (a mixed setting), so the effects edge is asserted:
    no rule derives both edges from one situation."""
    from geocausal.engine import infer

    graph, rules = build_flood_case_b()
    graph.add_entity(GeoEvent("ev:companion", "Other"))
    graph.assert_triple("ev:companion", RelationKind.SETTING, "sit:overflow")
    graph.assert_triple("obj:dam", RelationKind.PARTICIPANT_IN, "ev:companion")
    infer(graph, rules)
    graph.assert_triple("sit:overflow", RelationKind.EFFECTS, "ev:flood")
    return graph, rules


def build_chain_case() -> tuple[KnowledgeGraph, RuleSet]:
    """TropicalStorm -> HeavyRain -> FlashFlood plus a dam situation that
    also effects the flash flood."""
    from geocausal.rules import parse_rules

    graph = KnowledgeGraph()
    graph.add_entity(GeoEvent("ev:tropicalstorm", "TropicalStorm"))
    graph.add_entity(GeoEvent("ev:heavyrain", "HeavyRain"))
    graph.add_entity(GeoEvent("ev:flashflood", "FlashFlood"))
    graph.add_entity(SpatioTemporalRegion("reg:ts", BBox(28.0, -92.0, 31.0, -88.0), iv(0, 24)))
    graph.add_entity(SpatioTemporalRegion("reg:hr", BBox(29.0, -91.0, 31.0, -89.0), iv(24, 48)))
    graph.add_entity(SpatioTemporalRegion("reg:ff", Point(30.0, -90.0), iv(40, 50)))
    graph.assert_triple("ev:tropicalstorm", STP, "reg:ts")
    graph.assert_triple("ev:heavyrain", STP, "reg:hr")
    graph.assert_triple("ev:flashflood", STP, "reg:ff")
    graph.add_entity(GeoObject("obj:dam", "Dam"))
    graph.add_entity(SpatioTemporalRegion("reg:dam", Point(30.0, -90.0), iv(0, 72)))
    graph.assert_triple("obj:dam", STP, "reg:dam")
    graph.add_entity(
        GeoSituation("sit:overflow", iv(30, 38), (Measurement("WaterLevel", q(12, "m")),))
    )
    graph.assert_triple("obj:dam", RelationKind.SETTING, "sit:overflow")
    rules = parse_rules(
        """
        precondition PC_DAM effects FlashFlood { WaterLevel > 10 m }
        rule R1: TropicalStorm causes HeavyRain when precedes within 12h
        rule R2: HeavyRain causes FlashFlood when co-occurs
        """
    )
    return graph, rules


_KATRINA_TYPES = [
    "Tropical Storm",
    "Heavy Rain",
    "Flash Flood",
    "Debris Flow",
    "Thunderstorm Wind",
    "Storm Surge/Tide",
    "High Wind",
    "Tornado",
]


def katrina_csv(rows: int = 23, episode_id: str = "1") -> str:
    """Synthetic storm CSV: one episode, ``rows`` event rows."""
    header = (
        "EPISODE_ID,EVENT_ID,EVENT_TYPE,BEGIN_DATE_TIME,END_DATE_TIME,CZ_TIMEZONE,"
        "BEGIN_LAT,BEGIN_LON,END_LAT,END_LON,DAMAGE_PROPERTY,DEATHS_DIRECT,"
        "MAGNITUDE,MAGNITUDE_TYPE"
    )
    lines = [header]
    for i in range(rows):
        event_type = _KATRINA_TYPES[i % len(_KATRINA_TYPES)]
        day = 23 + (i % 7)
        begin = f"2005-08-{day:02d} {6 + (i % 12):02d}:00:00"
        end = f"2005-08-{day:02d} {7 + (i % 12):02d}:30:00"
        lat = 29.0 + (i % 5) * 0.4
        lon = -91.0 + (i % 7) * 0.3
        damage = "10.00K" if i % 3 == 0 else ""
        deaths = "2" if i % 5 == 0 else ""
        magnitude = "56" if event_type == "Thunderstorm Wind" else ""
        magnitude_type = "EG" if magnitude else ""
        lines.append(
            f"{episode_id},{100 + i},{event_type},{begin},{end},CST,"
            f"{lat},{lon},,,{damage},{deaths},{magnitude},{magnitude_type}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

_KINDS = ("Storm", "Flood", "Rain")
_ATTRIBUTES = (
    ("Temp", ("degC", "degF", "K"), (10.0, 40.0)),
    ("WindSpeed", ("m/s", "kn"), (0.0, 60.0)),
    ("WaterLevel", ("m",), (0.0, 20.0)),
)


def _random_geometry(rng: random.Random):
    lat = rng.choice([28.0, 29.0, 30.0, 40.0])
    lon = rng.choice([-92.0, -90.0, -88.0, -70.0])
    if rng.random() < 0.5:
        return Point(lat, lon)
    return BBox(lat - 1.0, lon - 1.0, lat + 1.0, lon + 1.0)


def _random_interval(rng: random.Random) -> TimeInterval:
    start = rng.randint(0, 40)
    return iv(start, start + rng.randint(0, 30))


def _random_measurements(rng: random.Random) -> list[Measurement]:
    out = []
    for name, units, (low, high) in _ATTRIBUTES:
        if rng.random() < 0.6:
            out.append(Measurement(name, Quantity(round(rng.uniform(low, high), 1), get_unit(rng.choice(units)))))
    if rng.random() < 0.5:
        out.append(Measurement("CoriolisForce", Categorical(rng.choice(["present", "absent"]))))
    return out


def random_engine_case(rng: random.Random) -> tuple[KnowledgeGraph, RuleSet]:
    """A schema-valid graph of at most 8 entities plus at most 4 rules.

    Half the cases are free-form; the other half jitter a situation-effects
    skeleton so that every engine rule (including the effects rule's
    temporal-gap, spatial and mixed-setting gates) is reachable.
    """
    if rng.random() < 0.5:
        return _effects_scenario(rng)
    return _free_form_case(rng)


def _effects_scenario(rng: random.Random) -> tuple[KnowledgeGraph, RuleSet]:
    graph = KnowledgeGraph()
    anchor = Point(30.0, -90.0)

    obj = GeoObject("obj:o0", "Gauge")
    graph.add_entity(obj)
    if rng.random() < 0.85:  # occasionally the setting object has no region
        graph.add_entity(SpatioTemporalRegion("reg:o0", anchor, iv(0, 48)))
        graph.assert_triple("obj:o0", RelationKind.SPATIO_TEMPORALLY_PRESENT, "reg:o0")

    situation_end = rng.randint(2, 12)
    level = rng.choice([8.0, 12.0, 12.0, 12.0])
    observations = [Measurement("WaterLevel", Quantity(level, get_unit("m")))]
    if rng.random() < 0.3:
        observations = []  # unknown satisfaction
    graph.add_entity(GeoSituation("sit:s0", iv(0, situation_end), tuple(observations)))
    graph.assert_triple("obj:o0", RelationKind.SETTING, "sit:s0")

    event_kinds = []
    for i in range(rng.randint(1, 2)):
        event = GeoEvent(f"ev:e{i}", "Flood")
        graph.add_entity(event)
        event_kinds.append(event)
        start = situation_end + rng.choice([-2, 0, 2, 6, 30])  # before / meets / within / beyond gap
        start = max(start, 0)
        if rng.random() < 0.75:
            geometry = anchor if rng.random() < 0.8 else Point(10.0, 10.0)
            graph.add_entity(
                SpatioTemporalRegion(f"reg:e{i}", geometry, iv(start, start + rng.randint(1, 10)))
            )
            graph.assert_triple(
                event.id, RelationKind.SPATIO_TEMPORALLY_PRESENT, f"reg:e{i}"
            )
    if rng.random() < 0.25:  # mixed setting blocks the effects rule
        graph.assert_triple("ev:e0", RelationKind.SETTING, "sit:s0")
    if rng.random() < 0.4:
        graph.assert_triple("obj:o0", RelationKind.PARTICIPANT_IN, "ev:e0")

    threshold = rng.choice([10.0, 10.0, 10.0, 15.0])
    preconditions = [
        PreconditionSet(
            "PC0", "Flood", (Condition("WaterLevel", Comparator.GT, Quantity(threshold, get_unit("m"))),)
        )
    ]
    cause_rules = []
    if rng.random() < 0.4 and len(event_kinds) == 2:
        cause_rules.append(
            CauseRule("CR0", "Flood", "Flood", PrecedesWithin(timedelta(hours=rng.randint(0, 24))))
        )
    return graph, RuleSet(tuple(preconditions), tuple(cause_rules))


def _free_form_case(rng: random.Random) -> tuple[KnowledgeGraph, RuleSet]:
    graph = KnowledgeGraph()
    budget = 8
    events: list[GeoEvent] = []
    objects: list[GeoObject] = []
    situations: list[GeoSituation] = []

    def add_region_for(entity_id: str, tag: str) -> None:
        nonlocal budget
        if budget <= 0 or rng.random() < 0.2:
            return
        region = SpatioTemporalRegion(f"reg:{tag}", _random_geometry(rng), _random_interval(rng))
        graph.add_entity(region)
        graph.assert_triple(entity_id, RelationKind.SPATIO_TEMPORALLY_PRESENT, region.id)
        budget -= 1

    for i in range(rng.randint(1, 3)):
        if budget <= 1:
            break
        event = GeoEvent(f"ev:e{i}", rng.choice(_KINDS))
        graph.add_entity(event)
        events.append(event)
        budget -= 1
        add_region_for(event.id, f"e{i}")

    for i in range(rng.randint(0, 2)):
        if budget <= 1:
            break
        obj = GeoObject(f"obj:o{i}", "Gauge")
        graph.add_entity(obj)
        objects.append(obj)
        budget -= 1
        add_region_for(obj.id, f"o{i}")

    for i in range(rng.randint(0, 2)):
        if budget <= 0:
            break
        situation = GeoSituation(f"sit:s{i}", _random_interval(rng), tuple(_random_measurements(rng)))
        graph.add_entity(situation)
        situations.append(situation)
        budget -= 1

    for situation in situations:
        for obj in objects:
            if rng.random() < 0.7:
                graph.assert_triple(obj.id, RelationKind.SETTING, situation.id)
        for event in events:
            if rng.random() < 0.25:  # occasionally a mixed setting
                graph.assert_triple(event.id, RelationKind.SETTING, situation.id)
    for obj in objects:
        for event in events:
            if rng.random() < 0.4:
                graph.assert_triple(obj.id, RelationKind.PARTICIPANT_IN, event.id)

    preconditions = []
    cause_rules = []
    for i in range(rng.randint(0, 4)):
        if rng.random() < 0.5:
            name, units, (low, high) = rng.choice(_ATTRIBUTES)
            comparator = rng.choice([Comparator.GT, Comparator.LT, Comparator.GE, Comparator.LE])
            threshold = Quantity(round(rng.uniform(low, high), 1), get_unit(rng.choice(units)))
            conditions = [Condition(name, comparator, threshold)]
            if rng.random() < 0.4:
                conditions.append(Condition("CoriolisForce", Comparator.PRESENT))
            preconditions.append(
                PreconditionSet(f"PC{i}", rng.choice(_KINDS), tuple(conditions))
            )
        else:
            cause = rng.choice(_KINDS)
            effect = rng.choice(_KINDS)
            if cause == effect:
                constraint = rng.choice(
                    [Precedes(), PrecedesWithin(timedelta(hours=rng.randint(0, 24)))]
                )
            else:
                constraint = rng.choice(
                    [CoOccurs(), Precedes(), PrecedesWithin(timedelta(hours=rng.randint(0, 24)))]
                )
            cause_rules.append(CauseRule(f"CR{i}", cause, effect, constraint))
    return graph, RuleSet(tuple(preconditions), tuple(cause_rules))


_CAUSAL_KINDS = ("Storm", "Rain", "Flood", "Surge")
_CAUSAL_ANCHOR = Point(30.0, -90.0)
_CAUSAL_RULES = RuleSet(
    (
        PreconditionSet("PC_LEVEL", "Flood", (Condition("WaterLevel", Comparator.GT, q(10, "m")),)),
        PreconditionSet("PC_RAIN", "Rain", (
            Condition("WindSpeed", Comparator.GE, q(15, "m/s")),
            Condition("CoriolisForce", Comparator.PRESENT),
        )),
        PreconditionSet("PC_SURGE", "Surge", (
            Condition("WaterLevel", Comparator.GT, q(3, "m")),
            Condition("Gate", Comparator.EQ, Categorical("open")),
        )),
    ),
    (
        CauseRule("CO_1", "Storm", "Rain", CoOccurs()),
        CauseRule("CO_2", "Rain", "Flood", CoOccurs()),
        CauseRule("CO_3", "Storm", "Surge", CoOccurs()),
        CauseRule("PW_1", "Storm", "Flood", PrecedesWithin(timedelta(hours=12))),
        CauseRule("PW_2", "Flood", "Flood", PrecedesWithin(timedelta(hours=4))),
        CauseRule("PW_3", "Surge", "Flood", PrecedesWithin(timedelta(hours=24))),
        CauseRule("PR_1", "Surge", "Storm", Precedes()),
        CauseRule("PR_2", "Rain", "Surge", Precedes()),
    ),
)


def _causal_observations(rng: random.Random) -> tuple[Measurement, ...]:
    """Observations that satisfy, fail or leave open each precondition of
    ``_CAUSAL_RULES``; WaterLevel sometimes holds a temperature."""
    out = []
    if rng.random() < 0.8:
        unit = "degC" if rng.random() < 0.15 else "m"
        out.append(Measurement("WaterLevel", q(rng.choice([2.0, 5.0, 12.0, 12.0, 18.0]), unit)))
    if rng.random() < 0.6:
        out.append(Measurement("WindSpeed", q(rng.choice([10.0, 20.0, 30.0]), rng.choice(["m/s", "kn"]))))
    if rng.random() < 0.5:
        out.append(Measurement("CoriolisForce", Categorical("present")))
    if rng.random() < 0.5:
        out.append(Measurement("Gate", Categorical(rng.choice(["open", "open", "closed"]))))
    return tuple(out)


def random_causal_case(rng: random.Random) -> tuple[KnowledgeGraph, RuleSet]:
    """A graph of 10-60 events on which ``why`` has something to say, with
    the fixed rules ``_CAUSAL_RULES``.

    Cause rules of each constraint derive chains, diamonds and ladders (a
    train of floods a few hours apart); asserted causes edges add more,
    with a cycle and a self-loop. Object-set situations that precede events
    get effects edges from R-SAT and R-EFF. Situations without a setter get
    asserted satisfies and effects edges, so evidence is true, false (a
    missed threshold or another dimension) or unknown (no observation).
    Situations set by an event whose objects participate in it let R-AFF
    derive affects edges; R-EFF refuses a mixed setting, so their effects
    edges are asserted too.
    """
    graph = KnowledgeGraph()
    events: list[GeoEvent] = []
    starts: dict[str, int] = {}

    def add_event(kind: str, start: int, geometry) -> None:
        event = GeoEvent(f"ev:e{len(events)}", kind)
        graph.add_entity(event)
        events.append(event)
        starts[event.id] = start
        if geometry is None:
            return  # no region: no rule reaches it, only asserted edges
        region = SpatioTemporalRegion(f"reg:e{len(events) - 1}", geometry, iv(start, start + rng.randint(1, 8)))
        graph.add_entity(region)
        graph.assert_triple(event.id, STP, region.id)

    n_events = rng.randint(10, 60)
    if rng.random() < 0.6:  # a ladder: floods 3 h apart, each within 4 h of the next
        train_start = rng.randint(0, 100)
        for i in range(rng.randint(3, min(8, n_events // 2))):
            add_event("Flood", train_start + 3 * i, _CAUSAL_ANCHOR)
    while len(events) < n_events:
        roll = rng.random()
        if roll < 0.7:
            geometry = _CAUSAL_ANCHOR if rng.random() < 0.5 else BBox(29.0, -91.0, 31.0, -89.0)
        elif roll < 0.9:
            geometry = _random_geometry(rng)
        else:
            geometry = None
        add_event(rng.choice(_CAUSAL_KINDS), rng.randint(0, 120), geometry)

    def pick() -> str:
        return rng.choice(events).id

    for _ in range(rng.randint(1, 4)):
        graph.assert_triple(pick(), RelationKind.CAUSES, pick())
    if rng.random() < 0.5:
        a, b, c = pick(), pick(), pick()
        for s, o in ((a, b), (b, c), (c, a)):
            graph.assert_triple(s, RelationKind.CAUSES, o)
    if rng.random() < 0.5:
        a = pick()
        graph.assert_triple(a, RelationKind.CAUSES, a)

    def before(event_id: str) -> TimeInterval:
        """A situation interval ending shortly before the event starts."""
        end = max(starts[event_id] - rng.choice([0, 1, 2, 6]), 1)
        return iv(end - rng.randint(1, 4), end)

    for i in range(rng.randint(2, 6)):  # object-set situations: R-SAT and R-EFF
        obj = GeoObject(f"obj:gauge{i}", "Gauge")
        graph.add_entity(obj)
        graph.add_entity(SpatioTemporalRegion(f"reg:gauge{i}", _CAUSAL_ANCHOR, iv(0, 140)))
        graph.assert_triple(obj.id, STP, f"reg:gauge{i}")
        situation = GeoSituation(f"sit:g{i}", before(pick()), _causal_observations(rng))
        graph.add_entity(situation)
        graph.assert_triple(obj.id, RelationKind.SETTING, situation.id)

    for i in range(rng.randint(1, 4)):  # no setter: asserted satisfies and effects
        situation = GeoSituation(f"sit:x{i}", iv(0, 2), _causal_observations(rng))
        graph.add_entity(situation)
        pc = rng.choice(_CAUSAL_RULES.preconditions)
        graph.assert_triple(situation.id, RelationKind.SATISFIES, pc.id)
        of_kind = [e.id for e in events if e.kind == pc.event_kind]
        target = rng.choice(of_kind) if of_kind and rng.random() < 0.75 else pick()
        graph.assert_triple(situation.id, RelationKind.EFFECTS, target)

    for i in range(rng.randint(1, 3)):  # event-set situations: R-AFF
        setter = pick()
        situation = GeoSituation(f"sit:v{i}", before(setter), _causal_observations(rng))
        graph.add_entity(situation)
        graph.assert_triple(setter, RelationKind.SETTING, situation.id)
        for j in range(rng.randint(1, 2)):
            obj = GeoObject(f"obj:v{i}p{j}", rng.choice(["Dam", "Levee"]))
            graph.add_entity(obj)
            graph.assert_triple(obj.id, RelationKind.PARTICIPANT_IN, setter)
        graph.assert_triple(situation.id, RelationKind.EFFECTS, pick())
    return graph, _CAUSAL_RULES


def random_storage_graph(rng: random.Random, n_triples: int) -> KnowledgeGraph:
    """A schema-valid graph with roughly ``n_triples`` triples, including
    derived provenance whose premises are keys of triples added before,
    for persistence round-trip checks."""
    graph = KnowledgeGraph()
    n = max(2, n_triples // 4)
    events = [GeoEvent(f"ev:e{i}", rng.choice(_KINDS)) for i in range(n)]
    objects = [
        GeoObject(f"obj:o{i}", "Gauge", tuple(_random_measurements(rng))) for i in range(max(1, n // 2))
    ]
    situations = [
        GeoSituation(f"sit:s{i}", _random_interval(rng), tuple(_random_measurements(rng)))
        for i in range(max(1, n // 2))
    ]
    regions = [
        SpatioTemporalRegion(f"reg:r{i}", _random_geometry(rng), _random_interval(rng))
        for i in range(max(1, n // 2))
    ]
    for entity in [*events, *objects, *situations, *regions]:
        graph.add_entity(entity)

    keys = []  # keys of the triples added so far, in order

    def provenance():
        if rng.random() < 0.3:
            premises = [rng.choice(keys) for _ in range(min(len(keys), rng.randint(0, 4)))]
            return Derived(f"R-X:{rng.randint(0, 5)}", tuple(premises))
        return ASSERTED

    choices = [
        lambda: (rng.choice(events).id, RelationKind.PART_OF, rng.choice(events).id),
        lambda: (rng.choice(situations).id, RelationKind.PART_OF, rng.choice(situations).id),
        lambda: (
            rng.choice(events + objects).id,
            RelationKind.SPATIO_TEMPORALLY_PRESENT,
            rng.choice(regions).id,
        ),
        lambda: (rng.choice(objects).id, RelationKind.PARTICIPANT_IN, rng.choice(events).id),
        lambda: (rng.choice(events + objects).id, RelationKind.SETTING, rng.choice(situations).id),
        lambda: (rng.choice(situations).id, RelationKind.SATISFIES, f"PC{rng.randint(0, 9)}"),
        lambda: (rng.choice(events).id, RelationKind.CAUSES, rng.choice(events).id),
        lambda: (rng.choice(situations).id, RelationKind.EFFECTS, rng.choice(events).id),
        lambda: (rng.choice(situations).id, RelationKind.AFFECTS, rng.choice(objects).id),
    ]
    attempts = 0
    while graph.triple_count < n_triples and attempts < n_triples * 20:
        attempts += 1
        key = rng.choice(choices)()
        if not graph.has_triple(*key):
            graph.add_triple(*key, provenance())
            keys.append(key)
    return graph


# ---------------------------------------------------------------------------
# Hypothesis strategy: any graph the model accepts
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


def graphs_equal(a: KnowledgeGraph, b: KnowledgeGraph) -> bool:
    """Exact equality of entities and of triples, provenance included."""
    return a.entities() == b.entities() and a.triples() == b.triples()


# ---------------------------------------------------------------------------
# Mutated documents: what the readers must load or refuse with a ParseError
# ---------------------------------------------------------------------------


#: The ways ``mutate_document`` changes one line of a document.
MUTATIONS = ("delete", "duplicate", "swap", "quote", "whitespace", "odd-token")
_SITES = {
    "swap": re.compile(r'[^\s"\[\],:{}]+'),  # a token of either format, JSON punctuation aside
    "quote": re.compile(r'"|\b'),  # a quote to remove, or a word boundary to insert one at
    "whitespace": re.compile(r"\s+|^|$"),
    "odd-token": re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z|-?\d+(?:\.\d+)?(?:e-?\d+)?"),
}
_WHITESPACE = ("", " ", "  ", "\t", "\u00a0", "\x0b")
#: Malformed or out-of-range stand-ins for a timestamp, coordinate or number token.
_ODD_TOKENS = (
    "", "2005-13-01T00:00:00Z", "2005-08-29T24:00:00Z", "2005-02-30T00:00:00Z", "2005-08-29",
    "2005-08-29T00:00:00.5Z", "2005-08-29T00:00:00+05:00", "0001-01-01T00:00:00+01:00",
    "2005-08-29X00:00:00Z", "1e999", "nan", "-inf", "91", "-181", "1,5", "0x1", "+3", "1e-400",
)


def mutate_document(document: str, vocabulary: Sequence[str], mutation: str, pick: Callable[[int], int]) -> str:
    """``document`` with one line changed by ``mutation``: deleted, duplicated,
    a token swapped for one of ``vocabulary``, a ``"`` removed or inserted,
    a run of whitespace changed, or a timestamp or number token swapped for
    a malformed one. ``pick(n)`` chooses an index below ``n``."""
    lines = document.splitlines()
    i = pick(len(lines))
    line = lines[i]
    if mutation == "delete":
        del lines[i]
    elif mutation == "duplicate":
        lines.insert(i, line)
    elif sites := list(_SITES[mutation].finditer(line)):
        site = sites[pick(len(sites))]
        if mutation == "quote":
            replacement = "" if site.group() else '"'
        else:
            choices = {"swap": vocabulary, "whitespace": _WHITESPACE, "odd-token": _ODD_TOKENS}[mutation]
            replacement = choices[pick(len(choices))]
        lines[i] = line[: site.start()] + replacement + line[site.end():]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Changed CSV files: what the ingest must accept, reject or report on
# ---------------------------------------------------------------------------

#: Timestamps in ISO 8601 forms docs/file-formats.md does not list: since
#: Python 3.11 ``datetime.fromisoformat`` reads each, and 3.10's does not.
UNLISTED_TIMESTAMPS = ("2005-W35-1", "20200101", "20200101T120000Z", "2020-01-01T12:00:00,5",
                       "2020-01-01T12:00:00+0530")

_STORM_TIMES = ("BEGIN_DATE_TIME", "END_DATE_TIME")
_STORM_COORDS = ("BEGIN_LAT", "BEGIN_LON", "END_LAT", "END_LON")
_OBS_TIMES = ("TIMESTAMP_START", "TIMESTAMP_END")
_NUMBER_ODDITIES = ("", " ", "abc", "nan", "inf", "-1", "1e999", "91", "-181", "0", "1,5")
#: Each change: per file kind, the columns it may hit and the values it may
#: write there; ``None`` copies the column's cell from another row, and ``"\n"``
#: inserts a line break into the cell, which the writer then quotes.
CSV_CHANGES = {
    "blank-id": {  # and event types, blank or spelt otherwise
        "storm": (("EPISODE_ID", "EVENT_ID", "EVENT_TYPE"),
                  ("", " ", "\t", "/", "flash flood", "Storm Surge/Tide", "Ünïcode Type")),
        "obs": (("SITUATION_ID",), ("", " ", "\t")),
    },
    "bad-timestamp": {
        "storm": (_STORM_TIMES, (
            "2005-13-01 00:00:00", "2005-02-30 06:00:00", "2005-08-01 24:00:00", "2005-08-01 06:00:60",
            "9999-12-31 23:00:00", "0001-01-01 00:00:00", "2005-08-01T06:00:00", "2005-8-1 6:0:0",
            "2005-08-01", "31-FEB-05 00:00:00", "01-FOO-05 00:00:00", "1-jan-69 00:00:00",
            "29-FEB-04 00:00:00", "29-FEB-05 00:00:00", "31-DEC-99 23:59:59", "01-AUG-05T06:00:00", "bad",
        )),
        "obs": (_OBS_TIMES, (
            "2005-13-01T00:00:00Z", "2005-02-30", "2005-08-01", "2005-08-01T00:00:00.5Z",
            "2005-08-01 00:00:00", "9999-12-31T23:59:59Z", "2005-08-01T24:00:00Z", "01-AUG-05 00:00:00", "bad",
        )),
    },
    "unknown-timezone": {
        "storm": (("CZ_TIMEZONE",), ("XST", "", " ", "est", "CST6", "C", "UTC+1", "Z", "PDT", "MST-7", "ÉST")),
        "obs": (_OBS_TIMES, (
            "2005-08-01T00:00:00-05:00", "2005-08-01T00:00:00+14:00", "2005-08-01T00:00:00z",
            "2005-08-01T00:00:00+25:00", "2005-08-01T00:00:00 UTC", "0001-01-01T00:00:00+01:00",
        )),
    },
    "bad-damage": {
        "storm": (("DAMAGE_PROPERTY", "DEATHS_DIRECT", "MAGNITUDE", "MAGNITUDE_TYPE"), (
            "lots", "1.5X", "10.00k", "2.5 M", "-5K", "1e5", "0", "9" * 400, "E G", "__", "nan", "",
        )),
        "obs": (("VALUE", "UNIT"), ("hot", "", "1e999", "nan", "-3", "furlongs", "degF", "m/s", "present")),
    },
    "repeated-event-id": {
        "storm": (("EVENT_ID", "EPISODE_ID"), (None,)),
        "obs": (("SITUATION_ID", "ATTRIBUTE"), (None, "bad name", "_x")),
    },
    "missing-coordinates": {
        "storm": (_STORM_COORDS, _NUMBER_ODDITIES),
        "obs": (("LAT", "LON"), _NUMBER_ODDITIES),
    },
    "quoted-line-break": {
        "storm": (("EPISODE_ID", "EVENT_ID", "EVENT_TYPE", *_STORM_TIMES, "DAMAGE_PROPERTY", "BEGIN_LAT"), ("\n",)),
        "obs": (("SITUATION_ID", *_OBS_TIMES, "ATTRIBUTE", "VALUE", "UNIT"), ("\n",)),
    },
}


def change_csv_cells(text: str, kind: str, change: str, pick: Callable[[int], int]) -> str:
    """``text``, a CSV file of ``kind`` ("storm" or "obs") with a header and
    at least two rows, with one to three cells changed by ``change`` of
    ``CSV_CHANGES``; ``pick(n)`` chooses an index below ``n``."""
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    columns, values = CSV_CHANGES[change][kind]
    row = pick(len(rows))
    for _ in range(1 + pick(3)):
        if pick(2):
            row = pick(len(rows))
        column = header.index(columns[pick(len(columns))])
        value = values[pick(len(values))]
        cell = rows[row][column]
        if value is None:
            value = rows[pick(len(rows))][column]
        elif value == "\n":
            cut = pick(len(cell) + 1)
            value = cell[:cut] + ("\n", "\r\n", "\n\n")[pick(3)] + cell[cut:]
        rows[row][column] = value
    out = io.StringIO(newline="")
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


# ---------------------------------------------------------------------------
# JSON document oracles: what the export writes, as dicts for json.dumps
# ---------------------------------------------------------------------------


def entity_doc(entity: Entity) -> dict:
    """An entity as a document: the JSON export's form, and the text record's fields."""
    if isinstance(entity, GeoEvent):
        return {"id": entity.id, "role": "event", "kind": entity.kind}
    if isinstance(entity, GeoObject):
        return {
            "id": entity.id,
            "role": "object",
            "kind": entity.kind,
            "attributes": {m.attribute: format_value(m.value) for m in entity.attributes},
        }
    if isinstance(entity, GeoSituation):
        return {
            "id": entity.id,
            "role": "situation",
            "start": format_timestamp(entity.holds_during.start),
            "end": format_timestamp(entity.holds_during.end),
            "observations": {m.attribute: format_value(m.value) for m in entity.observations},
        }
    return {
        "id": entity.id,
        "role": "region",
        "geometry": format_geometry(entity.geometry),
        "start": format_timestamp(entity.interval.start),
        "end": format_timestamp(entity.interval.end),
    }


def triple_doc(t: Triple) -> dict:
    """A triple as a document, its premises as [subject, predicate, object] lists."""
    doc = {"subject": t.subject, "predicate": t.predicate.value, "object": t.object}
    if t.is_derived:
        doc["provenance"] = "derived"
        doc["rule"] = t.provenance.rule_id
        doc["premises"] = [[s, p.value, o] for s, p, o in t.provenance.premises]
    else:
        doc["provenance"] = "asserted"
    return doc


def explanation_doc(explanation: Explanation, graph: KnowledgeGraph) -> dict:
    """The why document, as ``geocausal why --format json`` writes it."""
    return {
        "format": "geocausal-explanation",
        "version": 2,
        "root": explanation.root,
        "depth_reached": explanation.depth_reached,
        "truncated": explanation.truncated,
        "nodes": [entity_doc(graph.entity(n)) for n in explanation.nodes],
        "edges": [
            {
                **triple_doc(edge.triple),
                "depth": edge.depth,
                "precondition": edge.precondition_id,
                "evidence": [
                    {
                        "attribute": condition.attribute,
                        "comparator": condition.comparator.value,
                        "threshold": None if condition.threshold is None else format_value(condition.threshold),
                        "observed": None if outcome.observed is None else format_value(outcome.observed),
                        "status": outcome.status.name.lower(),
                    }
                    for condition, outcome in edge.evidence
                ],
            }
            for edge in explanation.edges
        ],
        "affects": [triple_doc(t) for t in explanation.affects],
    }


# ---------------------------------------------------------------------------
# Brute-force closure oracle
# ---------------------------------------------------------------------------


# The oracle's own definitions of the engine's predicates, from endpoint order
# and closed rectangles, so that it does not agree with the engine by construction.


def _precedes(a: TimeInterval, b: TimeInterval) -> bool:
    """a ends before b starts, or ends where b starts and neither is an instant."""
    return a.end < b.start or (a.end == b.start and a.start < a.end and b.start < b.end)


def spans(geometry) -> list[tuple[float, float]]:
    """A geometry's closed (low, high) span on each axis, lat then lon; a point's are single values."""
    if isinstance(geometry, Point):
        return [(geometry.lat, geometry.lat), (geometry.lon, geometry.lon)]
    return [(geometry.min_lat, geometry.max_lat), (geometry.min_lon, geometry.max_lon)]


def rectangles_meet(a, b) -> bool:
    """The closed rectangles share a point: their spans share a value on each axis."""
    return all(max(lo_a, lo_b) <= min(hi_a, hi_b) for (lo_a, hi_a), (lo_b, hi_b) in zip(spans(a), spans(b)))


def _co_occur(a: SpatioTemporalRegion, b: SpatioTemporalRegion) -> bool:
    """The rectangles meet, and the intervals share a duration, or one is an
    instant the other holds (two that only touch at an instant do not)."""
    start, end = max(a.interval.start, b.interval.start), min(a.interval.end, b.interval.end)
    instant = a.interval.start == a.interval.end or b.interval.start == b.interval.end
    return (start < end or (start == end and instant)) and rectangles_meet(a.geometry, b.geometry)


def brute_force_closure(graph: KnowledgeGraph, rules: RuleSet, config) -> set[tuple]:
    """Close the graph under the four inference rules by exhaustive
    re-enumeration, without touching the graph, and with its own predicate
    definitions. Returns derived keys."""
    derived: set[tuple] = set()

    def has(subject, predicate, object_) -> bool:
        return graph.has_triple(subject, predicate, object_) or (subject, predicate, object_) in derived

    def add(subject, predicate, object_) -> bool:
        if has(subject, predicate, object_):
            return False
        derived.add((subject, predicate, object_))
        return True

    def region_of(entity_id):
        # Its own lookup, not KnowledgeGraph.region_of, so that the oracle does
        # not share the index it checks: the first region in sorted match order.
        for t in graph.match(subject=entity_id, predicate=STP):
            return graph.entity(t.object)
        return None

    situations = [e for e in graph.entities(Role.SITUATION)]
    events = [e for e in graph.entities(Role.EVENT)]
    objects = [e for e in graph.entities(Role.OBJECT)]

    changed = True
    while changed:
        changed = False
        # R-SAT
        for situation in situations:
            for pc in rules.preconditions:
                if evaluate(pc, situation).satisfied is Truth.TRUE:
                    changed |= add(situation.id, RelationKind.SATISFIES, pc.id)
        # R-EFF
        for situation in situations:
            for pc in rules.preconditions:
                if not has(situation.id, RelationKind.SATISFIES, pc.id):
                    continue
                setters = [
                    x
                    for x in (events + objects)
                    if graph.has_triple(x.id, RelationKind.SETTING, situation.id)
                ]
                if any(isinstance(x, GeoEvent) for x in setters):
                    continue
                setter_regions = [
                    r for r in (region_of(x.id) for x in setters) if r is not None
                ]
                for event in events:
                    if event.kind != pc.event_kind:
                        continue
                    region = region_of(event.id)
                    if region is None:
                        continue
                    if not _precedes(situation.holds_during, region.interval):
                        continue
                    if region.interval.start - situation.holds_during.end > config.max_gap:
                        continue
                    if config.require_spatial_overlap and not any(
                        rectangles_meet(region.geometry, r.geometry) for r in setter_regions
                    ):
                        continue
                    changed |= add(situation.id, RelationKind.EFFECTS, event.id)
        # R-CAU
        for rule in rules.cause_rules:
            for a in events:
                if a.kind != rule.cause_kind:
                    continue
                region_a = region_of(a.id)
                if region_a is None:
                    continue
                for b in events:
                    if b.kind != rule.effect_kind:
                        continue
                    region_b = region_of(b.id)
                    if region_b is None:
                        continue
                    if isinstance(rule.constraint, CoOccurs):
                        holds = _co_occur(region_a, region_b)
                    elif isinstance(rule.constraint, Precedes):
                        holds = _precedes(region_a.interval, region_b.interval)
                    else:
                        holds = _precedes(region_a.interval, region_b.interval) and (
                            region_b.interval.start - region_a.interval.end <= rule.constraint.max_gap
                        )
                    if holds:
                        changed |= add(a.id, RelationKind.CAUSES, b.id)
        # R-AFF
        for event in events:
            for situation in situations:
                if not graph.has_triple(event.id, RelationKind.SETTING, situation.id):
                    continue
                for obj in objects:
                    if graph.has_triple(obj.id, RelationKind.PARTICIPANT_IN, event.id):
                        changed |= add(situation.id, RelationKind.AFFECTS, obj.id)
    return derived
