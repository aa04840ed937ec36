"""Shared test helpers: interval shorthand, random graph generators and the
brute-force inference oracle the engine is checked against."""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone

from geocausal.graph import SIGNATURES, KnowledgeGraph, RelationKind, Role, Derived, ASSERTED, role_of
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
from geocausal.spatiotemporal import co_occurs, gap_between, precedes, spatial_overlap
from geocausal.units import Categorical, Comparator, Quantity, get_unit

EPOCH = datetime(2005, 8, 1, tzinfo=timezone.utc)


def hours(n) -> datetime:
    return EPOCH + timedelta(hours=n)


def iv(a, b) -> TimeInterval:
    """Interval from hour offsets relative to a fixed epoch."""
    return TimeInterval(hours(a), hours(b))


def q(magnitude, symbol) -> Quantity:
    return Quantity(magnitude, get_unit(symbol))


def schema_violations(graph: KnowledgeGraph) -> list[str]:
    """Stored triples that break their relation's signature.

    Checked here against ``SIGNATURES`` rather than through the store's
    own check, so a store that stopped checking would be caught.
    """
    def role(entity_id):
        return role_of(graph.entity(entity_id)) if graph.has_entity(entity_id) else None

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
# Brute-force closure oracle
# ---------------------------------------------------------------------------


def brute_force_closure(graph: KnowledgeGraph, rules: RuleSet, config) -> set[tuple]:
    """Close the graph under the four inference rules by exhaustive
    re-enumeration, without touching the graph. Returns derived keys."""
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
                    if not precedes(situation.holds_during, region.interval):
                        continue
                    if gap_between(situation.holds_during, region.interval) > config.max_gap:
                        continue
                    if config.require_spatial_overlap and not any(
                        spatial_overlap(region.geometry, r.geometry) for r in setter_regions
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
                        holds = co_occurs(region_a, region_b)
                    elif isinstance(rule.constraint, Precedes):
                        holds = precedes(region_a.interval, region_b.interval)
                    else:
                        holds = precedes(region_a.interval, region_b.interval) and gap_between(
                            region_a.interval, region_b.interval
                        ) <= rule.constraint.max_gap
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
