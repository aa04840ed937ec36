"""Schema-enforcing typed knowledge graph.

Entities play one of four roles (object, event, situation, region) and
every relation carries a closed domain/range signature; a triple that
does not fit its signature is rejected, never stored. Derived triples
remember the rule and premises that produced them.

Two relations from the vocabulary, has-geometry and time, are structural:
a region carries its geometry and interval as fields, so these relations
are implied by the region entity itself and cannot be asserted as triples.
The satisfies relation points from a situation at an external precondition
set id owned by the rule layer; its object is not resolved against the
entity table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DuplicateId, SchemaViolation, UnknownEntity, UnknownTriple
from .model import (
    Entity,
    EntityId,
    GeoEvent,
    GeoObject,
    GeoSituation,
    SpatioTemporalRegion,
    validate_entity_id,
)
from .spatiotemporal import co_occurs


class Role(Enum):
    OBJECT = "object"
    EVENT = "event"
    SITUATION = "situation"
    REGION = "region"


def role_of(entity: Entity) -> Role:
    if isinstance(entity, GeoObject):
        return Role.OBJECT
    if isinstance(entity, GeoEvent):
        return Role.EVENT
    if isinstance(entity, GeoSituation):
        return Role.SITUATION
    if isinstance(entity, SpatioTemporalRegion):
        return Role.REGION
    raise TypeError(f"not a graph entity: {entity!r}")


class RelationKind(Enum):
    PART_OF = "part-of"
    SPATIO_TEMPORALLY_PRESENT = "spatio-temporally-present"
    PARTICIPANT_IN = "participant-in"
    HAS_GEOMETRY = "has-geometry"
    TIME = "time"
    SETTING = "setting"
    SATISFIES = "satisfies"
    CAUSES = "causes"
    EFFECTS = "effects"
    AFFECTS = "affects"


RELATION_TOKENS: dict[str, RelationKind] = {r.value: r for r in RelationKind}

#: Allowed (subject-role, object-role) pairs per relation.
SIGNATURES: dict[RelationKind, frozenset[tuple[Role, Role]]] = {
    RelationKind.PART_OF: frozenset(
        {(Role.EVENT, Role.EVENT), (Role.SITUATION, Role.SITUATION)}
    ),
    RelationKind.SPATIO_TEMPORALLY_PRESENT: frozenset(
        {(Role.OBJECT, Role.REGION), (Role.EVENT, Role.REGION)}
    ),
    RelationKind.PARTICIPANT_IN: frozenset({(Role.OBJECT, Role.EVENT)}),
    RelationKind.HAS_GEOMETRY: frozenset(),  # structural: geometry is a region field
    RelationKind.TIME: frozenset(),  # structural: interval is a region field
    RelationKind.SETTING: frozenset(
        {(Role.OBJECT, Role.SITUATION), (Role.EVENT, Role.SITUATION)}
    ),
    RelationKind.SATISFIES: frozenset(),  # special-cased: situation -> external rule id
    RelationKind.CAUSES: frozenset({(Role.EVENT, Role.EVENT)}),
    RelationKind.EFFECTS: frozenset({(Role.SITUATION, Role.EVENT)}),
    RelationKind.AFFECTS: frozenset({(Role.SITUATION, Role.OBJECT)}),
}

_STRUCTURAL = {RelationKind.HAS_GEOMETRY, RelationKind.TIME}


def describe_signature(predicate: RelationKind) -> str:
    if predicate in _STRUCTURAL:
        return "structural (held as region fields, not assertable)"
    if predicate is RelationKind.SATISFIES:
        return "situation -> precondition-set id"
    pairs = sorted(SIGNATURES[predicate], key=lambda p: (p[0].value, p[1].value))
    return " or ".join(f"{d.value} -> {r.value}" for d, r in pairs)


TripleKey = tuple[str, RelationKind, str]


@dataclass(frozen=True)
class Asserted:
    """Provenance of a triple stated directly by a user or data source."""


ASSERTED = Asserted()


@dataclass(frozen=True)
class Derived:
    """Provenance of an inferred triple: the rule and its premise triples.

    The rule id is a bare token, like an entity id, so that it persists
    without escaping. The premise keys, each naming a triple stored before
    this one, persist and reload in order; version 1 documents kept none.
    """

    rule_id: str
    premises: tuple[TripleKey, ...] = ()

    def __post_init__(self):
        validate_entity_id(self.rule_id, "rule id")


Provenance = Asserted | Derived


@dataclass(frozen=True)
class Triple:
    subject: EntityId
    predicate: RelationKind
    object: EntityId
    provenance: Provenance = ASSERTED

    @property
    def key(self) -> TripleKey:
        return (self.subject, self.predicate, self.object)

    @property
    def is_derived(self) -> bool:
        return isinstance(self.provenance, Derived)


def triple_sort_key(t: Triple) -> tuple[str, str, str]:
    return (t.subject, t.predicate.value, t.object)


class KnowledgeGraph:
    """In-memory entity and triple store with always-consistent indexes.

    Single-writer / multiple-reader: mutating calls need exclusive access,
    reads may run concurrently on an unchanging graph.
    """

    def __init__(self) -> None:
        self._entities: dict[str, Entity] = {}
        self._triples: dict[TripleKey, Triple] = {}
        self._by_subject: dict[str, set[TripleKey]] = {}
        self._by_predicate: dict[RelationKind, set[TripleKey]] = {}
        self._by_object: dict[str, set[TripleKey]] = {}
        self._region: dict[str, str] = {}  # entity id -> id of its region (see region_of)

    # -- entities ----------------------------------------------------------

    def add_entity(self, entity: Entity) -> Entity:
        role_of(entity)  # reject foreign types early
        if entity.id in self._entities:
            raise DuplicateId(f"entity id {entity.id!r} already present")
        self._entities[entity.id] = entity
        return entity

    def has_entity(self, entity_id: EntityId) -> bool:
        return entity_id in self._entities

    def entity(self, entity_id: EntityId) -> Entity:
        try:
            return self._entities[entity_id]
        except KeyError:
            raise UnknownEntity(f"no entity with id {entity_id!r}") from None

    def entities(self, role: Role | None = None) -> list[Entity]:
        items = self._entities.values()
        if role is not None:
            items = (e for e in items if role_of(e) is role)
        return sorted(items, key=lambda e: e.id)

    @property
    def entity_count(self) -> int:
        return len(self._entities)

    # -- triples -----------------------------------------------------------

    def _check_schema(self, subject: str, predicate: RelationKind, object: str) -> None:
        if predicate in _STRUCTURAL:
            raise SchemaViolation(
                f"{predicate.value} is {describe_signature(predicate)}"
            )
        subject_role = role_of(self.entity(subject))
        if predicate is RelationKind.SATISFIES:
            if subject_role is not Role.SITUATION:
                raise SchemaViolation(
                    f"satisfies: subject must be a situation, got {subject_role.value}"
                )
            validate_entity_id(object)  # external precondition-set id
            return
        object_role = role_of(self.entity(object))
        if (subject_role, object_role) not in SIGNATURES[predicate]:
            raise SchemaViolation(
                f"{predicate.value}: expected {describe_signature(predicate)}, "
                f"got {subject_role.value} -> {object_role.value}"
            )

    def add_triple(
        self,
        subject: EntityId,
        predicate: RelationKind,
        object: EntityId,
        provenance: Provenance = ASSERTED,
    ) -> Triple:
        """Store a triple after schema checks; repeats are idempotent.

        An existing triple's provenance is immutable: re-adding its key returns
        it unchanged. A premise that is not already stored raises UnknownTriple.
        """
        key = (subject, predicate, object)
        existing = self._triples.get(key)
        if existing is not None:
            return existing
        self._check_schema(subject, predicate, object)
        for premise in getattr(provenance, "premises", ()):
            if premise not in self._triples:
                self.triple(premise)  # raises UnknownTriple
        triple = Triple(subject, predicate, object, provenance)
        self._triples[key] = triple
        self._by_subject.setdefault(subject, set()).add(key)
        self._by_predicate.setdefault(predicate, set()).add(key)
        self._by_object.setdefault(object, set()).add(key)
        if predicate is RelationKind.SPATIO_TEMPORALLY_PRESENT:
            self._region[subject] = min(object, self._region.get(subject, object))
        return triple

    def assert_triple(
        self, subject: EntityId, predicate: RelationKind, object: EntityId
    ) -> Triple:
        return self.add_triple(subject, predicate, object, ASSERTED)

    def has_triple(self, subject: EntityId, predicate: RelationKind, object: EntityId) -> bool:
        return (subject, predicate, object) in self._triples

    def triple(self, key: TripleKey) -> Triple:
        try:
            return self._triples[key]
        except KeyError:
            s, p, o = key
            raise UnknownTriple(f"no triple ({s}, {p.value}, {o})") from None

    def match(
        self,
        subject: EntityId | None = None,
        predicate: RelationKind | None = None,
        object: EntityId | None = None,
    ) -> list[Triple]:
        """All triples matching the pattern, ordered (subject, predicate, object).

        Walks the smallest bound index and tests membership in the others,
        so no index set is copied.
        """
        bound = [
            index.get(key, ())
            for index, key in (
                (self._by_subject, subject),
                (self._by_predicate, predicate),
                (self._by_object, object),
            )
            if key is not None
        ]
        if not bound:
            found = self._triples.values()
        else:
            smallest, *others = sorted(bound, key=len)
            found = [self._triples[k] for k in smallest if all(k in keys for keys in others)]
        return sorted(found, key=triple_sort_key)

    def triples(self) -> list[Triple]:
        return sorted(self._triples.values(), key=triple_sort_key)

    @property
    def triple_count(self) -> int:
        return len(self._triples)

    # -- derived views -----------------------------------------------------

    def region_of(self, entity_id: EntityId) -> SpatioTemporalRegion | None:
        """The region an entity is spatio-temporally present at, if any.

        The relation is not functional: an entity with several regions is
        placed at the one whose id sorts first.
        """
        self.entity(entity_id)
        region_id = self._region.get(entity_id)
        return None if region_id is None else self._entities[region_id]

    def validate(self) -> list[str]:
        """Soft consistency warnings; the schema is enforced by add_triple.

        Participants and their events are expected to overlap
        spatio-temporally; a violation is reported as a warning, not an
        error, because real datasets give participants slightly different
        footprints.
        """
        warnings = []
        for t in self.match(predicate=RelationKind.PARTICIPANT_IN):
            obj_region = self.region_of(t.subject)
            event_region = self.region_of(t.object)
            if obj_region is None or event_region is None:
                continue
            if not co_occurs(obj_region, event_region):
                warnings.append(
                    f"participant-in({t.subject}, {t.object}): regions "
                    f"{obj_region.id} and {event_region.id} do not overlap spatio-temporally"
                )
        return warnings
