"""Schema-enforcing typed knowledge graph.

Entities play one of four roles (object, event, situation, region), each
entity class its own, and every relation carries a closed domain/range
signature; a triple that does not fit its signature is rejected, never
stored. Derived triples remember the rule and premises that produced them.

Two relations from the vocabulary, has-geometry and time, are structural:
a region carries its geometry and interval as fields, so these relations
are implied by the region entity itself and cannot be asserted as triples.
The satisfies relation points from a situation at an external precondition
set id owned by the rule layer; its object is not resolved against the
entity table.
"""

from __future__ import annotations

from enum import Enum

from .errors import DuplicateId, InvariantViolation, SchemaViolation, UnknownEntity, UnknownTriple
from .model import Entity, EntityId, Role, SpatioTemporalRegion, validate_entity_id
from .slotted import Frozen, store
from .spatiotemporal import co_occurs


def role_of(entity: Entity) -> Role:
    if not isinstance(entity, Entity):
        raise TypeError(f"not a graph entity: {entity!r}")
    return entity.role


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
    __hash__ = object.__hash__  # as for Role: triple keys hash in C


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


class Asserted(Frozen):
    """Provenance of a triple stated directly by a user or data source."""

    __slots__ = ()


ASSERTED = Asserted()


class Derived(Frozen):
    """Provenance of an inferred triple: the rule and its premise triples.

    The rule id is a bare token, like an entity id, so that it persists
    without escaping. The premise keys, each naming a triple stored before
    this one, persist and reload in order; version 1 documents kept none.
    They are held as a tuple of 3-tuples, so the value hashes.
    """

    __slots__ = ("rule_id", "premises")

    def __init__(self, rule_id: str, premises: tuple[TripleKey, ...] = ()):
        store(self, "rule_id", validate_entity_id(rule_id, "rule id"))
        try:
            keys = tuple(tuple(k) if isinstance(k, list) else k for k in premises)
        except TypeError:
            keys = None
        if keys is None or not all(
            isinstance(k, tuple) and len(k) == 3 and isinstance(k[1], RelationKind) for k in keys
        ):
            raise InvariantViolation(f"premises must be (subject, relation, object) keys, got {premises!r}")
        store(self, "premises", keys)


Provenance = Asserted | Derived


class Triple(Frozen):
    __slots__ = ("subject", "predicate", "object", "provenance")

    def __init__(
        self,
        subject: EntityId,
        predicate: RelationKind,
        object: EntityId,
        provenance: Provenance = ASSERTED,
    ):
        store(self, "subject", subject)
        store(self, "predicate", predicate)
        store(self, "object", object)
        store(self, "provenance", provenance)

    @property
    def key(self) -> TripleKey:
        return (self.subject, self.predicate, self.object)

    @property
    def is_derived(self) -> bool:
        return isinstance(self.provenance, Derived)


def triple_sort_key(t: Triple) -> tuple[str, str, str]:
    return (t.subject, t.predicate.value, t.object)


def _signature(predicate: RelationKind) -> frozenset[tuple[Role, Role]]:
    try:
        return SIGNATURES[predicate]
    except (KeyError, TypeError):  # TypeError: an unhashable predicate
        raise SchemaViolation(f"{predicate!r} is not a relation kind") from None


class KnowledgeGraph:
    """In-memory entity and triple store with always-consistent indexes.

    Four fields: entities by id, triples by key, and a list of keys per
    subject and per object, so a pattern that binds either walks only that
    entity's triples; one that binds neither scans every key. Each key is
    held once, built from the stored entities' own id strings. An entity's
    role is its class's; ``region_of`` reads the subject index.

    Single-writer / multiple-reader: mutating calls need exclusive access,
    reads may run concurrently on an unchanging graph.
    """

    def __init__(self) -> None:
        self._entities: dict[str, Entity] = {}
        self._triples: dict[TripleKey, Triple] = {}
        self._by_subject: dict[str, list[TripleKey]] = {}
        self._by_object: dict[str, list[TripleKey]] = {}

    # -- entities ----------------------------------------------------------

    def add_entity(self, entity: Entity) -> Entity:
        role_of(entity)  # rejects foreign types early
        if entity.id in self._entities:
            raise DuplicateId(f"entity id {entity.id!r} already present")
        self._entities[entity.id] = entity
        return entity

    def has_entity(self, entity_id: EntityId) -> bool:
        try:
            return entity_id in self._entities
        except TypeError:  # an unhashable id, which entity() refuses
            self.entity(entity_id)

    def entity(self, entity_id: EntityId) -> Entity:
        try:
            return self._entities[entity_id]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise UnknownEntity(f"no entity with id {entity_id!r}") from None

    def entities(self, role: Role | None = None) -> list[Entity]:
        items = self._entities.values()
        if role is not None:
            items = (e for e in items if e.role is role)
        return sorted(items, key=lambda e: e.id)

    @property
    def entity_count(self) -> int:
        return len(self._entities)

    def role(self, entity_id: EntityId) -> Role:
        """The role of a stored entity; UnknownEntity if there is none."""
        return self.entity(entity_id).role

    # -- triples -----------------------------------------------------------

    def _check_schema(self, subject: str, predicate: RelationKind, object: str) -> tuple[str, str]:
        """The stored entities' ids; a satisfies object, an external id, as given."""
        signature = _signature(predicate)
        if predicate in _STRUCTURAL:
            raise SchemaViolation(
                f"{predicate.value} is {describe_signature(predicate)}"
            )
        s = self.entity(subject)
        if predicate is RelationKind.SATISFIES:
            if s.role is not Role.SITUATION:
                raise SchemaViolation(
                    f"satisfies: subject must be a situation, got {s.role.value}"
                )
            return s.id, validate_entity_id(object)  # external precondition-set id
        o = self.entity(object)
        if (s.role, o.role) not in signature:
            raise SchemaViolation(
                f"{predicate.value}: expected {describe_signature(predicate)}, "
                f"got {s.role.value} -> {o.role.value}"
            )
        return s.id, o.id

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
        try:
            existing = self._triples.get((subject, predicate, object))
        except TypeError:  # an unhashable argument, which the schema check refuses
            existing = None
        if existing is not None:
            return existing
        subject, object = self._check_schema(subject, predicate, object)
        if isinstance(provenance, Derived):
            for premise in provenance.premises:
                if premise not in self._triples:
                    self.triple(premise)  # raises UnknownTriple
        triple = Triple(subject, predicate, object, provenance)
        key = (subject, predicate, object)
        self._triples[key] = triple
        self._by_subject.setdefault(subject, []).append(key)
        self._by_object.setdefault(object, []).append(key)
        return triple

    def assert_triple(
        self, subject: EntityId, predicate: RelationKind, object: EntityId
    ) -> Triple:
        return self.add_triple(subject, predicate, object, ASSERTED)

    def has_triple(self, subject: EntityId, predicate: RelationKind, object: EntityId) -> bool:
        """Whether the triple is stored. An unhashable argument, or a predicate
        that is not a relation kind, raises as in ``add_triple``."""
        try:
            if (subject, predicate, object) in self._triples:
                return True
        except TypeError:  # an unhashable argument
            self._check_schema(subject, predicate, object)
        _signature(predicate)
        return False

    def triple(self, key: TripleKey) -> Triple:
        try:
            return self._triples[key]
        except (KeyError, TypeError):  # TypeError: an unhashable key
            pass
        if type(key) is tuple and len(key) == 3 and isinstance(key[1], RelationKind):
            raise UnknownTriple(f"no triple ({key[0]}, {key[1].value}, {key[2]})")
        raise UnknownTriple(f"no triple {key!r}")

    def match(
        self,
        subject: EntityId | None = None,
        predicate: RelationKind | None = None,
        object: EntityId | None = None,
    ) -> list[Triple]:
        """All triples matching the pattern, ordered (subject, predicate, object).

        Walks the smaller of the bound subject and object index entries, or
        every key when neither is bound, and tests the rest of the pattern
        on each key, so no index list is copied. An unhashable id raises
        ``UnknownEntity``; a predicate that is not a relation kind matches
        nothing, and only then is it refused.
        """
        try:
            bound = [index.get(key, ()) for index, key in
                     ((self._by_subject, subject), (self._by_object, object)) if key is not None]
        except TypeError:  # an unhashable id, which entity() refuses
            for key in (subject, object):
                if key is not None:
                    self.entity(key)
            raise
        found = [
            self._triples[k] for k in (min(bound, key=len) if bound else self._triples)
            if (subject is None or k[0] == subject)
            and (predicate is None or k[1] is predicate)
            and (object is None or k[2] == object)
        ]
        if not found and predicate is not None:
            _signature(predicate)
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
        region_id = min((o for _, p, o in self._by_subject.get(entity_id, ())
                         if p is RelationKind.SPATIO_TEMPORALLY_PRESENT), default=None)
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
