"""Line-oriented text persistence for knowledge graphs.

One record per line, UTF-8, ``#`` comments and blank lines ignored:

    ENT <id> event <kind>
    ENT <id> object <kind> [Attr="<value>"]...
    ENT <id> situation - .start=<rfc3339> .end=<rfc3339> [Attr="<value>"]...
    REG <id> POINT(<lat> <lon>) <start> <end>
    REG <id> BBOX(<minlat> <minlon> <maxlat> <maxlon>) <start> <end>
    TRI <subject> <predicate> <object> [DERIVED rule=<id> premises=<n>]

Output ordering is bit-exact: entities sorted by id, then triples sorted
by (subject, predicate, object). Attribute values use the measurement
literal form ("82 degF", "present"). Derived triples persist their rule
id and premise count; premise identities are an in-memory structure only.
"""

from __future__ import annotations

import io
import os
import re
import shlex
from pathlib import Path
from typing import IO

from .errors import (
    DuplicateId,
    GeoCausalError,
    InvariantViolation,
    OrderViolation,
    ParseError,
    SchemaViolation,
    UnknownEntity,
)
from .graph import ASSERTED, Derived, KnowledgeGraph, RELATION_TOKENS, Triple, role_of
from .model import (
    BBox,
    Entity,
    GeoEvent,
    GeoObject,
    GeoSituation,
    Geometry,
    Measurement,
    Point,
    SpatioTemporalRegion,
    TimeInterval,
    format_timestamp,
    parse_timestamp,
)
from .units import format_magnitude, format_value, parse_value

HEADER = "# geocausal graph v1"

_REG_RE = re.compile(
    r"REG\s+(?P<id>\S+)\s+(?P<shape>POINT|BBOX)\((?P<coords>[^)]*)\)\s+(?P<start>\S+)\s+(?P<end>\S+)\s*\Z"
)
_KV_RE = re.compile(r"(?P<key>[.\w]+)=(?P<value>.*)\Z", re.S)


def format_geometry(geometry: Geometry) -> str:
    if isinstance(geometry, Point):
        return f"POINT({format_magnitude(geometry.lat)} {format_magnitude(geometry.lon)})"
    return (
        f"BBOX({format_magnitude(geometry.min_lat)} {format_magnitude(geometry.min_lon)} "
        f"{format_magnitude(geometry.max_lat)} {format_magnitude(geometry.max_lon)})"
    )


def parse_geometry(text: str) -> Geometry:
    text = text.strip()
    m = re.fullmatch(r"(POINT|BBOX)\(([^)]*)\)", text)
    if not m:
        raise ParseError(f"invalid geometry literal {text!r}")
    shape, body = m.groups()
    try:
        coords = [float(c) for c in body.split()]
    except ValueError:
        raise ParseError(f"invalid coordinates in {text!r}") from None
    if shape == "POINT":
        if len(coords) != 2:
            raise ParseError(f"POINT takes 2 coordinates, got {len(coords)}")
        return Point(*coords)
    if len(coords) != 4:
        raise ParseError(f"BBOX takes 4 coordinates, got {len(coords)}")
    return BBox(*coords)


def _entity_line(entity: Entity) -> str:
    if isinstance(entity, GeoEvent):
        return f"ENT {entity.id} event {entity.kind}"
    if isinstance(entity, GeoObject):
        attrs = "".join(f' {m.attribute}="{format_value(m.value)}"' for m in entity.attributes)
        return f"ENT {entity.id} object {entity.kind}{attrs}"
    if isinstance(entity, GeoSituation):
        attrs = "".join(f' {m.attribute}="{format_value(m.value)}"' for m in entity.observations)
        return (
            f"ENT {entity.id} situation - "
            f".start={format_timestamp(entity.holds_during.start)} "
            f".end={format_timestamp(entity.holds_during.end)}{attrs}"
        )
    return (
        f"REG {entity.id} {format_geometry(entity.geometry)} "
        f"{format_timestamp(entity.interval.start)} {format_timestamp(entity.interval.end)}"
    )


def _triple_line(t: Triple) -> str:
    line = f"TRI {t.subject} {t.predicate.value} {t.object}"
    if t.is_derived:
        line += f" DERIVED rule={t.provenance.rule_id} premises={t.provenance.count}"
    return line


def dump_graph(graph: KnowledgeGraph) -> str:
    lines = [HEADER]
    lines.extend(_entity_line(e) for e in graph.entities())
    lines.extend(_triple_line(t) for t in graph.triples())
    return "\n".join(lines) + "\n"


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` through a temporary file in the same
    directory, so a crash or a concurrent writer never leaves a truncated
    file. No fsync: this guards against process failures, not power loss."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temporary.write_text(text, encoding="utf-8")
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def save_graph(graph: KnowledgeGraph, sink: str | Path | IO[str]) -> None:
    text = dump_graph(graph)
    if isinstance(sink, (str, Path)):
        write_text_atomic(sink, text)
    else:
        sink.write(text)


def _parse_entity_line(line: str, lineno: int) -> Entity:
    try:
        tokens = shlex.split(line)
    except ValueError as exc:
        raise ParseError(f"unbalanced quoting: {exc}", lineno) from None
    if len(tokens) < 4:
        raise ParseError("ENT record needs at least <id> <role> <kind>", lineno)
    _, entity_id, role, kind = tokens[:4]
    rest = tokens[4:]
    keyed: dict[str, str] = {}
    for token in rest:
        m = _KV_RE.fullmatch(token)
        if not m:
            raise ParseError(f"expected key=value attribute, got {token!r}", lineno)
        if m.group("key") in keyed:
            raise ParseError(f"duplicate attribute key {m.group('key')!r}", lineno)
        keyed[m.group("key")] = m.group("value")

    def measurements(skip: set[str]) -> list[Measurement]:
        out = []
        for key, raw in keyed.items():
            if key in skip:
                continue
            out.append(Measurement(key, parse_value(raw)))
        return out

    try:
        if role == "event":
            if keyed:
                raise ParseError("event records carry no attributes", lineno)
            return GeoEvent(entity_id, kind)
        if role == "object":
            return GeoObject(entity_id, kind, tuple(measurements(set())))
        if role == "situation":
            if ".start" not in keyed or ".end" not in keyed:
                raise ParseError("situation records need .start and .end", lineno)
            interval = TimeInterval(
                parse_timestamp(keyed[".start"]), parse_timestamp(keyed[".end"])
            )
            return GeoSituation(entity_id, interval, tuple(measurements({".start", ".end"})))
    except ParseError:
        raise
    except GeoCausalError as exc:
        raise ParseError(str(exc), lineno) from None
    raise ParseError(f"unknown entity role {role!r}", lineno)


def _parse_region_line(line: str, lineno: int) -> SpatioTemporalRegion:
    m = _REG_RE.fullmatch(line)
    if not m:
        raise ParseError("malformed REG record", lineno)
    try:
        geometry = parse_geometry(f"{m.group('shape')}({m.group('coords')})")
        interval = TimeInterval(
            parse_timestamp(m.group("start")), parse_timestamp(m.group("end"))
        )
        return SpatioTemporalRegion(m.group("id"), geometry, interval)
    except (InvariantViolation, OrderViolation, ParseError) as exc:
        raise ParseError(str(exc), lineno) from None


def _parse_triple_line(line: str, lineno: int):
    tokens = line.split()
    if len(tokens) not in (4, 7):
        raise ParseError("TRI record needs <subject> <predicate> <object>", lineno)
    _, subject, predicate_token, object_ = tokens[:4]
    predicate = RELATION_TOKENS.get(predicate_token)
    if predicate is None:
        raise ParseError(f"unknown relation {predicate_token!r}", lineno)
    provenance = ASSERTED
    if len(tokens) == 7:
        if tokens[4] != "DERIVED":
            raise ParseError(f"expected DERIVED marker, got {tokens[4]!r}", lineno)
        if not tokens[5].startswith("rule=") or not tokens[6].startswith("premises="):
            raise ParseError("DERIVED marker needs rule=<id> premises=<n>", lineno)
        rule_id = tokens[5][len("rule="):]
        try:
            count = int(tokens[6][len("premises="):])
        except ValueError:
            raise ParseError(f"invalid premise count {tokens[6]!r}", lineno) from None
        provenance = Derived(rule_id, (), count)
    return subject, predicate, object_, provenance


def loads_graph(text: str) -> KnowledgeGraph:
    graph = KnowledgeGraph()
    pending: list[tuple[int, tuple]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag = line.split(None, 1)[0]
        if tag == "ENT":
            entity = _parse_entity_line(line, lineno)
            _add_entity(graph, entity, lineno)
        elif tag == "REG":
            entity = _parse_region_line(line, lineno)
            _add_entity(graph, entity, lineno)
        elif tag == "TRI":
            pending.append((lineno, _parse_triple_line(line, lineno)))
        else:
            raise ParseError(f"unknown record tag {tag!r}", lineno)
    for lineno, (subject, predicate, object_, provenance) in pending:
        try:
            graph.add_triple(subject, predicate, object_, provenance)
        except SchemaViolation as exc:
            raise SchemaViolation(f"line {lineno}: {exc}") from None
        except UnknownEntity as exc:
            raise UnknownEntity(f"line {lineno}: {exc}") from None
    return graph


def _add_entity(graph: KnowledgeGraph, entity: Entity, lineno: int) -> None:
    role_of(entity)
    try:
        graph.add_entity(entity)
    except DuplicateId as exc:
        raise ParseError(str(exc), lineno) from None


def load_graph(source: str | Path | IO[str]) -> KnowledgeGraph:
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    elif isinstance(source, io.TextIOBase) or hasattr(source, "read"):
        text = source.read()
    else:
        raise TypeError(f"cannot load a graph from {source!r}")
    return loads_graph(text)


def graphs_equal(a: KnowledgeGraph, b: KnowledgeGraph) -> bool:
    """Equality up to what the persistence format preserves.

    Entities must match exactly; triples must match on key, provenance
    kind, rule id and premise count (premise identities are not persisted).
    """

    def triple_signature(t: Triple):
        if t.is_derived:
            return (*t.key, "derived", t.provenance.rule_id, t.provenance.count)
        return (*t.key, "asserted")

    if {e.id: e for e in a.entities()} != {e.id: e for e in b.entities()}:
        return False
    return sorted(map(triple_signature, a.triples()), key=str) == sorted(
        map(triple_signature, b.triples()), key=str
    )
