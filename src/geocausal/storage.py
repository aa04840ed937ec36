"""Line-oriented text persistence for knowledge graphs, and the record
codec that the JSON export shares.

One record per line, UTF-8, ``#`` comments and blank lines ignored:

    ENT <id> event <kind>
    ENT <id> object <kind> [Attr="<value>"]...
    ENT <id> situation - .start=<rfc3339> .end=<rfc3339> [Attr="<value>"]...
    REG <id> POINT(<lat> <lon>) <start> <end>
    REG <id> BBOX(<minlat> <minlon> <maxlat> <maxlon>) <start> <end>
    TRI <subject> <predicate> <object> [DERIVED rule=<id> [<s> <p> <o>]...]

Output ordering is bit-exact: entities sorted by id, then triples sorted
by (subject, predicate, object). Attribute values use the measurement
literal form ("82 degF", "present"). A derived triple lists the keys of
its premises, three tokens each, in stored order.

No record needs an escape. The model forbids whitespace, control
characters and ``"`` in ids, kinds and rule ids, and whitespace and ``"``
in categorical tokens, so a record splits on whitespace outside double
quotes and its quotes are simply dropped. Version 1 documents ended a
derived triple with ``premises=<n>``; such a record loads with no
premises, because version 1 never stored which triples they were.

Text records and the JSON export share one document form, plain dicts
and lists of strings: ``entity_doc`` and ``triple_doc`` encode it, and
``graph_from_docs`` decodes it.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import IO, Iterable

from .errors import DuplicateId, GeoCausalError, InvariantViolation, ParseError
from .graph import ASSERTED, Derived, KnowledgeGraph, Provenance, RELATION_TOKENS, Triple, TripleKey
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
)
from .units import format_magnitude, format_value, parse_value

HEADER = "# geocausal graph v2"

_TOKEN_RE = re.compile(r'(?:[^\s"]|"[^"]*")+')
_REG_RE = re.compile(
    r"REG\s+(?P<id>\S+)\s+(?P<geometry>(?:POINT|BBOX)\([^)]*\))\s+(?P<start>\S+)\s+(?P<end>\S+)\s*\Z"
)
_V1_PREMISE_COUNT = re.compile(r"premises=\d+\Z")


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


def _string(doc: dict, name: str) -> str:
    value = doc.get(name)
    if not isinstance(value, str):
        raise ParseError(f"{doc['role']} record needs a string {name!r}")
    return value


def _measurements(doc: dict, name: str) -> tuple[Measurement, ...]:
    values = doc.get(name, {})
    if not isinstance(values, dict) or not all(isinstance(v, str) for v in values.values()):
        raise ParseError(f"{name!r} must map attribute names to value literals")
    return tuple(Measurement(key, parse_value(raw)) for key, raw in values.items())


def _entity_from_doc(doc: dict) -> Entity:
    role = doc.get("role")
    try:
        if role == "event":
            if doc.get("attributes"):
                raise ParseError("event records carry no attributes")
            return GeoEvent(_string(doc, "id"), _string(doc, "kind"))
        if role == "object":
            return GeoObject(_string(doc, "id"), _string(doc, "kind"), _measurements(doc, "attributes"))
        if role in ("situation", "region"):
            interval = TimeInterval(_string(doc, "start"), _string(doc, "end"))
            if role == "situation":
                return GeoSituation(_string(doc, "id"), interval, _measurements(doc, "observations"))
            geometry = parse_geometry(_string(doc, "geometry"))
            return SpatioTemporalRegion(_string(doc, "id"), geometry, interval)
    except ParseError:
        raise
    except GeoCausalError as exc:
        raise ParseError(str(exc)) from None
    raise ParseError(f"unknown entity role {role!r}")


def _triple_key(subject, predicate, object_) -> TripleKey:
    if not all(isinstance(term, str) for term in (subject, predicate, object_)):
        raise ParseError("a triple needs string subject, predicate and object")
    relation = RELATION_TOKENS.get(predicate)
    if relation is None:
        raise ParseError(f"unknown relation {predicate!r}")
    return (subject, relation, object_)


def _triple_from_doc(doc: dict) -> tuple[TripleKey, Provenance]:
    key = _triple_key(doc.get("subject"), doc.get("predicate"), doc.get("object"))
    if doc.get("provenance") != "derived":
        return key, ASSERTED
    premises = doc.get("premises", [])
    if not isinstance(premises, list) or any(not isinstance(p, list) or len(p) != 3 for p in premises):
        raise ParseError("premises must be a list of [subject, predicate, object]")
    try:
        return key, Derived(doc.get("rule"), tuple(_triple_key(*p) for p in premises))
    except InvariantViolation as exc:
        raise ParseError(str(exc)) from None


def _located(exc: GeoCausalError, where: int | str) -> GeoCausalError:
    """``exc`` naming the record it came from: a text line or a JSON entry."""
    if isinstance(where, int) and isinstance(exc, ParseError):
        return ParseError(str(exc), where)
    return type(exc)(f"{f'line {where}' if isinstance(where, int) else where}: {exc}")


def graph_from_docs(
    entities: Iterable[tuple[int | str, dict]], triples: Iterable[tuple[int | str, dict]]
) -> KnowledgeGraph:
    """Build a graph from entity and triple documents, each paired with
    where it came from (a line number or a JSON entry name). Triple records
    may come in any order; a premise that names no record, or leads back to
    its own, raises ParseError. Errors name the offending record."""
    graph = KnowledgeGraph()
    try:
        for where, doc in entities:
            try:
                graph.add_entity(_entity_from_doc(doc))
            except DuplicateId as exc:
                raise ParseError(str(exc)) from None
        records: list[tuple[int | str, TripleKey, Provenance]] = []
        first: dict[TripleKey, int] = {}
        for where, doc in triples:
            key, provenance = _triple_from_doc(doc)
            first.setdefault(key, len(records))
            records.append((where, key, provenance))
        # An explicit stack, so any depth loads; document order, so a repeated
        # triple keeps its first record. Open records are the top's premise-ancestors.
        state = [0] * len(records)  # 0 new, 1 open, 2 added
        stack = list(reversed(range(len(records))))
        while stack:
            where, key, provenance = records[j := stack.pop()]
            if state[j] == 0:
                state[j] = 1
                stack.append(j)
                for s, p, o in getattr(provenance, "premises", ()):
                    k = first.get((s, p, o))
                    if k is None or state[k] == 1:
                        fault = "is not a stored triple" if k is None else "leads back to this triple"
                        raise ParseError(f"premise ({s} {p.value} {o}) {fault}")
                    stack.append(k)
            elif state[j] == 1:
                state[j] = 2
                graph.add_triple(*key, provenance)
    except GeoCausalError as exc:
        raise _located(exc, where) from None
    return graph


def _entity_line(entity: Entity) -> str:
    doc = entity_doc(entity)
    if doc["role"] == "region":
        return f"REG {doc['id']} {doc['geometry']} {doc['start']} {doc['end']}"
    if doc["role"] == "situation":
        head = f"ENT {doc['id']} situation - .start={doc['start']} .end={doc['end']}"
        values = doc["observations"]
    else:
        head = f"ENT {doc['id']} {doc['role']} {doc['kind']}"
        values = doc.get("attributes", {})
    return head + "".join(f' {name}="{value}"' for name, value in values.items())


def _triple_line(t: Triple) -> str:
    line = f"TRI {t.subject} {t.predicate.value} {t.object}"
    if t.is_derived:
        line += f" DERIVED rule={t.provenance.rule_id}"
        line += "".join(f" {s} {p.value} {o}" for s, p, o in t.provenance.premises)
    return line


def dump_graph(graph: KnowledgeGraph) -> str:
    """The graph as a text document; add_triple keeps every premise stored."""
    lines = [HEADER]
    lines.extend(_entity_line(e) for e in graph.entities())
    lines.extend(_triple_line(t) for t in graph.triples())
    return "\n".join(lines) + "\n"


def read_text(path: str | Path) -> str:
    """The one place a file's bytes become text: strict UTF-8, line breaks
    kept as they are. A byte that is not UTF-8 raises ParseError naming its
    line; a missing or unreadable file raises OSError."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not valid UTF-8", line) from None


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


def _split_record(line: str, lineno: int) -> list[str]:
    """Split on whitespace outside double quotes, then drop the quotes. The
    writer escapes nothing, so the reader processes no escapes."""
    if line.count('"') % 2:
        raise ParseError("unbalanced double quote", lineno)
    return [token.replace('"', "") for token in _TOKEN_RE.findall(line)]


def _entity_record(tokens: list[str], lineno: int) -> dict:
    if len(tokens) < 4:
        raise ParseError("ENT record needs at least <id> <role> <kind>", lineno)
    _, entity_id, role, kind, *rest = tokens
    values: dict[str, str] = {}
    for token in rest:
        key, equals, value = token.partition("=")
        if not equals:
            raise ParseError(f"expected key=value attribute, got {token!r}", lineno)
        if key in values:
            raise ParseError(f"duplicate attribute key {key!r}", lineno)
        values[key] = value
    if role == "situation":
        start, end = values.pop(".start", None), values.pop(".end", None)
        return {"id": entity_id, "role": role, "start": start, "end": end, "observations": values}
    return {"id": entity_id, "role": role, "kind": kind, "attributes": values}


def _region_record(line: str, lineno: int) -> dict:
    m = _REG_RE.fullmatch(line)
    if not m:
        raise ParseError("malformed REG record", lineno)
    return {"role": "region", **m.groupdict()}


def _triple_record(tokens: list[str], lineno: int) -> dict:
    if len(tokens) < 4 or len(tokens) == 5:
        raise ParseError("TRI record needs <subject> <predicate> <object>", lineno)
    _, subject, predicate, object_, *rest = tokens
    doc = {"subject": subject, "predicate": predicate, "object": object_}
    if rest:
        marker, rule, *premises = rest
        if marker != "DERIVED" or not rule.startswith("rule="):
            raise ParseError("expected DERIVED rule=<id> after the object", lineno)
        if len(premises) == 1 and _V1_PREMISE_COUNT.match(premises[0]):
            premises = []  # version 1 kept a premise count, never the premise keys
        elif len(premises) % 3:
            raise ParseError(
                f"premises take three tokens each (<s> <p> <o>), got {len(premises)}", lineno
            )
        doc["provenance"] = "derived"
        doc["rule"] = rule[len("rule="):]
        doc["premises"] = [premises[i:i + 3] for i in range(0, len(premises), 3)]
    return doc


def loads_graph(text: str) -> KnowledgeGraph:
    entities: list[tuple[int, dict]] = []
    triples: list[tuple[int, dict]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag = line.split(None, 1)[0]
        if tag == "ENT":
            entities.append((lineno, _entity_record(_split_record(line, lineno), lineno)))
        elif tag == "REG":
            entities.append((lineno, _region_record(line, lineno)))
        elif tag == "TRI":
            triples.append((lineno, _triple_record(line.split(), lineno)))
        else:
            raise ParseError(f"unknown record tag {tag!r}", lineno)
    return graph_from_docs(entities, triples)


def load_graph(source: str | Path | IO[str]) -> KnowledgeGraph:
    return loads_graph(source.read() if hasattr(source, "read") else read_text(source))


def graphs_equal(a: KnowledgeGraph, b: KnowledgeGraph) -> bool:
    """Exact equality of entities and of triples, provenance included."""
    return a.entities() == b.entities() and a.triples() == b.triples()
