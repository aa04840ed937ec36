"""Line-oriented text persistence for knowledge graphs, the record decode
that the JSON reader in ``export`` shares, and the package's file I/O.

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

Each writer formats the entity or triple it is given: ``_entity_line``
and ``_triple_line`` here. The text reader splits each line once as it
reads it (a REG line's geometry is read from the line itself), and
matches no pattern. Each reader dispatches on an entity record's role
once and calls the entity's constructor itself; an object's attributes
or a situation's observations become measurements through
``_measurements``, a triple's key, and each premise's, through ``_key``.
Both readers build the graph through ``_build_graph``, which holds each
cited premise as one key in the entities' own id strings. The JSON
format, its writer and its entry decoders, lives in ``export`` alone.
"""

from __future__ import annotations

import gc
import os
from contextlib import contextmanager
from itertools import count, repeat
from pathlib import Path
from typing import IO, Callable, Iterable

from .errors import GeoCausalError, ParseError
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


def format_geometry(geometry: Geometry) -> str:
    if isinstance(geometry, Point):
        return f"POINT({format_magnitude(geometry.lat)} {format_magnitude(geometry.lon)})"
    return (
        f"BBOX({format_magnitude(geometry.min_lat)} {format_magnitude(geometry.min_lon)} "
        f"{format_magnitude(geometry.max_lat)} {format_magnitude(geometry.max_lon)})"
    )


def _geometry_literal(text: str) -> tuple[str | None, str, str]:
    """``text`` read as ``<POINT|BBOX>(<coordinates>)<rest>``: its shape (None
    if it does not start so), its coordinates and the rest."""
    shape, _, after = text.partition("(")
    coords, close, rest = after.partition(")")
    return (shape if close and shape in ("POINT", "BBOX") else None), coords, rest


def parse_geometry(text: str) -> Geometry:
    shape, coords, rest = _geometry_literal(text.strip())
    if shape is None or rest:
        raise ParseError(f"invalid geometry literal {text.strip()!r}")
    return _geometry(shape, coords)


def _geometry(shape: str, coords: str) -> Geometry:
    try:
        values = list(map(float, coords.split()))
    except ValueError:
        raise ParseError(f"invalid coordinates in {f'{shape}({coords})'!r}") from None
    if shape == "POINT":
        if len(values) != 2:
            raise ParseError(f"POINT takes 2 coordinates, got {len(values)}")
        return Point(*values)
    if len(values) != 4:
        raise ParseError(f"BBOX takes 4 coordinates, got {len(values)}")
    return BBox(*values)


def _required(value, role: str, name: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{role} record needs a string {name!r}")
    return value


def _measurements(values: dict[str, str]) -> list[Measurement]:
    """A record's name→literal map as measurements, each value parsed before its name is checked."""
    return [Measurement(name, parse_value(raw)) for name, raw in values.items()]


def _key(subject: str, predicate: str, object_: str) -> TripleKey:
    if (relation := RELATION_TOKENS.get(predicate)) is None:
        raise ParseError(f"unknown relation {predicate!r}")
    return (subject, relation, object_)


def _located(exc: GeoCausalError, where: int | str) -> ParseError:
    """``exc`` as a ParseError naming its record: a text line or a JSON entry."""
    return ParseError(str(exc), where) if isinstance(where, int) else ParseError(f"{where}: {exc}")


@contextmanager
def collector_paused():
    """Pause the cyclic collector, then restore it as it was. For code that builds
    many values holding no cycles: a collection there finds nothing, and at 10**5
    records its passes take seconds. Then, unless objects are frozen, every tracked
    object moves to the oldest generation unwalked. Also a function decorator."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()  # into the oldest generation
        if collecting:
            gc.enable()


@collector_paused()
def _build_graph(records: Iterable[tuple[int | str, Callable, object]]) -> KnowledgeGraph:
    """Build a graph from ``(where, decode, payload)`` records, ``where`` a line number
    or JSON entry name. ``decode(payload)`` gives an entity, added at once, a triple's
    ``(key, rule id or ASSERTED, premise keys)``, added after the records its premises
    name, or None. A premise is held as one key, in the entities' own id strings where
    the entities came first. Every fault is a ParseError naming its record;
    docs/file-formats.md says which one a document with several faults reports."""
    graph = KnowledgeGraph()
    held: list[tuple[int | str, TripleKey, Provenance]] = []
    first: dict[TripleKey, int] = {}  # each key's first record
    ids: dict[str, str] = {}
    cited: dict[TripleKey, TripleKey] = {}
    try:
        for where, decode, payload in records:
            record = decode(payload)
            if type(record) is tuple:
                key, provenance, premises = record
                if provenance is not ASSERTED:
                    keys = []
                    for premise in premises:
                        if (held_key := cited.get(premise)) is None:
                            s, p, o = premise
                            held_key = cited[premise] = (ids.get(s, s), p, ids.get(o, o))
                        keys.append(held_key)
                    provenance = Derived(provenance, keys)
                first.setdefault(key, len(held))
                held.append((where, key, provenance))
            elif record is not None:
                graph.add_entity(record)
                ids[record.id] = record.id
        del ids, cited  # needed only while reading: the load's peak holds neither
        # An explicit stack, so any depth loads; document order, so a repeated
        # triple keeps its first record. Open records are the top's premise-ancestors.
        state = [0] * len(held)  # 0 new, 1 open, 2 added
        stack = list(reversed(range(len(held))))
        while stack:
            where, key, provenance = held[j := stack.pop()]
            if state[j] == 0 and provenance is not ASSERTED:
                state[j] = 1
                stack.append(j)
                for premise in provenance.premises:
                    if (k := first.get(premise)) is None or state[k] == 1:
                        s, p, o = premise
                        fault = "is not a stored triple" if k is None else "leads back to this triple"
                        raise ParseError(f"premise ({s} {p.value} {o}) {fault}")
                    stack.append(k)
            elif state[j] != 2:  # open, or new with no premises to wait for
                state[j] = 2
                graph.add_triple(*key, provenance)
    except GeoCausalError as exc:
        raise _located(exc, where) from None
    return graph


def _entity_line(entity: Entity) -> str:
    if isinstance(entity, SpatioTemporalRegion):
        start, end = format_timestamp(entity.interval.start), format_timestamp(entity.interval.end)
        return f"REG {entity.id} {format_geometry(entity.geometry)} {start} {end}"
    if isinstance(entity, GeoEvent):
        return f"ENT {entity.id} event {entity.kind}"
    if isinstance(entity, GeoObject):
        head, values = f"ENT {entity.id} object {entity.kind}", entity.attributes
    else:
        start, end = format_timestamp(entity.holds_during.start), format_timestamp(entity.holds_during.end)
        head, values = f"ENT {entity.id} situation - .start={start} .end={end}", entity.observations
    return head + "".join(f' {m.attribute}="{format_value(m.value)}"' for m in values)


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


def read_text(source: str | Path | IO[str]) -> str:
    """The one place any source becomes text: a path's bytes as strict UTF-8,
    or a text stream read to its end, one leading byte-order mark (U+FEFF, as
    spreadsheet programs write it) dropped, line breaks kept as they are. A
    byte that is not UTF-8 raises ParseError naming its line; a missing or
    unreadable file raises OSError."""
    if hasattr(source, "read"):
        return source.read().removeprefix("\ufeff")
    with open(source, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not valid UTF-8", line) from None


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` through a temporary file in the same
    directory, so a crash or a concurrent writer never leaves a truncated
    file. The new file keeps the permission bits of the one it replaces.
    The temporary file is fsynced before the rename and the directory after
    it (where the platform can open one), so the rename survives a power
    loss with the new text in it."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        mode = os.stat(path).st_mode & 0o7777
    except OSError:  # absent; any other fault surfaces from the write
        mode = None
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            if mode is not None:
                os.chmod(temporary, mode)  # before the text is in it
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    try:
        directory = os.open(path.parent, os.O_RDONLY)
    except OSError:  # a platform that opens no directory (Windows)
        return
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def save_graph(graph: KnowledgeGraph, sink: str | Path | IO[str]) -> None:
    text = dump_graph(graph)
    if isinstance(sink, (str, Path)):
        write_text_atomic(sink, text)
    else:
        sink.write(text)


def _unquoted(line: str) -> list[str]:
    """``line``, which holds an even number of ``"``, split on whitespace
    outside double quotes, the quotes dropped: the writer escapes nothing,
    so the reader processes no escapes."""
    tokens: list[str] = []
    joined = False  # whether the next piece continues the last token
    for i, piece in enumerate(line.split('"')):
        if i % 2:  # quoted, whitespace and all
            if joined:
                tokens[-1] += piece
            else:
                tokens.append(piece)
            joined = True
        elif piece:
            words = piece.split()
            if joined and words and not piece[0].isspace():
                tokens[-1] += words.pop(0)
            tokens += words
            joined = not piece[-1].isspace()
    return tokens


def _entity_record(line: str, tokens: list[str]) -> Entity:
    """An ENT line's entity from its ``tokens``; a line with quotes splits again."""
    if '"' in line:  # else the same tokens: str.split and the quoted split agree on whitespace
        if line.count('"') % 2:
            raise ParseError("unbalanced double quote")
        tokens = _unquoted(line)
    if len(tokens) < 4:
        raise ParseError("ENT record needs at least <id> <role> <kind>")
    _, entity_id, role, kind, *rest = tokens
    if role == "region":
        raise ParseError("a region is a REG record, not an ENT record")
    if role == "situation" and kind != "-":
        raise ParseError(f"a situation record has '-' in the kind slot, got {kind!r}")
    values: dict[str, str] = {}
    for token in rest:
        key, equals, value = token.partition("=")
        if not equals:
            raise ParseError(f"expected key=value attribute, got {token!r}")
        if key in values:
            raise ParseError(f"duplicate attribute key {key!r}")
        values[key] = value
    if role == "event":
        if values:
            raise ParseError("event records carry no attributes")
        return GeoEvent(entity_id, kind)
    if role == "object":
        return GeoObject(entity_id, kind, _measurements(values))
    if role != "situation":
        raise ParseError(f"unknown entity role {role!r}")
    start = _required(values.pop(".start", None), role, "start")
    interval = TimeInterval(start, _required(values.pop(".end", None), role, "end"))
    return GeoSituation(entity_id, interval, _measurements(values))


def _triple_record(tokens: list[str]) -> tuple:
    """A TRI line that is not a bare key: a derived triple, or a fault."""
    if len(tokens) < 6:
        raise ParseError("TRI record needs <subject> <predicate> <object>")
    _, subject, predicate, object_, marker, rule, *premises = tokens
    if marker != "DERIVED" or not rule.startswith("rule="):
        raise ParseError("expected DERIVED rule=<id> after the object")
    if len(premises) == 1 and premises[0].startswith("premises=") and premises[0][9:].isdecimal():
        premises = []  # version 1 kept a premise count, never the premise keys
    elif len(premises) % 3:
        raise ParseError(f"premises take three tokens each (<s> <p> <o>), got {len(premises)}")
    key, tokens = _key(subject, predicate, object_), iter(premises)
    return key, rule[len("rule="):], list(map(_key, tokens, tokens, tokens))


def _text_record(raw: str) -> Entity | tuple | None:
    """One text line decoded, split once: an entity, a triple, or None for a
    blank or comment line."""
    tokens = raw.split()
    tag = tokens[0] if tokens else "#"
    if tag == "TRI":
        if len(tokens) == 4:  # TRI <subject> <predicate> <object>
            return _key(tokens[1], tokens[2], tokens[3]), ASSERTED, ()
        return _triple_record(tokens)
    if tag == "ENT":
        return _entity_record(raw, tokens)
    if tag == "REG":  # REG <id> <geometry> <start> <end>: the geometry is the text after the id
        shape, coords, rest = _geometry_literal(raw.split(None, 2)[-1])
        instants = rest.split()
        if shape is None or len(instants) != 2 or not rest[0].isspace():
            raise ParseError("malformed REG record")
        interval = TimeInterval(*instants)  # checked first, as the JSON reader does
        return SpatioTemporalRegion(tokens[1], _geometry(shape, coords), interval)
    if tag.startswith("#"):
        return None
    raise ParseError(f"unknown record tag {tag!r}")


def loads_graph(text: str) -> KnowledgeGraph:
    """Read a text document; any fault raises ParseError with ``.line`` set.
    The cyclic garbage collector is paused during the load, then restored."""
    return _build_graph(zip(count(1), repeat(_text_record), text.splitlines()))


def load_graph(source: str | Path | IO[str]) -> KnowledgeGraph:
    """``loads_graph`` over a path or a text stream, read through ``read_text``."""
    return loads_graph(read_text(source))
