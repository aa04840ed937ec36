"""DOT and JSON documents of graphs and explanations: every writer, and
the JSON graph reader.

Output is byte-identical across runs: entities and triples are emitted in
their canonical sorted orders and JSON key order is fixed. The JSON graph
document round-trips through :func:`graph_from_json`, which checks each
record as it reads it against the keys its template here writes (``_KEYS``)
and builds the graph through the text reader's builder in ``storage``.
Schemas are documented in docs/json-output.md.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _q
from typing import TYPE_CHECKING

from .errors import ParseError
from .graph import ASSERTED, KnowledgeGraph, Role, Triple, TripleKey
from .model import (Entity, GeoEvent, GeoObject, GeoSituation, Measurement, SpatioTemporalRegion,
                    TimeInterval, format_timestamp)
from .storage import _build_graph, _key, _measurements, _required, format_geometry, parse_geometry
from .units import format_value

if TYPE_CHECKING:
    from .query import Explanation, ExplanationEdge
    from .rules import Condition, ConditionOutcome

_DOT_SHAPES = {
    Role.EVENT: "box",
    Role.OBJECT: "ellipse",
    Role.SITUATION: "diamond",
    Role.REGION: "note",
}


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_node(entity: Entity) -> str:
    name = _dot_escape(entity.id)
    label = f"{name}\\n{_dot_escape(entity.kind)}" if isinstance(entity, (GeoEvent, GeoObject)) else name
    return f'  "{name}" [shape={_DOT_SHAPES[entity.role]} label="{label}"];'


def _dot_edge(t: Triple) -> str:
    style = " style=dashed" if t.is_derived else ""
    return (
        f'  "{_dot_escape(t.subject)}" -> "{_dot_escape(t.object)}" '
        f'[label="{t.predicate.value}"{style}];'
    )


def graph_to_dot(graph: KnowledgeGraph) -> str:
    lines = ["digraph geocausal {", "  rankdir=LR;"]
    lines.extend(map(_dot_node, graph.entities()))
    triples = graph.triples()
    # satisfies edges point at external precondition-set ids
    external = sorted({t.object for t in triples if not graph.has_entity(t.object)})
    lines.extend(
        f'  "{_dot_escape(x)}" [shape=plaintext label="{_dot_escape(x)}"];' for x in external
    )
    lines.extend(_dot_edge(t) for t in triples)
    lines.append("}")
    return "\n".join(lines) + "\n"


def explanation_to_dot(explanation: Explanation, graph: KnowledgeGraph) -> str:
    lines = ["digraph explanation {", "  rankdir=RL;"]
    extra_nodes = {side.object for side in explanation.affects} - set(explanation.nodes)
    for node in [*explanation.nodes, *sorted(extra_nodes)]:
        lines.append(_dot_node(graph.entity(node)))
    for edge in explanation.edges:
        lines.append(_dot_edge(edge.triple))
    for side in explanation.affects:
        lines.append(_dot_edge(side))
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# JSON
# --------------------------------------------------------------------------


# Both documents are written record by record, byte for byte as the json
# module's ``dumps(doc, indent=2)`` writes them, plus a newline: with
# ``indent`` set, ``dumps`` runs its pure-Python encoder, one generator
# step per token. Each record is formatted from the entity or triple
# itself, one fixed template per entity role and one for triples, at its
# indentation; every id, kind, attribute name and value literal goes
# through ``_q``.


def _values_json(measurements: tuple[Measurement, ...]) -> str:
    """An attributes or observations object, at an entity record's field indentation."""
    members = ",\n".join(f"        {_q(m.attribute)}: {_q(format_value(m.value))}" for m in measurements)
    return f"{{\n{members}\n      }}" if members else "{}"


def _entity_json(entity: Entity) -> str:
    head = f'    {{\n      "id": {_q(entity.id)},\n      "role": "{entity.role.value}",\n'
    if isinstance(entity, GeoEvent):
        return f'{head}      "kind": {_q(entity.kind)}\n    }}'
    if isinstance(entity, GeoObject):
        return f'{head}      "kind": {_q(entity.kind)},\n      "attributes": {_values_json(entity.attributes)}\n    }}'
    if isinstance(entity, GeoSituation):
        interval = entity.holds_during
        return (
            f'{head}      "start": "{format_timestamp(interval.start)}",\n      "end": "{format_timestamp(interval.end)}",\n'
            f'      "observations": {_values_json(entity.observations)}\n    }}'
        )
    return (
        f'{head}      "geometry": "{format_geometry(entity.geometry)}",\n'
        f'      "start": "{format_timestamp(entity.interval.start)}",\n      "end": "{format_timestamp(entity.interval.end)}"\n    }}'
    )


def _triple_json(t: Triple, tail: str = "") -> str:
    """A triple record; ``tail`` holds any further fields, each after ``,\\n``."""
    head = (
        f'    {{\n      "subject": {_q(t.subject)},\n      "predicate": "{t.predicate.value}",\n'
        f'      "object": {_q(t.object)},\n      "provenance": '
    )
    if not t.is_derived:
        return f'{head}"asserted"{tail}\n    }}'
    premises = ",\n".join(
        f'        [\n          {_q(s)},\n          "{p.value}",\n          {_q(o)}\n        ]'
        for s, p, o in t.provenance.premises
    )
    premises = f"[\n{premises}\n      ]" if premises else "[]"
    return f'{head}"derived",\n      "rule": {_q(t.provenance.rule_id)},\n      "premises": {premises}{tail}\n    }}'


def _append_array(pieces: list[str], records) -> None:
    start = len(pieces)
    for record in records:
        pieces += (",\n", record)
    if len(pieces) == start:
        pieces.append("[]")
    else:
        pieces[start] = "[\n"
        pieces.append("\n  ]")


def graph_to_json(graph: KnowledgeGraph) -> str:
    """The graph document (docs/json-output.md)."""
    pieces = ['{\n  "format": "geocausal-graph",\n  "version": 2,\n  "entities": ']
    _append_array(pieces, map(_entity_json, graph.entities()))
    pieces.append(',\n  "triples": ')
    _append_array(pieces, map(_triple_json, graph.triples()))
    pieces.append("\n}\n")
    return "".join(pieces)


#: The keys ``graph_to_json`` writes for each record shape: the document,
#: each entity role's entry and each provenance's triple entry. The reader
#: requires each record to carry exactly these.
_KEYS = {
    "document": {"format", "version", "entities", "triples"},
    "event": {"id", "role", "kind"},
    "object": {"id", "role", "kind", "attributes"},
    "situation": {"id", "role", "start", "end", "observations"},
    "region": {"id", "role", "geometry", "start", "end"},
    "asserted": {"subject", "predicate", "object", "provenance"},
    "derived": {"subject", "predicate", "object", "provenance", "rule", "premises"},
}


def _check_keys(record: dict, shape: str, what: str) -> None:
    """An unwritten key is named before a missing one, so a misspelt key reads as itself."""
    if unwritten := record.keys() - _KEYS[shape]:
        raise ParseError(f"{what} carry no key {min(unwritten)!r}")
    if missing := _KEYS[shape] - record.keys():
        raise ParseError(f"{what} need key {min(missing)!r}")


def _string(doc: dict, name: str) -> str:
    return _required(doc[name], doc["role"], name)


def _values(doc: dict, name: str) -> dict[str, str]:
    values = doc[name]
    if not isinstance(values, dict) or not all(isinstance(v, str) for v in values.values()):
        raise ParseError(f"{name!r} must map attribute names to value literals")
    return values


def _entity_from_doc(doc: dict) -> Entity:
    """A JSON entity entry decoded, once its keys are its role's."""
    role = doc.get("role")
    if role not in ("event", "object", "situation", "region"):
        raise ParseError(f"unknown entity role {role!r}")
    _check_keys(doc, role, f"{role} records")
    if role == "event":
        return GeoEvent(_string(doc, "id"), _string(doc, "kind"))
    if role == "object":
        return GeoObject(_string(doc, "id"), _string(doc, "kind"), _measurements(_values(doc, "attributes")))
    interval = TimeInterval(_string(doc, "start"), _string(doc, "end"))
    if role == "situation":
        return GeoSituation(_string(doc, "id"), interval, _measurements(_values(doc, "observations")))
    geometry = parse_geometry(_string(doc, "geometry"))
    return SpatioTemporalRegion(_string(doc, "id"), geometry, interval)


def _triple_key(subject, predicate, object_) -> TripleKey:
    if not (isinstance(subject, str) and isinstance(predicate, str) and isinstance(object_, str)):
        raise ParseError("a triple needs string subject, predicate and object")
    return _key(subject, predicate, object_)


def _triple_from_doc(doc: dict) -> tuple:
    """A JSON triple entry decoded, once its keys are its provenance's."""
    provenance = doc.get("provenance")
    if provenance not in ("asserted", "derived"):
        raise ParseError(f"provenance must be 'asserted' or 'derived', got {provenance!r}")
    _check_keys(doc, provenance, f"{provenance} triples")
    key = _triple_key(doc["subject"], doc["predicate"], doc["object"])
    if provenance == "asserted":
        return key, ASSERTED, ()
    premises = doc["premises"]
    if not isinstance(premises, list) or any(not isinstance(p, list) or len(p) != 3 for p in premises):
        raise ParseError("premises must be a list of [subject, predicate, object]")
    return key, doc["rule"], [_triple_key(*p) for p in premises]


def _entries(doc: dict, name: str, decode) -> list[tuple]:
    entries = doc[name]
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ParseError(f"{name!r} must be a list of objects")
    return [(f"{name}[{i}]", decode, entry) for i, entry in enumerate(entries)]


def graph_from_json(text: str) -> KnowledgeGraph:
    """Read a JSON graph document; any fault raises ParseError, naming the entry at fault."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", getattr(exc, "lineno", None)) from None
    if not isinstance(doc, dict) or doc.get("format") != "geocausal-graph":
        raise ParseError("not a geocausal-graph document")
    if (version := doc.get("version")) != 2 or type(version) is not int:
        raise ParseError(f"unsupported geocausal-graph version {version!r}")
    _check_keys(doc, "document", "geocausal-graph documents")
    return _build_graph([*_entries(doc, "entities", _entity_from_doc),
                         *_entries(doc, "triples", _triple_from_doc)])


def _evidence_json(condition: Condition, outcome: ConditionOutcome) -> str:
    threshold = "null" if condition.threshold is None else _q(format_value(condition.threshold))
    observed = "null" if outcome.observed is None else _q(format_value(outcome.observed))
    return (
        f'        {{\n          "attribute": {_q(condition.attribute)},\n          "comparator": "{condition.comparator.value}",\n'
        f'          "threshold": {threshold},\n          "observed": {observed},\n'
        f'          "status": "{outcome.status.name.lower()}"\n        }}'
    )


def _edge_json(edge: ExplanationEdge) -> str:
    precondition = "null" if edge.precondition_id is None else _q(edge.precondition_id)
    evidence = ",\n".join(_evidence_json(*pair) for pair in edge.evidence)
    evidence = f"[\n{evidence}\n      ]" if evidence else "[]"
    return _triple_json(
        edge.triple,
        f',\n      "depth": {edge.depth},\n      "precondition": {precondition},\n      "evidence": {evidence}',
    )


def explanation_to_json(explanation: Explanation, graph: KnowledgeGraph) -> str:
    """The why document (docs/json-output.md)."""
    pieces = [
        f'{{\n  "format": "geocausal-explanation",\n  "version": 2,\n  "root": {_q(explanation.root)},\n'
        f'  "depth_reached": {explanation.depth_reached},\n'
        f'  "truncated": {"true" if explanation.truncated else "false"},\n  "nodes": '
    ]
    _append_array(pieces, (_entity_json(graph.entity(n)) for n in explanation.nodes))
    pieces.append(',\n  "edges": ')
    _append_array(pieces, map(_edge_json, explanation.edges))
    pieces.append(',\n  "affects": ')
    _append_array(pieces, map(_triple_json, explanation.affects))
    pieces.append("\n}\n")
    return "".join(pieces)
