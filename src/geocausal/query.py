"""Why-queries and triple-pattern queries.

A why-query walks causes and effects edges backward from an event,
breadth-first, up to a depth bound. Effects edges terminate a branch at
the originating situation and carry evidence: the satisfied precondition
set and the observation value behind each of its conditions. Affects
edges leaving those situations are reported as side information.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotAnEvent, PatternParseError, UnknownRelation
from .graph import KnowledgeGraph, RelationKind, RELATION_TOKENS, Triple
from .model import GeoEvent, GeoObject, GeoSituation
from .rules import RuleSet, Truth, evaluate
from .units import format_value


@dataclass(frozen=True)
class EvidenceLine:
    """One condition of a satisfied precondition set and what was observed."""

    attribute: str
    comparator: str
    threshold: str | None
    observed: str | None
    status: Truth


@dataclass
class ExplanationEdge:
    triple: Triple
    depth: int
    precondition_id: str | None = None
    evidence: tuple[EvidenceLine, ...] = ()


@dataclass
class Explanation:
    """A backward causal DAG rooted at the queried event."""

    root: str
    nodes: list[str] = field(default_factory=list)
    edges: list[ExplanationEdge] = field(default_factory=list)
    affects: list[Triple] = field(default_factory=list)
    depth_reached: int = 0
    truncated: bool = False


def _satisfies_ids(graph: KnowledgeGraph, situation_id: str) -> list[str]:
    return [t.object for t in graph.match(subject=situation_id, predicate=RelationKind.SATISFIES)]


def _evidence_for(
    graph: KnowledgeGraph, triple: Triple, rules: RuleSet | None
) -> tuple[str | None, tuple[EvidenceLine, ...]]:
    """Recover the precondition behind an effects edge and re-evaluate it."""
    pc_id = None
    if triple.is_derived and triple.provenance.rule_id.startswith("R-EFF:"):
        pc_id = triple.provenance.rule_id.split(":", 1)[1]
    if pc_id is None:
        candidates = _satisfies_ids(graph, triple.subject)
        if candidates:
            pc_id = candidates[0]
    if pc_id is None or rules is None:
        return pc_id, ()
    pc = rules.precondition(pc_id)
    situation = graph.entity(triple.subject)
    if pc is None or not isinstance(situation, GeoSituation):
        return pc_id, ()
    result = evaluate(pc, situation)
    lines = tuple(
        EvidenceLine(
            attribute=cond.attribute,
            comparator=cond.comparator.value,
            threshold=format_value(cond.threshold) if cond.threshold is not None else None,
            observed=format_value(outcome.observed) if outcome.observed is not None else None,
            status=outcome.status,
        )
        for cond, outcome in result.per_condition
    )
    return pc_id, lines


def why(
    graph: KnowledgeGraph,
    event_id: str,
    max_depth: int = 10,
    rules: RuleSet | None = None,
) -> Explanation:
    """Explain an event by walking its incoming causal edges backward.

    Monotone in ``max_depth``: the edges found at depth d are a subset of
    those found at any greater depth.
    """
    entity = graph.entity(event_id)  # raises UnknownEntity
    if not isinstance(entity, GeoEvent):
        raise NotAnEvent(f"{event_id!r} is not a geo-event")

    explanation = Explanation(root=event_id)
    visited_nodes = {event_id}
    seen_edges: set[tuple] = set()
    successors: dict[str, set[str]] = {}  # included edges, subject -> objects

    def reachable(start: str, goal: str) -> bool:
        stack, seen = [start], {start}
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            for nxt in successors.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    frontier = [event_id]
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        next_frontier: list[str] = []
        for node in frontier:
            incoming = graph.match(predicate=RelationKind.CAUSES, object=node) + graph.match(
                predicate=RelationKind.EFFECTS, object=node
            )
            for triple in incoming:
                if triple.key in seen_edges:
                    continue
                seen_edges.add(triple.key)
                if reachable(triple.object, triple.subject):
                    continue  # would close a cycle; break it here
                successors.setdefault(triple.subject, set()).add(triple.object)
                edge = ExplanationEdge(triple, depth)
                if triple.predicate is RelationKind.EFFECTS:
                    edge.precondition_id, edge.evidence = _evidence_for(graph, triple, rules)
                    visited_nodes.add(triple.subject)
                    for side in graph.match(subject=triple.subject, predicate=RelationKind.AFFECTS):
                        if side not in explanation.affects:
                            explanation.affects.append(side)
                else:
                    if triple.subject not in visited_nodes:
                        visited_nodes.add(triple.subject)
                        next_frontier.append(triple.subject)
                explanation.edges.append(edge)
        frontier = sorted(set(next_frontier))

    explanation.depth_reached = max((e.depth for e in explanation.edges), default=0)
    explanation.truncated = any(
        graph.match(predicate=RelationKind.CAUSES, object=node)
        or graph.match(predicate=RelationKind.EFFECTS, object=node)
        for node in frontier
    )
    explanation.nodes = sorted(visited_nodes)
    return explanation


def _entity_label(graph: KnowledgeGraph, entity_id: str) -> str:
    entity = graph.entity(entity_id)
    if isinstance(entity, (GeoEvent, GeoObject)):
        return f"{entity_id} ({entity.kind})"
    if isinstance(entity, GeoSituation):
        return f"{entity_id} (situation)"
    return entity_id


def render_explanation_text(explanation: Explanation, graph: KnowledgeGraph) -> str:
    """Indented tree, one causal edge per line, evidence as sub-lines."""
    by_target: dict[str, list[ExplanationEdge]] = {}
    for edge in sorted(explanation.edges, key=lambda e: (e.triple.predicate.value, e.triple.subject)):
        by_target.setdefault(edge.triple.object, []).append(edge)
    affects_by_situation: dict[str, list[Triple]] = {}
    for side in explanation.affects:
        affects_by_situation.setdefault(side.subject, []).append(side)

    lines = [_entity_label(graph, explanation.root)]
    stack = [(edge, 1) for edge in reversed(by_target.get(explanation.root, []))]  # no recursion limit
    while stack:
        edge, indent = stack.pop()
        pad = "  " * indent
        arrow = f"<- {edge.triple.predicate.value} --"
        lines.append(f"{pad}{arrow} {_entity_label(graph, edge.triple.subject)}")
        if edge.triple.predicate is RelationKind.EFFECTS:
            for ev in edge.evidence:
                condition = f"{ev.attribute} {ev.comparator}"
                if ev.threshold is not None:
                    condition += f" {ev.threshold}"
                observed = f"observed {ev.observed}" if ev.observed is not None else "not observed"
                status = {Truth.TRUE: "true", Truth.FALSE: "false", Truth.UNKNOWN: "unknown"}[ev.status]
                label = f" [{edge.precondition_id}]" if edge.precondition_id else ""
                lines.append(f"{pad}     evidence{label}: {condition} ({observed}) => {status}")
            for side in sorted(
                affects_by_situation.get(edge.triple.subject, []), key=lambda t: t.object
            ):
                lines.append(f"{pad}     affects: {_entity_label(graph, side.object)}")
        else:
            stack.extend((e, indent + 1) for e in reversed(by_target.get(edge.triple.subject, [])))
    if explanation.truncated:
        lines.append(f"... truncated at depth {explanation.depth_reached}")
    return "\n".join(lines)


def parse_pattern(text: str) -> tuple[str | None, RelationKind | None, str | None]:
    """Parse "<id|?> <relation|?> <id|?>" into a match pattern."""
    tokens = text.split()
    if len(tokens) != 3:
        raise PatternParseError(
            f"pattern needs exactly three terms '<id|?> <relation|?> <id|?>', got {len(tokens)}"
        )
    subject = None if tokens[0] == "?" else tokens[0]
    predicate = None
    if tokens[1] != "?":
        predicate = RELATION_TOKENS.get(tokens[1])
        if predicate is None:
            valid = ", ".join(sorted(RELATION_TOKENS))
            raise UnknownRelation(f"unknown relation {tokens[1]!r}; valid tokens: {valid}")
    object_ = None if tokens[2] == "?" else tokens[2]
    return subject, predicate, object_


def query(graph: KnowledgeGraph, pattern: str) -> list[Triple]:
    """Match a textual triple pattern against the graph."""
    subject, predicate, object_ = parse_pattern(pattern)
    return graph.match(subject=subject, predicate=predicate, object=object_)
