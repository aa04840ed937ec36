"""Why-queries and triple-pattern queries.

A why-query walks causes and effects edges backward from an event,
breadth-first, up to a depth bound. Effects edges terminate a branch at
the originating situation and carry evidence: the satisfied precondition
set and the observation value behind each of its conditions. That set is
the first, in id order, that the situation satisfies and that effects the
event's kind; without rules there is none. Affects edges leaving those
situations are reported as side information.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ConfigError, NotAnEvent, PatternParseError, UnknownRelation
from .graph import KnowledgeGraph, RelationKind, RELATION_TOKENS, Triple
from .model import GeoEvent, GeoObject, GeoSituation
from .slotted import Slotted
from .units import format_value

if TYPE_CHECKING:
    from .rules import Condition, ConditionOutcome, RuleSet


class ExplanationEdge(Slotted):
    """A walked edge; an effects edge's evidence is ``evaluate``'s per-condition outcomes."""

    __slots__ = ("triple", "depth", "precondition_id", "evidence")

    def __init__(
        self,
        triple: Triple,
        depth: int,
        precondition_id: str | None = None,
        evidence: tuple[tuple[Condition, ConditionOutcome], ...] = (),
    ):
        self.triple = triple
        self.depth = depth
        self.precondition_id = precondition_id
        self.evidence = evidence


class Explanation(Slotted):
    """A backward causal DAG rooted at the queried event."""

    __slots__ = ("root", "nodes", "edges", "affects", "depth_reached", "truncated")

    def __init__(
        self,
        root: str,
        nodes: list[str] | None = None,
        edges: list[ExplanationEdge] | None = None,
        affects: list[Triple] | None = None,
        depth_reached: int = 0,
        truncated: bool = False,
    ):
        self.root = root
        self.nodes = [] if nodes is None else nodes
        self.edges = [] if edges is None else edges
        self.affects = [] if affects is None else affects
        self.depth_reached = depth_reached
        self.truncated = truncated


def _evidence_for(
    graph: KnowledgeGraph, triple: Triple, rules: RuleSet | None
) -> tuple[str | None, tuple[tuple[Condition, ConditionOutcome], ...]]:
    """The first precondition, in id order, that the situation satisfies and
    that effects the event's kind, re-evaluated; none without rules."""
    if rules is None:
        return None, ()
    kind = graph.entity(triple.object).kind  # an event, by the effects schema
    for satisfied in graph.match(subject=triple.subject, predicate=RelationKind.SATISFIES):
        pc = rules.precondition(satisfied.object)
        if pc is not None and pc.event_kind == kind:
            from .rules import evaluate  # loaded only where evidence is re-evaluated

            return pc.id, evaluate(pc, graph.entity(triple.subject)).per_condition
    return None, ()


def reachable(successors: dict[str, set[str]], start: str, goal: str) -> bool:
    """Whether ``goal`` can be reached from ``start`` along ``successors``."""
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


def why(
    graph: KnowledgeGraph,
    event_id: str,
    max_depth: int = 10,
    rules: RuleSet | None = None,
) -> Explanation:
    """Explain an event by walking its incoming causal edges backward.

    Each node is expanded once. Only an edge from a node already in the
    explanation can close a cycle, so only such an edge pays for a walk.

    Monotone in ``max_depth``: the edges found at depth d are a subset of
    those found at any greater depth. A negative depth raises ConfigError.
    """
    if max_depth < 0:
        raise ConfigError(f"max_depth must be 0 or more, got {max_depth}")
    entity = graph.entity(event_id)  # raises UnknownEntity
    if not isinstance(entity, GeoEvent):
        raise NotAnEvent(f"{event_id!r} is not a geo-event")

    explanation = Explanation(root=event_id)
    visited_nodes = {event_id}
    successors: dict[str, set[str]] = {}  # included edges, subject -> objects

    def incoming(node: str) -> list[Triple]:
        return graph.match(predicate=RelationKind.CAUSES, object=node) + graph.match(
            predicate=RelationKind.EFFECTS, object=node
        )

    def closes_cycle(triple: Triple) -> bool:
        return triple.subject in visited_nodes and reachable(successors, triple.object, triple.subject)

    frontier = [event_id]
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        next_frontier: list[str] = []
        for node in frontier:
            for triple in incoming(node):
                if closes_cycle(triple):
                    continue  # break the cycle here
                successors.setdefault(triple.subject, set()).add(triple.object)
                edge = ExplanationEdge(triple, depth)
                if triple.predicate is RelationKind.EFFECTS:
                    edge.precondition_id, edge.evidence = _evidence_for(graph, triple, rules)
                if triple.subject not in visited_nodes:
                    # A situation has no causes: expanding it adds no edge.
                    visited_nodes.add(triple.subject)
                    next_frontier.append(triple.subject)
                    explanation.affects.extend(graph.match(subject=triple.subject, predicate=RelationKind.AFFECTS))
                explanation.edges.append(edge)
        frontier = sorted(next_frontier)

    explanation.depth_reached = max((e.depth for e in explanation.edges), default=0)
    # Truncated when one more level would add an edge. An edge the walk drops
    # now it would drop then too, as included edges only add paths.
    explanation.truncated = any(
        not closes_cycle(triple) for node in frontier for triple in incoming(node)
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
    """Indented tree, one causal edge per line, evidence as sub-lines. A
    cause is expanded where it is first printed; a later edge from it gets
    its own line, but not the cause's causes or affects again."""
    by_target: dict[str, list[ExplanationEdge]] = {}
    for edge in sorted(explanation.edges, key=lambda e: (e.triple.predicate.value, e.triple.subject)):
        by_target.setdefault(edge.triple.object, []).append(edge)
    affects_by_situation: dict[str, list[Triple]] = {}
    for side in explanation.affects:
        affects_by_situation.setdefault(side.subject, []).append(side)

    lines = [_entity_label(graph, explanation.root)]
    expanded: set[str] = set()
    stack = [(edge, 1) for edge in reversed(by_target.get(explanation.root, []))]  # no recursion limit
    while stack:
        edge, indent = stack.pop()
        pad = "  " * indent
        cause = edge.triple.subject
        lines.append(f"{pad}<- {edge.triple.predicate.value} -- {_entity_label(graph, cause)}")
        for condition, outcome in edge.evidence:
            observed = "not observed" if outcome.observed is None else f"observed {format_value(outcome.observed)}"
            label = f" [{edge.precondition_id}]" if edge.precondition_id else ""
            lines.append(f"{pad}     evidence{label}: {condition} ({observed}) => {outcome.status.name.lower()}")
        if cause in expanded:
            continue
        expanded.add(cause)
        for side in sorted(affects_by_situation.get(cause, []), key=lambda t: t.object):
            lines.append(f"{pad}     affects: {_entity_label(graph, side.object)}")
        stack.extend((e, indent + 1) for e in reversed(by_target.get(cause, [])))
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
