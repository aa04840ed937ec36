"""Forward-chaining materialization of causal edges.

Four monotone rules close the graph:

  R-SAT  a situation whose observations satisfy a precondition set gets a
         satisfies edge to that set's id.
  R-EFF  a satisfied situation whose setting holds only geo-objects effects
         every event of the precondition's kind that follows it within the
         configured gap and (by default) overlaps its setting objects'
         regions spatially.
  R-CAU  a declared cause pattern derives causes edges between event pairs
         whose regions meet the pattern's spatio-temporal constraint.
  R-AFF  a situation that is the setting of an event affects that event's
         participating objects.

R-EFF and R-CAU are joins over events. ``infer`` sorts each event kind's
(event, region) pairs by interval start once, and each join bisects the
window of starts that a partner can have, then runs the exact test on
every event in it. A cause rule's constraint gives both (``starts`` and
``holds`` in ``geocausal.rules``); R-EFF's gate is ``precedes within
max_gap`` between the situation's interval and the event's. Each window
holds every event that can pass the test, so the output is the all-pairs
output, and the work grows with the windows, not the pairs.

The rules are stratified. R-SAT reads situations and their observations.
R-EFF reads the satisfies edges, asserted or derived by R-SAT. R-CAU reads
only events and their regions, and R-AFF only the asserted setting and
participant-in edges. No rule reads causes, effects or affects. So one pass
in the order SAT, EFF, CAU, AFF reaches the least fixpoint. A new rule that
reads a derived predicate must run after the rule that derives it.

Each rule is a generator that only reads the graph: per candidate it yields
a derivation (subject, predicate, object, rule id, premise keys) or a
Diagnostic with a reason code (unknown-satisfaction, mixed-setting,
no-temporal-adjacency, no-spatial-overlap). ``infer`` alone writes: it runs
each rule to exhaustion before the next, and stores each derivation whose
triple is not stored yet, so the first derivation of a triple owns it.
Rules walk their sets in id order, so that is the rule id that sorts first.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from datetime import datetime, timedelta

from .errors import ConfigError
from .graph import Derived, KnowledgeGraph, RelationKind, Role, Triple, TripleKey, triple_sort_key
from .model import GeoEvent, GeoObject, SpatioTemporalRegion
from .rules import PrecedesWithin, RuleSet, Truth, evaluate
from .slotted import Frozen, Ordered, Slotted, store
from .spatiotemporal import spatial_overlap

_STP = RelationKind.SPATIO_TEMPORALLY_PRESENT


class EngineConfig(Frozen):
    """Inference knobs: temporal adjacency window and the spatial gate."""

    __slots__ = ("max_gap", "require_spatial_overlap")

    def __init__(
        self, max_gap: timedelta = timedelta(hours=24), require_spatial_overlap: bool = True
    ):
        if not isinstance(max_gap, timedelta):
            raise ConfigError(f"max_gap must be a timedelta, got {max_gap!r}")
        if max_gap < timedelta(0):
            raise ConfigError(f"max_gap must be non-negative, got {max_gap}")
        if not isinstance(require_spatial_overlap, bool):
            raise ConfigError(f"require_spatial_overlap must be a bool, got {require_spatial_overlap!r}")
        store(self, "max_gap", max_gap)
        store(self, "require_spatial_overlap", require_spatial_overlap)


class Diagnostic(Ordered):
    __slots__ = ("rule", "entities", "reason")

    def __init__(self, rule: str, entities: tuple[str, ...], reason: str):
        store(self, "rule", rule)
        store(self, "entities", entities)
        store(self, "reason", reason)

    def render(self) -> str:
        return f"SKIP {self.rule} {' '.join(self.entities)} reason={self.reason}"


class InferenceResult(Slotted):
    __slots__ = ("derived", "iterations", "diagnostics")

    def __init__(
        self,
        derived: list[Triple] | None = None,
        iterations: int = 0,
        diagnostics: list[Diagnostic] | None = None,
    ):
        self.derived = [] if derived is None else derived
        self.iterations = iterations
        self.diagnostics = [] if diagnostics is None else diagnostics


def infer(graph: KnowledgeGraph, rules: RuleSet, config: EngineConfig | None = None) -> InferenceResult:
    """Close the graph under the four rules; mutates the graph in place.

    The result is the least fixpoint, deterministic for a given graph and
    rule set. This is the one writer: each rule runs to exhaustion before
    the next, in the order SAT, EFF, CAU, AFF, and each derivation whose
    triple is not stored yet is added. R-EFF reads the satisfies edges R-SAT
    derives and no rule reads causes, effects or affects, so that one pass
    reaches the fixpoint and ``iterations`` is always 1. A new rule that
    reads a derived predicate must run after the rule that derives it.

    R-EFF and R-CAU read one index of each event kind sorted by interval
    start, built here, and test only the events whose start falls in the
    window the constraint allows; the exact test still runs on every one
    of them.
    """
    if config is None:
        config = EngineConfig()

    # No derivation adds an entity or a spatio-temporally-present triple, so
    # this index holds for the pass.
    events_by_kind: dict[str, list[tuple[str, SpatioTemporalRegion]]] = {}
    for event in graph.entities(Role.EVENT):
        region = graph.region_of(event.id)
        if region is not None:
            events_by_kind.setdefault(event.kind, []).append((event.id, region))
    by_start = {kind: _ByStart(pairs) for kind, pairs in events_by_kind.items()}

    derived: list[Triple] = []
    diagnostics: list[Diagnostic] = []  # each rule yields each diagnostic once
    for rule in (_rule_sat(graph, rules), _rule_eff(graph, rules, config, by_start),
                 _rule_cau(rules, by_start), _rule_aff(graph)):
        for outcome in rule:
            if isinstance(outcome, Diagnostic):
                diagnostics.append(outcome)
            elif not graph.has_triple(*outcome[:3]):
                subject, predicate, object, rule_id, premises = outcome
                derived.append(graph.add_triple(subject, predicate, object, Derived(rule_id, premises)))
    return InferenceResult(
        derived=sorted(derived, key=triple_sort_key),
        iterations=1,
        diagnostics=sorted(diagnostics, key=Diagnostic._key),  # the tuple Ordered compares, got in C
    )


class _ByStart:
    """One event kind's (event id, region) pairs sorted by (start, id), with
    their starts beside them for bisection."""

    def __init__(self, pairs: list[tuple[str, SpatioTemporalRegion]]) -> None:
        self.pairs = sorted(pairs, key=lambda p: (p[1].interval.start, p[0]))
        self.starts = [region.interval.start for _, region in self.pairs]
        self.longest = max(region.interval.end - region.interval.start for _, region in self.pairs)

    def starting(self, low: datetime | None, high: datetime | None):
        """The pairs whose start lies in [low, high]; None leaves that side open."""
        lo = 0 if low is None else bisect_left(self.starts, low)
        hi = len(self.starts) if high is None else bisect_right(self.starts, high)
        return self.pairs[lo:hi]


# What a rule yields: a derivation (subject, predicate, object, rule id, premises) or a rejection.
_Outcome = tuple[str, RelationKind, str, str, tuple[TripleKey, ...]] | Diagnostic


def _premises(keys) -> tuple[TripleKey, ...]:
    """Premise keys in (subject, predicate, object) order."""
    return tuple(sorted(keys, key=lambda k: (k[0], k[1].value, k[2])))


def _rule_sat(graph, rules) -> Iterator[_Outcome]:
    for situation in graph.entities(Role.SITUATION):
        for pc in rules.preconditions:
            if graph.has_triple(situation.id, RelationKind.SATISFIES, pc.id):
                continue
            result = evaluate(pc, situation)
            if result.satisfied is Truth.TRUE:
                yield situation.id, RelationKind.SATISFIES, pc.id, f"R-SAT:{pc.id}", ()
            elif result.satisfied is Truth.UNKNOWN:
                yield Diagnostic("R-SAT", (situation.id, pc.id), "unknown-satisfaction")


def _rule_eff(graph, rules, config, by_start) -> Iterator[_Outcome]:
    gate = PrecedesWithin(config.max_gap)
    for satisfies in graph.match(predicate=RelationKind.SATISFIES):
        situation = graph.entity(satisfies.subject)  # a situation, by the satisfies schema
        pc = rules.precondition(satisfies.object)
        if pc is None:
            continue  # satisfies edge pointing at a set this rule file does not define
        setting_triples = graph.match(predicate=RelationKind.SETTING, object=situation.id)
        setters = [graph.entity(t.subject) for t in setting_triples]
        if any(not isinstance(x, GeoObject) for x in setters):
            yield Diagnostic("R-EFF", (situation.id, pc.id), "mixed-setting")
            continue
        setter_regions = [(x.id, r) for x in setters if (r := graph.region_of(x.id)) is not None]
        during = situation.holds_during
        events = by_start.get(pc.event_kind)
        window = events.starting(*gate.starts(during, events.longest)) if events else ()
        candidates = [(e, region) for e, region in window if gate.holds_between(during, region.interval)]
        if not candidates:
            yield Diagnostic("R-EFF", (situation.id, pc.id), "no-temporal-adjacency")
            continue
        for event_id, region in candidates:
            if config.require_spatial_overlap and not any(
                spatial_overlap(region.geometry, r.geometry) for _, r in setter_regions
            ):
                yield Diagnostic("R-EFF", (situation.id, pc.id, event_id), "no-spatial-overlap")
                continue
            premises = [satisfies.key, (event_id, _STP, region.id)]
            premises.extend(t.key for t in setting_triples)
            premises.extend((x, _STP, r.id) for x, r in setter_regions)
            yield situation.id, RelationKind.EFFECTS, event_id, f"R-EFF:{pc.id}", _premises(premises)


def _rule_cau(rules, by_start) -> Iterator[_Outcome]:
    for rule in rules.cause_rules:
        causes = by_start.get(rule.cause_kind)
        effects = by_start.get(rule.effect_kind)
        if causes is None or effects is None:
            continue
        for a, region_a in causes.pairs:
            for b, region_b in effects.starting(*rule.constraint.starts(region_a.interval, effects.longest)):
                if rule.constraint.holds(region_a, region_b):
                    premises = ((a, _STP, region_a.id), (b, _STP, region_b.id))
                    yield a, RelationKind.CAUSES, b, f"R-CAU:{rule.id}", premises


def _rule_aff(graph) -> Iterator[_Outcome]:
    for setting in graph.match(predicate=RelationKind.SETTING):
        event = graph.entity(setting.subject)
        if not isinstance(event, GeoEvent):
            continue
        for participant in graph.match(predicate=RelationKind.PARTICIPANT_IN, object=event.id):
            premises = _premises((setting.key, participant.key))
            yield setting.object, RelationKind.AFFECTS, participant.subject, "R-AFF", premises


# --------------------------------------------------------------------------
# Provenance explanation
# --------------------------------------------------------------------------


class ProvenanceTree(Slotted):
    """Why a triple is in the graph: a rule application over premise trees.

    Asserted triples are leaves. Premise keys persist, so a tree built from
    a reloaded workspace is the tree built before the save.
    """

    __slots__ = ("triple", "rule_id", "premises")

    def __init__(
        self,
        triple: Triple,
        rule_id: str | None = None,
        premises: list[ProvenanceTree] | None = None,
    ):
        self.triple = triple
        self.rule_id = rule_id
        self.premises = [] if premises is None else premises

    def render(self) -> str:
        """One line per premise, indented under the triple that cites it. A
        triple's premises are listed where it is first printed, not again;
        a premise cited twice by one triple gets one line. No recursion."""
        lines, expanded, stack = [], set(), [(self, 0)]
        while stack:
            tree, indent = stack.pop()
            t = tree.triple
            rule = " [asserted]" if tree.rule_id is None else f" [derived by {tree.rule_id}]"
            lines.append(f"{'  ' * indent}({t.subject} {t.predicate.value} {t.object}){rule}")
            if tree.rule_id is not None and t.key not in expanded:
                expanded.add(t.key)
                premises = {p.triple.key: p for p in tree.premises}
                stack.extend((p, indent + 1) for p in reversed(premises.values()))
        return "\n".join(lines)


def explain(graph: KnowledgeGraph, triple: Triple | TripleKey) -> ProvenanceTree:
    """Expand a triple's provenance, each premise once (shared premises share
    their tree) and without recursion, so a chain of any depth expands. An
    unstored key raises UnknownTriple; premises are stored before their citers."""
    root = (triple if isinstance(triple, Triple) else graph.triple(triple)).key
    trees: dict[TripleKey, ProvenanceTree] = {}
    stack = [root]
    while stack:
        key = stack[-1]
        if key in trees:
            stack.pop()
            continue
        stored = graph.triple(key)  # raises UnknownTriple
        premises = stored.provenance.premises if stored.is_derived else ()
        pending = [premise for premise in premises if premise not in trees]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        rule_id = stored.provenance.rule_id if stored.is_derived else None
        trees[key] = ProvenanceTree(stored, rule_id, [trees[k] for k in premises])
    return trees[root]
