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
every event in it:

  precedes within g   starts in [a.end, a.end + g]
  precedes            starts >= a.end (this output is itself quadratic)
  co-occurs           starts in [a.start - longest, a.end], where longest
                      is the longest interval among the effect kind's events
  R-EFF               starts in [s.end, s.end + max_gap] for situation s

Each window holds every event that can pass the test, so the output is the
all-pairs output, and the work grows with the windows, not the pairs.

The rules are stratified. R-SAT reads situations and their observations.
R-EFF reads the satisfies edges, asserted or derived by R-SAT. R-CAU reads
only events and their regions, and R-AFF only the asserted setting and
participant-in edges. No rule reads causes, effects or affects. So one pass
in the order SAT, EFF, CAU, AFF reaches the least fixpoint. A new rule that
reads a derived predicate must run after the rule that derives it.

Every derived triple records its rule id and premise triples. Candidates
that were considered but rejected are reported as diagnostics with one of
the reason codes: unknown-satisfaction, mixed-setting, no-temporal-adjacency,
no-spatial-overlap.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timedelta

from .errors import ConfigError
from .graph import Derived, KnowledgeGraph, RelationKind, Role, Triple, TripleKey, triple_sort_key
from .model import GeoEvent, GeoObject, SpatioTemporalRegion, TimeInterval
from .rules import CoOccurs, Precedes, PrecedesWithin, RuleSet, Truth, evaluate
from .spatiotemporal import co_occurs, gap_between, precedes, spatial_overlap

_STP = RelationKind.SPATIO_TEMPORALLY_PRESENT


@dataclass(frozen=True)
class EngineConfig:
    """Inference knobs: temporal adjacency window and the spatial gate."""

    max_gap: timedelta = timedelta(hours=24)
    require_spatial_overlap: bool = True

    def __post_init__(self):
        if self.max_gap < timedelta(0):
            raise ConfigError(f"max_gap must be non-negative, got {self.max_gap}")


@dataclass(frozen=True, order=True)
class Diagnostic:
    rule: str
    entities: tuple[str, ...]
    reason: str

    def render(self) -> str:
        return f"SKIP {self.rule} {' '.join(self.entities)} reason={self.reason}"


@dataclass
class InferenceResult:
    derived: list[Triple] = field(default_factory=list)
    iterations: int = 0
    diagnostics: list[Diagnostic] = field(default_factory=list)


def infer(graph: KnowledgeGraph, rules: RuleSet, config: EngineConfig | None = None) -> InferenceResult:
    """Close the graph under the four rules; mutates the graph in place.

    The result is the least fixpoint, deterministic for a given graph and
    rule set. R-EFF reads the satisfies edges R-SAT derives and no rule
    reads causes, effects or affects, so one pass in the order SAT, EFF,
    CAU, AFF reaches it and ``iterations`` is always 1. A new rule that
    reads a derived predicate must run after the rule that derives it.

    R-EFF and R-CAU read one index of each event kind sorted by interval
    start, built here, and test only the events whose start falls in the
    window the constraint allows (see the module docstring); the exact
    test still runs on every one of them.
    """
    if config is None:
        config = EngineConfig()

    # No rule adds entities or spatio-temporally-present triples, so this
    # index holds for the pass.
    events_by_kind: dict[str, list[tuple[str, SpatioTemporalRegion]]] = {}
    for event in graph.entities(Role.EVENT):
        region = graph.region_of(event.id)
        if region is not None:
            events_by_kind.setdefault(event.kind, []).append((event.id, region))
    by_start = {kind: _ByStart(pairs) for kind, pairs in events_by_kind.items()}

    derived: list[Triple] = []
    diagnostics: set[Diagnostic] = set()
    _rule_sat(graph, rules, derived, diagnostics)
    _rule_eff(graph, rules, config, by_start, derived, diagnostics)
    _rule_cau(graph, rules, by_start, derived)
    _rule_aff(graph, derived)
    return InferenceResult(
        derived=sorted(derived, key=triple_sort_key),
        iterations=1,
        diagnostics=sorted(diagnostics),
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


def _shift(instant: datetime, delta: timedelta) -> datetime | None:
    """``instant + delta``, or None (an open bound) past the datetime range."""
    try:
        return instant + delta
    except OverflowError:
        return None


def _derive(
    graph: KnowledgeGraph,
    derived: list[Triple],
    subject: str,
    predicate: RelationKind,
    object: str,
    rule_id: str,
    premises: tuple[TripleKey, ...],
) -> None:
    if not graph.has_triple(subject, predicate, object):
        derived.append(graph.add_triple(subject, predicate, object, Derived(rule_id, premises)))


def _rule_sat(graph, rules, derived, diagnostics) -> None:
    for situation in graph.entities(Role.SITUATION):
        for pc in rules.preconditions:
            if graph.has_triple(situation.id, RelationKind.SATISFIES, pc.id):
                continue
            result = evaluate(pc, situation)
            if result.satisfied is Truth.TRUE:
                _derive(
                    graph,
                    derived,
                    situation.id,
                    RelationKind.SATISFIES,
                    pc.id,
                    f"R-SAT:{pc.id}",
                    (),
                )
            elif result.satisfied is Truth.UNKNOWN:
                diagnostics.add(
                    Diagnostic("R-SAT", (situation.id, pc.id), "unknown-satisfaction")
                )


def _rule_eff(graph, rules, config, by_start, derived, diagnostics) -> None:
    for satisfies in graph.match(predicate=RelationKind.SATISFIES):
        situation = graph.entity(satisfies.subject)  # a situation, by the satisfies schema
        pc = rules.precondition(satisfies.object)
        if pc is None:
            continue  # satisfies edge pointing at a set this rule file does not define
        setting_triples = graph.match(predicate=RelationKind.SETTING, object=situation.id)
        setters = [graph.entity(t.subject) for t in setting_triples]
        if any(not isinstance(x, GeoObject) for x in setters):
            diagnostics.add(Diagnostic("R-EFF", (situation.id, pc.id), "mixed-setting"))
            continue
        setter_regions = [(x.id, r) for x in setters if (r := graph.region_of(x.id)) is not None]
        events = by_start.get(pc.event_kind)
        end = situation.holds_during.end
        window = events.starting(end, _shift(end, config.max_gap)) if events else ()
        candidates = []
        for event_id, region in window:
            if not precedes(situation.holds_during, region.interval):
                continue
            if gap_between(situation.holds_during, region.interval) > config.max_gap:
                continue
            candidates.append((event_id, region))
        if not candidates:
            diagnostics.add(Diagnostic("R-EFF", (situation.id, pc.id), "no-temporal-adjacency"))
            continue
        for event_id, region in candidates:
            if config.require_spatial_overlap and not any(
                spatial_overlap(region.geometry, r.geometry) for _, r in setter_regions
            ):
                diagnostics.add(
                    Diagnostic("R-EFF", (situation.id, pc.id, event_id), "no-spatial-overlap")
                )
                continue
            premises = [satisfies.key, (event_id, _STP, region.id)]
            premises.extend(t.key for t in setting_triples)
            premises.extend((x, _STP, r.id) for x, r in setter_regions)
            _derive(
                graph,
                derived,
                situation.id,
                RelationKind.EFFECTS,
                event_id,
                f"R-EFF:{pc.id}",
                tuple(sorted(set(premises), key=lambda k: (k[0], k[1].value, k[2]))),
            )


def _constraint_holds(constraint, region_a, region_b) -> bool:
    if isinstance(constraint, CoOccurs):
        return co_occurs(region_a, region_b)
    if isinstance(constraint, Precedes):
        return precedes(region_a.interval, region_b.interval)
    if isinstance(constraint, PrecedesWithin):
        return (
            precedes(region_a.interval, region_b.interval)
            and gap_between(region_a.interval, region_b.interval) <= constraint.max_gap
        )
    raise TypeError(f"unknown constraint {constraint!r}")


def _effect_window(constraint, cause: TimeInterval, longest: timedelta):
    """The (low, high) starts an effect needs to meet the constraint against
    a cause over ``cause``; every effect that meets it starts in there."""
    if isinstance(constraint, CoOccurs):
        # Co-occurring needs effect.start <= cause.end and effect.end >= cause.start.
        return _shift(cause.start, -longest), cause.end
    if isinstance(constraint, Precedes):
        return cause.end, None
    if isinstance(constraint, PrecedesWithin):
        return cause.end, _shift(cause.end, constraint.max_gap)
    raise TypeError(f"unknown constraint {constraint!r}")


def _rule_cau(graph, rules, by_start, derived) -> None:
    for rule in rules.cause_rules:
        causes = by_start.get(rule.cause_kind)
        effects = by_start.get(rule.effect_kind)
        if causes is None or effects is None:
            continue
        for a, region_a in causes.pairs:
            window = _effect_window(rule.constraint, region_a.interval, effects.longest)
            for b, region_b in effects.starting(*window):
                if _constraint_holds(rule.constraint, region_a, region_b):
                    _derive(
                        graph,
                        derived,
                        a,
                        RelationKind.CAUSES,
                        b,
                        f"R-CAU:{rule.id}",
                        ((a, _STP, region_a.id), (b, _STP, region_b.id)),
                    )


def _rule_aff(graph, derived) -> None:
    for setting in graph.match(predicate=RelationKind.SETTING):
        event = graph.entity(setting.subject)
        if not isinstance(event, GeoEvent):
            continue
        for participant in graph.match(predicate=RelationKind.PARTICIPANT_IN, object=event.id):
            _derive(
                graph,
                derived,
                setting.object,
                RelationKind.AFFECTS,
                participant.subject,
                "R-AFF",
                tuple(sorted((setting.key, participant.key), key=lambda k: (k[0], k[1].value, k[2]))),
            )


# --------------------------------------------------------------------------
# Provenance explanation
# --------------------------------------------------------------------------


@dataclass
class ProvenanceTree:
    """Why a triple is in the graph: a rule application over premise trees.

    Asserted triples are leaves. Premise keys persist, so a tree built from
    a reloaded workspace is the tree built before the save.
    """

    triple: Triple
    rule_id: str | None = None
    premises: list[ProvenanceTree] = field(default_factory=list)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        t = self.triple
        head = f"{pad}({t.subject} {t.predicate.value} {t.object})"
        if self.rule_id is None:
            return head + " [asserted]"
        lines = [head + f" [derived by {self.rule_id}]"]
        lines.extend(premise.render(indent + 1) for premise in self.premises)
        return "\n".join(lines)


def explain(graph: KnowledgeGraph, triple: Triple | TripleKey) -> ProvenanceTree:
    """Expand a triple's provenance, each premise once (shared premises share
    their tree) and without recursion, so a chain of any depth expands. An
    unstored key raises UnknownTriple; premises are stored before their citers."""
    root = triple.key if isinstance(triple, Triple) else triple
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
