"""Expected inference results, computed from the generator's own model.

This restates the four rules over plain tuples (epoch-second intervals,
bounding boxes, canonical magnitudes) without importing geocausal, so the
benchmark can check the program's output for any seed. ``test_bench.py``
checks it against the brute-force closure oracle of the test suite.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter

EQ_TOLERANCE = 1e-9
DEFAULT_MAX_GAP = 24 * 3600

TRUE, UNKNOWN, FALSE = "true", "unknown", "false"


def precedes(s1: int, e1: int, s2: int, e2: int) -> bool:
    """Before or meets. Equal endpoints classify as starts/finishes/equals
    first, so a point at either end of the other interval does not meet it."""
    if e1 < s2:
        return True
    return e1 == s2 and s1 != s2 and e1 != e2


def shares_duration(s1: int, e1: int, s2: int, e2: int) -> bool:
    """Not before, after, meets or met-by."""
    if e1 < s2 or e2 < s1:
        return False
    meets = e1 == s2 and s1 != s2 and e1 != e2
    met_by = e2 == s1 and s1 != s2 and e1 != e2
    return not (meets or met_by)


def overlap(a, b) -> bool:
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def _condition(value, op: str, threshold) -> str:
    if value is None:
        return UNKNOWN
    if op in ("present", "absent"):
        return TRUE if value[0] == "c" and value[1] == op else FALSE
    if threshold[0] == "c" or value[0] == "c":
        if value[0] != "c" or threshold[0] != "c" or op not in ("=", "!="):
            return FALSE  # type mismatch is an evaluation error
        return TRUE if (value[1] == threshold[1]) == (op == "=") else FALSE
    if value[2] != threshold[2]:
        return FALSE  # dimension mismatch
    x, y = value[1], threshold[1]
    holds = {
        ">": x - y > EQ_TOLERANCE,
        ">=": y - x <= EQ_TOLERANCE,
        "<": y - x > EQ_TOLERANCE,
        "<=": x - y <= EQ_TOLERANCE,
        "=": abs(x - y) <= EQ_TOLERANCE,
        "!=": abs(x - y) > EQ_TOLERANCE,
    }[op]
    return TRUE if holds else FALSE


def satisfaction(precondition, situation) -> str:
    statuses = [_condition(situation.values.get(attr), op, thr) for attr, op, thr in precondition.conditions]
    if FALSE in statuses:
        return FALSE
    return TRUE if all(s == TRUE for s in statuses) else UNKNOWN


class Closure:
    """Derived triples (key -> rule id) and SKIP diagnostics for a set of
    facts, in the order the rules derive them."""

    def __init__(self, inputs, event_filter=None, max_gap: int = DEFAULT_MAX_GAP):
        events = [e for e in inputs.events if event_filter is None or event_filter(e)]
        self.derived: dict[tuple[str, str, str], str] = {}
        self.diagnostics: set[tuple] = set()
        self._by_kind: dict[str, list] = {}
        for e in sorted(events, key=lambda e: (e.start, e.id)):
            self._by_kind.setdefault(e.kind, []).append(e)
        self._starts = {k: [e.start for e in v] for k, v in self._by_kind.items()}
        self._sat_eff(inputs, max_gap)
        self._cau(inputs)
        self._aff(inputs, {e.id for e in events})
        self._incoming = Counter(o for (_, p, o) in self.derived if p in ("causes", "effects"))

    def _add(self, key, rule: str) -> None:
        self.derived.setdefault(key, rule)

    def _sat_eff(self, inputs, max_gap) -> None:
        setters: dict[str, list[str]] = {}
        for setter, situation in inputs.settings:
            setters.setdefault(situation, []).append(setter)
        pcs = sorted(inputs.preconditions, key=lambda p: p.id)
        for sit in sorted(inputs.situations, key=lambda s: s.id):
            for pc in pcs:
                status = satisfaction(pc, sit)
                if status == UNKNOWN:
                    self.diagnostics.add(("R-SAT", sit.id, pc.id))
                if status != TRUE:
                    continue
                self._add((sit.id, "satisfies", pc.id), f"R-SAT:{pc.id}")
                mine = setters.get(sit.id, [])
                if any(x not in inputs.object_boxes for x in mine):
                    self.diagnostics.add(("R-EFF", sit.id, pc.id, "mixed-setting"))
                    continue
                boxes = [inputs.object_boxes[x] for x in mine]
                kind = self._by_kind.get(pc.event_kind, [])
                starts = self._starts.get(pc.event_kind, [])
                lo = bisect_left(starts, sit.end)
                hi = bisect_right(starts, sit.end + max_gap)
                candidates = [e for e in kind[lo:hi] if precedes(sit.start, sit.end, e.start, e.end)]
                if not candidates:
                    self.diagnostics.add(("R-EFF", sit.id, pc.id, "no-temporal-adjacency"))
                    continue
                for e in candidates:
                    if not any(overlap(e.box, b) for b in boxes):
                        self.diagnostics.add(("R-EFF", sit.id, pc.id, e.id, "no-spatial-overlap"))
                        continue
                    self._add((sit.id, "effects", e.id), f"R-EFF:{pc.id}")

    def _cau(self, inputs) -> None:
        for rule in sorted(inputs.cause_rules, key=lambda r: r.id):
            effects = self._by_kind.get(rule.effect_kind, [])
            starts = self._starts.get(rule.effect_kind, [])
            for a in self._by_kind.get(rule.cause_kind, []):
                if rule.constraint == "co-occurs":
                    # effects starting no later than a ends; the rest cannot share time
                    pool = effects[: bisect_right(starts, a.end)]
                    hits = [b for b in pool
                            if shares_duration(a.start, a.end, b.start, b.end) and overlap(a.box, b.box)]
                else:
                    upper = len(effects) if rule.max_gap is None else bisect_right(starts, a.end + rule.max_gap)
                    pool = effects[bisect_left(starts, a.end): upper]
                    hits = [b for b in pool if precedes(a.start, a.end, b.start, b.end)]
                for b in hits:
                    self._add((a.id, "causes", b.id), f"R-CAU:{rule.id}")

    def _aff(self, inputs, event_ids) -> None:
        participants: dict[str, list[str]] = {}
        for obj, event in inputs.participants:
            participants.setdefault(event, []).append(obj)
        for setter, situation in inputs.settings:
            if setter in event_ids:
                for obj in participants.get(setter, []):
                    self._add((situation, "affects", obj), "R-AFF")

    def incoming(self, event_id: str) -> int:
        """Causal (causes/effects) edges into an event."""
        return self._incoming[event_id]

    def lines(self) -> list[str]:
        """Derived triples as ``<s> <p> <o> <rule>``, sorted."""
        return sorted(f"{s} {p} {o} {rule}" for (s, p, o), rule in self.derived.items())
