"""The rule language: observation preconditions and cause patterns.

A rule file (``.gcr``) holds two statement forms. A precondition set
names the event kind it effects and a conjunction of threshold or
categorical conditions over observation attributes:

    precondition PC_TC effects TropicalCyclone {
        SeaSurfaceTemp > 82 degF;
        AtmosphericPressure > 1000 hPa;
        WindShear > 10 m/s;
        CoriolisForce present
    }

A cause rule declares an event-kind-to-event-kind pattern plus the
spatio-temporal constraint under which it fires:

    rule R1: HeavyRain causes FlashFlood when co-occurs
    rule R2: TropicalStorm causes HeavyRain when precedes within 12h

``#`` starts a comment. The full grammar is given in docs/rules-grammar.md.

Evaluation against a situation is three-valued: a condition whose
attribute is not observed is Unknown, and a set with no False (or
erroneous) condition and at least one Unknown is Unknown overall —
missing data never silently counts as failure.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta
from enum import IntEnum

from .errors import (
    DimensionMismatch,
    DuplicateRuleId,
    InvariantViolation,
    ParseError,
    TypeMismatch,
    UnknownUnit,
)
from .model import GeoSituation, SpatioTemporalRegion, TimeInterval, is_attribute_name
from .slotted import Frozen, store
from .spatiotemporal import co_occurs, gap_between, precedes
from .units import _NUMERIC_ONLY, _UNARY, Categorical, Comparator, Quantity, Value, compare, format_value, get_unit

_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")
_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_/-]*\Z")  # the grammar's token: the lexer's word

_DURATION_UNITS = {"s": 1, "min": 60, "h": 3600, "d": 86400}


class Truth(IntEnum):
    """Three-valued satisfaction status, ordered FALSE < UNKNOWN < TRUE."""

    FALSE = 0
    UNKNOWN = 1
    TRUE = 2


class Condition(Frozen):
    __slots__ = ("attribute", "comparator", "threshold")

    def __init__(self, attribute: str, comparator: Comparator, threshold: Value | None = None):
        if not isinstance(attribute, str) or not is_attribute_name(attribute):
            raise InvariantViolation(f"invalid attribute name {attribute!r}")
        if not isinstance(comparator, Comparator):
            raise InvariantViolation(f"invalid comparator {comparator!r}")
        unary = comparator in _UNARY
        if unary and threshold is not None:
            raise InvariantViolation(f"{comparator.value} conditions carry no threshold")
        if not unary and threshold is None:
            raise InvariantViolation(f"{comparator.value} conditions need a threshold")
        if comparator in _NUMERIC_ONLY:
            if not isinstance(threshold, Quantity):
                raise InvariantViolation(f"{comparator.value} conditions need a quantity threshold")
        if not unary and not isinstance(threshold, (Quantity, Categorical)):
            raise InvariantViolation(f"a threshold is a Quantity or Categorical, got {threshold!r}")
        if isinstance(threshold, Categorical) and not _WORD_RE.fullmatch(threshold.token):
            raise InvariantViolation(f"categorical threshold {threshold.token!r} is not a token")
        store(self, "attribute", attribute)
        store(self, "comparator", comparator)
        store(self, "threshold", threshold)

    def __str__(self) -> str:
        if self.threshold is None:
            return f"{self.attribute} {self.comparator.value}"
        return f"{self.attribute} {self.comparator.value} {format_value(self.threshold)}"


class PreconditionSet(Frozen):
    """A conjunction of conditions that, when satisfied, effects an event kind."""

    __slots__ = ("id", "event_kind", "conditions")

    def __init__(self, id: str, event_kind: str, conditions: tuple[Condition, ...]):
        _check_id(id, "rule id")
        _check_id(event_kind, "event kind")
        conditions = _members(conditions, Condition, f"precondition {id}: conditions")
        if not conditions:
            raise InvariantViolation(f"precondition {id}: needs at least one condition")
        names = [c.attribute for c in conditions]
        if len(set(names)) != len(names):
            raise InvariantViolation(f"precondition {id}: duplicate condition attributes")
        store(self, "id", id)
        store(self, "event_kind", event_kind)
        store(self, "conditions", conditions)


def _shift(instant: datetime, delta: timedelta) -> datetime | None:
    """``instant + delta``, or None (an open bound) past the datetime range."""
    try:
        return instant + delta
    except OverflowError:
        return None


# A cause constraint's ``holds(a, b)`` tests a cause region against an effect
# region. ``starts(cause, longest)`` is the (low, high) window, None for an
# open side, where every passing effect lasting at most ``longest`` starts.


class CoOccurs(Frozen):
    __slots__ = ()

    def holds(self, a: SpatioTemporalRegion, b: SpatioTemporalRegion) -> bool:
        return co_occurs(a, b)

    def starts(self, cause: TimeInterval, longest: timedelta):
        """[cause.start - longest, cause.end]: an effect that shares duration
        starts by the cause's end and ends at or after its start."""
        return _shift(cause.start, -longest), cause.end

    def __str__(self) -> str:
        return "co-occurs"


class Precedes(Frozen):
    __slots__ = ()

    def holds(self, a: SpatioTemporalRegion, b: SpatioTemporalRegion) -> bool:
        return precedes(a.interval, b.interval)

    def starts(self, cause: TimeInterval, longest: timedelta):
        """[cause.end, open): a join over this window is itself quadratic."""
        return cause.end, None

    def __str__(self) -> str:
        return "precedes"


class PrecedesWithin(Frozen):
    __slots__ = ("max_gap",)

    def __init__(self, max_gap: timedelta):
        if not isinstance(max_gap, timedelta):
            raise InvariantViolation(f"precedes-within gap must be a timedelta, got {max_gap!r}")
        if max_gap < timedelta(0):
            raise InvariantViolation("precedes-within gap must be non-negative")
        store(self, "max_gap", max_gap)

    def holds(self, a: SpatioTemporalRegion, b: SpatioTemporalRegion) -> bool:
        return self.holds_between(a.interval, b.interval)

    def holds_between(self, a: TimeInterval, b: TimeInterval) -> bool:
        """The test on bare intervals, as R-EFF applies it to a situation."""
        return precedes(a, b) and gap_between(a, b) <= self.max_gap

    def starts(self, cause: TimeInterval, longest: timedelta):
        """[cause.end, cause.end + max_gap]."""
        return cause.end, _shift(cause.end, self.max_gap)

    def __str__(self) -> str:
        return f"precedes within {format_duration(self.max_gap)}"


CauseConstraint = CoOccurs | Precedes | PrecedesWithin


class CauseRule(Frozen):
    __slots__ = ("id", "cause_kind", "effect_kind", "constraint")

    def __init__(self, id: str, cause_kind: str, effect_kind: str, constraint: CauseConstraint):
        _check_id(id, "rule id")
        _check_id(cause_kind, "cause event kind")
        _check_id(effect_kind, "effect event kind")
        if not isinstance(constraint, (CoOccurs, Precedes, PrecedesWithin)):
            raise InvariantViolation(f"rule {id}: not a cause constraint: {constraint!r}")
        # A kind co-occurs with itself; only distinct kinds may use co-occurs.
        if cause_kind == effect_kind and isinstance(constraint, CoOccurs):
            raise InvariantViolation(
                f"rule {id}: co-occurs between a kind and itself would be a self-cause"
            )
        store(self, "id", id)
        store(self, "cause_kind", cause_kind)
        store(self, "effect_kind", effect_kind)
        store(self, "constraint", constraint)


def _check_id(value: str, what: str) -> None:
    if not isinstance(value, str) or not _ID_RE.fullmatch(value):
        raise InvariantViolation(f"invalid {what} {value!r}")


def _members(values, cls: type, what: str) -> tuple:
    """``values`` as a tuple of ``cls`` instances; else InvariantViolation."""
    try:
        members = tuple(values)
    except TypeError:
        members = None
    if members is None or not all(isinstance(m, cls) for m in members):
        raise InvariantViolation(f"{what} must be {cls.__name__} values, got {values!r}")
    return members


class RuleSet(Frozen):
    __slots__ = ("preconditions", "cause_rules")

    def __init__(
        self,
        preconditions: tuple[PreconditionSet, ...] = (),
        cause_rules: tuple[CauseRule, ...] = (),
    ):
        preconditions = tuple(sorted(_members(preconditions, PreconditionSet, "preconditions"),
                                     key=lambda p: p.id))
        cause_rules = tuple(sorted(_members(cause_rules, CauseRule, "cause rules"), key=lambda r: r.id))
        seen: set[str] = set()
        for rule_id in [p.id for p in preconditions] + [r.id for r in cause_rules]:
            if rule_id in seen:
                raise DuplicateRuleId(f"rule id {rule_id!r} defined twice")
            seen.add(rule_id)
        store(self, "preconditions", preconditions)
        store(self, "cause_rules", cause_rules)

    def precondition(self, rule_id: str) -> PreconditionSet | None:
        for p in self.preconditions:
            if p.id == rule_id:
                return p
        return None


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


class ConditionOutcome(Frozen):
    __slots__ = ("status", "observed")

    def __init__(self, status: Truth, observed: Value | None = None):
        store(self, "status", status)
        store(self, "observed", observed)


class SatisfactionResult(Frozen):
    __slots__ = ("satisfied", "per_condition", "diagnostics")

    def __init__(
        self,
        satisfied: Truth,
        per_condition: tuple[tuple[Condition, ConditionOutcome], ...],
        diagnostics: tuple[str, ...] = (),
    ):
        store(self, "satisfied", satisfied)
        store(self, "per_condition", per_condition)
        store(self, "diagnostics", diagnostics)


def evaluate(pc: PreconditionSet, situation: GeoSituation) -> SatisfactionResult:
    """Check a precondition set against a situation's observations.

    Unit conversion is implicit (comparisons run in canonical units). A
    condition over an unobserved attribute is Unknown; an observation of
    an incomparable dimension or type is an evaluation error that forces
    the aggregate to False and is reported in the diagnostics.
    """
    outcomes: list[tuple[Condition, ConditionOutcome]] = []
    diagnostics: list[str] = []
    for cond in pc.conditions:
        observed = situation.observation(cond.attribute)
        if observed is None:
            outcomes.append((cond, ConditionOutcome(Truth.UNKNOWN)))
            continue
        try:
            holds = compare(observed, cond.comparator, cond.threshold)
        except (DimensionMismatch, TypeMismatch) as exc:
            outcomes.append((cond, ConditionOutcome(Truth.FALSE, observed)))
            diagnostics.append(f"{cond.attribute}: {exc}")
            continue
        outcomes.append(
            (cond, ConditionOutcome(Truth.TRUE if holds else Truth.FALSE, observed))
        )
    satisfied = min(o.status for _, o in outcomes)  # FALSE < UNKNOWN < TRUE; never empty
    return SatisfactionResult(satisfied, tuple(outcomes), tuple(diagnostics))


# --------------------------------------------------------------------------
# Durations
# --------------------------------------------------------------------------

_DURATION_RE = re.compile(r"(?P<number>[+-]?\d+(?:\.\d+)?)(?P<unit>s|min|h|d)\Z")
_DECIMAL_RE = re.compile(r"([+-]?)(\d+)(?:\.(\d+))?(?:[eE]([+-]?)(\d+))?\Z")


def _duration(number: str, unit: str, literal: str, line: int | None = None,
              column: int | None = None) -> timedelta:
    """The one duration constructor: ``number`` (a decimal, maybe signed or
    with an exponent) of ``unit``, exact to the microsecond, ties to even. A
    literal past timedelta's range is a ParseError, not an OverflowError."""
    sign, whole, fraction, exponent_sign, exponent = _DECIMAL_RE.match(number).groups()
    fraction = fraction or ""
    digits = (whole + fraction).lstrip("0")
    significant = digits.rstrip("0")
    if not significant:
        return timedelta(0)
    exponent = (exponent or "").lstrip("0") or "0"
    power = int(exponent) if len(exponent) <= 30 else 10**30  # either way past any bound
    # The value is int(significant) * 10**shift, below 10**top and not below 10**(top - 1).
    shift = (-power if exponent_sign == "-" else power) - len(fraction)
    shift += len(digits) - len(significant)
    top = shift + len(significant)
    if top > 21:  # at least 10**21 of any unit
        raise ParseError(f"duration {literal!r} is out of range", line, column)
    if top < -15:  # under 10**-4 microseconds even in days
        return timedelta(0)
    mantissa = 0
    for start in range(0, len(significant), 4000):  # int() refuses longer digit strings
        chunk = significant[start:start + 4000]
        mantissa = mantissa * 10 ** len(chunk) + int(chunk)
    exact = mantissa * _DURATION_UNITS[unit] * 1_000_000 * 10 ** max(shift, 0)
    scale = 10 ** max(-shift, 0)
    microseconds, rest = divmod(exact, scale)
    if 2 * rest > scale or (2 * rest == scale and microseconds % 2):
        microseconds += 1
    try:
        return timedelta(microseconds=-microseconds if sign == "-" else microseconds)
    except OverflowError:
        raise ParseError(f"duration {literal!r} is out of range", line, column) from None


def parse_duration(text: str) -> timedelta:
    """Parse a compact duration literal: <n><s|min|h|d>, e.g. 30min or 2h."""
    m = _DURATION_RE.fullmatch(text.strip())
    if not m:
        raise ParseError(f"invalid duration {text!r} (expected <n><s|min|h|d>)")
    return _duration(m.group("number"), m.group("unit"), text)


def format_duration(value: timedelta) -> str:
    """The literal in the largest unit that holds ``value`` whole, else in
    seconds with up to six decimals. It is built from the integer days,
    seconds and microseconds, so ``parse_duration`` gives ``value`` back."""
    sign = "-" if value < timedelta(0) else ""
    value = abs(value)
    total = value.days * 86400 + value.seconds
    if value.microseconds:
        return f"{sign}{total}.{value.microseconds:06d}".rstrip("0") + "s"
    for symbol, factor in (("d", 86400), ("h", 3600), ("min", 60)):
        if total and total % factor == 0:
            return f"{sign}{total // factor}{symbol}"
    return f"{sign}{total}s"


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t]+)
      | (?P<comment>\#[^\r\n]*)
      | (?P<newline>\r\n?|\n)
      | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<word>[A-Za-z][A-Za-z0-9_/-]*)
      | (?P<op><=|>=|!=|≤|≥|≠|[<>={};:])
    """,
    re.VERBOSE,
)

_OP_COMPARATORS = {
    "<": Comparator.LT,
    "<=": Comparator.LE,
    "≤": Comparator.LE,
    ">": Comparator.GT,
    ">=": Comparator.GE,
    "≥": Comparator.GE,
    "=": Comparator.EQ,
    "!=": Comparator.NE,
    "≠": Comparator.NE,
}


class _Token(Frozen):
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        store(self, "kind", kind)  # "number" | "word" | "op" | "eof"
        store(self, "text", text)
        store(self, "line", line)
        store(self, "column", column)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind not in ("ws", "comment"):
            tokens.append(_Token(kind, m.group(), line, m.start() - line_start + 1))
        pos = m.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def fail(self, token: _Token, expected: str):
        found = f"{token.text!r}" if token.kind != "eof" else "end of input"
        raise ParseError(f"expected {expected}, found {found}", token.line, token.column)

    def at(self, kind: str, text: str) -> bool:
        token = self.peek()
        return token.kind == kind and token.text == text

    def expect(self, kind: str, text: str | None = None, expected: str | None = None) -> _Token:
        """The next token, which must be of ``kind`` (and be ``text``, if given)."""
        token = self.next()
        if token.kind != kind or (text is not None and token.text != text):
            self.fail(token, expected or f"{text!r}")
        return token

    # -- grammar -----------------------------------------------------------

    def document(self) -> RuleSet:
        statements: list[PreconditionSet | CauseRule] = []
        seen: set[str] = set()
        while (token := self.peek()).kind != "eof":
            if token.kind != "word" or token.text not in ("precondition", "rule"):
                self.fail(token, "'precondition' or 'rule'")
            statement = self.precondition() if token.text == "precondition" else self.cause_rule()
            if statement.id in seen:
                raise ParseError(f"rule id {statement.id!r} defined twice", token.line, token.column)
            seen.add(statement.id)
            statements.append(statement)
        return RuleSet(
            tuple(s for s in statements if isinstance(s, PreconditionSet)),
            tuple(s for s in statements if isinstance(s, CauseRule)),
        )

    def identifier(self, what: str) -> str:
        token = self.expect("word", expected=what)
        if not _ID_RE.fullmatch(token.text):
            raise ParseError(f"invalid {what} {token.text!r}", token.line, token.column)
        return token.text

    def precondition(self) -> PreconditionSet:
        start = self.expect("word", "precondition")
        pc_id = self.identifier("precondition id")
        self.expect("word", "effects")
        event_kind = self.identifier("event kind")
        self.expect("op", "{")
        conditions = [self.condition()]
        while not self.at("op", "}"):
            self.expect("op", ";", "';' or '}'")
            if not self.at("op", "}"):  # a trailing separator is allowed
                conditions.append(self.condition())
        self.expect("op", "}")
        try:
            return PreconditionSet(pc_id, event_kind, tuple(conditions))
        except InvariantViolation as exc:
            raise ParseError(str(exc), start.line, start.column) from None

    def condition(self) -> Condition:
        attr_token = self.expect("word", expected="attribute name")
        if not is_attribute_name(attr_token.text):
            raise ParseError(
                f"invalid attribute name {attr_token.text!r}", attr_token.line, attr_token.column
            )
        token = self.next()
        if token.kind == "word" and token.text in ("present", "absent"):
            return Condition(attr_token.text, Comparator(token.text))
        if token.kind == "op" and token.text in _OP_COMPARATORS:
            comparator = _OP_COMPARATORS[token.text]
            threshold = self.threshold(comparator)
            return Condition(attr_token.text, comparator, threshold)
        self.fail(token, "a comparator (<, <=, >, >=, =, !=, present, absent)")

    def threshold(self, comparator: Comparator) -> Value:
        token = self.peek()
        if token.kind == "number":
            self.next()
            unit_token = self.next()
            if unit_token.kind not in ("word", "number") or (
                unit_token.kind == "number" and unit_token.text != "1"
            ):
                self.fail(unit_token, "a unit symbol")
            try:
                unit = get_unit(unit_token.text)
            except UnknownUnit as exc:
                raise ParseError(str(exc), unit_token.line, unit_token.column) from None
            try:
                return Quantity(float(token.text), unit)
            except InvariantViolation as exc:  # a magnitude that overflows to infinity
                raise ParseError(str(exc), token.line, token.column) from None
        if token.kind == "word":
            if comparator not in _NUMERIC_ONLY:
                self.next()
                return Categorical(token.text)
            self.fail(token, "a number followed by a unit")
        self.fail(token, "a number or categorical token")

    def cause_rule(self) -> CauseRule:
        start = self.expect("word", "rule")
        rule_id = self.identifier("rule id")
        self.expect("op", ":")
        cause_kind = self.identifier("cause event kind")
        self.expect("word", "causes")
        effect_kind = self.identifier("effect event kind")
        self.expect("word", "when")
        constraint = self.constraint()
        try:
            return CauseRule(rule_id, cause_kind, effect_kind, constraint)
        except InvariantViolation as exc:
            raise ParseError(str(exc), start.line, start.column) from None

    def constraint(self) -> CauseConstraint:
        if self.at("word", "co-occurs"):
            self.next()
            return CoOccurs()
        self.expect("word", "precedes", "'co-occurs' or 'precedes'")
        if not self.at("word", "within"):
            return Precedes()
        self.next()
        return PrecedesWithin(self.duration())

    def duration(self) -> timedelta:
        number = self.expect("number", expected="a duration like 2h or 30min")
        unit_token = self.next()
        if unit_token.kind != "word" or unit_token.text not in _DURATION_UNITS:
            self.fail(unit_token, "a duration unit (s, min, h, d)")
        if float(number.text) < 0:
            raise ParseError("duration must be non-negative", number.line, number.column)
        literal = number.text + unit_token.text
        return _duration(number.text, unit_token.text, literal, number.line, number.column)


def parse_rules(text: str) -> RuleSet:
    """Parse a rule document; any fault, a repeated id included, raises
    ParseError with line/column."""
    return _Parser(text).document()


# --------------------------------------------------------------------------
# Pretty printer
# --------------------------------------------------------------------------


def print_rules(ruleset: RuleSet) -> str:
    """Render a rule set with bit-exact ordering; re-parsing yields an equal set."""
    blocks: list[str] = []
    for pc in ruleset.preconditions:
        body = ";\n".join(f"    {c}" for c in pc.conditions)
        blocks.append(f"precondition {pc.id} effects {pc.event_kind} {{\n{body}\n}}")
    for rule in ruleset.cause_rules:
        blocks.append(
            f"rule {rule.id}: {rule.cause_kind} causes {rule.effect_kind} "
            f"when {rule.constraint}"
        )
    return "\n\n".join(blocks) + ("\n" if blocks else "")
