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
from dataclasses import dataclass
from datetime import timedelta
from enum import IntEnum

from .errors import (
    DimensionMismatch,
    DuplicateRuleId,
    InvariantViolation,
    ParseError,
    TypeMismatch,
    UnknownUnit,
)
from .model import ATTR_NAME, GeoSituation
from .units import Categorical, Comparator, Quantity, Value, compare, format_magnitude, format_value, get_unit

_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")

_DURATION_UNITS = {"s": 1, "min": 60, "h": 3600, "d": 86400}


class Truth(IntEnum):
    """Three-valued satisfaction status, ordered FALSE < UNKNOWN < TRUE."""

    FALSE = 0
    UNKNOWN = 1
    TRUE = 2


@dataclass(frozen=True)
class Condition:
    attribute: str
    comparator: Comparator
    threshold: Value | None = None

    def __post_init__(self):
        if not ATTR_NAME.fullmatch(self.attribute or ""):
            raise InvariantViolation(f"invalid attribute name {self.attribute!r}")
        unary = self.comparator in (Comparator.PRESENT, Comparator.ABSENT)
        if unary and self.threshold is not None:
            raise InvariantViolation(f"{self.comparator.value} conditions carry no threshold")
        if not unary and self.threshold is None:
            raise InvariantViolation(f"{self.comparator.value} conditions need a threshold")
        if self.comparator in (Comparator.LT, Comparator.LE, Comparator.GT, Comparator.GE):
            if not isinstance(self.threshold, Quantity):
                raise InvariantViolation(
                    f"{self.comparator.value} conditions need a quantity threshold"
                )


@dataclass(frozen=True)
class PreconditionSet:
    """A conjunction of conditions that, when satisfied, effects an event kind."""

    id: str
    event_kind: str
    conditions: tuple[Condition, ...]

    def __post_init__(self):
        _check_rule_id(self.id)
        if not self.conditions:
            raise InvariantViolation(f"precondition {self.id}: needs at least one condition")
        object.__setattr__(self, "conditions", tuple(self.conditions))
        names = [c.attribute for c in self.conditions]
        if len(set(names)) != len(names):
            raise InvariantViolation(f"precondition {self.id}: duplicate condition attributes")


@dataclass(frozen=True)
class CoOccurs:
    pass


@dataclass(frozen=True)
class Precedes:
    pass


@dataclass(frozen=True)
class PrecedesWithin:
    max_gap: timedelta

    def __post_init__(self):
        if self.max_gap < timedelta(0):
            raise InvariantViolation("precedes-within gap must be non-negative")


CauseConstraint = CoOccurs | Precedes | PrecedesWithin


@dataclass(frozen=True)
class CauseRule:
    id: str
    cause_kind: str
    effect_kind: str
    constraint: CauseConstraint

    def __post_init__(self):
        _check_rule_id(self.id)
        # A kind co-occurs with itself; only distinct kinds may use co-occurs.
        if self.cause_kind == self.effect_kind and isinstance(self.constraint, CoOccurs):
            raise InvariantViolation(
                f"rule {self.id}: co-occurs between a kind and itself would be a self-cause"
            )


def _check_rule_id(rule_id: str) -> None:
    if not _ID_RE.fullmatch(rule_id or ""):
        raise InvariantViolation(f"invalid rule id {rule_id!r}")


@dataclass(frozen=True)
class RuleSet:
    preconditions: tuple[PreconditionSet, ...] = ()
    cause_rules: tuple[CauseRule, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "preconditions", tuple(sorted(self.preconditions, key=lambda p: p.id))
        )
        object.__setattr__(
            self, "cause_rules", tuple(sorted(self.cause_rules, key=lambda r: r.id))
        )
        seen: set[str] = set()
        for rule_id in [p.id for p in self.preconditions] + [r.id for r in self.cause_rules]:
            if rule_id in seen:
                raise DuplicateRuleId(f"rule id {rule_id!r} defined twice")
            seen.add(rule_id)

    def precondition(self, rule_id: str) -> PreconditionSet | None:
        for p in self.preconditions:
            if p.id == rule_id:
                return p
        return None


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionOutcome:
    status: Truth
    observed: Value | None = None
    error: str | None = None


@dataclass(frozen=True)
class SatisfactionResult:
    satisfied: Truth
    per_condition: tuple[tuple[Condition, ConditionOutcome], ...]
    diagnostics: tuple[str, ...] = ()


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
            outcomes.append((cond, ConditionOutcome(Truth.FALSE, observed, str(exc))))
            diagnostics.append(f"{cond.attribute}: {exc}")
            continue
        outcomes.append(
            (cond, ConditionOutcome(Truth.TRUE if holds else Truth.FALSE, observed))
        )
    statuses = [o.status for _, o in outcomes]
    if any(s is Truth.FALSE for s in statuses):
        satisfied = Truth.FALSE
    elif all(s is Truth.TRUE for s in statuses):
        satisfied = Truth.TRUE
    else:
        satisfied = Truth.UNKNOWN
    return SatisfactionResult(satisfied, tuple(outcomes), tuple(diagnostics))


# --------------------------------------------------------------------------
# Durations
# --------------------------------------------------------------------------

_DURATION_RE = re.compile(r"(?P<sign>[+-]?)(?P<number>\d+(?:\.\d+)?)(?P<unit>s|min|h|d)\Z")


def _duration(seconds: float, literal: str, line: int | None = None, column: int | None = None) -> timedelta:
    """The one duration constructor: a literal past timedelta's range is a
    ParseError, not an OverflowError."""
    try:
        return timedelta(seconds=seconds)
    except OverflowError:
        raise ParseError(f"duration {literal!r} is out of range", line, column) from None


def parse_duration(text: str) -> timedelta:
    """Parse a compact duration literal: <n><s|min|h|d>, e.g. 30min or 2h."""
    m = _DURATION_RE.fullmatch(text.strip())
    if not m:
        raise ParseError(f"invalid duration {text!r} (expected <n><s|min|h|d>)")
    seconds = float(m.group("number")) * _DURATION_UNITS[m.group("unit")]
    if m.group("sign") == "-":
        seconds = -seconds
    return _duration(seconds, text)


def format_duration(value: timedelta) -> str:
    seconds = value.total_seconds()
    if seconds == int(seconds):
        total = int(seconds)
        for symbol, factor in (("d", 86400), ("h", 3600), ("min", 60)):
            if total and total % factor == 0:
                return f"{total // factor}{symbol}"
        return f"{total}s"
    return f"{format_magnitude(seconds)}s"


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


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "word" | "op" | "eof"
    text: str
    line: int
    column: int


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

    def expect_word(self, text: str) -> _Token:
        token = self.next()
        if token.kind != "word" or token.text != text:
            self.fail(token, f"{text!r}")
        return token

    def expect_kind(self, kind: str, expected: str) -> _Token:
        token = self.next()
        if token.kind != kind:
            self.fail(token, expected)
        return token

    def expect_op(self, text: str) -> _Token:
        token = self.next()
        if token.kind != "op" or token.text != text:
            self.fail(token, f"{text!r}")
        return token

    # -- grammar -----------------------------------------------------------

    def document(self) -> RuleSet:
        preconditions: list[PreconditionSet] = []
        cause_rules: list[CauseRule] = []
        while True:
            token = self.peek()
            if token.kind == "eof":
                break
            if token.kind == "word" and token.text == "precondition":
                preconditions.append(self.precondition())
            elif token.kind == "word" and token.text == "rule":
                cause_rules.append(self.cause_rule())
            else:
                self.fail(token, "'precondition' or 'rule'")
        return RuleSet(tuple(preconditions), tuple(cause_rules))

    def identifier(self, what: str) -> str:
        token = self.expect_kind("word", what)
        if not _ID_RE.fullmatch(token.text):
            raise ParseError(f"invalid {what} {token.text!r}", token.line, token.column)
        return token.text

    def precondition(self) -> PreconditionSet:
        start = self.expect_word("precondition")
        pc_id = self.identifier("precondition id")
        self.expect_word("effects")
        event_kind = self.identifier("event kind")
        self.expect_op("{")
        conditions = [self.condition()]
        while True:
            token = self.peek()
            if token.kind == "op" and token.text == ";":
                self.next()
                if self.peek().kind == "op" and self.peek().text == "}":
                    break  # trailing separator
                conditions.append(self.condition())
            elif token.kind == "op" and token.text == "}":
                break
            else:
                self.fail(token, "';' or '}'")
        self.expect_op("}")
        try:
            return PreconditionSet(pc_id, event_kind, tuple(conditions))
        except InvariantViolation as exc:
            raise ParseError(str(exc), start.line, start.column) from None

    def condition(self) -> Condition:
        attr_token = self.expect_kind("word", "attribute name")
        if not ATTR_NAME.fullmatch(attr_token.text):
            raise ParseError(
                f"invalid attribute name {attr_token.text!r}", attr_token.line, attr_token.column
            )
        token = self.next()
        if token.kind == "word" and token.text in ("present", "absent"):
            comparator = Comparator.PRESENT if token.text == "present" else Comparator.ABSENT
            return Condition(attr_token.text, comparator)
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
            return Quantity(float(token.text), unit)
        if token.kind == "word":
            if comparator in (Comparator.EQ, Comparator.NE):
                self.next()
                return Categorical(token.text)
            self.fail(token, "a number followed by a unit")
        self.fail(token, "a number or categorical token")

    def cause_rule(self) -> CauseRule:
        start = self.expect_word("rule")
        rule_id = self.identifier("rule id")
        self.expect_op(":")
        cause_kind = self.identifier("cause event kind")
        self.expect_word("causes")
        effect_kind = self.identifier("effect event kind")
        self.expect_word("when")
        constraint = self.constraint()
        try:
            return CauseRule(rule_id, cause_kind, effect_kind, constraint)
        except InvariantViolation as exc:
            raise ParseError(str(exc), start.line, start.column) from None

    def constraint(self) -> CauseConstraint:
        token = self.next()
        if token.kind == "word" and token.text == "co-occurs":
            return CoOccurs()
        if token.kind == "word" and token.text == "precedes":
            following = self.peek()
            if following.kind == "word" and following.text == "within":
                self.next()
                return PrecedesWithin(self.duration())
            return Precedes()
        self.fail(token, "'co-occurs' or 'precedes'")

    def duration(self) -> timedelta:
        number = self.expect_kind("number", "a duration like 2h or 30min")
        unit_token = self.next()
        if unit_token.kind != "word" or unit_token.text not in _DURATION_UNITS:
            self.fail(unit_token, "a duration unit (s, min, h, d)")
        value = float(number.text) * _DURATION_UNITS[unit_token.text]
        if value < 0:
            raise ParseError("duration must be non-negative", number.line, number.column)
        return _duration(value, number.text + unit_token.text, number.line, number.column)


def parse_rules(text: str) -> RuleSet:
    """Parse a rule document; raises ParseError with line/column on failure."""
    return _Parser(text).document()


# --------------------------------------------------------------------------
# Pretty printer
# --------------------------------------------------------------------------


def _condition_text(cond: Condition) -> str:
    if cond.threshold is None:
        return f"{cond.attribute} {cond.comparator.value}"
    return f"{cond.attribute} {cond.comparator.value} {format_value(cond.threshold)}"


def _constraint_text(constraint: CauseConstraint) -> str:
    if isinstance(constraint, CoOccurs):
        return "co-occurs"
    if isinstance(constraint, Precedes):
        return "precedes"
    return f"precedes within {format_duration(constraint.max_gap)}"


def print_rules(ruleset: RuleSet) -> str:
    """Render a rule set with bit-exact ordering; re-parsing yields an equal set."""
    blocks: list[str] = []
    for pc in ruleset.preconditions:
        body = ";\n".join(f"    {_condition_text(c)}" for c in pc.conditions)
        blocks.append(f"precondition {pc.id} effects {pc.event_kind} {{\n{body}\n}}")
    for rule in ruleset.cause_rules:
        blocks.append(
            f"rule {rule.id}: {rule.cause_kind} causes {rule.effect_kind} "
            f"when {_constraint_text(rule.constraint)}"
        )
    return "\n\n".join(blocks) + ("\n" if blocks else "")
