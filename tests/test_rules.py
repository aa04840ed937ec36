import importlib
import random
import re
import string
import textwrap
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from geocausal.errors import DuplicateRuleId, InvariantViolation, ParseError
from geocausal.model import GeoSituation, Measurement, Point, SpatioTemporalRegion, TimeInterval
from geocausal.rules import (
    CauseRule,
    CoOccurs,
    Condition,
    Precedes,
    PrecedesWithin,
    PreconditionSet,
    RuleSet,
    Truth,
    evaluate,
    format_duration,
    parse_duration,
    parse_rules,
    print_rules,
)
from geocausal.units import REGISTRY, Categorical, Comparator, Quantity, convert, get_unit

from support import iv, q

PC_TC_TEXT = """
precondition PC_TC effects TropicalCyclone {
    SeaSurfaceTemp > 82 degF;
    AtmosphericPressure > 1000 hPa;
    WindShear > 10 m/s;
    CoriolisForce present
}
"""


@pytest.fixture
def pc_tc():
    return parse_rules(PC_TC_TEXT).preconditions[0]


def situation(**observations):
    measurements = tuple(Measurement(name, value) for name, value in observations.items())
    return GeoSituation("sit:x", iv(0, 6), measurements)


class TestParse:
    def test_tropical_cyclone_precondition(self, pc_tc):
        assert pc_tc.id == "PC_TC"
        assert pc_tc.event_kind == "TropicalCyclone"
        assert len(pc_tc.conditions) == 4
        by_attr = {c.attribute: c for c in pc_tc.conditions}
        assert by_attr["SeaSurfaceTemp"].comparator is Comparator.GT
        assert by_attr["SeaSurfaceTemp"].threshold == q(82, "degF")
        assert by_attr["CoriolisForce"].comparator is Comparator.PRESENT
        assert by_attr["CoriolisForce"].threshold is None

    def test_cause_rule(self):
        ruleset = parse_rules("rule R1: HeavyRain causes FlashFlood when co-occurs")
        rule = ruleset.cause_rules[0]
        assert (rule.id, rule.cause_kind, rule.effect_kind) == ("R1", "HeavyRain", "FlashFlood")
        assert rule.constraint == CoOccurs()

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("precedes", Precedes()),
            ("precedes within 2h", PrecedesWithin(timedelta(hours=2))),
            ("precedes within 30min", PrecedesWithin(timedelta(minutes=30))),
            ("precedes within 86400s", PrecedesWithin(timedelta(days=1))),
            ("precedes within 1d", PrecedesWithin(timedelta(days=1))),
        ],
    )
    def test_constraints(self, text, expected):
        ruleset = parse_rules(f"rule R1: A causes B when {text}")
        assert ruleset.cause_rules[0].constraint == expected

    def test_double_comparator_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_rules("precondition P effects X { Temp >> 3 K }")
        assert exc.value.line == 1
        # the error points at the second '>'
        text = "precondition P effects X { Temp >> 3 K }"
        assert exc.value.column == text.index(">>") + 2
        assert ">" in str(exc.value)

    def test_statement_that_is_neither_precondition_nor_rule(self):
        with pytest.raises(ParseError) as exc:
            parse_rules("rule R1: A causes B when co-occurs\nfoo")
        assert str(exc.value) == "line 2, column 1: expected 'precondition' or 'rule', found 'foo'"

    def test_unknown_unit(self):
        with pytest.raises(ParseError) as exc:
            parse_rules("precondition P effects X { Temp > 3 parsecs }")
        assert "unknown unit" in str(exc.value)

    def test_duplicate_rule_id(self):
        with pytest.raises(ParseError) as exc:
            parse_rules(
                "rule R1: A causes B when precedes\nrule R1: B causes C when precedes"
            )
        assert (exc.value.line, exc.value.column) == (2, 1)
        assert str(exc.value) == "line 2, column 1: rule id 'R1' defined twice"

    def test_self_cause_co_occurs_rejected(self):
        with pytest.raises(ParseError):
            parse_rules("rule R1: Flood causes Flood when co-occurs")
        # the same kind with a temporal constraint is fine
        parse_rules("rule R1: Flood causes Flood when precedes")

    def test_empty_condition_block(self):
        with pytest.raises(ParseError):
            parse_rules("precondition P effects X { }")

    def test_comments_and_unicode_comparators(self):
        ruleset = parse_rules(
            "# a comment\nprecondition P effects X { Temp ≥ 3 K; Phase ≠ solid }\n"
        )
        conditions = ruleset.preconditions[0].conditions
        assert conditions[0].comparator is Comparator.GE
        assert conditions[1].comparator is Comparator.NE
        assert conditions[1].threshold == Categorical("solid")

    def test_trailing_semicolon_allowed(self):
        parse_rules("precondition P effects X { Temp > 3 K; }")

    def test_numeric_comparator_needs_quantity(self):
        with pytest.raises(ParseError):
            parse_rules("precondition P effects X { Temp > solid }")

    @pytest.mark.parametrize("number", ["1e400", "-1e400"])
    def test_threshold_that_overflows_is_a_positioned_parse_error(self, number):
        with pytest.raises(ParseError) as exc:
            parse_rules(f"precondition P effects K {{ A > {number} degF }}")
        assert str(exc.value) == (
            f"line 1, column 32: quantity magnitude must be finite, got {float(number)}"
        )

    @pytest.mark.parametrize("text, message", [
        ("precondition P/1 effects X { A > 1 m }",
         "line 1, column 14: invalid precondition id 'P/1'"),
        ("precondition P effects X { Sea-Temp > 1 m }",
         "line 1, column 28: invalid attribute name 'Sea-Temp'"),
        ("precondition P effects X { A 1 m }",
         "line 1, column 30: expected a comparator (<, <=, >, >=, =, !=, present, absent), found '1'"),
        ("precondition P effects X { A > 1 2 }",
         "line 1, column 34: expected a unit symbol, found '2'"),
        ("rule R1: A causes B when precedes within 2 weeks",
         "line 1, column 44: expected a duration unit (s, min, h, d), found 'weeks'"),
        ("rule R1: A causes B when precedes within -2h",
         "line 1, column 42: duration must be non-negative"),
        ("precondition P effects X { A > 1 m; A < 5 m }",
         "line 1, column 1: precondition P: duplicate condition attributes"),
    ], ids=["precondition-id", "attribute-name", "comparator", "unit-symbol", "duration-unit",
            "negative-duration", "duplicate-attribute"])
    def test_error_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_rules(text)
        assert str(exc.value) == message

    def test_dimensionless_threshold(self):
        ruleset = parse_rules("precondition P effects X { DeathsDirect > 0 1 }")
        assert ruleset.preconditions[0].conditions[0].threshold == q(0, "1")


# Rule values drawn from the whole grammar of docs/rules-grammar.md.
def _words(rest: str):
    """A letter, then up to eight characters of ``rest``."""
    return st.builds(str.__add__, st.sampled_from(string.ascii_letters), st.text(rest, max_size=8))


_IDS = _words(string.ascii_letters + string.digits + "_-")
_ATTRIBUTES = _words(string.ascii_letters + string.digits + "_")
_TOKENS = _words(string.ascii_letters + string.digits + "_-/")
_QUANTITIES = st.builds(Quantity, st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from(sorted(REGISTRY.values(), key=lambda u: u.symbol)))
_CONDITIONS = st.one_of(
    st.builds(Condition, _ATTRIBUTES, st.sampled_from([c for c in Comparator if c.value[0] in "<>=!"]),
              _QUANTITIES),
    st.builds(Condition, _ATTRIBUTES, st.sampled_from([Comparator.EQ, Comparator.NE]),
              _TOKENS.map(Categorical)),
    st.builds(Condition, _ATTRIBUTES, st.sampled_from([Comparator.PRESENT, Comparator.ABSENT])),
)
_ANY_CONSTRAINT = st.one_of(st.just(CoOccurs()), st.just(Precedes()),
                            st.timedeltas(min_value=timedelta(0)).map(PrecedesWithin))


@st.composite
def _rule_sets(draw):
    ids = draw(st.lists(_IDS, unique=True, max_size=6))
    split = draw(st.integers(0, len(ids)))
    preconditions = [
        PreconditionSet(rule_id, draw(_IDS), draw(
            st.lists(_CONDITIONS, min_size=1, max_size=4, unique_by=lambda c: c.attribute)))
        for rule_id in ids[:split]
    ]
    cause_rules = []
    for rule_id in ids[split:]:
        cause, effect, constraint = draw(_IDS), draw(_IDS), draw(_ANY_CONSTRAINT)
        if cause == effect and constraint == CoOccurs():
            constraint = Precedes()  # a kind does not co-occur with itself
        cause_rules.append(CauseRule(rule_id, cause, effect, constraint))
    return RuleSet(preconditions, cause_rules)


_RULE_SETS = _rule_sets()


class TestPrint:
    def test_round_trip_fixture(self):
        ruleset = parse_rules(PC_TC_TEXT + "\nrule R1: HeavyRain causes FlashFlood when co-occurs")
        assert parse_rules(print_rules(ruleset)) == ruleset

    def test_sorted_output(self):
        ruleset = parse_rules(
            "rule Z: A causes B when precedes\n"
            "precondition P2 effects X { Temp > 3 K }\n"
            "precondition P1 effects Y { Temp > 4 K }\n"
        )
        text = print_rules(ruleset)
        assert text.index("P1") < text.index("P2") < text.index("rule Z")

    def test_empty_rule_set(self):
        assert print_rules(RuleSet()) == ""

    @given(_RULE_SETS)
    def test_round_trip_random(self, ruleset):
        assert parse_rules(print_rules(ruleset)) == ruleset

    def test_condition_text(self):
        assert str(Condition("CoriolisForce", Comparator.PRESENT)) == "CoriolisForce present"
        assert str(Condition("SeaSurfaceTemp", Comparator.GE, q(82.5, "degF"))) == "SeaSurfaceTemp >= 82.5 degF"
        assert str(Condition("Spillway", Comparator.EQ, Categorical("open"))) == "Spillway = open"


def documented_examples() -> list[str]:
    """The rule-file examples in README.md and in the rules module docstring."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    blocks += re.findall(r"(?:^    .*\n)+", importlib.import_module("geocausal.rules").__doc__, re.M)
    texts = [textwrap.dedent(block) for block in blocks]
    return [text for text in texts if re.match(r"(precondition|rule)\s", text)]


def test_documented_examples_parse_and_round_trip():
    examples = documented_examples()
    assert len(examples) >= 3  # README's precondition; the docstring's precondition and rules
    for text in examples:
        ruleset = parse_rules(text)
        assert parse_rules(print_rules(ruleset)) == ruleset


# Whole hours near both ends of the datetime range, where a window's bound
# overflows to open, and mid-range.
_FIRST = datetime(1, 1, 1, tzinfo=timezone.utc)
_MIDDLE = datetime(2005, 8, 29, tzinfo=timezone.utc)
_LAST = datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc)
_HOURS = st.integers(0, 72).map(lambda h: timedelta(hours=h))
_FEW_HOURS = st.integers(0, 3).map(lambda h: timedelta(hours=h))
_HUGE = st.integers(0, 990_000_000).map(lambda d: timedelta(days=d))
_starts = st.one_of(
    _HOURS.map(lambda h: _FIRST + h),
    _HOURS.map(lambda h: _MIDDLE + h),
    _HOURS.map(lambda h: _LAST - timedelta(hours=3) - h),
)
_intervals = st.builds(lambda start, length: TimeInterval(start, start + length), _starts, _FEW_HOURS)
_constraints = st.one_of(
    st.just(CoOccurs()), st.just(Precedes()), st.one_of(_FEW_HOURS, _HUGE).map(PrecedesWithin)
)


@st.composite
def _interval_pairs(draw):
    """Two intervals; the second mostly starts within an hour of the first's
    start or end, so that they meet, overlap or share an endpoint."""
    a = draw(_intervals)
    if draw(st.integers(0, 3)):
        anchor = draw(st.sampled_from([a.start, a.end]))
        offset, length = timedelta(hours=draw(st.integers(-1, 1))), draw(_FEW_HOURS)
        try:
            return a, TimeInterval(anchor + offset, anchor + offset + length)
        except OverflowError:
            pass  # past the datetime range
    return a, draw(_intervals)


class TestConstraints:
    @settings(derandomize=True, max_examples=1000)
    @given(_constraints, _interval_pairs(), st.one_of(_FEW_HOURS, _HUGE))
    def test_every_effect_that_passes_starts_in_the_window(self, constraint, pair, slack):
        a, b = pair
        region_a = SpatioTemporalRegion("reg:a", Point(30.0, -90.0), a)
        region_b = SpatioTemporalRegion("reg:b", Point(30.0, -90.0), b)
        low, high = constraint.starts(a, b.end - b.start + slack)
        if constraint.holds(region_a, region_b):
            assert low is None or low <= b.start
            assert high is None or b.start <= high

    @given(_constraints)
    def test_printed_form_parses_back(self, constraint):
        rule = parse_rules(f"rule R1: A causes B when {constraint}").cause_rules[0]
        assert rule.constraint == constraint


class TestFaultPositions:
    """The parser's refusals not reached through the other tests, each with its
    line and column: a later line's columns count from that line's start."""

    @pytest.mark.parametrize("text, message", [
        ("precondition P effects Rain { Rain foo }",
         "line 1, column 36: expected a comparator (<, <=, >, >=, =, !=, present, absent), found 'foo'"),
        ("rule R1: A causes B when precedes within 3h $", "line 1, column 45: unexpected character '$'"),
        ("rule R1: A causes B when precedes\nrule R2: B causes C @ when",
         "line 2, column 21: unexpected character '@'"),
        ("rule R1: A causes B when precedes\r\n  rule R2: B causes C ! when",
         "line 2, column 23: unexpected character '!'"),
        ("rule R1: A causes B when",
         "line 1, column 25: expected 'co-occurs' or 'precedes', found end of input"),
        ("rule R1: A causes B when precedes\n  rule R2: B causes  ",
         "line 2, column 22: expected effect event kind, found end of input"),
        # expect() with no text given still checks the token's kind
        ("precondition P effects X { 12 > 3 m }", "line 1, column 28: expected attribute name, found '12'"),
        ("rule 12: A causes B when precedes", "line 1, column 6: expected rule id, found '12'"),
    ], ids=["bare-word-after-attribute", "character-line-1", "character-line-2", "character-after-crlf",
            "end-line-1", "end-line-2", "number-for-attribute", "number-for-rule-id"])
    def test_refusal_names_its_line_and_column(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_rules(text)
        assert str(exc.value) == message


class TestDurations:
    @pytest.mark.parametrize(
        "text,seconds",
        [("90min", 5400), ("2h", 7200), ("1d", 86400), ("45s", 45), ("-1h", -3600)],
    )
    def test_parse(self, text, seconds):
        assert parse_duration(text).total_seconds() == seconds

    @pytest.mark.parametrize("text", ["", "h", "5 h", "5w", "1.5", "99999999999d"])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_duration(text)

    @pytest.mark.parametrize("text", ["90min", "2h", "1d", "45s"])
    def test_format_round_trip(self, text):
        assert format_duration(parse_duration(text)) == text

    @pytest.mark.parametrize(
        "duration,text",
        [
            (timedelta(days=999999, microseconds=7), "86399913600.000007s"),
            (timedelta(days=100000, microseconds=1), "8640000000.000001s"),
            (timedelta.max, "86399999999999.999999s"),
            (timedelta(microseconds=1), "0.000001s"),
            (timedelta(seconds=-1.5), "-1.5s"),
        ],
    )
    def test_format_keeps_every_microsecond(self, duration, text):
        assert format_duration(duration) == text

    @given(st.timedeltas())
    def test_every_duration_round_trips(self, duration):
        assert parse_duration(format_duration(duration)) == duration

    @given(st.timedeltas(min_value=timedelta(0)))
    def test_every_gap_round_trips_through_a_rule(self, gap):
        rule = parse_rules(f"rule R1: A causes B when {PrecedesWithin(gap)}").cause_rules[0]
        assert rule.constraint == PrecedesWithin(gap)

    @pytest.mark.parametrize(
        "text,duration",
        [
            ("2.0000005s", timedelta(seconds=2)),
            ("2.0000015s", timedelta(seconds=2, microseconds=2)),
            ("0.5min", timedelta(seconds=30)),
            ("86399913600.000007s", timedelta(days=999999, microseconds=7)),
        ],
    )
    def test_decimals_parse_exactly_with_ties_to_even(self, text, duration):
        assert parse_duration(text) == duration
        rule = parse_rules(f"rule R1: A causes B when precedes within {text}").cause_rules[0]
        assert rule.constraint == PrecedesWithin(duration)

    @pytest.mark.parametrize(
        "text,duration",
        [
            ("1.5e3s", timedelta(minutes=25)),
            ("1e-99999999999h", timedelta(0)),
            ("1e-1000000000000000000h", timedelta(0)),
            ("0.0000025e0s", timedelta(microseconds=2)),
            pytest.param("1" + "0" * 5000 + "e-5000h", timedelta(hours=1), id="5000-trailing-zeros"),
            pytest.param(
                "2.0000005" + "0" * 5000 + "1s",
                timedelta(seconds=2, microseconds=1),
                id="just-past-a-tie",
            ),
        ],
    )
    def test_rule_durations_take_an_exponent(self, text, duration):
        rule = parse_rules(f"rule R1: A causes B when precedes within {text}").cause_rules[0]
        assert rule.constraint == PrecedesWithin(duration)

    @pytest.mark.parametrize(
        "text",
        [
            "1e1000000000000000000h",
            "1e21s",
            pytest.param("1e" + "9" * 5000 + "s", id="5000-digit-exponent"),
        ],
    )
    def test_rule_duration_past_the_range_is_a_positioned_parse_error(self, text):
        with pytest.raises(ParseError, match="out of range") as caught:
            parse_rules(f"rule R1: A causes B when precedes within {text}")
        assert (caught.value.line, caught.value.column) == (1, 42)


    # Each bound is a shortcut to the outcome the exact computation reaches
    # anyway, so both sides of it give the same value or the same refusal.
    @pytest.mark.parametrize("text", [
        "9" * 21 + "d",  # below 10**21: computed, then past timedelta's range
        "1" + "0" * 21 + "d",  # 10**21: refused before it is computed
    ])
    def test_the_upper_bound_refuses_on_both_sides(self, text):
        with pytest.raises(ParseError, match=rf"^duration '{text}' is out of range$"):
            parse_duration(text)

    @pytest.mark.parametrize("text", [
        "0." + "0" * 15 + "1d",  # 10**-16: computed, rounds to zero
        "0." + "0" * 16 + "1d",  # 10**-17: zero without computing
        "-0." + "0" * 16 + "1d",
    ])
    def test_the_lower_bound_gives_zero_on_both_sides(self, text):
        assert parse_duration(text) == timedelta(0)

    @pytest.mark.parametrize("digits", [30, 31])  # the cap: longer exponents are not converted
    def test_the_exponent_cap_keeps_the_outcome_on_both_sides(self, digits):
        exponent = "1" + "0" * (digits - 1)
        rule = parse_rules(f"rule R1: A causes B when precedes within 1e-{exponent}h").cause_rules[0]
        assert rule.constraint == PrecedesWithin(timedelta(0))
        with pytest.raises(ParseError, match="out of range") as caught:
            parse_rules(f"rule R1: A causes B when precedes within 1e{exponent}h")
        assert (caught.value.line, caught.value.column) == (1, 42)


class TestEvaluate:
    def test_all_conditions_hold(self, pc_tc):
        result = evaluate(
            pc_tc,
            situation(
                SeaSurfaceTemp=q(83, "degF"),
                AtmosphericPressure=q(1005, "hPa"),
                WindShear=q(12, "m/s"),
                CoriolisForce=Categorical("present"),
            ),
        )
        assert result.satisfied is Truth.TRUE
        assert all(o.status is Truth.TRUE for _, o in result.per_condition)

    def test_cold_ocean_fails(self, pc_tc):
        # 27 degC is 80.6 degF, below the 82 degF threshold
        result = evaluate(
            pc_tc,
            situation(
                SeaSurfaceTemp=q(27, "degC"),
                AtmosphericPressure=q(1005, "hPa"),
                WindShear=q(12, "m/s"),
                CoriolisForce=Categorical("present"),
            ),
        )
        assert result.satisfied is Truth.FALSE

    def test_missing_observation_is_unknown(self, pc_tc):
        result = evaluate(
            pc_tc,
            situation(
                SeaSurfaceTemp=q(83, "degF"),
                AtmosphericPressure=q(1005, "hPa"),
                CoriolisForce=Categorical("present"),
            ),
        )
        assert result.satisfied is Truth.UNKNOWN
        statuses = {c.attribute: o.status for c, o in result.per_condition}
        assert statuses["WindShear"] is Truth.UNKNOWN

    def test_unit_converted_observations_equivalent(self, pc_tc):
        base = dict(
            AtmosphericPressure=q(1005, "hPa"),
            WindShear=q(12, "m/s"),
            CoriolisForce=Categorical("present"),
        )
        in_f = evaluate(pc_tc, situation(SeaSurfaceTemp=q(83, "degF"), **base))
        in_c = evaluate(
            pc_tc, situation(SeaSurfaceTemp=convert(q(83, "degF"), get_unit("degC")), **base)
        )
        assert in_f.satisfied is in_c.satisfied is Truth.TRUE

    def test_dimension_mismatch_forces_false_with_diagnostic(self, pc_tc):
        result = evaluate(
            pc_tc,
            situation(
                SeaSurfaceTemp=q(10, "m"),  # a length where a temperature is expected
                AtmosphericPressure=q(1005, "hPa"),
                WindShear=q(12, "m/s"),
                CoriolisForce=Categorical("present"),
            ),
        )
        assert result.satisfied is Truth.FALSE
        assert result.diagnostics and "SeaSurfaceTemp" in result.diagnostics[0]

    def test_strict_threshold_boundary(self):
        pc = parse_rules("precondition P effects X { Temp > 3 K }").preconditions[0]
        assert evaluate(pc, situation(Temp=q(3, "K"))).satisfied is Truth.FALSE

    def test_monotone_conjunction(self):
        rng = random.Random(5)
        for _ in range(100):
            conditions = [
                Condition("A", Comparator.GT, q(rng.randint(0, 10), "m")),
                Condition("B", Comparator.GT, q(rng.randint(0, 10), "m")),
                Condition("C", Comparator.PRESENT),
            ]
            observations = {}
            if rng.random() < 0.8:
                observations["A"] = q(rng.randint(0, 10), "m")
            if rng.random() < 0.8:
                observations["B"] = q(rng.randint(0, 10), "m")
            if rng.random() < 0.8:
                observations["C"] = Categorical(rng.choice(["present", "absent"]))
            full = PreconditionSet("P", "X", tuple(conditions))
            result = evaluate(full, situation(**observations))
            for drop in range(3):
                outcome = result.per_condition[drop][1]
                if outcome.status is not Truth.FALSE:
                    continue
                remaining = tuple(c for i, c in enumerate(full.conditions) if i != drop)
                if not remaining:
                    continue
                reduced = evaluate(PreconditionSet("P", "X", remaining), situation(**observations))
                assert reduced.satisfied >= result.satisfied

    def test_observed_values_are_reported(self, pc_tc):
        result = evaluate(pc_tc, situation(SeaSurfaceTemp=q(83, "degF")))
        by_attr = {c.attribute: o for c, o in result.per_condition}
        assert by_attr["SeaSurfaceTemp"].observed == q(83, "degF")
        assert by_attr["WindShear"].observed is None


class TestInvariants:
    def test_condition_threshold_arity(self):
        with pytest.raises(InvariantViolation):
            Condition("A", Comparator.PRESENT, q(1, "m"))
        with pytest.raises(InvariantViolation):
            Condition("A", Comparator.GT)
        with pytest.raises(InvariantViolation):
            Condition("A", Comparator.GT, Categorical("x"))

    def test_precondition_needs_conditions(self):
        with pytest.raises(InvariantViolation):
            PreconditionSet("P", "X", ())

    def test_duplicate_attributes_in_set(self):
        with pytest.raises(InvariantViolation):
            PreconditionSet(
                "P", "X",
                (Condition("A", Comparator.PRESENT), Condition("A", Comparator.ABSENT)),
            )

    def test_rule_set_id_uniqueness_spans_both_kinds(self):
        pc = PreconditionSet("SAME", "X", (Condition("A", Comparator.PRESENT),))
        rule = CauseRule("SAME", "A", "B", Precedes())
        with pytest.raises(DuplicateRuleId):
            RuleSet((pc,), (rule,))

    def test_negative_gap_rejected(self):
        with pytest.raises(InvariantViolation):
            PrecedesWithin(timedelta(hours=-1))


@pytest.mark.parametrize("build", [
    lambda: PreconditionSet("P1", "Has Space", (Condition("A", Comparator.PRESENT),)),
    lambda: PreconditionSet("P1", 5, (Condition("A", Comparator.PRESENT),)),
    lambda: PreconditionSet("P", "K", ("x",)),
    lambda: PreconditionSet("P", "K", None),
    lambda: CauseRule("R1", "A B", "C", Precedes()),
    lambda: CauseRule("R1", "A", None, Precedes()),
    lambda: CauseRule("R1", "A", "C", "precedes"),
    lambda: CauseRule(5, "A", "C", Precedes()),
    lambda: Condition("A", Comparator.EQ, Categorical("5")),
    lambda: Condition("A", Comparator.NE, Categorical("a=b")),
    lambda: Condition("A", Comparator.EQ, 5),
    lambda: Condition("A", ">", q(1, "m")),
    lambda: Condition(5, Comparator.PRESENT),
    lambda: PrecedesWithin(5),
    lambda: RuleSet(("x",)),
    lambda: RuleSet((), (PreconditionSet("P", "K", (Condition("A", Comparator.PRESENT),)),)),
], ids=["spaced-kind", "int-kind", "str-condition", "no-conditions", "spaced-cause-kind",
        "none-effect-kind", "str-constraint", "int-rule-id", "number-token", "token-with-equals",
        "int-threshold", "str-comparator", "int-attribute", "int-gap", "str-precondition",
        "precondition-as-cause-rule"])
def test_rule_values_that_would_not_print_back_are_rejected(build):
    with pytest.raises(InvariantViolation):
        build()
