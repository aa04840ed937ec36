import random
from datetime import timedelta

import pytest
from hypothesis import given, strategies as st

from geocausal.errors import DuplicateRuleId, InvariantViolation, ParseError
from geocausal.model import GeoSituation, Measurement
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
from geocausal.units import Categorical, Comparator, convert, get_unit

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

    def test_unknown_unit(self):
        with pytest.raises(ParseError) as exc:
            parse_rules("precondition P effects X { Temp > 3 parsecs }")
        assert "unknown unit" in str(exc.value)

    def test_duplicate_rule_id(self):
        with pytest.raises(DuplicateRuleId):
            parse_rules(
                "rule R1: A causes B when precedes\nrule R1: B causes C when precedes"
            )

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

    def test_dimensionless_threshold(self):
        ruleset = parse_rules("precondition P effects X { DeathsDirect > 0 1 }")
        assert ruleset.preconditions[0].conditions[0].threshold == q(0, "1")


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

    @given(st.data())
    def test_round_trip_random(self, data):
        preconditions = []
        for i in range(data.draw(st.integers(0, 3))):
            conditions = []
            names = data.draw(
                st.lists(
                    st.sampled_from(["Temp", "WindSpeed", "WaterLevel", "Phase"]),
                    min_size=1, max_size=3, unique=True,
                )
            )
            for name in names:
                style = data.draw(st.sampled_from(["num", "cat", "unary"]))
                if style == "num":
                    comparator = data.draw(
                        st.sampled_from([Comparator.LT, Comparator.LE, Comparator.GT,
                                         Comparator.GE, Comparator.EQ, Comparator.NE])
                    )
                    magnitude = data.draw(st.integers(-100, 100).map(lambda n: n / 4))
                    symbol = data.draw(st.sampled_from(["K", "degC", "m/s", "m", "hPa"]))
                    conditions.append(Condition(name, comparator, q(magnitude, symbol)))
                elif style == "cat":
                    comparator = data.draw(st.sampled_from([Comparator.EQ, Comparator.NE]))
                    token = data.draw(st.sampled_from(["solid", "liquid", "rising"]))
                    conditions.append(Condition(name, comparator, Categorical(token)))
                else:
                    comparator = data.draw(st.sampled_from([Comparator.PRESENT, Comparator.ABSENT]))
                    conditions.append(Condition(name, comparator))
            preconditions.append(PreconditionSet(f"P{i}", "Kind", tuple(conditions)))
        cause_rules = []
        for i in range(data.draw(st.integers(0, 3))):
            constraint = data.draw(
                st.sampled_from(
                    [CoOccurs(), Precedes(), PrecedesWithin(timedelta(minutes=90)),
                     PrecedesWithin(timedelta(hours=2))]
                )
            )
            cause_rules.append(CauseRule(f"R{i}", "KindA", "KindB", constraint))
        ruleset = RuleSet(tuple(preconditions), tuple(cause_rules))
        assert parse_rules(print_rules(ruleset)) == ruleset


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
