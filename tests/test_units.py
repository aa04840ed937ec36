import pytest
from hypothesis import given, strategies as st

from geocausal.errors import DimensionMismatch, InvariantViolation, TypeMismatch, UnknownUnit
from geocausal.units import (
    Categorical,
    Comparator,
    Dimension,
    Quantity,
    REGISTRY,
    compare,
    convert,
    format_value,
    get_unit,
    parse_value,
)

from support import CANONICAL


def q(magnitude, symbol):
    return Quantity(magnitude, get_unit(symbol))


class TestRegistry:
    def test_expected_symbols(self):
        assert set(REGISTRY) == {
            "K", "degC", "degF", "hPa", "mb", "Pa", "atm",
            "m/s", "kn", "mph", "km/h", "m", "km", "mi", "1",
        }

    def test_canonical_units_are_identity(self):
        for unit in CANONICAL.values():
            assert unit.scale == 1.0 and unit.offset == 0.0

    def test_unknown_symbol(self):
        with pytest.raises(UnknownUnit):
            get_unit("furlongs/fortnight")


class TestConvert:
    def test_fahrenheit_to_celsius(self):
        # definitional: (F - 32) * 5/9
        got = convert(q(82, "degF"), get_unit("degC")).magnitude
        assert got == pytest.approx((82 - 32) * 5 / 9, rel=1e-12)

    def test_knots_to_mps(self):
        got = convert(q(130, "kn"), get_unit("m/s")).magnitude
        assert got == pytest.approx(130 * 1852 / 3600, rel=1e-12)
        assert got == pytest.approx(66.8777, abs=1e-3)

    def test_millibar_is_hectopascal(self):
        assert convert(q(1000, "mb"), get_unit("hPa")).magnitude == 1000.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            convert(q(1, "degF"), get_unit("m/s"))

    @given(
        dimension=st.sampled_from(list(Dimension)),
        magnitude=st.floats(-1e6, 1e6, allow_nan=False),
        data=st.data(),
    )
    def test_round_trip_within_relative_tolerance(self, dimension, magnitude, data):
        units = [u for u in REGISTRY.values() if u.dimension is dimension]
        u = data.draw(st.sampled_from(units))
        v = data.draw(st.sampled_from(units))
        original = Quantity(magnitude, u)
        back = convert(convert(original, v), u)
        assert back.magnitude == pytest.approx(magnitude, rel=1e-9, abs=1e-9)


class TestQuantityInvariants:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvariantViolation):
            Quantity(bad, get_unit("m"))

    def test_categorical_must_be_bare_word(self):
        with pytest.raises(InvariantViolation):
            Categorical("two words")
        with pytest.raises(InvariantViolation):
            Categorical("")

    def test_categorical_rejects_lone_surrogates(self):
        for bad in ("\ud800", "wet\udcff", "\udfff"):
            with pytest.raises(InvariantViolation):
                Categorical(bad)
        assert Categorical("\ud7ff\ue000").token == "\ud7ff\ue000"


class TestCompare:
    def test_strictly_greater_threshold(self):
        assert compare(q(83, "degF"), Comparator.GT, q(82, "degF"))

    def test_cross_unit_comparison(self):
        # 82 degF is 300.92777... K, so 300.928 K is just above it
        assert compare(q(300.928, "K"), Comparator.GT, q(82, "degF"))

    def test_present(self):
        assert compare(Categorical("present"), Comparator.PRESENT)
        assert not compare(Categorical("absent"), Comparator.PRESENT)
        assert compare(Categorical("absent"), Comparator.ABSENT)

    def test_strict_comparator_is_strict_on_ties(self):
        assert not compare(q(82, "degF"), Comparator.GT, q(82, "degF"))
        assert compare(q(82, "degF"), Comparator.GE, q(82, "degF"))

    def test_equality_tolerates_conversion_rounding(self):
        a = q(27.5, "degC")
        b = convert(a, get_unit("degF"))
        assert compare(a, Comparator.EQ, b)
        assert not compare(a, Comparator.NE, b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compare(q(82, "degF"), Comparator.GT, q(10, "m/s"))

    def test_type_mismatch(self):
        with pytest.raises(TypeMismatch):
            compare(Categorical("present"), Comparator.GT, q(1, "m"))
        with pytest.raises(TypeMismatch):
            compare(q(1, "m"), Comparator.PRESENT)

    @pytest.mark.parametrize("a, op, b, message", [
        (Categorical("present"), Comparator.PRESENT, Categorical("present"),
         "present takes a single categorical operand"),
        (q(1, "m"), Comparator.EQ, None, "= requires two operands"),
        (Categorical("wet"), Comparator.EQ, q(1, "m"), "cannot compare a categorical value with a quantity"),
        (q(1, "m"), Comparator.NE, Categorical("wet"), "cannot compare a categorical value with a quantity"),
    ], ids=["unary-with-two-operands", "binary-with-one-operand", "categorical-eq-quantity",
            "quantity-ne-categorical"])
    def test_type_mismatch_messages(self, a, op, b, message):
        with pytest.raises(TypeMismatch) as exc:
            compare(a, op, b)
        assert str(exc.value) == message

    def test_categorical_equality(self):
        assert compare(Categorical("wet"), Comparator.EQ, Categorical("wet"))
        assert compare(Categorical("wet"), Comparator.NE, Categorical("dry"))

    # Magnitudes on a 0.01 grid keep canonical gaps far above both the
    # comparison tolerance and affine rounding noise, which is what makes
    # unit invariance a meaningful (non-flaky) property to check.
    @given(
        dimension=st.sampled_from(list(Dimension)),
        a=st.integers(-10000, 10000).map(lambda n: n / 100),
        b=st.integers(-10000, 10000).map(lambda n: n / 100),
        op=st.sampled_from([Comparator.LT, Comparator.LE, Comparator.GT,
                            Comparator.GE, Comparator.EQ, Comparator.NE]),
        data=st.data(),
    )
    def test_invariant_under_unit_conversion(self, dimension, a, b, op, data):
        units = [u for u in REGISTRY.values() if u.dimension is dimension]
        base = data.draw(st.sampled_from(units))
        other = data.draw(st.sampled_from(units))
        left, right = Quantity(a, base), Quantity(b, base)
        expected = compare(left, op, right)
        assert compare(convert(left, other), op, right) == expected
        assert compare(left, op, convert(right, other)) == expected


class TestValueLiterals:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (q(82, "degF"), "82 degF"),
            (q(10, "m/s"), "10 m/s"),
            (q(27.5, "degC"), "27.5 degC"),
            (Categorical("present"), "present"),
        ],
    )
    def test_format(self, value, expected):
        assert format_value(value) == expected

    @pytest.mark.parametrize("text", ["82 degF", "10 m/s", "27.5 degC", "present", "1013.25 hPa"])
    def test_round_trip(self, text):
        assert format_value(parse_value(text)) == text

    def test_parse_unknown_unit(self):
        with pytest.raises(UnknownUnit):
            parse_value("3 smoots")
