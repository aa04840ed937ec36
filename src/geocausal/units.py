"""Units, dimensioned quantities and value comparison.

The registry is fixed at build time: temperatures (degF, degC, K),
pressures (hPa, mb, Pa, atm), speeds (m/s, kn, mph, km/h), lengths
(m, km, mi) and the dimensionless unit "1". Each unit maps into its
dimension's canonical unit (kelvin, hectopascal, metre/second, metre)
through an affine pair, so any conversion is the composition of at most
two exact affine maps.

Comparisons are evaluated in canonical units with a small absolute
tolerance so that results survive the rounding introduced by affine
conversion chains.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import DimensionMismatch, InvariantViolation, ParseError, TypeMismatch, UnknownUnit
from .slotted import Frozen, setters, store

#: Absolute tolerance, in canonical units, applied by every comparator.
EQ_TOLERANCE = 1e-9


class Dimension(Enum):
    TEMPERATURE = "temperature"
    PRESSURE = "pressure"
    SPEED = "speed"
    LENGTH = "length"
    DIMENSIONLESS = "dimensionless"


def to_float(value: object, what: str) -> float:
    """``float(value)``; InvariantViolation naming ``what`` if it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvariantViolation(f"{what} must be a number, got {value!r}") from None


class Unit(Frozen):
    """A named unit with an affine map into its dimension's canonical unit.

    canonical = scale * magnitude + offset, with scale > 0 and both finite.
    """

    __slots__ = ("symbol", "dimension", "scale", "offset")

    def __init__(self, symbol: str, dimension: Dimension, scale: float, offset: float = 0.0):
        if not isinstance(symbol, str) or not symbol:
            raise InvariantViolation(f"unit symbol must be a non-empty str, got {symbol!r}")
        if not isinstance(dimension, Dimension):
            raise InvariantViolation(f"unit {symbol!r}: dimension must be a Dimension, got {dimension!r}")
        scale = to_float(scale, f"unit {symbol!r}: scale")
        offset = to_float(offset, f"unit {symbol!r}: offset")
        if not (math.isfinite(scale) and math.isfinite(offset)):
            raise InvariantViolation(f"unit {symbol!r}: scale and offset must be finite")
        if scale <= 0:
            raise InvariantViolation(f"unit {symbol!r}: scale must be positive")
        store(self, "symbol", symbol)
        store(self, "dimension", dimension)
        store(self, "scale", scale)
        store(self, "offset", offset)

    def to_canonical(self, magnitude: float) -> float:
        return self.scale * magnitude + self.offset

    def from_canonical(self, canonical: float) -> float:
        return (canonical - self.offset) / self.scale


_KNOT = 1852.0 / 3600.0  # 1 kn in m/s, by definition of the nautical mile

REGISTRY: dict[str, Unit] = {
    u.symbol: u
    for u in (
        Unit("K", Dimension.TEMPERATURE, 1.0),
        Unit("degC", Dimension.TEMPERATURE, 1.0, 273.15),
        Unit("degF", Dimension.TEMPERATURE, 5.0 / 9.0, 273.15 - 32.0 * 5.0 / 9.0),
        Unit("hPa", Dimension.PRESSURE, 1.0),
        Unit("mb", Dimension.PRESSURE, 1.0),
        Unit("Pa", Dimension.PRESSURE, 0.01),
        Unit("atm", Dimension.PRESSURE, 1013.25),
        Unit("m/s", Dimension.SPEED, 1.0),
        Unit("kn", Dimension.SPEED, _KNOT),
        Unit("mph", Dimension.SPEED, 0.44704),
        Unit("km/h", Dimension.SPEED, 1.0 / 3.6),
        Unit("m", Dimension.LENGTH, 1.0),
        Unit("km", Dimension.LENGTH, 1000.0),
        Unit("mi", Dimension.LENGTH, 1609.344),
        Unit("1", Dimension.DIMENSIONLESS, 1.0),
    )
}


def get_unit(symbol: str) -> Unit:
    """Look a unit up by symbol, raising UnknownUnit for anything unregistered."""
    try:
        return REGISTRY[symbol]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise UnknownUnit(f"unknown unit {symbol!r} (registered: {known})") from None


class Quantity(Frozen):
    """A finite magnitude paired with a registered unit."""

    __slots__ = ("magnitude", "unit")

    def __init__(self, magnitude: float, unit: Unit):
        magnitude = to_float(magnitude, "quantity magnitude")
        if not math.isfinite(magnitude):
            raise InvariantViolation(f"quantity magnitude must be finite, got {magnitude!r}")
        # A pickled unit comes back as an equal copy, not the registry's own.
        registered = REGISTRY.get(unit.symbol) if isinstance(unit, Unit) else None
        if registered is None or (registered is not unit and registered != unit):
            raise InvariantViolation(f"quantity unit must be a registered Unit, got {unit!r}")
        _quantity_magnitude(self, magnitude)
        _quantity_unit(self, unit)

    def canonical(self) -> float:
        return self.unit.to_canonical(self.magnitude)


_quantity_magnitude, _quantity_unit = setters(Quantity, "magnitude", "unit")


class Categorical(Frozen):
    """A categorical observation value such as "present" or "absent"."""

    __slots__ = ("token",)

    def __init__(self, token: str):
        # Printable text holds no whitespace but the space, and no surrogate,
        # so only other text needs the scan.
        if not isinstance(token, str) or not token or not (
            token.isprintable() and " " not in token and '"' not in token
        ) and any(c.isspace() or c == '"' or "\ud800" <= c <= "\udfff" for c in token):
            raise InvariantViolation(f"categorical token {token!r} must be a single bare word")
        store(self, "token", token)


Value = Quantity | Categorical


def convert(quantity: Quantity, target: Unit) -> Quantity:
    """Convert a quantity into another unit of the same dimension."""
    if quantity.unit.dimension is not target.dimension:
        raise DimensionMismatch(
            f"cannot convert {quantity.unit.dimension.value} ({quantity.unit.symbol}) "
            f"to {target.dimension.value} ({target.symbol})"
        )
    return Quantity(target.from_canonical(quantity.canonical()), target)


class Comparator(Enum):
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "="
    NE = "!="
    PRESENT = "present"
    ABSENT = "absent"


_NUMERIC_ONLY = {Comparator.LT, Comparator.LE, Comparator.GT, Comparator.GE}
_UNARY = {Comparator.PRESENT, Comparator.ABSENT}


def compare(a: Value, op: Comparator, b: Value | None = None) -> bool:
    """Evaluate a comparison between measurement values.

    Numeric comparators require two quantities of equal dimension and are
    evaluated in canonical units; strict comparators stay strict (an exact
    tie is not greater/less). present/absent take a single categorical
    operand and test it against the literal token.
    """
    if op in _UNARY:
        if b is not None:
            raise TypeMismatch(f"{op.value} takes a single categorical operand")
        if not isinstance(a, Categorical):
            raise TypeMismatch(f"{op.value} applies to categorical values, got a quantity")
        return a.token == op.value

    if b is None:
        raise TypeMismatch(f"{op.value} requires two operands")

    if isinstance(a, Categorical) or isinstance(b, Categorical):
        if op in _NUMERIC_ONLY:
            raise TypeMismatch(f"{op.value} requires two quantities, got a categorical value")
        if not (isinstance(a, Categorical) and isinstance(b, Categorical)):
            raise TypeMismatch("cannot compare a categorical value with a quantity")
        equal = a.token == b.token
        return equal if op is Comparator.EQ else not equal

    if a.unit.dimension is not b.unit.dimension:
        raise DimensionMismatch(
            f"cannot compare {a.unit.dimension.value} with {b.unit.dimension.value}"
        )
    x, y = a.canonical(), b.canonical()
    if op is Comparator.LT:
        return y - x > EQ_TOLERANCE
    if op is Comparator.LE:
        return x - y <= EQ_TOLERANCE
    if op is Comparator.GT:
        return x - y > EQ_TOLERANCE
    if op is Comparator.GE:
        return y - x <= EQ_TOLERANCE
    if op is Comparator.EQ:
        return abs(x - y) <= EQ_TOLERANCE
    return abs(x - y) > EQ_TOLERANCE  # NE


def format_magnitude(value: float) -> str:
    """Render a float without a trailing .0 for whole numbers (82 not 82.0)."""
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def format_value(value: Value) -> str:
    """Serialize a value: quantities as "<magnitude> <symbol>", tokens bare."""
    if isinstance(value, Quantity):
        return f"{format_magnitude(value.magnitude)} {value.unit.symbol}"
    return value.token


def parse_value(text: str) -> Value:
    """Parse the serialization produced by :func:`format_value`."""
    text = text.strip()
    if not text:
        raise ParseError("empty measurement value")
    if " " in text:
        magnitude_text, symbol = text.split(" ", 1)
        try:
            magnitude = float(magnitude_text)
        except ValueError:
            raise ParseError(f"invalid quantity literal {text!r}") from None
        return Quantity(magnitude, get_unit(symbol.strip()))
    return Categorical(text)
