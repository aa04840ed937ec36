"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` that the CLI prints
on its diagnostic stream.
"""

from __future__ import annotations


class GeoCausalError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class InvariantViolation(GeoCausalError):
    """A value-type constructor rejected its arguments."""

    code = "invariant-violation"


class OrderViolation(GeoCausalError):
    """An interval's start lies after its end."""

    code = "order-violation"


class ParseError(GeoCausalError):
    """Malformed textual input; carries position information when known."""

    code = "parse-error"

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        prefix = ""
        if line is not None:
            prefix = f"line {line}"
            if column is not None:
                prefix += f", column {column}"
            prefix += ": "
        super().__init__(prefix + message)


class DimensionMismatch(GeoCausalError):
    """Two quantities of different physical dimensions were compared."""

    code = "dimension-mismatch"


class TypeMismatch(GeoCausalError):
    """Categorical and numeric values were mixed in a comparison."""

    code = "type-mismatch"


class UnknownUnit(GeoCausalError):
    """A unit symbol is not in the registry."""

    code = "unknown-unit"


class DuplicateId(GeoCausalError):
    """An entity id is already present in the graph."""

    code = "duplicate-id"


class UnknownEntity(GeoCausalError):
    """An entity id does not resolve."""

    code = "unknown-entity"


class SchemaViolation(GeoCausalError):
    """A triple does not fit its relation's domain/range signature."""

    code = "schema-violation"


class UnknownTriple(GeoCausalError):
    """A triple is not present in the graph."""

    code = "unknown-triple"


class DuplicateRuleId(GeoCausalError):
    """A rule or precondition id occurs twice in one rule set."""

    code = "duplicate-rule-id"


class ConfigError(GeoCausalError):
    """An engine or command-line configuration value is out of range."""

    code = "config-error"


class UsageError(GeoCausalError):
    """A command line the CLI's argument grammar does not accept."""

    code = "usage"


class MissingColumn(GeoCausalError):
    """A required CSV column is absent from the header."""

    code = "missing-column"


class IngestError(GeoCausalError):
    """A CSV row could not be ingested (strict mode abort)."""

    code = "ingest-error"

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PatternParseError(GeoCausalError):
    """A triple pattern expression could not be parsed."""

    code = "pattern-parse-error"


class UnknownRelation(PatternParseError):
    """A pattern used a relation token outside the closed vocabulary."""

    code = "unknown-relation"


class NotAnEvent(GeoCausalError):
    """A why-query was asked about an entity that is not a geo-event."""

    code = "not-an-event"
