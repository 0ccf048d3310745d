"""Exception hierarchy for the multi-set extended relational algebra.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch the whole family with one ``except`` clause.  The
sub-hierarchy mirrors the layers of the system: structural errors (domains,
schemas), expression errors (scalar language), algebra errors (operator
construction and typing), evaluation errors (runtime), language errors
(statements / programs / transactions), front-end errors (SQL / XRA
parsing), and server errors (the :mod:`repro.server` wire protocol).

Every class carries a stable **wire code** (``wire_code``): the
machine-readable identifier :mod:`repro.server` puts on error responses
so clients can dispatch without parsing prose.  Codes are part of the
wire protocol — renaming a class must not change its code, and
:func:`wire_code` maps any exception (foreign ones included) to one.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DomainError",
    "DomainValueError",
    "UnknownDomainError",
    "SchemaError",
    "SchemaMismatchError",
    "AttributeResolutionError",
    "DuplicateAttributeError",
    "ExpressionError",
    "ExpressionTypeError",
    "ExpressionParseError",
    "UnboundAttributeError",
    "AlgebraError",
    "ArityError",
    "AggregateError",
    "EmptyAggregateError",
    "EvaluationError",
    "DivisionByZeroError",
    "LanguageError",
    "UnknownRelationError",
    "DuplicateRelationError",
    "TransactionError",
    "TransactionAbort",
    "ConstraintViolationError",
    "FrontendError",
    "SQLParseError",
    "SQLTranslationError",
    "XRAParseError",
    "XRARuntimeError",
    "LintError",
    "ServerError",
    "ProtocolError",
    "QueryTimeoutError",
    "ServerBusyError",
    "ServerShutdownError",
    "TransactionConflictError",
    "wire_code",
]


class ReproError(Exception):
    """Base class for all errors raised by this library."""

    #: Stable machine-readable identifier used on the server wire.
    wire_code = "REPRO-ERROR"


# ---------------------------------------------------------------------------
# Structural layer (Section 2 of the paper)
# ---------------------------------------------------------------------------


class DomainError(ReproError):
    """Problem with an atomic domain (Definition 2.1)."""

    wire_code = "REPRO-DOMAIN"


class DomainValueError(DomainError):
    """A value does not belong to the domain it was declared on."""

    wire_code = "REPRO-DOMAIN-VALUE"

    def __init__(self, domain: object, value: object) -> None:
        super().__init__(f"value {value!r} is not a member of domain {domain}")
        self.domain = domain
        self.value = value


class UnknownDomainError(DomainError):
    """A domain name could not be resolved in the registry."""

    wire_code = "REPRO-DOMAIN-UNKNOWN"


class SchemaError(ReproError):
    """Problem with a relation or database schema (Definitions 2.2 / 2.5)."""

    wire_code = "REPRO-SCHEMA"


class SchemaMismatchError(SchemaError):
    """Two operands require compatible schemas but have different ones.

    Raised by union, difference, intersection, comparison operators, and
    the update statement, all of which are only defined for operands of
    the same schema.
    """

    wire_code = "REPRO-SCHEMA-MISMATCH"

    def __init__(self, left: object, right: object, operation: str = "operation") -> None:
        super().__init__(
            f"{operation} requires identical schemas, got {left} and {right}"
        )
        self.left = left
        self.right = right
        self.operation = operation


class AttributeResolutionError(SchemaError):
    """An attribute reference (positional ``%i`` or named) cannot be resolved."""

    wire_code = "REPRO-ATTRIBUTE"


class DuplicateAttributeError(SchemaError):
    """A schema declares the same attribute name twice."""

    wire_code = "REPRO-ATTRIBUTE-DUPLICATE"


# ---------------------------------------------------------------------------
# Scalar expression layer (conditions phi and arithmetic lists alpha)
# ---------------------------------------------------------------------------


class ExpressionError(ReproError):
    """Problem with a scalar expression."""

    wire_code = "REPRO-EXPRESSION"


class ExpressionTypeError(ExpressionError):
    """A scalar expression is ill-typed (e.g. SUM over a string attribute)."""

    wire_code = "REPRO-EXPRESSION-TYPE"


class ExpressionParseError(ExpressionError):
    """The textual form of a scalar expression cannot be parsed."""

    wire_code = "REPRO-EXPRESSION-PARSE"

    def __init__(self, message: str, text: str = "", position: int = -1) -> None:
        location = f" at position {position}" if position >= 0 else ""
        source = f" in {text!r}" if text else ""
        super().__init__(f"{message}{location}{source}")
        self.text = text
        self.position = position


class UnboundAttributeError(ExpressionError):
    """An expression refers to an attribute absent from the input schema."""

    wire_code = "REPRO-ATTRIBUTE-UNBOUND"


# ---------------------------------------------------------------------------
# Algebra layer (Section 3)
# ---------------------------------------------------------------------------


class AlgebraError(ReproError):
    """Problem constructing or typing an algebra expression."""

    wire_code = "REPRO-ALGEBRA"


class ArityError(AlgebraError):
    """An operator received the wrong number of inputs or attributes."""

    wire_code = "REPRO-ARITY"


class AggregateError(AlgebraError):
    """Problem with an aggregate function (Definition 3.3)."""

    wire_code = "REPRO-AGGREGATE"


class EmptyAggregateError(AggregateError):
    """AVG / MIN / MAX applied to an empty multi-set.

    Definition 3.3 notes these aggregates are *partial* functions: they
    are undefined on empty multi-sets.  We surface the partiality as this
    exception rather than inventing a NULL value the paper does not have.
    """

    wire_code = "REPRO-AGGREGATE-EMPTY"

    def __init__(self, function: str) -> None:
        super().__init__(
            f"aggregate {function} is undefined on an empty multi-set"
        )
        self.function = function


# ---------------------------------------------------------------------------
# Evaluation layer
# ---------------------------------------------------------------------------


class EvaluationError(ReproError):
    """Runtime failure while evaluating an algebra expression."""

    wire_code = "REPRO-EVAL"


class DivisionByZeroError(EvaluationError):
    """Division by zero inside a scalar expression."""

    wire_code = "REPRO-DIV-ZERO"


# ---------------------------------------------------------------------------
# Language layer (Section 4)
# ---------------------------------------------------------------------------


class LanguageError(ReproError):
    """Problem in the statement / program / transaction language."""

    wire_code = "REPRO-LANGUAGE"


class UnknownRelationError(LanguageError):
    """A statement or expression refers to a relation not in the database."""

    wire_code = "REPRO-UNKNOWN-RELATION"

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation {name!r}")
        self.name = name


class DuplicateRelationError(LanguageError):
    """An assignment or schema declaration reuses an existing relation name."""

    wire_code = "REPRO-DUPLICATE-RELATION"

    def __init__(self, name: str) -> None:
        super().__init__(f"relation {name!r} already exists")
        self.name = name


class TransactionError(LanguageError):
    """Invalid use of the transaction machinery (e.g. nested brackets)."""

    wire_code = "REPRO-TRANSACTION"


class TransactionAbort(LanguageError):
    """Signals that the enclosing transaction must abort.

    Raising this (or any other exception) inside a transaction discards
    its working state: nothing it did is installed, per the atomicity
    property in Definition 4.3.
    """

    wire_code = "REPRO-ABORT"

    def __init__(self, reason: str = "transaction aborted") -> None:
        super().__init__(reason)
        self.reason = reason


class ConstraintViolationError(TransactionAbort):
    """An integrity constraint rejected the post-state of a transaction."""

    wire_code = "REPRO-CONSTRAINT"

    def __init__(self, constraint: str, detail: str = "") -> None:
        message = f"integrity constraint {constraint!r} violated"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.constraint = constraint
        self.detail = detail


# ---------------------------------------------------------------------------
# Front ends (SQL and XRA)
# ---------------------------------------------------------------------------


class FrontendError(ReproError):
    """Problem in one of the textual front ends."""

    wire_code = "REPRO-FRONTEND"


class SQLParseError(FrontendError):
    """The SQL text cannot be parsed by the subset grammar."""

    wire_code = "REPRO-SQL-PARSE"


class SQLTranslationError(FrontendError):
    """The SQL statement parses but cannot be mapped onto the algebra."""

    wire_code = "REPRO-SQL-TRANSLATE"


class XRAParseError(FrontendError):
    """The XRA program text cannot be parsed."""

    wire_code = "REPRO-XRA-PARSE"


class XRARuntimeError(FrontendError):
    """An XRA program failed during interpretation."""

    wire_code = "REPRO-XRA-RUNTIME"


# ---------------------------------------------------------------------------
# Static analysis (repro.lint)
# ---------------------------------------------------------------------------


class LintError(ReproError):
    """A strict-lint gate refused to execute: error findings present.

    Raised by :class:`~repro.language.Session` in strict lint mode (and
    by :func:`repro.lint.checked_optimize`) when the static analyzer
    reports error-severity diagnostics.  The full
    :class:`~repro.lint.LintReport` rides along as :attr:`report`.
    """

    wire_code = "REPRO-LINT"

    def __init__(self, report: object) -> None:
        findings = getattr(report, "errors", None) or list(report)  # type: ignore[arg-type]
        summary = "; ".join(
            f"{diagnostic.code} {diagnostic.message}"
            for diagnostic in findings[:3]
        )
        if len(findings) > 3:
            summary += f" (+{len(findings) - 3} more)"
        super().__init__(f"lint found {len(findings)} problem(s): {summary}")
        self.report = report


# ---------------------------------------------------------------------------
# Server layer (repro.server)
# ---------------------------------------------------------------------------


class ServerError(ReproError):
    """Problem in the query server or its wire protocol."""

    wire_code = "REPRO-SERVER"


class ProtocolError(ServerError):
    """A client request the server cannot make sense of.

    Covers malformed JSON, missing/unknown operations, oversized lines,
    and operations that are invalid in the connection's current state
    (e.g. ``commit`` without ``begin``).
    """

    wire_code = "REPRO-PROTOCOL"


class QueryTimeoutError(ServerError):
    """A statement exceeded the server's per-query time budget.

    If the statement ran inside an open transaction, the transaction has
    been rolled back (its working state can no longer be trusted once
    the server stops waiting for it).
    """

    wire_code = "REPRO-TIMEOUT"

    def __init__(self, seconds: float, detail: str = "") -> None:
        message = f"query exceeded the {seconds:g}s time budget"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.seconds = seconds


class ServerBusyError(ServerError):
    """Admission control refused the request: the server is saturated.

    Raised when the executor pool stayed full past the admission
    timeout, or when the connection limit is reached.  Clients should
    back off and retry.
    """

    wire_code = "REPRO-BUSY"


class ServerShutdownError(ServerError):
    """The server is draining: no new work is admitted."""

    wire_code = "REPRO-SHUTDOWN"


class TransactionConflictError(ServerError):
    """First-committer-wins: a concurrent commit invalidated this one.

    A snapshot transaction tried to commit a relation whose epoch moved
    past the value pinned at transaction start.  The transaction has
    been rolled back; the client may retry on a fresh snapshot.
    """

    wire_code = "REPRO-CONFLICT"

    def __init__(self, relations: "list[str] | tuple[str, ...]") -> None:
        names = ", ".join(sorted(relations))
        super().__init__(
            f"concurrent commit(s) touched {names}; transaction rolled back"
        )
        self.relations = tuple(sorted(relations))


def wire_code(error: BaseException) -> str:
    """The stable wire code for any exception.

    :class:`ReproError` subclasses carry their own ``wire_code``
    attribute; anything else — a genuine bug escaping the engine — maps
    to ``REPRO-INTERNAL`` so clients can tell semantics from breakage.
    """
    if isinstance(error, ReproError):
        return type(error).wire_code
    return "REPRO-INTERNAL"
