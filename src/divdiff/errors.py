"""Exception types and the typed reading of JSON documents, package-wide."""

import sys


class DivDiffError(Exception):
    """Base class for all library errors."""


class InvalidInputError(DivDiffError, ValueError):
    """An argument violates a documented precondition."""


class ContractError(DivDiffError, RuntimeError):
    """A component produced output that breaks an internal contract."""


class DegenerateInputError(DivDiffError, ValueError):
    """Input is well formed but numerically unusable (e.g. a zero feature)."""


class FactorizationError(DivDiffError, ArithmeticError):
    """A symmetric factorization failed (matrix not positive definite)."""


class NumericalError(DivDiffError, ArithmeticError):
    """A numerical routine failed after its recovery policy was exhausted."""


class TraceFormatError(DivDiffError, ValueError):
    """A logits trace file is malformed or unreadable."""


def json_fields(owner: str, doc, fields: dict, defaults: dict) -> dict:
    """The fields of JSON object doc, defaults filling absent keys, cast nowhere:
    the (types, depth, noun) of a key asks for one of the exact types (a bool
    is no int; a number is finite as a float) inside depth levels of lists."""
    values = {**defaults, **doc} if isinstance(doc, dict) else {}
    for key, (types, depth, noun) in fields.items():
        if key not in values or not _json_typed(values[key], types, depth):
            raise InvalidInputError(f"{owner}: {key} must be {noun}")
    return {key: values[key] for key in fields}


def _json_typed(value, types: tuple, depth: int) -> bool:
    if depth:
        return type(value) is list and all(_json_typed(v, types, depth - 1) for v in value)
    return type(value) in types and (type(value) not in (int, float)
                                     or abs(value) <= sys.float_info.max)
