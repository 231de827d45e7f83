"""Exception types, the integer predicate and the typed reading of JSON
documents, package-wide."""

import sys

import numpy as np


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


def is_integer(value) -> bool:
    """An int or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def json_value(name: str, value, noun: str = "a JSON integer", types: tuple = (int,),
               depth: int = 0):
    """value, cast nowhere: one of the exact types (a bool is no int; a number
    is finite as a float) inside depth levels of lists, else InvalidInputError
    saying `name must be noun`."""
    if not _json_typed(value, types, depth):
        raise InvalidInputError(f"{name} must be {noun}")
    return value


def json_fields(owner: str, doc, fields: dict, defaults: dict) -> dict:
    """The fields of JSON object doc, defaults filling absent keys, each
    checked by json_value against the (types, depth, noun) fields gives it."""
    values = {**defaults, **doc} if isinstance(doc, dict) else {}
    return {key: json_value(f"{owner}: {key}", values.get(key), noun, types, depth)
            for key, (types, depth, noun) in fields.items()}


def _json_typed(value, types: tuple, depth: int) -> bool:
    if depth:
        return type(value) is list and all(_json_typed(v, types, depth - 1) for v in value)
    return type(value) in types and (type(value) not in (int, float)
                                     or abs(value) <= sys.float_info.max)
