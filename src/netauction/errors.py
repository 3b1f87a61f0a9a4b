"""Exception types shared across the package, and the argument rules that
raise them.

Errors are split by what went wrong rather than where: bad caller input
(validation), mathematically undefined requests (domain), failed numeric
searches (solver), and malformed external inputs (config strings, edge-list
files). Unknown-id lookups raise plain KeyError.

The argument rules are stated once here, each raising the class its caller
names: a count is an int or numpy integer of at least a floor, and an amount
a finite real number > 0 or >= 0. Neither is a bool.
"""

import math
import operator


class NetAuctionError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(NetAuctionError, ValueError):
    """Structurally invalid input: duplicate ids, negative bids, id mismatches."""


class DomainError(NetAuctionError, ValueError):
    """Request outside the mathematical domain of an operation."""


class SolverError(NetAuctionError, RuntimeError):
    """A root search failed; the message reports the bracket it was given."""


class ScenarioError(DomainError):
    """Scenario-spec parameters that no network can realise."""


class EdgeListFormatError(NetAuctionError, ValueError):
    """Malformed edge-list file; the message carries the offending line number."""


class ConfigError(NetAuctionError, ValueError):
    """Malformed configuration string (distribution or reserve policy)."""


class PropertyViolation(NetAuctionError):
    """A proven ordering or bound failed numerically; never silent."""


def check_count(name: str, value, least: int = 1, error=ValidationError) -> int:
    """value as a Python int, if it is an int or a numpy integer of at
    least `least`; else `error`. A bool and a float, even 2.0, are refused."""
    try:
        count = operator.index(value)  # refuses floats, strings and np.bool_
    except TypeError:
        count = None
    if count is None or isinstance(value, bool) or count < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return count


def check_counts(name: str, values, least: int = 1, error=ValidationError) -> tuple[int, ...]:
    """check_count on every item of an iterable, read once, as a non-empty
    tuple of Python ints. Only a bad item costs a Python call per item, to
    raise check_count's error for the first bad one."""
    values = tuple(values)
    try:
        counts = tuple(map(operator.index, values))
    except TypeError:
        counts = None
    if not counts or min(counts) < least or bool in set(map(type, values)):
        for value in values:  # the first bad item raises
            check_count(name, value, least, error)
        raise error(f"at least one {name} is needed, got none")
    return counts


def check_positive(name: str, x) -> None:
    """DomainError unless x is a finite number > 0, not a bool."""
    try:
        ok = x > 0 and math.isfinite(x) and not isinstance(x, bool)
    except TypeError:
        ok = False
    if not ok:
        raise DomainError(f"{name} must be positive and finite, got {x}")


def check_nonnegative(name: str, x, error) -> None:
    """`error` unless x is a finite real number >= 0, not a bool."""
    try:
        ok = x >= 0 and math.isfinite(x) and not isinstance(x, bool)
    except TypeError:
        ok = False
    if not ok:
        raise error(f"{name} must be finite and >= 0, got {x}")
