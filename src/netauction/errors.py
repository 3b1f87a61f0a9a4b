"""Exception types shared across the package, and the argument rules that
raise them.

Errors are split by what went wrong rather than where: bad caller input
(validation), mathematically undefined requests (domain), failed numeric
searches (solver), and malformed external inputs (config strings, edge-list
files). Unknown-id lookups raise plain KeyError.

The argument rules are stated once here, each raising the class its caller
names: a count is an int or numpy integer of at least a floor, and an amount
a finite real number >= 0 (or > 0) and at most a bound if one is set. Neither
is a bool. So is the grammar of ``kind:key=value,...`` config strings.
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
    """Malformed configuration string (distribution, reserve policy, scenario)."""


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


def check_amount(name: str, x, error=DomainError, positive: bool = False, most=None) -> None:
    """`error` unless x is a finite real number >= 0, or > 0 if `positive`,
    and at most `most` if it is set; a bool is refused."""
    try:  # OverflowError: an int past the float range
        ok = (x > 0 if positive else x >= 0) and math.isfinite(x) and not isinstance(x, bool)
        ok = ok and (most is None or x <= most)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        rule = "be positive and finite" if positive else "be finite and >= 0"
        rule = rule if most is None else f"lie in [0, {most}]"
        raise error(f"{name} must {rule}, got {x!r}")


def config_kind(text: str) -> str:
    """The text before the first colon, without case or surrounding spaces."""
    return text.partition(":")[0].strip().lower()


def read_config(text: str, kinds: dict, what: str) -> tuple[str, dict[str, str] | str]:
    """The config_kind of a ``kind:key=value,...`` string and its raw values.
    ``kinds`` maps a kind to its keys, each to be given once, or to None if
    its one value is the whole text after the colon. Keys are read as kinds
    are, and blank items are skipped; ConfigError names ``what``."""
    kind, body = config_kind(text), text.partition(":")[2]
    if kind not in kinds:
        raise ConfigError(f"unknown {what} {kind!r} in {text!r}")
    keys = kinds[kind]
    if keys is None:
        return kind, body
    raw: dict[str, str] = {}
    for item in filter(str.strip, body.split(",")):
        key, eq, value = item.partition("=")
        key = key.strip().lower()
        if not eq or key not in keys:
            raise ConfigError(f"unexpected parameter {item.strip()!r} in {text!r}")
        if key in raw:
            raise ConfigError(f"duplicate parameter {key!r} in {text!r}")
        raw[key] = value
    if len(raw) < len(keys):
        raise ConfigError(f"missing parameters {[k for k in keys if k not in raw]} in {text!r}")
    return kind, raw


def config_number(name: str, raw: str, text: str, to=float):
    """raw as a float, or an int if `to` is int; else ConfigError naming
    `name` and the config string `text`."""
    try:
        return to(raw)
    except ValueError:
        noun = "an integer" if to is int else "a number"
        raise ConfigError(f"{name} must be {noun}, got {raw!r} in {text!r}") from None
