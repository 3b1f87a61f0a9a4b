"""Exception types shared across the package.

Errors are split by what went wrong rather than where: bad caller input
(validation), mathematically undefined requests (domain), failed numeric
searches (solver), and malformed external inputs (config strings, edge-list
files). Unknown-id lookups raise plain KeyError.
"""


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
