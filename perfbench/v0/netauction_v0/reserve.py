"""Reserve price selection.

Two families of reserve live here. The deployable one, gamma, depends only
on a prior estimate kmin of the smallest branch size the seller expects to
see, never on the reported profile, which is exactly what keeps the
mechanism incentive compatible. The analysis-only one, the global optimum
r_opt, reads the realised branch sizes and is known to break truthfulness;
it is exposed for study and for the counterexample tooling.

All roots are found by bisection. The subtree critical value phi can blow
up as the cdf approaches 0, so the default bracket stays a hair inside
(0, vbar) and bisection, unlike Newton steps, cannot escape it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .distributions import (
    Uniform,
    ValueDistribution,
    regularity_check,
    subtree_critical_value,
)
from .errors import ConfigError, DomainError, SolverError, ValidationError
from .graphs import SubtreeProfile

__all__ = [
    "ReservePolicy",
    "RootSolveSettings",
    "gamma_uniform",
    "gamma_general",
    "subtree_optimal_reserve",
    "global_optimal_reserve",
    "sup_gamma_x",
    "secure_global_bound",
    "resolve_reserve",
    "parse_policy",
]

_POLICY_KINDS = ("none", "fixed", "uniform_gamma", "general_gamma", "global_opt")


@dataclass(frozen=True)
class ReservePolicy:
    """How the seller picks r. global_opt is analysis-only (non-DSIC)."""

    kind: str
    r: float | None = None
    kmin: int | None = None

    def __post_init__(self):
        if self.kind not in _POLICY_KINDS:
            raise ValidationError(f"unknown policy kind {self.kind!r}")
        if self.kind == "fixed":
            if self.r is None or not math.isfinite(self.r) or self.r < 0.0:
                raise ValidationError(f"fixed policy needs a finite r >= 0, got {self.r}")
        elif self.r is not None:
            raise ValidationError(f"policy {self.kind!r} takes no fixed r")
        if self.kind in ("uniform_gamma", "general_gamma"):
            if not isinstance(self.kmin, int) or self.kmin < 1:
                raise ValidationError(f"policy {self.kind!r} needs integer kmin >= 1, got {self.kmin}")
        elif self.kmin is not None:
            raise ValidationError(f"policy {self.kind!r} takes no kmin")


@dataclass(frozen=True)
class RootSolveSettings:
    """Bisection controls; defaults resolve against the distribution's vbar."""

    abs_tol: float | None = None
    max_iter: int = 200
    bracket: tuple[float, float] | None = None

    def __post_init__(self):
        if self.abs_tol is not None and not self.abs_tol > 0.0:
            raise ValidationError(f"abs_tol must be > 0, got {self.abs_tol}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.bracket is not None:
            lo, hi = self.bracket
            if not (0.0 <= lo < hi):
                raise ValidationError(f"bracket needs 0 <= lo < hi, got {self.bracket}")

    def resolved(self, vbar: float) -> tuple[float, int, float, float]:
        tol = self.abs_tol if self.abs_tol is not None else 1e-10 * vbar
        if self.bracket is not None:
            lo, hi = self.bracket
            if hi > vbar:
                raise ValidationError(f"bracket {self.bracket} exceeds vbar={vbar}")
        else:
            eps = 1e-9 * vbar
            lo, hi = eps, vbar - eps
        return tol, self.max_iter, lo, hi


def _bisect(f, lo: float, hi: float, abs_tol: float, max_iter: int) -> float:
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise SolverError(
            f"no sign change on bracket [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= abs_tol:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_hi > 0.0):
            hi = mid
        else:
            lo = mid
    raise SolverError(
        f"bisection did not reach tolerance {abs_tol} on [{lo}, {hi}] "
        f"within {max_iter} iterations"
    )


def _check_count(name: str, value: int, minimum: int = 1) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_vbar(vbar: float) -> None:
    if not math.isfinite(vbar) or vbar <= 0.0:
        raise DomainError(f"vbar must be finite and > 0, got {vbar}")


def gamma_uniform(kmin: int, vbar: float) -> float:
    """Near-optimal DSIC-safe reserve for uniform values:
    vbar / (kmin+1)^(1/kmin). At kmin=1 this is the Myerson reserve vbar/2.
    """
    _check_count("kmin", kmin)
    _check_vbar(vbar)
    return vbar * (kmin + 1) ** (-1.0 / kmin)


def gamma_general(
    kmin: int,
    d: ValueDistribution,
    settings: RootSolveSettings | None = None,
) -> float:
    """Near-optimal reserve for a general regular distribution: the root of
    the subtree critical value phi(v; kmin)."""
    _check_count("kmin", kmin)
    settings = settings or RootSolveSettings()
    tol, max_iter, lo, hi = settings.resolved(d.vbar)
    return _bisect(
        lambda v: float(subtree_critical_value(d, v, kmin)), lo, hi, tol, max_iter
    )


def subtree_optimal_reserve(
    k: int,
    d: ValueDistribution,
    settings: RootSolveSettings | None = None,
) -> float:
    """Revenue-maximising reserve for one branch of k bidders."""
    if isinstance(d, Uniform):
        _check_count("k", k)
        return gamma_uniform(k, d.vbar)
    return gamma_general(k, d, settings)


def global_optimal_reserve(
    profile: SubtreeProfile,
    d: ValueDistribution,
    settings: RootSolveSettings | None = None,
) -> float:
    """Profile-dependent optimal reserve: the unique root of
    beta(r) = sum_x k_x * phi(r; k_x). Not DSIC-safe; analysis only."""
    if profile.n < 1:
        raise DomainError("global optimum needs a nonempty subtree profile")
    report = regularity_check(d)
    if not report.is_regular_on_grid:
        raise DomainError(
            "distribution failed the regularity check "
            f"(min virtual-value slope {report.min_slope:.3g} on a grid of "
            f"step {report.grid_step:.3g}); the optimum root may not be unique"
        )
    settings = settings or RootSolveSettings()
    tol, max_iter, lo, hi = settings.resolved(d.vbar)
    weights = sorted(Counter(profile.sizes).items())

    def beta(r: float) -> float:
        return sum(
            count * k * float(subtree_critical_value(d, r, k)) for k, count in weights
        )

    return _bisect(beta, lo, hi, tol, max_iter)


def sup_gamma_x(n: int, kx: int, vbar: float) -> float:
    """Largest reserve that still cannot hurt revenue from a branch of size
    kx in a market of n bidders: vbar * ((n+1)/((kx+1)(n-kx+1)))^(1/kx).
    Nondecreasing in kx and equal to vbar at kx=n.
    """
    _check_count("n", n)
    _check_count("kx", kx)
    _check_vbar(vbar)
    if kx > n:
        raise DomainError(f"kx must not exceed n, got kx={kx}, n={n}")
    return vbar * ((n + 1) / ((kx + 1) * (n - kx + 1))) ** (1.0 / kx)


def secure_global_bound(n: int, kmin: int, vbar: float) -> float:
    """Ceiling under which one global reserve is safe for every branch of
    size >= kmin; gamma_uniform(kmin, vbar) always sits below it."""
    return sup_gamma_x(n, kmin, vbar)


def resolve_reserve(
    policy: ReservePolicy,
    profile: SubtreeProfile | None,
    d: ValueDistribution,
    settings: RootSolveSettings | None = None,
) -> float:
    """Concrete reserve for a policy.

    Every kind except global_opt ignores the profile argument entirely, so
    the result cannot leak information about reported actions back into
    the price.
    """
    if policy.kind == "none":
        return 0.0
    if policy.kind == "fixed":
        if policy.r > d.vbar:
            raise DomainError(f"fixed reserve {policy.r} exceeds vbar={d.vbar}")
        return float(policy.r)
    if policy.kind == "uniform_gamma":
        return gamma_uniform(policy.kmin, d.vbar)
    if policy.kind == "general_gamma":
        return gamma_general(policy.kmin, d, settings)
    # global_opt
    if profile is None:
        raise ValidationError("global_opt policy needs a subtree profile to resolve")
    return global_optimal_reserve(profile, d, settings)


def parse_policy(text: str) -> ReservePolicy:
    """Parse `none | fixed:50 | ugamma:k=3 | ggamma:k=3 | ropt`."""
    body = text.strip()
    if body == "none":
        return ReservePolicy("none")
    if body == "ropt":
        return ReservePolicy("global_opt")
    kind, sep, arg = body.partition(":")
    if not sep or not arg:
        raise ConfigError(f"unknown reserve policy {text!r}")
    if kind == "fixed":
        try:
            r = float(arg)
        except ValueError:
            raise ConfigError(f"fixed reserve wants a number, got {arg!r}") from None
        try:
            return ReservePolicy("fixed", r=r)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from None
    if kind in ("ugamma", "ggamma"):
        key, eq, val = arg.partition("=")
        if key != "k" or not eq or not val.isdigit():
            raise ConfigError(f"{kind} wants k=<int>, got {arg!r}")
        mapped = "uniform_gamma" if kind == "ugamma" else "general_gamma"
        try:
            return ReservePolicy(mapped, kmin=int(val))
        except ValidationError as exc:
            raise ConfigError(str(exc)) from None
    raise ConfigError(f"unknown reserve policy {text!r}")
