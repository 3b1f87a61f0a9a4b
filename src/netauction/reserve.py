"""Reserve price selection.

Two families of reserve live here. The deployable one, gamma, depends only
on a prior estimate kmin of the smallest branch size the seller expects to
see, never on the reported profile, which is exactly what keeps the
mechanism incentive compatible. The analysis-only one, the global optimum
r_opt, reads the realised branch sizes and is known to break truthfulness;
it is exposed for study and for the counterexample tooling.

All roots are found by bisection on the fixed bracket [1e-9 vbar,
vbar - 1e-9 vbar], a hair inside (0, vbar), which bisection, unlike Newton
steps, cannot escape; it stops once the bracket is 1e-10 vbar wide or after
200 halvings. The subtree critical value

    phi(v; k) = v - (1 - F^k) / (k f F^(k-1)) = v - h (1 - F^k) / ((1 - F) k F^(k-1))

is read through the family's inverse hazard h = (1 - F) / f, which stays
finite where the density underflows; where F is 1 in floating point phi is
v - h, and where F^(k-1) underflows near 0, as it does for k in the
hundreds, phi is -inf. Only its sign steers the bisection. The three
families have log-concave densities f, so the density k f F^(k-1) of the
highest of k values is log-concave too, phi increases in v, and each root
is unique (Bagnoli and Bergstrom, "Log-concave probability and its
applications", Economic Theory 26, 2005); the global optimum refuses any
other prior.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .distributions import Uniform, ValueDistribution, regularity_check
from .errors import ConfigError, DomainError, SolverError, ValidationError
from .errors import check_count, check_nonnegative, check_positive
from .graphs import SubtreeProfile

__all__ = [
    "ReservePolicy",
    "gamma_uniform",
    "gamma_general",
    "subtree_optimal_reserve",
    "global_optimal_reserve",
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
            check_nonnegative("fixed r", self.r, ValidationError)
        elif self.r is not None:
            raise ValidationError(f"policy {self.kind!r} takes no fixed r")
        if self.kind in ("uniform_gamma", "general_gamma"):
            object.__setattr__(self, "kmin", check_count("kmin", self.kmin))
        elif self.kmin is not None:
            raise ValidationError(f"policy {self.kind!r} takes no kmin")


def _bisect(f, vbar: float) -> float:
    """A sign change of f inside the fixed bracket, to 1e-10 vbar."""
    eps = 1e-9 * vbar
    lo, hi, abs_tol, max_iter = eps, vbar - eps, 1e-10 * vbar, 200
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


def gamma_uniform(kmin: int, vbar: float) -> float:
    """Near-optimal DSIC-safe reserve for uniform values:
    vbar / (kmin+1)^(1/kmin). At kmin=1 this is the Myerson reserve vbar/2.
    """
    kmin = check_count("kmin", kmin, error=DomainError)
    check_positive("vbar", vbar)
    return vbar * (kmin + 1) ** (-1.0 / kmin)


def gamma_general(kmin: int, d: ValueDistribution) -> float:
    """Near-optimal reserve for a general regular distribution: the root of
    the subtree critical value phi(v; kmin)."""
    kmin = check_count("kmin", kmin, error=DomainError)

    def phi(v: float) -> float:
        F = d.cdf(v)
        if F == 1.0:
            return v - d._hazard(v)
        denom = (1.0 - F) * kmin * F ** (kmin - 1)
        if denom == 0.0:
            return -math.inf
        return v - d._hazard(v) * (1.0 - F**kmin) / denom

    return _bisect(phi, d.vbar)


def subtree_optimal_reserve(k: int, d: ValueDistribution) -> float:
    """Revenue-maximising reserve for one branch of k bidders."""
    if isinstance(d, Uniform):
        return gamma_uniform(check_count("k", k, error=DomainError), d.vbar)
    return gamma_general(k, d)


def global_optimal_reserve(profile: SubtreeProfile, d: ValueDistribution) -> float:
    """Profile-dependent optimal reserve: the unique root of
    beta(r) = sum_x k_x * phi(r; k_x). Not DSIC-safe; analysis only."""
    if not regularity_check(d):
        raise DomainError(
            f"the global optimum needs a regular prior, and {type(d).__name__} is not "
            "one of the uniform, normal and exponential families; its root may not be unique"
        )
    weights = sorted(Counter(profile.sizes).items())
    ks = np.array([k for k, _ in weights])
    ks_less_1 = ks - 1
    mass = np.array([count * k for k, count in weights])

    def beta(r: float) -> float:
        # phi(r; k) for every distinct size at once, as in gamma_general: a
        # density term that underflows divides by 0 into phi = -inf
        F, h = d.cdf(r), d._hazard(r)
        ratio = 1.0 if F == 1.0 else (1.0 - F**ks) / ((1.0 - F) * ks * F**ks_less_1)
        # summed in size order, one term at a time, as a scalar loop would
        return sum((mass * (r - h * ratio)).tolist())

    with np.errstate(all="ignore"):
        return _bisect(beta, d.vbar)


def resolve_reserve(
    policy: ReservePolicy,
    profile: SubtreeProfile | None,
    d: ValueDistribution,
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
        return gamma_general(policy.kmin, d)
    # global_opt
    if profile is None:
        raise ValidationError("global_opt policy needs a subtree profile to resolve")
    return global_optimal_reserve(profile, d)


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
            fields = {"r": float(arg)}
        except ValueError:
            raise ConfigError(f"fixed reserve wants a number, got {arg!r}") from None
    elif kind in ("ugamma", "ggamma"):
        key, eq, val = arg.partition("=")
        if key != "k" or not eq or not val.isdigit():
            raise ConfigError(f"{kind} wants k=<int>, got {arg!r}")
        kind = "uniform_gamma" if kind == "ugamma" else "general_gamma"
        fields = {"kmin": int(val)}
    else:
        raise ConfigError(f"unknown reserve policy {text!r}")
    try:
        return ReservePolicy(kind, **fields)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None
