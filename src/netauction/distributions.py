"""Bidder value distributions on [0, vbar] and derived auction quantities.

Three families are supported: uniform, normal, and exponential. The normal
and exponential families are truncated to [0, vbar] and renormalised so that
F(vbar) = 1 exactly; the untruncated tails carry at most 0.14% of mass at the
parameters used in the experiments, but renormalising keeps every identity
(quantile round-trips, pdf integrating to one) exact instead of approximate.

Sampling is inverse-cdf throughout: one uniform draw maps to one value draw,
which keeps Monte Carlo streams aligned across distributions.

``regularity_check`` probes the virtual value v - (1-F)/f of standard
auction theory on a fixed grid of 1024 steps.

``scipy.special`` is imported when the first truncated normal is built, so
that the uniform and exponential families, and every command that uses
only them, never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, SingularityError

__all__ = [
    "Uniform",
    "TruncatedNormal",
    "TruncatedExponential",
    "ValueDistribution",
    "RegularityReport",
    "regularity_check",
    "parse_distribution",
]


def _ret(x, scalar: bool):
    return float(x) if scalar else x


class ValueDistribution:
    """Common interface: cdf/pdf/quantile accept floats or numpy arrays."""

    vbar: float

    def cdf(self, v):
        raise NotImplementedError

    def pdf(self, v):
        raise NotImplementedError

    def quantile(self, p):
        raise NotImplementedError

    def _check_value(self, v) -> bool:
        """Validate support, return True when the input is scalar."""
        return _scalar_within(v, self.vbar, "value outside support")

    def _check_prob(self, p) -> bool:
        return _scalar_within(p, 1, "probability outside")


def _scalar_within(x, top, what: str) -> bool:
    """True when x is a scalar; DomainError when an element lies below 0 or
    above top (NaN passes). A Python scalar is compared directly, without
    the 0-d array and reductions an array input needs."""
    if isinstance(x, (float, int)):
        scalar, bad = True, x < 0.0 or x > top
    else:
        arr = np.asarray(x, dtype=float)
        scalar, bad = arr.ndim == 0, np.any(arr < 0.0) or np.any(arr > top)
    if bad:
        raise DomainError(f"{what} [0, {top}]")
    return scalar


@dataclass(frozen=True)
class Uniform(ValueDistribution):
    """Uniform values on [0, vbar]."""

    vbar: float = 100.0

    def __post_init__(self):
        if not (self.vbar > 0 and math.isfinite(self.vbar)):
            raise DomainError(f"vbar must be positive and finite, got {self.vbar}")

    def cdf(self, v):
        scalar = self._check_value(v)
        return _ret(np.asarray(v, dtype=float) / self.vbar, scalar)

    def pdf(self, v):
        scalar = self._check_value(v)
        out = np.full_like(np.asarray(v, dtype=float), 1.0 / self.vbar)
        return _ret(out, scalar)

    def quantile(self, p):
        scalar = self._check_prob(p)
        return _ret(np.asarray(p, dtype=float) * self.vbar, scalar)


@dataclass(frozen=True)
class TruncatedNormal(ValueDistribution):
    """Normal(mu, sigma) truncated to [0, vbar] and renormalised."""

    mu: float = 50.0
    sigma: float = 16.67
    vbar: float = 100.0

    def __post_init__(self):
        if not (self.vbar > 0 and math.isfinite(self.vbar)):
            raise DomainError(f"vbar must be positive and finite, got {self.vbar}")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")

        from scipy.special import ndtr

        # F(v) = (T(v) - T(0)) / (T(vbar) - T(0)), z = (v - mu) / sigma, with
        # T = Phi(z) for mu >= 0 and T = -Phi(-z) for mu < 0: T reads the
        # tail on the side of 0 away from mu, so T(0) is never a number near
        # 1 (or -1) that F's differences would cancel to a few bits
        side = -1.0 if self.mu < 0 else 1.0
        object.__setattr__(self, "_side", side)
        lo = side * float(ndtr(side * ((0.0 - self.mu) / self.sigma)))
        object.__setattr__(self, "_lo", lo)
        top = side * float(ndtr(side * ((self.vbar - self.mu) / self.sigma)))
        object.__setattr__(self, "_mass", top - lo)

    def cdf(self, v):
        from scipy.special import ndtr

        scalar = self._check_value(v)
        z = (np.asarray(v, dtype=float) - self.mu) / self.sigma
        out = (self._side * ndtr(self._side * z) - self._lo) / self._mass
        return _ret(np.clip(out, 0.0, 1.0), scalar)

    def pdf(self, v):
        scalar = self._check_value(v)
        z = (np.asarray(v, dtype=float) - self.mu) / self.sigma
        out = np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * self.sigma * self._mass)
        return _ret(out, scalar)

    def quantile(self, p):
        from scipy.special import ndtri

        scalar = self._check_prob(p)
        inner = self._lo + np.asarray(p, dtype=float) * self._mass
        out = self.mu + self.sigma * (self._side * ndtri(self._side * inner))
        return _ret(np.clip(out, 0.0, self.vbar), scalar)


@dataclass(frozen=True)
class TruncatedExponential(ValueDistribution):
    """Exponential(lam) truncated to [0, vbar] and renormalised."""

    lam: float = 0.08
    vbar: float = 100.0

    def __post_init__(self):
        if not (self.vbar > 0 and math.isfinite(self.vbar)):
            raise DomainError(f"vbar must be positive and finite, got {self.vbar}")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise DomainError(f"lambda must be positive and finite, got {self.lam}")
        # the untruncated mass of [0, vbar], through the same expm1 as cdf so
        # that cdf(vbar) is exactly 1.0
        object.__setattr__(self, "_mass", -float(np.expm1(-self.lam * self.vbar)))

    def cdf(self, v):
        scalar = self._check_value(v)
        out = -np.expm1(-self.lam * np.asarray(v, dtype=float)) / self._mass
        return _ret(np.clip(out, 0.0, 1.0), scalar)

    def pdf(self, v):
        scalar = self._check_value(v)
        out = self.lam * np.exp(-self.lam * np.asarray(v, dtype=float)) / self._mass
        return _ret(out, scalar)

    def quantile(self, p):
        scalar = self._check_prob(p)
        out = -np.log1p(-np.asarray(p, dtype=float) * self._mass) / self.lam
        return _ret(np.clip(out, 0.0, self.vbar), scalar)


@dataclass(frozen=True)
class RegularityReport:
    """Finite-difference check that the virtual value increases on a grid."""

    min_slope: float
    is_regular_on_grid: bool


def regularity_check(d: ValueDistribution) -> RegularityReport:
    """Probe monotonicity of the virtual value on the grid of 1024 equal
    steps over [0, vbar].

    The virtual value is evaluated on the whole grid with one cdf and one
    pdf call; a grid point where the pdf vanishes raises SingularityError,
    since the virtual value is undefined there. The report carries the
    smallest finite-difference slope found.
    """
    points = np.append(np.arange(1024) * (d.vbar / 1024), d.vbar)
    F, f = d.cdf(points), d.pdf(points)
    flat = np.flatnonzero(f <= 0.0)
    if flat.size:
        v = float(points[flat[0]])
        raise SingularityError(f"pdf vanishes at v={v}; virtual value undefined")
    psi = points - (1.0 - F) / f
    min_slope = float(np.min(np.diff(psi) / np.diff(points)))
    return RegularityReport(min_slope=min_slope, is_regular_on_grid=min_slope > 0.0)


# config strings look like "normal:mu=50,sigma=16.67,vbar=100"
_DIST_FIELDS = {
    "uniform": {"vbar"},
    "normal": {"mu", "sigma", "vbar"},
    "exp": {"lambda", "vbar"},
}


def parse_distribution(cfg: str) -> ValueDistribution:
    """Build a distribution from a config string.

    Accepted forms: ``uniform:vbar=100``, ``normal:mu=50,sigma=16.67,vbar=100``,
    ``exp:lambda=0.08,vbar=100``.
    """
    kind, sep, rest = cfg.strip().partition(":")
    kind = kind.strip().lower()
    if kind not in _DIST_FIELDS:
        raise ConfigError(f"unknown distribution kind {kind!r} in {cfg!r}")
    params: dict[str, float] = {}
    if sep:
        for item in rest.split(","):
            if not item.strip():
                continue
            key, eq, val = item.partition("=")
            key = key.strip().lower()
            if not eq or key not in _DIST_FIELDS[kind]:
                raise ConfigError(f"unexpected parameter {item.strip()!r} in {cfg!r}")
            if key in params:
                raise ConfigError(f"duplicate parameter {key!r} in {cfg!r}")
            try:
                params[key] = float(val)
            except ValueError:
                raise ConfigError(f"non-numeric value for {key!r} in {cfg!r}") from None
    missing = _DIST_FIELDS[kind] - set(params)
    if missing:
        raise ConfigError(f"missing parameters {sorted(missing)} in {cfg!r}")
    try:
        if kind == "uniform":
            return Uniform(vbar=params["vbar"])
        if kind == "normal":
            return TruncatedNormal(
                mu=params["mu"], sigma=params["sigma"], vbar=params["vbar"]
            )
        return TruncatedExponential(lam=params["lambda"], vbar=params["vbar"])
    except DomainError as exc:
        raise ConfigError(f"invalid parameters in {cfg!r}: {exc}") from None
