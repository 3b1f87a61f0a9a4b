"""Bidder value distributions on [0, vbar] and derived auction quantities.

Three families are supported: uniform, normal, and exponential. The normal
and exponential families are truncated to [0, vbar] and renormalised so that
F(vbar) = 1 exactly; the untruncated tails carry at most 0.14% of mass at the
parameters used in the experiments, but renormalising keeps every identity
(quantile round-trips, pdf integrating to one) exact instead of approximate.

Sampling is inverse-cdf throughout: one uniform draw maps to one value draw,
which keeps Monte Carlo streams aligned across distributions.

Each family also gives its inverse hazard h(v) = (1 - F(v)) / f(v) in a
closed form that takes no 1 - F near 1 and divides by no density that
underflows; the reserve solvers read the virtual value v - h(v) through
it. All three densities are log-concave, so h decreases and the virtual
value increases on [0, vbar]: every prior of these families is regular
(Bagnoli and Bergstrom, "Log-concave probability and its applications",
Economic Theory 26, 2005), and ``regularity_check`` answers by family.

``scipy.special`` is imported when the first truncated normal is built, so
that the uniform and exponential families, and every command that uses
only them, never load it.

A scalar input (a Python or numpy scalar, or a 0-d array) runs through the
same formula as an array but as a Python float, with no 0-d arrays and no
array clip, and comes back as a Python float: the reserve solvers make two
such calls per bisection step. Its result is, to the bit, the
element a one-element array gives. So the scalar path still calls the
ufuncs an array call uses (``np.exp``, ``np.expm1``, ``np.log1p``,
``ndtr``, ``ndtri``, ``erfcx``): ``math.exp`` and Python's ``**`` round differently
from ``np.exp`` and ``np.power`` on a few percent of inputs.

An array input is range-checked by two NaN-skipping reductions
(``np.fmin.reduce`` and ``np.fmax.reduce``) and clipped through its
``clip`` method. The quadrature calls ``cdf`` once per tree level on a few
hundred points, where numpy's fixed cost per call, not the arithmetic,
sets the price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, check_positive

__all__ = [
    "Uniform",
    "TruncatedNormal",
    "TruncatedExponential",
    "ValueDistribution",
    "regularity_check",
    "parse_distribution",
]


class ValueDistribution:
    """Common interface: cdf/pdf/quantile accept floats or numpy arrays."""

    vbar: float

    def cdf(self, v):
        raise NotImplementedError

    def pdf(self, v):
        raise NotImplementedError

    def quantile(self, p):
        raise NotImplementedError

    def _hazard(self, v):
        """The inverse hazard (1 - cdf(v)) / pdf(v)."""
        raise NotImplementedError

    def _check_value(self, v):
        """v as a Python float or a float array, checked to lie in the support."""
        return _within(v, self.vbar, "value outside support")

    def _check_prob(self, p):
        return _within(p, 1, "probability outside")


def _within(x, top, what: str):
    """x as a Python float when it is a scalar and as a float array
    otherwise; DomainError when an element lies below 0 or above top (NaN
    passes). A Python scalar is compared directly, without the 0-d array
    and reductions an array input needs. An array is checked by its least
    and greatest element, through the NaN-skipping ``fmin``/``fmax``
    reductions started at 0 and top, so that NaN and the empty array pass."""
    if isinstance(x, (float, int)):
        if x < 0.0 or x > top:
            raise DomainError(f"{what} [0, {top}]")
        return float(x)
    arr = np.asarray(x, dtype=float)
    if (
        np.fmin.reduce(arr, axis=None, initial=0.0) < 0.0
        or np.fmax.reduce(arr, axis=None, initial=top) > top
    ):
        raise DomainError(f"{what} [0, {top}]")
    return float(arr) if arr.ndim == 0 else arr


def _clip(x, top, bottom=0.0):
    """x clipped to [bottom, top], NaN and -0.0 kept: an array through its
    ``clip`` method, the ufunc ``np.clip`` calls without that function's
    wrapper, and a scalar as a Python float."""
    if isinstance(x, np.ndarray):
        return x.clip(bottom, top)
    x = float(x)
    return float(bottom) if x < bottom else float(top) if x > top else x


def _float(x):
    """A ufunc's scalar result as a Python float; arrays pass through."""
    return x if isinstance(x, np.ndarray) else float(x)


@dataclass(frozen=True)
class Uniform(ValueDistribution):
    """Uniform values on [0, vbar]."""

    vbar: float = 100.0

    def __post_init__(self):
        check_positive("vbar", self.vbar)

    def cdf(self, v):
        return self._check_value(v) / self.vbar

    def pdf(self, v):
        # v * 0.0 is 0.0 on the support and keeps a NaN
        return self._check_value(v) * 0.0 + 1.0 / self.vbar

    def quantile(self, p):
        return self._check_prob(p) * self.vbar

    def _hazard(self, v):
        return self.vbar - self._check_value(v)


@dataclass(frozen=True)
class TruncatedNormal(ValueDistribution):
    """Normal(mu, sigma) truncated to [0, vbar] and renormalised."""

    mu: float = 50.0
    sigma: float = 16.67
    vbar: float = 100.0

    def __post_init__(self):
        check_positive("vbar", self.vbar)
        check_positive("sigma", self.sigma)
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")

        from scipy.special import erfcx, ndtr, ndtri

        # bound here, so that a call pays no import statement
        object.__setattr__(self, "_ndtr", ndtr)
        object.__setattr__(self, "_ndtri", ndtri)
        object.__setattr__(self, "_erfcx", erfcx)
        # F(v) = (T(v) - T(0)) / (T(vbar) - T(0)), z = (v - mu) / sigma, with
        # T = Phi(z) for mu >= 0 and T = -Phi(-z) for mu < 0: T reads the
        # tail on the side of 0 away from mu, so T(0) is never a number near
        # 1 (or -1) that F's differences would cancel to a few bits
        side = -1.0 if self.mu < 0 else 1.0
        object.__setattr__(self, "_side", side)
        lo = side * float(ndtr(side * ((0.0 - self.mu) / self.sigma)))
        object.__setattr__(self, "_lo", lo)
        top = side * float(ndtr(side * ((self.vbar - self.mu) / self.sigma)))
        mass = top - lo
        if not (mass > 0 and math.isfinite(mass)):
            # every cdf, pdf and quantile would divide by it
            raise DomainError(
                f"normal(mu={self.mu}, sigma={self.sigma}) has no mass on [0, {self.vbar}] "
                f"in floating point"
            )
        object.__setattr__(self, "_mass", mass)
        # the inverse hazard's constants, on the side of mu that vbar lies on
        hazard_side = 1.0 if self.mu <= self.vbar else -1.0
        z_top = (self.vbar - self.mu) / self.sigma
        object.__setattr__(self, "_z_top", z_top)
        object.__setattr__(self, "_erfcx_arg", hazard_side * math.sqrt(0.5))
        object.__setattr__(self, "_erfcx_top", float(erfcx(self._erfcx_arg * z_top)))
        object.__setattr__(self, "_hazard_scale", hazard_side * self.sigma * math.sqrt(0.5 * math.pi))

    def cdf(self, v):
        z = (self._check_value(v) - self.mu) / self.sigma
        return _clip((self._side * self._ndtr(self._side * z) - self._lo) / self._mass, 1.0)

    def pdf(self, v):
        z = (self._check_value(v) - self.mu) / self.sigma
        scale = math.sqrt(2.0 * math.pi) * self.sigma * self._mass
        return _float(np.exp(-0.5 * z * z) / scale)

    def quantile(self, p):
        inner = self._lo + self._check_prob(p) * self._mass
        out = self.mu + self.sigma * (self._side * self._ndtri(self._side * inner))
        return _clip(out, self.vbar)

    def _hazard(self, v):
        # h = s sigma [M(s z) - e^((z^2 - z_top^2)/2) M(s z_top)], with M(x) =
        # sqrt(pi/2) erfcx(x/sqrt(2)) the Mills ratio and s = 1 for mu <= vbar
        # and -1 above: read on the side of mu that vbar lies on, neither
        # term is a tail near 1. The exponent is capped short of overflow,
        # which it passes only where h exceeds 1e300 sigma; below the cap the
        # product stays finite, since M(s z_top) <= M(0), so no inf - inf.
        z = (self._check_value(v) - self.mu) / self.sigma
        z_top = self._z_top
        grow = np.exp(_clip((z - z_top) * (z + z_top) * 0.5, 709.0, -math.inf))
        gap = _float(self._erfcx(self._erfcx_arg * z) - grow * self._erfcx_top)
        return self._hazard_scale * gap


@dataclass(frozen=True)
class TruncatedExponential(ValueDistribution):
    """Exponential(lam) truncated to [0, vbar] and renormalised."""

    lam: float = 0.08
    vbar: float = 100.0

    def __post_init__(self):
        check_positive("vbar", self.vbar)
        check_positive("lambda", self.lam)
        # the untruncated mass of [0, vbar], through the same expm1 as cdf so
        # that cdf(vbar) is exactly 1.0
        object.__setattr__(self, "_mass", -float(np.expm1(-self.lam * self.vbar)))

    def cdf(self, v):
        return _clip(-np.expm1(-self.lam * self._check_value(v)) / self._mass, 1.0)

    def pdf(self, v):
        return _float(self.lam * np.exp(-self.lam * self._check_value(v)) / self._mass)

    def quantile(self, p):
        return _clip(-np.log1p(-self._check_prob(p) * self._mass) / self.lam, self.vbar)

    def _hazard(self, v):
        return _float(-np.expm1(-self.lam * (self.vbar - self._check_value(v))) / self.lam)


def regularity_check(d: ValueDistribution) -> bool:
    """True when d is a uniform, truncated normal or truncated exponential
    prior: their log-concave densities make the virtual value increase on
    all of [0, vbar]. Any other prior is not known to be regular."""
    return isinstance(d, (Uniform, TruncatedNormal, TruncatedExponential))


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
