"""Expected-revenue formulas for the reserve-price diffusion auction.

Everything here is analytic: the Monte Carlo machinery lives elsewhere and
is tested against these functions. Expected revenue decomposes over the
branches of the seller's dominator tree; each branch of size k_x in a
market of n bidders contributes

    (k_x/n) * (vbar - r F^n(r)) - integral_r^vbar [(k_x/n) F^n - F^n + F^(n-k_x)] dv.

For uniform values the integrals collapse to closed forms, kept as a fast
path and as an independent cross-check of the quadrature route. Integration
is adaptive Simpson, run breadth-first on arrays: the integrals of every
distinct branch size advance together, one cdf call on all new midpoints
per level of the bisection tree, with the acceptance rule of the classic
recursive routine. The integrands are smooth powers of the cdf, and the
only kink sits exactly at the reserve, which is an interval endpoint here.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .distributions import Uniform, ValueDistribution
from .errors import DomainError, PropertyViolation, ValidationError
from .graphs import SubtreeProfile
from .reserve import gamma_uniform, subtree_optimal_reserve

__all__ = [
    "QuadratureSettings",
    "OrderingReport",
    "expected_subtree_revenue",
    "expected_total_revenue",
    "opt_upper_bound",
    "mys_lower_bound",
    "ratio_lower_bound",
    "worst_partition",
    "revenue_ordering_report",
    "write_revenue_csv",
]


@dataclass(frozen=True)
class QuadratureSettings:
    rel_tol: float = 1e-9
    max_depth: int = 40

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValidationError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {self.max_depth}")


def _adaptive_simpson(f, a: float, b: float, count: int, settings: QuadratureSettings | None):
    """Adaptive Simpson for `count` integrals over [a, b] at once.

    f(v, j) evaluates integrand j[i] at v[i] for arrays v and j. Each level
    of the bisection tree evaluates f once, on the new midpoints of every
    interval still open in any integral. The rule is the recursive one
    (Lyness, 1969): an interval is accepted when |left + right - whole| <=
    15 tol or at max_depth, its value is left + right + delta/15, and tol
    halves on each split, starting at rel_tol * max(|whole|, 1) per
    integral so near-zero integrals terminate. An interval whose estimate
    is NaN is accepted, so the NaN propagates instead of splitting down to
    max_depth. Accepted values are summed back up the tree pairwise, in the
    recursion's order.
    """
    settings = settings or QuadratureSettings()
    if a == b:
        return np.zeros(count)
    j = np.arange(count)
    m = 0.5 * (a + b)
    fa, fm, fb = f(np.repeat([a, m, b], count), np.tile(j, 3)).reshape(3, count)
    a, m, b = np.full(count, a), np.full(count, m), np.full(count, b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = settings.rel_tol * np.maximum(np.abs(whole), 1.0)
    levels = []  # (value where accepted, indices split) per tree level
    for depth in range(settings.max_depth, -1, -1):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(np.concatenate([lm, rm]), np.concatenate([j, j])).reshape(2, -1)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        split = np.flatnonzero(np.abs(delta) > 15.0 * tol) if depth > 0 else np.empty(0, int)
        levels.append((left + right + delta / 15.0, split))
        if split.size == 0:
            break

        def children(x, y):
            # the next level: left halves of the split intervals, then right
            return np.concatenate([x[split], y[split]])

        j = children(j, j)
        a, m, b = children(a, m), children(lm, rm), children(m, b)
        fa, fm, fb = children(fa, fm), children(flm, frm), children(fm, fb)
        whole, tol = children(left, right), children(0.5 * tol, 0.5 * tol)
    value = None
    for leaf, split in reversed(levels):
        if split.size:
            half = split.size
            leaf[split] = value[:half] + value[half:]
        value = leaf
    return value


def integrate(f, a: float, b: float, settings: QuadratureSettings | None = None) -> float:
    """Adaptive Simpson on [a, b] for an integrand f evaluated on arrays,
    relative tolerance with a floor of one money unit so near-zero
    integrals terminate."""
    value = _adaptive_simpson(lambda v, j: np.broadcast_to(f(v), v.shape), a, b, 1, settings)
    return float(value[0])


def _check_branch(kx: int, n: int) -> None:
    for name, val in (("kx", kx), ("n", n)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise DomainError(f"{name} must be an integer >= 1, got {val!r}")
    if kx > n:
        raise DomainError(f"kx must not exceed n, got kx={kx}, n={n}")


def _check_reserve(r: float, vbar: float) -> None:
    if not math.isfinite(r) or r < 0.0 or r > vbar:
        raise DomainError(f"reserve must lie in [0, {vbar}], got {r}")


def _subtree_closed_uniform(kx: int, n: int, vbar: float, r: float) -> float:
    t = r / vbar
    head = vbar * (1 + kx) / (n + 1) * (1.0 - t ** (n + 1))
    tail = vbar * (1.0 - t ** (n - kx + 1)) / (n - kx + 1)
    return head - tail


def _subtree_revenues(
    sizes, n: int, d: ValueDistribution, r: float, settings: QuadratureSettings | None, method: str
) -> list[float]:
    """Expected revenue from one branch of each size in `sizes`, all in a
    market of n bidders; every quadrature integral in one call."""
    for kx in sizes:
        _check_branch(kx, n)
    _check_reserve(r, d.vbar)
    if method not in ("auto", "closed", "quadrature"):
        raise ValidationError(f"unknown method {method!r}")
    if method == "closed" and not isinstance(d, Uniform):
        raise DomainError("closed form exists only for the uniform distribution")
    if method != "quadrature" and isinstance(d, Uniform):
        return [_subtree_closed_uniform(kx, n, d.vbar, r) for kx in sizes]
    c = np.array([kx / n for kx in sizes])
    gap = n - np.array(sizes)

    def integrand(v, j):
        # (k_x/n - 1) F^n + F^(n - k_x): the integrand sees v only through F
        F = d.cdf(v)
        return (c[j] - 1.0) * F**n + F ** gap[j]

    tails = _adaptive_simpson(integrand, r, d.vbar, len(sizes), settings).tolist()
    Fr_n = float(d.cdf(r)) ** n
    return [ci * (d.vbar - r * Fr_n) - tail for ci, tail in zip(c.tolist(), tails)]


def expected_subtree_revenue(
    kx: int,
    n: int,
    d: ValueDistribution,
    r: float,
    settings: QuadratureSettings | None = None,
    method: str = "auto",
) -> float:
    """Expected revenue the seller extracts from one branch of size kx.

    method: "auto" picks the uniform closed form when available, otherwise
    quadrature; "closed" and "quadrature" force a route.
    """
    return _subtree_revenues([kx], n, d, r, settings, method)[0]


def expected_total_revenue(
    profile: SubtreeProfile,
    d: ValueDistribution,
    r: float,
    settings: QuadratureSettings | None = None,
    method: str = "auto",
) -> float:
    """Expected revenue over the whole market: the sum over branches, with
    the integrals of all distinct branch sizes evaluated together."""
    if profile.n < 1:
        raise DomainError("total revenue needs a nonempty subtree profile")
    weights = sorted(Counter(profile.sizes).items())
    revenues = _subtree_revenues([k for k, _ in weights], profile.n, d, r, settings, method)
    return sum(count * rev for (_, count), rev in zip(weights, revenues))


def opt_upper_bound(
    n: int,
    d: ValueDistribution,
    settings: QuadratureSettings | None = None,
) -> float:
    """Revenue of the optimal direct auction run over all n bidders: the
    ceiling no diffusion mechanism can beat. Uniform closed form
    vbar(n-1)/(n+1) + vbar/(n+1)/2^n; otherwise evaluated at the Myerson
    reserve by quadrature.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    if isinstance(d, Uniform):
        return d.vbar * (n - 1) / (n + 1) + d.vbar / (n + 1) * 0.5**n
    rhat = subtree_optimal_reserve(1, d)

    def integrand(v):
        F = d.cdf(v)
        return n * F ** (n - 1) - (n - 1) * F**n

    return d.vbar - rhat * float(d.cdf(rhat)) ** n - integrate(integrand, rhat, d.vbar, settings)


def mys_lower_bound(
    rho: int,
    d: ValueDistribution,
    settings: QuadratureSettings | None = None,
) -> float:
    """Revenue of the optimal auction over only the seller's rho direct
    neighbors: the floor any diffusion mechanism should beat."""
    return opt_upper_bound(rho, d, settings)


def ratio_lower_bound(rho: int, kmin: int) -> float:
    """Guaranteed fraction of the optimal revenue at reserve gamma(kmin):
    1 - 1/(rho*kmin - kmin + 1). Degenerates to 1 - 1/rho at kmin=1 and to
    0 at rho=1."""
    for name, val in (("rho", rho), ("kmin", kmin)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise DomainError(f"{name} must be an integer >= 1, got {val!r}")
    return 1.0 - 1.0 / (rho * kmin - kmin + 1)


def worst_partition(n: int, m: int, kmin: int) -> tuple[int, ...]:
    """Branch-size split of n bidders into m branches (each >= kmin) that
    maximises sum k_x/(n-k_x+1), i.e. the worst case for the approximation
    ratio: m-1 branches at the minimum and one taking the rest."""
    for name, val in (("n", n), ("m", m), ("kmin", kmin)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise DomainError(f"{name} must be an integer >= 1, got {val!r}")
    if m * kmin > n:
        raise DomainError(
            f"infeasible split: {m} branches of at least {kmin} need more than {n} bidders"
        )
    return (kmin,) * (m - 1) + (n - (m - 1) * kmin,)


@dataclass(frozen=True)
class OrderingReport:
    """The proven revenue chain MYS < APX(vbar/2) <= APX(gamma) <= OPT,
    evaluated on one profile."""

    rho: int
    kmin: int
    gamma: float
    mys: float
    apx_at_half: float
    apx_at_gamma: float
    opt: float


def revenue_ordering_report(
    profile: SubtreeProfile,
    rho: int,
    d: ValueDistribution,
    kmin: int,
    settings: QuadratureSettings | None = None,
) -> OrderingReport:
    """Evaluate the revenue chain on a uniform-value market and verify it.

    The chain is proven for uniform values with kmin no larger than the
    smallest realised branch; violations raise rather than pass silently.
    """
    if not isinstance(d, Uniform):
        raise DomainError("the revenue ordering chain is proven for uniform values only")
    for name, val in (("rho", rho), ("kmin", kmin)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise DomainError(f"{name} must be an integer >= 1, got {val!r}")
    if profile.n <= rho:
        raise DomainError(f"the chain needs n > rho, got n={profile.n}, rho={rho}")
    if kmin > min(profile.sizes):
        raise DomainError(
            f"kmin={kmin} exceeds the smallest branch {min(profile.sizes)}; "
            "gamma would not be secure"
        )
    gamma = gamma_uniform(kmin, d.vbar)
    report = OrderingReport(
        rho=rho,
        kmin=kmin,
        gamma=gamma,
        mys=mys_lower_bound(rho, d, settings),
        apx_at_half=expected_total_revenue(profile, d, d.vbar / 2.0, settings),
        apx_at_gamma=expected_total_revenue(profile, d, gamma, settings),
        opt=opt_upper_bound(profile.n, d, settings),
    )
    slack = 1e-12 * d.vbar
    if not (
        report.mys < report.apx_at_half
        and report.apx_at_half <= report.apx_at_gamma + slack
        and report.apx_at_gamma <= report.opt + slack
    ):
        raise PropertyViolation(
            "revenue ordering chain failed: "
            f"MYS={report.mys!r}, APX(vbar/2)={report.apx_at_half!r}, "
            f"APX(gamma)={report.apx_at_gamma!r}, OPT={report.opt!r}"
        )
    return report


def write_revenue_csv(
    path,
    profile: SubtreeProfile,
    d: ValueDistribution,
    r_values,
    settings: QuadratureSettings | None = None,
) -> None:
    """One (sizes, r, analytic revenue) row per reserve, for plotting."""
    sizes = "+".join(str(k) for k in profile.sizes)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sizes", "r", "revenue"])
        for r in r_values:
            rev = expected_total_revenue(profile, d, float(r), settings)
            writer.writerow([sizes, repr(float(r)), repr(rev)])
