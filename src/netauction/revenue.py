"""Expected-revenue formulas for the reserve-price diffusion auction.

Everything here is analytic: the Monte Carlo machinery lives elsewhere and
is tested against these functions. Expected revenue decomposes over the
branches of the seller's dominator tree; each branch of size k_x in a
market of n bidders contributes

    (k_x/n) * (vbar - r F^n(r)) - integral_r^vbar [(k_x/n) F^n - F^n + F^(n-k_x)] dv.

For uniform values the integrals collapse to closed forms, kept as a fast
path and as an independent cross-check of the quadrature route. Integration
is adaptive Simpson, run breadth-first on arrays: many integrals advance
together, each over [its own lower bound, vbar], with one cdf call on all
new midpoints per level of the bisection tree, the acceptance rule of the
classic recursive routine, a fixed relative tolerance of 1e-9 and a depth
cap of 40. The integrals share no arithmetic, so each is bit for bit what a
call of its own would give. One call carries every (reserve, distinct
branch size) pair: a single reserve for `expected_total_revenue`, and a
whole grid for `write_revenue_csv`, cut into chunks of whole reserves of at
most _CAP_INTEGRALS integrals to bound the arrays each level holds. The
integrands are smooth powers of the cdf, and the only kink sits exactly at
the reserve, which is an interval endpoint here.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .distributions import Uniform, ValueDistribution
from .errors import DomainError, PropertyViolation, ValidationError
from .errors import check_amount, check_count, check_counts
from .graphs import SubtreeProfile
from .reserve import gamma_uniform, subtree_optimal_reserve

__all__ = [
    "OrderingReport",
    "expected_total_revenue",
    "opt_upper_bound",
    "mys_lower_bound",
    "ratio_lower_bound",
    "worst_partition",
    "revenue_ordering_report",
    "write_revenue_csv",
]


_REL_TOL = 1e-9
_MAX_DEPTH = 40
# Most integrals one quadrature call carries. A reserve sweep runs
# (reserve, branch size) pairs together in chunks of whole reserves up to
# this many, which bounds the open-interval arrays each tree level holds:
# on a 201-point grid over 73 distinct sizes, one unchunked call peaks at
# about 70 MB traced and is slower than 1,024-integral chunks (about 7 MB).
_CAP_INTEGRALS = 1024


def _adaptive_simpson(f, a, b: float, count: int):
    """Adaptive Simpson for `count` integrals, integral i over [a[i], b].

    a holds one lower bound per integral, or one scalar for all of them.
    f(v, j) evaluates integrand j[i] at v[i] for arrays v and j. Each level
    of the bisection tree evaluates f once, on the new midpoints of every
    interval still open in any integral. The rule is the recursive one
    (Lyness, 1969): an interval is accepted when |left + right - whole| <=
    15 tol or at depth _MAX_DEPTH, its value is left + right + delta/15, and
    tol halves on each split, starting at _REL_TOL * max(|whole|, 1) per
    integral so near-zero integrals terminate. An interval whose estimate
    is NaN is accepted, so the NaN propagates instead of splitting down to
    the depth cap. Accepted values are summed back up the tree pairwise, in
    the recursion's order.

    For one reserve a level works on at most a few hundred points, where
    numpy's fixed cost per call, not the arithmetic, sets its price. So a
    level lays out both halves of every open interval, left halves first,
    with one concatenation per array, runs f and the Simpson sums once on
    all of them, and takes the split intervals' halves as the next level
    with one gather per array: about 35 numpy calls besides f's.

    The integrals share no arithmetic, so each comes out bit for bit as a
    call on its own would give it, NaN included. An integral with a[i] == b
    is +0.0 and f never sees it.
    """
    a = np.full(count, float(a)) if np.ndim(a) == 0 else np.asarray(a, dtype=float)
    out = np.zeros(count)
    live = j = (a != b).nonzero()[0]
    if live.size == 0:
        return out
    a = a[live]
    b = np.full(live.size, float(b))
    m = 0.5 * (a + b)
    fa, fm, fb = f(np.concatenate([a, m, b]), np.concatenate([j, j, j])).reshape(3, -1)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = _REL_TOL * np.maximum(np.abs(whole), 1.0)
    levels = []  # (value where accepted, indices split) per tree level
    for depth in range(_MAX_DEPTH, -1, -1):
        # both halves of every open interval, left halves [a, m] first, then
        # right halves [m, b]; the split halves are the next level's intervals
        lo, hi, j = np.concatenate([a, m]), np.concatenate([m, b]), np.concatenate([j, j])
        mid = 0.5 * (lo + hi)
        fmid = f(mid, j)
        flo, fhi = np.concatenate([fa, fm]), np.concatenate([fm, fb])
        halves = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
        pair = halves[: a.size] + halves[a.size :]  # left + right
        delta = pair - whole
        split = (np.abs(delta) > 15.0 * tol).nonzero()[0] if depth > 0 else np.empty(0, int)
        levels.append((pair + delta / 15.0, split))
        if split.size == 0:
            break
        kids = np.concatenate([split, split + a.size])
        a, m, b, j, whole = lo[kids], mid[kids], hi[kids], j[kids], halves[kids]
        fa, fm, fb = flo[kids], fmid[kids], fhi[kids]
        halved = 0.5 * tol[split]
        tol = np.concatenate([halved, halved])
    value = None
    for leaf, split in reversed(levels):
        if split.size:
            half = split.size
            leaf[split] = value[:half] + value[half:]
        value = leaf
    out[live] = value
    return out


def _subtree_closed_uniform(kx: int, n: int, vbar: float, r: float) -> float:
    t = r / vbar
    head = vbar * (1 + kx) / (n + 1) * (1.0 - t ** (n + 1))
    tail = vbar * (1.0 - t ** (n - kx + 1)) / (n - kx + 1)
    return head - tail


def _subtree_revenues(
    sizes, n: int, d: ValueDistribution, reserves, method: str
) -> list[list[float]]:
    """Expected revenue from one branch of each size in `sizes`, all in a
    market of n bidders: one row per reserve in `reserves`, one column per
    size, with the quadrature integrals of every (reserve, size) pair in one
    call."""
    sizes = check_counts("kx", sizes, error=DomainError)
    n = check_count("n", n, error=DomainError)
    if max(sizes) > n:
        raise DomainError(f"kx must not exceed n, got kx={max(sizes)}, n={n}")
    for r in reserves:
        check_amount("reserve", r, most=d.vbar)
    if method not in ("auto", "closed", "quadrature"):
        raise ValidationError(f"unknown method {method!r}")
    if method == "closed" and not isinstance(d, Uniform):
        raise DomainError("closed form exists only for the uniform distribution")
    if method != "quadrature" and isinstance(d, Uniform):
        return [[_subtree_closed_uniform(kx, n, d.vbar, r) for kx in sizes] for r in reserves]
    c = [kx / n for kx in sizes]
    # integral i is pair (reserve i // len(sizes), size i % len(sizes))
    coef = np.concatenate([np.array(c) - 1.0] * len(reserves))
    # float exponents: an integer array is cast to them on every call
    gap = np.concatenate([n - np.array(sizes, dtype=float)] * len(reserves))

    def integrand(v, j):
        # (k_x/n - 1) F^n + F^(n - k_x): the integrand sees v only through F
        F = d.cdf(v)
        return coef[j] * F**n + F ** gap[j]

    lower = np.repeat(reserves, len(sizes))
    tails = _adaptive_simpson(integrand, lower, d.vbar, lower.size)
    tails = tails.reshape(len(reserves), len(sizes)).tolist()
    Fr = d.cdf(np.array(reserves, dtype=float)).tolist()
    return [
        [ci * (d.vbar - r * Fr_r**n) - tail for ci, tail in zip(c, row)]
        for r, Fr_r, row in zip(reserves, Fr, tails)
    ]


def _total_revenues(
    profile: SubtreeProfile, d: ValueDistribution, reserves, method: str = "auto"
) -> list[float]:
    """Expected total revenue at each reserve: the sum over branches, with
    whole reserves chunked so that no quadrature call carries more than
    _CAP_INTEGRALS integrals (or one reserve's, when that is more)."""
    weights = sorted(Counter(profile.sizes).items())
    sizes = [k for k, _ in weights]
    step = max(1, _CAP_INTEGRALS // len(sizes))
    totals = []
    for i in range(0, len(reserves), step):
        for row in _subtree_revenues(sizes, profile.n, d, reserves[i : i + step], method):
            totals.append(sum(count * rev for (_, count), rev in zip(weights, row)))
    return totals


def expected_total_revenue(
    profile: SubtreeProfile, d: ValueDistribution, r: float, method: str = "auto"
) -> float:
    """Expected revenue over the whole market: the sum over branches, with
    the integrals of all distinct branch sizes evaluated together.

    method: "auto" picks the uniform closed form when available, otherwise
    quadrature; "closed" and "quadrature" force a route.
    """
    return _total_revenues(profile, d, [r], method)[0]


def opt_upper_bound(n: int, d: ValueDistribution) -> float:
    """Revenue of the optimal direct auction run over all n bidders: the
    ceiling no diffusion mechanism can beat. It is the revenue of the star
    network, n singleton branches, at the Myerson reserve."""
    n, rhat = check_count("n", n, error=DomainError), subtree_optimal_reserve(1, d)
    return n * _subtree_revenues([1], n, d, [rhat], "auto")[0][0]


def mys_lower_bound(rho: int, d: ValueDistribution) -> float:
    """Revenue of the optimal auction over only the seller's rho direct
    neighbors: the floor any diffusion mechanism should beat."""
    return opt_upper_bound(rho, d)


def ratio_lower_bound(rho: int, kmin: int) -> float:
    """Guaranteed fraction of the optimal revenue at reserve gamma(kmin):
    1 - 1/(rho*kmin - kmin + 1). Degenerates to 1 - 1/rho at kmin=1 and to
    0 at rho=1."""
    rho = check_count("rho", rho, error=DomainError)
    kmin = check_count("kmin", kmin, error=DomainError)
    return 1.0 - 1.0 / (rho * kmin - kmin + 1)


def worst_partition(n: int, m: int, kmin: int) -> tuple[int, ...]:
    """Branch-size split of n bidders into m branches (each >= kmin) that
    maximises sum k_x/(n-k_x+1), i.e. the worst case for the approximation
    ratio: m-1 branches at the minimum and one taking the rest."""
    n = check_count("n", n, error=DomainError)
    m = check_count("m", m, error=DomainError)
    kmin = check_count("kmin", kmin, error=DomainError)
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
    profile: SubtreeProfile, rho: int, d: ValueDistribution, kmin: int
) -> OrderingReport:
    """Evaluate the revenue chain on a uniform-value market and verify it.

    The chain is proven for uniform values with kmin no larger than the
    smallest realised branch; violations raise rather than pass silently.
    """
    if not isinstance(d, Uniform):
        raise DomainError("the revenue ordering chain is proven for uniform values only")
    rho = check_count("rho", rho, error=DomainError)
    kmin = check_count("kmin", kmin, error=DomainError)
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
        mys=mys_lower_bound(rho, d),
        apx_at_half=expected_total_revenue(profile, d, d.vbar / 2.0),
        apx_at_gamma=expected_total_revenue(profile, d, gamma),
        opt=opt_upper_bound(profile.n, d),
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
    path, profile: SubtreeProfile, d: ValueDistribution, r_values, method: str = "auto"
) -> list[float]:
    """One (sizes, r, analytic revenue) row per reserve, for plotting, by
    ``expected_total_revenue``'s ``method``; returns the revenues in row order.

    The whole grid is one quadrature pass (chunked at _CAP_INTEGRALS), and
    every reserve is checked and every revenue computed before the file is
    opened, so a reserve outside [0, vbar] leaves no file behind.
    """
    reserves = [float(r) for r in r_values]
    revenues = _total_revenues(profile, d, reserves, method)
    sizes = "+".join(str(k) for k in profile.sizes)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sizes", "r", "revenue"])
        writer.writerows([sizes, repr(r), repr(rev)] for r, rev in zip(reserves, revenues))
    return revenues
