"""Reserve policy tests: closed forms, root solving, global optimization."""

import math
import warnings

import numpy as np
import pytest

from helpers import (
    first_sign_change,
    slow_gamma_general,
    slow_global_optimal_reserve,
    subtree_critical_value,
    sup_gamma_x,
)
from netauction.distributions import (
    TruncatedExponential,
    TruncatedNormal,
    Uniform,
)
from netauction.errors import (
    ConfigError,
    DomainError,
    SolverError,
    ValidationError,
)
from netauction.graphs import SubtreeProfile
from netauction.reserve import (
    ReservePolicy,
    _bisect,
    gamma_general,
    gamma_uniform,
    global_optimal_reserve,
    parse_policy,
    resolve_reserve,
    subtree_optimal_reserve,
)

UNI = Uniform(vbar=100.0)
NORM = TruncatedNormal(mu=50.0, sigma=16.67, vbar=100.0)
EXPD = TruncatedExponential(lam=0.08, vbar=100.0)

# independently computed roots of the k=1 virtual value (fine grid scan
# plus bisection in scipy, frozen here)
MYERSON_NORMAL = 38.900871962018634
MYERSON_EXP = 12.488611855345265


def grid_scan_root(f, lo, hi, points=2_000_001):
    """Sign-change bracketing on a dense grid, then bisection refinement."""
    xs = np.linspace(lo, hi, points)
    ys = np.array([f(x) for x in xs])
    idx = int(np.flatnonzero(np.diff(np.sign(ys)) > 0)[0])
    a, b = xs[idx], xs[idx + 1]
    for _ in range(80):
        m = 0.5 * (a + b)
        if f(m) < 0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


class TestGammaUniform:
    def test_closed_form_values(self):
        assert gamma_uniform(1, 100.0) == pytest.approx(50.0, abs=1e-12)
        assert gamma_uniform(2, 100.0) == pytest.approx(57.73502691896258, abs=1e-9)
        assert gamma_uniform(3, 100.0) == pytest.approx(62.996052494743665, abs=1e-9)

    def test_scales_with_vbar(self):
        assert gamma_uniform(2, 1.0) * 100.0 == pytest.approx(
            gamma_uniform(2, 100.0), rel=1e-12
        )

    def test_monotone_in_kmin(self):
        vals = [gamma_uniform(k, 100.0) for k in range(1, 12)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 100.0

    def test_validation(self):
        with pytest.raises(DomainError):
            gamma_uniform(0, 100.0)
        with pytest.raises(DomainError):
            gamma_uniform(2, -1.0)


class TestGammaGeneral:
    def test_uniform_root_matches_closed_form(self):
        for k in range(1, 7):
            assert gamma_general(k, UNI) == pytest.approx(
                gamma_uniform(k, 100.0), abs=1e-7
            )

    def test_normal_myerson_root(self):
        got = gamma_general(1, NORM)
        assert got == pytest.approx(MYERSON_NORMAL, abs=1e-6)
        # independent re-derivation by grid scan over the virtual value
        ref = grid_scan_root(
            lambda v: subtree_critical_value(NORM, v, 1), 1e-6, 100.0 - 1e-6,
            points=20_001,
        )
        assert got == pytest.approx(ref, abs=1e-6)

    def test_exponential_myerson_root(self):
        got = gamma_general(1, EXPD)
        assert got == pytest.approx(MYERSON_EXP, abs=1e-6)
        ref = grid_scan_root(
            lambda v: subtree_critical_value(EXPD, v, 1), 1e-6, 100.0 - 1e-6,
            points=20_001,
        )
        assert got == pytest.approx(ref, abs=1e-6)

    def test_root_is_actually_a_root(self):
        for d in (UNI, NORM, EXPD):
            for k in (1, 2, 4):
                r = gamma_general(k, d)
                assert abs(subtree_critical_value(d, r, k)) < 1e-5

    def test_monotone_in_k(self):
        for d in (UNI, NORM, EXPD):
            vals = [gamma_general(k, d) for k in range(1, 9)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_custom_bracket_without_sign_change(self):
        # the fixed bracket is [1e-9 vbar, vbar - 1e-9 vbar]; a function
        # positive on all of it has no root there
        with pytest.raises(SolverError) as err:
            _bisect(lambda v: v + 1.0, 100.0)
        # diagnostics carry both ends of the bracket and the function values
        lo, hi = 1e-9 * 100.0, 100.0 - 1e-9 * 100.0
        assert f"[{lo}, {hi}]" in str(err.value)


class TestLargeGroups:
    """Branches of hundreds of bidders: F^(k-1) underflows near 0, where phi
    itself is undefined, and the solvers still find the root."""

    @staticmethod
    def scaled_phi(d, v, k):
        F = d.cdf(v)
        return v * k * d.pdf(v) * F ** (k - 1) - (1.0 - F**k)

    @pytest.mark.parametrize("k", [60, 200, 1000])
    @pytest.mark.parametrize("d", [UNI, NORM, EXPD], ids=["uniform", "normal", "exp"])
    def test_gamma_general_brackets_a_root(self, d, k):
        g = gamma_general(k, d)
        step = 1e-7 * d.vbar
        assert 0.0 < g - step and g + step < d.vbar
        assert self.scaled_phi(d, g - step, k) <= 0.0 <= self.scaled_phi(d, g + step, k)

    def test_uniform_matches_closed_form(self):
        for k in (60, 200, 1000):
            assert gamma_general(k, UNI) == pytest.approx(gamma_uniform(k, 100.0), abs=1e-7)

    def test_global_opt_with_a_210_bidder_branch(self):
        prof = SubtreeProfile.from_sizes((210, 12, 3, 1, 1))
        for d in (NORM, EXPD):
            r = global_optimal_reserve(prof, d)
            step = 1e-7 * d.vbar

            def beta(v):
                return sum(k * subtree_critical_value(d, v, k) for k in prof.sizes)

            assert 0.0 < r < d.vbar
            assert beta(r - step) <= 0.0 <= beta(r + step)


def _scan_priors():
    """The accepted priors of a scan over normal mu / vbar in [-1.5, 2.5],
    sigma / vbar in [0.002, 10] and exponential lambda vbar in [1e-4, 3000],
    for vbar 1 and 100."""
    priors = []
    for vbar in (1.0, 100.0):
        for mu in np.linspace(-1.5, 2.5, 41) * vbar:
            for sigma in np.geomspace(0.002, 10.0, 40) * vbar:
                try:
                    priors.append(TruncatedNormal(mu=float(mu), sigma=float(sigma), vbar=vbar))
                except DomainError:
                    pass  # no mass on [0, vbar]
        for lam_vbar in np.geomspace(1e-4, 3000.0, 60):
            priors.append(TruncatedExponential(lam=float(lam_vbar) / vbar, vbar=vbar))
    return priors


class TestPriorScan:
    """gamma on every prior of the scan, narrow ones whose density
    underflows on part of the support included, lies in the first step of
    a 4,001-point grid across which v - (1 - F^k) / (k f F^(k-1)), read
    straight off the cdf and pdf, goes from negative to 0 or above; and
    the solver raises no RuntimeWarning."""

    @pytest.mark.parametrize("k", [1, 2, 5, 60])
    def test_gamma_general_in_the_first_sign_change(self, k):
        priors = _scan_priors()
        assert len(priors) == 2780
        for d in priors:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                g = gamma_general(k, d)
            lo, hi = first_sign_change(d, k)
            slack = 1e-9 * d.vbar
            assert lo - slack <= g <= hi + slack, (d, k, g)


class TestSubtreeOptimalReserve:
    def test_uniform_dispatches_to_closed_form(self):
        assert subtree_optimal_reserve(4, UNI) == pytest.approx(
            100.0 / 5.0 ** 0.25, abs=1e-9
        )
        assert subtree_optimal_reserve(1, UNI) == 50.0

    def test_general_distributions(self):
        assert subtree_optimal_reserve(1, NORM) == pytest.approx(
            MYERSON_NORMAL, abs=1e-6
        )
        assert subtree_optimal_reserve(1, EXPD) == pytest.approx(
            MYERSON_EXP, abs=1e-6
        )


class TestGlobalOptimalReserve:
    def test_three_pair_profile(self):
        d = Uniform(vbar=1.0)
        prof = SubtreeProfile.from_sizes((2, 2, 2))
        assert global_optimal_reserve(prof, d) == pytest.approx(
            0.5773502691896257, abs=1e-7
        )

    def test_withheld_profile(self):
        d = Uniform(vbar=1.0)
        prof = SubtreeProfile.from_sizes((2, 2, 1))
        assert global_optimal_reserve(prof, d) == pytest.approx(
            0.5663911092686593, abs=1e-7
        )

    def test_single_branch_equals_subtree_reserve(self):
        for d in (UNI, NORM, EXPD):
            prof = SubtreeProfile.from_sizes((4,))
            assert global_optimal_reserve(prof, d) == pytest.approx(
                subtree_optimal_reserve(4, d), abs=1e-6
            )

    def test_uniform_stationarity_identity(self):
        # at the optimum, sum over branches of (vbar/r)^k equals m + n
        rng = np.random.default_rng(3)
        for _ in range(25):
            sizes = tuple(int(k) for k in rng.integers(1, 7, rng.integers(1, 6)))
            prof = SubtreeProfile.from_sizes(sizes)
            r = global_optimal_reserve(prof, UNI)
            lhs = sum((100.0 / r) ** k for k in sizes)
            assert lhs == pytest.approx(prof.m + prof.n, abs=1e-5)

    def test_classic_two_branch_profile(self):
        prof = SubtreeProfile.from_sizes((3, 6))
        assert global_optimal_reserve(prof, UNI) == pytest.approx(
            70.49800681940653, abs=1e-6
        )

    def test_aggregate_curve_brackets_a_single_root(self):
        # the solver's objective sum_x k_x * phi(r; k_x) changes sign
        # exactly once for the regular experiment families
        for d in (UNI, NORM, EXPD):
            prof = SubtreeProfile.from_sizes((2, 3))
            r = global_optimal_reserve(prof, d)
            assert 0.0 < r < 100.0

            def beta(v):
                return sum(k * subtree_critical_value(d, v, k) for k in prof.sizes)

            grid = np.linspace(1e-6, 100.0 - 1e-6, 512)
            signs = np.sign([beta(v) for v in grid])
            flips = np.flatnonzero(np.diff(signs))
            assert len(flips) == 1
            assert grid[flips[0]] <= r <= grid[flips[0] + 1]
            assert beta(r * 0.98) < 0 < beta(min(r * 1.02, 100.0 - 1e-6))

    def test_gamma_floor_holds_on_random_profiles(self):
        # network-optimal reserve never undercuts the per-branch gamma of
        # the smallest branch
        rng = np.random.default_rng(11)
        for d in (UNI, NORM, EXPD):
            for _ in range(30):
                sizes = tuple(int(k) for k in rng.integers(1, 7, rng.integers(1, 6)))
                prof = SubtreeProfile.from_sizes(sizes)
                r = global_optimal_reserve(prof, d)
                kmin = min(sizes)
                assert r >= gamma_general(kmin, d) - 1e-6

    def test_gamma_ceiling_at_largest_branch(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            sizes = tuple(int(k) for k in rng.integers(1, 7, rng.integers(1, 6)))
            prof = SubtreeProfile.from_sizes(sizes)
            r = global_optimal_reserve(prof, UNI)
            assert r <= gamma_uniform(max(sizes), 100.0) + 1e-6


def _random_priors(rng, count):
    priors = [UNI, NORM, EXPD]
    for _ in range(count):
        vbar = float(rng.choice([1.0, 7.0, 100.0, 123.456]))
        priors.append(Uniform(vbar=vbar))
        priors.append(
            TruncatedNormal(
                mu=float(rng.uniform(-1.0, 1.5)) * vbar,
                sigma=float(rng.uniform(0.05, 0.6)) * vbar,
                vbar=vbar,
            )
        )
        lam_vbar = 10 ** rng.uniform(-2, math.log10(60))
        priors.append(TruncatedExponential(lam=float(lam_vbar) / vbar, vbar=vbar))
    return priors


class TestAgainstSlowSolvers:
    """The solvers read every cdf and pdf as a scalar; the references read
    them off one-element arrays and bisect on their own. Equal bits show
    that the scalar path changes no root."""

    def test_gamma_general(self):
        for d in _random_priors(np.random.default_rng(31), 6):
            for k in (*range(1, 9), 60, 210):
                assert gamma_general(k, d) == slow_gamma_general(k, d), (d, k)

    def test_global_optimal_reserve(self):
        rng = np.random.default_rng(32)
        for d in _random_priors(rng, 4):
            for _ in range(8):
                sizes = tuple(int(k) for k in rng.integers(1, 13, rng.integers(1, 8)))
                if rng.random() < 0.25:
                    sizes += (int(rng.integers(50, 250)),)
                prof = SubtreeProfile.from_sizes(sizes)
                assert global_optimal_reserve(prof, d) == slow_global_optimal_reserve(prof, d), (d, sizes)


class TestBounds:
    def test_sup_gamma_example(self):
        # n=6, kx=3: vbar * (7/16)^(1/3)
        assert sup_gamma_x(6, 3, 100.0) == pytest.approx(
            100.0 * (7.0 / 16.0) ** (1.0 / 3.0), abs=1e-9
        )
        assert sup_gamma_x(6, 3, 100.0) == pytest.approx(75.91472429689156, abs=1e-9)

    def test_sup_gamma_dominates_gamma(self):
        # the bound is a supremum over placements, so it dominates the
        # balanced-partition gamma for every feasible branch size
        for n in range(2, 31):
            for k in range(1, n + 1):
                assert gamma_uniform(k, 100.0) <= sup_gamma_x(n, k, 100.0) + 1e-9

    def test_sup_gamma_at_full_network_is_vbar(self):
        for n in (1, 4, 9):
            assert sup_gamma_x(n, n, 100.0) == pytest.approx(100.0, rel=1e-12)

    def test_sup_gamma_nondecreasing_in_kx(self):
        for n in (3, 7, 15):
            vals = [sup_gamma_x(n, k, 100.0) for k in range(1, n + 1)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_sup_gamma_validation(self):
        with pytest.raises(DomainError):
            sup_gamma_x(3, 4, 100.0)
        with pytest.raises(DomainError):
            sup_gamma_x(3, 0, 100.0)

    # the secure global bound is sup_gamma_x at the smallest branch size
    def test_secure_bound_example(self):
        assert sup_gamma_x(9, 1, 100.0) == pytest.approx(
            55.55555555555556, abs=1e-9
        )

    def test_secure_bound_is_safe_cap(self):
        for n in range(2, 25):
            for kmin in range(1, n + 1):
                assert (
                    gamma_uniform(kmin, 100.0)
                    <= sup_gamma_x(n, kmin, 100.0) + 1e-9
                )


class TestPolicyResolution:
    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            ReservePolicy(kind="fixed")
        with pytest.raises(ValidationError):
            ReservePolicy(kind="uniform_gamma")
        with pytest.raises(ValidationError):
            ReservePolicy(kind="none", r=10.0)
        with pytest.raises(ValidationError):
            ReservePolicy(kind="global_opt", kmin=2)
        with pytest.raises(ValidationError):
            ReservePolicy(kind="banana")
        with pytest.raises(ValidationError):
            ReservePolicy(kind="fixed", r=-3.0)

    def test_none_is_zero(self):
        assert resolve_reserve(ReservePolicy(kind="none"), None, UNI) == 0.0

    def test_fixed_passthrough_and_cap(self):
        pol = ReservePolicy(kind="fixed", r=42.0)
        assert resolve_reserve(pol, None, UNI) == 42.0
        with pytest.raises(DomainError):
            resolve_reserve(ReservePolicy(kind="fixed", r=142.0), None, UNI)

    def test_gamma_policies_ignore_profile(self):
        pol = ReservePolicy(kind="uniform_gamma", kmin=3)
        a = resolve_reserve(pol, None, UNI)
        b = resolve_reserve(pol, SubtreeProfile.from_sizes((1, 8)), UNI)
        c = resolve_reserve(pol, SubtreeProfile.from_sizes((5,)), UNI)
        assert a == b == c == gamma_uniform(3, 100.0)
        pol = ReservePolicy(kind="general_gamma", kmin=2)
        x = resolve_reserve(pol, None, NORM)
        y = resolve_reserve(pol, SubtreeProfile.from_sizes((4, 4)), NORM)
        assert x == y == gamma_general(2, NORM)

    def test_global_opt_needs_profile(self):
        pol = ReservePolicy(kind="global_opt")
        with pytest.raises(ValidationError):
            resolve_reserve(pol, None, UNI)
        got = resolve_reserve(pol, SubtreeProfile.from_sizes((2, 2, 2)), Uniform(1.0))
        assert got == pytest.approx(0.5773502691896257, abs=1e-7)

    def test_parse_policy(self):
        assert parse_policy("none") == ReservePolicy(kind="none")
        assert parse_policy("fixed:50") == ReservePolicy(kind="fixed", r=50.0)
        assert parse_policy("ugamma:k=3") == ReservePolicy(
            kind="uniform_gamma", kmin=3
        )
        assert parse_policy("ggamma:k=2") == ReservePolicy(
            kind="general_gamma", kmin=2
        )
        assert parse_policy("ropt") == ReservePolicy(kind="global_opt")

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "nope",
            "fixed",
            "fixed:abc",
            "ugamma",
            "ugamma:k=0",
            "ugamma:k=2.5",
            "ggamma:j=2",
            "ropt:k=3",
            "none:1",
        ],
    )
    def test_parse_policy_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_policy(bad)
