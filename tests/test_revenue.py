"""Expected revenue tests: closed forms vs quadrature vs frozen oracles.

Frozen constants were produced by an independent implementation built on
scipy.integrate.quad and scipy.optimize.brentq; the uniform closed-form
cells are exact rationals.
"""

import csv
import math

import numpy as np
import pytest
from scipy.integrate import quad

import helpers
from netauction.distributions import (
    TruncatedExponential,
    TruncatedNormal,
    Uniform,
)
from netauction.errors import DomainError, ValidationError
from netauction.graphs import SubtreeProfile
from netauction.reserve import gamma_general, gamma_uniform, subtree_optimal_reserve
from netauction.revenue import (
    QuadratureSettings,
    expected_subtree_revenue,
    expected_total_revenue,
    integrate,
    mys_lower_bound,
    opt_upper_bound,
    ratio_lower_bound,
    revenue_ordering_report,
    worst_partition,
    write_revenue_csv,
)

UNI = Uniform(vbar=100.0)
NORM = TruncatedNormal(mu=50.0, sigma=16.67, vbar=100.0)
EXPD = TruncatedExponential(lam=0.08, vbar=100.0)


def _prof(*sizes):
    return SubtreeProfile.from_sizes(sizes)


class TestIntegrate:
    def test_polynomial_exact(self):
        got = integrate(lambda x: 3.0 * x * x, 0.0, 2.0)
        assert got == pytest.approx(8.0, rel=1e-12)

    def test_transcendental(self):
        got = integrate(np.sin, 0.0, math.pi)
        assert got == pytest.approx(2.0, rel=1e-9)

    def test_degenerate_interval(self):
        assert integrate(np.sin, 1.0, 1.0) == 0.0

    def test_settings_validation(self):
        with pytest.raises(ValidationError):
            QuadratureSettings(rel_tol=0.0)
        with pytest.raises(ValidationError):
            QuadratureSettings(max_depth=0)

    def test_matches_scipy_on_revenue_style_integrands(self):
        f = lambda v: NORM.cdf(v) ** 9 - NORM.cdf(v) ** 6
        mine = integrate(f, 12.0, 100.0)
        ref, _ = quad(f, 12.0, 100.0, limit=200)
        assert mine == pytest.approx(ref, abs=1e-8)


class TestSubtreeRevenue:
    def test_monopoly_posted_price_cell(self):
        # single bidder, reserve at half the support: sale happens with
        # probability 1/2 at price 50, so the expected take is 25.
        # Cross-checked against a 10^7-replicate simulation (25.00 +- 0.02).
        for method in ("auto", "closed", "quadrature"):
            got = expected_subtree_revenue(1, 1, UNI, 50.0, method=method)
            assert got == pytest.approx(25.0, abs=1e-9)

    def test_uniform_frozen_cells(self):
        assert expected_subtree_revenue(3, 9, UNI, 50.0) == pytest.approx(
            25.786830357142858, abs=1e-9
        )
        assert expected_subtree_revenue(6, 9, UNI, 50.0) == pytest.approx(
            46.494140625, abs=1e-9
        )

    def test_general_frozen_cells(self):
        assert expected_subtree_revenue(3, 9, NORM, 40.0) == pytest.approx(
            21.26501594336597, abs=1e-6
        )
        assert expected_subtree_revenue(6, 9, EXPD, 20.0) == pytest.approx(
            13.120840363247751, abs=1e-6
        )

    def test_closed_matches_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(1, 10))
            kx = int(rng.integers(1, n + 1))
            r = float(rng.uniform(0.0, 100.0))
            a = expected_subtree_revenue(kx, n, UNI, r, method="closed")
            b = expected_subtree_revenue(kx, n, UNI, r, method="quadrature")
            assert a == pytest.approx(b, abs=1e-6)

    def test_reserve_at_vbar_kills_revenue(self):
        for d in (UNI, NORM, EXPD):
            assert expected_subtree_revenue(2, 5, d, 100.0) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_validation(self):
        with pytest.raises(DomainError):
            expected_subtree_revenue(4, 3, UNI, 0.0)
        with pytest.raises(DomainError):
            expected_subtree_revenue(0, 3, UNI, 0.0)
        with pytest.raises(DomainError):
            expected_subtree_revenue(1, 3, UNI, -5.0)
        with pytest.raises(DomainError):
            expected_subtree_revenue(1, 3, UNI, 101.0)
        with pytest.raises(DomainError):
            expected_subtree_revenue(1, 3, NORM, 10.0, method="closed")
        with pytest.raises(ValidationError):
            expected_subtree_revenue(1, 3, UNI, 10.0, method="sorcery")

    def test_nonnegative_and_bounded(self):
        rng = np.random.default_rng(9)
        for d in (UNI, NORM, EXPD):
            for _ in range(25):
                n = int(rng.integers(1, 10))
                kx = int(rng.integers(1, n + 1))
                r = float(rng.uniform(0.0, 100.0))
                v = expected_subtree_revenue(kx, n, d, r)
                assert -1e-9 <= v <= 100.0


class TestTotalRevenue:
    def test_classic_uniform_column(self):
        cells = {
            0.0: 70.7142857142857,
            gamma_uniform(1, 100.0): 72.28097098214286,
            gamma_uniform(2, 100.0): 73.34486492784872,
            gamma_uniform(3, 100.0): 74.13125909737114,
        }
        for r, want in cells.items():
            got = expected_total_revenue(_prof(3, 6), UNI, r)
            assert got == pytest.approx(want, abs=1e-8)

    def test_classic_normal_column(self):
        want = [
            60.42552871092042,
            60.48770040921136,
            60.72446821804537,
            61.047779817099176,
        ]
        rs = [0.0] + [gamma_general(k, NORM) for k in (1, 2, 3)]
        for r, w in zip(rs, want):
            assert expected_total_revenue(_prof(3, 6), NORM, r) == pytest.approx(
                w, abs=1e-5
            )

    def test_classic_exponential_column(self):
        want = [
            18.157653451396655,
            19.13758881588953,
            19.667998802830905,
            20.014832049011993,
        ]
        rs = [0.0] + [gamma_general(k, EXPD) for k in (1, 2, 3)]
        for r, w in zip(rs, want):
            assert expected_total_revenue(_prof(3, 6), EXPD, r) == pytest.approx(
                w, abs=1e-5
            )

    def test_symmetry_tables(self):
        # three ways of splitting six bidders, each priced at the family's
        # single-bidder optimal reserve
        table = {
            UNI: (50.0, [59.486607142857146, 64.85119047619048, 66.51785714285714]),
            NORM: (
                gamma_general(1, NORM),
                [50.75970149909748, 55.76757433756985, 57.17142592613953],
            ),
            EXPD: (
                gamma_general(1, EXPD),
                [14.336825592781668, 15.839354801303315, 16.32673465438843],
            ),
        }
        for d, (r, wants) in table.items():
            for sizes, want in zip([(1, 5), (2, 4), (3, 3)], wants):
                got = expected_total_revenue(_prof(*sizes), d, r)
                assert got == pytest.approx(want, abs=1e-5)

    def test_depth_family_uniform(self):
        frozen = {
            (6, 3): (70.7142857142857, 72.28097098214286),
            (5, 4): (73.33333333333333, 74.111328125),
            (4, 3, 2): (76.54761904761904, 76.85128348214286),
            (3, 3, 3): (77.14285714285712, 77.36049107142857),
            (2, 2, 2, 2, 1): (78.88888888888889, 78.96918402777777),
        }
        for sizes, (at0, at50) in frozen.items():
            assert expected_total_revenue(_prof(*sizes), UNI, 0.0) == pytest.approx(
                at0, abs=1e-8
            )
            assert expected_total_revenue(_prof(*sizes), UNI, 50.0) == pytest.approx(
                at50, abs=1e-8
            )

    def test_finer_partitions_earn_more_without_reserve(self):
        order = [(6, 3), (5, 4), (4, 3, 2), (3, 3, 3), (2, 2, 2, 2, 1), (1,) * 9]
        vals = [expected_total_revenue(_prof(*s), UNI, 0.0) for s in order]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_increasing_below_smallest_branch_optimum(self):
        # revenue climbs with the reserve until the smallest branch's
        # stand-alone optimum
        prof = _prof(3, 6)
        cap = gamma_uniform(3, 100.0)
        grid = np.linspace(0.0, cap - 1e-6, 40)
        vals = [expected_total_revenue(prof, UNI, float(r)) for r in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_zero_at_vbar(self):
        assert expected_total_revenue(_prof(2, 3), NORM, 100.0) == pytest.approx(
            0.0, abs=1e-12
        )


class TestAgainstRecursiveSimpson:
    """The batched integrator against the recursive scalar rule it replaced
    (helpers.slow_expected_total_revenue): the same acceptance tree, so the
    values agree to rounding."""

    @staticmethod
    def _profiles():
        rng = np.random.default_rng(31)
        profiles = [
            SubtreeProfile.from_sizes(
                tuple(int(k) for k in rng.integers(1, 12, rng.integers(1, 8)))
            )
            for _ in range(40)
        ]
        # about 10k bidders in 100 branches of 80 distinct sizes
        large = SubtreeProfile.from_sizes(
            tuple(int(k) for k in np.random.default_rng(10_000).integers(1, 200, 100))
        )
        assert len(set(large.sizes)) >= 60 and 9_000 <= large.n <= 11_000
        return profiles + [large]

    def test_total_revenue_matches(self):
        rng = np.random.default_rng(32)
        for prof in self._profiles():
            for d in (NORM, EXPD, UNI):
                for r in (0.0, float(rng.uniform(0.0, 100.0)), 100.0):
                    got = expected_total_revenue(prof, d, r, method="quadrature")
                    want = helpers.slow_expected_total_revenue(prof, d, r)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_opt_upper_bound_matches(self):
        # through integrate(), with one integrand
        for d in (NORM, EXPD):
            for n in (1, 9, 50):
                want = helpers.slow_opt_upper_bound(n, d)
                assert opt_upper_bound(n, d) == pytest.approx(want, rel=1e-12)

    def test_one_cdf_call_per_tree_level(self, monkeypatch):
        calls = []
        cdf = TruncatedNormal.cdf

        def counted(self, v):
            calls.append(v)
            return cdf(self, v)

        monkeypatch.setattr(TruncatedNormal, "cdf", counted)
        prof = SubtreeProfile.from_sizes(tuple(range(1, 71)))
        expected_total_revenue(prof, NORM, 30.0)
        assert len(calls) <= 64


class TestBenchmarks:
    def test_opt_uniform_closed_form(self):
        assert opt_upper_bound(9, UNI) == pytest.approx(80.01953125, abs=1e-12)
        assert opt_upper_bound(2, UNI) == pytest.approx(125.0 / 3.0, abs=1e-12)
        assert opt_upper_bound(1, UNI) == pytest.approx(25.0, abs=1e-12)

    def test_opt_general_families(self):
        assert opt_upper_bound(9, NORM) == pytest.approx(65.45942161260052, abs=1e-5)
        assert opt_upper_bound(9, EXPD) == pytest.approx(22.859110327437705, abs=1e-5)
        assert opt_upper_bound(2, NORM) == pytest.approx(42.810494878983285, abs=1e-5)
        assert opt_upper_bound(1, EXPD) == pytest.approx(4.595843376219079, abs=1e-5)

    def test_mys_is_opt_at_rho(self):
        for d in (UNI, NORM, EXPD):
            for rho in (1, 2, 5):
                assert mys_lower_bound(rho, d) == opt_upper_bound(rho, d)

    def test_mys_example(self):
        assert mys_lower_bound(2, UNI) == pytest.approx(41.666666666666664, abs=1e-9)

    def test_opt_nondecreasing_in_market_size(self):
        for d in (UNI, NORM, EXPD):
            vals = [opt_upper_bound(n, d) for n in range(1, 25)]
            assert all(a < b + 1e-9 for a, b in zip(vals, vals[1:]))
            assert vals[-1] < 100.0

    def test_star_network_collapses_to_benchmark(self):
        # all-direct bidders at the single-bidder optimal reserve recover
        # the classic optimal auction exactly
        for n in range(1, 7):
            star = expected_total_revenue(_prof(*(1,) * n), UNI, 50.0)
            assert star == pytest.approx(mys_lower_bound(n, UNI), abs=1e-9)

    def test_opt_dominates_any_reserve_we_tried(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            sizes = tuple(int(k) for k in rng.integers(1, 6, rng.integers(1, 5)))
            prof = SubtreeProfile.from_sizes(sizes)
            r = float(rng.uniform(0.0, 100.0))
            assert expected_total_revenue(prof, UNI, r) <= opt_upper_bound(
                prof.n, UNI
            ) + 1e-9


class TestRatioBound:
    def test_examples(self):
        assert ratio_lower_bound(2, 1) == pytest.approx(0.5, abs=1e-12)
        assert ratio_lower_bound(4, 2) == pytest.approx(6.0 / 7.0, abs=1e-12)
        assert ratio_lower_bound(1, 3) == pytest.approx(0.0, abs=1e-12)

    def test_range_and_monotonicity(self):
        for kmin in (1, 2, 3):
            vals = [ratio_lower_bound(rho, kmin) for rho in range(1, 12)]
            assert all(0.0 <= v < 1.0 for v in vals)
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(DomainError):
            ratio_lower_bound(0, 1)
        with pytest.raises(DomainError):
            ratio_lower_bound(2, 0)


class TestWorstPartition:
    def test_examples(self):
        assert worst_partition(6, 2, 1) == (1, 5)
        assert worst_partition(6, 3, 2) == (2, 2, 2)
        assert worst_partition(9, 2, 3) == (3, 6)

    def test_infeasible(self):
        with pytest.raises(DomainError):
            worst_partition(5, 3, 2)

    def test_matches_brute_force_objective(self):
        for n in range(2, 13):
            for m in range(1, 5):
                for kmin in range(1, 4):
                    if m * kmin > n:
                        continue
                    got = worst_partition(n, m, kmin)
                    _, best_val = helpers.brute_force_best_partition(n, m, kmin)
                    got_val = sum(k / (n - k + 1) for k in got)
                    assert got_val == pytest.approx(best_val, rel=1e-12)
                    assert sorted(got) == list(got)
                    assert sum(got) == n and len(got) == m and min(got) >= kmin


class TestOrderingReport:
    def test_classic_profile_report(self):
        rep = revenue_ordering_report(_prof(3, 6), 2, UNI, 3)
        assert rep.rho == 2 and rep.kmin == 3
        assert rep.gamma == pytest.approx(62.996052494743665, abs=1e-9)
        assert rep.mys == pytest.approx(41.666666666666664, abs=1e-9)
        assert rep.apx_at_half == pytest.approx(72.28097098214286, abs=1e-8)
        assert rep.apx_at_gamma == pytest.approx(74.13125909737114, abs=1e-8)
        assert rep.opt == pytest.approx(80.01953125, abs=1e-9)
        assert rep.mys <= rep.apx_at_half <= rep.apx_at_gamma <= rep.opt

    def test_never_violates_on_random_profiles(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 25:
            sizes = tuple(int(k) for k in rng.integers(1, 7, rng.integers(2, 6)))
            prof = SubtreeProfile.from_sizes(sizes)
            rho = prof.m
            if prof.n <= rho:
                continue
            rep = revenue_ordering_report(prof, rho, UNI, min(sizes))
            assert rep.mys <= rep.apx_at_gamma + 1e-9
            done += 1

    def test_preconditions(self):
        with pytest.raises(DomainError):
            revenue_ordering_report(_prof(3, 6), 9, UNI, 3)
        with pytest.raises(DomainError):
            revenue_ordering_report(_prof(3, 6), 2, NORM, 3)
        with pytest.raises(DomainError):
            revenue_ordering_report(_prof(3, 6), 2, UNI, 4)
        with pytest.raises(DomainError):
            revenue_ordering_report(_prof(3, 6), 2, UNI, 0)


class TestCsv:
    def test_write_and_read_back(self, tmp_path):
        path = tmp_path / "sweep.csv"
        rs = [0.0, 25.0, 50.0, 75.0]
        write_revenue_csv(path, _prof(3, 6), UNI, rs)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert rows[0]["sizes"] == "3+6"
        assert float(rows[2]["r"]) == 50.0
        assert float(rows[2]["revenue"]) == pytest.approx(
            72.28097098214286, abs=1e-6
        )
