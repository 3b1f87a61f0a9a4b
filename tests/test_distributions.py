"""Value distribution tests: truncation, round-trips, derived quantities."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from netauction.distributions import (
    TruncatedExponential,
    TruncatedNormal,
    Uniform,
    parse_distribution,
    regularity_check,
    subtree_critical_value,
    subtree_high_cdf,
    subtree_high_pdf,
    virtual_value,
)
from netauction.errors import ConfigError, DomainError, SingularityError

UNI = Uniform(vbar=100.0)
NORM = TruncatedNormal(mu=50.0, sigma=16.67, vbar=100.0)
EXPD = TruncatedExponential(lam=0.08, vbar=100.0)
ALL = [UNI, NORM, EXPD]

values = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@pytest.mark.parametrize("d", ALL, ids=["uniform", "normal", "exp"])
class TestSupportAndRenormalisation:
    def test_cdf_endpoints_exact(self, d):
        assert d.cdf(0.0) == 0.0
        assert d.cdf(d.vbar) == 1.0

    def test_cdf_strictly_interior(self, d):
        assert 0.0 < d.cdf(1.0) < d.cdf(99.0) < 1.0

    def test_pdf_integrates_to_one(self, d):
        total, err = quad(d.pdf, 0.0, d.vbar, limit=200)
        assert abs(total - 1.0) < 1e-9

    def test_pdf_positive_on_support(self, d):
        grid = np.linspace(0.0, d.vbar, 257)
        assert np.all(d.pdf(grid) > 0.0)

    def test_quantile_endpoints(self, d):
        assert d.quantile(0.0) == 0.0
        assert d.quantile(1.0) == pytest.approx(d.vbar, abs=1e-9)

    def test_out_of_support_rejected(self, d):
        with pytest.raises(DomainError):
            d.cdf(-1.0)
        with pytest.raises(DomainError):
            d.cdf(d.vbar + 1e-6)
        with pytest.raises(DomainError):
            d.quantile(1.2)
        with pytest.raises(DomainError):
            d.pdf(-0.5)

    def test_vectorised_matches_scalar(self, d):
        grid = np.linspace(0.0, d.vbar, 17)
        vec = d.cdf(grid)
        assert isinstance(vec, np.ndarray)
        for v, fv in zip(grid, vec):
            assert d.cdf(float(v)) == pytest.approx(fv, abs=0.0)
        assert isinstance(d.cdf(50.0), float)

    # values are drawn by the inverse cdf: quantile of uniform draws
    def test_sampling_support_and_determinism(self, d):
        draws = d.quantile(np.random.default_rng(42).random(500))
        assert draws.shape == (500,)
        assert np.all((draws >= 0.0) & (draws <= d.vbar))
        again = d.quantile(np.random.default_rng(42).random(500))
        assert np.array_equal(draws, again)

    def test_sample_mean_sane(self, d):
        draws = d.quantile(np.random.default_rng(7).random(200_000))
        mean_ref, _ = quad(lambda v: v * d.pdf(v), 0.0, d.vbar, limit=200)
        assert abs(draws.mean() - mean_ref) < 0.3


@pytest.mark.parametrize("d", ALL, ids=["uniform", "normal", "exp"])
class TestRoundTrips:
    @given(v=values)
    def test_quantile_of_cdf(self, d, v):
        assert d.quantile(d.cdf(v)) == pytest.approx(v, abs=1e-6)

    @given(p=probs)
    def test_cdf_of_quantile(self, d, p):
        assert d.cdf(d.quantile(p)) == pytest.approx(p, abs=1e-9)

    @given(a=values, b=values)
    def test_cdf_monotone(self, d, a, b):
        lo, hi = min(a, b), max(a, b)
        assert d.cdf(lo) <= d.cdf(hi)


class TestTruncationMass:
    """The untruncated families put non-trivial mass outside [0, 100]."""

    def test_normal_mass_outside_support(self):
        upper = float(ndtr((100.0 - 50.0) / 16.67))
        assert upper == pytest.approx(0.998647, abs=1e-6)
        both = upper - float(ndtr((0.0 - 50.0) / 16.67))
        assert both == pytest.approx(0.997295, abs=1e-6)
        # after renormalisation the support carries all the mass
        assert NORM.cdf(100.0) == 1.0

    def test_exponential_mass_outside_support(self):
        mass = 1.0 - math.exp(-0.08 * 100.0)
        assert mass == pytest.approx(0.999665, abs=1e-6)
        assert EXPD.cdf(100.0) == 1.0


class TestDerivedQuantities:
    def test_uniform_virtual_value_closed_form(self):
        for v in (0.0, 10.0, 50.0, 80.0, 100.0):
            assert virtual_value(UNI, v) == pytest.approx(2.0 * v - 100.0, abs=1e-12)

    def test_virtual_value_root_uniform(self):
        assert virtual_value(UNI, 50.0) == pytest.approx(0.0, abs=1e-12)

    def test_group_critical_value_reduces_to_virtual_value_at_k1(self):
        for d in ALL:
            for v in (5.0, 40.0, 77.0):
                assert subtree_critical_value(d, v, 1) == pytest.approx(
                    virtual_value(d, v), rel=1e-12
                )

    def test_uniform_group_critical_value_closed_form(self):
        # v - vbar * (1 - t^k) / (k t^(k-1)), t = v / vbar
        for k in (1, 2, 3, 5):
            for v in (20.0, 50.0, 90.0):
                t = v / 100.0
                expect = v - 100.0 * (1.0 - t**k) / (k * t ** (k - 1))
                assert subtree_critical_value(UNI, v, k) == pytest.approx(
                    expect, rel=1e-12
                )

    def test_group_cdf_pdf(self):
        for d in ALL:
            for k in (1, 2, 4):
                assert subtree_high_cdf(d, 60.0, k) == pytest.approx(
                    d.cdf(60.0) ** k, rel=1e-12
                )
                assert subtree_high_pdf(d, 60.0, k) == pytest.approx(
                    k * d.pdf(60.0) * d.cdf(60.0) ** (k - 1), rel=1e-12
                )

    def test_group_pdf_is_derivative_of_group_cdf(self):
        h = 1e-6
        for d in ALL:
            for k in (2, 3):
                num = (
                    subtree_high_cdf(d, 50.0 + h, k) - subtree_high_cdf(d, 50.0 - h, k)
                ) / (2 * h)
                assert subtree_high_pdf(d, 50.0, k) == pytest.approx(num, rel=1e-5)

    def test_singularities(self):
        with pytest.raises(SingularityError):
            subtree_critical_value(UNI, 0.0, 2)
        with pytest.raises(DomainError):
            subtree_high_cdf(UNI, 50.0, 0)
        with pytest.raises(DomainError):
            subtree_high_cdf(UNI, 50.0, -3)


class TestRegularity:
    @pytest.mark.parametrize("d", ALL, ids=["uniform", "normal", "exp"])
    def test_experiment_families_are_regular(self, d):
        report = regularity_check(d)
        assert report.is_regular_on_grid
        assert report.min_slope > 0.0

    def test_uniform_slope_is_two(self):
        report = regularity_check(UNI, grid_step=1.0)
        assert report.min_slope == pytest.approx(2.0, rel=1e-9)
        assert report.grid_step == 1.0

    @pytest.mark.parametrize("d", ALL, ids=["uniform", "normal", "exp"])
    def test_matches_pointwise_virtual_values(self, d):
        # the grid and the slope arithmetic of the array evaluation, one
        # virtual_value call per point
        step = 0.37
        points = [min(i * step, d.vbar) for i in range(int(round(d.vbar / step)))]
        points.append(d.vbar)
        psi = [virtual_value(d, v) for v in points]
        slopes = [
            (psi[i + 1] - psi[i]) / (points[i + 1] - points[i])
            for i in range(len(points) - 1)
            if points[i + 1] > points[i]
        ]
        assert regularity_check(d, grid_step=step).min_slope == min(slopes)

    def test_vanishing_pdf_is_a_singularity(self):
        # the density underflows to 0 at the bottom of the support
        with pytest.raises(SingularityError):
            regularity_check(TruncatedNormal(mu=200.0, sigma=5.0, vbar=100.0))

    def test_bad_grid_step(self):
        with pytest.raises(DomainError):
            regularity_check(UNI, grid_step=0.0)
        with pytest.raises(DomainError):
            regularity_check(UNI, grid_step=1000.0)


class TestParsing:
    def test_uniform(self):
        d = parse_distribution("uniform:vbar=100")
        assert d == Uniform(vbar=100.0)

    def test_normal(self):
        d = parse_distribution("normal:mu=50,sigma=16.67,vbar=100")
        assert d == TruncatedNormal(mu=50.0, sigma=16.67, vbar=100.0)

    def test_exponential(self):
        d = parse_distribution("exp:lambda=0.08,vbar=100")
        assert d == TruncatedExponential(lam=0.08, vbar=100.0)

    @pytest.mark.parametrize(
        "bad",
        [
            "triangle:vbar=100",
            "uniform",
            "uniform:vbar=100,extra=1",
            "normal:mu=50,vbar=100",
            "uniform:vbar=abc",
            "uniform:vbar=100,vbar=50",
            "",
            "exp:lambda=0.08",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_distribution(bad)

    def test_invalid_parameter_values_are_config_errors(self):
        # out-of-domain values inside a well-formed string are still a
        # configuration problem at the parse boundary
        with pytest.raises(ConfigError):
            parse_distribution("uniform:vbar=-5")
        with pytest.raises(ConfigError):
            parse_distribution("normal:mu=50,sigma=0,vbar=100")
        with pytest.raises(ConfigError):
            parse_distribution("exp:lambda=0,vbar=100")
