"""Value distribution tests: truncation, round-trips, derived quantities."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import truncnorm

from helpers import (
    NARROW_PRIORS,
    TAIL_PRIORS,
    SingularityError,
    subtree_critical_value,
    virtual_value,
)
from netauction.distributions import (
    TruncatedExponential,
    TruncatedNormal,
    Uniform,
    ValueDistribution,
    _clip,
    parse_distribution,
    regularity_check,
)
from netauction.errors import ConfigError, DomainError
from netauction.graphs import SubtreeProfile
from netauction.reserve import global_optimal_reserve

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


# the experiment priors plus a far-tail normal, a needle normal, a nearly
# flat exponential and a vbar whose grid steps are not powers of two
BIT_PRIORS = ALL + [
    TruncatedNormal(mu=-300.0, sigma=40.0, vbar=100.0),
    TruncatedNormal(mu=50.0, sigma=1e-7, vbar=100.0),
    TruncatedExponential(lam=1e-9, vbar=100.0),
    Uniform(vbar=7.0),
]
BIT_IDS = ["uniform", "normal", "exp", "normal-far", "normal-needle", "exp-flat", "uniform-7"]


def _bits(x) -> tuple[str, float]:
    # hex loses the sign of a NaN, copysign keeps it
    return float(x).hex(), math.copysign(1.0, x)


@pytest.mark.parametrize("d", BIT_PRIORS, ids=BIT_IDS)
class TestScalarPath:
    """A scalar goes through cdf, pdf, quantile and the inverse hazard as a
    Python float; its result must be the element a one-element array gives,
    to the bit, and NaN in is NaN out."""

    @staticmethod
    def _inputs(rng, top):
        ends = [0.0, -0.0, top, math.nan, int(top // 2), 0]
        kinds = [np.float64(0.3 * top), np.float32(0.7 * top), np.array(0.4 * top)]
        return (rng.random(20_000) * top).tolist() + ends + kinds

    def test_scalar_is_the_one_element_array_to_the_bit(self, d):
        rng = np.random.default_rng(2026)
        for method, top in ((d.cdf, d.vbar), (d.pdf, d.vbar), (d.quantile, 1.0), (d._hazard, d.vbar)):
            for x in self._inputs(rng, top):
                got = method(x)
                assert type(got) is float
                assert _bits(got) == _bits(method(np.array([x]))[0]), (method.__name__, x)
                assert math.isnan(got) == math.isnan(x), (method.__name__, x)

    def test_out_of_support_scalars_keep_their_message(self, d):
        above = np.nextafter(d.vbar, math.inf)
        for method, top, what in (
            (d.cdf, d.vbar, "value outside support"),
            (d.pdf, d.vbar, "value outside support"),
            (d.quantile, 1, "probability outside"),
            (d._hazard, d.vbar, "value outside support"),
        ):
            bad = [-1e-300, -1, np.float32(-0.5), np.array(-2.0), 2 * top]
            if method is not d.quantile:
                bad.append(above)
            for x in bad:
                with pytest.raises(DomainError, match=re.escape(f"{what} [0, {top}]")):
                    method(x)


@pytest.mark.parametrize("d", ALL, ids=["uniform", "normal", "exp"])
class TestArrayRangeCheck:
    """An array input is checked through NaN-skipping min and max
    reductions: NaN and the empty array pass, an element outside [0, top]
    raises whatever NaN stands beside it."""

    @staticmethod
    def _methods(d):
        return ((d.cdf, d.vbar), (d.pdf, d.vbar), (d.quantile, 1.0))

    def test_accepted(self, d):
        for method, top in self._methods(d):
            for x in ([math.nan], [], [-0.0, 0.0, top], [0, 0.5 * top, math.nan]):
                arr = np.array(x)
                got = method(arr)
                assert isinstance(got, np.ndarray) and got.shape == arr.shape
            assert method(np.array([[0.25 * top, math.nan], [top, -0.0]])).shape == (2, 2)

    def test_refused(self, d):
        for method, top in self._methods(d):
            for x in (
                [math.nan, -1.0],
                [-1.0, math.nan],
                [math.nan, top + 1],
                [top + 1, math.nan],
                [np.nextafter(-0.0, -1.0)],
                [math.inf],
                [-math.inf],
                [[0.0, math.nan], [math.nan, top + 1]],
            ):
                with pytest.raises(DomainError):
                    method(np.array(x))

    def test_zero_d_array_is_a_float(self, d):
        for method, top in self._methods(d):
            got = method(np.array(0.5 * top))
            assert type(got) is float
            assert _bits(got) == _bits(method(0.5 * top))
            with pytest.raises(DomainError):
                method(np.array(-1.0))


class TestArrayClip:
    """_clip on an array is np.clip to the bit: NaN, -0.0, infinities and
    subnormals included."""

    def test_bits_equal_np_clip(self):
        tiny = np.nextafter(0.0, 1.0)
        for top in (1.0, 100.0, 7.0):
            x = np.array(
                [
                    math.nan,
                    -math.nan,
                    -0.0,
                    0.0,
                    math.inf,
                    -math.inf,
                    tiny,
                    -tiny,
                    2.2250738585072014e-308,
                    np.nextafter(top, math.inf),
                    top,
                    np.nextafter(top, 0.0),
                    0.5 * top,
                    -1.0,
                ]
            )
            for arr in (x, x.reshape(2, 7), x[:0]):
                assert _clip(arr, top).tobytes() == np.clip(arr, 0.0, top).tobytes(), top


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

    def test_normal_far_below_0_keeps_its_precision(self):
        # 7.5 sigma of mass below 0: within 3.2e-14 of all of it, so F must
        # not be a difference of two numbers that close to 1
        d = TruncatedNormal(mu=-300.0, sigma=40.0, vbar=100.0)
        ref = truncnorm(300.0 / 40.0, 400.0 / 40.0, loc=-300.0, scale=40.0)
        p = np.linspace(0.0, 1.0, 1001)
        v = np.linspace(0.0, 100.0, 1001)
        assert np.abs(d.cdf(d.quantile(p)) - p).max() < 1e-12
        assert np.abs(d.cdf(v) - ref.cdf(v)).max() < 1e-12
        assert np.allclose(d.pdf(v), ref.pdf(v), rtol=1e-12, atol=0.0)
        # the density falls by 1e10 over the support: compare values where
        # p has the digits to place them
        assert np.abs(d.quantile(p[:991]) - ref.ppf(p[:991])).max() < 1e-9
        assert d.cdf(0.0) == 0.0 and d.cdf(100.0) == 1.0

    def test_normal_without_mass_on_the_support_is_refused(self):
        # Phi(-150) underflows to 0, so F would be 0 / 0 everywhere
        with pytest.raises(DomainError, match="no mass on"):
            TruncatedNormal(mu=-150.0, sigma=1.0, vbar=100.0)
        with pytest.raises(ConfigError, match="no mass on"):
            parse_distribution("normal:mu=-150,sigma=1,vbar=100")

    def test_accepted_normals_have_a_finite_cdf(self):
        refused = 0
        for vbar in (1.0, 100.0):
            for mu in np.linspace(-2.0, 3.0, 21) * vbar:
                for sigma in np.geomspace(1e-3, 10.0, 13) * vbar:
                    try:
                        d = TruncatedNormal(mu=float(mu), sigma=float(sigma), vbar=vbar)
                    except DomainError:
                        refused += 1
                        continue
                    got = [d.cdf(v) for v in (0.0, vbar / 2, vbar)]
                    assert all(map(math.isfinite, got)), (mu, sigma, vbar, got)
        assert refused  # the grid reaches priors with no mass on [0, vbar]

    def test_exponential_mass_outside_support(self):
        mass = 1.0 - math.exp(-0.08 * 100.0)
        assert mass == pytest.approx(0.999665, abs=1e-6)
        assert EXPD.cdf(100.0) == 1.0


class TestDerivedQuantities:
    """The virtual-value oracles of tests/helpers.py, which the reserve and
    regularity tests solve against, checked on closed forms."""

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

    def test_singularities(self):
        with pytest.raises(SingularityError):
            subtree_critical_value(UNI, 0.0, 2)
        with pytest.raises(DomainError):
            subtree_critical_value(UNI, 50.0, 0)


class _TwoBumps(ValueDistribution):
    """Density 1.6/vbar on the outer quarters of [0, 100] and 0.4/vbar
    between them: where it drops, at 25, the virtual value falls."""

    vbar = 100.0

    def cdf(self, v):
        return np.interp(v, [0.0, 25.0, 75.0, 100.0], [0.0, 0.4, 0.6, 1.0])

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        return np.where((v < 25.0) | (v >= 75.0), 0.016, 0.004)


def _virtual_values(d):
    """The grid of 1024 equal steps over [0, vbar] and v - h(v) on it."""
    points = np.append(np.arange(1024) * (d.vbar / 1024), d.vbar)
    return points, points - d._hazard(points)


class TestRegularity:
    """``regularity_check`` reads regularity off the family, whose density
    is log-concave; the virtual value v - h(v) read through the inverse
    hazard does increase on a fine grid."""

    @pytest.mark.parametrize("d", ALL, ids=["uniform", "normal", "exp"])
    def test_experiment_families_are_regular(self, d):
        assert regularity_check(d)
        _, psi = _virtual_values(d)
        assert np.all(np.diff(psi) > 0.0)

    def test_uniform_slope_is_two(self):
        points, psi = _virtual_values(UNI)
        assert np.diff(psi) / np.diff(points) == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("d", ALL, ids=["uniform", "normal", "exp"])
    def test_matches_pointwise_virtual_values(self, d):
        points, psi = _virtual_values(d)
        want = [virtual_value(d, v) for v in points]
        assert psi == pytest.approx(want, rel=1e-9, abs=1e-9 * d.vbar)

    @pytest.mark.parametrize("cfg", TAIL_PRIORS)
    def test_regular_near_vbar(self, cfg):
        d = parse_distribution(cfg)
        assert regularity_check(d)
        points, psi = _virtual_values(d)
        assert np.all(np.diff(psi) > 0.0)
        want = [virtual_value(d, v) for v in points]
        assert psi == pytest.approx(want, rel=1e-9, abs=1e-9 * d.vbar)

    def test_two_bump_prior_is_refused(self):
        d = _TwoBumps()
        assert not regularity_check(d)
        with pytest.raises(DomainError, match="regular prior"):
            global_optimal_reserve(SubtreeProfile.from_sizes((3, 6)), d)

    def test_vanishing_pdf_is_a_singularity(self):
        # the density underflows to 0 at the bottom of the support: the
        # quotient (1 - F) / f diverges there, the inverse hazard does not,
        # and the global optimum solves the prior
        d = TruncatedNormal(mu=200.0, sigma=5.0, vbar=100.0)
        with pytest.raises(SingularityError):
            virtual_value(d, 0.0)
        assert 1e250 < d._hazard(0.0) < math.inf
        assert regularity_check(d)
        assert 0.0 < global_optimal_reserve(SubtreeProfile.from_sizes((3, 6)), d) < d.vbar


def _hazard_by_quad(d, v: float) -> float:
    """The integral of f(t) / f(v) over [v, vbar], with the ratio formed in
    logs, over t's offset from v (in z-scores for the normal) so that no
    difference of close values feeds the integrand, and the interval cut
    where the integrand changes on its own scale: near v, at the mode and a
    few widths past each."""
    if isinstance(d, Uniform):
        return d.vbar - v
    if isinstance(d, TruncatedExponential):
        scale, lo, hi, cuts = 1.0, 0.0, d.vbar - v, [j / d.lam for j in (1, 8, 64)]

        def log_ratio(s):
            return -d.lam * s

    else:
        # s is the z-score's offset from v's, zv, and the mode lies at -zv
        zv = (v - d.mu) / d.sigma
        scale, lo, hi = d.sigma, 0.0, (d.vbar - d.mu) / d.sigma - zv
        cuts = [j / max(1.0, abs(zv)) for j in (1, 8, 64)] + [j - zv for j in (-8, -1, 0, 1, 8)]

        def log_ratio(s):
            return -0.5 * s * (s + 2.0 * zv)

    edges = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    return scale * sum(
        quad(lambda t: np.exp(log_ratio(t)), a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        for a, b in zip(edges, edges[1:])
    )


HAZARD_PRIORS = BIT_PRIORS + [
    parse_distribution(cfg) for cfg in (*TAIL_PRIORS, *NARROW_PRIORS, "normal:mu=200,sigma=5,vbar=100")
]


@pytest.mark.parametrize("d", HAZARD_PRIORS, ids=repr)
class TestHazard:
    """The inverse hazard h = (1 - F) / f against quadrature of the density
    ratio, on priors whose density underflows and whose 1 - F cancels."""

    def test_against_quadrature(self, d):
        for v in np.linspace(0.0, d.vbar, 101).tolist():
            with np.errstate(over="ignore"):
                want = _hazard_by_quad(d, v)
            if want < 1e300:
                assert d._hazard(v) == pytest.approx(want, rel=1e-9, abs=1e-300), v

    def test_never_nan_nor_negative(self, d):
        top = d.vbar - np.spacing(d.vbar) * np.arange(64)
        v = np.concatenate([np.linspace(0.0, d.vbar, 10_001), top, d.vbar * (1.0 - np.geomspace(1e-15, 1e-3, 64))])
        # far below a narrow mode h overflows to inf, which numpy reports
        with np.errstate(over="ignore"):
            h = d._hazard(v)
        assert not np.isnan(h).any()
        assert np.all(h >= 0.0)


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
