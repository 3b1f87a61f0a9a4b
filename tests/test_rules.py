"""The three argument rules of ``netauction.errors`` at every entry point
that applies them: each site raises its own class with the shared message,
and a numpy integer count gives the result of the Python int it equals."""

import math
import re

import numpy as np
import pytest

import helpers
from netauction.distributions import TruncatedExponential, TruncatedNormal, Uniform
from netauction.errors import DomainError, ScenarioError, ValidationError
from netauction.graphs import AgentAction, SubtreeProfile, build_graph, build_pot
from netauction.incentives import DeviationGrid
from netauction.mechanism import clear
from netauction.reserve import (
    ReservePolicy,
    gamma_general,
    gamma_uniform,
    resolve_reserve,
    subtree_optimal_reserve,
)
from netauction.revenue import (
    mys_lower_bound,
    opt_upper_bound,
    ratio_lower_bound,
    revenue_ordering_report,
    worst_partition,
)
from netauction.simulation import Network, chains_profile, draw_replicate, monte_carlo, pick_seller

UNI = Uniform(vbar=100.0)
NORM = TruncatedNormal(mu=50.0, sigma=16.67, vbar=100.0)
NONE = ReservePolicy("none")
TEMPLATE = chains_profile((2, 3))
# the path a - b - c: b is the one node of degree 2
PATH = Network(("a", "b", "c"), indptr=np.array([0, 1, 3, 4]), indices=np.array([1, 0, 2, 1]))
PROFILE = SubtreeProfile.from_sizes((2, 3))

# (site, error class, name in the message, least, call with the count, a valid count)
COUNT_SITES = [
    ("monte_carlo runs", ValidationError, "runs", 1,
     lambda v: monte_carlo(TEMPLATE, UNI, NONE, v, 1), 3),
    ("monte_carlo seed", ValidationError, "seed", 0,
     lambda v: monte_carlo(TEMPLATE, UNI, NONE, 10, v), 4),
    ("monte_carlo threads", ValidationError, "threads", 1,
     lambda v: monte_carlo(TEMPLATE, UNI, NONE, 10, 1, threads=v), 2),
    ("draw_replicate index", ValidationError, "replicate index", 0,
     lambda v: draw_replicate(TEMPLATE, UNI, 1, v), 1),
    ("draw_replicate seed", ValidationError, "seed", 0,
     lambda v: draw_replicate(TEMPLATE, UNI, v, 0), 2),
    ("pick_seller seed", ValidationError, "seed", 0, lambda v: pick_seller(PATH, 2, v), 5),
    ("pick_seller rho", ValidationError, "rho", 1, lambda v: pick_seller(PATH, v, 5), 2),
    ("gamma_uniform kmin", DomainError, "kmin", 1, lambda v: gamma_uniform(v, 100.0), 3),
    ("gamma_general kmin", DomainError, "kmin", 1, lambda v: gamma_general(v, NORM), 3),
    ("subtree_optimal_reserve k", DomainError, "k", 1,
     lambda v: subtree_optimal_reserve(v, UNI), 2),
    ("ratio_lower_bound rho", DomainError, "rho", 1, lambda v: ratio_lower_bound(v, 2), 3),
    ("ratio_lower_bound kmin", DomainError, "kmin", 1, lambda v: ratio_lower_bound(3, v), 2),
    ("worst_partition n", DomainError, "n", 1, lambda v: worst_partition(v, 2, 1), 5),
    ("worst_partition m", DomainError, "m", 1, lambda v: worst_partition(9, v, 1), 2),
    ("worst_partition kmin", DomainError, "kmin", 1, lambda v: worst_partition(9, 2, v), 2),
    ("revenue_ordering_report rho", DomainError, "rho", 1,
     lambda v: revenue_ordering_report(PROFILE, v, UNI, 2), 2),
    ("revenue_ordering_report kmin", DomainError, "kmin", 1,
     lambda v: revenue_ordering_report(PROFILE, 2, UNI, v), 2),
    ("opt_upper_bound n", DomainError, "n", 1, lambda v: opt_upper_bound(v, NORM), 4),
    ("subtree revenue kx", DomainError, "kx", 1,
     lambda v: helpers.expected_subtree_revenue(v, 5, UNI, 30.0), 2),
    ("subtree revenue n", DomainError, "n", 1,
     lambda v: helpers.expected_subtree_revenue(1, v, NORM, 30.0), 5),
    ("ReservePolicy uniform_gamma kmin", ValidationError, "kmin", 1,
     lambda v: ReservePolicy("uniform_gamma", kmin=v), 2),
    ("ReservePolicy general_gamma kmin", ValidationError, "kmin", 1,
     lambda v: ReservePolicy("general_gamma", kmin=v), 2),
    ("DeviationGrid points", ValidationError, "points", 2, lambda v: DeviationGrid(points=v), 5),
    ("SubtreeProfile size", ValidationError, "branch size", 1,
     lambda v: SubtreeProfile.from_sizes((3, v)), 2),
    ("chains_profile size", ScenarioError, "branch size", 1, lambda v: chains_profile((v,)), 2),
]
COUNT_IDS = [site[0] for site in COUNT_SITES]
NOT_COUNTS = [True, False, np.True_, 2.5, 2.0, np.float64(2), "2", None, 0, -1]


def _refused(least):
    return [v for v in NOT_COUNTS if not (type(v) is int and v >= least)]


@pytest.mark.parametrize("site, error, name, least, call, good", COUNT_SITES, ids=COUNT_IDS)
def test_count_rule_refuses(site, error, name, least, call, good):
    for value in _refused(least):
        message = f"{name} must be an integer >= {least}, got {value!r}"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(value)


@pytest.mark.parametrize("site, error, name, least, call, good", COUNT_SITES, ids=COUNT_IDS)
def test_numpy_integer_count_is_the_int(site, error, name, least, call, good):
    got = call(np.int64(good))
    assert got == call(good)
    if isinstance(got, float):  # np.float64 is a float too
        assert type(got) is float, type(got)


def test_counts_are_stored_as_python_ints():
    stats = monte_carlo(TEMPLATE, UNI, NONE, np.int64(10), np.int64(3), threads=np.int64(2))
    assert type(stats.runs) is int and type(stats.master_seed) is int
    assert stats == monte_carlo(TEMPLATE, UNI, NONE, 10, 3, threads=2)
    policy = ReservePolicy("uniform_gamma", kmin=np.int64(2))
    assert type(policy.kmin) is int
    assert policy == ReservePolicy("uniform_gamma", kmin=2)
    assert resolve_reserve(policy, None, UNI) == gamma_uniform(2, UNI.vbar)
    prof = SubtreeProfile.from_sizes(np.array([2, 3], dtype=np.int64))
    assert all(type(k) is int for k in prof.sizes) and prof == PROFILE
    assert type(DeviationGrid(points=np.int64(5)).points) is int
    assert type(mys_lower_bound(np.int64(3), NORM)) is float


def test_sizes_from_a_generator():
    assert SubtreeProfile.from_sizes(k for k in (2, 3)) == PROFILE
    assert chains_profile(k for k in (2, 3)) == TEMPLATE
    with pytest.raises(ValidationError, match=r"^branch size must be an integer >= 1, got 2\.5$"):
        SubtreeProfile.from_sizes(k for k in (3, 2.5))


def test_first_bad_size_is_named():
    with pytest.raises(ValidationError, match="^branch size must be an integer >= 1, got 0$"):
        SubtreeProfile.from_sizes((3, 0, 2.5, True))
    with pytest.raises(ScenarioError, match="^branch size must be an integer >= 1, got True$"):
        chains_profile((2, True, 0))
    with pytest.raises(ValidationError, match="at least one branch size"):
        SubtreeProfile.from_sizes(())
    with pytest.raises(ScenarioError, match="at least one branch size"):
        chains_profile([])


# the five inputs that ran or truncated before the rules were shared
HOLES = [
    ("threads True", ValidationError, lambda: monte_carlo(TEMPLATE, UNI, NONE, 10, 1, threads=True)),
    ("threads 2.5", ValidationError, lambda: monte_carlo(TEMPLATE, UNI, NONE, 10, 1, threads=2.5)),
    ("replicate True", ValidationError, lambda: draw_replicate(TEMPLATE, UNI, 1, True)),
    ("replicate 1.5", ValidationError, lambda: draw_replicate(TEMPLATE, UNI, 1, 1.5)),
    ("sizes 2.5, 3", ValidationError, lambda: SubtreeProfile.from_sizes((2.5, 3))),
    ("sizes True, 2", ValidationError, lambda: SubtreeProfile.from_sizes((True, 2))),
    ("chain 2.5", ScenarioError, lambda: chains_profile((2.5,))),
    ("kmin True", ValidationError, lambda: ReservePolicy("uniform_gamma", kmin=True)),
]


@pytest.mark.parametrize("hole, error, call", HOLES, ids=[h[0] for h in HOLES])
def test_holes_now_raise(hole, error, call):
    with pytest.raises(error, match="must be an integer >= "):
        call()


NOT_AMOUNTS = [-1, -1.0, math.inf, -math.inf, math.nan, None, True, "5"]

# (site, name in the message, call with the amount); each raises DomainError
POSITIVE_SITES = [
    ("Uniform vbar", "vbar", lambda x: Uniform(vbar=x)),
    ("TruncatedNormal vbar", "vbar", lambda x: TruncatedNormal(mu=50.0, sigma=10.0, vbar=x)),
    ("TruncatedNormal sigma", "sigma", lambda x: TruncatedNormal(mu=50.0, sigma=x, vbar=100.0)),
    ("TruncatedExponential vbar", "vbar", lambda x: TruncatedExponential(lam=0.08, vbar=x)),
    ("TruncatedExponential lambda", "lambda", lambda x: TruncatedExponential(lam=x, vbar=100.0)),
    ("gamma_uniform vbar", "vbar", lambda x: gamma_uniform(2, x)),
    ("sup_gamma_x vbar", "vbar", lambda x: helpers.sup_gamma_x(5, 2, x)),
]

_POT = build_pot(build_graph(TEMPLATE))
# (site, error class, name in the message, call with the amount)
NONNEGATIVE_SITES = [
    ("AgentAction bid", ValidationError, "bid for 'a'", lambda x: AgentAction("a", x, frozenset())),
    ("clear reserve", DomainError, "reserve", lambda x: clear(_POT, [10.0] * 5, x)),
    ("ReservePolicy fixed r", ValidationError, "fixed r", lambda x: ReservePolicy("fixed", r=x)),
]


@pytest.mark.parametrize("site, name, call", POSITIVE_SITES, ids=[s[0] for s in POSITIVE_SITES])
def test_positive_rule(site, name, call):
    for x in [0, 0.0, *NOT_AMOUNTS]:
        message = f"{name} must be positive and finite, got {x}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(x)
    assert call(np.float64(7.5)) == call(7.5)


@pytest.mark.parametrize(
    "site, error, name, call", NONNEGATIVE_SITES, ids=[s[0] for s in NONNEGATIVE_SITES]
)
def test_nonnegative_rule(site, error, name, call):
    for x in NOT_AMOUNTS:
        message = f"{name} must be finite and >= 0, got {x}"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(x)
    call(0.0)
    call(0)
