"""The argument rules of ``netauction.errors`` at every entry point that
applies them: each site raises its own class with the shared message, and a
numpy integer count gives the result of the Python int it equals. Then the
one grammar of config strings, through each of its three parsers."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import helpers
from netauction.cli import main
from netauction.distributions import (
    TruncatedExponential,
    TruncatedNormal,
    Uniform,
    parse_distribution,
)
from netauction.errors import ConfigError, DomainError, ScenarioError, ValidationError, config_kind
from netauction.graphs import AgentAction, SubtreeProfile, build_graph, build_pot, profile_from_dict
from netauction.incentives import DeviationGrid, check_dsic
from netauction.mechanism import clear
from netauction.reserve import (
    ReservePolicy,
    gamma_general,
    gamma_uniform,
    parse_policy,
    resolve_reserve,
    subtree_optimal_reserve,
)
from netauction.revenue import (
    expected_total_revenue,
    mys_lower_bound,
    opt_upper_bound,
    ratio_lower_bound,
    revenue_ordering_report,
    worst_partition,
)
from netauction.simulation import (
    SCENARIO_FIELDS,
    Network,
    chains_profile,
    draw_replicate,
    monte_carlo,
    parse_scenario,
    pick_seller,
)

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


NOT_AMOUNTS = [-1, -1.0, math.inf, -math.inf, math.nan, None, True, "5", 10**400]
# amounts past vbar = 100.0 that every other rule lets through
PAST_VBAR = [100.5, 1e300]

_POT = build_pot(build_graph(TEMPLATE))
_A1_LINKS = helpers.action(TEMPLATE, "a1").neighbors
# (site, error class, name in the message, rule, call with the amount); a
# bounded site's bound is vbar = 100.0
AMOUNT_SITES = [
    ("Uniform vbar", DomainError, "vbar", "positive", lambda x: Uniform(vbar=x)),
    ("TruncatedNormal vbar", DomainError, "vbar", "positive",
     lambda x: TruncatedNormal(mu=50.0, sigma=10.0, vbar=x)),
    ("TruncatedNormal sigma", DomainError, "sigma", "positive",
     lambda x: TruncatedNormal(mu=50.0, sigma=x, vbar=100.0)),
    ("TruncatedExponential vbar", DomainError, "vbar", "positive",
     lambda x: TruncatedExponential(lam=0.08, vbar=x)),
    ("TruncatedExponential lambda", DomainError, "lambda", "positive",
     lambda x: TruncatedExponential(lam=x, vbar=100.0)),
    ("gamma_uniform vbar", DomainError, "vbar", "positive", lambda x: gamma_uniform(2, x)),
    ("sup_gamma_x vbar", DomainError, "vbar", "positive", lambda x: helpers.sup_gamma_x(5, 2, x)),
    ("AgentAction bid", ValidationError, "bid for 'a'", "nonnegative",
     lambda x: AgentAction("a", x, frozenset())),
    ("clear reserve", DomainError, "reserve", "nonnegative", lambda x: clear(_POT, [10.0] * 5, x)),
    ("ReservePolicy fixed r", ValidationError, "fixed r", "nonnegative",
     lambda x: ReservePolicy("fixed", r=x)),
    ("resolve_reserve fixed", DomainError, "fixed reserve", "bounded",
     lambda x: resolve_reserve(ReservePolicy("fixed", r=x), None, UNI)),
    ("check_dsic true value", ValidationError, "true value of 'a1'", "bounded",
     lambda x: check_dsic(helpers.replace_action(TEMPLATE, "a1", x, _A1_LINKS), UNI, NONE,
                          DeviationGrid(points=2))),
    ("expected_total_revenue reserve", DomainError, "reserve", "bounded",
     lambda x: expected_total_revenue(PROFILE, NORM, x)),
]


def _amount_sites(rule):
    sites = [(site, error, name, call) for site, error, name, r, call in AMOUNT_SITES if r == rule]
    return pytest.mark.parametrize("site, error, name, call", sites, ids=[s[0] for s in sites])


@_amount_sites("positive")
def test_positive_rule(site, error, name, call):
    for x in [0, 0.0, *NOT_AMOUNTS]:
        message = f"{name} must be positive and finite, got {x!r}"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(x)
    assert call(np.float64(7.5)) == call(7.5)


@_amount_sites("nonnegative")
def test_nonnegative_rule(site, error, name, call):
    for x in NOT_AMOUNTS:
        message = f"{name} must be finite and >= 0, got {x!r}"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(x)
    call(0.0)
    call(0)


@_amount_sites("bounded")
def test_bounded_rule(site, error, name, call):
    # only the revenue's reserve reaches its site unchecked; the others pass
    # AgentAction's or ReservePolicy's rule first
    refused = [*NOT_AMOUNTS, *PAST_VBAR] if site.startswith("expected") else PAST_VBAR
    for x in refused:
        message = f"{name} must lie in [0, 100.0], got {x!r}"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(x)
    call(0.0)
    call(100.0)


def test_profile_json_bid_past_the_float_range():
    with pytest.raises(ValidationError, match="must be finite and >= 0, got 1000"):
        profile_from_dict({"seller": "s", "agents": [{"id": "a", "bid": 10**400, "neighbors": []}]})


# --- config strings ----------------------------------------------------------

# one canonical string per parser, and how each reads it
CONFIGS = [
    ("normal:mu=50,sigma=16.67,vbar=100", parse_distribution),
    ("ugamma:k=3", parse_policy),
    ("mer:n=9,pct=30", parse_scenario),
]
# spellings the grammar reads as the string itself: kind and keys without
# case or surrounding spaces, blank items skipped
SPELLINGS = {
    "upper case": str.upper,
    "title case": str.title,
    "spaces around": lambda s: f"  {s}\t",
    "spaces inside": lambda s: s.replace(":", " : ").replace(",", " , ").replace("=", " = "),
    "trailing comma": lambda s: s + ",",
    "blank items": lambda s: s.replace(":", ":, ,").replace(",", ",,"),
}


@pytest.mark.parametrize("spelling", SPELLINGS.values(), ids=SPELLINGS.keys())
@pytest.mark.parametrize("text, parse", CONFIGS, ids=[c[1].__name__ for c in CONFIGS])
def test_spellings_read_alike(text, parse, spelling):
    assert parse(spelling(text)) == parse(text)


@pytest.mark.parametrize("text", ["FIXED:50", " fixed : 50 ", "Fixed:\t50"])
def test_fixed_reserve_spellings(text):
    assert parse_policy(text) == ReservePolicy("fixed", r=50.0)


# refused shape -> (message pattern, a string of that shape per parser in
# the order of CONFIGS)
REFUSED_SHAPES = {
    "unknown kind": ("^unknown ", ["triangle:vbar=100", "gamma:k=3", "star:n=9"]),
    "no kind": ("^unknown ", ["", " ", ":k=3"]),
    "item without =": ("^unexpected parameter ", ["uniform:vbar", "ugamma:k", "mer:n=9,pct"]),
    "unknown key": ("^unexpected parameter ", ["uniform:vbar=1,mu=2", "ugamma:j=2", "md:n=9,pct=4"]),
    "repeated key": ("^duplicate parameter ", ["uniform:vbar=1,VBAR=2", "ggamma:k=2,k=2",
                                               "mer:n=9,n=9,pct=30"]),
    "missing key": ("^missing parameters ", ["exp:lambda=0.08", "ugamma", "symmetry:"]),
    "not a number": (" must be (a number|an integer), got ", ["uniform:vbar=abc", "ugamma:k=2.5",
                                                            "symmetry:sizes=3;3"]),
    "not a decimal digit": (" must be (a number|an integer), got ", ["uniform:vbar=²",
                                                                   "ugamma:k=²", "md:n=9,depth=²"]),
}


@pytest.mark.parametrize("shape", REFUSED_SHAPES, ids=REFUSED_SHAPES.keys())
def test_refused_shapes_are_config_errors(shape):
    pattern, texts = REFUSED_SHAPES[shape]
    for text, (_, parse) in zip(texts, CONFIGS, strict=True):
        with pytest.raises(ConfigError, match=pattern):
            parse(text)


def test_fixed_reserve_wants_a_number():
    for text in ["fixed", "fixed:", "fixed:abc", "fixed:50,60", "fixed:r=50"]:
        with pytest.raises(ConfigError, match="^fixed reserve must be a number, got "):
            parse_policy(text)


def test_cli_routes_a_scenario_spelling_to_the_scenario(capsys):
    argv = ["--dist", "uniform:vbar=100", "--reserve", "ugamma:k=2", "--runs", "500", "--seed", "3"]
    assert main(["simulate", "--net", "mer:n=9,pct=40", *argv]) == 0
    want = capsys.readouterr().out
    assert main(["simulate", "--net", " MER:n=9,pct=40", *argv]) == 0
    assert capsys.readouterr().out == want


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# every config string README's examples pass, by flag
README_CONFIGS = re.findall(r"--(dist|reserve|policy|spec|net) (\S+)", README)
_READERS = {"dist": parse_distribution, "reserve": parse_policy, "policy": parse_policy,
            "spec": parse_scenario, "net": parse_scenario}


def test_readme_config_strings_parse():
    flags = {flag for flag, _ in README_CONFIGS}
    assert flags == set(_READERS), flags
    for flag, text in README_CONFIGS:
        if flag == "net" and config_kind(text) not in SCENARIO_FIELDS:
            continue  # a file
        _READERS[flag](text)
