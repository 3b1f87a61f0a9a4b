"""End-to-end acceptance criteria.

One test per numbered criterion, at its stated tolerance, each ending with
a single machine-greppable pass line (shown under ``pytest -s``; pytest's
own per-test PASSED/FAILED line mirrors it under ``-v``). Every random
draw is seeded, and the Monte Carlo streams are bit-reproducible, so these
tests are deterministic.
"""

import time

import numpy as np
import pytest

import helpers
from netauction.distributions import (
    TruncatedExponential,
    TruncatedNormal,
    Uniform,
)
from netauction.golden import REFERENCE_REVENUES
from netauction.graphs import SubtreeProfile, build_graph, build_pot
from netauction.incentives import check_dsic, counterexample_instance, DeviationGrid
from netauction.reserve import (
    ReservePolicy,
    gamma_general,
    gamma_uniform,
    global_optimal_reserve,
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
    chains_profile,
    load_edge_list,
    monte_carlo,
    pick_seller,
    subtree_profile,
    template_from_network,
)

UNI = Uniform(vbar=100.0)
NORM = TruncatedNormal(mu=50.0, sigma=16.67, vbar=100.0)
EXPD = TruncatedExponential(lam=0.08, vbar=100.0)
DISTS = {"uniform": UNI, "normal": NORM, "exp": EXPD}


def _pass(num, detail):
    print(f"ACCEPTANCE {num}: PASS - {detail}")


@pytest.fixture(scope="module")
def ordering_profiles():
    """100 random branch profiles with more bidders than branches."""
    rng = np.random.default_rng(777)
    profiles = []
    while len(profiles) < 100:
        m = int(rng.integers(2, 7))
        sizes = tuple(int(k) for k in rng.integers(1, 7, m))
        if sum(sizes) > m:
            profiles.append(SubtreeProfile.from_sizes(sizes))
    return profiles


def test_criterion_01_golden_analytic_values():
    t0 = time.time()
    opt9 = opt_upper_bound(9, UNI)
    mys2 = mys_lower_bound(2, UNI)
    g1 = gamma_uniform(1, 100.0)
    g1_root = gamma_general(1, UNI)
    assert abs(opt9 - 80.0195) <= 1e-4
    assert abs(mys2 - 41.6667) <= 1e-4
    assert abs(g1 - 50.0) <= 1e-4
    assert abs(g1_root - 50.0) <= 1e-4
    assert time.time() - t0 < 1.0
    _pass(1, f"OPT(9)={opt9:.6f} MYS(2)={mys2:.6f} gamma(1)={g1:.6f}")


def test_criterion_02_global_reserve_counterexample_values():
    t0 = time.time()
    d = Uniform(vbar=1.0)
    r_full = global_optimal_reserve(SubtreeProfile.from_sizes((2, 2, 2)), d)
    r_less = global_optimal_reserve(SubtreeProfile.from_sizes((2, 2, 1)), d)
    assert abs(r_full - 0.5773) <= 1e-4
    assert abs(r_less - 0.5664) <= 1e-4
    assert time.time() - t0 < 1.0
    _pass(2, f"r_opt[2,2,2]={r_full:.6f} r_opt[2,2,1]={r_less:.6f}")


def test_criterion_03_monte_carlo_reproduces_reference_tables():
    runs = 1_000_000
    tol = {"uniform": 0.15, "normal": 0.30, "exp": 0.30}
    worst = 0.0
    cells = 0

    classic = REFERENCE_REVENUES["classic_3_6"]
    template = chains_profile(classic["sizes"])
    policies = {
        "none": lambda d: ReservePolicy(kind="none"),
        "k1": lambda d: _gamma_policy(d, 1),
        "k2": lambda d: _gamma_policy(d, 2),
        "k3": lambda d: _gamma_policy(d, 3),
    }
    for name, d in DISTS.items():
        for key, want in zip(classic["reserves"], classic[name]):
            stats = monte_carlo(
                template, d, policies[key](d), runs, master_seed=300 + cells
            )
            gap = abs(stats.mean - want)
            assert gap <= tol[name], (name, key, stats.mean, want)
            worst = max(worst, gap)
            cells += 1

    symmetry = REFERENCE_REVENUES["symmetry_6"]
    for name, d in DISTS.items():
        for sizes, want in zip(symmetry["structures"], symmetry[name]):
            stats = monte_carlo(
                chains_profile(sizes), d, _gamma_policy(d, 1), runs,
                master_seed=600 + cells,
            )
            gap = abs(stats.mean - want)
            assert gap <= tol[name], (name, sizes, stats.mean, want)
            worst = max(worst, gap)
            cells += 1

    assert cells == 21
    _pass(3, f"{cells} cells at 1e6 runs, worst |gap|={worst:.4f}")


def _gamma_policy(d, k):
    if isinstance(d, Uniform):
        return ReservePolicy(kind="uniform_gamma", kmin=k)
    return ReservePolicy(kind="general_gamma", kmin=k)


def test_criterion_04_closed_form_agrees_with_quadrature():
    t0 = time.time()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(200):
        sizes = tuple(int(k) for k in rng.integers(1, 8, rng.integers(1, 6)))
        prof = SubtreeProfile.from_sizes(sizes)
        r = float(rng.uniform(0.0, 100.0))
        closed = expected_total_revenue(prof, UNI, r, method="closed")
        quadr = expected_total_revenue(prof, UNI, r, method="quadrature")
        gap = abs(closed - quadr)
        assert gap <= 1e-6, (sizes, r, closed, quadr)
        worst = max(worst, gap)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _pass(4, f"200 profiles, worst |closed-quadrature|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_monte_carlo_agrees_with_analytic_revenue():
    rng = np.random.default_rng(505)
    names = ["uniform", "normal", "exp"]
    checked = []
    for i in range(20):
        name = names[i % 3]
        d = DISTS[name]
        sizes = tuple(int(k) for k in rng.integers(1, 7, rng.integers(1, 6)))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            policy = ReservePolicy(kind="none")
        elif kind == 1:
            policy = ReservePolicy(kind="fixed", r=float(rng.uniform(0.0, 80.0)))
        else:
            policy = _gamma_policy(d, int(rng.integers(1, 4)))
        template = chains_profile(sizes)
        stats = monte_carlo(template, d, policy, runs=150_000, master_seed=900 + i)
        want = expected_total_revenue(
            SubtreeProfile.from_sizes(sizes), d, stats.reserve
        )
        gap = abs(stats.mean - want)
        budget = 3.5 * stats.std_error
        assert gap <= max(budget, 1e-9), (name, sizes, policy, stats.mean, want)
        checked.append(gap / budget if budget > 0 else 0.0)
    _pass(5, f"20 configs, worst |gap|/3.5SE={max(checked):.2f}")


def test_criterion_06_truthfulness_holds_and_breaks_where_proven():
    t0 = time.time()
    rng = np.random.default_rng(606)
    policies = [
        ("none", ReservePolicy(kind="none"), UNI),
        ("fixed", ReservePolicy(kind="fixed", r=37.5), UNI),
        ("ugamma", ReservePolicy(kind="uniform_gamma", kmin=2), UNI),
        ("ggamma", ReservePolicy(kind="general_gamma", kmin=2), NORM),
    ]
    grid = DeviationGrid(points=5)
    worst = 0.0
    agents_checked = 0
    for _ in range(50):
        truth = helpers.random_sparse_profile(rng, n_max=7)
        for _, policy, d in policies:
            for report in check_dsic(truth, d, policy, grid):
                assert report.best_gain <= 1e-9, (policy, report)
                worst = max(worst, report.best_gain)
                agents_checked += 1

    ce = counterexample_instance()
    reports = {
        r.agent: r
        for r in check_dsic(ce, Uniform(vbar=1.0), ReservePolicy(kind="global_opt"))
    }
    assert reports["c"].best_gain > 0.0
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _pass(
        6,
        f"{agents_checked} agent/policy checks, worst gain={worst:.1e}; "
        f"global_opt exploited for +{reports['c'].best_gain:.6f}; {elapsed:.0f}s",
    )


def test_criterion_07_revenue_ordering_chain(ordering_profiles):
    t0 = time.time()
    for prof in ordering_profiles:
        rep = revenue_ordering_report(prof, prof.m, UNI, min(prof.sizes))
        assert rep.mys < rep.apx_at_half, (prof.sizes, rep)
        assert rep.apx_at_half <= rep.apx_at_gamma + 1e-9, (prof.sizes, rep)
        assert rep.apx_at_gamma <= rep.opt + 1e-9, (prof.sizes, rep)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _pass(7, f"MYS < APX(50) <= APX(gamma) <= OPT on 100 profiles, {elapsed:.1f}s")


def test_criterion_08_approximation_ratio_bound(ordering_profiles):
    t0 = time.time()
    slack = []
    for prof in ordering_profiles:
        kmin = min(prof.sizes)
        rep = revenue_ordering_report(prof, prof.m, UNI, kmin)
        bound = ratio_lower_bound(prof.m, kmin)
        ratio = rep.apx_at_gamma / rep.opt
        assert ratio >= bound - 1e-12, (prof.sizes, ratio, bound)
        slack.append(ratio - bound)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _pass(8, f"ratio >= bound on 100 profiles, min slack={min(slack):.4f}, {elapsed:.1f}s")


def test_criterion_09_worst_partition_matches_brute_force():
    t0 = time.time()
    combos = 0
    for n in range(1, 15):
        for m in range(1, 6):
            for kmin in range(1, 4):
                if m * kmin > n:
                    continue
                got = worst_partition(n, m, kmin)
                got_val = sum(k / (n - k + 1) for k in got)
                _, best_val = helpers.brute_force_best_partition(n, m, kmin)
                assert got_val == pytest.approx(best_val, rel=1e-12), (n, m, kmin)
                combos += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _pass(9, f"{combos} (n,m,kmin) combinations match enumeration, {elapsed:.1f}s")


def test_criterion_10_dominator_tree_matches_deletion_oracle():
    t0 = time.time()
    rng = np.random.default_rng(1010)
    for _ in range(200):
        profile = helpers.random_sparse_profile(rng, n_max=12)
        pot = build_pot(build_graph(profile))
        assert helpers.parents(pot) == helpers.oracle_parents(helpers.slow_graph(profile))
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _pass(10, f"200 random graphs <= 12 nodes agree, {elapsed:.1f}s")


def test_criterion_11_ingestion_consistency_and_density_monotonicity(tmp_path):
    # the large-network experiments are not reproduced at desk scale; the
    # ingestion path is accepted by running the MC/analytic consistency
    # property on a synthetic edge list, plus the invariant that a denser
    # seller neighborhood never lowers the analytic benchmarks
    rng = np.random.default_rng(1111)
    path = tmp_path / "synthetic.txt"
    edges = set()
    for _ in range(160):
        u, v = rng.integers(0, 48, 2)
        if u != v:
            edges.add((f"v{min(u, v)}", f"v{max(u, v)}"))
    path.write_text("\n".join(f"{u} {v}" for u, v in sorted(edges)))

    network = load_edge_list(path)
    seller = pick_seller(network, 4, seed=7)
    template = template_from_network(network, seller)
    stats = monte_carlo(
        template, UNI, ReservePolicy(kind="fixed", r=50.0), 200_000, master_seed=42
    )
    prof = subtree_profile(build_pot(build_graph(template)))
    want = expected_total_revenue(prof, UNI, 50.0)
    gap = abs(stats.mean - want)
    assert gap <= 3.5 * stats.std_error, (prof.sizes, stats.mean, want)

    for d in (UNI, NORM, EXPD):
        mys = [mys_lower_bound(rho, d) for rho in range(1, 10)]
        assert all(a <= b + 1e-9 for a, b in zip(mys, mys[1:]))
        assert all(m <= opt_upper_bound(9, d) + 1e-9 for m in mys)
    _pass(
        11,
        f"edge-list MC vs analytic |gap|={gap:.4f} <= 3.5SE={3.5 * stats.std_error:.4f}; "
        "MYS nondecreasing in rho",
    )
