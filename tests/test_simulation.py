"""Scenario construction, Monte Carlo determinism/accuracy, edge lists."""

import math
import threading

import numpy as np
import pytest

from netauction.distributions import TruncatedNormal, Uniform
from netauction.errors import (
    ConfigError,
    DomainError,
    EdgeListFormatError,
    ScenarioError,
    ValidationError,
)
from netauction.graphs import SubtreeProfile, build_graph, build_pot, dcs, subtree_profile
from netauction.mechanism import run_apx_r
from netauction.reserve import ReservePolicy, gamma_uniform
from netauction.revenue import expected_total_revenue
from netauction.simulation import (
    MAX_DEPTH,
    Network,
    Scenario,
    chains_profile,
    draw_replicate,
    generate_scenario,
    load_edge_list,
    monte_carlo,
    parse_scenario,
    pick_seller,
    stats_to_dict,
    template_from_network,
    write_histogram_csv,
)

UNI = Uniform(vbar=100.0)
NONE = ReservePolicy(kind="none")
FIX50 = ReservePolicy(kind="fixed", r=50.0)


def realized_sizes(profile):
    return tuple(
        sorted(subtree_profile(build_pot(build_graph(profile))).sizes, reverse=True)
    )


def realized_depth(profile):
    pot = build_pot(build_graph(profile))
    return max(len(dcs(pot, a)) for a in pot.parent)


class TestScenarioValidation:
    def test_mer_requires_listed_percentage(self):
        with pytest.raises(ScenarioError):
            Scenario("mer", n=9, mer=20)
        with pytest.raises(ScenarioError):
            Scenario("mer", n=9, mer=35)

    def test_mer_requires_integral_degree(self):
        # 30% of eleven participants is not a whole neighbor count
        with pytest.raises(ScenarioError):
            Scenario("mer", n=10, mer=30)

    def test_mer_needs_at_least_one_neighbor(self):
        with pytest.raises(ScenarioError):
            Scenario("mer", n=1, mer=50)

    def test_md_depth_window(self):
        with pytest.raises(ScenarioError):
            Scenario("md", n=9, md=0)
        with pytest.raises(ScenarioError) as err:
            Scenario("md", n=9, md=7)
        assert "six" in str(err.value)
        with pytest.raises(ScenarioError):
            Scenario("md", n=2, md=3)

    def test_symmetry_chain_cap(self):
        with pytest.raises(ScenarioError):
            Scenario("symmetry", sizes=(7,))
        with pytest.raises(ScenarioError):
            Scenario("symmetry", sizes=(3, 0))
        with pytest.raises(ScenarioError):
            Scenario("symmetry", sizes=())
        with pytest.raises(ScenarioError):
            Scenario("symmetry", sizes=(3, 3), n=7)

    def test_explicit_kind_is_rejected(self):
        # a caller with a profile uses it directly; no scenario kind wraps one
        with pytest.raises(ScenarioError):
            Scenario("explicit")

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError):
            Scenario("galaxy", n=3)

    def test_rho_defined_for_mer_only(self):
        assert Scenario("mer", n=9, mer=30).rho() == 2
        with pytest.raises(ValidationError):
            Scenario("md", n=9, md=3).rho()


class TestScenarioConstruction:
    def test_mer_family_n9(self):
        want = {
            30: (5, 4),
            40: (3, 3, 3),
            50: (3, 2, 2, 2),
            60: (2, 2, 2, 2, 1),
            70: (2, 2, 2, 1, 1, 1),
            80: (2, 2, 1, 1, 1, 1, 1),
            90: (2, 1, 1, 1, 1, 1, 1, 1),
            100: (1,) * 9,
        }
        for pct, sizes in want.items():
            prof = generate_scenario(Scenario("mer", n=9, mer=pct))
            assert realized_sizes(prof) == sizes

    def test_md_family_n9(self):
        want = {
            6: (6, 3),
            5: (5, 4),
            4: (4, 3, 2),
            3: (3, 3, 3),
            2: (2, 2, 2, 2, 1),
            1: (1,) * 9,
        }
        for depth, sizes in want.items():
            prof = generate_scenario(Scenario("md", n=9, md=depth))
            assert realized_sizes(prof) == sizes
            assert realized_depth(prof) == depth

    def test_symmetry_family(self):
        for sizes in [(1, 5), (2, 4), (3, 3)]:
            prof = generate_scenario(Scenario("symmetry", sizes=sizes))
            assert realized_sizes(prof) == tuple(sorted(sizes, reverse=True))

    def test_chains_are_within_six_hops(self):
        for pct in (30, 40, 50, 100):
            prof = generate_scenario(Scenario("mer", n=9, mer=pct))
            assert realized_depth(prof) <= MAX_DEPTH

    def test_chain_template_shape(self):
        prof = chains_profile((2, 1))
        assert prof.seller_report() == frozenset({"a1", "a3"})
        assert prof.action("a1").neighbors == frozenset({"a2"})
        assert prof.action("a2").neighbors == frozenset()
        assert all(a.bid == 0.0 for a in prof.bidders())


class TestParseScenario:
    def test_round_trips(self):
        assert parse_scenario("mer:n=9,pct=30") == Scenario("mer", n=9, mer=30)
        assert parse_scenario("md:n=9,depth=4") == Scenario("md", n=9, md=4)
        assert parse_scenario("symmetry:sizes=3+3") == Scenario(
            "symmetry", sizes=(3, 3)
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "mer",
            "mer:n=9",
            "mer:n=9,pct=30,extra=1",
            "mer:n=nine,pct=30",
            "md:n=9",
            "md:depth=4",
            "symmetry:sizes=",
            "symmetry:sizes=3;3",
            "explicit:profile=x",
            "party:n=9",
        ],
    )
    def test_malformed_is_config_error(self, bad):
        with pytest.raises(ConfigError):
            parse_scenario(bad)

    def test_infeasible_is_scenario_error(self):
        # syntactically fine, economically impossible: stays a domain error
        with pytest.raises(ScenarioError):
            parse_scenario("mer:n=10,pct=30")
        with pytest.raises(ScenarioError):
            parse_scenario("md:n=9,depth=9")


class TestMonteCarlo:
    def test_bit_identical_across_calls_and_threads(self):
        template = chains_profile((3, 3))
        a = monte_carlo(template, UNI, FIX50, runs=20_000, master_seed=5)
        b = monte_carlo(template, UNI, FIX50, runs=20_000, master_seed=5)
        c = monte_carlo(template, UNI, FIX50, runs=20_000, master_seed=5, threads=3)
        assert a == b == c
        d = monte_carlo(template, UNI, FIX50, runs=20_000, master_seed=6)
        assert d.mean != a.mean

    def test_pool_shut_down_when_a_batch_raises(self):
        class Exploding(Uniform):
            def quantile(self, p):
                raise RuntimeError("quantile failed")

        before = set(threading.enumerate())
        # excinfo keeps the failed call's frames alive, so garbage
        # collection cannot stand in for an explicit shutdown
        with pytest.raises(RuntimeError, match="quantile failed") as excinfo:
            monte_carlo(
                chains_profile((3, 3)), Exploding(vbar=100.0), NONE,
                runs=5_000, master_seed=1, threads=2,
            )
        workers = [
            t for t in threading.enumerate()
            if t not in before and t.name.startswith("ThreadPoolExecutor")
        ]
        for t in workers:
            t.join(timeout=2.0)
        assert not [t for t in workers if t.is_alive()], excinfo.value

    def test_single_replicate_matches_mechanism(self):
        template = generate_scenario(Scenario("md", n=9, md=4))
        for seed in (1, 2, 3):
            stats = monte_carlo(template, UNI, FIX50, runs=1, master_seed=seed)
            outcome = run_apx_r(draw_replicate(template, UNI, seed, 0), 50.0)
            assert stats.mean == outcome.revenue
            assert stats.failure_rate == float(outcome.failed)

    def test_mean_is_average_of_replicates(self):
        template = chains_profile((2, 2))
        runs = 37
        stats = monte_carlo(template, UNI, NONE, runs=runs, master_seed=11)
        rev = [
            run_apx_r(draw_replicate(template, UNI, 11, i), 0.0).revenue
            for i in range(runs)
        ]
        assert stats.mean == pytest.approx(sum(rev) / runs, rel=1e-12)

    def test_replicates_straddle_batch_boundaries(self):
        # n=101 forces a batch shorter than the row cap, exercising the
        # batch/row index split
        sizes = (6,) * 16 + (5,)
        template = chains_profile(sizes)
        n = sum(sizes)
        B = 1_000_000 // n
        stats = monte_carlo(template, UNI, NONE, runs=B + 3, master_seed=2)
        rev = [
            run_apx_r(draw_replicate(template, UNI, 2, i), 0.0).revenue
            for i in (0, B - 1, B, B + 2)
        ]
        assert all(r >= 0 for r in rev)
        assert stats.runs == B + 3

    def test_matches_analytic_revenue(self):
        cases = [
            ((3, 3), FIX50, UNI),
            ((5, 4), NONE, UNI),
            ((3, 6), ReservePolicy(kind="uniform_gamma", kmin=3), UNI),
            ((2, 4), FIX50, TruncatedNormal(mu=50.0, sigma=16.67, vbar=100.0)),
        ]
        for sizes, policy, d in cases:
            template = chains_profile(sizes)
            stats = monte_carlo(template, d, policy, runs=60_000, master_seed=17)
            want = expected_total_revenue(
                SubtreeProfile.from_sizes(sizes), d, stats.reserve
            )
            assert abs(stats.mean - want) <= 3.5 * stats.std_error, (sizes, policy)

    def test_failure_rate_matches_theory(self):
        template = chains_profile((3, 3))
        stats = monte_carlo(template, UNI, FIX50, runs=80_000, master_seed=23)
        p = 0.5**6
        se = math.sqrt(p * (1 - p) / stats.runs)
        assert abs(stats.failure_rate - p) <= 3.5 * se
        # with two or more branches every sale nets a positive price, so
        # the zero bin counts exactly the failures
        assert stats.histogram[0] == round(stats.failure_rate * stats.runs)

    def test_monopoly_branch_revenue(self):
        # a single chain has no outside competition: the reserve is the
        # whole price, and without one the revenue is identically zero
        template = chains_profile((4,))
        free = monte_carlo(template, UNI, NONE, runs=5_000, master_seed=3)
        assert free.mean == 0.0 and free.histogram[0] == free.runs
        priced = monte_carlo(template, UNI, FIX50, runs=80_000, master_seed=3)
        want = 50.0 * (1.0 - 0.5**4)
        assert abs(priced.mean - want) <= 3.5 * priced.std_error
        # histogram[0] is the zero bin; revenue 50.0 falls in the bin
        # covering [50, 51), which sits at tuple index 51
        assert priced.histogram[51] + priced.histogram[0] == priced.runs

    def test_histogram_accounts_for_every_replicate(self):
        template = chains_profile((2, 3))
        stats = monte_carlo(template, UNI, FIX50, runs=9_999, master_seed=29)
        assert len(stats.histogram) == 101
        assert sum(stats.histogram) == stats.runs

    def test_reserve_resolution_recorded(self):
        template = chains_profile((3, 6))
        pol = ReservePolicy(kind="uniform_gamma", kmin=2)
        stats = monte_carlo(template, UNI, pol, runs=10, master_seed=1)
        assert stats.reserve == gamma_uniform(2, 100.0)
        ropt = monte_carlo(
            template, UNI, ReservePolicy(kind="global_opt"), runs=10, master_seed=1
        )
        assert ropt.reserve == pytest.approx(70.49800681940653, abs=1e-6)

    def test_validation(self):
        template = chains_profile((2,))
        with pytest.raises(ValidationError):
            monte_carlo(template, UNI, NONE, runs=0, master_seed=1)
        with pytest.raises(ValidationError):
            monte_carlo(template, UNI, NONE, runs=10, master_seed=1, threads=0)
        with pytest.raises(ValidationError):
            draw_replicate(template, UNI, 1, -1)

    def test_template_with_no_reachable_bidders(self):
        from netauction.graphs import ActionProfile, AgentAction

        empty = ActionProfile(
            "s",
            (
                AgentAction("s", 0.0, frozenset()),
                AgentAction("a", 0.0, frozenset()),
            ),
        )
        with pytest.raises(DomainError):
            monte_carlo(empty, UNI, NONE, runs=5, master_seed=1)

    def test_unreachable_bidders_bid_zero_in_replicates(self):
        from netauction.graphs import ActionProfile, AgentAction

        template = ActionProfile(
            "s",
            (
                AgentAction("s", 0.0, frozenset({"a"})),
                AgentAction("a", 0.0, frozenset()),
                AgentAction("ghost", 0.0, frozenset()),
            ),
        )
        rep = draw_replicate(template, UNI, 9, 4)
        assert rep.action("ghost").bid == 0.0
        assert rep.action("a").bid > 0.0

    def test_stats_to_dict_round_trip_fields(self):
        stats = monte_carlo(chains_profile((2, 2)), UNI, FIX50, 100, 7)
        blob = stats_to_dict(stats)
        assert blob["runs"] == 100
        assert blob["histogram_zero"] == stats.histogram[0]
        assert blob["histogram_bins"] == list(stats.histogram[1:])
        assert blob["reserve"] == 50.0

    def test_histogram_csv(self, tmp_path):
        stats = monte_carlo(chains_profile((2, 2)), UNI, FIX50, 500, 7)
        path = tmp_path / "hist.csv"
        write_histogram_csv(stats, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 102
        assert lines[1].startswith("0,0,")
        counts = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert sum(counts) == 500


class TestEdgeLists:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(
            "# comment\n"
            "% konect-style header\n"
            "\n"
            "a b\n"
            "b c 1.5 1086400\n"
            "c c\n"
            "b a\n"
        )
        net = load_edge_list(path)
        assert net.node_count() == 3
        assert net.edge_count() == 2
        assert net.degree("b") == 2
        assert net.adjacency["a"] == frozenset({"b"})

    def test_single_token_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\nlonely\n")
        with pytest.raises(EdgeListFormatError) as err:
            load_edge_list(path)
        assert "line 2" in str(err.value)

    def test_pick_seller(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("a b\nb c\nc d\n")
        net = load_edge_list(path)
        assert pick_seller(net, 2, seed=1) in {"b", "c"}
        assert pick_seller(net, 2, seed=1) == pick_seller(net, 2, seed=1)
        assert pick_seller(net, 1, seed=5) in {"a", "d"}
        with pytest.raises(LookupError):
            pick_seller(net, 3, seed=1)

    def test_template_restricted_to_component(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("a b\nc d\n")
        net = load_edge_list(path)
        template = template_from_network(net, "a")
        assert template.ids() == frozenset({"b"})
        assert template.seller_report() == frozenset({"b"})
        with pytest.raises(KeyError):
            template_from_network(net, "zz")

    def test_template_runs_through_the_full_pipeline(self, tmp_path):
        rng = np.random.default_rng(31)
        path = tmp_path / "rand.txt"
        edges = {
            tuple(sorted((f"n{rng.integers(0, 40)}", f"n{rng.integers(0, 40)}")))
            for _ in range(120)
        }
        path.write_text("\n".join(f"{u} {v}" for u, v in edges if u != v))
        net = load_edge_list(path)
        seller = pick_seller(net, 3, seed=2)
        template = template_from_network(net, seller)
        stats = monte_carlo(template, UNI, FIX50, runs=2_000, master_seed=8)
        assert 0.0 <= stats.mean <= 100.0
        assert stats.reserve == 50.0

    def test_undirected_symmetry(self, tmp_path):
        path = tmp_path / "sym.txt"
        path.write_text("x y\n")
        net = load_edge_list(path)
        assert net.adjacency["x"] == frozenset({"y"})
        assert net.adjacency["y"] == frozenset({"x"})
        assert Network(adjacency=net.adjacency).edge_count() == 1
