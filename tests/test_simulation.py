"""Scenario construction, Monte Carlo determinism/accuracy, edge lists."""

import codecs
import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest

import helpers
from netauction import simulation
from netauction.distributions import TruncatedExponential, TruncatedNormal, Uniform
from netauction.errors import (
    ConfigError,
    DomainError,
    EdgeListFormatError,
    ScenarioError,
    ValidationError,
)
from netauction.graphs import SubtreeProfile, build_graph, build_pot, subtree_profile
from netauction.mechanism import run_apx_r
from netauction.reserve import ReservePolicy, gamma_uniform
from netauction.revenue import expected_total_revenue
from netauction.simulation import (
    MAX_DEPTH,
    Market,
    chains_profile,
    draw_replicate,
    load_edge_list,
    monte_carlo,
    parse_scenario,
    pick_seller,
    stats_to_dict,
    _COLS_MAX,
    _batch_rows,
    _bin_counts,
    _bin_edges,
    _bin_fixups,
    _top_two_step,
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
    return max(len(helpers.dcs(pot, a)) for a in helpers.parents(pot))


def scenario_profile(spec):
    return chains_profile(parse_scenario(spec))


class TestScenarioValidation:
    def test_mer_requires_listed_percentage(self):
        with pytest.raises(ScenarioError):
            parse_scenario("mer:n=9,pct=20")
        with pytest.raises(ScenarioError):
            parse_scenario("mer:n=9,pct=35")

    def test_mer_requires_integral_degree(self):
        # 30% of eleven participants is not a whole neighbor count
        with pytest.raises(ScenarioError):
            parse_scenario("mer:n=10,pct=30")

    def test_mer_ratio_counts_the_seller(self):
        # the ratio is of the n + 1 nodes: 40% of 51 is rejected and named,
        # 40% of 50 gives seller degree 20, so 19 branches
        with pytest.raises(ScenarioError) as err:
            parse_scenario("mer:n=50,pct=40")
        assert "51 nodes" in str(err.value)
        assert len(parse_scenario("mer:n=49,pct=40")) == 19

    def test_mer_needs_at_least_one_neighbor(self):
        with pytest.raises(ScenarioError):
            parse_scenario("mer:n=1,pct=50")

    def test_md_depth_window(self):
        with pytest.raises(ScenarioError):
            parse_scenario("md:n=9,depth=0")
        with pytest.raises(ScenarioError) as err:
            parse_scenario("md:n=9,depth=7")
        assert "six" in str(err.value)
        with pytest.raises(ScenarioError):
            parse_scenario("md:n=2,depth=3")

    def test_symmetry_chain_cap(self):
        with pytest.raises(ScenarioError):
            parse_scenario("symmetry:sizes=7")
        with pytest.raises(ScenarioError):
            parse_scenario("symmetry:sizes=3+0")

    def test_explicit_kind_is_rejected(self):
        # a caller with a profile uses it directly; no scenario kind wraps one
        with pytest.raises(ConfigError):
            parse_scenario("explicit:profile=x")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            parse_scenario("galaxy:n=3")

    def test_mer_branch_count_is_the_seller_degree(self):
        # 30% of the ten nodes is the seller and two neighbours
        assert len(parse_scenario("mer:n=9,pct=30")) == 2


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
            prof = scenario_profile(f"mer:n=9,pct={pct}")
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
            prof = scenario_profile(f"md:n=9,depth={depth}")
            assert realized_sizes(prof) == sizes
            assert realized_depth(prof) == depth

    def test_symmetry_family(self):
        for sizes in [(1, 5), (2, 4), (3, 3)]:
            prof = scenario_profile("symmetry:sizes=" + "+".join(map(str, sizes)))
            assert realized_sizes(prof) == tuple(sorted(sizes, reverse=True))

    def test_chains_are_within_six_hops(self):
        for pct in (30, 40, 50, 100):
            prof = scenario_profile(f"mer:n=9,pct={pct}")
            assert realized_depth(prof) <= MAX_DEPTH

    def test_chain_template_shape(self):
        prof = chains_profile((2, 1))
        assert prof.seller_report() == frozenset({"a1", "a3"})
        assert helpers.action(prof, "a1").neighbors == frozenset({"a2"})
        assert helpers.action(prof, "a2").neighbors == frozenset()
        assert all(a.bid == 0.0 for a in prof.bidders())


class TestParseScenario:
    def test_round_trips(self):
        # the sizes in chain order, as the realised tree lists its branches
        for spec, sizes in [
            ("mer:n=9,pct=30", (5, 4)),
            ("md:n=9,depth=4", (4, 3, 2)),
            ("symmetry:sizes=3+3", (3, 3)),
            ("symmetry:sizes=1+5", (1, 5)),
        ]:
            assert parse_scenario(spec) == sizes
            assert subtree_profile(build_pot(build_graph(scenario_profile(spec)))).sizes == sizes

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
        template = scenario_profile("md:n=9,depth=4")
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

    def test_replicate_rows_at_a_batch_boundary(self):
        template = chains_profile((3, 6))
        d = TruncatedNormal(mu=50.0, sigma=16.67, vbar=100.0)
        order = sorted(a.agent for a in template.agents if a.agent != template.seller)
        n = len(order)
        B = _batch_rows(n)
        for i in (B - 1, B):
            g, row = divmod(i, B)
            want = d.quantile(np.random.default_rng([17, g]).random((B, n))[row])
            rep = draw_replicate(template, d, 17, i)
            assert [rep.bids()[a] for a in order] == want.tolist()

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
        with pytest.raises(ValidationError, match="runs must be an integer >= 1, got True"):
            monte_carlo(template, UNI, NONE, runs=True, master_seed=1)

    @pytest.mark.parametrize("seed", [-1, True, False, 1.0, "3", None])
    def test_seed_validation(self, seed, tmp_path):
        template = chains_profile((2,))
        path = tmp_path / "net.txt"
        path.write_text("a b\nb c\n")
        net = load_edge_list(path)
        message = f"seed must be an integer >= 0, got {seed!r}"
        with pytest.raises(ValidationError, match=message):
            monte_carlo(template, UNI, NONE, runs=10, master_seed=seed)
        with pytest.raises(ValidationError, match=message):
            draw_replicate(template, UNI, seed, 0)
        with pytest.raises(ValidationError, match=message):
            pick_seller(net, 2, seed)

    def test_seed_zero_is_a_seed(self, tmp_path):
        template = chains_profile((2,))
        path = tmp_path / "net.txt"
        path.write_text("a b\nb c\n")
        assert monte_carlo(template, UNI, NONE, runs=10, master_seed=0).master_seed == 0
        assert draw_replicate(template, UNI, 0, 0) == draw_replicate(template, UNI, 0, 0)
        assert pick_seller(load_edge_list(path), 2, 0) == "b"

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
        assert rep.bids()["ghost"] == 0.0
        assert rep.bids()["a"] > 0.0

    def test_replicate_columns_are_the_reachable_bidders(self):
        # cycles, self-links, links to the seller and to unknown ids, and
        # bidders the seller does not reach: the columns are the reachable
        # bidders in id order, every other bidder bids 0
        rng = np.random.default_rng(101)
        for _ in range(40):
            template = helpers.random_directed_profile(rng)
            order = sorted(helpers.slow_graph(template).reachable)
            if not order:
                with pytest.raises(DomainError):
                    draw_replicate(template, UNI, 5, 3)
                continue
            rep = draw_replicate(template, UNI, 5, 3)
            row = np.random.default_rng([5, 0]).random((4, len(order)))[3]
            want = dict.fromkeys(template.bids(), 0.0)
            want.update(zip(order, UNI.quantile(row).tolist()))
            assert rep.bids() == want

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

    def test_histogram_csv_edges_are_the_binning_edges(self, tmp_path):
        # 100 * (7 / 100) is 7.000000000000001, above the support
        stats = monte_carlo(chains_profile((2, 2)), Uniform(vbar=7.0), NONE, 500, 7)
        path = tmp_path / "hist.csv"
        write_histogram_csv(stats, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
        edges = _bin_edges(7.0).tolist()
        assert [float(lo) for lo, _, _ in rows] == edges[:-1]
        assert [float(hi) for _, hi, _ in rows] == edges[1:]
        assert rows[-1][1] == "7.0"


class TestBinCounts:
    """The batch's binning against np.histogram, value by value."""

    @pytest.mark.parametrize(
        "vbar",
        [
            100.0,
            7.0,
            0.3,
            123.456,
            # the smallest normal float and subnormals, where 100 / vbar
            # overflows and an edge's index can lie far from its integer
            2.2250738585072014e-308,
            1e-310,
            1e-315,
            1e-318,
            1e-320,
            1e-300,
            1e300,
        ],
    )
    def test_edges_and_their_neighbours(self, vbar):
        edges = _bin_edges(vbar)
        fixups = _bin_fixups(edges)
        values = np.concatenate(
            (
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                edges * (1.0 - 1e-12),
                edges * (1.0 + 1e-12),
                np.arange(101) * (vbar / 100),  # the edges of a scaled step
                np.random.default_rng(5).uniform(0.0, vbar, 200),
                [vbar],
            )
        )
        # one ulp below 0 and above vbar lie outside the support
        values = values[(values >= 0.0) & (values <= vbar)]
        assert np.array_equal(
            _bin_counts(values, edges, fixups), np.histogram(values, bins=100, range=(0.0, vbar))[0]
        )
        for v in values:
            one = np.array([v])
            got = _bin_counts(one, edges, fixups)
            assert np.array_equal(got, np.histogram(one, bins=100, range=(0.0, vbar))[0]), v


def _top_two_oracle(u, branch):
    """Each row's largest branch maximum, and the next one (None with one
    branch), from the sorted branch maxima."""
    maxima = np.stack([u[:, branch == b].max(axis=1) for b in range(branch.max() + 1)], axis=1)
    maxima.sort(axis=1)
    return maxima[:, -1], (maxima[:, -2] if maxima.shape[1] > 1 else None)


def _assert_same_bits(got, want, what):
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), what


# branch sizes across the column path (n <= _COLS_MAX), one branch, and the
# share rule: sum (k/n)**2 against 1/3, and below, at and above 1/2
_TOP_TWO_SIZES = [
    (1,),
    (1, 1),
    (2,),
    (3, 6),
    (9,),
    (6, 6, 6, 6),
    (1,) * 25,
    (20, 5),
    (_COLS_MAX,),
    (_COLS_MAX - 9, 4, 3, 2, 1),
    (_COLS_MAX - 8, 4, 3, 2, 1),
    (60,),
    (1,) * 60,
    (10,) * 6,
    (20, 20, 20),  # share 1/3
    (21, 20, 20),
    (30, 30),  # share 1/2
    (59, 1),
    (50, 10),
    (600,),
    (1,) * 600,
    (200, 200, 200),
    (300, 300),
]


class TestTopTwo:
    """The batch's top-two step against per-row branch maxima, sorted, bit
    for bit: m1 always, m2 with two or more branches."""

    @staticmethod
    def _branch(sizes, rng):
        # columns of a branch need not be adjacent
        return rng.permutation(np.repeat(np.arange(len(sizes)), sizes))

    @staticmethod
    def _draws(branch, rng, rows=96):
        n = branch.size
        fine = rng.random((rows, n))
        # coarse draws tie often, in a branch and across branches, and hit 0
        coarse = rng.integers(0, 4, (rows, n)) / 4.0
        u = np.concatenate((fine, coarse, np.zeros((2, n)), fine[:8]))
        last = len(u) - 8
        for r in range(last, len(u)):
            k = int(u[r].argmax())
            own = np.flatnonzero(branch == branch[k])
            other = np.flatnonzero(branch != branch[k])
            if r % 2 and other.size:
                u[r, rng.choice(other)] = u[r, k]  # the top ties another branch
            elif own.size > 1:
                u[r, rng.choice(own[own != k])] = u[r, k]  # and its own
        u[len(fine) + len(coarse), rng.integers(n)] = 0.5  # one draw above zeros
        return u

    @pytest.mark.parametrize("sizes", _TOP_TWO_SIZES, ids=lambda s: f"{len(s)}:{'+'.join(map(str, s[:4]))}")
    def test_against_sorted_branch_maxima(self, sizes):
        rng = np.random.default_rng(sum(sizes) * 31 + len(sizes))
        branch = self._branch(sizes, rng)
        u = self._draws(branch, rng)
        want1, want2 = _top_two_oracle(u, branch)
        m1 = np.full(len(u), np.nan)
        m2 = np.full(len(u), np.nan)
        _top_two_step(branch)(u.copy(), m1, m2)
        _assert_same_bits(m1, want1, sizes)
        if want2 is not None:
            _assert_same_bits(m2, want2, sizes)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blocks_of_a_batch(self, threads, monkeypatch):
        """Through monte_carlo: each block's draws give the oracle's top two,
        and the blocks of a batch fill its arrays without overlap."""
        real = simulation._top_two_step
        calls = []

        def recording(branch):
            step = real(branch)

            def recorded(u, m1, m2):
                drawn = u.copy()
                step(u, m1, m2)
                calls.append((drawn, m1, m2))

            return recorded

        monkeypatch.setattr(simulation, "_BLOCK_CELLS", 5_000)
        rng = np.random.default_rng(77)
        for sizes in ((3, 6), (1,) * 60, (30, 30), (70,), (300, 300)):
            calls.clear()
            branch = self._branch(sizes, rng)
            market = Market(branch=branch, profile=SubtreeProfile.from_sizes(sizes))
            n = branch.size
            runs = 2 * _batch_rows(n) + 3
            want = monte_carlo(market, UNI, FIX50, runs, master_seed=12)
            with monkeypatch.context() as spied:
                spied.setattr(simulation, "_top_two_step", recording)
                got = monte_carlo(market, UNI, FIX50, runs, master_seed=12, threads=threads)
            assert got == want
            assert sum(len(drawn) for drawn, _, _ in calls) == runs
            batches = {}
            for drawn, m1, m2 in calls:
                batches.setdefault(id(m1.base), []).append((drawn, m1.base, m2.base))
            assert len(batches) == 3
            assert max(len(blocks) for blocks in batches.values()) > 1
            for blocks in batches.values():
                drawn = np.concatenate([b[0] for b in blocks])
                want1, want2 = _top_two_oracle(drawn, branch)
                _assert_same_bits(blocks[0][1], want1, (sizes, threads))
                if want2 is not None:
                    _assert_same_bits(blocks[0][2], want2, (sizes, threads))


_DIFF_PRIORS = [
    ("uniform", UNI),
    ("normal", TruncatedNormal(mu=50.0, sigma=16.67, vbar=100.0)),
    ("exp", TruncatedExponential(lam=0.08, vbar=100.0)),
    # the inverse normal cdf steps down at ulp scale between about 0.84 and
    # 0.95 (mu near 0 maps the draws to [0.49, 1)) and below about 0.18 (mu
    # beyond vbar maps every draw below 0.11)
    ("normal_mu_near_0", TruncatedNormal(mu=0.5, sigma=16.67, vbar=100.0)),
    ("normal_lower_tail", TruncatedNormal(mu=150.0, sigma=40.0, vbar=100.0)),
]


# priors at the band's limits: a peak density of about 4e6, where values
# 1e-9 apart in probability round to the same float, so the quantile and
# cdf part by more than the band; and a normal truncated to a tail holding
# 3e-14 of its mass, whose cdf and quantile agree to about 1e-14 only
# because they read that tail
_BAND_PRIORS = _DIFF_PRIORS + [
    ("normal_narrow", TruncatedNormal(mu=50.0, sigma=1e-7, vbar=100.0)),
    ("normal_far_below_0", TruncatedNormal(mu=-300.0, sigma=40.0, vbar=100.0)),
]


def _diff_templates():
    """(name, template, runs); runs straddle each template's batch rows."""
    large = [
        helpers.random_large_profile(np.random.default_rng(n), n, extra)
        for n, extra in ((1000, 0.3), (2000, 0.1), (3000, 0.05))
    ]
    leaves = [f"l{i:03d}" for i in range(600)]
    star = helpers.truthful_from_values(
        dict.fromkeys(["h", *leaves], 1.0), {helpers.SELLER: ["h"], "h": leaves}
    )
    return [
        ("one_chain", chains_profile((4,)), 16_384 + 5),
        ("one_bidder", chains_profile((1,)), 300),
        ("chains_3_6", chains_profile((3, 6)), 16_384 + 6),
        ("two_bidders", chains_profile((1, 1)), 5_000),
        ("chains_6_to_1", chains_profile((6, 5, 4, 3, 2, 1)), 20_000),
        ("random_small", helpers.random_connected_profile(np.random.default_rng(3)), 16_400),
        *((f"large_{len(t.agents) - 1}", t, 1_000_000 // (len(t.agents) - 1) + 7) for t in large),
        # both sides of the column-view threshold
        ("cols_max_one_chain", chains_profile((_COLS_MAX,)), 16_384 + 5),
        ("cols_max_mixed", chains_profile((_COLS_MAX - 10, 5, 3, 1, 1)), 16_384 + 9),
        ("cols_max_plus_one", chains_profile((_COLS_MAX - 9, 4, 3, 2, 1)), 16_384 + 13),
        # one branch above the threshold: its second value is the mask's 0
        ("one_chain_40", chains_profile((40,)), 16_384 + 11),
        ("star_600", star, 1_000_000 // 601 + 7),
    ]


class TestAgainstSlowMonteCarlo:
    """monte_carlo on the uniforms' top two against the estimator that
    applied the quantile to every draw (tests/helpers.py)."""

    def test_random_cases(self):
        rng = np.random.default_rng(4242)
        cases = 0
        for name, template, runs in _diff_templates():
            for prior_name, d in _DIFF_PRIORS:
                kind = cases % 3
                if kind == 0:
                    policy = NONE
                elif kind == 1:
                    policy = ReservePolicy("fixed", r=float(rng.uniform(0.0, d.vbar)))
                else:
                    policy = ReservePolicy("fixed", r=d.vbar)
                threads = 1 + cases % 2
                seed = int(rng.integers(2**31))
                got = monte_carlo(template, d, policy, runs, seed, threads=threads)
                want = helpers.slow_monte_carlo(template, d, policy, runs, seed)
                assert got == want, (name, prior_name, policy, threads)
                cases += 1
        assert cases >= 40

    def test_reserves_at_the_band(self):
        """A batch decides a sale with the quantile only for top uniforms
        within 1e-9 of F(reserve). Reserves on a replicate's own top bid put
        that replicate's top uniform inside the band; 0 and vbar are the
        ends of the support. The narrow normal needs the fallback to every
        row."""
        templates = [
            ("one_chain", chains_profile((4,)), 16_384 + 5),
            ("two_bidders", chains_profile((1, 1)), 3_000),
            ("chains_3_6", chains_profile((3, 6)), 16_384 + 6),
        ]
        cases = 0
        for name, template, runs in templates:
            for prior_name, d in _BAND_PRIORS:
                seed = 500 + cases
                i = runs - 1 - 97 * cases  # a different replicate each case
                top = max(draw_replicate(template, d, seed, i).bids().values())
                for r in (top, 0.0, d.vbar):
                    policy = ReservePolicy("fixed", r=r)
                    want = helpers.slow_monte_carlo(template, d, policy, runs, seed)
                    for threads in (1, 2):
                        got = monte_carlo(template, d, policy, runs, seed, threads=threads)
                        assert got == want, (name, prior_name, r, threads)
                cases += 1

    def test_fallback_sells_below_the_band(self):
        """Under a peak density of about 4e6 one value spans about 3e-8 in
        probability, so a replicate whose top uniform lies below F(r) - 1e-9
        can still bid r, its own top value: only the fallback to every row
        sells it."""
        d = TruncatedNormal(mu=50.0, sigma=1e-7, vbar=100.0)
        template, runs, seed = chains_profile((3, 6)), 3_000, 7
        # one batch: replicate i is row i of batch 0
        top = np.random.default_rng([seed, 0]).random((runs, 9)).max(axis=1)
        value = d.quantile(top)
        below = np.flatnonzero(top < d.cdf(value) - 1e-9)
        assert below.size > runs // 10
        policy = ReservePolicy("fixed", r=float(value[below[0]]))
        got = monte_carlo(template, d, policy, runs, seed)
        assert got == helpers.slow_monte_carlo(template, d, policy, runs, seed)

    def test_quantile_only_where_revenue_can_change(self):
        """Below the band a value counts only as missing the reserve: the
        batches map fewer uniforms than there are replicates."""
        mapped = []

        class Counted(Uniform):
            def quantile(self, p):
                mapped.append(np.size(p))
                return super().quantile(p)

        runs = 16_384 + 6
        policy = ReservePolicy("fixed", r=63.0)
        got = monte_carlo(chains_profile((3, 6)), Counted(vbar=100.0), policy, runs, 8)
        assert got == helpers.slow_monte_carlo(chains_profile((3, 6)), UNI, policy, runs, 8)
        assert sum(mapped) < runs


class TestBlocks:
    """A batch drawn and reduced in row blocks gives the stats of the same
    batch drawn whole, whatever the block size and thread count."""

    @staticmethod
    def _cases():
        net = helpers.random_network(np.random.default_rng(303), 300, 450)
        market = Market.from_network(net, pick_seller(net, 2, seed=3))
        normal = TruncatedNormal(mu=50.0, sigma=16.67, vbar=100.0)
        n = market.profile.n
        # one replicate into a second batch, the second a short one
        yield "network", market, normal, ReservePolicy("general_gamma", kmin=2), _batch_rows(n) + 1
        # the column path, one batch of a few thousand rows
        yield "chains", Market.from_profile(chains_profile((3, 6, 6, 6))), UNI, FIX50, 3_001

    def test_any_block_size_gives_the_one_block_stats(self, monkeypatch):
        for name, market, d, policy, runs in self._cases():
            n = market.profile.n
            monkeypatch.setattr(simulation, "_BLOCK_CELLS", _batch_rows(n) * n)  # one block
            want = monte_carlo(market, d, policy, runs, master_seed=11)
            for cells in (1, n - 1, n + 1, 3 * n + 1):
                monkeypatch.setattr(simulation, "_BLOCK_CELLS", cells)
                for threads in (1, 2):
                    got = monte_carlo(market, d, policy, runs, master_seed=11, threads=threads)
                    assert got == want, (name, cells, threads)

    def test_ten_thousand_node_memory(self, tmp_path):
        """A 10k-node batch of 100 rows holds 8 MB of draws drawn whole; in
        blocks it holds at most 2 MB. Ingest keeps one integer, not one
        string, per endpoint."""
        rng = np.random.default_rng(2024)
        path = tmp_path / "net.txt"
        path.write_text("".join(f"v{u} v{v}\n" for u, v in rng.integers(0, 10_000, (30_000, 2))))
        tracemalloc.start()
        try:
            net = load_edge_list(path)
            _, ingest_peak = tracemalloc.get_traced_memory()
            market = Market.from_network(net, pick_seller(net, 4, seed=1))
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            monte_carlo(market, UNI, ReservePolicy("uniform_gamma", kmin=2), runs=300, master_seed=9)
            _, mc_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert market.profile.n > 9_000
        assert ingest_peak <= 5.5 * 2**20
        assert mc_peak - held <= 4 * 2**20


def _histogram_digest(stats):
    return hashlib.sha256(repr(stats.histogram).encode()).hexdigest()[:16]


class TestPinnedStats:
    """Exact RevenueStats of fixed-seed runs, recorded with the estimator
    that applied the quantile to every draw before taking branch maxima."""

    def _check(self, stats, mean, std_error, digest):
        assert stats.mean.hex() == mean
        assert stats.std_error.hex() == std_error
        assert _histogram_digest(stats) == digest

    def test_chains_normal_general_gamma(self):
        stats = monte_carlo(
            chains_profile((3, 6)),
            TruncatedNormal(mu=50.0, sigma=16.67, vbar=100.0),
            ReservePolicy("general_gamma", kmin=3),
            runs=40_000,
            master_seed=2026,
        )
        self._check(
            stats, "0x1.e817386854c9dp+5", "0x1.6ae5293e9c6aap-5", "426719a0ba159e8f"
        )
        assert stats.failure_rate == 0.00185

    def test_large_profile_exponential_two_threads(self):
        template = helpers.random_large_profile(np.random.default_rng(7), 1500, 0.5)
        stats = monte_carlo(
            template,
            TruncatedExponential(lam=0.08, vbar=100.0),
            ReservePolicy("fixed", r=60.0),
            runs=2_000,
            master_seed=31,
            threads=2,
        )
        self._check(
            stats, "0x1.46e3182c180fap+6", "0x1.3aac5b44d6f0dp-3", "0e86b240d1b8f125"
        )

    def test_ten_thousand_node_network(self):
        net = helpers.random_network(np.random.default_rng(2024), 10_000, 30_000)
        template = template_from_network(net, pick_seller(net, 4, seed=1))
        stats = monte_carlo(
            template, UNI, ReservePolicy("uniform_gamma", kmin=2), runs=300, master_seed=9
        )
        self._check(
            stats, "0x1.8feb293225055p+6", "0x1.dce308b0921a9p-11", "8dd6e17ea8cf50d6"
        )

    def test_ten_thousand_node_network_market(self):
        net = helpers.random_network(np.random.default_rng(2024), 10_000, 30_000)
        market = Market.from_network(net, pick_seller(net, 4, seed=1))
        stats = monte_carlo(
            market, UNI, ReservePolicy("uniform_gamma", kmin=2), runs=300, master_seed=9
        )
        self._check(
            stats, "0x1.8feb293225055p+6", "0x1.dce308b0921a9p-11", "8dd6e17ea8cf50d6"
        )


class TestMarket:
    """The Market read off a network's arrays against the one compiled from
    its full-propagation template through build_graph and build_pot."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(808)
        for n, edges in ((60, 70), (400, 500), (2000, 3000), (3000, 9000)):
            net = helpers.random_network(rng, n, edges)
            sellers = {pick_seller(net, rho, seed=n) for rho in (1, 2, 3)}
            sellers.add(net.labels[int(rng.integers(net.node_count()))])
            for seller in sorted(sellers):
                yield net, seller

    def test_same_market_as_the_template(self):
        for net, seller in self._cases():
            got = Market.from_network(net, seller)
            want = Market.from_profile(template_from_network(net, seller))
            assert got.profile == want.profile, seller
            assert np.array_equal(got.branch, want.branch), seller

    def test_same_stats_as_the_template(self):
        policies = (
            FIX50,
            ReservePolicy("general_gamma", kmin=2),
            ReservePolicy("global_opt"),
        )
        priors = (UNI, TruncatedNormal(mu=50.0, sigma=16.67, vbar=100.0))
        cases = 0
        for net, seller in self._cases():
            template = template_from_network(net, seller)
            market = Market.from_network(net, seller)
            policy = policies[cases % len(policies)]
            d = priors[cases % len(priors)]
            # one replicate into a second batch
            runs = min(_batch_rows(market.profile.n) + 1, 3_000)
            for threads in (1, 2):
                got = monte_carlo(market, d, policy, runs, master_seed=cases, threads=threads)
                want = monte_carlo(template, d, policy, runs, master_seed=cases, threads=threads)
                assert got == want, (seller, policy, threads)
            cases += 1
        assert cases >= 12

    def test_unknown_seller(self):
        net = helpers.network_from_edges(["a", "b", "d"], ["b", "c", "d"])
        assert net.labels == ("a", "b", "c")  # d is named in a self-loop only
        assert Market.from_network(net, "a").profile.sizes == (2,)
        for seller in ("zz", "d"):
            with pytest.raises(KeyError):
                Market.from_network(net, seller)


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
        assert net.neighbors("a") == ("b",)
        assert net.neighbors("b") == ("a", "c")

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
        assert frozenset(template.bids()) == frozenset({"b"})
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

    def test_same_graph_as_the_dict_reader(self, tmp_path):
        # comments after leading blanks, CRLF endings, tabs and Unicode
        # blanks, extra columns, a '#' inside a label, repeated, reversed
        # and self-loop lines, and labels that differ only in a trailing NUL
        text = (
            "% header\r\n  # indented comment\r\n\r\n"
            "a\tb\r\nb  a 0.5\r\nb\u3000c 1 2 3\nc#1 c\nd d\n"
            "\x85e\xa0f\ne f\nf e x\n \t \nz\x00 z\nz z\x00\nz a\n"
        )
        path = tmp_path / "messy.txt"
        path.write_text(text, encoding="utf-8", newline="")
        net = load_edge_list(path)
        want = helpers.slow_load_adjacency(path)
        assert net.labels == tuple(sorted(want))
        assert {u: frozenset(net.neighbors(u)) for u in net.labels} == want
        assert net.edge_count() == sum(map(len, want.values())) // 2
        assert "d" not in net.labels and "z\x00" in net.labels

        rng = np.random.default_rng(17)
        labels = [f"n{i}" for i in range(60)]
        lines = [
            f"{labels[u]} {labels[v]}" for u, v in rng.integers(0, 60, size=(200, 2))
        ]
        path.write_text("\n".join(lines))
        net = load_edge_list(path)
        want = helpers.slow_load_adjacency(path)
        assert {u: frozenset(net.neighbors(u)) for u in net.labels} == want

    def test_errors_match_the_dict_reader(self, tmp_path):
        path = tmp_path / "bad.txt"
        for text in ("a b\n# c\n\n  lonely  \nc d\n", "x\n", "a b\r\nb\u3000\r\n"):
            path.write_text(text, encoding="utf-8", newline="")
            with pytest.raises(EdgeListFormatError) as got:
                load_edge_list(path)
            with pytest.raises(EdgeListFormatError) as want:
                helpers.slow_load_adjacency(path)
            assert str(got.value) == str(want.value)

    def test_empty_edge_list(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n\nz z\n")
        net = load_edge_list(path)
        assert (net.node_count(), net.edge_count()) == (0, 0)
        with pytest.raises(LookupError):
            pick_seller(net, 1, seed=1)

    def test_pick_seller_in_sorted_label_order(self, tmp_path):
        labels = ["a9", "a10", "B", "b", "é", "ß", "007", "a", "a\x00"]
        path = tmp_path / "mixed.txt"
        path.write_text("".join(f"hub {x}\n" for x in labels), encoding="utf-8")
        net = load_edge_list(path)
        assert net.labels == tuple(sorted(labels + ["hub"]))
        ordered = sorted(labels)
        for seed in range(40):
            want = ordered[int(np.random.default_rng(seed).integers(len(labels)))]
            assert pick_seller(net, 1, seed=seed) == want
        assert pick_seller(net, len(labels), seed=3) == "hub"

    def test_byte_order_mark_is_not_part_of_a_label(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(codecs.BOM_UTF8 + b"a b\nb c\nc a\n")
        net = load_edge_list(path)
        assert net.labels == ("a", "b", "c")
        assert net.edge_count() == 3  # a triangle, not a path
        path.write_bytes(codecs.BOM_UTF8 + b"# u v\na b\n")
        assert load_edge_list(path).labels == ("a", "b")

    @staticmethod
    def _messy_file(rng, path):
        """A random edge list and the pairs its data lines hold."""
        labels = [f"n{i}" for i in range(30)] + ["é", "ß", "日本", "Ω7", "a#b", "x%"]
        # labels of 8, 9, 16, 17 and 25 bytes that share their first 8, and
        # labels that differ only in trailing NULs or hold control bytes
        labels += ["abcdefgh", "abcdefghi", "abcdefgh" * 2, "abcdefgh" * 2 + "i"]
        labels += ["abcdefgh" * 3 + "x", "z", "z\x00", "z\x00\x00", "a\x01b", "\x01", "\x08"]
        seps = [" ", "\t", "  ", " \t ", "\u3000", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"]
        lines, pairs = [], []
        for _ in range(int(rng.integers(0, 120))):
            kind = rng.random()
            if kind < 0.1:
                lines.append(str(rng.choice(["# note", "% header 3 4", "  # indented", "#"])))
            elif kind < 0.18:
                lines.append(str(rng.choice(["", "   ", "\t"])))
            elif kind < 0.25:
                # a label named only in self-loops is no node
                u = str(rng.choice(labels[:3] + ["solo"]))
                lines.append(f"{u} {u}")
                pairs.append((u, u))
            else:
                u, v = (str(x) for x in rng.choice(labels, size=2))
                extra = str(rng.choice(["", " 1.5", "\t7 1086400", " w"]))
                lead = str(rng.choice(["", " ", "\t"]))
                lines.append(f"{lead}{u}{rng.choice(seps)}{v}{extra}")
                pairs.append((u, v))
        ends = [str(rng.choice(["\n", "\r\n"])) for _ in lines]
        path.write_text("".join(map(str.__add__, lines, ends)), encoding="utf-8", newline="")
        return lines, ends, pairs

    def test_random_files_match_both_references(self, tmp_path):
        def from_adjacency(adj):
            labels = sorted(adj)
            at = {x: i for i, x in enumerate(labels)}
            rows = [sorted(at[w] for w in adj[x]) for x in labels]
            indptr = np.cumsum([0] + [len(r) for r in rows])
            return labels, indptr, [i for r in rows for i in r]

        rng = np.random.default_rng(2121)
        path = tmp_path / "messy.txt"
        for case in range(60):
            lines, ends, pairs = self._messy_file(rng, path)
            net = load_edge_list(path)
            labels, indptr, indices = from_adjacency(helpers.slow_load_adjacency(path))
            assert net.labels == tuple(labels), case
            assert np.array_equal(net.indptr, indptr), case
            assert np.array_equal(net.indices, indices), case
            same = helpers.network_from_edges([u for u, _ in pairs], [v for _, v in pairs])
            assert same.labels == net.labels, case
            for a, b in ((same.indptr, net.indptr), (same.indices, net.indices)):
                assert a.dtype == b.dtype and np.array_equal(a, b), case
            assert "solo" not in net.labels
            # a one-token line anywhere is named by its line number
            at = int(rng.integers(len(lines) + 1))
            lines.insert(at, str(rng.choice(["lonely", " é ", "x%\t"])))
            ends.insert(at, "\r\n")
            path.write_text("".join(map(str.__add__, lines, ends)), encoding="utf-8", newline="")
            with pytest.raises(EdgeListFormatError) as got:
                load_edge_list(path)
            with pytest.raises(EdgeListFormatError) as want:
                helpers.slow_load_adjacency(path)
            assert str(got.value) == str(want.value), case
            assert f"line {at + 1}:" in str(got.value), case

    @staticmethod
    def _assert_matches_references(path, case=None, adjacency=True):
        """``load_edge_list`` gives the per-line reader's ``Network``, dtypes
        too, and the dict reader's graph, or the error text of both."""
        try:
            want = helpers.slow_load_edge_list(path)
        except EdgeListFormatError as exc:
            with pytest.raises(EdgeListFormatError) as got:
                load_edge_list(path)
            assert str(got.value) == str(exc), case
            if adjacency:
                with pytest.raises(EdgeListFormatError) as slow:
                    helpers.slow_load_adjacency(path)
                assert str(got.value) == str(slow.value), case
            return
        net = load_edge_list(path)
        assert net.labels == want.labels, case
        for a, b in ((want.indptr, net.indptr), (want.indices, net.indices)):
            assert a.dtype == b.dtype and np.array_equal(a, b), case
        if adjacency:
            adj = helpers.slow_load_adjacency(path)
            assert net.labels == tuple(sorted(adj)), case
            assert {u: frozenset(net.neighbors(u)) for u in net.labels} == adj, case

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_block_cuts_match_both_references(self, block, tmp_path, monkeypatch):
        monkeypatch.setattr(simulation, "_BLOCK", block)
        rng = np.random.default_rng(2500 + block)
        path = tmp_path / "messy.txt"
        for case in range(15):
            lines, ends, _ = self._messy_file(rng, path)
            self._assert_matches_references(path, case)
            # the same lines with CR line ends only
            path.write_text("".join(line + "\r" for line in lines), encoding="utf-8", newline="")
            self._assert_matches_references(path, case)
            at = int(rng.integers(len(lines) + 1))
            lines.insert(at, str(rng.choice(["lonely", " é ", "x%\t", "a\x1f"])))
            ends.insert(at, str(rng.choice(["\n", "\r\n"])))
            path.write_text("".join(map(str.__add__, lines, ends)), encoding="utf-8", newline="")
            with pytest.raises(EdgeListFormatError, match=f"line {at + 1}:"):
                load_edge_list(path)
            self._assert_matches_references(path, case)

    def test_cuts_inside_line_ends_characters_and_the_bom(self, tmp_path, monkeypatch):
        path = tmp_path / "cuts.txt"
        texts = [
            "a b\r\nc d\r\n\r\ne f\r\n",
            "é\u3000日本\r\nΩ7\u3000\u3000é x\n\u3000z z\x00\n\u3000\n",
            "a b\rb c\r\rc a\r",
            "a b\r\n\rb\u3000\r\nc d\r",
            "a b\rlonely\r",
        ]
        for block in range(1, 12):
            monkeypatch.setattr(simulation, "_BLOCK", block)
            for text in texts:
                path.write_bytes(text.encode())
                self._assert_matches_references(path, (block, text))
                # a byte-order mark longer than the smallest blocks
                path.write_bytes(codecs.BOM_UTF8 + text.encode())
                self._assert_matches_references(path, (block, text), adjacency=False)

    @pytest.mark.parametrize("block", [16, simulation._BLOCK])
    def test_labels_of_any_length_sort_as_python_does(self, block, tmp_path, monkeypatch):
        monkeypatch.setattr(simulation, "_BLOCK", block)
        prefix = "abcdefgh"
        labels = [
            prefix, prefix + "i", prefix * 2, prefix * 2 + "i", prefix * 2 + "\x00",
            prefix * 3 + "xyz", prefix + "\x00", "z", "z\x00", "z\x00\x00", "a\x01b",
            "\x01", "\x08", "\x00", "a\x7f", "é", "\U0001f600", "x" * 100,
        ]
        seps = [" ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"]
        # short labels first, so that later blocks pack wider keys
        lines = "".join(f"h{i} h{i + 1}\n" for i in range(6))
        lines += "".join(f"hub{seps[i % len(seps)]}{x}\n" for i, x in enumerate(labels))
        path = tmp_path / "labels.txt"
        path.write_text(lines, encoding="utf-8")
        net = load_edge_list(path)
        assert net.labels == tuple(sorted(labels + ["hub"] + [f"h{i}" for i in range(7)]))
        assert net.neighbors("hub") == tuple(sorted(labels))
        self._assert_matches_references(path)

    def test_whitespace_table(self):
        wide = {c for c in map(chr, range(0x80, 0x110000)) if c.isspace()}
        assert {w.decode() for w, _ in simulation._WIDE_SPACES} == wide
        assert all(s == b" " * len(w) for w, s in simulation._WIDE_SPACES)
        # ASCII whitespace codes to 0 but LF to 1, every other byte to 2 or
        # more, rising with the byte
        code = simulation._CODE
        assert {chr(b) for b in range(256) if code[b] < 2} == {
            c for c in map(chr, range(0x80)) if c.isspace()
        }
        assert code[10] == 1
        rest = [code[b] for b in range(256) if code[b] >= 2]
        assert rest == sorted(set(rest)) and len(rest) == 256 - 10

    @pytest.mark.parametrize("end", ["\r", "\r\n"])
    def test_not_utf8_names_its_line_counted_at_lf(self, end, tmp_path, monkeypatch):
        monkeypatch.setattr(simulation, "_BLOCK", 64)
        path = tmp_path / "bad.txt"
        for before in (2, 40):  # the bad byte in the first block, then a later one
            head = "".join(f"n{i} n{i + 1}{end}" for i in range(before)).encode()
            path.write_bytes(head + b"x \xff y" + end.encode() + b"c d\n")
            with pytest.raises(EdgeListFormatError) as got:
                load_edge_list(path)
            line = head.count(b"\n") + 1
            assert str(got.value) == f"{path}: line {line}: not UTF-8 text"
            with pytest.raises(EdgeListFormatError) as want:
                helpers.slow_load_edge_list(path)
            assert str(got.value) == str(want.value)

    def test_first_of_two_errors_is_named(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"a b\nlonely\nc \xff\n")
        with pytest.raises(EdgeListFormatError, match="line 2: expected two node ids"):
            load_edge_list(path)
        path.write_bytes(b"a b\nc \xff\nlonely\n")
        with pytest.raises(EdgeListFormatError, match="line 2: not UTF-8 text"):
            load_edge_list(path)
        # the first two bytes of a byte-order mark, and no more
        path.write_bytes(codecs.BOM_UTF8[:2])
        with pytest.raises(EdgeListFormatError, match="line 1: not UTF-8 text"):
            load_edge_list(path)

    def test_undirected_symmetry(self, tmp_path):
        path = tmp_path / "sym.txt"
        path.write_text("x y\n")
        net = load_edge_list(path)
        assert net.neighbors("x") == ("y",)
        assert net.neighbors("y") == ("x",)
        assert helpers.network_from_edges(["x", "y"], ["y", "x"]).edge_count() == 1
