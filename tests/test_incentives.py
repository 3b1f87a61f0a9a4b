"""Deviation search tests: truthfulness holds where proven, fails where not."""

import dataclasses
import math

import numpy as np
import pytest

import helpers
from helpers import enumerate_deviations, utilities
from netauction import incentives
from netauction.distributions import TruncatedNormal, Uniform
from netauction.errors import DomainError, ValidationError
from netauction.graphs import (
    ActionProfile,
    AgentAction,
    build_graph,
    build_pot,
    subtree_profile,
)
from netauction.incentives import (
    DeviationGrid,
    _bid_candidates,
    check_dsic,
    counterexample_instance,
    report_to_dict,
    ropt_counterexample,
)
from netauction.mechanism import _outside_tops, clear, run_apx_r
from netauction.reserve import ReservePolicy, global_optimal_reserve, resolve_reserve

UNI = Uniform(vbar=100.0)
NORM = TruncatedNormal(mu=50.0, sigma=16.67, vbar=100.0)

DSIC_POLICIES = [
    ReservePolicy(kind="none"),
    ReservePolicy(kind="fixed", r=30.0),
    ReservePolicy(kind="uniform_gamma", kmin=2),
    ReservePolicy(kind="general_gamma", kmin=1),
]


class TestEnumeration:
    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            DeviationGrid(points=1)

    @pytest.mark.parametrize("points", [0, -3, 2.5, 21.0, True, "21", None])
    def test_grid_needs_an_integer(self, points):
        # 2.5 used to fail with a TypeError from inside the grid
        with pytest.raises(ValidationError, match="points must be an integer >= 2, got "):
            DeviationGrid(points=points)

    def test_grid_is_linspace_to_the_bit(self):
        for vbar in (1.0, 7.0, 100.0, 123.456):
            for points in range(2, 102):
                grid = np.linspace(0.0, vbar, points).tolist()
                assert _bid_candidates(DeviationGrid(points), vbar, [], None) == grid

    def test_no_neighbors_bids_only(self):
        got = enumerate_deviations(40.0, frozenset(), DeviationGrid(5), 100.0)
        assert all(sub == frozenset() for _, sub in got)
        bids = [b for b, _ in got]
        assert bids == sorted(set(bids))
        assert 40.0 in bids
        assert 0.0 in bids and 100.0 in bids

    def test_subset_blowup_per_bid(self):
        got = enumerate_deviations(
            40.0, frozenset({"x", "y"}), DeviationGrid(5), 100.0
        )
        bids = {b for b, _ in got}
        assert len(got) == len(bids) * 4

    def test_truthful_action_included(self):
        neighbors = frozenset({"x", "y"})
        got = enumerate_deviations(40.0, neighbors, DeviationGrid(5), 100.0)
        assert (40.0, neighbors) in got

    def test_seller_link_not_part_of_the_search(self):
        got = enumerate_deviations(
            40.0, frozenset({"s", "x"}), DeviationGrid(3), 100.0, seller="s"
        )
        subsets = {sub for _, sub in got}
        assert subsets == {frozenset(), frozenset({"x"})}

    def test_critical_bids_injected(self):
        got = enumerate_deviations(
            40.0,
            frozenset(),
            DeviationGrid(2),
            100.0,
            others_bids=(63.0,),
            reserve=18.0,
        )
        bids = {b for b, _ in got}
        eps = 1e-6 * 100.0
        for must in (63.0, 18.0, 18.0 - eps, 18.0 + eps, 40.0, 0.0, 100.0):
            assert must in bids

    def test_bids_clipped_to_support(self):
        got = enumerate_deviations(
            100.0, frozenset(), DeviationGrid(2), 100.0, reserve=100.0
        )
        assert all(0.0 <= b <= 100.0 for b, _ in got)

    def test_subset_cap(self):
        # the cap counts the subsets the search enumerates: of every live
        # link under the global optimum, of the links into the bidder's own
        # subtree under any other policy
        many = [f"n{i:02d}" for i in range(13)]
        values = {"a": 40.0, **dict.fromkeys(many, 10.0)}
        outer = helpers.truthful_from_values(values, {"s": ["a", *many], "a": many})
        inner = helpers.truthful_from_values(values, {"s": ["a"], "a": many})
        ropt, ugamma = ReservePolicy(kind="global_opt"), ReservePolicy(kind="uniform_gamma", kmin=2)
        cap = r"exceed the 2\^12 subset cap$"
        with pytest.raises(DomainError, match=r"^agent 'a': 13 live links " + cap):
            check_dsic(outer, UNI, ropt, DeviationGrid(3))
        with pytest.raises(DomainError, match=r"^agent 'a': 13 links into its own subtree " + cap):
            check_dsic(inner, UNI, ugamma, DeviationGrid(3))
        reports = check_dsic(outer, UNI, ugamma, DeviationGrid(3))
        assert [r.agent for r in reports] == ["a", *many]
        reserve = resolve_reserve(ugamma, subtree_profile(build_pot(build_graph(outer))), UNI)
        listed = enumerate_deviations(
            40.0, frozenset(many), DeviationGrid(3), 100.0, [10.0] * 13, reserve, "s"
        )
        assert reports[0].deviations_tested == len(listed)


class TestDsicPolicies:
    @pytest.mark.parametrize("policy", DSIC_POLICIES, ids=lambda p: p.kind)
    def test_no_profitable_deviation_on_fixed_instances(self, policy):
        instances = [
            helpers.truthful_from_values(
                {"A": 30.0, "B": 70.0}, {"s": ["A"], "A": ["B"]}
            ),
            helpers.truthful_from_values(
                {"A": 30.0, "B": 70.0, "C": 60.0},
                {"s": ["A", "C"], "A": ["B"]},
            ),
            helpers.truthful_from_values(
                {"A": 30.0, "B": 70.0, "C": 60.0},
                {"s": ["A"], "A": ["B", "C"]},
            ),
        ]
        for truth in instances:
            for report in check_dsic(truth, UNI, policy):
                assert report.best_gain <= 1e-9, (policy.kind, report)

    def test_no_profitable_deviation_on_random_instances(self):
        rng = np.random.default_rng(47)
        policy = ReservePolicy(kind="fixed", r=40.0)
        for _ in range(8):
            truth = helpers.random_connected_profile(rng, n_max=5)
            for report in check_dsic(truth, UNI, policy, DeviationGrid(9)):
                assert report.best_gain <= 1e-9, report

    def test_truthful_play_is_individually_rational(self):
        rng = np.random.default_rng(53)
        policies = DSIC_POLICIES + [ReservePolicy(kind="global_opt")]
        for _ in range(4):
            truth = helpers.random_connected_profile(rng, n_max=5)
            for policy in policies:
                for report in check_dsic(truth, UNI, policy, DeviationGrid(5)):
                    assert report.truthful_utility >= -1e-12

    def test_unreachable_agent_skipped(self):
        truth = helpers.truthful_from_values(
            {"A": 30.0, "Z": 90.0}, {"s": ["A"]}
        )
        by_agent = {r.agent: r for r in check_dsic(truth, UNI, DSIC_POLICIES[0])}
        assert by_agent["Z"].deviations_tested == 0
        assert by_agent["Z"].best_gain == 0.0
        assert by_agent["A"].deviations_tested > 0

    def test_value_above_support_rejected(self):
        truth = helpers.truthful_from_values({"A": 130.0}, {"s": ["A"]})
        with pytest.raises(ValidationError):
            check_dsic(truth, UNI, DSIC_POLICIES[0])

    def test_withholding_never_helps_at_truthful_bid(self):
        # diffusion monotonicity, isolated from bid deviations: reporting
        # fewer neighbors can only shrink the relay reward
        rng = np.random.default_rng(59)
        policy = ReservePolicy(kind="fixed", r=35.0)
        for _ in range(6):
            truth = helpers.random_connected_profile(rng, n_max=5)
            values = truth.bids()
            for agent in values:
                neighbors = helpers.action(truth, agent).neighbors
                full = None
                worst = None
                for _, subset in enumerate_deviations(
                    values[agent], neighbors, DeviationGrid(2), 100.0,
                    seller=truth.seller,
                ):
                    deviated = helpers.replace_action(truth, agent, values[agent], subset)
                    out = run_apx_r(deviated, 35.0)
                    paid = out.payments.get(agent, 0.0)
                    u = values[agent] - paid if out.winner == agent else -paid
                    if subset == frozenset(neighbors - {truth.seller}):
                        full = u
                    worst = u if worst is None else max(worst, u)
                assert full is not None
                assert full >= worst - 1e-12

    def test_one_string_keyed_graph_per_search(self, monkeypatch):
        # every reported subset is read off the truth's integer tree, under
        # every policy: no deviated profile is assembled and only the
        # truth's graph is built
        built = []

        def counting_build_graph(profile):
            built.append(profile)
            return build_graph(profile)

        rng = np.random.default_rng(101)
        instances = [(counterexample_instance(), Uniform(vbar=1.0))]
        while len(instances) < 6:
            truth = helpers.random_directed_profile(rng, n_max=8)
            if build_graph(truth).reachable:
                instances.append((truth, UNI))
        monkeypatch.setattr(incentives, "build_graph", counting_build_graph)
        for truth, d in instances:
            policies = [
                ReservePolicy(kind="none"),
                ReservePolicy(kind="fixed", r=0.3 * d.vbar),
                ReservePolicy(kind="uniform_gamma", kmin=2),
                ReservePolicy(kind="general_gamma", kmin=1),
                ReservePolicy(kind="global_opt"),
            ]
            for policy in policies:
                built.clear()
                assert check_dsic(truth, d, policy, DeviationGrid(5))
                assert built == [truth], policy.kind

    def test_deviator_case_coverage(self):
        # every deviation outcome puts the deviator in one of three spots:
        # winning, relaying on the winner's critical path, or uninvolved
        truth = helpers.truthful_from_values(
            {"A": 30.0, "B": 40.0, "C": 60.0, "D": 85.0},
            {"s": ["A"], "A": ["B", "C"], "C": ["D"]},
        )
        seen = set()
        for bid, subset in enumerate_deviations(
            60.0, frozenset({"D"}), DeviationGrid(7), 100.0,
            others_bids=(30.0, 40.0, 85.0), reserve=25.0,
        ):
            deviated = helpers.replace_action(truth, "C", bid, subset)
            out = run_apx_r(deviated, 25.0)
            if out.failed:
                continue
            pot = build_pot(build_graph(deviated))
            path = helpers.dcs(pot, out.winner)
            if out.winner == "C":
                seen.add("wins")
                assert out.payments["C"] >= 25.0
            elif "C" in path:
                seen.add("relays")
                assert out.payments["C"] <= 0.0
            else:
                seen.add("bystander")
                assert out.payments.get("C", 0.0) == 0.0
        assert seen == {"wins", "relays", "bystander"}


class TestSearchShortcuts:
    """What the search leaves out: links that cannot move a utility, and
    bid candidates that cannot come first."""

    @staticmethod
    def _tens(rng, truth):
        # every bid redrawn as a multiple of 10: many ties
        return TestAgainstSlowReference._rebid(truth, lambda: 10.0 * float(rng.integers(0, 11)))

    @pytest.mark.parametrize("policy", DSIC_POLICIES[:3], ids=lambda p: p.kind)
    def test_outer_links_never_change_a_fixed_reserve_report(self, policy):
        # 13 links out of the deviator's subtree, to bidders the seller
        # informs itself: past the subset cap, yet the report is the one
        # without them, but for the deviations counted and, with no gain,
        # the truthful report named
        rng = np.random.default_rng(113)
        extra = frozenset(f"y{i:02d}" for i in range(13))
        for k in range(12):
            truth = helpers.random_connected_profile(rng, n_max=5)
            if k % 2:
                truth = self._tens(rng, truth)
            rows = [AgentAction(truth.seller, 0.0, truth.seller_report() | extra), *truth.bidders()]
            rows += [AgentAction(y, 10.0 * float(rng.integers(0, 11)), ()) for y in sorted(extra)]
            without = ActionProfile(truth.seller, tuple(rows))
            agent = sorted(truth.bids())[int(rng.integers(0, len(truth.bids())))]
            links = helpers.action(without, agent).neighbors | extra
            with_links = helpers.replace_action(without, agent, without.bids()[agent], links)
            want = check_dsic(without, UNI, policy, DeviationGrid(5))
            got = check_dsic(with_links, UNI, policy, DeviationGrid(5))
            assert [r.agent for r in got] == [r.agent for r in want]
            for g, w in zip(got, want):
                if g.agent == agent:
                    assert g.deviations_tested == w.deviations_tested << 13
                    assert g.best_report - extra == w.best_report
                    g = dataclasses.replace(
                        g, deviations_tested=w.deviations_tested, best_report=w.best_report
                    )
                assert g == w, (policy.kind, truth, agent)

    def test_links_into_the_own_branch_outside_the_subtree_move_no_ropt_report(self):
        # h dominates the 13 bidders that v, x and y each inform, so v's
        # links stay in h's branch outside v's subtree and no subset of them
        # moves a branch size: past the subset cap, the global optimum
        # answers as if v reported none, but for the deviations counted
        many = [f"b{i:02d}" for i in range(13)]
        values = {"h": 30.0, "v": 55.0, "x": 20.0, "y": 45.0}
        values |= {b: 2.0 + 7.0 * i for i, b in enumerate(many)}
        reports = {"s": ["h"], "h": ["v", "x", "y"], "v": many, "x": many, "y": many}
        truth = helpers.truthful_from_values(values, reports)
        silent = helpers.truthful_from_values(values, {**reports, "v": []})
        ropt = ReservePolicy(kind="global_opt")
        got = {r.agent: r for r in check_dsic(truth, UNI, ropt, DeviationGrid(5))}
        want = {r.agent: r for r in check_dsic(silent, UNI, ropt, DeviationGrid(5))}
        g, w = got.pop("v"), want.pop("v")
        assert (g.truthful_utility, g.best_gain, g.best_bid) == (
            w.truthful_utility, w.best_gain, w.best_bid
        )
        assert g.deviations_tested == w.deviations_tested << 13
        assert got == want

    def test_global_opt_enumerates_live_links_as_the_slow_search(self, monkeypatch):
        # random directed reports under the global optimum, against the
        # reference that enumerates every link. The links enumerated are
        # those into the bidder's subtree or into another branch, which
        # enter at its head; those into its own branch outside its subtree
        # are left out
        enumerated = {}
        subsets = incentives._subsets

        def spy(agent, links, what):
            enumerated[agent] = list(links)
            return subsets(agent, links, what)

        monkeypatch.setattr(incentives, "_subsets", spy)
        rng = np.random.default_rng(2718)
        ropt = ReservePolicy(kind="global_opt")
        left_out = heads = 0
        for k in range(40):
            truth = helpers.random_directed_profile(rng, n_max=8)
            d = UNI if k % 2 else TruncatedNormal(mu=50.0, sigma=16.67, vbar=100.0)
            pot = build_pot(build_graph(truth))
            enumerated.clear()
            fast = check_dsic(truth, d, ropt, DeviationGrid(5))
            assert fast == helpers.slow_check_dsic(truth, d, ropt, DeviationGrid(5)), truth
            assert sorted(enumerated) == sorted(pot.ids)
            for a in pot.ids:
                below, head = helpers.ddg(pot, a), helpers.dcs(pot, a)[0]
                links = sorted(helpers.action(truth, a).neighbors & set(pot.ids) - {a})
                live = [w for w in links if w in below or helpers.dcs(pot, w)[0] != head]
                outer = [w for w in live if w not in below]
                assert all(helpers.dcs(pot, w) == (w,) for w in outer), (truth, a)
                assert [pot.ids[w] for w in enumerated[a]] == live, (truth, a)
                left_out += len(links) - len(live)
                heads += len(outer)
        assert left_out > 0 and heads > 0

    def test_step_probes_pick_what_the_scan_picks(self):
        # against the bid-major scan of every candidate and utility, on
        # random profiles, tie-heavy bids, reserves at 0, at vbar and at a
        # bid, a mix of reserves across the subsets, and truthful utilities
        # lowered so that many deviations gain and tie
        rng = np.random.default_rng(127)
        grid = DeviationGrid(points=5)
        makers = (
            helpers.random_sparse_profile,
            helpers.random_directed_profile,
            helpers.random_connected_profile,
        )
        picked = tied = 0
        for k in range(150):
            truth = makers[k % 3](rng, n_max=7)
            if k % 4 < 2:
                truth = self._tens(rng, truth)
            graph = build_graph(truth)
            if not graph.reachable:
                continue
            pot = build_pot(graph)
            values = truth.bids()
            bids = [values[a] for a in pot.ids]
            tops = _outside_tops(pot, bids)
            slot_of = {a: i for i, a in enumerate(pot.ids)}
            reserves = (0.0, UNI.vbar, float(rng.choice(bids)), float(rng.uniform(0.0, 100.0)))
            for slot, agent in enumerate(pot.ids):
                neighbors = helpers.action(truth, agent).neighbors
                links = sorted(slot_of[v] for v in neighbors if v in slot_of and v != agent)
                start, stop = pot.at[slot], pot.at[slot] + pot.size[slot]
                inner = [w for w in links if start < pot.at[w] < stop]
                subsets = incentives._subsets(agent, links, "live links")
                for r in reserves:
                    candidates = _bid_candidates(grid, UNI.vbar, values.values(), r)
                    u_truth = utilities(truth, values, clear(pot, bids, r))[agent]
                    mixed = [r if rng.random() < 0.5 else float(rng.choice(reserves)) for _ in subsets]
                    for at in ([r] * len(subsets), mixed):
                        firsts = incentives._first_utilities(pot, bids, tops, slot, inner, subsets, at)
                        firsts = list(firsts.values())
                        for floor in (u_truth, u_truth - float(rng.uniform(0.0, 30.0)), -100.0):
                            got = incentives._best_deviation(candidates, firsts, floor)
                            want = helpers.scan_deviations(candidates, firsts, floor)
                            assert got == want, (truth, agent, r, floor)
                            if got is not None:
                                picked += 1
                                # several utilities reach the best gain
                                best = [any(u(b) - floor == got[0] for b in candidates) for u, _, _ in firsts]
                                tied += sum(best) > 1
        assert picked > 3000 and tied > 1000, (picked, tied)


class TestAgainstSlowReference:
    """check_dsic builds each reported subset once and reads every bid's
    utility off it; the reference rebuilds the profile, graph, tree and
    reserve for every candidate and runs the whole auction. Reports must
    agree on every field."""

    POLICIES = DSIC_POLICIES + [ReservePolicy(kind="global_opt")]

    def test_random_profiles(self):
        rng = np.random.default_rng(61)
        gains = 0
        for k in range(40):
            if k % 2:
                truth = helpers.random_sparse_profile(rng, n_max=6)
            else:
                truth = helpers.random_connected_profile(rng, n_max=5)
            for policy in self.POLICIES:
                fast = check_dsic(truth, UNI, policy, DeviationGrid(5))
                slow = helpers.slow_check_dsic(truth, UNI, policy, DeviationGrid(5))
                assert fast == slow, (policy.kind, truth)
                gains += sum(r.best_gain > 0.0 for r in fast)
        # the global optimum is manipulable, so the tie rule is exercised
        assert gains > 0

    # criterion 6's policies and priors, as the benchmark runs them
    CRITERION6_POLICIES = [
        (ReservePolicy(kind="none"), UNI),
        (ReservePolicy(kind="fixed", r=37.5), UNI),
        (ReservePolicy(kind="uniform_gamma", kmin=2), UNI),
        (
            ReservePolicy(kind="general_gamma", kmin=2),
            TruncatedNormal(mu=50.0, sigma=16.67, vbar=100.0),
        ),
    ]

    @staticmethod
    def _rebid(profile, draw):
        """The profile with every bidder's bid redrawn by draw()."""
        return ActionProfile(
            profile.seller,
            tuple(
                a if a.agent == profile.seller else AgentAction(a.agent, draw(), a.neighbors)
                for a in profile.agents
            ),
        )

    @classmethod
    def _criterion6_links(cls, draw):
        # criterion 6 draws 50 link structures and their bids from seed 606;
        # here every bid is redrawn by draw()
        links = np.random.default_rng(606)
        for _ in range(50):
            yield cls._rebid(helpers.random_sparse_profile(links, n_max=7), draw)

    @pytest.mark.parametrize("bid_seed, part", [(1, 0), (2, 1), (3, 2)])
    def test_criterion6_links_with_redrawn_bids(self, bid_seed, part):
        # each case checks a third of the structures
        redraw = np.random.default_rng(bid_seed)
        grid = DeviationGrid(points=5)
        profiles = self._criterion6_links(lambda: float(redraw.uniform(0.0, 100.0)))
        for k, truth in enumerate(profiles):
            if k % 3 != part:
                continue
            bidders = len(truth.bids()) if build_graph(truth).reachable else 0
            for policy, d in self.CRITERION6_POLICIES:
                fast = check_dsic(truth, d, policy, grid)
                assert fast == helpers.slow_check_dsic(truth, d, policy, grid), (
                    policy.kind,
                    truth,
                )
                assert len(fast) == bidders
                assert all(r.best_gain <= 1e-9 for r in fast), (policy.kind, truth)

    def test_criterion6_links_with_tied_bids(self):
        # bids redrawn as multiples of 10: a deviator's candidates tie the
        # top other bid, and under the fixed reserve of 40 some bids and
        # candidates sit exactly at the reserve
        redraw = np.random.default_rng(4)
        grid = DeviationGrid(points=5)
        policies = [
            ReservePolicy(kind="none"),
            ReservePolicy(kind="fixed", r=40.0),
            ReservePolicy(kind="global_opt"),
        ]
        for truth in self._criterion6_links(lambda: 10.0 * float(redraw.integers(0, 11))):
            for policy in policies:
                fast = check_dsic(truth, UNI, policy, grid)
                assert fast == helpers.slow_check_dsic(truth, UNI, policy, grid), (
                    policy.kind,
                    truth,
                )

    def test_dropped_link_moves_a_dominator_outside_the_subtree(self):
        # seller -> a -> v and seller -> b -> c -> v: v sits under the
        # seller until a drops a -> v, then under c, outside a's subtree,
        # which changes the branch sizes the global optimum reads
        links = {"s": ["a", "b"], "a": ["v"], "b": ["c"], "c": ["v"]}
        truth = helpers.truthful_from_values(dict.fromkeys("abcv", 50.0), links)
        assert helpers.parents(build_pot(build_graph(truth)))["v"] == "s"
        dropped = build_pot(build_graph(helpers.replace_action(truth, "a", 50.0, frozenset())))
        assert helpers.parents(dropped)["v"] == "c"
        assert sorted(subtree_profile(dropped).sizes) == [1, 3]

        rng = np.random.default_rng(83)
        grid = DeviationGrid(points=5)
        for k in range(12):
            draw = rng.integers(0, 11, 4) * 10.0 if k % 2 else rng.uniform(0.0, 100.0, 4)
            truth = helpers.truthful_from_values(dict(zip("abcv", draw.tolist())), links)
            for policy in self.POLICIES:
                fast = check_dsic(truth, UNI, policy, grid)
                slow = helpers.slow_check_dsic(truth, UNI, policy, grid)
                assert fast == slow, (policy.kind, truth)

    def test_tied_bids_with_the_reserve_at_a_bid(self):
        # bids are multiples of 10 and the fixed reserve equals one of them;
        # deviations_tested counts enumerate_deviations, and the reported
        # deviation is its first best
        rng = np.random.default_rng(89)
        grid = DeviationGrid(points=6)
        for k in range(30):
            make = helpers.random_directed_profile if k % 2 else helpers.random_sparse_profile
            truth = self._rebid(make(rng, n_max=7), lambda: 10.0 * float(rng.integers(0, 11)))
            if not build_graph(truth).reachable:
                continue
            values = truth.bids()
            policy = ReservePolicy(kind="fixed", r=values[sorted(values)[0]])
            fast = check_dsic(truth, UNI, policy, grid)
            assert fast == helpers.slow_check_dsic(truth, UNI, policy, grid), truth
            reachable = build_graph(truth).reachable
            for report in fast:
                want = 0
                if report.agent in reachable:
                    want = len(
                        enumerate_deviations(
                            values[report.agent],
                            helpers.action(truth, report.agent).neighbors,
                            grid,
                            UNI.vbar,
                            others_bids=[b for a, b in values.items() if a != report.agent],
                            reserve=policy.r,
                            seller=truth.seller,
                        )
                    )
                assert report.deviations_tested == want

    def test_subset_utilities_match_the_rebuilt_market(self, monkeypatch):
        # a withheld link that never pays leaves the reports unchanged, so
        # reports alone cannot tell a wrong subtree rebuild or a wrong
        # reserve from the truth's; compare each first subset's utility, as
        # check_dsic computes it, with the whole deviated market's auction
        # at that market's reserve instead
        calls = []
        first_utilities = incentives._first_utilities

        def spy(pot, bids, tops, slot, inner, subsets, reserves):
            firsts = first_utilities(pot, bids, tops, slot, inner, subsets, reserves)
            calls.append((pot.ids[slot], reserves[-1], pot.ids, firsts))
            return firsts

        monkeypatch.setattr(incentives, "_first_utilities", spy)
        rng = np.random.default_rng(97)
        grid = DeviationGrid(points=4)
        global_opt = {}
        moved = 0
        for kind in ("fixed", "global_opt"):
            cut_off = 0
            for k in range(90):
                make = helpers.random_directed_profile if k % 2 else helpers.random_sparse_profile
                truth = make(rng, n_max=7)
                if k % 3 == 0:
                    truth = self._rebid(truth, lambda: 10.0 * float(rng.integers(0, 11)))
                reachable = build_graph(truth).reachable
                if not reachable:
                    continue
                values = truth.bids()
                if kind == "fixed":
                    policy = ReservePolicy(kind, r=float(rng.choice([0.0, 40.0, *values.values()])))
                else:
                    policy = ReservePolicy(kind)
                calls.clear()
                check_dsic(truth, UNI, policy, grid)
                assert len(calls) == len(reachable)
                for agent, base, ids, firsts in calls:
                    for (_, r), (u, breaks, subset) in firsts.items():
                        subset = frozenset(ids[w] for w in subset)
                        deviated = helpers.replace_action(truth, agent, values[agent], subset)
                        sizes = subtree_profile(build_pot(build_graph(deviated)))
                        if kind == "fixed":
                            assert r == policy.r
                        else:
                            key = tuple(sorted(sizes.sizes))
                            if key not in global_opt:
                                global_opt[key] = global_optimal_reserve(sizes, UNI)
                            assert r == global_opt[key], (truth, agent, subset)
                            moved += r != base
                        candidates = _bid_candidates(grid, UNI.vbar, values.values(), r)
                        for b in candidates:
                            out = run_apx_r(helpers.replace_action(truth, agent, b, subset), r)
                            paid = out.payments.get(agent, 0.0)
                            want = values[agent] - paid if out.winner == agent else -paid
                            assert u(b) == want, (truth, agent, subset, b, r)
                        # u moves only at its breaks
                        for lo, hi in zip(candidates, candidates[1:]):
                            if not any(lo <= x <= hi for x in breaks):
                                assert u(lo) == u(hi), (truth, agent, subset, lo, hi, r)
                        cut_off += sizes.n < len(reachable)
            assert cut_off > 50, kind
        # under the global optimum, subsets that shrink the market move the
        # reserve away from the truth's
        assert moved > 50, moved

    # criterion 6's cases, a reserve above most bids, and the global optimum
    SIGN_CASES = CRITERION6_POLICIES + [
        (ReservePolicy(kind="fixed", r=80.0), UNI),
        (ReservePolicy(kind="global_opt"), UNI),
        (ReservePolicy(kind="global_opt"), NORM),
    ]

    def test_truthful_utilities_carry_the_sign_of_the_auction(self):
        # == holds between 0.0 and -0.0, so the fields are compared as
        # float.hex: a losing or zero-paid bidder gets 0.0, as clear pays it
        # seller -> a -> b, with x reporting a link to a that nobody returns:
        # x is never reached, and a wins whatever b bids
        links = {"s": ["a"], "a": ["b"], "x": ["a"]}
        fixture = helpers.truthful_from_values({"a": 90.0, "b": 10.0, "x": 50.0}, links)
        assert "x" not in build_graph(fixture).reachable
        for b in (0.0, 10.0, 90.0, 100.0):
            silent = helpers.replace_action(fixture, "b", b, frozenset())
            assert run_apx_r(silent, 0.0).winner == "a"
        rng = np.random.default_rng(113)
        makers = [
            helpers.random_sparse_profile,
            helpers.random_directed_profile,
            helpers.random_connected_profile,
        ]
        profiles = [fixture] + [makers[k % 3](rng, n_max=6) for k in range(30)]
        signs = set()
        for truth in profiles:
            for policy, d in self.SIGN_CASES:
                fast = check_dsic(truth, d, policy, DeviationGrid(4))
                slow = helpers.slow_check_dsic(truth, d, policy, DeviationGrid(4))
                got = [(r.agent, r.truthful_utility.hex()) for r in fast]
                assert got == [(r.agent, r.truthful_utility.hex()) for r in slow], (policy, truth)
                signs.update(math.copysign(1.0, r.truthful_utility) for r in fast)
                if truth is fixture:
                    assert [r.truthful_utility for r in fast if r.agent != "a"] == [0.0, 0.0]
        # no report carries -0.0
        assert signs == {1.0}

    def test_counterexample(self):
        truth = counterexample_instance()
        d = Uniform(vbar=1.0)
        policy = ReservePolicy(kind="global_opt")
        fast = check_dsic(truth, d, policy)
        assert fast == helpers.slow_check_dsic(truth, d, policy)
        assert {r.agent: r for r in fast}["c"].best_gain > 0.0


class TestCounterexample:
    def test_instance_shape(self):
        truth = counterexample_instance()
        prof = subtree_profile(build_pot(build_graph(truth)))
        assert tuple(sorted(prof.sizes)) == (2, 2, 2)
        assert frozenset(truth.bids()) == frozenset("abcdef")
        assert helpers.action(truth, "c").neighbors == frozenset({"f"})

    def test_default_value_sits_between_the_reserves(self):
        truth = counterexample_instance()
        rep = ropt_counterexample()
        assert rep.reserve_withheld < truth.bids()["c"] < rep.reserve_full

    def test_report_numbers(self):
        rep = ropt_counterexample()
        assert rep.agent == "c"
        assert rep.reserve_full == pytest.approx(0.5773502691896257, abs=1e-7)
        assert rep.reserve_withheld == pytest.approx(0.5663911092686593, abs=1e-7)
        assert rep.truthful_utility == 0.0
        assert rep.deviant_utility == pytest.approx(
            rep.value - rep.reserve_withheld, abs=1e-12
        )
        assert rep.gain == pytest.approx(0.005479579955090519, abs=1e-9)
        assert rep.gain > 1e-4

    def test_search_finds_the_manipulation(self):
        truth = counterexample_instance()
        d = Uniform(vbar=1.0)
        reports = {
            r.agent: r
            for r in check_dsic(truth, d, ReservePolicy(kind="global_opt"))
        }
        ce = ropt_counterexample()
        assert reports["c"].best_gain >= ce.gain - 1e-12
        assert "f" not in reports["c"].best_report

    def test_report_matches_the_slow_search(self):
        # the slow search clears the truth and every deviation through
        # run_apx_r, so it witnesses the report independently of check_dsic
        reports = helpers.slow_check_dsic(
            counterexample_instance(), Uniform(vbar=1.0), ReservePolicy(kind="global_opt")
        )
        slow = {r.agent: r for r in reports}["c"]
        rep = ropt_counterexample()
        assert rep.truthful_utility.hex() == slow.truthful_utility.hex()
        assert rep.deviant_utility.hex() == (slow.truthful_utility + slow.best_gain).hex()
        assert rep.gain.hex() == slow.best_gain.hex()

    def test_search_clears_deployable_policies_on_the_same_network(self):
        truth = counterexample_instance()
        d = Uniform(vbar=1.0)
        for policy in (
            ReservePolicy(kind="none"),
            ReservePolicy(kind="uniform_gamma", kmin=2),
        ):
            for report in check_dsic(truth, d, policy):
                assert report.best_gain <= 1e-9


class TestReportDict:
    def test_keys_and_types(self):
        truth = helpers.truthful_from_values({"A": 30.0}, {"s": ["A"]})
        (report,) = check_dsic(truth, UNI, ReservePolicy(kind="none"))
        blob = report_to_dict(report)
        assert blob["agent"] == "A"
        assert blob["best_report"] == []
        assert isinstance(blob["deviations_tested"], int)
        assert set(blob) == {
            "agent",
            "truthful_utility",
            "best_gain",
            "best_bid",
            "best_report",
            "deviations_tested",
        }
