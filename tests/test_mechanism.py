"""Auction mechanism tests: worked examples, invariants, reference oracle."""

import math

import numpy as np
import pytest

import helpers
from helpers import run_spa_reserve, utilities
from netauction.errors import DomainError
from netauction.graphs import ActionProfile, AgentAction, build_graph, build_pot
from netauction.mechanism import (
    _outside_tops,
    _relay_rule,
    clear,
    run_apx_r,
)


def _profile(seller_out, rows, seller="s"):
    agents = [AgentAction(seller, 0.0, frozenset(seller_out))]
    for agent, bid, out in rows:
        agents.append(AgentAction(agent, bid, frozenset(out)))
    return ActionProfile(seller, tuple(agents))


CHAIN = _profile(["A"], [("A", 30.0, ["B"]), ("B", 70.0, [])])
TRI = _profile(["A", "C"], [("A", 30.0, ["B"]), ("B", 70.0, []), ("C", 60.0, [])])
FORK = _profile(["A"], [("A", 30.0, ["B", "C"]), ("B", 70.0, []), ("C", 60.0, [])])


class TestWorkedExamples:
    def test_chain_with_binding_reserve(self):
        # A's 30 is under the reserve, so the item travels to B at the reserve
        out = run_apx_r(CHAIN, 50.0)
        assert not out.failed
        assert out.winner == "B"
        assert out.payments == {"A": 0.0, "B": 50.0}
        assert out.revenue == 50.0

    def test_chain_without_reserve(self):
        # A's bid equals the world-minus-B maximum, so A buys for nothing
        out = run_apx_r(CHAIN, 0.0)
        assert out.winner == "A"
        assert out.payments == {"A": 0.0, "B": 0.0}
        assert out.revenue == 0.0

    def test_no_sale_below_reserve(self):
        p = _profile(["a", "b"], [("a", 45.0, []), ("b", 40.0, [])])
        out = run_apx_r(p, 50.0)
        assert out.failed
        assert out.winner is None
        assert out.payments == {}
        assert out.revenue == 0.0

    def test_bid_equal_to_reserve_sells(self):
        p = _profile(["a"], [("a", 50.0, [])])
        out = run_apx_r(p, 50.0)
        assert not out.failed
        assert out.winner == "a"
        assert out.revenue == 50.0

    def test_star_is_second_price(self):
        p = _profile(["a", "b"], [("a", 60.0, []), ("b", 40.0, [])])
        out = run_apx_r(p, 0.0)
        assert out.winner == "a"
        assert out.payments["a"] == 40.0
        assert out.revenue == 40.0

    def test_side_branch_blocks_early_win(self):
        # C's 60 sits outside A's subtree, so A cannot claim the item; B
        # wins and pays the outside option.
        out = run_apx_r(TRI, 0.0)
        assert out.winner == "B"
        assert out.payments == {"A": 0.0, "B": 60.0, "C": 0.0}
        assert out.revenue == 60.0

    def test_diffusion_reward_is_negative_payment(self):
        # All competition lives inside A's subtree: A is paid 60 for
        # relaying while B pays 60, leaving the seller with nothing.
        out = run_apx_r(FORK, 0.0)
        assert out.winner == "B"
        assert out.payments == {"A": -60.0, "B": 60.0, "C": 0.0}
        assert out.revenue == 0.0

    def test_reserve_claws_back_part_of_the_reward(self):
        out = run_apx_r(FORK, 20.0)
        assert out.winner == "B"
        assert out.payments == {"A": -40.0, "B": 60.0, "C": 0.0}
        assert out.revenue == 20.0

    def test_single_bidder_boundary(self):
        p = _profile(["a"], [("a", 30.0, [])])
        assert run_apx_r(p, 30.0).revenue == 30.0
        assert run_apx_r(p, 30.0 + 1e-9).failed

    def test_tie_breaks_toward_smaller_id(self):
        p = _profile(["a", "b"], [("a", 70.0, []), ("b", 70.0, [])])
        out = run_apx_r(p, 0.0)
        assert out.winner == "a"
        assert out.payments["a"] == 70.0

    def test_unreachable_bidders_ignored(self):
        p = _profile(
            ["a"],
            [("a", 10.0, []), ("ghost", 99.0, [])],
        )
        out = run_apx_r(p, 0.0)
        assert out.winner == "a"
        assert "ghost" not in out.payments

    def test_no_reachable_bidders_fails(self):
        p = ActionProfile(
            "s",
            (
                AgentAction("s", 0.0, frozenset()),
                AgentAction("a", 10.0, frozenset()),
            ),
        )
        assert run_apx_r(p, 0.0).failed

    def test_reserve_validation(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                run_apx_r(CHAIN, bad)


class TestInvariants:
    def _random_cases(self, count, seed):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            profile = helpers.random_sparse_profile(rng, n_max=10)
            reserve = float(rng.choice([0.0, rng.uniform(0.0, 110.0)]))
            yield profile, reserve

    def test_matches_naive_reference(self):
        # exclusion maxima recomputed from scratch must agree bit for bit
        checked_success = 0
        for profile, reserve in self._random_cases(400, seed=101):
            out = run_apx_r(profile, reserve)
            w, pay, rev, failed = helpers.naive_apx_r(profile, reserve)
            assert out.failed == failed
            assert out.winner == w
            assert out.payments == pay
            assert out.revenue == rev
            checked_success += not failed
        assert checked_success > 100

    @staticmethod
    def _check_clear(profile, pot, bids, reserve):
        # bids[v] is the bid of pot.ids[v]; the reference gets the profile
        # rebuilt around them
        by_id = dict(zip(pot.ids, bids))
        rebid = ActionProfile(
            profile.seller,
            tuple(
                AgentAction(a.agent, by_id.get(a.agent, a.bid), a.neighbors)
                for a in profile.agents
            ),
        )
        out = clear(pot, bids, reserve)
        w, pay, rev, failed = helpers.naive_apx_r(rebid, reserve)
        assert (out.winner, out.payments, out.revenue, out.failed) == (
            w, pay, rev, failed
        )
        return out

    def test_one_tree_clears_many_bid_vectors(self):
        # clear() on a tree built once agrees with the reference run on the
        # profile rebuilt around each new bid vector
        rng = np.random.default_rng(107)
        for profile, reserve in self._random_cases(100, seed=103):
            pot = build_pot(build_graph(profile))
            for _ in range(5):
                bids = [float(rng.uniform(0.0, 100.0)) for _ in pot.ids]
                self._check_clear(profile, pot, bids, reserve)
        # the large graphs of test_matches_networkx_on_large_graphs: long
        # dominator chains, so the at/size slices reach deep into the preorder
        for n, extra in [(1000, 0.3), (1500, 0.15), (2000, 0.1), (3000, 0.05)]:
            self._clear_deep_tree(n, extra)

    def _clear_deep_tree(self, n, extra):
        rng = np.random.default_rng(n)
        profile = helpers.random_large_profile(rng, n, extra)
        pot = build_pot(build_graph(profile))
        parent = helpers.parents(pot)

        def depth(v):
            k = 0
            while v != pot.seller:
                v, k = parent[v], k + 1
            return k

        chain = helpers.dcs(pot, max(parent, key=depth))
        assert len(chain) > 10
        index = {v: i for i, v in enumerate(pot.ids)}
        cases = []
        for reserve in (0.0, 60.0):
            cases.append(([float(b) for b in rng.uniform(0.0, 100.0, n)], reserve))
        # integer bids: the top bid is tied among many bidders
        cases.append(([float(b) for b in rng.integers(0, 10, n)], 9.0))
        cases.append(([1.0] * n, 0.0))  # every bid tied
        # the deepest bidder ties for the top with every other chain member
        # and with one bidder off the chain
        tied = [float(b) for b in rng.uniform(0.0, 50.0, n)]
        for v in chain[::2] + (chain[-1],):
            tied[index[v]] = 100.0
        tied[min(set(range(n)) - {index[v] for v in chain})] = 100.0
        cases += [(tied, 0.0), (tied, 100.0)]
        cases.append((tied, 100.5))  # every bid under the reserve
        winners = set()
        for bids, reserve in cases:
            winners.add(self._check_clear(profile, pot, bids, reserve).winner)
        assert None in winners and len(winners) > 3
        # a deep winner: the chain above the deepest bidder bids 0, and a
        # bidder off the chain bids about the number of chain members above
        # it, so the item travels down the whole chain and the best bid
        # outside each member's subtree grows on the way
        level = {v: t + 1 for t, v in enumerate(chain)}
        deep = [0.0] * n
        for v in pot.ids:
            u = v
            while u != pot.seller and u not in level:
                u = parent[u]
            if v not in level:
                deep[index[v]] = level.get(u, 0) + float(rng.uniform(0.0, 0.5))
        deep[index[chain[-1]]] = 100.0
        for reserve in (0.0, len(chain) / 2):
            out = self._check_clear(profile, pot, deep, reserve)
            assert out.winner == chain[-1]
            assert sum(out.payments[v] < 0.0 for v in chain) > 1

    def test_payments_telescope_to_revenue(self):
        for profile, reserve in self._random_cases(300, seed=7):
            out = run_apx_r(profile, reserve)
            if out.failed:
                continue
            assert math.isclose(
                sum(out.payments.values()), out.revenue, rel_tol=1e-12, abs_tol=1e-9
            )

    def test_success_properties(self):
        for profile, reserve in self._random_cases(300, seed=13):
            out = run_apx_r(profile, reserve)
            reachable = build_graph(profile).reachable
            if out.failed:
                if reachable:
                    top = max(profile.bids()[i] for i in reachable)
                    assert top < reserve
                continue
            assert out.winner in reachable
            assert set(out.payments) == set(reachable)
            assert out.revenue >= reserve
            assert out.payments[out.winner] >= reserve
            assert profile.bids()[out.winner] >= reserve
            for agent, paid in out.payments.items():
                if agent != out.winner:
                    assert paid <= 0.0

    def test_truthful_play_is_individually_rational(self):
        for profile, reserve in self._random_cases(300, seed=29):
            out = run_apx_r(profile, reserve)
            values = profile.bids()
            utils = utilities(profile, values, out)
            assert set(utils) == set(values)
            for agent, u in utils.items():
                assert u >= -1e-12, (agent, u)

    def test_winner_never_pays_more_than_bid(self):
        for profile, reserve in self._random_cases(200, seed=37):
            out = run_apx_r(profile, reserve)
            if out.failed:
                continue
            assert out.payments[out.winner] <= profile.bids()[out.winner] + 1e-12


class TestDeviatorUtility:
    """The utility read off two dominator chains must equal the utility
    ``clear`` gives on the full bid vector, for every candidate bid the
    deviation search can try."""

    EPS = 1e-6 * 100.0  # enumerate_deviations' probe around the reserve

    @staticmethod
    def _utility(pot, bids, slot, reserve, value):
        # the deviation search's path: the truth's outside tops, then the
        # truth's subtree
        rule = _relay_rule(pot, bids, _outside_tops(pot, bids), slot, reserve, value)
        return (lambda b: -0.0) if rule is None else rule(*pot.subtree(slot))[0]

    @staticmethod
    def _from_clear(pot, bids, slot, reserve, value, b):
        bids = list(bids)
        bids[slot] = b
        out = clear(pot, bids, reserve)
        paid = out.payments.get(pot.ids[slot], 0.0)
        if out.winner == pot.ids[slot]:
            return value - paid, "wins"
        return -paid, "relays" if paid < 0.0 else "idle"

    def _check_slot(self, pot, bids, slot, value, reserves, kinds, probes=None):
        # the candidates: a grid, the other bids (or the given probes), the
        # value, and the reserve probed exactly and a hair on each side
        others = bids[:slot] + bids[slot + 1 :]
        top = max(others, default=None)
        grid = np.linspace(0.0, 100.0, 6).tolist()
        for reserve in reserves:
            u = self._utility(pot, bids, slot, reserve, value)
            near = (reserve, reserve - self.EPS, reserve + self.EPS, value)
            for b in {*grid, *(others if probes is None else probes), *near}:
                b = min(max(b, 0.0), 100.0)
                want, kind = self._from_clear(pot, bids, slot, reserve, value, b)
                assert u(b) == want, (pot.ids, bids, slot, reserve, value, b)
                kinds.add("ties the top" if b == top else kind)

    @staticmethod
    def _above_top(pot, bids, slot):
        # is slot an ancestor of the top bidder among the others?
        others = [v for v in range(len(bids)) if v != slot]
        if not others:
            return False
        v = max(others, key=bids.__getitem__)
        while v >= 0 and v != slot:
            v = pot.up[v]
        return v == slot

    def test_matches_clear_on_every_slot(self):
        rng = np.random.default_rng(211)
        kinds, above = set(), 0
        for k in range(160):
            make = helpers.random_sparse_profile if k % 2 else helpers.random_directed_profile
            profile = make(rng, n_max=7)
            pot = build_pot(build_graph(profile))
            if k % 4 < 2:
                # integer bids: many ties with the top bid and the reserve
                bids = [float(b) for b in rng.integers(0, 5, len(pot.ids)) * 10]
            else:
                bids = [profile.bids()[a] for a in pot.ids]
            for slot in range(len(bids)):
                value = float(rng.choice([bids[slot], rng.uniform(0.0, 100.0)]))
                reserves = (0.0, 40.0, bids[slot], max(bids))
                self._check_slot(pot, bids, slot, value, reserves, kinds)
                above += self._above_top(pot, bids, slot)
        assert kinds == {"wins", "relays", "idle", "ties the top"}
        assert above > 50

    def test_one_bidder_market(self):
        profile = _profile(["a"], [("a", 30.0, [])])
        pot = build_pot(build_graph(profile))
        kinds = set()
        self._check_slot(pot, [30.0], 0, 30.0, (0.0, 30.0, 55.0), kinds)
        assert kinds == {"wins", "idle"}

    def test_deviator_above_the_top_bidder(self):
        # A relays to both B and C; the deviator A is paid for relaying
        # until its own bid matches the best bid outside B's subtree
        pot = build_pot(build_graph(FORK))
        bids = [30.0, 70.0, 60.0]
        kinds = set()
        self._check_slot(pot, bids, 0, 30.0, (0.0, 20.0, 60.0, 70.0), kinds)
        assert {"wins", "relays", "ties the top"} <= kinds
        u = self._utility(pot, bids, 0, 20.0, 30.0)
        assert (u(30.0), u(60.0), u(70.0)) == (40.0, 30.0 - 20.0, 30.0 - 20.0)

    def test_deep_chains(self):
        # like the deep winner of TestInvariants: each member of the deepest
        # chain bids its depth and a bidder off the chain a little more than
        # the chain member it hangs below, so members above the deepest
        # bidder earn diffusion rewards
        rng = np.random.default_rng(223)
        profile = helpers.random_large_profile(rng, 600, 0.2)
        pot = build_pot(build_graph(profile))
        up, n = pot.up, len(pot.ids)
        depth = [0] * n
        for v in pot.order:
            depth[v] = 1 + (depth[up[v]] if up[v] >= 0 else 0)
        chain = [max(range(n), key=depth.__getitem__)]
        while up[chain[-1]] >= 0:
            chain.append(up[chain[-1]])
        assert len(chain) > 10
        level = {v: float(depth[v]) for v in chain}
        bids = [0.0] * n
        for v in range(n):
            w = v
            while w >= 0 and w not in level:
                w = up[w]
            bids[v] = level[v] if v in level else level.get(w, 0.0) + float(rng.uniform(0.0, 0.5))
        bids[chain[0]] = 95.0  # the top other bid for every member above
        probes = [bids[v] for v in chain] + [bids[v] + 0.25 for v in chain]
        kinds = set()
        for slot in chain[:: max(1, len(chain) // 6)] + [chain[-1]]:
            reserves = (0.0, len(chain) / 2, bids[slot], 95.0)
            self._check_slot(pot, bids, slot, bids[slot], reserves, kinds, probes)
        assert kinds == {"wins", "relays", "idle", "ties the top"}


class TestSpaReference:
    def test_examples(self):
        out = run_spa_reserve({"a": 60.0, "b": 40.0}, 50.0)
        assert (out.winner, out.payments["a"], out.revenue) == ("a", 50.0, 50.0)
        out = run_spa_reserve({"a": 60.0, "b": 55.0}, 50.0)
        assert out.payments["a"] == 55.0
        assert run_spa_reserve({"a": 45.0, "b": 40.0}, 50.0).failed
        assert run_spa_reserve({}, 10.0).failed

    def test_single_bidder_pays_reserve(self):
        out = run_spa_reserve({"a": 80.0}, 30.0)
        assert (out.winner, out.revenue) == ("a", 30.0)

    def test_tie_breaks_toward_smaller_id(self):
        assert run_spa_reserve({"b": 70.0, "a": 70.0}, 0.0).winner == "a"

    def test_agrees_with_star_network_auction(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            bids = {f"x{i}": float(rng.uniform(0, 100)) for i in range(n)}
            reserve = float(rng.uniform(0, 100))
            star = _profile(list(bids), [(i, b, []) for i, b in bids.items()])
            via_graph = run_apx_r(star, reserve)
            direct = run_spa_reserve(bids, reserve)
            assert via_graph.failed == direct.failed
            assert via_graph.winner == direct.winner
            assert via_graph.revenue == direct.revenue


class TestUtilities:
    def test_winner_gets_value_minus_payment(self):
        out = run_apx_r(CHAIN, 50.0)
        utils = utilities(CHAIN, {"A": 30.0, "B": 70.0}, out)
        assert utils == {"A": 0.0, "B": 20.0}

    def test_relay_reward_is_positive_utility(self):
        out = run_apx_r(FORK, 0.0)
        utils = utilities(FORK, {"A": 30.0, "B": 70.0, "C": 60.0}, out)
        assert utils == {"A": 60.0, "B": 10.0, "C": 0.0}

    def test_failed_auction_gives_zeros(self):
        p = _profile(["a"], [("a", 10.0, [])])
        utils = utilities(p, {"a": 10.0}, run_apx_r(p, 50.0))
        assert utils == {"a": 0.0}

    def test_no_negative_zero(self):
        out = run_apx_r(CHAIN, 50.0)
        utils = utilities(CHAIN, {"A": 30.0, "B": 70.0}, out)
        assert math.copysign(1.0, utils["A"]) == 1.0
