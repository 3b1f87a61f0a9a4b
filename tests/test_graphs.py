"""Diffusion graph, dominator tree, and serialization tests."""

import json
from collections import Counter

import numpy as np
import pytest

import helpers
from helpers import ddg
from netauction.errors import ValidationError
from netauction.graphs import (
    ActionProfile,
    AgentAction,
    SubtreeProfile,
    build_graph,
    build_pot,
    dcs,
    load_profile,
    profile_from_dict,
    profile_to_dict,
    save_profile,
    subtree_profile,
)


def _profile(seller_out, rows, seller="s"):
    agents = [AgentAction(seller, 0.0, frozenset(seller_out))]
    for agent, bid, out in rows:
        agents.append(AgentAction(agent, bid, frozenset(out)))
    return ActionProfile(seller, tuple(agents))


class TestActionValidation:
    def test_empty_id_rejected(self):
        with pytest.raises(ValidationError):
            AgentAction("", 1.0, frozenset())

    def test_negative_bid_rejected(self):
        with pytest.raises(ValidationError):
            AgentAction("a", -0.5, frozenset())

    def test_non_finite_bid_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                AgentAction("a", bad, frozenset())

    def test_zero_bid_allowed(self):
        AgentAction("a", 0.0, frozenset())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            _profile(["a"], [("a", 1.0, []), ("a", 2.0, [])])

    def test_two_seller_rows_rejected(self):
        with pytest.raises(ValidationError):
            ActionProfile(
                "s",
                (
                    AgentAction("s", 0.0, frozenset({"a"})),
                    AgentAction("s", 0.0, frozenset({"a"})),
                    AgentAction("a", 1.0, frozenset()),
                ),
            )


class TestActionProfile:
    def test_seller_row_is_not_a_bidder(self):
        p = _profile(["a"], [("a", 10.0, ["b"]), ("b", 20.0, [])])
        assert p.seller_report() == frozenset({"a"})
        assert p.ids() == frozenset({"a", "b"})
        assert p.bids() == {"a": 10.0, "b": 20.0}
        assert {a.agent for a in p.bidders()} == {"a", "b"}

    def test_missing_seller_row_means_empty_report(self):
        p = ActionProfile("s", (AgentAction("a", 5.0, frozenset()),))
        assert p.seller_report() == frozenset()

    def test_action_lookup(self):
        p = _profile(["a"], [("a", 10.0, [])])
        assert p.action("a").bid == 10.0
        with pytest.raises(KeyError):
            p.action("s")
        with pytest.raises(KeyError):
            p.action("zz")

    def test_replace_action(self):
        p = _profile(["a"], [("a", 10.0, ["b"]), ("b", 20.0, [])])
        q = p.replace_action("a", 55.0, frozenset())
        assert q.action("a").bid == 55.0
        assert q.action("a").neighbors == frozenset()
        assert q.seller_report() == frozenset({"a"})
        assert p.action("a").bid == 10.0
        with pytest.raises(KeyError):
            p.replace_action("s", 1.0, frozenset())


class TestBuildGraph:
    def test_chain_example(self):
        # s knows only A; A knows B.  Both bidders become reachable.
        p = _profile(["A"], [("A", 30.0, ["B"]), ("B", 70.0, [])])
        g = build_graph(p)
        assert g.reachable == frozenset({"A", "B"})
        assert g.successors["s"] == ("A",)
        assert g.successors["A"] == ("B",)
        assert g.successors["B"] == ()

    def test_unreachable_component_dropped(self):
        p = _profile(
            ["A"],
            [("A", 30.0, []), ("C", 90.0, ["D"]), ("D", 10.0, [])],
        )
        g = build_graph(p)
        assert g.reachable == frozenset({"A"})
        assert "C" not in g.successors

    def test_self_and_unknown_links_are_inert(self):
        p = _profile(["A", "ghost"], [("A", 30.0, ["A", "s", "nobody"])])
        g = build_graph(p)
        assert g.reachable == frozenset({"A"})
        assert g.successors["A"] == ()

    def test_withholding_changes_reachability(self):
        p = _profile(["A"], [("A", 30.0, ["B"]), ("B", 70.0, [])])
        q = p.replace_action("A", 30.0, frozenset())
        g = build_graph(q)
        assert g.reachable == frozenset({"A"})

    def test_bidders_cannot_sever_seller_links(self):
        # B is linked both by the seller and by A; A dropping its report
        # must not disconnect B.
        p = _profile(["A", "B"], [("A", 30.0, ["B"]), ("B", 70.0, [])])
        q = p.replace_action("A", 30.0, frozenset())
        assert build_graph(q).reachable == frozenset({"A", "B"})

    def test_successors_sorted_and_deterministic(self):
        p = _profile(["b", "a", "c"], [("a", 1, []), ("b", 2, []), ("c", 3, [])])
        g = build_graph(p)
        assert g.successors["s"] == ("a", "b", "c")


class TestPot:
    def test_chain_pot(self):
        p = _profile(["A"], [("A", 30.0, ["B"]), ("B", 70.0, [])])
        pot = build_pot(build_graph(p))
        assert pot.parent == {"A": "s", "B": "A"}
        assert pot.children["A"] == ("B",)
        assert pot.subtree_size == {"A": 2, "B": 1}
        assert pot.order == ("A", "B")
        assert dcs(pot, "B") == ("A", "B")
        assert dcs(pot, "A") == ("A",)
        assert ddg(pot, "A") == frozenset({"A", "B"})
        assert ddg(pot, "B") == frozenset({"B"})

    def test_diamond_joins_at_seller(self):
        # Two disjoint paths to c, so nobody dominates c except the seller.
        p = _profile(
            ["a", "b"],
            [("a", 1.0, ["c"]), ("b", 2.0, ["c"]), ("c", 3.0, [])],
        )
        pot = build_pot(build_graph(p))
        assert pot.parent["c"] == "s"
        assert dcs(pot, "c") == ("c",)
        assert pot.subtree_size == {"a": 1, "b": 1, "c": 1}

    def test_mid_chain_diamond(self):
        # s -> a -> {b, c} -> d: a dominates d, b and c do not.
        p = _profile(
            ["a"],
            [
                ("a", 1.0, ["b", "c"]),
                ("b", 2.0, ["d"]),
                ("c", 3.0, ["d"]),
                ("d", 4.0, []),
            ],
        )
        pot = build_pot(build_graph(p))
        assert pot.parent == {"a": "s", "b": "a", "c": "a", "d": "a"}
        assert dcs(pot, "d") == ("a", "d")
        assert ddg(pot, "a") == frozenset({"a", "b", "c", "d"})
        assert pot.subtree_size["a"] == 4

    def test_dcs_unknown_agent(self):
        p = _profile(["a"], [("a", 1.0, [])])
        pot = build_pot(build_graph(p))
        with pytest.raises(KeyError):
            dcs(pot, "zz")
        with pytest.raises(KeyError):
            dcs(pot, "s")

    def test_order_is_parent_before_child(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = helpers.random_sparse_profile(rng)
            pot = build_pot(build_graph(p))
            seen = {pot.seller}
            for node in pot.order:
                assert pot.parent[node] in seen
                seen.add(node)
            assert seen - {pot.seller} == set(pot.parent)

    def test_matches_deletion_oracle_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            g = build_graph(helpers.random_sparse_profile(rng))
            pot = build_pot(g)
            assert pot.parent == helpers.oracle_parents(g)

    @pytest.mark.parametrize(
        "n, extra", [(1000, 0.3), (1500, 0.15), (2000, 0.1), (3000, 0.05)]
    )
    def test_matches_networkx_on_large_graphs(self, n, extra):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(n)
        g = build_graph(helpers.random_large_profile(rng, n, extra))
        assert len(g.reachable) == n
        digraph = nx.DiGraph()
        digraph.add_nodes_from(g.successors)
        digraph.add_edges_from(
            (u, v) for u, out in g.successors.items() for v in out
        )
        want = {
            v: p
            for v, p in nx.immediate_dominators(digraph, g.seller).items()
            if v != g.seller
        }
        pot = build_pot(g)
        assert pot.parent == want
        # deep chains, not a flat star under the seller
        depth = max(len(dcs(pot, v)) for v in pot.order)
        assert depth > 10

    def test_subtree_sizes_consistent_with_ddg(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            pot = build_pot(build_graph(helpers.random_sparse_profile(rng)))
            for i, node in enumerate(pot.order):
                assert pot.subtree_size[node] == len(ddg(pot, node))
                # preorder: the subtree is the slice starting at its root
                size = pot.subtree_size[node]
                assert frozenset(pot.order[i : i + size]) == ddg(pot, node)


class TestAgainstSlowReference:
    """build_pot on integer indices against the dict-based data-flow it
    replaced (tests/helpers.py): the dominator tree is unique, so every
    field must agree."""

    @staticmethod
    def _check(graph):
        got, want = build_pot(graph), helpers.slow_build_pot(graph)
        assert got.seller == want.seller
        assert got.parent == want.parent
        assert got.children == want.children
        assert got.subtree_size == want.subtree_size
        assert got.order == want.order

    def test_random_directed_profiles(self):
        rng = np.random.default_rng(2718)
        seen = Counter()
        for _ in range(250):
            p = helpers.random_directed_profile(rng)
            g = build_graph(p)
            self._check(g)
            reports = {a.agent: a.neighbors for a in p.bidders()}
            seen["unreachable"] += len(g.reachable) < len(reports)
            seen["self"] += any(u in out for u, out in reports.items())
            seen["to_seller"] += any(p.seller in out for out in reports.values())
            seen["unknown"] += any("ghost" in a.neighbors for a in p.agents)
            seen["cycle"] += any(
                u in reports.get(v, ()) for u, out in reports.items() for v in out if v != u
            )
            seen["nobody_reached"] += not g.reachable
        assert min(seen.values()) >= 5, seen

    @pytest.mark.parametrize(
        "n, extra", [(1000, 0.3), (1500, 0.15), (2000, 0.1), (3000, 0.05)]
    )
    def test_large_graphs(self, n, extra):
        rng = np.random.default_rng(n)
        self._check(build_graph(helpers.random_large_profile(rng, n, extra)))


class TestSubtreeProfile:
    def test_from_sizes(self):
        sp = SubtreeProfile.from_sizes((3, 6))
        assert (sp.n, sp.m, sp.sizes) == (9, 2, (3, 6))

    def test_validation(self):
        with pytest.raises(ValidationError):
            SubtreeProfile(n=5, m=2, sizes=(3, 3))
        with pytest.raises(ValidationError):
            SubtreeProfile.from_sizes((0, 3))
        with pytest.raises(ValidationError):
            SubtreeProfile.from_sizes(())

    def test_star_and_chain(self):
        star = _profile(["a", "b", "c"], [("a", 1, []), ("b", 2, []), ("c", 3, [])])
        assert subtree_profile(build_pot(build_graph(star))).sizes == (1, 1, 1)
        chain = _profile(["a"], [("a", 1, ["b"]), ("b", 2, ["c"]), ("c", 3, [])])
        sp = subtree_profile(build_pot(build_graph(chain)))
        assert (sp.n, sp.m, sp.sizes) == (3, 1, (3,))

    def test_sizes_sum_to_n_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            pot = build_pot(build_graph(helpers.random_sparse_profile(rng)))
            if not pot.parent:
                continue
            sp = subtree_profile(pot)
            assert sum(sp.sizes) == sp.n == len(pot.parent)
            assert sp.m == sum(1 for v in pot.parent.values() if v == pot.seller)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        p = helpers.random_connected_profile(rng)
        d = profile_to_dict(p)
        assert profile_from_dict(json.loads(json.dumps(d))) == p
        path = tmp_path / "profile.json"
        save_profile(p, path)
        assert load_profile(path) == p

    def test_schema_shape(self):
        p = _profile(["a"], [("a", 12.5, ["b"]), ("b", 0.0, [])])
        d = profile_to_dict(p)
        assert d["seller"] == "s"
        ids = [row["id"] for row in d["agents"]]
        assert "s" in ids
        by_id = {row["id"]: row for row in d["agents"]}
        assert by_id["a"]["bid"] == 12.5
        assert by_id["a"]["neighbors"] == ["b"]

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            profile_from_dict({"agents": []})
        with pytest.raises(ValidationError):
            profile_from_dict({"seller": "s"})
        with pytest.raises(ValidationError):
            profile_from_dict(
                {"seller": "s", "agents": [{"id": "a", "bid": "high"}]}
            )
        with pytest.raises(ValidationError):
            profile_from_dict({"seller": "s", "agents": [{"bid": 1.0}]})
