"""Diffusion graph, dominator tree, and serialization tests."""

import codecs
import json
from collections import Counter

import numpy as np
import pytest

import helpers
from helpers import dcs, ddg
from netauction.errors import ValidationError
from netauction.graphs import (
    ActionProfile,
    AgentAction,
    SubtreeProfile,
    build_graph,
    build_pot,
    load_profile,
    _components,
    network_dominators,
    profile_from_dict,
    profile_to_dict,
    subtree_profile,
)
from netauction.simulation import load_edge_list, pick_seller, template_from_network


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

    def test_bid_is_stored_as_a_float(self):
        bid = AgentAction("a", 70, frozenset()).bid
        assert type(bid) is float and bid == 70.0

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
        assert p.bids() == {"a": 10.0, "b": 20.0}
        assert {a.agent for a in p.bidders()} == {"a", "b"}

    def test_missing_seller_row_means_empty_report(self):
        p = ActionProfile("s", (AgentAction("a", 5.0, frozenset()),))
        assert p.seller_report() == frozenset()


class TestBuildGraph:
    """Bidders are indexed in id order and the seller's links come last."""

    def test_chain_example(self):
        # s knows only A; A knows B.  Both bidders become reachable.
        p = _profile(["A"], [("A", 30.0, ["B"]), ("B", 70.0, [])])
        g = build_graph(p)
        assert g.seller == "s"
        assert g.reachable == ["A", "B"]
        assert g.succ == [[1], [], [0]]

    def test_unreachable_component_dropped(self):
        p = _profile(
            ["A"],
            [("A", 30.0, []), ("C", 90.0, ["D"]), ("D", 10.0, [])],
        )
        g = build_graph(p)
        assert g.reachable == ["A"]
        assert g.succ == [[], [0]]

    def test_self_and_unknown_links_are_inert(self):
        p = _profile(["A", "ghost"], [("A", 30.0, ["A", "s", "nobody"])])
        g = build_graph(p)
        assert g.reachable == ["A"]
        assert g.succ == [[], [0]]

    def test_withholding_changes_reachability(self):
        p = _profile(["A"], [("A", 30.0, ["B"]), ("B", 70.0, [])])
        q = helpers.replace_action(p, "A", 30.0, frozenset())
        g = build_graph(q)
        assert g.reachable == ["A"]
        assert g.succ == [[], [0]]

    def test_bidders_cannot_sever_seller_links(self):
        # B is linked both by the seller and by A; A dropping its report
        # must not disconnect B.
        p = _profile(["A", "B"], [("A", 30.0, ["B"]), ("B", 70.0, [])])
        q = helpers.replace_action(p, "A", 30.0, frozenset())
        assert build_graph(q).reachable == ["A", "B"]

    def test_successors_sorted_and_deterministic(self):
        p = _profile(["b", "a", "c"], [("a", 1, []), ("b", 2, ["c", "a"]), ("c", 3, [])])
        g = build_graph(p)
        assert g.reachable == ["a", "b", "c"]
        assert g.succ == [[], [0, 2], [], [0, 1, 2]]


def _preorder(pot):
    return [pot.ids[v] for v in pot.order]


def _sizes(pot):
    return dict(zip(pot.ids, pot.size))


class TestPot:
    def test_chain_pot(self):
        p = _profile(["A"], [("A", 30.0, ["B"]), ("B", 70.0, [])])
        pot = build_pot(build_graph(p))
        assert helpers.parents(pot) == {"A": "s", "B": "A"}
        assert pot.ids == ["A", "B"]
        assert pot.up == [-1, 0]
        assert _sizes(pot) == {"A": 2, "B": 1}
        assert _preorder(pot) == ["A", "B"]
        assert pot.at == [0, 1]
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
        assert helpers.parents(pot)["c"] == "s"
        assert dcs(pot, "c") == ("c",)
        assert _sizes(pot) == {"a": 1, "b": 1, "c": 1}

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
        assert helpers.parents(pot) == {"a": "s", "b": "a", "c": "a", "d": "a"}
        assert dcs(pot, "d") == ("a", "d")
        assert ddg(pot, "a") == frozenset({"a", "b", "c", "d"})
        assert _sizes(pot)["a"] == 4

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
            parent = helpers.parents(pot)
            seen = {pot.seller}
            for node in _preorder(pot):
                assert parent[node] in seen
                seen.add(node)
            assert seen - {pot.seller} == set(parent)
            # at inverts the preorder
            assert [pot.at[v] for v in pot.order] == list(range(len(pot.ids)))

    def test_matches_deletion_oracle_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            p = helpers.random_sparse_profile(rng)
            pot = build_pot(build_graph(p))
            assert helpers.parents(pot) == helpers.oracle_parents(helpers.slow_graph(p))

    @pytest.mark.parametrize(
        "n, extra", [(1000, 0.3), (1500, 0.15), (2000, 0.1), (3000, 0.05)]
    )
    def test_matches_networkx_on_large_graphs(self, n, extra):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(n)
        p = helpers.random_large_profile(rng, n, extra)
        g = helpers.slow_graph(p)
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
        pot = build_pot(build_graph(p))
        assert helpers.parents(pot) == want
        # deep chains, not a flat star under the seller
        assert any(len(dcs(pot, v)) > 10 for v in helpers.parents(pot))

    def test_subtree_sizes_consistent_with_ddg(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            pot = build_pot(build_graph(helpers.random_sparse_profile(rng)))
            order, sizes = _preorder(pot), _sizes(pot)
            for i, node in enumerate(order):
                assert sizes[node] == len(ddg(pot, node))
                # preorder: the subtree is the slice starting at its root
                size = sizes[node]
                assert frozenset(order[i : i + size]) == ddg(pot, node)


class TestCut:
    """``Pot.cut`` rebuilds a bidder's subtree alone, once the bidder
    reports only some of its links. Against the whole deviated market
    rebuilt by ``build_pot(build_graph(...))``: the bidders outside the
    subtree are reached as before, the bidder keeps its own immediate
    dominator, and inside the subtree the reached bidders and their
    immediate dominators are the cut's. ``Pot.branch_sizes`` gives the
    deviated market's branch sizes."""

    @staticmethod
    def _check(truth, pot, agent, subset):
        slot = pot.ids.index(agent)
        first, stop = pot.at[slot], pot.at[slot] + pot.size[slot]
        inside = {pot.ids[v] for v in pot.order[first:stop]}
        index = {a: i for i, a in enumerate(pot.ids)}
        below, up = pot.cut(slot, [index[v] for v in sorted(subset) if v in index])

        deviated = helpers.replace_action(truth, agent, truth.bids()[agent], subset)
        dev_pot = build_pot(build_graph(deviated))
        dev = helpers.parents(dev_pot)
        assert set(dev) - inside == set(pot.ids) - inside
        assert dev[agent] == helpers.parents(pot)[agent]
        want = {v: p for v, p in dev.items() if v in inside and v != agent}
        assert dict(zip((pot.ids[v] for v in below), (pot.ids[u] for u in up))) == want
        # a preorder: every bidder's immediate dominator is on the open path
        path = [slot]
        for v, u in zip(below, up):
            while path[-1] != u:
                path.pop()
            path.append(v)
        links = [index[v] for v in subset if v in index]
        assert sorted(pot.branch_sizes(slot, links)) == sorted(subtree_profile(dev_pot).sizes)

    @staticmethod
    def _subsets(rng, neighbors, count):
        links = sorted(neighbors)
        if len(links) <= 4:
            return [
                frozenset(v for j, v in enumerate(links) if mask >> j & 1)
                for mask in range(1 << len(links))
            ]
        return [frozenset(v for v in links if rng.random() < 0.5) for _ in range(count)]

    def test_small_profiles_every_bidder(self):
        rng = np.random.default_rng(71)
        cut_off = 0
        for k in range(150):
            make = helpers.random_directed_profile if k % 2 else helpers.random_sparse_profile
            truth = make(rng, n_max=10)
            graph = build_graph(truth)
            if not graph.reachable:
                continue
            pot = build_pot(graph)
            for agent in pot.ids:
                for subset in self._subsets(rng, helpers.action(truth, agent).neighbors, 8):
                    self._check(truth, pot, agent, subset)
                    deviated = helpers.replace_action(truth, agent, 0.0, subset)
                    cut_off += len(build_graph(deviated).reachable) < len(pot.ids)
        assert cut_off > 100

    def test_large_profile_sampled_bidders(self):
        rng = np.random.default_rng(72)
        truth = helpers.random_large_profile(rng, 600, 0.3)
        pot = build_pot(build_graph(truth))
        heads = [a for v, a in enumerate(pot.ids) if pot.size[v] > 1]
        agents = rng.choice(heads, size=24, replace=False).tolist()
        agents += rng.choice(pot.ids, size=6, replace=False).tolist()
        for agent in agents:
            for subset in self._subsets(rng, helpers.action(truth, agent).neighbors, 3):
                self._check(truth, pot, agent, subset)

    def test_truth_links_give_the_truth_subtree(self):
        rng = np.random.default_rng(73)
        for _ in range(60):
            pot = build_pot(build_graph(helpers.random_directed_profile(rng)))
            for v in range(len(pot.ids)):
                assert pot.cut(v, pot.succ[v]) == pot.subtree(v)


class TestAgainstSlowReference:
    """build_graph and build_pot on integer indices against the id-keyed
    graph and dict-based data-flow they replaced (tests/helpers.py): the
    integer links, read back by id, must be the reference's successors,
    and since the dominator tree is unique, the immediate dominators, the
    subtree sizes and the preorder must agree, read by id."""

    @staticmethod
    def _check(profile):
        graph, slow = build_graph(profile), helpers.slow_graph(profile)
        ids = graph.reachable
        assert graph.seller == slow.seller
        assert ids == sorted(slow.reachable)
        assert len(graph.succ) == len(ids) + 1
        for u, out in zip([*ids, graph.seller], graph.succ):
            assert tuple(ids[v] for v in out) == slow.successors[u], u
        assert len(slow.successors) == len(graph.succ)

        got, want = build_pot(graph), helpers.slow_build_pot(slow)
        assert got.seller == want.seller
        assert helpers.parents(got) == want.parent
        assert _sizes(got) == want.subtree_size
        assert _preorder(got) == list(want.order)
        return graph

    def test_random_directed_profiles(self):
        rng = np.random.default_rng(2718)
        seen = Counter()
        for _ in range(250):
            p = helpers.random_directed_profile(rng)
            g = self._check(p)
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
        self._check(helpers.random_large_profile(rng, n, extra))


def _network(pairs, offset=0):
    """Network on labels n<offset>, n<offset+1>, ... from integer pairs."""
    return helpers.network_from_edges(
        [f"n{u + offset}" for u, _ in pairs], [f"n{v + offset}" for _, v in pairs]
    )


def _path(k):
    return [(i, i + 1) for i in range(k - 1)]


def _star(k):
    return [(0, i) for i in range(1, k)]


def _tree(rng, k):
    return [(int(rng.integers(i)), i) for i in range(1, k)]


def _barbell(k, bridge):
    """Two k-cliques joined by a path through `bridge` further nodes."""
    left = [(i, j) for i in range(k) for j in range(i + 1, k)]
    right = [(k + bridge + i, k + bridge + j) for i, j in left]
    chain = list(range(k - 1, k + bridge + 1))
    return left + right + list(zip(chain, chain[1:]))


def _bouquet(lengths):
    """Cycles of the given lengths that all pass through node 0."""
    pairs, nxt = [], 1
    for k in lengths:
        ring = [0, *range(nxt, nxt + k - 1)]
        nxt += k - 1
        pairs += list(zip(ring, ring[1:] + ring[:1]))
    return pairs


def _articulated(rng):
    """A bouquet, a barbell hung off one of its cycles, a tree hung off the
    barbell, and a second component (a triangle) nothing reaches."""
    pairs = _bouquet((3, 4, 5))
    pairs += [(u + 12, v + 12) for u, v in _barbell(4, 2)] + [(5, 12)]
    pairs += [(u + 22, v + 22) for u, v in _tree(rng, 8)] + [(17, 22)]
    pairs += [(30, 31), (31, 32), (32, 30)]
    return pairs


def _families(rng):
    yield "path", _path(7)
    yield "star", _star(6)
    yield "tree", _tree(rng, 14)
    yield "barbell", _barbell(4, 2)
    yield "bouquet", _bouquet((3, 4, 5))
    yield "articulated", _articulated(rng)
    yield "two_components", _path(4) + [(u + 4, v + 4) for u, v in _bouquet((3, 3))]


def _tree_parents(network, seller):
    root = network.index(seller)
    idom = network_dominators(network.indptr, network.indices, root)
    # the low-link search it replaced gives the same array
    want = helpers.slow_network_dominators(network.indptr, network.indices, root)
    np.testing.assert_array_equal(idom, want)
    labels = network.labels
    return {
        labels[v]: labels[p]
        for v, p in enumerate(idom.tolist())
        if p >= 0 and labels[v] != seller
    }


def _data_flow_parents(network, seller):
    return helpers.parents(build_pot(build_graph(template_from_network(network, seller))))


class TestNetworkDominators:
    """The tree of an undirected network against the data-flow tree of its
    full-propagation template, and against networkx."""

    def test_families_every_seller(self):
        rng = np.random.default_rng(61)
        for name, pairs in _families(rng):
            net = _network(pairs)
            for seller in net.labels:
                got = _tree_parents(net, seller)
                assert got == _data_flow_parents(net, seller), (name, seller)

    def test_root_and_unreached_marks(self):
        net = _network(_path(3) + [(5, 6)])
        idom = network_dominators(net.indptr, net.indices, net.index("n1"))
        assert dict(zip(net.labels, idom.tolist())) == {
            "n0": 1, "n1": 1, "n2": 1, "n5": -1, "n6": -1
        }

    def test_cut_vertex_seller(self):
        # the seller joins two triangles and a pendant path: every branch
        # hangs off it, and each triangle splits into two top-level heads
        net = _network(_bouquet((3, 3)) + [(0, 5), (5, 6)])
        assert _tree_parents(net, "n0") == {
            "n1": "n0", "n2": "n0", "n3": "n0", "n4": "n0", "n5": "n0", "n6": "n5"
        }

    @pytest.mark.parametrize("seed, n, edges", [(1, 400, 420), (2, 2000, 2600), (3, 3000, 6000)])
    def test_random_networks(self, seed, n, edges):
        rng = np.random.default_rng(seed)
        net = helpers.random_network(rng, n, edges)
        degrees = np.diff(net.indptr)
        sellers = {pick_seller(net, int(rho), seed) for rho in np.unique(degrees)[:4]}
        sellers |= {net.labels[int(i)] for i in rng.integers(0, net.node_count(), 3)}
        for seller in sorted(sellers):
            got = _tree_parents(net, seller)
            assert got == _data_flow_parents(net, seller), seller
            # articulation points below the seller, not a flat star
            assert len(set(got.values())) > 1

    def test_ten_thousand_nodes(self):
        net = helpers.random_network(np.random.default_rng(2024), 10_000, 30_000)
        seller = pick_seller(net, 4, seed=1)
        assert _tree_parents(net, seller) == _data_flow_parents(net, seller)

    def test_edge_list_with_repeats_and_self_loops(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(
            "a b\nb a\na b\nb c\nc c\nc d\nd b\nd e\ne e\ne f 2.5\n"
            "f e\nz z\ng h\n"
        )
        net = load_edge_list(path)
        assert net.labels == ("a", "b", "c", "d", "e", "f", "g", "h")
        for seller in net.labels:
            assert _tree_parents(net, seller) == _data_flow_parents(net, seller), seller
        assert _tree_parents(net, "a") == {
            "b": "a", "c": "b", "d": "b", "e": "d", "f": "e"
        }

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(62)
        cases = [(name, _network(pairs)) for name, pairs in _families(rng)]
        cases.append(("random", helpers.random_network(rng, 1500, 1800)))
        for name, net in cases:
            graph = nx.Graph()
            for label in net.labels:
                graph.add_edges_from((label, w) for w in net.neighbors(label))
            sellers = net.labels if name != "random" else net.labels[::97]
            for seller in sellers:
                want = {
                    v: p
                    for v, p in nx.immediate_dominators(graph.to_directed(), seller).items()
                    if v != seller
                }
                assert _tree_parents(net, seller) == want, (name, seller)


def _csr(size, pairs):
    """CSR arrays of the undirected graph on nodes 0..size-1 with the given
    links, as ``Network`` holds them: both ends of every link, rows
    ascending, no repeats."""
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    key = np.concatenate((pairs[:, 0] * size + pairs[:, 1], pairs[:, 1] * size + pairs[:, 0]))
    src, indices = np.divmod(np.unique(key), size)
    indptr = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=size), out=indptr[1:])
    return indptr, indices


def _random_links(rng, size, count):
    """`count` random links a < b on nodes 0..size-1, repeats allowed."""
    pairs = rng.integers(0, size, (count, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return pairs.min(axis=1), pairs.max(axis=1)


class TestComponents:
    """``_components`` against networkx's connected components."""

    @staticmethod
    def _check(size, a, b):
        nx = pytest.importorskip("networkx")
        label, forest = _components(size, a, b)
        graph = nx.Graph()
        graph.add_nodes_from(range(size))
        graph.add_edges_from(zip(a.tolist(), b.tolist()))
        components = list(nx.connected_components(graph))
        want = np.empty(size, dtype=np.intp)
        for component in components:
            want[list(component)] = min(component)
        np.testing.assert_array_equal(label, want)
        # a spanning forest: one link fewer than nodes per component, no
        # cycle, and the same components
        assert forest.size == size - len(components)
        assert np.unique(forest).size == forest.size
        spanning = nx.Graph()
        spanning.add_nodes_from(range(size))
        spanning.add_edges_from(zip(a[forest].tolist(), b[forest].tolist()))
        assert nx.is_forest(spanning)
        assert sorted(map(sorted, nx.connected_components(spanning))) == sorted(
            map(sorted, components)
        )

    def test_no_links(self):
        empty = np.empty(0, dtype=np.intp)
        for size in (1, 2, 7):
            self._check(size, empty, empty)

    def test_random_graphs(self):
        rng = np.random.default_rng(71)
        for _ in range(300):
            size = int(rng.integers(1, 40))
            # from no links through isolated nodes to one component
            a, b = _random_links(rng, size, int(rng.integers(0, 2 * size)))
            self._check(size, a, b)

    def test_large_graphs(self):
        rng = np.random.default_rng(72)
        for size, count in ((5_000, 2_000), (5_000, 5_000), (10_000, 30_000)):
            self._check(size, *_random_links(rng, size, count))

    def test_deep_chains(self):
        # a path numbered backwards, and one numbered at random
        size = 5_000
        self._check(size, np.arange(size - 1), np.arange(1, size))
        order = np.random.default_rng(73).permutation(size)
        a, b = order[:-1], order[1:]
        self._check(size, np.minimum(a, b), np.maximum(a, b))


def _shapes():
    """(name, size, links) of shapes whose depth, width or block structure
    is extreme."""
    yield "path", 20_000, _path(20_000)
    yield "cycle", 20_000, _path(20_000) + [(19_999, 0)]
    k = 10_000
    rungs = [(i, i + k) for i in range(k)]
    yield "ladder", 2 * k, _path(k) + [(u + k, v + k) for u, v in _path(k)] + rungs
    yield "star", 80_001, _star(80_001)
    yield "bouquet", 10_001, _bouquet((3,) * 5_000)
    yield "triangle_chain", 10_001, [
        e for t in range(0, 10_000, 2) for e in ((t, t + 1), (t + 1, t + 2), (t + 2, t))
    ]
    yield "binary_tree", 2**16 - 1, [((i - 1) // 2, i) for i in range(1, 2**16 - 1)]
    yield "complete", 300, [(i, j) for i in range(300) for j in range(i + 1, 300)]
    yield "caterpillar", 20_000, _path(10_000) + [(i, i + 10_000) for i in range(10_000)]
    yield "tiny", 2, [(0, 1)]


class TestAgainstSlowNetworkDominators:
    """``network_dominators`` returns the array of the low-link search it
    replaced (``helpers.slow_network_dominators``) on graphs of extreme
    shape; ``_tree_parents`` checks the same on every graph above."""

    @staticmethod
    def _check(indptr, indices, root):
        np.testing.assert_array_equal(
            network_dominators(indptr, indices, root),
            helpers.slow_network_dominators(indptr, indices, root),
        )

    @pytest.mark.parametrize("name", [name for name, _, _ in _shapes()])
    def test_shapes_sorted_and_permuted(self, name):
        size, pairs = next((size, pairs) for n, size, pairs in _shapes() if n == name)
        pairs = np.asarray(pairs)
        rng = np.random.default_rng(size)
        for relabel in (np.arange(size), rng.permutation(size)):
            indptr, indices = _csr(size, relabel[pairs])
            for root in {0, size // 2, size - 1}:
                self._check(indptr, indices, int(relabel[root]))

    def test_isolated_and_tiny_components(self):
        # node 0 has no link, 1-2 are a component of their own, and the
        # rest is one random list
        rng = np.random.default_rng(63)
        a, b = _random_links(rng, 3_000, 6_000)
        pairs = np.column_stack((a, b))
        pairs = np.vstack(([(1, 2)], pairs[a >= 3]))
        indptr, indices = _csr(3_000, pairs)
        assert indptr[1] == 0
        for root in (0, 1, 2, int(indices[-1])):
            self._check(indptr, indices, root)

    def test_rows_without_links(self):
        # linkless nodes between the rows of the root's component and after
        # them, where np.minimum.reduceat would read an empty row as the
        # next row's first entry
        pairs = [(0, 2), (2, 4), (4, 0), (4, 5), (5, 8), (8, 9), (9, 5), (2, 6)]
        indptr, indices = _csr(12, pairs)
        for root in range(12):
            self._check(indptr, indices, root)

    def test_matches_networkx_at_scale(self):
        nx = pytest.importorskip("networkx")
        pairs = np.random.default_rng(64).integers(0, 12_000, (36_000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        indptr, indices = _csr(12_000, pairs)
        root = int(np.flatnonzero(np.diff(indptr) == 4)[0])
        graph = nx.Graph()
        graph.add_edges_from(pairs.tolist())
        want = {
            v: p for v, p in nx.immediate_dominators(graph.to_directed(), root).items() if v != root
        }
        got = network_dominators(indptr, indices, root)
        assert {v: int(got[v]) for v in want} == want
        assert got[root] == root
        assert (got >= 0).sum() == len(want) + 1 > 10_000


class TestSubtreeProfile:
    def test_from_sizes(self):
        sp = SubtreeProfile.from_sizes((3, 6))
        assert (sp.n, sp.m, sp.sizes) == (9, 2, (3, 6))

    def test_validation(self):
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
            if not helpers.parents(pot):
                continue
            sp = subtree_profile(pot)
            assert sum(sp.sizes) == sp.n == len(helpers.parents(pot))
            assert sp.m == sum(1 for v in helpers.parents(pot).values() if v == pot.seller)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        p = helpers.random_connected_profile(rng)
        d = profile_to_dict(p)
        assert profile_from_dict(json.loads(json.dumps(d))) == p
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile_to_dict(p)), encoding="utf-8")
        assert load_profile(path) == p

    def test_byte_order_mark_is_not_content(self, tmp_path):
        # editors on some platforms start UTF-8 files with a BOM, which
        # json.load rejects
        p = _profile(["a"], [("a", 12.5, ["b"]), ("b", 0.0, [])])
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile_to_dict(p)), encoding="utf-8")
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
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

    def test_neighbors_string_is_rejected(self):
        # a string is not read as links to each of its letters
        with pytest.raises(ValidationError, match="array"):
            profile_from_dict(
                {
                    "seller": "s",
                    "agents": [
                        {"id": "s", "bid": 0.0, "neighbors": "ab"},
                        {"id": "a", "bid": 10.0, "neighbors": []},
                        {"id": "b", "bid": 20.0, "neighbors": []},
                    ],
                }
            )

    @pytest.mark.parametrize("bad", [7, "", None])
    def test_neighbor_that_is_no_id_is_rejected(self, bad):
        # such a link could match no bidder and would be dropped unseen
        with pytest.raises(ValidationError, match="non-empty string"):
            profile_from_dict(
                {"seller": "s", "agents": [{"id": "a", "bid": 1.0, "neighbors": ["b", bad]}]}
            )

    @pytest.mark.parametrize(
        "bad", ["70", "high", None, [70], 10**400], ids=["str", "word", "null", "array", "huge-int"]
    )
    def test_bid_that_is_no_json_number_is_rejected(self, bad):
        # "70" used to be read as 70.0; an integer past the float range
        # overflowed outside the ValidationError net
        with pytest.raises(ValidationError, match="bid|int too large"):
            profile_from_dict(
                {"seller": "s", "agents": [{"id": "a", "bid": bad, "neighbors": []}]}
            )

    def test_boolean_bid_is_rejected(self):
        with pytest.raises(ValidationError, match="bid for 'a' must be finite and >= 0, got True"):
            profile_from_dict(
                {"seller": "s", "agents": [{"id": "a", "bid": True, "neighbors": []}]}
            )

    @staticmethod
    def _one_bid_file(tmp_path, bid):
        path = tmp_path / "profile.json"
        row = {"id": "a", "bid": bid, "neighbors": []}
        path.write_text(json.dumps({"seller": "s", "agents": [row]}), encoding="utf-8")
        return path

    def test_json_int_bid_loads_as_a_float(self, tmp_path):
        p = load_profile(self._one_bid_file(tmp_path, 70))
        assert type(p.bids()["a"]) is float
        assert json.dumps(profile_to_dict(p)) == (
            '{"seller": "s", "agents": [{"id": "a", "bid": 70.0, "neighbors": []}]}'
        )

    @pytest.mark.parametrize("bad", [True, "70", None], ids=["bool", "str", "null"])
    def test_bid_that_is_no_number_is_refused_on_load(self, bad, tmp_path):
        with pytest.raises(ValidationError, match="bid for 'a' must be finite and >= 0"):
            load_profile(self._one_bid_file(tmp_path, bad))
