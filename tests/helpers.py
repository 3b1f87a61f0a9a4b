"""Test utilities: random instance generators and brute-force oracles.

Everything here is deliberately slow and simple so it can serve as an
independent cross-check of the package's optimized implementations.
"""

from collections import deque

import numpy as np

from netauction.graphs import (
    ActionProfile,
    AgentAction,
    DiffusionGraph,
    build_graph,
)

SELLER = "s"


def random_connected_profile(rng, n_max=7, vbar=100.0, extra_edges=None):
    """Random instance in which every bidder is reachable from the seller.

    Built as a random attachment tree (each new bidder hangs off the seller
    or an earlier bidder) plus a few extra directed reports.  Bids are drawn
    uniformly on [0, vbar].
    """
    n = int(rng.integers(1, n_max + 1))
    ids = [f"x{i}" for i in range(1, n + 1)]
    nodes = [SELLER] + ids
    reports = {node: set() for node in nodes}
    for k, node in enumerate(ids, start=1):
        parent = nodes[int(rng.integers(0, k))]
        reports[parent].add(node)
    if extra_edges is None:
        extra_edges = int(rng.integers(0, n + 1))
    for _ in range(extra_edges):
        u = nodes[int(rng.integers(0, len(nodes)))]
        v = ids[int(rng.integers(0, n))]
        if u != v:
            reports[u].add(v)
    bids = rng.uniform(0.0, vbar, size=n)
    agents = [AgentAction(SELLER, 0.0, frozenset(reports[SELLER]))]
    agents += [
        AgentAction(i, float(b), frozenset(reports[i]))
        for i, b in zip(ids, bids)
    ]
    return ActionProfile(SELLER, tuple(agents))


def random_sparse_profile(rng, n_max=12, vbar=100.0):
    """Random instance with no connectivity guarantee.

    Edges are pure coin flips, so some bidders are typically unreachable.
    Exercises the reachability filtering paths.
    """
    n = int(rng.integers(1, n_max + 1))
    ids = [f"x{i}" for i in range(1, n + 1)]
    p = min(1.0, 1.8 / max(1, n))
    seller_out = {v for v in ids if rng.random() < max(p, 0.3)}
    agents = [AgentAction(SELLER, 0.0, frozenset(seller_out))]
    for i in ids:
        out = {v for v in ids if v != i and rng.random() < p}
        agents.append(AgentAction(i, float(rng.uniform(0.0, vbar)), frozenset(out)))
    return ActionProfile(SELLER, tuple(agents))


def random_large_profile(rng, n, extra_per_node, window=50):
    """Random instance with n bidders, every one reachable from the seller.

    Bidder i is informed by one of the `window` bidders before it (or by
    the seller), which makes long dominator chains; extra links between
    uniformly drawn pairs, some pointing backwards, then merge paths so
    that many immediate dominators sit above the bidder that informed them.
    """
    ids = [f"x{i}" for i in range(n)]
    reports = {SELLER: {ids[0]}}
    reports.update({i: set() for i in ids})
    for k in range(1, n):
        j = int(rng.integers(max(-1, k - window), k))
        reports[SELLER if j < 0 else ids[j]].add(ids[k])
    for _ in range(int(extra_per_node * n)):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            reports[ids[u]].add(ids[v])
    agents = [AgentAction(SELLER, 0.0, frozenset(reports[SELLER]))]
    agents += [AgentAction(i, 1.0, frozenset(reports[i])) for i in ids]
    return ActionProfile(SELLER, tuple(agents))


def truthful_from_values(values, reports, seller=SELLER):
    """Assemble a truthful ActionProfile from value and report dicts."""
    agents = [AgentAction(seller, 0.0, frozenset(reports.get(seller, ())))]
    for i in sorted(values):
        agents.append(
            AgentAction(i, float(values[i]), frozenset(reports.get(i, ())))
        )
    return ActionProfile(seller, tuple(agents))


def reachable_without(graph: DiffusionGraph, removed):
    """BFS from the seller skipping one node.  Oracle for domination."""
    seen = {graph.seller}
    queue = deque([graph.seller])
    while queue:
        u = queue.popleft()
        for v in graph.successors.get(u, ()):
            if v == removed or v in seen:
                continue
            seen.add(v)
            queue.append(v)
    seen.discard(graph.seller)
    return seen


def oracle_parents(graph: DiffusionGraph):
    """Immediate dominators by node deletion, O(V^2 * E).

    doms(v) = every bidder whose removal disconnects v; the immediate
    dominator is the deepest of those, i.e. the one with the most
    dominators itself.  Falls back to the seller when the set is empty.
    """
    nodes = sorted(graph.reachable)
    cut = {u: reachable_without(graph, u) for u in nodes}
    doms = {
        v: [u for u in nodes if u != v and v not in cut[u]] for v in nodes
    }
    parents = {}
    for v in nodes:
        if not doms[v]:
            parents[v] = graph.seller
        else:
            parents[v] = max(doms[v], key=lambda u: (len(doms[u]), u))
    return parents


def enumerate_partitions(n, m, kmin):
    """All nondecreasing partitions of n into exactly m parts, each >= kmin."""

    def rec(remaining, parts, lo):
        if parts == 1:
            if remaining >= lo:
                yield (remaining,)
            return
        for first in range(lo, remaining // parts + 1):
            for rest in rec(remaining - first, parts - 1, first):
                yield (first, *rest)

    yield from rec(n, m, kmin)


def brute_force_best_partition(n, m, kmin):
    """argmax of sum(k / (n - k + 1)) over the partitions above."""
    best, best_val = None, -np.inf
    for part in enumerate_partitions(n, m, kmin):
        val = sum(k / (n - k + 1) for k in part)
        if val > best_val:
            best, best_val = part, val
    return best, best_val


def graph_of(profile):
    return build_graph(profile)


def naive_apx_r(profile, reserve):
    """Quadratic reference auction: every exclusion maximum from scratch.

    Returns (winner, payments, revenue, failed) built only from dcs/ddg and
    raw max() calls, with no incremental bookkeeping to share bugs with the
    production implementation.
    """
    from netauction.graphs import build_pot, dcs, ddg

    g = build_graph(profile)
    bids = {a.agent: a.bid for a in profile.bidders() if a.agent in g.reachable}
    if not bids:
        return None, {}, 0.0, True
    h = min(bids, key=lambda i: (-bids[i], i))
    if bids[h] < reserve:
        return None, {}, 0.0, True
    pot = build_pot(g)
    path = dcs(pot, h)

    def excl_after(idx):
        if idx == len(path):
            return max(bids.values())
        sub = ddg(pot, path[idx])
        return max((b for i, b in bids.items() if i not in sub), default=0.0)

    widx = next(
        t
        for t, j in enumerate(path)
        if bids[j] >= reserve and bids[j] == excl_after(t + 1)
    )
    w = path[widx]
    payments = {i: 0.0 for i in bids}
    payments[w] = max(excl_after(widx), reserve)
    for t in range(widx):
        payments[path[t]] = max(excl_after(t), reserve) - max(
            excl_after(t + 1), reserve
        )
    revenue = max(excl_after(0), reserve)
    return w, payments, revenue, False


def slow_check_dsic(truth, d, policy, grid=None, settings=None):
    """Reference deviation search: every candidate built and run from scratch.

    For each (bid, report) candidate the deviated profile is assembled with
    ``replace_action``, its graph, dominator tree, branch profile and
    reserve are rebuilt, and ``run_apx_r`` sells the item over it. The
    first strictly best candidate in enumeration order is reported, exactly
    as ``check_dsic`` promises.
    """
    from netauction.graphs import build_pot, subtree_profile
    from netauction.incentives import (
        DeviationGrid,
        DeviationReport,
        enumerate_deviations,
    )
    from netauction.mechanism import run_apx_r, utilities
    from netauction.reserve import global_optimal_reserve, resolve_reserve

    grid = grid or DeviationGrid()
    values = truth.bids()
    graph = build_graph(truth)
    if not graph.reachable:
        return ()
    base_profile = subtree_profile(build_pot(graph))
    base_reserve = resolve_reserve(policy, base_profile, d, settings)
    # global optima memoized by sorted branch sizes, filled in visiting order
    cache = {tuple(sorted(base_profile.sizes)): base_reserve}

    def reserve_for(profile):
        if policy.kind != "global_opt":
            return base_reserve
        key = tuple(sorted(profile.sizes))
        if key not in cache:
            cache[key] = global_optimal_reserve(profile, d, settings)
        return cache[key]

    truth_utils = utilities(truth, values, run_apx_r(truth, base_reserve))
    reports = []
    for agent in sorted(values):
        u_truth = truth_utils[agent]
        best_gain, best_bid = 0.0, values[agent]
        best_report = truth.action(agent).neighbors
        deviations = ()
        if agent in graph.reachable:
            deviations = enumerate_deviations(
                values[agent],
                truth.action(agent).neighbors,
                grid,
                d.vbar,
                others_bids=[b for a, b in values.items() if a != agent],
                reserve=base_reserve,
                seller=truth.seller,
            )
        for bid, subset in deviations:
            deviated = truth.replace_action(agent, bid, subset)
            r = reserve_for(subtree_profile(build_pot(build_graph(deviated))))
            outcome = run_apx_r(deviated, r)
            paid = outcome.payments.get(agent, 0.0)
            u = values[agent] - paid if outcome.winner == agent else -paid
            if u - u_truth > best_gain:
                best_gain = u - u_truth
                best_bid, best_report = bid, subset
        reports.append(
            DeviationReport(
                agent=agent,
                truthful_utility=u_truth,
                best_gain=best_gain,
                best_bid=best_bid,
                best_report=best_report,
                deviations_tested=len(deviations),
            )
        )
    return tuple(reports)
