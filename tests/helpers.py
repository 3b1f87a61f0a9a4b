"""Test utilities: random instance generators and brute-force oracles.

Everything here is deliberately slow and simple so it can serve as an
independent cross-check of the package's optimized implementations.
"""

import math
from array import array
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from netauction.distributions import TruncatedExponential, TruncatedNormal, Uniform
from netauction.errors import (
    DomainError,
    EdgeListFormatError,
    ValidationError,
    check_amount,
    check_count,
)
from netauction.graphs import (
    ActionProfile,
    AgentAction,
    SubtreeProfile,
)
from netauction.mechanism import Outcome
from netauction.reserve import resolve_reserve
from netauction.revenue import _subtree_revenues
from netauction.simulation import Network, RevenueStats, _batch_rows

SELLER = "s"

# Regular priors whose 1 - F cancels to a few ulps near vbar when read as
# one minus the cdf
TAIL_PRIORS = [
    *(f"normal:mu=50,sigma={s},vbar=100" for s in (1.5, 2, 3, 4, 5, 6)),
    *(f"normal:mu={mu},sigma={s},vbar=100"
      for mu, s in ((0, 8), (10, 8), (20, 8), (30, 8), (0, 10), (10, 10), (0, 12))),
    *(f"exp:lambda={lam},vbar=100" for lam in (0.38, 0.45, 0.6)),
]


# Regular priors whose density underflows to 0 on part of [0, vbar], where
# the quotient forms of the virtual value are 0/0 or 1/0
NARROW_PRIORS = [
    "normal:mu=50,sigma=1,vbar=100",
    "exp:lambda=8,vbar=100",
    "normal:mu=60,sigma=1.5848931924611134,vbar=100",
]


class SingularityError(DomainError):
    """An oracle below evaluated where its quotient diverges."""


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


def random_directed_profile(rng, n_max=12, vbar=100.0):
    """Random reports with every kind of link the graph builder filters:
    cycles, self-links, links back to the seller, links to an id that never
    reports, and bidders the seller does not reach."""
    n = int(rng.integers(1, n_max + 1))
    ids = [f"x{i}" for i in range(1, n + 1)]
    targets = ids + [SELLER, "ghost"]
    p = float(rng.uniform(0.05, 0.45))
    seller_out = {v for v in targets if v != SELLER and rng.random() < p}
    agents = [AgentAction(SELLER, 0.0, frozenset(seller_out))]
    for i in ids:
        out = {v for v in targets if rng.random() < p}
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


def _network(pairs) -> Network:
    """The ``Network`` of an iterable of label pairs: repeated and reversed
    pairs are one link, and self-loops are dropped before the nodes are
    named, so a label seen only in self-loops is no node.

    Each label is numbered when first seen and each endpoint kept as one
    integer. The labels are sorted once at the end, and a rank array maps
    the first-seen numbers to label order.
    """
    index: dict[str, int] = {}
    ends = array("q")  # u0, v0, u1, v1, ... as first-seen numbers
    number, push = index.setdefault, ends.append
    for u, v in pairs:
        if u != v:
            push(number(u, len(index)))
            push(number(v, len(index)))
    labels = sorted(index)
    size = len(labels)
    rank = np.empty(size, dtype=np.intp)
    rank[np.fromiter(map(index.__getitem__, labels), dtype=np.intp, count=size)] = np.arange(size)
    ends = rank[np.frombuffer(ends, dtype=np.int64)]
    iu, iv = ends[0::2], ends[1::2]
    key = np.concatenate((iu * size + iv, iv * size + iu))
    key.sort()
    src, indices = np.divmod(key[np.diff(key, prepend=-1) != 0], size)
    indptr = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=size), out=indptr[1:])
    return Network(labels=tuple(labels), indptr=indptr, indices=indices)


def slow_load_edge_list(path) -> Network:
    """The per-line edge-list reader that ``load_edge_list`` replaced: one
    ``split`` per text line, labels numbered when first seen."""

    def pairs(fh):
        for ln, raw in enumerate(fh, 1):
            parts = raw.split(None, 2)
            if not parts or parts[0][0] in "#%":
                continue
            if len(parts) < 2:
                raise EdgeListFormatError(
                    f"{path}: line {ln}: expected two node ids, got {raw.rstrip()!r}"
                )
            yield parts[0], parts[1]

    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return _network(pairs(fh))
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            ln = next(i for i, b in enumerate(fh, 1) if b != b.decode(errors="ignore").encode())
        raise EdgeListFormatError(f"{path}: line {ln}: not UTF-8 text") from None


def network_from_edges(us, vs):
    """The ``Network`` of the pairs (us[i], vs[i]), as an edge list of them
    reads: repeated and reversed pairs are one link, self-loops are none."""
    return _network(zip(us, vs))


def random_network(rng, n, edges):
    """Undirected network on labels v0..v{n-1} from `edges` uniform random
    pairs; self-loops and repeated pairs collapse as in an edge list."""
    pairs = rng.integers(0, n, size=(edges, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]].tolist()
    return network_from_edges([f"v{u}" for u, _ in pairs], [f"v{v}" for _, v in pairs])


def write_seeded_list(path, nodes: int, pairs: int, seed: int) -> None:
    """Write the edge list of ``default_rng(seed).integers(0, nodes, (pairs,
    2))`` as ``u v`` lines. The tests and CI draw their seeded lists here:
    python -c "from helpers import write_seeded_list; ..." with PYTHONPATH
    holding this directory."""
    links = np.random.default_rng(seed).integers(0, nodes, (pairs, 2))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u} {v}\n" for u, v in links.tolist())


def slow_load_adjacency(path):
    """The dict-of-frozensets edge-list reader that ``load_edge_list``
    replaced, verbatim but for returning the adjacency dict."""
    adj: dict[str, set[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("%"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise EdgeListFormatError(
                    f"{path}: line {ln}: expected two node ids, got {raw.rstrip()!r}"
                )
            u, v = parts[0], parts[1]
            if u == v:
                continue
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    return {u: frozenset(nb) for u, nb in adj.items()}


def run_spa_reserve(bids: dict[str, float], reserve: float) -> Outcome:
    """Second-price auction with reserve over an explicit bidder set.

    No diffusion: the item goes to the highest bidder unless every bid is
    under the reserve, at the larger of the second-highest bid and the
    reserve. A lone bidder pays the reserve. The diffusion auction on a
    star network around the seller must agree with it.
    """
    if not math.isfinite(reserve) or reserve < 0.0:
        raise DomainError(f"reserve must be finite and >= 0, got {reserve}")
    for agent, bid in bids.items():
        if not math.isfinite(bid) or bid < 0.0:
            raise ValidationError(f"bid for {agent!r} must be finite and >= 0, got {bid}")
    if not bids:
        return Outcome(winner=None, payments={}, revenue=0.0, failed=True)
    winner = min(bids, key=lambda a: (-bids[a], a))
    if bids[winner] < reserve:
        return Outcome(winner=None, payments={}, revenue=0.0, failed=True)
    second = max((b for a, b in bids.items() if a != winner), default=0.0)
    price = max(second, reserve)
    payments = {a: 0.0 for a in sorted(bids)}
    payments[winner] = price
    return Outcome(winner=winner, payments=payments, revenue=price, failed=False)


def action(profile: ActionProfile, agent: str) -> AgentAction:
    """Bidder ``agent``'s report; KeyError for the seller and unknown ids."""
    for a in profile.bidders():
        if a.agent == agent:
            return a
    raise KeyError(agent)


def replace_action(profile: ActionProfile, agent: str, bid, neighbors) -> ActionProfile:
    """Copy of the profile with one bidder's action swapped out."""
    action(profile, agent)  # KeyError for unknown or seller ids
    agents = tuple(
        AgentAction(agent, bid, neighbors) if a.agent == agent else a for a in profile.agents
    )
    return ActionProfile(profile.seller, agents)


def utilities(profile: ActionProfile, true_values, outcome: Outcome) -> dict[str, float]:
    """Quasilinear utilities: allocation value minus payment, per bidder.

    Bidders absent from the outcome's payment map paid nothing and get 0.
    """
    out = {i: 0.0 - outcome.payments.get(i, 0.0) for i in profile.bids()}
    if outcome.winner is not None:
        out[outcome.winner] = true_values[outcome.winner] - outcome.payments[outcome.winner]
    return out


def truthful_from_values(values, reports, seller=SELLER):
    """Assemble a truthful ActionProfile from value and report dicts."""
    agents = [AgentAction(seller, 0.0, frozenset(reports.get(seller, ())))]
    for i in sorted(values):
        agents.append(
            AgentAction(i, float(values[i]), frozenset(reports.get(i, ())))
        )
    return ActionProfile(seller, tuple(agents))


@dataclass(frozen=True)
class SlowGraph:
    """Reported links restricted to what the seller can actually reach,
    keyed by id.

    ``successors`` maps the seller and every reachable bidder to the
    reachable bidders they inform, in id order; links aimed at the seller,
    at self, or at ids that never report are inert and dropped here.
    """

    seller: str
    reachable: frozenset[str]
    successors: dict[str, tuple[str, ...]] = field(compare=False)


def slow_graph(profile: ActionProfile) -> SlowGraph:
    """BFS the reported links outward from the seller, on ids: the graph
    the package built before it compiled profiles to integer links, kept so
    that the oracles share no reachability code with the package."""
    known = frozenset(profile.bids())
    reports = {a.agent: a.neighbors for a in profile.bidders()}
    seller_out = tuple(sorted(v for v in profile.seller_report() if v in known))
    succ: dict[str, tuple[str, ...]] = {profile.seller: seller_out}
    reachable: set[str] = set(seller_out)
    frontier = list(seller_out)
    while frontier:
        nxt: list[str] = []
        for u in frontier:
            out = tuple(sorted(v for v in reports[u] if v in known and v != u))
            succ[u] = out
            for v in out:
                if v not in reachable:
                    reachable.add(v)
                    nxt.append(v)
        frontier = nxt
    return SlowGraph(
        seller=profile.seller,
        reachable=frozenset(reachable),
        successors={u: succ[u] for u in [profile.seller, *sorted(reachable)]},
    )


def reachable_without(graph: SlowGraph, removed):
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


def oracle_parents(graph: SlowGraph):
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


def naive_apx_r(profile, reserve):
    """Quadratic reference auction: every exclusion maximum from scratch.

    Returns (winner, payments, revenue, failed) built only from dcs/ddg and
    raw max() calls, with no incremental bookkeeping to share bugs with the
    production implementation.
    """
    g = slow_graph(profile)
    bids = {a.agent: a.bid for a in profile.bidders() if a.agent in g.reachable}
    if not bids:
        return None, {}, 0.0, True
    h = min(bids, key=lambda i: (-bids[i], i))
    if bids[h] < reserve:
        return None, {}, 0.0, True
    pot = slow_build_pot(g)
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


def enumerate_deviations(
    value, neighbors, grid, vbar, others_bids=(), reserve=None, seller=None
):
    """Candidate (bid, reported-neighbors) pairs for one agent, in the order
    ``check_dsic`` breaks ties in: bid-major, the subsets under each bid.

    Bids: an even grid on [0, vbar], every opponent bid, the agent's own
    value, and the reserve probed exactly and a hair on each side, clipped
    to [0, vbar], sorted and without repeats. Reports: every subset of the
    neighbors other than the seller, by size, then in ``combinations``
    order.
    """
    eps = 1e-6 * vbar
    raw = [*np.linspace(0.0, vbar, grid.points).tolist(), *others_bids, value]
    if reserve is not None:
        raw += [reserve, reserve - eps, reserve + eps]
    bids = sorted({min(max(float(b), 0.0), vbar) for b in raw})
    informative = sorted(frozenset(neighbors) - {seller})
    subsets = [
        frozenset(chosen)
        for size in range(len(informative) + 1)
        for chosen in combinations(informative, size)
    ]
    return tuple((b, s) for b in bids for s in subsets)


def scan_deviations(candidates, firsts, u_truth):
    """The deviation search's pick before it probed breakpoints: every bid
    candidate in turn, under it every (u, breaks, subset) of ``firsts`` in
    order, keeping the first strict improvement on ``u_truth`` as
    (gain, bid, subset); None when nothing improves."""
    best_gain, best = 0.0, None
    for b in candidates:
        for u, _, subset in firsts:
            gain = u(b) - u_truth
            if gain > best_gain:
                best_gain, best = gain, (gain, b, subset)
    return best


def slow_check_dsic(truth, d, policy, grid=None):
    """Reference deviation search: every candidate built and run from scratch.

    For each (bid, report) candidate the deviated profile is assembled with
    ``replace_action``, its graph, dominator tree, branch profile and
    reserve are rebuilt, and ``run_apx_r`` sells the item over it. The
    first strictly best candidate in enumeration order is reported, exactly
    as ``check_dsic`` promises. Branch sizes come from the id-keyed
    ``slow_graph`` and ``slow_build_pot``.
    """
    from netauction.incentives import DeviationGrid, DeviationReport
    from netauction.mechanism import run_apx_r
    from netauction.reserve import global_optimal_reserve, resolve_reserve

    grid = grid or DeviationGrid()
    values = truth.bids()
    graph = slow_graph(truth)
    if not graph.reachable:
        return ()
    base_profile = slow_subtree_profile(graph)
    base_reserve = resolve_reserve(policy, base_profile, d)
    # global optima memoized by sorted branch sizes, filled in visiting order
    cache = {tuple(sorted(base_profile.sizes)): base_reserve}

    def reserve_for(profile):
        if policy.kind != "global_opt":
            return base_reserve
        key = tuple(sorted(profile.sizes))
        if key not in cache:
            cache[key] = global_optimal_reserve(profile, d)
        return cache[key]

    truth_utils = utilities(truth, values, run_apx_r(truth, base_reserve))
    reports = []
    for agent in sorted(values):
        u_truth = truth_utils[agent]
        best_gain, best_bid = 0.0, values[agent]
        best_report = action(truth, agent).neighbors
        deviations = ()
        if agent in graph.reachable:
            deviations = enumerate_deviations(
                values[agent],
                action(truth, agent).neighbors,
                grid,
                d.vbar,
                others_bids=[b for a, b in values.items() if a != agent],
                reserve=base_reserve,
                seller=truth.seller,
            )
        for bid, subset in deviations:
            deviated = replace_action(truth, agent, bid, subset)
            r = reserve_for(slow_subtree_profile(slow_graph(deviated)))
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


# The recursive scalar adaptive Simpson the revenue module used before its
# quadrature was batched, kept verbatim as a reference: one cdf call per
# evaluation point, one integral per branch size.


def _simpson(a: float, fa: float, fm: float, b: float, fb: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, fa, m, fm, b, fb, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(a, fa, flm, m, fm)
    right = _simpson(m, fm, frm, b, fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    half = 0.5 * tol
    return _adapt(f, a, fa, lm, flm, m, fm, left, half, depth - 1) + _adapt(
        f, m, fm, rm, frm, b, fb, right, half, depth - 1
    )


def slow_integrate(f, a, b):
    if a == b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = _simpson(a, fa, fm, b, fb)
    tol = 1e-9 * max(abs(whole), 1.0)
    return _adapt(f, a, fa, m, fm, b, fb, whole, tol, 40)


def _slow_subtree_quadrature(kx, n, d, r):
    c = kx / n

    def integrand(v: float) -> float:
        F = float(d.cdf(v))
        return (c - 1.0) * F**n + F ** (n - kx)

    head = c * (d.vbar - r * float(d.cdf(r)) ** n)
    return head - slow_integrate(integrand, r, d.vbar)


def slow_expected_total_revenue(profile, d, r):
    """Quadrature route of expected_total_revenue, one recursive integral
    per distinct branch size."""
    return sum(
        count * _slow_subtree_quadrature(k, profile.n, d, r)
        for k, count in sorted(Counter(profile.sizes).items())
    )


# Oracles the package no longer ships, kept from its graphs, distributions,
# reserve and revenue modules: the dominator chain and the subtree of a
# dominator-tree node (both read only an id-keyed ``parent`` dict, of a
# ``Pot`` or a ``SlowPot``, never the index arrays), the virtual values the reserve tests solve against, the
# secure-reserve bound and the revenue of a single branch.


def parents(pot) -> dict[str, str]:
    """Each reachable bidder's immediate dominator, by id, in a ``Pot`` or
    a ``SlowPot``."""
    if isinstance(pot, SlowPot):
        return pot.parent
    ids, seller = pot.ids, pot.seller
    return {v: seller if u < 0 else ids[u] for v, u in zip(ids, pot.up)}


def dcs(pot, agent: str) -> tuple[str, ...]:
    """Dominator chain from the seller's side down to the agent.

    Starts at the agent's top-level dominator and ends at the agent itself;
    the seller is not included.
    """
    parent = parents(pot)
    if agent not in parent:
        raise KeyError(agent)
    chain = [agent]
    while parent[chain[-1]] != pot.seller:
        chain.append(parent[chain[-1]])
    chain.reverse()
    return tuple(chain)


def ddg(pot, agent: str) -> frozenset[str]:
    """All bidders whose participation the agent controls, itself included."""
    parent = parents(pot)
    if agent not in parent:
        raise KeyError(agent)
    children: dict[str, list[str]] = {}
    for v, p in parent.items():
        children.setdefault(p, []).append(v)
    out = []
    stack = [agent]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(children.get(v, ()))
    return frozenset(out)


def sup_gamma_x(n: int, kx: int, vbar: float) -> float:
    """Largest reserve that still cannot hurt revenue from a branch of size
    kx in a market of n bidders: vbar * ((n+1)/((kx+1)(n-kx+1)))^(1/kx).
    Nondecreasing in kx and equal to vbar at kx=n.
    """
    n = check_count("n", n, error=DomainError)
    kx = check_count("kx", kx, error=DomainError)
    check_amount("vbar", vbar, positive=True)
    if kx > n:
        raise DomainError(f"kx must not exceed n, got kx={kx}, n={n}")
    return vbar * ((n + 1) / ((kx + 1) * (n - kx + 1))) ** (1.0 / kx)


def expected_subtree_revenue(kx: int, n: int, d, r: float, method: str = "auto") -> float:
    """Expected revenue the seller extracts from one branch of size kx.

    method: "auto" picks the uniform closed form when available, otherwise
    quadrature; "closed" and "quadrature" force a route.
    """
    return _subtree_revenues([kx], n, d, [r], method)[0][0]


def upper_tail(d, v: float) -> float:
    """1 - F(v), read off the family's upper tail on a one-element array
    so that no cdf near 1 cancels; one minus the cdf for other priors."""
    x = np.array([float(v)])
    if isinstance(d, Uniform):
        tail = (d.vbar - x) / d.vbar
    elif isinstance(d, TruncatedNormal):
        top = ndtr(-((d.vbar - d.mu) / d.sigma))
        tail = (ndtr(-((x - d.mu) / d.sigma)) - top) / d._mass
    elif isinstance(d, TruncatedExponential):
        tail = -np.expm1(-d.lam * (d.vbar - x)) * np.exp(-d.lam * x) / d._mass
    else:
        tail = 1.0 - d.cdf(x)
    return float(tail[0])


def virtual_value(d, v: float) -> float:
    """Virtual value v - (1 - F(v)) / f(v)."""
    f = d.pdf(float(v))
    if f <= 0.0:
        raise SingularityError(f"pdf vanishes at v={v}; virtual value undefined")
    return float(v) - upper_tail(d, v) / f


def _check_k(k: int) -> int:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"group size k must be a positive integer, got {k!r}")
    return int(k)


def subtree_critical_value(d, v: float, k: int) -> float:
    """Group-level virtual value v - (1 - F^k) / (k f F^(k-1)).

    Reduces to the plain virtual value at k=1. For k >= 2 the expression
    diverges where F(v) = 0, which is reported as a singularity.
    """
    k = _check_k(k)
    F = d.cdf(float(v))
    f = d.pdf(float(v))
    if k >= 2 and F <= 0.0:
        raise SingularityError(
            f"group virtual value diverges at v={v} where F(v)=0 and k={k}"
        )
    denom = k * f * F ** (k - 1)
    if denom <= 0.0:
        raise SingularityError(f"density term vanishes at v={v}")
    return float(v) - (1.0 - F ** k) / denom


def direct_phi(d, v, k: int):
    """v - (1 - F^k) / (k f F^(k-1)) read straight off the cdf and pdf, on a
    float or an array: NaN or an infinity where the density term underflows."""
    F, f = np.float64(d.cdf(v)), d.pdf(v)
    with np.errstate(all="ignore"):
        return v - (1.0 - F**k) / (k * f * F ** (k - 1))


def first_sign_change(d, k: int, points: int = 4001):
    """The first step of a grid of points on [0, vbar] over which
    direct_phi goes from negative to 0 or above."""
    grid = np.linspace(0.0, d.vbar, points)
    phi = direct_phi(d, grid, k)
    i = int(np.flatnonzero((phi[:-1] < 0.0) & (phi[1:] >= 0.0))[0])
    return float(grid[i]), float(grid[i + 1])


def direct_root(d, k: int) -> float:
    """brentq's root of direct_phi in its first sign change on the grid."""
    lo, hi = first_sign_change(d, k)
    return brentq(lambda v: direct_phi(d, v, k), lo, hi, xtol=1e-12 * d.vbar)


# The reserve solvers with every cdf and pdf read off a one-element array,
# the route the array path takes, and a plain bisection on the documented
# bracket: the scalar path must land on the same bits.


def _through_array(method, x: float) -> float:
    return float(method(np.array([x]))[0])


def slow_bisect(f, vbar: float) -> float:
    """Bisection on [1e-9 vbar, vbar - 1e-9 vbar] to 1e-10 vbar."""
    lo, hi = 1e-9 * vbar, vbar - 1e-9 * vbar
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    assert (f_lo > 0.0) != (f_hi > 0.0), "no sign change on the bracket"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-10 * vbar:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_hi > 0.0):
            hi = mid
        else:
            lo = mid
    raise AssertionError("bisection did not converge")


def slow_gamma_general(k: int, d) -> float:
    """The root of v k f F^(k-1) - (1 - F^k)."""

    def scaled_phi(v):
        F = _through_array(d.cdf, v)
        return v * k * _through_array(d.pdf, v) * F ** (k - 1) - (1.0 - F**k)

    return slow_bisect(scaled_phi, d.vbar)


def slow_global_optimal_reserve(profile: SubtreeProfile, d) -> float:
    """The root of sum_x k_x phi(r; k_x), phi = -inf where its density term
    vanishes, summed one size at a time in size order."""
    weights = sorted(Counter(profile.sizes).items())
    ks = np.array([k for k, _ in weights])

    def beta(r):
        F, f = _through_array(d.cdf, r), _through_array(d.pdf, r)
        with np.errstate(all="ignore"):
            denom = ks * f * F ** (ks - 1)
            phi = np.where(denom > 0.0, r - (1.0 - F**ks) / denom, -np.inf)
        return sum(count * k * p for (k, count), p in zip(weights, phi.tolist()))

    return slow_bisect(beta, d.vbar)


# The dominator tree on string-keyed dicts, as build_pot computed it before
# it moved to integer indices, kept as a reference with its own result type.


@dataclass(frozen=True)
class SlowPot:
    """Dominator tree keyed by id: immediate dominators, subtree sizes and
    the preorder over id-sorted children."""

    seller: str
    parent: dict[str, str]
    subtree_size: dict[str, int]
    order: tuple[str, ...]


def _slow_reverse_postorder(graph: SlowGraph) -> list[str]:
    seen = {graph.seller}
    post: list[str] = []
    stack: list[tuple[str, int]] = [(graph.seller, 0)]
    while stack:
        node, idx = stack[-1]
        out = graph.successors.get(node, ())
        if idx < len(out):
            stack[-1] = (node, idx + 1)
            nxt = out[idx]
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, 0))
        else:
            stack.pop()
            post.append(node)
    post.reverse()
    return post


def slow_build_pot(graph: SlowGraph) -> SlowPot:
    """Immediate dominators by iterative data-flow over reverse postorder."""
    order = _slow_reverse_postorder(graph)  # order[0] is the seller
    index = {v: i for i, v in enumerate(order)}
    preds: dict[str, list[str]] = {v: [] for v in order}
    for u in order:
        for v in graph.successors.get(u, ()):
            preds[v].append(u)

    idom: dict[int, int] = {0: 0}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while a > b:
                a = idom[a]
            while b > a:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for v in order[1:]:
            vi = index[v]
            new = -1
            for p in preds[v]:
                pi = index[p]
                if pi in idom:
                    new = pi if new < 0 else intersect(pi, new)
            if new >= 0 and idom.get(vi) != new:
                idom[vi] = new
                changed = True

    parent = {order[i]: order[p] for i, p in idom.items() if i != 0}
    children: dict[str, list[str]] = {v: [] for v in order}
    for child in sorted(parent):
        children[parent[child]].append(child)

    # parent-before-child ordering via DFS over id-sorted children
    tree_order: list[str] = []
    stack = list(reversed(children[graph.seller]))
    while stack:
        node = stack.pop()
        tree_order.append(node)
        stack.extend(reversed(children[node]))

    size = {v: 1 for v in tree_order}
    for v in reversed(tree_order):
        for c in children[v]:
            size[v] += size[c]

    return SlowPot(
        seller=graph.seller,
        parent=parent,
        subtree_size=size,
        order=tuple(tree_order),
    )


def slow_network_dominators(indptr: np.ndarray, indices: np.ndarray, root: int) -> np.ndarray:
    """Immediate dominators from ``root`` in an undirected graph, by the
    scalar low-link search that ``graphs.network_dominators`` replaced.

    The graph is in CSR form: the neighbours of node v are
    ``indices[indptr[v]:indptr[v + 1]]``, every link listed from both ends,
    no repeats and no self-loops. Returns the immediate dominator of every
    node, with ``root`` for the root itself and -1 for nodes outside its
    component.

    Dominators of v lie on its depth-first tree path, and an ancestor a
    separates v from the root exactly when a's child c toward v has
    low(c) >= pre(a), low(c) being the least preorder number linked to from
    c's subtree. So idom(v) is its tree parent p when p is the root or
    low(v) >= pre(p), and otherwise idom(p), resolved in preorder. The tree
    link from v to p counts toward low(v) too: it cannot take low(v) below
    pre(p), so the test is unchanged and the scan needs no parent check.
    """
    start = indptr.tolist()
    nbr = indices.tolist()
    size = len(start) - 1
    pre = [-1] * size
    low = [0] * size
    parent = [-1] * size
    cursor = start[:-1]  # next unscanned neighbour slot of every node
    pre[root] = 0
    order = [root]
    stack = [root]
    while stack:
        v = stack[-1]
        i, end = cursor[v], start[v + 1]
        while i < end and pre[nbr[i]] >= 0:
            w = nbr[i]
            if pre[w] < low[v]:
                low[v] = pre[w]
            i += 1
        if i < end:
            w = nbr[i]
            cursor[v] = i + 1
            pre[w] = low[w] = len(order)
            parent[w] = v
            order.append(w)
            stack.append(w)
        else:
            stack.pop()
            p = parent[v]
            if p >= 0 and low[v] < low[p]:
                low[p] = low[v]

    idom = [-1] * size
    idom[root] = root
    for v in order[1:]:
        p = parent[v]
        idom[v] = p if p == root or low[v] >= pre[p] else idom[p]
    return np.array(idom, dtype=np.intp)


def slow_subtree_profile(graph: SlowGraph) -> SubtreeProfile:
    """Sizes of the seller's top-level dominator subtrees, in head-id
    order as ``subtree_profile`` gives them."""
    pot = slow_build_pot(graph)
    heads = [v for v in pot.order if pot.parent[v] == pot.seller]
    return SubtreeProfile.from_sizes([pot.subtree_size[v] for v in heads])


# The Monte Carlo estimator as it was before it reduced the uniforms, kept
# as a reference with its dominator tree taken from ``slow_graph`` and
# ``slow_build_pot``: the quantile of every draw, then the maximum of each
# branch's columns, then the top two branch maxima by partition.


def slow_monte_carlo(
    template,
    d,
    policy,
    runs,
    master_seed,
    threads=1,
):
    """Estimate expected revenue under truthful play."""
    runs = check_count("runs", runs)
    threads = check_count("threads", threads)
    graph = slow_graph(template)
    if not graph.reachable:
        raise DomainError("the template reaches no bidders")
    pot = slow_build_pot(graph)
    order = sorted(graph.reachable)
    parent = pot.parent
    heads: dict[str, list[int]] = {}
    for i, v in enumerate(order):  # columns in id order
        top = v
        while parent[top] != pot.seller:
            top = parent[top]
        heads.setdefault(top, []).append(i)
    branch_cols = [np.array(heads[c], dtype=np.intp) for c in sorted(heads)]
    prof = SubtreeProfile.from_sizes([len(c) for c in branch_cols])
    reserve = resolve_reserve(policy, prof, d)
    n = len(order)
    m = len(branch_cols)
    vbar = d.vbar
    B = _batch_rows(n)
    n_batches = (runs + B - 1) // B

    def one_batch(g: int) -> tuple[float, float, int, int, np.ndarray]:
        rng = np.random.default_rng([master_seed, g])
        u = rng.random((B, n))
        rows = min(B, runs - g * B)
        values = d.quantile(u[:rows])
        maxima = np.column_stack([values[:, ix].max(axis=1) for ix in branch_cols])
        top = maxima.max(axis=1)
        if m >= 2:
            second = np.partition(maxima, m - 2, axis=1)[:, m - 2]
        else:
            second = np.zeros(rows)
        sold = top >= reserve
        revenue = np.where(sold, np.maximum(second, reserve), 0.0)
        positive = revenue[revenue > 0.0]
        hist, _ = np.histogram(positive, bins=100, range=(0.0, vbar))
        return (
            float(revenue.sum()),
            float(np.square(revenue).sum()),
            int(rows - sold.sum()),
            int(rows - positive.size),
            hist,
        )

    total = 0.0
    total_sq = 0.0
    failures = 0
    zeros = 0
    bins = np.zeros(100, dtype=np.int64)
    # the with block shuts the pool down even when a batch raises; one
    # thread runs the batches inline and never starts a worker
    with ThreadPoolExecutor(max_workers=threads) as pool:
        batches = map if threads == 1 else pool.map
        partials = batches(one_batch, range(n_batches))
        for s1, s2, fail, zero, hist in partials:  # merged in batch order
            total += s1
            total_sq += s2
            failures += fail
            zeros += zero
            bins += hist

    mean = total / runs
    if runs > 1:
        variance = max(0.0, (total_sq - runs * mean * mean) / (runs - 1))
        std_error = math.sqrt(variance / runs)
    else:
        std_error = 0.0
    return RevenueStats(
        runs=runs,
        mean=mean,
        std_error=std_error,
        failure_rate=failures / runs,
        histogram=(zeros, *(int(c) for c in bins)),
        reserve=reserve,
        master_seed=master_seed,
        vbar=vbar,
    )
