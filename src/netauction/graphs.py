"""Reported diffusion graphs and their dominator structure.

Every bidder's action is a bid plus the set of neighbours it forwards the
sale information to. The seller's own outgoing links travel in the same
profile as a bid-less report row (its id equals the seller id), because the
seller starts the diffusion but never bids. Only bidders reachable from the
seller through reported links can take part. Reported ids are resolved
once: ``build_graph`` walks the links out from the seller and compiles what
it reaches to integer successor lists over the reachable bidders in id
order, and the dominator tree, the clearing and the deviation search read
only those indices.

The dominator tree rooted at the seller captures the control structure of
the diffusion: agent u is an ancestor of agent v exactly when every reported
path from the seller to v passes through u, so u can cut v (and v's whole
subtree) out of the market by staying silent. Dominators are computed with
the iterative data-flow algorithm of Cooper, Harvey and Kennedy over a
reverse postorder, on integer node indices: one pass over every node, then
passes over the nodes with several predecessors until nothing changes. On
the 10k-node benchmark networks that is four or five passes in all, the
last of which only confirms; the worst case is quadratic. The same integer
core rebuilds one bidder's subtree alone when the bidder withholds links
(``Pot.cut``), and the whole market's branch sizes (``Pot.branch_sizes``),
for the deviation search.

An undirected network (an ingested edge list, every node forwarding to all
of its neighbours) needs no data-flow: links into the seller never change
dominance, so the tree is the block-cut tree rooted at the seller.
``network_dominators`` finds the blocks over integer CSR arrays by the
method of Tarjan and Vishkin (1985), which works from any spanning tree:
a fixed number of numpy passes, none of which follows the tree's depth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .errors import ValidationError, check_counts, check_nonnegative

__all__ = [
    "AgentAction",
    "ActionProfile",
    "DiffusionGraph",
    "Pot",
    "SubtreeProfile",
    "build_graph",
    "build_pot",
    "network_dominators",
    "subtree_profile",
    "profile_to_dict",
    "load_profile",
]


@dataclass(frozen=True)
class AgentAction:
    """One report: a bid, stored as a float, and the neighbours it informs."""

    agent: str
    bid: float
    neighbors: frozenset[str]

    def __post_init__(self):
        if not isinstance(self.agent, str) or not self.agent:
            raise ValidationError(f"agent id must be a non-empty string, got {self.agent!r}")
        check_nonnegative(f"bid for {self.agent!r}", self.bid, ValidationError)
        object.__setattr__(self, "bid", float(self.bid))
        object.__setattr__(self, "neighbors", frozenset(self.neighbors))


@dataclass(frozen=True)
class ActionProfile:
    """The seller id plus every report, the seller's included.

    ``agents`` may contain one row whose id equals the seller; that row
    carries the seller's outgoing links and its bid is ignored. All other
    rows are bidders. Ids must be unique. Reported neighbours pointing at
    unknown ids are kept in the action but contribute nothing to diffusion.
    """

    seller: str
    agents: tuple[AgentAction, ...]

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if not isinstance(self.seller, str) or not self.seller:
            raise ValidationError(f"seller id must be a non-empty string, got {self.seller!r}")
        seen: set[str] = set()
        for a in self.agents:
            if a.agent in seen:
                raise ValidationError(f"duplicate agent id {a.agent!r}")
            seen.add(a.agent)

    def bidders(self) -> tuple[AgentAction, ...]:
        return tuple(a for a in self.agents if a.agent != self.seller)

    def seller_report(self) -> frozenset[str]:
        for a in self.agents:
            if a.agent == self.seller:
                return a.neighbors
        return frozenset()

    def bids(self) -> dict[str, float]:
        return {a.agent: a.bid for a in self.agents if a.agent != self.seller}


@dataclass(frozen=True, eq=False)
class DiffusionGraph:
    """Reported links among the bidders the seller reaches, on integer
    indices.

    ``reachable`` lists those bidders in id order, so bidder v is
    ``reachable[v]``. ``succ[v]`` lists, ascending, the bidders v informs,
    and ``succ[-1]`` the seller's: the seller is -1, so its entries sit in
    one spare slot at the end of every list. Links aimed at the seller, at
    self, or at ids that never report are inert and dropped here.
    """

    seller: str
    reachable: list[str]
    succ: list[list[int]]


def _reach(profile: ActionProfile) -> tuple[dict[str, frozenset[str]], list[str]]:
    """Each bidder's reported links, and the bidders the seller reaches
    through them, in id order."""
    reports = {a.agent: a.neighbors for a in profile.bidders()}
    stack = [v for v in profile.seller_report() if v in reports]
    reached = set(stack)
    while stack:
        for v in reports[stack.pop()]:
            if v in reports and v not in reached:
                reached.add(v)
                stack.append(v)
    return reports, sorted(reached)


def build_graph(profile: ActionProfile) -> DiffusionGraph:
    """Compile the reported links the seller's diffusion can travel."""
    reports, reachable = _reach(profile)
    index = dict(zip(reachable, range(len(reachable))))
    succ = [sorted(index[w] for w in reports[v] if w in index and w != v) for v in reachable]
    succ.append(sorted(index[w] for w in profile.seller_report() if w in index))
    return DiffusionGraph(seller=profile.seller, reachable=reachable, succ=succ)


@dataclass(frozen=True, eq=False)
class Pot:
    """Dominator tree of a diffusion graph, rooted at the seller, on
    integer bidder indices.

    ``ids`` lists the reachable bidders in id order, so bidder v is
    ``ids[v]``. ``succ[v]`` lists the bidders v informs, and ``succ[-1]``
    the seller's. ``up[v]`` is v's immediate dominator, -1 for the seller.
    ``order`` is a depth-first preorder over id-sorted children: parents
    come before children, so subtree aggregates fall out of one reversed
    sweep, and v's subtree is the contiguous slice of ``size[v]`` entries
    starting at ``at[v]``, v's position in ``order``.
    """

    seller: str
    ids: list[str]
    succ: list[list[int]]
    up: list[int]
    order: list[int]
    at: list[int]
    size: list[int]

    def subtree(self, v: int) -> tuple[list[int], list[int]]:
        """The bidders below v in preorder, and each one's immediate
        dominator."""
        below = self.order[self.at[v] + 1 : self.at[v] + self.size[v]]
        up = self.up
        return below, [up[w] for w in below]

    def cut(self, v: int, links) -> tuple[list[int], list[int]]:
        """``subtree(v)`` once v informs only the bidders ``links``.

        v's own links never decide which bidders outside its subtree are
        reachable or who dominates v, and no link enters the subtree from
        outside it: its head would be reachable without v. So the bidders
        v still reaches, and their immediate dominators, are those of the
        links inside the subtree, rooted at v. Bidders cut off are left
        out.
        """
        first = self.at[v] + 1
        inside = self.order[first : self.at[v] + self.size[v]]
        k = len(inside)
        at = self.at
        # local node j is inside[j], at preorder position first + j, and v
        # is the root, -1; links leaving the subtree or into v are dropped
        succ = [[j for w in self.succ[u] if 0 <= (j := at[w] - first) < k] for u in inside]
        succ.append([j for w in links if 0 <= (j := at[w] - first) < k])
        up, order, _, _ = _dominators(succ)
        return [inside[j] for j in order], [v if up[j] < 0 else inside[up[j]] for j in order]

    def branch_sizes(self, v: int, links) -> list[int]:
        """``subtree_profile``'s sizes, in its order, once v informs only
        the bidders ``links``; bidders cut off are left out."""
        succ = list(self.succ)
        succ[v] = [w for w in links if w != v]
        up, order, _, size = _dominators(succ)
        return [size[w] for w in order if up[w] < 0]


def build_pot(graph: DiffusionGraph) -> Pot:
    """The dominator tree of the graph's reachable bidders."""
    up, order, at, size = _dominators(graph.succ)
    return Pot(graph.seller, graph.reachable, graph.succ, up, order, at, size)


def _dominators(succ: list[list[int]]) -> tuple[list[int], list[int], list[int], list[int]]:
    """Immediate dominators by iterative data-flow over reverse postorder.

    ``succ`` holds the successor lists of nodes 0..n-1 and, last, of the
    root, which is node -1. Returns ``up``, ``order``, ``at`` and ``size``
    as ``Pot`` keeps them, with children in index order. Nodes the root
    does not reach are left out of ``order``, and their entries in the
    other lists mean nothing. The first pass sets every immediate
    dominator; later passes revisit the nodes with several predecessors
    until one changes nothing.
    """
    slots = len(succ)
    n = slots - 1

    seen = [False] * slots
    seen[-1] = True
    post: list[int] = []
    stack = [(-1, iter(succ[-1]))]
    while stack:
        node, out = stack[-1]
        for nxt in out:
            if not seen[nxt]:
                seen[nxt] = True
                stack.append((nxt, iter(succ[nxt])))
                break
        else:
            stack.pop()
            post.append(node)
    rpo = post[::-1]  # rpo[0] is the root
    reached = len(rpo)
    rank = [0] * slots
    for i, v in enumerate(rpo):
        rank[v] = i
    # predecessors by rank, in rank order: preds[v][0] is below v (the
    # search reached v from some earlier node), so every pass has already
    # visited it when it comes to v
    preds: list[list[int]] = [[] for _ in range(reached)]
    for i, u in enumerate(rpo):
        for v in succ[u]:
            preds[rank[v]].append(i)

    # idom by rank. The first pass visits every node and skips the
    # predecessors it has not reached yet; a node with one predecessor is
    # then final, so later passes revisit only the nodes with several
    idom = [-1] * reached
    idom[0] = 0
    todo = range(1, reached)
    joins = [v for v in todo if len(preds[v]) > 1]
    changed = True
    while changed:
        changed = False
        for v in todo:
            ps = preds[v]
            new = ps[0]
            for p in ps:
                if idom[p] >= 0:
                    while p != new:
                        while p > new:
                            p = idom[p]
                        while new > p:
                            new = idom[new]
            if idom[v] != new:
                idom[v] = new
                changed = True
        todo = joins

    # back to node indices; children come out in index order
    up = [-1] * n
    for i in range(1, reached):
        up[rpo[i]] = rpo[idom[i]]
    kids: list[list[int]] = [[] for _ in range(slots)]
    for v in compress(range(n), seen):
        kids[up[v]].append(v)

    # parent-before-child ordering via DFS over index-sorted children
    order: list[int] = []
    walk = kids[-1][::-1]
    while walk:
        node = walk.pop()
        order.append(node)
        walk.extend(kids[node][::-1])
    at = [0] * n
    for i, v in enumerate(order):
        at[v] = i

    count = [1] * slots
    for v in reversed(order):
        count[up[v]] += count[v]
    count.pop()  # the root's slot
    return up, order, at, count


def _components(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each node's component label, its least node, and the ids of links
    that span every component as a tree, for nodes 0..n-1 and links
    a[i] < b[i].

    Each round, every root hooks onto the least root it links to, by the
    least such link; pointers are jumped to the new roots and links inside
    a component dropped. A root that hooks onto none is hooked onto or
    hooks in the next round, so there are O(log n) rounds.
    """
    label, links = np.arange(n), np.arange(a.size)
    lo, hi, width = a, b, max(a.size, 1)
    none = n * width  # above every key lo * width + link
    forest = [links[:0]]
    while links.size:
        best = np.full(n, none)
        np.minimum.at(best, hi, lo * width + links)
        roots = np.flatnonzero(best < none)
        label[roots], win = np.divmod(best[roots], width)
        forest.append(win)
        del best, lo, hi
        while not np.array_equal(up := label[label], label):
            label = up
        lo, hi = label[a], label[b]
        cross = np.flatnonzero(lo != hi)
        lo, hi = np.minimum(lo[cross], hi[cross]), np.maximum(lo[cross], hi[cross])
        links, a, b = links[cross], a[cross], b[cross]
    return label, np.concatenate(forest)


def network_dominators(indptr: np.ndarray, indices: np.ndarray, root: int) -> np.ndarray:
    """Immediate dominators from ``root`` in an undirected graph.

    The graph is in CSR form: the neighbours of node v are
    ``indices[indptr[v]:indptr[v + 1]]``, every link listed from both ends,
    no repeats and no self-loops. Returns the immediate dominator of every
    node, with ``root`` for the root itself and -1 for nodes outside its
    component.

    idom(v) is the top vertex of the block (biconnected component) that
    holds the tree link into v, for any spanning tree rooted at ``root``.
    The blocks come from Tarjan and Vishkin, "An efficient parallel
    biconnectivity algorithm" (SIAM J. Comput. 14(4), 1985), in numpy
    passes of O(log n) rounds however deep the tree: a spanning tree from
    ``_components``; parents, preorder numbers pre and subtree sizes nd
    from an Euler tour ranked by pointer jumping; low(v) and high(v), the
    least and greatest pre linked to from v's subtree, as range minima and
    maxima; then the components of the auxiliary graph on tree links,
    which are the blocks. Its rule 1 joins the tree links into the ends of
    a non-tree link when neither end is an ancestor of the other; rule 2
    joins v's tree link with its parent p's when p != root and
    low(v) < pre(p) or high(v) >= pre(p) + nd(p). The tree link from v up
    to p counts toward low(v) and high(v), as it moves neither test.
    """
    size = indptr.size - 1
    tail = np.repeat(np.arange(size), np.diff(indptr))
    down = np.flatnonzero(tail < indices)
    a, b = tail[down], indices[down]  # every link once, a < b
    del tail, down
    label, forest = _components(size, a, b)
    tree = forest[np.flatnonzero(label[a[forest]] == label[root])]
    del label, forest
    idom = np.full(size, -1)
    idom[root] = root
    m = tree.size  # the root's component has k = m + 1 nodes
    if not m:
        return idom
    k = m + 1

    # Euler tour: arc i runs from ends[i] to ends[i +- m], and the arc after
    # it is the one after its twin in the cyclic arc list of the node it
    # enters. It starts at the root's first arc and ends at the twin of its
    # last, and is ranked by pointer jumping with the arcs left to the end
    # in the high 32 bits of hop and the arc jumped to in the low ones.
    ends = np.concatenate((a[tree], b[tree]))
    order = np.argsort(ends)
    grouped = ends[order]
    turn = np.arange(1, 2 * m + 1)
    first = np.flatnonzero(np.diff(grouped, prepend=-1))
    turn[np.append(first[1:], 2 * m) - 1] = first
    succ = np.empty_like(order)
    succ[(order + m) % (2 * m)] = order[turn]
    last = (order[np.searchsorted(grouped, root, side="right") - 1] + m) % (2 * m)
    del tree, order, grouped, turn, first
    hop = succ + (1 << 32)
    hop[last] = last
    for _ in range((2 * m - 1).bit_length()):
        np.bitwise_and(hop, 0xFFFFFFFF, out=succ)
        jump = hop[succ]
        hop &= ~0xFFFFFFFF
        hop += jump
    pos = (2 * m - 1) - (hop >> 32)
    del succ, jump, hop
    enter, leave = np.minimum(pos[:m], pos[m:]), np.maximum(pos[:m], pos[m:])
    out = pos[:m] < pos[m:]  # a[i] is the parent
    child, parent = np.where(out, ends[m:], ends[:m]), np.where(out, ends[:m], ends[m:])
    number = np.cumsum(np.bincount(enter, minlength=2 * m))[enter]
    del pos, out, ends

    # pre by node, k outside the component; node, parent's pre and nd by pre
    pre = np.full(size, k)
    pre[root] = 0
    pre[child] = number
    node = np.full(k, root)
    node[number] = child
    up = np.zeros(k, dtype=np.intp)
    up[number] = pre[parent]
    nd = np.full(k + 1, k)
    nd[number] = (leave - enter + 1) // 2
    del child, parent, number, enter, leave

    # rule 1, on every link: a tree link's parent end is the other's ancestor
    u, w = pre[a], pre[b]
    u, w = np.minimum(u, w), np.maximum(u, w)
    cross = np.flatnonzero(w >= u + nd[u])
    join_u, join_w = u[cross], w[cross]
    del a, b, u, w, cross

    # low and high of each node's own links; reduceat reads an empty row as
    # the next row's first entry, so only rows with links are reduced
    rows = np.flatnonzero(np.diff(indptr))
    near = pre[indices]
    low, high = np.empty(k + 1, dtype=np.intp), np.empty(k + 1, dtype=np.intp)
    low[pre[rows]] = np.minimum.reduceat(near, indptr[rows])
    high[pre[rows]] = np.maximum.reduceat(near, indptr[rows])
    del rows, near, pre
    # then over v's interval [v, v + nd(v)) of pre, from a sparse table that
    # answers each interval at the level of its length, one level at a time
    level = np.frexp(nd[1:k])[1] - 1
    span_lo, span_hi = np.empty(k, dtype=np.intp), np.empty(k, dtype=np.intp)
    for j in range(int(level.max()) + 1):
        v = np.flatnonzero(level == j) + 1
        r = v + nd[v] - (1 << j)
        span_lo[v], span_hi[v] = np.minimum(low[v], low[r]), np.maximum(high[v], high[r])
        low = np.minimum(low[: -(1 << j)], low[1 << j :])
        high = np.maximum(high[: -(1 << j)], high[1 << j :])
    del level, low, high

    # rule 2, which never holds for p = root, as low >= 0 and high < k; then
    # the blocks, each labelled by its least link, the topmost
    p = up[1:]
    v = np.flatnonzero((span_lo[1:] < p) | (span_hi[1:] >= p + nd[p])) + 1
    block, _ = _components(k, np.concatenate((up[v], join_u)), np.concatenate((v, join_w)))
    idom[node[1:]] = node[up[block[1:]]]
    return idom


@dataclass(frozen=True)
class SubtreeProfile:
    """Branch sizes of the tree below the seller: n bidders in m branches,
    both derived from the sizes."""

    n: int = field(init=False)
    m: int = field(init=False)
    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", check_counts("branch size", self.sizes))
        object.__setattr__(self, "n", sum(self.sizes))
        object.__setattr__(self, "m", len(self.sizes))

    @classmethod
    def from_sizes(cls, sizes) -> "SubtreeProfile":
        return cls(sizes=sizes)


def subtree_profile(pot: Pot) -> SubtreeProfile:
    """Sizes of the seller's top-level dominator subtrees."""
    return SubtreeProfile(sizes=[k for k, u in zip(pot.size, pot.up) if u < 0])


# --- JSON interchange -------------------------------------------------------
#
# {"seller": "s", "agents": [{"id": "a", "bid": 30.0, "neighbors": ["b"]}]}
# The seller's report row, when present, uses the seller id and bid 0.


def profile_to_dict(profile: ActionProfile) -> dict:
    return {
        "seller": profile.seller,
        "agents": [
            {"id": a.agent, "bid": a.bid, "neighbors": sorted(a.neighbors)}
            for a in profile.agents
        ],
    }


def profile_from_dict(data: dict) -> ActionProfile:
    try:
        seller = data["seller"]
        raw_agents = data["agents"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"profile JSON missing top-level key: {exc}") from None
    if not isinstance(raw_agents, list):
        raise ValidationError("profile JSON agents must be an array of agent entries")
    agents = []
    for entry in raw_agents:
        try:
            bid, neighbors = entry["bid"], entry["neighbors"]
            # frozenset() would read a string as its letters
            if not isinstance(neighbors, list):
                raise TypeError("neighbors must be an array of ids")
            if not all(isinstance(v, str) and v for v in neighbors):
                raise TypeError("every neighbor must be a non-empty string id")
            agents.append(AgentAction(entry["id"], bid, neighbors))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed agent entry {entry!r}: {exc}") from None
    return ActionProfile(seller=seller, agents=tuple(agents))


def load_profile(path) -> ActionProfile:
    # utf-8-sig drops a leading byte-order mark, which json would reject
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{path}: not a profile JSON: {exc}") from None
    return profile_from_dict(data)
