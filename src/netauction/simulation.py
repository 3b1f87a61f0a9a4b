"""Monte Carlo revenue estimation and experiment scenarios.

Replicate streams are derived from (master_seed, batch index), with a batch
size that is a fixed function of the market size only. Replicate i is row
i % B of batch i // B, so any single replicate can be re-drawn in isolation
and the aggregate is bit-identical for any thread count: batches may be
computed in parallel but partial sums are always merged in batch order.

A scenario spec compiles to the chain sizes of the synthetic markets used
in the experiments: branch chains hanging off the seller, shaped by market
expansion ratio (the seller's degree relative to market size), market
depth (the longest seller-to-buyer distance), or an explicit branch-size
split. Chains are capped at six hops throughout: beyond six degrees of
separation the sale information cannot be assumed to travel.

An edge list becomes a ``Network`` of sorted labels and CSR arrays through
a numpy tokenizer over the file's raw bytes (see ``load_edge_list``): ids
are packed into big-endian uint64 words that sort as the labels do, one
``np.unique`` numbers them, and only the distinct labels are decoded.
"""

from __future__ import annotations

import codecs
import math
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .distributions import ValueDistribution
from .errors import (
    DomainError,
    EdgeListFormatError,
    ScenarioError,
    check_count,
    check_counts,
    config_number,
    read_config,
)
from .graphs import (
    ActionProfile,
    AgentAction,
    SubtreeProfile,
    _reach,
    build_graph,
    build_pot,
    network_dominators,
    subtree_profile,
)
from .reserve import ReservePolicy, resolve_reserve

__all__ = [
    "RevenueStats",
    "Market",
    "Network",
    "SCENARIO_FIELDS",
    "parse_scenario",
    "chains_profile",
    "monte_carlo",
    "draw_replicate",
    "stats_to_dict",
    "write_histogram_csv",
    "load_edge_list",
    "pick_seller",
    "template_from_network",
]

MAX_DEPTH = 6  # six degrees of separation

_MER_STEPS = tuple(range(30, 101, 10))

# Batch shape is a pure function of the bidder count so that replicate
# streams never depend on the requested number of runs or on threading.
_BATCH_CAP_ROWS = 16384
_BATCH_CAP_CELLS = 1_000_000


def _batch_rows(n: int) -> int:
    return max(1, min(_BATCH_CAP_ROWS, _BATCH_CAP_CELLS // max(1, n)))


# A batch is drawn and reduced in row blocks of at most this many cells
# (2 MB of draws), which bounds a large market's memory; a batch of at most
# 16 bidders fits in one block.
_BLOCK_CELLS = 1 << 18


# Half-width, in probability, of the band around F(reserve) inside which a
# Monte Carlo batch decides a sale with the quantile (see monte_carlo).
_BAND = 1e-9


def _bin_edges(vbar: float) -> np.ndarray:
    """The edges of the 100 equal revenue bins on [0, vbar], as
    ``np.histogram`` builds them."""
    return np.linspace(0.0, vbar, 101)


def _bin_fixups(edges: np.ndarray) -> tuple[np.ndarray, float]:
    """What ``_bin_counts`` reads besides the edges, built once per Monte
    Carlo call: each bin's right edge (inf for the last bin, which holds
    vbar), and the slack within which a value's fractional index must lie
    of an integer for numpy's edge corrections to move it.

    The slack is the largest distance of an edge's own index from the
    integer it stands for, scaled as the values are. Both distances are
    exact (a float minus a nearby integer loses nothing), so the margin
    added to it, a doubling and 1e-12 of a bin, only flags more values.
    """
    index = edges / edges[-1]
    index *= 100
    slack = float(np.abs(index - np.arange(edges.size)).max())
    return np.append(edges[1:-1], np.inf), 2.0 * slack + 1e-12


def _bin_counts(
    values: np.ndarray, edges: np.ndarray, fixups: tuple[np.ndarray, float]
) -> np.ndarray:
    """``np.histogram(values, bins=100, range=(0, vbar))[0]`` for values in
    [0, vbar], with ``edges = _bin_edges(vbar)`` and ``fixups =
    _bin_fixups(edges)``.

    This is numpy's own rule for equal bins: scale each value to an index
    ``values / vbar * 100`` (dividing first: ``100 / vbar`` overflows for
    vbar below about 1e-306), put vbar in the last bin, step the index down
    by one where the value lies below its bin's left edge and up by one
    where it reaches the next bin's, but never past the last bin, then
    count. So a value on an edge lands in the bin ``np.histogram`` puts it
    in. The index is nondecreasing in the value, so a correction can fire
    only where the index lies within the slack of an integer: on a value
    below edge j the index is at most edge j's, and on a value at or above
    edge j + 1 at least edge j + 1's. Only those values are corrected.
    """
    upper, slack = fixups
    index = values / edges[-1]
    index *= 100
    idx = index.astype(np.intp)
    off = np.rint(index)
    np.subtract(index, off, out=off)
    near = np.flatnonzero(np.abs(off, out=off) <= slack)
    if near.size:
        # vbar's index, 100, is an integer: only near values reach it
        j = np.minimum(idx[near], 99)
        v = values[near]
        j -= v < edges.take(j)
        j += v >= upper.take(j)
        idx[near] = j
    return np.bincount(idx, minlength=100)


# Largest market whose Monte Carlo batches are reduced over column views of
# the draw rather than with argmax passes (see monte_carlo).
_COLS_MAX = 31


def _top_two_step(branch: np.ndarray):
    """The top-two step of a Monte Carlo batch on a market whose column j
    lies in branch ``branch[j]`` (branches numbered 0..m-1): a function of
    (u, m1, m2) that writes each row's largest draw of u into m1 and, with
    two or more branches, the largest draw outside that draw's branch into
    m2. The draws must be >= 0; u may be overwritten, and with one branch
    m2 is left as it was. See ``monte_carlo`` for the paths."""
    n = branch.size
    sizes = np.bincount(branch)
    if n <= _COLS_MAX:
        # the largest branch first: its maximum is built in m1, and the
        # one-column branches after it are read as views
        first, *others = sorted(
            (np.flatnonzero(branch == b).tolist() for b in range(sizes.size)), key=len, reverse=True
        )
        wide = any(len(cols) > 1 for cols in others)

        def branch_max(ut, cols, out):
            c0, *rest = cols
            if not rest:
                return ut[c0]
            np.maximum(ut[c0], ut[rest[0]], out=out)
            for c in rest[1:]:
                np.maximum(out, ut[c], out=out)
            return out

        def columns(u, m1, m2):
            ut = u.T
            top = branch_max(ut, first, m1)
            if not others:
                m1[:] = top
                return
            spare = np.empty_like(m1) if wide else None
            x = branch_max(ut, others[0], spare)
            np.minimum(top, x, out=m2)
            np.maximum(top, x, out=m1)
            for cols in others[1:]:
                x = branch_max(ut, cols, spare)
                # m2 <= m1, so max(m2, min(m1, x)) = min(m1, max(m2, x))
                np.maximum(m2, x, out=m2)
                np.minimum(m2, m1, out=m2)
                np.maximum(m1, x, out=m1)

        return columns
    if sizes.size == 1:
        return lambda u, m1, m2: u.max(axis=1, out=m1)

    def outside(u, k, out=None):
        # each row's largest draw outside the branch of its draw k (0 where
        # there is none, as the draws are >= 0)
        return u.max(axis=1, out=out, where=branch != branch[k][:, None], initial=0.0)

    def mask(u, m1, m2):
        k = u.argmax(axis=1)
        m1[:] = u[np.arange(u.shape[0]), k]
        outside(u, k, m2)

    # sum (k_b / n)**2 is the chance that a row's top two draws share a
    # branch, which sends the row to the mask after all
    if 3 * int(np.square(sizes).sum()) > n * n:
        return mask

    def runner_up(u, m1, m2):
        rows = np.arange(u.shape[0])
        k = u.argmax(axis=1)
        m1[:] = u[rows, k]
        u[rows, k] = 0.0
        k2 = u.argmax(axis=1)
        m2[:] = u[rows, k2]
        # a runner-up in the top draw's own branch says nothing of the rest
        same = np.flatnonzero(branch[k2] == branch[k])
        if same.size:
            m2[same] = outside(u[same], k[same])

    return runner_up


def _balanced(total: int, parts: int) -> list[int]:
    if parts == 0:
        return []
    q, rem = divmod(total, parts)
    return [q + 1] * rem + [q] * (parts - rem)


def chains_profile(sizes) -> ActionProfile:
    """Truthful template under seller "s": one chain of bidders per branch
    size, all bids 0."""
    sizes = check_counts("branch size", sizes, error=ScenarioError)
    n = sum(sizes)
    width = len(str(n))
    ids = [f"a{i:0{width}d}" for i in range(1, n + 1)]
    agents = []
    heads = []
    at = 0
    for k in sizes:
        chain = ids[at : at + k]
        at += k
        heads.append(chain[0])
        for node, nxt in zip(chain, chain[1:]):
            agents.append(AgentAction(node, 0.0, frozenset([nxt])))
        agents.append(AgentAction(chain[-1], 0.0, frozenset()))
    agents.insert(0, AgentAction("s", 0.0, frozenset(heads)))
    return ActionProfile(seller="s", agents=tuple(agents))


# the keys of each scenario kind; parse_scenario reads n first
SCENARIO_FIELDS = {"mer": ("n", "pct"), "md": ("n", "depth"), "symmetry": ("sizes",)}


def parse_scenario(text: str) -> tuple[int, ...]:
    """The chain sizes of a scenario spec: `mer:n=9,pct=30 | md:n=9,depth=4 |
    symmetry:sizes=3+3`.

    mer makes the seller and its neighbours pct% of the n + 1 nodes, one
    branch per neighbour; md makes one chain of the given depth and the
    fewest others; symmetry lists the sizes. Sizes are balanced, then
    lengthened only as required. A malformed spec raises ConfigError, and
    parameters that no network realises raise ScenarioError.
    """
    kind, raw = read_config(text, SCENARIO_FIELDS, "scenario")
    if kind == "symmetry":
        sizes = [config_number("sizes", k, text, int) for k in raw["sizes"].split("+")]
        sizes = check_counts("branch size", sizes, error=ScenarioError)
    else:
        n, x = (config_number(key, raw[key], text, int) for key in SCENARIO_FIELDS[kind])
        check_count("n", n, error=ScenarioError)
    if kind == "mer":
        if x not in _MER_STEPS:
            raise ScenarioError(f"market expansion ratio must be one of {_MER_STEPS}, got {x}")
        if (x * (n + 1)) % 100 != 0:
            raise ScenarioError(
                f"mer {x}% of the {n + 1} nodes (n={n} bidders "
                f"and the seller) gives a fractional seller degree"
            )
        rho = x * (n + 1) // 100 - 1
        if rho < 1:
            raise ScenarioError(f"mer {x}% with n={n} leaves no neighbors")
        sizes = tuple(_balanced(n, rho))
    elif kind == "md":
        if not 1 <= x <= MAX_DEPTH:
            raise ScenarioError(
                f"market depth must lie in 1..{MAX_DEPTH} (information dies out "
                f"beyond six hops), got {x}"
            )
        if x > n:
            raise ScenarioError(f"depth {x} needs at least {x} bidders")
        # one chain realises the depth, the rest stay as shallow as allowed
        sizes = (x, *_balanced(n - x, math.ceil(n / x) - 1))
    if max(sizes) > MAX_DEPTH:
        raise ScenarioError(
            f"{text.strip()!r} needs a chain of {max(sizes)} hops, beyond the six-degrees cap"
        )
    return sizes


@dataclass(frozen=True)
class RevenueStats:
    """Aggregate of one Monte Carlo run.

    histogram[0] counts replicates with revenue exactly 0 (failures and
    monopoly-branch sales); histogram[1:] are 100 equal-width bins on
    (0, vbar]. Bit-identical for a given (template, master_seed, runs).
    """

    runs: int
    mean: float
    std_error: float
    failure_rate: float
    histogram: tuple[int, ...]
    reserve: float
    master_seed: int
    vbar: float


@dataclass(frozen=True, eq=False)
class Market:
    """What the Monte Carlo reads of a reported network.

    The columns are the reachable bidders in id order, as in ``Pot.ids``;
    ``branch`` holds the top-level dominator branch of each column, and
    ``profile`` the branch sizes, branches numbered and ordered by head id.
    """

    branch: np.ndarray
    profile: SubtreeProfile

    @classmethod
    def from_profile(cls, template: ActionProfile) -> "Market":
        """Through the reported graph and its data-flow dominator tree."""
        graph = build_graph(template)
        if not graph.reachable:
            raise DomainError("the template reaches no bidders")
        pot = build_pot(graph)
        prof = subtree_profile(pot)
        # the branches are consecutive preorder slices of prof.sizes bidders
        branch = np.empty(prof.n, dtype=np.intp)
        branch[pot.order] = np.repeat(np.arange(prof.m), prof.sizes)
        return cls(branch=branch, profile=prof)

    @classmethod
    def from_network(cls, network: "Network", seller: str) -> "Market":
        """The full-propagation market of ``template_from_network(network,
        seller)``, read off the network's own arrays."""
        root = network.index(seller)
        idom = network_dominators(network.indptr, network.indices, root)
        # label order is id order; a Network node always has a link, so the
        # seller reaches at least one bidder
        cols = np.flatnonzero(idom >= 0)
        cols = cols[cols != root]
        # climb to the top-level dominator by pointer doubling
        head = np.arange(idom.size)
        deep = cols[idom[cols] != root]
        head[deep] = idom[deep]
        while not np.array_equal(up := head[head], head):
            head = up
        _, branch, sizes = np.unique(head[cols], return_inverse=True, return_counts=True)
        return cls(branch=branch, profile=SubtreeProfile.from_sizes(sizes.tolist()))


def monte_carlo(
    template: ActionProfile | Market,
    d: ValueDistribution,
    policy: ReservePolicy,
    runs: int,
    master_seed: int,
    threads: int = 1,
) -> RevenueStats:
    """Estimate expected revenue under truthful play.

    Each replicate draws i.i.d. values as bids on the template's reported
    network. Only the branch maxima of the dominator tree matter for
    revenue: the sale fails when the best value misses the reserve, and
    otherwise nets max(second-best branch maximum, reserve). A ``Market``
    compiled from the template gives the same result.

    Values are ``d.quantile`` of uniform draws, one column per reachable
    bidder, and the quantile is nondecreasing, so the top two branch maxima
    are the quantiles of two uniforms: the largest draw, and the largest
    draw outside that draw's branch. Each replicate evaluates the quantile
    at most at those two points (see below). This equals applying the
    quantile to every draw wherever ``d.quantile`` is nondecreasing in
    floating point, which holds for the uniform and exponential families.
    The truncated normal's quantile goes through scipy's ``ndtri``, which
    is not nondecreasing at ulp scale: for arguments below about 0.18 it
    can step down by up to 4 output ulps over spans of at most a few tens
    of input ulps, and between about 0.84 and 0.95 over spans of 1-2 input
    ulps. A replicate can then differ from the every-draw result only if
    two of its draws fall in those bands within about 2**-52 of each other
    and that pair decides a top-two branch maximum.

    A value below the reserve r matters only through missing it, so a batch
    maps a uniform only where its value can change revenue. With p =
    ``d.cdf(r)``, a replicate whose top uniform is at least p + 1e-9 sells,
    one below p - 1e-9 fails, and the quantile decides the rest. With two
    or more branches, a sale whose second uniform is at least p - 1e-9 maps
    it and nets max(value, r); every other sale nets exactly r. The band is
    safe: 1e-9 in probability moves a value by at least 1e-9 over the peak
    density, more than 1e-8 for the priors of the experiments, while the
    quantile errs by a few ulps and ``ndtri``'s downward steps span a few
    tens of input ulps. Before the first batch the quantile is checked at
    the band's ends. If it already reaches r at p - 1e-9, or still misses
    it at p + 1e-9, the prior's cdf and quantile part by more than the band
    (as for a peak density of millions), and the band widens to every row:
    the batch then maps both top uniforms. Revenue above r is binned with
    numpy's own rule for equal bins (the counts are ``np.histogram``'s),
    whose edge corrections are applied only to values near an edge (see
    ``_bin_counts``), and the sales at r are added to r's bin. Above a
    reserve of 0 every mapped second value is at least r, and one at r
    lands in r's bin, so the mapped values are binned as they are.

    The top two uniforms are found on one of four paths (``_top_two_step``),
    which agree bit for bit because max, min and argmax are exact:

    - Markets of at most ``_COLS_MAX`` (31) bidders read the draw's columns
      as views. The largest branch's maximum is built in m1, the next
      branch's maximum x sets m2 = min(m1, x) and m1 = max(m1, x), and each
      later one keeps the running top two. Nothing is filled or copied.
    - Above 31 bidders, a market of one branch takes only the row maxima:
      with one branch m2 is never read.
    - Otherwise each row's largest draw k is read and zeroed, and a second
      argmax gives the runner-up. It is the largest draw outside k's branch
      unless it lies in that branch; only those rows fall back to a mask, a
      row maximum over the draws outside k's branch.
    - A row falls back with about the chance that two draws share a branch,
      the sum of (k_b / n)**2 over the branch sizes k_b. Where that exceeds
      1/3, every row takes the mask: the runner-up costs two argmax passes
      plus the mask on the rows that fall back, against the mask's argmax,
      one comparison and one masked maximum.

    On 2 shared cores (CPython 3.11, numpy 2.4), a 16,384-row (3, 6) batch
    under the uniform prior takes about 625 us: 320 drawing, 85 the top
    two, 25 the quantile, 47 binning and about 150 on masks, gather,
    scatter and sums (the normal prior's quantile takes 230). At 65,536
    runs the column path beat the argmax paths on every shape tried up to
    31 bidders: by 1.1x at 16 bidders one per branch, whose 128-byte rows
    alias in the cache, and by 1.7-3.6x elsewhere. It lost first at 32
    bidders one per branch (17.9 against 12.1 ms). With the share at 1/2, as
    for (30, 30), (50, 50) and (5000, 5000), the mask ran 4-10% faster than
    the runner-up; at 1/3 the two were even; with one bidder per branch the
    runner-up took 0.65 of the mask's time.

    Each batch draws only the rows it uses. The generator fills the array
    in C order, so a short last batch is the prefix of a full one, and
    replicate i stays row i % B of batch i // B. A batch is drawn and
    reduced to its top two uniforms in blocks of at most ``_BLOCK_CELLS``
    (2**18) draws, ``max(1, _BLOCK_CELLS // n)`` rows each, that write into
    the batch's top-two arrays. Each block continues the batch's one
    stream, so every draw is the one a single call would give, and memory
    stays bounded however large the market.
    """
    runs = check_count("runs", runs)
    master_seed = check_count("seed", master_seed, least=0)
    threads = check_count("threads", threads)
    market = template if isinstance(template, Market) else Market.from_profile(template)
    prof = market.profile
    reserve = resolve_reserve(policy, prof, d)

    branch = market.branch
    n = prof.n
    m = prof.m
    vbar = d.vbar
    B = _batch_rows(n)
    n_batches = (runs + B - 1) // B
    top_two = _top_two_step(branch)

    # the top uniforms whose values may lie either side of the reserve
    p = d.cdf(reserve)
    lo, hi = p - _BAND, p + _BAND
    q_lo, q_hi = d.quantile(np.clip([lo, hi], 0.0, 1.0))
    if (lo > 0.0 and q_lo >= reserve) or (hi < 1.0 and q_hi < reserve):
        lo, hi = 0.0, 1.0  # the prior's cdf and quantile disagree: every row
    edges = _bin_edges(vbar)
    fixups = _bin_fixups(edges)
    # the bin of a sale at the reserve (at a reserve of 0 a sale nets 0 and
    # counts with the zeros)
    at_reserve = _bin_counts(np.array([reserve] if reserve > 0.0 else []), edges, fixups)

    block = max(1, _BLOCK_CELLS // n)

    def one_batch(g: int) -> tuple[float, float, int, int, np.ndarray]:
        rng = np.random.default_rng([master_seed, g])
        rows = min(B, runs - g * B)
        u = np.empty((min(block, rows), n))
        m1, m2 = np.empty(rows), np.empty(rows)
        for a in range(0, rows, block):
            part = u[: min(block, rows - a)]
            rng.random(out=part)  # continues the batch's stream in C order
            top_two(part, m1[a : a + block], m2[a : a + block])
        # free the draws before the rest of the batch allocates: kept, they
        # cost small markets about 20% in time and 0.5 MB of peak RSS
        del u, part
        sold = m1 >= hi
        n_sold = np.count_nonzero(sold)
        reach = m1 >= lo
        if np.count_nonzero(reach) != n_sold:  # some rows have lo <= m1 < hi
            near = reach ^ sold
            sold[near] = d.quantile(m1[near]) >= reserve
            n_sold = np.count_nonzero(sold)
        revenue = sold * reserve  # r where sold, else 0.0
        if m >= 2:
            # a sale whose second uniform lies below the band nets r
            paid = np.flatnonzero(sold & (m2 >= lo))
            second = np.maximum(d.quantile(m2[paid]), reserve)
            revenue[paid] = second
            # with r > 0 every mapped second is at least r, and one at r
            # lands in r's bin; with r = 0 a second of 0 counts as a zero
            above = second if reserve > 0.0 else second[second > 0.0]
        else:
            above = np.empty(0)  # the second bid is 0: every sale nets r
        # the mapped sales are binned, the rest share r's bin
        hist = _bin_counts(above, edges, fixups) + (n_sold - above.size) * at_reserve
        return (
            float(revenue.sum()),
            float(np.square(revenue).sum()),
            rows - n_sold,
            rows - int(hist.sum()),
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


def draw_replicate(
    template: ActionProfile,
    d: ValueDistribution,
    master_seed: int,
    i: int,
) -> ActionProfile:
    """The truthful profile of Monte Carlo replicate i, bit-identical to the
    one the aggregate run consumed. Unreachable bidders bid 0."""
    i = check_count("replicate index", i, least=0)
    master_seed = check_count("seed", master_seed, least=0)
    _, order = _reach(template)  # the columns: the bidders reached, in id order
    n = len(order)
    if n < 1:
        raise DomainError("the template reaches no bidders")
    g, row = divmod(i, _batch_rows(n))
    # the generator fills in C order: these rows are a prefix of the batch
    u = np.random.default_rng([master_seed, g]).random((row + 1, n))
    values = d.quantile(u[row])
    value_of = dict(zip(order, (float(v) for v in values)))
    agents = tuple(
        a
        if a.agent == template.seller
        else AgentAction(a.agent, value_of.get(a.agent, 0.0), a.neighbors)
        for a in template.agents
    )
    return ActionProfile(seller=template.seller, agents=agents)


def stats_to_dict(stats: RevenueStats) -> dict:
    blob = asdict(stats)
    zero, *bins = blob.pop("histogram")
    return {**blob, "histogram_zero": zero, "histogram_bins": bins}


def write_histogram_csv(stats: RevenueStats, path) -> None:
    """Zero bin first, then the 100 equal-width bins on (0, vbar]."""
    edges = _bin_edges(stats.vbar).tolist()  # the edges the batches bin with
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        fh.write(f"0,0,{stats.histogram[0]}\n")
        for lo, hi, count in zip(edges, edges[1:], stats.histogram[1:]):
            fh.write(f"{lo!r},{hi!r},{count}\n")


@dataclass(frozen=True, eq=False)
class Network:
    """Undirected simple graph from an edge list.

    Node v is ``labels[v]``, with the labels in Python's ``sorted`` order,
    and its neighbours are ``indices[indptr[v]:indptr[v + 1]]``, ascending:
    every link is listed from both ends, once.
    """

    labels: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray

    def node_count(self) -> int:
        return len(self.labels)

    def edge_count(self) -> int:
        return len(self.indices) // 2

    def index(self, node: str) -> int:
        i = bisect_left(self.labels, node)
        if i == len(self.labels) or self.labels[i] != node:
            raise KeyError(node)
        return i

    def neighbors(self, node: str) -> tuple[str, ...]:
        i = self.index(node)
        return tuple(self.labels[j] for j in self.indices[self.indptr[i] : self.indptr[i + 1]])


# Edge lists are read as raw bytes, a block at a time: at most this many
# bytes, or one line where a line is longer, cut after a line end.
_BLOCK = 1 << 18

# The whitespace of ``str.split`` beyond ASCII (``test_whitespace_table``
# pins the set against ``str.isspace``), as UTF-8 and as the run of ASCII
# spaces of the same length that stands in for it.
_WIDE_SPACES = tuple(
    (ch.encode(), b" " * len(ch.encode()))
    for ch in "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
    "\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


def _byte_codes() -> bytes:
    """The ``bytes.translate`` table that codes each byte of an edge list:
    0 for the ASCII whitespace of ``str.split`` (tab, VT, FF, CR, 0x1c-0x1f
    and space), 1 for LF, and for a label byte the byte itself, except that
    NUL..0x08 move up two, to 0x02..0x0a (no label byte is tab or LF). So
    every label byte codes to 2 or more, and codes keep byte order."""
    code = bytearray(range(256))
    code[:9] = range(2, 11)
    for b in (9, 11, 12, 13, 28, 29, 30, 31, 32):
        code[b] = 0
    code[10] = 1
    return bytes(code)


_CODE = _byte_codes()
# decodes the codes of labels joined by code 1, the LF code, back to bytes
_UNCODE = bytes.maketrans(bytes(range(1, 11)), b"\n" + bytes(range(9)))
# _TOP[r] keeps the first r bytes of a big-endian word
_TOP = np.array([(1 << 64) - (1 << (64 - 8 * r)) for r in range(9)], dtype=np.uint64)


def _blocks(fh):
    """A binary file's bytes in blocks of at most ``_BLOCK`` bytes, each cut
    after its last line end. A CR that ends a read waits for the next one,
    so no CRLF pair is split. A line longer than a block doubles the read
    until it ends, so its block is less than twice its length."""
    rest = b""
    while data := fh.read(_BLOCK - len(rest) if len(rest) < _BLOCK else len(rest)):
        data = rest + data
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1
        data, rest = data[:cut], data[cut:]
        if data:
            yield data
    if rest:
        yield rest


def _block_pairs(text: bytes, line: int, path) -> tuple[np.ndarray, np.ndarray, int]:
    """The label keys of the first two ids of each data line of one block,
    self-loops left out, and the block's line count.

    ``text`` is UTF-8 with LF line ends, and ``line`` the number of lines
    before it. A label's key is its byte codes (see ``_byte_codes``),
    zero-padded to whole big-endian uint64 words, one row per label. No
    label byte codes to 0, so the padding ends every label, and keys
    compare word by word as ``sorted`` compares labels: by their UTF-8
    bytes.
    """
    spaced = text
    if not text.isascii():
        for wide, spaces in _WIDE_SPACES:
            spaced = spaced.replace(wide, spaces)
    # a space before the block and eight after it, so that every run of one
    # kind starts and ends in the buffer, and a word read at the start of
    # any run stays in it; buffer offsets are block offsets plus one
    code = np.frombuffer(b"".join((b"\0", spaced.translate(_CODE), bytes(8))), dtype=np.uint8)
    kind = np.add(code > 0, code > 1, dtype=np.uint8)  # 0 space, 1 line end, 2 label byte
    at = np.flatnonzero(kind[1:] != kind[:-1])
    at += 1  # where each run starts
    kind = kind[at]
    runs = np.flatnonzero(kind)  # the line-end and label runs
    # label[j + 1]: run j is a label; a label run after a line end (or
    # none) opens a line, whose second id is the next run if a label
    label = np.concatenate(([False], kind[runs] == 2, [False]))
    opens = np.flatnonzero(label[1:-1] & ~label[:-2])
    lead = code[at[runs[opens]]]
    data = (lead != ord("#")) & (lead != ord("%"))
    lone = np.flatnonzero(data & ~label[opens + 2])
    if lone.size:
        pos = int(at[runs[opens[lone[0]]]]) - 1
        line += text.count(b"\n", 0, pos) + 1
        bad = text[text.rfind(b"\n", 0, pos) + 1 :].partition(b"\n")[0]
        raise EdgeListFormatError(
            f"{path}: line {line}: expected two node ids, got {bad.decode().rstrip()!r}"
        )
    opens = opens[data]
    ids = np.concatenate((runs[opens], runs[opens + 1]))
    # the run arrays go before the keys are packed, which bounds the peak
    del kind, runs, label
    pos = at[ids]
    ids += 1
    length = at[ids]
    length -= pos
    del at, ids
    words = max(1, -(-int(length.max(initial=0)) // 8))
    # the eight bytes at each offset of the buffer
    word_at = np.ndarray((code.size - 7,), dtype="V8", buffer=code, strides=(1,))
    keys = np.empty((pos.size, words), dtype=np.uint64)
    for k in range(words):
        word = word_at[np.minimum(pos, code.size - 8)].view(">u8")
        keys[:, k] = word & _TOP[np.clip(length, 0, 8)]
        pos += 8
        length -= 8
    u, v = keys[: opens.size], keys[opens.size :]
    loop = (u == v).all(axis=1)
    return u[~loop], v[~loop], np.count_nonzero(code == 1)


def load_edge_list(path) -> Network:
    """The ``Network`` of an edge list file.

    Each line holds ids separated by whitespace, where whitespace is what
    ``str.split`` splits at: the ASCII tab, LF, VT, FF, CR, 0x1c-0x1f and
    space, and the 19 Unicode spaces (U+0085, U+00A0, U+1680, U+2000 to
    U+200A, U+2028, U+2029, U+202F, U+205F and U+3000). Lines end at LF,
    CRLF or CR. A line whose first id starts with `#` or `%` is a comment,
    blank lines are skipped, ids after the second (weights, timestamps) are
    ignored, and a line with one id is an error that names its line.
    Repeated and reversed pairs are one link, and self-loops are dropped
    before the nodes are named, so a label seen only in self-loops is no
    node. Labels may be of any length and hold any characters but
    whitespace; a UTF-8 byte-order mark at the start of the file is no part
    of one. The file must be UTF-8, and the error for a file that is not
    names the first line, counted at LF, that does not decode. Where a file
    has both a line that is not UTF-8 and a line with one id, the error
    names whichever comes first.

    The file is read in blocks (see ``_blocks``). A block's CRLF and CR
    become LF, and in a block with non-ASCII bytes, once it decodes, each
    Unicode space becomes as many ASCII spaces as it has bytes. One
    translate table codes each byte (``_byte_codes``), and diffs of the
    codes' kinds (space, line end, label) give the token spans and the
    first two tokens of each line. Those ids are packed into keys that sort
    as the labels do (see ``_block_pairs``), ``np.unique`` of all keys
    numbers the labels in ``sorted`` order, and only the unique labels are
    decoded.
    """
    us, vs, line = [], [], 0
    with open(path, "rb") as fh:
        for i, block in enumerate(_blocks(fh)):
            if i == 0 and block.startswith(codecs.BOM_UTF8):
                block = block[len(codecs.BOM_UTF8) :]
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            bad = None
            if not block.isascii():
                try:
                    block.decode()
                except UnicodeDecodeError as exc:
                    # read the lines before the bad one first: a one-id
                    # line among them is the first error in the file
                    bad = block.rfind(b"\n", 0, exc.start) + 1
                    block = block[:bad]
            u, v, lines = _block_pairs(block, line, path)
            if bad is not None:
                # no UTF-8 sequence holds a newline byte, so a line is
                # UTF-8 when dropping what does not decode keeps every byte
                fh.seek(0)
                ln = next(i for i, b in enumerate(fh, 1) if b != b.decode(errors="ignore").encode())
                raise EdgeListFormatError(f"{path}: line {ln}: not UTF-8 text")
            us.append(u)
            vs.append(v)
            line += lines
    # keys of the blocks with shorter labels take zero words on the right
    words = max((u.shape[1] for u in us), default=1)
    keys = [np.pad(k, ((0, 0), (0, words - k.shape[1]))) if k.shape[1] < words else k for k in us + vs]
    del us, vs
    keys = np.concatenate(keys or [np.empty((0, 1), dtype=np.uint64)])
    pairs = len(keys) // 2
    if words == 1:
        unique, ends = np.unique(keys[:, 0], return_inverse=True)
        unique = unique[:, None]
    else:
        unique, ends = np.unique(keys, axis=0, return_inverse=True)
        ends = ends.reshape(-1)
    del keys
    # each unique key's nonzero codes, ended by the LF code, spell its label
    size = len(unique)
    rows = np.ones((size, 8 * words + 1), dtype=np.uint8)
    rows[:, :-1] = unique.astype(">u8").view(np.uint8).reshape(size, 8 * words)
    labels = tuple(rows[rows != 0].tobytes().translate(_UNCODE).decode().split("\n")[:-1])
    del unique, rows
    iu, iv = ends[:pairs], ends[pairs:]
    key = np.concatenate((iu * size + iv, iv * size + iu))
    key.sort()  # a plain np.unique hashes, many times slower here
    src, indices = np.divmod(key[np.diff(key, prepend=-1) != 0], size)
    indptr = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=size), out=indptr[1:])
    return Network(labels=labels, indptr=indptr, indices=indices)


def pick_seller(network: Network, rho: int, seed: int) -> str:
    """Uniformly random node of degree exactly rho under the seed."""
    rho = check_count("rho", rho)
    seed = check_count("seed", seed, least=0)
    candidates = np.flatnonzero(np.diff(network.indptr) == rho)
    if not candidates.size:
        raise LookupError(f"no node of degree {rho} in the network")
    rng = np.random.default_rng(seed)
    return network.labels[candidates[int(rng.integers(len(candidates)))]]


def template_from_network(network: Network, seller: str) -> ActionProfile:
    """Truthful full-propagation template over the seller's component."""
    root = network.index(seller)
    # the dominator tree spans exactly the seller's component
    component = np.flatnonzero(network_dominators(network.indptr, network.indices, root) >= 0)
    agents = [AgentAction(seller, 0.0, network.neighbors(seller))]
    for v in component[component != root].tolist():
        node = network.labels[v]
        agents.append(AgentAction(node, 0.0, network.neighbors(node)))
    return ActionProfile(seller=seller, agents=tuple(agents))
