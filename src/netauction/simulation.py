"""Monte Carlo revenue estimation and experiment scenarios.

Replicate streams are derived from (master_seed, batch index), with a batch
size that is a fixed function of the market size only. Replicate i is row
i % B of batch i // B, so any single replicate can be re-drawn in isolation
and the aggregate is bit-identical for any thread count: batches may be
computed in parallel but partial sums are always merged in batch order.

Scenario generators build the synthetic markets used in the experiments:
branch chains hanging off the seller, shaped by market expansion ratio
(the seller's degree relative to market size), market depth (the longest
seller-to-buyer distance), or an explicit branch-size split. Chains are
capped at six hops throughout: beyond six degrees of separation the sale
information cannot be assumed to travel.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import ValueDistribution
from .errors import (
    ConfigError,
    DomainError,
    EdgeListFormatError,
    ScenarioError,
    ValidationError,
)
from .graphs import (
    ActionProfile,
    AgentAction,
    build_graph,
    build_pot,
    ddg,
    subtree_profile,
)
from .reserve import ReservePolicy, RootSolveSettings, resolve_reserve

__all__ = [
    "Scenario",
    "RevenueStats",
    "Network",
    "generate_scenario",
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


@dataclass(frozen=True)
class Scenario:
    """One synthetic market family member.

    kind "mer": seller degree set by a market expansion ratio percentage.
    kind "md": minimal seller degree realising a given market depth.
    kind "symmetry": explicit branch sizes, one chain per branch.
    """

    kind: str
    n: int | None = None
    mer: int | None = None
    md: int | None = None
    sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind == "mer":
            self._need_n()
            if self.mer not in _MER_STEPS:
                raise ScenarioError(
                    f"market expansion ratio must be one of {_MER_STEPS}, got {self.mer}"
                )
            if (self.mer * (self.n + 1)) % 100 != 0:
                raise ScenarioError(
                    f"mer {self.mer}% with n={self.n} gives a fractional seller degree"
                )
            if self.rho() < 1:
                raise ScenarioError(f"mer {self.mer}% with n={self.n} leaves no neighbors")
        elif self.kind == "md":
            self._need_n()
            if not isinstance(self.md, int) or not 1 <= self.md <= MAX_DEPTH:
                raise ScenarioError(
                    f"market depth must lie in 1..{MAX_DEPTH} (information dies out "
                    f"beyond six hops), got {self.md}"
                )
            if self.md > self.n:
                raise ScenarioError(f"depth {self.md} needs at least {self.md} bidders")
        elif self.kind == "symmetry":
            if not self.sizes:
                raise ScenarioError("symmetry scenario needs branch sizes")
            object.__setattr__(self, "sizes", tuple(int(k) for k in self.sizes))
            if any(k < 1 for k in self.sizes):
                raise ScenarioError(f"branch sizes must be >= 1, got {self.sizes}")
            if max(self.sizes) > MAX_DEPTH:
                raise ScenarioError(
                    f"a branch chain of {max(self.sizes)} exceeds the six-hop cap"
                )
            total = sum(self.sizes)
            if self.n is None:
                object.__setattr__(self, "n", total)
            elif self.n != total:
                raise ScenarioError(f"n={self.n} does not match sizes {self.sizes}")
        else:
            raise ScenarioError(f"unknown scenario kind {self.kind!r}")

    def _need_n(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ScenarioError(f"scenario needs integer n >= 1, got {self.n}")

    def rho(self) -> int:
        if self.kind != "mer":
            raise ValidationError("rho is defined by mer scenarios only")
        return self.mer * (self.n + 1) // 100 - 1


def _balanced(total: int, parts: int) -> list[int]:
    if parts == 0:
        return []
    q, rem = divmod(total, parts)
    return [q + 1] * rem + [q] * (parts - rem)


def _agent_ids(n: int) -> list[str]:
    width = len(str(n))
    return [f"a{i:0{width}d}" for i in range(1, n + 1)]


def chains_profile(sizes, seller: str = "s") -> ActionProfile:
    """Truthful template: one chain of bidders per branch size, all bids 0."""
    sizes = tuple(int(k) for k in sizes)
    if not sizes or any(k < 1 for k in sizes):
        raise ScenarioError(f"branch sizes must be >= 1, got {sizes}")
    ids = _agent_ids(sum(sizes))
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
    agents.insert(0, AgentAction(seller, 0.0, frozenset(heads)))
    return ActionProfile(seller=seller, agents=tuple(agents))


def generate_scenario(scenario: Scenario) -> ActionProfile:
    """Realise a scenario as the most symmetric chain tree satisfying it:
    branch sizes are balanced, then the longest chains only as required."""
    if scenario.kind == "symmetry":
        return chains_profile(scenario.sizes)
    if scenario.kind == "mer":
        sizes = _balanced(scenario.n, scenario.rho())
        if max(sizes) > MAX_DEPTH:
            raise ScenarioError(
                f"mer {scenario.mer}% with n={scenario.n} forces a chain of "
                f"{max(sizes)} hops, beyond the six-degrees cap"
            )
        return chains_profile(sizes)
    # md: one chain realises the depth, the rest stay as shallow as allowed
    m = math.ceil(scenario.n / scenario.md)
    sizes = [scenario.md] + _balanced(scenario.n - scenario.md, m - 1)
    if sizes and min(sizes) < 1:
        raise ScenarioError(f"depth {scenario.md} with n={scenario.n} is infeasible")
    return chains_profile(sizes)


def parse_scenario(text: str) -> Scenario:
    """Parse `mer:n=9,pct=30 | md:n=9,depth=4 | symmetry:sizes=3+3`."""
    kind, sep, body = text.strip().partition(":")
    if not sep or kind not in ("mer", "md", "symmetry"):
        raise ConfigError(f"unknown scenario {text!r}")
    fields: dict[str, str] = {}
    for part in body.split(","):
        key, eq, val = part.partition("=")
        if not eq or not key or key in fields:
            raise ConfigError(f"malformed scenario parameter {part!r} in {text!r}")
        fields[key] = val
    wanted = {"mer": ("n", "pct"), "md": ("n", "depth"), "symmetry": ("sizes",)}[kind]
    if set(fields) != set(wanted):
        raise ConfigError(
            f"scenario {text!r}: expected parameters {', '.join(wanted)}"
        )
    try:
        if kind == "mer":
            return Scenario("mer", n=int(fields["n"]), mer=int(fields["pct"]))
        if kind == "md":
            return Scenario("md", n=int(fields["n"]), md=int(fields["depth"]))
        return Scenario(
            "symmetry", sizes=tuple(int(k) for k in fields["sizes"].split("+"))
        )
    except ScenarioError:
        raise  # infeasible parameters are a domain problem, not a syntax one
    except ValueError as exc:
        raise ConfigError(f"scenario {text!r}: {exc}") from None


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


def monte_carlo(
    template: ActionProfile,
    d: ValueDistribution,
    policy: ReservePolicy,
    runs: int,
    master_seed: int,
    threads: int = 1,
    root_settings: RootSolveSettings | None = None,
) -> RevenueStats:
    """Estimate expected revenue under truthful play.

    Each replicate draws i.i.d. values as bids on the template's reported
    network. Only the branch maxima of the dominator tree matter for
    revenue: the sale fails when the best value misses the reserve, and
    otherwise nets max(second-best branch maximum, reserve).
    """
    if not isinstance(runs, int) or runs < 1:
        raise ValidationError(f"runs must be an integer >= 1, got {runs!r}")
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    graph = build_graph(template)
    if not graph.reachable:
        raise DomainError("the template reaches no bidders")
    pot = build_pot(graph)
    prof = subtree_profile(pot)
    reserve = resolve_reserve(policy, prof, d, root_settings)

    order = sorted(graph.reachable)
    col = {a: i for i, a in enumerate(order)}
    branch_cols = [
        np.array(sorted(col[v] for v in ddg(pot, c)), dtype=np.intp)
        for c in pot.children[pot.seller]
    ]
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


def draw_replicate(
    template: ActionProfile,
    d: ValueDistribution,
    master_seed: int,
    i: int,
) -> ActionProfile:
    """The truthful profile of Monte Carlo replicate i, bit-identical to the
    one the aggregate run consumed. Unreachable bidders bid 0."""
    if i < 0:
        raise ValidationError(f"replicate index must be >= 0, got {i}")
    graph = build_graph(template)
    order = sorted(graph.reachable)
    n = len(order)
    if n < 1:
        raise DomainError("the template reaches no bidders")
    g, row = divmod(i, _batch_rows(n))
    rng = np.random.default_rng([master_seed, g])
    u = rng.random((_batch_rows(n), n))
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
    return {
        "runs": stats.runs,
        "mean": stats.mean,
        "std_error": stats.std_error,
        "failure_rate": stats.failure_rate,
        "reserve": stats.reserve,
        "master_seed": stats.master_seed,
        "vbar": stats.vbar,
        "histogram_zero": stats.histogram[0],
        "histogram_bins": list(stats.histogram[1:]),
    }


def write_histogram_csv(stats: RevenueStats, path) -> None:
    """Zero bin first, then the 100 equal-width bins on (0, vbar]."""
    step = stats.vbar / 100.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        fh.write(f"0,0,{stats.histogram[0]}\n")
        for b, count in enumerate(stats.histogram[1:]):
            fh.write(f"{b * step!r},{(b + 1) * step!r},{count}\n")


@dataclass(frozen=True)
class Network:
    """Undirected simple graph from an edge list."""

    adjacency: dict[str, frozenset[str]]

    def node_count(self) -> int:
        return len(self.adjacency)

    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.adjacency.values()) // 2

    def degree(self, node: str) -> int:
        return len(self.adjacency[node])


def load_edge_list(path) -> Network:
    """Whitespace-separated `u v` pairs; `#`/`%` comments and blank lines
    are skipped, extra columns (weights, timestamps) and self-loops are
    ignored."""
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
    return Network(adjacency={u: frozenset(nb) for u, nb in adj.items()})


def pick_seller(network: Network, rho: int, seed: int) -> str:
    """Uniformly random node of degree exactly rho under the seed."""
    candidates = sorted(u for u, nb in network.adjacency.items() if len(nb) == rho)
    if not candidates:
        raise LookupError(f"no node of degree {rho} in the network")
    rng = np.random.default_rng(seed)
    return candidates[int(rng.integers(len(candidates)))]


def template_from_network(network: Network, seller: str) -> ActionProfile:
    """Truthful full-propagation template over the seller's component."""
    if seller not in network.adjacency:
        raise KeyError(seller)
    component = {seller}
    frontier = [seller]
    while frontier:
        nxt = []
        for u in frontier:
            for v in network.adjacency[u]:
                if v not in component:
                    component.add(v)
                    nxt.append(v)
        frontier = nxt
    agents = [AgentAction(seller, 0.0, network.adjacency[seller])]
    for node in sorted(component - {seller}):
        agents.append(AgentAction(node, 0.0, network.adjacency[node]))
    return ActionProfile(seller=seller, agents=tuple(agents))
