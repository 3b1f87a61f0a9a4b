"""Deviation search: does any bidder profit from lying or staying silent?

Utilities are piecewise constant in a bidder's own bid, with breakpoints
only at the other bids and at the reserve, so a finite candidate set (a
coarse grid plus every breakpoint, probed a hair on each side) finds the
exact best bid deviation. Each utility changes only at a few of those
(the reserve, the others' top bid and the best bid beside it), so it is
evaluated only at the first candidate past each. Propagation deviations
are every subset of the bidder's links; links to the seller, to itself and
to ids that never report carry no information and are only counted.

A reported subset alone fixes the deviated graph, its dominator tree, the
branch profile and hence every policy's reserve, since a bidder's own links
never change whether the bidder itself is reachable. Nor do they change
anything outside the bidder's dominator subtree that its utility reads: its
chain, and who lies outside each chain member's subtree. So under a reserve
that does not read the profile the search enumerates only the subsets of
the bidder's links into its own subtree (each is the first of the reported
subsets that keep it), rebuilds only that subtree, on the truth's integer
indices, and reads every bid's utility off the two dominator chains that
can hold the winner, by ``mechanism.clear``'s own rule; the truth, the
last subset, is scored by that rule too. The global optimum reads the
branch sizes, which only live links move: those into the subtree, and those
into another top-level branch, entered at its head (any path through the
others passed the bidder's own head). So under it every subset of the live
links is enumerated and reruns the data-flow for the sizes.

The search confirms truthfulness for the deployable reserve policies and
demonstrates its failure for the profile-dependent global optimum: on the
three-chain counterexample network, the agent controlling one branch can
shrink the market, drag the optimal reserve down past its own value, and
buy at the lower price; ``ropt_counterexample`` reads that off the search.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter

from .distributions import Uniform, ValueDistribution
from .errors import DomainError, ValidationError, check_amount, check_count
from .graphs import (
    ActionProfile,
    AgentAction,
    SubtreeProfile,
    build_graph,
    build_pot,
    subtree_profile,
)
from .mechanism import _outside_tops, _relay_rule
from .reserve import ReservePolicy, global_optimal_reserve, resolve_reserve

__all__ = [
    "DeviationGrid",
    "DeviationReport",
    "CounterexampleReport",
    "check_dsic",
    "counterexample_instance",
    "ropt_counterexample",
    "report_to_dict",
]

_SUBSET_CAP = 12

_CE_DIST = Uniform(vbar=1.0)
_CE_FULL = SubtreeProfile.from_sizes((2, 2, 2))
_CE_WITHHELD = SubtreeProfile.from_sizes((2, 2, 1))


@dataclass(frozen=True)
class DeviationGrid:
    """Bid grid resolution; critical bids are always added on top."""

    points: int = 21

    def __post_init__(self):
        object.__setattr__(self, "points", check_count("points", self.points, least=2))


@dataclass(frozen=True)
class DeviationReport:
    """Best enumerated deviation for one agent, against truthful opponents.

    The truthful action is part of the enumeration, so best_gain is never
    negative; truthfulness means it is (numerically) zero.
    """

    agent: str
    truthful_utility: float
    best_gain: float
    best_bid: float
    best_report: frozenset[str]
    deviations_tested: int


def _subsets(agent: str, links: list[int], what: str) -> list[tuple[int, ...]]:
    """Every subset of ``links``, by size, then in ``combinations`` order;
    the last one holds them all."""
    if len(links) > _SUBSET_CAP:
        raise DomainError(f"agent {agent!r}: {len(links)} {what} exceed the 2^{_SUBSET_CAP} subset cap")
    return [chosen for size in range(len(links) + 1) for chosen in combinations(links, size)]


def _bid_candidates(grid: DeviationGrid, vbar: float, bids, reserve: float | None) -> list[float]:
    """The grid, ``bids`` and the reserve probed exactly and a hair on each
    side, clipped to [0, vbar], sorted and without repeats."""
    eps = 1e-6 * vbar
    # np.linspace(0.0, vbar, grid.points) to the bit, without its call
    step = vbar / (grid.points - 1)
    raw = [i * step for i in range(grid.points - 1)] + [vbar]
    raw.extend(bids)
    if reserve is not None:
        raw.extend((reserve, reserve - eps, reserve + eps))
    return sorted({min(max(float(b), 0.0), vbar) for b in raw})


def check_dsic(
    truth: ActionProfile,
    d: ValueDistribution,
    policy: ReservePolicy,
    grid: DeviationGrid | None = None,
) -> tuple[DeviationReport, ...]:
    """Best-response search for every bidder, holding the others truthful.

    ``truth`` is the truthful profile: bids are true values, reports are
    full propagation. For the global-optimum policy the reserve is resolved
    against each deviated profile, since that feedback is precisely what a
    deviator exploits; every other policy resolves once and stays fixed.

    Deviations are ordered bid-major: every candidate of ``_bid_candidates``
    in turn, and under it every subset of the bidder's links other than to
    the seller, by size, then in ``combinations`` order. Of equally good
    deviations the first in that order is reported, and
    ``deviations_tested`` counts the whole product.
    ``tests/helpers.enumerate_deviations`` lists that order and is the
    reference. The search itself tries only the subsets and candidates that
    can come first in it, and scores the truth by the rule it scores them
    by (see the module docstring).
    """
    grid = grid or DeviationGrid()
    values = truth.bids()
    for agent, v in values.items():
        check_amount(f"true value of {agent!r}", v, ValidationError, most=d.vbar)

    graph = build_graph(truth)
    if not graph.reachable:
        # nobody hears of the sale and no report can change that, since
        # bidders cannot add links out of the seller
        return ()
    pot = build_pot(graph)
    base_profile = subtree_profile(pot)
    base_reserve = resolve_reserve(policy, base_profile, d)
    bids = [values[a] for a in pot.ids]
    candidates = _bid_candidates(grid, d.vbar, values.values(), base_reserve)
    tops = _outside_tops(pot, bids)
    slot_of = {a: i for i, a in enumerate(pot.ids)}
    if policy.kind == "global_opt":
        # each slot's top-level head; the preorder puts every parent first
        head = [0] * len(pot.ids)
        for w in pot.order:
            head[w] = w if pot.up[w] < 0 else head[pot.up[w]]
    reserve_cache = {tuple(sorted(base_profile.sizes)): base_reserve}

    def reserve_for(slot: int, subset: tuple[int, ...]) -> float:
        # the global optimum of the deviated market's branch sizes
        sizes = pot.branch_sizes(slot, subset)
        key = tuple(sorted(sizes))
        if key not in reserve_cache:
            reserve_cache[key] = global_optimal_reserve(SubtreeProfile.from_sizes(sizes), d)
        return reserve_cache[key]

    reports = []
    for action in sorted(truth.bidders(), key=attrgetter("agent")):
        agent, value = action.agent, action.bid
        u_truth = 0.0  # kept when the seller never reaches it or a member above wins
        best_gain, best_bid, best_report = 0.0, value, action.neighbors
        tested = 0
        if agent in slot_of:
            slot = slot_of[agent]
            tested = len(candidates) << len(action.neighbors - {truth.seller})
            # slot order is id order, so subsets of slots come in id order
            links = pot.succ[slot]
            start, stop = pot.at[slot], pot.at[slot] + pot.size[slot]
            inner = [w for w in links if start < pot.at[w] < stop]
            if policy.kind == "global_opt":
                live = [w for w in links if start < pot.at[w] < stop or head[w] != head[slot]]
                subsets = _subsets(agent, live, "live links")
                # the last subset is the truth
                reserves = [reserve_for(slot, subset) for subset in subsets[:-1]] + [base_reserve]
            else:
                subsets = _subsets(agent, inner, "links into its own subtree")
                reserves = [base_reserve] * len(subsets)
            firsts = _first_utilities(pot, bids, tops, slot, inner, subsets, reserves)
            if (tuple(inner), base_reserve) in firsts:  # + 0.0: clear's 0.0, not -0.0
                u_truth = firsts[tuple(inner), base_reserve][0](value) + 0.0
            best = _best_deviation(candidates, list(firsts.values()), u_truth)
            if best is not None:
                best_gain, best_bid, subset = best
                best_report = frozenset(pot.ids[w] for w in subset)
        reports.append(
            DeviationReport(
                agent=agent,
                truthful_utility=u_truth,
                best_gain=best_gain,
                best_bid=best_bid,
                best_report=best_report,
                deviations_tested=tested,
            )
        )
    return tuple(reports)


def _first_utilities(pot, bids, tops, slot, inner, subsets, reserves) -> dict:
    """Bidder ``slot``'s distinct utilities over ``subsets``, each at its
    reserve, in order of first appearance: (the kept ``inner`` links, the
    reserve) -> (u, breaks, the first subset). Only the links into the
    bidder's own subtree shape what u reads. A reserve at which a member
    above the bidder wins whatever it bids gets no entry: u is -0.0 there,
    and the truthful utility is never negative."""
    rules = {}
    firsts = {}
    for subset, r in zip(subsets, reserves):
        kept = tuple(w for w in subset if w in inner)
        if (kept, r) in firsts:
            continue
        if r not in rules:
            rules[r] = _relay_rule(pot, bids, tops, slot, r, bids[slot])
        if rules[r] is not None:
            below = pot.subtree(slot) if len(kept) == len(inner) else pot.cut(slot, kept)
            firsts[kept, r] = (*rules[r](*below), subset)
    return firsts


def _best_deviation(candidates: list[float], firsts: list, u_truth: float):
    """The first strict improvement on ``u_truth`` of the bid-major scan of
    ``candidates``, each against every (u, breaks, subset) of ``firsts``, as
    (gain, bid, subset), or None. u holds between its breaks, so only
    candidate 0 and the first candidates at and past each break are tried,
    and the least (-gain, candidate index, utility index) is the scan's."""
    tried = (
        (u_truth - u(candidates[i]), i, j)
        for j, (u, breaks, _) in enumerate(firsts)
        for i in {0, *(f(candidates, x) for x in breaks for f in (bisect_left, bisect_right))}
        if i < len(candidates)
    )
    loss, i, j = min(tried, default=(0.0, 0, 0))
    # b - a is -(a - b) to the bit, so -loss is the scan's gain
    return (-loss, candidates[i], firsts[j][2]) if loss < 0.0 else None


def counterexample_instance() -> ActionProfile:
    """Three two-bidder chains under one seller, uniform values on [0, 1].

    Agent c heads the third chain. Its value lands halfway between the
    full-market and the withheld-market optimal reserves, the window where
    withholding pays.
    """
    r_full = global_optimal_reserve(_CE_FULL, _CE_DIST)
    r_less = global_optimal_reserve(_CE_WITHHELD, _CE_DIST)
    values = {"a": 0.30, "b": 0.40, "c": 0.5 * (r_full + r_less), "d": 0.20, "e": 0.25, "f": 0.10}
    agents = [AgentAction("s", 0.0, frozenset("abc"))]
    for head, tail in (("a", "d"), ("b", "e"), ("c", "f")):
        agents.append(AgentAction(head, values[head], frozenset([tail])))
        agents.append(AgentAction(tail, values[tail], frozenset()))
    return ActionProfile(seller="s", agents=tuple(agents))


@dataclass(frozen=True)
class CounterexampleReport:
    """Why the profile-dependent optimal reserve is not truthful."""

    agent: str
    value: float
    reserve_full: float
    reserve_withheld: float
    truthful_utility: float
    deviant_utility: float
    gain: float


def ropt_counterexample() -> CounterexampleReport:
    """Agent c's profitable silence, as the deviation search finds it.

    Under full propagation the market is three branches of two and the
    optimal reserve sits above c's value, so the auction fails and c earns
    nothing. Withholding the sale information from f shrinks one branch,
    pulls the optimal reserve below c's value, and c wins at that lower
    reserve for a strictly positive utility: c's report's best gain.
    """
    truth = counterexample_instance()
    c = {r.agent: r for r in check_dsic(truth, _CE_DIST, ReservePolicy("global_opt"))}["c"]
    return CounterexampleReport(
        agent="c",
        value=truth.bids()["c"],
        reserve_full=global_optimal_reserve(_CE_FULL, _CE_DIST),
        reserve_withheld=global_optimal_reserve(_CE_WITHHELD, _CE_DIST),
        truthful_utility=c.truthful_utility,
        deviant_utility=c.truthful_utility + c.best_gain,
        gain=c.best_gain,
    )


def report_to_dict(report: DeviationReport) -> dict:
    # not dataclasses.asdict, which deep-copies the frozenset only for it to
    # be sorted: about 20x the cost of vars, once per bidder on large lists
    return {**vars(report), "best_report": sorted(report.best_report)}
