"""Deviation search: does any bidder profit from lying or staying silent?

Utilities are piecewise constant in a bidder's own bid, with breakpoints
only at the other bids and at the reserve, so a finite candidate set (a
coarse grid plus every breakpoint, probed a hair on each side) finds the
exact best bid deviation. Propagation deviations are enumerated outright:
every subset of the bidder's informative neighbors. Links back to the
seller carry no information, so they are excluded from the subset universe.

A reported subset alone fixes the deviated graph, its dominator tree, the
branch profile and hence every policy's reserve, since a bidder's own links
never change whether the bidder itself is reachable. Nor do they change
anything outside the bidder's dominator subtree that its utility reads: its
chain, and who lies outside each chain member's subtree. So the search
rebuilds only that subtree, on the truth's integer indices and only for
subsets that drop a link into it, and reads every bid candidate's utility
off the two dominator chains that can hold the winner, by
``mechanism.clear``'s own rule. Only the reserve can differ between
subsets: the global optimum reads the branch sizes, which a dropped link
can change outside the subtree, so it reruns the data-flow for them alone.

The search confirms truthfulness for the deployable reserve policies and
demonstrates its failure for the profile-dependent global optimum: on the
three-chain counterexample network, the agent controlling one branch can
shrink the market, drag the optimal reserve down past its own value, and
buy at the lower price.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter

from .distributions import Uniform, ValueDistribution
from .errors import DomainError, ValidationError
from .graphs import (
    ActionProfile,
    AgentAction,
    SubtreeProfile,
    build_graph,
    build_pot,
    subtree_profile,
)
from .mechanism import _outside_tops, _relay_rule, _silent, clear, run_apx_r, utilities
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
        if not isinstance(self.points, int) or isinstance(self.points, bool) or self.points < 2:
            raise ValidationError(f"grid needs an integer of at least 2 points, got {self.points!r}")


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


def _reported_subsets(neighbors, seller: str | None) -> list[frozenset[str]]:
    """Every subset of the informative neighbors, by size, then in
    ``combinations`` order; the last one holds them all."""
    informative = sorted(frozenset(neighbors) - {seller})
    if len(informative) > _SUBSET_CAP:
        raise DomainError(
            f"{len(informative)} neighbors exceed the 2^{_SUBSET_CAP} subset cap"
        )
    return [
        frozenset(chosen)
        for size in range(len(informative) + 1)
        for chosen in combinations(informative, size)
    ]


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

    The bid candidates and the best bid outside each subtree are the same
    for every agent and are listed once. Each subset rebuilds at most the
    deviator's subtree (see the module docstring), and every candidate's
    utility is read off it by the rule ``clear`` applies. Deviations are
    ordered bid-major: every candidate of ``_bid_candidates`` in turn, and
    under it every subset of ``_reported_subsets``. Of equally good
    deviations the first in that order is reported, and
    ``deviations_tested`` counts the whole product.
    ``tests/helpers.enumerate_deviations`` lists that order and is the
    reference.
    """
    grid = grid or DeviationGrid()
    values = truth.bids()
    for agent, v in values.items():
        if v > d.vbar:
            raise ValidationError(f"true value {v} of {agent!r} exceeds vbar={d.vbar}")

    graph = build_graph(truth)
    if not graph.reachable:
        # nobody hears of the sale and no report can change that, since
        # bidders cannot add links out of the seller
        return ()
    pot = build_pot(graph)
    base_profile = subtree_profile(pot)
    base_reserve = resolve_reserve(policy, base_profile, d)
    bids = [values[a] for a in pot.ids]
    truth_utils = utilities(truth, values, clear(pot, bids, base_reserve))
    candidates = _bid_candidates(grid, d.vbar, values.values(), base_reserve)
    tops = _outside_tops(pot, bids)
    slot_of = {a: i for i, a in enumerate(pot.ids)}
    reserve_cache = {tuple(sorted(base_profile.sizes)): base_reserve}

    def reserve_for(slot: int, subset: frozenset[str]) -> float:
        # the global optimum of the deviated market's branch sizes
        sizes = pot.branch_sizes(slot, [slot_of[v] for v in subset if v in slot_of])
        key = tuple(sorted(sizes))
        if key not in reserve_cache:
            reserve_cache[key] = global_optimal_reserve(SubtreeProfile.from_sizes(sizes), d)
        return reserve_cache[key]

    reports = []
    for action in sorted(truth.bidders(), key=attrgetter("agent")):
        agent, value = action.agent, action.bid
        u_truth = truth_utils[agent]
        best_gain, best_bid, best_report = 0.0, value, action.neighbors
        tested = 0
        if agent in slot_of:
            slot = slot_of[agent]
            subsets = _reported_subsets(action.neighbors, truth.seller)
            tested = len(candidates) * len(subsets)
            if policy.kind == "global_opt":
                # the last subset is the truth: links to the seller are inert
                reserves = [reserve_for(slot, subset) for subset in subsets[:-1]] + [base_reserve]
            else:
                reserves = [base_reserve] * len(subsets)
            utils = _subset_utilities(pot, bids, tops, slot_of, slot, reserves, subsets)
            # strict improvement in enumeration order: the first best wins
            # ties, so of the subsets sharing one utility only the first
            # can be reported
            first: dict = {}
            for subset, u in zip(subsets, utils):
                first.setdefault(u, subset)
            for b in candidates:
                for u, subset in first.items():
                    gain = u(b) - u_truth
                    if gain > best_gain:
                        best_gain, best_bid, best_report = gain, b, subset
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


def _subset_utilities(pot, bids, tops, slot_of, slot, reserves, subsets):
    """Bidder ``slot``'s utility for each reported subset, at that subset's
    reserve, as a function of its bid.

    Only the bidder's informative links into its own subtree shape what
    the utility reads, so subsets that keep the same ones at the same
    reserve share one function, and those that keep them all read the
    truth's subtree.
    """
    start, stop = pot.at[slot], pot.at[slot] + pot.size[slot]
    inner = frozenset(
        v for v in subsets[-1] if v in slot_of and start < pot.at[slot_of[v]] < stop
    )
    rules: dict[float, object] = {}
    shared: dict[tuple[frozenset[str], float], object] = {}
    utils = []
    for subset, r in zip(subsets, reserves):
        kept = subset & inner
        if (kept, r) not in shared:
            if r not in rules:
                rules[r] = _relay_rule(pot, bids, tops, slot, r, bids[slot])
            rule = rules[r]
            if rule is None:
                shared[kept, r] = _silent
            elif kept == inner:
                shared[kept, r] = rule(*pot.subtree(slot))
            else:
                shared[kept, r] = rule(*pot.cut(slot, [slot_of[v] for v in sorted(kept)]))
        utils.append(shared[kept, r])
    return utils


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
    """Demonstrate the profitable silence of agent c, end to end.

    Under full propagation the market is three branches of two and the
    optimal reserve sits above c's value, so the auction fails and c earns
    nothing. Withholding the sale information from f shrinks one branch,
    pulls the optimal reserve below c's value, and c wins at that lower
    reserve for a strictly positive utility.
    """
    truth = counterexample_instance()
    r_full = global_optimal_reserve(_CE_FULL, _CE_DIST)
    r_less = global_optimal_reserve(_CE_WITHHELD, _CE_DIST)
    value = truth.action("c").bid

    truthful = run_apx_r(truth, r_full)
    u_truth = utilities(truth, truth.bids(), truthful)["c"]

    deviated = truth.replace_action("c", value, frozenset())
    sizes = subtree_profile(build_pot(build_graph(deviated)))
    outcome = run_apx_r(deviated, global_optimal_reserve(sizes, _CE_DIST))
    paid = outcome.payments.get("c", 0.0)
    u_dev = value - paid if outcome.winner == "c" else -paid

    return CounterexampleReport(
        agent="c",
        value=value,
        reserve_full=r_full,
        reserve_withheld=r_less,
        truthful_utility=u_truth,
        deviant_utility=u_dev,
        gain=u_dev - u_truth,
    )


def report_to_dict(report: DeviationReport) -> dict:
    return {
        "agent": report.agent,
        "truthful_utility": report.truthful_utility,
        "best_gain": report.best_gain,
        "best_bid": report.best_bid,
        "best_report": sorted(report.best_report),
        "deviations_tested": report.deviations_tested,
    }
