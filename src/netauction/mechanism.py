"""The reserve-price diffusion auction and its benchmark mechanisms.

The core mechanism sells one item over a reported diffusion graph. Winner
selection walks the highest bidder's dominator chain from the seller's side
outward: the first member whose bid clears the reserve and equals the best
bid found outside its own subtree takes the item. Members of the chain
before the winner are paid (not charged) the marginal value of the market
they unlocked, which is what makes forwarding the sale information a
dominant strategy. Payments telescope, so the seller nets
max(best bid outside the first critical node's subtree, reserve).
``run_apx_r`` builds the graph and its dominator tree from a profile;
``clear`` runs the sale on a prebuilt tree, so a caller that varies only
the bids over one set of reported links builds the tree once.

At reserve 0 the mechanism is the classic information diffusion mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

from .errors import DomainError, ValidationError
from .graphs import ActionProfile, Pot, build_graph, build_pot

__all__ = [
    "Outcome",
    "run_apx_r",
    "clear",
    "utilities",
    "outcome_to_dict",
]


@dataclass(frozen=True)
class Outcome:
    """Result of one auction run.

    ``payments`` carries one entry per participating bidder; positive only
    ever for the winner, negative entries are diffusion rewards to the
    winner's critical predecessors. ``revenue`` is the sum of payments.
    A failed run (every relevant bid under the reserve) has no winner, no
    payments, and zero revenue.
    """

    winner: str | None
    payments: dict[str, float] = field(compare=False)
    revenue: float = 0.0
    failed: bool = False


def _failed_outcome() -> Outcome:
    return Outcome(winner=None, payments={}, revenue=0.0, failed=True)


def _check_reserve(reserve: float) -> None:
    if not math.isfinite(reserve) or reserve < 0.0:
        raise DomainError(f"reserve must be finite and >= 0, got {reserve}")


def run_apx_r(profile: ActionProfile, reserve: float) -> Outcome:
    """Sell one item over the reported diffusion graph at the given reserve.

    Bids exactly equal to the reserve still clear it. Bidders unreachable
    under the reported links are excluded entirely: they cannot win, pay,
    or earn. The empty market (or every reachable bid under the reserve)
    fails the auction.
    """
    pot = build_pot(build_graph(profile))
    bids = profile.bids()
    return clear(pot, [bids[a] for a in pot.ids], reserve)


def clear(pot: Pot, bids: list[float], reserve: float) -> Outcome:
    """Winner and payments on a prebuilt dominator tree.

    ``bids[v]`` is the bid of bidder ``pot.ids[v]``, so one tree serves any
    number of bid vectors over the same reported links.
    """
    _check_reserve(reserve)
    n = len(bids)
    if not n:
        return _failed_outcome()

    # highest bidder; index order is id order, so ties go to the smaller id
    h = max(range(n), key=bids.__getitem__)
    if bids[h] < reserve:
        return _failed_outcome()

    # dominator chain from the seller's side down to h
    up = pot.up
    chain = [h]
    while up[chain[-1]] >= 0:
        chain.append(up[chain[-1]])
    chain.reverse()

    # excl[t] = best bid outside chain[t]'s subtree; excl[len] covers everyone.
    # Every subtree is a contiguous slice of the preorder pot.order, so
    # excl[t] is the larger of a prefix and a suffix maximum. The best bid
    # over an empty set is 0, which keeps the telescoping sum equal to the
    # seller's revenue when one branch holds the whole market.
    at, size = pot.at, pot.size
    vals = [bids[v] for v in pot.order]
    before = list(accumulate(vals, max, initial=0.0))
    after = list(accumulate(reversed(vals), max, initial=0.0))
    excl = [max(before[at[z]], after[n - at[z] - size[z]]) for z in chain]
    excl.append(bids[h])  # everyone: the top bid

    w_idx = len(chain) - 1  # h itself always qualifies
    for t, z in enumerate(chain):
        if bids[z] >= reserve and bids[z] == excl[t + 1]:
            w_idx = t
            break
    winner = chain[w_idx]

    pay = [0.0] * n
    pay[winner] = max(excl[w_idx], reserve)
    for t in range(w_idx):
        pay[chain[t]] = max(excl[t], reserve) - max(excl[t + 1], reserve)
    return Outcome(
        winner=pot.ids[winner],
        payments=dict(zip(pot.ids, pay)),
        revenue=max(excl[0], reserve),
        failed=False,
    )


def utilities(
    profile: ActionProfile,
    true_values: dict[str, float],
    outcome: Outcome,
) -> dict[str, float]:
    """Quasilinear utilities: allocation value minus payment, per bidder.

    Bidders absent from the outcome's payment map paid nothing and get 0.
    """
    ids = profile.ids()
    if set(true_values) != set(ids):
        raise ValidationError("true value ids do not match the profile's bidders")
    stray = set(outcome.payments) - set(ids)
    if stray or (outcome.winner is not None and outcome.winner not in ids):
        raise ValidationError("outcome does not belong to this profile")
    out = {i: 0.0 - outcome.payments.get(i, 0.0) for i in ids}
    if outcome.winner is not None:
        out[outcome.winner] = true_values[outcome.winner] - outcome.payments[outcome.winner]
    return out


def outcome_to_dict(outcome: Outcome) -> dict:
    return {
        "winner": outcome.winner,
        "payments": dict(sorted(outcome.payments.items())),
        "revenue": outcome.revenue,
        "failed": outcome.failed,
    }

