"""The reserve-price diffusion auction and its benchmark mechanisms.

The core mechanism sells one item over a reported diffusion graph. Winner
selection walks the highest bidder's dominator chain from the seller's side
outward: the first member whose bid clears the reserve and equals the best
bid found outside its own subtree takes the item. Members of the chain
before the winner are paid (not charged) the marginal value of the market
they unlocked, which is what makes forwarding the sale information a
dominant strategy. Payments telescope, so the seller nets
max(best bid outside the first critical node's subtree, reserve).
``run_apx_r`` compiles a profile's reported links to integer indices and
builds their dominator tree; ``clear`` runs the sale on a prebuilt tree, so
a caller that varies only the bids over one set of reported links builds
the tree once.

At reserve 0 the mechanism is the classic information diffusion mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

from .errors import DomainError, check_nonnegative
from .graphs import ActionProfile, Pot, build_graph, build_pot

__all__ = [
    "Outcome",
    "run_apx_r",
    "clear",
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


def _chain(up: list[int], v: int) -> list[int]:
    """The dominator chain from the seller's side down to v."""
    chain = [v]
    while up[chain[-1]] >= 0:
        chain.append(up[chain[-1]])
    chain.reverse()
    return chain


def _outside_tops(pot: Pot, bids: list[float]):
    """z -> (the best bid outside z's subtree, the smallest index holding
    it), or (-inf, None) when z's subtree holds everyone.

    Every subtree is a contiguous slice of the preorder ``pot.order``, so
    the answer is the larger of a prefix and a suffix maximum, here of
    (bid, -index), so ties go to the smaller index.
    """
    n = len(bids)
    at, size = pot.at, pot.size
    keys = [(bids[v], -v) for v in pot.order]
    nobody = (-math.inf, 1)
    before = list(accumulate(keys, max, initial=nobody))
    after = list(accumulate(reversed(keys), max, initial=nobody))

    def top(z: int) -> tuple[float, int | None]:
        bid, key = max(before[at[z]], after[n - at[z] - size[z]])
        return bid, (None if key > 0 else -key)

    return top


def clear(pot: Pot, bids: list[float], reserve: float) -> Outcome:
    """Winner and payments on a prebuilt dominator tree.

    ``bids[v]`` is the bid of bidder ``pot.ids[v]``, so one tree serves any
    number of bid vectors over the same reported links.
    """
    check_nonnegative("reserve", reserve, DomainError)
    n = len(bids)
    if not n:
        return _failed_outcome()

    # highest bidder; index order is id order, so ties go to the smaller id
    h = max(range(n), key=bids.__getitem__)
    if bids[h] < reserve:
        return _failed_outcome()

    chain = _chain(pot.up, h)

    # excl[t] = best bid outside chain[t]'s subtree; excl[len] covers everyone.
    # The best bid over nobody counts as 0, which keeps the telescoping sum
    # equal to the seller's revenue when one branch holds the whole market
    tops = _outside_tops(pot, bids)
    excl = [max(0.0, tops(z)[0]) for z in chain]
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


def _first_top(bids: list[float], nodes) -> int | None:
    """The smallest index among ``nodes`` holding their top bid."""
    if not nodes:
        return None
    top = max(bids[v] for v in nodes)
    return min(v for v in nodes if bids[v] == top)


def _relay_rule(pot: Pot, bids: list[float], tops, slot: int, reserve: float, value: float):
    """Bidder ``slot``'s utility under ``clear`` as a function of its bid.

    ``u(b)`` is the utility (``value`` less the payment if ``slot`` wins,
    less the payment otherwise) that ``clear(pot, bids', reserve)`` gives
    ``slot``, where ``bids'`` is ``bids`` with ``bids'[slot] = b``. Only b
    moves, so the rest of ``clear``'s rule is read off once. The top bidder
    is ``slot`` or h0, the others' first top bidder, and ``slot`` is paid
    only on the chain down to it: its own chain, or h0's when h0 is in its
    subtree. Both chains share the members above ``slot``, whose subtrees
    contain ``slot``, so whether one of them wins does not depend on b; if
    one does, ``slot`` gets nothing. Otherwise ``slot`` wins when b clears
    the reserve and is the best bid outside the subtree of the next member
    down (everyone, when ``slot`` holds the top bid), and else it relays.

    ``slot``'s chain, and who lies outside each member's subtree, do not
    depend on ``slot``'s own links. ``tops`` is ``_outside_tops(pot, bids)``;
    each top bid and bidder read from it leaves out ``slot``'s subtree, so
    ``bids[slot]`` never counts, and a top bid is floored at 0 as ``clear``
    floors it. Returns None when a member above ``slot`` wins whatever it
    bids, and else the map from ``slot``'s subtree, as ``Pot.subtree`` or
    ``Pot.cut`` lists it, to ``(u, breaks)``: u changes only at the bids in
    ``breaks``, the reserve, the others' top bid and ``beside`` if it is set.
    """
    check_nonnegative("reserve", reserve, DomainError)
    chain = _chain(pot.up, slot)
    for z, below in zip(chain, chain[1:]):
        if bids[z] >= reserve and bids[z] == max(0.0, tops(below)[0]):
            return None

    held, h_out = tops(slot)
    held = max(0.0, held)
    win = value - max(held, reserve)

    def rule(below: list[int], up: list[int]):
        # ties go to the smaller index
        h_in = _first_top(bids, below)
        h0 = _first_top(bids, [h for h in (h_out, h_in) if h is not None])
        if h0 is None:
            return (lambda b: win if b >= reserve else -0.0), (reserve,)
        top = bids[h0]
        beside = None  # the others' best bid outside the next member's subtree
        if h0 == h_in:
            # slot's child above h0 heads the preorder run that holds h0
            first = last = below.index(h0)
            while up[first] != slot:
                first -= 1
            last += 1
            while last < len(below) and up[last] != slot:
                last += 1
            beside = max([held] + [bids[v] for v in below[:first] + below[last:]])

        def u(b: float) -> float:
            if b > top or (b == top and slot < h0):
                return win if b >= reserve else -0.0
            if beside is None:
                return -0.0
            if b >= reserve and b >= beside:
                return win
            return -(max(held, reserve) - max(beside, b, reserve))

        return u, ((reserve, top) if beside is None else (reserve, top, beside))

    return rule
