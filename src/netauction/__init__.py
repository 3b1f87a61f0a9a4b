"""Diffusion auctions with reserve prices on social networks.

A seller with one item sits in a social network. Bidders both bid and
forward the sale information to their neighbors; the mechanism rewards
forwarding so that full propagation and truthful bidding are dominant
strategies, and a reserve price chosen from a prior market estimate lifts
revenue without breaking either property.

The API lives in the submodules, for example
``from netauction.simulation import monte_carlo, chains_profile``; nothing
is exported at the top level.
"""

__version__ = "0.1.0"
