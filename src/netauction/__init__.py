"""Diffusion auctions with reserve prices on social networks.

A seller with one item sits in a social network. Bidders both bid and
forward the sale information to their neighbors; the mechanism rewards
forwarding so that full propagation and truthful bidding are dominant
strategies, and a reserve price chosen from a prior market estimate lifts
revenue without breaking either property.
"""

from .distributions import (
    TruncatedExponential,
    TruncatedNormal,
    Uniform,
    parse_distribution,
)
from .errors import NetAuctionError
from .graphs import (
    ActionProfile,
    AgentAction,
    SubtreeProfile,
    build_graph,
    build_pot,
    dcs,
    ddg,
    load_profile,
    save_profile,
    subtree_profile,
)
from .incentives import check_dsic, ropt_counterexample
from .mechanism import Outcome, run_apx_r, run_spa_reserve, utilities
from .reserve import (
    ReservePolicy,
    gamma_general,
    gamma_uniform,
    global_optimal_reserve,
    parse_policy,
    resolve_reserve,
    subtree_optimal_reserve,
    sup_gamma_x,
)
from .revenue import (
    expected_subtree_revenue,
    expected_total_revenue,
    mys_lower_bound,
    opt_upper_bound,
    ratio_lower_bound,
    revenue_ordering_report,
    worst_partition,
)
from .simulation import (
    Scenario,
    generate_scenario,
    load_edge_list,
    monte_carlo,
    pick_seller,
    template_from_network,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "NetAuctionError",
    "Uniform",
    "TruncatedNormal",
    "TruncatedExponential",
    "parse_distribution",
    "ActionProfile",
    "AgentAction",
    "SubtreeProfile",
    "build_graph",
    "build_pot",
    "dcs",
    "ddg",
    "subtree_profile",
    "load_profile",
    "save_profile",
    "Outcome",
    "run_apx_r",
    "run_spa_reserve",
    "utilities",
    "ReservePolicy",
    "gamma_uniform",
    "gamma_general",
    "subtree_optimal_reserve",
    "global_optimal_reserve",
    "sup_gamma_x",
    "resolve_reserve",
    "parse_policy",
    "expected_subtree_revenue",
    "expected_total_revenue",
    "opt_upper_bound",
    "mys_lower_bound",
    "ratio_lower_bound",
    "worst_partition",
    "revenue_ordering_report",
    "Scenario",
    "generate_scenario",
    "monte_carlo",
    "load_edge_list",
    "pick_seller",
    "template_from_network",
    "check_dsic",
    "ropt_counterexample",
]
