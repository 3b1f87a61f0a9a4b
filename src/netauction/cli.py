"""Command-line entry point.

One executable, eight subcommands: run a single auction, resolve reserve
policies, evaluate analytic revenue, simulate, generate scenario networks,
search for profitable deviations, print the approximation-ratio bound, and
ingest edge-list files. Human output is fixed at six decimal places;
machine output (--out) is full-precision JSON or CSV.

Exit codes: 0 success, 2 usage errors (bad flags, malformed configuration
strings, missing input files), 1 runtime errors and malformed input files,
each with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .distributions import parse_distribution
from .errors import ConfigError, NetAuctionError
from .golden import reference_checksum
from .graphs import (
    SubtreeProfile,
    build_graph,
    build_pot,
    load_profile,
    profile_to_dict,
    subtree_profile,
)
from .incentives import (
    DeviationGrid,
    check_dsic,
    ropt_counterexample,
    report_to_dict,
)
from .mechanism import clear
from .reserve import parse_policy, resolve_reserve
from .revenue import (
    expected_total_revenue,
    ratio_lower_bound,
    write_revenue_csv,
)
from .simulation import (
    Market,
    chains_profile,
    draw_replicate,
    load_edge_list,
    monte_carlo,
    parse_scenario,
    pick_seller,
    stats_to_dict,
    template_from_network,
    write_histogram_csv,
)

DEFAULT_SEED = 20240817


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _require_file(path: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"input file not found: {path}")
    return path


def _parse_sizes(text: str) -> SubtreeProfile:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"--sizes wants comma-separated integers, got {text!r}") from None
    return SubtreeProfile.from_sizes(sizes)


def _load_template(spec: str, rho: int | None, seed: int, market: bool = False):
    """A --net argument is a scenario spec, a profile JSON, or an edge list.

    With ``market`` an edge list compiles straight to the Monte Carlo's
    ``Market``, without a profile row per node.
    """
    if spec.startswith(("mer:", "md:", "symmetry:")):
        return chains_profile(parse_scenario(spec))
    _require_file(spec)
    if spec.endswith(".json"):
        return load_profile(spec)
    network = load_edge_list(spec)
    if rho is None:
        raise ConfigError("an edge-list network needs --rho to pick the seller")
    seller = pick_seller(network, rho, seed)
    if market:
        return Market.from_network(network, seller)
    return template_from_network(network, seller)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_auction(args) -> int:
    profile = load_profile(_require_file(args.profile))
    pot = build_pot(build_graph(profile))
    if args.r is not None:
        reserve = args.r
    else:
        d = parse_distribution(args.dist)
        policy = parse_policy(args.reserve)
        reserve = resolve_reserve(policy, subtree_profile(pot), d)
    bids = profile.bids()
    outcome = clear(pot, [bids[a] for a in pot.ids], reserve)
    print(f"reserve: {_fmt(reserve)}")
    if outcome.failed:
        print("failed: no reachable bid met the reserve")
    else:
        print(f"winner: {outcome.winner}")
        for agent, p in sorted(outcome.payments.items()):
            if p != 0.0:
                print(f"payment[{agent}]: {_fmt(p)}")
    print(f"revenue: {_fmt(outcome.revenue)}")
    if args.out:
        _write_json(args.out, dataclasses.asdict(outcome))
    return 0


def _cmd_reserve(args) -> int:
    d = parse_distribution(args.dist)
    policy = parse_policy(args.policy)
    prof = _parse_sizes(args.sizes) if args.sizes else None
    value = resolve_reserve(policy, prof, d)
    print(_fmt(value))
    if args.out:
        _write_json(args.out, {"policy": args.policy, "dist": args.dist, "reserve": value})
    return 0


def _cmd_revenue(args) -> int:
    d = parse_distribution(args.dist)
    prof = _parse_sizes(args.sizes)
    total = expected_total_revenue(prof, d, args.r, method=args.method)
    print(_fmt(total))
    if args.sweep:
        if not args.out:
            raise ConfigError("--sweep needs --out to receive the CSV")
        try:
            start, stop, count = args.sweep.split(":")
            grid = np.linspace(float(start), float(stop), int(count))
        except ValueError:
            raise ConfigError(
                f"--sweep wants start:stop:count, got {args.sweep!r}"
            ) from None
        write_revenue_csv(args.out, prof, d, grid, args.method)
    elif args.out:
        _write_json(
            args.out,
            {"sizes": list(prof.sizes), "dist": args.dist, "r": args.r, "revenue": total},
        )
    return 0


def _cmd_simulate(args) -> int:
    d = parse_distribution(args.dist)
    policy = parse_policy(args.reserve)
    template = _load_template(args.net, args.rho, args.seed, market=True)
    stats = monte_carlo(template, d, policy, args.runs, args.seed, threads=args.threads)
    print(f"runs: {stats.runs}")
    print(f"reserve: {_fmt(stats.reserve)}")
    print(f"mean: {_fmt(stats.mean)}")
    print(f"std_error: {_fmt(stats.std_error)}")
    print(f"failure_rate: {_fmt(stats.failure_rate)}")
    if args.out:
        _write_json(args.out, stats_to_dict(stats))
    if args.hist:
        write_histogram_csv(stats, args.hist)
    return 0


def _cmd_scenario(args) -> int:
    sizes = parse_scenario(args.spec)
    profile = chains_profile(sizes)
    print(f"bidders: {sum(sizes)}")
    print(f"branches: {len(sizes)}")
    print(f"sizes: {'+'.join(map(str, sizes))}")
    if args.out:
        _write_json(args.out, profile_to_dict(profile))
    else:
        print(json.dumps(profile_to_dict(profile), sort_keys=True))
    return 0


def _cmd_dsic(args) -> int:
    if args.counterexample:
        report = dataclasses.asdict(ropt_counterexample())
        for key, val in report.items():
            print(f"{key}: {val if isinstance(val, str) else _fmt(val)}")
        if args.out:
            _write_json(args.out, report)
        return 0
    if not args.net or not args.dist or not args.reserve:
        raise ConfigError("dsic needs --net, --dist and --reserve (or --counterexample)")
    d = parse_distribution(args.dist)
    policy = parse_policy(args.reserve)
    template = _load_template(args.net, args.rho, args.seed)
    if not args.net.endswith(".json"):
        # templates carry no true values; draw one truthful replicate
        template = draw_replicate(template, d, args.seed, 0)
    reports = check_dsic(template, d, policy, DeviationGrid(points=args.grid))
    for rep in reports:
        print(f"agent {rep.agent}: best_gain {_fmt(rep.best_gain)}")
    worst = max(reports, key=lambda rep: rep.best_gain, default=None)
    if worst is None:
        print("no bidder hears of the sale")
    elif worst.best_gain > 1e-9:
        print(
            f"profitable deviation: agent {worst.agent} bids {_fmt(worst.best_bid)} "
            f"reporting {sorted(worst.best_report)} for +{_fmt(worst.best_gain)}"
        )
    else:
        print("no profitable deviation found")
    if args.out:
        _write_json(args.out, {"reports": [report_to_dict(rep) for rep in reports]})
    return 0


def _cmd_ratio(args) -> int:
    print(_fmt(ratio_lower_bound(args.rho, args.kmin)))
    return 0


def _cmd_ingest(args) -> int:
    network = load_edge_list(_require_file(args.net))
    degrees, counts = np.unique(np.diff(network.indptr), return_counts=True)
    print(f"nodes: {network.node_count()}")
    print(f"edges: {network.edge_count()}")
    print(f"max_degree: {degrees[-1] if degrees.size else 0}")
    payload = {
        "nodes": network.node_count(),
        "edges": network.edge_count(),
        "degrees": {str(deg): count for deg, count in zip(degrees.tolist(), counts.tolist())},
    }
    if args.rho is not None:
        seller = pick_seller(network, args.rho, args.seed)
        print(f"seller: {seller}")
        payload["seller"] = seller
    if args.out:
        _write_json(args.out, payload)
    return 0


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netauction",
        description="Diffusion auctions with reserve prices on social networks.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__} tables {reference_checksum()}",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("auction", help="run one auction on a profile JSON")
    p.add_argument("--profile", required=True, help="action profile JSON")
    p.add_argument("--r", type=float, default=None, help="explicit reserve price")
    p.add_argument("--reserve", default="none", help="reserve policy config")
    p.add_argument("--dist", default="uniform:vbar=100", help="value distribution config")
    p.add_argument("--out", default=None, help="write the outcome JSON here")
    p.set_defaults(func=_cmd_auction)

    p = sub.add_parser("reserve", help="resolve a reserve policy to a price")
    p.add_argument("--dist", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--sizes", default=None, help="branch sizes a,b,c (ropt only)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_reserve)

    p = sub.add_parser("revenue", help="analytic expected revenue")
    p.add_argument("--sizes", required=True, help="branch sizes a,b,c")
    p.add_argument("--dist", required=True)
    p.add_argument("--r", type=float, required=True, help="reserve price")
    p.add_argument("--method", choices=("auto", "closed", "quadrature"), default="auto")
    p.add_argument("--sweep", default=None, help="start:stop:count reserve sweep to CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_revenue)

    p = sub.add_parser("simulate", help="Monte Carlo revenue estimate")
    p.add_argument("--net", required=True, help="scenario spec, profile JSON, or edge list")
    p.add_argument("--dist", required=True)
    p.add_argument("--reserve", required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--rho", type=int, default=None, help="seller degree for edge lists")
    p.add_argument("--out", default=None, help="stats JSON")
    p.add_argument("--hist", default=None, help="histogram CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("scenario", help="materialise a scenario as a profile JSON")
    p.add_argument("--spec", required=True, help="mer:n=9,pct=30 | md:n=9,depth=4 | symmetry:sizes=3+3")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("dsic", help="exhaustive deviation search")
    p.add_argument("--net", default=None, help="profile JSON (bids = true values) or scenario spec")
    p.add_argument("--dist", default=None)
    p.add_argument("--reserve", default=None)
    p.add_argument("--grid", type=int, default=21, help="bid grid points")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--rho", type=int, default=None)
    p.add_argument("--counterexample", action="store_true",
                   help="report the profitable deviation under the global-optimum reserve")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dsic)

    p = sub.add_parser("ratio", help="revenue guarantee 1 - 1/(rho*kmin - kmin + 1)")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--kmin", type=int, required=True)
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("ingest", help="edge-list census and seller selection")
    p.add_argument("--net", required=True)
    p.add_argument("--rho", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ingest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NetAuctionError, OSError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
