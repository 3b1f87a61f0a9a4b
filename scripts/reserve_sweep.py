"""Sweep the reserve price for one branch profile and mark the landmarks.

Writes a (sizes, r, revenue) CSV for plotting and prints where the sweep
peaks relative to gamma(kmin), gamma(kmax), and the profile-tuned optimum.

    python3 scripts/reserve_sweep.py --sizes 3,6 --dist uniform:vbar=100 \
        --points 201 --out sweep.csv
"""

import argparse

import numpy as np

from netauction.distributions import parse_distribution
from netauction.graphs import SubtreeProfile
from netauction.reserve import gamma_general, global_optimal_reserve
from netauction.revenue import expected_total_revenue, write_revenue_csv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="3,6", help="branch sizes, comma separated")
    parser.add_argument("--dist", default="uniform:vbar=100")
    parser.add_argument("--points", type=int, default=201)
    parser.add_argument("--out", default="sweep.csv")
    args = parser.parse_args(argv)

    profile = SubtreeProfile.from_sizes(int(k) for k in args.sizes.split(","))
    d = parse_distribution(args.dist)
    grid = np.linspace(0.0, d.vbar, args.points)
    revenues = write_revenue_csv(args.out, profile, d, grid)
    best = int(np.argmax(revenues))
    r_opt = global_optimal_reserve(profile, d)
    print(f"sizes: {'+'.join(str(k) for k in profile.sizes)}  ({args.dist})")
    print(f"grid peak:    r={grid[best]:.4f}  revenue={revenues[best]:.6f}")
    print(f"tuned optimum r={r_opt:.4f}  revenue={expected_total_revenue(profile, d, r_opt):.6f}")
    for label, k in (("gamma(kmin)", min(profile.sizes)), ("gamma(kmax)", max(profile.sizes))):
        g = gamma_general(k, d)
        print(f"{label}:  r={g:.4f}  revenue={expected_total_revenue(profile, d, g):.6f}")
    print(f"wrote {args.points} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
