"""Re-run the two recorded Monte Carlo studies and print all three columns.

For every cell of the reference tables this simulates the auction, then
prints simulated mean, the recorded target, and the analytic expectation,
so drift in any one of the three is visible at a glance.

    python3 scripts/replicate_tables.py --runs 1000000
"""

import argparse
import time

from netauction.distributions import (
    TruncatedExponential,
    TruncatedNormal,
    Uniform,
)
from netauction.golden import REFERENCE_REVENUES
from netauction.graphs import SubtreeProfile
from netauction.reserve import ReservePolicy
from netauction.revenue import expected_total_revenue
from netauction.simulation import chains_profile, monte_carlo

DISTS = {
    "uniform": Uniform(vbar=100.0),
    "normal": TruncatedNormal(mu=50.0, sigma=16.67, vbar=100.0),
    "exp": TruncatedExponential(lam=0.08, vbar=100.0),
}


def _policy(name: str, key: str) -> ReservePolicy:
    if key == "none":
        return ReservePolicy(kind="none")
    k = int(key[1:])
    if name == "uniform":
        return ReservePolicy(kind="uniform_gamma", kmin=k)
    return ReservePolicy(kind="general_gamma", kmin=k)


def _cell(sizes, name, key, runs, seed):
    stats = monte_carlo(chains_profile(sizes), DISTS[name], _policy(name, key), runs, master_seed=seed)
    analytic = expected_total_revenue(SubtreeProfile.from_sizes(sizes), DISTS[name], stats.reserve)
    return stats, analytic


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=20260815)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    header = f"{'cell':>24} {'simulated':>10} {'recorded':>9} {'analytic':>9} {'3.5*SE':>7}"

    classic = REFERENCE_REVENUES["classic_3_6"]
    print(f"classic market, branches {classic['sizes']}, {args.runs} runs per cell")
    print(header)
    seed = args.seed
    for name in DISTS:
        for key, target in zip(classic["reserves"], classic[name]):
            stats, analytic = _cell(classic["sizes"], name, key, args.runs, seed)
            seed += 1
            print(
                f"{name + ' ' + key:>24} {stats.mean:10.4f} {target:9.4f}"
                f" {analytic:9.4f} {3.5 * stats.std_error:7.4f}"
            )

    symmetry = REFERENCE_REVENUES["symmetry_6"]
    print(f"\nsix-bidder symmetry study, reserve {symmetry['reserve']}")
    print(header)
    for name in DISTS:
        for sizes, target in zip(symmetry["structures"], symmetry[name]):
            stats, analytic = _cell(sizes, name, symmetry["reserve"], args.runs, seed)
            seed += 1
            label = f"{name} {'+'.join(str(k) for k in sizes)}"
            print(
                f"{label:>24} {stats.mean:10.4f} {target:9.4f}"
                f" {analytic:9.4f} {3.5 * stats.std_error:7.4f}"
            )

    print(f"\n{seed - args.seed} cells in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
