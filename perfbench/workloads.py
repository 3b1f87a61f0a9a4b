"""The four workloads: what each operation calls, how many items it
completes, and how its output is checked.

A workload draws its inputs from the benchmark seed without the program:
fixed ones once (the networks, the dsic link structures) and the rest anew
for every pass (Monte Carlo seeds, bids, node labels, reserve grids, the
sweep's prior), so no pass repeats the calls of another and a cache kept
across calls gains only what it would gain in a fresh process. Pass ``v``
draws from ``(seed, workload, v + 1)``; the traced pass is ``TRACE_PASS``.

``ops(pkg, outdir)`` builds the operations for one copy of the package
(the program under test or the frozen v0), so both run on the same inputs.
An operation's ``bind(v)`` makes the program objects that only carry input
(distributions, profiles, policies) and returns the call for pass ``v``;
only that call is timed. ``collect`` runs right after it, untimed, to read
what the call wrote; ``check(out, v)`` runs after the timed loop and
returns None or the reason the output is wrong, and ``check_all``, where
set, does the same for all of an operation's outputs that passed at once.
``allowed`` names the exceptions an operation is known to raise at the
first commit.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from functools import cache

import numpy as np

import inputs
import reference as ref

NORMAL_CFG = "normal:mu=50,sigma=16.67,vbar=100"
PRIORS = {"uniform": ref.UNIFORM, "normal": ref.NORMAL, "exp": ref.EXP}
TRACE_PASS = -1
SWEEP_MU_JITTER = 2.0  # the sweep's prior mean is 50 +- this, new every pass

# Sizes of the full benchmark and of the self-test's tiny run.
SIZES = {
    "full": {
        "tables_runs": 150_000,
        "net_nodes": inputs.NETWORK_NODES,
        "net_runs": 300,
        "dsic_profiles": 30,
        "sweep_points": 11,
        "sweep_points_large": 2,
    },
    "tiny": {
        "tables_runs": 2_000,
        "net_nodes": 600,
        "net_runs": 100,
        "dsic_profiles": 3,
        "sweep_points": 3,
        "sweep_points_large": 2,
    },
}


class Op:
    __slots__ = ("label", "items", "bind", "check", "collect", "allowed", "check_all")

    def __init__(self, label, items, bind, check, collect=None, allowed=(), check_all=None):
        self.label = label
        self.items = items
        self.bind = bind
        self.check = check
        self.collect = collect or (lambda raw: raw)
        self.allowed = allowed
        self.check_all = check_all


class Workload:
    index = 0
    min_pairs = 2  # one round: a pair in each order
    baseline = None  # the v0 package, for checks against the first commit's values

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.cfg = SIZES[size]
        self.workdir = workdir
        self.inputs = cache(self._inputs)

    def rng(self, v=None):
        """The fixed inputs' generator, or pass v's."""
        key = [self.seed, self.index] if v is None else [self.seed, self.index, v + 1]
        return np.random.default_rng(key)

    def _inputs(self, v):
        raise NotImplementedError

    def ops(self, pkg, outdir) -> list[Op]:
        raise NotImplementedError

    def shapes(self) -> dict:
        raise NotImplementedError


def _program_dist(pkg, dist):
    if dist[0] == "uniform":
        return pkg.distributions.Uniform(vbar=dist[1])
    if dist[0] == "normal":
        return pkg.distributions.TruncatedNormal(mu=dist[1], sigma=dist[2], vbar=dist[3])
    return pkg.distributions.TruncatedExponential(lam=dist[1], vbar=dist[2])


def _reserve_ok(prior: str, key: str, got: float) -> bool:
    if key == "none":
        return got == 0.0
    k = int(key[1:])
    if prior == "uniform":
        want = ref.VBAR * (k + 1) ** (-1.0 / k)
    else:
        want = ref.PINNED_GAMMA[(prior, k)]
    return ref.close(got, want, 1e-9)


def _stats_dict(stats) -> dict:
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


def _table_cells(golden):
    """(prior, sizes, reserve key, recorded revenue) of the 21 cells."""
    classic = golden.REFERENCE_REVENUES["classic_3_6"]
    symmetry = golden.REFERENCE_REVENUES["symmetry_6"]
    cells = []
    for prior in PRIORS:
        for key, want in zip(classic["reserves"], classic[prior]):
            cells.append((prior, tuple(classic["sizes"]), key, want))
    for prior in PRIORS:
        for sizes, want in zip(symmetry["structures"], symmetry[prior]):
            cells.append((prior, tuple(sizes), symmetry["reserve"], want))
    return cells


class Tables(Workload):
    """The 21 recorded cells, each the replicate_tables.py sequence:
    monte_carlo, then expected_total_revenue at the resolved reserve. Every
    pass gives every cell a new master seed."""

    index = 0
    CELLS = 21

    def _inputs(self, v):
        return [int(s) for s in self.rng(v).integers(0, 2**31, size=self.CELLS)]

    def shapes(self):
        return {"runs_per_cell": self.cfg["tables_runs"], "cells": self.CELLS, "master_seeds_pass0": self.inputs(0)}

    def ops(self, pkg, outdir):
        runs = self.cfg["tables_runs"]
        tol = {"uniform": 0.15, "normal": 0.30, "exp": 0.30}
        dists = {prior: _program_dist(pkg, dist) for prior, dist in PRIORS.items()}
        cells = _table_cells(pkg.golden)
        assert len(cells) == self.CELLS

        def make(c, prior, sizes, key, want):
            d = dists[prior]
            if key == "none":
                policy = pkg.reserve.ReservePolicy(kind="none")
            else:
                kind = "uniform_gamma" if prior == "uniform" else "general_gamma"
                policy = pkg.reserve.ReservePolicy(kind=kind, kmin=int(key[1:]))

            def bind(v):
                master_seed = self.inputs(v)[c]

                def call():
                    stats = pkg.simulation.monte_carlo(
                        pkg.simulation.chains_profile(sizes), d, policy, runs, master_seed=master_seed
                    )
                    profile = pkg.graphs.SubtreeProfile.from_sizes(sizes)
                    analytic = pkg.revenue.expected_total_revenue(profile, d, stats.reserve)
                    return stats, analytic

                return call

            @cache
            def expected(v, reserve_price):
                cols, at = [], 0
                for k in sizes:
                    cols.append(list(range(at, at + k)))
                    at += k
                mc = ref.monte_carlo(cols, at, PRIORS[prior], reserve_price, runs, self.inputs(v)[c])
                return ref.stats_digest(mc), ref.expected_revenue(list(sizes), PRIORS[prior], reserve_price)

            def check(out, v):
                stats, analytic = out
                if not _reserve_ok(prior, key, stats.reserve):
                    return f"reserve {stats.reserve!r}"
                digest, want_analytic = expected(v, stats.reserve)
                if ref.stats_digest(_stats_dict(stats)) != digest:
                    return "stats differ from the reference replicates"
                if abs(stats.mean - want) > max(tol[prior], 3.5 * stats.std_error):
                    return f"mean {stats.mean:.4f} vs recorded {want}"
                if not ref.close(analytic, want_analytic, 1e-6):
                    return f"analytic {analytic!r} vs {want_analytic!r}"
                return None

            label = f"{prior} {'+'.join(map(str, sizes))} {key}"
            return Op(label, runs, bind, check)

        return [make(c, *cell) for c, cell in enumerate(cells)]


class Edgelist(Workload):
    """`netauction simulate` in-process on two seeded edge lists. The two
    networks are fixed; every pass writes them under new node labels and
    line order into new files and passes a new --seed."""

    index = 1
    KINDS = ("dense", "sparse")
    # two calls a pass, each varying by about 12% against its v0 pair on
    # a shared host: six pairs left a run-to-run spread of 0.085-0.095
    min_pairs = 8

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        nodes = self.cfg["net_nodes"]
        rng = self.rng()
        ring = max(8, nodes * inputs.SPARSE_RING // inputs.NETWORK_NODES)
        self.networks = {
            "dense": inputs.dense_edges(rng, nodes, 3 * nodes),
            "sparse": inputs.sparse_edges(rng, nodes, ring),
        }
        self.networks = {k: (n, np.asarray(e, dtype=np.int32)) for k, (n, e) in self.networks.items()}
        self.reference = cache(self._reference)

    def _inputs(self, v):
        rng = self.rng(v)
        out = {}
        for kind, (nodes, edges) in self.networks.items():
            path = os.path.join(self.workdir, f"{kind}-pass{v + 1}.txt")
            inputs.write_edge_list(path, rng, nodes, edges)
            out[kind] = (path, int(rng.integers(0, 2**31)))
        return out

    def _reference(self, kind, v):
        path, cli_seed = self.inputs(v)[kind]
        return inputs.describe_network(path, cli_seed)

    def shapes(self):
        info = {"runs_per_call": self.cfg["net_runs"]}
        for kind in self.KINDS:
            info[kind] = dict(self.reference(kind, 0)["shape"], cli_seed_pass0=self.inputs(0)[kind][1])
        return info

    def ops(self, pkg, outdir):
        return [self._simulate_op(pkg, kind, os.path.join(outdir, f"{kind}.json")) for kind in self.KINDS]

    def _simulate_op(self, pkg, kind, out_path):
        runs = self.cfg["net_runs"]

        def bind(v):
            path, cli_seed = self.inputs(v)[kind]
            argv = [
                "simulate", "--net", path, "--dist", NORMAL_CFG, "--reserve", "ggamma:k=2",
                "--rho", str(inputs.RHO), "--runs", str(runs), "--seed", str(cli_seed), "--out", out_path,
            ]

            def call():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = pkg.cli.main(argv)
                return rc, buf.getvalue()

            return call

        def collect(raw):
            rc, text = raw
            if not os.path.exists(out_path):
                return rc, text, None
            with open(out_path, encoding="utf-8") as fh:
                stats = json.load(fh)
            os.remove(out_path)
            return rc, text, stats

        @cache
        def expected(v, reserve_price):
            branches = self.reference(kind, v)["branches"]
            n, cols = ref.branch_columns(branches)
            mc = ref.monte_carlo(cols, n, ref.NORMAL, reserve_price, runs, self.inputs(v)[kind][1])
            sizes = [len(b) for b in branches.values()]
            return ref.stats_digest(mc), ref.expected_revenue(sizes, ref.NORMAL, reserve_price)

        def check(out, v):
            rc, text, stats = out
            if rc != 0 or stats is None:
                return f"exit code {rc}"
            if f"mean: {stats['mean']:.6f}" not in text.splitlines():
                return "printed mean disagrees with --out"
            if not ref.close(stats["reserve"], ref.PINNED_GAMMA[("normal", 2)], 1e-9):
                return f"reserve {stats['reserve']!r}"
            if ref.stats_digest(stats) != expected(v, stats["reserve"])[0]:
                return "stats differ from the reference replicates"
            return None

        def check_all(done):
            """The criterion-11 rule, |MC mean - analytic| <= 3.5 SE, once
            per run on every pass pooled: a run checks up to a dozen calls,
            and one test per call would fail by chance about once in a few
            hundred tests on this skewed revenue."""
            gap = var = 0.0
            for (_, _, stats), v in done:
                gap += stats["mean"] - expected(v, stats["reserve"])[1]
                var += stats["std_error"] ** 2
            z = gap / math.sqrt(var) if var else 0.0
            return None if abs(z) <= 3.5 else f"pooled mean off the analytic revenue by {z:.2f} SE"

        return Op(kind, runs, bind, check, collect, check_all=check_all)


class Dsic(Workload):
    """Criterion 6: every bidder's best response under four deployable
    policies on seeded sparse profiles, then the global-optimum
    counterexample, where agent c must find a profitable deviation. The
    link structures are fixed; every pass draws new bids."""

    index = 2

    def _inputs(self, v):
        return inputs.criterion6_profiles(self.rng(v), self.cfg["dsic_profiles"])

    def shapes(self):
        drawn = self.inputs(0)
        return {"profiles": len(drawn), "bidders": sum(len(b) for _, b in drawn), "grid_points": 5}

    def ops(self, pkg, outdir):
        uni = pkg.distributions.Uniform(vbar=100.0)
        norm = _program_dist(pkg, ref.NORMAL)
        policies = [
            ("none", pkg.reserve.ReservePolicy(kind="none"), uni),
            ("fixed", pkg.reserve.ReservePolicy(kind="fixed", r=37.5), uni),
            ("ugamma", pkg.reserve.ReservePolicy(kind="uniform_gamma", kmin=2), uni),
            ("ggamma", pkg.reserve.ReservePolicy(kind="general_gamma", kmin=2), norm),
        ]
        grid = pkg.incentives.DeviationGrid(points=5)
        ops = []
        for j, (seller_out, bidders) in enumerate(self.inputs(0)):
            # the search certifies every bidder, unless nobody hears of the sale
            certified = len(bidders) if seller_out else 0
            for name, policy, d in policies:
                ops.append(self._dsic_op(pkg, j, name, policy, d, grid, certified))

        ce_dist = pkg.distributions.Uniform(vbar=1.0)
        ce_policy = pkg.reserve.ReservePolicy(kind="global_opt")

        def ce_bind(v):
            return lambda: pkg.incentives.check_dsic(pkg.incentives.counterexample_instance(), ce_dist, ce_policy)

        def ce_check(reports, v):
            gain = {r.agent: r.best_gain for r in reports}
            return None if gain.get("c", 0.0) > 0.0 else "agent c found no profitable deviation"

        ops.append(Op("counterexample", 6, ce_bind, ce_check))
        return ops

    def _dsic_op(self, pkg, j, name, policy, d, grid, certified):
        def bind(v):
            seller_out, bidders = self.inputs(v)[j]
            agents = [pkg.graphs.AgentAction("s", 0.0, frozenset(seller_out))]
            agents += [pkg.graphs.AgentAction(i, bid, frozenset(out)) for i, (bid, out) in sorted(bidders.items())]
            truth = pkg.graphs.ActionProfile("s", tuple(agents))
            return lambda: pkg.incentives.check_dsic(truth, d, policy, grid)

        def check(reports, v):
            if len(reports) != certified:
                return f"{len(reports)} reports, {certified} expected"
            worst = max((r.best_gain for r in reports), default=0.0)
            return None if worst <= 1e-9 else f"profitable deviation worth {worst!r}"

        return Op(f"profile {j} {name}", certified, bind, check)


class Sweep(Workload):
    """The reserve_sweep.py sequence under a normal prior: the revenue CSV
    over a reserve grid, the revenue at each grid point again, the
    profile-tuned optimum, gamma(kmin) and gamma(kmax). Every pass draws new
    grid offsets and a new prior mean, so no solve repeats."""

    index = 3

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        nodes = self.cfg["net_nodes"]
        self.large = inputs.sparse_branch_sizes(nodes, max(8, nodes * inputs.SPARSE_RING // inputs.NETWORK_NODES))
        self.profiles = [(3, 6), (1, 5), (2, 4), (3, 3), tuple(sorted(self.large, reverse=True))]

    def _inputs(self, v):
        rng = self.rng(v)
        mu = ref.NORMAL[1] + float(rng.uniform(-SWEEP_MU_JITTER, SWEEP_MU_JITTER))
        last = len(self.profiles) - 1
        grids = [
            inputs.reserve_grid(rng, self.cfg["sweep_points_large" if j == last else "sweep_points"])
            for j in range(len(self.profiles))
        ]
        return {"prior": ("normal", mu, ref.NORMAL[2], ref.VBAR), "grids": grids}

    def shapes(self):
        return {"large_profile": ref.shape(self.large), "pass0": self.inputs(0)}

    def ops(self, pkg, outdir):
        dists = {}

        def dist(v):
            if v not in dists:
                dists.clear()
                dists[v] = _program_dist(pkg, self.inputs(v)["prior"])
            return dists[v]

        ops = []
        for j, sizes in enumerate(self.profiles):
            label = "large" if j == len(self.profiles) - 1 else "+".join(map(str, sizes))
            ops.extend(self._sweep_ops(pkg, j, label, sizes, dist, os.path.join(outdir, f"sweep{j}.csv")))
        return ops

    def _sweep_ops(self, pkg, j, label, sizes, dist, path):
        profile = pkg.graphs.SubtreeProfile.from_sizes(sizes)
        revenue, reserve = pkg.revenue, pkg.reserve
        points = len(self.inputs(0)["grids"][j])
        # the known defect: no root for k >= 60 on this profile at v0
        allowed = ("SingularityError",) if label == "large" else ()

        def grid(v):
            return self.inputs(v)["grids"][j]

        def prior(v):
            return self.inputs(v)["prior"]

        @cache
        def grid_revenue(v):
            return [ref.expected_revenue(list(sizes), prior(v), r) for r in grid(v)]

        @cache
        def seed_revenue(v):
            """The first commit's revenue at each grid point. Revenues are
            held to these, not to the Gauss-Legendre reference, as criterion
            4 does: the adaptive Simpson rule is off the exact value by up to
            about 2e-6 relative at some points."""
            v0 = self.baseline
            profile0 = v0.graphs.SubtreeProfile.from_sizes(sizes)
            d0 = _program_dist(v0, prior(v))
            return [v0.revenue.expected_total_revenue(profile0, d0, r) for r in grid(v)]

        def csv_bind(v):
            d, g = dist(v), grid(v)
            return lambda: revenue.write_revenue_csv(path, profile, d, g)

        def csv_collect(_):
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            os.remove(path)
            return rows

        def csv_check(rows, v):
            if rows[:1] != [["sizes", "r", "revenue"]] or len(rows) != points + 1:
                return "malformed revenue CSV"
            for row, r, want in zip(rows[1:], grid(v), seed_revenue(v)):
                if float(row[1]) != r or not ref.close(float(row[2]), want, 1e-6):
                    return f"revenue at r={r!r}: {row[2]} vs {want!r}"
            return None

        def point_op(i):
            def bind(v):
                d, r = dist(v), grid(v)[i]
                return lambda: revenue.expected_total_revenue(profile, d, r)

            def check(got, v):
                want = seed_revenue(v)[i]
                return None if ref.close(got, want, 1e-6) else f"revenue {got!r} vs {want!r}"

            return Op(f"{label} revenue #{i}", 1, bind, check)

        def ropt_bind(v):
            d = dist(v)
            return lambda: reserve.global_optimal_reserve(profile, d)

        def ropt_check(r_opt, v):
            if not 0.0 < r_opt < ref.VBAR:
                return f"r_opt {r_opt!r} outside (0, vbar)"
            best = max(grid_revenue(v))
            got = ref.expected_revenue(list(sizes), prior(v), r_opt)
            return None if got >= best - 1e-6 * max(abs(best), 1.0) else f"revenue(r_opt)={got!r} below grid peak {best!r}"

        def gamma_op(k, allowed=()):
            def bind(v):
                d = dist(v)
                return lambda: reserve.gamma_general(k, d)

            def check(g, v):
                return None if ref.gamma_bracketed(prior(v), k, g) else f"gamma({k})={g!r} is not a root"

            return Op(f"{label} gamma(k={k})", 1, bind, check, allowed=allowed)

        return [
            Op(f"{label} csv", points, csv_bind, csv_check, csv_collect),
            *(point_op(i) for i in range(points)),
            Op(f"{label} r_opt", 1, ropt_bind, ropt_check, allowed=allowed),
            gamma_op(min(sizes)),
            gamma_op(max(sizes), allowed),
        ]


WORKLOADS = {"tables": Tables, "edgelist": Edgelist, "dsic": Dsic, "sweep": Sweep}
