"""Seeded inputs for the benchmark workloads; no data files are read.

Every generator takes a numpy Generator derived from the benchmark seed, so
one seed always yields the same inputs. None of this imports netauction:
the program only ever sees the files and values produced here.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from reference import network_branches, pick_seller, shape

NETWORK_NODES = 10_000
DENSE_EDGES = 30_000
SPARSE_RING = 800
SPARSE_SIGMA = 1.0  # log-sd of the sparse network's branch sizes
RHO = 4  # seller degree the CLI is asked for


def dense_edges(rng, nodes: int = NETWORK_NODES, edges: int = DENSE_EDGES):
    """G(n, M): the first M distinct pairs of a uniform pair stream."""
    want = []
    seen = set()
    while len(want) < edges:
        pairs = rng.integers(0, nodes, size=(2 * edges, 2))
        for u, v in pairs.tolist():
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key not in seen:
                seen.add(key)
                want.append(key)
                if len(want) == edges:
                    break
    return nodes, want


def sparse_branch_sizes(nodes: int = NETWORK_NODES, ring: int = SPARSE_RING):
    """Branch sizes of the sparse network: the midpoint quantiles of a
    lognormal with mean (nodes-1)/branches, the largest absorbing rounding
    so the sizes sum to nodes - 1. Fixed, so every seed prices the same
    branch profile and differs only in layout."""
    m = ring + 1
    mean = (nodes - 1) / m
    mu = math.log(mean) - 0.5 * SPARSE_SIGMA**2
    inv = NormalDist().inv_cdf
    sizes = [max(1, round(math.exp(mu + SPARSE_SIGMA * inv((i + 0.5) / m)))) for i in range(m)]
    sizes[-1] += nodes - 1 - sum(sizes)
    return sizes


def sparse_edges(rng, nodes: int = NETWORK_NODES, ring: int = SPARSE_RING):
    """A ring of `ring` nodes through the seller (node 0), which also heads
    two tree branches; every other ring node heads one. Random chords pair
    up ring nodes so the core has short cycles, as social networks do, and
    stays biconnected, so every ring node heads its own branch. Each branch
    grows as a random recursive tree to its size from sparse_branch_sizes.
    No node but the seller ends with degree RHO, so the CLI's seller pick
    is forced."""
    sizes = [int(k) for k in rng.permutation(sparse_branch_sizes(nodes, ring))]
    edges = [(i, (i + 1) % ring) for i in range(ring)]
    degree = [2] * ring
    heads = list(range(1, ring))
    for _ in range(2):
        edges.append((0, len(degree)))
        degree[0] += 1
        heads.append(len(degree))
        degree.append(1)
    # a chord lifts a ring node to degree RHO - 1, after which it can only
    # grow by two children at once, which a branch of size 2 cannot
    chorded = [h for h, size in zip(heads[: ring - 1], sizes) if size != 2]
    chorded = [chorded[i] for i in rng.permutation(len(chorded))]
    for u, v in zip(chorded[0::2], chorded[1::2]):
        if abs(u - v) == 1:
            continue  # already linked by the ring
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
    for head, size in zip(heads, sizes):
        members = [head]
        remaining = size - 1
        while remaining:
            j = members[int(rng.integers(len(members)))]
            grow = 2 if degree[j] == RHO - 1 else 1
            if grow > remaining:
                continue
            for _ in range(grow):
                child = len(degree)
                edges.append((j, child))
                degree[j] += 1
                degree.append(1)
                members.append(child)
            remaining -= grow
    assert [i for i, d in enumerate(degree) if d == RHO] == [0]
    return len(degree), edges


def write_edge_list(path, rng, nodes: int, edges) -> None:
    """Write `u v` lines under shuffled labels and in shuffled order."""
    label = [f"v{i}" for i in rng.permutation(nodes)]
    pairs = np.asarray(edges)[rng.permutation(len(edges))].tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# seeded synthetic network\n")
        fh.writelines(f"{label[u]} {label[v]}\n" for u, v in pairs)


def read_adjacency(path) -> dict:
    adjacency: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            u, v = line.split()
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
    return adjacency


def describe_network(path, cli_seed: int) -> dict:
    """The seller and branches the program should find in an edge list."""
    adjacency = read_adjacency(path)
    seller = pick_seller(adjacency, RHO, cli_seed)
    branches = network_branches(adjacency, seller)
    edges = sum(len(nb) for nb in adjacency.values()) // 2
    return {
        "seller": seller,
        "branches": branches,
        "shape": shape([len(b) for b in branches.values()], len(adjacency), edges),
    }


CRITERION6_SEED = 606  # the acceptance gate's seed for these profiles


def criterion6_profiles(rng, count: int = 50, n_max: int = 7, vbar: float = 100.0):
    """`count` profiles of at most n_max bidders with coin-flip links, so
    some bidders are usually unreachable: the acceptance gate's generator.

    The links come from the gate's own seed, so every benchmark seed
    searches the same deviation space, whose cost varies several-fold
    between draws of 50; `rng` redraws every bid. Returns a list of
    (seller reports, {bidder: (bid, reports)}).
    """
    links = np.random.default_rng(CRITERION6_SEED)
    out = []
    for _ in range(count):
        n = int(links.integers(1, n_max + 1))
        ids = [f"x{i}" for i in range(1, n + 1)]
        p = min(1.0, 1.8 / max(1, n))
        seller_out = {v for v in ids if links.random() < max(p, 0.3)}
        bidders = {}
        for i in ids:
            reports = {v for v in ids if v != i and links.random() < p}
            links.uniform(0.0, vbar)  # the gate's bid, kept to stay in step
            bidders[i] = (float(rng.uniform(0.0, vbar)), reports)
        out.append((seller_out, bidders))
    return out


def reserve_grid(rng, points: int, vbar: float = 100.0):
    """`points` reserves on [0, vbar), one per equal cell at a seeded offset."""
    return ((np.arange(points) + rng.random()) * (vbar / points)).tolist()
