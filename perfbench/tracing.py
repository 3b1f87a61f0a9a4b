"""Spans around every public function of the program's modules.

Modules bind imported names at import time (``simulation`` holds its own
``build_pot``), so a function is replaced at every module attribute that
holds it, and the distribution classes' ``quantile``/``cdf``/``pdf`` are
replaced on each class. ``Tracer.restore`` puts every original object back.

A span is (name, start, end, parent span, op id); spans are kept in flat
arrays while the run lasts and written out once at the end.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("graphs", "distributions", "simulation", "mechanism", "incentives", "reserve", "revenue", "cli")
DIST_CLASSES = ("Uniform", "TruncatedNormal", "TruncatedExponential")
DIST_METHODS = ("quantile", "cdf", "pdf")

RAISED = 1
OUTER = 2  # no enclosing span of the same layer


def _extra(name, args, kwargs, result):
    """Work measured on the way out of a call."""
    if name == "distributions.quantile":
        return float(np.size(args[1] if len(args) > 1 else kwargs["p"]))
    if name == "graphs.build_graph":
        return float(len(result.reachable) + 1)
    if name == "simulation.monte_carlo":
        return float(result.runs)
    if name == "incentives.check_dsic":
        return float(sum(r.deviations_tested for r in result))
    return 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("b")
        self.extra = array("d")
        self.current_op = -1
        self._stack = [-1]
        self._depth = {layer: 0 for layer in LAYERS}
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        code = self.name_id.setdefault(name, len(self.names))
        if code == len(self.names):
            self.names.append(name)
        tr = self

        def traced(*args, **kwargs):
            idx = len(tr.name)
            tr.name.append(code)
            tr.parent.append(tr._stack[-1])
            tr.op.append(tr.current_op)
            tr.flags.append(OUTER if tr._depth[layer] == 0 else 0)
            tr.extra.append(0.0)
            tr.end.append(0.0)
            tr._stack.append(idx)
            tr._depth[layer] += 1
            t0 = perf_counter()
            tr.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.flags[idx] |= RAISED
                raise
            else:
                tr.extra[idx] = _extra(name, args, kwargs, result)
                return result
            finally:
                tr.end[idx] = perf_counter()
                tr._depth[layer] -= 1
                tr._stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def install(self):
        """Wrap every public function of every layer at every binding."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"netauction.{layer}"]
            public = getattr(module, "__all__", ["main"])
            for attr in public:
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        holders = [m for n, m in sys.modules.items() if n == "netauction" or n.startswith("netauction.")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, hit[1])
        dists = sys.modules["netauction.distributions"]
        for cls_name in DIST_CLASSES:
            cls = getattr(dists, cls_name)
            for method in DIST_METHODS:
                fn = cls.__dict__[method]
                self._patches.append((cls, method, fn))
                setattr(cls, method, self._wrap(f"distributions.{method}", fn))

    def restore(self):
        for holder, attr, value in reversed(self._patches):
            setattr(holder, attr, value)
        self._patches.clear()

    def patched(self):
        """(holder, attribute, original) for every replaced binding."""
        return list(self._patches)

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "flags": np.frombuffer(self.flags, dtype=np.int8).copy(),
            "extra": np.frombuffer(self.extra, dtype=np.float64).copy(),
        }

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def summarize(tracer: Tracer, passes: int) -> dict:
    """Per-pass totals by function and by layer.

    ``<layer>.<fn>.s`` sums the wall time of each call; ``.self_s`` subtracts
    the time covered by the call's child spans. ``<layer>.s`` counts only the
    outermost span of the layer, so nested calls are not counted twice.
    """
    a = tracer.arrays()
    names = tracer.names
    n = len(a["name"])
    dur = a["end"] - a["start"]
    child = np.zeros(n)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    own = dur - child
    layers = sorted(set(LAYERS) | {nm.split(".", 1)[0] for nm in names})
    layer_code = np.array([layers.index(nm.split(".", 1)[0]) for nm in names] or [0])
    layer_of = layer_code[a["name"]] if n else np.zeros(0, dtype=int)
    outer = (a["flags"] & OUTER) != 0
    raised = (a["flags"] & RAISED) != 0

    # which spans run inside a given ancestor; parents precede children
    code = tracer.name_id
    under = {key: np.zeros(n, dtype=bool) for key in ("incentives.check_dsic", "revenue.expected_total_revenue")}
    parent = a["parent"].tolist()
    name_list = a["name"].tolist()
    for key, flag in under.items():
        target = code.get(key, -2)
        for i in range(n):
            p = parent[i]
            if p >= 0 and (flag[p] or name_list[p] == target):
                flag[i] = True

    out: dict[str, float] = {}
    per = float(passes)
    for li, name in enumerate(layers):
        sel = layer_of == li
        out[f"{name}.calls"] = float(np.count_nonzero(sel)) / per
        out[f"{name}.s"] = float(dur[sel & outer].sum()) / per
        out[f"{name}.self_s"] = float(own[sel].sum()) / per
    for i, nm in enumerate(names):
        sel = a["name"] == i
        out[f"{nm}.calls"] = float(np.count_nonzero(sel)) / per
        out[f"{nm}.s"] = float(dur[sel].sum()) / per
        out[f"{nm}.self_s"] = float(own[sel].sum()) / per
        out[f"{nm}.failed"] = float(np.count_nonzero(sel & raised)) / per

    def total(name, field="calls"):
        return out.get(f"{name}.{field}", 0.0)

    def count_where(name, mask):
        i = code.get(name)
        return 0.0 if i is None else float(np.count_nonzero((a["name"] == i) & mask)) / per

    def extra_sum(name):
        i = code.get(name)
        return 0.0 if i is None else float(a["extra"][a["name"] == i].sum()) / per

    def ratio(num, den):
        return num / den if den else 0.0

    out["distributions.quantile.values"] = extra_sum("distributions.quantile")
    out["graphs.nodes_per_build"] = ratio(extra_sum("graphs.build_graph"), total("graphs.build_graph"))
    out["simulation.replicates"] = extra_sum("simulation.monte_carlo")
    out["simulation.quantile_values_per_replicate"] = ratio(
        out["distributions.quantile.values"], out["simulation.replicates"]
    )
    out["incentives.deviations_tested"] = extra_sum("incentives.check_dsic")
    out["incentives.graph_builds_per_deviation"] = ratio(
        count_where("graphs.build_graph", under["incentives.check_dsic"]), out["incentives.deviations_tested"]
    )
    out["revenue.cdf_evals_per_call"] = ratio(
        count_where("distributions.cdf", under["revenue.expected_total_revenue"]),
        total("revenue.expected_total_revenue"),
    )
    out["reserve.failed"] = float(np.count_nonzero((layer_of == layers.index("reserve")) & outer & raised)) / per
    out["spans"] = float(n) / per
    return out
