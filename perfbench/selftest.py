"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that every workload prints every metric BENCHMARK.json names, with
its unit, untraced and traced; that a traced run puts every wrapped name
back; that two runs at one seed produce identical outputs and counts; and
that only the failures an operation is known for leave a run correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] not in ("s", "ratio")]


def tiny_run(workload, trace, seed=3):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(done.stderr)
    lines = done.stdout.strip().splitlines()
    report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
    return json.loads(lines[-1]), report


class MetricsTest(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, _ = tiny_run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[group]}
                    got = {k: m["unit"] for k, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], float)

    def test_same_seed_same_outputs_and_counts(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                (first, rep1), (second, rep2) = tiny_run(workload, 1), tiny_run(workload, 1)
                self.assertEqual(rep1["output_digest"], rep2["output_digest"])
                for key in COUNTS:
                    self.assertEqual(first["metrics"][key]["value"], second["metrics"][key]["value"], key)


class FailureTest(unittest.TestCase):
    """Only the failures an operation is known for leave a run correct, and
    a failed call never reads as faster than its v0 pair."""

    def setUp(self):
        sys.path.insert(0, str(HERE))
        import run
        import workloads

        self.run, self.Op = run, workloads.Op

    def op(self, allowed=()):
        return self.Op("op", 1, None, lambda out, v: None if out == "ok" else "wrong", allowed=allowed)

    def test_unexpected_failures_count(self):
        records = [[(0.1, "ok", None), (0.1, "bad", None), (0.1, None, KeyError("x")), (0.1, None, ValueError("y"))]]
        for allowed, want in (((), 3), (("ValueError",), 2), (("KeyError", "ValueError"), 1)):
            with self.subTest(allowed=allowed):
                verdicts, unexpected = self.run.judge([self.op(allowed)], records, range(4), {})
                self.assertEqual(verdicts, [[True, False, False, False]])
                self.assertEqual(unexpected, want)

    def test_pooled_check_fails_every_passing_output(self):
        records = [[(0.1, "ok", None), (0.1, "bad", None), (0.1, "ok", None)]]
        op = self.op()
        op.check_all = lambda done: None if len(done) < 2 else f"{len(done)} pooled"
        failures = {}
        verdicts, unexpected = self.run.judge([op], records, range(3), failures)
        self.assertEqual((verdicts, unexpected), ([[False, False, False]], 3))
        self.assertEqual(failures["wrong output, unexpected"]["op: 2 pooled"], 2)

    def test_fast_failure_is_charged_v0_time(self):
        ops = [self.op(), self.op()]
        records = [[(1.0, "ok", None)] * 3, [(1.0, "ok", None)] * 3]
        base = [[(1.0, "ok", None)] * 2, [(1.0, "ok", None)] * 2]
        ok = [[True] * 3, [True] * 3]
        self.assertEqual(self.run.relative(ops, records, base, ok), ([1.0, 1.0], [1.0, 1.0]))
        records[1] = [(1.0, "ok", None)] + [(1e-6, None, ValueError("fast"))] * 2
        goodput, p50 = self.run.relative(ops, records, base, [[True] * 3, [True, False, False]])
        self.assertEqual((goodput, p50), ([0.5, 0.5], [1.0, 1.0]))


class RestoreTest(unittest.TestCase):
    def test_traced_run_restores_every_name(self):
        sys.path.insert(0, str(HERE))
        import run

        run.import_program()
        import tracing
        import workloads  # noqa: F401  imports every module a run traces

        holders = [m for n, m in sys.modules.items() if n == "netauction" or n.startswith("netauction.")]
        dists = sys.modules["netauction.distributions"]
        holders += [getattr(dists, c) for c in tracing.DIST_CLASSES]
        before = {(id(h), k): v for h in holders for k, v in list(vars(h).items())}

        probe = tracing.Tracer()
        probe.install()
        self.assertTrue(any(h is sys.modules["netauction.simulation"] and a == "build_pot" for h, a, _ in probe.patched()))
        self.assertTrue(any(h is sys.modules["netauction.cli"] and a == "monte_carlo" for h, a, _ in probe.patched()))
        probe.restore()

        with contextlib.redirect_stdout(io.StringIO()):
            run.run_workload("dsic", 3, 0.0, 1, size="tiny")
        after = {(id(h), k): v for h in holders for k, v in list(vars(h).items())}
        changed = [key for key, value in before.items() if after.get(key) is not value]
        self.assertEqual(changed, [])


if __name__ == "__main__":
    unittest.main()
