"""Benchmark of the netauction package: four workloads, end-to-end goodput
and latency, and per-module timings from a separate traced run.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1

Each workload runs in this one process, single-threaded, as a closed loop
with one caller: a pass calls every operation of the workload once, and
passes repeat until --seconds have elapsed. Every call is made twice, back
to back: on the package under test and on perfbench/v0/netauction_v0, a
frozen copy of the package as first committed, with identical inputs. A
shared host can change speed by up to 2x within minutes; no timing of one
side alone survives that, while the ratio of the two sides holds to a few
percent. Every pass draws new inputs (see workloads.py). Operation outputs
are checked after the loop; an operation that raised or whose output is
wrong is failed, and its items never count. A failure other than one the
operation is known to raise at v0 makes the run incorrect.

End-to-end metrics (--trace 0):
  goodput_vs_v0  correct items per second over v0's on the same calls; a
                 failed call is charged at least the time of its v0 pair
  op_p50_vs_v0   median over the operations of their latency over v0's,
                 failed calls charged the same way
  setup_s        process start to the first timed operation: the median of
                 five fresh processes importing the package, plus the
                 program calls that make the first pass's input objects
  setup_vs_v0    the same over v0's, median of five probe pairs run in
                 alternation
  peak_rss_mb    peak resident memory through a first pass of the program
                 alone, before v0 is imported
The report line also carries the plain items_per_s (correct items of one
pass per second, each operation at its fastest pass), op_p50_ms, the
latency tail and failed_ops.

--trace 1 times the same loop untraced, then one pass of the program, on
inputs of its own so its counts repeat exactly at one seed, with every
public function of the package wrapped, and reports per-pass counts
and times by module, plus the tracing overhead: that pass's time over the
last untraced pass's. The spans go to .perfbench_run/.

The last line of output is one JSON object: correct, attempted, failed and
metrics. Earlier lines carry the input shapes, failures by exception type,
the latency tail, provenance and the full per-module breakdown.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
V0 = HERE / "v0"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None
SETUP_PROBES = 5
V0_WARMUP_S = 1.0  # enough for v0's first call of each kind: imports and caches filled on first use
WORKLOAD_NAMES = ("tables", "edgelist", "dsic", "sweep")
MODULES = ("", ".cli", ".golden", ".distributions", ".graphs", ".incentives", ".mechanism", ".reserve",
           ".revenue", ".simulation")
PROBE = (
    "import importlib, sys; sys.path.insert(0, sys.argv[1]);"
    " [importlib.import_module(sys.argv[2] + m) for m in sys.argv[3:]]; print('ready', flush=True)"
)


def import_package(name, path):
    """Import a copy of the package, with every module the workloads use,
    from `path` and nowhere else."""
    if not (path / name / "__init__.py").is_file():
        raise SystemExit(f"error: no {name} package under {path}")
    sys.path.insert(0, str(path))
    for module in MODULES:
        importlib.import_module(name + module)
    pkg = sys.modules[name]
    if Path(pkg.__file__).resolve().parent != (path / name).resolve():
        raise SystemExit(f"error: imported {name} from {pkg.__file__}")
    return pkg


def import_program():
    """The package under test, from this checkout's src/."""
    pkg = import_package("netauction", SRC)
    if str(HERE) not in sys.path:
        sys.path.insert(1, str(HERE))
    return pkg


def timed(call, collect):
    """(latency, output, error) of one call."""
    out = err = None
    t0 = perf_counter()
    try:
        raw = call()
    except Exception as exc:  # a failed operation, counted by judge()
        err = exc
    latency = perf_counter() - t0
    if err is None:
        try:
            out = collect(raw)
        except Exception as exc:  # the call left no readable output
            err = exc
    return latency, out, err


def bind(ops, v):
    """(the calls of pass v, seconds spent making their input objects)."""
    t0 = perf_counter()
    calls = [op.bind(v) for op in ops]
    return calls, perf_counter() - t0


def traced_pass(ops, calls, tracer):
    """One pass of the program alone, each span tagged with its op."""
    records = []
    for i, (op, call) in enumerate(zip(ops, calls)):
        tracer.current_op = i
        records.append([timed(call, op.collect)])
    return records


def run_pairs(wl, ops, base, records, seconds):
    """Closed loop in which every operation runs on the program and on v0
    back to back, so both see the same load from the rest of the host.

    `records` holds the program's first pass, run alone. v0 then warms up
    alone on the same inputs, untimed, for up to V0_WARMUP_S, so that
    neither side's first calls are paired. Then come rounds of two passes, the second with the opposite
    order in every pair, so whichever side gains from going first or second
    gains equally; rounds repeat until `seconds` have elapsed and there are
    at least the workload's `min_pairs` paired passes. Program pass
    p runs inputs p, so v0 pass q runs inputs q + 1. Returns (v0 records,
    program bind times, v0 bind times).
    """
    base_records = [[] for _ in ops]
    binds, base_binds = [], []
    begin = perf_counter()
    for op, call in zip(base, bind(base, 0)[0]):
        timed(call, op.collect)
        if perf_counter() - begin >= V0_WARMUP_S:
            break
    while len(base_records[0]) < wl.min_pairs or perf_counter() - begin < seconds:
        for flip in (0, 1):
            v = len(records[0])
            wl.inputs(v)  # the benchmark's own input generation, before any timing
            calls, bind_s = bind(ops, v)
            base_calls, base_bind_s = bind(base, v)
            binds.append(bind_s)
            base_binds.append(base_bind_s)
            for i in range(len(ops)):
                sides = [(records, ops, calls), (base_records, base, base_calls)]
                if (i + flip) % 2:
                    sides.reverse()
                for recs, which, c in sides:
                    recs[i].append(timed(c[i], which[i].collect))
    return base_records, binds, base_binds


def judge(ops, records, variants, failures):
    """Check every output; returns (per-op lists of ok flags, the number of
    failures no operation is known for). Pass p ran inputs variants[p]."""
    verdicts = []
    unexpected = 0
    for op, recs in zip(ops, records):
        flags = []
        for (_, out, err), v in zip(recs, variants):
            try:
                reason = f"{type(err).__name__}: {err}" if err else op.check(out, v)
            except Exception as exc:  # a malformed output is a wrong one
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                kind = type(err).__name__ if err else "wrong output"
                known = err is not None and kind in op.allowed
                unexpected += not known
                tag = kind if known else f"{kind}, unexpected"
                failures.setdefault(tag, Counter())[f"{op.label}: {reason}"[:200]] += 1
            flags.append(not reason)
        if op.check_all is not None and any(flags):
            reason = op.check_all([(r[1], v) for r, v, ok in zip(recs, variants, flags) if ok])
            if reason:
                unexpected += sum(flags)
                failures.setdefault("wrong output, unexpected", Counter())[f"{op.label}: {reason}"[:200]] += sum(flags)
                flags = [False] * len(flags)
        verdicts.append(flags)
    return verdicts, unexpected


def canonical(obj):
    """A JSON form of an output with exact floats and sorted sets, so equal
    outputs digest equally in any process."""
    if dataclasses.is_dataclass(obj):
        return {f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    return obj


def output_digest(ops, records):
    """Digest of every op's output in every pass, in pass order."""
    h = hashlib.sha256()
    for op, recs in zip(ops, records):
        for p, (_, out, err) in enumerate(recs):
            form = json.dumps(type(err).__name__ if err else canonical(out), sort_keys=True)
            h.update(f"{op.label}\0{p}\0{form}\n".encode())
    return h.hexdigest()[:16]


def best(recs, flags):
    """An operation's latency: its fastest correct pass, or its fastest pass
    when none was correct. Load from other processes on the host only ever
    adds time, so the fastest pass is the closest to the program's own
    cost."""
    return min((r[0] for r, ok in zip(recs, flags) if ok), default=min(r[0] for r in recs))


def goodput(ops, records, verdicts):
    """Correct items of one pass per second of the operations' latencies."""
    items = time = 0.0
    for op, recs, flags in zip(ops, records, verdicts):
        items += op.items * sum(flags) / len(flags)
        time += best(recs, flags)
    return items / time


def latency_summary(records, verdicts):
    """p50: the median over operations of their latencies; the tail and the
    raw median: over every correct execution."""
    lat = sorted(r[0] for recs, flags in zip(records, verdicts) for r, ok in zip(recs, flags) if ok)
    out = {
        "ops": len(records),
        "p50_ms": statistics.median(best(recs, flags) for recs, flags in zip(records, verdicts)) * 1e3,
        "samples": len(lat),
    }
    if lat:
        out["raw_p50_ms"] = statistics.median(lat) * 1e3
    if len(lat) > 10:
        # the highest percentile with at least ten samples beyond it
        out["tail_percentile"] = 100.0 * (len(lat) - 10) / len(lat)
        out["tail_ms"] = lat[len(lat) - 11] * 1e3
    return out


def import_probe_s(name, path) -> float:
    """Wall time from spawning a fresh interpreter to its having imported
    every module of the package that the workloads use."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", PROBE, str(path), name, *MODULES], cwd=ROOT, stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe of {name} failed")
    return elapsed


def setup_probes(prep_s, base_prep_s):
    """(setup_s, setup_vs_v0, probe times): SETUP_PROBES pairs of import
    probes, the program's and v0's in alternating order; each side's setup
    is its import time plus the time its program calls took to make the
    first pass's input objects."""
    times, base_times = [], []
    for k in range(SETUP_PROBES):
        sides = [(times, "netauction", SRC), (base_times, "netauction_v0", V0)]
        for out, name, path in sides[:: 1 if k % 2 == 0 else -1]:
            out.append(import_probe_s(name, path))
    ratios = [(t + prep_s) / (bt + base_prep_s) for t, bt in zip(times, base_times)]
    return statistics.median(times) + prep_s, statistics.median(ratios), times, base_times


def provenance(netauction, seed) -> dict:
    from netauction.golden import reference_checksum
    import numpy
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "netauction").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "source_sha256": src_hash.hexdigest()[:16],
        "netauction": netauction.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "golden_checksum": reference_checksum(),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def relative(ops, records, base_records, verdicts):
    """The program against v0, per paired pass (program pass k + 1 with v0
    pass k; pair order alternates between passes): goodput
    (correct items per second) over v0's, and the median over operations of
    the program's latency over v0's. A failed call of the program is
    charged at least its v0 pair's time, so failing fast never reads as a
    gain."""
    rates, p50s = [], []
    for k in range(len(base_records[0])):
        items = sum(op.items * v[k + 1] for op, v in zip(ops, verdicts))
        base_items = sum(op.items * (r[k][2] is None) for op, r in zip(ops, base_records))
        time = [r[k + 1][0] if v[k + 1] else max(r[k + 1][0], br[k][0])
                for r, v, br in zip(records, verdicts, base_records)]
        base_time = [r[k][0] for r in base_records]
        rates.append((items / sum(time)) / (base_items / sum(base_time)))
        p50s.append(statistics.median(t / bt for t, bt in zip(time, base_time)))
    return rates, p50s


def run_workload(name, seed, seconds, trace, size="full"):
    netauction = import_program()
    import tracing
    import workloads

    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"work-{os.getpid()}"
    try:
        for sub in ("inputs", "program", "v0"):
            (workdir / sub).mkdir(parents=True)
        t0 = perf_counter()
        wl = workloads.WORKLOADS[name](seed, size, str(workdir / "inputs"))
        wl.inputs(0)
        input_s = perf_counter() - t0

        # the program alone up to the end of its first pass: setup, warm-up
        # and peak memory, before v0 is imported
        t0 = perf_counter()
        ops = wl.ops(netauction, str(workdir / "program"))
        ops_s = perf_counter() - t0
        calls, first_bind_s = bind(ops, 0)
        records = [[timed(call, op.collect)] for op, call in zip(ops, calls)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        v0 = import_package("netauction_v0", V0)
        wl.baseline = v0
        t0 = perf_counter()
        base = wl.ops(v0, str(workdir / "v0"))
        base_ops_s = perf_counter() - t0
        t0 = perf_counter()
        base_records, binds, base_binds = run_pairs(wl, ops, base, records, seconds / 2 if trace else seconds)
        phases = {"loop_s": perf_counter() - t0}
        variants = list(range(len(records[0])))

        failures: dict = {}
        t0 = perf_counter()
        verdicts, unexpected = judge(ops, records, variants, failures)
        phases["check_s"] = perf_counter() - t0
        attempted = sum(len(r) for r in records)
        failed = sum(len(v) - sum(v) for v in verdicts)
        items_per_s = goodput(ops, records, verdicts)
        pair_rates, pair_p50s = relative(ops, records, base_records, verdicts)
        prep_s = ops_s + statistics.median([first_bind_s, *binds])
        base_prep_s = base_ops_s + statistics.median(base_binds)
        report = {
            "workload": name,
            "passes": len(records[0]),
            "v0_passes": len(base_records[0]),
            "ops_per_pass": len(ops),
            "items_per_pass": sum(op.items for op in ops),
            "input_s": input_s,
            "prep_s": prep_s,
            "inputs": wl.shapes(),
            "items_per_s": items_per_s,
            "v0_items_per_s": goodput(base, base_records, [[r[2] is None for r in recs] for recs in base_records]),
            "latency": latency_summary(records, verdicts),
            "failed_ops": failed / attempted,
            "output_digest": output_digest(ops, records),
            "paired_goodput_vs_v0": pair_rates,
            "paired_op_p50_vs_v0": pair_p50s,
        }

        if trace:
            wl.inputs(workloads.TRACE_PASS)
            calls, _ = bind(ops, workloads.TRACE_PASS)
            tracer = tracing.Tracer()
            tracer.install()
            t_traced = perf_counter()
            try:
                traced_records = traced_pass(ops, calls, tracer)
            finally:
                tracer.restore()
            traced_s = perf_counter() - t_traced
            traced_verdicts, traced_unexpected = judge(ops, traced_records, [workloads.TRACE_PASS], failures)
            unexpected += traced_unexpected
            attempted += sum(len(r) for r in traced_records)
            failed += sum(len(v) - sum(v) for v in traced_verdicts)
            values = tracing.summarize(tracer, 1)
            values["traced_pass_s"] = traced_s
            # against the untraced pass just before, so the host drifts least
            values["trace_overhead"] = traced_s / sum(r[-1][0] for r in records)
            tracer.write(RUN_DIR / f"spans-{name}-seed{seed}.npz")
            report["per_layer"] = values
        else:
            t0 = perf_counter()
            setup_s, setup_vs_v0, probes, base_probes = setup_probes(prep_s, base_prep_s)
            phases["probe_s"] = perf_counter() - t0
            report["setup_probes_s"] = {"program": probes, "v0": base_probes, "v0_prep_s": base_prep_s}
            values = {
                "goodput_vs_v0": statistics.median(pair_rates),
                "op_p50_vs_v0": statistics.median(pair_p50s),
                "setup_s": setup_s,
                "setup_vs_v0": setup_vs_v0,
                "peak_rss_mb": peak_rss_mb,
            }
        report["failures"] = {k: dict(v) for k, v in failures.items()}
        report["phases"] = phases
        group = SPEC["per_layer" if trace else "end_to_end"]
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in group}
        report["provenance"] = provenance(netauction, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name}: {report['passes']} passes of {len(ops)} ops ({report['v0_passes']} paired with v0), "
          f"{attempted} attempted, {failed} failed, {unexpected} not known to fail")
    for kind, where in report["failures"].items():
        for what, count in where.items():
            print(f"  failed x{count} [{kind}] {what}")
    print(f"  items_per_s = {items_per_s:.6g} 1/s (v0: {report['v0_items_per_s']:.6g})")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print("report " + json.dumps(report, sort_keys=True, default=str))
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in a fresh process."""
    rows = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            report = json.loads(next(l for l in lines if l.startswith("report "))[7:])
            rows.append((name, trace, result, report))
    for name, trace, result, report in rows:
        print(f"{name} ({'traced' if trace else 'untraced'}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:44s} {m['value']:14.6g} {m['unit']}")
        if trace:
            continue
        lat = report["latency"]
        print(f"  {'items_per_s':44s} {report['items_per_s']:14.6g} 1/s")
        print(f"  {'op_p50_ms (%d ops)' % lat['ops']:44s} {lat['p50_ms']:14.6g} ms")
        if "tail_ms" in lat:
            label = "op_tail_ms (p%.1f of %d samples)" % (lat["tail_percentile"], lat["samples"])
            print(f"  {label:44s} {lat['tail_ms']:14.6g} ms")
        print(f"  {'failed_ops':44s} {report['failed_ops']:14.6g} ratio")
        for kind, where in report["failures"].items():
            for what, count in where.items():
                print(f"    failed x{count} [{kind}] {what}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"] if SPEC else 10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if SPEC is None:
        print(f"error: {ROOT / 'BENCHMARK.json'} is missing", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_workload(args.workload, args.seed, args.seconds, args.trace, args.size)


if __name__ == "__main__":
    raise SystemExit(main())
