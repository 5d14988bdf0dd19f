#!/usr/bin/env python3
"""p1bundles benchmark: seeded, closed-loop workloads with one client.

    python3 perfbench/run.py --workload split --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root; the library is imported from ``src/``.
``--trace 0`` measures untraced and prints the end-to-end metrics;
``--trace 1`` runs the workload untraced, then traced, and prints the
per-layer metrics.  Queries are timed in CPU seconds, and the query
metrics take each slot's slowest repeat (README, "Timing").  The last
line of stdout is the JSON result, the line
before it a record of the machine, versions, seed and tail percentile.
Both are also written under ``perfbench/out/``.  Metric names and units
come from ``BENCHMARK.json``; ``perfbench/README.md`` explains them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict, namedtuple
from pathlib import Path

# numpy's OpenBLAS starts a thread per core when it is imported.  The
# library's numpy work is integer-only and never calls BLAS, but those
# threads made a cli child's start-up time swing by a third with whether
# a second core was free.  Children and set-up probes inherit the pin.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

perf = time.perf_counter


def cpu():
    """CPU seconds of this process and of the children it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


# One timed query: its slot (the same query in every pass), its CPU time
# ``s``, which the query metrics use, and its wall time, kept for reference.
Row = namedtuple("Row", "label slot s wall ok")

# Seconds one pass of each workload takes on the reference machine (2-core
# Xeon, Python 3.11).  A run does round(--seconds / this) whole passes, so
# a seed always gets the same queries, and the tail percentile, chosen
# from the sample count, is the same on every run.
NOMINAL_PASS_S = {"split": 5.0, "cohomology": 9.5, "cli": 5.4}
# A run starts no new pass after this many times --seconds, nor after
# MAX_MEASURE_S, so even a much slower program ends within its time limit.
DEADLINE_FACTOR = 4
MAX_MEASURE_S = 100
SETUP_PROBES = 2
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
IMPORT_PROBES = 5


def load_library():
    src = ROOT / "src"
    if not (src / "p1bundles" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library at {src / 'p1bundles'}")
    sys.path.insert(0, str(src))
    import p1bundles
    import p1bundles.cli  # noqa: F401  (the cli workload calls it in-process)

    if Path(p1bundles.__file__).resolve().parent != (src / "p1bundles").resolve():
        raise SystemExit(f"perfbench: imported p1bundles from {p1bundles.__file__}")
    return p1bundles


def run_passes(workload, first, passes, deadline, tracer=None, failures=None):
    """Time every query of ``passes`` passes; returns a Row per query."""
    rows = []
    queries = first
    for p in range(passes):
        if p:
            if perf() > deadline:
                break
            queries = workload.make_pass()
        for q in queries:
            if tracer is not None:
                tracer.begin(len(rows))
            error = None
            c, t = cpu(), perf()
            try:
                out = q.run()
            except Exception as exc:  # a failed query is counted, not fatal
                error = exc
            wall, busy = perf() - t, cpu() - c
            if tracer is not None:
                tracer.end()
            ok = False
            if error is None:
                try:
                    ok = bool(q.check(out))
                except Exception as exc:
                    error = exc
            if not ok and failures is not None:
                failures.append(f"{q.label}: {error!r}" if error else f"{q.label}: wrong answer")
            rows.append(Row(q.label, q.slot, busy, wall, ok))
    return rows


def tail(times):
    """Highest listed percentile with at least ten samples beyond it."""
    xs = sorted(times)
    n = len(xs)
    best = (50, xs[max(0, math.ceil(n / 2) - 1)], n - math.ceil(n / 2))
    for q in TAIL_PERCENTILES:
        k = max(1, math.ceil(q / 100 * n))
        if n - k >= 10:
            best = (q, xs[k - 1], n - k)
    return best


def slot_times(rows):
    """Each query's time, taken as the slowest of its slot's repeats.

    A slot runs the same work once per pass.  The host's speed switches
    between a common slow state and spells up to a third faster that come
    and go within a run; the slowest repeat tracks the slow state, which
    nearly every run visits, so it moves least from run to run.
    """
    slowest = defaultdict(float)
    for r in rows:
        slowest[r.slot] = max(slowest[r.slot], r.s)
    return [slowest[r.slot] for r in rows]


def throughput(rows):
    return sum(r.ok for r in rows) / sum(r.s for r in rows)


def peak_rss_mb(workload):
    """Peak RSS of the program: this process, or the largest cli child.

    ru_maxrss is in KiB on Linux.  On ``cli`` this process is only the
    harness, so its own memory is left out.
    """
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def probe(args):
    """Set-up time of a fresh process: import, first inputs, warm-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def import_seconds(lib):
    """Median wall time of ``python -c "import p1bundles.cli"``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    times = []
    for _ in range(IMPORT_PROBES):
        t = perf()
        subprocess.run([sys.executable, "-c", "import p1bundles.cli"], env=env,
                       check=True, timeout=60)
        times.append(perf() - t)
    return statistics.median(times)


def machine_record(lib, args):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu
            )
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    numpy = sys.modules.get("numpy")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", "absent"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def end_to_end(rows, setups, rss):
    times = slot_times(rows)
    pct, value, beyond = tail(times)
    ok = sum(r.ok for r in rows)
    metrics = {
        "setup_s": statistics.median(setups),
        "queries_per_s": ok / sum(times),
        "query_p50_ms": statistics.median(times) * 1000,
        "query_tail_ms": value * 1000,
        "success_ratio": ok / len(rows),
        "peak_rss_mb": rss,
    }
    extra = {"tail_percentile": pct, "tail_samples_beyond": beyond,
             "fail_ratio": 1 - ok / len(rows), "setup_samples_s": setups}
    return metrics, extra


def per_layer(lib, workload, first, passes, deadline, failures, spans_path):
    """Untraced passes, then traced passes on the same gauges with new
    coefficients, so the throughput ratio compares like with like."""
    half = max(1, passes // 2)
    plain = run_passes(workload, first, half, deadline, failures=failures)
    workload.rewind()
    tracer = Tracer(lib)
    tracer.install()
    try:
        traced = run_passes(workload, workload.make_pass(), half, deadline,
                            tracer=tracer, failures=failures)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    kernel_s, inverse_s = tracer.replay()
    muladd, int_muladd = tracer.muladd_ns()
    metrics.update({
        "lmatrix.kernel_basis.replay_s": kernel_s,
        "lmatrix.inverse.replay_s": inverse_s,
        "exact.muladd_ns": muladd,
        "exact.int_muladd_ns": int_muladd,
        "cli.import_s": import_seconds(lib),
        "trace.overhead_ratio": throughput(traced) / throughput(plain),
    })
    extra = {"untraced_queries": len(plain), "traced_queries": len(traced),
             "spans": len(tracer.spans), "kernel_inputs_replayed": len(tracer.kernel_inputs),
             "inverse_inputs_replayed": len(tracer.inverse_inputs),
             "muladd_operands": len(tracer.harvest)}
    tracer.dump(spans_path)
    return plain + traced, metrics, extra


def select(spec_metrics, measured):
    out = {}
    for m in spec_metrics:
        if m["name"] not in measured:
            raise SystemExit(f"perfbench: metric {m['name']} was not measured")
        out[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    return out


def smoke():
    """Smallest rung of every workload once, with its checks; a few seconds."""
    lib = load_library()
    failures = []
    attempted = 0
    for name, cls in WORKLOADS.items():
        workload = cls(lib, 0, OUT / f"smoke-{os.getpid()}", in_process=False)
        try:
            first = workload.make_pass(workload.smoke_rungs)
            rows = run_passes(workload, first, 1, math.inf, failures=failures)
        finally:
            workload.close()
        attempted += len(rows)
        print(f"{name}: {len(rows)} queries, {sum(not r.ok for r in rows)} failed")
    for f in failures:
        print(f, file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": {}}))
    return 0 if not failures else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest rung of each workload")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"perfbench: {spec_path} is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    t0 = perf()
    lib = load_library()
    cls = WORKLOADS[args.workload]
    # Traced cli queries call cli.main in-process so the wrappers see them.
    workload = cls(lib, args.seed, OUT / f"work-{os.getpid()}", in_process=args.trace == 1)
    try:
        first = workload.make_pass()
        workload.warm_up()
        setup = perf() - t0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup}))
            return 0
        passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        start = perf()
        deadline = start + min(DEADLINE_FACTOR * args.seconds, MAX_MEASURE_S)
        failures = []
        if args.trace == 0:
            rows = run_passes(workload, first, passes, deadline, failures=failures)
            rss = peak_rss_mb(workload)  # before the probes, which are children too
            setups = [setup] + [probe(args) for _ in range(SETUP_PROBES)]
            measured, extra = end_to_end(rows, setups, rss)
            metrics = select(spec["end_to_end"], measured)
        else:
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            rows, measured, extra = per_layer(lib, workload, first, passes, deadline,
                                              failures, spans_path)
            metrics = select(spec["per_layer"], measured)
        extra["measure_s"] = perf() - start
    finally:
        workload.close()

    for f in failures[:20]:
        print(f"perfbench: failed {f}", file=sys.stderr)
    record = machine_record(lib, args)
    record.update(extra, queries=len(rows), passes=passes)
    result = {"correct": not failures, "attempted": len(rows), "failed": len(failures),
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result,
                    "samples": [list(r) for r in rows]}), encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
