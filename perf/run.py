#!/usr/bin/env python3
"""Wall-clock benchmark runner.  See perf/README.md.

Three ways in:

``python3 perf/run.py``
    the suite: every workload, ``--reps`` untraced child processes plus
    one traced one each, a table on stdout and one JSON (``--out``).
``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1``
    one run, one JSON object as the last line of stdout (the contract
    in BENCHMARK.json): the end-to-end metrics with ``--trace 0``, the
    per-layer ones with ``--trace 1``.
``python3 perf/run.py --quick``
    every workload once, tiny, both passes, in this process (smoke test).
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The script's own directory would shadow the stdlib ``trace`` module.
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

#: One BLAS thread: on this 2-core container two threads are slower
#: (gcn/pubmed step 0.20 s vs 0.16 s) and twice as noisy.  Set before
#: NumPy loads; child processes inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["PYTHONHASHSEED"] = "0"   # same set order in every child

OUT_DIR = os.path.join(ROOT, "perf", "out")
WORKLOAD_NAMES = [
    "train-gat-cora", "train-gcn-pubmed", "minibatch-sage-cora",
    "serve-read", "serve-mixed", "sweep-analytic", "multi4-gat-cora",
]
MIN_ITERATIONS = 2
EXTRA_SETUPS = 2      # set-up-only children of a --trace 0 run, besides the measuring one
CHILD_TIMEOUT_S = 170


# ----------------------------------------------------------------------
# One measurement, in this process
# ----------------------------------------------------------------------
class Timings:
    """Per-iteration measurements of one timed loop."""

    def __init__(self) -> None:
        self.wall: List[float] = []      # seconds, as measured
        self.speed: List[float] = []     # machine slowness just before
        self.cpu_s = 0.0
        self.minor_faults = 0
        self.raised = 0

    def calibrated_p50(self) -> float:
        """Median wall time at the reference machine speed (calibrate.py)."""
        return statistics.median(w / s for w, s in zip(self.wall, self.speed))


def _timed_loop(workload, probe, seconds: float, iters: Optional[int],
                tracer=None) -> Timings:
    """Run iterations for ``seconds`` (or exactly ``iters``), the speed
    probe before each; with a tracer, each is one ``harness.iteration``."""
    out = Timings()
    deadline = time.perf_counter() + seconds
    while True:
        n = len(out.wall)
        if iters is not None:
            if n >= iters:
                break
        elif n >= MIN_ITERATIONS and time.perf_counter() >= deadline:
            break
        out.speed.append(probe())
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        cpu = time.process_time()
        if tracer is not None:
            tracer.iteration = n
            span = tracer.begin("harness.iteration")
        start = time.perf_counter()
        try:
            workload.iteration()
        except Exception:   # the run must go on: count it and report it
            traceback.print_exc()
            out.raised += 1
        out.wall.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end(span)
        out.cpu_s += time.process_time() - cpu
        out.minor_faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return out


def _run_checks(workload) -> List[list]:
    try:
        return [list(check) for check in workload.checks()]
    except Exception:   # an oracle that cannot run is an oracle that failed
        return [["oracle-raised", False, traceback.format_exc(limit=8)]]


def measure(
    name: str, seed: int, *, seconds: float, iters: Optional[int] = None,
    trace: bool = False, quick: bool = False, corrupt: bool = False,
    only_setup: bool = False, start: Optional[float] = None,
    trace_dir: str = OUT_DIR,
) -> Dict[str, object]:
    """Set up ``name``, time it, check it.  ``start`` is when set-up is
    taken to have begun (the process start in a child)."""
    start = time.perf_counter() if start is None else start
    from perf import trace as ptrace

    tracer = undo = None
    if trace:
        tracer = ptrace.Tracer()
        undo = ptrace.install(tracer)
    from perf.calibrate import SpeedProbe
    from perf.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, quick=quick, corrupt=corrupt)
    workload.setup()
    workload.iteration()    # warm-up: lazy imports, plan cache, allocator
    setup_raw_s = time.perf_counter() - start
    probe = SpeedProbe()
    probe()     # its own first call is slow
    result: Dict[str, object] = {
        "workload": name,
        "setup_raw_s": setup_raw_s,
        # Set-up cannot be interleaved with the probe: scale by the
        # machine's speed right after it.
        "setup_s": setup_raw_s / statistics.median(probe() for _ in range(5)),
        "fingerprint": workload.fingerprint(),
    }
    if only_setup:
        return result

    traced = None
    if trace:
        traced = _timed_loop(workload, probe, seconds / 2, iters, tracer)
        tracer.iteration = ptrace.EXTRA
        workload.traced_extras(tracer)
        ptrace.uninstall(undo)
        tracer.enabled = False
        seconds = seconds / 2

    timed = _timed_loop(workload, probe, seconds, iters)
    # Read before the oracles run: their float64 reference passes are
    # not the program's memory.
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    raw_p50 = statistics.median(timed.wall)
    checks = _run_checks(workload)
    runs = [timed] + ([traced] if trace else [])
    raised = sum(t.raised for t in runs)
    result.update(
        iter_p50_s=timed.calibrated_p50(),
        iter_p50_raw_s=raw_p50,
        machine_speed=statistics.median(timed.speed),
        samples=len(timed.wall),
        rate={"unit": workload.rate_unit,
              "value": workload.work_per_iteration() / raw_p50},
        raised=raised,
        checks=checks,
        attempted=sum(len(t.wall) for t in runs) + len(checks),
        failed=raised + sum(1 for c in checks if not c[1]),
    )
    if trace:
        from perf.metrics import layer_metrics

        n = len(timed.wall)
        harness = {
            "harness.iter_p50_raw_s": raw_p50,
            "harness.iter_p90_raw_s": (
                statistics.quantiles(timed.wall, n=10)[-1] if n >= 100 else None
            ),
            "harness.machine_speed": result["machine_speed"],
            "harness.cpu_s_per_iter": timed.cpu_s / n,
            "harness.minor_faults_per_iter": timed.minor_faults / n,
            "harness.trace_overhead_frac":
                traced.calibrated_p50() / timed.calibrated_p50() - 1.0,
        }
        result["per_layer"] = layer_metrics(tracer, len(traced.wall), harness)
        result["missing_wrap_targets"] = sorted(set(tracer.missing))
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write_chrome_trace(os.path.join(trace_dir, f"trace_{name}.json"))
    return result


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _child(args: argparse.Namespace, *, trace: bool, only_setup: bool = False) -> dict:
    """Run one measurement in a fresh interpreter; returns its result."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", args.workload[0], "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
        "--out", args.out,
    ]
    if only_setup:
        cmd.append("--only-setup")
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    done = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise SystemExit(f"perf: child {' '.join(cmd[2:])} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _fingerprint_check(results: List[dict]) -> list:
    distinct = len({r["fingerprint"] for r in results})
    return ["same-result-in-every-process", distinct == 1,
            f"{distinct} distinct fingerprints in {len(results)} processes"]


def run_contract(args: argparse.Namespace) -> int:
    """``--workload W --seed N --seconds S --trace T``: one result line."""
    if args.trace:
        from perf.metrics import PER_LAYER

        result = _child(args, trace=True)
        # The line carries numbers only: a layer that did not run, a
        # percentile without enough samples and a wrap target that is
        # gone (warned about on stderr) all read 0.
        metrics = {
            name: {"value": result["per_layer"][name] or 0.0, "unit": unit}
            for name, unit, *_ in PER_LAYER
        }
        attempted, failed = result["attempted"], result["failed"]
    else:
        from perf.metrics import END_TO_END

        runs = [_child(args, trace=False, only_setup=True) for _ in range(EXTRA_SETUPS)]
        result = _child(args, trace=False)
        runs.append(result)
        same = _fingerprint_check(runs)
        result["setup_s"] = statistics.median(r["setup_s"] for r in runs)
        metrics = {
            name: {"value": result[name], "unit": unit}
            for name, unit, _ in END_TO_END
        }
        attempted = result["attempted"] + 1
        failed = result["failed"] + (0 if same[1] else 1)
        result["checks"].append(same)
    for check in result["checks"]:
        if not check[1]:
            print(f"perf: FAILED {check[0]}: {check[2]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def environment() -> Dict[str, object]:
    import numpy as np

    cpu_model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "processes": 1,
    }


def _aggregate(name: str, reps: List[dict], traced: dict) -> Dict[str, object]:
    from perf.metrics import END_TO_END
    from perf.workloads import WORKLOADS

    runs = reps if traced in reps else reps + [traced]
    same = _fingerprint_check(runs)
    attempted = sum(r["attempted"] for r in runs) + 1
    failed = sum(r["failed"] for r in runs) + (not same[1])
    # Raw wall clock and the measured machine speed ride along, unbounded.
    reported = [(m, u) for m, u, _ in END_TO_END] + [
        ("setup_raw_s", "s"), ("iter_p50_raw_s", "s"), ("machine_speed", "ratio"),
    ]
    return {
        "why": WORKLOADS[name].why,
        "end_to_end": {
            metric: {
                "unit": unit,
                "median": statistics.median(r[metric] for r in reps),
                "reps": [r[metric] for r in reps],
            }
            for metric, unit in reported
        },
        "failed_frac": {
            "unit": "ratio", "value": failed / attempted,
            "attempted": attempted, "failed": int(failed),
        },
        "samples": [r["samples"] for r in reps],
        "rate": {
            "unit": reps[0]["rate"]["unit"],
            "value": statistics.median(r["rate"]["value"] for r in reps),
        },
        "checks": [c for r in runs for c in r["checks"]] + [same],
        "per_layer": traced["per_layer"],
        "missing_wrap_targets": traced["missing_wrap_targets"],
    }


def run_suite(args: argparse.Namespace) -> Dict[str, object]:
    from perf.metrics import PER_LAYER

    names = args.workload or WORKLOAD_NAMES
    report: Dict[str, object] = {
        "schema": 1, "seed": args.seed, "quick": args.quick,
        "reps": 1 if args.quick else args.reps,
        "seconds_per_rep": None if args.quick else args.seconds,
        "env": environment(), "workloads": {},
    }
    for name in names:
        if args.quick:
            # One process, one set-up: the traced measurement's untraced
            # half stands in for the untraced pass.
            traced = measure(name, args.seed, seconds=0.0, iters=1, trace=True,
                             quick=True, corrupt=args.corrupt_oracle,
                             trace_dir=_trace_dir(args))
            reps = [traced]
        else:
            one = argparse.Namespace(**{**vars(args), "workload": [name]})
            reps = [_child(one, trace=False) for _ in range(args.reps)]
            traced = _child(one, trace=True)
        entry = report["workloads"][name] = _aggregate(name, reps, traced)

        e2e = entry["end_to_end"]
        print(f"\n== {name}  ({sum(entry['samples'])} timed iterations "
              f"in {len(reps)} process(es))")
        for metric, value in e2e.items():
            print(f"  {metric:<40s} {value['median']:>14.6g} {value['unit']}"
                  f"   reps {['%.4g' % v for v in value['reps']]}")
        ff = entry["failed_frac"]
        print(f"  {'failed_frac':<40s} {ff['value']:>14.6g} ratio"
              f"   ({ff['failed']} failed of {ff['attempted']} attempted)")
        print(f"  {'rate':<40s} {entry['rate']['value']:>14.6g} "
              f"{entry['rate']['unit']}")
        for metric, unit, *_ in PER_LAYER:
            value = entry["per_layer"][metric]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {metric:<40s} {shown:>14s} {unit}")
        for check in entry["checks"]:
            if not check[1]:
                print(f"  FAILED {check[0]}: {check[2]}")
    return report


def _trace_dir(args: argparse.Namespace) -> str:
    """Chrome traces land beside ``--out``."""
    return os.path.dirname(os.path.abspath(args.out))


def write_report(report: Dict[str, object], path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {os.path.relpath(path)}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="repeatable; default: all seven")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=6.0,
                        help="timed seconds per process (6: ~8 iterations "
                             "of the slowest workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one contract run: 0 end-to-end, 1 per-layer")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "bench.json"))
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the suite twice and compare the two sets")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="perturb one oracle input; failed_frac must rise")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--only-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(measure(
            args.workload[0], args.seed, seconds=args.seconds,
            trace=bool(args.trace), corrupt=args.corrupt_oracle,
            only_setup=args.only_setup, start=_PROCESS_START,
            trace_dir=_trace_dir(args),
        )))
        return 0
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace takes exactly one --workload")
        return run_contract(args)
    if args.selfcheck:
        from perf import compare

        stem = os.path.splitext(args.out)[0]
        paths = [f"{stem}_a.json", f"{stem}_b.json"]
        for path in paths:
            write_report(run_suite(args), path)
        return compare.main(["--same-code", *paths])
    report = run_suite(args)
    write_report(report, args.out)
    failed = sum(w["failed_frac"]["failed"] for w in report["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
