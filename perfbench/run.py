"""The repository benchmark: four seeded workloads through ``repro``'s API.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-symbolic --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md in this directory).  Set-up is
timed in fresh processes: this script starts one child that sets up and
then measures, and two more that only set up; ``setup_s`` is the median
of the three.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: BLAS threads for every child: at or below nproc, and 1 keeps host
#: time steady on a shared 2-core box.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh processes whose set-up time is measured (the first also measures).
SETUP_SAMPLES = 3
#: Wall-clock budget of one child, in seconds.
CHILD_TIMEOUT = 150
READY = "PERFBENCH-READY"
#: Declares the workloads and every metric's unit.
SPEC = ROOT / "BENCHMARK.json"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim-symbolic", "sim-data", "plan-stream", "chaos-faulty"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op lists, for the benchmark's own tests")
    parser.add_argument("--role", choices=("main", "measure", "setup"), default="main",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- #
# host fingerprint                                                       #
# ---------------------------------------------------------------------- #


def _llc_bytes():
    """Largest CPU cache reported by sysfs, in bytes (``None`` if unknown)."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        best = size if best is None else max(best, size)
    return best


def host_fingerprint() -> dict:
    import numpy

    llc = _llc_bytes()
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "llc_mib": None if llc is None else llc / 2**20,
    }


# ---------------------------------------------------------------------- #
# child: set up, then (role "measure") run the timed passes              #
# ---------------------------------------------------------------------- #


def _child(args) -> int:
    sys.path.insert(0, str(SRC))
    import harness
    import tracer as tracing
    from workloads import make_workload

    workload = make_workload(args.workload, args.seed, smoke=args.smoke)
    workload.setup()
    warm = harness.Pass(-1)
    for op in workload.warmup_ops():
        wall, problem, counts = harness.run_op(workload, op, -1, None)
        warm.walls_ns.append(wall)
        warm.problems.append(problem)
        warm.counts.append(counts)
    print(READY, flush=True)
    if args.role == "setup":
        return 0

    originals = tracing.original_attributes()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "fingerprint": workload.fingerprint(),
        "host": {**host_fingerprint(), **workload.info()},
    }
    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = harness.run_passes(workload, seconds)
    problems = []
    stray = tracing.patched_attributes_intact(originals)
    if stray:
        problems.append(f"untraced run left wrappers installed: {stray}")
    untraced = harness.end_to_end(passes, workload.simulates)
    result["end_to_end"] = untraced
    checked = [warm] + passes

    if args.trace:
        from repro.algorithms import grid_selection

        grid_cache = grid_selection._select_grid_outcome.cache_info
        plan_cache = getattr(workload, "cache", None)
        grid_before = grid_cache()
        plan_before = (plan_cache.hits, plan_cache.misses) if plan_cache else (0, 0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = harness.run_passes(
                workload, seconds, first=passes[-1].index + 1, tracer=tracer,
                op_base=sum(len(p.walls_ns) for p in passes),
            )
        finally:
            tracer.uninstall()
        stray = tracing.patched_attributes_intact(originals)
        if stray:
            problems.append(f"uninstall left wrappers installed: {stray}")
        grid_after = grid_cache()
        plan_after = (plan_cache.hits, plan_cache.misses) if plan_cache else (0, 0)
        deltas = {
            "grid_selection": (grid_after.hits - grid_before.hits,
                               grid_after.misses - grid_before.misses),
            "plan": (plan_after[0] - plan_before[0], plan_after[1] - plan_before[1]),
        }
        summary = harness.layer_summary(workload, tracer, traced, deltas)
        traced_rate = harness.end_to_end(traced, workload.simulates)["ops_per_s"]
        summary["metrics"]["trace_overhead"] = traced_rate / untraced["ops_per_s"]
        problems.extend(summary["completeness"]["problems"])
        result["per_layer"] = summary["metrics"]
        result["completeness"] = summary["completeness"]
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        checked += traced

    # Model-count pins: a fixed op list must give identical counts on
    # every pass, the untimed warm-up pass included.
    pins = passes[0].totals()
    if workload.pass_ops(0) is workload.warmup_ops():
        for p in [warm] + passes[1:]:
            if p.totals() != pins:
                problems.append(f"model counts of pass {p.index} differ from pass 0")
                break
    result["pins"] = pins
    failures = [(p.index, prob) for p in checked for prob in p.problems if prob]
    result["attempted"] = sum(len(p.problems) for p in checked)
    result["failed"] = len(failures)
    result["failures"] = [f"pass {i}: {prob}" for i, prob in failures[:5]]
    result["problems"] = problems
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------- #
# main: orchestrate the children, then report                            #
# ---------------------------------------------------------------------- #


def _spawn(args, role: str):
    """Start a child; return ``(setup seconds, its last stdout line)``."""
    env = dict(os.environ, **{name: str(BLAS_THREADS) for name in BLAS_ENV})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    setup_s = None
    last = ""
    try:
        for line in child.stdout:
            if line.strip() == READY and setup_s is None:
                setup_s = time.perf_counter() - start
            elif line.strip():
                last = line.strip()
        child.wait(timeout=CHILD_TIMEOUT)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or setup_s is None:
        raise RuntimeError(f"{role} child exited with code {child.returncode}")
    return setup_s, last


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.role != "main":
        return _child(args)
    # On SIGTERM, unwind through _spawn's cleanup so no child outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    first_setup, line = _spawn(args, "measure")
    result = json.loads(line)
    setups = [first_setup]
    if not args.trace:
        setups += [_spawn(args, "setup")[0] for _ in range(SETUP_SAMPLES - 1)]
    result["setup_samples_s"] = setups

    e2e = result["end_to_end"]
    tail = e2e["op_tail"]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": e2e["ops_per_s"],
        "op_p50_ms": e2e["op_p50_ms"],
        "op_tail_ms": tail["value"],
        "peak_rss_mb": e2e["peak_rss_mb"],
    }
    attempted, failed = result["attempted"], result["failed"]
    report = dict(values)
    report["error_rate"] = failed / attempted
    report["op_tail_percentile"] = tail["percentile"]
    report["op_tail_samples"] = tail["samples"]
    report["op_tail_beyond"] = tail["beyond"]
    if "sim_msgs_per_s" in e2e:
        report["sim_msgs_per_s"] = e2e["sim_msgs_per_s"]
    result["report"] = report

    measured = result["per_layer"] if args.trace else values
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}
    for name, value in sorted(report.items() if not args.trace else measured.items()):
        print(f"{args.workload:>13} {name:<44} {value:.6g}")
    print(json.dumps({k: v for k, v in result.items() if k != "per_layer"}, sort_keys=True))
    correct = failed == 0 and not result["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
