"""nlslab benchmark: one workload, end-to-end or traced, with correctness checks.

Run from the repository root:

    python3 perfbench/run.py --workload case-bigbox [--seed 0] [--seconds 30] [--trace 0]

The package is imported from `src/` of the checkout.  This process only
orchestrates; every measurement runs in a fresh child (`worker.py`):

* `--trace 0`: one measuring child that reads its peak RSS after its first
  run and times checked runs for `--seconds`, between two halves of
  SETUP_PROBES set-up-only children.  Prints `wall_s`, `setup_s` and
  `peak_mem_mb`.
* `--trace 1`: one measuring child that alternates untraced and traced runs
  for `--seconds` and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER, UNITS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 10
# The whole invocation must end well inside 180 s.
BUDGET_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class ChildFailed(RuntimeError):
    pass


def machine_record() -> dict:
    """Host facts that bear on the timings; missing sources read 'unknown'."""
    record = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "caches": {},
        "python": platform.python_version(),
        "threads_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    record["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            level, kind, size = (_read(os.path.join(base, index, f)) for f in ("level", "type", "size"))
            record["caches"][f"L{level}-{kind}"] = size
    except OSError:
        pass
    return record


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def run_child(mode: str, args, deadline: float, extra=()) -> dict:
    """Start one worker, wait for it, return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    launch = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, args.workload,
           str(args.seed), args.workdir, repr(launch), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"{mode} worker exceeded the time budget") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{mode} worker printed no result")
    return json.loads(lines[-1])


def measure(args) -> dict:
    deadline = time.monotonic() + BUDGET_S
    extra = (str(args.seconds), str(args.trace))
    if args.trace:
        result = run_child("measure", args, deadline, extra)
        return {"result": result, "metrics": result.get("layers", {})}
    # Half the set-up probes run before the measuring child and half after,
    # so that their median spans the whole run window, not one moment of it.
    half = SETUP_PROBES // 2
    setups = [run_child("setup", args, deadline)["setup_s"] for _ in range(half)]
    result = run_child("measure", args, deadline, extra)
    setups.append(result["setup_s"])
    setups += [run_child("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES - half)]
    if not result["walls"]:
        raise ChildFailed("no workload run completed")
    metrics = {
        "wall_s": upper_quartile(result["walls"]),
        "setup_s": statistics.median(setups),
        "peak_mem_mb": result["peak_mem_mb"],
    }
    return {"result": result, "metrics": metrics, "setups": setups}


def upper_quartile(walls: list[float]) -> float:
    """Upper quartile of the per-run wall times.

    On a shared host a core runs in a steady state with fast bursts of a few
    seconds on top, up to 40% faster.  The share of a run window the bursts
    cover varies from window to window and moves the median with it; the
    upper quartile is set by runs in the steady state and moves far less.
    """
    if len(walls) < 2:
        return walls[0]
    return statistics.quantiles(walls, n=4, method="inclusive")[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nlslab", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    args.workdir = os.path.join(HERE, "out", f"{args.workload}-{os.getpid()}")
    try:
        measured = measure(args)
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    result = measured["result"]
    attempted, failed = result["attempted"], result["failed"]
    machine = machine_record()
    machine["numpy"] = result["numpy"]
    print("machine: " + json.dumps(machine))
    print("run: " + json.dumps({
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "field_kib": w.field_bytes / 1024,
        "bandwidth": "every field fits in L2; no bandwidth claim is made",
        "runs_timed": len(result["walls"]),
        "walls_s": result["walls"],
        "wall_median_s": statistics.median(result["walls"]),
        "setup_samples_s": measured.get("setups", []),
        "observations": result["observations"],
    }))
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    metrics = dict(measured["metrics"], check_fail_frac=failed / attempted)
    for name, value in metrics.items():
        print(f"{w.name} {name} = {value:.6g} {UNITS[name]}")
    wanted = [name for name, _, _ in (PER_LAYER if args.trace else END_TO_END)]
    missing = [name for name in wanted if name not in metrics]
    if missing and failed == 0:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in wanted if n in metrics},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
