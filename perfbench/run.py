"""mtlopt benchmark.

    python3 perfbench/run.py --workload desk-default --seed 1 --seconds 45 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` gives the per-layer metrics from a traced
run. Human-readable lines (environment, timings with tails, fingerprints,
failures) come first; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--smoke`` runs every workload at minimal size in both modes and checks
that every metric named in BENCHMARK.json is reported with its unit and
that nothing failed; it is the benchmark's own test.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None if it cannot be queried."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(np, threads: int | None, nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}, "nproc": nproc,
            "cpu": cpu_model(), "commit": git_commit()}


def run_one(workload, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; returns (metrics, outcome, lines)."""
    import layers
    import workloads

    lines: list[str] = []
    outcome = workloads.Outcome()
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            inputs = workloads.make_inputs(workload, seed)
            if trace:
                metrics = layers.run_traced(inputs, seconds, tmp, outcome, lines)
            else:
                metrics = workloads.run_untraced(inputs, seconds, str(ROOT), tmp, outcome, lines)
    finally:
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    return metrics, outcome, lines


def expected_names(trace: bool) -> dict[str, str]:
    import layers
    import workloads

    return layers.per_layer_names() if trace else workloads.end_to_end_names()


def smoke() -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for name, workload in workloads.WORKLOADS.items():
        for trace in (False, True):
            metrics, outcome, _ = run_one(workloads.smoke_workload(workload), 1, 0.0, trace)
            got = {m: unit for m, (_, unit) in metrics.items()}
            if got != declared[trace] or got != expected_names(trace):
                problems.append(f"{name} trace={int(trace)}: metric names or units differ: "
                                f"{sorted(set(got.items()) ^ set(declared[trace].items()))}")
            if outcome.failed:
                problems.append(f"{name} trace={int(trace)}: failed_ratio "
                                f"{outcome.failed}/{outcome.attempted}: {outcome.failures[:3]}")
            print(f"smoke {name} trace={int(trace)}: {len(metrics)} metrics, "
                  f"{outcome.attempted} operations, {outcome.failed} failed", flush=True)
    for p in problems:
        print("SMOKE FAIL:", p)
    print("smoke ok" if not problems else "smoke failed")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    # one BLAS thread unless the caller chose otherwise; set before numpy loads
    for key in BLAS_ENV:
        os.environ.setdefault(key, "1")
    if not (ROOT / "src" / "mtlopt" / "__init__.py").is_file():
        print(f"error: no mtlopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads(np)
    limit = threads if threads is not None else int(os.environ["OPENBLAS_NUM_THREADS"])
    if limit > nproc:
        print(f"error: {limit} BLAS threads exceed the {nproc} usable CPUs; "
              "set OPENBLAS_NUM_THREADS lower", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    env = environment(np, threads, nproc)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    metrics, outcome, lines = run_one(workloads.WORKLOADS[args.workload], args.seed,
                                      args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    for failure in outcome.failures:
        print("FAIL " + failure)
    print(f"failed_ratio {outcome.failed}/{outcome.attempted}")
    missing = set(expected_names(bool(args.trace))) - set(metrics)
    if missing:
        print(f"error: metrics missing: {sorted(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": outcome.failed == 0, "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
