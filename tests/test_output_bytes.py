"""Pin the bytes of the deterministic output files for a small run matrix.

Every method under every loss-scaling scheme, plus adam under ours with
uncertainty weights and under gd with equal weights, runs 3 epochs of 3
steps on the default shapes. One more run puts a
16-channel trunk of two 3x3 convs on batch 5 of 13x13 images: 845 output
pixels, not a multiple of 8, so the conv products have BLAS edge columns.
The sha256 of each run's metrics.csv, run_log.jsonl and strength.jsonl must
equal the values in ``output_bytes.json``. A change that moves output bits
on purpose replaces that file with the JSON the failure message prints.

The matrix runs in a child process with one BLAS thread: a threaded
OpenBLAS splits a product above its threading threshold by thread count,
so the wide run's bits would otherwise depend on the machine's core count.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from mtlopt.config import ExperimentConfig
from mtlopt.runner import (
    BLAS_THREAD_VARIABLES,
    METRICS_FILE,
    RUN_LOG_FILE,
    STRENGTH_FILE,
    numeric_environment,
    run_experiment,
    write_report,
)
from mtlopt.verification import child_environment

PIN_FILE = os.path.join(os.path.dirname(__file__), "output_bytes.json")
PINNED_FILES = (METRICS_FILE, RUN_LOG_FILE, STRENGTH_FILE)
WIDE_ODD_MODEL = {
    "trunk": [{"in_channels": 3, "out_channels": 16, "kernel_size": 3},
              {"in_channels": 16, "out_channels": 16, "kernel_size": 3}],
    "heads": {"1": [{"in_channels": 16, "out_channels": 8, "kernel_size": 1},
                    {"in_channels": 8, "out_channels": 4, "kernel_size": 1}],
              "2": [{"in_channels": 16, "out_channels": 8, "kernel_size": 1},
                    {"in_channels": 8, "out_channels": 1, "kernel_size": 1}]},
    "tasks": [{"id": 1, "loss": "cross_entropy", "weight": 1.0},
              {"id": 2, "loss": "mse", "weight": 1.0}],
}
SCHEMES = {
    "equal": {"scheme": "equal"},
    "manual": {"scheme": "manual", "manual_ratios": [1.0, 0.5]},
    "dwa": {"scheme": "dwa"},
    "uncertainty": {"scheme": "uncertainty"},
}


def _run_matrix() -> dict[str, dict]:
    runs = {f"{method}-{scheme}": {"method": method, "loss_scaling": scaling}
            for method in ("ours", "gd", "pcgrad") for scheme, scaling in SCHEMES.items()}
    runs["ours-uncertainty-adam"] = {"method": "ours", "loss_scaling": SCHEMES["uncertainty"],
                                     "update_rule": {"kind": "adam", "beta1": 0.9,
                                                     "beta2": 0.999, "eps": 1e-8},
                                     "lr": 0.01}
    runs["gd-equal-adam"] = {"method": "gd", "loss_scaling": SCHEMES["equal"],
                             "update_rule": runs["ours-uncertainty-adam"]["update_rule"],
                             "lr": 0.01}
    runs["ours-equal-wide-odd"] = {"method": "ours", "model": WIDE_ODD_MODEL,
                                   "data": {"batch_size": 5, "height": 13, "width": 13}}
    return runs


def _environment() -> dict[str, str]:
    env = numeric_environment()
    return {"numpy": env["numpy"], "blas": f"{env['blas']['name']} {env['blas']['version']}"}


def _hashes(tmp_path) -> dict[str, dict[str, str]]:
    out = {}
    for name, overrides in _run_matrix().items():
        config = ExperimentConfig.from_dict({"epochs": 3, "steps_per_epoch": 3, "seeds": [1],
                                             **overrides})
        report = run_experiment(config)
        assert not report.failed and not report.violations, name
        run_dir = tmp_path / name
        write_report(report, str(run_dir))
        out[name] = {f: hashlib.sha256((run_dir / f).read_bytes()).hexdigest()
                     for f in PINNED_FILES}
    return out


def test_output_bytes_match_pin(tmp_path):
    with open(PIN_FILE) as fh:
        pinned = json.load(fh)
    one_thread = {key: "1" for key in BLAS_THREAD_VARIABLES}
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True,
                          text=True, env={**child_environment(), **one_thread})
    assert proc.returncode == 0, proc.stderr
    current = json.loads(proc.stdout)
    if current["runs"] != pinned["runs"]:
        moved = sorted(name for name in current["runs"]
                       if current["runs"][name] != pinned["runs"].get(name))
        raise AssertionError(
            f"output bytes moved in {moved}\n"
            f"recorded with numpy {pinned['numpy']}, {pinned['blas']}; "
            f"now numpy {current['numpy']}, {current['blas']}\n"
            f"if the change is intended, replace {PIN_FILE} with:\n"
            + json.dumps(current, indent=2, sort_keys=True))


if __name__ == "__main__":
    print(json.dumps({**_environment(), "runs": _hashes(Path(sys.argv[1]))}))
