"""Pin the bytes of the deterministic output files for a small run matrix.

Every method under every loss-scaling scheme, plus adam with uncertainty,
runs 3 epochs of 3 steps on the default shapes. The sha256 of each run's
metrics.csv, run_log.jsonl and strength.jsonl must equal the values in
``output_bytes.json``. A change that moves output bits on purpose replaces
that file with the JSON the failure message prints.
"""
import hashlib
import json
import os

import numpy as np

from mtlopt.config import ExperimentConfig
from mtlopt.runner import METRICS_FILE, RUN_LOG_FILE, STRENGTH_FILE, run_experiment, write_report

PIN_FILE = os.path.join(os.path.dirname(__file__), "output_bytes.json")
PINNED_FILES = (METRICS_FILE, RUN_LOG_FILE, STRENGTH_FILE)
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
    return runs


def _environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


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
    current = {**_environment(), "runs": _hashes(tmp_path)}
    if current["runs"] != pinned["runs"]:
        moved = sorted(name for name in current["runs"]
                       if current["runs"][name] != pinned["runs"].get(name))
        raise AssertionError(
            f"output bytes moved in {moved}\n"
            f"recorded with numpy {pinned['numpy']}, {pinned['blas']}; "
            f"now numpy {current['numpy']}, {current['blas']}\n"
            f"if the change is intended, replace {PIN_FILE} with:\n"
            + json.dumps(current, indent=2, sort_keys=True))
