import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from mtlopt.autodiff import ROW_BUFSIZE, Tape
from mtlopt.cli import main as cli_main
from mtlopt.config import (
    ExperimentConfig,
    apply_dotted_overrides,
    default_config_dict,
    default_model_dict,
)
from mtlopt.errors import ConfigError, NumericError, ShapeError
from mtlopt.loss_scaling import DynamicWeightAverage, make_loss_weighting
from mtlopt import evaluation, optimizers, runner, verification
from mtlopt.network import SHARED, build_model, per_task_gradients
from mtlopt.runner import (
    RunReport,
    SeedResult,
    evaluate_model,
    read_metrics,
    run_experiment,
    run_single_task_baselines,
    training_dataset,
    write_baselines,
    write_report,
)

FAST = {"epochs": 2, "steps_per_epoch": 2, "seeds": [1],
        "data": {"height": 8, "width": 8}}


def fast_config(**overrides):
    merged = {**FAST, **overrides}
    if "data" in overrides:
        merged["data"] = {**FAST["data"], **overrides["data"]}
    return ExperimentConfig.from_dict(merged)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_empty_config_is_valid_and_runnable():
    config = ExperimentConfig.from_dict({})
    assert config.epochs >= 1 and config.seeds
    # a one-epoch override of the defaults actually trains
    report = run_experiment(fast_config(epochs=1))
    assert not report.failed and not report.violations


def test_optimizer_config_defaults_are_the_run_defaults():
    assert ExperimentConfig.from_dict({}).optimizer == optimizers.OptimizerConfig()


def test_fast_sizes_shrink_parameters_of_their_checks():
    # a check's full sample sizes are its defaults; verify --fast passes smaller ones
    for number, sizes in verification.FAST_SIZES.items():
        parameters = inspect.signature(verification.CHECKS[number]).parameters
        for name, fast in sizes.items():
            full = parameters[name].default
            assert len(fast) < len(full) if isinstance(full, tuple) else fast < full, name


def test_readme_configuration_table_lists_every_default():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        table = fh.read().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    documented = {key for line in table.splitlines() if line.startswith("| `")
                  for key in re.findall(r"`([^`]+)`", line.split("|")[1])}

    def leaves(node, prefix=""):
        for key, value in node.items():
            if isinstance(value, dict) and key != "model":
                yield from leaves(value, f"{prefix}{key}.")
            else:
                yield prefix + key

    assert sorted(set(leaves(default_config_dict())) - documented) == []


def test_unknown_field_rejected_with_path():
    with pytest.raises(ConfigError, match="config.epochz"):
        ExperimentConfig.from_dict({"epochz": 3})


def _model_override(**fields):
    return {"model": {**default_model_dict(), **fields}}


_CONV_4_TO_1 = {"in_channels": 4, "out_channels": 1, "kernel_size": 1}
_CONV_4_TO_4 = {"in_channels": 4, "out_channels": 4, "kernel_size": 1}
_TRUNK_4_TO_4 = {"in_channels": 4, "out_channels": 4, "kernel_size": 3}


def _trunk_layer_override(**fields):
    """The default model with extra or changed fields on its first trunk layer."""
    first = {"in_channels": 3, "out_channels": 4, "kernel_size": 3, **fields}
    return _model_override(trunk=[first, _TRUNK_4_TO_4])


@pytest.mark.parametrize("overrides, fragment", [
    ({"epochs": 0}, "epochs"),
    ({"lr": -1.0}, "lr"),
    ({"method": "mgda"}, "method"),
    ({"loss_scaling": {"scheme": "manual"}}, "manual_ratios"),
    ({"task_order": [1, 1]}, "task_order"),
    ({"seeds": []}, "seeds"),
    ({"phase_override": "phase3"}, "phase_override"),
    ({"data": {"channels": 5}}, "channels"),
    # bools are ints to Python but never a valid number here
    ({"lr": True}, "lr"),
    ({"epochs": True}, "epochs"),
    ({"steps_per_epoch": True}, "steps_per_epoch"),
    ({"eval_batches": True}, "eval_batches"),
    ({"seeds": [True]}, "seeds"),
    ({"loss_scaling": {"dwa_temperature": True}}, "dwa_temperature"),
    ({"loss_scaling": {"scheme": "manual", "manual_ratios": [1.0, True]}}, "manual_ratios"),
    # the channels reaching each loss must fit the synthetic targets
    ({"data": {"num_classes": 3}}, "model.heads.1"),
    (_model_override(heads={"1": [{"in_channels": 4, "out_channels": 4, "kernel_size": 1}],
                            "2": [{"in_channels": 4, "out_channels": 2, "kernel_size": 1}]}),
     "model.heads.2"),
    (_model_override(heads={"2": [{"in_channels": 5, "out_channels": 1, "kernel_size": 1}]},
                     trunk=[{"in_channels": 3, "out_channels": 5, "kernel_size": 3}]),
     "model.heads.1"),
    (_model_override(heads={"1": [{"in_channels": 4, "out_channels": 4, "kernel_size": 1}],
                            "2": [_CONV_4_TO_1], "3": [_CONV_4_TO_1]},
                     tasks=[{"id": 1, "loss": "cross_entropy"}, {"id": 2, "loss": "mse"},
                            {"id": 3, "loss": "mse"}]),
     "model.tasks"),
    # every conv runs at stride 1 with same padding
    (_trunk_layer_override(stride=2), "unknown field 'stride'"),
    (_trunk_layer_override(padding=0), "unknown field 'padding'"),
    (_trunk_layer_override(kernel_size=2), "kernel_size"),
    (_trunk_layer_override(kernel_size=4), "kernel_size"),
    (_model_override(trunk=[{"out_channels": 4}, _TRUNK_4_TO_4]), "missing field 'in_channels'"),
    # task loss weights come from loss_scaling
    (_model_override(tasks=[{"id": 1, "loss": "cross_entropy", "weight": 5.0},
                            {"id": 2, "loss": "mse", "weight": 0.0}]), "manual_ratios"),
    # data and update-rule fields are typed like the top-level ones
    ({"data": {"batch_size": True}}, "data.batch_size"),
    ({"data": {"height": 2.5}}, "data.height"),
    ({"data": {"num_classes": 4.0}}, "data.num_classes"),
    ({"data": {"noise": True}}, "data.noise"),
    ({"data": {"depth_mix": [0.7, "x"]}}, "data.depth_mix"),
    ({"update_rule": {"kind": "adam", "beta1": "x"}}, "update_rule.beta1"),
    ({"update_rule": {"beta2": 1.0}}, "update_rule.beta2"),
    ({"update_rule": {"eps": 0.0}}, "update_rule.eps"),
    # unknown model keys and mistyped layer fields
    (_model_override(trunks=[]), "model: unknown field 'trunks'"),
    (_trunk_layer_override(out_channels=4.0), "positive integers"),
    (_trunk_layer_override(batch_norm="no"), "booleans"),
    # a conv has a bias exactly when it has no batch norm
    (_trunk_layer_override(bias=False), "unknown field 'bias'"),
    # malformed head keys and task orders are config errors, not raw Python ones
    (_model_override(heads={"one": [_CONV_4_TO_1]}), "config.model.heads"),
    ({"task_order": 5}, "config.task_order"),
    ({"task_order": [1, "x"]}, "config.task_order"),
    ({"model": []}, "config.model: must be an object"),
    # a repeated seed would train twice and count twice in the mean delta-m
    ({"seeds": [1, 1]}, "config.seeds"),
    # JSON and --set parse Infinity and NaN; a run with them dies at its first step
    (apply_dotted_overrides({}, ["lr=Infinity"]), "config.lr"),
    ({"data": {"noise": float("inf")}}, "config.data.noise"),
    ({"loss_scaling": {"scheme": "manual", "manual_ratios": [1.0, float("inf")]}},
     "config.loss_scaling.manual_ratios"),
    ({"loss_scaling": {"dwa_temperature": float("inf")}}, "config.loss_scaling.dwa_temperature"),
    ({"update_rule": {"eps": float("inf")}}, "config.update_rule.eps"),
    ({"data": {"depth_mix": [float("-inf"), 0.3]}}, "config.data.depth_mix"),
    ({"data": {"depth_mix": [0.7, float("nan")]}}, "config.data.depth_mix"),
    # without a trunk, each head's first layer reads the images
    (_model_override(trunk=[],
                     heads={"1": [{"in_channels": 5, "out_channels": 4, "kernel_size": 1}],
                            "2": [{"in_channels": 5, "out_channels": 1, "kernel_size": 1}]}),
     "config.data.channels"),
    ({"save_checkpoints": False}, "config.save_checkpoints"),
    # a task id names its synthetic target, and its loss must fit that target
    (_model_override(heads={"1": [_CONV_4_TO_1], "2": [_CONV_4_TO_1]},
                     tasks=[{"id": 1, "loss": "mse"}, {"id": 2, "loss": "mse"}]),
     "config.model.tasks: task 1 is the segmentation target"),
    (_model_override(heads={"1": [_CONV_4_TO_4], "2": [_CONV_4_TO_4]},
                     tasks=[{"id": 1, "loss": "cross_entropy"},
                            {"id": 2, "loss": "cross_entropy"}]),
     "config.model.tasks: task 2 is the depth target"),
    (_model_override(heads={"1": [_CONV_4_TO_4], "5": [_CONV_4_TO_1]},
                     tasks=[{"id": 1, "loss": "cross_entropy"}, {"id": 5, "loss": "mse"}]),
     "config.model.tasks: task 5 names no synthetic target"),
    # "²" is a digit to str.isdigit, and int() rejects it
    (_model_override(heads={"²": []}), "config.model.heads"),
    (_model_override(heads={"1": [_CONV_4_TO_4], "01": [_CONV_4_TO_4], "2": [_CONV_4_TO_1]}),
     "config.model.heads: must map distinct"),
    # train-mode batch norm in the trunk needs two values per channel in a batch
    ({"data": {"batch_size": 1, "height": 1, "width": 1}}, "config.data"),
    # the optimizer's and the loss weighting's own rules, run by from_dict
    ({"lr": 0}, "config.lr"),
    ({"update_rule": {"kind": "rmsprop"}}, "config.update_rule"),
    ({"loss_scaling": {"scheme": "gradnorm"}}, "config.loss_scaling.scheme"),
    ({"loss_scaling": {"scheme": "manual", "manual_ratios": [1.0]}},
     "config.loss_scaling.manual_ratios"),
    ({"loss_scaling": {"manual_ratios": "1,2"}}, "config.loss_scaling.manual_ratios"),
    # only ours reads a phase override; another method would record it and train without it
    ({"method": "gd", "phase_override": "phase1"}, "config.phase_override"),
])
def test_invalid_configs_fail_fast(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_dict(overrides)


_KINDS = {1: "cross_entropy", 2: "mse"}


@pytest.mark.parametrize("build, field", [
    (lambda: optimizers.OptimizerConfig(lr=True).validate((1, 2)), "lr"),
    (lambda: optimizers.OptimizerConfig(lr="0.1").validate((1, 2)), "lr"),
    # JSON reads a run of digits as an int, however far past the float range
    (lambda: optimizers.OptimizerConfig(lr=10**400).validate((1, 2)), "lr"),
    (lambda: optimizers.OptimizerConfig(adam_beta1=None).validate((1, 2)), "update_rule.beta1"),
    (lambda: optimizers.OptimizerConfig(adam_eps=True).validate((1, 2)), "update_rule.eps"),
    (lambda: make_loss_weighting("dwa", _KINDS, None, True, 0.1), "dwa_temperature"),
    (lambda: make_loss_weighting("dwa", _KINDS, None, "2", 0.1), "dwa_temperature"),
    (lambda: make_loss_weighting("equal", _KINDS, [True], 2.0, 0.1), "manual_ratios"),
    (lambda: make_loss_weighting("equal", _KINDS, [float("inf")], 2.0, 0.1), "manual_ratios"),
    (lambda: make_loss_weighting("equal", _KINDS, ["a"], 2.0, 0.1), "manual_ratios"),
    (lambda: make_loss_weighting("equal", _KINDS, "1", 2.0, 0.1), "manual_ratios"),
    (lambda: optimizers.PhaseSchedule(True, np.random.default_rng(0)), "total_epochs"),
    (lambda: evaluate_model(build_model(fast_config().model, seed=1),
                            training_dataset(fast_config(), 1), 2.5), "num_batches"),
], ids=["lr=True", "lr='0.1'", "lr=10**400", "beta1=None", "eps=True", "temperature=True", "temperature='2'",
        "ratios=[True]", "ratios=[inf]", "ratios=['a']", "ratios='1'", "total_epochs=True",
        "num_batches=2.5"])
def test_components_check_their_own_settings_types(build, field):
    # the Python API reaches each component without from_dict, so each checks
    # its settings' types as well as their ranges
    with pytest.raises(ConfigError, match=f"^{re.escape(field)}: "):
        build()


def test_out_dir_must_be_a_path_string():
    # the run writes its files under out_dir; a number would end in a traceback
    with pytest.raises(ConfigError, match="config.out_dir: must be a path string"):
        ExperimentConfig.from_dict(apply_dotted_overrides({}, ["out_dir=5"]))


def test_benchmark_workload_configs_build(monkeypatch):
    # the benchmark's configs live outside the package; a spec change that
    # breaks one should fail here, not only when the benchmark runs
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    workloads = importlib.import_module("workloads")
    for workload in workloads.WORKLOADS.values():
        config = ExperimentConfig.from_dict(workload.overrides)
        optimizers.MtlOptimizer(build_model(config.model, seed=config.seeds[0]), config.optimizer)
        assert set(config.loss_weighting().weights()) == set(config.model.task_ids)


def test_one_pixel_batch_trains_without_trunk_batch_norm():
    # only train-mode batch norm needs two values per channel in a batch
    trunk = [{"in_channels": 3, "out_channels": 4, "kernel_size": 3, "batch_norm": False},
             {**_TRUNK_4_TO_4, "batch_norm": False}]
    config = fast_config(data={"batch_size": 1, "height": 1, "width": 1},
                         **_model_override(trunk=trunk))
    report = run_experiment(config)
    assert not report.failed and not report.violations


def test_every_module_but_autodiff_fails_a_test_on_a_runtime_warning(pytestconfig):
    # pyproject.toml turns a RuntimeWarning into an error in every module but
    # autodiff, whose overflow check may warn; pytest matches a filter's
    # module field as a regex from the start of the module name
    package = os.path.dirname(optimizers.__file__)
    modules = {"mtlopt" if name == "__init__.py" else f"mtlopt.{name[:-3]}"
               for name in os.listdir(package) if name.endswith(".py")}
    assert {"mtlopt.optimizers", "mtlopt.autodiff"} <= modules
    patterns = [(f.split(":") + [""] * 4)[3] for f in pytestconfig.getini("filterwarnings")
                if f.split(":")[:3] == ["error", "", "RuntimeWarning"]]
    erroring = {m for m in modules if any(re.match(p, m) for p in patterns)}
    assert erroring == modules - {"mtlopt.autodiff"}


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # the traced benchmark patches package names from outside; a renamed
    # step method or function should fail here, not crash the traced run
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    original_step = optimizers.MtlOptimizer.__dict__["pcgrad_step"]
    original_projection = optimizers.project_gradient
    try:
        layers.install(tracer)
        assert optimizers.MtlOptimizer.__dict__["pcgrad_step"] is not original_step
        assert optimizers.project_gradient is not original_projection
    finally:
        tracer.restore()
    assert optimizers.MtlOptimizer.__dict__["pcgrad_step"] is original_step
    assert optimizers.project_gradient is original_projection


def test_benchmark_call_counts_match_closed_form(monkeypatch, tmp_path):
    # the traced benchmark requires every call count to equal its closed
    # form (one project_gradient per non-owner per group, one zero_grad per
    # task pass, ...), identical evaluate_model calls to agree, and every
    # report fingerprint to hold across its untraced and traced passes; a
    # change that breaks one should fail here, on every workload
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    layers = importlib.import_module("layers")
    workloads = importlib.import_module("workloads")
    Clock = importlib.import_module("clock").Clock
    Tracer = importlib.import_module("tracer").Tracer
    for name, workload in workloads.WORKLOADS.items():
        inputs = workloads.make_inputs(workloads.smoke_workload(workload), 1)
        outcome, fingerprints, tracer = workloads.Outcome(), {}, Tracer()
        with Clock() as clock:
            time.sleep(0.06)  # past the clock's first calibration tick, which measure needs
            layers.run_pass(inputs, outcome, str(tmp_path), fingerprints, clock, None)
            rounds = layers.run_pass(inputs, outcome, str(tmp_path), fingerprints, clock, tracer)
        counts = {span: len(spans) for span, spans in tracer.total_s.items()}
        expected = layers.expected_calls(inputs, rounds)
        assert {span: counts.get(span, 0) for span in expected} == expected, name
        assert counts["optimizers.project_gradient"] > 0, name
        assert len(fingerprints) == len(workloads.METHODS) * layers.pass_seeds(inputs), name
        assert outcome.failed == 0, (name, outcome.failures)


def test_headless_task_reads_the_trunk_channels():
    # task 1 has no head, so its logits are the trunk's 4 output channels
    config = fast_config(**_model_override(heads={"2": [_CONV_4_TO_1]}))
    report = run_experiment(config)
    assert not report.failed and not report.violations


def test_dotted_overrides():
    out = apply_dotted_overrides({}, ["epochs=3", "data.noise=0.2",
                                      "loss_scaling.scheme=dwa", "out_dir=runs/x"])
    assert out == {"epochs": 3, "data": {"noise": 0.2},
                   "loss_scaling": {"scheme": "dwa"}, "out_dir": "runs/x"}


# ---------------------------------------------------------------------------
# run shapes and logs
# ---------------------------------------------------------------------------

def test_gd_single_epoch_row_without_phase_entries():
    report = run_experiment(fast_config(epochs=1, method="gd"))
    rows = report.seed_results[0].rows
    assert len(rows) == 1
    log = report.seed_results[0].log_rows
    assert all(entry["phase"] is None and entry["p"] is None for entry in log)


def test_ours_logs_phase_draws():
    report = run_experiment(fast_config(epochs=3, method="ours"))
    log = report.seed_results[0].log_rows
    assert len(log) == 3
    for entry in log:
        assert entry["phase"] in ("phase1", "phase2")
        assert 0.0 <= entry["p"] < 1.0


def test_run_determinism_bitwise(tmp_path):
    dirs = []
    for i in range(2):
        report = run_experiment(fast_config(epochs=2, method="ours"))
        out = tmp_path / f"run{i}"
        write_report(report, str(out))
        dirs.append(out)
    for name in ("metrics.csv", "run_log.jsonl", "strength.jsonl"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_metrics_rows_count_multi_seed(tmp_path):
    config = fast_config(epochs=3, seeds=[1, 2, 3])
    report = run_experiment(config)
    write_report(report, str(tmp_path))
    rows = read_metrics(str(tmp_path / "metrics.csv"))
    assert len(rows) == 3 * 3


def test_metrics_roundtrip_exact(tmp_path):
    report = run_experiment(fast_config(epochs=2))
    write_report(report, str(tmp_path))
    rows = read_metrics(str(tmp_path / "metrics.csv"))
    source = report.seed_results[0].rows
    for row, epoch_row in zip(rows, source):
        for tid in (1, 2):
            assert row[f"train_loss_{tid}"] == epoch_row.train_loss[tid]
            assert row[f"eval_loss_{tid}"] == epoch_row.eval_loss[tid]
            assert row[f"metric_{tid}"] == epoch_row.metric[tid]
        assert row["delta_m"] is None  # no baselines configured


def test_empty_report_writes_valid_header(tmp_path):
    report = RunReport(ExperimentConfig.from_dict({}).to_dict(), [])
    write_report(report, str(tmp_path))
    assert read_metrics(str(tmp_path / "metrics.csv")) == []
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "ok"


def test_summary_names_numpy_blas_and_thread_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    report = run_experiment(fast_config(epochs=1, steps_per_epoch=1))
    write_report(report, str(tmp_path))
    numerics = json.loads((tmp_path / "summary.json").read_text())["numerics"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert numerics == {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None},
        # the BLAS read its variables when it loaded, so it keeps its count
        "blas_threads": runner.blas_threads(),
        "cpu_count": os.cpu_count(),
    }
    # the byte-compared files stay free of them
    for name in ("metrics.csv", "run_log.jsonl", "strength.jsonl"):
        text = (tmp_path / name).read_text()
        assert "THREADS" not in text and np.__version__ not in text


def test_blas_threads_reports_the_count_a_child_starts_with():
    if runner.blas_threads() is None:
        pytest.skip("numpy's BLAS reports no thread count")
    code = "from mtlopt.runner import blas_threads; print(blas_threads())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True,
                          env={**verification.child_environment(), "OPENBLAS_NUM_THREADS": "1"})
    assert proc.stdout.strip() == "1"


# the wide-trunk model; seed 1 draws phase 1, then phase 2. Batch 16 of 16x16 is the
# wide-trunk workload's shape; batch 5 of 13x13 makes the 845-column products whose
# last bits OpenBLAS rounded differently on 1 and 2 threads in other product forms
_WIDE_SHAPES = ({"batch_size": 16, "height": 16, "width": 16},
                {"batch_size": 5, "height": 13, "width": 13})
_WIDE = {
    "epochs": 2, "steps_per_epoch": 2, "seeds": [1], "eval_batches": 1,
    "model": {"trunk": [{"in_channels": 3, "out_channels": 16, "kernel_size": 3},
                        {"in_channels": 16, "out_channels": 16, "kernel_size": 3}],
              "heads": {"1": [{"in_channels": 16, "out_channels": 4, "kernel_size": 1}],
                        "2": [{"in_channels": 16, "out_channels": 1, "kernel_size": 1}]},
              "tasks": [{"id": 1, "loss": "cross_entropy"}, {"id": 2, "loss": "mse"}]},
}
_HASH_REPORTS = """
import hashlib, json, sys, tempfile
from mtlopt import ExperimentConfig, run_experiment, write_report
from mtlopt.runner import DETERMINISTIC_FILES, blas_threads
digests = {}
for shape, config in enumerate(json.loads(sys.argv[1])):
    for method in ("ours", "gd", "pcgrad"):
        report = run_experiment(ExperimentConfig.from_dict({**config, "method": method}))
        assert not report.failed and not report.violations
        if method == "ours":
            assert {row["phase"] for row in report.seed_results[0].log_rows} == {"phase1", "phase2"}
        with tempfile.TemporaryDirectory() as out:
            write_report(report, out)
            for name in DETERMINISTIC_FILES:
                with open(f"{out}/{name}", "rb") as fh:
                    digests[f"{shape}/{method}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps({"blas_threads": blas_threads(), "digests": digests}))
"""


def test_output_bytes_do_not_depend_on_the_blas_thread_count():
    if (os.cpu_count() or 1) < 2 or runner.blas_threads() is None:
        pytest.skip("needs two CPUs and a BLAS that reports its thread count")
    configs = json.dumps([{**_WIDE, "data": shape} for shape in _WIDE_SHAPES])
    children = [subprocess.Popen([sys.executable, "-c", _HASH_REPORTS, configs],
                                 stdout=subprocess.PIPE, text=True,
                                 env={**verification.child_environment(),
                                      "OPENBLAS_NUM_THREADS": str(threads)})
                for threads in (1, 2)]
    outputs = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    one, two = map(json.loads, outputs)
    assert (one["blas_threads"], two["blas_threads"]) == (1, 2)
    assert one["digests"] == two["digests"]


@pytest.mark.parametrize("num_batches", [0, -1])
def test_evaluate_model_refuses_a_batch_count_below_one(monkeypatch, num_batches):
    config = fast_config()
    dataset = training_dataset(config, 1)
    built = []
    monkeypatch.setattr(dataset, "eval_batch", lambda idx: built.append(idx))
    with pytest.raises(ConfigError, match="num_batches"):
        evaluate_model(build_model(config.model, seed=1), dataset, num_batches)
    assert built == []


def test_phase_override_forces_single_phase():
    report = run_experiment(fast_config(epochs=3, method="ours", phase_override="phase2"))
    log = report.seed_results[0].log_rows
    assert all(entry["phase"] == "phase2" for entry in log)


def test_runs_train_on_the_training_dataset(monkeypatch):
    # criterion 7 draws its probe batches from training_dataset, so the
    # runner must take its data from the same helper
    made = []
    helper = runner.training_dataset

    def recording(config, seed):
        made.append((seed, helper(config, seed)))
        return made[-1][1]

    monkeypatch.setattr(runner, "training_dataset", recording)
    config = fast_config(seeds=[5], epochs=1)
    assert not run_experiment(config).failed
    assert [seed for seed, _ in made] == [5]
    assert made[0][1].seed != training_dataset(config, 6).seed


def _model_bytes(model):
    arrays = {name: p.data for name, p in model.named_parameters().items()}
    arrays.update(model.named_buffers())
    return {name: arr.tobytes() for name, arr in arrays.items()}


@pytest.mark.parametrize("with_baselines", [False, True], ids=["plain", "baselines"])
def test_a_seed_trains_the_same_alone_and_after_another(tmp_path, with_baselines):
    # verification reads each seed's model out of one multi-seed report, so a
    # seed must not depend on the seeds trained before it
    overrides = {"epochs": 3, "method": "ours"}
    if with_baselines:
        overrides["baselines"] = write_baselines({"tasks": {
            "1": {"metric": "pixel_accuracy", "lower_is_better": False, "baseline": 0.5},
            "2": {"metric": "rmse", "lower_is_better": True, "baseline": 1.0}}}, str(tmp_path))
    pair = run_experiment(fast_config(seeds=[1, 2], **overrides)).seed_results[1]
    alone = run_experiment(fast_config(seeds=[2], **overrides)).seed_results[0]
    assert pair.seed == alone.seed == 2 and not pair.error
    assert _model_bytes(pair.model) == _model_bytes(alone.model)
    assert repr(pair.rows) == repr(alone.rows)
    assert all(row.delta_m is not None for row in pair.rows) == with_baselines
    for key in ("log_rows", "strength_rows"):
        assert json.dumps(getattr(pair, key)) == json.dumps(getattr(alone, key)), key


def test_priority_audit_reads_trained_models_and_trains_nothing(monkeypatch):
    report = run_experiment(fast_config(epochs=2, seeds=[1, 2], method="ours"))
    before = [_model_bytes(r.model) for r in report.seed_results]

    def no_training(*args, **kwargs):
        raise AssertionError("the priority audit must not train")

    monkeypatch.setattr(runner, "_run_seed", no_training)
    monkeypatch.setattr(verification, "run_experiment", no_training)
    agreement = verification.measure_priority_agreement(report)
    assert 0.0 <= agreement <= 1.0
    assert verification.measure_priority_agreement(report) == agreement
    assert [_model_bytes(r.model) for r in report.seed_results] == before


_SEED_2_ERROR = "seed 2, epoch 3, step 1: NumericError: task 2: mse_loss: non-finite values"
_SEED_2_VIOLATION = ("epoch 0 step 1: block shared (trunk.0.weight, trunk.1.weight) "
                     "written 2x, expected 1")


@pytest.mark.parametrize("kind", ["error", "violation"])
@pytest.mark.parametrize("criterion", [7, 8])
def test_criteria_7_and_8_name_the_failed_seed(monkeypatch, kind, criterion):
    bad = SeedResult(seed=2)
    if kind == "error":
        bad.error = _SEED_2_ERROR
    else:
        bad.violations = [_SEED_2_VIOLATION, "epoch 0 step 2: a later violation"]
    monkeypatch.setattr(verification, "run_experiment",
                        lambda config: RunReport(config.to_dict(), [SeedResult(seed=1), bad]))
    monkeypatch.setattr(verification, "run_single_task_baselines", lambda config: {"tasks": {}})
    if criterion == 7:
        result, method = verification.check_phase1_alignment(seeds=(1, 2)), "phase1"
    else:
        result, method = verification.check_end_to_end(seeds=(1, 2)), "ours"
    where = _SEED_2_ERROR if kind == "error" else f"seed 2, {_SEED_2_VIOLATION}"
    assert not result.passed
    assert result.detail == f"{method} run failed at {where}"


@pytest.mark.parametrize("gaps, passed", [
    ((0.1, 0.2), True),
    ((0.1, -0.2), False),
    ((0.1, 0.2, -0.1, 0.3, 0.4), True),
    ((0.1, -0.2, -0.1, 0.3, 0.4), False),
])
def test_criterion_7_needs_four_fifths_of_its_seeds(monkeypatch, gaps, passed):
    # each phase-1 model's cosine is its seed's gap, and each gd model's 0
    def fake_run(config):
        variant = "gd" if config.phase_override is None else "phase1"
        return RunReport(config.to_dict(), [SeedResult(seed=s, model=(variant, s))
                                            for s in config.seeds])

    monkeypatch.setattr(verification, "run_experiment", fake_run)
    monkeypatch.setattr(verification, "training_dataset",
                        lambda config, seed: SimpleNamespace(batch=lambda step: None))
    monkeypatch.setattr(verification, "mean_pairwise_gradient_cosine",
                        lambda model, probes: gaps[model[1] - 1] if model[0] == "phase1" else 0.0)
    seeds = tuple(range(1, len(gaps) + 1))
    result = verification.check_phase1_alignment(seeds=seeds)
    wins, need = sum(g > 0 for g in gaps), {2: 2, 5: 4}[len(seeds)]
    assert result.passed == passed
    assert result.detail == (f"phase-1 cosine beats GD in {wins}/{len(seeds)} seeds "
                             f"(gaps {list(gaps)}, need >= {need}/{len(seeds)})")


# ---------------------------------------------------------------------------
# baselines and delta-m
# ---------------------------------------------------------------------------

def test_baselines_and_delta_m(tmp_path):
    baselines = run_single_task_baselines(fast_config(epochs=2))
    assert set(baselines["tasks"]) == {"1", "2"}
    assert baselines["tasks"]["1"]["metric"] == "pixel_accuracy"
    assert baselines["tasks"]["2"]["metric"] == "rmse"

    # metric and lower_is_better are for the file's readers: a run reads only
    # the numbers, so a file that states both wrongly for both tasks, or
    # leaves them out, gives the delta-m of the file that baseline writes
    numbers = {tid: {"baseline": entry["baseline"]}
               for tid, entry in baselines["tasks"].items()}
    wrong = {"1": {**numbers["1"], "metric": "rmse", "lower_is_better": True},
             "2": {**numbers["2"], "metric": "pixel_accuracy", "lower_is_better": False}}
    columns = []
    for name, tasks in (("written", baselines["tasks"]), ("wrong", wrong), ("numbers", numbers)):
        path = write_baselines({"tasks": tasks}, str(tmp_path / name))
        report = run_experiment(fast_config(epochs=2, baselines=path))
        columns.append([row.delta_m for row in report.seed_results[0].rows])
    assert None not in columns[0]
    assert columns[1] == columns[0] and columns[2] == columns[0]


def test_a_task_trains_alone_under_its_own_id():
    # the single-task baseline of task 2 is this run: task 2 alone, trained with gd
    model = default_model_dict()
    alone = fast_config(method="gd", model={"trunk": model["trunk"],
                                            "heads": {"2": model["heads"]["2"]},
                                            "tasks": [{"id": 2, "loss": "mse"}]})
    report = run_experiment(alone)
    assert not report.failed and not report.violations
    baselines = run_single_task_baselines(fast_config())
    assert baselines["tasks"]["2"]["per_seed"] == {"1": report.seed_results[0].final_metric[2]}


def _seed_1_fails_at_epoch_2(tmp_path, monkeypatch) -> RunReport:
    """A 3-epoch run of seeds 1 and 2 in which seed 1 fails at epoch 2, step
    1, and seed 2 trains to the end."""
    real_step = runner.MtlOptimizer.step
    calls = {"n": 0}

    def failing_step(self, batch, weights, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2 * 2 + 2:
            raise NumericError("mse_loss: produced non-finite values")
        return real_step(self, batch, weights, **kwargs)

    monkeypatch.setattr(runner.MtlOptimizer, "step", failing_step)
    path = write_baselines({"tasks": {
        "1": {"metric": "pixel_accuracy", "lower_is_better": False, "baseline": 0.5},
        "2": {"metric": "rmse", "lower_is_better": True, "baseline": 1.0}}}, str(tmp_path))
    return run_experiment(fast_config(epochs=3, seeds=[1, 2], baselines=path))


def test_failed_seed_keeps_its_finished_epochs(tmp_path, monkeypatch, capsys):
    report = _seed_1_fails_at_epoch_2(tmp_path, monkeypatch)
    failed, finished = report.seed_results
    assert failed.error == ("seed 1, epoch 2, step 1: "
                            "NumericError: mse_loss: produced non-finite values")
    assert [row.epoch for row in failed.rows] == [0, 1]
    assert [row["epoch"] for row in failed.log_rows] == [0, 1]
    assert {row["epoch"] for row in failed.strength_rows} == {0, 1, 2}
    assert failed.model is None and not failed.final_eval
    assert finished.error is None and len(finished.rows) == 3
    assert report.failed
    assert report.mean_final_delta_m() == finished.rows[-1].delta_m

    out = tmp_path / "report"
    write_report(report, str(out))
    assert [(row["seed"], row["epoch"]) for row in read_metrics(str(out / "metrics.csv"))] == \
        [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["errors"] == {"1": failed.error}
    assert summary["failures"] == {"1": {"epoch": 2, "step": 1, "stage": "step", "task": None,
                                         "error_type": "NumericError"}}
    for key in ("per_seed_final_eval", "per_seed_final_metric", "per_seed_final_delta_m"):
        assert set(summary[key]) == {"2"}
    # the failed seed's two epochs are too few for the trend correlation
    capsys.readouterr()
    assert cli_main(["report", "--dir", str(out)]) == 0
    assert "(1 seed(s) with fewer than 3 epochs left out)" in capsys.readouterr().out


def test_delta_m_is_scored_after_training_for_every_kept_row(tmp_path, monkeypatch):
    # a failed seed's finished epochs are scored too, against the baselines
    # that _seed_1_fails_at_epoch_2 writes
    report = _seed_1_fails_at_epoch_2(tmp_path, monkeypatch)
    baselines, losses = {1: 0.5, 2: 1.0}, {1: "cross_entropy", 2: "mse"}
    rows = [row for result in report.seed_results for row in result.rows]
    assert [(row.seed, row.epoch) for row in rows] == [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    for row in rows:
        assert row.delta_m == evaluation.delta_m(row.metric, baselines, losses)


def test_report_names_the_stopped_seeds(tmp_path, monkeypatch, capsys):
    out = tmp_path / "report"
    write_report(_seed_1_fails_at_epoch_2(tmp_path, monkeypatch), str(out))
    capsys.readouterr()
    assert cli_main(["report", "--dir", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "final epoch 2, mean over 1 of 2 seed(s)"
    stopped = lines.index("stopped seeds:")
    assert lines[stopped + 1] == ("  seed 1 at epoch 2, stage step: seed 1, epoch 2, step 1: "
                                  "NumericError: mse_loss: produced non-finite values")
    assert not any("seed 2" in line for line in lines)


def test_failed_loss_weighting_is_labelled(monkeypatch):
    def failing_update(self, epoch_mean_losses):
        raise NumericError("dwa: non-finite epoch loss")

    monkeypatch.setattr(DynamicWeightAverage, "after_epoch", failing_update)
    report = run_experiment(fast_config(epochs=2, loss_scaling={"scheme": "dwa"}))
    failed = report.seed_results[0]
    assert failed.error == ("seed 1, epoch 0, loss weighting: "
                            "NumericError: dwa: non-finite epoch loss")
    assert failed.failure == {"epoch": 0, "step": None, "stage": "loss weighting",
                              "task": None, "error_type": "NumericError"}
    assert failed.rows == []


def test_failed_setup_has_no_epoch_or_step(monkeypatch):
    def failing_build(spec, seed):
        raise ShapeError("conv2d: bad weight")

    monkeypatch.setattr(runner, "build_model", failing_build)
    failed = run_experiment(fast_config(epochs=1)).seed_results[0]
    assert failed.error == "seed 1, setup: ShapeError: conv2d: bad weight"
    assert failed.failure == {"epoch": None, "step": None, "stage": "setup", "task": None,
                              "error_type": "ShapeError"}


def test_failed_seed_names_the_task(tmp_path):
    # a step size of 1000 blows the mse task's prediction up in epoch 8
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_experiment(ExperimentConfig.from_dict(
            {"epochs": 10, "steps_per_epoch": 5, "lr": 1000.0, "method": "gd"}))
    failed = report.seed_results[0]
    assert failed.error == ("seed 1, epoch 8, step 4: "
                            "NumericError: task 2: mse_loss: produced non-finite values")
    assert len(failed.rows) == 8
    write_report(report, str(tmp_path))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["failures"] == {"1": {"epoch": 8, "step": 4, "stage": "step", "task": 2,
                                         "error_type": "NumericError"}}


def test_pcgrad_is_covered_by_the_projection_invariant(monkeypatch):
    # with the projection switched off, conflicting pcgrad gradients must
    # show up as violations of the post-projection check
    monkeypatch.setattr(optimizers, "project_gradient", lambda g, ref: g)
    report = run_experiment(ExperimentConfig.from_dict(
        {"epochs": 1, "steps_per_epoch": 3, "seeds": [3], "method": "pcgrad"}))
    assert report.seed_results[0].log_rows[0]["conflicts"]["shared"] > 0
    assert any(v.endswith("still conflicts after projection") for v in report.violations)


def test_write_count_check_names_the_block(monkeypatch):
    # one gd step applies the shared block twice; the step check must name
    # the block, its parameters, and both counts
    apply = optimizers.MtlOptimizer._apply
    doubled = []

    def twice_once(self, result, key, grad):
        apply(self, result, key, grad)
        if key == SHARED and not doubled:
            doubled.append(key)
            apply(self, result, key, grad)

    monkeypatch.setattr(optimizers.MtlOptimizer, "_apply", twice_once)
    report = run_experiment(fast_config(epochs=1, method="gd"))
    assert report.violations == [
        "epoch 0 step 0: block shared (trunk.0.weight, trunk.1.weight) written 2x, expected 1"]


def test_delta_m_refuses_missing_baselines():
    config = fast_config(epochs=1, baselines="/nonexistent/baselines.json")
    with pytest.raises(ConfigError, match="baseline"):
        run_experiment(config)


@pytest.mark.parametrize("text, reason", [
    ('{"tasks": ', "JSONDecodeError"),
    ('{"tasks": {"1": {"metric": "rmse"}}}', "KeyError: 'baseline'"),
    # float() would read true as 1.0 and "2" as 2.0
    ('{"tasks": {"2": {"metric": "rmse", "lower_is_better": true, "baseline": true}}}',
     "task 2: baseline must be a finite number, got True"),
    ('{"tasks": {"2": {"metric": "rmse", "lower_is_better": true, "baseline": "2"}}}',
     "task 2: baseline must be a finite number, got '2'"),
    ('{"tasks": {"2": {"metric": "rmse", "lower_is_better": true, "baseline": NaN}}}',
     "task 2: baseline must be a finite number, got nan"),
    ('{"tasks": {"2": {"metric": "rmse", "lower_is_better": true, "baseline": 0}}}',
     "task 2: baseline of 0 makes the ratio undefined"),
    ('{"tasks": {}}', "does not cover the configured tasks: missing [1, 2], extra []"),
    ('{"tasks": {"1": {"baseline": 0.5}, "01": {"baseline": 0.9}, "2": {"baseline": 1.0}}}',
     "names a task under two keys"),
    (json.dumps({"tasks": {str(tid): {"metric": "rmse", "lower_is_better": True, "baseline": 1.0}
                           for tid in (1, 2, 3)}}),
     "does not cover the configured tasks: missing [], extra [3]"),
])
def test_cli_rejects_malformed_baselines_file(tmp_path, capsys, text, reason):
    path = tmp_path / "baselines.json"
    path.write_text(text)
    assert cli_main(["run", "--set", f"baselines={path}", "--set", "epochs=1",
                     "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: baselines file {path}: ") and reason in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("finite", [True, False], ids=["pass", "raises"])
def test_model_passes_restore_the_callers_ufunc_buffer(monkeypatch, finite):
    # training and eval passes run with row-sized ufunc buffers and give the
    # caller's size back, also when they raise
    config = fast_config()
    model = build_model(config.model, seed=1)
    if not finite:
        model.named_parameters()["trunk.0.weight"].data[...] = np.nan
    dataset = training_dataset(config, 1)
    seen = []
    conv2d = Tape.conv2d

    def recording(self, *args, **kwargs):
        seen.append(np.getbufsize())
        return conv2d(self, *args, **kwargs)

    monkeypatch.setattr(Tape, "conv2d", recording)
    passes = (lambda: per_task_gradients(model, dataset.batch(0), task=1),
              lambda: evaluate_model(model, dataset, 1))
    saved = np.setbufsize(4096)
    try:
        for run_pass in passes:
            if finite:
                run_pass()
            else:
                with pytest.raises(NumericError, match="conv2d: produced non-finite values"):
                    run_pass()
            assert np.getbufsize() == 4096
    finally:
        np.setbufsize(saved)
    assert len(seen) >= 2 and set(seen) == {ROW_BUFSIZE}


# ---------------------------------------------------------------------------
# loss-scaling schemes end to end
# ---------------------------------------------------------------------------

def test_dwa_scheme_logs_weights_summing_to_k():
    config = fast_config(epochs=4, loss_scaling={"scheme": "dwa", "manual_ratios": None,
                                                 "dwa_temperature": 2.0})
    report = run_experiment(config)
    for entry in report.seed_results[0].log_rows:
        total = sum(entry["weights"].values())
        assert total == pytest.approx(2.0, abs=1e-9)


def test_uncertainty_scheme_adapts_weights():
    config = fast_config(epochs=4, loss_scaling={"scheme": "uncertainty",
                                                 "manual_ratios": None,
                                                 "dwa_temperature": 2.0})
    report = run_experiment(config)
    log = report.seed_results[0].log_rows
    first, last = log[0]["weights"], log[-1]["weights"]
    assert first != last  # rho parameters moved


def test_manual_scheme_end_to_end():
    config = fast_config(epochs=2, loss_scaling={"scheme": "manual",
                                                 "manual_ratios": [1.0, 3.0],
                                                 "dwa_temperature": 2.0})
    report = run_experiment(config)
    entry = report.seed_results[0].log_rows[0]
    assert entry["weights"] == {"1": 1.0, "2": 3.0}


def test_adam_update_rule_end_to_end():
    config = fast_config(epochs=2, update_rule={"kind": "adam", "beta1": 0.9,
                                                "beta2": 0.999, "eps": 1e-8})
    report = run_experiment(config)
    assert not report.failed and not report.violations


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_and_report(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(FAST))
    out_dir = tmp_path / "out"
    code = cli_main(["run", "--config", str(config_path), "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "metrics.csv").exists()
    code = cli_main(["report", "--dir", str(out_dir)])
    assert code == 0
    captured = capsys.readouterr()
    assert "metric_1" in captured.out


def _report_on_an_edited_summary(tmp_path, capsys, edit):
    """Lines and stderr of ``mtlopt report`` on a 3-epoch run of seed 1
    whose summary.json ``edit`` rewrites."""
    out = tmp_path / "out"
    write_report(run_experiment(fast_config(epochs=3, steps_per_epoch=1)), str(out))
    path = out / "summary.json"
    path.write_text(edit(path.read_text()))
    capsys.readouterr()
    assert cli_main(["report", "--dir", str(out)]) == 0
    captured = capsys.readouterr()
    return captured.out.splitlines(), captured.err, path


# entries that are not a message under a seed or a failure object under a seed
_BAD_STOPPED_SEEDS = {
    "failures-list": {"errors": {"1": "x"}, "failures": []},
    "failure-list": {"errors": {"1": "x"}, "failures": {"1": []}},
    "failure-null": {"failures": {"1": None}},
    "seedless-error": {"errors": {"x": "y"}},
}


@pytest.mark.parametrize("summary", ["cut", "[]", *_BAD_STOPPED_SEEDS])
def test_report_survives_an_unreadable_summary(tmp_path, capsys, summary):
    def edit(text):
        if summary in _BAD_STOPPED_SEEDS:
            return json.dumps({**json.loads(text), **_BAD_STOPPED_SEEDS[summary]})
        return {"cut": text[:100], "[]": "[]"}[summary]

    lines, err, path = _report_on_an_edited_summary(tmp_path, capsys, edit)
    assert lines[0] == "final epoch 2, mean over 1 of 1 seed(s)"
    assert lines[1].startswith("  ours: metric_1=")
    assert "training-loss trend correlation (mean over seeds):" in lines
    assert f"unreadable {path}" in err


def test_report_names_a_negative_stopped_seed(tmp_path, capsys):
    # a seed may be negative, so "-1" is as much a seed key as "1"
    def edit(text):
        return json.dumps({**json.loads(text), "errors": {"-1": "x"},
                           "failures": {"-1": {"epoch": 0, "stage": "step"}}})

    lines, err, _ = _report_on_an_edited_summary(tmp_path, capsys, edit)
    assert lines[0] == "final epoch 2, mean over 1 of 2 seed(s)"
    assert lines[lines.index("stopped seeds:") + 1] == "  seed -1 at epoch 0, stage step: x"
    assert "unreadable" not in err


def test_cli_baseline_subcommand(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(FAST))
    out_dir = tmp_path / "bl"
    code = cli_main(["baseline", "--config", str(config_path), "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "baselines.json").exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"epochs": -1}))
    code = cli_main(["run", "--config", str(config_path)])
    assert code == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"epochs": 3,')
    missing = tmp_path / "missing.json"
    for path in (bad_json, missing):
        capsys.readouterr()
        assert cli_main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config file {path}: ")
    # --method sets config.method, whose one check is the optimizer's
    for method in ("mgda", ""):
        assert cli_main(["run", "--method", method, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: config.method: ")
    assert not (tmp_path / "out").exists()


def test_cli_verify_subcommand(capsys):
    assert cli_main(["verify", "--fast", "--criteria", "1,2,6,9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in lines[:-1]] == [
        "criterion 1", "criterion 2", "criterion 6", "criterion 9"]
    assert lines[-1] == "verification: ALL PASSED"


@pytest.mark.parametrize("criteria", ["11", "1,x"])
def test_cli_verify_rejects_unknown_criteria(capsys, criteria):
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", "--criteria", criteria])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "criterion numbers from 1 to 10" in captured.err and captured.out == ""


def test_cli_set_overrides(tmp_path):
    out_dir = tmp_path / "out"
    code = cli_main(["run", "--set", "epochs=1", "--set", "steps_per_epoch=1",
                     "--set", "data.height=8", "--set", "data.width=8",
                     "--seed", "3", "--out-dir", str(out_dir)])
    assert code == 0
    rows = read_metrics(str(out_dir / "metrics.csv"))
    assert len(rows) == 1 and rows[0]["seed"] == 3


@pytest.mark.parametrize("subcommand", ["run", "baseline"])
def test_cli_refuses_an_out_dir_it_cannot_make_before_training(tmp_path, monkeypatch, capsys,
                                                                subcommand):
    def no_training(config):
        raise AssertionError("trained before the out_dir check")

    monkeypatch.setattr("mtlopt.cli.run_experiment", no_training)
    monkeypatch.setattr(runner, "run_experiment", no_training)
    blocker = tmp_path / "file"
    blocker.write_text("")
    capsys.readouterr()
    assert cli_main([subcommand, "--set", "epochs=1", "--set", "steps_per_epoch=1",
                     "--out-dir", str(blocker / "sub")]) == 2
    assert capsys.readouterr().err.startswith(f"error: config.out_dir: {blocker / 'sub'}: ")


_ONE_TASK_HEADER = ("seed,method,epoch,train_loss_1,eval_loss_1,metric_1,weight_1,share_1,"
                    "delta_m")


@pytest.mark.parametrize("text, message", [
    ("a,b\n1,2\n", "not the metrics file of a run: no column 'seed'"),
    ("seed,method,epoch\n1,ours,0\n1,ours,1\n1,ours,2\n",
     "not the metrics file of a run: no column 'train_loss_<id>'"),
    (f"{_ONE_TASK_HEADER}\n1,ours,0,0.5,0.5,abc,1.0,1.0,\n",
     "line 2, column metric_1: bad value 'abc'"),
], ids=["foreign-header", "no-task-columns", "bad-value"])
def test_report_refuses_a_metrics_file_no_run_wrote(tmp_path, capsys, text, message):
    (tmp_path / "metrics.csv").write_text(text)
    capsys.readouterr()
    assert cli_main(["report", "--dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {tmp_path / 'metrics.csv'}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("make, reason", [
    (lambda path: path.mkdir(), "IsADirectoryError"),
    (lambda path: path.write_bytes(b"seed,\xffmethod\n"), "UnicodeDecodeError"),
], ids=["directory", "not-utf-8"])
def test_report_refuses_a_metrics_file_it_cannot_read_as_text(tmp_path, capsys, make, reason):
    make(tmp_path / "metrics.csv")
    capsys.readouterr()
    assert cli_main(["report", "--dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: {tmp_path / 'metrics.csv'}: cannot read as text: {reason}: ")
    assert captured.out == ""
