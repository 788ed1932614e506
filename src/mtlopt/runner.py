"""Configuration-driven experiment runner.

One run trains the configured method for every seed, records per-epoch
metrics, the phase/projection run log, and per-layer strength snapshots,
and writes them as plot-ready files. Every byte of the metrics and log
files is determined by (config, seed); wall-clock timestamps appear only
in the summary.
"""
from __future__ import annotations

import csv
import ctypes
import glob
import json
import os
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .config import ExperimentConfig, default_config_dict
from .errors import ConfigError, DataError, MtloptError
from .evaluation import METRICS, check_baselines, delta_m, priority_share
from .network import SHARED, Batch, Model, build_model, per_task_gradients
from .optimizers import METHOD_OURS, PHASE1, PROJECTION_DOT_FLOOR, MtlOptimizer, PhaseSchedule
from .rng import substream
from .strength import model_strength_snapshot, snapshot_records
from .synthetic import SyntheticMtlDataset
from .autodiff import Tape, _row_sized_buffers

METRICS_FILE = "metrics.csv"
RUN_LOG_FILE = "run_log.jsonl"
STRENGTH_FILE = "strength.jsonl"
SUMMARY_FILE = "summary.json"
BASELINES_FILE = "baselines.json"


@dataclass
class EpochRow:
    seed: int
    method: str
    epoch: int
    train_loss: dict[int, float]
    eval_loss: dict[int, float]
    metric: dict[int, float]
    weight: dict[int, float]
    share: dict[int, float]
    delta_m: float | None = None  # scored after training, when baselines are configured


@dataclass
class SeedResult:
    seed: int
    rows: list[EpochRow] = field(default_factory=list)
    log_rows: list[dict] = field(default_factory=list)
    strength_rows: list[dict] = field(default_factory=list)
    final_eval: dict[int, float] = field(default_factory=dict)
    final_metric: dict[int, float] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    error: str | None = None
    # where a failed seed stopped: epoch, step, stage, task and error_type,
    # each None where it does not apply
    failure: dict | None = None
    model: Model | None = field(default=None, repr=False)  # trained model, in-memory only


@dataclass
class RunReport:
    config: dict
    seed_results: list[SeedResult]

    @property
    def failed(self) -> bool:
        return any(r.error for r in self.seed_results)

    @property
    def violations(self) -> list[str]:
        return [v for r in self.seed_results for v in r.violations]

    def mean_final_delta_m(self) -> float | None:
        values = [r.rows[-1].delta_m for r in self.seed_results
                  if not r.error and r.rows and r.rows[-1].delta_m is not None]
        return float(np.mean(values)) if values else None


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------

def evaluate_model(model: Model, dataset: SyntheticMtlDataset, num_batches: int
                   ) -> tuple[dict[int, float], dict[int, float]]:
    """Held-out (eval-mode) per-task losses and metrics over num_batches;
    each task's metric is the one ``evaluation.METRICS`` gives its loss."""
    if num_batches < 1:
        raise ConfigError(f"num_batches: must be a positive integer, got {num_batches}")
    task_ids = model.spec.task_ids
    loss_totals = {tid: 0.0 for tid in task_ids}
    metric_totals = {tid: 0.0 for tid in task_ids}
    counts = {tid: 0 for tid in task_ids}
    # batches are built outside the row-sized buffers, which speed up only
    # the model's per-channel math
    batches = [dataset.eval_batch(idx) for idx in range(num_batches)]
    # forward-only: one tape that records nothing serves every pass
    tape = Tape(record=False)
    with _row_sized_buffers():
        for batch in batches:
            for tid in task_ids:
                pred = model.forward(batch.x, tid, tape, mode="eval")
                kind = model.spec.task(tid).loss
                target = batch.targets[tid]
                loss_totals[tid] += tape.compute_loss(pred, target, kind).item()
                metric_totals[tid] += METRICS[kind].batch_sum(pred.data, target)
                counts[tid] += target.size
    losses = {tid: total / num_batches for tid, total in loss_totals.items()}
    metrics = {tid: METRICS[model.spec.task(tid).loss].finish(metric_totals[tid], counts[tid])
               for tid in task_ids}
    return losses, metrics


def load_baselines(path: str, task_ids) -> dict[int, float]:
    """Each task's single-task baseline from the baselines file at ``path``,
    which must cover exactly ``task_ids``. Only the numbers are read: a
    task's metric and its direction come from its loss."""
    if not os.path.exists(path):
        raise ConfigError(f"baselines file not found: {path} (run the baseline subcommand)")
    try:
        with open(path) as fh:
            data = json.load(fh)
        baselines = {int(tid): entry["baseline"] for tid, entry in data["tasks"].items()}
        if len(baselines) != len(data["tasks"]):
            raise ConfigError("names a task under two keys")
        check_baselines(baselines, task_ids)
    except ConfigError as exc:
        raise ConfigError(f"baselines file {path}: {exc}") from exc
    except (OSError, ValueError, AttributeError, KeyError, TypeError) as exc:
        # ValueError covers a file that is not JSON
        raise ConfigError(f"baselines file {path}: not the JSON the baseline subcommand "
                          f"writes ({type(exc).__name__}: {exc})") from exc
    return baselines


def mean_pairwise_gradient_cosine(model: Model, batches: list[Batch]) -> float:
    """Mean cosine between task pairs' shared-parameter gradients."""
    task_ids = model.spec.task_ids
    cosines = []
    for batch in batches:
        flats = {}
        for tid in task_ids:
            _, flats[tid], _ = per_task_gradients(model, batch, tid, loss_weight=1.0)
        for i, a in enumerate(task_ids):
            for b in task_ids[i + 1:]:
                na, nb = np.linalg.norm(flats[a]), np.linalg.norm(flats[b])
                if na > 0 and nb > 0:
                    cosines.append(float(flats[a] @ flats[b] / (na * nb)))
    return float(np.mean(cosines)) if cosines else 0.0


# ---------------------------------------------------------------------------
# the run itself
# ---------------------------------------------------------------------------

def training_dataset(config: ExperimentConfig, seed: int) -> SyntheticMtlDataset:
    """The synthetic dataset that a run of ``seed`` trains and evaluates on."""
    return SyntheticMtlDataset(config.data, seed=int(substream(seed, "data").integers(0, 2 ** 63)))


def _run_seed(config: ExperimentConfig, seed: int) -> SeedResult:
    """Train one seed. An MtloptError ends the seed: the result keeps the
    rows of every finished epoch, gets no model or final values, and its
    error and failure fields name the seed, epoch, step, stage and task
    where training stopped."""
    result = SeedResult(seed=seed)
    spec = config.model
    task_ids = spec.task_ids
    k = len(task_ids)
    stage, epoch, step = "setup", None, None
    try:
        init_seed = int(substream(seed, "init").integers(0, 2 ** 63))
        model = build_model(spec, seed=init_seed)
        dataset = training_dataset(config, seed)
        weighting = config.loss_weighting()
        optimizer = MtlOptimizer(model, config.optimizer)
        schedule = PhaseSchedule(config.epochs, substream(seed, "phase-draw"))

        for epoch in range(config.epochs):
            stage, step = "strength snapshot", None
            snapshot = model_strength_snapshot(model)
            result.strength_rows.extend(snapshot_records(seed, epoch, snapshot))
            owners = {layer: report.owners for layer, report in snapshot.items()}

            phase = None
            drawn_p = None
            if config.method == METHOD_OURS:
                if config.phase_override is not None:
                    phase = config.phase_override
                else:
                    draw = schedule.draw(epoch)
                    phase, drawn_p = draw.phase, draw.p

            epoch_weights = weighting.weights()
            loss_totals = {tid: 0.0 for tid in task_ids}
            conflicts: dict[str, int] = {}
            projections: dict[str, int] = {}
            stage = "step"
            for step in range(config.steps_per_epoch):
                batch = dataset.batch(epoch * config.steps_per_epoch + step)
                step_result = optimizer.step(batch, weighting.weights(), phase=phase,
                                             owners=owners)
                weighting.after_step(step_result.losses)
                for tid, value in step_result.losses.items():
                    loss_totals[tid] += value
                for name, n in step_result.conflicts.items():
                    conflicts[name] = conflicts.get(name, 0) + n
                for name, n in step_result.projections.items():
                    projections[name] = projections.get(name, 0) + n
                _check_step_invariants(result, optimizer, step_result, phase, k, epoch, step)

            stage, step = "loss weighting", None
            epoch_mean = {tid: total / config.steps_per_epoch
                          for tid, total in loss_totals.items()}
            weighting.after_epoch(epoch_mean)

            stage = "evaluation"
            evals, metrics = evaluate_model(model, dataset, config.eval_batches)
            shares = _mean_priority_shares(owners, task_ids)
            result.rows.append(EpochRow(seed, config.method, epoch, epoch_mean, evals,
                                        metrics, epoch_weights, shares))
            result.log_rows.append({
                "seed": seed, "epoch": epoch, "p": drawn_p, "phase": phase,
                "losses": {str(t): epoch_mean[t] for t in task_ids},
                "weights": {str(t): epoch_weights[t] for t in task_ids},
                "conflicts": conflicts, "projections": projections,
            })
    except MtloptError as exc:
        error_type = type(exc).__name__
        result.failure = {"epoch": epoch, "step": step, "stage": stage, "task": exc.task,
                          "error_type": error_type}
        where = ("" if epoch is None else f"epoch {epoch}, ") + \
            (stage if step is None else f"step {step}")
        result.error = f"seed {seed}, {where}: {error_type}: {exc}"
        return result

    result.final_eval = result.rows[-1].eval_loss
    result.final_metric = result.rows[-1].metric
    result.model = model
    return result


def _mean_priority_shares(owners: Mapping[str, np.ndarray], task_ids) -> dict[int, float]:
    """Each task's owned fraction of a layer's channels, averaged over the layers."""
    shares = [priority_share(layer_owners, task_ids) for layer_owners in owners.values()]
    return {tid: sum(s[tid] for s in shares) / len(shares) if shares else 0.0
            for tid in task_ids}


def _check_step_invariants(result: SeedResult, optimizer: MtlOptimizer, step_result,
                           phase, k: int, epoch: int, step: int) -> None:
    members = optimizer.layout.members
    for block, writes in optimizer.last_step_writes.items():
        expected = k if block == SHARED and phase == PHASE1 else 1
        if writes != expected:
            result.violations.append(
                f"epoch {epoch} step {step}: block {block} ({', '.join(members[block])}) "
                f"written {writes}x, expected {expected}")
    for p in step_result.projected:
        if float(p.result @ p.reference) < PROJECTION_DOT_FLOOR:
            result.violations.append(
                f"epoch {epoch} step {step}: {p.layer} task {p.task} (reference task "
                f"{p.reference_task}) still conflicts after projection")


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Train every seed; deterministic per (config, seed). Configured baselines
    are read before the first seed and, after the last, score every kept row."""
    baselines = None
    if config.baselines_path:
        baselines = load_baselines(config.baselines_path, config.model.task_ids)
    results = [_run_seed(config, seed) for seed in config.seeds]
    if baselines is not None:
        losses = {t.id: t.loss for t in config.model.tasks}
        for row in (row for result in results for row in result.rows):
            row.delta_m = delta_m(row.metric, baselines, losses)
    return RunReport(config.to_dict(), results)


# ---------------------------------------------------------------------------
# single-task baselines
# ---------------------------------------------------------------------------

def single_task_config(config: ExperimentConfig, task_id: int) -> ExperimentConfig:
    """Same trunk and data, one task under its own id, trained with GD."""
    task = config.model.task(task_id)
    overrides = config.to_dict()
    model = overrides["model"]
    head = model["heads"].get(str(task_id), [])
    overrides["model"] = {
        "trunk": model["trunk"],
        "heads": {str(task_id): head},
        "tasks": [{"id": task_id, "loss": task.loss}],
    }
    overrides.update(method="gd", phase_override=None, baselines=None,
                     loss_scaling=default_config_dict()["loss_scaling"])
    return ExperimentConfig.from_dict(overrides)


def run_single_task_baselines(config: ExperimentConfig) -> dict:
    """Train each task alone and collect its final metric per seed."""
    tasks = {}
    for task_id in config.model.task_ids:
        single = single_task_config(config, task_id)
        report = run_experiment(single)
        if report.failed:
            errors = [r.error for r in report.seed_results if r.error]
            raise ConfigError(f"single-task baseline for task {task_id} failed: {errors}")
        per_seed = {str(r.seed): r.final_metric[task_id] for r in report.seed_results}
        metric = METRICS[config.model.task(task_id).loss]
        # metric and lower_is_better are for readers; a run reads only baseline
        tasks[str(task_id)] = {
            "metric": metric.name,
            "lower_is_better": metric.lower_is_better,
            "baseline": float(np.mean(list(per_seed.values()))),
            "per_seed": per_seed,
        }
    return {"tasks": tasks}


def write_baselines(baselines: dict, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, BASELINES_FILE)
    with open(path, "w") as fh:
        json.dump(baselines, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def _metric_columns(task_ids) -> list[str]:
    cols = ["seed", "method", "epoch"]
    for tid in task_ids:
        cols += [f"train_loss_{tid}", f"eval_loss_{tid}", f"metric_{tid}",
                 f"weight_{tid}", f"share_{tid}"]
    cols.append("delta_m")
    return cols


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> int | None:
    """The thread count numpy's bundled OpenBLAS reports, or None where it
    cannot be queried (another BLAS, or no bundled library)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        try:
            query = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (AttributeError, OSError):
            continue
        query.restype, query.argtypes = ctypes.c_int, []
        return int(query())
    return None


def numeric_environment() -> dict:
    """numpy's version, its BLAS and the thread settings of this process.

    A product large enough for the BLAS to split over threads can round
    differently in the last bit on another thread count, so a run's output
    bytes depend on these; None marks a variable that is not set.
    ``blas_threads`` is the count the BLAS itself reports, whichever
    variable or default set it.
    """
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {key: os.environ.get(key) for key in BLAS_THREAD_VARIABLES},
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
    }


def write_report(report: RunReport, out_dir: str) -> dict[str, str]:
    """Emit metrics.csv, run_log.jsonl, strength.jsonl, and summary.json."""
    os.makedirs(out_dir, exist_ok=True)
    task_ids = [t["id"] for t in report.config["model"]["tasks"]]
    paths = {}

    paths["metrics"] = os.path.join(out_dir, METRICS_FILE)
    with open(paths["metrics"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_metric_columns(task_ids))
        for res in report.seed_results:
            for row in res.rows:
                record = [row.seed, row.method, row.epoch]
                for tid in task_ids:
                    record += [repr(float(row.train_loss[tid])), repr(float(row.eval_loss[tid])),
                               repr(float(row.metric[tid])), repr(float(row.weight[tid])),
                               repr(float(row.share[tid]))]
                record.append("" if row.delta_m is None else repr(float(row.delta_m)))
                writer.writerow(record)

    paths["run_log"] = os.path.join(out_dir, RUN_LOG_FILE)
    with open(paths["run_log"], "w") as fh:
        for res in report.seed_results:
            for row in res.log_rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    paths["strength"] = os.path.join(out_dir, STRENGTH_FILE)
    with open(paths["strength"], "w") as fh:
        for res in report.seed_results:
            for row in res.strength_rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    finished = [r for r in report.seed_results if not r.error]
    summary = {
        "config": report.config,
        "status": "failed" if report.failed else "ok",
        "violations": report.violations,
        "errors": {str(r.seed): r.error for r in report.seed_results if r.error},
        "failures": {str(r.seed): r.failure for r in report.seed_results if r.error},
        "per_seed_final_eval": {str(r.seed): {str(t): v for t, v in r.final_eval.items()}
                                for r in finished},
        "per_seed_final_metric": {str(r.seed): {str(t): v for t, v in r.final_metric.items()}
                                  for r in finished},
        "per_seed_final_delta_m": {str(r.seed): (r.rows[-1].delta_m if r.rows else None)
                                   for r in finished},
        "mean_final_delta_m": report.mean_final_delta_m(),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "numerics": numeric_environment(),
    }
    paths["summary"] = os.path.join(out_dir, SUMMARY_FILE)
    with open(paths["summary"], "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def read_metrics(path: str) -> list[dict]:
    """Parse a metrics.csv back into typed rows (exact float round trip); a header other
    than ``write_report``'s for its ``metric_<id>`` task ids, or a bad value, raises DataError."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        ids = [c.removeprefix("metric_") for c in header if c.startswith("metric_")]
        task_ids = [int(t) for t in ids if t.removeprefix("-").isdecimal()]
        missing = [c for c in _metric_columns(task_ids or ["<id>"]) if c not in header]
        if missing or header != _metric_columns(task_ids):
            problem = f"no column {missing[0]!r}" if missing else f"columns {header}"
            raise DataError(f"{path}: not the metrics file of a run: {problem}")
        for record in reader:
            rows.append({})
            for key, value in record.items():
                parse = str if key == "method" else int if key in ("seed", "epoch") else float
                try:
                    rows[-1][key] = None if key == "delta_m" and value == "" else parse(value)
                except (TypeError, ValueError):
                    raise DataError(f"{path}: line {reader.line_num}, column {key}: "
                                    f"bad value {value!r}") from None
    return rows
