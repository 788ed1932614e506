"""Acceptance suite: every criterion as an executable check.

Each check prints one pass/fail line; ``run_all`` executes them in order.
The same functions back the pytest acceptance module and the ``verify``
CLI subcommand. Each check's defaults are its criterion's full sample
sizes; ``fast`` mode passes ``FAST_SIZES`` instead, for smoke testing only.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .autodiff import BatchNormState, Tape, Tensor
from .config import ExperimentConfig
from .gradcheck import central_difference, relative_error
from .loss_scaling import make_loss_weighting
from .network import Batch, ConvSpec, ModelSpec, TaskSpec, build_model
from .optimizers import (PHASE1, PROJECTION_DOT_FLOOR, MtlOptimizer, OptimizerConfig,
                         PhaseSchedule, project_gradient)
from .quadratics import (
    convergence_probe,
    make_conflicting_quadratic,
    make_quadratic_problem,
    model_priority_oracle,
    oracle_priority_partition,
    priority_update_check,
)
from .rng import substream
from .runner import DETERMINISTIC_FILES, RunReport, mean_pairwise_gradient_cosine, \
    run_experiment, run_single_task_baselines, training_dataset, write_baselines
from .strength import (
    channel_owners,
    layer_strength_report,
    model_strength_snapshot,
    normalized_strength,
)


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.criterion} ({self.name}): {status} - {self.detail} [{self.seconds:.1f}s]"


def _timed(criterion: int, name: str, fn) -> CheckResult:
    start = time.time()
    passed, detail = fn()
    return CheckResult(criterion, name, passed, detail, time.time() - start)


# ---------------------------------------------------------------------------
# criterion 1: gradient exactness
# ---------------------------------------------------------------------------

def _gradcheck_case(rng: np.random.Generator, op: str) -> float:
    """Build one randomized graph for the operator; return the relative error
    of its analytic gradient against central differences."""
    params: list[Tensor] = []

    if op == "conv2d":
        n, ci, co = rng.integers(1, 3), rng.integers(1, 3), rng.integers(1, 3)
        k = int(rng.choice([1, 3]))
        h = int(rng.integers(1, k + 3))  # some images smaller than the kernel
        x = Tensor(rng.normal(size=(n, ci, h, h)))
        w = Tensor(rng.normal(size=(co, ci, k, k)))
        b = Tensor(rng.normal(size=co) * 0.2)
        t = rng.normal(size=(n, co, h, h))
        params = [x, w, b]

        def build(tape: Tape) -> Tensor:
            return tape.mse_loss(tape.conv2d(x, w, b), Tensor(t))

    elif op in ("batchnorm_train", "batchnorm_eval"):
        c = int(rng.integers(1, 4))
        y = Tensor(rng.normal(size=(2, c, 3, 3)) * rng.uniform(0.5, 2.0))
        state = BatchNormState.fresh(c)
        state.gamma.data[...] = rng.normal(size=c)
        state.beta.data[...] = rng.normal(size=c)
        state.running_mean[...] = rng.normal(size=c) * 0.3
        state.running_var[...] = rng.uniform(0.2, 2.0, size=c)
        t = rng.normal(size=(2, c, 3, 3))
        mode = "train" if op == "batchnorm_train" else "eval"
        rm, rv = state.running_mean.copy(), state.running_var.copy()
        params = [y, state.gamma, state.beta]

        def build(tape: Tape) -> Tensor:
            state.running_mean[...] = rm
            state.running_var[...] = rv
            out = tape.task_batchnorm(y, state, mode=mode)
            return tape.mse_loss(out, Tensor(t))

    elif op == "relu":
        x = Tensor(rng.normal(size=(3, 4)) + np.where(rng.random(size=(3, 4)) > 0.5, 0.3, -0.3))
        t = rng.normal(size=(3, 4))
        params = [x]

        def build(tape: Tape) -> Tensor:
            return tape.mse_loss(tape.relu(x), Tensor(t))

    elif op == "mse":
        p = Tensor(rng.normal(size=(2, 3)))
        t = Tensor(rng.normal(size=(2, 3)))
        params = [p, t]

        def build(tape: Tape) -> Tensor:
            return tape.mse_loss(p, t)

    elif op == "cross_entropy":
        c = int(rng.integers(2, 5))
        logits = Tensor(rng.normal(size=(2, c, 2, 2)))
        labels = rng.integers(0, c, size=(2, 2, 2))
        params = [logits]

        def build(tape: Tape) -> Tensor:
            return tape.cross_entropy_loss(logits, labels)

    else:  # scale
        a = Tensor(rng.normal(size=(3,)))
        c = float(rng.normal())
        t = rng.normal(size=3)
        params = [a]

        def build(tape: Tape) -> Tensor:
            return tape.mse_loss(tape.scale(a, c), Tensor(t))

    tape = Tape()
    loss = build(tape)
    tape.backward(loss)
    worst = 0.0
    for param in params:
        analytic = param.grad.copy()
        numeric = central_difference(lambda: build(Tape(record=False)).item(), param.data)
        worst = max(worst, relative_error(analytic, numeric))
    return worst


GRADCHECK_OPS = ("conv2d", "batchnorm_train", "batchnorm_eval", "relu", "mse",
                 "cross_entropy", "scale")


def check_gradient_exactness(cases_per_op: int = 100) -> CheckResult:
    def run():
        worst_overall = 0.0
        worst_op = ""
        for op in GRADCHECK_OPS:
            rng = substream(101, f"gradcheck-{op}")
            for _ in range(cases_per_op):
                err = _gradcheck_case(rng, op)
                if err > worst_overall:
                    worst_overall, worst_op = err, op
        passed = worst_overall < 1e-4
        return passed, (f"{len(GRADCHECK_OPS)} operators x {cases_per_op} cases, "
                        f"worst rel err {worst_overall:.2e} ({worst_op})")
    return _timed(1, "gradient exactness", run)


# ---------------------------------------------------------------------------
# criterion 2: strength equations
# ---------------------------------------------------------------------------

def _hand_strength(weight: np.ndarray, gamma: float, var: float, eps: float) -> float:
    """Raw strength of a one-output-channel layer, as training's snapshot computes it."""
    state = BatchNormState.fresh(1)
    state.gamma.data[...] = gamma
    state.running_var[...] = var
    return float(layer_strength_report("hand", weight, {1: state}, (1,), eps=eps).raw[0, 0])


def check_strength_suite(tables: int = 1000) -> CheckResult:
    def run():
        # gamma^2 / (var + eps) = 1 isolates the kernel strength
        w = np.zeros((1, 1, 1, 1))
        w[0, 0, 0, 0] = 3.0
        if abs(_hand_strength(w, 1.0, 1.0, eps=0.0) - 9.0) > 1e-12:
            return False, "single-element kernel strength"
        if abs(_hand_strength(np.ones((1, 1, 2, 2)), 1.0, 1.0, eps=0.0) - 1.0) > 1e-12:
            return False, "all-ones 2x2 kernel strength"
        if abs(_hand_strength(np.ones((1, 5, 1, 1)), 2.0, 3.0, eps=1.0) - 5.0) > 1e-12:
            return False, "channel strength substitution"
        norm = normalized_strength(np.array([[1.0, 3.0]]))
        if abs(norm[0, 0] - 0.25) > 1e-12 or abs(norm[0, 1] - 0.75) > 1e-12:
            return False, "normalization of (1, 3)"

        rng = substream(202, "strength-tables")
        for _ in range(tables):
            k = int(rng.integers(1, 5))
            c = int(rng.integers(1, 9))
            raw = rng.uniform(0.0, 10.0, size=(k, c))
            if rng.random() < 0.1:
                raw[rng.integers(0, k)] = 0.0  # exercise the zero-row guard
            norm = normalized_strength(raw)
            if np.abs(norm.sum(axis=1) - 1.0).max() > 1e-9:
                return False, "row normalization"
            ids = tuple(range(1, k + 1))
            owners = channel_owners(norm, ids)
            row = int(rng.integers(0, k))
            scaled = raw.copy()
            scaled[row] *= float(rng.uniform(0.01, 100.0))
            if not np.array_equal(channel_owners(normalized_strength(scaled), ids), owners):
                return False, "argmax invariance under row scaling"
        return True, f"hand values exact, {tables} random tables hold both properties"
    return _timed(2, "strength equations", run)


# ---------------------------------------------------------------------------
# criterion 3: projection contract
# ---------------------------------------------------------------------------

def _random_toy_model_and_batch(rng: np.random.Generator):
    width = int(rng.integers(3, 7))
    classes = int(rng.integers(2, 5))
    spec = ModelSpec(
        trunk=(ConvSpec(2, width, kernel_size=3), ConvSpec(width, width, kernel_size=1)),
        heads={1: (ConvSpec(width, classes, kernel_size=1),),
               2: (ConvSpec(width, 1, kernel_size=1),)},
        tasks=(TaskSpec(1, "cross_entropy"), TaskSpec(2, "mse")))
    model = build_model(spec, seed=int(rng.integers(0, 2 ** 32)))
    h = int(rng.integers(4, 7))
    batch = Batch(x=rng.normal(size=(2, 2, h, h)),
                  targets={1: rng.integers(0, classes, size=(2, h, h)),
                           2: rng.normal(size=(2, 1, h, h))})
    return model, batch


def check_projection_contract(models: int = 20, steps: int = 3,
                              vector_pairs: int = 10_000) -> CheckResult:
    def run():
        rng = substream(303, "projection-models")
        worst_dot = 0.0
        projections_seen = 0
        for _ in range(models):
            model, batch = _random_toy_model_and_batch(rng)
            opt = MtlOptimizer(model, OptimizerConfig(lr=0.05))
            for _ in range(steps):
                weights = {1: float(rng.uniform(0.2, 2.0)), 2: float(rng.uniform(0.2, 2.0))}
                owners = {layer: report.owners
                          for layer, report in model_strength_snapshot(model).items()}
                result = opt.phase2_step(batch, weights, owners)
                projections_seen += sum(result.projections.values())
                for p in result.projected:
                    worst_dot = min(worst_dot, float(p.result @ p.reference))
        if worst_dot < PROJECTION_DOT_FLOOR:
            return False, f"post-projection dot {worst_dot:.2e} below {PROJECTION_DOT_FLOOR:g}"
        if projections_seen == 0:
            return False, "no projections occurred; fixture is vacuous"

        prng = substream(304, "projection-pairs")
        for _ in range(vector_pairs):
            dim = int(prng.integers(1, 30))
            g = prng.normal(size=dim) * 10 ** prng.uniform(-3, 3)
            ref = prng.normal(size=dim) * 10 ** prng.uniform(-3, 3)
            once = project_gradient(g, ref)
            if not np.array_equal(once, project_gradient(once, ref)):
                return False, "projection not idempotent"
            if np.linalg.norm(once) > np.linalg.norm(g) + 1e-12:
                return False, "projection increased the norm"
        return True, (f"{models} models x {steps} phase-2 steps "
                      f"({projections_seen} projections, worst dot {worst_dot:.1e}); "
                      f"{vector_pairs} vector pairs idempotent and norm-bounded")
    return _timed(3, "projection contract", run)


# ---------------------------------------------------------------------------
# criterion 4: priority-update dominance
# ---------------------------------------------------------------------------

def check_priority_update_dominance(instances: int = 1000) -> CheckResult:
    def run():
        holds = 0
        for s in range(instances):
            rng = substream(s, "priority-update-mc")
            dim = int(rng.integers(1, 9))
            k = int(rng.integers(2, 5))
            problem = make_quadratic_problem(dim, k, float(rng.uniform(0, 1)), seed=s,
                                             task_dim=int(rng.integers(0, dim + 1)))
            theta = rng.normal(size=problem.dim)
            w = rng.uniform(0.1, 1.0, size=k)
            w /= w.sum()
            owners = oracle_priority_partition(problem, theta, w, eta=1e-3)
            holds += priority_update_check(problem, theta, owners, w, eta=1e-3).holds
        rate = holds / instances
        return rate >= 0.99, f"holds in {holds}/{instances} ({100 * rate:.1f}%, need >= 99%)"
    return _timed(4, "priority-update dominance", run)


# ---------------------------------------------------------------------------
# criterion 5: phase-2 convergence
# ---------------------------------------------------------------------------

def check_convergence(instances: int = 100) -> CheckResult:
    def run():
        converged = 0
        worst_exponent = -np.inf
        worst_iters = 0
        for s in range(instances):
            rng = substream(s, "convergence-mc")
            k = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 5))
            problem = make_conflicting_quadratic(dim, k, seed=s, conflict=1.0)
            eta = 0.5 / problem.lipschitz  # within gd's descent bound 1/(H sum w) = 1/H
            res = convergence_probe(problem, "phase2", eta, max_iters=100_000,
                                    weights=np.full(k, 1.0 / k), stop_functional=1e-16)
            if res.converged_iteration is not None:
                converged += 1
                worst_iters = max(worst_iters, res.converged_iteration)
            worst_exponent = max(worst_exponent, res.fitted_exponent)
        passed = converged == instances and worst_exponent <= -0.9
        return passed, (f"{converged}/{instances} below 1e-6 (worst at iteration "
                        f"{worst_iters}), worst min-prefix exponent {worst_exponent:.2f} "
                        f"(need <= -0.9)")
    return _timed(5, "phase-2 convergence", run)


# ---------------------------------------------------------------------------
# criterion 6: phase mixing statistics
# ---------------------------------------------------------------------------

def check_phase_mixing(draws: int = 100_000) -> CheckResult:
    def run():
        total_epochs = 100
        details = []
        for ratio in (0.0, 0.25, 0.5, 0.75, 1.0):
            epoch = int(ratio * total_epochs)
            schedule = PhaseSchedule(total_epochs, substream(606, f"phase-mixing-{ratio}"))
            hits = sum(schedule.draw(epoch).phase == PHASE1 for _ in range(draws))
            expected = 1.0 - ratio
            sigma = math.sqrt(max(expected * (1 - expected), 0.0) / draws)
            deviation = abs(hits / draws - expected)
            details.append(f"e/E={ratio}: {deviation:.2e}")
            if deviation > 3 * sigma + 1e-12:
                return False, f"e/E={ratio}: deviation {deviation:.2e} > 3 sigma {3 * sigma:.2e}"
        return True, f"{draws} draws per ratio within 3 sigma ({'; '.join(details)})"
    return _timed(6, "phase mixing statistics", run)


# ---------------------------------------------------------------------------
# criterion 7: phase-1 alignment
# ---------------------------------------------------------------------------

def _run_failure(method: str, report: RunReport) -> str | None:
    """The method, seed and first error or invariant violation of the
    report's first bad seed; None when every seed trained cleanly."""
    for r in report.seed_results:
        if r.error or r.violations:
            return f"{method} run failed at {r.error or f'seed {r.seed}, {r.violations[0]}'}"
    return None


def check_phase1_alignment(seeds=(1, 2, 3, 4, 5), epochs: int = 50,
                           steps_per_epoch: int = 3, probe_batches: int = 30) -> CheckResult:
    def run():
        cosines = {}
        for variant, overrides in (("phase1", {"method": "ours", "phase_override": "phase1"}),
                                   ("gd", {"method": "gd"})):
            config = ExperimentConfig.from_dict({"epochs": epochs, "seeds": list(seeds),
                                                 "steps_per_epoch": steps_per_epoch, **overrides})
            report = run_experiment(config)
            if failure := _run_failure(variant, report):
                return False, failure
            cosines[variant] = []
            for result in report.seed_results:
                dataset = training_dataset(config, result.seed)
                probes = [dataset.batch(epochs * steps_per_epoch + i)
                          for i in range(probe_batches)]
                cosines[variant].append(mean_pairwise_gradient_cosine(result.model, probes))
        gaps = [a - b for a, b in zip(cosines["phase1"], cosines["gd"])]
        wins = sum(gap > 0 for gap in gaps)
        need = math.ceil(4 * len(seeds) / 5)  # 4 of the full check's 5 seeds
        return wins >= need, (f"phase-1 cosine beats GD in {wins}/{len(seeds)} seeds "
                              f"(gaps {[round(g, 3) for g in gaps]}, "
                              f"need >= {need}/{len(seeds)})")
    return _timed(7, "phase-1 alignment", run)


# ---------------------------------------------------------------------------
# criterion 8: desk-scale end-to-end
# ---------------------------------------------------------------------------

def measure_priority_agreement(report: RunReport, eta: float = 1e-3) -> float:
    """Fraction of trunk channels whose strength owner matches the
    direct-evaluation priority owner, over the trained models of an ``ours``
    report, each probed on the training batch after its last step (phase 1 is
    supposed to write the learned priorities into the strengths). Trains
    nothing; the heuristic coincidence is reported, never asserted."""
    config = ExperimentConfig.from_dict(report.config)
    agree = total = 0
    for result in report.seed_results:
        model = result.model
        batch = training_dataset(config, result.seed).batch(config.epochs * config.steps_per_epoch)
        task_ids = model.spec.task_ids
        weights = dict.fromkeys(task_ids, 1.0 / len(task_ids))  # the default equal weights
        for layer, strength in model_strength_snapshot(model).items():
            oracle = model_priority_oracle(model, batch, layer, weights, eta)
            agree += int(np.count_nonzero(strength.owners == oracle))
            total += strength.num_channels
    return agree / total if total else 0.0


def check_end_to_end(seeds=(1, 2, 3, 4, 5)) -> CheckResult:
    def run():
        with tempfile.TemporaryDirectory() as tmp:
            base = {"seeds": list(seeds)}
            baselines = run_single_task_baselines(ExperimentConfig.from_dict(base))
            path = write_baselines(baselines, tmp)
            means, reports = {}, {}
            for method in ("ours", "gd", "pcgrad"):
                config = ExperimentConfig.from_dict(
                    {**base, "method": method, "baselines": path})
                reports[method] = run_experiment(config)
                if failure := _run_failure(method, reports[method]):
                    return False, failure
                means[method] = reports[method].mean_final_delta_m()
            agreement = measure_priority_agreement(reports["ours"])
        ok = means["ours"] > means["gd"] and means["ours"] >= means["pcgrad"]
        return ok, (f"mean delta_m: ours {means['ours']:+.4f}, gd {means['gd']:+.4f}, "
                    f"pcgrad {means['pcgrad']:+.4f} (need ours > gd and ours >= pcgrad); "
                    f"strength owners match oracle priority on {100 * agreement:.0f}% of "
                    f"trunk channels (not asserted)")
    return _timed(8, "desk-scale end-to-end", run)


# ---------------------------------------------------------------------------
# criterion 9: loss-scaling suite
# ---------------------------------------------------------------------------

def check_loss_scaling(fd_draws: int = 100, dwa_epochs: int = 200) -> CheckResult:
    def run():
        kinds = {1: "cross_entropy", 2: "mse", 3: "mse", 4: "mse"}
        ratios = make_loss_weighting("manual", kinds, (1.0, 1.0, 10.0, 50.0), 2.0, 0.1)
        if list(ratios.weights().values()) != [1.0, 1.0, 10.0, 50.0]:
            return False, "manual ratios not passed through verbatim"

        dwa = make_loss_weighting("dwa", {1: "mse", 2: "mse", 3: "mse"}, None, 2.0, 0.1)
        rng = substream(909, "dwa-epochs")
        for _ in range(dwa_epochs):
            dwa.after_epoch({tid: float(rng.uniform(0.01, 5.0)) for tid in (1, 2, 3)})
            total = sum(dwa.weights().values())
            if abs(total - 3.0) > 1e-9:
                return False, f"dwa weights sum {total!r} != K"
        constant = make_loss_weighting("dwa", {1: "mse", 2: "mse"}, None, 2.0, 0.1)
        constant.after_epoch({1: 0.7, 2: 1.9})
        constant.after_epoch({1: 0.7, 2: 1.9})
        if max(abs(w - 1.0) for w in constant.weights().values()) > 1e-12:
            return False, "dwa under constant losses is not the all-ones vector"

        rng = substream(910, "uncertainty-fd")
        worst = 0.0
        for _ in range(fd_draws):
            kind = "mse" if rng.random() < 0.5 else "cross_entropy"
            uncertainty = make_loss_weighting("uncertainty", {1: kind}, None, 2.0, 0.1)
            rho = uncertainty.rho[1]
            rho[...] = rng.normal()
            loss_value = float(rng.uniform(0.01, 10.0))
            c = 0.5 if kind == "mse" else 1.0

            def value():
                # Kendall et al. 2018: c * L / sigma^2 + log(sigma), rho = log(sigma^2)
                return c * loss_value * math.exp(-float(rho)) + float(rho) / 2

            analytic = np.array(uncertainty.rho_gradient({1: loss_value})[1])
            worst = max(worst, relative_error(analytic, central_difference(value, rho)))
        if worst >= 1e-6:
            return False, f"uncertainty gradient rel err {worst:.2e} >= 1e-6"
        return True, (f"dwa sums to K over {dwa_epochs} epochs and is all-ones under "
                      f"constant losses; manual ratios verbatim; {fd_draws} uncertainty "
                      f"gradients match FD (worst {worst:.1e})")
    return _timed(9, "loss-scaling suite", run)


# ---------------------------------------------------------------------------
# criterion 10: determinism
# ---------------------------------------------------------------------------

def child_environment() -> dict[str, str]:
    """This environment with this package's directory first on PYTHONPATH, so
    that a child ``python`` imports this package and no other mtlopt."""
    path = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return {**os.environ, "PYTHONPATH": path}


def check_determinism() -> CheckResult:
    def run():
        with tempfile.TemporaryDirectory() as tmp:
            config_path = os.path.join(tmp, "config.json")
            with open(config_path, "w") as fh:
                json.dump({"epochs": 3, "steps_per_epoch": 3, "seeds": [7]}, fh)
            outputs = []
            for attempt in range(2):
                out_dir = os.path.join(tmp, f"run{attempt}")
                proc = subprocess.run(
                    [sys.executable, "-m", "mtlopt", "run", "--config", config_path,
                     "--out-dir", out_dir],
                    capture_output=True, text=True, env=child_environment())
                if proc.returncode != 0:
                    return False, f"run subcommand failed: {proc.stderr.strip()[:200]}"
                outputs.append(out_dir)
            for name in DETERMINISTIC_FILES:
                a = open(os.path.join(outputs[0], name), "rb").read()
                b = open(os.path.join(outputs[1], name), "rb").read()
                if a != b:
                    return False, f"{name} differs between identical executions"
        return True, "two run-subcommand executions produced bit-identical metrics and logs"
    return _timed(10, "determinism", run)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

FAST_SIZES = {1: {"cases_per_op": 10}, 2: {"tables": 100}, 3: {"models": 4, "vector_pairs": 500},
              4: {"instances": 100}, 5: {"instances": 10}, 6: {"draws": 5_000},
              7: {"seeds": (1, 2)}, 8: {"seeds": (1, 2)}, 9: {"fd_draws": 10}}
CHECKS = {1: check_gradient_exactness, 2: check_strength_suite, 3: check_projection_contract,
          4: check_priority_update_dominance, 5: check_convergence, 6: check_phase_mixing,
          7: check_phase1_alignment, 8: check_end_to_end, 9: check_loss_scaling,
          10: check_determinism}


def run_all(fast: bool = False, selected: set[int] | None = None) -> list[CheckResult]:
    results = []
    for number, check in CHECKS.items():
        if selected is not None and number not in selected:
            continue
        result = check(**(FAST_SIZES.get(number, {}) if fast else {}))
        print(result.line(), flush=True)
        results.append(result)
    print("verification:", "ALL PASSED" if all(r.passed for r in results) else "FAILURES")
    return results
