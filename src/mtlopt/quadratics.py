"""Convex quadratic benchmark problems and brute-force oracles.

Each task's loss is ||A_i theta - b_i||^2 over a parameter vector that
splits into shared coordinates (seen by every task) and optional per-task
coordinate blocks (seen only by their task, mirroring the shared /
task-specific parameter partition of the trained networks). Because every
task can zero its own residual through its private block, a common
zero-gradient point exists even when the per-task minimizers are far
apart, so convergence of the projected dynamics is observable as all
shared gradients vanishing.

The priority oracle evaluates candidate updates by direct recomputation of
the total loss and is kept independent of the optimized update paths.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .rng import substream


@dataclass
class QuadraticProblem:
    """K convex quadratic task losses over one parameter vector."""

    matrices: list[np.ndarray]       # A_i, each (m_i, n)
    offsets: list[np.ndarray]        # b_i, each (m_i,)
    shared_dim: int                  # coordinates 0..shared_dim-1 are shared
    task_slices: list[slice]         # per-task private coordinate blocks (may be empty)
    lipschitz: float                 # H = max_i 2 * lambda_max(A_i^T A_i)

    @property
    def num_tasks(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[1]

    def loss(self, task: int, theta: np.ndarray) -> float:
        r = self.matrices[task] @ theta - self.offsets[task]
        return float(r @ r)

    def total_loss(self, theta: np.ndarray, weights: np.ndarray) -> float:
        return float(sum(w * self.loss(i, theta) for i, w in enumerate(weights)))

    def gradient(self, task: int, theta: np.ndarray) -> np.ndarray:
        a = self.matrices[task]
        return 2.0 * a.T @ (a @ theta - self.offsets[task])

    def shared_gradient(self, task: int, theta: np.ndarray) -> np.ndarray:
        return self.gradient(task, theta)[:self.shared_dim]

    def has_conflict(self, theta: np.ndarray) -> bool:
        """Any task pair with non-positive shared-gradient dot product."""
        grads = [self.shared_gradient(k, theta) for k in range(self.num_tasks)]
        for i in range(self.num_tasks):
            for j in range(i + 1, self.num_tasks):
                if float(grads[i] @ grads[j]) <= 0.0:
                    return True
        return False


def compute_lipschitz(matrices: Sequence[np.ndarray]) -> float:
    """H = max_i 2 * lambda_max(A_i^T A_i), the gradient Lipschitz constant."""
    return float(max(2.0 * np.linalg.eigvalsh(a.T @ a).max() for a in matrices))


def _conditioned_matrix(rng: np.random.Generator, rows: int, cols: int,
                        smin: float = 0.6, smax: float = 1.4) -> np.ndarray:
    """Random matrix with singular values sampled from [smin, smax]."""
    u, _ = np.linalg.qr(rng.normal(size=(rows, rows)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, cols)))
    s = np.zeros((rows, cols))
    np.fill_diagonal(s, rng.uniform(smin, smax, size=min(rows, cols)))
    return u @ s @ v.T


def make_quadratic_problem(dim: int, K: int, conflict: float, seed: int,
                           task_dim: int | None = None) -> QuadraticProblem:
    """Generate a K-task quadratic with minimizers separated by ``conflict``.

    ``dim`` is the number of shared coordinates; each task additionally owns
    ``task_dim`` private coordinates (defaults to ``dim``; 0 gives a purely
    shared problem). Task i's constructed minimizer displaces a common point
    by ``conflict`` along a random shared direction, so conflict 0 makes all
    minimizers coincide. Deterministic for fixed arguments.
    """
    if dim < 1:
        raise ConfigError("dim must be >= 1")
    if K < 2:
        raise ConfigError("K must be >= 2")
    if not 0.0 <= conflict <= 1.0:
        raise ConfigError("conflict level must lie in [0, 1]")
    td = dim if task_dim is None else int(task_dim)
    if td < 0:
        raise ConfigError("task_dim must be >= 0")
    rng = substream(seed, f"quadratic-{dim}-{K}-{td}")

    n = dim + K * td
    slices = [slice(dim + i * td, dim + (i + 1) * td) for i in range(K)]
    common = rng.normal(size=n) * 0.5

    matrices: list[np.ndarray] = []
    offsets: list[np.ndarray] = []
    m_rows = max(dim, td) if td > 0 else dim
    for i in range(K):
        a = np.zeros((m_rows, n))
        a[:, :dim] = _conditioned_matrix(rng, m_rows, dim)
        if td > 0:
            a[:, slices[i]] = _conditioned_matrix(rng, m_rows, td)
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        theta_star = common.copy()
        theta_star[:dim] += conflict * direction
        matrices.append(a)
        offsets.append(a @ theta_star)
    return QuadraticProblem(matrices, offsets, dim, slices, compute_lipschitz(matrices))


def make_conflicting_quadratic(dim: int, K: int, seed: int, conflict: float = 1.0,
                               task_dim: int | None = None,
                               max_tries: int = 64) -> QuadraticProblem:
    """A generated problem whose tasks conflict at the zero start point."""
    for attempt in range(max_tries):
        problem = make_quadratic_problem(dim, K, conflict, seed + 1_000_003 * attempt, task_dim)
        theta0 = np.zeros(problem.dim)
        if problem.has_conflict(theta0):
            return problem
    raise ConfigError(f"no conflicting instance found near seed {seed}")


# ---------------------------------------------------------------------------
# priority oracle and priority-update comparison
# ---------------------------------------------------------------------------

def oracle_priority_partition(problem: QuadraticProblem, theta: np.ndarray,
                              weights: np.ndarray, eta: float) -> np.ndarray:
    """Owner task per shared coordinate by direct loss evaluation.

    For each coordinate, every task's candidate step is evaluated in full;
    the argmin wins, ties go to the lowest task index.
    """
    grads = [problem.gradient(task, theta) for task in range(problem.num_tasks)]
    owners = np.zeros(problem.shared_dim, dtype=np.intp)
    for i in range(problem.shared_dim):
        best_task, best_loss = 0, np.inf
        for task in range(problem.num_tasks):
            candidate = theta.copy()
            candidate[i] -= eta * grads[task][i]
            loss = problem.total_loss(candidate, weights)
            if loss < best_loss - 1e-15:
                best_task, best_loss = task, loss
        owners[i] = best_task
    return owners


@dataclass
class PriorityUpdateResult:
    loss_priority: float
    loss_sum: float
    holds: bool


def priority_update_check(problem: QuadraticProblem, theta: np.ndarray,
                          owners: np.ndarray, weights: np.ndarray, eta: float,
                          tol: float = 1e-10) -> PriorityUpdateResult:
    """Priority-partition update vs weighted-sum update, total loss compared.

    The priority update steps every shared coordinate by its owner task's
    unweighted gradient; the reference update steps all shared coordinates
    by the weighted gradient sum. Both leave task-private blocks untouched.
    """
    grads = np.stack([problem.gradient(k, theta) for k in range(problem.num_tasks)])
    ds = problem.shared_dim

    theta_priority = theta.copy()
    theta_priority[:ds] -= eta * grads[owners, np.arange(ds)]

    theta_sum = theta.copy()
    combined = sum(w * g[:ds] for w, g in zip(weights, grads))
    theta_sum[:ds] -= eta * combined

    loss_priority = problem.total_loss(theta_priority, weights)
    loss_sum = problem.total_loss(theta_sum, weights)
    return PriorityUpdateResult(loss_priority, loss_sum,
                                loss_priority <= loss_sum + tol)


def model_priority_oracle(model, batch, layer: str,
                          weights: dict[int, float], eta: float) -> np.ndarray:
    """(C,) priority owner of each out-channel of the shared conv ``layer``
    (a strength snapshot key such as ``trunk.0``) by direct loss evaluation.

    For each channel, each task's (unweighted) gradient steps just that
    channel's kernel slice; the task whose step leaves the smallest weighted
    total loss wins, ties to the lowest task id. Brute force by construction;
    independent of the strength-based owners. Every parameter and running
    statistic is restored.
    """
    from .autodiff import Tape
    from .network import SHARED, per_task_gradients

    name = f"{layer}.weight"
    weight = model.layout.views(model.flat_data)[name]
    task_ids = model.spec.task_ids
    # train-mode passes move every batch-norm layer's running statistics
    saved_buffers = {key: buf.copy() for key, buf in model.named_buffers().items()}
    grads = {tid: model.layout.views(per_task_gradients(model, batch, tid)[1], SHARED)[name]
             for tid in task_ids}

    def task_loss(tid: int) -> float:
        tape = Tape(record=False)
        pred = model.forward(batch.x, tid, tape, mode="train")
        return tape.compute_loss(pred, batch.targets[tid], model.spec.task(tid).loss).item()

    owners = np.empty(weight.shape[0], dtype=np.asarray(task_ids).dtype)
    for channel, saved in enumerate(weight.copy()):
        best_loss = np.inf
        for tid in task_ids:
            weight[channel] = saved - eta * grads[tid][channel]
            loss = sum(weights[t] * task_loss(t) for t in task_ids)
            if loss < best_loss - 1e-15:
                owners[channel], best_loss = tid, loss
        weight[channel] = saved
    for key, buf in model.named_buffers().items():
        buf[...] = saved_buffers[key]
    return owners


# ---------------------------------------------------------------------------
# convergence probe
# ---------------------------------------------------------------------------

def _priority_owners(shared_grads: np.ndarray, weights: np.ndarray, eta: float,
                     col_curvature: np.ndarray) -> np.ndarray:
    """Per-coordinate owners via the exact closed form of the loss change.

    ``shared_grads`` is the (K, shared_dim) block of the task gradients.
    For a quadratic, moving one coordinate by delta changes the total loss
    by delta*G_p + delta^2/2*C_p, with G_p the weighted-gradient coordinate
    and C_p the weighted second derivative. This equals the direct
    evaluation the brute-force oracle performs (cross-checked in tests);
    third derivatives vanish. Ties go to the lowest task index.
    """
    delta = -eta * shared_grads
    change = delta * (weights @ shared_grads) + 0.5 * delta * delta * col_curvature
    return change.argmin(axis=0)


@dataclass
class ProbeResult:
    functional_trace: np.ndarray      # sum_k w_k^2 ||g_k||^2 over shared coords, per iter
    fitted_exponent: float
    converged_iteration: int | None   # first iteration with functional < target
    eta_warning: str | None = None


def fit_decay_exponent(trace: np.ndarray, skip: int = 10, floor: float = 1e-12) -> float:
    """Log-log slope of the min-prefix trace over its decaying stretch.

    The fit stops at the first crossing of ``floor`` so the machine-precision
    plateau cannot flatten the slope estimate.
    """
    prefix = np.minimum.accumulate(trace)
    below = np.nonzero(prefix <= floor)[0]
    stop = int(below[0]) + 1 if below.size else len(prefix)
    t = np.arange(1, len(prefix) + 1)[skip:stop]
    y = prefix[skip:stop]
    if len(t) < 2 or np.any(y <= 0):
        return -np.inf  # already at the floor: decay faster than any power law
    coeffs = np.polyfit(np.log(t), np.log(y), 1)
    return float(coeffs[0])


def convergence_probe(problem: QuadraticProblem, method: str, eta: float,
                      max_iters: int, weights: np.ndarray | None = None,
                      theta0: np.ndarray | None = None,
                      stop_functional: float = 0.0,
                      target_functional: float = 1e-6) -> ProbeResult:
    """Iterate GD or priority-projected (phase-2 style) dynamics and record
    the weighted shared-gradient functional.

    "phase2" zeroes each shared coordinate whose sign disagrees with its
    owner's. That is training's ``project_gradient`` on one-coordinate
    groups, not on training's per-(layer, owner) groups. The probe does not
    call the group rule: on the benchmark's desk probe set it took 142-166 us
    per iteration against the mask's 21-29 us (2 CPUs, numpy 2.4), past the
    ``probe_solve_s`` bound, and the benchmark's closed form counts only
    training's ``project_gradient`` calls.

    ``stop_functional`` > 0 stops early once the functional falls below it;
    the trace holds one entry per executed iteration.
    """
    if method not in ("gd", "phase2"):
        raise ConfigError(f"unknown probe method {method!r}")
    k = problem.num_tasks
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=np.float64)
    theta = np.zeros(problem.dim) if theta0 is None else theta0.astype(np.float64).copy()

    # the weighted sum's Hessian has norm at most H * sum(w), so plain GD on
    # it descends for eta up to 1/(H sum w)
    bound = 1.0 / (problem.lipschitz * w.sum())
    warning = None
    if eta > bound:
        warning = (f"eta {eta:g} above gd's descent bound 1/(H sum w) = {bound:g}; "
                   "proceeding anyway")

    # Gram form: task k's full gradient is H_k theta - c_k, and all K of them
    # come from one product with the stacked (K*n, n) matrix. Task k's
    # gradient is exactly zero on the other tasks' private blocks, so one
    # weighted sum of the rows updates shared and private coordinates at once.
    n, ds = problem.dim, problem.shared_dim
    gram = np.stack([2.0 * a.T @ a for a in problem.matrices])
    hess = gram.reshape(k * n, n)
    lin = np.concatenate([2.0 * a.T @ b for a, b in zip(problem.matrices, problem.offsets)])
    col_curvature = w @ np.diagonal(gram, axis1=1, axis2=2)[:, :ds]
    step = -eta * w
    coords = np.arange(ds)

    trace = []
    converged_at = None
    for it in range(max_iters):
        grads = (hess @ theta - lin).reshape(k, n)
        shared = grads[:, :ds]
        weighted = w[:, None] * shared
        functional = float(np.vdot(weighted, weighted))
        trace.append(functional)
        if converged_at is None and functional < target_functional:
            converged_at = it
        if stop_functional > 0.0 and functional < stop_functional:
            break

        if method == "phase2":
            # a zero owner coordinate keeps every task (0 * x >= 0)
            own = shared[_priority_owners(shared, w, eta, col_curvature), coords]
            shared[shared * own < 0.0] = 0.0
        # simultaneous update: every block uses the iteration-start gradients
        theta += step @ grads

    trace_arr = np.asarray(trace)
    return ProbeResult(trace_arr, fit_decay_exponent(trace_arr), converged_at, warning)
