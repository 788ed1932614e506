import copy

import numpy as np
import pytest

from mtlopt.autodiff import Tape
from mtlopt.errors import ConfigError
from mtlopt.network import (
    SHARED,
    Batch,
    ConvSpec,
    ModelSpec,
    TaskSpec,
    build_model,
    per_task_gradients,
)
from mtlopt.quadratics import (
    QuadraticProblem,
    compute_lipschitz,
    convergence_probe,
    fit_decay_exponent,
    make_conflicting_quadratic,
    make_quadratic_problem,
    model_priority_oracle,
    oracle_priority_partition,
    priority_update_check,
)


def scalar_two_task(b1=1.0, b2=-1.0):
    """L1 = (theta - b1)^2, L2 = (theta - b2)^2 over one shared coordinate."""
    matrices = [np.array([[1.0]]), np.array([[1.0]])]
    offsets = [np.array([b1]), np.array([b2])]
    return QuadraticProblem(matrices, offsets, shared_dim=1,
                            task_slices=[slice(1, 1), slice(1, 1)],
                            lipschitz=compute_lipschitz(matrices))


def test_scalar_instance_lipschitz_and_minimizers():
    problem = scalar_two_task()
    assert problem.lipschitz == 2.0
    assert problem.loss(0, np.array([1.0])) == 0.0
    assert problem.gradient(1, np.array([0.0]))[0] == 2.0


def test_generator_determinism():
    a = make_quadratic_problem(3, 2, 0.7, seed=11)
    b = make_quadratic_problem(3, 2, 0.7, seed=11)
    for ma, mb in zip(a.matrices, b.matrices):
        assert np.array_equal(ma, mb)
    for oa, ob in zip(a.offsets, b.offsets):
        assert np.array_equal(oa, ob)
    c = make_quadratic_problem(3, 2, 0.7, seed=12)
    assert not all(np.array_equal(x, y) for x, y in zip(a.matrices, c.matrices))


def _common_minimizer(problem):
    """A point that zeroes every task's residual, when one exists."""
    return np.linalg.lstsq(np.vstack(problem.matrices), np.concatenate(problem.offsets),
                           rcond=None)[0]


def test_generator_zero_conflict_aligned():
    # every task is exactly minimized at one common point
    problem = make_quadratic_problem(4, 3, 0.0, seed=5)
    common = _common_minimizer(problem)
    for i in range(3):
        assert problem.loss(i, common) < 1e-24


def test_generator_minimizer_separation_scales_with_conflict():
    # task i's minimizer is the conflict-0 common point moved by conflict along
    # a unit shared direction; recover each move from the change of b_i
    base = make_quadratic_problem(4, 2, 0.0, seed=9)
    common = _common_minimizer(base)
    minimizers = {}
    for conflict in (0.2, 1.0):
        problem = make_quadratic_problem(4, 2, conflict, seed=9)
        minimizers[conflict] = []
        for i in range(2):
            a, ds = problem.matrices[i], problem.shared_dim
            shift = np.linalg.lstsq(a[:, :ds], problem.offsets[i] - base.offsets[i],
                                    rcond=None)[0]
            assert np.linalg.norm(shift) == pytest.approx(conflict)
            theta = common.copy()
            theta[:ds] += shift
            assert problem.loss(i, theta) < 1e-24
            minimizers[conflict].append(theta)
    sep = {c: np.linalg.norm(m[0] - m[1]) for c, m in minimizers.items()}
    np.testing.assert_allclose(sep[1.0], 5.0 * sep[0.2])


def test_generator_validation():
    with pytest.raises(ConfigError):
        make_quadratic_problem(0, 2, 0.5, seed=1)
    with pytest.raises(ConfigError):
        make_quadratic_problem(2, 1, 0.5, seed=1)
    with pytest.raises(ConfigError):
        make_quadratic_problem(2, 2, 1.5, seed=1)


def test_conflicting_generator_conflicts_at_start():
    for s in range(10):
        problem = make_conflicting_quadratic(3, 3, seed=s)
        assert problem.has_conflict(np.zeros(problem.dim))


# ---------------------------------------------------------------------------
# priority oracle
# ---------------------------------------------------------------------------

def test_oracle_tie_on_symmetry():
    # mirror-image tasks at theta = 0 lower the total loss by exactly the same
    # amount; the tie goes to the lowest task index
    problem = scalar_two_task()
    w = np.array([0.5, 0.5])
    assert oracle_priority_partition(problem, np.zeros(1), w, eta=1e-3).tolist() == [0]


def _separable_problem(strong_task):
    """Two shared coordinates; strong_task pulls coordinate 0 with 10x the gradient."""
    rows = [np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])]
    offsets = [np.array([-1.0]), np.array([-1.0])]  # minimizers at +1 / -1 on coord 0
    rows[strong_task], offsets[strong_task] = np.array([[10.0, 0.0]]), np.array([10.0])
    return QuadraticProblem(rows, offsets, shared_dim=2, task_slices=[slice(2, 2)] * 2,
                            lipschitz=compute_lipschitz(rows))


def test_oracle_picks_stronger_gradient_in_separable_problem():
    w = np.array([0.5, 0.5])
    theta = np.zeros(2)
    eta = 1e-4
    for strong_task in (0, 1):
        problem = _separable_problem(strong_task)
        owners = oracle_priority_partition(problem, theta, w, eta)
        # independent recomputation of both candidate losses on coordinate 0
        losses = []
        for task in (0, 1):
            cand = theta.copy()
            cand[0] -= eta * problem.gradient(task, theta)[0]
            losses.append(problem.total_loss(cand, w))
        assert int(np.argmin(losses)) == strong_task and owners[0] == strong_task


def test_oracle_antisymmetry():
    # the winner's identity does not depend on the order the tasks are listed in
    rng = np.random.default_rng(3)
    for s in range(20):
        problem = make_quadratic_problem(3, 3, 0.8, seed=s)
        theta = rng.normal(size=problem.dim)
        w = rng.uniform(0.1, 1.0, size=3)
        w /= w.sum()
        order = [2, 0, 1]
        permuted = QuadraticProblem([problem.matrices[t] for t in order],
                                    [problem.offsets[t] for t in order],
                                    problem.shared_dim, [problem.task_slices[t] for t in order],
                                    problem.lipschitz)
        a = oracle_priority_partition(problem, theta, w, 1e-3)
        b = oracle_priority_partition(permuted, theta, w[order], 1e-3)
        np.testing.assert_array_equal(a, np.asarray(order)[b])


def test_fast_owner_partition_matches_bruteforce_closed_form():
    # the probe's vectorized owner computation must agree with the oracle
    from mtlopt.quadratics import _priority_owners

    for s in range(12):
        problem = make_quadratic_problem(4, 3, 0.9, seed=s, task_dim=2)
        rng = np.random.default_rng(s)
        theta = rng.normal(size=problem.dim)
        w = np.full(3, 1 / 3)
        eta = 0.5 / problem.lipschitz
        ds = problem.shared_dim
        shared_grads = np.stack([problem.shared_gradient(i, theta) for i in range(3)])
        col_curv = np.zeros(ds)
        for kk in range(3):
            cols = problem.matrices[kk][:, :ds]
            col_curv += 2.0 * w[kk] * (cols * cols).sum(axis=0)
        fast = _priority_owners(shared_grads, w, eta, col_curv)
        brute = oracle_priority_partition(problem, theta, w, eta)
        np.testing.assert_array_equal(fast, brute)


def _two_task_conv_model(seed):
    spec = ModelSpec(
        trunk=(ConvSpec(2, 4, kernel_size=3), ConvSpec(4, 4, kernel_size=3)),
        heads={1: (ConvSpec(4, 3, kernel_size=1),), 2: (ConvSpec(4, 1, kernel_size=1),)},
        tasks=(TaskSpec(1, "cross_entropy"), TaskSpec(2, "mse")))
    rng = np.random.default_rng(seed)
    batch = Batch(x=rng.normal(size=(2, 2, 5, 5)),
                  targets={1: rng.integers(0, 3, size=(2, 5, 5)),
                           2: rng.normal(size=(2, 1, 5, 5))})
    return build_model(spec, seed=seed), batch


def _weighted_loss(model, batch, weights):
    total = 0.0
    for tid in model.spec.task_ids:
        tape = Tape()
        pred = model.forward(batch.x, tid, tape, mode="train")
        total += weights[tid] * tape.compute_loss(
            pred, batch.targets[tid], model.spec.task(tid).loss).item()
    return total


def test_model_oracle_restores_the_model_and_matches_per_channel_brute_force():
    weights, eta = {1: 0.6, 2: 0.4}, 1e-3
    seen = set()
    for seed in range(3):
        model, batch = _two_task_conv_model(seed)
        # move the running statistics off their initial values first
        _weighted_loss(model, batch, weights)
        for layer_index in (0, 1):
            before = copy.deepcopy(model)
            owners = model_priority_oracle(model, batch, f"trunk.{layer_index}", weights, eta)
            for name, p in before.named_parameters().items():
                assert np.array_equal(model.named_parameters()[name].data, p.data), name
            for name, buf in before.named_buffers().items():
                assert np.array_equal(model.named_buffers()[name], buf), name

            # each channel and task on a fresh copy of the model
            name = f"trunk.{layer_index}.weight"
            expected = []
            for channel in range(owners.size):
                losses = []
                for tid in (1, 2):
                    probe = copy.deepcopy(before)
                    _, shared, _ = per_task_gradients(copy.deepcopy(before), batch, tid)
                    grad = before.layout.views(shared, SHARED)[name]
                    probe.trunk[layer_index].weight.data[channel] -= eta * grad[channel]
                    losses.append(_weighted_loss(probe, batch, weights))
                expected.append(1 + int(np.argmin(losses)))
            np.testing.assert_array_equal(owners, expected, err_msg=f"seed {seed} {name}")
            seen.update(owners.tolist())
    assert seen == {1, 2}  # the fixtures must give both tasks some channels


# ---------------------------------------------------------------------------
# priority-update comparison
# ---------------------------------------------------------------------------

def test_priority_update_identical_tasks_equal_losses():
    problem = scalar_two_task(0.7, 0.7)
    w = np.array([0.5, 0.5])
    theta = np.array([0.1])
    owners = oracle_priority_partition(problem, theta, w, 1e-3)
    res = priority_update_check(problem, theta, owners, w, 1e-3)
    # identical tasks: both updates coincide up to the weight normalization
    assert res.holds
    assert res.loss_priority == pytest.approx(res.loss_sum, abs=1e-12)


def test_priority_update_scalar_distinct_minimizers():
    problem = scalar_two_task()
    w = np.array([0.5, 0.5])
    theta = np.array([0.5])
    owners = oracle_priority_partition(problem, theta, w, 1e-3)
    res = priority_update_check(problem, theta, owners, w, 1e-3)
    assert res.holds
    assert res.loss_priority < res.loss_sum


def test_priority_update_monte_carlo_sample():
    holds = 0
    for s in range(200):
        rng = np.random.default_rng(s)
        dim = int(rng.integers(1, 9))
        k = int(rng.integers(2, 5))
        problem = make_quadratic_problem(dim, k, float(rng.uniform(0, 1)), seed=s,
                                         task_dim=int(rng.integers(0, dim + 1)))
        theta = rng.normal(size=problem.dim)
        w = rng.uniform(0.1, 1.0, size=k)
        w /= w.sum()
        owners = oracle_priority_partition(problem, theta, w, 1e-3)
        holds += priority_update_check(problem, theta, owners, w, 1e-3).holds
    assert holds >= 198  # >= 99%


# ---------------------------------------------------------------------------
# convergence probe
# ---------------------------------------------------------------------------

def test_probe_single_task_geometric():
    matrices = [np.array([[1.0, 0.2], [0.0, 0.9]])]
    offsets = [np.array([0.4, -0.3])]
    problem = QuadraticProblem(matrices, offsets, shared_dim=2,
                               task_slices=[slice(2, 2)],
                               lipschitz=compute_lipschitz(matrices))
    res = convergence_probe(problem, "phase2", eta=1.0 / problem.lipschitz,
                            max_iters=200, weights=np.array([1.0]))
    assert res.functional_trace[-1] < 1e-12


def test_probe_two_task_conflicting_rate():
    problem = make_conflicting_quadratic(2, 2, seed=3)
    res = convergence_probe(problem, "phase2", eta=0.5 / problem.lipschitz,
                            max_iters=10_000)
    assert res.converged_iteration is not None
    assert res.fitted_exponent <= -0.9


def test_probe_eta_zero_constant_trace():
    problem = make_conflicting_quadratic(2, 2, seed=4)
    res = convergence_probe(problem, "phase2", eta=0.0, max_iters=50)
    assert np.all(res.functional_trace == res.functional_trace[0])


def test_probe_eta_above_bound_warns_but_runs():
    problem = make_conflicting_quadratic(2, 2, seed=5)
    big_eta = 1.01 / (problem.lipschitz * 0.5)
    res = convergence_probe(problem, "phase2", eta=big_eta, max_iters=10)
    assert res.eta_warning is not None
    assert len(res.functional_trace) == 10


def test_probe_eta_warning_is_gds_descent_bound():
    # eta = 0.9/(H max w) is below the old 1/(H max w) bound, yet the gd
    # functional diverges on seed 0 and the phase-2 one on seed 1
    w = np.array([0.36, 0.34, 0.30])
    for seed, method in ((0, "gd"), (1, "phase2")):
        problem = make_conflicting_quadratic(2, 3, seed=seed, task_dim=0)
        eta = 0.9 / (problem.lipschitz * w.max())
        res = convergence_probe(problem, method, eta=eta, max_iters=300, weights=w)
        assert res.functional_trace[-1] > 1e40
        assert res.eta_warning is not None and "1/(H sum w)" in res.eta_warning
    # criterion 5's and the benchmark's step size, eta = 0.5/H with w = 1/K
    for k in (2, 3, 4):
        for dim in (2, 3, 4):
            problem = make_conflicting_quadratic(dim, k, seed=dim, conflict=1.0)
            res = convergence_probe(problem, "phase2", eta=0.5 / problem.lipschitz,
                                    max_iters=1, weights=np.full(k, 1.0 / k))
            assert res.eta_warning is None


def test_probe_gd_converges_on_structured_problems():
    problem = make_conflicting_quadratic(3, 2, seed=6)
    res = convergence_probe(problem, "gd", eta=0.5 / problem.lipschitz, max_iters=20_000)
    assert res.converged_iteration is not None


def test_fit_decay_exponent_on_power_law():
    t = np.arange(1, 5001, dtype=np.float64)
    assert fit_decay_exponent(3.0 / t, skip=10) == pytest.approx(-1.0, abs=0.01)


# ---------------------------------------------------------------------------
# Gram-form probe against the per-task loop it replaced
# ---------------------------------------------------------------------------

def _reference_probe(problem, method, eta, max_iters, weights=None, theta0=None,
                     stop_functional=0.0, target_functional=1e-6):
    """The probe as one residual and one product per task, kept verbatim as
    the reference for the Gram-form iteration; returns (trace, converged)."""
    k = problem.num_tasks
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=np.float64)
    theta = np.zeros(problem.dim) if theta0 is None else theta0.astype(np.float64).copy()

    ds = problem.shared_dim
    col_curvature = np.zeros(ds)
    for kk in range(k):
        cols = problem.matrices[kk][:, :ds]
        col_curvature += 2.0 * w[kk] * (cols * cols).sum(axis=0)

    trace = []
    converged_at = None
    for it in range(max_iters):
        residuals = [problem.matrices[i] @ theta - problem.offsets[i] for i in range(k)]
        shared_grads = np.stack([
            2.0 * problem.matrices[i][:, :ds].T @ residuals[i] for i in range(k)])
        functional = float(sum(w[i] ** 2 * np.sum(shared_grads[i] ** 2) for i in range(k)))
        trace.append(functional)
        if converged_at is None and functional < target_functional:
            converged_at = it
        if stop_functional > 0.0 and functional < stop_functional:
            break

        if method == "gd":
            shared_update = (w[:, None] * shared_grads).sum(axis=0)
        else:
            half_grad = np.zeros(problem.shared_dim)
            for kk, wk in enumerate(w):
                half_grad += wk * (problem.matrices[kk][:, :problem.shared_dim].T
                                   @ residuals[kk])
            delta = -eta * shared_grads  # (K, shared_dim)
            change = (2.0 * delta * half_grad[None, :]
                      + 0.5 * delta * delta * col_curvature[None, :])
            owners = np.argmin(change, axis=0)
            own = shared_grads[owners, np.arange(ds)]
            agree = shared_grads * own[None, :] >= 0.0  # sign-compatible with owner
            zero_ref = own == 0.0
            keep = agree | zero_ref[None, :]
            shared_update = (w[:, None] * np.where(keep, shared_grads, 0.0)).sum(axis=0)

        # simultaneous update: private blocks use the same iteration-start residuals
        private_updates = []
        for i in range(k):
            sl = problem.task_slices[i]
            if sl.stop > sl.start:
                private_updates.append(
                    (sl, eta * w[i] * (2.0 * problem.matrices[i][:, sl].T @ residuals[i])))
        theta[:ds] -= eta * shared_update
        for sl, upd in private_updates:
            theta[sl] -= upd
    return np.asarray(trace), converged_at


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("task_dim", [0, None])
@pytest.mark.parametrize("method", ["gd", "phase2"])
def test_probe_matches_per_task_reference(k, task_dim, method):
    # task_dim None gives private blocks, which let the dynamics converge and
    # trip stop_functional; task_dim 0 is purely shared; eta 0 must stand still
    for s in range(4):
        rng = np.random.default_rng(100 * k + s)
        problem = make_conflicting_quadratic(2, k, seed=s, task_dim=task_dim)
        w = rng.uniform(0.5, 1.0, size=k)
        w /= w.sum()
        theta0 = rng.normal(size=problem.dim) if s % 2 else None
        eta = 0.0 if s == 3 else 0.8 / problem.lipschitz
        kwargs = dict(weights=w, theta0=theta0, stop_functional=1e-14 if s < 2 else 0.0)
        ref_trace, ref_converged = _reference_probe(problem, method, eta, 300, **kwargs)
        res = convergence_probe(problem, method, eta, 300, **kwargs)
        assert len(res.functional_trace) == len(ref_trace)
        assert res.converged_iteration == ref_converged
        assert np.all(np.abs(res.functional_trace - ref_trace) <= 1e-14 * ref_trace[0])
