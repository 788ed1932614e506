import copy

import numpy as np
import pytest

from mtlopt.errors import ConfigError, ShapeError, StateError
from mtlopt.network import (
    SHARED,
    Batch,
    ConvSpec,
    ModelSpec,
    TaskSpec,
    build_model,
    per_task_gradients,
)
from mtlopt.optimizers import (
    PHASE1,
    PHASE2,
    MtlOptimizer,
    OptimizerConfig,
    PhaseSchedule,
    project_gradient,
)
from mtlopt.strength import model_strength_snapshot


def snapshot_owners(model):
    """The layer -> owner vector map that training derives from the snapshot."""
    return {layer: report.owners for layer, report in model_strength_snapshot(model).items()}


# ---------------------------------------------------------------------------
# phase selection
# ---------------------------------------------------------------------------

def test_select_phase_boundaries():
    sched = PhaseSchedule(10, np.random.default_rng(0))
    assert all(sched.draw(0).phase == PHASE1 for _ in range(200))
    assert all(sched.draw(10).phase == PHASE2 for _ in range(200))


def test_select_phase_midpoint_frequency():
    sched = PhaseSchedule(10, np.random.default_rng(1))
    n = 20000
    hits = sum(sched.draw(5).phase == PHASE1 for _ in range(n))
    sigma = (0.25 / n) ** 0.5
    assert abs(hits / n - 0.5) < 3 * sigma


def test_select_phase_errors():
    rng = np.random.default_rng(2)
    with pytest.raises(ConfigError):
        PhaseSchedule(0, rng)
    with pytest.raises(ConfigError):
        PhaseSchedule(10, rng).draw(11)
    with pytest.raises(ConfigError):
        PhaseSchedule(10, rng).draw(-1)


def test_phase_schedule_records_draws():
    # one uniform draw per epoch, straight from the schedule's stream
    sched = PhaseSchedule(4, np.random.default_rng(3))
    draws = [sched.draw(e) for e in range(4)]
    expected = np.random.default_rng(3).random(4)
    assert [d.epoch for d in draws] == [0, 1, 2, 3]
    assert [d.p for d in draws] == expected.tolist()
    for d in draws:
        assert d.phase == (PHASE1 if d.p >= d.epoch / 4 else PHASE2)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_gradient_hand_example():
    out = project_gradient(np.array([-1.0, 1.0]), np.array([1.0, 0.0]))
    np.testing.assert_array_equal(out, [0.0, 1.0])


def test_project_gradient_nonconflicting_passthrough():
    g = np.array([0.3, -0.2, 1.1])
    ref = np.array([0.5, 0.0, 0.4])
    np.testing.assert_array_equal(project_gradient(g, ref), g)


def test_project_gradient_antiparallel_annihilates():
    out = project_gradient(np.array([-2.0, 0.0]), np.array([1.0, 0.0]))
    np.testing.assert_array_equal(out, [0.0, 0.0])


def test_project_gradient_zero_reference_guard():
    g = np.array([1.0, -2.0])
    np.testing.assert_array_equal(project_gradient(g, np.zeros(2)), g)


def test_project_gradient_shape_error():
    with pytest.raises(ShapeError):
        project_gradient(np.zeros(2), np.zeros(3))


def test_projection_idempotent_and_norm_bounded():
    rng = np.random.default_rng(4)
    for _ in range(500):
        dim = int(rng.integers(1, 20))
        g = rng.normal(size=dim) * 10 ** rng.uniform(-3, 3)
        ref = rng.normal(size=dim) * 10 ** rng.uniform(-3, 3)
        once = project_gradient(g, ref)
        twice = project_gradient(once, ref)
        assert np.array_equal(once, twice)
        assert np.linalg.norm(once) <= np.linalg.norm(g) + 1e-12


# ---------------------------------------------------------------------------
# model fixtures
# ---------------------------------------------------------------------------

def scalar_model(theta=0.0):
    spec = ModelSpec(
        trunk=(ConvSpec(1, 1, kernel_size=1, batch_norm=False, activation=False),),
        heads={},
        tasks=(TaskSpec(1, "mse"), TaskSpec(2, "mse")),
    )
    model = build_model(spec, seed=0)
    model.trunk[0].weight.data[...] = theta
    return model


def scalar_batch():
    return Batch(x=np.ones((1, 1, 1, 1)),
                 targets={1: np.ones((1, 1, 1, 1)), 2: -np.ones((1, 1, 1, 1))})


def conv_task_spec(num_tasks=2):
    """Task 1 classifies, tasks 2 and (with ``num_tasks=3``) 3 regress."""
    heads = {1: (ConvSpec(4, 3, kernel_size=1),), 2: (ConvSpec(4, 1, kernel_size=1),),
             3: (ConvSpec(4, 1, kernel_size=1),)}
    tasks = (TaskSpec(1, "cross_entropy"), TaskSpec(2, "mse"), TaskSpec(3, "mse"))
    return ModelSpec(
        trunk=(ConvSpec(2, 4, kernel_size=3), ConvSpec(4, 4, kernel_size=3)),
        heads={tid: heads[tid] for tid in range(1, num_tasks + 1)},
        tasks=tasks[:num_tasks],
    )


def conv_batch(seed, n=2, c=2, h=5, w=5, classes=3, num_tasks=2):
    rng = np.random.default_rng(seed)
    batch = Batch(x=rng.normal(size=(n, c, h, w)),
                  targets={1: rng.integers(0, classes, size=(n, h, w)),
                           2: rng.normal(size=(n, 1, h, w))})
    if num_tasks == 3:
        batch.targets[3] = rng.normal(size=(n, 1, h, w))
    return batch


# ---------------------------------------------------------------------------
# phase 1
# ---------------------------------------------------------------------------

def test_phase1_hand_arithmetic():
    # prediction theta + b at x=1; theta=b=0, w=(0.5, 0.5), lr=0.1:
    # task 1: g = 0.5 * 2(theta+b-1) = -1 for both -> theta = b = 0.1
    # task 2: g = 0.5 * 2(theta+b+1) = 1.2 for both -> theta = b = 0.1 - 0.12 = -0.02
    model = scalar_model(0.0)
    opt = MtlOptimizer(model, OptimizerConfig(lr=0.1))
    result = opt.phase1_step(scalar_batch(), {1: 0.5, 2: 0.5})
    np.testing.assert_allclose(model.trunk[0].weight.data.item(), -0.02, atol=1e-15)
    np.testing.assert_allclose(model.trunk[0].bias.data.item(), -0.02, atol=1e-15)
    assert result.losses[1] == 1.0  # raw losses at the parameters each task saw


def test_phase1_single_task_equals_gd():
    spec = ModelSpec(
        trunk=(ConvSpec(2, 4),), heads={1: (ConvSpec(4, 1, kernel_size=1),)},
        tasks=(TaskSpec(1, "mse"),))
    batch = Batch(x=np.random.default_rng(5).normal(size=(2, 2, 4, 4)),
                  targets={1: np.random.default_rng(6).normal(size=(2, 1, 4, 4))})
    a = build_model(spec, seed=9)
    b = copy.deepcopy(a)
    MtlOptimizer(a, OptimizerConfig(lr=0.05)).phase1_step(batch, {1: 1.0})
    MtlOptimizer(b, OptimizerConfig(lr=0.05)).gd_step(batch, {1: 1.0})
    for (n, pa), (_, pb) in zip(sorted(a.named_parameters().items()),
                                sorted(b.named_parameters().items())):
        assert np.array_equal(pa.data, pb.data), n


def test_phase1_null_step_reports_losses():
    model = scalar_model(0.25)
    opt = MtlOptimizer(model, OptimizerConfig(lr=0.1))
    opt._rule.lr = 0.0  # limiting step-size behavior; config itself requires lr > 0
    result = opt.phase1_step(scalar_batch(), {1: 0.5, 2: 0.5})
    assert model.trunk[0].weight.data.item() == 0.25
    assert result.losses[1] == pytest.approx((0.25 - 1.0) ** 2)
    assert result.losses[2] == pytest.approx((0.25 + 1.0) ** 2)


def test_phase1_write_counts():
    model = build_model(conv_task_spec(), seed=21)
    opt = MtlOptimizer(model, OptimizerConfig(lr=0.01))
    opt.phase1_step(conv_batch(31), {1: 0.5, 2: 0.5})
    assert opt.last_step_writes == {SHARED: 2, 1: 1, 2: 1}


def test_gd_hand_arithmetic_cancellation():
    # combined shared grad = 0.5*(-2) + 0.5*(2) = 0 -> theta stays 0
    model = scalar_model(0.0)
    MtlOptimizer(model, OptimizerConfig(method="gd", lr=0.1)).gd_step(
        scalar_batch(), {1: 0.5, 2: 0.5})
    assert model.trunk[0].weight.data.item() == 0.0


def test_phase1_differs_from_gd_with_coupled_tasks():
    a = scalar_model(0.0)
    b = scalar_model(0.0)
    MtlOptimizer(a, OptimizerConfig(lr=0.1)).phase1_step(scalar_batch(), {1: 0.5, 2: 0.5})
    MtlOptimizer(b, OptimizerConfig(lr=0.1)).gd_step(scalar_batch(), {1: 0.5, 2: 0.5})
    assert a.trunk[0].weight.data.item() != b.trunk[0].weight.data.item()


def block_diagonal_model():
    """Two shared coordinates, each seen by exactly one task's loss."""
    spec = ModelSpec(
        trunk=(ConvSpec(1, 2, kernel_size=1, batch_norm=False, activation=False),),
        heads={1: (ConvSpec(2, 1, kernel_size=1),),
               2: (ConvSpec(2, 1, kernel_size=1),)},
        tasks=(TaskSpec(1, "mse"), TaskSpec(2, "mse")),
    )
    model = build_model(spec, seed=0)
    model.trunk[0].weight.data[...] = np.array([0.3, -0.4]).reshape(2, 1, 1, 1)
    model.heads[1][0].weight.data[...] = np.array([1.0, 0.0]).reshape(1, 2, 1, 1)
    model.heads[2][0].weight.data[...] = np.array([0.0, 1.0]).reshape(1, 2, 1, 1)
    return model


def test_phase1_equals_gd_on_independent_coordinates():
    batch = Batch(x=np.ones((1, 1, 1, 1)),
                  targets={1: np.ones((1, 1, 1, 1)), 2: -np.ones((1, 1, 1, 1))})
    a = block_diagonal_model()
    b = block_diagonal_model()
    MtlOptimizer(a, OptimizerConfig(lr=0.1)).phase1_step(batch, {1: 0.5, 2: 0.5})
    MtlOptimizer(b, OptimizerConfig(lr=0.1)).gd_step(batch, {1: 0.5, 2: 0.5})
    assert np.array_equal(a.trunk[0].weight.data, b.trunk[0].weight.data)


# ---------------------------------------------------------------------------
# phase 2
# ---------------------------------------------------------------------------

def brute_force_phase2(model, batch, weights, owners, task_order, lr):
    """Recompute Algorithm 1's phase-2 update and its per-layer conflict and
    projection counts with explicit loops, for the owner task id of each
    channel in ``owners`` (layer -> owner vector)."""
    grads, owns = {}, {}
    for tid in task_order:
        _, gs, own = per_task_gradients(model, batch, tid, loss_weight=weights[tid])
        grads[tid], owns[tid] = model.layout.views(gs, SHARED), model.layout.views(own, tid)
    params = model.named_parameters()
    expected, conflicts, projections = {}, {}, {}
    for name in model.layout.members[SHARED]:
        tensor = params[name]
        layer = name.rsplit(".", 1)[0]
        if name.endswith(".weight") and layer in owners:
            combined = np.zeros_like(tensor.data)
            conflicts[layer] = projections[layer] = 0
            for owner in task_order:
                channels = [c for c, o in enumerate(owners[layer]) if o == owner]
                if not channels:
                    continue
                blocks = {t: np.concatenate([grads[t][name][c].ravel() for c in channels])
                          for t in task_order}
                ref = blocks[owner]
                nsq = float(np.dot(ref, ref))
                total = np.zeros_like(ref)
                for t in task_order:
                    v = blocks[t].copy()
                    if t != owner:
                        d = float(np.dot(v, ref))
                        conflicts[layer] += d <= 0.0
                        if d < 0.0 and nsq > 0.0:
                            projections[layer] += 1
                            v = v - (d / nsq) * ref
                    total += v
                width = grads[task_order[0]][name][channels[0]].size
                for k, c in enumerate(channels):
                    combined[c] = total[k * width:(k + 1) * width].reshape(tensor.data[c].shape)
            expected[name] = tensor.data - lr * combined
        else:
            expected[name] = tensor.data - lr * sum(grads[t][name] for t in task_order)
    for tid in task_order:
        for name, g in owns[tid].items():
            expected[name] = params[name].data - lr * g
    return expected, conflicts, projections


def test_phase2_matches_brute_force_oracle():
    # with three tasks, projecting one non-owner against another non-owner
    # (instead of against the group owner) would break the match
    weights = {1: 0.6, 2: 0.4, 3: 0.5}
    for num_tasks in (2, 3):
        order = tuple(range(1, num_tasks + 1))
        saw_projection = dict.fromkeys(("strength", "last task", "permuted"), False)
        for seed in range(6):
            strength = snapshot_owners(build_model(conv_task_spec(num_tasks), seed=seed))
            rng = np.random.default_rng(seed)
            sources = {
                "strength": strength,
                "last task": {layer: np.full_like(o, num_tasks) for layer, o in strength.items()},
                # the strength owners shuffled over the channels, group sizes kept
                "permuted": {layer: rng.permutation(o) for layer, o in strength.items()},
            }
            for source, owners in sources.items():
                model = build_model(conv_task_spec(num_tasks), seed=seed)
                batch = conv_batch(seed + 100, num_tasks=num_tasks)
                reference = copy.deepcopy(model)
                expected, conflicts, projections = brute_force_phase2(
                    reference, batch, weights, owners, order, lr=0.05)

                opt = MtlOptimizer(model, OptimizerConfig(lr=0.05))
                result = opt.phase2_step(batch, weights, owners)
                assert (result.conflicts, result.projections) == (conflicts, projections)
                saw_projection[source] |= sum(result.projections.values()) > 0
                for name, p in model.named_parameters().items():
                    np.testing.assert_allclose(p.data, expected[name], rtol=1e-10, atol=1e-14,
                                               err_msg=f"{num_tasks} tasks, {source}: {name}")
        # the fixture family must actually exercise projections
        assert all(saw_projection.values()), (num_tasks, saw_projection)


def test_phase2_post_projection_non_conflict():
    for seed in range(4):
        model = build_model(conv_task_spec(), seed=seed)
        opt = MtlOptimizer(model, OptimizerConfig(lr=0.05))
        result = opt.phase2_step(conv_batch(seed), {1: 0.7, 2: 0.3}, snapshot_owners(model))
        assert result.projected
        for p in result.projected:
            assert float(p.result @ p.reference) >= -1e-12


def test_phase2_without_conflicts_equals_gd():
    # identical targets for both tasks -> identical gradients -> no conflicts
    spec = ModelSpec(
        trunk=(ConvSpec(2, 4),), heads={1: (ConvSpec(4, 1, kernel_size=1),),
                                        2: (ConvSpec(4, 1, kernel_size=1),)},
        tasks=(TaskSpec(1, "mse"), TaskSpec(2, "mse")))
    rng = np.random.default_rng(77)
    x = rng.normal(size=(2, 2, 4, 4))
    y = rng.normal(size=(2, 1, 4, 4))
    batch = Batch(x=x, targets={1: y, 2: y.copy()})
    a = build_model(spec, seed=13)
    # the two heads must match for the task gradients to align exactly
    a.heads[2][0].weight.data[...] = a.heads[1][0].weight.data
    b = copy.deepcopy(a)
    owners = snapshot_owners(a)
    ra = MtlOptimizer(a, OptimizerConfig(lr=0.05)).phase2_step(batch, {1: 0.5, 2: 0.5}, owners)
    MtlOptimizer(b, OptimizerConfig(method="gd", lr=0.05)).gd_step(batch, {1: 0.5, 2: 0.5})
    assert sum(ra.projections.values()) == 0
    for name in a.layout.members[SHARED]:
        np.testing.assert_array_equal(a.named_parameters()[name].data,
                                      b.named_parameters()[name].data, err_msg=name)


def test_phase2_zero_reference_guard_passthrough():
    model = build_model(conv_task_spec(), seed=3)
    plain = copy.deepcopy(model)
    opt = MtlOptimizer(model, OptimizerConfig(lr=0.05))
    # weight 0 for task 1 zeroes its gradients; groups owned by task 1 must
    # leave task 2's block gradients untouched
    result = opt.phase2_step(conv_batch(55), {1: 0.0, 2: 1.0}, snapshot_owners(model))
    assert sum(result.projections.values()) == 0
    assert any(p.reference_task == 1 for p in result.projected)
    for p in result.projected:
        if p.reference_task == 1:
            assert not np.any(p.reference)
    MtlOptimizer(plain, OptimizerConfig(method="gd", lr=0.05)).gd_step(
        conv_batch(55), {1: 0.0, 2: 1.0})
    for name, p in model.named_parameters().items():
        np.testing.assert_array_equal(p.data, plain.named_parameters()[name].data, err_msg=name)


def test_phase2_stale_snapshot_rejected():
    model = build_model(conv_task_spec(), seed=3)
    other = build_model(ModelSpec(
        trunk=(ConvSpec(2, 7), ConvSpec(7, 7)), heads={},
        tasks=(TaskSpec(1, "mse"), TaskSpec(2, "mse"))), seed=3)
    owners = snapshot_owners(model)
    cases = {
        "stale snapshot": snapshot_owners(other),
        # the bad layer comes after a valid one, so a late check would write trunk.0
        "wrong length": {**owners, "trunk.1": owners["trunk.1"][:3]},
        "unknown task id": {**owners, "trunk.1": np.array([1, 2, 3, 1])},
    }
    opt = MtlOptimizer(model, OptimizerConfig(lr=0.05))
    before = {name: p.data.copy() for name, p in model.named_parameters().items()}
    for case, bad in cases.items():
        with pytest.raises(StateError):
            opt.phase2_step(conv_batch(1), {1: 0.5, 2: 0.5}, bad)
        for name, p in model.named_parameters().items():
            np.testing.assert_array_equal(p.data, before[name], err_msg=f"{case}: {name}")


@pytest.mark.parametrize("layer", ["trunk.9", "head.1.0"])
def test_phase2_owners_of_no_shared_weight_rejected(layer):
    # a layer the model lacks, or one whose weight a task owns, after a valid one
    model = build_model(conv_task_spec(), seed=3)
    owners = {**snapshot_owners(model), layer: np.array([1, 2, 1, 2])}
    before = model.flat_data.tobytes()
    opt = MtlOptimizer(model, OptimizerConfig(lr=0.05))
    with pytest.raises(StateError, match=f"{layer}: owners name no shared conv weight"):
        opt.phase2_step(conv_batch(1), {1: 0.5, 2: 0.5}, owners)
    assert model.flat_data.tobytes() == before


def test_phase2_builds_owner_groups_once_per_snapshot(monkeypatch):
    model = build_model(conv_task_spec(), seed=7)
    opt = MtlOptimizer(model, OptimizerConfig(lr=0.05))
    builds = []
    build = MtlOptimizer._build_owner_groups

    def counting(self, owners):
        builds.append({layer: np.array(o) for layer, o in owners.items()})
        return build(self, owners)

    monkeypatch.setattr(MtlOptimizer, "_build_owner_groups", counting)
    owners = snapshot_owners(model)
    weights = {1: 0.5, 2: 0.5}
    opt.phase2_step(conv_batch(1), weights, owners)
    # equal owners in fresh arrays reuse the groups
    opt.phase2_step(conv_batch(2), weights, {layer: o.copy() for layer, o in owners.items()})
    assert len(builds) == 1
    # one changed channel rebuilds them, and a stale snapshot still raises
    changed = {**owners, "trunk.1": owners["trunk.1"].copy()}
    changed["trunk.1"][0] = 3 - changed["trunk.1"][0]
    opt.phase2_step(conv_batch(3), weights, changed)
    assert len(builds) == 2
    with pytest.raises(StateError):
        opt.phase2_step(conv_batch(4), weights, {**owners, "trunk.1": owners["trunk.1"][:3]})
    # the groups kept from the changed owners act as freshly built ones
    fresh = MtlOptimizer(copy.deepcopy(model), OptimizerConfig(lr=0.05))
    again = opt.phase2_step(conv_batch(5), weights, changed)
    assert len(builds) == 3
    expected = fresh.phase2_step(conv_batch(5), weights, changed)
    assert (again.conflicts, again.projections) == (expected.conflicts, expected.projections)
    assert sum(again.projections.values()) > 0
    assert model.flat_data.tobytes() == fresh.model.flat_data.tobytes()


# ---------------------------------------------------------------------------
# pcgrad baseline
# ---------------------------------------------------------------------------

def test_pcgrad_two_task_hand_check():
    model = scalar_model(0.0)
    # weighted grads: g1 = -1, g2 = +1 (w = 0.5); both conflict, both annihilate
    MtlOptimizer(model, OptimizerConfig(method="pcgrad", lr=0.1)).pcgrad_step(
        scalar_batch(), {1: 0.5, 2: 0.5})
    assert model.trunk[0].weight.data.item() == 0.0


def test_pcgrad_matches_manual_projection_sum():
    weights = {1: 0.6, 2: 0.4}
    model = build_model(conv_task_spec(), seed=41)
    reference = copy.deepcopy(model)
    grads = {}
    for tid in (1, 2):
        _, gs, _ = per_task_gradients(reference, conv_batch(8), tid, loss_weight=weights[tid])
        grads[tid] = reference.layout.views(gs, SHARED)
    names = sorted(grads[1])
    g1, g2 = (np.concatenate([grads[tid][n].reshape(-1) for n in names]) for tid in (1, 2))
    total = project_gradient(g1, g2) + project_gradient(g2, g1)
    params = reference.named_parameters()
    expected = {}
    offset = 0
    for name in names:
        size = params[name].size
        expected[name] = params[name].data - 0.05 * total[offset:offset + size].reshape(
            params[name].shape)
        offset += size

    MtlOptimizer(model, OptimizerConfig(method="pcgrad", lr=0.05)).pcgrad_step(
        conv_batch(8), weights)
    for name in names:
        np.testing.assert_allclose(model.named_parameters()[name].data, expected[name],
                                   rtol=1e-12, atol=1e-15, err_msg=name)


def test_pcgrad_no_conflict_equals_gd():
    spec = ModelSpec(
        trunk=(ConvSpec(2, 4),), heads={1: (ConvSpec(4, 1, kernel_size=1),),
                                        2: (ConvSpec(4, 1, kernel_size=1),)},
        tasks=(TaskSpec(1, "mse"), TaskSpec(2, "mse")))
    rng = np.random.default_rng(78)
    x = rng.normal(size=(2, 2, 4, 4))
    y = rng.normal(size=(2, 1, 4, 4))
    batch = Batch(x=x, targets={1: y, 2: y.copy()})
    a = build_model(spec, seed=14)
    a.heads[2][0].weight.data[...] = a.heads[1][0].weight.data
    b = copy.deepcopy(a)
    MtlOptimizer(a, OptimizerConfig(method="pcgrad", lr=0.05)).pcgrad_step(
        batch, {1: 0.5, 2: 0.5})
    MtlOptimizer(b, OptimizerConfig(method="gd", lr=0.05)).gd_step(batch, {1: 0.5, 2: 0.5})
    for name in a.layout.members[SHARED]:
        np.testing.assert_allclose(a.named_parameters()[name].data,
                                   b.named_parameters()[name].data,
                                   rtol=0, atol=1e-16, err_msg=name)


def test_joint_steps_accept_a_model_without_shared_parameters():
    spec = ModelSpec(trunk=(), heads={1: (ConvSpec(2, 1, kernel_size=1),),
                                      2: (ConvSpec(2, 1, kernel_size=1),)},
                     tasks=(TaskSpec(1, "mse"), TaskSpec(2, "mse")))
    batch = Batch(x=np.ones((1, 2, 2, 2)), targets={1: np.ones((1, 1, 2, 2)),
                                                    2: -np.ones((1, 1, 2, 2))})
    for method in ("gd", "pcgrad"):
        model = build_model(spec, seed=4)
        before = model.heads[1][0].weight.data.copy()
        MtlOptimizer(model, OptimizerConfig(method=method, lr=0.1)).step(batch, {1: 0.5, 2: 0.5})
        assert not np.array_equal(model.heads[1][0].weight.data, before), method


def test_pcgrad_rejects_three_tasks():
    # PCGrad projects each task against the one other task; with three
    # tasks it would need a random order over the others
    spec = ModelSpec(
        trunk=(ConvSpec(2, 4),),
        heads={1: (ConvSpec(4, 1, kernel_size=1),), 2: (ConvSpec(4, 1, kernel_size=1),),
               3: (ConvSpec(4, 2, kernel_size=1),)},
        tasks=(TaskSpec(1, "mse"), TaskSpec(2, "mse"), TaskSpec(3, "cross_entropy")))
    model = build_model(spec, seed=50)
    with pytest.raises(ConfigError, match="pcgrad takes at most 2 tasks"):
        MtlOptimizer(model, OptimizerConfig(method="pcgrad", lr=0.05))
    MtlOptimizer(model, OptimizerConfig(method="gd", lr=0.05))


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_optimizer_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(lr=0.0).validate((1, 2))
    with pytest.raises(ConfigError):
        OptimizerConfig(method="mgda").validate((1, 2))


def test_adam_rule_applies_to_combined_gradient():
    model = build_model(conv_task_spec(), seed=61)
    opt = MtlOptimizer(model, OptimizerConfig(method="gd", lr=0.01, update_rule="adam"))
    before = {n: p.data.copy() for n, p in model.named_parameters().items()}
    opt.gd_step(conv_batch(62), {1: 0.5, 2: 0.5})
    changed = [n for n, p in model.named_parameters().items()
               if not np.array_equal(p.data, before[n])]
    assert changed  # adam state initialized and applied
