import copy

import numpy as np
import pytest

from mtlopt.autodiff import Tape
from mtlopt.errors import ConfigError, DataError
from mtlopt.network import (
    SHARED,
    Batch,
    ConvSpec,
    ModelSpec,
    TaskSpec,
    build_model,
    per_task_gradients,
)


def two_task_spec(trunk=None, heads=None):
    return ModelSpec(
        trunk=trunk or (ConvSpec(3, 8), ConvSpec(8, 16)),
        heads=heads if heads is not None else {
            1: (ConvSpec(16, 4, kernel_size=1),),
            2: (ConvSpec(16, 1, kernel_size=1),),
        },
        tasks=(TaskSpec(1, "cross_entropy"), TaskSpec(2, "mse")),
    )


def scalar_shared_spec():
    """Trunk reduced to a scalar shared weight and bias: conv 1x1, no bn/relu,
    empty heads. Prediction on a 1x1x1x1 input is exactly theta * x + b."""
    return ModelSpec(
        trunk=(ConvSpec(1, 1, kernel_size=1, batch_norm=False, activation=False),),
        heads={},
        tasks=(TaskSpec(1, "mse"), TaskSpec(2, "mse")),
    )


def scalar_batch():
    return Batch(
        x=np.ones((1, 1, 1, 1)),
        targets={1: np.ones((1, 1, 1, 1)), 2: -np.ones((1, 1, 1, 1))},
    )


def test_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec(trunk=(ConvSpec(3, 8), ConvSpec(4, 8)), heads={},
                  tasks=(TaskSpec(1),)).validate()
    with pytest.raises(ConfigError):
        ModelSpec(trunk=(ConvSpec(3, 8),), heads={},
                  tasks=(TaskSpec(2), TaskSpec(1))).validate()
    with pytest.raises(ConfigError):
        ModelSpec(trunk=(ConvSpec(3, 8),), heads={}, tasks=()).validate()


def test_build_single_task_degeneracy():
    spec = ModelSpec(trunk=(ConvSpec(3, 4),), heads={1: (ConvSpec(4, 2, kernel_size=1),)},
                     tasks=(TaskSpec(1, "mse"),))
    model = build_model(spec, seed=7)
    assert set(model.layout.members) == {SHARED, 1}
    assert len(model.trunk[0].bn) == 1


def test_build_determinism():
    spec = two_task_spec()
    a = build_model(spec, seed=123)
    b = build_model(spec, seed=123)
    for (na, pa), (nb, pb) in zip(sorted(a.named_parameters().items()),
                                  sorted(b.named_parameters().items())):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)


def test_partition_counts_two_layer_trunk():
    model = build_model(two_task_spec(), seed=1)
    members = model.layout.members
    weights = [n for n in members[SHARED] if n.endswith(".weight")]
    biases = [n for n in members[SHARED] if n.endswith(".bias")]
    assert len(weights) == 2 and biases == []  # batch norm drops the trunk biases
    for tid in (1, 2):
        gammas = [n for n in members[tid] if n.endswith(".gamma")]
        betas = [n for n in members[tid] if n.endswith(".beta")]
        assert len(gammas) == 2 and len(betas) == 2
        assert any(n.startswith(f"head.{tid}") for n in members[tid])


def test_partition_no_heads():
    spec = ModelSpec(trunk=(ConvSpec(2, 4),), heads={},
                     tasks=(TaskSpec(1, "mse"), TaskSpec(2, "mse")))
    members = build_model(spec, seed=3).layout.members
    for tid in (1, 2):
        assert all(".bn." in n for n in members[tid])
        assert len(members[tid]) == 2  # gamma + beta


def test_partition_bookkeeping_randomized():
    rng = np.random.default_rng(42)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 4))
        chans = [int(rng.integers(1, 5)) for _ in range(depth + 1)]
        trunk = tuple(ConvSpec(chans[i], chans[i + 1], kernel_size=int(rng.choice([1, 3])),
                               batch_norm=bool(rng.integers(0, 2)))
                      for i in range(depth))
        heads = {tid: (ConvSpec(chans[-1], int(rng.integers(1, 4)), kernel_size=1),)
                 for tid in range(1, k + 1) if rng.integers(0, 2)}
        spec = ModelSpec(trunk=trunk, heads=heads,
                         tasks=tuple(TaskSpec(i, "mse") for i in range(1, k + 1)))
        model = build_model(spec, seed=int(rng.integers(0, 2**32)))
        names = [n for v in model.layout.members.values() for n in v]
        assert sorted(names) == sorted(model.named_parameters())  # disjoint, covering


def test_scalar_shared_gradients_and_conflict():
    model = build_model(scalar_shared_spec(), seed=0)
    theta = model.trunk[0].weight
    theta.data[...] = 0.0
    batch = scalar_batch()

    model.zero_grad()
    l1, g1, own1 = per_task_gradients(model, batch, task=1, loss_weight=1.0)
    model.zero_grad()
    l2, g2, own2 = per_task_gradients(model, batch, task=2, loss_weight=1.0)

    # L1 = (theta-1)^2, L2 = (theta+1)^2 at theta=0
    assert l1 == 1.0 and l2 == 1.0
    assert model.layout.views(g1, SHARED)["trunk.0.weight"].item() == -2.0
    assert model.layout.views(g2, SHARED)["trunk.0.weight"].item() == 2.0
    assert own1.size == 0 and own2.size == 0


def test_zero_loss_weight_annihilates_gradients():
    model = build_model(two_task_spec(), seed=5)
    batch = make_batch(9)
    model.zero_grad()
    _, shared, own = per_task_gradients(model, batch, task=2, loss_weight=0.0)
    assert shared.size and not shared.any()
    assert own.size and not own.any()


def make_batch(seed, n=2, c=3, h=6, w=6, classes=4):
    rng = np.random.default_rng(seed)
    return Batch(
        x=rng.normal(size=(n, c, h, w)),
        targets={1: rng.integers(0, classes, size=(n, h, w)),
                 2: rng.normal(size=(n, 1, h, w))},
    )


def test_missing_target_raises():
    model = build_model(two_task_spec(), seed=5)
    batch = make_batch(1)
    del batch.targets[2]
    with pytest.raises(DataError):
        per_task_gradients(model, batch, task=2)


def test_task_isolation():
    model = build_model(two_task_spec(), seed=8)
    params = model.named_parameters()
    model.zero_grad()
    per_task_gradients(model, make_batch(2), task=1)
    for name in model.layout.members[2]:
        assert np.all(params[name].grad == 0), name


def test_batchnorm_routing_isolation():
    spec = two_task_spec()
    batch = make_batch(3)
    model = build_model(spec, seed=11)
    out_before = model.forward(batch.x, task=1, tape=Tape(), mode="train").data.copy()
    for layer in model.trunk:
        layer.bn[2].gamma.data[...] = 5.0  # mangle the other task's scales
    out_after = model.forward(batch.x, task=1, tape=Tape(), mode="train").data
    assert np.array_equal(out_before, out_after)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_non_recording_forward_matches_recording_bits(mode):
    # the same forward, once on each kind of tape, from the same state:
    # outputs, losses and the running statistics it moves keep every bit
    batch = make_batch(4)
    results = []
    for record in (True, False):
        model = build_model(two_task_spec(), seed=17)
        rng = np.random.default_rng(5)  # running statistics away from (0, 1)
        for buf in model.named_buffers().values():
            buf[...] = rng.uniform(0.5, 1.5, size=buf.shape)
        tape = Tape(record=record)
        out = model.forward(batch.x, task=1, tape=tape, mode=mode)
        loss = tape.compute_loss(out, batch.targets[1], "cross_entropy")
        buffers = [b.tobytes() for b in model.named_buffers().values()]
        results.append((out.data.tobytes(), loss.data.tobytes(), buffers))
    assert results[0] == results[1]


def test_gradient_snapshot_independence():
    model = build_model(two_task_spec(), seed=13)
    model.zero_grad()
    _, shared, _ = per_task_gradients(model, make_batch(4), task=1)
    frozen = shared.copy()
    for p in model.named_parameters().values():
        p.data[...] = 0.0
        p.grad[...] = 123.0
    assert np.array_equal(shared, frozen)


def test_weighted_sum_consistency():
    model = build_model(two_task_spec(), seed=21)
    batch = make_batch(6)
    weights = {1: 0.3, 2: 0.7}

    summed = 0.0
    for tid in (1, 2):
        model.zero_grad()
        _, gs, _ = per_task_gradients(model, batch, task=tid, loss_weight=weights[tid])
        summed = summed + gs
    summed = model.layout.views(summed, SHARED)

    # one tape, one backward per weighted task loss, accumulating into .grad
    model.zero_grad()
    tape = Tape()
    for tid in (1, 2):
        pred = model.forward(batch.x, tid, tape, mode="train")
        loss = tape.compute_loss(pred, batch.targets[tid], model.spec.task(tid).loss)
        tape.backward(tape.scale(loss, weights[tid]))
    params = model.named_parameters()
    for n in model.layout.members[SHARED]:
        np.testing.assert_allclose(params[n].grad, summed[n], atol=1e-10)


def test_flat_layout_views_and_blocks():
    # a trunk layer without batch norm has a bias, which sorts before its weight
    spec = two_task_spec(trunk=(ConvSpec(3, 8, batch_norm=False), ConvSpec(8, 16)))
    model = build_model(spec, seed=35)
    layout = model.layout

    # every parameter's .data and .grad is a view into the two flat vectors,
    # also in a deep copy
    for m in (model, copy.deepcopy(model)):
        for name, p in m.named_parameters().items():
            assert p.data.base is m.flat_data and p.grad.base is m.flat_grad, name
            np.testing.assert_array_equal(p.data.reshape(-1), m.flat_data[layout.slices[name]])
    model.flat_grad[:] = np.arange(layout.size)
    for name, p in model.named_parameters().items():
        np.testing.assert_array_equal(p.grad.reshape(-1), np.arange(layout.size)[layout.slices[name]])

    # the shared block in sorted-name order, then each task's block: its
    # batch-norm scales and shifts, then its head
    assert layout.members == {
        SHARED: ("trunk.0.bias", "trunk.0.weight", "trunk.1.weight"),
        1: ("trunk.1.bn.1.gamma", "trunk.1.bn.1.beta", "head.1.0.weight", "head.1.0.bias"),
        2: ("trunk.1.bn.2.gamma", "trunk.1.bn.2.beta", "head.2.0.weight", "head.2.0.bias"),
    }
    offset = 0
    for key, names in layout.members.items():
        assert layout.blocks[key].start == offset, key
        for name in names:
            assert layout.slices[name].start == offset, name
            offset = layout.slices[name].stop
        assert layout.blocks[key].stop == offset, key
    assert offset == layout.size == model.flat_data.size == model.flat_grad.size

    # per_task_gradients' blocks hold the named leaf gradients bit for bit
    params = model.named_parameters()
    for tid in (1, 2):
        _, shared, own = per_task_gradients(model, make_batch(8), task=tid)
        for key, block in ((SHARED, shared), (tid, own)):
            assert block.size == layout.blocks[key].stop - layout.blocks[key].start
            for name, grad in layout.views(block, key).items():
                assert grad.tobytes() == params[name].grad.tobytes(), name

