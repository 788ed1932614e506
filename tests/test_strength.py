import numpy as np
import pytest

from mtlopt.autodiff import BatchNormState
from mtlopt.errors import StateError
from mtlopt.network import ConvSpec, ModelSpec, TaskSpec, build_model
from mtlopt.strength import (
    StrengthReport,
    channel_owners,
    layer_strength_report,
    model_strength_snapshot,
    normalized_strength,
    snapshot_records,
)


def _state(gamma, var, channels=1):
    st = BatchNormState.fresh(channels)
    st.gamma.data[...] = gamma
    st.running_var[...] = var
    return st


def _raw(weight, gamma=1.0, var=1.0, eps=0.0):
    """Raw strengths (one row) of a single-task layer, as the training snapshot computes them."""
    state = _state(gamma, var, channels=weight.shape[0])
    return layer_strength_report("trunk.0", weight, {1: state}, (1,), eps=eps).raw[0]


# with gamma = var = 1 and eps = 0 the raw strength is the kernel strength
def test_kernel_strength_single_element():
    w = np.zeros((1, 1, 1, 1))
    w[0, 0, 0, 0] = 3.0
    assert _raw(w)[0] == 9.0


def test_kernel_strength_all_ones_2x2():
    w = np.ones((2, 1, 2, 2))
    np.testing.assert_array_equal(_raw(w), [1.0, 1.0])


def test_kernel_strength_zero_kernel():
    w = np.ones((2, 2, 3, 3))
    w[1] = 0.0
    assert _raw(w)[1] == 0.0


def test_channel_strength_substitution():
    # gamma=2, var=3, eps=1, kernel sum 5 -> (4/4)*5 = 5
    w = np.ones((1, 5, 1, 1))  # five input channels, each strength 1
    assert _raw(w, gamma=2.0, var=3.0, eps=1.0)[0] == 5.0


def test_channel_strength_gamma_zero():
    w = np.random.default_rng(0).normal(size=(2, 3, 3, 3))
    raw = _raw(w, gamma=np.array([1.0, 0.0]), eps=1e-5)
    assert raw[1] == 0.0 and raw[0] > 0.0


def test_channel_strength_quadratic_in_gamma():
    w = np.random.default_rng(1).normal(size=(1, 2, 3, 3))
    s1 = _raw(w, gamma=1.5, var=0.7, eps=1e-5)
    s2 = _raw(w, gamma=3.0, var=0.7, eps=1e-5)
    np.testing.assert_allclose(s2, 4.0 * s1)


def test_channel_strength_negative_variance():
    with pytest.raises(StateError):
        _raw(np.ones((1, 1, 1, 1)), var=-0.5)


def test_normalized_strength_examples():
    assert normalized_strength(np.array([[7.0]]))[0, 0] == 1.0
    np.testing.assert_array_equal(
        normalized_strength(np.array([[2.0, 2.0, 2.0, 2.0]])), np.full((1, 4), 0.25))
    np.testing.assert_array_equal(
        normalized_strength(np.array([[1.0, 3.0]])), np.array([[0.25, 0.75]]))


def test_normalized_strength_zero_row_guard():
    out = normalized_strength(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 2.0]]))
    np.testing.assert_array_equal(out[0], np.full(3, 1.0 / 3.0))
    assert abs(out[1].sum() - 1.0) < 1e-12


def test_channel_groups_argmax():
    norm = np.array([[0.7, 0.3], [0.2, 0.8]])  # rows tasks, columns channels
    np.testing.assert_array_equal(channel_owners(norm, (1, 2)), [1, 2])


def test_channel_groups_tie_goes_low():
    norm = np.array([[0.5, 0.4], [0.5, 0.6]])
    np.testing.assert_array_equal(channel_owners(norm, (1, 2)), [1, 2])


def test_channel_groups_empty_group_legal():
    norm = np.array([[0.6, 0.6], [0.4, 0.4]])
    np.testing.assert_array_equal(channel_owners(norm, (1, 2)), [1, 1])


def test_validate_rejects_an_owner_that_is_not_the_argmax():
    norm = np.array([[0.7, 0.3], [0.2, 0.8]])
    StrengthReport("trunk.0", (1, 2), norm, norm, np.array([1, 2])).validate()
    for owners in ([2, 2], [1, 1], [1, 3]):
        with pytest.raises(StateError, match="not owned by its argmax task"):
            StrengthReport("trunk.0", (1, 2), norm, norm, np.array(owners)).validate()


def _random_raw(rng, tasks=3, channels=6):
    return rng.uniform(0.0, 5.0, size=(tasks, channels))


def test_row_normalization_property():
    rng = np.random.default_rng(7)
    for _ in range(200):
        norm = normalized_strength(_random_raw(rng))
        np.testing.assert_allclose(norm.sum(axis=1), 1.0, atol=1e-9)


def test_argmax_invariance_under_row_scaling():
    rng = np.random.default_rng(8)
    for _ in range(200):
        raw = _random_raw(rng)
        owners = channel_owners(normalized_strength(raw), (1, 2, 3))
        row = int(rng.integers(0, 3))
        c = float(rng.uniform(0.01, 100.0))
        scaled = raw.copy()
        scaled[row] *= c
        np.testing.assert_array_equal(
            channel_owners(normalized_strength(scaled), (1, 2, 3)), owners)


def test_monotone_response_to_gamma():
    rng = np.random.default_rng(9)
    spec = ModelSpec(trunk=(ConvSpec(2, 6),), heads={},
                     tasks=(TaskSpec(1, "mse"), TaskSpec(2, "mse")))
    for trial in range(20):
        model = build_model(spec, seed=trial)
        layer = model.trunk[0]
        for tid in (1, 2):
            layer.bn[tid].gamma.data[...] = rng.uniform(0.1, 2.0, size=6)
            layer.bn[tid].running_var[...] = rng.uniform(0.1, 2.0, size=6)
        report = layer_strength_report("trunk.0", layer.weight, layer.bn, (1, 2))
        for tid in (1, 2):
            for p in np.flatnonzero(report.owners == tid):
                saved = layer.bn[tid].gamma.data[p]
                layer.bn[tid].gamma.data[p] = saved * float(rng.uniform(1.0, 10.0))
                after = layer_strength_report("trunk.0", layer.weight, layer.bn, (1, 2))
                assert after.owners[p] == tid
                layer.bn[tid].gamma.data[p] = saved


def test_snapshot_partition_and_export():
    spec = ModelSpec(trunk=(ConvSpec(3, 8), ConvSpec(8, 4)),
                     heads={}, tasks=(TaskSpec(1, "mse"), TaskSpec(2, "mse")))
    model = build_model(spec, seed=4)
    snapshot = model_strength_snapshot(model)
    assert set(snapshot) == {"trunk.0", "trunk.1"}
    for report in snapshot.values():
        report.validate()
        assert report.owners.shape == (report.num_channels,)
        assert set(report.owners.tolist()) <= {1, 2}

    records = snapshot_records(seed=17, epoch=3, snapshot=snapshot)
    assert [rec["layer"] for rec in records] == ["trunk.0", "trunk.1"]
    assert all(rec["epoch"] == 3 and rec["seed"] == 17 for rec in records)
    assert all(rec.keys() == {"seed", "epoch", "layer", "tasks", "norm", "groups"}
               for rec in records)
    # the records keep the per-task channel lists, in ascending channel order
    for rec, report in zip(records, snapshot.values()):
        assert rec["groups"] == {str(tid): [p for p in range(report.num_channels)
                                            if report.owners[p] == tid] for tid in (1, 2)}
