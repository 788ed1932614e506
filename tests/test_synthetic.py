import math

import numpy as np
import pytest

from mtlopt.errors import ConfigError, DataError
from mtlopt.rng import substream
from mtlopt.synthetic import (DEPTH_TASK, SEG_TASK, SyntheticConfig, SyntheticMtlDataset,
                              _class_edges)


def test_batch_shapes_match_config():
    cfg = SyntheticConfig(batch_size=3, channels=2, height=7, width=9, num_classes=5)
    batch = SyntheticMtlDataset(cfg, seed=0).batch(0)
    assert batch.x.shape == (3, 2, 7, 9)
    assert batch.targets[SEG_TASK].shape == (3, 7, 9)
    assert batch.targets[DEPTH_TASK].shape == (3, 1, 7, 9)
    assert batch.targets[SEG_TASK].dtype == np.int64
    assert set(np.unique(batch.targets[SEG_TASK])) <= set(range(5))


def test_determinism_bit_identical():
    cfg = SyntheticConfig()
    a = SyntheticMtlDataset(cfg, seed=42)
    b = SyntheticMtlDataset(cfg, seed=42)
    for idx in (0, 3):
        ba, bb = a.batch(idx), b.batch(idx)
        assert np.array_equal(ba.x, bb.x)
        assert np.array_equal(ba.targets[SEG_TASK], bb.targets[SEG_TASK])
        assert np.array_equal(ba.targets[DEPTH_TASK], bb.targets[DEPTH_TASK])


def test_different_seeds_differ():
    cfg = SyntheticConfig()
    a = SyntheticMtlDataset(cfg, seed=1).batch(0)
    b = SyntheticMtlDataset(cfg, seed=2).batch(0)
    assert not np.array_equal(a.x, b.x)


def test_train_and_eval_streams_are_distinct():
    ds = SyntheticMtlDataset(SyntheticConfig(), seed=3)
    assert not np.array_equal(ds.batch(0).x, ds.eval_batch(0).x)


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        SyntheticMtlDataset(SyntheticConfig(num_classes=1), seed=0)
    with pytest.raises(ConfigError):
        SyntheticMtlDataset(SyntheticConfig(batch_size=0), seed=0)


def test_balanced_classes_constant_predictor_entropy():
    # over 1e4 samples the class histogram is balanced, so the best constant
    # predictor's cross-entropy approaches ln(num_classes) within 2%
    cfg = SyntheticConfig(batch_size=8, height=12, width=12, num_classes=4)
    ds = SyntheticMtlDataset(cfg, seed=7)
    counts = np.zeros(cfg.num_classes)
    samples = 0
    idx = 0
    while samples < 10_000:
        seg = ds.batch(idx).targets[SEG_TASK]
        counts += np.bincount(seg.reshape(-1), minlength=cfg.num_classes)
        samples += seg.shape[0]
        idx += 1
    freqs = counts / counts.sum()
    constant_predictor_ce = -float(np.sum(freqs * np.log(freqs)))
    assert abs(constant_predictor_ce - math.log(cfg.num_classes)) < 0.02 * math.log(cfg.num_classes)


def test_depth_target_bounded():
    batch = SyntheticMtlDataset(SyntheticConfig(), seed=5).batch(0)
    assert np.all(np.abs(batch.targets[DEPTH_TASK]) <= 1.0)


def _reference_generate(cfg: SyntheticConfig, seed: int, tag: str):
    """The original per-image, per-bump generator, kept as the byte reference."""
    rng = substream(seed, f"synthetic-{tag}")
    ys, xs = np.meshgrid(np.linspace(0.0, 1.0, cfg.height),
                         np.linspace(0.0, 1.0, cfg.width), indexing="ij")

    def bump_field() -> np.ndarray:
        field = np.zeros((cfg.height, cfg.width))
        for _ in range(cfg.bumps):
            cx, cy = rng.uniform(0.0, 1.0, size=2)
            width = rng.uniform(0.15, 0.35)
            amp = rng.uniform(0.5, 1.5)
            field += amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * width ** 2))
        centred = field - field.mean()
        scale = centred.std()
        return centred / scale if scale > 0 else centred

    x = np.empty((cfg.batch_size, cfg.channels, cfg.height, cfg.width))
    seg = np.empty((cfg.batch_size, cfg.height, cfg.width), dtype=np.int64)
    depth = np.empty((cfg.batch_size, 1, cfg.height, cfg.width))
    for n in range(cfg.batch_size):
        z1 = bump_field()
        z2 = bump_field()
        feats = [z1, z2, (z1 + z2) / np.sqrt(2.0)]
        for c in range(cfg.channels):
            x[n, c] = feats[c % len(feats)] + cfg.noise * rng.normal(size=z1.shape)

        edges = np.quantile(z1, np.linspace(0.0, 1.0, cfg.num_classes + 1)[1:-1])
        seg[n] = np.digitize(z1, edges)
        depth[n, 0] = np.tanh(cfg.depth_mix[0] * z1 + cfg.depth_mix[1] * z2)
    return x, seg, depth


PINNED_CONFIGS = [
    SyntheticConfig(),
    SyntheticConfig(batch_size=16, height=16, width=16),
    SyntheticConfig(channels=5, bumps=4, height=9, width=13, num_classes=3),
    SyntheticConfig(batch_size=1, channels=1, bumps=1, height=1, width=2),
]


@pytest.mark.parametrize("cfg", PINNED_CONFIGS, ids=["default", "16x16-b16", "c5-b4-9x13", "tiny"])
def test_batches_match_reference_bytes(cfg):
    for seed in (0, 7, 2 ** 62 + 11):
        ds = SyntheticMtlDataset(cfg, seed=seed)
        for stream, make in (("train", ds.batch), ("eval", ds.eval_batch)):
            for idx in (0, 1, 5):
                got = make(idx)
                want = _reference_generate(cfg, seed, f"{stream}-{idx}")
                for arr, ref in zip((got.x, got.targets[SEG_TASK], got.targets[DEPTH_TASK]), want):
                    assert arr.dtype == ref.dtype
                    assert arr.shape == ref.shape
                    assert arr.tobytes() == ref.tobytes()


class _Reference:
    """``_reference_generate`` per (stream, index), each built once."""

    def __init__(self, cfg: SyntheticConfig, seed: int):
        self.cfg, self.seed, self.built = cfg, seed, {}

    def check(self, stream: str, idx: int, got) -> None:
        key = f"{stream}-{idx}"
        if key not in self.built:
            self.built[key] = _reference_generate(self.cfg, self.seed, key)
        for arr, ref in zip((got.x, got.targets[SEG_TASK], got.targets[DEPTH_TASK]),
                            self.built[key]):
            assert arr.dtype == ref.dtype and arr.shape == ref.shape
            assert arr.tobytes() == ref.tobytes(), (key, self.cfg)


def _chunk_edges(chunk: int) -> list[int]:
    """Indices that open, close and cross chunk boundaries, negatives included."""
    return sorted({-chunk - 1, -chunk, -1, 0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk,
                   2 * chunk + 1, 5})


@pytest.mark.parametrize("cfg", PINNED_CONFIGS, ids=["default", "16x16-b16", "c5-b4-9x13", "tiny"])
def test_chunked_batches_match_reference_in_any_order(cfg):
    seed = 7
    ref = _Reference(cfg, seed)
    chunk = SyntheticMtlDataset(cfg, seed=seed)._chunk
    indices = _chunk_edges(chunk)
    shuffled = list(np.random.default_rng(3).permutation(indices))
    for order in (indices, indices[::-1], shuffled):
        ds = SyntheticMtlDataset(cfg, seed=seed)
        for _ in range(2):
            for idx in order:
                ref.check("train", idx, ds.batch(idx))
                ref.check("eval", idx, ds.eval_batch(idx))


@pytest.mark.parametrize("cfg", PINNED_CONFIGS, ids=["default", "16x16-b16", "c5-b4-9x13", "tiny"])
def test_first_request_inside_a_chunk(cfg):
    seed = 2 ** 62 + 11
    ref = _Reference(cfg, seed)
    chunk = SyntheticMtlDataset(cfg, seed=seed)._chunk
    for start in (chunk // 2, chunk + chunk // 2, -1 - chunk // 2):
        ds = SyntheticMtlDataset(cfg, seed=seed)
        first = start - start % chunk
        # the requested batch, then the rest of its chunk, then one beyond it
        for idx in [start, *range(first, first + chunk), first + chunk]:
            ref.check("train", idx, ds.batch(idx))
        ds = SyntheticMtlDataset(cfg, seed=seed)
        for idx in [start, *range(first, first + chunk)]:
            ref.check("eval", idx, ds.eval_batch(idx))


def test_chunk_size_groups_desk_batches_and_not_wide_ones():
    # a default 8x3x12x12 batch shares its chunk with 3 to 6 neighbours; a
    # 16x3x16x16 batch is built alone
    assert 4 <= SyntheticMtlDataset(SyntheticConfig(), seed=0)._chunk <= 7
    wide = SyntheticConfig(batch_size=16, height=16, width=16)
    assert SyntheticMtlDataset(wide, seed=0)._chunk == 1


@pytest.mark.parametrize("index", [1.5, 2.0, True, False, np.bool_(True), "1", None])
def test_non_integer_index_rejected(index):
    ds = SyntheticMtlDataset(SyntheticConfig(), seed=4)
    with pytest.raises(DataError, match="batch index must be an integer"):
        ds.batch(index)
    with pytest.raises(DataError, match="batch index must be an integer"):
        ds.eval_batch(index)


def test_numpy_and_negative_indices_keep_their_bytes():
    cfg = SyntheticConfig()
    ref = _Reference(cfg, 6)
    ds = SyntheticMtlDataset(cfg, seed=6)
    for idx in (np.int64(3), np.int32(-2), np.uint8(9), -7):
        ref.check("train", int(idx), ds.batch(idx))
        ref.check("eval", int(idx), ds.eval_batch(idx))


def test_eval_batches_are_memoised_and_read_only():
    ds = SyntheticMtlDataset(SyntheticConfig(), seed=9)
    first, again = ds.eval_batch(2), ds.eval_batch(2)
    for a, b in ((first.x, again.x), (first.targets[SEG_TASK], again.targets[SEG_TASK]),
                 (first.targets[DEPTH_TASK], again.targets[DEPTH_TASK])):
        assert a.tobytes() == b.tobytes()
        with pytest.raises(ValueError):
            a[...] = 0
        with pytest.raises(ValueError):
            b += 1
    # a caller that edits the returned target dict does not reach the memo
    again.targets.clear()
    assert set(ds.eval_batch(2).targets) == {SEG_TASK, DEPTH_TASK}


def test_train_batches_are_fresh_and_writable():
    ds = SyntheticMtlDataset(SyntheticConfig(), seed=9)
    a, b = ds.batch(2), ds.batch(2)
    assert a.x is not b.x
    for arr in (a.x, a.targets[SEG_TASK], a.targets[DEPTH_TASK]):
        arr[...] = 0
    assert a.x.tobytes() != b.x.tobytes()
    assert b.x.tobytes() == ds.batch(2).x.tobytes()


@pytest.mark.parametrize("num_classes", range(2, 8))
def test_class_edges_match_np_quantile(num_classes):
    rng = np.random.default_rng(num_classes)
    q = np.linspace(0.0, 1.0, num_classes + 1)[1:-1]
    for values in (rng.normal(size=(3, 2)),                    # m = 2
                   rng.integers(0, 3, size=(4, 9)) * 0.5,      # ties
                   np.repeat(rng.normal(size=(2, 1)), 5, axis=1),
                   rng.normal(size=(5, 144))):
        got = _class_edges(values, num_classes)
        want = np.quantile(values, q, axis=1)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
