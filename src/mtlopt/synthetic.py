"""Procedural two-task image batches driven by shared latent shapes.

Every batch is a deterministic function of (seed, batch index). Images are
built from a few Gaussian bumps; the segmentation target quantile-bins the
latent field into balanced classes and the regression target is a smooth
transform of the same field, so both tasks are learnable from the shared
input and correlate through the latent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, is_int, is_number
from .network import Batch
from .rng import substream

SEG_TASK = 1
DEPTH_TASK = 2
# The task id of each target: its name and the loss that fits it. A task
# takes the target its id names, in a single-task run as in a multi-task one.
TARGETS = {SEG_TASK: ("segmentation", "cross_entropy"), DEPTH_TASK: ("depth", "mse")}

# A request builds, in one field pass, the aligned chunk of consecutive
# batches whose images hold at most this many values: four default 8x3x12x12
# batches, or one 16x3x16x16 batch alone. Chunks save numpy's per-call cost,
# which a small batch is mostly made of and a large one hardly has.
CHUNK_VALUES = 16_384
# Each batch's RNG substream and per-image draws cost the same in any chunk,
# so past a few batches a chunk gains little; the cap keeps a 2-value batch
# from building 8,192 batches per request.
MAX_CHUNK_BATCHES = 8


@dataclass(frozen=True)
class SyntheticConfig:
    batch_size: int = 8
    channels: int = 3
    height: int = 12
    width: int = 12
    num_classes: int = 4
    bumps: int = 3
    noise: float = 0.05
    # regression target = tanh(depth_mix[0]*z1 + depth_mix[1]*z2); the first
    # latent also drives segmentation, so these coefficients set how strongly
    # the two tasks compete for shared features
    depth_mix: tuple[float, float] = (0.7, -0.7)

    def validate(self) -> None:
        """Raise ConfigError, naming the first field that is out of range or
        of the wrong type."""
        for key in ("batch_size", "channels", "height", "width", "bumps"):
            value = getattr(self, key)
            if not (is_int(value) and value >= 1):
                raise ConfigError(f"{key}: must be a positive integer")
        if not (is_int(self.num_classes) and self.num_classes >= 2):
            raise ConfigError("num_classes: must be an integer >= 2")
        if not (is_number(self.noise) and self.noise >= 0):
            raise ConfigError("noise: must be a nonnegative number")
        mix = self.depth_mix
        if not (isinstance(mix, (list, tuple)) and len(mix) == 2
                and all(is_number(v) for v in mix)):
            raise ConfigError("depth_mix: must be two numbers")


class SyntheticMtlDataset:
    """Seeded batch generator; identical (seed, index) gives identical bytes.

    Batch ``i`` of a stream draws from its own RNG substream, each image its
    bump parameters and its pixel noise in two calls, so its bytes do not
    depend on which other batches are built with it. A request builds the
    aligned chunk of consecutive batches that holds ``i`` (``CHUNK_VALUES``
    image values, at most ``MAX_CHUNK_BATCHES`` batches) in one field pass.
    Train batches are handed out once each, fresh and writable; the rest of
    the chunk waits for its own request, and asking for a batch again builds
    its chunk again. Eval batches are kept once built, with read-only arrays.
    """

    def __init__(self, config: SyntheticConfig, seed: int):
        config.validate()
        self.config = config
        self.seed = int(seed)
        self._xs = np.linspace(0.0, 1.0, config.width)
        self._ys = np.linspace(0.0, 1.0, config.height)
        values = config.batch_size * config.channels * config.height * config.width
        self._chunk = max(1, min(CHUNK_VALUES // values, MAX_CHUNK_BATCHES))
        self._eval: dict[int, Batch] = {}
        # train batches of the last chunk built that were not handed out yet
        self._pending: dict[int, Batch] = {}

    def batch(self, index: int) -> Batch:
        index = _batch_index(index)
        batch = self._pending.pop(index, None)
        if batch is None:
            self._pending = self._generate("train", index)
            batch = self._pending.pop(index)
        return batch

    def eval_batch(self, index: int) -> Batch:
        index = _batch_index(index)
        if index not in self._eval:
            chunk = self._generate("eval", index)
            for batch in chunk.values():
                for arr in (batch.x, *batch.targets.values()):
                    arr.flags.writeable = False
            self._eval.update(chunk)
        batch = self._eval[index]
        return Batch(batch.x, dict(batch.targets))

    def _generate(self, stream: str, index: int) -> dict[int, Batch]:
        """Every batch of ``stream``'s chunk that holds ``index``, by index."""
        cfg = self.config
        count, size, h, w = self._chunk, cfg.batch_size, cfg.height, cfg.width
        first = index - index % count
        n = count * size
        # per image: (cx, cy, width, amp) for the z1 bumps then the z2 bumps,
        # then the pixel noise of every channel, each drawn straight into the
        # chunk arrays from its batch's substream; uniform(lo, hi) would draw
        # the same doubles and return lo + (hi - lo) * u, normal(0, 1) the
        # same standard normals
        draws = np.empty((n, 2, cfg.bumps, 4))
        noise = np.empty((n, cfg.channels, h, w))
        for k in range(count):
            rng = substream(self.seed, f"synthetic-{stream}-{first + k}")
            for i in range(k * size, (k + 1) * size):
                rng.random(out=draws[i])
                rng.standard_normal(out=noise[i])
        cx, cy = draws[..., 0], draws[..., 1]
        amp = 0.5 + (1.5 - 0.5) * draws[..., 3]
        # a Python float ** is libm pow, which can differ from x*x in the last bit
        denom = np.array([2 * float(s) ** 2 for s in (0.15 + (0.35 - 0.15) * draws[..., 2]).flat]
                         ).reshape(cx.shape)

        # every bump at once, then summed in bump order as a loop over them
        # would sum them; every step below is elementwise or works on one
        # image at a time, so an image's bytes do not depend on the chunk
        dx2 = (self._xs - cx[..., None, None]) ** 2
        dy2 = (self._ys[:, None] - cy[..., None, None]) ** 2
        bumps = -(dx2 + dy2) / denom[..., None, None]
        np.exp(bumps, out=bumps)
        bumps *= amp[..., None, None]
        fields = bumps[:, :, 0].copy()
        for b in range(1, cfg.bumps):
            fields += bumps[:, :, b]
        # centre and scale each latent over one flat H*W axis; every byte
        # matches np.mean and np.std on one image's 2-D field
        m = h * w
        flat = fields.reshape(n, 2, m)
        centred = flat - flat.mean(axis=-1, keepdims=True)
        scale = centred.std(axis=-1, keepdims=True)
        fields = (centred / np.where(scale > 0, scale, 1.0)).reshape(n, 2, h, w)
        z1, z2 = fields[:, 0], fields[:, 1]

        # two latent fields: segmentation reads the first, regression mixes
        # both, so the tasks share structure but compete for features
        feats = (z1, z2, (z1 + z2) / np.sqrt(2.0))
        x = noise
        x *= cfg.noise
        for c in range(cfg.channels):
            x[:, c] += feats[c % 3]
        edges = _class_edges(z1.reshape(n, m), cfg.num_classes)
        # the number of an image's edges at or below a pixel is its class, as
        # np.digitize counts it; summing over a leading edge axis adds whole
        # images, where a trailing one would reduce a few elements per pixel
        seg = (z1 >= edges[:, :, None, None]).sum(axis=0)
        depth = np.tanh(cfg.depth_mix[0] * z1 + cfg.depth_mix[1] * z2)[:, None]
        chunk = {}
        for k in range(count):
            rows = slice(k * size, (k + 1) * size)
            chunk[first + k] = Batch(x=x[rows], targets={SEG_TASK: seg[rows],
                                                         DEPTH_TASK: depth[rows]})
        return chunk


def _batch_index(index) -> int:
    """``index`` as an int: a Python or numpy integer, never a bool."""
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
        raise DataError(f"batch index must be an integer, got {index!r}")
    return int(index)


def _class_edges(values: np.ndarray, num_classes: int) -> np.ndarray:
    """Each row's inner ``num_classes``-quantiles, shape ``(num_classes - 1, rows)``.

    The same values as ``np.quantile(values, q, axis=1)`` with the default
    linear method and ``q`` the inner points of ``linspace(0, 1,
    num_classes + 1)``, by numpy's arithmetic on one sort of each row.
    """
    m = values.shape[1]
    ordered = np.sort(values, axis=1)
    virtual = (m - 1) * np.linspace(0.0, 1.0, num_classes + 1)[1:-1]
    below = np.floor(virtual)
    gamma = (virtual - below)[:, None]
    lo = below.astype(np.intp)
    a = ordered[:, lo].T
    b = ordered[:, np.minimum(lo + 1, m - 1)].T
    d = b - a
    return np.where(gamma >= 0.5, b - d * (1 - gamma), a + d * gamma)
