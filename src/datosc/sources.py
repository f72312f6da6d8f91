"""Synthetic source generators and PGM ingestion.

gen_blocks returns a batch of blocks, but block t of a stream draws from its
own generator, default_rng((spec.seed, t)), so any range of blocks equals the
same rows of a longer range: trials can run on any number of workers without
changing results. A range's generators are seeded together from one hash
(source_states, streams.py).
load_pgm returns an image's 8x8 tiles as one (B, 64) array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FormatError, ParameterError
from .streams import default_rngs, stream_states

# Class-mean constants are shared by every experiment (they play the role of
# pre-trained task weights), so they hang off a fixed seed instead of the
# per-run spec seed.
CLASS_MEAN_SEED = 0xC1A55

BLOCK_SIDE = 8  # PGM tiling is 8x8 -> n=64


@dataclass(frozen=True)
class SourceSpec:
    kind: str = "gauss_markov"  # gauss_markov | class_mixture | image_blocks
    n: int = 64
    rho: float = 0.0
    class_count: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.n < 1:
            raise ParameterError(f"block length must be >= 1, got {self.n}")
        if self.kind == "gauss_markov" and not (0.0 <= self.rho < 1.0):
            raise ParameterError(f"rho must lie in [0, 1), got {self.rho}")
        if self.kind == "class_mixture":
            if self.class_count < 1:
                raise ParameterError("class_count must be >= 1")
            if self.class_count > self.n:
                raise ParameterError(
                    f"cannot build {self.class_count} orthogonal class means in "
                    f"dimension {self.n}"
                )


@lru_cache(maxsize=8)
def class_means(n: int, class_count: int) -> np.ndarray:
    """K orthogonal class-mean rows of norm sqrt(n)/2, fixed for all runs."""
    if class_count > n:
        raise ParameterError(
            f"cannot build {class_count} orthogonal class means in dimension {n}"
        )
    rng = np.random.default_rng(CLASS_MEAN_SEED)
    raw = rng.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    # Fix the QR sign convention so the basis is unambiguous.
    q = q * np.sign(np.diag(r))
    means = q[:, :class_count].T * (0.5 * np.sqrt(n))
    means.setflags(write=False)
    return means


def source_states(seed: int, t0: int, t1: int) -> np.ndarray:
    """(T, 4) uint64: the PCG64 state words of blocks t0..t1-1's generators,
    default_rng((seed, t)), from one hash (streams.stream_states)."""
    return stream_states(seed, np.arange(t0, t1))


def gen_blocks(
    spec: SourceSpec, t0: int, t1: int, states: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Blocks t0..t1-1 of a synthetic stream: samples (T, n) and class
    labels (T,), -1 for the label-free AR(1) source.

    Block t draws from its own generator, default_rng((spec.seed, t)): first
    the label (class mixture only), then n unit normals. A mixture block is its
    class mean plus those normals. Image streams are built via load_pgm instead.
    states are source_states(spec.seed, t0, t1), passed by a caller that
    hashed a longer range once and draws it in parts (harness.run_chunk).
    """
    if spec.kind not in ("gauss_markov", "class_mixture"):
        raise ParameterError(f"cannot generate blocks for source kind {spec.kind!r}")
    spec.validate()
    if states is None:
        states = source_states(spec.seed, t0, t1)
    mixture = spec.kind == "class_mixture"
    w = np.empty((t1 - t0, spec.n))
    labels = np.full(t1 - t0, -1, dtype=np.int64)
    for i, rng in enumerate(default_rngs(states)):
        if mixture:
            labels[i] = rng.integers(spec.class_count)
        rng.standard_normal(out=w[i])
    if mixture:
        return class_means(spec.n, spec.class_count)[labels] + w, labels
    # AR(1): x[i] = rho*x[i-1] + sqrt(1-rho^2)*w[i], unit marginal variance;
    # x[0] = w[0] is the stationary start. Steps in place, one column at a time.
    if spec.rho != 0.0:
        scale = np.sqrt(1.0 - spec.rho**2)
        for i in range(1, spec.n):
            w[:, i] = spec.rho * w[:, i - 1] + scale * w[:, i]
    return w, labels


def pixel_to_sample(p: np.ndarray) -> np.ndarray:
    return 2.0 * p / 255.0 - 1.0


def _parse_pgm_header(data: bytes) -> tuple[int, int, int, int]:
    """Return (width, height, maxval, data_offset) for a binary 'P5' file."""
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("truncated PGM header")
        return data[start:pos]

    if next_token() != b"P5":
        raise FormatError("not a binary PGM (magic != P5)")
    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except ValueError as exc:
        raise FormatError(f"malformed PGM header: {exc}") from None
    if width < 1 or height < 1:
        raise FormatError(f"bad PGM dimensions {width}x{height}")
    return width, height, maxval, pos + 1  # single whitespace before raster


def load_pgm(path) -> np.ndarray:
    """Tile a maxval-255 binary PGM into zero-padded 8x8 blocks: a (B, 64)
    array with one raster-ordered tile per row, tiles in row-major order."""
    with open(path, "rb") as fh:
        data = fh.read()
    width, height, maxval, offset = _parse_pgm_header(data)
    if maxval != 255:
        raise FormatError(f"only maxval 255 is supported, got {maxval}")
    raster = np.frombuffer(data, dtype=np.uint8, offset=offset)
    if raster.size < width * height:
        raise FormatError(
            f"PGM raster too short: {raster.size} bytes for {width}x{height}"
        )
    image = raster[: width * height].reshape(height, width)

    by = -(-height // BLOCK_SIDE)
    bx = -(-width // BLOCK_SIDE)
    padded = np.zeros((by * BLOCK_SIDE, bx * BLOCK_SIDE))
    padded[:height, :width] = pixel_to_sample(image.astype(np.float64))
    tiles = padded.reshape(by, BLOCK_SIDE, bx, BLOCK_SIDE).swapaxes(1, 2)
    return tiles.reshape(by * bx, BLOCK_SIDE * BLOCK_SIDE)
