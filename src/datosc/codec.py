"""Transform-domain semantic codec and nearest-centroid task classifier.

The encoder is a fixed orthonormal type-II cosine transform with top-k
coefficient selection: selection is scored by task relevance when a task
model is present and by prior coefficient variance otherwise. This keeps
the two properties the link design relies on, lossy semantic compression
and analog-valued features, in an exactly testable form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.fft import dctn, idctn, dct, idct

from .errors import ParameterError
from .sources import SourceSpec, class_means, gen_blocks, source_states

# Offline calibration passes use their own fixed seed so coefficient
# statistics (and therefore index selection) are stable across runs.
CALIBRATION_SEED = 0xCA11B
CALIBRATION_BLOCKS = 10_000
# Blocks generated per calibration step; a bound on memory, not on results.
_CALIBRATION_CHUNK = 256


@dataclass(frozen=True)
class TaskModel:
    """Class centroids in coefficient space and per-coefficient relevance."""

    centroids: np.ndarray  # (K, n)
    weights: np.ndarray    # (n,) between-class variance of each coefficient


# n=64 blocks are the row-major raster of an 8x8 tile and use the separable
# 2-D transform; every other length gets the 1-D transform of size n.
def _grid_side(n: int) -> Optional[int]:
    return 8 if n == 64 else None


def analyze(samples: np.ndarray) -> np.ndarray:
    """Full orthonormal DCT-II coefficient vector of one block."""
    x = np.asarray(samples, dtype=np.float64)
    n = x.shape[-1]
    side = _grid_side(n)
    if side is not None:
        grid = x.reshape(*x.shape[:-1], side, side)
        out = dctn(grid, type=2, norm="ortho", axes=(-2, -1))
        return out.reshape(*x.shape[:-1], n)
    return dct(x, type=2, norm="ortho", axis=-1)


def synthesize_full(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of analyze for a full-length coefficient vector."""
    c = np.asarray(coeffs, dtype=np.float64)
    n = c.shape[-1]
    side = _grid_side(n)
    if side is not None:
        grid = c.reshape(*c.shape[:-1], side, side)
        out = idctn(grid, type=2, norm="ortho", axes=(-2, -1))
        return out.reshape(*c.shape[:-1], n)
    return idct(c, type=2, norm="ortho", axis=-1)


def selection_indices(
    n: int, k: int, prior_vars: np.ndarray, task: Optional[TaskModel] = None
) -> np.ndarray:
    """Ascending positions of the k highest-scoring coefficients out of n.

    Scores are the task weights when a task model is present and the prior
    variances otherwise; ties break to the lower index.
    """
    if not 1 <= k <= n:
        raise ParameterError(f"k must lie in [1, {n}], got {k}")
    prior = np.asarray(prior_vars, dtype=np.float64)
    if prior.shape != (n,):
        raise ParameterError(f"prior_vars must have shape ({n},)")
    if np.any(prior <= 0):
        raise ParameterError("prior_vars must be strictly positive")
    scores = task.weights if task is not None else prior
    return np.sort(np.argsort(-scores, kind="stable")[:k])


def classify(estimate_coeffs: np.ndarray, task: TaskModel) -> np.ndarray:
    """Nearest-centroid labels in full coefficient space; ties to lower index."""
    est = np.atleast_2d(np.asarray(estimate_coeffs, dtype=np.float64))
    # squared distance, expanded so a (T, K) matrix falls out
    d2 = (
        np.sum(est * est, axis=1)[:, None]
        - 2.0 * est @ task.centroids.T
        + np.sum(task.centroids * task.centroids, axis=1)[None, :]
    )
    return np.argmin(d2, axis=1)


def build_task_model(n: int, class_count: int) -> TaskModel:
    """Task model for the class-mixture source: centroids are the class means
    in coefficient space, relevance is the between-class variance per index."""
    centroids = analyze(class_means(n, class_count))
    weights = np.var(centroids, axis=0)
    return TaskModel(centroids=centroids, weights=weights)


def _prior_vars(chunks) -> np.ndarray:
    """Per-index coefficient second moments of (B, n) sample chunks, floored
    at 1e-12. Squares are added one block at a time, in block order, so the
    result does not depend on how the blocks are cut into chunks."""
    acc, count = 0.0, 0
    for chunk in chunks:
        coeffs = analyze(chunk)
        for sq in coeffs * coeffs:
            acc = acc + sq
        count += len(coeffs)
    return np.maximum(acc / count, 1e-12)


@lru_cache(maxsize=32)
def _calibrate_prior_vars_cached(cal_spec: SourceSpec) -> np.ndarray:
    chunks = (
        source_states(cal_spec.seed, t, min(t + _CALIBRATION_CHUNK, CALIBRATION_BLOCKS))
        for t in range(0, CALIBRATION_BLOCKS, _CALIBRATION_CHUNK)
    )
    out = _prior_vars(gen_blocks(cal_spec, states)[0] for states in chunks)
    out.setflags(write=False)
    return out


def calibrate_prior_vars(spec: SourceSpec) -> np.ndarray:
    """Per-index coefficient second moments from a seeded offline pass.

    The pass always runs under CALIBRATION_SEED so two runs of the same
    experiment select identical indices regardless of the stream seed. The
    field the kind does not read (rho of a class mixture, class_count of an
    AR(1) stream) is reset too, so it does not key a second pass.
    """
    unread = {"class_mixture": {"rho": 0.0}, "gauss_markov": {"class_count": 1}}
    return _calibrate_prior_vars_cached(
        replace(spec, seed=CALIBRATION_SEED, **unread.get(spec.kind, {}))
    )
