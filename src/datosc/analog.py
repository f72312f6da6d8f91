"""Linear analog branch: power-weighted coefficient transmission and MMSE decoding.

Coefficients are packed two per complex use (I/Q). Power is accounted per
real dimension: per_use_power below is the average power assigned to one
packed coefficient, i.e. half of the complex per-use budget. Gains follow
g_i proportional to prior_var_i^(-1/4), the minimum-total-MSE linear
allocation for independent Gaussian coefficients, normalized so the
expected frame power over the source ensemble meets the budget exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


def analog_gains(prior_vars: np.ndarray, per_use_power) -> np.ndarray:
    """g_i = c * prior_var_i^(-1/4) with sum(g_i^2 prior_var_i) = budget * k.

    per_use_power is a scalar, giving (k,) gains, or an array of budgets,
    giving one row of gains per budget: (..., k).
    """
    prior = np.asarray(prior_vars, dtype=np.float64)
    if np.any(prior <= 0):
        raise ParameterError("prior variances must be positive")
    power = np.asarray(per_use_power, dtype=np.float64)
    if np.any(power <= 0):
        raise ParameterError("per-use power must be positive")
    shape = prior ** -0.25
    energy = np.sum(shape * shape * prior)
    c = np.sqrt(power[..., None] * prior.size / energy)
    return c * shape


def pack_iq(values: np.ndarray) -> np.ndarray:
    """Pair consecutive reals into complex uses; odd length pads one zero."""
    v = np.asarray(values, dtype=np.float64)
    if v.shape[-1] % 2:
        pad = np.zeros(v.shape[:-1] + (1,))
        v = np.concatenate([v, pad], axis=-1)
    return v[..., 0::2] + 1j * v[..., 1::2]


def unpack_iq(symbols: np.ndarray, k: int) -> np.ndarray:
    s = np.asarray(symbols, dtype=np.complex128)
    flat = np.empty(s.shape[:-1] + (2 * s.shape[-1],))
    flat[..., 0::2] = s.real
    flat[..., 1::2] = s.imag
    return flat[..., :k]


def mmse_estimate(
    observations: np.ndarray,
    gains: np.ndarray,
    prior_vars: np.ndarray,
    h_sq: float | np.ndarray,
    noise_var_dim: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-coefficient MMSE estimate and posterior error variance.

    observations are the real matched-filter outputs Re/Im of conj(h)*y per
    packed dimension; the equivalent scalar model is obs = |h|^2 g x + noise
    with noise variance |h|^2 * noise_var_dim.
    """
    denom = gains * gains * h_sq * prior_vars + noise_var_dim
    est = gains * prior_vars * observations / denom
    err_var = prior_vars * noise_var_dim / denom
    return est, err_var


def mmse_error_vars(
    gains: np.ndarray,
    prior_vars: np.ndarray,
    h_sq: float | np.ndarray,
    noise_var_dim: float,
) -> np.ndarray:
    """Closed-form posterior variances without observations (model use)."""
    g2 = np.asarray(gains) ** 2
    return prior_vars * noise_var_dim / (g2 * np.asarray(h_sq) * prior_vars + noise_var_dim)


def analog_encode(
    values: np.ndarray, prior_vars: np.ndarray, per_use_power: float
) -> tuple[np.ndarray, np.ndarray]:
    """Scale (..., k) coefficients by their gains and I/Q-pack them.

    Returns the (..., ceil(k/2)) channel symbols and the (k,) gains.
    """
    gains = analog_gains(prior_vars, per_use_power)
    return pack_iq(gains * values), gains


def analog_decode(
    received: np.ndarray,
    h,
    gains: np.ndarray,
    prior_vars: np.ndarray,
    noise_var: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Matched-filter and MMSE-decode (..., uses) received symbols.

    h is the known channel gain: a scalar, or one gain per frame shaped to
    broadcast against received (e.g. (T, 1)). noise_var is per complex use.
    Returns the per-coefficient estimates and posterior error variances.
    """
    obs = unpack_iq(np.conj(h) * received, len(gains))
    return mmse_estimate(obs, gains, prior_vars, abs(h) ** 2, noise_var / 2.0)
