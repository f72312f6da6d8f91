from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from datosc import codec
from datosc.codec import (
    analyze,
    build_task_model,
    calibrate_prior_vars,
    classify,
    selection_indices,
    synthesize_full,
)
from datosc.errors import ParameterError
from datosc.harness import _metrics
from datosc.sources import SourceSpec, gen_blocks, source_states


@pytest.mark.parametrize("n", [64, 32])
def test_constant_block_is_dc_only(n):
    c = 0.7
    coeffs = analyze(np.full(n, c))
    assert abs(coeffs[0] - c * np.sqrt(n)) < 1e-9
    assert np.max(np.abs(coeffs[1:])) < 1e-9


def test_parseval_and_round_trip(rng):
    for n in (64, 48):
        x = rng.standard_normal(n)
        c = analyze(x)
        assert abs(np.sum(c * c) - np.sum(x * x)) < 1e-9
        assert np.max(np.abs(synthesize_full(c) - x)) < 1e-9


def test_parseval_on_generated_blocks(mixture_spec):
    for x in gen_blocks(mixture_spec, source_states(mixture_spec.seed, 0, 200))[0]:
        c = analyze(x)
        assert abs(np.sum(c * c) - np.sum(x * x)) < 1e-9


def test_select_keeps_everything_at_k_equal_n(mixture_priors):
    assert np.array_equal(selection_indices(64, 64, mixture_priors), np.arange(64))


def test_select_k_out_of_range(mixture_priors):
    with pytest.raises(ParameterError):
        selection_indices(64, 0, mixture_priors)
    with pytest.raises(ParameterError):
        selection_indices(64, 65, mixture_priors)
    with pytest.raises(ParameterError):
        selection_indices(32, 8, mixture_priors)  # prior shape is not (n,)
    with pytest.raises(ParameterError):
        selection_indices(64, 8, np.zeros(64))  # priors must be positive


def test_calibration_cache_ignores_fields_the_source_does_not_read():
    """rho does not shape a class mixture and class_count does not shape an
    AR(1) stream, so changing either reuses the cached calibration."""
    info = codec._calibrate_prior_vars_cached.cache_info
    for spec, unread in (
        (SourceSpec(kind="class_mixture", n=16, class_count=2, rho=0.9), dict(rho=0.1)),
        (SourceSpec(kind="gauss_markov", n=16, rho=0.5, class_count=1), dict(class_count=3)),
    ):
        first = calibrate_prior_vars(spec)
        misses = info().misses
        assert calibrate_prior_vars(replace(spec, **unread)) is first
        assert info().misses == misses


def _ar1_blocks_vectorized(n, rho, count, seed):
    """Independent AR(1) generator used only as a statistics oracle."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((count, n))
    x = np.empty_like(w)
    x[:, 0] = w[:, 0]
    s = np.sqrt(1 - rho**2)
    for i in range(1, n):
        x[:, i] = rho * x[:, i - 1] + s * w[:, i]
    return x


def test_selection_matches_empirical_variance_oracle():
    spec = SourceSpec(kind="gauss_markov", n=64, rho=0.9, seed=4)
    prior = calibrate_prior_vars(spec)
    picked = selection_indices(64, 8, prior)
    oracle_var = np.var(analyze(_ar1_blocks_vectorized(64, 0.9, 100_000, 42)), axis=0)
    oracle_top = np.sort(np.argsort(-oracle_var)[:8])
    assert np.array_equal(picked, oracle_top)


def test_selection_tie_breaks_to_lower_index():
    prior = np.ones(16)
    assert np.array_equal(selection_indices(16, 5, prior), np.arange(5))


def test_selection_matches_sorting_oracle(rng):
    for _ in range(50):
        scores = rng.integers(0, 6, size=32).astype(np.float64)  # many ties
        order = sorted(range(32), key=lambda i: (-scores[i], i))
        expected = np.sort(order[:10])
        task = codec.TaskModel(centroids=np.zeros((2, 32)), weights=scores)
        got = selection_indices(32, 10, np.ones(32), task)
        assert np.array_equal(got, expected)


def test_top1_always_inside_topk(mixture_priors, task4):
    best = int(np.argmax(task4.weights))
    for k in range(3, 65, 7):
        assert best in selection_indices(64, k, mixture_priors, task4)


def _kept_only(full, kept):
    """Coefficient vector with zeros at every index outside kept."""
    out = np.zeros_like(full)
    out[kept] = full[kept]
    return out


def test_synthesize_exact_at_full_rate(rng, mixture_priors):
    x = rng.standard_normal(64)
    kept = selection_indices(64, 64, mixture_priors)
    assert np.max(np.abs(synthesize_full(_kept_only(analyze(x), kept)) - x)) < 1e-9


def test_synthesize_discarded_energy_identity(rng, mixture_priors):
    x = rng.standard_normal(64)
    full = analyze(x)
    kept = selection_indices(64, 20, mixture_priors)
    mask = np.ones(64, dtype=bool)
    mask[kept] = False
    expected = np.sum(full[mask] ** 2) / 64
    got = np.mean((x - synthesize_full(_kept_only(full, kept))) ** 2)
    assert abs(got - expected) < 1e-12


def test_distortion_monotone_in_k(rng, mixture_priors):
    x = rng.standard_normal(64)
    full = analyze(x)
    prev = np.inf
    for k in range(1, 65):
        kept = selection_indices(64, k, mixture_priors)
        d = np.mean((x - synthesize_full(_kept_only(full, kept))) ** 2)
        assert d <= prev + 1e-12
        prev = d


def _link_metrics(kept, full, coeff_hat):
    """(feature_mse, data_mse) the sweep reports for a batch of blocks whose
    coefficients are full and whose receiver estimates are coeff_hat."""
    full, coeff_hat = np.atleast_2d(full), np.atleast_2d(coeff_hat)
    setup = SimpleNamespace(kept=kept, task=None)
    labels = np.full(len(full), -1)
    feature, data, _, _ = _metrics(
        setup, full[:, kept], synthesize_full(full), labels, coeff_hat, None
    )
    return feature, data


def test_semantic_distortion_cases(mixture_priors):
    full = np.arange(64.0)
    kept = selection_indices(64, 16, mixture_priors)
    feature, _ = _link_metrics(kept, full, full)
    assert feature[0] == 0.0
    bumped = full.copy()
    bumped[kept[3]] += 0.5
    bumped[np.setdiff1d(np.arange(64), kept)] += 9.0  # outside the kept set
    feature, _ = _link_metrics(kept, full, bumped)
    assert abs(feature[0] - 0.25 / 16) < 1e-12


def test_data_distortion_cases(rng):
    c = rng.standard_normal(64)
    x = synthesize_full(c)
    kept = np.arange(64)
    assert _link_metrics(kept, c, c)[1][0] == 0.0
    assert abs(_link_metrics(kept, c, -c)[1][0] - 4.0 * np.sum(x * x) / 64) < 1e-12
    c2 = rng.standard_normal(64)
    y = synthesize_full(c2)
    naive = sum((a - b) ** 2 for a, b in zip(x, y)) / 64
    assert abs(_link_metrics(kept, c, c2)[1][0] - naive) <= 1e-12


def _task_accuracy(labels, estimates, task):
    predicted = classify(analyze(np.stack(estimates)), task)
    return float(np.mean(predicted == labels))


def test_task_metric_perfect_and_oracle(mixture_spec, task4):
    samples, labels = gen_blocks(mixture_spec, source_states(mixture_spec.seed, 0, 200))
    acc = _task_accuracy(labels, list(samples), task4)
    # brute-force per-block argmin in coefficient space
    hits = 0
    for x, label in zip(samples, labels):
        c = analyze(x)
        d2 = np.sum((task4.centroids - c) ** 2, axis=1)
        hits += int(np.argmin(d2) == label)
    assert acc == hits / len(samples)


def test_task_metric_symmetric_tie_breaks_low(mixture_spec):
    task2 = build_task_model(64, 2)
    spec = SourceSpec(kind="class_mixture", n=64, class_count=2, seed=5)
    labels = gen_blocks(spec, source_states(spec.seed, 0, 400))[1]
    zeros = [np.zeros(64) for _ in labels]
    acc = _task_accuracy(labels, zeros, task2)
    label0 = np.mean(labels == 0)
    assert acc == pytest.approx(label0)  # every tie resolves to class 0
    assert 0.4 <= acc <= 0.6
