import json
from dataclasses import replace
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from scipy.special import exp1

import datosc.allocator as alloc
from datosc.allocator import (
    AllocationPlan,
    AllocatorContext,
    FADE_NODES,
    FADE_WEIGHTS,
    FerTable,
    allocate_exhaustive,
    allocate_greedy,
    model_analog_distortion,
    model_digital_distortion,
    system_distortion,
)
from datosc.analog import analog_gains, mmse_error_vars, pack_iq, unpack_iq
from datosc.channel import ChannelBudget
from datosc.codec import build_task_model, calibrate_prior_vars
from datosc.digital import parity_length, symbol_count
from datosc.errors import InfeasibleAllocationError, ParameterError
from datosc.sources import SourceSpec


@pytest.fixture(scope="module")
def ctx(alloc_ctx):
    return alloc_ctx


@pytest.fixture(scope="module")
def fer(fer_table):
    return fer_table


def _plan(ctx, k=32, bits=4, pattern="R12", p_a=0.5, total=320.0, lam=0.5):
    n_a = -(-k // 2)
    if pattern is None:
        return AllocationPlan(
            k=k, n_analog=n_a, n_digital=0, power_analog=total, power_digital=0.0,
            quant_bits=0, pattern=None, lam=lam, n=ctx.n,
        )
    n_d = symbol_count(parity_length(ctx.n * bits, pattern), "qpsk")
    return AllocationPlan(
        k=k, n_analog=n_a, n_digital=n_d, power_analog=p_a * total,
        power_digital=(1 - p_a) * total, quant_bits=bits, pattern=pattern,
        lam=lam, n=ctx.n,
    )


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "settings", [dict(channel="AWGN"), dict(channel="rician"), dict(modulation="qpks")]
)
def test_context_rejects_unknown_channel_and_modulation(ctx, settings):
    """An unknown channel or modulation fails when the context is built, so
    no search scores it as another one ("AWGN" is not "awgn")."""
    with pytest.raises(ParameterError):
        AllocatorContext(n=64, prior_vars=ctx.prior_vars, task=ctx.task, **settings)


def test_context_caches_are_read_only(ctx):
    fresh = AllocatorContext(n=64, prior_vars=ctx.prior_vars, task=ctx.task)
    kept, cell_mse = fresh.kept_indices(16), fresh.cell_mse(4)
    with pytest.raises(ValueError):
        kept[0] = 63
    with pytest.raises(ValueError):
        cell_mse[0] = 0.0
    assert fresh.kept_indices(16).tolist() == ctx.kept_indices(16).tolist()
    assert fresh.cell_mse(4).tolist() == ctx.cell_mse(4).tolist()


# ---------------------------------------------------------------------------
# fading quadrature and the analog model
# ---------------------------------------------------------------------------

def test_fade_rule_matches_closed_form():
    """E[eps/(X+eps)] for X~Exp(1) has closed form eps*e^eps*E1(eps)."""
    for eps in (1e-3, 1e-2, 0.1, 1.0, 10.0):
        got = float(np.sum(FADE_WEIGHTS * eps / (FADE_NODES + eps)))
        want = float(eps * np.exp(eps) * exp1(eps))
        assert abs(got / want - 1.0) < 0.01


def test_model_analog_awgn_matches_closed_form(ctx):
    plan = _plan(ctx)
    awgn_ctx = AllocatorContext(
        n=64, prior_vars=ctx.prior_vars, task=ctx.task, channel="awgn"
    )
    got = model_analog_distortion(plan, 10.0, awgn_ctx)
    priors = awgn_ctx.prior_vars[awgn_ctx.kept_indices(32)]
    gains = analog_gains(priors, plan.power_analog / plan.n_analog / 2.0)
    nv_dim = 10 ** (-1.0) / 2.0
    want = float(np.mean(mmse_error_vars(gains, priors, 1.0, nv_dim)))
    assert got == pytest.approx(want, rel=1e-12)


def test_model_analog_vanishes_at_high_snr(ctx):
    assert model_analog_distortion(_plan(ctx), 300.0, ctx) < 1e-25


@pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0])
def test_rayleigh_model_matches_monte_carlo(ctx, snr_db):
    """Full encode/fade/decode simulation vs the quadrature model, 1e5 draws."""
    plan = _plan(ctx)
    priors = ctx.prior_vars[ctx.kept_indices(32)]
    gains = analog_gains(priors, plan.power_analog / plan.n_analog / 2.0)
    nv_dim = 10 ** (-snr_db / 10) / 2.0
    rng = np.random.default_rng(int(snr_db) + 400)
    trials = 100_000
    h = (rng.standard_normal(trials) + 1j * rng.standard_normal(trials)) / np.sqrt(2)
    x = rng.standard_normal((trials, 32)) * np.sqrt(priors)
    sym = pack_iq(gains * x)
    noise = np.sqrt(nv_dim) * (
        rng.standard_normal(sym.shape) + 1j * rng.standard_normal(sym.shape)
    )
    y = h[:, None] * sym + noise
    obs = unpack_iq(np.conj(h)[:, None] * y, 32)
    h_sq = np.abs(h)[:, None] ** 2
    denom = gains**2 * h_sq * priors + nv_dim
    est = gains * priors * obs / denom
    mc = float(np.mean((est - x) ** 2))
    model = model_analog_distortion(plan, snr_db, ctx)
    assert abs(model / mc - 1.0) < 0.03


# ---------------------------------------------------------------------------
# digital model
# ---------------------------------------------------------------------------

def _stub_table(p, bits=4):
    return FerTable([("R12", bits, snr, p, 10**6, 0) for snr in (0.0, 24.0)])


def test_pf_one_reduces_to_fallback(ctx):
    """When every frame fails, the refined output is the analog estimate:
    the digital-off plan at the same analog power."""
    plan = _plan(ctx)
    off = replace(_plan(ctx, pattern=None), power_analog=plan.power_analog)
    got = model_digital_distortion(plan, 12.0, ctx, _stub_table(1.0))
    want = model_digital_distortion(off, 12.0, ctx, _stub_table(1.0))
    assert got == pytest.approx(want, rel=1e-9)


def test_pf_zero_is_refined_floor_and_b8_approaches_it(ctx):
    plan = _plan(ctx)
    got = model_digital_distortion(plan, 12.0, ctx, _stub_table(0.0))
    # analog error per fade node and coefficient, from the closed form
    priors = ctx.prior_vars[ctx.kept_indices(plan.k)]
    gains = analog_gains(priors, plan.power_analog / plan.n_analog / 2.0)
    fade_err = np.tile(ctx.prior_vars, (len(FADE_NODES), 1))
    fade_err[:, ctx.kept_indices(plan.k)] = mmse_error_vars(
        gains, priors, FADE_NODES[:, None], 10 ** (-12.0 / 10) / 2
    )
    quant = __import__("datosc.digital", fromlist=["QuantizerSpec"]).QuantizerSpec
    deltas = quant.from_prior_vars(ctx.prior_vars, 4).deltas
    want = float(
        alloc.FADE_WEIGHTS @ np.mean(np.minimum(deltas**2 / 12.0, fade_err), axis=1)
    )
    assert got == pytest.approx(want, rel=1e-9)
    # with 8-bit cells the refined floor is the analog error almost everywhere
    plan8 = _plan(ctx, bits=8)
    got8 = model_digital_distortion(plan8, 12.0, ctx, _stub_table(0.0, bits=8))
    deltas8 = quant.from_prior_vars(ctx.prior_vars, 8).deltas
    direct = float(
        alloc.FADE_WEIGHTS @ np.mean(np.minimum(deltas8**2 / 12.0, fade_err), axis=1)
    )
    assert got8 == pytest.approx(direct, rel=1e-9)
    assert got8 <= float(np.mean(fade_err @ alloc.FADE_WEIGHTS)) + 1e-12


def test_digital_off_plan_is_fallback(ctx, fer):
    """A digital-off plan's data MSE is its analog estimate's, whatever the
    table says. At k = n every coefficient is a feature and the transform is
    orthonormal, so it equals the feature MSE."""
    plan = _plan(ctx, k=64, pattern=None)
    got = model_digital_distortion(plan, 10.0, ctx, fer)
    for table in (_stub_table(0.0), _stub_table(1.0)):
        assert model_digital_distortion(plan, 10.0, ctx, table) == got
    assert got == pytest.approx(model_analog_distortion(plan, 10.0, ctx), rel=1e-12)


def test_system_distortion_weighted_sum(ctx, fer):
    """system_distortion is lam * D_a + (1 - lam) * D_d of the two public
    models, bit for bit, for digital-on and digital-off plans over Rayleigh
    and AWGN."""
    plans = (_plan(ctx, lam=0.3), _plan(ctx, k=16, bits=2, pattern="R34", p_a=0.8, lam=0.7),
             _plan(ctx, k=64, pattern=None, lam=0.45), _plan(ctx, k=8, pattern=None, lam=0.2))
    for channel in ("rayleigh", "awgn"):
        cctx = AllocatorContext(n=64, prior_vars=ctx.prior_vars, task=ctx.task, channel=channel)
        for plan in plans:
            for snr in (4.0, 10.0, 19.5):
                d_a = model_analog_distortion(plan, snr, cctx)
                d_d = model_digital_distortion(plan, snr, cctx, fer)
                want = plan.lam * d_a + (1.0 - plan.lam) * d_d
                assert system_distortion(plan, snr, cctx, fer).hex() == want.hex(), (plan, snr)


def test_lambda_to_one_limit_is_analog(ctx, fer):
    plan = _plan(ctx, lam=1.0 - 1e-9)
    total = system_distortion(plan, 12.0, ctx, fer)
    assert total == pytest.approx(model_analog_distortion(plan, 12.0, ctx), rel=1e-6)


def test_model_monotone_in_snr(ctx, fer):
    for plan in (_plan(ctx), _plan(ctx, bits=2), _plan(ctx, pattern=None)):
        grid = np.arange(0.0, 24.5, 1.0)
        vals = [system_distortion(plan, s, ctx, fer) for s in grid]
        assert np.all(np.diff(vals) <= 1e-12)


def _simulated_data_mse(plan, snr_db, total_uses, trials):
    """Data MSE of the plan run through the end-to-end pipeline, with all of
    total_uses worth of power spent."""
    from datosc.harness import ExperimentConfig, run_point

    digital = (
        dict(scheme="da", quant_bits=plan.quant_bits, pattern=plan.pattern)
        if plan.n_digital else dict(scheme="analog")
    )
    cfg = ExperimentConfig(
        trials=trials, k=plan.k, total_uses=total_uses, total_power=float(total_uses),
        p_a_fraction=plan.power_analog / total_uses, snr_grid=(snr_db,), **digital,
    )
    return run_point(cfg, snr_db).data_mse


@pytest.mark.parametrize("snr_db", [8.0, 12.0, 16.0])
@pytest.mark.parametrize("bits", [3, 4, 5])
def test_model_within_15pct_of_end_to_end(ctx, fer, bits, snr_db):
    """Three hybrid plans at calibration-matched per-use power: the modelled
    data MSE tracks the simulated pipeline within the high-rate-quantizer
    tolerance."""
    n_d = symbol_count(parity_length(64 * bits, "R12"), "qpsk")
    plan = AllocationPlan(
        k=32, n_analog=16, n_digital=n_d, power_analog=16.0,
        power_digital=float(n_d), quant_bits=bits, pattern="R12", lam=0.5, n=64,
    )
    model = model_digital_distortion(plan, snr_db, ctx, fer)
    sim = _simulated_data_mse(plan, snr_db, 16 + n_d, trials=4000)
    assert abs(model / sim - 1.0) < 0.15


def test_model_within_15pct_on_picked_plans(ctx, fer, pinned_plans):
    """Every distinct plan the searches return for the pinned suite: the
    modelled data MSE tracks the simulated pipeline within the same
    tolerance. Plans that differ only in lambda simulate alike."""
    picked = {
        (snr, total, replace(plan, lam=0.5)): plan
        for snr, _, total, *plans in pinned_plans
        for plan in plans
    }
    for (snr, total, _), plan in picked.items():
        model = model_digital_distortion(plan, snr, ctx, fer)
        sim = _simulated_data_mse(plan, snr, total, trials=2000)
        assert abs(model / sim - 1.0) < 0.15, (snr, total, plan)


# ---------------------------------------------------------------------------
# FER table
# ---------------------------------------------------------------------------

def test_fer_table_round_trip(tmp_path, fer):
    path = tmp_path / "fer.csv"
    fer.save_csv(path)
    again = FerTable.load_csv(path)
    for key in fer.keys():
        g1, p1, t1 = fer.raw(*key)
        g2, p2, t2 = again.raw(*key)
        assert np.array_equal(g1, g2)
        assert np.allclose(p1, p2)
        assert t1 == t2


def test_shipped_fer_table_saves_byte_for_byte(tmp_path):
    shipped = Path(alloc.__file__).parent / "data" / "fer_rayleigh.csv"
    path = tmp_path / "fer.csv"
    FerTable.load_csv(shipped).save_csv(path)
    assert path.read_bytes() == shipped.read_bytes()


def test_shipped_fer_table_cell_0_recalibrates(tmp_path):
    """calibrate_fer's cell 0 (R12, B=1, 0 dB) gets the shipped seed, so at
    the shipped 6,000 trials it writes the shipped row, which the search
    bounds read."""
    from datosc.harness import calibrate_fer

    table = calibrate_fer(patterns=("R12",), bits_grid=(1,), snr_grid=(0.0,), trials=6000)
    path = tmp_path / "cell0.csv"
    table.save_csv(path)
    shipped = Path(alloc.__file__).parent / "data" / "fer_rayleigh.csv"
    assert path.read_text().splitlines() == shipped.read_text().splitlines()[:2]
    assert f"{table.raw('R12', 1)[1][0]:.9g}" == "0.9525"


def test_fer_lookup_clamps_and_is_monotone(fer):
    lo = fer.lookup("R12", 4, -50.0)
    hi = fer.lookup("R12", 4, 90.0)
    grid, p, _ = fer.raw("R12", 4)
    assert lo == pytest.approx(max(p[0], 0.5 / 6000), rel=1e-9)
    fine = np.linspace(grid[0], grid[-1], 200)
    vals = [fer.lookup("R12", 4, s) for s in fine]
    assert all(type(v) is float for v in vals)
    assert np.all(np.diff(vals) <= 1e-15)
    assert hi <= vals[-1] + 1e-15
    # an array of SNRs gives one value per SNR, equal to the scalar lookups
    edges = np.array([-50.0, 90.0])
    assert fer.lookup("R12", 4, fine).tolist() == vals
    assert fer.lookup("R12", 4, edges).tolist() == [lo, hi]


def test_fer_raw_values_non_increasing_within_ci(fer):
    for key in fer.keys():
        grid, p, trials = fer.raw(*key)
        se = np.sqrt(np.maximum(p * (1 - p), 1e-9) / trials)
        for i in range(len(p) - 1):
            assert p[i + 1] - p[i] <= 2.58 * (se[i] + se[i + 1])


def test_fer_cells_sort_their_rows():
    """Rows in any order give each cell an ascending grid, and the table
    does not change through what raw returns."""
    rows = [
        ("R12", 4, 20.0, 0.01, 10**6, 0),
        ("R12", 5, 0.0, 0.3, 10**6, 0),
        ("R12", 4, 0.0, 0.5, 10**6, 0),
        ("R12", 4, 10.0, 0.1, 10**6, 0),
    ]
    for table in (FerTable(rows), FerTable(reversed(rows))):
        assert table.keys() == [("R12", 4), ("R12", 5)]
        grid, p, _ = table.raw("R12", 4)
        assert list(grid) == [0.0, 10.0, 20.0]
        assert list(p) == [0.5, 0.1, 0.01]
        assert table.lookup("R12", 4, 20.0) == pytest.approx(0.01)
        assert table.lookup("R12", 4, 15.0) == pytest.approx(np.sqrt(0.1 * 0.01))
        with pytest.raises(ValueError):
            grid[0] = 5.0


def test_fer_rows_reject_mixed_trials_or_seed():
    # a 10^6-trial point would otherwise be looked up at the 10-trial floor
    with pytest.raises(ParameterError, match="trials=10, seed=0"):
        FerTable([("R12", 4, 0.0, 0.0, 10, 0), ("R12", 4, 10.0, 0.0, 10**6, 0)])
    with pytest.raises(ParameterError):
        FerTable([("R12", 4, 0.0, 0.0, 10, 0), ("R12", 4, 10.0, 0.0, 10, 1)])
    table = FerTable([
        ("R12", 4, 0.0, 0.0, 10, 0),
        ("R12", 4, 10.0, 0.0, 10, 0),
        ("R12", 5, 10.0, 0.0, 10**6, 1),  # another cell
    ])
    assert table.raw("R12", 4)[2] == 10


def test_default_fer_table_names_shipped_channels():
    assert alloc.default_fer_table("rayleigh").keys()
    with pytest.raises(ParameterError, match=r"'awgn'.*shipped: rayleigh.*calibrate-fer"):
        alloc.default_fer_table("awgn")


def test_fer_lookup_unknown_cell(fer):
    with pytest.raises(ParameterError):
        fer.lookup("R12", 7, 10.0)


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------

def test_greedy_within_5pct_of_exhaustive(ctx, fer, pinned_plans):
    for snr, lam, total, g, e, _, _ in pinned_plans:
        cg = system_distortion(g, snr, ctx, fer)
        ce = system_distortion(e, snr, ctx, fer)
        assert ce <= cg + 1e-12          # oracle never loses to greedy
        assert cg <= 1.05 * ce + 1e-12   # greedy within 5%


def test_returned_plans_satisfy_budget(pinned_plans):
    for snr, lam, total, g, e, _, _ in pinned_plans:
        for plan in (g, e):
            plan.budget(total, float(total)).validate()
            assert 0.0 < plan.lam < 1.0
            assert (plan.pattern is None) == (plan.quant_bits == 0) == (plan.n_digital == 0)


def test_lambda_monotone_analog_power_share(pinned_plans):
    for snr, lam, total, _, _, lo, hi in pinned_plans:
        assert hi.power_analog >= lo.power_analog - 1e-9


def test_exhaustive_single_candidate(ctx, fer, monkeypatch):
    monkeypatch.setattr(alloc, "candidate_k_grid", lambda n: [32])
    monkeypatch.setattr(alloc, "QUANT_BITS_GRID", (4,))
    monkeypatch.setattr(alloc, "PATTERNS", ("R12",))
    budget = ChannelBudget(320, 0, 0, 320.0, 0.0, 0.0)
    e = allocate_exhaustive(budget, 12.0, 0.5, ctx, fer)
    g = allocate_greedy(budget, 12.0, 0.5, ctx, fer)
    assert (e.k, e.quant_bits, e.pattern) == (32, 4, "R12") or e.pattern is None
    assert (g.k, g.quant_bits, g.pattern, g.n_digital) == (
        e.k, e.quant_bits, e.pattern, e.n_digital,
    )


def test_oracle_engages_digital_when_analog_is_rate_limited(ctx, fer, monkeypatch):
    """With the feature count capped below n the analog branch leaves
    coefficients at their prior and the data-weighted objective turns the
    digital branch on."""
    monkeypatch.setattr(alloc, "candidate_k_grid", lambda n: [8, 16])
    budget = ChannelBudget(320, 0, 0, 320.0, 0.0, 0.0)
    plan = allocate_exhaustive(budget, 14.0, 0.3, ctx, fer)
    assert plan.n_digital
    assert plan.pattern == "R12"
    off = _plan(ctx, k=plan.k, pattern=None, lam=0.3)
    assert system_distortion(plan, 14.0, ctx, fer) < system_distortion(
        off, 14.0, ctx, fer
    )


@pytest.mark.parametrize("channel", ["rayleigh", "awgn"])
def test_costs_batch_independent_and_winners_are_system_distortion(
    ctx, fer, monkeypatch, channel
):
    """The array scorer gives every digital layout of a budget the same cost
    bit for bit whether it is scored alone or in its full per-k batch, at
    random powers and at powers the batch shares. Each search's own winning
    cost is system_distortion of the plan it returns, bit for bit."""
    cctx = AllocatorContext(n=64, prior_vars=ctx.prior_vars, task=ctx.task, channel=channel)
    budget = ChannelBudget(384, 0, 0, 384.0, 0.0, 0.0)
    args = (384.0, 12.0, 0.4, cctx, fer)
    rng = np.random.default_rng(0xC057)
    for _, group in groupby(alloc._layouts(budget, cctx), key=lambda layout: layout.k):
        digital = list(group)[1:]
        powers = rng.uniform(0.05, 0.95, (len(digital), 4)) * 384.0
        powers[:, -1] = powers[0, 0]
        batch = alloc._costs(digital, powers, *args)
        for layout, costs, row in zip(digital, batch, powers):
            alone = [alloc._costs([layout], [[p_a]], *args)[0, 0] for p_a in row]
            assert costs.tolist() == alone

    winners = []
    best = alloc._best
    monkeypatch.setattr(alloc, "_best", lambda *a: winners.append(best(*a)) or winners[-1])
    for k_grid in ([8, 16, 32, 64], [8, 16]):
        monkeypatch.setattr(alloc, "candidate_k_grid", lambda n, k_grid=k_grid: k_grid)
        for snr, lam in ((10.0, 0.5), (14.0, 0.3)):
            for search in (allocate_greedy, allocate_exhaustive):
                plan = search(budget, snr, lam, cctx, fer)
                cost, winner = winners.pop()
                assert winner == plan
                assert cost == system_distortion(plan, snr, cctx, fer)


# ---------------------------------------------------------------------------
# the array scorer against a per-row oracle
# ---------------------------------------------------------------------------

def _oracle_analog(k, n_analog, powers, snr_db, ctx):
    """(errors, mean_err, feature, data) of the analog model, each mean over
    coefficients taken one row at a time."""
    if ctx.channel == "awgn":
        nodes, weights = np.ones(1), np.ones(1)
    else:
        nodes, weights = FADE_NODES, FADE_WEIGHTS
    kept = ctx.kept_indices(k)
    priors = ctx.prior_vars[kept]
    gains = analog_gains(priors, powers / n_analog / 2.0)
    nv_dim = 10.0 ** (-snr_db / 10.0) / 2.0
    errors = np.empty((len(powers), len(nodes), ctx.n))
    errors[:] = ctx.prior_vars
    errors[:, :, kept] = mmse_error_vars(gains[:, None, :], priors, nodes[:, None], nv_dim)
    mean_err = weights @ errors
    feature = np.array([np.mean(row[kept]) for row in mean_err])
    data = np.array([np.mean(row) for row in mean_err])
    return errors, mean_err, feature, data


def _oracle_digital(errors, mean_err, data, bits, p_f, ctx):
    """d_d (rows,) of one B at the model rows, with one mean per row and
    one dot product per fade average."""
    cell_mse = ctx.cell_mse(bits)
    if ctx.channel == "awgn":
        capped = np.array([np.mean(np.minimum(cell_mse, row)) for row in mean_err])
        return (1.0 - p_f) * capped + p_f * data
    capped = np.mean(np.minimum(cell_mse, errors), axis=-1)
    fallback = np.mean(errors, axis=-1)
    depth = -np.log1p(-np.minimum(p_f, 1.0 - 1e-12))
    np.copyto(capped, fallback, where=FADE_NODES < depth[:, None])
    return np.array([FADE_WEIGHTS @ fades for fades in capped])


def _oracle_costs(layout, p_a, p_f, snr_db, lam, ctx):
    """System distortion of one layout at the analog powers p_a (P,) and
    failure probabilities p_f (P,), scored one power at a time."""
    costs = []
    for power, fail in zip(p_a, p_f):
        errors, mean_err, feature, data = _oracle_analog(
            layout.k, layout.n_analog, np.array([power]), snr_db, ctx
        )
        d_d = data if not layout.n_digital else _oracle_digital(
            errors, mean_err, data, layout.quant_bits, np.array([fail]), ctx
        )
        costs.append(float(lam * feature[0] + (1.0 - lam) * d_d[0]))
    return costs


def _oracle_fail_probs(layout, p_d, snr_db, fer):
    if not layout.n_digital:
        return np.ones(len(p_d))
    return np.array([
        fer.lookup(layout.pattern, layout.quant_bits, snr_db + 10.0 * np.log10(p / layout.n_digital))
        for p in p_d
    ])


@pytest.mark.parametrize("channel", ["rayleigh", "awgn"])
def test_scorer_matches_the_per_row_oracle(ctx, fer, monkeypatch, channel):
    """Costs from _costs, and costs and bounds from _scan, equal bit for bit
    an oracle that scores each plan alone with one mean per row and one dot
    product per fade average. Every k of the grid in one call, every layout
    at one shared power (U = 1 per k) and at several powers (U > 1), with
    the context's feature sets and with random ones."""
    cctx = AllocatorContext(n=64, prior_vars=ctx.prior_vars, task=ctx.task, channel=channel)
    budget = ChannelBudget(512, 0, 0, 512.0, 0.0, 0.0)
    p_total, snr, lam = 512.0, 11.0, 0.35
    args = (p_total, snr, lam, cctx, fer)
    rng = np.random.default_rng(0x0AC1E)
    random_kept = {k: rng.permutation(64)[:k] for k in alloc.candidate_k_grid(64)}
    for kept_of in (cctx.kept_indices, random_kept.__getitem__):
        monkeypatch.setattr(cctx, "kept_indices", kept_of)
        layouts = alloc._layouts(budget, cctx)
        assert {layout.k for layout in layouts} == set(alloc.candidate_k_grid(64))
        assert {layout.quant_bits for layout in layouts} == {0, *alloc.QUANT_BITS_GRID}

        grid = alloc._power_grid(p_total)
        costs, bounds = alloc._scan(layouts, grid, *args)
        for layout, got_costs, got_bounds in zip(layouts, costs, bounds):
            p_a = grid if layout.n_digital else np.full(len(grid), p_total)
            p_f = _oracle_fail_probs(layout, p_total - p_a, snr, fer)
            assert got_costs.tolist() == _oracle_costs(layout, p_a, p_f, snr, lam, cctx)
            low = (1.0 - alloc._BOUND_MARGIN) * p_f[:-1]
            assert got_bounds.tolist() == _oracle_costs(layout, p_a[1:], low, snr, lam, cctx)

        powers = rng.uniform(0.05, 0.95, (len(layouts), 3)) * p_total
        powers[:, 2] = powers[0, 0]
        shared = np.full((len(layouts), 1), powers[1, 1])
        for at in (powers, shared):
            got = alloc._costs(layouts, at, *args)
            for layout, row, p_a in zip(layouts, got, at):
                p_f = _oracle_fail_probs(layout, p_total - p_a, snr, fer)
                assert row.tolist() == _oracle_costs(layout, p_a, p_f, snr, lam, cctx)


def test_each_tuple_is_looked_up_and_sized_once(ctx, fer, monkeypatch):
    """One grid scan of every k looks each (B, pattern) tuple up once, and a
    search sizes each tuple's digital partition once."""
    budget = ChannelBudget(512, 0, 0, 512.0, 0.0, 0.0)
    tuples = len(alloc.QUANT_BITS_GRID) * len(alloc.PATTERNS)
    looked_up = []

    class CountingTable:
        def lookup(self, pattern, quant_bits, snr_db):
            looked_up.append((pattern, quant_bits))
            return fer.lookup(pattern, quant_bits, snr_db)

    layouts = alloc._layouts(budget, ctx)
    alloc._scan(layouts, alloc._power_grid(512.0), 512.0, 12.0, 0.5, ctx, CountingTable())
    assert len(looked_up) == len(set(looked_up)) == tuples

    sized = []
    digital_uses = alloc.digital_uses
    monkeypatch.setattr(alloc, "digital_uses", lambda *a: sized.append(a) or digital_uses(*a))
    for search in (allocate_greedy, allocate_exhaustive):
        sized.clear()
        search(budget, 12.0, 0.5, ctx, fer)
        assert len(sized) == len(set(sized)) == tuples


# ---------------------------------------------------------------------------
# branch and bound: the searches refining every layout are the oracles
# ---------------------------------------------------------------------------

def _grid_costs(layouts, points, p_total, snr_db, lam, ctx, fer):
    """Costs (L, P) of one k's layouts on a power grid, six points per call,
    so batched unlike _scan; digital-off at p_total throughout."""
    digital = np.array([[layout.n_digital > 0] for layout in layouts])
    powers = np.where(digital, points, p_total)
    return np.hstack([
        alloc._costs(layouts, powers[:, i:i + 6], p_total, snr_db, lam, ctx, fer)
        for i in range(0, len(points), 6)
    ])


def _greedy_unpruned(budget, snr_db, lam, ctx, fer):
    """(cost, plan) of allocate_greedy refining every digital pick."""
    p_total = budget.power_total
    args = (p_total, snr_db, lam, ctx, fer)
    k_floor = alloc.choose_analog_floor_k(budget, snr_db, ctx)
    coarse = np.linspace(0.2, 0.8, 5) * p_total
    entries = []
    for k, group in groupby(alloc._layouts(budget, ctx), key=lambda layout: layout.k):
        if k < k_floor:
            continue
        layouts = list(group)
        costs = _grid_costs(layouts, coarse, *args).min(axis=1)
        pick = layouts[int(np.argmin(costs))]
        if pick.n_digital:
            (cost,), (p_a,) = alloc._refined([pick], *args)
            entries.append(alloc._entry(cost, pick, p_a))
        else:
            entries.append(alloc._entry(costs.min(), pick, p_total))
    return alloc._best(entries, p_total, lam, ctx)


def _exhaustive_unpruned(budget, snr_db, lam, ctx, fer):
    """(cost, plan) of allocate_exhaustive refining every digital layout."""
    p_total = budget.power_total
    args = (p_total, snr_db, lam, ctx, fer)
    power_grid = np.linspace(
        alloc.POWER_SHARE_LO * p_total, alloc.POWER_SHARE_HI * p_total, alloc.POWER_GRID_POINTS
    )
    entries = []
    for _, group in groupby(alloc._layouts(budget, ctx), key=lambda layout: layout.k):
        layouts = list(group)
        off, digital = layouts[0], layouts[1:]
        costs = _grid_costs(layouts, power_grid, *args)
        entries.append(alloc._entry(costs[0, 0], off, p_total))
        if digital:
            entries += [
                alloc._entry(cost, layout, p_a)
                for layout, cost, p_a in zip(digital, *alloc._refined(digital, *args))
            ]
            entries += [
                alloc._entry(cost, layout, p_a)
                for layout, row in zip(digital, costs[1:])
                for cost, p_a in zip(row, power_grid)
            ]
    return alloc._best(entries, p_total, lam, ctx)


def test_pruned_searches_equal_the_unpruned_oracles(ctx, fer, monkeypatch):
    """On random draws over Rayleigh and AWGN, every k and k capped to
    {8, 16}, 64-512 uses, 0-24 dB and lambda in (0.05, 0.95), both searches
    return the plan of the search that refines every layout, field for
    field, at the same cost bit for bit, and raise where it raises. Over the
    draws some layouts are refined and some are skipped."""
    refined, winners = [], []
    counted, best = alloc._refined, alloc._best
    monkeypatch.setattr(
        alloc, "_refined", lambda layouts, *a: refined.append(len(layouts)) or counted(layouts, *a)
    )
    monkeypatch.setattr(alloc, "_best", lambda *a: winners.append(best(*a)) or winners[-1])
    rng = np.random.default_rng(0xB0B)
    searches = ((allocate_greedy, _greedy_unpruned), (allocate_exhaustive, _exhaustive_unpruned))
    pruned = unpruned = 0
    for draw in range(12):
        channel = ("rayleigh", "awgn")[draw % 2]
        k_grid = ([8, 16], None)[draw // 2 % 2]
        dctx = AllocatorContext(n=64, prior_vars=ctx.prior_vars, task=ctx.task, channel=channel)
        snr, lam = float(rng.uniform(0.0, 24.0)), float(rng.uniform(0.05, 0.95))
        total = int(rng.integers(64, 513))
        budget = ChannelBudget(total, 0, 0, float(total), 0.0, 0.0)
        with monkeypatch.context() as patch:
            if k_grid:
                patch.setattr(alloc, "candidate_k_grid", lambda n, k_grid=k_grid: k_grid)
            for search, oracle in searches:
                refined.clear()
                try:
                    want = oracle(budget, snr, lam, dctx, fer)
                except InfeasibleAllocationError as exc:
                    with pytest.raises(InfeasibleAllocationError, match=str(exc)):
                        search(budget, snr, lam, dctx, fer)
                    continue
                unpruned += sum(refined)
                refined.clear()
                plan = search(budget, snr, lam, dctx, fer)
                pruned += sum(refined)
                assert winners.pop() == want
                assert plan == want[1]
    assert 0 < pruned < unpruned


@pytest.mark.parametrize("channel", ["rayleigh", "awgn"])
def test_bounds_never_exceed_a_cost_in_their_interval(ctx, fer, channel):
    """Each digital layout's bound on a grid interval is at most its cost at
    both grid points and at random powers inside the interval, and the
    lowest over the intervals is at most its refined cost. The slack allows
    for rounding in the last place (AWGN's (1 - p_f) * capped + p_f * data
    can round below capped), far inside the searches' 1e-9 margin."""
    slack = 1.0 + 1e-12
    cctx = AllocatorContext(n=64, prior_vars=ctx.prior_vars, task=ctx.task, channel=channel)
    rng = np.random.default_rng(0xB0D)
    for snr, lam, total in ((4.0, 0.2, 192), (13.0, 0.5, 320), (22.0, 0.8, 480)):
        budget = ChannelBudget(total, 0, 0, float(total), 0.0, 0.0)
        args = (float(total), snr, lam, cctx, fer)
        grid = alloc._power_grid(float(total))
        for _, group in groupby(alloc._layouts(budget, cctx), key=lambda layout: layout.k):
            digital = list(group)[1:]
            if not digital:
                continue
            costs, bounds = alloc._scan(digital, grid, *args)
            assert costs.tolist() == _grid_costs(digital, grid, *args).tolist()
            assert np.all(bounds <= slack * costs[:, :-1])
            assert np.all(bounds <= slack * costs[:, 1:])
            for i in range(len(grid) - 1):
                inside = rng.uniform(grid[i], grid[i + 1], (len(digital), 2))
                assert np.all(bounds[:, i:i + 1] <= slack * alloc._costs(digital, inside, *args))
            refined, _ = alloc._refined(digital, *args)
            assert np.all(bounds.min(axis=1) <= slack * refined)


@pytest.mark.parametrize("channel", ["rayleigh", "awgn"])
def test_bracket_bound_never_exceeds_a_cost_in_the_bracket(ctx, fer, channel):
    """Each digital layout's bound over the whole bracket, _scan's interval
    bound on the one interval (P_lo, P_hi), is at most its cost at every
    point of the power grid, at random powers in the bracket and after
    refinement; a digital-off layout's bound is its cost. Same slack as the
    interval bounds."""
    slack = 1.0 + 1e-12
    cctx = AllocatorContext(n=64, prior_vars=ctx.prior_vars, task=ctx.task, channel=channel)
    rng = np.random.default_rng(0xB4C)
    for snr, lam, total in ((4.0, 0.2, 192), (13.0, 0.5, 320), (22.0, 0.8, 480)):
        budget = ChannelBudget(total, 0, 0, float(total), 0.0, 0.0)
        args = (float(total), snr, lam, cctx, fer)
        layouts = alloc._layouts(budget, cctx)
        _, bounds = alloc._scan(layouts, np.empty(0), *args, edges=alloc._bracket(total))
        is_digital = np.array([layout.n_digital > 0 for layout in layouts])
        digital = [layout for layout in layouts if layout.n_digital]
        assert bounds[~is_digital, 0].tolist() == [
            alloc._costs([layout], [[float(total)]], *args)[0, 0]
            for layout in layouts if not layout.n_digital
        ]
        bound = bounds[is_digital]
        grid = alloc._power_grid(float(total))
        assert np.all(bound <= slack * _grid_costs(digital, grid, *args))
        inside = rng.uniform(alloc.POWER_SHARE_LO, alloc.POWER_SHARE_HI, (len(digital), 8))
        assert np.all(bound <= slack * alloc._costs(digital, inside * total, *args))
        refined, _ = alloc._refined(digital, *args)
        assert np.all(bound[:, 0] <= slack * refined)


def test_searches_skip_the_grid_scan_when_no_digital_layout_can_win(ctx, fer, monkeypatch):
    """On digital-off draws (Rayleigh, 14 dB, lambda 0.5) the whole-bracket
    bounds rule out nearly every digital layout before the 21-point grid
    scan: exhaustive scans at most 4 layouts on the grid (of 76 at 320
    uses) and greedy none. The plans are the unpruned oracles' and, where
    the draw is pinned, golden_alloc.json's."""
    golden = json.loads((Path(__file__).parent / "data" / "golden_alloc.json").read_text())
    scanned = []
    scan = alloc._scan

    def counting(layouts, points, *args, **kwargs):
        if len(points) == alloc.POWER_GRID_POINTS:
            scanned.append(len(layouts))
        return scan(layouts, points, *args, **kwargs)

    monkeypatch.setattr(alloc, "_scan", counting)
    for total in (256, 320, 384):
        budget = ChannelBudget(total, 0, 0, float(total), 0.0, 0.0)
        for search, oracle, most in (
            (allocate_exhaustive, _exhaustive_unpruned, 4), (allocate_greedy, _greedy_unpruned, 0)
        ):
            scanned.clear()
            plan = search(budget, 14.0, 0.5, ctx, fer)
            assert sum(scanned) <= most
            assert plan.pattern is None
            assert plan == oracle(budget, 14.0, 0.5, ctx, fer)[1]
            pinned = golden.get(f"rayleigh_14dB_{total}_{search.__name__[9:]}")
            if pinned:
                cost = system_distortion(plan, 14.0, ctx, fer)
                assert (plan.k, plan.power_analog.hex(), cost.hex()) == (
                    pinned["k"], pinned["power_analog"], pinned["cost"]
                )


_LINK = dict(snr_db=10.0, power_total=320.0, lam=0.5)


def _bad_inputs(*keys):
    values = dict(snr_db=(np.nan, np.inf, -np.inf), power_total=(np.nan, np.inf, 0.0),
                  lam=(np.nan,))
    return [pytest.param(key, value, id=f"{key}={value}") for key in keys for value in values[key]]


@pytest.mark.parametrize("key, value", _bad_inputs("snr_db", "power_total", "lam"))
@pytest.mark.parametrize(
    "search", [allocate_greedy, allocate_exhaustive], ids=["greedy", "exhaustive"]
)
def test_searches_reject_a_bad_input_before_scoring(ctx, fer, monkeypatch, search, key, value):
    """A non-finite SNR or power, a power of 0 and a NaN lambda are named in
    a ParameterError before any layout is scored."""
    monkeypatch.setattr(alloc, "_analog_model", lambda *a: pytest.fail("scored"))
    link = {**_LINK, key: value}
    budget = ChannelBudget(320, 0, 0, link["power_total"], 0.0, 0.0)
    with pytest.raises(ParameterError, match=f"{'lambda' if key == 'lam' else key}.*{value}"):
        search(budget, link["snr_db"], link["lam"], ctx, fer)


@pytest.mark.parametrize("key, value", _bad_inputs("snr_db", "power_total"))
def test_analog_floor_rejects_a_bad_input_before_scoring(ctx, monkeypatch, key, value):
    monkeypatch.setattr(alloc, "_analog_model", lambda *a: pytest.fail("scored"))
    link = {**_LINK, key: value}
    budget = ChannelBudget(320, 0, 0, link["power_total"], 0.0, 0.0)
    with pytest.raises(ParameterError, match=f"{key}.*{value}"):
        alloc.choose_analog_floor_k(budget, link["snr_db"], ctx)


@pytest.mark.parametrize(
    "search", [allocate_greedy, allocate_exhaustive], ids=["greedy", "exhaustive"]
)
def test_infeasible_budget_raises(ctx, fer, search):
    tiny = ChannelBudget(2, 0, 0, 2.0, 0.0, 0.0)
    with pytest.raises(
        InfeasibleAllocationError,
        match="binding constraint: total_uses=2 cannot carry any candidate k",
    ):
        search(tiny, 10.0, 0.5, ctx, fer)


def test_unreachable_floor_names_constraint(ctx, fer):
    budget = ChannelBudget(320, 0, 0, 320.0, 0.0, 0.0)
    with pytest.raises(InfeasibleAllocationError, match="floor"):
        allocate_greedy(budget, -30.0, 0.5, ctx, fer)


def test_plan_lambda_bounds(ctx):
    with pytest.raises(ParameterError):
        _plan(ctx, lam=1.0)
    with pytest.raises(ParameterError):
        _plan(ctx, lam=0.0)
