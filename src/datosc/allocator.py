"""Rate/power allocation: model-based expected distortions, an analog-first
greedy search, and the exhaustive oracle it is judged against.

The objective is the weighted system distortion lambda * D_a + (1-lambda) *
D_d, where D_a is the modelled feature MSE of the analog branch and D_d the
modelled data MSE after digital refinement. Decode-failure probabilities
come from an empirical calibration table (FerTable) rather than an analytic
bound, looked up at the digital partition's effective per-use SNR.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .analog import analog_gains, mmse_error_vars
from .channel import ChannelBudget
from .codec import TaskModel, selection_indices
from .digital import PATTERN_FRACTIONS, QuantizerSpec, bits_per_symbol, parity_length
from .errors import InfeasibleAllocationError, ParameterError

# The layout grid the searches score; calibrate_fer covers the same grid by
# default, because every layout scored is looked up in the FER table.
PATTERNS = tuple(PATTERN_FRACTIONS)
QUANT_BITS_GRID = (1, 2, 3, 4, 5, 6)
FEATURE_MSE_FLOOR = 0.05  # analog feature MSE greedy's smallest k must reach
POWER_GRID_POINTS = 21
POWER_SHARE_LO = 0.05
POWER_SHARE_HI = 0.95
GOLDEN_ITERS = 48
_SCAN_POINTS = 6   # power-grid points scored per call: bounds peak memory, not results

# Fixed 64-point Gauss rule for E[f(X)], X ~ Exp(1), via the substitution
# X = -ln(u) with Gauss-Legendre nodes on (0, 1). Unlike Gauss-Laguerre this
# stays accurate when f varies on a much smaller scale than the mean fade.
_GL_X, _GL_W = leggauss(64)
FADE_NODES = -np.log(0.5 * (_GL_X + 1.0))
FADE_WEIGHTS = 0.5 * _GL_W


@dataclass(frozen=True)
class AllocationPlan:
    k: int
    n_analog: int
    n_digital: int
    power_analog: float
    power_digital: float
    quant_bits: int           # 0 when the digital branch is off
    pattern: Optional[str]    # None when the digital branch is off
    lam: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ParameterError(f"lambda must lie strictly in (0, 1), got {self.lam}")

    def budget(self, total_uses: int, power_total: float) -> ChannelBudget:
        return ChannelBudget(
            total_uses=total_uses,
            n_analog=self.n_analog,
            n_digital=self.n_digital,
            power_total=power_total,
            power_analog=self.power_analog,
            power_digital=self.power_digital,
        )


@dataclass
class AllocatorContext:
    """Source statistics and link settings the distortion models need."""

    n: int
    prior_vars: np.ndarray
    task: Optional[TaskModel] = None
    modulation: str = "qpsk"
    channel: str = "rayleigh"
    _kept_cache: dict = field(default_factory=dict, repr=False)

    def kept_indices(self, k: int) -> np.ndarray:
        if k not in self._kept_cache:
            self._kept_cache[k] = selection_indices(
                self.n, k, self.prior_vars, self.task
            )
        return self._kept_cache[k]

    def kept_priors(self, k: int) -> np.ndarray:
        return self.prior_vars[self.kept_indices(k)]


class _FerCell(NamedTuple):
    grid: np.ndarray      # calibrated SNRs in dB, ascending
    p: np.ndarray         # p_f at each grid SNR
    log_env: np.ndarray   # log of the non-increasing, floored envelope of p
    trials: int
    seed: int


class FerTable:
    """Empirical decode-failure probabilities on a (pattern, B, snr) grid.

    Built once from (pattern, B, snr_db, p_f, trials, seed) rows, in any
    order; every row of a (pattern, B) cell must share its trials and seed.
    Lookups interpolate log(p) linearly in snr_db over a non-increasing
    envelope of the calibrated points (Monte-Carlo upticks are flattened so
    the distortion model stays monotone in SNR), clamped at the grid edges.
    Probabilities are floored at 1/(2*trials) so log-interpolation is defined
    for cells that saw no failures.
    """

    HEADER = ("pattern", "B", "snr_db", "p_f", "trials", "seed")

    def __init__(self, rows=()):
        points: dict[tuple[str, int], list] = {}
        for pattern, bits, snr_db, p_f, trials, seed in rows:
            points.setdefault((pattern, int(bits)), []).append(
                (float(snr_db), float(p_f), trials, seed)
            )
        self._cells: dict[tuple[str, int], _FerCell] = {}
        for (pattern, bits), cell in points.items():
            trials, seed = cell[0][2:]
            for *_, other_trials, other_seed in cell:
                if (other_trials, other_seed) != (trials, seed):
                    raise ParameterError(
                        f"pattern={pattern}, B={bits} was calibrated with trials={trials}, "
                        f"seed={seed}; got trials={other_trials}, seed={other_seed}"
                    )
            grid, p = np.array([pt[:2] for pt in sorted(cell, key=lambda pt: pt[0])]).T
            env = np.minimum.accumulate(np.clip(p, 0.5 / max(trials, 1), 1.0))
            for arr in (grid, p):
                arr.setflags(write=False)
            self._cells[pattern, bits] = _FerCell(grid, p, np.log(env), trials, seed)

    def keys(self):
        return sorted(self._cells)

    def raw(self, pattern: str, quant_bits: int) -> tuple[np.ndarray, np.ndarray, int]:
        """(snr grid, p_f, trials) of one cell, in grid order."""
        cell = self._cells[pattern, quant_bits]
        return cell.grid, cell.p, cell.trials

    def lookup(self, pattern: str, quant_bits: int, snr_db):
        """p_f at snr_db: a float for a scalar, one value per SNR for an array."""
        cell = self._cells.get((pattern, int(quant_bits)))
        if cell is None:
            raise ParameterError(f"no calibration for pattern={pattern}, B={quant_bits}")
        p = np.exp(np.interp(snr_db, cell.grid, cell.log_env))  # clamped at the edges
        return float(p) if np.ndim(snr_db) == 0 else p

    def save_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.HEADER)
            for (pattern, bits), cell in sorted(self._cells.items()):
                writer.writerows(
                    [pattern, bits, f"{snr:g}", f"{p:.9g}", cell.trials, cell.seed]
                    for snr, p in zip(cell.grid, cell.p)
                )

    @classmethod
    def from_csv_text(cls, text: str) -> "FerTable":
        rows = [r for r in csv.reader(text.splitlines()) if r and not r[0].startswith("#")]
        if tuple(rows[0]) != cls.HEADER:
            raise ParameterError(f"unexpected FER table header: {rows[0]}")
        return cls(
            (r[0], int(r[1]), float(r[2]), float(r[3]), int(r[4]), int(r[5])) for r in rows[1:]
        )

    @classmethod
    def load_csv(cls, path) -> "FerTable":
        with open(path, newline="") as fh:
            return cls.from_csv_text(fh.read())


def default_fer_table(channel: str = "rayleigh") -> FerTable:
    """Calibration table shipped with the package (regenerate: calibrate-fer)."""
    from importlib.resources import files

    data = files("datosc").joinpath("data")
    resource = data.joinpath(f"fer_{channel}.csv")
    if not resource.is_file():
        shipped = sorted(p.name[4:-4] for p in data.iterdir() if p.name.startswith("fer_"))
        raise ParameterError(
            f"no FER table ships for channel {channel!r} (shipped: {', '.join(shipped)}); "
            "build one with `datosc calibrate-fer` and load it with FerTable.load_csv"
        )
    return FerTable.from_csv_text(resource.read_text())


def _per_dim_power(power, uses: int):
    # two real dimensions per complex use
    return power / uses / 2.0


class _AnalogModel(NamedTuple):
    """Modelled analog errors of one k at U analog powers."""

    errors: np.ndarray     # (U, nodes, n) per fade node and coefficient
    mean_err: np.ndarray   # (U, n) averaged over the fade rule
    feature: np.ndarray    # (U,) D_a: mean over the kept coefficients
    data: np.ndarray       # (U,) data MSE when the digital branch contributes nothing


def _analog_model(k: int, n_analog: int, powers: np.ndarray, snr_db: float,
                  ctx: AllocatorContext) -> _AnalogModel:
    """Modelled analog error of k features on n_analog uses at each of the
    (U,) analog powers.

    The fade rule is the 64-point rule over |h|^2 ~ Exp(1) for Rayleigh and a
    single node |h|^2 = 1 of weight 1 for AWGN. Coefficients the analog branch
    does not carry sit at their prior variance. The means over coefficients
    are taken one power at a time: over a 2-D array numpy may sum in another
    order, and the cost would then depend on what else shares the call.
    """
    if ctx.channel == "awgn":
        nodes, weights = np.ones(1), np.ones(1)
    else:
        nodes, weights = FADE_NODES, FADE_WEIGHTS
    kept = ctx.kept_indices(k)
    priors = ctx.prior_vars[kept]
    gains = analog_gains(priors, _per_dim_power(powers, n_analog))           # (U, k)
    nv_dim = 10.0 ** (-snr_db / 10.0) / 2.0
    errors = np.empty((len(powers), len(nodes), ctx.n))
    errors[:] = ctx.prior_vars
    errors[:, :, kept] = mmse_error_vars(gains[:, None, :], priors, nodes[:, None], nv_dim)
    mean_err = weights @ errors
    feature = np.array([np.mean(row[kept]) for row in mean_err])
    data = np.array([np.mean(row) for row in mean_err])
    return _AnalogModel(errors, mean_err, feature, data)


def _digital_distortion(model: _AnalogModel, at: np.ndarray, layouts, power_digital,
                        snr_db: float, ctx: AllocatorContext, fer: FerTable) -> np.ndarray:
    """model_digital_distortion (L, P) of layout l with the analog power of
    model row at[l, j] and digital power power_digital[l, j].

    The capped error depends on B and the analog power, not on the pattern,
    so it is computed once per B for the powers its layouts use. The final
    weighted sum is one dot product per plan, because a matrix-vector product
    sums in another order.
    """
    out = np.empty(at.shape)
    off = [row for row, layout in enumerate(layouts) if not layout.n_digital]
    out[off] = model.data[at[off]]
    rows = [row for row, layout in enumerate(layouts) if layout.n_digital]
    if not rows:
        return out
    n_digital = np.array([[layouts[row].n_digital] for row in rows])
    eff_snr = snr_db + 10.0 * np.log10(power_digital[rows] / n_digital)
    p_f = np.array([
        fer.lookup(layouts[row].pattern, layouts[row].quant_bits, snr)
        for row, snr in zip(rows, eff_snr)
    ])
    awgn = ctx.channel == "awgn"
    capped = np.empty(at.shape if awgn else at.shape + (len(FADE_NODES),))
    for bits in {layouts[row].quant_bits for row in rows}:
        cell_mse = QuantizerSpec.from_prior_vars(ctx.prior_vars, bits).deltas ** 2 / 12.0
        same = [row for row in rows if layouts[row].quant_bits == bits]
        # the model rows these layouts use, ascending, without np.unique's cost
        used = np.flatnonzero(np.bincount(at[same].ravel(), minlength=len(model.data)))
        if awgn:
            per_power = np.array([np.mean(np.minimum(cell_mse, model.mean_err[u])) for u in used])
        else:
            per_power = np.mean(np.minimum(cell_mse, model.errors[used]), axis=-1)
        capped[same] = per_power[np.searchsorted(used, at[same])]
    capped = capped[rows]
    if awgn:
        out[rows] = (1.0 - p_f) * capped + p_f * model.data[at[rows]]
        return out
    fallback = np.mean(model.errors, axis=-1)                           # (U, nodes)
    depth = -np.log1p(-np.minimum(p_f, 1.0 - 1e-12))
    fail = FADE_NODES < depth[..., None]                                # deepest fades
    per_fade = np.where(fail, fallback[at[rows]], capped)               # (rows, P, nodes)
    flat = per_fade.reshape(-1, len(FADE_NODES))
    out[rows] = np.reshape([FADE_WEIGHTS @ fades for fades in flat], p_f.shape)
    return out


def _plan_model(plan: AllocationPlan, snr_db: float, ctx: AllocatorContext) -> _AnalogModel:
    return _analog_model(plan.k, plan.n_analog, np.array([plan.power_analog]), snr_db, ctx)


def model_analog_distortion(
    plan: AllocationPlan, snr_db: float, ctx: AllocatorContext
) -> float:
    """Expected feature MSE of the analog branch (mean posterior variance
    of the kept coefficients, averaged over the fade rule)."""
    return float(_plan_model(plan, snr_db, ctx).feature[0])


def model_digital_distortion(
    plan: AllocationPlan, snr_db: float, ctx: AllocatorContext, fer: FerTable
) -> float:
    """Expected data MSE of the refined output.

    Per fade realization, decode success caps each coefficient error by its
    quantizer cell (high-rate approximation delta^2/12) and failure falls
    back to the analog estimate. The failure probability p_f comes from the
    calibration table at the digital partition's effective per-use SNR; under
    quasi-static fading the decoder fails in the deepest fades, so the
    failure mass sits below the p_f-quantile of |h|^2 when averaging. A
    digital-off plan gets the fallback distortion.
    """
    model = _plan_model(plan, snr_db, ctx)
    at, power_digital = np.zeros((1, 1), dtype=np.intp), np.array([[plan.power_digital]])
    return float(_digital_distortion(model, at, [plan], power_digital, snr_db, ctx, fer)[0, 0])


def system_distortion(
    plan: AllocationPlan, snr_db: float, ctx: AllocatorContext, fer: FerTable
) -> float:
    d_a = model_analog_distortion(plan, snr_db, ctx)
    d_d = model_digital_distortion(plan, snr_db, ctx, fer)
    return plan.lam * d_a + (1.0 - plan.lam) * d_d


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def candidate_k_grid(n: int) -> list[int]:
    return sorted({max(1, n // 8), max(1, n // 4), max(1, n // 2), n})


def digital_uses(n: int, quant_bits: int, pattern: str, modulation: str) -> int:
    """Channel uses the parity of an n-coefficient frame occupies."""
    parity = parity_length(n * quant_bits, pattern)
    return -(-parity // bits_per_symbol(modulation))


class _Layout(NamedTuple):
    """One rate choice: k analog features and a (B, pattern) digital tuple."""

    k: int
    n_analog: int
    quant_bits: int           # 0 for the digital-off layout
    pattern: Optional[str]    # None for the digital-off layout
    n_digital: int


def _layouts(budget: ChannelBudget, ctx: AllocatorContext):
    """Every layout whose channel uses fit the budget, in tie-break order:
    k ascending, and per k the digital-off layout first, then (B, pattern).
    Raises InfeasibleAllocationError when no candidate k fits."""
    k_grid = candidate_k_grid(ctx.n)
    if -(-min(k_grid) // 2) > budget.total_uses:
        raise InfeasibleAllocationError(
            f"binding constraint: total_uses={budget.total_uses} cannot carry "
            f"any candidate k from {k_grid}"
        )
    for k in k_grid:
        n_a = -(-k // 2)
        if n_a > budget.total_uses:
            continue
        yield _Layout(k, n_a, 0, None, 0)
        for bits in QUANT_BITS_GRID:
            for pattern in PATTERNS:
                n_d = digital_uses(ctx.n, bits, pattern, ctx.modulation)
                if n_a + n_d <= budget.total_uses:
                    yield _Layout(k, n_a, bits, pattern, n_d)


def _costs(layouts, powers, p_total, snr_db, lam, ctx, fer) -> np.ndarray:
    """Modelled system distortion (L, P) of the L layouts of one k, layout l
    at the analog powers powers[l] and the rest of p_total on digital.

    Each cost is the one system_distortion gives that plan, bit for bit,
    whatever else shares the call. The analog errors are computed once per
    distinct power and shared by every layout at that power.
    """
    powers = np.asarray(powers, dtype=np.float64)
    unique, at = np.unique(powers, return_inverse=True)
    at = at.reshape(powers.shape)
    model = _analog_model(layouts[0].k, layouts[0].n_analog, unique, snr_db, ctx)
    d_d = _digital_distortion(model, at, layouts, p_total - powers, snr_db, ctx, fer)
    return lam * model.feature[at] + (1.0 - lam) * d_d


def _scan(layouts, points, p_total, snr_db, lam, ctx, fer) -> np.ndarray:
    """Costs (L, P) of one k's layouts on a grid of analog powers; the
    digital-off layout has a single split and sits at p_total throughout.
    The grid is scored _SCAN_POINTS points per call, so a call holds analog
    error arrays of at most (_SCAN_POINTS + 1, nodes, n) doubles."""
    digital = np.array([[layout.n_digital > 0] for layout in layouts])
    powers = np.where(digital, points, p_total)
    return np.hstack([
        _costs(layouts, powers[:, i:i + _SCAN_POINTS], p_total, snr_db, lam, ctx, fer)
        for i in range(0, len(points), _SCAN_POINTS)
    ])


def _refined(layouts, p_total, snr_db, lam, ctx, fer) -> tuple[np.ndarray, np.ndarray]:
    """(costs, powers) of the best split of each digital layout, by
    deterministic golden-section search on [POWER_SHARE_LO, POWER_SHARE_HI] *
    p_total (Kiefer 1953). The layouts step in lockstep, one scorer call per
    iteration; each walks the bracket sequence it would walk alone."""
    args = (p_total, snr_db, lam, ctx, fer)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a = np.full(len(layouts), POWER_SHARE_LO * p_total)
    b = np.full(len(layouts), POWER_SHARE_HI * p_total)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _costs(layouts, np.stack([c, d], axis=1), *args).T
    for _ in range(GOLDEN_ITERS):
        left = fc <= fd                   # the minimum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        probe = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        f = _costs(layouts, probe[:, None], *args)[:, 0]
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, f, fd), np.where(left, fc, f)
    left = fc <= fd
    return np.where(left, fc, fd), np.where(left, c, d)


def _entry(cost, layout: _Layout, p_a) -> tuple:
    """(cost, key, layout) of a layout at analog power p_a. Keys order ties
    lexicographically on (k, B, pattern, P_a); digital-off sorts as B=0."""
    pat_idx = -1 if layout.pattern is None else PATTERNS.index(layout.pattern)
    return float(cost), (layout.k, layout.quant_bits, pat_idx, float(p_a)), layout


def _best(entries, p_total: float, lam: float, ctx: AllocatorContext
          ) -> tuple[float, AllocationPlan]:
    """The lowest (cost, key) entry: its cost and its plan."""
    cost, key, layout = min(entries, key=lambda entry: entry[:2])
    p_a = key[-1]
    plan = AllocationPlan(
        **layout._asdict(), power_analog=p_a, power_digital=p_total - p_a, lam=lam, n=ctx.n
    )
    return cost, plan


def choose_analog_floor_k(budget: ChannelBudget, snr_db: float, ctx: AllocatorContext) -> int:
    """Smallest candidate k whose analog-only feature MSE meets FEATURE_MSE_FLOOR."""
    best = None
    power = np.array([budget.power_total])
    for layout in _layouts(budget, ctx):
        if layout.n_digital:
            continue
        mse = float(_analog_model(layout.k, layout.n_analog, power, snr_db, ctx).feature[0])
        if best is None or mse < best[1]:
            best = (layout.k, mse)
        if mse <= FEATURE_MSE_FLOOR:
            return layout.k
    raise InfeasibleAllocationError(
        f"binding constraint: analog feature-MSE floor {FEATURE_MSE_FLOOR} "
        f"unreachable at {snr_db} dB (best candidate k={best[0]} reaches {best[1]:.4g})"
    )


def allocate_greedy(
    budget: ChannelBudget,
    snr_db: float,
    lam: float,
    ctx: AllocatorContext,
    fer: FerTable,
) -> AllocationPlan:
    """Analog-rate-first greedy allocation.

    Step 1 establishes the smallest k meeting the analog feature-MSE floor:
    that reserves the analog rate the task needs before any digital
    spending, and larger k stay admissible. Step 2, per admissible k, picks
    the (B, pattern) tuple (or digital-off) minimizing the modelled system
    distortion over a coarse power scan; step 3 refines the winning tuple's
    power split by golden-section search. Returns the best plan found, so
    the search stays a strict subset of allocate_exhaustive.
    """
    p_total = budget.power_total
    args = (p_total, snr_db, lam, ctx, fer)
    k_floor = choose_analog_floor_k(budget, snr_db, ctx)
    # rank tuples by their best cost over a coarse power scan (a single
    # use-proportional split mis-ranks tuples whose optimum sits at an
    # extreme split)
    coarse = np.linspace(0.2, 0.8, 5) * p_total
    entries = []
    for k, group in groupby(_layouts(budget, ctx), key=lambda layout: layout.k):
        if k < k_floor:
            continue
        layouts = list(group)
        costs = _scan(layouts, coarse, *args).min(axis=1)
        pick = layouts[int(np.argmin(costs))]
        if pick.n_digital:
            (cost,), (p_a,) = _refined([pick], *args)
            entries.append(_entry(cost, pick, p_a))
        else:
            entries.append(_entry(costs.min(), pick, p_total))
    return _best(entries, p_total, lam, ctx)[1]


def allocate_exhaustive(
    budget: ChannelBudget,
    snr_db: float,
    lam: float,
    ctx: AllocatorContext,
    fer: FerTable,
) -> AllocationPlan:
    """Full grid search over (k, B, pattern, power split).

    Every tuple is scored on the 21-point power grid and with the same
    golden-section refinement the greedy search uses, so the exhaustive cost
    is never above the greedy cost. Ties break lexicographically on
    (k, B, pattern, P_a); digital-off sorts as B=0.
    """
    p_total = budget.power_total
    args = (p_total, snr_db, lam, ctx, fer)
    power_grid = np.linspace(
        POWER_SHARE_LO * p_total, POWER_SHARE_HI * p_total, POWER_GRID_POINTS
    )
    entries = []
    for _, group in groupby(_layouts(budget, ctx), key=lambda layout: layout.k):
        layouts = list(group)
        off, digital = layouts[0], layouts[1:]
        costs = _scan(layouts, power_grid, *args)
        entries.append(_entry(costs[0, 0], off, p_total))
        if digital:
            entries += [
                _entry(cost, layout, p_a)
                for layout, cost, p_a in zip(digital, *_refined(digital, *args))
            ]
            entries += [
                _entry(cost, layout, p_a)
                for layout, row in zip(digital, costs[1:])
                for cost, p_a in zip(row, power_grid)
            ]
    return _best(entries, p_total, lam, ctx)[1]
