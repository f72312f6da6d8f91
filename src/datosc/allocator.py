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
    _cell_mse_cache: dict = field(default_factory=dict, repr=False)

    def kept_indices(self, k: int) -> np.ndarray:
        if k not in self._kept_cache:
            self._kept_cache[k] = selection_indices(
                self.n, k, self.prior_vars, self.task
            )
        return self._kept_cache[k]

    def cell_mse(self, bits: int) -> np.ndarray:
        """High-rate MSE delta^2/12 of each coefficient's B-bit quantizer cell."""
        if bits not in self._cell_mse_cache:
            deltas = QuantizerSpec.from_prior_vars(self.prior_vars, bits).deltas
            self._cell_mse_cache[bits] = deltas ** 2 / 12.0
        return self._cell_mse_cache[bits]

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


def _fail_probs(layouts, power_digital, snr_db: float, fer: FerTable) -> np.ndarray:
    """p_f (L, P) of layout l at the digital powers power_digital[l], looked
    up at the digital partition's effective per-use SNR; 1 for the
    digital-off layout, whose output is always the fallback."""
    p_f = np.ones(np.shape(power_digital))
    for row, layout in enumerate(layouts):
        if layout.n_digital:
            eff_snr = snr_db + 10.0 * np.log10(power_digital[row] / layout.n_digital)
            p_f[row] = fer.lookup(layout.pattern, layout.quant_bits, eff_snr)
    return p_f


def _digital_distortion(model: _AnalogModel, at: np.ndarray, layouts, p_f: np.ndarray,
                        ctx: AllocatorContext) -> np.ndarray:
    """model_digital_distortion (L, P) of layout l with the analog power of
    model row at[l, j] and the failure probability p_f[l, j].

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
    p_f, at = p_f[rows], at[rows]
    row_bits = [layouts[row].quant_bits for row in rows]
    awgn = ctx.channel == "awgn"
    capped = np.empty(at.shape if awgn else at.shape + (len(FADE_NODES),))
    for bits in set(row_bits):
        cell_mse = ctx.cell_mse(bits)
        same = [i for i, other in enumerate(row_bits) if other == bits]
        # the model rows these layouts use, ascending, without np.unique's cost
        used = np.flatnonzero(np.bincount(at[same].ravel(), minlength=len(model.data)))
        if awgn:
            per_power = np.array([np.mean(np.minimum(cell_mse, model.mean_err[u])) for u in used])
        else:
            per_power = np.mean(np.minimum(cell_mse, model.errors[used]), axis=-1)
        capped[same] = per_power[np.searchsorted(used, at[same])]
    if awgn:
        out[rows] = (1.0 - p_f) * capped + p_f * model.data[at]
        return out
    fallback = np.mean(model.errors, axis=-1)                           # (U, nodes)
    depth = -np.log1p(-np.minimum(p_f, 1.0 - 1e-12))
    fail = FADE_NODES < depth[..., None]                                # deepest fades
    np.copyto(capped, fallback[at], where=fail)                         # failures fall back
    flat = capped.reshape(-1, len(FADE_NODES))
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
    at = np.zeros((1, 1), dtype=np.intp)
    p_f = _fail_probs([plan], np.array([[plan.power_digital]]), snr_db, fer)
    return float(_digital_distortion(model, at, [plan], p_f, ctx)[0, 0])


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


# The FER table's log-linear interpolation can break p_f's monotonicity in
# SNR at its knots by a few units in the last place. A bound therefore reads
# p_f lowered by this relative margin, and a search prunes a layout only when
# its bound exceeds the incumbent by the same margin.
_BOUND_MARGIN = 1e-9


def _power_grid(p_total: float) -> np.ndarray:
    """Exhaustive's analog power grid; it spans _refined's whole bracket."""
    return np.linspace(POWER_SHARE_LO * p_total, POWER_SHARE_HI * p_total, POWER_GRID_POINTS)


def _split_powers(layouts, points, p_total: float) -> np.ndarray:
    """Analog powers (L, P) of one k's layouts at the grid points; the
    digital-off layout has a single split and sits at p_total throughout."""
    digital = np.array([[layout.n_digital > 0] for layout in layouts])
    return np.where(digital, points, p_total)


def _shared_model(layouts, powers: np.ndarray, snr_db, ctx) -> tuple[_AnalogModel, np.ndarray]:
    """The analog model of one k's layouts at the distinct powers among
    powers, and the model row of each power."""
    unique, at = np.unique(powers, return_inverse=True)
    model = _analog_model(layouts[0].k, layouts[0].n_analog, unique, snr_db, ctx)
    return model, at.reshape(powers.shape)


def _system(model, at, layouts, p_f, lam, ctx) -> np.ndarray:
    """System distortion (L, P) at model rows at and failure probabilities p_f."""
    return lam * model.feature[at] + (1.0 - lam) * _digital_distortion(model, at, layouts, p_f, ctx)


def _costs(layouts, powers, p_total, snr_db, lam, ctx, fer) -> np.ndarray:
    """Modelled system distortion (L, P) of the L layouts of one k, layout l
    at the analog powers powers[l] and the rest of p_total on digital.

    Each cost is the one system_distortion gives that plan, bit for bit,
    whatever else shares the call. The analog errors are computed once per
    distinct power and shared by every layout at that power.
    """
    powers = np.asarray(powers, dtype=np.float64)
    model, at = _shared_model(layouts, powers, snr_db, ctx)
    p_f = _fail_probs(layouts, p_total - powers, snr_db, fer)
    return _system(model, at, layouts, p_f, lam, ctx)


def _scan(layouts, points, p_total, snr_db, lam, ctx, fer) -> tuple[np.ndarray, np.ndarray]:
    """Costs (L, P) of one k's layouts on an ascending grid of analog powers,
    and bounds (L, P - 1): bounds[l, i] is at most layout l's cost at any
    analog power in [points[i], points[i + 1]], up to rounding in the last
    place. The digital-off layout sits at p_total throughout.

    Why the bound holds: across the interval the analog errors (feature,
    fallback, capped) are non-increasing in analog power, since every step
    of their chain is monotone under rounding, so they are at least their
    values at points[i + 1]. p_f is non-decreasing, since the digital power
    falls and the table's envelope is non-increasing in SNR. d_d is
    non-increasing in the errors and non-decreasing in p_f: under Rayleigh
    fading the nodes that fail at a lower p_f fail at a higher one too, and a
    failing node costs its fallback, never less than its capped error; over
    AWGN d_d = (1 - p_f) * capped + p_f * data with data >= capped. So the
    bound is the cost formula with the errors of points[i + 1] and the p_f
    of points[i].

    The grid is scored _SCAN_POINTS points per call, so a call holds analog
    error arrays of at most (_SCAN_POINTS + 1, nodes, n) doubles; the p_f of
    a call's last point is carried to the next call's first interval.
    """
    powers = _split_powers(layouts, points, p_total)
    costs, bounds = [], []
    p_f = np.empty((len(layouts), 0))
    for i in range(0, len(points), _SCAN_POINTS):
        chunk = powers[:, i:i + _SCAN_POINTS]
        model, at = _shared_model(layouts, chunk, snr_db, ctx)
        carried, p_f = p_f[:, -1:], _fail_probs(layouts, p_total - chunk, snr_db, fer)
        left = np.hstack([carried, p_f[:, :-1]])          # p_f at each interval's left end
        right = at[:, at.shape[1] - left.shape[1]:]       # model row of its right end
        values = _system(model, np.hstack([at, right]), layouts,
                         np.hstack([p_f, (1.0 - _BOUND_MARGIN) * left]), lam, ctx)
        costs.append(values[:, :at.shape[1]])
        bounds.append(values[:, at.shape[1]:])
    return np.hstack(costs), np.hstack(bounds)


def _unpruned(layouts, bounds, entries) -> list:
    """The layouts whose bound does not exceed the lowest cost among the
    entries by more than _BOUND_MARGIN: only these can still win."""
    incumbent = min((entry[0] for entry in entries), default=np.inf)
    return [
        layout for layout, bound in zip(layouts, bounds)
        if bound <= incumbent * (1.0 + _BOUND_MARGIN)
    ]


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
    distortion over a coarse power scan; step 3 refines each digital pick's
    power split by golden-section search. Returns the best plan found, so
    the search stays a strict subset of allocate_exhaustive.

    Picks are refined in ascending k once every digital-off pick is an
    entry. A pick is skipped when a lower bound on its cost over the whole
    bracket (from _scan on exhaustive's power grid) exceeds the lowest entry
    already held: its refined cost would exceed that entry's, so it could
    not be returned and the plan is the one refining every pick gives. With
    no entry held, the pick is refined without computing its bound.
    """
    p_total = budget.power_total
    args = (p_total, snr_db, lam, ctx, fer)
    k_floor = choose_analog_floor_k(budget, snr_db, ctx)
    # rank tuples by their best cost over a coarse power scan (a single
    # use-proportional split mis-ranks tuples whose optimum sits at an
    # extreme split)
    coarse = np.linspace(0.2, 0.8, 5) * p_total
    entries, picks = [], []
    for k, group in groupby(_layouts(budget, ctx), key=lambda layout: layout.k):
        if k < k_floor:
            continue
        layouts = list(group)
        costs = _costs(layouts, _split_powers(layouts, coarse, p_total), *args).min(axis=1)
        pick = layouts[int(np.argmin(costs))]
        if pick.n_digital:
            picks.append(pick)
        else:
            entries.append(_entry(costs.min(), pick, p_total))
    for pick in picks:
        if entries and not _unpruned(
            [pick], _scan([pick], _power_grid(p_total), *args)[1].min(axis=1), entries
        ):
            continue
        (cost,), (p_a,) = _refined([pick], *args)
        entries.append(_entry(cost, pick, p_a))
    return _best(entries, p_total, lam, ctx)[1]


def allocate_exhaustive(
    budget: ChannelBudget,
    snr_db: float,
    lam: float,
    ctx: AllocatorContext,
    fer: FerTable,
) -> AllocationPlan:
    """Full grid search over (k, B, pattern, power split).

    Every tuple is scored on the 21-point power grid, and every tuple that
    can still win gets the same golden-section refinement the greedy search
    uses, so the exhaustive cost is never above the greedy cost. Ties break
    lexicographically on (k, B, pattern, P_a); digital-off sorts as B=0.

    The grid scan also gives each digital tuple a lower bound on its cost
    over the whole refinement bracket. Once every k is scanned, the tuples
    of each k, in ascending k, are refined in lockstep, except those whose
    bound exceeds the lowest entry held so far (each tuple's best grid
    point, the digital-off plans and the refinements already done): a
    skipped tuple's refined cost would exceed that entry's, so the plan is
    the one refining every tuple gives.
    """
    p_total = budget.power_total
    args = (p_total, snr_db, lam, ctx, fer)
    power_grid = _power_grid(p_total)
    entries, bounded = [], []
    for _, group in groupby(_layouts(budget, ctx), key=lambda layout: layout.k):
        layouts = list(group)
        off, digital = layouts[0], layouts[1:]
        costs, bounds = _scan(layouts, power_grid, *args)
        entries.append(_entry(costs[0, 0], off, p_total))
        # of a tuple's grid points only its lowest cost can win, at the lowest
        # power among equal costs as the tie-break on P_a would pick
        entries += [
            _entry(row.min(), layout, power_grid[row.argmin()])
            for layout, row in zip(digital, costs[1:])
        ]
        bounded.append((digital, bounds[1:].min(axis=1)))
    for digital, bounds in bounded:
        survivors = _unpruned(digital, bounds, entries)
        if survivors:
            entries += [
                _entry(cost, layout, p_a)
                for layout, cost, p_a in zip(survivors, *_refined(survivors, *args))
            ]
    return _best(entries, p_total, lam, ctx)[1]
