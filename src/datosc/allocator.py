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
from typing import NamedTuple, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .analog import analog_gains, mmse_error_vars
from .channel import ChannelBudget, _check_fading
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
        _check_lam(self.lam)

    def budget(self, total_uses: int, power_total: float) -> ChannelBudget:
        return ChannelBudget(
            total_uses=total_uses,
            n_analog=self.n_analog,
            n_digital=self.n_digital,
            power_total=power_total,
            power_analog=self.power_analog,
            power_digital=self.power_digital,
        )


def _check_lam(lam: float) -> None:
    if not 0.0 < lam < 1.0:
        raise ParameterError(f"lambda must lie strictly in (0, 1), got {lam}")


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

    def __post_init__(self):
        _check_fading(self.channel)
        bits_per_symbol(self.modulation)

    # Both caches hand out read-only arrays: every later plan reads them.
    def kept_indices(self, k: int) -> np.ndarray:
        if k not in self._kept_cache:
            kept = selection_indices(self.n, k, self.prior_vars, self.task)
            kept.setflags(write=False)
            self._kept_cache[k] = kept
        return self._kept_cache[k]

    def cell_mse(self, bits: int) -> np.ndarray:
        """High-rate MSE delta^2/12 of each coefficient's B-bit quantizer cell."""
        if bits not in self._cell_mse_cache:
            deltas = QuantizerSpec.from_prior_vars(self.prior_vars, bits).deltas
            cell_mse = deltas ** 2 / 12.0
            cell_mse.setflags(write=False)
            self._cell_mse_cache[bits] = cell_mse
        return self._cell_mse_cache[bits]


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


class _AnalogModel(NamedTuple):
    """Modelled analog errors of one k at U analog powers."""

    errors: np.ndarray     # (U, nodes, n) per fade node and coefficient
    feature: np.ndarray    # (U,) D_a: mean over the kept coefficients
    data: np.ndarray       # (U,) data MSE when the digital branch contributes nothing


def _analog_model(k: int, n_analog: int, powers: np.ndarray, snr_db: float,
                  ctx: AllocatorContext) -> _AnalogModel:
    """Modelled analog error of k features on n_analog uses at each of the
    (U,) analog powers.

    The fade rule is the 64-point rule over |h|^2 ~ Exp(1) for Rayleigh and a
    single node |h|^2 = 1 of weight 1 for AWGN. Coefficients the analog branch
    does not carry sit at their prior variance. numpy sums a row pairwise
    only when the row is contiguous, so each mean over coefficients reduces
    the last axis of a C-contiguous array (take, not mean_err[:, kept], whose
    copy is laid out column by column): every row then sums as it would
    alone, and a cost does not depend on what else shares the call.
    """
    if ctx.channel == "awgn":
        nodes, weights = np.ones(1), np.ones(1)
    else:
        nodes, weights = FADE_NODES, FADE_WEIGHTS
    kept = ctx.kept_indices(k)
    priors = ctx.prior_vars[kept]
    gains = analog_gains(priors, powers / n_analog / 2.0)  # (U, k); two real dims per use
    nv_dim = 10.0 ** (-snr_db / 10.0) / 2.0
    errors = np.empty((len(powers), len(nodes), ctx.n))
    errors[:] = ctx.prior_vars
    errors[:, :, kept] = mmse_error_vars(gains[:, None, :], priors, nodes[:, None], nv_dim)
    mean_err = weights @ errors  # (U, n)
    return _AnalogModel(errors, mean_err.take(kept, axis=1).mean(axis=1), mean_err.mean(axis=1))


def _fail_probs(layouts, power_digital, snr_db: float, fer: FerTable) -> np.ndarray:
    """p_f (L, P) of layout l at the digital powers power_digital[l], looked
    up at the digital partition's effective per-use SNR; 1 for the
    digital-off layout, whose output is always the fallback. Layouts of
    different k that share a (B, pattern) tuple share one lookup."""
    p_f = np.ones(np.shape(power_digital))
    rows_of = {}
    for row, layout in enumerate(layouts):
        if layout.n_digital:
            key = (layout.pattern, layout.quant_bits, layout.n_digital)
            rows_of.setdefault(key, []).append(row)
    for (pattern, bits, n_d), rows in rows_of.items():
        p_f[rows] = fer.lookup(pattern, bits, snr_db + 10.0 * np.log10(power_digital[rows] / n_d))
    return p_f


def _digital_distortion(model: _AnalogModel, at: np.ndarray, layouts, p_f: np.ndarray,
                        ctx: AllocatorContext) -> np.ndarray:
    """model_digital_distortion (L, P) of layout l with the analog power of
    model row at[l, j] and the failure probability p_f[l, j].

    The capped error depends on B and the analog power, not on the pattern,
    so it is computed once per (B, model row) in use (over AWGN the single
    fade node is the fade average). Each row averaged over coefficients is
    contiguous and sums pairwise as it would alone; the fade average is a
    stack of 1 x nodes @ nodes x 1 products, each the dot product of a plan
    scored alone (a matrix-vector product would sum in another order).
    """
    out = model.data[at]                    # the digital-off layouts' fallback
    digital = np.array([layout.n_digital > 0 for layout in layouts])
    if not digital.any():
        return out
    p_f, at = p_f[digital], at[digital]
    bits = np.array([layout.quant_bits for layout in layouts])[digital]
    key = bits[:, None] * len(model.data) + at          # one key per (B, model row)
    used = np.flatnonzero(np.bincount(key.ravel()))     # the keys in use, ascending
    used_bits, row = np.divmod(used, len(model.data))
    block = model.errors[row]
    np.minimum(block, np.stack([ctx.cell_mse(int(b)) for b in used_bits])[:, None], out=block)
    capped = block.mean(axis=-1)[np.searchsorted(used, key)]            # (R, P, nodes)
    if ctx.channel == "awgn":
        out[digital] = (1.0 - p_f) * capped[..., 0] + p_f * model.data[at]
        return out
    fallback = np.mean(model.errors, axis=-1)                           # (U, nodes)
    depth = -np.log1p(-np.minimum(p_f, 1.0 - 1e-12))
    fail = FADE_NODES < depth[..., None]                                # deepest fades
    np.copyto(capped, fallback[at], where=fail)                         # failures fall back
    out[digital] = (FADE_WEIGHTS @ capped[..., None])[..., 0]
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
    """lam * model_analog_distortion + (1 - lam) * model_digital_distortion,
    scored as a batch of one by the searches' scorer."""
    p_f = _fail_probs([plan], np.array([[plan.power_digital]]), snr_db, fer)
    return float(_scores([plan], np.array([[plan.power_analog]]), p_f, snr_db, plan.lam, ctx)[0, 0])


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


def _off_layouts(budget: ChannelBudget, ctx: AllocatorContext) -> list:
    """The digital-off layout of every candidate k whose analog uses fit the
    budget, k ascending. Raises InfeasibleAllocationError when none fits."""
    k_grid = candidate_k_grid(ctx.n)
    offs = [_Layout(k, -(-k // 2), 0, None, 0) for k in k_grid if -(-k // 2) <= budget.total_uses]
    if not offs:
        raise InfeasibleAllocationError(
            f"binding constraint: total_uses={budget.total_uses} cannot carry "
            f"any candidate k from {k_grid}"
        )
    return offs


def _layouts(budget: ChannelBudget, ctx: AllocatorContext) -> list:
    """Every layout whose channel uses fit the budget, in tie-break order:
    k ascending, and per k the digital-off layout first, then (B, pattern).
    Raises InfeasibleAllocationError when no candidate k fits."""
    offs = _off_layouts(budget, ctx)
    tuples = [(bits, pattern, digital_uses(ctx.n, bits, pattern, ctx.modulation))
              for bits in QUANT_BITS_GRID for pattern in PATTERNS]
    return [layout for off in offs for layout in [off] + [
        off._replace(quant_bits=bits, pattern=pattern, n_digital=n_d)
        for bits, pattern, n_d in tuples if off.n_analog + n_d <= budget.total_uses
    ]]


# The FER table's log-linear interpolation can break p_f's monotonicity in
# SNR at its knots by a few units in the last place. A bound therefore reads
# p_f lowered by this relative margin, and a search prunes a layout only when
# its bound exceeds the incumbent by the same margin.
_BOUND_MARGIN = 1e-9


def _bracket(p_total: float) -> np.ndarray:
    """The analog powers [P_lo, P_hi] that bracket every split a search scores."""
    return np.array([POWER_SHARE_LO, POWER_SHARE_HI]) * p_total


def _power_grid(p_total: float) -> np.ndarray:
    """Exhaustive's analog power grid; it spans the whole bracket."""
    return np.linspace(*_bracket(p_total), POWER_GRID_POINTS)


def _split_powers(layouts, points, p_total: float) -> np.ndarray:
    """Analog powers (L, P) of the layouts at the grid points; a digital-off
    layout has a single split and sits at p_total throughout."""
    digital = np.array([layout.n_digital > 0 for layout in layouts])[:, None]
    return np.where(digital, points, p_total)


def _k_rows(layouts) -> list:
    """The rows of each k's layouts, k ascending."""
    return [
        [row for row, layout in enumerate(layouts) if layout.k == k]
        for k in sorted({layout.k for layout in layouts})
    ]


def _scores(layouts, powers: np.ndarray, p_f: np.ndarray, snr_db, lam, ctx) -> np.ndarray:
    """System distortion (L, P) of layout l at the analog power powers[l, j]
    and the failure probability p_f[l, j]. The analog errors are computed
    once per k and distinct power and shared by the layouts of that k."""
    out = np.empty(powers.shape)
    for rows in _k_rows(layouts):
        group, block = [layouts[row] for row in rows], powers[rows]
        unique, at = np.unique(block, return_inverse=True)
        model = _analog_model(group[0].k, group[0].n_analog, unique, snr_db, ctx)
        at = at.reshape(block.shape)
        digital = _digital_distortion(model, at, group, p_f[rows], ctx)
        out[rows] = lam * model.feature[at] + (1.0 - lam) * digital
    return out


def _costs(layouts, powers, p_total, snr_db, lam, ctx, fer) -> np.ndarray:
    """Modelled system distortion (L, P) of the L layouts, layout l at the
    analog powers powers[l] and the rest of p_total on digital. Each cost is
    the one system_distortion gives that plan, bit for bit, whatever else
    shares the call."""
    powers = np.asarray(powers, dtype=np.float64)
    return _scores(layouts, powers, _fail_probs(layouts, p_total - powers, snr_db, fer),
                   snr_db, lam, ctx)


def _scan(layouts, points, p_total, snr_db, lam, ctx, fer, edges=None
          ) -> tuple[np.ndarray, np.ndarray]:
    """Costs (L, P) of the layouts at P analog powers, and bounds (L, E - 1)
    on the intervals between E ascending edges, by default the points
    themselves: bounds[l, i] is at most layout l's cost at any analog power
    in [edges[i], edges[i + 1]], up to rounding in the last place. The
    digital-off layouts sit at p_total throughout, so each of their bounds
    is their cost. With the bracket as the edges, bounds[:, 0] bounds each
    digital layout over every split a search can score.

    Why the bound holds: across the interval the analog errors (feature,
    fallback, capped) are non-increasing in analog power, since every step
    of their chain is monotone under rounding, so they are at least their
    values at edges[i + 1]. p_f is non-decreasing, since the digital power
    falls and the table's envelope is non-increasing in SNR. d_d is
    non-increasing in the errors and non-decreasing in p_f: under Rayleigh
    fading the nodes that fail at a lower p_f fail at a higher one too, and a
    failing node costs its fallback, never less than its capped error; over
    AWGN d_d = (1 - p_f) * capped + p_f * data with data >= capped. So the
    bound is the cost formula with the errors of edges[i + 1] and the p_f
    of edges[i].

    One pass: p_f is looked up once, and the points and the bounds are
    scored in one call (on a grid the bounds' powers are the grid's own).
    """
    edges = points if edges is None else edges
    powers = _split_powers(layouts, np.concatenate([points, edges]), p_total)
    p_f = _fail_probs(layouts, p_total - powers, snr_db, fer)
    cols = len(points)
    values = _scores(layouts, np.hstack([powers[:, :cols], powers[:, cols + 1:]]),
                     np.hstack([p_f[:, :cols], (1.0 - _BOUND_MARGIN) * p_f[:, cols:-1]]),
                     snr_db, lam, ctx)
    return tuple(np.split(values, [cols], axis=1))


def _refined(layouts, p_total, snr_db, lam, ctx, fer) -> tuple[np.ndarray, np.ndarray]:
    """(costs, powers) of the best split of each digital layout, by
    deterministic golden-section search on [POWER_SHARE_LO, POWER_SHARE_HI] *
    p_total (Kiefer 1953). The layouts step in lockstep, one scorer call per
    iteration; each walks the bracket sequence it would walk alone."""
    args = (p_total, snr_db, lam, ctx, fer)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = (np.full(len(layouts), edge) for edge in _bracket(p_total))
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


def _survivors(layouts, bounds, entries) -> list:
    """The digital layouts that can still win: those whose bound does not
    exceed the lowest cost among the entries by more than _BOUND_MARGIN. A
    dropped layout costs more than that entry at every split, so it can be
    neither the best entry nor one that changes which entry is best."""
    incumbent = min((entry[0] for entry in entries), default=np.inf)
    return [layout for layout, bound in zip(layouts, bounds)
            if layout.n_digital and bound <= incumbent * (1.0 + _BOUND_MARGIN)]


def _refine_unpruned(layouts, lowest, entries, args) -> list:
    """The entries plus the refinements of the digital layouts that can
    still win. In ascending k, each k's layouts are refined in lockstep,
    except those whose lowest bound lowest[l] rules them out against the
    entries held so far, the refinements already done included
    (_survivors), so the best entry is the one refining every layout gives."""
    for rows in _k_rows(layouts):
        survivors = _survivors([layouts[row] for row in rows], lowest[rows], entries)
        if survivors:
            entries = entries + [
                _entry(cost, layout, p_a)
                for layout, cost, p_a in zip(survivors, *_refined(survivors, *args))
            ]
    return entries


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


def _check_link(budget: ChannelBudget, snr_db: float) -> None:
    """The scorer models finite SNRs and finite, positive powers only."""
    if not np.isfinite(snr_db):
        raise ParameterError(f"snr_db must be finite, got {snr_db}")
    if not 0.0 < budget.power_total < np.inf:
        raise ParameterError(f"power_total must be finite and > 0, got {budget.power_total}")


def choose_analog_floor_k(budget: ChannelBudget, snr_db: float, ctx: AllocatorContext) -> int:
    """Smallest candidate k whose analog-only feature MSE meets FEATURE_MSE_FLOOR."""
    _check_link(budget, snr_db)
    best = None
    power = np.array([budget.power_total])
    for layout in _off_layouts(budget, ctx):
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

    The scorer call of the coarse scan also bounds every layout over the
    whole bracket (_scan with the bracket as its edges). A digital pick
    whose bound exceeds the lowest digital-off pick is dropped (_survivors):
    it costs more than that pick at every split. Only the rest are scanned
    on exhaustive's power grid, which bounds each on every grid interval,
    and go through the same refinement pruning as the exhaustive search
    (_refine_unpruned), one pick per k. So the plan is the one scanning and
    refining every pick gives.
    """
    _check_lam(lam)
    p_total = budget.power_total
    args = (p_total, snr_db, lam, ctx, fer)
    k_floor = choose_analog_floor_k(budget, snr_db, ctx)
    # rank tuples by their best cost over a coarse power scan (a single
    # use-proportional split mis-ranks tuples whose optimum sits at an
    # extreme split)
    coarse = np.linspace(0.2, 0.8, 5) * p_total
    layouts = [layout for layout in _layouts(budget, ctx) if layout.k >= k_floor]
    costs, bounds = _scan(layouts, coarse, *args, edges=_bracket(p_total))
    costs = costs.min(axis=1)
    entries, picks = [], []
    for rows in _k_rows(layouts):
        row = rows[int(np.argmin(costs[rows]))]
        if layouts[row].n_digital:
            picks.append(row)
        else:
            entries.append(_entry(costs[row], layouts[row], p_total))
    picks = _survivors([layouts[row] for row in picks], bounds[picks, 0], entries)
    lowest = _scan(picks, _power_grid(p_total), *args)[1].min(axis=1)
    return _best(_refine_unpruned(picks, lowest, entries, args), p_total, lam, ctx)[1]


def allocate_exhaustive(
    budget: ChannelBudget,
    snr_db: float,
    lam: float,
    ctx: AllocatorContext,
    fer: FerTable,
) -> AllocationPlan:
    """Full grid search over (k, B, pattern, power split).

    Every tuple that can still win is scored on the 21-point power grid and
    gets the same golden-section refinement the greedy search uses, so the
    exhaustive cost is never above the greedy cost. Ties break
    lexicographically on (k, B, pattern, P_a); digital-off sorts as B=0.

    Branch and bound at two levels. First, one scorer call gives each
    digital-off layout its cost, which is the same at every split, and each
    digital tuple a bound over the whole bracket (_scan with the bracket as
    its edges). A tuple whose bound exceeds the lowest digital-off cost is
    dropped (_survivors): its cost at every grid point and after refinement
    is above that plan's. Only the survivors are scanned on the grid, which
    bounds each on every grid interval; with their best grid points and the
    digital-off plans as entries, they go through the refinement pruning
    greedy uses too (_refine_unpruned). So the plan is the one scanning and
    refining every tuple gives.
    """
    _check_lam(lam)
    _check_link(budget, snr_db)
    p_total = budget.power_total
    args = (p_total, snr_db, lam, ctx, fer)
    layouts = _layouts(budget, ctx)
    values = _scan(layouts, np.empty(0), *args, edges=_bracket(p_total))[1][:, 0]
    entries = [_entry(value, layout, p_total)
               for layout, value in zip(layouts, values) if not layout.n_digital]
    survivors = _survivors(layouts, values, entries)
    power_grid = _power_grid(p_total)
    costs, bounds = _scan(survivors, power_grid, *args)
    # of a tuple's grid points only its lowest cost can win, at the lowest
    # power among equal costs as the tie-break on P_a would pick
    entries += [_entry(row.min(), layout, power_grid[row.argmin()])
                for layout, row in zip(survivors, costs)]
    entries = _refine_unpruned(survivors, bounds.min(axis=1), entries, args)
    return _best(entries, p_total, lam, ctx)[1]
