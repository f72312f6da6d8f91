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
from itertools import chain, groupby
from typing import NamedTuple, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .analog import analog_gains, mmse_error_vars
from .channel import ChannelBudget
from .codec import TaskModel, selection_indices
from .digital import QuantizerSpec, bits_per_symbol, parity_length
from .errors import InfeasibleAllocationError, ParameterError

PATTERNS = ("R12", "R23", "R34")
QUANT_BITS_GRID = (1, 2, 3, 4, 5, 6)
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
        if not 0.0 < self.lam < 1.0:
            raise ParameterError(f"lambda must lie strictly in (0, 1), got {self.lam}")

    @property
    def digital_on(self) -> bool:
        return self.n_digital > 0

    @property
    def analog_code_rate(self) -> float:
        return self.n / self.n_analog

    @property
    def digital_code_rate(self) -> Optional[float]:
        return self.n / self.n_digital if self.n_digital else None

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
    floor_threshold: float = 0.05
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


class FerTable:
    """Empirical decode-failure probabilities on a (pattern, B, snr) grid.

    Lookups interpolate log(p) linearly in snr_db over a non-increasing
    envelope of the calibrated points (Monte-Carlo upticks are flattened so
    the distortion model stays monotone in SNR), clamped at the grid edges.
    Probabilities are floored at 1/(2*trials) so log-interpolation is defined
    for cells that saw no failures.
    """

    def __init__(self):
        self._cells: dict[tuple[str, int], dict] = {}

    def add(self, pattern: str, quant_bits: int, snr_db, p_f, trials: int, seed: int):
        """Add one calibrated point; every point of a cell shares its first
        point's trials and seed."""
        key = (pattern, int(quant_bits))
        cell = self._cells.setdefault(
            key, {"snr": [], "p": [], "trials": trials, "seed": seed}
        )
        if (trials, seed) != (cell["trials"], cell["seed"]):
            raise ParameterError(
                f"pattern={pattern}, B={quant_bits} was calibrated with trials="
                f"{cell['trials']}, seed={cell['seed']}; got trials={trials}, seed={seed}"
            )
        cell["snr"].append(float(snr_db))
        cell["p"].append(float(p_f))
        cell.pop("env", None)  # _prepared rebuilds grid and env with the new point

    def _prepared(self, key):
        cell = self._cells[key]
        if "env" not in cell:
            order = np.argsort(cell["snr"])
            snr = np.asarray(cell["snr"])[order]
            p = np.asarray(cell["p"])[order]
            floor = 0.5 / max(cell["trials"], 1)
            env = np.minimum.accumulate(np.clip(p, floor, 1.0))
            cell["grid"] = snr
            cell["env"] = env
        return cell

    def keys(self):
        return sorted(self._cells.keys())

    def raw(self, pattern: str, quant_bits: int) -> tuple[np.ndarray, np.ndarray, int]:
        cell = self._prepared((pattern, quant_bits))
        return cell["grid"], np.asarray(cell["p"])[np.argsort(cell["snr"])], cell["trials"]

    def lookup(self, pattern: str, quant_bits: int, snr_db: float) -> float:
        key = (pattern, int(quant_bits))
        if key not in self._cells:
            raise ParameterError(f"no calibration for pattern={pattern}, B={quant_bits}")
        cell = self._prepared(key)
        grid, env = cell["grid"], cell["env"]
        s = np.clip(snr_db, grid[0], grid[-1])
        logp = np.interp(s, grid, np.log(env))
        return float(np.exp(logp))

    def save_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["pattern", "B", "snr_db", "p_f", "trials", "seed"])
            for (pattern, bits), cell in sorted(self._cells.items()):
                order = np.argsort(cell["snr"])
                for i in order:
                    writer.writerow(
                        [
                            pattern,
                            bits,
                            f"{cell['snr'][i]:g}",
                            f"{cell['p'][i]:.9g}",
                            cell["trials"],
                            cell["seed"],
                        ]
                    )

    @classmethod
    def from_csv_text(cls, text: str) -> "FerTable":
        table = cls()
        rows = [r for r in csv.reader(text.splitlines()) if r and not r[0].startswith("#")]
        header = rows[0]
        if header != ["pattern", "B", "snr_db", "p_f", "trials", "seed"]:
            raise ParameterError(f"unexpected FER table header: {header}")
        for row in rows[1:]:
            table.add(
                row[0], int(row[1]), float(row[2]), float(row[3]), int(row[4]), int(row[5])
            )
        return table

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


def _per_dim_power(power: float, uses: int) -> float:
    # two real dimensions per complex use
    return power / uses / 2.0


def _node_errors(
    plan: AllocationPlan, snr_db: float, ctx: AllocatorContext
) -> tuple[np.ndarray, np.ndarray]:
    """Modelled analog error per fade node and coefficient, over all n indices.

    Returns (weights, errors (nodes, n)): the 64-point rule over |h|^2 ~
    Exp(1) for Rayleigh, a single node |h|^2 = 1 of weight 1 for AWGN.
    Coefficients the analog branch does not carry sit at their prior variance.
    """
    if ctx.channel == "awgn":
        nodes, weights = np.ones(1), np.ones(1)
    else:
        nodes, weights = FADE_NODES, FADE_WEIGHTS
    kept = ctx.kept_indices(plan.k)
    priors = ctx.prior_vars[kept]
    gains = analog_gains(priors, _per_dim_power(plan.power_analog, plan.n_analog))
    nv_dim = 10.0 ** (-snr_db / 10.0) / 2.0
    errors = np.empty((len(nodes), ctx.n))
    errors[:] = ctx.prior_vars
    errors[:, kept] = mmse_error_vars(gains, priors, nodes[:, None], nv_dim)
    return weights, errors


def model_analog_distortion(
    plan: AllocationPlan, snr_db: float, ctx: AllocatorContext
) -> float:
    """Expected feature MSE of the analog branch (mean posterior variance
    of the kept coefficients, averaged over the fade rule)."""
    weights, errors = _node_errors(plan, snr_db, ctx)
    return float(np.mean((weights @ errors)[ctx.kept_indices(plan.k)]))


def model_fallback_distortion(
    plan: AllocationPlan, snr_db: float, ctx: AllocatorContext
) -> float:
    """Expected data MSE when the digital branch contributes nothing."""
    weights, errors = _node_errors(plan, snr_db, ctx)
    return float(np.mean(weights @ errors))


def model_digital_distortion(
    plan: AllocationPlan, snr_db: float, ctx: AllocatorContext, fer: FerTable
) -> float:
    """Expected data MSE of the refined output.

    Per fade realization, decode success caps each coefficient error by its
    quantizer cell (high-rate approximation delta^2/12) and failure falls
    back to the analog estimate. The failure probability p_f comes from the
    calibration table at the digital partition's effective per-use SNR; under
    quasi-static fading the decoder fails in the deepest fades, so the
    failure mass sits below the p_f-quantile of |h|^2 when averaging.
    """
    if not plan.digital_on:
        return model_fallback_distortion(plan, snr_db, ctx)
    quant = QuantizerSpec.from_prior_vars(ctx.prior_vars, plan.quant_bits)
    cell_mse = quant.deltas**2 / 12.0
    eff_snr = snr_db + 10.0 * np.log10(plan.power_digital / plan.n_digital)
    p_f = fer.lookup(plan.pattern, plan.quant_bits, eff_snr)
    weights, fade_err = _node_errors(plan, snr_db, ctx)                # (nodes, n)
    if ctx.channel == "awgn":
        analog_err = weights @ fade_err
        refined = float(np.mean(np.minimum(cell_mse, analog_err)))
        return (1.0 - p_f) * refined + p_f * float(np.mean(analog_err))
    refined = np.mean(np.minimum(cell_mse, fade_err), axis=1)         # (64,)
    fallback = np.mean(fade_err, axis=1)
    fail = FADE_NODES < -np.log1p(-min(p_f, 1.0 - 1e-12))             # deepest fades
    per_fade = np.where(fail, fallback, refined)
    return float(FADE_WEIGHTS @ per_fade)


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


def _scored(layout, p_a, p_total, snr_db, lam, ctx, fer):
    """(cost, key, plan) of a layout at analog power p_a.

    The digital-off layout puts all power on the analog branch. Keys order
    ties lexicographically on (k, B, pattern, P_a); digital-off sorts as B=0.
    """
    p_a = float(p_a if layout.n_digital else p_total)
    plan = AllocationPlan(
        **layout._asdict(),
        power_analog=p_a,
        power_digital=p_total - p_a,
        lam=lam,
        n=ctx.n,
    )
    pat_idx = -1 if layout.pattern is None else PATTERNS.index(layout.pattern)
    key = (layout.k, layout.quant_bits, pat_idx, p_a)
    return system_distortion(plan, snr_db, ctx, fer), key, plan


def _refined(layout, p_total, snr_db, lam, ctx, fer):
    """Best scored entry over the layout's power split, by deterministic
    golden-section search on [POWER_SHARE_LO, POWER_SHARE_HI] * p_total.
    The digital-off layout has a single split."""
    args = (p_total, snr_db, lam, ctx, fer)
    if not layout.n_digital:
        return _scored(layout, p_total, *args)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = POWER_SHARE_LO * p_total, POWER_SHARE_HI * p_total
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _scored(layout, c, *args), _scored(layout, d, *args)
    for _ in range(GOLDEN_ITERS):
        if fc[0] <= fd[0]:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _scored(layout, c, *args)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _scored(layout, d, *args)
    return fc if fc[0] <= fd[0] else fd


def choose_analog_floor_k(
    budget: ChannelBudget, snr_db: float, ctx: AllocatorContext, lam: float
) -> tuple[int, int]:
    """Smallest candidate k whose analog-only feature MSE meets the floor."""
    best = None
    for layout in _layouts(budget, ctx):
        if layout.n_digital:
            continue
        probe = AllocationPlan(
            **layout._asdict(), power_analog=budget.power_total, power_digital=0.0,
            lam=lam, n=ctx.n,
        )
        mse = model_analog_distortion(probe, snr_db, ctx)
        if best is None or mse < best[1]:
            best = (layout.k, mse)
        if mse <= ctx.floor_threshold:
            return layout.k, layout.n_analog
    raise InfeasibleAllocationError(
        f"binding constraint: analog feature-MSE floor {ctx.floor_threshold} "
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
    k_floor, _ = choose_analog_floor_k(budget, snr_db, ctx, lam)
    # rank tuples by their best cost over a coarse power scan (a single
    # use-proportional split mis-ranks tuples whose optimum sits at an
    # extreme split)
    coarse = np.linspace(0.2, 0.8, 5) * p_total
    entries = []
    for k, group in groupby(_layouts(budget, ctx), key=lambda layout: layout.k):
        if k < k_floor:
            continue
        layouts = list(group)
        costs = []
        for layout in layouts:
            powers = coarse if layout.n_digital else (p_total,)
            costs.append(min(_scored(layout, p_a, *args)[0] for p_a in powers))
        pick = layouts[costs.index(min(costs))]
        entries.append(_refined(pick, *args))
    return min(entries, key=lambda entry: entry[:2])[2]


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
    entries = chain.from_iterable(
        [_refined(layout, *args)]
        + [_scored(layout, p_a, *args) for p_a in power_grid if layout.n_digital]
        for layout in _layouts(budget, ctx)
    )
    return min(entries, key=lambda entry: entry[:2])[2]
