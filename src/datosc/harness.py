"""Experiment runner: configured SNR sweeps, Monte-Carlo aggregation, CSV
emission, and the cliff / saturation / graceful-improvement detectors.

Determinism contract: every trial draws from RNG streams derived solely
from (seed, point_index, trial_index), so a sweep's CSV is byte-identical
regardless of how trials are chunked over workers.
"""

from __future__ import annotations

import csv
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields, replace
from typing import Optional, get_type_hints

import numpy as np

from . import analog as ana
from . import codec
from . import digital as dig
from .allocator import PATTERNS, QUANT_BITS_GRID, FerTable, digital_uses
from .channel import ChannelBudget, channel_states, draw_blocks, noise_variance
from .errors import AllocationError, ConfigError, ParameterError
from .sources import SourceSpec, gen_blocks, load_pgm, source_states

SCHEMES = ("analog", "digital", "da")
CHANNELS = ("awgn", "rayleigh")

# largest source dimension: the class-mixture source draws an n x n matrix
# for its QR, 8 MB at this n
MAX_N = 1024

# most points an SNR grid may hold: a sweep runs every point, so a grid of
# millions is a typo in its step, not an experiment
MAX_SNR_POINTS = 1000

CLIFF_FACTOR = 5.0
SATURATION_REL = 0.05
GRACEFUL_FACTOR = 0.8

# run_sweep and calibrate_fer report each point here at INFO
log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: str = "da"
    channel: str = "rayleigh"
    snr_grid: tuple = tuple(float(s) for s in range(0, 21, 2))
    trials: int = 2000
    lam: float = 0.5
    seed: int = 12345
    out: str = "sweep.csv"
    workers: int = 1
    # source
    source_kind: str = "class_mixture"
    n: int = 64
    rho: float = 0.9
    class_count: int = 4
    image: Optional[str] = None
    # link
    k: int = 32
    quant_bits: int = 4
    pattern: str = "R12"
    modulation: str = "qpsk"
    total_uses: int = 320
    total_power: float = 320.0
    p_a_fraction: float = 0.5

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ParameterError(f"unknown scheme {self.scheme!r}")
        if self.channel not in CHANNELS:
            raise ParameterError(f"unknown channel {self.channel!r}")
        if self.trials < 100:
            raise ParameterError("trials must be >= 100 for CI-bearing metrics")
        if len(self.snr_grid) > MAX_SNR_POINTS:
            raise ParameterError(
                f"snr grid has {len(self.snr_grid)} points, at most {MAX_SNR_POINTS} are allowed"
            )
        grid = np.asarray(self.snr_grid)
        for snr in self.snr_grid:
            noise_variance(snr)
        if grid.size and np.any(np.diff(grid) <= 0):
            raise ParameterError("snr grid must be strictly increasing")
        if not 0.0 < self.lam < 1.0:
            raise ParameterError("lambda must lie strictly in (0, 1)")
        if self.scheme == "da" and not 0.0 < self.p_a_fraction < 1.0:
            raise ParameterError("p_a_fraction must lie strictly in (0, 1) under scheme da")
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if self.n > MAX_N:
            raise ParameterError(f"n must be <= {MAX_N}, got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ParameterError(f"k must lie in [1, n={self.n}], got {self.k}")
        if not 1 <= self.quant_bits <= 8:
            raise ParameterError(f"bits must lie in [1, 8], got {self.quant_bits}")
        if self.source_kind == "class_mixture" and not 1 <= self.class_count <= self.n:
            raise ParameterError(f"classes must lie in [1, n={self.n}], got {self.class_count}")
        if self.total_uses < 1:
            raise ParameterError(f"total_uses must be >= 1, got {self.total_uses}")
        if not 0.0 < self.total_power < np.inf:
            raise ParameterError(f"total_power must be finite and > 0, got {self.total_power}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.source_kind == "image_blocks" and self.n != 64:
            raise ParameterError(f"an image source cuts 8x8 tiles, so needs n=64, got n={self.n}")
        if self.image is not None and self.source_kind != "image_blocks":
            raise ParameterError(
                f"image is read by the image_blocks source only, not by {self.source_kind!r}"
            )
        if self.workers < 1:
            raise ParameterError("workers must be >= 1")

    def source_spec(self) -> SourceSpec:
        return SourceSpec(
            kind=self.source_kind,
            n=self.n,
            rho=self.rho,
            class_count=self.class_count,
            seed=self.seed,
        )


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    snr_db: float
    trials: int
    feature_mse: float
    feature_mse_se: float
    data_mse: float
    data_mse_se: float
    system_distortion: float
    fer: float
    task_accuracy: float
    n_analog: int
    n_digital: int
    p_a_fraction: float
    seed: int


# CSV columns follow SweepRow's field order, so reordering fields changes the format
SWEEP_HEADER = [f.name for f in fields(SweepRow)]


# ---------------------------------------------------------------------------
# link setup shared by all schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkSetup:
    prior_vars: np.ndarray
    task: Optional[codec.TaskModel]
    kept: np.ndarray             # selected coefficient indices (k,)
    quant: dig.QuantizerSpec
    n_analog: int
    n_digital: int
    power_analog: float
    power_digital: float
    image_blocks: Optional[np.ndarray] = None  # (B, 64) tiles of an image source

    @property
    def analog_per_dim(self) -> float:
        return self.power_analog / self.n_analog / 2.0 if self.n_analog else 0.0

    @property
    def digital_amplitude(self) -> float:
        if not self.n_digital:
            return 0.0
        return float(np.sqrt(self.power_digital / self.n_digital))


def derive_seed(*parts) -> int:
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def build_link(config: ExperimentConfig) -> LinkSetup:
    """Calibrate priors, build the task model, and fix the channel split."""
    config.validate()
    spec = config.source_spec()
    image_blocks = None
    if config.source_kind == "image_blocks":
        if not config.image:
            raise ConfigError("image_blocks source needs an image path")
        image_blocks = load_pgm(config.image)
        prior_vars = codec._prior_vars([image_blocks])
        task = None
    else:
        prior_vars = codec.calibrate_prior_vars(spec)
        task = (
            codec.build_task_model(config.n, config.class_count)
            if config.source_kind == "class_mixture"
            else None
        )
    kept = codec.selection_indices(config.n, config.k, prior_vars, task)
    quant = dig.QuantizerSpec.from_prior_vars(prior_vars, config.quant_bits)
    info_len = config.n * config.quant_bits
    parity_len = dig.parity_length(info_len, config.pattern)  # checks the pattern, for every scheme
    dig.bits_per_symbol(config.modulation)  # checks the modulation, for every scheme

    if config.scheme == "analog":
        n_a, n_d = -(-config.k // 2), 0
        p_a, p_d = config.total_power, 0.0
    elif config.scheme == "digital":
        wire_bits = info_len + dig.CRC_BITS + dig.TAIL_BITS + parity_len
        n_a, n_d = 0, dig.symbol_count(wire_bits, config.modulation)
        p_a, p_d = 0.0, config.total_power
    else:
        n_a = -(-config.k // 2)
        n_d = digital_uses(config.n, config.quant_bits, config.pattern, config.modulation)
        p_a = config.p_a_fraction * config.total_power
        p_d = config.total_power - p_a

    budget = ChannelBudget(
        total_uses=config.total_uses,
        n_analog=n_a,
        n_digital=n_d,
        power_total=config.total_power,
        power_analog=p_a,
        power_digital=p_d,
    )
    try:
        budget.validate()  # infeasible plans must fail before any trial runs
    except AllocationError as exc:
        raise AllocationError(
            f"{exc}: total_uses={config.total_uses} is too few for k={config.k}, n={config.n}, "
            f"bits={config.quant_bits} and pattern {config.pattern} under scheme {config.scheme}"
        ) from None
    return LinkSetup(
        prior_vars=prior_vars,
        task=task,
        kept=kept,
        quant=quant,
        n_analog=n_a,
        n_digital=n_d,
        power_analog=p_a,
        power_digital=p_d,
        image_blocks=image_blocks,
    )


# ---------------------------------------------------------------------------
# batched per-trial pipelines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialDraws:
    """Per-trial randomness of a chunk: source blocks and their labels (-1
    when label-free), channel gains, and noise on both partitions."""

    samples: np.ndarray   # (T, n)
    labels: np.ndarray    # (T,)
    h: np.ndarray         # (T,) complex
    w_a: np.ndarray       # (T, n_analog) complex
    w_d: np.ndarray       # (T, n_digital) complex
    noise_var: float      # per complex use


def trial_states(
    config: ExperimentConfig, setup: LinkSetup, point_index: int, t0: int, t1: int
) -> tuple[Optional[np.ndarray], np.ndarray]:
    """The stream states of trials [t0, t1) of one sweep point, from one
    hash each: the source's (None for an image source) and the channel's."""
    ch = channel_states(derive_seed(config.seed, point_index, 1), t0, t1)
    if setup.image_blocks is not None:
        return None, ch
    return source_states(derive_seed(config.seed, point_index, 0), t0, t1), ch


def draw_trials(
    config: ExperimentConfig,
    setup: LinkSetup,
    snr_db: float,
    point_index: int,
    t0: int,
    t1: int,
    states: Optional[tuple] = None,
) -> TrialDraws:
    """Draws for trials [t0, t1) of one sweep point, in the same order a
    sequential run would use. states are trial_states of these trials,
    passed by a caller that hashed a longer range once (run_chunk)."""
    count = t1 - t0
    src_states, ch_states = states or trial_states(config, setup, point_index, t0, t1)
    if setup.image_blocks is not None:
        samples = setup.image_blocks[np.arange(t0, t1) % len(setup.image_blocks)]
        labels = np.full(count, -1, dtype=np.int64)
    else:
        src_seed = derive_seed(config.seed, point_index, 0)
        spec = replace(config.source_spec(), seed=src_seed)
        samples, labels = gen_blocks(spec, t0, t1, src_states)

    # Each trial draws h, then the analog noise, then the digital noise.
    n_a = setup.n_analog
    ch_seed = derive_seed(config.seed, point_index, 1)
    uses = n_a + setup.n_digital
    h, noise = draw_blocks(snr_db, config.channel, ch_seed, t0, t1, uses, ch_states)
    return TrialDraws(
        samples, labels, h, noise[:, :n_a], noise[:, n_a:], noise_variance(snr_db)
    )


def analog_stage(
    setup: LinkSetup, full: np.ndarray, draws: TrialDraws
) -> tuple[np.ndarray, np.ndarray]:
    """Send the kept coefficients of (T, n) blocks over the analog partition.

    Returns MMSE estimates and error variances over all n indices; indices
    the analog branch does not carry keep estimate 0 and their prior variance.
    """
    priors = setup.prior_vars[setup.kept]
    x_a, gains = ana.analog_encode(full[:, setup.kept], priors, setup.analog_per_dim)
    h = draws.h[:, None]
    y_a = h * x_a + draws.w_a[:, : x_a.shape[1]]
    est, err_var = ana.analog_decode(y_a, h, gains, priors, draws.noise_var)
    est_full = np.zeros_like(full)
    est_full[:, setup.kept] = est
    err_full = np.broadcast_to(setup.prior_vars, full.shape).copy()
    err_full[:, setup.kept] = err_var
    return est_full, err_full


def _steps(config: ExperimentConfig, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Viterbi's time-major inputs: (L, T) systematic LLRs, zero until set,
    and (P, T) parity LLRs."""
    info_len = config.n * config.quant_bits
    parity_len = dig.parity_length(info_len, config.pattern)
    return np.zeros((info_len + dig.CRC_BITS + dig.TAIL_BITS, count)), np.empty((parity_len, count))


def receive(
    config: ExperimentConfig,
    setup: LinkSetup,
    full: np.ndarray,
    draws: TrialDraws,
    side: Optional[np.ndarray],
    sys_steps: np.ndarray,
    parity_steps: np.ndarray,
) -> None:
    """Quantize (T, n) blocks, send them over the digital partition (the
    symbols through the channel in place) and write their LLRs into the
    time-major sys_steps and parity_steps. side holds the receiver's
    systematic LLRs of the info bits: then only the parity is sent, and the
    CRC and tail positions keep sys_steps' zeros."""
    systematic, parity = dig.dsc_encode(dig.quantize(full, setup.quant), config.pattern)
    length = systematic.shape[1]
    wire = parity if side is not None else np.concatenate([systematic, parity], axis=1)
    amplitude = setup.digital_amplitude
    y_d = dig.modulate(wire, config.modulation, amplitude)
    h = draws.h[:, None]
    np.multiply(h, y_d, out=y_d)
    y_d += draws.w_d[:, : y_d.shape[1]]
    llrs = dig.demodulate(y_d, h, draws.noise_var, config.modulation, amplitude, wire.shape[1])
    if side is None:
        sys_steps[:] = llrs[:, :length].T
        llrs = llrs[:, length:]
    else:
        sys_steps[: side.shape[1]] = side.T
    parity_steps[:] = llrs.T


def _decode(config, setup, sys_steps, parity_steps) -> tuple[np.ndarray, np.ndarray]:
    """Decoded cells and CRC flags; Viterbi reads the transposes in place."""
    decoded, crc_ok = dig.dsc_decode(sys_steps.T, parity_steps.T, config.pattern)
    return dig.bits_to_cells(decoded, setup.quant.bits), crc_ok


def _metrics(setup, full, samples, labels, coeff_hat, crc_fail):
    """Per-trial feature and data MSE, task hits and CRC failures; each
    squared error is formed in place in one buffer."""
    sq_f = coeff_hat[:, setup.kept]
    sq_f -= full[:, setup.kept]
    feature_mse = np.mean(np.multiply(sq_f, sq_f, out=sq_f), axis=1)
    del sq_f
    sq_d = codec.synthesize_full(coeff_hat)
    sq_d -= samples
    data_mse = np.mean(np.multiply(sq_d, sq_d, out=sq_d), axis=1)
    del sq_d
    if setup.task is not None and np.all(labels >= 0):
        task_ok = (codec.classify(coeff_hat, setup.task) == labels).astype(np.float64)
    else:
        task_ok = np.full(len(full), np.nan)
    return feature_mse, data_mse, task_ok, crc_fail


def run_chunk(
    config: ExperimentConfig,
    setup: LinkSetup,
    snr_db: float,
    point_index: int,
    t0: int,
    t1: int,
):
    """Per-trial (feature_mse, data_mse, task_ok, crc_fail) arrays for
    trials [t0, t1) of one sweep point.

    Trials are drawn and run up to Viterbi in blocks of dig.ROW_BLOCK rows,
    each block's LLRs written into Viterbi's inputs and its draws dropped.
    The chunk's stream states are hashed once, and each block's generators
    are built from its rows of them.
    """
    count, n = t1 - t0, config.n
    samples, full = np.empty((count, n)), np.empty((count, n))
    labels = np.empty(count, dtype=np.int64)
    est_full = np.empty((count, n)) if config.scheme != "digital" else None
    steps = _steps(config, count) if config.scheme != "analog" else None
    states = trial_states(config, setup, point_index, t0, t1)
    for a in range(0, count, dig.ROW_BLOCK):
        rows = slice(a, min(a + dig.ROW_BLOCK, count))
        block_states = tuple(s if s is None else s[rows] for s in states)
        draws = draw_trials(
            config, setup, snr_db, point_index, t0 + rows.start, t0 + rows.stop, block_states
        )
        samples[rows], labels[rows] = draws.samples, draws.labels
        full[rows] = codec.analyze(draws.samples)
        side = None
        if config.scheme != "digital":
            est_full[rows], err_full = analog_stage(setup, full[rows], draws)
        if config.scheme == "da":
            side = dig.side_info_llrs(est_full[rows], err_full, setup.quant)
        if config.scheme != "analog":
            receive(config, setup, full[rows], draws, side, *(s[:, rows] for s in steps))
    # the last block's draws and the chunk's stream states go before Viterbi
    states = block_states = draws = side = err_full = None
    if config.scheme == "analog":
        return _metrics(setup, full, samples, labels, est_full, np.zeros(count, dtype=bool))
    cells, crc_ok = _decode(config, setup, *steps)
    del steps  # Viterbi's inputs, the largest arrays, go before fusion and metrics
    if config.scheme == "digital":
        coeff_hat = dig.dequantize_cells(cells, setup.quant)
        coeff_hat[~crc_ok] = 0.0  # decode failure emits the zero block
        return _metrics(setup, full, samples, labels, coeff_hat, ~crc_ok)
    observed = np.zeros(n, dtype=bool)
    observed[setup.kept] = True
    refined = dig.refine(est_full, cells, setup.quant, crc_ok, observed)
    return _metrics(setup, full, samples, labels, refined, ~crc_ok)


# Trials per run_chunk call at most, so a point's working set stays bounded:
# about 7.5 KiB per trial on the default link, so 30-32 MiB at 4,096 trials
# for the digital and hybrid schemes and 14 MiB for analog (tracemalloc
# peaks). Viterbi's inputs take 2.1 KiB each of it and its decisions 1.1 KiB
# (1 byte per trellis state and step); the draws and every stage before
# Viterbi hold one block of dig.ROW_BLOCK trials. The chunk size changes no
# value: each trial draws from its own streams, and every stage gives a
# trial the bits it would give it alone (side_info_llrs computes a
# coefficient shared by all rows once, with the bits of a per-row call).
MAX_CHUNK_TRIALS = 4096


def chunk_bounds(trials: int, workers: int) -> list[tuple[int, int]]:
    """Near-equal [t0, t1) chunks of one point: one per worker, more when a
    chunk would exceed MAX_CHUNK_TRIALS. A sweep's pool runs the chunks of
    all its points."""
    chunks = max(workers, -(-trials // MAX_CHUNK_TRIALS))
    edges = np.linspace(0, trials, chunks + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def _aggregate(config: ExperimentConfig, setup: LinkSetup, snr_db: float, parts) -> SweepRow:
    """Monte-Carlo means and standard errors of a point's chunk results,
    concatenated in trial order."""
    feature = np.concatenate([p[0] for p in parts])
    data = np.concatenate([p[1] for p in parts])
    task_ok = np.concatenate([p[2] for p in parts])
    fails = np.concatenate([p[3] for p in parts])

    def se(x):
        return float(np.std(x, ddof=1) / np.sqrt(len(x))) if len(x) > 1 else 0.0

    f_mean, d_mean = float(np.mean(feature)), float(np.mean(data))
    return SweepRow(
        scheme=config.scheme,
        snr_db=float(snr_db),
        trials=config.trials,
        feature_mse=f_mean,
        feature_mse_se=se(feature),
        data_mse=d_mean,
        data_mse_se=se(data),
        system_distortion=config.lam * f_mean + (1.0 - config.lam) * d_mean,
        fer=float(np.mean(fails)),
        task_accuracy=float(np.mean(task_ok)) if not np.all(np.isnan(task_ok)) else float("nan"),
        n_analog=setup.n_analog,
        n_digital=setup.n_digital,
        p_a_fraction=(
            setup.power_analog / config.total_power if config.total_power else 0.0
        ),
        seed=config.seed,
    )


def _run_points(config: ExperimentConfig, setup: LinkSetup, points):
    """Yield one SweepRow per (point_index, snr_db) of points, in order.

    With several workers, every chunk of every point is queued up front on
    one process pool. A failing chunk cancels the queued ones and re-raises
    once the running ones have stopped.
    """
    bounds = chunk_bounds(config.trials, config.workers)
    if config.workers == 1 or len(bounds) == 1:
        for idx, snr in points:
            parts = [run_chunk(config, setup, snr, idx, a, b) for a, b in bounds]
            yield _aggregate(config, setup, snr, parts)
        return
    pool = ProcessPoolExecutor(max_workers=config.workers)
    try:
        pending = [
            [pool.submit(run_chunk, config, setup, snr, idx, a, b) for a, b in bounds]
            for idx, snr in points
        ]
        for _, snr in points:
            # popped, so a point's results are freed once its row is built
            parts = [f.result() for f in pending.pop(0)]
            yield _aggregate(config, setup, snr, parts)
    finally:
        pool.shutdown(cancel_futures=True)


def run_point(
    config: ExperimentConfig,
    snr_db: float,
    point_index: Optional[int] = None,
    setup: Optional[LinkSetup] = None,
) -> SweepRow:
    """One sweep point: per-trial pipeline runs and Monte-Carlo aggregation.

    point_index defaults to snr_db's index on config.snr_grid, and an SNR
    off the grid needs one. setup defaults to build_link(config). With
    several workers the point opens its own pool; run_sweep runs all its
    points through one.
    """
    if point_index is None:
        grid = list(config.snr_grid)
        if snr_db not in grid:
            raise ParameterError(
                f"snr {snr_db} dB is off the grid {config.snr_grid}; pass its point_index"
            )
        point_index = grid.index(snr_db)
    if setup is None:
        setup = build_link(config)
    (row,) = _run_points(config, setup, [(point_index, snr_db)])
    return row


# ---------------------------------------------------------------------------
# sweeps and CSV
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def rows_to_csv(rows: list[SweepRow], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(SWEEP_HEADER) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(v) for v in astuple(r)) + "\n")


def run_sweep(config: ExperimentConfig) -> list[SweepRow]:
    """One SweepRow per grid point, in grid order; writes config.out."""
    config.validate()
    setup = build_link(config)
    rows = []
    for row in _run_points(config, setup, list(enumerate(config.snr_grid))):
        rows.append(row)
        log.info(
            "[%s] SNR %5.1f dB  data_mse %.4g  feature_mse %.4g  fer %.3f",
            config.scheme, row.snr_db, row.data_mse, row.feature_mse, row.fer,
        )
    rows_to_csv(rows, config.out)
    return rows


def read_sweep_csv(path) -> list[SweepRow]:
    """SweepRows of a sweep CSV, each column cast to its field's type."""
    casts = get_type_hints(SweepRow)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != SWEEP_HEADER:
            raise ParameterError(f"unexpected sweep header in {path}")
        return [SweepRow(**{k: casts[k](v) for k, v in rec.items()}) for rec in reader]


# ---------------------------------------------------------------------------
# qualitative-shape detectors
# ---------------------------------------------------------------------------

def detect_effects(rows: list[SweepRow]) -> dict:
    """Cliff / saturation / graceful-improvement report for a sweep.

    A cliff pair is two adjacent grid points whose data_mse jumps by
    CLIFF_FACTOR going down in SNR; the reported cliff_snr is the upper
    point of the highest such pair. Saturation reports the top point's
    data_mse when the top two points agree within SATURATION_REL. graceful
    is true when the hybrid scheme beats the analog scheme by
    GRACEFUL_FACTOR at the top shared grid point.
    """
    per_scheme: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        per_scheme.setdefault(r.scheme, []).append((r.snr_db, r.data_mse))

    report = {"schemes": {}, "graceful": False}
    for scheme, pts in per_scheme.items():
        pts.sort()
        snrs = [p[0] for p in pts]
        mses = [p[1] for p in pts]
        cliff = None
        for i in range(len(pts) - 1):
            if mses[i] >= CLIFF_FACTOR * mses[i + 1] > 0:
                cliff = snrs[i + 1]  # upper edge of the jump
        saturation = None
        if len(pts) >= 2 and mses[-1] > 0:
            if abs(mses[-2] - mses[-1]) / mses[-1] < SATURATION_REL:
                saturation = mses[-1]
        report["schemes"][scheme] = {
            "cliff_snr": cliff,
            "saturation_floor": saturation,
        }
    if "da" in per_scheme and "analog" in per_scheme:
        top_da = max(per_scheme["da"])
        top_an = max(per_scheme["analog"])
        if top_da[0] == top_an[0]:
            report["graceful"] = bool(top_da[1] <= GRACEFUL_FACTOR * top_an[1])
    return report


# ---------------------------------------------------------------------------
# FER calibration
# ---------------------------------------------------------------------------

def calibrate_fer(
    channel: str = "rayleigh",
    patterns=PATTERNS,
    bits_grid=QUANT_BITS_GRID,
    snr_grid=tuple(float(s) for s in range(0, 25, 2)),
    trials: int = 2000,
    seed: int = 0xFE12,
) -> FerTable:
    """Measure decode-failure rates of the hybrid pipeline cell by cell.

    Each cell runs the full DA chain at equal per-use power (1.0) on both
    partitions, so the table's snr axis is the per-use SNR the digital
    partition actually sees at calibration time. The default grid is the
    one the allocator searches.
    """
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    rows = []
    cell_index = 0
    for pattern in patterns:
        for bits in bits_grid:
            for snr in snr_grid:
                cfg = ExperimentConfig(
                    scheme="da",
                    channel=channel,
                    snr_grid=(snr,),
                    trials=trials,
                    seed=derive_seed(seed, cell_index),
                    pattern=pattern,
                    quant_bits=bits,
                    total_uses=10**6,  # calibration has no use constraint
                    total_power=1.0,
                )
                setup = build_link(cfg)
                equal = replace(
                    setup,
                    power_analog=float(setup.n_analog),
                    power_digital=float(setup.n_digital),
                )
                p_f = run_point(cfg, snr, 0, equal).fer
                rows.append((pattern, bits, snr, p_f, trials, seed))
                log.info("pattern %s B=%s snr %5.1f: p_f %.4f", pattern, bits, snr, p_f)
                cell_index += 1
    return FerTable(rows)
