"""The benchmark's workloads. Each drives datosc only through its public entry
points, makes every input from the workload seed, and checks the outputs it
gets back; a failed check counts as a failed operation.

A workload runs in units: `prepare()` once (untimed), then `unit()` as often
as run.py asks. Only the calls into datosc inside a unit are timed.

Why these workloads:
  sweep     the paper's default experiment, serial: per-trial draws, batched
            Viterbi and side-info LLRs; the list decoder and allocator idle.
  sweep-mp  the same sweep over a process pool: pool start-up and chunk
            pickling, and the byte-identical-CSV contract across worker counts.
  seu       parity-only model updates (criterion-8 setting): single-frame list
            Viterbi plus one CRC per candidate; sources, analog, harness idle.
  alloc     greedy and exhaustive rate/power plans (criterion-7 setting):
            thousands of tiny distortion-model calls, no Monte-Carlo.
"""

from __future__ import annotations

import math
import os
import statistics
import traceback
from dataclasses import asdict, replace
from fractions import Fraction
from time import perf_counter

import numpy as np

SCHEMES = ("analog", "digital", "da")


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Workload:
    """Shared counters: operations attempted and failed, timed seconds and
    units of work (trials, sessions or draws) done in the timed calls."""

    min_units = 1

    def __init__(self, datosc, seed: int, tiny: bool, workdir: str, workers: int = 1):
        self.datosc = datosc
        self.workers = workers
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.work = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        if not ok and len(self.problems) < 20:
            self.problems.append(what)
        return ok

    def guarded(self, ops: int, body) -> None:
        """Run one unit of `ops` operations; any failed check or exception
        marks all of them failed."""
        self.attempted += ops
        try:
            ok = body()
        except Exception:  # a crash in the program is a failed operation
            self.problems.append(traceback.format_exc(limit=3))
            ok = False
        if not ok:
            self.failed += ops

    def reset_timing(self) -> None:
        self.busy_s = 0.0
        self.work = 0

    def rewind(self) -> None:
        """Make the next units replay the same inputs from the start."""


# ---------------------------------------------------------------------------
# sweep and sweep-mp
# ---------------------------------------------------------------------------

class Sweep(Workload):
    """One unit is the full three-scheme default sweep (run_sweep per scheme).
    The first unit's CSV bytes are the reference every later unit must
    reproduce exactly."""

    name = "sweep"
    min_units = 2

    def __init__(self, datosc, seed, tiny, workdir, workers=1):
        super().__init__(datosc, seed, tiny, workdir, workers)
        H = datosc.harness
        base = H.ExperimentConfig(seed=seed, workers=workers)
        if tiny:
            base = replace(base, trials=100)
        self.configs = {
            s: replace(base, scheme=s, out=os.path.join(workdir, f"{s}.csv"))
            for s in SCHEMES
        }
        self.reference = None
        self.rows = None
        self.sweep_s: list[float] = []

    def config(self) -> dict:
        cfg = asdict(self.configs["da"])
        cfg.pop("out")
        cfg["scheme"] = list(SCHEMES)
        return cfg

    def _sweep(self, workers):
        H = self.datosc.harness
        csv, rows, busy = [], {}, 0.0
        for scheme in SCHEMES:
            cfg = replace(self.configs[scheme], workers=workers)
            t0 = perf_counter()
            rows[scheme] = H.run_sweep(cfg)
            busy += perf_counter() - t0
            with open(cfg.out, "rb") as fh:
                csv.append(fh.read())
        return tuple(csv), rows, busy

    def _rows_ok(self, rows) -> bool:
        ok = True
        grid = list(self.configs["da"].snr_grid)
        trials = self.configs["da"].trials
        for scheme, rs in rows.items():
            ok &= self.check([r.snr_db for r in rs] == grid, f"{scheme}: grid")
            for r in rs:
                vals = (r.feature_mse, r.feature_mse_se, r.data_mse, r.data_mse_se,
                        r.system_distortion, r.fer, r.task_accuracy)
                ok &= self.check(all(math.isfinite(v) for v in vals),
                                 f"{scheme} {r.snr_db} dB: non-finite row")
                ok &= self.check(0.0 <= r.fer <= 1.0, f"{scheme} {r.snr_db} dB: fer {r.fer}")
                ok &= self.check(r.trials == trials and r.scheme == scheme,
                                 f"{scheme} {r.snr_db} dB: trials/scheme")
        return ok

    def prepare(self) -> None:
        H = self.datosc.harness
        for cfg in self.configs.values():
            H.build_link(cfg)  # prior calibration, cached for the process

    def unit(self) -> None:
        def body():
            csv, rows, busy = self._sweep(self.workers)
            self.busy_s += busy
            self.work += sum(len(rs) * self.configs["da"].trials for rs in rows.values())
            self.sweep_s.append(busy)
            ok = self._rows_ok(rows)
            if self.reference is None:
                self.reference, self.rows = csv, rows
            return self.check(csv == self.reference, "sweep CSV differs from the first sweep") and ok

        self.guarded(len(SCHEMES), body)

    def report(self) -> dict:
        nan = float("nan")
        graceful = robust = nan
        if self.rows is not None:
            by = {s: {r.snr_db: r.data_mse for r in rs} for s, rs in self.rows.items()}
            top = max(by["da"])
            graceful = by["da"][top] / by["analog"][top]
            robust = statistics.fmean(by["da"][s] / by["digital"][s] for s in (0.0, 2.0, 4.0))
        return {
            "trials_per_s": self.work / self.busy_s if self.busy_s else nan,
            "sweep_s": self.sweep_s,
            "graceful_ratio": graceful,
            "robust_ratio": robust,
            # graceful_ratio spreads ~20% across seeds at 2000 trials; the
            # low-SNR ratio is steady enough to bound
            "outcome_ratio": robust,
        }


class SweepMp(Sweep):
    """The same sweep over `workers` processes. Its reference CSV comes from
    one serial sweep made in prepare(), so every pooled sweep must match the
    serial bytes."""

    name = "sweep-mp"
    min_units = 1

    def prepare(self) -> None:
        def body():
            csv, rows, _ = self._sweep(1)
            self.reference, self.rows = csv, rows
            return self._rows_ok(rows)

        self.guarded(len(SCHEMES), body)


# ---------------------------------------------------------------------------
# seu
# ---------------------------------------------------------------------------

class Seu(Workload):
    """Model-update sessions at the criterion-8 setting. One unit is a pair
    of sessions on fresh parameters, at drift 1% and 15% (p_hat = drift).
    Session outcomes are tallied over the first `min_units` pairs only, so
    they depend on the seed and not on how many pairs fit in the run."""

    name = "seu"
    min_units = 6
    DRIFTS = (0.01, 0.15)
    INT_BITS = 4
    PATTERN = "R34"
    SNR_DB = 10.0

    def __init__(self, datosc, seed, tiny, workdir, workers=1):
        super().__init__(datosc, seed, tiny, workdir, workers)
        self.int_count = 256 if tiny else 1024
        self.pairs = 0
        self.times = {p: [] for p in self.DRIFTS}
        self.success = {p: 0 for p in self.DRIFTS}
        self.bits_before = 0
        self.bits_after = 0
        self.frames = 0
        self.frames_ok = 0
        self.false_accepts = 0

    def config(self) -> dict:
        return {
            "int_count": self.int_count,
            "int_bits": self.INT_BITS,
            "pattern": self.PATTERN,
            "channel": "awgn",
            "snr_db": self.SNR_DB,
            "drifts": list(self.DRIFTS),
            "p_hat": "equal to drift",
            "list_size": int(self.datosc.seu.LIST_SIZE),
        }

    def _inputs(self, pair: int, drift: float):
        """Updated and outdated parameters and a channel seed; pair -1 is the
        warm-up pair."""
        seu = self.datosc.seu
        ss = np.random.SeedSequence((self.seed, pair + 1, self.DRIFTS.index(drift)))
        ints_seed, drift_seed, ch_seed = (int(v) for v in ss.generate_state(3))
        ints = np.random.default_rng(ints_seed).integers(0, 1 << self.INT_BITS, self.int_count)
        params = seu.ModelParams(floats=np.zeros(1), ints=ints, int_bits=self.INT_BITS)
        outdated = seu.drift(params, seu.DriftSpec(0.0, drift), seed=drift_seed)
        return ints, outdated.ints, ch_seed

    def _session(self, ints, outdated, ch_seed, drift):
        state = self.datosc.channel.ChannelState.awgn(self.SNR_DB, seed=ch_seed)
        t0 = perf_counter()
        res = self.datosc.seu.seu_update_ints(
            ints, outdated, self.INT_BITS, self.PATTERN, state, p_hat=drift
        )
        return res, perf_counter() - t0

    @staticmethod
    def _bits(ints, width):
        v = np.asarray(ints, dtype=np.int64)
        return ((v[:, None] >> np.arange(width - 1, -1, -1)) & 1).reshape(-1)

    def _session_ok(self, res, ints, outdated) -> bool:
        frame_bits = int(self.datosc.seu.MAX_FRAME_INFO_BITS)
        up = self._bits(ints, self.INT_BITS)
        old = self._bits(outdated, self.INT_BITS)
        got = np.asarray(res.corrected_ints)
        ok = self.check(got.shape == ints.shape and got.min() >= 0
                        and got.max() < (1 << self.INT_BITS), "corrected ints out of range")
        fixed = self._bits(got, self.INT_BITS)
        starts = range(0, up.size, frame_bits)
        ok &= self.check(len(res.frames) == len(starts), "frame count")
        parity = 0
        for f, s in zip(res.frames, starts):
            sl = slice(s, min(s + frame_bits, up.size))
            length = sl.stop - sl.start
            want_parity = round(Fraction(length + 18, 3))  # R34: 1/3 of info+CRC+tail
            ok &= self.check(f.parity_bits == want_parity, "frame parity size")
            ok &= self.check(f.bit_errors_before == int(np.sum(old[sl] != up[sl])),
                             "bit_errors_before")
            ok &= self.check(f.bit_errors_after == int(np.sum(fixed[sl] != up[sl])),
                             "bit_errors_after")
            if not f.crc_ok:
                ok &= self.check(np.array_equal(fixed[sl], old[sl]),
                                 "failed frame was not left outdated")
            parity += f.parity_bits
        ok &= self.check(res.crc_ok == all(f.crc_ok for f in res.frames), "session crc_ok")
        ok &= self.check(res.total_int_bits == up.size and res.parity_bits_sent == parity
                         and res.overhead_ratio == parity / up.size, "overhead accounting")
        return ok

    def prepare(self) -> None:
        """Warm-up pair on its own inputs, each session run twice: results
        and frame records must repeat exactly."""
        for drift in self.DRIFTS:
            def body():
                ints, outdated, ch_seed = self._inputs(-1, drift)
                res, _ = self._session(ints, outdated, ch_seed, drift)
                again, _ = self._session(ints, outdated, ch_seed, drift)
                return self._session_ok(res, ints, outdated) & self.check(
                    again.frames == res.frames and again.crc_ok == res.crc_ok
                    and np.array_equal(again.corrected_ints, res.corrected_ints),
                    "repeated session differs",
                )

            self.guarded(1, body)

    def rewind(self) -> None:
        self.pairs = 0

    def unit(self) -> None:
        pair = self.pairs
        self.pairs += 1
        for drift in self.DRIFTS:
            def body():
                ints, outdated, ch_seed = self._inputs(pair, drift)
                res, dt = self._session(ints, outdated, ch_seed, drift)
                self.busy_s += dt
                self.work += 1
                self.times[drift].append(dt)
                ok = self._session_ok(res, ints, outdated)
                if pair >= self.min_units:
                    return ok
                full = res.crc_ok and np.array_equal(res.corrected_ints, ints)
                self.success[drift] += int(full)
                for f in res.frames:
                    self.frames += 1
                    self.frames_ok += int(f.crc_ok)
                    self.false_accepts += int(f.crc_ok and f.bit_errors_after > 0)
                    self.bits_before += f.bit_errors_before
                    self.bits_after += f.bit_errors_after
                return ok

            self.guarded(1, body)

    def report(self) -> dict:
        all_ms = [1e3 * t for p in self.DRIFTS for t in self.times[p]]
        n01 = n15 = min(self.pairs, self.min_units)
        return {
            "sessions_per_s": self.work / self.busy_s if self.busy_s else float("nan"),
            "sessions": len(all_ms),
            "session_p50_ms": statistics.median(all_ms) if all_ms else float("nan"),
            "session_p90_ms": percentile(all_ms, 90) if all_ms else float("nan"),
            "session_p50_ms_by_drift": {
                str(p): statistics.median(self.times[p]) * 1e3 if self.times[p] else None
                for p in self.DRIFTS
            },
            "outcome_pairs": n01,
            "seu_success_p01": self.success[0.01] / n01 if n01 else float("nan"),
            "seu_success_p15": self.success[0.15] / n15 if n15 else float("nan"),
            "frames": self.frames,
            "frames_crc_ok": self.frames_ok,
            "false_accepts": self.false_accepts,
            "seu_false_accept_rate": (
                self.false_accepts / self.frames_ok if self.frames_ok else 0.0
            ),
            "outcome_ratio": (
                self.bits_after / self.bits_before if self.bits_before else float("nan")
            ),
        }


# ---------------------------------------------------------------------------
# alloc
# ---------------------------------------------------------------------------

class Alloc(Workload):
    """Greedy and exhaustive plans at the criterion-7 setting. One unit is a
    cycle of three draws, one per total budget, each with its own seeded SNR
    and lambda, so every run holds the same budget mix. The worst greedy /
    exhaustive ratio covers the first `min_units` cycles only."""

    name = "alloc"
    min_units = 3
    SNRS = (10.0, 12.0, 14.0, 16.0, 18.0)
    BUDGETS = (256, 320, 384)
    LAMBDA = (0.15, 0.85)

    def __init__(self, datosc, seed, tiny, workdir, workers=1):
        super().__init__(datosc, seed, tiny, workdir, workers)
        self.rewind()
        self.greedy_s: list[float] = []
        self.exhaustive_s: list[float] = []
        self.worst_ratio = 1.0
        self.ctx = self.fer = None

    def config(self) -> dict:
        return {
            "source": "class_mixture", "n": 64, "classes": 4,
            "snr_db": list(self.SNRS), "lambda": list(self.LAMBDA),
            "budgets": list(self.BUDGETS), "fer_table": "packaged rayleigh",
        }

    def prepare(self) -> None:
        d = self.datosc
        spec = d.sources.SourceSpec(kind="class_mixture", n=64, class_count=4, seed=self.seed)
        self.ctx = d.allocator.AllocatorContext(
            n=64,
            prior_vars=d.codec.calibrate_prior_vars(spec),
            task=d.codec.build_task_model(64, 4),
        )
        self.fer = d.allocator.default_fer_table()

    def rewind(self) -> None:
        self.rng = np.random.default_rng((self.seed, 0xA11C))
        self.cycles = 0

    def _plan_ok(self, plan, total, lam) -> bool:
        budget = plan.budget(total, float(total))
        try:
            budget.validate()
        except self.datosc.errors.AllocationError as exc:
            return self.check(False, f"plan over budget: {exc}")
        return self.check(plan.lam == lam, "plan lambda")

    def unit(self) -> None:
        A = self.datosc.allocator
        counted = self.cycles < self.min_units
        self.cycles += 1
        for total in self.BUDGETS:
            snr = float(self.rng.choice(self.SNRS))
            lam = float(self.rng.uniform(*self.LAMBDA))

            def body():
                budget = self.datosc.channel.ChannelBudget(total, 0, 0, float(total), 0.0, 0.0)
                t0 = perf_counter()
                g = A.allocate_greedy(budget, snr, lam, self.ctx, self.fer)
                t1 = perf_counter()
                e = A.allocate_exhaustive(budget, snr, lam, self.ctx, self.fer)
                t2 = perf_counter()
                self.greedy_s.append(t1 - t0)
                self.exhaustive_s.append(t2 - t1)
                self.busy_s += t2 - t0
                self.work += 1
                cg = A.system_distortion(g, snr, self.ctx, self.fer)
                ce = A.system_distortion(e, snr, self.ctx, self.fer)
                if counted:
                    self.worst_ratio = max(self.worst_ratio, cg / ce)
                ok = self._plan_ok(g, total, lam) & self._plan_ok(e, total, lam)
                return self.check(ce <= cg + 1e-12, f"exhaustive {ce} above greedy {cg}") and ok

            self.guarded(1, body)

    def report(self) -> dict:
        return {
            "draws_per_s": self.work / self.busy_s if self.busy_s else float("nan"),
            "draws": len(self.greedy_s),
            "greedy_ms_p50": statistics.median(self.greedy_s) * 1e3 if self.greedy_s else None,
            "exhaustive_ms_p50": (
                statistics.median(self.exhaustive_s) * 1e3 if self.exhaustive_s else None
            ),
            "outcome_draws": len(self.BUDGETS) * min(self.cycles, self.min_units),
            "greedy_exhaustive_ratio": self.worst_ratio,
            "outcome_ratio": self.worst_ratio,
        }


WORKLOADS = {"sweep": Sweep, "sweep-mp": SweepMp, "seu": Seu, "alloc": Alloc}
