"""Command-line front end: sweep, calibrate-fer, seu, detect.

The front end alone reads config files and writes to the terminal. The
library takes typed settings; run_sweep and calibrate_fer report each point
to the `datosc` logger, which main prints to stdout while a command runs.
An input error (ConfigError, ParameterError, or an AllocationError from a
budget the link cannot meet) ends a command with one stderr line and exit
code 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, fields
from typing import Optional, get_type_hints

import numpy as np

from .channel import ChannelState, noise_variance
from .errors import AllocationError, ConfigError, ParameterError
from .harness import (
    MAX_SNR_POINTS,
    ExperimentConfig,
    calibrate_fer,
    derive_seed,
    detect_effects,
    read_sweep_csv,
    run_sweep,
)
from .seu import (
    DECODE_CHUNK,
    DriftSpec,
    ModelParams,
    drift,
    seu_send_floats,
    seu_update_sessions,
    write_session_log,
)


def parse_snr_spec(text: str) -> tuple:
    """Grid spec: 'a:b:step' (inclusive), a comma list, or a single value.
    A spec that yields no point is an error, and so is a range of more than
    MAX_SNR_POINTS, counted before it is built."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad snr range {text!r}, expected a:b:step")
        a, b, step = (float(p) for p in parts)
        if not np.isfinite(step):
            raise ConfigError(f"snr range {text!r} must have a finite step")
        noise_variance(a)  # the grid's points lie between its ends
        noise_variance(b)
        if step <= 0:
            raise ConfigError("snr step must be positive")
        count = np.floor((b - a) / step + 1e-9) + 1  # a float, so inf cannot overflow
        if count > MAX_SNR_POINTS:
            raise ConfigError(
                f"snr {text!r} gives {count:.0f} points, at most {MAX_SNR_POINTS} are allowed"
            )
        grid = tuple(float(a + i * step) for i in range(max(int(count), 0)))
    else:
        grid = tuple(float(p) for p in text.split(",") if p.strip())
        for snr in grid:
            noise_variance(snr)
    if not grid:
        raise ConfigError(f"snr {text!r} gives an empty grid")
    return grid


@dataclass(frozen=True)
class SeuSettings:
    """The config keys `datosc seu` reads, with their defaults."""

    seed: int = 12345
    trials: int = 1  # sessions
    float_count: int = 256
    int_count: int = 1024
    int_bits: int = 4
    pattern: str = "R23"
    channel: str = "awgn"
    snr: tuple = (10.0,)  # one point: every session runs at it
    flip_prob: float = 0.01
    p_hat: Optional[float] = None  # max(flip_prob, 1e-3) when unset

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"seu needs trials >= 1 sessions, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seu needs seed >= 0, got {self.seed}")
        if len(self.snr) != 1:
            raise ConfigError(f"seu runs at one snr point, got {len(self.snr)}: {self.snr}")
        noise_variance(self.snr[0])
        for key in ("float_count", "int_count"):
            if getattr(self, key) < 1:
                raise ConfigError(f"seu needs {key} >= 1, got {getattr(self, key)}")
        if self.int_bits not in (4, 8):
            raise ConfigError(f"seu needs int_bits of 4 or 8, got {self.int_bits}")
        if not 0.0 <= self.flip_prob < 0.5:
            raise ConfigError(f"seu needs flip_prob in [0, 0.5), got {self.flip_prob}")
        if self.p_hat is None:
            object.__setattr__(self, "p_hat", max(self.flip_prob, 1e-3))
        if not 0.0 < self.p_hat < 0.5:
            raise ConfigError(f"seu needs p_hat in (0, 0.5), got {self.p_hat}")


# ExperimentConfig fields whose config key differs from the field name
_SWEEP_KEY = {
    "lam": "lambda",
    "snr_grid": "snr",
    "source_kind": "source",
    "class_count": "classes",
    "quant_bits": "bits",
}
# the keys a sweep reads, each mapped to its ExperimentConfig field
_SWEEP_FIELDS = {_SWEEP_KEY.get(f.name, f.name): f.name for f in fields(ExperimentConfig)}
# sweep keys that only one source kind, or one scheme, reads
_SOURCE_ONLY = {"rho": "gauss_markov", "classes": "class_mixture"}
_SCHEME_ONLY = {"p_a_fraction": "da"}
_SEU_KEYS = tuple(f.name for f in fields(SeuSettings))
_CALIBRATE_KEYS = ("channel", "trials", "seed", "out")

# each key is cast to its field's type; these fields' types are not casts
_CASTS = {
    **get_type_hints(SeuSettings),
    **{key: get_type_hints(ExperimentConfig)[name] for key, name in _SWEEP_FIELDS.items()},
    "snr": parse_snr_spec,
    "image": str,
    "p_hat": float,
}


def parse_config_text(text: str) -> dict:
    """Flat key=value lines with '#' comments; unknown keys are errors."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CASTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _CASTS[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    return values


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--trials", type=int)


def _config_file(args) -> dict:
    """The values args.config sets; none without a config file."""
    if not args.config:
        return {}
    with open(args.config, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _config_values(args, values, reads) -> dict:
    """The values whose key is in reads; one stderr line names every other
    key the config file sets."""
    ignored = [key for key in values if key not in reads]
    if ignored:
        print(
            f"datosc {args.command}: ignoring config keys it does not read: "
            + ", ".join(ignored),
            file=sys.stderr,
        )
    return {key: val for key, val in values.items() if key in reads}


def _flags(args, keys) -> dict:
    """The flags among keys that the command line set."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _experiment_config(args) -> ExperimentConfig:
    values = _config_file(args)
    source = values.get("source", ExperimentConfig.source_kind)
    scheme = args.scheme or values.get("scheme", ExperimentConfig.scheme)
    reads = [key for key in _SWEEP_FIELDS
             if _SOURCE_ONLY.get(key, source) == source and _SCHEME_ONLY.get(key, scheme) == scheme]
    values = _config_values(args, values, reads)
    values.update(_flags(args, ("seed", "out", "trials", "scheme")))
    if args.lam is not None:
        values["lambda"] = args.lam
    if args.snr is not None:
        values["snr"] = parse_snr_spec(args.snr)
    return ExperimentConfig(**{_SWEEP_FIELDS[key]: val for key, val in values.items()})


def cmd_sweep(args) -> int:
    cfg = _experiment_config(args)
    rows = run_sweep(cfg)
    print(f"wrote {len(rows)} rows to {cfg.out}")
    return 0


def cmd_calibrate_fer(args) -> int:
    """calibrate_fer gets only the keys a flag or the config file set, so its
    signature holds the defaults."""
    values = _config_values(args, _config_file(args), _CALIBRATE_KEYS)
    values.update(_flags(args, ("trials", "seed", "out")))
    out = values.pop("out", "fer_table.csv")
    table = calibrate_fer(**values)
    table.save_csv(out)
    print(f"wrote calibration table to {out}")
    return 0


def cmd_seu(args) -> int:
    values = _config_values(args, _config_file(args), _SEU_KEYS)
    values.update(_flags(args, ("seed", "trials")))
    if args.snr is not None:
        values["snr"] = (args.snr,)
    cfg = SeuSettings(**values)
    # a session never reads the outdated floats, so only the ints drift
    spec = DriftSpec(float_noise_std=0.0, bit_flip_prob=cfg.flip_prob)

    # parameters and channels draw from separately derived streams, as in a sweep
    rng = np.random.default_rng(derive_seed(cfg.seed, 0))
    channel_seed = derive_seed(cfg.seed, 1)
    ok_count = 0
    all_frames = []
    overhead = 0.0
    # DECODE_CHUNK sessions per runner call bound the sessions held at once
    for first in range(0, cfg.trials, DECODE_CHUNK):
        group = range(first, min(first + DECODE_CHUNK, cfg.trials))
        sessions, drawn = [], []
        for s in group:
            state = ChannelState.for_block(cfg.snr[0], cfg.channel, channel_seed, s)
            params = ModelParams(
                floats=rng.standard_normal(cfg.float_count),
                ints=rng.integers(0, 1 << cfg.int_bits, cfg.int_count),
                int_bits=cfg.int_bits,
            )
            outdated = drift(params, spec, seed=int(rng.integers(2**63)))
            est, _ = seu_send_floats(params.floats, np.ones(cfg.float_count), 1.0, state)
            sessions.append((params.ints, outdated.ints, state))
            drawn.append((params, est))
        results = seu_update_sessions(sessions, cfg.int_bits, cfg.pattern, cfg.p_hat)
        for s, (params, est), result in zip(group, drawn, results):
            ok_count += int(
                result.crc_ok and np.array_equal(result.corrected_ints, params.ints)
            )
            overhead = result.overhead_ratio
            all_frames.extend(result.frames)
            float_mse = float(np.mean((est - params.floats) ** 2))
            print(
                f"session {s}: frames_ok {result.crc_ok}, float_mse {float_mse:.4g}, "
                f"overhead {result.overhead_ratio:.4f}, "
                f"reduction {1.0 - result.overhead_ratio:.4f}"
            )
    if args.out:
        write_session_log(args.out, all_frames)
        print(f"wrote session log to {args.out}")
    print(f"update success rate: {ok_count}/{cfg.trials} (parity overhead {overhead:.4f})")
    return 0


def cmd_detect(args) -> int:
    report = detect_effects(read_sweep_csv(args.csv))
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote report to {args.out}")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="datosc",
        description="Hybrid digital-analog semantic link simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a Monte-Carlo SNR sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--scheme", choices=("analog", "digital", "da"))
    p_sweep.add_argument("--lambda", dest="lam", type=float)
    p_sweep.add_argument("--snr", help="grid as a:b:step, a comma list, or one value")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_cal = sub.add_parser("calibrate-fer", help="rebuild the decode-failure table")
    _add_common(p_cal)
    p_cal.set_defaults(fn=cmd_calibrate_fer)

    p_seu = sub.add_parser("seu", help="run model-update sessions")
    _add_common(p_seu)
    p_seu.add_argument("--snr", type=float, help="session SNR in dB")
    p_seu.set_defaults(fn=cmd_seu)

    p_det = sub.add_parser("detect", help="report cliff/saturation/graceful effects")
    p_det.add_argument("csv", help="sweep CSV to analyze")
    p_det.add_argument("--out")
    p_det.set_defaults(fn=cmd_detect)

    args = parser.parse_args(argv)
    report = logging.StreamHandler(sys.stdout)
    logger = logging.getLogger("datosc")
    level = logger.level
    logger.addHandler(report)
    logger.setLevel(logging.INFO)
    try:
        return args.fn(args)
    except (AllocationError, ConfigError, ParameterError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    finally:
        logger.removeHandler(report)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
