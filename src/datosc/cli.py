"""Command-line front end: sweep, calibrate-fer, seu, detect."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .channel import ChannelState
from .harness import (
    SWEEP_KEYS,
    ExperimentConfig,
    calibrate_fer,
    config_from_values,
    derive_seed,
    detect_effects,
    parse_config_text,
    read_sweep_csv,
    run_sweep,
)
from .seu import (
    DriftSpec,
    ModelParams,
    drift,
    seu_send_floats,
    seu_update_ints,
    write_session_log,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--trials", type=int)


def _experiment_config(args) -> ExperimentConfig:
    overrides = {
        "seed": args.seed,
        "out": args.out,
        "trials": args.trials,
        "scheme": args.scheme,
        "lambda": args.lam,
        "snr": args.snr,
    }
    values = _config_values(args, SWEEP_KEYS)
    values.update({key: val for key, val in overrides.items() if val is not None})
    return config_from_values(values)


def _config_values(args, reads: tuple[str, ...]) -> dict:
    """Config-file values for a subcommand that reads only the keys in reads;
    one stderr line names every other key the file sets."""
    values = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            values = parse_config_text(fh.read())
    ignored = [key for key in values if key not in reads]
    if ignored:
        print(
            f"datosc {args.command}: ignoring config keys it does not read: "
            + ", ".join(ignored),
            file=sys.stderr,
        )
    return values


def cmd_sweep(args) -> int:
    cfg = _experiment_config(args)
    rows = run_sweep(cfg, verbose=True)
    print(f"wrote {len(rows)} rows to {cfg.out}")
    return 0


def cmd_calibrate_fer(args) -> int:
    """calibrate_fer gets only the keys a flag or the config file set, so its
    signature holds the defaults."""
    values = _config_values(args, ("channel", "trials", "seed", "out"))
    flags = {"trials": args.trials, "seed": args.seed, "out": args.out}
    values.update({key: val for key, val in flags.items() if val is not None})
    table = calibrate_fer(
        **{key: values[key] for key in ("channel", "trials", "seed") if key in values},
        verbose=True,
    )
    out = values.get("out", "fer_table.csv")
    table.save_csv(out)
    print(f"wrote calibration table to {out}")
    return 0


def cmd_seu(args) -> int:
    values = _config_values(args, (
        "seed", "trials", "float_count", "int_count", "int_bits", "pattern", "channel",
        "snr", "float_noise_std", "flip_prob", "p_hat",
    ))
    seed = args.seed if args.seed is not None else values.get("seed", 12345)
    sessions = args.trials or values.get("trials", 1)
    float_count = values.get("float_count", 256)
    int_count = values.get("int_count", 1024)
    int_bits = values.get("int_bits", 4)
    pattern = values.get("pattern", "R23")
    channel = values.get("channel", "awgn")
    snr_db = args.snr if args.snr is not None else float(values.get("snr", (10.0,))[0])
    spec = DriftSpec(
        float_noise_std=values.get("float_noise_std", 0.1),
        bit_flip_prob=values.get("flip_prob", 0.01),
    )
    p_hat = values.get("p_hat", max(spec.bit_flip_prob, 1e-3))

    # parameters and channels draw from separately derived streams, as in a sweep
    rng = np.random.default_rng(derive_seed(seed, 0))
    states = ChannelState.for_blocks(snr_db, channel, derive_seed(seed, 1), 0, sessions)
    ok_count = 0
    all_frames = []
    overhead = 0.0
    for s, state in enumerate(states):
        params = ModelParams(
            floats=rng.standard_normal(float_count),
            ints=rng.integers(0, 1 << int_bits, int_count),
            int_bits=int_bits,
        )
        outdated = drift(params, spec, seed=int(rng.integers(2**63)))
        est, _ = seu_send_floats(
            params.floats, np.ones(float_count), 1.0, state
        )
        result = seu_update_ints(
            params.ints,
            outdated.ints,
            int_bits,
            pattern,
            state,
            p_hat=p_hat,
        )
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
    print(f"update success rate: {ok_count}/{sessions} (parity overhead {overhead:.4f})")
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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
