"""Byte-level pins of the determinism contract.

The files under tests/data are rebuilt from their seeds and compared byte
for byte, so any change to a draw order, a decoder decision, an allocator
plan or the CSV format shows up here. Regenerate them (only for an intended
output change) with `PYTHONPATH=src python tests/test_golden.py --write`.
"""

import dataclasses
import json
import os
import sys
from unittest import mock

import numpy as np

import datosc.allocator as alloc
from datosc.channel import ChannelBudget, ChannelState
from datosc.codec import build_task_model, calibrate_prior_vars
from datosc.errors import InfeasibleAllocationError
from datosc.harness import ExperimentConfig, build_link, rows_to_csv, run_sweep
from datosc.seu import DriftSpec, ModelParams, drift, seu_update_ints
from datosc.sources import SourceSpec

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_SWEEP = os.path.join(DATA, "golden_sweep.csv")
GOLDEN_SEU = os.path.join(DATA, "golden_seu.json")
GOLDEN_SEU_RAGGED = os.path.join(DATA, "golden_seu_ragged.json")
GOLDEN_ALLOC = os.path.join(DATA, "golden_alloc.json")
GOLDEN_SOURCES = os.path.join(DATA, "golden_sources.csv")
GOLDEN_PRIORS = os.path.join(DATA, "golden_priors.json")


def build_sweep_csv(path, scratch_dir) -> None:
    """Three schemes on AWGN, then the same on Rayleigh; 0/10/20 dB, 200 trials."""
    rows = []
    for channel in ("awgn", "rayleigh"):
        for scheme in ("analog", "digital", "da"):
            cfg = ExperimentConfig(
                scheme=scheme,
                channel=channel,
                snr_grid=(0.0, 10.0, 20.0),
                trials=200,
                seed=777,
                out=os.path.join(scratch_dir, f"{channel}_{scheme}.csv"),
            )
            rows += run_sweep(cfg)
    rows_to_csv(rows, path)


def _source_configs(scratch_dir) -> dict:
    """Every source kind off the default path: AR(1) at three correlations
    and block lengths, a 3-class mixture at n=32, and a seeded 45x37 PGM
    whose sides are not multiples of 8 (30 tiles, the edge ones padded)."""
    rng = np.random.default_rng(0x9617)
    image = os.path.join(scratch_dir, "tiles.pgm")
    with open(image, "wb") as fh:
        fh.write(b"P5\n45 37\n255\n" + rng.integers(0, 256, 45 * 37, dtype=np.uint8).tobytes())
    return {
        "gm_n64_rho0.9": dict(source_kind="gauss_markov", n=64, rho=0.9),
        "gm_n48_rho0.5": dict(source_kind="gauss_markov", n=48, rho=0.5, k=24),
        "gm_n64_rho0": dict(source_kind="gauss_markov", n=64, rho=0.0),
        "mixture_n32_k3": dict(source_kind="class_mixture", n=32, class_count=3, k=16),
        "image_45x37": dict(source_kind="image_blocks", n=64, image=image),
    }


def build_sources_csv(path, scratch_dir) -> None:
    """Each source of _source_configs in order, each as build_sweep_csv's
    six sweeps (seed 4321)."""
    rows = []
    for source in _source_configs(scratch_dir).values():
        for channel in ("awgn", "rayleigh"):
            for scheme in ("analog", "digital", "da"):
                cfg = ExperimentConfig(
                    scheme=scheme,
                    channel=channel,
                    snr_grid=(0.0, 10.0, 20.0),
                    trials=200,
                    seed=4321,
                    out=os.path.join(scratch_dir, f"{channel}_{scheme}.csv"),
                    **source,
                )
                rows += run_sweep(cfg)
    rows_to_csv(rows, path)


def priors_json(scratch_dir) -> str:
    """Calibrated prior variances of each source of _source_configs, as float.hex."""
    out = {
        name: [v.hex() for v in build_link(ExperimentConfig(**source)).prior_vars.tolist()]
        for name, source in _source_configs(scratch_dir).items()
    }
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def seu_sessions() -> dict:
    """One R12 and one R34 session on AWGN and on Rayleigh: three frames of
    8-bit ints (two full, one short), 3.5% drift, 10 dB."""
    out = {}
    for fading in ("awgn", "rayleigh"):
        for pattern in ("R12", "R34"):
            rng = np.random.default_rng(0x5E0)
            params = ModelParams(
                floats=np.zeros(1), ints=rng.integers(0, 256, 400), int_bits=8
            )
            outdated = drift(params, DriftSpec(0.0, 0.035), seed=11)
            state = ChannelState.for_block(10.0, fading, seed=0x5E3)
            res = seu_update_ints(params.ints, outdated.ints, 8, pattern, state, 0.035)
            rng_state = state.rng.bit_generator.state["state"]
            out[f"{fading}_{pattern}"] = {
                "corrected_ints": [int(v) for v in res.corrected_ints],
                "crc_ok": bool(res.crc_ok),
                "frames": [dataclasses.asdict(f) for f in res.frames],
                "rng_after": [int(rng_state["state"]), int(rng_state["inc"])],
            }
    return out


def seu_json() -> str:
    return json.dumps(seu_sessions(), indent=1, sort_keys=True) + "\n"


def seu_ragged_sessions() -> dict:
    """24 sessions of 4-bit ints whose last frame is shorter than the rest:
    R12/R23/R34 at drift 1% and 15% (p_hat = drift), 10 dB. 1024 ints (three
    full frames and a 598-bit rest) on AWGN and Rayleigh, 292 ints (one full
    frame and a 2-bit rest) on AWGN, and 583 ints (two full frames, no rest)
    on Rayleigh. Corrected ints are one hex digit each."""
    out = {}
    for fading, short_count in (("awgn", 292), ("rayleigh", 583)):
        for pattern in ("R12", "R23", "R34"):
            for flip in (0.01, 0.15):
                for count in (short_count, 1024):
                    rng = np.random.default_rng((count, int(flip * 100)))
                    params = ModelParams(
                        floats=np.zeros(1), ints=rng.integers(0, 16, count), int_bits=4
                    )
                    outdated = drift(params, DriftSpec(0.0, flip), seed=count + 7)
                    state = ChannelState.for_block(10.0, fading, seed=count)
                    res = seu_update_ints(params.ints, outdated.ints, 4, pattern, state, flip)
                    rng_state = state.rng.bit_generator.state["state"]
                    out[f"{fading}_{pattern}_{flip:g}_{count}"] = {
                        "corrected_ints": "".join(f"{v:x}" for v in res.corrected_ints),
                        "crc_ok": bool(res.crc_ok),
                        "frames": [dataclasses.asdict(f) for f in res.frames],
                        "rng_after": [int(rng_state["state"]), int(rng_state["inc"])],
                    }
    return out


def seu_ragged_json() -> str:
    return json.dumps(seu_ragged_sessions(), indent=1, sort_keys=True) + "\n"


def _plan_record(plan, snr_db, ctx, fer) -> dict:
    """Every plan field plus its modelled cost; floats as float.hex."""
    rec = {
        key: value.hex() if isinstance(value, float) else value
        for key, value in dataclasses.asdict(plan).items()
    }
    rec["cost"] = alloc.system_distortion(plan, snr_db, ctx, fer).hex()
    return rec


def alloc_plans() -> dict:
    """Greedy and exhaustive plans: Rayleigh (source seed 2024) at 10/14/18 dB
    and 256/384 uses, AWGN at 10/18 dB and 320 uses, three hybrid cases with
    k capped to {8, 16}, a budget too small for any k, and an SNR at which
    greedy's analog floor is unreachable."""
    priors = calibrate_prior_vars(
        SourceSpec(kind="class_mixture", n=64, class_count=4, seed=2024)
    )
    task = build_task_model(64, 4)
    fer = alloc.default_fer_table()
    contexts = {
        channel: alloc.AllocatorContext(n=64, prior_vars=priors, task=task, channel=channel)
        for channel in ("rayleigh", "awgn")
    }
    cases = [("rayleigh", snr, total, 0.5) for snr in (10.0, 14.0, 18.0) for total in (256, 384)]
    cases += [("awgn", snr, 320, 0.5) for snr in (10.0, 18.0)]
    out = {}

    def run(name, channel, snr, total, lam):
        ctx = contexts[channel]
        budget = ChannelBudget(total, 0, 0, float(total), 0.0, 0.0)
        for search in (alloc.allocate_greedy, alloc.allocate_exhaustive):
            key = f"{name}_{search.__name__[9:]}"
            try:
                out[key] = _plan_record(search(budget, snr, lam, ctx, fer), snr, ctx, fer)
            except InfeasibleAllocationError as exc:
                out[key] = {"infeasible": str(exc)}

    for channel, snr, total, lam in cases:
        run(f"{channel}_{snr:g}dB_{total}", channel, snr, total, lam)
    with mock.patch.object(alloc, "candidate_k_grid", lambda n: [8, 16]):
        run("hybrid_k8_16_14dB_320", "rayleigh", 14.0, 320, 0.3)
        run("hybrid_k8_16_18dB_384", "rayleigh", 18.0, 384, 0.2)
        run("hybrid_awgn_k8_16_14dB_320", "awgn", 14.0, 320, 0.3)
    run("infeasible_uses_2", "rayleigh", 10.0, 2, 0.5)
    run("floor_unreachable_-30dB", "rayleigh", -30.0, 320, 0.5)
    return out


def alloc_json() -> str:
    return json.dumps(alloc_plans(), indent=1, sort_keys=True) + "\n"


def test_sweep_csv_matches_golden_bytes(tmp_path):
    path = tmp_path / "sweep.csv"
    build_sweep_csv(path, tmp_path)
    with open(GOLDEN_SWEEP, "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_sources_csv_matches_golden_bytes(tmp_path):
    path = tmp_path / "sources.csv"
    build_sources_csv(path, tmp_path)
    with open(GOLDEN_SOURCES, "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_priors_match_golden_bytes(tmp_path):
    with open(GOLDEN_PRIORS, "rb") as fh:
        assert priors_json(tmp_path).encode() == fh.read()


def test_seu_sessions_match_golden_bytes():
    with open(GOLDEN_SEU, "rb") as fh:
        assert seu_json().encode() == fh.read()


def test_seu_ragged_sessions_match_golden_bytes():
    with open(GOLDEN_SEU_RAGGED, "rb") as fh:
        assert seu_ragged_json().encode() == fh.read()


def test_alloc_plans_match_golden_bytes():
    with open(GOLDEN_ALLOC, "rb") as fh:
        assert alloc_json().encode() == fh.read()


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        build_sweep_csv(GOLDEN_SWEEP, tmp)
        build_sources_csv(GOLDEN_SOURCES, tmp)
        with open(GOLDEN_PRIORS, "w", newline="\n") as fh:
            fh.write(priors_json(tmp))
    with open(GOLDEN_SEU, "w", newline="\n") as fh:
        fh.write(seu_json())
    with open(GOLDEN_SEU_RAGGED, "w", newline="\n") as fh:
        fh.write(seu_ragged_json())
    with open(GOLDEN_ALLOC, "w", newline="\n") as fh:
        fh.write(alloc_json())
