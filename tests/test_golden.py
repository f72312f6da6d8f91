"""Byte-level pins of the determinism contract.

Both files under tests/data are rebuilt from their seeds and compared byte
for byte, so any change to a draw order, a decoder decision or the CSV
format shows up here. Regenerate them (only for an intended output change)
with `PYTHONPATH=src python tests/test_golden.py --write`.
"""

import dataclasses
import json
import os
import sys

import numpy as np

from datosc.channel import ChannelState
from datosc.harness import ExperimentConfig, rows_to_csv, run_sweep
from datosc.seu import DriftSpec, ModelParams, drift, seu_update_ints

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_SWEEP = os.path.join(DATA, "golden_sweep.csv")
GOLDEN_SEU = os.path.join(DATA, "golden_seu.json")


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


def test_sweep_csv_matches_golden_bytes(tmp_path):
    path = tmp_path / "sweep.csv"
    build_sweep_csv(path, tmp_path)
    with open(GOLDEN_SWEEP, "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_seu_sessions_match_golden_bytes():
    with open(GOLDEN_SEU, "rb") as fh:
        assert seu_json().encode() == fh.read()


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        build_sweep_csv(GOLDEN_SWEEP, tmp)
    with open(GOLDEN_SEU, "w", newline="\n") as fh:
        fh.write(seu_json())
