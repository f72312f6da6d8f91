import contextlib
import functools
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datosc.digital as dig
import datosc.harness as H
from datosc import cli
from datosc.channel import ChannelState
from datosc.cli import parse_config_text, parse_snr_spec
from datosc.codec import analyze, selection_indices
from datosc.errors import ConfigError, ParameterError
from datosc.harness import (
    MAX_N,
    ExperimentConfig,
    SweepRow,
    calibrate_fer,
    detect_effects,
    read_sweep_csv,
    run_point,
    run_sweep,
    rows_to_csv,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_detect.json")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_snr_specs():
    assert parse_snr_spec("0:20:2") == tuple(float(s) for s in range(0, 21, 2))
    assert parse_snr_spec("1,3.5,7") == (1.0, 3.5, 7.0)
    assert parse_snr_spec("10") == (10.0,)
    with pytest.raises(ConfigError):
        parse_snr_spec("0:20")
    with pytest.raises(ConfigError):
        parse_snr_spec("0:20:-2")


def test_parse_config_text_full():
    text = """
    # experiment
    scheme=da
    channel=rayleigh
    snr=0:8:4
    trials=250
    lambda=0.4      # weight
    seed=99
    bits=3
    pattern=R23
    k=16
    """
    values = parse_config_text(text)
    assert values["scheme"] == "da"
    assert values["snr"] == (0.0, 4.0, 8.0)
    assert values["lambda"] == 0.4
    assert values["bits"] == 3


def test_unknown_key_is_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("snr_grid=0:20:2")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_text("just some words")


def _cli_sweep_configs(monkeypatch) -> list:
    """The ExperimentConfigs `datosc sweep` would run, collected in place of running them."""
    seen = []
    monkeypatch.setattr(cli, "run_sweep", lambda cfg: seen.append(cfg) or [])
    return seen


def test_config_file_with_overrides(tmp_path, monkeypatch):
    seen = _cli_sweep_configs(monkeypatch)
    path = tmp_path / "exp.cfg"
    path.write_text("scheme=analog\ntrials=300\nseed=5\n")
    cli.main(["sweep", "--config", str(path), "--trials", "500", "--lambda", "0.25"])
    (cfg,) = seen
    assert cfg.scheme == "analog"
    assert cfg.trials == 500
    assert cfg.lam == 0.25
    assert cfg.seed == 5


def _input_error(capsys, argv) -> str:
    """The stderr of a command that fails on its input: exit code 2 and one
    line, with nothing on stdout."""
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("datosc: error: ") and err.count("\n") == 1, err
    return err


def test_removed_keys_are_unknown(tmp_path, monkeypatch, capsys):
    seen = _cli_sweep_configs(monkeypatch)
    for line in ("floor_threshold=0.05", "fer_table=fer.csv", "float_noise_std=0.1"):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(line)
        path = tmp_path / "old.cfg"
        path.write_text(f"scheme=da\n{line}\n")
        assert "unknown key" in _input_error(capsys, ["sweep", "--config", str(path)])
    assert seen == []


def test_session_keys_do_not_reach_the_sweep_config(tmp_path, monkeypatch):
    seen = _cli_sweep_configs(monkeypatch)
    path = tmp_path / "exp.cfg"
    path.write_text("trials=300\np_hat=0.2\nint_bits=8\n")
    cli.main(["sweep", "--config", str(path)])
    assert seen == [ExperimentConfig(trials=300)]


def test_cli_rejects_an_empty_snr_grid(tmp_path, capsys):
    """An SNR spec with no point is a config error naming snr, from a flag
    or a file, for sweep and seu alike."""
    out = str(tmp_path / "empty.csv")
    argv = ["sweep", "--snr", "20:0:2", "--trials", "100", "--out", out]
    assert "snr" in _input_error(capsys, argv)
    assert not os.path.exists(out)
    path = tmp_path / "empty.cfg"
    path.write_text("snr=\n")
    for command in ("sweep", "seu"):
        assert "snr" in _input_error(capsys, [command, "--config", str(path), "--out", out])
    assert not os.path.exists(out)


def test_cli_flags_and_config_file_give_the_same_config(tmp_path, monkeypatch):
    seen = _cli_sweep_configs(monkeypatch)
    path = tmp_path / "exp.cfg"
    path.write_text(
        "scheme=analog\nsnr=0:8:4\ntrials=300\nlambda=0.25\nseed=5\nout=a.csv\n"
    )
    flags = ["--scheme", "analog", "--snr", "0:8:4", "--trials", "300",
             "--lambda", "0.25", "--seed", "5", "--out", "a.csv"]
    cli.main(["sweep", "--config", str(path)])
    cli.main(["sweep"] + flags)
    (tmp_path / "empty.cfg").write_text("")
    cli.main(["sweep", "--config", str(tmp_path / "empty.cfg")] + flags)  # flags over a file
    assert seen[0] == seen[1] == seen[2]
    assert seen[0].snr_grid == (0.0, 4.0, 8.0)
    assert seen[0].lam == 0.25 and seen[0].trials == 300


def test_seu_reads_snr_flag(capsys):
    mse = {}
    for snr in ("300", "-10"):
        cli.main(["seu", "--snr", snr, "--trials", "1", "--seed", "3"])
        line = capsys.readouterr().out.splitlines()[0]
        mse[snr] = float(line.split("float_mse ")[1].split(",")[0])
    assert mse["300"] < 1e-6 < mse["-10"]


def test_seu_parameters_and_channel_draw_from_separate_streams(monkeypatch, capsys):
    """Session 0's channel noise is not a rescaled copy of its float
    parameters: the two streams come from different derived seeds."""
    seen = []
    send = cli.seu_send_floats

    def record(floats, prior_vars, per_use_power, state):
        noise = np.random.default_rng()
        noise.bit_generator.state = state.rng.bit_generator.state
        seen.append((floats, noise.standard_normal(floats.size)))
        return send(floats, prior_vars, per_use_power, state)

    monkeypatch.setattr(cli, "seu_send_floats", record)
    cli.main(["seu", "--trials", "1", "--seed", "12345"])
    capsys.readouterr()
    ((floats, noise),) = seen
    assert not np.allclose(floats, noise)


def test_seu_rejects_a_session_count_below_one(tmp_path, monkeypatch, capsys):
    """--trials is passed on whenever it is set, so 0 is not read as unset."""
    monkeypatch.setattr(cli, "seu_update_sessions", lambda *a, **kw: pytest.fail("it ran"))
    path = tmp_path / "seu.cfg"
    path.write_text("trials=0\n")
    for argv in (["--trials", "0"], ["--trials", "-1"], ["--config", str(path)]):
        assert "trials" in _input_error(capsys, ["seu", "--seed", "3"] + argv)


def test_seu_rejects_an_snr_grid_of_several_points(tmp_path, monkeypatch, capsys):
    """Every session runs at one SNR, so a grid is an error, not its first point."""
    monkeypatch.setattr(cli, "seu_update_sessions", lambda *a, **kw: pytest.fail("it ran"))
    path = tmp_path / "seu.cfg"
    path.write_text("snr=12:20:4\n")
    assert "snr" in _input_error(capsys, ["seu", "--config", str(path)])


def test_cli_rejects_a_non_finite_snr(tmp_path, monkeypatch, capsys):
    """A nan or inf SNR, as a point or a range end, from a flag or a file,
    is an input error naming snr, for sweep and seu alike, and no CSV is
    written."""
    monkeypatch.setattr(cli, "seu_update_sessions", lambda *a, **kw: pytest.fail("it ran"))
    out = str(tmp_path / "nan.csv")
    for spec in ("nan", "inf", "0,nan", "nan:10:2", "0:inf:2"):
        argv = ["sweep", "--scheme", "analog", "--snr", spec, "--trials", "100", "--out", out]
        assert "snr" in _input_error(capsys, argv)
    for spec in ("nan", "inf"):
        assert "snr" in _input_error(capsys, ["seu", "--snr", spec, "--trials", "1"])
    path = tmp_path / "nan.cfg"
    path.write_text("snr=nan\n")
    for command in ("sweep", "seu"):
        assert "snr" in _input_error(capsys, [command, "--config", str(path), "--out", out])
    assert not os.path.exists(out)
    with pytest.raises(ParameterError, match="finite"):
        ExperimentConfig(snr_grid=(0.0, float("inf"))).validate()


def test_seu_rejects_a_parameter_count_below_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "seu_update_sessions", lambda *a, **kw: pytest.fail("it ran"))
    path = tmp_path / "seu.cfg"
    for key in ("float_count", "int_count"):
        for count in (0, -1):
            path.write_text(f"{key}={count}\n")
            assert key in _input_error(capsys, ["seu", "--config", str(path)])


@pytest.mark.parametrize(
    "line, message",
    [
        ("total_power=nan", "total_power must be finite and > 0"),
        ("total_power=inf", "total_power must be finite and > 0"),
        ("total_power=-5", "total_power must be finite and > 0"),
        ("total_uses=0", "total_uses must be >= 1"),
        ("seed=-1", "seed must be >= 0"),
        ("n=0\nk=1", "n must be >= 1"),
        ("total_uses=100", "uses over budget: 16+137 > 100"),
    ],
)
def test_sweep_rejects_a_budget_or_seed_it_cannot_run(line, message, tmp_path, capsys):
    """A power that is not a finite positive number, no channel use, a
    negative seed, n = 0, or a budget the da link overruns is one input
    error line, and no CSV is written."""
    out = tmp_path / "bad.csv"
    path = tmp_path / "bad.cfg"
    path.write_text(f"scheme=da\nsnr=10\ntrials=100\n{line}\nout={out}\n")
    err = _input_error(capsys, ["sweep", "--config", str(path)])
    assert message in err
    assert not out.exists()


def test_sweep_rejects_an_n_above_the_cap_before_allocating(tmp_path, capsys):
    """n = 10^6 would draw a 7.3 TiB matrix for the class means; it is one
    input error naming n, raised before the run allocates anything large."""
    out = tmp_path / "big.csv"
    path = tmp_path / "big.cfg"
    path.write_text(f"snr=10\ntrials=100\nn={10**6}\nout={out}\n")
    tracemalloc.start()
    try:
        err = _input_error(capsys, ["sweep", "--config", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"n must be <= {MAX_N}" in err
    assert peak < 10 * 2**20
    assert not out.exists()


def test_an_snr_grid_above_the_cap_is_an_input_error(tmp_path, monkeypatch, capsys):
    """A range whose step gives millions of points (3,000,001 and about
    10^12 here) is one input error naming snr, raised from the point count
    before the grid is built, from a flag or a config file; nothing runs.
    ExperimentConfig.validate applies the same cap to library callers."""
    cap = H.MAX_SNR_POINTS
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **kw: pytest.fail("it ran"))
    out = tmp_path / "grid.csv"
    path = tmp_path / "grid.cfg"
    path.write_text("snr=0:1:1e-12\n")
    for argv in (
        ["sweep", "--scheme", "analog", "--snr=0:3000:0.001", "--trials", "100", "--out", str(out)],
        ["sweep", "--scheme", "analog", "--snr=0:1:1e-12", "--trials", "100", "--out", str(out)],
        ["sweep", "--config", str(path), "--out", str(out)],
    ):
        tracemalloc.start()
        try:
            err = _input_error(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "snr" in err and f"at most {cap}" in err
        assert peak < 2 * 2**20
    assert not out.exists()
    assert len(parse_snr_spec(f"0:{cap - 1}:1")) == cap
    grid = tuple(float(s) for s in range(cap + 1))
    with pytest.raises(ParameterError, match="snr"):
        ExperimentConfig(snr_grid=grid).validate()
    ExperimentConfig(snr_grid=grid[:cap]).validate()


@pytest.mark.parametrize("snr", ["-1000000", "1000000", "-4000", "4000"])
def test_an_snr_out_of_range_is_an_input_error(snr, tmp_path, monkeypatch, capsys):
    """An SNR whose noise variance 10^(-snr/10) overflows (very low) or
    underflows to 0 (very high) is one input error naming snr, as a point,
    a range end or a list entry, for sweep and seu alike."""
    monkeypatch.setattr(cli, "seu_update_sessions", lambda *a, **kw: pytest.fail("it ran"))
    out = tmp_path / "snr.csv"
    for spec in (snr, f"{snr}:{snr}:1", f"0,{snr}"):
        argv = ["sweep", "--scheme", "analog", f"--snr={spec}", "--trials", "100", "--out", str(out)]
        assert "snr" in _input_error(capsys, argv)
    assert "snr" in _input_error(capsys, ["seu", f"--snr={snr}", "--trials", "1"])
    assert not out.exists()
    with pytest.raises(ParameterError, match="snr"):
        ExperimentConfig(snr_grid=(0.0, float(snr))).validate()
    with pytest.raises(ParameterError, match="snr"):
        ChannelState.for_block(float(snr), "awgn", 0)


def test_seu_rejects_a_negative_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "seu_update_sessions", lambda *a, **kw: pytest.fail("it ran"))
    path = tmp_path / "seu.cfg"
    path.write_text("seed=-1\n")
    for argv in (["--seed", "-1"], ["--config", str(path)]):
        assert "seed >= 0" in _input_error(capsys, ["seu", "--trials", "1"] + argv)


def test_calibrate_fer_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "fer.csv"
    argv = ["calibrate-fer", "--seed", "-1", "--trials", "10", "--out", str(out)]
    assert "seed must be >= 0" in _input_error(capsys, argv)
    assert not out.exists()


# every key sweep and seu read, but workers: a drawn worker count would start processes
_PROPERTY_KEYS = [("sweep", key) for key in cli._SWEEP_FIELDS if key != "workers"] + [
    ("seu", key) for key in cli._SEU_KEYS
]
_COUNTS = ("n", "k", "trials", "total_uses", "int_count", "float_count")
_PROPERTY_BASE = {
    "sweep": "trials=100\nsnr=10\nworkers=1\n",
    "seu": "trials=1\nsnr=10\nfloat_count=16\nint_count=64\n",
}


def _drawn_value(command, key):
    """nan, +-inf, -1, -10^6, 0, 1, a large value or text. Large stays cheap:
    10^6 for real values, 512 for counts, and 8 for seu's sessions."""
    large = "8" if (command, key) == ("seu", "trials") else "512" if key in _COUNTS else "1000000"
    return st.sampled_from(("nan", "inf", "-inf", "-1", "-1000000", "0", "1", large, "text"))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(_PROPERTY_KEYS).flatmap(
    lambda case: st.tuples(st.just(case), _drawn_value(*case))
))
def test_a_sweep_or_seu_key_runs_or_is_one_input_error_naming_it(case):
    """Any value of any one key either runs, exit 0 with finite CSV fields
    (sweep) or finite session figures (seu) and fer in [0, 1], or is an
    input error, exit 2 with one `datosc: error:` line naming the key. The
    command never raises."""
    (command, key), value = case
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a drawn out= is a path relative to it
        try:
            with open("run.cfg", "w") as fh:
                fh.write(f"{_PROPERTY_BASE[command]}{key}={value}\n")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", "run.cfg"])
            errors = [line for line in err.getvalue().splitlines() if line.startswith("datosc: error:")]
            if code == 2:
                assert len(errors) == 1, err.getvalue()
                assert re.search(rf"(?<![a-z0-9]){key}(?![a-z0-9])", errors[0]), errors[0]
                return
            assert code == 0 and not errors
            if command == "seu":
                figures = re.findall(r"(?:float_mse|overhead|reduction) ([^,\s)]+)", out.getvalue())
                assert figures and np.all(np.isfinite(np.array(figures, dtype=float)))
                return
            rows = read_sweep_csv(value if key == "out" else "sweep.csv")
            assert rows
            for row in rows:
                assert np.all(np.isfinite(astuple(row)[1:])) and 0.0 <= row.fer <= 1.0
        finally:
            os.chdir(here)


SEU_PINS = {
    "awgn": (
        "channel=awgn\nsnr=4\nfloat_count=16\nint_count=320\nint_bits=4\n"
        "pattern=R23\nflip_prob=0.06\n",
        "session 0: frames_ok True, float_mse 0.2233, overhead 0.5141, reduction 0.4859\n"
        "session 1: frames_ok False, float_mse 0.245, overhead 0.5141, reduction 0.4859\n"
        "session 2: frames_ok False, float_mse 0.1758, overhead 0.5141, reduction 0.4859\n"
        "session 3: frames_ok True, float_mse 0.1326, overhead 0.5141, reduction 0.4859\n"
        "session 4: frames_ok True, float_mse 0.1414, overhead 0.5141, reduction 0.4859\n"
        "session 5: frames_ok False, float_mse 0.14, overhead 0.5141, reduction 0.4859\n"
        "wrote session log to LOG\n"
        "update success rate: 3/6 (parity overhead 0.5141)\n",
        "0,R23,592,1,68,0\n1,R23,66,1,8,0\n"
        "0,R23,592,1,69,0\n1,R23,66,0,8,8\n"
        "0,R23,592,0,73,73\n1,R23,66,1,3,0\n"
        "0,R23,592,1,70,0\n1,R23,66,1,4,0\n"
        "0,R23,592,1,65,0\n1,R23,66,1,4,0\n"
        "0,R23,592,0,73,73\n1,R23,66,0,9,9\n",
    ),
    "rayleigh": (
        "channel=rayleigh\nsnr=8\nfloat_count=16\nint_count=300\nint_bits=8\n"
        "pattern=R34\nflip_prob=0.02\n",
        "session 0: frames_ok False, float_mse 0.289, overhead 0.3412, reduction 0.6587\n"
        "session 1: frames_ok False, float_mse 0.02535, overhead 0.3412, reduction 0.6587\n"
        "session 2: frames_ok False, float_mse 0.283, overhead 0.3412, reduction 0.6587\n"
        "session 3: frames_ok False, float_mse 0.05693, overhead 0.3412, reduction 0.6587\n"
        "session 4: frames_ok True, float_mse 0.1066, overhead 0.3412, reduction 0.6587\n"
        "session 5: frames_ok False, float_mse 0.2169, overhead 0.3412, reduction 0.6587\n"
        "wrote session log to LOG\n"
        "update success rate: 1/6 (parity overhead 0.3412)\n",
        "0,R34,395,1,22,0\n1,R34,395,1,29,0\n2,R34,29,0,3,3\n"
        "0,R34,395,1,23,0\n1,R34,395,1,26,0\n2,R34,29,0,2,2\n"
        "0,R34,395,0,21,21\n1,R34,395,0,18,18\n2,R34,29,0,2,2\n"
        "0,R34,395,1,23,0\n1,R34,395,1,24,0\n2,R34,29,0,2,2\n"
        "0,R34,395,1,22,0\n1,R34,395,1,21,0\n2,R34,29,1,1,0\n"
        "0,R34,395,1,25,0\n1,R34,395,1,28,0\n2,R34,29,0,1,1\n",
    ),
}


@pytest.mark.parametrize("channel", sorted(SEU_PINS))
def test_seu_output_is_pinned(channel, tmp_path, capsys):
    """`datosc seu`'s stdout and session log, byte for byte: six sessions of
    two (AWGN) or three (Rayleigh) frames at seed 17, some of which fail."""
    config, stdout, frames = SEU_PINS[channel]
    cfg = tmp_path / "seu.cfg"
    cfg.write_text(config)
    log = tmp_path / "session.log"
    assert cli.main(["seu", "--config", str(cfg), "--seed", "17", "--trials", "6",
                     "--out", str(log)]) == 0
    out, err = capsys.readouterr()
    assert (out.replace(str(log), "LOG"), err) == (stdout, "")
    header = b"frame_idx,pattern,parity_bits,crc_ok,bit_errors_before,bit_errors_after\n"
    assert log.read_bytes() == header + frames.encode()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["sweep", "--snr", "20:0:2"], "snr"),
        (["seu", "--trials", "0"], "trials"),
        (["seu", "--config", "seu.cfg"], "snr"),
    ],
    ids=["sweep-empty-snr", "seu-no-sessions", "seu-snr-grid"],
)
def test_command_reports_an_input_error_on_one_line(tmp_path, argv, key):
    """Run as the installed script runs it, a command that fails on its
    input prints one stderr line naming the key, no traceback, and exits
    with code 2."""
    (tmp_path / "seu.cfg").write_text("snr=0:20:10\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    script = "import sys; from datosc.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    (line,) = proc.stderr.splitlines()
    assert line.startswith("datosc: error: ") and key in line


def test_session_commands_name_config_keys_they_do_not_read(tmp_path, capsys, monkeypatch):
    """seu and calibrate-fer name every config key they ignore on one stderr
    line; what they print on stdout and write is unchanged."""
    base = tmp_path / "base.cfg"
    base.write_text("snr=0\nint_count=64\nfloat_count=8\n")
    extra = tmp_path / "extra.cfg"
    extra.write_text("k=8\nsnr=0\nmodulation=bpsk\nint_count=64\nscheme=analog\nfloat_count=8\n")
    runs = {}
    for cfg in (base, extra):
        log = tmp_path / f"{cfg.stem}.log"
        cli.main(["seu", "--config", str(cfg), "--seed", "3", "--out", str(log)])
        out, err = capsys.readouterr()
        runs[cfg.stem] = (out.replace(str(log), "LOG"), err, log.read_bytes())
    assert runs["base"][1] == ""
    assert runs["extra"][1] == (
        "datosc seu: ignoring config keys it does not read: k, modulation, scheme\n"
    )
    assert runs["extra"][0] == runs["base"][0]
    assert runs["extra"][2] == runs["base"][2]

    from datosc.allocator import FerTable

    monkeypatch.setattr(cli, "calibrate_fer", lambda **kw: FerTable())
    cli.main(["calibrate-fer", "--config", str(extra), "--out", str(tmp_path / "fer.csv")])
    assert capsys.readouterr().err == (
        "datosc calibrate-fer: ignoring config keys it does not read: "
        "k, snr, modulation, int_count, scheme, float_count\n"
    )


def test_sweep_names_session_keys_it_does_not_read(tmp_path, capsys):
    """A sweep config that sets session-only keys writes the same CSV and
    stdout as one without them, plus one stderr line naming them."""
    runs = {}
    for name, extra in (("base", ""), ("extra", "int_count=5\nflip_prob=0.3\n")):
        cfg = tmp_path / f"{name}.cfg"
        csv_path = tmp_path / f"{name}.csv"
        cfg.write_text(f"scheme=analog\nsnr=10\ntrials=100\n{extra}out={csv_path}\n")
        cli.main(["sweep", "--config", str(cfg)])
        out, err = capsys.readouterr()
        runs[name] = (out.replace(str(csv_path), "CSV"), err, csv_path.read_bytes())
    assert runs["base"][1] == ""
    assert runs["extra"][1] == (
        "datosc sweep: ignoring config keys it does not read: int_count, flip_prob\n"
    )
    assert runs["extra"][0] == runs["base"][0]
    assert runs["extra"][2] == runs["base"][2]


def test_sweep_names_source_keys_its_source_does_not_read(tmp_path, capsys):
    """rho is read by the gauss_markov source only and classes by the
    class_mixture source only. A sweep config that sets one for the other
    source writes the same CSV and stdout as one without it, plus one stderr
    line naming it."""
    for source, extra in (("class_mixture", "rho"), ("gauss_markov", "classes")):
        runs = {}
        for name, line in (("base", ""), ("extra", f"{extra}=2\n")):
            cfg = tmp_path / f"{name}.cfg"
            csv_path = tmp_path / f"{name}.csv"
            cfg.write_text(
                f"source={source}\nscheme=analog\nsnr=10\ntrials=100\n{line}out={csv_path}\n"
            )
            cli.main(["sweep", "--config", str(cfg)])
            out, err = capsys.readouterr()
            runs[name] = (out.replace(str(csv_path), "CSV"), err, csv_path.read_bytes())
        assert runs["base"][1] == ""
        assert runs["extra"][1] == f"datosc sweep: ignoring config keys it does not read: {extra}\n"
        assert runs["extra"][0] == runs["base"][0]
        assert runs["extra"][2] == runs["base"][2]


def test_sweep_names_p_a_fraction_unless_the_scheme_is_da(tmp_path, monkeypatch, capsys):
    """Only the da scheme splits the power, so under analog or digital a
    sweep names p_a_fraction among the keys it ignores and keeps the
    default. The scheme is the flag's, else the config file's, else da."""
    seen = _cli_sweep_configs(monkeypatch)
    ignored = "datosc sweep: ignoring config keys it does not read: p_a_fraction\n"
    path = tmp_path / "exp.cfg"
    for scheme_line, flags, read in (
        ("", [], True),
        ("scheme=da\n", [], True),
        ("scheme=analog\n", ["--scheme", "da"], True),
        ("scheme=digital\n", [], False),
        ("", ["--scheme", "analog"], False),
        ("scheme=da\n", ["--scheme", "digital"], False),
    ):
        path.write_text(f"{scheme_line}p_a_fraction=0.25\n")
        cli.main(["sweep", "--config", str(path), *flags])
        assert capsys.readouterr().err == ("" if read else ignored)
        assert seen.pop().p_a_fraction == (0.25 if read else ExperimentConfig.p_a_fraction)


def test_p_a_fraction_is_checked_where_it_is_read(tmp_path, capsys):
    """Under da a power share outside (0, 1) is an input error naming
    p_a_fraction, and no CSV is written. Under digital the key is ignored:
    the CSV is the one without it."""
    out = tmp_path / "da.csv"
    path = tmp_path / "da.cfg"
    for value in (0.0, 1.0, -3.0):
        path.write_text(f"scheme=da\nsnr=10\ntrials=100\np_a_fraction={value}\nout={out}\n")
        assert "p_a_fraction" in _input_error(capsys, ["sweep", "--config", str(path)])
    assert not out.exists()
    with pytest.raises(ParameterError, match="p_a_fraction"):
        ExperimentConfig(p_a_fraction=1.0).validate()
    csvs = []
    for extra in ("", "p_a_fraction=-3\n"):
        path.write_text(f"scheme=digital\nsnr=10\ntrials=100\n{extra}out={out}\n")
        assert cli.main(["sweep", "--config", str(path)]) == 0
        capsys.readouterr()
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_calibrate_fer_cli_passes_only_the_read_keys_it_was_given(tmp_path, monkeypatch):
    """calibrate-fer hands calibrate_fer the read keys a flag or the config
    file set, flags first; unread config keys never reach the call, and
    unset keys take calibrate_fer's own defaults."""
    from datosc.allocator import FerTable

    calls = []
    monkeypatch.setattr(cli, "calibrate_fer", lambda **kw: calls.append(kw) or FerTable())
    cfg = tmp_path / "cal.cfg"
    cfg.write_text("channel=awgn\ntrials=50\nseed=4\nk=8\nsnr=0:20:10\nscheme=analog\n")
    out = str(tmp_path / "fer.csv")
    cli.main(["calibrate-fer", "--config", str(cfg), "--trials", "300", "--seed", "9",
              "--out", out])
    cli.main(["calibrate-fer", "--config", str(cfg), "--out", out])
    cli.main(["calibrate-fer", "--out", out])
    assert calls == [
        {"channel": "awgn", "trials": 300, "seed": 9},
        {"channel": "awgn", "trials": 50, "seed": 4},
        {},
    ]


@pytest.mark.parametrize(
    "flags", [["--scheme", "da"], ["--snr", "10"], ["--lambda", "0.5"]]
)
def test_calibrate_fer_rejects_flags_it_does_not_read(flags, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "calibrate_fer", lambda **kw: pytest.fail("it ran"))
    with pytest.raises(SystemExit):
        cli.main(["calibrate-fer", "--out", str(tmp_path / "fer.csv")] + flags)


def test_image_source_needs_n_64(tmp_path):
    """An image source cuts 8x8 tiles; any other n is rejected by name
    before calibration rather than by a prior-shape error."""
    with pytest.raises(ParameterError, match="8x8.*n=64"):
        ExperimentConfig(source_kind="image_blocks", image="tiles.pgm", n=32, k=16).validate()


def test_validation_rules():
    with pytest.raises(ParameterError, match="trials"):
        ExperimentConfig(trials=99).validate()
    with pytest.raises(ParameterError, match="increasing"):
        ExperimentConfig(snr_grid=(0.0, 0.0, 2.0)).validate()
    with pytest.raises(ParameterError, match="scheme"):
        ExperimentConfig(scheme="hybrid").validate()
    with pytest.raises(ParameterError, match="lambda"):
        ExperimentConfig(lam=1.0).validate()
    with pytest.raises(ParameterError, match="image"):
        ExperimentConfig(source_kind="gauss_markov", image="tiles.pgm").validate()


@pytest.mark.parametrize("scheme", ["analog", "digital", "da"])
def test_unknown_modulation_is_rejected_for_every_scheme(scheme):
    """The analog scheme modulates nothing, yet a misspelt modulation is an
    error there too, as an unknown pattern is."""
    with pytest.raises(ParameterError, match="qpks"):
        H.build_link(ExperimentConfig(scheme=scheme, modulation="qpks"))


# ---------------------------------------------------------------------------
# run_point behavior
# ---------------------------------------------------------------------------

def test_noiseless_hybrid_hits_quantizer_floor():
    cfg = ExperimentConfig(trials=100, snr_grid=(300.0,), scheme="da")
    row = run_point(cfg, 300.0)
    from datosc.digital import QuantizerSpec
    from datosc.codec import calibrate_prior_vars

    prior = calibrate_prior_vars(cfg.source_spec())
    floor = float(np.mean(QuantizerSpec.from_prior_vars(prior, 4).deltas ** 2 / 12))
    assert row.fer == 0.0
    assert row.data_mse <= floor + 1e-6


def test_analog_saturates_at_discarded_energy():
    cfg = ExperimentConfig(trials=500, snr_grid=(60.0,), scheme="analog")
    row = run_point(cfg, 60.0)
    from datosc.codec import calibrate_prior_vars

    setup = H.build_link(cfg)
    samples = H.draw_trials(cfg, setup, 60.0, 0, 0, cfg.trials).samples
    prior = calibrate_prior_vars(cfg.source_spec())
    kept = selection_indices(64, cfg.k, prior, setup.task)
    mask = np.ones(64, dtype=bool)
    mask[kept] = False
    floors = np.sum(analyze(samples)[:, mask] ** 2, axis=1) / 64
    assert abs(row.data_mse / np.mean(floors) - 1.0) < 0.01


def test_off_grid_snr_needs_a_point_index():
    """An SNR off the grid has no point index to seed its streams from."""
    cfg = ExperimentConfig(trials=100, snr_grid=(0.0, 10.0), scheme="analog")
    with pytest.raises(ParameterError, match="grid"):
        run_point(cfg, 5.0)


def test_infeasible_plan_fails_before_trials():
    cfg = ExperimentConfig(trials=100, total_uses=10, scheme="da")
    with pytest.raises(Exception):
        run_point(cfg, 10.0)


def test_gauss_markov_source_has_no_task_accuracy():
    cfg = ExperimentConfig(
        trials=100, snr_grid=(10.0,), scheme="analog", source_kind="gauss_markov",
        rho=0.5,
    )
    row = run_point(cfg, 10.0)
    assert np.isnan(row.task_accuracy)


def test_stderr_scales_inverse_sqrt_trials():
    base = ExperimentConfig(scheme="da", snr_grid=(10.0,))
    se1 = run_point(replace(base, trials=400), 10.0).data_mse_se
    se2 = run_point(replace(base, trials=1600), 10.0).data_mse_se
    assert abs(se1 / se2 / 2.0 - 1.0) < 0.2


# ---------------------------------------------------------------------------
# sweeps and CSV
# ---------------------------------------------------------------------------

def test_empty_grid_writes_header_only(tmp_path):
    cfg = ExperimentConfig(snr_grid=(), out=str(tmp_path / "empty.csv"))
    rows = run_sweep(cfg)
    assert rows == []
    content = open(cfg.out).read()
    assert content == ",".join(H.SWEEP_HEADER) + "\n"


def test_single_point_sweep_equals_run_point(tmp_path):
    cfg = ExperimentConfig(
        trials=150, snr_grid=(10.0,), scheme="analog", out=str(tmp_path / "one.csv")
    )
    rows = run_sweep(cfg)
    point = run_point(cfg, 10.0, point_index=0)
    assert rows[0] == point


def test_chunk_bounds_cap_trials_per_chunk():
    bounds = H.chunk_bounds(10**6, 1)
    sizes = [b - a for a, b in bounds]
    assert len(bounds) == -(-(10**6) // H.MAX_CHUNK_TRIALS)
    assert bounds[0][0] == 0 and bounds[-1][1] == 10**6
    assert all(a1 == b0 for (_, b0), (a1, _) in zip(bounds, bounds[1:]))
    assert max(sizes) <= H.MAX_CHUNK_TRIALS and max(sizes) - min(sizes) <= 1
    for workers in (1, 2, 3):  # default points keep one chunk per worker
        assert len(H.chunk_bounds(2000, workers)) == workers


# tracemalloc peak of one 2,000-trial run_chunk at 10 dB, in MiB. Measured
# 4.0, 15.1 and 15.8 on the default link; 6.7, 15.0 and 16.1 while refine and
# the metrics built whole-chunk temporaries and the last block's draws lived
# through Viterbi; 8.0, 26.1 and 26.4 while a chunk drew its noise and ran
# its stages up to Viterbi over all its trials at once, and 8.0, 54.3 and
# 46.4 while the digital stages built (trials x wire bits) float64 and
# complex temporaries.
CHUNK_PEAK_MIB = {"analog": 6, "digital": 20, "da": 19}


@pytest.mark.parametrize("scheme", H.SCHEMES)
def test_a_chunk_working_set_stays_bounded(scheme):
    cfg = ExperimentConfig(scheme=scheme, seed=7)
    setup = H.build_link(cfg)
    H.run_chunk(cfg, setup, 10.0, 5, 0, 2)  # fills the module caches first
    tracemalloc.start()
    try:
        H.run_chunk(cfg, setup, 10.0, 5, 0, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < CHUNK_PEAK_MIB[scheme] * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_a_chunk_draws_its_channel_in_blocks(monkeypatch):
    """run_chunk draws gains and noise for at most dig.ROW_BLOCK trials at a
    time, the draws tiling its trials in ascending order: no draw spans the
    chunk. It hashes the chunk's source and channel stream states once, and
    each draw gets its block's rows of them."""
    calls, hashed = [], []
    real, real_states = H.draw_blocks, H.channel_states

    def counting(snr_db, fading, seed, t0, t1, uses, states=None):
        calls.append((t0, t1))
        assert np.array_equal(states, real_states(seed, t0, t1))
        return real(snr_db, fading, seed, t0, t1, uses, states)

    def hashing(real_states):
        def wrapper(seed, t0, t1):
            hashed.append((real_states.__name__, t0, t1))
            return real_states(seed, t0, t1)

        return wrapper

    monkeypatch.setattr(H, "draw_blocks", counting)
    for name in ("channel_states", "source_states"):
        monkeypatch.setattr(H, name, hashing(getattr(H, name)))
    for scheme in H.SCHEMES:
        cfg = ExperimentConfig(scheme=scheme, seed=9)
        setup = H.build_link(cfg)
        calls.clear()
        hashed.clear()
        H.run_chunk(cfg, setup, 10.0, 0, 100, 2100)
        assert all(0 < b - a <= dig.ROW_BLOCK for a, b in calls), (scheme, calls)
        assert [a for a, _ in calls] == [100] + [b for _, b in calls[:-1]], scheme
        assert calls[-1][1] == 2100, scheme
        assert sorted(hashed) == [("channel_states", 100, 2100), ("source_states", 100, 2100)]


def _snapshot(arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


def test_stages_leave_their_inputs_unchanged():
    """The stages work in place only on buffers they allocate: each input
    array, and every array of the chunk's TrialDraws, keeps its bytes;
    receive writes only into the time-major arrays it is given. The decoders
    also get transposes of time-major arrays, which they read in place."""
    for scheme, pattern in (("digital", "R12"), ("da", "R12"), ("da", "R34")):
        cfg = ExperimentConfig(scheme=scheme, pattern=pattern, seed=3)
        setup = H.build_link(cfg)
        draws = H.draw_trials(cfg, setup, 6.0, 2, 0, dig.ROW_BLOCK + 45)
        full = analyze(draws.samples)
        calls = []
        side = None
        if scheme == "da":
            est, err = H.analog_stage(setup, full, draws)
            side = dig.side_info_llrs(est, err, setup.quant)
            calls = [
                (lambda: dig.side_info_llrs(est, err, setup.quant), [est, err]),
                (lambda: H.analog_stage(setup, full, draws), [full]),
            ]
        bits = dig.quantize(full, setup.quant)
        systematic, parity = dig.dsc_encode(bits, pattern)
        h = draws.h[:, None]
        y = h * dig.modulate(parity, "qpsk", 2.0) + draws.w_d[:, : -(-parity.shape[1] // 2)]
        llrs = dig.demodulate(y, h, draws.noise_var, "qpsk", 2.0, parity.shape[1])
        sys_llrs = (1.0 - 2.0 * systematic) * 3.0
        spread = np.zeros(sys_llrs.shape)
        spread[:, dig.puncture_keep_indices(bits.shape[1], pattern)] = llrs
        sys_tm, llrs_tm, spread_tm = (np.ascontiguousarray(a.T).T for a in (sys_llrs, llrs, spread))
        steps = H._steps(cfg, len(full))  # receive's outputs
        calls += [
            (lambda: dig.modulate(parity, "qpsk", 2.0), [parity]),
            (lambda: dig.modulate(bits.astype(bool), "bpsk"), [bits]),
            (lambda: dig.demodulate(y, h, draws.noise_var, "qpsk", 2.0, parity.shape[1]), [y, h]),
            (lambda: dig.demodulate(y, draws.h[0], draws.noise_var, "bpsk"), [y, draws.h]),
            (lambda: dig.dsc_decode(sys_llrs, llrs, pattern), [sys_llrs, llrs]),
            (lambda: dig.dsc_decode(sys_tm, llrs_tm, pattern), [sys_tm, llrs_tm]),
            (lambda: dig.viterbi_decode(sys_llrs, spread), [sys_llrs, spread]),
            (lambda: dig.viterbi_decode(sys_tm, spread_tm), [sys_tm, spread_tm]),
            (lambda: H.receive(cfg, setup, full, draws, side, *steps), [full, side]),
        ]
        drawn = [getattr(draws, f.name) for f in fields(draws)][:-1]  # the arrays
        for call, inputs in calls:
            inputs = [a for a in inputs if a is not None] + drawn
            before = _snapshot(inputs)
            call()
            assert _snapshot(inputs) == before, (scheme, pattern, call)


def test_the_row_block_size_changes_no_value(monkeypatch, tmp_path):
    """run_chunk's blocked stages (draws, analysis, the analog stage, side
    information and the digital modem) give every trial the same bits with
    blocks of 7 rows as with the whole chunk in one block. The chunk starts
    past trial 0 and is no multiple of 7 long, and an image source's 6 tiles
    wrap around many times inside it."""
    image = tmp_path / "tiles.pgm"
    rng = np.random.default_rng(0x7113)
    image.write_bytes(b"P5\n24 16\n255\n" + rng.integers(0, 256, 24 * 16, dtype=np.uint8).tobytes())
    for scheme in H.SCHEMES:
        for channel in H.CHANNELS:
            for source, path in (("class_mixture", None), ("image_blocks", str(image))):
                cfg = ExperimentConfig(
                    scheme=scheme, channel=channel, source_kind=source, image=path, seed=5
                )
                setup = H.build_link(cfg)
                runs = []
                for rows in (10**6, 7):
                    monkeypatch.setattr(dig, "ROW_BLOCK", rows)
                    runs.append(_snapshot(H.run_chunk(cfg, setup, 8.0, 1, 13, 312)))
                monkeypatch.undo()
                assert runs[0] == runs[1], (scheme, channel, source)


def test_chunked_serial_point_writes_the_same_bytes(tmp_path, monkeypatch):
    base = ExperimentConfig(trials=120, snr_grid=(4.0, 12.0), scheme="da")
    whole = replace(base, out=str(tmp_path / "whole.csv"))
    run_sweep(whole)
    monkeypatch.setattr(H, "MAX_CHUNK_TRIALS", 40)
    assert H.chunk_bounds(120, 1) == [(0, 40), (40, 80), (80, 120)]
    chunked = replace(base, out=str(tmp_path / "chunked.csv"))
    run_sweep(chunked)
    assert open(whole.out, "rb").read() == open(chunked.out, "rb").read()


def test_csv_bytes_identical_across_worker_counts(tmp_path):
    base = ExperimentConfig(trials=120, snr_grid=(4.0, 12.0), scheme="da")
    c1 = replace(base, workers=1, out=str(tmp_path / "w1.csv"))
    c3 = replace(base, workers=3, out=str(tmp_path / "w3.csv"))
    run_sweep(c1)
    run_sweep(c3)
    assert open(c1.out, "rb").read() == open(c3.out, "rb").read()


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_csv_bytes_identical_under_each_start_method(tmp_path, monkeypatch, method):
    """Workers that start without a copy of the parent's memory (forkserver
    is Python 3.14's default on Linux) write the serial bytes too."""
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(
        H, "ProcessPoolExecutor", functools.partial(H.ProcessPoolExecutor, mp_context=context)
    )
    base = ExperimentConfig(trials=120, snr_grid=(4.0, 12.0), scheme="da")
    serial = replace(base, workers=1, out=str(tmp_path / "serial.csv"))
    pooled = replace(base, workers=2, out=str(tmp_path / f"{method}.csv"))
    run_sweep(serial)
    run_sweep(pooled)
    assert open(serial.out, "rb").read() == open(pooled.out, "rb").read()
    assert multiprocessing.active_children() == []


def test_sweep_runs_every_point_through_one_pool(tmp_path, monkeypatch):
    pools = []

    class CountingPool(H.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(H, "ProcessPoolExecutor", CountingPool)
    cfg = ExperimentConfig(
        trials=120, snr_grid=(0.0, 6.0, 12.0), scheme="da", workers=2,
        out=str(tmp_path / "pool.csv"),
    )
    assert len(run_sweep(cfg)) == 3
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


def test_pooled_chunks_of_several_points_write_the_serial_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(H, "MAX_CHUNK_TRIALS", 40)
    assert len(H.chunk_bounds(120, 2)) == 3  # more chunks than workers, per point
    for scheme in ("digital", "da"):
        base = ExperimentConfig(trials=120, snr_grid=(2.0, 8.0, 14.0), scheme=scheme)
        serial = replace(base, workers=1, out=str(tmp_path / f"{scheme}-1.csv"))
        pooled = replace(base, workers=2, out=str(tmp_path / f"{scheme}-2.csv"))
        run_sweep(serial)
        run_sweep(pooled)
        assert open(serial.out, "rb").read() == open(pooled.out, "rb").read()


_real_run_chunk = H.run_chunk


def _chunk_failing_at_one_point(config, setup, snr_db, point_index, t0, t1):
    """run_chunk for pool workers: marks each call in a file under
    config.out's directory and raises at point 1."""
    marks = os.path.dirname(config.out)
    open(os.path.join(marks, f"ran-{point_index}-{t0}"), "w").close()
    if point_index == 1:
        raise ValueError(f"chunk {t0} of point {point_index} failed")
    time.sleep(0.05)
    return _real_run_chunk(config, setup, snr_db, point_index, t0, t1)


def test_failing_chunk_stops_the_sweep_and_its_workers(tmp_path, monkeypatch):
    monkeypatch.setattr(H, "MAX_CHUNK_TRIALS", 40)
    monkeypatch.setattr(H, "run_chunk", _chunk_failing_at_one_point)
    cfg = ExperimentConfig(
        trials=120, snr_grid=tuple(float(s) for s in range(0, 40, 2)), scheme="analog",
        workers=2, out=str(tmp_path / "never.csv"),
    )
    with pytest.raises(ValueError, match="of point 1 failed"):
        run_sweep(cfg)
    assert multiprocessing.active_children() == []
    assert not os.path.exists(cfg.out)
    ran = [f for f in os.listdir(tmp_path) if f.startswith("ran-")]
    # the queued chunks were cancelled: at most a pool's in-flight window ran
    assert len(ran) < len(cfg.snr_grid) * 3 // 2


def test_cli_alone_prints_each_sweep_point(tmp_path, capsys):
    """run_sweep reports to the datosc logger, which only the CLI prints."""
    cfg = ExperimentConfig(
        trials=100, snr_grid=(10.0,), scheme="analog", out=str(tmp_path / "a.csv")
    )
    (row,) = run_sweep(cfg)
    assert capsys.readouterr().out == ""
    cli.main(["sweep", "--scheme", "analog", "--snr", "10", "--trials", "100",
              "--out", cfg.out])
    assert capsys.readouterr().out == (
        f"[analog] SNR  10.0 dB  data_mse {row.data_mse:.4g}"
        f"  feature_mse {row.feature_mse:.4g}  fer {row.fer:.3f}\n"
        f"wrote 1 rows to {cfg.out}\n"
    )
    run_sweep(cfg)
    assert capsys.readouterr().out == ""


def test_sweep_rerun_reproduces_bytes(tmp_path):
    cfg = ExperimentConfig(
        trials=120, snr_grid=(8.0,), scheme="digital", out=str(tmp_path / "a.csv")
    )
    run_sweep(cfg)
    first = open(cfg.out, "rb").read()
    run_sweep(cfg)
    assert open(cfg.out, "rb").read() == first


def test_csv_nine_significant_digits(tmp_path):
    cfg = ExperimentConfig(
        trials=150, snr_grid=(6.0,), scheme="da", out=str(tmp_path / "fmt.csv")
    )
    rows = run_sweep(cfg)
    line = open(cfg.out).read().splitlines()[1].split(",")
    assert line[3] == format(rows[0].feature_mse, ".9g")
    assert line[5] == format(rows[0].data_mse, ".9g")
    parsed = read_sweep_csv(cfg.out)
    assert parsed[0].data_mse == pytest.approx(rows[0].data_mse, rel=1e-8)
    counts = (parsed[0].trials, parsed[0].n_analog, parsed[0].n_digital, parsed[0].seed)
    assert counts == (150, rows[0].n_analog, rows[0].n_digital, cfg.seed)
    assert all(type(c) is int for c in counts)


# ---------------------------------------------------------------------------
# effect detectors
# ---------------------------------------------------------------------------

def _rows(scheme, pairs):
    return [
        SweepRow(scheme=scheme, snr_db=float(s), trials=100, feature_mse=0.0,
                 feature_mse_se=0.0, data_mse=m, data_mse_se=0.0, system_distortion=0.0,
                 fer=0.0, task_accuracy=float("nan"), n_analog=0, n_digital=0,
                 p_a_fraction=0.5, seed=0)
        for s, m in pairs
    ]


def test_flat_curve_has_saturation_no_cliff():
    rows = _rows("analog", [(s, 0.5 + 0.001 * (20 - s)) for s in range(0, 22, 2)])
    report = detect_effects(rows)
    rec = report["schemes"]["analog"]
    assert rec["cliff_snr"] is None
    assert rec["saturation_floor"] == pytest.approx(0.5)


def test_synthetic_step_cliff_at_8():
    pairs = [(s, 1.0 if s <= 6 else 0.1) for s in range(0, 22, 2)]
    report = detect_effects(_rows("digital", pairs))
    assert report["schemes"]["digital"]["cliff_snr"] == 8.0


def test_graceful_flag_compares_top_point():
    rows = _rows("analog", [(18, 0.5), (20, 0.5)]) + _rows("da", [(18, 0.2), (20, 0.2)])
    assert detect_effects(rows)["graceful"] is True
    rows = _rows("analog", [(20, 0.5)]) + _rows("da", [(20, 0.45)])
    assert detect_effects(rows)["graceful"] is False


@pytest.fixture(scope="module")
def detector_rows(tmp_path_factory):
    """The pinned small sweep of the golden report: three schemes, 200
    trials, 0-20 dB in 4 dB steps."""
    scratch = tmp_path_factory.mktemp("detector")
    rows = []
    for scheme in ("analog", "digital", "da"):
        cfg = ExperimentConfig(
            trials=200, scheme=scheme, snr_grid=tuple(float(s) for s in range(0, 21, 4)),
            out=str(scratch / f"{scheme}.csv"),
        )
        rows.extend(run_sweep(cfg))
    return rows


def _golden_report() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_detector_golden_report(detector_rows):
    """Pinned small sweep reproduces the recorded golden report exactly."""
    assert detect_effects(detector_rows) == _golden_report()


def test_cli_detect_prints_or_writes_the_report(detector_rows, tmp_path, capsys):
    """`datosc detect` reports on a sweep CSV. The CSV keeps 9 significant
    digits, so its saturation floor matches the golden one only closely."""
    sweep = str(tmp_path / "sweep.csv")
    rows_to_csv(detector_rows, sweep)
    text = json.dumps(detect_effects(read_sweep_csv(sweep)), indent=2, sort_keys=True)
    assert cli.main(["detect", sweep]) == 0
    assert capsys.readouterr().out == text + "\n"
    out = tmp_path / "report.json"
    assert cli.main(["detect", sweep, "--out", str(out)]) == 0
    assert out.read_text() == text + "\n"

    report, golden = json.loads(text), _golden_report()
    assert report["graceful"] == golden["graceful"]
    assert report["schemes"].keys() == golden["schemes"].keys()
    for scheme, want in golden["schemes"].items():
        got = report["schemes"][scheme]
        assert got["cliff_snr"] == want["cliff_snr"]
        if want["saturation_floor"] is None:
            assert got["saturation_floor"] is None
        else:
            assert got["saturation_floor"] == pytest.approx(want["saturation_floor"], rel=1e-8)


# ---------------------------------------------------------------------------
# FER calibration
# ---------------------------------------------------------------------------

def test_calibrate_fer_matches_a_sweep_point_at_equal_powers():
    kwargs = dict(channel="rayleigh", patterns=("R12",), bits_grid=(2,),
                  snr_grid=(10.0,), trials=100, seed=77)
    table = calibrate_fer(**kwargs)
    again = calibrate_fer(**kwargs)
    _, p_f, trials = table.raw("R12", 2)
    assert trials == 100 and len(p_f) == 1
    assert 0.0 <= p_f[0] <= 1.0
    assert np.array_equal(p_f, again.raw("R12", 2)[1])

    # the first cell's sweep point, with per-use power 1.0 on both partitions
    cfg = ExperimentConfig(scheme="da", channel="rayleigh", snr_grid=(10.0,), trials=100,
                           seed=H.derive_seed(77, 0), pattern="R12", quant_bits=2,
                           total_uses=10**6)
    n_a, n_d = H.build_link(cfg).n_analog, H.build_link(cfg).n_digital
    cfg = replace(cfg, total_power=float(n_a + n_d), p_a_fraction=n_a / (n_a + n_d))
    setup = H.build_link(cfg)
    assert (setup.power_analog, setup.power_digital) == (n_a, n_d)
    assert run_point(cfg, 10.0, 0).fer == p_f[0]
