"""The library's public surface: every public name, the public methods of
public classes included, has a caller or a README entry, and each input
check raises its own error."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from datosc.allocator import FerTable
from datosc.analog import analog_gains
from datosc.channel import ChannelBudget, ChannelState
from datosc.cli import parse_snr_spec
from datosc.digital import (
    QuantizerSpec,
    bits_to_cells,
    max_log_map,
    modulate,
    turbo_decode,
    viterbi_decode,
)
from datosc.errors import AllocationError, ConfigError, FormatError, ParameterError
from datosc.harness import ExperimentConfig, build_link, read_sweep_csv
from datosc.seu import seu_update_sessions
from datosc.sources import SourceSpec, class_means, load_pgm

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "datosc"


def _references(paths) -> set[str]:
    """Names read through a Name or Attribute node in the files at `paths`;
    docstrings and comments name nothing here."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _readme_table_names() -> set[str]:
    """Identifiers inside the backquoted spans of the README's library table."""
    names = set()
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("| `datosc."):
            for span in re.findall(r"`([^`]*)`", line):
                names.update(re.findall(r"[A-Za-z_]\w*", span))
    return names


def _public_defs(path):
    """(qualified name, name) of each public function and class of a module,
    and of each public method of its public classes."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def test_every_public_name_has_a_caller_or_a_readme_entry():
    modules = sorted(SRC.glob("*.py"))
    referenced = _references(modules + sorted((ROOT / "perfbench").glob("*.py")))
    documented = _readme_table_names()
    orphans = [
        qualified
        for path in modules
        for qualified, name in _public_defs(path)
        if name not in referenced and name not in documented
    ]
    assert not orphans, f"public names with no caller and no README entry: {orphans}"


def _file(tmp_path, data: bytes) -> str:
    path = tmp_path / "input"
    path.write_bytes(data)
    return str(path)


def _session(updated: int, outdated: int):
    ints = np.zeros(max(updated, outdated), dtype=np.int64)
    return ints[:updated], ints[:outdated], ChannelState.awgn(10.0)


# (call of a tmp_path, error type, fragment of its message)
INPUT_CHECKS = {
    "fer_table_header": (lambda tmp: FerTable.from_csv_text("a,b\n"), ParameterError,
                         "unexpected FER table header"),
    "gains_prior": (lambda tmp: analog_gains(np.array([1.0, 0.0]), 1.0), ParameterError,
                    "prior variances must be positive"),
    "gains_power": (lambda tmp: analog_gains(np.ones(2), 0.0), ParameterError,
                    "per-use power must be positive"),
    "budget_power": (lambda tmp: ChannelBudget(10, 5, 5, 1.0, -0.5, 0.5).validate(),
                     AllocationError, "powers must be non-negative"),
    "snr_step": (lambda tmp: parse_snr_spec("0:10:nan"), ConfigError, "must have a finite step"),
    "quantizer_depth": (lambda tmp: QuantizerSpec(bits=9, clips=np.ones(2)), ParameterError,
                        "quantizer depth must be 1..8"),
    "quantizer_clip": (lambda tmp: QuantizerSpec(bits=4, clips=np.array([1.0, 0.0])),
                       ParameterError, "clip ranges must be positive"),
    "bitstream_length": (lambda tmp: bits_to_cells(np.zeros(7, dtype=np.uint8), 4),
                         ParameterError, "not a multiple of the depth"),
    "modulation": (lambda tmp: modulate(np.zeros(4, dtype=np.uint8), "16qam"), ParameterError,
                   "unknown modulation"),
    "viterbi_shapes": (lambda tmp: viterbi_decode(np.zeros((2, 8)), np.zeros((2, 9))),
                       ParameterError, "shapes differ"),
    "viterbi_tail": (lambda tmp: viterbi_decode(np.zeros((1, 1)), np.zeros((1, 1))),
                     ParameterError, "trellis shorter than its tail"),
    "turbo_frames": (lambda tmp: turbo_decode([np.zeros(4)] * 2, [np.zeros(4)], "R12"),
                     ParameterError, "2 frames of side LLRs but 1 of parity"),
    "config_workers": (lambda tmp: ExperimentConfig(workers=0).validate(), ParameterError,
                       "workers must be >= 1"),
    "image_path": (lambda tmp: build_link(ExperimentConfig(source_kind="image_blocks")),
                   ConfigError, "needs an image path"),
    "sweep_header": (lambda tmp: read_sweep_csv(_file(tmp, b"scheme,snr_db\n")), ParameterError,
                     "unexpected sweep header"),
    "seu_p_hat": (lambda tmp: seu_update_sessions([_session(4, 4)], 4, "R12", 0.5),
                  ParameterError, "assumed drift rate"),
    "seu_counts": (lambda tmp: seu_update_sessions([_session(4, 3)], 4, "R12", 0.1),
                   ParameterError, "counts differ"),
    "source_n": (lambda tmp: SourceSpec(n=0).validate(), ParameterError, "block length must be >= 1"),
    "source_classes": (lambda tmp: SourceSpec(kind="class_mixture", class_count=0).validate(),
                       ParameterError, "class_count must be >= 1"),
    "class_means": (lambda tmp: class_means(2, 3), ParameterError,
                    "cannot build 3 orthogonal class means"),
    "pgm_truncated": (lambda tmp: load_pgm(_file(tmp, b"P5\n8 8")), FormatError,
                      "truncated PGM header"),
    "pgm_field": (lambda tmp: load_pgm(_file(tmp, b"P5\n8 x 255\n")), FormatError,
                  "malformed PGM header"),
    "pgm_dimension": (lambda tmp: load_pgm(_file(tmp, b"P5\n0 8 255\n")), FormatError,
                      "bad PGM dimensions 0x8"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_check_raises_its_error(case, tmp_path):
    call, error, fragment = INPUT_CHECKS[case]
    with pytest.raises(error, match=re.escape(fragment)):
        call(tmp_path)


def test_max_log_map_of_no_frames_is_empty():
    assert max_log_map(np.zeros((0, 5)), np.zeros((0, 9))).shape == (0, 5)
