"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
and checks the result line: its keys, a clean outcome, and exactly the
end-to-end (or per-layer) metric names and units BENCHMARK.json declares.
It also checks that the report line names the workload's own results and
the run manifest, and that run.py exits non-zero, printing no result, in a
directory that holds the benchmark but not the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300

NAMED_RESULTS = {
    "sweep": ("trials_per_s", "graceful_ratio", "robust_ratio"),
    "sweep-mp": ("trials_per_s", "graceful_ratio", "robust_ratio"),
    "seu": ("sessions_per_s", "session_p50_ms", "session_p90_ms", "sessions",
            "seu_success_p01", "seu_false_accept_rate"),
    "alloc": ("greedy_ms_p50", "exhaustive_ms_p50", "draws", "greedy_exhaustive_ratio"),
}
MANIFEST_KEYS = ("nproc", "python", "numpy", "scipy", "git_commit", "seed",
                 "config", "workers")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny")
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{tag}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{tag}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{tag}: outcome {result} problems {report['problems']}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        errors.append(f"{tag}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(declared) - set(got))}, "
                      f"extra {sorted(set(got) - set(declared))}, "
                      f"units {[(k, got[k]) for k in got if k in declared and got[k] != declared[k]]}")
    bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
    if bad:
        errors.append(f"{tag}: non-finite metrics {bad}")
    missing = [k for k in MANIFEST_KEYS if k not in report["manifest"]]
    if trace == 0:
        missing += [k for k in NAMED_RESULTS[workload] if k not in report["results"]]
    if missing:
        errors.append(f"{tag}: report lacks {missing}")
    return errors


def check_refuses_without_sources() -> list[str]:
    with tempfile.TemporaryDirectory(dir=str(HERE / "out")) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        (bare / "perfbench").mkdir()
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        proc = run(bare, "--workload", "sweep", "--seed", "1", "--seconds", "1")
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            return ["run.py ran without the program's sources"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    errors = check_refuses_without_sources()
    for w in bench["workloads"]:
        for trace in (0, 1):
            errors += check_run(bench, w["name"], trace)
            print(f"checked {w['name']} trace={trace}", flush=True)
    for e in errors:
        print("FAIL", e)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
