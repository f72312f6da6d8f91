"""Outside-in benchmark of datosc.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

The program is imported from the `src/` beside this directory, so the
script runs from any working directory of a source checkout. Workloads:
sweep, sweep-mp, seu, alloc (see workloads.py and METRICS.md). The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The line before it is the run report: manifest, the
workload's named results and any failed checks. The same report, plus the
span file of a traced run, goes to perfbench/out/.

--trace 0 measures the end-to-end metrics untraced, then times several
fresh-process set-ups. --trace 1 runs the workload with every public datosc
function wrapped (tracing.py), reports per-layer metrics per unit of work,
then replays the same units untraced to give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120

# One BLAS/OpenMP thread per process: on a small shared host a second thread
# stalls whenever the other core is busy, which swings run times by tens of
# percent. sweep-mp's parallelism comes from its worker processes.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    if not (SRC / "datosc" / "__init__.py").is_file():
        fail(f"no datosc sources under {SRC}; run from a datosc checkout")
    sys.path.insert(0, str(SRC))
    import datosc  # noqa: E402

    if Path(datosc.__file__).resolve().parent != (SRC / "datosc").resolve():
        fail(f"imported datosc from {datosc.__file__}, not from {SRC}")
    for mod in ("sources", "codec", "channel", "analog", "digital",
                "allocator", "seu", "harness", "errors"):
        __import__(f"datosc.{mod}")
    return datosc


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def manifest(args, workload, workers: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "workers": workers,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "env": PINNED_ENV,
        "git_commit": git_commit(),
        "config": workload.config(),
    }


def setup_times(count: int) -> list[float]:
    """Seconds from process start to ready for fresh set-up processes."""
    times = []
    for _ in range(count):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(ROOT),
        )
        try:
            line = proc.stdout.readline().strip()
            t1 = perf_counter()
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(t1 - t0)
    return times


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process, plus `workers` times the largest
    child's peak when the workload ran a process pool (shared pages are
    counted in each process, so this bounds the pool's peak from above)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def drive(workload, seconds: float, min_units: int, units=None) -> int:
    """Run units until `seconds` have passed and at least `min_units` ran,
    or exactly `units` units when given. Returns the number run."""
    done = 0
    t0 = perf_counter()
    while True:
        if units is not None:
            if done >= units:
                break
        elif done >= min_units and perf_counter() - t0 >= seconds:
            break
        workload.unit()
        done += 1
    return done


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, datosc, workload, workers):
    workload.prepare()
    workload.reset_timing()
    units = drive(workload, args.seconds, workload.min_units)
    rss = peak_rss_mb(workers)
    report = workload.report()
    setups = setup_times(1 if args.size == "tiny" else SETUP_PROBES)
    report.update(units=units, busy_s=workload.busy_s, setup_s_samples=setups,
                  peak_rss_mb=rss)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "throughput_per_s": metric(ratio(workload.work, workload.busy_s), "1/s"),
        "outcome_ratio": metric(report["outcome_ratio"], "ratio"),
    }
    return metrics, report, None


# Per-layer metrics: (metric name, span or counter, field). Times and counts
# are per unit of work, except the set-up layers, which come from the cold
# prepare phase of the process.
PER_UNIT = (
    ("sources.gen_block.calls", "sources.gen_block", "calls"),
    ("sources.gen_block.self_ms", "sources.gen_block", "self_ms"),
    ("sources.gen_block.total_ms", "sources.gen_block", "total_ms"),
    ("channel.for_block.calls", "channel.for_block", "calls"),
    ("channel.for_block.self_ms", "channel.for_block", "self_ms"),
    ("harness.run_chunk.calls", "harness.run_chunk", "calls"),
    ("harness.run_chunk.self_ms", "harness.run_chunk", "self_ms"),
    ("codec.analyze.self_ms", "codec.analyze", "self_ms"),
    ("codec.synthesize_full.self_ms", "codec.synthesize_full", "self_ms"),
    ("codec.classify.self_ms", "codec.classify", "self_ms"),
    ("analog.mmse_estimate.self_ms", "analog.mmse_estimate", "self_ms"),
    ("digital.side_info_llrs.self_ms", "digital.side_info_llrs", "self_ms"),
    ("digital.viterbi_decode.self_ms", "digital.viterbi_decode", "self_ms"),
    ("digital.viterbi_decode_list.calls", "digital.viterbi_decode_list", "calls"),
    ("digital.viterbi_decode_list.self_ms", "digital.viterbi_decode_list", "self_ms"),
    ("digital.crc16.calls", "digital.crc16", "calls"),
    ("digital.crc16.self_ms", "digital.crc16", "self_ms"),
    ("digital.rsc_encode.self_ms", "digital.rsc_encode", "self_ms"),
    ("digital.modulate.self_ms", "digital.modulate", "self_ms"),
    ("digital.demodulate.self_ms", "digital.demodulate", "self_ms"),
    ("digital.refine.self_ms", "digital.refine", "self_ms"),
    ("seu.seu_update_ints.self_ms", "seu.seu_update_ints", "self_ms"),
    ("analog.mmse_error_vars.calls", "analog.mmse_error_vars", "calls"),
    ("analog.mmse_error_vars.self_ms", "analog.mmse_error_vars", "self_ms"),
    ("analog.analog_gains.calls", "analog.analog_gains", "calls"),
    ("allocator.system_distortion.calls", "allocator.system_distortion", "calls"),
    ("allocator.system_distortion.self_ms", "allocator.system_distortion", "self_ms"),
    ("allocator.fer_lookup.calls", "allocator.fer_lookup", "calls"),
)
PER_UNIT_COUNTERS = (
    ("digital.viterbi_decode.frames", "frames"),
    ("digital.viterbi_decode.steps", "steps"),
    ("digital.crc16.bits", "bits"),
    ("seu.frames", "frames"),
    ("seu.false_accepts", "count"),
)
SETUP_LAYERS = (
    ("harness.build_link.self_ms", "harness.build_link", "self_ms"),
    ("harness.build_link.total_ms", "harness.build_link", "total_ms"),
    ("codec.calibrate_prior_vars.self_ms", "codec.calibrate_prior_vars", "self_ms"),
)
TIMED_SPANS = ("allocator.allocate_greedy", "allocator.allocate_exhaustive")


def ratio(num, den):
    return num / den if den else 0.0


def run_traced(args, datosc, workload, workers):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(datosc)
    workload.prepare()
    prepare_stats = tracer.reset_stats()
    workload.reset_timing()
    t0 = perf_counter()
    units = drive(workload, args.seconds / 2.0, 1)
    traced_wall = perf_counter() - t0
    traced_busy = workload.busy_s
    stats = tracer.summary()
    counters = dict(tracer.counters)
    candidates = tracer.list_candidates()
    durations = {span: tracer.durations(span) for span in TIMED_SPANS}
    tracer.uninstall()

    workload.rewind()
    workload.reset_timing()
    t0 = perf_counter()
    drive(workload, 0.0, 0, units=units)
    untraced_wall = perf_counter() - t0
    untraced_busy = workload.busy_s

    def field(span, key):
        return stats.get(span, {}).get(key, 0) / units

    m = {}
    for name, span, key in PER_UNIT:
        m[name] = metric(field(span, key), "ms" if key.endswith("_ms") else "count")
    for name, unit in PER_UNIT_COUNTERS:
        m[name] = metric(counters.get(name, 0) / units, unit)
    for name, span, key in SETUP_LAYERS:
        m[name] = metric(prepare_stats.get(span, {}).get(key, 0.0), "ms")
    m["digital.list_candidates_per_frame"] = metric(
        statistics.fmean(candidates) if candidates else 0.0, "count")
    m["digital.crc_ok_ratio"] = metric(
        ratio(counters.get("digital.crc_frames_ok", 0), counters.get("digital.crc_frames", 0)),
        "ratio")
    m["digital.llr_clip_fraction"] = metric(
        ratio(counters.get("digital.llrs_clipped", 0), counters.get("digital.llrs", 0)), "ratio")
    m["seu.frames_crc_ok_ratio"] = metric(
        ratio(counters.get("seu.frames_crc_ok", 0), counters.get("seu.frames", 0)), "ratio")
    for span, d in durations.items():
        m[f"{span}.ms_p50"] = metric(
            statistics.median(d) * 1e3 if d else 0.0, "ms")
    m["bench.trace_overhead_s"] = metric(traced_busy - untraced_busy, "s")
    m["bench.trace_overhead_ratio"] = metric(ratio(traced_busy, untraced_busy), "ratio")

    report = {
        "units": units,
        "traced_busy_s": traced_busy,
        "untraced_busy_s": untraced_busy,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "list_candidates_histogram": {
            str(k): candidates.count(k) for k in sorted(set(candidates))
        },
        "counters": counters,
        "prepare_layers": prepare_stats,
        "run_layers": stats,
    }
    return m, report, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "sweep-mp", "seu", "alloc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    os.environ.update(PINNED_ENV)  # before numpy is first imported
    datosc = load_program()
    sys.path.insert(0, str(HERE))
    import workloads

    workers = max(2, nproc()) if args.workload == "sweep-mp" else 1
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=str(OUT)) as workdir:
        workload = workloads.WORKLOADS[args.workload](
            datosc, args.seed, args.size == "tiny", workdir, workers)
        info = manifest(args, workload, workers)
        run = run_traced if args.trace else run_untraced
        metrics, report, tracer = run(args, datosc, workload, workers)

    for name, entry in metrics.items():
        if not math.isfinite(entry["value"]):
            workload.problems.append(f"metric {name} is not finite")
    report = {"manifest": info, "results": report, "problems": workload.problems}
    stem = f"{args.workload}-trace{args.trace}"
    if tracer is not None:
        tracer.save_spans(OUT / f"{stem}-spans.npz")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": workload.failed == 0 and not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
