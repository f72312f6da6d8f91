"""Spans and counters around datosc's public functions, installed from outside.

`Tracer.install()` replaces every public function of the datosc modules (and
the two methods named in `_METHODS`) by a wrapper, in every module namespace
that holds a reference to it, so calls made between modules are traced too.
Nothing under `src/` is edited; `uninstall()` puts the originals back.

Each call becomes a span (name, start, end, parent span). Spans and the
per-name aggregates (calls, total time, self time = span time minus the time
of its direct child spans) stay in memory until the run has ended, when
`save_spans()` writes them out. A few observers read counters from
arguments and returned objects (bits through the CRC, trellis steps, clipped
LLRs, CRC outcomes, session frame records).
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

MODULES = (
    "sources",
    "codec",
    "channel",
    "analog",
    "digital",
    "allocator",
    "seu",
    "harness",
)

# Methods traced under a short span name: (module, class, attribute, name).
_METHODS = (
    ("channel", "ChannelState", "for_block", "channel.for_block"),
    ("allocator", "FerTable", "lookup", "allocator.fer_lookup"),
)


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


class Tracer:
    def __init__(self):
        self.llr_clip = None
        self.phase_start = 0  # first span of the current phase
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, child seconds]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stats: list[list[float]] = []  # per name: [calls, total s, self s]
        self.counters: dict[str, int] = {}
        self._undo: list[tuple] = []

    # -- bookkeeping --------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.stats.append([0, 0.0, 0.0])
        return self._index[name]

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def reset_stats(self) -> dict:
        """Start a new phase: return the aggregates so far and zero them."""
        snapshot = self.summary()
        for agg in self.stats:
            agg[:] = [0, 0.0, 0.0]
        self.counters = {}
        self.phase_start = len(self.span_name)
        return snapshot

    def _inside(self, name: str) -> bool:
        idx = self._index.get(name)
        return any(self.span_name[entry[0]] == idx for entry in self._stack)

    def wrap(self, name: str, fn, observe=None):
        idx = self._intern(name)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(tracer.span_name)
            tracer.span_name.append(idx)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            entry = [span_id, 0.0]
            stack.append(entry)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                elapsed = t1 - t0
                tracer.span_start[span_id] = t0
                tracer.span_end[span_id] = t1
                agg = tracer.stats[idx]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - entry[1]
            if observe is not None:
                o0 = perf_counter()
                observe(tracer, args, kwargs, result)
                # the observer's own cost is not the caller's self time
                elapsed += perf_counter() - o0
            if stack:
                stack[-1][1] += elapsed
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of each module in MODULES."""
        self.llr_clip = float(package.digital.LLR_CLIP)
        modules = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in MODULES]
        wrapped = {}  # id(original) -> wrapper
        for short in MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped[id(obj)] = (obj, self.wrap(name, obj, _OBSERVERS.get(name)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for short, cls_name, attr, name in _METHODS:
            cls = getattr(sys.modules[f"{package.__name__}.{short}"], cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__, _OBSERVERS.get(name)))
            else:
                new = self.wrap(name, raw, _OBSERVERS.get(name))
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        out = {}
        for name, (calls, total, self_s) in zip(self.names, self.stats):
            if calls:
                out[name] = {
                    "calls": int(calls),
                    "total_ms": total * 1e3,
                    "self_ms": self_s * 1e3,
                }
        return out

    def _span_arrays(self):
        names = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parents = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        return names, parents

    def durations(self, name: str) -> list[float]:
        """Seconds taken by each span of `name` in the current phase."""
        idx = self._index.get(name)
        if idx is None:
            return []
        names, _ = self._span_arrays()
        starts = np.frombuffer(self.span_start, dtype=np.float64).copy()
        ends = np.frombuffer(self.span_end, dtype=np.float64).copy()
        hits = np.flatnonzero(names[self.phase_start:] == idx) + self.phase_start
        return (ends[hits] - starts[hits]).tolist()

    def list_candidates(self) -> list[int]:
        """CRC checks made inside each list-decoded dsc_decode span of the
        current phase: the number of list candidates tried for that frame."""
        dsc = self._index.get("digital.dsc_decode")
        crc = self._index.get("digital.crc16")
        lst = self._index.get("digital.viterbi_decode_list")
        if dsc is None:
            return []
        names, parents = self._span_arrays()
        frames = np.flatnonzero(names == dsc)
        frames = frames[frames >= self.phase_start]
        listed = set(parents[names == lst].tolist())
        checks = np.bincount(parents[(names == crc) & (parents >= 0)], minlength=len(names))
        return [int(checks[f]) for f in frames if int(f) in listed]

    def save_spans(self, path) -> None:
        """Every span of the run: name table, then per span its name index,
        parent span (-1 for none), start and end (perf_counter seconds)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32).copy(),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            span_start=np.frombuffer(self.span_start, dtype=np.float64).copy(),
            span_end=np.frombuffer(self.span_end, dtype=np.float64).copy(),
        )


# ---------------------------------------------------------------------------
# observers: counters read from arguments and returned objects
# ---------------------------------------------------------------------------

def _obs_crc16(tr, args, kwargs, result):
    tr.count("digital.crc16.bits", np.size(_first_arg(args, kwargs, "bits")))


def _obs_viterbi(tr, args, kwargs, result):
    llrs = np.asarray(_first_arg(args, kwargs, "sys_llrs"))
    tr.count("digital.viterbi_decode.frames", 1 if llrs.ndim == 1 else llrs.shape[0])
    tr.count("digital.viterbi_decode.steps", llrs.size)


def _obs_viterbi_list(tr, args, kwargs, result):
    tr.count("digital.viterbi_decode_list.steps", np.size(_first_arg(args, kwargs, "sys_llrs")))


def _obs_llrs(tr, args, kwargs, result):
    r = np.asarray(result)
    tr.count("digital.llrs", r.size)
    tr.count("digital.llrs_clipped", np.count_nonzero(np.abs(r) >= tr.llr_clip))


def _obs_dsc_decode(tr, args, kwargs, result):
    # frames decoded inside run_chunk are counted from run_chunk's result
    if tr._inside("harness.run_chunk"):
        return
    ok = np.asarray(result[1])
    tr.count("digital.crc_frames", ok.size)
    tr.count("digital.crc_frames_ok", np.count_nonzero(ok))


def _obs_run_chunk(tr, args, kwargs, result):
    config = _first_arg(args, kwargs, "config")
    if config.scheme == "analog":
        return
    fails = np.asarray(result[3])
    tr.count("digital.crc_frames", fails.size)
    tr.count("digital.crc_frames_ok", fails.size - np.count_nonzero(fails))


def _obs_seu(tr, args, kwargs, result):
    for f in result.frames:
        tr.count("seu.frames")
        tr.count("seu.frames_crc_ok", int(f.crc_ok))
        tr.count("seu.false_accepts", int(f.crc_ok and f.bit_errors_after > 0))


_OBSERVERS = {
    "digital.crc16": _obs_crc16,
    "digital.viterbi_decode": _obs_viterbi,
    "digital.viterbi_decode_list": _obs_viterbi_list,
    "digital.demodulate": _obs_llrs,
    "digital.side_info_llrs": _obs_llrs,
    "digital.dsc_decode": _obs_dsc_decode,
    "harness.run_chunk": _obs_run_chunk,
    "seu.seu_update_ints": _obs_seu,
}
