"""Shared pieces of the benchmark: statistics, memory, environment, spans.

Nothing here imports the system under test, so ``run.py`` can time its
own imports before the first ``repro`` module loads.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import threading
import time


def percentile(values, q: float) -> float:
    """Exact ``q``-th percentile (linear interpolation) of ``values``."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


#: a speed probe's time on an unloaded 2-core x86 box; see :func:`speed_factor`
PROBE_REF_S = 0.0010
_PROBE_ITERS = 12_000


def _probe_once() -> float:
    start = time.perf_counter()
    acc = 0
    for k in range(_PROBE_ITERS):
        acc += (k * k) % 7
    return time.perf_counter() - start


def speed_probe() -> float:
    """Median time of three runs of a fixed pure-Python loop."""
    return statistics.median(_probe_once() for _ in range(3))


def speed_factor(before: float, after: float) -> float:
    """How much faster the reference machine is than this one was between
    two probes.  A shared host swings up to 2x in speed within seconds;
    multiplying a wall time measured between the probes by this factor
    restates it at the reference speed."""
    return PROBE_REF_S / ((before + after) / 2)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another live process, 0 if unknown."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def environment() -> dict:
    """Where the numbers came from: cores, python, numpy and its BLAS."""
    import numpy as np

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '')}".strip()
    except (TypeError, AttributeError):
        pass
    return {
        "cores": cores,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


class Spans:
    """In-memory span recorder for the benchmark's own layer boundaries.

    A span is ``{"name", "ts_us", "dur_us", "parent", "op"}``; spans that
    belong to one operation share ``op``.  :meth:`self_times` subtracts the
    time child spans cover from their parent.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.spans: list[dict] = []
        self._local = threading.local()

    def set_op(self, op: int | None) -> None:
        self._local.op = op

    def record(self, name: str, start: float, end: float,
               parent: str | None = None) -> None:
        with self._lock:
            self.spans.append({
                "name": name, "ts_us": start * 1e6,
                "dur_us": (end - start) * 1e6, "parent": parent,
                "op": getattr(self._local, "op", None),
            })

    def wrap(self, name: str, fn, parent: str | None = None):
        """``fn`` with every call recorded as a span called ``name``."""
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.record(name, start, time.perf_counter(), parent)
        timed.__wrapped__ = fn
        return timed

    def self_times_ms(self, scale: dict | None = None) -> dict[str, float]:
        """Total self time per span name, in milliseconds; ``scale`` maps
        an operation to a factor its spans' durations are multiplied by."""
        totals: dict[str, float] = {}
        children: dict[tuple, float] = {}
        for span in self.spans:
            dur = span["dur_us"] * (scale or {}).get(span["op"], 1.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + dur
            if span["parent"] is not None:
                key = (span["op"], span["parent"])
                children[key] = children.get(key, 0.0) + dur
        for (_, parent), covered in children.items():
            if parent in totals:
                totals[parent] -= covered
        return {name: us / 1e3 for name, us in totals.items()}

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span["name"]] = out.get(span["name"], 0) + 1
        return out


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, default=float)


def log(message: str) -> None:
    """Progress lines go to stderr; stdout's last line is the result."""
    print(message, file=sys.stderr, flush=True)
