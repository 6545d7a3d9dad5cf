"""The software half: FHE requests through ``FheServer``.

``serve_ckks_closed``: a closed loop on the deep CKKS chain through the
thread executor.  The client keeps a whole multiple of the measured batch
capacity outstanding and the flush timer is long, so batches close on
size and execution dominates.

``serve_mixed_open``: an open loop.  A seeded Poisson schedule at a fixed
rate mixes BGV linear scoring and a CKKS rotation stencil, each arriving
at levels 3 and 2, through a ``RemoteExecutor`` over two local worker
hosts.  Batches close on the flush timer, so queueing, packing, serde and
the wire dominate.  Latency runs from each request's due time.

Every served output is checked against ``ReferenceBackend`` outputs
computed once in set-up for the seeded request pool: BGV exactly, CKKS
within :data:`CKKS_TOLERANCE`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, wait

import numpy as np

from repro.backends import ReferenceBackend, default_plaintext_modulus
from repro.bench.loadgen import (
    deep_ckks_program,
    linear_bgv_program,
    mixed_level_requests,
    rotation_ckks_program,
    synthetic_requests,
)
from repro.obs import profile as kernel_profile
from repro.obs.trace import tracer
from repro.serve import FheServer
from repro.serve.executor import ThreadExecutor

from common import log, median, percentile, pid_peak_rss_mb, self_peak_rss_mb

#: the drift bound loadgen's cross-checks allow a served CKKS output
CKKS_TOLERANCE = 1e-2
POOL = 192                 # distinct requests per signature, cycled
CLOSED_BATCHES_OUTSTANDING = 2
CLOSED_MAX_WAIT_MS = 2000.0
#: the closed loop's metrics are medians over this many stretches of a
#: run (each holds > 1500 requests)
CLOSED_STRETCHES = 5
#: tail percentile.  Open loop: p95; its p99 rests on 12 of 1250 requests
#: and spread 40% over ten seeds, its p90 sits between the latency modes
#: of requests that did and did not wait for a batch ahead (48%).  Closed
#: loop: every request waits for the two batches ahead of it, so latency
#: is service time, and beyond p90 it tracks stalls of the shared host.
TAIL_PERCENTILE = {"serve_ckks_closed": 90, "serve_mixed_open": 95}
OPEN_RATE_PER_S = 50.0
OPEN_HOSTS = 2
DRAIN_TIMEOUT_S = 60.0
KERNELS = {
    "kernel.ntt_ms": ("ntt_forward", "ntt_inverse"),
    "kernel.key_switch_ms": ("key_switch", "key_switch_hoisted"),
    "kernel.base_extend_ms": ("base_extend",),
    "kernel.scale_down_ms": ("scale_down",),
    "kernel.modmul_mac_ms": ("modmul_mac",),
    "kernel.crt_ms": ("crt_to_rns", "crt_from_rns"),
    "kernel.mod_switch_ms": ("mod_switch",),
}


class TimingExecutor:
    """An :class:`~repro.serve.executor.Executor` that times every
    ``execute`` of the executor it wraps (the server-side dispatch)."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.dispatch_ms: list[float] = []

    def execute(self, job):
        start = time.perf_counter()
        try:
            return self.inner.execute(job)
        finally:
            self.dispatch_ms.append((time.perf_counter() - start) * 1e3)

    def stats(self) -> dict:
        return self.inner.stats()

    def metrics_blobs(self) -> list[dict]:
        return getattr(self.inner, "metrics_blobs", lambda: [])()

    def healthy(self) -> bool:
        return getattr(self.inner, "healthy", lambda: True)()

    def close(self) -> None:
        self.inner.close()


class Traffic:
    """One signature's request pool with its reference outputs."""

    def __init__(self, program, requests, width: int):
        self.program = program
        self.requests = requests
        self.width = width
        self.t = default_plaintext_modulus(program)
        reference = ReferenceBackend()
        self.expected = [
            reference.run(program, inputs=r.inputs,
                          plains=r.plains or None).outputs
            for r in requests
        ]

    def submit(self, server, index: int):
        request = self.requests[index]
        return server.submit(self.program, request.inputs, request.plains,
                             width=self.width, level=request.level)

    def correct(self, index: int, values: dict) -> bool:
        expected = self.expected[index]
        if values.keys() != expected.keys():
            return False
        for out_id, got in values.items():
            want = expected[out_id][: len(got)]
            if self.program.scheme == "ckks":
                if not np.max(np.abs(got - want)) <= CKKS_TOLERANCE:
                    return False
            elif not np.array_equal(np.asarray(got) % self.t, want % self.t):
                return False
        return True


def _stamp_done(future) -> None:
    future.done_at = time.perf_counter()


class Sent:
    """One submitted request: what it was, when it was due and sent, and
    (after :meth:`finish`) its outcome.  Finishing drops the result."""

    __slots__ = ("traffic", "index", "due", "sent", "submit_s", "future",
                 "ok", "latency_ms", "queue_ms", "done_at")

    def __init__(self, server, traffic: Traffic, index: int, due=None):
        self.traffic = traffic
        self.index = index
        self.sent = time.perf_counter()
        self.due = self.sent if due is None else due
        self.future = traffic.submit(server, index)
        self.submit_s = time.perf_counter() - self.sent
        self.future.add_done_callback(_stamp_done)
        self.ok, self.latency_ms, self.queue_ms, self.done_at = (
            False, None, None, None)

    def finish(self) -> None:
        """Record ok-and-correct, latency from the due time and queue time."""
        future, self.future = self.future, None
        if not future.done():
            return   # never resolved: a miss
        try:
            result = future.result()
        except Exception:  # noqa: BLE001 — an application error is a miss
            return
        self.done_at = future.done_at
        self.latency_ms = (self.done_at - self.due) * 1e3
        self.queue_ms = result.queue_ms
        self.ok = (result.status == "ok"
                   and self.traffic.correct(self.index, result.values))


def _drain(server, items: list[Sent]) -> None:
    """Flush, wait for every request, and finish them."""
    pending = [i for i in items if i.future is not None]
    server.flush()
    wait([i.future for i in pending], timeout=DRAIN_TIMEOUT_S)
    # Done-callbacks run just after waiters wake; let the stamps land.
    while any(i.future.done() and not hasattr(i.future, "done_at")
              for i in pending):
        time.sleep(0.001)
    for item in pending:
        item.finish()


def summarize(items: list[Sent], start: float, stretches: int = 1,
              tail: int = 95) -> tuple[dict, int]:
    """End-to-end metrics of the requests sent since ``start``, and the
    number of misses (failed, expired, shed, wrong or never resolved).

    With ``stretches`` > 1 the run is cut into that many equal stretches
    by completion time; throughput, p50 and p99 are the median of the
    stretches' values, so a stall of the shared host moves one stretch,
    not the result.  ``tail`` is the tail percentile."""
    oks = sum(i.ok for i in items)
    done = [i for i in items if i.done_at is not None]
    width = (max((i.done_at for i in done), default=start) - start) / stretches
    parts: list[list[Sent]] = [[] for _ in range(stretches)]
    for item in done:
        k = int((item.done_at - start) / width) if width > 0 else 0
        parts[min(k, stretches - 1)].append(item)
    lat = [[i.latency_ms for i in part] for part in parts]
    return {
        "throughput_per_s": (median([sum(i.ok for i in part) / width
                                     for part in parts]) if width > 0 else 0.0,
                             "1/s", oks),
        "latency_p50_ms": (median([median(x) for x in lat]), "ms", len(done)),
        "latency_tail_ms": (median([percentile(x, tail) for x in lat]), "ms",
                            len(done)),
        "ok_frac": (oks / len(items), "frac", len(items)),
    }, len(items) - oks


# ------------------------------------------------------------------ closed
def closed_loop(server, traffic: Traffic, clients: int,
                seconds: float) -> tuple[list[Sent], float]:
    """Keep ``clients`` requests outstanding for ``seconds``, then drain.
    One client thread; each completion is checked as it arrives."""
    start = time.perf_counter()
    end = start + seconds
    items = []
    outstanding = {}

    def send():
        item = Sent(server, traffic, len(items) % POOL)
        items.append(item)
        outstanding[item.future] = item

    for _ in range(clients):
        send()
    while time.perf_counter() < end:
        done, _ = wait(list(outstanding), return_when=FIRST_COMPLETED)
        for future in done:
            while not hasattr(future, "done_at"):
                time.sleep(0)   # the done-callback is still running
            outstanding.pop(future).finish()
            send()
    _drain(server, list(outstanding.values()))
    return items, start


def setup_closed(seed: int) -> dict:
    program = deep_ckks_program(1024)
    width = 16
    traffic = Traffic(program, synthetic_requests(program, POOL, width=width,
                                                  seed=seed), width)
    executor = TimingExecutor(ThreadExecutor())
    server = FheServer(workers=2, max_wait_ms=CLOSED_MAX_WAIT_MS,
                       executor=executor, seed=seed, queue_depth=256)
    # The first request builds the context (keygen); its batch capacity
    # then sizes the closed loop.
    first = traffic.submit(server, 0)
    server.flush()
    first.result()
    (row,) = server.stats()["per_signature"].values()
    clients = CLOSED_BATCHES_OUTSTANDING * row["capacity"]
    closed_loop(server, traffic, clients, 1.0)
    return {"server": server, "executor": executor, "traffic": [traffic],
            "clients": clients, "capacity": row["capacity"], "workers": []}


# -------------------------------------------------------------------- open
def arrival_schedule(seed: int, seconds: float, rate: float, kinds: int):
    """Seeded Poisson arrivals: (due offset s, traffic kind, pool index)."""
    rng = np.random.default_rng([seed, 0x0BE9])
    count = int(round(rate * seconds))
    offsets = np.sort(rng.uniform(0.0, seconds, count))
    return list(zip(offsets.tolist(), rng.integers(0, kinds, count).tolist(),
                    rng.integers(0, POOL, count).tolist()))


def open_loop(server, traffics: list[Traffic],
              schedule) -> tuple[list[Sent], float]:
    """Send on schedule, never waiting for replies; then drain."""
    start = time.perf_counter() + 0.002
    items = []
    for offset, kind, index in schedule:
        due = start + offset
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        items.append(Sent(server, traffics[kind], index, due))
    _drain(server, items)
    return items, start


def setup_open(seed: int, trace: bool) -> dict:
    from repro.net.cluster import LocalCluster

    width = 8
    traffics = [
        Traffic(p, mixed_level_requests(p, POOL, width=width, levels=(3, 2),
                                        seed=seed + k), width)
        for k, p in enumerate((linear_bgv_program(512),
                               rotation_ckks_program(512)))
    ]
    if trace:
        # Worker hosts read the kernel-timer switch from their environment.
        os.environ["REPRO_OBS_KERNELS"] = "1"
    try:
        cluster = LocalCluster(OPEN_HOSTS)
    finally:
        os.environ.pop("REPRO_OBS_KERNELS", None)
    executor = TimingExecutor(cluster.executor())
    server = FheServer(workers=2, executor=executor, seed=seed)
    # Warm-up: a burst per signature and level puts a batch on both worker
    # threads, replicating every context to both hosts; then a short
    # stretch of the timed traffic itself.
    for _ in range(2):
        burst = [t.submit(server, i) for t in traffics for i in range(64)]
        server.flush()
        for future in burst:
            future.result()
    open_loop(server, traffics,
              arrival_schedule(seed + 1, 1.0, OPEN_RATE_PER_S, len(traffics)))
    pids = [h["remote"].get("pid") for h in server.stats()["executor"]["hosts"]]
    return {"server": server, "executor": executor, "traffic": traffics,
            "cluster": cluster, "workers": [p for p in pids if p]}


def teardown(state: dict) -> None:
    state["server"].close()
    state["executor"].close()
    if state.get("cluster") is not None:
        state["cluster"].close()


# --------------------------------------------------------------- per layer
def _hist(blob: dict, name: str) -> tuple[float, int]:
    state = blob.get(name) or {}
    return float(state.get("sum", 0.0)), int(state.get("count", 0))


def _snapshot(state: dict) -> dict:
    stats = state["server"].stats()
    executor = stats["executor"]
    return {
        "stats": stats,
        "blob": stats["metrics"],
        "dispatches": len(state["executor"].dispatch_ms),
        "retries": executor.get("resilience", {}).get("retries", 0),
        "reconnects": executor.get("reconnects", 0),
    }


def layer_metrics(state: dict, before: dict, after: dict,
                  items: list[Sent], spans: list[dict]) -> dict:
    """Serve, batcher, registry, kernel and net metrics of the traced
    requests, from ``stats()`` deltas, the tracer's spans and the timing
    executor."""
    def delta(name):
        s1, c1 = _hist(after["blob"], name)
        s0, c0 = _hist(before["blob"], name)
        return s1 - s0, c1 - c0

    b0, b1 = before["stats"], after["stats"]
    batches = b1["batches"] - b0["batches"]
    served = b1["requests"] - b0["requests"]
    occ_sum, occ_n = delta("serve.occupancy")
    exec_sum, exec_n = delta("serve.execute_ms")
    dispatch = state["executor"].dispatch_ms[before["dispatches"]:
                                             after["dispatches"]]
    dispatch_ms = sum(dispatch) / len(dispatch) if dispatch else 0.0
    execute_ms = exec_sum / exec_n if exec_n else 0.0
    reg0, reg1 = b0["registry"], b1["registry"]
    lookups = (reg1["hits"] + reg1["misses"]) - (reg0["hits"] + reg0["misses"])
    queue = [i.queue_ms for i in items if i.queue_ms is not None]
    late = [(i.sent - i.due) * 1e3 for i in items]

    def span_mean(name):
        durs = [s["dur"] / 1e3 for s in spans if s["name"] == name]
        return sum(durs) / len(durs) if durs else 0.0

    out = {
        "serve.submit_us": sum(i.submit_s for i in items) / len(items) * 1e6,
        "serve.queue_ms": sum(queue) / len(queue) if queue else 0.0,
        "serve.batch_size_mean": served / batches if batches else 0.0,
        "serve.occupancy": occ_sum / occ_n if occ_n else 0.0,
        "serve.dispatch_ms": dispatch_ms,
        "serve.execute_ms": execute_ms,
        "batcher.pack_ms": span_mean("pack"),
        "batcher.unpack_ms": span_mean("unpack"),
        "registry.hit_rate": ((reg1["hits"] - reg0["hits"]) / lookups
                              if lookups else 0.0),
        "net.overhead_ms": dispatch_ms - execute_ms,
        "net.retries": after["retries"] - before["retries"],
        "net.reconnects": after["reconnects"] - before["reconnects"],
        "loadgen.late_p99_ms": percentile(late, 99),
    }
    for metric, kernels in KERNELS.items():
        total = sum(delta(f"kernel.{k}.ms")[0] for k in kernels)
        out[metric] = total / served if served else 0.0
    return out


# --------------------------------------------------------------------- run
def run(workload: str, seed: int, seconds: float, trace: bool,
        setups: int) -> dict:
    closed = workload == "serve_ckks_closed"
    setup_times = []
    state = None
    for _ in range(setups):
        if state is not None:
            teardown(state)
        start = time.perf_counter()
        state = setup_closed(seed) if closed else setup_open(seed, trace)
        setup_times.append(time.perf_counter() - start)
    server, traffics = state["server"], state["traffic"]
    schedule = (None if closed else
                arrival_schedule(seed, seconds, OPEN_RATE_PER_S, len(traffics)))
    log(f"{workload}: setups {['%.2f' % t for t in setup_times]}; "
        + (f"{state['clients']} clients, capacity {state['capacity']}"
           if closed else f"{len(schedule)} arrivals at {OPEN_RATE_PER_S}/s"))

    stretches = CLOSED_STRETCHES if closed else 1
    tail = TAIL_PERCENTILE[workload]

    def traffic(part):
        if closed:
            return closed_loop(server, traffics[0], state["clients"],
                               seconds * part)
        cut = [(o, k, i) for o, k, i in schedule if o < seconds * part]
        return open_loop(server, traffics, cut)

    out: dict = {"setup_repeat_s": setup_times}
    try:
        if not trace:
            items, start = traffic(1.0)
            out["end_to_end"], out["failed"] = summarize(items, start,
                                                         stretches, tail)
        else:
            plain, plain_start = traffic(0.5)
            before = _snapshot(state)
            tracer().clear()
            tracer().enable()
            try:
                with kernel_profile.profiled():
                    items, start = traffic(0.5)
                time.sleep(0.6)   # one heartbeat brings worker metrics in
            finally:
                tracer().disable()
            after = _snapshot(state)
            spans = tracer().spans()
            out["per_layer"] = layer_metrics(state, before, after, items,
                                             spans)
            out["spans"] = spans
            traced, out["failed"] = summarize(items, start, stretches, tail)
            untraced, plain_failed = summarize(plain, plain_start, stretches,
                                               tail)
            out["failed"] += plain_failed
            items = items + plain
            out["throughput_traced_untraced"] = (
                traced["throughput_per_s"][0], untraced["throughput_per_s"][0])
        out["attempted"] = len(items)
        out["peak_rss_mb"] = self_peak_rss_mb() + sum(
            pid_peak_rss_mb(pid) for pid in state["workers"])
    finally:
        teardown(state)
    return out
