"""``compile_sweep``: the paper half, one program per operation.

Each operation is ``F1Backend(config, scheduler=..., check=True).run(program)``:
translate to RVec instructions, schedule data movement and cycles, check
the schedule, and model time and traffic.  One client, closed loop.

The operation list is built from the seed as a sequence of blocks.  Every
generator of Table 3 owns one or more *slots* (:data:`SLOTS`); a slot is a
small-scale program, or a choice of variants of about the same cost.  Over the ten blocks
of a run a slot visits each of the ten (N, config) cells once (the two
heaviest generators: each config once).  The seed picks the variant of
every (slot, N), the order of cells and the order within a block, so
every seed runs the same mix of generators, ring sizes and configs at
nearly the same cost, and no (program, config) pair repeats within a run.

A run is a fixed amount of work, one block per :data:`SECONDS_PER_BLOCK`
of ``--seconds``: that keeps the mix identical however fast the code is.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass

from repro.backends import F1Backend
from repro.bench import workloads as W
from repro.core.config import F1Config

from common import (
    Spans,
    log,
    median,
    percentile,
    self_peak_rss_mb,
    speed_factor,
    speed_probe,
)

RING_SIZES = (4096, 16384)
SECONDS_PER_BLOCK = 2.5   # a block takes about 3.3 s on a 2-core x86 box
MAX_BLOCKS = 10           # one visit of every (N, config) cell per slot
COUNT_BLOCKS = 2          # exact counts (instructions, makespan, traffic) cover these


@dataclass(frozen=True)
class Slot:
    """One program per visit; a slot visits ``cells`` (N, config) cells
    per run, every ``MAX_BLOCKS // cells`` blocks starting at ``phase``.
    Its variants (generator keyword arguments) cost about the same."""

    generator: str
    variants: tuple
    cells: int = 10
    phase: int = 0


def _mnist(encrypted_weights: bool, scale: float) -> Slot:
    return Slot("lola_mnist_ew" if encrypted_weights else "lola_mnist_uw",
                ({"scale": scale, "encrypted_weights": encrypted_weights},))


#: scales whose programs differ; ew steps are ~15% apart in instruction
#: count, so neighbouring groups overlap across configs and the median
#: program (rank 65 of 130) does not sit on a gap between groups
_MNIST_UW_SCALES = (0.02, 0.12, 0.16, 0.2, 0.24)
_MNIST_EW_SCALES = (0.02, 0.12, 0.16, 0.2)

#: the slots of one run.  The two heaviest generators visit five cells
#: (every config once) on alternate blocks.  Alternative variants are
#: offered only where they cost within a few percent of each other
#: (instruction counts), so the seed varies the programs but not the
#: run's cost.  At N=16K with half the scratchpad, logistic regression,
#: db_lookup and bgv_bootstrapping spill (modeled makespan 1.1-1.5x) and
#: the rest do not, so the data scheduler runs both ways.
SLOTS = (
    Slot("logistic_regression", ({"scale": 0.1},), cells=5, phase=0),
    Slot("lola_cifar", ({"scale": 0.02}, {"scale": 0.05}), cells=5, phase=1),
    *(_mnist(False, scale) for scale in _MNIST_UW_SCALES),
    *(_mnist(True, scale) for scale in _MNIST_EW_SCALES),
    Slot("db_lookup", ({"level": 14, "scale": 0.02},
                       {"level": 12, "scale": 0.2})),
    Slot("bgv_bootstrapping", ({"l_max": 20, "scale": 0.02},)),
    Slot("ckks_bootstrapping", ({"l_max": 13, "scale": 0.02},)),
)

_GENERATORS = {
    "logistic_regression": W.logistic_regression,
    "lola_cifar": W.lola_cifar,
    "lola_mnist_uw": W.lola_mnist,
    "lola_mnist_ew": W.lola_mnist,
    "db_lookup": W.db_lookup,
    "bgv_bootstrapping": W.bgv_bootstrapping,
    "ckks_bootstrapping": W.ckks_bootstrapping,
}


def configs() -> dict[str, tuple[F1Config, str]]:
    """The five (config, scheduler) pairs every generator is crossed with."""
    base = F1Config()
    return {
        "base": (base, "f1"),
        "lt_ntt": (base.with_low_throughput_ntt(), "f1"),
        "lt_aut": (base.with_low_throughput_aut(), "f1"),
        "half_scratchpad": (base.scaled(banks=8), "f1"),
        "csr": (base, "csr"),
    }


@dataclass
class CompileOp:
    generator: str
    variant: dict
    n: int
    config_name: str
    config: F1Config
    scheduler: str
    program: object

    def key(self) -> tuple:
        return (self.program.signature(), self.config_name)

    def describe(self) -> str:
        args = ",".join(f"{k}={v}" for k, v in sorted(self.variant.items()))
        return f"{self.generator}({args},n={self.n})@{self.config_name}"


def blocks_for(seconds: float) -> int:
    return max(COUNT_BLOCKS, min(MAX_BLOCKS, round(seconds / SECONDS_PER_BLOCK)))


def _cells(slot: Slot, rng: random.Random, names: list[str]) -> list[tuple]:
    """The seed's order of (N, config) cells for one slot."""
    if slot.cells == len(RING_SIZES) * len(names):
        return rng.sample([(n, c) for n in RING_SIZES for c in names],
                          slot.cells)
    # Every config once, at a ring size fixed per (slot phase, config),
    # so the seed does not move cost between the two rings.
    cells = [(RING_SIZES[(i + slot.phase) % 2], c)
             for i, c in enumerate(names)]
    return rng.sample(cells, len(cells))


def build_ops(seed: int, blocks: int = MAX_BLOCKS) -> list[list[CompileOp]]:
    """The seeded operation list: ``blocks`` blocks of :data:`SLOTS`."""
    rng = random.Random(seed)
    cfgs = configs()
    out = [[] for _ in range(blocks)]
    for slot in SLOTS:
        variant = {n: rng.choice(slot.variants) for n in RING_SIZES}
        every = MAX_BLOCKS // slot.cells
        for visit, (n, cname) in enumerate(_cells(slot, rng, list(cfgs))):
            b = visit * every + slot.phase
            if b >= blocks:
                continue
            config, scheduler = cfgs[cname]
            program = _GENERATORS[slot.generator](n=n, **variant[n])
            out[b].append(CompileOp(slot.generator, variant[n], n, cname,
                                    config, scheduler, program))
    for block in out:
        rng.shuffle(block)
    keys = [op.key() for block in out for op in block]
    if len(set(keys)) != len(keys):
        raise AssertionError("a (program, config) pair repeats in the list")
    return out


def run_op(op: CompileOp) -> dict:
    """Compile, schedule, check and model one program; the op's record."""
    backend = F1Backend(op.config, scheduler=op.scheduler, check=True)
    start = time.perf_counter()
    try:
        result = backend.run(op.program)
    except Exception as exc:  # noqa: BLE001 — a failed op is a miss
        return {"ok": False, "ms": (time.perf_counter() - start) * 1e3,
                "error": f"{type(exc).__name__}: {exc}"}
    ms = (time.perf_counter() - start) * 1e3
    stats = result.stats
    checked = stats.get("schedule_checked", {})
    record = {
        "ok": checked.get("instructions") == stats["instructions"],
        "ms": ms,
        "instructions": stats["instructions"],
        "makespan_cycles": stats["makespan_cycles"],
        "offchip_bytes": stats["offchip_bytes"],
    }
    del result, stats
    return record


def run_block(block, b: int, spans: Spans | None = None) -> list[dict]:
    """Run one block.  A speed probe sits between operations, so every
    operation's time is restated at the reference speed (``ms``; the wall
    time is ``ms_raw``).  Results are dropped and ``gc.collect()`` runs
    between operations, outside the timed window.  With ``spans`` every
    other operation is traced (``traced``): it records an ``op`` span and
    the phase spans of :class:`_PipelineSpans`."""
    records = []
    before = speed_probe()
    for op in block:
        traced = spans is not None and len(records) % 2 == 0
        if traced:
            spans.set_op((b, len(records)))
            with _PipelineSpans(spans):
                start = time.perf_counter()
                record = run_op(op)
                spans.record("op", start, time.perf_counter())
        else:
            record = run_op(op)
        record["traced"] = traced
        gc.collect()
        after = speed_probe()
        record["factor"] = speed_factor(before, after)
        record["ms_raw"] = record["ms"]
        record["ms"] *= record["factor"]
        record["block"] = b
        record["op"] = (b, len(records))
        records.append(record)
        before = after
    return records


def exact_counts(records: list[dict]) -> dict[str, int]:
    """Instruction, makespan and traffic totals over the first
    :data:`COUNT_BLOCKS` blocks: the same for every run of one seed."""
    head = [r for r in records if r["block"] < COUNT_BLOCKS and r["ok"]]
    return {
        "compiler.instructions": sum(r["instructions"] for r in head),
        "f1.makespan_cycles": sum(r["makespan_cycles"] for r in head),
        "f1.offchip_bytes": sum(r["offchip_bytes"] for r in head),
    }


def setup(seed: int, blocks: int):
    """Build the operation list and warm the pipeline with one untimed op."""
    ops = build_ops(seed, blocks)
    warm = min((op for op in ops[0] if op.generator == "lola_mnist_uw"),
               key=lambda op: op.program.n)
    run_op(warm)
    gc.collect()
    return ops


def end_to_end(records: list[dict], key: str = "ms") -> dict:
    """(value, unit, samples) per end-to-end metric; the timed window is
    the sum of operation times (one client, so nothing overlaps)."""
    lat = [r[key] for r in records]
    ok = sum(1 for r in records if r["ok"])
    return {
        "throughput_per_s": (ok / (sum(lat) / 1e3), "1/s", len(lat)),
        "latency_p50_ms": (median(lat), "ms", len(lat)),
        # p90: the highest percentile with ten programs beyond it
        "latency_tail_ms": (percentile(lat, 90), "ms", len(lat)),
        "ok_frac": (ok / len(lat), "frac", len(lat)),
    }


class _PipelineSpans:
    """Spans around the four compiler/simulator phases, at their call
    sites in ``repro.compiler.pipeline`` and ``repro.backends``."""

    SITES = (
        ("repro.compiler.pipeline", "compile_to_instructions", "translate"),
        ("repro.compiler.pipeline", "schedule_data_movement", "data_schedule"),
        ("repro.compiler.pipeline", "schedule_cycles", "cycle_schedule"),
        ("repro.backends", "check_schedule", "check"),
    )

    def __init__(self, spans: Spans):
        import importlib

        self.spans = spans
        self.saved = [(importlib.import_module(module), attr, name)
                      for module, attr, name in self.SITES]
        self.originals = [getattr(m, attr) for m, attr, _ in self.saved]

    def __enter__(self):
        for (module, attr, name), fn in zip(self.saved, self.originals):
            setattr(module, attr, self.spans.wrap(name, fn, parent="op"))
        return self

    def __exit__(self, *exc):
        for (module, attr, _), fn in zip(self.saved, self.originals):
            setattr(module, attr, fn)


def instr_per_s(records: list[dict]) -> float:
    """RVec instructions compiled and checked per (normalised) second."""
    total_s = sum(r["ms"] for r in records) / 1e3
    return sum(r.get("instructions", 0) for r in records) / total_s


def per_layer(records: list[dict], spans: Spans) -> dict:
    """Compiler/simulator layer metrics from the traced blocks, with span
    times restated at the reference speed like the operation times."""
    ops = len(records)
    selfs = spans.self_times_ms({r["op"]: r["factor"] for r in records})
    calls = spans.counts()
    return {
        "compiler.translate_ms": selfs.get("translate", 0.0) / ops,
        "compiler.data_schedule_ms": selfs.get("data_schedule", 0.0) / ops,
        "compiler.cycle_schedule_ms": selfs.get("cycle_schedule", 0.0) / ops,
        "sim.check_ms": selfs.get("check", 0.0) / ops,
        "compiler.instr_per_s": instr_per_s(records),
        "compiler.translate_calls": calls.get("translate", 0),
    }


def run(seed: int, seconds: float, trace: bool, setups: int) -> dict:
    """One run: ``setups`` set-ups, then the blocks.  Traced runs trace
    every other operation; the rest give the untraced rate the tracing
    overhead is measured against, in instructions per second because the
    two halves hold different programs."""
    nblocks = blocks_for(seconds)
    setup_times = []   # speed-normalised, like the operations
    for _ in range(setups):
        before = speed_probe()
        start = time.perf_counter()
        ops = setup(seed, nblocks)
        raw = time.perf_counter() - start
        setup_times.append(raw * speed_factor(before, speed_probe()))
    log(f"compile_sweep: {sum(map(len, ops))} ops in {nblocks} blocks")
    spans = Spans() if trace else None
    records = [r for b, block in enumerate(ops)
               for r in run_block(block, b, spans)]
    out = {"setup_repeat_s": setup_times, "peak_rss_mb": self_peak_rss_mb(),
           "attempted": len(records),
           "failed": sum(1 for r in records if not r["ok"])}
    if not trace:
        out["end_to_end"] = end_to_end(records)
        out["end_to_end_raw"] = end_to_end(records, "ms_raw")
        return out
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    out["per_layer"] = {**per_layer(traced, spans), **exact_counts(records)}
    out["spans"] = spans.spans
    out["throughput_traced_untraced"] = (instr_per_s(traced), instr_per_s(plain))
    return out
