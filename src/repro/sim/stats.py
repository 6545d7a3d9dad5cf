"""Statistics extraction: Fig. 9 breakdowns and Fig. 10 timelines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler.cycle_scheduler import FU_FAMILIES, CycleSchedule
from repro.compiler.data_scheduler import DataMovementSchedule
from repro.core.config import F1Config
from repro.core.energy import EnergyModel


@dataclass
class Timeline:
    """Per-window FU activity and HBM utilization (Fig. 10)."""

    window_cycles: int
    time_us: np.ndarray            # window start times in microseconds
    active_fus: dict               # fu kind -> windowed mean busy unit count
    hbm_utilization: np.ndarray    # fraction of window bandwidth used


def utilization_timeline(schedule: CycleSchedule, *, windows: int = 64) -> Timeline:
    """Bucket FU busy intervals and HBM transfers into time windows."""
    makespan = max(1, schedule.makespan)
    window = max(1, makespan // windows)
    n_bins = (makespan + window - 1) // window
    fus = {"ntt": np.zeros(n_bins), "aut": np.zeros(n_bins),
           "mul": np.zeros(n_bins), "add": np.zeros(n_bins)}
    by_code = [fus[fu] for fu in FU_FAMILIES]
    for fu, start, occupancy in zip(schedule.instr_fu, schedule.instr_start,
                                    schedule.instr_occupancy):
        _spread(by_code[fu], start, start + occupancy, window)
    hbm = np.zeros(n_bins)
    load_cycles = schedule.config.load_cycles(schedule.n)
    for start in schedule.transfer_start:
        _spread(hbm, start, start + load_cycles, window)
    freq_ghz = schedule.config.frequency_ghz
    return Timeline(
        window_cycles=window,
        time_us=np.arange(n_bins) * window / (freq_ghz * 1e3),
        active_fus={k: v / window for k, v in fus.items()},
        hbm_utilization=hbm / window,
    )


def _spread(bins: np.ndarray, start: float, end: float, window: int) -> None:
    """Add an interval's cycle count to the windows it overlaps."""
    lo = int(start // window)
    hi = int((end - 1e-9) // window)
    if lo == hi:
        if 0 <= lo < len(bins):
            bins[lo] += end - start
        return
    for b in range(max(lo, 0), min(hi, len(bins) - 1) + 1):
        left = max(start, b * window)
        right = min(end, (b + 1) * window)
        bins[b] += max(0.0, right - left)


def power_breakdown(
    schedule: CycleSchedule,
    movement: DataMovementSchedule,
    config: F1Config | None = None,
) -> dict:
    """Average power by component over the benchmark's runtime (Fig. 9b)."""
    config = config or schedule.config
    energy = EnergyModel.from_config(config)
    rvec_bytes = config.rvec_bytes(schedule.n)
    time_s = schedule.makespan / (config.frequency_ghz * 1e9)
    if time_s <= 0:
        raise ValueError("empty schedule")

    fu_nj = sum(
        busy * energy.fu_busy_nj_per_cycle[fu]
        for fu, busy in schedule.fu_busy_cycles.items()
    )
    # Each instruction reads its operands from and writes its result to the
    # register file; each operand also crosses the NoC from a scratchpad bank.
    n_ops = len(schedule.instr_id)
    operand_count = 2 * n_ops  # ~2 RF accesses (read operands, write result)
    rf_nj = operand_count * schedule.config.chunks(schedule.n) \
        * energy.rf_access_nj_per_rvec_chunk
    # Register files capture most operand reuse within a homomorphic op;
    # roughly one operand per instruction crosses the NoC from a bank.
    noc_bytes = n_ops * rvec_bytes
    noc_nj = noc_bytes * energy.noc_nj_per_byte
    scratch_bytes = noc_bytes + movement.traffic.total_rvecs() * rvec_bytes
    scratch_nj = scratch_bytes * energy.scratchpad_nj_per_byte
    hbm_bytes = movement.traffic.total_rvecs() * rvec_bytes
    hbm_nj = hbm_bytes * energy.hbm_nj_per_byte

    to_watts = 1e-9 / time_s
    return {
        "HBM": hbm_nj * to_watts,
        "Scratchpad": scratch_nj * to_watts,
        "NoC": noc_nj * to_watts,
        "RegFiles": rf_nj * to_watts,
        "FUs": fu_nj * to_watts,
        "total": (hbm_nj + scratch_nj + noc_nj + rf_nj + fu_nj) * to_watts,
    }


def traffic_fractions(movement: DataMovementSchedule, rvec_bytes: int) -> dict:
    """Fig. 9a: per-category fractions of total off-chip traffic."""
    breakdown = movement.traffic.breakdown(rvec_bytes)
    total = sum(breakdown.values())
    if total == 0:
        return {k: 0.0 for k in breakdown}
    return {k: v / total for k, v in breakdown.items()}
