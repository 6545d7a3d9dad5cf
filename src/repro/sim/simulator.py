"""Schedule checker: forward-simulates a static schedule and validates it.

Matching Sec. 4.4 ("after the final schedule is generated, we validate it by
simulating it forward to ensure that no clobbers or resource usage violations
occur") and Sec. 7 (the cycle-accurate simulator "acts more as a checker: it
runs the instruction stream at each component and verifies that latencies are
as expected and there are no missed dependences or structural hazards").

Checks performed, independently of the scheduler's own bookkeeping:

1. **Dependences**: walking the phase-2 event stream in order, an operand is
   available at the completion of its latest delivery before the use — the
   producing instruction, or the load that (re)filled it from off-chip — and
   every instruction starts no earlier than each operand's availability plus
   the on-chip network transfer.  A refilled spill is therefore checked
   against its refill, not its producer.  Instructions issue on integer
   cycles while loads at small N complete on fractional ones, so an issue
   within half a cycle of the ready time counts as on time (the scheduler
   rounds to the nearest cycle).
2. **Structural hazards**: per (cluster, FU, unit), issue slots are spaced by
   at least the occupancy.
3. **HBM bandwidth**: in no window does scheduled traffic exceed capacity
   (verified by serialization: transfer intervals on the aggregate channel
   must not overlap).
4. **Scratchpad capacity**: replaying the phase-2 event list never exceeds
   the slot count, and no value is used while not resident (clobber check).

The checker reads the columns of the graph, the event list and the schedule
directly: per-instruction and per-value state lives in lists indexed by id,
hazards are found by one sort and an adjacent-pair compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count
from operator import lt, sub

from repro.compiler.cycle_scheduler import FU_FAMILIES, LOAD_TRANSFER, CycleSchedule
from repro.compiler.data_scheduler import EXEC, LOAD, DataMovementSchedule
from repro.core.config import F1Config
from repro.core.isa import InstructionGraph

INF = float("inf")


@dataclass
class CheckReport:
    ok: bool
    violations: list[str] = field(default_factory=list)
    instructions_checked: int = 0
    transfers_checked: int = 0
    peak_resident_rvecs: int = 0

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise AssertionError(
                "schedule validation failed:\n" + "\n".join(self.violations[:20])
            )


def check_schedule(
    graph: InstructionGraph,
    movement: DataMovementSchedule,
    schedule: CycleSchedule,
    config: F1Config | None = None,
) -> CheckReport:
    config = config or schedule.config
    violations: list[str] = []
    in0, in1, out = graph.in0, graph.in1, graph.out
    transfer = config.transfer_cycles(graph.n)

    # --- 1. dependences, 4. scratchpad capacity & clobbers --------------------
    # One forward walk of the event stream.  ``avail[v]`` is the completion of
    # v's latest delivery so far (inf: never delivered); the k-th load event
    # of a value is served by its k-th load transfer.  An instruction missing
    # from the schedule is not checked, and its result is never delivered.
    start_of = [INF] * graph.num_instructions
    end_of = [INF] * graph.num_instructions
    for i, s, e in zip(schedule.instr_id, schedule.instr_start,
                       schedule.instr_end):
        start_of[i] = s
        end_of[i] = e
    load_ends: dict[int, list[float]] = {}
    for kind, vid, end in zip(schedule.transfer_kind, schedule.transfer_value,
                              schedule.transfer_end):
        if kind == LOAD_TRANSFER:
            load_ends.setdefault(vid, []).append(end)
    for ends in load_ends.values():
        ends.reverse()          # pop() serves them in issue order
    avail = [INF] * graph.num_values

    offsets, _ = graph.users_csr()
    users_left = list(map(sub, offsets[1:], offsets[:-1]))
    is_output = bytearray(graph.num_values)
    for vid in movement.outputs:
        is_output[vid] = 1
    resident = bytearray(graph.num_values)
    n_resident = peak = 0
    capacity = movement.capacity_rvecs

    def late(target: int, vid: int) -> None:
        ready = avail[vid]
        if ready == INF:
            violations.append(
                f"instr {target}: operand {vid} never made available")
        elif start_of[target] + 0.5 < ready + transfer:
            violations.append(
                f"instr {target} starts at {start_of[target]} before operand "
                f"{vid} is ready at {ready + transfer}")

    for kind, target in zip(movement.event_kind, movement.event_target):
        if kind == EXEC:
            a, b, o = in0[target], in1[target], out[target]
            # Operands must be delivered by this cycle.
            deadline = start_of[target] + 0.5 - transfer
            if deadline != INF:
                if deadline < avail[a]:
                    late(target, a)
                if b >= 0 and deadline < avail[b]:
                    late(target, b)
            avail[o] = end_of[target]
            if not resident[a]:
                violations.append(f"clobber: instr {target} reads non-resident {a}")
            if b >= 0 and not resident[b]:
                violations.append(f"clobber: instr {target} reads non-resident {b}")
            if not resident[o]:
                resident[o] = 1
                n_resident += 1
            for vid in (a,) if b < 0 else (a, b):
                left = users_left[vid] = users_left[vid] - 1
                if left <= 0 and resident[vid] and not is_output[vid]:
                    resident[vid] = 0
                    n_resident -= 1
        elif kind == LOAD:
            ends = load_ends.get(target)
            avail[target] = ends.pop() if ends else INF
            if not resident[target]:
                resident[target] = 1
                n_resident += 1
        elif resident[target]:   # evict / store
            resident[target] = 0
            n_resident -= 1
        if n_resident > peak:
            if n_resident > capacity >= peak:
                violations.append(
                    f"scratchpad capacity exceeded: {n_resident} resident "
                    f"> {capacity}"
                )
            peak = n_resident

    # --- 2. structural hazards ----------------------------------------------
    # Sort by (fu, cluster, unit, start), packed into one int key whose
    # per-unit stride exceeds every start + occupancy, so the only adjacent
    # pairs that can overlap are on the same unit.
    fu, cluster, unit = schedule.instr_fu, schedule.instr_cluster, schedule.instr_unit
    start, occ = schedule.instr_start, schedule.instr_occupancy
    if start:
        lo = min(start)
        stride = max(start) - lo + 1 + max(occ)
        clusters, units = max(cluster) + 1, max(unit) + 1
        key = [((f * clusters + c) * units + u) * stride + (s - lo)
               for f, c, u, s in zip(fu, cluster, unit, start)]
        by_unit = sorted(range(len(key)), key=key.__getitem__)
        keys = [key[i] for i in by_unit]
        reach = [key[i] + occ[i] for i in by_unit]
        for j in compress(count(1), map(lt, keys[1:], reach)):
            prev, cur = by_unit[j - 1], by_unit[j]
            violations.append(
                f"unit {(FU_FAMILIES[fu[cur]], cluster[cur], unit[cur])}: instr "
                f"{schedule.instr_id[cur]} issues at {start[cur]} inside "
                f"occupancy of {schedule.instr_id[prev]} "
                f"({start[prev]}+{occ[prev]})"
            )

    # --- 3. HBM bandwidth ----------------------------------------------------
    # Bandwidth occupancy is taken from each transfer's *recorded* window, not
    # re-derived from load_cycles (which mis-sized store transfers).  A load's
    # recorded end additionally includes the fixed HBM access latency, which
    # does not occupy the channel; subtract it to recover the occupancy end.
    latency = config.hbm_latency_cycles
    intervals = sorted(
        (start, end - latency if kind == LOAD_TRANSFER else end)
        for kind, start, end in zip(schedule.transfer_kind,
                                    schedule.transfer_start,
                                    schedule.transfer_end)
    )
    for (s0, e0), (s1, _e1) in zip(intervals, intervals[1:]):
        if s1 + 1e-6 < e0:
            violations.append(
                f"HBM oversubscribed: transfer at {s1} overlaps one ending {e0}"
            )

    return CheckReport(
        ok=not violations,
        violations=violations,
        instructions_checked=len(schedule.instr_id),
        transfers_checked=len(schedule.transfer_kind),
        peak_resident_rvecs=peak,
    )
