"""Compiler phase 3: cycle-level scheduling (Sec. 4.4).

Consumes the phase-2 event list and the full architecture description, and
assigns every load, store, and instruction a start cycle, a cluster, and a
functional unit, respecting:

- data dependences (operands ready, plus a bank->cluster transfer);
- functional-unit structural hazards (each unit is fully pipelined with a
  fixed occupancy per residue vector — new ops can issue every
  ``occupancy`` cycles, results appear after ``latency``);
- aggregate HBM bandwidth (loads/stores serialize on bytes/cycle) and load
  latency;
- scratchpad capacity (a load may not complete before the event that freed
  its slot has completed — phase 2 annotates this), while otherwise hoisting
  loads as early as bandwidth allows (decoupled data orchestration).

Because the schedule is fully static, the resulting makespan *is* the
performance number (Sec. 4.4: "our scheduler also doubles as a performance
measurement tool"); the independent checker in :mod:`repro.sim.simulator`
re-validates it.

Implementation: the per-kind FU family, occupancy and latency are looked up
once per schedule; each FU family is one flat free-time list in (cluster,
unit) order; value readiness and last-use times are lists indexed by value
id.  The pick rule is greedy earliest start: the first unit in (cluster,
unit) order that is free by the ready time, else the first unit with the
earliest free time.  The result is stored as parallel columns;
:class:`ScheduledInstr` / :class:`ScheduledTransfer` records are
materialised on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count

from repro.compiler.data_scheduler import EVICT, EXEC, LOAD, DataMovementSchedule
from repro.core.config import F1Config
from repro.core.isa import INSTR_KINDS, InstructionGraph, RowView, columns_from

#: FU family codes: ``schedule.instr_fu[i]`` indexes FU_FAMILIES
FU_FAMILIES = ("ntt", "aut", "mul", "add")
_FU_CODE = {fu: i for i, fu in enumerate(FU_FAMILIES)}
#: transfer kind codes: ``schedule.transfer_kind[i]`` indexes TRANSFER_KINDS
LOAD_TRANSFER, STORE_TRANSFER = range(2)
TRANSFER_KINDS = ("load", "store")
_TRANSFER_CODE = {k: i for i, k in enumerate(TRANSFER_KINDS)}


@dataclass
class ScheduledInstr:
    instr_id: int
    start: int
    end: int          # result-available cycle
    cluster: int
    unit: int
    fu: str
    occupancy: int


@dataclass
class ScheduledTransfer:
    kind: str         # "load" | "store"
    value_id: int
    start: float
    end: float


def _instr(i, start, end, cluster, unit, fu, occupancy) -> ScheduledInstr:
    return ScheduledInstr(i, start, end, cluster, unit, FU_FAMILIES[fu], occupancy)


def _instr_row(s: ScheduledInstr) -> tuple:
    return (s.instr_id, s.start, s.end, s.cluster, s.unit, _FU_CODE[s.fu],
            s.occupancy)


def _transfer(kind, value_id, start, end) -> ScheduledTransfer:
    return ScheduledTransfer(TRANSFER_KINDS[kind], value_id, start, end)


def _transfer_row(t: ScheduledTransfer) -> tuple:
    return (_TRANSFER_CODE[t.kind], t.value_id, t.start, t.end)


@dataclass
class CycleSchedule:
    """A static schedule as columns.  Per scheduled instruction, in issue
    order: ``instr_id``, ``instr_start``, ``instr_end`` (result-available
    cycle), ``instr_cluster``, ``instr_unit``, ``instr_fu`` (a FU_FAMILIES
    code) and ``instr_occupancy``.  Per HBM transfer, in issue order:
    ``transfer_kind`` (a TRANSFER_KINDS code), ``transfer_value``,
    ``transfer_start`` and ``transfer_end``."""

    makespan: int
    config: F1Config
    n: int
    instr_id: list[int]
    instr_start: list[int]
    instr_end: list[int]
    instr_cluster: list[int]
    instr_unit: list[int]
    instr_fu: list[int]
    instr_occupancy: list[int]
    transfer_kind: list[int]
    transfer_value: list[int]
    transfer_start: list[float]
    transfer_end: list[float]
    fu_busy_cycles: dict = field(default_factory=dict)   # fu kind -> cycles
    hbm_busy_cycles: float = 0.0

    @property
    def instrs(self) -> RowView:
        """Scheduled instructions as :class:`ScheduledInstr` records."""
        return RowView((self.instr_id, self.instr_start, self.instr_end,
                        self.instr_cluster, self.instr_unit, self.instr_fu,
                        self.instr_occupancy), _instr, _instr_row)

    @instrs.setter
    def instrs(self, records) -> None:
        (self.instr_id, self.instr_start, self.instr_end, self.instr_cluster,
         self.instr_unit, self.instr_fu, self.instr_occupancy) = columns_from(
            records, _instr_row, 7)

    @property
    def transfers(self) -> RowView:
        """HBM transfers as :class:`ScheduledTransfer` records."""
        return RowView((self.transfer_kind, self.transfer_value,
                        self.transfer_start, self.transfer_end),
                       _transfer, _transfer_row)

    @transfers.setter
    def transfers(self, records) -> None:
        (self.transfer_kind, self.transfer_value, self.transfer_start,
         self.transfer_end) = columns_from(records, _transfer_row, 4)

    @property
    def time_ms(self) -> float:
        return self.makespan / (self.config.frequency_ghz * 1e9) * 1e3

    def fu_utilization(self) -> dict:
        out = {}
        for fu, busy in self.fu_busy_cycles.items():
            units = self.config.fu_count(fu)
            out[fu] = busy / max(1, self.makespan * units)
        return out

    def hbm_utilization(self) -> float:
        return self.hbm_busy_cycles / max(1, self.makespan)


def schedule_cycles(
    graph: InstructionGraph,
    movement: DataMovementSchedule,
    config: F1Config,
) -> CycleSchedule:
    n = graph.n
    in0, in1, out, kind = graph.in0, graph.in1, graph.out, graph.kind
    # (fu code, occupancy, latency) per instruction kind, and per FU family
    # one free-time list over its units in (cluster, unit) order.
    kind_fu, kind_occ, kind_lat = [], [], []
    for k in INSTR_KINDS:
        fu = k.fu
        kind_fu.append(_FU_CODE[fu])
        kind_occ.append(config.fu_occupancy(fu, n))
        kind_lat.append(config.fu_latency(k.value if fu == "ntt" else fu, n))
    per_cluster = [getattr(config, fu).count for fu in FU_FAMILIES]
    free_at = [[0] * (units * config.clusters) for units in per_cluster]

    value_ready = [0.0] * graph.num_values
    last_use_end = [0.0] * graph.num_values
    event_end: list[float] = [0.0] * len(movement.event_kind)
    hbm_next_free = 0.0
    hbm_busy = 0.0
    load_cycles = config.load_cycles(n)
    transfer = config.transfer_cycles(n)
    latency_hbm = config.hbm_latency_cycles

    s_id, s_start, s_end, s_cluster, s_unit, s_fu, s_occ = ([] for _ in range(7))
    t_kind, t_value, t_start, t_end = [], [], [], []
    makespan = 0.0

    for idx, (ek, target, frees) in enumerate(
            zip(movement.event_kind, movement.event_target, movement.event_frees)):
        if ek == EXEC:
            k = kind[target]
            fu, occupancy = kind_fu[k], kind_occ[k]
            a, b, o = in0[target], in1[target], out[target]
            ready = value_ready[a]
            if b >= 0 and value_ready[b] > ready:
                ready = value_ready[b]
            # Operand delivery over the on-chip network.
            ready = int(round(ready + transfer))
            # The first unit in (cluster, unit) order free by ``ready``.
            free = free_at[fu]
            unit = next(compress(count(), map(ready.__ge__, free)), -1)
            if unit < 0:          # every unit busy at ``ready``
                start = min(free)
                unit = free.index(start)
            else:
                start = ready
            free[unit] = start + occupancy
            end = start + kind_lat[k]
            value_ready[o] = end
            event_end[idx] = end
            if end > last_use_end[a]:
                last_use_end[a] = end
            if b >= 0 and end > last_use_end[b]:
                last_use_end[b] = end
            if end > last_use_end[o]:
                last_use_end[o] = end
            cluster, unit = divmod(unit, per_cluster[fu])
            s_id.append(target)
            s_start.append(start)
            s_end.append(end)
            s_cluster.append(cluster)
            s_unit.append(unit)
            s_fu.append(fu)
            s_occ.append(occupancy)
            if end > makespan:
                makespan = end
        elif ek == EVICT:
            # The slot is free once the victim's last scheduled use completes.
            event_end[idx] = last_use_end[target]
        elif ek == LOAD:
            earliest = event_end[frees] if frees >= 0 else 0.0
            start = max(hbm_next_free, earliest)
            hbm_next_free = start + load_cycles
            hbm_busy += load_cycles
            end = start + load_cycles + latency_hbm
            value_ready[target] = end
            event_end[idx] = end
            t_kind.append(LOAD_TRANSFER)
            t_value.append(target)
            t_start.append(start)
            t_end.append(end)
        else:  # store
            start = max(hbm_next_free, value_ready[target])
            hbm_next_free = start + load_cycles
            hbm_busy += load_cycles
            end = start + load_cycles
            event_end[idx] = end
            t_kind.append(STORE_TRANSFER)
            t_value.append(target)
            t_start.append(start)
            t_end.append(end)
            makespan = max(makespan, end)

    fu_busy = {fu: s_fu.count(code) * config.fu_occupancy(fu, n)
               for code, fu in enumerate(FU_FAMILIES)}
    return CycleSchedule(
        makespan=int(round(makespan)),
        config=config,
        n=n,
        instr_id=s_id, instr_start=s_start, instr_end=s_end,
        instr_cluster=s_cluster, instr_unit=s_unit, instr_fu=s_fu,
        instr_occupancy=s_occ,
        transfer_kind=t_kind, transfer_value=t_value,
        transfer_start=t_start, transfer_end=t_end,
        fu_busy_cycles=fu_busy,
        hbm_busy_cycles=hbm_busy,
    )
