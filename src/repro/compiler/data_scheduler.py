"""Compiler phase 2: off-chip data-movement scheduling (Sec. 4.3).

Works against a simplified machine — a scratchpad of C residue-vector slots
directly feeding functional units.  Instructions are visited in phase-1
priority order (they are already topologically sorted); for each one, absent
operands are loaded, space is made by evicting the resident value with the
furthest next use (the Belady-style policy of Sec. 4.3: next use estimated
from the priorities of unissued users), and dirty evictions append spill
stores.  The output is an ordered event list (LOAD / EXEC / STORE) that
phase 3 turns into cycles — with loads annotated with the event that freed
their slot, so cycle scheduling can hoist them as early as capacity allows
(decoupled data orchestration, Sec. 3).

Traffic is classified as in Fig. 9a: key-switch hints, inputs, and plaintext
operands split into compulsory (first touch) and non-compulsory (capacity)
loads; intermediate fills and spill stores are always non-compulsory.

The event list is stored as three parallel int columns (kind code, target,
freeing event); :class:`Event` records are materialised on request.  Each
value's remaining users are kept as a run of visit positions in one flat
array with a head pointer per value, and the eviction heap holds plain ints
that encode (furthest next use, lowest value id) order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.core.config import F1Config
from repro.core.isa import InstructionGraph, RowView, ValueKind, VALUE_KINDS, columns_from

#: event kind codes: ``movement.event_kind[i]`` indexes EVENT_KINDS
LOAD, EXEC, STORE, EVICT = range(4)
EVENT_KINDS = ("load", "exec", "store", "evict")
_EVENT_CODE = {k: i for i, k in enumerate(EVENT_KINDS)}

_KSH = VALUE_KINDS.index(ValueKind.KSH)
_INPUT = VALUE_KINDS.index(ValueKind.INPUT)
_PLAIN = VALUE_KINDS.index(ValueKind.PLAIN)


@dataclass
class Event:
    kind: str                 # "load" | "exec" | "store" | "evict"
    target: int               # value id (load/store/evict) or instr id (exec)
    frees_slot_of: int | None = None   # event index whose completion freed space


def _event(kind: int, target: int, frees: int) -> Event:
    return Event(EVENT_KINDS[kind], target, None if frees < 0 else frees)


def _event_row(e: Event) -> tuple[int, int, int]:
    return (_EVENT_CODE[e.kind], e.target,
            -1 if e.frees_slot_of is None else e.frees_slot_of)


@dataclass
class TrafficStats:
    """Per-category off-chip traffic in residue-vector units."""

    ksh_compulsory: int = 0
    ksh_capacity: int = 0
    input_compulsory: int = 0
    input_capacity: int = 0
    plain_compulsory: int = 0
    plain_capacity: int = 0
    intermediate_loads: int = 0
    intermediate_stores: int = 0
    output_stores: int = 0

    def total_rvecs(self) -> int:
        return (
            self.ksh_compulsory + self.ksh_capacity
            + self.input_compulsory + self.input_capacity
            + self.plain_compulsory + self.plain_capacity
            + self.intermediate_loads + self.intermediate_stores
            + self.output_stores
        )

    def breakdown(self, rvec_bytes: int) -> dict:
        """Fig. 9a categories, in bytes."""
        return {
            "ksh_compulsory": self.ksh_compulsory * rvec_bytes,
            "ksh_capacity": self.ksh_capacity * rvec_bytes,
            "input_compulsory": self.input_compulsory * rvec_bytes,
            "input_capacity": self.input_capacity * rvec_bytes,
            "plain_compulsory": self.plain_compulsory * rvec_bytes,
            "plain_capacity": self.plain_capacity * rvec_bytes,
            "intermediate_loads": self.intermediate_loads * rvec_bytes,
            "intermediate_stores": (self.intermediate_stores + self.output_stores)
            * rvec_bytes,
        }


@dataclass
class DataMovementSchedule:
    """The phase-2 event list as columns: ``event_kind[i]`` (an EVENT_KINDS
    code), ``event_target[i]`` and ``event_frees[i]`` (the event whose
    completion freed this event's slot, ``-1`` for none)."""

    event_kind: list[int]
    event_target: list[int]
    event_frees: list[int]
    traffic: TrafficStats
    capacity_rvecs: int
    order: list[int] = field(default_factory=list)  # instruction order used
    outputs: set[int] = field(default_factory=set)  # program output values

    @property
    def events(self) -> RowView:
        """The event list as :class:`Event` records (item-assignable)."""
        return RowView((self.event_kind, self.event_target, self.event_frees),
                       _event, _event_row)

    @events.setter
    def events(self, events) -> None:
        self.event_kind, self.event_target, self.event_frees = columns_from(
            events, _event_row, 3)


def schedule_data_movement(
    graph: InstructionGraph,
    outputs: set[int],
    config: F1Config,
    *,
    order: list[int] | None = None,
) -> DataMovementSchedule:
    """Greedy scheduling with furthest-next-use eviction.

    ``order`` overrides the instruction visit order (used by the CSR baseline);
    it must be a topological order of the graph.
    """
    in0, in1, out = graph.in0, graph.in1, graph.out
    value_kind = graph.value_kind
    nvalues = graph.num_values
    if order is None:
        order = list(range(graph.num_instructions))
    # Remaining users of value v, as visit positions in ascending order:
    # upos[head[v]:end[v]]; the next use is upos[head[v]].
    offsets, users = graph.users_csr()
    if order == list(range(len(order))):
        upos = users            # CSR users are in instruction order already
    else:
        position_of = [0] * graph.num_instructions
        for pos, instr_id in enumerate(order):
            position_of[instr_id] = pos
        upos = [position_of[u] for u in users]
        for v in range(nvalues):
            lo, hi = offsets[v], offsets[v + 1]
            if hi - lo > 1:
                upos[lo:hi] = sorted(upos[lo:hi])
    head = offsets[:-1]
    end = offsets[1:]
    # No use left: sorts before every position in the eviction order.
    never = len(order)

    capacity = graph_capacity(graph, config)
    is_output = bytearray(nvalues)
    for vid in outputs:
        is_output[vid] = 1
    # 0 = not resident, 1 = resident clean, 2 = resident dirty
    resident = bytearray(nvalues)
    n_resident = 0
    touched = bytearray(nvalues)            # values loaded at least once
    spilled = bytearray(nvalues)            # intermediates with off-chip copy
    ev_kind: list[int] = []
    ev_target: list[int] = []
    ev_frees: list[int] = []
    # Traffic counters, indexed by value kind: [compulsory, capacity].
    loads = {_KSH: [0, 0], _INPUT: [0, 0], _PLAIN: [0, 0]}
    intermediate_loads = intermediate_stores = output_stores = 0
    # Eviction heap keys (never - next_use) * nvalues + vid: the furthest
    # next use pops first, ties to the lowest value id.  ``evict_key`` holds
    # each value's current key; heap entries may be stale.
    evict_key = [(never - (upos[h] if h < e else never)) * nvalues + vid
                 for vid, (h, e) in enumerate(zip(head, end))]
    evict_heap: list[int] = []
    heappush, heappop = heapq.heappush, heapq.heappop

    def make_space(a: int, b: int, o: int) -> int:
        """Evict until a slot is free; returns the freeing event index.
        ``a``, ``b`` and ``o`` (the current instruction's operands and
        result) are pinned."""
        nonlocal n_resident, intermediate_stores, output_stores
        while n_resident >= capacity:
            while True:
                if not evict_heap:
                    pinned = len({a, o} if b < 0 else {a, b, o})
                    raise RuntimeError(
                        "scratchpad thrashing: everything resident is pinned "
                        f"(capacity {capacity}, pinned {pinned})"
                    )
                k = heappop(evict_heap)
                vid = k % nvalues
                if not resident[vid] or vid == a or vid == b or vid == o:
                    continue
                if k != evict_key[vid]:
                    heappush(evict_heap, evict_key[vid])  # stale; refresh
                    continue
                break
            dirty = resident[vid] == 2
            resident[vid] = 0
            n_resident -= 1
            live = head[vid] < end[vid]
            if dirty and (live or is_output[vid]):
                # Live intermediate: spill it so it can be refilled later.
                ev_kind.append(STORE)
                if is_output[vid] and not live:
                    output_stores += 1
                else:
                    intermediate_stores += 1
                    spilled[vid] = 1
            else:
                # Clean (or dead) copy: drop it; the explicit event lets the
                # cycle scheduler know when the slot actually becomes free.
                ev_kind.append(EVICT)
            ev_target.append(vid)
            ev_frees.append(-1)
        return len(ev_kind) - 1

    for pos, instr_id in enumerate(order):
        a, b, o = in0[instr_id], in1[instr_id], out[instr_id]
        # Load missing operands.
        for vid in (a,) if b < 0 or b == a else (a, b):
            if resident[vid]:
                continue
            vk = value_kind[vid]
            if vk in loads:
                loads[vk][1 if touched[vid] else 0] += 1
                touched[vid] = 1
            elif spilled[vid]:
                intermediate_loads += 1
            else:
                raise RuntimeError(
                    f"instr {instr_id} needs value {vid} which is neither "
                    "resident nor recoverable (order not topological?)"
                )
            free_evt = make_space(a, b, o) if n_resident >= capacity else -1
            ev_kind.append(LOAD)
            ev_target.append(vid)
            ev_frees.append(free_evt)
            resident[vid] = 1
            n_resident += 1
            heappush(evict_heap, evict_key[vid])
        # Space for the result.
        free_evt = make_space(a, b, o) if n_resident >= capacity else -1
        ev_kind.append(EXEC)
        ev_target.append(instr_id)
        ev_frees.append(free_evt)
        resident[o] = 2  # produced on-chip: dirty
        n_resident += 1
        heappush(evict_heap, evict_key[o])
        # Retire this use; free dead values (no store needed).
        for vid in (a,) if b < 0 or b == a else (a, b):
            h, e = head[vid], end[vid]
            while h < e and upos[h] == pos:
                h += 1
            head[vid] = h
            evict_key[vid] = (never - (upos[h] if h < e else never)) * nvalues + vid
            if h == e and resident[vid] and not is_output[vid]:
                resident[vid] = 0
                n_resident -= 1
            elif resident[vid]:
                heappush(evict_heap, evict_key[vid])

    # Store surviving outputs.
    for vid in sorted(outputs):
        if resident[vid] == 2:
            ev_kind.append(STORE)
            ev_target.append(vid)
            ev_frees.append(-1)
            output_stores += 1
    traffic = TrafficStats(
        ksh_compulsory=loads[_KSH][0], ksh_capacity=loads[_KSH][1],
        input_compulsory=loads[_INPUT][0], input_capacity=loads[_INPUT][1],
        plain_compulsory=loads[_PLAIN][0], plain_capacity=loads[_PLAIN][1],
        intermediate_loads=intermediate_loads,
        intermediate_stores=intermediate_stores, output_stores=output_stores,
    )
    return DataMovementSchedule(
        event_kind=ev_kind, event_target=ev_target, event_frees=ev_frees,
        traffic=traffic, capacity_rvecs=capacity, order=order,
        outputs=set(outputs),
    )


def graph_capacity(graph: InstructionGraph, config: F1Config) -> int:
    capacity = config.scratchpad_capacity_rvecs(graph.n)
    if capacity < 8:
        raise ValueError("scratchpad too small for even a few residue vectors")
    return capacity
