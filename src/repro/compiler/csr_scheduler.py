"""Baseline scheduler: Code Scheduling to minimize Register usage (CSR).

Goodman & Hsu's register-pressure-aware list scheduler [37], applied — as the
paper does in Sec. 8.3 — as the off-chip data-movement scheduler over the
full instruction dataflow graph, treating the scratchpad as the register
file.  The heuristic greedily picks, among ready instructions, the one that
releases the most live values (last uses) net of the value it creates; ties
break toward the original priority.

The paper finds this produces schedules with a large blowup of live
intermediates (it is blind to key-switch-hint reuse across homomorphic
operations) and therefore scratchpad thrashing — Table 5's 4.2x gmean
slowdown.  It is also computationally expensive; we keep the priority queue
implementation honest rather than micro-optimizing it.
"""

from __future__ import annotations

import heapq

from repro.core.isa import InstructionGraph


def csr_order(graph: InstructionGraph) -> list[int]:
    """Topological order minimizing live-value count, Goodman-Hsu style."""
    in0, in1, out, producer = graph.in0, graph.in1, graph.out, graph.producer
    count = graph.num_instructions
    offsets, users = graph.users_csr()
    remaining_uses = [offsets[v + 1] - offsets[v] for v in range(graph.num_values)]
    indegree = [0] * count
    for i in range(count):
        indegree[i] = (producer[in0[i]] >= 0) + (in1[i] >= 0 and producer[in1[i]] >= 0)

    def score(i: int) -> int:
        """Heap key of (negated net released values, original priority):
        an operand is released when this instruction holds all its
        remaining uses, and creating the output adds one live value."""
        a, b = in0[i], in1[i]
        if b < 0:
            released = remaining_uses[a] == 1
        elif a == b:
            released = remaining_uses[a] == 2
        else:
            released = (remaining_uses[a] == 1) + (remaining_uses[b] == 1)
        return (2 - released) * count + i

    ready = [score(i) for i in range(count) if indegree[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    emitted = [False] * count

    while ready:
        instr_id = heapq.heappop(ready) % count
        if emitted[instr_id]:
            continue
        # Scores go stale as uses retire; recompute lazily.
        current = score(instr_id)
        if ready and current > ready[0]:
            heapq.heappush(ready, current)
            continue
        emitted[instr_id] = True
        order.append(instr_id)
        remaining_uses[in0[instr_id]] -= 1
        if in1[instr_id] >= 0:
            remaining_uses[in1[instr_id]] -= 1
        o = out[instr_id]
        for user in users[offsets[o]:offsets[o + 1]]:
            indegree[user] -= 1
            if indegree[user] == 0:
                heapq.heappush(ready, score(user))
    if len(order) != count:
        raise ValueError("CSR scheduler failed to order all instructions")
    return order
