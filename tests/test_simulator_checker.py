"""The checker must catch corrupted schedules (repro.sim.simulator)."""

import dataclasses

import pytest

from repro.compiler.hecompiler import compile_to_instructions
from repro.compiler.data_scheduler import Event, schedule_data_movement
from repro.compiler.cycle_scheduler import schedule_cycles
from repro.core.config import F1Config
from repro.dsl.program import Program
from repro.sim.simulator import check_schedule


@pytest.fixture(scope="module")
def pieces():
    p = Program(n=2048, name="checker")
    x, y = p.input(3), p.input(3)
    p.output(p.rotate(p.mul(x, y), 1))
    cfg = F1Config()
    translation = compile_to_instructions(p)
    movement = schedule_data_movement(translation.graph, translation.outputs, cfg)
    schedule = schedule_cycles(translation.graph, movement, cfg)
    return translation, movement, schedule, cfg


def test_valid_schedule_passes(pieces):
    translation, movement, schedule, cfg = pieces
    report = check_schedule(translation.graph, movement, schedule, cfg)
    assert report.ok, report.violations[:3]
    assert report.peak_resident_rvecs > 0


def test_detects_dependence_violation(pieces):
    translation, movement, schedule, cfg = pieces
    # Yank a late instruction to cycle 0: its operands can't be ready.
    hacked = dataclasses.replace(schedule)
    victim_idx = len(hacked.instrs) - 1
    victim = hacked.instrs[victim_idx]
    hacked.instrs = list(hacked.instrs)
    hacked.instrs[victim_idx] = dataclasses.replace(victim, start=0, end=1)
    report = check_schedule(translation.graph, movement, hacked, cfg)
    assert not report.ok
    assert any("before operand" in v for v in report.violations)


def test_detects_structural_hazard(pieces):
    translation, movement, schedule, cfg = pieces
    hacked = dataclasses.replace(schedule)
    hacked.instrs = list(hacked.instrs)
    # Force two instructions onto the same unit at the same cycle.
    first = hacked.instrs[0]
    clash = None
    for i, s in enumerate(hacked.instrs[1:], start=1):
        if s.fu == first.fu:
            clash = i
            break
    assert clash is not None
    hacked.instrs[clash] = dataclasses.replace(
        hacked.instrs[clash],
        start=first.start,
        end=first.start + hacked.instrs[clash].occupancy,
        cluster=first.cluster,
        unit=first.unit,
    )
    report = check_schedule(translation.graph, movement, hacked, cfg)
    assert not report.ok


def test_detects_hbm_oversubscription(pieces):
    translation, movement, schedule, cfg = pieces
    hacked = dataclasses.replace(schedule)
    hacked.transfers = list(hacked.transfers)
    if len(hacked.transfers) >= 2:
        a = hacked.transfers[0]
        hacked.transfers[1] = dataclasses.replace(
            hacked.transfers[1], start=a.start, end=a.end
        )
        report = check_schedule(translation.graph, movement, hacked, cfg)
        assert any("HBM" in v for v in report.violations)


def test_store_durations_checked_from_recorded_end(pieces):
    """Stores must be serialized by their *recorded* end, not load_cycles.

    Regression: the checker used to size every transfer as load_cycles, so a
    store occupying the channel longer than that slipped past the HBM
    serialization check."""
    translation, movement, schedule, cfg = pieces
    from repro.compiler.cycle_scheduler import ScheduledTransfer

    load_cycles = cfg.load_cycles(translation.graph.n)
    hacked = dataclasses.replace(schedule)
    # A store-heavy tail: store0 occupies [1000, 1000 + 3*load_cycles) but the
    # next store is issued as if it only took load_cycles — a real overlap
    # that the load_cycles-based check cannot see.
    hacked.transfers = list(schedule.transfers) + [
        ScheduledTransfer("store", 9001, 1000.0, 1000.0 + 3 * load_cycles),
        ScheduledTransfer("store", 9002, 1000.0 + load_cycles,
                          1000.0 + 2 * load_cycles),
    ]
    report = check_schedule(translation.graph, movement, hacked, cfg)
    assert any("HBM" in v for v in report.violations)


def test_store_heavy_schedule_with_correct_spacing_passes(pieces):
    translation, movement, schedule, cfg = pieces
    from repro.compiler.cycle_scheduler import ScheduledTransfer

    load_cycles = cfg.load_cycles(translation.graph.n)
    end = max((tr.end for tr in schedule.transfers), default=0.0)
    hacked = dataclasses.replace(schedule)
    # Back-to-back stores of the recorded duration: no overlap, no violation.
    hacked.transfers = list(schedule.transfers) + [
        ScheduledTransfer("store", 9001, end + 10, end + 10 + load_cycles),
        ScheduledTransfer("store", 9002, end + 10 + load_cycles,
                          end + 10 + 2 * load_cycles),
    ]
    report = check_schedule(translation.graph, movement, hacked, cfg)
    assert report.ok, report.violations[:3]


def test_detects_clobber(pieces):
    translation, movement, schedule, cfg = pieces
    hacked_movement = dataclasses.replace(movement)
    hacked_movement.events = [
        e for e in movement.events if e.kind != "load"
    ]
    report = check_schedule(translation.graph, hacked_movement, schedule, cfg)
    assert not report.ok
    assert any("clobber" in v for v in report.violations)


def test_raise_if_failed(pieces):
    translation, movement, schedule, cfg = pieces
    hacked_movement = dataclasses.replace(movement)
    hacked_movement.events = [e for e in movement.events if e.kind != "load"]
    report = check_schedule(translation.graph, hacked_movement, schedule, cfg)
    with pytest.raises(AssertionError):
        report.raise_if_failed()


# --------------------------------------------------------------------------
# Operand delivery: the network transfer and refills of spilled values.

def _deliveries(graph, movement, schedule):
    """instr id -> {operand: completion of its latest delivery before the
    use} (the producing instruction, or the load that last brought it in).
    Load and store events are served by the transfers in issue order."""
    end_of = {s.instr_id: s.end for s in schedule.instrs}
    transfers = iter(schedule.transfers)
    latest, via_load, out = {}, {}, {}
    for e in movement.events:
        if e.kind in ("load", "store"):
            tr = next(transfers)
            if e.kind == "load":
                latest[e.target], via_load[e.target] = tr.end, True
        elif e.kind == "exec":
            instr = graph.instructions[e.target]
            out[e.target] = {v: (latest[v], via_load[v]) for v in instr.inputs}
            latest[instr.output] = end_of[e.target]
            via_load[instr.output] = False
    return out


def _move(schedule, victim, start):
    """A copy of ``schedule`` with ``victim`` issued at ``start`` on a unit
    nothing else uses, so no structural hazard hides the dependence."""
    hacked = dataclasses.replace(schedule)
    records = list(schedule.instrs)
    idx = next(i for i, s in enumerate(records) if s.instr_id == victim.instr_id)
    spare = max(s.unit for s in records) + 1
    records[idx] = dataclasses.replace(
        victim, start=start, end=start + (victim.end - victim.start), unit=spare)
    hacked.instrs = records
    return hacked


def test_detects_start_inside_transfer_window(pieces):
    """An instruction issued when its producer completes, before the operand
    crosses the on-chip network, is a missed dependence."""
    translation, movement, schedule, cfg = pieces
    graph = translation.graph
    transfer = cfg.transfer_cycles(graph.n)
    deliveries = _deliveries(graph, movement, schedule)
    for victim in schedule.instrs:
        operands = deliveries[victim.instr_id]
        produced = [v for v, (_, by_load) in operands.items() if not by_load]
        if not produced:
            continue
        v = produced[0]
        at = operands[v][0]
        if all(t + transfer <= at for u, (t, _) in operands.items() if u != v):
            break
    else:
        pytest.fail("no instruction with an on-chip operand")
    report = check_schedule(graph, movement, _move(schedule, victim, at), cfg)
    assert not report.ok
    assert any(f"instr {victim.instr_id} starts at {at} before operand {v} " in m
               for m in report.violations)


@pytest.fixture(scope="module")
def spilled():
    """A program squeezed into 128 RVec slots: intermediates spill and are
    refilled before their later uses."""
    p = Program(n=2048, name="spill")
    hs = [p.input(6) for _ in range(3)]
    v = p.input(6)
    for h in hs:
        acc = p.mul(h, v)
        p.output(p.add(acc, p.rotate(acc, 1)))
    cfg = F1Config(scratchpad_mb=1)
    translation = compile_to_instructions(p)
    movement = schedule_data_movement(translation.graph, translation.outputs, cfg)
    schedule = schedule_cycles(translation.graph, movement, cfg)
    assert movement.traffic.intermediate_loads > 0
    return translation, movement, schedule, cfg


def test_spilling_schedule_passes(spilled):
    translation, movement, schedule, cfg = spilled
    report = check_schedule(translation.graph, movement, schedule, cfg)
    assert report.ok, report.violations[:3]


def test_detects_read_before_refill(spilled):
    """A spilled value is available again only when its refill completes,
    however early its producer finished."""
    translation, movement, schedule, cfg = spilled
    graph = translation.graph
    transfer = cfg.transfer_cycles(graph.n)
    end_of = {s.instr_id: s.end for s in schedule.instrs}
    deliveries = _deliveries(graph, movement, schedule)
    for victim in schedule.instrs:
        operands = deliveries[victim.instr_id]
        refilled = [v for v, (_, by_load) in operands.items()
                    if by_load and graph.values[v].producer is not None]
        if not refilled:
            continue
        v = refilled[0]
        at = max([end_of[graph.values[v].producer] + transfer]
                 + [t + transfer for u, (t, _) in operands.items() if u != v])
        if at < operands[v][0] + transfer:
            break
    else:
        pytest.fail("no use of a refilled value")
    report = check_schedule(graph, movement, _move(schedule, victim, at), cfg)
    assert not report.ok
    assert any(f"instr {victim.instr_id} starts at {at} before operand {v} " in m
               for m in report.violations)
