"""Self-tests of the benchmark harness (run: python3 -m pytest perfbench)."""

from __future__ import annotations

import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import compile_sweep  # noqa: E402
import serving  # noqa: E402
from repro.bench.loadgen import linear_bgv_program, mixed_level_requests  # noqa: E402
from repro.serve import FheServer  # noqa: E402
from repro.serve.executor import ThreadExecutor  # noqa: E402


def _cheap_records(blocks):
    """Run the cheapest programs of the counted blocks, in list order."""
    records = []
    for b, block in enumerate(blocks[:compile_sweep.COUNT_BLOCKS]):
        cheap = [op for op in block if op.generator.startswith("lola_mnist")]
        records += compile_sweep.run_block(cheap, b)
    return records


def test_same_seed_same_operations_and_counts():
    first = compile_sweep.build_ops(7)
    again = compile_sweep.build_ops(7)
    assert ([op.describe() for b in first for op in b]
            == [op.describe() for b in again for op in b])
    assert ([op.key() for b in first for op in b]
            == [op.key() for b in again for op in b])
    other = compile_sweep.build_ops(8)
    assert ([op.describe() for b in first for op in b]
            != [op.describe() for b in other for op in b])
    counts = compile_sweep.exact_counts(_cheap_records(first))
    assert counts == compile_sweep.exact_counts(_cheap_records(again))
    assert all(value > 0 for value in counts.values())


def test_every_block_has_the_same_generator_mix():
    blocks = compile_sweep.build_ops(3)
    per_block = len(blocks[0])
    assert all(len(block) == per_block for block in blocks)
    assert sum(map(len, blocks)) >= 100   # enough samples for a p90
    generators = {op.generator for block in blocks for op in block}
    assert len(generators) == 7


class _Corrupting(serving.TimingExecutor):
    """Adds one to the first output value of the first request it runs."""

    def __init__(self, inner):
        super().__init__(inner)
        self.corrupted = False

    def execute(self, job):
        outputs, result = super().execute(job)
        if not self.corrupted and outputs:
            key = next(iter(outputs[0]))
            outputs[0][key] = np.array(outputs[0][key], copy=True)
            outputs[0][key][0] += 1
            self.corrupted = True
        return outputs, result


def _serve(executor) -> dict:
    program = linear_bgv_program(256)
    traffic = serving.Traffic(
        program, mixed_level_requests(program, 8, width=4, levels=(3, 2),
                                      seed=5), 4)
    with FheServer(workers=1, executor=executor, seed=5) as server:
        items = [serving.Sent(server, traffic, i) for i in range(8)]
        serving._drain(server, items)
        metrics, failed = serving.summarize(items, items[0].sent)
    executor.close()
    return metrics, failed


def test_correct_outputs_give_ok_frac_one():
    metrics, failed = _serve(serving.TimingExecutor(ThreadExecutor()))
    assert metrics["ok_frac"][0] == 1.0 and failed == 0


def test_corrupted_output_drops_ok_frac():
    metrics, failed = _serve(_Corrupting(ThreadExecutor()))
    assert metrics["ok_frac"][0] < 1.0
    assert failed == 1
