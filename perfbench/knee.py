"""One-off measurement: where ``serve_mixed_open`` stops keeping up.

Runs the ``serve_mixed_open`` traffic (same set-up, same server) at a
ladder of open-loop rates and reports, per rate, latency from due time,
how late the generator ran, and whether a backlog grew: the mean latency
of the last quarter of requests against the first quarter.  It ends with
the closed-loop rate on the same traffic, where the admission queue is
kept full.  Not a gated metric; the result is recorded in NOTES.md::

    python3 perfbench/knee.py --seed 1 --seconds 10
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import serving  # noqa: E402
from common import log, median, percentile  # noqa: E402

RATES = (50, 80, 110, 150, 200, 300)


def _quarter_means(items) -> tuple[float, float]:
    lat = [i.latency_ms for i in sorted(items, key=lambda i: i.due)
           if i.latency_ms is not None]
    q = max(1, len(lat) // 4)
    return sum(lat[:q]) / q, sum(lat[-q:]) / q


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    state = serving.setup_open(args.seed, trace=False)
    server, traffics = state["server"], state["traffic"]
    try:
        for rate in RATES:
            schedule = serving.arrival_schedule(args.seed, args.seconds, rate,
                                                len(traffics))
            items, start = serving.open_loop(server, traffics, schedule)
            metrics, failed = serving.summarize(items, start)
            first, last = _quarter_means(items)
            late = [(i.sent - i.due) * 1e3 for i in items]
            p99 = percentile([i.latency_ms for i in items
                              if i.latency_ms is not None], 99)
            log(f"{rate:4d} req/s: p50 {metrics['latency_p50_ms'][0]:7.1f} ms"
                f"  p99 {p99:7.1f} ms"
                f"  late p99 {percentile(late, 99):6.1f} ms"
                f"  mean latency first/last quarter {first:6.1f}/{last:6.1f} ms"
                f"  failed {failed}")
        count = 2048
        start = time.perf_counter()
        items = [serving.Sent(server, traffics[k % 2], k % serving.POOL)
                 for k in range(count)]
        serving._drain(server, items)
        elapsed = max(i.done_at for i in items) - start
        ok = sum(i.ok for i in items)
        log(f"closed loop (admission queue full): {ok / elapsed:.0f} req/s, "
            f"p50 {median([i.latency_ms for i in items]):.1f} ms, "
            f"{count - ok} misses")
    finally:
        serving.teardown(state)
    return 0


if __name__ == "__main__":
    sys.exit(main())
