"""One benchmark for both halves of the F1 reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload compile_sweep --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each exists):

- ``compile_sweep``     compile + schedule + check + model, one program per op
- ``serve_ckks_closed`` closed-loop deep CKKS serving, thread executor
                        (runnable, but not in BENCHMARK.json: too host-bound)
- ``serve_mixed_open``  open-loop BGV/CKKS mix over two local worker hosts

With ``--trace 0`` the last stdout line is the end-to-end result; with
``--trace 1`` it holds the per-layer metrics, and the spans plus every
metric are also written to ``perfbench/out/``.  Progress goes to stderr.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 — timed from the first line
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("compile_sweep", "serve_ckks_closed", "serve_mixed_open")
SETUPS = 3   # set-ups per run; setup_s reports their median


def _per_layer_units() -> dict[str, str]:
    """Every traced run reports all per-layer metrics BENCHMARK.json names;
    a layer the workload does not exercise reads 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _use_checkout_src() -> None:
    """Put the repository's ``src`` on the path, or stop."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit(f"error: no src/repro under {ROOT}; run from a "
                         f"checkout of the repository")
    sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv=None) -> int:
    args = _parse(argv)
    _use_checkout_src()
    from common import environment, log, median, speed_factor, speed_probe, write_json

    if args.workload == "compile_sweep":
        import compile_sweep

        import_s = time.perf_counter() - _PROCESS_START
        # compile_sweep states all its times at the reference speed
        probe = speed_probe()
        import_s *= speed_factor(probe, probe)
        result = compile_sweep.run(args.seed, args.seconds, bool(args.trace),
                                   SETUPS)
    else:
        import serving

        import_s = time.perf_counter() - _PROCESS_START
        result = serving.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), SETUPS)
    setups = result["setup_repeat_s"]
    if not args.trace:
        table = {"setup_s": (import_s + median(setups), "s", len(setups))}
        table.update(result["end_to_end"])
        table["peak_rss_mb"] = (result["peak_rss_mb"], "MB", 1)
    else:
        layers = dict(result["per_layer"])
        traced, untraced = result["throughput_traced_untraced"]
        layers["trace.overhead_frac"] = ((untraced - traced) / untraced
                                         if untraced else 0.0)
        table = {name: (layers.get(name, 0.0), unit, None)
                 for name, unit in _per_layer_units().items()}
    metrics = {name: {"value": float(value), "unit": unit}
               for name, (value, unit, _) in table.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "operations": result["attempted"], "failed": result["failed"],
        "samples": {name: n for name, (_, _, n) in table.items()
                    if n is not None},
        "metrics": metrics,
        "raw_wall_time_metrics": {name: value for name, (value, _, _)
                                  in result.get("end_to_end_raw", {}).items()},
    }
    kind = "trace" if args.trace else "result"
    path = os.path.join(OUT_DIR, f"{kind}-{args.workload}-seed{args.seed}.json")
    write_json(path, {**report, "spans": result.get("spans", [])})
    log(f"{args.workload} seed {args.seed}: {result['attempted']} operations, "
        f"{result['failed']} failed; {report['environment']}")
    for name, (value, unit, samples) in table.items():
        count = f"  n={samples}" if samples is not None else ""
        log(f"  {name:28s} {value:16.4f} {unit:6s}{count}")
    for name, (value, unit, samples) in result.get("end_to_end_raw", {}).items():
        log(f"  raw {name:24s} {value:16.4f} {unit:6s}  n={samples}")
    log(f"  -> {path}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
