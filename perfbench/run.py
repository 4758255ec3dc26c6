"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-costed --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports poclab from `src/` there.
Cells run in an order shuffled by the seed until `--seconds` have
passed, each checked against its golden fingerprint.  With `--trace 0`
no wrapper is installed and the run reports the end-to-end metrics;
with `--trace 1` it spends part of the time under the span tracer, runs
the same cells again untraced, replays fixed nodes, and reports the
per-layer metrics.  Spans and per-cell timings go to `.perfbench/`.  The last line of output is one JSON object; the exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# Share of --seconds spent in the traced pass; the untraced pass over the
# same cells and the replay take most of the rest.
TRACED_SHARE = 0.45


def _import_program():
    """Import poclab from this checkout's src/ and from nowhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import poclab
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import poclab from {src}: {exc}") from None
    if src.resolve() not in Path(poclab.__file__).resolve().parents:
        raise SystemExit(f"perfbench: poclab was imported from {poclab.__file__}, not {src}")


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit, *note) in metrics.items():
        print(f"{name} {value} {unit}" + (f"  ({note[0]})" if note else ""))


def timed_run(workload, golden, order, seconds) -> tuple[dict, int, dict]:
    from perfbench import harness, speed
    from perfbench.workloads import SMALL_CELL_NODES, SMALL_CELL_REPEATS

    setup_s = harness.measure_setup()
    world = harness.build_world()
    repeats = {k: SMALL_CELL_REPEATS for k, g in golden["cells"].items() if g["generated"] < SMALL_CELL_NODES}
    with speed.SpeedProbe() as probe:
        results = harness.run_cells(world, workload, order, seconds, probe, repeats)
    chk = harness.check(results, golden)
    metrics = harness.end_to_end(results, golden, chk, setup_s, harness.peak_rss_mb())
    harness.write_cells(results, OUT_DIR / f"cells-{workload.name}.json")
    failures = dict(chk.failures)
    if not chk.csv_ok:
        failures["csv"] = "workload CSV hash differs"
    # every cell, plus the workload CSV
    return metrics, len(results) + 1, failures


def traced_run(workload, golden, order, seconds) -> tuple[dict, int, dict]:
    from perfbench import harness, replay, tracing

    snap = tracing.snapshot()
    tracer = tracing.Tracer()
    with tracer.installed():
        world = harness.build_world()
        traced = harness.run_cells(world, workload, order, seconds * TRACED_SHARE)
        traced_chk = harness.check(traced, golden)
    failures = {f"traced {k}": v for k, v in traced_chk.failures.items()}
    if not traced_chk.csv_ok:
        failures["traced csv"] = "workload CSV hash differs"
    leaked = tracing.leaks(snap)
    if leaked:
        failures["wrappers"] = f"not restored: {', '.join(leaked)}"
    # The same cells again without the tracer: the overhead's baseline,
    # and proof that no wrapper changed what the search does.
    untraced = [harness.run_cell(world, workload, r.cell) for r in traced]
    untraced_chk = harness.check(untraced, golden)
    failures |= untraced_chk.failures
    if not untraced_chk.csv_ok:
        failures["csv"] = "workload CSV hash differs"
    try:
        replay_us = replay.replay(world, workload)
    except AssertionError as exc:
        failures["replay"] = str(exc)
        replay_us = {}
    tracer.write(OUT_DIR / f"spans-{workload.name}.bin")
    metrics = tracing.layer_metrics(tracer.aggregate(), traced, untraced, replay_us)
    # every cell twice, plus both workload CSVs, the wrappers and the replay
    return metrics, 2 * len(traced) + 4, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from perfbench import harness
    from perfbench.workloads import WORKLOADS, cells, run_order

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (have: {', '.join(WORKLOADS)})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    golden = harness.load_golden(workload.name)
    problems = tuple(harness.build_world().problems)
    all_cells = cells(workload, problems)
    if {c.key for c in all_cells} != set(golden["cells"]):
        raise SystemExit(f"perfbench: golden cells of {workload.name} do not match the workload")
    order = run_order(all_cells, golden["cells"], args.seed)
    nodes = sum(g["generated"] for g in golden["cells"].values())

    print("machine " + json.dumps(harness.machine(args.seed)))
    print(f"workload {workload.name}: {len(all_cells)} cells, {nodes} golden nodes")
    t0 = time.perf_counter()
    run = traced_run if args.trace else timed_run
    metrics, attempted, failures = run(workload, golden, order, args.seconds)
    for what, why in failures.items():
        print(f"FAILED {what}: {why}")
    print(f"error_rate {len(failures) / attempted} ratio  ({len(failures)} of {attempted} attempted)")
    _print_metrics(metrics)
    print(f"run_s {time.perf_counter() - t0:.3f} s")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
