"""Record the golden fingerprints of the benchmark's workloads.

    python3 perfbench/record.py [workload ...]

Runs every cell of each workload (all by default) in canonical order,
once for the fingerprints and once timed as a run times it, and writes perfbench/golden/<workload>.json.  Per cell it holds
the checked fingerprint (status and generated/expanded/pruned counts)
and node-pass CSV row, and two unchecked figures: the largest frontier,
which orders the run, and the measured time `ref_s`, the weight a run
uses to project the whole sweep from the cells it reached.  Per workload
it holds the sha256 of the whole node-pass CSV.  The goldens come from
the engine as it is and are never edited by hand.  All three workloads take
about five minutes on two cores.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, _import_program


def main(argv: list[str]) -> int:
    _import_program()
    from perfbench import harness, speed
    from perfbench.workloads import SMALL_CELL_NODES, SMALL_CELL_REPEATS, WORKLOADS, cells

    names = argv or list(WORKLOADS)
    world = harness.build_world()
    for name in names:
        workload = WORKLOADS[name]
        all_cells = cells(workload, tuple(world.problems))
        # First pass: fingerprints and node counts, which pick the small cells.
        results = [harness.run_cell(world, workload, c) for c in all_cells]
        failed = [r for r in results if r.error]
        if failed:
            raise SystemExit(f"{name}: {failed[0].cell.key} raised {failed[0].error}")
        repeats = {r.cell.key: SMALL_CELL_REPEATS for r in results if r.fingerprint[1] < SMALL_CELL_NODES}
        # Second pass: timed exactly as a run times them.
        with speed.SpeedProbe() as probe:
            timed = harness.run_cells(world, workload, all_cells, float("inf"), probe, repeats)
        if [t.fingerprint for t in timed] != [r.fingerprint for r in results]:
            raise SystemExit(f"{name}: the timed pass gave other fingerprints")
        text = harness.workload_csv([r.record for r in results])
        rows = harness.csv_rows(text)
        golden = {
            "workload": name,
            "csv_sha256": harness.sha256(text),
            "cells": {
                r.cell.key: {
                    "status": r.fingerprint[0],
                    "generated": r.fingerprint[1],
                    "expanded": r.fingerprint[2],
                    "pruned": r.fingerprint[3],
                    "max_frontier": r.max_frontier,
                    "csv_row": rows[r.cell.key],
                    "ref_s": round(t.ref_seconds, 4),
                }
                for r, t in zip(results, timed)
            },
        }
        harness.golden_path(name).write_text(json.dumps(golden, indent=1) + "\n")
        nodes = sum(r.fingerprint[1] for r in results)
        seconds = sum(t.ref_seconds for t in timed)
        print(f"{name}: {len(results)} cells, {nodes} nodes, {seconds:.1f} s -> {harness.golden_path(name).relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
