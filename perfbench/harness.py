"""Running cells, checking them against the golden fingerprints, and
turning timings into the end-to-end metrics.

Each cell is timed from outside with one call to
`poclab.search.plan_search`.  The harness reaches the program only
through module attributes (`search.plan_search`, `bench.render_csv`,
...), so the tracer's wrappers see every call it makes.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from poclab import bench, domains, search, strategies
from poclab.bench import NODE_KIND, RunRecord

from perfbench import speed
from perfbench.workloads import DOMAINS, NODE_LIMIT, RANKS, Cell, Workload

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class World:
    """What set-up builds: the parsed bundled problems (with their
    domains) in bundled order, and the builtin strategies by name."""

    problems: dict
    strategies: dict


def build_world() -> World:
    problems = {}
    for name in DOMAINS:
        dom, probs = domains.bundled(name)
        for p in probs:
            problems[p.name] = (dom, p)
    builtins = {n: strategies.builtin(n) for n in strategies.builtin_names()}
    return World(problems, builtins)


def search_config(workload: Workload, rank: str) -> search.SearchConfig:
    return search.SearchConfig(
        rank=search.parse_rank(rank), node_limit=NODE_LIMIT, **dict(workload.toggles)
    )


@dataclass(frozen=True)
class CellResult:
    cell: Cell
    seconds: float
    # (status, generated, expanded, pruned); None when the search raised
    fingerprint: tuple | None
    max_frontier: int = 0
    record: RunRecord | None = None
    error: str | None = None
    kernel_s: float | None = None  # mean speed-probe kernel time during the cell

    @property
    def ref_seconds(self) -> float:
        """`seconds` at the reference interpreter speed (see speed.py)."""
        if self.kernel_s is None:
            return self.seconds
        return self.seconds * speed.KERNEL_REF_S / self.kernel_s


def run_cell(world: World, workload: Workload, cell: Cell, probe: speed.SpeedProbe | None = None) -> CellResult:
    """One timed plan_search call.  An exception, including the
    planner's invalid-plan RuntimeError, fails the cell, not the run."""
    dom, problem = world.problems[cell.problem]
    strategy = world.strategies[cell.strategy]
    config = search_config(workload, cell.rank)
    gc.collect()
    first = probe.mark() if probe is not None else 0
    t0 = time.perf_counter()
    try:
        out = search.plan_search(dom, problem, strategy, config)
    except Exception as exc:  # counted in error_rate
        return CellResult(cell, time.perf_counter() - t0, None, error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    kernel_s = None
    if probe is not None:
        probe.mark()
        kernel_s = probe.mean_since(first)
    st = out.stats
    record = RunRecord(
        strategy=cell.strategy,
        problem=cell.problem,
        rank_label=config.rank.label,
        limit_kind=NODE_KIND,
        limit_value=float(NODE_LIMIT),
        status=out.status,
        nodes=st.nodes_generated,
        seconds=st.wall_seconds,
        seed=config.seed,
        reverse=config.reverse_preconditions,
    )
    fingerprint = (out.status, st.nodes_generated, st.nodes_expanded, st.nodes_pruned)
    return CellResult(cell, seconds, fingerprint, st.max_frontier, record, kernel_s=kernel_s)


def run_cells(
    world: World,
    workload: Workload,
    order: list[Cell],
    seconds: float,
    probe: speed.SpeedProbe | None = None,
    repeats: dict[str, int] | None = None,
) -> list[CellResult]:
    """Cells in order until `seconds` have passed; always at least one.

    A cell listed in `repeats` runs that many times and keeps its
    median-time run, or its first failing one: a cell of a few
    milliseconds is timed as steadily as one of seconds.
    """
    deadline = time.perf_counter() + seconds
    results = []
    for cell in order:
        runs = [run_cell(world, workload, cell, probe) for _ in range((repeats or {}).get(cell.key, 1))]
        failed = [r for r in runs if r.fingerprint is None]
        results.append(failed[0] if failed else sorted(runs, key=lambda r: r.ref_seconds)[len(runs) // 2])
        if time.perf_counter() >= deadline:
            break
    return results


# ---------------------------------------------------------------------------
# golden fingerprints and the node-pass CSV


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str) -> dict:
    return json.loads(golden_path(workload).read_text())


def golden_record(cell: Cell, g: dict) -> RunRecord:
    return RunRecord(cell.strategy, cell.problem, cell.rank, NODE_KIND, float(NODE_LIMIT),
                     g["status"], g["generated"], 0.0, 0, False)


def workload_csv(records: list[RunRecord]) -> str:
    """The node-pass CSV of a workload: one overrun table and CSV per
    rank (the table keys cells by strategy and problem only),
    concatenated in rank order."""
    parts = []
    for rank in RANKS:
        recs = [r for r in records if r.rank_label == rank]
        parts.append(bench.render_csv(recs, bench.build_overrun_table(recs)))
    return "".join(parts)


def csv_rows(text: str) -> dict[str, str]:
    """CSV data lines keyed like Cell.key."""
    rows = {}
    for line in text.splitlines():
        fields = line.split(",", 3)
        if fields[0] != "strategy":
            rows["|".join(fields[:3])] = line
    return rows


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Check:
    failures: dict  # cell key -> reason, for cells of this run
    csv_ok: bool  # the whole workload CSV hashes to the golden
    csv_seconds: float  # overrun tables plus CSV rendering


def check(results: list[CellResult], golden: dict) -> Check:
    """Compare each cell with its golden fingerprint, then render the
    whole workload's node-pass CSV (cells this run did not reach take
    their golden record) and compare its bytes, row by row and hashed."""
    cells = golden["cells"]
    failures = {}
    mine = {}
    for r in results:
        key = r.cell.key
        if r.error is not None:
            failures[key] = r.error
            continue
        want = cells[key]
        expect = (want["status"], want["generated"], want["expanded"], want["pruned"])
        if r.fingerprint != expect:
            failures[key] = f"fingerprint {r.fingerprint} != golden {expect}"
        mine[key] = r.record
    records = [
        mine.get(key) or golden_record(Cell(*key.split("|")), g) for key, g in cells.items()
    ]
    t0 = time.perf_counter()
    text = workload_csv(records)
    csv_seconds = time.perf_counter() - t0
    rows = csv_rows(text)
    for key in mine:
        if rows.get(key) != cells[key]["csv_row"]:
            failures.setdefault(key, f"CSV row {rows.get(key)!r} != golden {cells[key]['csv_row']!r}")
    return Check(failures, sha256(text) == golden["csv_sha256"], csv_seconds)


def write_cells(results: list[CellResult], path: Path) -> None:
    """Per-cell timings of a run, in run order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [
        {
            "cell": r.cell.key,
            "fingerprint": r.fingerprint,
            "seconds": r.seconds,
            "ref_seconds": r.ref_seconds,
            "kernel_s": r.kernel_s,
            "error": r.error,
        }
        for r in results
    ]
    path.write_text(json.dumps(rows, indent=1) + "\n")


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples it rests on."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    k = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[k - 1], len(ordered)


def projected_sweep_seconds(results: list[CellResult], golden: dict) -> float:
    """Search time of the whole workload at the reference speed,
    estimated from the cells run.

    A run reaches only part of the workload, and which part depends on
    the seed.  The measured time is scaled by the golden reference times
    (`ref_s`, recorded with the fingerprints) of all cells over those of
    the cells run: a ratio estimate that does not move with the mix of
    cells, as a plain sum or a per-node average would.
    """
    ref = {k: g["ref_s"] for k, g in golden["cells"].items()}
    measured = sum(r.ref_seconds for r in results)
    ref_run = sum(ref[r.cell.key] for r in results)
    return measured / ref_run * sum(ref.values())


def end_to_end(results: list[CellResult], golden: dict, chk: Check, setup_s: float, peak_rss_mb: float) -> dict:
    """metric -> (value, unit, note).  Times are at the reference
    interpreter speed; the note on wall_s says how much slower raw
    times ran."""
    nodes_total = sum(g["generated"] for g in golden["cells"].values())
    sweep = projected_sweep_seconds(results, golden)
    per_node = [r.ref_seconds / r.fingerprint[1] * 1e6 for r in results if r.fingerprint]
    p50, n = percentile(per_node, 50)
    p95, _ = percentile(per_node, 95)
    cells_note = f"over {n} cells"
    raw_over_ref = sum(r.seconds for r in results) / sum(r.ref_seconds for r in results)
    return {
        "setup_s": (setup_s, "s", "median of fresh processes"),
        "wall_s": (sweep + chk.csv_seconds, "s",
                   f"whole {len(golden['cells'])}-cell sweep, projected from {len(results)} cells;"
                   f" raw times ran {raw_over_ref:.3f}x the reference-speed times"),
        "us_per_node": (sweep / nodes_total * 1e6, "us", f"over {nodes_total} nodes"),
        "cell_us_per_node_p50": (p50, "us", cells_note),
        "cell_us_per_node_p95": (p95, "us", cells_note),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of this process"),
    }


SETUP_REPEATS = 7

_SETUP_CODE = """
import gc
import time
{kernel}
before = [time_kernel() for _ in range(10)]
t0 = time.perf_counter()
import poclab
from poclab.domains import bundled
from poclab.strategies import builtin, builtin_names
for name in {domains!r}:
    bundled(name)
for name in builtin_names():
    builtin(name)
setup = time.perf_counter() - t0
after = [time_kernel() for _ in range(10)]
print(setup, sum(before + after) / len(before + after))
"""


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median over fresh interpreters of importing poclab, parsing the
    bundled domains and building the builtins, at the reference speed
    (the child times the speed kernel around its set-up)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    kernel = "".join(inspect.getsource(f) for f in (speed._Item, speed.kernel, speed.time_kernel))
    code = _SETUP_CODE.format(kernel=kernel, domains=DOMAINS)
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=60,
        )
        setup, kernel_s = map(float, out.stdout.split())
        times.append(setup * speed.KERNEL_REF_S / kernel_s)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "seed": seed,
    }
