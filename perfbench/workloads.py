"""The benchmark's workloads: which cells each one runs, and in what order.

A cell is one (strategy, problem, rank) search over the bundled problems
at the acceptance node limit.  Every workload runs the 9 bundled
problems under ranks S+OC and S+OC+UC; workloads differ in the builtin
strategies and in the search toggles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NODE_LIMIT = 10000
RANKS = ("S+OC", "S+OC+UC")
DOMAINS = ("blocks", "briefcase", "tileworld")

# Cells under this many generated nodes take milliseconds; every run
# takes all of them first, so only the large cells are sampled.
SMALL_CELL_NODES = 1000
# Timed runs time each small cell this many times and keep the median.
SMALL_CELL_REPEATS = 3
# Large cells are dealt into this many size-balanced blocks; the first
# block always holds the cells with the largest frontiers, so every run
# reaches the workload's memory peak.
BLOCKS = 8

@dataclass(frozen=True)
class Workload:
    name: str
    strategies: tuple[str, ...]
    toggles: tuple[tuple[str, object], ...]
    # (strategy, problem, rank, expansion) of the node the replay
    # microbenchmarks capture.
    replay_at: tuple[str, str, str, int]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-costed",
            ("UCPOP-LC", "DSep-LC", "DUnf-LC", "DUnf-Gen", "LCFR", "LCFR-DSep", "ZLIFO", "QLCFR"),
            (),
            ("LCFR", "tileworld-4", "S+OC", 2000),
        ),
        Workload(
            "sweep-uncosted",
            ("UCPOP", "LIFO", "DSep", "DSep-FIFO", "DUnf", "DUnf-FIFO"),
            (),
            ("DSep", "tileworld-3", "S+OC", 2000),
        ),
        Workload(
            "sweep-toggled",
            ("UCPOP", "DSep", "DUnf-Gen", "LCFR", "LCFR-DSep", "ZLIFO"),
            (("cost_mode", "cached"), ("dmin_check", True), ("systematic", True)),
            ("LCFR", "tileworld-4", "S+OC+UC", 2000),
        ),
    )
}


@dataclass(frozen=True)
class Cell:
    strategy: str
    problem: str
    rank: str

    @property
    def key(self) -> str:
        return f"{self.strategy}|{self.problem}|{self.rank}"


def cells(workload: Workload, problems: tuple[str, ...]) -> list[Cell]:
    """Every cell of a workload in canonical (strategy, problem, rank) order."""
    return [Cell(s, p, r) for s in workload.strategies for p in problems for r in RANKS]


def run_order(all_cells: list[Cell], golden: dict[str, dict], seed: int) -> list[Cell]:
    """The order a run takes the cells in; the seed only shuffles it.

    Small cells come first, so every run has all of them.  Then come
    the BLOCKS large cells with the largest golden frontier.  The other
    large cells are sorted by golden node count, cut into consecutive
    groups of BLOCKS, shuffled within each group and dealt into blocks,
    so any prefix of blocks holds a similar mix of sizes.
    """
    rng = random.Random(seed)
    small = [c for c in all_cells if golden[c.key]["generated"] < SMALL_CELL_NODES]
    large = [c for c in all_cells if golden[c.key]["generated"] >= SMALL_CELL_NODES]
    large.sort(key=lambda c: (-golden[c.key]["max_frontier"], c.key))
    heavy, rest = large[:BLOCKS], large[BLOCKS:]
    rest.sort(key=lambda c: (-golden[c.key]["generated"], c.key))
    groups = [rest[i : i + BLOCKS] for i in range(0, len(rest), BLOCKS)]
    for part in [small, heavy, *groups]:
        rng.shuffle(part)
    order = small + heavy
    for b in range(BLOCKS):
        block = [g[b] for g in groups if b < len(g)]
        rng.shuffle(block)
        order += block
    return order
