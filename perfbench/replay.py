"""Node-replay microbenchmarks: one layer function timed on a fixed node.

The node is captured through the search's `observer.on_expand` hook at
a fixed expansion of a fixed cell, so it is the same plan on every run.
Each function is called in batches long enough to time, and the median
batch gives microseconds per call.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

from poclab import flaws, search, strategies
from poclab.plan import OPEN

from perfbench.harness import World, search_config
from perfbench.workloads import Workload


class _Captured(Exception):
    pass


@dataclass
class _Capture:
    """Stops the search at the first expansion of an open condition from
    expansion `at` on, so the children carry new links to replay."""

    at: int
    expansions: int = 0
    hit: tuple | None = None

    def on_expand(self, node, flaw, children):
        self.expansions += 1
        if self.expansions >= self.at and flaw.kind == OPEN:
            self.hit = (node, flaw, children)
            raise _Captured


def capture(world: World, workload: Workload):
    """(config, node, flaw, children) at the workload's replay point;
    `node` is refreshed and was expanded on the open condition `flaw`
    into `children`."""
    strategy_name, problem, rank, at = workload.replay_at
    dom, prob = world.problems[problem]
    config = search_config(workload, rank)
    observer = _Capture(at)
    try:
        search.plan_search(dom, prob, world.strategies[strategy_name], config, observer)
    except _Captured:
        return (config, *observer.hit)
    raise RuntimeError(f"{strategy_name} on {problem} ended before expansion {at}")


def _us_per_call(fn, calls: int, batch_s: float, batches: int) -> float:
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= batch_s:
            break
        reps *= 2
    samples = [elapsed]
    for _ in range(batches - 1):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) / (reps * calls) * 1e6


def replay(world: World, workload: Workload, batch_s: float = 0.05, batches: int = 5) -> dict[str, float]:
    """function name -> microseconds per call on the captured node.

    Raises AssertionError when a replayed call disagrees with what the
    search did at that node.
    """
    config, node, flaw, children = capture(world, workload)
    dom, _ = world.problems[workload.replay_at[1]]
    strategy = world.strategies[workload.replay_at[0]]
    cost_mode = config.cost_mode
    rng = random.Random(config.seed)
    ctx = search.SearchContext.resuming(node)
    agenda = node.agenda
    # The delta each child added: its new link, and its new step if any.
    deltas = [(c, c.steps[-1] if len(c.steps) > len(node.steps) else None, c.links[-1]) for c in children]

    if strategies.select_flaw(strategy, node, dom, rng, cost_mode) is not flaw:
        raise AssertionError("replayed select_flaw picked another flaw")
    if len(search.refinements(node, flaw, dom, config, ctx)) != len(children):
        raise AssertionError("replayed refinements gave another number of children")
    if not all(flaws.has_any_repair(node, f, dom) for f in agenda):
        raise AssertionError("replayed probe finds a dead end on an expanded node")

    def probe():
        for f in agenda:
            flaws.has_any_repair(node, f, dom)

    def refresh():
        for c in children:
            flaws.refresh_agenda(c)

    def threats():
        for c, step, link in deltas:
            flaws.detect_new_threats(c, step, link, config.systematic)

    timed = {
        "select_flaw": (lambda: strategies.select_flaw(strategy, node, dom, rng, cost_mode), 1),
        "has_any_repair": (probe, len(agenda)),
        "refresh_agenda": (refresh, len(children)),
        "refinements": (lambda: search.refinements(node, flaw, dom, config, ctx), 1),
        "detect_new_threats": (threats, len(deltas)),
    }
    return {name: _us_per_call(fn, calls, batch_s, batches) for name, (fn, calls) in timed.items()}
