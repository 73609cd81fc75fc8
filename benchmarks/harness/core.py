"""What every stage and probe shares: the run context, the report,
set-up helpers, the open-loop phase driver, and the checker that
compares served answers with the in-process index."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import loadgen
import workloads as wl

from spans import Tracer


class Report:
    """Metrics by name, correctness checks, and the attempted/failed
    operation counts of one workload run."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.samples: Dict[str, List[float]] = {}
        self.labels: Dict[str, str] = {}
        self.checks: List[Tuple[str, bool, str]] = []
        self.attempted = 0
        self.failed = 0
        self.budgets: Dict[str, List[Tuple[str, float, str]]] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        """A size, count, ratio or self-check: a run reports the median
        of its laps."""
        self.metrics[name] = (float(value), unit)

    def timing(self, name: str, samples, unit: str) -> None:
        """A wall-clock time or a rate, as one sample for each time the
        lap measured it (one pass, round, window, slice or crash cycle):
        a run pools its laps' samples and reports the best one
        (README.md, "Which statistic is reported")."""
        values = ([float(samples)] if isinstance(samples, (int, float))
                  else [float(v) for v in samples])
        self.samples[name] = values
        self.put(name, loadgen.median(values), unit)

    def value(self, name: str) -> float:
        return self.metrics[name][0]

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        self.count(1, 0 if ok else 1)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


@dataclass
class Run:
    workload: wl.Workload
    seed: int
    phases: wl.Phases
    tracer: Tracer
    report: Report
    work: Path            # scratch directory of this run
    src: Path             # the checkout's src/ directory
    final: bool = True    # last lap: costly checks and traced probes
    graph: Any = None     # the generated Graph (inputs stage)
    setup_parts: Dict[str, float] = field(default_factory=dict)

    @property
    def traced(self) -> bool:
        return self.tracer.enabled

    @property
    def probing(self) -> bool:
        """The traced pass's extra probes run once, on the last lap."""
        return self.tracer.enabled and self.final

    @property
    def edges(self) -> Path:
        return self.work / "edges.txt"

    @property
    def sharded(self) -> Path:
        return self.work / "index_sharded"

    @property
    def flat(self) -> Path:
        return self.work / "index.adsidx"


# ----------------------------------------------------------------------
# Set-up: done once per lap, so a run sets up LAPS times and reports
# the median (run.py).
# ----------------------------------------------------------------------
def generate_inputs(run: Run) -> None:
    """Graph from the seed, written as the edge list every stage reads."""
    from repro.graph.io import write_edge_list

    with run.tracer.timed("setup.inputs", "setup") as span:
        run.graph = wl.make_graph(run.workload, run.seed)
        write_edge_list(run.graph, run.edges, all_nodes=True)
    run.setup_parts["inputs"] = span.seconds


def spawn_measured(run: Run, name: str, args: Sequence[str]):
    """Start a server; its spawn time (process start -> announce line:
    interpreter start, imports, index load, WAL replay) is that
    server's share of ``setup_s``."""
    server = loadgen.ServerProcess(run.src, run.work / f"{name}.log", args)
    with run.tracer.timed(f"setup.spawn.{name}", "setup"):
        server.start()
    run.setup_parts[f"spawn.{name}"] = server.startup_s
    return server


# ----------------------------------------------------------------------
# Checking served answers against the in-process index
# ----------------------------------------------------------------------
def expected_answer(index, spec: tuple):
    """What the server's JSON must carry for *spec*, from the index."""
    kind = spec[0]
    if kind == "cardinality":
        return index.node_cardinality_at(spec[1], spec[2])
    if kind == "closeness":
        return index.node_closeness_centrality(spec[1], classic=True)
    if kind == "neighborhood":
        return [list(p) for p in index.node_neighborhood_function(spec[1])]
    if kind == "cardinality_batch":
        nodes = list(spec[1])
        return [list(p) for p in
                zip(nodes, index.nodes_cardinality_at(nodes, spec[2]))]
    if kind == "distance":
        values = index.pairs_distance_estimate(list(spec[1]))
        return [v if math.isfinite(v) else None for v in values]
    if kind == "jaccard":
        return list(index.pairs_neighborhood_jaccard(list(spec[1]), spec[2]))
    if kind == "sweep":
        return [list(p) for p in index.cardinality_at(spec[1]).items()]
    raise ValueError(f"no expected answer for {spec!r}")


def served_answer(spec: tuple, body: bytes):
    data = json.loads(body)
    kind = spec[0]
    if kind in ("cardinality", "closeness"):
        return data["value"]
    if kind == "neighborhood":
        return data["series"]
    if kind in ("cardinality_batch", "sweep"):
        return data["results"]
    return [row[2] for row in data["results"]]


def verify_responses(index, sampled) -> Tuple[int, int]:
    """Compare sampled ``(spec, body)`` responses with the in-process
    index; returns ``(checked, mismatched)``."""
    wrong = 0
    for spec, body in sampled:
        try:
            if served_answer(spec, body) != expected_answer(index, spec):
                wrong += 1
        except (ValueError, KeyError, TypeError):
            wrong += 1
    return len(sampled), wrong


def latencies(completions, classes: Sequence[str]) -> List[float]:
    """Latencies of the given classes.  A request that never completed
    is charged the time until the generator gave up on it (and is
    counted in ``failed``), so it still misses every latency limit."""
    return [c.latency for c in completions if c.cls in classes]


def open_phase(
    run: Run, address, requests: List[wl.Request], rate: float,
    duration: float, name: str, keep_every: int = 0,
    closed: Sequence[loadgen.ClosedStream] = (),
) -> loadgen.LoadResult:
    due = loadgen.uniform_schedule(rate, duration)
    requests = requests[:len(due)]
    # Every keep_every-th response is kept for checking, from a seeded
    # offset (a stride, so even a short phase keeps some).
    offset = random.Random(run.seed * 7919 + 8).randrange(keep_every or 1)
    keep = [
        bool(keep_every) and i % keep_every == offset
        for i in range(len(requests))
    ]
    schedule = loadgen.OpenLoop(
        [r.data for r in requests], due[:len(requests)],
        [r.cls for r in requests], keep,
    )
    with run.tracer.timed(f"phase.{name}", name) as span:
        result = loadgen.run_load(
            address, duration, open_loop=schedule, closed=closed
        )
    if run.traced:
        parent = span.index
        for i, done in enumerate(result.open):
            if not done.ok:
                continue
            request = run.tracer.add(
                f"request.{done.cls}", done.start, done.done, f"{name}-{i}",
                parent,
            )
            run.tracer.add("loadgen.late", done.start, done.sent,
                           f"{name}-{i}", request)
            run.tracer.add("serve.http", done.sent, done.done,
                           f"{name}-{i}", request)
    return result


def warm(address, requests: Sequence[wl.Request]) -> None:
    """Untimed: let lazy set-up (views, prefix sums, caches) finish."""
    loadgen.run_load(address, 60.0, closed=[loadgen.finite_stream(
        [(r.cls, r.data, False) for r in requests]
    )])
