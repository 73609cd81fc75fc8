"""The benchmark's workloads and every input they generate from a seed.

A workload is one set of inputs pushed through the whole stack: an edge
list is parsed, packed, sketched, saved, mapped, queried in bulk, served
to readers, served to a writer beside readers, killed and recovered.
Workloads differ in the *input properties the stack's behaviour depends
on* -- never in a flag handed to the code under test:

* graph size relative to the product's own thresholds (the kernel
  fan-out gate ``AUTO_MIN_ENTRIES`` = 65 536 entries), and
* edge weights (unit weights take the builders' BFS path, real weights
  the heap path; the same split exists in update re-propagation).

The traffic mix is one stated assumption shared by both workloads (see
README.md); it is not observed traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from loadgen import http_get, http_post

K = 8
SHARDS = 8
ATTACH = 3                       # barabasi_albert_graph's m

# Read mix per 1000 requests (ISSUE 13): independent users, so open loop.
POINT_PER_1000 = 940
NODE_BATCH_PER_1000 = 40
PAIR_BATCH_PER_1000 = 19
SWEEP_PER_1000 = 1
NODE_BATCH_SIZE = 200
PAIR_BATCH_SIZE = 50

REFERENCE_RATE = 1000.0         # req/s, the rate the read metrics quote
LADDER_RATES = (2000.0, 4000.0)  # traced run only
LATENCY_LIMIT_MS = 100.0         # point p99 limit for loadgen.max_rate_ok
WRITE_MIX_READ_RATE = 300.0
WRITE_MIX_CACHED_PER_100 = 1     # GET /top-central among the readers
UPDATE_BATCH_SIZES = (1, 4, 16)
UPDATE_INTERVAL_S = 0.25         # the writer flushes a batch every 250 ms
COMPACT_AFTER = 7                # one /compact per write phase, mid-phase
TAIL_BATCHES = 4                 # acknowledged, un-compacted, then SIGKILL
RECOVERY_CYCLES = 3              # SIGKILL + restart, each a sample, per lap
LAPS = 3                         # every stage runs once per lap (README.md)
SATURATION_CONNECTIONS = 2
SATURATION_DEPTH = 32
SATURATION_WINDOWS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    weighted: bool
    pairs_per_round: int = 200
    accuracy_nodes: int = 32
    recovery_checks: int = 500


# Why each exists is recorded once, in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        # Pairs per round: a round of the pair script takes ~0.1 s on
        # the first and ~0.3 s on the second; a shorter sample catches
        # bursts of the host's clock and spreads wider (README.md).
        Workload("powerlaw_10k", n=10_000, weighted=False,
                 pairs_per_round=600),
        Workload("weighted_1k", n=1_000, weighted=True),
    )
}


def toy(workload: Workload) -> Workload:
    """The same workload at smoke-test scale (sub-second phases)."""
    return replace(
        workload, n=300, pairs_per_round=100, accuracy_nodes=8,
        recovery_checks=50,
    )


@dataclass(frozen=True)
class Phases:
    """Phase durations of one lap, all proportional to ``--seconds``."""

    analytics_s: float
    saturation_window_s: float
    reference_s: float
    ladder_s: float
    write_baseline_s: float
    write_s: float

    @classmethod
    def from_seconds(cls, seconds: float, laps: int) -> "Phases":
        """Per-lap phase lengths: *seconds* is shared by *laps* laps."""
        seconds = seconds / laps
        return cls(
            analytics_s=0.12 * seconds,
            saturation_window_s=0.02 * seconds,
            reference_s=0.20 * seconds,
            ladder_s=0.05 * seconds,
            write_baseline_s=0.08 * seconds,
            write_s=0.35 * seconds,
        )


# ----------------------------------------------------------------------
# Graph
# ----------------------------------------------------------------------
def make_graph(workload: Workload, seed: int):
    from repro.graph import barabasi_albert_graph
    from repro.graph.digraph import Graph

    base = barabasi_albert_graph(workload.n, ATTACH, seed=seed)
    if not workload.weighted:
        return base
    rng = random.Random(seed * 7919 + 1)
    graph = Graph(directed=False)
    for u in base.nodes():
        graph.add_node(u)
    for u, v, _ in base.edges():
        graph.add_edge(u, v, _weight(rng))
    return graph


def _weight(rng: random.Random) -> float:
    return round(rng.uniform(0.5, 1.5), 3)


THRESHOLDS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


# ----------------------------------------------------------------------
# In-process analytics inputs
# ----------------------------------------------------------------------
def make_pairs(workload: Workload, seed: int, count: int) -> List[Tuple[int, int]]:
    rng = random.Random(seed * 7919 + 2)
    return [
        (rng.randrange(workload.n), rng.randrange(workload.n))
        for _ in range(count)
    ]


def accuracy_sample(workload: Workload, seed: int) -> List[int]:
    rng = random.Random(seed * 7919 + 3)
    return rng.sample(range(workload.n), workload.accuracy_nodes)


# ----------------------------------------------------------------------
# Served requests.  Each request carries a *spec* the checker can
# recompute in-process: ("cardinality", node, d), ("closeness", node),
# ("neighborhood", node), ("cardinality_batch", nodes, d),
# ("distance"|"jaccard", pairs[, d]), ("sweep", d), ("top_central", count).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    cls: str            # point | node_batch | pair_batch | sweep | cached
    spec: tuple
    method: str
    target: str
    payload: Optional[dict]
    data: bytes


def _get(cls: str, spec: tuple, target: str) -> Request:
    return Request(cls, spec, "GET", target, None, http_get(target))


def _post(cls: str, spec: tuple, target: str, payload: dict) -> Request:
    return Request(cls, spec, "POST", target, payload,
                   http_post(target, payload))


def point_request(rng: random.Random, n: int) -> Request:
    node = rng.randrange(n)
    kind = rng.randrange(3)
    if kind == 0:
        d = float(rng.randint(1, 6))
        return _get("point", ("cardinality", node, d),
                    f"/cardinality?node={node}&d={d}")
    if kind == 1:
        return _get("point", ("closeness", node), f"/closeness?node={node}")
    return _get("point", ("neighborhood", node),
                f"/neighborhood?node={node}")


def _node_batch(rng: random.Random, n: int) -> Request:
    nodes = [rng.randrange(n) for _ in range(NODE_BATCH_SIZE)]
    d = float(rng.randint(1, 6))
    return _post("node_batch", ("cardinality_batch", tuple(nodes), d),
                 "/cardinality", {"nodes": nodes, "d": d})


def _pair_batch(rng: random.Random, n: int) -> Request:
    pairs = [
        (rng.randrange(n), rng.randrange(n)) for _ in range(PAIR_BATCH_SIZE)
    ]
    as_lists = [list(p) for p in pairs]
    # Closeness similarity stays out of the served mix (README.md,
    # "traffic mix"): it runs in the analytics stage's pair script.
    if rng.randrange(2) == 0:
        return _post("pair_batch", ("distance", tuple(pairs)),
                     "/distance", {"pairs": as_lists})
    d = float(rng.randint(2, 4))
    return _post("pair_batch", ("jaccard", tuple(pairs), d),
                 "/similarity",
                 {"metric": "jaccard", "pairs": as_lists, "d": d})


def _sweep(rng: random.Random) -> Request:
    # A finite d is never cached by the server, so every sweep computes
    # and encodes n estimates.
    d = float(rng.randint(1, 6))
    return _get("sweep", ("sweep", d), f"/cardinality?d={d}")


def read_mix(workload: Workload, seed: int, count: int) -> List[Request]:
    """*count* requests in the stated mix, shuffled per block of 1000."""
    rng = random.Random(seed * 7919 + 4)
    block = (
        ["point"] * POINT_PER_1000 + ["node_batch"] * NODE_BATCH_PER_1000
        + ["pair_batch"] * PAIR_BATCH_PER_1000 + ["sweep"] * SWEEP_PER_1000
    )
    out: List[Request] = []
    while len(out) < count:
        rng.shuffle(block)
        for cls in block:
            if cls == "point":
                out.append(point_request(rng, workload.n))
            elif cls == "node_batch":
                out.append(_node_batch(rng, workload.n))
            elif cls == "pair_batch":
                out.append(_pair_batch(rng, workload.n))
            else:
                out.append(_sweep(rng))
    return out[:count]


def point_reads(workload: Workload, seed: int, count: int) -> List[Request]:
    rng = random.Random(seed * 7919 + 5)
    return [point_request(rng, workload.n) for _ in range(count)]


def write_mix_reads(workload: Workload, seed: int, count: int) -> List[Request]:
    """Point reads with one cached whole-graph ranking per hundred, so
    the result cache and its invalidation by updates are on the path."""
    rng = random.Random(seed * 7919 + 6)
    cached = _get("cached", ("top_central", 10), "/top-central?count=10")
    return [
        cached if i % 100 < WRITE_MIX_CACHED_PER_100
        else point_request(rng, workload.n)
        for i in range(count)
    ]


class UpdateBatches:
    """Seeded edge batches between existing nodes, none already present
    (every update does real work, and none is refused)."""

    def __init__(self, workload: Workload, seed: int, graph):
        self._rng = random.Random(seed * 7919 + 7)
        self._n = workload.n
        self._weighted = workload.weighted
        self._taken = {
            (u, v) if u < v else (v, u) for u, v, _ in graph.edges()
        }
        self._made = 0

    def next_batch(self, size: Optional[int] = None) -> List[list]:
        """The next batch: *size* edges, or the next of the cycling sizes."""
        if size is None:
            size = UPDATE_BATCH_SIZES[self._made % len(UPDATE_BATCH_SIZES)]
            self._made += 1
        batch: List[list] = []
        while len(batch) < size:
            u, v = self._rng.randrange(self._n), self._rng.randrange(self._n)
            key = (u, v) if u < v else (v, u)
            if u == v or key in self._taken:
                continue
            self._taken.add(key)
            batch.append(
                [u, v, _weight(self._rng)] if self._weighted else [u, v]
            )
        return batch


def update_request(batch: Sequence[list]) -> bytes:
    return http_post("/update", {"edges": list(batch)})


COMPACT_REQUEST = http_post("/compact", {})
