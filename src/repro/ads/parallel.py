"""Sharded multi-process ADS construction.

The serial CSR builders are bounded by single-core throughput, while the
paper's target graphs (Section 6) have billions of edges.  This module
partitions each rank-ordered competition of the flavor plan
(:func:`~repro.ads.csr_cores.flavor_competitions`) across worker
processes and merges the shard outputs back into the *bit-identical*
serial result:

1. **Shard.** The competition's candidates are dealt round-robin in
   increasing-rank order (:func:`plan_shards`), so every shard gets its
   share of low-rank candidates -- the ones whose scans do the pruning.
2. **Scan.** Each worker runs the unmodified CSR core over a shared
   read-only CSR (the arrays are shipped once per worker via the pool
   initializer) with *only its shard's candidates*.  Fewer competitors
   means strictly weaker pruning, so a shard run retains a **superset**
   of the candidate's true sketch entries -- with exact distances, since
   pruning never alters BFS levels or Dijkstra pops.
3. **Replay.** For every node, the retained records of all shards are
   re-sorted into the serial candidate order (increasing rank, then id)
   and the bottom-k' competition is replayed with a bounded max-heap of
   (distance, tiebreak) keys (:func:`replay_competition`).  Replaying a
   superset with exact keys reproduces the serial accept/reject decision
   for every candidate, because acceptance depends only on the keys of
   previously *accepted* candidates -- all of which are present in the
   superset.  The replayed entries therefore equal the serial entries
   record-for-record, and the downstream HIP column (computed from the
   merged records) is bit-identical too.

The determinism argument in full lives in ARCHITECTURE.md ("Sharded
parallel builds").  Workers communicate only immutable tuples of
primitives, so the subsystem works under both fork and spawn start
methods; ``workers=1`` with ``shards > 1`` runs the exact same
shard/replay pipeline in-process, which is what the equivalence tests
drive under hypothesis without paying process startup.
"""

from __future__ import annotations

import multiprocessing
from array import array
from heapq import heappush, heapreplace
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro._util import require
from repro.ads.csr_cores import (
    _SCAN_KEY,
    NodeTables,
    Record,
    core_for_method,
    flavor_competitions,
)
from repro.ads.pruned_dijkstra import BuildStats
from repro.graph.csr import CSRGraph
from repro.rand.hashing import HashFamily

# A worker task: one shard of one competition.  Candidates and ranks
# travel as ``array`` objects (pickled as raw bytes, not boxed
# objects); the tiebreaks -- identical for every task -- ship once per
# worker through the pool initializer, like the graph itself.
# (k_eff, candidate_ids, ranks, bucket, permutation)
ShardTask = Tuple[int, Sequence[int], Sequence[float],
                  Optional[int], Optional[int]]
# A worker result: sparse per-node records plus work counters.
SparseRun = List[Tuple[int, List[Record]]]

# Candidate processing order inside a core run: sorted(candidates,
# key=rank) over an id-ascending candidate list, i.e. (rank, id) --
# record fields 3 and 2.
_CANDIDATE_ORDER = itemgetter(3, 2)


def plan_shards(
    candidates: Sequence[int], ranks: Sequence[float], shards: int
) -> List[List[int]]:
    """Deal *candidates* round-robin in increasing-(rank, id) order.

    Round-robin over the rank order (rather than contiguous rank
    blocks) gives every shard low-rank candidates, which are the ones
    whose scans populate the pruning thresholds -- contiguous rank
    blocks would leave the last shard with no pruning at all.  Empty
    shards (more shards than candidates) are dropped.
    """
    require(shards >= 1, f"shards must be >= 1, got {shards}")
    order = sorted(candidates, key=lambda c: (ranks[c], c))
    return [order[j::shards] for j in range(min(shards, len(order)))]


def replay_competition(
    k_eff: int,
    shard_runs: Sequence[SparseRun],
    per_node: List[List[Record]],
) -> None:
    """Merge shard outputs of one competition into *per_node*, exactly.

    Replays the serial acceptance rule on the union of the shards'
    retained records: candidates in increasing (rank, id) order, a
    record accepted unless k_eff previously accepted records have a
    strictly smaller (distance, tiebreak) key.  Appends accepted records
    to ``per_node[v]`` in acceptance order -- the serial insertion
    order -- so a later stable scan-order sort agrees bit-for-bit.
    """
    gathered: Dict[int, List[Record]] = {}
    for sparse in shard_runs:
        for v, records in sparse:
            existing = gathered.get(v)
            if existing is None:
                gathered[v] = list(records)
            else:
                existing.extend(records)
    for v, records in gathered.items():
        records.sort(key=_CANDIDATE_ORDER)
        accepted = per_node[v]
        heap: List[Tuple[float, int]] = []  # negated (d, tb): root = worst
        for record in records:
            key = (-record[0], -record[1])
            if len(heap) >= k_eff:
                worst_d, worst_tb = heap[0]
                if worst_d > key[0] or (
                    worst_d == key[0] and worst_tb > key[1]
                ):
                    continue  # k_eff strictly-closer accepted entries
                heapreplace(heap, key)
            else:
                heappush(heap, key)
            accepted.append(record)


# ----------------------------------------------------------------------
# Worker plumbing.  The pool initializer rebuilds the CSR once per
# worker; tasks then carry only per-competition arrays.
# ----------------------------------------------------------------------
_worker_graph: Optional[CSRGraph] = None
_worker_method: Optional[str] = None
_worker_tiebreaks: Optional[Sequence[int]] = None


def _pool_init(payload: tuple, method: str, tiebreaks: Sequence[int]) -> None:
    global _worker_graph, _worker_method, _worker_tiebreaks
    _worker_graph = CSRGraph.from_arrays_payload(payload)
    _worker_method = method
    _worker_tiebreaks = tiebreaks


def _run_pool_task(task: ShardTask) -> Tuple[SparseRun, Tuple[int, int, int]]:
    return _run_task(_worker_graph, _worker_method, _worker_tiebreaks, task)


def _run_task(
    graph: CSRGraph, method: str, tiebreaks: Sequence[int], task: ShardTask
) -> Tuple[SparseRun, Tuple[int, int, int]]:
    k_eff, candidates, ranks, bucket, permutation = task
    stats = BuildStats()
    run = core_for_method(method)(
        graph, candidates, k_eff, ranks, tiebreaks, stats, bucket, permutation
    )
    sparse = [(v, records) for v, records in enumerate(run) if records]
    return sparse, (stats.insertions, stats.relaxations, stats.rounds)


def _pool_context():
    """The platform-default start method: fork on Linux (cheap, shares
    the parent's pages), spawn where fork is unsafe (macOS system
    libraries abort in forked children; Windows has no fork).  The
    pickled-payload initializer keeps every start method correct."""
    return multiprocessing.get_context()


def build_flat_entries_sharded(
    graph: CSRGraph,
    k: int,
    family: HashFamily,
    flavor: str,
    method: str,
    stats: BuildStats,
    workers: int = 1,
    shards: Optional[int] = None,
    tables: Optional[NodeTables] = None,
) -> List[List[Record]]:
    """All-nodes flat ADS build, sharded across *workers* processes.

    Output is bit-identical to :func:`build_flat_entries` on the same
    inputs (the equivalence suite asserts it column-for-column).
    *shards* defaults to *workers*; more shards than workers simply
    queue, and ``workers=1`` runs every shard in-process.  *stats*
    receives the work actually performed: shard scans repeat some
    pruning that a global competition would avoid, so ``insertions``
    counts records retained by shard runs, not final entries.
    """
    require(workers >= 1, f"workers must be >= 1, got {workers}")
    if shards is None:
        shards = workers
    require(shards >= 1, f"shards must be >= 1, got {shards}")
    core_for_method(method)  # validate before planning
    n = graph.num_nodes
    tiebreaks, competitions = flavor_competitions(
        graph, k, family, flavor, tables
    )

    tasks: List[ShardTask] = []
    owners: List[int] = []  # competition index of each task
    for index, (k_eff, candidates, ranks, bucket, permutation) in enumerate(
        competitions
    ):
        packed_ranks = array("d", ranks)
        for shard in plan_shards(candidates, ranks, shards):
            tasks.append((
                k_eff, array("q", shard), packed_ranks, bucket, permutation,
            ))
            owners.append(index)

    if workers == 1 or len(tasks) <= 1:
        results = [_run_task(graph, method, tiebreaks, task)
                   for task in tasks]
    else:
        context = _pool_context()
        pool = context.Pool(
            processes=min(workers, len(tasks)),
            initializer=_pool_init,
            initargs=(graph.to_arrays_payload(), method,
                      array("Q", tiebreaks)),  # Q: tiebreaks are 64-bit hashes
        )
        try:
            results = pool.map(_run_pool_task, tasks)
        finally:
            pool.close()
            pool.join()

    for _, (insertions, relaxations, rounds) in results:
        stats.insertions += insertions
        stats.relaxations += relaxations
        stats.rounds = max(stats.rounds, rounds)

    per_node: List[List[Record]] = [[] for _ in range(n)]
    for index in range(len(competitions)):
        runs = [
            sparse for owner, (sparse, _) in zip(owners, results)
            if owner == index
        ]
        replay_competition(competitions[index][0], runs, per_node)
    for records in per_node:
        records.sort(key=_SCAN_KEY)  # stable: competitions stay ordered
    return per_node
