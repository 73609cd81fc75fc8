"""Integer-ID ADS builder cores over the CSR graph backend.

These are the flat-array counterparts of :func:`pruned_dijkstra_core` and
:func:`dp_core`: same competitions, same Appendix-B.3 tie-broken scan
order, provably identical output sketches (the equivalence tests assert
it entry-by-entry), but node labels never appear inside the hot loops --
every per-node structure is a preallocated list indexed by dense id, and
the k-smallest-key competition at each node is a bounded max-heap instead
of an unbounded sorted insert (O(log k) per insertion instead of
O(sketch size)).

Entries are produced as plain *records* -- tuples
``(distance, tiebreak, node_id, rank, bucket, permutation)`` -- so the
caller chooses the materialisation: :func:`records_to_entries` boxes them
into :class:`AdsEntry` objects for the legacy ``BaseADS`` containers,
while :class:`~repro.ads.index.AdsIndex` packs them straight into flat
columns without ever creating per-entry objects.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from repro.ads.entry import AdsEntry
from repro.ads.pruned_dijkstra import BuildStats
from repro.errors import GraphError, ParameterError
from repro.graph.csr import CSRGraph
from repro.rand.hashing import HashFamily

# (distance, tiebreak, node_id, rank, bucket, permutation) in scan order.
Record = Tuple[float, int, int, float, Optional[int], Optional[int]]

_SCAN_KEY = itemgetter(0, 1)


def pruned_dijkstra_core_csr(
    graph: CSRGraph,
    candidates: Sequence[int],
    k: int,
    ranks: Sequence[float],
    tiebreaks: Sequence[int],
    stats: BuildStats,
    bucket: Optional[int] = None,
    permutation: Optional[int] = None,
) -> List[List[Record]]:
    """One bottom-k competition among candidate *ids* (PRUNEDDIJKSTRA).

    *ranks* and *tiebreaks* are dense per-id arrays.  Scans run on the
    transpose arrays (forward ADS), BFS level-by-level on unweighted
    graphs (no heap at all) and heap-based Dijkstra otherwise.  Returns
    per-node record lists in insertion order (sort with
    ``records.sort(key=scan order)`` or let the caller do it).
    """
    n = graph.num_nodes
    entries: List[List[Record]] = [[] for _ in range(n)]
    # Per node: max-heap (negated keys) of the k smallest (d, tb) keys
    # inserted so far; the root is the k-th smallest competitor key.
    thresholds: List[List[Tuple[float, int]]] = [[] for _ in range(n)]
    order = sorted(candidates, key=ranks.__getitem__)
    insertions = relaxations = 0
    push, replace = heappush, heapreplace
    adjacency = graph.transpose_adjacency_lists()

    if not graph.is_weighted():
        # Unweighted: level-synchronous BFS, no distance heap at all.
        # The competition runs at *enqueue* time (a node's threshold can
        # only change when it accepts this candidate itself, so testing
        # early is equivalent), which keeps pruned nodes out of the
        # frontier entirely.
        neighbor_lists = adjacency
        visit = [-1] * n
        for stamp, u in enumerate(order):
            r_u = ranks[u]
            tb_u = tiebreaks[u]
            ntb_u = -tb_u
            visit[u] = stamp
            heap = thresholds[u]
            # The source is the unique distance-0 node: always accepted.
            if len(heap) >= k:
                replace(heap, (0.0, ntb_u))
            else:
                push(heap, (0.0, ntb_u))
            entries[u].append((0.0, tb_u, u, r_u, bucket, permutation))
            insertions += 1
            frontier = [u]
            d = 1.0
            while frontier:
                key = (-d, ntb_u)
                neg_d = -d
                record = (d, tb_u, u, r_u, bucket, permutation)
                nxt: List[int] = []
                for v in frontier:
                    neighbors = neighbor_lists[v]
                    relaxations += len(neighbors)
                    for w in neighbors:
                        if visit[w] == stamp:
                            continue
                        visit[w] = stamp
                        heap = thresholds[w]
                        if len(heap) >= k:
                            worst_d, worst_tb = heap[0]
                            if worst_d > neg_d or (
                                worst_d == neg_d and worst_tb > ntb_u
                            ):
                                continue  # k strictly-closer entries: prune
                            replace(heap, key)
                        else:
                            push(heap, key)
                        entries[w].append(record)
                        insertions += 1
                        nxt.append(w)
                frontier = nxt
                d += 1.0
        stats.insertions += insertions
        stats.relaxations += relaxations
        return entries

    # Weighted: Dijkstra, with the same competition run at *push* time.
    # A neighbour is queued only at a distance shorter than any queued
    # for it in this run, and only if that key passes its threshold: the
    # threshold cannot change before the neighbour is popped (only its
    # own acceptance of this candidate changes it), so a key that fails
    # now would fail at the pop.  A pop takes the minimum pushed from an
    # accepted node (the distance pop-time pruning records) and runs
    # the same test.
    pop = heappop
    queued_in = [-1] * n  # the run that last queued each node ...
    queued = [0.0] * n    # ... and the shortest distance it queued
    for stamp, u in enumerate(order):
        r_u = ranks[u]
        tb_u = tiebreaks[u]
        ntb_u = -tb_u
        queued_in[u] = stamp
        queued[u] = 0.0
        heap: List[Tuple[float, int, int]] = [(0.0, tiebreaks[u], u)]
        while heap:
            d, _, v = pop(heap)
            if d > queued[v]:
                continue  # stale: v was queued closer since
            threshold = thresholds[v]
            neg_d = -d
            if len(threshold) >= k:
                worst_d, worst_tb = threshold[0]
                if worst_d > neg_d or (worst_d == neg_d and worst_tb > ntb_u):
                    continue  # prune: u cannot enter ADS(v) nor behind v
                replace(threshold, (neg_d, ntb_u))
            else:
                push(threshold, (neg_d, ntb_u))
            entries[v].append((d, tb_u, u, r_u, bucket, permutation))
            insertions += 1
            neighbors = adjacency[v]
            relaxations += len(neighbors)
            for w, weight in neighbors:
                nd = d + weight
                if queued_in[w] == stamp and nd >= queued[w]:
                    continue  # w is settled or queued no farther away
                threshold = thresholds[w]
                if len(threshold) >= k:
                    worst_d, worst_tb = threshold[0]
                    if worst_d > -nd or (worst_d == -nd and worst_tb > ntb_u):
                        continue  # prune before queueing
                queued_in[w] = stamp
                queued[w] = nd
                push(heap, (nd, tiebreaks[w], w))
    stats.insertions += insertions
    stats.relaxations += relaxations
    return entries


def dp_core_csr(
    graph: CSRGraph,
    candidates: Sequence[int],
    k: int,
    ranks: Sequence[float],
    tiebreaks: Sequence[int],
    stats: BuildStats,
    bucket: Optional[int] = None,
    permutation: Optional[int] = None,
) -> List[List[Record]]:
    """One bottom-k competition via synchronous rounds (DP builder).

    Unweighted graphs only; rounds equal hop distances, and each node's
    rank competition keeps only the k smallest ranks in a bounded heap.
    """
    if graph.is_weighted():
        raise GraphError(
            "the DP builder requires an unweighted graph; use "
            "method='pruned_dijkstra' or 'local_updates' for weighted graphs"
        )
    n = graph.num_nodes
    in_neighbor_lists = graph.transpose_adjacency_lists()
    entries: List[List[Record]] = [[] for _ in range(n)]
    rank_heaps: List[List[float]] = [[] for _ in range(n)]  # negated ranks
    members: List[set] = [set() for _ in range(n)]

    frontier = {}
    for s in candidates:
        r_s, tb_s = ranks[s], tiebreaks[s]
        entries[s].append((0.0, tb_s, s, r_s, bucket, permutation))
        heappush(rank_heaps[s], -r_s)
        members[s].add(s)
        frontier[s] = [(s, r_s, tb_s)]
        stats.insertions += 1

    t = 0
    while frontier:
        t += 1
        stats.rounds = max(stats.rounds, t)
        distance = float(t)
        proposals: dict = {}
        for u, added in frontier.items():
            for v in in_neighbor_lists[u]:
                stats.relaxations += 1
                bucket_v = proposals.setdefault(v, {})
                member_v = members[v]
                for x, r_x, tb_x in added:
                    if x not in member_v:
                        bucket_v[x] = (r_x, tb_x)
        frontier = {}
        for v, cand in proposals.items():
            heap = rank_heaps[v]
            # Appendix B.3: same-distance candidates enter in tiebreak
            # order, each competing against everything already inserted.
            for x, (r_x, tb_x) in sorted(
                cand.items(), key=lambda item: item[1][1]
            ):
                if len(heap) >= k:
                    if r_x >= -heap[0]:
                        continue
                    heapreplace(heap, -r_x)
                else:
                    heappush(heap, -r_x)
                members[v].add(x)
                entries[v].append((distance, tb_x, x, r_x, bucket, permutation))
                stats.insertions += 1
                frontier.setdefault(v, []).append((x, r_x, tb_x))
    return entries


_CSR_CORES = {
    "pruned_dijkstra": pruned_dijkstra_core_csr,
    "dp": dp_core_csr,
}

CSR_METHODS = frozenset(_CSR_CORES)

# One rank-ordered bottom-k' competition of a flavor's fan-out:
# (k_eff, candidates, ranks, bucket, permutation).  The full flavor
# build is the concatenation of its competitions in list order.
Competition = Tuple[int, Sequence[int], Sequence[float], Optional[int],
                    Optional[int]]


def core_for_method(method: str):
    """The CSR builder core for *method* (ParameterError otherwise)."""
    if method not in _CSR_CORES:
        raise ParameterError(
            f"the CSR backend supports methods {sorted(_CSR_CORES)}, "
            f"got {method!r}"
        )
    return _CSR_CORES[method]


# Per-id tiebreaks plus one per-id rank list per hash permutation.
NodeTables = Tuple[List[int], List[List[float]]]


def node_hash_tables(
    labels: Sequence, k: int, family: HashFamily, flavor: str
) -> NodeTables:
    """Everything the hash family fixes per *node*: the tiebreak of
    every label and its rank under each permutation the flavor uses (k
    for k-mins, one otherwise).  Builders compete on these tables and
    :class:`~repro.ads.index.AdsIndex` keeps them instead of a rank and
    a tiebreak per entry."""
    return (
        [family.tiebreak(label) for label in labels],
        [
            [family.rank(label, h) for label in labels]
            for h in range(k if flavor == "kmins" else 1)
        ],
    )


def flavor_competitions(
    graph: CSRGraph, k: int, family: HashFamily, flavor: str,
    tables: Optional[NodeTables] = None,
) -> Tuple[List[int], List[Competition]]:
    """The per-id tiebreaks and the competition plan of one flavor
    (over *tables* when the caller already holds
    :func:`node_hash_tables`).

    Mirrors the flavor fan-out of :func:`repro.ads.build_ads_set`:
    bottom-k is a single k-competition over all nodes, k-mins runs k
    bottom-1 competitions with per-permutation ranks, k-partition runs
    one bottom-1 competition per non-empty hash bucket.  Both the serial
    and the sharded builders execute exactly this plan, in this order --
    which is what makes their merged outputs comparable entry-for-entry.
    """
    if flavor not in ("bottomk", "kmins", "kpartition"):
        raise ParameterError(
            f"unknown flavor {flavor!r}; expected 'bottomk', 'kmins', or "
            "'kpartition'"
        )
    labels = graph.nodes()
    n = graph.num_nodes
    tiebreaks, rank_tables = tables or node_hash_tables(
        labels, k, family, flavor
    )
    competitions: List[Competition] = []
    if flavor == "bottomk":
        competitions.append((k, range(n), rank_tables[0], None, None))
    elif flavor == "kmins":
        for h, ranks in enumerate(rank_tables):
            competitions.append((1, range(n), ranks, None, h))
    else:
        ranks = rank_tables[0]
        buckets: List[List[int]] = [[] for _ in range(k)]
        for node_id, label in enumerate(labels):
            buckets[family.bucket(label, k)].append(node_id)
        for h in range(k):
            if buckets[h]:
                competitions.append((1, buckets[h], ranks, h, None))
    return tiebreaks, competitions


def build_flat_entries(
    graph: CSRGraph,
    k: int,
    family: HashFamily,
    flavor: str,
    method: str,
    stats: BuildStats,
    tables: Optional[NodeTables] = None,
) -> List[List[Record]]:
    """All-nodes flat ADS build: one record list per node id, sorted in
    the scan total order (distance, tiebreak).

    Runs the :func:`flavor_competitions` plan serially; the sharded
    counterpart (:func:`repro.ads.parallel.build_flat_entries_sharded`)
    executes the same plan across worker processes and merges to the
    bit-identical result.
    """
    core = core_for_method(method)
    n = graph.num_nodes
    tiebreaks, competitions = flavor_competitions(
        graph, k, family, flavor, tables
    )

    if len(competitions) == 1:
        k_eff, candidates, ranks, bucket, permutation = competitions[0]
        per_node = core(
            graph, candidates, k_eff, ranks, tiebreaks, stats,
            bucket, permutation,
        )
    else:
        per_node = [[] for _ in range(n)]
        for k_eff, candidates, ranks, bucket, permutation in competitions:
            run = core(
                graph, candidates, k_eff, ranks, tiebreaks, stats,
                bucket, permutation,
            )
            for v in range(n):
                per_node[v].extend(run[v])

    for records in per_node:
        records.sort(key=_SCAN_KEY)  # stable: k-mins permutations stay ordered
    return per_node


def records_to_entries(
    records: Sequence[Record], labels: Sequence
) -> List[AdsEntry]:
    """Box flat records into :class:`AdsEntry` objects (legacy containers)."""
    return [
        AdsEntry(
            node=labels[node_id],
            distance=distance,
            rank=rank,
            tiebreak=tiebreak,
            bucket=bucket,
            permutation=permutation,
        )
        for distance, tiebreak, node_id, rank, bucket, permutation in records
    ]
