"""Incremental ADS maintenance: pruned re-propagation for edge arrivals.

A sketch set is built once and queried forever -- until the graph
changes.  Rebuilding every sketch because one edge arrived is the
textbook waste the paper's message-passing LOCALUPDATES machinery
(Algorithm 2) avoids: an inserted edge ``(u, v)`` can only change the
ADS of nodes that now reach some entry *through* that edge, so the
update is a fixed-point re-propagation *seeded from the arc targets'
existing sketches* instead of from every node.

The correctness argument is the standard shortest-path relay property:
if ``x`` newly enters (or gets closer in) ``ADS_new(a)``, its new
shortest path crosses an inserted arc ``(u, w)``, and ``x`` belongs to
the updated ADS of *every* node on that path -- so seeding ``u`` with
``ADS(w)``'s entries shifted by the arc weight, then letting accepted
insertions relay along in-arcs exactly as in Algorithm 2, delivers every
new entry.  Eviction needs no extra machinery either: an entry can only
be evicted by smaller-rank entries that got closer, each of which is
itself (re)inserted during the propagation, and the Algorithm 2 clean-up
(:func:`~repro.ads.local_updates.exact_cleanup`) runs after every
insertion.  Distances accumulate hop-by-hop from the entry node outward,
the same float summation order as the from-scratch builders, which is
why the result is *bit-identical* to a rebuild -- the property the
equivalence tests assert column-for-column.

Entry points:

* :func:`propagate_edge_insertions` -- the core: given a graph that
  already contains the new arcs, the per-flavor competition replay over
  only the affected nodes; returns full replacement record lists for
  the dirty nodes.
* :class:`UpdateResult` -- what a batch changed (dirty counts, work
  counters), the shape :meth:`repro.ads.index.AdsIndex.apply_edges`
  returns and the serve layer reports.

The propagation itself is sequential (the relay is a fixed-point
computation over a shared frontier).  The per-slice HIP-weight
recompute it hands back to ``apply_edges`` is per-node independent but
small -- 2-3 ms of an 80-130 ms batch at 640k entries, and 8-12 ms
when it was fanned over two processes -- so it runs serially at any
``kernel_workers``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro._util import require
from repro.ads.csr_cores import Record
from repro.ads.local_updates import NodeState, exact_cleanup
from repro.ads.pruned_dijkstra import BuildStats
from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.rand.hashing import HashFamily

_SCAN_KEY = itemgetter(0, 1)

# An inserted/improved directed arc, as returned by CSRGraph.add_edges.
Arc = Tuple[int, int, float]


@dataclass
class UpdateResult:
    """What one ``apply_edges`` batch did to an index.

    Attributes:
        applied_arcs: Directed arcs actually inserted or improved (an
            undirected edge counts twice; duplicate arrivals count 0).
        dirty_nodes: Nodes whose sketch slice was rewritten.
        new_nodes: Labels appended to the index by this batch.
        insertions / evictions / relaxations: Propagation work counters
            (:class:`~repro.ads.pruned_dijkstra.BuildStats` semantics).
    """

    applied_arcs: int = 0
    dirty_nodes: int = 0
    new_nodes: int = 0
    insertions: int = 0
    evictions: int = 0
    relaxations: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "applied_arcs": self.applied_arcs,
            "dirty_nodes": self.dirty_nodes,
            "new_nodes": self.new_nodes,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "relaxations": self.relaxations,
        }


@dataclass
class _Competition:
    """One rank competition of the flavor plan (see flavor_competitions)."""

    k_eff: int
    bucket: Optional[int]
    permutation: Optional[int]
    rank_index: int  # hash-permutation index for family.rank
    states: Dict[int, NodeState] = field(default_factory=dict)
    dirty: set = field(default_factory=set)

    def matches(self, record: Record) -> bool:
        if self.permutation is not None:
            return record[5] == self.permutation
        if self.bucket is not None:
            return record[4] == self.bucket
        return True


def _flavor_plan(flavor: str, k: int) -> List[_Competition]:
    """The competition list of *flavor*, in the canonical (builder) order.

    Mirrors :func:`repro.ads.csr_cores.flavor_competitions`: bottom-k is
    one k-competition, k-mins one bottom-1 competition per permutation,
    k-partition one bottom-1 competition per bucket.  Buckets that were
    empty at build time are included -- a new node may populate them.
    """
    if flavor == "bottomk":
        return [_Competition(k, None, None, 0)]
    if flavor == "kmins":
        return [_Competition(1, None, h, h) for h in range(k)]
    if flavor == "kpartition":
        return [_Competition(1, h, None, 0) for h in range(k)]
    raise ParameterError(
        f"unknown flavor {flavor!r}; expected 'bottomk', 'kmins', or "
        "'kpartition'"
    )


def propagate_edge_insertions(
    graph: CSRGraph,
    flavor: str,
    k: int,
    family: HashFamily,
    old_n: int,
    slice_records: Callable[[int], Sequence[Record]],
    new_arcs: Sequence[Arc],
    stats: BuildStats,
) -> Dict[int, List[Record]]:
    """Re-propagate after inserting *new_arcs* into *graph*.

    Args:
        graph: The updated graph (arcs already added; buffered overlay
            arcs are fine -- propagation reads
            ``in_neighbor_id_pairs``).  Node ids ``0..old_n-1`` must be
            the index's labels in id order; ids ``>= old_n`` are new.
        flavor / k / family: The index's sketch parameters.
        old_n: Node count of the index before this batch.
        slice_records: Callback returning the index's *current* record
            list of one node id (scan order), consulted lazily for
            nodes the propagation touches.
        new_arcs: Directed ``(source_id, target_id, weight)`` arcs that
            were inserted or whose weight decreased, exactly as
            :meth:`~repro.graph.csr.CSRGraph.add_edges` returns them.
        stats: Receives insertion/eviction/relaxation counters.

    Returns:
        ``{node_id: records}`` for every node whose sketch changed (new
        nodes included), each list complete, deduplicated across the
        flavor's competitions, and sorted in the scan total order --
        drop-in replacements for the index's column slices.
    """
    require(k >= 1, f"k must be >= 1, got {k}")
    labels = graph.nodes()
    n = graph.num_nodes
    require(old_n <= n, f"old_n {old_n} exceeds graph size {n}")
    old_records: Dict[int, Sequence[Record]] = {}

    def records_of(vid: int) -> Sequence[Record]:
        cached = old_records.get(vid)
        if cached is None:
            cached = slice_records(vid)
            old_records[vid] = cached
        return cached

    in_arc_cache: Dict[int, List[Tuple[int, float]]] = {}

    def in_arcs(vid: int) -> List[Tuple[int, float]]:
        cached = in_arc_cache.get(vid)
        if cached is None:
            cached = graph.in_neighbor_id_pairs(vid)
            in_arc_cache[vid] = cached
        return cached

    competitions = _flavor_plan(flavor, k)
    new_ids = range(old_n, n)
    new_tiebreaks = {vid: family.tiebreak(labels[vid]) for vid in new_ids}
    new_buckets = (
        {vid: family.bucket(labels[vid], k) for vid in new_ids}
        if flavor == "kpartition" else {}
    )

    for comp in competitions:
        states = comp.states
        dirty = comp.dirty
        k_eff = comp.k_eff
        queue: deque = deque()

        def get_state(vid: int) -> NodeState:
            st = states.get(vid)
            if st is None:
                st = NodeState()
                if vid < old_n:
                    # Old records are globally scan-sorted; the
                    # competition's subset is therefore sorted too, so
                    # the parallel arrays can be appended directly.
                    for record in records_of(vid):
                        if comp.matches(record):
                            d, tb, node_id, rank = record[:4]
                            st.keys.append((d, tb))
                            st.nodes.append(node_id)
                            st.ranks.append(rank)
                            st.held[node_id] = d
                states[vid] = st
            return st

        def send(v: int, x: int, r_x: float, tb_x: int, d: float) -> None:
            for w_id, weight in in_arcs(v):
                queue.append((w_id, x, r_x, tb_x, d + weight))
                stats.relaxations += 1

        # Seed 1: every inserted arc (a, b, w) re-offers b's current
        # entries to a, shifted by the arc weight; cascades across
        # multiple new arcs ride the normal relay (in_arcs includes
        # the new arcs).
        for a, b, w in new_arcs:
            source = get_state(b)
            for key, node_id, rank in zip(
                source.keys, source.nodes, source.ranks
            ):
                queue.append((a, node_id, rank, key[1], key[0] + w))
                stats.relaxations += 1

        # Seed 2: new nodes are new candidates of their competitions;
        # each holds itself at distance 0 and announces itself.
        for vid in new_ids:
            if comp.bucket is not None and new_buckets[vid] != comp.bucket:
                continue
            r_v = family.rank(labels[vid], comp.rank_index)
            tb_v = new_tiebreaks[vid]
            st = get_state(vid)
            st.insert((0.0, tb_v), vid, r_v)
            stats.insertions += 1
            dirty.add(vid)
            send(vid, vid, r_v, tb_v, 0.0)

        # Asynchronous fixed point (Algorithm 2, exact rule).
        while queue:
            v, x, r_x, tb_x, d = queue.popleft()
            st = get_state(v)
            existing = st.held.get(x)
            if existing is not None and existing <= d:
                continue  # held at least as close already
            if r_x >= st.exact_kth_competitor_rank(k_eff, (d, tb_x)):
                continue  # k smaller ranks strictly closer: pruned
            if existing is not None:
                st.remove_node(x, (existing, tb_x))
                stats.evictions += 1
            st.insert((d, tb_x), x, r_x)
            stats.insertions += 1
            exact_cleanup(st, k_eff, (d, tb_x), stats)
            dirty.add(v)
            send(v, x, r_x, tb_x, d)

    all_dirty: set = set()
    for comp in competitions:
        all_dirty |= comp.dirty

    result: Dict[int, List[Record]] = {}
    for vid in all_dirty:
        records: List[Record] = []
        for comp in competitions:
            st = comp.states.get(vid)
            if st is not None:
                records.extend(
                    (key[0], key[1], node_id, rank, comp.bucket,
                     comp.permutation)
                    for key, node_id, rank in zip(
                        st.keys, st.nodes, st.ranks
                    )
                )
            elif vid < old_n:
                records.extend(
                    record for record in records_of(vid)
                    if comp.matches(record)
                )
        # Stable: same-key records keep competition order, exactly like
        # the from-scratch builder's concatenate-then-sort.
        records.sort(key=_SCAN_KEY)
        result[vid] = records
    return result
