"""Index-level model test: sequences of update / compact / save / load.

A hypothesis ``RuleBasedStateMachine`` drives one ``AdsIndex`` handle
through arbitrary interleavings of

* ``apply_edges`` batches (new labels included, lighter and heavier
  parallel edges included),
* ``compact`` to the layout the handle came from, to a fresh flat path
  and to a fresh sharded layout (dirty-shard patches and full rewrites),
* ``save`` flat / sharded (shard counts up to more shards than nodes)
  followed by a reload -- eager, single-file map or sharded map -- that
  *replaces* the handle, so later saves run from mapped loads too,

in process (no server, no SIGKILL: ROADMAP item 6 grows this into the
serving and crash rules).  The model is the accumulated edge set.
After every rule the handle answers a fixed node / sweep / pair script
``repr``-equal to a fresh ``AdsIndex.build`` on the model, and an eager
reload of it digests like that build.  A mapped handle must refuse
writes loudly and stay intact.
"""

import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.ads import AdsIndex, kernels
from repro.errors import EstimatorError
from repro.estimators.statistics import harmonic_kernel
from repro.graph.csr import CSRGraph
from repro.rand.hashing import HashFamily

FLAVORS = ("bottomk", "kmins", "kpartition")
BACKENDS = kernels.available_backends()[1:]  # drop "auto"
K, SEED, NODES = 3, 41, 10
PROBES = (0, 3, 7, 9)

# (u, v, weight) with u != v; labels past NODES - 1 are new nodes.
_edge = st.tuples(
    st.integers(0, NODES + 5), st.integers(1, NODES + 5),
    st.sampled_from([0.5, 1.0, 2.25]),
).map(lambda draw: (draw[0], (draw[0] + draw[1]) % (NODES + 6), draw[2]))


def _script(index) -> str:
    """Every kind of reader, on fixed labels."""
    answers = [
        [index.node_cardinality_at(v, d)
         for v in PROBES for d in (0.0, 1.0, 2.5, math.inf)],
        index.nodes_cardinality_at(PROBES, 2.0),
        [index.node_neighborhood_function(v) for v in PROBES],
        [index.node_closeness_centrality(v, classic=True) for v in PROBES],
        [index[v].entries for v in PROBES[:2]],
        index.cardinality_at(1.5),
        index.closeness_centrality(classic=True),
        index.closeness_centrality(alpha=harmonic_kernel()),
        index.neighborhood_function(),
        index.top_central(3, classic=True),
        index.accumulate_neighborhood_jumps({}, 2, NODES - 1),
    ]
    if index.flavor == "bottomk":
        pairs = [(0, 3), (7, 9), (3, 3)]
        answers += [
            index.pairs_distance_estimate(pairs),
            index.pairs_neighborhood_jaccard(pairs, 2.0),
            index.pairs_closeness_similarity(pairs),
            index.most_similar(7, count=3, d=2.0),
        ]
    return repr(answers)


class IndexMachine(RuleBasedStateMachine):
    flavor = "bottomk"
    backend = "python"

    def __init__(self):
        super().__init__()
        self.scratch = Path(tempfile.mkdtemp(prefix="index-model-"))
        self.paths = 0
        # The model: the lightest weight seen per undirected edge.
        self.edges = {(u, u + 1): 1.0 for u in range(NODES - 1)}
        self.graph = self._graph(range(NODES))
        self.index = self._build(self.graph)
        # The persisted layout the handle's dirty set is relative to.
        self.home = None
        self._fresh = None

    def teardown(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def _graph(self, nodes):
        return CSRGraph.from_edges(
            [(u, v, w) for (u, v), w in self.edges.items()],
            directed=False, nodes=nodes,
        )

    def _build(self, graph):
        return AdsIndex.build(
            graph, K, family=HashFamily(SEED), flavor=self.flavor,
            backend=self.backend,
        )

    def _path(self, name):
        self.paths += 1
        return self.scratch / f"{self.paths:03d}-{name}"

    def _load(self, path, mmap=False):
        return AdsIndex.load(path, mmap=mmap, backend=self.backend)

    def fresh(self):
        """A from-scratch build on the model, in the handle's id order."""
        if self._fresh is None:
            self._fresh = self._build(self._graph(self.graph.nodes()))
        return self._fresh

    # -- rules ---------------------------------------------------------
    @rule(batch=st.lists(_edge, min_size=1, max_size=4))
    def apply_edges(self, batch):
        if self.index.mmap_backed:
            with pytest.raises(EstimatorError, match="read-only"):
                self.index.apply_edges(self.graph, batch)
            return
        self.index.apply_edges(self.graph, batch)
        for u, v, weight in batch:
            key = (min(u, v), max(u, v))
            self.edges[key] = min(weight, self.edges.get(key, math.inf))
        self._fresh = None

    @rule(where=st.sampled_from(["home", "flat", "sharded"]),
          shards=st.sampled_from([1, 3, 8]))
    def compact(self, where, shards):
        if self.index.mmap_backed:
            with pytest.raises(EstimatorError, match="read-only"):
                self.index.compact(self._path("refused"))
            return
        if where == "home" and self.home is not None:
            path, shards = self.home, None
        elif where == "sharded":
            path = self._path("compacted")
        else:
            path, shards = self._path("compacted.adsidx"), None
        self.index.compact(path, shards=shards)
        assert self.index.delta_log == []
        self.home = path
        assert self._load(path).content_digest() == \
            self.fresh().content_digest()

    @rule(shards=st.sampled_from([None, 1, 3, 8, NODES + 9]),
          mmap=st.booleans())
    def save_and_reload(self, shards, mmap):
        # From whatever the handle is: a built index, an eager reload,
        # a single-file map or a sharded map.
        path = self._path("saved" if shards else "saved.adsidx")
        self.index.save(path, shards=shards)
        self.index = self._load(path, mmap=mmap)
        assert self.index.mmap_backed == mmap
        self.home = path

    # -- the invariant -------------------------------------------------
    @invariant()
    def equals_a_fresh_build(self):
        fresh = self.fresh()
        assert self.index.nodes() == fresh.nodes()
        assert _script(self.index) == _script(fresh)
        eager = self.index
        if eager.mmap_backed:
            path = self._path("digest.adsidx")
            eager.save(path)
            eager = self._load(path)
        assert eager.content_digest() == fresh.content_digest()


def _machine(flavor, backend):
    machine = type(
        f"IndexMachine_{flavor}_{backend}", (IndexMachine,),
        {"flavor": flavor, "backend": backend},
    )
    case = machine.TestCase
    case.settings = settings(
        max_examples=25, stateful_step_count=15, deadline=None
    )
    return case


for _flavor in FLAVORS:
    for _backend in BACKENDS:
        globals()[f"TestIndexModel_{_flavor}_{_backend}"] = _machine(
            _flavor, _backend
        )
del _flavor, _backend
