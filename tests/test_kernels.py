"""Kernel-equivalence property suite (repro.ads.kernels).

The acceptance bar mirrors the package contract: the NumPy kernel must
agree with the pure reference loops *exactly* for cum-hip columns and
cardinality estimates, and to <= 1e-9 relative error for aggregated
closeness/neighborhood sums -- across all three sketch flavors, both
persisted layouts (eager and memory-mapped loads), and weighted and
unweighted graphs.  Alongside live the backend-selection rules
(explicit argument, REPRO_BACKEND, forced fallback with the NumPy
import blocked) and the heap-selection contract of
``top_k_central_nodes``.

Every NumPy-dependent test skips cleanly when NumPy is missing, so the
suite passes identically on a pure-Python deployment.
"""

import json
import math
import random
import sys
from array import array

import pytest

import index_format
from repro.ads import AdsIndex, kernels
from repro.ads.kernels import parallel as kernel_parallel
from repro.ads.kernels import pure
from repro.ads.storage import ENTRY_COLUMNS, MANIFEST_NAME
from repro.errors import EstimatorError, ParameterError
from repro.estimators.statistics import (
    exponential_decay_kernel,
    harmonic_kernel,
)
from repro.centrality.closeness import top_k_central_nodes
from repro.graph import (
    barabasi_albert_graph,
    gnp_random_graph,
    random_geometric_graph,
)
from repro.graph.csr import CSRGraph
from repro.rand.hashing import HashFamily

FLAVORS = ("bottomk", "kmins", "kpartition")
STORAGES = ("eager", "mmap-single", "mmap-sharded")

requires_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="NumPy not installed"
)


def _graph(weighted: bool):
    if weighted:
        return random_geometric_graph(40, 0.35, seed=11).to_csr()
    return gnp_random_graph(48, 0.09, seed=5).to_csr()


def _index_pair(flavor, weighted, storage, tmp_path, k=4):
    """The same persisted sketch set loaded on both backends."""
    graph = _graph(weighted)
    built = AdsIndex.build(
        graph, k, family=HashFamily(99), flavor=flavor, backend="python"
    )
    if storage == "eager":
        destination = tmp_path / "kernel-eq.adsidx"
        built.save(destination)
        load = lambda backend: AdsIndex.load(  # noqa: E731
            destination, backend=backend
        )
    else:
        if storage == "mmap-single":
            destination = tmp_path / "kernel-eq.adsidx"
            built.save(destination)
        else:
            destination = tmp_path / "kernel-eq-sharded"
            built.save(destination, shards=3)
        load = lambda backend: AdsIndex.load(  # noqa: E731
            destination, mmap=True, backend=backend
        )
    return load("python"), load("numpy")


def _approx(reference, candidate):
    assert candidate == pytest.approx(reference, rel=1e-9, abs=1e-12)


@requires_numpy
@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("flavor", FLAVORS)
class TestBackendEquivalence:
    def test_cum_hip_and_cardinality_exact(
        self, flavor, weighted, storage, tmp_path
    ):
        py, np_ = _index_pair(flavor, weighted, storage, tmp_path)
        assert py.backend == "python" and np_.backend == "numpy"
        assert bytes(py._cum_hip) == bytes(np_._cum_hip)
        for d in (0.0, 0.4, 1.0, 2.5, math.inf):
            assert py.cardinality_at(d) == np_.cardinality_at(d)
        for label in list(py.nodes())[:5]:
            assert py.node_cardinality_at(label, 1.5) == \
                np_.node_cardinality_at(label, 1.5)

    def test_closeness_all_kinds(self, flavor, weighted, storage, tmp_path):
        py, np_ = _index_pair(flavor, weighted, storage, tmp_path)
        kind_kwargs = (
            {"classic": True},
            {},  # raw sum of distances
            {"alpha": harmonic_kernel()},
            {"alpha": exponential_decay_kernel(2.0)},
            {"beta": lambda node: 1.5 if node % 2 else 0.5},
        )
        for kwargs in kind_kwargs:
            reference = py.closeness_centrality(**kwargs)
            candidate = np_.closeness_centrality(**kwargs)
            assert list(reference) == list(candidate)
            _approx(list(reference.values()), list(candidate.values()))

    def test_neighborhood_function(self, flavor, weighted, storage, tmp_path):
        py, np_ = _index_pair(flavor, weighted, storage, tmp_path)
        reference = py.neighborhood_function()
        candidate = np_.neighborhood_function()
        assert [d for d, _ in reference] == [d for d, _ in candidate]
        _approx([v for _, v in reference], [v for _, v in candidate])
        for label in list(py.nodes())[:5]:
            assert py.node_neighborhood_function(label) == \
                np_.node_neighborhood_function(label)

    def test_top_central_agrees(self, flavor, weighted, storage, tmp_path):
        py, np_ = _index_pair(flavor, weighted, storage, tmp_path)
        reference = py.top_central(7, classic=True)
        candidate = np_.top_central(7, classic=True)
        assert [label for label, _ in reference] == \
            [label for label, _ in candidate]
        _approx([v for _, v in reference], [v for _, v in candidate])


@requires_numpy
class TestBatchVsNodeQueries:
    """The NumPy batch sweeps must agree with the (always pure)
    single-node estimators -- the docstring promise predating kernels."""

    def test_batch_matches_per_node(self):
        index = AdsIndex.build(
            _graph(weighted=True), 4, family=HashFamily(3), backend="numpy"
        )
        batch_card = index.cardinality_at(1.2)
        batch_close = index.closeness_centrality(alpha=harmonic_kernel())
        for label in index.nodes():
            assert batch_card[label] == index.node_cardinality_at(label, 1.2)
            _approx(
                index.node_closeness_centrality(
                    label, alpha=harmonic_kernel()
                ),
                batch_close[label],
            )

    def test_negative_kernel_rejected(self):
        index = AdsIndex.build(
            _graph(weighted=False), 4, family=HashFamily(3), backend="numpy"
        )
        with pytest.raises(EstimatorError, match="nonnegative"):
            index.closeness_centrality(alpha=lambda d: -1.0)


def _apply_case(flavor, weighted, backend, kernel_workers=None, seed=17,
                before_apply=None):
    """Build a small index, apply a random edge batch, return both
    (*before_apply* runs between the build and the batch)."""
    rng = random.Random(seed)
    n = 12

    def weight():
        return round(rng.uniform(0.5, 3.0), 2) if weighted else 1.0

    base = [
        (u, v, weight())
        for u, v in (
            (rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)
        )
        if u != v
    ]
    batch = [
        (u, v, weight())
        for u, v in (
            (rng.randrange(n + 2), rng.randrange(n + 2))
            for _ in range(6)
        )
        if u != v
    ]
    graph = CSRGraph.from_edges(base, directed=False, nodes=range(n))
    index = AdsIndex.build(
        graph, 4, family=HashFamily(7), flavor=flavor, backend=backend,
        kernel_workers=kernel_workers,
    )
    index.cardinality_at(1.0)  # materialise the prefix cache
    if before_apply is not None:
        before_apply()
    index.apply_edges(graph, batch)
    return graph, index


@requires_numpy
@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("flavor", FLAVORS)
class TestDynamicUpdatesAcrossBackends:
    """apply_edges must splice bit-identical columns (HIP weights
    included) whichever kernel recomputes the dirty slices."""

    def test_columns_bit_identical(self, flavor, weighted):
        graph_py, index_py = _apply_case(flavor, weighted, "python")
        graph_np, index_np = _apply_case(flavor, weighted, "numpy")
        assert index_format.columns(index_py) == \
            index_format.columns(index_np)
        rebuilt = AdsIndex.build(
            CSRGraph.from_edges(
                list(graph_np.edges()), directed=False,
                nodes=graph_np.nodes(),
            ),
            4, family=HashFamily(7), flavor=flavor, backend="python",
        )
        (spliced,), (fresh,) = (
            index._segments.segments for index in (index_np, rebuilt)
        )
        assert bytes(spliced.hip) == bytes(fresh.hip)

    def test_cum_cache_spliced_not_dropped(self, flavor, weighted):
        _, index = _apply_case(flavor, weighted, "numpy")
        spliced = index._cum_cache
        assert spliced is not None  # updates splice instead of dropping
        assert bytes(spliced) == bytes(index._compute_cum_hip())
        _, reference = _apply_case(flavor, weighted, "python")
        assert index.cardinality_at(math.inf) == \
            reference.cardinality_at(math.inf)


class TestCumHipSplice:
    """Satellite contract: apply_edges patches the cached prefix column
    in place; only an unmaterialised cache stays lazy."""

    def _setup(self, materialise):
        graph = gnp_random_graph(20, 0.15, seed=2).to_csr()
        index = AdsIndex.build(
            graph, 4, family=HashFamily(5), backend="python"
        )
        if not materialise:
            # Simulate a lazy load: drop the eager-built cache.
            index._cum_cache = None
        return graph, index

    def test_materialised_cache_is_spliced(self):
        graph, index = self._setup(materialise=True)
        index.apply_edges(graph, [(0, 19), (3, 17)])
        assert index._cum_cache is not None
        assert bytes(index._cum_cache) == bytes(index._compute_cum_hip())

    def test_unmaterialised_cache_stays_lazy(self):
        graph, index = self._setup(materialise=False)
        index.apply_edges(graph, [(0, 19)])
        assert index._cum_cache is None
        # ... and still materialises correctly on demand.
        assert bytes(index._cum_hip) == bytes(index._compute_cum_hip())

    def test_spliced_queries_match_rebuild(self):
        graph, index = self._setup(materialise=True)
        index.apply_edges(graph, [(0, 19), (5, 12), (2, 18)])
        rebuilt = AdsIndex.build(
            CSRGraph.from_edges(
                list(graph.edges()), directed=False, nodes=graph.nodes()
            ),
            4, family=HashFamily(5), backend="python",
        )
        assert index.cardinality_at(2.0) == rebuilt.cardinality_at(2.0)
        assert index.closeness_centrality(classic=True) == \
            rebuilt.closeness_centrality(classic=True)


@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize(
    "backend", ("python", pytest.param("numpy", marks=requires_numpy))
)
def test_built_cum_hip_is_the_kernel_recompute(backend, flavor, weighted):
    """The packing pass writes the cum-hip column beside the HIP
    weights: a build hands over the bytes either kernel's
    ``compute_cum_hip`` would produce, without preparing kernel views,
    and an ``apply_edges`` splice extends it the same way."""
    graph = _graph(weighted)
    index = AdsIndex.build(
        graph, 4, family=HashFamily(99), flavor=flavor, backend=backend
    )
    kernel = kernels.resolve(backend)

    def recompute():
        return bytes(
            kernel.compute_cum_hip(kernel.prepare_views(index._segments))
        )

    assert index._views_cache is None
    assert bytes(index._cum_cache) == recompute()
    labels = graph.nodes()
    batch = [
        (labels[0], labels[-1]), (labels[3], labels[len(labels) // 2]),
        (labels[5], len(labels) + 7),
    ]
    if weighted:
        batch = [(u, v, 0.05) for u, v in batch]
    assert index.apply_edges(graph, batch).dirty_nodes > 0
    assert bytes(index._cum_cache) == recompute()


@requires_numpy
def test_build_memory_is_bounded_by_its_columns():
    """What a NumPy-backend build holds when it returns, and its
    high-water mark, in Python allocations against the entry columns
    plus offsets: the records are released as their slices are packed,
    and no padded kernel plan is gathered for the cum-hip column."""
    import tracemalloc

    import numpy  # noqa: F401 -- imported first: not the build's memory

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = AdsIndex.build(
            barabasi_albert_graph(3000, 3, seed=1).to_csr(), 8,
            HashFamily(1), backend="numpy",
        )
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (part,) = index._segments.segments
    column_bytes = sum(
        len(column) * column.itemsize
        for column in (part.offsets, part.dist, part.hip, part.node)
    )
    assert held - before <= 2.0 * column_bytes
    assert peak - before <= 3.0 * column_bytes


class TestBackendSelection:
    def test_default_is_auto(self):
        index = AdsIndex.build(_graph(False), 4, family=HashFamily(1))
        expected = "numpy" if kernels.numpy_available() else "python"
        assert index.backend == expected

    def test_explicit_python(self):
        index = AdsIndex.build(
            _graph(False), 4, family=HashFamily(1), backend="python"
        )
        assert index.backend == "python"
        # The parallel tier may wrap the kernel (REPRO_KERNEL_WORKERS);
        # the *base* kernel is what --backend selects.
        assert index._kernel_base is pure

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError, match="unknown backend"):
            AdsIndex.build(
                _graph(False), 4, family=HashFamily(1), backend="fortran"
            )

    def test_env_override_applies_to_auto(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "python")
        index = AdsIndex.build(
            _graph(False), 4, family=HashFamily(1), backend="auto"
        )
        assert index.backend == "python"

    @requires_numpy
    def test_explicit_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "python")
        index = AdsIndex.build(
            _graph(False), 4, family=HashFamily(1), backend="numpy"
        )
        assert index.backend == "numpy"

    def test_invalid_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "warp-drive")
        with pytest.raises(ParameterError, match="REPRO_BACKEND"):
            kernels.resolve("auto")

    def test_available_backends_shape(self):
        names = kernels.available_backends()
        assert names[0] == "auto" and names[-1] == "python"

    @requires_numpy
    def test_load_backend_plumbs_through(self, tmp_path):
        index = AdsIndex.build(
            _graph(False), 4, family=HashFamily(1), backend="python"
        )
        destination = tmp_path / "plumb.adsidx"
        index.save(destination)
        assert AdsIndex.load(destination).backend == "numpy"
        assert AdsIndex.load(
            destination, backend="python"
        ).backend == "python"
        assert AdsIndex.load(
            destination, mmap=True, backend="numpy"
        ).backend == "numpy"


class TestForcedFallback:
    """With the NumPy import blocked, 'auto' degrades to the pure
    kernel and everything keeps answering the same floats."""

    @pytest.fixture
    def blocked_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.delitem(
            sys.modules, "repro.ads.kernels.np_kernel", raising=False
        )
        monkeypatch.delattr(kernels, "np_kernel", raising=False)
        kernels._reset_numpy_cache()
        yield
        kernels._reset_numpy_cache()

    def test_auto_falls_back_and_matches(self, blocked_numpy):
        reference = AdsIndex.build(
            _graph(False), 4, family=HashFamily(1), backend="python"
        )
        fallen_back = AdsIndex.build(
            _graph(False), 4, family=HashFamily(1), backend="auto"
        )
        assert fallen_back.backend == "python"
        assert not kernels.numpy_available()
        assert "numpy" not in kernels.available_backends()
        assert fallen_back.cardinality_at(1.0) == \
            reference.cardinality_at(1.0)
        assert fallen_back.closeness_centrality(classic=True) == \
            reference.closeness_centrality(classic=True)
        assert fallen_back.neighborhood_function() == \
            reference.neighborhood_function()

    def test_explicit_numpy_refuses_to_degrade(self, blocked_numpy):
        with pytest.raises(ParameterError, match="not importable"):
            AdsIndex.build(
                _graph(False), 4, family=HashFamily(1), backend="numpy"
            )

    def test_load_reports_backend_error_not_corruption(
        self, blocked_numpy, tmp_path
    ):
        index = AdsIndex.build(
            _graph(False), 4, family=HashFamily(1), backend="python"
        )
        destination = tmp_path / "plain.adsidx"
        index.save(destination)
        # A bad backend request must surface as itself, not as a
        # "corrupt header" from the load-time constructor guard.
        with pytest.raises(ParameterError, match="not importable"):
            AdsIndex.load(destination, backend="numpy")
        with pytest.raises(ParameterError, match="unknown backend"):
            AdsIndex.load(destination, backend="cuda")


class TestTopCentralHeapSelection:
    def _centralities(self, seed=4):
        rng = random.Random(seed)
        values = {i: rng.choice((0.25, 0.5, 0.75, 1.0)) for i in range(40)}
        return values

    def _sorted_reference(self, values, count, largest):
        ordered = sorted(
            values.items(),
            key=lambda item: (
                -item[1] if largest else item[1], repr(item[0])
            ),
        )
        return ordered[:count]

    @pytest.mark.parametrize("largest", (True, False))
    @pytest.mark.parametrize("count", (0, 1, 3, 39, 40, 100))
    def test_matches_full_sort(self, count, largest):
        values = self._centralities()
        assert top_k_central_nodes(values, count, largest=largest) == \
            self._sorted_reference(values, count, largest)

    def test_tie_break_by_repr(self):
        values = {10: 1.0, 2: 1.0, 30: 1.0, "x": 0.5}
        top = top_k_central_nodes(values, 3)
        assert top == [(10, 1.0), (2, 1.0), (30, 1.0)]


@requires_numpy
class TestServeAndCliSurface:
    def test_stats_reports_backend(self):
        from repro.serve import AdsServer
        from repro.serve.client import QueryClient

        index = AdsIndex.build(
            _graph(False), 4, family=HashFamily(1), backend="numpy"
        )
        with AdsServer(index, cache_size=4) as server:
            stats = QueryClient(server.url).stats()
        assert stats["index"]["backend"] == "numpy"

    def test_cli_backends_agree(self, tmp_path, capsys):
        from repro.cli import main

        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n2 3\n0 3\n")
        destination = tmp_path / "g.adsidx"
        assert main([
            "build-index", str(graph), "--int-nodes", "--k", "4",
            "--backend", "python", "--out", str(destination),
        ]) == 0
        capsys.readouterr()
        outputs = {}
        for backend in ("python", "numpy"):
            assert main([
                "query", str(destination), "--cardinality", "1",
                "--backend", backend,
            ]) == 0
            outputs[backend] = capsys.readouterr().out
        assert outputs["python"] == outputs["numpy"]


BACKENDS = ("python", pytest.param("numpy", marks=requires_numpy))


@pytest.mark.parametrize("backend", BACKENDS)
class TestNanThreshold:
    """``nan < x`` is false for every x, so a bisect reads NaN as
    ``inf`` where ``dist <= nan`` reads it as nothing: the kernels
    would disagree, so the index refuses it on both."""

    CALLS = (
        lambda index, d: index.cardinality_at(d),
        lambda index, d: index.node_cardinality_at(0, d),
        lambda index, d: index.nodes_cardinality_at([0, 1], d),
    )

    def test_cardinality_methods_refuse_nan(self, backend):
        from repro.graph import path_graph

        index = AdsIndex.build(path_graph(6).to_csr(), 4, backend=backend)
        reference = AdsIndex.build(
            path_graph(6).to_csr(), 4, backend="python"
        )
        for call in self.CALLS:
            with pytest.raises(EstimatorError, match="NaN"):
                call(index, math.nan)
            for d in (math.inf, 0, 0.0, -1.0, 2):
                assert call(index, d) == call(reference, d)
        assert index.node_cardinality_at(0, -1.0) == 0.0
        assert index.node_cardinality_at(0, 0) == 1.0


@pytest.mark.parametrize("backend", BACKENDS)
class TestNanKernel:
    """``nan < 0`` is false, so a g >= 0 guard written ``value < 0``
    answers a NaN from ``alpha``: a NaN centrality for every node and a
    ``top_central`` ranking over NaNs in whatever order the heap leaves
    them.  Refused like a negative value, on both kernels."""

    FORMS = (
        lambda index, alpha: index.closeness_centrality(alpha=alpha),
        lambda index, alpha: index.node_closeness_centrality(0, alpha=alpha),
        lambda index, alpha: index.top_central(1, alpha=alpha),
    )

    @pytest.mark.parametrize("form", range(len(FORMS)))
    def test_nan_is_refused_like_a_negative_value(self, backend, form):
        from repro.graph import path_graph

        index = AdsIndex.build(path_graph(6).to_csr(), 4, backend=backend)
        reference = AdsIndex.build(
            path_graph(6).to_csr(), 4, backend="python"
        )
        call = self.FORMS[form]
        with pytest.raises(EstimatorError, match="nonnegative .got nan"):
            call(index, lambda d: math.nan)
        with pytest.raises(EstimatorError, match="nonnegative .got -1.0"):
            call(index, lambda d: -1.0)
        # Still answered: inf, 0.0, and whatever float() coerces.
        for accepted in (math.inf, 0.0, "0.5"):
            assert call(index, lambda d: accepted) == \
                call(reference, lambda d: float(accepted))


def _padded_layouts(flavor, tmp_path, backend="python"):
    """One sketch set plus 18 trailing nodes with empty slices, saved
    single-file and over 6 shards of 11 nodes: shard 4 ends in empty
    node slices and shard 5 is empty.  Both mapped, serial kernels."""
    built = AdsIndex.build(
        _graph(False), 4, family=HashFamily(99), flavor=flavor,
        backend="python",
    )
    n = built.num_nodes
    assert built.nodes() == list(range(n)) and n == 48
    (part,) = built._segments.segments
    padded = AdsIndex(
        flavor, 4, 99, list(range(n + 18)),
        array("q", list(part.offsets) + [built.num_entries] * 18),
        part.dist, part.hip, part.node, part.aux, backend="python",
    )
    padded.save(tmp_path / "padded.adsidx")
    padded.save(tmp_path / "padded-sharded", shards=6)
    return tuple(
        AdsIndex.load(
            tmp_path / name, mmap=True, backend=backend, kernel_workers=1
        )
        for name in ("padded.adsidx", "padded-sharded")
    )


def _sweep_script(index):
    return (
        bytes(index._compute_cum_hip()),
        [index.cardinality_at(d) for d in (0.0, 1.0, 2.5, math.inf)],
        index.closeness_centrality(classic=True),
        index.closeness_centrality(),
        index.closeness_centrality(alpha=harmonic_kernel()),
        index.neighborhood_function(),
    )


PAIRS = [(0, 7), (21, 47), (47, 60), (3, 3), (40, 2)]


def _pair_script(index):
    """Every similarity / distance-oracle op (bottom-k indexes)."""
    return (
        index.pairs_distance_estimate(PAIRS),
        index.pairs_neighborhood_jaccard(PAIRS, 2.0),
        index.pairs_union_size_estimate(PAIRS, 2.0),
        index.pairs_closeness_similarity(PAIRS),
        index.most_similar(7, count=5, d=2.0),
    )


def _node_script(index):
    """Every per-node reader, on labels in three shards of the padded
    layouts plus one (60) whose slice is empty."""
    labels = (0, 7, 21, 47, 60)

    def beta(node):
        return 1.5 if node % 2 else 0.5

    answers = (
        [index.node_cardinality_at(v, d)
         for v in labels for d in (0.0, 1.0, math.inf)],
        index.nodes_cardinality_at(labels, 2.0),
        [index.node_neighborhood_function(v) for v in labels],
        [index.node_closeness_centrality(v, **kwargs)
         for v in labels
         for kwargs in ({"classic": True}, {"alpha": harmonic_kernel()},
                        {"beta": beta})],
        index.closeness_centrality(beta=beta),
        [index[v].entries for v in labels[:4]],
        # Node rows 5..30 lie in three shards of 11 nodes.
        index.accumulate_neighborhood_jumps({}, 5, 30),
    )
    return answers + (_pair_script(index) if index.flavor == "bottomk" else ())


@pytest.mark.parametrize("flavor", FLAVORS)
class TestSegmentViews:
    """The serial pure kernel does not care how the index is stored:
    a sharded map *is* one flat segment per nonempty shard file, the
    very buffers its sweeps and every per-node reader walk -- there is
    no global column to index through."""

    def test_sweeps_never_index_the_sharded_column(self, flavor, tmp_path):
        single, sharded = _padded_layouts(flavor, tmp_path)
        manifest = json.loads(
            (tmp_path / "padded-sharded" / MANIFEST_NAME).read_text()
        )
        counts = [shard["entries"] for shard in manifest["shards"]]
        assert len(counts) == 6 and counts[-1] == 0 and all(counts[:5])
        assert sharded.mapped_shards == 0
        answers = _sweep_script(sharded)
        # The pure kernel's prepared view is the storage itself.
        store = sharded._kernel_views()
        assert store is sharded._segments and sharded.mapped_shards == 5
        segments = store.segments
        assert len(segments) == 5
        for part, shard, count in zip(segments, manifest["shards"], counts):
            # Each column is a view of the mapped shard file: every
            # entry column, once (the per-node reads share it), and the
            # offsets are the file's own, zero-based.
            columns = part[2:2 + len(ENTRY_COLUMNS[flavor])]
            assert all(type(column) is memoryview for column in columns)
            assert {len(column) for column in columns} == {count}
            assert part.offsets[0] == 0 and part.offsets[-1] == count
            assert part.source[0].endswith(shard["file"])
        assert [part.base for part in segments] == [
            sum(counts[:i]) for i in range(5)
        ]
        # Trailing empty node slices ride in the last nonempty shard.
        assert sum(len(part.offsets) - 1 for part in segments) == 66
        assert answers == _sweep_script(single)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_node_reads_never_index_the_sharded_column(
        self, flavor, backend, tmp_path
    ):
        # Point reads, the similarity ops and index[label] resolve a
        # node to its shard's flat buffers once (Columns.locate), on
        # either backend, and a node range spanning shards is walked
        # segment by segment: whatever a reader is handed is a view of
        # one mapped shard file, never a gathered copy.
        single, sharded = _padded_layouts(flavor, tmp_path, backend)
        assert sharded.backend == backend
        answers = _node_script(sharded)
        # The script named nodes of every nonempty shard.
        assert sharded.mapped_shards == 5
        for part in sharded._segments.segments:
            assert part.source is not None
            assert type(part.node) is memoryview
        assert repr(answers) == repr(_node_script(single))


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_pair_call_maps_only_the_shards_it_names(backend, tmp_path):
    _, sharded = _padded_layouts("bottomk", tmp_path, backend)
    assert sharded.mapped_shards == 0
    # Nodes 0 and 7 share shard 0 (11 nodes per shard).
    sharded.pairs_distance_estimate([(0, 7)])
    assert sharded.mapped_shards == 1
    sharded.pairs_neighborhood_jaccard([(7, 3)], 2.0)
    assert sharded.node_cardinality_at(5, 1.0) > 0.0
    assert sharded.mapped_shards == 1
    sharded.pairs_closeness_similarity([(0, 21)])
    assert sharded.mapped_shards == 2
    sharded.cardinality_at(1.0)  # a whole-graph sweep maps the rest
    assert sharded.mapped_shards == 5


@requires_numpy
class TestOneSimilarityImplementation:
    """The similarity ops exist once, in ``kernels.pure``; a NumPy
    index calls the same functions over the same segments."""

    def test_numpy_kernel_has_no_similarity_section(self):
        from repro.ads.kernels import np_kernel

        for name in (
            "prepare_similarity_views", "pairs_jaccard", "pairs_union_size",
            "pairs_closeness_similarity", "pairs_distance", "similarity_scan",
            "SimViews",
        ):
            assert not hasattr(np_kernel, name), name
        assert not hasattr(pure, "prepare_similarity_views")

    def test_pair_script_is_backend_and_layout_independent(self, tmp_path):
        rng = random.Random(23)
        batch = [(rng.randrange(48), rng.randrange(48)) for _ in range(8)]
        batch = [(u, v) for u, v in batch if u != v] + [(47, 60)]
        built = {}
        for backend in ("python", "numpy"):
            graph = CSRGraph.from_edges(
                [(u, v) for u, v, _ in _graph(False).edges()],
                directed=False, nodes=range(61),
            )
            built[backend] = (graph, AdsIndex.build(
                graph, 4, family=HashFamily(99), backend=backend
            ))
        for stage in ("built", "updated"):
            answers = set()
            for backend, (graph, index) in built.items():
                if stage == "updated":
                    index.apply_edges(graph, batch)
                flat = tmp_path / f"{stage}-{backend}.adsidx"
                sharded = tmp_path / f"{stage}-{backend}-sharded"
                index.save(flat)
                index.save(sharded, shards=6)
                for loaded in (
                    index,
                    AdsIndex.load(flat, mmap=True, backend=backend),
                    AdsIndex.load(sharded, mmap=True, backend=backend),
                ):
                    assert loaded.backend == backend
                    answers.add(repr(_pair_script(loaded)))
            assert len(answers) == 1, stage


# ----------------------------------------------------------------------
# Parallel kernel tier (repro.ads.kernels.parallel)
# ----------------------------------------------------------------------
WORKER_COUNTS = (2, 4)


def _storage_loader(flavor, weighted, storage, tmp_path, k=4):
    """Persist one sketch set; return ``load(backend, workers)``."""
    graph = _graph(weighted)
    built = AdsIndex.build(
        graph, k, family=HashFamily(99), flavor=flavor, backend="python"
    )
    if storage == "mmap-sharded":
        destination = tmp_path / "parallel-eq-sharded"
        built.save(destination, shards=3)
        mmap = True
    else:
        destination = tmp_path / "parallel-eq.adsidx"
        built.save(destination)
        mmap = storage == "mmap-single"

    def load(backend, workers):
        return AdsIndex.load(
            destination, mmap=mmap, backend=backend, kernel_workers=workers
        )

    return load


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestParallelEquivalence:
    """The ISSUE acceptance bar: every batch query returns bit-identical
    results at any worker count, for every backend x storage layout.
    Explicit worker counts engage the pools even on tiny indexes."""

    def test_batch_queries_bit_identical(
        self, storage, backend, workers, tmp_path
    ):
        load = _storage_loader("bottomk", True, storage, tmp_path)
        serial = load(backend, 1)
        fanned = load(backend, workers)
        assert serial.kernel_workers == 1
        assert fanned.kernel_workers == workers
        assert serial._kernel is serial._kernel_base
        assert isinstance(fanned._kernel, kernel_parallel.ParallelKernel)
        assert bytes(serial._cum_hip) == bytes(fanned._cum_hip)
        for d in (0.0, 0.7, 1.8, math.inf):
            assert serial.cardinality_at(d) == fanned.cardinality_at(d)
        kind_kwargs = (
            {"classic": True},
            {"alpha": harmonic_kernel()},
            {"alpha": exponential_decay_kernel(2.0)},
            # A lambda beta cannot cross a process boundary; the pool
            # path must quietly hand it back to the serial kernel.
            {"beta": lambda node: 1.5 if node % 2 else 0.5},
        )
        for kwargs in kind_kwargs:
            assert serial.closeness_centrality(**kwargs) == \
                fanned.closeness_centrality(**kwargs)
        assert serial.neighborhood_function() == \
            fanned.neighborhood_function()
        assert serial.top_central(7, classic=True) == \
            fanned.top_central(7, classic=True)

    def test_all_flavors_cum_hip_exact(
        self, storage, backend, workers, tmp_path
    ):
        for flavor in FLAVORS:
            for weighted in (False, True):
                subdir = tmp_path / f"{flavor}-{weighted}"
                subdir.mkdir()
                load = _storage_loader(flavor, weighted, storage, subdir)
                serial = load(backend, 1)
                fanned = load(backend, workers)
                assert bytes(serial._compute_cum_hip()) == \
                    bytes(fanned._compute_cum_hip()), (flavor, weighted)
                assert serial.cardinality_at(1.2) == \
                    fanned.cardinality_at(1.2), (flavor, weighted)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("flavor", FLAVORS)
class TestParallelDynamicUpdates:
    """apply_edges must splice byte-identical columns whichever worker
    count recomputes the dirty HIP slices (kmins exercises the
    entry-label merge inside the fanned slice recompute)."""

    def test_apply_edges_bit_identical_across_workers(
        self, flavor, backend
    ):
        _, serial = _apply_case(flavor, True, backend, kernel_workers=1)
        for workers in WORKER_COUNTS:
            _, fanned = _apply_case(
                flavor, True, backend, kernel_workers=workers
            )
            assert isinstance(
                fanned._kernel, kernel_parallel.ParallelKernel
            )
            assert index_format.columns(serial) == \
                index_format.columns(fanned), workers

    def test_dirty_slice_recompute_never_reaches_a_pool(
        self, flavor, backend, monkeypatch
    ):
        # The recompute is 2-3 ms of a batch serially and 3-4x that
        # fanned out, so apply_edges runs it on the base kernel.  A
        # raising _create_executor would be swallowed by the serial
        # fallback; record the calls instead.
        created = []

        def record(*args):
            created.append(args)
            raise OSError("recorded")

        def forget_pools_and_record():
            kernel_parallel._reset_executors()
            monkeypatch.setattr(kernel_parallel, "_create_executor", record)

        _, serial = _apply_case(flavor, True, backend, kernel_workers=1)
        try:
            _, fanned = _apply_case(
                flavor, True, backend, kernel_workers=2,
                before_apply=forget_pools_and_record,
            )
        finally:
            monkeypatch.undo()
            kernel_parallel._reset_executors()
        assert isinstance(fanned._kernel, kernel_parallel.ParallelKernel)
        assert created == []
        assert bytes(fanned._cum_cache) == bytes(serial._cum_cache)
        assert index_format.columns(serial) == index_format.columns(fanned)


class TestWorkerResolution:
    def test_parse_workers_accepts_auto_and_counts(self):
        assert kernel_parallel.parse_workers(None) == "auto"
        assert kernel_parallel.parse_workers("auto") == "auto"
        assert kernel_parallel.parse_workers(" AUTO ") == "auto"
        assert kernel_parallel.parse_workers(3) == 3
        assert kernel_parallel.parse_workers("4") == 4

    @pytest.mark.parametrize("bad", (0, -2, "zero", "1.5", 2.0, True, []))
    def test_parse_workers_rejects_garbage(self, bad):
        with pytest.raises(ParameterError, match="kernel workers"):
            kernel_parallel.parse_workers(bad)

    def test_explicit_count_honoured_on_tiny_index(self, monkeypatch):
        monkeypatch.delenv(kernel_parallel.WORKERS_ENV_VAR, raising=False)
        assert kernel_parallel.resolve_workers(4) == 4
        index = AdsIndex.build(
            _graph(False), 4, family=HashFamily(1), kernel_workers=4
        )
        assert index.kernel_workers == 4

    def test_auto_is_serial_at_any_size(self, monkeypatch, tmp_path):
        # Nothing selects the fan-out: not the core count, not the
        # entry count (the parent's gate opened at 65 536), not shards.
        monkeypatch.delenv(kernel_parallel.WORKERS_ENV_VAR, raising=False)
        monkeypatch.setattr(kernel_parallel.os, "cpu_count", lambda: 8)
        assert kernel_parallel.resolve_workers(None) == 1
        assert kernel_parallel.resolve_workers("auto") == 1
        built = AdsIndex.build(
            barabasi_albert_graph(1500, 3, seed=1).to_csr(), 8,
            backend="python",
        )
        assert built.num_entries > 65536 and built.kernel_workers == 1
        built.save(tmp_path / "big", shards=4)
        for workers in (None, "auto"):
            index = AdsIndex.load(
                tmp_path / "big", mmap=True, backend="python",
                kernel_workers=workers,
            )
            assert index.kernel_workers == 1
            assert index._kernel is index._kernel_base

    def test_auto_never_fans_the_numpy_kernel(self, monkeypatch):
        # Measured: on every layout each kernel's serial sweep beats
        # its fan-out, so auto is 1 for both.
        monkeypatch.delenv(kernel_parallel.WORKERS_ENV_VAR, raising=False)
        monkeypatch.setattr(kernel_parallel.os, "cpu_count", lambda: 8)
        for backend in kernels.available_backends():
            index = AdsIndex.build(
                _graph(False), 4, family=HashFamily(1), backend=backend
            )
            assert index.kernel_workers == 1, backend
            assert index._kernel is index._kernel_base
            # Asking outright still fans it out, by count or by env.
            index.set_kernel_workers(4)
            assert index.kernel_workers == 4, backend
            monkeypatch.setenv(kernel_parallel.WORKERS_ENV_VAR, "3")
            index.set_kernel_workers(None)
            assert index.kernel_workers == 3, backend
            monkeypatch.delenv(kernel_parallel.WORKERS_ENV_VAR)

    @pytest.mark.parametrize("backend,cores", [
        ("python", 8), pytest.param("numpy", 1, marks=requires_numpy),
    ])
    def test_index_wires_auto_by_its_backend(
        self, monkeypatch, backend, cores
    ):
        # Either backend, however many cores the host reports: 1.
        monkeypatch.delenv(kernel_parallel.WORKERS_ENV_VAR, raising=False)
        monkeypatch.setattr(kernel_parallel.os, "cpu_count", lambda: cores)
        index = AdsIndex.build(
            _graph(False), 4, family=HashFamily(1), backend=backend,
            kernel_workers=2,
        )
        index.set_kernel_workers("auto")
        assert index.kernel_workers == 1
        assert index._kernel is index._kernel_base

    def test_env_var_overrides_auto(self, monkeypatch):
        monkeypatch.setenv(kernel_parallel.WORKERS_ENV_VAR, "3")
        assert kernel_parallel.resolve_workers(None) == 3
        assert kernel_parallel.resolve_workers("auto") == 3
        # ... but an explicit request still beats the environment.
        assert kernel_parallel.resolve_workers(2) == 2
        # The variable may itself say auto, which is still 1.
        monkeypatch.setenv(kernel_parallel.WORKERS_ENV_VAR, "auto")
        assert kernel_parallel.resolve_workers(None) == 1

    def test_invalid_env_var_names_itself(self, monkeypatch):
        monkeypatch.setenv(kernel_parallel.WORKERS_ENV_VAR, "banana")
        with pytest.raises(
            ParameterError, match=kernel_parallel.WORKERS_ENV_VAR
        ):
            kernel_parallel.resolve_workers(None)

    def test_build_validates_kernel_workers(self):
        with pytest.raises(ParameterError, match="kernel workers"):
            AdsIndex.build(
                _graph(False), 4, family=HashFamily(1), kernel_workers=0
            )
        with pytest.raises(ParameterError, match="kernel workers"):
            AdsIndex.build(
                _graph(False), 4, family=HashFamily(1),
                kernel_workers="lots",
            )

    def test_load_validates_kernel_workers_up_front(self, tmp_path):
        index = AdsIndex.build(_graph(False), 4, family=HashFamily(1))
        destination = tmp_path / "validate.adsidx"
        index.save(destination)
        with pytest.raises(ParameterError, match="kernel workers"):
            AdsIndex.load(destination, kernel_workers=-1)

    def test_set_kernel_workers_rewires(self):
        index = AdsIndex.build(
            _graph(False), 4, family=HashFamily(1), backend="python",
            kernel_workers=1,
        )
        reference = index.cardinality_at(1.0)
        index.set_kernel_workers(3)
        assert index.kernel_workers == 3
        assert isinstance(index._kernel, kernel_parallel.ParallelKernel)
        assert index.cardinality_at(1.0) == reference
        index.set_kernel_workers(1)
        assert index.kernel_workers == 1
        assert index._kernel is index._kernel_base
        assert index.cardinality_at(1.0) == reference


class TestParallelFallback:
    """When no pool can be created at all, the parallel tier must
    degrade to the serial base kernel -- same floats, no errors."""

    @pytest.fixture
    def broken_pools(self, monkeypatch):
        kernel_parallel._reset_executors()

        def refuse(workers):
            raise OSError("pools unavailable in this environment")

        monkeypatch.setattr(kernel_parallel, "_create_executor", refuse)
        yield
        kernel_parallel._reset_executors()

    def test_serial_fallback_matches(self, broken_pools):
        reference = AdsIndex.build(
            _graph(True), 4, family=HashFamily(1), backend="python",
            kernel_workers=1,
        )
        fanned = AdsIndex.build(
            _graph(True), 4, family=HashFamily(1), backend="python",
            kernel_workers=2,
        )
        assert isinstance(fanned._kernel, kernel_parallel.ParallelKernel)
        assert bytes(reference._cum_hip) == bytes(fanned._cum_hip)
        assert reference.cardinality_at(1.0) == fanned.cardinality_at(1.0)
        assert reference.closeness_centrality(classic=True) == \
            fanned.closeness_centrality(classic=True)
        assert reference.neighborhood_function() == \
            fanned.neighborhood_function()

    @requires_numpy
    def test_estimator_errors_propagate_from_workers(self):
        index = AdsIndex.build(
            _graph(False), 4, family=HashFamily(3), backend="numpy",
            kernel_workers=2,
        )
        with pytest.raises(EstimatorError, match="nonnegative"):
            index.closeness_centrality(alpha=lambda d: -1.0)


class TestServeKernelWorkers:
    def _index(self, workers):
        return AdsIndex.build(
            _graph(False), 4, family=HashFamily(1), backend="python",
            kernel_workers=workers,
        )

    def test_stats_reports_kernel_workers(self):
        from repro.serve import AdsServer
        from repro.serve.client import QueryClient

        # A library caller's wiring is honoured as given: the server
        # never re-wires the index it is handed, however many cores
        # the host has.
        index = self._index(4)
        with AdsServer(index, cache_size=4) as server:
            stats = QueryClient(server.url).stats()
        assert stats["index"]["kernel_workers"] == 4
        assert index.kernel_workers == 4
        assert index._kernel is not index._kernel_base

    def test_repro_serve_wires_one_worker_unless_asked(
        self, tmp_path, monkeypatch, capsys
    ):
        # `repro serve` answers inline on one event loop: flag, then
        # REPRO_KERNEL_WORKERS, then 1 -- never the hardware-sized
        # auto the offline commands resolve to.
        from repro.cli import main
        from repro.serve import AdsServer

        path = tmp_path / "g.adsidx"
        self._index(1).save(path)
        monkeypatch.setattr(AdsServer, "serve_forever", lambda self: None)
        base = ["serve", "--index", str(path), "--port", "0"]

        def announced(extra=()):
            assert main(base + list(extra)) == 0
            return capsys.readouterr().err

        monkeypatch.delenv("REPRO_KERNEL_WORKERS", raising=False)
        assert ", 1 kernel worker) on http://" in announced()
        assert ", 2 kernel workers) on http://" in announced(
            ["--kernel-workers", "2"]
        )
        monkeypatch.setenv("REPRO_KERNEL_WORKERS", "3")
        assert ", 3 kernel workers) on http://" in announced()
        assert ", 2 kernel workers) on http://" in announced(
            ["--kernel-workers", "2"]
        )


class TestParallelCliSurface:
    def _build(self, tmp_path, extra=()):
        from repro.cli import main

        graph = tmp_path / "g.txt"
        graph.write_text(
            "\n".join(f"{u} {(u + 1) % 9}\n{u} {(u + 4) % 9}"
                      for u in range(9)) + "\n"
        )
        destination = tmp_path / "g.adsidx"
        assert main([
            "build-index", str(graph), "--int-nodes", "--k", "4",
            "--backend", "python", "--out", str(destination), *extra,
        ]) == 0
        return destination

    def test_cli_worker_counts_agree(self, tmp_path, capsys):
        from repro.cli import main

        destination = self._build(
            tmp_path, extra=("--kernel-workers", "2")
        )
        capsys.readouterr()
        outputs = {}
        for workers in ("1", "2"):
            assert main([
                "query", str(destination), "--cardinality", "1",
                "--kernel-workers", workers,
            ]) == 0
            outputs[workers] = capsys.readouterr().out
        assert outputs["1"] == outputs["2"]

    def test_cli_rejects_bad_worker_count(self, tmp_path, capsys):
        from repro.cli import main

        destination = self._build(tmp_path)
        capsys.readouterr()
        assert main([
            "query", str(destination), "--kernel-workers", "0",
        ]) == 1
        assert "kernel workers" in capsys.readouterr().err
