"""Command-line interface: sketch graphs and query them from the shell.

    python -m repro sketch GRAPH.txt --k 16 --out sketches.txt
    python -m repro centrality GRAPH.txt --k 16 --top 10 --kind harmonic
    python -m repro neighborhood GRAPH.txt --node 5 --k 16
    python -m repro build-index GRAPH.txt --k 16 --out graph.adsidx
    python -m repro query graph.adsidx --top 10 --kind harmonic
    python -m repro similarity graph.adsidx --pair 0 5 --d 2
    python -m repro distance graph.adsidx --pair 0 5 --pair 3 7
    python -m repro serve --index graph.adsidx --port 8080
    python -m repro update-index graph.adsidx --graph GRAPH.txt --edges NEW.txt
    python -m repro distinct-count < one_element_per_line.txt
    python -m repro figures fig2 --k 10 --runs 100 --max-n 4000

The CLI is a thin veneer over the library; every command prints plain
text so results can be piped into standard tooling.  ``build-index`` /
``query`` / ``serve`` split sketch construction from serving: the index
is built once (on the CSR fast path) and any number of queries run
against the saved flat-array file without touching the graph again --
either ad hoc from the shell (``query``) or as a long-lived HTTP JSON
daemon (``serve``, memory-mapping the index by default so startup cost
does not scale with index size).  Graphs change: ``update-index``
absorbs an edge batch into a saved index incrementally (no rebuild),
and ``serve --graph GRAPH.txt --no-mmap`` accepts the same batches live
over ``POST /update``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.ads import AdsIndex, build_ads_set
from repro.ads.kernels import BACKEND_CHOICES
from repro.errors import ReproError
from repro.centrality import (
    all_closeness_centralities,
    top_k_central_nodes,
)
from repro.counters import HipDistinctCounter
from repro.estimators.statistics import (
    CENTRALITY_KINDS,
    centrality_kind_kwargs,
)
from repro.graph.io import read_edge_batch, read_edge_list
from repro.rand.hashing import HashFamily
from repro.sketches import HyperLogLog


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=list(BACKEND_CHOICES),
        default="auto",
        help="kernel for the whole-graph sweeps (all-nodes cardinality "
        "and closeness, neighborhood function, cum-hip): 'numpy' "
        "(vectorised, requires the [fast] extra), 'python' (stdlib "
        "loops), or 'auto' (numpy when available; the REPRO_BACKEND env "
        "var overrides). Bit-identical answers either way; per-node and "
        "pair queries run the same code on both.",
    )


def _add_kernel_workers_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel-workers",
        default=None,
        metavar="W",
        help="fan batch queries out across W worker processes ('auto' "
        "or a positive integer; default: auto, which is the "
        "REPRO_KERNEL_WORKERS env var if set, else 1 -- the serial "
        "kernels won every measurement). Results are bit-identical at "
        "any worker count.",
    )


def _add_common_graph_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="edge-list file (u v [weight] per line)")
    parser.add_argument("--k", type=int, default=16, help="sketch size")
    parser.add_argument("--seed", type=int, default=0, help="hash seed")
    parser.add_argument(
        "--directed",
        action="store_true",
        help="force directed interpretation of the edge list",
    )
    parser.add_argument(
        "--int-nodes",
        action="store_true",
        help="parse node tokens as integers",
    )


def _load(args) -> tuple:
    node_type = int if args.int_nodes else str
    graph = read_edge_list(
        args.graph,
        directed=True if args.directed else None,
        node_type=node_type,
    )
    family = HashFamily(args.seed)
    return graph, family


def cmd_sketch(args) -> int:
    """Build and dump every node's ADS (the ``sketch`` subcommand).

    Writes one ``node\\tentries`` line per node to ``--out`` (default:
    stdout), each entry as ``node:distance:rank``, plus a sketch-count
    summary on stderr.

    Returns:
        0 on success; unreadable graph files exit 1 via ``main``.

    Example:
        >>> import tempfile, os
        >>> d = tempfile.mkdtemp()
        >>> graph = os.path.join(d, "g.txt")
        >>> with open(graph, "w") as fh:
        ...     _ = fh.write("0 1\\n1 2\\n")
        >>> main(["sketch", graph, "--int-nodes", "--k", "8",
        ...       "--out", os.path.join(d, "sketches.txt")])
        0
    """
    graph, family = _load(args)
    ads_set = build_ads_set(graph, args.k, family=family)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for node, ads in ads_set.items():
            entries = " ".join(
                f"{e.node}:{e.distance:g}:{e.rank:.6g}" for e in ads.entries
            )
            print(f"{node}\t{entries}", file=out)
    finally:
        if args.out:
            out.close()
    sizes = [len(ads) for ads in ads_set.values()]
    # An edge list with no edges has no nodes, hence no mean size.
    mean = f", mean size {sum(sizes) / len(sizes):.1f}" if sizes else ""
    print(f"# {len(ads_set)} sketches{mean}", file=sys.stderr)
    return 0


def _centrality_kwargs(args):
    """Map the shared --kind/--half-life options to estimator kwargs
    (an unset --kind means classic)."""
    return centrality_kind_kwargs(args.kind or "classic", args.half_life)


def cmd_centrality(args) -> int:
    """Rank nodes by estimated centrality (the ``centrality`` command).

    Builds the sketch set, evaluates the ``--kind`` centrality
    (classic/harmonic/decay/distsum) for every node, and prints the
    ``--top`` ranked ``node\\tvalue`` lines.

    Returns:
        0 on success.

    Example:
        >>> import tempfile, os
        >>> graph = os.path.join(tempfile.mkdtemp(), "g.txt")
        >>> with open(graph, "w") as fh:
        ...     _ = fh.write("0 1\\n1 2\\n")
        >>> main(["centrality", graph, "--int-nodes", "--k", "8",
        ...       "--top", "1"])  # doctest: +NORMALIZE_WHITESPACE
        1 1
        0
    """
    graph, family = _load(args)
    ads_set = build_ads_set(graph, args.k, family=family)
    values = all_closeness_centralities(ads_set, **_centrality_kwargs(args))
    for node, value in top_k_central_nodes(values, args.top):
        print(f"{node}\t{value:.6g}")
    return 0


def _parse_node(args):
    """--node as the graph's label type; None when unparseable."""
    if not args.int_nodes:
        return args.node
    try:
        return int(args.node)
    except ValueError:
        return None


def cmd_neighborhood(args) -> int:
    """One node's distance distribution (the ``neighborhood`` command).

    Prints the estimated cumulative neighborhood size per distance as
    ``distance\\testimate`` lines for ``--node``.

    Returns:
        0 on success, 1 for an unknown or unparseable node.

    Example:
        >>> import tempfile, os
        >>> graph = os.path.join(tempfile.mkdtemp(), "g.txt")
        >>> with open(graph, "w") as fh:
        ...     _ = fh.write("0 1\\n1 2\\n")
        >>> main(["neighborhood", graph, "--int-nodes", "--k", "8",
        ...       "--node", "1"])  # doctest: +NORMALIZE_WHITESPACE
        0 1.00
        1 3.00
        0
    """
    graph, family = _load(args)
    node = _parse_node(args)
    if node is None:
        print(f"--int-nodes expects an integer node, got {args.node!r}",
              file=sys.stderr)
        return 1
    ads_set = build_ads_set(graph, args.k, family=family)
    if node not in ads_set:
        print(f"node {node!r} not in graph", file=sys.stderr)
        return 1
    for distance, estimate in ads_set[node].neighborhood_function():
        print(f"{distance:g}\t{estimate:.2f}")
    return 0


def cmd_build_index(args) -> int:
    """Build and persist the flat-array index (``build-index``).

    Runs the CSR build (optionally sharded across ``--workers``
    processes) and saves a single-file index, or a sharded directory
    layout with ``--shards``.  The saved artifact is what ``query`` and
    ``serve`` consume.

    Returns:
        0 on success, 1 for build/save failures, 2 for invalid
        ``--workers``/``--shards``.

    Example:
        >>> import tempfile, os
        >>> d = tempfile.mkdtemp()
        >>> graph = os.path.join(d, "g.txt")
        >>> with open(graph, "w") as fh:
        ...     _ = fh.write("0 1\\n1 2\\n")
        >>> main(["build-index", graph, "--int-nodes", "--k", "8",
        ...       "--out", os.path.join(d, "g.adsidx")])
        0
    """
    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.shards is not None and args.shards < 1:
        print(f"--shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    try:
        graph, family = _load(args)
        index = AdsIndex.build(
            graph.to_csr(), args.k, family=family, flavor=args.flavor,
            method=args.method, direction=args.direction,
            workers=args.workers, backend=args.backend,
            kernel_workers=args.kernel_workers,
        )
        index.save(args.out, shards=args.shards)
    except (ReproError, OSError) as error:
        print(str(error), file=sys.stderr)
        return 1
    layout = (
        f"{args.shards}-shard layout" if args.shards is not None
        else "single file"
    )
    print(
        f"# indexed {index.num_nodes} nodes, {index.num_entries} entries "
        f"(flavor={index.flavor}, k={index.k}, workers={args.workers}, "
        f"{layout}) -> {args.out}",
        file=sys.stderr,
    )
    print(_format_line(index), file=sys.stderr)
    return 0


def _format_line(index) -> str:
    """What an entry of *index* costs (``/stats`` reports the same)."""
    stats = index.format_stats()
    return (
        f"# index format v{stats['format_version']}: "
        f"{stats['entry_bytes']} B/entry of columns, "
        f"{stats['bytes_per_entry']:g} B/entry in memory"
    )


def cmd_query(args) -> int:
    """Serve estimates from a saved index (the ``query`` subcommand).

    Without ``--node``: the ``--top`` centrality ranking, an all-nodes
    ``--cardinality D`` sweep, or the whole-graph ``--neighborhood``
    series.  With ``--node``: that node's neighborhood function,
    centrality (with ``--kind``), or cardinality (with
    ``--cardinality``).

    Returns:
        0 on success, 1 for a missing/corrupt index or unknown node.

    Example:
        >>> import tempfile, os
        >>> d = tempfile.mkdtemp()
        >>> graph = os.path.join(d, "g.txt")
        >>> with open(graph, "w") as fh:
        ...     _ = fh.write("0 1\\n1 2\\n")
        >>> index = os.path.join(d, "g.adsidx")
        >>> main(["build-index", graph, "--int-nodes", "--k", "8",
        ...       "--out", index])
        0
        >>> main(["query", index, "--node", "1",
        ...       "--cardinality", "1"])  # doctest: +NORMALIZE_WHITESPACE
        1 3.00
        0
    """
    try:
        index = AdsIndex.load(
            args.index, backend=args.backend,
            kernel_workers=args.kernel_workers,
        )
    except (ReproError, OSError) as error:
        print(str(error), file=sys.stderr)
        return 1
    if args.stats:
        print(_format_line(index), file=sys.stderr)
    if args.node is not None:
        node = _parse_node(args)
        if node is None:
            print(f"--int-nodes expects an integer node, got {args.node!r}",
                  file=sys.stderr)
            return 1
        if node not in index:
            # The index stores the labels, so coerce to the build's
            # label type (either direction) instead of demanding
            # --int-nodes re-match it.
            if isinstance(node, str):
                try:
                    coerced = int(node)
                except ValueError:
                    coerced = None
            else:
                coerced = str(node)
            if coerced is not None and coerced in index:
                node = coerced
        if node not in index:
            print(f"node {node!r} not in index", file=sys.stderr)
            return 1
        if args.cardinality is not None:
            print(f"{node}\t{index.node_cardinality_at(node, args.cardinality):.2f}")
            return 0
        if args.kind is not None and not args.neighborhood:
            # An explicit --kind with --node asks for that node's
            # centrality, not its distance distribution.
            value = index.node_closeness_centrality(
                node, **_centrality_kwargs(args)
            )
            print(f"{node}\t{value:.6g}")
            return 0
        for distance, estimate in index.node_neighborhood_function(node):
            print(f"{distance:g}\t{estimate:.2f}")
        return 0
    if args.cardinality is not None:
        for node, estimate in index.cardinality_at(args.cardinality).items():
            print(f"{node}\t{estimate:.2f}")
        return 0
    if args.neighborhood:
        for distance, estimate in index.neighborhood_function():
            print(f"{distance:g}\t{estimate:.2f}")
        return 0
    for node, value in index.top_central(args.top, **_centrality_kwargs(args)):
        print(f"{node}\t{value:.6g}")
    return 0


def _resolve_index_node(index, token, int_nodes: bool):
    """A CLI node token as an index label; None when it misses.

    Mirrors ``cmd_query``: honour --int-nodes first, then retry the
    other label type so a str token finds an int-labeled index (and
    vice versa) without flag gymnastics.
    """
    node = token
    if int_nodes:
        try:
            node = int(token)
        except ValueError:
            return None
    if node in index:
        return node
    if isinstance(node, str):
        try:
            coerced = int(node)
        except ValueError:
            coerced = None
    else:
        coerced = str(node)
    if coerced is not None and coerced in index:
        return coerced
    return None


def cmd_similarity(args) -> int:
    """Pairwise similarity from a saved index (``similarity``).

    With ``--pair U V`` (repeatable): one ``u\\tv\\tvalue`` line per
    pair under ``--metric`` -- ``jaccard`` (d-neighborhood MinHash
    Jaccard at ``--d``, default all-reachable) or ``closeness``
    (distance-profile similarity).  With ``--node X``: the ``--count``
    nodes most similar to X as ``node\\tvalue`` lines.  Either mode
    needs a bottom-k index.

    Returns:
        0 on success, 1 for load failures, unknown nodes, or a
        non-bottom-k index, 2 for invalid flag combinations.

    Example:
        >>> import tempfile, os
        >>> d = tempfile.mkdtemp()
        >>> graph = os.path.join(d, "g.txt")
        >>> with open(graph, "w") as fh:
        ...     _ = fh.write("0 1\\n1 2\\n")
        >>> index = os.path.join(d, "g.adsidx")
        >>> main(["build-index", graph, "--int-nodes", "--k", "8",
        ...       "--out", index])
        0
        >>> main(["similarity", index, "--pair", "0", "2",
        ...       "--d", "1"])  # doctest: +NORMALIZE_WHITESPACE
        0 2 0.333333
        0
        >>> main(["similarity", index, "--node", "1",
        ...       "--count", "2"])  # doctest: +NORMALIZE_WHITESPACE
        0 1
        2 1
        0
    """
    if (args.pair is None) == (args.node is None):
        print("similarity needs exactly one of --pair and --node",
              file=sys.stderr)
        return 2
    if args.count < 1:
        print(f"--count must be >= 1, got {args.count}", file=sys.stderr)
        return 2
    if args.metric == "closeness" and args.d is not None:
        print("--d only applies to --metric jaccard", file=sys.stderr)
        return 2
    try:
        index = AdsIndex.load(
            args.index, backend=args.backend,
            kernel_workers=args.kernel_workers,
        )
    except (ReproError, OSError) as error:
        print(str(error), file=sys.stderr)
        return 1
    d = args.d if args.d is not None else math.inf
    try:
        if args.node is not None:
            node = _resolve_index_node(index, args.node, args.int_nodes)
            if node is None:
                print(f"node {args.node!r} not in index", file=sys.stderr)
                return 1
            for label, value in index.most_similar(
                node, count=args.count, d=d
            ):
                print(f"{label}\t{value:.6g}")
            return 0
        pairs = []
        for u_token, v_token in args.pair:
            u = _resolve_index_node(index, u_token, args.int_nodes)
            v = _resolve_index_node(index, v_token, args.int_nodes)
            if u is None or v is None:
                missing = u_token if u is None else v_token
                print(f"node {missing!r} not in index", file=sys.stderr)
                return 1
            pairs.append((u, v))
        if args.metric == "closeness":
            values = index.pairs_closeness_similarity(pairs)
        else:
            values = index.pairs_neighborhood_jaccard(pairs, d)
    except ReproError as error:
        # Typically a non-bottom-k flavor refusing similarity queries.
        print(str(error), file=sys.stderr)
        return 1
    for (u, v), value in zip(pairs, values):
        print(f"{u}\t{v}\t{value:.6g}")
    return 0


def cmd_distance(args) -> int:
    """Distance-oracle estimates for node pairs (``distance``).

    Prints one ``u\\tv\\testimate`` line per ``--pair``: the sketch
    2-hop-cover upper bound ``min_w d(u,w) + d(v,w)`` over the pair's
    common ADS entries (``inf`` when the sketches share none).  Needs
    a bottom-k index.

    Returns:
        0 on success, 1 for load failures, unknown nodes, or a
        non-bottom-k index, 2 for invalid flags.

    Example:
        >>> import tempfile, os
        >>> d = tempfile.mkdtemp()
        >>> graph = os.path.join(d, "g.txt")
        >>> with open(graph, "w") as fh:
        ...     _ = fh.write("0 1\\n1 2\\n")
        >>> index = os.path.join(d, "g.adsidx")
        >>> main(["build-index", graph, "--int-nodes", "--k", "8",
        ...       "--out", index])
        0
        >>> main(["distance", index, "--pair", "0", "2",
        ...       "--pair", "1", "1"])  # doctest: +NORMALIZE_WHITESPACE
        0 2 2
        1 1 0
        0
    """
    try:
        index = AdsIndex.load(
            args.index, backend=args.backend,
            kernel_workers=args.kernel_workers,
        )
    except (ReproError, OSError) as error:
        print(str(error), file=sys.stderr)
        return 1
    pairs = []
    for u_token, v_token in args.pair:
        u = _resolve_index_node(index, u_token, args.int_nodes)
        v = _resolve_index_node(index, v_token, args.int_nodes)
        if u is None or v is None:
            missing = u_token if u is None else v_token
            print(f"node {missing!r} not in index", file=sys.stderr)
            return 1
        pairs.append((u, v))
    try:
        values = index.pairs_distance_estimate(pairs)
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return 1
    for (u, v), value in zip(pairs, values):
        print(f"{u}\t{v}\t{value:.6g}")
    return 0


def _index_node_type(index) -> type:
    """int when every index label is an int, str otherwise.

    Saved indexes carry int/str labels only; graph and edge-batch files
    for ``update-index``/``serve --graph`` are parsed to match
    (:meth:`AdsIndex.label_type`), so the loaded labels line up with
    the index's without a --int-nodes flag.
    """
    return int if index.label_type() is int else str


def cmd_update_index(args) -> int:
    """Apply an edge batch to a saved index (``update-index``).

    Loads the index and its graph, applies the ``--edges`` batch by
    incremental re-propagation (no rebuild; only touched sketch slices
    are rewritten), and flushes the result -- in place by default,
    rewriting only the dirty shards of a sharded layout.  In-place
    updates also rewrite ``--graph`` (node order pinned) so index and
    edge list stay in lockstep; a stale graph file would make the next
    update silently diverge from a rebuild.

    Returns:
        0 on success, 1 for load/apply/save failures.

    Example:
        >>> import tempfile, os
        >>> d = tempfile.mkdtemp()
        >>> graph = os.path.join(d, "g.txt")
        >>> with open(graph, "w") as fh:
        ...     _ = fh.write("0 1\\n1 2\\n")
        >>> batch = os.path.join(d, "new.txt")
        >>> with open(batch, "w") as fh:
        ...     _ = fh.write("0 3\\n")
        >>> index = os.path.join(d, "g.adsidx")
        >>> main(["build-index", graph, "--int-nodes", "--k", "8",
        ...       "--out", index])
        0
        >>> main(["update-index", index, "--graph", graph,
        ...       "--edges", batch])
        0
        >>> main(["query", index, "--node", "3",
        ...       "--cardinality", "1"])  # doctest: +NORMALIZE_WHITESPACE
        3 2.00
        0
    """
    try:
        index = AdsIndex.load(
            args.index, kernel_workers=args.kernel_workers
        )
    except (ReproError, OSError) as error:
        print(str(error), file=sys.stderr)
        return 1
    node_type = _index_node_type(index)
    try:
        graph = read_edge_list(
            args.graph,
            directed=True if args.directed else None,
            node_type=node_type,
        ).to_csr()
        edges = read_edge_batch(args.edges, node_type=node_type)
        result = index.apply_edges(graph, edges)
        out = args.out or args.index
        info = index.compact(out, shards=args.shards)
        # When updating the index in place, the graph file must follow
        # (default --write-graph): a stale edge list would make the
        # *next* update propagate over a graph missing this batch's
        # edges and silently diverge from a rebuild.  --out leaves the
        # original index/graph pair intact, so there the default is to
        # not touch the graph file.
        write_graph = (
            args.write_graph if args.write_graph is not None
            else args.out is None
        )
        if write_graph:
            # The index's entry ids are positional, so the node order
            # must be pinned (all_nodes), not merely the edge set.
            from repro.graph.io import write_edge_list

            write_edge_list(graph, args.graph, all_nodes=True)
    except (ReproError, OSError) as error:
        print(str(error), file=sys.stderr)
        return 1
    layout = info["layout"]
    if layout == "sharded" and not info["full_rewrite"]:
        layout = (
            f"sharded, rewrote {len(info['rewritten_shards'])}/"
            f"{info['total_shards']} shards"
        )
    print(
        f"# applied {result.applied_arcs} arcs "
        f"({result.dirty_nodes} sketches rewritten, "
        f"{result.new_nodes} new nodes) -> {out} ({layout})",
        file=sys.stderr,
    )
    return 0


def cmd_serve(args) -> int:
    """Serve a saved index over HTTP (the ``serve`` subcommand).

    Loads ``--index`` (memory-mapped by default, so a multi-GB index
    starts serving in milliseconds) and blocks answering the JSON API
    until interrupted.  See :mod:`repro.serve.server` for the endpoint
    reference.  ``--graph GRAPH.txt`` (with ``--no-mmap``) attaches the
    index's graph and enables live edge updates via ``POST /update`` /
    ``POST /compact``.  Requests are answered inline on one pipelined
    event loop.  ``--wire json`` pins responses to JSON even for
    clients that ask for the binary codec.

    Returns:
        0 after a clean shutdown (Ctrl-C), 1 when the index cannot be
        loaded, 2 for invalid parameters.

    Example:
        >>> from repro.cli import main
        >>> main(["serve", "--index", "/nonexistent.adsidx"])
        1
    """
    from repro.serve import AdsServer

    if args.cache_size < 0:
        print(f"--cache-size must be >= 0, got {args.cache_size}",
              file=sys.stderr)
        return 2
    if args.graph is not None and args.mmap:
        # Updates splice the index columns in place; a memory-mapped
        # load is read-only by construction.
        print("--graph (live updates) requires --no-mmap", file=sys.stderr)
        return 2
    if args.wal_dir is not None and args.graph is None:
        print("--wal-dir (durable updates) requires --graph",
              file=sys.stderr)
        return 2
    node_range = None
    if args.cluster is not None:
        try:
            node_range = _parse_node_range(args.cluster)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
    index_path = Path(args.index)
    if not index_path.exists():
        # An unloadable index is a load failure (1), matching `query`;
        # exit 2 is reserved for invalid flag values.
        print(f"index {args.index!r} does not exist", file=sys.stderr)
        return 1
    try:
        index = AdsIndex.load(
            index_path, mmap=args.mmap, backend=args.backend,
            kernel_workers=args.kernel_workers,
        )
        graph = None
        if args.graph is not None:
            graph = read_edge_list(
                args.graph,
                directed=True if args.directed else None,
                node_type=_index_node_type(index),
            ).to_csr()
        server = AdsServer(
            index, host=args.host, port=args.port,
            cache_size=args.cache_size, wire_mode=args.wire,
            graph=graph, index_path=index_path, graph_path=args.graph,
            node_range=node_range, wal_dir=args.wal_dir,
        )
    except (ReproError, OSError) as error:
        print(str(error), file=sys.stderr)
        return 1
    mode = "mmap" if index.mmap_backed else "eager"
    writable = ", updates enabled" if graph is not None else ""
    if server.wal is not None:
        writable += (
            f", wal={server.wal.directory}"
            + (f" (replayed {server.wal_replayed} batch"
               f"{'es' if server.wal_replayed != 1 else ''})"
               if server.wal_replayed else "")
        )
    if node_range is not None:
        start, stop = node_range
        writable += (
            f", shard worker for nodes [{start}, "
            f"{index.num_nodes if stop is None else stop})"
        )
    print(
        f"# serving {index.num_nodes} nodes ({index.num_entries} entries, "
        f"flavor={index.flavor}, k={index.k}, {mode} load, "
        f"{index.backend} kernel, {index.kernel_workers} kernel "
        f"worker{'s' if index.kernel_workers != 1 else ''}) on {server.url} "
        f"with the pipelined event loop, cache={args.cache_size}, "
        f"wire={args.wire}{writable}",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("# shutting down", file=sys.stderr)
    finally:
        server.close()
    return 0


def _parse_node_range(spec: str):
    """``"START:STOP"`` (empty STOP = open-ended) -> ``(start, stop)``."""
    head, sep, tail = spec.partition(":")
    if not sep or not head:
        raise ValueError(
            f"--cluster expects START:STOP (STOP may be empty for "
            f"open-ended), got {spec!r}"
        )
    try:
        start = int(head)
        stop = int(tail) if tail else None
    except ValueError:
        raise ValueError(
            f"--cluster bounds must be integers, got {spec!r}"
        ) from None
    return start, stop


def _parse_group(spec: str):
    """One ``--group`` value -> ``(range_or_None, [url, ...])``.

    ``"http://h1:8080,http://h2:8080"`` lists one shard group's
    replicas; prefix ``"START:STOP="`` pins its node range explicitly
    (otherwise every group must be unprefixed and the router splits
    ``[0, n)`` into balanced contiguous ranges, the same tiling
    ``shard_ranges`` gives the sharded save layout).
    """
    node_range = None
    head, sep, tail = spec.partition("=")
    if sep and "://" not in head:
        node_range = _parse_node_range(head)
        spec = tail
    urls = [url.strip() for url in spec.split(",") if url.strip()]
    if not urls:
        raise ValueError(f"--group needs at least one URL, got {spec!r}")
    return node_range, urls


def cmd_route(args) -> int:
    """Front a sharded worker cluster (the ``route`` subcommand).

    Loads ``--index`` (memory-mapped: only the node labels are needed,
    sketches stay on disk) and serves the full single-server API by
    fanning out to the ``repro serve --cluster`` workers named by the
    ``--group`` flags -- one flag per shard group, each listing that
    range's replicas.  Queries merge exactly (concatenation / k-way
    rank merge / seeded ANF chaining), replicas fail over on transport
    faults, and whole-shard outages shed with a structured 503 naming
    the unavailable node range.  The router rides the same pipelined
    event loop as ``serve``; because its requests wait on worker
    RPCs, it answers them from a bounded thread executor instead of
    inline.

    Returns:
        0 after a clean shutdown (Ctrl-C), 1 when the index cannot be
        loaded, 2 for invalid parameters.

    Example:
        >>> from repro.cli import main
        >>> main(["route", "--index", "/nonexistent.adsidx",
        ...       "--group", "http://127.0.0.1:9"])
        1
    """
    from repro.ads.storage import shard_ranges
    from repro.serve import RouterServer

    if args.cache_size < 0:
        print(f"--cache-size must be >= 0, got {args.cache_size}",
              file=sys.stderr)
        return 2
    if args.rpc_timeout <= 0:
        print(f"--rpc-timeout must be > 0, got {args.rpc_timeout}",
              file=sys.stderr)
        return 2
    if args.resync_interval < 0:
        print(f"--resync-interval must be >= 0, got "
              f"{args.resync_interval}", file=sys.stderr)
        return 2
    try:
        parsed = [_parse_group(spec) for spec in args.group]
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    pinned = sum(1 for node_range, _ in parsed if node_range is not None)
    if pinned not in (0, len(parsed)):
        print("--group ranges must be given for all groups or none",
              file=sys.stderr)
        return 2
    index_path = Path(args.index)
    if not index_path.exists():
        print(f"index {args.index!r} does not exist", file=sys.stderr)
        return 1
    try:
        index = AdsIndex.load(index_path, mmap=True)
        labels = index.nodes()
        if pinned:
            groups = [(node_range, urls) for node_range, urls in parsed]
        else:
            ranges = shard_ranges(len(labels), len(parsed))
            groups = [
                (node_range, urls)
                for node_range, (_, urls) in zip(ranges, parsed)
            ]
        router = RouterServer(
            labels, groups,
            host=args.host, port=args.port,
            cache_size=args.cache_size, wire_mode=args.wire,
            rpc_timeout=args.rpc_timeout, rpc_wire=args.rpc_wire,
            probe_interval=args.probe_interval,
            writable=args.writable,
            validate_topology=args.validate_topology,
            resync_interval=args.resync_interval,
        )
    except (ReproError, OSError) as error:
        print(str(error), file=sys.stderr)
        return 1
    replicas = sum(len(urls) for _, urls in groups)
    writable = ", updates enabled" if args.writable else ""
    if args.resync_interval > 0:
        writable += f", resync every {args.resync_interval}s"
    print(
        f"# routing {len(labels)} nodes over {len(groups)} shard "
        f"group{'s' if len(groups) != 1 else ''} ({replicas} "
        f"replica{'s' if replicas != 1 else ''}) on {router.url} with "
        f"the pipelined event loop, rpc={args.rpc_wire}/"
        f"{args.rpc_timeout}s, probes every {args.probe_interval}s, "
        f"cache={args.cache_size}{writable}",
        file=sys.stderr,
    )
    try:
        router.serve_forever()
    except KeyboardInterrupt:
        print("# shutting down", file=sys.stderr)
    finally:
        router.close()
    return 0


def cmd_distinct_count(args) -> int:
    """HIP + HLL distinct count of a stream (``distinct-count``).

    Reads newline-separated elements from ``--input`` (default: stdin)
    and prints both the HIP estimate and the raw HyperLogLog estimate.

    Returns:
        0 on success.

    Example:
        >>> import tempfile, os
        >>> stream = os.path.join(tempfile.mkdtemp(), "els.txt")
        >>> with open(stream, "w") as fh:
        ...     _ = fh.write("a\\nb\\na\\nc\\n")
        >>> main(["distinct-count", "--input", stream,
        ...       "--k", "16"])  # doctest: +NORMALIZE_WHITESPACE
        hip 3.1
        hll 3.3
        0
    """
    counter = HipDistinctCounter(
        HyperLogLog(args.k, HashFamily(args.seed), args.register_bits)
    )
    stream = args.input if args.input else sys.stdin
    handle = open(stream) if isinstance(stream, str) else stream
    try:
        for line in handle:
            element = line.strip()
            if element:
                counter.add(element)
    finally:
        if isinstance(stream, str):
            handle.close()
    print(f"hip\t{counter.estimate():.1f}")
    print(f"hll\t{counter.sketch.estimate():.1f}")
    return 0


def cmd_figures(args) -> int:
    """Regenerate a paper figure panel (the ``figures`` subcommand).

    Runs the fig2 (HIP vs basic estimator NRMSE) or fig3 (distinct
    counting) simulation harness at the requested scale and prints the
    rendered series table.  The harness is a NumPy simulation, so this
    command needs the ``[fast]`` extra (everything else in the CLI
    falls back to pure Python without it).

    Returns:
        0 on success, 1 when NumPy is not installed.

    Example (needs NumPy, hence skipped in the no-NumPy doctest runs;
    ``tests/test_cli.py::TestFigures`` executes it when available):
        >>> from repro.cli import main
        >>> main(["figures", "fig2", "--k", "4", "--runs", "2",
        ...       "--max-n", "40"])  # doctest: +SKIP
        fig2 k=4 runs=2 max_n=40...
        0
    """
    try:
        from repro.eval.fig2 import Fig2Config, run_figure2
        from repro.eval.fig3 import Fig3Config, run_figure3
        from repro.eval.reporting import render_table
    except ImportError as error:
        print(
            "the figures harness needs NumPy "
            f"(pip install adsketch[fast]): {error}",
            file=sys.stderr,
        )
        return 1

    if args.figure == "fig2":
        result = run_figure2(
            Fig2Config(k=args.k, runs=args.runs, max_n=args.max_n)
        )
    else:
        result = run_figure3(
            Fig3Config(k=args.k, runs=args.runs, max_n=args.max_n)
        )
    print(
        render_table(
            f"{args.figure} k={args.k} runs={args.runs} max_n={args.max_n}",
            "size",
            result.checkpoints,
            result.nrmse,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="All-Distances Sketches with HIP estimators (CLI)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sketch", help="build and dump the ADS of every node")
    _add_common_graph_args(p)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_sketch)

    p = sub.add_parser("centrality", help="rank nodes by estimated centrality")
    _add_common_graph_args(p)
    p.add_argument(
        "--kind",
        choices=list(CENTRALITY_KINDS),
        default="classic",
    )
    p.add_argument("--half-life", type=float, default=1.0)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser(
        "neighborhood", help="estimated distance distribution of one node"
    )
    _add_common_graph_args(p)
    p.add_argument("--node", required=True)
    p.set_defaults(func=cmd_neighborhood)

    p = sub.add_parser(
        "build-index",
        help="build the flat-array ADS index of every node and save it",
    )
    _add_common_graph_args(p)
    p.add_argument(
        "--flavor",
        choices=["bottomk", "kmins", "kpartition"],
        default="bottomk",
    )
    p.add_argument(
        "--method",
        choices=["auto", "pruned_dijkstra", "dp"],
        default="auto",
    )
    p.add_argument(
        "--direction", choices=["forward", "backward"], default="forward"
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sharded parallel build (default 1; "
        "the result is bit-identical at any worker count)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="M",
        help="save a sharded on-disk layout: --out becomes a directory of "
        "M shard files plus a manifest (default: one flat file)",
    )
    _add_backend_arg(p)
    _add_kernel_workers_arg(p)
    p.add_argument("--out", required=True, help="index output file")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser(
        "query", help="serve estimates from a saved ADS index"
    )
    p.add_argument(
        "index",
        help="index file written by build-index (or a sharded layout "
        "directory / its manifest.json)",
    )
    p.add_argument(
        "--kind",
        choices=list(CENTRALITY_KINDS),
        default=None,
        help="centrality kind for the top-central query (default: "
        "classic), or for one node's centrality with --node",
    )
    p.add_argument("--half-life", type=float, default=1.0)
    p.add_argument("--top", type=int, default=10)
    p.add_argument(
        "--node",
        help="restrict to one node (its neighborhood function by "
        "default; its centrality with --kind; its cardinality with "
        "--cardinality)",
    )
    p.add_argument(
        "--cardinality",
        type=float,
        default=None,
        metavar="D",
        help="neighborhood-size estimate at distance D (all nodes, or "
        "--node's)",
    )
    p.add_argument(
        "--neighborhood",
        action="store_true",
        help="whole-graph neighborhood function (or --node's without it)",
    )
    p.add_argument(
        "--int-nodes", action="store_true", help="parse --node as an integer"
    )
    p.add_argument(
        "--stats", action="store_true",
        help="also report the index's storage format and bytes per "
        "entry on stderr",
    )
    _add_backend_arg(p)
    _add_kernel_workers_arg(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "similarity",
        help="pairwise similarity (or nearest neighbors) from a saved "
        "bottom-k index",
    )
    p.add_argument(
        "index",
        help="index file written by build-index (or a sharded layout "
        "directory / its manifest.json); must be bottom-k flavor",
    )
    p.add_argument(
        "--pair",
        nargs=2,
        action="append",
        metavar=("U", "V"),
        help="a node pair to score; repeat for a batch",
    )
    p.add_argument(
        "--node",
        help="rank the nodes most similar to this one instead of "
        "scoring pairs",
    )
    p.add_argument(
        "--count", type=int, default=10,
        help="result size for --node mode",
    )
    p.add_argument(
        "--metric",
        choices=["jaccard", "closeness"],
        default="jaccard",
        help="jaccard: d-neighborhood MinHash Jaccard; closeness: "
        "distance-profile similarity over the pair's distance grid",
    )
    p.add_argument(
        "--d", type=float, default=None, metavar="D",
        help="neighborhood radius for the jaccard metric (default: "
        "all reachable)",
    )
    p.add_argument(
        "--int-nodes", action="store_true",
        help="parse node tokens as integers",
    )
    _add_backend_arg(p)
    _add_kernel_workers_arg(p)
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser(
        "distance",
        help="sketch distance-oracle estimates for node pairs from a "
        "saved bottom-k index",
    )
    p.add_argument(
        "index",
        help="index file written by build-index (or a sharded layout "
        "directory / its manifest.json); must be bottom-k flavor",
    )
    p.add_argument(
        "--pair",
        nargs=2,
        action="append",
        required=True,
        metavar=("U", "V"),
        help="a node pair to estimate; repeat for a batch",
    )
    p.add_argument(
        "--int-nodes", action="store_true",
        help="parse node tokens as integers",
    )
    _add_backend_arg(p)
    _add_kernel_workers_arg(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser(
        "serve",
        help="serve a saved ADS index over an HTTP JSON API",
    )
    p.add_argument(
        "--index",
        required=True,
        help="index file written by build-index (or a sharded layout "
        "directory / its manifest.json)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8080,
        help="bind port (0 picks a free port)",
    )
    p.add_argument(
        "--mmap",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="memory-map the index columns (zero-copy, lazy per-shard "
        "paging) instead of reading them eagerly",
    )
    p.add_argument(
        "--cache-size", type=int, default=256,
        help="LRU capacity for whole-graph query results (0 disables)",
    )
    p.add_argument(
        "--wire",
        choices=("auto", "json"),
        default="auto",
        help="response codec policy: 'auto' answers the compact binary "
        "codec to clients that send Accept: application/x-repro-wire, "
        "'json' pins every response to JSON",
    )
    p.add_argument(
        "--graph",
        default=None,
        help="edge-list file of the index's graph; enables POST /update "
        "live edge insertions (requires --no-mmap)",
    )
    p.add_argument(
        "--directed",
        action="store_true",
        help="force directed interpretation of --graph",
    )
    p.add_argument(
        "--cluster",
        default=None,
        metavar="START:STOP",
        help="serve as a shard worker owning global node ids "
        "[START, STOP) (empty STOP = open-ended); sweeps cover only "
        "this range so a `repro route` router can concatenate shards "
        "exactly",
    )
    p.add_argument(
        "--wal-dir",
        default=None,
        metavar="DIR",
        help="write each POST /update batch to a checksummed "
        "write-ahead log in DIR before applying it, and replay any "
        "pending batches on startup (crash recovery; requires "
        "--graph, truncated on /compact)",
    )
    _add_backend_arg(p)
    _add_kernel_workers_arg(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "route",
        help="front sharded `serve --cluster` workers with a fan-out "
        "router serving the identical single-server API",
    )
    p.add_argument(
        "--index",
        required=True,
        help="index file or sharded layout the workers serve (only "
        "node labels are read; sketches stay on disk)",
    )
    p.add_argument(
        "--group",
        action="append",
        required=True,
        metavar="[START:STOP=]URL[,URL...]",
        help="one shard group: that range's replica URLs, "
        "comma-separated; repeat per group in shard order.  Without "
        "START:STOP= prefixes the node-id space is split into "
        "balanced contiguous ranges (give the same ranges to the "
        "workers via serve --cluster)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8080,
        help="bind port (0 picks a free port)",
    )
    p.add_argument(
        "--cache-size", type=int, default=256,
        help="LRU capacity for merged whole-graph results (0 disables)",
    )
    p.add_argument(
        "--wire",
        choices=("auto", "json"),
        default="auto",
        help="client-facing codec policy (same semantics as serve)",
    )
    p.add_argument(
        "--rpc-wire",
        choices=("binary", "json"),
        default="binary",
        help="worker RPC codec; both round-trip floats exactly",
    )
    p.add_argument(
        "--rpc-timeout", type=float, default=10.0,
        help="per-worker RPC socket timeout in seconds (bounds how "
        "long a hung worker can stall a query before failover)",
    )
    p.add_argument(
        "--probe-interval", type=float, default=5.0,
        help="seconds between background /healthz probes of every "
        "replica (0 disables; per-RPC outcomes still update health)",
    )
    p.add_argument(
        "--writable",
        action="store_true",
        help="accept POST /update and /compact, fanning each batch to "
        "every replica (workers must run with --graph)",
    )
    p.add_argument(
        "--validate-topology",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="probe each worker's actual node range and labels digest "
        "at startup and refuse to route over mis-ranged or mismatched "
        "workers",
    )
    p.add_argument(
        "--resync-interval", type=float, default=15.0,
        help="seconds between automatic resync sweeps that rebuild "
        "stale replicas from a healthy peer and re-admit them after a "
        "digest check (0 disables)",
    )
    p.set_defaults(func=cmd_route)

    p = sub.add_parser(
        "update-index",
        help="apply an edge batch to a saved ADS index incrementally",
    )
    p.add_argument(
        "index",
        help="index file written by build-index (or a sharded layout "
        "directory / its manifest.json)",
    )
    p.add_argument(
        "--graph",
        required=True,
        help="edge-list file of the graph the index was built from "
        "(node labels must match the index)",
    )
    p.add_argument(
        "--edges",
        required=True,
        help="edge-batch file to insert (u v [weight] per line)",
    )
    p.add_argument(
        "--directed",
        action="store_true",
        help="force directed interpretation of --graph",
    )
    p.add_argument(
        "--out",
        default=None,
        help="destination index (default: update INDEX in place, "
        "rewriting only dirty shards of a sharded layout)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="M",
        help="write a fresh M-shard layout when --out is a new path",
    )
    p.add_argument(
        "--write-graph",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="rewrite --graph with the inserted edges, keeping the "
        "edge-list file in lockstep with the index (default: on when "
        "updating INDEX in place, off with --out)",
    )
    _add_kernel_workers_arg(p)
    p.set_defaults(func=cmd_update_index)

    p = sub.add_parser(
        "distinct-count",
        help="HIP + HLL distinct count of newline-separated elements",
    )
    p.add_argument("--k", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--register-bits", type=int, default=5)
    p.add_argument("--input", help="file to read (default: stdin)")
    p.set_defaults(func=cmd_distinct_count)

    p = sub.add_parser("figures", help="regenerate a paper figure panel")
    p.add_argument("figure", choices=["fig2", "fig3"])
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--max-n", type=int, default=10_000)
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        # Inside the guard: output short enough to sit in the buffer
        # only meets a closed pipe when it is flushed.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader left (`repro query ... | head`), which is not a
        # failure to report.  The interpreter flushes stdout once more
        # on exit; point it at devnull so that stays silent too (the
        # recipe in the ``signal`` module's documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ReproError, OSError) as error:
        # Commands handle their own expected failures; this guard turns
        # anything that escapes (unreadable graph file, bad parameters)
        # into a clean non-zero exit instead of a traceback.
        print(str(error), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
