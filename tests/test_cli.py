"""Tests for the command-line interface."""


import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.graph import (
    barabasi_albert_graph,
    gnp_random_graph,
    write_edge_list,
)


@pytest.fixture
def graph_file(tmp_path):
    graph = gnp_random_graph(50, 0.1, seed=3)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            ["sketch", "g.txt"],
            ["centrality", "g.txt"],
            ["neighborhood", "g.txt", "--node", "1"],
            ["build-index", "g.txt", "--out", "g.adsidx"],
            ["query", "g.adsidx"],
            ["serve", "--index", "g.adsidx"],
            ["serve", "--index", "g.adsidx", "--no-mmap", "--port", "0",
             "--cache-size", "64", "--kernel-workers", "2"],
            ["serve", "--index", "g.adsidx", "--no-mmap",
             "--graph", "g.txt"],
            ["serve", "--index", "g.adsidx", "--cluster", "0:500"],
            ["route", "--index", "g.adsidx",
             "--group", "http://127.0.0.1:8081",
             "--group", "http://127.0.0.1:8082,http://127.0.0.1:8083",
             "--rpc-timeout", "2.5", "--probe-interval", "0",
             "--writable"],
            ["update-index", "g.adsidx", "--graph", "g.txt",
             "--edges", "new.txt"],
            ["update-index", "g.adsidx", "--graph", "g.txt",
             "--edges", "new.txt", "--out", "h.adsidx", "--shards", "4",
             "--write-graph"],
            ["distinct-count"],
            ["figures", "fig2"],
        ):
            args = parser.parse_args(command)
            assert callable(args.func)

    def test_serve_mmap_flag_pair(self):
        parser = build_parser()
        assert parser.parse_args(["serve", "--index", "x"]).mmap is True
        assert parser.parse_args(
            ["serve", "--index", "x", "--no-mmap"]
        ).mmap is False


class TestSketch:
    def test_writes_one_line_per_node(self, graph_file, tmp_path, capsys):
        out = tmp_path / "sketches.txt"
        assert main(
            ["sketch", graph_file, "--k", "4", "--int-nodes",
             "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 50
        node, entries = lines[0].split("\t")
        first = entries.split()[0]
        assert first.count(":") == 2  # node:distance:rank

    def test_stdout_default(self, graph_file, capsys):
        assert main(["sketch", graph_file, "--k", "2", "--int-nodes"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 50

    @pytest.mark.parametrize("text", ["", "# a comment\n# and another\n"])
    def test_edge_list_with_no_edges(self, tmp_path, capsys, text):
        # centrality, build-index and query exit 0 on this input too.
        path = tmp_path / "no-edges.txt"
        path.write_text(text)
        assert main(["sketch", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "# 0 sketches\n"


class TestCentrality:
    @pytest.mark.parametrize("kind", ["classic", "harmonic", "decay", "distsum"])
    def test_kinds(self, graph_file, capsys, kind):
        assert main(
            ["centrality", graph_file, "--k", "8", "--int-nodes",
             "--kind", kind, "--top", "3"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            node, value = line.split("\t")
            float(value)


class TestNeighborhood:
    def test_distance_series(self, graph_file, capsys):
        assert main(
            ["neighborhood", graph_file, "--k", "8", "--int-nodes",
             "--node", "0"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = [float(line.split("\t")[1]) for line in lines]
        assert values == sorted(values)

    def test_unknown_node(self, graph_file, capsys):
        assert main(
            ["neighborhood", graph_file, "--k", "4", "--int-nodes",
             "--node", "9999"]
        ) == 1


class TestIndexWorkflow:
    @pytest.fixture
    def index_file(self, graph_file, tmp_path, capsys):
        path = tmp_path / "graph.adsidx"
        assert main(
            ["build-index", graph_file, "--k", "8", "--int-nodes",
             "--out", str(path)]
        ) == 0
        capsys.readouterr()
        return str(path)

    def test_build_index_writes_file(self, index_file, tmp_path):
        import os

        assert os.path.getsize(index_file) > 0

    def test_build_index_clean_errors(self, tmp_path, capsys):
        from repro.graph import random_geometric_graph, write_edge_list

        weighted = tmp_path / "weighted.txt"
        write_edge_list(random_geometric_graph(20, 0.3, seed=1), weighted)
        assert main(
            ["build-index", str(weighted), "--method", "dp", "--int-nodes",
             "--out", str(tmp_path / "w.adsidx")]
        ) == 1
        assert "unweighted" in capsys.readouterr().err
        assert main(
            ["build-index", str(weighted), "--int-nodes",
             "--out", str(tmp_path / "no-such-dir" / "w.adsidx")]
        ) == 1

    def test_query_top_central_matches_centrality_command(
        self, graph_file, index_file, capsys
    ):
        assert main(
            ["centrality", graph_file, "--k", "8", "--int-nodes",
             "--kind", "harmonic", "--top", "5"]
        ) == 0
        direct = capsys.readouterr().out
        assert main(
            ["query", index_file, "--kind", "harmonic", "--top", "5"]
        ) == 0
        via_index = capsys.readouterr().out
        assert via_index == direct

    def test_query_node_neighborhood(self, index_file, capsys):
        assert main(
            ["query", index_file, "--node", "0", "--int-nodes"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = [float(line.split("\t")[1]) for line in lines]
        assert values == sorted(values)

    def test_query_cardinality_all_nodes(self, index_file, capsys):
        assert main(["query", index_file, "--cardinality", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 50

    @pytest.mark.parametrize("node", [(), ("--node", "5")])
    def test_query_cardinality_nan_is_refused(self, index_file, capsys, node):
        # A bisect reads NaN as inf and ``dist <= nan`` as nothing, so
        # the two kernels used to print different answers.
        assert main(["query", index_file, "--cardinality", "nan", *node]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "d must not be NaN" in captured.err
        assert "Traceback" not in captured.err

    def test_query_graph_neighborhood(self, index_file, capsys):
        assert main(["query", index_file, "--neighborhood"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = [float(line.split("\t")[1]) for line in lines]
        assert values == sorted(values)

    def test_query_unknown_node(self, index_file, capsys):
        assert main(
            ["query", index_file, "--node", "9999", "--int-nodes"]
        ) == 1

    def test_query_single_node_centrality(
        self, graph_file, index_file, capsys
    ):
        assert main(
            ["query", index_file, "--node", "0", "--int-nodes",
             "--kind", "harmonic"]
        ) == 0
        node, value = capsys.readouterr().out.strip().split("\t")
        assert node == "0"
        assert main(
            ["centrality", graph_file, "--k", "8", "--int-nodes",
             "--kind", "harmonic", "--top", "50"]
        ) == 0
        table = dict(
            line.split("\t")
            for line in capsys.readouterr().out.strip().splitlines()
        )
        assert value == table["0"]

    def test_query_non_index_file(self, graph_file, capsys):
        assert main(["query", graph_file]) == 1
        assert "not an AdsIndex file" in capsys.readouterr().err

    def test_query_bad_int_node(self, index_file, capsys):
        assert main(
            ["query", index_file, "--node", "abc", "--int-nodes"]
        ) == 1

    def test_query_node_coerces_to_stored_label_type(
        self, index_file, capsys
    ):
        # index built with --int-nodes; --node works without the flag
        assert main(["query", index_file, "--node", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("0\t")

    def test_query_node_coerces_string_labels_too(
        self, graph_file, tmp_path, capsys
    ):
        # index built WITHOUT --int-nodes (string labels); --int-nodes
        # queries still resolve
        path = tmp_path / "str.adsidx"
        assert main(
            ["build-index", graph_file, "--k", "4", "--out", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["query", str(path), "--node", "0", "--int-nodes"]
        ) == 0
        assert capsys.readouterr().out.strip()


class TestParallelAndShardedIndex:
    def test_workers_build_matches_serial(self, graph_file, tmp_path, capsys):
        serial, parallel = tmp_path / "s.adsidx", tmp_path / "p.adsidx"
        assert main(
            ["build-index", graph_file, "--k", "6", "--int-nodes",
             "--out", str(serial)]
        ) == 0
        assert main(
            ["build-index", graph_file, "--k", "6", "--int-nodes",
             "--workers", "2", "--out", str(parallel)]
        ) == 0
        assert "workers=2" in capsys.readouterr().err
        assert serial.read_bytes() == parallel.read_bytes()

    def test_sharded_layout_roundtrips_through_query(
        self, graph_file, tmp_path, capsys
    ):
        flat, sharded = tmp_path / "flat.adsidx", tmp_path / "sharded.adsidx"
        assert main(
            ["build-index", graph_file, "--k", "6", "--int-nodes",
             "--out", str(flat)]
        ) == 0
        assert main(
            ["build-index", graph_file, "--k", "6", "--int-nodes",
             "--shards", "3", "--out", str(sharded)]
        ) == 0
        assert sharded.is_dir() and (sharded / "manifest.json").is_file()
        capsys.readouterr()
        assert main(["query", str(flat), "--top", "5"]) == 0
        from_flat = capsys.readouterr().out
        assert main(["query", str(sharded), "--top", "5"]) == 0
        assert capsys.readouterr().out == from_flat


class TestErrorPaths:
    """build-index / query failure modes: non-zero exit, clear message,
    never a traceback."""

    def test_build_index_missing_input_file(self, tmp_path, capsys):
        assert main(
            ["build-index", str(tmp_path / "missing.txt"),
             "--out", str(tmp_path / "x.adsidx")]
        ) == 1
        assert "missing.txt" in capsys.readouterr().err

    def test_build_index_rejects_nonpositive_workers(
        self, graph_file, tmp_path, capsys
    ):
        for bad in ("0", "-3"):
            assert main(
                ["build-index", graph_file, "--workers", bad,
                 "--out", str(tmp_path / "x.adsidx")]
            ) == 2
            assert "--workers must be >= 1" in capsys.readouterr().err

    def test_build_index_rejects_nonpositive_shards(
        self, graph_file, tmp_path, capsys
    ):
        assert main(
            ["build-index", graph_file, "--shards", "0",
             "--out", str(tmp_path / "x.adsidx")]
        ) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_build_index_non_integer_workers_is_usage_error(
        self, graph_file, tmp_path
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["build-index", graph_file, "--workers", "many",
                 "--out", str(tmp_path / "x.adsidx")]
            )
        assert excinfo.value.code == 2

    def test_query_missing_index_file(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "missing.adsidx")]) == 1
        assert capsys.readouterr().err.strip()

    def test_query_label_absent_from_index(self, graph_file, tmp_path,
                                           capsys):
        path = tmp_path / "graph.adsidx"
        assert main(
            ["build-index", graph_file, "--k", "4", "--int-nodes",
             "--out", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["query", str(path), "--node", "777", "--int-nodes"]
        ) == 1
        assert "not in index" in capsys.readouterr().err

    def test_sketch_missing_input_file(self, tmp_path, capsys):
        # Commands without bespoke handlers still exit cleanly via the
        # main()-level guard.
        assert main(["sketch", str(tmp_path / "missing.txt")]) == 1
        assert "missing.txt" in capsys.readouterr().err

    def test_serve_missing_index(self, tmp_path, capsys):
        assert main(
            ["serve", "--index", str(tmp_path / "missing.adsidx")]
        ) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_serve_non_index_file(self, graph_file, capsys):
        assert main(["serve", "--index", graph_file, "--port", "0"]) == 1
        assert "not an AdsIndex file" in capsys.readouterr().err

    def test_serve_rejects_bad_parameters(self, tmp_path, capsys):
        target = tmp_path / "x.adsidx"
        target.write_bytes(b"")
        assert main(
            ["serve", "--index", str(target), "--cache-size", "-1"]
        ) == 2
        assert "--cache-size" in capsys.readouterr().err

    def test_removed_transport_flags_are_refused(self, capsys):
        # One transport: the flags that chose or tuned the other one
        # are gone, loudly (argparse exit 2), not silently ignored.
        route = ["route", "--index", "x", "--group", "http://127.0.0.1:1"]
        for argv in (
            ["serve", "--index", "x", "--threads", "2"],
            ["serve", "--index", "x", "--async-loop"],
            ["serve", "--index", "x", "--max-in-flight", "8"],
            ["serve", "--index", "x", "--coalesce-window", "0.001"],
            route + ["--threads", "2"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_rejects_malformed_cluster_range(self, tmp_path,
                                                   capsys):
        target = tmp_path / "x.adsidx"
        target.write_bytes(b"")
        for spec in ("5", ":10", "a:b"):
            assert main(
                ["serve", "--index", str(target), "--cluster", spec]
            ) == 2
            assert "--cluster" in capsys.readouterr().err

    def test_route_missing_index(self, tmp_path, capsys):
        assert main([
            "route", "--index", str(tmp_path / "missing.adsidx"),
            "--group", "http://127.0.0.1:1",
        ]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_route_rejects_bad_parameters(self, tmp_path, capsys):
        target = tmp_path / "x.adsidx"
        target.write_bytes(b"")
        base = ["route", "--index", str(target),
                "--group", "http://127.0.0.1:1"]
        assert main(base + ["--rpc-timeout", "0"]) == 2
        assert "--rpc-timeout" in capsys.readouterr().err
        assert main([
            "route", "--index", str(target), "--group", ",",
        ]) == 2
        assert "at least one URL" in capsys.readouterr().err
        # Pinning some groups' ranges but not others is ambiguous.
        assert main([
            "route", "--index", str(target),
            "--group", "0:5=http://127.0.0.1:1",
            "--group", "http://127.0.0.1:2",
        ]) == 2
        assert "all groups or none" in capsys.readouterr().err

    def test_route_group_spec_parsing(self):
        from repro.cli import _parse_group

        assert _parse_group("http://h:1,http://h:2") == (
            None, ["http://h:1", "http://h:2"]
        )
        assert _parse_group("0:500=http://h:1") == (
            (0, 500), ["http://h:1"]
        )
        assert _parse_group("500:=http://h:1,http://h:2") == (
            (500, None), ["http://h:1", "http://h:2"]
        )


class TestDistinctCount:
    def test_counts_distinct_lines(self, tmp_path, capsys):
        stream = tmp_path / "stream.txt"
        elements = [f"user-{i % 500}" for i in range(5000)]
        stream.write_text("\n".join(elements) + "\n")
        assert main(
            ["distinct-count", "--k", "64", "--input", str(stream)]
        ) == 0
        out = capsys.readouterr().out
        hip = float(out.splitlines()[0].split("\t")[1])
        assert hip == pytest.approx(500, rel=0.3)


class TestFigures:
    @pytest.fixture(autouse=True)
    def _needs_numpy(self):
        pytest.importorskip("numpy")

    def test_fig2_small(self, capsys):
        assert main(
            ["figures", "fig2", "--k", "5", "--runs", "10",
             "--max-n", "200"]
        ) == 0
        out = capsys.readouterr().out
        assert "bottomk_hip" in out

    def test_fig3_small(self, capsys):
        assert main(
            ["figures", "fig3", "--k", "16", "--runs", "10",
             "--max-n", "2000"]
        ) == 0
        out = capsys.readouterr().out
        assert "hll_raw" in out


class TestFiguresWithoutNumpy:
    def test_clean_error_when_harness_unimportable(
        self, monkeypatch, capsys
    ):
        monkeypatch.setitem(sys.modules, "repro.eval.fig2", None)
        assert main(["figures", "fig2"]) == 1
        assert "NumPy" in capsys.readouterr().err


class TestUpdateIndex:
    """The update-index subcommand: incremental apply from the shell."""

    def _build(self, tmp_path, graph_file, extra=()):
        index = str(tmp_path / "g.adsidx")
        assert main([
            "build-index", graph_file, "--int-nodes", "--k", "4",
            "--out", index, *extra,
        ]) == 0
        return index

    def test_applies_batch_in_place(self, graph_file, tmp_path, capsys):
        index = self._build(tmp_path, graph_file)
        batch = tmp_path / "batch.txt"
        batch.write_text("0 49\n1 50\n", encoding="utf-8")
        code = main([
            "update-index", index, "--graph", graph_file,
            "--edges", str(batch), "--write-graph",
        ])
        err = capsys.readouterr().err
        assert code == 0
        assert "applied" in err and "1 new nodes" in err
        assert main([
            "query", index, "--node", "50", "--cardinality", "1",
        ]) == 0
        assert capsys.readouterr().out.startswith("50\t2.00")
        # --write-graph pinned the node order: a second run loads a
        # matching graph and is a clean no-op.
        assert main([
            "update-index", index, "--graph", graph_file,
            "--edges", str(batch),
        ]) == 0
        assert "applied 0 arcs" in capsys.readouterr().err

    def test_sharded_layout_partial_rewrite(self, graph_file, tmp_path,
                                            capsys):
        layout = str(tmp_path / "layout")
        assert main([
            "build-index", graph_file, "--int-nodes", "--k", "4",
            "--out", layout, "--shards", "4",
        ]) == 0
        batch = tmp_path / "batch.txt"
        batch.write_text("0 7\n", encoding="utf-8")
        code = main([
            "update-index", layout, "--graph", graph_file,
            "--edges", str(batch),
        ])
        err = capsys.readouterr().err
        assert code == 0
        assert "sharded" in err

    def test_out_writes_elsewhere(self, graph_file, tmp_path, capsys):
        index = self._build(tmp_path, graph_file)
        batch = tmp_path / "batch.txt"
        batch.write_text("3 9\n", encoding="utf-8")
        out = str(tmp_path / "updated.adsidx")
        assert main([
            "update-index", index, "--graph", graph_file,
            "--edges", str(batch), "--out", out,
        ]) == 0
        capsys.readouterr()
        assert main(["query", out, "--top", "3"]) == 0

    def test_missing_index_fails_cleanly(self, graph_file, tmp_path,
                                         capsys):
        batch = tmp_path / "batch.txt"
        batch.write_text("0 1\n", encoding="utf-8")
        assert main([
            "update-index", str(tmp_path / "nope.adsidx"),
            "--graph", graph_file, "--edges", str(batch),
        ]) == 1
        assert capsys.readouterr().err

    def test_malformed_batch_fails_cleanly(self, graph_file, tmp_path,
                                           capsys):
        index = self._build(tmp_path, graph_file)
        batch = tmp_path / "batch.txt"
        batch.write_text("0 1 2 3\n", encoding="utf-8")
        assert main([
            "update-index", index, "--graph", graph_file,
            "--edges", str(batch),
        ]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_serve_graph_requires_no_mmap(self, graph_file, tmp_path,
                                          capsys):
        index = self._build(tmp_path, graph_file)
        assert main([
            "serve", "--index", index, "--graph", graph_file,
        ]) == 2
        assert "--no-mmap" in capsys.readouterr().err

    def test_inplace_updates_stay_rebuild_exact_by_default(
        self, tmp_path, capsys
    ):
        """Two successive in-place updates (no --write-graph flag) must
        keep matching a rebuild: the graph file follows the index by
        default, so the second propagation sees the first batch."""
        graph_file = str(tmp_path / "chain.txt")
        with open(graph_file, "w") as fh:
            fh.write("".join(f"{i} {i+1}\n" for i in range(9)))
        index = str(tmp_path / "chain.adsidx")
        assert main([
            "build-index", graph_file, "--int-nodes", "--k", "16",
            "--out", index,
        ]) == 0
        for edge in ("5 9", "0 5"):
            batch = tmp_path / "batch.txt"
            batch.write_text(edge + "\n", encoding="utf-8")
            assert main([
                "update-index", index, "--graph", graph_file,
                "--edges", str(batch),
            ]) == 0
        rebuilt = str(tmp_path / "rebuilt.adsidx")
        assert main([
            "build-index", graph_file, "--int-nodes", "--k", "16",
            "--out", rebuilt,
        ]) == 0
        capsys.readouterr()
        assert main(["query", index, "--cardinality", "2"]) == 0
        incremental = capsys.readouterr().out
        assert main(["query", rebuilt, "--cardinality", "2"]) == 0
        assert incremental == capsys.readouterr().out


class TestClosedPipe:
    """``repro ... | head``: the reader leaving is not an error."""

    @pytest.mark.parametrize("nodes,read_first_line", [
        # Far more output than a pipe holds: the writer is blocked
        # mid-print when the reader closes.
        (1500, True),
        # Output that fits the stdout buffer: it only meets the closed
        # pipe at the flush.
        (5, False),
    ])
    def test_reader_closing_early_is_silent(
        self, tmp_path, nodes, read_first_line
    ):
        graph_file = tmp_path / "graph.txt"
        write_edge_list(barabasi_albert_graph(nodes, 2, seed=3), graph_file)
        src = Path(__file__).resolve().parent.parent / "src"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "sketch", str(graph_file),
             "--k", "4", "--int-nodes"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={"PYTHONPATH": str(src)},
        )
        if read_first_line:
            assert process.stdout.readline().startswith(b"0\t")
        process.stdout.close()
        stderr = process.stderr.read().decode()
        process.stderr.close()
        assert process.wait(timeout=60) == 1
        for noise in ("Broken pipe", "Exception ignored", "Traceback"):
            assert noise not in stderr, stderr
        if read_first_line:
            assert stderr == ""
