"""Tier-1 smoke test of the benchmark harness.

Runs every workload through all four stages at toy scale (300-node
graphs, sub-second phases, traced so that both metric lists are filled)
and checks the harness's own promises: every name ``BENCHMARK.json``
declares is emitted with the declared unit, the correctness checks ran
and passed, a wrong answer is counted as failed, and ``compare.py``
flags a doctored regression.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HARNESS_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(HARNESS_DIR))

import compare  # noqa: E402
import core  # noqa: E402
import run as harness_run  # noqa: E402

SPEC = json.loads((harness_run.ROOT / "BENCHMARK.json").read_text())
EXPECTED_CHECKS = {
    "build.first_answer", "build.mean_ads_size", "build.digest_roundtrip",
    "analytics.eager_equals_mmap", "analytics.hip_within_bound",
    "serve_read.sampled_answers", "serve_write.recovered_answer",
    "serve_write.tail_pending", "serve_write.acked_batches_survive",
}


@pytest.fixture(scope="module")
def toy_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("harness")
    status = harness_run.main([
        "--toy", "--seconds", "1.5", "--seed", "5", "--trace", "1",
        "--out", str(out),
    ])
    assert status == 0
    files = sorted(out.glob("results-*.json"))
    assert len(files) == 1
    assert (out / "trace.jsonl").stat().st_size > 0
    assert not list(out.glob("work-*")), "scratch directories must be removed"
    return files[0]


def test_every_declared_metric_is_emitted(toy_results):
    results = json.loads(toy_results.read_text())
    assert results["env"]["nproc"] and results["env"]["python"]
    runs = {run["workload"]: run for run in results["runs"]}
    assert set(runs) == {w["name"] for w in SPEC["workloads"]}
    for run in runs.values():
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert metric["name"] in run["metrics"], metric["name"]
            assert run["metrics"][metric["name"]]["unit"] == metric["unit"]
        for metric in SPEC["end_to_end"]:
            assert run["metrics"][metric["name"]]["value"] > 0, metric["name"]


def test_correctness_checks_ran_and_passed(toy_results):
    for run in json.loads(toy_results.read_text())["runs"]:
        checks = {name: ok for name, ok, _ in run["checks"]}
        assert EXPECTED_CHECKS <= set(checks)
        failed = [name for name in EXPECTED_CHECKS if not checks[name]]
        assert not failed, failed
        assert run["attempted"] > 0 and run["failed"] == 0


def test_wrong_answer_counts_as_failed():
    from repro.ads import AdsIndex
    from repro.graph import path_graph

    index = AdsIndex.build(path_graph(6).to_csr(), k=4)
    truth = index.node_cardinality_at(2, 1.0)
    good = (("cardinality", 2, 1.0), json.dumps({"value": truth}).encode())
    bad = (("cardinality", 2, 1.0), json.dumps({"value": truth + 1}).encode())
    torn = (("cardinality", 2, 1.0), b'{"value": ')
    assert core.verify_responses(index, [good]) == (1, 0)
    assert core.verify_responses(index, [good, bad, torn]) == (3, 2)
    report = core.Report()
    report.count(*core.verify_responses(index, [good, bad]))
    assert report.failed == 1 and not report.correct


def test_compare_flags_a_doctored_regression(toy_results, tmp_path, capsys):
    results = json.loads(toy_results.read_text())
    for run in results["runs"]:
        run["trace"] = 0   # compare gates untraced runs
    baseline = tmp_path / "a.json"
    baseline.write_text(json.dumps(results))
    doctored = copy.deepcopy(results)
    victim = doctored["runs"][0]
    victim["metrics"]["build_to_first_answer_s"]["value"] *= 2.0
    victim["metrics"]["read_saturation_qps"]["value"] *= 2.0
    regressed = tmp_path / "b.json"
    regressed.write_text(json.dumps(doctored))

    assert compare.main([str(baseline), str(baseline)]) == 0
    capsys.readouterr()
    assert compare.main([str(baseline), str(regressed)]) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    verdicts = {
        (row[0], row[1]): row[6] for row in rows
        if len(row) > 6 and row[0] == victim["workload"]
    }
    assert verdicts[(victim["workload"], "build_to_first_answer_s")] == "worse"
    assert verdicts[(victim["workload"], "read_saturation_qps")] == "better"
    assert verdicts[(victim["workload"], "pair_estimates_per_s")] == "within"


def test_laps_combine_to_best_sample_and_median_size():
    laps = []
    for seconds, rates, size, setup in ((3.0, [10.0, 40.0], 7.0, 1.0),
                                        (2.0, [30.0], 9.0, 5.0),
                                        (4.0, [20.0, 5.0], 8.0, 2.0)):
        report = core.Report()
        report.timing("build_to_first_answer_s", seconds, "s")
        report.timing("read_saturation_qps", rates, "req/s")
        report.put("peak_rss_mb", size, "MB")
        report.put("setup_s", setup, "s")
        report.check("lap.check", True)
        report.count(10, 1)
        laps.append(report)
    combined, pooled = harness_run.combine_laps(laps, SPEC)
    assert combined.value("build_to_first_answer_s") == 2.0   # best: lowest
    assert combined.value("read_saturation_qps") == 40.0      # best: highest
    assert combined.value("peak_rss_mb") == 8.0               # a size: median
    assert combined.value("setup_s") == 2.0                   # median set-up
    assert pooled["setup_s"] == [1.0, 5.0, 2.0]
    assert pooled["read_saturation_qps"] == [10.0, 40.0, 30.0, 20.0, 5.0]
    assert (combined.attempted, combined.failed) == (33, 3)
    assert not combined.correct
