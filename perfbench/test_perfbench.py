"""The benchmark's own tests, at tiny corpus sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = 30_000


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture
def runner(tmp_path):
    return run.Runner(str(tmp_path), deadline=time.perf_counter() + 150)


def spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_run_py_prints():
    doc = spec()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    out = result(bench("--workload", workload, "--seed", "5", "--seconds",
                       "1", "--trace", trace, "--bytes", str(TINY)))
    section = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec()[section]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    for metric in spec()["end_to_end"] if trace == "0" else ():
        assert out["metrics"][metric["name"]]["value"] > 0


def test_tampered_counters_record_fails_the_output_check(runner):
    workload = run.Workload("table1-serial", 5, TINY, runner)
    ex, _ = workload.cycle()
    assert runner.failed == 0
    reports = ex.reports
    reports[0]["data"]["rows"][1]["identical"] += 1
    (ex.out_dir / "reports.json").write_text(json.dumps(reports))
    run.check_outputs(runner, "table1-serial", ex)
    assert runner.failed == 1 and runner.incorrect
    assert "total != hdr + identical + remaining" in runner.problems[0]


def test_warm_report_may_differ_only_in_its_timing_lines():
    cold = "```\nrow 1\n```\n\n*(regenerated in 2.6 s)*\n"
    assert run.without_timings(cold) == run.without_timings(
        cold.replace("2.6", "0.0"))
    assert run.without_timings(cold) != run.without_timings(
        cold.replace("row 1", "row 2"))


def test_a_different_seed_changes_the_generated_inputs():
    sys.path.insert(0, str(run.SRC))
    from repro.corpus.profiles import build_filesystem

    assert "--seed" in run.command("table1-serial", 7, TINY, ".")
    one, other = (build_filesystem("nsc05", TINY, seed) for seed in (7, 8))
    assert [f.data for f in one] != [f.data for f in other]
    again = build_filesystem("nsc05", TINY, 7)
    assert [f.data for f in one] == [f.data for f in again]


def test_traced_and_untraced_counters_agree(runner):
    workload = run.Workload("table1-parallel", 6, TINY, runner)
    plain, _ = workload.cycle()
    traced, _ = workload.cycle("trace")
    assert run.signature(plain.reports) == run.signature(traced.reports)
    spans = run.load_spans(traced)
    table = run.rows(plain.reports, "table1")
    assert [c["total"] for c in run.sweep_counters(spans)] == [
        row["total"] for row in table]
    # Worker processes wrote spans that name the parent's sweep span.
    sweeps = {s["id"] for s in spans if s["name"] == "core.sweep"}
    engine = [s for s in spans if s["name"] == "core.engine"]
    assert engine and all(s["parent"] in sweeps for s in engine)
    assert runner.failed == 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "table1-parallel", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
