"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The tiny-scale runs start Spark in a subprocess each and take a few
minutes in total.
"""
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import harness  # noqa: E402

SPEC = harness.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# ------------------------------------------------------------ tail rule

@pytest.mark.parametrize("n", [0, 1, 5, 10])
def test_tail_needs_more_than_ten_samples(n):
    assert harness.tail_percentile([float(i) for i in range(n)]) is None


@pytest.mark.parametrize("n,p", [(11, 9), (20, 50), (40, 75), (100, 90),
                                 (1000, 99)])
def test_tail_is_highest_percentile_with_ten_beyond(n, p):
    values = [float(i) for i in range(n)]
    got_p, got_v = harness.tail_percentile(values)
    assert got_p == p
    beyond = sum(1 for v in values if v > got_v)
    assert beyond >= 10
    # One percentile higher would leave fewer than ten samples beyond.
    if p < 99:
        k = -(-(p + 1) * n // 100)
        assert n - k < 10


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0] * 5
    assert harness.tail_percentile(values) == harness.tail_percentile(
        sorted(values))


# ------------------------------------------------------------ names

@pytest.mark.parametrize("name", ["setup_s", "core.golemm.segments.swing",
                                  "a", "9x", "x-y_z.w"])
def test_valid_names(name):
    assert harness.valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "é",
                                  "x" * 65])
def test_invalid_names(name):
    assert not harness.valid_name(name)


def test_spec_names_units_and_bounds():
    e2e, per = SPEC["end_to_end"], SPEC["per_layer"]
    names = [m["name"] for m in e2e + per] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(harness.valid_name(n) for n in names)
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in per:
        assert set(m) == {"name", "unit", "better"}
    for m in e2e + per:
        assert harness.valid_unit(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)
    assert 2 <= len(WORKLOADS) <= 8 and 1 <= SPEC["run_seconds"] <= 60


def test_result_line_rejects_bad_metrics():
    with pytest.raises(ValueError):
        harness.result_line({"bad name": (1.0, "s")}, 1, 0, True)
    with pytest.raises(ValueError):
        harness.result_line({"x": (float("nan"), "s")}, 1, 0, True)
    line = json.loads(harness.result_line({"x": (1.5, "s")}, 2, 0, True))
    assert line == {"correct": True, "attempted": 2, "failed": 0,
                    "metrics": {"x": {"value": 1.5, "unit": "s"}}}


# ------------------------------------------------------------ CPU time

def test_tree_cpu_counts_children_alive_and_reaped():
    burn = [sys.executable, "-c",
            "import time\nt = time.process_time()\n"
            "while time.process_time() - t < 0.5: pass\n"
            "input()"]
    before = harness.tree_cpu_s()[0]
    child = subprocess.Popen(burn, stdin=subprocess.PIPE)
    try:
        deadline = time.time() + 30
        while harness.tree_cpu_s()[0] - before < 0.4:     # alive child
            assert time.time() < deadline
            time.sleep(0.05)
    finally:
        child.communicate(b"\n", timeout=30)
    assert harness.tree_cpu_s()[0] - before >= 0.4       # reaped child


# ------------------------------------------------------------ replays

def test_counted_ingest_replay_equals_ingest_local():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import data
    import tracing
    from repro.core.ingest import ingest_local
    from repro.dims.grouping import group_time_series
    from repro.experiments import gb_clauses

    ds = data.ef_input(seed=3, scale=0.01)
    meta, _ = group_time_series(ds.meta, list(ds.dims), gb_clauses(ds))
    segs, layers = tracing.replay_ingest(ds.points, meta, 10.0)
    assert segs == ingest_local(ds.points, meta, 10.0)
    assert layers["core.golemm.segments"] == len(segs)
    assert layers["core.models.fit_calls.pmc_mean"] > 0
    assert 0 < layers["core.ingest.slowest_group_share"] <= 1


# ------------------------------------------------------------ tiny runs

def _run(cwd, workload, trace, timeout=600):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", str(trace),
                             "--scale", "0.03"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


#: Per-layer metrics each workload must measure (non-zero) at tiny scale.
LAYER_WORK = {
    "ingest-ef": ["dims.group_s", "core.ingest.python_total_ms",
                  "core.ingest.bytes_to_python", "core.golemm.segments",
                  "core.golemm.fitted_points_per_point",
                  "core.models.fit_calls.pmc_mean", "core.gorilla.encode_s",
                  "storage.write_s", "storage.bytes",
                  "storage.datasource.floor_s", "spark.empty_job_s",
                  "spark.tasks", "ingest_points_per_s", "peak_rss_mb",
                  "ops_per_s", "setup.wall_s", "setup.spark_start_s",
                  "setup.spark_start_cpu_s"],
    "query-ep": ["core.golemm.segments", "core.golemm.compress_s",
                 "storage.files_scanned",
                 "storage.datasource.scan_rows", "query.plan_s",
                 "query.view_rows", "query.udf.python_total_ms",
                 "query.udf.rows_to_python", "query.constant_time_share",
                 "query.time_agg.partials_per_row",
                 "query.decode.partials_s", "query.decode.values_s",
                 "spark.exec_s", "spark.result_rows", "spark.tasks",
                 "s_agg_p50_s", "l_agg_p50_s", "m_agg_p50_s", "pr_p50_s",
                 "dp_full_p50_s", "peak_rss_mb"],
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if trace:
        for name in LAYER_WORK[workload]:
            assert result["metrics"][name]["value"] > 0, name
        assert any(line.startswith("# trace ") for line in lines)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert any(line.startswith("# env ") for line in lines)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), WORKLOADS[0], 0, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
