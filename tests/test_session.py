"""The one Spark launcher (``repro.session``) shared by the tests and the
``jobs/`` entry points."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro import session
from repro.core.ingest import ingest_local
from repro.datasets import ep_like
from repro.dims.grouping import singleton_groups
from repro.storage.segment_store import write_store

ROOT = Path(__file__).resolve().parent.parent

# The heap rule of the tier-1 command (ROADMAP.md).
TIER1_AWK = ("/^MemTotal:/ {g = int($2 / 2097152)} "
             "END {print (g < 2 ? 2 : g > 8 ? 8 : g) \"g\"}")


def _submit_args(monkeypatch) -> str:
    monkeypatch.delenv("PYSPARK_SUBMIT_ARGS", raising=False)
    session.prepare_environment()
    return os.environ["PYSPARK_SUBMIT_ARGS"]


class TestPrepareEnvironment:
    def test_heap_follows_spark_driver_mem(self, monkeypatch):
        monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
        assert "--driver-memory 3g " in _submit_args(monkeypatch)

    def test_heap_defaults_to_tier1_rule(self, monkeypatch):
        monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
        with open("/proc/meminfo") as f:
            want = subprocess.run(["awk", TIER1_AWK], stdin=f, text=True,
                                  capture_output=True, check=True
                                  ).stdout.strip()
        assert session.driver_memory() == want
        assert f"--driver-memory {want} " in _submit_args(monkeypatch)

    def test_master_and_driver_settings(self, monkeypatch):
        monkeypatch.setenv("SPARK_MASTER", "local[2]")
        args = _submit_args(monkeypatch)
        assert args.startswith("--master local[2] ")
        assert "--conf spark.driver.host=127.0.0.1 " in args
        assert "--conf spark.ui.enabled=false " in args
        assert args.endswith(" pyspark-shell")

    def test_existing_submit_args_are_kept(self, monkeypatch):
        monkeypatch.setenv("PYSPARK_SUBMIT_ARGS", "--master local[1] x")
        session.prepare_environment()
        assert os.environ["PYSPARK_SUBMIT_ARGS"] == "--master local[1] x"

    def test_pythonpath_starts_with_src_once(self, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(["/elsewhere",
                                                          session.SRC]))
        session.prepare_environment()
        session.prepare_environment()
        assert session.SRC == str(ROOT / "src")
        assert os.environ["PYTHONPATH"].split(os.pathsep) == [
            session.SRC, "/elsewhere"]


def test_job_spark_workers_import_repro_without_pythonpath(tmp_path):
    """A query started through ``jobs/common.get_spark`` runs Python
    workers, which must find ``repro`` with no install and no
    ``PYTHONPATH``."""
    ds = ep_like(n_entities=1, n_points=64, seed=5, gap_prob=0.0)
    meta = singleton_groups(ds.meta)
    store = str(tmp_path / "store")
    write_store(ingest_local(ds.points, meta, eps_pct=0.0), meta, store)
    script = tmp_path / "job.py"
    script.write_text(textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(ROOT / "jobs")!r})
        from common import get_spark
        from repro.query.aggregates import simple_agg
        from repro.query.views import segment_view

        spark = get_spark("launcher-test")
        row = simple_agg(segment_view(spark, {store!r}), group_cols=(),
                         aggs=("count",)).first()
        print(row["count_s"])
        spark.stop()
    """))
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYSPARK_SUBMIT_ARGS")}
    env["SPARK_DRIVER_MEM"] = "1g"
    run = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                         env=env, capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stderr[-4000:]
    assert run.stdout.split()[-1] == str(len(ds.points))
