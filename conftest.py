import sys

import pytest

# pytest puts ``src`` on this process's path (pyproject.toml).
from repro.session import prepare_environment, spark_session

# Before any test module imports pyspark or starts a JVM.
prepare_environment()


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session.

    Broadcast joins are disabled so the tests exercise the shuffle path
    at their small sizes; a test that wants a broadcast join sets the
    threshold back for that query.
    """
    s = spark_session("repro", {"spark.sql.autoBroadcastJoinThreshold": -1})
    sc = s.sparkContext
    print(f"[conftest] SPARK_DRIVER_MEM="
          f"{sc.getConf().get('spark.driver.memory', '1g')} "
          f"master={sc.master} defaultParallelism={sc.defaultParallelism}",
          file=sys.stderr)
    yield s
    s.stop()
