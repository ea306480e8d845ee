"""Run environment, statistics and the result line of the benchmark.

Everything here is independent of the workloads: how the Spark session
is started (master, driver memory, scratch directories inside the
checkout, ``repro`` importable in Python workers), how timings are
summarised (median, the tail percentile with at least ten samples
beyond it), and how the final JSON line is validated and printed.
"""
from __future__ import annotations

import json
import math
import os
import re
import shlex
import statistics
import sys
from typing import Dict, Iterable, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Scratch space for stores, staged points and Spark's temp files.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: Span files of traced runs (kept after the run).
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. no ``src/``)."""


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.match(unit))


# ---------------------------------------------------------------- statistics

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(values: Sequence[float], min_beyond: int = 10
                    ) -> Optional[Tuple[int, float]]:
    """Highest whole percentile with at least ``min_beyond`` samples
    strictly above its rank, as ``(percentile, value)``.

    The value is the order statistic at that rank, so exactly
    ``min_beyond`` or more samples lie beyond it.  ``None`` when the
    sample is too small to support any percentile (``n <= min_beyond``).
    """
    n = len(values)
    if n <= min_beyond:
        return None
    xs = sorted(values)
    best = None
    for p in range(1, 100):
        k = math.ceil(p / 100 * n)          # 1-based nearest-rank index
        if n - k >= min_beyond:
            best = (p, float(xs[k - 1]))
    return best


# ---------------------------------------------------------------- environment

def driver_memory() -> str:
    """Half of MemTotal in GiB, clamped to 2..8 g (the tier-1 rule)."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    g = int(line.split()[1]) // 2097152
                    return f"{min(max(g, 2), 8)}g"
    except (OSError, ValueError, IndexError):
        pass
    return "2g"


def master() -> str:
    return f"local[{min(4, os.cpu_count() or 1)}]"


def prepare_environment(workdir: str) -> Dict[str, str]:
    """Set the variables the JVM and the Python workers inherit.

    Must run before ``pyspark`` is imported: ``PYSPARK_SUBMIT_ARGS`` is
    read when the JVM is launched, and ``PYTHONPATH`` is how Spark's
    Python workers find ``repro`` and the benchmark's own modules.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SetupError(f"no program sources under {SRC!r}")
    tmp = os.path.join(workdir, "tmp")
    local = os.path.join(workdir, "spark-local")
    for d in (tmp, local):
        os.makedirs(d, exist_ok=True)
    paths = [SRC, HERE] + [p for p in os.environ.get("PYTHONPATH", "")
                           .split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ["TMPDIR"] = tmp
    # Spark's scratch space; the variable wins over spark.local.dir.
    os.environ["SPARK_LOCAL_DIRS"] = local
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    mem = driver_memory()
    conf = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.sql.warehouse.dir": os.path.join(workdir, "warehouse"),
        # No hsperfdata files under /tmp: everything stays in the checkout.
        "spark.driver.extraJavaOptions":
            f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
            # Compiler threads that exit would take their CPU time out
            # of the JIT share that ``tree_cpu_s`` reports.
            " -XX:-UseDynamicNumberOfCompilerThreads",
    }
    args = ["--master", master(), "--driver-memory", mem]
    for k, v in conf.items():
        args += ["--conf", f"{k}={v}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        shlex.quote(a) for a in args + ["pyspark-shell"])
    for p in (SRC, HERE):
        if p not in sys.path:
            sys.path.insert(0, p)
    return {"master": master(), "driver_memory": mem}


def start_spark():
    """The benchmark's one SparkSession (same SQL settings as ``jobs/``)."""
    from pyspark.sql import SparkSession

    spark = (SparkSession.builder.appName("perfbench")
             .config("spark.sql.shuffle.partitions", "64")
             .config("spark.sql.execution.arrow.pyspark.enabled", "true")
             .getOrCreate())
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait until the JVM has ended."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except Exception:               # noqa: BLE001 - last resort
            proc.kill()
            proc.wait(timeout=10)


def versions(spark) -> Dict[str, str]:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    return {
        "pyspark": pyspark.__version__, "pandas": pandas.__version__,
        "numpy": numpy.__version__, "pyarrow": pyarrow.__version__,
        "java": str(spark.sparkContext._jvm.System.getProperty(
            "java.version")),
    }


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def cpu_ticks() -> Tuple[int, int]:
    """(CPU ticks wanted, ticks stolen by the hypervisor) over all CPUs
    since boot, from ``/proc/stat``; (0, 0) where it cannot be read."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq + steal, steal


def steal_share(start: Tuple[int, int], end: Tuple[int, int]) -> float:
    """Share of the CPU time wanted between two ``cpu_ticks`` readings
    that the host gave to other machines; run-to-run timing differences
    on a shared host follow it."""
    wanted = end[0] - start[0]
    return (end[1] - start[1]) / wanted if wanted > 0 else 0.0


CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _cpu_ticks(stat: str) -> int:
    """utime + stime + cutime + cstime of a ``/proc/.../stat`` line."""
    fields = stat[stat.rfind(")") + 2:].split()
    return sum(int(x) for x in fields[11:15])


def tree_cpu_s(root: Optional[int] = None) -> Tuple[float, float]:
    """CPU seconds (user + system) used so far by this process and every
    process below it: the JVM, Spark's Python daemon and its workers,
    including the children they have already reaped.  Returns the total
    and the part of it spent by the JVM's JIT compiler threads.

    Unlike wall time it leaves out the time the process tree waited for
    a CPU, so other processes on this machine do not move it, and time
    the host stole moves it less (see perfbench/README.md, "Steadiness").
    """
    root = os.getpid() if root is None else root
    kids: Dict[int, list] = {}
    stats: Dict[int, str] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        pid = int(name)
        ppid = int(stat[stat.rfind(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(pid)
        stats[pid] = stat
    total = jit = 0
    stack = [root]
    while stack:
        pid = stack.pop()
        stack.extend(kids.get(pid, ()))
        if pid not in stats:
            continue
        total += _cpu_ticks(stats[pid])
        if "(java)" in stats[pid]:
            jit += _jit_ticks(pid)
    return total / CLK_TCK, jit / CLK_TCK


def _jit_ticks(pid: int) -> int:
    """CPU ticks of the JIT compiler threads ("C1/C2 CompilerThre...")
    of a JVM; they live as long as the JVM, since the benchmark turns
    off the JVM's dynamic number of compiler threads."""
    ticks = 0
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        if "CompilerThre" in stat[:stat.rfind(")")]:
            ticks += _cpu_ticks(stat)
    return ticks


def peak_rss_mb(spark) -> float:
    """VmHWM of this Python driver plus the JVM it launched, in MB."""
    from pyspark import SparkContext

    kb = _vm_hwm_kb(os.getpid())
    proc = getattr(SparkContext._gateway, "proc", None)
    if proc is not None:
        kb += _vm_hwm_kb(proc.pid)
    return kb / 1024.0


# ---------------------------------------------------------------- result line

def load_spec() -> dict:
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def result_line(metrics: Dict[str, Tuple[float, str]], attempted: int,
                failed: int, correct: bool) -> str:
    """The last stdout line: ``correct``, ``attempted``, ``failed``,
    ``metrics`` (each ``{"value", "unit"}``)."""
    out = {}
    for name, (value, unit) in metrics.items():
        if not valid_name(name) or not valid_unit(unit):
            raise ValueError(f"bad metric name or unit: {name!r} {unit!r}")
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": out})


def select_metrics(spec_list: Iterable[dict],
                   values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Pick exactly the metrics a spec section names, in its order."""
    out = {}
    for m in spec_list:
        if m["name"] not in values:
            raise KeyError(f"metric {m['name']} was not measured")
        out[m["name"]] = (float(values[m["name"]]), m["unit"])
    return out
