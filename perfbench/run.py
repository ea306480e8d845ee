"""ModelarDB+ benchmark: bulk ingest, model-based aggregates, point queries.

Run from the root of a checkout::

    python3 perfbench/run.py --workload query-ep --seed 1 --seconds 8 --trace 0

``--workload`` is ``ingest-ef`` or ``query-ep`` (see
``BENCHMARK.json`` and ``perfbench/README.md``).  With ``--trace 0`` the
last stdout line is a JSON object with every end-to-end metric; with
``--trace 1`` it carries every per-layer metric, and the spans are
written to ``.perfbench_out/``.  Lines before it are human-readable and
start with ``#``.  ``--scale`` shrinks the data sets for quick tests.
"""
from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import time

import harness


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[
        w["name"] for w in harness.load_spec()["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="points per series relative to the full workload")
    return p.parse_args(argv)


def info(label: str, **kv) -> None:
    print(f"# {label} " + " ".join(f"{k}={v}" for k, v in kv.items()),
          flush=True)


def kind_stats(ops):
    """Median latency per query kind, and the tail over all queries as
    ``(percentile, seconds)`` or None."""
    out = {}
    for kind in ("s_agg", "l_agg", "m_agg", "pr", "dp_full"):
        lat = [o.latency for o in ops if o.kind == kind]
        out[f"{kind}_p50_s"] = harness.median(lat) if lat else 0.0
    tail = harness.tail_percentile(
        [o.latency for o in ops if o.kind != "load"])
    out["query_tail_s"] = tail[1] if tail else 0.0
    return out, tail


def run(args, env: dict, workdir: str) -> int:
    import tracing
    import workloads
    from repro.storage.segment_store import store_bytes

    spec = harness.load_spec()
    tracer = tracing.Tracer(bool(args.trace))
    ticks0 = harness.cpu_ticks()
    c0, t0 = harness.tree_cpu_s()[0], time.perf_counter()
    spark = harness.start_spark()
    spark_s = time.perf_counter() - t0
    spark_cpu_s = harness.tree_cpu_s()[0] - c0
    wl = workloads.WORKLOADS[args.workload](spark, args.seed, args.scale,
                                            tracer, workdir)
    try:
        parts = wl.setup()
        t1 = time.perf_counter()
        wl.reference()
        t2 = time.perf_counter()
        wl.floors()
        ticks1 = harness.cpu_ticks()
        t3 = time.perf_counter()
        ops = wl.measure(args.seconds)
        ticks2 = harness.cpu_ticks()
        t4 = time.perf_counter()
        errors = [(o, wl.check(o)) for o in ops]
        phases = {"reference_s": t2 - t1, "floors_s": t3 - t2,
                  "measure_s": t4 - t3, "check_s": time.perf_counter() - t4}
        rss = harness.peak_rss_mb(spark)
        ver = harness.versions(spark)
        n_bytes = store_bytes(wl.store)
    finally:
        wl.close()
        harness.stop_spark(spark)

    n_points = len(wl.ds.points)
    failed = [(o, e) for o, e in errors if e is not None]
    attempted = len(ops) + 1          # the timed operations and set-up
    n_failed = len(failed) + len(wl.problems)
    plain = [o for o in ops if not o.traced]
    lat = [o.latency for o in plain]
    # Times are CPU seconds of the driver, the JVM and the Python
    # workers: on a shared host, wall time follows the load of other
    # machines more (see perfbench/README.md, "Steadiness").
    e2e = {
        "setup_s": parts["cpu_s"],
        "storage_bytes_per_point": n_bytes / n_points,
        "cpu_s_per_op": sum(o.cpu for o in plain) / len(plain),
    }
    kinds, tail = kind_stats(plain)
    facts = {**kinds, "failed_ratio": n_failed / attempted,
             "ops_per_s": len(lat) / sum(lat),
             "spark.jit_cpu_s": sum(o.jit for o in plain) / len(plain),
             "setup.wall_s": parts["build_s"] + parts["warm_up_s"],
             "setup.spark_start_s": spark_s,
             "setup.spark_start_cpu_s": spark_cpu_s,
             "op_p50_s": harness.median(lat),
             "host.steal_share": harness.steal_share(ticks1, ticks2),
             "ingest_points_per_s": wl.ingest_points_per_s(plain),
             "peak_rss_mb": rss,
             "avg_error_pct": wl.facts["avg_error_pct"],
             "eps_violations": wl.facts["eps_violations"]}

    info("run", workload=args.workload, seed=args.seed,
         seconds=args.seconds, trace=args.trace, scale=args.scale,
         points=n_points, ops=len(ops))
    info("env", master=env["master"], cores=os.cpu_count(),
         driver_memory=env["driver_memory"],
         **{k: v for k, v in ver.items()})
    info("host", steal_share_run=round(harness.steal_share(ticks0, ticks2), 4),
         steal_share_measured=round(facts["host.steal_share"], 4))
    info("setup", spark_start_s=round(spark_s, 3),
         spark_start_cpu_s=round(spark_cpu_s, 3),
         **{k: round(v, 3) for k, v in parts.items()})
    info("phases", **{k: round(v, 3) for k, v in phases.items()})
    info("floors", empty_job_s=round(wl.layers["spark.empty_job_s"], 4),
         datasource_4_rows_s=round(wl.layers["storage.datasource.floor_s"],
                                   4))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in e2e.items():
        info("metric", **{name: f"{value:.6g}"}, unit=units[name])
    info("metric", ops_per_s=f"{facts['ops_per_s']:.6g}", unit="1/s")
    info("metric", setup_wall_s=f"{facts['setup.wall_s']:.6g}", unit="s")
    info("metric", op_p50_s=f"{facts['op_p50_s']:.6g}", unit="s")
    for name, value in kinds.items():
        if value:
            info("metric", **{name: f"{value:.6g}"}, unit="s")
    info("metric", tail_percentile=f"p{tail[0]}" if tail else "none",
         samples=len(lat), rule="at least 10 samples beyond it")
    info("metric", ingest_points_per_s=f"{facts['ingest_points_per_s']:.6g}",
         unit="points/s")
    info("metric", peak_rss_mb=f"{rss:.6g}", unit="MB")
    info("metric", failed_ratio=f"{n_failed}/{attempted}",
         avg_error_pct=f"{facts['avg_error_pct']:.6g}",
         eps_violations=facts["eps_violations"],
         eps_bound="|r - v| <= eps/100 * |v|, exact")
    for i, o in enumerate(ops):
        info("op", n=i, kind=o.kind, traced=int(o.traced),
             latency_s=f"{o.latency:.4f}", cpu_s=f"{o.cpu:.2f}",
             jit_cpu_s=f"{o.jit:.2f}")
    for o, e in failed:
        info("failed", op=o.kind, args=o.args.get("tids", ""), reason=e)
    for p in wl.problems:
        info("failed", reason=p)

    if args.trace:
        values = per_layer_values(wl, ops, facts, n_bytes)
        os.makedirs(harness.OUT_ROOT, exist_ok=True)
        path = os.path.join(harness.OUT_ROOT,
                            f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "per_layer": values})
        info("trace", spans=len(tracer.spans), file=os.path.relpath(
            path, harness.ROOT),
             overhead_s=f"{values['trace.overhead_s']:.4g}")
        for name, secs in sorted(tracer.self_times().items()):
            info("self_time", layer=name, seconds=f"{secs:.4f}")
        metrics = {m["name"]: (float(values.get(m["name"], 0.0)), m["unit"])
                   for m in spec["per_layer"]}
    else:
        metrics = harness.select_metrics(spec["end_to_end"], e2e)
    print(harness.result_line(metrics, attempted, n_failed, n_failed == 0))
    return 0


def per_layer_values(wl, ops, facts: dict, n_bytes: int) -> dict:
    """Medians over traced operations plus the run-level replays."""
    values = {}
    per_key = {}
    sources = [o.layers for o in ops if o.traced] + [wl.build_layers]
    for layers in sources:
        for k, v in layers.items():
            per_key.setdefault(k, []).append(float(v))
    values.update({k: statistics.median(v) for k, v in per_key.items()})
    values.update(wl.layers)
    # Only a Spark ingest (ingest-ef) has Python worker time to compare.
    replay_ms = values.pop("replay_ms", 0.0)
    values["core.ingest.replay_gap_ms"] = (
        values["core.ingest.python_total_ms"] - replay_ms
        if "core.ingest.python_total_ms" in values else 0.0)
    values["core.golemm.avg_error_pct"] = facts["avg_error_pct"]
    values["core.models.eps_violations"] = facts["eps_violations"]
    values["storage.bytes"] = n_bytes
    for k in ("s_agg_p50_s", "l_agg_p50_s", "m_agg_p50_s", "pr_p50_s",
              "dp_full_p50_s", "query_tail_s", "failed_ratio",
              "ingest_points_per_s", "peak_rss_mb", "op_p50_s",
              "ops_per_s", "spark.jit_cpu_s", "setup.wall_s",
              "setup.spark_start_s", "setup.spark_start_cpu_s",
              "host.steal_share"):
        values[k] = facts[k]
    traced = [o.latency for o in ops if o.traced]
    plain = [o.latency for o in ops if not o.traced]
    values["trace.overhead_s"] = (
        harness.median(traced) - harness.median(plain)
        if traced and plain else 0.0)
    values["trace.spans"] = len(wl.tr.spans)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = os.path.join(harness.WORK_ROOT,
                           f"{args.workload}-{os.getpid()}")
    try:
        env = harness.prepare_environment(workdir)
        return run(args, env, workdir)
    except harness.SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
