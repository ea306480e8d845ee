"""Tests for the evaluation harness (experiments.py) at small scale.

These assert the *shape* invariants the paper's evaluation rests on —
MDB+ compresses better than row/columnar formats, grouping helps on
EP/EF-like data, the Segment View beats the Data Point View — so a
regression in any layer shows up as a shape violation here before the
full benchmark run.
"""
import numpy as np
import pandas as pd
import pytest

from repro import experiments as ex
from repro.baselines.mdb import MDB_MODEL_TYPES, mdb_meta
from repro.core.golemm import DEFAULT_MODEL_TYPES, reconstruct_segment
from repro.core.ingest import ingest_local
from repro.datasets import ef_like, ep_like, hd_like
from repro.dims.dimensions import auto_distance
from repro.dims.grouping import value_based_baseline


def reference_points(segments, meta):
    """Rebuild points one segment column at a time (the reference for
    ``ex.reconstruct_points``)."""
    by_gid = {int(g): rows.sort_values("tid")
              for g, rows in meta.groupby("gid")}
    frames = []
    for seg in segments:
        rows = by_gid[seg.gid]
        ts, cols, V = reconstruct_segment(seg, len(rows))
        tids = rows["tid"].to_numpy()
        scalings = rows["scaling"].to_numpy(np.float64)
        for j, c in enumerate(cols):
            frames.append(pd.DataFrame({
                "tid": np.int32(tids[c]), "ts": ts,
                "value": (V[:, j].astype(np.float64)
                          * scalings[c]).astype(np.float32)}))
    return pd.concat(frames, ignore_index=True)


@pytest.fixture(scope="module")
def ep():
    return ep_like(n_entities=4, n_points=384, seed=7, gap_prob=0.1)


@pytest.fixture(scope="module")
def comp(ep):
    return ex.compression_table(ep, eps_list=(0.0, 10.0))


class TestVariants:
    def test_three_variants(self, ep):
        metas = ex.build_variant_metas(ep)
        assert set(metas) == {"MDB+-G", "MDB+GB", "MDB+GA"}

    def test_gb_groups_entity_category_clusters(self, ep):
        meta, _ = ex.build_variant_metas(ep)["MDB+GB"]
        joined = meta.groupby(["production_entity", "measure_category"])[
            "gid"].nunique()
        assert (joined == 1).all()

    def test_ga_weighted_auto_matches_gb_on_ep(self, ep):
        """Paper Fig. 13: +GB and +GA create the same groups on EP."""
        metas = ex.build_variant_metas(ep)
        gb = metas["MDB+GB"][0].groupby("gid")["tid"].apply(frozenset)
        ga = metas["MDB+GA"][0].groupby("gid")["tid"].apply(frozenset)
        assert set(gb) == set(ga)


class TestCompressionTable:
    def test_columns(self, comp):
        storage, usage, groups = comp
        assert {"system", "eps_pct", "bytes", "avg_error_pct"} <= set(
            storage.columns)
        assert {"model", "segments"} <= set(usage.columns)
        assert {"groups", "avg_group_size"} <= set(groups.columns)

    def test_grouping_reduces_storage_on_ep(self, comp):
        storage = comp[0]
        at10 = storage[storage["eps_pct"] == 10.0].set_index("system")
        assert at10.loc["MDB+GB", "bytes"] < at10.loc["MDB+-G", "bytes"]

    def test_error_within_bound(self, comp):
        storage = comp[0]
        assert (storage["avg_error_pct"] <= 10.0 + 1e-6).all()
        eps0 = storage[storage["eps_pct"] == 0.0]
        assert (eps0["avg_error_pct"] == 0.0).all()

    def test_error_equals_reference_rebuild(self, ep, comp):
        """Every system's ε = 10 error, bit for bit, from a rebuild that
        decodes segment by segment through ``reconstruct_segment``."""
        systems = {name: (meta, DEFAULT_MODEL_TYPES) for name, (meta, _)
                   in ex.build_variant_metas(ep).items()}
        systems["value-baseline"] = (value_based_baseline(ep.meta, ep.points),
                                     DEFAULT_MODEL_TYPES)
        systems["MDB"] = (mdb_meta(ep.meta), MDB_MODEL_TYPES)
        at10 = comp[0][comp[0]["eps_pct"] == 10.0].set_index("system")
        assert set(at10.index) == set(systems)
        for name, (meta, model_types) in systems.items():
            segs = ingest_local(ep.points, meta, 10.0,
                                model_types=model_types)
            ref = ex.actual_avg_error_pct(ep.points,
                                          reference_points(segs, meta))
            assert at10.loc[name, "avg_error_pct"] == ref, name

    def test_higher_eps_less_storage(self, comp):
        storage = comp[0]
        for system in ("MDB+-G", "MDB+GB", "MDB"):
            sub = storage[storage["system"] == system].set_index("eps_pct")
            assert sub.loc[10.0, "bytes"] <= sub.loc[0.0, "bytes"]

    def test_all_model_types_used(self, comp):
        usage = comp[1]
        assert {"PMC-Mean", "Swing", "Gorilla"} <= set(usage["model"])

    def test_grouping_shifts_usage_toward_gorilla(self, comp):
        """Figs. 17–19: groups need *all* series constant/linear for
        PMC/Swing, so grouped variants lean more on Gorilla."""
        usage = comp[1]
        at10 = usage[usage["eps_pct"] == 10.0]
        def gshare(system):
            sub = at10[at10["system"] == system]
            g = sub[sub["model"] == "Gorilla"]["segments"].sum()
            return g / sub["segments"].sum()
        assert gshare("MDB+GB") >= gshare("MDB+-G") * 0.9

    def test_mdb_baseline_present(self, comp):
        assert "MDB" in set(comp[0]["system"])


class TestIndustryAndIngestion:
    def test_industry_storage_larger_than_mdbplus(self, spark, ep, comp,
                                                  tmp_path):
        industry = ex.industry_storage_table(spark, ep, str(tmp_path))
        at10 = comp[0][comp[0]["eps_pct"] == 10.0].set_index("system")
        # MDB+ at ε=10% beats the best lossless industry format.
        assert at10.loc["MDB+GB", "bytes"] < industry["bytes"].min()

    def test_ingestion_table_rows(self, spark, ep, tmp_path):
        t = ex.ingestion_table(spark, ep, str(tmp_path))
        assert {"MDB+GA", "MDB", "parquet", "cassandra", "influx"} <= set(
            t["system"])
        assert (t["datapoints_per_s"] > 0).all()

    def test_stability_rates_positive(self, ep):
        t = ex.ingestion_stability(ep, rounds=3)
        assert (t["datapoints_per_s"] > 0).all() and len(t) == 3


class TestDistanceTable:
    def test_distance_zero_is_singletons(self, ep):
        t = ex.distance_table(ep, distances=(0.0, 0.25))
        assert t.loc[t["distance"] == 0.0, "groups"].iloc[0] == ep.n_series
        assert (t.loc[t["distance"] == 0.25, "groups"].iloc[0]
                < ep.n_series)

    def test_auto_distance_lowers_storage_on_ep(self, ep):
        # With Production down-weighted (the paper's EP setup), the
        # lowest distance reduces storage vs grouping disabled.
        t = ex.distance_table(ep, distances=(0.0, auto_distance(ep.dims)),
                              weights={"Production": 0.5})
        assert t["bytes"].iloc[1] < t["bytes"].iloc[0]


class TestGlimpse:
    def test_grouping_saves_storage(self):
        t = ex.glimpse_table()
        assert t["saving_pct"].iloc[0] > 30.0


@pytest.fixture(scope="module")
def ctx(spark, ep, tmp_path_factory):
    return ex.QueryContext(spark, ep, str(tmp_path_factory.mktemp("qctx")))


class TestQueryTables:
    def test_l_agg_rows(self, ctx):
        t = ex.l_agg_table(ctx, rounds=1)
        assert {"MDB+-G", "parquet", "influx"} <= set(t["system"])
        seg = t[(t["system"] == "MDB+GB") & (t["method"] == "S")]
        assert (seg["seconds"] > 0).all()

    def test_s_agg_rows(self, ctx):
        t = ex.s_agg_table(ctx, rounds=1)
        assert set(t["workload"]) == {"1-series", "5-series"}

    def test_pr_rows(self, ctx):
        t = ex.pr_table(ctx, rounds=1)
        assert {"influx", "cassandra", "parquet"} <= set(t["system"])

    def test_m_agg_rows(self, ctx):
        t = ex.m_agg_table(ctx, "measure_category", rounds=1)
        assert set(t["workload"]) == {"M-AGG-1", "M-AGG-2"}
        assert "MDB" not in set(t["system"])  # MDB/Influx excluded

    def test_query_error_small(self, ctx):
        t = ex.query_error_table(ctx)
        assert (t["avg_result_error_pct"] < 10.0).all()

    def test_scale_out_monotone_points(self, spark, ep, tmp_path):
        t = ex.scale_out_table(spark, ep, str(tmp_path), copies=(1, 2),
                               rounds=1)
        assert t["points"].iloc[1] == 2 * t["points"].iloc[0]
        assert (t["seconds"] > 0).all()


class TestOtherDatasets:
    def test_ef_compression_shape(self):
        ef = ef_like(n_parks=2, n_turbines=2, n_points=256, seed=9)
        storage, _, _ = ex.compression_table(
            ef, eps_list=(10.0,), include_value_baseline=False)
        at10 = storage.set_index("system")
        assert at10.loc["MDB+GB", "bytes"] < at10.loc["MDB+-G", "bytes"]
        assert (at10.loc["MDB+GB", "bytes"] <= at10.loc["MDB+GA", "bytes"]
                < at10.loc["MDB+-G", "bytes"])

    def test_hd_grouping_hurts(self):
        """Fig. 16: on HD, -G beats +GA (pair concretes too far apart)."""
        hd = hd_like(n_pairs=3, n_points=512, seed=10)
        storage, _, _ = ex.compression_table(
            hd, eps_list=(1.0,), include_value_baseline=False)
        at1 = storage.set_index("system")
        assert at1.loc["MDB+-G", "bytes"] < at1.loc["MDB+GA", "bytes"]
