"""Tests for dimensions, LCA, distance, primitives, Algorithm 1, partitioner."""
from itertools import combinations

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.segment import MAX_GROUP_SIZE
from repro.datasets import EF_DIMS, EP_DIMS, ef_like, ep_like, hd_like
from repro.dims.dimensions import (Dimension, auto_distance, distance,
                                   lca_level, member_sets)
from repro.dims.grouping import (group_summary, group_time_series,
                                 singleton_groups, value_based_baseline)
from repro.dims.partitioner import (data_points_per_minute, load_spread,
                                    partition_groups)
from repro.dims.primitives import (Distance, Level, Member, Sources, clause)

LOC = Dimension("Location", ("country", "region", "park", "turbine"))


def holds(c, meta, rows, dims=(LOC,)):
    """Whether clause ``c`` accepts the union of the series at ``rows``."""
    return c.resolve(dims)(member_sets(meta, rows, dims))


@pytest.fixture
def running_example():
    """Fig. 7: wind turbines with a 4-level location dimension."""
    return pd.DataFrame({
        "tid": [1, 2, 3, 4],
        "source": ["a.gz", "b.gz", "c.gz", "d.gz"],
        "si": [100] * 4,
        "scaling": [1.0] * 4,
        "country": ["DK", "DK", "DK", "DE"],
        "region": ["North", "North", "North", "South"],
        "park": ["Aalborg", "Aalborg", "Aalborg", "Hamburg"],
        "turbine": ["9834", "9835", "9836", "1111"],
    })


class TestLCA:
    def test_same_park_lca_is_park_level(self, running_example):
        # Paper Fig. 7: LCA for Tid=2 and Tid=3 is the Park level (3).
        assert lca_level(member_sets(running_example, [1, 2], [LOC]), LOC) == 3

    def test_same_series_lca_is_lowest_level(self, running_example):
        assert lca_level(member_sets(running_example, [0], [LOC]), LOC) == 4

    def test_different_country_lca_is_top(self, running_example):
        assert lca_level(member_sets(running_example, [0, 3], [LOC]), LOC) == 0

    def test_distance_matches_paper_example(self, running_example):
        # dist = 1 × ((4 − 3)/4) = 0.25 for Tid=2 vs Tid=3 (§IV-C).
        d = distance(member_sets(running_example, [1, 2], [LOC]), [LOC])
        assert d == pytest.approx(0.25)

    def test_weight_reduces_distance(self, running_example):
        d = distance(member_sets(running_example, [1, 2], [LOC]), [LOC],
                     weights={"Location": 2})
        assert d == pytest.approx(0.125)

    def test_distance_capped_at_one(self, running_example):
        d = distance(member_sets(running_example, [0, 3], [LOC]), [LOC],
                     weights={"Location": 0.5})
        assert d == 1.0

    def test_auto_distance_formula(self):
        # EP: two 2-level dimensions → (1/2)/2 = 0.25 (paper: EP
        # distances move in 0.25 increments).
        assert auto_distance(EP_DIMS) == pytest.approx(0.25)
        # EF: 3-level Location, 2-level Measure → (1/3)/2.
        assert auto_distance(EF_DIMS) == pytest.approx(1 / 6)

    def test_level_column_bounds(self):
        with pytest.raises(ValueError):
            LOC.column_for_level(5)


class TestPrimitives:
    def test_sources_atom(self, running_example):
        c = clause(Sources(("a.gz", "b.gz")))
        assert holds(c, running_example, [0, 1])
        assert not holds(c, running_example, [0, 2])

    def test_member_atom(self, running_example):
        c = clause(Member("Location", 3, "Aalborg"))
        assert holds(c, running_example, [0, 1])
        assert not holds(c, running_example, [0, 3])

    def test_level_atom_positive(self, running_example):
        c = clause(Level("Location", 2))
        assert holds(c, running_example, [0, 2])
        assert not holds(c, running_example, [0, 3])

    def test_level_atom_zero_means_all_levels(self, running_example):
        c = clause(Level("Location", 0))
        # Distinct turbines → level 4 differs → not correlated.
        assert not holds(c, running_example, [0, 1])

    def test_level_atom_negative(self, running_example):
        # -1: all but the lowest level (turbine) must be equal.
        c = clause(Level("Location", -1))
        assert holds(c, running_example, [0, 1])
        assert not holds(c, running_example, [0, 3])

    def test_distance_atom(self, running_example):
        assert holds(clause(Distance(0.25)), running_example, [0, 1])
        assert not holds(clause(Distance(0.1)), running_example, [0, 3])

    def test_and_combination(self, running_example):
        c = clause(Member("Location", 1, "DK"), Level("Location", 3))
        assert holds(c, running_example, [0, 2])
        assert not holds(c, running_example, [0, 3])

    @pytest.mark.parametrize("atoms, n_series", [
        ((Member("Place", 1, "DK"),), 4), ((Level("Place", 1),), 4),
        ((Distance(0.5, {"Place": 2.0}),), 4),
        ((Member("Place", 1, "DK"),), 1),
        ((Sources(("zzz",)), Member("Place", 1, "DK")), 2)],
        ids=["member", "level", "weights", "one-series", "after-sources"])
    def test_unknown_dimension_rejected(self, running_example, atoms,
                                        n_series):
        """Every atom is checked before the first pair, also one that no
        pair reaches."""
        with pytest.raises(ValueError, match="Place"):
            group_time_series(running_example.head(n_series), [LOC],
                              [clause(*atoms)])

    @pytest.mark.parametrize("levels", [(5,), (-5,), (0, 9)],
                             ids=["5", "-5", "after-valid"])
    def test_level_outside_hierarchy_rejected(self, running_example, levels):
        with pytest.raises(ValueError, match=str(levels[-1])):
            group_time_series(running_example, [LOC],
                              [clause(*(Level("Location", k)
                                        for k in levels))])

    @pytest.mark.parametrize("weight", [0.0, -1.0, np.inf, np.nan],
                             ids=["zero", "negative", "inf", "nan"])
    def test_weight_outside_positive_finite_rejected(self, weight):
        ds = ep_like(n_entities=2, n_points=16)
        with pytest.raises(ValueError, match="Production"):
            group_time_series(ds.meta, list(ds.dims),
                              [clause(Distance(0.25, {"Production": weight}))])


class TestAlgorithm1:
    def test_groups_turbines_in_same_park(self, running_example):
        out, secs = group_time_series(
            running_example, [LOC], [clause(Level("Location", 3))])
        gids = out.set_index("tid")["gid"]
        assert gids[1] == gids[2] == gids[3]
        assert gids[4] != gids[1]
        assert secs >= 0

    def test_no_clauses_yields_singletons(self, running_example):
        out, _ = group_time_series(running_example, [LOC], [])
        assert out["gid"].nunique() == 4

    def test_bitpos_follows_sorted_tid_order(self, running_example):
        out, _ = group_time_series(
            running_example, [LOC], [clause(Level("Location", 3))])
        grp = out[out["tid"].isin([1, 2, 3])].sort_values("tid")
        assert grp["bitpos"].tolist() == [0, 1, 2]

    def test_max_group_size_respected(self):
        n = 70
        meta = pd.DataFrame({
            "tid": range(1, n + 1),
            "source": [f"s{i}" for i in range(n)],
            "si": [100] * n, "scaling": [1.0] * n,
            "country": ["DK"] * n, "region": ["N"] * n,
            "park": ["P"] * n, "turbine": [f"t{i}" for i in range(n)],
        })
        out, _ = group_time_series(meta, [LOC],
                                   [clause(Level("Location", 3))])
        assert out.groupby("gid").size().max() <= 64

    def test_clause_priority_order(self, running_example):
        # First clause groups by park; a later, looser clause cannot
        # undo it but can add more merges.
        out, _ = group_time_series(
            running_example, [LOC],
            [clause(Level("Location", 3)), clause(Distance(1.0))])
        assert out["gid"].nunique() == 1  # distance 1.0 groups everything

    def test_ep_auto_grouping_groups_clusters(self):
        ds = ep_like(n_entities=3, n_points=16, gap_prob=0.0)
        out, _ = group_time_series(ds.meta, list(ds.dims),
                                   [clause(Distance.auto(ds.dims))])
        n_groups, avg = group_summary(out)
        # auto distance 0.25 on EP groups same-entity same-category series.
        assert n_groups < len(ds.meta)
        assert avg > 1.0


def assert_bitpos_is_tid_rank(meta):
    for _, g in meta.groupby("gid"):
        assert g.sort_values("tid")["bitpos"].tolist() == list(range(len(g)))


SITE_KIND = (Dimension("Site", ("region", "site")),
             Dimension("Kind", ("family", "kind")))


def _site_kind_meta(rows, tids):
    """One series per (region, site, family, kind, source) index tuple;
    a lower-level member names its parent, so the hierarchy holds."""
    return pd.DataFrame({
        "tid": tids, "source": [f"s{r[4]}" for r in rows],
        "si": 100, "scaling": 1.0,
        "region": [f"r{r[0]}" for r in rows],
        "site": [f"r{r[0]}.{r[1]}" for r in rows],
        "family": [f"f{r[2]}" for r in rows],
        "kind": [f"f{r[2]}.{r[3]}" for r in rows],
    })


@st.composite
def site_kind_metas(draw):
    n = draw(st.integers(1, 80))
    rows = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2),
                                   st.integers(0, 1), st.integers(0, 2),
                                   st.integers(0, 3)),
                         min_size=n, max_size=n))
    tids = draw(st.permutations(range(1, len(rows) + 1)))
    return _site_kind_meta(rows, tids)


def _member(dim, level, parent, child):
    prefix = "r" if dim == "Site" else "f"
    name = f"{prefix}{parent}" if level == 1 else f"{prefix}{parent}.{child}"
    return Member(dim, level, name)


_dim_names = st.sampled_from(["Site", "Kind"])
_atoms = st.one_of(
    st.sets(st.sampled_from(["s0", "s1", "s2", "s3"]), min_size=1)
    .map(lambda s: Sources(tuple(sorted(s)))),
    st.builds(_member, _dim_names, st.integers(1, 2), st.integers(0, 1),
              st.integers(0, 2)),
    st.builds(Level, _dim_names, st.integers(-2, 2)),
    st.builds(Distance, st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
              st.none() | st.dictionaries(_dim_names,
                                          st.sampled_from([0.5, 2.0]))))
_clause_lists = st.lists(
    st.lists(_atoms, min_size=1, max_size=2).map(lambda a: clause(*a)),
    min_size=1, max_size=3)


class TestAlgorithm1FixedPoint:
    @settings(max_examples=30, deadline=None)
    @given(site_kind_metas(), _clause_lists)
    @example(_site_kind_meta([(0, 0, 0, 0, 0)] * 80, list(range(80, 0, -1))),
             [clause(Distance(1.0))])
    def test_no_final_pair_mergeable(self, meta, clauses):
        """One pass per clause leaves no pair of groups that any clause
        would merge within the group-size cap, and each group of two or
        more series satisfies, as a whole, the clause of its last merge."""
        out, _ = group_time_series(meta, SITE_KIND, clauses)
        groups = [r.tolist() for r in out.groupby("gid").indices.values()]
        assert sorted(out["gid"].unique()) == list(range(1, len(groups) + 1))
        assert max(len(g) for g in groups) <= MAX_GROUP_SIZE
        for cl in clauses:
            for a, b in combinations(groups, 2):
                assert not (len(a) + len(b) <= MAX_GROUP_SIZE
                            and holds(cl, out, a + b, SITE_KIND))
        for g in groups:
            assert len(g) == 1 or any(holds(cl, out, g, SITE_KIND)
                                      for cl in clauses)
        assert_bitpos_is_tid_rank(out)


class TestSingletonAndBaseline:
    def test_singleton_groups(self, running_example):
        out = singleton_groups(running_example)
        assert out["gid"].nunique() == 4
        assert (out["bitpos"] == 0).all()

    def test_value_baseline_groups_equal_ranges(self):
        meta = pd.DataFrame({"tid": [1, 2, 3], "source": list("abc"),
                             "si": [100] * 3, "scaling": [1.0] * 3})
        points = pd.DataFrame({
            "tid": [1] * 4 + [2] * 4 + [3] * 4,
            "ts": list(range(4)) * 3,
            "value": [0.0, 1, 2, 10] + [0.0, 5, 3, 10] + [50.0, 60, 55, 70],
        })
        out = value_based_baseline(meta, points)
        g = out.set_index("tid")["gid"]
        assert g[1] == g[2] and g[3] != g[1]

    def test_value_baseline_splits_oversize_groups(self):
        n = 130
        meta = pd.DataFrame({"tid": range(1, n + 1),
                             "source": [f"s{i}" for i in range(n)],
                             "si": [100] * n, "scaling": [1.0] * n})
        points = pd.DataFrame({"tid": np.repeat(np.arange(1, n + 1), 2),
                               "ts": np.tile([0, 1], n),
                               "value": np.tile([0.0, 1.0], n)})
        out = value_based_baseline(meta, points)
        sizes = out.groupby("gid").size()
        assert sizes.max() <= 64 and len(sizes) == 3
        assert_bitpos_is_tid_rank(out)


class TestPartitioner:
    def _meta(self):
        return pd.DataFrame({
            "tid": range(1, 7),
            "gid": [1, 1, 2, 3, 3, 3],
            "si": [100, 100, 200, 1000, 1000, 1000],
        })

    def test_load_per_group(self):
        dppm = data_points_per_minute(self._meta())
        assert dppm.loc[1] == pytest.approx(1200.0)
        assert dppm.loc[2] == pytest.approx(300.0)
        assert dppm.loc[3] == pytest.approx(180.0)

    def test_groups_stay_whole(self):
        a = partition_groups(self._meta(), 2)
        assert set(a) == {1, 2, 3}

    def test_balances_load(self):
        meta = self._meta()
        a = partition_groups(meta, 2)
        # LPT puts the heavy group alone: spread = 1200 - 480.
        assert load_spread(meta, a, 2) == pytest.approx(720.0)

    def test_more_workers_than_groups(self):
        a = partition_groups(self._meta(), 8)
        assert len(set(a.values())) == 3


class TestDatasets:
    @pytest.mark.parametrize("maker", [ep_like, ef_like, hd_like])
    def test_deterministic(self, maker):
        a, b = maker(seed=5), maker(seed=5)
        pd.testing.assert_frame_equal(a.points, b.points)
        pd.testing.assert_frame_equal(a.meta, b.meta)

    def test_ep_shape(self):
        ds = ep_like(n_entities=4, n_points=64)
        assert ds.n_series == 4 * 5  # 5 concrete measures per entity
        assert set(ds.meta.columns) >= {"production_entity", "measure_category"}
        assert ds.points["ts"].dtype == np.int64

    def test_ef_regular_si(self):
        ds = ef_like(n_parks=2, n_turbines=2, n_points=128, gap_prob=0.0)
        one = ds.points[ds.points["tid"] == 1]["ts"].to_numpy()
        assert np.all(np.diff(one) == 200)

    def test_gaps_removed_rows(self):
        ds = ep_like(n_entities=2, n_points=256, gap_prob=0.8, seed=3)
        counts = ds.points.groupby("tid").size()
        assert counts.min() < 256  # at least one series has a gap

    def test_hd_cluster_offsets_exceed_small_eps(self):
        ds = hd_like(n_pairs=2, n_points=64, gap_prob=0.0)
        piv = ds.points.pivot_table(index="ts", columns="tid", values="value")
        rel = (piv[1] - piv[2]).abs().mean() / piv[1].abs().mean()
        assert rel > 0.01  # spread larger than a 1% error bound
