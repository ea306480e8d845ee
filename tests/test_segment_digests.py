"""Golden digests of stored segments: the byte-identity gate for ingest.

Each cell pins the SHA-256 of ``pack(ingest_local(...))`` (``ingest_mdb``
for MDB) and the split, merge and merge-attempt counts.  A change meant
to leave segments alone must keep every cell; a change meant to alter
them updates the table and says why.  The data sets are the ones of the
digest tables in CHANGES.md.
"""
import hashlib

import pytest

from repro.baselines.mdb import ingest_mdb
from repro.core.golemm import CompressStats
from repro.core.ingest import ingest_local
from repro.core.segment import pack
from repro.datasets import ef_like, ep_like, hd_like
from repro.dims.grouping import group_time_series, singleton_groups
from repro.experiments import ga_clauses, gb_clauses

DATA = {
    "EP": lambda: ep_like(n_entities=6, n_points=2048, seed=5),
    "EF": lambda: ef_like(n_parks=2, n_turbines=3, n_points=4096, seed=6),
    "HD": lambda: hd_like(n_pairs=4, n_points=2048, seed=7),
}

# (data, ε %, system) → (SHA-256, splits, merges, merge attempts)
GOLDEN = {
    ("EF", 10.0, "MDB+GB"): (
        "de6973faf945b59a0e5948e3eb34d4ff97e20089e98575cc98318ddd47f42745",
        7, 9, 17),
    ("EF", 0.0, "MDB+GA"): (
        "786682b89f783d663f2bc0835a5de0c1d0d5f391ba5cd54825f69bfe70664b88",
        0, 0, 0),
    ("EP", 1.0, "MDB+GB"): (
        "11c683a25a89dbcd0ef018f0f5357efa6d53236257a63eb022e201d460943d65",
        3, 3, 6),
    ("HD", 5.0, "MDB+GB"): (
        "d4a27a239f77ac7027e227efe4ba8448b440ccdaeaa984adde05c1d21e63d032",
        1, 0, 4),
    ("EP", 10.0, "MDB"): (
        "d2c4c43910356075ee6c344c3f9f08ce2bd911cb9da6d3fcca59ba8375451891",
        0, 0, 0),
    ("EF", 1.0, "MDB+-G"): (
        "9c9945264224caf1a64764bc5b81936868bf89ee1003fe6ff3a9838f997cf2d2",
        0, 0, 0),
}

_datasets = {}


def _ingest(name, eps, system, stats):
    if name not in _datasets:
        _datasets[name] = DATA[name]()
    ds = _datasets[name]
    if system == "MDB":
        return ingest_mdb(ds.points, ds.meta, eps, stats=stats)
    if system == "MDB+-G":
        meta = singleton_groups(ds.meta)
    else:
        clauses = gb_clauses(ds) if system == "MDB+GB" else ga_clauses(ds)
        meta, _ = group_time_series(ds.meta, list(ds.dims), clauses)
    return ingest_local(ds.points, meta, eps, stats=stats)


@pytest.mark.parametrize("cell", list(GOLDEN), ids=lambda c: "-".join(
    str(x) for x in c))
def test_segments_match_golden_digest(cell):
    st = CompressStats()
    segs = _ingest(*cell, stats=st)
    got = (hashlib.sha256(pack(segs)).hexdigest(),
           st.splits, st.merges, st.merge_attempts)
    assert got == GOLDEN[cell]
