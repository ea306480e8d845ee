"""Golden digests of groupings: the identity gate for Algorithm 1.

Each cell pins the SHA-256 of ``group_time_series``'s ``tid``, ``gid``
and ``bitpos`` columns on a data set of the segment digest test.  A
change meant to leave groupings alone must keep every cell; a change
meant to alter them updates the table and says why.
"""
import hashlib

import pytest

from repro.dims.grouping import group_time_series
from repro.dims.primitives import Distance, clause
from repro.experiments import ga_clauses, gb_clauses

from .test_segment_digests import DATA

# experiments.py's GB and GA clauses, and T6's distances; some are the
# same clause as a GB/GA one, which may change on its own.
CLAUSES = {
    "GB": gb_clauses,
    "GA": ga_clauses,
    "dist-1over6": lambda ds: [clause(Distance(1 / 6))],
    "dist-1over3": lambda ds: [clause(Distance(1 / 3))],
    "dist-2over3": lambda ds: [clause(Distance(2 / 3))],
    "dist-0.4166667": lambda ds: [clause(Distance(0.4166667))],
    "dist-0.25-Production-0.5":
        lambda ds: [clause(Distance(0.25, {"Production": 0.5}))],
}

# (data, clauses) → SHA-256 of out[["tid", "gid", "bitpos"]] as
# little-endian int64, in row order
GOLDEN = {
    ("EP", "GB"):
        "082fe042c18bb4a7aaf1ffcd73aa7e3e41cfd90aabf84c5824cfec1f53ee16f6",
    ("EP", "GA"):
        "082fe042c18bb4a7aaf1ffcd73aa7e3e41cfd90aabf84c5824cfec1f53ee16f6",
    ("EF", "GB"):
        "86941b963d68ac70933a938a2eccaaa326a78c21c7703f2061fe879e6c476666",
    ("EF", "GA"):
        "b0aef359287dfebcb2b62a9f194dda9cf104f39cd7ed161c5d5e7096dfe6b43b",
    ("HD", "GB"):
        "11259b586b279a88f55ef719a13fc1f16476a26fcc355f0250d85a2dd7ddb45f",
    ("HD", "GA"):
        "11259b586b279a88f55ef719a13fc1f16476a26fcc355f0250d85a2dd7ddb45f",
    ("EF", "dist-1over6"):
        "b0aef359287dfebcb2b62a9f194dda9cf104f39cd7ed161c5d5e7096dfe6b43b",
    ("EF", "dist-1over3"):
        "ffa7ef8a365c9944e659cbd2446e4b16894edb63f32390f82abf7e1e621ba778",
    ("EF", "dist-2over3"):
        "4c96d1073740e80ec74279569ff6a18010c41a31ed8350783da7e5b985ecdd3e",
    ("EF", "dist-0.4166667"):
        "86941b963d68ac70933a938a2eccaaa326a78c21c7703f2061fe879e6c476666",
    ("EP", "dist-0.25-Production-0.5"):
        "082fe042c18bb4a7aaf1ffcd73aa7e3e41cfd90aabf84c5824cfec1f53ee16f6",
}

_datasets = {}


@pytest.mark.parametrize("cell", list(GOLDEN), ids="-".join)
def test_grouping_matches_golden_digest(cell):
    name, clauses = cell
    if name not in _datasets:
        _datasets[name] = DATA[name]()
    ds = _datasets[name]
    out, _ = group_time_series(ds.meta, list(ds.dims), CLAUSES[clauses](ds))
    cols = out[["tid", "gid", "bitpos"]].to_numpy("<i8")
    assert hashlib.sha256(cols.tobytes()).hexdigest() == GOLDEN[cell]
