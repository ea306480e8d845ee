"""ModelarDB v1 (MDB) baseline: per-series MMC with PMC-MR.

The paper evaluates MDB+ against its predecessor [1], which (a) uses
Multi-Model Compression on *individual* series (no groups), (b) uses
PMC-MR (mid-range) rather than PMC-Mean (Table I swapped it to lower
average error), and (c) has none of MDB+'s dynamic split/merge.  This
module runs GOLEMM's machinery restricted to exactly that
configuration, so the MDB-vs-MDB+ comparison isolates the paper's
contributions rather than implementation differences.
"""
from __future__ import annotations

from typing import List, Optional

import pandas as pd

from ..core.fallback import GorillaModel
from ..core.golemm import CompressStats
from ..core.ingest import ingest_local
from ..core.pmc_mean import PMCMidrange
from ..core.segment import Segment
from ..core.swing import Swing
from ..dims.grouping import singleton_groups

MDB_MODEL_TYPES = (PMCMidrange(), Swing(), GorillaModel())


def ingest_mdb(points: pd.DataFrame, meta: pd.DataFrame, eps_pct: float,
               stats: Optional[CompressStats] = None) -> List[Segment]:
    """Compress every series separately with MDB's model-type lineup.

    Singleton groups never split, so GOLEMM's split/merge is inert here
    and MDB has none of it, as in the paper.
    """
    return ingest_local(points, mdb_meta(meta), eps_pct,
                        model_types=MDB_MODEL_TYPES, stats=stats)


def mdb_meta(meta: pd.DataFrame) -> pd.DataFrame:
    """The singleton grouping MDB uses, for store writing/queries."""
    return singleton_groups(meta.drop(columns=["gid", "bitpos"],
                                      errors="ignore"))
