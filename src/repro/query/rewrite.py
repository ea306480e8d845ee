"""Query rewriting: Tids and dimension members → Gids (paper §VI-B).

Users query *time series* (Tids) and dimension members; segments are
stored per *group* (Gid).  The master rewrites WHERE clauses to Gids
before dispatch so the segment store only indexes Gids, and ModelarDB+
additionally pushes user-defined dimension predicates by rewriting
members to the Gids of groups containing series with those members.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import pandas as pd


def gids_for(tsmeta: pd.DataFrame,
             tids: Optional[Sequence[int]] = None,
             members: Optional[Dict[str, object]] = None) -> List[int]:
    """Gids of every group containing a series matching the predicates.

    ``members`` maps denormalised dimension columns to required values,
    e.g. ``{"measure_category": "Weather"}``.  ``None``/empty predicates
    select all groups.
    """
    sel = pd.Series(True, index=tsmeta.index)
    if tids is not None:
        sel &= tsmeta["tid"].isin(list(tids))
    for col, val in (members or {}).items():
        sel &= tsmeta[col] == val
    return sorted(tsmeta.loc[sel, "gid"].unique().astype(int).tolist())

