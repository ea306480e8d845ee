"""GOLEMM: Group Online Lossy and lossless Extensible Multi-Model
compression (paper §III-B, §IV-D).

Ingestion semantics reproduced here:

* Data points for a group are buffered per sampling interval; model
  types are tried **in configured order** (default PMC-Mean → Swing →
  Gorilla).  A type is used until it fails to represent a newly buffered
  timestamp within the error bound; the next type is then (re)fitted to
  the whole buffer.  Lossless types are bounded by ``LENGTH_BOUND``
  instead of ε.  When the *last* type fails, the segment whose model
  gives the best compression is emitted and ingestion restarts with the
  first type.  Segments are *disconnected* (no shared data points).

  For a bounded buffer this online process is equivalent to the
  formulation used here: at each start offset, fit every type to its
  longest representable prefix; if a type represents the entire
  remaining buffer it never fails, so it is chosen outright (types are
  ordered cheapest-first); otherwise the candidate with the fewest
  *bits per data point* (metadata included) wins, the earlier type on a
  tie.  As in the online process, a fit reads only the points that
  decide it: a lossless type its ``LENGTH_BOUND`` timestamps, a lossy
  type a window of ``4·LENGTH_BOUND`` timestamps, doubled while the
  model fills it, so the work is linear in a chunk's length.
  A candidate whose lower bound on size (``FitResult.min_size``) cannot
  win is skipped before its params are built, so Gorilla encodes only
  the candidates that may win, once each.

* **Gaps** force segment boundaries: a segment covers a static subset of
  the group's series, recorded as a bitmask (§III-B, Fig. 5).

* **Dynamic splitting/merging** (§IV-D, Algorithm 2): implemented in
  :func:`compress_chunk` via sub-groups with synchronised merge points
  and doubling backoff.  Split and merge both cluster with
  ``split_merge.cluster_within_double_bound``.  A group holds at most
  ``segment.MAX_GROUP_SIZE`` series, one per gap-mask bit.

The paper lets the user set the length bound and the split fraction;
this reproduction uses one value of each everywhere, so they are the
module constants ``LENGTH_BOUND`` and ``SPLIT_FRACTION`` (DESIGN.md §4).

The compressor operates on scaled values (``v / C_TS``) as float32 — the
paper stores values as ``float``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import split_merge
from .fallback import GorillaModel, RawFallback
from .model_types import FitResult, ModelType, by_mid
from .pmc_mean import PMCMean
from .segment import HEADER_BYTES, MAX_GROUP_SIZE, Segment, gap_mask
from .swing import Swing

#: Bits per uncompressed data point (64-bit timestamp + 32-bit value, §I).
RAW_BITS_PER_POINT = 96

DEFAULT_MODEL_TYPES: Tuple[ModelType, ...] = (PMCMean(), Swing(), GorillaModel())
#: Most timestamps in one lossless segment (§III-B).
LENGTH_BOUND = 50
#: A segment whose ratio is below the average over this fraction
#: triggers a split (§IV-D).
SPLIT_FRACTION = 10
#: Used when no configured model type represents the first timestamp.
FALLBACK = RawFallback()


@dataclass
class Emitted:
    """A segment emitted for a chunk, in chunk-local coordinates."""

    offset: int            # first timestamp index within the chunk
    length: int
    mid: int
    params: bytes
    series: np.ndarray     # chunk-local column indices represented

    @property
    def byte_size(self) -> int:
        return HEADER_BYTES + len(self.params)

    def ratio(self) -> float:
        raw = self.length * len(self.series) * RAW_BITS_PER_POINT / 8.0
        return raw / self.byte_size


@dataclass
class CompressStats:
    """Instrumentation used by the evaluation (§VII: split/merge ≤ ~2%)."""

    segments: int = 0
    splits: int = 0
    merges: int = 0
    merge_attempts: int = 0
    split_merge_seconds: float = 0.0
    total_seconds: float = 0.0
    model_counts: dict = field(default_factory=dict)


def _fit(mt: ModelType, ts: np.ndarray, V: np.ndarray, delta: np.ndarray,
         cols: np.ndarray) -> FitResult:
    """``mt.fit`` on columns ``cols`` of the buffer, reading only the
    prefix that decides it.

    A lossless type sees its ``LENGTH_BOUND`` timestamps.  A lossy fit is
    decided by its prefix (§III-B's online formulation), so it runs on a
    window of ``4·LENGTH_BOUND`` timestamps, doubled while the model
    fills it: linear, not quadratic, in the length of a gap-free chunk.
    """
    n = len(ts)

    def fit(w, bound):
        return mt.fit(ts[:w], V[:w][:, cols], delta[:w][:, cols], bound)

    if mt.lossless:
        return fit(min(n, LENGTH_BOUND), LENGTH_BOUND)
    w = min(n, 4 * LENGTH_BOUND)
    res = fit(w, n)
    while res.length >= w and w < n:
        w = min(n, 2 * w)
        res = fit(w, n)
    return res


def _best_segment(ts: np.ndarray, V: np.ndarray, delta: np.ndarray,
                  cols: np.ndarray, model_types: Sequence[ModelType]
                  ) -> Tuple[int, int, bytes]:
    """One GOLEMM emission step from offset 0 of columns ``cols`` of the
    given buffer.

    Returns (mid, length, params) of the winning model.  Params are
    built only for candidates whose ``min_size`` may win.
    """
    n = len(ts)
    best, best_mid, best_bits = None, None, np.inf
    for mt in model_types:
        res = _fit(mt, ts, V, delta, cols)
        if res.length >= n and not mt.lossless:
            # The type never fails on this buffer — emitted at flush.
            return mt.mid, res.length, res.params
        if res.length == 0:
            continue
        # Best compression: fewest bits per represented data point, with
        # the segment's fixed metadata amortised over its length; a tie
        # goes to the earlier type, so a bound that ties cannot win.
        points = res.length * len(cols)
        if (HEADER_BYTES + res.min_size) * 8.0 / points >= best_bits:
            continue
        bits = (HEADER_BYTES + res.size) * 8.0 / points
        if bits < best_bits:
            best, best_mid, best_bits = res, mt.mid, bits
    if best is None:
        best, best_mid = _fit(FALLBACK, ts, V, delta, cols), FALLBACK.mid
    return best_mid, best.length, best.params


@dataclass(eq=False)  # identity equality: ndarray fields break __eq__,
class _SubGroup:      # and list.remove() must match by instance anyway
    series: np.ndarray       # chunk-local column indices
    pos: int                 # next timestamp index to compress


def compress_chunk(ts: np.ndarray, V: np.ndarray, delta: np.ndarray,
                   model_types: Sequence[ModelType] = DEFAULT_MODEL_TYPES,
                   stats: Optional[CompressStats] = None) -> List[Emitted]:
    """Compress one gap-free chunk (no NaN in ``V``) of a group.

    Implements multi-model emission plus dynamic splitting/merging.
    Sub-groups advance independently; merges are synchronised at
    positions spaced by the length bound with doubling backoff, standing
    in for the paper's SI-aligned synchronisation by ``SG_0``.
    """
    n_t, n_s = V.shape
    out: List[Emitted] = []
    if n_t == 0 or n_s == 0:
        return out
    st = stats if stats is not None else CompressStats()
    t0 = time.perf_counter()

    subgroups = [_SubGroup(np.arange(n_s, dtype=np.int64), 0)]
    merge_backoff = 1          # segments required before a merge attempt
    next_sync = None           # timestamp index where sub-groups re-align
    ratio_sum, ratio_n = 0.0, 0

    while True:
        active = [g for g in subgroups if g.pos < n_t]
        if not active:
            break
        sg = min(active, key=lambda g: g.pos)
        cap = n_t - sg.pos
        if next_sync is not None and sg.pos < next_sync:
            cap = min(cap, next_sync - sg.pos)
        sl = slice(sg.pos, sg.pos + cap)
        mid, length, params = _best_segment(ts[sl], V[sl], delta[sl],
                                            sg.series, model_types)
        emitted = Emitted(sg.pos, length, mid, params, sg.series)
        out.append(emitted)
        st.segments += 1
        st.model_counts[mid] = st.model_counts.get(mid, 0) + 1
        sg.pos += length

        r = emitted.ratio()
        avg = ratio_sum / ratio_n if ratio_n else r
        ratio_sum += r
        ratio_n += 1

        sm0 = time.perf_counter()
        # --- split heuristic (§IV-D): poor ratio + buffered points ----
        if (len(sg.series) > 1 and ratio_n > 1 and
                r < avg / SPLIT_FRACTION and sg.pos < n_t):
            win = slice(sg.pos, min(sg.pos + LENGTH_BOUND, n_t))
            clusters = split_merge.cluster_within_double_bound(
                V[win][:, sg.series], delta[win][:, sg.series], sg.series)
            if len(clusters) > 1:
                subgroups.remove(sg)
                subgroups.extend(_SubGroup(c, sg.pos) for c in clusters)
                st.splits += 1
                merge_backoff = 1
                next_sync = min(sg.pos + merge_backoff * LENGTH_BOUND, n_t)
        # --- merge attempt: all sub-groups aligned at the sync point ---
        if (len(subgroups) > 1 and next_sync is not None and
                all(g.pos >= min(next_sync, n_t) for g in subgroups)):
            st.merge_attempts += 1
            pos = min(next_sync, n_t - 1)
            win = slice(pos, min(pos + LENGTH_BOUND, n_t))
            # One representative column per sub-group: its series are
            # already mutually within 2ε, or it would have split.
            reps = [int(g.series[0]) for g in subgroups]
            clusters = split_merge.cluster_within_double_bound(
                V[win][:, reps], delta[win][:, reps],
                np.arange(len(subgroups)))
            if len(clusters) < len(subgroups):
                merged = []
                for cluster in clusters:
                    cols = np.sort(np.concatenate(
                        [subgroups[g].series for g in cluster]))
                    merged.append(_SubGroup(cols, max(subgroups[g].pos
                                                      for g in cluster)))
                subgroups = merged
                st.merges += 1
                merge_backoff = 1
            else:
                merge_backoff *= 2
            if len(subgroups) > 1:
                next_sync = min(next_sync + merge_backoff * LENGTH_BOUND, n_t)
            else:
                next_sync = None
        st.split_merge_seconds += time.perf_counter() - sm0

    st.total_seconds += time.perf_counter() - t0
    return out


def compress_group(ts: np.ndarray, values: np.ndarray, eps_pct: float,
                   gid: int, si: int,
                   model_types: Sequence[ModelType] = DEFAULT_MODEL_TYPES,
                   stats: Optional[CompressStats] = None) -> List[Segment]:
    """Compress a whole group into storage-ready :class:`Segment` rows.

    ``values`` is a (n_t, n_series) float matrix in ``bitpos``
    (sorted-Tid) column order, with ``NaN`` marking gaps (regular time
    series with gaps, §II).  Gap starts/ends force segment boundaries
    (Fig. 5): the chunk between two mask changes covers a static series
    subset, recorded in the segment's ``gaps`` bitmask.
    """
    ts = np.asarray(ts, dtype=np.int64)
    V = np.asarray(values, dtype=np.float32)
    n_t, n_s = V.shape
    if n_s > MAX_GROUP_SIZE:
        raise ValueError(f"a group is limited to {MAX_GROUP_SIZE} series "
                         "(64-bit gap mask)")
    present = ~np.isnan(V)
    # Boundaries wherever the set of present series changes.
    change = np.ones(n_t, dtype=bool)
    change[1:] = (present[1:] != present[:-1]).any(axis=1)
    bounds = np.flatnonzero(change).tolist() + [n_t]

    segments: List[Segment] = []
    for b0, b1 in zip(bounds, bounds[1:]):
        cols = np.flatnonzero(present[b0])
        if len(cols) == 0:
            continue  # every series is in a gap: nothing to store
        sub_v = V[b0:b1][:, cols]
        delta = np.abs(sub_v) * (eps_pct / 100.0)
        emitted = compress_chunk(ts[b0:b1], sub_v, delta, model_types,
                                 stats=stats)
        for e in emitted:
            t_lo = int(ts[b0 + e.offset])
            t_hi = int(ts[b0 + e.offset + e.length - 1])
            segments.append(Segment(gid, t_lo, t_hi, si, e.length, e.mid,
                                    gap_mask(cols[e.series], n_s), e.params))
    return segments


def reconstruct_segment(seg: Segment, n_group_series: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rebuild (timestamps, column-indices, value-matrix) for a segment.

    The value matrix has one column per *present* series (those whose
    gap bit is unset), in sorted-Tid bit order, in the scaled domain.
    """
    cols = np.array([i for i in range(n_group_series)
                     if not (seg.gaps >> i) & 1], dtype=np.int64)
    t = seg.timestamps()
    V = by_mid(seg.mid).reconstruct(seg.params, t, len(cols))
    return t, cols, V
