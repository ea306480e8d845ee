"""Python DataSourceV2 exposing the segment store to Catalyst.

Registers the ``modelardb`` format so the Segment table is scanned as::

    spark.dataSource.register(ModelarDataSource)
    df = (spark.read.format("modelardb")
            .option("path", store_path)
            .option("gids", "1,5,9")          # optional push-down
            .option("min_end_time", "1000")   # optional push-down
            .load())

Each surviving ``.mdb`` file (after footer pruning — the stand-in for
Cassandra's primary-key index, see ``segment_store.py``) becomes one
input partition, so Spark parallelises the scan over the virtual
workers exactly as ModelarDB+ parallelises over Gids (Table I:
"Parallelize queries over Gids in Spark instead of Cassandra").
Pushed Gid/time predicates are applied per record after file pruning,
by the same per-file read as ``segment_store.read_segments``.
"""
from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from pyspark.sql.datasource import DataSource, DataSourceReader, InputPartition

from .schema import SEGMENT_SCHEMA


class _FilePartition(InputPartition):
    def __init__(self, path: str):
        self.path = path


class ModelarSegmentReader(DataSourceReader):
    def __init__(self, options):
        self.path = options.get("path")
        if not self.path:
            raise ValueError("modelardb: 'path' option is required")
        gids = options.get("gids")
        self.gids: Optional[List[int]] = (
            [int(g) for g in gids.split(",")] if gids else None)
        met = options.get("min_end_time")
        self.min_end_time = int(met) if met is not None else None
        mst = options.get("max_start_time")
        self.max_start_time = int(mst) if mst is not None else None

    def partitions(self) -> Sequence[InputPartition]:
        from .segment_store import list_files

        files = list_files(self.path, self.gids, self.min_end_time,
                           self.max_start_time)
        # Always return at least one (empty) partition so empty stores
        # still produce an empty DataFrame instead of failing planning.
        return [_FilePartition(f) for f in files] or [_FilePartition("")]

    def read(self, partition: _FilePartition):
        """Yield one Arrow RecordBatch per ``.mdb`` file.

        Arrow batches avoid per-row Python→JVM conversion — the scan
        cost is then linear in the number of *segments* with a small
        constant, which is what makes model-based aggregates pay off
        (paper §VI-A).
        """
        if not partition.path:
            return
        import pyarrow as pa

        from .segment_store import read_file

        cols: dict = {k: [] for k in ("gid", "start_time", "end_time", "si",
                                      "size", "mid", "gaps", "params")}
        for s in read_file(partition.path, self.gids, self.min_end_time,
                           self.max_start_time):
            for k, v in cols.items():
                v.append(getattr(s, k))
        if not cols["gid"]:
            return
        yield pa.record_batch([
            pa.array(cols["gid"], pa.int32()),
            pa.array(cols["start_time"], pa.int64()),
            pa.array(cols["end_time"], pa.int64()),
            pa.array(cols["si"], pa.int32()),
            pa.array(cols["size"], pa.int32()),
            pa.array(cols["mid"], pa.int32()),
            pa.array(cols["gaps"], pa.int64()),
            pa.array(cols["params"], pa.binary()),
        ], names=list(cols))


class ModelarDataSource(DataSource):
    """The ``modelardb`` segment-store format."""

    @classmethod
    def name(cls) -> str:
        return "modelardb"

    def schema(self):
        return SEGMENT_SCHEMA

    def reader(self, schema) -> ModelarSegmentReader:
        return ModelarSegmentReader(self.options)


def register(spark) -> None:
    """Idempotently register the format on a SparkSession."""
    spark.dataSource.register(ModelarDataSource)
