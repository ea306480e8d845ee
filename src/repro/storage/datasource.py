"""Python DataSourceV2 exposing the segment store to Catalyst.

Registers the ``modelardb`` format so the Segment table is scanned as::

    spark.dataSource.register(ModelarDataSource)
    df = (spark.read.format("modelardb")
            .option("path", store_path)
            .option("gids", "1,5,9")          # optional push-down
            .option("min_end_time", "1000")   # optional push-down
            .load())

Footer pruning (the stand-in for Cassandra's primary-key index, see
``segment_store.py``) selects the ``.mdb`` files, and the reader packs
them, in name order, into input partitions of at least
:data:`SEGMENTS_PER_PARTITION` segments.  Spark parallelises the scan over
Gids (Table I: "Parallelize queries over Gids in Spark instead of
Cassandra") once a scan has enough segments to pay for a Python task per
partition; a smaller scan is one partition.  Pushed Gid/time predicates
then filter each file's rows in ``segment_store.read_file``, the read of
``read_segments`` too.  ``gids=""`` is the empty Gid list and selects no
segment.
"""
from __future__ import annotations

from typing import List, Optional, Sequence

from pyspark.sql.datasource import DataSource, DataSourceReader, InputPartition

from ..worker import trim_importer_cache
from .schema import SEGMENT_SCHEMA

# A partition costs two Python task starts, the scan read and the
# ``mapInPandas`` step over its rows: 0.04–0.11 CPU s on a 4-core Xeon
# in reused workers, since every worker function trims the importer
# cache (``repro.worker``).  Model-based partials cost about 50 µs per
# Segment View row, so below about 0.1 s / 50 µs ≈ 2 000 rows the fixed
# cost is larger than the work.  A segment gives at least one view row,
# so 2**14 segments per partition keep the fixed cost well below the
# work it parallelises.
SEGMENTS_PER_PARTITION = 2 ** 14


class ModelarSegmentReader(DataSourceReader):
    def __init__(self, options):
        self.path = options.get("path")
        if not self.path:
            raise ValueError("modelardb: 'path' option is required")
        gids = options.get("gids")
        self.gids: Optional[List[int]] = (
            None if gids is None else [int(g) for g in gids.split(",") if g])
        met = options.get("min_end_time")
        self.min_end_time = int(met) if met is not None else None
        mst = options.get("max_start_time")
        self.max_start_time = int(mst) if mst is not None else None

    def partitions(self) -> Sequence[InputPartition]:
        """Consecutive pruned files, closed at ``SEGMENTS_PER_PARTITION``
        segments; an empty scan is one partition with no files, so it
        plans an empty DataFrame instead of failing."""
        trim_importer_cache()
        from .segment_store import list_footers

        parts: List[InputPartition] = []
        paths: List[str] = []
        count = 0
        for path, footer in list_footers(self.path, self.gids,
                                         self.min_end_time,
                                         self.max_start_time):
            paths.append(path)
            count += footer["count"]
            if count >= SEGMENTS_PER_PARTITION:
                parts.append(InputPartition(paths))
                paths, count = [], 0
        if paths or not parts:
            parts.append(InputPartition(paths))
        return parts

    def read(self, partition: InputPartition):
        """Yield the Arrow batches of the rows that each ``.mdb`` file of
        the partition (its ``value``, a list of paths) keeps: no per-row
        Python→JVM conversion, so the scan cost is linear in the number of
        *segments* with a small constant, which is what makes model-based
        aggregates pay off (paper §VI-A)."""
        trim_importer_cache()
        from .segment_store import read_file

        for path in partition.value:
            yield from read_file(path, self.gids, self.min_end_time,
                                 self.max_start_time).to_batches()


class ModelarDataSource(DataSource):
    """The ``modelardb`` segment-store format."""

    @classmethod
    def name(cls) -> str:
        return "modelardb"

    def schema(self):
        trim_importer_cache()
        return SEGMENT_SCHEMA

    def reader(self, schema) -> ModelarSegmentReader:
        trim_importer_cache()
        return ModelarSegmentReader(self.options)


def register(spark) -> None:
    """Idempotently register the format on a SparkSession."""
    spark.dataSource.register(ModelarDataSource)
