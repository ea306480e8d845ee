"""A trivial 4-row Python DataSource: the fixed cost of any Python scan.

Timing ``spark.read.format("perfbench_floor").load().collect()`` gives
the floor under every ``modelardb`` scan, independent of the store.
"""
from pyspark.sql.datasource import DataSource, DataSourceReader

NAME = "perfbench_floor"


class _FloorReader(DataSourceReader):
    def read(self, partition):
        for i in range(4):
            yield (i,)


class FloorSource(DataSource):
    @classmethod
    def name(cls) -> str:
        return NAME

    def schema(self) -> str:
        return "i int"

    def reader(self, schema) -> DataSourceReader:
        return _FloorReader()


def register(spark) -> None:
    spark.dataSource.register(FloorSource)
