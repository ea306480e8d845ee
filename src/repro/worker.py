"""What every function that Spark runs in a Python worker does first.

PySpark 4.1 calls ``importlib.invalidate_caches()`` at the start of every
Python task (``pyspark.worker_util.setup_spark_files``).  On Python 3.11
that calls ``zipimporter.invalidate_caches`` on every zip importer in
``sys.path_importer_cache``, and each call re-reads its archive's
directory: ``pyspark.zip`` once per imported subpackage, and the
spark-core jar that the JVM puts on the workers' path.  In a reused
worker that is most of a trivial task's CPU (DESIGN.md §4).
"""
import sys
import zipimport


def trim_importer_cache() -> None:
    """Delete every zip importer from ``sys.path_importer_cache``.

    The next task's ``invalidate_caches()`` then has no archive to
    re-read.  Python builds a deleted entry again the next time it
    imports from that path, from the archive directory that
    ``zipimport`` keeps per archive, so no import resolves differently.
    """
    cache = sys.path_importer_cache
    for path in [p for p, f in cache.items()
                 if isinstance(f, zipimport.zipimporter)]:
        del cache[path]
