"""The importer-cache trim that every Python worker function runs first."""
import importlib
import sys
import zipfile
import zipimport

import pytest

from repro.worker import trim_importer_cache


@pytest.fixture
def zip_package(tmp_path):
    """A package ``zpkg`` with submodules ``a`` and ``b``, importable only
    from a zip archive on ``sys.path``."""
    archive = str(tmp_path / "zpkg.zip")
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("zpkg/__init__.py", "")
        z.writestr("zpkg/a.py", "NAME = 'a'\n")
        z.writestr("zpkg/b.py", "NAME = 'b'\n")
    sys.path.insert(0, archive)
    yield archive
    sys.path.remove(archive)
    for name in ("zpkg", "zpkg.a", "zpkg.b"):
        sys.modules.pop(name, None)
    for path in [p for p in sys.path_importer_cache if p.startswith(archive)]:
        del sys.path_importer_cache[path]


def _zip_importers():
    return [p for p, f in sys.path_importer_cache.items()
            if isinstance(f, zipimport.zipimporter)]


def test_trim_drops_zip_importers_and_imports_still_resolve(zip_package):
    a = importlib.import_module("zpkg.a")
    assert zip_package in _zip_importers()
    trim_importer_cache()
    assert _zip_importers() == []
    b = importlib.import_module("zpkg.b")
    assert b.NAME == "b" and b.__file__.startswith(zip_package)
    assert importlib.import_module("zpkg.a") is a
