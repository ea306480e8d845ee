"""Every name the ``jobs/t*.py`` entry points and the benchmark
(``perfbench/*.py``) use from ``repro`` must exist.

The jobs import ``repro.experiments`` names inside ``main()``, the tests
never run the jobs, and tier-1 does not run the benchmark, so a renamed
or deleted name would otherwise break a job or the benchmark without
any test failing.
"""
import ast
import importlib
import importlib.util
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parent.parent
JOBS = ROOT / "jobs"
PERFBENCH = ROOT / "perfbench"


def _module(name: str):
    if name == "common":
        spec = importlib.util.spec_from_file_location(
            "jobs_common", JOBS / "common.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
    return importlib.import_module(name)


def _imports(path: Path, local=("common",)):
    """(module, name, bound as) of every ``from repro… / common import``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.ImportFrom) and node.module
                and (node.module in local
                     or node.module.split(".")[0] == "repro")):
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def _resolve(module: str, name: str):
    """``module.name`` as an attribute, else as a submodule (``from
    repro.core import gorilla``); ``None`` if it is neither."""
    mod = _module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


@pytest.mark.parametrize("job", sorted(p.name for p in JOBS.glob("t*.py")))
def test_job_imports_exist(job):
    imports = list(_imports(JOBS / job))
    assert imports, f"{job} imports nothing from repro or common"
    for module, name, _ in imports:
        assert hasattr(_module(module), name), f"{job}: {module}.{name}"


@pytest.mark.parametrize("script",
                         sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_perfbench_repro_names_exist(script):
    """``from repro… import name`` resolves, and so does every
    ``module.attr`` on a ``repro`` module it binds (``segment_store.
    list_files``, ``ingest_mod.pivot_group``, ``gorilla.encode``)."""
    tree = ast.parse((PERFBENCH / script).read_text())
    modules = {}
    for module, name, bound in _imports(PERFBENCH / script, local=()):
        obj = _resolve(module, name)
        assert obj is not None, f"{script}: {module}.{name}"
        if isinstance(obj, ModuleType):
            modules[bound] = obj
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            mod = modules[node.value.id]
            assert hasattr(mod, node.attr), \
                f"{script}: {mod.__name__}.{node.attr}"
