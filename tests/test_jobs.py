"""Every name a ``jobs/t*.py`` entry point imports must exist.

The jobs import ``repro.experiments`` names inside ``main()`` and the
tests never run the jobs, so a renamed or deleted name would otherwise
break a job without any test failing.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def _module(name: str):
    if name == "common":
        spec = importlib.util.spec_from_file_location(
            "jobs_common", JOBS / "common.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
    return importlib.import_module(name)


def _imports(path: Path):
    """(module, name) of every ``from repro… / common import name``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.ImportFrom) and node.module
                and (node.module == "common"
                     or node.module.split(".")[0] == "repro")):
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("job", sorted(p.name for p in JOBS.glob("t*.py")))
def test_job_imports_exist(job):
    pairs = list(_imports(JOBS / job))
    assert pairs, f"{job} imports nothing from repro or common"
    for module, name in pairs:
        assert hasattr(_module(module), name), f"{job}: {module}.{name}"
