"""``pyproject.toml`` declares every package that ``src/`` imports."""
import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imports(root: Path):
    """(top-level package, file:line) of each absolute import under
    ``root``, function-local imports included."""
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield (name.split(".")[0],
                       f"{path.relative_to(ROOT)}:{node.lineno}")


def test_every_import_of_src_is_declared():
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    declared = {re.match(r"[\w.-]+", d).group().lower().replace("-", "_")
                for d in project["dependencies"]}
    undeclared = sorted(
        (package, where) for package, where in _imports(ROOT / "src")
        if package not in sys.stdlib_module_names | declared | {"repro"})
    assert undeclared == []
    assert {"pytest", "hypothesis"} <= set(
        project["optional-dependencies"]["test"])
