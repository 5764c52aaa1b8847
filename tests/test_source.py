"""Source-level guard: every top-level name in the package is used.

A function, class or constant defined at the top of a `src/agsevnet`
module must be referenced somewhere in `src/` outside its own
definition and outside `checks.py`; an API kept alive only by its own
tests or by the oracles fails here. `checks.py` and `gradcheck.py` are
exempt as definers because they hold the oracles, registered checks and
finite-difference helpers that the tests and the `gradcheck` command
call.

Every name a module imports must also be used in it; `from __future__`
imports and `__init__.py` are exempt.

A module imports only the standard library, its own package and the
`dependencies` that `pyproject.toml` declares, so a new dependency is a
decision taken in `pyproject.toml`, not a side effect of an import.
"""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "agsevnet"
EXEMPT_MODULES = {"checks.py", "gradcheck.py"}
NOT_USES = {"checks.py"}
EXEMPT_NAMES = {"__version__"}


def _definitions(tree):
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, stmt


def _references(node) -> Counter:
    """Names loaded or attributes read under `node`; imports do not count."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def unused_names(root: Path) -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    total = Counter()
    for module, tree in trees.items():
        if module not in NOT_USES:
            total += _references(tree)
    unused = []
    for module, tree in trees.items():
        if module in EXEMPT_MODULES:
            continue
        for name, stmt in _definitions(tree):
            if name not in EXEMPT_NAMES and total[name] - _references(stmt)[name] == 0:
                unused.append(f"{module}:{name}")
    return unused


def unused_imports(root: Path) -> list[str]:
    unused = []
    for path in sorted(root.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        refs = _references(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if refs[name] == 0:
                        unused.append(f"{path.name}:{name}")
    return unused


def test_no_top_level_name_is_unused():
    assert unused_names(PACKAGE) == []


def test_guard_flags_names_used_only_by_themselves(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import helper\n"
        "LIMIT = 3\n"
        "def countdown(n):\n"
        "    return countdown(n - 1) if n else helper(LIMIT)\n"
    )
    (tmp_path / "b.py").write_text(
        "def helper(x):\n    return x\n"
        "class Orphan:\n    pass\n"
        "def checked_only():\n    return 1\n"
    )
    (tmp_path / "checks.py").write_text(
        "from .b import checked_only\n"
        "def oracle():\n    return checked_only()\n"
    )
    (tmp_path / "gradcheck.py").write_text("def numeric():\n    return 0\n")
    assert unused_names(tmp_path) == ["a.py:countdown", "b.py:Orphan", "b.py:checked_only"]


def test_no_import_is_unused():
    assert unused_imports(PACKAGE) == []


def test_guard_flags_imports_a_module_never_uses(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import hashlib\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .b import helper as aid, spare\n"
        "def used(x: np.ndarray):\n"
        "    return aid(os.path.join(x))\n"
    )
    assert unused_imports(tmp_path) == ["a.py:hashlib", "a.py:spare"]


def declared_dependencies(pyproject: Path) -> set[str]:
    """The distribution names of `[project] dependencies`, lower-cased.

    Read with a regex: `tomllib` needs Python 3.11, and the package
    supports 3.10.
    """
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", pyproject.read_text(), re.M | re.S)
    return {re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower()
            for spec in re.findall(r"[\"']([^\"']+)[\"']", block[1])} if block else set()


def foreign_imports(root: Path, declared: set[str]) -> list[str]:
    """`module:package` for each absolute import of a package that is
    neither in the standard library nor declared. An import name must
    equal its distribution name up to case, as numpy's does."""
    foreign = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for top in (name.split(".")[0] for name in names):
                if top not in sys.stdlib_module_names and top.lower() not in declared:
                    foreign.append(f"{path.name}:{top}")
    return foreign


def test_imports_only_stdlib_and_declared_dependencies():
    declared = declared_dependencies(ROOT / "pyproject.toml")
    assert "numpy" in declared
    assert foreign_imports(PACKAGE, declared) == []


def test_guard_flags_undeclared_imports(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[project]\nname = "x"\ndependencies = [\n    "numpy>=1.24",\n    \'Requests\',\n]\n'
        '[project.optional-dependencies]\ntest = ["pytest>=7"]\n'
    )
    declared = declared_dependencies(tmp_path / "pyproject.toml")
    assert declared == {"numpy", "requests"}
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "import scipy.ndimage\n"
        "import requests\n"
        "from . import b\n"
        "from .b import helper\n"
        "from pytest import fixture\n"
        "def f():\n    import torch\n"
    )
    assert foreign_imports(tmp_path, declared) == ["a.py:scipy", "a.py:pytest", "a.py:torch"]
