"""No pwbandit module reaches into another's private names.

A name that begins with ``_`` (and is not a ``__dunder__``) belongs to the
module that defines it. This parses every module of the package and fails
on an import of such a name from another pwbandit module, and on a read of
one as ``module._name`` through a name bound to a pwbandit module.
"""

import ast
from pathlib import Path

import pytest

import pwbandit

PACKAGE = Path(pwbandit.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def package_module(node: ast.ImportFrom) -> str | None:
    """The pwbandit module ``node`` imports from, None if it is not one."""
    if node.level:
        return ".".join(["pwbandit", *filter(None, [node.module])])
    if node.module == "pwbandit" or (node.module or "").startswith("pwbandit."):
        return node.module
    return None


def private_uses(path: Path) -> list[str]:
    """Each cross-module use of a private name in the module at ``path``,
    in line order."""
    own = f"pwbandit.{path.stem}"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules, found = set(), []  # local names bound to pwbandit modules
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "pwbandit" or alias.name.startswith("pwbandit."):
                    modules.add(alias.asname or alias.name.partition(".")[0])
        elif isinstance(node, ast.ImportFrom) and (source := package_module(node)):
            for alias in node.names:
                if source == "pwbandit" and not is_private(alias.name):
                    modules.add(alias.asname or alias.name)  # may be a submodule
                if is_private(alias.name) and source != own:
                    found.append((node.lineno, f"from {source} import {alias.name}"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            owner = ast.unparse(node.value)
            if owner.partition(".")[0] in modules:
                found.append((node.lineno, f"{owner}.{node.attr}"))
    return [f"line {line}: {use}" for line, use in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_uses_another_modules_private_names(path):
    assert private_uses(path) == []


def test_the_check_finds_both_kinds_of_use(tmp_path):
    path = tmp_path / "bandit.py"
    path.write_text("from .mixture import _step, maximize\n"
                    "from . import mixture as m\n"
                    "from .bandit import _start\n"
                    "import pwbandit.dictionary\n"
                    "m._newton_direction(1)\n"
                    "pwbandit.dictionary._fill\n"
                    "m.__name__, self._cats\n", encoding="utf-8")
    assert private_uses(path) == ["line 1: from pwbandit.mixture import _step",
                                  "line 5: m._newton_direction",
                                  "line 6: pwbandit.dictionary._fill"]
