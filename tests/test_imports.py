"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rwwce"

# Imported but unused on purpose: perfbench wraps nn.loss_value and
# experiments.forward where those modules look them up, and the benchmark's
# hooks (tests/test_perfbench_hooks.py) require both names to stay.
ALLOWED_UNUSED = {("nn", "loss_value"), ("experiments", "forward")}


def unused_imports(source: str) -> list[str]:
    """Names bound by a module's imports that nothing in the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport json as j\nfrom a.b import c, d\nprint(j, d)\n"
    assert unused_imports(source) == ["os", "c"]


def test_library_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = [
        f"{path.name}: {name}"
        for path in modules
        for name in unused_imports(path.read_text(encoding="utf-8"))
        if (path.stem, name) not in ALLOWED_UNUSED
    ]
    assert found == []
