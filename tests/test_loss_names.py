"""Loss names are written once, in nn.py's gradcheck table: losses.py tells
its two families apart by their terms, never by a name."""

import ast
from pathlib import Path

from rwwce.nn import VARIANTS

SOURCE = Path(__file__).resolve().parent.parent / "src" / "rwwce" / "losses.py"


def name_constants(source: str, names) -> list[str]:
    """String constants in source equal to one of names."""
    return [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in names
    ]


def test_the_check_finds_a_name_constant():
    source = 'def bce():\n    """bce is (1.0, 1.0)."""\n    return {"kind": "bce"}\n'
    assert name_constants(source, {"bce"}) == ["line 3: 'bce'"]


def test_losses_writes_no_loss_name_as_a_string():
    assert VARIANTS == ("bce", "wbce", "cce", "wcce", "rwwce_binary", "rwwce_categorical")
    assert name_constants(SOURCE.read_text(encoding="utf-8"), set(VARIANTS)) == []
