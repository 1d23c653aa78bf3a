"""Model names are written once in experiments.py: in the SUITES literal."""

import ast
from pathlib import Path

from rwwce.experiments import SUITES

SOURCE = Path(__file__).resolve().parent.parent / "src" / "rwwce" / "experiments.py"
MODEL_NAMES = {model for suite in SUITES.values() for model in suite.models}


def names_outside_the_table(source: str, names) -> list[str]:
    """String constants equal to one of names, outside the value assigned to SUITES."""
    tree = ast.parse(source)
    tables = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "SUITES" for target in node.targets)
    ]
    assert len(tables) == 1, "expected one SUITES assignment"
    inside = {id(node) for node in ast.walk(tables[0])}
    return [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value in names
        and id(node) not in inside
    ]


def test_the_check_finds_a_name_outside_the_table():
    source = 'SUITES = {"a": ("x", "y")}\nNAME = "y"\nDOC = "x and y"\n'
    assert names_outside_the_table(source, {"x", "y"}) == ["line 2: 'y'"]


def test_experiments_writes_each_model_name_only_in_the_suite_table():
    assert MODEL_NAMES == {"control1", "control2", "test", "control", "experimental"}
    assert names_outside_the_table(SOURCE.read_text(encoding="utf-8"), MODEL_NAMES) == []
