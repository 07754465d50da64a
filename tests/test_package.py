import ast
from pathlib import Path

import logent


def test_every_exported_name_resolves():
    missing = [name for name in logent.__all__ if not hasattr(logent, name)]
    assert missing == []


def test_tolerances_are_named_only_in_linalg():
    # every module reads DEFAULT_TOL, IDENTITY_TOL, ROUNDING_TOL or NORM_TOL from linalg;
    # text such as "more than 1e-6" in a message is a string, not a float constant
    found = [f"{path.name}:{node.lineno} {node.value!r}"
             for path in sorted(Path(logent.__file__).parent.glob("*.py")) if path.name != "linalg.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value < 1e-3]
    assert found == []
