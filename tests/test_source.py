import ast
from pathlib import Path

import braid3


def test_package_has_no_assert_statements():
    # python -O strips assert statements; broken identities must raise
    # ConsistencyError instead
    sources = sorted(Path(braid3.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
