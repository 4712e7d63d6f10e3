"""README.md's Python blocks run in order, in one namespace, and each
expression whose comment is a Python literal evaluates to that literal."""

import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def test_python_blocks_run_and_give_their_commented_results():
    blocks = _python_blocks()
    assert len(blocks) == 5
    namespace: dict = {}
    checked = []
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            try:
                expected = ast.literal_eval(comment)
            except (ValueError, SyntaxError):
                continue  # a prose comment, such as "-12.0, too close"
            assert np.asarray(value).tolist() == expected, (comment, value)
            checked.append(expected)
    assert checked == ["DL_h", 60, [[30, 60, 120, 150], [30, 60, 120, 150]]]
