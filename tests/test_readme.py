"""The README's library example runs as written and prints what its
comments say."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_prints_its_comments():
    readme = (ROOT / "README.md").read_text()
    (source,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    lines = source.splitlines()
    # one printed line per top-level print(...) call, in order
    calls = [node for node in ast.parse(source).body
             if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
             and getattr(node.value.func, "id", None) == "print"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    printed = subprocess.run([sys.executable, "-c", source], env=env, check=True,
                             capture_output=True, text=True).stdout.splitlines()
    assert len(printed) == len(calls)

    compared = 0
    for call, out in zip(calls, printed):
        _, _, comment = lines[call.end_lineno - 1].partition("#")
        try:
            expected = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            continue   # no comment, or one that is not a literal
        assert ast.literal_eval(out) == expected, lines[call.end_lineno - 1]
        compared += 1
    assert compared >= 4


def test_readme_api_references_resolve():
    # every inline `qlhv.<module>.<name>` or `<module>.<name>`, called or not
    readme = (ROOT / "README.md").read_text()
    modules = "chsh|cli|ghz|oracle|quaternions|qubit|tolerances"
    references = set(re.findall(rf"`(?:qlhv\.)?({modules})\.(\w+)", readme))
    assert len(references) >= 10
    for module, name in sorted(references):
        assert hasattr(importlib.import_module(f"qlhv.{module}"), name), f"{module}.{name}"
