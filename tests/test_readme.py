"""The README's library example runs as written and prints what its
comments say, its API references resolve, and each row of its claims table
names checks that its command reports and passes."""

import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from qlhv import cli

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


# the north star's headline claims, each of which needs a row
HEADLINE_CLAIMS = {"Phase bound", "Real bound", "GHZ product", "Negative weight", "Six axes", "Tsirelson"}


def claims_table(readme):
    """(claim, argv, checks) per row of the table under ## Claims: the
    bold name that opens the claim cell, the command's words after qlhv,
    and the check names of the last cell."""
    section = readme.split("\n## Claims\n")[1].split("\n## ")[0]
    rows = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("| **")]
    table = []
    for claim, command, checks in rows:
        name = re.match(r"\s*\*\*(.+?)\.\*\*", claim).group(1)
        argv = shlex.split(re.fullmatch(r"\s*`qlhv ([^`]+)`\s*", command).group(1))
        table.append((name, argv, re.findall(r"`(\w+)`", checks)))
    return table


def config_of(argv):
    # the config that main builds from argv: each flag parsed once
    args = cli.build_parser().parse_args(argv)
    return {flag[2:]: parse(getattr(args, flag[2:])) for flag, parse in cli.COMMANDS[argv[0]].args}


def test_claims_table_names_checks_that_pass():
    table = claims_table((ROOT / "README.md").read_text())
    assert {name for name, _, _ in table} >= HEADLINE_CLAIMS
    for name, argv, checks in table:
        passed = {check["name"]: check["pass"] for check in cli.run(argv[0], config_of(argv))["checks"]}
        assert checks, name
        for check in checks:
            assert passed.get(check) is True, f"{name}: {' '.join(argv)} reports no passing {check}"


def test_readme_api_references_resolve():
    # every inline `qlhv.<module>.<name>` or `<module>.<name>`, called or not
    readme = (ROOT / "README.md").read_text()
    modules = "chsh|cli|ghz|oracle|quaternions|qubit|tolerances"
    references = set(re.findall(rf"`(?:qlhv\.)?({modules})\.(\w+)", readme))
    assert len(references) >= 10
    for module, name in sorted(references):
        assert hasattr(importlib.import_module(f"qlhv.{module}"), name), f"{module}.{name}"
