"""No public name of the package exists only for the tests: every public
top-level function, class and constant of a qlhv module is reached from the
package or the benchmark harness, or is on ALLOWED with its reason."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for path in (ROOT / "src" / "qlhv").glob("*.py") if path.name != "__init__.py")
# the harness's own tests are tests too, so they reach nothing here
CALLERS = [*MODULES, *(path for path in (ROOT / "bench").glob("*.py") if not path.name.startswith("test_"))]

_KEPT = "acceptance criterion 8 (evolution) runs it, and ROADMAP item 7 is to give it a command"
ALLOWED = {
    "qubit.X_FLIP": _KEPT,
    "qubit.IDENTITY_PERMUTATION": _KEPT,
    "qubit.evolve_mixture": _KEPT,
}


def public_names(path):
    """The public top-level functions, classes and assigned constants."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return {name for name in names if not name.startswith("_")}


def reached_names(paths):
    """Every name loaded and every attribute named in the given files."""
    reached = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
    return reached


def test_every_public_name_is_reached_outside_the_tests():
    reached = reached_names(CALLERS)
    unreached = {f"{path.stem}.{name}" for path in MODULES for name in public_names(path)
                 if name not in reached}
    # a name on ALLOWED that the package starts to use leaves the list too
    assert unreached == set(ALLOWED)


def test_the_scan_flags_a_name_that_nothing_reaches(tmp_path):
    module, caller = tmp_path / "module.py", tmp_path / "caller.py"
    module.write_text("A, B = 1, 2\nC: int = 3\n_D = 4\n\n\ndef f():\n    return A\n\n\nclass G:\n    pass\n")
    caller.write_text("from module import f, G\nf()\nmodule.C = 5\n")
    assert public_names(module) == {"A", "B", "C", "f", "G"}
    assert public_names(module) - reached_names([module, caller]) == {"B", "G"}
