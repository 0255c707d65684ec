"""No public name of the package exists only for the tests: every public
top-level function, class and constant of a qlhv module is reached from the
package or the benchmark harness.

A name N of module M is reached only through M itself: a file loads N after
`from ...M import N`, names N as an attribute of M or of a name bound to M
(`chsh.sample_model`, `self.cli.main`, `chsh` after
`chsh, oracle = self.chsh, self.oracle`), or M loads N itself.  An attribute
of anything else that happens to be called N (`Basis.I`) reaches nothing.

Every per-layer metric of BENCHMARK.json that counts the calls or the time
of a function must name a public function of its module, which the harness
would otherwise read as 0."""

import ast
import importlib
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for path in (ROOT / "src" / "qlhv").glob("*.py") if path.name != "__init__.py")
# the harness's own tests are tests too, so they reach nothing here
CALLERS = [*MODULES, *(path for path in (ROOT / "bench").glob("*.py") if not path.name.startswith("test_"))]
PACKAGE = "qlhv"

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


def dotted(node):
    """`a.b.c` for a chain of attributes on a plain name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and (base := dotted(node.value)) is not None:
        return f"{base}.{node.attr}"
    return None


def _pairs(node):
    """(target, value) expressions of an assignment, tuples unpacked."""
    for target in node.targets:
        if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple) \
                and len(target.elts) == len(node.value.elts):
            yield from zip(target.elts, node.value.elts)
        else:
            yield target, node.value


def reached_names(paths):
    """Every `module.name` that the given files reach, each file being the
    module named by its stem; see the module docstring for the rule."""
    reached = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        modules, names = {}, {}   # local binding -> module, and -> (module, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    module = alias.name.rsplit(".", 1)[-1]
                    modules[alias.asname or alias.name] = module
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if node.module in (None, PACKAGE):   # `from . import chsh`
                        modules[alias.asname or alias.name] = alias.name
                    else:                               # `from .chsh import sample_model`
                        names[alias.asname or alias.name] = (node.module.rsplit(".", 1)[-1], alias.name)
        assignments = [pair for node in ast.walk(tree) if isinstance(node, ast.Assign)
                       for pair in _pairs(node)]
        changed = True
        while changed:   # `self.chsh = chsh`, then `chsh = self.chsh` elsewhere
            changed = False
            for target, value in assignments:
                bound, source = dotted(target), dotted(value)
                if bound is not None and source in modules and bound not in modules:
                    modules[bound] = modules[source]
                    changed = True
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and dotted(node.value) in modules:
                reached.add(f"{modules[dotted(node.value)]}.{node.attr}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in names:
                    reached.add(".".join(names[node.id]))
                reached.add(f"{path.stem}.{node.id}")
    return reached


def test_every_public_name_is_reached_outside_the_tests():
    reached = reached_names(CALLERS)
    unreached = {f"{path.stem}.{name}" for path in MODULES for name in public_names(path)} - reached
    assert unreached == set()


def test_the_scan_flags_a_name_that_nothing_reaches(tmp_path):
    module, caller = tmp_path / "module.py", tmp_path / "caller.py"
    module.write_text("A, B = 1, 2\nC: int = 3\n_D = 4\n\n\ndef f():\n    return A\n\n\nclass G:\n    pass\n")
    caller.write_text("import module\nfrom module import f, G\nf()\nmodule.C = 5\nother.B\n")
    assert public_names(module) == {"A", "B", "C", "f", "G"}
    reached = reached_names([module, caller])
    assert {f"module.{name}" for name in public_names(module)} - reached == {"module.B", "module.G"}


def test_the_scan_follows_each_binding_of_a_module(tmp_path):
    caller = tmp_path / "caller.py"
    caller.write_text(
        "import qlhv.m1\nimport m2 as two\nfrom qlhv import m3\nfrom . import m4 as four\n"
        "from .m5 import N5 as five\n\n\nclass W:\n    def setup(self):\n"
        "        self.m3, self.four = m3, four\n\n    def run(self):\n"
        "        a, b = self.m3, self.four\n"
        "        return qlhv.m1.N1, two.N2, a.N3, b.N4, five, self.m3.M3\n")
    expected = {"m1.N1", "m2.N2", "m3.N3", "m3.M3", "m4.N4", "m5.N5"}
    assert {name for name in reached_names([caller]) if not name.startswith("caller.")} == expected


def test_every_per_layer_metric_names_a_public_function():
    # bench/run.py reads a function that no longer exists as 0 calls and 0 s
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    functions = {metric["name"].rsplit(".", 1)[0] for metric in declared
                 if metric["name"].rsplit(".", 1)[1] in ("calls", "self_s")}
    assert functions
    for name in sorted(functions):
        module_name, function = name.split(".")
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        value = getattr(module, function, None)
        assert not function.startswith("_") and inspect.isfunction(inspect.unwrap(value)) \
            and value.__module__ == module.__name__, name
