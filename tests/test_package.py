"""Every public name the package defines has a caller outside the tests, the
entry points read no private name of another module, the modules import each
other along one fixed graph, and start-up loads nothing beyond numpy that the
mathematics does not need."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "g2cone"


def _public_names(tree: ast.Module) -> set:
    """Module-level functions, classes and constants without a leading underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if not n.startswith("_")}


def _used_names(tree: ast.Module) -> set:
    """Every name the code reads: bare names, attributes and imported names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used |= {a.name for a in node.names}
    return used


def test_no_public_name_has_only_test_callers():
    """A public name in src/ is read somewhere in src/, demos/ or benchmarks/
    (or is a console entry point of pyproject.toml); one that only the
    tests read belongs in the tests.  Attributes count by name alone, so
    the check can miss a dead name but never flags a used one."""
    callers = {m.group(1) for m in re.finditer(r'=\s*"g2cone\.\w+:(\w+)"',
                                               (ROOT / "pyproject.toml").read_text())}
    files = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "benchmarks").glob("*.py")]
    defined = {}
    for path in files:
        tree = ast.parse(path.read_text())
        callers |= _used_names(tree)
        if path.parent == PACKAGE:
            defined.update({name: path.name for name in _public_names(tree)})
    assert defined, "no public names found"
    unused = sorted(f"{module}: {name}" for name, module in defined.items() if name not in callers)
    assert not unused, unused


def _g2cone_imports(tree: ast.Module) -> tuple:
    """(local names bound to g2cone modules, underscore names imported from them)."""
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("g2cone")):
            if node.module in (None, "g2cone"):  # from . import m, from g2cone import m
                modules |= {a.asname or a.name for a in node.names}
            private += [a.name for a in node.names if a.name.startswith("_")]
    return modules, private


def test_cli_and_demos_read_no_private_name():
    """cli.py, analysis.py and the demos reach the other modules through public names
    only; a private name they need is promoted (shoot's reads of flow's float kernels and
    of its DP54 integrator _integrate are the documented kernel contract, and shoot alone
    is not scanned)."""
    reads = []
    for path in [PACKAGE / "cli.py", PACKAGE / "analysis.py",
                 *sorted((ROOT / "demos").glob("*.py"))]:
        tree = ast.parse(path.read_text())
        modules, private = _g2cone_imports(tree)
        reads += [f"{path.name}: import {name}" for name in private]
        reads += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")]
    assert not reads, reads


def test_import_graph():
    """The g2cone modules each module imports: exterior, the closure oracle, and the
    flow side (flow, shoot, analysis) import nothing from each other, so the two
    routes stay independent; shoot and analysis reach the package through flow
    alone, and only cli joins the routes."""
    graph = {}
    for path in PACKAGE.glob("*.py"):
        graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module in (None, "g2cone"):  # from . import m, from g2cone import m
                graph[path.stem] |= {a.name for a in node.names}
            elif node.level or node.module.startswith("g2cone."):  # from .m import name
                graph[path.stem].add(node.module.rpartition(".")[2])
    assert graph == {"__init__": set(), "exterior": set(), "flow": set(), "reporting": set(),
                     "shoot": {"flow"}, "analysis": {"flow"},
                     "cli": {"exterior", "flow", "shoot", "analysis", "reporting"}}


def _fresh(code: str) -> list:
    """The JSON that code prints last in a fresh interpreter with this checkout's src/ first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_only_the_package_beyond_numpy():
    """The modules that import g2cone.cli adds to those of import numpy are
    __future__ and g2cone's own: a set, not a clock (dataclasses and
    numpy.polynomial once cost about 8 ms of start-up)."""
    added = _fresh("import json, sys, numpy\nbefore = set(sys.modules)\nimport g2cone.cli\n"
                   "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    assert set(added) == {"__future__", *(m for m in added if m.split(".")[0] == "g2cone")}
    assert {"g2cone.cli", "g2cone.shoot", "g2cone.analysis"} <= set(added)


def test_no_command_loads_dataclasses_or_numpy_polynomial(tmp_path):
    """All five commands in one fresh interpreter leave dataclasses and
    numpy.polynomial unloaded."""
    ran = _fresh(
        "import json, sys\nfrom g2cone import cli\n"
        f"out = {str(tmp_path)!r}\n"
        "codes = [cli.main(argv + ['--out', out]) for argv in (\n"
        "    ['verify-torsion', '--samples', '5'], ['oracle'], ['stationary'],\n"
        "    ['shoot', '--mu', '0.3'], ['sweep', '--mu', '0.3'])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m == 'dataclasses'"
        " or m.startswith('numpy.polynomial'))]))\n")
    assert ran == [[0, 0, 0, 0, 0], []]
