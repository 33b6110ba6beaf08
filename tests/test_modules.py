"""Checks on the package source: every module-level import of
src/linmono is used, every function, method and class it defines is
referenced, every name in linmono.__all__ is bound, and start-up imports
neither dataclasses nor, outside --json-schema, importlib.resources."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import linmono

SRC = Path(linmono.__file__).parent
REPO = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """Names bound by a module-level import (from __future__ aside) that
    the module never reads, names listed in its __all__ counting as
    read; sorted."""
    tree = ast.parse(source)
    bound = set()
    used = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    used.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
    return sorted(bound - used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import sys as system\n"
              "from math import gcd, lcm\n"
              "from . import poly as poly_mod\n"
              "__all__ = ['lcm']\n"
              "def f():\n"
              "    import json\n"
              "    return poly_mod.Poly, gcd\n")
    assert unused_imports(source) == ["os", "system"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(source):
    """Names of the functions, methods and classes a module defines,
    nested ones included and dunders aside."""
    return {n.name for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
            and not (n.name.startswith("__") and n.name.endswith("__"))}


def referenced_names(source):
    """Every name a module reads, every attribute it names and every
    name it imports."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
    return out


def test_dead_definitions_are_found():
    source = ("class Used:\n"
              "    def method(self):\n"
              "        def inner():\n"
              "            pass\n"
              "        return self.other\n"
              "    def other(self):\n"
              "        pass\n"
              "    def __repr__(self):\n"
              "        pass\n"
              "def dead():\n"
              "    dead = 1\n"
              "    return Used\n")
    assert (defined_names(source) - referenced_names(source)
            == {"method", "inner", "dead"})


def test_every_definition_is_referenced():
    """A function, method or class of src/linmono that nothing reads is
    dead code: it needs a reference as a name, attribute or import in
    src/ or tests/, or as a word in perfbench/, whose tracer looks
    functions up by their names as strings."""
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        for name in defined_names(path.read_text(encoding="utf-8")):
            defined.setdefault(name, []).append(path.name)
    seen = set()
    for path in [*SRC.rglob("*.py"), *(REPO / "tests").rglob("*.py")]:
        seen |= referenced_names(path.read_text(encoding="utf-8"))
    for path in (REPO / "perfbench").rglob("*.py"):
        seen.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    assert {name: where for name, where in sorted(defined.items())
            if name not in seen} == {}


def test_every_exported_name_is_bound():
    assert len(set(linmono.__all__)) == len(linmono.__all__)
    assert [name for name in linmono.__all__
            if not hasattr(linmono, name)] == []


# Run in a fresh `python -S`: the modules an import of linmono.cli loads,
# then those a census run loads, on one line; then --json-schema's output.
STARTUP = """import io, sys
sys.path.insert(0, sys.argv[1])
heavy = ("dataclasses", "inspect", "importlib.resources")
import linmono.cli as cli
after_import = [m for m in heavy if m in sys.modules]
out, err = sys.stdout, sys.stderr
sys.stdout = sys.stderr = io.StringIO()
code = cli.main(["census", "--q", "3", "--n", "2"])
sys.stdout, sys.stderr = out, err
print(after_import, code, [m for m in heavy if m in sys.modules])
sys.exit(cli.main(["--json-schema"]))
"""


def test_startup_leaves_out_dataclasses_and_resources():
    """linmono.cli and a census import neither dataclasses (with inspect
    and ast behind it) nor importlib.resources (with pathlib, zipfile and
    tempfile); --json-schema imports the latter on demand and still
    prints the packaged schema byte for byte."""
    proc = subprocess.run([sys.executable, "-S", "-c", STARTUP,
                           str(SRC.parent)],
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    header, schema = proc.stdout.split(b"\n", 1)
    assert header == b"[] 0 []"
    assert schema == (SRC / "report_schema.json").read_bytes()
