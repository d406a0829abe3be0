"""What importing ``repro`` loads.

A package ``__init__`` lists its public names in an export table and
loads none of its submodules: a name loads its module when it is first
looked up.  The datapath imports no control-plane module at module
level.  Each check runs in a fresh interpreter, so nothing another test
imported hides a load.
"""

import ast
import json
import os
import subprocess
import sys

from .test_reach import ROOT, export_table

SRC = ROOT / "src"

#: Packages of the control plane and of paper studies that no benchmark
#: workload runs.
OFF_DATAPATH = {"repro.haas", "repro.faults", "repro.deployment",
                "repro.dnn", "repro.torus"}

#: Checks every package's exports; ``argv[1]`` maps each package to its
#: export table.  Prints the problems found, as JSON.
CHECK_EXPORTS = """
import inspect, json, sys
from importlib import import_module

problems = []
for package, table in json.loads(sys.argv[1]).items():
    pkg = import_module(package)
    public = getattr(pkg, "__all__", [])
    home = {name: module for module, names in table.items()
            for name in names}
    listed = set(dir(pkg))
    problems += [(package, name, "not in dir()")
                 for name in public if name not in listed]
    for name in public:
        if name in home:
            module = f"{package}.{home[name]}"
            expected = getattr(import_module(module), name)
        else:
            module, expected = package, vars(pkg)[name]
        value = getattr(pkg, name)
        if value is not expected:
            problems.append((package, name, f"is not {module}.{name}"))
        elif (inspect.isclass(value) or inspect.isfunction(value)) \\
                and value.__module__ != module:
            problems.append((package, name, f"defined in {value.__module__}"))
        elif vars(pkg).get(name) is not value:
            problems.append((package, name, "not cached"))
    try:
        getattr(pkg, "no_such_name")
    except AttributeError:
        pass
    else:
        problems.append((package, "no_such_name", "resolved"))
    star = {}
    exec(f"from {package} import *", star)
    if public and set(star) - {"__builtins__"} != set(public):
        problems.append((package, "*", "binds other names than __all__"))
print(json.dumps(problems))
"""


def fresh(code, *args):
    """Standard output of ``code`` run in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=ROOT, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(code):
    """The ``repro`` modules a fresh interpreter has loaded after
    running ``code``."""
    return set(json.loads(fresh(
        code + "\nimport json, sys\nprint(json.dumps(sorted("
        "m for m in sys.modules if m.split('.')[0] == 'repro')))")))


def test_sim_loads_no_other_subpackage():
    loaded = loaded_after("import repro.sim")
    assert {name.split(".")[1] for name in loaded if "." in name} == \
        {"sim"}


def test_benchmark_imports_load_no_control_plane():
    source = (ROOT / "perfbench" / "workloads.py").read_text()
    lines = [ast.get_source_segment(source, node)
             for node in ast.parse(source).body
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    loaded = loaded_after("\n".join(lines))
    assert {"repro.core.cloud", "repro.ranking.service"} <= loaded
    assert sorted(name for name in loaded
                  if ".".join(name.split(".")[:2]) in OFF_DATAPATH
                  or name == "repro.experiments.table") == []


def test_every_export_resolves_to_its_module():
    tables = {
        ".".join(init.parent.relative_to(SRC).parts):
            export_table(ast.parse(init.read_text()))
        for init in sorted((SRC / "repro").rglob("__init__.py"))}
    assert sum(map(bool, tables.values())) == 16
    assert json.loads(fresh(CHECK_EXPORTS, json.dumps(tables))) == []
