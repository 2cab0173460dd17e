"""Import hygiene of the package.

No module reaches into another module's private names: neither
``from .x import _name`` nor ``x._name`` where ``x`` is a sibling module.
scipy is never imported with the package: only ``oracle.discrete_ot`` loads
it, on its first call, and no command imports a numpy or scipy module inside
``cli.main``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import minmaxot

PACKAGE = Path(minmaxot.__file__).parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _sibling(module: str | None, level: int, here: str) -> str | None:
    """The package module an import refers to, if any."""
    if level == 1 and module:
        name = module.split(".")[0]
    elif level == 0 and module and module.startswith("minmaxot."):
        name = module.split(".")[1]
    else:
        return None
    return name if name in MODULES and name != here else None


def private_imports(source: str, here: str) -> list[str]:
    """Private names of sibling modules that ``source`` (the module ``here``)
    imports or reads as attributes."""
    tree = ast.parse(source)
    aliases: dict[str, str] = {}  # local name -> sibling module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = _sibling(node.module, node.level, here)
            if target:
                found += [f"{target}.{a.name}" for a in node.names if _private(a.name)]
            package = (node.level == 1 and not node.module) or node.module == "minmaxot"
            for a in node.names if package else ():
                if a.name in MODULES and a.name != here:
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                target = _sibling(a.name, 0, here)
                if target and a.asname:
                    aliases[a.asname] = target
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in aliases:
            found.append(f"{aliases[value.id]}.{node.attr}")
        elif (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "minmaxot"
            and value.attr in MODULES
            and value.attr != here
        ):
            found.append(f"{value.attr}.{node.attr}")
    return found


def test_scan_sees_each_form():
    src = (
        "from .flow import run, _hidden\n"
        "from minmaxot.density import _table\n"
        "from . import model as mdl\n"
        "import minmaxot.oracle as orc\n"
        "import minmaxot.cli\n"
        "x = mdl._as_points(1) + orc._cost + minmaxot.cli._fmt\n"
        "y = obj._private + mdl.Box + _own\n"
    )
    assert sorted(private_imports(src, "response")) == [
        "cli._fmt", "density._table", "flow._hidden", "model._as_points", "oracle._cost",
    ]
    assert private_imports("from ._self import x\nfrom .flow import __all__\n", "flow") == []


def test_no_module_imports_another_modules_private_names():
    offenders = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := private_imports(path.read_text(encoding="utf-8"), path.stem))
    }
    assert offenders == {}


def _is_scipy(module: str | None) -> bool:
    return bool(module) and module.split(".")[0] == "scipy"


def import_time_scipy(source: str) -> list[str]:
    """scipy modules that ``source`` imports when it is itself imported: every
    import statement outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(a.name for a in child.names if _is_scipy(a.name))
            elif isinstance(child, ast.ImportFrom) and child.level == 0 and _is_scipy(child.module):
                found.append(child.module)
            visit(child)

    visit(ast.parse(source))
    return found


def test_scipy_scan_sees_each_form():
    src = (
        "import scipy\n"
        "import numpy as np, scipy.special as sp\n"
        "from scipy.optimize import linear_sum_assignment\n"
        "try:\n"
        "    from scipy import linalg\n"
        "except ImportError:\n"
        "    pass\n"
        "class K:\n"
        "    import scipy.stats\n"
        "def f():\n"
        "    from scipy.optimize import linprog\n"
        "    import scipy.sparse\n"
        "from .scipy import x\n"
        "import scipyish\n"
    )
    assert import_time_scipy(src) == [
        "scipy", "scipy.special", "scipy.optimize", "scipy", "scipy.stats",
    ]


def test_no_module_imports_scipy_at_import_time():
    offenders = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := import_time_scipy(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


# Runs in a fresh interpreter: imports the CLI, then runs one tiny command of
# each kind and reports the numpy and scipy modules each one imported.
RUNTIME_PROBE = """
import json, sys
out = sys.argv[1]
import minmaxot.cli as cli

def ours(names):
    return sorted(n for n in names if n.split(".")[0] in ("numpy", "scipy"))

report = {"at_import": sorted(n for n in sys.modules if n.split(".")[0] == "scipy")}
commands = {
    "run": ["run", "--particles", "200", "--steps", "2", "--snapshot-steps", "0,1"],
    "compare-methods": ["compare-methods", "--scenario", "ring_to_mixture",
                        "--particles", "200", "--steps", "2"],
    "validate-response": ["validate-response", "--scenario", "gaussian_pair",
                          "--quad-nodes", "12", "--ode-horizon", "0.5"],
}
report["rc"], report["imported"] = {}, {}
for name, argv in commands.items():
    before = set(sys.modules)
    report["rc"][name] = cli.main(argv + ["--out", f"{out}/{name}"])
    report["imported"][name] = ours(set(sys.modules) - before)

import numpy as np
from minmaxot import discrete_ot, quadratic_cost
report["optimize_before"] = "scipy.optimize" in sys.modules
pts = np.arange(6.0).reshape(3, 2)
report["ot_cost"] = discrete_ot(pts, pts + [1.0, 0.0], quadratic_cost()).cost
report["optimize_after"] = "scipy.optimize" in sys.modules
print(json.dumps(report))
"""


def test_commands_import_no_numpy_or_scipy_module_at_run_time(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", RUNTIME_PROBE, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["at_import"] == []
    assert report["rc"] == {"run": 0, "compare-methods": 0, "validate-response": 0}
    assert report["imported"] == {"run": [], "compare-methods": [], "validate-response": []}
    assert not report["optimize_before"] and report["optimize_after"]
    # a translation is optimal for the quadratic cost
    assert report["ot_cost"] == 1.0
