"""No module of the package reaches into another module's private names:
neither ``from .x import _name`` nor ``x._name`` where ``x`` is a sibling
module."""

import ast
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
