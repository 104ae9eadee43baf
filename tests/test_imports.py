import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats alone adds about 20 MB and half a second to every run
    probe = "import gridprep.cli, sys; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=SRC)
    assert out.stdout.strip() == "False"


def names_used(path: Path) -> tuple[set[str], set[str]]:
    """(identifiers, members) the file refers to.  Members are the names it
    reads as attributes or spells as strings; identifiers add its bare names
    and imports.  A package ``__init__`` re-exporting a name is no use."""
    reexports = path.name == "__init__.py"
    names, members = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif not reexports and isinstance(node, ast.alias):
            names.add(node.name)
        elif not reexports and isinstance(node, ast.Constant) and isinstance(node.value, str):
            members.add(node.value)  # perfbench/spans.py looks functions up by name
    return names | members, members


def public_definitions(body, prefix=""):
    """(name, node) of each public function and class in ``body``, and of
    each public method and property of those classes, as ``Class.method``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from public_definitions(node.body, f"{prefix}{node.name}.")


def test_every_public_definition_is_used():
    """Each public function or class in the package, and each public method
    or property of its classes, is named somewhere in the package, the
    scripts or the benchmark; tests do not count.  A method or property
    counts as named only as an attribute or a string: a local variable of
    the same name is no use of it."""
    used, members = set(), set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            file_used, file_members = names_used(path)
            used |= file_used
            members |= file_members
    unused = [
        f"{path.relative_to(SRC)}:{qualname}"
        for path in sorted((SRC / "gridprep").rglob("*.py"))
        for qualname, node in public_definitions(ast.parse(path.read_text()).body)
        if node.name not in (members if "." in qualname else used)
    ]
    assert not unused, "named by no command, script or benchmark: " + ", ".join(unused)
