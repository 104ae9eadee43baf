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


def sites(tree, match) -> list[tuple[str | None, ast.AST]]:
    """(enclosing definition, node) of each node in ``tree`` that ``match``
    accepts.  Definitions are named within their enclosing ones, as
    ``Class.method``; module-level code has ``None``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append((scope, child))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(tree, None)
    return found


#: attribute names of the float reductions: ``np.sum``, ``.sum``, ``.mean``,
#: ``.dot``, ``math.fsum``, ``math.prod``, ``np.add.reduce`` and the rest
REDUCTIONS = {"sum", "nansum", "mean", "nanmean", "average", "dot", "vdot", "inner", "matmul",
              "tensordot", "einsum", "prod", "fsum", "reduce", "accumulate", "cumsum"}

#: the reductions allowed outside ``parallel.ordered_sum``, each with the
#: reason its bits cannot move
ORDERED_ELSEWHERE = {
    # presolve's right-hand-side shift: a SciPy CSR product adds each row in index order
    ("milp/solve.py", "_presolve", "@"),
    # the solve check's row activities: the same SciPy CSR product
    ("milp/solve.py", "_check_point", "@"),
    # the size of a row grid: a product of integers
    ("formulation.py", "_rows", "prod"),
}


def reductions(tree) -> list[tuple[str | None, str, int]]:
    """(enclosing function, operator, line) of each float reduction in
    ``tree``: an ``@`` (or ``@=``), or an attribute named in ``REDUCTIONS``."""
    return [(func, "@" if isinstance(node, (ast.BinOp, ast.AugAssign)) else node.attr, node.lineno)
            for func, node in sites(tree, lambda node: (
                isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
                or (isinstance(node, ast.Attribute) and node.attr in REDUCTIONS))]


def test_ordered_sums_have_one_home():
    """Sums whose bits must not move add term by term through
    ``parallel.ordered_sum``.  NumPy's ``sum``, ``mean`` and ``@`` add in
    blocks whose shape follows the operands and the BLAS build, so any float
    reduction elsewhere is a second order of addition, unless
    ``ORDERED_ELSEWHERE`` names it; each site named there must still exist."""
    planted = "def f(a, b):\n    a @ b\n    a.sum(axis=1)\n    np.add.reduce(a)\n    math.fsum(a)\n"
    assert [op for _, op, _ in reductions(ast.parse(planted))] == ["@", "sum", "reduce", "fsum"]
    found = {(path.relative_to(SRC / "gridprep").as_posix(), func, op, line)
             for path in sorted((SRC / "gridprep").rglob("*.py"))
             for func, op, line in reductions(ast.parse(path.read_text()))}
    allowed = ORDERED_ELSEWHERE | {("parallel.py", "ordered_sum", "accumulate")}
    stray = sorted(f"{name}:{line} {op} in {func}" for name, func, op, line in found
                   if (name, func, op) not in allowed)
    assert not stray, "float reductions outside parallel.ordered_sum: " + ", ".join(stray)
    gone = sorted(allowed - {site[:3] for site in found})
    assert not gone, f"reductions allowed at sites that no longer have them: {gone}"


#: the functions whose builtin ``sum`` adds integer counts, which every
#: order of addition adds exactly
INTEGER_SUMS = {
    ("formulation.py", "check_first_stage_config"),
    ("report.py", "build_base_plan"),
}


def test_float_totals_have_one_home():
    """A float total adds term by term through ``parallel.ordered_sum``.
    From CPython 3.12 on, builtin ``sum`` of floats is compensated, so it
    writes other bits than 3.11 does.  ``sum`` stays only where it adds
    integer counts, and each function allowed to do so must still exist."""
    defined, stray = set(), []
    for path in sorted((SRC / "gridprep").rglob("*.py")):
        name = path.relative_to(SRC / "gridprep").as_posix()
        tree = ast.parse(path.read_text())
        defined |= {(name, f"{scope}.{node.name}" if scope else node.name) for scope, node in sites(
            tree, lambda node: isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))}
        stray += [f"{name}:{node.lineno} in {func}" for func, node in sites(
            tree, lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum")
            if (name, func) not in INTEGER_SUMS]
    assert not stray, "builtin sum outside the integer counts: " + ", ".join(stray)
    gone = sorted(INTEGER_SUMS - defined)
    assert not gone, f"integer sums allowed in functions that no longer exist: {gone}"


def thread_constructions(tree) -> list[int]:
    """Lines where ``tree`` calls ``ThreadPoolExecutor`` or ``Thread``, bare or
    as a module attribute (``threading.Thread``)."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("ThreadPoolExecutor", "Thread")]


def test_threads_have_one_home():
    """Threads start only in ``gridprep.parallel``, where the calling thread
    is one of the workers; a pool anywhere else adds a malloc arena and a
    second way to order results."""
    sites = [(path.relative_to(SRC / "gridprep").as_posix(), line)
             for path in sorted((SRC / "gridprep").rglob("*.py"))
             for line in thread_constructions(ast.parse(path.read_text()))]
    assert any(name == "parallel.py" for name, _ in sites)
    stray = [f"{name}:{line}" for name, line in sites if name != "parallel.py"]
    assert not stray, "threads started outside gridprep.parallel: " + ", ".join(stray)


#: what reads the number of cores a process may use
CORE_COUNTS = {"sched_getaffinity", "cpu_count", "_usable_cores"}


def thread_count_settings(tree) -> list[tuple[int, str]]:
    """(line, what) of each place in ``tree`` that reads a core count, and of
    each parameter or class field named ``workers``."""
    found = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in CORE_COUNTS:
            found.append((node.lineno, f"reads {name}"))
        elif isinstance(node, ast.arg) and node.arg == "workers":
            found.append((node.lineno, "takes a workers parameter"))
        elif isinstance(node, ast.ClassDef):
            found += [(field.lineno, f"{node.name} has a workers field") for field in node.body
                      if isinstance(field, ast.AnnAssign)
                      and getattr(field.target, "id", None) == "workers"]
    return found


def test_thread_count_has_one_home():
    """``gridprep.parallel.map_in_order`` alone sizes a pool, from the cores
    the process may use: no other module reads a core count, and no
    function or class takes a worker count.  CPU affinity (``taskset``)
    is the one way to run on fewer threads."""
    planted = ("import os\nfrom os import cpu_count\n@dataclass\nclass C:\n    workers: int = 1\n"
               "def f(x, *, workers=None):\n    return os.sched_getaffinity(0)\n")
    assert sorted(line for line, _ in thread_count_settings(ast.parse(planted))) == [2, 5, 6, 7]
    stray = []
    for path in sorted((SRC / "gridprep").rglob("*.py")):
        name = path.relative_to(SRC / "gridprep").as_posix()
        stray += [f"{name}:{line} {what}" for line, what in thread_count_settings(ast.parse(path.read_text()))
                  if not (name == "parallel.py" and what.startswith("reads"))]
    assert not stray, "thread counts set outside gridprep.parallel: " + ", ".join(stray)


#: the helpers each module once kept to read a document value its own way
SCALAR_READERS = {"_number", "_integer", "_is_int", "_require"}
#: names that hold a raw document, or a part of one, where a module reads it
DOCUMENT_NAMES = ("raw", "entry", "doc")


def test_document_scalars_have_one_home():
    """Every input document reads its numbers, integers, flags and names
    through ``gridprep.document``.  A private reader elsewhere is a second
    set of rules, and ``bool()`` of a document value reads ``"false"`` as
    true."""
    stray = []
    for path in sorted((SRC / "gridprep").rglob("*.py")):
        name = path.relative_to(SRC / "gridprep").as_posix()
        if name == "document.py":
            continue
        tree = ast.parse(path.read_text())
        stray += [f"{name}:{node.lineno} defines {node.name}" for _, node in sites(
            tree, lambda node: isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in SCALAR_READERS)]
        stray += [f"{name}:{node.lineno} calls bool() on a document value" for _, node in sites(
            tree, lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == "bool"
            and any(isinstance(part, ast.Name) and part.id.startswith(DOCUMENT_NAMES)
                    for arg in node.args for part in ast.walk(arg)))]
    assert not stray, "document values read outside gridprep.document: " + ", ".join(stray)


def test_json_is_decoded_only_in_document():
    """Only ``gridprep.document.loads`` turns text into JSON, so every input
    document refuses a repeated key and malformed text the same way."""
    stray = []
    for path in sorted((SRC / "gridprep").rglob("*.py")):
        name = path.relative_to(SRC / "gridprep").as_posix()
        if name == "document.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and getattr(node.value, "id", None) == "json"):
                stray.append(f"{name}:{node.lineno} calls json.{node.attr}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "json"
                    and any(a.name in ("load", "loads") for a in node.names)):
                stray.append(f"{name}:{node.lineno} imports from json")
    assert not stray, "JSON decoded outside gridprep.document: " + ", ".join(stray)


def test_artifacts_are_encoded_only_in_cli():
    """Only ``cli._write`` turns a result into an artifact's bytes, so every
    JSON document has sorted keys and 2-space indent and every CSV float is
    ``float.__repr__``.  ``load_wind_csv`` reads a CSV and is the one
    ``*_csv`` function left."""
    stray = []
    for path in sorted((SRC / "gridprep").rglob("*.py")):
        name = path.relative_to(SRC / "gridprep").as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if (name != "cli.py" and isinstance(node, ast.Attribute)
                    and node.attr in ("dump", "dumps") and getattr(node.value, "id", None) == "json"):
                stray.append(f"{name}:{node.lineno} calls json.{node.attr}")
            elif (name != "cli.py" and isinstance(node, ast.ImportFrom) and node.module == "json"
                    and any(a.name in ("dump", "dumps") for a in node.names)):
                stray.append(f"{name}:{node.lineno} imports from json")
            elif (isinstance(node, ast.FunctionDef) and node.name.endswith("_csv")
                    and node.name != "load_wind_csv"):
                stray.append(f"{name}:{node.lineno} defines {node.name}")
    assert not stray, "artifacts encoded outside cli._write: " + ", ".join(stray)


def test_highs_has_one_entry_module():
    """Only ``gridprep.milp.solve`` imports from ``scipy.optimize``, so every
    HiGHS call passes its presolve, its check and its objective."""
    stray = []
    for path in sorted((SRC / "gridprep").rglob("*.py")):
        name = path.relative_to(SRC / "gridprep").as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            if (name != "milp/solve.py" and isinstance(node, (ast.Import, ast.ImportFrom))
                    and any(f"{prefix}{a.name}".startswith("scipy.optimize") for a in node.names)):
                stray.append(f"{name}:{node.lineno}")
    assert not stray, "scipy.optimize imported outside gridprep.milp.solve: " + ", ".join(stray)
