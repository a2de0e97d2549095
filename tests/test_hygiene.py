"""Source hygiene: no module of the package or of the tests imports a name it never
reads, no function of the package assigns a local it never reads, every private
module-level name of the package is read somewhere else in it, the package
never loads numpy (the tests use it as an oracle only), only
``Algebroid.locality_hat`` raises MissingProjector, only ``checks.judge``
writes a "pass" or "fail" status into a CheckResult, no function or pair
keeps an algebroid beside a connection, pair or document that holds it, and
only ``checks.run_all`` and ``checks.run_check`` enter the normal-form memo."""

import ast
import dataclasses
import re
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """(line, name) for each name the module source imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    # The package __init__ imports names only to re-export them.
    sources = [path for path in (ROOT / "src" / "leibniz_geo").glob("*.py") if path.name != "__init__.py"]
    sources += (ROOT / "tests").glob("*.py")
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(sources)
        for line, name in unused_imports(path.read_text())
    ]
    assert not unused, "imported but never read:\n" + "\n".join(unused)


def test_scan_finds_unused_names_only():
    source = "from __future__ import annotations\nimport os.path\nfrom fractions import Fraction as F\n\nos.sep\n"
    assert unused_imports(source) == [(3, "F")]


def unused_locals(source):
    """(line, name) for each plain name that a function body assigns but never reads.

    Tuple-unpacking targets and ``_`` names are skipped; a read anywhere in the
    function, nested functions included, counts.
    """
    unused = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(func) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                unused.update(
                    (node.lineno, target.id)
                    for target in node.targets
                    if isinstance(target, ast.Name) and not target.id.startswith("_") and target.id not in read
                )
    return sorted(unused)


def test_no_unused_locals():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src" / "leibniz_geo").glob("*.py"))
        for line, name in unused_locals(path.read_text())
    ]
    assert not unused, "assigned but never read:\n" + "\n".join(unused)


def test_local_scan_skips_unpacking_and_underscore_names():
    source = (
        "def f(g):\n"
        "    a, b = g()\n"
        "    _ = g()\n"
        "    kept = 1\n"
        "    dead = 2\n"
        "    kept = kept + 1\n"
        "    def inner():\n"
        "        return b\n"
        "    return inner\n"
    )
    assert unused_locals(source) == [(5, "dead")]


def unreferenced_private_names(sources):
    """(module, line, name) for each private module-level function, class or
    constant of the sources that no code outside its own definition reads.

    ``sources`` maps a module name to its source.  A read is a loaded name, an
    attribute (``module._name``) or a name imported from another module;
    dunder names are not private.
    """
    definitions, readers = [], {}
    for module, source in sources.items():
        for index, node in enumerate(ast.parse(source).body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [
                    n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)
                ]
            else:
                bound = []
            definitions += [
                (module, node.lineno, name, index)
                for name in bound
                if name.startswith("_") and not name.startswith("__")
            ]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    read = [sub.id]
                elif isinstance(sub, ast.Attribute):
                    read = [sub.attr]
                elif isinstance(sub, ast.ImportFrom):
                    read = [alias.name for alias in sub.names]
                else:
                    continue
                for name in read:
                    readers.setdefault(name, set()).add((module, index))
    return sorted(
        (module, line, name)
        for module, line, name, index in definitions
        if not readers.get(name, set()) - {(module, index)}
    )


def test_every_private_module_name_is_read():
    package = ROOT / "src" / "leibniz_geo"
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    unread = [
        f"src/leibniz_geo/{module}.py:{line}: {name}"
        for module, line, name in unreferenced_private_names(sources)
    ]
    assert not unread, "private and never read:\n" + "\n".join(unread)


def test_private_name_scan_finds_unread_names_only():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_dead = 2\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Used:\n"
            "    pass\n"
            "def _imported():\n"
            "    pass\n"
            "def _by_attribute():\n"
            "    pass\n"
            "__version__ = '1'\n"
            "def public():\n"
            "    return _LIMIT, _Used()\n"
        ),
        "b": "from a import _imported\nimport a\na._by_attribute()\n",
    }
    assert unreferenced_private_names(sources) == [("a", 2, "_dead"), ("a", 3, "_recursive")]


def test_package_all_is_the_readme_api():
    import leibniz_geo

    readme = (ROOT / "README.md").read_text()
    api = readme[readme.index("## Library quickstart") : readme.index("## Command-line tool")]
    documented = {
        name
        for name in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", api)
        if not name.startswith("_")
        and hasattr(leibniz_geo, name)
        and not isinstance(getattr(leibniz_geo, name), types.ModuleType)
    }
    for name in leibniz_geo.__all__:
        assert hasattr(leibniz_geo, name), name
        assert not isinstance(getattr(leibniz_geo, name), types.ModuleType), name
    assert len(set(leibniz_geo.__all__)) == len(leibniz_geo.__all__)
    assert set(leibniz_geo.__all__) == documented


def bound_names(source):
    """The names the top-level statements of a module source bind."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(n.id for target in node.targets for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_package_init_binds_only_the_public_api():
    import leibniz_geo

    source = (ROOT / "src" / "leibniz_geo" / "__init__.py").read_text()
    assert bound_names(source) == set(leibniz_geo.__all__) | {"__version__", "__all__"}


def test_no_package_module_imports_numpy():
    importing = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "leibniz_geo").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
    ]
    assert not importing, "imports numpy:\n" + "\n".join(importing)


def test_cli_import_leaves_numpy_unloaded():
    # A fresh interpreter: this one has numpy loaded by the oracles.
    probe = "import sys, leibniz_geo.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_only_the_algebroid_raises_missing_projector():
    # Algebroid.locality_hat decides the projector hypothesis for every caller.
    raising = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "leibniz_geo").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and "MissingProjector" in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    ]
    assert [entry.split(":")[0] for entry in raising] == ["algebroid.py"], raising


def judging_functions(source):
    """(line, function) for each CheckResult(...) call whose status argument
    holds a literal "pass" or "fail", named by its innermost enclosing function."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            status = [k.value for k in node.keywords if k.arg == "status"] + node.args[1:2]
            literals = {
                n.value for arg in status for n in ast.walk(arg) if isinstance(n, ast.Constant)
            }
            if callee == "CheckResult" and literals & {"pass", "fail"}:
                found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_only_the_judge_writes_a_pass_or_fail_record():
    # checks.collect hands every (label, value) item to checks.judge, so one
    # rule decides each verdict of the checks and the CLI commands alike.
    judging = {
        (path.name, function): line
        for path in sorted((ROOT / "src" / "leibniz_geo").glob("*.py"))
        for line, function in judging_functions(path.read_text())
    }
    assert set(judging) == {("checks.py", "judge")}, judging


def test_judge_scan_finds_literal_statuses_only():
    source = (
        "def judge(v):\n"
        "    return CheckResult('x', 'pass' if v else 'fail')\n"
        "def gate():\n"
        "    return CheckResult('x', 'not-applicable', note='pass')\n"
        "def outer(status):\n"
        "    def inner():\n"
        "        return checks.CheckResult('x', status=\"fail\")\n"
        "    return CheckResult('x', status)\n"
    )
    assert judging_functions(source) == [(2, "judge"), (7, "inner")]


# A connection holds its algebroid; a pair and a document reach it through theirs.
_HOLDERS = re.compile(r"conn.*|nabla.*|pair|doc")


def algebroid_beside_holder(source):
    """(line, function) for each function with a parameter ``A`` beside one
    named conn*, nabla*, pair or doc, which already holds the algebroid."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = [arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)]
            if "A" in params and any(_HOLDERS.fullmatch(name) for name in params):
                found.append((node.lineno, node.name))
    return found


def test_one_owner_holds_the_algebroid():
    from leibniz_geo import ConjugatePair, HessianStructure

    found = [
        f"{name}:{line}: {function}"
        for name in ("connection.py", "statgeo.py", "hessian.py", "checks.py", "cli.py")
        for line, function in algebroid_beside_holder((ROOT / "src" / "leibniz_geo" / name).read_text())
    ]
    assert not found, "takes A beside an object that holds it:\n" + "\n".join(found)
    for cls in (ConjugatePair, HessianStructure):
        assert "algebroid" not in {f.name for f in dataclasses.fields(cls)}, cls.__name__


def test_algebroid_scan_finds_a_beside_a_holder_only():
    source = (
        "def nonmetricity(A, conn, g): pass\n"
        "def transfer(A, pair, *, kappa): pass\n"
        "def _validate(A, doc, args): pass\n"
        "def residual(g, nabla_star, A=None): pass\n"
        "def levi_civita_solve(A, g): pass\n"
        "def hessian(conn, f): pass\n"
        "def pairs(A, pairing): pass\n"
    )
    assert algebroid_beside_holder(source) == [
        (1, "nonmetricity"), (2, "transfer"), (3, "_validate"), (4, "residual")
    ]


def memo_entries(source):
    """(line, function) for each read of the name ``normal_form_memo`` (a call,
    a reference or an import), named by its innermost enclosing function."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            names = []
        if "normal_form_memo" in names:
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_only_a_check_call_enters_the_normal_form_memo():
    # checks.run_all and checks.run_check memoise for one call; the solves and
    # every other command run on the un-memoised path.
    entries = {
        (path.name, function)
        for path in sorted((ROOT / "src" / "leibniz_geo").glob("*.py"))
        for _, function in memo_entries(path.read_text())
    }
    assert entries == {("checks.py", None), ("checks.py", "run_check"), ("checks.py", "run_all")}, entries


def test_memo_scan_finds_every_kind_of_read():
    source = (
        "from .scalar import normal_form_memo\n"
        "import scalar\n"
        "def run(doc):\n"
        "    with normal_form_memo():\n"
        "        pass\n"
        "def other():\n"
        "    return scalar.normal_form_memo\n"
        "def unrelated(normal_form_memo=None):\n"
        "    return memo()\n"
    )
    assert memo_entries(source) == [(1, None), (4, "run"), (7, "other")]
