"""Packaging: pure Python, with nothing generated or ignored under version control."""

import ast
import importlib
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_no_compiled_sieve_in_package_or_build():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    build_system = pyproject.split("[build-system]", 1)[1].split("\n[", 1)[0]
    assert "cython" not in build_system.lower()
    pkg = ROOT / "src" / "edgebounds"
    assert [p.name for p in pkg.iterdir() if p.suffix in (".pyx", ".c")] == []
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    ignored = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    assert ignored.stdout == ""


def test_package_imports_no_test_oracles():
    # mpmath and scipy are test-only oracles; the package runs on NumPy alone
    for path in (ROOT / "src" / "edgebounds").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("mpmath", "scipy"), (path.name, name)


def _loaded_names(tree):
    """Every name the module reads, as a bare name or an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _package_trees():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "edgebounds").glob("*.py"))
    }


def _referenced(trees):
    """Every name some module reads, or imports from another by name."""
    out = set().union(*(_loaded_names(tree) for tree in trees.values()))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                out.update(a.name for a in node.names)
    return out


def _assigned_names(node):
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def test_no_unused_imports_or_private_names():
    trees = _package_trees()
    loaded = {name: _loaded_names(tree) for name, tree in trees.items()}
    # a private name counts as referenced when any module reads or imports it
    referenced = _referenced(trees)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            # __init__ imports only to re-export
            if name != "__init__.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    bound = a.asname or a.name.split(".")[0]
                    if bound not in loaded[name]:
                        unused.append((name, "import", bound))
            defined = [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            for d in defined + _assigned_names(node):
                if d.startswith("_") and not d.startswith("__") and d not in referenced:
                    unused.append((name, "private", d))
    assert unused == []


def test_every_constant_is_read():
    # a module-level UPPER_CASE constant that no module reads or imports is dead
    trees = _package_trees()
    referenced = _referenced(trees)
    unread = [
        (name, d)
        for name, tree in trees.items()
        for node in tree.body
        for d in _assigned_names(node)
        if d.isupper() and d not in referenced
    ]
    assert unread == []


def _tracer_literal(name):
    """perfbench/tracer.py's module-level name, read as a literal, never imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    (value,) = [node.value for node in tree.body if name in _assigned_names(node)]
    return ast.literal_eval(value)


def test_traced_functions_and_sites_resolve_to_their_definitions():
    # the tracer patches these by name; a refactor that moves one fails here
    defined = {}
    for span, modname, attr in _tracer_literal("FUNCTIONS"):
        fn = getattr(importlib.import_module(modname), attr)
        assert callable(fn) and fn.__module__ == modname, span
        defined[attr] = fn
    trees = _package_trees()
    for modname, attr in _tracer_literal("REQUIRED_SITES"):
        fn = defined[attr]
        assert getattr(importlib.import_module(modname), attr) is fn, (modname, attr)
        if modname != fn.__module__:
            # an importing site calls the function by the name the tracer patches
            assert attr in _loaded_names(trees[modname.split(".")[1] + ".py"]), (modname, attr)
    lfunc = importlib.import_module("edgebounds.lfunc")
    assert callable(lfunc.LFunctionInstance.coefficient)


def test_export_list_matches_the_package_imports():
    # every name __init__.py imports is exported once, and nothing else is
    import edgebounds

    tree = _package_trees()["__init__.py"]
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(set(edgebounds.__all__)) == len(edgebounds.__all__)
    assert set(edgebounds.__all__) == set(imported) | {"kernel_backend", "__version__"}
