"""Packaging: pure Python, with nothing generated or ignored under version control."""

import ast
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
