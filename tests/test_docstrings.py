"""Meta-test: every public module, class, function and method is documented.

The pydocstyle checks mirror the ruff ``D`` rules selected in
``pyproject.toml`` for the public API surface (``repro.core``,
``repro.faults``, ``repro.experiments``) so the contract is enforced
even where ruff is not installed.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import repro


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", None) == module.__name__:
                yield name, obj


def _iter_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def test_every_module_has_docstring():
    missing = [m.__name__ for m in _iter_modules() if not (m.__doc__ or "").strip()]
    assert not missing, f"modules without docstrings: {missing}"


def test_every_public_callable_has_docstring():
    missing = []
    for module in _iter_modules():
        for name, obj in _public_members(module):
            if not (obj.__doc__ or "").strip():
                missing.append(f"{module.__name__}.{name}")
            if inspect.isclass(obj):
                for meth_name, meth in vars(obj).items():
                    if meth_name.startswith("_"):
                        continue
                    if inspect.isfunction(meth) and not (meth.__doc__ or "").strip():
                        missing.append(f"{module.__name__}.{name}.{meth_name}")
    assert not missing, f"undocumented public items: {missing}"


def test_package_exports_resolve():
    """Every name in a package __init__'s __all__ must be importable."""
    for module in _iter_modules():
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module.__name__}.{name}"


# ---------------------------------------------------------------------------
# Pydocstyle (ruff D-rule) subset for the public API packages
# ---------------------------------------------------------------------------

SRC_ROOT = Path(repro.__file__).resolve().parent

#: Packages whose docstrings are gated by ruff's D rules in pyproject.toml.
PUBLIC_API_PACKAGES = ("core", "faults", "experiments")


def _public_api_files():
    for pkg in PUBLIC_API_PACKAGES:
        yield from sorted((SRC_ROOT / pkg).rglob("*.py"))


def _walk_defs(tree, qualname):
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{qualname}.{child.name}", child
            yield from _walk_defs(child, f"{qualname}.{child.name}")


def _needs_docstring(name):
    return not name.startswith("_") or name == "__init__"


def test_public_api_files_exist():
    """The gated packages are really there (guards against a silent rename)."""
    files = list(_public_api_files())
    assert len(files) > 10
    for pkg in PUBLIC_API_PACKAGES:
        assert (SRC_ROOT / pkg / "__init__.py").exists(), pkg


def test_public_api_docstrings_present():
    """D100-D107/D419: every public def/class/module carries a docstring."""
    missing = []
    for path in _public_api_files():
        tree = ast.parse(path.read_text())
        rel = path.relative_to(SRC_ROOT.parent)
        if not (ast.get_docstring(tree) or "").strip():
            missing.append(f"{rel}: module")
        for qual, node in _walk_defs(tree, path.stem):
            if _needs_docstring(node.name):
                if not (ast.get_docstring(node) or "").strip():
                    missing.append(f"{rel}: {qual}")
    assert not missing, f"undocumented public API defs: {missing}"


def test_public_api_summary_lines_end_with_period():
    """D400: the first docstring line is a sentence ending in a period."""
    bad = []
    for path in _public_api_files():
        tree = ast.parse(path.read_text())
        rel = path.relative_to(SRC_ROOT.parent)
        nodes = [("module", tree)] + list(_walk_defs(tree, path.stem))
        for qual, node in nodes:
            doc = ast.get_docstring(node)
            if not doc or not doc.strip():
                continue
            first = doc.strip().splitlines()[0].rstrip()
            if not first.endswith("."):
                bad.append(f"{rel}: {qual}: {first[:60]!r}")
    assert not bad, f"summary lines not ending in a period: {bad}"


def test_public_api_docstrings_use_triple_double_quotes():
    """D300: docstrings are written with triple double quotes."""
    bad = []
    for path in _public_api_files():
        source = path.read_text()
        tree = ast.parse(source)
        rel = path.relative_to(SRC_ROOT.parent)
        nodes = [("module", tree)] + list(_walk_defs(tree, path.stem))
        for qual, node in nodes:
            if ast.get_docstring(node) is None:
                continue
            stmt = node.body[0].value
            segment = ast.get_source_segment(source, stmt) or ""
            if not segment.lstrip("rRuU").startswith('"""'):
                bad.append(f"{rel}: {qual}")
    assert not bad, f"docstrings not using triple double quotes: {bad}"
