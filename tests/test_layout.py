"""Every function and class in the package has a production caller.

A top-level function or class, or a method of a top-level class, whose
name is never loaded in src/ (as a name, an attribute or an import) is
code that only tests reach; it is deleted and its tests ported to an
oracle in tests/.  The names below are kept on purpose.
"""

import ast
from pathlib import Path

import laddertangle

PACKAGE = Path(laddertangle.__file__).resolve().parent

# name -> why it stays without a caller in src/
REFERENCES = {
    # test oracles, and the per-layer metrics of perfbench/tracer.py name them
    "steady_state_batch": "per-class steady-state solve (conftest.per_class_field_system)",
    "absorption_exact_batch": "per-class absorption average (conftest.per_class_field_system)",
    "coupling_batch": "per-class field coupling (conftest.per_class_field_system)",
    "diffusion_correlator_batch": "per-class noise kernel (conftest.per_class_field_system)",
    "_quadrature_propagation_integral": "propagation oracle (tests/test_numerics.py)",
    # read by the acceptance criteria
    "default_feature_half_width": "feature window of tests/test_acceptance.py",
}


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _defined(trees):
    """(module, name) of every top-level function and class and of every
    non-dunder method of a top-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, kinds):
                yield module, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, kinds[:2])
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        yield module, f"{node.name}.{item.name}"


def _used(trees):
    """Every name loaded as a name or an attribute, or imported, in src/;
    main is the console entry point."""
    used = {"main"}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name for alias in node.names)
    return used


def test_every_definition_has_a_production_caller():
    trees = _trees()
    used = _used(trees) | set(REFERENCES)
    unused = [f"{module}: {name}" for module, name in _defined(trees)
              if name.rpartition(".")[2] not in used]
    assert not unused, "no caller in src/: " + ", ".join(unused)


def test_every_reference_exists():
    defined = {name.rpartition(".")[2] for _, name in _defined(_trees())}
    assert set(REFERENCES) <= defined, sorted(set(REFERENCES) - defined)
