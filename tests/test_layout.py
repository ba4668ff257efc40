"""Every function and class in the package has a production caller.

A top-level function or class, or a method of a top-level class, whose
name is never loaded in src/ (as a name, an attribute or an import) is
code that only tests reach; it is deleted and its tests ported to an
oracle in tests/.  The names below are kept on purpose.
"""

import ast
import importlib.metadata
import json
import os
import subprocess
import sys
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


# Imports the package, as the console script does, and runs a small sweep;
# prints what it found of scipy and of numpy's OpenBLAS.
_FRESH_RUN = """
import json, sys
import laddertangle, laddertangle.cli
from laddertangle import cli, fluctuations
imported = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
controls = len(fluctuations._blas_thread_controls())
code = cli.main(["run", "--scenario", "fig2-g", "--out", sys.argv[1], "--jobs", "1",
                 "--delta1-min", "-20", "--delta1-max", "20", "--delta1-points", "3"])
after = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(json.dumps({"imported": imported, "controls": controls, "code": code, "after": after}))
"""


def test_package_runs_without_importing_scipy(tmp_path):
    # scipy is a test dependency only: a fresh interpreter imports the
    # package and runs a sweep without loading it, still pins numpy's own
    # OpenBLAS, and the manifest still records scipy's installed version
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", _FRESH_RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    found = json.loads(done.stdout.splitlines()[-1])
    assert found["code"] == 0
    assert found["imported"] == [] and found["after"] == []
    assert found["controls"] >= 1
    manifest = json.loads((tmp_path / "fig2-g.manifest.json").read_text(encoding="utf-8"))
    assert manifest["environment"]["scipy"] == importlib.metadata.version("scipy")


def test_no_module_imports_scipy():
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(name.partition(".")[0] == "scipy" for name in names), module
