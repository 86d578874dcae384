"""Every exported name resolves to an object that its module defines.

The benchmark's tracer runs ``getattr`` on each ``__all__`` name, so a stale
entry left behind by a deletion would fail every traced round.
"""

import ast
import importlib
import inspect

import pytest

import qcausal

MODULES = ("qmath", "correlation", "geometry", "samplers", "bounds", "basis_change", "cli")


def defined_names(module) -> set[str]:
    """Names bound at the top level of ``module``'s source by def, class or assignment."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined_in_their_module(name):
    module = importlib.import_module(f"qcausal.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = set(module.__all__) - defined_names(module)
    assert not missing, f"qcausal.{name}.__all__ names what it does not define: {missing}"
    for attr in module.__all__:
        getattr(module, attr)


def test_package_reexports_come_from_their_modules():
    reexports = [
        (node.module, alias.name)
        for node in ast.parse(inspect.getsource(qcausal)).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(reexports) > 40
    for module_name, attr in reexports:
        module = importlib.import_module(f"qcausal.{module_name}")
        assert attr in defined_names(module), f"qcausal.{module_name} does not define {attr!r}"
        assert getattr(qcausal, attr) is getattr(module, attr)
