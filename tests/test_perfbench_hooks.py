"""Every name the benchmark's per-layer timers wrap still resolves.

``perfbench/layers.py`` installs its timers with ``patch(target, attr, ...)``
calls, ``target`` being ``"module"`` or ``"module:Class"``.  A library name
that is renamed or deleted would otherwise only surface when the traced
benchmark runs.  These tests read the calls from the source (the benchmark
itself is not imported) and resolve each against the library the way the
tracer does.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _hooks() -> list[tuple[str, str]]:
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    return [
        (ast.literal_eval(node.args[0]), ast.literal_eval(node.args[1]))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "patch"
    ]


HOOKS = _hooks()


def test_hooks_are_read():
    assert ("repro.core.spef", "all_shortest_path_dags") in HOOKS
    assert ("repro.solvers.assignment", "shortest_path_dag") in HOOKS
    assert ("repro.routing.sparse", "shortest_path_dag") in HOOKS


@pytest.mark.parametrize(("target", "attr"), HOOKS, ids=[f"{t}.{a}" for t, a in HOOKS])
def test_hook_target_resolves(target: str, attr: str):
    module_name, _, class_name = target.partition(":")
    owner: object = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
        # The tracer reads class attributes from the class's own namespace.
        assert attr in vars(owner)
    assert callable(getattr(owner, attr))
