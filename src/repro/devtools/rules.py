"""The ``repro check`` rule set: the repo's invariants as AST checks.

Each rule encodes one invariant the test suite already relies on at
runtime — byte-stable exports, deterministic sweeps, locked session
state — so violations are caught at lint time, before they can ship:

========  ==============================================================
REP001    ``json.dumps``/``json.dump`` without ``sort_keys=True``
          (exported views must be byte-stable).
REP002    unseeded ``random`` use — global-RNG calls, ``random.Random()``
          or ``np.random.default_rng()`` without a seed (sweeps must be
          replayable bit-for-bit).
REP003    wall-clock reads (``time.time``, ``datetime.now``,
          ``datetime.today``) outside ``obs/`` (results must not depend
          on when they were produced).
REP004    ``sum()``/``min()``/``max()``, ``for`` loops and comprehensions
          over a ``set`` expression, and — in the metric/export layer —
          accumulation over ``dict.values()`` (iteration and float
          accumulation order must be pinned).
REP005    session-state attribute writes in the serve daemon outside an
          ``async with <lock>`` scope (session state is only touched
          under per-session locks or in executor-dispatched sync code).
REP006    bare ``except:`` and ``except Exception: pass`` (daemon and
          worker loops must not swallow errors invisibly).
REP007    ``__all__`` drift — exported names that are undefined, or
          public defs missing from a curated ``__all__``.
========  ==============================================================

Every rule is one :class:`ast.NodeVisitor`; a rule never imports the
modules it checks, so the pass is side-effect free and dependency-light.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import ClassVar

from .diagnostics import Diagnostic

#: Path parts that mark test code (rules about production invariants do
#: not apply to tests, which are free to use wall clocks and ad-hoc JSON).
_TEST_PARTS = frozenset({"tests"})

#: numpy Generator constructors that take (and therefore can pin) a seed.
_SEEDED_NUMPY = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
)

#: Wall-clock attribute reads: ``base.attr`` pairs that return "now".
_WALL_CLOCK_TIME_ATTRS = frozenset({"time", "time_ns"})
_WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "today", "utcnow"})


def is_test_path(path: PurePath) -> bool:
    """True for files under ``tests/`` or named ``test_*.py``/``conftest.py``."""
    if _TEST_PARTS.intersection(path.parts):
        return True
    return path.name.startswith(("test_", "conftest"))


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` as a string for Name/Attribute chains, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_set_expression(node: ast.expr) -> bool:
    """True for expressions that evaluate to a set (iteration order varies)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # Set algebra (``a | b``, ``a & b``, ``a - b``) over set operands.
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


def _values_call_attr(node: ast.expr) -> str | None:
    """``"values"``/``"keys"`` for ``<expr>.values()``-style calls, else ``None``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("values", "keys")
        and not node.args
        and not node.keywords
    ):
        return node.func.attr
    return None


class Rule(ast.NodeVisitor):
    """One lint rule: a reusable visitor producing :class:`Diagnostic` rows.

    Subclasses set :attr:`id`/:attr:`title`/:attr:`rationale` and override
    visitor methods; :meth:`check` drives one file through the visitor.
    """

    id: ClassVar[str] = "REP000"
    title: ClassVar[str] = ""
    rationale: ClassVar[str] = ""

    def __init__(self) -> None:
        self._path = ""
        self._diagnostics: list[Diagnostic] = []

    def applies_to(self, path: PurePath) -> bool:
        """Whether the rule runs on ``path`` at all (default: non-test code)."""
        return not is_test_path(path)

    def check(self, tree: ast.Module, path: PurePath) -> list[Diagnostic]:
        """Run the rule over one parsed module."""
        self._path = str(path)
        self._diagnostics = []
        self._begin(tree, path)
        self.visit(tree)
        return self._diagnostics

    def _begin(self, tree: ast.Module, path: PurePath) -> None:
        """Per-file setup hook (import tracking, scope state)."""

    def report(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self._diagnostics.append(
            Diagnostic(path=self._path, line=line, col=col, rule=self.id, message=message)
        )


class JsonSortKeysRule(Rule):
    """REP001 — every JSON serialisation must pin its key order."""

    id = "REP001"
    title = "json.dumps/json.dump without sort_keys=True"
    rationale = (
        "exported views (BENCH_*.json, trace.jsonl, state dumps) are "
        "byte-stable only when key order is pinned"
    )

    def _begin(self, tree: ast.Module, path: PurePath) -> None:
        self._json_aliases = {"json"}
        self._bare_names: set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "json":
                self._json_aliases.add(alias.asname or "json")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "json":
            for alias in node.names:
                if alias.name in ("dump", "dumps"):
                    self._bare_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        is_dump = (
            isinstance(func, ast.Attribute)
            and func.attr in ("dump", "dumps")
            and isinstance(func.value, ast.Name)
            and func.value.id in self._json_aliases
        ) or (isinstance(func, ast.Name) and func.id in self._bare_names)
        if is_dump and not self._sorts_keys(node):
            self.report(node, "json serialisation without sort_keys=True is not byte-stable")
        self.generic_visit(node)

    @staticmethod
    def _sorts_keys(node: ast.Call) -> bool:
        for keyword in node.keywords:
            if keyword.arg is None:
                # A **kwargs splat may carry sort_keys; give it the benefit
                # of the doubt (the call site cannot be judged statically).
                return True
            if keyword.arg == "sort_keys":
                value = keyword.value
                if isinstance(value, ast.Constant):
                    return bool(value.value)
                return True  # dynamic value: assume the caller pins it
        return False


class SeededRandomRule(Rule):
    """REP002 — randomness must flow through an explicitly seeded generator."""

    id = "REP002"
    title = "unseeded random use (global RNG or seedless constructor)"
    rationale = (
        "sweeps and generators must replay bit-for-bit; only "
        "random.Random(seed) / np.random.default_rng(seed) are allowed"
    )

    def _begin(self, tree: ast.Module, path: PurePath) -> None:
        self._random_aliases: set[str] = set()
        self._numpy_aliases: set[str] = set()
        self._from_random: set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random":
                self._random_aliases.add(alias.asname or "random")
            elif alias.name == "numpy":
                self._numpy_aliases.add(alias.asname or "numpy")
            elif alias.name == "numpy.random" and alias.asname:
                self._numpy_aliases.add(alias.asname + "!module")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                self._from_random.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._check_call(node)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        seeded = bool(node.args or node.keywords)
        # from random import choice / Random
        if isinstance(func, ast.Name) and func.id in self._from_random:
            if func.id in ("Random", "SystemRandom") and seeded:
                return
            self.report(node, f"unseeded stdlib random call {func.id!r}")
            return
        if not isinstance(func, ast.Attribute):
            return
        dotted = _dotted_name(func)
        if dotted is None:
            return
        parts = dotted.split(".")
        # random.<anything>: the module-global RNG (or a seedless Random()).
        if parts[0] in self._random_aliases and len(parts) == 2:
            if parts[1] in ("Random", "SystemRandom") and seeded:
                return
            self.report(node, f"unseeded stdlib random call {dotted!r}")
            return
        # numpy legacy global RNG (np.random.rand & co.) and seedless
        # default_rng() / Generator constructions.
        is_np_random = (
            len(parts) >= 2 and parts[0] in self._numpy_aliases and parts[-2] == "random"
        ) or (len(parts) == 2 and (parts[0] + "!module") in self._numpy_aliases)
        if is_np_random:
            terminal = parts[-1]
            if terminal in _SEEDED_NUMPY:
                if not seeded:
                    self.report(node, f"{dotted}() without a seed is not reproducible")
                return
            self.report(node, f"legacy numpy global RNG call {dotted!r}")


class WallClockRule(Rule):
    """REP003 — results must not read the wall clock."""

    id = "REP003"
    title = "wall-clock read (time.time, datetime.now, datetime.today)"
    rationale = (
        "recorded results must be independent of when they were produced; "
        "monotonic timing uses time.perf_counter, timestamps live in obs/ "
        "or carry an explicit allow"
    )

    def applies_to(self, path: PurePath) -> bool:
        if is_test_path(path):
            return False
        # The observability layer is the one place wall-clock timestamps
        # belong (trace metadata); everywhere else needs an explicit allow.
        return "obs" not in path.parts

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            terminal = parts[-1]
            base = parts[-2] if len(parts) >= 2 else ""
            if terminal in _WALL_CLOCK_TIME_ATTRS and base == "time":
                self.report(node, f"wall-clock read {dotted}()")
            elif terminal in _WALL_CLOCK_DATETIME_ATTRS and base in ("datetime", "date"):
                self.report(node, f"wall-clock read {dotted}()")
        self.generic_visit(node)


class OrderedAccumulationRule(Rule):
    """REP004 — float accumulation must run in a pinned order."""

    id = "REP004"
    title = "accumulation over an unordered (or unpinned-order) iterable"
    rationale = (
        "iterating a set (a loop, a comprehension, sum()) depends on hash "
        "order; in the metric/export layer even dict.values() order must "
        "be made explicit (sort first)"
    )

    #: Path parts marking the metric/export layer, where the stricter
    #: dict-order checks apply on top of the set checks.
    METRIC_EXPORT_PARTS: ClassVar[frozenset[str]] = frozenset({"metrics", "results"})

    def _begin(self, tree: ast.Module, path: PurePath) -> None:
        self._strict = bool(self.METRIC_EXPORT_PARTS.intersection(path.parts))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("sum", "min", "max") and node.args:
            arg = node.args[0]
            target = arg
            if isinstance(arg, ast.GeneratorExp) and arg.generators:
                target = arg.generators[0].iter
            values_attr = _values_call_attr(target)
            # A generator over a set is reported as a comprehension below.
            if _is_set_expression(arg):
                self.report(
                    node,
                    f"{func.id}() over a set: iteration order (and float "
                    "accumulation) is not pinned",
                )
            elif self._strict and values_attr is not None:
                self.report(
                    node,
                    f"{func.id}() over dict.{values_attr}() in the "
                    "metric/export layer: sort the items first to pin "
                    "accumulation order",
                )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expression(node.iter):
            self.report(node, "for loop over a set: iteration order is not pinned")
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        if _is_set_expression(node.iter):
            self.report(node.iter, "comprehension over a set: iteration order is not pinned")
        self.generic_visit(node)


class SessionLockRule(Rule):
    """REP005 — daemon coroutines only touch session state under a lock."""

    id = "REP005"
    title = "session-state write outside an `async with <lock>` scope"
    rationale = (
        "the serve daemon's event loop must never mutate session state "
        "directly; state work runs in the executor behind a per-session lock"
    )

    def applies_to(self, path: PurePath) -> bool:
        # The invariant is specific to the serve daemon module.
        return path.name == "daemon.py" and not is_test_path(path)

    def _begin(self, tree: ast.Module, path: PurePath) -> None:
        self._async_depth = 0
        self._lock_depth = 0

    # -- scope tracking -------------------------------------------------
    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._async_depth += 1
        self.generic_visit(node)
        self._async_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Sync functions are executor-dispatched (or thread-side) scope.
        async_depth, self._async_depth = self._async_depth, 0
        self.generic_visit(node)
        self._async_depth = async_depth

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        holds_lock = any(self._mentions_lock(item.context_expr) for item in node.items)
        if holds_lock:
            self._lock_depth += 1
        self.generic_visit(node)
        if holds_lock:
            self._lock_depth -= 1

    @staticmethod
    def _mentions_lock(node: ast.expr) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and "lock" in child.id.lower():
                return True
            if isinstance(child, ast.Attribute) and "lock" in child.attr.lower():
                return True
        return False

    # -- the write checks ----------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(node, target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node, node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node, node.target)
        self.generic_visit(node)

    def _check_target(self, node: ast.AST, target: ast.expr) -> None:
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        if self._async_depth == 0 or self._lock_depth > 0:
            return
        if self._is_session_object(target.value):
            self.report(
                node,
                "session state written on the event loop outside an "
                "`async with <lock>` scope",
            )

    @classmethod
    def _is_session_object(cls, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return "session" in node.id.lower() or node.id.lower() == "sess"
        if isinstance(node, ast.Attribute):
            return "session" in node.attr.lower()
        if isinstance(node, ast.Subscript):
            return cls._is_session_object(node.value)
        if isinstance(node, ast.Call):
            # e.g. self._session_for(key).attr = ...
            return cls._is_session_object(node.func)
        return False


class ExceptionDisciplineRule(Rule):
    """REP006 — no invisible error swallowing in long-running code."""

    id = "REP006"
    title = "bare `except:` or `except Exception: pass`"
    rationale = (
        "daemon and worker loops that swallow everything hide real "
        "failures; catch specific exceptions or at least record the error"
    )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(node, "bare `except:` catches SystemExit/KeyboardInterrupt too")
        elif self._catches_everything(node.type) and self._is_silent(node.body):
            self.report(
                node,
                "`except Exception: pass` swallows every failure invisibly",
            )
        self.generic_visit(node)

    @staticmethod
    def _catches_everything(node: ast.expr) -> bool:
        names = []
        if isinstance(node, ast.Tuple):
            names = [_dotted_name(elt) for elt in node.elts]
        else:
            names = [_dotted_name(node)]
        return any(name in ("Exception", "BaseException") for name in names)

    @staticmethod
    def _is_silent(body: list[ast.stmt]) -> bool:
        for statement in body:
            if isinstance(statement, ast.Pass):
                continue
            if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
                continue  # a docstring/Ellipsis is as silent as pass
            return False
        return True


class AllExportsRule(Rule):
    """REP007 — a curated ``__all__`` must match the module it curates."""

    id = "REP007"
    title = "__all__ drift (undefined export or unexported public def)"
    rationale = (
        "a curated __all__ is the module's public contract: every listed "
        "name must exist, every public def/class must be listed (or made "
        "private)"
    )

    def check(self, tree: ast.Module, path: PurePath) -> list[Diagnostic]:
        self._path = str(path)
        self._diagnostics = []
        exported = self._exported_names(tree)
        if exported is None:
            return []  # no curated __all__: nothing to drift from
        names, elements = exported
        bound = self._bound_names(tree)
        for name, element in zip(names, elements, strict=True):
            if name not in bound:
                self.report(element, f"__all__ exports undefined name {name!r}")
        listed = set(names)
        for statement in self._top_level_statements(tree):
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                public = not statement.name.startswith("_")
                if public and statement.name not in listed:
                    self.report(
                        statement,
                        f"public {statement.name!r} is missing from __all__ "
                        "(export it or rename it _private)",
                    )
        return self._diagnostics

    @staticmethod
    def _top_level_statements(tree: ast.Module) -> list[ast.stmt]:
        """Module-level statements, looking through `if`/`try` guards."""
        statements: list[ast.stmt] = []
        queue = list(tree.body)
        while queue:
            statement = queue.pop(0)
            statements.append(statement)
            if isinstance(statement, ast.If):
                queue.extend(statement.body)
                queue.extend(statement.orelse)
            elif isinstance(statement, ast.Try):
                queue.extend(statement.body)
                queue.extend(statement.orelse)
                queue.extend(statement.finalbody)
                for handler in statement.handlers:
                    queue.extend(handler.body)
        return statements

    def _exported_names(
        self, tree: ast.Module
    ) -> tuple[list[str], list[ast.expr]] | None:
        for statement in self._top_level_statements(tree):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target, value = statement.targets[0], statement.value
            elif isinstance(statement, ast.AnnAssign):
                target, value = statement.target, statement.value
            if (
                isinstance(target, ast.Name)
                and target.id == "__all__"
                and isinstance(value, (ast.List, ast.Tuple))
            ):
                names: list[str] = []
                elements: list[ast.expr] = []
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(element.value, str):
                        names.append(element.value)
                        elements.append(element)
                return names, elements
        return None

    def _bound_names(self, tree: ast.Module) -> set[str]:
        bound: set[str] = {"__version__", "__all__", "__doc__", "__name__"}
        for statement in self._top_level_statements(tree):
            if isinstance(statement, ast.Import):
                for alias in statement.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(statement, ast.ImportFrom):
                for alias in statement.names:
                    if alias.name != "*":
                        bound.add(alias.asname or alias.name)
            elif isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                bound.add(statement.name)
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    bound.update(self._target_names(target))
            elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
                bound.update(self._target_names(statement.target))
            elif isinstance(statement, (ast.For, ast.AsyncFor)):
                bound.update(self._target_names(statement.target))
            elif isinstance(statement, (ast.With, ast.AsyncWith)):
                for item in statement.items:
                    if item.optional_vars is not None:
                        bound.update(self._target_names(item.optional_vars))
        return bound

    @classmethod
    def _target_names(cls, target: ast.expr) -> set[str]:
        if isinstance(target, ast.Name):
            return {target.id}
        if isinstance(target, (ast.Tuple, ast.List)):
            names: set[str] = set()
            for element in target.elts:
                names.update(cls._target_names(element))
            return names
        if isinstance(target, ast.Starred):
            return cls._target_names(target.value)
        return set()


#: The shipped rule set, in rule-id order.
ALL_RULES: tuple[Rule, ...] = (
    JsonSortKeysRule(),
    SeededRandomRule(),
    WallClockRule(),
    OrderedAccumulationRule(),
    SessionLockRule(),
    ExceptionDisciplineRule(),
    AllExportsRule(),
)

RULES_BY_ID: dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}
