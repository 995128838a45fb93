"""Per-function summaries: the facts the cross-file rule family consumes.

The per-file rules (D1-D7) see one AST at a time; the flow/concurrency
rules (F1, C1, C2) need *function-level* facts that survive across file
boundaries: which dotted names a function calls, whether it may suspend
on an ``await``, which named RNG streams it creates and where it passes
them, whether it mutates overlay state, and whether its body follows the
counted-never-raised exception pattern.  :func:`build_module_summary`
extracts one :class:`FunctionSummary` per function/method (plus a
pseudo-summary for the module body) in a single AST walk; the engine
caches the result per :class:`~tools.reprolint.engine.Project` so every
cross-file rule shares it.

Summaries are deliberately *syntactic* over-approximations: a call
target is the dotted source text (``ChurnProcess``, ``self._sink``),
resolved later — best effort — by :mod:`tools.reprolint.graph`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from tools.reprolint.engine import ModuleInfo

__all__ = [
    "FunctionSummary",
    "ModuleSummary",
    "StreamFlow",
    "build_module_summary",
]


def _qualname(node: ast.AST) -> str | None:
    """Dotted source text of a Name/Attribute chain ("self.rng.random")."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def _stream_literal(node: ast.expr) -> str | None:
    """The stream name when ``node`` is ``<reg>.stream("lit")``/``fresh``."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("stream", "fresh")
        and node.args
    ):
        return None
    arg = node.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    return None


@dataclass(frozen=True)
class StreamFlow:
    """One named RNG stream passed as an argument into a call."""

    stream: str  # the stream-name literal, e.g. "net:faults"
    callee: str  # dotted callee source text, e.g. "ChurnProcess"
    line: int
    col: int


@dataclass
class FunctionSummary:
    """What one function does, as seen from outside it."""

    module: str  # dotted module, e.g. "repro.live.node"
    qualname: str  # class-qualified local name, e.g. "PeerNode.sendto"
    name: str  # bare name
    cls: str | None  # enclosing class name (None for module-level defs)
    line: int
    is_async: bool
    may_await: bool  # contains Await / async for / async with
    calls: tuple[str, ...]  # dotted call targets, as written
    streams_created: tuple[str, ...]  # literal names passed to .stream/.fresh
    stream_flows: tuple[StreamFlow, ...]  # streams flowing into calls
    mutates_overlay: bool  # performs a D5-class overlay mutation
    exception_safe: bool  # every risky stmt guarded by a counting except
    node: ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class ModuleSummary:
    """All of one module's function summaries plus its module-level flows."""

    module: str
    functions: tuple[FunctionSummary, ...]
    module_flows: tuple[StreamFlow, ...]  # stream flows in module-level code

    def get(self, qualname: str) -> FunctionSummary | None:
        for fn in self.functions:
            if fn.qualname == qualname:
                return fn
        return None


# -- scope walking ---------------------------------------------------------


def _own_scope(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Nodes of a scope's statements, skipping nested function scopes."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _collect_flows(body: list[ast.stmt]) -> tuple[list[str], list[StreamFlow]]:
    """Stream creations and stream-into-call flows within one scope.

    Tracks both direct flows (``Engine(rngs.stream("x"))``) and flows
    through a local binding (``rng = rngs.stream("x"); Engine(rng)``) —
    the indirection D2's call-site check cannot see.
    """
    created: list[str] = []
    bindings: dict[str, str] = {}  # local name -> stream name
    # pass 1: creations and local bindings
    for node in _own_scope(body):
        name = _stream_literal(node) if isinstance(node, ast.Call) else None
        if name is not None:
            created.append(name)
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            stream = _stream_literal(node.value)
            if stream is not None and isinstance(target, ast.Name):
                bindings[target.id] = stream
    # pass 2: stream expressions / bound names used as call arguments
    flows: list[StreamFlow] = []
    for node in _own_scope(body):
        if not isinstance(node, ast.Call):
            continue
        callee = _qualname(node.func)
        if callee is None:
            continue
        args = list(node.args) + [kw.value for kw in node.keywords]
        for arg in args:
            stream = _stream_literal(arg)
            if stream is None and isinstance(arg, ast.Name):
                stream = bindings.get(arg.id)
            if stream is not None:
                flows.append(
                    StreamFlow(stream, callee, node.lineno, node.col_offset)
                )
    return created, flows


# -- exception safety ------------------------------------------------------


def _is_counting_handler(handler: ast.ExceptHandler) -> bool:
    """An ``except`` that catches broadly, counts, and never re-raises."""
    if handler.type is not None:
        qn = _qualname(handler.type)
        names = {qn} if qn else set()
        if isinstance(handler.type, ast.Tuple):
            names = {_qualname(e) for e in handler.type.elts}
        tails = {(n or "").rpartition(".")[2] for n in names}
        if not tails & {"Exception", "BaseException"}:
            return False
    counts = any(
        isinstance(n, ast.AugAssign)
        and isinstance(n.op, ast.Add)
        and isinstance(n.target, ast.Attribute)
        for n in ast.walk(handler)
    )
    raises = any(isinstance(n, ast.Raise) for n in ast.walk(handler))
    return counts and not raises


def _risky(stmt: ast.stmt) -> bool:
    """Does this statement (sans nested defs) call anything or raise?"""
    for node in _own_scope([stmt]):
        if isinstance(node, (ast.Call, ast.Raise)):
            return True
    return False


def _exception_safe(body: list[ast.stmt], guarded: bool = False) -> bool:
    """True when every risky statement runs under a counting ``except``."""
    for stmt in body:
        if isinstance(stmt, ast.Try):
            inner = guarded or any(
                _is_counting_handler(h) for h in stmt.handlers
            )
            if not _exception_safe(stmt.body, inner):
                return False
            for h in stmt.handlers:
                if not _exception_safe(h.body, guarded):
                    return False
            if not _exception_safe(stmt.orelse, guarded):
                return False
            if not _exception_safe(stmt.finalbody, guarded):
                return False
        elif isinstance(stmt, (ast.If, ast.For, ast.While, ast.With)):
            blocks = [stmt.body, getattr(stmt, "orelse", [])]
            head_risky = any(
                isinstance(n, (ast.Call, ast.Raise))
                for field in ast.iter_child_nodes(stmt)
                if not isinstance(field, ast.stmt)
                for n in ast.walk(field)
            )
            if head_risky and not guarded:
                return False
            for block in blocks:
                if not _exception_safe(block, guarded):
                    return False
        elif _risky(stmt) and not guarded:
            return False
    return True


# -- overlay mutation ------------------------------------------------------

#: mirrors rule D5's mutator inventory (kept in sync by test_flow.py).
OVERLAY_MUTATORS = frozenset(
    {"add_edge", "remove_edge", "rewire", "swap_embedding",
     "append_slot", "pop_slot"}
)
OVERLAY_ATTRS = frozenset(
    {"embedding", "embedding_version", "topology_version", "_adj", "_n_edges",
     "_nbr_sorted", "_nbr_index", "_nbr_sum"}
)


def _mutates_overlay(body: list[ast.stmt]) -> bool:
    for node in _own_scope(body):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in OVERLAY_MUTATORS
        ):
            return True
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Subscript):
                    t = t.value
                if isinstance(t, ast.Attribute) and t.attr in OVERLAY_ATTRS:
                    return True
    return False


# -- assembly --------------------------------------------------------------


def _summarize_function(
    module: str,
    cls: str | None,
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> FunctionSummary:
    calls: list[str] = []
    may_await = False
    for node in _own_scope(fn.body):
        if isinstance(node, ast.Call):
            target = _qualname(node.func)
            if target is not None:
                calls.append(target)
        elif isinstance(node, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
            may_await = True
    created, flows = _collect_flows(fn.body)
    return FunctionSummary(
        module=module,
        qualname=f"{cls}.{fn.name}" if cls else fn.name,
        name=fn.name,
        cls=cls,
        line=fn.lineno,
        is_async=isinstance(fn, ast.AsyncFunctionDef),
        may_await=may_await,
        calls=tuple(calls),
        streams_created=tuple(created),
        stream_flows=tuple(flows),
        mutates_overlay=_mutates_overlay(fn.body),
        exception_safe=_exception_safe(fn.body),
        node=fn,
    )


def _walk_defs(
    body: list[ast.stmt], cls: str | None
) -> Iterator[tuple[str | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Every function definition with its enclosing class name."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield cls, stmt
            # nested defs are summarized too, attributed to the same class
            yield from _walk_defs(stmt.body, cls)
        elif isinstance(stmt, ast.ClassDef):
            yield from _walk_defs(stmt.body, stmt.name)
        elif isinstance(stmt, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            for block in (
                getattr(stmt, "body", []),
                getattr(stmt, "orelse", []),
                getattr(stmt, "finalbody", []),
            ):
                yield from _walk_defs(block, cls)
            for h in getattr(stmt, "handlers", []):
                yield from _walk_defs(h.body, cls)


def build_module_summary(mod: "ModuleInfo") -> ModuleSummary:
    """Summarize every function of ``mod`` plus its module-level flows."""
    functions = tuple(
        _summarize_function(mod.module, cls, fn)
        for cls, fn in _walk_defs(mod.tree.body, None)
    )
    _, module_flows = _collect_flows(mod.tree.body)
    return ModuleSummary(
        module=mod.module, functions=functions, module_flows=tuple(module_flows)
    )
