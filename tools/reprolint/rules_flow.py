"""The concurrency rule (C1): await-interleaving hazards in ``repro.live``.

Where :mod:`tools.reprolint.rules` matches one statement at a time,
C1 follows control flow through an async function: shared ``self``
state read before an ``await`` and written after it without being
re-read (revalidated) is flagged, as is a fire-and-forget
``create_task`` whose exceptions have nowhere to go.

``docs/analysis.md`` says what the rule sees that no test can.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.engine import Finding, ModuleInfo, Rule, register
from tools.reprolint.rules import _function_defs, _FunctionDef, _qualname, _walk_scope

__all__ = ["AwaitInterleavingHazard"]


# -- C1 -------------------------------------------------------------------

_SPAWNERS = frozenset({"create_task", "ensure_future"})
_Event = tuple[str, str | None, ast.AST]  # kind in {load, store, await}


def _self_chain(node: ast.expr) -> str | None:
    """The dotted chain when ``node`` is a ``self.*`` attribute access."""
    qn = _qualname(node)
    if qn is not None and qn.startswith("self.") and qn != "self":
        return qn
    return None


class _EventWalk:
    """Linearize one async function body into load/store/await events.

    Only ``self``-rooted attribute chains are tracked — they are the
    shared state another task can mutate while this one is suspended.
    The walk follows evaluation order where it matters: assignment
    values before targets, awaited expressions before the suspension
    point itself.
    """

    def __init__(self) -> None:
        self.events: list[_Event] = []

    def walk(self, body: list[ast.stmt]) -> list[_Event]:
        for stmt in body:
            self._stmt(stmt)
        return self.events

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scope, analyzed separately
        if isinstance(node, ast.Assign):
            self._expr(node.value)
            for t in node.targets:
                self._store(t)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._expr(node.value)
                self._store(node.target)
        elif isinstance(node, ast.AugAssign):
            self._expr(node.value)
            chain = _self_chain(node.target)
            if chain is not None:
                self.events.append(("load", chain, node.target))
                self.events.append(("store", chain, node.target))
        elif isinstance(node, ast.AsyncFor):
            self._expr(node.iter)
            self.events.append(("await", None, node))
            self._store(node.target)
            for s in [*node.body, *node.orelse]:
                self._stmt(s)
        elif isinstance(node, ast.AsyncWith):
            for item in node.items:
                self._expr(item.context_expr)
            self.events.append(("await", None, node))
            for s in node.body:
                self._stmt(s)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._stmt(child)
                elif isinstance(child, ast.expr):
                    self._expr(child)
                elif isinstance(child, ast.ExceptHandler):
                    for s in child.body:
                        self._stmt(s)
                elif isinstance(child, (ast.withitem, ast.keyword)):
                    for sub in ast.iter_child_nodes(child):
                        if isinstance(sub, ast.expr):
                            self._expr(sub)

    def _expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Await):
            self._expr(node.value)
            self.events.append(("await", None, node))
            return
        if isinstance(node, ast.Lambda):
            return
        chain = _self_chain(node)
        if chain is not None:
            self.events.append(("load", chain, node))
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, (ast.keyword, ast.comprehension)):
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.expr):
                        self._expr(sub)

    def _store(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._store(elt)
        elif isinstance(target, ast.Starred):
            self._store(target.value)
        elif isinstance(target, ast.Subscript):
            self._expr(target.slice)
            chain = _self_chain(target.value)
            if chain is not None:
                self.events.append(("store", chain, target))
        elif isinstance(target, ast.Attribute):
            chain = _self_chain(target)
            if chain is not None:
                self.events.append(("store", chain, target))


@register
class AwaitInterleavingHazard(Rule):
    """C1: await points in ``repro.live`` must not invalidate cached state.

    Every ``await`` is a point where *any* other task (a datagram
    callback, a timer, another protocol round) may run and mutate shared
    engine/overlay state.  A value of ``self.x`` read before the await
    and used to write ``self.x`` after it silently overwrites whatever
    the interleaved task did — the classic lost-update.  The fix is
    either to finish the read-modify-write before suspending or to
    re-read (revalidate) after resuming; a post-await re-read of the
    same chain clears the finding.

    The second hazard is ``asyncio.create_task`` with the returned task
    discarded: its exception is swallowed until garbage collection logs
    an opaque "Task exception was never retrieved".  The task must be
    awaited, gathered, passed somewhere that manages it, or given an
    ``add_done_callback`` exception sink.
    """

    id = "C1"
    name = "await-interleaving-hazard"
    description = "stale read-across-await writes and sink-less create_task"

    SCOPE = "repro.live"

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        if mod.module != self.SCOPE and not mod.module.startswith(self.SCOPE + "."):
            return
        for fn in _function_defs(mod.tree):
            if isinstance(fn, ast.AsyncFunctionDef):
                yield from self._check_interleaving(mod, fn)
            yield from self._check_fire_and_forget(mod, fn)

    def _check_interleaving(
        self, mod: ModuleInfo, fn: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        events = _EventWalk().walk(fn.body)
        awaits = [i for i, (kind, _, _) in enumerate(events) if kind == "await"]
        if not awaits:
            return
        reported: set[str] = set()
        for k, (kind, chain, node) in enumerate(events):
            if kind != "store" or chain is None or chain in reported:
                continue
            before = [i for i in awaits if i < k]
            if not before:
                continue
            last_await = before[-1]
            loads = [
                i
                for i, (ek, ec, _) in enumerate(events)
                if ek == "load" and ec == chain
            ]
            read_before_suspend = any(i < last_await for i in loads)
            revalidated = any(last_await < i < k for i in loads)
            if read_before_suspend and not revalidated:
                reported.add(chain)
                yield mod.finding(
                    self.id, node,
                    f"`{chain}` was read before an `await` and is written here "
                    "without being re-read after resuming; another task may have "
                    "changed it across the suspension — revalidate after the "
                    "await or restructure the update to complete before it",
                )

    def _check_fire_and_forget(self, mod: ModuleInfo, fn: _FunctionDef) -> Iterator[Finding]:
        for node in _walk_scope(fn.body):
            if isinstance(node, ast.Expr) and self._is_spawn(node.value):
                yield mod.finding(
                    self.id, node,
                    "fire-and-forget task: the Task object (and its exception) "
                    "is discarded; keep a reference and await/gather it or "
                    "attach an add_done_callback exception sink",
                )
            elif (
                isinstance(node, ast.Assign)
                and self._is_spawn(node.value)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                name = node.targets[0].id
                if not self._has_sink(fn, name):
                    yield mod.finding(
                        self.id, node,
                        f"task bound to `{name}` has no exception sink: it is "
                        "never awaited, gathered, handed off, or given an "
                        "add_done_callback",
                    )

    @staticmethod
    def _is_spawn(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and (_qualname(node.func) or "").rpartition(".")[2] in _SPAWNERS
        )

    @staticmethod
    def _has_sink(fn: _FunctionDef, name: str) -> bool:
        def mentions(sub: ast.AST) -> bool:
            return any(
                isinstance(n, ast.Name) and n.id == name for n in ast.walk(sub)
            )

        for node in _walk_scope(fn.body):
            if isinstance(node, ast.Await) and mentions(node.value):
                return True
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "add_done_callback"
                    and _qualname(func.value) == name
                ):
                    return True
                if AwaitInterleavingHazard._is_spawn(node):
                    continue  # the spawn call itself is not a sink
                args = [*node.args, *(kw.value for kw in node.keywords)]
                if any(mentions(a) for a in args):
                    return True  # handed off to something that manages it
            if isinstance(node, ast.Return) and node.value and mentions(node.value):
                return True  # the caller owns it now
        return False
