"""The flow/concurrency rule family (F1, C1).

Where :mod:`tools.reprolint.rules` checks one file at a time against a
fixed module list, these rules follow values and control flow:

* **F1** interprocedural RNG-stream provenance: a stream named for
  component X must not flow (directly or through a local binding) into
  a call defined by another component — resolved across files through
  the module graph (:mod:`tools.reprolint.graph`).  This closes the hole
  left by D2, which only inspects the call site that *requests* a
  stream, not where the generator is then passed.
* **C1** await-interleaving hazards in ``repro.live``: shared ``self``
  state read before an ``await`` and written after it without being
  re-read (revalidated) is flagged, as is a fire-and-forget
  ``create_task`` whose exceptions have nowhere to go.

``docs/analysis.md`` says what each rule sees that no test can.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from tools.reprolint.engine import Finding, ModuleInfo, Project, Rule, register
from tools.reprolint.rules import (
    _function_defs,
    _FunctionDef,
    _qualname,
    _scopes,
    _walk_scope,
)

__all__ = ["RngStreamProvenance", "AwaitInterleavingHazard"]


def _in_package(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


# -- F1 -------------------------------------------------------------------


@dataclass(frozen=True)
class StreamFlow:
    """One named RNG stream passed as an argument into a call."""

    stream: str  # the stream-name literal, e.g. "net:faults"
    callee: str  # dotted callee source text, e.g. "ChurnProcess"
    line: int
    col: int


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


def _stream_flows(body: list[ast.stmt]) -> Iterator[StreamFlow]:
    """Stream-into-call flows within one scope.

    Tracks both direct flows (``Engine(rngs.stream("x"))``) and flows
    through a local binding (``rng = rngs.stream("x"); Engine(rng)``) —
    the indirection D2's call-site check cannot see.
    """
    bindings: dict[str, str] = {}  # local name -> stream name
    for node in _walk_scope(body):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            stream = _stream_literal(node.value)
            if stream is not None and isinstance(target, ast.Name):
                bindings[target.id] = stream
    for node in _walk_scope(body):
        if not isinstance(node, ast.Call):
            continue
        callee = _qualname(node.func)
        if callee is None:
            continue
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            stream = _stream_literal(arg)
            if stream is None and isinstance(arg, ast.Name):
                stream = bindings.get(arg.id)
            if stream is not None:
                yield StreamFlow(stream, callee, node.lineno, node.col_offset)


@register
class RngStreamProvenance(Rule):
    """F1: a named RNG stream stays inside the component it names.

    The registry's named substreams partition the world's randomness by
    component (D2's premise).  D2 audits the *request* site; F1 follows
    the generator itself: a ``rngs.stream("net:faults")`` handed to a
    constructor defined in ``repro.workloads`` couples the fault and
    churn draw sequences even though every individual call site looks
    disciplined.  Flows (direct arguments and single-assignment local
    bindings) are collected per scope and the callee is resolved through
    the module graph; unresolvable callees (builtins, third-party,
    instance attributes) are skipped, never guessed.
    """

    id = "F1"
    name = "rng-stream-provenance"
    description = "a named RNG stream may not flow into another component"

    #: stream name (or its pre-colon family) -> components allowed to
    #: receive a generator drawn from it.
    STREAM_OWNERS: dict[str, tuple[str, ...]] = {
        "prop:engine": ("repro.core", "repro.net"),
        "net:faults": ("repro.net",),
        "ltm:engine": ("repro.baselines",),
        "pis": ("repro.baselines",),
        "live:traffic": ("repro.live",),
        "churn": ("repro.workloads",),
        "heterogeneity": ("repro.workloads",),
        "topology": ("repro.topology",),
        "oracle": ("repro.topology",),
        "membership": ("repro.harness",),
        "lookup-workload": ("repro.workloads", "repro.harness"),
        "overlay": ("repro.overlay",),
    }

    def _owners(self, stream: str) -> tuple[str, ...] | None:
        if stream in self.STREAM_OWNERS:
            return self.STREAM_OWNERS[stream]
        family = stream.partition(":")[0]
        return self.STREAM_OWNERS.get(family)

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = project.graph()
        for module, mod in project.modules.items():
            flows = (f for body in _scopes(mod.tree) for f in _stream_flows(body))
            for flow in flows:
                component = graph.defining_component(module, flow.callee)
                if component is None:
                    continue  # not provably a project call
                owners = self._owners(flow.stream)
                if owners is None:
                    yield Finding(
                        self.id, mod.rel_path, flow.line, flow.col,
                        f"stream {flow.stream!r} flows into `{flow.callee}` but has "
                        "no registered owner; add it to "
                        "RngStreamProvenance.STREAM_OWNERS",
                    )
                elif component not in owners:
                    allowed = ", ".join(owners)
                    yield Finding(
                        self.id, mod.rel_path, flow.line, flow.col,
                        f"stream {flow.stream!r} flows into `{flow.callee}` "
                        f"(defined in {component}); it is reserved for {allowed} — "
                        "draw the callee's stream from the registry instead",
                    )


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
        if not _in_package(mod.module, self.SCOPE):
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
