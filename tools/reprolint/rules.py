"""The per-file reprolint rules (D1, D3, D5).

Each rule encodes one invariant the reproduction's claims rest on; the
module docstrings of the checked packages state the invariants in prose,
this file makes them machine-checked.  ``docs/analysis.md`` documents
every rule with examples of violating and conforming code.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.engine import Finding, ModuleInfo, Rule, register

__all__ = ["NoWallClockRandomness", "SortedSetIteration", "ExchangeAtomicity"]


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


# -- D1 -------------------------------------------------------------------


@register
class NoWallClockRandomness(Rule):
    """D1: no unseeded randomness or wall-clock reads under ``src/repro``.

    Bit-for-bit determinism (same seed -> same exchange sequence, the
    property the ``latency_scale=0`` bridge test pins) requires every
    draw to flow from an injected, seeded ``numpy.random.Generator`` and
    every timestamp from the simulation clock.
    """

    id = "D1"
    name = "no-wallclock-randomness"
    description = "stdlib random / wall clock / unseeded numpy RNG forbidden"

    #: packages sanctioned to read wall clocks: the live deployment plane
    #: (repro.live) runs protocol timers on real time *by design* — that
    #: is the whole point of the plane — and the profiling plane
    #: (repro.obs.prof) exists to attribute wall seconds and never feeds
    #: them back into protocol state.  The allowlist scopes ONLY the
    #: wall-clock half of D1; unseeded randomness stays forbidden in
    #: every package, including these (a live run must still be
    #: seed-reproducible in everything but timing).
    WALLCLOCK_ALLOW: tuple[str, ...] = ("repro.live", "repro.obs.prof")

    _WALLCLOCK = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "date.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )
    _NP_LEGACY = frozenset(
        {
            "seed",
            "rand",
            "randn",
            "randint",
            "random",
            "random_sample",
            "ranf",
            "sample",
            "choice",
            "shuffle",
            "permutation",
            "uniform",
            "normal",
            "exponential",
            "standard_normal",
            "get_state",
            "set_state",
        }
    )

    #: modules whose imports participate in alias resolution: aliasing
    #: one of these (``import time as _time``) must not dodge the rule.
    _CLOCK_MODULES = ("time", "datetime")

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        # First pass: collect import aliases so `import time as _time` /
        # `from time import monotonic as mono` resolve to the canonical
        # dotted names the deny-set is keyed by (the alias dodge).
        module_aliases: dict[str, str] = {}
        name_aliases: dict[str, str] = {}
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if (
                        alias.asname
                        and alias.asname != alias.name
                        and alias.name.partition(".")[0] in self._CLOCK_MODULES
                    ):
                        module_aliases[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module in self._CLOCK_MODULES:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    name_aliases[bound] = f"{node.module}.{alias.name}"
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield mod.finding(
                            self.id, node,
                            "stdlib `random` imported; inject a seeded "
                            "numpy Generator instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield mod.finding(
                        self.id, node,
                        "import from stdlib `random`; inject a seeded "
                        "numpy Generator instead",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(mod, node, module_aliases, name_aliases)

    def _wallclock_allowed(self, module: str) -> bool:
        return any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in self.WALLCLOCK_ALLOW
        )

    @staticmethod
    def _resolve_alias(
        qn: str, module_aliases: dict[str, str], name_aliases: dict[str, str]
    ) -> str:
        head, _, rest = qn.partition(".")
        if rest:
            # `import time as _time` -> _time.monotonic, and
            # `from datetime import datetime as dt` -> dt.now
            target = module_aliases.get(head) or name_aliases.get(head)
            return f"{target}.{rest}" if target is not None else qn
        # `from time import monotonic as mono` -> mono()
        return name_aliases.get(qn, qn)

    def _check_call(
        self,
        mod: ModuleInfo,
        node: ast.Call,
        module_aliases: dict[str, str],
        name_aliases: dict[str, str],
    ) -> Iterator[Finding]:
        qn = _qualname(node.func)
        if qn is None:
            return
        qn = self._resolve_alias(qn, module_aliases, name_aliases)
        if qn in self._WALLCLOCK:
            if not self._wallclock_allowed(mod.module):
                yield mod.finding(
                    self.id, node,
                    f"wall-clock call `{qn}()`; use the simulation clock (sim.now)",
                )
            return
        if (qn == "Random" or qn.endswith(".Random")) and not node.args:
            yield mod.finding(
                self.id, node,
                "argless `Random()` seeds from the OS; inject a seeded Generator",
            )
            return
        if qn.endswith("default_rng") and not node.args and not node.keywords:
            yield mod.finding(
                self.id, node,
                "unseeded `default_rng()` draws OS entropy; pass an explicit seed "
                "or inject a Generator",
            )
            return
        head, _, tail = qn.rpartition(".")
        if tail in self._NP_LEGACY and (
            head in ("np.random", "numpy.random") or head.endswith(".np.random")
        ):
            yield mod.finding(
                self.id, node,
                f"legacy global-state numpy RNG `{qn}()`; draw from an injected "
                "seeded Generator",
            )


# -- D3 -------------------------------------------------------------------


class _SetTypedNames(ast.NodeVisitor):
    """Per-scope pass 1: local names bound to set-typed expressions."""

    def __init__(self) -> None:
        self.set_names: set[str] = set()
        self.adj_names: set[str] = set()  # names aliasing an `_adj` list-of-sets

    def visit_Assign(self, node: ast.Assign) -> None:
        self._bind(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._bind([node.target], node.value)
        self.generic_visit(node)

    def _bind(self, targets: list[ast.expr], value: ast.expr) -> None:
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        if _is_set_expr(value, self.set_names, self.adj_names):
            self.set_names.update(names)
        elif _is_adj_attr(value):
            self.adj_names.update(names)

    # nested functions have their own scope; don't leak bindings
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _walk_scope(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk a scope's statements without descending into nested defs
    (each function body is analyzed as its own scope)."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # a def in this scope's body opens its own scope
        stack.extend(ast.iter_child_nodes(node))


_FunctionDef = ast.FunctionDef | ast.AsyncFunctionDef


def _function_defs(tree: ast.Module) -> Iterator[_FunctionDef]:
    """Every function definition in the module, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _scopes(tree: ast.Module) -> Iterator[list[ast.stmt]]:
    """The module body and every function body, each its own scope."""
    yield tree.body
    for fn in _function_defs(tree):
        yield fn.body


def _is_adj_attr(node: ast.expr) -> bool:
    """``self._adj`` / ``overlay._adj`` — the adjacency list-of-sets."""
    return isinstance(node, ast.Attribute) and node.attr == "_adj"


def _is_set_expr(node: ast.expr, set_names: set[str], adj_names: set[str]) -> bool:
    """Syntactically set-typed: literals, set()/frozenset(), .keys(),
    subscripts of an ``_adj`` adjacency table, set algebra thereof."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return True
        return False
    if isinstance(node, ast.Subscript):
        v = node.value
        return _is_adj_attr(v) or (isinstance(v, ast.Name) and v.id in adj_names)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names, adj_names) or _is_set_expr(
            node.right, set_names, adj_names
        )
    return False


@register
class SortedSetIteration(Rule):
    """D3: set iteration feeding a protocol decision must be sorted.

    Set iteration order is an implementation detail of the hash table;
    when it selects neighbors, orders exchange candidates, or builds the
    lists RNG indices are drawn against, the topology trajectory depends
    on interpreter internals instead of the seed.  Any ``for``/
    comprehension/materialization over a set-typed expression in the
    protocol-decision packages must go through ``sorted()`` (or carry a
    suppression justifying order-independence).
    """

    id = "D3"
    name = "sorted-set-iteration"
    description = "set/dict-key iteration on decision paths needs sorted()"

    SCOPES = (
        "repro.core",
        "repro.net",
        "repro.overlay",
        "repro.workloads",
        "repro.baselines",
    )
    #: materializers whose argument order becomes data order.
    _MATERIALIZERS = frozenset({"list", "tuple", "enumerate", "iter", "next"})

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        if not mod.module.startswith(self.SCOPES):
            return
        for scope in _scopes(mod.tree):
            pass1 = _SetTypedNames()
            for stmt in scope:
                pass1.visit(stmt)
            yield from self._flag_iterations(
                mod, scope, pass1.set_names, pass1.adj_names
            )

    def _flag_iterations(
        self,
        mod: ModuleInfo,
        body: list[ast.stmt],
        set_names: set[str],
        adj_names: set[str],
    ) -> Iterator[Finding]:
        def is_set(expr: ast.expr) -> bool:
            return _is_set_expr(expr, set_names, adj_names)

        for node in _walk_scope(body):
            if isinstance(node, ast.For) and is_set(node.iter):
                yield self._finding(mod, node.iter, "for-loop")
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for comp in node.generators:
                    if is_set(comp.iter):
                        yield self._finding(mod, comp.iter, "comprehension")
            elif isinstance(node, ast.Call):
                qn = _qualname(node.func)
                name = (qn or "").rpartition(".")[2]
                if (
                    name in self._MATERIALIZERS or qn in ("np.fromiter", "numpy.fromiter")
                ) and node.args and is_set(node.args[0]):
                    yield self._finding(mod, node.args[0], f"{name}() argument")

    def _finding(self, mod: ModuleInfo, node: ast.expr, where: str) -> Finding:
        src = ast.unparse(node)
        if len(src) > 40:
            src = src[:37] + "..."
        return mod.finding(
            self.id, node,
            f"unsorted set iteration ({where}) over `{src}`; wrap in sorted() "
            "or suppress with a justification if provably order-independent",
        )


# -- D5 -------------------------------------------------------------------


@register
class ExchangeAtomicity(Rule):
    """D5: overlay neighbor structures mutate only in sanctioned modules.

    Theorem 2's isomorphism guarantee (and Theorem 1's connectivity) hold
    because every topology change goes through the exchange primitives.
    A stray ``add_edge``/embedding write from an engine, workload, or
    metric would silently invalidate every downstream result, so mutation
    is confined to the overlay package, the exchange executors, the
    baseline protocols (their own exchange primitives), and the
    physical-topology generators.  Evaluating Var is a pure read, so a
    swap-measure-swap anywhere else is a finding; so is a write to the
    overlay's cached per-slot views, which only its primitives keep
    coherent.
    """

    id = "D5"
    name = "exchange-atomicity"
    description = "overlay mutation confined to overlay/exchange modules"

    ALLOWED_PREFIXES = ("repro.overlay.", "repro.baselines.", "repro.topology.")
    ALLOWED_MODULES = frozenset(
        {
            "repro.overlay",
            "repro.baselines",
            "repro.topology",
            "repro.core.exchange",
        }
    )
    #: ``replace_host`` is deliberately absent: it is the sanctioned
    #: membership boundary (validates, bumps version counters) that the
    #: churn workload calls; everything below bypasses an invariant.
    MUTATOR_CALLS = frozenset(
        {"add_edge", "remove_edge", "rewire", "swap_embedding"}
    )
    MUTATED_ATTRS = frozenset(
        {"embedding", "embedding_version", "topology_version", "_adj", "_n_edges",
         "_nbr_sorted", "_nbr_index", "_nbr_sum"}
    )
    _SET_MUTATORS = frozenset({"add", "discard", "remove", "pop", "clear", "update"})

    def _allowed(self, module: str) -> bool:
        return module in self.ALLOWED_MODULES or module.startswith(self.ALLOWED_PREFIXES)

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        if self._allowed(mod.module) or not mod.module.startswith("repro."):
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in self.MUTATOR_CALLS:
                    yield mod.finding(
                        self.id, node,
                        f"overlay mutation `{_qualname(node.func) or node.func.attr}()` "
                        "outside the overlay/exchange modules; route through the "
                        "exchange primitives",
                    )
                elif node.func.attr in self._SET_MUTATORS and self._touches_adj(
                    node.func.value
                ):
                    yield mod.finding(
                        self.id, node,
                        "direct neighbor-set mutation outside the overlay modules",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    attr = self._mutated_attr(t)
                    if attr is not None:
                        yield mod.finding(
                            self.id, node,
                            f"direct write to overlay `{attr}` outside the "
                            "overlay/exchange modules",
                        )

    def _mutated_attr(self, target: ast.expr) -> str | None:
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr in self.MUTATED_ATTRS:
            # `self.embedding = ...` inside non-overlay classes is still a
            # write to *that object's* attribute; only flag chains that go
            # through another object (e.g. `self.overlay.embedding`).
            inner = _qualname(target.value)
            if inner is not None and inner != "self":
                return f"{inner}.{target.attr}"
        return None

    def _touches_adj(self, node: ast.expr) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr == "_adj":
                return True
        return False
