"""The one reprolint rule, D5 exchange atomicity.

``docs/analysis.md`` says why no test sees its bug class yet.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from tools.reprolint.engine import Finding, ModuleInfo

__all__ = ["ExchangeAtomicity"]


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


class ExchangeAtomicity:
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
