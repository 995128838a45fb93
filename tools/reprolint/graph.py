"""The project module graph: imports, definitions, call resolution.

:class:`ModuleGraph` is the cross-file layer under rule F1 and the
module-reachability test (``tests/tools/test_reachability.py``): it
records, per module, which local names are bound by imports (absolute
and relative) and which names the module defines at top level, then
resolves a dotted call target as written in source (``ChurnProcess``,
``factory.build_preset``) back to the *project module that defines it*.
Resolution is deliberately best-effort — dynamic dispatch, instance
attributes (``self._sink``) and re-exports through ``__init__`` are
reported as unresolved rather than guessed — so rules built on it only
ever act on edges that are provably intra-project.

Components are the second-level packages (``repro.live``, ``repro.net``,
…): the granularity of RNG-stream ownership (rule F1).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from tools.reprolint.engine import ModuleInfo

__all__ = ["ModuleGraph"]


class ModuleGraph:
    """Imports and top-level definitions for every project module."""

    def __init__(self, modules: dict[str, "ModuleInfo"]) -> None:
        self.modules = modules
        #: module -> local name -> fully-qualified target (module or symbol)
        self.imports: dict[str, dict[str, str]] = {}
        #: module -> names defined at module top level (classes + functions)
        self.defs: dict[str, set[str]] = {}
        for name, mod in modules.items():
            self.imports[name] = self._scan_imports(name, mod)
            self.defs[name] = {
                n.name
                for n in mod.tree.body
                if isinstance(n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            }

    @staticmethod
    def component(module: str) -> str:
        """The second-level package a module belongs to (``repro.live``)."""
        parts = module.split(".")
        return ".".join(parts[:2]) if len(parts) >= 2 else module

    # -- import scanning ---------------------------------------------------

    def _scan_imports(self, name: str, mod: "ModuleInfo") -> dict[str, str]:
        is_package = mod.path.name == "__init__.py"
        bound: dict[str, str] = {}
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        bound[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = self._absolute_base(name, is_package, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    bound[local] = f"{base}.{alias.name}" if base else alias.name
        return bound

    @staticmethod
    def _absolute_base(
        module: str, is_package: bool, node: ast.ImportFrom
    ) -> str | None:
        """The absolute module an ``ImportFrom`` pulls names out of."""
        if node.level == 0:
            return node.module
        parts = module.split(".")
        # level 1 from a plain module strips the module name; from a
        # package __init__ it is the package itself
        drop = node.level - 1 if is_package else node.level
        if drop > len(parts):
            return None
        base_parts = parts[: len(parts) - drop] if drop else parts
        base = ".".join(base_parts)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base

    # -- resolution --------------------------------------------------------

    def resolve(self, module: str, dotted: str) -> tuple[str, str] | None:
        """Resolve a dotted call target to ``(defining_module, symbol)``.

        ``dotted`` is source text from the caller's scope.  Returns None
        for anything not provably defined by a project module (builtins,
        third-party calls, instance attributes, ``self.*`` methods —
        the class-aware rules handle those locally).
        """
        parts = dotted.split(".")
        head = parts[0]
        if head in ("self", "cls"):
            return None
        imported = self.imports.get(module, {})
        if head in imported:
            full = imported[head]
            if len(parts) > 1:
                full = f"{full}.{'.'.join(parts[1:])}"
            return self._split_symbol(full)
        if head in self.defs.get(module, set()):
            return module, dotted
        return None

    def _split_symbol(self, full: str) -> tuple[str, str] | None:
        """Split ``repro.net.engine.MessagePROPEngine`` into module+symbol
        by the longest module prefix the project actually contains."""
        parts = full.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate, ".".join(parts[cut:])
        if full in self.modules:
            return full, ""
        return None

    # -- reachability ------------------------------------------------------

    def _is_package(self, module: str) -> bool:
        return self.modules[module].path.name == "__init__.py"

    def import_owner(self, target: str) -> str | None:
        """The project module an import target (``pkg.mod`` or
        ``pkg.name``) is a use of: the module itself, or the one that
        defines ``name`` — followed through package re-exports, so asking
        a package for a name uses the name's defining module, not
        everything the package happens to re-export."""
        seen: set[str] = set()
        while target not in self.modules and target not in seen:
            seen.add(target)
            split = self._split_symbol(target)
            if split is None:
                return None
            module, symbol = split
            forwarded = self.imports[module].get(symbol.split(".")[0])
            if not self._is_package(module) or forwarded is None:
                return module
            target = forwarded
        return target if target in self.modules else None

    def reachable(self, roots: Iterable[str]) -> set[str]:
        """Modules used, transitively, by the imports of ``roots``.

        A package ``__init__`` re-exporting a module is not by itself a
        use of it (see :meth:`import_owner`); a package is traversed only
        when something imports the package object itself.  Ancestor
        packages of every used module run on import and count as reached.
        """
        used: set[str] = set()
        todo = list(roots)
        while todo:
            module = todo.pop()
            if module in used:
                continue
            used.add(module)
            for target in self.imports[module].values():
                owner = self.import_owner(target)
                if owner is not None:
                    todo.append(owner)
        for module in list(used):
            parts = module.split(".")
            for i in range(1, len(parts)):
                parent = ".".join(parts[:i])
                if parent in self.modules:
                    used.add(parent)
        return used

    def defining_component(self, module: str, dotted: str) -> str | None:
        """The component owning ``dotted`` as called from ``module``."""
        resolved = self.resolve(module, dotted)
        if resolved is None:
            return None
        return self.component(resolved[0])
