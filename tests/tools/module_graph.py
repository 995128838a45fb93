"""The project module graph: imports and module reachability.

:class:`ModuleGraph` is the cross-file layer under the
module-reachability test (``tests/tools/test_reachability.py``): it
parses every module of a package tree (:class:`Project`), records, per
module, which local names are bound by imports (absolute and relative),
resolves each import target to the *project module* it uses — following
package re-exports — and walks those uses from a set of root modules.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

__all__ = ["ModuleGraph", "ModuleInfo", "Project"]


class ModuleInfo:
    """One parsed source module; an unparseable one raises ``SyntaxError``."""

    def __init__(self, path: Path, module: str) -> None:
        self.path = path
        self.module = module  # dotted name, e.g. "repro.net.faults"
        self.tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


class Project:
    """All modules under one package root, keyed by dotted name; the root
    directory itself is the ``repro`` package."""

    PACKAGE = "repro"

    def __init__(self, root: Path) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        for path in sorted(Path(root).rglob("*.py")):
            parts = [self.PACKAGE, *path.relative_to(root).with_suffix("").parts]
            if parts[-1] == "__init__":
                parts.pop()
            module = ".".join(parts)
            self.modules[module] = ModuleInfo(path, module)


class ModuleGraph:
    """Imports of every project module."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = modules
        #: module -> local name -> fully-qualified target (module or symbol)
        self.imports: dict[str, dict[str, str]] = {
            name: self._scan_imports(name, mod) for name, mod in modules.items()
        }

    # -- import scanning ---------------------------------------------------

    def _scan_imports(self, name: str, mod: ModuleInfo) -> dict[str, str]:
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
