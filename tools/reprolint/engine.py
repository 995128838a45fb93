"""The reprolint engine.

Parse every ``*.py`` under the analysis root into a :class:`Project` and
run the one rule, D5 (:mod:`tools.reprolint.rules`), over every module.
Every finding fails the run; there is no suppression.  An unparseable
module is itself a finding (``E999``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from tools.reprolint.rules import ExchangeAtomicity

__all__ = ["Finding", "ModuleInfo", "Project", "analyze", "load_module"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class ModuleInfo:
    """One parsed source module."""

    def __init__(self, path: Path, module: str, text: str, repo: Path) -> None:
        self.path = path
        self.module = module  # dotted name, e.g. "repro.net.faults"
        self.tree = ast.parse(text, filename=str(path))
        try:
            self.rel_path = path.resolve().relative_to(repo.resolve()).as_posix()
        except ValueError:
            self.rel_path = path.as_posix()

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(rule=rule, path=self.rel_path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0), message=message)


class Project:
    """All modules under one analysis root, keyed by dotted name.

    The root directory itself is treated as the ``repro`` package, so a
    fixture tree laid out like ``src/repro`` (e.g. ``fixtures/d5_bad``
    containing ``workloads/meddler.py``) exercises module-targeted rules
    exactly as the real tree does.
    """

    PACKAGE = "repro"

    def __init__(self, root: Path, repo: Path | None = None) -> None:
        self.root = Path(root)
        self.repo = Path(repo) if repo is not None else Path.cwd()
        self.modules: dict[str, ModuleInfo] = {}
        self.parse_errors: list[Finding] = []
        for path in sorted(self.root.rglob("*.py")):
            parts = [self.PACKAGE, *path.relative_to(self.root).with_suffix("").parts]
            if parts[-1] == "__init__":
                parts.pop()
            module = ".".join(parts)
            loaded = load_module(path, module, self.repo)
            if isinstance(loaded, Finding):
                self.parse_errors.append(loaded)
            else:
                self.modules[module] = loaded


def load_module(path: Path, module: str, repo: Path) -> ModuleInfo | Finding:
    """Parse one source file; an unparseable file is an E999 finding."""
    try:
        return ModuleInfo(path, module, path.read_text(encoding="utf-8"), repo)
    except (SyntaxError, UnicodeDecodeError) as exc:
        line = getattr(exc, "lineno", 1) or 1
        return Finding("E999", path.as_posix(), line, 0, f"unparseable module: {exc}")


def analyze(root: Path | str, *, repo: Path | str | None = None) -> list[Finding]:
    """D5 over every module under ``root``, plus an E999 per unparseable one."""
    project = Project(Path(root), Path(repo) if repo is not None else None)
    rule = ExchangeAtomicity()
    findings = list(project.parse_errors)
    for mod in project.modules.values():
        findings.extend(rule.check_module(mod))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return findings
