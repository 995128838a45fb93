"""The reprolint rule engine.

Pipeline: parse every ``*.py`` under the analysis root into a
:class:`Project`, run each registered rule over every module, and drop
findings suppressed by an inline ``# reprolint: disable=RULE`` comment.
Every remaining finding fails the run; a justified exception is a
suppression carrying its reason, and a suppression that masks nothing is
itself a finding (``E998``) — the code stopped violating the rule, and
the comment would silently license a future violation.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "analyze",
    "iter_rules",
    "load_module",
    "register",
]

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+|all)")


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
    """One parsed source module plus its suppression map."""

    def __init__(self, path: Path, module: str, text: str, repo: Path) -> None:
        self.path = path
        self.module = module  # dotted name, e.g. "repro.net.faults"
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=str(path))
        try:
            self.rel_path = path.resolve().relative_to(repo.resolve()).as_posix()
        except ValueError:
            self.rel_path = path.as_posix()
        #: declared suppressions: comment line -> rule tokens (or "all")
        self.suppressions = self._scan_suppressions()

    def _scan_suppressions(self) -> dict[int, frozenset[str]]:
        out: dict[int, frozenset[str]] = {}
        for i, line in enumerate(self.lines, start=1):
            m = _SUPPRESS_RE.search(line)
            if m:
                spec = m.group(1)
                if spec.strip() == "all":
                    out[i] = frozenset({"all"})
                else:
                    out[i] = frozenset(
                        r.strip() for r in spec.split(",") if r.strip()
                    )
        return out

    def suppressed(
        self, rule: str, line: int, hits: set[tuple[str, int, str]]
    ) -> bool:
        """Is ``rule`` disabled at ``line``?

        A suppression comment applies to its own line, or — when it
        stands on a comment-only line — to the next source line below it.
        The matching token is recorded in ``hits`` as ``(rel_path,
        comment_line, token)`` so the run can report tokens that masked
        nothing.
        """
        for at in (line, line - 1):
            rules = self.suppressions.get(at)
            if rules is None:
                continue
            if at == line - 1 and not self.lines[at - 1].lstrip().startswith("#"):
                continue  # trailing comment on the previous statement
            token = "all" if "all" in rules else (rule if rule in rules else None)
            if token is not None:
                hits.add((self.rel_path, at, token))
                return True
        return False

    def finding(self, rule: str, node: ast.AST | int, message: str) -> Finding:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        col = 0 if isinstance(node, int) else getattr(node, "col_offset", 0)
        return Finding(rule=rule, path=self.rel_path, line=line, col=col, message=message)


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
        text = path.read_text(encoding="utf-8")
        return ModuleInfo(path, module, text, repo)
    except (SyntaxError, UnicodeDecodeError) as exc:
        line = getattr(exc, "lineno", 1) or 1
        return Finding("E999", path.as_posix(), line, 0, f"unparseable module: {exc}")


class Rule:
    """Base class: subclass, set ``id``/``name``/``description``, override
    :meth:`check_module`."""

    id: str = ""
    name: str = ""
    description: str = ""

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        return iter(())


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def iter_rules() -> list[Rule]:
    """Registered rules in id order (importing the rule modules first)."""
    # registration side effects:
    from tools.reprolint import rules as _rules  # noqa: F401
    from tools.reprolint import rules_flow as _rules_flow  # noqa: F401

    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def analyze(
    root: Path | str,
    *,
    repo: Path | str | None = None,
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Run the registered rules over ``root``; suppressions applied.

    ``select`` restricts to the given rule ids (default: all).  Two
    findings are unconditional and cannot be suppressed: ``E999`` for an
    unparseable module, and ``E998`` for a ``# reprolint: disable=``
    token naming a rule that ran and masked nothing.
    """
    project = Project(Path(root), Path(repo) if repo is not None else None)
    wanted = set(select) if select is not None else None
    rules = [r for r in iter_rules() if wanted is None or r.id in wanted]

    findings = list(project.parse_errors)
    used: set[tuple[str, int, str]] = set()
    for rule in rules:
        for mod in project.modules.values():
            findings.extend(
                f for f in rule.check_module(mod)
                if not mod.suppressed(f.rule, f.line, used)
            )

    for mod in project.modules.values():
        for line, tokens in mod.suppressions.items():
            for token in tokens:
                # under --select, only the selected rules could have used one
                if (mod.rel_path, line, token) not in used and (
                    wanted is None or token in wanted
                ):
                    findings.append(Finding(
                        "E998", mod.rel_path, line, 0,
                        f"suppression '{token}' masks no finding; remove it",
                    ))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return findings
