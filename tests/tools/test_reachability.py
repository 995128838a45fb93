"""Every module under ``src/repro`` is reachable from something that runs.

Roots are what a user or CI executes: the CLI, every ``__main__``, the
benches (ledger included) and the examples.  A module that only its own
test and a package ``__init__`` re-export mention is dead weight however
green its tests are — delete it, or give it a caller.
"""

from pathlib import Path

from tools.reprolint.engine import Finding, Project, load_module
from tools.reprolint.graph import ModuleGraph

REPO = Path(__file__).resolve().parents[2]

#: Modules allowed to be unreachable.  Keep it empty.
EXCEPTIONS: frozenset[str] = frozenset()


def _graph_and_roots() -> tuple[ModuleGraph, set[str], set[str]]:
    project = Project(REPO / "src" / "repro", repo=REPO)
    program = set(project.modules)
    modules = dict(project.modules)
    scripts = [*sorted((REPO / "benchmarks").rglob("*.py")),
               *sorted((REPO / "examples").glob("*.py"))]
    for path in scripts:
        name = ".".join(path.relative_to(REPO).with_suffix("").parts)
        loaded = load_module(path, name, REPO)
        assert not isinstance(loaded, Finding), f"unparseable root: {path}"
        modules[name] = loaded
    roots = set(modules) - program
    roots |= {m for m in program if m == "repro.cli" or m.endswith(".__main__")}
    return ModuleGraph(modules), roots, program


def test_every_module_is_reachable_from_a_root():
    graph, roots, program = _graph_and_roots()
    assert "repro.cli" in roots and "repro.__main__" in roots
    unreachable = program - graph.reachable(roots)
    # equality, not subset: a stale exception fails too
    assert unreachable == EXCEPTIONS, (
        "modules no CLI, __main__, bench or example imports (transitively): "
        + ", ".join(sorted(unreachable - EXCEPTIONS))
        + f"; stale exceptions: {sorted(EXCEPTIONS - unreachable)}"
    )
