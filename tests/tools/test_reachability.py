"""Every module and every def under ``src/repro`` is reachable from
something that runs.

Roots are what a user or CI executes: the CLI, every ``__main__``, the
benches (ledger included) and the examples.  A module — or a function or
method — that only its own test and a package ``__init__`` re-export
mention is dead weight however green its tests are: delete it, or give
it a caller.
"""

import ast
from pathlib import Path

from tools.reprolint.engine import Finding, Project, load_module
from tools.reprolint.graph import ModuleGraph

REPO = Path(__file__).resolve().parents[2]

#: Modules allowed to be unreachable.  Keep it empty.
EXCEPTIONS: frozenset[str] = frozenset()

#: Packages whose worklist is done: no ``todo`` row may name them.
SETTLED_PACKAGES = ("repro.",)

#: Defs no root reaches, by qualified name.  ``reference``: a test
#: compares production against it.  ``todo``: not adjudicated yet — the
#: worklist; nothing under :data:`SETTLED_PACKAGES` may be.
UNREACHED_DEFS: dict[str, str] = {
    "repro.live.codec.grammar_fingerprint": "reference",
    "repro.netsim.events.EventHandle.pending": "reference",
    "repro.obs.monitor.ExchangeEfficacy.pending": "reference",
    "repro.overlay.base.Overlay.host_at": "reference",
    "repro.overlay.base.Overlay.total_neighbor_latency": "reference",
    "repro.overlay.can.CANOverlay.total_zone_volume": "reference",
    "repro.overlay.can.Zone.volume": "reference",
    "repro.overlay.ultrapeer.UltrapeerGnutellaOverlay.is_ultrapeer": "reference",
    "repro.overlay.ultrapeer.UltrapeerGnutellaOverlay.leaf_slots": "reference",
    "repro.topology.latency.LatencyOracle.dense": "reference",
    "repro.topology.latency.LatencyOracle.mean_pairwise": "reference",
    "repro.topology.latency.LatencyOracleBase.dense": "reference",
    "repro.topology.latency.LatencyOracleBase.mean_pairwise": "reference",
}

#: Modules whose every line is a root: the one command line.
ROOT_MODULES = frozenset({"repro.cli"})

#: Called by asyncio, never by name.
LOOP_CALLBACKS = frozenset(
    {"datagram_received", "error_received", "connection_made", "connection_lost"})


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


def _names(node: ast.AST) -> set[str]:
    """Every identifier the code mentions; strings (``__all__``) and
    import statements (``__init__`` re-exports) mention none."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _split(body: list[ast.stmt], prefix: str, defs: dict[str, ast.AST], live: set[str]) -> None:
    """Sort a module or class body into defs and code that runs at import."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[f"{prefix}.{stmt.name}"] = stmt
            at_import = [*stmt.decorator_list, stmt.args]
        elif isinstance(stmt, ast.ClassDef):
            _split(stmt.body, f"{prefix}.{stmt.name}", defs, live)
            at_import = [*stmt.decorator_list, *stmt.bases, *(k.value for k in stmt.keywords)]
        else:
            at_import = [stmt]
        live.update(*map(_names, at_import))


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


def test_every_def_is_reachable_from_a_root():
    """The same question one level down, by name and over-approximate: a
    function or method is live when some live code mentions its name —
    live code being the root scripts, the CLI modules, whatever runs at
    import, and the body of every live def."""
    graph, _, program = _graph_and_roots()
    live: set[str] = set()
    defs: dict[str, ast.AST] = {}
    for name, mod in graph.modules.items():
        if name not in program or name in ROOT_MODULES or name.endswith(".__main__"):
            live |= _names(mod.tree)
        else:
            _split(mod.tree.body, name, defs, live)
    mentions = {q: _names(node) for q, node in defs.items()}

    def is_live(qualname: str) -> bool:
        name = defs[qualname].name
        return (name in live or name in LOOP_CALLBACKS
                or (name.startswith("__") and name.endswith("__")))

    pending = set(defs)
    while newly := {q for q in pending if is_live(q)}:
        pending -= newly
        live.update(*(mentions[q] for q in newly))
    # equality, not subset: an entry whose def was deleted or revived fails too
    assert pending == set(UNREACHED_DEFS), (
        "defs no CLI, __main__, bench or example reaches: "
        + ", ".join(sorted(pending - set(UNREACHED_DEFS)))
        + f"; stale entries: {sorted(set(UNREACHED_DEFS) - pending)}"
    )
    assert set(UNREACHED_DEFS.values()) <= {"reference", "todo"}
    assert not [q for q, why in UNREACHED_DEFS.items()
                if why == "todo" and q.startswith(SETTLED_PACKAGES)]
