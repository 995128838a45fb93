"""Every command the docs, the Makefile and CI name still exists.

A deleted Make target, CLI subcommand or bench module must take its
mentions with it: this walks the user-facing documents and checks each
``make <target>``, ``python -m repro <sub>`` (the one entry point),
``python -m tools.reprolint --flag`` and ``benchmarks/*.py`` reference
against the Makefile, the real argument parsers and the tree.
``benchmarks/ledger/**``, ``CHANGES.md`` and ``ROADMAP.md`` are history
or out of reach and are not scanned.  The Fig 5–7 benches are checked
the same way against the one figure definition they must run.
"""

import argparse
import ast
import re
from pathlib import Path

import repro.cli
import tools.reprolint
import tools.reprolint.__main__
from tools.reprolint.rules import ExchangeAtomicity

REPO = Path(__file__).resolve().parents[2]

DOCS = [
    REPO / "README.md",
    REPO / "DESIGN.md",
    REPO / "EXPERIMENTS.md",
    *sorted((REPO / "docs").glob("*.md")),
]
CI = REPO / ".github" / "workflows" / "ci.yml"
MAKEFILE = REPO / "Makefile"

PARSERS = {"repro": repro.cli.build_parser}

_MAKE = re.compile(r"\bmake\s+([a-z][a-z0-9-]*)")
_PYTHON_M = re.compile(
    r"python3?\s+-m\s+(repro(?:\.\w+)*)(?![\w.])[ \t]+([a-z][a-z0-9/|-]*)"
)
_REPROLINT = re.compile(r"python3?\s+-m\s+tools\.reprolint\b([^\n#|;&]*)")
_BENCH_PATH = re.compile(r"\b(?:benchmarks/((?:\w+/)*\w+\.py)|(bench_\w+\.py))")
_MD_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.S)


def _command_text(path: Path) -> str:
    """The part of ``path`` that is commands rather than prose.

    Markdown: fenced blocks and inline code spans ("make sure" in a
    sentence is not a target).  YAML and the Makefile: every
    non-comment line.
    """
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".md":
        return "\n".join(_MD_CODE.findall(text))
    return "\n".join(line for line in text.splitlines() if not line.lstrip().startswith("#"))


def _make_targets() -> set[str]:
    rule = re.compile(r"^([A-Za-z][\w-]*):(?!=)", re.M)
    return set(rule.findall(MAKEFILE.read_text(encoding="utf-8")))


def _subcommands(parser: argparse.ArgumentParser) -> set[str]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return set(action.choices)


def test_every_make_target_named_in_docs_and_ci_exists():
    targets = _make_targets()
    assert {"test", "ledger", "report"} <= targets  # the parse works
    missing = {
        f"{path.relative_to(REPO)}: make {name}"
        for path in [*DOCS, CI]
        for name in _MAKE.findall(_command_text(path))
        if name not in targets
    }
    assert not missing, sorted(missing)


def test_every_cli_subcommand_named_in_docs_makefile_and_ci_exists():
    known = {module: _subcommands(build()) for module, build in PARSERS.items()}
    assert {"run", "spans", "critpath"} <= known["repro"]
    missing = set()
    seen = 0
    for path in [*DOCS, CI, MAKEFILE]:
        for module, subs in _PYTHON_M.findall(_command_text(path)):
            for sub in re.split(r"[/|]", subs):  # "run/figure/show", "diff|render"
                seen += 1
                if sub not in known.get(module, ()):
                    missing.add(f"{path.relative_to(REPO)}: python -m {module} {sub}")
    assert seen > 20  # the scan finds the documented commands at all
    assert not missing, sorted(missing)


def test_every_reprolint_flag_named_in_docs_makefile_and_ci_exists():
    parser = tools.reprolint.__main__.build_parser()
    known = {opt for action in parser._actions for opt in action.option_strings}
    assert "--root" in known
    missing = set()
    seen = 0
    for path in [*DOCS, CI, MAKEFILE]:
        for args in _REPROLINT.findall(_command_text(path)):
            seen += 1
            for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", args):
                if flag not in known:
                    missing.add(f"{path.relative_to(REPO)}: python -m tools.reprolint {flag}")
    assert seen >= 3  # Makefile + docs/analysis.md at least
    assert not missing, sorted(missing)


def test_docs_name_exactly_the_registered_rules():
    """The rules table, the package docstring and the Makefile comment
    list the one rule reprolint runs: a retired rule takes its mentions
    with it."""
    registered = [ExchangeAtomicity.id]
    analysis = (REPO / "docs" / "analysis.md").read_text(encoding="utf-8")
    table = analysis.split("## The rule that stays", 1)[1].split("\n## ", 1)[0]
    makefile = MAKEFILE.read_text(encoding="utf-8").split("\nanalyze:", 1)[0]
    named = {
        "docs/analysis.md": re.findall(r"^\| ([A-Z]\d) \|", table, re.M),
        "tools/reprolint/__init__.py": re.findall(
            r"\*\*([A-Z]\d)\*\*", tools.reprolint.__doc__),
        "Makefile": re.findall(r"\b[A-Z]\d\b", makefile.rsplit("\n\n", 1)[1]),
    }
    for where, ids in named.items():
        assert sorted(ids) == registered, where


def _figure_sweeps(tree: ast.AST) -> list[ast.expr]:
    """The first argument of every ``run_sweep(...)`` call in ``tree``."""
    return [
        node.args[0] for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "run_sweep" and node.args
    ]


def test_every_figure_bench_sweeps_the_figure_registry():
    """Figs 5–7 have one definition, ``repro.harness.figures``: a bench
    that re-declares its sweep instead of calling ``figure_configs`` for
    its own figure fails here."""
    benches = sorted((REPO / "benchmarks").glob("bench_fig[567]*.py"))
    assert len(benches) == 7
    for path in benches:
        figure_id = path.name.split("_")[1]  # bench_fig5a_... -> fig5a
        sweeps = _figure_sweeps(ast.parse(path.read_text(encoding="utf-8")))
        assert sweeps, f"{path.name}: no run_sweep call"
        for arg in sweeps:
            assert (
                isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                and arg.func.id == "figure_configs"
                and [ast.literal_eval(a) for a in arg.args] == [figure_id]
            ), f"{path.name}: run_sweep({ast.unparse(arg)}) is not figure_configs({figure_id!r})"


def test_every_bench_module_named_exists():
    missing = set()
    for path in [*DOCS, CI, MAKEFILE]:
        # prose counts here: the experiment tables name bench files bare
        # (and the module map names src/repro/obs/bench_history.py so)
        for rel, bare in _BENCH_PATH.findall(path.read_text(encoding="utf-8")):
            name = rel or bare
            found = (REPO / "benchmarks" / name).is_file() or (
                bare and any((REPO / "src").rglob(bare))
            )
            if not found:
                missing.add(f"{path.relative_to(REPO)}: benchmarks/{name}")
    assert not missing, sorted(missing)
