#!/usr/bin/env python
"""Alternating parent/change pairs of one ledger workload.

The procedure a performance claim rests on (choosing-metrics §8,
benchmarks/ledger/README.md "Noise"), as one command::

    python tools/ledger_pairs.py --workload fig6_chord --parent HEAD~1 [--seed 0] [--pairs 10]
    make pairs WORKLOAD=fig6_chord PARENT=HEAD~1 [SEED=0] [N=10]

The parent revision is unpacked (``git archive``) into a temporary
directory, so the working tree, its index and ``.git`` are never
touched.  Each pair runs the *unmodified* contract form
``benchmarks/ledger/run.py --workload W --seed S --seconds 10 --trace 0``
once in each tree, alternating which side goes first, and the report
gives per end-to-end metric both sides' median and quartiles, the pairs
the change won (ties count for neither side), and a row-by-row check
that ``sim_digest`` and ``ok_share`` repeat.  Values within 1e-12 of
each other are one value: ``ok_share`` is the ledger's mean over
however many repetitions fitted into the budget, and the mean of k
identical numbers rounds differently for different k.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

REPO = Path(__file__).resolve().parents[1]
RUN_SECONDS = 10
_DIGEST = re.compile(r"sim_digest=(\w+)")

Row = dict[str, Any]  # {"digest": str | None, "<metric>": float, ...}


def pair_order(index: int) -> tuple[str, str]:
    """Which side runs first in pair ``index``: parent on even pairs."""
    return ("parent", "change") if index % 2 == 0 else ("change", "parent")


def parse_run(stdout: str, stderr: str) -> Row:
    """One contract-form run -> its metrics plus the printed digest."""
    result = json.loads(stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise ValueError("the run failed its own correctness gate")
    row: Row = {name: m["value"] for name, m in result["metrics"].items()}
    found = _DIGEST.search(stderr)
    row["digest"] = found.group(1) if found else None  # live_udp prints none
    return row


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def pairs_won(parent: list[float], change: list[float], better: str) -> tuple[int, int]:
    """(pairs the change won, pairs the parent won); ties count for neither."""
    sign = -1.0 if better == "higher" else 1.0
    decided = [(p, c) for p, c in zip(parent, change) if not same(p, c)]
    won = sum(sign * c < sign * p for p, c in decided)
    return won, len(decided) - won


def report(parent: list[Row], change: list[Row], better: dict[str, str]) -> tuple[str, bool]:
    """The table, and whether digest and ``ok_share`` agreed on every
    row of a simulated workload (the live plane prints no digest)."""
    lines = [f"{'metric':<22}{'parent q1/med/q3':>34}{'change q1/med/q3':>34}  won/lost/pairs"]
    for name, direction in better.items():
        p = [row[name] for row in parent]
        c = [row[name] for row in change]
        won, lost = pairs_won(p, c, direction)
        lines.append(
            f"{name:<22}"
            + "".join(f"{'/'.join(f'{q:.4g}' for q in quartiles(side)):>34}" for side in (p, c))
            + f"  {won}/{lost}/{len(p)}"
        )
    all_same = True
    for i, (p_row, c_row) in enumerate(zip(parent, change)):
        if p_row["digest"] is None and c_row["digest"] is None:
            verdict = "not compared (wall-clock plane: no digest, nothing repeats)"
        else:
            ok = (p_row["digest"] == c_row["digest"]
                  and same(p_row["ok_share"], c_row["ok_share"]))
            all_same &= ok
            verdict = "same" if ok else "DIFFERENT"
        lines.append(
            f"pair {i}: digest {p_row['digest']} vs {c_row['digest']}, ok_share "
            f"{p_row['ok_share']:g} vs {c_row['ok_share']:g}: {verdict}"
        )
    return "\n".join(lines), all_same


def _run(tree: Path, workload: str, seed: int) -> Row:
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"ledger run failed in {tree}:\n{done.stderr}")
    return parse_run(done.stdout, done.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=(__doc__ or "").split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    rows: dict[str, list[Row]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ledger-parent-") as tmp:
        archive = subprocess.run(["git", "archive", args.parent], cwd=REPO,
                                 capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        trees = {"parent": Path(tmp), "change": REPO}
        for i in range(args.pairs):
            for side in pair_order(i):
                row = _run(trees[side], args.workload, args.seed)
                rows[side].append(row)
                print(f"pair {i} {side}: " + json.dumps(row), file=sys.stderr, flush=True)
    table, all_same = report(rows["parent"], rows["change"], better)
    print(f"{args.workload} seed={args.seed} parent={args.parent} pairs={args.pairs}")
    print(table)
    return 0 if all_same else 1


if __name__ == "__main__":
    raise SystemExit(main())
