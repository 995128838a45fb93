"""tools/ledger_pairs.py — pairing order and report arithmetic.

No benchmark runs here: the functions are fed canned result lines of
the ledger's contract form.
"""

import json
import statistics

import pytest

from tools.ledger_pairs import pair_order, pairs_won, parse_run, quartiles, report

BETTER = {"wall_s_per_sim_hour": "lower", "ok_share": "higher"}


def _stdout(wall: float, ok: float = 1.0, correct: bool = True) -> str:
    result = {"correct": correct, "attempted": 10, "failed": 0, "metrics": {
        "wall_s_per_sim_hour": {"value": wall, "unit": "s"},
        "ok_share": {"value": ok, "unit": "ratio"},
    }}
    return "warming up\n" + json.dumps(result) + "\n"


def _stderr(digest: str) -> str:
    return f"fig6_chord  seed=0  reps=5  sim_digest={digest}\n  setup_s   0.17 s\n"


def _rows(walls, digest="aa11", ok=1.0):
    return [parse_run(_stdout(w, ok), _stderr(digest)) for w in walls]


def test_sides_alternate_starting_with_the_parent():
    assert [pair_order(i)[0] for i in range(4)] == ["parent", "change", "parent", "change"]
    assert all(set(pair_order(i)) == {"parent", "change"} for i in range(4))


def test_parse_run_reads_the_last_stdout_line_and_the_digest():
    row = parse_run(_stdout(1.25, 0.5), _stderr("550612726f6ccf30"))
    assert row == {"wall_s_per_sim_hour": 1.25, "ok_share": 0.5,
                   "digest": "550612726f6ccf30"}
    assert parse_run(_stdout(7.5), "live_udp  seed=0  reps=3\n")["digest"] is None


def test_parse_run_refuses_a_run_that_failed_its_gate():
    with pytest.raises(ValueError):
        parse_run(_stdout(1.0, correct=False), _stderr("aa11"))


def test_quartiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_pairs_won_counts_ties_for_neither_side():
    parent, change = [1.0, 1.0, 1.0, 1.0], [0.5, 1.0, 2.0, 0.9]
    assert pairs_won(parent, change, "lower") == (2, 1)
    assert pairs_won(parent, change, "higher") == (1, 2)


def test_a_mean_over_a_different_repetition_count_is_the_same_value():
    """``ok_share`` is a mean over however many repetitions fitted, and
    means of k copies of one value differ in the last bit between k's."""
    x = 0.9990451941438574
    low, high = sorted({statistics.fmean([x] * k) for k in range(1, 9)})
    assert pairs_won([low], [high], "higher") == (0, 0)
    _, same = report(_rows([1.0], ok=low), _rows([1.0], ok=high), BETTER)
    assert same
    _, same = report(_rows([1.0], ok=low), _rows([1.0], ok=low - 1e-9), BETTER)
    assert not same


def test_report_medians_wins_and_row_equality():
    parent = _rows([1.30, 1.20, 1.40])
    change = _rows([0.60, 0.70, 0.65])
    table, same = report(parent, change, BETTER)
    wall = next(line for line in table.splitlines() if line.startswith("wall_s_per_sim_hour"))
    assert "1.25/1.3/1.35" in wall and "0.625/0.65/0.675" in wall
    assert wall.endswith("3/0/3")
    ok = next(line for line in table.splitlines() if line.startswith("ok_share"))
    assert ok.endswith("0/0/3")  # exact repeats are ties
    assert same and table.count(": same") == 3


def test_report_flags_a_digest_or_ok_share_that_moved():
    parent = _rows([1.0, 1.0])
    moved_digest = _rows([1.0], "aa11") + _rows([1.0], "bb22")
    table, same = report(parent, moved_digest, BETTER)
    assert not same and table.count("DIFFERENT") == 1
    _, same = report(parent, _rows([1.0, 1.0], ok=0.9), BETTER)
    assert not same


def test_live_rows_are_reported_but_not_judged():
    live = "live_udp  seed=0  reps=3\n"
    parent = [parse_run(_stdout(7.5, 0.9998), live)]
    change = [parse_run(_stdout(7.5, 1.0), live)]
    table, same = report(parent, change, BETTER)
    assert same and "not compared" in table
