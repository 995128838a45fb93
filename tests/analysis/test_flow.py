"""The concurrency rule (C1) against its known-bad fixture tree, and
the dead-suppression audit.
"""

from pathlib import Path

from tools.reprolint.engine import analyze

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _findings(fixture: str, rule: str):
    return [
        f
        for f in analyze(FIXTURES / fixture, repo=REPO, select=[rule])
        if f.rule == rule
    ]


class TestC1AwaitInterleaving:
    def test_flags_stale_write_and_sinkless_tasks(self):
        found = _findings("c1_bad", "C1")
        messages = " | ".join(f.message for f in found)
        assert "`self.version` was read before an `await`" in messages
        assert "fire-and-forget task" in messages
        assert "task bound to `task` has no exception sink" in messages
        # refresh_ok / spawn_sunk / spawn_returned stay clean
        assert len(found) == 3

    def test_revalidated_write_is_clean(self):
        found = _findings("c1_bad", "C1")
        lines = {f.line for f in found}
        # refresh_ok revalidates (line ~22): no finding there
        assert all(f.line < 20 or f.line > 25 for f in found), lines


class TestSuppressionAudit:
    def _tree(self, tmp_path, text):
        (tmp_path / "core").mkdir(exist_ok=True)
        (tmp_path / "core" / "x.py").write_text(text, encoding="utf-8")
        return tmp_path

    def test_used_suppression_is_not_stale(self, tmp_path):
        root = self._tree(
            tmp_path, "for x in {3, 1, 2}:  # reprolint: disable=D3\n    y = x\n"
        )
        assert analyze(root, repo=tmp_path) == []

    def test_dead_suppression_is_stale(self, tmp_path):
        root = self._tree(
            tmp_path,
            "for x in {3, 1, 2}:  # reprolint: disable=D3\n    y = x\n"
            "z = sorted({1})  # reprolint: disable=D1\n",
        )
        found = analyze(root, repo=tmp_path)
        assert [(f.rule, f.path, f.line) for f in found] == [("E998", "core/x.py", 3)]
        assert "suppression 'D1' masks no finding" in found[0].message

    def test_select_does_not_condemn_unselected_rules_suppressions(self, tmp_path):
        root = self._tree(
            tmp_path, "for x in {3, 1, 2}:  # reprolint: disable=D3\n    y = x\n"
        )
        assert analyze(root, repo=tmp_path, select=["D1"]) == []

    def test_real_tree_has_no_stale_suppressions(self):
        found = [
            f for f in analyze(REPO / "src" / "repro", repo=REPO) if f.rule == "E998"
        ]
        assert found == [], "\n".join(f.render() for f in found)
