"""Engine mechanics: suppressions (live and dead), parse errors, CLI."""

from tools.reprolint.__main__ import main
from tools.reprolint.engine import analyze

D3_VIOLATION = "for x in {3, 1, 2}:\n    y = x\n"


def _core_file(tmp_path, text, name="x.py"):
    """Lay out ``text`` as repro.core.<name> under a fixture root."""
    (tmp_path / "core").mkdir(exist_ok=True)
    (tmp_path / "core" / name).write_text(text, encoding="utf-8")
    return tmp_path


def _d3(tmp_path):
    return [f for f in analyze(tmp_path, repo=tmp_path) if f.rule == "D3"]


class TestSuppressions:
    def test_unsuppressed_violation_is_reported(self, tmp_path):
        _core_file(tmp_path, D3_VIOLATION)
        assert len(_d3(tmp_path)) == 1

    def test_same_line_suppression(self, tmp_path):
        _core_file(tmp_path, "for x in {3, 1, 2}:  # reprolint: disable=D3\n    y = x\n")
        assert _d3(tmp_path) == []

    def test_comment_line_above_suppression(self, tmp_path):
        _core_file(tmp_path, "# order-independent  # reprolint: disable=D3\n" + D3_VIOLATION)
        assert _d3(tmp_path) == []

    def test_disable_all(self, tmp_path):
        _core_file(tmp_path, "for x in {3, 1, 2}:  # reprolint: disable=all\n    y = x\n")
        assert _d3(tmp_path) == []

    def test_multi_rule_list(self, tmp_path):
        _core_file(
            tmp_path,
            "for x in {3, 1, 2}:  # reprolint: disable=D1, D3\n    y = x\n",
        )
        assert _d3(tmp_path) == []

    def test_other_rule_does_not_suppress(self, tmp_path):
        _core_file(tmp_path, "for x in {3, 1, 2}:  # reprolint: disable=D1\n    y = x\n")
        assert len(_d3(tmp_path)) == 1

    def test_trailing_comment_on_previous_statement_does_not_leak(self, tmp_path):
        # a suppression trailing statement N must not silence line N+1
        _core_file(tmp_path, "y = 1  # reprolint: disable=D3\n" + D3_VIOLATION)
        assert len(_d3(tmp_path)) == 1


class TestParseErrors:
    def test_unparseable_module_is_an_e999_finding(self, tmp_path):
        _core_file(tmp_path, "def broken(:\n")
        found = analyze(tmp_path, repo=tmp_path)
        assert [f.rule for f in found] == ["E999"]
        assert "unparseable module" in found[0].message


class TestCli:
    def test_usage_error_on_bad_root(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path / "absent")]) == 3
        assert "not a directory" in capsys.readouterr().err

    def test_new_findings_exit_1(self, tmp_path, capsys):
        root = _core_file(tmp_path, D3_VIOLATION)
        code = main(["--root", str(root)])
        captured = capsys.readouterr()
        assert code == 1
        assert "core/x.py:1:9: D3 unsorted set iteration" in captured.out
        assert "1 finding(s)" in captured.err

    def test_clean_tree_exit_0(self, tmp_path, capsys):
        root = _core_file(
            tmp_path, "for x in {3, 1, 2}:  # reprolint: disable=D3\n    y = x\n"
        )
        assert main(["--root", str(root)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0 finding(s)" in captured.err

    def test_dead_suppression_fails_the_default_run(self, tmp_path, capsys):
        root = _core_file(
            tmp_path, "for x in sorted({3, 1, 2}):  # reprolint: disable=D3\n    y = x\n"
        )
        code = main(["--root", str(root)])
        captured = capsys.readouterr()
        assert code == 1
        assert "core/x.py:1:0: E998 suppression 'D3' masks no finding" in captured.out

    def test_select_restricts_rules(self, tmp_path, capsys):
        root = _core_file(tmp_path, "import random\n" + D3_VIOLATION)
        code = main(["--root", str(root), "--select", "D1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "D1" in captured.out
        assert "D3" not in captured.out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == ["C1", "D1", "D3", "D5"]
