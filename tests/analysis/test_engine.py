"""Engine mechanics: findings, parse errors, CLI."""

from tools.reprolint.__main__ import main
from tools.reprolint.engine import analyze

D5_VIOLATION = "def meddle(engine):\n    engine.overlay.add_edge(0, 1)\n"


def _workloads_file(tmp_path, text, name="x.py"):
    """Lay out ``text`` as repro.workloads.<name> under a fixture root."""
    (tmp_path / "workloads").mkdir(exist_ok=True)
    (tmp_path / "workloads" / name).write_text(text, encoding="utf-8")
    return tmp_path


class TestFindings:
    def test_violation_is_reported(self, tmp_path):
        _workloads_file(tmp_path, D5_VIOLATION)
        assert [f.rule for f in analyze(tmp_path, repo=tmp_path)] == ["D5"]


class TestParseErrors:
    def test_unparseable_module_is_an_e999_finding(self, tmp_path):
        _workloads_file(tmp_path, "def broken(:\n")
        found = analyze(tmp_path, repo=tmp_path)
        assert [f.rule for f in found] == ["E999"]
        assert "unparseable module" in found[0].message


class TestCli:
    def test_usage_error_on_bad_root(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path / "absent")]) == 3
        assert "not a directory" in capsys.readouterr().err

    def test_new_findings_exit_1(self, tmp_path, capsys):
        root = _workloads_file(tmp_path, D5_VIOLATION)
        code = main(["--root", str(root)])
        captured = capsys.readouterr()
        assert code == 1
        assert "workloads/x.py:2:4: D5 overlay mutation" in captured.out
        assert "1 finding(s)" in captured.err

    def test_clean_tree_exit_0(self, tmp_path, capsys):
        root = _workloads_file(tmp_path, "def read(engine):\n    return engine.overlay.degree(0)\n")
        assert main(["--root", str(root)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0 finding(s)" in captured.err
