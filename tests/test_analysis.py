"""Analysis package: summaries, comparisons, and the CLI front-ends."""

import pytest

from repro.analysis.compare import compare_results, summarize_result
from repro.cli import main
from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.persistence import save_result

FAST = dict(
    preset="ts-small",
    n_overlay=60,
    duration=600.0,
    sample_interval=300.0,
    lookups_per_sample=50,
)


@pytest.fixture(scope="module")
def plain():
    return run_experiment(ExperimentConfig(**FAST))


@pytest.fixture(scope="module")
def optimized():
    return run_experiment(ExperimentConfig(prop=PROPConfig(policy="G"), **FAST))


class TestCompare:
    def test_optimized_wins_lookup(self, plain, optimized):
        report = compare_results(plain, optimized, label_a="plain", label_b="PROP-G")
        (lookup,) = [m for m in report.metrics if m.metric == "lookup_latency"]
        assert lookup.verdict == "B better"

    def test_self_comparison_is_tie(self, plain):
        report = compare_results(plain, plain)
        assert all(m.verdict == "tie" for m in report.metrics)

    def test_ratio_and_delta(self, plain, optimized):
        report = compare_results(plain, optimized)
        m = next(x for x in report.metrics if x.metric == "lookup_latency")
        assert m.ratio == pytest.approx(m.b_final / m.a_final)
        assert m.delta == pytest.approx(m.b_final - m.a_final)

    def test_to_text(self, plain, optimized):
        text = compare_results(plain, optimized, label_a="x", label_b="y").to_text()
        assert "A = x" in text and "verdict" in text


class TestSummarize:
    def test_contains_metrics(self, optimized):
        text = summarize_result(optimized, label="demo")
        assert "== demo ==" in text
        assert "lookup_latency" in text and "link_stretch" in text

    def test_works_on_stored_result(self, optimized, tmp_path):
        from repro.harness.persistence import load_result

        stored = load_result(save_result(optimized, tmp_path / "r.json"))
        text = summarize_result(stored)
        assert "final/initial" in text


class TestCliIntegration:
    def test_run_save_show_compare(self, tmp_path, capsys):
        common = ["run", "--preset", "ts-small", "--n", "60", "--duration", "300",
                  "--sample-interval", "150", "--lookups", "30"]
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        assert main(common + ["--save", a]) == 0
        assert main(common + ["--policy", "G", "--save", b]) == 0
        capsys.readouterr()

        assert main(["show", a]) == 0
        out = capsys.readouterr().out
        assert "final/initial" in out

        assert main(["compare", a, b]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "B better" in out or "tie" in out
