"""Figure registry: ids, scales, config shapes."""

import pytest

from repro.harness.figures import FIGURE_IDS, figure_configs, figure_description


def test_all_figures_registered():
    assert set(FIGURE_IDS) == {
        "fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c", "fig7",
        "oracle-error",
    }


def test_oracle_error_panel_covers_backends():
    configs = figure_configs("oracle-error", scale="quick")
    assert {cfg.oracle for cfg in configs.values()} == {"exact", "vivaldi", "landmark"}
    dims = {cfg.oracle_options.get("dim") for cfg in configs.values()
            if cfg.oracle == "vivaldi"}
    assert len(dims) >= 3  # the dimensionality sweep


def test_unknown_figure_rejected():
    with pytest.raises(KeyError):
        figure_description("fig9")
    with pytest.raises(KeyError):
        figure_configs("fig9")


def test_invalid_scale_rejected():
    with pytest.raises(ValueError):
        figure_configs("fig5a", scale="huge")


@pytest.mark.parametrize("fid", FIGURE_IDS)
def test_configs_validate_at_both_scales(fid):
    for scale in ("paper", "quick"):
        configs = figure_configs(fid, scale=scale)
        assert len(configs) >= 2
        # constructing an ExperimentConfig runs its validation
        for cfg in configs.values():
            assert cfg.duration > 0


def test_ttl_panels_have_four_scenarios():
    assert len(figure_configs("fig5a")) == 4
    assert len(figure_configs("fig6a")) == 4


def test_size_panel_reaches_paper_max():
    sizes = {cfg.n_overlay for cfg in figure_configs("fig5b", scale="paper").values()}
    assert 5000 in sizes


def test_quick_scale_is_smaller():
    quick = figure_configs("fig6a", scale="quick")
    paper = figure_configs("fig6a", scale="paper")
    assert all(q.n_overlay < p.n_overlay
               for q, p in zip(quick.values(), paper.values()))


def test_fig7_covers_protocol_grid():
    configs = figure_configs("fig7", scale="quick")
    labels = set(configs)
    assert any("PROP-O" in l for l in labels)
    assert any("PROP-G" in l for l in labels)
    assert any("LTM" in l for l in labels)
    assert any("none" in l for l in labels)


def test_cli_figure_quick_run(capsys):
    """End-to-end: the CLI regenerates a figure at a tiny custom scale."""
    from repro.cli import main
    from repro.harness import figures

    # monkeypatch-free shrink: use quick scale but the smallest panel
    assert main(["figure", "fig6c", "--scale", "quick"]) == 0
    out = capsys.readouterr().out
    assert "ts-large" in out and "ts-small" in out


class TestPaperScaleIsTheBenchSweep:
    """At paper scale the registry is the sweep the benches run, the one
    EXPERIMENTS.md and benchmarks/output/ report."""

    def test_chord_panels_sample_600_lookups(self):
        for fid in ("fig6a", "fig6c"):
            assert {c.lookups_per_sample for c in figure_configs(fid).values()} == {600}

    def test_chord_size_panel_caps_lookups_at_twice_n(self):
        for cfg in figure_configs("fig6b").values():
            assert cfg.lookups_per_sample == min(600, 2 * cfg.n_overlay)

    def test_fig7_sampling_and_trade_sizes(self):
        configs = figure_configs("fig7")
        assert {(c.duration, c.sample_interval, c.lookups_per_sample)
                for c in configs.values()} == {(1800.0, 900.0, 600)}
        assert {c.prop.m for c in configs.values()
                if c.prop is not None and c.prop.policy == "O"} == {1, 2, 4}
        assert len(configs) == 6 * 5  # 5 protocols + none, 5 fractions

    def test_labels_are_the_bench_labels(self):
        assert list(figure_configs("fig5a")) == [
            "n=1000, nhops=1", "n=1000, nhops=2", "n=1000, nhops=4", "n=1000, random",
        ]
        assert list(figure_configs("fig6b")) == [
            f"n={n}, nhops=2" for n in (300, 500, 1000, 5000)
        ]
        assert list(figure_configs("fig5c")) == ["ts-large", "ts-small"]
        assert "PROP-O (m=2) phi=0.25" in figure_configs("fig7")

    def test_bench_helpers_build_on_the_registry(self):
        from benchmarks.common import fig7_config, paper_config

        paper = figure_configs("fig5c")["ts-large"]
        assert paper_config(overlay_kind="gnutella", prop=paper.prop) == paper
        het = figure_configs("fig7")["PROP-G phi=0.0"]
        assert fig7_config(overlay_kind="gnutella", prop=het.prop,
                           fast_lookup_fraction=0.0) == het
