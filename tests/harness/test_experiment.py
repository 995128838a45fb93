"""Experiment harness: config validation, world building, sampling."""

import numpy as np
import pytest

from repro.baselines.ltm import LTMConfig
from repro.baselines.pns import PNSChordOverlay
from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, build_world, run_experiment
from repro.overlay.chord import ChordOverlay
from repro.overlay.gnutella import GnutellaOverlay

# Tiny-but-real settings used across this suite; the small preset keeps a
# single run under a second.
FAST = dict(
    preset="ts-small",
    n_overlay=60,
    duration=300.0,
    sample_interval=150.0,
    lookups_per_sample=60,
)


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["live_speedup", "live_lookup_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_live_rates_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(prop=PROPConfig(), transport="udp", **{field: value})

    @pytest.mark.parametrize("value", [0.0, -60.0, float("nan")])
    def test_sample_interval_must_be_positive_and_finite(self, value):
        # 0 divided by zero, NaN failed converting to a sample count
        with pytest.raises(ValueError, match="sample_interval"):
            ExperimentConfig(sample_interval=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_duration_must_be_finite(self, value):
        # NaN failed converting to a sample count, inf overflowed it
        with pytest.raises(ValueError, match="duration must be finite"):
            ExperimentConfig(duration=value)

    def test_lookups_per_sample_must_not_be_negative(self):
        # failed inside numpy ("negative dimensions") at the first sample
        with pytest.raises(ValueError, match="lookups_per_sample"):
            ExperimentConfig(lookups_per_sample=-1)

    @pytest.mark.parametrize("value", [-5.0, float("nan"), float("inf")])
    def test_retry_timeout_is_checked_where_floods_use_it(self, value):
        # a negative requery cost silently lowered the measured latency;
        # the config, too, rejects it at construction, not at the first
        # lookup sample after the world was built
        with pytest.raises(ValueError, match="retry_timeout"):
            ExperimentConfig(flood_ttl=1, retry_timeout=value, **FAST)
        overlay = build_world(ExperimentConfig(flood_ttl=1, **FAST)).overlay
        with pytest.raises(ValueError, match="retry_timeout"):
            overlay.mean_lookup_latency(np.array([[0, 1]]), ttl=1, retry_timeout=value)

    @pytest.mark.parametrize("value", [-3, 2.5, True])
    def test_flood_ttl_must_be_a_count(self, value):
        # -3 raised only at the first lookup sample, after the world was built
        with pytest.raises(ValueError, match="flood_ttl"):
            ExperimentConfig(flood_ttl=value)

    @pytest.mark.parametrize("value", [0.0, float("nan"), float("inf")])
    def test_fast_degree_weight_must_be_finite_and_positive(self, value):
        # NaN ran, with a cast warning and a garbage degree distribution
        with pytest.raises(ValueError, match="fast_degree_weight"):
            ExperimentConfig(fast_degree_weight=value)

    @pytest.mark.parametrize("field", ["fast_ms", "slow_ms"])
    def test_bimodal_delays_must_be_finite(self, field):
        with pytest.raises(ValueError, match="finite and positive"):
            build_world(ExperimentConfig(heterogeneous=True, **{field: float("nan")}, **FAST))

    def test_unknown_overlay_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(overlay_kind="napster")

    def test_two_optimizers_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(prop=PROPConfig(), ltm=LTMConfig())

    def test_churn_needs_spares(self):
        from repro.workloads.churn import ChurnConfig

        with pytest.raises(ValueError):
            ExperimentConfig(churn=ChurnConfig(0.01), n_spare=0)

    def test_fast_lookup_needs_heterogeneity(self):
        with pytest.raises(ValueError):
            ExperimentConfig(fast_lookup_fraction=0.5, heterogeneous=False)

    def test_pns_requires_chord(self):
        with pytest.raises(ValueError):
            ExperimentConfig(overlay_kind="gnutella", pns=True)

    def test_but_overrides(self):
        cfg = ExperimentConfig(**FAST)
        cfg2 = cfg.but(n_overlay=100)
        assert cfg2.n_overlay == 100
        assert cfg2.preset == cfg.preset


class TestBuildWorld:
    def test_gnutella_world(self):
        w = build_world(ExperimentConfig(overlay_kind="gnutella", **FAST))
        assert isinstance(w.overlay, GnutellaOverlay)
        assert w.overlay.n_slots == 60
        assert w.engine is None and w.ltm is None and w.churn is None

    def test_chord_world_with_prop(self):
        w = build_world(ExperimentConfig(overlay_kind="chord", prop=PROPConfig(), **FAST))
        assert isinstance(w.overlay, ChordOverlay)
        assert w.engine is not None

    def test_pns_world(self):
        w = build_world(ExperimentConfig(overlay_kind="chord", pns=True, **FAST))
        assert isinstance(w.overlay, PNSChordOverlay)

    def test_heterogeneous_world(self):
        w = build_world(ExperimentConfig(heterogeneous=True, **FAST))
        assert w.het is not None
        assert w.het.delay_ms.shape == (60,)

    def test_spares_reserved(self):
        w = build_world(ExperimentConfig(n_spare=10, **FAST))
        assert len(w.spare_hosts) == 10
        assert set(w.spare_hosts).isdisjoint(set(w.overlay.embedding.tolist()))

    def test_too_many_members_rejected(self):
        cfg = ExperimentConfig(**{**FAST, "n_overlay": 10_000})
        with pytest.raises(ValueError):
            build_world(cfg)

    def test_same_seed_same_world(self):
        a = build_world(ExperimentConfig(**FAST))
        b = build_world(ExperimentConfig(**FAST))
        assert np.array_equal(a.overlay.embedding, b.overlay.embedding)
        assert set(a.overlay.iter_edges()) == set(b.overlay.iter_edges())

    def test_protocol_choice_does_not_change_world(self):
        a = build_world(ExperimentConfig(**FAST))
        b = build_world(ExperimentConfig(prop=PROPConfig(), **FAST))
        assert np.array_equal(a.overlay.embedding, b.overlay.embedding)
        assert set(a.overlay.iter_edges()) == set(b.overlay.iter_edges())


class TestRunExperiment:
    def test_sampling_grid(self):
        r = run_experiment(ExperimentConfig(**FAST))
        assert np.array_equal(r.times, [0.0, 150.0, 300.0])
        assert r.stretch.shape == r.lookup_latency.shape == (3,)

    def test_unoptimized_world_is_static(self):
        r = run_experiment(ExperimentConfig(**FAST))
        assert r.link_stretch[0] == pytest.approx(r.link_stretch[-1])
        assert r.probes[-1] == 0

    def test_prop_counters_accumulate(self):
        r = run_experiment(ExperimentConfig(prop=PROPConfig(), **FAST))
        assert np.all(np.diff(r.probes) >= 0)
        assert r.probes[-1] > 0
        assert r.final_counters is not None

    def test_prop_g_improves_gnutella(self):
        cfg = ExperimentConfig(prop=PROPConfig(policy="G"), **{**FAST, "duration": 900.0})
        r = run_experiment(cfg)
        assert r.final_lookup_latency < r.initial_lookup_latency
        assert r.improvement_ratio() < 1.0

    def test_ltm_counters(self):
        r = run_experiment(ExperimentConfig(ltm=LTMConfig(), **FAST))
        assert r.probes[-1] > 0  # rounds counted
        assert r.final_counters is not None

    def test_measure_lookups_false_skips(self):
        r = run_experiment(ExperimentConfig(**FAST), measure_lookups=False)
        assert np.all(np.isnan(r.lookup_latency))
        assert np.all(np.isfinite(r.link_stretch))

    @pytest.mark.parametrize("overlay_kind", ["gnutella", "chord"])
    def test_zero_lookups_per_sample_is_warning_free(self, overlay_kind):
        """Nothing to sample: no empty-slice means, series stay NaN."""
        import warnings

        cfg = ExperimentConfig(
            overlay_kind=overlay_kind, prop=PROPConfig(),
            **{**FAST, "lookups_per_sample": 0},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = run_experiment(cfg)
        assert np.all(np.isnan(r.lookup_latency))
        assert np.all(np.isnan(r.stretch))
        assert np.all(np.isfinite(r.link_stretch))
        assert r.probes[-1] > 0

    def test_churn_world_runs(self):
        from repro.workloads.churn import ChurnConfig

        cfg = ExperimentConfig(
            prop=PROPConfig(),
            churn=ChurnConfig(rate_per_node=0.001),
            n_spare=20,
            **FAST,
        )
        r = run_experiment(cfg)
        assert np.all(np.isfinite(r.stretch))

    def test_probe_rate_series(self):
        r = run_experiment(ExperimentConfig(prop=PROPConfig(), **FAST))
        rates = r.probe_rate()
        assert rates.shape == (2,)
        assert np.all(rates >= 0)


class TestApplicabilityValidation:
    def test_prop_o_on_chord_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(overlay_kind="chord", prop=PROPConfig(policy="O"))

    def test_ltm_on_can_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(overlay_kind="can", ltm=LTMConfig())

    def test_prop_g_on_pastry_accepted(self):
        cfg = ExperimentConfig(overlay_kind="pastry", prop=PROPConfig(policy="G"))
        assert cfg.overlay_kind == "pastry"
