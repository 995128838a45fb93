"""Churn process: replacement semantics, rates, windows, callbacks."""

import numpy as np
import pytest

from repro.netsim.engine import Simulator
from repro.netsim.rng import RngRegistry
from repro.overlay.base import Overlay
from repro.workloads.churn import ChurnConfig, ChurnProcess


def _world(small_oracle, n_overlay=20, n_spare=10):
    ov = Overlay(small_oracle, np.arange(n_overlay))
    for i in range(n_overlay):
        ov.add_edge(i, (i + 1) % n_overlay)
    spare = list(range(n_overlay, n_overlay + n_spare))
    return ov, spare


class TestConfig:
    def test_negative_rate_rejected(self):
        for rate in (-1.0, np.nan, np.inf):  # inf would reschedule at one instant forever
            with pytest.raises(ValueError):
                ChurnConfig(rate_per_node=rate)

    def test_bad_window_rejected(self):
        for start, stop in ((10.0, 5.0), (-1.0, np.inf), (np.nan, np.inf)):
            with pytest.raises(ValueError):
                ChurnConfig(rate_per_node=0.1, start=start, stop=stop)


class TestReplacement:
    def test_replace_swaps_host_with_spare(self, small_oracle):
        ov, spare = _world(small_oracle)
        proc = ChurnProcess(ov, ChurnConfig(0.0), Simulator(), np.random.default_rng(0), spare)
        hosts_before = set(ov.embedding.tolist())
        pool_before = set(proc.spare)
        slot = proc.replace_random_slot()
        assert ov.host_at(slot) in pool_before
        # departed host returned to the pool
        assert set(proc.spare) | set(ov.embedding.tolist()) == hosts_before | pool_before

    def test_embedding_stays_injective(self, small_oracle):
        ov, spare = _world(small_oracle)
        proc = ChurnProcess(ov, ChurnConfig(0.0), Simulator(), np.random.default_rng(0), spare)
        for _ in range(50):
            proc.replace_random_slot()
        assert len(set(ov.embedding.tolist())) == ov.n_slots

    def test_topology_untouched(self, small_oracle):
        ov, spare = _world(small_oracle)
        edges = set(ov.iter_edges())
        proc = ChurnProcess(ov, ChurnConfig(0.0), Simulator(), np.random.default_rng(0), spare)
        for _ in range(20):
            proc.replace_random_slot()
        assert set(ov.iter_edges()) == edges

    def test_callback_fires(self, small_oracle):
        ov, spare = _world(small_oracle)
        seen = []
        proc = ChurnProcess(
            ov, ChurnConfig(0.0), Simulator(), np.random.default_rng(0),
            spare, on_replace=seen.append
        )
        slot = proc.replace_random_slot()
        assert seen == [slot]

    def test_embedded_spare_rejected(self, small_oracle):
        ov, _ = _world(small_oracle)
        with pytest.raises(ValueError):
            ChurnProcess(ov, ChurnConfig(0.0), Simulator(), np.random.default_rng(0), [0])


class TestProcess:
    def test_poisson_rate_approximately_honoured(self, small_oracle):
        ov, spare = _world(small_oracle)
        sim = Simulator()
        rate = 0.001  # per node per second; aggregate = 0.02/s
        proc = ChurnProcess(ov, ChurnConfig(rate), sim, RngRegistry(7).stream("churn"), spare)
        proc.start()
        sim.run_until(10_000.0)
        expected = rate * ov.n_slots * 10_000.0
        assert 0.5 * expected < proc.events < 1.5 * expected

    def test_window_respected(self, small_oracle):
        ov, spare = _world(small_oracle)
        sim = Simulator()
        cfg = ChurnConfig(0.01, start=100.0, stop=200.0)
        proc = ChurnProcess(ov, cfg, sim, RngRegistry(7).stream("churn"), spare)
        proc.start()
        sim.run_until(99.0)
        assert proc.events == 0
        sim.run_until(5000.0)
        assert proc.events > 0
        count_at_stop = proc.events
        sim.run_until(20_000.0)
        assert proc.events == count_at_stop

    def test_zero_rate_never_fires(self, small_oracle):
        ov, spare = _world(small_oracle)
        sim = Simulator()
        proc = ChurnProcess(ov, ChurnConfig(0.0), sim, RngRegistry(7).stream("churn"), spare)
        proc.start()
        sim.run_until(10_000.0)
        assert proc.events == 0

    def test_double_start_rejected(self, small_oracle):
        ov, spare = _world(small_oracle)
        proc = ChurnProcess(ov, ChurnConfig(0.0), Simulator(), np.random.default_rng(0), spare)
        proc.start()
        with pytest.raises(RuntimeError):
            proc.start()
