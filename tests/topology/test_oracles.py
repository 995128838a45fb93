"""Backend parity: every latency oracle honors the same protocol contract."""

import numpy as np
import pytest

from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.sweep import run_sweep
from repro.netsim.rng import RngRegistry
from repro.topology.factory import ORACLE_BACKENDS, build_oracle
from repro.topology.landmark import LandmarkOracle, choose_landmarks
from repro.topology.latency import LatencyOracle
from repro.topology.presets import build_preset
from repro.topology.transit_stub import (
    TIER_STUB,
    PhysicalNetwork,
    TransitStubParams,
    generate_transit_stub,
)

N = 60


@pytest.fixture(scope="module")
def net():
    return generate_transit_stub(
        TransitStubParams(2, 3, 2, 6), RngRegistry(5).stream("t")
    )


@pytest.fixture(scope="module")
def hosts(net):
    return RngRegistry(5).stream("m").choice(net.n, size=N, replace=False)


@pytest.fixture(scope="module", params=ORACLE_BACKENDS)
def oracle(request, net, hosts):
    return build_oracle(request.param, net, hosts, seed=7)


class TestProtocolInvariants:
    """Contracts every backend must satisfy (parametrized over all three)."""

    def test_estimates_are_symmetric_nonnegative_zero_diagonal(self, oracle):
        d = oracle.dense()
        assert d.shape == (N, N)
        assert np.all(np.isfinite(d))
        assert np.all(d >= 0)
        assert np.allclose(d, d.T)
        assert np.all(np.diagonal(d) == 0.0)

    def test_between_matches_pairwise(self, oracle):
        rng = np.random.default_rng(0)
        a = rng.integers(0, N, size=20)
        b = rng.integers(0, N, size=20)
        elementwise = oracle.pairwise(a, b)
        for k in range(20):
            assert oracle.between(int(a[k]), int(b[k])) == elementwise[k]

    def test_to_many_matches_between(self, oracle):
        others = np.array([0, 3, 7, 12, 12, 59])
        vec = oracle.to_many(5, others)
        assert vec.shape == (6,)
        for k, j in enumerate(others):
            assert vec[k] == oracle.between(5, int(j))
        assert oracle.to_many(5, []).shape == (0,)

    def test_rows_match_to_many(self, oracle):
        everyone = np.arange(N, dtype=np.intp)
        rows = oracle.rows([2, 9])
        assert rows.shape == (2, N)
        assert np.array_equal(rows[0], oracle.to_many(2, everyone))
        assert np.array_equal(rows[1], oracle.to_many(9, everyone))

    def test_sum_to_matches_to_many(self, oracle):
        others = [1, 4, 44]
        assert oracle.sum_to(8, others) == pytest.approx(
            float(oracle.to_many(8, others).sum())
        )
        assert oracle.sum_to(8, []) == 0.0

    def test_mean_pairwise_matches_dense(self, oracle):
        assert oracle.mean_pairwise() == pytest.approx(float(oracle.dense().mean()))

    def test_n_and_state(self, oracle):
        assert oracle.n == N
        assert oracle.state_nbytes() > 0
        assert oracle.mean_physical_link() > 0

    def test_same_inputs_same_estimates(self, oracle, net, hosts):
        again = build_oracle(oracle.backend, net, hosts, seed=7)
        assert np.array_equal(oracle.dense(), again.dense())


class TestFactory:
    def test_unknown_backend_rejected(self, net, hosts):
        with pytest.raises(ValueError, match="unknown oracle backend"):
            build_oracle("psychic", net, hosts)

    def test_unknown_option_rejected(self, net, hosts):
        with pytest.raises(ValueError, match="unknown 'vivaldi' oracle option"):
            build_oracle("vivaldi", net, hosts, options={"dims": 4})

    def test_vivaldi_stream_isolated_from_master_seed(self, net, hosts):
        """Different master seeds give different fits; the stream name
        keeps the fit from colliding with any other component's draws."""
        a = build_oracle("vivaldi", net, hosts, seed=0)
        b = build_oracle("vivaldi", net, hosts, seed=1)
        assert not np.array_equal(a.coords, b.coords)


class TestAccuracy:
    """Embedding error bounds on the transit-stub presets."""

    @pytest.mark.parametrize("preset", ["ts-small", "ts-large"])
    def test_vivaldi_median_error_bounded(self, preset):
        rngs = RngRegistry(11)
        network = build_preset(preset, rngs.stream("topology"))
        members = rngs.stream("membership").choice(
            network.stub_hosts, size=200, replace=False
        )
        oracle = build_oracle("vivaldi", network, members, seed=11)
        err = oracle.error_summary()
        # pinned bound: the 4-d height fit stays well under 30% median
        # relative error on both GT-ITM presets (typical: 0.10-0.20)
        assert err["median_rel_error"] < 0.30
        assert err["p90_rel_error"] < 1.0

    def test_landmark_cross_domain_near_exact(self):
        """Triangulation through per-domain transit landmarks: estimates
        are upper bounds, near-exact for cross-domain pairs."""
        rngs = RngRegistry(11)
        network = build_preset("ts-small", rngs.stream("topology"))
        members = rngs.stream("membership").choice(
            network.stub_hosts, size=120, replace=False
        )
        exact = LatencyOracle(network, members)
        lm = LandmarkOracle(network, members)
        est, truth = lm.dense(), exact.dense()
        off = ~np.eye(len(members), dtype=bool)
        # triangle estimates can never undershoot the true shortest path
        assert np.all(est[off] >= truth[off] - 1e-9)
        dom = network.domain[members]
        cross = off & (dom[:, None] != dom[None, :])
        rel = (est[cross] - truth[cross]) / truth[cross]
        assert float(np.median(rel)) < 0.10

    def test_landmark_choice_deterministic_per_domain(self):
        rngs = RngRegistry(11)
        network = build_preset("ts-small", rngs.stream("topology"))
        a = choose_landmarks(network, 2)
        b = choose_landmarks(network, 2)
        assert np.array_equal(a, b)
        assert np.array_equal(a, np.sort(a))

    def test_landmark_rejects_a_network_without_transit_tier(self):
        """Landmarks anchor transit domains; a flat network has none."""
        net = PhysicalNetwork(
            n=4,
            edges_u=np.array([0, 1, 2], dtype=np.int32),
            edges_v=np.array([1, 2, 3], dtype=np.int32),
            edges_w=np.array([5.0, 5.0, 5.0]),
            tier=np.full(4, TIER_STUB, dtype=np.int8),
            domain=np.zeros(4, dtype=np.int32),
        )
        net.validate()
        with pytest.raises(ValueError, match="transit"):
            LandmarkOracle(net, np.arange(4))


FAST = dict(
    preset="ts-small",
    n_overlay=80,
    duration=900.0,
    sample_interval=300.0,
    lookups_per_sample=80,
)


class TestEndToEnd:
    def test_vivaldi_run_replays_exactly(self):
        cfg = ExperimentConfig(prop=PROPConfig(policy="G"), oracle="vivaldi", **FAST)
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert np.array_equal(a.lookup_latency, b.lookup_latency)
        assert np.array_equal(a.exchanges, b.exchanges)

    def test_vivaldi_serial_matches_workers(self):
        """Byte-identical series serial vs a 2-worker pool (the named
        oracle stream never perturbs any other component's draws)."""
        cfg = ExperimentConfig(prop=PROPConfig(policy="G"), oracle="vivaldi", **FAST)
        serial = run_experiment(cfg)
        pooled = run_sweep({"run": cfg}, workers=2)["run"]
        assert np.array_equal(serial.times, pooled.times)
        assert np.array_equal(serial.lookup_latency, pooled.lookup_latency)
        assert np.array_equal(serial.stretch, pooled.stretch)
        assert np.array_equal(serial.probes, pooled.probes)
        assert np.array_equal(serial.exchanges, pooled.exchanges)

    @pytest.mark.parametrize("backend", ["vivaldi", "landmark"])
    def test_propg_improves_under_approximate_oracle(self, backend):
        cfg = ExperimentConfig(prop=PROPConfig(policy="G"), oracle=backend, **FAST)
        result = run_experiment(cfg)
        assert result.final_lookup_latency < result.initial_lookup_latency

    def test_backend_choice_leaves_membership_untouched(self):
        """Same seed, different backends → identical member placement
        and initial overlay (the oracle stream is isolated)."""
        from repro.harness.experiment import build_world

        worlds = {
            b: build_world(ExperimentConfig(oracle=b, **FAST))
            for b in ORACLE_BACKENDS
        }
        ref = worlds["exact"]
        for w in worlds.values():
            assert np.array_equal(w.oracle.hosts, ref.oracle.hosts)
            assert np.array_equal(w.overlay.embedding, ref.overlay.embedding)
            assert sorted(w.overlay.iter_edges()) == sorted(ref.overlay.iter_edges())
