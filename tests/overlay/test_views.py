"""The overlay's derived per-slot views never go stale.

``Overlay`` caches, per slot, the sorted neighbor tuple, the neighbor
index array and the neighbor-latency sum (DESIGN.md "Derived state").
The contract is bit-identity with a fresh recompute, so a hypothesis
state machine drives every mutation primitive, interleaved with reads
that warm an arbitrary subset of the views, and after *every* step
inspects the cache entries that exist: none may differ from what the
graph and the embedding say now.  Sums are compared with ``==`` on the
exact oracle (integer latencies) and on a Vivaldi oracle (non-integer,
so summation order matters too).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.exchange import execute_prop_g, execute_prop_o
from repro.core.varcalc import evaluate_prop_g, select_prop_o
from repro.netsim.rng import RngRegistry
from repro.overlay.base import Overlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.gnutella import GnutellaOverlay
from repro.topology.latency import LatencyOracle
from repro.topology.transit_stub import generate_transit_stub
from repro.topology.vivaldi import VivaldiOracle
from tests.conftest import SMALL_PARAMS
from tests.properties.util import fresh_sum, stale_views

N_HOSTS = 40  # oracle members: 24 start in the overlay, the rest replace them
N_SLOTS = 24


@lru_cache(maxsize=None)
def _oracle(backend: str):
    rngs = RngRegistry(4321)
    net = generate_transit_stub(SMALL_PARAMS, rngs.stream("views-topology"))
    hosts = rngs.stream("views-members").choice(net.stub_hosts, size=N_HOSTS, replace=False)
    if backend == "exact":
        return LatencyOracle(net, hosts)
    return VivaldiOracle(net, hosts, rngs.stream("views-vivaldi"),
                         neighbors=12, holdout=2, iterations=32)


def _build(kind: str, backend: str):
    oracle = _oracle(backend)
    rng = RngRegistry(7).stream(f"views-{kind}")
    embedding = np.arange(N_SLOTS, dtype=np.intp)
    if kind == "gnutella":
        return GnutellaOverlay.build(oracle, rng, min_degree=3, embedding=embedding)
    return ChordOverlay.build(oracle, rng, embedding=embedding)


def reference_var(ov, u: int, v: int) -> float:
    """Swap, measure, swap back — on a private copy of the embedding."""
    before = fresh_sum(ov, u) + fresh_sum(ov, v)
    swapped = ov.embedding.copy()
    swapped[u], swapped[v] = swapped[v], swapped[u]
    return before - (fresh_sum(ov, u, swapped) + fresh_sum(ov, v, swapped))


def assert_no_stale_view(ov) -> None:
    assert stale_views(ov) == []
    assert len(ov._nbr_sorted) == len(ov._nbr_index) == len(ov._nbr_sum) == ov.n_slots


def assert_reads_fresh(ov) -> None:
    for s in range(ov.n_slots):
        assert ov.neighbor_list(s) == sorted(ov._adj[s])
        assert ov.sorted_neighbors(s) is ov.sorted_neighbors(s)
        assert ov.neighbor_index(s).tolist() == sorted(ov._adj[s])
        assert ov.neighbor_latency_sum(s) == fresh_sum(ov, s)


draw = st.integers(0, 10**6)


class ViewCoherence(RuleBasedStateMachine):
    KIND = "gnutella"
    BACKEND = "exact"

    def __init__(self) -> None:
        super().__init__()
        self.ov = _build(self.KIND, self.BACKEND)
        self.parents: list = []  # overlays a copy was taken from

    # -- helpers -----------------------------------------------------------

    def slot(self, x: int) -> int:
        return x % self.ov.n_slots

    def neighbor_of(self, a: int, i: int) -> int | None:
        nbrs = sorted(self.ov._adj[a])
        return nbrs[i % len(nbrs)] if nbrs else None

    def free_host(self, x: int) -> int | None:
        free = np.setdiff1d(np.arange(N_HOSTS), self.ov.embedding)
        return int(free[x % free.size]) if free.size else None

    # -- reads: warm an arbitrary subset of the views -----------------------

    @rule(a=draw, which=st.integers(1, 7))
    def read_some(self, a, which):
        a = self.slot(a)
        if which & 1:
            assert list(self.ov.sorted_neighbors(a)) == sorted(self.ov._adj[a])
        if which & 2:
            assert set(self.ov.neighbor_index(a).tolist()) == self.ov._adj[a]
        if which & 4:
            assert self.ov.neighbor_latency_sum(a) == fresh_sum(self.ov, a)

    @rule()
    def read_all(self):
        assert_reads_fresh(self.ov)

    @rule(a=draw, b=draw, adjacent=st.booleans())
    def var_is_a_pure_read(self, a, b, adjacent):
        ov = self.ov
        u = self.slot(a)
        v = self.neighbor_of(u, b) if adjacent else self.slot(b)
        if v is None or v == u:
            return
        versions = (ov.topology_version, ov.embedding_version)
        emb = ov.embedding.copy()
        assert evaluate_prop_g(ov, u, v) == reference_var(ov, u, v)
        select_prop_o(ov, u, v, 2)
        assert (ov.topology_version, ov.embedding_version) == versions
        assert np.array_equal(ov.embedding, emb)

    # -- graph mutations -----------------------------------------------------

    @rule(a=draw, b=draw)
    def add_edge(self, a, b):
        a, b = self.slot(a), self.slot(b)
        if a != b and not self.ov.has_edge(a, b):
            self.ov.add_edge(a, b)

    @rule(a=draw, i=draw)
    def remove_edge(self, a, i):
        a = self.slot(a)
        b = self.neighbor_of(a, i)
        if b is not None:
            self.ov.remove_edge(a, b)

    @rule(a=draw, i=draw, c=draw, d=draw)
    def rewire(self, a, i, c, d):
        a, c, d = self.slot(a), self.slot(c), self.slot(d)
        b = self.neighbor_of(a, i)
        if b is not None and c != d and not self.ov.has_edge(c, d):
            self.ov.rewire(a, b, c, d)

    # -- embedding mutations ---------------------------------------------------

    @rule(a=draw, b=draw)
    def swap_embedding(self, a, b):
        self.ov.swap_embedding(self.slot(a), self.slot(b))

    @rule(a=draw, h=draw)
    def replace_host(self, a, h):
        host = self.free_host(h)
        if host is not None:
            self.ov.replace_host(self.slot(a), host)

    @rule(a=draw, b=draw)
    def prop_g(self, a, b):
        u, v = self.slot(a), self.slot(b)
        if u != v:
            execute_prop_g(self.ov, u, v)

    @rule(a=draw, b=draw)
    def prop_o(self, a, b):
        u, v = self.slot(a), self.slot(b)
        if u == v:
            return
        give_u, give_v, _ = select_prop_o(self.ov, u, v, 2)
        if give_u:
            execute_prop_o(self.ov, u, v, give_u, give_v)

    @rule(warm=st.booleans())
    def copy(self, warm):
        if warm:
            assert_reads_fresh(self.ov)
        clone = self.ov.copy()
        assert type(clone) is type(self.ov)
        assert all(mine is not theirs for mine, theirs in zip(clone._adj, self.ov._adj))
        for view in (clone._nbr_sorted, clone._nbr_index, clone._nbr_sum):
            assert view == [None] * clone.n_slots  # inherits nothing
        # keep mutating the clone; the original must stay coherent with itself
        self.parents = [self.ov]
        self.ov = clone

    @invariant()
    def no_stale_view_anywhere(self):
        assert_no_stale_view(self.ov)
        for parent in self.parents:
            assert_no_stale_view(parent)


def _machine(kind: str, backend: str):
    cls = type(f"ViewCoherence_{kind}_{backend}", (ViewCoherence,),
               {"KIND": kind, "BACKEND": backend})
    cls.TestCase.settings = settings(max_examples=40, stateful_step_count=50, deadline=None)
    return cls.TestCase


TestGnutellaExact = _machine("gnutella", "exact")
TestGnutellaVivaldi = _machine("gnutella", "vivaldi")
TestChordExact = _machine("chord", "exact")
TestChordVivaldi = _machine("chord", "vivaldi")


@pytest.mark.parametrize("backend", ["exact", "vivaldi"])
@pytest.mark.parametrize("kind", ["gnutella", "chord"])
def test_pure_var_equals_swap_measure_swap_everywhere(kind, backend):
    """Every ordered pair of a world, adjacent or not, cold and warm."""
    ov = _build(kind, backend)
    versions = (ov.topology_version, ov.embedding_version)
    adjacent = 0
    for _ in range(2):  # second pass reads the now-cached sums
        for u in range(ov.n_slots):
            for v in range(ov.n_slots):
                if u != v:
                    assert evaluate_prop_g(ov, u, v) == reference_var(ov, u, v)
                    adjacent += ov.has_edge(u, v)
    assert adjacent > 0
    assert (ov.topology_version, ov.embedding_version) == versions


def test_vivaldi_latencies_are_not_integers():
    """The Vivaldi world really does exercise summation order."""
    oracle = _oracle("vivaldi")
    row = oracle.to_many(0, np.arange(1, N_HOSTS))
    assert np.any(row != np.rint(row))


def test_neighbor_sums_do_not_depend_on_the_edge_history():
    """A float sum depends on its order, so the Var sums run over the
    sorted neighbors.  Slot 0's set here iterates 32, 1, 9, 16, 17, 24,
    and its copy re-inserts the same members in another order."""
    ov = Overlay(_oracle("vivaldi"), np.arange(34))
    for w in (9, 16, 24, 32, 1, 17):
        ov.add_edge(0, w)
    clone = ov.copy()
    for o in (ov, clone):
        assert o.neighbor_index(0).tolist() == list(o.sorted_neighbors(0))
    assert ov.neighbor_latency_sum(0) == clone.neighbor_latency_sum(0)


def test_the_embedding_is_read_only(gnutella):
    """A host moves only through ``swap_embedding`` / ``replace_host``,
    which drop the views the move makes stale."""
    with pytest.raises(ValueError, match="read-only"):
        gnutella.embedding[0] = gnutella.embedding[1]
    clone = gnutella.copy()
    with pytest.raises(ValueError, match="read-only"):
        clone.embedding[0] = 0
    before = gnutella.embedding.copy()
    clone.swap_embedding(0, 1)
    assert np.array_equal(gnutella.embedding, before)
    assert clone.embedding.tolist()[:2] == before.tolist()[1::-1]


def test_var_evaluation_survives_a_raising_oracle(gnutella):
    """A read cannot leave the overlay half-swapped (it never writes)."""
    class Boom(RuntimeError):
        pass

    u, v = 0, 10
    emb = gnutella.embedding.copy()
    calls = []
    real = gnutella.oracle

    class Flaky:
        def __getattr__(self, name):
            return getattr(real, name)

        def sum_to(self, i, others):
            calls.append(i)
            if len(calls) == 2:
                raise Boom
            return real.sum_to(i, others)

    gnutella.oracle = Flaky()
    with pytest.raises(Boom):
        evaluate_prop_g(gnutella, u, v)
    gnutella.oracle = real
    assert np.array_equal(gnutella.embedding, emb)
    assert evaluate_prop_g(gnutella, u, v) == reference_var(gnutella, u, v)
