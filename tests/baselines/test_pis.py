"""PIS: landmark vectors and locality of the produced embedding."""

import numpy as np
import pytest

from repro.baselines.pis import landmark_vectors, pis_embedding
from repro.netsim.rng import RngRegistry
from repro.overlay.chord import ChordOverlay


def test_landmark_vector_shape(small_oracle, rngs):
    vec = landmark_vectors(small_oracle, 4, rngs.stream("pis"))
    assert vec.shape == (small_oracle.n, 4)
    assert np.all(vec >= 0)


def test_landmark_count_validated(small_oracle, rngs):
    with pytest.raises(ValueError):
        landmark_vectors(small_oracle, 0, rngs.stream("pis"))
    with pytest.raises(ValueError):
        landmark_vectors(small_oracle, small_oracle.n + 1, rngs.stream("pis"))


def test_embedding_is_permutation(small_oracle, rngs):
    emb = pis_embedding(small_oracle, rngs.stream("pis"))
    assert sorted(emb) == list(range(small_oracle.n))


def test_embedding_deterministic(small_oracle):
    a = pis_embedding(small_oracle, RngRegistry(4).stream("pis"))
    b = pis_embedding(small_oracle, RngRegistry(4).stream("pis"))
    assert np.array_equal(a, b)


def test_ring_neighbors_closer_than_random(small_oracle):
    """PIS consecutive-slot hosts must be physically closer on average
    than a random embedding's — the whole point of identifier selection."""
    rngs = RngRegistry(4)
    emb = pis_embedding(small_oracle, rngs.stream("pis"))
    mat = small_oracle.dense()

    def ring_cost(embedding):
        e = np.asarray(embedding)
        nxt = np.roll(e, -1)
        return float(mat[e, nxt].mean())

    random_emb = rngs.stream("rand").permutation(small_oracle.n)
    assert ring_cost(emb) < ring_cost(random_emb)


def test_pis_chord_has_lower_link_stretch(small_oracle):
    """A Chord ring built on the PIS embedding beats a random one."""
    rngs = RngRegistry(4)
    emb = pis_embedding(small_oracle, rngs.stream("pis"))
    pis_ring = ChordOverlay.build(small_oracle, rngs.fresh("chord"), embedding=emb)
    rand_ring = ChordOverlay.build(small_oracle, rngs.fresh("chord"))
    # successor links dominate: compare successor-link mean latency
    def succ_cost(ov):
        return float(np.mean([ov.latency(i, (i + 1) % ov.n_slots) for i in range(ov.n_slots)]))

    assert succ_cost(pis_ring) < succ_cost(rand_ring)
