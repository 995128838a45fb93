"""Deterministic named random substreams.

Every stochastic component of the simulator (topology generation, overlay
construction, walk steps of each node, workload draws, churn process)
pulls its own :class:`numpy.random.Generator` from a shared
:class:`RngRegistry`.  Streams are derived from the master seed and a
stable string name, so adding a new component never perturbs the draws of
existing ones — the property that makes A/B protocol comparisons
meaningful ("same world, different protocol").
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["RngRegistry", "derive_seed"]


def derive_seed(master_seed: int, name: str) -> np.random.SeedSequence:
    """Derive a child :class:`~numpy.random.SeedSequence` for ``name``.

    The derivation hashes the name with CRC32 (stable across processes
    and Python versions, unlike :func:`hash`) and mixes it into the seed
    sequence entropy.
    """
    if not isinstance(name, str) or not name:
        raise ValueError("stream name must be a non-empty string")
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.SeedSequence(entropy=(int(master_seed) & 0xFFFFFFFFFFFFFFFF, tag))


class RngRegistry:
    """Factory and cache of named random generators.

    Parameters
    ----------
    master_seed:
        Single integer controlling the entire simulation.  Two registries
        with the same master seed hand out identical streams for
        identical names.
    """

    def __init__(self, master_seed: int) -> None:
        self._master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object (its state advances as it is consumed).
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = self._streams[name] = self.fresh(name)
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *new* generator for ``name`` with its initial state.

        Unlike :meth:`stream` the result is not cached; use this when a
        component needs to replay its own draws from scratch.
        """
        return np.random.Generator(np.random.PCG64(derive_seed(self._master_seed, name)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(master_seed={self._master_seed}, streams={sorted(self._streams)})"
