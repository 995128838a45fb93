"""Disk cache for latency-oracle state, keyed by backend and parameters.

Oracle state is byte-identical across runs with the same topology,
membership and parameters, so :func:`cached_oracle` memoizes it on disk:
the dense matrix for ``exact``, the fitted coordinates for ``vivaldi``,
the landmark-distance matrix for ``landmark``.

What a hit saves, measured at the evaluation's top scale (n = 5000
members over the 6100-host ts-large graph, file in the page cache):
building the exact matrix takes 0.31-0.41 s, a hit takes 0.46-0.92 s
(loading the 200 MB ``.npy`` plus the finiteness / symmetry validation
below).  On the transit-stub presets the exact build is therefore
*faster than its cache hit* and the cache buys nothing for ``exact``;
it pays for ``vivaldi`` (a 2.3 s fit at n = 1000 against a 40 kB file)
and for ``exact`` on substrates without pendant domains (Waxman, one
Dijkstra per member: ~1 s per 300 members over 6000 hosts).

The cache is content-addressed (SHA-256 over the exact inputs): the
topology's edge list, the member set, the backend name, and the
backend's construction parameters (including the fit seed for Vivaldi).
A changed generator, preset, membership, backend, or tuning knob can
never serve a stale or foreign entry.  Corrupt or unreadable cache
files are silently regenerated.

Cache hits are rebuilt through each backend's validating classmethod
(:meth:`LatencyOracle.from_matrix`, ``VivaldiOracle.from_state``,
``LandmarkOracle.from_state``) — never ``__new__`` — so host validation
and any state checks added to a constructor also guard the loaded path.

The cache is safe under concurrent use by parallel experiment workers
(``repro.harness.parallel``): writers stage into a temp file whose name
is unique per process and publish with an atomic rename, so two workers
building the same world can never interleave bytes or serve each other
a half-written file — the last completed write wins and both are
byte-identical anyway.  Loads validate the state (shape, dtype,
finiteness, non-negativity, symmetry, zero diagonal) before trusting it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import uuid
from typing import Any, Mapping

import numpy as np

from repro.topology.factory import build_oracle, oracle_cache_params
from repro.topology.landmark import LandmarkOracle
from repro.topology.latency import LatencyOracle, LatencyOracleBase
from repro.topology.transit_stub import PhysicalNetwork
from repro.topology.vivaldi import VivaldiOracle

__all__ = ["cache_key", "cached_oracle", "valid_matrix"]


def cache_key(
    network: PhysicalNetwork,
    hosts: np.ndarray,
    backend: str = "exact",
    params: Mapping[str, Any] | None = None,
) -> str:
    """Content hash of everything the oracle state depends on."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(network.edges_u).tobytes())
    h.update(np.ascontiguousarray(network.edges_v).tobytes())
    h.update(np.ascontiguousarray(network.edges_w).tobytes())
    h.update(np.ascontiguousarray(np.asarray(hosts, dtype=np.int64)).tobytes())
    h.update(str(network.n).encode())
    h.update(backend.encode())
    h.update(json.dumps(dict(params or {}), sort_keys=True).encode())
    return h.hexdigest()[:32]


def valid_matrix(matrix: object, n: int) -> bool:
    """Is ``matrix`` a plausible ``n x n`` latency submatrix?

    Guards the loaded-from-disk path against truncated or foreign files
    that happen to unpickle: a latency matrix is a finite, non-negative,
    *symmetric* float array with a zero diagonal.  Asymmetry matters: a
    corrupt-but-plausible file would otherwise skew every Var
    computation on an undirected substrate.
    """
    if not isinstance(matrix, np.ndarray):
        return False
    if matrix.shape != (n, n) or not np.issubdtype(matrix.dtype, np.floating):
        return False
    if not np.all(np.isfinite(matrix)):
        return False
    if np.any(matrix < 0) or np.any(np.diagonal(matrix) != 0.0):
        return False
    if not np.array_equal(matrix, matrix.T):
        return False
    return True


def _load_cached(
    path: pathlib.Path,
    network: PhysicalNetwork,
    hosts: np.ndarray,
    backend: str,
) -> LatencyOracleBase | None:
    """Reconstruct an oracle from a cache file; ``None`` on any defect."""
    try:
        if backend == "exact":
            matrix = np.load(path, allow_pickle=False)
            if not valid_matrix(matrix, hosts.size):
                return None
            return LatencyOracle.from_matrix(network, hosts, matrix)
        with np.load(path, allow_pickle=False) as bundle:
            if backend == "vivaldi":
                return VivaldiOracle.from_state(
                    network,
                    hosts,
                    coords=bundle["coords"],
                    height=bundle["height"],
                    rel_errors=bundle["rel_errors"],
                )
            return LandmarkOracle.from_state(
                network,
                hosts,
                landmarks=bundle["landmarks"],
                landmark_matrix=bundle["landmark_matrix"],
            )
    except (OSError, ValueError, KeyError):
        return None  # fall through and regenerate


def _oracle_state(oracle: LatencyOracleBase) -> dict[str, np.ndarray]:
    """The arrays that fully determine a backend's estimates."""
    if isinstance(oracle, LatencyOracle):
        return {"matrix": oracle.matrix}
    if isinstance(oracle, VivaldiOracle):
        return {
            "coords": oracle.coords,
            "height": oracle.height,
            "rel_errors": oracle.rel_errors,
        }
    if isinstance(oracle, LandmarkOracle):
        return {
            "landmarks": oracle.landmarks,
            "landmark_matrix": oracle.landmark_matrix,
        }
    raise TypeError(f"uncacheable oracle type {type(oracle).__name__}")


def cached_oracle(
    network: PhysicalNetwork,
    hosts: np.ndarray,
    cache_dir: str | pathlib.Path,
    *,
    backend: str = "exact",
    seed: int = 0,
    options: Mapping[str, Any] | None = None,
) -> LatencyOracleBase:
    """A latency oracle, loading its state from disk when cached.

    Concurrency-safe: parallel workers racing on the same key each write
    their own uniquely-named temp file and publish it atomically, so a
    reader never observes a partial matrix.
    """
    params = oracle_cache_params(backend, seed=seed, options=options)
    cache_dir = pathlib.Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    suffix = "npy" if backend == "exact" else "npz"
    path = cache_dir / f"oracle-{cache_key(network, hosts, backend, params)}.{suffix}"
    hosts_arr = np.asarray(hosts, dtype=np.int64)

    if path.exists():
        cached = _load_cached(path, network, hosts_arr, backend)
        if cached is not None:
            return cached

    oracle = build_oracle(backend, network, hosts_arr, seed=seed, options=options)
    state = _oracle_state(oracle)
    # Unique per process/call: two workers computing the same entry must
    # never save into the same temp file, and os.replace publishes the
    # finished state atomically (last writer wins, contents equal).
    tmp = path.with_name(f"{path.stem}.{os.getpid()}-{uuid.uuid4().hex[:8]}.tmp.{suffix}")
    try:
        with open(tmp, "wb") as fh:
            if backend == "exact":
                np.save(fh, state["matrix"])
            else:
                np.savez(fh, **state)
        os.replace(tmp, path)
    except OSError:
        # Cache write failure (full/read-only disk) must not fail the
        # run — the freshly computed oracle is still good.
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
    return oracle
