"""Vivaldi-style synthetic-coordinate latency oracle.

The Dabek et al. (NSDI'04) line the paper's PNS discussion leans on:
every member gets a point in a low-dimensional Euclidean space plus a
non-negative *height* (the access-link cost that Euclidean coordinates
cannot express — exactly the stub-transit hop of a transit-stub
topology), and the latency estimate between two members is

    d(i, j) ~= ||x_i - x_j|| + h_i + h_j.

Coordinates are fitted by batch spring relaxation over O(n*k) sampled
member pairs whose true shortest-path latencies are measured with
chunked Dijkstra sweeps (bounded memory: one chunk of rows at a time,
only the sampled entries are kept).  Resident state is O(n*dim),
independent of the substrate — the exact backend's O(domains*n) rows
grow with the number of stub domains the members span.

Determinism: sampling and coordinate initialization draw only from the
injected generator (the named ``oracle:vivaldi`` stream, owned by the
topology package), and the relaxation itself is pure vectorized
arithmetic in a fixed iteration order — same seed, same coordinates,
byte-identical estimates, serial or under any ``--workers`` count.

A held-out sample of measured pairs (never used for fitting) yields the
embedding-error distribution reported by :meth:`VivaldiOracle.error_summary`.
"""

from __future__ import annotations

import numpy as np

from repro.topology.latency import FloatArray, LatencyOracleBase, validate_hosts
from repro.topology.transit_stub import PhysicalNetwork

__all__ = ["VivaldiOracle"]

#: Dijkstra sources per sweep chunk: bounds the (chunk, n_hosts) scratch
#: rows to a few MB at the ~6000-host preset scale.
_CHUNK_SOURCES = 256


def _sample_partners(
    n: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """For each member, ``k`` distinct partner members (never itself).

    Returns an ``(n, k)`` int array.  Per-member draws keep the memory
    O(n*k); the loop is construction-time only, never the sim hot path.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1..{n - 1} partners per member, got {k}")
    partners = np.empty((n, k), dtype=np.intp)
    pool = np.arange(n - 1, dtype=np.intp)
    for i in range(n):
        draw = rng.choice(pool, size=k, replace=False)
        # skip self: indices >= i shift up by one
        partners[i] = np.where(draw >= i, draw + 1, draw)
    return partners


def _measure_pairs(
    network: PhysicalNetwork, hosts: np.ndarray, partners: np.ndarray
) -> FloatArray:
    """True shortest-path latency for every (i, partners[i]) pair.

    Chunked Dijkstra: each sweep materializes rows for a bounded batch
    of sources and keeps only the sampled columns, so peak memory is
    O(chunk * n_hosts) scratch + O(n * k) result.
    """
    from repro.topology.latency import shortest_path_rows

    n, k = partners.shape
    measured = np.empty((n, k), dtype=np.float64)
    for lo in range(0, n, _CHUNK_SOURCES):
        hi = min(lo + _CHUNK_SOURCES, n)
        rows = shortest_path_rows(network, hosts[lo:hi])
        cols = hosts[partners[lo:hi]]  # (chunk, k) physical ids
        measured[lo:hi] = np.take_along_axis(rows, cols, axis=1)
    if not np.all(np.isfinite(measured)):
        raise ValueError("physical network is disconnected across selected hosts")
    return measured


class VivaldiOracle(LatencyOracleBase):
    """Synthetic-coordinate latency oracle (O(n*dim) resident state).

    Parameters
    ----------
    network, hosts:
        As for the exact oracle; estimates live in member index space.
    rng:
        Injected seeded generator — the harness derives it from the
        named ``oracle:vivaldi`` stream, so fitting never perturbs any
        other component's draws.
    dim:
        Euclidean dimensionality of the coordinate space.
    neighbors:
        Sampled partners per member used for fitting (the ``k`` in the
        O(n*k) measurement budget).
    holdout:
        Extra measured partners per member excluded from fitting and
        used only for the reported error distribution.
    iterations:
        Batch relaxation sweeps over all sampled springs.
    step:
        Initial relaxation step; cools linearly to zero.
    """

    backend = "vivaldi"

    def __init__(
        self,
        network: PhysicalNetwork,
        hosts: np.ndarray,
        rng: np.random.Generator,
        *,
        dim: int = 4,
        neighbors: int = 32,
        holdout: int = 4,
        iterations: int = 256,
        step: float = 0.5,
    ) -> None:
        hosts = validate_hosts(network, hosts)
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if holdout < 1:
            raise ValueError(f"holdout must be >= 1, got {holdout}")
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if not 0.0 < step <= 1.0:
            raise ValueError(f"step must be in (0, 1], got {step}")
        n = int(hosts.size)
        if neighbors + holdout > n - 1:
            raise ValueError(
                f"neighbors+holdout = {neighbors + holdout} needs at least "
                f"{neighbors + holdout + 1} members, got {n}"
            )
        self.network = network
        self.hosts = hosts
        self.dim = int(dim)

        partners = _sample_partners(n, neighbors + holdout, rng)
        measured = _measure_pairs(network, hosts, partners)
        train_p, hold_p = partners[:, :neighbors], partners[:, neighbors:]
        train_m, hold_m = measured[:, :neighbors], measured[:, neighbors:]

        coords, height = _fit_springs(
            train_p, train_m, dim=dim, iterations=iterations, step=step, rng=rng
        )
        self.coords: FloatArray = coords
        self.height: FloatArray = height

        src = np.repeat(np.arange(n, dtype=np.intp), hold_p.shape[1])
        est = self.pairwise(src, hold_p.ravel())
        truth = hold_m.ravel()
        self.rel_errors: FloatArray = np.abs(est - truth) / np.maximum(truth, 1e-9)

    # -- protocol ---------------------------------------------------------

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> FloatArray:
        """Element-wise estimates ``||x_a - x_b|| + h_a + h_b`` (0 when a==b)."""
        diff = self.coords[a] - self.coords[b]
        est = np.sqrt(np.einsum("...i,...i->...", diff, diff))
        est += self.height[a] + self.height[b]
        return np.where(np.asarray(a) == np.asarray(b), 0.0, est)

    def to_many(self, i: int, others: np.ndarray | list[int]) -> FloatArray:
        idx = np.asarray(others, dtype=np.intp)
        if idx.size == 0:
            return np.empty(0, dtype=np.float64)
        diff = self.coords[idx] - self.coords[i]
        est = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        est += self.height[idx] + self.height[i]
        est[idx == i] = 0.0
        return est

    def state_nbytes(self) -> int:
        return int(self.coords.nbytes + self.height.nbytes)

    def error_summary(self) -> dict[str, float]:
        """Held-out embedding-error distribution (relative error)."""
        e = self.rel_errors
        return {
            "median_rel_error": float(np.median(e)),
            "p90_rel_error": float(np.percentile(e, 90)),
            "mean_rel_error": float(e.mean()),
        }


def _fit_springs(
    partners: np.ndarray,
    measured: FloatArray,
    *,
    dim: int,
    iterations: int,
    step: float,
    rng: np.random.Generator,
) -> tuple[FloatArray, FloatArray]:
    """Batch spring relaxation; returns (coords, height).

    Each sampled pair is a spring of rest length ``measured``; every
    sweep moves both endpoints along the spring axis by the per-node
    mean displacement (normalizing by incidence keeps the update stable
    regardless of k) with a linearly cooling step.  Heights absorb the
    residual a Euclidean embedding cannot: they climb when estimates
    run short and are clamped non-negative.
    """
    n, k = partners.shape
    src = np.repeat(np.arange(n, dtype=np.intp), k)
    dst = partners.ravel()
    rest = measured.ravel()

    # incidence count of each node over all springs (it appears k times
    # as source plus however often it was sampled as a partner)
    counts = (
        np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    ).astype(np.float64)
    counts = np.maximum(counts, 1.0)

    scale = float(np.median(rest))
    coords = (scale * 0.1) * rng.standard_normal((n, dim))
    height = np.zeros(n, dtype=np.float64)

    for t in range(iterations):
        cool = step * (1.0 - t / iterations)
        diff = coords[src] - coords[dst]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        est = dist + height[src] + height[dst]
        err = rest - est  # > 0: push apart / raise heights
        unit = diff / np.maximum(dist, 1e-9)[:, None]
        force = (cool * err)[:, None] * unit

        move = np.zeros_like(coords)
        np.add.at(move, src, force)
        np.add.at(move, dst, -force)
        coords += move / counts[:, None]

        lift = np.zeros(n, dtype=np.float64)
        np.add.at(lift, src, err)
        np.add.at(lift, dst, err)
        height = np.maximum(height + 0.5 * cool * lift / counts, 0.0)

    return np.ascontiguousarray(coords), height
