"""Identifier-space helpers shared by the structured overlays.

Chord, Pastry and Kademlia draw identifiers from ``[0, 2**bits)``;
these helpers implement unique random id assignment and Pastry's digit
arithmetic.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "unique_ids",
    "digits_of",
    "common_prefix_len",
]


def unique_ids(n: int, bits: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` distinct identifiers uniformly from ``[0, 2**bits)``.

    Raises :class:`ValueError` when the space is too small to hold ``n``
    distinct ids.
    """
    space = 1 << bits
    if n > space:
        raise ValueError(f"cannot draw {n} unique ids from a {space}-point space")
    if n > space // 2:
        # Dense regime: permute the whole space rather than reject-sample.
        return rng.permutation(space)[:n].astype(np.int64)
    ids: set[int] = set()
    out = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        draw = rng.integers(0, space, size=n - filled)
        for x in draw:
            xi = int(x)
            if xi not in ids:
                ids.add(xi)
                out[filled] = xi
                filled += 1
                if filled == n:
                    break
    return out


def digits_of(x: int, base_bits: int, n_digits: int) -> tuple[int, ...]:
    """Big-endian base-``2**base_bits`` digits of ``x`` (Pastry ids)."""
    base = 1 << base_bits
    out = []
    for i in range(n_digits - 1, -1, -1):
        out.append((x >> (i * base_bits)) % base)
    return tuple(out)


def common_prefix_len(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Length of the shared digit prefix of two digit tuples."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n
