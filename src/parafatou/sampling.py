"""Deterministic sample points for sectors and product regions.

Halton sequences with a seed-derived Cranley-Patterson rotation: the points
are low-discrepancy, reproducible bit-for-bit for a given seed, and different
seeds give genuinely different point sets. Nothing here draws from a
platform RNG.
"""

from __future__ import annotations

import numpy as np

from .series import INFINITY

_PRIMES = (2, 3, 5, 7, 11, 13)

# Radial placement inside a sector, as fractions of the defining radius.
# Infinity-chart points stay within [1.25 R, 2 R]: far enough inside that a
# unit translation cannot push them over the sector boundary, within the 2R
# window reports promise. Origin-chart points live in [0.15 eps, 0.5 eps].
_INF_LO, _INF_SPAN = 1.25, 0.75
_ORG_LO, _ORG_SPAN = 0.15, 0.35
_ANGLE_PAD = 0.9


def _radical_inverse(idx: np.ndarray, base: int) -> np.ndarray:
    out = np.zeros(len(idx), dtype=float)
    scale = 1.0 / base
    work = idx
    # one pass per digit of the largest index; past its own last digit an
    # index adds 0.0, which leaves its sum as it was
    top = int(idx.max()) if len(idx) else 0
    while top:
        work, digit = np.divmod(work, base)
        out += digit * scale
        scale /= base
        top //= base
    return out


def halton(n: int, dim: int) -> np.ndarray:
    """The first n Halton points in [0,1)^dim, skipping index 0."""
    if dim > len(_PRIMES):
        raise ValueError(f"dim at most {len(_PRIMES)}")
    idx = np.arange(1, n + 1, dtype=np.int64)
    return np.column_stack(
        [_radical_inverse(idx, p) for p in _PRIMES[:dim]])


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return state, z ^ (z >> 31)


def rotation(seed: int, dim: int) -> np.ndarray:
    """dim offsets in [0,1) derived from the seed."""
    state = seed & 0xFFFFFFFFFFFFFFFF
    out = np.empty(dim)
    for k in range(dim):
        state, bits = _splitmix64(state)
        out[k] = (bits >> 11) * (1.0 / (1 << 53))
    return out


def low_discrepancy(n: int, dim: int, seed: int) -> np.ndarray:
    """Seeded low-discrepancy points in [0,1)^dim."""
    return (halton(n, dim) + rotation(seed, dim)) % 1.0


def sector_values(sector, s_rad: np.ndarray, s_ang: np.ndarray) -> np.ndarray:
    """Map unit-square columns onto points of the sector interior."""
    if sector.chart == INFINITY:
        r = sector.radius * (_INF_LO + _INF_SPAN * s_rad)
    else:
        r = sector.radius * (_ORG_LO + _ORG_SPAN * s_rad)
    ang = sector.center + sector.opening * (2.0 * s_ang - 1.0) * _ANGLE_PAD
    return r * np.exp(1j * ang)


def sector_points(sector, n: int, seed: int) -> np.ndarray:
    pts = low_discrepancy(n, 2, seed)
    return sector_values(sector, pts[:, 0], pts[:, 1])


def region_points(region, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n points (u_k, v_k) inside a product region."""
    pts = low_discrepancy(n, 4, seed)
    u = sector_values(region.first, pts[:, 0], pts[:, 1])
    v = sector_values(region.second, pts[:, 2], pts[:, 3])
    return u, v
