"""Square-QAM constellations: Gray labeling, outer-axis flags, mod/demod.

Conventions (documented here because they fix the bit-error accounting):
  * constellations are normalized to unit average symbol energy;
  * bit labels are split MSB-first into a real-axis half and an imaginary-axis
    half, each mapped with a binary-reflected Gray code over the amplitude
    levels in ascending order;
  * a per-axis component is outer when its amplitude sits at the outermost
    level of the grid, inner otherwise; components are read from the
    interleaved real view of a complex array, entry k's real part at 2k and
    its imaginary part at 2k+1, so (..., n) points have (..., 2n) of them;
  * ``modulate`` alone orders a label's bits: it reads a block's payload
    bytes as one log2(order)-bit label per symbol, MSB first, and returns the
    labels with their points;
  * the receiver decides labels, not bits: ``demodulate`` returns the Gray
    label of each sample's nearest point, so the bit errors of a decision
    are the set bits of (sent label XOR decided label), which ``bit_errors``
    counts;
  * a component x is sliced by its sign and the count of positive decision
    boundaries, the rounded midpoints 0.5 * (l_i + l_{i+1}), strictly below
    |x|, exact as the levels are sign-symmetric: a sample exactly on one goes
    to the smaller magnitude even where the exact midpoint is an ulp away,
    +-0 to the level just below 0, and one beyond the grid to an outermost level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


SUPPORTED_ORDERS = (4, 16, 64, 256)

# Tolerance for matching a complex sample to a nominal constellation point.
_POINT_ATOL = 1e-9

# Set bits of every label value; the largest order, 256, has 8-bit labels.
_POPCOUNT = np.array([bin(v).count("1") for v in range(max(SUPPORTED_ORDERS))])


@dataclass(frozen=True)
class ConstellationSpec:
    """Immutable square-QAM geometry with Gray bit mapping.

    ``points[label]`` is the constellation point carrying bit label ``label``
    (an integer reading the bit group MSB-first). An axis component x slices
    to the key ``(x > 0) * side/2 + (count of boundaries strictly below |x|)``.
    """

    order: int
    bits_per_symbol: int
    levels: np.ndarray        # ascending per-axis amplitude levels, unit-energy scale
    points: np.ndarray        # (order,) complex, indexed by bit label
    boundaries: np.ndarray    # the positive decision boundaries, ascending
    key_levels: np.ndarray    # the decided level index per key
    key_codes: np.ndarray     # its Gray code per key, uint8


@functools.cache
def build_constellation(order: int) -> ConstellationSpec:
    """The Gray-labeled square QAM constellation of ``order``, with unit mean energy.

    Amplitude levels are the odd integers {..., -3, -1, 1, 3, ...} scaled so
    the average symbol energy over the full constellation equals one. Cached:
    each order's one spec, whose arrays are read-only, serves every caller.
    """
    if order not in SUPPORTED_ORDERS:
        raise ValueError(
            f"unsupported modulation order {order}; expected one of {SUPPORTED_ORDERS}"
        )
    side = math.isqrt(order)
    half = side // 2
    bits_per_symbol = order.bit_length() - 1

    odd = np.arange(-(side - 1), side, 2, dtype=float)
    scale = math.sqrt(2.0 * np.mean(odd**2))
    levels = odd / scale

    gray = np.arange(side) ^ (np.arange(side) >> 1)  # per level index; real axis in the high half
    i_re, i_im = np.divmod(np.arange(order), side)
    points = np.empty(order, dtype=complex)
    points[(gray[i_re] << bits_per_symbol // 2) | gray[i_im]] = levels[i_re] + 1j * levels[i_im]

    # key k < half: k levels below the lower middle one; key half + k: above the upper
    key_levels = np.concatenate([np.arange(half - 1, -1, -1), np.arange(half, side)])
    spec = ConstellationSpec(
        order=order,
        bits_per_symbol=bits_per_symbol,
        levels=levels,
        points=points,
        boundaries=0.5 * (levels[half + 1:] + levels[half:-1]),
        key_levels=key_levels,
        key_codes=gray[key_levels].astype(np.uint8),
    )
    for value in vars(spec).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return spec


def _slice_keys(spec: ConstellationSpec, x: np.ndarray) -> np.ndarray:
    """The slicer key of each component in ``x`` (see ConstellationSpec), counted in
    uint8 and returned as intp, which NumPy indexes with about 3x faster."""
    a = np.abs(x)
    key = (x > 0).view(np.uint8) * (spec.boundaries.size + 1)
    for boundary in spec.boundaries:
        key += (a > boundary).view(np.uint8)
    return key.astype(np.intp)


def classify_component(spec: ConstellationSpec, points) -> np.ndarray:
    """Flag the outer axes of constellation points.

    Returns one boolean mask over the interleaved components, point k's real
    axis at 2k and imaginary axis at 2k+1: ``(..., 2n)`` for points shaped
    ``(..., n)``, 2 flags for a 0-d point. Raises ValueError if any point is
    not (within 1e-9) a constellation point. Each point is sliced per axis to
    its nearest grid point, the only one it can be within 1e-9 of; an axis is
    outer at the first or last level.
    """
    points = np.ascontiguousarray(points, dtype=complex)
    index = spec.key_levels[_slice_keys(spec, points.view(float))]
    member = np.abs(points - spec.levels[index].view(complex)) <= _POINT_ATOL
    if not member.all():
        foreign = complex(points[~member][0])
        raise ValueError(f"{foreign!r} is not a point of the {spec.order}-QAM constellation")
    return (index == 0) | (index == spec.levels.size - 1)


def modulate(spec: ConstellationSpec, payload, shape) -> tuple[np.ndarray, np.ndarray]:
    """Map a block's payload bytes to Gray labels and their constellation points.

    Each symbol's label is the next log2(order) bits of ``payload``, MSB first;
    the bits of the last byte that no symbol needs are unused. Returns
    ``(labels, points)``, each shaped ``shape``, with ``points ==
    spec.points[labels]``. Raises ValueError for a payload too short for ``shape``.
    """
    bps = spec.bits_per_symbol
    payload = np.frombuffer(payload, np.uint8)
    n_bits = math.prod(shape) * bps
    if payload.size * 8 < n_bits:  # unpackbits would pad with zeros
        raise ValueError(f"shape {shape} needs {n_bits} payload bits, got {payload.size * 8}")
    bits = np.unpackbits(payload, count=n_bits).reshape(-1, bps)
    labels = (bits @ (1 << np.arange(bps - 1, -1, -1))).reshape(shape)
    return labels, spec.points[labels]


def demodulate(spec: ConstellationSpec, r) -> np.ndarray:
    """Hard nearest-neighbor demodulation (per-axis slicing, saturating).

    Takes an array of complex samples and returns the decided Gray labels,
    integers shaped like ``r``: ``spec.points[labels]`` are the decided
    points, and label bit ``log2(order) - 1 - i`` is the i-th decided bit.
    The even (real-axis) components give a label's high half, the odd its low.
    Raises ValueError for a sample that is not finite.
    """
    r = np.asarray(r, dtype=complex)
    if not np.isfinite(r).all():
        raise ValueError(f"samples must be finite, got {r[~np.isfinite(r)][0]}")
    codes = spec.key_codes[_slice_keys(spec, np.ascontiguousarray(r).view(float))]
    labels = (codes[..., 0::2] << spec.bits_per_symbol // 2) | codes[..., 1::2]  # 8 bits fit uint8
    return labels.astype(np.intp).reshape(r.shape)


def bit_errors(sent, decided) -> np.ndarray:
    """Bit errors per symbol, shaped like the labels: the set bits of (sent XOR decided)."""
    return _POPCOUNT[np.bitwise_xor(sent, decided)]
