"""Square-QAM constellations: Gray labeling, outer-axis flags, mod/demod.

Conventions (documented here because they fix the bit-error accounting):
  * constellations are normalized to unit average symbol energy;
  * bit labels are split MSB-first into a real-axis half and an imaginary-axis
    half, each mapped with a binary-reflected Gray code over the amplitude
    levels in ascending order;
  * a per-axis component is outer when its amplitude sits at the outermost
    level of the grid, inner otherwise;
  * ``modulate`` reads the last axis of its bits as one symbol's log2(order)
    bits, MSB first, and returns the labels they spell with their points;
  * the receiver decides labels, not bits: ``demodulate`` returns the Gray
    label of each sample's nearest point, so the bit errors of a decision
    are the set bits of (sent label XOR decided label), which ``bit_errors``
    counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

SUPPORTED_ORDERS = (4, 16, 64, 256)

# Tolerance for matching a complex sample to a nominal constellation point.
_POINT_ATOL = 1e-9

# Set bits of every label value; the largest order, 256, has 8-bit labels.
_POPCOUNT = np.array([bin(v).count("1") for v in range(max(SUPPORTED_ORDERS))])


@dataclass(frozen=True)
class ConstellationSpec:
    """Immutable square-QAM geometry with Gray bit mapping.

    ``points[label]`` is the constellation point carrying bit label ``label``
    (an integer reading the bit group MSB-first).
    """

    order: int
    bits_per_symbol: int
    levels: np.ndarray        # ascending per-axis amplitude levels, unit-energy scale
    points: np.ndarray        # (order,) complex, indexed by bit label


def _label(i_re, i_im, bits_per_symbol: int):
    """Gray label of the point at level indices (i_re, i_im), ints or arrays:
    each index's binary-reflected Gray code, the real axis's in the high half."""
    return ((i_re ^ (i_re >> 1)) << bits_per_symbol // 2) | (i_im ^ (i_im >> 1))


def build_constellation(order: int) -> ConstellationSpec:
    """Build a Gray-labeled square QAM constellation with unit mean energy.

    Amplitude levels are the odd integers {..., -3, -1, 1, 3, ...} scaled so
    the average symbol energy over the full constellation equals one.
    """
    if order not in SUPPORTED_ORDERS:
        raise ConfigurationError(
            f"unsupported modulation order {order}; expected one of {SUPPORTED_ORDERS}"
        )
    side = math.isqrt(order)
    bits_per_symbol = order.bit_length() - 1

    odd = np.arange(-(side - 1), side, 2, dtype=float)
    scale = math.sqrt(2.0 * np.mean(odd**2))
    levels = odd / scale

    i_re, i_im = np.divmod(np.arange(order), side)
    points = np.empty(order, dtype=complex)
    points[_label(i_re, i_im, bits_per_symbol)] = levels[i_re] + 1j * levels[i_im]

    return ConstellationSpec(
        order=order,
        bits_per_symbol=bits_per_symbol,
        levels=levels,
        points=points,
    )


def classify_component(spec: ConstellationSpec, points) -> tuple[np.ndarray, np.ndarray]:
    """Flag the outer axes of constellation points.

    Returns ``(re_outer, im_outer)``, boolean arrays shaped like ``points``.
    Raises ValueError if any point is not (within 1e-9) a constellation point.
    Each point is sliced per axis to its nearest grid point, the only one it
    can be within 1e-9 of; an axis is outer at the first or last level.
    """
    points = np.asarray(points, dtype=complex)
    i_re = _slice_axis(spec.levels, points.real)
    i_im = _slice_axis(spec.levels, points.imag)
    member = np.abs(points - (spec.levels[i_re] + 1j * spec.levels[i_im])) <= _POINT_ATOL
    if not member.all():
        foreign = complex(points[~member][0])
        raise ValueError(f"{foreign!r} is not a point of the {spec.order}-QAM constellation")
    last = spec.levels.size - 1
    return (i_re == 0) | (i_re == last), (i_im == 0) | (i_im == last)


def modulate(spec: ConstellationSpec, bits) -> tuple[np.ndarray, np.ndarray]:
    """Map 0/1 bits to Gray labels and their constellation points.

    The last axis of ``bits`` holds one symbol's log2(order) bits, read
    MSB-first as its label. Returns ``(labels, points)``, each shaped like
    ``bits`` without that axis, with ``points == spec.points[labels]``.
    Raises ValueError for an entry other than 0 or 1.
    """
    bits = np.asarray(bits, dtype=np.int64)
    bps = spec.bits_per_symbol
    if bits.shape[-1:] != (bps,):
        raise ValueError(f"the last axis of bits must hold {bps} bits, got shape {bits.shape}")
    if np.bitwise_or.reduce(bits, axis=None) & ~1:  # a set bit above bit 0: not all 0 or 1
        raise ValueError(f"bits must be 0 or 1, got {bits[(bits != 0) & (bits != 1)][0]}")
    labels = bits @ (1 << np.arange(bps - 1, -1, -1))
    return labels, spec.points[labels]


def _slice_axis(levels: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Nearest-level index per sample; exact boundary ties go to the smaller level."""
    boundaries = 0.5 * (levels[1:] + levels[:-1])
    idx = np.searchsorted(boundaries, x, side="left")
    # side="left" sends a sample sitting exactly on a boundary to the level
    # below it, which is the smaller-magnitude one when the boundary is >= 0.
    # For negative boundaries the smaller-magnitude level is the one above.
    j = np.clip(idx, 0, boundaries.size - 1)
    tie_up = (x == boundaries[j]) & (boundaries[j] < 0)
    return idx + tie_up


def demodulate(spec: ConstellationSpec, r) -> np.ndarray:
    """Hard nearest-neighbor demodulation (per-axis slicing, saturating).

    Takes an array of complex samples and returns the decided Gray labels,
    integers shaped like ``r``: ``spec.points[labels]`` are the decided
    points, and label bit ``log2(order) - 1 - i`` is the i-th decided bit.
    """
    r = np.asarray(r, dtype=complex)
    return _label(_slice_axis(spec.levels, r.real), _slice_axis(spec.levels, r.imag),
                  spec.bits_per_symbol)


def bit_errors(sent, decided) -> np.ndarray:
    """Bit errors per symbol, shaped like the labels: the set bits of (sent XOR decided)."""
    return _POPCOUNT[np.bitwise_xor(sent, decided)]
