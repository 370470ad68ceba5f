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
    counts;
  * an axis is sliced by the sign of x and the count of positive decision
    boundaries (midpoints of adjacent levels) strictly below |x|, exact as the
    levels are sign-symmetric: a tie goes to the smaller magnitude, +-0 to
    the level just below 0, and a sample beyond the grid to an outermost level.
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
    return ConstellationSpec(
        order=order,
        bits_per_symbol=bits_per_symbol,
        levels=levels,
        points=points,
        boundaries=0.5 * (levels[half + 1:] + levels[half:-1]),
        key_levels=key_levels,
        key_codes=gray[key_levels].astype(np.uint8),
    )


def _slice_keys(spec: ConstellationSpec, x: np.ndarray) -> np.ndarray:
    """The slicer key of each component in ``x``, uint8 (see ConstellationSpec)."""
    a = np.abs(x)
    key = (x > 0).view(np.uint8) * (spec.boundaries.size + 1)
    for boundary in spec.boundaries:
        key += (a > boundary).view(np.uint8)
    return key


def classify_component(spec: ConstellationSpec, points) -> tuple[np.ndarray, np.ndarray]:
    """Flag the outer axes of constellation points.

    Returns ``(re_outer, im_outer)``, boolean arrays shaped like ``points``.
    Raises ValueError if any point is not (within 1e-9) a constellation point.
    Each point is sliced per axis to its nearest grid point, the only one it
    can be within 1e-9 of; an axis is outer at the first or last level.
    """
    points = np.asarray(points, dtype=complex)
    i_re = spec.key_levels[_slice_keys(spec, points.real)]
    i_im = spec.key_levels[_slice_keys(spec, points.imag)]
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
    bits = np.asarray(bits)
    if bits.dtype.kind not in "biu":  # 0.5 would truncate to a valid 0 in the cast
        stray = bits[(bits != 0) & (bits != 1)]
        if stray.size:
            raise ValueError(f"bits must be 0 or 1, got {stray[0]}")
    bits = bits.astype(np.int64, copy=False)
    bps = spec.bits_per_symbol
    if bits.shape[-1:] != (bps,):
        raise ValueError(f"the last axis of bits must hold {bps} bits, got shape {bits.shape}")
    if np.bitwise_or.reduce(bits, axis=None) & ~1:  # a set bit above bit 0: not all 0 or 1
        raise ValueError(f"bits must be 0 or 1, got {bits[(bits != 0) & (bits != 1)][0]}")
    labels = bits @ (1 << np.arange(bps - 1, -1, -1))
    return labels, spec.points[labels]


def demodulate(spec: ConstellationSpec, r) -> np.ndarray:
    """Hard nearest-neighbor demodulation (per-axis slicing, saturating).

    Takes an array of complex samples and returns the decided Gray labels,
    integers shaped like ``r``: ``spec.points[labels]`` are the decided
    points, and label bit ``log2(order) - 1 - i`` is the i-th decided bit.
    Raises ValueError for a sample that is not finite.
    """
    r = np.asarray(r, dtype=complex)
    if not np.isfinite(r).all():
        raise ValueError(f"samples must be finite, got {r[~np.isfinite(r)][0]}")
    codes = spec.key_codes  # uint8 holds every label: at most 8 bits
    high = codes[_slice_keys(spec, r.real)] << spec.bits_per_symbol // 2
    return (high | codes[_slice_keys(spec, r.imag)]).astype(np.intp)


def bit_errors(sent, decided) -> np.ndarray:
    """Bit errors per symbol, shaped like the labels: the set bits of (sent XOR decided)."""
    return _POPCOUNT[np.bitwise_xor(sent, decided)]
