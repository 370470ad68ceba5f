"""Square-QAM constellations: Gray labeling, per-axis amplitude classes, mod/demod.

Conventions (documented here because they fix the bit-error accounting):
  * constellations are normalized to unit average symbol energy;
  * bit labels are split MSB-first into a real-axis half and an imaginary-axis
    half, each mapped with a binary-reflected Gray code over the amplitude
    levels in ascending order;
  * a per-axis component is OUTER when its amplitude sits at the outermost
    level of the grid, INNER otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError

SUPPORTED_ORDERS = (4, 16, 64, 256)

# Tolerance for matching a complex sample to a nominal constellation point.
_POINT_ATOL = 1e-9


class AxisClass(Enum):
    INNER = "inner"
    OUTER = "outer"


@dataclass(frozen=True)
class ComponentClass:
    """Per-axis amplitude class of one constellation point."""

    real_class: AxisClass
    imag_class: AxisClass


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
    max_level: float

    @property
    def bits_per_axis(self) -> int:
        return self.bits_per_symbol // 2


def _gray(i):
    """Binary-reflected Gray code of a level index (works on ints and arrays)."""
    return i ^ (i >> 1)


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
    bits_per_axis = bits_per_symbol // 2

    odd = np.arange(-(side - 1), side, 2, dtype=float)
    scale = math.sqrt(2.0 * np.mean(odd**2))
    levels = odd / scale

    points = np.empty(order, dtype=complex)
    for i_re in range(side):
        for i_im in range(side):
            label = (_gray(i_re) << bits_per_axis) | _gray(i_im)
            points[label] = levels[i_re] + 1j * levels[i_im]

    return ConstellationSpec(
        order=order,
        bits_per_symbol=bits_per_symbol,
        levels=levels,
        points=points,
        max_level=float(levels[-1]),
    )


def classify_component(spec: ConstellationSpec, point: complex) -> ComponentClass:
    """Classify both axes of a constellation point as INNER or OUTER.

    Raises ValueError if ``point`` is not (within 1e-9) a constellation point.
    """
    dists = np.abs(spec.points - point)
    if dists.min() > _POINT_ATOL:
        raise ValueError(f"{point!r} is not a point of the {spec.order}-QAM constellation")
    re_outer = abs(float(np.real(point))) >= spec.max_level - _POINT_ATOL
    im_outer = abs(float(np.imag(point))) >= spec.max_level - _POINT_ATOL
    return ComponentClass(
        real_class=AxisClass.OUTER if re_outer else AxisClass.INNER,
        imag_class=AxisClass.OUTER if im_outer else AxisClass.INNER,
    )


def axis_outer_flags(spec: ConstellationSpec, symbols: np.ndarray):
    """Vectorized per-axis OUTER flags for an array of constellation points."""
    symbols = np.asarray(symbols)
    thresh = spec.max_level - _POINT_ATOL
    return np.abs(symbols.real) >= thresh, np.abs(symbols.imag) >= thresh


def modulate(spec: ConstellationSpec, bits) -> np.ndarray:
    """Map a flat 0/1 bit sequence to constellation symbols.

    The bit count must be a multiple of log2(order); each group is read
    MSB-first as the label into the Gray map.
    """
    bits = np.asarray(bits, dtype=np.int64).reshape(-1)
    bps = spec.bits_per_symbol
    if bits.size % bps:
        raise ValueError(f"bit count {bits.size} is not a multiple of {bps}")
    groups = bits.reshape(-1, bps)
    weights = 1 << np.arange(bps - 1, -1, -1)
    labels = groups @ weights
    return spec.points[labels]


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


def demodulate(spec: ConstellationSpec, r):
    """Hard nearest-neighbor demodulation (per-axis slicing, saturating).

    Accepts a scalar or an array of complex samples and returns
    ``(points, bits)`` where ``bits`` has a trailing axis of length
    log2(order).
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=complex))
    i_re = _slice_axis(spec.levels, r_arr.real)
    i_im = _slice_axis(spec.levels, r_arr.imag)
    points = spec.levels[i_re] + 1j * spec.levels[i_im]

    b = spec.bits_per_axis
    labels = (_gray(i_re) << b) | _gray(i_im)
    bps = spec.bits_per_symbol
    shifts = np.arange(bps - 1, -1, -1)
    bits = (labels[..., None] >> shifts) & 1

    if np.isscalar(r) or np.asarray(r).ndim == 0:
        return complex(points[0]), bits[0]
    return points, bits
