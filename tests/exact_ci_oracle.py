"""Exact CI margin of small instances, in rational arithmetic, by active-set enumeration.

The CI program of one symbol duration is, after w = x / t, the least-distance
program

    minimize ||w||^2  s.t.  G_inner w = 1,  G_outer w >= 1,

with coupling rows g_i = stacked_i / c_i (the channel's real form over the
interleaved symbol components). Its optimum is the unique KKT point: for
the set Z of outer rows left slack and F the other rows, w = G_F^T lam_F
with G_F w = 1, that is (G_F G_F^T) lam_F = 1, lam >= 0 on the outer rows
of F and G_Z w >= 1. Then ||w||^2 = lam_F^T G_F w = sum(lam_F), so the
margin is t* = 1 / ||w|| with t*^2 = 1 / sum(lam_F).

The rows are read exactly as ``fractions.Fraction`` values of the floats,
every subset Z of the outer rows is tried, smallest first, and each system
is solved by exact elimination; a singular one is skipped. Nothing here
shares math or code with the production solver beyond the row definition.
It costs up to 2^|outer| eliminations, so it is meant for 2K <= 8.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np


def _solve_exact(matrix, rhs):
    """x with matrix x = rhs by Gauss-Jordan elimination, or None if singular."""
    n = len(rhs)
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col] / head[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], head)]
    return [rows[r][n] / rows[r][r] for r in range(n)]


def exact_margin_squared(instance) -> Fraction | None:
    """t*^2 of a CiInstance as an exact Fraction; None when no active set
    qualifies, as on a rank-deficient channel."""
    stacked = instance.channel.stacked
    components = np.ascontiguousarray(instance.symbols, dtype=complex).view(float)
    g = [[Fraction(v) / Fraction(c) for v in row] for row, c in zip(stacked.tolist(), components.tolist())]
    gram = [[sum(a * b for a, b in zip(gi, gj)) for gj in g] for gi in g]
    outer = np.flatnonzero(instance.outer).tolist()
    for size in range(len(outer) + 1):
        for slack in combinations(outer, size):
            active = [i for i in range(len(g)) if i not in slack]
            lam = _solve_exact([[gram[i][j] for j in active] for i in active],
                               [Fraction(1)] * len(active))
            if lam is None:
                continue
            if any(lam[a] < 0 for a, i in enumerate(active) if instance.outer[i]):
                continue
            # G_Z w = G_Z G_F^T lam_F, read from the Gram matrix
            if all(sum(gram[z][i] * l for i, l in zip(active, lam)) >= 1 for z in slack):
                return 1 / sum(lam, Fraction(0))
    return None
