"""Per-symbol constructive-interference precoding.

For one symbol duration the design variable is the precoded transmit vector
x (the product of the precoding matrix and the symbol vector; the matrix
itself is never needed). Writing the noiseless receive sample of user k as

    h_k^T x = alphas[2k] * Re{s_k} + j * alphas[2k+1] * Im{s_k},

each of the 2K (user, axis) components is either *inner* (its scale factor
must equal the common margin t, or the sample would leave its decision
region) or *outer* (its scale factor may exceed t, pushing the sample deeper
into the region). The precoder maximizes t subject to those constraints and
||x||_2 <= 1.

An instance stores its outer components as one interleaved (2K,) boolean
mask (user k's real axis at 2k, imaginary at 2k+1); a block is classified in
one call and each symbol duration takes its row of the block's masks.

Solution method: each scale factor is a fixed linear functional of the
stacked real vector w = [Re x; Im x]. The channel's real form
(ChannelRealization.stacked, built once per block) maps w to the interleaved
Re/Im receive samples; dividing its rows by the interleaved symbol components
gives the 2K coupling rows G, with alphas = G w. For t > 0 the substitution
w -> w / t turns the problem into the strictly convex least-distance program

    minimize ||w||  s.t.  G_inner w = 1,  G_outer w >= 1,

whose solution gives t* = 1 / ||w*|| and x* = w* / ||w*||. Each equality is
written as two opposite inequalities, and the whole program is solved by
Lawson and Hanson's reduction of least-distance programming to a single
nonnegative least squares problem (Solving Least Squares Problems, 1974,
ch. 23). That is an exact active-set method and needs no rank assumption on
G: rank-deficient channels, K < N_T, all-inner and all-outer symbol vectors
take the same path, and an empty constraint set shows up as a zero NNLS
residual. The NNLS solution also gives the Lagrange multipliers nu (free on
the inner rows, nonnegative on the outer ones). By weak duality,
||G^T nu|| / sum(nu) bounds every achievable margin from above, so its excess
over t* is a certified duality gap at no extra cost. The reported scale
factors are read off the same coupling rows at the returned point, and the
status is verify_solution's verdict on them plus the norm and gap tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import nnls

from .channel import ChannelRealization
from .constellation import ConstellationSpec, classify_component

_AXES = ("re", "im")


class SolverStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances for the CI solve.

    ``tol`` bounds the certified duality gap relative to max(1, margin);
    ``feas_tol`` bounds the constraint violations of the returned point.
    """

    tol: float = 1e-8
    feas_tol: float = 1e-7


@dataclass(frozen=True)
class CiInstance:
    """One symbol duration's CI problem: channel, symbols, component split."""

    channel: ChannelRealization
    symbols: np.ndarray        # (K,) complex
    outer: np.ndarray          # (2K,) bool, interleaved as SlpSolution.alphas

    def __post_init__(self):
        if np.shape(self.outer) != (2 * self.channel.n_users,):
            raise ValueError(f"outer mask needs 2K entries, got shape {np.shape(self.outer)}")

    @property
    def inner_index_set(self) -> tuple[tuple[int, str], ...]:
        return _index_set(~self.outer)

    @property
    def outer_index_set(self) -> tuple[tuple[int, str], ...]:
        return _index_set(self.outer)


def _index_set(mask: np.ndarray) -> tuple[tuple[int, str], ...]:
    """(k, "re"|"im") pairs of a component mask, k ascending, re before im."""
    return tuple([(i // 2, _AXES[i % 2]) for i in np.flatnonzero(mask).tolist()])


@dataclass
class SlpSolution:
    x: np.ndarray              # (N_T,) complex precoded vector, ||x|| = 1 at optimum
    margin: float              # common scale t of the inner components
    alphas: np.ndarray         # (2K,) scale factors: user k's real axis at 2k, imaginary at 2k+1
    status: SolverStatus
    gap: float = math.inf      # certified duality gap; inf where no certificate is computed


@dataclass(frozen=True)
class ResidualReport:
    """Constraint violations of a candidate solution.

    ``ball`` is the violation of the transmit-power ball (zero inside it);
    ``norm_dev`` additionally reports the distance of ||x|| from the boundary,
    where every non-degenerate optimum lies.
    """

    coupling: float      # receive sample vs stored scale factors (C1)
    outer: float         # outer factors falling below the margin (C2)
    inner: float         # inner factors deviating from the margin (C3)
    ball: float          # max(||x||^2 - 1, 0)
    norm_dev: float      # | ||x|| - 1 |
    passed: bool


def _outer_masks(spec: ConstellationSpec, symbols: np.ndarray) -> np.ndarray:
    """Interleaved outer masks: (..., K) symbol vectors give (..., 2K) flags."""
    re_outer, im_outer = classify_component(spec, symbols)
    return np.stack([re_outer, im_outer], axis=-1).reshape(*symbols.shape[:-1], -1)


def build_instance(channel: ChannelRealization, symbols, spec: ConstellationSpec) -> CiInstance:
    """Split the 2K (user, axis) components of a symbol vector into inner/outer."""
    symbols = np.ascontiguousarray(symbols, dtype=complex).reshape(-1)
    return CiInstance(channel, symbols, _outer_masks(spec, symbols))


def solve_block(channel: ChannelRealization, symbols, spec: ConstellationSpec):
    """Yield (instance, solution) per symbol duration of a (K, M) block, classified at once."""
    vectors = np.ascontiguousarray(np.transpose(symbols), dtype=complex)
    for vector, outer in zip(vectors, _outer_masks(spec, vectors)):
        instance = CiInstance(channel, vector, outer)
        yield instance, solve_ci_max(instance)


def _zero_solution(instance: CiInstance, status: SolverStatus) -> SlpSolution:
    return SlpSolution(
        x=np.zeros(instance.channel.n_antennas, dtype=complex),
        margin=0.0,
        alphas=np.zeros(2 * instance.channel.n_users),
        status=status,
    )


def solve_ci_max(instance: CiInstance, opts: SolverOptions | None = None) -> SlpSolution:
    """Maximize the CI margin for one symbol duration.

    Always returns a solution: for full-row-rank channels the optimum has a
    strictly positive margin and unit transmit norm; on degenerate channels
    where no positive margin is achievable the zero vector (margin 0) is
    returned with OPTIMAL status, and power allocation will reject it.
    """
    opts = opts or SolverOptions()
    # Coupling rows: the stacked channel over the interleaved symbol components.
    components = np.ascontiguousarray(instance.symbols, dtype=complex).view(float)
    if not components.all():
        raise ValueError("symbols must have nonzero real and imaginary parts")
    rows = instance.channel.stacked / components[:, None]
    inner = ~instance.outer

    # Row scaling for conditioning; the scaled system keeps the same geometry.
    norms = np.sqrt(np.add.reduce(rows * rows, axis=1))
    if not norms.all():
        return _zero_solution(instance, SolverStatus.OPTIMAL)
    # Least-distance form G w >= h: every row, then each inner row negated.
    scaled = rows / norms[:, None]
    G = np.concatenate([scaled, -scaled[inner]])
    h = np.concatenate([1.0 / norms, -1.0 / norms[inner]])

    # Lawson-Hanson: NNLS on E = [G^T; h^T] against the last unit vector.
    E = np.vstack([G.T, h])
    target = np.zeros(E.shape[0])
    target[-1] = 1.0
    try:
        u, _ = nnls(E, target, maxiter=10 * max(E.shape))
    except RuntimeError:  # nnls iteration cap
        return _zero_solution(instance, SolverStatus.MAX_ITER)
    r = E @ u - target
    if abs(r[-1]) < 1e-12:  # G^T u = 0 with h^T u = 1: no w meets G w >= h
        return _zero_solution(instance, SolverStatus.OPTIMAL)
    w = -r[:-1] / r[-1]

    margin = 1.0 / math.sqrt(w @ w)
    stacked = w * margin
    n_tx = instance.channel.n_antennas
    x = stacked[:n_tx] + 1j * stacked[n_tx:]
    sol = SlpSolution(x=x, margin=margin, alphas=rows @ stacked, status=SolverStatus.OPTIMAL)

    # The same u holds the multipliers of G w >= h; folded back onto the 2K
    # unscaled rows they bound every margin by ||rows^T nu|| / sum(nu).
    n_rows = rows.shape[0]
    mu = u / -r[-1]
    nu = mu[:n_rows].copy()
    nu[inner] -= mu[n_rows:]
    nu /= norms
    mass = float(np.add.reduce(nu))
    bound = rows.T @ nu
    sol.gap = max(math.sqrt(bound @ bound) / mass - margin, 0.0) if mass > 0 else math.inf

    scale = max(1.0, margin)
    report = verify_solution(instance, sol, tol=opts.feas_tol * scale)
    if not report.passed or report.norm_dev > opts.feas_tol * scale or sol.gap > opts.tol * scale:
        sol.status = SolverStatus.MAX_ITER
    return sol


def verify_solution(instance: CiInstance, sol: SlpSolution, tol: float = 1e-6) -> ResidualReport:
    """Check a solution's constraints against its *stored* scale factors.

    Uses the stored alphas (not ones recomputed from x) so that tampering
    with x shows up as a coupling violation.
    """
    y = instance.channel.H @ sol.x
    alphas = sol.alphas
    target = alphas[0::2] * instance.symbols.real + 1j * alphas[1::2] * instance.symbols.imag
    coupling = float(np.abs(y - target).max()) if y.size else 0.0

    inner_alphas = alphas[~instance.outer]
    outer_alphas = alphas[instance.outer]
    inner = float(np.abs(inner_alphas - sol.margin).max()) if inner_alphas.size else 0.0
    outer = float(np.maximum(sol.margin - outer_alphas, 0.0).max()) if outer_alphas.size else 0.0

    x_norm = math.sqrt(sol.x.real @ sol.x.real + sol.x.imag @ sol.x.imag)
    ball = max(x_norm**2 - 1.0, 0.0)
    norm_dev = abs(x_norm - 1.0)
    passed = max(coupling, inner, outer, ball) <= tol
    return ResidualReport(
        coupling=coupling,
        outer=outer,
        inner=inner,
        ball=ball,
        norm_dev=norm_dev,
        passed=passed,
    )
