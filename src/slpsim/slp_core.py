"""Per-symbol constructive-interference precoding.

For one symbol duration the design variable is the precoded transmit vector
x (the product of the precoding matrix and the symbol vector; the matrix
itself is never needed). Writing the noiseless receive sample of user k as

    h_k^T x = a[2k] * Re{s_k} + j * a[2k+1] * Im{s_k},

each of the 2K (user, axis) components is either *inner* (its scale factor
must equal the common margin t, or the sample would leave its decision
region) or *outer* (its scale factor may exceed t, pushing the sample deeper
into the region). The precoder maximizes t subject to those constraints and
||x||_2 <= 1.

An instance stores its outer components as one interleaved (2K,) boolean
mask (user k's real axis at 2k, imaginary at 2k+1). A block is classified
in one classify_component call, whose (M, 2K) mask is in that layout, and
each symbol duration takes its row.

Solution method: each scale factor is a fixed linear functional of the
stacked real vector w = [Re x; Im x]. The channel's real form
(ChannelRealization.stacked, built once per block) maps w to the interleaved
Re/Im receive samples; dividing its rows by the interleaved symbol components
c gives the 2K coupling rows G, with a = G w. For t > 0 the substitution
w -> w / t turns the problem into the strictly convex least-distance program

    minimize ||w||  s.t.  G_inner w = 1,  G_outer w >= 1,

whose solution gives t* = 1 / ||w*|| and x* = w* / ||w*||. It is solved
in one of two forms, each by one exact active-set NNLS.

Whitened form, on well-conditioned channels. Let S be the stacked channel,
R = S S^T its Gram matrix with Cholesky factor L, and write the scale
factors at w as a = G w, with a_inner = 1 and a_outer = 1 + s, s >= 0.
The shortest w with S w = c * a is S^T R^-1 (c * a), whose squared norm is
||L^-1 (c * a)||^2, so the program becomes the 2K x |outer| NNLS

    minimize ||A s - b||  s.t.  s >= 0,  A = L^-1[:, outer] c_outer,  b = -L^-1 c

(the dual view of Li and Masouros, IEEE Trans. Wireless Commun., 2018).
With z = A s - b, the optimum is w = S^T L^-T z, and nu = c * (L^-T z) are
the Lagrange multipliers of the coupling rows; on the outer rows they are
the NNLS gradient, nonnegative up to rounding, and are clamped at 0.
ChannelRealization.whitener caches L^-1 once per block, and is None when
R has no Cholesky factor or cond(R) exceeds 1e-9 / eps, the bound at which
the rounding of the whitened solve stays below 1e-9 relative. A symbol
vector is solved in the least-distance form, whose verdict is final, when
its channel has no whitener or its whitened solve hits the NNLS iteration
cap, has no positive multiplier mass or fails the status checks below.

Least-distance form, exact on every channel. Each equality is written as
two opposite inequalities, and the whole program is solved by Lawson and
Hanson's reduction of least-distance programming to a single nonnegative
least squares problem (Solving Least Squares Problems, 1974, ch. 23), of
size (2N_T + 1) x (2K + |inner|). Scaling each row of G and its right-hand
side by the same positive factor leaves the program unchanged, so it is
written in unit rows: row i becomes sign(c_i) * stacked_i / ||stacked_i||
with right-hand side |c_i| / ||stacked_i||. As this form is only the
fallback, each solve computes its row norms and unit rows from
ChannelRealization.stacked. It needs no rank assumption on G:
rank-deficient channels, K < N_T, all-inner and all-outer symbol vectors
take the same path, and an empty constraint set shows up as an NNLS
residual that is zero up to rounding. The residual's norm is about t*, so
near-singular channels keep their small positive margins. The NNLS solution
also gives the multipliers nu (free on the inner rows, nonnegative on the
outer ones).

In both forms, by weak duality, ||G^T nu|| / sum(nu) bounds every
achievable margin from above, so its excess over t* is a certified duality
gap at no extra cost. The status is verify_solution's verdict on the scale
factors of H x at the returned x, plus the norm and gap tolerances. A
least-distance margin whose square is lost in the rounding of the NNLS
residual and that fails these checks is reported as zero: no positive
margin is certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property

import numpy as np

from .constellation import ConstellationSpec, classify_component
from .errors import SolverFailure

# Rounding scale of the NNLS residual E u - e, per unit of 1 + sum(u): the
# entries of E are at most 1 in magnitude but for the offsets, which sum
# against u to about 1.
_ROUNDING = 16 * np.finfo(float).eps
# Largest condition number of the Gram matrix R = stacked @ stacked.T that
# is whitened. A whitened CI solve loses about cond(R) * eps to rounding,
# so this bound keeps that loss below 1e-9 relative.
_MAX_WHITENED_COND = 1e-9 / np.finfo(float).eps


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


_DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True)
class ChannelRealization:
    """The CI solver's view of one block's channel matrix H, (K, N_T) complex.

    Row k of ``H`` is the (transposed) channel vector of user k. The real
    form and the whitener are built on first use and shared by every symbol
    duration of the block.
    """

    H: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.H, dtype=complex)
        if H.ndim != 2:
            raise ValueError("channel matrix must be 2-D (users x antennas)")
        if H.shape[0] < 1:
            raise ValueError(f"need at least one user, got {H.shape[0]}")
        if H.shape[0] > H.shape[1]:
            raise ValueError(
                f"need K <= N_T for symbol-level precoding, got K={H.shape[0]}, N_T={H.shape[1]}"
            )
        if not np.all(np.isfinite(H)):
            raise ValueError("channel matrix has non-finite entries")
        object.__setattr__(self, "H", H)

    @property
    def n_users(self) -> int:
        return self.H.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.H.shape[1]

    @cached_property
    def stacked(self) -> np.ndarray:
        """Real (2K, 2N_T) form of H, built once: row 2k maps w = [Re x; Im x]
        to Re(h_k x) and row 2k+1 to Im(h_k x)."""
        re_h, im_h = self.H.real, self.H.imag
        blocks = np.stack([np.hstack([re_h, -im_h]), np.hstack([im_h, re_h])], axis=1)
        return blocks.reshape(2 * self.n_users, 2 * self.n_antennas)

    @cached_property
    def whitener(self) -> np.ndarray | None:
        """L^-1 for the Cholesky factor L of R = stacked @ stacked.T, (2K, 2K).

        None when R has no Cholesky factor or cond(R) exceeds
        _MAX_WHITENED_COND: such a channel is solved without whitening."""
        gram = self.stacked @ self.stacked.T
        try:
            factor = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return None
        if not np.linalg.cond(gram) <= _MAX_WHITENED_COND:
            return None
        return np.linalg.inv(factor)


@dataclass(frozen=True)
class CiInstance:
    """One symbol duration's CI problem: channel, symbols, component split."""

    channel: ChannelRealization
    symbols: np.ndarray        # (K,) complex
    outer: np.ndarray          # (2K,) bool: user k's real axis at 2k, imaginary at 2k+1

    def __post_init__(self):
        if np.shape(self.outer) != (2 * self.channel.n_users,):
            raise ValueError(f"outer mask needs 2K entries, got shape {np.shape(self.outer)}")

    @property
    def outer_index_set(self) -> np.ndarray:
        """Interleaved outer indices, kept only for bench/harness.py's outer_share (ROADMAP item 1a)."""
        return np.flatnonzero(self.outer)


@dataclass
class SlpSolution:
    x: np.ndarray              # (N_T,) complex precoded vector, ||x|| = 1 at optimum
    margin: float              # common scale t of the inner components
    status: SolverStatus
    gap: float = math.inf      # certified duality gap; inf where no certificate is computed


@dataclass(frozen=True)
class ResidualReport:
    """Constraint violations of a candidate solution, at its x.

    ``ball`` is the violation of the transmit-power ball (zero inside it);
    ``norm_dev`` additionally reports the distance of ||x|| from the boundary,
    where every non-degenerate optimum lies.
    """

    outer: float         # outer factors falling below the margin
    inner: float         # inner factors deviating from the margin
    ball: float          # max(||x||^2 - 1, 0)
    norm_dev: float      # | ||x|| - 1 |
    passed: bool


def build_instance(channel: ChannelRealization, symbols, spec: ConstellationSpec) -> CiInstance:
    """Split the 2K (user, axis) components of a symbol vector into inner/outer."""
    symbols = np.ascontiguousarray(symbols, dtype=complex).reshape(-1)
    return CiInstance(channel, symbols, classify_component(spec, symbols))


def solve_block(H: np.ndarray, symbols, spec: ConstellationSpec) -> tuple[np.ndarray, np.ndarray]:
    """The precoded (N_T, M) block and the M margins of a (K, M) symbol block,
    classified at once; its symbol durations share one view of the channel H.
    Raises SolverFailure at the first symbol whose solve is not OPTIMAL."""
    channel = ChannelRealization(H)
    vectors = np.ascontiguousarray(np.transpose(symbols), dtype=complex)
    X = np.empty((channel.n_antennas, len(vectors)), dtype=complex)
    margins = np.empty(len(vectors))
    for m, (vector, outer) in enumerate(zip(vectors, classify_component(spec, vectors))):
        instance = CiInstance(channel, vector, outer)
        sol = solve_ci_max(instance)
        if sol.status is not SolverStatus.OPTIMAL:
            raise SolverFailure(f"CI solve not optimal at symbol {m}: status {sol.status.value}, "
                                f"gap {sol.gap:.3e}, {verify_solution(instance, sol)}")
        X[:, m], margins[m] = sol.x, sol.margin
    return X, margins


def _zero_solution(instance: CiInstance, status: SolverStatus) -> SlpSolution:
    return SlpSolution(x=np.zeros(instance.channel.n_antennas, dtype=complex), margin=0.0, status=status)


def solve_ci_max(instance: CiInstance, opts: SolverOptions | None = None) -> SlpSolution:
    """Maximize the CI margin for one symbol duration.

    Always returns a solution: for full-row-rank channels the optimum has a
    strictly positive margin and unit transmit norm; on degenerate channels
    where no positive margin is achievable, or none above rounding can be
    certified, the zero vector (margin 0) is returned with OPTIMAL status,
    and power allocation will reject it.
    """
    opts = opts or _DEFAULT_OPTIONS
    components = np.ascontiguousarray(instance.symbols, dtype=complex).view(float)
    if not components.all():
        raise ValueError("symbols must have nonzero real and imaginary parts")
    if instance.channel.whitener is not None:
        sol = _solve_whitened(instance, components, opts)
        if sol is not None:
            return sol
    return _solve_ldp(instance, components, opts)


@cache
def _scipy_nnls():
    from scipy.optimize import nnls  # SciPy loads on the first CI solve, not on import
    return nnls


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin ||A u - b|| over u >= 0; RuntimeError after 10 * max(A.shape) iterations."""
    if not A.shape[1]:  # SciPy's nnls aborts the interpreter on a matrix without columns
        return np.zeros(0)
    return _scipy_nnls()(A, b, maxiter=10 * max(A.shape))[0]


def _solve_whitened(instance: CiInstance, components: np.ndarray,
                    opts: SolverOptions) -> SlpSolution | None:
    """The whitened solve; None where it is not certified."""
    channel = instance.channel
    whitener, outer = channel.whitener, instance.outer
    # z = L^-1 (c * a) with a_outer = 1 + s: minimize ||z|| over s >= 0
    z = whitener @ components
    A = whitener[:, outer] * components[outer]
    try:
        s = _nnls(A, -z)
    except RuntimeError:  # nnls iteration cap
        return None
    z += A @ s
    # w = S^T y for y = L^-T z; c * y are the multipliers, on the outer rows
    # the NNLS gradient, nonnegative up to rounding. Without positive mass
    # they certify nothing (gap inf).
    y = whitener.T @ z
    nu = components * y
    np.maximum(nu, 0.0, out=nu, where=outer)
    sol = _solution(channel, components, channel.stacked.T @ y, nu)
    return sol if _certified(instance, sol, opts) else None


def _solve_ldp(instance: CiInstance, components: np.ndarray, opts: SolverOptions) -> SlpSolution:
    """The least-distance solve by Lawson-Hanson NNLS, exact on every channel."""
    channel = instance.channel
    stacked = channel.stacked
    norms = np.linalg.norm(stacked, axis=1)
    if not norms.all():
        return _zero_solution(instance, SolverStatus.OPTIMAL)

    # Least-distance form G w >= h: the channel's rows over their norms times
    # the component signs, with offsets |component| / row norm, then each
    # inner row negated. Lawson-Hanson: NNLS on E = [G^T; h^T] against the
    # last unit vector, with E copied into the C order nnls takes.
    inner = ~instance.outer
    offsets = np.abs(components) / norms
    rows = np.column_stack([stacked / norms[:, None] * np.sign(components)[:, None], offsets])
    E = np.concatenate([rows, -rows[inner]]).T.copy()
    target = np.zeros(E.shape[0])
    target[-1] = 1.0
    try:
        u = _nnls(E, target)
    except RuntimeError:  # nnls iteration cap
        return _zero_solution(instance, SolverStatus.MAX_ITER)
    r = E @ u
    r[-1] -= 1.0
    # At the optimum ||r||^2 = -r[-1] = t^2 / (1 + t^2). A residual that is
    # zero up to the rounding of E u, or a last entry that is not negative,
    # means G^T u = 0 with h^T u = 1: no w meets G w >= h.
    rounding = _ROUNDING * (1.0 + np.add.reduce(u))
    if r @ r <= rounding * rounding or r[-1] >= 0:
        return _zero_solution(instance, SolverStatus.OPTIMAL)

    # The same u holds the multipliers of G w >= h, folded back onto the 2K
    # coupling rows.
    n_rows = components.size
    nu = u[:n_rows].copy()
    nu[inner] -= u[n_rows:]
    nu *= offsets / -r[-1]
    sol = _solution(channel, components, r[:-1] / -r[-1], nu)
    if not _certified(instance, sol, opts):
        if -r[-1] <= rounding:  # t^2 lost in rounding: w has no scale, no margin is certified
            return _zero_solution(instance, SolverStatus.OPTIMAL)
        sol.status = SolverStatus.MAX_ITER
    return sol


def _solution(channel: ChannelRealization, components: np.ndarray, w: np.ndarray,
              nu: np.ndarray) -> SlpSolution:
    """The solution at w = x / t, with the duality gap of the coupling-row
    multipliers nu: every margin is at most ||stacked^T (nu / c)|| / sum(nu)."""
    margin = 1.0 / math.sqrt(w @ w)
    stacked = w * margin
    n_tx = channel.n_antennas
    mass = float(np.add.reduce(nu))
    bound = channel.stacked.T @ (nu / components)
    return SlpSolution(
        x=stacked[:n_tx] + 1j * stacked[n_tx:],
        margin=margin,
        status=SolverStatus.OPTIMAL,
        gap=max(math.sqrt(bound @ bound) / mass - margin, 0.0) if mass > 0 else math.inf,
    )


def _certified(instance: CiInstance, sol: SlpSolution, opts: SolverOptions) -> bool:
    """Whether a solution meets the residual, norm and duality-gap tolerances."""
    scale = max(1.0, sol.margin)
    report = verify_solution(instance, sol, tol=opts.feas_tol * scale)
    return (report.passed and report.norm_dev <= opts.feas_tol * scale
            and sol.gap <= opts.tol * scale)


def verify_solution(instance: CiInstance, sol: SlpSolution, tol: float = 1e-6) -> ResidualReport:
    """Check a solution's constraints at its x: the scale factors of the
    receive samples H x, per axis, against the margin, and the power ball."""
    components = np.ascontiguousarray(instance.symbols, dtype=complex).view(float)
    dev = (instance.channel.H @ sol.x).view(float) / components - sol.margin
    inner = float(np.maximum.reduce(np.abs(dev), where=~instance.outer, initial=0.0))
    outer = float(np.maximum.reduce(-dev, where=instance.outer, initial=0.0))

    x_norm = math.sqrt(np.vdot(sol.x, sol.x).real)
    ball = max(x_norm**2 - 1.0, 0.0)
    return ResidualReport(outer=outer, inner=inner, ball=ball, norm_dev=abs(x_norm - 1.0),
                          passed=max(inner, outer, ball) <= tol)
