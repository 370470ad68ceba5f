import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slpsim import link_sim, slp_core
from slpsim.channel import generate_channel, sigma2_from_snr, trial_rng
from slpsim.constellation import SUPPORTED_ORDERS, build_constellation, classify_component
from slpsim.errors import SolverFailure
from slpsim.link_sim import LinkConfig, Scheme, simulate_block
from slpsim.slp_core import (
    ChannelRealization,
    CiInstance,
    SlpSolution,
    SolverOptions,
    SolverStatus,
    _solve_ldp,
    _solve_whitened,
    build_instance,
    solve_block,
    solve_ci_max,
    verify_solution,
)

from ci_oracle import margin_oracle_for_instance
from exact_ci_oracle import exact_margin_squared

SPEC16 = build_constellation(16)
SPEC4 = build_constellation(4)


def random_instance(seed, users=2, antennas=2, spec=SPEC16, mask=None):
    """Random channel and symbols; mask "inner"/"outer" draws only points
    whose two axes are both of that class."""
    rng = trial_rng(seed)
    channel = generate_channel(users, antennas, rng)
    points = spec.points
    if mask is not None:
        outer = classify_component(spec, points)
        re_outer, im_outer = outer[..., 0::2], outer[..., 1::2]
        want = mask == "outer"
        points = points[(re_outer == want) & (im_outer == want)]
    symbols = points[rng.integers(0, points.size, users)]
    return build_instance(ChannelRealization(channel), symbols, spec)


def test_build_instance_mixed_types():
    H = generate_channel(2, 2, trial_rng(0))
    symbols = np.array([(1 + 1j), (3 + 3j)]) / np.sqrt(10)  # type A, type D
    inst = build_instance(ChannelRealization(H), symbols, SPEC16)
    assert inst.outer.tolist() == [False, False, True, True]
    assert inst.outer_index_set.tolist() == [2, 3]


def test_build_instance_qpsk_all_outer():
    H = generate_channel(1, 1, trial_rng(1))
    inst = build_instance(ChannelRealization(H), [SPEC4.points[0]], SPEC4)
    assert inst.outer.tolist() == [True, True]
    assert inst.outer_index_set.tolist() == [0, 1]


def test_build_instance_all_inner():
    H = generate_channel(3, 3, trial_rng(2))
    symbols = np.full(3, (1 + 1j) / np.sqrt(10))
    inst = build_instance(ChannelRealization(H), symbols, SPEC16)
    assert inst.outer.tolist() == [False] * 6
    assert inst.outer_index_set.size == 0


def test_build_instance_rejects_foreign_symbol():
    H = generate_channel(1, 1, trial_rng(3))
    with pytest.raises(ValueError):
        build_instance(ChannelRealization(H), [0.2 + 0.2j], SPEC16)
    H3 = generate_channel(3, 3, trial_rng(3))
    with pytest.raises(ValueError, match="0.2"):
        build_instance(ChannelRealization(H3), [SPEC16.points[0], SPEC16.points[5], 0.2 + 0.2j], SPEC16)
    # a zero-axis symbol has no scale factor on that axis, even when an
    # instance is built by hand around the classification
    zero_axis = CiInstance(
        channel=ChannelRealization(H),
        symbols=np.array([1.0 + 0j]),
        outer=np.array([False, False]),
    )
    with pytest.raises(ValueError):
        solve_ci_max(zero_axis)


@pytest.mark.parametrize(
    "order, users, antennas",
    [(4, 4, 4), (16, 4, 4), (64, 4, 4), (256, 4, 4), (16, 3, 6)],
    ids=["4qam", "16qam", "64qam", "256qam", "16qam-K<N_T"],
)
def test_block_path_matches_one_vector_path(order, users, antennas):
    # one classification per block must give the very same solves as one per vector
    spec = build_constellation(order)
    rng = trial_rng(order, users, antennas)
    channel = generate_channel(users, antennas, rng)
    symbols = spec.points[rng.integers(0, order, (users, 30))]
    X, margins = solve_block(channel, symbols, spec)
    view = ChannelRealization(channel)
    one = [solve_ci_max(build_instance(view, symbols[:, m], spec)) for m in range(symbols.shape[1])]
    assert np.array_equal(X, np.column_stack([sol.x for sol in one]))
    assert np.array_equal(margins, [sol.margin for sol in one])


def test_index_sets_follow_the_classification():
    spec = build_constellation(64)
    rng = trial_rng(5)
    channel = generate_channel(6, 6, rng)
    symbols = spec.points[rng.integers(0, 64, 6)]
    inst = build_instance(ChannelRealization(channel), symbols, spec)
    mask = classify_component(spec, symbols)
    assert mask.any() and not mask.all()
    assert np.array_equal(inst.outer, mask)
    assert np.array_equal(inst.outer_index_set, np.flatnonzero(mask))


def test_instance_mask_must_cover_the_2k_components():
    H = generate_channel(2, 2, trial_rng(6))
    for outer in (np.zeros(3, bool), np.zeros(5, bool), np.zeros((2, 2), bool)):
        with pytest.raises(ValueError, match="2K"):
            CiInstance(channel=ChannelRealization(H), symbols=SPEC16.points[:2], outer=outer)
    with pytest.raises(ValueError, match="2K"):  # symbol count and channel disagree
        build_instance(ChannelRealization(H), SPEC16.points[:3], SPEC16)


def test_analytic_single_user_inner():
    # single antenna, unit channel, inner point: both axes pinned to the
    # margin force x = t*s, and ||x|| = 1 gives t = 1/|s| = sqrt(5)
    unit = ChannelRealization(np.array([[1.0 + 0j]]))
    inst = build_instance(unit, [(1 + 1j) / np.sqrt(10)], SPEC16)
    sol = solve_ci_max(inst)
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.margin == pytest.approx(np.sqrt(5), abs=1e-9)
    np.testing.assert_allclose(sol.x, [(1 + 1j) / np.sqrt(2)], atol=1e-9)


def test_analytic_single_user_corner():
    # corner point: symmetric max-min over the ball, t = sqrt(5)/3
    unit = ChannelRealization(np.array([[1.0 + 0j]]))
    inst = build_instance(unit, [(3 + 3j) / np.sqrt(10)], SPEC16)
    sol = solve_ci_max(inst)
    assert sol.margin == pytest.approx(np.sqrt(5) / 3, abs=1e-9)
    np.testing.assert_allclose(sol.x, [(1 + 1j) / np.sqrt(2)], atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    order=st.sampled_from(SUPPORTED_ORDERS),
    users=st.integers(1, 4),
    extra_antennas=st.integers(0, 2),
    mask=st.sampled_from([None, "inner", "outer"]),
)
@example(seed=10, order=16, users=2, extra_antennas=0, mask=None)
@example(seed=11, order=4, users=1, extra_antennas=0, mask=None)
@example(seed=12, order=256, users=2, extra_antennas=2, mask="inner")
@example(seed=13, order=64, users=4, extra_antennas=0, mask="outer")
def test_solver_matches_bruteforce_oracle(seed, order, users, extra_antennas, mask):
    assume(not (order == 4 and mask == "inner"))  # QPSK has no inner axis
    inst = random_instance(seed, users, users + extra_antennas, build_constellation(order), mask)
    sol = solve_ci_max(inst)
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.margin == pytest.approx(margin_oracle_for_instance(inst), abs=1e-3)
    assert sol.gap <= 1e-8 * max(1.0, sol.margin)
    assert verify_solution(inst, sol).passed


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_solver_matches_the_exact_rational_oracle(order):
    """Three Rayleigh draws per K <= 4 and N_T in K..K+2: the solver's margin
    is the exact active-set margin to 1e-12 relative."""
    spec = build_constellation(order)
    for users in range(1, 5):
        for antennas in range(users, users + 3):
            for draw in range(3):
                rng = trial_rng(draw, users, antennas)
                H = generate_channel(users, antennas, rng)
                inst = build_instance(ChannelRealization(H), spec.points[rng.integers(0, order, users)], spec)
                exact = exact_margin_squared(inst)
                assert exact is not None, (users, antennas, draw)
                assert solve_ci_max(inst).margin == pytest.approx(math.sqrt(exact), rel=1e-12), \
                    (users, antennas, draw)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    order=st.sampled_from(SUPPORTED_ORDERS),
    users=st.integers(1, 8),
    extra_antennas=st.integers(0, 4),
    mask=st.sampled_from([None, "inner", "outer"]),
)
@example(seed=30, order=4, users=4, extra_antennas=0, mask="outer")
@example(seed=31, order=16, users=6, extra_antennas=0, mask=None)
@example(seed=32, order=64, users=3, extra_antennas=3, mask="inner")
@example(seed=33, order=256, users=8, extra_antennas=0, mask="inner")
@example(seed=34, order=256, users=5, extra_antennas=2, mask=None)
@example(seed=35, order=16, users=2, extra_antennas=4, mask="outer")
def test_whitened_solve_matches_the_ldp_path(seed, order, users, extra_antennas, mask):
    # the whitened dual and the least-distance program are the same problem:
    # on a well-conditioned channel solve_ci_max takes the first, and the
    # exact Lawson-Hanson path must agree with it to rounding
    assume(not (order == 4 and mask == "inner"))  # QPSK has no inner axis
    inst = random_instance(seed, users, users + extra_antennas, build_constellation(order), mask)
    components = inst.symbols.view(float)
    fast = solve_ci_max(inst)
    assert inst.channel.whitener is not None
    assert np.array_equal(fast.x, _solve_whitened(inst, components, SolverOptions()).x)
    exact = _solve_ldp(inst, components, SolverOptions())
    assert fast.status is exact.status is SolverStatus.OPTIMAL
    assert fast.margin == pytest.approx(exact.margin, rel=1e-9, abs=0)
    assert np.max(np.abs(fast.x - exact.x)) <= 1e-9
    assert fast.gap <= 1e-8 * max(1.0, fast.margin)


_H_ROW = np.array([0.7 + 0.2j, -0.3 + 0.9j])
_DUPLICATED_ROW, _ZERO_ROW = np.vstack([_H_ROW, _H_ROW]), np.vstack([_H_ROW, np.zeros(2)])
_INNER, _CORNER = (1 + 1j) / np.sqrt(10), (3 + 3j) / np.sqrt(10)


@pytest.mark.parametrize(
    "H, symbols, margin",
    [
        (_DUPLICATED_ROW, (_INNER, _INNER), 2.673948),
        (_DUPLICATED_ROW, (_INNER, (-1 + 1j) / np.sqrt(10)), 0.0),
        (_DUPLICATED_ROW, (_CORNER, _CORNER), 0.891316),
        (_DUPLICATED_ROW, (_INNER, _CORNER), 0.0),
        (_ZERO_ROW, (_INNER, _CORNER), 0.0),
    ],
    ids=["same-inner", "opposite-inner", "same-corner", "inner-vs-corner", "zero-row"],
)
def test_rank_deficient_channels(H, symbols, margin):
    # two users behind one channel row: the margin exists only when both
    # users' constraints can be met by the same receive sample
    inst = build_instance(ChannelRealization(H), symbols, SPEC16)
    sol = solve_ci_max(inst)
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.margin == pytest.approx(margin, abs=1e-6)
    assert sol.margin == pytest.approx(margin_oracle_for_instance(inst), abs=1e-3)
    # a zero margin carries no certificate; a positive one a certified gap
    assert sol.gap <= 1e-8 * max(1.0, sol.margin) if sol.margin > 0 else sol.gap == np.inf
    assert verify_solution(inst, sol).passed


def _near_singular_instance(seed, eps):
    """3x3, 16QAM: channel row 2 is row 1 plus eps times a CN(0, 2) draw, so the
    rows stay linearly independent and the margin stays positive."""
    rng = trial_rng(seed)
    H = generate_channel(3, 3, rng)
    H[1] = H[0] + eps * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    return build_instance(ChannelRealization(H), SPEC16.points[rng.integers(0, 16, 3)], SPEC16)


@pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6])
def test_near_singular_channels_keep_a_certified_positive_margin(eps):
    # linearly independent rows always admit a positive margin, however small:
    # the degeneracy test must judge the NNLS residual (about t) at rounding
    # scale, not its last entry (about t^2)
    for seed in range(50):
        inst = _near_singular_instance(seed, eps)
        sol = solve_ci_max(inst)
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.margin > 0
        assert verify_solution(inst, sol).passed
        assert sol.gap <= 1e-8 * max(1.0, sol.margin)


def _sweep_channel():
    """The 4x4 Rayleigh draw of ``trial_rng(6, 7, 2)``: cond(R) is about 5.7e6,
    above the whitening bound, so every CI solve on it takes the least-distance form."""
    return generate_channel(4, 4, trial_rng(6, 7, 2))


def test_only_well_conditioned_channels_are_whitened():
    # rank-deficient and near-singular channels must take the exact path:
    # whitened, the eps = 1e-5 channels pass every status check with margins
    # up to 2e-4 relative off, as the gap tolerance 1e-8 * max(1, t) is
    # absolute at t < 1
    assert ChannelRealization(_DUPLICATED_ROW).whitener is None
    assert ChannelRealization(_ZERO_ROW).whitener is None
    assert ChannelRealization(_sweep_channel()).whitener is None
    for eps in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        for seed in range(50):
            assert _near_singular_instance(seed, eps).channel.whitener is None, (eps, seed)
    for users, antennas in ((1, 1), (4, 4), (3, 6), (12, 12)):
        for seed in range(50):
            H = generate_channel(users, antennas, trial_rng(seed, users, antennas))
            channel = ChannelRealization(H)
            L_inv = channel.whitener
            gram = channel.stacked @ channel.stacked.T
            np.testing.assert_allclose(L_inv @ gram @ L_inv.T, np.eye(2 * users), atol=1e-9)


def test_unwhitened_sweep_channel_solves_every_symbol(monkeypatch):
    # a Rayleigh draw that takes the least-distance form on every symbol
    rng = trial_rng(6)
    block = SPEC16.points[rng.integers(0, 16, (4, 50))]
    channel = ChannelRealization(_sweep_channel())
    instances = [build_instance(channel, vector, SPEC16) for vector in block.T]
    solved = [(inst, solve_ci_max(inst)) for inst in instances]
    assert len(solved) == 50
    for inst, sol in solved:
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.margin > 0
        assert sol.gap <= 1e-8 * max(1.0, sol.margin)
        assert verify_solution(inst, sol).passed
    for inst, sol in solved[:3]:
        assert sol.margin == pytest.approx(margin_oracle_for_instance(inst), abs=1e-3)
    # the block solve gives the very same margins
    _, margins = solve_block(_sweep_channel(), block, SPEC16)
    assert np.array_equal(margins, [sol.margin for _, sol in solved])
    # and the engine transmits an in-block SLP block over it, solved in that form
    original, forms = slp_core._solve_ldp, []

    def counting(*args):
        forms.append(args)
        return original(*args)

    monkeypatch.setattr(slp_core, "_solve_ldp", counting)
    monkeypatch.setattr(link_sim, "generate_channel", lambda *args: _sweep_channel())
    cfg = LinkConfig(users=4, antennas=4, block_len=50, seed=6)
    result = simulate_block(cfg, Scheme.SLP_IN_BLOCK, sigma2_from_snr(40.0, 50), trial_rng(6, 2))
    assert len(forms) == cfg.block_len
    assert result.f_spread <= 1e-9


def test_whitened_iteration_cap_falls_back_to_the_least_distance_form(monkeypatch):
    inst = random_instance(40, users=3, antennas=3)
    assert inst.channel.whitener is not None
    exact = _solve_ldp(inst, inst.symbols.view(float), SolverOptions())
    original, calls = slp_core._nnls, []

    def capped_once(A, b):
        calls.append(A.shape)
        if len(calls) == 1:
            raise RuntimeError("iteration cap")
        return original(A, b)

    monkeypatch.setattr(slp_core, "_nnls", capped_once)
    sol = solve_ci_max(inst)
    assert len(calls) == 2
    assert sol.status is SolverStatus.OPTIMAL
    assert np.array_equal(sol.x, exact.x)
    assert sol.margin == exact.margin


def test_least_distance_iteration_cap_fails_the_block(monkeypatch):
    def capped(A, b):
        raise RuntimeError("iteration cap")

    monkeypatch.setattr(slp_core, "_nnls", capped)
    # whitened, then least-distance; and least-distance alone
    for inst in (random_instance(41, users=3, antennas=3), _near_singular_instance(0, 1e-6)):
        sol = solve_ci_max(inst)
        assert sol.status is SolverStatus.MAX_ITER
        assert sol.margin == 0.0
        assert not sol.x.any()
    rng = trial_rng(41)
    H = generate_channel(3, 3, rng)
    with pytest.raises(SolverFailure, match="status max_iter"):
        solve_block(H, SPEC16.points[rng.integers(0, 16, (3, 4))], SPEC16)


def test_uncertified_least_distance_solve(monkeypatch):
    regular, near_singular = random_instance(42, users=3, antennas=3), _near_singular_instance(0, 1e-8)
    optimum = solve_ci_max(regular).margin
    assert 0 < solve_ci_max(near_singular).margin < 1e-7
    monkeypatch.setattr(slp_core, "_certified", lambda *args: False)
    sol = solve_ci_max(regular)
    assert sol.status is SolverStatus.MAX_ITER
    assert sol.margin == pytest.approx(optimum, rel=1e-9)
    # a margin whose square is lost in rounding: no margin is certified
    sol = solve_ci_max(near_singular)
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.margin == 0.0
    assert not sol.x.any()


def test_unit_norm_and_positive_margin():
    for seed in range(20):
        inst = random_instance(seed, users=3, antennas=4)
        sol = solve_ci_max(inst)
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.margin > 0
        assert np.linalg.norm(sol.x) == pytest.approx(1.0, abs=1e-6)
        assert verify_solution(inst, sol).passed


def test_block_symbols_spend_unit_power():
    # with the allocations summing to P_T, a block then spends P_T to within 1e-9
    rng = trial_rng(2, 0, 0)
    channel = generate_channel(3, 4, rng)
    X, _ = solve_block(channel, SPEC16.points[rng.integers(0, 16, (3, 10))], SPEC16)
    np.testing.assert_allclose(np.sum(np.abs(X) ** 2, axis=0), 1.0, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(min_value=0.1, max_value=10.0))
def test_scale_equivariance(seed, scale):
    inst = random_instance(seed)
    scaled = CiInstance(
        channel=type(inst.channel)(inst.channel.H * scale),
        symbols=inst.symbols,
        outer=inst.outer,
    )
    sol = solve_ci_max(inst)
    sol_scaled = solve_ci_max(scaled)
    assert sol_scaled.margin == pytest.approx(scale * sol.margin, rel=1e-8)
    np.testing.assert_allclose(sol_scaled.x, sol.x, atol=1e-7)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_relaxing_inner_to_outer_never_hurts(seed):
    inst = random_instance(seed, users=3, antennas=3)
    if inst.outer.all():
        return
    outer = inst.outer.copy()
    outer[np.flatnonzero(~outer)[0]] = True  # the first inner component
    relaxed = CiInstance(
        channel=inst.channel,
        symbols=inst.symbols,
        outer=outer,
    )
    assert solve_ci_max(relaxed).margin >= solve_ci_max(inst).margin - 1e-9


TAMPERS = {
    "noise": lambda x: x + 1e-3 * np.random.default_rng(0).standard_normal(x.shape),
    "grow": lambda x: x * 1.001,
    "shrink": lambda x: x * 0.999,
    "phase": lambda x: x * np.exp(1j * np.pi / 8),
}


# The mixed 16QAM instance has inner and outer components; on the all-outer
# QPSK instance only the outer or ball residual can catch an edit.
@pytest.mark.parametrize("case, tamper, residual", [
    ("16qam-mixed", "noise", "inner"), ("16qam-mixed", "grow", "ball"),
    ("16qam-mixed", "shrink", "inner"), ("16qam-mixed", "phase", "inner"),
    ("qpsk-all-outer", "noise", "outer"), ("qpsk-all-outer", "grow", "ball"),
    ("qpsk-all-outer", "shrink", "outer"), ("qpsk-all-outer", "phase", "outer"),
])
def test_verify_detects_perturbation(case, tamper, residual):
    inst = random_instance(21, spec=SPEC16 if case == "16qam-mixed" else SPEC4)
    assert inst.outer.any() and inst.outer.all() == (case == "qpsk-all-outer")
    sol = solve_ci_max(inst)
    assert verify_solution(inst, sol).passed
    sol.x = TAMPERS[tamper](sol.x)
    report = verify_solution(inst, sol)
    assert getattr(report, residual) > 1e-5
    assert not report.passed


def test_verify_degenerate_zero_point():
    inst = random_instance(22)
    zero = SlpSolution(
        x=np.zeros(2, dtype=complex),
        margin=0.0,
        status=SolverStatus.OPTIMAL,
    )
    report = verify_solution(inst, zero)
    assert report.inner == 0.0
    assert report.outer == 0.0
    assert report.ball == 0.0
    assert report.passed
    assert report.norm_dev == 1.0


def test_nnls_of_a_matrix_without_columns_is_empty():
    """An all-inner block has no outer columns. SciPy's nnls aborts the
    interpreter on such a matrix (SciPy 1.17.1: a double free, exit 134), so
    ``_nnls`` answers it itself. It runs in a child process, so a regression
    fails this test instead of killing the test run."""
    script = ("import numpy as np; from slpsim.slp_core import _nnls; "
              "print(_nnls(np.zeros((8, 0)), np.ones(8)).shape)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(slp_core.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["(0,)"]
