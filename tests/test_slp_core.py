import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slpsim import slp_core
from slpsim.channel import ChannelRealization, generate_channel, trial_rng
from slpsim.constellation import SUPPORTED_ORDERS, build_constellation, classify_component
from slpsim.link_sim import _slp_transmit
from slpsim.slp_core import (
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

SPEC16 = build_constellation(16)
SPEC4 = build_constellation(4)


def random_instance(seed, users=2, antennas=2, spec=SPEC16, mask=None):
    """Random channel and symbols; mask "inner"/"outer" draws only points
    whose two axes are both of that class."""
    rng = trial_rng(seed)
    channel = generate_channel(users, antennas, rng)
    points = spec.points
    if mask is not None:
        re_outer, im_outer = classify_component(spec, points)
        want = mask == "outer"
        points = points[(re_outer == want) & (im_outer == want)]
    symbols = points[rng.integers(0, points.size, users)]
    return build_instance(channel, symbols, spec)


def test_build_instance_mixed_types():
    H = generate_channel(2, 2, trial_rng(0))
    symbols = np.array([(1 + 1j), (3 + 3j)]) / np.sqrt(10)  # type A, type D
    inst = build_instance(H, symbols, SPEC16)
    assert len(inst.inner_index_set) == 2
    assert len(inst.outer_index_set) == 2
    assert set(inst.inner_index_set) == {(0, "re"), (0, "im")}
    assert set(inst.outer_index_set) == {(1, "re"), (1, "im")}


def test_build_instance_qpsk_all_outer():
    H = generate_channel(1, 1, trial_rng(1))
    inst = build_instance(H, [SPEC4.points[0]], SPEC4)
    assert len(inst.inner_index_set) == 0
    assert len(inst.outer_index_set) == 2


def test_build_instance_all_inner():
    H = generate_channel(3, 3, trial_rng(2))
    symbols = np.full(3, (1 + 1j) / np.sqrt(10))
    inst = build_instance(H, symbols, SPEC16)
    assert len(inst.inner_index_set) == 6
    assert len(inst.outer_index_set) == 0


def test_build_instance_rejects_foreign_symbol():
    H = generate_channel(1, 1, trial_rng(3))
    with pytest.raises(ValueError):
        build_instance(H, [0.2 + 0.2j], SPEC16)
    H3 = generate_channel(3, 3, trial_rng(3))
    with pytest.raises(ValueError, match="0.2"):
        build_instance(H3, [SPEC16.points[0], SPEC16.points[5], 0.2 + 0.2j], SPEC16)
    # a zero-axis symbol has no scale factor on that axis, even when an
    # instance is built by hand around the classification
    zero_axis = CiInstance(
        channel=H,
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
    X, margins = _slp_transmit(channel, symbols, spec)
    one = [solve_ci_max(build_instance(channel, symbols[:, m], spec)) for m in range(symbols.shape[1])]
    assert np.array_equal(X, np.column_stack([sol.x for sol in one]))
    assert np.array_equal(margins, [sol.margin for sol in one])


def test_index_sets_follow_the_classification():
    spec = build_constellation(64)
    rng = trial_rng(5)
    channel = generate_channel(6, 6, rng)
    symbols = spec.points[rng.integers(0, 64, 6)]
    inst = build_instance(channel, symbols, spec)
    re_outer, im_outer = classify_component(spec, symbols)
    expected = {True: [], False: []}
    for k in range(6):
        expected[bool(re_outer[k])].append((k, "re"))
        expected[bool(im_outer[k])].append((k, "im"))
    assert expected[True] and expected[False]
    assert inst.outer_index_set == tuple(expected[True])
    assert inst.inner_index_set == tuple(expected[False])


def test_instance_mask_must_cover_the_2k_components():
    channel = generate_channel(2, 2, trial_rng(6))
    for outer in (np.zeros(3, bool), np.zeros(5, bool), np.zeros((2, 2), bool)):
        with pytest.raises(ValueError, match="2K"):
            CiInstance(channel=channel, symbols=SPEC16.points[:2], outer=outer)
    with pytest.raises(ValueError, match="2K"):  # symbol count and channel disagree
        build_instance(channel, SPEC16.points[:3], SPEC16)


def test_analytic_single_user_inner():
    # single antenna, unit channel, inner point: both axes pinned to the
    # margin force x = t*s, and ||x|| = 1 gives t = 1/|s| = sqrt(5)
    inst = build_instance(ChannelRealization(np.array([[1.0 + 0j]])), [(1 + 1j) / np.sqrt(10)], SPEC16)
    sol = solve_ci_max(inst)
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.margin == pytest.approx(np.sqrt(5), abs=1e-9)
    np.testing.assert_allclose(sol.x, [(1 + 1j) / np.sqrt(2)], atol=1e-9)


def test_analytic_single_user_corner():
    # corner point: symmetric max-min over the ball, t = sqrt(5)/3
    inst = build_instance(ChannelRealization(np.array([[1.0 + 0j]])), [(3 + 3j) / np.sqrt(10)], SPEC16)
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
    H = generate_channel(3, 3, rng).H.copy()
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
    """The 4x4 Rayleigh draw of the desk sweep at seed 6, SNR index 7, trial 2:
    cond(R) is about 5.7e6, above the whitening bound."""
    return generate_channel(4, 4, trial_rng(6, 7, 2))


def test_only_well_conditioned_channels_are_whitened():
    # rank-deficient and near-singular channels must take the exact path:
    # whitened, the eps = 1e-5 channels pass every status check with margins
    # up to 2e-4 relative off, as the gap tolerance 1e-8 * max(1, t) is
    # absolute at t < 1
    assert ChannelRealization(_DUPLICATED_ROW).whitener is None
    assert ChannelRealization(_ZERO_ROW).whitener is None
    assert _sweep_channel().whitener is None
    for eps in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        for seed in range(50):
            assert _near_singular_instance(seed, eps).channel.whitener is None, (eps, seed)
    for users, antennas in ((1, 1), (4, 4), (3, 6), (12, 12)):
        for seed in range(50):
            channel = generate_channel(users, antennas, trial_rng(seed, users, antennas))
            L_inv = channel.whitener
            gram = channel.stacked @ channel.stacked.T
            np.testing.assert_allclose(L_inv @ gram @ L_inv.T, np.eye(2 * users), atol=1e-9)


def test_unwhitened_sweep_channel_solves_every_symbol():
    # a real sweep channel that takes the least-distance form on every symbol
    rng = trial_rng(6)
    block = SPEC16.points[rng.integers(0, 16, (4, 50))]
    solved = list(solve_block(_sweep_channel(), block, SPEC16))
    assert len(solved) == 50
    for inst, sol in solved:
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.margin > 0
        assert sol.gap <= 1e-8 * max(1.0, sol.margin)
        assert verify_solution(inst, sol).passed
    for inst, sol in solved[:3]:
        assert sol.margin == pytest.approx(margin_oracle_for_instance(inst), abs=1e-3)


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
    X, _ = _slp_transmit(channel, SPEC16.points[rng.integers(0, 16, (3, 10))], SPEC16)
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
    if not inst.inner_index_set:
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
