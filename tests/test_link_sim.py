import math

import numpy as np
import pytest

from slpsim import baselines, link_sim, power_alloc, slp_core
from slpsim.channel import generate_channel, sigma2_from_snr, trial_rng
from slpsim.cli import main, run_experiment
from slpsim.errors import ConfigurationError, SolverFailure
from slpsim.link_sim import (
    LinkConfig,
    Scheme,
    effective_throughput,
    quantize_broadcast,
    run_monte_carlo,
    simulate_block,
    sweep_points,
)

from ber_oracle import expected_trial_errors

INF = float("inf")


def make_cfg(**kw):
    base = dict(
        users=2, antennas=2, block_len=10, modulation=16,
        snr_db=(20.0,), channels=5, seed=9,
    )
    base.update(kw)
    return LinkConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        make_cfg(users=3, antennas=2)
    with pytest.raises(ConfigurationError, match="users must be >= 1"):
        make_cfg(users=0)
    with pytest.raises(ConfigurationError, match="block_len must be >= 1"):
        make_cfg(block_len=0)
    with pytest.raises(ConfigurationError, match="channels must be >= 0"):
        make_cfg(channels=-1)
    with pytest.raises(ConfigurationError):
        make_cfg(modulation=13)
    with pytest.raises(ConfigurationError):
        make_cfg(feedback_bits=0)
    # a B whose 2**B overflows a float
    for bits in (1024, 2000):
        with pytest.raises(ConfigurationError, match="feedback_bits"):
            make_cfg(feedback_bits=bits)
    assert make_cfg(feedback_bits=link_sim.MAX_FEEDBACK_BITS).feedback_bits == 1023
    # the broadcast error scale is fixed (link_sim.F_MAX), not a key
    with pytest.raises(TypeError, match="f_max"):
        LinkConfig(f_max=1.0)
    with pytest.raises(ConfigurationError, match="seed"):
        make_cfg(seed=-1)
    with pytest.raises(ConfigurationError, match="empty"):
        make_cfg(snr_db=())
    with pytest.raises(ConfigurationError, match="scheme"):
        make_cfg(schemes=("ZF", "MMSE"))
    with pytest.raises(ConfigurationError, match="at least one scheme"):
        make_cfg(schemes=())
    # a string or a scalar is not read as a one-value grid
    for key, value in (("snr_db", 10.0), ("snr_db", "10"), ("schemes", "ZF")):
        with pytest.raises(ConfigurationError, match=f"{key} must be a sequence"):
            make_cfg(**{key: value})
    assert make_cfg(schemes=("ZF",)).schemes == (Scheme.ZF,)
    assert LinkConfig().snr_db == tuple(float(v) for v in range(0, 45, 5))
    # a finite SNR whose noise variance overflows, underflows to 0 or is inf
    # (sigma2_from_snr raises OverflowError at 4000 dB, ZeroDivisionError at
    # -4000 dB), and nan and -inf, which have no noise variance at all
    assert sigma2_from_snr(3080, 50) == 0.0
    assert sigma2_from_snr(-3100, 2) == INF
    for snr in (4000.0, 3080.0, -3100.0, -4000.0, float("nan"), -INF):
        with pytest.raises(ConfigurationError, match=f"snr_db value {snr}"):
            make_cfg(snr_db=(20.0, snr), block_len=50)
    assert make_cfg(snr_db=(INF, 300.0, -300.0)).snr_db == (INF, 300.0, -300.0)
    # a repeated scheme (also under another spelling) or SNR value is named
    with pytest.raises(ConfigurationError, match="schemes lists ZF more than once"):
        make_cfg(schemes=("ZF", "SLP_IN_BLOCK", Scheme.ZF))
    for snr in ((10.0, 10.0), (INF, 20.0, INF)):
        with pytest.raises(ConfigurationError, match=f"snr_db lists {snr[0]} more than once"):
            make_cfg(snr_db=snr)


# wrong-typed values, each refused, naming its key, before any engine code sees it
@pytest.mark.parametrize("key, value", [
    ("seed", 1.5), ("channels", 2.5), ("block_len", 2.5), ("modulation", 16.0),
    ("antennas", 4.0), ("users", "2"), ("feedback_bits", True), ("out", 5),
    pytest.param("snr_db", ("10",), id="snr_db-str"),
    pytest.param("snr_db", (True,), id="snr_db-bool"),
    pytest.param("snr_db", np.array(10.0), id="snr_db-0d-array"),
    pytest.param("snr_db", np.array([[10.0, 20.0]]), id="snr_db-2d-array"),
])
def test_config_rejects_a_wrong_type_naming_its_key(key, value):
    with pytest.raises(ConfigurationError, match=rf"^{key} "):
        make_cfg(**{key: value})


# an unsupported order gets the one message, below 4, above 256 or between
@pytest.mark.parametrize("order, message", [
    *((order, f"modulation must be one of (4, 16, 64, 256), got {order}") for order in (2, 3, 5, 512)),
    (16.0, "modulation must be an integer, got 16.0"),
])
def test_config_names_the_supported_orders_for_any_other_modulation(order, message):
    with pytest.raises(ConfigurationError) as refused:
        make_cfg(modulation=order)
    assert str(refused.value) == message


@pytest.mark.parametrize("experiment", ["BER_SWEEP", "F_TRACE"])
@pytest.mark.parametrize("numpy_keys", [
    {"users": np.int64(2), "antennas": np.int64(2), "block_len": np.int64(4), "modulation": np.int64(16),
     "feedback_bits": np.int64(5), "channels": np.int64(2), "seed": np.int64(9)},
    {"snr_db": np.array([10.0, 20.0])},
    {"snr_db": (np.float64(10.0), np.float64(20.0))},
], ids=["int64-sizes", "float64-snr-array", "float64-scalars"])
def test_numpy_typed_config_runs_as_its_python_twin(tmp_path, experiment, numpy_keys):
    python_keys = {key: np.asarray(value).tolist() for key, value in numpy_keys.items()}
    base = dict(users=2, antennas=2, block_len=4, channels=2, snr_db=(10.0, 20.0),
                schemes=("SLP_IN_BLOCK", "ZF"), experiment=experiment)
    paths = []
    for name, keys in (("numpy", numpy_keys), ("python", python_keys)):
        cfg = make_cfg(**{**base, **keys, "out": tmp_path / f"{name}.csv"})
        assert all(type(v) is float for v in cfg.snr_db)
        assert type(cfg.users) is int
        assert run_experiment(cfg) == 0
        paths.append(tmp_path / f"{name}.csv")
    numpy_csv, python_csv = (path.read_bytes() for path in paths)
    assert numpy_csv == python_csv
    header, *rows = [line.split(",") for line in python_csv.decode().splitlines()]
    assert rows
    for row in rows:
        for column, cell in zip(header, row):
            if column not in ("experiment", "scheme"):
                float(cell)


def test_quantize_variance():
    rng = trial_rng(4)
    draws = quantize_broadcast(np.full(100_000, 10.0), 5, rng)
    measured = np.var(draws - 10.0)
    assert measured == pytest.approx(1.0 / 32.0, rel=0.03)


def test_quantize_at_max_feedback_bits_is_exact():
    # an error of standard deviation 2^-511.5 is below half an ulp of any f >= F_FLOOR
    f = np.logspace(-6, 6, 1000)
    assert np.array_equal(quantize_broadcast(f, link_sim.MAX_FEEDBACK_BITS, trial_rng(6)), f)


def test_quantize_floor():
    rng = trial_rng(5)
    values = quantize_broadcast(np.full(50, 1e-7), 5, rng)
    assert min(values) >= 1e-6


@pytest.mark.parametrize("scheme", list(Scheme))
def test_each_scheme_broadcasts_once_per_block_or_per_symbol(monkeypatch, scheme):
    original = link_sim.quantize_broadcast
    broadcasts = []

    def recording(f, *args):
        broadcasts.append(np.array(f))
        return original(f, *args)

    monkeypatch.setattr(link_sim, "quantize_broadcast", recording)
    cfg = make_cfg(users=3, antennas=4)
    block = simulate_block(cfg, scheme, 1e-3, trial_rng(cfg.seed, 0))
    assert len(broadcasts) == 1
    expected = cfg.block_len if scheme is Scheme.SLP_UNIFORM else 1
    assert len(broadcasts[0]) == expected
    if scheme is Scheme.SLP_IN_BLOCK:
        assert broadcasts[0][0] == block.f_ideal[0]


@pytest.mark.parametrize("scheme", [Scheme.SLP_IN_BLOCK, Scheme.SLP_UNIFORM, Scheme.ZF])
def test_noiseless_blocks_error_free(scheme):
    cfg = make_cfg(users=4, antennas=4, block_len=10, snr_db=(INF,),
                   feedback_bits=link_sim.MAX_FEEDBACK_BITS)  # an exact broadcast
    for trial in range(5):
        block = simulate_block(cfg, scheme, 0.0, trial_rng(cfg.seed, trial))
        assert block.n_bit_errors == 0
        assert block.n_user_block_errors == 0


def test_in_block_rescaling_is_flat():
    cfg = make_cfg(users=4, antennas=4, snr_db=(INF,))
    block = simulate_block(cfg, Scheme.SLP_IN_BLOCK, 0.0, trial_rng(cfg.seed, 0))
    assert block.f_spread <= 1e-6


def test_uniform_rescaling_varies():
    cfg = make_cfg(users=4, antennas=4, snr_db=(INF,))
    block = simulate_block(cfg, Scheme.SLP_UNIFORM, 0.0, trial_rng(cfg.seed, 0))
    assert block.f_spread > 1e-3


def test_every_module_reads_the_one_block_budget_when_called(monkeypatch):
    H = generate_channel(3, 4, trial_rng(3))
    at_unit_budget = baselines.rzf_precoder(H, 0.25, 10)
    monkeypatch.setattr(power_alloc, "P_T", 2.0)
    assert sigma2_from_snr(0.0, 1) == 2.0
    assert power_alloc.allocate_uniform(4).sum() == 2.0
    # twice the noise over twice the budget gives the same ridge K * sigma2 * M / P_T, exactly
    assert np.array_equal(baselines.rzf_precoder(H, 0.5, 10).W, at_unit_budget.W)
    original = power_alloc.allocate_in_block
    budgets = []

    def recording(margins, total_power):
        budgets.append(total_power)
        return original(margins, total_power)

    monkeypatch.setattr(power_alloc, "allocate_in_block", recording)
    cfg = make_cfg(users=3, antennas=4)
    simulate_block(cfg, Scheme.SLP_IN_BLOCK, 1e-3, trial_rng(cfg.seed, 0))
    assert budgets == [2.0]


def test_effective_throughput_values():
    # (block success probability, bits per symbol, K, M, B, scheme)
    assert effective_throughput(1.0, 4, 12, 200, 5, Scheme.SLP_IN_BLOCK) == 48 - 5 / 200
    assert effective_throughput(1.0, 4, 12, 200, 5, Scheme.SLP_UNIFORM) == 48 - 5
    for scheme in Scheme:
        assert effective_throughput(0.0, 4, 12, 200, 5, scheme) == 0.0
    for bad in (1.5, -0.5, float("nan")):
        with pytest.raises(ValueError):
            effective_throughput(bad, 4, 12, 200, 5, Scheme.ZF)


def test_run_monte_carlo_empty():
    records = run_monte_carlo(make_cfg(channels=0), Scheme.SLP_IN_BLOCK)
    assert len(records) == 1
    assert records[0].n_bits == 0
    assert records[0].n_trials == 0
    # nothing was sent: every rate is unknown, not error-free
    assert (records[0].n_errors, records[0].n_failed) == (0, 0)
    for name in ("ber", "bler", "bler_counted", "t_eff", "mean_f", "f_spread"):
        assert math.isnan(getattr(records[0], name)), name


def test_run_monte_carlo_deterministic():
    cfg = make_cfg(channels=4, snr_db=(10.0, 30.0))
    first = run_monte_carlo(cfg, Scheme.SLP_IN_BLOCK)
    second = run_monte_carlo(cfg, "SLP_IN_BLOCK")
    assert first == second


def test_parallel_matches_serial(monkeypatch):
    cfg = make_cfg(channels=6, snr_db=(15.0,))
    monkeypatch.setenv(link_sim.WORKERS_ENV, "1")
    serial = run_monte_carlo(cfg, Scheme.ZF)
    monkeypatch.setenv(link_sim.WORKERS_ENV, "2")
    parallel = run_monte_carlo(cfg, Scheme.ZF)
    assert serial == parallel


def test_every_snr_point_draws_a_trials_channel_and_broadcast_error_again(monkeypatch):
    original = link_sim.quantize_broadcast
    errors = []

    def recording(f, *args):
        f_hat = original(f, *args)
        errors.append(f_hat - f)
        return f_hat

    monkeypatch.setattr(link_sim, "quantize_broadcast", recording)
    monkeypatch.setenv(link_sim.WORKERS_ENV, "1")
    snr_db = (0.0, 20.0, 40.0, INF)
    cfg = make_cfg(users=4, antennas=4, block_len=20, snr_db=snr_db, channels=5, seed=3)
    # ZF's rescaling factor depends on H alone, and a trial's H on (seed, trial) alone
    mean_f = [r.mean_f for r in run_monte_carlo(cfg, Scheme.ZF)]
    assert mean_f == [mean_f[0]] * len(snr_db)
    trial_0 = errors[::cfg.channels]  # serial: trial 0 broadcasts first at each point
    assert len(trial_0) == len(snr_db) and trial_0[0] != 0
    assert all(np.array_equal(e, trial_0[0]) for e in trial_0)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_serial_and_pool_sweeps_transmit_the_blocks_simulate_block_draws(monkeypatch, scheme, workers):
    monkeypatch.setenv(link_sim.WORKERS_ENV, workers)
    cfg = make_cfg(users=3, antennas=4, snr_db=(20.0, INF), channels=3)
    points = list(sweep_points(cfg, scheme))
    assert len(points) == len(cfg.snr_db)
    for snr_db, (_, results) in zip(cfg.snr_db, points):
        sigma2 = sigma2_from_snr(snr_db, cfg.block_len)
        assert len(results) == cfg.channels
        for trial, result in enumerate(results):
            block = simulate_block(cfg, scheme, sigma2, trial_rng(cfg.seed, trial))
            assert result.n_bit_errors == block.n_bit_errors, (snr_db, trial)
            assert result.n_user_block_errors == block.n_user_block_errors, (snr_db, trial)
            assert np.array_equal(result.f_ideal, block.f_ideal), (snr_db, trial)


def test_bit_errors_match_the_exact_conditional_oracle(monkeypatch):
    # Given a trial's channel, block and broadcast, its bit errors have the
    # oracle's mean, so the paired z of (Monte Carlo - expected) per trial is
    # about N(0, 1) at every point; the schemes and points share their noise.
    monkeypatch.setenv(link_sim.WORKERS_ENV, "1")
    cfg = make_cfg(users=4, antennas=4, block_len=10, snr_db=(20.0, 30.0), channels=200, seed=1)
    for scheme in Scheme:
        for snr_db, (record, results) in zip(cfg.snr_db, sweep_points(cfg, scheme)):
            sigma2 = sigma2_from_snr(snr_db, cfg.block_len)
            assert record.n_failed == 0 and record.n_errors >= 50, (scheme, snr_db)
            diff = np.array([result.n_bit_errors - expected_trial_errors(cfg, scheme, sigma2,
                                                                         trial_rng(cfg.seed, trial))
                             for trial, result in enumerate(results)])
            z = diff.mean() / (diff.std(ddof=1) / np.sqrt(diff.size))
            assert abs(z) <= 4, (scheme, snr_db, z)


@pytest.mark.parametrize("scheme", [Scheme.SLP_IN_BLOCK, Scheme.SLP_UNIFORM])
def test_degenerate_channel_discards_the_trial(monkeypatch, scheme):
    # user 2 has no channel: its CI margin is 0 whatever the power allocation
    H = np.array([[0.7 + 0.2j, -0.3 + 0.9j], [0, 0]])
    monkeypatch.setattr(link_sim, "generate_channel", lambda *args: H)
    with pytest.raises(SolverFailure, match="every trial failed.*DegenerateMarginError"):
        run_monte_carlo(make_cfg(channels=2), scheme)


def test_only_the_ci_solve_builds_a_channel_view(monkeypatch):
    # ZF and RZF work on H alone; an SLP block builds one view for all its solves
    built = []
    original = slp_core.ChannelRealization.__post_init__

    def counting(view):
        built.append(view)
        original(view)

    monkeypatch.setattr(slp_core.ChannelRealization, "__post_init__", counting)
    monkeypatch.setenv(link_sim.WORKERS_ENV, "1")
    cfg = make_cfg(channels=3, snr_db=(10.0, 30.0))
    for scheme in Scheme:
        built.clear()
        run_monte_carlo(cfg, scheme)
        slp = scheme in (Scheme.SLP_IN_BLOCK, Scheme.SLP_UNIFORM)
        assert len(built) == (cfg.channels * len(cfg.snr_db) if slp else 0), scheme


def test_an_slp_block_factors_its_gram_matrix_once(monkeypatch):
    # the symbols of a block share one channel view, so its whitener is built once
    calls = []
    original = np.linalg.cholesky

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    cfg = make_cfg(users=3, antennas=5, block_len=7)
    for scheme in (Scheme.SLP_IN_BLOCK, Scheme.SLP_UNIFORM):
        calls.clear()
        for trial in (0, 1):
            simulate_block(cfg, scheme, sigma2_from_snr(20.0, cfg.block_len), trial_rng(cfg.seed, trial))
        assert calls == [(6, 6)] * 2, scheme  # one 2K x 2K Gram factorization per block


def test_non_optimal_ci_solve_discards_the_trial(monkeypatch):
    original = slp_core.solve_ci_max

    def max_iter(instance, opts=None):
        sol = original(instance, opts)
        sol.status = slp_core.SolverStatus.MAX_ITER
        return sol

    monkeypatch.setattr(slp_core, "solve_ci_max", max_iter)
    with pytest.raises(SolverFailure, match="every trial failed") as failure:
        run_monte_carlo(make_cfg(channels=2), Scheme.SLP_IN_BLOCK)
    message = str(failure.value)
    assert "first: SolverFailure: CI solve not optimal at symbol 0" in message
    assert "status max_iter, gap " in message and "ResidualReport(" in message


def test_worker_env_override(monkeypatch, tmp_path):
    from slpsim.link_sim import MAX_WORKERS, WORKERS_ENV, _worker_count

    monkeypatch.setenv(WORKERS_ENV, "3")
    assert _worker_count() == 3
    monkeypatch.setenv(WORKERS_ENV, "2")
    assert _worker_count() == 2
    monkeypatch.delenv(WORKERS_ENV)
    assert _worker_count() == 1

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(link_sim, "ProcessPoolExecutor", no_pool)
    cfg = make_cfg(channels=6, snr_db=(15.0,))
    for bad in ("abc", "2.5", "", "0", "-1", str(MAX_WORKERS + 1)):
        monkeypatch.setenv(WORKERS_ENV, bad)
        with pytest.raises(ConfigurationError):
            run_monte_carlo(cfg, Scheme.ZF)
    monkeypatch.setenv(WORKERS_ENV, "abc")
    assert main(["run", "--scheme", "ZF", "--users", "2", "--antennas", "2",
                 "--channels", "6", "--out", str(tmp_path / "x.csv")]) == 1
    assert not (tmp_path / "x.csv").exists()


def test_metrics_consistency():
    cfg = make_cfg(users=2, antennas=2, channels=30, snr_db=(12.0,))
    rec = run_monte_carlo(cfg, Scheme.ZF)[0]
    assert rec.ber == rec.n_errors / rec.n_bits
    assert 0.0 <= rec.ber <= 1.0
    block_success = (1 - rec.ber) ** (cfg.block_len * 4)
    assert 0 < block_success < 1
    assert rec.bler == 1 - block_success
    assert rec.t_eff == effective_throughput(
        block_success, 4, cfg.users, cfg.block_len, cfg.feedback_bits, Scheme.ZF
    )


def test_bler_counted_is_the_share_of_user_blocks_with_an_error():
    # counted by hand from each trial's stream, at points where the share is neither 0 nor 1
    cfg = make_cfg(snr_db=(15.0, 20.0), channels=20, seed=1)
    for scheme in Scheme:
        for record, _ in sweep_points(cfg, scheme):
            sigma2 = sigma2_from_snr(record.snr_db, cfg.block_len)
            errored = sum(simulate_block(cfg, scheme, sigma2, trial_rng(cfg.seed, t)).n_user_block_errors
                          for t in range(cfg.channels))
            assert record.n_failed == 0
            assert 0 < record.bler_counted < 1, (scheme, record.snr_db)
            assert record.bler_counted == errored / (cfg.channels * cfg.users), (scheme, record.snr_db)


def test_ber_decreases_with_snr():
    cfg = make_cfg(users=2, antennas=2, channels=60,
                   block_len=20, snr_db=(0.0, 15.0, 30.0),
                   feedback_bits=link_sim.MAX_FEEDBACK_BITS)  # an exact broadcast
    records = run_monte_carlo(cfg, Scheme.ZF)
    bers = [r.ber for r in records]
    # allow 3-sigma counting slack on each downward step
    for lo, hi in zip(bers[1:], bers[:-1]):
        slack = 3 * np.sqrt(max(hi, 1e-12) / records[0].n_bits)
        assert lo <= hi + slack
    assert bers[-1] < bers[0]
