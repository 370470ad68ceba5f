import numpy as np
import pytest

from slpsim import baselines, link_sim, power_alloc, slp_core
from slpsim.channel import ChannelRealization, generate_channel, sigma2_from_snr, trial_rng
from slpsim.cli import main
from slpsim.constellation import build_constellation
from slpsim.errors import ConfigurationError, SolverFailure
from slpsim.link_sim import (
    LinkConfig,
    Scheme,
    effective_throughput,
    quantize_broadcast,
    run_monte_carlo,
    simulate_block,
)

INF = float("inf")


def make_cfg(**kw):
    base = dict(
        users=2, antennas=2, block_len=10, modulation=16,
        snr_db=(20.0,), channels=5, seed=9, quantization=True,
    )
    base.update(kw)
    return LinkConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        make_cfg(users=3, antennas=2)
    with pytest.raises(ConfigurationError):
        make_cfg(modulation=13)
    with pytest.raises(ConfigurationError):
        make_cfg(feedback_bits=0)
    with pytest.raises(ConfigurationError):
        make_cfg(f_max=0.0)
    # a non-finite f_max and a B whose 2**B overflows a float
    for value in (float("nan"), INF, -INF, 0.0):
        with pytest.raises(ConfigurationError, match="f_max"):
            make_cfg(f_max=value)
    for bits in (1024, 2000):
        with pytest.raises(ConfigurationError, match="feedback_bits"):
            make_cfg(feedback_bits=bits)
    assert make_cfg(feedback_bits=link_sim.MAX_FEEDBACK_BITS).feedback_bits == 1023
    with pytest.raises(ConfigurationError, match="seed"):
        make_cfg(seed=-1)
    with pytest.raises(ConfigurationError, match="empty"):
        make_cfg(snr_db=())
    with pytest.raises(ConfigurationError, match="scheme"):
        make_cfg(schemes=("ZF", "MMSE"))
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


def test_quantize_variance():
    rng = trial_rng(4)
    draws = quantize_broadcast(np.full(100_000, 10.0), 5, 1.0, rng)
    measured = np.var(draws - 10.0)
    assert measured == pytest.approx(1.0 / 32.0, rel=0.03)


def test_quantize_floor():
    rng = trial_rng(5)
    values = quantize_broadcast(np.full(50, 1e-7), 5, 1.0, rng)
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
    rng = trial_rng(cfg.seed, 0, 0)
    block = simulate_block(cfg, scheme, generate_channel(3, 4, rng), 1e-3, rng,
                           build_constellation(cfg.modulation))
    assert len(broadcasts) == 1
    expected = cfg.block_len if scheme is Scheme.SLP_UNIFORM else 1
    assert len(broadcasts[0]) == expected
    if scheme is Scheme.SLP_IN_BLOCK:
        assert broadcasts[0][0] == block.f_ideal[0]


@pytest.mark.parametrize("scheme", [Scheme.SLP_IN_BLOCK, Scheme.SLP_UNIFORM, Scheme.ZF])
def test_noiseless_blocks_error_free(scheme):
    cfg = make_cfg(users=4, antennas=4, block_len=10, snr_db=(INF,), quantization=False)
    for trial in range(5):
        rng = trial_rng(cfg.seed, 0, trial)
        channel = generate_channel(4, 4, rng)
        block = simulate_block(cfg, scheme, channel, 0.0, rng, build_constellation(cfg.modulation))
        assert block.n_bit_errors == 0
        assert block.n_user_block_errors == 0


def test_in_block_rescaling_is_flat():
    cfg = make_cfg(users=4, antennas=4, snr_db=(INF,))
    rng = trial_rng(1, 0, 0)
    channel = generate_channel(4, 4, rng)
    block = simulate_block(cfg, Scheme.SLP_IN_BLOCK, channel, 0.0, rng, build_constellation(16))
    assert block.f_spread <= 1e-6


def test_uniform_rescaling_varies():
    cfg = make_cfg(users=4, antennas=4, snr_db=(INF,))
    rng = trial_rng(1, 0, 0)
    channel = generate_channel(4, 4, rng)
    block = simulate_block(cfg, Scheme.SLP_UNIFORM, channel, 0.0, rng, build_constellation(16))
    assert block.f_spread > 1e-3


def test_every_module_reads_the_one_block_budget_when_called(monkeypatch):
    H = generate_channel(3, 4, trial_rng(3)).H
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
    rng = trial_rng(cfg.seed, 0, 0)
    simulate_block(cfg, Scheme.SLP_IN_BLOCK, generate_channel(3, 4, rng), 1e-3, rng,
                   build_constellation(cfg.modulation))
    assert budgets == [2.0]


def test_effective_throughput_values():
    assert effective_throughput(0.0, 16, 12, 200, 5, Scheme.SLP_IN_BLOCK) == 48 - 5 / 200
    assert effective_throughput(0.0, 16, 12, 200, 5, Scheme.SLP_UNIFORM) == 48 - 5
    for scheme in Scheme:
        assert effective_throughput(1.0, 16, 12, 200, 5, scheme) == 0.0
    with pytest.raises(ValueError):
        effective_throughput(1.5, 16, 12, 200, 5, Scheme.ZF)


def test_run_monte_carlo_empty():
    records = run_monte_carlo(make_cfg(channels=0), Scheme.SLP_IN_BLOCK)
    assert len(records) == 1
    assert records[0].n_bits == 0
    assert records[0].n_trials == 0


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


@pytest.mark.parametrize("scheme", [Scheme.SLP_IN_BLOCK, Scheme.SLP_UNIFORM])
def test_degenerate_channel_discards_the_trial(monkeypatch, scheme):
    # user 2 has no channel: its CI margin is 0 whatever the power allocation
    H = np.array([[0.7 + 0.2j, -0.3 + 0.9j], [0, 0]])
    monkeypatch.setattr(link_sim, "generate_channel", lambda *args: ChannelRealization(H))
    with pytest.raises(SolverFailure, match="every trial failed.*DegenerateMarginError"):
        run_monte_carlo(make_cfg(channels=2), scheme)


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
    assert rec.t_eff == effective_throughput(
        rec.ber, cfg.modulation, cfg.users, cfg.block_len, cfg.feedback_bits, Scheme.ZF
    )
    assert rec.bler == pytest.approx(1 - (1 - rec.ber) ** (cfg.block_len * 4))


def test_ber_decreases_with_snr():
    cfg = make_cfg(users=2, antennas=2, channels=60,
                   block_len=20, snr_db=(0.0, 15.0, 30.0), quantization=False)
    records = run_monte_carlo(cfg, Scheme.ZF)
    bers = [r.ber for r in records]
    # allow 3-sigma counting slack on each downward step
    for lo, hi in zip(bers[1:], bers[:-1]):
        slack = 3 * np.sqrt(max(hi, 1e-12) / records[0].n_bits)
        assert lo <= hi + slack
    assert bers[-1] < bers[0]
