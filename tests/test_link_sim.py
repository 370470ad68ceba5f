import numpy as np
import pytest

from slpsim.channel import generate_channel, sigma2_from_snr, trial_rng
from slpsim.cli import main
from slpsim.errors import ConfigurationError
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
    with pytest.raises(ConfigurationError, match="seed"):
        make_cfg(seed=-1)
    with pytest.raises(ConfigurationError, match="empty"):
        make_cfg(snr_db=())
    with pytest.raises(ConfigurationError, match="scheme"):
        make_cfg(schemes=("ZF", "MMSE"))
    assert make_cfg(schemes=("ZF",)).schemes == (Scheme.ZF,)
    assert LinkConfig().snr_db == tuple(float(v) for v in range(0, 45, 5))


def test_quantize_variance():
    rng = trial_rng(4)
    draws = np.array([quantize_broadcast(10.0, 5, 1.0, rng) for _ in range(100_000)])
    measured = np.var(draws - 10.0)
    assert measured == pytest.approx(1.0 / 32.0, rel=0.03)


def test_quantize_floor():
    rng = trial_rng(5)
    values = [quantize_broadcast(1e-7, 5, 1.0, rng) for _ in range(50)]
    assert min(values) >= 1e-6


@pytest.mark.parametrize("scheme", [Scheme.SLP_IN_BLOCK, Scheme.SLP_UNIFORM, Scheme.ZF])
def test_noiseless_blocks_error_free(scheme):
    cfg = make_cfg(users=4, antennas=4, block_len=10, snr_db=(INF,), quantization=False)
    for trial in range(5):
        rng = trial_rng(cfg.seed, 0, trial)
        channel = generate_channel(4, 4, rng)
        block = simulate_block(cfg, scheme, channel, 0.0, rng)
        assert block.n_bit_errors == 0
        assert block.n_user_block_errors == 0


def test_in_block_rescaling_is_flat():
    cfg = make_cfg(users=4, antennas=4, snr_db=(INF,))
    rng = trial_rng(1, 0, 0)
    channel = generate_channel(4, 4, rng)
    block = simulate_block(cfg, Scheme.SLP_IN_BLOCK, channel, 0.0, rng)
    assert block.f_spread <= 1e-6


def test_uniform_rescaling_varies():
    cfg = make_cfg(users=4, antennas=4, snr_db=(INF,))
    rng = trial_rng(1, 0, 0)
    channel = generate_channel(4, 4, rng)
    block = simulate_block(cfg, Scheme.SLP_UNIFORM, channel, 0.0, rng)
    assert block.f_spread > 1e-3


def test_power_budget_respected_for_slp():
    for scheme in (Scheme.SLP_IN_BLOCK, Scheme.SLP_UNIFORM):
        cfg = make_cfg(users=3, antennas=4)
        rng = trial_rng(2, 0, 0)
        channel = generate_channel(3, 4, rng)
        block = simulate_block(cfg, scheme, channel, sigma2_from_snr(20.0, cfg.block_len), rng)
        assert block.tx_power <= cfg.total_power + 1e-9


def test_baseline_average_power_matches_budget():
    # Frobenius-normalized block precoders meet the budget in expectation
    cfg = make_cfg(users=4, antennas=4, block_len=200, channels=1)
    totals = []
    for trial in range(60):
        rng = trial_rng(3, 0, trial)
        channel = generate_channel(4, 4, rng)
        block = simulate_block(cfg, Scheme.ZF, channel, 1e-6, rng)
        totals.append(block.tx_power)
    assert np.mean(totals) == pytest.approx(cfg.total_power, rel=0.03)


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


def test_parallel_matches_serial():
    cfg = make_cfg(channels=6, snr_db=(15.0,))
    serial = run_monte_carlo(cfg, Scheme.ZF, workers=1)
    parallel = run_monte_carlo(cfg, Scheme.ZF, workers=2)
    assert serial == parallel


def test_worker_env_override(monkeypatch, tmp_path):
    from slpsim import link_sim
    from slpsim.link_sim import MAX_WORKERS, WORKERS_ENV, _worker_count

    monkeypatch.setenv(WORKERS_ENV, "3")
    assert _worker_count(None) == 3
    assert _worker_count(2) == 2
    monkeypatch.delenv(WORKERS_ENV)
    assert _worker_count(None) == 1

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(link_sim, "ProcessPoolExecutor", no_pool)
    cfg = make_cfg(channels=6, snr_db=(15.0,))
    for bad in ("abc", "2.5", "", "0", "-1", str(MAX_WORKERS + 1)):
        monkeypatch.setenv(WORKERS_ENV, bad)
        with pytest.raises(ConfigurationError):
            run_monte_carlo(cfg, Scheme.ZF)
    with pytest.raises(ConfigurationError):
        run_monte_carlo(cfg, Scheme.ZF, workers=0)
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
