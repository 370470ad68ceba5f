import csv
from dataclasses import fields

import numpy as np
import pytest

from slpsim import baselines, power_alloc
from slpsim.cli import (
    _CONFIG_PARSERS,
    SWEEP_COLUMNS,
    TRACE_COLUMNS,
    check_power_allocation,
    main,
    parse_config,
    parse_snr_values,
    run_verification,
)
from slpsim.errors import ConfigurationError
from slpsim.link_sim import LinkConfig, Scheme


def test_parse_snr_range():
    assert parse_snr_values("0:5:40") == tuple(float(v) for v in range(0, 45, 5))
    assert parse_snr_values("10") == (10.0,)
    assert parse_snr_values("0,10,20") == (0.0, 10.0, 20.0)
    assert parse_snr_values("inf") == (float("inf"),)
    with pytest.raises(ConfigurationError):
        parse_snr_values("0:-5:40")
    with pytest.raises(ConfigurationError):
        parse_snr_values("abc")
    assert parse_snr_values("10,inf") == (10.0, float("inf"))
    # range bounds must be finite and a range at most MAX_SNR_POINTS long
    for text in ("0:5:inf", "-inf:5:40", "nan:5:40", "0:nan:40", "0:1e-6:40", "1e20:1:1e21"):
        with pytest.raises(ConfigurationError):
            parse_snr_values(text)
    # nan and -inf parse as numbers but have no noise variance
    for text in ("nan", "-inf", "10,nan"):
        with pytest.raises(ConfigurationError):
            LinkConfig(snr_db=parse_snr_values(text))


def test_parse_config_defaults(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("users = 4\nantennas = 4\nblock_len = 50\n")
    spec = parse_config(cfg_file)
    assert spec.users == 4 and spec.block_len == 50
    assert spec.feedback_bits == 5
    assert spec.f_max == 1.0
    assert spec.total_power == 1.0
    assert spec.modulation == 16
    assert len(spec.schemes) == 4


def test_config_keys_are_the_config_fields():
    assert list(_CONFIG_PARSERS) == [f.name for f in fields(LinkConfig)]


def test_parse_config_unknown_key(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("userz = 4\n")
    with pytest.raises(ConfigurationError, match="userz"):
        parse_config(cfg_file)


def test_parse_config_overloaded_rejected(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("users = 5\nantennas = 4\n")
    with pytest.raises(ConfigurationError, match="users <= antennas"):
        parse_config(cfg_file)


def test_parse_config_comments_and_schemes(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# experiment setup\nschemes = ZF, RZF\nsnr_db = 0:10:20\nquantization = off\n"
    )
    spec = parse_config(cfg_file)
    assert spec.schemes == (Scheme.ZF, Scheme.RZF)
    assert spec.snr_db == (0.0, 10.0, 20.0)
    assert spec.quantization is False


def test_cli_validation_exit_code(tmp_path, capsys):
    rc = main(["run", "--users", "5", "--antennas", "4", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "users <= antennas" in capsys.readouterr().err
    for snr in ("nan", "-inf", "0:5:inf"):
        rc = main(["run", "--users", "2", "--antennas", "2", f"--snr-db={snr}",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "snr_db" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_cli_point_where_every_trial_fails(tmp_path, monkeypatch, capsys):
    def singular(channel):
        raise np.linalg.LinAlgError("injected singular channel")

    monkeypatch.setattr(baselines, "zf_precoder", singular)
    args = ["run", "--scheme", "ZF", "--users", "2", "--antennas", "2",
            "--snr-db", "10", "--out", str(tmp_path / "x.csv")]
    assert main(args + ["--channels", "3"]) == 2
    err = capsys.readouterr().err
    assert "scheme=ZF" in err and "snr=10.0 dB" in err and "injected singular channel" in err
    # no trial attempted is not a failure: the row reports zero bits
    assert main(args + ["--channels", "0"]) == 0
    with open(tmp_path / "x.csv") as fh:
        [row] = list(csv.DictReader(fh))
    assert row["n_bits"] == "0" and row["ber"] == "0.0"


def test_cli_ber_sweep_smoke(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "run", "--experiment", "BER_SWEEP", "--scheme", "ZF,RZF",
        "--users", "2", "--antennas", "2", "--block-len", "5",
        "--snr-db", "10,20", "--channels", "3", "--seed", "5",
        "--out", str(out),
    ])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [c for c in rows[0]] == SWEEP_COLUMNS
    assert len(rows) == 4  # 2 schemes x 2 SNR points
    assert {r["scheme"] for r in rows} == {"ZF", "RZF"}
    for row in rows:
        assert 0.0 <= float(row["ber"]) <= 1.0


def test_cli_f_trace(tmp_path):
    out = tmp_path / "trace.csv"
    rc = main([
        "run", "--experiment", "F_TRACE", "--scheme", "SLP_IN_BLOCK,SLP_UNIFORM",
        "--users", "3", "--antennas", "3", "--block-len", "10",
        "--snr-db", "40", "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [c for c in rows[0]] == TRACE_COLUMNS
    in_block = [float(r["f"]) for r in rows if r["scheme"] == "SLP_IN_BLOCK"]
    uniform = [float(r["f"]) for r in rows if r["scheme"] == "SLP_UNIFORM"]
    assert len(in_block) == 10 and len(uniform) == 10
    assert np.ptp(in_block) <= 1e-6 * in_block[0]
    assert np.ptp(uniform) > 1e-3 * uniform[0]


def test_cli_byte_identical_reruns(tmp_path):
    args = [
        "run", "--scheme", "SLP_IN_BLOCK", "--users", "2", "--antennas", "2",
        "--block-len", "5", "--snr-db", "20", "--channels", "3", "--seed", "1",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verification_suites_pass():
    results = run_verification(seed=0)
    assert all(r.passed for r in results), [(r.name, r.detail) for r in results]


def test_verification_detects_budget_fault(monkeypatch):
    original = power_alloc.allocate_in_block

    def over_budget(margins, total_power):
        alloc = original(margins, total_power)
        return power_alloc.PowerAllocation(alloc.powers * 1.01, alloc.mode, alloc.rescale)

    monkeypatch.setattr(power_alloc, "allocate_in_block", over_budget)
    result = check_power_allocation(np.random.default_rng(0), n_samples=30)
    assert not result.passed


def test_cli_verify_exit_code():
    assert main(["verify", "--seed", "0"]) == 0


def test_cli_verify_failure_exit_code(monkeypatch):
    import slpsim.cli as cli

    monkeypatch.setattr(
        cli, "run_verification",
        lambda spec=None, seed=0: [cli.SuiteResult("stub", False, "injected")],
    )
    assert main(["verify"]) == 3


def test_cli_runtime_failure_exit_code(monkeypatch):
    import slpsim.cli as cli

    def boom(cfg):
        raise RuntimeError("injected solver failure")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert main(["run", "--users", "2", "--antennas", "2"]) == 2
