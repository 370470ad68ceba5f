import csv
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from slpsim import baselines, cli, link_sim, slp_core
from slpsim.cli import (
    _FIELDS,
    SWEEP_COLUMNS,
    TRACE_COLUMNS,
    check_slp_solutions,
    main,
    parse_config,
    parse_snr_values,
)
from slpsim.errors import ConfigurationError
from slpsim.link_sim import WORKERS_ENV, LinkConfig, Scheme


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
    assert spec.modulation == 16
    assert len(spec.schemes) == 4


# One value per flagged config key, each different from the default.
FLAG_SAMPLES = {
    "users": "3", "antennas": "5", "block_len": "7", "modulation": "64",
    "schemes": "ZF,RZF", "snr_db": "0:10:20", "feedback_bits": "3", "channels": "9",
    "seed": "4", "quantization": "off", "experiment": "F_TRACE", "out": "trace.csv",
}


def test_fields_table_gives_flags_and_file_keys_one_meaning(tmp_path, monkeypatch):
    assert list(_FIELDS) == [f.name for f in fields(LinkConfig)]
    flagged = {key: flag for key, (_, flag) in _FIELDS.items() if flag}
    assert set(flagged) == set(FLAG_SAMPLES)
    seen = []
    monkeypatch.setattr(cli, "run_experiment", seen.append)
    for key, flag in flagged.items():
        text = FLAG_SAMPLES[key]
        cfg_file = tmp_path / f"{key}.cfg"
        cfg_file.write_text(f"{key} = {text}\n")
        argv = [flag] if flag == "--no-quantization" else [flag, text]
        seen.clear()
        main(["run", *argv])
        main(["run", "--config", str(cfg_file)])
        from_flag, from_file = seen
        assert from_flag == from_file, key
        assert getattr(from_flag, key) != getattr(LinkConfig(), key), key


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


def test_parse_config_duplicate_key_names_its_line(tmp_path, monkeypatch, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("users = 2\nantennas = 2\nusers = 3\n")
    with pytest.raises(ConfigurationError) as duplicate:
        parse_config(cfg_file)
    assert str(duplicate.value) == f"{cfg_file}:3: duplicate key 'users'"
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert "duplicate key 'users'" in capsys.readouterr().err
    assert not out.exists()
    # a repeated flag keeps argparse's last value
    seen = []
    monkeypatch.setattr(cli, "run_experiment", seen.append)
    main(["run", "--users", "3", "--antennas", "3", "--users", "2"])
    assert seen[0].users == 2


def test_config_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_bytes(b"users = 4\xff\n")
    with pytest.raises(ConfigurationError, match="not UTF-8"):
        parse_config(cfg_file)
    out = tmp_path / "x.csv"
    for argv in (["run", "--config", str(cfg_file), "--out", str(out)],
                 ["verify", "--config", str(cfg_file)]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert str(cfg_file) in err and "not UTF-8" in err, err
    assert not out.exists()


def test_config_file_with_a_utf8_byte_order_mark_is_read(tmp_path, capsys):
    cfg_file = tmp_path / "bom.cfg"
    cfg_file.write_bytes("\ufeffusers = 2\nantennas = 2\nblock_len = 5\n".encode())
    cfg = parse_config(cfg_file)
    assert (cfg.users, cfg.antennas, cfg.block_len) == (2, 2, 5)
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(cfg_file), "--scheme", "ZF", "--snr-db", "10",
                 "--channels", "2", "--out", str(out)]) == 0
    with open(out) as fh:
        [row] = list(csv.DictReader(fh))
    assert row["K"] == "2" and row["M"] == "5"
    assert main(["verify", "--config", str(cfg_file)]) == 0
    assert capsys.readouterr().out.startswith("PASS slp-solver: 2 blocks of 5:")


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
    for snr in ("nan", "-inf", "0:5:inf", "4000", "-3100", "-4000"):
        rc = main(["run", "--users", "2", "--antennas", "2", f"--snr-db={snr}",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "snr_db" in capsys.readouterr().err
    # a repeated scheme or SNR point would be run and written twice; an empty
    # name is a typo, rejected like the SNR parser rejects "10,"
    for flags, message in ((["--scheme", "ZF,ZF", "--snr-db", "10"], "schemes lists ZF"),
                           (["--scheme", "ZF", "--snr-db", "10,10"], "snr_db lists 10.0"),
                           (["--scheme", "ZF,", "--snr-db", "10"], "'ZF,'"),
                           (["--scheme", ",ZF", "--snr-db", "10"], "',ZF'"),
                           (["--scheme", "ZF,,RZF", "--snr-db", "10"], "'ZF,,RZF'"),
                           (["--scheme", "ZF", "--snr-db", "10,"], "'10,'")):
        rc = main(["run", "--users", "2", "--antennas", "2", "--block-len", "4",
                   "--channels", "3", *flags, "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert message in capsys.readouterr().err
    # flag values are read by the config-file parsers, and usage errors are
    # configuration errors too
    for bad in (["--users", "abc"], ["--channels", "1.5"], ["--mod", "x"],
                ["--experiment", "FOO"], ["--experiment", "THROUGHPUT_SWEEP"], ["--bogus", "1"]):
        assert main(["run", *bad, "--out", str(tmp_path / "x.csv")]) == 1, bad
        assert bad[0].lstrip("-") in capsys.readouterr().err.lower()
    assert main([]) == 1
    assert main(["verify", "--seed", "x"]) == 1
    assert main(["verify", "--seed", "-5"]) == 1
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    with pytest.raises(SystemExit) as help_exit:
        main(["run", "--help"])
    assert help_exit.value.code == 0


def test_cli_snr_too_large_for_a_float_exits_1(tmp_path, capsys):
    # float() reads 1e400 as inf, which would run without noise; only a
    # spelled-out inf selects zero noise
    out = tmp_path / "x.csv"
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("snr_db = 1e400\n")
    for args in (["--snr-db=1e400"], ["--snr-db=10,1e400"], ["--config", str(cfg_file)]):
        assert main(["run", "--scheme", "ZF", *args, "--out", str(out)]) == 1, args
        assert "'1e400'" in capsys.readouterr().err
    assert not out.exists()
    assert main(["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "4",
                 "--channels", "2", "--no-quantization", "--snr-db=-5,INF",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [(r["snr_db"], r["ber"] == "0.0") for r in rows] == [("-5.0", False), ("inf", True)]


# total_power is not a key (the budget is fixed): the parser names it
@pytest.mark.parametrize("line, flags", [
    ("f_max = nan", []), ("f_max = inf", []), ("total_power = 1", []),
    ("", ["--bits-feedback", "2000"]),
])
def test_cli_non_finite_power_or_huge_feedback_exits_1(tmp_path, capsys, line, flags):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(line + "\n")
    out = tmp_path / "x.csv"
    rc = main(["run", "--config", str(cfg_file), "--channels", "3", "--snr-db", "30",
               "--scheme", "SLP_IN_BLOCK,ZF", *flags, "--out", str(out)])
    assert rc == 1
    assert (line.split(" ")[0] or "feedback_bits") in capsys.readouterr().err
    assert not out.exists()


def test_verify_solver_suite_solves_whole_blocks_through_the_block_path(monkeypatch):
    calls = []
    original = slp_core.classify_component

    def counting(spec, points):
        calls.append(np.shape(points))
        return original(spec, points)

    monkeypatch.setattr(slp_core, "classify_component", counting)
    cfg = LinkConfig(users=3, antennas=5, modulation=64, block_len=7)
    passed, detail = check_slp_solutions(cfg)
    assert passed, detail
    assert calls == [(7, 3)] * 2  # one classification per block of 7 symbol vectors
    assert detail.startswith("2 blocks of 7: 0 non-optimal solves")


def test_cli_unwritable_out_fails_before_the_first_trial(tmp_path, monkeypatch, capsys):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the output path was checked")

    monkeypatch.setattr(cli, "run_monte_carlo", no_trials)
    for experiment in ("BER_SWEEP", "F_TRACE"):
        rc = main(["run", "--experiment", experiment, "--users", "12", "--antennas", "12",
                   "--block-len", "200", "--channels", "6",
                   "--out", str(tmp_path / "nonexistent" / "x.csv")])
        assert rc == 1
        assert "x.csv" in capsys.readouterr().err
    assert main(["run", "--out", str(tmp_path)]) == 1


def _disk_full_after(n_values):
    """A stand-in for ``cli._fmt`` that fails as a full disk does after n values."""
    written = []

    def disk_full(value):
        if len(written) == n_values:
            raise OSError(28, "No space left on device")
        written.append(value)
        return str(value)

    return disk_full


def test_cli_failed_write_leaves_no_new_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_fmt", _disk_full_after(20))
    out = tmp_path / "partial.csv"
    assert main(["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "5",
                 "--snr-db", "10,20", "--channels", "2", "--out", str(out)]) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert not out.exists()


def test_cli_failed_write_keeps_the_out_that_was_there(tmp_path, monkeypatch, capsys):
    out = tmp_path / "prev.csv"
    out.write_text("previous,results\n1,2\n")
    before = out.read_bytes()
    args = ["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "5",
            "--snr-db", "10,20", "--channels", "2", "--out", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_fmt", _disk_full_after(20))
        assert main(args) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert list(tmp_path.iterdir()) == [out]  # no temporary file left behind
    # a run that succeeds replaces it, with the mode a new file gets
    umask = os.umask(0)
    os.umask(umask)
    assert main(args) == 0
    assert out.read_text().startswith(",".join(SWEEP_COLUMNS))
    assert list(tmp_path.iterdir()) == [out]
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_cli_writes_through_a_symlinked_out(tmp_path):
    target = tmp_path / "results" / "sweep.csv"
    target.parent.mkdir()
    target.write_text("old\n")
    link = tmp_path / "latest.csv"
    link.symlink_to(target)
    assert main(["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "5",
                 "--snr-db", "10", "--channels", "1", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text().startswith(",".join(SWEEP_COLUMNS))
    assert sorted(p.name for p in target.parent.iterdir()) == ["sweep.csv"]


def test_cli_out_through_a_dangling_symlink(tmp_path, monkeypatch, capsys):
    """A failed run keeps the link and leaves no target; a run that succeeds
    creates the target through the link."""
    target = tmp_path / "target.csv"
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    args = ["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "5",
            "--snr-db", "10,20", "--channels", "2", "--out", str(link)]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_fmt", _disk_full_after(20))
        assert main(args) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert link.is_symlink()
    assert list(tmp_path.iterdir()) == [link]
    assert main(args) == 0
    assert link.is_symlink()
    assert target.read_text().startswith(",".join(SWEEP_COLUMNS))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]


def test_cli_writes_an_out_with_a_251_character_name(tmp_path):
    out = tmp_path / ("x" * 247 + ".csv")
    assert main(["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "5",
                 "--snr-db", "10", "--channels", "1", "--out", str(out)]) == 0
    assert out.read_text().startswith(",".join(SWEEP_COLUMNS))
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write any file")
def test_cli_read_only_out_fails_before_the_first_trial(tmp_path, monkeypatch, capsys):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the output path was checked")

    monkeypatch.setattr(cli, "run_monte_carlo", no_trials)
    out = tmp_path / "kept.csv"
    out.write_text("previous,results\n")
    out.chmod(0o444)
    assert main(["run", "--scheme", "ZF", "--out", str(out)]) == 1
    assert "kept.csv" in capsys.readouterr().err
    assert out.read_text() == "previous,results\n"
    assert list(tmp_path.iterdir()) == [out]


def test_cli_failing_last_scheme_keeps_the_out_that_was_there(tmp_path, monkeypatch, capsys):
    formatted = []
    monkeypatch.setattr(cli, "_fmt", lambda value: formatted.append(value) or str(value))
    rows_before_failure = []

    def singular(channel):
        rows_before_failure.append(len(formatted))
        raise np.linalg.LinAlgError("injected singular channel")

    monkeypatch.setattr(baselines, "zf_precoder", singular)
    out = tmp_path / "prev.csv"
    out.write_text("previous,results\n1,2\n")
    before = out.read_bytes()
    assert main(["run", "--scheme", "RZF,ZF", "--users", "2", "--antennas", "2",
                 "--block-len", "5", "--snr-db", "10,20", "--channels", "2",
                 "--out", str(out)]) == 2
    assert "injected singular channel" in capsys.readouterr().err
    assert rows_before_failure[0] == 2 * len(SWEEP_COLUMNS)  # the two RZF rows
    assert out.read_bytes() == before
    assert list(tmp_path.iterdir()) == [out]


def test_cli_f_trace_formats_rows_before_the_last_block(tmp_path, monkeypatch):
    original = link_sim.simulate_block
    blocks, blocks_at_first_value = [], []

    def counting(*args, **kwargs):
        blocks.append(None)
        return original(*args, **kwargs)

    def fmt(value):
        if not blocks_at_first_value:
            blocks_at_first_value.append(len(blocks))
        return str(value)

    monkeypatch.setattr(link_sim, "simulate_block", counting)
    monkeypatch.setattr(cli, "_fmt", fmt)
    monkeypatch.setenv(WORKERS_ENV, "1")
    assert main(["run", "--experiment", "F_TRACE", "--scheme", "ZF,RZF", "--users", "2",
                 "--antennas", "2", "--block-len", "4", "--snr-db", "10,20", "--channels", "3",
                 "--out", str(tmp_path / "trace.csv")]) == 0
    assert len(blocks) == 12
    assert blocks_at_first_value == [6]  # the ZF blocks only


def test_scipy_loads_on_the_first_ci_solve(tmp_path):
    """What a fresh interpreter loads: SciPy's solver only for a CI solve (not
    for a rejected config, --help or a ZF/RZF run), and numpy.random at
    import, before any worker pool forks."""
    script = "\n".join([
        "import contextlib, io, sys",
        "from slpsim import cli",
        "loaded = lambda: 'scipy.optimize' in sys.modules",
        "print(loaded(), 'numpy.random' in sys.modules)",
        "args = ['--users', '2', '--antennas', '2', '--block-len', '5', '--snr-db', '10',",
        "        '--channels', '2', '--out', sys.argv[1]]",
        "assert cli.main(['run', *args, '--users', '0']) == 1",
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):",
        "    cli.main(['run', '--help'])",
        "assert cli.main(['run', '--scheme', 'ZF,RZF', *args]) == 0",
        "print(loaded())",
        "assert cli.main(['run', '--scheme', 'SLP_IN_BLOCK', *args]) == 0",
        "print(loaded())",
    ])
    env = {k: v for k, v in os.environ.items() if k != WORKERS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "x.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "False", "True"]


def test_scipy_is_loaded_before_an_slp_pool_forks():
    """A pooled SLP sweep imports SciPy once, in the parent, so no worker of
    any pool imports it again; a pooled ZF/RZF sweep never loads it."""
    script = "\n".join([
        "import sys",
        "from slpsim import link_sim",
        "seen = []",
        "class Recording(link_sim.ProcessPoolExecutor):",
        "    def __init__(self, *args, **kwargs):",
        "        seen.append('scipy.optimize' in sys.modules)",
        "        super().__init__(*args, **kwargs)",
        "link_sim.ProcessPoolExecutor = Recording",
        "cfg = link_sim.LinkConfig(users=2, antennas=2, block_len=5, snr_db=(10.0, 20.0),",
        "                          channels=3)",
        "for schemes in (('ZF', 'RZF'), ('SLP_IN_BLOCK', 'SLP_UNIFORM')):",
        "    for scheme in schemes:",
        "        link_sim.run_monte_carlo(cfg, scheme)",
        "    print(*seen)",
        "    seen.clear()",
    ])
    env = {**os.environ, WORKERS_ENV: "2"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False False False False", "True True True True"]


def test_cli_point_where_every_trial_fails(tmp_path, monkeypatch, capsys):
    def singular(channel):
        raise np.linalg.LinAlgError("injected singular channel")

    monkeypatch.setattr(baselines, "zf_precoder", singular)
    args = ["run", "--scheme", "ZF", "--users", "2", "--antennas", "2",
            "--snr-db", "10", "--out", str(tmp_path / "x.csv")]
    assert main(args + ["--channels", "3"]) == 2
    assert not (tmp_path / "x.csv").exists()
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
        "--snr-db", "30,40", "--channels", "2", "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [c for c in rows[0]] == TRACE_COLUMNS
    blocks = {}
    for r in rows:
        blocks.setdefault((r["scheme"], r["snr_db"], r["block"]), []).append(float(r["f"]))
    assert sorted(blocks) == sorted(
        (scheme, snr, block)
        for scheme in ("SLP_IN_BLOCK", "SLP_UNIFORM")
        for snr in ("30.0", "40.0")
        for block in ("0", "1")
    )
    for (scheme, _, _), f in blocks.items():
        assert len(f) == 10
        if scheme == "SLP_IN_BLOCK":
            assert np.ptp(f) <= 1e-6 * f[0]
        else:
            assert np.ptp(f) > 1e-3 * f[0]
    # each block is a different channel draw
    assert len({blocks[key][0] for key in blocks if key[0] == "SLP_IN_BLOCK"}) == 4


def test_cli_f_trace_drops_a_failed_trials_rows(tmp_path, monkeypatch, caplog):
    original = baselines.zf_precoder
    calls = []

    def fails_on_the_second_call(H):
        calls.append(H)
        if len(calls) == 2:  # ZF at 10 dB, block 1
            raise np.linalg.LinAlgError("injected singular channel")
        return original(H)

    monkeypatch.setattr(baselines, "zf_precoder", fails_on_the_second_call)
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    out = tmp_path / "trace.csv"
    assert main(["run", "--experiment", "F_TRACE", "--scheme", "ZF,RZF", "--users", "2",
                 "--antennas", "2", "--block-len", "4", "--snr-db", "10,20",
                 "--channels", "3", "--out", str(out)]) == 0
    assert "trial discarded (scheme=ZF, snr=10.0 dB, seed=1, trial=1)" in caplog.text
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    blocks = {}
    for r in rows:
        blocks.setdefault((r["scheme"], r["snr_db"], r["block"]), []).append(r["symbol"])
    assert sorted(blocks) == sorted(
        (scheme, snr, block)
        for scheme in ("ZF", "RZF")
        for snr in ("10.0", "20.0")
        for block in ("0", "1", "2")
        if (scheme, snr, block) != ("ZF", "10.0", "1")
    )
    assert all(symbols == ["0", "1", "2", "3"] for symbols in blocks.values())


def test_cli_f_trace_is_the_same_at_every_worker_count(tmp_path, monkeypatch):
    args = ["run", "--experiment", "F_TRACE", "--users", "2", "--antennas", "2",
            "--block-len", "4", "--snr-db", "10,30", "--channels", "3", "--seed", "3"]
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv(WORKERS_ENV, workers)
        outputs.append(tmp_path / f"trace-{workers}.csv")
        assert main(args + ["--out", str(outputs[-1])]) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


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
    passed, detail = check_slp_solutions(LinkConfig(seed=0))
    assert passed, detail


def test_verification_detects_non_optimal_solve(monkeypatch):
    original = slp_core.solve_ci_max

    def max_iter(instance, opts=None):
        sol = original(instance, opts)
        sol.status = slp_core.SolverStatus.MAX_ITER
        return sol

    monkeypatch.setattr(slp_core, "solve_ci_max", max_iter)
    passed, detail = check_slp_solutions(LinkConfig(block_len=5))
    assert not passed
    assert "10 non-optimal solves" in detail


def test_cli_verify_exit_code():
    assert main(["verify", "--seed", "0"]) == 0


def test_cli_verify_takes_the_seed_from_the_config_file(tmp_path, capsys):
    five, nine = tmp_path / "five.cfg", tmp_path / "nine.cfg"
    five.write_text("seed = 5\n")
    nine.write_text("seed = 9\n")

    def solver_line(*args):
        assert main(["verify", *args]) == 0
        return capsys.readouterr().out

    seeded_by_flag = solver_line("--seed", "5")
    assert solver_line("--config", str(five)) == seeded_by_flag
    assert solver_line("--config", str(nine)) != seeded_by_flag
    # an explicit --seed overrides the file's key, as run's flags do
    assert solver_line("--config", str(nine), "--seed", "5") == seeded_by_flag


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    import slpsim.cli as cli

    monkeypatch.setattr(cli, "check_slp_solutions", lambda cfg: (False, "injected"))
    assert main(["verify"]) == 3
    assert capsys.readouterr().out == "FAIL slp-solver: injected\n"


def test_cli_runtime_failure_exit_code(monkeypatch, capsys):
    import slpsim.cli as cli

    def boom(cfg):
        raise RuntimeError("injected solver failure")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert main(["run", "--users", "2", "--antennas", "2"]) == 2
    assert "runtime failure: RuntimeError: injected solver failure" in capsys.readouterr().err
