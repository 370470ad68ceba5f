import csv
import ctypes
import errno
import functools
import multiprocessing
import os
import re
import stat
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from slpsim import baselines, cli, link_sim, power_alloc, slp_core
from slpsim.channel import generate_channel, trial_rng
from slpsim.cli import (
    _FIELDS,
    SWEEP_COLUMNS,
    TRACE_COLUMNS,
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
    # a point is kept while it rounds, to 9 decimals, to at most stop; a finer step would repeat points
    assert parse_snr_values("0:1e-9:1e-9") == (0.0, 1e-9)
    assert parse_snr_values("0:0.1:0.3") == (0.0, 0.1, 0.2, 0.3)
    assert parse_snr_values("-10:5:0") == (-10.0, -5.0, 0.0)
    for text in ("0:1e-10:1e-9", "0:9.99e-10:1", "0:0:1"):
        with pytest.raises(ConfigurationError, match="step must be >= 1e-9 dB"):
            parse_snr_values(text)
    for text in ("5e-10:1e-9:5e-9", "1.5e-9:1e-9:6e-9"):
        with pytest.raises(ConfigurationError, match="repeats a point"):
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
    assert spec.modulation == 16
    assert len(spec.schemes) == 4


# One value per config key, each different from the default.
FLAG_SAMPLES = {
    "users": "3", "antennas": "5", "block_len": "7", "modulation": "64",
    "schemes": "ZF,RZF", "snr_db": "0:10:20", "feedback_bits": "3", "channels": "9",
    "seed": "4", "experiment": "F_TRACE", "out": "trace.csv",
}


def test_fields_table_gives_flags_and_file_keys_one_meaning(tmp_path, monkeypatch):
    assert list(_FIELDS) == [f.name for f in fields(LinkConfig)]
    assert set(FLAG_SAMPLES) == set(_FIELDS)  # every key has a flag
    seen = []
    monkeypatch.setattr(cli, "run_experiment", seen.append)
    for key, (_, flag) in _FIELDS.items():
        text = FLAG_SAMPLES[key]
        cfg_file = tmp_path / f"{key}.cfg"
        cfg_file.write_text(f"{key} = {text}\n")
        seen.clear()
        main(["run", flag, text])
        main(["run", "--config", str(cfg_file)])
        from_flag, from_file = seen
        assert from_flag == from_file, key
        assert getattr(from_flag, key) != getattr(LinkConfig(), key), key


def test_parse_config_unknown_key(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    # unknown keys (quantization is not a key: the broadcast is always modelled)
    # and a line without "="
    for line, message in (("userz = 4", "userz"), ("users 4", "expected 'key = value'"),
                          ("quantization = off", "unknown key 'quantization'")):
        cfg_file.write_text(line + "\n")
        with pytest.raises(ConfigurationError, match=message):
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
    # a flag overrides the file's key
    cfg_file.write_text("seed = 9\n")
    main(["run", "--config", str(cfg_file), "--seed", "5"])
    assert seen[1].seed == 5


def test_config_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_bytes(b"users = 4\xff\n")
    with pytest.raises(ConfigurationError, match="not UTF-8"):
        parse_config(cfg_file)
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(cfg_file) in err and "not UTF-8" in err, err
    assert not out.exists()


def test_config_file_with_a_utf8_byte_order_mark_is_read(tmp_path):
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


def test_parse_config_comments_and_schemes(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# experiment setup\nschemes = ZF, RZF\nsnr_db = 0:10:20\n"
        "out = run#3.csv\nusers = 4  # four\n"
    )
    spec = parse_config(cfg_file)
    assert spec.schemes == (Scheme.ZF, Scheme.RZF)
    assert spec.snr_db == (0.0, 10.0, 20.0)
    # a '#' starts a comment only at the start of a line or after whitespace
    assert spec.out == "run#3.csv"
    assert spec.users == 4


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
    # configuration errors too; the broadcast is always modelled, so there is
    # no --no-quantization (--bits-feedback 1023 gives an exact one)
    for bad in (["--users", "abc"], ["--channels", "1.5"], ["--mod", "x"],
                ["--experiment", "FOO"], ["--experiment", "THROUGHPUT_SWEEP"], ["--bogus", "1"],
                ["--no-quantization"]):
        assert main(["run", *bad, "--out", str(tmp_path / "x.csv")]) == 1, bad
        assert bad[0].lstrip("-") in capsys.readouterr().err.lower()
    assert main([]) == 1
    # run is the one subcommand
    assert main(["verify"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice" in err and "verify" in err, err
    for seed in ("x", "-5"):
        assert main(["run", "--seed", seed, "--out", str(tmp_path / "x.csv")]) == 1, seed
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
                 "--channels", "2", "--bits-feedback", "1023", "--snr-db=-5,INF",
                 "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["snr_db"], r["ber"] == "0.0") for r in rows] == [("-5.0", False), ("inf", True)]


@pytest.mark.parametrize("snr", ["-10:5:0", "-5,0,5", "-1e1"])
def test_cli_snr_value_may_start_with_a_minus(tmp_path, snr):
    # argparse reads a lone "-10:5:0" as a flag; the space form must still run
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"snr_db = {snr}\n")
    base = ["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "4",
            "--channels", "2"]
    written = []
    for i, args in enumerate((["--snr-db", snr], [f"--snr-db={snr}"], ["--config", str(cfg_file)])):
        out = tmp_path / f"{i}.csv"
        assert main([*base, *args, "--out", str(out)]) == 0, args
        written.append(out.read_bytes())
    assert written[0] == written[1] == written[2]
    assert len(written[0].splitlines()) == 1 + len(parse_snr_values(snr))


def test_cli_snr_minus_inf_by_flag_is_rejected_as_in_a_file(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("snr_db = -inf\n")
    out = tmp_path / "x.csv"
    errors = []
    for args in (["--snr-db", "-inf"], ["--config", str(cfg_file)]):
        assert main(["run", *args, "--out", str(out)]) == 1, args
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: snr_db value -inf ")
    assert not out.exists()


def test_cli_flag_after_a_value_flag_is_not_taken_as_its_value(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for args in (["--out", "--help"], ["--out", "-h"], ["--out", "--users", "2"], ["--users"]):
        assert main(["run", *args]) == 1, args
        assert "expected one argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, token", [
    (["run", "--user", "2"], "--user"),
    (["run", "--snr", "10"], "--snr"),
    (["run", "--o", "x.csv"], "--o"),
    (["run", "--conf", "exp.cfg"], "--conf"),
    (["run", "--se", "3"], "--se"),
])
def test_cli_prefix_of_a_flag_is_not_that_flag(tmp_path, monkeypatch, capsys, argv, token):
    monkeypatch.chdir(tmp_path)
    ran = []
    monkeypatch.setattr(cli, "run_experiment", ran.append)
    assert main(argv) == 1
    assert f"unrecognized arguments: {token}" in capsys.readouterr().err
    assert ran == []


def test_cli_run_lists_one_flag_per_key(capsys):
    with pytest.raises(SystemExit) as help_exit:
        main(["run", "--help"])
    assert help_exit.value.code == 0
    listed = sorted(set(re.findall(r"--[a-z-]+", capsys.readouterr().out)))
    assert listed == sorted(["--help", "--config", *(flag for _, flag in _FIELDS.values())])


@pytest.mark.parametrize("key, flag, text", [
    ("users", "--users", "abc"),
    ("snr_db", "--snr-db", "0:-5:40"),
    ("snr_db", "--snr-db", "0:1e-10:1e-9"),
    ("schemes", "--scheme", "ZF,,RZF"),
])
def test_cli_bad_value_names_its_flag_or_file_line(tmp_path, capsys, key, flag, text):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"# sizes\nseed = 3\n{key} = {text}\n")
    out = tmp_path / "x.csv"
    for args, where in (([flag, text], flag), (["--config", str(cfg_file)], f"{cfg_file}:3")):
        assert main(["run", *args, "--out", str(out)]) == 1, args
        assert capsys.readouterr().err.startswith(f"error: {where}: bad value for {key!r}: ")
    assert not out.exists()


# total_power, f_max and quantization are not keys (the budget and the
# broadcast error scale are fixed, and the broadcast is always modelled):
# the parser names them, whatever their value
@pytest.mark.parametrize("line, flags", [
    ("f_max = nan", []), ("f_max = inf", []), ("total_power = 1", []),
    ("", ["--bits-feedback", "2000"]), ("f_max = 1", []), ("quantization = off", []),
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


def test_cli_unwritable_out_fails_before_the_first_trial(tmp_path, monkeypatch, capsys):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the output path was checked")

    monkeypatch.setattr(cli, "run_monte_carlo", no_trials)
    monkeypatch.setattr(cli, "sweep_points", no_trials)
    for experiment in ("BER_SWEEP", "F_TRACE"):
        rc = main(["run", "--experiment", experiment, "--users", "12", "--antennas", "12",
                   "--block-len", "200", "--channels", "6",
                   "--out", str(tmp_path / "nonexistent" / "x.csv")])
        assert rc == 1
        assert "x.csv" in capsys.readouterr().err
    assert main(["run", "--out", str(tmp_path)]) == 1


def test_cli_empty_out_exits_1_naming_the_key(tmp_path, monkeypatch, capsys):
    # an empty path is refused as such, not resolved to the working directory
    monkeypatch.chdir(tmp_path)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("out =\n")
    for argv in (["--out", ""], ["--config", str(cfg_file)]):
        assert main(["run", "--scheme", "ZF", "--channels", "1", *argv]) == 1, argv
        assert "error: out must be a non-empty" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_file]


def _disk_full_after(n_values):
    """A stand-in for ``cli._fmt`` that fails as a full disk does after n values."""
    written = []

    def disk_full(value):
        if len(written) == n_values:
            raise OSError(28, "No space left on device")
        written.append(value)
        return str(value)

    return disk_full


def _renameat2_failing_with(err):
    """A stand-in for ``cli._renameat2`` that fails as the kernel does with ``err``."""
    def renameat2(*args):
        ctypes.set_errno(err)
        return -1

    return renameat2


def _no_replace(*args):
    raise AssertionError("os.replace called where the swap should have run")


def _require_swap(tmp_path):
    """Skip unless renameat2(RENAME_EXCHANGE), called here and not through
    ``cli``, swaps two files in ``tmp_path``."""
    try:
        renameat2 = ctypes.CDLL(None, use_errno=True).renameat2
    except (AttributeError, OSError, TypeError):
        pytest.skip("no renameat2 in this platform's C library")
    renameat2.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_uint)
    renameat2.restype = ctypes.c_int
    a, b = tmp_path / "swap-a", tmp_path / "swap-b"
    a.write_text("a")
    b.write_text("b")
    failed = renameat2(-100, bytes(a), -100, bytes(b), 2)  # AT_FDCWD, RENAME_EXCHANGE
    reason = os.strerror(ctypes.get_errno())
    contents = a.read_text() + b.read_text()
    a.unlink()
    b.unlink()
    if failed:
        pytest.skip(f"renameat2(RENAME_EXCHANGE) fails on this filesystem: {reason}")
    assert contents == "ba"


@pytest.fixture(params=["swap", "fallback"])
def replacement(request, tmp_path, monkeypatch):
    """How an existing out is replaced: by the swap, with os.replace made to
    fail, or by os.replace after the swap reports that it cannot run."""
    if request.param == "swap":
        _require_swap(tmp_path)
        monkeypatch.setattr(os, "replace", _no_replace)
    else:
        monkeypatch.setattr(cli, "_renameat2", _renameat2_failing_with(errno.ENOSYS))


def test_cli_failed_write_leaves_no_new_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_fmt", _disk_full_after(20))
    out = tmp_path / "partial.csv"
    assert main(["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "5",
                 "--snr-db", "10,20", "--channels", "2", "--out", str(out)]) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert not out.exists()


def test_cli_failed_write_keeps_the_out_that_was_there(tmp_path, monkeypatch, capsys,
                                                       replacement):
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
    # a run that succeeds replaces it and keeps its mode, here the one a new file gets
    umask = os.umask(0)
    os.umask(umask)
    assert main(args) == 0
    assert out.read_text().startswith(",".join(SWEEP_COLUMNS))
    assert list(tmp_path.iterdir()) == [out]
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_cli_writes_through_a_symlinked_out(tmp_path, replacement):
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


@pytest.mark.parametrize("mode, linked", [(0o600, False), (0o640, True)], ids=["direct", "symlink"])
def test_cli_run_keeps_the_mode_of_an_existing_out(tmp_path, mode, linked, replacement):
    target = tmp_path / "r.csv"
    target.write_text("old\n")
    target.chmod(mode)
    out = tmp_path / "link.csv" if linked else target
    if linked:
        out.symlink_to(target)
    umask = os.umask(0o022)  # a new file would get 0644
    try:
        assert main(["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "4",
                     "--snr-db", "10", "--channels", "1", "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert out.is_symlink() == linked
    assert target.read_text().startswith(",".join(SWEEP_COLUMNS))
    assert target.stat().st_mode & 0o777 == mode


def test_cli_swaps_an_existing_out_without_a_rename_onto_it(tmp_path, monkeypatch):
    """An existing out is exchanged with the new file in one renameat2 call;
    os.replace, which ext4 makes wait for the new file's data, is not called."""
    _require_swap(tmp_path)
    args = ["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "5",
            "--snr-db", "10,20", "--channels", "2", "--out"]
    fresh = tmp_path / "fresh" / "x.csv"
    fresh.parent.mkdir()
    assert main(args + [str(fresh)]) == 0
    out = tmp_path / "existing" / "x.csv"
    out.parent.mkdir()
    out.write_text("old\n")
    out.chmod(0o600)
    monkeypatch.setattr(os, "replace", _no_replace)
    assert main(args + [str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert out.stat().st_mode & 0o777 == 0o600
    assert list(out.parent.iterdir()) == [out]


def test_cli_swapped_out_old_file_that_cannot_be_deleted_is_left(tmp_path, monkeypatch):
    """After the swap the run has succeeded: an old file that cannot be
    deleted stays under the temporary name, as a killed run's file does."""
    _require_swap(tmp_path)
    out = tmp_path / "x.csv"
    out.write_text("old\n")

    def undeletable(path, missing_ok=False):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(Path, "unlink", undeletable)
    assert main(["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "5",
                 "--snr-db", "10", "--channels", "1", "--out", str(out)]) == 0
    assert out.read_text().startswith(",".join(SWEEP_COLUMNS))
    [left] = [p for p in tmp_path.iterdir() if p != out]
    assert left.name.startswith(".slpsim-") and left.read_text() == "old\n"


@pytest.mark.parametrize("err", [errno.ENOENT, errno.EINVAL, errno.ENOSYS, errno.EOPNOTSUPP, None],
                         ids=lambda err: errno.errorcode.get(err, "no-renameat2"))
def test_swap_reports_that_it_cannot_run(tmp_path, monkeypatch, err):
    """No such out, a filesystem that refuses the flag, a kernel or a libc
    without renameat2 (None): the caller falls back to os.replace."""
    monkeypatch.setattr(cli, "_renameat2", err and _renameat2_failing_with(err))
    a, b = tmp_path / "a", tmp_path / "b"
    a.write_text("a")
    b.write_text("b")
    assert cli._swap(a, b) is False
    assert (a.read_text(), b.read_text()) == ("a", "b")


def test_cli_swap_that_fails_exits_1_and_keeps_the_out(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_renameat2", _renameat2_failing_with(errno.EACCES))
    out = tmp_path / "prev.csv"
    out.write_text("previous,results\n1,2\n")
    before = out.read_bytes()
    assert main(["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "5",
                 "--snr-db", "10", "--channels", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(out.resolve()) in err and "Permission denied" in err, err
    assert out.read_bytes() == before
    assert list(tmp_path.iterdir()) == [out]  # no .slpsim-* file left behind


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


def test_cli_writes_beside_the_temporary_file_a_killed_run_left(tmp_path):
    """A run killed before its cleanup leaves its temporary file, named
    .slpsim-<16 random hex digits>.tmp; a later run draws its own name, writes
    out and leaves the file be."""
    stale = tmp_path / f".slpsim-{os.urandom(8).hex()}.tmp"
    stale.write_text("killed run\n")
    out = tmp_path / "x.csv"
    assert main(["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "5",
                 "--snr-db", "10", "--channels", "1", "--out", str(out)]) == 0
    assert out.read_text().startswith(",".join(SWEEP_COLUMNS))
    assert stale.read_text() == "killed run\n"
    assert sorted(tmp_path.iterdir()) == sorted([out, stale])


def _env_with_src(**extra):
    """This environment plus ``extra``, with this package's source first on
    PYTHONPATH, for a fresh interpreter."""
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    return env


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_cli_fifo_out_exits_1_and_is_left_as_it_was(tmp_path):
    """Opening a FIFO that has no reader for writing blocks, so the run is a
    subprocess with a timeout: a hang fails this test, not the whole suite."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    proc = subprocess.run([sys.executable, "-m", "slpsim.cli", "run", "--scheme", "ZF",
                           "--users", "2", "--antennas", "2", "--block-len", "4",
                           "--snr-db", "10", "--channels", "1", "--out", str(fifo)],
                          env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert str(fifo.resolve()) in proc.stderr and "not a regular file" in proc.stderr
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert list(tmp_path.iterdir()) == [fifo]  # no temporary file left behind


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_cli_config_that_is_not_a_regular_file_exits_1(tmp_path):
    """Reading a FIFO that has no writer blocks and reading /dev/zero never
    ends, so each run is a subprocess with a timeout; /dev/null is refused
    with them rather than read as an empty config."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    out = tmp_path / "x.csv"
    for config in (str(fifo), "/dev/zero", "/dev/null", str(tmp_path)):
        proc = subprocess.run([sys.executable, "-m", "slpsim.cli", "run", "--config", config,
                               "--out", str(out)],
                              env=_env_with_src(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == f"error: {config}: not a regular file\n"
    assert list(tmp_path.iterdir()) == [fifo]


def test_cli_out_in_a_symlink_loop_exits_1(tmp_path, capsys):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    first.symlink_to(second)
    second.symlink_to(first)
    for out in (first, first / "x.csv"):
        assert main(["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "4",
                     "--snr-db", "10", "--channels", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}: {str(out)!r}\n"
    assert sorted(tmp_path.iterdir()) == [first, second]  # no .slpsim-* file left behind


def test_cli_pool_starts_no_more_workers_than_a_point_has_trials(tmp_path, monkeypatch):
    sizes = []

    class Recording(link_sim.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            sizes.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    args = ["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "5",
            "--snr-db", "10,20", "--channels", "2"]
    monkeypatch.setenv(WORKERS_ENV, "1")
    assert main(args + ["--out", str(tmp_path / "serial.csv")]) == 0
    monkeypatch.setattr(link_sim, "ProcessPoolExecutor", Recording)
    monkeypatch.setenv(WORKERS_ENV, "4")
    assert main(args + ["--out", str(tmp_path / "pooled.csv")]) == 0
    # one pool per SNR point: the parent runs one trial and one worker the other
    assert sizes == [1, 1]
    assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


@pytest.mark.parametrize("workers, channels, tasks", [(2, 9, 1), (3, 9, 2), (4, 7, 3), (4, 5, 2)])
def test_cli_pool_gets_each_workers_share_as_one_task(tmp_path, monkeypatch, workers, channels,
                                                      tasks):
    pools = []  # [max_workers, submit calls] of each pool; map submits once per chunk

    class Recording(link_sim.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append([kwargs["max_workers"], 0])
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            pools[-1][1] += 1
            return super().submit(*args, **kwargs)

    args = ["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "4",
            "--snr-db", "10,20", "--channels", str(channels)]
    monkeypatch.setenv(WORKERS_ENV, "1")
    assert main(args + ["--out", str(tmp_path / "serial.csv")]) == 0
    monkeypatch.setattr(link_sim, "ProcessPoolExecutor", Recording)
    monkeypatch.setenv(WORKERS_ENV, str(workers))
    assert main(args + ["--out", str(tmp_path / "pooled.csv")]) == 0
    # workers - 1 tasks, one per pool process; at 4 workers and 5 channels the
    # parent runs trial 4 and two tasks of two trials need only two processes
    assert pools == [[tasks, tasks], [tasks, tasks]]
    assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_cli_pooled_output_is_the_serial_output_under_every_start_method(tmp_path, monkeypatch,
                                                                          method):
    monkeypatch.setattr(link_sim, "_POOL_CONTEXT", multiprocessing.get_context(method))
    # an SLP scheme, so a worker that does not inherit the parent's modules loads SciPy itself
    args = ["run", "--scheme", "SLP_IN_BLOCK", "--users", "2", "--antennas", "2",
            "--block-len", "4", "--snr-db", "30", "--channels", "3"]
    for experiment in ("BER_SWEEP", "F_TRACE"):
        outputs = []
        for workers in ("1", "2"):
            monkeypatch.setenv(WORKERS_ENV, workers)
            outputs.append(tmp_path / f"{experiment}-{workers}.csv")
            assert main(args + ["--experiment", experiment, "--out", str(outputs[-1])]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes(), experiment


_RUN_TRIAL = link_sim._run_trial


def _trial_whose_worker_dies(cfg, scheme, sigma2, trial_index):
    """The engine's trial, except that trial 1 ends its worker process as a crash would."""
    if trial_index == 1:
        os._exit(7)
    return _RUN_TRIAL(cfg, scheme, sigma2, trial_index)


def test_cli_pool_worker_that_dies_exits_2_and_keeps_the_out(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(link_sim, "_run_trial", _trial_whose_worker_dies)
    monkeypatch.setenv(WORKERS_ENV, "2")
    out = tmp_path / "prev.csv"
    out.write_text("previous,results\n1,2\n")
    before = out.read_bytes()
    assert main(["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "4",
                 "--snr-db", "10", "--channels", "4", "--out", str(out)]) == 2
    assert "BrokenProcessPool" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert list(tmp_path.iterdir()) == [out]  # no temporary file left behind


def _trial_logging_pid(log, cfg, scheme, sigma2, trial_index):
    """The engine's trial, after appending "trial pid" to ``log``."""
    with open(log, "a") as fh:
        fh.write(f"{trial_index} {os.getpid()}\n")
    return _RUN_TRIAL(cfg, scheme, sigma2, trial_index)


@pytest.mark.parametrize("workers, parent_trials, pool_pids", [
    pytest.param("2", {3, 4}, 1, id="2-workers"), pytest.param("3", {4}, 2, id="3-workers")])
def test_cli_parent_runs_the_last_trials_of_a_pooled_point(tmp_path, monkeypatch, workers,
                                                          parent_trials, pool_pids):
    args = ["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "4",
            "--snr-db", "10", "--channels", "5"]
    monkeypatch.setenv(WORKERS_ENV, "1")
    assert main(args + ["--out", str(tmp_path / "serial.csv")]) == 0
    log = tmp_path / "trials.log"
    monkeypatch.setattr(link_sim, "_run_trial", functools.partial(_trial_logging_pid, log))
    monkeypatch.setenv(WORKERS_ENV, workers)
    assert main(args + ["--out", str(tmp_path / "pooled.csv")]) == 0
    pids = dict(map(int, line.split()) for line in log.read_text().splitlines())
    assert sorted(pids) == list(range(5))
    assert {t for t, pid in pids.items() if pid == os.getpid()} == parent_trials
    others = {pid for t, pid in pids.items() if t not in parent_trials}
    assert os.getpid() not in others and 1 <= len(others) <= pool_pids
    assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


_ZF_PRECODER = baselines.zf_precoder


def _zf_singular_on(channels, H):
    """ZF, except that it finds each of ``channels`` singular."""
    if any(np.array_equal(H, bad) for bad in channels):
        raise np.linalg.LinAlgError("injected singular channel")
    return _ZF_PRECODER(H)


def test_cli_pooled_point_discards_failed_trials_of_either_share(tmp_path, monkeypatch, caplog):
    # at 2 workers and 5 channels the pool runs trials 0-2 and the parent trials 3-4
    failing = (1, 4)
    channels = [generate_channel(2, 2, trial_rng(1, trial)) for trial in failing]
    monkeypatch.setattr(baselines, "zf_precoder", functools.partial(_zf_singular_on, channels))
    args = ["run", "--scheme", "ZF", "--users", "2", "--antennas", "2", "--block-len", "4",
            "--snr-db", "10", "--channels", "5"]
    warnings = []
    for workers in ("1", "2"):
        monkeypatch.setenv(WORKERS_ENV, workers)
        caplog.clear()
        assert main(args + ["--out", str(tmp_path / f"{workers}.csv")]) == 0
        warnings.append([m for m in caplog.messages if "trial discarded" in m])
    assert warnings[0] == warnings[1]
    assert [w.split(": ")[0] for w in warnings[0]] == [
        f"trial discarded (scheme=ZF, snr=10.0 dB, seed=1, trial={trial})" for trial in failing
    ]
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()


def _check_refused_out_fails_before_the_first_trial(tmp_path, monkeypatch, capsys, refuse):
    """Both experiments, onto an out that ``refuse(out)`` makes unwritable, exit 1
    before their first trial and leave out, and its directory, as they were."""
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the output path was checked")

    monkeypatch.setattr(cli, "run_monte_carlo", no_trials)
    monkeypatch.setattr(cli, "sweep_points", no_trials)
    out = tmp_path / "kept.csv"
    out.write_text("previous,results\n")
    refuse(out)
    for experiment in ("BER_SWEEP", "F_TRACE"):
        assert main(["run", "--experiment", experiment, "--scheme", "ZF", "--out", str(out)]) == 1
        assert "kept.csv" in capsys.readouterr().err
    assert out.read_text() == "previous,results\n"
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write any file")
def test_cli_read_only_out_fails_before_the_first_trial(tmp_path, monkeypatch, capsys):
    _check_refused_out_fails_before_the_first_trial(tmp_path, monkeypatch, capsys, lambda out: out.chmod(0o444))


def test_cli_out_refused_by_the_write_probe_fails_before_the_first_trial(tmp_path, monkeypatch, capsys):
    # the read-only test's contract for any user, root too: opening out to write gets EACCES
    def refuse(out):
        real_open = os.open

        def open_refusing_out(path, *args, **kwargs):
            if os.path.realpath(path) == os.path.realpath(out):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", open_refusing_out)

    _check_refused_out_fails_before_the_first_trial(tmp_path, monkeypatch, capsys, refuse)


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
    assert blocks_at_first_value == [3]  # the blocks of the first ZF point only


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
    env = {k: v for k, v in _env_with_src().items() if k != WORKERS_ENV}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "x.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "False", "True"]


def test_scipy_is_loaded_before_an_slp_pool_forks():
    """A pooled SLP sweep imports SciPy once, in the parent, and on Linux every
    pool forks even where the interpreter's default is forkserver, so no worker
    of any pool imports it again; a pooled ZF/RZF sweep never loads it."""
    script = "\n".join([
        "import multiprocessing, sys",
        "if 'forkserver' in multiprocessing.get_all_start_methods():",
        "    multiprocessing.set_start_method('forkserver', force=True)",
        "print(multiprocessing.get_start_method())",
        "from slpsim import link_sim",
        "seen = []",
        "class Recording(link_sim.ProcessPoolExecutor):",
        "    def __init__(self, *args, **kwargs):",
        "        method = (kwargs.get('mp_context') or multiprocessing.get_context()).get_start_method()",
        "        seen.append(f\"{'scipy.optimize' in sys.modules}:{method}\")",
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
    proc = subprocess.run([sys.executable, "-c", script],
                          env=_env_with_src(**{WORKERS_ENV: "2"}), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    default, zf_rzf, slp = proc.stdout.splitlines()
    method = "fork" if sys.platform == "linux" else default
    assert zf_rzf.split() == [f"False:{method}"] * 4
    assert slp.split() == [f"True:{method}"] * 4


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
    assert row["n_bits"] == "0" and row["ber"] == "nan"


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
    # each block is its trial's channel draw at every SNR point, and the two blocks differ
    for scheme in ("SLP_IN_BLOCK", "SLP_UNIFORM"):
        for block in ("0", "1"):
            assert blocks[scheme, "30.0", block] == blocks[scheme, "40.0", block]
        assert blocks[scheme, "30.0", "0"][0] != blocks[scheme, "30.0", "1"][0]


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


def test_cli_run_discards_a_trial_whose_margin_the_allocation_rejects(tmp_path, monkeypatch, caplog,
                                                                     capsys):
    # a channel 1e-13 times a Rayleigh draw gives certified margins at or below MIN_MARGIN
    draw = link_sim.generate_channel
    monkeypatch.setattr(link_sim, "generate_channel", lambda *args: 1e-13 * draw(*args))
    margins = []
    solve = slp_core.solve_block

    def recording(*args):
        X, block_margins = solve(*args)
        margins.extend(block_margins)
        return X, block_margins

    monkeypatch.setattr(slp_core, "solve_block", recording)
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    out = tmp_path / "x.csv"
    assert main(["run", "--scheme", "SLP_IN_BLOCK", "--block-len", "5", "--snr-db", "30",
                 "--channels", "2", "--out", str(out)]) == 2
    assert len(margins) == 2 * 5
    assert 0 < min(margins) <= power_alloc.MIN_MARGIN
    for trial in (0, 1):
        assert (f"trial discarded (scheme=SLP_IN_BLOCK, snr=30.0 dB, seed=1, trial={trial}): "
                "DegenerateMarginError") in caplog.text
    assert "runtime failure: SolverFailure: every trial failed" in capsys.readouterr().err
    assert not out.exists()


def test_cli_runtime_failure_exit_code(monkeypatch, capsys):
    import slpsim.cli as cli

    def boom(cfg):
        raise RuntimeError("injected solver failure")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert main(["run", "--users", "2", "--antennas", "2"]) == 2
    assert "runtime failure: RuntimeError: injected solver failure" in capsys.readouterr().err
