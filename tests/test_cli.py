from __future__ import annotations

import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
from dataclasses import fields

import pytest

import slicefock
from slicefock import FockParams, RunConfig, SliceSeries, write_series
from slicefock.cli import _CONFIG_KEYS, _PARAM_KEYS, _build_config, build_parser, main


@pytest.fixture
def capsysbytes(capsys):
    return capsys


def write_monomial(path, degree):
    write_series(SliceSeries.monomial(degree), str(path))


def test_eval_square_at_i(tmp_path, capsys):
    path = tmp_path / "square.series"
    write_monomial(path, 2)
    assert main(["eval", str(path), "--at", "0 1 0 0"]) == 0
    assert capsys.readouterr().out.strip() == "-1 0 0 0"


def test_eval_constant(tmp_path, capsys):
    path = tmp_path / "one.series"
    write_series(SliceSeries.constant(1.0), str(path))
    assert main(["eval", str(path), "--at", "0.3 -2 0.5 1"]) == 0
    assert capsys.readouterr().out.strip() == "1 0 0 0"


def test_eval_malformed_line_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.series"
    path.write_text("slice-series v1 N=1\n0 1 0 0 0\n1 nope 0 0 0\n")
    assert main(["eval", str(path), "--at", "0 0 0 0"]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err


def test_eval_header_degree_beyond_the_file_exits_2(tmp_path, capsys):
    # a (10^15 + 1, 4) coefficient array would not fit in memory: the
    # header is rejected before anything is allocated
    path = tmp_path / "huge.series"
    path.write_text("slice-series v1 N=1000000000000000\n0 1 0 0 0\n")
    assert main(["eval", str(path), "--at", "0 0 0 0"]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "missing degrees" in err


def test_eval_missing_file_exits_3(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "absent.series"), "--at", "0 0 0 0"]) == 3


def test_eval_bad_point_exits_2(tmp_path, capsys):
    path = tmp_path / "one.series"
    write_series(SliceSeries.constant(1.0), str(path))
    assert main(["eval", str(path), "--at", "0 0 0"]) == 2


def test_norm_command(tmp_path, capsys):
    path = tmp_path / "one.series"
    write_series(SliceSeries.constant(1.0), str(path))
    assert main(["norm", str(path), "--slices", "8"]) == 0
    out = capsys.readouterr().out
    assert "sup-norm" in out and "0.7950600976" in out


def test_kernel_command_zero_weight(capsys):
    assert main(["kernel", "--q", "0.5 0 0 0", "--w", "0 0 0 0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[1] == "1"
    corrected = float(lines[1].split()[1])
    assert corrected == pytest.approx(1.0 / (1.0 - 2.718281828459045 ** -1.0), rel=1e-12)


def test_kernel_command_real_plane(capsys):
    assert main(["kernel", "--q", "0.5 0 0 0", "--w", "0.5 0 0 0",
                 "--domain", "plane", "--radius", "6.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    val = float(lines[0].split()[1])
    assert val == pytest.approx(2.718281828459045 ** 0.25, rel=1e-10)
    diff = float(lines[2].split()[-1])
    assert diff < 1e-7


def test_gram_command(capsys):
    assert main(["gram", "--degree", "6"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("m")
    assert len(out.splitlines()) == 8


def test_gram_has_no_max_degree_option(capsys):
    # --degree alone sizes the table and its printout
    with pytest.raises(SystemExit) as exc:
        main(["gram", "--max-degree", "3"])
    assert exc.value.code == 2
    assert "--max-degree" in capsys.readouterr().err


def test_gram_prints_inf_past_the_float_range(capsys):
    # gamma_171 is about 171! = 1.2e309 on the radius-30 plane, past the largest
    # double: both columns read inf and the gap "-", with no OverflowError, no
    # overflow warning and no nan; below it the relative gap is what gram-oracle bounds
    assert main(["gram", "--domain", "plane", "--radius", "30", "--quad-r", "128",
                 "--degree", "180"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split()[-1] == "rel-gap" and "nan" not in out
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(181))
    assert all(math.isfinite(float(row[1])) and math.isfinite(float(row[2])) for row in rows[:171])
    assert all(float(row[3]) <= 16 * 128 * 2.0 ** -52 for row in rows[:171])
    assert all(row[1:] == ["inf", "inf", "-"] for row in rows[171:])


def test_verify_small_subset_passes(capsys):
    assert main(["verify", "--checks", "quad-calibration,star-assoc"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2 and "FAIL" not in out


def test_verify_unknown_check_exits_2(capsys):
    assert main(["verify", "--checks", "bogus"]) == 2
    assert "unknown check id" in capsys.readouterr().err


def test_verify_empty_checks_exits_0(capsys):
    assert main(["verify", "--checks", ""]) == 0


def test_verify_failing_check_exits_1(capsys):
    assert main(["verify", "--checks", "rep-kernel-plane-r4"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "rep-kernel-plane-r4" in captured.err


def test_verify_list_checks(capsys):
    assert main(["verify", "--list-checks"]) == 0
    out = capsys.readouterr().out
    assert "norm-sandwich" in out and "rep-kernel-plane-r4" in out


def test_verify_writes_byte_identical_reports(tmp_path, capsys):
    args = ["verify", "--checks", "quad-calibration,star-pointwise,split-roundtrip",
            "--seed", "42"]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for suffix in (".json", ".csv"):
        b1 = (tmp_path / ("run1" + suffix)).read_bytes()
        b2 = (tmp_path / ("run2" + suffix)).read_bytes()
        assert b1 == b2
    data = json.loads((tmp_path / "run1.json").read_text())
    assert [d["check_id"] for d in data] == sorted(
        ["quad-calibration", "star-pointwise", "split-roundtrip"])


def test_verify_emit_report_stdout(capsys):
    assert main(["verify", "--checks", "quad-calibration", "--emit-report",
                 "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("check_id,paper_ref,lhs,rhs,constant,margin,pass\n")
    assert captured.err.startswith("PASS quad-calibration")


def test_verify_format_flag_implies_report(tmp_path, capsys):
    # a format without --out prints the report, whether a flag or a config file sets it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=csv\n")

    def read_csv(text):
        return list(csv.DictReader(io.StringIO(text)))

    for extra, parse in ((["--format", "json"], json.loads), (["--config", str(cfg)], read_csv)):
        assert main(["verify", "--checks", "quad-calibration"] + extra) == 0
        captured = capsys.readouterr()
        (rec,) = parse(captured.out)
        assert rec["check_id"] == "quad-calibration"
        assert captured.err.startswith("PASS quad-calibration") and "PASS" not in captured.out


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(slicefock.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "slicefock", "verify", "--checks", "quad-calibration",
         "--emit-report"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (rec,) = json.loads(proc.stdout)
    assert rec["check_id"] == "quad-calibration" and rec["pass"] is True
    assert proc.stderr.startswith("PASS quad-calibration")


def test_verify_unwritable_out_exits_3(tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    os.chmod(blocked, stat.S_IRUSR | stat.S_IXUSR)
    if os.access(str(blocked / "x"), os.W_OK) or os.geteuid() == 0:
        pytest.skip("cannot make an unwritable directory as this user")
    assert main(["verify", "--checks", "quad-calibration",
                 "--out", str(blocked / "report")]) == 3


def test_verify_out_into_missing_directory_exits_3(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "report"
    assert main(["verify", "--checks", "quad-calibration", "--out", str(target)]) == 3


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=1\nchecks=star-pointwise\nalpha=1.0\n# comment line\n")
    assert main(["verify", "--config", str(cfg)]) == 0
    out1 = capsys.readouterr().out
    assert "star-pointwise" in out1 and out1.count("PASS") == 1

    # explicit flag overrides the file's seed; lhs values must differ
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["verify", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["verify", "--config", str(cfg), "--seed", "2", "--out", str(out_b)]) == 0
    la = json.loads((tmp_path / "a.json").read_text())[0]["lhs"]
    lb = json.loads((tmp_path / "b.json").read_text())[0]["lhs"]
    assert la != lb


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("spam=1\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_bad_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=notanint\n")
    assert main(["verify", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--domain", "bogus", "domain must be 'disk' or 'plane'"),
    ("--format", "xml", "format must be 'json' or 'csv'"),
    ("--slices", "3", "n_slices >= 8"),
    ("--quad-theta", "100000000", "exceeds the cap"),
    ("--seed", "-1", "seed must be non-negative"),
    ("--radius", "0.5", "radius must be >= 1"),
])
def test_invalid_setting_exits_2_with_the_config_message(flag, value, message, capsys):
    assert main(["verify", flag, value, "--checks", "quad-calibration"]) == 2
    assert message in capsys.readouterr().err


def test_nonfinite_inputs_exit_2(tmp_path, capsys):
    path = tmp_path / "nan.series"
    path.write_text("slice-series v1 N=1\n0 nan 0 0 0\n1 1 0 0 0\n")
    assert main(["eval", str(path), "--at", "0 0 0 0"]) == 2
    assert "line 2" in capsys.readouterr().err
    one = tmp_path / "one.series"
    write_series(SliceSeries.constant(1.0), str(one))
    assert main(["eval", str(one), "--at", "nan inf 0 0"]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_param_subcommands_share_the_param_keys(tmp_path, capsys):
    assert sorted(_CONFIG_KEYS[key][0] for key in _PARAM_KEYS) == sorted(
        f.name for f in fields(FockParams))
    # the run keys of a shared file are parsed, then dropped: even values verify rejects
    shared = tmp_path / "run.cfg"
    shared.write_text("checks=bogus\nformat=xml\nseed=5\nout=r\nn-series=0\nquad-r=16\n")
    series = tmp_path / "f.series"
    write_monomial(series, 3)
    parser = build_parser()
    for argv in (["norm", str(series)], ["kernel", "--q", "0.5 0.1 0 0", "--w", "0.3 0 0.2 0"],
                 ["gram"]):
        config = _build_config(parser.parse_args(argv + ["--slices", "9",
                                                         "--config", str(shared)]))
        assert type(config) is FockParams
        assert (config.n_r, config.n_slices) == (16, 9)
        assert main(argv + ["--config", str(shared)]) == 0
        from_file = capsys.readouterr().out
        assert main(argv + ["--quad-r", "16"]) == 0
        assert capsys.readouterr().out == from_file
    assert main(["verify", "--config", str(shared)]) == 2
    shared.write_text("seed=notanint\n")
    assert main(["gram", "--config", str(shared)]) == 2
    # the seed decides nothing for norm, kernel or gram, so they take no --seed
    with pytest.raises(SystemExit) as exc:
        main(["norm", "f.series", "--seed", "3"])
    assert exc.value.code == 2


def test_bad_flag_value_exits_2(capsys):
    assert main(["verify", "--alpha", "-3", "--checks", "quad-calibration"]) == 2


@pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--p", "nan"),
                                         ("--p", "inf"), ("--radius", "inf")])
def test_nonfinite_parameter_exits_2(flag, value, capsys):
    assert main(["verify", flag, value, "--checks", "quad-calibration"]) == 2
    assert "must be finite" in capsys.readouterr().err


CONFIG_SAMPLES = {
    "alpha": "0.5", "p": "3", "domain": "plane", "radius": "5", "degree": "7",
    "quad-r": "16", "quad-theta": "32", "slices": "9", "seed": "3", "n-series": "2",
    "checks": "star-assoc, split-roundtrip", "out": "reports/run", "format": "csv",
}


@pytest.mark.parametrize("key", sorted(_CONFIG_KEYS))
def test_config_key_and_verify_flag_build_equal_configs(key, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("%s=%s\n" % (key, CONFIG_SAMPLES[key]))
    parser = build_parser()
    from_file = _build_config(parser.parse_args(["verify", "--config", str(cfg)]))
    from_flag = _build_config(parser.parse_args(["verify", "--" + key, CONFIG_SAMPLES[key]]))
    assert from_file == from_flag != RunConfig()
