"""Command-line surface: catalog, verification runs, config, sweeps."""

import csv
import io
import json
import subprocess
import sys

import pytest

from whitneygeo.cli import main, parse_config_text


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestList:
    def test_contains_catalog_entries(self, capsys):
        code, out, _ = _run(["list"], capsys)
        assert code == 0
        for name in ("whitney_c0", "contact_whitney_s", "product_torus"):
            assert name in out

    def test_json_catalog(self, capsys):
        code, out, _ = _run(["list", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert "whitney_cp" in doc
        assert "theta > 0" in doc["whitney_cp"]["params"]


class TestVerify:
    def test_whitney_c0_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = _run(
            [
                "verify", "--case", "whitney_c0", "--n", "2", "--r", "1.0",
                "--resolution", "48", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["classification"] == "WHITNEY_BRANCH"
        assert doc["report_version"] == 2

    def test_theta_zero_is_config_error(self, capsys):
        code, _, err = _run(
            ["verify", "--case", "whitney_cp", "--theta", "0.0"], capsys
        )
        assert code == 2
        assert "theta > 0" in err

    def test_parameter_the_case_does_not_read_is_config_error(self, capsys):
        code, out, err = _run(
            ["verify", "--case", "whitney_c0", "--theta", "0.3"], capsys
        )
        assert code == 2
        assert out == ""
        assert "reads no parameter theta" in err

    def test_negative_seed_is_config_error(self, capsys):
        code, out, err = _run(["verify", "--case", "whitney_c0", "--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert "seed must be at least 0, got -1" in err

    def test_unknown_case_is_config_error(self, capsys):
        code, _, err = _run(["verify", "--case", "nonsense"], capsys)
        assert code == 2

    def test_missing_case_is_config_error(self, capsys):
        code, _, err = _run(["verify"], capsys)
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-8"])
    def test_tolerance_that_disables_checks_is_config_error(self, capsys, value):
        code, out, err = _run(
            ["verify", "--case", "whitney_c0", "--resolution", "12", f"--tol-integral={value}"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "tolerance integral" in err

    def test_coarse_run_exits_one_on_hard_failure(self, capsys):
        code, out, _ = _run(
            ["verify", "--case", "whitney_c0", "--resolution", "16"], capsys
        )
        assert code == 1

    def test_csv_format(self, capsys):
        code, out, _ = _run(
            [
                "verify", "--case", "product_torus", "--n", "2",
                "--resolution", "16", "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "case"
        assert rows[1][0] == "product_torus"
        assert rows[1][3] == "PARALLEL_BRANCH"


class TestConfig:
    def test_config_file_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "case = product_torus\n"
            "n = 2\n"
            "resolution = 16\n"
            "seed = 5\n"
            "# comment line\n"
            "format = json\n"
        )
        code, out, _ = _run(["verify", "--config", str(cfg)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["resolution"] == 16
        code, out, _ = _run(
            ["verify", "--config", str(cfg), "--resolution", "24"], capsys
        )
        assert json.loads(out)["resolution"] == 24

    def test_config_parser_types(self):
        doc = parse_config_text("theta = 0.25\nn=3\nB = 0.1, -0.2\ncase=whitney_cp")
        assert doc == {
            "theta": 0.25, "n": 3, "B": (0.1, -0.2), "case": "whitney_cp"
        }
        with pytest.raises(ValueError):
            parse_config_text("not a key value line")

    def test_bad_int_names_line_and_key(self):
        with pytest.raises(ValueError, match="config line 1: bad value for 'n'"):
            parse_config_text("n = two\ncase=whitney_c0")

    def test_conformal_accepts_only_booleans(self):
        for word, flag in (("TRUE", True), ("no", False), ("Yes", True), ("0", False)):
            assert parse_config_text(f"conformal = {word}") == {"conformal": flag}
        with pytest.raises(ValueError, match="config line 2: bad value for 'conformal'"):
            parse_config_text("case=whitney_c0\nconformal = ture")

    def test_format_must_be_a_report_format(self, capsys, tmp_path):
        with pytest.raises(ValueError, match="config line 2: bad value for 'format'"):
            parse_config_text("case = product_torus\nformat = xml\n")
        cfg = tmp_path / "xml.cfg"
        cfg.write_text("case = product_torus\nformat = xml\nresolution = 16\n")
        code, out, err = _run(["verify", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "config line 2" in err and "'format'" in err

    def test_unknown_key_is_rejected(self, capsys, tmp_path):
        with pytest.raises(ValueError, match="config line 2: unknown key 'thetaa'"):
            parse_config_text("case = whitney_cp\nthetaa = 0.9\n")
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("case = whitney_cp\nthetaa = 0.9\n")
        code, out, err = _run(["verify", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "thetaa" in err

    def test_effective_config_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        _run(
            [
                "verify", "--case", "product_torus", "--n", "2",
                "--resolution", "16", "--seed", "9", "--out", str(out_path),
            ],
            capsys,
        )
        doc = json.loads(out_path.read_text())
        text = "\n".join(f"{k}={v}" for k, v in doc["effective_config"].items())
        parsed = parse_config_text(text)
        assert parsed["case"] == "product_torus"
        assert parsed["n"] == 2
        assert parsed["resolution"] == 16
        assert parsed["seed"] == 9

    def test_identical_config_byte_identical_report(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = [
            "verify", "--case", "product_torus", "--n", "2",
            "--resolution", "16", "--seed", "3",
        ]
        _run(argv + ["--out", str(a)], capsys)
        _run(argv + ["--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    def test_theta_sweep_csv(self, capsys):
        code, out, err = _run(
            [
                "sweep", "--case", "whitney_cp", "--n", "2",
                "--resolution", "48", "--sweep", "theta=0.4:0.8:2",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "theta"
        assert len(rows) == 3
        for row in rows[1:]:
            assert row[4] == "WHITNEY_BRANCH"
            assert abs(float(row[8])) < 1e-6  # defect column stays near zero

    def test_bad_sweep_argument(self, capsys):
        code, _, err = _run(
            ["sweep", "--case", "whitney_cp", "--sweep", "theta=bad"], capsys
        )
        assert code == 2

    def test_unknown_sweep_parameter(self, capsys):
        code, _, err = _run(
            ["sweep", "--case", "whitney_cp", "--sweep", "resolution=8:16:2"],
            capsys,
        )
        assert code == 2
        assert "'resolution'" in err
        code, _, err = _run(["sweep", "--case", "whitney_c0", "--sweep", "n=1:2:3"], capsys)
        assert code == 2
        assert "unknown sweep parameter 'n'" in err

    def test_conformal_belongs_to_verify_only(self, capsys, tmp_path):
        argv = ["sweep", "--case", "whitney_cp", "--sweep", "theta=0.4:0.8:2"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--conformal"])
        assert exc.value.code == 2
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("conformal = 1\n")
        code, out, err = _run(argv + ["--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "conformal" in err

    def test_format_belongs_to_verify_only(self, capsys, tmp_path):
        # a sweep writes CSV whatever the format says
        argv = ["sweep", "--case", "whitney_cp", "--sweep", "theta=0.4:0.8:2"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "markdown"])
        assert exc.value.code == 2
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("format = markdown\n")
        code, out, err = _run(argv + ["--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "'format'" in err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_empty_sweep_is_rejected(self, capsys, count):
        code, out, err = _run(
            ["sweep", "--case", "whitney_c0", "--sweep", f"r=1:2:{count}"], capsys
        )
        assert code == 2
        assert out == ""
        assert f"r=1:2:{count}" in err and "at least 1" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "whitneygeo.cli", "list"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "whitney_c0" in proc.stdout
