"""Tests for the command-line interface.

Most tests drive ``main`` in-process for speed; one subprocess test
covers the installed entry point.  The slow oracle battery is stubbed
here and exercised for real by the acceptance suite.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import ramansim
import ramansim.cli as cli
import ramansim.model as model
from ramansim import __version__
from ramansim.crosscheck import N_MAX_LIMIT, BatteryResult
from ramansim.fitting import load_noise_csv
from ramansim.fock import TruncationError
from ramansim.model import closed_form_noise_reduction


def run_cli(*argv):
    return cli.main(list(argv))


def data_rows(text):
    return [
        line for line in text.strip().splitlines()
        if line and not line.startswith("#")
    ]


class TestNoiseScan:
    def test_csv_shape_and_header(self, capsys):
        assert run_cli("noise-scan", "--prep-gain", "1.1", "--points", "16") == 0
        out = capsys.readouterr().out
        assert "# reference_variance_linear = " in out
        rows = data_rows(out)
        assert rows[0] == "phi_rad,variance_linear,variance_db"
        assert len(rows) == 17

    def test_unprepared_input_gives_flat_reference(self, capsys):
        assert run_cli("noise-scan", "--prep-gain", "1", "--readout-gq", "32",
                       "--points", "8") == 0
        out = capsys.readouterr().out
        values = [float(r.split(",")[1]) for r in data_rows(out)[1:]]
        assert values == pytest.approx([32.0] * 8, abs=1e-9)

    def test_deterministic_output_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli("noise-scan", "--prep-gain", "1.1", "--points", "64",
                           "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ("noise-scan", "--prep-gain", "0.5"),
            ("noise-scan", "--points", "1"),
            ("noise-scan", "--loss-stokes", "1.5"),
            ("noise-scan", "--readout-gq", "8", "--readout-gq-db", "9"),
        ],
    )
    def test_usage_errors(self, argv, capsys):
        assert run_cli(*argv) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--readout-gq", "1e300", "readout gain"),
            ("--prep-gain", "1e200", "prep_gain"),
            ("--prep-gain", "1e6", "prep_gain"),
        ],
    )
    def test_huge_gain_is_range_error(self, flag, value, name, recwarn, capsys):
        assert run_cli("noise-scan", flag, value, "--points", "4") == 2
        err = capsys.readouterr().err
        assert f"error: {name} " in err and "is out of range" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_points_limit(self, capsys):
        assert run_cli("noise-scan", "--points", str(cli.MAX_POINTS)) == 0
        assert len(data_rows(capsys.readouterr().out)) == cli.MAX_POINTS + 1
        assert run_cli("noise-scan", "--points", str(cli.MAX_POINTS + 1)) == 2
        assert "points must be within" in capsys.readouterr().err


class TestGainSweep:
    def test_single_point_unprepared_row(self, capsys):
        assert run_cli("gain-sweep", "--sweep", "prep-gain", "--start", "1",
                       "--stop", "1", "--points", "1", "--readout-gq", "32") == 0
        row = data_rows(capsys.readouterr().out)[1].split(",")
        assert float(row[2]) == pytest.approx(1.0, abs=1e-9)

    def test_readout_sweep_matches_closed_form(self, capsys):
        assert run_cli("gain-sweep", "--sweep", "readout-gq", "--start", "2",
                       "--stop", "64", "--points", "5", "--prep-gain", "1.17",
                       "--loss-stokes", "0.1", "--loss-spinwave", "0.1") == 0
        rows = data_rows(capsys.readouterr().out)[1:]
        gq = np.array([float(r.split(",")[1]) for r in rows])
        r_col = np.array([float(r.split(",")[2]) for r in rows])
        assert r_col == pytest.approx(
            closed_form_noise_reduction(1.17, 0.1, 0.1, gq), abs=1e-9
        )

    def test_output_loadable_by_fit(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        assert run_cli("gain-sweep", "--sweep", "readout-gq", "--start", "2",
                       "--stop", "64", "--points", "8", "--prep-gain", "1.3",
                       "--loss-stokes", "0.2", "--loss-spinwave", "0.05",
                       "--out", str(sweep)) == 0
        data = load_noise_csv(str(sweep))
        assert data.n_points == 8
        assert run_cli("fit", str(sweep)) == 0
        report = capsys.readouterr().out
        mu_hat = float(report.split("mu_hat: ")[1].split("\n")[0])
        assert mu_hat == pytest.approx(1.3, abs=1e-5)

    def test_non_harmonic_trace_exit_code(self, monkeypatch, capsys):
        # an anisotropic Stokes block between the stages adds cos(2 phi)
        def anisotropic(sc, mu):
            return None, np.diag([3.0, 1.0, 1.0, 1.0])

        monkeypatch.setattr(model, "_interstage_moments", anisotropic)
        assert run_cli("gain-sweep", "--sweep", "readout-gq", "--points", "2") == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", [("--stop", "inf"), ("--start", "nan"), ("--start=-inf",)])
    def test_non_finite_range_is_usage_error(self, bound, recwarn, capsys):
        assert run_cli("gain-sweep", "--sweep", "readout-gq", *bound) == 2
        assert "start and stop must be finite" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_points_above_limit_is_usage_error(self, capsys):
        assert run_cli("gain-sweep", "--points", str(cli.MAX_POINTS + 1)) == 2
        assert "points must be within" in capsys.readouterr().err

    def test_bad_sweep_name(self, capsys):
        assert run_cli("gain-sweep", "--sweep", "banana") == 2
        assert "sweep" in capsys.readouterr().err


class TestFit:
    @pytest.fixture()
    def sweep_csv(self, tmp_path):
        path = tmp_path / "clean.csv"
        gq = np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        r = closed_form_noise_reduction(1.17, 0.1, 0.1, gq)
        lines = ["gq_linear,R_linear"] + [f"{a},{b}" for a, b in zip(gq, r)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_report_and_csv(self, sweep_csv, tmp_path, capsys):
        out = tmp_path / "fit.csv"
        assert run_cli("fit", str(sweep_csv), "--out", str(out)) == 0
        report = capsys.readouterr().out
        for key in ("mu_hat:", "l1_hat:", "correlation_db:", "projected_grad_norm:"):
            assert key in report
        rows = data_rows(out.read_text())
        assert rows[0].startswith("label,mu_hat,")
        assert rows[1].split(",")[0] == "clean"

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("gq_linear,R_linear\n2.0,0.9\noops,0.7\n")
        assert run_cli("fit", str(bad)) == 2
        assert "line 3" in capsys.readouterr().err

    def test_insufficient_data(self, tmp_path, capsys):
        small = tmp_path / "small.csv"
        small.write_text("gq_linear,R_linear\n2.0,0.9\n4.0,0.8\n8.0,0.7\n")
        assert run_cli("fit", str(small)) == 2

    def test_missing_file(self, capsys):
        assert run_cli("fit", "no-such-file.csv") == 2

    def test_bad_pairing(self, sweep_csv, capsys):
        assert run_cli("fit", str(sweep_csv), "--pairing", "sideways") == 2

    def test_bootstrap_count_validated(self, sweep_csv, capsys):
        assert run_cli("fit", str(sweep_csv), "--bootstrap", "10") == 2

    @pytest.mark.parametrize("mu_max", ["nan", "inf"])
    def test_non_finite_mu_max_exits_2(self, sweep_csv, capsys, mu_max):
        assert run_cli("fit", str(sweep_csv), "--mu-max", mu_max) == 2
        err = capsys.readouterr().err
        assert "mu_max" in err
        assert "Traceback" not in err

    def test_bootstrap_with_shared_loss_is_usage_error(self, sweep_csv, capsys):
        assert run_cli("fit", str(sweep_csv), str(sweep_csv), "--shared-loss",
                       "--bootstrap", "100") == 2
        assert "shared-loss" in capsys.readouterr().err

    def test_nan_cell_exits_2_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        gq = np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        r = closed_form_noise_reduction(1.17, 0.1, 0.1, gq).astype(str)
        r[3] = "nan"
        path.write_text("gq_linear,R_linear\n" + "".join(f"{a},{b}\n" for a, b in zip(gq, r)))
        assert run_cli("fit", str(path)) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestCorrelation:
    def test_from_parameters(self, capsys):
        assert run_cli("correlation", "--prep-gain", "1.17", "--loss-stokes", "0.1",
                       "--loss-spinwave", "0.1") == 0
        out = capsys.readouterr().out
        x_plus = float(out.split("x_plus = ")[1].split("\n")[0])
        db = float(out.split("correlation_db = ")[1].split("\n")[0])
        assert x_plus == pytest.approx(0.7697917240107415, abs=1e-9)
        assert db == pytest.approx(-4.146568, abs=1e-5)

    def test_from_single_ratio(self, capsys):
        assert run_cli("correlation", "--from-ratio", "0.4", "--readout-gq", "32") == 0
        out = capsys.readouterr().out
        assert "x_plus = 0.8\n" in out

    def test_needs_one_mode(self, capsys):
        assert run_cli("correlation") == 2
        assert run_cli("correlation", "--from-ratio", "0.4") == 2

    @pytest.mark.parametrize("ratio", ["inf", "nan", "0", "-0.4"])
    def test_ratio_must_be_positive_and_finite(self, capsys, ratio):
        assert run_cli("correlation", "--from-ratio", ratio, "--readout-gq", "3") == 2
        assert "x_plus" not in capsys.readouterr().out

    def test_large_prep_gain_keeps_precision(self, capsys):
        # X+ = 2/(mu + nu)^2 when lossless; the direct form cancels to 0
        assert run_cli("correlation", "--prep-gain", "1e10") == 0
        out = capsys.readouterr().out
        x_plus = float(out.split("x_plus = ")[1].split("\n")[0])
        assert x_plus == pytest.approx(5e-21, rel=1e-9)

    def test_rejected_run_leaves_no_out_file(self, tmp_path, capsys):
        out = tmp_path / "corr.txt"
        assert run_cli("correlation", "--from-ratio", "inf", "--readout-gq", "3",
                       "--out", str(out)) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_prep_gain_is_range_error(self, capsys):
        assert run_cli("correlation", "--prep-gain", "1e200") == 2
        captured = capsys.readouterr()
        assert "out of range" in captured.err
        assert "x_plus" not in captured.out


class TestFringes:
    def test_csv_and_visibility_comment(self, capsys):
        assert run_cli("fringes", "--prep-gain", "1.5", "--points", "8") == 0
        out = capsys.readouterr().out
        assert "# visibility = " in out
        rows = data_rows(out)
        assert rows[0] == "phi_rad,intensity,background"
        assert len(rows) == 9

    def test_zero_seed_directs_to_noise_scan(self, capsys):
        assert run_cli("fringes", "--seed-amplitude", "0") == 2
        assert "noise-scan" in capsys.readouterr().err

    def test_points_above_limit_is_usage_error(self, capsys):
        assert run_cli("fringes", "--points", str(cli.MAX_POINTS + 1)) == 2
        assert "points must be within" in capsys.readouterr().err

    def test_no_prep_flat_intensity(self, capsys):
        assert run_cli("fringes", "--prep-gain", "1", "--points", "8") == 0
        rows = data_rows(capsys.readouterr().out)[1:]
        intensity = [float(r.split(",")[1]) for r in rows]
        assert max(intensity) - min(intensity) == pytest.approx(0.0, abs=1e-9)


class TestOracleCheck:
    def test_passing_battery(self, monkeypatch, capsys):
        stub = BatteryResult([("a", 1e-9), ("b", 3e-8)], 0.1)
        monkeypatch.setattr(cli, "run_battery", lambda n_max: stub)
        assert run_cli("oracle-check") == 0
        out = capsys.readouterr().out
        assert "a,1e-09" in out
        assert "# status = PASS" in out

    def test_failing_battery(self, monkeypatch, capsys):
        stub = BatteryResult([("bad", 5e-4)], 0.1)
        monkeypatch.setattr(cli, "run_battery", lambda n_max: stub)
        assert run_cli("oracle-check") == 3
        assert "# status = FAIL" in capsys.readouterr().out

    def test_truncation_failure_exit_code(self, monkeypatch, capsys):
        def refuse(n_max):
            raise TruncationError("truncation cap reached")

        monkeypatch.setattr(cli, "run_battery", refuse)
        assert run_cli("oracle-check") == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_truncation_flag_validated(self, capsys):
        assert run_cli("oracle-check", "--truncation", "1") == 2

    def test_truncation_capped_at_doubling_limit(self, monkeypatch, capsys):
        seen = []
        stub = BatteryResult([("a", 1e-9)], 0.1)
        monkeypatch.setattr(cli, "run_battery", lambda n_max: seen.append(n_max) or stub)
        assert run_cli("oracle-check", "--truncation", str(N_MAX_LIMIT)) == 0
        assert run_cli("oracle-check", "--truncation", str(N_MAX_LIMIT + 1)) == 2
        assert seen == [N_MAX_LIMIT]
        assert str(N_MAX_LIMIT) in capsys.readouterr().err


class TestConfigFile:
    def test_file_applies_and_flag_wins(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("prep_gain = 1.3\npoints = 4  # inline comment\nloss-stokes = 0.2\n")
        assert run_cli("noise-scan", "--config", str(cfg), "--points", "3") == 0
        out = capsys.readouterr().out
        assert "# prep_gain = 1.3" in out
        assert "# points = 3" in out
        assert "# loss_stokes = 0.2" in out
        assert len(data_rows(out)) == 4

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wavelength = 795\n")
        assert run_cli("noise-scan", "--config", str(cfg)) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run_cli("noise-scan", "--config", "missing.cfg") == 2

    def test_bad_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("points = many\n")
        assert run_cli("noise-scan", "--config", str(cfg)) == 2
        assert "line 1" in capsys.readouterr().err


class TestEntryPoints:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("noise-scan", "--no-such-flag")
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command", ["noise-scan", "gain-sweep", "correlation", "oracle-check", "fringes"]
    )
    def test_seed_only_on_fit(self, command):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--seed", "1")
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv", [("noise-scan", "--prep", "1.2"), ("fit", "data.csv", "--start", "3")]
    )
    def test_flag_prefix_is_not_accepted(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2

    def test_module_invocation(self):
        # the child imports the same package as this test, also when that
        # comes from pytest's pythonpath setting rather than the environment
        src = os.path.dirname(os.path.dirname(ramansim.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )}
        proc = subprocess.run(
            [sys.executable, "-m", "ramansim.cli", "--version"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout
