"""Tests for the command-line interface.

Most tests drive ``main`` in-process for speed; one subprocess test
covers the installed entry point.  The slow oracle battery is stubbed
here and exercised for real by the acceptance suite.
"""

import argparse
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ramansim
import ramansim.cli as cli
import ramansim.crosscheck as crosscheck
import ramansim.fock as fock
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


def write_sweep(path, mu, l1, l2):
    """A noiseless readout-gain sweep of the closed form, as fit reads it."""
    gq = np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
    r = closed_form_noise_reduction(mu, l1, l2, gq)
    lines = ["gq_linear,R_linear"] + [f"{a},{b}" for a, b in zip(gq, r)]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def sweep_csv(tmp_path):
    return write_sweep(tmp_path / "clean.csv", 1.17, 0.1, 0.1)


@pytest.mark.parametrize(
    "argv, key",
    [
        (("noise-scan", "--prep-gain", "0.5"), "prep_gain"),
        (("noise-scan", "--prep-gain", "nan"), "prep_gain"),
        (("fringes", "--prep-gain", "0.5"), "prep_gain"),
        (("fringes", "--prep-gain", "nan"), "prep_gain"),
        (("gain-sweep", "--sweep", "readout-gq", "--prep-gain", "0.5"), "prep_gain"),
        (("gain-sweep", "--sweep", "readout-gq", "--prep-gain", "nan"), "prep_gain"),
        (("correlation", "--prep-gain", "0.5"), "prep_gain"),
        (("noise-scan", "--loss-spinwave", "-0.1"), "loss_spinwave"),
        (("noise-scan", "--loss-spinwave", "nan"), "loss_spinwave"),
        (("noise-scan", "--output-loss", "2"), "output_loss"),
        (("noise-scan", "--readout-gq", "0.5"), "readout_gq"),
        (("noise-scan", "--readout-gq", "nan"), "readout_gq"),
        (("correlation", "--from-ratio", "0.4", "--readout-gq", "0.5"), "readout_gq"),
        (("fit", "{csv}", "--bootstrap", "100", "--seed", "-1"), "seed"),
        (("fit", "{csv}", "--mu-max", "1"), "mu_max"),
        (("noise-scan", "--readout-gq-db", "1e300"), "readout_gq_db"),
        (("gain-sweep", "--readout-gq-db", "1e300"), "readout_gq_db"),
        (("fringes", "--readout-gq-db", "1e300"), "readout_gq_db"),
        (("correlation", "--from-ratio", "0.4", "--readout-gq-db", "1e300"), "readout_gq_db"),
        (("fringes", "--seed-amplitude", "1e160"), "seed_amplitude"),
    ],
)
def test_model_rejection_names_the_key(argv, key, sweep_csv, recwarn, capsys):
    argv = [str(sweep_csv) if a == "{csv}" else a for a in argv]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert key in err or key.replace("_", "-") in err
    assert "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def extreme_argv(command, key, value, csv):
    """``command`` with ``key`` set to ``value`` and the other flags that
    make ``key`` take effect."""
    argv = [command, f"--{key.replace('_', '-')}={value}"]
    if command == "fit":
        return argv + [csv]
    if command != "correlation":
        sweep = ["--sweep", "readout-gq"] if (command, key) == ("gain-sweep", "prep_gain") else []
        return argv + sweep + ["--points", "4"]
    if key.startswith("readout"):
        return argv + ["--from-ratio", "0.4"]
    if key == "from_ratio":
        return argv + ["--readout-gq", "3"]
    return argv if key == "prep_gain" else argv + ["--prep-gain", "1.2"]


@pytest.mark.parametrize("value", ["1e300", "-1e300", "inf", "-inf", "nan"])
@pytest.mark.parametrize("command, key", [
    (command, key) for command, schema in cli._SCHEMAS.items()
    for key, (conv, _) in schema.items() if conv is float
])
def test_float_flag_extremes_exit_cleanly(command, key, value, sweep_csv, tmp_path, capsys):
    """Every float flag at extreme values ends in exit 0, 2 or 3 and no
    exception; a RuntimeWarning is an error under the test settings."""
    argv = extreme_argv(command, key, value, str(sweep_csv))
    assert run_cli(*argv, "--out", str(tmp_path / "out")) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


#: (argv that selects a mode, that mode as the error names it, a key the
#: mode does not read, a value for it)
UNREAD_CASES = [
    (("gain-sweep", "--sweep", "prep-gain"), "with sweep = prep-gain", "prep_gain", "1.3"),
    (("gain-sweep", "--sweep", "readout-gq"), "with sweep = readout-gq", "readout_gq", "3"),
    (("gain-sweep", "--sweep", "readout-gq"), "with sweep = readout-gq", "readout_gq_db", "20"),
    *[(("correlation", "--from-ratio", "0.4", "--readout-gq", "3"), "with from_ratio", key, "0.3")
      for key in ("prep_gain", "loss_stokes", "loss_spinwave")],
    *[(("correlation", "--prep-gain", "1.2"), "without from_ratio", key, value)
      for key, value in (("readout_gq", "3"), ("readout_gq_db", "20"))],
    *[(("fit", "{csv}", "--shared-loss"), "with shared_loss", key, value)
      for key, value in (("seed", "5"), ("bootstrap", "100"))],
    (("fit", "{csv}"), "without bootstrap", "seed", "5"),
]


def unread_ids():
    """``command:key``, with the mode too where that pair came before."""
    seen, ids = set(), []
    for argv, mode, key, _ in UNREAD_CASES:
        ids.append(f"{argv[0]} {mode}:{key}" if (argv[0], key) in seen else f"{argv[0]}:{key}")
        seen.add((argv[0], key))
    return ids


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("argv, mode, key, value", UNREAD_CASES, ids=unread_ids())
def test_unread_key_is_rejected(argv, mode, key, value, source, sweep_csv, tmp_path, capsys):
    """A key that the chosen mode does not read, set by a flag or by the
    config file, exits 2 naming the key and the mode, and writes nothing;
    unset, the '#' header leaves it out."""
    argv = [str(sweep_csv) if a == "{csv}" else a for a in argv]
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert key not in "".join(line for line in out.read_text().splitlines(True) if line[0] == "#")
    out.unlink()
    if source == "flag":
        extra = (f"--{key.replace('_', '-')}", value)
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        extra = ("--config", str(cfg))
    assert run_cli(*argv, *extra, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: {argv[0]} {mode} does not read {key}\n"
    assert not out.exists()


def test_unread_cases_cover_every_mode():
    # from_ratio is unread only where it is unset
    table = {(command, mode, key) for (command, mode), keys in cli._UNREAD.items()
             for key in keys if key != "from_ratio"}
    assert {(argv[0], mode, key) for argv, mode, key, _ in UNREAD_CASES} == table


def test_row_writer_matches_per_cell_format():
    """The table writer's lines equal the per-cell _fmt join, on random
    floats of every magnitude and on nan, +-inf, -0.0, subnormals and 1e300,
    from float arrays and from a list."""
    rng = np.random.default_rng(412)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2e-308, 1e300, -1e300, 1.0]
    values = np.concatenate([special, rng.normal(size=500) * 10.0 ** rng.uniform(-320, 307, 500)])
    for n_cols in (1, 3, 4):
        cols = [rng.permutation(values) for _ in range(n_cols)]
        fh = io.StringIO()
        cli._write_rows(fh, *cols[:-1], cols[-1].tolist())
        want = "".join(",".join(cli._fmt(x) for x in row) + "\n" for row in zip(*cols))
        assert fh.getvalue() == want


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
            ("--prep-gain", "3000", "prep_gain"),
            ("--prep-gain", "4000", "prep_gain"),
            ("--readout-gq", "2e6", "readout gain"),
        ],
    )
    def test_huge_gain_is_range_error(self, flag, value, name, recwarn, capsys):
        assert run_cli("noise-scan", flag, value, "--points", "4") == 2
        err = capsys.readouterr().err
        assert f"error: {name} " in err and "is out of range" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_sweep_range_error_names_the_typed_quantum_gain(self, capsys):
        """A readout sweep past the bound names the gq the user typed as well
        as the amplitude gain it maps to."""
        argv = ("gain-sweep", "--sweep", "readout-gq", "--start", "2", "--stop", "3e6")
        assert run_cli(*argv, "--points", "3") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: readout gain 1224.7") and "quantum noise gain 3e+06" in err

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

    @pytest.mark.parametrize(
        "sweep, extra, ignored",
        [
            ("prep-gain", ("--prep-gain", "0.5"), ("prep_gain",)),
            ("readout-gq", ("--readout-gq", "0.5"), ("readout_gq", "readout_gq_db")),
        ],
    )
    def test_echo_leaves_out_ignored_keys(self, sweep, extra, ignored, tmp_path, capsys):
        """The header leaves out the keys the sweep ignores; setting one is
        rejected before the output is opened."""
        assert run_cli("gain-sweep", "--sweep", sweep, "--points", "3") == 0
        out = capsys.readouterr().out
        echoed = {line.split(" = ")[0][2:] for line in out.splitlines() if " = " in line}
        assert echoed.isdisjoint(ignored)
        assert {"loss_stokes", "points", "sweep"} <= echoed
        path = tmp_path / "sweep.csv"
        assert run_cli("gain-sweep", "--sweep", sweep, "--points", "3", *extra,
                       "--out", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ignored[0] in err and f"sweep = {sweep}" in err
        assert not path.exists()


class TestFit:
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

    def test_bootstrap_count_validated(self, sweep_csv, capsys):
        assert run_cli("fit", str(sweep_csv), "--bootstrap", "10") == 2

    @pytest.mark.parametrize("mu_max", ["nan", "inf"])
    def test_non_finite_mu_max_exits_2(self, sweep_csv, capsys, mu_max):
        assert run_cli("fit", str(sweep_csv), "--mu-max", mu_max) == 2
        err = capsys.readouterr().err
        assert "mu_max" in err
        assert "Traceback" not in err

    def test_huge_mu_max_on_boundary_data_exits_2(self, tmp_path, capsys):
        """R == 1 leaves the box, so the fit polishes; at --mu-max 1e300 that
        once ended in an OverflowError traceback."""
        flat = write_sweep(tmp_path / "flat.csv", 1.0, 0.0, 0.0)
        assert run_cli("fit", str(flat), "--mu-max", "1e300") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mu_max") and "Traceback" not in err

    def test_negative_seed_exits_2(self, sweep_csv, capsys):
        assert run_cli("fit", str(sweep_csv), "--seed", "-1") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err
        assert "Traceback" not in err

    def test_bootstrap_with_shared_loss_is_usage_error(self, sweep_csv, capsys):
        assert run_cli("fit", str(sweep_csv), str(sweep_csv), "--shared-loss",
                       "--bootstrap", "100") == 2
        assert capsys.readouterr().err == "error: fit with shared_loss does not read bootstrap\n"

    def test_bootstrap_report_matches_csv(self, sweep_csv, tmp_path, capsys):
        out = tmp_path / "fit.csv"
        assert run_cli("fit", str(sweep_csv), "--bootstrap", "100", "--out", str(out)) == 0
        report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines() if line)
        lo, hi = report["correlation_db_ci_95"].strip("[]").split(", ")
        assert float(lo) <= float(hi)
        header, row = (line.split(",") for line in data_rows(out.read_text()))
        assert row[header.index("correlation_db_ci_lo")] == lo
        assert row[header.index("correlation_db_ci_hi")] == hi
        assert report["bootstrap_failures"] == "0/100"
        for name in ("mu", "l1", "l2"):
            assert len(report[f"covariance_{name}"].split(",")) == 3

    def test_bootstrap_with_most_refits_failing_exits_3(self, tmp_path, capsys):
        """R alternating 1.05, 0.95 on criterion 6's gains: 82 of 100 refits
        fail, so the bootstrap refuses to report an uncertainty."""
        zigzag = tmp_path / "zigzag.csv"
        gq = [2, 4, 8, 12, 16, 24, 32, 64]
        zigzag.write_text("gq_linear,R_linear\n" + "".join(
            f"{g},{1.05 if i % 2 == 0 else 0.95}\n" for i, g in enumerate(gq)))
        assert run_cli("fit", str(zigzag), "--bootstrap", "100") == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: 82/100 bootstrap refits failed; uncertainty not trustworthy\n"

    def test_shared_loss_report_and_csv(self, tmp_path, capsys):
        a = write_sweep(tmp_path / "a.csv", 1.17, 0.1, 0.2)
        b = write_sweep(tmp_path / "b.csv", 1.3, 0.1, 0.2)
        out = tmp_path / "fit.csv"
        assert run_cli("fit", str(a), str(b), "--shared-loss", "--out", str(out)) == 0
        blocks = [dict(line.split(": ", 1) for line in block.splitlines())
                  for block in capsys.readouterr().out.strip().split("\n\n")]
        assert [block["dataset"] for block in blocks] == ["a", "b"]
        for key in ("l1_hat", "l2_hat"):
            assert blocks[0][key] == blocks[1][key]
        header, *rows = (line.split(",") for line in data_rows(out.read_text()))
        assert [row[0] for row in rows] == ["a", "b"]
        assert all(row[-2:] == ["", ""] for row in rows)
        assert header[-2:] == ["correlation_db_ci_lo", "correlation_db_ci_hi"]

    def test_shared_loss_with_one_csv_is_the_single_fit(self, sweep_csv, tmp_path, capsys):
        outputs = []
        for extra in ((), ("--shared-loss",)):
            out = tmp_path / "fit.csv"
            assert run_cli("fit", str(sweep_csv), *extra, "--out", str(out)) == 0
            outputs.append((capsys.readouterr().out, out.read_text().splitlines()))
        (plain_report, plain), (shared_report, shared) = outputs
        assert plain_report == shared_report
        unread = ("# bootstrap = 0",)  # left out with shared_loss; seed is left out of both
        assert [line for line in plain if line not in unread] == [
            line.replace("# shared_loss = true", "# shared_loss = false") for line in shared
        ]

    def test_empty_out_path_exits_2(self, sweep_csv, capsys):
        assert run_cli("fit", str(sweep_csv), "--out", "") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_bad_out_path_prints_no_report(self, sweep_csv, tmp_path, capsys):
        assert run_cli("fit", str(sweep_csv), "--out", str(tmp_path / "missing" / "f.csv")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "No such file" in captured.err

    def test_pairing_is_not_an_option(self, sweep_csv, tmp_path, capsys):
        """Swapped-pairing data are fit as they are and read with the losses
        exchanged, so the fit takes no pairing."""
        with pytest.raises(SystemExit) as exc:
            run_cli("fit", str(sweep_csv), "--pairing", "swapped")
        assert exc.value.code == 2
        (tmp_path / "swapped.cfg").write_text("pairing = swapped\n")
        assert run_cli("fit", str(sweep_csv), "--config", str(tmp_path / "swapped.cfg")) == 2
        err = capsys.readouterr().err
        assert "unknown key 'pairing'" in err
        assert "Traceback" not in err

    def test_shared_loss_from_config_file(self, tmp_path, capsys):
        a = write_sweep(tmp_path / "a.csv", 1.17, 0.1, 0.2)
        b = write_sweep(tmp_path / "b.csv", 1.3, 0.1, 0.2)
        outputs = []
        for extra in (("--shared-loss",), ("--config", str(tmp_path / "yes.cfg"))):
            (tmp_path / "yes.cfg").write_text("shared_loss = yes\n")
            out = tmp_path / "fit.csv"
            assert run_cli("fit", str(a), str(b), *extra, "--out", str(out)) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1]
        (tmp_path / "no.cfg").write_text("shared_loss = no\n")
        for extra in ((), ("--config", str(tmp_path / "no.cfg"))):
            assert run_cli("fit", str(a), str(b), *extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[2] == outputs[3] != outputs[0][0]  # "no" is the default: separate fits
        (tmp_path / "maybe.cfg").write_text("# fit options\nshared_loss = maybe\n")
        assert run_cli("fit", str(a), str(b), "--config", str(tmp_path / "maybe.cfg")) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "maybe" in err

    @pytest.mark.parametrize(
        "sigma", [[1e-300] + [0.01] * 4, [1e-200] * 5], ids=["one-tiny", "all-tiny"]
    )
    def test_tiny_sigma_ends_without_traceback(self, tmp_path, sigma):
        """A sigma whose 1/sigma^2 overflows once hung LAPACK inside the
        fit, which no in-process test can interrupt: run it in a child
        with a time limit."""
        path = tmp_path / "tiny.csv"
        gq = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
        r = closed_form_noise_reduction(1.17, 0.1, 0.1, gq)
        path.write_text("gq_linear,R_linear,sigma\n" + "".join(
            f"{a},{b},{c}\n" for a, b, c in zip(gq, r, sigma)))
        proc = run_module("fit", str(path), timeout=60)
        assert proc.returncode in (0, 2, 3), proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        if proc.returncode:
            assert "sigma" in proc.stderr.splitlines()[-1]

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

    def test_ratio_with_prep_gain_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "prep.cfg"
        cfg.write_text("prep_gain = 1.2\n")
        for extra in (("--prep-gain", "1.2", "--loss-stokes", "0.3"), ("--config", str(cfg))):
            assert run_cli("correlation", "--from-ratio", "0.4", "--readout-gq", "3", *extra) == 2
            captured = capsys.readouterr()
            assert "prep_gain" in captured.err and "from_ratio" in captured.err
            assert "x_plus" not in captured.out

    @pytest.mark.parametrize(
        "argv, echoed",
        [  # (the run, a flag its estimate does not read)
            ((("--from-ratio", "0.4", "--readout-gq", "3"), ("--loss-spinwave", "0.2")),
             {"from_ratio", "readout_gq", "readout_gq_db"}),
            ((("--prep-gain", "1.17", "--loss-stokes", "0.1"), ("--readout-gq", "3")),
             {"prep_gain", "loss_stokes", "loss_spinwave"}),
        ],
    )
    def test_echo_leaves_out_ignored_keys(self, argv, echoed, tmp_path, capsys):
        """The header echoes the keys the estimate reads; setting one that
        it does not read is rejected before the output is opened."""
        run, unread = argv
        assert run_cli("correlation", *run) == 0
        out = capsys.readouterr().out
        assert {line.split(" = ")[0][2:] for line in out.splitlines() if line.startswith("# ")
                and " = " in line} == echoed
        path = tmp_path / "corr.txt"
        assert run_cli("correlation", *run, *unread, "--out", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and unread[0][2:].replace("-", "_") in err
        assert not path.exists()


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
        monkeypatch.setattr(crosscheck, "run_battery", lambda battery, n_max: stub)
        assert run_cli("oracle-check") == 0
        out = capsys.readouterr().out
        assert "a,1e-09" in out
        assert "# status = PASS" in out

    def test_failing_battery(self, monkeypatch, capsys):
        stub = BatteryResult([("bad", 5e-4)], 0.1)
        monkeypatch.setattr(crosscheck, "run_battery", lambda battery, n_max: stub)
        assert run_cli("oracle-check") == 3
        assert "# status = FAIL" in capsys.readouterr().out

    def test_truncation_failure_exit_code(self, monkeypatch, capsys):
        def refuse(battery, n_max):
            raise TruncationError("truncation cap reached")

        monkeypatch.setattr(crosscheck, "run_battery", refuse)
        assert run_cli("oracle-check") == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_nan_oracle_variance_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(fock, "quadrature_variance", lambda state, mode: np.nan)
        assert run_cli("oracle-check") == 3
        out = capsys.readouterr().out
        assert "# max_deviation = nan" in out and "# status = FAIL" in out

    def test_norm_drift_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(fock, "NORM_TOL", -1.0)  # every unitary now drifts
        assert run_cli("oracle-check") == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "drifted the norm" in err
        assert "Traceback" not in err

    def test_runs_the_paper_battery_too(self, capsys):
        """The real batteries: the standard one, then the paper one at
        readout gain 15 dB, in one CSV under one PASS/FAIL rule."""
        assert run_cli("oracle-check") == 0
        rows = data_rows(capsys.readouterr().out)[1:]
        names = [row.split(",")[0] for row in rows]
        assert names == [name for name, _ in crosscheck.standard_battery() + crosscheck.paper_battery()]
        paper = [row for row in rows if row.startswith("mu1.17+gq32_")]
        assert len(paper) == 3
        assert all(float(row.split(",")[1]) < crosscheck.AGREEMENT_TOL for row in paper)

    def test_truncation_flag_validated(self, capsys):
        assert run_cli("oracle-check", "--truncation", "1") == 2

    def test_truncation_capped_at_doubling_limit(self, monkeypatch, capsys):
        # the real battery: the oracle refuses the truncation before any Fock step
        assert run_cli("oracle-check", "--truncation", str(N_MAX_LIMIT + 1)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: truncation") and str(N_MAX_LIMIT) in err
        seen = []
        stub = BatteryResult([("a", 1e-9)], 0.1)
        monkeypatch.setattr(
            crosscheck, "run_battery", lambda battery, n_max: seen.append(n_max) or stub
        )
        assert run_cli("oracle-check", "--truncation", str(N_MAX_LIMIT)) == 0
        assert seen == [N_MAX_LIMIT, N_MAX_LIMIT]  # the standard battery, then the paper one

    def test_paper_battery_starts_at_the_cap(self, capsys):
        """The real batteries at the lowest truncation: the standard one
        doubles from 2, the paper one starts at the cap, where it passes."""
        assert run_cli("oracle-check", "--truncation", "2") == 0
        out = capsys.readouterr().out
        assert f"# start_truncation = standard 2, paper {N_MAX_LIMIT}\n" in out
        assert "# status = PASS" in out


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
        cfg.write_text("# scan\npoints 4\n")
        assert run_cli("noise-scan", "--config", str(cfg)) == 2
        assert "line 2: expected 'key = value'" in capsys.readouterr().err


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
        proc = run_module("--version")
        assert proc.returncode == 0
        assert __version__ in proc.stdout


def run_module(*argv, timeout=None):
    """``python -m ramansim.cli argv`` in a fresh interpreter."""
    return run_python("-m", "ramansim.cli", *argv, timeout=timeout)


def run_python(*args, timeout=None):
    """``python args`` in a fresh interpreter that imports this package."""
    # the child imports the same package as this test, also when that
    # comes from pytest's pythonpath setting rather than the environment
    src = os.path.dirname(os.path.dirname(ramansim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


#: (edge values, typical values) of every flag, by converter
FUZZ_EDGES = ["", "nan", "inf", "-inf", "-0", "1e300", "-1e300", "1e-300", "0x10", "-1", "0"]
FUZZ_VALUES = {
    float: (FUZZ_EDGES + ["1"], ["0.1", "0.5", "1.17", "3", "20"]),
    int: (FUZZ_EDGES + ["1.5", "4097", "161"], ["2", "4", "16", "100"]),
    str: (["", "nan"], ["prep-gain", "readout-gq"]),
    cli._parse_bool: (["", "2"], ["true", "false"]),
}
#: the flags that select a mode, one set drawn per case
FUZZ_MODES = {"correlation": (["--prep-gain=1.17"], ["--from-ratio=0.4", "--readout-gq=3"]),
              "gain-sweep": (["--sweep=prep-gain"], ["--sweep=readout-gq"])}
#: cases per subcommand; oracle-check runs its batteries in up to ~1 s
FUZZ_CASES = {command: 30 for command in cli._COMMANDS} | {"oracle-check": 4}

#: runs each argv of the JSON list in argv[1] through cli.main, with
#: RuntimeWarning an error, and prints [exit code or traceback, stderr] per case
FUZZ_CHILD = """
import contextlib, io, json, sys, traceback, warnings
warnings.simplefilter("error", RuntimeWarning)
from ramansim import cli
results = []
for argv in json.load(open(sys.argv[1])):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
        except BaseException:
            code = traceback.format_exc()
    results.append([code, err.getvalue()])
json.dump(results, sys.stdout)
"""


def fuzz_csv(rng, path):
    """A fit CSV: 1-16 points, gq up to 1e300, R from the closed form with
    0-10% noise, and half the time a sigma column down to 1e-300."""
    n = int(rng.integers(1, 17))
    gq = 10.0 ** rng.uniform(0.0, rng.choice([2.0, 300.0]), n)
    r = closed_form_noise_reduction(1.0 + rng.exponential(0.3), *rng.uniform(0.0, 0.6, 2), gq)
    r = r * (1.0 + rng.choice([0.0, 0.01, 0.1]) * rng.standard_normal(n))
    rows = [gq, r]
    if rng.random() < 0.5:
        rows.append(np.abs(r) * 10.0 ** -rng.choice([1.0, 2.0, 3.0, 300.0], n))
    header = "gq_linear,R_linear" + (",sigma" if len(rows) == 3 else "")
    path.write_text("\n".join([header] + [",".join(str(float(x)) for x in row) for row in zip(*rows)]) + "\n")
    return str(path)


def fuzz_cases(rng, tmp_path):
    """Seeded argv lists for every subcommand: a few of its flags, each at an
    edge value 30% of the time and else at a typical one, set by flag or by
    config file, and --out at stdout, a file, '' or a missing directory."""
    cases = []
    for command, count in FUZZ_CASES.items():
        schema = cli._SCHEMAS[command]
        for k in range(count):
            modes = FUZZ_MODES.get(command, ([],))
            argv = [command, *modes[rng.integers(len(modes))]]
            if command == "fit":
                argv += [fuzz_csv(rng, tmp_path / f"fit{k}-{j}.csv")
                         for j in range(int(rng.integers(1, 3)))]
            keys = rng.choice(list(schema), size=min(len(schema), int(rng.integers(0, 4))),
                              replace=False)
            values = {key: str(rng.choice(FUZZ_VALUES[schema[key][0]][rng.random() < 0.7]))
                      for key in keys}  # index 1, typical, 70% of the time
            if values and rng.random() < 0.25:
                cfg = tmp_path / f"{command}{k}.cfg"
                cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
                argv += ["--config", str(cfg)]
            else:
                for key, value in values.items():
                    flag = "--" + key.replace("_", "-")
                    # a bool flag takes no value
                    argv.append(flag if schema[key][0] is cli._parse_bool else f"{flag}={value}")
            out = rng.choice(["stdout", "file", "", "missing"], p=[0.45, 0.35, 0.1, 0.1])
            if out != "stdout":
                argv.append("--out=" + {"file": str(tmp_path / "out.csv"), "": "",
                                        "missing": str(tmp_path / "missing" / "out.csv")}[out])
            cases.append(argv)
    return cases


def test_fuzzed_argv_exit_cleanly(tmp_path):
    """Seeded argv for every subcommand end in exit 0, 2 or 3, without a
    traceback or a RuntimeWarning.  One child process runs the whole
    batch under a time limit, because a hang inside LAPACK cannot be
    interrupted in-process."""
    cases = fuzz_cases(np.random.default_rng(0), tmp_path)
    assert len(cases) <= 200
    path = tmp_path / "cases.json"
    path.write_text(json.dumps(cases))
    proc = run_python("-c", FUZZ_CHILD, str(path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    bad = [(argv, code, err) for argv, (code, err) in zip(cases, json.loads(proc.stdout))
           if code not in (0, 2, 3) or "Traceback" in err]
    assert not bad, bad[:3]


#: README examples, with --points 16
README_RUNS = (
    ("noise-scan", "--prep-gain", "1.1", "--readout-gq-db", "15", "--points", "16"),
    ("gain-sweep", "--sweep", "readout-gq", "--start", "2", "--stop", "64", "--points", "16",
     "--prep-gain", "1.17", "--loss-stokes", "0.1", "--loss-spinwave", "0.1"),
    ("fringes", "--seed-amplitude", "2", "--prep-gain", "1.5", "--points", "16"),
)


class TestParserReuse:
    """``main`` reuses one parser per process; nothing a run does to it may
    change what a later run parses, prints or writes."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_rejected_runs_leave_no_trace(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        scan = ("noise-scan", "--prep-gain", "1.1", "--points", "16")
        assert run_cli(*scan, "--out", str(a)) == 0
        for argv, code in ((("fringes", "--seed", "3"), 2), (("noise-scan", "--help"), 0)):
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            assert exc.value.code == code
        assert run_cli("noise-scan", "--loss-stokes", "1.5") == 2
        assert run_cli(*scan, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", [None, *cli._COMMANDS])
    def test_help_matches_a_fresh_parser(self, command, capsys):
        argv = [command, "--help"] if command else ["--help"]
        texts = []
        for parse in (cli.main, cli.build_parser.__wrapped__().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] != ""

    def test_one_process_matches_fresh_processes(self, tmp_path):
        def out(argv, run):
            return tmp_path / f"{argv[0]}-{run}.csv"

        for round_ in (1, 2):
            for argv in README_RUNS:
                assert run_cli(*argv, "--out", str(out(argv, round_))) == 0
        for argv in README_RUNS:
            proc = run_module(*argv, "--out", str(out(argv, "fresh")))
            assert proc.returncode == 0, proc.stderr
            fresh = out(argv, "fresh").read_bytes()
            assert out(argv, 1).read_bytes() == out(argv, 2).read_bytes() == fresh


def readme_commands():
    """The ``ramansim`` lines of the README's command-line usage block,
    with backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command-line usage", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("ramansim ")]


#: the committed noisy sweep that the README's fit example reads
NOISY_SWEEP = Path(__file__).resolve().parents[1] / "data" / "noisy-sweep.csv"


@pytest.fixture()
def readme_dir(tmp_path, monkeypatch):
    """A working directory holding the README's data files, as a checkout does."""
    shutil.copytree(NOISY_SWEEP.parent, tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_readme_command_block_runs(readme_dir, capsys):
    """Every command of the README block exits 0, in order, in one directory."""
    commands = readme_commands()
    assert [argv[0] for argv in commands] == list(cli._COMMANDS)
    for argv in commands:
        assert run_cli(*argv) == 0, (argv, capsys.readouterr().err)


def test_ci_console_step_runs_the_readme_block():
    """CI's console-script step runs ``--version`` and then the README's
    command block as written, in order, through the installed entry point."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    step = workflow.read_text().split("- name: Console script", 1)[1].split("- name:", 1)[0]
    lines = [line.strip() for line in step.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("ramansim ")]
    assert commands == [["--version"]] + readme_commands()


def test_readme_fit_example_has_a_nonzero_interval(readme_dir, capsys):
    """The README's ``fit --bootstrap`` example reads noisy data, so its
    95% interval has a width (a noiseless sweep gives zero width)."""
    (argv,) = [argv for argv in readme_commands() if argv[0] == "fit"]
    assert "--bootstrap" in argv
    assert run_cli(*argv) == 0
    report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines() if line)
    lo, hi = map(float, report["correlation_db_ci_95"].strip("[]").split(", "))
    assert lo < float(report["correlation_db"]) < hi
    assert report["bootstrap_failures"] == "0/200"


def test_noisy_sweep_is_its_stated_draw(tmp_path):
    """data/noisy-sweep.csv is the gain sweep its header names plus the
    noise it states, written to 12 significant digits."""
    header = [line[2:] for line in NOISY_SWEEP.read_text().splitlines() if line.startswith("# ")]
    argv = shlex.split(header[0].split("ramansim ", 1)[1])
    assert "numpy.random.default_rng(2026).normal(0, sigma)" in header[1]
    assert run_cli(*argv, "--out", str(tmp_path / "sweep.csv")) == 0
    clean, noisy = load_noise_csv(str(tmp_path / "sweep.csv")), load_noise_csv(str(NOISY_SWEEP))
    sigma = 0.01 * clean.noise_ratio
    drawn = clean.noise_ratio + np.random.default_rng(2026).normal(0.0, sigma)
    assert np.array_equal(noisy.quantum_gain, clean.quantum_gain)
    assert noisy.sigma == pytest.approx(sigma, rel=1e-11, abs=0.0)
    assert noisy.noise_ratio == pytest.approx(drawn, rel=1e-11, abs=0.0)


def test_fitting_import_leaves_out_the_scipy_optimizer():
    """The fit has its own polish: importing ramansim.fitting loads no
    scipy.optimize, which costs a cold CLI process ~0.4 s."""
    proc = run_python("-c", "import sys, ramansim.fitting; print('scipy.optimize' in sys.modules)",
                      timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_loads_no_scipy():
    """NumPy is the only runtime dependency: importing the CLI and the
    modules its subcommands load on demand, the Fock oracle among them,
    loads no scipy module."""
    proc = run_python("-c", "import sys, ramansim.cli, ramansim.crosscheck, ramansim.fitting; "
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
                      timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_names_only_real_flags():
    """Every ``--flag`` from the README's command-line usage on is accepted
    by some subcommand's parser or by the top-level one."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = text.split("## Command-line usage", 1)[1]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", usage))
    parser = cli.build_parser()
    (subs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = set(parser._option_string_actions).union(
        *(p._option_string_actions for p in subs.choices.values())
    )
    assert named and named <= accepted, sorted(named - accepted)


def test_readme_names_only_real_api():
    """Every ``module.name`` that the README cites in backticks, with or
    without the ``ramansim.`` prefix, resolves, and so does every name in
    ``ramansim.__all__``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = {"gaussian", "fock", "model", "crosscheck", "fitting", "cli"}
    cited = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        path = re.match(r"[A-Za-z_][\w.]*", span)
        parts = path.group().removeprefix("ramansim.").split(".") if path else []
        if len(parts) > 1 and parts[0] in modules:
            cited.add(".".join(parts))
    missing = []
    for dotted in sorted(cited):
        obj = ramansim
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(dotted)
    assert {"gaussian.apply_loss", "model.build_cascade", "cli.main"} <= cited
    assert not missing
    assert not [name for name in ramansim.__all__ if not hasattr(ramansim, name)]
