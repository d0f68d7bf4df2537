"""Command-line interface: config file handling, subcommands, exit codes."""

import csv
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afcsim
from afcsim.cli import (
    _COMMANDS,
    ConfigError,
    RunConfig,
    canonical_config,
    main,
    parse_config,
    reads,
)
from afcsim.combs import CombShape
from afcsim.propagation import TransferModel
from afcsim.reproduce import TARGETS, Check, TargetReport
from afcsim.sweeps import SweepAxis

FAST_SIM = """
# small grid, broadened comb wide enough to cover it
gamma = 0.005
pair_count = 40
samples = 4096
span_factor = 6.0
k_max = 3
"""


def _write_config(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def _run_child(args: list[str], stdout) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, stdout buffered as by default.

    Its stderr holds whatever the interpreter prints at exit as well.
    """
    src = str(Path(afcsim.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    return subprocess.run(
        [sys.executable, "-m", "afcsim.cli", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


class TestParseConfig:
    def test_defaults_from_empty_text(self):
        assert parse_config("") == RunConfig()

    def test_comments_and_blank_lines(self):
        config = parse_config("# heading\n\nfinesse = 2.0  # trailing note\n")
        assert config.finesse == 2.0

    def test_round_trips_canonical_form(self):
        config = RunConfig(shape="lorentzian", harmonics=None, simulate=False)
        assert parse_config(canonical_config(config)) == config
        assert parse_config(canonical_config(RunConfig())) == RunConfig()

    def test_harmonics_none_keyword(self):
        assert parse_config("harmonics = none").harmonics is None
        assert parse_config("harmonics = 500").harmonics == 500

    @pytest.mark.parametrize(
        ("text", "fragment"),
        [
            ("finesse 5", "line 1: expected key = value"),
            ("depth = 3", "line 1: unknown key 'depth'"),
            ("finesse = 5\nfinesse = 6", "line 2: duplicate key"),
            ("shape = triangle", "line 1: bad value for shape"),
            ("simulate = yes", "line 1: bad value for simulate"),
            ("harmonics = 0", "line 1: bad value for harmonics"),
            (
                "harmonics = 131073",
                "line 1: bad value for harmonics: "
                "harmonics must be in [1, 131072], got 131073",
            ),
            ("samples = many", "line 1: bad value for samples"),
            ("\n\nmodel = exact", "line 3: bad value for model"),
            ("model = ideal-finite", "line 1: bad value for model"),
            ("d_p = nan", "line 1: bad value for d_p"),
            ("finesse = inf", "line 1: bad value for finesse"),
        ],
    )
    def test_rejects_with_line_numbers(self, text, fragment):
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            parse_config(text)


# One strategy per RunConfig field; choice fields draw from their options.
_FIELD_VALUES = {
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "int": st.integers(-(2**40), 2**40),
    "bool": st.booleans(),
    # harmonics, bounded where it is parsed
    "int | None": st.none() | st.integers(1, 2**17),
}
_CHOICES = {
    "shape": [s.value for s in CombShape],
    "model": [m.value for m in TransferModel],
    "sweep_parameter": ["d_p", "finesse", "gamma"],
    "sweep_scale": ["linear", "log"],
    "passes": [1, 2],
}
_FLOAT_KEYS = [f.name for f in fields(RunConfig) if f.type == "float"]


def _field_strategy(field):
    if field.name in _CHOICES:
        return st.sampled_from(_CHOICES[field.name])
    return _FIELD_VALUES[field.type]


class TestConfigProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.fixed_dictionaries(
            {f.name: _field_strategy(f) for f in fields(RunConfig)}
        ).map(lambda values: RunConfig(**values))
    )
    def test_canonical_form_round_trips(self, config):
        assert parse_config(canonical_config(config)) == config

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(_FLOAT_KEYS),
        st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "1e999"]),
    )
    def test_rejects_non_finite_floats(self, key, raw):
        with pytest.raises(ConfigError, match=f"line 1: bad value for {key}:"):
            parse_config(f"{key} = {raw}")


class TestConfigCommand:
    def test_prints_canonical_form(self, capsys):
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        assert out == canonical_config(RunConfig())
        assert parse_config(out) == RunConfig()

    @pytest.mark.parametrize("source", ["config", "readme"])
    def test_default_keys_in_file_order(self, capsys, source):
        if source == "config":
            assert main(["config"]) == 0
            text = capsys.readouterr().out
        else:
            # README.md's config block, comments and blank lines stripped
            readme = (Path(__file__).parents[1] / "README.md").read_text()
            block = readme.split("```\n# comb and medium\n", 1)[1].split("```")[0]
            lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
            text = "".join(f"{line}\n" for line in lines if line)
        assert text == (
            "shape = square\n"
            "finesse = 5.0\n"
            "d_p = 10.0\n"
            "gamma = 0.0\n"
            "pair_count = 9\n"
            "sigma = 5.0\n"
            "samples = 16384\n"
            "span_factor = 4.0\n"
            "model = broadened\n"
            "harmonics = 2000\n"
            "k_max = 8\n"
            "passes = 1\n"
            "mismatch_time = 0.0\n"
            "mismatch_phase = 0.0\n"
            "simulate = true\n"
            "sweep_parameter = d_p\n"
            "sweep_start = 1.0\n"
            "sweep_stop = 40.0\n"
            "sweep_steps = 40\n"
            "sweep_scale = linear\n"
            "sweep_simulate = false\n"
        )

    def test_reflects_config_file(self, tmp_path, capsys):
        path = _write_config(tmp_path, "finesse = 2.0\nharmonics = none\n")
        assert main(["--config", str(path), "config"]) == 0
        out = capsys.readouterr().out
        assert "finesse = 2.0" in out
        assert "harmonics = none" in out


class TestSubcommands:
    def test_spectrum_writes_rows(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "spectrum"]) == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "nu_over_nu0,absorption,dispersion"
        assert len(lines) == 2001
        assert "wrote" in capsys.readouterr().out

    def test_spectrum_physical_units_column(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "--physical", "2e6", "spectrum"]) == 0
        header = (tmp_path / "spectrum.csv").read_text().splitlines()[0]
        assert header.endswith(",frequency_hz")

    @pytest.mark.parametrize(
        ("command", "name", "unit"),
        [
            ("spectrum", "spectrum", ("nu_over_nu0", "frequency_hz", lambda v: v * 2e6)),
            ("transfer", "transfer", ("nu_over_nu0", "frequency_hz", lambda v: v * 2e6)),
            ("propagate", "trace", ("t_over_T", "time_s", lambda v: v / 4e6)),
            ("train", "train", ("arrival_over_T", "arrival_s", lambda v: v / 4e6)),
            ("protocol", "protocol", None),
            ("sweep", "sweep", None),
        ],
        ids=["spectrum", "transfer", "propagate", "train", "protocol", "sweep"],
    )
    def test_physical_adds_one_converted_column(
        self, tmp_path, capsys, command, name, unit
    ):
        # finesse 4.1 at depth 100 leaves echo window 0 without an arrival;
        # spectrum reads no depth, and a sweep sets its own
        depth = "" if command in ("spectrum", "sweep") else "d_p = 100\n"
        path = _write_config(tmp_path, "finesse = 4.1\n" + depth)
        if unit is None:
            # a table without a dimensionless column does not read --physical
            out = tmp_path / "physical"
            argv = ["--config", str(path), "--out", str(out), "--physical", "2e6"]
            assert main([*argv, command]) == 1
            assert capsys.readouterr().err == (
                f"error: --physical = 2000000.0 is not read by {command}\n"
            )
            assert not out.exists()
            return
        tables = {}
        for extra in ([], ["--physical", "2e6"]):
            out = tmp_path / ("physical" if extra else "plain")
            argv = ["--config", str(path), "--out", str(out), *extra, command]
            assert main(argv) == 0
            with (out / f"{name}.csv").open(newline="") as handle:
                header, *rows = csv.reader(handle)
            tables[bool(extra)] = header, rows
        (header, rows), (physical_header, physical_rows) = tables[False], tables[True]
        source, added, convert = unit
        assert physical_header == header + [added]
        assert [row[:-1] for row in physical_rows] == rows
        column = header.index(source)
        for row in physical_rows:
            if row[column] == "":
                assert row[-1] == ""
            else:
                assert float(row[-1]) == convert(float(row[column]))
        if command == "train":
            assert physical_rows[0][column] == physical_rows[0][-1] == ""

    @pytest.mark.parametrize(
        ("command", "extra"),
        [
            ("protocol", ""),
            ("spectrum", ""),
            (
                "sweep",
                "sweep_start = 8.0\nsweep_stop = 12.0\nsweep_steps = 3\n"
                "sweep_simulate = true\n",
            ),
            ("transfer", ""),
            ("propagate", ""),
            ("train", ""),
            ("protocol", "simulate = false\n"),
            ("sweep", ""),
        ],
        ids=[
            "protocol",
            "spectrum",
            "sweep",
            "transfer",
            "propagate",
            "train",
            "protocol-closed",
            "sweep-closed",
        ],
    )
    def test_ideal_model_takes_broadening(self, tmp_path, capsys, command, extra):
        # the ideal model is the periodic comb at the run's gamma
        path = _write_config(tmp_path, "model = ideal\ngamma = 0.01\n" + extra)
        assert main(["--config", str(path), "--out", str(tmp_path), command]) == 0
        assert capsys.readouterr().err == ""
        assert len(list(tmp_path.glob("*.csv"))) == 1

    def test_transfer_grid_rows(self, tmp_path, capsys):
        path = _write_config(tmp_path, "samples = 1024\n")
        assert main(["--config", str(path), "--out", str(tmp_path), "transfer"]) == 0
        lines = (tmp_path / "transfer.csv").read_text().splitlines()
        assert len(lines) == 1025

    def test_train_reports_each_echo(self, tmp_path, capsys):
        path = _write_config(tmp_path, FAST_SIM)
        assert main(["--config", str(path), "--out", str(tmp_path), "train"]) == 0
        out = capsys.readouterr().out
        for k in range(4):
            assert f"k={k} " in out
        lines = (tmp_path / "train.csv").read_text().splitlines()
        assert len(lines) == 5

    def test_propagate_writes_trace(self, tmp_path, capsys):
        path = _write_config(tmp_path, FAST_SIM)
        assert main(["--config", str(path), "--out", str(tmp_path), "propagate"]) == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "t_over_T,re_field,im_field,intensity"
        assert len(lines) > 100

    def test_protocol_without_simulation(self, tmp_path, capsys):
        path = _write_config(tmp_path, "simulate = false\n")
        assert main(["--config", str(path), "--out", str(tmp_path), "protocol"]) == 0
        out = capsys.readouterr().out
        assert "(no simulation)" in out
        lines = (tmp_path / "protocol.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_protocol_two_pass_simulated(self, tmp_path, capsys):
        path = _write_config(tmp_path, FAST_SIM + "passes = 2\n")
        assert main(["--config", str(path), "--out", str(tmp_path), "protocol"]) == 0
        out = capsys.readouterr().out
        assert "two-pass:" in out
        assert "rel=" in out

    @pytest.mark.parametrize(
        ("command", "expected"),
        # only the prompt (k = 0) of the train has a closed value above 0
        [("train", ["0.0", "", "", ""]), ("protocol", [""])],
        ids=["train", "protocol"],
    )
    def test_zero_depth_leaves_rel_error_empty(
        self, tmp_path, capsys, command, expected
    ):
        path = _write_config(tmp_path, FAST_SIM + "d_p = 0.0\n")
        assert main(["--config", str(path), "--out", str(tmp_path), command]) == 0
        out = capsys.readouterr().out
        assert "rel=n/a" in out
        assert "nan" not in out
        text = (tmp_path / f"{command}.csv").read_text()
        assert "nan" not in text
        lines = text.splitlines()
        column = lines[0].split(",").index("rel_error")
        assert [line.split(",")[column] for line in lines[1:]] == expected

    @pytest.mark.parametrize(
        ("command", "extra"),
        [("train", ""), ("protocol", ""), ("protocol", "passes = 2\n")],
        ids=["train", "protocol", "protocol-two-pass"],
    )
    def test_zero_depth_reports_no_echo(self, tmp_path, capsys, command, extra):
        # Without a comb the probe's ringing still reaches about 1.5e-6
        # just past T/2 (4e-6 after a second pass); no window k >= 1
        # holds an echo.
        path = _write_config(
            tmp_path,
            "samples = 4096\nk_max = 3\nd_p = 0.0\n" + extra,
        )
        assert main(["--config", str(path), "--out", str(tmp_path), command]) == 0
        out = capsys.readouterr().out
        lines = (tmp_path / f"{command}.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if command == "train":
            assert rows[0]["intensity"] == "1.0"
            echoes = [(r["intensity"], r["arrival_over_T"]) for r in rows[1:]]
            assert echoes == [("0.0", "")] * 3
        else:
            assert "simulated=0.000000" in out
            assert rows[0]["simulated_efficiency"] == "0.0"

    @pytest.mark.parametrize("command", ["train", "propagate", "sweep", "protocol"])
    def test_protocol_rejects_bad_passes(self, tmp_path, capsys, command):
        # every subcommand refuses the setting before any work, not only
        # the one that reads it
        path = _write_config(tmp_path, "passes = 3\nsimulate = false\n")
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out), command]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: passes must be 1 or 2, got 3\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        ("command", "key", "value"),
        [
            (command, key, value)
            for command in ["spectrum", "transfer", "propagate", "train", "sweep"]
            for key, value in [
                ("passes", "2"),
                ("mismatch_time", "0.1"),
                ("mismatch_phase", "-0.5"),
                ("simulate", "false"),
            ]
            # a sweep reads passes: two passes at each point
            if (command, key) != ("sweep", "passes")
        ],
    )
    def test_protocol_keys_are_refused_where_ignored(
        self, tmp_path, capsys, command, key, value
    ):
        path = _write_config(tmp_path, f"{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out), command]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {key} = {value} is not read by {command}\n"
        assert captured.out == ""
        assert not out.exists()
        # config prints the setting back
        assert main(["--config", str(path), "--out", str(out), "config"]) == 0
        assert f"{key} = {value}\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "setting", ["d_p = 12.0", "finesse = 6.0", "gamma = 0.3"]
    )
    def test_sweep_refuses_the_key_it_sweeps(self, tmp_path, capsys, setting):
        # each point of the sweep sets the swept key, so its value is unread
        key = setting.split()[0]
        path = _write_config(tmp_path, f"{setting}\nsweep_parameter = {key}\n")
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out), "sweep"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {setting} is not read by sweep\n"
        assert captured.out == ""
        assert not out.exists()
        assert main(["--config", str(path), "--out", str(out), "config"]) == 0
        assert f"{setting}\n" in capsys.readouterr().out

    def test_protocol_refuses_a_mismatch_it_would_ignore(self, tmp_path, capsys):
        # a single pass has no recycled path to detune
        path = _write_config(tmp_path, "mismatch_time = 0.3\n")
        assert main(["--config", str(path), "--out", str(tmp_path), "protocol"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: mismatch_time ")
        assert captured.out == ""
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        ("command", "passes"),
        [("protocol", 1), ("protocol", 2), ("train", 1), ("propagate", 1)],
    )
    def test_protocol_needs_first_echo(self, tmp_path, capsys, command, passes):
        # train and propagate read echo 1 through the same recall
        text = FAST_SIM.replace("k_max = 3", "k_max = 0") + f"passes = {passes}\n"
        path = _write_config(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path), command]) == 1
        err = capsys.readouterr().err
        assert err == "error: k_max must be >= 1 to read the first echo, got 0\n"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        ("extra", "warned"),
        [("", False), ("finesse = 20.0\nd_p = 36.0\npasses = 2\n", True)],
        ids=["below-one", "above-one"],
    )
    def test_protocol_warns_above_unity(self, tmp_path, capsys, extra, warned):
        text = FAST_SIM.replace("k_max = 3\n", "") + extra
        path = _write_config(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path), "protocol"]) == 0
        captured = capsys.readouterr()
        assert "closed=" in captured.out
        lines = captured.err.splitlines()
        if warned:
            assert len(lines) == 1
            assert lines[0].startswith("warning: recall efficiency 1.01")
        else:
            assert lines == []

    def test_sweep_warns_above_unity(self, tmp_path, capsys):
        path = _write_config(
            tmp_path,
            "finesse = 10.0\ngamma = 0.005\npair_count = 40\npasses = 2\n",
        )
        assert main(["--config", str(path), "--out", str(tmp_path), "sweep"]) == 0
        captured = capsys.readouterr()
        assert "best d_p=15.16" in captured.out
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: recall efficiency 1.020558 is above 1")

    def test_sweep_writes_rows_and_best(self, tmp_path, capsys):
        path = _write_config(
            tmp_path,
            "finesse = 2.0\nsweep_start = 1.0\nsweep_stop = 10.0\nsweep_steps = 10\n",
        )
        assert main(["--config", str(path), "--out", str(tmp_path), "sweep"]) == 0
        out = capsys.readouterr().out
        assert "best d_p=4" in out
        assert "(refined)" in out
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 11
        assert lines[0] == "d_p,efficiency,i1,i2,i3,status"

    @pytest.mark.parametrize(
        ("start", "extra", "note"),
        [
            # the best of d_p = 8, 10, 12 is interior and refined; that of
            # 12, 14, 16 is at the axis's edge and is not
            (8.0, "", " (refined)"),
            (12.0, "", ""),
            (8.0, "sweep_simulate = true\n", " (refined on the closed form)"),
            (12.0, "sweep_simulate = true\n", " (simulated)"),
        ],
        ids=["closed", "closed-unrefined", "simulated", "simulated-unrefined"],
    )
    def test_sweep_summary_names_its_number(
        self, tmp_path, capsys, start, extra, note
    ):
        axis = f"sweep_start = {start}\nsweep_stop = {start + 4}\nsweep_steps = 3\n"
        path = _write_config(tmp_path, FAST_SIM + axis + extra)
        assert main(["--config", str(path), "--out", str(tmp_path), "sweep"]) == 0
        best = capsys.readouterr().out.splitlines()[0]
        pattern = r"best d_p=\S+ efficiency=\d\.\d{6}" + re.escape(note)
        assert re.fullmatch(pattern, best)
        header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
        assert header == "d_p,efficiency,i1,i2,i3,status"


class TestReproduceCommand:
    def test_listing(self, capsys):
        assert main(["reproduce"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(TARGETS)
        names = [line.split(":", 1)[0] for line in lines]
        assert names == sorted(names)

    def test_unknown_target(self, capsys):
        assert main(["reproduce", "no-such-target"]) == 1
        assert "unknown target" in capsys.readouterr().err

    def test_passing_target(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "reproduce", "harmonic-comb-train"]) == 0
        out = capsys.readouterr().out
        assert "[  ok]" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        ("options", "named"),
        [
            (["--config", "{cfg}"], "d_p = 7.0"),
            (["--physical", "3.7e6"], "--physical = 3700000.0"),
            (["--physical", "3.7e6", "--config", "{cfg}"], "d_p = 7.0"),
        ],
    )
    @pytest.mark.parametrize("target", [[], ["shallow-depth"]])
    def test_settings_are_refused(self, tmp_path, capsys, options, named, target):
        # the targets pin their own settings; a config or --physical would
        # be ignored, so the first setting off its default is named
        path = _write_config(tmp_path, "d_p = 7\npasses = 2\n")
        out = tmp_path / "out"
        argv = [arg.format(cfg=path) for arg in options]
        assert main([*argv, "--out", str(out), "reproduce", *target]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {named} is not read by reproduce\n"
        assert captured.out == ""
        assert not out.exists()

    def test_config_at_defaults_is_accepted(self, tmp_path, capsys):
        path = _write_config(tmp_path, "d_p = 10\nshape = square\n")
        assert main(["--config", str(path), "reproduce"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == len(TARGETS)

    def test_failing_target_exits_two(self, tmp_path, capsys, monkeypatch):
        def broken():
            return (Check("level", value=1.0, expected=2.0, tol=1e-6),), ()

        monkeypatch.setitem(TARGETS, "broken", ("synthetic failure", broken))
        assert main(["--out", str(tmp_path), "reproduce", "broken"]) == 2
        assert "[FAIL]" in capsys.readouterr().out


# A non-default value for every config key, in canonical form.
_PROBES = {
    "shape": "lorentzian",
    "finesse": "6.0",
    "d_p": "12.0",
    "gamma": "0.01",
    "pair_count": "5",
    "sigma": "4.0",
    "samples": "8192",
    "span_factor": "5.0",
    "model": "ideal",
    "harmonics": "500",
    "k_max": "2",
    "passes": "2",
    "mismatch_time": "0.3",
    "mismatch_phase": "0.5",
    "simulate": "false",
    "sweep_parameter": "gamma",
    "sweep_start": "2.0",
    "sweep_stop": "30.0",
    "sweep_steps": "5",
    "sweep_scale": "log",
    "sweep_simulate": "true",
}
# Keys that act only together with another setting.
_NEEDS = {
    "harmonics": {"model": "ideal"},
    "mismatch_time": {"passes": "2"},
    "mismatch_phase": {"passes": "2"},
}


def _contexts(command: str, key: str) -> list[dict[str, str]]:
    """The settings beside ``key`` under which its probe value is run.

    In each the value can act, but for a sweep's axis: a parameter that a
    sweep can vary is run both off the axis and as the axis, whose points
    set it.
    """
    context = dict(_NEEDS.get(key, {}))
    if command != "sweep":
        return [context]
    # a closed-form sweep reads no grid; three points keep it short
    context["sweep_steps"] = "3"
    if not key.startswith("sweep_"):
        context["sweep_simulate"] = "true"
    if key not in SweepAxis.PARAMETERS:
        return [context]
    off = "gamma" if key == RunConfig.sweep_parameter else RunConfig.sweep_parameter
    return [{**context, "sweep_parameter": axis} for axis in (off, key)]


class TestCommandTable:
    """A subcommand reads a setting exactly when the setting changes its output."""

    def test_probes_cover_the_config(self):
        assert list(_PROBES) == [f.name for f in fields(RunConfig)]

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_every_setting_is_read_or_refused(
        self, tmp_path, capsys, monkeypatch, command
    ):
        out = tmp_path / "out"

        def run(settings: dict[str, str]):
            """Exit code, stdout, stderr and the files written, by name."""
            physical = settings.get("--physical")
            extra = [] if physical is None else ["--physical", physical]
            text = "".join(
                f"{key} = {value}\n"
                for key, value in settings.items()
                if key != "--physical"
            )
            path = _write_config(tmp_path, text)
            code = main(["--config", str(path), "--out", str(out), *extra, command])
            captured = capsys.readouterr()
            written = None
            if out.exists():
                written = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
                shutil.rmtree(out)
            return code, captured.out, captured.err, written

        def read(settings: dict[str, str]) -> set[str]:
            config = parse_config(
                "".join(f"{k} = {v}\n" for k, v in settings.items() if k in _PROBES)
            )
            return reads(command, config)

        probes = [*_PROBES.items(), ("--physical", "2000000.0")]
        for key, value in probes:
            if key not in read({key: value}):
                assert run({key: value}) == (
                    1, "", f"error: {key} = {value} is not read by {command}\n", None
                )
        # a short grid keeps each run quick
        cases = [
            (key, value, {"samples": "4096", **context})
            for key, value in probes
            for context in _contexts(command, key)
        ]
        expected = [key in read({**context, key: v}) for key, v, context in cases]
        # Let every setting through: the ones read change the output, and
        # the refused ones would have changed nothing.
        everything = {key for key, _ in probes}
        monkeypatch.setattr(afcsim.cli, "reads", lambda *_: everything)
        baselines = {}
        for (key, value, context), is_read in zip(cases, expected):
            baseline = baselines.get(tuple(context.items())) or run(context)
            baselines[tuple(context.items())] = baseline
            probe = run({**context, key: value})
            assert baseline[0] == probe[0] == 0, (key, context, baseline[2], probe[2])
            assert (probe[1:] != baseline[1:]) == is_read, (key, context)


class TestErrorPaths:
    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--seedless", "config"])
        assert excinfo.value.code == 1

    def test_missing_command_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    def test_unreadable_config(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        assert main(["--config", str(missing), "config"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_bad_config_value_reports_line(self, tmp_path, capsys):
        path = _write_config(tmp_path, "finesse = 5\nshape = comb\n")
        assert main(["--config", str(path), "config"]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["oversample = 16", "sweep_protocol = two-pass", "sweep_refine = false"]
    )
    def test_removed_keys_are_unknown(self, tmp_path, capsys, line):
        # every run zero-pads its time grid 16 times, passes = 2 is the
        # two-pass protocol for sweep as for protocol, and a sweep refines
        # whenever its best ok point is interior
        key = line.split()[0]
        path = _write_config(tmp_path, f"{line}\n")
        out = tmp_path / "out"
        for command in ("transfer", "protocol", "sweep", "config"):
            assert main(["--config", str(path), "--out", str(out), command]) == 1
            assert capsys.readouterr().err == f"error: line 1: unknown key {key!r}\n"
        assert not out.exists()

    def test_tooth_edge_sample_exits_one(self, tmp_path, capsys):
        # the default grid puts a sample on the finesse-4 edge at 1.25
        path = _write_config(tmp_path, "finesse = 4.0\n")
        assert main(["--config", str(path), "--out", str(tmp_path), "train"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: transfer is non-finite")
        assert err.endswith(
            "a sample sits on a sharp tooth edge; change finesse, samples or "
            "span_factor, or use gamma > 0\n"
        )
        assert not (tmp_path / "train.csv").exists()

    @pytest.mark.parametrize(
        ("command", "extra"),
        [
            pytest.param("train", "", id="train"),
            pytest.param("propagate", "", id="propagate"),
            pytest.param("protocol", "", id="protocol"),
            pytest.param("protocol", "passes = 2\n", id="protocol-two-pass"),
        ],
    )
    def test_short_time_window_exits_one(self, tmp_path, capsys, command, extra):
        # echo 8 lies past the 6.4 T window and would alias to negative times
        path = _write_config(tmp_path, "samples = 256\nk_max = 8\n" + extra)
        assert main(["--config", str(path), "--out", str(tmp_path), command]) == 1
        err = capsys.readouterr().err
        assert "too short for echo k_max = 8" in err
        assert "samples" in err and "span_factor" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_short_trace_window_exits_one(self, tmp_path, capsys):
        # echo 6 fits in the 6.4 T window, but the trace runs to 7 T
        path = _write_config(tmp_path, "samples = 256\nk_max = 6\n")
        assert main(["--config", str(path), "--out", str(tmp_path), "propagate"]) == 1
        err = capsys.readouterr().err
        assert "time window ends at 6.4 T" in err
        assert "trace to k_max + 1 = 7 T" in err
        for setting in ("samples", "span_factor", "k_max"):
            assert setting in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["transfer", "propagate", "train", "protocol"])
    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("sigma = -5\n", "sigma must be positive, got -5.0"),
            ("span_factor = -4\n", "span_factor must be finite and positive, got -4.0"),
            # squares of the pulse rate and of the grid's detunings would
            # overflow or underflow
            *(
                (f"sigma = {s}\n", f"sigma must lie between 1e-150 and 1e+150, got {s}")
                for s in ("1e+300", "1e+200", "1e-200", "1e-300")
            ),
            (
                "span_factor = 1e300\n",
                "span_factor * sigma, the grid's half-span, must be at most 1e+150, "
                "got 5e+300",
            ),
            # the series' memory grows with its harmonics
            (
                "model = ideal\nharmonics = 131073\n",
                "line 2: bad value for harmonics: "
                "harmonics must be in [1, 131072], got 131073",
            ),
        ],
        ids=[
            "sigma",
            "span_factor",
            "sigma-1e300",
            "sigma-1e200",
            "sigma-1e-200",
            "sigma-1e-300",
            "span_factor-1e300",
            "harmonics-131073",
        ],
    )
    def test_bad_grid_setting_is_named(self, tmp_path, capsys, command, text, message):
        path = _write_config(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path), command]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_window_without_two_time_samples_names_sigma(self, tmp_path, capsys):
        # the time step pi / (16 span_factor sigma) exceeds the whole
        # echo window; the message names only settings a file can change
        path = _write_config(tmp_path, "sigma = 0.001\n")
        assert main(["--config", str(path), "--out", str(tmp_path), "protocol"]) == 1
        err = capsys.readouterr().err
        assert "fewer than two time samples" in err
        assert err.endswith("; raise sigma or span_factor\n")
        assert "oversample" not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("k_max", [-1, -3, 0])
    def test_negative_k_max_exits_one(self, tmp_path, capsys, k_max):
        path = _write_config(tmp_path, f"k_max = {k_max}\n")
        for command in ("propagate", "train"):
            assert main(["--config", str(path), "--out", str(tmp_path), command]) == 1
            err = capsys.readouterr().err
            assert err == (
                f"error: k_max must be >= 1 to read the first echo, got {k_max}\n"
            )
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("k_max", [-1, 0])
    def test_sweep_without_first_echo_exits_one(self, tmp_path, capsys, k_max):
        path = _write_config(tmp_path, f"k_max = {k_max}\n")
        assert main(["--config", str(path), "--out", str(tmp_path), "sweep"]) == 1
        assert capsys.readouterr().err == (
            f"error: k_max must be >= 1 to read the first echo, got {k_max}\n"
        )
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            pytest.param(
                "sweep_steps = 1\n", "sweep_steps must be >= 2, got 1", id="steps"
            ),
            pytest.param(
                "sweep_start = 5\nsweep_stop = 1\n",
                "sweep_stop must exceed sweep_start, "
                "got sweep_start = 5.0 and sweep_stop = 1.0",
                id="reversed",
            ),
            pytest.param(
                "sweep_scale = log\nsweep_start = 0\n",
                "sweep_scale = log needs positive sweep_start and sweep_stop, "
                "got 0.0 and 40.0",
                id="log-zero",
            ),
        ],
    )
    def test_bad_sweep_axis_names_its_keys(self, tmp_path, capsys, text, message):
        path = _write_config(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path), "sweep"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["spectrum", "protocol", "train"])
    def test_ideal_square_comb_needs_finesse_above_one(self, tmp_path, capsys, command):
        # teeth as wide as the period leave no comb for the ideal series
        path = _write_config(tmp_path, "finesse = 1\nmodel = ideal\n")
        assert main(["--config", str(path), "--out", str(tmp_path), command]) == 1
        assert capsys.readouterr().err == (
            "error: finesse must exceed 1 for the ideal square comb, got 1.0; "
            "raise finesse or use model = broadened\n"
        )
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["train", "protocol"])
    def test_gamma_whose_square_overflows_exits_one(self, tmp_path, capsys, command):
        path = _write_config(tmp_path, "gamma = 1e200\n")
        assert main(["--config", str(path), "--out", str(tmp_path), command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gamma must be below about 1.3e154")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["train", "protocol", "transfer"])
    def test_gamma_whose_square_underflows_exits_one(self, tmp_path, capsys, command):
        # at finesse 4 a grid sample sits on a tooth edge, where a gamma
        # this small would leave the teeth sharp
        path = _write_config(tmp_path, "finesse = 4.0\ngamma = 1e-300\n")
        assert main(["--config", str(path), "--out", str(tmp_path), command]) == 1
        assert capsys.readouterr().err == (
            "error: gamma must be 0 or at least 1e-150, got 1e-300\n"
        )
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("nu0_hz", ["nan", "inf", "0", "-1"])
    def test_non_finite_physical_scale_exits_one(self, tmp_path, capsys, nu0_hz):
        out = tmp_path / "out"
        assert main(["--physical", nu0_hz, "--out", str(out), "spectrum"]) == 1
        assert capsys.readouterr().err == (
            "error: --physical takes nu0 in Hz, a positive finite number; "
            f"got {float(nu0_hz)}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("finesse", ["0.5", "0", "-1"])
    def test_finesse_below_one_is_named(self, tmp_path, capsys, finesse):
        # a tooth wider than the comb period
        path = _write_config(tmp_path, f"finesse = {finesse}\n")
        for command in ("spectrum", "protocol"):
            assert main(["--config", str(path), "--out", str(tmp_path), command]) == 1
            assert capsys.readouterr().err == (
                f"error: finesse must be >= 1, got {float(finesse)}\n"
            )
        assert not list(tmp_path.glob("*.csv"))

    def test_closed_pipe_on_stdout_exits_one(self, tmp_path):
        # train prints its echoes before it writes its CSV
        read, write = os.pipe()
        os.close(read)
        try:
            done = _run_child(["--out", str(tmp_path), "train"], write)
        finally:
            os.close(write)
        assert done.returncode == 1
        assert done.stderr == "error: cannot write to stdout: [Errno 32] Broken pipe\n"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_exits_one(self, tmp_path):
        with open("/dev/full", "w") as full:
            done = _run_child(["--out", str(tmp_path), "config"], full)
        assert done.returncode == 1
        assert done.stderr == (
            "error: cannot write to stdout: [Errno 28] No space left on device\n"
        )

    def test_out_directory_is_created(self, tmp_path):
        nested = tmp_path / "a" / "b"
        assert main(["--out", str(nested), "spectrum"]) == 0
        assert (nested / "spectrum.csv").exists()


def _non_finite_cells(path: Path, exempt) -> list[tuple[str, str]]:
    """``(column, cell)`` of each numeric cell that is not finite."""
    with path.open(newline="") as handle:
        header, *rows = csv.reader(handle)
    bad = []
    for row in rows:
        cells = dict(zip(header, row))
        for column, cell in cells.items():
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value) and not exempt(column, cells):
                bad.append((column, cell))
    return bad


class TestFiniteOutput:
    @settings(max_examples=30, deadline=None)
    @given(
        overrides=st.fixed_dictionaries(
            {
                "shape": st.sampled_from([s.value for s in CombShape]),
                "model": st.sampled_from([m.value for m in TransferModel]),
                "finesse": st.floats(1.5, 30.0),
                "gamma": st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
                "samples": st.sampled_from([256, 512, 1024, 2048]),
                "d_p": st.one_of(st.floats(0.0, 60.0), st.sampled_from([1e4, 1e300])),
                "pair_count": st.integers(1, 40),
                "k_max": st.integers(0, 4),
                "passes": st.sampled_from([1, 2]),
                "simulate": st.booleans(),
                "sweep_steps": st.just(4),
                "sweep_simulate": st.booleans(),
            }
        ),
        physical=st.booleans(),
    )
    def test_exit_zero_writes_only_finite_cells(self, overrides, physical):
        if overrides["shape"] == "harmonic":
            overrides["finesse"] = 2.0
        # documented non-finite cells: protocol.csv without a simulation,
        # and sweep rows whose point failed
        exempt = {
            "protocol.csv": lambda column, row: not overrides["simulate"]
            and column in ("simulated_efficiency", "rel_error"),
            "sweep.csv": lambda column, row: row["status"] != "ok",
        }
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            for command in (
                "spectrum", "transfer", "propagate", "train", "protocol", "sweep"
            ):
                # each subcommand gets the drawn settings that it reads
                keys = reads(command, RunConfig(**overrides))
                read = {k: v for k, v in overrides.items() if k in keys}
                config = out / f"{command}.cfg"
                config.write_text(canonical_config(RunConfig(**read)))
                run_dir = out / command
                args = ["--config", str(config), "--out", str(run_dir)]
                if physical and "--physical" in keys:
                    args += ["--physical", "1e6"]
                code = main([*args, command])
                assert code in (0, 1)
                if code == 0:
                    for path in run_dir.glob("*.csv"):
                        rule = exempt.get(path.name, lambda column, row: False)
                        assert _non_finite_cells(path, rule) == [], (command, path.name)

    @pytest.mark.parametrize(
        ("command", "text"),
        [
            # C0 underflows to 0, so every closed amplitude is 0; at
            # d_p = 1e300 the train's power series would overflow
            pytest.param("train", "d_p = 1e4\n", id="train-1e4"),
            pytest.param("train", "d_p = 1e300\n", id="train-1e300"),
            pytest.param(
                "sweep", "sweep_stop = 1e300\nsweep_steps = 3\n", id="sweep-1e300"
            ),
            # closed intensities so small that rel_error would overflow
            pytest.param("train", "d_p = 1e4\nfinesse = 13.5\n", id="train-subnormal"),
            # the resummed comb absorbs exactly 0 between its teeth
            pytest.param(
                "protocol",
                "model = ideal\nharmonics = none\nd_p = 1e300\n",
                id="protocol-resummed-1e300",
            ),
        ],
    )
    def test_deep_comb_writes_finite_cells(self, tmp_path, command, text):
        path = _write_config(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path), command]) == 0
        (csv_path,) = tmp_path.glob("*.csv")
        assert _non_finite_cells(csv_path, lambda column, row: False) == []
