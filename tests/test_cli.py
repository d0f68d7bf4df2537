"""Command-line interface: config file handling, subcommands, exit codes."""

from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcsim.cli import ConfigError, RunConfig, canonical_config, main, parse_config
from afcsim.combs import CombShape
from afcsim.propagation import TransferModel
from afcsim.reproduce import TARGETS, Check, TargetReport
from afcsim.sweeps import SweepKind

FAST_SIM = """
# small grid, broadened comb wide enough to cover it
gamma = 0.005
pair_count = 40
samples = 4096
span_factor = 6.0
oversample = 8
k_max = 3
"""


def _write_config(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


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
            ("samples = many", "line 1: bad value for samples"),
            ("\n\nmodel = exact", "line 3: bad value for model"),
            ("d_p = nan", "line 1: bad value for d_p"),
            ("finesse = inf", "line 1: bad value for finesse"),
        ],
    )
    def test_rejects_with_line_numbers(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment.replace("(", "[(]")):
            parse_config(text)


# One strategy per RunConfig field; choice fields draw from their options.
_FIELD_VALUES = {
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "int": st.integers(-(2**40), 2**40),
    "bool": st.booleans(),
    "int | None": st.none() | st.integers(1, 2**40),
}
_CHOICES = {
    "shape": [s.value for s in CombShape],
    "model": [m.value for m in TransferModel],
    "sweep_parameter": ["d_p", "finesse", "gamma"],
    "sweep_scale": ["linear", "log"],
    "sweep_protocol": [k.value for k in SweepKind],
}
_FLOAT_KEYS = [f.name for f in fields(RunConfig) if f.type == "float"]


def _field_strategy(field):
    if field.type == "str":
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
            "samples = 4096\noversample = 8\nk_max = 3\nd_p = 0.0\n" + extra,
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

    def test_protocol_rejects_bad_passes(self, tmp_path, capsys):
        path = _write_config(tmp_path, "passes = 3\nsimulate = false\n")
        assert main(["--config", str(path), "--out", str(tmp_path), "protocol"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("passes", [1, 2])
    def test_protocol_needs_first_echo(self, tmp_path, capsys, passes):
        text = FAST_SIM.replace("k_max = 3", "k_max = 0") + f"passes = {passes}\n"
        path = _write_config(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path), "protocol"]) == 1
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
            "finesse = 10.0\ngamma = 0.005\npair_count = 40\n"
            "sweep_protocol = two-pass\n",
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

    def test_failing_target_exits_two(self, tmp_path, capsys, monkeypatch):
        def broken(out_dir: Path) -> TargetReport:
            return TargetReport(
                name="broken",
                checks=(Check("level", value=1.0, expected=2.0, tol=1e-6),),
                files=(),
            )

        monkeypatch.setitem(TARGETS, "broken", ("synthetic failure", broken))
        assert main(["--out", str(tmp_path), "reproduce", "broken"]) == 2
        assert "[FAIL]" in capsys.readouterr().out


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

    def test_tooth_edge_sample_exits_one(self, tmp_path, capsys):
        # the default grid puts a sample on the finesse-4 edge at 1.25
        path = _write_config(tmp_path, "finesse = 4.0\n")
        assert main(["--config", str(path), "--out", str(tmp_path), "train"]) == 1
        err = capsys.readouterr().err
        assert "transfer is non-finite" in err
        for setting in ("finesse", "samples", "span_factor", "gamma > 0"):
            assert setting in err
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

    def test_out_directory_is_created(self, tmp_path):
        nested = tmp_path / "a" / "b"
        assert main(["--out", str(nested), "spectrum"]) == 0
        assert (nested / "spectrum.csv").exists()
