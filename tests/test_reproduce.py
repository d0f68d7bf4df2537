"""Reference-target registry: structure, fast targets end to end."""

import pytest

from afcsim.reproduce import TARGETS, Check, run_target


class TestRegistry:
    def test_entries_are_described_builders(self):
        for name, (description, builder) in TARGETS.items():
            assert name == name.lower()
            assert " " not in name
            assert isinstance(description, str) and description
            assert callable(builder)

    def test_unknown_target_lists_known_names(self):
        with pytest.raises(KeyError, match="unknown target"):
            run_target("missing", out_dir=None)


class TestCheck:
    def test_tolerance_band(self):
        assert Check("x", 1.0005, 1.0, 1e-3).ok
        assert not Check("x", 1.002, 1.0, 1e-3).ok

    def test_non_finite_fails(self):
        assert not Check("x", float("nan"), 1.0, 1e9).ok
        assert not Check("x", float("inf"), 1.0, 1e9).ok


class TestFastTargets:
    @pytest.mark.parametrize(
        "name",
        ["harmonic-comb-train", "optimal-recall", "depth-scan", "comb-profiles"],
    )
    def test_target_passes_and_writes_files(self, name, tmp_path):
        report = run_target(name, tmp_path)
        assert report.name == name
        assert report.ok, [c for c in report.checks if not c.ok]
        for path in report.files:
            assert path.exists()
            assert path.parent == tmp_path
            assert path.stem == name or path.stem.startswith(f"{name}-")
        assert sorted(tmp_path.iterdir()) == sorted(report.files)


class TestResponses:
    """Each target computes its own comb responses, whatever ran before it."""

    @pytest.mark.parametrize("before", [None, "efficiency-017", "echo-train-f5"])
    def test_efficiency_target_computes_one_response(
        self, response_calls, tmp_path, before
    ):
        # both earlier targets read the same comb on the same grid
        if before is not None:
            run_target(before, tmp_path)
            assert len(response_calls) == 1
            response_calls.clear()
        assert run_target("efficiency-046", tmp_path).ok
        assert len(response_calls) == 1

    def test_timebin_pair_shares_one_response_between_passes(
        self, response_calls, tmp_path
    ):
        assert run_target("timebin-pair", tmp_path).ok
        assert len(response_calls) == 1
