"""Harness behavior: config resolution, hashing, exit codes, reproducibility."""

import dataclasses
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from heis import girsanov
from heis.results import ResultTable, binomial_stderr
from heis.cli import (
    EXPERIMENTS,
    ReferenceParseError,
    config_hash,
    main,
    parse_dyadic,
    parse_fine_step,
    parse_float_list,
    parse_reference_curve,
    resolve_config,
)


@pytest.fixture
def runner():
    return CliRunner()


class TestParsers:
    def test_reference_curve_kinds(self):
        assert parse_reference_curve("zero").planar_energy == 0.0
        assert parse_reference_curve("line 1 0").planar_energy == 1.0
        assert parse_reference_curve("poly2 1 0.5").label == "poly2 1 0.5"

    def test_unknown_kind_position(self):
        with pytest.raises(ReferenceParseError) as exc:
            parse_reference_curve("  bogus 1 2")
        assert exc.value.position == 2

    def test_trailing_token_position(self):
        with pytest.raises(ReferenceParseError) as exc:
            parse_reference_curve("line 1 2 3")
        assert exc.value.position == 9

    def test_bad_number_position(self):
        with pytest.raises(ReferenceParseError) as exc:
            parse_reference_curve("line a 2")
        assert exc.value.position == 5

    @pytest.mark.parametrize("text,position", [
        ("line nan 0", 5), ("poly2 1 -inf", 8), ("line 1e999 0", 5), ("poly2 0 NaN", 8)])
    def test_non_finite_number_position(self, text, position):
        with pytest.raises(ReferenceParseError, match="expected a finite number") as exc:
            parse_reference_curve(text)
        assert exc.value.position == position

    @pytest.mark.parametrize("text,position", [
        ("line 1000001 0", 5), ("poly2 1 -1e300", 8), ("line 0 1e308", 7)])
    def test_coefficient_beyond_1e6_position(self, text, position):
        with pytest.raises(ReferenceParseError, match="magnitude of at most 1e6") as exc:
            parse_reference_curve(text)
        assert exc.value.position == position
        assert parse_reference_curve("poly2 1e6 -1e6").planar_energy == 1e12 + 4e12 / 3

    def test_missing_arguments(self):
        with pytest.raises(ReferenceParseError):
            parse_reference_curve("line 1")
        with pytest.raises(ReferenceParseError):
            parse_reference_curve("")

    def test_dyadic_forms(self):
        assert parse_dyadic("2^-3") == 0.125
        assert parse_dyadic("2**-3") == 0.125
        assert parse_dyadic("0.125") == 0.125
        with pytest.raises(ValueError):
            parse_dyadic("three")
        for bad in ("-0.5", "nan", "inf", "2^-99999"):
            with pytest.raises(ValueError):
                parse_dyadic(bad)

    def test_fine_step_window(self):
        assert parse_fine_step("2^-6") == 2.0 ** -6
        assert parse_fine_step("2^-20") == 2.0 ** -20
        for bad in ("2^-5", "2^-21", "0.3"):
            with pytest.raises(ValueError):
                parse_fine_step(bad)

    def test_float_list(self):
        assert parse_float_list("2^-2, 0.125,") == [0.25, 0.125]
        for empty in ("", " , "):
            with pytest.raises(ValueError):
                parse_float_list(empty)


class TestConfigHash:
    def _cfg(self, experiment, **kw):
        base = {"experiment": experiment, "seed": 1, "trials": 100,
                "fine_step": "2^-10", "parameters": {"x": 1}}
        base.update(kw)
        return base

    def test_helix_hash_ignores_seed_and_trials(self):
        a = config_hash(self._cfg("helix", seed=1, trials=5), "helix")
        b = config_hash(self._cfg("helix", seed=9, trials=7), "helix")
        assert a == b

    def test_stochastic_hash_tracks_seed(self):
        a = config_hash(self._cfg("tube", seed=1), "tube")
        b = config_hash(self._cfg("tube", seed=2), "tube")
        assert a != b

    def test_hash_tracks_parameters(self):
        a = config_hash(self._cfg("tube"), "tube")
        c = self._cfg("tube")
        c["parameters"] = {"x": 2}
        assert a != config_hash(c, "tube")


class TestSimulate:
    def test_writes_path_and_passes(self, runner):
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["simulate", "--fine-step", "2^-8",
                                       "--seed", "3", "--out", "r"])
            assert res.exit_code == 0, res.output
            assert "[PASS] starts-at-identity" in res.output
            assert "[PASS] area-is-left-point-lift" in res.output
            lines = Path("r/simulate.csv").read_text().splitlines()
            assert lines[0] == "t,x,y,z"
            assert len(lines) == 2 + 2 ** 8
            summary = json.loads(Path("r/simulate.summary.json").read_text())
            assert summary["pass"] is True
            assert "wall_clock_s" in summary

    def test_reruns_are_byte_identical(self, runner):
        with runner.isolated_filesystem():
            for out in ("a", "b"):
                res = runner.invoke(main, ["simulate", "--fine-step", "2^-8",
                                           "--seed", "5", "--out", out])
                assert res.exit_code == 0
            assert Path("a/simulate.csv").read_bytes() == Path("b/simulate.csv").read_bytes()
            ha = json.loads(Path("a/simulate.summary.json").read_text())["hash"]
            hb = json.loads(Path("b/simulate.summary.json").read_text())["hash"]
            assert ha == hb

    def test_rejects_multiple_trials(self, runner):
        res = runner.invoke(main, ["simulate", "--trials", "2"])
        assert res.exit_code == 1
        assert "single path" in res.output

    def test_rejects_out_of_window_step(self, runner):
        res = runner.invoke(main, ["simulate", "--fine-step", "2^-30"])
        assert res.exit_code == 1
        assert "invalid config" in res.output


class TestConfigFile:
    def test_file_then_flag_precedence(self, runner):
        with runner.isolated_filesystem():
            Path("c.json").write_text(json.dumps({
                "experiment": "ws-converge", "trials": 30, "seed": 2,
                "parameters": {"deltas": "2^-2,2^-3"}}))
            res = runner.invoke(main, ["ws-converge", "--config", "c.json",
                                       "--trials", "40", "--fine-step", "2^-8",
                                       "--out", "r"])
            assert res.exit_code == 0, res.output
            cfg = json.loads(Path("r/ws-converge.summary.json").read_text())["config"]
            assert cfg["trials"] == 40  # flag wins
            assert cfg["seed"] == 2  # file wins over default
            assert cfg["parameters"]["deltas"] == "2^-2,2^-3"

    def test_wrong_experiment_in_file(self, runner):
        with runner.isolated_filesystem():
            Path("c.json").write_text(json.dumps({"experiment": "tube"}))
            res = runner.invoke(main, ["ws-converge", "--config", "c.json"])
            assert res.exit_code == 1
            assert "is for 'tube'" in res.output

    def test_malformed_json(self, runner):
        with runner.isolated_filesystem():
            Path("c.json").write_text("{not json")
            res = runner.invoke(main, ["ws-converge", "--config", "c.json"])
            assert res.exit_code == 1
            assert "not valid JSON" in res.output


class TestExperimentCommands:
    def test_ws_converge_small(self, runner):
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["ws-converge", "--trials", "50",
                                       "--fine-step", "2^-8",
                                       "--deltas", "2^-2,2^-4", "--out", "r"])
            assert res.exit_code == 0, res.output
            rows = Path("r/ws-converge.csv").read_text().splitlines()
            assert rows[0] == "delta,estimate,stderr,n_trials,fine_step,seed"
            assert float(rows[1].split(",")[0]) == 0.25

    def test_ws_converge_rejects_offgrid_delta(self, runner):
        res = runner.invoke(main, ["ws-converge", "--trials", "10",
                                   "--fine-step", "2^-8", "--deltas", "0.3"])
        assert res.exit_code == 1
        assert "not a multiple" in res.output

    def test_energy_diverge_small(self, runner):
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["energy-diverge", "--trials", "64",
                                       "--fine-step", "2^-7",
                                       "--steps", "2^-6,2^-7", "--out", "r"])
            assert res.exit_code == 0, res.output
            assert "[PASS] raw-energy-2-over-h" in res.output
            assert "[PASS] smoothed-plateau-1pct" in res.output

    def test_energy_diverge_step_mismatch(self, runner):
        res = runner.invoke(main, ["energy-diverge", "--fine-step", "2^-8",
                                   "--steps", "2^-6,2^-7"])
        assert res.exit_code == 1
        assert "must equal the smallest step" in res.output

    def test_helix_small(self, runner):
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["helix", "--n", "2,4", "--refine", "2",
                                       "--variant", "verbatim", "--out", "r"])
            assert res.exit_code == 0, res.output
            assert "[PASS] strictly-decreasing" in res.output
            assert "[PASS] rate-constant-stable" in res.output

    def test_helix_hash_independent_of_seed(self, runner):
        with runner.isolated_filesystem():
            hashes = []
            for seed, out in (("1", "a"), ("2", "b")):
                res = runner.invoke(main, ["helix", "--n", "2", "--refine", "2",
                                           "--seed", seed, "--out", out])
                assert res.exit_code == 0
                hashes.append(json.loads(
                    Path(out, "helix.summary.json").read_text())["hash"])
            assert hashes[0] == hashes[1]

    def test_levy_law_small(self, runner):
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["levy-law", "--trials", "2000",
                                       "--fine-step", "2^-8", "--lambdas", "1",
                                       "--out", "r"])
            assert res.exit_code == 0, res.output
            rows = Path("r/levy-law.csv").read_text().splitlines()
            assert rows[1].startswith("nan,")  # variance row marker

    def test_levy_law_lambda_beyond_cosh_range(self, runner):
        """cosh(lambda / 2) overflows a float for lambda above about 1420; the
        target is then 0, and the run ends in a verdict."""
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["levy-law", "--lambdas", "1e308", "--trials", "50",
                                       "--fine-step", "2^-6", "--out", "r"])
            assert res.exit_code in (0, 1), res.output
            assert res.exception is None or isinstance(res.exception, SystemExit)
            assert "lambda=1e+308: " in res.output and "vs 0.00000" in res.output
            summary = json.loads(Path("r/levy-law.summary.json").read_text())
            assert summary["meta"]["targets"]["cos_1e+308"] == 0.0

    def test_dds_small(self, runner):
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["dds-diagnostics", "--trials", "2000",
                                       "--fine-step", "2^-7",
                                       "--times", "0.5,1.0", "--out", "r"])
            assert res.exit_code == 0, res.output
            assert "[PASS] clock-mean-quarter" in res.output

    def test_dds_offgrid_time(self, runner):
        res = runner.invoke(main, ["dds-diagnostics", "--trials", "10",
                                   "--fine-step", "2^-7", "--times", "0.3"])
        assert res.exit_code == 1
        assert "not a grid node" in res.output


class TestExitCodes:
    def test_support_zero_hits_is_inconclusive(self, runner):
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["support", "--phi", "line 8 8",
                                       "--epsilon", "0.1", "--trials", "100",
                                       "--fine-step", "2^-7", "--out", "r"])
            assert res.exit_code == 2, res.output
            assert "INCONCLUSIVE" in res.output

    def test_support_positive(self, runner):
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["support", "--phi", "zero",
                                       "--epsilon", "1.5", "--trials", "2000",
                                       "--fine-step", "2^-7", "--out", "r"])
            assert res.exit_code == 0, res.output

    def test_tube_empty_ladder_is_inconclusive(self, runner):
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["tube", "--phi", "line 1 0",
                                       "--epsilon", "0.9",
                                       "--deltas", "0.05,0.02",
                                       "--trials", "100", "--budget", "200",
                                       "--min-accepted", "10",
                                       "--fine-step", "2^-7", "--out", "r"])
            assert res.exit_code == 2, res.output
            assert Path("r/tube.csv").read_text() == (
                "delta,epsilon,p_hat,stderr,accepted,total,seed\n"
                "0.050000000000000003,0.90000000000000002,nan,nan,0,200,1\n"
                "0.02,0.90000000000000002,nan,nan,0,200,1\n")

    @pytest.mark.parametrize("argv, check", [
        (["tube", "--phi", "line 1 0", "--epsilon", "0.9", "--deltas", "0.05,0.02",
          "--trials", "100", "--budget", "200", "--min-accepted", "10"],
         "non-increasing-2se"),
        (["girsanov-ratio", "--phi", "line 1 0", "--deltas", "0.05,0.02",
          "--trials", "100"],
         "trend-toward-target"),
    ], ids=["tube", "girsanov-ratio"])
    def test_check_without_two_usable_levels_is_not_evaluated(self, runner, argv, check):
        """An all-empty ladder gives a trend check no input: it prints N/A
        and says so in the summary, and `passed` and the exit code stay."""
        with runner.isolated_filesystem():
            res = runner.invoke(main, [*argv, "--fine-step", "2^-7", "--out", "r"])
            assert res.exit_code == 2, res.output
            assert f"[N/A] {check}: " in res.output
            summary = json.loads(Path(f"r/{argv[0]}.summary.json").read_text())
        (entry,) = [a for a in summary["assertions"] if a["name"] == check]
        assert entry["evaluated"] is False and entry["passed"] is True
        others = [a for a in summary["assertions"] if a["name"] != check]
        assert others and all(a["evaluated"] for a in others)
        assert summary["pass"] is False and summary["inconclusive"] is True

    @pytest.mark.parametrize("deltas, statuses", [
        ("2^-2", ("N/A", "N/A")),
        ("2^-2,2^-3", ("PASS", "N/A")),
        ("2^-2,2^-4", ("PASS", "PASS")),
    ], ids=["one-level", "one-halving", "two-halvings"])
    def test_ws_converge_checks_need_their_ladder(self, runner, deltas, statuses):
        """Drops need two levels; the halving needs the finest step at most a
        quarter of the coarsest. A check without its ladder passes as N/A."""
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["ws-converge", "--trials", "40", "--fine-step", "2^-8",
                                       "--deltas", deltas, "--out", "r"])
        assert res.exit_code == 0, res.output
        for name, status in zip(("drops-beyond-3se", "finest-below-half-coarsest"), statuses):
            assert f"[{status}] {name}: " in res.output

    def test_flat_ladder_at_certainty_fails_the_drop(self):
        """p_hat 1 on every level has stderr 0, and 1 < 1 - 0 is false."""
        table = ResultTable(["delta", "epsilon", "p_hat", "stderr", "accepted", "total", "seed"],
                            [(d, 0.9, 1.0, binomial_stderr(500, 500), 500, 1000, 1)
                             for d in (0.9, 0.8, 0.7, 0.6)])
        assertions, inconclusive = EXPERIMENTS["tube"].verdicts(table, {"min_accepted": 200})
        (drop,) = [a for a in assertions if a["name"] == "last-below-first-3se"]
        assert not inconclusive and drop["evaluated"] and not drop["passed"]

    def test_tube_underpowered_is_inconclusive_not_fail(self, runner):
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["tube", "--phi", "line 1 0",
                                       "--epsilon", "1.0",
                                       "--deltas", "1.5,1.2",
                                       "--trials", "50", "--budget", "60",
                                       "--min-accepted", "40",
                                       "--fine-step", "2^-7", "--out", "r"])
            assert res.exit_code == 2, res.output

    def test_girsanov_far_level_fails(self, runner):
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["girsanov-ratio", "--phi", "line 1 0",
                                       "--deltas", "2.5", "--trials", "20000",
                                       "--fine-step", "2^-7", "--out", "r"])
            assert res.exit_code == 1, res.output
            assert "[FAIL] final-near-target" in res.output

    def test_girsanov_feasible_ladder_passes(self, runner):
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["girsanov-ratio", "--phi", "line 1 0",
                                       "--deltas", "1.5,1.0,0.7",
                                       "--trials", "60000",
                                       "--fine-step", "2^-7", "--out", "r"])
            assert res.exit_code == 0, res.output

    def test_girsanov_default_ladder_is_reachable(self, runner):
        """The default radii hold accepted paths at a modest trial count."""
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["girsanov-ratio", "--trials", "20000",
                                       "--out", "r"])
            assert res.exit_code in (0, 1), res.output


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["levy-law", "--lambdas", "abc"],
        ["levy-law", "--lambdas", ""],
        ["tube", "--deltas", "abc"],
        ["tube", "--deltas", ""],
        ["girsanov-ratio", "--deltas", "abc"],
        ["energy-diverge", "--wz-delta", "abc"],
        ["ws-converge", "--deltas", ""],
        ["dds-diagnostics", "--times", ""],
        ["dds-diagnostics", "--times", "2"],
        ["tube", "--epsilon", "-1"],
        ["tube", "--epsilon", "nan"],
        ["support", "--epsilon", "0"],
        ["helix", "--refine", "1"],
        ["girsanov-ratio", "--phi", "line 1e300 0"],  # a coefficient beyond 1e6
        ["ws-converge", "--deltas", "1e308"],
        ["energy-diverge", "--wz-delta", "1e308"],
    ])
    def test_one_line_error_not_traceback(self, runner, argv):
        with runner.isolated_filesystem():
            res = runner.invoke(main, [*argv, "--trials", "10"])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("Error: ") and res.output.count("\n") == 1

    def test_out_of_memory_is_a_one_line_error(self, runner, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(girsanov, "support_positivity", exhausted)
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["support", "--trials", "10", "--out", "r"])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output == "Error: out of memory, try fewer --trials or a coarser --fine-step\n"

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_out_of_memory_names_the_experiments_own_size_options(self, runner, monkeypatch,
                                                                   name):
        """helix has no trials: its hint names --n and --refine instead."""
        def exhausted(cfg):
            raise MemoryError

        spec = EXPERIMENTS[name]
        monkeypatch.setitem(EXPERIMENTS, name, dataclasses.replace(spec, run=exhausted))
        with runner.isolated_filesystem():
            res = runner.invoke(main, [name, "--out", "r"])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output == f"Error: out of memory, try {spec.sizes}\n"
        named = set(re.findall(r"--[a-z-]+", spec.sizes))
        assert named <= {o for p in main.commands[name].params for o in p.opts}
        assert ("--trials" in named) == (spec.trials > 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv,token,position", [
        (["tube", "--phi", "line nan 0"], "nan", 5),
        (["support", "--phi", "poly2 inf 0"], "inf", 6),
    ])
    def test_non_finite_curve_coefficient_is_a_one_line_error(self, runner, argv, token,
                                                             position):
        """Not an INCONCLUSIVE table nor a RuntimeWarning from the scan."""
        with runner.isolated_filesystem():
            res = runner.invoke(main, [*argv, "--trials", "10", "--fine-step", "2^-6",
                                       "--out", "r"])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output == (f"Error: invalid --phi: expected a finite number, got "
                              f"'{token}' (position {position})\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("target", ["0,0,inf", "1e200,0,1", "inf,0,1", "0,0,nan", "0,0",
                                        "0,0,1,2", "a,b,c", "0,1e308,1", "0,0,1e300"])
    def test_bad_helix_target_is_a_one_line_error(self, runner, target):
        """Three finite numbers or an error; a helix whose distances or grid
        overflow is an error that names --target too."""
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["helix", "--target", target, "--n", "2,4", "--out", "r"])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("Error: ") and res.output.count("\n") == 1
        assert "--target" in res.output

    def test_trials_beyond_memory_end_cleanly(self, runner):
        """levy-law keeps one float per trial: 10^14 trials ask for 800 TB,
        which fails at the first allocation, before any path is drawn."""
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["levy-law", "--trials", "100000000000000",
                                       "--out", "r"])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith(
            "Error: out of memory, try fewer --trials or a coarser --fine-step: ")
        assert res.output.count("\n") == 1

    _TOKENS = st.sampled_from(["", " ", "0", "-1", "2", "0.5", "2^-3", "2**-99999", "1e308",
                               "1e400", "nan", "inf", "line", "poly2", "zero", "x"])
    _NUMBERS = st.sampled_from(["0", "-1", "2", "0.5", "2^-3", "1e308", "nan", "inf"])
    _VALUES = st.one_of(st.text(max_size=12), st.lists(_TOKENS, max_size=4).map(" ".join),
                        st.lists(_TOKENS, max_size=4).map(",".join),
                        st.lists(_NUMBERS, min_size=1, max_size=3).map(",".join),
                        st.tuples(st.sampled_from(["line", "poly2"]), _NUMBERS, _NUMBERS)
                        .map(" ".join))
    # Options that size a grid or an allocation take only values that keep a
    # run short and small; --n and --budget are given on every run of their
    # commands, as their defaults start long runs.
    _SIZES = {"--n": st.sampled_from(["2", "2,4", "4,2", "0", "-1", "1e308", "x", ""]),
              "--refine": st.sampled_from(["2", "1", "0", "-1", "x"]),
              "--steps": st.sampled_from(["2^-3,2^-6", "2^-6", "0.5", "1", "2", "0", "-1",
                                          "nan", "inf", "1e308", "2^-3,1e308", "x", ""]),
              "--budget": st.sampled_from(["50", "2", "0", "-1", "x"])}
    # each command's own options, flag to parameter name
    _OPTIONS = {name: {p.opts[0]: p.name for p in main.commands[name].params
                       if p.name in spec.parameters}
                for name, spec in EXPERIMENTS.items() if spec.parameters}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_list_and_curve_values_end_cleanly(self, data):
        """Values for any options of any command end in a verdict or a clean
        error: never a traceback, and never a RuntimeWarning."""
        name = data.draw(st.sampled_from(sorted(self._OPTIONS)), label="command")
        own = self._OPTIONS[name]
        options = data.draw(st.lists(st.sampled_from(sorted(own)), min_size=1, unique=True),
                            label="options")
        argv = [name, "--trials", "20", "--fine-step", "2^-6", "--out", "r"]
        sized = [o for o in ("--n", "--budget") if o in own and o not in options]
        for option in options + sized:
            default = str(EXPERIMENTS[name].parameters[own[option]])
            value = data.draw(self._SIZES.get(option, st.just(default) | self._VALUES),
                              label=option)
            argv.append(f"{option}={value}")
        runner = CliRunner()
        with runner.isolated_filesystem():
            res = runner.invoke(main, argv)
        assert res.exit_code in (0, 1, 2), res.output
        assert res.exception is None or isinstance(res.exception, SystemExit), res.exception

    @pytest.mark.parametrize("name,loaded", [
        ("ws-converge", {"parameters": {"interpolant": "bogus"}}),
        ("tube", {"parameters": {"phi": 5}}),
        ("support", {"parameters": {"phi": None}}),
        ("tube", {"parameters": {"min_accepted": None}}),
        ("support", {"seed": None}),
        ("support", {"parameters": [1]}),
        ("support", {"parameters": {"epsilom": 0.5}}),
        ("support", {"seeds": 3}),
    ])
    def test_config_file_value_is_checked_like_its_flag(self, runner, name, loaded):
        with runner.isolated_filesystem():
            Path("c.json").write_text(json.dumps(loaded))
            res = runner.invoke(main, [name, "--config", "c.json", "--trials", "10",
                                       "--fine-step", "2^-6", "--out", "r"])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("Error: ")

    _JSON = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                      st.floats(-2.0, 2.0), st.sampled_from([float("nan"), float("inf")]),
                      st.text(max_size=8), st.lists(st.integers(0, 2), max_size=2),
                      st.sampled_from(["line 1 0", "zero", "0.9,0.6", "2^-2", "linear",
                                       "smoothstep", "1.5"]))

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from([("ws-converge", "interpolant"), ("ws-converge", "deltas"),
                                 ("tube", "phi"), ("tube", "epsilon"), ("tube", "deltas"),
                                 ("tube", "min_accepted"), ("support", "phi"),
                                 ("support", "epsilon"), ("support", "seed")]),
           value=_JSON)
    def test_random_config_file_values_end_cleanly(self, case, value):
        """Any config-file value ends in a verdict or a clean error."""
        name, key = case
        loaded = {key: value} if key == "seed" else {"parameters": {key: value}}
        runner = CliRunner()
        with runner.isolated_filesystem():
            Path("c.json").write_text(json.dumps(loaded))
            res = runner.invoke(main, [name, "--config", "c.json", "--trials", "20",
                                       "--fine-step", "2^-6", "--out", "r",
                                       *(["--budget", "50"] if name == "tube" else [])])
        assert res.exit_code in (0, 1, 2), res.output
        assert res.exception is None or isinstance(res.exception, SystemExit), res.exception


_HARNESS = [(["--seed"], None), (["--trials"], None), (["--fine-step"], None),
            (["--out"], "results"), (["--config"], None)]

# Each command's own options and its defaults (trials, fine_step, parameters).
_SURFACE = {
    "simulate": ([], 1, "2^-10", {}),
    "ws-converge": ([(["--deltas"], None), (["--interpolant"], None)], 2000, "2^-12",
                    {"deltas": "2^-2,2^-3,2^-4,2^-5", "interpolant": "linear"}),
    "energy-diverge": ([(["--steps"], None), (["--wz-delta"], None)], 512, "2^-10",
                       {"steps": "2^-6,2^-7,2^-8,2^-9,2^-10", "wz_delta": "2^-3"}),
    "tube": ([(["--phi"], None), (["--epsilon"], None), (["--deltas"], None),
              (["--min-accepted"], None), (["--budget"], None)], 100000, "2^-10",
             {"phi": "line 1 0", "epsilon": 0.9, "deltas": "0.9,0.8,0.7,0.6",
              "min_accepted": 200, "budget": 1000000}),
    "girsanov-ratio": ([(["--phi"], None), (["--deltas"], None)], 200000, "2^-10",
                       {"phi": "line 1 0", "deltas": "1.0,0.8,0.7,0.6"}),
    "dds-diagnostics": ([(["--times"], None)], 100000, "2^-10", {"times": "0.25,0.5,1.0"}),
    "helix": ([(["--n"], None), (["--target"], None), (["--variant"], None),
               (["--refine"], None)], 1, "2^-10",
              {"n": "4,8,16,32,64", "target": "0,0,1", "variant": "identity", "refine": 4}),
    "support": ([(["--phi"], None), (["--epsilon"], None)], 100000, "2^-10",
                {"phi": "line 1 0", "epsilon": 1.0}),
    "levy-law": ([(["--lambdas"], None)], 100000, "2^-12", {"lambdas": "0.5,1,2"}),
}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_command_surface_is_unchanged(name):
    """Flags and defaults of every registered command, in help order."""
    assert list(main.commands) == list(_SURFACE)
    flags, trials, fine_step, parameters = _SURFACE[name]
    assert [(p.opts, p.default) for p in main.commands[name].params] == flags + _HARNESS
    assert resolve_config(name, None, None, None, None, {}) == {
        "experiment": name, "seed": 1, "trials": trials, "fine_step": fine_step,
        "parameters": parameters}
