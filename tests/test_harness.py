"""Harness: config round trips, runners, persistence, CLI, determinism."""

import argparse
import hashlib
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import adversary, cli, harness, markov, predictors
from ergolab import rotation as rot
from ergolab.errors import ConfigError, ErgolabError, InvariantViolation
from ergolab.harness import (ExperimentConfig, Report, format_nlist,
                             parse_nlist, persist, run)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="thm9").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="thm1", trials=0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="thm1", method="magic:3").validate()

    def test_defaults_fill_in(self):
        cfg = ExperimentConfig(experiment="thm3").validate()
        assert cfg.nlist == tuple(range(3, 65))
        assert cfg.q_schedule == "sqrt:1"
        cfg4 = ExperimentConfig(experiment="thm4").validate()
        assert cfg4.nlist == (8,)
        assert cfg4.schedule(require_regular=False).q(8) == 24

    def test_nlist_formats(self):
        assert parse_nlist("3:6") == (3, 4, 5, 6)
        assert parse_nlist("8") == (8,)
        assert parse_nlist("1,4:6,9") == (1, 4, 5, 6, 9)
        assert format_nlist((3, 4, 5, 6)) == "3:6"
        assert format_nlist((8,)) == "8"

    def test_reversed_or_empty_nlist_is_an_error(self):
        # neither may fall back to the default sweep; an empty value still
        # leaves the list unchanged
        for text in ("9:3", ",", "3:5,9:3"):
            with pytest.raises(ConfigError, match="bad nlist"):
                ExperimentConfig(experiment="thm3").set_key("nlist", text)
            assert cli.main(["thm3", "--nlist", text, "--trials", "1"]) == 2
        cfg = ExperimentConfig(experiment="thm3", nlist=(3, 4))
        cfg.set_key("nlist", "")
        assert cfg.validate().nlist == (3, 4)

    def test_repeated_n_is_an_error(self, tmp_path, capsys):
        # a repeated n would be swept, and counted, twice: refused from a
        # flag, from a config file and by validate
        with pytest.raises(ValueError, match="an n is repeated"):
            parse_nlist("3:12,12")
        assert cli.main(["thm3", "--nlist", "3:12,12", "--trials", "1"]) == 2
        assert "config error: bad nlist" in capsys.readouterr().err
        path = tmp_path / "config.txt"
        path.write_text("experiment = thm3\nnlist = 4,3:5\n")
        with pytest.raises(ConfigError, match="an n is repeated"):
            ExperimentConfig.from_file(path)
        assert cli.main(["thm3", "--config", str(path)]) == 2
        with pytest.raises(ConfigError, match="an n is repeated"):
            ExperimentConfig(experiment="thm3", nlist=(3, 4, 3)).validate()

    def test_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(experiment="thm3", trials=17, seed=5,
                               nlist=(3, 4, 5), q_schedule="sqrt:1",
                               threshold=0.4).validate()
        path = tmp_path / "config.txt"
        path.write_text("\n".join(cfg.to_lines()) + "\n")
        loaded = ExperimentConfig.from_file(path)
        assert loaded.experiment == "thm3"
        assert loaded.trials == 17
        assert loaded.seed == 5
        assert loaded.nlist == (3, 4, 5)
        assert loaded.threshold == 0.4

    def test_file_round_trip_of_every_field(self, tmp_path):
        for threshold, out, nlist in ((None, "", (3, 5, 8)),
                                      (0.125, "runs/a b", (2, 3, 4, 9))):
            cfg = ExperimentConfig(experiment="thm4", trials=250, seed=-3,
                                   kmax=2, smax=5, nlist=nlist,
                                   q_schedule="table:3=2,5=3,8=4",
                                   method="mc:500", predictor="constant:0.5",
                                   alpha="5,-1/2,1/2", out=out,
                                   threshold=threshold)
            path = tmp_path / "config.txt"
            path.write_text("\n".join(cfg.to_lines()) + "\n")
            assert ExperimentConfig.from_file(path) == cfg

    def test_config_txt_matches_golden_bytes(self, tmp_path):
        cfg = ExperimentConfig(experiment="thm3", trials=250, seed=7,
                               nlist=tuple(range(3, 11)), threshold=0.4,
                               out="out/thm3").validate()
        report = Report(schema="static", columns=("n",), rows=[])
        written = persist(cfg, report, tmp_path)["config"].read_bytes()
        assert written == (
            b"experiment = thm3\ntrials = 250\nseed = 7\nkmax = 4\n"
            b"smax = 8\nnlist = 3:10\nq-schedule = sqrt:1\n"
            b"method = exact:1e-4\npredictor = dynamic-count:1\n"
            b"alpha = 2,-1,1\nout = out/thm3\nthreshold = 0.4\n")

    def test_validation_parses_every_value(self):
        for bad in ({"trials": "abc"}, {"nlist": (3, "x")},
                    {"q_schedule": "sqrt:x"}, {"q_schedule": "cubic"},
                    {"predictor": "dynamic-count:x"}, {"predictor": "oracle"},
                    {"method": "exact:1/0"}, {"alpha": "2,1"},
                    {"threshold": "high"}):
            with pytest.raises(ConfigError):
                ExperimentConfig(experiment="thm3", **bad).validate()
        # irregular schedules validate; regularity is checked at run time
        flat = ExperimentConfig(experiment="thm3", q_schedule="const:4",
                                nlist=(3, 4)).validate()
        assert flat.schedule().q(3) == 4
        shrinking = ExperimentConfig(experiment="thm3", nlist=(3, 4),
                                     q_schedule="table:3=4,4=2").validate()
        with pytest.raises(ConfigError):
            shrinking.schedule()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("wibble = 3\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_alpha_parsing(self):
        cfg = ExperimentConfig(experiment="thm4", alpha="5,-1/2,1/2")
        rotation = cfg.rotation()
        assert rotation.d == 5
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="thm4", alpha="4,0,1").rotation()


class TestRunners:
    def test_unknown_runner_rejected(self):
        with pytest.raises(ConfigError):
            run(ExperimentConfig(experiment="nope"))

    def test_thm3_small_run(self):
        cfg = ExperimentConfig(experiment="thm3", trials=40, seed=2,
                               nlist=tuple(range(3, 17)))
        report = run(cfg)
        assert report.schema == "static"
        byrow = {}
        for n, trial, in_b, est, truth, err, _ in report.rows:
            byrow[(n, trial)] = (in_b, est, truth)
            if in_b:
                assert est == 0.0
                assert truth >= 0.5
        assert len(byrow) == 40 * 14

    def test_thm3_starving_invariant_is_checked(self, monkeypatch):
        # a starving trial must see an exactly-empty cell; an estimator that
        # reads anything there breaks the run, also under python -O.  The
        # runner estimates from one read per trial point.
        monkeypatch.setattr(predictors, "autoregression_from_reads",
                            lambda read, partition, start: 1)
        cfg = ExperimentConfig(experiment="thm3", trials=10, seed=2,
                               nlist=tuple(range(3, 9)))
        with pytest.raises(InvariantViolation, match="exactly-empty cell"):
            run(cfg)
        assert issubclass(InvariantViolation, ErgolabError)

    def test_thm4_cover_invariant_is_checked(self, monkeypatch):
        # with B as its own cover set, the past points of a B-trial leave
        # the cover set, so an outside-cell is read and the run stops
        starving_pair = rot.RohlinTower.starving_pair
        monkeypatch.setattr(rot.RohlinTower, "starving_pair",
                            lambda tower, n: (starving_pair(tower, n)[0],) * 2)
        cfg = ExperimentConfig(experiment="thm4", trials=50, seed=0)
        with pytest.raises(InvariantViolation, match="inside the cover set"):
            run(cfg)

    def test_thm4_small_run(self):
        cfg = ExperimentConfig(experiment="thm4", trials=30, seed=2)
        report = run(cfg)
        assert report.summary["mu_B_at_least_eighth"]
        assert report.summary["tower_coverage"] >= 0.5
        for _, _, in_b, _, _, _, l1 in report.rows:
            if in_b:
                assert l1 >= 1 / 16

    def test_consistency_small_run(self):
        cfg = ExperimentConfig(experiment="consistency", trials=1, seed=0,
                               nlist=(2000, 20_000))
        report = run(cfg)
        assert report.summary["max_error_at_longest_n"] <= 0.05

    def test_linear_run(self):
        cfg = ExperimentConfig(experiment="linear", trials=1, seed=0)
        report = run(cfg)
        assert report.summary["z_score"] >= 3

    def test_check_partitions_run(self):
        cfg = ExperimentConfig(experiment="check-partitions", trials=1, seed=0)
        report = run(cfg)
        assert report.summary["regular_on_tested_range"]
        flat = ExperimentConfig(experiment="check-partitions", trials=1,
                                seed=0, q_schedule="const:4")
        report = run(flat)
        assert not report.summary["verdicts"]["diameters_shrink"]

    def test_thm1_tiny_attack(self):
        cfg = ExperimentConfig(experiment="thm1", trials=300, seed=1, kmax=2,
                               method="mc:2000", predictor="constant:0")
        report = run(cfg)
        # constant-zero predictor misses by exactly 1/2 on every anchored path
        conditional = [r for r in report.rows if r[5] is True]
        assert all(r[3] == 1.0 for r in conditional)

    def test_thm2_tiny_attack(self):
        cfg = ExperimentConfig(experiment="thm2", trials=200, seed=1, smax=4,
                               method="mc:1000", predictor="constant:0")
        report = run(cfg)
        assert report.summary["min_conditional_exceedance"] == 1.0

    def test_attack_labels_name_their_route(self):
        walked = run(ExperimentConfig(experiment="thm1", trials=50, seed=1,
                                      kmax=3))
        enumerated = run(ExperimentConfig(experiment="thm1", trials=50,
                                          seed=1, kmax=3,
                                          predictor="constant:0"))
        for report, route in ((walked, "walk:"), (enumerated, "exact:")):
            for entry in report.summary["labels"]:
                assert entry["method"].startswith(route)
                assert entry["proven_lower_bound"] >= 1 / 8

    @pytest.mark.parametrize("value, bit", [
        ("0.2499999999999999999", 1),  # below 1/4, though its float is 1/4
        ("0.25", 0),                   # exactly 1/4: the high side
    ])
    def test_constant_sides_and_exceedances_are_exact(self, value, bit):
        report = run(ExperimentConfig(experiment="thm1", trials=20, seed=1,
                                      kmax=3, predictor=f"constant:{value}"))
        assert report.summary["table"]["odd"] == {1: bit, 2: bit, 3: bit}
        # the truth is bit/2, so the miss is |value - bit/2| >= 1/4, with
        # equality for 1/4 against a truth of 0
        assert report.summary["min_conditional_exceedance"] == 1.0
        assert report.summary["gap_threshold"] == 0.25


class TestProvenLowerBound:
    def test_fallback_keeps_the_best_exact_partial_mass(self, monkeypatch):
        # walk and enumeration both stop undecided, Monte Carlo decides; the
        # proven bound is the larger exact partial mass of the chosen side
        table = markov.OddLabelTable({1: 1, 2: 0, 3: 0})
        monkeypatch.setattr(adversary, "MAX_WALK_STEPS", 2)
        method = adversary.AttackMethod(max_atoms=20, trials=200)
        split = adversary._split_for(
            predictors.make_predictor("dynamic-count:1"), table, 8, method,
            random.Random(0))
        assert split.method.startswith("mc:")
        exact = split.detail["exact_attempt"]
        walk = exact.detail["walk_attempt"]
        assert not exact.certified and not walk.certified
        side = "p_minus" if split.minus_wins else "p_plus"
        assert split.proven_lower_bound \
            == max(getattr(exact, side), getattr(walk, side))


# SHA-256 of the CSV and plot.dat each configuration writes.  The thm3 and
# check-partitions runs go through the odometer, interval and dyadic code,
# the thm1 and thm2 runs through the adversary and the count forecasts, the
# thm4 runs (sqrt 2, golden-mean and sqrt 3 angles) through the surd, the
# orbit walk, the tower build, the floor locator and the per-cell L1 closed
# form, so a change there that moves a single byte of output fails here.
PINNED_OUTPUTS = {
    "thm3": (
        dict(experiment="thm3", trials=10, seed=3, nlist=(3, 4, 5, 6, 7, 8, 9)),
        "c2a7b108954d9170c631b8f90b9741eeb1bedb4c6106ffaa470d140d49d016aa",
        "c4ae2fbd2f6dd354163e4855be4e7e40117877b74fe49ee746153b1e318bd385"),
    "thm3-sqrt4": (
        dict(experiment="thm3", trials=100, seed=7, nlist=tuple(range(3, 65)),
             q_schedule="sqrt:4"),
        "21192bf4318b65eeb98b24b469ebfd46debe427240685b1b5c9c49c05a20167c",
        "9a007911077f36a644907cffe356b43b0e334ab4a301b3ddc4caef12fcb45854"),
    "check-partitions": (
        dict(experiment="check-partitions"),
        "801ecce071ef26e6191c7134b571fba5c8e004bcc566aa8a4a1faa87d3bd8aa0",
        "f548ee5a23a4d119a35c7713077e8bf8caabf239506de68014d4f73682c77ab3"),
    "thm1": (
        dict(experiment="thm1", trials=500, seed=30, kmax=4),
        "914c360b2a24ef271c249fe848e9f0a71bddcccf0db7a7c1d80c73e799c35caf",
        "c27e6de44e49abb62c6dfa8316bcbe24461065130ab3db40f809c39017415ef0"),
    "thm2": (
        dict(experiment="thm2", trials=500, seed=30, smax=8),
        "46621d655a0f75da231064391b0fca1b987ce5f1db8c8fb3ebcdc0095544d473",
        "17794e1fb0ab4018d0b4a0408824ce72e3d05f16fc6e918436f680cc4b8721b1"),
    "thm4": (
        dict(experiment="thm4", trials=200, seed=40),
        "64180ddbb0dc6ab6945b7fac6283765cd13e7579e54cc4329c4a8c58ad5e3bab",
        "43017f84ba359ff10d560e9b6b3a646b140fd83f943a37b983a12ffa6af410e3"),
    "thm4-golden": (
        dict(experiment="thm4", trials=200, seed=40, nlist=(6,),
             alpha="5,-1/2,1/2"),
        "a960c1358a34a987b159286ddb16c0fde9719e7501cceb45d719edff3ec5f22e",
        "16f4a51150f63c8d8c4c94e949e4c49050dc437cb0741e074b065ecc09dc3f77"),
    "thm4-sqrt3": (
        dict(experiment="thm4", trials=200, seed=40, nlist=(10,),
             alpha="3,0,1", q_schedule="sqrt:200"),
        "b899bbeaf51989bc4490e85217c7e73b4438f1bb429c304b1820fef38251bd30",
        "35a9c1581e6a07b4f660253c4e497d953dce32d00a8c02eaed8533734a8cdd1a"),
    "consistency": (
        dict(experiment="consistency", trials=1, seed=0),
        "3610a72f2a14ad2600db28748a1af17e03e19aa3041fc2d4740c55229b396ce3",
        "a5940d707a0684de567ed3bad492767220ffb11f7331602aa7a3ce745f071bdb"),
    "linear": (
        dict(experiment="linear", trials=1, seed=0),
        "40339964a18fc2da993ace83f07c0da6c101ab58c54381c60e53d2538784dc91",
        "f210320b69d25e9ac587a43ff5e4f955ae90ce6331a521b20183799324647ca2"),
}


class TestPersistence:
    @pytest.mark.parametrize("name", list(PINNED_OUTPUTS))
    def test_persist_and_determinism(self, tmp_path, name):
        fields, csv_sha, plot_sha = PINNED_OUTPUTS[name]
        cfg = ExperimentConfig(**fields)
        report = run(cfg)
        first = persist(cfg, report, tmp_path / "a")
        report2 = run(cfg)
        second = persist(cfg, report2, tmp_path / "b")
        assert first["csv"].read_bytes() == second["csv"].read_bytes()
        assert first["plot"].read_bytes() == second["plot"].read_bytes()
        assert first["config"].read_bytes() == second["config"].read_bytes()
        assert hashlib.sha256(first["csv"].read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(first["plot"].read_bytes()).hexdigest() == plot_sha

    def test_csv_schema_headers(self, tmp_path):
        cfg = ExperimentConfig(experiment="linear", trials=1, seed=0)
        paths = persist(cfg, run(cfg), tmp_path)
        header = paths["csv"].read_text().splitlines()[0]
        assert header == "n,context_or_model,error"

    def test_config_echo_round_trips(self, tmp_path):
        cfg = ExperimentConfig(experiment="thm3", trials=10, seed=3,
                               nlist=(3, 4, 5)).validate()
        paths = persist(cfg, run(cfg), tmp_path)
        loaded = ExperimentConfig.from_file(paths["config"])
        assert loaded.validate().to_lines() == cfg.to_lines()


class TestCli:
    def test_threshold_pass_and_fail(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(["thm3", "--trials", "30", "--seed", "4",
                         "--nlist", "3:10", "--out", str(out),
                         "--threshold", "0.2"])
        assert code == 0
        assert (out / "static.csv").exists()
        assert (out / "plot.dat").exists()
        code = cli.main(["thm3", "--trials", "30", "--seed", "4",
                         "--nlist", "3:10", "--threshold", "0.999"])
        assert code == 1

    def test_bad_config_exit_code(self):
        assert cli.main(["thm1", "--trials", "0"]) == 2

    @pytest.mark.parametrize("experiment", ["thm3", "thm4"])
    def test_negative_seed_is_a_config_error(self, experiment, capsys):
        # refused by validate, before any per-trial seed is derived
        assert cli.main([experiment, "--seed", "-1", "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: seed") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["thm3", "--nlist", "abc"],
        ["thm3", "--q-schedule", "sqrt:x"],
        ["thm1", "--predictor", "dynamic-count:x"],
        ["thm1", "--trials", "abc"],
        ["thm1", "--config", "{tmp}/bad.txt"],
        ["thm1", "--config", "{tmp}/missing.txt"],
        ["thm1", "--predictor", "constant:nan"],
        ["thm1", "--predictor", "constant:inf"],
        ["thm4", "--q-schedule", "const:0"],
        ["thm4", "--q-schedule", "sqrt:-1"],
        ["thm3", "--nlist", "3:5", "--q-schedule", "const:0"],
        ["check-partitions", "--q-schedule", "const:-2"],
        ["consistency", "--nlist", "1"],
        ["linear", "--nlist", "1"],
    ])
    def test_malformed_value_is_a_config_error(self, argv, tmp_path, capsys):
        (tmp_path / "bad.txt").write_text("trials = abc\n")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["linear", "--nlist", "2"],
        ["consistency", "--nlist", "2,5"],
    ])
    def test_smallest_baseline_n_runs(self, argv):
        assert cli.main(argv + ["--trials", "1"]) == 0

    @pytest.mark.parametrize("argv", [
        ["thm1", "--method", "mc:0"],
        ["thm1", "--method", "mc:-5"],
        ["thm1", "--method", "exact:2"],
        ["thm1", "--method", "exact:1"],
        ["thm1", "--method", "exact:-1/10"],
        ["thm1", "--predictor", "dynamic-count:0"],
        ["thm1", "--predictor", "static-count:-1"],
    ])
    def test_out_of_range_attack_setting_is_a_config_error(self, argv,
                                                           capsys):
        # refused before the run, not by a traceback in it
        assert cli.main(argv + ["--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_flags_are_the_config_keys(self):
        keys = {line.split(" = ")[0] for line in ExperimentConfig().to_lines()}
        sub = next(action for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        assert set(sub.choices) == set(harness.EXPERIMENTS)
        for parser in sub.choices.values():
            flags = {opt for action in parser._actions
                     for opt in action.option_strings}
            flags -= {"-h", "--help", "--config"}
            assert {flag[2:] for flag in flags} | {sub.dest} == keys

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("trials = 25\nseed = 9\nnlist = 3:8\n")
        out = tmp_path / "out"
        code = cli.main(["thm3", "--config", str(config), "--trials", "12",
                         "--out", str(out)])
        assert code == 0
        echoed = (out / "config.txt").read_text()
        assert "trials = 12" in echoed      # flag wins
        assert "seed = 9" in echoed         # file value survives

    def test_consistency_cli(self, tmp_path):
        code = cli.main(["consistency", "--nlist", "1000,5000",
                         "--threshold", "0.05"])
        assert code == 0


class TestDerivedSeed:
    """The pure-Python seed hash against numpy's SeedSequence, its oracle."""

    @staticmethod
    def numpy_seed(master, index):
        return int(np.random.SeedSequence([master, index])
                   .generate_state(1)[0])

    @pytest.mark.parametrize("master, index", [
        (0, 0), (5, 0), (0, 5), (2**32, 0), (2**32 - 1, 2**32 - 1),
        (2**64 + 3, 0), (2**64 + 3, 7), (2**100 - 1, 0), (2**100 - 1, 449)])
    def test_named_cases(self, master, index):
        assert harness.derived_seed(master, index) \
            == self.numpy_seed(master, index)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(0, 2**32), st.integers(0, 2**130)),
           st.one_of(st.just(0), st.integers(0, 2**70)))
    def test_matches_numpy(self, master, index):
        assert harness.derived_seed(master, index) \
            == self.numpy_seed(master, index)

    @pytest.mark.parametrize("master, index", [(-1, 0), (0, -1), (-2**64, 3)])
    def test_negative_input_is_refused(self, master, index):
        with pytest.raises(ValueError, match="non-negative"):
            harness.derived_seed(master, index)


def _fresh_python(code: str):
    """Run `code` in a new interpreter that imports the package sources."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=300)


class TestNumpyImport:
    def test_exact_experiments_never_import_numpy(self):
        result = _fresh_python("""
            import sys
            import ergolab, ergolab.cli, ergolab.harness
            for argv in (["thm1", "--kmax", "2"], ["thm2", "--smax", "4"],
                         ["thm3", "--nlist", "3:6"], ["thm4", "--nlist", "4"]):
                assert ergolab.cli.main(argv + ["--trials", "5"]) == 0, argv
            loaded = sorted(m for m in sys.modules if m.startswith("numpy"))
            assert not loaded, loaded
        """)
        assert result.returncode == 0, result.stderr[-2000:]

    def test_a_baseline_imports_numpy_on_first_run(self):
        result = _fresh_python("""
            import sys
            import ergolab.cli
            assert "numpy" not in sys.modules
            assert ergolab.cli.main(["consistency", "--nlist", "100,1000",
                                     "--trials", "1"]) == 0
            assert "numpy" in sys.modules and "ergolab.baselines" in sys.modules
        """)
        assert result.returncode == 0, result.stderr[-2000:]


class TestReportThresholds:
    def test_direction(self):
        ge = Report(schema="attack", columns=("a",), rows=[], stat=0.5,
                    stat_direction="ge")
        assert ge.passed(0.4) and not ge.passed(0.6)
        le = Report(schema="baseline", columns=("a",), rows=[], stat=0.5,
                    stat_direction="le")
        assert le.passed(0.6) and not le.passed(0.4)
        assert ge.passed(None)
