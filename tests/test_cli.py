"""Command-line interface checks: every subcommand, determinism of outputs,
config handling and failure exits."""

import hashlib
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from consumerlab import cli, harness, stats
from consumerlab.cli import main, parse_config_file
from type_csv import read_type_rows

# small world reused across CLI invocations (flags go through --config)
SMALL_CONFIG = """
# compact test world
width = 41
height = 41
n_consumers = 5
n_types = 4
replicas_per_type = 1
ws_degree = 2
cycles = 100
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# gen-types


def test_gen_types_deterministic_bytes(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["gen-types", "--seed", "7", "--count", "10",
                 "--out", str(out_a)]) == 0
    assert main(["gen-types", "--seed", "7", "--count", "10",
                 "--out", str(out_b)]) == 0
    assert read(out_a) == read(out_b)
    assert hashlib.sha256(out_a.read_bytes()).hexdigest() == \
        "fdd928da137fda8c77c803469d940f4e22bb8d97240ada245077627a2fe8ab03"
    rows = read_type_rows(str(out_a))
    assert len(rows) == 10
    assert "pairwise" in capsys.readouterr().out


def test_gen_types_single_row(tmp_path):
    out = tmp_path / "one.csv"
    assert main(["gen-types", "--seed", "3", "--count", "1",
                 "--out", str(out)]) == 0
    assert len(read_type_rows(str(out))) == 1


def test_gen_types_count_resolves_flag_config_default(tmp_path):
    # --count > the config file's n_types > the default of 10
    cfg = tmp_path / "three.cfg"
    cfg.write_text("n_types = 3\n")
    for extra, count in ((["--config", str(cfg)], 3),
                         (["--config", str(cfg), "--count", "4"], 4),
                         ([], 10)):
        out = tmp_path / f"types_{count}.csv"
        assert main(["gen-types", "--seed", "1", "--out", str(out)]
                    + extra) == 0
        assert len(read_type_rows(str(out))) == count


def test_gen_types_infeasible_distance_fails(tmp_path, capsys):
    out = tmp_path / "never.csv"
    # cap the attempt budget so the failure path stays quick
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("max_type_attempts = 64\n")
    code = main(["gen-types", "--seed", "3", "--count", "10",
                 "--min-dist", "999", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "999" in err and "achieved" in err
    assert not os.path.exists(out)


def test_gen_types_names_the_exhausted_attempt_budget(tmp_path, capsys):
    # the distance is feasible (the default budget reaches 10 types at this
    # seed); the attempt budget is the limit that runs out
    out = tmp_path / "short.csv"
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("max_type_attempts = 12\n")
    code = main(["gen-types", "--seed", "7", "--count", "10",
                 "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "max_type_attempts = 12 ran out" in err, err
    assert "achieved 5/10" in err and "not satisfiable" not in err
    assert not os.path.exists(out)


def test_gen_types_reproduces_run_type_stream(tmp_path):
    # the CLI draws from the same named substream a run at that seed uses
    from consumerlab.harness import init_world, RunConfig
    out = tmp_path / "types.csv"
    assert main(["gen-types", "--seed", "5", "--count", "4", "--min-dist",
                 "0.25", "--out", str(out)]) == 0
    rows = read_type_rows(str(out))
    world = init_world(RunConfig(seed=5, width=41, height=41, n_consumers=5,
                                 n_types=4, replicas_per_type=1, ws_degree=2))
    for row, t in zip(rows, world.types):
        assert row["utility"] == t.utility
        assert np.array_equal(row["signature"], t.signature)


# ---------------------------------------------------------------------------
# landscape


def test_landscape_small_sample(tmp_path, capsys):
    out = tmp_path / "scape.csv"
    assert main(["landscape", "--seed", "2", "--samples", "2",
                 "--out", str(out)]) == 0
    rows = read_type_rows(str(out))
    assert len(rows) == 2
    assert "fdc" in capsys.readouterr().out


def test_landscape_fdc_round_trips_through_csv(tmp_path):
    out = tmp_path / "scape.csv"
    assert main(["landscape", "--seed", "9", "--samples", "40",
                 "--out", str(out)]) == 0
    lines = read(out).splitlines()
    summary = [l for l in lines if l.startswith("# fdc =")]
    assert len(summary) == 1
    reported = float(summary[0].split("=", 1)[1].strip())
    rows = read_type_rows(str(out))
    utilities = [r["utility"] for r in rows]
    distances = [float(r["extra"]["nearest_max_dist"]) for r in rows]
    assert stats.fdc(utilities, distances) == reported


def test_landscape_golden_bytes(tmp_path):
    out = tmp_path / "scape.csv"
    assert main(["landscape", "--seed", "7", "--samples", "64",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "af68c6703d7880113b62604a2dbd39dab4b8fbf1f8fd5ace1b8bd0a8209a8c26"


def test_landscape_rejects_tiny_sample(tmp_path):
    assert main(["landscape", "--seed", "2", "--samples", "1",
                 "--out", str(tmp_path / "x.csv")]) == 2


# ---------------------------------------------------------------------------
# run


def test_run_sample_arithmetic(tmp_path, config_file, capsys):
    out = tmp_path / "run.csv"
    assert main(["run", "--seed", "4", "--cycles", "100", "--config",
                 config_file, "--out", str(out)]) == 0
    lines = read(out).splitlines()
    # header + 5 samples x 5 consumers
    assert len(lines) == 1 + 5 * 5
    assert capsys.readouterr().out.strip()


def test_run_social_flag_changes_trace(tmp_path, config_file):
    a = tmp_path / "social.csv"
    b = tmp_path / "nonsocial.csv"
    assert main(["run", "--seed", "4", "--cycles", "1500", "--config",
                 config_file, "--social", "--out", str(a)]) == 0
    assert main(["run", "--seed", "4", "--cycles", "1500", "--config",
                 config_file, "--no-social", "--out", str(b)]) == 0
    assert read(a) != read(b)


def test_run_rejects_invalid_config(tmp_path, config_file):
    code = main(["run", "--seed", "4", "--cycles", "101", "--config",
                 config_file, "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_run_rejects_negative_maxima_radius(tmp_path, config_file, capsys):
    # 0 selects the scaled default radius; a negative one used to as well
    cfg = tmp_path / "negative.cfg"
    cfg.write_text(read(config_file) + "maxima_radius = -1\n")
    out = tmp_path / "x.csv"
    assert main(["run", "--seed", "4", "--cycles", "40", "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert "maxima_radius must be >= 0" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# experiment + analyze


def test_experiment_and_analyze_round_trip(tmp_path, config_file, capsys,
                                           monkeypatch):
    out_dir = tmp_path / "exp"
    assert main(["experiment", "--pairs", "2", "--seed-base", "11",
                 "--config", config_file, "--out-dir", str(out_dir)]) == 0
    names = sorted(os.listdir(out_dir))
    assert "report.csv" in names
    assert "summary.csv" in names
    run_files = [n for n in names if n.startswith("run_")]
    assert sorted(run_files) == ["run_11_nonsocial.csv", "run_11_social.csv",
                                 "run_12_nonsocial.csv", "run_12_social.csv"]
    kde_files = [n for n in names if n.startswith("kde_")]
    assert len(kde_files) == 6

    report = read(out_dir / "report.csv")
    assert report.splitlines()[0] == ",".join(stats.REPORT_HEADER)
    assert len(report.splitlines()) == 6  # header + 5 metrics

    # analyze must reproduce the report byte-exactly from the raw run CSVs,
    # in-process and on a pool of workers
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        re_dir = tmp_path / f"re{cpus}"
        assert main(["analyze", "--in-dir", str(out_dir), "--config",
                     config_file, "--out", str(re_dir / "report.csv")]) == 0
        assert read(re_dir / "report.csv") == report
        for kde in kde_files:
            assert read(re_dir / kde) == read(out_dir / kde)
        assert multiprocessing.active_children() == []


def test_experiment_rerun_byte_identical(tmp_path, config_file):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["experiment", "--pairs", "1", "--seed-base", "3",
                     "--config", config_file, "--out-dir", str(out)]) == 0
    for name in sorted(os.listdir(a)):
        assert read(a / name) == read(b / name), name


# sha256 of every file `experiment --pairs 2 --seed-base 11` writes on
# SMALL_CONFIG; a refactor must reproduce these bytes, and only a deliberate
# model change may re-record them
GOLDEN_EXPERIMENT = {
    "kde_mean_coverage_nonsocial.csv": "956e7ba6195ba77b10c6062af268c91be901f30c24d87974fc1b66930269b8b5",
    "kde_mean_coverage_social.csv": "956e7ba6195ba77b10c6062af268c91be901f30c24d87974fc1b66930269b8b5",
    "kde_mean_path_length_nonsocial.csv": "8b547720beba9bf5641afee6358fa6c669e727c00c4d7a48e33d71485ddf77e2",
    "kde_mean_path_length_social.csv": "8b547720beba9bf5641afee6358fa6c669e727c00c4d7a48e33d71485ddf77e2",
    "kde_mean_units_nonsocial.csv": "5ba8e69dc929c1faff30f9184f59c187b3dc0bb249c4531ca526b12b3e62bb93",
    "kde_mean_units_social.csv": "5ba8e69dc929c1faff30f9184f59c187b3dc0bb249c4531ca526b12b3e62bb93",
    "report.csv": "53a22cef14491f4d8cd0105574e460098290cd8b40e2542431c9551f2137e754",
    "run_11_nonsocial.csv": "bbf9131760e76a880ae2ab10fb0d5e36edc2dc411c663985f14177df1f825e95",
    "run_11_social.csv": "bbf9131760e76a880ae2ab10fb0d5e36edc2dc411c663985f14177df1f825e95",
    "run_12_nonsocial.csv": "358698bfe5f819d25fb1e32bac68550dd6131b5d93a217509872eb94a1d84678",
    "run_12_social.csv": "358698bfe5f819d25fb1e32bac68550dd6131b5d93a217509872eb94a1d84678",
    "summary.csv": "1c6dbb4ed394dca12896f3344e8a764d9b87c23b3d69706c10d1735e634efc15",
}


# 1000 cycles on a denser world with a low frustration limit, fast tie
# decay and a two-consumption utility window, so the social rules fire and
# the two arms' run CSVs differ
LONG_CONFIG = """
width = 61
height = 61
n_consumers = 12
n_types = 8
replicas_per_type = 2
ws_degree = 2
cycles = 1000
frustration_limit = 2
tie_decay = 0.005
utility_window = 2
"""

GOLDEN_EXPERIMENT_LONG = {
    "kde_mean_coverage_nonsocial.csv": "076f80aca60d95f4183f7dbe0dec65c496c22f9cb5ea7b068c79f757356a4540",
    "kde_mean_coverage_social.csv": "03ae955de34a2b58960b0358501f1a9ff9faeb9617973594539023da8bb3a4ec",
    "kde_mean_path_length_nonsocial.csv": "a6e028b7362666e1e5c91e94489817a71691298ef5c9a4e7de3b3d69735d5276",
    "kde_mean_path_length_social.csv": "663c4f05152da62d5625d96ace340d0a763138286f1f6875126afd6664b824dc",
    "kde_mean_units_nonsocial.csv": "69012dce9860345f0c664a4a6e85c74e88ceec75aef3e694ebe7917c9e4ba2b3",
    "kde_mean_units_social.csv": "04658810a49c9c58882a411274a8fc85b84ff9d07b590a420df7fd674b0e521c",
    "report.csv": "94f037a8c3b6e7b3b382a7d0255a4cc9d233dc7267303cd8cdb0777c903740e3",
    "run_11_nonsocial.csv": "7b188066260050b2399b47da966e4c49566588e590ea2a85c0cc198ca319bbb5",
    "run_11_social.csv": "e9383c60b5c71412b52a2d6e83e4e8f221944d8e0bfa95341f455cd5a3905084",
    "run_12_nonsocial.csv": "a0991df74943876a0d679ce210f4c65edfa24d581533bad08f761439df27a350",
    "run_12_social.csv": "bea4e4c267974139f981b57d583e45dca783169694bd66f8cf8555acdc7d4718",
    "summary.csv": "3e8a9842cfc5c13fd50ba8329d719085319d57f34d57a6ec87270b7db6ac944b",
}


GOLDEN_ARGV = ["experiment", "--pairs", "2", "--seed-base", "11"]


def dir_digests(out_dir):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out_dir))}


def experiment_digests(out_dir, config_path):
    assert main(GOLDEN_ARGV + ["--config", config_path,
                               "--out-dir", str(out_dir)]) == 0
    return dir_digests(out_dir)


def test_experiment_golden_bytes(tmp_path, config_file):
    assert experiment_digests(tmp_path / "golden", config_file) \
        == GOLDEN_EXPERIMENT


def test_experiment_golden_bytes_long(tmp_path):
    path = tmp_path / "long.cfg"
    path.write_text(LONG_CONFIG)
    digests = experiment_digests(tmp_path / "golden", str(path))
    assert digests == GOLDEN_EXPERIMENT_LONG
    assert digests["run_11_social.csv"] != digests["run_11_nonsocial.csv"]


def test_experiment_bytes_ignore_the_hash_seed(tmp_path):
    # str hashes, and so set and dict orders built from them, follow
    # PYTHONHASHSEED: the long golden must come out under any of them
    path = tmp_path / "long.cfg"
    path.write_text(LONG_CONFIG)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    procs = {}
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        procs[hash_seed] = subprocess.Popen(
            [sys.executable, "-m", "consumerlab.cli", *GOLDEN_ARGV,
             "--config", str(path), "--out-dir", str(tmp_path / hash_seed)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for hash_seed, proc in procs.items():
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        assert dir_digests(tmp_path / hash_seed) == GOLDEN_EXPERIMENT_LONG, \
            hash_seed


SITUATIONS = ("dissatisfied", "bored", "interact", "find_friend",
              "change_location", "change_values")


def test_long_golden_sets_every_situation(tmp_path, monkeypatch,
                                         recording_pool):
    # the long golden gates every rule only if every situation fires in it:
    # count the evaluations after which each flag is set, per seed and arm
    # (the wrapper reads the flags and draws nothing); the recording pool
    # runs both arms in-process, where they count
    path = tmp_path / "long.cfg"
    path.write_text(LONG_CONFIG)
    config = cli.build_config(str(path), {})
    counts = {}
    evaluate = harness.evaluate_situations

    def counting(consumer, world):
        evaluate(consumer, world)
        arm = counts[(world.config.seed, world.social)]
        for name in SITUATIONS:
            arm[name] += getattr(consumer, name)
    monkeypatch.setattr(harness, "evaluate_situations", counting)
    for seed in (11, 12):
        for social in (True, False):
            counts[(seed, social)] = dict.fromkeys(SITUATIONS, 0)
        harness.run_pair(seed, config, workers=2)
    assert [pool.max_workers for pool in recording_pool] == [2, 2]
    for name in SITUATIONS:
        assert sum(arm[name] for arm in counts.values()) > 0, (name, counts)
    for seed in (11, 12):
        assert counts[(seed, False)]["interact"] == 0
        assert counts[(seed, False)]["find_friend"] == 0


def test_experiment_makes_out_dir_before_running_pairs(tmp_path, config_file,
                                                       monkeypatch, capsys):
    # an --out-dir that cannot be made must fail before any pair is run
    taken = tmp_path / "taken"
    taken.write_text("")

    def refuse(*args, **kwargs):
        raise AssertionError("pairs ran before the output directory existed")
    monkeypatch.setattr(cli, "batch", refuse)
    assert main(["experiment", "--pairs", "2", "--config", config_file,
                 "--out-dir", str(taken)]) == 1
    assert "File exists" in capsys.readouterr().err


@pytest.mark.parametrize("flags, workers", [([], 3), (["--workers", "2"], 2)])
def test_experiment_workers_default_to_the_usable_cpus(
        tmp_path, config_file, monkeypatch, flags, workers):
    monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
    seen = []

    def recording_batch(*args, workers):
        seen.append(workers)
        return harness.batch(*args, workers=workers)
    monkeypatch.setattr(cli, "batch", recording_batch)
    assert main(["experiment", "--pairs", "1", *flags, "--config",
                 config_file, "--out-dir", str(tmp_path / "exp")]) == 0
    assert seen == [workers]


@pytest.mark.parametrize("flags, status, message", [
    (["--pairs", "0"], 1, "error: n_pairs must be >= 1"),
    (["--seed-base", "-1"], 2, "error: invalid configuration: seed must be >= 0"),
    (["--seed-base", "-1", "--pairs", "2", "--workers", "2"], 2,
     "error: invalid configuration: seed must be >= 0"),
    (["--workers", "0"], 1, "error: workers must be >= 1"),
    (["--workers", "-3"], 1, "error: workers must be >= 1"),
])
def test_experiment_rejects_bad_pairs_before_making_out_dir(
        tmp_path, config_file, capsys, flags, status, message):
    out_dir = tmp_path / "never"
    assert main(["experiment", *flags, "--config", config_file,
                 "--out-dir", str(out_dir)]) == status
    assert capsys.readouterr().err.splitlines()[-1] == message
    assert not out_dir.exists()


def test_experiment_single_pair_marks_insufficient_n(tmp_path, config_file):
    out_dir = tmp_path / "exp1"
    assert main(["experiment", "--pairs", "1", "--seed-base", "5",
                 "--config", config_file, "--out-dir", str(out_dir)]) == 0
    rows = read(out_dir / "report.csv").splitlines()[1:]
    for row in rows:
        assert "insufficient-n" in row


def test_analyze_empty_directory_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["analyze", "--in-dir", str(empty),
                 "--out", str(tmp_path / "r.csv")]) == 1
    assert "no run_" in capsys.readouterr().err


def test_analyze_incomplete_pair_fails(tmp_path, config_file, capsys):
    out_dir = tmp_path / "exp"
    assert main(["experiment", "--pairs", "1", "--seed-base", "8",
                 "--config", config_file, "--out-dir", str(out_dir)]) == 0
    os.unlink(out_dir / "run_8_nonsocial.csv")
    assert main(["analyze", "--in-dir", str(out_dir),
                 "--out", str(tmp_path / "r.csv")]) == 1
    assert "8" in capsys.readouterr().err


@pytest.mark.parametrize("alias", ["run_07_social.csv", "run_٧_social.csv"])
@pytest.mark.parametrize("with_canonical", [True, False])
def test_analyze_rejects_aliased_seed(tmp_path, config_file, capsys, alias,
                                      with_canonical):
    # a second file for seed 7's social arm used to replace the first, and
    # analyze reported one pair fewer with exit 0
    out_dir = tmp_path / "exp"
    assert main(["experiment", "--pairs", "1", "--seed-base", "7",
                 "--config", config_file, "--out-dir", str(out_dir)]) == 0
    os.link(out_dir / "run_7_social.csv", out_dir / alias)
    if not with_canonical:
        os.unlink(out_dir / "run_7_social.csv")
    assert main(["analyze", "--in-dir", str(out_dir), "--config", config_file,
                 "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert alias in err and "run_7_social.csv" in err, err
    assert not (tmp_path / "r.csv").exists()


def test_analyze_truncated_run_csv_fails(tmp_path, config_file, capsys,
                                         monkeypatch):
    out_dir = tmp_path / "exp"
    assert main(["experiment", "--pairs", "2", "--seed-base", "8",
                 "--config", config_file, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    victims = [out_dir / "run_8_social.csv", out_dir / "run_9_social.csv"]
    lines = read(victims[0]).splitlines(keepends=True)
    bad_cell = lines[3].split(",")
    bad_cell[2] = "x"
    # truncated, a non-numeric cell on line 4, header only; seed 9's file
    # is broken too, and the lower seed's is the one named, on any number
    # of workers
    for text, named in (("".join(lines[:-2]), "run_8_social.csv:"),
                        ("".join(lines[:3] + [",".join(bad_cell)] + lines[4:]),
                         "run_8_social.csv:4"),
                        (lines[0], "run_8_social.csv")):
        for victim in victims:
            victim.write_text(text)
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
            assert main(["analyze", "--in-dir", str(out_dir), "--config",
                         config_file, "--out", str(tmp_path / "r.csv")]) == 1
            errors.append(capsys.readouterr().err)
            assert not (tmp_path / "r.csv").exists()
            assert multiprocessing.active_children() == []
        assert named in errors[0], errors[0]
        assert errors[1] == errors[0]


def test_analyze_names_a_run_csv_that_is_not_utf8(tmp_path, config_file,
                                                 capsys):
    # the decoder's message used to stand alone, without the file
    out_dir = tmp_path / "exp"
    assert main(["experiment", "--pairs", "1", "--seed-base", "8",
                 "--config", config_file, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    victim = out_dir / "run_8_social.csv"
    lines = victim.read_bytes().splitlines(keepends=True)
    lines[-1] = lines[-1].replace(b",", b"\xff,", 1)
    victim.write_bytes(b"".join(lines))
    assert main(["analyze", "--in-dir", str(out_dir), "--config", config_file,
                 "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"error: {victim}:{len(lines)}: not UTF-8 text (invalid start byte)"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("cpus, workers", [(1, None), (3, 3), (500, 4)])
def test_analyze_forks_one_worker_per_usable_cpu(
        tmp_path, config_file, monkeypatch, recording_pool, cpus, workers):
    # four run files: no more workers than files, and none at all on one CPU
    out_dir = tmp_path / "exp"
    assert main(["experiment", "--pairs", "2", "--seed-base", "11",
                 "--workers", "1", "--config", config_file,
                 "--out-dir", str(out_dir)]) == 0
    monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
    assert main(["analyze", "--in-dir", str(out_dir), "--config", config_file,
                 "--out", str(tmp_path / "r.csv")]) == 0
    assert [pool.max_workers for pool in recording_pool] == \
        ([] if workers is None else [workers])
    assert read(tmp_path / "r.csv") == read(out_dir / "report.csv")


# ---------------------------------------------------------------------------
# configuration plumbing


def test_config_file_parsing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 9   # comment\n\n# full line comment\nsocial = false\n")
    assert parse_config_file(str(path)) == {"seed": "9", "social": "false"}


def test_repeated_config_key_rejected(tmp_path, capsys):
    # the file's last value used to win silently
    path = tmp_path / "c.cfg"
    path.write_text("cycles = 100\n# shorter\ncycles = 40\n")
    out = tmp_path / "x.csv"
    assert main(["run", "--seed", "1", "--config", str(path),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: {path}:3: cycles is already set on line 1\n"
    assert not out.exists()


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_config_file_that_is_not_utf8_is_named(tmp_path, capsys, newline):
    # lines are counted as the parser counts them, whatever the line ends
    path = tmp_path / "c.cfg"
    path.write_bytes(newline.join([b"# ok", b"cycles = 100", b"\xff = 1", b""]))
    out = tmp_path / "x.csv"
    assert main(["run", "--seed", "1", "--config", str(path),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: {path}:3: not UTF-8 text (invalid start byte)\n"
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    # relax_step is a removed key: a config file that still sets it fails
    path = tmp_path / "c.cfg"
    for key in ("no_such_knob", "relax_step"):
        path.write_text(f"{key} = 0.01\n")
        code = main(["run", "--seed", "1", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert f"unknown configuration key: {key}" in capsys.readouterr().err


def test_malformed_config_line_rejected(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    for text, named in (("just some words\n", "c.cfg:1"),
                        ("cycles = lots\n", "cycles"),
                        ("social = maybe\n", "social")):
        path.write_text(text)
        assert main(["run", "--seed", "1", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "c.cfg" in err and named in err, err


@pytest.mark.parametrize("command, text, key", [
    (["gen-types", "--seed", "1", "--out", "OUT"], "seed = 42\n", "seed"),
    (["landscape", "--seed", "1", "--samples", "20", "--out", "OUT"],
     "seed = 42\n", "seed"),
    (["run", "--seed", "1", "--out", "OUT"], "seed = 42\n", "seed"),
    (["experiment", "--pairs", "1", "--out-dir", "OUT"], "seed = 42\n", "seed"),
    (["experiment", "--pairs", "1", "--out-dir", "OUT"], "social = false\n",
     "social"),
    (["analyze", "--in-dir", ".", "--out", "OUT"], "seed = 42\n", "seed"),
    (["landscape", "--seed", "1", "--samples", "20", "--out", "OUT"],
     "n_types = 3\n", "n_types"),
    (["landscape", "--seed", "1", "--samples", "20", "--out", "OUT"],
     "min_type_distance = 0.5\n", "min_type_distance"),
    (["landscape", "--seed", "1", "--samples", "20", "--out", "OUT"],
     "max_type_attempts = 64\n", "max_type_attempts"),
], ids=["gen-types", "landscape", "run", "experiment-seed", "experiment-social",
        "analyze", "landscape-n_types", "landscape-min_type_distance",
        "landscape-max_type_attempts"])
def test_config_keys_the_command_sets_are_rejected(tmp_path, capsys, command,
                                                   text, key):
    # flags (or the run file names) always decide these keys: a config file
    # that sets one would be silently overridden
    path = tmp_path / "c.cfg"
    path.write_text("cycles = 40\n" + text)
    out = tmp_path / "out"
    argv = [str(out) if arg == "OUT" else arg for arg in command]
    assert main(argv + ["--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {key} cannot be set in a config "
                          f"file: "), err
    assert not out.exists()


def test_flags_override_config_file(tmp_path, config_file):
    out = tmp_path / "run.csv"
    # config says 100 cycles; flag forces 40 -> 2 samples x 3 consumers
    assert main(["run", "--seed", "4", "--cycles", "40", "--config",
                 config_file, "--out", str(out)]) == 0
    assert len(read(out).splitlines()) == 1 + 2 * 5
