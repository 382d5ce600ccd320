"""End-to-end checks of the command-line surface."""

import contextlib
import hashlib
import json
import os
import re
import signal
import stat
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import clozereader
from clozereader import BLAS_THREAD_VARS, ClozereaderError, write_lines
from clozereader.cbtio import read_examples, write_examples
from clozereader.cli import (
    CliError,
    main,
    parse_config_file,
    print_report,
    read_predictions_file,
)
from clozereader.clozegen import ClozeExample
from clozereader.corpus import TokenizedBook
from clozereader.ensemble import SPEC_HEADER, read_ensemble_spec, write_ensemble_spec
from clozereader.synthdata import write_fixture_library
from clozereader.tagger import read_pretagged
from clozereader.training import TrainConfig, TrainingDivergedError, load_checkpoint, train
from clozereader.vocab import encode_dataset, load_vocab, save_vocab

LOG_LINE = re.compile(r"^\d+\t[^\t]+\t\d\.\d{6}\t\d+\.\d{3}$")
PREDICTION_LINE = re.compile(r"^\d+\t\S+\t[01]$")

TRAIN_CONFIG = """\
# tiny reader for smoke runs
embedding_dim = 16
hidden_units = 16
recurrent_layers = 1
learning_rate = 0.003
batch_size = 24
max_epochs = 2
patience = 10
vocab_cap = 300
anon_count = 60
"""


def report_dict(tsv_path):
    rows = {}
    for line in Path(tsv_path).read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("\t")
        rows[key] = value
    return rows


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory, fixture_library):
    """Generated datasets plus two small trained checkpoints, shared by
    the tests: the same generate -> train -> evaluate path an operator
    would walk."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    rc = main([
        "generate", "--books", str(fixture_library), "--type", "ne",
        "--out", str(data_dir), "--seed", "3", "--splits", "0.6,0.2,0.2",
    ])
    assert rc == 0
    train_path = data_dir / "ne_train.txt"
    valid_path = data_dir / "ne_valid.txt"
    config_path = root / "reader.cfg"
    config_path.write_text(TRAIN_CONFIG, encoding="utf-8")
    checkpoints = {}
    for tag, seed in (("a", 5), ("b", 6)):
        out = root / f"model_{tag}.ckpt"
        rc = main([
            "train",
            "--train", str(train_path),
            "--valid", str(valid_path),
            "--config", str(config_path),
            "--out", str(out),
            "--seed", str(seed),
            "--log", str(root / f"train_{tag}.log"),
            "--tsv", str(root / f"train_{tag}.tsv"),
        ])
        assert rc == 0
        checkpoints[tag] = out
    return root, train_path, valid_path, config_path, checkpoints


# ------------------------------------------------------------------- train


def test_train_writes_checkpoint_log_and_report(cli_workspace):
    root, train_path, _, _, checkpoints = cli_workspace
    assert checkpoints["a"].read_bytes()[:4] == b"CLZR"
    log_lines = (root / "train_a.log").read_text(encoding="utf-8").splitlines()
    assert log_lines
    for line in log_lines:
        assert LOG_LINE.match(line), line
    report = report_dict(root / "train_a.tsv")
    assert report["checkpoint"] == str(checkpoints["a"])
    assert 0.0 <= float(report["best_validation_accuracy"]) <= 1.0
    n_train = len(read_examples(train_path))
    assert int(report["steps"]) == -(-n_train // 24) * 2  # 2 epochs of batch 24
    assert int(report["epochs"]) == 2


def test_train_pins_blas_to_one_thread_unless_a_count_is_set(cli_workspace, tmp_path):
    # A BLAS pool splits its sums by thread: an unpinned run wrote other bytes.
    root, train_path, valid_path, config_path, _ = cli_workspace
    src = str(Path(clozereader.__file__).parents[1])
    checkpoints = []
    for pinned in (False, True):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env.update(dict.fromkeys(BLAS_THREAD_VARS, "1") if pinned else {}, PYTHONPATH=src)
        out = tmp_path / f"pinned-{pinned}.ckpt"
        run = subprocess.run([sys.executable, "-m", "clozereader.cli", "train",
                              "--train", str(train_path), "--valid", str(valid_path),
                              "--config", str(config_path), "--out", str(out), "--seed", "5"],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        checkpoints.append(out.read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_train_rejects_unknown_config_key(cli_workspace, tmp_path, capsys):
    _, train_path, valid_path, _, _ = cli_workspace
    config = tmp_path / "bad.cfg"
    config.write_text("bogus_knob=3\n", encoding="utf-8")
    rc = main([
        "train", "--train", str(train_path), "--valid", str(valid_path),
        "--config", str(config), "--out", str(tmp_path / "m.ckpt"),
    ])
    assert rc == 1
    assert "unknown config key 'bogus_knob'" in capsys.readouterr().err


@pytest.mark.parametrize("setting, message", [
    ("vocab_cap = -1", "cap must be at least 0, got -1"),
    ("embedding_dim = 0", "embedding_dim must be positive"),
    ("hidden_units = 0", "hidden_units must be positive"),
    ("hidden_units = -1", "hidden_units must be positive"),
    ("recurrent_layers = 0", "recurrent_layers must be positive"),
    ("learning_rate = nan", "learning_rate must be positive and finite"),
    ("learning_rate = inf", "learning_rate must be positive and finite"),
], ids=["vocab_cap", "embedding_dim", "hidden_units", "negative_hidden_units",
        "recurrent_layers", "nan_learning_rate", "inf_learning_rate"])
def test_train_rejects_negative_vocab_cap(cli_workspace, tmp_path, capsys, setting, message):
    _, train_path, valid_path, _, _ = cli_workspace
    config = tmp_path / "bad.cfg"
    config.write_text(setting + "\n", encoding="utf-8")
    out = tmp_path / "m.ckpt"
    rc = main([
        "train", "--train", str(train_path), "--valid", str(valid_path),
        "--config", str(config), "--out", str(out),
    ])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ("hidden_units = 0", "hidden_units must be positive"),
    ("batch_size = 0", "batch_size must be positive"),
    ("eval_every = 0", "eval_every must be positive"),
    ("learning_rate = inf", "learning_rate must be positive and finite"),
    ("vocab_cap = -1", "vocabulary cap must be at least 0, got -1"),
    ("anon_count = 1.5", "invalid literal for int() with base 10: '1.5'"),
    ("query_init = maybe", "config key query_init: expected a boolean, got 'maybe'"),
], ids=["hidden_units", "batch_size", "eval_every", "learning_rate", "vocab_cap", "anon_count",
        "query_init"])
def test_a_bad_config_value_is_named_by_file_and_line(cli_workspace, tmp_path, capsys,
                                                      setting, message):
    _, train_path, valid_path, _, _ = cli_workspace
    config, out = tmp_path / "bad.cfg", tmp_path / "out"
    config.write_text(f"# reader\n{setting}\nembedding_dim = 4\n", encoding="utf-8")
    out.mkdir()
    rc = main([
        "train", "--train", str(train_path), "--valid", str(valid_path),
        "--config", str(config), "--out", str(out / "m.ckpt"), "--log", str(out / "log"),
        "--tsv", str(out / "report.tsv"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {config}:2: {message}\n"
    assert not list(out.iterdir())


def test_a_repeated_config_key_is_named_by_both_lines(cli_workspace, tmp_path, capsys):
    _, train_path, valid_path, _, _ = cli_workspace
    config, out = tmp_path / "twice.cfg", tmp_path / "out"
    config.write_text("# reader\nhidden_units = 32\nembedding_dim = 4\nhidden_units = 64\n",
                      encoding="utf-8")
    out.mkdir()
    rc = main([
        "train", "--train", str(train_path), "--valid", str(valid_path),
        "--config", str(config), "--out", str(out / "m.ckpt"), "--log", str(out / "log"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {config}:4: duplicate config key 'hidden_units' (first set on line 2)\n")
    assert not list(out.iterdir())


def test_train_resume_rejects_a_conflicting_model_key(cli_workspace, tmp_path, capsys):
    _, train_path, valid_path, config_path, checkpoints = cli_workspace
    config = tmp_path / "resume.cfg"
    config.write_text("hidden_units = 8\nanon_count = 60\n", encoding="utf-8")
    out = tmp_path / "resumed.ckpt"
    rc = main([
        "train", "--train", str(train_path), "--valid", str(valid_path),
        "--config", str(config), "--resume", str(checkpoints["a"]),
        "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "hidden_units" in err and "8" in err and "16" in err
    assert not out.exists()
    # Equal values are accepted, so the training config can be reused.
    rc = main([
        "train", "--train", str(train_path), "--valid", str(valid_path),
        "--config", str(config_path), "--resume", str(checkpoints["a"]),
        "--out", str(out),
    ])
    assert rc == 0
    assert out.exists()


def test_a_train_that_fails_before_its_first_line_leaves_the_log_as_it_was(
        cli_workspace, tmp_path, capsys):
    # An answer absent from its document fails in ``make_batches``, before step 1.
    _, _, valid_path, _, _ = cli_workspace
    examples = read_examples(valid_path)
    first = examples[0]
    examples[0] = ClozeExample(first.context, first.question, "Zzyzx",
                               [c if c != first.answer else "Zzyzx" for c in first.candidates])
    bad = tmp_path / "bad.txt"
    write_examples(examples, bad)
    kept, fresh = tmp_path / "kept.log", tmp_path / "fresh.log"
    kept.write_bytes(b"1\t2.5\t0.100000\t0.1\n")
    for log in (kept, fresh):
        rc = main(["train", "--train", str(bad), "--valid", str(valid_path),
                   "--out", str(tmp_path / "m.ckpt"), "--log", str(log)])
        assert rc == 1
        assert "absent from its document" in capsys.readouterr().err
    assert kept.read_bytes() == b"1\t2.5\t0.100000\t0.1\n"
    assert not fresh.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "kept.log"]


def test_diverged_training_exits_2(cli_workspace, tmp_path, monkeypatch, capsys):
    _, train_path, valid_path, _, _ = cli_workspace

    def explode(*args, **kwargs):
        raise TrainingDivergedError("loss went non-finite at step 0")

    monkeypatch.setattr("clozereader.cli.run_training", explode)
    rc = main([
        "train", "--train", str(train_path), "--valid", str(valid_path),
        "--out", str(tmp_path / "m.ckpt"),
    ])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_learning_rate_that_overflows_a_pass_diverges(cli_workspace, tmp_path, monkeypatch,
                                                         capsys, cpus):
    # Adam's first step moves each weight by about 1e300, so the next pass
    # overflows; its saturated tanh units would keep every loss finite.
    _, _, valid_path, _, _ = cli_workspace
    questions, config, out = tmp_path / "q.txt", tmp_path / "c.cfg", tmp_path / "out"
    write_examples(read_examples(valid_path)[:4], questions)
    config.write_text("embedding_dim = 4\nhidden_units = 4\nrecurrent_layers = 1\n"
                      "batch_size = 2\neval_every = 2\nlearning_rate = 1e300\n", encoding="utf-8")
    out.mkdir()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--train", str(questions), "--valid", str(questions),
                   "--config", str(config), "--out", str(out / "m.ckpt"),
                   "--log", str(out / "log.txt")])
    assert rc == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch(
        r"error: non-finite overflow encountered in \w+ at step \d+", err[0]), err
    # The evaluation after step 0 met the overflow: nothing was saved but the diagnosis.
    assert sorted(p.name for p in out.iterdir()) == ["m.ckpt.diverged"]
    assert load_checkpoint(str(out / "m.ckpt.diverged"))[1] == {"step": 1}


def group_members(pgid):
    """The pids of the processes of group ``pgid`` that have not exited."""
    members = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, _, group = fh.read().rsplit(") ", 1)[1].split()[:3]
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(group) == pgid and state not in "ZX":
            members.append(int(entry))
    return members


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
                    or not os.path.isdir("/proc/self"), reason="needs 2 CPUs and /proc")
def test_ctrl_c_leaves_whole_outputs_and_no_child(cli_workspace, tmp_path):
    # Ctrl-C reaches the whole process group: the parent, its training
    # worker and any child of a validation pass.  The run evaluates every
    # eight examples, on and on, until the interrupt.
    _, train_path, valid_path, _, _ = cli_workspace
    config = tmp_path / "c.cfg"
    config.write_text("embedding_dim = 16\nhidden_units = 16\nrecurrent_layers = 1\n"
                      "batch_size = 8\neval_every = 8\nmax_epochs = 1000\npatience = 100000\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(clozereader.__file__).parents[1]),
               **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    run = subprocess.Popen([sys.executable, "-m", "clozereader.cli", "train",
                            "--train", str(train_path), "--valid", str(valid_path),
                            "--config", str(config), "--out", str(out / "m.ckpt"),
                            "--log", str(out / "log.txt")],
                           env=env, start_new_session=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (out / "log.txt").exists() and run.poll() is None:
            assert time.monotonic() < deadline, "no log line within 60 s"
            time.sleep(0.01)
        os.killpg(run.pid, signal.SIGINT)
        assert run.wait(timeout=30) == -signal.SIGINT
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(run.pid, signal.SIGKILL)
        run.wait(timeout=60)
    assert group_members(run.pid) == []
    load_checkpoint(str(out / "m.ckpt"))
    lines = (out / "log.txt").read_text(encoding="utf-8").splitlines()
    assert lines and all(LOG_LINE.match(line) for line in lines), lines
    assert sorted(p.name for p in out.iterdir()) == ["log.txt", "m.ckpt"]


# Each subcommand's required arguments, and the flags of its outputs.  The
# inputs need not exist: the outputs are checked before any input is read.
OUTPUT_CASES = {
    "generate": (["--books", "books", "--type", "ne", "--out", "data"], ["--tsv"]),
    "stats": (["--data", "d.txt"], ["--tsv"]),
    "train": (["--train", "t.txt", "--valid", "v.txt", "--out", "m.ckpt"],
              ["--out", "--log", "--tsv"]),
    "evaluate": (["--model", "m.ckpt", "--data", "d.txt"], ["--predictions-out", "--tsv"]),
    "select-ensemble": (["--models", "m.ckpt", "--valid", "v.txt", "--out", "spec.txt"],
                        ["--out", "--tsv"]),
    "export-errors": (["--predictions", "p.txt", "--data", "d.txt", "--out", "study.txt"],
                      ["--out", "--tsv"]),
    "union-accuracy": (["--predictions-a", "a.txt", "--predictions-b", "b.txt"], ["--tsv"]),
}


@pytest.mark.parametrize("path", ["missing/out.txt", "taken"], ids=["missing_dir", "is_dir"])
@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (_, flags) in OUTPUT_CASES.items() for flag in flags
], ids=lambda value: value.lstrip("-"))
def test_every_output_is_checked_before_the_work(tmp_path, monkeypatch, capsys,
                                                  command, flag, path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").mkdir()
    calls = []
    monkeypatch.setattr(f"clozereader.cli.cmd_{command.replace('-', '_')}", calls.append)
    required, _ = OUTPUT_CASES[command]
    rc = main([command, *required, flag, path])  # the last --out wins
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not calls
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert not list((tmp_path / "taken").iterdir())


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (_, flags) in OUTPUT_CASES.items() for flag in flags
], ids=lambda value: value.lstrip("-"))
def test_an_output_that_is_not_a_regular_file_is_rejected_before_the_work(
        tmp_path, monkeypatch, capsys, command, flag):
    # A FIFO stands for any special file: a checkpoint saved over it would
    # replace it, and a report written to it would block without a reader.
    monkeypatch.chdir(tmp_path)
    os.mkfifo("fifo")
    calls = []
    monkeypatch.setattr(f"clozereader.cli.cmd_{command.replace('-', '_')}", calls.append)
    required, _ = OUTPUT_CASES[command]
    assert main([command, *required, flag, "fifo"]) == 1  # the last --out wins
    assert capsys.readouterr().err == "error: fifo: is not a regular file\n"
    assert not calls
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]
    assert stat.S_ISFIFO(os.stat("fifo").st_mode)


# Outputs the matrix above cannot take: generate --out may be missing or a
# directory, but no regular file may lie on its path, and export-errors
# also writes OUT.key.
@pytest.mark.parametrize("argv, bad", [
    (["generate", "--books", "b", "--type", "ne", "--out", "afile"], "afile"),
    (["generate", "--books", "b", "--type", "ne", "--out", "afile/data"], "afile/data"),
    (["generate", "--books", "b", "--type", "ne", "--out", "afile",
      "--tsv", "afile/report.tsv"], "afile"),
    (["export-errors", "--predictions", "p.txt", "--data", "d.txt",
      "--out", "study.txt"], "study.txt.key"),
], ids=["generate-out-is_file", "generate-out-under_file", "generate-tsv-in_file",
        "export-errors-key-is_dir"])
def test_generate_out_and_the_answer_key_are_checked_before_the_work(
        tmp_path, monkeypatch, capsys, argv, bad):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("kept\n", encoding="utf-8")
    (tmp_path / "study.txt.key").mkdir()
    calls = []
    monkeypatch.setattr(f"clozereader.cli.cmd_{argv[0].replace('-', '_')}", calls.append)
    rc = main(argv)
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not calls
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "study.txt.key"]
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "kept\n"
    assert not list((tmp_path / "study.txt.key").iterdir())


# Two outputs of one command that name one file: the later write would
# silently replace the earlier one.
@pytest.mark.parametrize("argv, bad", [
    (["train", "--train", "t.txt", "--valid", "v.txt", "--out", "m.ckpt",
      "--tsv", "m.ckpt"], "m.ckpt"),
    (["train", "--train", "t.txt", "--valid", "v.txt", "--out", "X", "--log", "./X"], "X"),
    (["generate", "--books", "b", "--type", "ne", "--out", "g",
      "--tsv", "g/ne_train.txt"], "g/ne_train.txt"),
    (["export-errors", "--predictions", "p.txt", "--data", "d.txt", "--out", "s.txt",
      "--tsv", "s.txt.key"], "s.txt.key"),
    (["evaluate", "--model", "m.ckpt", "--data", "d.txt", "--predictions-out", "q.txt",
      "--tsv", "q.txt"], "q.txt"),
], ids=["train-out-tsv", "train-out-log", "generate-tsv-split", "export-errors-tsv-key",
        "evaluate-predictions-tsv"])
def test_two_outputs_that_name_one_file_are_rejected_before_the_work(
        tmp_path, monkeypatch, capsys, argv, bad):
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(f"clozereader.cli.cmd_{argv[0].replace('-', '_')}", calls.append)
    rc = main(argv)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bad}: is also another output of this command\n"
    assert not calls
    assert not list(tmp_path.iterdir())


# An output that names one of the command's input files would replace the
# input; train --out over its --resume checkpoint is the one exception.
@pytest.mark.parametrize("argv, bad, flag", [
    (["export-errors", "--predictions", "p.txt", "--data", "d.txt", "--out", "p.txt"],
     "p.txt", "predictions"),
    (["export-errors", "--predictions", "s.txt.key", "--data", "d.txt", "--out", "s.txt"],
     "s.txt.key", "predictions"),
    (["evaluate", "--model", "m.ckpt", "--data", "d.txt", "--predictions-out", "./d.txt"],
     "d.txt", "data"),
    (["evaluate", "--ensemble", "e.spec", "--data", "d.txt", "--tsv", "e.spec"],
     "e.spec", "ensemble"),
    (["select-ensemble", "--models", "a.ckpt", "m.ckpt", "--valid", "v.txt",
      "--out", "m.ckpt"], "m.ckpt", "models"),
    (["train", "--train", "t.txt", "--valid", "v.txt", "--out", "v.txt"], "v.txt", "valid"),
    (["train", "--train", "t.txt", "--valid", "v.txt", "--resume", "m.ckpt",
      "--out", "n.ckpt", "--log", "m.ckpt"], "m.ckpt", "resume"),
    (["stats", "--data", "d.txt", "--tsv", "d.txt"], "d.txt", "data"),
    (["union-accuracy", "--predictions-a", "a.txt", "--predictions-b", "b.txt",
      "--tsv", "b.txt"], "b.txt", "predictions-b"),
    (["generate", "--books", "b", "--type", "ne", "--blocklist", "g/ne_test.txt",
      "--out", "g"], "g/ne_test.txt", "blocklist"),
], ids=["export-errors-out", "export-errors-key", "evaluate-predictions", "evaluate-tsv",
        "select-ensemble-out", "train-out", "train-log", "stats-tsv", "union-accuracy-tsv",
        "generate-split"])
def test_an_output_that_names_an_input_is_rejected_before_the_work(
        tmp_path, monkeypatch, capsys, argv, bad, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g").mkdir()
    (tmp_path / bad).write_bytes(b"input\tbytes\n")
    calls = []
    monkeypatch.setattr(f"clozereader.cli.cmd_{argv[0].replace('-', '_')}", calls.append)
    rc = main(argv)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bad}: is also the --{flag} input of this command\n"
    assert not calls
    assert (tmp_path / bad).read_bytes() == b"input\tbytes\n"


def test_train_may_replace_the_checkpoint_it_resumes_from(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr("clozereader.cli.cmd_train", lambda args: calls.append(args) or [])
    rc = main(["train", "--train", "t.txt", "--valid", "v.txt", "--resume", "m.ckpt",
               "--out", "./m.ckpt"])
    assert rc == 0
    assert len(calls) == 1


# evaluate --ensemble reads its spec before the work, so no output may
# replace a checkpoint the spec lists either.
@pytest.mark.parametrize("output", [["--predictions-out", "./m.ckpt"], ["--tsv", "m.ckpt"]],
                         ids=["predictions-out", "tsv"])
def test_an_output_that_names_a_listed_checkpoint_is_rejected_before_the_work(
        tmp_path, monkeypatch, capsys, output):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.ckpt").write_bytes(b"checkpoint bytes")
    write_ensemble_spec("e.spec", ["a.ckpt", "m.ckpt"], 0.5)
    calls = []
    monkeypatch.setattr("clozereader.cli.cmd_evaluate", lambda args: calls.append(args) or [])
    rc = main(["evaluate", "--ensemble", "e.spec", "--data", "d.txt", *output])
    assert rc == 1
    assert capsys.readouterr().err == "error: m.ckpt: is also a checkpoint that e.spec lists\n"
    assert not calls
    assert (tmp_path / "m.ckpt").read_bytes() == b"checkpoint bytes"


# ---------------------------------------------------------------- evaluate


def test_evaluate_reports_accuracy_and_baselines(cli_workspace, tmp_path, capsys):
    _, _, valid_path, _, checkpoints = cli_workspace
    predictions_path = tmp_path / "preds.txt"
    rc = main([
        "evaluate", "--model", str(checkpoints["a"]),
        "--data", str(valid_path),
        "--predictions-out", str(predictions_path),
        "--tsv", str(tmp_path / "eval.tsv"),
    ])
    assert rc == 0
    n_valid = len(read_examples(valid_path))
    report = report_dict(tmp_path / "eval.tsv")
    assert report["n_examples"] == str(n_valid)
    assert report["baseline_random"] == "0.100000"
    assert 0.0 <= float(report["accuracy"]) <= 1.0
    assert "accuracy" in capsys.readouterr().out

    lines = predictions_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == n_valid
    for line in lines:
        assert PREDICTION_LINE.match(line), line
    parsed = read_predictions_file(predictions_path)
    assert len(parsed) == n_valid
    flags = [flag for _, flag in parsed]
    assert sum(flags) / n_valid == pytest.approx(float(report["accuracy"]), abs=1e-6)


def test_evaluate_reports_the_type_row_only_for_a_type(cli_workspace, tmp_path):
    _, _, valid_path, _, checkpoints = cli_workspace
    reports = []
    for flags in ([], ["--type", "ne"]):
        tsv = tmp_path / f"eval{len(flags)}.tsv"
        rc = main(["evaluate", "--model", str(checkpoints["a"]), "--data", str(valid_path),
                   *flags, "--tsv", str(tsv)])
        assert rc == 0
        reports.append(report_dict(tsv))
    untyped, typed = reports
    assert not any(key.startswith("accuracy[") for key in untyped)
    assert list(typed) == ["dataset", "n_examples", "accuracy", "accuracy[ne]",
                           "baseline_random", "baseline_frequency"]
    assert typed["accuracy[ne]"] == typed["accuracy"] == untyped["accuracy"]


def frequency_oracle(examples):
    """Share of examples whose answer is the candidate that occurs most
    often in the context, the first one listed winning ties."""
    hits = 0
    for ex in examples:
        tokens = [token for sentence in ex.context for token in sentence]
        counts = [tokens.count(candidate) for candidate in ex.candidates]
        hits += ex.candidates[counts.index(max(counts))] == ex.answer
    return hits / len(examples)


def test_evaluate_baseline_frequency_counts_surface_forms(cli_workspace, tmp_path):
    _, _, valid_path, _, checkpoints = cli_workspace
    expected = frequency_oracle(read_examples(valid_path))
    assert expected > 0.0
    spec_path = tmp_path / "ensemble.txt"
    write_ensemble_spec(str(spec_path), [str(checkpoints["b"]), str(checkpoints["a"])], 0.0)
    for source in (["--model", str(checkpoints["a"])], ["--ensemble", str(spec_path)]):
        tsv = tmp_path / "eval.tsv"
        rc = main(["evaluate", *source, "--data", str(valid_path), "--tsv", str(tsv)])
        assert rc == 0
        assert report_dict(tsv)["baseline_frequency"] == f"{expected:.6f}"


def test_evaluate_is_deterministic(cli_workspace, tmp_path):
    _, _, valid_path, _, checkpoints = cli_workspace
    outs = []
    for name in ("one", "two"):
        path = tmp_path / f"{name}.txt"
        rc = main([
            "evaluate", "--model", str(checkpoints["a"]),
            "--data", str(valid_path), "--seed", "9",
            "--predictions-out", str(path),
        ])
        assert rc == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_evaluate_missing_checkpoint_exits_1(cli_workspace, tmp_path, capsys):
    _, _, valid_path, _, _ = cli_workspace
    rc = main([
        "evaluate", "--model", str(tmp_path / "nowhere.ckpt"),
        "--data", str(valid_path),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_rejects_a_checkpoint_with_a_float_model_size(cli_workspace, tmp_path, capsys):
    _, _, valid_path, _, checkpoints = cli_workspace
    raw = checkpoints["a"].read_bytes()
    (blob_len,) = struct.unpack("<Q", raw[6:14])
    header = json.loads(raw[14 : 14 + blob_len].decode("utf-8"))
    header["config"]["embedding_dim"] = float(header["config"]["embedding_dim"])
    blob = json.dumps(header).encode("utf-8")
    path = tmp_path / "float.ckpt"
    path.write_bytes(raw[:6] + struct.pack("<Q", len(blob)) + blob + raw[14 + blob_len :])
    rc = main(["evaluate", "--model", str(path), "--data", str(valid_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: " in err and "embedding_dim must be an integer, got 16.0" in err
    assert "Traceback" not in err


def test_evaluate_empty_dataset_exits_1(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    rc = main(["evaluate", "--model", "m.ckpt", "--data", str(empty)])
    assert rc == 1
    assert "no examples" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["train", "--train", "{empty}", "--valid", "{valid}", "--out", "m.ckpt"],
     "no training examples"),
    (["train", "--train", "{valid}", "--valid", "{empty}", "--out", "m.ckpt"],
     "no validation examples"),
    (["select-ensemble", "--models", "m.ckpt", "--valid", "{empty}", "--out", "e.spec"],
     "no examples"),
], ids=["train-train", "train-valid", "select-ensemble"])
def test_an_empty_question_file_exits_1_naming_it(cli_workspace, tmp_path, monkeypatch,
                                                   capsys, argv, message):
    _, _, valid_path, _, _ = cli_workspace
    monkeypatch.chdir(tmp_path)
    Path("empty.txt").write_text("\n\n", encoding="utf-8")
    assert main([arg.format(empty="empty.txt", valid=valid_path) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: empty.txt: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["empty.txt"]


# --------------------------------------------------------------- ensembles


def test_select_ensemble_then_evaluate(cli_workspace, tmp_path):
    _, _, valid_path, _, checkpoints = cli_workspace
    spec_path = tmp_path / "ensemble.txt"
    rc = main([
        "select-ensemble",
        "--models", str(checkpoints["a"]), str(checkpoints["b"]),
        "--valid", str(valid_path),
        "--out", str(spec_path),
        "--tsv", str(tmp_path / "select.tsv"),
    ])
    assert rc == 0
    assert spec_path.read_text(encoding="utf-8").startswith(SPEC_HEADER)
    members, spec_accuracy = read_ensemble_spec(spec_path)
    assert set(members) <= {str(checkpoints["a"]), str(checkpoints["b"])}
    report = report_dict(tmp_path / "select.tsv")
    assert report["selected"] == str(len(members))
    assert float(report["ensemble_accuracy"]) == pytest.approx(
        spec_accuracy, abs=1e-6
    )

    rc = main([
        "evaluate", "--ensemble", str(spec_path),
        "--data", str(valid_path),
        "--tsv", str(tmp_path / "ens_eval.tsv"),
    ])
    assert rc == 0
    ens_report = report_dict(tmp_path / "ens_eval.tsv")
    assert float(ens_report["accuracy"]) == pytest.approx(
        spec_accuracy, abs=1e-6
    )


def test_an_ensemble_of_one_checkpoint_twice_evaluates_as_that_checkpoint(
        cli_workspace, tmp_path, capsys):
    _, _, valid_path, _, checkpoints = cli_workspace
    spec_path = tmp_path / "twice.txt"
    write_ensemble_spec(str(spec_path), [str(checkpoints["a"])] * 2, 0.0)
    outputs = []
    for source in (["--model", str(checkpoints["a"])], ["--ensemble", str(spec_path)]):
        path = tmp_path / "preds.txt"
        capsys.readouterr()
        rc = main(["evaluate", *source, "--data", str(valid_path),
                   "--predictions-out", str(path)])
        assert rc == 0
        outputs.append((capsys.readouterr().out, path.read_bytes()))
    assert outputs[0] == outputs[1]


# ------------------------------------------------------------ export-errors


def test_export_errors_withholds_answers(cli_workspace, tmp_path, capsys):
    _, _, valid_path, _, checkpoints = cli_workspace
    predictions_path = tmp_path / "preds.txt"
    assert main([
        "evaluate", "--model", str(checkpoints["a"]),
        "--data", str(valid_path),
        "--predictions-out", str(predictions_path),
    ]) == 0
    capsys.readouterr()

    study_path = tmp_path / "study.txt"
    rc = main([
        "export-errors", "--predictions", str(predictions_path),
        "--data", str(valid_path), "--n", "3", "--seed", "1",
        "--out", str(study_path),
    ])
    assert rc == 0
    key_path = Path(str(study_path) + ".key")
    key_rows = [
        line.split("\t")
        for line in key_path.read_text(encoding="utf-8").splitlines()
    ]
    assert len(key_rows) == 3

    examples = read_examples(valid_path)
    question_lines = [
        line for line in study_path.read_text(encoding="utf-8").splitlines()
        if line.startswith("21 ")
    ]
    assert len(question_lines) == 3
    for line, (example_id, answer) in zip(question_lines, key_rows):
        fields = line.split("\t")
        assert fields[1] == ""  # answer withheld from the study file
        assert examples[int(example_id) - 1].answer == answer
        assert answer in fields[3].split("|")


def test_export_errors_warns_when_short(cli_workspace, tmp_path, capsys):
    _, _, valid_path, _, checkpoints = cli_workspace
    predictions_path = tmp_path / "preds.txt"
    assert main([
        "evaluate", "--model", str(checkpoints["a"]),
        "--data", str(valid_path),
        "--predictions-out", str(predictions_path),
    ]) == 0
    n_wrong = sum(
        flag == 0 for _, flag in read_predictions_file(predictions_path)
    )
    capsys.readouterr()
    rc = main([
        "export-errors", "--predictions", str(predictions_path),
        "--data", str(valid_path), "--n", "5000",
        "--out", str(tmp_path / "study.txt"),
        "--tsv", str(tmp_path / "export.tsv"),
    ])
    assert rc == 0
    assert f"only {n_wrong} incorrect examples" in capsys.readouterr().err
    assert report_dict(tmp_path / "export.tsv")["exported"] == str(n_wrong)


def test_export_errors_rejects_misaligned_predictions(cli_workspace, tmp_path, capsys):
    _, _, valid_path, _, _ = cli_workspace
    predictions_path = tmp_path / "short.txt"
    predictions_path.write_text("1\tamber\t0\n", encoding="utf-8")
    rc = main([
        "export-errors", "--predictions", str(predictions_path),
        "--data", str(valid_path), "--out", str(tmp_path / "study.txt"),
    ])
    assert rc == 1
    assert "does not align" in capsys.readouterr().err


def test_export_errors_rejects_negative_n(cli_workspace, tmp_path, capsys):
    _, _, valid_path, _, _ = cli_workspace
    predictions_path = tmp_path / "preds.txt"
    write_prediction_file(predictions_path, [0] * len(read_examples(valid_path)))
    rc = main([
        "export-errors", "--predictions", str(predictions_path),
        "--data", str(valid_path), "--n", "-1", "--out", str(tmp_path / "study.txt"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--n" in err and "-1" in err
    assert not (tmp_path / "study.txt").exists()


# ----------------------------------------------------------- union-accuracy


def write_prediction_file(path, flags):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, flag in enumerate(flags, start=1):
            fh.write(f"{i}\ttoken\t{flag}\n")


def test_union_accuracy_disjoint_sources(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_prediction_file(a, [1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
    write_prediction_file(b, [0, 0, 0, 0, 1, 1, 1, 0, 0, 0])
    rc = main(["union-accuracy", "--predictions-a", str(a),
               "--predictions-b", str(b)])
    assert rc == 0
    assert "0.700000" in capsys.readouterr().out


def test_union_accuracy_with_itself_matches_single(tmp_path, capsys):
    a = tmp_path / "a.txt"
    write_prediction_file(a, [1, 0, 1, 0])
    rc = main(["union-accuracy", "--predictions-a", str(a),
               "--predictions-b", str(a)])
    assert rc == 0
    assert "0.500000" in capsys.readouterr().out


def test_union_accuracy_rejects_id_mismatch(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_prediction_file(a, [1, 0])
    write_prediction_file(b, [1, 0, 1])
    rc = main(["union-accuracy", "--predictions-a", str(a),
               "--predictions-b", str(b)])
    assert rc == 1
    assert "different example ids" in capsys.readouterr().err


def test_union_accuracy_rejects_empty_files(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_prediction_file(a, [])
    write_prediction_file(b, [])
    rc = main(["union-accuracy", "--predictions-a", str(a),
               "--predictions-b", str(b)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(a) in err


# ---------------------------------------------------------------- generate


def test_generate_writes_three_valid_splits(fixture_library, tmp_path, capsys):
    out_dir = tmp_path / "data"
    rc = main([
        "generate", "--books", str(fixture_library), "--type", "ne",
        "--out", str(out_dir), "--seed", "3", "--splits", "0.6,0.2,0.2",
        "--tsv", str(tmp_path / "gen.tsv"),
    ])
    assert rc == 0
    report = report_dict(tmp_path / "gen.tsv")
    assert report["word_type"] == "ne"
    total_books = sum(int(report[f"{s}.books"]) for s in ("train", "valid", "test"))
    assert total_books == 5
    for split in ("train", "valid", "test"):
        examples = read_examples(out_dir / f"ne_{split}.txt")
        assert examples
        assert len(examples) == int(report[f"{split}.emitted"])
        for example in examples:
            example.validate()
    capsys.readouterr()


def test_generate_is_deterministic_per_seed(fixture_library, tmp_path, capsys):
    datasets = []
    for name, seed in (("u", "7"), ("v", "7"), ("w", "8")):
        out_dir = tmp_path / name
        rc = main([
            "generate", "--books", str(fixture_library), "--type", "cn",
            "--out", str(out_dir), "--seed", seed, "--stride", "3",
        ])
        assert rc == 0
        datasets.append((out_dir / "cn_train.txt").read_bytes())
    capsys.readouterr()
    assert datasets[0] == datasets[1]
    assert datasets[0] != datasets[2]


# SHA-256 of every file `generate` writes for a fixed library and seed.  A
# change to tokenizing, tagging, generation or writing that alters a single
# byte of a split file or of the report shows here.
GENERATE_DIGESTS = {
    ("ne", "1"): {
        "ne_train.txt": "ba5a919fdf7fa04a704012c4551b22e3cf472c51730c04b443df2679895b3a1b",
        "ne_valid.txt": "2940a0104acbc7f88432a85eb3c8acf4ca70cc1235b80120ad89b8f946921989",
        "ne_test.txt": "2777fb43b0055910552b748eccf55450385687b9af959161b91dd197bb600155",
        "report.tsv": "5df9017d4fe3802bde21450c1c3ddcc6d5531b95c2737a8174b9c7295a2145ab",
    },
    ("ne", "3"): {
        "ne_train.txt": "10087a930d732de1a0b155017d9dc7b0e39755caaccc471f86f25b27bdda9506",
        "ne_valid.txt": "5a8369eceba551c39518695fdcb4b9e45c2fb4f5a26dace94ac64453ccba23a5",
        "ne_test.txt": "a8bf29584060b269aef537432d189461e330bd5138a31539f5c91d99dada1390",
        "report.tsv": "39544f283a92e88e404fa3d0713a752bca697e9452b752886d4e599e9386eb68",
    },
    ("cn", "1"): {
        "cn_train.txt": "83ef382a22e2b98370bc2ce4c21ece8e33d0ec87e28f27f42a390b28091796da",
        "cn_valid.txt": "5c421a421f8a22ff4e5f558df1cf4ef8331538ff55561843faa1f4f98413be4b",
        "cn_test.txt": "553cb077215df4a46e7a4632988cb1616541d3eda4ba57faa213bae2de1a0766",
        "report.tsv": "e56111f4f5f6c0d2f185f51684233931969aeab37f95cb660002dfb7641eaed7",
    },
    ("cn", "3"): {
        "cn_train.txt": "404297ea5448625b13ec182b8b6a9af649f404eae8e4884652f927e376880dcb",
        "cn_valid.txt": "3515e4af2fa0653aa9d0845e82f764cb2f6cbf0031152d6b460e51f1a1416e2b",
        "cn_test.txt": "42c139e6ba7c157c078f347ceb824cbf93fe0f75c87e2bebcba3691830134211",
        "report.tsv": "d51934132ef78d2c71fc62e49afeb6db5671fa5fd561ff8c7a398c4af2bebf88",
    },
}


@pytest.fixture(scope="module")
def golden_library(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    write_fixture_library(root / "books", n_books=5, rng_seed=11, n_paragraphs=12)
    return root


@pytest.mark.parametrize("word_type,stride", sorted(GENERATE_DIGESTS))
def test_generate_output_is_byte_identical_to_golden_digests(
        golden_library, monkeypatch, capsys, word_type, stride):
    # Relative paths keep the report's file rows independent of the temp dir.
    monkeypatch.chdir(golden_library)
    out = f"{word_type}-s{stride}"
    rc = main([
        "generate", "--books", "books", "--type", word_type, "--out", out,
        "--seed", "4", "--stride", stride, "--splits", "0.6,0.2,0.2",
        "--tsv", f"{out}/report.tsv",
    ])
    capsys.readouterr()
    assert rc == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in Path(out).iterdir()
    }
    assert digests == GENERATE_DIGESTS[word_type, stride]


def test_generate_blocklist_drops_editions(tmp_path, capsys):
    books_dir = tmp_path / "books"
    paths = write_fixture_library(books_dir, n_books=5, rng_seed=2,
                                  n_paragraphs=8, duplicate_edition=True)
    first_title = paths[0].read_text(encoding="utf-8").split("Title: ")[1].splitlines()[0]
    blocklist = tmp_path / "blocklist.txt"
    blocklist.write_text(f"# known duplicates\n{first_title}\n", encoding="utf-8")
    rc = main([
        "generate", "--books", str(books_dir), "--type", "ne",
        "--out", str(tmp_path / "data"), "--seed", "0",
        "--splits", "0.5,0.25,0.25", "--blocklist", str(blocklist),
        "--stride", "4",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    # Both the original and its re-titled edition match the blocklist.
    assert captured.err.count("dropped duplicate edition") == 2


def test_generate_blocklist_skips_indented_comment_lines(tmp_path, capsys):
    books_dir = tmp_path / "books"
    paths = write_fixture_library(books_dir, n_books=4, rng_seed=2, n_paragraphs=8)
    title = paths[0].read_text(encoding="utf-8").split("Title: ")[1].splitlines()[0]
    blocklist = tmp_path / "blocklist.txt"
    blocklist.write_text(f"  # {title}\n\t#{title}\n", encoding="utf-8")
    rc = main([
        "generate", "--books", str(books_dir), "--type", "ne",
        "--out", str(tmp_path / "data"), "--splits", "0.5,0.25,0.25",
        "--blocklist", str(blocklist), "--stride", "4",
    ])
    assert rc == 0
    assert "dropped duplicate edition" not in capsys.readouterr().err


def test_generate_with_everything_blocked_exits_1(tmp_path, capsys):
    books_dir = tmp_path / "books"
    paths = write_fixture_library(books_dir, n_books=1, rng_seed=4, n_paragraphs=6)
    title = paths[0].read_text(encoding="utf-8").split("Title: ")[1].splitlines()[0]
    blocklist = tmp_path / "blocklist.txt"
    blocklist.write_text(title + "\n", encoding="utf-8")
    rc = main([
        "generate", "--books", str(books_dir), "--type", "ne",
        "--out", str(tmp_path / "data"), "--blocklist", str(blocklist),
    ])
    assert rc == 1
    assert "no books left" in capsys.readouterr().err


def test_generate_rejects_bad_splits(fixture_library, tmp_path, capsys):
    rc = main([
        "generate", "--books", str(fixture_library), "--type", "ne",
        "--out", str(tmp_path / "data"), "--splits", "0.5,0.5",
    ])
    assert rc == 1
    assert "three comma-separated fractions" in capsys.readouterr().err


@pytest.mark.parametrize("splits, message", [
    ("0.5,0.2,0.2", "do not sum to 1"),
    ("1.2,-0.2,0", "negative split fraction"),
    ("nan,0.5,0.5", "non-finite split fraction"),
    ("0.8,x,0.1", "error: bad --splits value: could not convert string to float: 'x'\n"),
], ids=["sum", "negative", "nan", "not-a-number"])
def test_generate_rejects_bad_split_fractions_before_reading_books(
        tmp_path, monkeypatch, capsys, splits, message):
    def fail(*args, **kwargs):
        raise AssertionError("read the books before checking --splits")

    monkeypatch.setattr("clozereader.cli.ingest_books", fail)
    rc = main([
        "generate", "--books", str(tmp_path / "books"), "--type", "ne",
        "--out", str(tmp_path / "data"), "--splits", splits,
    ])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("stride", ["-1", "0"])
def test_generate_rejects_stride_below_1(fixture_library, tmp_path, capsys, stride):
    rc = main([
        "generate", "--books", str(fixture_library), "--type", "ne",
        "--out", str(tmp_path / "data"), "--stride", stride,
    ])
    assert rc == 1
    assert f"stride must be positive, got {stride}" in capsys.readouterr().err


def test_generate_with_a_bad_stride_makes_no_out_directory(fixture_library, tmp_path, capsys):
    rc = main([
        "generate", "--books", str(fixture_library), "--type", "ne",
        "--out", str(tmp_path / "new" / "sub"), "--stride", "0",
    ])
    assert rc == 1
    assert "stride must be positive, got 0" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_a_generate_that_fails_in_a_later_split_writes_no_split_file(tmp_path, capsys):
    # With no training books the train split generates nothing and passes; the
    # valid split is the first to meet the bad stride.
    write_fixture_library(tmp_path / "books", n_books=4, rng_seed=2, n_paragraphs=8)
    rc = main([
        "generate", "--books", str(tmp_path / "books"), "--type", "ne",
        "--splits", "0,0.5,0.5", "--out", str(tmp_path / "new" / "sub"), "--stride", "0",
    ])
    assert rc == 1
    assert "stride must be positive, got 0" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_generate_writes_no_candidate_that_holds_the_separator(tmp_path, capsys):
    # A "|" inside a name is the question files' candidate separator: the tokenizer
    # splits it off, so every split that generate writes reads back.
    renamed = 0
    for path in write_fixture_library(tmp_path / "books", n_books=4, rng_seed=2):
        text, n = re.subn(r"said(\s+[A-Z]\w*)", r"said\1|Odette",
                          path.read_text(encoding="utf-8"))
        path.write_text(text, encoding="utf-8")
        renamed += n
    assert renamed
    assert main(["generate", "--books", str(tmp_path / "books"), "--type", "ne",
                 "--out", str(tmp_path / "data")]) == 0
    for split in ("train", "valid", "test"):
        assert read_examples(tmp_path / "data" / f"ne_{split}.txt")


def test_generate_skips_an_undecodable_book_and_writes_the_others(tmp_path, capsys):
    paths = write_fixture_library(tmp_path / "books", n_books=4, rng_seed=2, n_paragraphs=8)
    raw = paths[1].read_bytes().replace(b"\n\n", b"\n\xff\n", 1)
    paths[1].write_bytes(raw)
    line = raw.count(b"\n", 0, raw.index(b"\xff")) + 1
    assert main(["generate", "--books", str(tmp_path / "books"), "--type", "ne",
                 "--out", str(tmp_path / "data"), "--tsv", str(tmp_path / "report.tsv")]) == 0
    bad = re.escape(str(paths[1]))
    assert re.fullmatch(rf"warning: skipped {bad}: {bad}:{line}: not valid UTF-8 \(.+\)\n",
                        capsys.readouterr().err)
    report = report_dict(tmp_path / "report.tsv")
    assert sum(int(report[f"{split}.books"]) for split in ("train", "valid", "test")) == 3
    for split in ("train", "valid", "test"):
        assert (tmp_path / "data" / f"ne_{split}.txt").exists()


# ------------------------------------------------------------------- stats


def test_stats_reports_dataset_shape(cli_workspace, tmp_path, capsys):
    _, _, valid_path, _, _ = cli_workspace
    rc = main(["stats", "--data", str(valid_path),
               "--tsv", str(tmp_path / "stats.tsv")])
    assert rc == 0
    report = report_dict(tmp_path / "stats.tsv")
    assert report["n_queries"] == str(len(read_examples(valid_path)))
    assert report["max_options"] == "10"
    assert report["avg_options"] == "10.000000"
    assert "vocab_size" in capsys.readouterr().out


def test_stats_on_missing_file_exits_1(tmp_path, capsys):
    rc = main(["stats", "--data", str(tmp_path / "absent.txt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------- text files


# Each input: its name, its bytes with one byte that is not UTF-8, the line
# that byte is on, and the command that reads it; every other input is
# valid, and every output goes under {out}.
UNDECODABLE_INPUTS = {
    "stats": ("q.txt", b"1 caf\xc3\xa9 .\n2 two .\n3 th\xe9 .\n", 3,
              ["stats", "--data", "{bad}"]),
    "union-accuracy": ("p.txt", b"1\tx\t1\n2\t\xff\t0\n", 2,
                       ["union-accuracy", "--predictions-a", "{bad}",
                        "--predictions-b", "{predictions}"]),
    "evaluate-ensemble": ("e.spec", b"# ensemble spec v1\nm\x80.ckpt\n", 2,
                          ["evaluate", "--ensemble", "{bad}", "--data", "{questions}",
                           "--predictions-out", "{out}/p.txt"]),
    "train-config": ("c.cfg", b"# caf\xc3\xa9\nembedding_dim = 4\xc3\n", 2,
                     ["train", "--train", "{questions}", "--valid", "{questions}",
                      "--config", "{bad}", "--out", "{out}/m.ckpt", "--log", "{out}/log"]),
    "generate-blocklist": ("block.txt", b"# titles\nThe \xe2\x82 Cat\n", 2,
                           ["generate", "--books", "{books}", "--type", "ne",
                            "--blocklist", "{bad}", "--out", "{out}/data"]),
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE_INPUTS))
def test_an_undecodable_byte_is_named_by_file_and_line(
        cli_workspace, fixture_library, tmp_path, capsys, case):
    name, data, line, command = UNDECODABLE_INPUTS[case]
    bad, predictions, out = tmp_path / name, tmp_path / "predictions.txt", tmp_path / "out"
    bad.write_bytes(data)
    questions = cli_workspace[2]
    write_prediction_file(predictions, [1, 0])
    out.mkdir()
    argv = [arg.format(bad=bad, questions=questions, predictions=predictions,
                       books=fixture_library, out=out) for arg in command]
    assert main([*argv, "--tsv", str(out / "report.tsv")]) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert re.fullmatch(rf"error: {re.escape(str(bad))}:{line}: not valid UTF-8 \(.+\)", last)
    assert not list(out.iterdir())


@pytest.mark.parametrize("read", [
    load_vocab, lambda path: read_pretagged(path, TokenizedBook("b", "T", [["x"]])),
], ids=["load_vocab", "read_pretagged"])
def test_a_library_reader_names_an_undecodable_byte_by_file_and_line(tmp_path, read):
    path = tmp_path / "words.txt"
    path.write_bytes(b"# header\nfirst\nsec\xffond\n")
    message = rf"{re.escape(str(path))}:3: not valid UTF-8 \(invalid start byte\)"
    with pytest.raises(ClozereaderError, match=rf"^{message}$"):
        read(path)


# ------------------------------------------------------------ whole writes


class InterruptingFile:
    """A file whose second ``write`` raises ``exc``: after the first item
    and before its LF, as ``write_lines`` writes them, so that a one-line
    write is interrupted too."""

    def __init__(self, fh, exc):
        self.fh, self.exc, self.writes = fh, exc, 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise self.exc
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


def train_log(path, ws):
    """``train`` with ``log_path``, evaluating after every step."""
    model = load_checkpoint(str(ws[4]["a"]))[0]
    train_set, valid_set = (encode_dataset(read_examples(p), model.vocabulary, 0)
                            for p in ws[1:3])
    train(model, train_set, valid_set, TrainConfig(batch_size=24, eval_every=1),
          log_path=str(path))


INTERRUPTED_WRITERS = {
    "write_examples": lambda path, ws: write_examples(read_examples(ws[2])[:3], path),
    "print_report --tsv": lambda path, ws: print_report([("a", 1), ("b", 0.5)], str(path)),
    "evaluate --predictions-out": lambda path, ws: main([
        "evaluate", "--model", str(ws[4]["a"]), "--data", str(ws[2]),
        "--predictions-out", str(path)]),
    "write_ensemble_spec": lambda path, ws: write_ensemble_spec(str(path), ["a", "b"], 0.5),
    "save_vocab": lambda path, ws: save_vocab(load_checkpoint(str(ws[4]["a"]))[0].vocabulary,
                                              path),
    "train log_path": train_log,
}


@pytest.mark.parametrize("writer", sorted(INTERRUPTED_WRITERS))
def test_an_interrupted_write_keeps_the_previous_file(cli_workspace, tmp_path, monkeypatch,
                                                      writer):
    path = tmp_path / "out.txt"
    path.write_bytes(b"previous\n")
    # ``main`` reports an OSError as exit 1, so that case is interrupted instead.
    exc = KeyboardInterrupt() if writer.startswith("evaluate") else OSError("disk full")
    monkeypatch.setattr(clozereader, "open", lambda *args, **kwargs: InterruptingFile(
        open(*args, **kwargs), exc), raising=False)
    with pytest.raises(type(exc)):
        INTERRUPTED_WRITERS[writer](path, cli_workspace)
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_a_symlinked_output_is_written_at_its_target(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_bytes(b"previous\n")
    link.symlink_to(target)
    write_lines(link, ["new"])
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == b"new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


def test_a_rewritten_output_keeps_its_permission_bits(tmp_path):
    tsv = tmp_path / "report.tsv"
    print_report([("a", 1)], str(tsv))
    tsv.chmod(0o600)
    print_report([("b", 2)], str(tsv))
    assert stat.S_IMODE(tsv.stat().st_mode) == 0o600
    assert report_dict(tsv) == {"b": "2"}
    # A new output takes the umask's default bits.
    fresh = tmp_path / "fresh.tsv"
    print_report([("a", 1)], str(fresh))
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask


# ----------------------------------------------------------- config parsing


def test_parse_config_file_handles_comments_and_types(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "# reader\nembedding_dim = 32  # inline note\n"
        "learning_rate=0.001\nquery_init=true\n\n",
        encoding="utf-8",
    )
    settings = parse_config_file(str(path))
    assert settings == {
        "embedding_dim": 32,
        "learning_rate": 0.001,
        "query_init": True,
    }


def test_parse_config_file_reads_no_as_false(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("query_init = no\n", encoding="utf-8")
    assert parse_config_file(str(path)) == {"query_init": False}


def test_parse_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("embedding_dim\n", encoding="utf-8")
    with pytest.raises(CliError, match="expected key=value"):
        parse_config_file(str(path))
    path.write_text("query_init=sideways\n", encoding="utf-8")
    with pytest.raises(CliError, match="expected a boolean"):
        parse_config_file(str(path))
    path.write_text("batch_size=abc\n", encoding="utf-8")
    with pytest.raises(CliError, match="c.cfg:1"):
        parse_config_file(str(path))
    path.write_text("beta1=0.9\n", encoding="utf-8")
    with pytest.raises(CliError, match="unknown config key 'beta1'"):
        parse_config_file(str(path))
    assert parse_config_file(None) == {}


def test_read_predictions_file_rejects_malformed(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("1\ttoken\n", encoding="utf-8")
    with pytest.raises(CliError, match="3 tab-separated fields"):
        read_predictions_file(str(path))
    path.write_text("1\ttoken\t2\n", encoding="utf-8")
    with pytest.raises(CliError, match="must be 0 or 1"):
        read_predictions_file(str(path))
    path.write_text("1\ttoken\t1\n1\tother\t0\n", encoding="utf-8")
    with pytest.raises(CliError, match="duplicate example id"):
        read_predictions_file(str(path))
    path.write_text("1\ttoken\t1\n3\tother\t0\n", encoding="utf-8")
    with pytest.raises(CliError, match=r"p\.txt: example ids are not 1\.\.2"):
        read_predictions_file(str(path))
