"""Equivalence sweep: run one fixed set of CLI commands against two source
trees and compare everything they write.

    python tools/equiv.py --parent REV

unpacks REV with ``git archive`` (a local read, no network), runs the sweep
once against REV's ``src/`` and once against the working tree's, and prints
JSON that marks each item ``equal`` or ``different``.  It exits 1 if any
item differs.

The sweep writes a fixture library, then runs ``generate`` (NE and CN),
``stats`` on both train splits, and ``train`` at E4/H4/L1 at vocabulary
caps 200,000 and 40 (at 40 the anonymous ids are in use), each with and
without ``query_init``.  Each checkpoint is scored by ``evaluate --model``
with ``--predictions-out``; then come ``select-ensemble`` over the four,
``evaluate --ensemble``, ``export-errors`` and ``union-accuracy``.  Every
command writes ``--tsv``.  An item is the SHA-256 of a file the commands
wrote, or a command's stdout, stderr or exit code; one more item is the
SHA-256 of the sorted names in the run directory after the last command,
so a temporary file left behind shows.  A predictions file
holds only each argmax, so for each checkpoint the sweep also digests
``training.evaluate``'s probabilities and ``Model.predict``'s attention
rows, through the package's API.  For each training config it digests
the first epoch's ``make_batches`` arrays, the loss and every parameter
gradient of the first batches at the initial weights, which the CLI
outputs show only after the optimizer has mixed them, and the first
batch's gradients clipped to half their norm, since no sweep training
reaches the clip threshold.  The E4/H4 models multiply only 8- and
12-column blocks, so at the benchmark's model size, E32/H32/L1, the
sweep also digests the first batch's loss and gradients and
``training.evaluate``'s probabilities, which take the 32-, 64- and
96-column products, on the test split and, in seven batches of 32, on
the train split: a walk that ``evaluate`` splits unevenly between two
processes.  On a fixed 16-example pointing set it also runs a small
``TrainConfig`` grid of evaluation schedules and patiences, and two
divergences: a NaN loss and a NaN gradient norm.  The sweep's
books are written by the working tree's package, so each tree also
digests a small fixture library of its own, written with and without a
duplicate edition.  The wall-time column of the training logs is
blanked, in the log files and in stdout, because it is the one output
that differs from run to run.

Each tree runs in its own subprocess and directory, with relative paths,
no bytecode written and BLAS pinned to one thread, so the two runs see the
same inputs and differ only in the package they import.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRAIN_CONFIG = """\
embedding_dim = 4
hidden_units = 4
recurrent_layers = 1
batch_size = 32
eval_every = 256
max_epochs = 2
patience = 2
"""
# Checkpoint name -> (vocab_cap, query_init).
MODELS = {f"cap{cap}-q{query_init}": (cap, query_init)
          for cap in (200000, 40) for query_init in (0, 1)}
TRAIN_SEED = 5
ATTENTION_ROWS = 32
GRADIENT_BATCHES = 3
SPLIT_BATCH_SIZE = 32  # seven batches of the NE train split
# (eval_every, patience) of each schedule item; each trains with prefetch_batches 1.
SCHEDULES = [(eval_every, patience) for eval_every in (1, 17) for patience in (1, 2)]
_WALL = re.compile(r"^(\d+\t[^\t]+\t[^\t]+\t)\d+\.\d{3}$", re.MULTILINE)


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of each command of the sweep, in run order.  Paths are
    relative to the run directory."""
    sweep = []
    for word_type in ("ne", "cn"):
        sweep += [
            (f"generate-{word_type}",
             ["generate", "--books", "books", "--type", word_type, "--seed", "3",
              "--splits", "0.6,0.2,0.2", "--out", word_type,
              "--tsv", f"{word_type}/report.tsv"]),
            (f"stats-{word_type}",
             ["stats", "--data", f"{word_type}/{word_type}_train.txt",
              "--tsv", f"stats-{word_type}.tsv"]),
        ]
    for model in MODELS:
        sweep += [
            (f"train-{model}",
             ["train", "--train", "ne/ne_train.txt", "--valid", "ne/ne_valid.txt",
              "--config", f"{model}.cfg", "--seed", str(TRAIN_SEED),
              "--out", f"{model}.ckpt", "--log", f"{model}.log",
              "--tsv", f"train-{model}.tsv"]),
            (f"evaluate-{model}",
             ["evaluate", "--model", f"{model}.ckpt", "--data", "ne/ne_test.txt",
              "--type", "ne", "--predictions-out", f"{model}.pred",
              "--tsv", f"evaluate-{model}.tsv"]),
        ]
    return sweep + [
        ("select-ensemble",
         ["select-ensemble", "--models", *(f"{model}.ckpt" for model in MODELS),
          "--valid", "ne/ne_valid.txt", "--out", "ensemble.spec",
          "--tsv", "select-ensemble.tsv"]),
        ("evaluate-ensemble",
         ["evaluate", "--ensemble", "ensemble.spec", "--data", "ne/ne_test.txt",
          "--predictions-out", "ensemble.pred", "--tsv", "evaluate-ensemble.tsv"]),
        ("export-errors",
         ["export-errors", "--predictions", "ensemble.pred", "--data", "ne/ne_test.txt",
          "--n", "20", "--seed", "1", "--out", "study.txt", "--tsv", "export-errors.tsv"]),
        ("union-accuracy",
         ["union-accuracy", "--predictions-a", "cap200000-q0.pred",
          "--predictions-b", "cap40-q1.pred", "--data", "ne/ne_test.txt",
          "--tsv", "union-accuracy.tsv"]),
    ]


def _write_inputs(run_dir: Path) -> set[Path]:
    """The fixture library and the training configs, written by the working
    tree's package so that both sweeps read the same inputs; returns their
    paths."""
    from clozereader.synthdata import write_fixture_library

    inputs = set(write_fixture_library(run_dir / "books", n_books=6, rng_seed=0,
                                       n_paragraphs=20))
    for model, (cap, query_init) in MODELS.items():
        path = run_dir / f"{model}.cfg"
        path.write_text(f"{TRAIN_CONFIG}vocab_cap = {cap}\nquery_init = {query_init}\n",
                        encoding="utf-8")
        inputs.add(path)
    return inputs


def _run_commands() -> dict[str, object]:
    """Run the sweep in the current directory with whichever ``clozereader``
    is importable, and return each command's stdout, stderr and exit code."""
    import clozereader
    from clozereader.cli import main

    results: dict[str, object] = {"package": clozereader.__file__}
    for name, argv in commands():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code: object = main(argv)
            except Exception as exc:  # recorded as this command's outcome
                code = f"raised {type(exc).__name__}: {exc}"
        results[f"stdout {name}"] = _WALL.sub(r"\1-", out.getvalue())
        results[f"stderr {name}"] = err.getvalue()
        results[f"exit {name}"] = code
    results.update(_api_digests())
    return results


def _api_digests() -> dict[str, str]:
    """For each checkpoint, the SHA-256 of ``training.evaluate``'s
    probabilities on the NE test split, encoded as ``evaluate --model``
    encodes it at its default ``--seed`` 0, and of ``Model.predict``'s
    attention rows on its first ``ATTENTION_ROWS`` examples: numbers that
    no CLI output shows."""
    import numpy as np
    from clozereader.asreader import Batch
    from clozereader.cbtio import read_examples
    from clozereader.seeding import derive_seed
    from clozereader.training import evaluate, load_checkpoint
    from clozereader.vocab import encode_dataset

    raw = read_examples("ne/ne_test.txt")
    digests = {}
    for model_name in MODELS:
        model, _ = load_checkpoint(f"{model_name}.ckpt")
        encoded = encode_dataset(raw, model.vocabulary, derive_seed(0, "eval"))
        probabilities = evaluate(model, encoded).predictions.probabilities
        batch = Batch.from_corpus(encoded, np.arange(len(encoded))[:ATTENTION_ROWS])
        attention = np.concatenate(model.predict(batch).attention)
        digests[f"probabilities {model_name}"] = hashlib.sha256(probabilities).hexdigest()
        digests[f"attention {model_name}"] = hashlib.sha256(attention).hexdigest()
        digests.update(_training_digests(model_name, model))
    digests.update(_benchmark_size_digest(raw))
    digests.update(_schedule_digests())
    digests.update(_library_digest())
    return digests


def _training_digests(model_name: str, trained) -> dict[str, str]:
    """The SHA-256 of the epoch-0 ``make_batches`` arrays that ``train``
    draws for ``model_name``'s config, and of the loss and every parameter
    gradient of the first ``GRADIENT_BATCHES`` of them, each taken at the
    initial weights.  The trained checkpoint supplies the vocabulary and
    the model config."""
    from dataclasses import fields

    from clozereader.asreader import Batch, Model
    from clozereader.cbtio import read_examples
    from clozereader.cli import parse_config_file
    from clozereader.numerics import clip_gradients, global_norm, zero_frozen_rows, zero_grads
    from clozereader.seeding import derive_seed
    from clozereader.training import TrainConfig, make_batches
    from clozereader.vocab import encode_dataset

    settings = parse_config_file(f"{model_name}.cfg")
    config = TrainConfig(rng_seed=TRAIN_SEED, **{
        f.name: settings[f.name] for f in fields(TrainConfig) if f.name in settings})
    encoded = encode_dataset(read_examples("ne/ne_train.txt"), trained.vocabulary,
                             derive_seed(TRAIN_SEED, "train"))
    batches = make_batches(encoded, config, derive_seed(TRAIN_SEED, "epoch", 0))
    arrays = hashlib.sha256()
    for batch in batches:
        for field in fields(Batch):
            array = getattr(batch, field.name)
            arrays.update(f"{field.name} {array.dtype} {array.shape}".encode())
            arrays.update(array.tobytes())
    model = Model(trained.vocabulary, trained.config, rng_seed=TRAIN_SEED)
    params = model.parameters()
    gradients = hashlib.sha256()
    for batch in batches[:GRADIENT_BATCHES]:
        zero_grads(params)
        loss = model.loss(batch)
        gradients.update(repr(loss.item()).encode())
        loss.backward()
        for param in params:
            gradients.update(param.name.encode())
            if param.grad is not None:
                gradients.update(param.grad.tobytes())
    # The first batch's gradients as ``train`` clips them, at half their norm.
    zero_grads(params)
    model.loss(batches[0]).backward()
    zero_frozen_rows(params)
    grads = [param.grad for param in params if param.grad is not None]
    clipped = hashlib.sha256(repr(clip_gradients(grads, global_norm(grads) / 2)).encode())
    for grad in grads:
        clipped.update(grad.tobytes())
    return {f"batches {model_name}": arrays.hexdigest(),
            f"gradients {model_name}": gradients.hexdigest(),
            f"clipped {model_name}": clipped.hexdigest()}


def _benchmark_size_digest(test_raw) -> dict[str, str]:
    """The SHA-256 of the loss and every parameter gradient of the first
    epoch-0 batch of the NE train split, and of ``training.evaluate``'s
    probabilities on ``test_raw``, for an E32/H32/L1 model (the benchmark's
    size) at its initial weights, over the ``cap200000-q0`` checkpoint's
    vocabulary; and of its probabilities on the train split in batches of
    ``SPLIT_BATCH_SIZE``."""
    from clozereader.asreader import Model, ModelConfig
    from clozereader.cbtio import read_examples
    from clozereader.seeding import derive_seed
    from clozereader.training import TrainConfig, evaluate, load_checkpoint, make_batches
    from clozereader.vocab import encode_dataset

    vocabulary = load_checkpoint("cap200000-q0.ckpt")[0].vocabulary
    config = ModelConfig(embedding_dim=32, hidden_units=32, recurrent_layers=1)
    model = Model(vocabulary, config, rng_seed=TRAIN_SEED)
    encoded = encode_dataset(read_examples("ne/ne_train.txt"), vocabulary,
                             derive_seed(TRAIN_SEED, "train"))
    batch = make_batches(encoded, TrainConfig(rng_seed=TRAIN_SEED),
                         derive_seed(TRAIN_SEED, "epoch", 0))[0]
    loss = model.loss(batch)
    digest = hashlib.sha256(repr(loss.item()).encode())
    loss.backward()
    for param in model.parameters():
        digest.update(param.name.encode())
        if param.grad is not None:
            digest.update(param.grad.tobytes())
    test = encode_dataset(test_raw, vocabulary, derive_seed(0, "eval"))
    digest.update(evaluate(model, test).predictions.probabilities.tobytes())
    # The train split walks an odd number of batches, so a forked child takes one fewer.
    split = evaluate(model, encoded, SPLIT_BATCH_SIZE).predictions.probabilities
    return {"model E32/H32/L1": digest.hexdigest(),
            f"model E32/H32/L1 train split at batch {SPLIT_BATCH_SIZE}":
                hashlib.sha256(split).hexdigest()}


def _schedule_digests() -> dict[str, str]:
    """On 16 pointing examples (8 to validate), the SHA-256 of ``train``'s
    log lines, wall column blanked, and of its result for each of
    ``SCHEDULES``; and for a NaN loss (NaN embedding) and a NaN gradient
    norm (one gradient entry poisoned), of the message ``train`` raises
    and the ``extra`` of the ``.diverged`` checkpoint it saves."""
    from clozereader.asreader import Model, ModelConfig
    from clozereader.numerics import Tensor
    from clozereader.seeding import derive_seed
    from clozereader.synthdata import associative_recall_examples
    from clozereader.training import TrainConfig, TrainingDivergedError, load_checkpoint, train
    from clozereader.vocab import build_vocab, encode_dataset

    train_raw = associative_recall_examples(16, rng_seed=TRAIN_SEED)
    vocabulary = build_vocab(train_raw, cap=200, anon_count=50)
    train_set = encode_dataset(train_raw, vocabulary, derive_seed(TRAIN_SEED, "train"))
    valid_set = encode_dataset(associative_recall_examples(8, rng_seed=TRAIN_SEED + 1),
                               vocabulary, derive_seed(TRAIN_SEED, "valid"))

    def model():
        return Model(vocabulary, ModelConfig(embedding_dim=4, hidden_units=4,
                                             recurrent_layers=1), rng_seed=TRAIN_SEED)

    digests = {}
    for eval_every, patience in SCHEDULES:
        config = TrainConfig(learning_rate=0.05, batch_size=4, prefetch_batches=1,
                             eval_every=eval_every, max_epochs=3, patience=patience,
                             rng_seed=TRAIN_SEED)
        result = train(model(), train_set, valid_set, config)
        log = "".join(line + "\n" for line in result.log_lines)
        text = _WALL.sub(r"\1-", log) + repr(
            (result.best_accuracy, result.best_step, result.steps, result.epochs))
        digests[f"schedule eval_every={eval_every} patience={patience}"] = (
            hashlib.sha256(text.encode()).hexdigest())

    config = TrainConfig(batch_size=4, prefetch_batches=1, max_epochs=1, rng_seed=TRAIN_SEED)

    def diverged(diverging) -> str:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "pointing.ckpt")
            try:
                train(diverging, train_set, valid_set, config, checkpoint_path=path)
            except TrainingDivergedError as exc:
                extra = load_checkpoint(path + ".diverged")[1]
                return hashlib.sha256(f"{exc}\n{extra!r}".encode()).hexdigest()
        return "did not diverge"

    nan_loss = model()
    nan_loss.embedding.data[:] = float("nan")
    digests["diverged loss"] = diverged(nan_loss)
    nan_grad = model()
    real_backward = Tensor.backward

    def poisoned_backward(self):
        real_backward(self)
        nan_grad.embedding.grad[vocabulary.word_start] = float("nan")

    Tensor.backward = poisoned_backward
    try:
        digests["diverged grad_norm"] = diverged(nan_grad)
    finally:
        Tensor.backward = real_backward
    return digests


def _library_digest() -> dict[str, str]:
    """The SHA-256 of the paths ``write_fixture_library`` returns and of the
    name and bytes of every file it writes, for a small library without and
    with ``duplicate_edition``.  The sweep's own books are written by the
    working tree's package, so this item is the one that sees ``synthdata``."""
    from clozereader.synthdata import write_fixture_library

    digest = hashlib.sha256()
    for duplicate_edition in (False, True):
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_fixture_library(tmp, n_books=3, rng_seed=0, n_paragraphs=6,
                                          duplicate_edition=duplicate_edition)
            digest.update(repr([path.name for path in paths]).encode())
            for path in sorted(Path(tmp).iterdir()):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"fixture library": digest.hexdigest()}


def sweep(tree: Path, run_dir: Path) -> dict[str, object]:
    """Every item of the sweep, run in the new directory ``run_dir`` against
    the package in ``tree``/src, with each of the working tree's
    ``BLAS_THREAD_VARS`` set to 1."""
    from clozereader import BLAS_THREAD_VARS

    run_dir.mkdir(parents=True)
    inputs = _write_inputs(run_dir)
    src = (tree / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--run-commands"],
        cwd=run_dir, env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"sweep of {tree} failed:\n{proc.stderr}")
    items = json.loads(proc.stdout)
    package = Path(items.pop("package"))
    if not package.is_relative_to(src):
        raise RuntimeError(f"sweep of {tree} imported {package}")
    paths = sorted(run_dir.rglob("*"))
    names = "\n".join(path.relative_to(run_dir).as_posix() for path in paths)
    items["listing"] = hashlib.sha256(names.encode("utf-8")).hexdigest()
    for path in paths:
        if path.is_file() and path not in inputs:
            data = path.read_bytes()
            if path.suffix == ".log":
                data = _WALL.sub(r"\1-", data.decode("utf-8")).encode("utf-8")
            items[f"file {path.relative_to(run_dir).as_posix()}"] = (
                hashlib.sha256(data).hexdigest())
    return items


def compare(parent: dict[str, object], change: dict[str, object]) -> dict[str, str]:
    """``equal`` or ``different`` for every item either sweep recorded."""
    missing = object()
    return {
        key: "equal" if parent.get(key, missing) == change.get(key, missing) else "different"
        for key in sorted(parent.keys() | change.keys())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision to compare the working tree with")
    parser.add_argument("--run-commands", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_commands:
        json.dump(_run_commands(), sys.stdout)
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="equiv-") as tmp:
        parent_tree = Path(tmp) / "parent"
        parent_tree.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", args.parent],
            capture_output=True, check=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        items = compare(sweep(parent_tree, Path(tmp) / "run-parent"),
                        sweep(ROOT, Path(tmp) / "run-change"))
    all_equal = all(verdict == "equal" for verdict in items.values())
    json.dump({"parent": args.parent, "all_equal": all_equal, "items": items},
              sys.stdout, indent=1)
    print()
    return 0 if all_equal else 1


if __name__ == "__main__":
    sys.exit(main())
