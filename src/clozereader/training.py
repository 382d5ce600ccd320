"""Training loop, length-bucketed batching, early stopping, checkpoints.

Batching shuffles examples once per epoch, then sorts each window of
``prefetch_batches`` consecutive batches by document length before cutting
it into batches, and finally shuffles the batch order inside the window.
Rows inside a batch then have similar lengths, which keeps padding cheap,
while the window shuffle stops the model from seeing documents in strict
length order.

A training step evaluates on the validation set when it ends an epoch or
when its batch carries the count of consumed training examples past a
multiple of ``eval_every``.  An evaluation that beats every earlier one
saves the checkpoint, so the first one always does; ``patience``
evaluations in a row without a new best stop training.

Training logs one tab-separated line per evaluation: step number, the
step's loss (full repr), validation accuracy, and wall-clock seconds.
Everything except the wall column is reproducible bit for bit for a
fixed seed.
"""

from __future__ import annotations

import json
import math
import os
import random
import struct
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import ClozereaderError
from .asreader import Batch, Model, ModelConfig, Predictions, occurrences
from .ensemble import correct_flags, hit_rate, prediction_accuracy
from .numerics import Adam, clip_gradients, write_tensor, read_tensor, zero_grads
from .numerics.optim import DEFAULT_LEARNING_RATE
from .numerics.serialize import TensorFormatError, read_exactly
from .seeding import derive_seed
from .vocab import (ANSWER, CANDIDATES, EncodedCorpus, EncodedExample, Vocabulary,
                    VocabularyError, as_corpus)

CHECKPOINT_MAGIC = b"CLZR"
CHECKPOINT_VERSION = 1

DEFAULT_BATCH_SIZE = 128
DEFAULT_PREFETCH = 10


class TrainingDivergedError(ClozereaderError):
    """Raised when the loss or the gradient norm becomes NaN or infinite."""


class CheckpointError(ClozereaderError):
    """Raised for unreadable or mismatched checkpoint files."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = DEFAULT_LEARNING_RATE
    batch_size: int = DEFAULT_BATCH_SIZE
    prefetch_batches: int = DEFAULT_PREFETCH
    eval_every: int | None = None  # examples between evaluations; epoch ends always evaluate
    max_epochs: int = 2
    patience: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.prefetch_batches < 1:
            raise ValueError("prefetch_batches must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        if self.patience < 1:
            raise ValueError("patience must be positive")
        if self.eval_every is not None and self.eval_every < 1:
            raise ValueError("eval_every must be positive")


def make_batches(
    examples: EncodedCorpus | list[EncodedExample],
    config: TrainConfig,
    epoch_seed: int,
) -> list[Batch]:
    """Length-bucketed batches over a seeded epoch shuffle."""
    corpus = as_corpus(examples)
    if not corpus:
        return []
    rng = random.Random(epoch_seed)
    order = list(range(len(corpus)))
    rng.shuffle(order)
    lengths = corpus.context_lengths().tolist()
    window_size = config.batch_size * config.prefetch_batches
    batches: list[Batch] = []
    for start in range(0, len(order), window_size):
        window = order[start : start + window_size]
        window.sort(key=lengths.__getitem__)
        window_batches = list(_batches(corpus, window, config.batch_size))
        rng.shuffle(window_batches)
        batches += window_batches
    return batches


def _batches(corpus: EncodedCorpus, order, size: int = DEFAULT_BATCH_SIZE):
    """Batches of ``size`` examples of ``corpus``, taken in ``order``."""
    for start in range(0, len(order), size):
        yield Batch.from_corpus(corpus, order[start : start + size])


@dataclass
class EvalResult:
    accuracy: float
    predictions: Predictions  # without attention; Model.predict gives it


def evaluate(
    model: Model,
    examples: EncodedCorpus | list[EncodedExample],
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> EvalResult:
    """Greedy accuracy plus the predictions, in input order."""
    corpus = as_corpus(examples)
    if not corpus:
        raise ValueError("nothing to evaluate")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    (candidate_ids, _), (answers, _) = corpus.ids(slice(None), CANDIDATES, ANSWER)
    probabilities = np.zeros(candidate_ids.shape)
    order = np.argsort(corpus.context_lengths(), kind="stable")
    for batch in _batches(corpus, order, batch_size):
        rows = model.predict(batch).probabilities
        probabilities[batch.indices, : rows.shape[1]] = rows
    predictions = Predictions(candidate_ids, probabilities)
    return EvalResult(prediction_accuracy(predictions, answers.reshape(-1)), predictions)


def most_frequent_candidate_accuracy(examples: EncodedCorpus | list[EncodedExample]) -> float:
    """Baseline: always pick the candidate occurring most often in the
    document (ties go to the earlier candidate in the list)."""
    corpus = as_corpus(examples)
    flags = []
    for batch in _batches(corpus, np.arange(len(corpus))):
        # A padding slot counts 0 and follows the real candidates, so it never wins.
        occurs = occurrences(batch.context, batch.context_lengths, batch.candidates)
        flags += correct_flags(Predictions(batch.candidates, occurs.sum(axis=2)), batch.answers)
    return hit_rate(flags)


@dataclass
class TrainResult:
    best_accuracy: float
    best_step: int
    steps: int
    epochs: int
    log_lines: list[str] = field(default_factory=list)


def train(
    model: Model,
    train_examples: EncodedCorpus | list[EncodedExample],
    valid_examples: EncodedCorpus | list[EncodedExample],
    config: TrainConfig,
    checkpoint_path: str | None = None,
    log_fh=None,
) -> TrainResult:
    """Optimize the model, keeping the checkpoint with the best validation
    accuracy; the module docstring gives the evaluation schedule.

    A NaN or infinite loss or gradient norm saves a diagnostic checkpoint
    (when a path is given) and raises TrainingDivergedError before the
    parameters are updated.  Empty example lists and training examples
    whose answer never occurs in the document are rejected before the
    first step.
    """
    train_examples, valid_examples = as_corpus(train_examples), as_corpus(valid_examples)
    if not train_examples:
        raise ValueError("no training examples")
    if not valid_examples:
        raise ValueError("no validation examples")
    for batch in _batches(train_examples, np.arange(len(train_examples))):
        batch.answer_positions(train_examples.sources)
    params = model.parameters()
    optimizer = Adam(params, lr=config.learning_rate)
    result = TrainResult(best_accuracy=-math.inf, best_step=0, steps=0, epochs=0)
    eval_every = config.eval_every or math.inf
    examples_seen = 0
    since_best = 0
    started = time.monotonic()
    for epoch in range(config.max_epochs):
        result.epochs = epoch + 1
        batches = make_batches(train_examples, config, derive_seed(config.rng_seed, "epoch", epoch))
        for batch in batches:
            zero_grads(params)
            loss = model.loss(batch)
            loss_value = loss.item()
            extra = {"step": result.steps, "loss": loss_value}
            if math.isfinite(loss_value):
                loss.backward()
                extra["grad_norm"] = clip_gradients([p.grad for p in params if p.grad is not None])
            # Free this step's graph before the next forward pass builds one.
            del loss
            # A non-finite loss skips the backward pass, so the last value is the one to check.
            name, value = list(extra.items())[-1]
            if not math.isfinite(value):
                if checkpoint_path is not None:
                    save_checkpoint(model, checkpoint_path + ".diverged", extra=extra)
                what = "gradient norm" if name == "grad_norm" else name
                raise TrainingDivergedError(f"non-finite {what} {value!r} at step {result.steps}")
            optimizer.step()
            result.steps += 1
            examples_seen += batch.size
            crossed_mark = examples_seen // eval_every > (examples_seen - batch.size) // eval_every
            if not crossed_mark and batch is not batches[-1]:
                continue
            accuracy = evaluate(model, valid_examples, config.batch_size).accuracy
            if accuracy > result.best_accuracy:
                result.best_accuracy, result.best_step, since_best = accuracy, result.steps, 0
                if checkpoint_path is not None:
                    save_checkpoint(model, checkpoint_path,
                                    extra={"validation_accuracy": accuracy, "step": result.steps})
            else:
                since_best += 1
            line = (f"{result.steps}\t{loss_value!r}\t{accuracy:.6f}"
                    f"\t{time.monotonic() - started:.3f}")
            result.log_lines.append(line)
            if log_fh is not None:
                log_fh.write(line + "\n")
                log_fh.flush()
            if since_best == config.patience:
                return result
    return result


# ------------------------------------------------------------- checkpoints
#
# Layout: magic, version, length-prefixed JSON header (model config, seed,
# vocabulary words, extra metadata), tensor count, then length-prefixed
# tensor names each followed by one serialized tensor.


def save_checkpoint(model: Model, path: str, extra: dict | None = None) -> None:
    header = {
        "config": asdict(model.config),
        "rng_seed": model.rng_seed,
        "vocab": {
            "words": model.vocabulary.words,
            "cap": model.vocabulary.cap,
            "anon_count": model.vocabulary.anon_count,
        },
        "extra": extra or {},
    }
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    named = model.named_parameters()
    # Write a sibling temporary file and rename it over ``path`` only once
    # it is complete and on disk, so an interrupted save leaves the
    # previous checkpoint intact.
    tmp_path = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp_path, "wb")
    try:
        with fh:
            fh.write(struct.pack("<4sH", CHECKPOINT_MAGIC, CHECKPOINT_VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<I", len(named)))
            for name in sorted(named):
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                write_tensor(fh, named[name].data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def load_checkpoint(path: str) -> tuple[Model, dict]:
    """Rebuild a model from a checkpoint; returns (model, extra metadata)."""
    def read(fh, n: int, what: str) -> bytes:
        try:
            return read_exactly(fh, n, what)
        except TensorFormatError as exc:
            raise CheckpointError(f"{path}: {exc}") from None

    with open(path, "rb") as fh:
        head = fh.read(6)
        if len(head) < 6 or head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<H", head[4:6])
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {version}"
            )
        (blob_len,) = struct.unpack("<Q", read(fh, 8, "header"))
        blob = read(fh, blob_len, "header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: bad header: {exc}") from exc
        try:
            vocab_info = header["vocab"]
            vocabulary = Vocabulary(
                words=vocab_info["words"],
                cap=vocab_info["cap"],
                anon_count=vocab_info["anon_count"],
            )
            config = ModelConfig(**header["config"])
        except (KeyError, TypeError, ValueError, VocabularyError) as exc:
            raise CheckpointError(f"{path}: bad header: {exc}") from exc
        model = Model(vocabulary, config, header.get("rng_seed", 0))
        (count,) = struct.unpack("<I", read(fh, 4, "tensor table"))
        named = model.named_parameters()
        seen = set()
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read(fh, 2, "tensor name"))
            raw_name = read(fh, name_len, "tensor name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: bad tensor name: {exc}") from exc
            try:
                data = read_tensor(fh)
            except TensorFormatError as exc:
                raise CheckpointError(f"{path}: tensor {name!r}: {exc}") from exc
            if name not in named:
                raise CheckpointError(f"{path}: unexpected tensor {name!r}")
            if name in seen:
                raise CheckpointError(f"{path}: tensor {name!r} appears twice")
            if named[name].data.shape != data.shape:
                raise CheckpointError(
                    f"{path}: tensor {name!r} has shape {data.shape}, "
                    f"expected {named[name].data.shape}"
                )
            named[name].data = data.astype(named[name].data.dtype, copy=False)
            seen.add(name)
        missing = sorted(set(named) - seen)
        if missing:
            raise CheckpointError(f"{path}: missing tensors {missing}")
    return model, header.get("extra", {})
