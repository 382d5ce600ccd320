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

A step is defined as two halves of its batch (``_Halves``): the loss and
gradient are the row-weighted sums of those of its first and second half,
each half padded to its own longest row.  A forked worker computes the
second half on the other core while this process computes the first;
without one, this process computes both, with the same bits.  So training
outputs do not depend on the CPU count.  They differ, at about 1e-16
relative, from those of a step over the whole batch at once, as training
did before its steps were split: the halves' products have other shapes,
so BLAS rounds them in another order.  That worker, and the child that
scores every other batch of an evaluation, are both a ``_Worker``: a
child that takes one item at a time, in lockstep with this process, which
makes one ``pair`` call per item, and does the item itself when the child
did not.  What either child writes for this process to read lies in
memory from ``_shared``.

Training logs one tab-separated line per evaluation: step number, the
step's loss (full repr), validation accuracy, and wall-clock seconds.
Everything except the wall column is reproducible bit for bit for a
fixed seed.
"""

from __future__ import annotations

import json
import math
import mmap
import numbers
import os
import random
import struct
import threading
import time
from collections.abc import Callable, Sequence
from contextlib import AbstractContextManager, suppress
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import zip_longest

import numpy as np

from . import BLAS_THREAD_VARS, ClozereaderError, write_lines, write_whole
from .asreader import Batch, Model, ModelConfig, Predictions, check_counts, occurrences
from .ensemble import prediction_accuracy
from .numerics import (
    DEFAULT_LEARNING_RATE, Adam, TensorFormatError, clip_gradients, mul, read_tensor,
    write_tensor, zero_frozen_rows, zero_grads,
)
from .numerics.serialize import read_exactly
from .seeding import check_seed, derive_seed
from .vocab import ANSWER, CANDIDATES, EncodedCorpus, Vocabulary, VocabularyError

CHECKPOINT_MAGIC = b"CLZR"
CHECKPOINT_VERSION = 1

DEFAULT_BATCH_SIZE = 128
DEFAULT_PREFETCH = 10
WORKERS = 2  # this process and the one child that it forks


class TrainingDivergedError(ClozereaderError):
    """Raised when the loss or the gradient norm becomes NaN or infinite,
    or a training or validation pass overflows."""


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
        check_counts(self, "batch_size", "prefetch_batches", "max_epochs", "patience",
                     *(() if self.eval_every is None else ("eval_every",)))
        check_seed(self.rng_seed)
        if not isinstance(self.learning_rate, numbers.Real) or isinstance(self.learning_rate, bool):
            raise ValueError(f"learning_rate must be a real number, got {self.learning_rate!r}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")


def make_batches(corpus: EncodedCorpus, config: TrainConfig, epoch_seed: int) -> list[Batch]:
    """Length-bucketed batches over a seeded epoch shuffle, each checked in
    epoch order by ``Batch.answer_positions``, which names a bad example's source."""
    rng = random.Random(epoch_seed)
    order = list(range(len(corpus)))
    rng.shuffle(order)
    lengths = corpus.context_lengths().tolist()
    window_size = config.batch_size * config.prefetch_batches
    batches: list[Batch] = []
    for start in range(0, len(order), window_size):
        window = order[start : start + window_size]
        window.sort(key=lengths.__getitem__)
        window_batches = [Batch.from_corpus(corpus, window[i : i + config.batch_size])
                          for i in range(0, len(window), config.batch_size)]
        rng.shuffle(window_batches)
        batches += window_batches
    for batch in batches:
        batch.answer_positions(corpus.sources)
    return batches


@dataclass
class EvalResult:
    accuracy: float
    predictions: Predictions  # without attention; Model.predict gives it


def evaluate(model: Model, corpus: EncodedCorpus,
             batch_size: int = DEFAULT_BATCH_SIZE) -> EvalResult:
    """Greedy accuracy plus the predictions, in input order."""
    return _score(corpus, lambda batch: model.predict(batch).probabilities, batch_size)


def most_frequent_candidate_accuracy(corpus: EncodedCorpus) -> float:
    """Baseline: always pick the candidate occurring most often in the
    document (ties go to the earlier candidate in the list)."""
    # A padding slot counts 0 and follows the real candidates, so it never wins.
    return _score(corpus, lambda batch: occurrences(
        batch.context, batch.context_lengths, batch.candidates).sum(axis=2)).accuracy


def _score(corpus: EncodedCorpus, score, batch_size: int = DEFAULT_BATCH_SIZE) -> EvalResult:
    """Accuracy of the argmax of ``score(batch)``'s (B, C) rows, and the rows
    as predictions in input order; batches go in context-length order.

    The batches go in pairs, one ``pair`` call of a forked ``_Worker`` each:
    this process scores batch 2k while the worker scores batch 2k+1 into the
    shared rows, or scores batch 2k+1 itself after when the worker did not.
    A row depends on its batch alone, and the walk meets the batches in
    plain length order on any CPU count, so the rows, and the error raised
    by a bad batch, do not depend on it."""
    if not corpus:
        raise ValueError("nothing to evaluate")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    (candidate_ids, _), (answers, _) = corpus.ids(slice(None), CANDIDATES, ANSWER)
    probabilities = _shared(candidate_ids.size).reshape(candidate_ids.shape)
    order = np.argsort(corpus.context_lengths(), kind="stable")
    starts = range(0, len(order), batch_size)

    def run(start: int) -> None:
        batch = Batch.from_corpus(corpus, order[start : start + batch_size])
        rows = score(batch)
        probabilities[batch.indices, : rows.shape[1]] = rows

    with _Worker(starts[1::WORKERS], run) as worker:
        for start, other in zip_longest(starts[::WORKERS], starts[1::WORKERS]):
            worker.pair(partial(run, start), other)
    predictions = Predictions(candidate_ids, probabilities)
    return EvalResult(prediction_accuracy(predictions, answers.reshape(-1)), predictions)


def _shared(count: int) -> np.ndarray:
    """``count`` float64 zeros in anonymous MAP_SHARED memory, the one kind
    of memory that a forked child writes and this process then reads."""
    return np.frombuffer(mmap.mmap(-1, max(count, 1) * 8), count=count)


def _may_fork() -> bool:
    """Whether a second process may run: this one may run on ``WORKERS``
    CPUs, it runs no other Python thread (a fork copies this thread alone,
    so a lock another thread holds would hang the child), and BLAS runs one
    thread, as every variable it reads when numpy loads says (a BLAS pool in
    each process would put more threads than cores on the CPUs)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return (cpus >= WORKERS and threading.active_count() == 1
            and all(os.environ.get(var) == "1" for var in BLAS_THREAD_VARS))


class _Worker(AbstractContextManager):
    """A forked child that runs ``job(item)`` for each of ``items`` in
    lockstep with this process, the one way this module starts a process.

    It forks only when ``items`` is not empty and ``_may_fork`` says yes;
    ``pid`` is None when it did not fork, a pipe or the fork raised
    ``OSError`` (every end made is then closed), or the child failed.  The
    caller makes one ``pair`` call per item, in order.  Before each item
    the child blocks until ``pair`` sends it one byte, then runs the job
    and answers with one byte.  It is never sent a signal: it ends in
    ``os._exit``, with status 0 when it ran every item and 1 otherwise, so
    no caller frame, handler or buffer runs twice, and it ends early when
    its job raises or its pipe reads EOF.  The ``with`` block closes both
    pipes, then reaps the child: an idle child reads EOF and exits, and a
    busy one first finishes its item (reaping first would wait forever on
    an idle child).  A parent that dies closes them too, so it leaves no
    child running longer than one item.  When the answer does not come the
    child is exiting, and ``pair`` reaps it and does that item and every
    later one in this process; so what it computes, and the error it
    raises, do not depend on the CPU count."""

    def __init__(self, items: Sequence, job: Callable[[object], None]):
        self.job, self.pid, ends = job, None, []
        if items and _may_fork():
            with suppress(OSError):  # no descriptor or process to spare: pid stays None
                ends += os.pipe()
                ends += os.pipe()
                self.pid = os.fork()
        if self.pid == 0:
            hand_r, hand_w, _, done_w = ends
            ran = 0
            try:
                os.close(hand_w)  # the parent's end: its close or exit then reads as EOF here
                while ran < len(items) and os.read(hand_r, 1):
                    job(items[ran])
                    os.write(done_w, b"\0")
                    ran += 1
            finally:
                os._exit(int(ran < len(items)))
        # This process keeps the hand pipe's write end and the done pipe's
        # read end while a child runs, and closes every other end made.
        self.fds = ends[1:3] if self.pid else []
        for fd in set(ends) - set(self.fds):
            os.close(fd)

    def __exit__(self, *exc) -> None:
        for fd in self.fds:
            os.close(fd)
        self._reap()

    def pair(self, mine: Callable[[], object], item):
        """``mine()``, while the child runs ``job(item)``; when no child
        runs or it does not answer, this process runs ``job(item)`` after,
        and no child runs any more.  With ``item`` None, ``mine()`` alone.
        An EOF instead of the answer means that the child is exiting: it
        alone holds the done pipe's write end, so it is reaped unsignalled."""
        if item is not None and self.pid:
            with suppress(BrokenPipeError):  # a dead child: its answer meets EOF below
                os.write(self.fds[0], b"\0")
        result = mine()
        if item is not None and not (self.pid and os.read(self.fds[1], 1)):
            self._reap()
            self.job(item)
        return result

    def _reap(self) -> None:
        pid, self.pid = self.pid, None
        if pid:
            os.waitpid(pid, 0)


class _Halves:
    """The two halves of each training step of ``model``.

    A batch of n rows is split at h = (n + 1) // 2.  The step's loss and
    gradient are (h/n)·L₁ + ((n−h)/n)·L₂ and (h/n)·g₁ + ((n−h)/n)·g₂ over
    rows [0, h) and [h, n), each half padded to its own longest row and
    summed in that order; a one-row batch is one half.  ``step`` makes one
    ``pair`` call of a forked ``_Worker`` per batch: this process computes
    the first half, and the worker the second while one runs.  The
    parameters move into ``_shared`` memory here, once, where the worker
    sees Adam update them in place; the slots for the second half's loss
    and gradients are made there too, and the process that computes that
    half fills them (``_second``).  Without a worker, or once it fails,
    that is this process, with the same bits."""

    def __init__(self, model: Model):
        self.model, self.params = model, model.parameters()
        sizes = [p.data.size for p in self.params]
        bounds = np.cumsum(sizes)[:-1]
        data = _shared(sum(sizes))
        for p, flat in zip(self.params, np.split(data, bounds)):
            flat = flat.reshape(p.data.shape)
            flat[...] = p.data
            p.data = flat
        self.slots = _shared(1 + sum(sizes))
        self.views = [flat.reshape(p.data.shape)
                      for p, flat in zip(self.params, np.split(self.slots[1:], bounds))]

    def _half(self, batch: Batch, start: int, stop: int) -> tuple[float, list]:
        """(stop − start)/n times the loss of rows [start, stop) of the n-row
        ``batch``, and each parameter's gradient of that (None for none).
        The weight is a node of the tape, so no gradient is scaled after."""
        zero_grads(self.params)
        loss = mul(self.model.loss(batch.rows(start, stop)), (stop - start) / batch.size)
        value = loss.item()
        if math.isfinite(value):
            loss.backward()
        # Free this half's graph before the next forward pass builds one.
        del loss
        return value, [p.grad for p in self.params]

    def _second(self, batch: Batch) -> None:
        """``_half`` of the second half, into the slots: its loss, and each
        gradient; of the embedding's, the rows that half reads, in order."""
        h = (batch.size + 1) // 2
        self.slots[0], grads = self._half(batch, h, batch.size)
        rows = batch.rows(h, batch.size).token_ids()
        for param, view, grad in zip(self.params, self.views, grads):
            if grad is not None:
                grad = grad[rows] if param is self.model.embedding else grad
                view[: len(grad)] = grad

    def step(self, batch: Batch, worker: _Worker) -> float:
        """The step's loss; each parameter's ``grad`` becomes the step's
        gradient.  ``worker``, running ``_second`` over the epoch's batches
        of two or more rows, pairs the second half with the first."""
        n = batch.size
        h = (n + 1) // 2
        loss, grads = worker.pair(partial(self._half, batch, 0, h), batch if h < n else None)
        if h < n:
            loss += float(self.slots[0])
            if math.isfinite(loss):  # both halves ran backward, so every gradient exists
                rows = batch.rows(h, n).token_ids()
                for param, grad, other in zip(self.params, grads, self.views):
                    if param is self.model.embedding:
                        grad[rows] += other[: len(rows)]
                    else:
                        grad += other
        for param, grad in zip(self.params, grads):
            param.grad = grad
        return loss


@dataclass
class TrainResult:
    best_accuracy: float
    best_step: int
    steps: int
    epochs: int
    log_lines: list[str] = field(default_factory=list)


def train(
    model: Model,
    train_examples: EncodedCorpus,
    valid_examples: EncodedCorpus,
    config: TrainConfig,
    checkpoint_path: str | None = None,
    log_path: str | None = None,
) -> TrainResult:
    """Optimize the model, keeping the checkpoint with the best validation
    accuracy; the module docstring gives the evaluation schedule.

    Each evaluation, after its possible checkpoint save, writes every log
    line so far to ``log_path``, when it is given, through ``write_lines``.
    So a run that diverges keeps the lines of its earlier evaluations, and
    one that fails before its first evaluation writes no log.

    A NaN or infinite loss or gradient norm saves a diagnostic checkpoint
    (when a path is given) and raises TrainingDivergedError before the
    parameters are updated.  So does an overflow in any pass, a step's or
    a validation pass's, in this process or a child: saturated ``tanh``
    units would otherwise keep the loss and the norm finite while the
    weights run off to about 1e300.  Empty corpora are rejected before the
    first step, and so, through ``make_batches``, are training examples
    whose answer never occurs in the document: epoch 0's batches cover
    them all.
    When it starts, on any CPU count, the parameters' arrays become views
    of memory shared with its training workers.
    """
    if not train_examples:
        raise ValueError("no training examples")
    if not valid_examples:
        raise ValueError("no validation examples")
    params = model.parameters()
    optimizer = Adam(params, lr=config.learning_rate)
    halves = _Halves(model)
    result = TrainResult(best_accuracy=-math.inf, best_step=0, steps=0, epochs=0)
    eval_every = config.eval_every or math.inf
    examples_seen = 0
    since_best = 0
    started = time.monotonic()
    extra = {"step": 0}  # what a diverged run's checkpoint keeps of the step so far
    try:
        for epoch in range(config.max_epochs):
            result.epochs = epoch + 1
            batches = make_batches(train_examples, config,
                                   derive_seed(config.rng_seed, "epoch", epoch))
            halved = [batch for batch in batches if batch.size > 1]
            # An overflow raises, in this process and in each child, forked after it is set.
            with np.errstate(over="raise"), _Worker(halved, halves._second) as worker:
                for batch in batches:
                    extra["loss"] = loss_value = halves.step(batch, worker)
                    if math.isfinite(loss_value):
                        # Gradient that Adam would discard must not count towards the clip.
                        zero_frozen_rows(params)
                        extra["grad_norm"] = clip_gradients([p.grad for p in params
                                                             if p.grad is not None])
                    # A non-finite loss skips the backward pass: the last value is the one to check.
                    name, value = list(extra.items())[-1]
                    if not math.isfinite(value):
                        what = "gradient norm" if name == "grad_norm" else name
                        raise FloatingPointError(f"{what} {value!r}")
                    optimizer.step()
                    result.steps += 1
                    extra = {"step": result.steps}
                    examples_seen += batch.size
                    crossed_mark = (examples_seen // eval_every
                                    > (examples_seen - batch.size) // eval_every)
                    if not crossed_mark and batch is not batches[-1]:
                        continue
                    accuracy = evaluate(model, valid_examples, config.batch_size).accuracy
                    if accuracy > result.best_accuracy:
                        result.best_accuracy, result.best_step = accuracy, result.steps
                        since_best = 0
                        if checkpoint_path is not None:
                            save_checkpoint(model, checkpoint_path, extra={
                                "validation_accuracy": accuracy, "step": result.steps})
                    else:
                        since_best += 1
                    line = (f"{result.steps}\t{loss_value!r}\t{accuracy:.6f}"
                            f"\t{time.monotonic() - started:.3f}")
                    result.log_lines.append(line)
                    if log_path is not None:
                        write_lines(log_path, result.log_lines)
                    if since_best == config.patience:
                        return result
    except FloatingPointError as exc:  # a non-finite loss or norm, or an overflow in any pass
        if checkpoint_path is not None:
            save_checkpoint(model, checkpoint_path + ".diverged", extra=extra)
        raise TrainingDivergedError(f"non-finite {exc} at step {result.steps}") from exc
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
    with write_whole(path, "wb") as fh:
        fh.write(struct.pack("<4sH", CHECKPOINT_MAGIC, CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(named)))
        for name in sorted(named):
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            write_tensor(fh, named[name].data)


def load_checkpoint(path: str) -> tuple[Model, dict]:
    """Rebuild a model from a checkpoint; returns (model, extra metadata).

    The header and the whole tensor table are read and the file closed
    before the model is built, so a short or corrupt file fails before any
    random initialization; the names and shapes are then checked against
    the model's parameters."""
    prefix = ""  # names the tensor while its block is read, for that block's errors
    try:
        with open(path, "rb") as fh:
            head = fh.read(6)
            if len(head) < 6 or head[:4] != CHECKPOINT_MAGIC:
                raise CheckpointError(f"{path}: not a checkpoint file")
            (version,) = struct.unpack("<H", head[4:6])
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
            (blob_len,) = struct.unpack("<Q", read_exactly(fh, 8, "header"))
            blob = read_exactly(fh, blob_len, "header")
            try:
                header = json.loads(blob.decode("utf-8"))
                vocab_info = header["vocab"]
                vocabulary = Vocabulary(
                    words=vocab_info["words"],
                    cap=vocab_info["cap"],
                    anon_count=vocab_info["anon_count"],
                )
                config = ModelConfig(**header["config"])
                rng_seed, extra = check_seed(header["rng_seed"]), header["extra"]
                if not isinstance(extra, dict):
                    raise ValueError(f"extra must be an object, got {extra!r}")
            except (KeyError, TypeError, ValueError, VocabularyError) as exc:
                raise CheckpointError(f"{path}: bad header: {exc}") from exc
            (count,) = struct.unpack("<I", read_exactly(fh, 4, "tensor table"))
            tensors: dict[str, np.ndarray] = {}
            for _ in range(count):
                (name_len,) = struct.unpack("<H", read_exactly(fh, 2, "tensor name"))
                try:
                    name = read_exactly(fh, name_len, "tensor name").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CheckpointError(f"{path}: bad tensor name: {exc}") from exc
                if name in tensors:
                    raise CheckpointError(f"{path}: tensor {name!r} appears twice")
                prefix = f"tensor {name!r}: "
                tensors[name] = read_tensor(fh)
                prefix = ""
    except TensorFormatError as exc:
        raise CheckpointError(f"{path}: {prefix}{exc}") from exc
    model = Model(vocabulary, config, rng_seed)
    named = model.named_parameters()
    for name, data in tensors.items():
        if name not in named:
            raise CheckpointError(f"{path}: unexpected tensor {name!r}")
        if named[name].data.shape != data.shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {data.shape}, "
                f"expected {named[name].data.shape}"
            )
        named[name].data = data.astype(named[name].data.dtype, copy=False)
    missing = sorted(set(named) - set(tensors))
    if missing:
        raise CheckpointError(f"{path}: missing tensors {missing}")
    return model, extra
