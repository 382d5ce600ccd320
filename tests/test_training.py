"""Bucketed batching, evaluation, the training loop, checkpoints."""

import contextlib
import errno
import gc
import io
import json
import mmap
import os
import platform
import re
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from clozereader import BLAS_THREAD_VARS
from clozereader.asreader import (
    AnswerNotInDocumentError,
    Batch,
    Model,
    ModelConfig,
    occurrences,
    predictions_from_scores,
)
from clozereader.numerics import Tensor, clip_gradients, no_grad, write_tensor
from clozereader.numerics.serialize import TENSOR_MAGIC, read_tensor
from clozereader.seeding import derive_seed
from clozereader.synthdata import associative_recall_examples
from clozereader.training import (
    CheckpointError,
    TrainConfig,
    TrainingDivergedError,
    _score,
    evaluate,
    load_checkpoint,
    make_batches,
    most_frequent_candidate_accuracy,
    save_checkpoint,
    train,
)
from clozereader.vocab import (
    CANDIDATES,
    GAP_ID,
    PAD_ID,
    EncodedCorpus,
    EncodedExample,
    Vocabulary,
    build_vocab,
    encode_dataset,
)

LOG_LINE = re.compile(r"^\d+\t[^\t]+\t\d\.\d{6}\t\d+\.\d{3}$")


def example_of_length(n, index=0):
    return EncodedExample(
        context_ids=[10 + index % 3] * n,
        question_ids=[GAP_ID],
        answer_id=10 + index % 3,
        candidate_ids=[10, 11],
        oov_map={},
    )


def toy_setup(n_train=48, n_valid=16, rng_seed=3):
    train_raw = associative_recall_examples(n_train, rng_seed=rng_seed)
    valid_raw = associative_recall_examples(n_valid, rng_seed=rng_seed + 1)
    vocabulary = build_vocab(train_raw, cap=200, anon_count=50)
    enc_train = encode_dataset(train_raw, vocabulary, derive_seed(0, "train"))
    enc_valid = encode_dataset(valid_raw, vocabulary, derive_seed(0, "valid"))
    config = ModelConfig(embedding_dim=16, hidden_units=16, recurrent_layers=1)
    model = Model(vocabulary, config, rng_seed=5)
    return model, enc_train, enc_valid


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("key", ["batch_size", "prefetch_batches", "max_epochs", "patience"])
def test_train_config_rejects_a_count_below_1(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be positive$"):
        TrainConfig(**{key: value})


@pytest.mark.parametrize("value", [2.5, 4.0, True, "4"])
@pytest.mark.parametrize("key", ["batch_size", "prefetch_batches", "max_epochs", "patience",
                                 "eval_every"])
def test_train_config_rejects_a_count_that_is_not_an_integer(key, value):
    message = f"^{key} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{key: value})


@pytest.mark.parametrize("key, value, message", [
    ("rng_seed", 3.0, "rng_seed must be an integer"),
    ("rng_seed", True, "rng_seed must be an integer"),
    ("learning_rate", True, "learning_rate must be a real number"),
    ("learning_rate", "0.1", "learning_rate must be a real number"),
    ("learning_rate", None, "learning_rate must be a real number"),
], ids=["float-seed", "bool-seed", "bool-rate", "str-rate", "no-rate"])
def test_train_config_rejects_a_seed_or_rate_of_the_wrong_type(key, value, message):
    with pytest.raises(ValueError, match=f"^{message}, got {re.escape(repr(value))}$"):
        TrainConfig(**{key: value})


# ----------------------------------------------------------------- batching


@pytest.mark.parametrize("eval_every", [0, -8])
def test_train_config_rejects_eval_every_below_1(eval_every):
    with pytest.raises(ValueError, match="eval_every must be positive"):
        TrainConfig(eval_every=eval_every)
    assert TrainConfig(eval_every=None).eval_every is None


def test_make_batches_is_a_permutation():
    corpus = EncodedCorpus.from_examples([example_of_length(3 + i % 7, i) for i in range(50)])
    config = TrainConfig(batch_size=8, prefetch_batches=2)
    batches = make_batches(corpus, config, epoch_seed=1)
    indices = [i for b in batches for i in b.indices.tolist()]
    assert sorted(indices) == list(range(50))
    assert all(b.size <= 8 for b in batches)


def test_make_batches_buckets_each_window_by_length():
    # One full window of unique lengths: every batch must then cover a
    # contiguous run of the sorted lengths.
    lengths = list(range(1, 33))
    corpus = EncodedCorpus.from_examples([example_of_length(n) for n in lengths])
    config = TrainConfig(batch_size=8, prefetch_batches=4)
    batches = make_batches(corpus, config, epoch_seed=7)
    assert len(batches) == 4
    seen = []
    for batch in batches:
        batch_lengths = sorted(batch.context_lengths.tolist())
        assert batch_lengths == list(
            range(batch_lengths[0], batch_lengths[0] + 8)
        )
        seen.extend(batch_lengths)
    assert sorted(seen) == lengths


def test_make_batches_spec_sizes():
    corpus = EncodedCorpus.from_examples([example_of_length(2 + i % 11, i) for i in range(1280)])
    config = TrainConfig(batch_size=128, prefetch_batches=10)
    batches = make_batches(corpus, config, epoch_seed=0)
    assert len(batches) == 10
    assert all(b.size == 128 for b in batches)


def test_make_batches_order_changes_with_epoch_seed():
    corpus = EncodedCorpus.from_examples([example_of_length(3 + i % 5, i) for i in range(40)])
    config = TrainConfig(batch_size=8, prefetch_batches=2)
    one = [b.indices.tolist() for b in make_batches(corpus, config, 1)]
    two = [b.indices.tolist() for b in make_batches(corpus, config, 2)]
    again = [b.indices.tolist() for b in make_batches(corpus, config, 1)]
    assert one == again
    assert one != two


def test_make_batches_empty_input():
    assert make_batches(EncodedCorpus.from_examples([]), TrainConfig(), 0) == []


def test_make_batches_returns_a_list_from_a_corpus():
    _, enc_train, _ = toy_setup(n_train=10, n_valid=2)
    batches = make_batches(enc_train, TrainConfig(batch_size=4), 0)
    assert type(batches) is list and len(batches) == 3
    assert all(isinstance(b, Batch) for b in batches)


def test_training_and_evaluation_build_no_row_view(monkeypatch):
    model, enc_train, enc_valid = toy_setup(n_train=8, n_valid=4)

    def no_rows(self, key):
        raise AssertionError(f"row view {key!r} built")

    monkeypatch.setattr(EncodedCorpus, "__getitem__", no_rows)
    train(model, enc_train, enc_valid, TrainConfig(batch_size=4, max_epochs=1))
    evaluate(model, enc_valid)
    most_frequent_candidate_accuracy(enc_valid)


# ------------------------------------------------------------------- eval


def test_evaluate_restores_input_order():
    model, enc_train, _ = toy_setup(n_train=9)
    enc_train = list(enc_train)
    # Unequal lengths force reordering inside evaluate.
    for i, ex in enumerate(enc_train):
        ex.context_ids = ex.context_ids[: len(ex.context_ids) - (i % 4)]
    result = evaluate(model, EncodedCorpus.from_examples(enc_train), batch_size=2)
    assert len(result.predictions) == 9
    for ex, prediction in zip(enc_train, result.predictions):
        (single,) = model.predict(Batch.from_examples([ex]))
        assert prediction.predicted_id == single.predicted_id
        np.testing.assert_allclose(
            prediction.probabilities, single.probabilities, atol=1e-12
        )
    manual = sum(
        p.predicted_id == ex.answer_id
        for p, ex in zip(result.predictions, enc_train)
    ) / 9
    assert result.accuracy == pytest.approx(manual)


def test_predictions_do_not_depend_on_batch_size(monkeypatch):
    model, enc_train, _ = toy_setup(n_train=40)
    examples = list(enc_train)
    for i, ex in enumerate(examples):
        ex.context_ids = ex.context_ids[: len(ex.context_ids) - (i % 5)]
    alone = [p for ex in examples for p in model.predict(Batch.from_examples([ex]))]
    padded = [p for start in range(0, len(examples), 32)
              for p in model.predict(Batch.from_examples(examples[start : start + 32]))]
    for ex, one, many in zip(examples, alone, padded):
        assert many.attention.shape == one.attention.shape == (len(ex.context_ids),)
        np.testing.assert_allclose(many.attention, one.attention, rtol=0, atol=1e-12)

    batches = []
    real_predict = Model.predict

    def recording_predict(self, batch):
        batches.append(batch)
        return real_predict(self, batch)

    monkeypatch.setattr(Model, "predict", recording_predict)
    corpus = EncodedCorpus.from_examples(examples)
    one_by_one = evaluate(model, corpus, batch_size=1).predictions
    result = evaluate(model, corpus, batch_size=32).predictions
    np.testing.assert_allclose(result.probabilities, one_by_one.probabilities, rtol=0, atol=1e-12)
    # The result keeps no attention and pins no batch array.
    assert result.attention is None
    batch_arrays = [array for batch in batches for array in vars(batch).values()]
    for array in (result.candidate_ids, result.probabilities):
        assert not any(np.shares_memory(array, other) for other in batch_arrays)


def test_evaluate_pads_the_rows_of_batches_with_fewer_candidates():
    model, enc_train, _ = toy_setup(n_train=8)
    examples = list(enc_train)
    # Evaluate's length-sorted batches of 4: the first holds two-candidate examples.
    for i in np.argsort([len(ex.context_ids) for ex in examples], kind="stable")[:4]:
        ex = examples[i]
        ex.candidate_ids = [ex.answer_id] + [c for c in ex.candidate_ids if c != ex.answer_id][:1]
    result = evaluate(model, EncodedCorpus.from_examples(examples), batch_size=4)
    width = max(len(ex.candidate_ids) for ex in examples)
    assert width > 2 and result.predictions.probabilities.shape == (8, width)
    for ex, prediction in zip(examples, result.predictions):
        n = len(ex.candidate_ids)
        (single,) = model.predict(Batch.from_examples([ex]))
        assert prediction.candidate_ids[:n].tolist() == ex.candidate_ids
        assert (prediction.candidate_ids[n:] == PAD_ID).all()
        assert (prediction.probabilities[n:] == 0).all()
        np.testing.assert_allclose(prediction.probabilities[:n], single.probabilities, atol=1e-12)
        assert prediction.predicted_id == single.predicted_id


def test_one_batch_may_mix_candidate_counts():
    raw = associative_recall_examples(8, 0) + associative_recall_examples(8, 1, n_pairs=4)
    vocabulary = build_vocab(raw, cap=200, anon_count=50)
    corpus = encode_dataset(raw, vocabulary, 0)
    model = Model(vocabulary, ModelConfig(embedding_dim=8, hidden_units=8, recurrent_layers=1))
    # Every batch of 16 or 32 holds the ten-pair and the four-pair examples.
    assert train(model, corpus, corpus, TrainConfig(batch_size=16, max_epochs=1)).steps == 1
    alone = evaluate(model, corpus, batch_size=1).predictions
    mixed = evaluate(model, corpus, batch_size=32).predictions
    assert (mixed.candidate_ids[8:, 4:] == PAD_ID).all()
    assert (mixed.probabilities[8:, 4:] == 0).all()
    # Batch shape and context padding move the scores by an ulp or so, as in
    # test_predictions_do_not_depend_on_batch_size.
    np.testing.assert_allclose(mixed.probabilities, alone.probabilities, rtol=0, atol=1e-12)
    assert (mixed.predicted_ids == alone.predicted_ids).all()
    # Padding the candidates changes no bit: score each row of evaluate's
    # batch with its own candidates only.
    batch = Batch.from_corpus(corpus, np.argsort(corpus.context_lengths(), kind="stable"))
    with no_grad():
        scores = model.forward_scores(batch).data
    for i, row in enumerate(batch.indices):
        n = len(raw[row].candidates)
        (own,) = predictions_from_scores(scores[i : i + 1], batch.context[i : i + 1],
                                         batch.context_lengths[i : i + 1],
                                         batch.candidates[i : i + 1, :n])
        assert own.probabilities.tobytes() == mixed.probabilities[row, :n].tobytes()
    # The value the baseline gave before batches padded their candidates.
    assert most_frequent_candidate_accuracy(corpus) == 0.1875


def test_evaluation_result_takes_at_most_2_bytes_per_context_token(generated_splits):
    vocab = build_vocab(generated_splits["train"], cap=200_000)
    corpus = encode_dataset(generated_splits["valid"], vocab, 7)
    model = Model(vocab, ModelConfig(embedding_dim=8, hidden_units=8, recurrent_layers=1))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = evaluate(model, corpus)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result.predictions) == len(corpus)
    assert grown / corpus.context_lengths().sum() <= 2


def test_evaluate_rejects_empty():
    model, _, _ = toy_setup(n_train=2)
    with pytest.raises(ValueError):
        evaluate(model, EncodedCorpus.from_examples([]))


@pytest.mark.parametrize("batch_size", [-1, 0])
def test_evaluate_rejects_a_batch_size_below_1(batch_size):
    model, _, enc_valid = toy_setup(n_train=2, n_valid=2)
    with pytest.raises(ValueError, match="batch_size must be positive"):
        evaluate(model, enc_valid, batch_size)


@pytest.mark.parametrize("score", [
    lambda corpus: evaluate(toy_setup(n_train=2)[0], corpus),
    most_frequent_candidate_accuracy,
], ids=["evaluate", "baseline"])
def test_scoring_an_empty_corpus_raises_the_same_error(score):
    with pytest.raises(ValueError, match="^nothing to evaluate$"):
        score(EncodedCorpus.from_examples([]))


def test_most_frequent_candidate_baseline():
    def accuracy(*examples):
        return most_frequent_candidate_accuracy(EncodedCorpus.from_examples(list(examples)))

    one = EncodedExample([7, 7, 8], [GAP_ID], 7, [7, 8], {})
    two = EncodedExample([7, 8, 8], [GAP_ID], 7, [7, 8], {})
    tie = EncodedExample([7, 8], [GAP_ID], 8, [8, 7], {})
    assert accuracy(one) == 1.0
    assert accuracy(one, two) == 0.5
    # Tie on counts goes to the earlier candidate in the list.
    assert accuracy(tie) == 1.0
    # Examples may differ in candidate count.
    three = EncodedExample([7, 9, 9], [GAP_ID], 9, [7, 8, 9], {})
    absent = EncodedExample([9], [GAP_ID], 7, [7, 8], {})
    assert accuracy(one, three, two, absent) == 0.75
    # One's padding candidate column counts none of its padding positions.
    wide = EncodedExample([9] * 6, [GAP_ID], 9, [9, 7, 8], {})
    assert accuracy(one, wide) == 1.0


# ------------------------------------------------------------ split walk


def split_setup(n):
    """An E8/H8/L1 model and ``n`` pointing examples, half with ten
    candidates and half with four."""
    raw = (associative_recall_examples(n // 2, 0)
           + associative_recall_examples(n - n // 2, 1, n_pairs=4))
    vocabulary = build_vocab(raw, cap=200, anon_count=50)
    model = Model(vocabulary, ModelConfig(embedding_dim=8, hidden_units=8, recurrent_layers=1))
    return model, encode_dataset(raw, vocabulary, 0)


def on_cpus(monkeypatch, n, run):
    """``run()`` in a process that may run on ``n`` CPUs."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        return run()


@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls made in this process."""
    calls, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(os.getpid()) or real_fork())
    return calls


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def refuse_fork():
    raise AssertionError("forked")


@pytest.mark.parametrize("n_batches", [1, 2, 3, 7])
def test_the_split_walk_scores_bit_for_bit_as_one_process(monkeypatch, forks, n_batches):
    model, corpus = split_setup(4 * n_batches - 1)
    widths = corpus.ids(slice(None), CANDIDATES)[0][1]
    assert sorted(set(widths.tolist())) == [4, 10]

    def run():
        return (evaluate(model, corpus, batch_size=4),
                _score(corpus, lambda batch: occurrences(
                    batch.context, batch.context_lengths, batch.candidates).sum(axis=2), 4))

    alone = on_cpus(monkeypatch, 1, run)
    assert forks == []
    split = on_cpus(monkeypatch, 2, run)
    assert len(forks) == 2 * (n_batches > 1)
    for one, two in zip(alone, split):
        assert one.predictions.probabilities.tobytes() == two.predictions.probabilities.tobytes()
        assert one.predictions.candidate_ids.tobytes() == two.predictions.candidate_ids.tobytes()
        assert one.accuracy == two.accuracy
    assert_no_child()


def test_each_batch_of_a_split_walk_is_built_by_one_process(monkeypatch, tmp_path):
    model, corpus = split_setup(19)  # five batches of 4
    built, from_corpus = tmp_path / "built", Batch.from_corpus

    def record(corpus, indices):
        with open(built, "a") as fh:  # one short O_APPEND write per call, from either process
            fh.write(f"{os.getpid()} {indices[0]}\n")
        return from_corpus(corpus, indices)

    monkeypatch.setattr(Batch, "from_corpus", staticmethod(record))
    on_cpus(monkeypatch, 2, lambda: evaluate(model, corpus, batch_size=4))
    by_process = {}
    for line in built.read_text().splitlines():
        pid, first = map(int, line.split())
        by_process.setdefault(pid, []).append(first)
    firsts = np.argsort(corpus.context_lengths(), kind="stable")[::4].tolist()
    assert by_process.pop(os.getpid()) == firsts[::2]
    assert list(by_process.values()) == [firsts[1::2]]
    assert_no_child()


def test_a_one_batch_walk_never_forks(monkeypatch):
    model, corpus = split_setup(8)
    monkeypatch.setattr(os, "fork", refuse_fork)
    on_cpus(monkeypatch, 2, lambda: evaluate(model, corpus, batch_size=8))
    on_cpus(monkeypatch, 2, lambda: most_frequent_candidate_accuracy(corpus))


def test_a_process_with_another_thread_never_forks(monkeypatch):
    model, corpus = split_setup(27)
    monkeypatch.setattr(os, "fork", refuse_fork)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        on_cpus(monkeypatch, 2, lambda: evaluate(model, corpus, batch_size=4))
        on_cpus(monkeypatch, 2, lambda: train(model, corpus, corpus, TrainConfig(batch_size=4)))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


@pytest.mark.parametrize("count", [None, "2"], ids=["unset", "two-threads"])
def test_a_process_whose_blas_may_run_threads_never_forks(monkeypatch, count):
    # Each process would run a BLAS pool of its own, more threads than cores.
    model, corpus = split_setup(27)
    monkeypatch.setattr(os, "fork", refuse_fork)
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if count is not None:
        monkeypatch.setenv(BLAS_THREAD_VARS[0], count)
    on_cpus(monkeypatch, 2, lambda: evaluate(model, corpus, batch_size=4))
    on_cpus(monkeypatch, 2, lambda: train(model, corpus, corpus, TrainConfig(batch_size=4)))


def test_a_child_that_fails_leaves_its_batches_to_the_parent(monkeypatch, forks):
    model, corpus = split_setup(27)
    alone = on_cpus(monkeypatch, 1, lambda: evaluate(model, corpus, batch_size=4))
    parent, real_predict = os.getpid(), Model.predict

    def predict(self, batch):
        if os.getpid() != parent:
            raise RuntimeError("failed in the child")
        return real_predict(self, batch)

    monkeypatch.setattr(Model, "predict", predict)
    split = on_cpus(monkeypatch, 2, lambda: evaluate(model, corpus, batch_size=4))
    assert forks == [parent]
    assert split.predictions.probabilities.tobytes() == alone.predictions.probabilities.tobytes()
    assert split.accuracy == alone.accuracy
    assert_no_child()


def test_a_fork_that_fails_leaves_every_batch_to_this_process(monkeypatch):
    model, corpus = split_setup(27)
    alone = on_cpus(monkeypatch, 1, lambda: evaluate(model, corpus, batch_size=4))

    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    split = on_cpus(monkeypatch, 2, lambda: evaluate(model, corpus, batch_size=4))
    assert split.predictions.probabilities.tobytes() == alone.predictions.probabilities.tobytes()


@pytest.mark.parametrize("bad", [0, 1, 4], ids=["parent-batch", "child-batch", "last-batch"])
def test_an_error_in_any_batch_is_raised_here_as_one_process_raises_it(monkeypatch, forks, bad):
    model, corpus = split_setup(19)  # five batches of 4
    first = np.argsort(corpus.context_lengths(), kind="stable")[4 * bad]
    real_predict = Model.predict

    def predict(self, batch):
        if batch.indices[0] == first:
            raise ValueError(f"batch starting at example {first}")
        return real_predict(self, batch)

    monkeypatch.setattr(Model, "predict", predict)
    messages = []
    for cpus in (1, 2):
        with pytest.raises(ValueError) as raised:
            on_cpus(monkeypatch, cpus, lambda: evaluate(model, corpus, batch_size=4))
        messages.append(str(raised.value))
        assert_no_child()
    assert messages == [f"batch starting at example {first}"] * 2
    assert len(forks) == 1


def test_two_bad_batches_raise_the_same_error_on_one_and_two_cpus(monkeypatch, forks):
    # Batch 1 is the child's and batch 2 this process's: both CPU counts
    # meet batch 1 first, as the walk collects each pair before the next.
    model, corpus = split_setup(19)  # five batches of 4
    firsts = np.argsort(corpus.context_lengths(), kind="stable")[[4, 8]].tolist()
    real_predict = Model.predict

    def predict(self, batch):
        if batch.indices[0] in firsts:
            raise ValueError(f"batch starting at example {batch.indices[0]}")
        return real_predict(self, batch)

    monkeypatch.setattr(Model, "predict", predict)
    messages = []
    for cpus in (1, 2):
        with pytest.raises(ValueError) as raised:
            on_cpus(monkeypatch, cpus, lambda: evaluate(model, corpus, batch_size=4))
        messages.append(str(raised.value))
        assert_no_child()
    assert messages == [f"batch starting at example {firsts[0]}"] * 2
    assert len(forks) == 1


def test_an_interrupted_parent_reaps_its_child(monkeypatch, forks):
    model, corpus = split_setup(27)
    parent, real_predict = os.getpid(), Model.predict

    def predict(self, batch):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real_predict(self, batch)

    monkeypatch.setattr(Model, "predict", predict)
    with pytest.raises(KeyboardInterrupt):
        on_cpus(monkeypatch, 2, lambda: evaluate(model, corpus, batch_size=4))
    assert forks == [parent]
    assert_no_child()


class Exited(BaseException):
    """Raised by a stand-in for ``os._exit``, with its status."""


@pytest.fixture
def pipes(monkeypatch):
    """``(go, fds)``: the bytes the test puts in ``go`` are written into the
    first pipe made, and each later pipe gets a second reader, the last of
    ``fds`` once it is made.  Every end in ``fds`` is closed after the test."""
    fds, go, real_pipe = [], [], os.pipe

    def pipe():
        ends = real_pipe()
        fds.extend(ends)
        if len(fds) == 2:
            os.write(ends[1], b"".join(go))
        else:
            fds.append(os.dup(ends[0]))
        return ends

    monkeypatch.setattr(os, "pipe", pipe)
    yield go, fds
    for fd in fds:
        with contextlib.suppress(OSError):
            os.close(fd)


@pytest.mark.parametrize("fails", [False, True], ids=["succeeds", "fails"])
def test_the_child_scores_the_odd_batches_then_exits(monkeypatch, pipes, fails):
    # The forked child's side of the walk, run in this process: ``os.fork``
    # answers as in the child and ``os._exit`` raises instead of exiting.
    # Both odd batches are handed to it before it starts.
    model, corpus = split_setup(19)
    pipes[0].append(b"\0\0")
    scored, real_predict = [], Model.predict

    def predict(self, batch):
        scored.append(batch.indices.tolist())
        if fails:
            raise RuntimeError("failed in the child")
        return real_predict(self, batch)

    def exit_(status):
        raise Exited(status)

    monkeypatch.setattr(Model, "predict", predict)
    monkeypatch.setattr(os, "fork", lambda: 0)
    monkeypatch.setattr(os, "_exit", exit_)
    with pytest.raises(Exited) as exited:
        on_cpus(monkeypatch, 2, lambda: evaluate(model, corpus, batch_size=4))
    assert exited.value.args == (int(fails),)
    order = np.argsort(corpus.context_lengths(), kind="stable").tolist()
    batches = [order[start : start + 4] for start in range(0, 19, 4)]
    assert scored == (batches[1:2] if fails else batches[1::2])


def test_an_orphaned_child_exits_before_its_next_batch(monkeypatch, pipes):
    # Nothing was written to its pipe, whose every writer is closed: the parent is gone.
    model, corpus = split_setup(19)
    scored, real_predict = [], Model.predict

    def predict(self, batch):
        scored.append(batch.indices.tolist())
        return real_predict(self, batch)

    def exit_(status):
        raise Exited(status)

    monkeypatch.setattr(Model, "predict", predict)
    monkeypatch.setattr(os, "fork", lambda: 0)
    monkeypatch.setattr(os, "_exit", exit_)
    with pytest.raises(Exited) as exited:
        on_cpus(monkeypatch, 2, lambda: evaluate(model, corpus, batch_size=4))
    assert exited.value.args == (1,)
    assert scored == []


# ------------------------------------------------------------------- train


def test_train_evaluates_by_example_count_and_epoch_end(tmp_path):
    # Sixteen examples in batches of 4: the epoch ends at step 4.
    schedules = {
        6: [2, 3, 4],  # marks cross at 8 and 12 examples; the epoch end adds step 4
        1: [1, 2, 3, 4],  # a step crossing four marks evaluates once
        17: [4],  # no mark falls inside the epoch, so only its end evaluates
    }
    for eval_every, eval_steps in schedules.items():
        model, enc_train, enc_valid = toy_setup(n_train=16, n_valid=4)
        config = TrainConfig(
            learning_rate=0.001, batch_size=4, prefetch_batches=1,
            eval_every=eval_every, max_epochs=1, patience=10, rng_seed=0,
        )
        result = train(model, enc_train, enc_valid, config)
        assert [int(line.split("\t")[0]) for line in result.log_lines] == eval_steps
        assert result.steps == 4
        assert result.epochs == 1
        for line in result.log_lines:
            assert LOG_LINE.match(line)


def test_train_epoch_end_evaluation_not_duplicated():
    model, enc_train, enc_valid = toy_setup(n_train=16, n_valid=4)
    config = TrainConfig(
        learning_rate=0.001, batch_size=4, prefetch_batches=1,
        eval_every=8, max_epochs=2, patience=10, rng_seed=0,
    )
    result = train(model, enc_train, enc_valid, config)
    # Evals at steps 2 and 4 per epoch; step 4 is also the epoch end and
    # must appear exactly once per epoch.
    assert [int(line.split("\t")[0]) for line in result.log_lines] == [2, 4, 6, 8]


def test_train_logs_are_reproducible_modulo_wall_time(tmp_path):
    def run():
        model, enc_train, enc_valid = toy_setup(n_train=24, n_valid=8)
        config = TrainConfig(
            learning_rate=0.002, batch_size=4, prefetch_batches=2,
            max_epochs=2, patience=10, rng_seed=1,
        )
        result = train(model, enc_train, enc_valid, config)
        return ["\t".join(line.split("\t")[:3]) for line in result.log_lines]

    assert run() == run()


def test_train_loss_drops_on_tiny_dataset():
    model, enc_train, _ = toy_setup(n_train=12, n_valid=4)
    config = TrainConfig(
        learning_rate=0.01, batch_size=4, prefetch_batches=1,
        max_epochs=25, patience=100, rng_seed=2,
    )
    result = train(model, enc_train, enc_train, config)
    first = float(result.log_lines[0].split("\t")[1])
    last = float(result.log_lines[-1].split("\t")[1])
    assert last < first / 5


def test_train_keeps_best_checkpoint_not_last(tmp_path, monkeypatch):
    model, enc_train, enc_valid = toy_setup(n_train=16, n_valid=4)
    accuracies = iter([0.5, 0.6, 0.55, 0.58])
    real_evaluate = evaluate

    def scripted_evaluate(eval_model, examples, batch_size=128):
        result = real_evaluate(eval_model, examples, batch_size)
        result.accuracy = next(accuracies)
        return result

    monkeypatch.setattr("clozereader.training.evaluate", scripted_evaluate)
    path = str(tmp_path / "model.ckpt")
    config = TrainConfig(
        learning_rate=0.001, batch_size=4, prefetch_batches=1,
        eval_every=4, max_epochs=10, patience=2, rng_seed=0,
    )
    result = train(model, enc_train, enc_valid, config, checkpoint_path=path)

    assert len(result.log_lines) == 4  # stopped right after the 4th eval
    assert result.best_accuracy == 0.6
    assert result.best_step == 2
    restored, extra = load_checkpoint(path)
    assert extra["validation_accuracy"] == 0.6
    assert extra["step"] == 2
    # Steps 3 and 4 kept training the live model past the saved state.
    assert not np.array_equal(restored.embedding.data, model.embedding.data)


@pytest.mark.parametrize("accuracies,patience,max_epochs,best", [
    ([0.5, 0.6, 0.55, 0.58], 2, 10, 1),  # two evaluations without a new best stop
    ([0.4, 0.4], 1, 10, 0),  # an equal accuracy is not an improvement
    ([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8], 1, 2, 7),  # always improving: runs to max_epochs
    ([0.5, 0.4, 0.6, 0.55, 0.5], 2, 10, 2),  # 0.6 restarts the count: no stop at the 4th
    ([0.0, 0.0], 1, 10, 0),  # the first evaluation is the best one even at 0
], ids=["stops-at-4th", "equal-is-no-gain", "runs-to-max-epochs", "count-restarts",
        "first-is-best-at-0"])
def test_train_stops_after_patience_evaluations_without_a_new_best(
        tmp_path, monkeypatch, accuracies, patience, max_epochs, best):
    model, enc_train, enc_valid = toy_setup(n_train=16, n_valid=4)
    script = iter(accuracies)
    real_evaluate = evaluate

    def scripted_evaluate(eval_model, examples, batch_size=128):
        result = real_evaluate(eval_model, examples, batch_size)
        result.accuracy = next(script)
        return result

    monkeypatch.setattr("clozereader.training.evaluate", scripted_evaluate)
    path = str(tmp_path / "model.ckpt")
    config = TrainConfig(
        learning_rate=0.001, batch_size=4, prefetch_batches=1,
        eval_every=4, max_epochs=max_epochs, patience=patience, rng_seed=0,
    )
    result = train(model, enc_train, enc_valid, config, checkpoint_path=path)

    # One evaluation per step, and training stopped at the last scripted one.
    assert len(result.log_lines) == result.steps == len(accuracies)
    assert [line.split("\t")[2] for line in result.log_lines] == [f"{a:.6f}" for a in accuracies]
    assert result.best_accuracy == accuracies[best]
    assert result.best_step == best + 1
    _, extra = load_checkpoint(path)
    assert extra == {"validation_accuracy": accuracies[best], "step": best + 1}


def test_train_diverges_loudly(tmp_path):
    model, enc_train, enc_valid = toy_setup(n_train=8, n_valid=4)
    model.embedding.data[:] = np.nan
    path = str(tmp_path / "model.ckpt")
    config = TrainConfig(
        learning_rate=0.001, batch_size=4, prefetch_batches=1,
        max_epochs=1, patience=1, rng_seed=0,
    )
    with pytest.raises(TrainingDivergedError, match="step 0"):
        train(model, enc_train, enc_valid, config, checkpoint_path=path)
    assert (tmp_path / "model.ckpt.diverged").exists()


def test_train_refuses_a_non_finite_gradient_norm(tmp_path, monkeypatch):
    model, enc_train, enc_valid = toy_setup(n_train=8, n_valid=4)
    real_backward = Tensor.backward

    def poisoned_backward(self):
        real_backward(self)
        model.embedding.grad[model.vocabulary.word_start] = np.nan

    monkeypatch.setattr(Tensor, "backward", poisoned_backward)
    before = {name: p.data.copy() for name, p in model.named_parameters().items()}
    path = str(tmp_path / "model.ckpt")
    config = TrainConfig(
        learning_rate=0.001, batch_size=4, prefetch_batches=1,
        max_epochs=1, patience=1, rng_seed=0,
    )
    with pytest.raises(TrainingDivergedError, match="gradient norm nan at step 0"):
        train(model, enc_train, enc_valid, config, checkpoint_path=path)
    for name, param in model.named_parameters().items():
        assert np.array_equal(param.data, before[name]), name
    assert (tmp_path / "model.ckpt.diverged").exists()


def test_a_diverged_run_keeps_the_log_lines_of_its_earlier_evaluations(tmp_path, monkeypatch):
    model, enc_train, enc_valid = toy_setup(n_train=16, n_valid=4)
    clips = iter([clip_gradients, lambda grads: np.nan])  # step 0 evaluates, step 1 diverges
    monkeypatch.setattr("clozereader.training.clip_gradients", lambda grads: next(clips)(grads))
    log = tmp_path / "train.log"
    config = TrainConfig(
        learning_rate=0.001, batch_size=4, prefetch_batches=1,
        eval_every=4, max_epochs=1, patience=10, rng_seed=0,
    )
    with pytest.raises(TrainingDivergedError, match="gradient norm nan at step 1"):
        train(model, enc_train, enc_valid, config, log_path=str(log))
    lines = log.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 and lines[0].startswith("1\t") and LOG_LINE.match(lines[0])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.log"]


def test_train_clips_without_the_gradient_of_frozen_anonymous_rows(monkeypatch):
    # The first batch holds 507 anonymous tokens.  Their frozen rows' gradient,
    # which Adam discards, would raise the pre-clip norm from 0.0805 to 0.0821.
    raw = associative_recall_examples(64, rng_seed=0)
    vocabulary = build_vocab(raw, cap=10, anon_count=60)
    encoded = encode_dataset(raw, vocabulary, derive_seed(0, "train"))
    model = Model(vocabulary, ModelConfig(embedding_dim=16, hidden_units=16,
                                          recurrent_layers=1), rng_seed=0)
    norms = []

    def recording_clip(grads):
        norms.append(clip_gradients(grads))
        return norms[-1]

    monkeypatch.setattr("clozereader.training.clip_gradients", recording_clip)
    train(model, encoded, encoded, TrainConfig(batch_size=32, max_epochs=1))
    assert norms[0] == pytest.approx(0.0805, abs=5e-5)


@pytest.mark.parametrize("cpus", [1, 2], ids=["1-cpu", "2-cpus"])
def test_train_frees_each_step_graph_before_the_next_forward(monkeypatch, cpus):
    model, enc_train, enc_valid = toy_setup(n_train=16, n_valid=4)
    real_loss = Model.loss
    losses = []
    alive_at_entry = []

    def tracked_loss(self, batch):
        if losses:
            alive_at_entry.append(losses[-1]() is not None)
        loss = real_loss(self, batch)
        losses.append(weakref.ref(loss))
        return loss

    monkeypatch.setattr(Model, "loss", tracked_loss)
    config = TrainConfig(
        learning_rate=0.001, batch_size=4, prefetch_batches=1,
        max_epochs=1, patience=1, rng_seed=0,
    )
    on_cpus(monkeypatch, cpus, lambda: train(model, enc_train, enc_valid, config))
    # Four steps of two halves: one process computes both halves of a step,
    # between which no graph is alive either; with a worker, the second half
    # is the worker's, and this process calls the loss once a step.
    assert alive_at_entry == [False] * ({1: 8, 2: 4}[cpus] - 1)


# ------------------------------------------------------------ two-half steps


def half_setup():
    """Thirteen pointing examples for two epochs, in batches of 3 (the
    halves of 2 and 1 rows weigh 2/3 and 1/3) and, amid them, one of 1."""
    model, enc_train, enc_valid = toy_setup(n_train=13, n_valid=6)
    config = TrainConfig(learning_rate=0.003, batch_size=3, prefetch_batches=5, eval_every=6,
                         max_epochs=2, patience=10, rng_seed=4)
    return model, enc_train, enc_valid, config


def train_bytes(monkeypatch, cpus, tmp_path):
    """The checkpoint, the log without its wall column, and the last
    parameters of ``half_setup``'s run on ``cpus`` CPUs."""
    model, enc_train, enc_valid, config = half_setup()
    path, log = tmp_path / f"model-{cpus}.ckpt", tmp_path / f"train-{cpus}.log"
    on_cpus(monkeypatch, cpus,
            lambda: train(model, enc_train, enc_valid, config, str(path), str(log)))
    return (path.read_bytes(),
            [line.rsplit("\t", 1)[0] for line in log.read_text(encoding="utf-8").splitlines()],
            [p.data.tobytes() for p in model.parameters()])


def test_training_writes_the_same_bytes_on_one_and_two_cpus(monkeypatch, forks, tmp_path):
    _, enc_train, _, config = half_setup()
    batches = make_batches(enc_train, config, derive_seed(config.rng_seed, "epoch", 0))
    assert [batch.size for batch in batches] == [3, 3, 3, 1, 3]
    alone = train_bytes(monkeypatch, 1, tmp_path)
    assert forks == []
    split = train_bytes(monkeypatch, 2, tmp_path)
    # A worker per epoch, and a child for each validation pass: two an epoch,
    # as a step crosses a multiple of 6 examples, the second at its end.
    assert len(forks) == 2 + 4
    assert split == alone
    assert_no_child()


def seeded_run(tmp_path, seed, name):
    """The checkpoint and the log without its wall column of ``half_setup``'s
    run with ``seed`` as the model's seed and the epoch orders'."""
    model, enc_train, enc_valid, config = half_setup()
    model = Model(model.vocabulary, model.config, rng_seed=seed)
    path, log = tmp_path / f"{name}.ckpt", tmp_path / f"{name}.log"
    train(model, enc_train, enc_valid, replace(config, rng_seed=seed), str(path), str(log))
    return (path.read_bytes(),
            [line.rsplit("\t", 1)[0] for line in log.read_text(encoding="utf-8").splitlines()])


def test_a_numpy_integer_seed_trains_as_the_int_it_equals(tmp_path):
    assert seeded_run(tmp_path, np.int64(3), "numpy") == seeded_run(tmp_path, 3, "int")


@pytest.mark.parametrize("seed", [3.0, True], ids=["float", "bool"])
def test_a_model_seed_must_be_an_integer(seed):
    model, _, _ = toy_setup(n_train=2, n_valid=2)
    with pytest.raises(ValueError, match=f"^rng_seed must be an integer, got {seed!r}$"):
        Model(model.vocabulary, model.config, rng_seed=seed)


def backing(array):
    """The object whose memory ``array`` views."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array.obj if isinstance(array, memoryview) else array


@pytest.mark.parametrize("cpus", [1, 2])
def test_train_moves_the_parameters_into_shared_memory_once(monkeypatch, forks, cpus):
    model, enc_train, enc_valid, config = half_setup()
    seen, real_clip = [], clip_gradients

    def clip(grads):
        seen.extend(backing(p.data) for p in model.parameters())
        return real_clip(grads)

    monkeypatch.setattr("clozereader.training.clip_gradients", clip)
    result = on_cpus(monkeypatch, cpus, lambda: train(model, enc_train, enc_valid, config))
    assert result.epochs == 2 and len(forks) == (cpus - 1) * (2 + 4)
    seen.extend(backing(p.data) for p in model.parameters())
    # One mapping behind every parameter, at every step of both epochs and after.
    assert len({id(mapping) for mapping in seen}) == 1
    assert isinstance(seen[0], mmap.mmap)


@pytest.fixture
def children(monkeypatch):
    """The pids of the children forked in this process."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.mark.parametrize("failure", ["raises", "dies", "dies-idle"])
def test_a_worker_that_fails_leaves_its_halves_to_this_process(monkeypatch, children, tmp_path,
                                                               failure):
    alone = train_bytes(monkeypatch, 1, tmp_path)
    parent, real_loss, real_clip, killed = os.getpid(), Model.loss, clip_gradients, []

    def loss(self, batch):
        if os.getpid() != parent and failure == "raises":
            raise RuntimeError("failed in the worker")
        if os.getpid() != parent and failure == "dies":
            os.kill(os.getpid(), signal.SIGKILL)
        return real_loss(self, batch)

    def clip(grads):
        # After its first half the worker dies, before this process sends the next.
        if failure == "dies-idle" and not killed:
            killed.append(children[0])
            os.kill(children[0], signal.SIGKILL)
            os.waitid(os.P_PID, children[0], os.WEXITED | os.WNOWAIT)
        return real_clip(grads)

    monkeypatch.setattr(Model, "loss", loss)
    monkeypatch.setattr("clozereader.training.clip_gradients", clip)
    assert train_bytes(monkeypatch, 2, tmp_path) == alone
    assert children
    assert_no_child()


def test_a_fork_that_fails_leaves_both_halves_to_this_process(monkeypatch, tmp_path):
    alone = train_bytes(monkeypatch, 1, tmp_path)

    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    assert train_bytes(monkeypatch, 2, tmp_path) == alone


def test_an_interrupted_training_reaps_its_worker(monkeypatch, forks):
    model, enc_train, enc_valid, config = half_setup()
    parent, real_loss, calls = os.getpid(), Model.loss, []

    def loss(self, batch):
        if os.getpid() == parent:
            calls.append(batch)
            if len(calls) == 2:
                raise KeyboardInterrupt
        return real_loss(self, batch)

    monkeypatch.setattr(Model, "loss", loss)
    with pytest.raises(KeyboardInterrupt):
        on_cpus(monkeypatch, 2, lambda: train(model, enc_train, enc_valid, config))
    assert forks == [parent]
    assert_no_child()


@pytest.fixture
def reaped(monkeypatch):
    """The statuses that ``os.waitpid`` reaps in this process, under a 10 s
    deadline: a reap that waits on a child that waits on this process
    fails the test instead of hanging the suite."""
    statuses, real_waitpid = [], os.waitpid

    def waitpid(pid, options):
        child, status = real_waitpid(pid, options)
        if child:
            statuses.append(status)
        return child, status

    def late(signum, frame):
        raise TimeoutError("a forked child was not reaped within 10 s")

    monkeypatch.setattr(os, "waitpid", waitpid)
    previous = signal.signal(signal.SIGALRM, late)
    signal.alarm(10)
    yield statuses
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def stop_at_patience(monkeypatch):
    """Sixteen examples in four steps an epoch, with an evaluation after
    each that scores four batches; the second evaluation, mid-epoch, stops."""
    model, enc_train, enc_valid = toy_setup(n_train=16, n_valid=16)
    script, real_evaluate = iter([0.5, 0.4]), evaluate

    def scripted_evaluate(eval_model, examples, batch_size=128):
        result = real_evaluate(eval_model, examples, batch_size)
        result.accuracy = next(script)
        return result

    monkeypatch.setattr("clozereader.training.evaluate", scripted_evaluate)
    config = TrainConfig(learning_rate=0.001, batch_size=4, prefetch_batches=1,
                         eval_every=4, max_epochs=10, patience=1, rng_seed=0)
    assert len(train(model, enc_train, enc_valid, config).log_lines) == 2


def parent_half_raises(monkeypatch):
    """``half_setup``'s run, whose second step's first half raises here."""
    model, enc_train, enc_valid, config = half_setup()
    parent, real_loss, calls = os.getpid(), Model.loss, []

    def loss(self, batch):
        if os.getpid() == parent:
            calls.append(batch)
            if len(calls) == 2:
                raise RuntimeError("failed in this process")
        return real_loss(self, batch)

    monkeypatch.setattr(Model, "loss", loss)
    with pytest.raises(RuntimeError, match="failed in this process"):
        train(model, enc_train, enc_valid, config)


# Each job, and the exit code of each child it forks, in the order reaped:
# 0 for a child that ran every item it was forked for, 1 for one that read
# EOF first.  Stopping on patience leaves the training worker idle after two
# of its four halves; the raising step had handed the worker its second.
EXITS = {
    "evaluate": (lambda monkeypatch: evaluate(*split_setup(27), batch_size=4), [0]),
    "patience": (stop_at_patience, [0, 0, 1]),
    "parent-raises": (parent_half_raises, [1]),
}


@pytest.mark.parametrize("job", sorted(EXITS))
def test_every_child_exits_by_itself_unsignalled(monkeypatch, reaped, job):
    run, codes = EXITS[job]
    on_cpus(monkeypatch, 2, lambda: run(monkeypatch))
    assert [os.waitstatus_to_exitcode(status) for status in reaped] == codes
    assert all(os.WIFEXITED(status) for status in reaped)
    assert_no_child()


def test_the_worker_computes_each_second_half_then_exits(monkeypatch, pipes):
    # The worker's side of an epoch, run in this process as the child's side
    # of the split walk is above.  Three halves are asked for before it
    # starts, and the test keeps a reader of its result pipe open.
    model, enc_train, enc_valid, config = half_setup()
    go, fds = pipes
    go.append(b"\0\0\0")
    computed, real_loss = [], Model.loss

    def loss(self, batch):
        computed.append(batch.indices.tolist())
        return real_loss(self, batch)

    def exit_(status):
        raise Exited(status)

    monkeypatch.setattr(Model, "loss", loss)
    monkeypatch.setattr(os, "fork", lambda: 0)
    monkeypatch.setattr(os, "_exit", exit_)
    with pytest.raises(Exited) as exited:
        on_cpus(monkeypatch, 2, lambda: train(model, enc_train, enc_valid, config))
    assert exited.value.args == (1,)
    assert os.read(fds[-1], 8) == b"\0\0\0"
    batches = make_batches(enc_train, config, derive_seed(config.rng_seed, "epoch", 0))
    # The one-row batch, the fourth, is no worker's; the fifth finds the pipe closed.
    assert computed == [batch.indices[2:].tolist() for batch in batches[:3]]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize("case", ["one-cpu", "two-cpus", "refused-fork", "dying-child"])
@pytest.mark.parametrize("job", ["evaluate", "train"])
def test_a_job_leaves_no_descriptor_open_and_no_child_behind(monkeypatch, forks, job, case):
    model, corpus = split_setup(27)  # seven batches of 4, to train on and to score
    parent = os.getpid()

    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    def dying(method):
        def in_the_child_dies(self, batch):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return method(self, batch)
        return in_the_child_dies

    if case == "refused-fork":
        monkeypatch.setattr(os, "fork", no_process)
    if case == "dying-child":
        monkeypatch.setattr(Model, "predict", dying(Model.predict))
        monkeypatch.setattr(Model, "loss", dying(Model.loss))
    run = {"evaluate": lambda: evaluate(model, corpus, batch_size=4),
           "train": lambda: train(model, corpus, corpus, TrainConfig(batch_size=4, max_epochs=1))}
    before = sorted(os.listdir("/proc/self/fd"))
    on_cpus(monkeypatch, 1 if case == "one-cpu" else 2, run[job])
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert_no_child()
    assert bool(forks) == (case in ("two-cpus", "dying-child"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize("failing", ["first-pipe", "second-pipe"])
@pytest.mark.parametrize("job", ["evaluate", "train"])
def test_a_pipe_that_cannot_be_made_leaves_the_job_to_this_process(monkeypatch, forks, tmp_path,
                                                                   job, failing):
    # Each worker's first or second pipe meets a process out of descriptors.
    model, corpus = split_setup(27)

    def run(cpus):
        if job == "train":
            return train_bytes(monkeypatch, cpus, tmp_path)
        result = on_cpus(monkeypatch, cpus, lambda: evaluate(model, corpus, batch_size=4))
        return result.accuracy, result.predictions.probabilities.tobytes()

    alone = run(1)
    calls, real_pipe = [], os.pipe

    def pipe():
        calls.append(None)
        if failing == "first-pipe" or len(calls) % 2 == 0:
            raise OSError(errno.EMFILE, "Too many open files")
        return real_pipe()

    monkeypatch.setattr(os, "pipe", pipe)
    before = sorted(os.listdir("/proc/self/fd"))
    assert run(2) == alone
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert_no_child()
    assert calls and not forks


# Trains or walks with a 50 ms sleep in each batch's loss or score, after
# printing the pid of each child it forks.
ORPHAN_SCRIPT = """
import os, sys, time
from clozereader.asreader import Model, ModelConfig, occurrences
from clozereader.synthdata import associative_recall_examples
from clozereader.training import TrainConfig, _score, train
from clozereader.vocab import build_vocab, encode_dataset

raw = associative_recall_examples(400, 0)
vocabulary = build_vocab(raw, cap=200, anon_count=50)
corpus = encode_dataset(raw, vocabulary, 0)
real_fork, real_loss = os.fork, Model.loss


def fork():
    pid = real_fork()
    if pid:
        print(pid, flush=True)
    return pid


def score(batch):
    time.sleep(0.05)
    return occurrences(batch.context, batch.context_lengths, batch.candidates).sum(axis=2)


def loss(self, batch):
    time.sleep(0.05)
    return real_loss(self, batch)


os.fork, Model.loss = fork, loss
if sys.argv[1] == "walk":
    _score(corpus, score, 4)
else:
    model = Model(vocabulary, ModelConfig(embedding_dim=8, hidden_units=8, recurrent_layers=1))
    train(model, corpus, corpus, TrainConfig(batch_size=4, max_epochs=1))
"""


def running(pid):
    """Whether ``pid`` is a process that has not exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(") ", 1)[1][0] not in "ZX"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
                    or not os.path.isdir("/proc/self"), reason="needs 2 CPUs and /proc")
@pytest.mark.parametrize("job", ["walk", "epoch"])
def test_a_child_outlives_a_killed_parent_by_about_one_batch(job):
    import clozereader

    src = os.path.dirname(os.path.dirname(clozereader.__file__))
    env = dict(os.environ, PYTHONPATH=src, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    parent = subprocess.Popen([sys.executable, "-c", ORPHAN_SCRIPT, job], env=env,
                              stdout=subprocess.PIPE, text=True)
    try:
        child = int(parent.stdout.readline())
        time.sleep(0.2)  # mid-walk, or mid-epoch: dozens of 50 ms batches are left
        parent.kill()
        parent.wait(timeout=60)
        deadline = time.monotonic() + 1.0
        while running(child) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not running(child)
    finally:
        parent.kill()
        parent.wait(timeout=60)
        parent.stdout.close()


# One training step on a fixed (B=32, T=180) batch at E32/H32/L1, the
# shape of a ``train-small`` step; the printed figure is the mean of
# ``ru_minflt`` over five steps after three warm-up steps.  Under glibc's
# default heap policy it is about 7,800; smaller shapes fault less.
STEP_FAULTS_SCRIPT = """
import resource
import numpy as np
from clozereader.asreader import Batch, Model, ModelConfig
from clozereader.numerics import Adam, clip_gradients, zero_grads
from clozereader.vocab import GAP_ID, EncodedExample, Vocabulary

vocabulary = Vocabulary([f"w{i}" for i in range(60)], anon_count=10)
start = vocabulary.word_start
rng = np.random.default_rng(0)
examples = []
for i in range(32):
    context = [int(x) for x in rng.integers(start, vocabulary.size, 180)]
    answer, other = context[i], context[i + 7]
    examples.append(EncodedExample(context, [start, GAP_ID], answer,
                                   sorted({answer, other}), {}))
batch = Batch.from_examples(examples)
model = Model(vocabulary, ModelConfig(embedding_dim=32, hidden_units=32,
                                      recurrent_layers=1))
params = model.parameters()
optimizer = Adam(params)


def step():
    zero_grads(params)
    loss = model.loss(batch)
    loss.backward()
    clip_gradients([p.grad for p in params if p.grad is not None])
    del loss
    optimizer.step()


for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap policy is glibc's")
def test_training_steps_reuse_the_heap_instead_of_faulting_it_back_in():
    import clozereader

    src = os.path.dirname(os.path.dirname(clozereader.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", STEP_FAULTS_SCRIPT],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) < 50


def test_train_rejects_empty_training_set():
    model, _, enc_valid = toy_setup(n_train=2, n_valid=2)
    with pytest.raises(ValueError, match="no training examples"):
        train(model, EncodedCorpus.from_examples([]), enc_valid, TrainConfig())
    with pytest.raises(ValueError, match="no validation examples"):
        train(model, enc_valid, EncodedCorpus.from_examples([]), TrainConfig())


def test_train_rejects_an_answer_missing_from_its_document(monkeypatch):
    model, enc_train, enc_valid = toy_setup(n_train=8, n_valid=2)
    enc_train = list(enc_train)
    bad = enc_train[5]
    absent = max(bad.context_ids) + 1
    enc_train[5] = EncodedExample(
        context_ids=bad.context_ids,
        question_ids=bad.question_ids,
        answer_id=absent,
        candidate_ids=bad.candidate_ids,
        oov_map=bad.oov_map,
        source=("book-x", 42),
    )

    # The loss names the same example, without its source.
    message = f"answer id {absent} absent from its document"
    with pytest.raises(AnswerNotInDocumentError, match=f"^example 5: {message}$"):
        model.loss(Batch.from_examples([enc_train[i] for i in (2, 5, 4)], [2, 5, 4]))

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran before the check")

    monkeypatch.setattr(Model, "loss", no_step)
    with pytest.raises(AnswerNotInDocumentError,
                       match=rf"^example 5 \(source \('book-x', 42\)\): {message}$"):
        train(model, EncodedCorpus.from_examples(enc_train), enc_valid, TrainConfig(batch_size=4))


def test_train_checks_answers_of_examples_with_mixed_candidate_counts():
    model, enc_train, enc_valid = toy_setup(n_train=8, n_valid=2)
    enc_train = list(enc_train)
    bad = enc_train[3]
    enc_train[3] = EncodedExample(
        context_ids=bad.context_ids,
        question_ids=bad.question_ids,
        answer_id=max(bad.context_ids) + 1,
        candidate_ids=bad.candidate_ids[:2],
        oov_map=bad.oov_map,
    )
    with pytest.raises(AnswerNotInDocumentError, match="example 3 "):
        train(model, EncodedCorpus.from_examples(enc_train), enc_valid, TrainConfig(batch_size=4))


def test_train_names_the_first_bad_example_in_epoch_order():
    model, enc_train, enc_valid = toy_setup(n_train=8, n_valid=2)
    config = TrainConfig(batch_size=4)
    order = [int(i) for batch in make_batches(enc_train, config, derive_seed(0, "epoch", 0))
             for i in batch.indices]
    first, later = order[0], min(order[1:])  # a lower index that comes later
    assert later < first
    examples = list(enc_train)
    for i in (first, later):
        examples[i] = replace(examples[i], answer_id=max(examples[i].context_ids) + 1)
    with pytest.raises(AnswerNotInDocumentError, match=f"^example {first} "):
        train(model, EncodedCorpus.from_examples(examples), enc_valid, config)


def test_train_batches_its_training_set_once_per_epoch(monkeypatch):
    model, enc_train, enc_valid = toy_setup(n_train=20, n_valid=6)
    config = TrainConfig(batch_size=4, prefetch_batches=2, max_epochs=1, patience=5)
    built = []
    from_corpus = Batch.from_corpus
    monkeypatch.setattr(Batch, "from_corpus", staticmethod(
        lambda corpus, indices: built.append(corpus) or from_corpus(corpus, indices)))
    # One process builds every batch; on two CPUs the walk's child builds half.
    on_cpus(monkeypatch, 1, lambda: train(model, enc_train, enc_valid, config))
    # Five training batches, then one evaluation at the epoch's end: two batches.
    assert built == [enc_train] * 5 + [enc_valid] * 2


# -------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_is_bit_identical(tmp_path):
    model, enc_train, enc_valid = toy_setup(n_train=8, n_valid=4)
    config = TrainConfig(
        learning_rate=0.005, batch_size=4, prefetch_batches=1,
        max_epochs=1, patience=5, rng_seed=0,
    )
    train(model, enc_train, enc_valid, config)  # move off initialization
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path, extra={"note": "after one epoch"})
    restored, extra = load_checkpoint(path)

    assert extra == {"note": "after one epoch"}
    assert restored.config == model.config
    assert restored.vocabulary.words == model.vocabulary.words
    assert restored.vocabulary.anon_count == model.vocabulary.anon_count
    restored_params = restored.named_parameters()
    for name, param in model.named_parameters().items():
        assert np.array_equal(restored_params[name].data, param.data), name


def test_loaded_parameters_are_writable_arrays_of_their_own(tmp_path):
    model, _, _ = toy_setup(n_train=2, n_valid=2)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    restored, _ = load_checkpoint(path)
    for name, param in restored.named_parameters().items():
        assert param.data.flags.writeable and param.data.flags.owndata, name
        assert param.data.dtype == np.float64, name


def test_interrupted_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    model, _, _ = toy_setup(n_train=2, n_valid=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path), extra={"step": 1})
    before = path.read_bytes()

    for param in model.parameters():
        param.data = param.data + 1.0
    written = []

    def failing_write(fh, array):
        if written:
            raise OSError("disk full")
        written.append(array)
        write_tensor(fh, array)

    monkeypatch.setattr("clozereader.training.write_tensor", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(model, str(path), extra={"step": 2})
    assert written  # the failure came after a tensor had been written

    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    restored, extra = load_checkpoint(str(path))
    assert extra == {"step": 1}
    original = toy_setup(n_train=2, n_valid=2)[0].named_parameters()
    for name, param in restored.named_parameters().items():
        assert np.array_equal(param.data, original[name].data), name


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(str(path))


def _without_last_tensor(raw: bytes) -> bytes:
    """The checkpoint with its tensor count one lower, so the last tensor
    goes unread."""
    (blob_len,) = struct.unpack("<Q", raw[6:14])
    table = 14 + blob_len
    (count,) = struct.unpack("<I", raw[table : table + 4])
    return raw[:table] + struct.pack("<I", count - 1) + raw[table + 4 :]


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw[:14] + b"#" * (len(raw) - 14), "bad header: Expecting value"),
    (_without_last_tensor, "missing tensors ["),
], ids=["header-not-json", "missing-tensor"])
def test_checkpoint_names_a_bad_header_and_a_missing_tensor(tmp_path, edit, message):
    model, _, _ = toy_setup(n_train=2, n_valid=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(CheckpointError, match=f"^{re.escape(f'{path}: {message}')}"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_wrong_version(tmp_path):
    model, _, _ = toy_setup(n_train=2, n_valid=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_truncation_everywhere(tmp_path):
    model, _, _ = toy_setup(n_train=2, n_valid=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    raw = path.read_bytes()
    clipped = tmp_path / "clipped.ckpt"
    for cut in (3, 8, 13, len(raw) // 2, len(raw) - 5):
        clipped.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(clipped))
    # Lengths that declare far more data than the file holds: the header
    # blob's u64, and the first tensor's first dimension.
    dim = raw.index(TENSOR_MAGIC) + 8
    for size in (2**28, 2**62, 2**63):
        for at in (6, dim):
            clipped.write_bytes(raw[:at] + struct.pack("<Q", size) + raw[at + 8:])
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(str(clipped))


def test_a_cut_tensor_table_fails_before_a_model_is_built(tmp_path, monkeypatch):
    model, _, _ = toy_setup(n_train=2, n_valid=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    raw = path.read_bytes()
    (blob_len,) = struct.unpack("<Q", raw[6:14])
    table = 14 + blob_len

    def unbuilt(*args, **kwargs):
        raise AssertionError("built a model before the tensor table was read")

    monkeypatch.setattr("clozereader.training.Model", unbuilt)
    clipped = tmp_path / "clipped.ckpt"
    # In the count, the first name's length, the first name, the middle, the last tensor.
    for cut in (table + 2, table + 5, table + 8, (table + len(raw)) // 2, len(raw) - 5):
        clipped.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(clipped))}: .*truncated"):
            load_checkpoint(str(clipped))


def test_checkpoint_names_a_tensor_whose_empty_shape_numpy_cannot_hold(tmp_path):
    model, _, _ = toy_setup(n_train=2, n_valid=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    raw = path.read_bytes()
    name = b"doc.l0.bwd.u_c"
    dims = raw.index(TENSOR_MAGIC, raw.index(struct.pack("<H", len(name)) + name)) + 8
    assert raw[dims - 1] == 2  # the rank
    path.write_bytes(raw[:dims] + struct.pack("<2Q", 2**63, 0) + raw[dims + 16:])
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: tensor 'doc.l0.bwd.u_c': shape ")):
        load_checkpoint(str(path))


def test_checkpoint_rejects_a_tensor_named_twice(tmp_path):
    model, _, _ = toy_setup(n_train=2, n_valid=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    raw = path.read_bytes()
    (blob_len,) = struct.unpack("<Q", raw[6:14])
    table = 14 + blob_len
    (count,) = struct.unpack("<I", raw[table : table + 4])
    stream = io.BytesIO(raw)
    stream.seek(table + 4)
    (name_len,) = struct.unpack("<H", stream.read(2))
    name = stream.read(name_len).decode("utf-8")
    read_tensor(stream)
    first = raw[table + 4 : stream.tell()]
    # The first entry again, with a different value, at the end of the table.
    edited = first[:-1] + bytes([first[-1] ^ 1])
    path.write_bytes(raw[:table] + struct.pack("<I", count + 1) + raw[table + 4 :] + edited)
    with pytest.raises(CheckpointError, match=re.escape(f"tensor {name!r} appears twice")):
        load_checkpoint(str(path))


def test_checkpoint_rejects_undecodable_tensor_name(tmp_path):
    model, _, _ = toy_setup(n_train=2, n_valid=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    raw = path.read_bytes()
    target = struct.pack("<H", 9) + b"embedding"
    patched = raw.replace(target, struct.pack("<H", 9) + b"\xffmbedding", 1)
    assert patched != raw
    path.write_bytes(patched)
    with pytest.raises(CheckpointError, match=re.escape(str(path)) + ": bad tensor name"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_unknown_tensor_name(tmp_path):
    model, _, _ = toy_setup(n_train=2, n_valid=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    raw = path.read_bytes()
    # The length-prefixed name in the tensor table, not the JSON header.
    target = struct.pack("<H", 9) + b"embedding"
    patched = raw.replace(target, struct.pack("<H", 9) + b"embeddinx", 1)
    assert patched != raw
    path.write_bytes(patched)
    with pytest.raises(CheckpointError, match="embeddinx|missing tensors"):
        load_checkpoint(str(path))


def test_checkpoint_names_shape_mismatched_tensor(tmp_path):
    model, _, _ = toy_setup(n_train=2, n_valid=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    raw = path.read_bytes()
    (blob_len,) = struct.unpack("<Q", raw[6:14])
    header = json.loads(raw[14 : 14 + blob_len].decode("utf-8"))
    header["config"]["hidden_units"] += 1
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    path.write_bytes(
        raw[:6] + struct.pack("<Q", len(blob)) + blob + raw[14 + blob_len :]
    )
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(str(path))


def checkpoint_with_header(tmp_path, edit):
    """A checkpoint of a toy model whose JSON header ``edit`` has changed."""
    model, _, _ = toy_setup(n_train=2, n_valid=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    raw = path.read_bytes()
    (blob_len,) = struct.unpack("<Q", raw[6:14])
    header = json.loads(raw[14 : 14 + blob_len].decode("utf-8"))
    edit(header)
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    path.write_bytes(
        raw[:6] + struct.pack("<Q", len(blob)) + blob + raw[14 + blob_len :]
    )
    return path


def test_checkpoint_names_a_negative_vocabulary_size(tmp_path):
    path = checkpoint_with_header(tmp_path, lambda h: h["vocab"].update(anon_count=-1))
    with pytest.raises(CheckpointError,
                       match=re.escape(str(path)) + ": bad header: .*anon_count"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("key, value, message", [
    pytest.param("hidden_units", 0, "hidden_units must be positive", id="hidden_units-0"),
    pytest.param("embedding_dim", 4.0, "embedding_dim must be an integer, got 4.0",
                 id="embedding_dim-4.0"),
    pytest.param("embedding_dim", 1.5, "embedding_dim must be an integer, got 1.5",
                 id="embedding_dim-1.5"),
    pytest.param("recurrent_layers", True, "recurrent_layers must be an integer, got True",
                 id="recurrent_layers-true"),
    pytest.param("query_init", "no", "query_init must be true or false, got 'no'",
                 id="query_init-no"),
])
def test_checkpoint_names_a_model_size_below_1(tmp_path, key, value, message):
    path = checkpoint_with_header(tmp_path, lambda h: h["config"].update({key: value}))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: bad header: {message}")):
        load_checkpoint(str(path))


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda h: h.update(rng_seed="x"), "rng_seed must be an integer, got 'x'",
                 id="rng_seed-x"),
    pytest.param(lambda h: h.update(rng_seed=True), "rng_seed must be an integer, got True",
                 id="rng_seed-true"),
    pytest.param(lambda h: h.pop("rng_seed"), "'rng_seed'", id="rng_seed-missing"),
    pytest.param(lambda h: h.pop("extra"), "'extra'", id="extra-missing"),
    pytest.param(lambda h: h.update(extra=[1]), "extra must be an object, got [1]",
                 id="extra-list"),
    pytest.param(lambda h: h["vocab"].update(cap=1.5),
                 "vocabulary cap must be an integer, got 1.5", id="cap-1.5"),
    pytest.param(lambda h: h["vocab"].update(cap=True),
                 "vocabulary cap must be an integer, got True", id="cap-true"),
    pytest.param(lambda h: h["vocab"].update(anon_count=True),
                 "vocabulary anon_count must be an integer, got True", id="anon_count-true"),
    pytest.param(lambda h: h["vocab"]["words"].append(7),
                 "vocabulary word must be a string, got 7", id="word-7"),
])
def test_checkpoint_names_a_header_value_of_the_wrong_type(tmp_path, edit, message):
    path = checkpoint_with_header(tmp_path, edit)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: bad header: {message}")):
        load_checkpoint(str(path))


def test_resumed_model_predicts_like_the_original(tmp_path):
    model, enc_train, enc_valid = toy_setup(n_train=8, n_valid=4)
    config = TrainConfig(
        learning_rate=0.005, batch_size=4, prefetch_batches=1,
        max_epochs=1, patience=5, rng_seed=0,
    )
    train(model, enc_train, enc_valid, config)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    restored, _ = load_checkpoint(path)
    original = evaluate(model, enc_valid, batch_size=4)
    resumed = evaluate(restored, enc_valid, batch_size=4)
    assert original.accuracy == resumed.accuracy
    for a, b in zip(original.predictions, resumed.predictions):
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
