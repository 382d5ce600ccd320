"""Acceptance gate: one test per shipped guarantee.

Each test is a single pass/fail line for one delivered guarantee, in
order: generation invariants, format interop, gradient correctness, the
attention-sum oracle, clipping/optimizer behavior, learning capability,
the ensemble guarantee, determinism, and early stopping.  Tolerances and
budgets are pinned here as constants; the module fixtures train the two
shared models (the synthetic pointing task and the ~10k-example
real-text run) once each.
"""

import math
import os
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from test_asreader import brute_force, encoded, small_model, word_ids
from test_numerics import OP_CASES

from clozereader.asreader import Batch, Model, ModelConfig, Prediction, attention_and_answer
from clozereader.cbtio import read_examples, validate_file, write_examples
from clozereader.cli import main as cli_main
from clozereader.clozegen import (
    GAP_TOKEN,
    N_CANDIDATES,
    SplitSpec,
    generate_from_book,
    split_books,
)
from clozereader.corpus import ingest_books, tokenize_book
from clozereader.ensemble import (
    EnsembleMember,
    greedy_select,
    prediction_accuracy,
)
from clozereader.numerics import (
    Adam,
    Parameter,
    clip_gradients,
    finite_difference_check,
    global_norm,
)
from clozereader.seeding import derive_seed
from clozereader.synthdata import associative_recall_examples, write_fixture_library
from clozereader.tagger import WordType, default_config, tag_book
from clozereader.training import (
    TrainConfig,
    evaluate,
    load_checkpoint,
    most_frequent_candidate_accuracy,
    train,
)
from clozereader.vocab import GAP_ID, build_vocab, encode_dataset

WINDOW = 20                    # context sentences per example
OP_GRADIENT_TOL = 1e-6         # per-op finite-difference relative error
LOSS_GRADIENT_TOL = 1e-4       # full-loss finite-difference relative error
ORACLE_TOL = 1e-12             # attention aggregation vs. brute force
CLIP_THRESHOLD = 10.0
CLIP_SLACK = 1e-9
POINTING_TARGET = 0.95         # synthetic-task validation accuracy floor
POINTING_CPU_BUDGET = 600.0    # seconds (10 CPU-minutes)
REALTEXT_MARGIN = 0.05         # points over each baseline, absolute
GENERATION_BUDGET = 60.0       # seconds for criterion 1
GRADIENT_BUDGET = 60.0         # seconds for criterion 3
RELEASED_DATA_VAR = "CLOZEREADER_CBT_DIR"


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def realtext(tmp_path_factory):
    """A ~10k-example generated dataset and a model trained on it."""
    library = tmp_path_factory.mktemp("library")
    write_fixture_library(library, n_books=16, rng_seed=42, n_paragraphs=160)

    t0 = time.perf_counter()
    raw_books, ingest_errors = ingest_books(str(library))
    assert not ingest_errors
    books = [tokenize_book(raw) for raw in raw_books]
    tagger_config = default_config()
    labels_by_book = {book.book_id: tag_book(book, tagger_config) for book in books}
    splits = split_books(books, SplitSpec(train=0.8, valid=0.1, test=0.1, rng_seed=1))
    datasets = {}
    for split_name, split_list in splits.items():
        examples = []
        for book in split_list:
            book_examples, _ = generate_from_book(
                book, labels_by_book[book.book_id], WordType.NAMED_ENTITY,
                window=WINDOW, rng_seed=0,
            )
            examples.extend(book_examples)
        datasets[split_name] = examples
    generation_elapsed = time.perf_counter() - t0

    vocabulary = build_vocab(datasets["train"], cap=20000, anon_count=200)
    train_enc = encode_dataset(datasets["train"], vocabulary, derive_seed(0, "train"))
    valid_enc = encode_dataset(datasets["valid"], vocabulary, derive_seed(0, "valid"))
    model = Model(
        vocabulary,
        ModelConfig(embedding_dim=32, hidden_units=32, recurrent_layers=1),
        rng_seed=7,
    )
    result = train(
        model, train_enc, valid_enc,
        TrainConfig(learning_rate=0.003, batch_size=32, max_epochs=2,
                    patience=99, rng_seed=7),
    )
    return SimpleNamespace(
        books=books,
        labels_by_book=labels_by_book,
        datasets=datasets,
        generation_elapsed=generation_elapsed,
        vocabulary=vocabulary,
        valid_enc=valid_enc,
        model=model,
        result=result,
        accuracy=evaluate(model, valid_enc).accuracy,
        frequency_baseline=most_frequent_candidate_accuracy(valid_enc),
    )


def cpu_seconds() -> float:
    """CPU seconds of this process and of its reaped children: training's
    worker and each evaluation's child are reaped before ``train`` returns."""
    times = os.times()
    return time.process_time() + times.children_user + times.children_system


@pytest.fixture(scope="module")
def pointing_run():
    """The synthetic pointing task trained at embedding 32 / hidden 32."""
    train_raw = associative_recall_examples(2000, rng_seed=11)
    valid_raw = associative_recall_examples(300, rng_seed=12)
    vocabulary = build_vocab(train_raw, cap=200, anon_count=50)
    train_enc = encode_dataset(train_raw, vocabulary, derive_seed(0, "train"))
    valid_enc = encode_dataset(valid_raw, vocabulary, derive_seed(0, "valid"))
    model = Model(
        vocabulary,
        ModelConfig(embedding_dim=32, hidden_units=32, recurrent_layers=1),
        rng_seed=7,
    )
    anon_rows = model.embedding.frozen_rows
    anon_before = model.embedding.data[anon_rows].copy()
    cpu0 = cpu_seconds()
    result = train(
        model, train_enc, valid_enc,
        TrainConfig(learning_rate=0.005, batch_size=32, max_epochs=10,
                    patience=10, rng_seed=7),
    )
    cpu_elapsed = cpu_seconds() - cpu0
    return SimpleNamespace(
        valid_raw=valid_raw,
        vocabulary=vocabulary,
        train_enc=train_enc,
        valid_enc=valid_enc,
        model=model,
        result=result,
        anon_rows=anon_rows,
        anon_before=anon_before,
        cpu_elapsed=cpu_elapsed,
    )


def typed_forms(book, labels, word_type):
    return {
        token
        for sentence, sentence_labels in zip(book.sentences, labels)
        for token, label in zip(sentence, sentence_labels)
        if label is word_type
    }


# ---------------------------------------------------------------- criteria


def test_criterion_1_generation_invariants(realtext, fixture_library):
    assert len(realtext.books) >= 5
    assert realtext.generation_elapsed < GENERATION_BUDGET

    ne_examples = [ex for split in realtext.datasets.values() for ex in split]
    assert ne_examples

    # Common-noun generation must satisfy the same invariants.
    raw_books, _ = ingest_books(str(fixture_library))
    tagger_config = default_config()
    cn_examples = []
    cn_forms = {}
    for raw in raw_books:
        book = tokenize_book(raw)
        labels = tag_book(book, tagger_config)
        cn_forms[book.book_id] = typed_forms(book, labels, WordType.COMMON_NOUN)
        book_examples, _ = generate_from_book(
            book, labels, WordType.COMMON_NOUN, window=WINDOW, rng_seed=5
        )
        cn_examples.extend(book_examples)
    assert cn_examples

    ne_forms = {
        book.book_id: typed_forms(book, realtext.labels_by_book[book.book_id],
                                  WordType.NAMED_ENTITY)
        for book in realtext.books
    }
    for examples, forms in ((ne_examples, ne_forms), (cn_examples, cn_forms)):
        for example in examples:
            example.validate(window=WINDOW)
            assert len(example.context) == WINDOW
            context_tokens = {t for sentence in example.context for t in sentence}
            assert example.answer in context_tokens
            assert example.question.count(GAP_TOKEN) == 1
            assert len(example.candidates) == N_CANDIDATES
            assert example.answer in example.candidates
            # Type homogeneity, judged against an independent re-tagging.
            book_forms = forms[example.source[0]]
            for candidate in example.candidates:
                assert candidate in book_forms


def test_criterion_2_format_interop(realtext, tmp_path):
    examples = realtext.datasets["train"][:1000]
    assert len(examples) == 1000
    path = tmp_path / "round_trip.txt"
    write_examples(examples, path)
    read_back = read_examples(path)
    assert len(read_back) == 1000
    for original, parsed in zip(examples, read_back):
        assert parsed.context == original.context
        assert parsed.question == original.question
        assert parsed.answer == original.answer
        assert parsed.candidates == original.candidates

    # Released question files are checked whenever the operator points
    # this environment variable at a directory that holds them.
    released_dir = os.environ.get(RELEASED_DATA_VAR)
    if released_dir:
        released = sorted(Path(released_dir).glob("*.txt"))
        assert released, f"{RELEASED_DATA_VAR} set but no .txt files found"
        for file in released:
            assert validate_file(file) == []
            assert read_examples(file)


def test_criterion_3_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240818)
    for case in OP_CASES:
        fn, params = case(rng)
        worst = finite_difference_check(fn, params)
        assert worst < OP_GRADIENT_TOL, f"{case.__name__}: {worst}"

    model = small_model(n_words=6, rng_seed=0)
    # Healthy-magnitude weights keep every coordinate's true gradient
    # above the checker's relative-error floor.
    weight_rng = np.random.default_rng(100)
    for p in model.parameters():
        p.data = weight_rng.normal(0.0, 0.8, size=p.data.shape)
    v = model.vocabulary
    examples = [
        encoded(word_ids(v, 0, 1, 2, 1), [v.word_start, GAP_ID],
                word_ids(v, 1)[0], word_ids(v, 1, 2)),
        encoded(word_ids(v, 3, 4, 3), [GAP_ID, v.word_start + 4],
                word_ids(v, 3)[0], word_ids(v, 3, 4)),
    ]
    batch = Batch.from_examples(examples)
    worst = finite_difference_check(lambda: model.loss(batch), model.parameters())
    assert worst < LOSS_GRADIENT_TOL
    assert time.perf_counter() - t0 < GRADIENT_BUDGET


def test_criterion_4_attention_sum_oracle():
    rng = np.random.default_rng(404)
    for _ in range(100):
        t = int(rng.integers(1, 11))  # documents of at most 10 tokens
        contextual = rng.normal(size=(t, 6))
        question_vector = rng.normal(size=6)
        context_ids = rng.integers(50, 56, size=t).tolist()
        candidate_ids = list(range(50, 58))
        prediction = attention_and_answer(
            contextual, question_vector, candidate_ids, context_ids
        )
        alpha, probs, best = brute_force(
            contextual, question_vector, candidate_ids, context_ids
        )
        np.testing.assert_allclose(prediction.attention, alpha, atol=ORACLE_TOL)
        np.testing.assert_allclose(prediction.probabilities, probs, atol=ORACLE_TOL)
        assert prediction.predicted_index == best


def test_criterion_5_clipping_and_optimizer(pointing_run):
    rng = np.random.default_rng(5)
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(-2, 3)
        grads = [
            rng.standard_normal(rng.integers(1, 40)) * scale
            for _ in range(rng.integers(1, 5))
        ]
        clip_gradients(grads, CLIP_THRESHOLD)
        assert global_norm(grads) <= CLIP_THRESHOLD + CLIP_SLACK

    lr = 0.001
    values = rng.normal(size=(6, 4))
    param = Parameter(values.copy(), name="p")
    signs = rng.choice([-1.0, 1.0], size=values.shape)
    param.grad = signs * rng.uniform(0.5, 1.5, size=values.shape)
    Adam([param], lr=lr).step()
    deltas = np.abs(param.data - values)
    np.testing.assert_allclose(deltas, lr, atol=lr * 1e-6)

    assert pointing_run.result.steps >= 100
    anon_after = pointing_run.model.embedding.data[pointing_run.anon_rows]
    assert np.array_equal(anon_after, pointing_run.anon_before)


def test_criterion_6_learning_capability(pointing_run, realtext):
    # Synthetic pointing task: 10 candidates, so chance sits at 10%.
    assert all(len(ex.candidates) == N_CANDIDATES for ex in pointing_run.valid_raw)
    assert pointing_run.result.best_accuracy >= POINTING_TARGET
    assert pointing_run.cpu_elapsed < POINTING_CPU_BUDGET

    total = sum(len(split) for split in realtext.datasets.values())
    assert 8000 <= total <= 12000
    random_baseline = 1.0 / N_CANDIDATES
    assert realtext.accuracy >= random_baseline + REALTEXT_MARGIN
    assert realtext.accuracy >= realtext.frequency_baseline + REALTEXT_MARGIN


def table_member(name, p_answers):
    predictions = [
        Prediction(
            candidate_ids=np.array([0, 1]),
            probabilities=np.array([p, 1.0 - p]),
            predicted_index=int(p < 0.5),
            attention=np.array([p]),
        )
        for p in p_answers
    ]
    accuracy = prediction_accuracy(predictions, [0] * len(p_answers))
    return EnsembleMember(name, accuracy, predictions)


def test_criterion_7_ensemble_guarantee(pointing_run):
    # Synthetic prediction tables: the second model complements the
    # first, the third only hurts; greedy keeps exactly the first two.
    members = [
        table_member("m1", [0.9, 0.9, 0.4, 0.9, 0.4]),
        table_member("m2", [0.4, 0.6, 0.8, 0.45, 0.45]),
        table_member("m3", [0.1, 0.1, 0.9, 0.1, 0.45]),
    ]
    selected, accuracy = greedy_select(members, [0] * 5)
    assert [m.name for m in selected] == ["m1", "m2"]
    assert accuracy == pytest.approx(0.8)

    rng = np.random.default_rng(77)
    for _ in range(20):
        random_members = [
            table_member(f"r{i}", rng.random(8).tolist()) for i in range(4)
        ]
        _, ensemble_accuracy = greedy_select(random_members, [0] * 8)
        assert ensemble_accuracy >= max(
            m.validation_accuracy for m in random_members
        )

    # Real trained models on the pointing task.
    answer_ids = [ex.answer_id for ex in pointing_run.valid_enc]
    trained = [("long", pointing_run.model)]
    for name, seed in (("quick8", 8), ("quick9", 9)):
        candidate = Model(
            pointing_run.vocabulary,
            ModelConfig(embedding_dim=32, hidden_units=32, recurrent_layers=1),
            rng_seed=seed,
        )
        train(
            candidate, pointing_run.train_enc, pointing_run.valid_enc,
            TrainConfig(learning_rate=0.005, batch_size=32, max_epochs=2,
                        patience=10, rng_seed=seed),
        )
        trained.append((name, candidate))
    real_members = []
    for name, trained_model in trained:
        eval_result = evaluate(trained_model, pointing_run.valid_enc)
        real_members.append(
            EnsembleMember(name, eval_result.accuracy, eval_result.predictions)
        )
    _, real_accuracy = greedy_select(real_members, answer_ids)
    assert real_accuracy >= max(m.validation_accuracy for m in real_members)


TRAIN_SETTINGS = """\
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


def test_criterion_8_determinism(fixture_library, tmp_path):
    datasets = {}
    for run in ("first", "second"):
        out_dir = tmp_path / f"gen_{run}"
        rc = cli_main([
            "generate", "--books", str(fixture_library), "--type", "ne",
            "--out", str(out_dir), "--seed", "3", "--splits", "0.6,0.2,0.2",
        ])
        assert rc == 0
        datasets[run] = {
            split: (out_dir / f"ne_{split}.txt").read_bytes()
            for split in ("train", "valid", "test")
        }
    assert datasets["first"] == datasets["second"]

    config_path = tmp_path / "reader.cfg"
    config_path.write_text(TRAIN_SETTINGS, encoding="utf-8")
    train_dir = tmp_path / "gen_first"
    logs = []
    for run in ("first", "second"):
        log_path = tmp_path / f"train_{run}.log"
        rc = cli_main([
            "train",
            "--train", str(train_dir / "ne_train.txt"),
            "--valid", str(train_dir / "ne_valid.txt"),
            "--config", str(config_path),
            "--out", str(tmp_path / f"model_{run}.ckpt"),
            "--seed", "13",
            "--log", str(log_path),
        ])
        assert rc == 0
        lines = log_path.read_text(encoding="utf-8").splitlines()
        assert lines
        # Every field but the trailing wall-clock column must agree bit
        # for bit: step, loss repr, validation accuracy.
        logs.append([line.split("\t")[:3] for line in lines])
    assert logs[0] == logs[1]


def test_criterion_9_early_stopping(tmp_path, monkeypatch):
    train_raw = associative_recall_examples(16, rng_seed=1)
    valid_raw = associative_recall_examples(4, rng_seed=2)
    vocabulary = build_vocab(train_raw, cap=200, anon_count=50)
    train_enc = encode_dataset(train_raw, vocabulary, derive_seed(0, "t"))
    valid_enc = encode_dataset(valid_raw, vocabulary, derive_seed(0, "v"))
    model = Model(vocabulary, ModelConfig(8, 8, 1), rng_seed=3)

    accuracies = iter([0.5, 0.6, 0.55, 0.58])
    real_evaluate = evaluate

    def scripted_evaluate(eval_model, examples, batch_size=128):
        result = real_evaluate(eval_model, examples, batch_size)
        result.accuracy = next(accuracies)
        return result

    monkeypatch.setattr("clozereader.training.evaluate", scripted_evaluate)
    path = str(tmp_path / "model.ckpt")
    result = train(
        model, train_enc, valid_enc,
        TrainConfig(learning_rate=0.001, batch_size=4, prefetch_batches=1,
                    eval_every=4, max_epochs=10, patience=2, rng_seed=0),
        checkpoint_path=path,
    )
    assert len(result.log_lines) == 4  # stopped right after the fourth eval
    assert result.best_accuracy == 0.6
    restored, extra = load_checkpoint(path)
    assert extra["validation_accuracy"] == 0.6
    assert extra["step"] == result.best_step
    assert not np.array_equal(restored.embedding.data, model.embedding.data)
