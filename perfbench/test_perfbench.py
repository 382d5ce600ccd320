"""Self-tests of the benchmark's own arithmetic and wiring.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import sys

import pytest

import run  # pins BLAS threads before anything loads numpy
from layers import STEP, Instrumentation, Observations, per_layer_metrics
from spans import (
    Ledger,
    Recorder,
    Span,
    SpanIndex,
    highest_reportable_percentile,
    tail_percentile,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ------------------------------------------------------------ self time


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    rec = Recorder("r", clock)
    outer = rec.open("outer")
    clock.now = 1.0
    with rec.span("child"):
        clock.now = 4.0
        with rec.span("grandchild"):
            clock.now = 5.0
    clock.now = 7.0
    with rec.span("child"):
        clock.now = 8.0
    clock.now = 10.0
    rec.close(outer)
    idx = SpanIndex(rec.spans)
    assert idx.self_time(outer) == 10.0 - 4.0 - 1.0
    first_child = idx.named("child")[0]
    assert idx.self_time(first_child) == 4.0 - 1.0
    assert idx.per_ancestor("outer", "child") == [5.0]
    assert idx.per_ancestor("outer", "child", self_only=True) == [4.0]
    assert idx.per_ancestor("outer", "grandchild") == [1.0]
    assert {s.run_id for s in rec.spans} == {"r"}
    assert first_child.parent == outer.span_id


def test_closing_a_span_closes_spans_left_open_inside_it():
    clock = FakeClock()
    rec = Recorder("r", clock)
    outer = rec.open("outer")
    inner = rec.open("inner")
    clock.now = 3.0
    rec.close(outer)
    assert inner.end == 3.0 and outer.end == 3.0
    assert rec.innermost("inner") is None
    with pytest.raises(ValueError):
        rec.close(Span(99, "never opened", 0.0, None, "r"))


# ------------------------------------------------------------ percentiles


def test_tail_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert tail_percentile(values, 90) == 90
    assert tail_percentile(values[:99], 90) is None
    assert tail_percentile(list(range(1, 21)), 50) == 10
    assert tail_percentile(list(range(1, 20)), 50) is None
    assert tail_percentile([], 50) is None


def test_highest_reportable_percentile():
    assert highest_reportable_percentile(100) == 90
    assert highest_reportable_percentile(1000) == 99
    assert highest_reportable_percentile(24) == 58
    assert highest_reportable_percentile(19) is None
    values = list(range(24))
    assert tail_percentile(values, highest_reportable_percentile(24)) is not None


# ------------------------------------------------------------ ops accounting


def test_ops_failed_frac_counts_planned_but_not_completed():
    ledger = Ledger()
    ledger.plan("steps", 10)
    ledger.complete("steps", 7)
    ledger.plan("eval_examples", 30)
    ledger.complete("eval_examples", 30)
    assert ledger.total_attempted == 40
    assert ledger.total_failed == 3
    assert ledger.failed_frac == pytest.approx(3 / 40)
    assert not ledger.correct
    assert ledger.summary()["steps"] == {"attempted": 10, "failed": 3}


def test_an_exception_fails_every_operation_it_did_not_complete():
    ledger = Ledger()
    ledger.plan("books", 4)
    ledger.complete("books", 4)

    def round_that_diverges():
        ledger.plan("steps", 12)
        ledger.complete("steps", 5)
        raise RuntimeError("non-finite loss")

    with pytest.raises(RuntimeError):
        round_that_diverges()
    assert ledger.total_failed == 7
    assert ledger.failed_frac == pytest.approx(7 / 16)


def test_ledger_is_correct_only_with_work_done_and_no_problem():
    ledger = Ledger()
    assert not ledger.correct  # nothing attempted
    ledger.plan("books", 2)
    ledger.complete("books", 2)
    assert ledger.correct and ledger.failed_frac == 0.0
    ledger.problem("probabilities do not sum to 1")
    assert not ledger.correct
    with pytest.raises(ValueError):
        ledger.complete("books", 1)


# ------------------------------------------------------------ wiring


def test_traced_training_yields_step_spans_and_restores_the_package():
    pkg = run.load_package()
    from clozereader.synthdata import associative_recall_examples

    originals = (pkg.training.train, pkg.training.clip_gradients, pkg.asreader.Model.loss,
                 pkg.tensor.Tensor.backward)
    raw = associative_recall_examples(16, rng_seed=3)
    vocabulary = pkg.vocab.build_vocab(raw, cap=1000, anon_count=20)
    encoded = pkg.vocab.encode_dataset(raw, vocabulary, 1)
    model = pkg.asreader.Model(vocabulary, pkg.asreader.ModelConfig(8, 8, 1), rng_seed=1)
    config = pkg.training.TrainConfig(batch_size=4, max_epochs=1)

    rec = Recorder("test")
    obs = Observations()
    inst = Instrumentation(run.PACKAGE, rec, obs)
    inst.install()
    try:
        assert pkg.training.train is not originals[0]
        assert sys.modules["clozereader.cli"].run_training is pkg.training.train
        result = pkg.training.train(model, encoded[:12], encoded[12:], config)
    finally:
        inst.uninstall()
    assert pkg.training.train is originals[0]
    assert pkg.training.clip_gradients is originals[1]
    assert pkg.asreader.Model.loss is originals[2]
    assert pkg.tensor.Tensor.backward is originals[3]

    idx = SpanIndex(rec.spans)
    steps = idx.named(STEP)
    assert len(steps) == result.steps == 3
    for step in steps:
        kids = {d.name for d in idx.descendants(step)}
        assert {"asreader.loss", "asreader.forward_scores", "recurrent.doc_run",
                "recurrent.q_run", "tensor.backward", "optim.clip", "optim.adam"} <= kids
        assert step.attrs["nodes"] > 0
        assert "training.evaluate" not in kids
    assert len(obs.losses) == len(obs.grad_norms) == 3
    assert all(math.isfinite(x) for x in obs.losses + obs.grad_norms)
    with pytest.raises(ValueError):
        per_layer_metrics(rec.spans[:0], obs)  # no step, no metrics
