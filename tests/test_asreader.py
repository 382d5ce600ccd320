"""Pointer-attention model: scoring, aggregation, loss, gradients.

The attention path is held against a brute-force oracle written in plain
Python floats, position by position.
"""

import math

import numpy as np
import pytest

from clozereader.asreader import (
    AnswerNotInDocumentError,
    Batch,
    Model,
    ModelConfig,
    attention_and_answer,
    encode_document,
    encode_question,
    example_loss,
    occurrences,
    predictions_from_scores,
    query_initiated_encoding,
)
from clozereader.numerics import no_grad
from clozereader.vocab import GAP_ID, PAD_ID, EncodedExample, Vocabulary


def small_vocab(n_words=8):
    words = [f"w{i}" for i in range(n_words)]
    return Vocabulary(words=words, cap=100, anon_count=2)


def small_model(n_words=8, query_init=False, rng_seed=0, layers=1):
    config = ModelConfig(
        embedding_dim=3, hidden_units=2, recurrent_layers=layers,
        query_init=query_init,
    )
    return Model(small_vocab(n_words), config, rng_seed=rng_seed)


def encoded(context_ids, question_ids, answer_id, candidate_ids):
    return EncodedExample(
        context_ids=list(context_ids),
        question_ids=list(question_ids),
        answer_id=answer_id,
        candidate_ids=list(candidate_ids),
        oov_map={},
    )


def word_ids(vocab, *positions):
    return [vocab.word_start + p for p in positions]


# ------------------------------------------------------------ brute force


def brute_force(contextual, g, candidate_ids, context_ids):
    scores = [
        sum(float(contextual[t][k]) * float(g[k]) for k in range(len(g)))
        for t in range(len(context_ids))
    ]
    shift = max(scores)
    exps = [math.exp(s - shift) for s in scores]
    z = sum(exps)
    alpha = [e / z for e in exps]
    masses = [
        sum(a for a, tok in zip(alpha, context_ids) if tok == cid)
        for cid in candidate_ids
    ]
    total = sum(masses)
    if total > 0:
        probs = [m / total for m in masses]
    else:
        probs = [1.0 / len(masses)] * len(masses)
    best = max(range(len(probs)), key=lambda i: (probs[i], -i))
    return alpha, probs, best


@pytest.mark.parametrize("seed", range(8))
def test_attention_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(3, 11))
    contextual = rng.normal(size=(t, 4))
    g = rng.normal(size=4) * 0.5
    context_ids = rng.integers(10, 15, size=t).tolist()
    candidate_ids = list(range(10, 15))

    prediction = attention_and_answer(contextual, g, candidate_ids, context_ids)
    alpha, probs, best = brute_force(contextual, g, candidate_ids, context_ids)

    np.testing.assert_allclose(prediction.attention, alpha, atol=1e-12)
    np.testing.assert_allclose(prediction.probabilities, probs, atol=1e-12)
    assert prediction.predicted_index == best


def test_repeated_token_mass_is_summed():
    # Scores chosen so attention is exactly [.3, .4, .3] over tokens a b a.
    contextual = np.log(np.array([[0.3], [0.4], [0.3]]))
    g = np.array([1.0])
    a, b = 7, 9
    prediction = attention_and_answer(contextual, g, [a, b], [a, b, a])
    np.testing.assert_allclose(prediction.attention, [0.3, 0.4, 0.3], atol=1e-12)
    np.testing.assert_allclose(prediction.probabilities, [0.6, 0.4], atol=1e-12)
    assert prediction.predicted_id == a


def test_absent_candidate_gets_zero_mass():
    scores = np.zeros((1, 3))
    context = np.array([[5, 6, 5]])
    candidates = np.array([[5, 6, 8]])
    (prediction,) = predictions_from_scores(
        scores, context, np.array([3]), candidates
    )
    np.testing.assert_allclose(
        prediction.probabilities, [2 / 3, 1 / 3, 0.0], atol=1e-12
    )
    assert prediction.probabilities.sum() == pytest.approx(1.0, abs=1e-9)


def test_no_candidate_in_document_falls_back_to_uniform():
    scores = np.zeros((2, 2))
    whole, padded = predictions_from_scores(
        scores, np.array([[3, 4], [3, 4]]), np.array([2, 2]),
        np.array([[8, 9, 10, 11], [8, 9, PAD_ID, PAD_ID]]),
    )
    np.testing.assert_allclose(whole.probabilities, np.full(4, 0.25))
    assert whole.predicted_index == 0
    # The uniform share goes to the real candidates only, none to padding.
    assert padded.probabilities.tolist() == [0.5, 0.5, 0.0, 0.0]
    assert padded.predicted_index == 0


def test_argmax_tie_takes_first_candidate():
    scores = np.zeros((1, 2))
    context = np.array([[5, 6]])
    (prediction,) = predictions_from_scores(
        scores, context, np.array([2]), np.array([[6, 5]])
    )
    np.testing.assert_allclose(prediction.probabilities, [0.5, 0.5])
    assert prediction.predicted_index == 0
    assert prediction.predicted_id == 6


def test_padding_positions_get_no_attention():
    scores = np.array([[0.0, 0.0, 5.0]])  # position 2 is padding
    context = np.array([[5, 6, 0]])
    (prediction,) = predictions_from_scores(
        scores, context, np.array([2]), np.array([[5, 6]])
    )
    # Attention covers only the real positions, and they carry all of it.
    np.testing.assert_allclose(prediction.attention, [0.5, 0.5], atol=1e-12)


def test_candidate_reordering_permutes_probabilities():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=(1, 6))
    context = np.array([[5, 6, 7, 5, 8, 6]])
    lengths = np.array([6])
    base = np.array([[5, 6, 7, 8]])
    perm = np.array([[8, 5, 6, 7]])
    (p_base,) = predictions_from_scores(scores, context, lengths, base)
    (p_perm,) = predictions_from_scores(scores, context, lengths, perm)
    np.testing.assert_allclose(
        p_perm.probabilities, p_base.probabilities[[3, 0, 1, 2]], atol=1e-12
    )
    assert p_perm.predicted_id == p_base.predicted_id


# ------------------------------------------------------------------- loss


def test_example_loss_hand_values():
    # Two equal-score positions, answer at one of them: mass 1/2, loss ln 2.
    assert example_loss(np.zeros(2), [5, 6], 5) == pytest.approx(math.log(2))
    # Every position is the answer: mass 1, loss 0.
    assert example_loss(np.array([1.7, -0.3]), [5, 5], 5) == pytest.approx(0.0)


def test_example_loss_requires_answer_in_document():
    with pytest.raises(AnswerNotInDocumentError):
        example_loss(np.zeros(2), [5, 6], 7)


def test_batched_loss_matches_single_example_losses():
    model = small_model()
    v = model.vocabulary
    examples = [
        encoded(word_ids(v, 0, 1, 2, 1), [v.word_start, GAP_ID],
                word_ids(v, 1)[0], word_ids(v, 1, 2)),
        encoded(word_ids(v, 3, 4), [GAP_ID, v.word_start + 3],
                word_ids(v, 4)[0], word_ids(v, 4, 3)),
        encoded(word_ids(v, 5, 6, 5), [v.word_start + 6, GAP_ID],
                word_ids(v, 5)[0], word_ids(v, 5, 6)),
    ]
    batch = Batch.from_examples(examples)
    batched = model.loss(batch).item()

    singles = []
    for ex in examples:
        contextual = encode_document(ex.context_ids, model)
        g = encode_question(ex.question_ids, model)
        scores = contextual @ g
        singles.append(example_loss(scores, ex.context_ids, ex.answer_id))
    assert batched == pytest.approx(float(np.mean(singles)), abs=1e-9)


def test_loss_raises_and_names_rows_missing_the_answer(monkeypatch):
    model = small_model()
    v = model.vocabulary
    good = encoded(word_ids(v, 0, 1), [GAP_ID], word_ids(v, 1)[0], word_ids(v, 1, 0))
    bad = encoded(word_ids(v, 2, 3), [GAP_ID], word_ids(v, 7)[0], word_ids(v, 7, 2))

    def no_forward(*args, **kwargs):
        raise AssertionError("the forward pass ran before the answer check")

    monkeypatch.setattr(Model, "forward_scores", no_forward)
    with pytest.raises(AnswerNotInDocumentError,
                       match=rf"^example 1: answer id {v.word_start + 7} absent from its document$"):
        model.loss(Batch.from_examples([good, bad]))


def test_answer_positions_and_occurrences_read_real_positions_only():
    a, b = 7, 9
    # Row 0 is padded to row 1's width, and its third candidate is padding.
    batch = Batch.from_examples([encoded([a, b, a], [GAP_ID], a, [a, b]),
                                 encoded([b, b, a, b, a], [GAP_ID], b, [b, a, 4])])
    assert batch.context[0].tolist() == [a, b, a, PAD_ID, PAD_ID]
    assert batch.candidates[0].tolist() == [a, b, PAD_ID]
    assert batch.answer_positions().tolist() == [[True, False, True, False, False],
                                                 [True, True, False, True, False]]
    counts = occurrences(batch.context, batch.context_lengths, batch.candidates).sum(axis=2)
    assert counts.tolist() == [[2, 1, 0], [3, 2, 0]]


def test_loss_decreases_along_the_gradient():
    model = small_model()
    v = model.vocabulary
    examples = [
        encoded(word_ids(v, 0, 1, 2), [GAP_ID, v.word_start],
                word_ids(v, 2)[0], word_ids(v, 2, 1)),
    ]
    batch = Batch.from_examples(examples)
    first = model.loss(batch)
    first.backward()
    for p in model.parameters():
        if p.grad is not None:
            p.data -= 0.05 * p.grad
    second = model.loss(batch)
    assert second.item() < first.item()


# ------------------------------------------------------------------ model


def test_batch_padding_layout():
    examples = [
        encoded([5, 6, 7], [1, 5], 5, [5, 6]),
        encoded([8, 9], [1], 8, [8, 9]),
    ]
    batch = Batch.from_examples(examples, indices=[4, 9])
    np.testing.assert_array_equal(batch.context, [[5, 6, 7], [8, 9, 0]])
    np.testing.assert_array_equal(batch.context_lengths, [3, 2])
    np.testing.assert_array_equal(batch.question, [[1, 5], [1, 0]])
    np.testing.assert_array_equal(batch.answers, [5, 8])
    np.testing.assert_array_equal(batch.indices, [4, 9])
    assert batch.size == 2


def test_forward_shapes():
    model = small_model(layers=2)
    v = model.vocabulary
    examples = [
        encoded(word_ids(v, 0, 1, 2, 3), [GAP_ID, v.word_start],
                word_ids(v, 1)[0], word_ids(v, 1, 2)),
        encoded(word_ids(v, 4, 5), [v.word_start, GAP_ID],
                word_ids(v, 5)[0], word_ids(v, 5, 4)),
    ]
    batch = Batch.from_examples(examples)
    scores = model.forward_scores(batch)
    assert scores.shape == (2, 4)
    assert model.question_vector(batch).shape == (2, 4)
    states = model.document_states(batch)
    assert states.shape == (4 * 2, 4)
    per_position = [states.data[t * 2 : (t + 1) * 2] for t in range(4)]
    assert all(s.shape == (2, 4) for s in per_position)
    predictions = model.predict(batch)
    assert len(predictions) == 2
    assert all(p.probabilities.shape == (2,) for p in predictions)


def test_model_seeding_is_reproducible():
    one = small_model(rng_seed=5)
    two = small_model(rng_seed=5)
    other = small_model(rng_seed=6)
    for name, p in one.named_parameters().items():
        assert np.array_equal(p.data, two.named_parameters()[name].data)
    assert not np.array_equal(
        one.embedding.data, other.embedding.data
    )


def test_anonymous_embedding_rows_are_frozen():
    model = small_model()
    v = model.vocabulary
    assert model.embedding.frozen_rows == slice(2, v.word_start)


def test_encode_question_requires_gap():
    model = small_model()
    with pytest.raises(ValueError, match="gap"):
        encode_question([model.vocabulary.word_start], model)


def test_encode_document_rejects_empty():
    model = small_model()
    with pytest.raises(ValueError, match="empty"):
        encode_document([], model)


@pytest.mark.parametrize("context, question, message", [
    ([], None, "empty document"),
    (None, [], "question does not contain the gap tag id"),
], ids=["empty-document", "no-gap"])
def test_query_initiated_encoding_rejects_a_bad_example(context, question, message):
    model = small_model()
    start = model.vocabulary.word_start
    context = [start, start + 1] if context is None else context
    question = [start, GAP_ID] if question is None else question
    with pytest.raises(ValueError, match=f"^{message}$"):
        query_initiated_encoding(context, question, model)


def test_batched_scores_match_single_document_path():
    model = small_model()
    v = model.vocabulary
    ex = encoded(word_ids(v, 0, 1, 2, 0), [v.word_start + 2, GAP_ID],
                 word_ids(v, 0)[0], word_ids(v, 0, 1))
    contextual = encode_document(ex.context_ids, model)
    g = encode_question(ex.question_ids, model)
    batch = Batch.from_examples([ex])
    batched = model.forward_scores(batch).data[0]
    np.testing.assert_allclose(batched, contextual @ g, atol=1e-10)


def test_query_init_feeds_question_state_into_document_pass():
    plain = small_model(query_init=False, rng_seed=3)
    primed = small_model(query_init=True, rng_seed=3)
    v = plain.vocabulary
    ex = encoded(word_ids(v, 0, 1, 2), [v.word_start + 1, GAP_ID],
                 word_ids(v, 1)[0], word_ids(v, 1, 2))
    batch = Batch.from_examples([ex])

    plain_scores = plain.forward_scores(batch).data
    primed_scores = primed.forward_scores(batch).data
    assert not np.allclose(plain_scores, primed_scores)

    contextual = query_initiated_encoding(ex.context_ids, ex.question_ids, primed)
    g = encode_question(ex.question_ids, primed)
    np.testing.assert_allclose(primed_scores[0], contextual @ g, atol=1e-10)

    np.testing.assert_allclose(
        plain_scores[0],
        encode_document(ex.context_ids, plain) @ encode_question(ex.question_ids, plain),
        atol=1e-10,
    )


@pytest.mark.parametrize("query_init", [False, True], ids=["plain", "query_init"])
@pytest.mark.parametrize("layers", [1, 2], ids=["layers1", "layers2"])
def test_unrecorded_forward_is_bit_identical_to_the_recorded_one(layers, query_init):
    # Under no_grad the recurrent kernel keeps no gate history; the values
    # it computes must be those of the recorded pass, bit for bit.
    model = small_model(query_init=query_init, rng_seed=4, layers=layers)
    v = model.vocabulary
    examples = [
        encoded(word_ids(v, 0, 1, 2, 1, 3), [v.word_start, GAP_ID],
                word_ids(v, 1)[0], word_ids(v, 1, 2)),
        encoded(word_ids(v, 4, 5), [GAP_ID],
                word_ids(v, 5)[0], word_ids(v, 5, 4)),
        encoded(word_ids(v, 6, 7, 6), [v.word_start + 7, v.word_start, GAP_ID],
                word_ids(v, 6)[0], word_ids(v, 6, 7)),
    ]
    batch = Batch.from_examples(examples)
    recorded = model.forward_scores(batch)
    assert recorded.requires_grad
    with no_grad():
        assert model.forward_scores(batch).data.tobytes() == recorded.data.tobytes()
    expected = predictions_from_scores(
        recorded.data, batch.context, batch.context_lengths, batch.candidates
    )
    for got, want in zip(model.predict(batch), expected):
        assert got.probabilities.tobytes() == want.probabilities.tobytes()
        assert got.attention.tobytes() == want.attention.tobytes()

    for ex in examples:
        states = model.document_states(Batch.from_examples([ex]))
        assert states.requires_grad
        if query_init:
            unrecorded = query_initiated_encoding(ex.context_ids, ex.question_ids, model)
        else:
            unrecorded = encode_document(ex.context_ids, model)
        assert unrecorded.tobytes() == states.data.tobytes()


# ---------------------------------------------------------------- gradients


@pytest.mark.parametrize(
    "seed, layers, query_init",
    [
        pytest.param(0, 1, False, id="0"),
        pytest.param(1, 1, False, id="1"),
        pytest.param(2, 1, False, id="2"),
        pytest.param(3, 2, True, id="3-layers2-query_init"),
    ],
)
def test_full_loss_gradient_matches_central_differences(seed, layers, query_init):
    from clozereader.numerics import finite_difference_check

    model = small_model(n_words=6, rng_seed=seed, layers=layers, query_init=query_init)
    rng = np.random.default_rng(100 + seed)
    # Healthy-magnitude weights keep every coordinate's true gradient well
    # above the checker's relative-error floor.
    for p in model.parameters():
        p.data = rng.normal(0.0, 0.8, size=p.data.shape)

    v = model.vocabulary
    examples = [
        encoded(word_ids(v, 0, 1, 2, 1), [v.word_start, GAP_ID],
                word_ids(v, 1)[0], word_ids(v, 1, 2)),
        encoded(word_ids(v, 3, 4, 3), [GAP_ID, v.word_start + 4],
                word_ids(v, 3)[0], word_ids(v, 3, 4)),
    ]
    batch = Batch.from_examples(examples)
    worst = finite_difference_check(
        lambda: model.loss(batch), model.parameters()
    )
    assert worst < 1e-4
