"""Pointer-style reader: score every document position against the
question, then sum attention per surface form.

The document encoder is a bidirectional GRU whose per-position outputs
(forward and backward states concatenated) are the contextual embeddings
f_i; the question encoder's final states concatenate into a single query
vector g.  Position scores are dot products f_i . g, softmaxed over the
whole document.  A candidate's probability is the total attention mass on
its occurrences, so a word repeated in promising places accumulates
evidence.  Training minimizes -log of the answer's raw mass (computed in
log space); candidate-renormalized probabilities are for reporting only.

The optional query-initiated variant first runs the question through the
document encoder and uses the final forward/backward states to initialize
the document passes, layer by layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ClozereaderError
from .numerics import (
    BiGru,
    Parameter,
    Tensor,
    add,
    concat,
    logsumexp,
    mean,
    no_grad,
    sub,
    take_rows,
    time_major_dot,
    uniform_init,
)
from .seeding import derive_seed
from .vocab import (
    ANON_START,
    GAP_ID,
    PAD_ID,
    EncodedCorpus,
    EncodedExample,
    Vocabulary,
    as_corpus,
)

MASK_OFFSET = 1e9  # added as -MASK_OFFSET to scores at excluded positions


class AnswerNotInDocumentError(ClozereaderError):
    """The loss is undefined when no document position holds the answer."""


@dataclass(frozen=True)
class ModelConfig:
    embedding_dim: int = 128
    hidden_units: int = 384
    recurrent_layers: int = 2
    query_init: bool = False


@dataclass
class Batch:
    """Padded id matrices for a batch of encoded examples."""

    context: np.ndarray          # (B, T) int64, right-padded with PAD_ID
    context_lengths: np.ndarray  # (B,)
    question: np.ndarray         # (B, Q) int64
    question_lengths: np.ndarray  # (B,)
    answers: np.ndarray          # (B,)
    candidates: np.ndarray       # (B, n_candidates)
    indices: np.ndarray          # (B,) positions in the source corpus or list

    @classmethod
    def from_corpus(cls, corpus: EncodedCorpus, indices) -> "Batch":
        """The examples of ``corpus`` at ``indices``, in that order."""
        indices = np.asarray(indices, dtype=np.int64)
        context, context_lengths = corpus.contexts(indices)
        question, question_lengths = corpus.questions.padded(indices[:, None])
        candidates, counts = corpus.candidates.padded(indices[:, None])
        if counts.size and counts.min() != counts.max():
            raise ValueError(f"examples {indices.tolist()} differ in candidate count")
        return cls(
            context=context,
            context_lengths=context_lengths,
            question=question,
            question_lengths=question_lengths,
            answers=corpus.answers[indices].astype(np.int64),
            candidates=candidates,
            indices=indices,
        )

    @classmethod
    def from_examples(cls, examples: list[EncodedExample], indices=None) -> "Batch":
        """Every example of the list; ``indices`` label the rows, 0..B-1
        by default."""
        batch = cls.from_corpus(as_corpus(examples), np.arange(len(examples)))
        if indices is not None:
            batch.indices = np.asarray(indices, dtype=np.int64)
        return batch

    @property
    def size(self) -> int:
        return self.context.shape[0]


@dataclass
class Prediction:
    """One example's outcome: candidate-renormalized probabilities, the
    argmax candidate (first on ties), and, from ``Model.predict``, the
    attention on each of the row's real positions."""

    candidate_ids: np.ndarray
    probabilities: np.ndarray
    predicted_index: int
    attention: np.ndarray | None = None

    @property
    def predicted_id(self) -> int:
        return int(self.candidate_ids[self.predicted_index])


@dataclass(frozen=True, eq=False)
class Predictions:
    """The candidate ids and candidate-renormalized probabilities of N
    examples as (N, C) arrays, a narrower row padded with PAD_ID at
    probability 0, and from ``Model.predict`` each row's attention.
    ``predictions[i]`` is row i as a ``Prediction`` viewing these arrays."""

    candidate_ids: np.ndarray
    probabilities: np.ndarray
    attention: list[np.ndarray] | None = None  # views of one (N, T) matrix

    def __len__(self) -> int:
        return len(self.probabilities)

    def __getitem__(self, i: int) -> Prediction:
        probabilities = self.probabilities[i]  # IndexError past the end stops iteration
        attention = None if self.attention is None else self.attention[i]
        return Prediction(self.candidate_ids[i], probabilities, int(probabilities.argmax()),
                          attention)

    @property
    def predicted_ids(self) -> np.ndarray:
        """(N,) id of each row's most probable candidate, the first on ties."""
        return self.candidate_ids[np.arange(len(self)), self.probabilities.argmax(axis=1)]


def as_predictions(predictions: Predictions | list[Prediction]) -> Predictions:
    """Predictions as they are, or a list of rows packed into arrays; each
    row then predicts the argmax of its probabilities."""
    if isinstance(predictions, Predictions):
        return predictions
    # An empty list keeps one column, so that its argmax is defined.
    width = max((len(p.candidate_ids) for p in predictions), default=1)
    candidate_ids = np.full((len(predictions), width), PAD_ID, dtype=np.int64)
    probabilities = np.zeros(candidate_ids.shape)
    for i, p in enumerate(predictions):
        candidate_ids[i, : len(p.candidate_ids)] = p.candidate_ids
        probabilities[i, : len(p.probabilities)] = p.probabilities
    return Predictions(candidate_ids, probabilities)


def _step_masks(lengths: np.ndarray, steps: int) -> np.ndarray | None:
    """(T, B, 1) boolean keep-mask; None when every row spans all steps."""
    if lengths.min() == steps:
        return None
    return (np.arange(steps)[:, None] < lengths[None, :])[:, :, None]


class Model:
    """Embedding table plus document and question encoders."""

    def __init__(self, vocabulary: Vocabulary, config: ModelConfig, rng_seed: int = 0):
        self.vocabulary = vocabulary
        self.config = config
        self.rng_seed = rng_seed
        rows = vocabulary.size
        self.embedding = Parameter(
            uniform_init((rows, config.embedding_dim), -0.1, 0.1,
                         derive_seed(rng_seed, "embedding")),
            name="embedding",
            frozen_rows=slice(ANON_START, vocabulary.word_start),
        )
        self.doc_encoder = BiGru(
            config.embedding_dim,
            config.hidden_units,
            config.recurrent_layers,
            derive_seed(rng_seed, "doc"),
            "doc",
        )
        self.q_encoder = BiGru(
            config.embedding_dim,
            config.hidden_units,
            config.recurrent_layers,
            derive_seed(rng_seed, "q"),
            "q",
        )

    def parameters(self) -> list[Parameter]:
        return (
            [self.embedding]
            + self.doc_encoder.parameters()
            + self.q_encoder.parameters()
        )

    def named_parameters(self) -> dict[str, Parameter]:
        return {p.name: p for p in self.parameters()}

    # ---------------------------------------------------------------- forward

    def _embed_flat(self, ids: np.ndarray) -> Tensor:
        """(B, T) int ids -> time-major (T*B, E) embeddings."""
        flat = np.ascontiguousarray(ids.T).reshape(-1)
        return take_rows(self.embedding, flat)

    def _run_encoder(self, encoder: BiGru, ids: np.ndarray, lengths: np.ndarray,
                     init_states=None):
        b, t = ids.shape
        emb = self._embed_flat(ids)
        masks = _step_masks(lengths, t)
        return encoder.run(emb, t, b, masks, init_states)

    def question_vector(self, batch: Batch) -> Tensor:
        """(B, 2H) concatenation of the question encoder's final states."""
        _, finals = self._run_encoder(self.q_encoder, batch.question,
                                      batch.question_lengths)
        final_fwd, final_bwd = finals[-1]
        return concat([final_fwd, final_bwd], axis=1)

    def document_states(self, batch: Batch) -> Tensor:
        """Time-major (T*B, 2H) contextual embeddings of the context: row
        t*B + b is position t of batch row b."""
        init_states = None
        if self.config.query_init:
            _, init_states = self._run_encoder(
                self.doc_encoder, batch.question, batch.question_lengths
            )
        block, _ = self._run_encoder(
            self.doc_encoder, batch.context, batch.context_lengths, init_states
        )
        return block

    def forward_scores(self, batch: Batch) -> Tensor:
        """(B, T) dot-product scores between every document position and
        the question vector.  Padding positions are NOT yet masked."""
        return time_major_dot(self.document_states(batch), self.question_vector(batch))

    def loss(self, batch: Batch) -> Tensor:
        """Mean negative log of the answer's aggregated attention mass.

        Computed in log space: logsumexp over all real positions minus
        logsumexp over the answer's positions.
        """
        scores = self.forward_scores(batch)
        b, t = batch.context.shape
        real = np.arange(t)[None, :] < batch.context_lengths[:, None]
        answer_positions = (batch.context == batch.answers[:, None]) & real
        rows_without_answer = ~answer_positions.any(axis=1)
        if rows_without_answer.any():
            where = batch.indices[rows_without_answer][:5].tolist()
            raise AnswerNotInDocumentError(
                f"answer id absent from document for example(s) {where}"
            )
        all_masked = add(scores, Tensor((real.astype(float) - 1.0) * MASK_OFFSET))
        answer_masked = add(
            scores, Tensor((answer_positions.astype(float) - 1.0) * MASK_OFFSET)
        )
        per_example = sub(logsumexp(all_masked, axis=1),
                          logsumexp(answer_masked, axis=1))
        return mean(per_example)

    def predict(self, batch: Batch) -> Predictions:
        """Candidate-renormalized probabilities, argmax answers and attention."""
        with no_grad():
            scores = self.forward_scores(batch).data
        return predictions_from_scores(
            scores, batch.context, batch.context_lengths, batch.candidates
        )


def predictions_from_scores(
    scores: np.ndarray,
    context: np.ndarray,
    context_lengths: np.ndarray,
    candidates: np.ndarray,
) -> Predictions:
    real = np.arange(scores.shape[1])[None, :] < context_lengths[:, None]
    masked = np.where(real, scores, -np.inf)
    shift = masked.max(axis=1, keepdims=True)
    exps = np.exp(masked - shift)
    attention = exps / exps.sum(axis=1, keepdims=True)

    occurs = (context[:, None, :] == candidates[:, :, None]) & real[:, None, :]
    masses = (attention[:, None, :] * occurs).sum(axis=2)
    totals = masses.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    probabilities = np.where(totals > 0, masses / safe, 1.0 / masses.shape[1])
    rows = [attention[i, :n] for i, n in enumerate(context_lengths.tolist())]
    return Predictions(candidates, probabilities, rows)


# --------------------------------------------------------------- example ops
#
# Single-example entry points used by tests and small tools; they wrap the
# batched paths with B = 1 and plain numpy in/out.


def _single_batch(context_ids: list[int], question_ids: list[int]) -> Batch:
    ex = EncodedExample(
        context_ids=list(context_ids),
        question_ids=list(question_ids) if question_ids else [GAP_ID],
        answer_id=0,
        candidate_ids=[0],
        oov_map={},
    )
    return Batch.from_examples([ex])


def encode_document(context_ids: list[int], model: Model) -> np.ndarray:
    """(T, 2H) contextual embeddings for one document."""
    if not context_ids:
        raise ValueError("empty document")
    batch = _single_batch(context_ids, [])
    with no_grad():
        block, _ = model._run_encoder(
            model.doc_encoder, batch.context, batch.context_lengths
        )
    return block.data


def encode_question(question_ids: list[int], model: Model) -> np.ndarray:
    """(2H,) question vector; the gap tag must be present."""
    if GAP_ID not in question_ids:
        raise ValueError("question does not contain the gap tag id")
    batch = _single_batch([PAD_ID], question_ids)
    with no_grad():
        g = model.question_vector(batch)
    return g.data[0].copy()


def query_initiated_encoding(
    context_ids: list[int],
    question_ids: list[int],
    model: Model,
) -> np.ndarray:
    """(T, 2H) contextual embeddings with document passes initialized from
    the question's pass through the document encoder."""
    if not context_ids:
        raise ValueError("empty document")
    if GAP_ID not in question_ids:
        raise ValueError("question does not contain the gap tag id")
    batch = _single_batch(context_ids, question_ids)
    with no_grad():
        _, init_states = model._run_encoder(
            model.doc_encoder, batch.question, batch.question_lengths
        )
        block, _ = model._run_encoder(
            model.doc_encoder, batch.context, batch.context_lengths, init_states
        )
    return block.data


def attention_and_answer(
    contextual: np.ndarray,
    question_vector: np.ndarray,
    candidate_ids: list[int],
    context_ids: list[int],
) -> Prediction:
    """Score one document against one question vector and aggregate
    attention mass per candidate."""
    scores = np.asarray(contextual) @ np.asarray(question_vector)
    context = np.asarray(context_ids, dtype=np.int64)[None, :]
    lengths = np.asarray([len(context_ids)])
    candidates = np.asarray(candidate_ids, dtype=np.int64)[None, :]
    return predictions_from_scores(scores[None, :], context, lengths, candidates)[0]


def example_loss(
    scores: np.ndarray,
    context_ids: list[int],
    answer_id: int,
) -> float:
    """-log of the answer's aggregated attention mass, in log space."""
    scores = np.asarray(scores, dtype=float)
    context = np.asarray(context_ids)
    positions = np.flatnonzero(context == answer_id)
    if positions.size == 0:
        raise AnswerNotInDocumentError(f"answer id {answer_id} not in document")

    def lse(values: np.ndarray) -> float:
        m = values.max()
        return float(m + np.log(np.exp(values - m).sum()))

    return lse(scores) - lse(scores[positions])
