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

A batch is read in one way each: ``occurrences`` is the one mask of where
ids occur among a row's real context positions, ``Batch.answer_positions``
is the one answer check, and ``Model._document_pass`` is the one run of
the document encoder.  The loss and the attention leave out positions by
one rule, the ``where=`` mask of the tape's ``logsumexp`` and ``softmax``:
an excluded score is -inf before the max shift, so its mass and its
gradient are exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ClozereaderError
from .numerics import (
    BiGru,
    Parameter,
    Tensor,
    concat,
    logsumexp,
    mean,
    no_grad,
    softmax,
    sub,
    take_rows,
    time_major_dot,
    uniform_init,
)
from .seeding import check_seed, derive_seed
from .vocab import (
    ANON_START,
    ANSWER,
    CANDIDATES,
    CONTEXT,
    GAP_ID,
    PAD_ID,
    QUESTION,
    EncodedCorpus,
    EncodedExample,
    Vocabulary,
)

class AnswerNotInDocumentError(ClozereaderError):
    """The loss is undefined when no document position holds the answer."""


def check_counts(config, *keys: str) -> None:
    """Raise ``ValueError`` unless each named field of ``config`` is an
    ``int``, not a ``bool``, of at least 1."""
    for key in keys:
        value = getattr(config, key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{key} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{key} must be positive")


@dataclass(frozen=True)
class ModelConfig:
    embedding_dim: int = 128
    hidden_units: int = 384
    recurrent_layers: int = 2
    query_init: bool = False

    def __post_init__(self):
        check_counts(self, "embedding_dim", "hidden_units", "recurrent_layers")
        if not isinstance(self.query_init, bool):
            raise ValueError(f"query_init must be true or false, got {self.query_init!r}")


@dataclass
class Batch:
    """Padded id matrices for a batch of encoded examples."""

    context: np.ndarray          # (B, T) int64, right-padded with PAD_ID
    context_lengths: np.ndarray  # (B,)
    question: np.ndarray         # (B, Q) int64
    question_lengths: np.ndarray  # (B,)
    answers: np.ndarray          # (B,)
    candidates: np.ndarray       # (B, C) int64, right-padded with PAD_ID
    indices: np.ndarray          # (B,) positions in the source corpus or list

    @classmethod
    def from_corpus(cls, corpus: EncodedCorpus, indices) -> "Batch":
        """The examples of ``corpus`` at ``indices``, in that order."""
        indices = np.asarray(indices, dtype=np.int64)
        (context, context_lengths), (question, question_lengths), (candidates, _), (answers, _) = (
            corpus.ids(indices, CONTEXT, QUESTION, CANDIDATES, ANSWER))
        return cls(
            context=context,
            context_lengths=context_lengths,
            question=question,
            question_lengths=question_lengths,
            answers=answers.reshape(-1),
            candidates=candidates,
            indices=indices,
        )

    @classmethod
    def from_examples(cls, examples: list[EncodedExample], indices=None) -> "Batch":
        """Every example of the list; ``indices`` label the rows, 0..B-1
        by default."""
        batch = cls.from_corpus(EncodedCorpus.from_examples(examples), np.arange(len(examples)))
        if indices is not None:
            batch.indices = np.asarray(indices, dtype=np.int64)
        return batch

    @property
    def size(self) -> int:
        return self.context.shape[0]

    def token_ids(self) -> np.ndarray:
        """The distinct ids of the context and question, ascending: the
        embedding rows that a pass over the batch reads."""
        return np.unique(np.concatenate((self.context.ravel(), self.question.ravel())))

    def rows(self, start: int, stop: int) -> "Batch":
        """Rows ``start`` to ``stop - 1``, their padding cut to the longest of them."""
        t = int(self.context_lengths[start:stop].max())
        q = int(self.question_lengths[start:stop].max())
        return Batch(self.context[start:stop, :t], self.context_lengths[start:stop],
                     self.question[start:stop, :q], self.question_lengths[start:stop],
                     self.answers[start:stop], self.candidates[start:stop],
                     self.indices[start:stop])

    def answer_positions(self, sources=None) -> np.ndarray:
        """(B, T) mask of where each row's answer occurs in its document.
        A row without one raises, naming its corpus index and, when the
        corpus's ``sources`` are given, its source."""
        positions = occurrences(self.context, self.context_lengths, self.answers[:, None])[:, 0]
        absent = ~positions.any(axis=1)
        if absent.any():
            row = int(absent.argmax())
            index = int(self.indices[row])
            source = "" if sources is None else f" (source {sources[index]})"
            raise AnswerNotInDocumentError(f"example {index}{source}: answer id "
                                           f"{self.answers[row]} absent from its document")
        return positions


def occurrences(context: np.ndarray, lengths: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """(B, K, T) mask of where each of a row's K ``ids`` occurs among the
    first ``lengths`` positions of its ``context`` row."""
    real = np.arange(context.shape[1]) < lengths[:, None]
    return (context[:, None, :] == ids[:, :, None]) & real[:, None, :]


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


class Model:
    """Embedding table plus document and question encoders."""

    def __init__(self, vocabulary: Vocabulary, config: ModelConfig, rng_seed: int = 0):
        self.vocabulary = vocabulary
        self.config = config
        self.rng_seed = check_seed(rng_seed)
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

    def _run_encoder(self, encoder: BiGru, ids: np.ndarray, lengths: np.ndarray,
                     init_states=None):
        """``encoder`` over (B, T) ids, time-major: input row t*B + b embeds
        ids[b, t], and the (T, B, 1) keep-mask says step t of row b is real."""
        b, t = ids.shape
        emb = take_rows(self.embedding, np.ascontiguousarray(ids.T).reshape(-1))
        masks = (np.arange(t)[:, None] < lengths[None, :])[:, :, None]
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
        return self._document_pass(batch, self.config.query_init)

    def _document_pass(self, batch: Batch, query_init: bool) -> Tensor:
        """The document encoder over the context; with ``query_init`` its
        passes start from its final states over the question."""
        init_states = None
        if query_init:
            _, init_states = self._run_encoder(self.doc_encoder, batch.question,
                                               batch.question_lengths)
        block, _ = self._run_encoder(self.doc_encoder, batch.context, batch.context_lengths,
                                     init_states)
        return block

    def forward_scores(self, batch: Batch) -> Tensor:
        """(B, T) dot-product scores between every document position and
        the question vector.  Padding positions are NOT yet masked."""
        return time_major_dot(self.document_states(batch), self.question_vector(batch))

    def loss(self, batch: Batch) -> Tensor:
        """Mean negative log of the answer's aggregated attention mass, in
        log space: logsumexp over the real positions minus logsumexp over
        the answer's positions, each selected by the op's ``where=`` mask."""
        answer_positions = batch.answer_positions()
        scores = self.forward_scores(batch)
        real = np.arange(scores.shape[1])[None, :] < batch.context_lengths[:, None]
        return mean(sub(logsumexp(scores, 1, where=real),
                        logsumexp(scores, 1, where=answer_positions)))

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
    attention = softmax(Tensor(scores), 1, where=real).data

    occurs = occurrences(context, context_lengths, candidates)
    masses = (attention[:, None, :] * occurs).sum(axis=2)
    totals = masses.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    # No real position holds PAD_ID, so a padding column gets no mass; it
    # stays out of the uniform fallback too.
    real_candidates = candidates != PAD_ID
    probabilities = np.where(totals > 0, masses / safe,
                             real_candidates / real_candidates.sum(axis=1, keepdims=True))
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
    with no_grad():
        return model._document_pass(_single_batch(context_ids, []), False).data


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
    with no_grad():
        return model._document_pass(_single_batch(context_ids, question_ids), True).data


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
    positions = np.flatnonzero(np.asarray(context_ids) == answer_id)
    if positions.size == 0:
        raise AnswerNotInDocumentError(f"answer id {answer_id} absent from its document")
    return logsumexp(Tensor(scores)).item() - logsumexp(Tensor(scores[positions])).item()
