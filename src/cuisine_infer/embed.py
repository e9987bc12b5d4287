"""Interaction and name embeddings.

Micro: skip-gram with negative sampling over customer documents (customer =
document, restaurant = word). Macro: distributed-memory paragraph vectors
over restaurant documents (restaurant = document, customer = word). Name:
max pooling of pretrained vectors over non-labeling name tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .txn_core import RestaurantIndex, read_keyed_vectors, write_records
from .weak_label import tokenize_name


@dataclass(frozen=True)
class Corpus:
    """Documents of word codes laid end to end: document d is doc_ids[d] and
    holds tokens[starts[d]:starts[d + 1]] in chronological order. Code w
    stands for words[w]; words are sorted, so codes order as the words do."""

    doc_ids: np.ndarray
    words: np.ndarray
    tokens: np.ndarray
    starts: np.ndarray
    direction: str  # "customer-docs" or "restaurant-docs"

    @property
    def counts(self) -> dict[str, int]:
        """Occurrences of each word."""
        counts = np.bincount(self.tokens, minlength=len(self.words))
        return dict(zip(self.words.tolist(), counts.tolist()))


def build_customer_corpus(index: RestaurantIndex) -> Corpus:
    """One document per cardholder: restaurants in chronological order."""
    return Corpus(index.cardholder_ids, index.restaurant_ids, index.merchants,
                  index.card_starts, "customer-docs")


def build_restaurant_corpus(index: RestaurantIndex) -> Corpus:
    """One document per restaurant: cardholders in chronological order."""
    return Corpus(index.restaurant_ids, index.cardholder_ids, index.cardholder,
                  index.starts, "restaurant-docs")


@dataclass(frozen=True)
class EmbedConfig:
    dim: int = 200
    window: int = 20
    negative: int = 20
    epochs: int = 5
    learning_rate: float = 0.025
    min_count: int = 2
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "window", "negative", "epochs", "min_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1")
        if not self.learning_rate >= 0:
            raise ValueError("learning_rate: must be >= 0")


MIN_LR = 1e-4  # floor of the linearly decaying learning rate


@dataclass
class EmbeddingMatrix:
    vectors: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(next(iter(self.vectors.values()))) if self.vectors else 0

    def write(self, path) -> None:
        line = "%s" + " %.6f" * self.dim
        write_records(path, ((line % (key, *self.vectors[key].tolist()),)
                             for key in sorted(self.vectors)), sep=" ")


class NegativeTable:
    """Draw negatives proportional to unigram frequency ** 0.75."""

    def __init__(self, counts: np.ndarray, power: float = 0.75):
        freq = counts.astype(float) ** power
        self.probs = freq / freq.sum()
        self.cum = np.cumsum(self.probs)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.searchsorted(self.cum, rng.random(n), side="right")


def _positions(corpus: Corpus, min_count: int, window: int):
    """The corpus without the words seen fewer than min_count times: the kept
    words and their counts, and for each kept token, in corpus order, its
    code among the kept words, its document and its window [lo, hi),
    clipped at the document's ends."""
    counts = np.bincount(corpus.tokens, minlength=len(corpus.words))
    keep = counts >= min_count
    if not keep.any():
        raise ValueError(f"{corpus.direction} corpus: empty vocabulary after "
                         f"min_count={min_count} pruning")
    kept = keep[corpus.tokens]
    tokens = (np.cumsum(keep, dtype=np.int32) - 1)[corpus.tokens[kept]]
    doc = np.repeat(np.arange(len(corpus.starts) - 1, dtype=np.int32),
                    np.diff(corpus.starts))[kept]
    pos = np.arange(len(tokens), dtype=np.int32)
    window = min(window, len(tokens))  # a wider one clips the same; fits int32
    lo = np.maximum(np.searchsorted(doc, doc, side="left").astype(np.int32), pos - window)
    hi = np.minimum(np.searchsorted(doc, doc, side="right").astype(np.int32),
                    pos + window + 1)
    return corpus.words[keep], counts[keep], tokens, doc, lo, hi


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))


# Minibatch sizes: P skip-gram pairs or C paragraph-vector centers per step,
# all sharing one draw of S negatives. Each pair or center scales the shared
# negative terms by negative / S, so it gets the negative gradient mass of
# `negative` draws of its own. On a 12-word vocabulary, P = 256 already
# puts enough stale gradients on each row per step for SGNS to diverge.
PAIR_BATCH = 128
CENTER_BATCH = 64
SHARED_NEGATIVES = 64


def _skipgram_pairs(lo: np.ndarray, hi: np.ndarray):
    """(center, context) positions of every pair: each position with every
    other position of its window, ordered by center, then by context."""
    n_ctx = hi - lo - 1
    center = np.repeat(np.arange(len(lo), dtype=np.int32), n_ctx)
    # Pair k is context k - first[c] of its center c, counted from lo[c].
    first = np.cumsum(n_ctx, dtype=np.int32) - n_ctx
    context = np.repeat(lo - first, n_ctx)
    context += np.arange(len(context), dtype=np.int32)
    context += context >= center  # skip the center itself
    return center, context


def _scatter_add(mat: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """`np.add.at(mat, idx, rows)` by one stable sort and one reduceat."""
    order = np.argsort(idx, kind="stable")
    idx = idx[order]
    first = np.flatnonzero(np.concatenate(([True], idx[1:] != idx[:-1])))
    mat[idx[first]] += np.add.reduceat(rows[order], first, axis=0)


def _window_sums(emb: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 own: np.ndarray) -> np.ndarray:
    """For each center, the sum of the rows of `emb` in its window [lo, hi)
    except its own row: O(dim) per center from one prefix sum."""
    prefix = np.zeros((len(emb) + 1, emb.shape[1]))
    np.cumsum(emb, axis=0, out=prefix[1:])
    return prefix[hi] - prefix[lo] - emb[own]


def _window_grads(grad: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  own: np.ndarray, n: int) -> np.ndarray:
    """The transpose of `_window_sums`: for each of n rows, the sum of `grad`
    over the centers whose window holds it but is not its own. +g at lo, -g
    at hi and a running sum, then minus g at the center."""
    diff = np.zeros((n + 1, grad.shape[1]))
    _scatter_add(diff, np.concatenate([lo, hi]), np.concatenate([grad, -grad]))
    out = np.cumsum(diff[:-1], axis=0)
    out[own] -= grad
    return out


def _learning_rate(cfg: EmbedConfig, epoch: int, pos: np.ndarray,
                   n_centers: int) -> np.ndarray:
    """One rate per center position, as a column: linear decay over the
    center steps of all epochs, floored at MIN_LR. A center with no context
    still takes its step."""
    step = epoch * n_centers + pos.astype(np.float64)
    rate = cfg.learning_rate * (1 - step / max(1, n_centers * cfg.epochs))
    return np.maximum(MIN_LR, rate)[:, None]


def _output_step(vout: np.ndarray, h: np.ndarray, target: np.ndarray,
                 negs: np.ndarray, lr: np.ndarray, negative: int):
    """One negative-sampling step of the output vectors. Scores each row of
    `h` against its target row of `vout` and against the shared negatives,
    and applies the lr-scaled update to `vout` in place. Returns the loss
    summed over rows and the lr-scaled gradient of that loss in `h`."""
    u, u_neg = vout[target], vout[negs]
    scale = negative / len(negs)
    s_pos = _sigmoid(np.einsum("ij,ij->i", h, u))
    s_neg = _sigmoid(h @ u_neg.T)
    loss = float(-np.log(s_pos + 1e-12).sum() - scale * np.log(1 - s_neg + 1e-12).sum())
    g_pos, g_neg = (s_pos[:, None] - 1) * lr, s_neg * (scale * lr)
    _scatter_add(vout, np.concatenate([target, negs]),
                 -np.concatenate([g_pos * h, g_neg.T @ h]))
    return loss, g_pos * u + g_neg @ u_neg


def sgns_train(corpus: Corpus, cfg: EmbedConfig) -> EmbeddingMatrix:
    """Skip-gram with negative sampling; returns input vectors per word.

    Deterministic: single-threaded, fixed document order, one seeded RNG.
    Learning rate decays linearly over all center positions. Trains on
    minibatches of PAIR_BATCH (center, context) pairs that share
    SHARED_NEGATIVES negatives; the updates of a batch all use the vectors
    as they were at its start.
    """
    vocab, counts, tokens, _, lo, hi = _positions(corpus, cfg.min_count, cfg.window)
    V = len(vocab)
    rng = np.random.default_rng(cfg.seed)
    table = NegativeTable(counts)
    vin = (rng.random((V, cfg.dim)) - 0.5) / cfg.dim
    vout = np.zeros((V, cfg.dim))

    center, context = _skipgram_pairs(lo, hi)
    n_centers, n_pairs = len(tokens), len(center)
    epoch_loss = []
    for epoch in range(cfg.epochs):
        loss_sum = 0.0
        for a in range(0, n_pairs, PAIR_BATCH):
            c_pos = center[a:a + PAIR_BATCH]
            c_in, c_out = tokens[c_pos], tokens[context[a:a + PAIR_BATCH]]
            negs = table.sample(rng, SHARED_NEGATIVES)
            lr = _learning_rate(cfg, epoch, c_pos, n_centers)
            loss, grad_h = _output_step(vout, vin[c_in], c_out, negs, lr, cfg.negative)
            loss_sum += loss
            _scatter_add(vin, c_in, -grad_h)
        epoch_loss.append(loss_sum / max(1, n_pairs * (1 + cfg.negative)))
    vectors = dict(zip(vocab.tolist(), vin))
    meta = {"config": cfg, "direction": corpus.direction, "vocab_size": V,
            "epoch_loss": epoch_loss, "pair_count": n_pairs}
    return EmbeddingMatrix(vectors, meta)


def pv_train(corpus: Corpus, cfg: EmbedConfig) -> EmbeddingMatrix:
    """Distributed-memory paragraph vectors; returns document vectors.

    Each token is predicted from the average of its document vector and the
    input vectors of context words within the window (clipped at document
    boundaries). Documents with no in-vocabulary tokens are absent from the
    result and flagged in metadata. Trains on minibatches of CENTER_BATCH
    consecutive positions, which may span documents, sharing
    SHARED_NEGATIVES negatives; the updates of a batch all use the vectors
    as they were at its start.
    """
    vocab, counts, tokens, doc, lo, hi = _positions(corpus, cfg.min_count, cfg.window)
    V = len(vocab)
    D = len(corpus.doc_ids)
    rng = np.random.default_rng(cfg.seed)
    table = NegativeTable(counts)
    win = (rng.random((V, cfg.dim)) - 0.5) / cfg.dim
    dvec = (rng.random((D, cfg.dim)) - 0.5) / cfg.dim
    wout = np.zeros((V, cfg.dim))

    n_centers = len(tokens)
    epoch_loss = []
    for epoch in range(cfg.epochs):
        loss_sum = 0.0
        for a in range(0, n_centers, CENTER_BATCH):
            b = min(a + CENTER_BATCH, n_centers)
            # Every window of the batch lies in [a0, b0); local positions
            # below are offsets into it.
            a0, b0 = lo[a], hi[b - 1]
            own, c_lo, c_hi = np.arange(a - a0, b - a0), lo[a:b] - a0, hi[a:b] - a0
            span = tokens[a0:b0]
            n_in = (c_hi - c_lo)[:, None]  # the context words and the document
            h = (dvec[doc[a:b]] + _window_sums(win[span], c_lo, c_hi, own)) / n_in
            negs = table.sample(rng, SHARED_NEGATIVES)
            lr = _learning_rate(cfg, epoch, np.arange(a, b), n_centers)
            loss, grad_h = _output_step(wout, h, tokens[a:b], negs, lr, cfg.negative)
            loss_sum += loss
            grad_h /= n_in
            _scatter_add(dvec, doc[a:b], -grad_h)
            _scatter_add(win, span, -_window_grads(grad_h, c_lo, c_hi, own, b0 - a0))
        epoch_loss.append(loss_sum / max(1, n_centers * (1 + cfg.negative)))
    empty = np.bincount(doc, minlength=D) == 0
    vectors = dict(zip(corpus.doc_ids[~empty].tolist(), dvec[~empty]))
    meta = {"config": cfg, "direction": corpus.direction, "vocab_size": V,
            "epoch_loss": epoch_loss, "empty_documents": corpus.doc_ids[empty].tolist()}
    return EmbeddingMatrix(vectors, meta)


def load_pretrained_vectors(path) -> EmbeddingMatrix:
    """Parse a text vector file of one or more `token v1 v2 ... vd` lines, single
    spaces. A malformed or non-finite component, or an empty or repeated
    token, is a ValueError naming file and line."""
    dim = None

    def row(parts):
        nonlocal dim
        if not parts[0]:
            raise ValueError("empty token")
        try:
            vec = np.array([float(x) for x in parts[1:]])
        except ValueError:
            raise ValueError("non-numeric vector component") from None
        if not np.isfinite(vec).all():
            raise ValueError(f"{parts[0]}: non-finite vector component")
        dim = len(vec) if dim is None else dim
        if dim == 0:
            raise ValueError("no vector components")
        if len(vec) != dim:
            raise ValueError(f"expected {dim} components, got {len(vec)}")
        return parts[0], vec

    vectors = read_keyed_vectors(path, row, sep=" ")
    if not vectors:
        raise ValueError(f"{path}: no vectors")
    return EmbeddingMatrix(vectors, {"source": str(path)})


def name_embedding(name: str, labeling_words: set[str],
                   pretrained: EmbeddingMatrix) -> tuple[np.ndarray, bool]:
    """Elementwise max over pretrained vectors of non-labeling name tokens.

    Labeling words (seed + bootstrapped, uppercased) are removed first;
    remaining tokens are lowercase-matched. Returns (vector, matched flag);
    no matches yield a zero vector.
    """
    dim = pretrained.dim
    tokens = [t for t in tokenize_name(name) if t not in labeling_words]
    matched = [pretrained.vectors[t.lower()] for t in tokens
               if t.lower() in pretrained.vectors]
    if not matched:
        return np.zeros(dim), False
    return np.max(np.stack(matched), axis=0), True
