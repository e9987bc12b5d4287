"""Interaction and name embeddings.

Micro: skip-gram with negative sampling over customer documents (customer =
document, restaurant = word). Macro: distributed-memory paragraph vectors
over restaurant documents (restaurant = document, customer = word). Name:
max pooling of pretrained vectors over non-labeling name tokens.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .txn_core import RestaurantIndex
from .weak_label import tokenize_name


@dataclass
class Corpus:
    documents: list[tuple[str, list[str]]]
    counts: Counter
    direction: str  # "customer-docs" or "restaurant-docs"

    @property
    def n_tokens(self) -> int:
        return sum(self.counts.values())


def build_customer_corpus(index: RestaurantIndex) -> Corpus:
    """One document per cardholder: restaurant ids in chronological order."""
    docs = []
    counts: Counter = Counter()
    for chid, txns in index.cardholders.items():
        tokens = [t.merchant_id for t in txns]
        docs.append((chid, tokens))
        counts.update(tokens)
    return Corpus(docs, counts, "customer-docs")


def build_restaurant_corpus(index: RestaurantIndex) -> Corpus:
    """One document per restaurant: cardholder ids in chronological order."""
    docs = []
    counts: Counter = Counter()
    for rid, bucket in index.restaurants.items():
        tokens = [t.cardholder_id for t in bucket.txns]
        docs.append((rid, tokens))
        counts.update(tokens)
    return Corpus(docs, counts, "restaurant-docs")


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

    def get(self, key: str) -> np.ndarray | None:
        return self.vectors.get(key)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for key in sorted(self.vectors):
                fh.write(key + " " + " ".join(f"{x:.6f}" for x in self.vectors[key]) + "\n")


class NegativeTable:
    """Draw negatives proportional to unigram frequency ** 0.75."""

    def __init__(self, vocab: list[str], counts: Counter, power: float = 0.75):
        freq = np.array([counts[w] for w in vocab], dtype=float) ** power
        self.probs = freq / freq.sum()
        self.cum = np.cumsum(self.probs)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.searchsorted(self.cum, rng.random(n), side="right")


def _pruned_docs(corpus: Corpus, min_count: int):
    vocab = sorted(w for w, c in corpus.counts.items() if c >= min_count)
    if not vocab:
        raise ValueError(f"{corpus.direction} corpus: empty vocabulary after "
                         f"min_count={min_count} pruning")
    w_index = {w: i for i, w in enumerate(vocab)}
    docs = []
    for doc_id, tokens in corpus.documents:
        ids = [w_index[t] for t in tokens if t in w_index]
        docs.append((doc_id, np.asarray(ids, dtype=np.int64)))
    return vocab, w_index, docs


def count_skipgram_pairs(corpus: Corpus, window: int, min_count: int = 1) -> int:
    """Closed-form (center, context) pair count with window clipping."""
    _, _, docs = _pruned_docs(corpus, min_count)
    total = 0
    for _, ids in docs:
        n = len(ids)
        for i in range(n):
            total += min(i + window, n - 1) - max(i - window, 0)
    return total


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))


def sgns_train(corpus: Corpus, cfg: EmbedConfig) -> EmbeddingMatrix:
    """Skip-gram with negative sampling; returns input vectors per word.

    Deterministic: single-threaded, fixed document order, one seeded RNG.
    Learning rate decays linearly over all center positions.
    """
    vocab, _, docs = _pruned_docs(corpus, cfg.min_count)
    V = len(vocab)
    rng = np.random.default_rng(cfg.seed)
    table = NegativeTable(vocab, corpus.counts)
    vin = (rng.random((V, cfg.dim)) - 0.5) / cfg.dim
    vout = np.zeros((V, cfg.dim))

    total_centers = sum(len(ids) for _, ids in docs) * cfg.epochs
    step = 0
    pair_count = 0
    epoch_loss = []
    for _ in range(cfg.epochs):
        loss_sum = 0.0
        loss_n = 0
        for _, ids in docs:
            n = len(ids)
            for i in range(n):
                lr = max(MIN_LR,
                         cfg.learning_rate * (1 - step / max(1, total_centers)))
                step += 1
                lo, hi = max(0, i - cfg.window), min(n, i + cfg.window + 1)
                ctx = np.concatenate([ids[lo:i], ids[i + 1:hi]])
                if len(ctx) == 0:
                    continue
                pair_count += len(ctx)
                c = ids[i]
                negs = table.sample(rng, cfg.negative * len(ctx))
                targets = np.concatenate([ctx, negs])
                labels = np.zeros(len(targets))
                labels[: len(ctx)] = 1.0
                u = vout[targets]
                s = _sigmoid(u @ vin[c])
                g = s - labels
                loss_sum += float(-np.log(np.where(labels == 1.0, s, 1 - s) + 1e-12).sum())
                loss_n += len(targets)
                grad_v = g @ u
                np.add.at(vout, targets, -lr * g[:, None] * vin[c])
                vin[c] -= lr * grad_v
        epoch_loss.append(loss_sum / max(1, loss_n))
    vectors = {w: vin[i].copy() for i, w in enumerate(vocab)}
    meta = {"config": cfg, "direction": corpus.direction, "vocab_size": V,
            "epoch_loss": epoch_loss, "pair_count": pair_count // cfg.epochs}
    return EmbeddingMatrix(vectors, meta)


def pv_train(corpus: Corpus, cfg: EmbedConfig) -> EmbeddingMatrix:
    """Distributed-memory paragraph vectors; returns document vectors.

    Each token is predicted from the average of its document vector and the
    input vectors of context words within the window (clipped at document
    boundaries). Documents with no in-vocabulary tokens are absent from the
    result and flagged in metadata.
    """
    vocab, _, docs = _pruned_docs(corpus, cfg.min_count)
    V = len(vocab)
    D = len(docs)
    rng = np.random.default_rng(cfg.seed)
    table = NegativeTable(vocab, corpus.counts)
    win = (rng.random((V, cfg.dim)) - 0.5) / cfg.dim
    dvec = (rng.random((D, cfg.dim)) - 0.5) / cfg.dim
    wout = np.zeros((V, cfg.dim))

    total_centers = sum(len(ids) for _, ids in docs) * cfg.epochs
    step = 0
    epoch_loss = []
    for _ in range(cfg.epochs):
        loss_sum = 0.0
        loss_n = 0
        for d_idx, (_, ids) in enumerate(docs):
            n = len(ids)
            for i in range(n):
                lr = max(MIN_LR,
                         cfg.learning_rate * (1 - step / max(1, total_centers)))
                step += 1
                lo, hi = max(0, i - cfg.window), min(n, i + cfg.window + 1)
                ctx = np.concatenate([ids[lo:i], ids[i + 1:hi]])
                target = ids[i]
                n_in = len(ctx) + 1
                h = (dvec[d_idx] + win[ctx].sum(axis=0)) / n_in
                negs = table.sample(rng, cfg.negative)
                targets = np.concatenate([[target], negs])
                labels = np.zeros(len(targets))
                labels[0] = 1.0
                u = wout[targets]
                s = _sigmoid(u @ h)
                g = s - labels
                loss_sum += float(-np.log(np.where(labels == 1.0, s, 1 - s) + 1e-12).sum())
                loss_n += len(targets)
                grad_h = (g @ u) / n_in
                np.add.at(wout, targets, -lr * g[:, None] * h)
                dvec[d_idx] -= lr * grad_h
                if len(ctx):
                    np.add.at(win, ctx, -lr * grad_h)
        epoch_loss.append(loss_sum / max(1, loss_n))
    vectors = {}
    missing = []
    for d_idx, (doc_id, ids) in enumerate(docs):
        if len(ids) == 0:
            missing.append(doc_id)
        else:
            vectors[doc_id] = dvec[d_idx].copy()
    meta = {"config": cfg, "direction": corpus.direction, "vocab_size": V,
            "epoch_loss": epoch_loss, "empty_documents": missing}
    return EmbeddingMatrix(vectors, meta)


def load_pretrained_vectors(path) -> EmbeddingMatrix:
    """Parse a text vector file: `token v1 v2 ... vd`, single spaces."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            token = parts[0]
            try:
                vec = np.array([float(x) for x in parts[1:]])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-numeric vector component")
            if dim is None:
                dim = len(vec)
                if dim == 0:
                    raise ValueError(f"{path}:{line_no}: no vector components")
            elif len(vec) != dim:
                raise ValueError(
                    f"{path}:{line_no}: expected {dim} components, got {len(vec)}")
            vectors[token] = vec
    return EmbeddingMatrix(vectors, {"source": str(path), "dim": dim})


def name_embedding(name: str, labeling_words: set[str],
                   pretrained: EmbeddingMatrix) -> tuple[np.ndarray, bool]:
    """Elementwise max over pretrained vectors of non-labeling name tokens.

    Labeling words (seed + bootstrapped, uppercased) are removed first;
    remaining tokens are lowercase-matched. Returns (vector, matched flag);
    no matches yield a zero vector.
    """
    dim = pretrained.metadata.get("dim") or pretrained.dim
    tokens = [t for t in tokenize_name(name) if t not in labeling_words]
    matched = [pretrained.vectors[t.lower()] for t in tokens
               if t.lower() in pretrained.vectors]
    if not matched:
        return np.zeros(dim), False
    return np.max(np.stack(matched), axis=0), True
