"""Biterm topic model over restaurant-name documents.

Learns topics from unordered word co-occurrence pairs pooled corpus-wide,
with label sprinkling for single-word names, stratified biterm sampling
against long-tail vocabularies, and UMass coherence diagnostics.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .txn_core import CuisineClass, write_records
from .weak_label import LabelSet, tokenize_name


def sprinkle_token(cuisine: CuisineClass) -> str:
    return f"#{cuisine.name.upper()}"


def extract_biterms(
    names: dict[str, str],
    sprinkle: LabelSet | None = None,
) -> Counter:
    """Emit all unordered token pairs per name document.

    With sprinkling on, the label token is appended to labeled documents
    before pairing, so single-token labeled names still contribute one
    biterm (pairing the word with its class token).
    """
    biterms: Counter = Counter()
    for rid in sorted(names):
        toks = tokenize_name(names[rid])
        if sprinkle is not None:
            cuisine = sprinkle.get(rid)
            if cuisine is not None:
                toks = toks + [sprinkle_token(cuisine)]
        for i in range(len(toks)):
            for j in range(i + 1, len(toks)):
                a, b = toks[i], toks[j]
                if a > b:
                    a, b = b, a
                biterms[(a, b)] += 1
    return biterms


def stratified_sample_biterms(
    biterms: Counter,
    strata: int,
    cap_ratio: float,
    seed: int,
) -> Counter:
    """Downsample head-heavy biterms.

    Biterms are bucketed into `strata` quantile strata by the corpus
    frequency of their rarer constituent word; each stratum is then
    downsampled without replacement so none exceeds cap_ratio x the
    smallest nonempty stratum.
    """
    if strata < 1:
        raise ValueError("strata must be >= 1")
    if strata == 1 or not biterms:
        return Counter(biterms)
    word_freq: Counter = Counter()
    for (a, b), n in biterms.items():
        word_freq[a] += n
        word_freq[b] += n
    keys = sorted(biterms)
    min_freq = np.array([min(word_freq[a], word_freq[b]) for a, b in keys], dtype=float)
    edges = np.quantile(min_freq, np.linspace(0, 1, strata + 1))
    stratum_of = np.clip(np.searchsorted(edges[1:-1], min_freq, side="right"), 0, strata - 1)
    sizes = []
    for s in range(strata):
        sizes.append(sum(biterms[keys[i]] for i in np.flatnonzero(stratum_of == s)))
    nonempty = [sz for sz in sizes if sz > 0]
    if len(set(nonempty)) <= 1:
        return Counter(biterms)
    cap = int(math.floor(cap_ratio * min(nonempty)))
    rng = np.random.default_rng(seed)
    out: Counter = Counter()
    for s in range(strata):
        idx = np.flatnonzero(stratum_of == s)
        total = sizes[s]
        if total == 0:
            continue
        if total <= cap:
            for i in idx:
                out[keys[i]] = biterms[keys[i]]
            continue
        # sample `cap` biterm instances without replacement across the stratum
        counts = np.array([biterms[keys[i]] for i in idx])
        chosen = rng.choice(np.repeat(np.arange(len(idx)), counts), size=cap, replace=False)
        kept = np.bincount(chosen, minlength=len(idx))
        for pos, i in enumerate(idx):
            if kept[pos] > 0:
                out[keys[i]] = int(kept[pos])
    return out


# Topic-word density. The document-topic density alpha is 50 / k.
BETA = 0.1


@dataclass(frozen=True)
class BtmConfig:
    k: int = 10
    gibbs_iters: int = 200
    top_n: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k: must be >= 1")
        if self.gibbs_iters < 0:
            raise ValueError("gibbs_iters: must be >= 0")
        if self.top_n < 2:
            raise ValueError("top_n: must be >= 2")


@dataclass
class BtmModel:
    vocab: list[str]
    topic_word: np.ndarray    # (k, V), rows sum to 1
    topic_prior: np.ndarray   # (k,), sums to 1
    config: BtmConfig
    metadata: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return self.topic_word.shape[0]

    def top_words(self, topic: int, n: int) -> list[str]:
        probs = self.topic_word[topic]
        order = np.lexsort((np.arange(len(self.vocab)), -probs))
        return [self.vocab[i] for i in order[:n]]


def btm_fit(biterms: Counter, cfg: BtmConfig) -> BtmModel:
    """Collapsed Gibbs sampling over biterm topic assignments.

    P(z=t | b=(wi,wj)) is proportional to
    (n_t + alpha) (n_wi|t + beta) (n_wj|t + beta) / (sum_w n_w|t + V beta)^2.

    The sweep runs on Python float lists: for k topics an update costs one
    k-step loop, where numpy would spend most of it in per-call dispatch on
    length-k arrays. Each sweep draws its B uniforms at once, the same
    stream as B scalar draws.
    """
    if not biterms:
        raise ValueError("btm_fit requires a nonempty biterm multiset")
    vocab = sorted({w for pair in biterms for w in pair})
    w_index = {w: i for i, w in enumerate(vocab)}
    V = len(vocab)
    k = cfg.k
    alpha = 50.0 / k
    beta = BETA
    pairs = []
    for (a, b), n in sorted(biterms.items()):
        pairs.extend([(w_index[a], w_index[b])] * n)
    B = len(pairs)
    rng = np.random.default_rng(cfg.seed)

    # word-major counts: n_w[w][t] is n_w|t
    z = rng.integers(0, k, size=B).tolist()
    n_t = [0.0] * k
    n_w = [[0.0] * k for _ in range(V)]
    for (wi, wj), t in zip(pairs, z):
        n_t[t] += 1
        n_w[wi][t] += 1
        n_w[wj][t] += 1

    v_beta = V * beta
    topics = range(k)
    last = k - 1
    for _ in range(cfg.gibbs_iters):
        for b_idx, u in enumerate(rng.random(B).tolist()):
            wi, wj = pairs[b_idx]
            ci, cj = n_w[wi], n_w[wj]
            t = z[b_idx]
            n_t[t] -= 1
            ci[t] -= 1
            cj[t] -= 1
            acc = 0.0
            cum = []
            for s in topics:
                # each biterm holds two word slots, so sum_w n_w|t = 2 n_t
                tot = 2.0 * n_t[s] + v_beta
                acc += (n_t[s] + alpha) * (ci[s] + beta) * (cj[s] + beta) / (tot * tot)
                cum.append(acc)
            # the first topic whose cumulative weight exceeds u * total
            threshold = u * acc
            t = 0
            while t < last and cum[t] <= threshold:
                t += 1
            z[b_idx] = t
            n_t[t] += 1
            ci[t] += 1
            cj[t] += 1

    n_wt = np.ascontiguousarray(np.array(n_w).T)
    n_t = np.array(n_t)
    topic_word = (n_wt + beta) / (n_wt.sum(axis=1, keepdims=True) + V * beta)
    topic_prior = (n_t + alpha) / (n_t.sum() + k * alpha)
    meta = {"alpha": alpha, "beta": beta, "n_biterms": B, "vocab_size": V}
    return BtmModel(vocab, topic_word, topic_prior, cfg, meta)


def umass_coherence(model: BtmModel, docs: list[list[str]], top_n: int) -> list[float]:
    """Per-topic UMass coherence over the given documents.

    Sum over ordered top-word pairs of log((D(wi,wj)+1) / D(wj)), where D
    counts documents containing the word(s). A top word absent from every
    document is scored with a D floor of 1 and flagged in model metadata.
    """
    if top_n < 2:
        raise ValueError("top_n must be >= 2")
    doc_sets = [set(d) for d in docs]
    missing = []
    scores = []
    for t in range(model.k):
        words = model.top_words(t, top_n)
        score = 0.0
        for i in range(1, len(words)):
            for j in range(i):
                wi, wj = words[i], words[j]
                d_j = sum(1 for s in doc_sets if wj in s)
                d_ij = sum(1 for s in doc_sets if wi in s and wj in s)
                if d_j == 0:
                    missing.append(wj)
                    d_j = 1
                score += math.log((d_ij + 1) / d_j)
        scores.append(score)
    if missing:
        model.metadata["coherence_missing_words"] = sorted(set(missing))
    return scores


def coherence_sweep(
    biterms: Counter,
    docs: list[list[str]],
    k_values=(5, 10, 15, 20, 30, 40, 50),
    base_cfg: BtmConfig = BtmConfig(),
    fitted: dict[int, BtmModel] | None = None,
) -> list[tuple[int, float]]:
    """Fit one model per k and report mean UMass coherence, rows sorted by k.

    `fitted` maps a k to the model already fitted to `biterms` with
    `base_cfg` at that k; the sweep scores it instead of fitting it again.
    """
    fitted = fitted or {}
    rows = []
    for k in sorted(k_values):
        cfg = replace(base_cfg, k=k)
        model = fitted[k] if k in fitted else btm_fit(biterms, cfg)
        scores = umass_coherence(model, docs, cfg.top_n)
        rows.append((k, float(np.mean(scores))))
    return rows


def write_coherence_report(path, rows: list[tuple[int, float]]) -> None:
    write_records(path, ((str(k), f"{score:.6f}") for k, score in rows))


def topic_cuisine_map(model: BtmModel, min_posterior: float = 0.8) -> dict[int, CuisineClass]:
    """Map topics to cuisines via sprinkle-token mass.

    A topic maps to the cuisine whose sprinkle token holds >= min_posterior
    of the topic's total sprinkle-token probability mass.
    """
    tokens = {sprinkle_token(c): c for c in CuisineClass}
    cols = {i: tokens[w] for i, w in enumerate(model.vocab) if w in tokens}
    out = {}
    if not cols:
        return out
    idx = list(cols)
    for t in range(model.k):
        mass = model.topic_word[t, idx]
        total = mass.sum()
        if total <= 0:
            continue
        best = int(np.argmax(mass))
        if mass[best] / total >= min_posterior:
            out[t] = cols[idx[best]]
    return out


def topic_labels(model: BtmModel, mapping: dict[int, CuisineClass],
                 names: dict[str, str], labels: LabelSet) -> int:
    """Add a "topic" label to each unlabeled name whose most probable topic
    (prior x product of its in-vocabulary token probabilities) is a key of
    `mapping`, from `topic_cuisine_map`; returns how many were added."""
    column = {w: i for i, w in enumerate(model.vocab)}
    added = 0
    for rid, name in sorted(names.items()):
        if rid in labels:
            continue
        idx = [column[t] for t in tokenize_name(name) if t in column]
        if not idx:
            continue
        scores = model.topic_prior * np.prod(model.topic_word[:, idx], axis=1)
        top = int(np.argmax(scores))
        if top in mapping:
            labels.add(rid, mapping[top], "topic")
            added += 1
    return added
