import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuisine_infer import btm, pipeline
from cuisine_infer.btm import (
    BETA,
    BtmConfig,
    BtmModel,
    btm_fit,
    coherence_sweep,
    extract_biterms,
    sprinkle_token,
    stratified_sample_biterms,
    umass_coherence,
)
from cuisine_infer.txn_core import CuisineClass
from cuisine_infer.weak_label import LabelSet


class TestExtractBiterms:
    def test_all_pairs(self):
        out = extract_biterms({"r": "ALPHA BRAVO CHARLIE"})
        assert out == Counter({("ALPHA", "BRAVO"): 1, ("ALPHA", "CHARLIE"): 1,
                               ("BRAVO", "CHARLIE"): 1})

    def test_single_token_with_sprinkle(self):
        labels = LabelSet()
        labels.add("r", CuisineClass.EastAsian, "seed")
        out = extract_biterms({"r": "PEKING"}, sprinkle=labels)
        assert out == Counter({("#EASTASIAN", "PEKING"): 1})
        assert sprinkle_token(CuisineClass.Bar) == "#BAR"

    def test_empty(self):
        assert extract_biterms({"r": ""}) == Counter()

    def test_single_token_unlabeled_emits_nothing(self):
        assert extract_biterms({"r": "PEKING"}) == Counter()


class TestStratifiedSampling:
    def test_single_stratum_is_noop(self):
        biterms = Counter({("AA", "BB"): 5, ("CC", "DD"): 2})
        assert stratified_sample_biterms(biterms, 1, 2.0, 0) == biterms

    def test_uniform_corpus_is_noop(self):
        biterms = Counter({(f"W{i}", f"W{i + 100}"): 3 for i in range(20)})
        assert stratified_sample_biterms(biterms, 4, 2.0, 0) == biterms

    def test_zipfian_head_capped(self):
        rng = np.random.default_rng(0)
        biterms: Counter = Counter()
        # Zipf-ish word frequencies: word i appears ~ 1/i
        for i in range(1, 40):
            biterms[(f"W{i:03d}", f"X{i:03d}")] = max(1, int(200 / i))
        out = stratified_sample_biterms(biterms, 4, 2.0, seed=1)
        # recount strata after sampling, same bucketing rule
        word_freq: Counter = Counter()
        for (a, b), n in biterms.items():
            word_freq[a] += n
            word_freq[b] += n
        keys = sorted(biterms)
        min_freq = np.array([min(word_freq[a], word_freq[b]) for a, b in keys], float)
        edges = np.quantile(min_freq, np.linspace(0, 1, 5))
        stratum = np.clip(np.searchsorted(edges[1:-1], min_freq, side="right"), 0, 3)
        sizes = [sum(out[keys[i]] for i in np.flatnonzero(stratum == s)) for s in range(4)]
        nonzero = [s for s in sizes if s > 0]
        assert max(nonzero) <= 2 * min(nonzero)
        for key in out:
            assert out[key] <= biterms[key]


def _two_cluster_biterms():
    a_words = [f"A{i}" for i in range(6)]
    b_words = [f"B{i}" for i in range(6)]
    biterms: Counter = Counter()
    for words in (a_words, b_words):
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                biterms[(words[i], words[j])] = 4
    return a_words, b_words, biterms


def _reference_btm_fit(biterms: Counter, cfg: BtmConfig) -> BtmModel:
    """The sampler on numpy arrays, one scalar uniform per update: the
    oracle btm_fit must equal bit for bit."""
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

    z = rng.integers(0, k, size=B)
    n_t = np.bincount(z, minlength=k).astype(float)
    n_wt = np.zeros((k, V))
    for (wi, wj), t in zip(pairs, z):
        n_wt[t, wi] += 1
        n_wt[t, wj] += 1

    for _ in range(cfg.gibbs_iters):
        for b_idx in range(B):
            wi, wj = pairs[b_idx]
            t_old = z[b_idx]
            n_t[t_old] -= 1
            n_wt[t_old, wi] -= 1
            n_wt[t_old, wj] -= 1
            totals = 2.0 * n_t + V * beta
            p = (n_t + alpha) * (n_wt[:, wi] + beta) * (n_wt[:, wj] + beta) / totals**2
            cum = np.cumsum(p)
            t_new = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            t_new = min(t_new, k - 1)
            z[b_idx] = t_new
            n_t[t_new] += 1
            n_wt[t_new, wi] += 1
            n_wt[t_new, wj] += 1

    topic_word = (n_wt + beta) / (n_wt.sum(axis=1, keepdims=True) + V * beta)
    topic_prior = (n_t + alpha) / (n_t.sum() + k * alpha)
    meta = {"alpha": alpha, "beta": beta, "n_biterms": B, "vocab_size": V}
    return BtmModel(vocab, topic_word, topic_prior, cfg, meta)


_WORDS = ["AA", "BB", "CC", "DD", "EE", "#BAR"]
# (w, w) pairs included: a name can repeat a token
_BITERM = st.tuples(st.sampled_from(_WORDS), st.sampled_from(_WORDS)).map(
    lambda pair: tuple(sorted(pair)))


# The smoke scale at which label.topic_augment once added topic labels.
_SMOKE_LABEL = {"seed": 1, "synth.n_restaurants": 150, "synth.n_customers": 750,
                "synth.days": 14, "label.btm.k": 5}


class TestBtmFitOracle:
    @given(st.dictionaries(_BITERM, st.integers(1, 4), min_size=1, max_size=12),
           st.integers(1, 7), st.integers(0, 5), st.integers(0, 2**32))
    @settings(max_examples=120, deadline=None)
    @example({("AA", "AA"): 2, ("AA", "BB"): 1}, 1, 0, 0)
    @example({("AA", "AA"): 3, ("BB", "CC"): 1}, 1, 4, 5)
    @example({("AA", "AA"): 1}, 3, 5, 7)
    def test_equals_numpy_sampler(self, counts, k, gibbs_iters, seed):
        biterms = Counter(counts)
        cfg = BtmConfig(k=k, gibbs_iters=gibbs_iters, seed=seed)
        model, ref = btm_fit(biterms, cfg), _reference_btm_fit(biterms, cfg)
        assert np.array_equal(model.topic_word, ref.topic_word)
        assert np.array_equal(model.topic_prior, ref.topic_prior)
        assert model.vocab == ref.vocab
        assert model.metadata == ref.metadata

    def test_label_stage_writes_the_oracle_coherence(self, tmp_path, monkeypatch):
        """A smoke-scale `label` run with the coherence sweep writes the
        coherence.tsv of the numpy sampler."""
        cfg = pipeline.load_config(None, {**_SMOKE_LABEL, "out_dir": str(tmp_path),
                                          "label.coherence_sweep": True})
        pipeline.run_synth(cfg)
        pipeline.run_label(cfg)
        path = tmp_path / "coherence.tsv"
        written = path.read_bytes()
        monkeypatch.setattr(btm, "btm_fit", _reference_btm_fit)
        pipeline.run_label(cfg)
        assert path.read_bytes() == written
        assert [line.split("\t")[0] for line in written.decode().splitlines()] == [
            "5", "10", "15", "20", "30", "40", "50"]


def test_topic_augment_adds_no_labels(tmp_path):
    """label.topic_augment is accepted and changes nothing: the label stage
    writes the labels and bootstrap report of a run without it, no label
    has the source "topic", and the manifest records no topic model."""
    cfg = pipeline.load_config(None, {**_SMOKE_LABEL, "out_dir": str(tmp_path),
                                      "label.topic_augment": True})
    pipeline.run_synth(cfg)
    written = {}
    for augment in (False, True):
        pipeline.run_label({**cfg, "label": {**cfg["label"], "topic_augment": augment}})
        written[augment] = {name: (tmp_path / name).read_bytes()
                            for name in ("labels.tsv", "bootstrap_report.tsv")}
    assert written[True] == written[False]
    sources = {line.split("\t")[2] for line in written[True]["labels.tsv"].decode().splitlines()}
    assert sources == {"seed", "bootstrap"}
    keys = [line.split("\t")[0]
            for line in (tmp_path / "manifest_label.txt").read_text().splitlines()]
    assert "n_topic" not in keys and not [key for key in keys if key.startswith("btm_")]


class TestBtmFit:
    def test_two_clusters_separate(self):
        a_words, b_words, biterms = _two_cluster_biterms()
        model = btm_fit(biterms, BtmConfig(k=2, gibbs_iters=100, seed=3))
        tops = [set(model.top_words(t, 5)) for t in range(2)]
        assert any(t <= set(a_words) for t in tops)
        assert any(t <= set(b_words) for t in tops)

    def test_k1_degenerate_matches_unigram(self):
        biterms = Counter({("AA", "BB"): 3, ("AA", "CC"): 1})
        model = btm_fit(biterms, BtmConfig(k=1, gibbs_iters=5, seed=0))
        # smoothed unigram-in-biterm distribution
        counts = {"AA": 4, "BB": 3, "CC": 1}
        beta = model.metadata["beta"]
        total = sum(counts.values()) + 3 * beta
        for i, w in enumerate(model.vocab):
            assert model.topic_word[0, i] == pytest.approx((counts[w] + beta) / total)

    def test_alpha_default_recorded(self):
        _, _, biterms = _two_cluster_biterms()
        model = btm_fit(biterms, BtmConfig(k=10, gibbs_iters=2, seed=0))
        assert model.metadata["alpha"] == pytest.approx(5.0)

    def test_rows_are_distributions(self):
        _, _, biterms = _two_cluster_biterms()
        model = btm_fit(biterms, BtmConfig(k=4, gibbs_iters=20, seed=1))
        assert np.allclose(model.topic_word.sum(axis=1), 1.0, atol=1e-9)
        assert model.topic_prior.sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            btm_fit(Counter(), BtmConfig())

    def test_deterministic(self):
        _, _, biterms = _two_cluster_biterms()
        m1 = btm_fit(biterms, BtmConfig(k=3, gibbs_iters=30, seed=9))
        m2 = btm_fit(biterms, BtmConfig(k=3, gibbs_iters=30, seed=9))
        assert np.array_equal(m1.topic_word, m2.topic_word)


class TestUmass:
    def test_always_cooccurring_positive(self):
        # both words in all d docs: each pair term = log((d+1)/d) > 0
        docs = [["AA", "BB"]] * 4
        _, _, biterms = _two_cluster_biterms()
        model = btm_fit(Counter({("AA", "BB"): 5}), BtmConfig(k=1, gibbs_iters=5))
        scores = umass_coherence(model, docs, top_n=2)
        assert scores[0] == pytest.approx(math.log(5 / 4))

    def test_never_cooccurring_nonpositive(self):
        docs = [["AA"], ["BB"]]
        model = btm_fit(Counter({("AA", "BB"): 5}), BtmConfig(k=1, gibbs_iters=5))
        scores = umass_coherence(model, docs, top_n=2)
        assert scores[0] == pytest.approx(math.log(1 / 1))

    def test_three_doc_hand_computed(self):
        # docs: {P,Q,R}, {P,Q}, {Q,R}
        docs = [["PP", "QQ", "RR"], ["PP", "QQ"], ["QQ", "RR"]]
        biterms = Counter({("PP", "QQ"): 4, ("QQ", "RR"): 2, ("PP", "RR"): 1})
        model = btm_fit(biterms, BtmConfig(k=1, gibbs_iters=5, seed=0))
        words = model.top_words(0, 3)
        assert words[0] == "QQ"  # QQ most frequent
        # brute-force D counts: D(PP)=2, D(QQ)=3, D(RR)=2
        # D(PP,QQ)=2, D(QQ,RR)=2, D(PP,RR)=1
        d = {"PP": 2, "QQ": 3, "RR": 2}
        dpair = {frozenset(("PP", "QQ")): 2, frozenset(("QQ", "RR")): 2,
                 frozenset(("PP", "RR")): 1}
        expected = 0.0
        for i in range(1, 3):
            for j in range(i):
                wi, wj = words[i], words[j]
                expected += math.log((dpair[frozenset((wi, wj))] + 1) / d[wj])
        scores = umass_coherence(model, docs, top_n=3)
        assert scores[0] == pytest.approx(expected)

    def test_missing_word_floored_and_reported(self):
        model = btm_fit(Counter({("AA", "BB"): 2}), BtmConfig(k=1, gibbs_iters=5))
        docs = [["CC"]]
        scores = umass_coherence(model, docs, top_n=2)
        assert math.isfinite(scores[0])
        assert "coherence_missing_words" in model.metadata

    def test_top_n_validation(self):
        model = btm_fit(Counter({("AA", "BB"): 2}), BtmConfig(k=1, gibbs_iters=5))
        with pytest.raises(ValueError):
            umass_coherence(model, [], top_n=1)


def _clustered_corpus(n_clusters=10, words_per=6, docs_per=30):
    docs = []
    rng = np.random.default_rng(5)
    for c in range(n_clusters):
        words = [f"C{c}W{i}" for i in range(words_per)]
        for _ in range(docs_per):
            k = int(rng.integers(2, 4))
            docs.append(list(rng.choice(words, size=k, replace=False)))
    biterms: Counter = Counter()
    for d in docs:
        toks = sorted(d)
        for i in range(len(toks)):
            for j in range(i + 1, len(toks)):
                biterms[(toks[i], toks[j])] += 1
    return docs, biterms


class TestCoherenceSweep:
    def test_single_k_one_row(self):
        docs, biterms = _clustered_corpus(n_clusters=3, docs_per=10)
        rows = coherence_sweep(biterms, docs, k_values=[4],
                               base_cfg=BtmConfig(gibbs_iters=20, seed=0))
        assert len(rows) == 1 and rows[0][0] == 4

    def test_rows_sorted_by_k(self):
        docs, biterms = _clustered_corpus(n_clusters=3, docs_per=10)
        rows = coherence_sweep(biterms, docs, k_values=[8, 2, 5],
                               base_cfg=BtmConfig(gibbs_iters=15, seed=0))
        assert [r[0] for r in rows] == [2, 5, 8]

    def test_separable_corpus_peak_near_truth(self):
        docs, biterms = _clustered_corpus(n_clusters=10)
        rows = coherence_sweep(biterms, docs,
                               base_cfg=BtmConfig(gibbs_iters=60, seed=2))
        best_k = max(rows, key=lambda r: r[1])[0]
        assert best_k in (10, 15)

