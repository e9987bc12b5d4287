import itertools
import re
from collections import Counter

import numpy as np
import pytest
from conftest import (VECTOR_LINE_EDITS, count_skipgram_pairs, edit_vector_file, make_corpus,
                      read_both_ways, same_vectors)
from hypothesis import given, settings
from hypothesis import strategies as st

from cuisine_infer import embed
from cuisine_infer.embed import (
    Corpus,
    EmbedConfig,
    EmbeddingMatrix,
    NegativeTable,
    build_customer_corpus,
    build_restaurant_corpus,
    load_pretrained_vectors,
    name_embedding,
    pv_train,
    sgns_train,
)
from cuisine_infer.synthgen import SynthConfig, generate, write_pretrained_vectors
from cuisine_infer.txn_core import Transactions, build_index


def _cos(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def _two_community_corpus(direction="customer-docs", docs_per=40, doc_len=12):
    """Customers visit only restaurants within their community."""
    rng = np.random.default_rng(0)
    docs = []
    for side, words in (("a", [f"RA{i}" for i in range(6)]),
                        ("b", [f"RB{i}" for i in range(6)])):
        for d in range(docs_per):
            toks = list(rng.choice(words, size=doc_len, replace=True))
            docs.append((f"{side}{d}", toks))
    return make_corpus(docs, direction)


def _document(corpus, d):
    """Document d of a corpus, as words."""
    return corpus.words[corpus.tokens[corpus.starts[d]:corpus.starts[d + 1]]].tolist()


# (merchant, cardholder, minute, auth, tip): few distinct values, so that
# rows often tie on some sort keys and words fall under min_count.
_LOG_ROW = st.tuples(st.sampled_from(["R1", "R10", "r2"]), st.sampled_from(["C1", "C10", "c3"]),
                     st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))


class TestCorpus:
    @given(st.lists(_LOG_ROW, min_size=1, max_size=30), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_pruned_corpus_matches_recount(self, log, min_count, window):
        """The pruned corpora against a recount of the rows as strings: sorted
        vocabulary, counts, each document's kept words in chronological
        order, and each position's window within its document."""
        rows = [(m, c, t, a, a + tip) for m, c, t, a, tip in log]
        index = build_index(Transactions.from_rows(
            [(m, "N", "12345", t, c, a, s) for m, c, t, a, s in rows]))
        by_customer = {c: [m for _t, _a, m, _s in sorted(
            (t, a, m, s) for m, c2, t, a, s in rows if c2 == c)] for c in {r[1] for r in rows}}
        by_restaurant = {m: [c for _t, c, _a, _s in sorted(
            (t, c, a, s) for m2, c, t, a, s in rows if m2 == m)] for m in {r[0] for r in rows}}
        for corpus, docs in ((build_customer_corpus(index), by_customer),
                             (build_restaurant_corpus(index), by_restaurant)):
            counts = Counter(w for toks in docs.values() for w in toks)
            vocab = sorted(w for w, n in counts.items() if n >= min_count)
            assert corpus.counts == counts
            assert corpus.doc_ids.tolist() == sorted(docs)
            if not vocab:
                with pytest.raises(ValueError, match="empty vocabulary"):
                    embed._positions(corpus, min_count, window)
                continue
            words, kept_counts, tokens, doc, lo, hi = embed._positions(corpus, min_count, window)
            assert words.tolist() == vocab
            assert kept_counts.tolist() == [counts[w] for w in vocab]
            start = 0
            for d, doc_id in enumerate(sorted(docs)):
                kept = [w for w in docs[doc_id] if counts[w] >= min_count]
                n, at = len(kept), slice(start, start + len(kept))
                assert words[tokens[at]].tolist() == kept
                assert (doc[at] == d).all()
                assert lo[at].tolist() == [start + max(0, i - window) for i in range(n)]
                assert hi[at].tolist() == [start + min(n, i + window + 1) for i in range(n)]
                start += n
            assert start == len(tokens)

    def test_token_conservation(self):
        res = generate(SynthConfig(n_restaurants=40, n_customers=250, days=12, seed=4))
        index = build_index(res.transactions)
        micro = build_customer_corpus(index)
        macro = build_restaurant_corpus(index)
        assert micro.tokens is index.merchants and macro.tokens is index.cardholder
        assert len(micro.tokens) == len(res.transactions)
        assert len(macro.tokens) == len(res.transactions)
        assert micro.direction == "customer-docs"
        assert macro.direction == "restaurant-docs"

    def test_chronological_order(self):
        res = generate(SynthConfig(n_restaurants=20, n_customers=100, days=10, seed=5))
        index = build_index(res.transactions)
        micro = build_customer_corpus(index)
        macro = build_restaurant_corpus(index)
        t = res.transactions
        rows = list(zip(t.minute.tolist(), t.cardholder_id, t.auth_amount.tolist(),
                        t.merchant_id, t.settle_amount.tolist()))
        chid, toks = micro.doc_ids[0], _document(micro, 0)
        visits = sorted((m, a, r, s) for m, c, a, r, s in rows if c == chid)
        assert chid == min(t.cardholder_id)
        assert toks == [r for _m, _a, r, _s in visits]
        rid, toks = macro.doc_ids[0], _document(macro, 0)
        visits = sorted((m, c, a, s) for m, c, a, r, s in rows if r == rid)
        assert rid == min(t.merchant_id)
        assert toks == [c for _m, c, _a, _s in visits]


class TestPairCount:
    def test_closed_form_small(self):
        corpus = make_corpus([("d", list("ABCD"))], "customer-docs")
        # window 1: 2*(n-1) = 6; window 5 (>= n): n*(n-1) = 12
        assert count_skipgram_pairs(corpus, window=1) == 6
        assert count_skipgram_pairs(corpus, window=5) == 12

    def test_training_metadata_matches_count(self):
        corpus = _two_community_corpus(docs_per=5, doc_len=8)
        cfg = EmbedConfig(dim=8, window=3, negative=2, epochs=2, min_count=1, seed=0)
        emb = sgns_train(corpus, cfg)
        assert emb.metadata["pair_count"] == count_skipgram_pairs(corpus, 3, 1)

    def test_window_wider_than_int32(self):
        corpus = _two_community_corpus(docs_per=2, doc_len=5)
        cfg = EmbedConfig(dim=4, window=2**40, negative=2, epochs=1, min_count=1)
        emb = sgns_train(corpus, cfg)
        assert emb.metadata["pair_count"] == count_skipgram_pairs(corpus, 2**40) == 4 * 5 * 4
        assert len(pv_train(corpus, cfg).vectors) == 4


def _random_docs(rng, lengths, vocab=7):
    return [(f"d{i}", rng.integers(0, vocab, n).astype(np.int32))
            for i, n in enumerate(lengths)]


def _flat_positions(docs, window, vocab=7):
    """`embed._positions` of documents of word codes, pruning no word: the
    codes end to end, and each position's window [lo, hi)."""
    corpus = Corpus(np.array([d for d, _ in docs], dtype=object),
                    np.array([f"w{i}" for i in range(vocab)], dtype=object),
                    np.concatenate([ids for _, ids in docs]),
                    np.cumsum([0] + [len(ids) for _, ids in docs]), "customer-docs")
    _, _, tokens, _, lo, hi = embed._positions(corpus, 0, window)
    return tokens, lo, hi


# Lengths 0, 1 and 2 among longer documents; windows below and above them.
DOC_LENGTHS = [5, 1, 0, 2, 9, 1, 2, 13, 3]
WINDOWS = [1, 2, 4, 20]


class TestBatchKernels:
    """The vectorised pieces of the minibatch trainers against loops over
    each center's context `ids[lo:i] + ids[i+1:hi]`."""

    @staticmethod
    def _centers(docs, window):
        """Per center: its position in the documents laid end to end, its
        document's ids, its index i there and its window [lo, hi)."""
        start = 0
        for _, ids in docs:
            n = len(ids)
            for i in range(n):
                yield start + i, ids, i, max(0, i - window), min(n, i + window + 1)
            start += n

    @pytest.mark.parametrize("window", WINDOWS)
    def test_skipgram_pairs_match_loop(self, window):
        docs = _random_docs(np.random.default_rng(window), DOC_LENGTHS)
        tokens, lo, hi = _flat_positions(docs, window)
        center, context = embed._skipgram_pairs(lo, hi)
        expected = [(p, p - i + j) for p, _, i, lo_i, hi_i in self._centers(docs, window)
                    for j in [*range(lo_i, i), *range(i + 1, hi_i)]]
        assert list(zip(center.tolist(), context.tolist())) == expected
        assert center.dtype == context.dtype == np.int32
        assert np.array_equal(tokens, np.concatenate([ids for _, ids in docs]))

    @pytest.mark.parametrize("window", WINDOWS)
    def test_window_sums_and_grads_match_loop(self, window):
        rng = np.random.default_rng(100 + window)
        docs = _random_docs(rng, DOC_LENGTHS)
        tokens, lo, hi = _flat_positions(docs, window)
        # Integer-valued rows keep every sum exact, whatever its order.
        win = rng.integers(-50, 50, (7, 3)).astype(float)
        grad = rng.integers(-50, 50, (len(tokens), 3)).astype(float)
        own = np.arange(len(tokens))
        sums = embed._window_sums(win[tokens], lo, hi, own)
        grads = embed._window_grads(grad, lo, hi, own, len(tokens))
        want_sums = np.zeros_like(sums)
        want_win = np.zeros_like(win)
        for p, ids, i, lo_i, hi_i in self._centers(docs, window):
            ctx = np.concatenate([ids[lo_i:i], ids[i + 1:hi_i]])
            want_sums[p] = win[ctx].sum(axis=0)
            np.add.at(want_win, ctx, grad[p])
        assert np.array_equal(sums, want_sums)
        got_win = np.zeros_like(win)
        embed._scatter_add(got_win, tokens, grads)
        assert np.array_equal(got_win, want_win)

    def test_scatter_add_matches_add_at(self):
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 6, 200)  # every row index repeated many times
        rows = rng.normal(size=(200, 4))
        base = rng.normal(size=(8, 4))
        got, want = base.copy(), base.copy()
        embed._scatter_add(got, idx, rows)
        np.add.at(want, idx, rows)
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        rows = np.round(rows * 64)  # integer-valued: exact in any order
        got, want = np.zeros((8, 4)), np.zeros((8, 4))
        embed._scatter_add(got, idx, rows)
        np.add.at(want, idx, rows)
        assert np.array_equal(got, want)


def test_negative_table_frequency_power():
    table = NegativeTable(np.array([16, 1]))
    expected_aa = 16 ** 0.75 / (16 ** 0.75 + 1)
    assert table.probs[0] == pytest.approx(expected_aa)
    rng = np.random.default_rng(0)
    draws = table.sample(rng, 1_000_000)
    assert np.mean(draws == 0) == pytest.approx(expected_aa, abs=0.01)


class TestSgns:
    def test_two_communities_separate(self):
        corpus = _two_community_corpus()
        cfg = EmbedConfig(dim=16, window=4, negative=5, epochs=8, min_count=1, seed=1)
        emb = sgns_train(corpus, cfg)
        within = _cos(emb.vectors["RA0"], emb.vectors["RA1"])
        across = _cos(emb.vectors["RA0"], emb.vectors["RB0"])
        assert within > across + 0.3

    def test_loss_decreases(self):
        corpus = _two_community_corpus()
        cfg = EmbedConfig(dim=16, window=4, negative=5, epochs=6, min_count=1, seed=1)
        emb = sgns_train(corpus, cfg)
        losses = emb.metadata["epoch_loss"]
        assert losses[-1] < losses[0]

    def test_deterministic(self):
        corpus = _two_community_corpus(docs_per=10)
        cfg = EmbedConfig(dim=8, window=3, negative=3, epochs=2, min_count=1, seed=7)
        e1 = sgns_train(corpus, cfg)
        e2 = sgns_train(corpus, cfg)
        for w in e1.vectors:
            assert np.array_equal(e1.vectors[w], e2.vectors[w])

    def test_min_count_prunes(self):
        corpus = make_corpus([("d", ["AA"] * 5 + ["BB"])], "customer-docs")
        emb = sgns_train(corpus, EmbedConfig(dim=4, window=2, negative=2,
                                             epochs=1, min_count=2, seed=0))
        assert set(emb.vectors) == {"AA"}

    def test_empty_vocab_raises(self):
        corpus = make_corpus([("d", ["AA"])], "customer-docs")
        with pytest.raises(ValueError):
            sgns_train(corpus, EmbedConfig(dim=4, window=2, negative=2, min_count=5))


class TestParagraphVectors:
    def test_two_communities_separate(self):
        corpus = _two_community_corpus("restaurant-docs")
        cfg = EmbedConfig(dim=16, window=2, negative=5, epochs=20, min_count=1,
                          seed=2, learning_rate=0.05)
        emb = pv_train(corpus, cfg)
        a = [emb.vectors[f"a{i}"] for i in range(40)]
        b = [emb.vectors[f"b{i}"] for i in range(40)]
        within = np.mean([_cos(x, y) for x, y in itertools.combinations(a, 2)] +
                         [_cos(x, y) for x, y in itertools.combinations(b, 2)])
        across = np.mean([_cos(x, y) for x in a for y in b])
        assert within > across + 0.15

    def test_empty_document_flagged(self):
        docs = [("full", ["AA", "BB", "AA"]), ("empty", ["ZZ"])]
        corpus = make_corpus(docs, "restaurant-docs")
        emb = pv_train(corpus, EmbedConfig(dim=4, window=2, negative=2,
                                           epochs=1, min_count=2, seed=0))
        assert "empty" not in emb.vectors
        assert emb.metadata["empty_documents"] == ["empty"]

    def test_loss_decreases(self):
        corpus = _two_community_corpus("restaurant-docs")
        cfg = EmbedConfig(dim=16, window=6, negative=5, epochs=6, min_count=1, seed=2)
        emb = pv_train(corpus, cfg)
        losses = emb.metadata["epoch_loss"]
        assert losses[-1] < losses[0]

    def test_deterministic(self):
        corpus = _two_community_corpus("restaurant-docs", docs_per=10)
        cfg = EmbedConfig(dim=8, window=3, negative=3, epochs=2, min_count=1, seed=7)
        e1 = pv_train(corpus, cfg)
        e2 = pv_train(corpus, cfg)
        assert e1.metadata["epoch_loss"] == e2.metadata["epoch_loss"]
        for d in e1.vectors:
            assert np.array_equal(e1.vectors[d], e2.vectors[d])


class TestVectorIO:
    def test_write_load_round_trip(self, tmp_path):
        vecs = {"zeta": np.array([1.0, -0.5]), "alpha": np.array([0.25, 0.125])}
        path = tmp_path / "v.txt"
        EmbeddingMatrix(vecs).write(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("alpha ")  # sorted keys
        back = load_pretrained_vectors(path)
        for k in vecs:
            assert np.allclose(back.vectors[k], vecs[k])

    def test_ragged_row_error_names_line(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("aa 1.0 2.0\nbb 1.0\n")
        with pytest.raises(ValueError, match=":2:"):
            load_pretrained_vectors(p)

    def test_non_numeric_error(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("aa 1.0 oops\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_pretrained_vectors(p)

    def test_generated_pretrained_file_loads(self, tmp_path):
        p = tmp_path / "pre.txt"
        write_pretrained_vectors(p, {"r1": "Golden Dragon", "r2": "Dragon House"},
                                 dim=20, seed=0)
        emb = load_pretrained_vectors(p)
        assert emb.dim == 20
        assert set(emb.vectors) == {"golden", "dragon", "house"}


    @given(st.lists(st.sampled_from([*VECTOR_LINE_EDITS, "duplicate id", "blank line",
                                     "no separator", "none"]), max_size=2),
           st.integers(0, 100), st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_load_equals_the_per_line_reader(self, tmp_path_factory, edits, line_no, n, dim,
                                             seed):
        """load_pretrained_vectors gives the vectors, or the error message,
        of the reader that parses each line on its own: on valid files and
        on files with ragged rows, `2#`, `nan`, `1_0`, stray whitespace,
        empty, repeated or missing tokens."""
        path = tmp_path_factory.mktemp("vectors") / "v.txt"
        rng = np.random.default_rng(seed)
        EmbeddingMatrix({f"w{i}": rng.normal(0, 1, dim) for i in range(n)}).write(path)
        for kind in edits:
            if kind != "none":
                edit_vector_file(path, " ", kind, line_no)
        fast, per_line = read_both_ways(lambda p: load_pretrained_vectors(p).vectors, path)
        assert same_vectors(fast, per_line), (fast, per_line)

    @pytest.mark.parametrize("slow", [False, True], ids=["fast", "per-line"])
    def test_empty_token_error_names_line(self, tmp_path, slow):
        """A line that starts with its space has an empty token: a
        ValueError naming file and line, whether the file is read whole or
        line by line (here because of a `1_0` on the first line)."""
        p = tmp_path / "v.txt"
        p.write_text(f"aa {'1_0' if slow else '1.0'} 2.0\n 0.1 0.2\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:2: empty token")):
            load_pretrained_vectors(p)


class TestNameEmbedding:
    def _pretrained(self):
        return EmbeddingMatrix(
            {"golden": np.array([1.0, -2.0]), "house": np.array([-3.0, 4.0])},
            {"dim": 2})

    def test_max_pool(self):
        vec, matched = name_embedding("Golden House", set(), self._pretrained())
        assert matched
        assert np.array_equal(vec, np.array([1.0, 4.0]))

    def test_commutative(self):
        pre = self._pretrained()
        v1, _ = name_embedding("Golden House", set(), pre)
        v2, _ = name_embedding("House Golden", set(), pre)
        assert np.array_equal(v1, v2)

    def test_labeling_word_removed(self):
        vec, matched = name_embedding("Golden House", {"GOLDEN"}, self._pretrained())
        assert matched
        assert np.array_equal(vec, np.array([-3.0, 4.0]))

    def test_no_match_zero_vector(self):
        vec, matched = name_embedding("Xyzzy Spot", set(), self._pretrained())
        assert not matched
        assert np.array_equal(vec, np.zeros(2))
