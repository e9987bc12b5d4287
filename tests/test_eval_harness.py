import numpy as np
import pytest

from cuisine_infer.eval_harness import (
    CUISINE_SUMMARY_COLUMNS,
    ablation,
    cuisine_summary,
    evaluate,
    party_l1,
    stratified_split,
    write_ablation_tsv,
    write_cuisine_summary_tsv,
)
from cuisine_infer.nnet import FeatureDataset, NetworkSpec, TrainConfig
from cuisine_infer.stat_features import BLOCKS, STAT_DIM, extract_all, read_features, write_features
from cuisine_infer.synthgen import SynthConfig, generate, read_party_sizes
from cuisine_infer.txn_core import CuisineClass, build_index


class TestStratifiedSplit:
    def test_exact_80_20_balanced(self):
        labels = np.repeat(np.arange(4), 25)   # 25 per class
        tr, te = stratified_split(labels, 0.8, seed=0)
        assert len(tr) == 80 and len(te) == 20
        for cls in range(4):
            assert (labels[tr] == cls).sum() == 20
            assert (labels[te] == cls).sum() == 5

    def test_disjoint_union(self):
        labels = np.random.default_rng(1).integers(0, 5, 83)
        tr, te = stratified_split(labels, 0.8, seed=3)
        assert len(set(tr) & set(te)) == 0
        assert sorted(np.concatenate([tr, te])) == list(range(83))

    def test_both_sides_nonempty_per_class(self):
        labels = np.array([0, 0, 1, 1, 1])
        tr, te = stratified_split(labels, 0.9, seed=0)
        for cls in (0, 1):
            assert (labels[tr] == cls).any() and (labels[te] == cls).any()

    def test_singleton_class_rejected(self):
        with pytest.raises(ValueError):
            stratified_split(np.array([0, 1, 1]), 0.8, seed=0)

    def test_deterministic(self):
        labels = np.random.default_rng(2).integers(0, 6, 120)
        assert np.array_equal(stratified_split(labels, 0.8, 5)[0],
                              stratified_split(labels, 0.8, 5)[0])


class TestMetrics:
    def test_perfect_predictions(self):
        truth = np.arange(10)
        probs = np.eye(10)
        rep = evaluate(probs, truth)
        assert rep.accuracy == 1.0
        assert rep.balanced_accuracy == 1.0
        assert np.array_equal(rep.confusion, np.eye(10))
        assert rep.topk_accuracy == {1: 1.0, 2: 1.0, 3: 1.0}

    def test_topk_monotone(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(10), size=200)
        truth = rng.integers(0, 10, 200)
        rep = evaluate(probs, truth)
        assert rep.topk_accuracy[1] <= rep.topk_accuracy[2] <= rep.topk_accuracy[3]

    def test_hand_computed_confusion(self):
        # 3 of class 0 (two right, one predicted 1); 1 of class 1 (right)
        probs = np.zeros((4, 10))
        probs[0, 0] = probs[1, 0] = 1.0
        probs[2, 1] = 1.0
        probs[3, 1] = 1.0
        truth = np.array([0, 0, 0, 1])
        rep = evaluate(probs, truth)
        assert rep.accuracy == pytest.approx(0.75)
        assert rep.confusion[0, 0] == pytest.approx(2 / 3)
        assert rep.confusion[0, 1] == pytest.approx(1 / 3)
        assert rep.confusion[1, 1] == pytest.approx(1.0)
        assert rep.balanced_accuracy == pytest.approx((2 / 3 + 1.0) / 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(np.eye(10), np.arange(9))

    def test_report_files(self, tmp_path):
        rep = evaluate(np.eye(10), np.arange(10))
        rep.write_tsv(tmp_path / "m.tsv")
        rep.write_confusion_tsv(tmp_path / "c.tsv")
        lines = (tmp_path / "m.tsv").read_text().splitlines()
        assert lines[0] == "accuracy\t1.0"
        assert len((tmp_path / "c.tsv").read_text().splitlines()) == 11
        assert "accuracy" in rep.render()


def _toy_dataset(n=80, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, n)
    # alpha is informative, noise is not
    fa = rng.normal(0, 0.1, (n, 4))
    fa[:, 0] += labels
    fn = rng.normal(size=(n, 3))
    return FeatureDataset([f"r{i}" for i in range(n)],
                          {"alpha": fa, "noise": fn}, labels)


class TestAblation:
    def test_rows_and_baseline(self, tmp_path):
        ds = _toy_dataset()
        tr_idx, te_idx = stratified_split(ds.labels, 0.8, seed=0)
        spec = NetworkSpec(branches=ds.spec_branches(), branch_hidden=8,
                           trunk_hidden=(16, 8), n_classes=3)
        cfg = TrainConfig(epochs=40, batch_size=16, learning_rate=0.1, seed=0)
        rows = ablation(ds.subset(tr_idx), ds.subset(te_idx), spec, cfg)
        assert len(rows) == 3
        assert rows[0][0] == "none" and rows[0][2] == 0.0
        names = [r[0] for r in rows[1:]]
        assert names == ["alpha", "noise"]
        by_name = {r[0]: r for r in rows}
        # deltas are consistent
        for name in names:
            assert by_name[name][2] == pytest.approx(by_name[name][1] - rows[0][1])
        # removing the informative block hurts more than removing noise
        assert by_name["alpha"][1] < by_name["noise"][1]
        write_ablation_tsv(tmp_path / "a.tsv", rows)
        assert len((tmp_path / "a.tsv").read_text().splitlines()) == 4


@pytest.fixture(scope="module")
def summary_rows():
    res = generate(SynthConfig(n_restaurants=200, n_customers=1500,
                               days=30, seed=17))
    index = build_index(res.transactions)
    table, _ = extract_all(index, seed=0)
    feats = dict(zip(index.restaurant_ids.tolist(), table))
    labels = {rid: c for rid, (c, _) in res.truth.items() if rid in feats}
    return cuisine_summary(labels, feats)


class TestCuisineSummary:
    def test_one_row_per_cuisine(self, summary_rows):
        assert [r["cuisine"] for r in summary_rows] == [c.name for c in CuisineClass]

    def test_known_directions(self, summary_rows):
        by = {r["cuisine"]: r for r in summary_rows}
        assert by["European"]["median_price"] > by["Dessert"]["median_price"]
        assert by["Dessert"]["median_tip"] == pytest.approx(0.0, abs=1.0)
        assert by["European"]["median_tip"] > by["Fastfood"]["median_tip"]

    def test_percent_ranges(self, summary_rows):
        for row in summary_rows:
            if row.get("empty"):
                continue
            assert 0 <= row["pct_single_diner"] <= 100
            assert 0 <= row["pct_weekend"] <= 100

    def test_tsv_format(self, summary_rows, tmp_path):
        p = tmp_path / "s.tsv"
        write_cuisine_summary_tsv(p, summary_rows)
        lines = p.read_text().splitlines()
        assert lines[0].split("\t") == CUISINE_SUMMARY_COLUMNS
        assert len(lines) == 11

    def test_reads_the_block_columns(self):
        """Each figure from its columns of the 162-value row: price deciles
        0-8, tip 9-17, capacity 18-26, revisits 27-35, loyalty 36-44, day of
        week 45-51, party shares 100-105 and party prices 106-111."""
        rng = np.random.default_rng(3)
        rows = {f"R{i}": rng.uniform(0, 1, 162) for i in range(5)}
        labels = {"R0": CuisineClass(0), "R1": CuisineClass(0), "R2": CuisineClass(0),
                  "R3": CuisineClass(1), "missing": CuisineClass(1)}
        got = {r["cuisine"]: r for r in cuisine_summary(labels, rows)}
        group = [rows[rid] for rid in ("R0", "R1", "R2")]
        want = {
            "median_price": np.median([v[4] for v in group]),
            "median_tip": np.median([v[13] for v in group]),
            "mean_capacity": np.mean([v[22] for v in group]),
            "p90_revisits": np.median([v[35] for v in group]),
            "median_loyalty": np.median([v[40] for v in group]),
            "mean_expense_per_person": np.mean([v[100:106] @ v[106:112] for v in group]),
            "pct_single_diner": 100 * np.mean([v[100] for v in group]),
            "pct_weekend": 100 * np.mean([v[50] + v[51] for v in group]),
        }
        row = got[CuisineClass(0).name]
        for key, value in want.items():
            assert row[key] == pytest.approx(value, rel=1e-12), key
        assert got[CuisineClass(1).name]["median_price"] == rows["R3"][4]
        assert all(got[c.name]["empty"] for c in CuisineClass if c > 1)

    def test_empty_cuisine_flagged(self, tmp_path):
        rows = cuisine_summary({}, {})
        assert all(r["empty"] for r in rows)
        p = tmp_path / "e.tsv"
        write_cuisine_summary_tsv(p, rows)
        assert "NA" in p.read_text()


class TestPartyL1:
    def test_hand_built_files(self, tmp_path):
        """Three restaurants with true party-size counts, two with features:
        the mean L1 over the two, each summed over the six slots."""
        table = np.zeros((3, STAT_DIM))
        table[0, BLOCKS["party_prop"]] = [0.5, 0.5, 0, 0, 0, 0]
        table[1, BLOCKS["party_prop"]] = [1, 0, 0, 0, 0, 0]
        table[2, BLOCKS["party_prop"]] = [0, 0, 0, 0, 0, 1]
        write_features(tmp_path / "features.tsv", ["A", "B", "D"], table)
        (tmp_path / "party.tsv").write_text(
            "A\t1\t1\nA\t2\t3\nB\t1\t2\nB\t6\t2\nC\t3\t5\n")
        props = {rid: row[BLOCKS["party_prop"]]
                 for rid, row in read_features(tmp_path / "features.tsv").items()}
        # A: |0.5 - 0.25| + |0.5 - 0.75| = 0.5; B: |1 - 0.5| + |0 - 0.5| = 1.0
        assert party_l1(props, read_party_sizes(tmp_path / "party.tsv")) == 0.75

    def test_no_common_restaurant(self):
        assert party_l1({"A": np.ones(6) / 6}, {"B": {1: 3}}) is None
