"""Evaluation protocol: the stratified train/test split, accuracy/top-k
metrics, normalized confusion matrix, leave-one-block-out ablation, and the
per-cuisine summary report."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .txn_core import N_CLASSES, CuisineClass
from . import nnet
from .stat_features import BLOCKS
from .nnet import FeatureDataset, NetworkSpec, TrainConfig, topk_from_probs


def stratified_split(labels: np.ndarray, train_frac: float = 0.8, seed: int = 0):
    """Per-class proportional split; returns (train indices, test indices).

    Deterministic function of (labels, seed): samples are shuffled within
    class by seeded RNG after sorting indices, so input order is irrelevant
    for a fixed labels array.
    """
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < 2:
            raise ValueError(f"class {cls} has fewer than 2 samples")
        perm = idx[rng.permutation(len(idx))]
        n_train = int(round(train_frac * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1)
        train_idx.extend(perm[:n_train])
        test_idx.extend(perm[n_train:])
    return np.sort(np.array(train_idx)), np.sort(np.array(test_idx))


@dataclass
class MetricsReport:
    accuracy: float
    balanced_accuracy: float
    topk_accuracy: dict[int, float]          # k in {1, 2, 3}
    per_class_accuracy: np.ndarray           # (10,) recall per class
    confusion: np.ndarray                    # (10, 10) row-normalized
    class_counts: np.ndarray                 # (10,) truth counts

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"accuracy\t{self.accuracy!r}\n")
            fh.write(f"balanced_accuracy\t{self.balanced_accuracy!r}\n")
            for k in sorted(self.topk_accuracy):
                fh.write(f"top{k}_accuracy\t{self.topk_accuracy[k]!r}\n")
            for c in CuisineClass:
                fh.write(f"class_accuracy\t{c.name}\t{float(self.per_class_accuracy[c])!r}"
                         f"\t{int(self.class_counts[c])}\n")

    def write_confusion_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("truth\\pred\t" + "\t".join(c.name for c in CuisineClass) + "\n")
            for c in CuisineClass:
                row = "\t".join(f"{x:.6f}" for x in self.confusion[c])
                fh.write(f"{c.name}\t{row}\n")

    def render(self) -> str:
        lines = [f"accuracy           {self.accuracy:.4f}",
                 f"balanced accuracy  {self.balanced_accuracy:.4f}"]
        for k in sorted(self.topk_accuracy):
            lines.append(f"top-{k} accuracy     {self.topk_accuracy[k]:.4f}")
        lines.append("per-class recall:")
        for c in CuisineClass:
            lines.append(f"  {c.name:<15} {self.per_class_accuracy[c]:.4f}"
                         f"  (n={int(self.class_counts[c])})")
        return "\n".join(lines)


def evaluate(probs: np.ndarray, truth: np.ndarray,
             n_classes: int = N_CLASSES) -> MetricsReport:
    """Metrics from predicted class probabilities and true class codes."""
    truth = np.asarray(truth)
    if probs.shape[0] != len(truth):
        raise ValueError("prediction/truth length mismatch")
    top3 = topk_from_probs(probs, min(3, n_classes))
    topk_acc = {}
    for k in range(1, top3.shape[1] + 1):
        hit = (top3[:, :k] == truth[:, None]).any(axis=1)
        topk_acc[k] = float(hit.mean())
    pred = top3[:, 0]
    counts = np.bincount(truth, minlength=n_classes).astype(float)
    confusion = np.zeros((n_classes, n_classes))
    for t, p in zip(truth, pred):
        confusion[t, p] += 1
    row_sums = confusion.sum(axis=1, keepdims=True)
    normalized = np.divide(confusion, row_sums, out=np.zeros_like(confusion),
                           where=row_sums > 0)
    per_class = np.diag(normalized)
    accuracy = float((pred == truth).mean())
    present = counts > 0
    balanced = float(per_class[present].mean()) if present.any() else 0.0
    return MetricsReport(accuracy, balanced, topk_acc, per_class, normalized, counts)


def ablation(train_ds: FeatureDataset, test_ds: FeatureDataset,
             spec: NetworkSpec, cfg: TrainConfig,
             params: dict[str, np.ndarray] | None = None):
    """Leave-one-block-out retraining.

    Returns rows (removed block or "none", accuracy, delta vs full model).
    The baseline row scores `params`, the full model trained on the
    standardized `train_ds` with `cfg`, and retrains nothing; without them
    it trains that model first.
    """
    tr, te = nnet.standardize(train_ds, test_ds)
    if params is None:
        params, _ = nnet.train(tr, spec, cfg)
    base_acc = nnet.accuracy(params, spec, te)
    rows = [("none", base_acc, 0.0)]
    for name, _ in spec.branches:
        # z-scores are per block: dropping one leaves the others standardized
        sub_spec = replace(spec, branches=tuple(b for b in spec.branches if b[0] != name))
        sub_params, _ = nnet.train(tr.drop_block(name), sub_spec, cfg)
        acc = nnet.accuracy(sub_params, sub_spec, te.drop_block(name))
        rows.append((name, acc, acc - base_acc))
    return rows


def write_ablation_tsv(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("removed_block\taccuracy\tdelta\n")
        for name, acc, delta in rows:
            fh.write(f"{name}\t{acc!r}\t{delta!r}\n")


CUISINE_SUMMARY_COLUMNS = [
    "cuisine", "median_price", "median_tip", "mean_capacity", "p90_revisits",
    "median_loyalty", "mean_expense_per_person", "pct_single_diner",
    "pct_weekend",
]


def cuisine_summary(labels: dict[str, CuisineClass],
                    features: dict[str, np.ndarray]) -> list[dict]:
    """Per-cuisine aggregate of restaurant id -> statistical feature row.

    One row per cuisine: median of per-restaurant median price (d5), median
    tip, mean capacity, 90th-percentile revisits (d9), median loyalty tally,
    mean expense per person (party_price weighted by party_prop), single
    diner percentage (mean party_prop[0]), and weekend transaction
    percentage. Empty cuisines are flagged.
    """
    groups: dict[CuisineClass, list] = {c: [] for c in CuisineClass}
    for rid, cuisine in labels.items():
        if rid in features:
            groups[cuisine].append(features[rid])
    rows = []
    for cuisine, group in groups.items():
        if not group:
            rows.append({"cuisine": cuisine.name, "empty": True})
            continue
        table = np.array(group)
        b = {name: table[:, cols] for name, cols in BLOCKS.items()}
        rows.append({
            "cuisine": cuisine.name, "empty": False,
            "median_price": float(np.median(b["price_deciles"][:, 4])),
            "median_tip": float(np.median(b["tip_deciles"][:, 4])),
            "mean_capacity": float(np.mean(b["capacity_deciles"][:, 4])),
            "p90_revisits": float(np.median(b["revisit_deciles"][:, 8])),
            "median_loyalty": float(np.median(b["loyalty_deciles"][:, 4])),
            "mean_expense_per_person": float(np.mean(
                [p @ q for p, q in zip(b["party_prop"], b["party_price"])])),
            "pct_single_diner": 100.0 * float(np.mean(b["party_prop"][:, 0])),
            "pct_weekend": 100.0 * float(np.mean(b["dow_dist"][:, 5:].sum(axis=1))),
        })
    return rows


def party_l1(party_prop: dict[str, np.ndarray],
             party_sizes: dict[str, dict[int, int]]) -> float | None:
    """Mean over restaurants of sum_k |party_prop[k] - true share of party
    size k + 1|, over the restaurants with both a `party_prop` block (6,)
    and true party-size counts; None when no restaurant has both."""
    l1 = []
    for rid, prop in party_prop.items():
        if counts := party_sizes.get(rid):
            share = np.array([counts.get(k + 1, 0) for k in range(len(prop))])
            l1.append(np.abs(prop - share / sum(counts.values())).sum())
    return float(np.mean(l1)) if l1 else None


def write_cuisine_summary_tsv(path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(CUISINE_SUMMARY_COLUMNS) + "\n")
        for row in rows:
            if row.get("empty"):
                fh.write(row["cuisine"] + "\t" + "\t".join(["NA"] * 8) + "\n")
            else:
                fh.write(row["cuisine"] + "\t" + "\t".join(
                    f"{row[c]:.4f}" for c in CUISINE_SUMMARY_COLUMNS[1:]) + "\n")
