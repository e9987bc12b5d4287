"""Evaluation protocol: the stratified train/test split, accuracy/top-k
metrics, normalized confusion matrix, leave-one-block-out ablation, and the
per-cuisine summary report."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .txn_core import N_CLASSES, CuisineClass, write_records
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
        write_records(path, [
            ("accuracy", repr(self.accuracy)),
            ("balanced_accuracy", repr(self.balanced_accuracy)),
            *((f"top{k}_accuracy", repr(self.topk_accuracy[k]))
              for k in sorted(self.topk_accuracy)),
            *(("class_accuracy", c.name, repr(float(self.per_class_accuracy[c])),
               str(int(self.class_counts[c]))) for c in CuisineClass)])

    def write_confusion_tsv(self, path) -> None:
        write_records(path, ((c.name, *(f"{x:.6f}" for x in self.confusion[c]))
                             for c in CuisineClass),
                      header=["truth\\pred", *(c.name for c in CuisineClass)])

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


# worker processes of `ablation`
ablation_workers = nnet.usable_workers


# What every reduced-model training of an ablation reads: the standardized
# train and test sets, the spec and the training config. The pool's
# initializer sets it in each worker, and only there. Under fork a worker
# inherits the arguments and the imported modules, so no dataset is pickled
# and no interpreter starts afresh; tasks send block names and return
# accuracies.
_ablation_job: tuple = ()


def _init_ablation_worker(*job) -> None:
    global _ablation_job
    _ablation_job = job
    # the pool's terminate() must stop the worker
    nnet.restore_default_sigterm()


def _reduced_accuracy(name: str) -> float:
    """Test accuracy of the model retrained without block `name`."""
    tr, te, spec, cfg = _ablation_job
    # z-scores are per block: dropping one leaves the others standardized
    sub_spec = replace(spec, branches=tuple(b for b in spec.branches if b[0] != name))
    sub_params, _ = nnet.train(tr.drop_block(name), sub_spec, cfg)
    return nnet.accuracy(sub_params, sub_spec, te.drop_block(name))


def ablation(train_ds: FeatureDataset, test_ds: FeatureDataset,
             spec: NetworkSpec, cfg: TrainConfig,
             params: dict[str, np.ndarray] | None = None):
    """Leave-one-block-out retraining.

    Returns rows (removed block or "none", accuracy, delta vs full model).
    The baseline row scores `params`, the full model trained on the
    standardized `train_ds` with `cfg`, and retrains nothing; without them
    it trains that model first. The reduced models train in forked worker
    processes (`ablation_workers`), each with its own seeded RNG, so the
    rows equal those of training them one after another here.
    """
    import multiprocessing  # here, so that no other stage pays for the import

    tr, te = nnet.standardize(train_ds, test_ds)
    if params is None:
        params, _ = nnet.train(tr, spec, cfg)
    base_acc = nnet.accuracy(params, spec, te)
    names = [name for name, _ in spec.branches]
    with multiprocessing.get_context("fork").Pool(
            ablation_workers(spec), _init_ablation_worker, (tr, te, spec, cfg)) as pool:
        accs = pool.map(_reduced_accuracy, names, chunksize=1)
        # let the workers leave on their sentinels; the block's exit then
        # has no worker left to terminate
        pool.close()
        pool.join()
    return [("none", base_acc, 0.0)] + [
        (name, acc, acc - base_acc) for name, acc in zip(names, accs)]


def write_ablation_tsv(path, rows) -> None:
    write_records(path, ((name, repr(acc), repr(delta)) for name, acc, delta in rows),
                  header=["removed_block", "accuracy", "delta"])


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
    write_records(path, ((row["cuisine"], *(
        "NA" if row.get("empty") else f"{row[c]:.4f}" for c in CUISINE_SUMMARY_COLUMNS[1:]))
        for row in rows), header=CUISINE_SUMMARY_COLUMNS)
