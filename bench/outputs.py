"""Output checks, quality metrics and digests over a pipeline run's files.

Every artifact a stage writes has a parser here. A file that is missing or
does not parse counts as a failed call of the stage that writes it.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Files whose bytes must repeat exactly for a given seed (acceptance
# criterion 10 tracks the same six), with the stage that writes each.
TRACKED_BY = {"labels.tsv": "label", "features_stat.tsv": "features", "micro.txt": "embed",
              "macro.txt": "embed", "name_embed.txt": "embed", "metrics.tsv": "eval"}
TRACKED = tuple(TRACKED_BY)

# Criterion-7 gates that hold at any data volume. Its accuracy gates
# (test >= 0.85, top-3 >= 0.95, truth >= 0.80) assume 225 transactions per
# restaurant, a volume that does not fit one benchmark run.
MIN_COVERAGE = 0.30
MIN_PRECISION = 0.95


class OutputError(Exception):
    """An artifact is missing, malformed or fails a check."""


def _rows(path: Path, ncols: int, min_rows: int = 1, header: bool = False) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if header:
        lines = lines[1:]
    rows = [line.split("\t") for line in lines if line]
    if len(rows) < min_rows:
        raise OutputError(f"{path.name}: {len(rows)} rows, expected at least {min_rows}")
    for i, row in enumerate(rows, start=1):
        if len(row) != ncols:
            raise OutputError(f"{path.name}:{i}: {len(row)} fields, expected {ncols}")
    return rows


def _floats(path: Path, values) -> None:
    for v in values:
        if v != "NA" and not math.isfinite(float(v)):
            raise OutputError(f"{path.name}: non-finite value {v!r}")


def _key_values(path: Path) -> dict[str, str]:
    out = {}
    for row in path.read_text(encoding="utf-8").splitlines():
        key, _, value = row.partition("\t")
        out.setdefault(key, value)
    return out


class Checker:
    """Parsers for one run's artifacts, built on the package's own readers."""

    def __init__(self, pkg: dict, cfg: dict):
        self.pkg = pkg
        self.cfg = cfg

    def _labels(self, path):
        labels = self.pkg["weak_label"].LabelSet.read_tsv(path)
        if not len(labels):
            raise OutputError(f"{path.name}: no labels")

    def _vectors(self, path):
        if not self.pkg["embed"].load_pretrained_vectors(path).vectors:
            raise OutputError(f"{path.name}: no vectors")

    def _transactions(self, path):
        parsed = self.pkg["txn_core"].parse_transactions(path, strict=True)
        if not parsed.transactions:
            raise OutputError(f"{path.name}: no transactions")

    def _features(self, path):
        sf = self.pkg["stat_features"]
        feats = sf.read_features(path)
        if not feats:
            raise OutputError(f"{path.name}: no rows")
        if any(len(v) != sf.STAT_DIM or not np.isfinite(v).all() for v in feats.values()):
            raise OutputError(f"{path.name}: bad feature vector")

    def _model(self, path):
        self.pkg["nnet"].load_params(path)

    def _metrics(self, path):
        kv = _key_values(path)
        for key in ("accuracy", "balanced_accuracy", "top1_accuracy", "top2_accuracy",
                    "top3_accuracy"):
            if not 0.0 <= float(kv[key]) <= 1.0:
                raise OutputError(f"{path.name}: {key} out of [0, 1]")

    def _manifest(self, path):
        kv = _key_values(path)
        if kv.get("stage") != path.stem.removeprefix("manifest_"):
            raise OutputError(f"{path.name}: wrong stage line")
        if float(kv["duration_s"]) < 0:
            raise OutputError(f"{path.name}: negative duration")

    def _text(self, path):
        if not path.read_text(encoding="utf-8").strip():
            raise OutputError(f"{path.name}: empty")

    def artifacts(self, stage: str) -> dict[str, callable]:
        """File name -> parser for everything `stage` writes."""
        epochs = self.cfg["train"]["epochs"]
        files = {
            "synth": {
                "transactions.csv": self._transactions,
                "truth_labels.tsv": self._labels,
                "truth_party.tsv": lambda p: _floats(p, (r[2] for r in _rows(p, 3))),
                "pretrained_vectors.txt": self._vectors,
            },
            "label": {
                "labels.tsv": self._labels,
                "bootstrap_report.tsv": lambda p: _floats(
                    p, (v for r in _rows(p, 5, min_rows=0) for v in r[2:])),
            },
            "features": {"features_stat.tsv": self._features},
            "embed": {name: self._vectors for name in ("micro.txt", "macro.txt",
                                                       "name_embed.txt")},
            "train": {
                "model.txt": self._model,
                "loss_curve.tsv": lambda p: _floats(
                    p, (v for r in _rows(p, 3, min_rows=epochs) for v in r[1:2])),
                "split.tsv": lambda p: [_check_part(p, r[1]) for r in _rows(p, 2)],
            },
            "eval": {
                "metrics.tsv": self._metrics,
                "metrics_truth.tsv": self._metrics,
                "confusion.tsv": lambda p: _floats(
                    p, (v for r in _rows(p, 11, min_rows=10, header=True) for v in r[1:])),
                "metrics.txt": self._text,
            },
            "report": {"cuisine_summary.tsv": lambda p: _floats(
                p, (v for r in _rows(p, 9, min_rows=10, header=True) for v in r[1:]))},
        }[stage]
        if stage == "eval" and self.cfg["eval"]["ablation"]:
            files["ablation.tsv"] = lambda p: _floats(
                p, (v for r in _rows(p, 3, min_rows=2, header=True) for v in r[1:]))
        files[f"manifest_{stage}.txt"] = self._manifest
        return files

    def check(self, out: Path, stage: str) -> list[str]:
        """Problems found in the files of `stage`; empty when all parse."""
        problems = []
        for name, parse in self.artifacts(stage).items():
            path = out / name
            if not path.is_file():
                problems.append(f"{stage}: missing {name}")
                continue
            try:
                parse(path)
            except (OutputError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"{stage}: {name}: {exc}")
        return problems


def _check_part(path: Path, part: str) -> None:
    if part not in ("train", "test"):
        raise OutputError(f"{path.name}: bad split part {part!r}")


def _labels_by_id(path: Path) -> dict[str, tuple[str, str]]:
    return {r[0]: (r[1], r[2] if len(r) > 2 else "truth")
            for r in (line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()
                      if line)}


def quality(out: Path) -> dict[str, float]:
    """The quality figures of one run, read from its files."""
    truth = _labels_by_id(out / "truth_labels.tsv")
    weak = _labels_by_id(out / "labels.tsv")
    correct = sum(truth.get(rid, (None,))[0] == c for rid, (c, _src) in weak.items())
    test = _key_values(out / "metrics.tsv")
    return {
        "test_accuracy": float(test["accuracy"]),
        "top3_accuracy": float(test["top3_accuracy"]),
        "truth_accuracy": float(_key_values(out / "metrics_truth.tsv")["accuracy"]),
        "label_coverage": len(weak) / len(truth),
        "label_precision": correct / len(weak),
    }


def gate_problems(out: Path, q: dict[str, float]) -> list[str]:
    """Criterion-7 gates that do not depend on data volume."""
    problems = []
    if q["label_coverage"] < MIN_COVERAGE:
        problems.append(f"label: coverage {q['label_coverage']:.3f} < {MIN_COVERAGE}")
    if q["label_precision"] < MIN_PRECISION:
        problems.append(f"label: precision {q['label_precision']:.3f} < {MIN_PRECISION}")
    test = _key_values(out / "metrics.tsv")
    topk = [float(test[f"top{k}_accuracy"]) for k in (1, 2, 3)]
    if not topk[0] <= topk[1] <= topk[2]:
        problems.append(f"eval: top-k accuracies not ordered: {topk}")
    return problems


def topic_labels(out: Path) -> int:
    return sum(src == "topic" for _c, src in _labels_by_id(out / "labels.tsv").values())


def community_margin(vectors: dict[str, np.ndarray], truth: dict[str, str]) -> float:
    """Mean cosine within a cuisine minus mean cosine across cuisines."""
    ids = sorted(r for r in vectors if r in truth)
    mat = np.stack([vectors[r] for r in ids])
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    mat = mat / np.where(norms > 0, norms, 1.0)
    sims = mat @ mat.T
    cuisine = np.array([truth[r] for r in ids])
    same = cuisine[:, None] == cuisine[None, :]
    off_diag = ~np.eye(len(ids), dtype=bool)
    return float(sims[same & off_diag].mean() - sims[~same].mean())


def margins(pkg: dict, out: Path) -> tuple[float, float]:
    truth = {rid: c for rid, (c, _src) in _labels_by_id(out / "truth_labels.tsv").items()}
    load = pkg["embed"].load_pretrained_vectors
    return (community_margin(load(out / "micro.txt").vectors, truth),
            community_margin(load(out / "macro.txt").vectors, truth))


def manifest_duration(out: Path, stage: str) -> float:
    return float(_key_values(out / f"manifest_{stage}.txt")["duration_s"])


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def feature_rows(out: Path) -> int:
    with open(out / "features_stat.tsv", encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1
