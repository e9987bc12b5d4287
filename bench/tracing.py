"""Spans around the calls into each cuisine-infer module, and the per-layer
metrics derived from them.

The tracer replaces module attributes with timing wrappers while it is
installed and puts the originals back afterwards. Each function is wrapped
at the name its caller looks up: `pipeline` imports `parse_transactions`
and `build_index` by name, so those two are wrapped on `pipeline`; every
other call resolves through a module attribute. Spans stay in memory until
the benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import statistics
import time
from pathlib import Path

STAGES = ("synth", "label", "features", "embed", "train", "eval", "report")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "counts")

    def __init__(self, id_, name, start, parent, run):
        self.id = id_
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_size(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _arg(bound, name):
    return bound.arguments[name]


def _centers(corpus, cfg) -> int:
    """Center positions one SGNS/PV run visits: kept tokens times epochs."""
    kept = sum(c for c in corpus.counts.values() if c >= cfg.min_count)
    return kept * cfg.epochs


# (module, attribute, span name, counts(bound arguments, result) or None)
TARGETS = (
    ("pipeline", "parse_transactions", "txn_core.parse",
     lambda b, r: {"rows": len(r.transactions), "rejects": len(r.rejects)}),
    ("pipeline", "build_index", "txn_core.index", None),
    ("synthgen", "generate", "synthgen.generate",
     lambda b, r: {"txns": len(r.transactions)}),
    ("synthgen", "write_outputs", "synthgen.write",
     lambda b, r: {"bytes": _file_size(_arg(b, "txn_path"), _arg(b, "labels_path"),
                                       _arg(b, "party_path"))}),
    ("synthgen", "write_pretrained_vectors", "synthgen.write",
     lambda b, r: {"bytes": _file_size(_arg(b, "path"))}),
    ("weak_label", "label_names", "weak_label.label",
     lambda b, r: {"bootstrap_words": len(r[1]),
                   "seed": sum(src == "seed" for _, src in r[0].labels.values()),
                   "bootstrap": sum(src == "bootstrap" for _, src in r[0].labels.values())}),
    ("btm", "btm_fit", "btm.fit", lambda b, r: {"biterms": r.metadata["n_biterms"]}),
    ("stat_features", "extract_all", "stat_features.extract", None),
    ("stat_features", "select_k_aic", "stat_features.select_k", None),
    ("stat_features", "gmm_fit", "stat_features.gmm_fit",
     lambda b, r: {"em_iters": r.n_iter}),
    ("embed", "build_customer_corpus", "embed.corpus", None),
    ("embed", "build_restaurant_corpus", "embed.corpus", None),
    ("embed", "sgns_train", "embed.sgns",
     lambda b, r: {"centers": _centers(_arg(b, "corpus"), _arg(b, "cfg")),
                   "pairs": r.metadata["pair_count"] * _arg(b, "cfg").epochs,
                   "final_loss": r.metadata["epoch_loss"][-1]}),
    ("embed", "pv_train", "embed.pv",
     lambda b, r: {"centers": _centers(_arg(b, "corpus"), _arg(b, "cfg")),
                   "final_loss": r.metadata["epoch_loss"][-1]}),
    ("embed", "name_embedding", "embed.name", None),
    ("nnet", "train", "nnet.train",
     lambda b, r: {"rows": len(_arg(b, "dataset")),
                   "row_epochs": len(_arg(b, "dataset")) * _arg(b, "cfg").epochs,
                   "sgd_steps": _arg(b, "cfg").epochs * math.ceil(
                       len(_arg(b, "dataset")) / _arg(b, "cfg").batch_size)}),
    ("nnet", "forward", "nnet.forward", None),
    ("eval_harness", "evaluate", "eval_harness.evaluate", None),
    ("eval_harness", "ablation", "eval_harness.ablation", None),
    ("pipeline", "load_dataset", "pipeline.load_dataset", None),
)


class Tracer:
    """Records (name, start, end, parent, run) spans around wrapped calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.run = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.run)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, counts=None):
        signature = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span.counts = counts(signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, package: dict):
        """Wrap every TARGETS entry; `package` maps module names to modules."""
        saved = []
        try:
            for module_name, attr, name, counts in TARGETS:
                module = package[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "run": s.run,
                                     "counts": s.counts}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its child spans cover."""
    covered: dict[int, list[tuple[float, float]]] = {s.id: [] for s in spans}
    for s in spans:
        if s.parent in covered:
            covered[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        union = 0.0
        reach = -math.inf
        for lo, hi in sorted(covered[s.id]):
            lo = max(lo, reach)
            if hi > lo:
                union += hi - lo
                reach = hi
        out[s.id] = s.duration - union
    return out


PER_LAYER_UNITS = {
    "txn_core.parse_calls": "count", "txn_core.parse_s": "s",
    "txn_core.rows_parsed": "count", "txn_core.rows_rejected": "count",
    "txn_core.index_calls": "count", "txn_core.index_s": "s",
    "synthgen.generate_s": "s", "synthgen.write_s": "s",
    "synthgen.txns": "count", "synthgen.bytes_written": "bytes",
    "weak_label.label_s": "s", "weak_label.bootstrap_words": "count",
    "weak_label.labels_seed": "count", "weak_label.labels_bootstrap": "count",
    "btm.fit_calls": "count", "btm.fit_s": "s", "btm.biterms": "count",
    "btm.topic_labels": "count",
    "stat_features.extract_calls": "count", "stat_features.extract_s": "s",
    "stat_features.select_k_calls": "count", "stat_features.gmm_fits": "count",
    "stat_features.gmm_fit_s": "s", "stat_features.gmm_em_iters": "count",
    "embed.corpus_s": "s", "embed.sgns_s": "s", "embed.pv_s": "s",
    "embed.sgns_centers": "count", "embed.sgns_pairs": "count",
    "embed.pv_centers": "count", "embed.sgns_centers_per_s": "1/s",
    "embed.pv_centers_per_s": "1/s", "embed.sgns_final_loss": "nats",
    "embed.pv_final_loss": "nats", "embed.name_s": "s",
    "embed.micro_margin": "cosine", "embed.macro_margin": "cosine",
    "nnet.train_calls": "count", "nnet.train_s": "s", "nnet.sgd_steps": "count",
    "nnet.train_rows": "count", "nnet.rows_per_s": "1/s",
    "nnet.forward_calls": "count", "nnet.predict_s": "s",
    "eval_harness.evaluate_s": "s", "eval_harness.ablation_s": "s",
    "eval_harness.ablation_trainings": "count",
    **{f"pipeline.{st}_s": "s" for st in STAGES},
    **{f"pipeline.{st}_self_s": "s" for st in STAGES},
    "pipeline.load_dataset_calls": "count", "pipeline.load_dataset_s": "s",
    "pipeline.artifact_bytes": "bytes", "pipeline.manifest_gap_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], artifacts: dict) -> dict[str, float]:
    """Per-layer counts and busy times of one traced pipeline run.

    `artifacts` carries what the benchmark reads back from the run's files:
    topic_labels, micro_margin, macro_margin, artifact_bytes and
    manifest_gap_s.
    """
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, []))

    def busy(name):
        return sum(s.duration for s in by_name.get(name, []))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, []))

    def last(name, key):
        found = by_name.get(name, [])
        return float(found[-1].counts[key]) if found else 0.0

    def under(span, ancestor):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == ancestor:
                return True
        return False

    selfs = self_times(spans)
    m = {
        "txn_core.parse_calls": calls("txn_core.parse"),
        "txn_core.parse_s": busy("txn_core.parse"),
        "txn_core.rows_parsed": total("txn_core.parse", "rows"),
        "txn_core.rows_rejected": total("txn_core.parse", "rejects"),
        "txn_core.index_calls": calls("txn_core.index"),
        "txn_core.index_s": busy("txn_core.index"),
        "synthgen.generate_s": busy("synthgen.generate"),
        "synthgen.write_s": busy("synthgen.write"),
        "synthgen.txns": total("synthgen.generate", "txns"),
        "synthgen.bytes_written": total("synthgen.write", "bytes"),
        "weak_label.label_s": busy("weak_label.label"),
        "weak_label.bootstrap_words": total("weak_label.label", "bootstrap_words"),
        "weak_label.labels_seed": total("weak_label.label", "seed"),
        "weak_label.labels_bootstrap": total("weak_label.label", "bootstrap"),
        "btm.fit_calls": calls("btm.fit"),
        "btm.fit_s": busy("btm.fit"),
        "btm.biterms": total("btm.fit", "biterms"),
        "btm.topic_labels": artifacts["topic_labels"],
        "stat_features.extract_calls": calls("stat_features.extract"),
        "stat_features.extract_s": busy("stat_features.extract"),
        "stat_features.select_k_calls": calls("stat_features.select_k"),
        "stat_features.gmm_fits": calls("stat_features.gmm_fit"),
        "stat_features.gmm_fit_s": busy("stat_features.gmm_fit"),
        "stat_features.gmm_em_iters": total("stat_features.gmm_fit", "em_iters"),
        "embed.corpus_s": busy("embed.corpus"),
        "embed.sgns_s": busy("embed.sgns"),
        "embed.pv_s": busy("embed.pv"),
        "embed.sgns_centers": total("embed.sgns", "centers"),
        "embed.sgns_pairs": total("embed.sgns", "pairs"),
        "embed.pv_centers": total("embed.pv", "centers"),
        "embed.sgns_centers_per_s": _ratio(total("embed.sgns", "centers"), busy("embed.sgns")),
        "embed.pv_centers_per_s": _ratio(total("embed.pv", "centers"), busy("embed.pv")),
        "embed.sgns_final_loss": last("embed.sgns", "final_loss"),
        "embed.pv_final_loss": last("embed.pv", "final_loss"),
        "embed.name_s": busy("embed.name"),
        "embed.micro_margin": artifacts["micro_margin"],
        "embed.macro_margin": artifacts["macro_margin"],
        "nnet.train_calls": calls("nnet.train"),
        "nnet.train_s": busy("nnet.train"),
        "nnet.sgd_steps": total("nnet.train", "sgd_steps"),
        "nnet.train_rows": total("nnet.train", "rows"),
        "nnet.rows_per_s": _ratio(total("nnet.train", "row_epochs"), busy("nnet.train")),
        "nnet.forward_calls": calls("nnet.forward"),
        "nnet.predict_s": sum(s.duration for s in by_name.get("nnet.forward", [])
                              if not under(s, "nnet.train")),
        "eval_harness.evaluate_s": busy("eval_harness.evaluate"),
        "eval_harness.ablation_s": busy("eval_harness.ablation"),
        "eval_harness.ablation_trainings": sum(
            under(s, "eval_harness.ablation") for s in by_name.get("nnet.train", [])),
        "pipeline.load_dataset_calls": calls("pipeline.load_dataset"),
        "pipeline.load_dataset_s": busy("pipeline.load_dataset"),
        "pipeline.artifact_bytes": artifacts["artifact_bytes"],
        "pipeline.manifest_gap_s": artifacts["manifest_gap_s"],
    }
    for stage in STAGES:
        found = by_name.get(f"pipeline.{stage}", [])
        m[f"pipeline.{stage}_s"] = sum(s.duration for s in found)
        m[f"pipeline.{stage}_self_s"] = sum(selfs[s.id] for s in found)
    return m


def negative_self_times(spans: list[Span]) -> list[str]:
    """Names of spans whose children cover more time than the span itself,
    which only happens when spans are not properly nested."""
    selfs = self_times(spans)
    return sorted({s.name for s in spans if selfs[s.id] < 0})


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}
