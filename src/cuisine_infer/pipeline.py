"""Closed-loop pipeline stages: synth -> label -> features -> embed -> train
-> eval -> report.

Each stage reads its predecessors' artifacts from the output directory,
writes its own plain-file artifacts plus a manifest, and derives its RNG
seed from the global seed and the stage name, so any stage can be rerun in
isolation and full reruns are byte-identical.
"""

from __future__ import annotations

import copy
import hashlib
import time
from collections import Counter
from pathlib import Path

import numpy as np
import yaml

from . import btm, embed, eval_harness, nnet, stat_features, synthgen, weak_label
from .txn_core import (build_index, derive_seed, merchant_names, parse_transactions,
                       read_keyed_records, write_records, write_reject_report)

DEFAULT_CONFIG: dict = {
    "seed": 7,
    "out_dir": "out",
    "paths": {
        "transactions": None,          # default: <out_dir>/transactions.csv
        "taxonomy": None,              # default: bundled seed list
        "pretrained_vectors": None,    # default: <out_dir>/pretrained_vectors.txt
    },
    "synth": {
        "n_restaurants": 500,
        "n_customers": 5000,
        "days": 90,
        "p_kw": 0.4,
    },
    "label": {
        "theta_f": 0.0005,
        "theta_p": 0.9,
        "theta_s": 0.5,
        "rounds": 1,
        # topic_augment and btm.k are checked but read by nothing: the topic
        # model labels no restaurant, and the sweep sets its own k values.
        "topic_augment": False,
        "btm": {"k": 10, "gibbs_iters": 50, "top_n": 5, "strata": 4, "cap_ratio": 4.0},
        "coherence_sweep": False,
    },
    "embed": {
        "micro": {"dim": 64, "window": 10, "negative": 10, "epochs": 3,
                  "min_count": 2, "learning_rate": 0.025},
        "macro": {"dim": 32, "window": 100, "negative": 10, "epochs": 3,
                  "min_count": 1, "learning_rate": 0.025},
        "name_dim": 50,
    },
    "train": {
        "variant": "residual_deep",
        "branch_hidden": 64,
        "trunk_hidden": [256, 128],
        "dropout": 0.0,
        "batch_size": 128,
        "learning_rate": 0.1,
        "epochs": 150,
        "class_weights": False,
        "train_frac": 0.8,
    },
    "eval": {"ablation": False},
}


class ConfigError(Exception):
    pass


class MissingArtifactError(Exception):
    pass


def _check_type(where: str, default, value) -> None:
    """Reject a value whose type is not its default's. Nothing is coerced, so
    a config that loads keeps its config_hash."""
    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)

    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, kind = is_int(value), "an integer"
    elif isinstance(default, float):
        ok, kind = is_int(value) or isinstance(value, float), "a number"
    elif isinstance(default, list):
        ok, kind = isinstance(value, list) and all(map(is_int, value)), "a list of integers"
    elif isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    else:  # a path whose default is derived from out_dir or bundled
        ok, kind = value is None or isinstance(value, str), "a string or null"
    if not ok:
        raise ConfigError(f"{where}: must be {kind}, got {value!r}")


def _merge(base: dict, override: dict, path: str = "",
           defaults: dict = DEFAULT_CONFIG) -> dict:
    """`base` with the fields of `override`, each checked against its default."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config field: {where}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: expected a mapping")
            out[key] = _merge(base[key], value, where, defaults[key])
        else:
            _check_type(where, defaults[key], value)
            out[key] = value
    return out


def load_config(path=None, overrides: dict | None = None) -> dict:
    """DEFAULT_CONFIG merged with the YAML file at `path`, then with each
    dotted-path override (`{"train.epochs": 5}`); raises ConfigError unless
    every field has its default's type and is in range."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = yaml.safe_load(fh) or {}
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config file: {exc.strerror}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        cfg = _merge(cfg, user)
    for dotted, value in (overrides or {}).items():
        for key in reversed(dotted.split(".")):
            value = {key: value}
        cfg = _merge(cfg, value)
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    """Range checks. Those of fields a stage dataclass holds are made by
    building every stage's dataclass as the stage does; the rest are here."""
    def check(cond, where, msg):
        if not cond:
            raise ConfigError(f"{where}: {msg}")

    check(cfg["seed"] >= 0, "seed", "must be >= 0")
    check(cfg["label"]["rounds"] >= 0, "label.rounds", "must be >= 0")
    check(cfg["label"]["btm"]["strata"] >= 1, "label.btm.strata", "must be >= 1")
    check(cfg["label"]["btm"]["cap_ratio"] >= 1, "label.btm.cap_ratio", "must be >= 1")
    check(cfg["embed"]["name_dim"] >= 1, "embed.name_dim", "must be >= 1")
    check(0 < cfg["train"]["train_frac"] < 1, "train.train_frac", "must be in (0, 1)")
    builders = (
        ("synth", _synth_cfg),
        ("label", _thresholds),
        ("label.btm", _btm_cfg),
        ("embed.micro", lambda c: _embed_cfg(c, "micro")),
        ("embed.macro", lambda c: _embed_cfg(c, "macro")),
        ("train", _make_train_cfg),
        ("train", lambda c: _make_spec(c, ())),
    )
    for section, build in builders:
        try:
            build(cfg)
        except ValueError as exc:  # the dataclass names the field first
            raise ConfigError(f"{section}.{exc}") from None


def config_hash(cfg: dict) -> str:
    """A digest of the settings: every field but `out_dir`, which says where a
    run writes and not what it computes. `paths.*` choose inputs and count."""
    settings = {key: value for key, value in cfg.items() if key != "out_dir"}
    canonical = yaml.safe_dump(settings, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def stage_seed(cfg: dict, stage: str) -> int:
    return derive_seed(int(cfg["seed"]), stage)


def _out(cfg: dict) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _txn_path(cfg: dict) -> Path:
    p = cfg["paths"]["transactions"]
    return Path(p) if p else _out(cfg) / "transactions.csv"


def _vectors_path(cfg: dict) -> Path:
    p = cfg["paths"]["pretrained_vectors"]
    return Path(p) if p else _out(cfg) / "pretrained_vectors.txt"


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(f"missing {what} artifact: {path}")
    return path


def _load_taxonomy(cfg: dict) -> tuple[weak_label.Taxonomy, list[Path]]:
    """The taxonomy and, as manifest inputs, the file it was read from (none
    for the bundled seed list)."""
    p = cfg["paths"]["taxonomy"]
    inputs = [_require(Path(p), "taxonomy")] if p is not None else []
    return weak_label.load_taxonomy(*inputs), inputs


def _write_manifest(cfg: dict, stage: str, inputs: list, outputs: list,
                    started: float, extra: dict | None = None) -> None:
    write_records(_out(cfg) / f"manifest_{stage}.txt", [
        ("stage", stage), ("config_hash", config_hash(cfg)),
        ("seed", str(stage_seed(cfg, stage))),
        *(("input", str(p)) for p in inputs), *(("output", str(p)) for p in outputs),
        *((key, str(value)) for key, value in (extra or {}).items()),
        ("duration_s", f"{time.time() - started:.3f}")])


def _synth_cfg(cfg: dict) -> synthgen.SynthConfig:
    return synthgen.SynthConfig(seed=stage_seed(cfg, "synth"), **cfg["synth"])


def _thresholds(cfg: dict) -> weak_label.BootstrapThresholds:
    return weak_label.BootstrapThresholds(
        cfg["label"]["theta_f"], cfg["label"]["theta_p"], cfg["label"]["theta_s"])


def _btm_cfg(cfg: dict) -> btm.BtmConfig:
    bcfg = cfg["label"]["btm"]
    return btm.BtmConfig(k=bcfg["k"], gibbs_iters=bcfg["gibbs_iters"],
                         top_n=bcfg["top_n"], seed=stage_seed(cfg, "label"))


def _embed_cfg(cfg: dict, part: str) -> embed.EmbedConfig:
    """`part` is "micro" or "macro"; macro's seed is the embed seed ^ 1."""
    seed = stage_seed(cfg, "embed")
    return embed.EmbedConfig(seed=seed ^ 1 if part == "macro" else seed,
                             **cfg["embed"][part])


def run_synth(cfg: dict) -> dict:
    started = time.time()
    out = _out(cfg)
    scfg = _synth_cfg(cfg)
    generate_started = time.perf_counter()
    result = synthgen.generate(scfg)
    generated = time.perf_counter()
    txn_path = _txn_path(cfg)
    labels_path = out / "truth_labels.tsv"
    party_path = out / "truth_party.tsv"
    synthgen.write_outputs(result, txn_path, labels_path, party_path)
    vec_path = _vectors_path(cfg)
    synthgen.write_pretrained_vectors(
        vec_path, merchant_names(result.transactions), cfg["embed"]["name_dim"], scfg.seed)
    _write_manifest(cfg, "synth", [], [txn_path, labels_path, party_path, vec_path],
                    started, {"n_transactions": len(result.transactions),
                              "generate_s": f"{generated - generate_started:.3f}",
                              "write_s": f"{time.perf_counter() - generated:.3f}"})
    return {"transactions": txn_path, "truth_labels": labels_path}


def run_label(cfg: dict) -> dict:
    started = time.time()
    out = _out(cfg)
    txn_path = _require(_txn_path(cfg), "transactions")
    taxonomy, tax_inputs = _load_taxonomy(cfg)
    parsed = parse_transactions(txn_path)
    names = merchant_names(parsed.transactions)
    labels, bootstrapped = weak_label.label_names(
        names, taxonomy, _thresholds(cfg), rounds=cfg["label"]["rounds"])

    outputs = []
    rejects_path = out / "rejects.tsv"
    if parsed.rejects:
        write_reject_report(rejects_path, parsed.rejects)
        outputs.append(rejects_path)
    else:  # not one left from an earlier run on other input
        rejects_path.unlink(missing_ok=True)
    if cfg["label"]["coherence_sweep"]:
        bcfg = _btm_cfg(cfg)
        biterms = btm.extract_biterms(names, sprinkle=labels)
        biterms = btm.stratified_sample_biterms(
            biterms, cfg["label"]["btm"]["strata"], cfg["label"]["btm"]["cap_ratio"],
            bcfg.seed)
        docs = [weak_label.tokenize_name(n) for n in names.values()]
        coherence_path = out / "coherence.tsv"
        btm.write_coherence_report(coherence_path,
                                   btm.coherence_sweep(biterms, docs, base_cfg=bcfg))
        outputs.append(coherence_path)

    by_source = Counter(source for _, source in labels.labels.values())
    extra = {"n_rejected": len(parsed.rejects),
             "n_restaurants": len(names), "n_labeled": len(labels),
             "coverage": f"{len(labels) / max(1, len(names)):.4f}",
             "n_seed": by_source["seed"], "n_bootstrap": by_source["bootstrap"],
             "n_bootstrap_words": len(bootstrapped)}
    labels_path = out / "labels.tsv"
    labels.write_tsv(labels_path)
    boot_path = out / "bootstrap_report.tsv"
    weak_label.write_bootstrap_report(boot_path, bootstrapped)
    _write_manifest(cfg, "label", [txn_path] + tax_inputs,
                    [labels_path, boot_path] + outputs, started, extra)
    return {"labels": labels_path, "bootstrap_report": boot_path}


def run_features(cfg: dict) -> dict:
    started = time.time()
    out = _out(cfg)
    txn_path = _require(_txn_path(cfg), "transactions")
    marks = [time.perf_counter()]
    parsed = parse_transactions(txn_path)
    marks.append(time.perf_counter())
    index = build_index(parsed.transactions)
    marks.append(time.perf_counter())
    table, models = stat_features.extract_all(index, seed=stage_seed(cfg, "features"))
    marks.append(time.perf_counter())
    path = out / "features_stat.tsv"
    stat_features.write_features(path, index.restaurant_ids.tolist(), table)
    marks.append(time.perf_counter())
    k_hist = Counter(m.K for m in models)
    _write_manifest(cfg, "features", [txn_path], [path], started, {
        "n_rejected": len(parsed.rejects),
        "n_restaurants": len(table),
        "gmm_k_hist": ",".join(f"{k}:{k_hist[k]}" for k in sorted(k_hist)),
        "gmm_iter_cap_hits": sum(m.iter_cap_hits for m in models),
        **{f"{step}_s": f"{end - begin:.3f}" for step, begin, end in zip(
            ("parse", "index", "extract", "write"), marks, marks[1:])}})
    return {"features_stat": path}


# The embedding blocks of the dataset, in block order after the statistical
# ones, and the file each is read from.
EMBEDDING_FILES = {"micro_embed": "micro.txt", "macro_embed": "macro.txt",
                   "name_embed": "name_embed.txt"}


def run_embed(cfg: dict) -> dict:
    started = time.time()
    out = _out(cfg)
    txn_path = _require(_txn_path(cfg), "transactions")
    boot_path = _require(out / "bootstrap_report.tsv", "bootstrap report")
    vec_path = _require(_vectors_path(cfg), "pretrained vectors")
    taxonomy, tax_inputs = _load_taxonomy(cfg)
    labeling_words = taxonomy.all_keywords()
    labeling_words.update(bw.word for bw in weak_label.read_bootstrap_report(boot_path))
    pretrained = embed.load_pretrained_vectors(vec_path)
    marks = [time.perf_counter()]
    parsed = parse_transactions(txn_path)
    marks.append(time.perf_counter())
    index = build_index(parsed.transactions)
    marks.append(time.perf_counter())
    paths = {block.removesuffix("_embed"): out / name
             for block, name in EMBEDDING_FILES.items()}
    # Compute all three before writing any, so a failing step leaves the
    # files of an earlier run as a consistent set.
    matrices, pruned = {}, {}
    for part, corpus_of, train in (
            ("micro", embed.build_customer_corpus, embed.sgns_train),
            ("macro", embed.build_restaurant_corpus, embed.pv_train)):
        corpus = corpus_of(index)
        try:
            matrices[part] = train(corpus, _embed_cfg(cfg, part))
        except ValueError as exc:  # the corpus is empty after min_count pruning
            raise ValueError(f"embed.{part}: {exc}") from None
        pruned[part] = len(corpus.words) - matrices[part].metadata["vocab_size"]
        marks.append(time.perf_counter())

    ids = index.restaurant_ids.tolist()
    named = {rid: embed.name_embedding(name, labeling_words, pretrained)
             for rid, name in zip(ids, index.names.tolist())}
    matrices["name"] = embed.EmbeddingMatrix({rid: vec for rid, (vec, _) in named.items()})
    marks.append(time.perf_counter())

    for part, path in paths.items():
        matrices[part].write(path)
    marks.append(time.perf_counter())
    extra = {"n_rejected": len(parsed.rejects),
             **{f"{step}_s": f"{end - begin:.3f}" for step, begin, end in zip(
                 ("parse", "index", "micro", "macro", "name", "write"), marks, marks[1:])},
             # restaurants whose block is all zeros in the dataset, per block
             "micro_missing": sum(rid not in matrices["micro"].vectors for rid in ids),
             "macro_missing": len(matrices["macro"].metadata["empty_documents"]),
             "name_unmatched": sum(not matched for _, matched in named.values())}
    for part in ("micro", "macro"):
        meta = matrices[part].metadata
        extra[f"{part}_vocab_size"] = meta["vocab_size"]
        extra[f"{part}_pruned_words"] = pruned[part]  # seen fewer than min_count times
        extra[f"{part}_epoch_loss"] = ",".join(f"{x:.6f}" for x in meta["epoch_loss"])
    extra["micro_pair_count"] = matrices["micro"].metadata["pair_count"]
    _write_manifest(cfg, "embed", [txn_path, boot_path, vec_path] + tax_inputs,
                    list(paths.values()), started, extra)
    return paths


def _dataset_inputs(out: Path) -> list[Path]:
    """The files load_dataset reads when it uses the weak labels."""
    return [out / name for name in ("features_stat.tsv", "labels.tsv",
                                     *EMBEDDING_FILES.values())]


def load_dataset(cfg: dict) -> nnet.FeatureDataset:
    """Assemble the per-block dataset for every restaurant with features.

    Labels are the weak labels of `labels.tsv`; unlabeled restaurants get
    label -1. A restaurant without a row in an embedding file gets zeros in
    that block; the dataset's `zero_filled` counts them per block.
    """
    out = _out(cfg)
    stat_path = _require(out / "features_stat.tsv", "statistical features")
    stat_vecs = stat_features.read_features(stat_path)
    embeddings = {b: embed.load_pretrained_vectors(_require(out / name, b))
                  for b, name in EMBEDDING_FILES.items()}
    labels = weak_label.LabelSet.read_tsv(_require(out / "labels.tsv", "labels"))

    ids = sorted(stat_vecs)
    stat = np.array([stat_vecs[rid] for rid in ids]).reshape(len(ids), stat_features.STAT_DIM)
    features = {b: stat[:, cols] for b, cols in stat_features.BLOCKS.items()}
    zero_filled = {}
    for b, m in embeddings.items():
        missing = np.zeros(m.dim)
        features[b] = np.array([m.vectors.get(rid, missing) for rid in ids]).reshape(
            len(ids), m.dim)
        zero_filled[b] = sum(rid not in m.vectors for rid in ids)
    y = [labels.get(rid) for rid in ids]
    return nnet.FeatureDataset(
        ids, features, np.array([-1 if c is None else int(c) for c in y], dtype=int),
        zero_filled)


def _zero_filled_counts(zero_filled: dict) -> dict:
    """Manifest lines of the restaurants load_dataset gave zeros, per block."""
    return {f"{block}_zero_filled": n for block, n in zero_filled.items()}


def _make_spec(cfg: dict, branches: tuple) -> nnet.NetworkSpec:
    return nnet.NetworkSpec(
        branches=branches,
        branch_hidden=cfg["train"]["branch_hidden"],
        trunk_hidden=tuple(cfg["train"]["trunk_hidden"]),
        variant=cfg["train"]["variant"],
    )


def _make_train_cfg(cfg: dict) -> nnet.TrainConfig:
    return nnet.TrainConfig(
        dropout=cfg["train"]["dropout"],
        batch_size=cfg["train"]["batch_size"],
        learning_rate=cfg["train"]["learning_rate"],
        epochs=cfg["train"]["epochs"],
        seed=stage_seed(cfg, "train"),
        class_weights=cfg["train"]["class_weights"],
    )


def run_train(cfg: dict) -> dict:
    started = time.time()
    out = _out(cfg)
    dataset = load_dataset(cfg)
    labeled = dataset.subset(np.flatnonzero(dataset.labels >= 0))
    if len(labeled) == 0:
        raise MissingArtifactError("no labeled restaurants to train on")
    spec = _make_spec(cfg, dataset.spec_branches())
    tcfg = _make_train_cfg(cfg)
    train_idx, test_idx = eval_harness.stratified_split(
        labeled.labels, cfg["train"]["train_frac"], seed=stage_seed(cfg, "split"))
    train_ds, test_ds = nnet.standardize(
        labeled.subset(train_idx), labeled.subset(test_idx))
    # the unstandardized features are not needed past this point
    ids, zero_filled = labeled.ids, dataset.zero_filled
    del dataset, labeled
    procs = nnet.train_procs(spec)
    fit_started = time.perf_counter()
    params, curve = nnet.train(train_ds, spec, tcfg, val=test_ds)
    fitted = time.perf_counter()
    model_path = out / "model.txt"
    nnet.save_params(model_path, spec, params)
    saved = time.perf_counter()
    curve_path = out / "loss_curve.tsv"
    write_records(curve_path, ((str(epoch), repr(tr), repr(va)) for epoch, tr, va in curve))
    split_path = out / "split.tsv"
    write_records(split_path, [*((ids[i], "train") for i in train_idx),
                               *((ids[i], "test") for i in test_idx)])
    _, final_train_loss, final_val_loss = curve[-1]
    _write_manifest(cfg, "train", _dataset_inputs(out),
                    [model_path, curve_path, split_path], started,
                    {"n_train": len(train_idx), "n_test": len(test_idx),
                     "dtype": params["out/b"].dtype.name,
                     "n_params": sum(p.size for p in params.values()),
                     "final_train_loss": repr(final_train_loss),
                     "final_val_loss": repr(final_val_loss),
                     "train_procs": procs,
                     "fit_s": f"{fitted - fit_started:.3f}",
                     "save_s": f"{saved - fitted:.3f}",
                     **_zero_filled_counts(zero_filled)})
    return {"model": model_path, "loss_curve": curve_path, "split": split_path}


def _split_row(parts: list[str]) -> tuple[str, str]:
    if len(parts) != 2 or not parts[0] or parts[1] not in ("train", "test"):
        raise ValueError("expected id<TAB>train or id<TAB>test")
    return parts[0], parts[1]


def run_eval(cfg: dict) -> dict:
    started = time.time()
    out = _out(cfg)
    model_path = _require(out / "model.txt", "model")
    load_started = time.perf_counter()
    spec, params = nnet.load_params(model_path)
    load_s = time.perf_counter() - load_started
    dataset = load_dataset(cfg)
    labeled = dataset.subset(np.flatnonzero(dataset.labels >= 0))
    split_path = _require(out / "split.tsv", "train/test split")
    split = read_keyed_records(split_path, _split_row)
    if set(split) != set(labeled.ids):
        stale = sorted(set(split) ^ set(labeled.ids))
        raise ValueError(f"{split_path}: {len(stale)} ids differ from the labelled "
                         f"restaurants (first: {stale[0]}); rerun train")
    train_idx = [i for i, rid in enumerate(labeled.ids) if split[rid] == "train"]
    test_idx = [i for i, rid in enumerate(labeled.ids) if split[rid] == "test"]
    inputs = [model_path, split_path] + _dataset_inputs(out)
    truth_path = out / "truth_labels.tsv"
    truth = weak_label.LabelSet()
    if truth_path.exists():
        inputs.append(truth_path)
        truth = weak_label.LabelSet.read_tsv(truth_path)
    unlabeled_idx = [i for i, rid in enumerate(dataset.ids)
                     if dataset.labels[i] < 0 and rid in truth]
    _, test_ds, un_ds = nnet.standardize(
        labeled.subset(train_idx), labeled.subset(test_idx), dataset.subset(unlabeled_idx))
    probs = nnet.predict_proba(params, spec, test_ds)
    report = eval_harness.evaluate(probs, test_ds.labels)
    metrics_path = out / "metrics.tsv"
    report.write_tsv(metrics_path)
    confusion_path = out / "confusion.tsv"
    report.write_confusion_tsv(confusion_path)
    text_path = out / "metrics.txt"
    write_records(text_path, ([line] for line in report.render().splitlines()))

    outputs = [metrics_path, confusion_path, text_path]
    extra = {"test_accuracy": f"{report.accuracy:.4f}", "load_s": f"{load_s:.3f}",
             **_zero_filled_counts(dataset.zero_filled)}

    if len(un_ds):
        un_truth = np.array([int(truth.get(rid)) for rid in un_ds.ids])
        un_probs = nnet.predict_proba(params, spec, un_ds)
        un_report = eval_harness.evaluate(un_probs, un_truth)
        truth_metrics = out / "metrics_truth.tsv"
        un_report.write_tsv(truth_metrics)
        outputs.append(truth_metrics)
        extra["truth_accuracy_unlabeled"] = f"{un_report.accuracy:.4f}"

    party_path = out / "truth_party.tsv"
    if party_path.exists():
        inputs.append(party_path)
        l1 = eval_harness.party_l1(dict(zip(dataset.ids, dataset.features["party_prop"])),
                                   synthgen.read_party_sizes(party_path))
        if l1 is not None:
            extra["party_l1"] = f"{l1:.4f}"

    if cfg["eval"]["ablation"]:
        ablation_started = time.perf_counter()
        raw_train, raw_test = labeled.subset(train_idx), labeled.subset(test_idx)
        rows = eval_harness.ablation(raw_train, raw_test, spec, _make_train_cfg(cfg),
                                     params=params)
        ablation_path = out / "ablation.tsv"
        eval_harness.write_ablation_tsv(ablation_path, rows)
        outputs.append(ablation_path)
        extra["ablation_s"] = f"{time.perf_counter() - ablation_started:.3f}"
        extra["ablation_workers"] = eval_harness.ablation_workers(spec)

    _write_manifest(cfg, "eval", inputs, outputs, started, extra)
    return {"metrics": metrics_path, "confusion": confusion_path}


def run_report(cfg: dict) -> dict:
    started = time.time()
    out = _out(cfg)
    stat_path = _require(out / "features_stat.tsv", "statistical features")
    labels_path = _require(out / "labels.tsv", "labels")
    labels = weak_label.LabelSet.read_tsv(labels_path)
    rows = eval_harness.cuisine_summary(
        {rid: c for rid, (c, _src) in labels.items()},
        stat_features.read_features(stat_path))
    path = out / "cuisine_summary.tsv"
    eval_harness.write_cuisine_summary_tsv(path, rows)
    _write_manifest(cfg, "report", [stat_path, labels_path], [path], started)
    return {"cuisine_summary": path}


# In pipeline order: PIPELINE_ORDER is read off it.
STAGES = {
    "synth": run_synth,
    "label": run_label,
    "features": run_features,
    "embed": run_embed,
    "train": run_train,
    "eval": run_eval,
    "report": run_report,
}

PIPELINE_ORDER = tuple(STAGES)


def run_pipeline(cfg: dict, stages=PIPELINE_ORDER) -> dict:
    """Run `stages` in the order given; returns every artifact they name."""
    artifacts = {}
    for stage in stages:
        artifacts.update(STAGES[stage](cfg))
    return artifacts
