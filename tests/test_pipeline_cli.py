import copy
import dataclasses
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corrupt_file, count_skipgram_pairs, logged_pids, pid_logged

import cuisine_infer
from cuisine_infer import (
    BLAS_THREAD_VARS,
    btm,
    embed,
    eval_harness,
    nnet,
    pipeline,
    synthgen,
    weak_label,
)
from cuisine_infer.cli import _parse_overrides, main
from cuisine_infer.eval_harness import CUISINE_SUMMARY_COLUMNS, cuisine_summary
from cuisine_infer.pipeline import (
    ConfigError,
    DEFAULT_CONFIG,
    MissingArtifactError,
    config_hash,
    load_config,
    load_dataset,
    run_pipeline,
    stage_seed,
)
from cuisine_infer.stat_features import BLOCKS, STAT_BLOCK_DIMS, extract_all, read_features
from cuisine_infer.txn_core import CSV_HEADER, build_index, parse_transactions
from cuisine_infer.weak_label import LabelSet

TINY = {
    "seed": 1,
    "synth": {"n_restaurants": 150, "n_customers": 750, "days": 14},
    "embed": {"micro": {"dim": 8, "window": 4, "negative": 4, "epochs": 1},
              "macro": {"dim": 8, "window": 20, "negative": 4, "epochs": 1},
              "name_dim": 10},
    "train": {"branch_hidden": 8, "trunk_hidden": [16, 8], "epochs": 10},
}


def _tiny_cfg(tmp_path, **extra):
    overrides = {"out_dir": str(tmp_path / "out")}
    cfg_file = tmp_path / "config.yaml"
    merged = dict(TINY)
    merged.update(extra)
    cfg_file.write_text(yaml.safe_dump(merged))
    return load_config(cfg_file, overrides)


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config()
        assert cfg == pipeline.load_config()
        assert cfg["seed"] == 7
        assert cfg["train"]["variant"] == "residual_deep"

    def test_file_and_override_round_trip(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("seed: 99\ntrain:\n  dropout: 0.2\n")
        cfg = load_config(p, {"train.batch_size": 64})
        assert cfg["seed"] == 99
        assert cfg["train"]["dropout"] == 0.2
        assert cfg["train"]["batch_size"] == 64
        # untouched defaults survive
        assert cfg["label"]["theta_p"] == DEFAULT_CONFIG["label"]["theta_p"]

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("trian:\n  dropout: 0.2\n")
        with pytest.raises(ConfigError, match="trian"):
            load_config(p)

    def test_unknown_nested_field_names_path(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("train:\n  dropouts: 0.2\n")
        with pytest.raises(ConfigError, match="train.dropouts"):
            load_config(p)

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, {"train.warp_speed": 9})

    def test_validation(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("train:\n  variant: transformer\n")
        with pytest.raises(ConfigError, match="variant"):
            load_config(p)

    def test_file_and_set_give_equal_configs(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("label:\n  topic_augment: true\n  btm:\n    cap_ratio: 2\n"
                     "train:\n  learning_rate: 1.0e-3\n  trunk_hidden: [32, 16]\n"
                     "paths:\n  taxonomy: null\n")
        pairs = ("label.topic_augment=true", "label.btm.cap_ratio=2",
                 "train.learning_rate=1.0e-3", "train.trunk_hidden=[32, 16]",
                 "paths.taxonomy=null")
        from_file = load_config(p)
        from_set = load_config(None, _parse_overrides(pairs, None, None))
        assert from_set == from_file
        assert config_hash(from_set) == config_hash(from_file)

    def test_override_type_is_checked_against_the_default(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("paths:\n  taxonomy: tax.txt\nlabel:\n  btm:\n    cap_ratio: 2\n")
        cfg = load_config(p, {"paths.taxonomy": None, "label.btm.cap_ratio": 2.5})
        assert cfg["paths"]["taxonomy"] is None
        assert cfg["label"]["btm"]["cap_ratio"] == 2.5

    def test_stage_dataclass_fields_are_config_fields(self):
        sections = [
            (synthgen.SynthConfig, DEFAULT_CONFIG["synth"]),
            (weak_label.BootstrapThresholds, DEFAULT_CONFIG["label"]),
            (btm.BtmConfig, DEFAULT_CONFIG["label"]["btm"]),
            (embed.EmbedConfig, DEFAULT_CONFIG["embed"]["micro"]),
            (embed.EmbedConfig, DEFAULT_CONFIG["embed"]["macro"]),
            (nnet.TrainConfig, DEFAULT_CONFIG["train"]),
        ]
        for cls, section in sections:
            names = {f.name for f in dataclasses.fields(cls)} - {"seed"}
            assert names <= set(section), (cls.__name__, names - set(section))

    def test_hash_sensitivity(self):
        a = load_config()
        b = load_config(None, {"seed": 8})
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(load_config())

    def test_hash_ignores_the_output_directory(self, tmp_path):
        """The same settings run into two directories give one config_hash;
        an input path still counts."""
        cfgs = []
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            cfgs.append(_tiny_cfg(tmp_path / run))
            pipeline.run_synth(cfgs[-1])
        hashes = {_manifest(Path(cfg["out_dir"]) / "manifest_synth.txt")["config_hash"]
                  for cfg in cfgs}
        assert hashes == {config_hash(cfgs[0])}
        moved = load_config(None, {"paths.transactions": str(tmp_path / "t.csv")})
        assert config_hash(moved) != config_hash(load_config())

    def test_stage_seeds_distinct(self):
        cfg = load_config()
        seeds = {stage_seed(cfg, s) for s in pipeline.PIPELINE_ORDER}
        assert len(seeds) == len(pipeline.PIPELINE_ORDER)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipe")
    cfg = _tiny_cfg(tmp_path)
    artifacts = run_pipeline(cfg)
    return cfg, artifacts, tmp_path


class TestPipeline:
    def test_artifacts_exist(self, pipeline_run):
        cfg, artifacts, _ = pipeline_run
        for path in artifacts.values():
            assert path.exists(), path
        out = artifacts["metrics"].parent
        for stage in pipeline.PIPELINE_ORDER:
            assert (out / f"manifest_{stage}.txt").exists()

    def test_manifest_contents(self, pipeline_run):
        cfg, artifacts, _ = pipeline_run
        out = artifacts["metrics"].parent
        text = (out / "manifest_train.txt").read_text()
        lines = dict(line.split("\t", 1) for line in text.splitlines())
        assert lines["stage"] == "train"
        assert lines["config_hash"] == config_hash(cfg)
        assert int(lines["seed"]) == stage_seed(cfg, "train")
        assert float(lines["duration_s"]) >= 0

    def test_synth_manifest_times_generate_and_write(self, pipeline_run):
        _, artifacts, _ = pipeline_run
        out = artifacts["metrics"].parent
        lines = dict(line.split("\t", 1)
                     for line in (out / "manifest_synth.txt").read_text().splitlines())
        steps = [float(lines["generate_s"]), float(lines["write_s"])]
        assert min(steps) >= 0 and sum(steps) <= float(lines["duration_s"]) + 0.01
        assert int(lines["n_transactions"]) == len(
            parse_transactions(out / "transactions.csv").transactions)

    def test_manifest_inputs_list_every_file_read(self, pipeline_run):
        _, artifacts, _ = pipeline_run
        out = artifacts["metrics"].parent
        dataset = {out / name for name in ("features_stat.tsv", "labels.tsv", "micro.txt",
                                           "macro.txt", "name_embed.txt")}
        assert _manifest_inputs(out / "manifest_train.txt") == dataset
        assert _manifest_inputs(out / "manifest_eval.txt") == dataset | {
            out / "model.txt", out / "split.tsv", out / "truth_labels.tsv",
            out / "truth_party.tsv"}

    def test_features_manifest_gmm_counts(self, pipeline_run):
        cfg, artifacts, _ = pipeline_run
        out = artifacts["metrics"].parent
        lines = dict(line.split("\t", 1)
                     for line in (out / "manifest_features.txt").read_text().splitlines())
        index = build_index(parse_transactions(out / "transactions.csv").transactions)
        _, models = extract_all(index, seed=stage_seed(cfg, "features"))
        hist = Counter(m.K for m in models)
        assert lines["gmm_k_hist"] == ",".join(f"{k}:{hist[k]}" for k in sorted(hist))
        assert int(lines["gmm_iter_cap_hits"]) == sum(m.iter_cap_hits for m in models)
        steps = _step_times(lines, "parse_s", "index_s", "extract_s", "write_s")
        assert steps <= float(lines["duration_s"]) + 0.01

    def test_label_manifest_counts_labels_by_source(self, pipeline_run):
        _, artifacts, _ = pipeline_run
        out = artifacts["metrics"].parent
        lines = dict(line.split("\t", 1)
                     for line in (out / "manifest_label.txt").read_text().splitlines())
        sources = Counter(src for _, src in LabelSet.read_tsv(out / "labels.tsv").labels.values())
        assert {key: int(lines[f"n_{key}"]) for key in ("seed", "bootstrap")} == {
            key: sources[key] for key in ("seed", "bootstrap")}
        assert int(lines["n_labeled"]) == sum(sources.values())
        assert not (out / "rejects.tsv").exists()

    def test_eval_ablation_scores_the_trained_model(self, pipeline_run, tmp_path,
                                                    monkeypatch):
        """The `none` row of ablation.tsv scores model.txt and retrains only
        the 14 reduced models, each in a worker process; its rows equal those
        of a fresh training."""
        cfg, artifacts, _ = pipeline_run
        cfg = copy.deepcopy(cfg)
        out = tmp_path / "out"
        shutil.copytree(artifacts["metrics"].parent, out)
        cfg["out_dir"], cfg["eval"]["ablation"] = str(out), True
        calls = []
        ablation = eval_harness.ablation
        # Trainings run in forked workers, so they are counted in a file.
        log = tmp_path / "trainings.txt"

        def recording_ablation(*args, **kwargs):
            calls.append((args, kwargs, ablation(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(nnet, "train", pid_logged(nnet.train, log))
        monkeypatch.setattr(eval_harness, "ablation", recording_ablation)
        pipeline.run_eval(cfg)
        assert len(logged_pids(log)) == 14
        manifest = _manifest(out / "manifest_eval.txt")
        workers = min(14, len(os.sched_getaffinity(0)))
        assert manifest["ablation_workers"] == str(workers)
        assert os.getpid() not in logged_pids(log) and len(set(logged_pids(log))) <= workers
        (args, kwargs, rows), = calls
        assert set(kwargs) == {"params"}
        fresh = ablation(*args)
        assert len(logged_pids(log)) == 14 + 15
        assert rows == fresh
        eval_harness.write_ablation_tsv(tmp_path / "fresh.tsv", fresh)
        assert (out / "ablation.tsv").read_bytes() == (tmp_path / "fresh.tsv").read_bytes()
        assert _step_times(manifest, "load_s", "ablation_s") <= float(manifest["duration_s"])

    def test_dataset_block_layout(self, pipeline_run):
        cfg, _, _ = pipeline_run
        ds = load_dataset(cfg)
        assert len(ds) <= cfg["synth"]["n_restaurants"]
        assert len(ds) > 100
        assert list(ds.features) == [
            "price_deciles", "tip_deciles", "capacity_deciles", "revisit_deciles",
            "loyalty_deciles", "dow_dist", "weekday_hour_dist", "weekend_hour_dist",
            "party_prop", "party_price", "zip_onehot",
            "micro_embed", "macro_embed", "name_embed"]
        stat = read_features(Path(cfg["out_dir"]) / "features_stat.tsv")
        assert ds.ids == sorted(stat)
        assert np.array_equal(np.hstack([ds.features[b] for b in STAT_BLOCK_DIMS]),
                              np.array([stat[rid] for rid in ds.ids]))
        assert ds.features["name_embed"].shape[1] == cfg["embed"]["name_dim"]
        assert ((ds.labels >= -1) & (ds.labels <= 9)).all()
        assert (ds.labels >= 0).any() and (ds.labels == -1).any()

    def test_metrics_file_parses(self, pipeline_run):
        _, artifacts, _ = pipeline_run
        lines = artifacts["metrics"].read_text().splitlines()
        metrics = {}
        for line in lines:
            parts = line.split("\t")
            if parts[0] in ("accuracy", "balanced_accuracy"):
                metrics[parts[0]] = float(parts[1])
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_train_and_embed_manifests_record_the_run(self, pipeline_run):
        cfg, artifacts, _ = pipeline_run
        out = artifacts["metrics"].parent
        train = _manifest(out / "manifest_train.txt")
        spec, params = nnet.load_params(out / "model.txt")
        assert train["dtype"] == "float32"
        assert train["train_procs"] == str(nnet.train_procs(spec)) in ("1", "2")
        assert int(train["n_params"]) == sum(p.size for p in params.values())
        last = (out / "loss_curve.tsv").read_text().splitlines()[-1].split("\t")
        assert [train["final_train_loss"], train["final_val_loss"]] == last[1:]
        assert _step_times(train, "fit_s", "save_s") <= float(train["duration_s"])

        emb = _manifest(out / "manifest_embed.txt")
        steps = _step_times(emb, "parse_s", "index_s", "micro_s", "macro_s", "name_s",
                            "write_s")
        assert steps <= float(emb["duration_s"])
        index = build_index(parse_transactions(out / "transactions.csv").transactions)
        for part, corpus_of in (("micro", embed.build_customer_corpus),
                                ("macro", embed.build_restaurant_corpus)):
            corpus, ecfg = corpus_of(index), pipeline._embed_cfg(cfg, part)
            vocab = [w for w, c in corpus.counts.items() if c >= ecfg.min_count]
            assert int(emb[f"{part}_vocab_size"]) == len(vocab)
            losses = [float(x) for x in emb[f"{part}_epoch_loss"].split(",")]
            assert len(losses) == ecfg.epochs and all(0 < x < 10 for x in losses)
        micro_cfg = pipeline._embed_cfg(cfg, "micro")
        assert int(emb["micro_pair_count"]) == count_skipgram_pairs(
            embed.build_customer_corpus(index), micro_cfg.window, micro_cfg.min_count)

    @pytest.mark.parametrize("min_counts", [None, (20, 8)], ids=["tiny", "pruned"])
    def test_embed_manifest_counts_the_zero_blocks(self, pipeline_run, tmp_path, min_counts):
        """micro_missing and macro_missing count the indexed restaurants
        absent from micro.txt and macro.txt; name_unmatched counts the zero
        rows of name_embed.txt; micro_pruned_words and macro_pruned_words
        count the restaurants and cardholders seen fewer than min_count
        times; the train and eval manifests count, per embedding block, the
        restaurants with features but no vector. "pruned" reruns embed,
        train and eval with min_count 20 (micro) and 8 (macro), so that both
        files leave restaurants out."""
        cfg, artifacts, _ = pipeline_run
        out = artifacts["metrics"].parent
        if min_counts is not None:
            shutil.copytree(out, tmp_path / "out")
            out = tmp_path / "out"
            cfg = copy.deepcopy(cfg)
            cfg["out_dir"] = str(out)
            cfg["embed"]["micro"]["min_count"], cfg["embed"]["macro"]["min_count"] = min_counts
            run_pipeline(cfg, ("embed", "train", "eval"))
        emb = _manifest(out / "manifest_embed.txt")
        index = build_index(parse_transactions(out / "transactions.csv").transactions)
        ids = index.restaurant_ids
        vectors = {part: embed.load_pretrained_vectors(out / f"{part}.txt").vectors
                   for part in ("micro", "macro", "name_embed")}
        missing = {part: sum(rid not in vectors[part] for rid in ids)
                   for part in ("micro", "macro")}
        assert {part: int(emb[f"{part}_missing"]) for part in missing} == missing
        assert sorted(vectors["name_embed"]) == sorted(ids)
        unmatched = sum(not vec.any() for vec in vectors["name_embed"].values())
        assert int(emb["name_unmatched"]) == unmatched > 0
        seen = {"micro": np.diff(index.starts), "macro": np.diff(index.card_starts)}
        for part, counts in seen.items():
            pruned = int((counts < cfg["embed"][part]["min_count"]).sum())
            assert int(emb[f"{part}_pruned_words"]) == pruned
        assert int(emb["micro_pruned_words"]) == missing["micro"]
        featured = read_features(out / "features_stat.tsv")
        zero_filled = {f"{block}_zero_filled": sum(rid not in vectors[name.removesuffix(".txt")]
                                                   for rid in featured)
                       for block, name in pipeline.EMBEDDING_FILES.items()}
        for stage in ("train", "eval"):
            manifest = _manifest(out / f"manifest_{stage}.txt")
            assert {key: int(manifest[key]) for key in zero_filled} == zero_filled, stage
        if min_counts is not None:
            assert 0 < missing["micro"] < len(ids) and 0 < missing["macro"] < len(ids)
            assert 0 < int(emb["macro_pruned_words"]) < len(index.cardholder_ids)
            assert zero_filled["micro_embed_zero_filled"] == missing["micro"]

    def test_eval_manifest_times_the_model_load(self, pipeline_run):
        _, artifacts, _ = pipeline_run
        manifest = _manifest(artifacts["metrics"].parent / "manifest_eval.txt")
        assert _step_times(manifest, "load_s") <= float(manifest["duration_s"])
        assert "ablation_s" not in manifest and "ablation_workers" not in manifest

    def test_eval_manifest_scores_the_party_sizes(self, pipeline_run):
        _, artifacts, _ = pipeline_run
        out = artifacts["metrics"].parent
        props = {rid: row[BLOCKS["party_prop"]]
                 for rid, row in read_features(out / "features_stat.tsv").items()}
        want = eval_harness.party_l1(props, synthgen.read_party_sizes(out / "truth_party.tsv"))
        manifest = _manifest(out / "manifest_eval.txt")
        assert manifest["party_l1"] == f"{want:.4f}"
        assert 0 < want < 2 and "truth_accuracy_unlabeled" in manifest

    def test_eval_before_train_missing_artifact(self, tmp_path):
        cfg = _tiny_cfg(tmp_path)
        with pytest.raises(MissingArtifactError):
            pipeline.run_eval(cfg)

    def test_label_before_synth_missing_artifact(self, tmp_path):
        cfg = _tiny_cfg(tmp_path)
        with pytest.raises(MissingArtifactError):
            pipeline.run_label(cfg)


def _manifest(path: Path) -> dict[str, str]:
    return dict(line.split("\t", 1) for line in path.read_text().splitlines())


def _step_times(manifest: dict[str, str], *keys: str) -> float:
    """The sum of the manifest's step times `keys`, each checked to be a
    nonnegative figure with three decimals."""
    for key in keys:
        assert re.fullmatch(r"\d+\.\d{3}", manifest[key]), (key, manifest[key])
    return sum(float(manifest[key]) for key in keys)


def _run_on_edited_copy(pipeline_run, tmp_path, stage, name, edit):
    """Run `stage` through the CLI on a copy of the pipeline's output whose
    file `name` had its lines passed through `edit`; returns the result and
    the edited file's path."""
    _, artifacts, run_dir = pipeline_run
    out = tmp_path / "out"
    shutil.copytree(artifacts["metrics"].parent, out)
    path = out / name
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    return CliRunner().invoke(main, [
        stage, "--config", str(run_dir / "config.yaml"), "--out-dir", str(out)]), path


def _set_field(line: str, sep: str, i: int, value: str) -> str:
    """`line` with its field `i` set to `value`."""
    parts = line.rstrip("\n").split(sep)
    parts[i] = value
    return sep.join(parts) + "\n"


class TestCorruptModel:
    def _eval(self, pipeline_run, tmp_path, edit):
        return _run_on_edited_copy(pipeline_run, tmp_path, "eval", "model.txt", edit)[0]

    def test_missing_parameter_exit_code(self, pipeline_run, tmp_path):
        result = self._eval(pipeline_run, tmp_path, lambda lines: [
            line for line in lines if not line.startswith("trunk/b0\t")])
        assert result.exit_code == 4, result.output
        assert "missing parameter trunk/b0" in result.output

    def test_missing_header_field_exit_code(self, pipeline_run, tmp_path):
        def drop_n_classes(lines):
            header = [f for f in lines[1].split("\t") if not f.startswith("n_classes=")]
            return [lines[0], "\t".join(header), *lines[2:]]

        result = self._eval(pipeline_run, tmp_path, drop_n_classes)
        assert result.exit_code == 4, result.output
        assert "lacks field n_classes" in result.output

    def test_v2_model_exit_code(self, pipeline_run, tmp_path):
        """A model.txt in the v2 format, decimal values, fails on its magic."""
        def to_v2(lines):
            v2 = ["cuisine-infer-model v2\n", lines[1]]
            for line in lines[2:]:
                key, shape, hex_text = line.rstrip("\n").split("\t")
                values = np.frombuffer(bytes.fromhex(hex_text), "<f4").tolist()
                v2.append(f"{key}\t{shape}\t{' '.join(map(repr, values))}\n")
            return v2

        result = self._eval(pipeline_run, tmp_path, to_v2)
        assert result.exit_code == 4, result.output
        assert "model file magic 'cuisine-infer-model v2'" in result.output

    def test_diverging_training_exit_code(self, pipeline_run, tmp_path):
        """`train` whose loss turns non-finite exits 4 naming the epoch, the
        step and the learning rate, and writes no model.txt. The overflow on
        the way is no RuntimeWarning, which the suite turns into an error."""
        _, artifacts, run_dir = pipeline_run
        out = tmp_path / "out"
        shutil.copytree(artifacts["metrics"].parent, out)
        (out / "model.txt").unlink()
        result = CliRunner().invoke(main, [
            "train", "--config", str(run_dir / "config.yaml"), "--out-dir", str(out),
            "--set", "train.learning_rate=1000.0"])
        assert result.exit_code == 4, result.output
        assert re.search(r"data error: training diverged: loss nan at epoch \d+, step \d+, "
                         r"learning_rate 1000\.0$", result.output, re.M), result.output
        assert not (out / "model.txt").exists()

    def test_diverging_training_prints_no_numpy_warning(self, pipeline_run, tmp_path):
        """Run as a command, under Python's default warning filters, a
        diverging `train` prints its data error and nothing from numpy."""
        _, artifacts, run_dir = pipeline_run
        out = tmp_path / "out"
        shutil.copytree(artifacts["metrics"].parent, out)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(cuisine_infer.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "cuisine_infer.cli", "train", "--config",
             str(run_dir / "config.yaml"), "--out-dir", str(out),
             "--set", "train.learning_rate=1000.0"],
            env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 4, result.stderr
        assert re.fullmatch(r"data error: training diverged: loss nan at epoch \d+, "
                            r"step \d+, learning_rate 1000\.0\n", result.stderr), result.stderr

    def test_non_finite_parameter_exit_code(self, pipeline_run, tmp_path):
        def nan_first_bias(line):
            return _set_field(line, "\t", 2, "0000c07f" + line.split("\t")[2][8:])

        result = self._eval(pipeline_run, tmp_path, lambda lines: [
            nan_first_bias(line) if line.startswith("out/b\t") else line for line in lines])
        assert result.exit_code == 4, result.output
        assert "parameter out/b: non-finite value" in result.output


def test_non_finite_feature_exit_code(pipeline_run, tmp_path):
    result, path = _run_on_edited_copy(
        pipeline_run, tmp_path, "train", "features_stat.tsv",
        lambda lines: [lines[0], _set_field(lines[1], "\t", 1, "nan"), *lines[2:]])
    assert result.exit_code == 4, result.output
    rid = path.read_text().splitlines()[1].split("\t")[0]
    assert f"{path}:2: {rid}: non-finite value" in result.output


def test_non_finite_pretrained_vector_exit_code(pipeline_run, tmp_path):
    result, path = _run_on_edited_copy(
        pipeline_run, tmp_path, "embed", "pretrained_vectors.txt",
        lambda lines: [lines[0], _set_field(lines[1], " ", 2, "-inf"), *lines[2:]])
    assert result.exit_code == 4, result.output
    token = path.read_text().splitlines()[1].split(" ")[0]
    assert f"{path}:2: {token}: non-finite vector component" in result.output


@pytest.mark.parametrize("name, sep, line_no, error", [
    ("features_stat.tsv", "\t", 3, "empty restaurant id"),
    ("micro.txt", " ", 2, "empty token"),
    ("name_embed.txt", " ", 4, "empty token"),
])
def test_empty_id_exit_code(pipeline_run, tmp_path, name, sep, line_no, error):
    """A line that starts with its separator, an empty id, stops train with
    exit 4 naming the file and line."""
    def drop_id(lines):
        return [_set_field(line, sep, 0, "") if i == line_no - 1 else line
                for i, line in enumerate(lines)]

    result, path = _run_on_edited_copy(pipeline_run, tmp_path, "train", name, drop_id)
    assert result.exit_code == 4, result.output
    assert f"{path}:{line_no}: {error}" in result.output


@pytest.mark.parametrize("bad_line", ["R000001\tvalidate\n", "R000001\ttrain\textra\n"])
def test_malformed_split_line_exit_code(pipeline_run, tmp_path, bad_line):
    _, artifacts, run_dir = pipeline_run
    out = tmp_path / "out"
    shutil.copytree(artifacts["metrics"].parent, out)
    split = out / "split.tsv"
    lines = split.read_text().splitlines(keepends=True)
    split.write_text("".join(lines[:2]) + bad_line + "".join(lines[3:]))
    result = CliRunner().invoke(main, [
        "eval", "--config", str(run_dir / "config.yaml"), "--out-dir", str(out)])
    assert result.exit_code == 4, result.output
    assert f"{split}:3: expected id<TAB>train or id<TAB>test" in result.output


@pytest.mark.parametrize("drop_from", ["labels.tsv", "split.tsv"])
def test_stale_split_exit_code(pipeline_run, tmp_path, drop_from):
    """`eval` refuses a split.tsv whose ids are not the labelled restaurants
    instead of scoring a smaller test set."""
    _, artifacts, run_dir = pipeline_run
    out = tmp_path / "out"
    shutil.copytree(artifacts["metrics"].parent, out)
    rid = next(line.split("\t")[0] for line in (out / "split.tsv").read_text().splitlines()
               if line.endswith("\ttest"))
    path = out / drop_from
    path.write_text("".join(line for line in path.read_text().splitlines(keepends=True)
                            if line.split("\t")[0] != rid))
    (out / "metrics.tsv").unlink()
    result = CliRunner().invoke(main, [
        "eval", "--config", str(run_dir / "config.yaml"), "--out-dir", str(out)])
    assert result.exit_code == 4, result.output
    assert f"{out / 'split.tsv'}: " in result.output and rid in result.output
    assert not (out / "metrics.tsv").exists()


@pytest.mark.parametrize("stage", ["train", "eval", "report"])
@pytest.mark.parametrize("edit, message", [
    (lambda lines: [lines[0].replace("restaurant_id", "rid", 1), *lines[1:]],
     ":1: bad header"),
    (lambda lines: [*lines[:2], lines[2].replace("\t", "\tx", 1), *lines[3:]],
     ":3: could not convert string to float: 'x"),
], ids=["header", "non-numeric value"])
def test_malformed_features_exit_code(pipeline_run, tmp_path, stage, edit, message):
    _, artifacts, run_dir = pipeline_run
    out = tmp_path / "out"
    shutil.copytree(artifacts["metrics"].parent, out)
    path = out / "features_stat.tsv"
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    result = CliRunner().invoke(main, [
        stage, "--config", str(run_dir / "config.yaml"), "--out-dir", str(out)])
    assert result.exit_code == 4, result.output
    assert f"{path}{message}" in result.output


@pytest.mark.parametrize("stage", ["train", "eval", "report"])
def test_truncated_labels_line_exit_code(pipeline_run, tmp_path, stage):
    _, artifacts, run_dir = pipeline_run
    out = tmp_path / "out"
    shutil.copytree(artifacts["metrics"].parent, out)
    labels = out / "labels.tsv"
    lines = labels.read_text().splitlines(keepends=True)
    labels.write_text("".join(lines[:2]) + lines[2].split("\t")[0] + "\n" + "".join(lines[3:]))
    result = CliRunner().invoke(main, [
        stage, "--config", str(run_dir / "config.yaml"), "--out-dir", str(out)])
    assert result.exit_code == 4, result.output
    assert f"{labels}:3: expected id<TAB>cuisine" in result.output


@pytest.mark.parametrize("name, stage", [
    ("features_stat.tsv", "train"), ("micro.txt", "train"), ("macro.txt", "train"),
    ("name_embed.txt", "train"), ("labels.tsv", "train"), ("split.tsv", "eval"),
])
def test_repeated_id_exit_code(pipeline_run, tmp_path, name, stage):
    """An id on two lines of a keyed file is an error naming the second
    line, not a silently dropped row."""
    _, artifacts, run_dir = pipeline_run
    out = tmp_path / "out"
    shutil.copytree(artifacts["metrics"].parent, out)
    path = out / name
    sep = " " if name.endswith(".txt") else "\t"
    first = 1 if name == "features_stat.tsv" else 0  # the header line
    lines = path.read_text().splitlines(keepends=True)
    rid = lines[first].split(sep)[0]
    lines[first + 1] = rid + sep + lines[first + 1].split(sep, 1)[1]
    path.write_text("".join(lines))
    result = CliRunner().invoke(main, [
        stage, "--config", str(run_dir / "config.yaml"), "--out-dir", str(out)])
    assert result.exit_code == 4, result.output
    assert f"{path}:{first + 2}: {rid} already listed on line {first + 1}" in result.output


def _manifest_inputs(path: Path) -> set[Path]:
    return {Path(line.split("\t", 1)[1]) for line in path.read_text().splitlines()
            if line.startswith("input\t")}


class TestEmbedInputs:
    @pytest.fixture
    def upstream(self, tmp_path):
        cfg = _tiny_cfg(tmp_path)
        for stage in ("synth", "label"):
            pipeline.STAGES[stage](cfg)
        return tmp_path, Path(cfg["out_dir"])

    def _embed(self, tmp_path, out, *args):
        return CliRunner().invoke(main, [
            "embed", "--config", str(tmp_path / "config.yaml"), "--out-dir", str(out),
            *args])

    def test_runs_without_labels(self, upstream):
        tmp_path, out = upstream
        (out / "labels.tsv").unlink()
        result = self._embed(tmp_path, out)
        assert result.exit_code == 0, result.output
        assert _manifest_inputs(out / "manifest_embed.txt") == {
            out / "transactions.csv", out / "bootstrap_report.tsv",
            out / "pretrained_vectors.txt"}

    def test_missing_bootstrap_report_exit_code(self, upstream):
        tmp_path, out = upstream
        (out / "bootstrap_report.tsv").unlink()
        result = self._embed(tmp_path, out)
        assert result.exit_code == 3
        assert "bootstrap_report.tsv" in result.output

    def test_malformed_bootstrap_report_exit_code(self, upstream):
        tmp_path, out = upstream
        report = out / "bootstrap_report.tsv"
        report.write_text(report.read_text() + "WOK EastAsian\n")
        n_lines = len(report.read_text().splitlines())
        result = self._embed(tmp_path, out)
        assert result.exit_code == 4, result.output
        assert f"{report}:{n_lines}: expected 5 tab-separated fields" in result.output
        assert not (out / "micro.txt").exists()

    def test_empty_vocabulary_names_stage_and_corpus(self, upstream):
        tmp_path, out = upstream
        result = self._embed(tmp_path, out, "--set", "embed.micro.min_count=100000")
        assert result.exit_code == 4
        for part in ("embed.micro", "customer-docs", "min_count=100000"):
            assert part in result.output
        assert not (out / "micro.txt").exists()

    def test_empty_pretrained_vectors_exit_code(self, upstream):
        tmp_path, out = upstream
        vectors = out / "pretrained_vectors.txt"
        vectors.write_text("")
        result = self._embed(tmp_path, out)
        assert result.exit_code == 4, result.output
        assert f"{vectors}: no vectors" in result.output
        assert not (out / "name_embed.txt").exists()

    def test_repeated_pretrained_token_exit_code(self, upstream):
        tmp_path, out = upstream
        vectors = out / "pretrained_vectors.txt"
        lines = vectors.read_text().splitlines(keepends=True)
        token = lines[0].split(" ")[0]
        lines[1] = token + " " + lines[1].split(" ", 1)[1]
        vectors.write_text("".join(lines))
        result = self._embed(tmp_path, out)
        assert result.exit_code == 4, result.output
        assert f"{vectors}:2: {token} already listed on line 1" in result.output
        assert not (out / "name_embed.txt").exists()

    def test_failing_macro_step_writes_no_file(self, upstream):
        tmp_path, out = upstream
        assert self._embed(tmp_path, out).exit_code == 0
        before = {name: (out / name).read_bytes()
                  for name in pipeline.EMBEDDING_FILES.values()}
        # micro.epochs changes what a rerun would write to micro.txt
        result = self._embed(tmp_path, out, "--set", "embed.micro.epochs=2",
                             "--set", "embed.macro.min_count=100000")
        assert result.exit_code == 4, result.output
        assert "embed.macro" in result.output
        for name, data in before.items():
            assert (out / name).read_bytes() == data, name


class TestTaxonomyInput:
    @pytest.fixture
    def synthed(self, tmp_path):
        cfg = _tiny_cfg(tmp_path)
        pipeline.run_synth(cfg)
        return tmp_path, cfg

    def _run(self, stage, tmp_path, cfg, taxonomy):
        return CliRunner().invoke(main, [
            stage, "--config", str(tmp_path / "config.yaml"), "--out-dir", cfg["out_dir"],
            "--set", f"paths.taxonomy={taxonomy}"])

    def test_missing_taxonomy_exit_code(self, synthed):
        tmp_path, cfg = synthed
        out, missing = Path(cfg["out_dir"]), tmp_path / "no_taxonomy.txt"
        result = self._run("label", tmp_path, cfg, missing)
        assert result.exit_code == 3, result.output
        assert str(missing) in result.output
        assert not (out / "labels.tsv").exists()
        pipeline.run_label(cfg)
        result = self._run("embed", tmp_path, cfg, missing)
        assert result.exit_code == 3, result.output
        assert str(missing) in result.output
        assert not (out / "micro.txt").exists()

    def test_custom_taxonomy_is_a_manifest_input(self, synthed):
        tmp_path, cfg = synthed
        taxonomy = tmp_path / "taxonomy.txt"
        taxonomy.write_text(resources.files("cuisine_infer.data")
                            .joinpath("seed_taxonomy.txt").read_text("utf-8"))
        out = Path(cfg["out_dir"])
        for stage in ("label", "embed"):
            result = self._run(stage, tmp_path, cfg, taxonomy)
            assert result.exit_code == 0, result.output
            assert taxonomy in _manifest_inputs(out / f"manifest_{stage}.txt")

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines + ["Bar\tBREWERY"], ":11: Bar already listed on line 9"),
        (lambda lines: lines + ["Pizza\tPIZZA"], ":11: unknown cuisine class: 'Pizza'"),
        (lambda lines: lines[:9] + ["Dessert\t , "], ":10: no keywords for Dessert"),
        (lambda lines: lines[:8] + [lines[8] + ",TACO"] + lines[9:],
         ":9: keyword TACO in both LatinAmerican and Bar"),
    ], ids=["repeated cuisine", "unknown cuisine", "no keywords", "keyword in two cuisines"])
    def test_bad_taxonomy_line_exit_code(self, synthed, edit, message):
        tmp_path, cfg = synthed
        lines = (resources.files("cuisine_infer.data").joinpath("seed_taxonomy.txt")
                 .read_text("utf-8").splitlines())
        assert [line.split("\t")[0] for line in lines[8:]] == ["Bar", "Dessert"]
        taxonomy = tmp_path / "taxonomy.txt"
        taxonomy.write_text("\n".join(edit(lines)) + "\n")
        result = self._run("label", tmp_path, cfg, taxonomy)
        assert result.exit_code == 4, result.output
        assert f"{taxonomy}{message}" in result.output
        assert not (Path(cfg["out_dir"]) / "labels.tsv").exists()


def test_manifests_count_ingest_rejects(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    pipeline.run_synth(cfg)
    out = Path(cfg["out_dir"])
    clean = tmp_path / "clean.csv"
    (out / "transactions.csv").rename(clean)
    planted = corrupt_file(clean, out / "transactions.csv", 5, seed=3)
    for stage in ("label", "features", "embed"):
        pipeline.STAGES[stage](cfg)
        lines = dict(line.split("\t", 1)
                     for line in (out / f"manifest_{stage}.txt").read_text().splitlines())
        assert lines["n_rejected"] == "5", stage
    rejects = (out / "rejects.tsv").read_text().splitlines()
    assert [int(line.split("\t")[0]) for line in rejects] == planted
    assert all(line.split("\t")[1] for line in rejects)
    assert f"output\t{out / 'rejects.tsv'}" in (out / "manifest_label.txt").read_text()
    # A rerun on clean input leaves no report of the earlier rejects.
    shutil.copy(clean, out / "transactions.csv")
    pipeline.run_label(cfg)
    assert not (out / "rejects.tsv").exists()


def test_non_ascii_zip_is_an_ingest_reject(tmp_path):
    """A zip of digits that are not all ASCII ('²' is a digit to str.isdigit)
    is rejected at ingest, so `features` never reads it."""
    cfg = _tiny_cfg(tmp_path)
    pipeline.run_synth(cfg)
    out = Path(cfg["out_dir"])
    txn_path = out / "transactions.csv"
    lines = txn_path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = lines[1].split(",")
    row[0], row[2] = "R999999", "1234\u00b2"   # a new merchant's first and only row
    txn_path.write_text("".join(lines[:2]) + ",".join(row) + "".join(lines[2:]),
                        encoding="utf-8")
    for stage in ("label", "features"):
        result = CliRunner().invoke(main, [
            stage, "--config", str(tmp_path / "config.yaml"), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
    assert (out / "rejects.tsv").read_text(encoding="utf-8") == "3\tbad zip5 '1234\u00b2'\n"
    assert "R999999" not in (out / "features_stat.tsv").read_text()


def test_amount_beyond_int64_is_an_ingest_reject(tmp_path):
    """An amount int() reads but int64 cannot hold is a reject, not a crash."""
    cfg = _tiny_cfg(tmp_path)
    pipeline.run_synth(cfg)
    out = Path(cfg["out_dir"])
    txn_path = out / "transactions.csv"
    lines = txn_path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = ",".join(lines[1].split(",")[:5] + ["9" * 20, "9" * 20]) + "\n"
    txn_path.write_text("".join(lines), encoding="utf-8")
    result = CliRunner().invoke(main, ["label", "--config", str(tmp_path / "config.yaml"),
                                       "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "rejects.tsv").read_text(encoding="utf-8") == "2\tamount out of range\n"


@pytest.mark.parametrize("field, error", [
    ("x" * 140_000, "field larger than field limit"), ("Jo\0es", "NUL byte"),
], ids=["long field", "NUL"])
def test_unreadable_transactions_exit_code(tmp_path, field, error):
    """A row the csv module cannot read, and a NUL byte, make `features` exit 4
    naming the file and line."""
    out = tmp_path / "out"
    out.mkdir()
    rows = [",".join(CSV_HEADER), "R1,Joes,12345,2025-01-06T12:00,C1,100,120",
            f"R2,{field},12345,2025-01-06T12:00,C1,100,120"]
    (out / "transactions.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    result = CliRunner().invoke(main, ["features", "--out-dir", str(out)])
    assert result.exit_code == 4, result.output
    assert f"transactions.csv:3: {error}" in result.output


_VALID_ROWS = [["R1", "Joes Place", "12345", "2025-01-06T12:00", "C1", "1000", "1200"],
               ["R1", "Joes Place", "12345", "2025-01-07T19:30", "C2", "2500", "2500"],
               ["R2", "Cafe Roma", "54321", "2025-01-08T08:15", "C1", "450", "500"],
               ["R2", "Cafe Roma", "54321", "2025-01-09T13:05", "C3", "900", "1000"]]
_MUTANTS = st.one_of(
    st.sampled_from([b"\0", b"R\x001"]),                      # NUL bytes
    st.sampled_from([b"\xff", b"\xc3("]),                     # invalid UTF-8
    st.sampled_from([b"\r", b"a\rb", b"\r\n"]),               # CR
    st.sampled_from([b'"', b'"x', b'x"y', b'""']),            # quotes
    st.just(b"x" * 140_000),                                  # over csv.field_size_limit()
    st.sampled_from([b"9" * 20, b"-5", b"-" + b"9" * 20]),    # beyond int64, below 0
    st.sampled_from([b"2025-1-6T9:5", b"0000-01-06T12:00", b"2025-02-30T10:00",
                     b"2025-01-06T24:00", b"2025-01-06"]),    # non-canonical stamps
    st.binary(max_size=6))


@given(st.lists(st.tuples(st.integers(0, len(_VALID_ROWS) - 1), st.integers(0, 6), _MUTANTS,
                          st.booleans()), min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_mutated_transactions_exit_0_or_4(tmp_path_factory, edits):
    """On a log of valid rows with fields replaced or extended by NUL bytes,
    invalid UTF-8, CR, quotes, an oversized field, amounts beyond int64 or
    below 0 and non-canonical stamps, `features` succeeds or exits 4, and
    never with a traceback."""
    rows = [[field.encode() for field in row] for row in _VALID_ROWS]
    for row, col, mutant, append in edits:
        rows[row][col] = rows[row][col] + mutant if append else mutant
    out = tmp_path_factory.mktemp("mutated")
    (out / "transactions.csv").write_bytes(
        b"\n".join([",".join(CSV_HEADER).encode()] + [b",".join(row) for row in rows]) + b"\n")
    result = CliRunner().invoke(main, ["features", "--out-dir", str(out)])
    assert result.exit_code in (0, 4), (result.output, result.exception)
    assert isinstance(result.exception, (SystemExit, type(None))), result.exception
    assert "Traceback" not in result.output


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("2", "2")])
def test_cli_pins_blas_threads_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if preset is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, preset))
    env["PYTHONPATH"] = str(Path(cuisine_infer.__file__).resolve().parents[1])
    code = ("import os, sys; import cuisine_infer; print('numpy' in sys.modules); "
            "import cuisine_infer.cli; "
            f"print(*(os.environ[v] for v in {BLAS_THREAD_VARS!r}))")
    lines = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True, timeout=120).stdout.splitlines()
    assert lines == ["False", " ".join([expected] * len(BLAS_THREAD_VARS))]


def _read_summary(path: Path) -> dict[str, list[str]]:
    lines = path.read_text().splitlines()
    assert lines[0].split("\t") == CUISINE_SUMMARY_COLUMNS
    return {parts[0]: parts[1:] for parts in (line.split("\t") for line in lines[1:])}


class TestReport:
    def _upstream(self, tmp_path, stages):
        cfg = _tiny_cfg(tmp_path)
        for stage in stages:
            pipeline.STAGES[stage](cfg)
        return cfg, Path(cfg["out_dir"])

    def _report(self, tmp_path, out):
        return CliRunner().invoke(main, [
            "report", "--config", str(tmp_path / "config.yaml"), "--out-dir", str(out)])

    def test_reads_features_not_transactions(self, tmp_path):
        cfg, out = self._upstream(tmp_path, ("synth", "label", "features"))
        txn_path = out / "transactions.csv"
        index = build_index(parse_transactions(txn_path).transactions)
        txn_path.unlink()
        result = self._report(tmp_path, out)
        assert result.exit_code == 0, result.output

        table, _ = extract_all(index, seed=stage_seed(cfg, "features"))
        labels = LabelSet.read_tsv(out / "labels.tsv")
        expected = cuisine_summary({rid: c for rid, (c, _src) in labels.items()},
                                   dict(zip(index.restaurant_ids.tolist(), table)))
        got = _read_summary(out / "cuisine_summary.tsv")
        assert list(got) == [row["cuisine"] for row in expected]
        for row in expected:
            if row["empty"]:
                assert got[row["cuisine"]] == ["NA"] * 8
                continue
            values = [float(v) for v in got[row["cuisine"]]]
            oracle = [row[c] for c in CUISINE_SUMMARY_COLUMNS[1:]]
            assert values == pytest.approx(oracle, abs=1e-4), row["cuisine"]

    def test_missing_features_exit_code(self, tmp_path):
        _, out = self._upstream(tmp_path, ("synth", "label"))
        result = self._report(tmp_path, out)
        assert result.exit_code == 3
        assert "features_stat.tsv" in result.output

    def test_truncated_feature_row_exit_code(self, tmp_path):
        _, out = self._upstream(tmp_path, ("synth", "label", "features"))
        path = out / "features_stat.tsv"
        lines = path.read_text().splitlines()
        rid, *values = lines[3].split("\t")
        lines[3] = "\t".join([rid] + values[:99])
        path.write_text("\n".join(lines) + "\n")
        result = self._report(tmp_path, out)
        assert result.exit_code == 4
        assert f"{path}:4: {rid}: 99 values" in result.output


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        digests = []
        for run in ("a", "b"):
            out = tmp_path / f"out_{run}"
            cfg = load_config(None, {"out_dir": str(out)})
            cfg = pipeline._merge(cfg, TINY)
            artifacts = run_pipeline(cfg)
            blob = b"".join(
                sorted(p.read_bytes() for p in out.iterdir()
                       if p.name != "metrics.txt" and not p.name.startswith("manifest")))
            digests.append(blob)
        assert digests[0] == digests[1]


class TestCli:
    def test_help_lists_subcommands(self):
        result = CliRunner().invoke(main, ["--help"])
        assert result.exit_code == 0
        for sub in ("synth", "label", "features", "embed", "train", "eval",
                    "report", "pipeline"):
            assert sub in result.output

    def test_pipeline_subcommand_matches_run_pipeline(self, pipeline_run, tmp_path):
        """`pipeline` runs every stage and writes the bytes run_pipeline
        writes, manifests aside, then lists each artifact it names."""
        _, artifacts, run_dir = pipeline_run
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            "pipeline", "--config", str(run_dir / "config.yaml"), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == [
            f"wrote {name} -> {out / path.name}" for name, path in artifacts.items()]
        ref = artifacts["metrics"].parent
        names = sorted(p.name for p in ref.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            if not name.startswith("manifest_"):
                assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_synth_stage(self, tmp_path):
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            "synth", "--out-dir", str(out), "--seed", "3",
            "--set", "synth.n_restaurants=20",
            "--set", "synth.n_customers=100",
            "--set", "synth.days=5"])
        assert result.exit_code == 0, result.output
        assert (out / "transactions.csv").exists()
        assert (out / "manifest_synth.txt").exists()

    def test_label_coherence_sweep(self, tmp_path):
        """`label` with the sweep writes one finite UMass score per k and
        lists the report in its manifest; the labels stay the same."""
        cfg = _tiny_cfg(tmp_path)
        pipeline.run_synth(cfg)
        out = Path(cfg["out_dir"])
        args = ["label", "--config", str(tmp_path / "config.yaml"), "--out-dir", str(out),
                "--set", "label.topic_augment=true"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        labels = (out / "labels.tsv").read_bytes()
        assert not (out / "coherence.tsv").exists()

        result = CliRunner().invoke(main, args + ["--set", "label.coherence_sweep=true"])
        assert result.exit_code == 0, result.output
        rows = [line.split("\t") for line in
                (out / "coherence.tsv").read_text().splitlines()]
        ks = [int(k) for k, _ in rows]
        assert len(rows) == 7 and ks == sorted(set(ks))
        assert np.isfinite([float(score) for _, score in rows]).all()
        manifest = (out / "manifest_label.txt").read_text().splitlines()
        assert f"output\t{out / 'coherence.tsv'}" in manifest
        assert (out / "labels.tsv").read_bytes() == labels

    def test_label_fits_each_topic_count_once(self, tmp_path, monkeypatch):
        """With the sweep and label.topic_augment on, the sweep fits each k
        once: 7 fits, and the same files as a run of each alone."""
        cfg = _tiny_cfg(tmp_path)
        pipeline.run_synth(cfg)
        out = Path(cfg["out_dir"])
        alone = {}
        for flag, name in (("topic_augment", "labels.tsv"), ("coherence_sweep", "coherence.tsv")):
            pipeline.run_label({**cfg, "label": {**cfg["label"], flag: True}})
            alone[name] = (out / name).read_bytes()

        fit, ks = btm.btm_fit, []

        def counting_fit(biterms, bcfg):
            ks.append(bcfg.k)
            return fit(biterms, bcfg)

        monkeypatch.setattr(btm, "btm_fit", counting_fit)
        pipeline.run_label({**cfg, "label": {**cfg["label"], "topic_augment": True,
                                             "coherence_sweep": True}})
        assert sorted(ks) == [5, 10, 15, 20, 30, 40, 50]
        for name, data in alone.items():
            assert (out / name).read_bytes() == data, name

    def test_config_error_exit_code(self):
        result = CliRunner().invoke(main, ["synth", "--set", "nope=1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("text", [None, "train: {epochs: [1\n"],
                             ids=["missing", "invalid YAML"])
    def test_config_file_error_exit_code(self, tmp_path, text):
        path = tmp_path / "config.yaml"
        if text is not None:
            path.write_text(text)
        result = CliRunner().invoke(main, [
            "label", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"config error: {path}: " in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("override", ["features.gmm_kmax=2", "eval.folds=3"])
    def test_deleted_field_exit_code(self, override):
        result = CliRunner().invoke(main, ["synth", "--set", override])
        assert result.exit_code == 2
        assert "unknown config field" in result.output

    @pytest.mark.parametrize("override", [
        "synth.days=x", "synth.n_restaurants=x", "synth.n_customers=-5",
        "train.epochs=-1", "train.batch_size=0",
        "synth.p_kw=x", "train.dropout=x", "synth=5", "train.learning_rate=1e-3",
        "train.trunk_hidden=[]", "embed.micro.dim=0", "train.branch_hidden=0",
        "train.learning_rate=-1", "embed.name_dim=0",
        pytest.param(("label.btm.k=0", "label.topic_augment=true"),
                     id="label.btm.k=0,label.topic_augment=true"),
        "train.train_frac=2", "train.class_weights=2", "label.btm=3",
        "train.trunk_hidden=5", "label.rounds=-1"])
    def test_bad_count_exit_code(self, override, tmp_path):
        overrides = (override,) if isinstance(override, str) else override
        args = ["synth", "--out-dir", str(tmp_path / "out")]
        for pair in overrides:
            args += ["--set", pair]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert overrides[0].split("=")[0] in result.output
        assert not (tmp_path / "out").exists()

    def test_negative_seed_exit_code(self, tmp_path):
        result = CliRunner().invoke(main, [
            "synth", "--out-dir", str(tmp_path / "out"), "--seed", "-1"])
        assert result.exit_code == 2
        assert "seed" in result.output

    def test_bad_override_format_exit_code(self):
        result = CliRunner().invoke(main, ["synth", "--set", "seed"])
        assert result.exit_code == 2

    def test_missing_artifact_exit_code(self, tmp_path):
        result = CliRunner().invoke(main, ["eval", "--out-dir", str(tmp_path / "x")])
        assert result.exit_code == 3

    def test_data_error_exit_code(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "transactions.csv").write_text("bad,header\n")
        result = CliRunner().invoke(main, ["features", "--out-dir", str(out)])
        assert result.exit_code == 4

    def test_seed_override_changes_manifest(self, tmp_path):
        outs = []
        for seed in ("3", "4"):
            out = tmp_path / f"o{seed}"
            CliRunner().invoke(main, [
                "synth", "--out-dir", str(out), "--seed", seed,
                "--set", "synth.n_restaurants=10",
                "--set", "synth.n_customers=50",
                "--set", "synth.days=3"])
            outs.append((out / "manifest_synth.txt").read_text())
        hash_a = [l for l in outs[0].splitlines() if l.startswith("config_hash")]
        hash_b = [l for l in outs[1].splitlines() if l.startswith("config_hash")]
        assert hash_a != hash_b
