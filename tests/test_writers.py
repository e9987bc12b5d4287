"""The exact bytes each artifact writer gives small hand-built inputs."""

import re

import numpy as np
import pytest

from cuisine_infer import btm, eval_harness, nnet, pipeline
from cuisine_infer.embed import EmbeddingMatrix
from cuisine_infer.eval_harness import MetricsReport
from cuisine_infer.txn_core import write_reject_report

CLASSES = ("LatinAmerican", "European", "MMA", "SouthAsian", "SouthEastAsian", "EastAsian",
           "GrillSteak", "Fastfood", "Bar", "Dessert")
ZERO_ROW = "\t0.000000" * 10


def _confusion(path, _):
    confusion = np.zeros((10, 10))
    confusion[0, 0], confusion[1, :2] = 1.0, (1 / 3, 2 / 3)
    MetricsReport(1.0, 1.0, {1: 1.0}, np.ones(10), confusion,
                  np.ones(10)).write_confusion_tsv(path)


def _run_train(out, monkeypatch):
    """run_train on four hand-built restaurants, with the split and the
    training replaced by fixed results: r1, r2 train, r0, r3 test, and a
    two-epoch loss curve."""
    ds = nnet.FeatureDataset(["r0", "r1", "r2", "r3"], {"x": np.arange(8.0).reshape(4, 2)},
                             np.array([0, 1, 0, 1]))
    monkeypatch.setattr(pipeline, "load_dataset", lambda cfg: ds)
    monkeypatch.setattr(eval_harness, "stratified_split",
                        lambda labels, frac, seed: (np.array([1, 2]), np.array([0, 3])))

    def fixed_train(train_ds, spec, tcfg, val):
        params = {key: np.zeros(p.shape, nnet.DTYPE)
                  for key, p in nnet.init_params(spec).items()}
        return params, [(0, 2.5, float("nan")), (1, 0.1, 0.1 + 0.2)]

    monkeypatch.setattr(nnet, "train", fixed_train)
    cfg = pipeline.load_config(None, {"out_dir": str(out), "train.variant": "logistic"})
    pipeline.run_train(cfg)
    return cfg


def _model(path, _):
    spec = nnet.NetworkSpec(branches=(("x", 2),), n_classes=2, variant="logistic")
    nnet.save_params(path, spec, {"out/x": np.array([[0.0, 0.5], [1.0, 2.0]], np.float32),
                                  "out/b": np.array([1.0, -2.0], np.float32)})


# file name -> (writer of that file given its path and pytest's monkeypatch,
# the file's text)
WRITERS = {
    "confusion.tsv": (
        _confusion,
        "truth\\pred\t" + "\t".join(CLASSES) + "\n"
        "LatinAmerican\t1.000000" + "\t0.000000" * 9 + "\n"
        "European\t0.333333\t0.666667" + "\t0.000000" * 8 + "\n"
        + "".join(f"{name}{ZERO_ROW}\n" for name in CLASSES[2:])),
    "loss_curve.tsv": (
        lambda path, monkeypatch: _run_train(path.parent, monkeypatch),
        "0\t2.5\tnan\n1\t0.1\t0.30000000000000004\n"),
    "split.tsv": (
        lambda path, monkeypatch: _run_train(path.parent, monkeypatch),
        "r1\ttrain\nr2\ttrain\nr0\ttest\nr3\ttest\n"),
    "coherence.tsv": (
        lambda path, _: btm.write_coherence_report(path, [(5, -1.23456789), (10, 0.0)]),
        "5\t-1.234568\n10\t0.000000\n"),
    "ablation.tsv": (
        lambda path, _: eval_harness.write_ablation_tsv(
            path, [("none", 0.75, 0.0), ("zip", 0.7, 0.7 - 0.75)]),
        "removed_block\taccuracy\tdelta\nnone\t0.75\t0.0\nzip\t0.7\t-0.050000000000000044\n"),
    "micro.txt": (
        lambda path, _: EmbeddingMatrix({"b": np.array([0.5, -1 / 3]),
                                         "a": np.array([1e-7, 2.0])}).write(path),
        "a 0.000000 2.000000\nb 0.500000 -0.333333\n"),
    "model.txt": (
        _model,
        "cuisine-infer-model v3\n"
        "variant=logistic\tbranch_hidden=64\ttrunk_hidden=256,128\tn_classes=2\t"
        "branches=x:2\tdtype=float32\n"
        "out/b\t2\t0000803f000000c0\n"
        "out/x\t2,2\t000000000000003f0000803f00000040\n"),
    "rejects.tsv": (
        lambda path, _: write_reject_report(path, [(3, "bad zip5 'AB'"), (10, "negative tip")]),
        "3\tbad zip5 'AB'\n10\tnegative tip\n"),
}


@pytest.mark.parametrize("name", WRITERS)
def test_writer_bytes(tmp_path, monkeypatch, name):
    write, expected = WRITERS[name]
    path = tmp_path / name
    write(path, monkeypatch)
    assert path.read_bytes() == expected.encode()


def test_manifest_line_order(tmp_path, monkeypatch):
    """Stage, config hash and seed; the inputs, then the outputs, in the
    order the stage lists them; the stage's own keys; the duration last."""
    cfg = _run_train(tmp_path, monkeypatch)
    text = (tmp_path / "manifest_train.txt").read_text()
    assert re.sub(r"_s\t\d+\.\d{3}\n", "_s\tT\n", text).splitlines() == [
        "stage\ttrain",
        f"config_hash\t{pipeline.config_hash(cfg)}",
        f"seed\t{pipeline.stage_seed(cfg, 'train')}",
        *(f"input\t{tmp_path / name}" for name in (
            "features_stat.tsv", "labels.tsv", "micro.txt", "macro.txt", "name_embed.txt")),
        *(f"output\t{tmp_path / name}" for name in ("model.txt", "loss_curve.tsv", "split.tsv")),
        "n_train\t2", "n_test\t2", "dtype\tfloat32", "n_params\t30",
        "final_train_loss\t0.1", "final_val_loss\t0.30000000000000004",
        "train_procs\t1", "fit_s\tT", "save_s\tT", "duration_s\tT",
    ]
