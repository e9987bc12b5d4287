"""Peak traced allocations of the classifier stages' hot paths, at the
pipeline's shapes: 14 blocks at the default widths, and a feature table of
887 restaurants. Each bound lies between the peak of code that keeps one
branch, one SGD step or one line at a time and the peak of code that keeps
every activation, or formats a whole table or model, at once."""

import tracemalloc

import numpy as np
import pytest

from cuisine_infer import nnet
from cuisine_infer.stat_features import STAT_BLOCK_DIMS, STAT_DIM, write_features

# the pipeline's blocks: the statistical ones, then the default embeddings
BRANCHES = (*STAT_BLOCK_DIMS.items(), ("micro_embed", 64), ("macro_embed", 32),
            ("name_embed", 50))
SPEC = nnet.NetworkSpec(branches=BRANCHES)
MB = 1e6


def _dataset(n, seed):
    rng = np.random.default_rng(seed)
    return nnet.FeatureDataset([f"r{i}" for i in range(n)],
                               {name: rng.normal(size=(n, dim)) for name, dim in BRANCHES},
                               rng.integers(0, SPEC.n_classes, n))


def _peak(fn) -> float:
    """The peak of the memory allocated, and not yet freed, while `fn`
    runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def params():
    return nnet.train(_dataset(64, 0), SPEC, nnet.TrainConfig(epochs=1))[0]


def test_scoring_keeps_no_activations(params):
    ds = _dataset(512, 1)
    assert _peak(lambda: nnet.predict_proba(params, SPEC, ds)) < 3 * MB


def test_training_holds_one_step_at_a_time():
    tr, val = _dataset(300, 2), _dataset(300, 3)
    assert _peak(lambda: nnet.train(tr, SPEC, nnet.TrainConfig(epochs=3), val=val)) < 8 * MB


def test_feature_rows_are_formatted_one_at_a_time(tmp_path):
    table = np.random.default_rng(4).normal(size=(887, STAT_DIM))
    ids = [f"R{i:05d}" for i in range(887)]
    assert _peak(lambda: write_features(tmp_path / "f.tsv", ids, table)) < 1 * MB


def test_model_lines_are_formatted_one_at_a_time(tmp_path, params):
    assert _peak(lambda: nnet.save_params(tmp_path / "model.txt", SPEC, params)) < 1.5 * MB
