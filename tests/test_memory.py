"""Peak traced allocations of the pipeline's hot paths, at its shapes: 14
blocks at the default widths, and the transaction log and feature table of
the wide-and-shallow benchmark workload (1000 restaurants and 1000
cardholders over 10 days: 898 restaurants, 2577 rows). Each bound lies
between the peak of code that keeps one branch, one SGD step or one line at
a time and the peak of code that keeps every activation, formats a whole
table or model, or holds a whole file's text, at once."""

import tracemalloc

import numpy as np
import pytest

from cuisine_infer import nnet
from cuisine_infer.stat_features import (GMM_KMAX, STAT_BLOCK_DIMS, STAT_DIM, GmmModel,
                                         extract_all, party_features, read_features,
                                         write_features)
from cuisine_infer.synthgen import SynthConfig, generate
from cuisine_infer.txn_core import build_index, parse_transactions, write_transactions

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


@pytest.fixture(scope="module")
def wide_shallow(tmp_path_factory):
    """The transaction log of the wide-and-shallow workload, as a file."""
    path = tmp_path_factory.mktemp("wide") / "transactions.csv"
    write_transactions(path, generate(SynthConfig(n_restaurants=1000, n_customers=1000,
                                                  days=10, seed=301)).transactions)
    return path


def test_parse_reads_one_chunk_of_rows_at_a_time(wide_shallow):
    """The column reader holds the fields it keeps and one chunk of about
    500 rows: 1.09 MB here, where the per-row reader it replaced peaked at
    1.23 MB and a reader that holds the file's text at 1.29 MB."""
    assert _peak(lambda: parse_transactions(wide_shallow)) < 1.2 * MB


def test_statistics_of_every_restaurant_at_once(wide_shallow):
    """All 898 restaurants' statistics: 3.1 MB, against 4.2 MB for the
    restaurant-at-a-time loop this replaced."""
    index = build_index(parse_transactions(wide_shallow).transactions)
    assert _peak(lambda: extract_all(index)) < 3.5 * MB


def test_feature_file_is_read_a_line_at_a_time(tmp_path):
    """loadtxt over a generator of lines holds little beyond the table
    (1.2 MB): 1.4 MB, where reading the whole text first took 6.8 MB."""
    table = np.random.default_rng(5).normal(size=(887, STAT_DIM))
    path = tmp_path / "f.tsv"
    write_features(path, [f"R{i:05d}" for i in range(887)], table)
    assert _peak(lambda: read_features(path)) < 2 * MB


def test_party_assignment_within_the_em_buffer():
    """At the default scale (500 restaurants, 112,555 amounts, six
    components each), assigning every amount to a component keeps a
    (6, N) block of log joints and a few per-point columns: less than the
    (3, K, N) floats each EM iteration at K = 6 allocates."""
    rng = np.random.default_rng(6)
    n_points, n_restaurants = 112_555, 500
    starts = np.concatenate(([0], np.sort(rng.choice(np.arange(1, n_points), n_restaurants - 1,
                                                     replace=False)), [n_points]))
    x = rng.integers(300, 20000, n_points).astype(float)
    models = [GmmModel(rng.dirichlet(np.ones(GMM_KMAX)), np.sort(rng.uniform(300, 20000, 6)),
                       rng.uniform(1, 3000, GMM_KMAX), 0.0, 0.0)
              for _ in range(n_restaurants)]
    em_buffer = 3 * GMM_KMAX * n_points * 8
    assert _peak(lambda: party_features(models, x, starts)) < em_buffer
