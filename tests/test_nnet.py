import multiprocessing
import os
import re
import signal
import threading

import numpy as np
import pytest
from conftest import logged_pids, pid_logged

from cuisine_infer import BLAS_THREAD_VARS, nnet
from cuisine_infer.nnet import (
    FeatureDataset,
    NetworkSpec,
    TrainConfig,
    accuracy,
    backward,
    cross_entropy,
    forward,
    init_params,
    load_params,
    save_params,
    standardize,
    topk_from_probs,
    train,
)


def _toy_dataset(n=60, seed=0, n_classes=3):
    """Two feature blocks whose sum of first components encodes the class."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    fa = rng.normal(0, 0.1, size=(n, 4))
    fb = rng.normal(0, 0.1, size=(n, 3))
    fa[:, 0] += labels
    fb[:, 0] -= 0.5 * labels
    return FeatureDataset([f"r{i}" for i in range(n)],
                          {"alpha": fa, "beta": fb}, labels)


def _spec(variant="residual_deep", n_classes=3, branch_hidden=8,
          trunk_hidden=(16, 8)):
    return NetworkSpec(branches=(("alpha", 4), ("beta", 3)),
                       branch_hidden=branch_hidden, trunk_hidden=trunk_hidden,
                       n_classes=n_classes, variant=variant)


class TestForward:
    @pytest.mark.parametrize("variant", ["residual_deep", "deep", "shallow", "logistic"])
    def test_probs_are_distributions(self, variant):
        ds = _toy_dataset()
        spec = _spec(variant)
        params = init_params(spec, seed=1)
        probs, _ = forward(params, spec, ds.features)
        assert probs.shape == (60, 3)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_zero_weight_logistic_uniform(self):
        ds = _toy_dataset(n_classes=10)
        spec = NetworkSpec(branches=(("alpha", 4), ("beta", 3)),
                           n_classes=10, variant="logistic")
        params = {k: np.zeros_like(v) for k, v in init_params(spec, 0).items()}
        probs, _ = forward(params, spec, ds.features)
        assert np.allclose(probs, 0.1)

    def test_residual_skip_passes_h1_when_w2_zero(self):
        ds = _toy_dataset(n=5)
        spec = _spec("residual_deep")
        params = init_params(spec, seed=2)
        for name in ("alpha", "beta"):
            params[f"branch/{name}/W2"] = np.zeros_like(params[f"branch/{name}/W2"])
            params[f"branch/{name}/b2"] = np.zeros_like(params[f"branch/{name}/b2"])
        _, cache = forward(params, spec, ds.features)
        # with W2 = 0 the second layer emits zeros, so the skip makes the
        # branch output exactly h1; the plain deep variant would emit zeros
        for name in ("alpha", "beta"):
            assert np.array_equal(cache["branch_out"][name], cache[f"{name}/h1"])
        deep = _spec("deep")
        _, dcache = forward(params, deep, ds.features)
        assert not dcache["branch_out"]["alpha"].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", ["residual_deep", "deep", "shallow", "logistic"])
    def test_scoring_keeps_no_cache(self, variant, dtype):
        """keep_cache=False returns no cache and the same probabilities, in
        eval mode and, with the same draws, in train mode with dropout."""
        ds = _toy_dataset(n=20)
        spec = _spec(variant)
        params = {k: v.astype(dtype) for k, v in init_params(spec, seed=3).items()}
        want, cache = forward(params, spec, ds.features)
        probs, none = forward(params, spec, ds.features, keep_cache=False)
        assert cache is not None and none is None
        assert probs.dtype == dtype and np.array_equal(probs, want)
        train_mode = [forward(params, spec, ds.features, train_mode=True, dropout=0.3,
                              rng=np.random.default_rng(4), keep_cache=keep)
                      for keep in (True, False)]
        assert train_mode[1][1] is None
        assert np.array_equal(train_mode[0][0], train_mode[1][0])

    def test_shape_mismatch_raises(self):
        ds = _toy_dataset(n=4)
        spec = _spec()
        params = init_params(spec, 0)
        bad = dict(ds.features)
        bad["beta"] = bad["beta"][:, :2]
        with pytest.raises(ValueError):
            forward(params, spec, bad)


def _relu(x):
    return np.maximum(x, 0.0)


def _longhand_forward(p, variant, feats):
    """Each variant's forward pass written out on its own in float64, with
    the branch outputs concatenated before the join."""
    names = sorted(feats)
    if variant == "logistic":
        logits = (np.hstack([feats[n] for n in names])
                  @ np.hstack([p[f"out/{n}"] for n in names]).T + p["out/b"])
    else:
        outs = []
        for n in names:
            h1 = _relu(feats[n] @ p[f"branch/{n}/W1"].T + p[f"branch/{n}/b1"])
            if variant == "shallow":
                outs.append(h1)
                continue
            h2 = _relu(h1 @ p[f"branch/{n}/W2"].T + p[f"branch/{n}/b2"])
            outs.append(h2 + h1 if variant == "residual_deep" else h2)
        t = _relu(np.hstack(outs) @ np.hstack([p[f"trunk0/{n}"] for n in names]).T
                  + p["trunk/b0"])
        if variant != "shallow":
            t = _relu(t @ p["trunk/W1"].T + p["trunk/b1"])
            t = _relu(t @ p["trunk/W2"].T + p["trunk/b2"])
        logits = t @ p["out/W"].T + p["out/b"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


_DEEP_SHAPES = {
    "branch/alpha/W1": (4, 3), "branch/alpha/b1": (4,),
    "branch/alpha/W2": (4, 4), "branch/alpha/b2": (4,),
    "branch/beta/W1": (4, 2), "branch/beta/b1": (4,),
    "branch/beta/W2": (4, 4), "branch/beta/b2": (4,),
    "trunk0/alpha": (6, 4), "trunk0/beta": (6, 4), "trunk/b0": (6,),
    "trunk/W1": (5, 6), "trunk/b1": (5,), "trunk/W2": (4, 5), "trunk/b2": (4,),
    "out/W": (3, 4), "out/b": (3,),
}
# parameter shapes for branches alpha (3) and beta (2), branch_hidden 4,
# trunk_hidden (6, 5, 4) and 3 classes
_SHAPES = {
    "residual_deep": _DEEP_SHAPES,
    "deep": _DEEP_SHAPES,
    "shallow": {
        "branch/alpha/W1": (4, 3), "branch/alpha/b1": (4,),
        "branch/beta/W1": (4, 2), "branch/beta/b1": (4,),
        "trunk0/alpha": (6, 4), "trunk0/beta": (6, 4), "trunk/b0": (6,),
        "out/W": (3, 6), "out/b": (3,),
    },
    "logistic": {"out/alpha": (3, 3), "out/beta": (3, 2), "out/b": (3,)},
}


class TestLayout:
    """Each variant's wiring against a longhand reference. The
    finite-difference check cannot see a mis-wired variant: its gradient
    stays consistent with the wrong forward pass."""

    @staticmethod
    def _spec(variant):
        return NetworkSpec(branches=(("beta", 2), ("alpha", 3)), branch_hidden=4,
                           trunk_hidden=(6, 5, 4), n_classes=3, variant=variant)

    @pytest.mark.parametrize("variant", list(_SHAPES))
    def test_init_params_shapes(self, variant):
        params = init_params(self._spec(variant), seed=0)
        assert {k: v.shape for k, v in params.items()} == _SHAPES[variant]

    @pytest.mark.parametrize("variant", list(_SHAPES))
    def test_forward_matches_longhand(self, variant):
        rng = np.random.default_rng(21)
        spec = self._spec(variant)
        # nonzero biases, so a bias wired to the wrong layer shows
        params = {k: v + rng.normal(0, 0.3, v.shape)
                  for k, v in init_params(spec, seed=8).items()}
        feats = {"alpha": rng.normal(size=(7, 3)), "beta": rng.normal(size=(7, 2))}
        probs, _ = forward(params, spec, feats)
        assert probs.dtype == np.float64
        np.testing.assert_allclose(probs, _longhand_forward(params, variant, feats),
                                   rtol=0, atol=1e-12)


class TestGradients:
    def test_softmax_ce_output_gradient_identity(self):
        ds = _toy_dataset(n=8)
        spec = _spec("logistic")
        params = init_params(spec, 3)
        probs, cache = forward(params, spec, ds.features)
        onehot = np.zeros((8, 3))
        onehot[np.arange(8), ds.labels] = 1.0
        grads = backward(params, spec, cache, onehot)
        # d loss / d bias = mean over samples of (p - y)
        assert np.allclose(grads["out/b"], (probs - onehot).mean(axis=0) * 8 / 8)

    @pytest.mark.parametrize("variant", ["residual_deep", "deep", "shallow", "logistic"])
    def test_finite_difference(self, variant):
        rng = np.random.default_rng(4)
        n = 6
        labels = rng.integers(0, 3, n)
        feats = {"alpha": rng.normal(size=(n, 3)), "beta": rng.normal(size=(n, 2))}
        spec = NetworkSpec(branches=(("alpha", 3), ("beta", 2)), branch_hidden=4,
                           trunk_hidden=(5, 4), n_classes=3, variant=variant)
        params = init_params(spec, 5)
        onehot = np.zeros((n, 3))
        onehot[np.arange(n), labels] = 1.0
        _, cache = forward(params, spec, feats)
        grads = backward(params, spec, cache, onehot)
        eps = 1e-6
        for key in sorted(grads):
            arr = params[key]
            flat = arr.ravel()
            for j in range(0, flat.size, max(1, flat.size // 5)):
                orig = flat[j]
                flat[j] = orig + eps
                p1, _ = forward(params, spec, feats)
                l1 = cross_entropy(p1, onehot)
                flat[j] = orig - eps
                p2, _ = forward(params, spec, feats)
                l2 = cross_entropy(p2, onehot)
                flat[j] = orig
                numeric = (l1 - l2) / (2 * eps)
                assert grads[key].ravel()[j] == pytest.approx(numeric, abs=1e-4)


class TestTraining:
    def test_overfits_toy_set(self):
        ds = _toy_dataset(n=60, seed=1)
        spec = _spec("residual_deep")
        cfg = TrainConfig(batch_size=16, learning_rate=0.1, epochs=200, seed=0)
        params, curve = train(ds, spec, cfg)
        assert accuracy(params, spec, ds) == 1.0
        assert curve[-1][1] < curve[0][1]

    def test_lr_zero_is_noop(self):
        ds = _toy_dataset(n=20)
        spec = _spec()
        cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=6)
        params, _ = train(ds, spec, cfg)
        init = init_params(spec, 6)
        for key in init:
            assert np.array_equal(params[key], init[key].astype(np.float32))

    def test_val_loss_tracked(self):
        ds = _toy_dataset(n=50)
        val = _toy_dataset(n=20, seed=9)
        spec = _spec()
        params, curve = train(ds, spec, TrainConfig(epochs=5, seed=0), val=val)
        assert all(np.isfinite(row[2]) for row in curve)

    def test_deterministic(self):
        ds = _toy_dataset(n=30)
        spec = _spec()
        cfg = TrainConfig(epochs=5, seed=11, dropout=0.2)
        p1, c1 = train(ds, spec, cfg)
        p2, c2 = train(ds, spec, cfg)
        assert np.array_equal(np.array(c1), np.array(c2), equal_nan=True)
        for key in p1:
            assert np.array_equal(p1[key], p2[key])

    def test_class_weights_change_solution(self):
        ds = _toy_dataset(n=40)
        spec = _spec()
        p1, _ = train(ds, spec, TrainConfig(epochs=5, seed=0))
        p2, _ = train(ds, spec, TrainConfig(epochs=5, seed=0, class_weights=True))
        assert any(not np.array_equal(p1[k], p2[k]) for k in p1)

    def test_branch_order_permutation_invariant(self):
        ds = _toy_dataset(n=25)
        swapped = FeatureDataset(ds.ids,
                                 {"beta": ds.features["beta"],
                                  "alpha": ds.features["alpha"]},
                                 ds.labels)
        spec_a = NetworkSpec(branches=(("alpha", 4), ("beta", 3)), branch_hidden=8,
                             trunk_hidden=(16, 8), n_classes=3)
        spec_b = NetworkSpec(branches=(("beta", 3), ("alpha", 4)), branch_hidden=8,
                             trunk_hidden=(16, 8), n_classes=3)
        cfg = TrainConfig(epochs=4, seed=3)
        pa, _ = train(ds, spec_a, cfg)
        pb, _ = train(swapped, spec_b, cfg)
        prob_a, _ = forward(pa, spec_a, ds.features)
        prob_b, _ = forward(pb, spec_b, swapped.features)
        assert np.array_equal(prob_a, prob_b)


class TestLossCurve:
    @pytest.mark.parametrize("cfg", [
        TrainConfig(batch_size=16, epochs=4, seed=5),
        TrainConfig(batch_size=16, epochs=4, seed=5, dropout=0.3, class_weights=True),
    ], ids=["plain", "weights-dropout"])
    def test_train_loss_is_the_mean_step_loss(self, cfg):
        """Replay train's RNG, permutations and steps longhand: each train
        loss row is the batch-size-weighted mean of the epoch's step losses,
        each taken before its update."""
        ds, spec = _toy_dataset(n=50, seed=2), _spec()
        params, curve = train(ds, spec, cfg)

        replay = {k: v.astype(np.float32) for k, v in init_params(spec, cfg.seed).items()}
        features = {k: v.astype(np.float32) for k, v in ds.features.items()}
        onehot = np.eye(3, dtype=np.float32)[ds.labels]
        weights = None
        if cfg.class_weights:
            inv = 1.0 / np.bincount(ds.labels, minlength=3).astype(float)
            weights = (inv / inv.mean())[ds.labels].astype(np.float32)
        rng = np.random.default_rng((cfg.seed << 32) ^ 0x5EED)
        assert [row[0] for row in curve] == list(range(cfg.epochs))
        for _, train_loss, val_loss in curve:
            order, total = rng.permutation(len(ds)), 0.0
            for start in range(0, len(ds), cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                probs, cache = forward(replay, spec, {k: v[idx] for k, v in features.items()},
                                       train_mode=True, dropout=cfg.dropout, rng=rng)
                w = None if weights is None else weights[idx]
                total += cross_entropy(probs, onehot[idx], w) * len(idx)
                for key, g in backward(replay, spec, cache, onehot[idx], w).items():
                    replay[key] -= cfg.learning_rate * g
            assert train_loss == total / len(ds)
            assert np.isnan(val_loss)
        for key in params:
            assert np.array_equal(params[key], replay[key])

    @pytest.mark.parametrize("with_val", [False, True], ids=["no-val", "val"])
    def test_forward_calls(self, monkeypatch, with_val):
        """One forward pass per SGD step, plus one per epoch on `val`: train
        runs each pass's join once, in this process whether or not a helper
        computes some of its branches."""
        calls, real = [], nnet._joined
        monkeypatch.setattr(nnet, "_joined", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        val = _toy_dataset(n=10, seed=4) if with_val else None
        train(_toy_dataset(n=50), _spec(), TrainConfig(batch_size=16, epochs=3), val=val)
        assert len(calls) == 3 * 4 + (3 if with_val else 0)


class TestDivergence:
    def test_first_non_finite_step_loss_raises(self, monkeypatch):
        """Training stops at the first non-finite minibatch loss, and the
        error names its epoch, its step within the epoch and the rate."""
        losses, real = [], nnet.cross_entropy

        def nan_at_step_six(*args):
            losses.append(real(*args) if len(losses) != 5 else float("nan"))
            return losses[-1]

        monkeypatch.setattr(nnet, "cross_entropy", nan_at_step_six)
        with pytest.raises(ValueError, match=r"loss nan at epoch 1, step 1, "
                                             r"learning_rate 0\.1$"):
            train(_toy_dataset(n=50), _spec(), TrainConfig(batch_size=16, epochs=3))
        assert len(losses) == 6  # 4 steps per epoch: epoch 1's second step, then none

    def test_a_huge_learning_rate_diverges(self):
        """The overflow on the way is no RuntimeWarning, which the suite
        turns into an error: the loss check is the one report."""
        with pytest.raises(ValueError, match=r"at epoch \d+, step \d+, learning_rate 1000000\.0$"):
            train(_toy_dataset(n=50), _spec(), TrainConfig(batch_size=16, epochs=20,
                                                           learning_rate=1e6))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_save_refuses_non_finite_parameters(self, tmp_path, value):
        spec = _spec()
        params = init_params(spec, 0)
        params["trunk/W1"][0, 0] = value
        path = tmp_path / "model.txt"
        with pytest.raises(ValueError, match="trunk/W1: non-finite"):
            save_params(path, spec, params)
        assert not path.exists()


def _blocks_dataset(n, seed=0, n_blocks=4, n_classes=3):
    """`n_blocks` feature blocks of widths 2, 3, ...; the class shifts the
    first component of each."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    feats = {}
    for i in range(n_blocks):
        block = rng.normal(0, 0.1, size=(n, 2 + i))
        block[:, 0] += labels * (1 if i % 2 else -0.5)
        feats[f"b{i}"] = block
    return FeatureDataset([f"r{i}" for i in range(n)], feats, labels)


def _blocks_spec(ds, variant="residual_deep"):
    return NetworkSpec(branches=ds.spec_branches(), branch_hidden=8, trunk_hidden=(16, 8),
                       n_classes=3, variant=variant)


def _train_with(monkeypatch, procs, *args, **kwargs):
    monkeypatch.setattr(nnet, "train_procs", lambda spec: procs)
    return train(*args, **kwargs)


def _assert_same_bytes(a, b):
    (params_a, curve_a), (params_b, curve_b) = a, b
    assert list(params_a) == list(params_b)
    for key in params_a:
        assert params_a[key].dtype == params_b[key].dtype
        assert params_a[key].tobytes() == params_b[key].tobytes(), key
    assert repr(curve_a) == repr(curve_b)  # nan == nan here


class TestHelper:
    """`train` with a forked helper computing some of the branches gives the
    bytes of training in one process."""

    @pytest.mark.parametrize("n", [10, 50], ids=["under-one-batch", "remainder-batch"])
    @pytest.mark.parametrize("with_val", [False, True], ids=["no-val", "val"])
    @pytest.mark.parametrize("class_weights", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("variant", nnet.VARIANTS)
    def test_helper_gives_the_bytes_of_one_process(self, monkeypatch, variant, dropout,
                                                   class_weights, with_val, n):
        ds = _blocks_dataset(n)
        spec = _blocks_spec(ds, variant)
        cfg = TrainConfig(batch_size=16, epochs=3, seed=5, dropout=dropout,
                          class_weights=class_weights)
        val = _blocks_dataset(7, seed=1) if with_val else None
        one = _train_with(monkeypatch, 1, ds, spec, cfg, val=val)
        _assert_same_bytes(_train_with(monkeypatch, 2, ds, spec, cfg, val=val), one)
        assert multiprocessing.active_children() == []

    def test_the_helper_computes_the_branches_after_the_split(self, tmp_path, monkeypatch):
        ds = _blocks_dataset(50)
        spec = _blocks_spec(ds)
        log = tmp_path / "pids.txt"
        names = []

        def product(params, branch, *args):
            names.append(branch[0])  # in this process only
            return real(params, branch, *args)

        real = nnet._product
        monkeypatch.setattr(nnet, "_product", pid_logged(product, log))
        _train_with(monkeypatch, 2, ds, spec, TrainConfig(batch_size=16, epochs=2), val=ds)
        split = nnet._split(init_params(spec), spec)
        here = [name for name, *_ in spec.keys.joined[:split]]
        passes = 2 * 4 + 2  # steps and val passes
        assert 0 < split < len(spec.branches) and names == here * passes
        pids = logged_pids(log)
        helper = set(pids) - {os.getpid()}
        assert len(helper) == 1
        assert pids.count(helper.pop()) == (len(spec.branches) - split) * passes

    def test_divergence_raises_and_leaves_no_helper(self, monkeypatch):
        ds = _blocks_dataset(50)
        spec = _blocks_spec(ds)
        cfg = TrainConfig(batch_size=16, epochs=20, learning_rate=1e6)
        messages = []
        for procs in (1, 2):
            with pytest.raises(ValueError, match="^training diverged: ") as err:
                _train_with(monkeypatch, procs, ds, spec, cfg, val=ds)
            messages.append(str(err.value))
            assert multiprocessing.active_children() == []
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("how", ["raises", "dies"])
    def test_a_helper_failure_reaches_the_caller(self, monkeypatch, how):
        parent, real = os.getpid(), nnet._branch_grads

        def failing_grads(*args):
            if os.getpid() != parent:
                if how == "dies":
                    os._exit(3)
                raise ArithmeticError("boom")
            return real(*args)

        monkeypatch.setattr(nnet, "_branch_grads", failing_grads)
        ds = _blocks_dataset(50)
        want = r"(?s)helper failed: .*ArithmeticError: boom" if how == "raises" else \
            "helper exited with code 3"
        with pytest.raises(RuntimeError, match=want):
            _train_with(monkeypatch, 2, ds, _blocks_spec(ds), TrainConfig(batch_size=16, epochs=3))
        assert multiprocessing.active_children() == []

    def test_the_helper_stops_on_sigterm(self, tmp_path, monkeypatch):
        """A helper forked from a process whose SIGTERM handler carries on
        takes the default action."""
        parent, real, seen = os.getpid(), nnet._product, tmp_path / "sigterm.txt"

        def recording_product(*args):
            if os.getpid() != parent:
                seen.write_text(repr(signal.getsignal(signal.SIGTERM)))
            return real(*args)

        monkeypatch.setattr(nnet, "_product", recording_product)
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            ds = _blocks_dataset(20)
            _train_with(monkeypatch, 2, ds, _blocks_spec(ds), TrainConfig(epochs=1))
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert seen.read_text() == repr(signal.SIG_DFL)

    def test_train_procs(self, monkeypatch):
        ds = _blocks_dataset(10)
        spec = _blocks_spec(ds)
        for var in BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert nnet.train_procs(spec) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert nnet.train_procs(spec) == (2 if threading.active_count() == 1 else 1)
        one_block = NetworkSpec(branches=spec.branches[:1])
        assert nnet.train_procs(one_block) == 1
        for var in BLAS_THREAD_VARS:  # a BLAS thread pool in each process
            monkeypatch.setenv(var, "2")
            assert nnet.train_procs(spec) == 1
            monkeypatch.delenv(var)
            assert nnet.train_procs(spec) == 1
            monkeypatch.setenv(var, "1")
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert nnet.train_procs(spec) == 1  # a fork would copy one thread of two
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_a_pool_worker_trains_in_process(self, tmp_path, monkeypatch):
        ds = _blocks_dataset(20)
        log = tmp_path / "pids.txt"
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(nnet, "_product", pid_logged(nnet._product, log))
        with multiprocessing.get_context("fork").Pool(1) as pool:
            procs, worker = pool.apply(_train_in_worker, (ds, _blocks_spec(ds)))
            pool.close()
            pool.join()
        assert procs == 1 and set(logged_pids(log)) == {worker}
        assert multiprocessing.active_children() == []


def _train_in_worker(ds, spec):
    train(ds, spec, TrainConfig(epochs=1))
    return nnet.train_procs(spec), os.getpid()


class TestPrediction:
    def test_topk_tie_rule(self):
        probs = np.array([[0.25, 0.25, 0.4, 0.1],
                          [0.1, 0.4, 0.4, 0.1]])
        top = topk_from_probs(probs, 3)
        assert top.shape == (2, 3)
        assert top[0].tolist() == [2, 0, 1]   # tie 0/1 broken by class code
        assert top[1].tolist() == [1, 2, 0]

    def test_logistic_separates_linear_classes(self):
        rng = np.random.default_rng(7)
        n = 80
        labels = rng.integers(0, 2, n)
        feats = {"alpha": rng.normal(0, 0.05, (n, 2)) + labels[:, None]}
        ds = FeatureDataset([f"r{i}" for i in range(n)], feats, labels)
        spec = NetworkSpec(branches=(("alpha", 2),), n_classes=2, variant="logistic")
        params, _ = train(ds, spec, TrainConfig(epochs=60, learning_rate=0.5,
                                                batch_size=16, seed=0))
        assert accuracy(params, spec, ds) == 1.0


class TestStandardize:
    def test_train_stats_applied_to_val(self):
        tr = _toy_dataset(n=50, seed=0)
        va = _toy_dataset(n=20, seed=1)
        trz, vaz = standardize(tr, va)
        for name in trz.features:
            assert np.allclose(trz.features[name].mean(axis=0), 0, atol=1e-9)
            assert not np.allclose(vaz.features[name].mean(axis=0), 0, atol=1e-3)

    def test_constant_column_safe(self):
        feats = {"alpha": np.ones((10, 2))}
        ds = FeatureDataset([f"r{i}" for i in range(10)], feats, np.zeros(10, int))
        out = standardize(ds)
        assert np.isfinite(out.features["alpha"]).all()


class TestDtype:
    @staticmethod
    def _arrays(cache):
        for value in cache.values():
            if isinstance(value, dict):
                yield from value.values()
            elif isinstance(value, np.ndarray):
                yield value

    @pytest.mark.parametrize("variant", ["residual_deep", "deep", "shallow", "logistic"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_backward_keep_the_params_dtype(self, variant, dtype):
        ds = _toy_dataset(n=10)
        spec = _spec(variant)
        params = {k: v.astype(dtype) for k, v in init_params(spec, 1).items()}
        onehot = np.eye(3)[ds.labels]  # float64 targets and features
        _, cache = forward(params, spec, ds.features, train_mode=True, dropout=0.3,
                           rng=np.random.default_rng(0))
        arrays = list(self._arrays(cache))
        assert len(arrays) > 2
        assert all(a.dtype == dtype for a in arrays)
        grads = backward(params, spec, cache, onehot, np.ones(10))
        assert sorted(grads) == sorted(params)
        assert all(g.dtype == dtype for g in grads.values())

    def test_train_returns_float32(self):
        ds = _toy_dataset(n=20)
        params, curve = train(ds, _spec(), TrainConfig(epochs=2, seed=0, dropout=0.1,
                                                       class_weights=True), val=ds)
        assert all(p.dtype == np.float32 for p in params.values())
        assert all(np.isfinite(row[1]) and np.isfinite(row[2]) for row in curve)


class TestSerialization:
    @pytest.mark.parametrize("variant, dtype", [
        pytest.param(variant, dtype, id=variant + ("-float32" if dtype is np.float32 else ""))
        for variant in ("residual_deep", "logistic") for dtype in (np.float64, np.float32)])
    def test_round_trip(self, tmp_path, variant, dtype):
        spec = _spec(variant)
        rng = np.random.default_rng(13)
        params = {k: (v + rng.normal(size=v.shape)).astype(dtype)
                  for k, v in init_params(spec, 13).items()}
        path = tmp_path / "model.txt"
        save_params(path, spec, params)
        spec2, params2 = load_params(path)
        assert spec2 == spec
        assert sorted(params2) == sorted(params)
        for key in params:
            assert params2[key].dtype == dtype
            assert np.array_equal(params[key], params2[key])

    # a missing key or header field, and a v2 file, are checked through the
    # CLI in test_pipeline_cli. The float32 out/b of the file below is three
    # zeros, 24 hex digits.
    @pytest.mark.parametrize("edit, named", [
        (lambda lines: lines + ["trunk/W9\t1\t00000000\n"], "trunk/W9"),
        (lambda lines: [l.replace("out/b\t3\t", "out/b\t4\t") for l in lines],
         r"out/b: 12 bytes, expected 16 for shape \(4,\)"),
        (lambda lines: [l.replace("out/b\t3\t", "out/b\t3\tx ") for l in lines],
         "out/b: malformed"),
        (lambda lines: [lines[0], lines[1].replace("float32", "float16"), *lines[2:]],
         "float16"),
        (lambda lines: [l.replace("out/b\t3\t", "out/b\t4\t00000000") for l in lines],
         r"out/b: shape \(4,\), expected \(3,\)"),
        (lambda lines: [l.replace("out/b\t3\t", "out/b\t3\t0") for l in lines],
         "out/b: malformed"),
        (lambda lines: [l.replace("out/b\t3\t0", "out/b\t3\tg") for l in lines],
         "out/b: malformed"),
        (lambda lines: [l.replace("out/b\t3\t00000000", "out/b\t3\t0000c07f")
                        for l in lines], "out/b: non-finite"),
        (lambda lines: [l.replace("out/b\t3\t00000000", "out/b\t3\t0000807f")
                        for l in lines], "out/b: non-finite"),
    ], ids=["extra key", "wrong shape", "bad value", "bad dtype", "shape mismatch",
            "odd-length hex", "non-hex character", "nan", "inf"])
    def test_corrupt_file_names_the_field(self, tmp_path, edit, named):
        """The error names the file, the edited line and the field."""
        spec = _spec()
        path = tmp_path / "model.txt"
        save_params(path, spec, {k: v.astype(np.float32)
                                 for k, v in init_params(spec, 0).items()})
        lines = path.read_text().splitlines(keepends=True)
        edited = edit(lines)
        k = next(i for i, line in enumerate(edited, start=1) if line not in lines)
        path.write_text("".join(edited))
        with pytest.raises(ValueError, match=re.escape(f"{path}:{k}: ") + ".*" + named):
            load_params(path)

    def test_lines_are_little_endian_hex(self, tmp_path):
        spec = _spec("logistic")
        params = {k: np.full(v.shape, 1.0, np.float32) for k, v in init_params(spec).items()}
        path = tmp_path / "model.txt"
        save_params(path, spec, params)
        lines = path.read_text().splitlines()
        assert lines[0] == "cuisine-infer-model v3"
        assert "out/b\t3\t" + "0000803f" * 3 in lines

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("something else\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:1: model file magic")):
            load_params(p)


def test_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec(branches=(("a", 3),), variant="transformer")
    with pytest.raises(ValueError):
        NetworkSpec(branches=(("a", 0),))
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.0)


def test_dataset_helpers():
    ds = _toy_dataset(n=10)
    sub = ds.subset([0, 2, 4])
    assert sub.ids == ["r0", "r2", "r4"]
    assert sub.features["alpha"].shape == (3, 4)
    dropped = ds.drop_block("beta")
    assert list(dropped.features) == ["alpha"]
    with pytest.raises(KeyError):
        ds.drop_block("gamma")
    assert ds.spec_branches() == (("alpha", 4), ("beta", 3))
