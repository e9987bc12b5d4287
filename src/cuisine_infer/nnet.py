"""Multi-branch feedforward classifier over per-block feature vectors.

Each block passes through its own ReLU branch layers. A join layer with
one column block per branch sums the branch outputs into the first trunk
layer, or straight into the output layer when there is no trunk. ReLU trunk
layers with dropout follow, then the affine output layer and a softmax.
LAYOUT gives each variant's shape: residual_deep (two hidden layers per
branch, the first added to the branch output as a skip, every trunk
layer), deep (the same without the skip), shallow (one hidden layer per
branch, one trunk layer) and logistic (no hidden layer: affine + softmax on
the raw features). init_params, forward and backward each walk the same
layer list. Trained with plain minibatch SGD; all math in numpy with
analytic gradients. With two usable CPUs `train` computes about half of the
branches in a forked helper process, and gives the bytes of one process.

`forward` and `backward` compute in the dtype of the parameters. `train`
works in float32 (DTYPE) and returns float32 parameters; `init_params`
draws in float64, which the gradient checks use as it is.
"""

from __future__ import annotations

import itertools
import os
import signal
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import BLAS_THREAD_VARS
from .txn_core import N_CLASSES, derive_seed, write_records

# variant -> (hidden layers per branch, h1 added to the branch output,
# trunk layers used: None = all of trunk_hidden)
LAYOUT = {
    "residual_deep": (2, True, None),
    "deep": (2, False, None),
    "shallow": (1, False, 1),
    "logistic": (0, False, 0),
}
VARIANTS = tuple(LAYOUT)

DTYPE = np.float32  # the precision train computes in and returns


@dataclass(frozen=True)
class NetworkSpec:
    branches: tuple          # ((block name, input dim), ...)
    branch_hidden: int = 64
    trunk_hidden: tuple = (256, 128)
    n_classes: int = N_CLASSES
    variant: str = "residual_deep"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant: must be one of {VARIANTS}, got {self.variant!r}")
        if self.branch_hidden < 1:
            raise ValueError("branch_hidden: must be >= 1")
        if not self.trunk_hidden or any(h < 1 for h in self.trunk_hidden):
            raise ValueError("trunk_hidden: must be a nonempty list of values >= 1")
        for name, dim in self.branches:
            if dim < 1:
                raise ValueError(f"branch {name}: nonpositive input dim {dim}")

    @property
    def block_names(self) -> list[str]:
        return [name for name, _ in self.branches]

    @cached_property
    def keys(self) -> "_Keys":
        """The parameter and cache keys of forward and backward, built on
        first use and kept with the spec."""
        return _keys(self)


@dataclass(frozen=True)
class TrainConfig:
    dropout: float = 0.0
    batch_size: int = 128
    learning_rate: float = 0.1
    epochs: int = 100
    seed: int = 0
    class_weights: bool = False

    def __post_init__(self):
        if not (0 <= self.dropout < 1):
            raise ValueError("dropout: must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size: must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs: must be >= 1")
        if not self.learning_rate >= 0:
            raise ValueError("learning_rate: must be >= 0")


def _branch_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, name))


def _he(rng, fan_out: int, fan_in: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))


def _layers(spec: NetworkSpec) -> list[tuple[str, str, str, int]]:
    """The layers after the branches, input to output, as (stream, weight
    key, bias key, width): the trunk layers the variant uses, then the
    output layer. The first, the join, ignores its weight key: it holds one
    column block per branch, `{stream}/{block}`, drawn from stream
    `{stream}:{block}`."""
    widths = spec.trunk_hidden[:LAYOUT[spec.variant][2]]
    return [(f"trunk{i}", f"trunk/W{i}", f"trunk/b{i}", w) for i, w in enumerate(widths)] \
        + [("out", "out/W", "out/b", spec.n_classes)]


class _Keys(NamedTuple):
    # per block, in declaration order: (name, join weight key, per hidden
    # layer (weight key, bias key, input cache key, pre-activation cache key))
    branches: tuple
    # the same sorted by block name: the join's summation order
    joined: tuple
    join_bias: str
    join_width: int
    # per layer after the join: (weight key, bias key, and the cache keys of
    # its input before ReLU, its dropout mask and its input after dropout)
    layers: tuple


def _keys(spec: NetworkSpec) -> _Keys:
    n_hidden = LAYOUT[spec.variant][0]
    (join, _, join_bias, join_width), *rest = _layers(spec)
    branches = tuple(
        (name, f"{join}/{name}",
         tuple((f"branch/{name}/W{j}", f"branch/{name}/b{j}", f"{name}/h{j - 1}", f"{name}/a{j}")
               for j in range(1, n_hidden + 1)))
        for name in spec.block_names)
    layers = tuple((weight, bias, f"t_pre{k}", f"mask{k}", f"t_drop{k}")
                   for k, (_, weight, bias, _) in enumerate(rest))
    return _Keys(branches, tuple(sorted(branches)), join_bias, join_width, layers)


def init_params(spec: NetworkSpec, seed: int = 0) -> dict[str, np.ndarray]:
    """He-scaled random init, keyed per branch name so branch declaration
    order does not affect the drawn weights."""
    params: dict[str, np.ndarray] = {}
    h = spec.branch_hidden
    n_hidden = LAYOUT[spec.variant][0]
    for name, dim in spec.branches:
        rng = _branch_rng(seed, "branch:" + name)
        for j in range(1, n_hidden + 1):
            params[f"branch/{name}/W{j}"] = _he(rng, h, dim if j == 1 else h)
            params[f"branch/{name}/b{j}"] = np.zeros(h)
    (join, _, bias, prev), *rest = _layers(spec)
    for name, dim in spec.branches:
        params[f"{join}/{name}"] = _he(_branch_rng(seed, f"{join}:{name}"), prev,
                                      h if n_hidden else dim)
    params[bias] = np.zeros(prev)
    for stream, weight, bias, width in rest:
        params[weight] = _he(_branch_rng(seed, stream), width, prev)
        params[bias] = np.zeros(width)
        prev = width
    return params


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _dropout_mask(rng, shape, dropout: float, dtype) -> np.ndarray:
    """Inverted-dropout mask: 0 or 1 / (1 - dropout), drawn in float64 so the
    RNG sequence does not depend on `dtype`."""
    return ((rng.random(shape) >= dropout) / (1 - dropout)).astype(dtype, copy=False)


def _product(params, branch, h: np.ndarray, skip: bool, cache) -> np.ndarray:
    """One branch's hidden layers on its block's features `h`, then its join
    product `out @ W_join.T`, in the dtype of `params`. With a `cache` it
    keeps each layer's input and pre-activation and the branch output for
    `_branch_grads`."""
    name, join_weight, hidden = branch
    h = h.astype(params[join_weight].dtype, copy=False)
    for weight, bias, h_key, a_key in hidden:
        a = h @ params[weight].T + params[bias]
        if cache is not None:
            cache[h_key], cache[a_key] = h, a
        h_in, h = h, np.maximum(a, 0.0)
    # the skip adds h1, the second (last) hidden layer's input
    out = h + h_in if skip else h
    if cache is not None:
        cache["branch_out"][name] = out
    return out @ params[join_weight].T


def _join(params, spec: NetworkSpec, branches, features, n: int, cache) -> np.ndarray:
    """The join's bias plus the products of `branches`, a run of
    `spec.keys.joined` starting at its first entry, in that order."""
    keys, skip = spec.keys, LAYOUT[spec.variant][1]
    t = np.zeros((n, keys.join_width), params[keys.join_bias].dtype) + params[keys.join_bias]
    for branch in branches:
        t += _product(params, branch, features[branch[0]], skip, cache)
    return t


def _trunk(params, spec: NetworkSpec, t: np.ndarray, cache, dropout: float, rng) -> np.ndarray:
    """The class probabilities from the join's output `t`: the trunk layers
    with ReLU and, when `dropout` > 0, a dropout mask each, then the output
    layer and the softmax. With a `cache` it keeps what `_trunk_grads` reads."""
    for weight, bias, pre_key, mask_key, drop_key in spec.keys.layers:
        if cache is not None:
            cache[pre_key] = t
        t = np.maximum(t, 0.0)
        if dropout > 0:
            mask = _dropout_mask(rng, t.shape, dropout, t.dtype)
            if cache is not None:
                cache[mask_key] = mask
            t *= mask
        if cache is not None:
            cache[drop_key] = t
        t = t @ params[weight].T + params[bias]
    probs = _softmax(t)
    if cache is not None:
        cache["probs"] = probs
    return probs


def forward(params, spec: NetworkSpec, features: dict[str, np.ndarray],
            train_mode: bool = False, dropout: float = 0.0,
            rng: np.random.Generator | None = None, keep_cache: bool = True):
    """Run the network in the dtype of `params`; returns (class
    probabilities, cache for backward). With `keep_cache=False` it keeps no
    activations and returns None for the cache: each branch's output joins
    the sum as soon as it is computed, so one branch's activations are live
    at a time."""
    n = next(iter(features.values())).shape[0]
    for name, dim in spec.branches:
        if features[name].shape != (n, dim):
            raise ValueError(
                f"branch {name}: expected shape {(n, dim)}, got {features[name].shape}")
    use_dropout = train_mode and dropout > 0
    if use_dropout and rng is None:
        raise ValueError("dropout in train mode requires an rng")
    dropout = dropout if use_dropout else 0.0
    cache = {"dropout": dropout, "branch_out": {}} if keep_cache else None
    # the branches in sorted name order, the join's summation order, so
    # branch declaration order cannot perturb floating-point summation
    t = _join(params, spec, spec.keys.joined, features, n, cache)
    return _trunk(params, spec, t, cache, dropout, rng), cache


def cross_entropy(probs: np.ndarray, onehot: np.ndarray,
                  sample_weights: np.ndarray | None = None) -> float:
    p = np.clip((probs * onehot).sum(axis=1), 1e-12, None)
    losses = -np.log(p)
    if sample_weights is not None:
        losses = losses * sample_weights
    return float(losses.mean())


def _trunk_grads(params, spec: NetworkSpec, cache, onehot, sample_weights, grads) -> np.ndarray:
    """Put the gradients of the trunk, the output layer and the join's bias
    in `grads`; returns `dt`, the gradient at the join's output."""
    probs = cache["probs"]
    dlogits = (probs - onehot.astype(probs.dtype, copy=False)) / probs.shape[0]
    if sample_weights is not None:
        dlogits = dlogits * sample_weights.astype(probs.dtype, copy=False)[:, None]
    keys = spec.keys
    dt = dlogits
    for weight, bias, pre_key, mask_key, drop_key in reversed(keys.layers):
        grads[weight] = dt.T @ cache[drop_key]
        grads[bias] = dt.sum(axis=0)
        dt = dt @ params[weight]
        if cache["dropout"] > 0:
            dt = dt * cache[mask_key]
        dt = dt * (cache[pre_key] > 0)
    grads[keys.join_bias] = dt.sum(axis=0)
    return dt


def _branch_grads(params, branch, skip: bool, dt: np.ndarray, cache, grads) -> None:
    """Put the gradients of one branch and its join block in `grads`, from
    `dt` and the branch's cached activations."""
    name, join_weight, hidden = branch
    grads[join_weight] = dt.T @ cache["branch_out"][name]
    if not hidden:
        return
    dout = dh = dt @ params[join_weight]
    for j in range(len(hidden) - 1, -1, -1):
        weight, bias, h_key, a_key = hidden[j]
        da = dh * (cache[a_key] > 0)
        grads[weight] = da.T @ cache[h_key]
        grads[bias] = da.sum(axis=0)
        if j:
            dh = da @ params[weight]
            if skip and j == 1:
                dh = dh + dout


def backward(params, spec: NetworkSpec, cache, onehot: np.ndarray,
             sample_weights: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Exact gradients of the mean cross-entropy loss w.r.t. all params, in
    the dtype of the forward pass."""
    grads: dict[str, np.ndarray] = {}
    dt = _trunk_grads(params, spec, cache, onehot, sample_weights, grads)
    for branch in spec.keys.branches:
        _branch_grads(params, branch, LAYOUT[spec.variant][1], dt, cache, grads)
    return grads


@dataclass
class FeatureDataset:
    """Aligned per-block feature matrices plus integer class labels."""

    ids: list[str]
    features: dict[str, np.ndarray]   # block name -> (n, dim)
    labels: np.ndarray                # (n,) int codes, -1 for unlabeled
    # per embedding block, the rows that had no vector and got zeros
    zero_filled: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ids)

    def subset(self, idx) -> "FeatureDataset":
        idx = np.asarray(idx, dtype=np.intp)  # an empty list indexes too
        return FeatureDataset(
            [self.ids[i] for i in idx],
            {k: v[idx] for k, v in self.features.items()},
            self.labels[idx],
        )

    def drop_block(self, name: str) -> "FeatureDataset":
        if name not in self.features:
            raise KeyError(name)
        return FeatureDataset(
            self.ids, {k: v for k, v in self.features.items() if k != name}, self.labels)

    def spec_branches(self) -> tuple:
        return tuple((name, mat.shape[1]) for name, mat in self.features.items())


def standardize(train: FeatureDataset, *others: FeatureDataset):
    """Z-score every block using the training-set statistics."""
    stats = {}
    for name, mat in train.features.items():
        mu = mat.mean(axis=0)
        sd = mat.std(axis=0)
        sd[sd < 1e-9] = 1.0
        stats[name] = (mu, sd)
    out = []
    for ds in (train, *others):
        feats = {name: (mat - stats[name][0]) / stats[name][1]
                 for name, mat in ds.features.items()}
        out.append(FeatureDataset(ds.ids, feats, ds.labels))
    return out[0] if not others else tuple(out)


def _onehot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), n_classes), DTYPE)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def usable_workers(spec: NetworkSpec) -> int:
    """Processes that can share work over `spec`'s branches: one per usable
    CPU, at most one per block."""
    return min(len(spec.branches), len(os.sched_getaffinity(0)))


def restore_default_sigterm() -> None:
    """Make SIGTERM stop this process. A fork inherits the caller's handler,
    which may catch the signal and carry on, or unwind into the caller's
    frames."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def train_procs(spec: NetworkSpec) -> int:
    """Processes `train` computes the branches in: 2, this one and a forked
    helper, when two usable CPUs and two blocks allow it, BLAS runs on one
    thread (each of `BLAS_THREAD_VARS` is 1, as the command line sets them:
    two processes with a BLAS thread pool each would oversubscribe the CPUs),
    and this process is neither a worker of another process nor running a
    second thread (a fork copies only the calling thread); 1 otherwise."""
    # here, so that the scoring stages do not pay for them
    import multiprocessing
    import threading

    if (any(os.environ.get(var) != "1" for var in BLAS_THREAD_VARS)
            or multiprocessing.parent_process() is not None or threading.active_count() > 1):
        return 1
    return min(2, usable_workers(spec))


def _split(params, spec: NetworkSpec) -> int:
    """How many of `spec.keys.joined` the training process computes when a
    helper computes the rest: the count that best balances the two sides'
    branch weights, which set their multiply-adds per row. The trunk counts
    on neither side: the helper waits for `dt` while it runs."""
    costs = np.cumsum([params[join_weight].size + sum(params[w].size for w, *_ in hidden)
                       for _, join_weight, hidden in spec.keys.joined])
    here = costs[:-1]
    return 1 + int(np.argmin(np.maximum(here, costs[-1] - here)))


def _apply(params, grads, learning_rate: float) -> None:
    for key, g in grads.items():
        params[key] -= learning_rate * g


class _Helper:
    """A forked process that computes the branches `branches` of every
    training step and val pass, for `train` in the process that made it.

    It holds those branches' parameters from the fork on and returns them
    once, from `finish`. For each pass the pipe carries the batch's row
    indices; the helper writes its branches' join products into a shared
    anonymous map, and reads from it the gradient at the join's output,
    `dt`, from which it takes its own gradient step. Every wait on the
    helper raises a RuntimeError if it failed or died, and `close` joins it
    on every path.
    """

    def __init__(self, params, spec: NetworkSpec, branches, sets: dict,
                 learning_rate: float, rows: int):
        import mmap
        import multiprocessing

        shape = (len(branches) + 1, rows, spec.keys.join_width)
        shared = np.ndarray(shape, DTYPE, mmap.mmap(-1, int(np.prod(shape)) * DTYPE(0).nbytes))
        self._products, self._dt = shared[:-1], shared[-1]
        context = multiprocessing.get_context("fork")
        self.conn, child = context.Pipe()
        # a fork under multiprocessing leaves by os._exit, so the helper never
        # unwinds into the caller's frames and their `finally` blocks
        self.process = context.Process(
            target=_serve, daemon=True,
            args=(child, self.conn, params, spec, branches, sets, learning_rate,
                  self._products, self._dt))
        self.process.start()
        child.close()

    def request(self, rows) -> None:
        """Start the helper's pass over rows `rows` of the training set, or
        over the val set when `rows` is None."""
        self._send(("join", rows))

    def products(self, n: int) -> np.ndarray:
        """The requested pass's join products, (branch, n, join width)."""
        self._reply()
        return self._products[:, :n]

    def step(self, dt: np.ndarray) -> None:
        """Have the helper take its gradient step from `dt`."""
        self._dt[:len(dt)] = dt
        self._send(("step", len(dt)))

    def finish(self) -> dict[str, np.ndarray]:
        """The helper's parameters; it leaves after sending them."""
        self._send(("finish", None))
        return self._reply()

    def close(self) -> None:
        # on the end of its pipe the helper leaves, if it has not already
        self.conn.close()
        self.process.join()

    def _send(self, message) -> None:
        try:
            self.conn.send(message)
        except OSError:  # the helper is gone: its last words say why
            self._reply()
            raise

    def _reply(self):
        try:
            status, payload = self.conn.recv()
        except (EOFError, OSError):
            status, payload = "exited", None
        if status == "ok":
            return payload
        self.process.join()
        raise RuntimeError(f"training helper failed: {payload}" if status == "error"
                           else f"training helper exited with code {self.process.exitcode}")


def _serve(conn, parent_end, params, spec: NetworkSpec, branches, sets: dict,
           learning_rate: float, products: np.ndarray, dt: np.ndarray) -> None:
    """The helper's loop: answer `_Helper`'s requests until it sends
    "finish" or closes its end of the pipe."""
    restore_default_sigterm()
    parent_end.close()
    skip = LAYOUT[spec.variant][1]
    cache = None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                try:
                    kind, arg = conn.recv()
                except EOFError:
                    return
                if kind == "join":
                    data = sets["val"] if arg is None else sets["train"]
                    cache = None if arg is None else {"branch_out": {}}
                    for out, branch in zip(products, branches):
                        h = data[branch[0]] if arg is None else data[branch[0]][arg]
                        out[:len(h)] = _product(params, branch, h, skip, cache)
                    conn.send(("ok", None))
                elif kind == "step":
                    grads: dict[str, np.ndarray] = {}
                    for branch in branches:
                        _branch_grads(params, branch, skip, dt[:arg], cache, grads)
                    _apply(params, grads, learning_rate)
                    cache = None
                else:
                    conn.send(("ok", {key: params[key] for key in _branch_keys(branches)}))
                    return
    except Exception:
        import traceback

        conn.send(("error", traceback.format_exc()))
        sys.exit(1)


def _branch_keys(branches):
    for _, join_weight, hidden in branches:
        yield join_weight
        for weight, bias, *_ in hidden:
            yield weight
            yield bias


def train(dataset: FeatureDataset, spec: NetworkSpec, cfg: TrainConfig,
          val: FeatureDataset | None = None):
    """Seeded shuffled minibatch SGD in DTYPE; returns (params, loss curve).

    The float64 initial parameters, the features, the one-hot targets and the
    class weights are cast to DTYPE once, before the first step.
    Loss curve rows: (epoch, train loss, val loss or nan). The train loss is
    the batch-size-weighted mean of the epoch's minibatch losses, each taken
    before its step; the val loss is that of the parameters after the epoch.
    A non-finite minibatch loss is a ValueError naming its epoch, its step
    within the epoch and the learning rate.

    With `train_procs` 2, a forked helper computes the branches after the
    first `_split` of `spec.keys.joined` in every pass, beside this process.
    Every matrix product keeps its operands and the join its summation
    order, and dropout masks and shuffles come from this process's one RNG,
    so the parameters and the curve are those of one process, bit for bit.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    params = {key: p.astype(DTYPE) for key, p in init_params(spec, cfg.seed).items()}
    sets = {"train": {k: v.astype(DTYPE) for k, v in dataset.features.items()}}
    rng = np.random.default_rng((cfg.seed << 32) ^ 0x5EED)
    onehot = _onehot(dataset.labels, spec.n_classes)
    weights = None
    if cfg.class_weights:
        counts = np.bincount(dataset.labels, minlength=spec.n_classes).astype(float)
        inv = np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0)
        inv = inv / inv[counts > 0].mean() if (counts > 0).any() else inv
        weights = inv[dataset.labels].astype(DTYPE)
    has_val = val is not None and len(val) > 0
    if has_val:
        sets["val"] = {k: v.astype(DTYPE) for k, v in val.features.items()}
        val_onehot = _onehot(val.labels, spec.n_classes)
    curve = []
    n = len(dataset)
    joined = spec.keys.joined
    split = _split(params, spec) if train_procs(spec) == 2 else len(joined)
    local = joined[:split]  # the branches this process computes
    helper = None
    try:
        if split < len(joined):
            helper = _Helper(params, spec, joined[split:], sets, cfg.learning_rate,
                             max(min(cfg.batch_size, n), len(val) if has_val else 0))
        # an overflow on the way to a non-finite loss is reported by the loss
        # check below, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(cfg.epochs):
                order = rng.permutation(n)
                loss_sum = 0.0
                for start in range(0, n, cfg.batch_size):
                    idx = order[start:start + cfg.batch_size]
                    loss = _sgd_step(params, spec, cfg, rng, local, helper, sets["train"], idx,
                                     onehot[idx], None if weights is None else weights[idx])
                    if not np.isfinite(loss):
                        raise ValueError(
                            f"training diverged: loss {loss} at epoch {epoch}, step "
                            f"{start // cfg.batch_size}, learning_rate {cfg.learning_rate}")
                    loss_sum += loss * len(idx)
                tr_loss = loss_sum / n
                if has_val:
                    t = _joined(params, spec, local, helper, sets["val"], None, None)
                    v_loss = cross_entropy(_trunk(params, spec, t, None, 0.0, None), val_onehot)
                else:
                    v_loss = float("nan")
                curve.append((epoch, tr_loss, v_loss))
        if helper is not None:
            params.update(helper.finish())
    finally:
        if helper is not None:
            helper.close()
    return params, curve


def _joined(params, spec: NetworkSpec, local, helper: _Helper | None, data, rows, cache):
    """The join's output for rows `rows` of the block features `data`, or all
    of them when `rows` is None: the products of the `local` branches, a
    leading run of `spec.keys.joined`, computed here while the helper
    computes the rest, then the helper's added in that order."""
    if helper is not None:
        helper.request(rows)
    n = len(next(iter(data.values()))) if rows is None else len(rows)
    t = _join(params, spec, local, data if rows is None else
              {name: data[name][rows] for name, *_ in local}, n, cache)
    if helper is not None:
        for product in helper.products(n):
            t += product
    return t


def _sgd_step(params, spec: NetworkSpec, cfg: TrainConfig, rng, local, helper, data, rows,
              onehot, weights) -> float:
    """One SGD step on rows `rows` of `data`, updating `params` in place (the
    helper updates its own); returns the minibatch loss, taken before the
    step. A non-finite loss leaves every parameter as it is. The step's
    activations and gradients are freed when it returns."""
    cache = {"dropout": cfg.dropout, "branch_out": {}}
    t = _joined(params, spec, local, helper, data, rows, cache)
    loss = cross_entropy(_trunk(params, spec, t, cache, cfg.dropout, rng), onehot, weights)
    if np.isfinite(loss):
        grads: dict[str, np.ndarray] = {}
        dt = _trunk_grads(params, spec, cache, onehot, weights, grads)
        if helper is not None:
            helper.step(dt)
        for branch in local:
            _branch_grads(params, branch, LAYOUT[spec.variant][1], dt, cache, grads)
        _apply(params, grads, cfg.learning_rate)
    return loss


def predict_proba(params, spec: NetworkSpec, dataset: FeatureDataset) -> np.ndarray:
    probs, _ = forward(params, spec, dataset.features, keep_cache=False)
    return probs


def topk_from_probs(probs: np.ndarray, k: int) -> np.ndarray:
    """Top-k class codes per sample, probability descending, ties broken by
    ascending class code."""
    n, c = probs.shape
    codes = np.tile(np.arange(c), (n, 1))
    order = np.lexsort((codes, -probs), axis=1)
    return order[:, :k]


def accuracy(params, spec: NetworkSpec, dataset: FeatureDataset) -> float:
    top1 = topk_from_probs(predict_proba(params, spec, dataset), 1)[:, 0]
    return float((top1 == dataset.labels).mean())


MODEL_MAGIC = "cuisine-infer-model v3"
HEADER_FIELDS = ("variant", "branch_hidden", "trunk_hidden", "n_classes", "branches", "dtype")
DTYPES = ("float32", "float64")


def save_params(path, spec: NetworkSpec, params: dict[str, np.ndarray]) -> None:
    """Versioned text dump: spec and dtype line, then one `key shape hex`
    line per parameter. The hex field is the parameter's little-endian bytes
    in the recorded dtype, so it loads back bit-exact. A non-finite value is
    a ValueError naming its parameter, raised before the file is opened."""
    for key in sorted(params):
        if not np.isfinite(params[key]).all():
            raise ValueError(f"parameter {key}: non-finite value; the model is not saved")
    dtype = params["out/b"].dtype.name
    le = np.dtype(dtype).newbyteorder("<")
    header = [f"variant={spec.variant}", f"branch_hidden={spec.branch_hidden}",
              f"trunk_hidden={','.join(map(str, spec.trunk_hidden))}",
              f"n_classes={spec.n_classes}",
              f"branches={';'.join(f'{n}:{d}' for n, d in spec.branches)}", f"dtype={dtype}"]
    # a generator, so that one parameter's hex text is held at a time
    write_records(path, itertools.chain([[MODEL_MAGIC], header], (
        (key, ",".join(map(str, params[key].shape)), np.asarray(params[key], le).tobytes().hex())
        for key in sorted(params))))


def load_params(path):
    """Read a save_params file; returns (spec, params in the recorded dtype).

    Raises ValueError naming the header field or parameter key when the
    file's fields, keys, shapes or byte counts differ from those init_params
    gives the recorded spec, or a value is not finite."""
    with open(path, "r", encoding="utf-8") as fh:
        magic = fh.readline().strip()
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: model file magic {magic!r}, expected {MODEL_MAGIC!r}")
        meta = dict(kv.partition("=")[::2] for kv in fh.readline().rstrip("\n").split("\t"))
        for field in HEADER_FIELDS:
            if field not in meta:
                raise ValueError(f"{path}: model header lacks field {field}")
        for field in meta:
            if field not in HEADER_FIELDS:
                raise ValueError(f"{path}: unknown model header field {field!r}")
        if meta["dtype"] not in DTYPES:
            raise ValueError(f"{path}: dtype must be one of {DTYPES}, got {meta['dtype']!r}")
        le = np.dtype(meta["dtype"]).newbyteorder("<")
        try:
            spec = NetworkSpec(
                branches=tuple((n, int(d)) for n, d in
                               (b.split(":") for b in meta["branches"].split(";"))),
                branch_hidden=int(meta["branch_hidden"]),
                trunk_hidden=tuple(int(x) for x in meta["trunk_hidden"].split(",")),
                n_classes=int(meta["n_classes"]),
                variant=meta["variant"],
            )
        except ValueError as exc:
            raise ValueError(f"{path}: bad model header: {exc}") from None
        shapes = {key: p.shape for key, p in init_params(spec).items()}
        params = {}
        for line in fh:
            key, _, rest = line.rstrip("\n").partition("\t")
            if key not in shapes:
                raise ValueError(f"{path}: unexpected parameter {key!r}")
            if key in params:
                raise ValueError(f"{path}: parameter {key} appears twice")
            try:
                shape_text, hex_text = rest.split("\t")
                shape = tuple(int(s) for s in shape_text.split(","))
                raw = bytes.fromhex(hex_text)
            except ValueError:
                raise ValueError(f"{path}: parameter {key}: malformed line") from None
            n_bytes = int(np.prod(shape)) * le.itemsize
            if len(raw) != n_bytes:
                raise ValueError(f"{path}: parameter {key}: {len(raw)} bytes, expected "
                                 f"{n_bytes} for shape {shape} of {meta['dtype']}")
            if shape != shapes[key]:
                raise ValueError(f"{path}: parameter {key}: shape {shape}, "
                                 f"expected {shapes[key]}")
            arr = np.frombuffer(raw, le).reshape(shape).astype(meta["dtype"])
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}: parameter {key}: non-finite value")
            params[key] = arr
    for key in shapes:
        if key not in params:
            raise ValueError(f"{path}: missing parameter {key}")
    return spec, params
