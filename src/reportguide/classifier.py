"""Multi-label linear classifier with long-tail logit adjustment.

The head is a plain linear map trained with sigmoid cross-entropy. During
training each logit is shifted by the log-odds of its label's empirical
training frequency, scaled by tau; rare labels get a large negative shift,
so the weights must push harder to call them positive. Inference uses the
raw, unshifted logits, which is where the tail recall gain comes from.
One function, `_batch_step`, computes a batch's logits and gradient: `train`
runs it on every batch and `bce_loss_and_grad` on one example, so a gradient
check of the latter checks the code that trains.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bootstrap import LabelTaxonomy, MLCDataset, taxonomy_fingerprint
from .corpus import FeatureMatrix
from .errors import DataError
from .fileio import read_json
from .schema import TrainConfig, check_values

CHECKPOINT_VERSION = 1


class ClassifierParams:
    """Trained head: float64 weights (k x d), bias (k), and the training
    metadata needed to reproduce the logit shift: each label's frequency,
    strictly inside (0, 1), and tau. `train` builds them so and
    `load_checkpoint` checks them; a library caller passes them so."""

    def __init__(
        self,
        weights: np.ndarray,
        bias: np.ndarray,
        frequencies: np.ndarray,
        tau: float,
        taxonomy_hash: str,
    ):
        self.weights = weights
        self.bias = bias
        self.frequencies = frequencies
        self.tau = tau
        self.taxonomy_hash = taxonomy_hash

    @property
    def k(self) -> int:
        return int(self.weights.shape[0])

    @property
    def d(self) -> int:
        return int(self.weights.shape[1])


class Prediction(NamedTuple):
    probabilities: np.ndarray
    positives: tuple[int, ...]


def compute_frequencies(dataset: MLCDataset) -> np.ndarray:
    """Per-label positive rate over the training split, clamped away from
    0 and 1 so the log-odds shift stays finite."""
    train_items = dataset.split_items("train")
    n = len(train_items)
    if n == 0:
        raise DataError("dataset has no training items")
    k = len(dataset.taxonomy)
    counts = np.zeros(k, dtype=np.float64)
    for item in train_items:
        for j in item.positives:
            counts[j] += 1.0
    eps = 1.0 / (2.0 * n)
    return np.clip(counts / n, eps, 1.0 - eps)


def _logit_shift(frequencies, tau: float) -> np.ndarray:
    """tau times the log-odds of each label frequency: the training shift.
    Each frequency lies strictly inside (0, 1), as `compute_frequencies`
    clips it and `load_checkpoint` checks it."""
    p = np.asarray(frequencies, dtype=np.float64)
    return tau * np.log(p / (1.0 - p))


def adjust_logits(logits, frequencies, tau: float) -> np.ndarray:
    """Shift logits by tau times the log-odds of each label frequency.

    Accepts scalars or arrays; frequencies broadcast against logits, so a
    (n, k) logit matrix pairs with a length-k frequency vector. Each
    frequency must lie strictly inside (0, 1). At p = 0.5 the shift is
    exactly zero and logits pass through unchanged.
    """
    return np.asarray(logits, dtype=np.float64) + _logit_shift(frequencies, tau)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Stable in both tails: exp is only ever taken of -|z|. The result is
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, since the
    # numerator max(e^-|z|, sign z) is 1 for z > 0, e^-|z| for z < 0, 1 at
    # z = 0 and NaN for NaN. Sign and max cost less than a mask and a where.
    e = np.exp(np.copysign(z, -1.0))
    return np.maximum(e, np.sign(z)) / (1.0 + e)


def _batch_step(x, y, weights_t, bias, shift, z, e, s, grad_w, grad_b) -> None:
    """One batch's logits and mean-BCE gradient, written into the buffers.

    `z` gets the logits x @ weights_t + bias, plus `shift` (the training-time
    logit adjustment) when given. `s` then gets the gradient wrt each logit,
    (sigmoid(z) - y) / (k * batch), with `e` as scratch, and `grad_w` and
    `grad_b` the gradients of the weights and the bias. Each buffer has the
    batch's rows; the loss, when wanted, is `_mean_bce(z, y)` afterwards.
    """
    np.matmul(x, weights_t, out=z)
    z += bias
    if shift is not None:
        z += shift
    # _sigmoid(z), then minus y, over k * batch.
    np.copysign(z, -1.0, out=e)
    np.exp(e, out=e)
    np.sign(z, out=s)
    np.maximum(e, s, out=s)
    np.add(1.0, e, out=e)
    np.divide(s, e, out=s)
    np.subtract(s, y, out=s)
    np.divide(s, s.size, out=s)
    np.matmul(s.T, x, out=grad_w)
    np.add.reduce(s, axis=0, out=grad_b)


def _mean_bce(z: np.ndarray, y: np.ndarray) -> float:
    """Mean over labels and rows of y*softplus(-z) + (1-y)*softplus(z),
    evaluated with logaddexp so large logits cannot overflow."""
    n, k = y.shape
    per_label = y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)
    return float(per_label.sum() / (k * n))


def bce_loss_and_grad(
    features: np.ndarray,
    target: np.ndarray,
    params: ClassifierParams,
    adjustment: str = "on",
) -> dict:
    """Single-example loss and gradients; the unit the trainer accumulates."""
    x = np.asarray(features, dtype=np.float64).reshape(1, -1)
    y = np.asarray(target, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != params.d:
        raise DataError(f"feature dim {x.shape[1]} does not match d={params.d}")
    if y.shape[1] != params.k:
        raise DataError(f"target dim {y.shape[1]} does not match k={params.k}")
    shift = _logit_shift(params.frequencies, params.tau) if adjustment == "on" else None
    z, e, s = (np.empty((1, params.k)) for _ in range(3))
    grad_w, grad_b = np.empty((params.k, params.d)), np.empty(params.k)
    _batch_step(x, y, params.weights.T, params.bias, shift, z, e, s, grad_w, grad_b)
    return {"loss": _mean_bce(z, y), "grad_w": grad_w, "grad_b": grad_b}


# Rows gathered per step of the fast loop: thousands at narrow widths, one
# batch of 32 at d=1024, so the gather buffer stays about 256 KiB.
_GATHER_BYTES = 1 << 18
# The fast loop runs an epoch only if every logit stays within this sum over
# batch_size * k: a batch's softplus terms, each at most |z| + log 2, then
# add up to far below the float range, so its loss is finite.
_SAFE_LOSS_SUM = 1e300


@np.errstate(over="ignore", invalid="ignore")
def train(
    dataset: MLCDataset,
    features: FeatureMatrix,
    config: TrainConfig,
) -> ClassifierParams:
    """Deterministic mini-batch gradient descent from zero-initialized weights.

    The same dataset, features, and config always produce bit-identical
    parameters: shuffling comes from one seeded generator and batches are
    accumulated in a fixed order.

    A logit shift that tau makes non-finite raises DataError naming
    `train.tau` before the first batch, and a non-finite mean loss at any
    batch one naming the epoch and batch, before that batch's update; the
    loss is computed only in epochs that could reach one (see
    _epoch_stays_finite). A weight or bias left non-finite by the last update
    raises one naming its epoch and batch, so non-finite parameters are never
    returned. numpy does not warn of the overflows these errors report.
    """
    train_items = dataset.split_items("train")

    # Each training item's row of the float32 feature matrix. Batches are
    # gathered from it a chunk at a time and widened to float64, which is
    # exact, so no float64 copy of the training split is held.
    index = np.empty(len(train_items), dtype=np.intp)
    for i, item in enumerate(train_items):
        row = features.row_index(item.record_id)
        if row is None:
            raise DataError(
                f"training record {item.record_id!r} has no feature row"
            )
        index[i] = row
    k = len(dataset.taxonomy)
    y_all = np.zeros((len(train_items), k), dtype=np.uint8)
    for i, item in enumerate(train_items):
        y_all[i, list(item.positives)] = 1

    n, d = len(index), features.dim
    # Weights and bias are views of one block, so one update moves both.
    block = np.zeros((k, d + 1), dtype=np.float64)
    params = ClassifierParams(
        weights=block[:, :d],
        bias=block[:, d],
        frequencies=compute_frequencies(dataset),
        tau=config.tau,
        taxonomy_hash=taxonomy_fingerprint(dataset.taxonomy),
    )
    grads = np.empty_like(block)

    # The shift is constant during training: computed once, added per batch.
    shift = _logit_shift(params.frequencies, params.tau) if config.adjustment == "on" else None
    if shift is not None and not np.isfinite(shift).all():
        raise DataError(f"train.tau={config.tau!r} makes the logit shift non-finite; lower it")
    rng = np.random.default_rng(config.seed)
    bs, lr = config.batch_size, config.learning_rate
    chunk = bs * max(1, _GATHER_BYTES // max(1, 8 * d * bs))
    # np.take gathers a chunk in the stored dtypes, float32 rows and uint8
    # targets, and np.copyto widens them into the float64 gather buffers.
    # Every index is in range, so "clip" never clips; unlike the default
    # mode it fills `out` without a copy.
    height = min(chunk, n)
    rows_buf = np.empty(height, dtype=np.intp)
    x_rows, y_rows = np.empty((height, d), dtype=np.float32), np.empty((height, k), dtype=np.uint8)
    x_buf, y_buf = np.empty((height, d)), np.empty((height, k))
    # Every per-batch temporary lives in one of these (batch rows x k).
    z_buf, e_buf, s_buf = (np.empty((min(bs, n), k)) for _ in range(3))

    def batch_views(length: int) -> list[tuple]:
        """Each batch of a gathered chunk of `length` rows: its start, its
        rows of the gather buffers, and the temporaries cut to its row count."""
        views = []
        for start in range(0, length, bs):
            m = min(bs, length - start)
            rows = slice(start, start + m)
            views.append((start, x_buf[rows], y_buf[rows], z_buf[:m], e_buf[:m], s_buf[:m]))
        return views

    views_of: dict[int, list[tuple]] = {}
    # The largest |x| over the training rows, which bounds every epoch.
    x_max = 0.0
    for first in range(0, n, chunk):
        xs = x_rows[: min(chunk, n - first)]
        np.take(features.values, index[first : first + chunk], axis=0, out=xs, mode="clip")
        x_max = max(x_max, float(xs.max(initial=0.0)), -float(xs.min(initial=0.0)))
    weights_t, bias, grad_w, grad_b = block[:, :d].T, block[:, d], grads[:, :d], grads[:, d]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        checked = not _epoch_stays_finite(params, shift, x_max, config, n)
        for first in range(0, n, chunk):
            taken = order[first : first + chunk]
            m = len(taken)
            np.take(index, taken, out=rows_buf[:m], mode="clip")
            np.take(features.values, rows_buf[:m], axis=0, out=x_rows[:m], mode="clip")
            np.copyto(x_buf[:m], x_rows[:m])
            np.take(y_all, taken, axis=0, out=y_rows[:m], mode="clip")
            np.copyto(y_buf[:m], y_rows[:m])
            if m not in views_of:
                views_of[m] = batch_views(m)
            for start, xb, yb, z, e, s in views_of[m]:
                _batch_step(xb, yb, weights_t, bias, shift, z, e, s, grad_w, grad_b)
                if checked and not math.isfinite(_mean_bce(z, yb)):
                    batch_no = (first + start) // bs
                    raise DataError(
                        f"training loss became non-finite at epoch {epoch}, batch {batch_no}; "
                        f"lower the learning rate"
                    )
                grads *= lr
                block -= grads

    # A non-finite parameter makes the next batch's loss non-finite, so only
    # the very last update can leave one unreported.
    if not np.isfinite(block).all():
        epoch, batch_no = config.epochs - 1, -(-n // bs) - 1
        raise DataError(
            f"training parameters became non-finite at epoch {epoch}, batch {batch_no}; "
            f"lower the learning rate"
        )
    params.weights, params.bias = block[:, :d].copy(), block[:, d].copy()
    return params


def _epoch_stays_finite(params, shift, x_max: float, config: TrainConfig, n: int) -> bool:
    """True when no batch of the coming epoch can have a non-finite loss.

    While every logit is finite, |sigmoid - y| <= 1, so one update moves each
    weight by at most lr * max|x| / k and each bias by at most lr / k. Over
    the epoch's batches that bounds every logit; the factor 2 covers
    rounding. A NaN or inf anywhere makes the bound fail, never pass, and so
    does an empty head, whose mean loss is 0 / 0: no taxonomy file yields
    one, since `load_taxonomy` refuses an empty taxonomy, but a caller may
    pass one.
    """
    k, d = params.weights.shape
    if k == 0:
        return False
    growth = config.learning_rate * -(-n // config.batch_size) / k
    bound = 2.0 * (
        d * x_max * (np.abs(params.weights).max(initial=0.0) + growth * x_max)
        + np.abs(params.bias).max()
        + growth
        + (0.0 if shift is None else np.abs(shift).max())
    )
    return bool(bound <= _SAFE_LOSS_SUM / (config.batch_size * k))


def predict(
    params: ClassifierParams,
    features: np.ndarray,
    threshold: float = 0.5,
) -> Prediction:
    """Probabilities and thresholded positives for one feature vector.

    Inference uses raw logits: the training-time shift is never applied.
    The threshold comparison is strict, so an all-zero head (every
    probability exactly 0.5) yields no positives at the default threshold.
    """
    x = np.asarray(features, dtype=np.float64).reshape(-1)
    if x.shape[0] != params.d:
        raise DataError(f"feature dim {x.shape[0]} does not match d={params.d}")
    z = params.weights @ x + params.bias
    probs = _sigmoid(z)
    positives = tuple(int(j) for j in range(params.k) if probs[j] > threshold)
    return Prediction(probabilities=probs, positives=positives)


def predict_records(
    params: ClassifierParams,
    features: FeatureMatrix,
    ids,
    threshold: float,
) -> dict[str, Prediction]:
    """Predict each record id from its feature row, keyed in the order given.

    The one inference loop: a record with no feature row is a
    DataError.
    """
    predictions: dict[str, Prediction] = {}
    for record_id in ids:
        row = features.row_index(record_id)
        if row is None:
            raise DataError(f"record {record_id!r} has no feature row")
        predictions[record_id] = predict(params, features.values[row], threshold=threshold)
    return predictions


def evaluate_mlc(k: int, items, predicted: dict[str, tuple[int, ...]]) -> dict:
    """Macro and micro F1 of predicted positives over annotated items.

    `predicted` maps each item's record id to its predicted positives among
    the k labels. Per-label F1 comes from pooled TP/FP/FN counts; a label
    never predicted and never present contributes 0 to the macro average.
    """
    tp = np.zeros(k, dtype=np.int64)
    fp = np.zeros(k, dtype=np.int64)
    fn = np.zeros(k, dtype=np.int64)
    for item in items:
        predicted_set = set(predicted[item.record_id])
        actual = set(item.positives)
        for j in range(k):
            if j in predicted_set and j in actual:
                tp[j] += 1
            elif j in predicted_set:
                fp[j] += 1
            elif j in actual:
                fn[j] += 1

    def f1(tp_: float, fp_: float, fn_: float) -> float:
        denom = 2 * tp_ + fp_ + fn_
        return (2 * tp_ / denom) if denom else 0.0

    per_label = [
        {
            "index": j,
            "tp": int(tp[j]),
            "fp": int(fp[j]),
            "fn": int(fn[j]),
            "f1": f1(tp[j], fp[j], fn[j]),
        }
        for j in range(k)
    ]
    macro = float(sum(e["f1"] for e in per_label) / k) if k else 0.0
    micro = f1(float(tp.sum()), float(fp.sum()), float(fn.sum()))
    return {"macro_f1": macro, "micro_f1": float(micro), "per_label": per_label}


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    # 17 significant digits round-trip IEEE doubles exactly.
    return format(float(x), ".17g")


def _fmt_array(values: np.ndarray) -> str:
    return "[" + ", ".join(_fmt(v) for v in np.asarray(values).reshape(-1)) + "]"


def checkpoint_to_json(params: ClassifierParams) -> str:
    lines = [
        "{",
        f'  "version": {CHECKPOINT_VERSION},',
        f'  "k": {params.k},',
        f'  "d": {params.d},',
        f'  "tau": {_fmt(params.tau)},',
        f'  "taxonomy_hash": {json.dumps(params.taxonomy_hash)},',
        f'  "frequencies": {_fmt_array(params.frequencies)},',
        f'  "bias": {_fmt_array(params.bias)},',
        f'  "weights": {_fmt_array(params.weights)}',
        "}",
    ]
    return "\n".join(lines) + "\n"


_CHECKPOINT_KEYS = ("k", "d", "tau", "taxonomy_hash", "frequencies", "bias", "weights")


def _finite_floats(path, key: str, values) -> np.ndarray:
    """A checkpoint's JSON list of numbers as float64, all finite."""
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise DataError(f"checkpoint {path}: {key!r} must hold numbers only")
    try:
        array = np.asarray(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        array = np.array([math.inf])
    if not np.all(np.isfinite(array)):
        raise DataError(f"checkpoint {path}: {key!r} holds a non-finite value")
    return array


def load_checkpoint(path: str | Path, taxonomy: LabelTaxonomy) -> ClassifierParams:
    """Read a checkpoint bound to `taxonomy`. A missing, ill-typed or
    non-finite value, an array whose length disagrees with k and d, a
    frequency outside (0, 1), a tau that `train.tau`'s declaration rejects,
    or a checkpoint trained against another taxonomy or another number of
    labels is a DataError, so a damaged or stale file never yields NaN or
    misnamed predictions."""
    doc = read_json(path, DataError, f"checkpoint {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise DataError(
            f"checkpoint {path} has unsupported version {doc.get('version')!r}"
        )
    missing = [key for key in _CHECKPOINT_KEYS if key not in doc]
    if missing:
        raise DataError(f"checkpoint {path} is missing {', '.join(missing)}")
    k, d = doc["k"], doc["d"]
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in (k, d)):
        raise DataError(f"checkpoint {path}: k and d must be positive integers")
    if not isinstance(doc["taxonomy_hash"], str):
        raise DataError(f"checkpoint {path}: taxonomy_hash must be a string")
    weights = _finite_floats(path, "weights", doc["weights"])
    if weights.shape != (k * d,):
        raise DataError(
            f"checkpoint {path}: weights length {weights.shape[0]} != k*d = {k * d}"
        )
    check_values(TrainConfig, {"tau": doc["tau"]}, DataError, f"checkpoint {path}: ")
    bias = _finite_floats(path, "bias", doc["bias"])
    frequencies = _finite_floats(path, "frequencies", doc["frequencies"])
    for key, array in (("bias", bias), ("frequencies", frequencies)):
        if array.shape != (k,):
            raise DataError(f"checkpoint {path}: {key} length {array.shape[0]} != k = {k}")
    if np.any(frequencies <= 0) or np.any(frequencies >= 1):
        raise DataError(f"checkpoint {path}: frequencies must lie strictly inside (0, 1)")
    params = ClassifierParams(
        weights=weights.reshape(k, d),
        bias=bias,
        frequencies=frequencies,
        tau=float(doc["tau"]),
        taxonomy_hash=doc["taxonomy_hash"],
    )
    if params.taxonomy_hash != taxonomy_fingerprint(taxonomy):
        raise DataError(
            "checkpoint was trained against a different taxonomy than the one "
            "in the workdir; re-run the train stage"
        )
    if k != len(taxonomy):
        raise DataError(
            f"checkpoint {path} has k={k} but the taxonomy in the workdir "
            f"has {len(taxonomy)} labels; re-run the train stage"
        )
    return params
