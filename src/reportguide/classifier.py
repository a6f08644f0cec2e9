"""Multi-label linear classifier with long-tail logit adjustment.

The head is a plain linear map trained with sigmoid cross-entropy. During
training each logit is shifted by the log-odds of its label's empirical
training frequency, scaled by tau; rare labels get a large negative shift,
so the weights must push harder to call them positive. Inference uses the
raw, unshifted logits, which is where the tail recall gain comes from.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bootstrap import MLCDataset, taxonomy_fingerprint
from .corpus import FeatureMatrix
from .errors import ConfigError, DivergenceError, TrainingError
from .schema import check_fields

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    tau: float = 1.0
    adjustment: str = "on"

    def __post_init__(self):
        check_fields(self)
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.adjustment not in ("on", "off"):
            raise ConfigError(f"adjustment must be 'on' or 'off', got {self.adjustment!r}")


@dataclass
class ClassifierParams:
    """Trained head: weights (k x d), bias (k), and the training metadata
    needed to reproduce the logit shift."""

    weights: np.ndarray
    bias: np.ndarray
    frequencies: np.ndarray
    tau: float
    taxonomy_hash: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        self.frequencies = np.asarray(self.frequencies, dtype=np.float64)
        if self.weights.ndim != 2:
            raise TrainingError(f"weights must be 2-D, got shape {self.weights.shape}")
        k = self.weights.shape[0]
        if self.bias.shape != (k,):
            raise TrainingError(f"bias shape {self.bias.shape} does not match k={k}")
        if self.frequencies.shape != (k,):
            raise TrainingError(
                f"frequencies shape {self.frequencies.shape} does not match k={k}"
            )
        if np.any(self.frequencies <= 0) or np.any(self.frequencies >= 1):
            raise TrainingError("frequencies must lie strictly inside (0, 1)")

    @property
    def k(self) -> int:
        return int(self.weights.shape[0])

    @property
    def d(self) -> int:
        return int(self.weights.shape[1])


@dataclass(frozen=True)
class Prediction:
    probabilities: np.ndarray
    positives: tuple[int, ...]


def compute_frequencies(dataset: MLCDataset) -> np.ndarray:
    """Per-label positive rate over the training split, clamped away from
    0 and 1 so the log-odds shift stays finite."""
    train_items = dataset.split_items("train")
    n = len(train_items)
    if n == 0:
        raise TrainingError("dataset has no training items")
    k = len(dataset.taxonomy)
    counts = np.zeros(k, dtype=np.float64)
    for item in train_items:
        for j in item.positives:
            counts[j] += 1.0
    eps = 1.0 / (2.0 * n)
    return np.clip(counts / n, eps, 1.0 - eps)


def _logit_shift(frequencies, tau: float) -> np.ndarray:
    """tau times the log-odds of each label frequency: the training shift."""
    p = np.asarray(frequencies, dtype=np.float64)
    if np.any(p <= 0) or np.any(p >= 1):
        raise TrainingError("frequencies must lie strictly inside (0, 1)")
    return tau * np.log(p / (1.0 - p))


def adjust_logits(logits, frequencies, tau: float) -> np.ndarray:
    """Shift logits by tau times the log-odds of each label frequency.

    Accepts scalars or arrays; frequencies broadcast against logits, so a
    (n, k) logit matrix pairs with a length-k frequency vector. At p = 0.5
    the shift is exactly zero and logits pass through unchanged.
    """
    return np.asarray(logits, dtype=np.float64) + _logit_shift(frequencies, tau)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Stable in both tails: exp is only ever taken of a non-positive value.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _batch_loss_grad(
    x: np.ndarray,
    y: np.ndarray,
    params: ClassifierParams,
    shift: np.ndarray | None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean BCE over labels and batch rows, with analytic gradients.

    `shift`, when given, is added to every row of logits: the training-time
    logit adjustment. Loss per row is the mean over the k labels of
    y*softplus(-z) + (1-y)*softplus(z), evaluated with logaddexp so large
    logits cannot overflow. The gradient wrt each (possibly shifted) logit
    is (sigmoid(z) - y) / (k * batch).
    """
    n, k = y.shape
    z = x @ params.weights.T + params.bias
    if shift is not None:
        z = z + shift
    per_label = y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)
    loss = float(per_label.sum() / (k * n))
    dz = (_sigmoid(z) - y) / (k * n)
    grad_w = dz.T @ x
    grad_b = dz.sum(axis=0)
    return loss, grad_w, grad_b


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
        raise TrainingError(f"feature dim {x.shape[1]} does not match d={params.d}")
    if y.shape[1] != params.k:
        raise TrainingError(f"target dim {y.shape[1]} does not match k={params.k}")
    shift = _logit_shift(params.frequencies, params.tau) if adjustment == "on" else None
    loss, grad_w, grad_b = _batch_loss_grad(x, y, params, shift)
    return {"loss": loss, "grad_w": grad_w, "grad_b": grad_b}


def train(
    dataset: MLCDataset,
    features: FeatureMatrix,
    config: TrainConfig,
    checkpoint_path: str | Path | None = None,
) -> ClassifierParams:
    """Deterministic mini-batch gradient descent from zero-initialized weights.

    The same dataset, features, and config always produce bit-identical
    parameters: shuffling comes from one seeded generator and batches are
    accumulated in a fixed order.
    """
    train_items = dataset.split_items("train")
    if not train_items:
        raise TrainingError("dataset has no training items")

    rows = []
    for item in train_items:
        row = features.row_for_id(item.record_id)
        if row is None:
            raise TrainingError(
                f"training record {item.record_id!r} has no feature row"
            )
        rows.append(row)
    x_all = np.asarray(rows, dtype=np.float64)
    k = len(dataset.taxonomy)
    y_all = np.zeros((len(train_items), k), dtype=np.float64)
    for i, item in enumerate(train_items):
        y_all[i, list(item.positives)] = 1.0

    params = ClassifierParams(
        weights=np.zeros((k, x_all.shape[1]), dtype=np.float64),
        bias=np.zeros(k, dtype=np.float64),
        frequencies=compute_frequencies(dataset),
        tau=config.tau,
        taxonomy_hash=taxonomy_fingerprint(dataset.taxonomy),
    )

    # The shift is constant during training: computed once, added per batch.
    shift = _logit_shift(params.frequencies, params.tau) if config.adjustment == "on" else None
    rng = np.random.default_rng(config.seed)
    n = x_all.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            loss, grad_w, grad_b = _batch_loss_grad(
                x_all[idx], y_all[idx], params, shift
            )
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"training loss became non-finite at epoch {epoch}, batch {batch_no}; "
                    f"lower the learning rate",
                    epoch=epoch,
                    batch=batch_no,
                )
            params.weights -= config.learning_rate * grad_w
            params.bias -= config.learning_rate * grad_b

    if checkpoint_path is not None:
        save_checkpoint(params, checkpoint_path)
    return params


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
        raise TrainingError(f"feature dim {x.shape[0]} does not match d={params.d}")
    z = params.weights @ x + params.bias
    probs = _sigmoid(z)
    positives = tuple(int(j) for j in range(params.k) if probs[j] > threshold)
    return Prediction(probabilities=probs, positives=positives)


def evaluate_mlc(
    params: ClassifierParams,
    items,
    features: FeatureMatrix,
    threshold: float = 0.5,
) -> dict:
    """Macro and micro F1 over a list of annotated items.

    Per-label F1 comes from pooled TP/FP/FN counts; a label never predicted
    and never present contributes 0 to the macro average.
    """
    k = params.k
    tp = np.zeros(k, dtype=np.int64)
    fp = np.zeros(k, dtype=np.int64)
    fn = np.zeros(k, dtype=np.int64)
    for item in items:
        row = features.row_for_id(item.record_id)
        if row is None:
            raise TrainingError(f"record {item.record_id!r} has no feature row")
        predicted = set(predict(params, row, threshold=threshold).positives)
        actual = set(item.positives)
        for j in range(k):
            if j in predicted and j in actual:
                tp[j] += 1
            elif j in predicted:
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


def save_checkpoint(params: ClassifierParams, path: str | Path) -> None:
    Path(path).write_text(checkpoint_to_json(params), encoding="utf-8")


_CHECKPOINT_KEYS = ("k", "d", "tau", "taxonomy_hash", "frequencies", "bias", "weights")


def _finite_floats(path, key: str, values) -> np.ndarray:
    """A checkpoint's JSON list of numbers as float64, all finite."""
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise TrainingError(f"checkpoint {path}: {key!r} must hold numbers only")
    try:
        array = np.asarray(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        array = np.array([math.inf])
    if not np.all(np.isfinite(array)):
        raise TrainingError(f"checkpoint {path}: {key!r} holds a non-finite value")
    return array


def load_checkpoint(path: str | Path) -> ClassifierParams:
    """Read a checkpoint; a missing, ill-typed or non-finite value is a
    TrainingError, so a damaged file never yields NaN predictions."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise TrainingError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TrainingError(f"checkpoint {path} must hold a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise TrainingError(
            f"checkpoint {path} has unsupported version {doc.get('version')!r}"
        )
    missing = [key for key in _CHECKPOINT_KEYS if key not in doc]
    if missing:
        raise TrainingError(f"checkpoint {path} is missing {', '.join(missing)}")
    k, d = doc["k"], doc["d"]
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in (k, d)):
        raise TrainingError(f"checkpoint {path}: k and d must be positive integers")
    if not isinstance(doc["taxonomy_hash"], str):
        raise TrainingError(f"checkpoint {path}: taxonomy_hash must be a string")
    weights = _finite_floats(path, "weights", doc["weights"])
    if weights.shape != (k * d,):
        raise TrainingError(
            f"checkpoint {path}: weights length {weights.shape[0]} != k*d = {k * d}"
        )
    return ClassifierParams(
        weights=weights.reshape(k, d),
        bias=_finite_floats(path, "bias", doc["bias"]),
        frequencies=_finite_floats(path, "frequencies", doc["frequencies"]),
        tau=float(_finite_floats(path, "tau", [doc["tau"]])[0]),
        taxonomy_hash=doc["taxonomy_hash"],
    )
