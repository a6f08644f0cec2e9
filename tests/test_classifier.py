"""Linear multi-label head: frequency estimation, logit adjustment, loss and
gradients, deterministic training, prediction, F1 evaluation, checkpoints."""

from __future__ import annotations

import json
import math
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reportguide import classifier
from reportguide.bootstrap import (
    AnnotatedItem,
    LabelEntry,
    LabelTaxonomy,
    MLCDataset,
    labels_to_jsonl,
    taxonomy_fingerprint,
    taxonomy_to_json,
)
from reportguide.classifier import (
    ClassifierParams,
    _logit_shift,
    _sigmoid,
    adjust_logits,
    bce_loss_and_grad,
    checkpoint_to_json,
    compute_frequencies,
    evaluate_mlc,
    load_checkpoint,
    predict,
    predict_records,
    train,
)
from reportguide.cli import main
from reportguide.corpus import Corpus, FeatureMatrix, ReportRecord, save_features, save_manifest
from reportguide.errors import ConfigError, DataError
from reportguide.fileio import write_atomic
from reportguide.schema import TrainConfig


def _taxonomy(k: int) -> LabelTaxonomy:
    return LabelTaxonomy(
        labels=tuple(LabelEntry(index=i, name=f"L{i}") for i in range(k))
    )


def _params(weights, bias=None, frequencies=None, tau=1.0):
    weights = np.asarray(weights, dtype=np.float64)
    k = weights.shape[0]
    return ClassifierParams(
        weights=weights,
        bias=np.zeros(k) if bias is None else np.asarray(bias, dtype=np.float64),
        frequencies=np.full(k, 0.5) if frequencies is None else frequencies,
        tau=tau,
        taxonomy_hash=taxonomy_fingerprint(_taxonomy(k)),
    )


def _features(rows, ids):
    return FeatureMatrix(
        values=np.asarray(rows, dtype=np.float32), row_ids=tuple(ids)
    )


def _scores(params, items, features, threshold=0.5):
    """evaluate_mlc over the items' predictions, as `predict` scores them."""
    predicted = predict_records(params, features, [i.record_id for i in items], threshold)
    return evaluate_mlc(params.k, items, {rid: p.positives for rid, p in predicted.items()})


# ---------------------------------------------------------------------------
# Config and params validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epochs": 0},
        {"batch_size": 0},
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"adjustment": "maybe"},
        {"epochs": True},
        {"epochs": 2.5},
        {"tau": float("nan")},
        {"learning_rate": float("inf")},
        {"learning_rate": "abc"},
        {"seed": -1},
    ],
)
def test_train_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# Frequencies
# ---------------------------------------------------------------------------


def _dataset(k, items):
    return MLCDataset(taxonomy=_taxonomy(k), items=tuple(items))


def test_frequencies_are_training_positive_rates():
    dataset = _dataset(
        2,
        [
            AnnotatedItem("a", "train", (0,)),
            AnnotatedItem("b", "train", (0, 1)),
            AnnotatedItem("c", "train", ()),
            AnnotatedItem("d", "train", (1,)),
        ],
    )
    assert compute_frequencies(dataset).tolist() == [0.5, 0.5]


def test_frequencies_clamp_away_from_zero_and_one():
    dataset = _dataset(
        2,
        [AnnotatedItem(f"r{i}", "train", (0,)) for i in range(4)],
    )
    # Label 0 appears in all four items, label 1 in none; with n = 4 the
    # clamp is 1/8 on both sides.
    assert compute_frequencies(dataset).tolist() == [0.875, 0.125]


def test_frequencies_ignore_non_training_items():
    dataset = _dataset(
        1,
        [
            AnnotatedItem("a", "train", ()),
            AnnotatedItem("b", "train", (0,)),
            AnnotatedItem("c", "val", (0,)),
            AnnotatedItem("d", "test", (0,)),
        ],
    )
    assert compute_frequencies(dataset).tolist() == [0.5]


def test_frequencies_require_training_items():
    dataset = _dataset(1, [AnnotatedItem("a", "val", (0,))])
    with pytest.raises(DataError, match="^dataset has no training items$"):
        compute_frequencies(dataset)


# ---------------------------------------------------------------------------
# Logit adjustment
# ---------------------------------------------------------------------------


def test_adjust_zero_logit_at_ten_percent():
    out = adjust_logits(np.array([0.0]), np.array([0.1]), tau=1.0)
    assert out[0] == pytest.approx(-2.1972245773362196, abs=1e-6)


def test_adjust_shifts_by_log_odds_at_one_percent():
    out = adjust_logits(np.array([1.5]), np.array([0.01]), tau=1.0)
    assert out[0] == pytest.approx(1.5 - 4.59511985013459, abs=1e-6)


def test_adjust_is_exact_identity_at_half():
    rng = np.random.default_rng(0)
    z = rng.normal(size=100) * 10
    out = adjust_logits(z, np.full(100, 0.5), tau=1.0)
    assert np.array_equal(out, z)


def test_adjust_with_zero_tau_is_identity():
    rng = np.random.default_rng(1)
    z = rng.normal(size=32)
    p = rng.uniform(0.01, 0.99, size=32)
    assert np.array_equal(adjust_logits(z, p, tau=0.0), z)


def test_adjust_is_increasing_in_frequency():
    ps = np.linspace(0.05, 0.95, 19)
    out = adjust_logits(np.zeros_like(ps), ps, tau=1.0)
    assert np.all(np.diff(out) > 0)


def test_adjust_scales_linearly_with_tau():
    one = adjust_logits(np.array([0.0]), np.array([0.2]), tau=1.0)
    two = adjust_logits(np.array([0.0]), np.array([0.2]), tau=2.0)
    assert two[0] == pytest.approx(2 * one[0], rel=1e-12)


def test_adjust_broadcasts_frequency_vector_over_logit_matrix():
    z = np.zeros((3, 2))
    out = adjust_logits(z, np.array([0.5, 0.1]), tau=1.0)
    assert out.shape == (3, 2)
    assert np.all(out[:, 0] == 0.0)
    assert out[:, 1] == pytest.approx(math.log(1 / 9))


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------


def test_loss_at_zero_logit_is_log_two():
    params = _params(np.zeros((1, 1)))
    out = bce_loss_and_grad(np.array([0.0]), np.array([1.0]), params)
    assert out["loss"] == pytest.approx(math.log(2), abs=1e-12)


def test_loss_is_stable_for_large_confident_logit():
    # Matching a +30 logit to a positive target costs ~e^-30 and must not
    # lose the value to cancellation.
    params = _params(np.array([[30.0]]))
    out = bce_loss_and_grad(np.array([1.0]), np.array([1.0]), params, adjustment="off")
    assert out["loss"] == pytest.approx(math.exp(-30.0), rel=1e-6)


def test_loss_is_finite_at_extreme_logits():
    params = _params(np.array([[500.0]]))
    for y in (0.0, 1.0):
        out = bce_loss_and_grad(
            np.array([1.0]), np.array([y]), params, adjustment="off"
        )
        assert math.isfinite(out["loss"])
        assert np.all(np.isfinite(out["grad_w"]))
    # A wrong-sign saturated logit costs the logit itself.
    wrong = bce_loss_and_grad(
        np.array([1.0]), np.array([0.0]), params, adjustment="off"
    )
    assert wrong["loss"] == pytest.approx(500.0)


def test_loss_dimension_mismatches_raise():
    params = _params(np.zeros((2, 3)))
    with pytest.raises(DataError, match="^feature dim 4 does not match d=3$"):
        bce_loss_and_grad(np.zeros(4), np.zeros(2), params)
    with pytest.raises(DataError, match="^target dim 3 does not match k=2$"):
        bce_loss_and_grad(np.zeros(3), np.zeros(3), params)


@pytest.mark.parametrize("adjustment", ["on", "off"])
def test_gradients_match_finite_differences(adjustment):
    # Central differences as an independent oracle for the analytic gradient.
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(10):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        weights = rng.normal(size=(k, d))
        bias = rng.normal(size=k)
        freqs = rng.uniform(0.05, 0.95, size=k)
        x = rng.normal(size=d)
        y = rng.integers(0, 2, size=k).astype(np.float64)

        def loss_at(w, b):
            p = ClassifierParams(
                weights=w, bias=b, frequencies=freqs, tau=1.0, taxonomy_hash="t"
            )
            return bce_loss_and_grad(x, y, p, adjustment=adjustment)["loss"]

        params = ClassifierParams(
            weights=weights, bias=bias, frequencies=freqs, tau=1.0, taxonomy_hash="t"
        )
        out = bce_loss_and_grad(x, y, params, adjustment=adjustment)

        for j in range(k):
            for i in range(d):
                wp, wm = weights.copy(), weights.copy()
                wp[j, i] += h
                wm[j, i] -= h
                fd = (loss_at(wp, bias) - loss_at(wm, bias)) / (2 * h)
                an = out["grad_w"][j, i]
                assert abs(an - fd) <= 1e-5 * max(1.0, abs(an), abs(fd))
            bp, bm = bias.copy(), bias.copy()
            bp[j] += h
            bm[j] -= h
            fd = (loss_at(weights, bp) - loss_at(weights, bm)) / (2 * h)
            an = out["grad_b"][j]
            assert abs(an - fd) <= 1e-5 * max(1.0, abs(an), abs(fd))


def test_adjustment_changes_loss_for_rare_label():
    params = _params(np.zeros((1, 1)), frequencies=np.array([0.02]))
    on = bce_loss_and_grad(np.array([1.0]), np.array([1.0]), params, "on")
    off = bce_loss_and_grad(np.array([1.0]), np.array([1.0]), params, "off")
    # The negative shift makes a positive on a rare label more expensive.
    assert on["loss"] > off["loss"]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _separable_setup():
    """Two labels, each the sign of one feature coordinate; 20 train rows."""
    rng = np.random.default_rng(5)
    rows, items = [], []
    for i in range(20):
        x = rng.choice([-1.0, 1.0], size=2) + rng.normal(scale=0.05, size=2)
        positives = tuple(j for j in range(2) if x[j] > 0)
        rows.append(x)
        items.append(AnnotatedItem(f"r{i:02d}", "train", positives))
    dataset = _dataset(2, items)
    features = _features(rows, [f"r{i:02d}" for i in range(20)])
    return dataset, features


def test_training_fits_a_separable_problem():
    dataset, features = _separable_setup()
    config = TrainConfig(learning_rate=0.5, epochs=60, batch_size=4, seed=0)
    params = train(dataset, features, config)
    result = _scores(params, dataset.items, features)
    assert result["micro_f1"] == 1.0
    assert result["macro_f1"] == 1.0


def _per_batch_shift_train(dataset, features, config):
    """Reference trainer: the same loop with adjust_logits applied, and so the
    shift recomputed, in every batch. Returns (weights, bias)."""
    items = dataset.split_items("train")
    x_all = np.asarray([features.row_for_id(i.record_id) for i in items], dtype=np.float64)
    k = len(dataset.taxonomy)
    y_all = np.zeros((len(items), k))
    for i, item in enumerate(items):
        y_all[i, list(item.positives)] = 1.0
    frequencies = compute_frequencies(dataset)
    weights, bias = np.zeros((k, x_all.shape[1])), np.zeros(k)
    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        order = rng.permutation(len(items))
        for start in range(0, len(items), config.batch_size):
            idx = order[start : start + config.batch_size]
            x, y = x_all[idx], y_all[idx]
            z = x @ weights.T + bias
            if config.adjustment == "on":
                z = adjust_logits(z, frequencies, config.tau)
            dz = (_sigmoid(z) - y) / (k * len(idx))
            weights -= config.learning_rate * (dz.T @ x)
            bias -= config.learning_rate * dz.sum(axis=0)
    return weights, bias


@pytest.mark.parametrize("adjustment", ["on", "off"])
def test_training_matches_the_per_batch_shift_bit_for_bit(adjustment):
    dataset, features = _separable_setup()
    config = TrainConfig(
        learning_rate=0.3, epochs=7, batch_size=3, seed=4, tau=1.7, adjustment=adjustment
    )
    params = train(dataset, features, config)
    weights, bias = _per_batch_shift_train(dataset, features, config)
    assert np.array_equal(params.weights, weights)
    assert np.array_equal(params.bias, bias)


def test_training_reduces_loss_from_zero_init():
    dataset, features = _separable_setup()
    config = TrainConfig(learning_rate=0.5, epochs=5, batch_size=4, seed=0)
    params = train(dataset, features, config)
    trained = np.mean(
        [
            bce_loss_and_grad(
                features.row_for_id(i.record_id),
                [1.0 if j in i.positives else 0.0 for j in range(2)],
                params,
            )["loss"]
            for i in dataset.items
        ]
    )
    assert trained < math.log(2)


def test_training_is_bit_deterministic():
    dataset, features = _separable_setup()
    config = TrainConfig(learning_rate=0.3, epochs=10, batch_size=4, seed=7)
    a = train(dataset, features, config)
    b = train(dataset, features, config)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)
    assert checkpoint_to_json(a) == checkpoint_to_json(b)


def test_training_depends_on_seed():
    dataset, features = _separable_setup()
    a = train(dataset, features, TrainConfig(learning_rate=0.3, epochs=3, batch_size=4, seed=0))
    b = train(dataset, features, TrainConfig(learning_rate=0.3, epochs=3, batch_size=4, seed=1))
    assert not np.array_equal(a.weights, b.weights)


def test_training_names_missing_feature_record():
    dataset = _dataset(1, [AnnotatedItem("ghost", "train", (0,))])
    features = _features([[1.0]], ["other"])
    with pytest.raises(DataError, match="ghost"):
        train(dataset, features, TrainConfig(epochs=1))


def test_training_holds_no_float64_copy_of_the_features():
    n, d = 2000, 256
    dataset, features = _random_problem(n, d, 4, seed=5)
    tracemalloc.start()
    try:
        train(dataset, features, TrainConfig(epochs=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * d * 8 / 2, peak


def test_a_huge_test_row_leaves_every_epoch_unchecked():
    # The bound on every logit reads max|x| over the training rows only: a
    # 1e30 in a test row would fail it at this learning rate, and make each
    # epoch compute its loss.
    items = [AnnotatedItem(f"r{i}", "train", (i % 2,)) for i in range(6)]
    dataset = _dataset(2, [*items, AnnotatedItem("held", "test", (0,))])
    values = np.random.default_rng(3).uniform(-1.0, 1.0, size=(7, 3))
    ids = [f"r{i}" for i in range(6)] + ["held"]
    config = TrainConfig(learning_rate=1e240, epochs=3, batch_size=2)
    plain = checkpoint_to_json(train(dataset, _features(values, ids), config))
    values[6] = 1e30
    with mock.patch.object(classifier, "_mean_bce", wraps=classifier._mean_bce) as mean_bce:
        params = train(dataset, _features(values, ids), config)
    assert checkpoint_to_json(params) == plain
    assert mean_bce.call_count == 0


def test_divergence_reports_epoch_and_batch():
    # A single huge feature with an absurd learning rate overflows the
    # weights on the first update; the second batch then sees an infinite
    # loss no matter which order the permutation chose.
    dataset = _dataset(
        1,
        [AnnotatedItem("a", "train", (0,)), AnnotatedItem("b", "train", ())],
    )
    features = _features([[1000.0], [1000.0]], ["a", "b"])
    config = TrainConfig(learning_rate=1e306, epochs=1, batch_size=1, seed=0)
    message = "^training loss became non-finite at epoch 0, batch 1; lower the learning rate$"
    with np.errstate(over="ignore"), pytest.raises(DataError, match=message):
        train(dataset, features, config)


# The training loop as it was before the loss left the hot path: the mean BCE
# of every batch is computed and checked, each batch is fancy-indexed, and the
# sigmoid has two masked branches. The current trainer must match its weights
# bit for bit, and raise the same divergence error exactly where it raises.


def _masked_sigmoid(z: np.ndarray) -> np.ndarray:
    # Stable in both tails: exp is only ever taken of a non-positive value.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_batch_loss_grad(x, y, params, shift):
    n, k = y.shape
    z = x @ params.weights.T + params.bias
    if shift is not None:
        z = z + shift
    per_label = y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)
    loss = float(per_label.sum() / (k * n))
    dz = (_masked_sigmoid(z) - y) / (k * n)
    grad_w = dz.T @ x
    grad_b = dz.sum(axis=0)
    return loss, grad_w, grad_b


def _reference_train(dataset, features, config):
    train_items = dataset.split_items("train")
    if not train_items:
        raise DataError("dataset has no training items")

    rows = []
    for item in train_items:
        row = features.row_for_id(item.record_id)
        if row is None:
            raise DataError(
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
        taxonomy_hash="t",
    )

    # The shift is constant during training: computed once, added per batch.
    shift = _logit_shift(params.frequencies, params.tau) if config.adjustment == "on" else None
    rng = np.random.default_rng(config.seed)
    n = x_all.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            loss, grad_w, grad_b = _reference_batch_loss_grad(
                x_all[idx], y_all[idx], params, shift
            )
            if not math.isfinite(loss):
                raise DataError(
                    f"training loss became non-finite at epoch {epoch}, batch {batch_no}; "
                    f"lower the learning rate"
                )
            params.weights -= config.learning_rate * grad_w
            params.bias -= config.learning_rate * grad_b
    return params


def _random_problem(n, d, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * rng.choice([0.1, 1.0, 30.0], size=d)
    items = [
        AnnotatedItem(
            f"r{i:03d}", "train", tuple(j for j in range(k) if rng.random() < 0.3)
        )
        for i in range(n)
    ]
    return _dataset(k, items), _features(x, [f"r{i:03d}" for i in range(n)])


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 45),
    d=st.integers(1, 7),
    k=st.integers(1, 4),
    batch_size=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    tau=st.floats(0.0, 3.0),
    adjustment=st.sampled_from(["on", "off"]),
    learning_rate=st.sampled_from([1e-3, 0.05, 0.5, 4.0]),
    epochs=st.integers(1, 4),
    checked=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_training_matches_the_per_batch_loss_loop_bit_for_bit(
    n, d, k, batch_size, seed, tau, adjustment, learning_rate, epochs, checked
):
    dataset, features = _random_problem(n, d, k, seed)
    config = TrainConfig(
        learning_rate=learning_rate,
        epochs=epochs,
        batch_size=batch_size,
        seed=seed,
        tau=tau,
        adjustment=adjustment,
    )
    reference = _reference_train(dataset, features, config)
    params = train(dataset, features, config)
    assert np.array_equal(params.weights, reference.weights)
    assert np.array_equal(params.bias, reference.bias)
    # Epochs that take the checked, loss-computing loop must leave the same
    # weights, wherever they fall among the fast ones.
    verdicts = iter(checked)
    with mock.patch.object(classifier, "_epoch_stays_finite", lambda *a: next(verdicts)):
        mixed = train(dataset, features, config)
    assert np.array_equal(mixed.weights, reference.weights)
    assert np.array_equal(mixed.bias, reference.bias)


# Widths at which a gather chunk holds fewer rows than the training split, so
# an epoch spans several chunks, the last one short, ending in a short batch.
@pytest.mark.parametrize("n, d, batch_size", [(17, 4096, 3), (23, 2048, 5), (11, 8192, 4)])
@pytest.mark.parametrize("adjustment", ["on", "off"])
def test_training_across_several_gather_chunks_matches_the_loop_bit_for_bit(
    n, d, batch_size, adjustment
):
    chunk = batch_size * max(1, classifier._GATHER_BYTES // (8 * d * batch_size))
    assert chunk < n and n % chunk and n % batch_size
    dataset, features = _random_problem(n, d, 3, seed=n)
    config = TrainConfig(
        learning_rate=0.05, epochs=3, batch_size=batch_size, seed=d, tau=1.3,
        adjustment=adjustment,
    )
    reference = _reference_train(dataset, features, config)
    # All fast epochs, then a checked epoch between two fast ones.
    for stays_finite in ([True] * 3, [True, False, True]):
        verdicts = iter(stays_finite)
        with mock.patch.object(classifier, "_epoch_stays_finite", lambda *a: next(verdicts)):
            params = train(dataset, features, config)
        assert np.array_equal(params.weights, reference.weights)
        assert np.array_equal(params.bias, reference.bias)


def _divergence_case(xs, positives, learning_rate, batch_size, seed, adjustment):
    k = 1 + max((j for p in positives for j in p), default=0)
    items = [AnnotatedItem(f"r{i}", "train", p) for i, p in enumerate(positives)]
    dataset = _dataset(k, items)
    features = _features(xs, [f"r{i}" for i in range(len(xs))])
    config = TrainConfig(
        learning_rate=learning_rate,
        epochs=3,
        batch_size=batch_size,
        seed=seed,
        adjustment=adjustment,
    )
    return dataset, features, config


@pytest.mark.parametrize(
    "case, where",
    [
        # The weight stays a finite 5e305, but every logit overflows from the
        # second batch on, so the loss is NaN there.
        (([[1000.0], [1000.0]], [(0,), (0,)], 2e303, 1, 0, "on"), (0, 1)),
        # One batch per epoch: the first update overflows the weight, and the
        # loss first sees it in the second epoch.
        (([[1000.0], [2.0]], [(0,), (0,)], 1.5e308, 2, 3, "on"), (1, 0)),
        # Finite logits near 1e308 whose loss terms sum past the float range.
        (([[-1.0], [-1.0], [1.0], [-3.0]], [(), (), (), (0,)], 1.5e308, 2, 2, "off"), (0, 1)),
        # The same, first reached in the third epoch.
        (([[1000.0], [-1000.0], [-1000.0]], [(), (), (0,)], 1e303, 3, 2, "off"), (2, 0)),
    ],
)
def test_divergence_is_raised_where_the_per_batch_loss_loop_raises(case, where):
    dataset, features, config = _divergence_case(*case)
    message = "^training loss became non-finite at epoch {}, batch {}; lower the learning rate$"
    with np.errstate(all="ignore"):
        with pytest.raises(DataError, match=message.format(*where)):
            _reference_train(dataset, features, config)
        with pytest.raises(DataError, match=message.format(*where)):
            train(dataset, features, config)


def _last_update_overflow_case():
    # One epoch of one batch whose update overflows the weight to inf: no
    # later batch computes a loss from it.
    dataset, features, config = _divergence_case(
        [[1000.0], [2.0]], [(0,), (0,)], 1.5e308, 2, 3, "on"
    )
    return dataset, features, config.replace(epochs=1)


def test_an_overflow_in_the_last_update_is_a_divergence():
    dataset, features, config = _last_update_overflow_case()
    message = "^training parameters became non-finite at epoch 0, batch 0; lower the learning rate$"
    with np.errstate(all="ignore"):
        assert not np.isfinite(_reference_train(dataset, features, config).weights).all()
        with pytest.raises(DataError, match=message):
            train(dataset, features, config)


def test_an_overflow_in_the_last_update_exits_4_without_a_checkpoint(tmp_path):
    dataset, features, config = _last_update_overflow_case()
    workdir = tmp_path / "run"
    workdir.mkdir()
    records = [ReportRecord(id=item.record_id, split="train", report="x") for item in dataset.items]
    save_manifest(Corpus(records=records), tmp_path / "manifest.jsonl")
    save_features(features, tmp_path / "features.ffmx")
    write_atomic(workdir / "taxonomy.json", taxonomy_to_json(dataset.taxonomy))
    write_atomic(workdir / "labels.jsonl", labels_to_jsonl(dataset))
    with np.errstate(all="ignore"):
        code = main(
            [
                "train",
                "--workdir", str(workdir),
                "--seed", str(config.seed),
                "--set", f"paths.manifest={tmp_path / 'manifest.jsonl'}",
                "--set", f"paths.features={tmp_path / 'features.ffmx'}",
                "--set", f"train.learning_rate={config.learning_rate!r}",
                "--set", f"train.batch_size={config.batch_size}",
                "--set", "train.epochs=1",
            ]
        )
    assert code == 4
    assert not (workdir / "checkpoint.json").exists()


def test_large_but_finite_training_matches_the_reference():
    # A learning rate near the bound's limit: some epochs pass the a-priori
    # check and run fast, others fail it and run checked, and the run never
    # diverges.
    dataset, features = _random_problem(6, 1, 1, 4)
    config = TrainConfig(
        learning_rate=1.99e298, epochs=6, batch_size=2, seed=1, adjustment="off"
    )
    verdicts = []
    real = classifier._epoch_stays_finite

    def recording(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    with np.errstate(all="ignore"), mock.patch.object(classifier, "_epoch_stays_finite", recording):
        params = train(dataset, features, config)
        reference = _reference_train(dataset, features, config)
    assert True in verdicts and False in verdicts
    assert np.array_equal(params.weights, reference.weights)
    assert np.array_equal(params.bias, reference.bias)


@pytest.mark.parametrize("adjustment", ["on", "off"])
def test_zero_width_features_train_the_bias_as_the_reference_does(adjustment):
    items = [AnnotatedItem(f"r{i}", "train", p) for i, p in enumerate([(0,), (), (0, 1)])]
    dataset = _dataset(2, items)
    features = _features(np.zeros((3, 0)), ["r0", "r1", "r2"])
    config = TrainConfig(learning_rate=0.5, epochs=3, batch_size=2, adjustment=adjustment)
    params = train(dataset, features, config)
    reference = _reference_train(dataset, features, config)
    assert params.weights.shape == (2, 0)
    assert np.array_equal(params.bias, reference.bias)


def test_empty_taxonomy_diverges_where_the_reference_does():
    # An empty head's mean loss is 0 / 0 at the first batch.
    items = [AnnotatedItem(f"r{i}", "train", ()) for i in range(3)]
    dataset = _dataset(0, items)
    features = _features([[1.0], [2.0], [3.0]], ["r0", "r1", "r2"])
    config = TrainConfig(learning_rate=0.5, epochs=2, batch_size=2)
    message = "^training loss became non-finite at epoch 0, batch 0; lower the learning rate$"
    with np.errstate(all="ignore"):
        with pytest.raises(DataError, match=message):
            _reference_train(dataset, features, config)
        with pytest.raises(DataError, match=message):
            train(dataset, features, config)


@pytest.mark.parametrize(
    "weights, bias",
    [([[math.nan]], [0.0]), ([[0.0]], [math.inf]), ([[1e308]], [0.0])],
)
def test_epoch_bound_fails_on_non_finite_or_huge_parameters(weights, bias):
    params = _params(weights, bias)
    config = TrainConfig(learning_rate=1e-2, batch_size=4)
    with np.errstate(all="ignore"):
        assert not classifier._epoch_stays_finite(params, None, 1.0, config, 8)
    assert classifier._epoch_stays_finite(_params([[1.0]]), None, 1.0, config, 8)


SIGMOID_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 745.0, -745.0, 710.0, -710.0, 5e-324, -5e-324, 1e-300, 37.0, -37.0]


@pytest.mark.parametrize("z", SIGMOID_EDGES)
def test_sigmoid_matches_the_masked_version_at_edges(z):
    with np.errstate(all="ignore"):
        got = _sigmoid(np.array([z]))
        want = _masked_sigmoid(np.array([z]))
    assert np.array_equal(got, want, equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_sigmoid_matches_the_masked_version(values):
    z = np.array(values, dtype=np.float64)
    with np.errstate(all="ignore"):
        assert np.array_equal(_sigmoid(z), _masked_sigmoid(z), equal_nan=True)


def test_half_frequency_labels_train_identically_with_or_without_adjustment():
    # The adjustment shift is exactly zero at p = 0.5, and each label's
    # weight row sees only its own logits, so the rows of exactly-half
    # labels must be bit-identical across the two modes while a rare
    # label's row moves.
    rng = np.random.default_rng(11)
    n, d = 40, 3
    x = rng.normal(size=(n, d))
    items = []
    for i in range(n):
        positives = []
        if i < 20:
            positives.append(0)
        if i % 2 == 0:
            positives.append(1)
        if i < 4:
            positives.append(2)
        items.append(AnnotatedItem(f"r{i:02d}", "train", tuple(positives)))
    dataset = _dataset(3, items)
    features = _features(x, [f"r{i:02d}" for i in range(n)])
    assert compute_frequencies(dataset).tolist() == [0.5, 0.5, 0.1]

    on = train(dataset, features, TrainConfig(epochs=10, batch_size=8, seed=3, adjustment="on"))
    off = train(dataset, features, TrainConfig(epochs=10, batch_size=8, seed=3, adjustment="off"))
    assert np.array_equal(on.weights[:2], off.weights[:2])
    assert np.array_equal(on.bias[:2], off.bias[:2])
    assert not np.array_equal(on.weights[2], off.weights[2])


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def test_predict_probabilities_and_strict_threshold():
    # ln(19) maps to a probability of exactly 0.95; the zero row sits at 0.5
    # and must not cross the default threshold.
    params = _params(np.array([[2.9444389791664403], [0.0]]))
    pred = predict(params, np.array([1.0]))
    assert pred.probabilities == pytest.approx([0.95, 0.5], abs=1e-12)
    assert pred.positives == (0,)


def test_predict_custom_threshold():
    params = _params(np.array([[2.9444389791664403], [0.0]]))
    assert predict(params, np.array([1.0]), threshold=0.9).positives == (0,)
    assert predict(params, np.array([1.0]), threshold=0.96).positives == ()


def test_predict_zero_head_has_no_positives():
    params = _params(np.zeros((3, 2)))
    pred = predict(params, np.array([4.0, -4.0]))
    assert np.all(pred.probabilities == 0.5)
    assert pred.positives == ()


def test_predict_reapplies_shift_only_on_request():
    params = _params(np.zeros((1, 1)), frequencies=np.array([0.1]))
    raw = predict(params, np.array([0.0]))
    assert raw.probabilities[0] == pytest.approx(0.5, abs=1e-12)


def test_predict_rejects_wrong_dimension():
    params = _params(np.zeros((1, 3)))
    with pytest.raises(DataError, match="^feature dim 2 does not match d=3$"):
        predict(params, np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_evaluate_mlc_hand_counted_example():
    params = _params(np.diag([10.0, 10.0]))
    features = _features(
        [[1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
        ["r0", "r1", "r2", "r3"],
    )
    items = [
        AnnotatedItem("r0", "test", (0,)),
        AnnotatedItem("r1", "test", ()),
        AnnotatedItem("r2", "test", (1,)),
        AnnotatedItem("r3", "test", (1,)),
    ]
    result = _scores(params, items, features)
    assert result["macro_f1"] == pytest.approx(2 / 3, abs=1e-12)
    assert result["micro_f1"] == pytest.approx(2 / 3, abs=1e-12)
    by_index = {e["index"]: e for e in result["per_label"]}
    assert (by_index[0]["tp"], by_index[0]["fp"], by_index[0]["fn"]) == (1, 1, 0)
    assert (by_index[1]["tp"], by_index[1]["fp"], by_index[1]["fn"]) == (1, 0, 1)


def test_evaluate_mlc_perfect_predictions():
    dataset, features = _separable_setup()
    params = _params(np.diag([10.0, 10.0]))
    result = _scores(params, dataset.items, features)
    assert result["macro_f1"] == 1.0
    assert result["micro_f1"] == 1.0


def test_evaluate_mlc_absent_label_scores_zero():
    params = _params(np.array([[10.0, 0.0], [0.0, -10.0]]))
    features = _features([[1.0, 1.0]], ["r0"])
    items = [AnnotatedItem("r0", "test", (0,))]
    result = _scores(params, items, features)
    by_index = {e["index"]: e for e in result["per_label"]}
    assert by_index[1]["f1"] == 0.0
    assert result["macro_f1"] == pytest.approx(0.5)


def test_evaluate_mlc_scores_the_given_positives_as_they_are():
    dataset, _ = _separable_setup()
    truth = {item.record_id: item.positives for item in dataset.items}
    assert evaluate_mlc(2, dataset.items, truth)["macro_f1"] == 1.0
    wrong = {item.record_id: () for item in dataset.items}
    assert evaluate_mlc(2, dataset.items, wrong)["micro_f1"] == 0.0


def test_predict_records_predicts_each_id_in_the_given_order():
    dataset, features = _separable_setup()
    params = train(dataset, features, TrainConfig(learning_rate=0.5, epochs=3, batch_size=4))
    ids = [item.record_id for item in reversed(dataset.items)]
    predicted = predict_records(params, features, ids, 0.4)
    assert list(predicted) == ids
    for rid in ids:
        expected = predict(params, features.row_for_id(rid), threshold=0.4)
        assert predicted[rid].positives == expected.positives
        assert np.array_equal(predicted[rid].probabilities, expected.probabilities)


def test_predict_records_names_a_record_with_no_feature_row():
    params = _params(np.zeros((1, 1)))
    features = _features([[1.0]], ["present"])
    with pytest.raises(DataError, match="'absent' has no feature row"):
        predict_records(params, features, ["present", "absent"], 0.5)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_is_exact(tmp_path):
    dataset, features = _separable_setup()
    params = train(dataset, features, TrainConfig(epochs=5, batch_size=4, seed=2))
    path = tmp_path / "checkpoint.json"
    write_atomic(path, checkpoint_to_json(params))
    loaded = load_checkpoint(path, dataset.taxonomy)
    assert np.array_equal(loaded.weights, params.weights)
    assert np.array_equal(loaded.bias, params.bias)
    assert np.array_equal(loaded.frequencies, params.frequencies)
    assert loaded.tau == params.tau
    assert loaded.taxonomy_hash == params.taxonomy_hash
    # Re-serializing the loaded params reproduces the original bytes.
    assert checkpoint_to_json(loaded) == path.read_text(encoding="utf-8")


def test_checkpoint_survives_awkward_floats(tmp_path):
    params = _params(
        np.array([[0.1, 1 / 3, 1e-300], [-1e17, math.pi, 2**53 + 1.0]]),
        bias=np.array([1e-17, -0.0]),
    )
    path = tmp_path / "checkpoint.json"
    write_atomic(path, checkpoint_to_json(params))
    loaded = load_checkpoint(path, _taxonomy(2))
    assert np.array_equal(loaded.weights, params.weights)
    assert np.array_equal(loaded.bias, params.bias)


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text('{"version": 99}', encoding="utf-8")
    with pytest.raises(DataError, match="version"):
        load_checkpoint(path, _taxonomy(2))


def test_checkpoint_rejects_wrong_weight_count(tmp_path):
    path = tmp_path / "checkpoint.json"
    doc = (
        '{"version": 1, "k": 2, "d": 2, "tau": 1, "taxonomy_hash": "t", '
        '"frequencies": [0.5, 0.5], "bias": [0, 0], "weights": [1, 2, 3]}'
    )
    path.write_text(doc, encoding="utf-8")
    with pytest.raises(DataError, match="k\\*d"):
        load_checkpoint(path, _taxonomy(2))


def _tampered_checkpoint(tmp_path, edit) -> Path:
    doc = json.loads(checkpoint_to_json(_params([[1.0, 2.0], [3.0, 4.0]])))
    edit(doc)
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


def _set_first(key, value):
    return lambda doc: doc[key].__setitem__(0, value)


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_first("weights", math.nan), "'weights' holds a non-finite value"),
        (_set_first("weights", math.inf), "'weights' holds a non-finite value"),
        (_set_first("bias", -math.inf), "'bias' holds a non-finite value"),
        (_set_first("frequencies", math.nan), "'frequencies' holds a non-finite value"),
        (_set_first("weights", 10**400), "'weights' holds a non-finite value"),
        (_set("tau", math.nan), "tau must be a finite number, got nan"),
        (_set_first("weights", "1.0"), "'weights' must hold numbers only"),
        (_set_first("bias", True), "'bias' must hold numbers only"),
        (_set_first("weights", [1.0]), "'weights' must hold numbers only"),
        (_set("bias", 0.0), "'bias' must hold numbers only"),
        (_set("tau", "1"), "tau must be a finite number, got '1'"),
        (_set("k", "2"), "k and d must be positive integers"),
        (_set("k", True), "k and d must be positive integers"),
        (_set("d", 2.0), "k and d must be positive integers"),
        (_set("k", -2), "k and d must be positive integers"),
        (_set("taxonomy_hash", 7), "taxonomy_hash must be a string"),
    ]
    + [
        (lambda doc, key=key: doc.pop(key), f"missing {key}")
        for key in ("k", "d", "tau", "taxonomy_hash", "frequencies", "bias", "weights")
    ],
)
def test_checkpoint_rejects_malformed_values(tmp_path, edit, message):
    path = _tampered_checkpoint(tmp_path, edit)
    with pytest.raises(DataError, match=re.escape(message)):
        load_checkpoint(path, _taxonomy(2))


def test_checkpoint_is_bound_to_the_taxonomy_it_was_trained_against(tmp_path):
    path = _tampered_checkpoint(tmp_path, lambda doc: None)
    assert load_checkpoint(path, _taxonomy(2)).k == 2
    with pytest.raises(DataError, match="trained against a different taxonomy"):
        load_checkpoint(path, _taxonomy(3))
    wide = _params(np.zeros((3, 2)))
    wide.taxonomy_hash = taxonomy_fingerprint(_taxonomy(2))
    write_atomic(path, checkpoint_to_json(wide))
    with pytest.raises(DataError, match=re.escape(f"{path} has k=3 but the taxonomy")):
        load_checkpoint(path, _taxonomy(2))


def test_checkpoint_rejects_a_non_object_document(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(DataError, match="JSON object"):
        load_checkpoint(path, _taxonomy(2))


def test_checkpoint_rejects_invalid_json(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError, match="JSON"):
        load_checkpoint(path, _taxonomy(2))
