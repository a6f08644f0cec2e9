"""Acceptance gate.

Each test runs one acceptance criterion end to end at its stated tolerance
and emits exactly one `Cn: PASS/FAIL — detail` line, echoed both into the
captured test output and into the terminal summary section.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

import conftest
from test_metrics import _TOY_CANDIDATES, _TOY_REFERENCES, _oracle_cider

from reportguide.bootstrap import (
    AnnotatedItem,
    LabelEntry,
    LabelTaxonomy,
    MLCDataset,
    bootstrap_dataset,
    labels_to_jsonl,
    merge_label_sets,
    taxonomy_to_json,
)
from reportguide.classifier import (
    ClassifierParams,
    adjust_logits,
    bce_loss_and_grad,
    evaluate_mlc,
    predict,
    predict_records,
    train,
)
from reportguide.cli import main
from reportguide.corpus import FeatureMatrix
from reportguide.gateway import GatewayConfig
from reportguide.guidance import serialize_labels
from reportguide.metrics import (
    bleu_scores,
    cider_d_scores,
    entity_overlap,
    meteor_sample,
    rouge_l_sample,
    tokenize,
)
from reportguide.schema import BootstrapConfig, TrainConfig


def _record(tag: str, passed: bool, detail: str) -> None:
    line = f"{tag}: {'PASS' if passed else 'FAIL'} — {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def criterion(tag: str):
    """Wrap a criterion body returning (passed, detail) so that every
    outcome — including an unexpected crash — leaves a summary line."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                passed, detail = fn(*args, **kwargs)
            except Exception as exc:
                _record(tag, False, f"raised {type(exc).__name__}: {exc}")
                raise
            _record(tag, passed, detail)
            assert passed, f"{tag} failed: {detail}"

        return run

    return wrap


# ---------------------------------------------------------------------------
# C1 — logit adjustment numerics
# ---------------------------------------------------------------------------


@criterion("C1")
def test_criterion_1_adjustment_numerics():
    start = time.monotonic()
    value = float(adjust_logits(np.array([0.0]), np.array([0.1]), tau=1.0)[0])
    err = abs(value - (-2.1972246))
    rng = np.random.default_rng(0)
    identity = all(
        np.array_equal(adjust_logits(z, np.full(z.shape, 0.5), tau=1.0), z)
        for z in (rng.normal(size=16) * 10 for _ in range(100))
    )
    elapsed = time.monotonic() - start
    passed = err <= 1e-6 and identity and elapsed < 1.0
    return passed, (
        f"adjust(0, 0.1, 1) = {value:.7f} (err {err:.1e} <= 1e-6); "
        f"p=0.5 exact identity on 100 random vectors: {identity}; {elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# C2 — gradient oracle
# ---------------------------------------------------------------------------


@criterion("C2")
def test_criterion_2_gradient_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    h = 1e-6
    worst = 0.0
    for instance in range(50):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        weights = rng.normal(size=(k, d))
        bias = rng.normal(size=k)
        freqs = rng.uniform(0.05, 0.95, size=k)
        x = rng.normal(size=d)
        y = rng.integers(0, 2, size=k).astype(np.float64)
        adjustment = "on" if instance % 2 == 0 else "off"

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
                worst = max(worst, abs(an - fd) / max(1.0, abs(an), abs(fd)))
            bp, bm = bias.copy(), bias.copy()
            bp[j] += h
            bm[j] -= h
            fd = (loss_at(weights, bp) - loss_at(weights, bm)) / (2 * h)
            an = out["grad_b"][j]
            worst = max(worst, abs(an - fd) / max(1.0, abs(an), abs(fd)))
    elapsed = time.monotonic() - start
    passed = worst < 1e-5 and elapsed < 5.0
    return passed, (
        f"50 instances (k<=4, d<=5, both adjustment modes), central differences "
        f"h=1e-6: worst relative error {worst:.2e} < 1e-5; {elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# C3 — long-tail benchmark
# ---------------------------------------------------------------------------

_BENCH_D = 16
_BENCH_K = 8
_BENCH_TRAIN = 2000
_BENCH_TEST = 500
_BENCH_QUANTS = [0.5] * 6 + [0.98, 0.98]
_BENCH_TAIL = (6, 7)


def _make_benchmark(seed: int):
    """Imbalanced linear benchmark: six half-frequency labels and two labels
    positive on exactly 2% of training rows, thresholded at train quantiles
    of ground-truth linear scores."""
    rng = np.random.default_rng(1000 + seed)
    directions = rng.normal(size=(_BENCH_K, _BENCH_D))
    x = rng.normal(size=(_BENCH_TRAIN + _BENCH_TEST, _BENCH_D))
    scores = x @ directions.T
    thresholds = [
        np.quantile(scores[:_BENCH_TRAIN, j], _BENCH_QUANTS[j])
        for j in range(_BENCH_K)
    ]
    y = scores > np.array(thresholds)

    taxonomy = LabelTaxonomy(
        labels=tuple(LabelEntry(index=j, name=f"L{j}") for j in range(_BENCH_K))
    )
    items, ids = [], []
    for i in range(_BENCH_TRAIN + _BENCH_TEST):
        rid = f"b{i:04d}"
        ids.append(rid)
        items.append(
            AnnotatedItem(
                rid,
                "train" if i < _BENCH_TRAIN else "test",
                tuple(int(j) for j in range(_BENCH_K) if y[i, j]),
            )
        )
    dataset = MLCDataset(taxonomy=taxonomy, items=tuple(items))
    features = FeatureMatrix(values=x.astype(np.float32), row_ids=tuple(ids))
    return dataset, features, y[:_BENCH_TRAIN].sum(axis=0)


def _tail_recall(params, items, features) -> float:
    tp = fn = 0
    for item in items:
        predicted = set(predict(params, features.row_for_id(item.record_id)).positives)
        for j in _BENCH_TAIL:
            if j in item.positives:
                if j in predicted:
                    tp += 1
                else:
                    fn += 1
    return tp / (tp + fn) if (tp + fn) else 0.0


@criterion("C3")
def test_criterion_3_long_tail_benchmark():
    start = time.monotonic()
    recall_wins = 0
    f1_deltas, recall_deltas = [], []
    for seed in range(5):
        dataset, features, train_pos = _make_benchmark(seed)
        assert list(train_pos) == [1000] * 6 + [40, 40], train_pos
        test_items = dataset.split_items("test")
        by_mode = {}
        for adjustment in ("on", "off"):
            params = train(
                dataset,
                features,
                TrainConfig(
                    learning_rate=0.05,
                    epochs=100,
                    batch_size=64,
                    seed=seed,
                    adjustment=adjustment,
                ),
            )
            by_mode[adjustment] = (
                evaluate_mlc(
                    params.k,
                    test_items,
                    {
                        rid: pred.positives
                        for rid, pred in predict_records(
                            params, features, [i.record_id for i in test_items], 0.5
                        ).items()
                    },
                )["macro_f1"],
                _tail_recall(params, test_items, features),
            )
        f1_deltas.append(by_mode["on"][0] - by_mode["off"][0])
        recall_deltas.append(by_mode["on"][1] - by_mode["off"][1])
        recall_wins += recall_deltas[-1] > 0
    elapsed = time.monotonic() - start
    mean_f1 = float(np.mean(f1_deltas))
    passed = recall_wins >= 4 and mean_f1 > 0 and elapsed < 120.0
    return passed, (
        f"2%-frequency tails, 5 matched seeds: tail-recall improved in "
        f"{recall_wins}/5 (min delta {min(recall_deltas):+.3f}), mean macro-F1 "
        f"delta {mean_f1:+.4f} (min {min(f1_deltas):+.4f}); {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# C4 — label recovery on the bundled corpus
# ---------------------------------------------------------------------------


@criterion("C4")
def test_criterion_4_label_recovery(synth):
    start = time.monotonic()
    gateway = GatewayConfig(backend="mock")

    dataset = bootstrap_dataset(synth.corpus, BootstrapConfig(), gateway)
    rerun = bootstrap_dataset(synth.corpus, BootstrapConfig(), gateway)

    names_ok = set(dataset.taxonomy.names()) == set(synth.primary_names)

    primaries = list(synth.primary_names)
    total = correct = 0
    for item in dataset.items:
        predicted = {dataset.taxonomy.labels[j].name for j in item.positives}
        actual = set(synth.gt_labels[item.record_id]) & set(primaries)
        for name in primaries:
            total += 1
            correct += (name in predicted) == (name in actual)
    accuracy = correct / total

    identical = (
        taxonomy_to_json(dataset.taxonomy) == taxonomy_to_json(rerun.taxonomy)
        and labels_to_jsonl(dataset) == labels_to_jsonl(rerun)
    )
    elapsed = time.monotonic() - start
    passed = names_ok and accuracy >= 0.99 and identical and elapsed < 30.0
    return passed, (
        f"taxonomy names == 10 generator labels: {names_ok}; annotation cells "
        f"{correct}/{total} = {accuracy:.4f} >= 0.99; rerun byte-identical: "
        f"{identical}; {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# C5 — merge round arithmetic
# ---------------------------------------------------------------------------


@criterion("C5")
def test_criterion_5_merge_rounds():
    gateway = GatewayConfig(backend="mock")
    # Each ["A", "B"] set costs 3 estimated tokens, so a budget of 12 packs
    # exactly four sets per group: 12 -> 3 -> 1.
    labels, _, rounds_12 = merge_label_sets(
        [["A", "B"] for _ in range(12)], gateway, merge_budget=12
    )
    single, _, rounds_1 = merge_label_sets([["A", "B"]], gateway, merge_budget=12)
    passed = rounds_12 == 2 and labels == ["A", "B"] and rounds_1 == 0
    return passed, (
        f"12 sets at 4 per group -> {rounds_12} rounds (need exactly 2); "
        f"single set -> {rounds_1} rounds (need exactly 0)"
    )


# ---------------------------------------------------------------------------
# C6 — metric oracles
# ---------------------------------------------------------------------------


@criterion("C6")
def test_criterion_6_metric_oracles():
    start = time.monotonic()
    checks: list[tuple[str, bool]] = []

    identity = [tokenize("a b c d e"), tokenize("f g h i j")]
    checks.append(("bleu identity == 1.0", bleu_scores(identity, identity) == [1.0] * 4))

    clipped = bleu_scores([tokenize("the the the")], [tokenize("the cat")])
    checks.append(("bleu clipping 1/3", abs(clipped[0] - 1 / 3) <= 1e-9 and clipped[1] == 0.0))

    rouge = rouge_l_sample(tokenize("a b c d"), tokenize("a c d"))
    checks.append(("rouge 0.8798077", abs(rouge - 0.8798077) <= 1e-6))

    got = cider_d_scores(_TOY_CANDIDATES, _TOY_REFERENCES)
    want = _oracle_cider(_TOY_CANDIDATES, _TOY_REFERENCES)
    worst = max(abs(g - w) for g, w in zip(got, want))
    checks.append(("cider vs brute force", worst <= 1e-9))

    refs = [tokenize("the cat sat on a mat"), tokenize("a very different dog sentence")]
    self_scores = cider_d_scores(refs, refs)
    checks.append(
        ("cider self-identity 10.0", all(abs(s - 10.0) <= 1e-9 for s in self_scores))
    )

    meteor = meteor_sample(tokenize("a b c"), tokenize("a b c"))
    checks.append(("meteor 0.9814815", abs(meteor - 0.9814815) <= 1e-6))

    overlap = entity_overlap({"a", "b"}, {"b", "c"})
    checks.append(("entity {A,B}/{B,C} == 0.5", overlap.f1 == 0.5))

    elapsed = time.monotonic() - start
    failed = [name for name, ok in checks if not ok]
    passed = not failed and elapsed < 5.0
    return passed, (
        f"{len(checks)} oracle checks"
        + (f", failed: {failed}" if failed else " all within tolerance")
        + f" (cider worst diff {worst:.1e}); {elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# C7 — guidance template golden string
# ---------------------------------------------------------------------------


@criterion("C7")
def test_criterion_7_prompt_golden():
    taxonomy = LabelTaxonomy(
        labels=(
            LabelEntry(index=0, name="secondary PTB"),
            LabelEntry(index=1, name="right upper field"),
        )
    )
    expected = (
        "The image shows the following findings: secondary PTB, right upper field. "
        "Based on these findings and the image, generate a detailed diagnostic report."
    )
    text = serialize_labels((0, 1), taxonomy).text
    passed = text == expected
    return passed, (
        "two-label prompt matches the template byte for byte"
        if passed
        else f"prompt mismatch: {text!r}"
    )


# ---------------------------------------------------------------------------
# C8 — closed pipeline loop
# ---------------------------------------------------------------------------


def _pipeline_config(synth_dir, workdir) -> str:
    config = {
        "paths": {
            "manifest": str(synth_dir / "manifest.jsonl"),
            "features": str(synth_dir / "features.ffmx"),
            "workdir": str(workdir),
        }
    }
    path = workdir.parent / f"{workdir.name}-config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return str(path)


@criterion("C8")
def test_criterion_8_closed_loop(synth_dir, tmp_path):
    start = time.monotonic()
    workdir = tmp_path / "run"
    config = _pipeline_config(synth_dir, workdir)

    code = main(["pipeline", "--config", config])
    full = json.loads((workdir / "metrics.json").read_text(encoding="utf-8"))
    full_f1 = full["corpus"]["entity_f1"]

    code_gen = main(["generate", "--config", config, "--ablation", "--force"])
    code_eval = main(
        ["evaluate", "--config", config, "--mode", "image_only", "--force"]
    )
    image_only = json.loads((workdir / "metrics.json").read_text(encoding="utf-8"))
    image_only_f1 = image_only["corpus"]["entity_f1"]

    elapsed = time.monotonic() - start
    passed = (
        code == 0
        and code_gen == 0
        and code_eval == 0
        and full_f1 == 1.0
        and image_only_f1 < full_f1
        and elapsed < 120.0
    )
    return passed, (
        f"pipeline exit {code}; entity_f1 with predicted labels {full_f1:.4f} "
        f"(need 1.0), image-only ablation {image_only_f1:.4f} (strictly lower); "
        f"{elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# C9 — run-to-run determinism
# ---------------------------------------------------------------------------


@criterion("C9")
def test_criterion_9_byte_determinism(synth_dir, tmp_path):
    artifacts = (
        "taxonomy.json",
        "checkpoint.json",
        "generated-image_and_label-pred.jsonl",
        "metrics.json",
    )
    runs = []
    for name in ("first", "second"):
        workdir = tmp_path / name
        config = _pipeline_config(synth_dir, workdir)
        code = main(["pipeline", "--config", config])
        if code != 0:
            return False, f"{name} run exited {code}"
        runs.append(workdir)
    differing = [
        name
        for name in artifacts
        if (runs[0] / name).read_bytes() != (runs[1] / name).read_bytes()
    ]
    passed = not differing
    return passed, (
        f"{len(artifacts)} artifacts byte-identical across independent runs"
        if passed
        else f"artifacts differ: {differing}"
    )
