"""Traced stage runner and the per-layer metrics computed from its spans.

    PYTHONPATH=src python3 bench/tracing.py SPANS.json <reportguide argv...>

runs one pipeline stage exactly as `python -m reportguide <argv...>` does,
through `reportguide.cli.main(argv)`, after wrapping the public functions of
each package layer in timing spans. A function is wrapped once and the
wrapper is set at every module attribute that call sites resolve it through
(`bootstrap.complete`, `metrics.complete`, `guidance.predict`, ...). Spans
stay in memory, parented by a thread-local stack; spans opened on pool
threads, whose stack is empty, are parented to the stage span. All spans are
written to SPANS.json when the stage ends.

`layer_metrics()` reads the span files of one traced pass and returns the
per-layer metrics listed in README.md.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

NUDGE_SUFFIX = "\n\nReturn only the JSON array. No prose, no code fences."
TASKS = ("extract", "merge", "annotate", "entities")
STAGES = ("bootstrap", "train", "predict", "generate", "evaluate")


class Tracer:
    """In-memory spans: (id, parent id, name, start, end, attributes)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stage = 0  # the open stage span, parent of pool-thread spans

    def wrap(self, name, fn, describe=None, stage=False):
        """Return `fn` recording one span per call.

        `describe(args, kwargs, result)` adds attributes after the span has
        ended, so its own cost is not timed. A call that raises records the
        exception type as its `error` attribute instead.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._stage
            span_id = next(self._ids)
            stack.append(span_id)
            if stage:
                self._stage = span_id
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                self._close(span_id, parent, name, start, end, {"error": type(exc).__name__}, stage)
                raise
            end = time.perf_counter()
            attrs = describe(args, kwargs, result) if describe else {}
            self._close(span_id, parent, name, start, end, attrs, stage)
            return result

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, span_id, parent, name, start, end, attrs, stage) -> None:
        self._stack().pop()
        if stage:
            self._stage = 0
        self.spans.append((span_id, parent, name, start, end, attrs))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _describe_complete(args, kwargs, result):
    request = _arg(args, kwargs, 0, "request")
    config = _arg(args, kwargs, 1, "config")
    task = next((t for t in TASKS if f"[task:{t}]" in request.system), "other")
    digest = hashlib.sha256((request.system + "\x00" + request.user).encode("utf-8")).hexdigest()
    return {
        "task": task,
        "sha": digest,
        "reprompt": request.user.endswith(NUDGE_SUFFIX),
        "in": result.input_tokens,
        "out": result.output_tokens,
        "http": config.backend == "http",
    }


def _describe_chars(args, kwargs, result):
    return {"chars": len(_arg(args, kwargs, 0, "text"))}


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer's public functions; return the sites not found.

    A site the package no longer has is skipped and reported, so the traced
    run keeps working when a later change moves a call site.
    """
    from reportguide import bootstrap, classifier, cli, corpus, gateway, guidance, metrics

    missing: list[str] = []

    def patch(name, sites, describe=None, stage=False):
        found = [(owner, attr) for owner, attr in sites if hasattr(owner, attr)]
        missing.extend(f"{getattr(o, '__name__', o)}.{a}" for o, a in sites if (o, a) not in found)
        originals = {getattr(owner, attr) for owner, attr in found}
        for original in originals:
            wrapped = tracer.wrap(name, original, describe, stage)
            for owner, attr in found:
                if getattr(owner, attr) is original:
                    setattr(owner, attr, wrapped)

    def sites(attr, *owners):
        return [(owner, attr) for owner in owners]

    for stage in STAGES:
        patch(f"cli.{stage}", sites(f"cmd_{stage}", cli), stage=True)

    patch("corpus.load_manifest", sites("load_manifest", corpus, cli))
    patch(
        "corpus.load_features",
        sites("load_features", corpus, cli),
        lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    )

    patch("gateway.complete", sites("complete", gateway, bootstrap, metrics, guidance), _describe_complete)
    patch("gateway.estimate_tokens", sites("estimate_tokens", gateway, bootstrap), _describe_chars)
    patch("gateway.parse", sites("parse_string_list", bootstrap, metrics) + sites("parse_string_groups", bootstrap))

    patch(
        "bootstrap.bootstrap_dataset",
        sites("bootstrap_dataset", bootstrap),
        lambda a, k, r: {"skipped": len(r.skipped)},
    )
    patch("bootstrap.extract", sites("extract_batch_labels", bootstrap))
    patch("bootstrap.merge", sites("merge_label_sets", bootstrap), lambda a, k, r: {"rounds": r[2]})
    patch("bootstrap.annotate", sites("annotate_report", bootstrap))
    patch("bootstrap.filter", sites("filter_labels", bootstrap))
    patch("bootstrap.audit", sites("audit_taxonomy", bootstrap))

    patch(
        "classifier.train",
        sites("train", classifier),
        lambda a, k, r: {"epochs": _arg(a, k, 2, "config").epochs},
    )
    patch("classifier.adjust_logits", sites("adjust_logits", classifier))
    patch("classifier.predict", sites("predict", classifier, guidance))
    patch("classifier.evaluate_mlc", sites("evaluate_mlc", classifier))
    patch("classifier.checkpoint_io", sites("save_checkpoint", classifier) + sites("load_checkpoint", classifier))

    patch("guidance.run_generation", sites("run_generation", guidance))
    patch("guidance.serialize_labels", sites("serialize_labels", guidance))
    patch("guidance.generate_report", sites("generate_report", guidance))
    patch("guidance.by_id", sites("by_id", bootstrap.MLCDataset))

    patch("metrics.evaluate_generation", sites("evaluate_generation", metrics))
    patch("metrics.tokenize", sites("tokenize", metrics), _describe_chars)
    patch("metrics.bleu", sites("bleu_scores", metrics))
    patch("metrics.rouge_l", sites("rouge_l_sample", metrics))
    patch("metrics.cider_d", sites("cider_d_scores", metrics))
    patch("metrics.meteor", sites("meteor_sample", metrics))
    patch("metrics.entity_f1", sites("entity_f1_scores", metrics))
    patch("metrics.extract_entities", sites("extract_entities", metrics))
    return missing


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _union(intervals) -> float:
    """Seconds covered by the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _nearest_rank(sorted_values, pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, _nearest_rank(ordered, pct)
    return 100.0, (ordered[-1] if ordered else 0.0)


def layer_metrics(span_paths, stub: dict | None = None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    `.s` metrics are wall seconds during which the layer had a span open
    (the union over threads), summed over stage processes. `stub` holds the
    stub server's counter deltas over the pass, for http workloads.
    """
    busy: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    attrs: dict[str, list[dict]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    missing: set[str] = set()
    for path in span_paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        missing.update(doc["missing_sites"])
        spans = doc["spans"]
        intervals: dict[str, list] = defaultdict(list)
        children: dict[int, list] = defaultdict(list)
        for span_id, parent, name, start, end, span_attrs in spans:
            intervals[name].append((start, end))
            durations[name].append(end - start)
            attrs[name].append(span_attrs)
            children[parent].append((start, end))
        for name, spans_of_name in intervals.items():
            busy[name] += _union(spans_of_name)
        for span_id, parent, name, start, end, _ in spans:
            if name.startswith("cli."):
                covered = _union((max(s, start), min(e, end)) for s, e in children[span_id] if e > s)
                self_s[name] += (end - start) - covered

    def calls(name):
        return float(len(durations[name]))

    def p50_ms(name):
        return statistics.median(durations[name]) * 1000.0 if durations[name] else 0.0

    complete = attrs["gateway.complete"]
    n_complete = len(complete)
    tail_pct, tail_s = tail_percentile(durations["gateway.complete"])
    epochs = sum(a.get("epochs", 0) for a in attrs["classifier.train"])
    out: dict[str, tuple[float, str]] = {
        "corpus.load_manifest.s": (busy["corpus.load_manifest"], "s"),
        "corpus.load_manifest.calls": (calls("corpus.load_manifest"), "count"),
        "corpus.load_features.s": (busy["corpus.load_features"], "s"),
        "corpus.load_features.mb": (
            sum(a.get("bytes", 0) for a in attrs["corpus.load_features"]) / 2**20,
            "MiB",
        ),
        "gateway.complete.calls": (float(n_complete), "count"),
        "gateway.complete.s": (busy["gateway.complete"], "s"),
        "gateway.complete.p50_ms": (p50_ms("gateway.complete"), "ms"),
        "gateway.complete.tail_ms": (tail_s * 1000.0, "ms"),
        "gateway.complete.tail_pct": (tail_pct, "percentile"),
    }
    for task in TASKS:
        out[f"gateway.complete.{task}.calls"] = (
            float(sum(1 for a in complete if a.get("task") == task)),
            "count",
        )
    out.update(
        {
            "gateway.input_tokens": (float(sum(a.get("in", 0) for a in complete)), "tokens"),
            "gateway.output_tokens": (float(sum(a.get("out", 0) for a in complete)), "tokens"),
            "gateway.reprompts": (float(sum(1 for a in complete if a.get("reprompt"))), "count"),
            "gateway.parse_failures": (
                float(sum(1 for a in attrs["gateway.parse"] if "error" in a)),
                "count",
            ),
            "gateway.unique_request_ratio": (
                len({a["sha"] for a in complete if "sha" in a}) / n_complete if n_complete else 0.0,
                "ratio",
            ),
            "gateway.estimate_tokens.calls": (calls("gateway.estimate_tokens"), "count"),
            "gateway.estimate_tokens.s": (busy["gateway.estimate_tokens"], "s"),
            "gateway.estimate_tokens.chars": (
                float(sum(a.get("chars", 0) for a in attrs["gateway.estimate_tokens"])),
                "chars",
            ),
        }
    )
    http_ms = [
        d * 1000.0
        for d, a in zip(durations["gateway.complete"], complete)
        if a.get("http")
    ]
    server_ms = 0.0
    if stub and stub["requests"]:
        server_ms = stub["server_ms"] / stub["requests"]
    out["gateway.http.server_ms"] = (server_ms, "ms")
    out["gateway.http.client_overhead_ms"] = (
        (statistics.fmean(http_ms) - server_ms) if http_ms else 0.0,
        "ms",
    )
    out["gateway.http.requests"] = (float(stub["requests"]) if stub else 0.0, "count")
    out["gateway.http.request_mb"] = ((stub["request_bytes"] / 2**20) if stub else 0.0, "MiB")

    out.update(
        {
            "bootstrap.extract.s": (busy["bootstrap.extract"], "s"),
            "bootstrap.merge.s": (busy["bootstrap.merge"], "s"),
            "bootstrap.merge.rounds": (
                float(sum(a.get("rounds", 0) for a in attrs["bootstrap.merge"])),
                "count",
            ),
            "bootstrap.annotate.s": (busy["bootstrap.annotate"], "s"),
            "bootstrap.annotate.p50_ms": (p50_ms("bootstrap.annotate"), "ms"),
            "bootstrap.filter.s": (busy["bootstrap.filter"], "s"),
            "bootstrap.audit.s": (busy["bootstrap.audit"], "s"),
            "bootstrap.skipped": (
                float(sum(a.get("skipped", 0) for a in attrs["bootstrap.bootstrap_dataset"])),
                "count",
            ),
            "classifier.train.s": (busy["classifier.train"], "s"),
            "classifier.train.epoch_ms": (
                busy["classifier.train"] * 1000.0 / epochs if epochs else 0.0,
                "ms",
            ),
            "classifier.adjust_logits.calls": (calls("classifier.adjust_logits"), "count"),
            "classifier.predict.calls": (calls("classifier.predict"), "count"),
            "classifier.predict.s": (busy["classifier.predict"], "s"),
            "classifier.evaluate_mlc.s": (busy["classifier.evaluate_mlc"], "s"),
            "classifier.checkpoint_io.s": (busy["classifier.checkpoint_io"], "s"),
            "guidance.run_generation.s": (busy["guidance.run_generation"], "s"),
            "guidance.serialize_labels.calls": (calls("guidance.serialize_labels"), "count"),
            "guidance.generate_report.s": (busy["guidance.generate_report"], "s"),
            "guidance.by_id.calls": (calls("guidance.by_id"), "count"),
            "metrics.tokenize.s": (busy["metrics.tokenize"], "s"),
            "metrics.tokenize.chars": (
                float(sum(a.get("chars", 0) for a in attrs["metrics.tokenize"])),
                "chars",
            ),
            "metrics.bleu.s": (busy["metrics.bleu"], "s"),
            "metrics.rouge_l.s": (busy["metrics.rouge_l"], "s"),
            "metrics.cider_d.s": (busy["metrics.cider_d"], "s"),
            "metrics.meteor.s": (busy["metrics.meteor"], "s"),
            "metrics.entity_f1.s": (busy["metrics.entity_f1"], "s"),
            "metrics.extract_entities.calls": (calls("metrics.extract_entities"), "count"),
        }
    )
    for stage in STAGES:
        out[f"cli.{stage}.self_s"] = (self_s[f"cli.{stage}"], "s")
    out["trace.missing_sites"] = (float(len(missing)), "count")
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    missing = install(tracer)
    from reportguide import cli

    try:
        return cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"missing_sites": missing, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
