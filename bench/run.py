#!/usr/bin/env python3
"""reportguide benchmark: the paper's guidance ablation, run stage by stage.

    python3 bench/run.py --workload ablation-mock-10k --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

Run from the repository root. Set-up generates the workload's inputs from
`--seed` (and starts the stub chat server for http-stub-1k). Each pipeline
stage then runs as its own `python3 -m reportguide <stage>` process, exactly
as a user runs it, and is timed from spawn to exit; its peak RSS comes from
the child's rusage. The benchmark and its children are pinned to one CPU,
whose speed a sampler thread measures while the stages run, and stage times
are adjusted to a reference CPU speed (SpeedSampler). The stage sequence
repeats in fresh workdirs while another repetition still fits in
`--seconds` (at least once), and every repetition's outputs are checked.
The end-to-end metrics are set-up time, throughput, peak RSS, the share of
checks passed, and the bootstrap and evaluate stage times; the other stage
times are printed too, but not bounded (see bench/README.md, "Stability").

`--trace 1` instead runs the sequence once untraced and once through
bench/tracing.py, and reports the per-layer metrics, the untraced stage
times and the tracing overhead. `--workload all` runs every workload
untraced and prints one table, next to bench/baseline.json.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
See bench/README.md for why each workload exists and what each metric is
expected to move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from tracing import STAGES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BASELINE = BENCH / "baseline.json"

SETUP_REPEATS = 5
STUB_DELAY_MS = 5
PARALLELISM = 2
DEADLINE_S = 170.0
SAMPLE_EVERY_S = 0.05
# The two longest stages carry a bound; the others, some under a second, are
# printed only: they are not steady enough (bench/README.md, "Stability").
BOUNDED_STAGES = ("bootstrap", "evaluate")
# Seconds that reference_chunk() takes on an uncontended core of the 2-vCPU
# x86_64 VM the baseline was taken on (Python 3.11); the adjusted stage
# times are those of a CPU running at that speed.
REF_CHUNK_S = 0.0012
REF_WORDS = "the left lower lobe shows a small pleural effusion and no pneumothorax".split()
# Call logs carry wall-clock timestamps and latencies by design, so they are
# left out of the artifact digest along with meta/.
VOLATILE = ("gateway_calls.jsonl", ".lock")
# The paper's ablation grid, as reportguide.guidance.ABLATION_MODES runs it:
# (guidance mode, label source).
ABLATION_CELLS = (
    ("image_only", "none"),
    ("label_only", "pred"),
    ("image_and_label", "pred"),
    ("label_only", "gt"),
    ("image_and_label", "gt"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    copies: int  # of the 200-record synthetic corpus
    dim: int  # feature width
    backend: str  # gateway backend: "mock" or "http" (the stub)
    bootstrap_in_setup: bool
    ablation: bool  # the five-cell ablation; else the image_and_label/pred cell only


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ablation-mock-10k", 50, 16, "mock", bootstrap_in_setup=False, ablation=True),
        Workload("train-wide-1024", 50, 1024, "mock", bootstrap_in_setup=True, ablation=False),
        Workload("http-stub-1k", 5, 16, "http", bootstrap_in_setup=False, ablation=True),
    )
}


@dataclass(frozen=True)
class Truth:
    """What the pipeline must find in the generated inputs (inputs.py --truth)."""

    records: int
    theta: int
    primary_names: tuple[str, ...]
    gt: dict[str, frozenset[str]]  # record id -> its primary findings
    test_ids: tuple[str, ...]  # sorted

    @classmethod
    def load(cls, path: Path) -> "Truth":
        doc = json.loads(path.read_text(encoding="utf-8"))
        gt: dict[str, frozenset[str]] = {}
        test: list[str] = []
        for base, info in doc["base"].items():
            primaries = frozenset(info["primaries"])
            for c in range(doc["copies"]):
                rid = doc["id_format"].format(copy=c, base=base)
                gt[rid] = primaries
                if info["split"] == "test":
                    test.append(rid)
        return cls(doc["records"], doc["theta"], tuple(doc["primary_names"]), gt, tuple(sorted(test)))


class Deadline:
    def __init__(self, seconds: float):
        self.at = time.monotonic() + seconds

    def left(self) -> float:
        return max(0.1, self.at - time.monotonic())


@dataclass
class StageRun:
    started: float  # time.perf_counter() at spawn
    seconds: float  # wall, spawn to exit
    cpu_s: float  # user + system
    rss_mb: float
    code: int


@dataclass
class Pass:
    """One run of the workload's timed stage sequence in its own workdir."""

    stage_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))  # speed-adjusted
    wall_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    bootstrap_digest: str = ""  # taxonomy.json + labels.jsonl
    stub: dict | None = None  # stub server counter deltas over the pass
    repetitions: int = 0

    def count(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def run_stage(argv, cwd: Path, env: dict, log, deadline: Deadline) -> StageRun:
    """Run one child to exit; its peak RSS comes from wait4's rusage."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
    watchdog = threading.Timer(deadline.left(), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu_s = usage.ru_utime + usage.ru_stime
    return StageRun(started, seconds, cpu_s, usage.ru_maxrss / 1024.0, proc.returncode)


def reference_chunk() -> None:
    """A fixed bit of pure-Python dict, str and list work."""
    counts: dict[str, int] = {}
    for i in range(4_000):
        word = REF_WORDS[i % len(REF_WORDS)]
        key = word.upper() if i % 3 else word + str(i % 97)
        counts[key] = counts.get(key, 0) + len(key)
    sorted(counts.items())


class SpeedSampler:
    """The speed of the one CPU the benchmark and its children run on.

    On a shared host a core's speed changes by up to 2x for seconds to
    minutes at a time, presumably as other tenants load the physical core,
    and every stage slows with it. main() pins the benchmark to one CPU, and
    every process it starts inherits that. This thread wakes every
    SAMPLE_EVERY_S, times reference_chunk() on that CPU while the stages run
    there, and keeps (start, CPU seconds) of each sample.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-sampler", daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            # CPU time, so that a chunk preempted by a stage still reads the
            # speed of the core and not the length of its wait.
            started, cpu = time.perf_counter(), time.thread_time()
            reference_chunk()
            self.samples.append((started, time.thread_time() - cpu))

    def speed(self, start: float, end: float) -> float:
        """Mean speed over [start, end], 1.0 being REF_CHUNK_S a chunk."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside and self.samples:
            inside = [min(self.samples, key=lambda ts: abs(ts[0] - start))[1]]
        return statistics.fmean(REF_CHUNK_S / s for s in inside) if inside else 1.0

    def adjust(self, r: StageRun) -> float:
        """The stage's wall seconds on a CPU at the reference speed: the
        share of them the process was on the CPU scales with the measured
        speed, the rest (waiting on the stub or the disk) stays as it was."""
        busy = min(1.0, r.cpu_s / r.seconds) if r.seconds > 0 else 0.0
        return r.seconds * (1.0 - busy + busy * self.speed(r.started, r.started + r.seconds))


class Stub:
    """The stub chat server process (bench/stub_server.py)."""

    def __init__(self, env: dict, deadline: Deadline):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub_server.py"), "--delay-ms", str(STUB_DELAY_MS)],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        watchdog = threading.Timer(deadline.left(), self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line.startswith("port "):
            self.stop()
            raise RuntimeError("stub server did not start")
        self.port = int(line.split()[1])

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def stats(self) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/stats", timeout=10) as resp:
            return json.load(resp)

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Run:
    """One benchmark invocation of one workload in its own scratch directory."""

    def __init__(self, workload: Workload, seed: int, deadline: Deadline, sampler: SpeedSampler):
        self.w = workload
        self.sampler = sampler
        self.seed = seed
        self.deadline = deadline
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.log = open(self.dir / "stages.log", "ab")
        self.env = {
            **{k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
            "PYTHONPATH": str(SRC),
            "LLM_API_KEY": "bench-key",
        }
        self.stub: Stub | None = None
        self.passes = 0
        self.truth: Truth | None = None  # set by setup()
        self.setup_pass = Pass()  # the set-up bootstrap's exit check
        self.setup_spans: list[Path] = []
        self.setup_bootstrap_s = 0.0

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stop()
            self.stub = None
        self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory is still there

    # -- set-up -------------------------------------------------------------

    def setup(self, traced: bool) -> float:
        """Generate inputs (and start the stub) SETUP_REPEATS times, once
        when traced; the median is set-up time, input generation taken at
        the reference CPU speed like the stages. For train-wide-1024 the
        bootstrap follows, once, and is added to it."""
        generate = [
            sys.executable, str(BENCH / "inputs.py"), "--out", "inputs", "--truth", "truth.json",
            "--copies", str(self.w.copies), "--seed", str(self.seed), "--dim", str(self.w.dim),
        ]
        times = []
        for _ in range(1 if traced else SETUP_REPEATS):
            if self.stub is not None:
                self.stub.stop()
                self.stub = None
            r = run_stage(generate, self.dir, self.env, self.log, self.deadline)
            if r.code != 0:
                raise RuntimeError(f"input generation exited {r.code}")
            seconds = self.sampler.adjust(r)
            if self.w.backend == "http":
                started = time.perf_counter()
                self.stub = Stub(self.env, self.deadline)
                seconds += time.perf_counter() - started
            times.append(seconds)
        self.truth = Truth.load(self.dir / "truth.json")
        gateway = {"backend": self.w.backend, "parallelism": PARALLELISM}
        if self.stub is not None:
            gateway.update(endpoint=self.stub.endpoint, requests_per_minute=6_000_000)
        config = {
            "paths": {
                "manifest": "inputs/manifest.jsonl",
                "features": "inputs/features.ffmx",
                "workdir": "wd",
            },
            "bootstrap": {"theta": self.truth.theta},
            "gateway": gateway,
        }
        if not self.w.ablation:
            config["metrics"] = {"enabled": ["bleu"]}
        (self.dir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
        setup_s = statistics.median(times)
        if self.w.bootstrap_in_setup:
            spans = self.dir / "spans-setup-bootstrap.json" if traced else None
            boot = self.stage(["bootstrap"], "base", spans)
            self.setup_pass.count(boot.code == 0, f"set-up bootstrap exited {boot.code}")
            self.setup_bootstrap_s = self.sampler.adjust(boot)
            setup_s += self.setup_bootstrap_s
            if spans is not None:
                self.setup_spans.append(spans)
        return setup_s

    # -- stages -------------------------------------------------------------

    def stage(self, argv: list[str], workdir: str, spans: Path | None) -> StageRun:
        if spans is None:
            head = [sys.executable, "-m", "reportguide"]
        else:
            head = [sys.executable, str(BENCH / "tracing.py"), str(spans)]
        full = head + argv + ["--config", "config.json", "--workdir", workdir]
        stub_cpu_s = self.stub.stats()["cpu_s"] if self.stub else 0.0
        r = run_stage(full, self.dir, self.env, self.log, self.deadline)
        if self.stub:
            # The stub serves the stage on the same CPU: its work is the stage's too.
            r.cpu_s += self.stub.stats()["cpu_s"] - stub_cpu_s
        return r

    def stage_list(self) -> list[tuple[str, list[str]]]:
        stages = [] if self.w.bootstrap_in_setup else [("bootstrap", ["bootstrap"])]
        stages += [("train", ["train"]), ("predict", ["predict"])]
        if not self.w.ablation:
            return stages + [("generate", ["generate"]), ("evaluate", ["evaluate"])]
        stages.append(("generate", ["generate", "--ablation"]))
        for mode, source in ABLATION_CELLS:
            argv = ["evaluate", "--force", "--mode", mode]
            if source != "none":
                argv += ["--label-source", source]
            stages.append(("evaluate", argv))
        return stages

    def run_pass(self, traced: bool) -> tuple[Pass, list[Path]]:
        """Run the stage sequence once in a fresh workdir and check its outputs."""
        p = Pass()
        name = f"wd{self.passes}"
        self.passes += 1
        workdir = self.dir / name
        if self.w.bootstrap_in_setup:
            shutil.copytree(self.dir / "base", workdir)
        spans: list[Path] = []
        cells: dict[str, bytes] = {}
        before = self.stub.stats() if self.stub else None
        for i, (stage, argv) in enumerate(self.stage_list()):
            span_path = self.dir / f"spans-{name}-{i}.json" if traced else None
            r = self.stage(argv, name, span_path)
            if not p.count(r.code == 0, f"{' '.join(argv)} exited {r.code}"):
                break
            p.stage_s[stage] += self.sampler.adjust(r)
            p.wall_s += r.seconds
            p.rss_mb = max(p.rss_mb, r.rss_mb)
            if span_path is not None:
                spans.append(span_path)
            if stage == "evaluate":
                cells[" ".join(argv[2:])] = (workdir / "metrics.json").read_bytes()
        else:
            self.check_outputs(p, workdir, cells)
        if self.stub:
            after = self.stub.stats()
            delta = {k: after[k] - before[k] for k in before}
            p.attempted += delta["requests"]
            p.failed += delta["non_200"]
            if delta["non_200"]:
                p.failures.append(f"{delta['non_200']} non-200 stub replies")
            p.stub = delta
        shutil.rmtree(workdir)
        return p, spans

    # -- output checks -------------------------------------------------------

    def check_outputs(self, p: Pass, workdir: Path, cells: dict[str, bytes]) -> None:
        truth = self.truth
        taxonomy = json.loads((workdir / "taxonomy.json").read_text())
        names = [label["name"] for label in taxonomy["labels"]]
        p.count(sorted(names) == sorted(truth.primary_names), "taxonomy != primary findings")

        seen = 0
        labels_ok = True
        with open(workdir / "labels.jsonl", encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                seen += 1
                got = frozenset(names[j] for j in row["positives"])
                labels_ok &= got == truth.gt.get(row["id"])
        p.count(labels_ok and seen == truth.records, "labels.jsonl != ground truth")

        test_ids = list(truth.test_ids)
        generated = sorted(workdir.glob("generated-*.jsonl"))
        expected = 5 if self.w.ablation else 1
        covered = all(
            [json.loads(line)["id"] for line in path.open(encoding="utf-8")] == test_ids
            for path in generated
        )
        p.count(covered and len(generated) == expected, "generated files do not cover the test split")

        if self.w.ablation:
            f1 = {cell: json.loads(blob)["corpus"]["entity_f1"] for cell, blob in cells.items()}
            gt = [f1["--mode label_only --label-source gt"], f1["--mode image_and_label --label-source gt"]]
            p.count(
                gt == [1.0, 1.0] and f1["--mode image_only"] < 1.0,
                f"entity_f1 gt cells {gt}, image_only {f1['--mode image_only']}",
            )

        p.digest = artifact_digest(workdir, cells)
        p.bootstrap_digest = bootstrap_digest(workdir)

    def mock_reference(self, p: Pass) -> None:
        """An http bootstrap must write what a mock bootstrap of the same
        inputs writes."""
        r = self.stage(["bootstrap", "--backend", "mock"], "wd-mock", None)
        if p.count(r.code == 0, f"mock reference bootstrap exited {r.code}"):
            same = bootstrap_digest(self.dir / "wd-mock") == p.bootstrap_digest
            p.count(same, "http bootstrap != mock bootstrap")


def artifact_digest(workdir: Path, cells: dict[str, bytes]) -> str:
    """sha256 over every artifact outside meta/ and over each evaluate
    cell's metrics.json, in a fixed order."""
    digest = hashlib.sha256()
    for path in sorted(q for q in workdir.rglob("*") if q.is_file()):
        rel = path.relative_to(workdir).as_posix()
        if rel.startswith("meta/") or rel in VOLATILE:
            continue
        blob = path.read_bytes()
        digest.update(f"{rel}\0{len(blob)}\0".encode() + blob)
    for cell, blob in cells.items():
        digest.update(f"metrics.json[{cell}]\0{len(blob)}\0".encode() + blob)
    return digest.hexdigest()


def bootstrap_digest(workdir: Path) -> str:
    digest = hashlib.sha256()
    for rel in ("taxonomy.json", "labels.jsonl"):
        digest.update((workdir / rel).read_bytes())
    return digest.hexdigest()


def combine(passes: list[Pass]) -> Pass:
    """Fold every pass's counts into one, adding the digest-equality check."""
    total = Pass()
    for p in passes:
        total.attempted += p.attempted
        total.failed += p.failed
        total.failures += p.failures
    digests = [p.digest for p in passes if p.digest]
    if len(digests) > 1:
        total.count(len(set(digests)) == 1, "artifacts differ between repetitions")
    total.digest = digests[0] if digests else ""
    return total


def records_per_s(records: int, p: Pass) -> float:
    """Records per speed-adjusted second of the timed stages."""
    seconds = sum(p.stage_s.values())
    return records / seconds if seconds else 0.0


def stage_times(run: Run, passes: list[Pass]) -> dict:
    """Median wall seconds of each stage over the passes; for
    train-wide-1024 the bootstrap is the set-up one."""
    times = {}
    for stage in STAGES:
        if stage == "bootstrap" and run.w.bootstrap_in_setup:
            times[stage] = run.setup_bootstrap_s
        else:
            times[stage] = statistics.median(p.stage_s[stage] for p in passes)
    return times


def measure(run: Run, seconds: float) -> tuple[dict, dict, Pass]:
    """End-to-end metrics and stage times: set-up, then stage-sequence
    passes while another one still fits in `seconds`."""
    setup_s = run.setup(traced=False)
    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        p, _ = run.run_pass(traced=False)
        passes.append(p)
        last = time.perf_counter() - pass_started
        if p.failed or time.perf_counter() - started + last > seconds:
            break
    if run.w.backend == "http" and not passes[0].failed:
        run.mock_reference(passes[0])
    total = combine([run.setup_pass] + passes)
    total.repetitions = len(passes)
    ok = [p for p in passes if not p.failed] or passes
    metrics = {
        "setup_s": (setup_s, "s"),
        "records_per_s": (
            statistics.median(records_per_s(run.truth.records, p) for p in ok),
            "records/s",
        ),
        "peak_rss_mb": (max(p.rss_mb for p in ok), "MiB"),
        "ok_frac": (1.0 - total.failed / total.attempted, "ratio"),
    }
    wall = statistics.median(run.truth.records / p.wall_s for p in ok)
    print(f"{run.w.name}: records per wall second {wall:.6g}, not speed-adjusted")
    stages = {f"{stage}_s": (t, "s") for stage, t in stage_times(run, ok).items()}
    for stage in BOUNDED_STAGES:
        metrics[f"{stage}_s"] = stages.pop(f"{stage}_s")
    return metrics, stages, total


def measure_traced(run: Run) -> tuple[dict, dict, Pass]:
    """Per-layer metrics: one untraced and one traced pass of the same
    inputs. The untraced pass gives the stage times, and with the traced
    one the tracing overhead."""
    from tracing import layer_metrics

    run.setup(traced=True)
    untraced, _ = run.run_pass(traced=False)
    traced, spans = run.run_pass(traced=True)
    total = combine([run.setup_pass, untraced, traced])
    metrics = layer_metrics(run.setup_spans + spans, traced.stub)
    for stage, t in stage_times(run, [untraced]).items():
        metrics[f"stage.{stage}_s"] = (t, "s")
    rate = records_per_s(run.truth.records, traced)
    base = records_per_s(run.truth.records, untraced)
    metrics["trace.records_per_s"] = (rate, "records/s")
    metrics["trace.untraced_records_per_s"] = (base, "records/s")
    metrics["trace.overhead_pct"] = ((base / rate - 1.0) * 100.0 if rate else 0.0, "%")
    return metrics, {}, total


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return the JSON result and the untraced stage times."""
    with SpeedSampler() as sampler:
        run = Run(WORKLOADS[name], seed, Deadline(DEADLINE_S), sampler)
        try:
            metrics, stages, total = measure_traced(run) if trace else measure(run, seconds)
        finally:
            run.close()
    for failure in total.failures:
        print(f"{name}: FAILED {failure}", file=sys.stderr)
    print(f"{name}: artifacts sha256 {total.digest}")
    print(f"{name}: failed_frac {total.failed / total.attempted:.6f} ({total.failed}/{total.attempted})")
    if not trace:
        print(f"{name}: {total.repetitions} repetition(s) of the stage sequence")
    for key, (value, unit) in metrics.items():
        print(f"{name}: {key} {value:.6g} {unit}")
    for key, (value, unit) in stages.items():
        print(f"{name}: {key} {value:.6g} {unit} (stage time, not bounded)")
    result = {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, stages


def run_all(seed: int, seconds: float) -> dict:
    baseline = json.loads(BASELINE.read_text())["medians"] if BASELINE.is_file() else {}
    results, table = {}, {}
    for name in WORKLOADS:
        results[name], stages = run_workload(name, seed, seconds, trace=False)
        metrics = results[name]["metrics"]
        table[name] = {k: (m["value"], m["unit"]) for k, m in metrics.items()} | stages
    print()
    print(f"{'metric':<16}{'unit':<11}" + "".join(f"{name:>21}" for name in WORKLOADS))
    for key, (_, unit) in table[next(iter(WORKLOADS))].items():
        row = f"{key:<16}{unit:<11}"
        for name in WORKLOADS:
            value = table[name][key][0]
            base = baseline.get(name, {}).get(key)
            cell = f"{value:.4g}" + (f" ({value / base - 1:+.0%})" if base else "")
            row += f"{cell:>21}"
        print(row)
    if baseline:
        print(f"(change against {BASELINE.relative_to(ROOT)} in parentheses)")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="reportguide benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "reportguide" / "__init__.py").is_file():
        print(f"reportguide sources not found under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the benchmark, its speed sampler and every stage process.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
