"""Text-overlap and entity metrics for generated reports.

Every metric here is computed from first principles over a shared tokenizer,
and every float sum adds left to right (`_float_sum`), so scores are
reproducible bit for bit on every supported Python: corpus-level BLEU-1..4
without smoothing, LCS-based ROUGE-L, a tf-idf consensus score with length
penalty, a compact alignment-based METEOR variant, and LLM-extracted entity
overlap.
One candidate is scored against exactly one reference. Within a call, each
distinct text is tokenized once and its n-gram counts are shared by BLEU
and CIDEr-D, and each distinct (generated, reference) pair is scored once:
its per-pair values are copied to every slot that carries it, so every
float is the one that scoring each slot on its own gives.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
import re
from collections import Counter
from typing import NamedTuple

from .errors import ConfigError, DataError, LLMOutputError
from .gateway import ChatRequest, complete_with_reprompt, map_distinct_texts, parse_string_list
from .schema import METRIC_NAMES, GatewayConfig
from .textnorm import CJK_CLASS

logger = logging.getLogger(__name__)

ROUGE_BETA = 1.2
CIDER_SIGMA = 6.0
METEOR_CHUNK_WEIGHT = 0.5
METEOR_CHUNK_POWER = 3
METEOR_RECALL_WEIGHT = 9.0  # F_mean = 10PR / (R + 9P)
MAX_N = 4  # BLEU and CIDEr-D use the n-gram orders 1..MAX_N


# One CJK ideograph, or a run of alphanumerics other than CJK ideographs
# (a str-pattern \w is str.isalnum() plus the underscore). On ASCII text,
# which holds no ideograph, the second branch alone is the same pattern.
_TOKEN_PATTERN = f"[{CJK_CLASS}]|[^\\W_{CJK_CLASS}]+"
_ASCII_TOKEN_RE = re.compile(r"[^\W_]+")


def _float_sum(values) -> float:
    """The plain left-to-right sum of `values`, starting from 0.0: what
    builtin `sum` gives on Python 3.10 and 3.11. From 3.12 on, `sum`
    compensates float rounding, which would change scores in their last
    bits, so every float sum here goes through this one."""
    return functools.reduce(operator.add, values, 0.0)


def tokenize(text: str) -> list[str]:
    """Lowercase and split: CJK ideographs become single-character tokens,
    anything alphanumeric groups into runs, punctuation separates and is
    dropped. Idempotent: re-tokenizing a space-joined token list is a no-op.
    """
    text = text.lower()
    if text.isascii():
        return _ASCII_TOKEN_RE.findall(text)
    return re.compile(_TOKEN_PATTERN).findall(text)


def ngram_counts(tokens: list[str], n: int) -> Counter:
    """Counts of the n-grams of `tokens`, keyed in first-occurrence order."""
    return Counter(zip(*[tokens[i:] for i in range(n)]))


# ---------------------------------------------------------------------------
# One analysis per distinct text
# ---------------------------------------------------------------------------


class _Text:
    """One distinct text of a scoring call: its tokens and the number of
    slots of the two columns that carry it. Hashed by identity."""

    __slots__ = ("tokens", "uses", "kept")

    def __init__(self, tokens: tuple[str, ...]):
        self.tokens = tokens
        self.uses = 0
        self.kept: list[Counter] | None = None

    def grams(self) -> list[Counter]:
        """The n-gram counts of orders 1..MAX_N. A text that more than one
        slot carries keeps them for the call. Any other text rebuilds them
        at each use: holding them costs more, in memory traffic and
        collector passes, than building them again."""
        if self.kept is not None:
            return self.kept
        grams = [ngram_counts(self.tokens, n) for n in range(1, MAX_N + 1)]
        if self.uses > 1:
            self.kept = grams
        return grams


def _analyse(candidates, references, tokens_of) -> tuple[list[_Text], list[_Text]]:
    """Both columns as `_Text`s. Each distinct item (a report text, or a
    token tuple) of either column is tokenized by `tokens_of` once, and
    every slot that carries it shares the one `_Text`."""
    table: dict = {}

    def column(items) -> list[_Text]:
        out = []
        for item in items:
            text = table.get(item)
            if text is None:
                # A tuple of strings drops out of the collector's tracking;
                # a list of them never does.
                text = table[item] = _Text(tuple(tokens_of(item)))
            text.uses += 1
            out.append(text)
        return out

    return column(candidates), column(references)


def _token_columns(
    candidates: list[list[str]], references: list[list[str]]
) -> tuple[list[_Text], list[_Text]]:
    """Two columns of token lists as `_Text`s, once they pair up."""
    if len(candidates) != len(references):
        raise ConfigError(
            f"{len(candidates)} candidates but {len(references)} references"
        )
    if not candidates:
        raise ConfigError("cannot score an empty corpus")
    return _analyse(map(tuple, candidates), map(tuple, references), tuple)


def _per_pair(score, cands: list[_Text], refs: list[_Text]) -> list:
    """`score(cand, ref)` of each slot's pair, in slot order. A pair of two
    texts that more than one slot carries may recur: it is scored once and
    its value copied to every slot that carries it. Any other pair cannot
    recur, so it is scored directly and kept nowhere."""
    memo: dict[tuple[_Text, _Text], object] = {}
    out = []
    for cand, ref in zip(cands, refs):
        if cand.uses == 1 or ref.uses == 1:
            out.append(score(cand, ref))
            continue
        key = (cand, ref)
        if key not in memo:
            memo[key] = score(cand, ref)
        out.append(memo[key])
    return out


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def bleu_scores(candidates: list[list[str]], references: list[list[str]]) -> list[float]:
    """Corpus-level BLEU-1..4 with clipped n-gram counts pooled over the
    corpus, a plain geometric mean (no smoothing: a zero precision zeroes
    every order it appears in), and the standard brevity penalty.
    """
    cands, refs = _token_columns(candidates, references)
    return _bleu_from_counts(_per_pair(_bleu_counts, cands, refs))


def _bleu_counts(cand: _Text, ref: _Text) -> tuple[int, ...]:
    """One pair's BLEU statistics: the candidate and reference lengths, then
    the clipped and the total candidate n-gram counts of orders 1..MAX_N. A
    candidate of L tokens has max(0, L - n + 1) n-grams of order n."""
    length = len(cand.tokens)
    clipped = [
        sum(min(count, r_counts.get(gram, 0)) for gram, count in c_counts.items())
        for c_counts, r_counts in zip(cand.grams(), ref.grams())
    ]
    total = [max(0, length - n + 1) for n in range(1, MAX_N + 1)]
    return (length, len(ref.tokens), *clipped, *total)


def _bleu_from_counts(counts: list[tuple[int, ...]]) -> list[float]:
    """BLEU-1..MAX_N of the pooled (summed) statistics of `counts`."""
    return _bleu(tuple(sum(column) for column in zip(*counts)))


def _bleu(stats: tuple[int, ...]) -> list[float]:
    """BLEU-1..MAX_N of one set of `_bleu_counts` statistics, one pair's or a
    corpus's pooled ones: order n scores bp * exp(mean of log p_1..p_n), and
    zero once any of those precisions is zero."""
    cand_len, ref_len, *rest = stats
    scores = [0.0] * MAX_N
    if cand_len == 0:
        return scores
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    log_sum = 0.0
    for n, (clipped, total) in enumerate(zip(rest[:MAX_N], rest[MAX_N:]), 1):
        if not clipped:  # clipped <= total, so this is a zero precision
            break
        log_sum += math.log(clipped / total)
        scores[n - 1] = bp * math.exp(log_sum / n)
    return scores


def _bleu_pair(cand: _Text, ref: _Text) -> tuple[tuple[int, ...], list[float]]:
    """One pair's BLEU statistics and its BLEU-1..MAX_N."""
    counts = _bleu_counts(cand, ref)
    return counts, _bleu(counts)


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Bit-parallel LCS length (Allison-Dix, Hyyrö), with `b` the shorter
    sequence. After each token of `a`, bit i of `v` is 0 exactly where the
    LCS of the tokens read so far with b[:i + 1] is one longer than with
    b[:i], so the zero bits count the LCS."""
    if len(b) > len(a):
        a, b = b, a
    masks: dict[str, int] = {}
    for i, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l_sample(candidate: list[str], reference: list[str]) -> float:
    """F-measure over the longest common subsequence, recall-weighted with
    beta = 1.2. An empty reference scores zero (with a warning upstream)."""
    if not reference or not candidate:
        return 0.0
    lcs = _lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    recall = lcs / len(reference)
    precision = lcs / len(candidate)
    beta_sq = ROUGE_BETA * ROUGE_BETA
    return ((1 + beta_sq) * recall * precision) / (recall + beta_sq * precision)


# ---------------------------------------------------------------------------
# CIDEr-D style consensus
# ---------------------------------------------------------------------------


def cider_d_scores(
    candidates: list[list[str]] | list[_Text], references: list[list[str]] | list[_Text]
) -> list[float]:
    """Per-sample consensus scores in [0, 10].

    Vectors are raw n-gram counts weighted by log(|corpus| / df) with df
    clamped to at least 1 and taken over the reference corpus. Similarity is
    a reference-clipped cosine per n-gram order, scaled by a Gaussian length
    penalty (sigma = 6), averaged over n = 1..4, and multiplied by 10. A
    single-document corpus makes every idf zero and the score degenerates.
    Each column holds token lists, or the `_Text`s of `evaluate_generation`'s
    analysis, which pass through as they are.
    """
    if candidates and isinstance(candidates[0], _Text):
        cands, refs = candidates, references
    else:
        cands, refs = _token_columns(candidates, references)
    corpus_size = len(refs)
    if corpus_size == 1:
        logger.warning(
            "consensus scoring over a single-document corpus: all idf weights "
            "are zero, scores degenerate to 0"
        )
    # The tables of each distinct reference, held for this call: the
    # document frequencies and the reference vectors both read them.
    ref_slots = Counter(refs)
    ref_grams = {ref: ref.grams() for ref in ref_slots}
    # Each distinct reference adds the number of slots carrying it to the df
    # of each of its n-grams; a one-slot reference takes Counter's C loop.
    dfs: list[Counter] = [Counter() for _ in range(MAX_N)]
    for ref, slots in ref_slots.items():
        for df, counts in zip(dfs, ref_grams[ref]):
            if slots == 1:
                df.update(counts.keys())
                continue
            for gram in counts:
                df[gram] += slots
    idfs = [{gram: math.log(corpus_size / d) for gram, d in df.items()} for df in dfs]
    # df is clamped to 1 so n-grams unseen in the reference corpus keep a
    # finite idf of log(corpus_size).
    unseen_idf = math.log(corpus_size / 1)

    def tfidf(text: _Text) -> list[tuple[dict, float]]:
        """The idf-weighted vector of each order of `text`, with its norm."""
        grams = ref_grams[text] if text in ref_grams else text.grams()
        out = []
        for counts, idf in zip(grams, idfs):
            vec = {gram: count * idf.get(gram, unseen_idf) for gram, count in counts.items()}
            out.append((vec, math.sqrt(_float_sum(v * v for v in vec.values()))))
        return out

    # Only a text that more than one slot carries keeps its vectors: holding
    # those of one-off texts costs more than it saves.
    kept: dict[_Text, list[tuple[dict, float]]] = {}

    def vectors(text: _Text) -> list[tuple[dict, float]]:
        if text.uses == 1:
            return tfidf(text)
        if text not in kept:
            kept[text] = tfidf(text)
        return kept[text]

    def score(cand: _Text, ref: _Text) -> float:
        penalty = math.exp(
            -((len(cand.tokens) - len(ref.tokens)) ** 2)
            / (2.0 * CIDER_SIGMA * CIDER_SIGMA)
        )
        per_n = []
        for (cand_vec, cand_norm), (ref_vec, ref_norm) in zip(vectors(cand), vectors(ref)):
            # Reference-clipped cosine, summed left to right in n-gram order.
            if cand_norm == 0.0 or ref_norm == 0.0:
                per_n.append(0.0)
                continue
            dot = _float_sum(
                min(v, ref_vec.get(gram, 0.0)) * ref_vec.get(gram, 0.0)
                for gram, v in cand_vec.items()
            )
            per_n.append(dot / (cand_norm * ref_norm) * penalty)
        return 10.0 * _float_sum(per_n) / MAX_N

    return _per_pair(score, cands, refs)


# ---------------------------------------------------------------------------
# METEOR (exact-match variant)
# ---------------------------------------------------------------------------


def _align(candidate: list[str], reference: list[str]) -> tuple[int, int]:
    """Greedy left-to-right exact alignment; returns (matches, chunks).

    Each candidate token takes an unused reference occurrence of itself,
    preferring the one that continues the current chunk (previous reference
    position + 1), then the earliest unused occurrence. Chunks count maximal
    runs contiguous in both sequences.
    """
    unused: dict[str, list[int]] = {}
    for j, tok in enumerate(reference):
        unused.setdefault(tok, []).append(j)

    matches = 0
    chunks = 0
    prev_cand = -2
    prev_ref = -2
    for i, tok in enumerate(candidate):
        positions = unused.get(tok)
        if not positions:
            continue
        if prev_ref + 1 in positions:
            j = prev_ref + 1
        else:
            j = positions[0]
        positions.remove(j)
        matches += 1
        if not (i == prev_cand + 1 and j == prev_ref + 1):
            chunks += 1
        prev_cand, prev_ref = i, j
    return matches, chunks


def meteor_sample(candidate: list[str], reference: list[str]) -> float:
    """Harmonic precision/recall mean (recall-heavy) discounted by a
    fragmentation penalty of 0.5 * (chunks / matches)^3. No matches: 0."""
    if not candidate or not reference:
        return 0.0
    matches, chunks = _align(candidate, reference)
    if matches == 0:
        return 0.0
    precision = matches / len(candidate)
    recall = matches / len(reference)
    f_mean = (
        10.0 * precision * recall / (recall + METEOR_RECALL_WEIGHT * precision)
    )
    penalty = METEOR_CHUNK_WEIGHT * (chunks / matches) ** METEOR_CHUNK_POWER
    return f_mean * (1.0 - penalty)


# ---------------------------------------------------------------------------
# Entity overlap
# ---------------------------------------------------------------------------

_ENTITY_PROMPT = """[task:entities]
You extract clinical entities from one diagnostic report: diseases, findings,
anatomical sites, and devices. Respond with a single JSON array of strings,
one entity per element, and no other text.
"""


def _normalize_entity(entity: str) -> str:
    return " ".join(tokenize(entity))


def extract_entities(text: str, config: GatewayConfig) -> set[str]:
    """LLM entity extraction for one report, normalized for exact matching."""
    request = ChatRequest(system=_ENTITY_PROMPT, user=text)
    entities = complete_with_reprompt(request, config, parse_string_list)
    return {e for e in (_normalize_entity(x) for x in entities) if e}


class EntityScores(NamedTuple):
    precision: float
    recall: float
    f1: float


def entity_overlap(generated: set[str], reference: set[str]) -> EntityScores:
    """Set precision/recall/F1 with the empty-set conventions: both empty
    scores 1.0 across the board, exactly one empty scores 0.0."""
    if not generated and not reference:
        return EntityScores(1.0, 1.0, 1.0)
    if not generated or not reference:
        return EntityScores(0.0, 0.0, 0.0)
    hit = len(generated & reference)
    precision = hit / len(generated)
    recall = hit / len(reference)
    f1 = (2 * precision * recall / (precision + recall)) if (precision + recall) else 0.0
    return EntityScores(precision, recall, f1)


def entity_f1_scores(
    generated_texts: list[str],
    reference_texts: list[str],
    config: GatewayConfig,
) -> tuple[list[EntityScores | None], int]:
    """Per-sample entity overlap and the number of excluded samples.

    Each distinct text of either column is extracted once
    (`map_distinct_texts`). A text whose extraction stays unparseable
    after the reprompt excludes (None) every sample that carries it; one
    warning per such text says how many samples it excludes.
    """
    entities = map_distinct_texts(
        lambda text: extract_entities(text, config),
        [*generated_texts, *reference_texts],
        config,
    )

    out: list[EntityScores | None] = []
    excluded_by: Counter = Counter()
    for gen, ref in zip(generated_texts, reference_texts):
        failed = {t for t in (gen, ref) if isinstance(entities[t], LLMOutputError)}
        if failed:
            excluded_by.update(failed)
            out.append(None)
        else:
            out.append(entity_overlap(entities[gen], entities[ref]))
    for text in entities:
        if text in excluded_by:
            logger.warning(
                "entity extraction failed, excluding %d samples carrying the text: %s",
                excluded_by[text],
                entities[text],
            )
    return out, sum(s is None for s in out)


# ---------------------------------------------------------------------------
# Corpus evaluation
# ---------------------------------------------------------------------------


def evaluate_generation(
    pairs: list[tuple[str, str, str]],
    gateway: GatewayConfig = GatewayConfig(),
    enabled: tuple[str, ...] = METRIC_NAMES,
    config_echo: dict | None = None,
) -> dict:
    """Score (id, generated, reference) triples and build the report document.

    Corpus values are pooled for BLEU and averaged per sample for the rest,
    both over every slot in slot order. Each distinct text is analysed once
    (`_analyse`) for every text-overlap metric, and each distinct pair is
    scored once per metric (`_per_pair`). `pairs` is not empty and `enabled`
    names only METRIC_NAMES: `load_generated` and the config's choices hold
    evaluate's inputs to that. Entities are extracted through `gateway`, the
    mock by default.
    """
    ids = [p[0] for p in pairs]
    gen_texts = [p[1] for p in pairs]
    ref_texts = [p[2] for p in pairs]
    cands, refs = _analyse(gen_texts, ref_texts, tokenize)
    empty = [rid for rid, ref in zip(ids, refs) if not ref.tokens]
    if empty:
        logger.warning(
            "%d records have an empty reference after tokenization: %s%s",
            len(empty),
            ", ".join(empty[:5]),
            ", ..." if len(empty) > 5 else "",
        )

    per_sample: list[dict] = [{"id": rid} for rid in ids]
    corpus: dict = {}
    n = len(pairs)

    if "bleu" in enabled:
        names = ("bleu1", "bleu2", "bleu3", "bleu4")
        scored = _per_pair(_bleu_pair, cands, refs)
        corpus.update(zip(names, _bleu_from_counts([counts for counts, _ in scored])))
        for row, (_, scores) in zip(per_sample, scored):
            row.update(zip(names, scores))

    # The per-sample metrics averaged over the corpus, in metrics.json key order.
    for name, column in (
        ("rouge_l", lambda: _per_pair(lambda c, r: rouge_l_sample(c.tokens, r.tokens), cands, refs)),
        ("cider_d", lambda: cider_d_scores(cands, refs)),
        ("meteor_simple", lambda: _per_pair(lambda c, r: meteor_sample(c.tokens, r.tokens),
                                            cands, refs)),
    ):
        if name in enabled:
            values = column()
            corpus[name] = _float_sum(values) / n
            for row, v in zip(per_sample, values):
                row[name] = v

    if "entity_f1" in enabled:
        scores, failures = entity_f1_scores(gen_texts, ref_texts, gateway)
        kept = [s for s in scores if s is not None]
        m = len(kept)
        corpus["entity_p"] = (_float_sum(s.precision for s in kept) / m) if m else 0.0
        corpus["entity_r"] = (_float_sum(s.recall for s in kept) / m) if m else 0.0
        corpus["entity_f1"] = (_float_sum(s.f1 for s in kept) / m) if m else 0.0
        if failures:
            corpus["entity_excluded"] = failures
        for row, s in zip(per_sample, scores):
            if s is not None:
                row["entity_p"] = s.precision
                row["entity_r"] = s.recall
                row["entity_f1"] = s.f1

    _validate_ranges(corpus)
    return {"config": dict(config_echo or {}), "corpus": corpus, "per_sample": per_sample}


def _validate_ranges(corpus: dict) -> None:
    """Refuse corpus scores outside their ranges: [0, 1] for the BLEU,
    ROUGE-L, METEOR and entity scores, [0, 10] for CIDEr-D, each within a
    rounding tolerance. Every other check in the program is on a value that
    enters it; this is the only one on the program's own numbers before they
    become an artifact. So a scorer defect exits 4 (README's exit-4 row,
    "a metric outside its range") instead of writing a silently wrong
    `metrics.json`."""
    unit = ("bleu1", "bleu2", "bleu3", "bleu4", "rouge_l", "meteor_simple",
            "entity_p", "entity_r", "entity_f1")
    for name in unit:
        if name in corpus and not -1e-12 <= corpus[name] <= 1.0 + 1e-12:
            raise DataError(f"metric {name} out of range: {corpus[name]}")
    if "cider_d" in corpus and not -1e-12 <= corpus["cider_d"] <= 10.0 + 1e-9:
        raise DataError(f"metric cider_d out of range: {corpus['cider_d']}")
