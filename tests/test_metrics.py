"""Text-overlap metrics against hand-computed and brute-force oracles, plus
entity extraction and the corpus evaluation document."""

from __future__ import annotations

import json
import logging
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reportguide import gateway as gateway_mod
from reportguide import metrics
from reportguide.cli import main
from reportguide.errors import ConfigError
from reportguide.fileio import json_text
from reportguide.gateway import ChatResponse, GatewayConfig
from reportguide.textnorm import CJK_RANGES
from reportguide.metrics import (
    EntityScores,
    _analyse,
    _bleu,
    _bleu_counts,
    _bleu_from_counts,
    _float_sum,
    _lcs_length,
    _per_pair,
    bleu_scores,
    cider_d_scores,
    entity_f1_scores,
    entity_overlap,
    evaluate_generation,
    extract_entities,
    meteor_sample,
    ngram_counts,
    rouge_l_sample,
    tokenize,
)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


def test_tokenize_lowercases_and_drops_punctuation():
    assert tokenize("The cat, sat!") == ["the", "cat", "sat"]


def test_tokenize_keeps_alphanumeric_runs_together():
    assert tokenize("T2-weighted 3mm slices") == ["t2", "weighted", "3mm", "slices"]


def test_tokenize_splits_cjk_into_single_characters():
    assert tokenize("肺结核病灶") == ["肺", "结", "核", "病", "灶"]


def test_tokenize_mixed_scripts():
    assert tokenize("左肺cavity形成") == ["左", "肺", "cavity", "形", "成"]


def test_tokenize_empty_and_punctuation_only():
    assert tokenize("") == []
    assert tokenize("!!! ---") == []


@settings(max_examples=200)
@given(st.text(max_size=80))
def test_tokenize_is_idempotent_over_space_joins(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens


# The per-character tokenizer the compiled pattern replaced, kept verbatim
# as the reference the pattern must match.
def _reference_is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in CJK_RANGES)


def _reference_tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    current: list[str] = []
    for ch in text.lower():
        if _reference_is_cjk(ch):
            if current:
                tokens.append("".join(current))
                current = []
            tokens.append(ch)
        elif ch.isalnum():
            current.append(ch)
        else:
            if current:
                tokens.append("".join(current))
                current = []
    if current:
        tokens.append("".join(current))
    return tokens


# Code points where the CJK test flips (lo-1, lo, hi, hi+1 of every block),
# the underscore, digits, a letter whose lowercase form is longer ("İ"
# lowercases to "i" plus a combining dot), an astral-plane ideograph, and
# numerics outside ASCII.
TOKEN_EDGE_CHARS = tuple(
    chr(cp) for lo, hi in CJK_RANGES for cp in (lo - 1, lo, hi, hi + 1)
) + ("_", "0", "7", "9", "\u0130", "\U00020001", "\u00b2", "\u216b", "\u0663")


@pytest.mark.parametrize("ch", TOKEN_EDGE_CHARS)
def test_tokenize_matches_the_per_character_reference_at_edges(ch):
    for text in (ch, ch * 3, f"a{ch}b", f"{ch} x{ch}{ch}1 \u80ba{ch}", f"_{ch}_"):
        assert tokenize(text) == _reference_tokenize(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(TOKEN_EDGE_CHARS)), max_size=60))
def test_tokenize_matches_the_per_character_reference(text):
    assert tokenize(text) == _reference_tokenize(text)


# Text that is ASCII after `.lower()` takes its own pattern. Half the texts
# are ASCII; the rest add, sparsely, the characters next to that path: the
# Kelvin sign (U+212A, whose lowercase is ASCII "k"), "İ" (whose lowercase
# is not ASCII), ideographs of the base and a supplementary block, fullwidth
# digits and the underscore.
NEAR_ASCII_CHARS = (
    "\u212a", "\u0130", "\u4e00", "\u80ba", "\U00020001", "\U0002a700", "\uff10", "\uff19", "_"
)
NEAR_ASCII_TEXT = st.one_of(
    st.text(alphabet=st.characters(max_codepoint=0x7F), max_size=60),
    st.lists(
        st.one_of(
            st.text(alphabet=st.characters(max_codepoint=0x7F), min_size=1, max_size=8),
            st.sampled_from(NEAR_ASCII_CHARS),
        ),
        max_size=10,
    ).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(NEAR_ASCII_TEXT)
@example("\u212aelvin_K\uff11\U00020001x")
def test_tokenize_matches_the_per_character_reference_on_near_ascii_text(text):
    assert tokenize(text) == _reference_tokenize(text)


def test_ngram_counts_window():
    counts = ngram_counts(["a", "b", "a", "b"], 2)
    assert counts == {("a", "b"): 2, ("b", "a"): 1}
    assert ngram_counts(["a"], 2) == {}


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def test_float_sum_adds_left_to_right_without_compensation():
    # A compensated sum (math.fsum, or builtin sum from Python 3.12) gives 1.0.
    values = [1e16, 1.0, -1e16]
    assert math.fsum(values) == 1.0
    assert _float_sum(values) == 0.0
    assert _float_sum(iter(values)) == 0.0
    assert _float_sum([]) == 0.0


def test_bleu_identity_corpus_is_exactly_one():
    tokens = [tokenize("a b c d e"), tokenize("f g h i j k")]
    assert bleu_scores(tokens, tokens) == [1.0, 1.0, 1.0, 1.0]


def test_bleu_clipping_example():
    scores = bleu_scores([tokenize("the the the")], [tokenize("the cat")])
    assert scores[0] == pytest.approx(1 / 3, abs=1e-9)
    assert scores[1] == 0.0


def test_bleu_zero_precision_zeroes_higher_orders():
    # One shared unigram but no shared bigram: BLEU-2..4 all collapse.
    scores = bleu_scores([tokenize("a x b")], [tokenize("a y b")])
    assert scores[0] > 0.0
    assert scores[1:] == [0.0, 0.0, 0.0]


def test_bleu_brevity_penalty_for_short_candidates():
    # 2 candidate tokens vs 4 reference tokens with perfect precision:
    # BLEU-1 = exp(1 - 4/2) = e^-1.
    scores = bleu_scores([tokenize("a b")], [tokenize("a b c d")])
    assert scores[0] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_bleu_is_invariant_under_pair_duplication():
    cands = [tokenize("the cat sat on the mat"), tokenize("a dog barked")]
    refs = [tokenize("the cat sat on a mat"), tokenize("the dog barked")]
    assert bleu_scores(cands * 2, refs * 2) == bleu_scores(cands, refs)


def test_bleu_is_invariant_under_pair_permutation():
    cands = [tokenize("the cat sat"), tokenize("a dog barked"), tokenize("x y z")]
    refs = [tokenize("the cat sat down"), tokenize("the dog barked"), tokenize("x z")]
    assert bleu_scores(cands[::-1], refs[::-1]) == bleu_scores(cands, refs)


def test_bleu_length_mismatch_is_an_error():
    with pytest.raises(ConfigError, match="candidates"):
        bleu_scores([["a"]], [["a"], ["b"]])


def test_bleu_empty_corpus_is_an_error():
    with pytest.raises(ConfigError, match="empty"):
        bleu_scores([], [])


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------


def test_rouge_hand_computed_example():
    score = rouge_l_sample(tokenize("a b c d"), tokenize("a c d"))
    assert score == pytest.approx(0.8798077, abs=1e-6)


def test_rouge_identity_is_one():
    tokens = tokenize("the quick brown fox")
    assert rouge_l_sample(tokens, tokens) == pytest.approx(1.0, abs=1e-12)


def test_rouge_disjoint_is_zero():
    assert rouge_l_sample(tokenize("a b c"), tokenize("x y z")) == 0.0


def test_rouge_empty_sides_are_zero():
    assert rouge_l_sample([], tokenize("a")) == 0.0
    assert rouge_l_sample(tokenize("a"), []) == 0.0


def test_rouge_weights_recall_over_precision():
    # Same LCS; the recall-heavy side must score higher than the
    # precision-heavy side under beta > 1.
    recall_heavy = rouge_l_sample(tokenize("a b c d e f"), tokenize("a b c"))
    precision_heavy = rouge_l_sample(tokenize("a b c"), tokenize("a b c d e f"))
    assert recall_heavy > precision_heavy


# ---------------------------------------------------------------------------
# CIDEr-D against a brute-force oracle
# ---------------------------------------------------------------------------


def _oracle_cider(candidates: list[list[str]], references: list[list[str]]) -> list[float]:
    """Independent re-derivation with explicit n-gram tables.

    Uses naive nested loops and string-joined gram keys rather than the
    implementation's Counter pipeline.
    """
    n_docs = len(references)

    def grams_of(tokens, n):
        table: dict[str, int] = {}
        for i in range(len(tokens) - n + 1):
            key = "\x1f".join(tokens[i : i + n])
            table[key] = table.get(key, 0) + 1
        return table

    scores = []
    for cand, ref in zip(candidates, references):
        total = 0.0
        for n in (1, 2, 3, 4):
            doc_freq: dict[str, int] = {}
            for other in references:
                seen = set(grams_of(other, n))
                for key in seen:
                    doc_freq[key] = doc_freq.get(key, 0) + 1

            cand_vec = {}
            for key, count in grams_of(cand, n).items():
                idf = math.log(n_docs / max(1, doc_freq.get(key, 0)))
                cand_vec[key] = count * idf
            ref_vec = {}
            for key, count in grams_of(ref, n).items():
                idf = math.log(n_docs / max(1, doc_freq.get(key, 0)))
                ref_vec[key] = count * idf

            cand_norm = math.sqrt(sum(v * v for v in cand_vec.values()))
            ref_norm = math.sqrt(sum(v * v for v in ref_vec.values()))
            if cand_norm == 0.0 or ref_norm == 0.0:
                continue
            dot = 0.0
            for key, v in cand_vec.items():
                r = ref_vec.get(key, 0.0)
                dot += min(v, r) * r
            sim = dot / (cand_norm * ref_norm)
            penalty = math.exp(-((len(cand) - len(ref)) ** 2) / 72.0)
            total += sim * penalty
        scores.append(10.0 * total / 4.0)
    return scores


_TOY_CANDIDATES = [
    tokenize("the cat sat on the mat"),
    tokenize("a dog barked loudly at night"),
    tokenize("birds fly high"),
]
_TOY_REFERENCES = [
    tokenize("the cat sat on a mat"),
    tokenize("the dog barked at night"),
    tokenize("birds fly very high in the sky"),
]


def test_cider_matches_brute_force_oracle_on_toy_corpus():
    got = cider_d_scores(_TOY_CANDIDATES, _TOY_REFERENCES)
    want = _oracle_cider(_TOY_CANDIDATES, _TOY_REFERENCES)
    assert got == pytest.approx(want, abs=1e-9)


def test_cider_matches_oracle_on_a_second_corpus():
    cands = [
        tokenize("small pleural effusion on the right side"),
        tokenize("no acute disease"),
        tokenize("dense consolidation in the left lower lobe"),
        tokenize("heart size is normal"),
    ]
    refs = [
        tokenize("small right pleural effusion is present"),
        tokenize("no acute cardiopulmonary disease"),
        tokenize("left lower lobe consolidation is dense"),
        tokenize("the heart size is within normal limits"),
    ]
    assert cider_d_scores(cands, refs) == pytest.approx(
        _oracle_cider(cands, refs), abs=1e-9
    )


def test_cider_self_identical_sample_scores_ten():
    refs = [
        tokenize("the cat sat on a mat"),
        tokenize("a very different sentence about dogs"),
    ]
    scores = cider_d_scores(refs, refs)
    assert scores == pytest.approx([10.0, 10.0], abs=1e-9)


def test_cider_single_document_corpus_degenerates_with_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="reportguide.metrics"):
        scores = cider_d_scores([tokenize("a b c d")], [tokenize("a b c d")])
    assert scores == [0.0]
    assert any("single-document" in r.message for r in caplog.records)


def test_cider_length_mismatch_and_empty_corpus_are_errors():
    with pytest.raises(ConfigError):
        cider_d_scores([["a"]], [])
    with pytest.raises(ConfigError, match="empty"):
        cider_d_scores([], [])


def test_cider_scores_lie_in_range_on_noisy_pairs():
    cands = [tokenize(t) for t in ("a b", "c d e f g", "x", "a a a a a a")]
    refs = [tokenize(t) for t in ("a b c", "c d e", "y z", "a b a b")]
    for s in cider_d_scores(cands, refs):
        assert 0.0 <= s <= 10.0


# ---------------------------------------------------------------------------
# The n-gram, LCS and CIDEr-D code the single-pass versions replaced, kept
# verbatim as references the new code must match exactly (same n-gram key
# order, same integers, same floats).
# ---------------------------------------------------------------------------


def _reference_ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _reference_lcs_length(a, b):
    if not a or not b:
        return 0
    # One rolling row keeps memory linear in the shorter sequence.
    if len(b) > len(a):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    for x in a:
        row = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                row.append(prev[j - 1] + 1)
            else:
                row.append(max(prev[j], row[j - 1]))
        prev = row
    return prev[-1]


def _reference_document_frequencies(references, max_n):
    df = [Counter() for _ in range(max_n)]
    for ref in references:
        for n in range(1, max_n + 1):
            for gram in set(_reference_ngram_counts(ref, n)):
                df[n - 1][gram] += 1
    return df


def _reference_tfidf_vector(tokens, n, df, corpus_size):
    counts = _reference_ngram_counts(tokens, n)
    vec = {}
    for gram, count in counts.items():
        # df is clamped to 1 so n-grams unseen in the reference corpus keep a
        # finite idf of log(corpus_size).
        idf = math.log(corpus_size / max(1, df.get(gram, 0)))
        vec[gram] = count * idf
    return vec


def _reference_clipped_cosine(cand_vec, ref_vec):
    cand_norm = math.sqrt(sum(v * v for v in cand_vec.values()))
    ref_norm = math.sqrt(sum(v * v for v in ref_vec.values()))
    if cand_norm == 0.0 or ref_norm == 0.0:
        return 0.0
    dot = sum(
        min(v, ref_vec.get(gram, 0.0)) * ref_vec.get(gram, 0.0)
        for gram, v in cand_vec.items()
    )
    return dot / (cand_norm * ref_norm)


def _reference_cider_d_scores(candidates, references, max_n=4):
    corpus_size = len(references)
    df = _reference_document_frequencies(references, max_n)
    scores = []
    for cand, ref in zip(candidates, references):
        penalty = math.exp(-((len(cand) - len(ref)) ** 2) / (2.0 * 6.0 * 6.0))
        per_n = []
        for n in range(1, max_n + 1):
            cand_vec = _reference_tfidf_vector(cand, n, df[n - 1], corpus_size)
            ref_vec = _reference_tfidf_vector(ref, n, df[n - 1], corpus_size)
            per_n.append(_reference_clipped_cosine(cand_vec, ref_vec) * penalty)
        scores.append(10.0 * sum(per_n) / max_n)
    return scores


# Small vocabularies so n-grams repeat within and across sequences.
_SEQ = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=60)
_SEQ_WIDE = st.lists(st.integers(0, 40).map(str), max_size=60)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_SEQ, _SEQ_WIDE), st.integers(1, 6))
def test_ngram_counts_match_the_reference_in_key_order(tokens, n):
    new, old = ngram_counts(tokens, n), _reference_ngram_counts(tokens, n)
    assert new == old
    assert list(new) == list(old)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_SEQ, _SEQ_WIDE), st.one_of(_SEQ, _SEQ_WIDE))
def test_lcs_length_matches_the_reference(a, b):
    assert _lcs_length(a, b) == _reference_lcs_length(a, b)
    assert _lcs_length(b, a) == _reference_lcs_length(a, b)


@pytest.mark.parametrize("short_len", [63, 64, 65, 128, 130, 200])
def test_lcs_length_matches_the_reference_past_one_machine_word(short_len):
    # The shorter sequence sets the bit-vector width; these span more than
    # one 64-bit word, with repeats, so carries cross word boundaries.
    rng = random.Random(short_len)
    for vocab in (2, 5, 50):
        short = [str(rng.randrange(vocab)) for _ in range(short_len)]
        long = [str(rng.randrange(vocab)) for _ in range(short_len + rng.randrange(40))]
        assert _lcs_length(long, short) == _reference_lcs_length(long, short)
        assert _lcs_length(short, short) == short_len
        assert _lcs_length(short, list(reversed(short))) == _reference_lcs_length(
            short, list(reversed(short))
        )
        assert _lcs_length(["x"] * short_len, short + ["x"]) == 1


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.one_of(_SEQ, _SEQ_WIDE), st.one_of(_SEQ, _SEQ_WIDE)),
        min_size=1,
        max_size=60,
    )
)
def test_cider_d_matches_the_reference_exactly(pairs):
    cands = [c for c, _ in pairs]
    refs = [r for _, r in pairs]
    assert cider_d_scores(cands, refs) == _reference_cider_d_scores(cands, refs)


@pytest.mark.parametrize(
    "cands, refs",
    [
        ([[]], [[]]),
        ([["a", "a", "a"]], [["a", "a"]]),
        ([[], ["a", "b"]], [["a", "b"], []]),
        ([["a"] * 70, ["a", "b"] * 35], [["a", "b"] * 35, ["a"] * 70]),
        ([["a", "b", "c"]] * 3, [["a", "b", "c"]] * 3),
    ],
)
def test_cider_d_matches_the_reference_on_edge_corpora(cands, refs):
    assert cider_d_scores(cands, refs) == _reference_cider_d_scores(cands, refs)


# ---------------------------------------------------------------------------
# METEOR variant
# ---------------------------------------------------------------------------


def test_meteor_identity_example():
    score = meteor_sample(tokenize("a b c"), tokenize("a b c"))
    assert score == pytest.approx(0.9814815, abs=1e-6)


def test_meteor_no_common_tokens_is_zero():
    assert meteor_sample(tokenize("a b"), tokenize("x y")) == 0.0


def test_meteor_single_shared_token_is_exactly_half():
    assert meteor_sample(["a"], ["a"]) == 0.5


def test_meteor_swapped_pair_is_exactly_half():
    assert meteor_sample(tokenize("a b"), tokenize("b a")) == 0.5


def test_meteor_fragmentation_lowers_the_score():
    reference = tokenize("a b c d e f")
    contiguous = meteor_sample(tokenize("a b c d e f"), reference)
    scrambled = meteor_sample(tokenize("f e d c b a"), reference)
    assert scrambled < contiguous


def test_meteor_empty_sides_are_zero():
    assert meteor_sample([], tokenize("a")) == 0.0
    assert meteor_sample(tokenize("a"), []) == 0.0


def test_meteor_repeated_tokens_match_at_most_reference_count():
    # Candidate repeats "a" three times; the reference holds only one.
    score = meteor_sample(tokenize("a a a"), tokenize("a"))
    # m=1, P=1/3, R=1, F = 10*(1/3)/(1+3) = 0.83333, penalty 0.5 -> 0.41666
    assert score == pytest.approx(10 * (1 / 3) * 1 / (1 + 9 / 3) * 0.5, rel=1e-9)


# ---------------------------------------------------------------------------
# Entity overlap
# ---------------------------------------------------------------------------


def test_entity_overlap_hand_count():
    scores = entity_overlap({"a", "b"}, {"b", "c"})
    assert scores == EntityScores(0.5, 0.5, 0.5)


def test_entity_overlap_identity():
    assert entity_overlap({"a", "b"}, {"a", "b"}) == EntityScores(1.0, 1.0, 1.0)


def test_entity_overlap_empty_conventions():
    assert entity_overlap(set(), set()) == EntityScores(1.0, 1.0, 1.0)
    assert entity_overlap({"a"}, set()) == EntityScores(0.0, 0.0, 0.0)
    assert entity_overlap(set(), {"a"}) == EntityScores(0.0, 0.0, 0.0)


def test_extract_entities_normalizes_mock_output(mock_gateway):
    entities = extract_entities(
        "A cavity is seen with a small pleural effusion.", mock_gateway
    )
    assert entities == {"pulmonary cavitation", "pleural effusion"}


def test_extract_entities_empty_for_clean_text(mock_gateway):
    assert extract_entities("Completely unremarkable.", mock_gateway) == set()


def test_entity_scores_exclude_unparseable_samples(monkeypatch, mock_gateway, caplog):
    real_complete = gateway_mod.complete

    def flaky_complete(request, config):
        if "refuses extraction" in request.user:
            return ChatResponse(text="I cannot do that", input_tokens=0, output_tokens=0)
        return real_complete(request, config)

    monkeypatch.setattr(gateway_mod, "complete", flaky_complete)
    with caplog.at_level(logging.WARNING, logger="reportguide.metrics"):
        scores, failures = entity_f1_scores(
            ["A cavity is seen.", "this text refuses extraction"],
            ["A cavity is seen.", "A cavity is seen."],
            mock_gateway,
        )
    assert failures == 1
    assert scores[0] == EntityScores(1.0, 1.0, 1.0)
    assert scores[1] is None


def test_entity_scores_extract_each_distinct_text_once(monkeypatch, mock_gateway):
    real_complete = gateway_mod.complete
    users: list[str] = []  # list.append is atomic, so pool threads may share it

    def counting_complete(request, config):
        users.append(request.user)
        return real_complete(request, config)

    monkeypatch.setattr(gateway_mod, "complete", counting_complete)
    generated = ["A cavity is seen.", "Pleural effusion.", "A cavity is seen.", "Normal."]
    references = ["A cavity is seen.", "A cavity is seen.", "Normal.", "Normal."]
    scores, failures = entity_f1_scores(generated, references, mock_gateway)
    assert sorted(users) == sorted({*generated, *references})
    assert failures == 0
    assert scores == [
        entity_overlap(extract_entities(g, mock_gateway), extract_entities(r, mock_gateway))
        for g, r in zip(generated, references)
    ]


def test_a_failing_text_excludes_every_sample_that_carries_it(
    monkeypatch, mock_gateway, caplog
):
    real_complete = gateway_mod.complete
    bad = "this text refuses extraction"

    def flaky_complete(request, config):
        if bad in request.user:
            return ChatResponse(text="nope", input_tokens=0, output_tokens=0)
        return real_complete(request, config)

    monkeypatch.setattr(gateway_mod, "complete", flaky_complete)
    generated = [bad, "A cavity is seen.", bad, "Pleural effusion.", "A cavity is seen."]
    references = ["A cavity is seen.", "A cavity is seen.", "Normal.", "Normal.", bad]
    with caplog.at_level(logging.WARNING, logger="reportguide.metrics"):
        scores, failures = entity_f1_scores(generated, references, mock_gateway)
    assert failures == 3
    assert [s is None for s in scores] == [True, False, True, False, True]
    assert scores[1] == EntityScores(1.0, 1.0, 1.0)
    assert scores[3] == EntityScores(0.0, 0.0, 0.0)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "excluding 3 samples" in warnings[0]


def test_entity_extraction_fans_out_over_the_http_gateway(
    stub_server_factory, monkeypatch
):
    monkeypatch.setenv("LLM_API_KEY", "test-key")
    stub = stub_server_factory(reply='["cavity"]', delay=0.05)
    config = GatewayConfig(
        backend="http", endpoint=stub.endpoint, parallelism=3, requests_per_minute=60000
    )
    generated = [f"generated report {i % 4}" for i in range(8)]
    references = [f"reference report {i % 3}" for i in range(8)]
    scores, failures = entity_f1_scores(generated, references, config)
    assert failures == 0
    assert scores == [EntityScores(1.0, 1.0, 1.0)] * 8
    assert len(stub.requests) == 7
    assert 1 < stub.max_in_flight <= 3


def test_evaluate_metrics_are_byte_identical_at_any_parallelism(synth_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "paths": {
                    "manifest": str(synth_dir / "manifest.jsonl"),
                    "features": str(synth_dir / "features.ffmx"),
                    "workdir": str(tmp_path / "run"),
                },
                "gateway": {"parallelism": 1},
            }
        ),
        encoding="utf-8",
    )
    assert main(["pipeline", "--config", str(config)]) == 0
    serial = (tmp_path / "run" / "metrics.json").read_bytes()
    args = ["evaluate", "--config", str(config), "--force", "--set", "gateway.parallelism=4"]
    assert main(args) == 0
    assert (tmp_path / "run" / "metrics.json").read_bytes() == serial


# ---------------------------------------------------------------------------
# Corpus evaluation document
# ---------------------------------------------------------------------------


_PAIRS = [
    ("r1", "the cat sat on the mat", "the cat sat on a mat"),
    ("r2", "a dog barked loudly at night", "the dog barked at night"),
    ("r3", "birds fly high", "birds fly very high in the sky"),
]


def test_evaluate_generation_document_structure(mock_gateway):
    doc = evaluate_generation(_PAIRS, gateway=mock_gateway, config_echo={"mode": "x"})
    assert set(doc) == {"config", "corpus", "per_sample"}
    assert doc["config"] == {"mode": "x"}
    expected = {
        "bleu1", "bleu2", "bleu3", "bleu4", "rouge_l", "cider_d",
        "meteor_simple", "entity_p", "entity_r", "entity_f1",
    }
    assert expected <= set(doc["corpus"])
    assert [row["id"] for row in doc["per_sample"]] == ["r1", "r2", "r3"]
    for row in doc["per_sample"]:
        assert {"bleu1", "rouge_l", "cider_d", "meteor_simple"} <= set(row)


def test_evaluate_generation_identity_corpus_maxes_text_metrics(mock_gateway):
    pairs = [(f"r{i}", ref, ref) for i, (_, _, ref) in enumerate(_PAIRS)]
    doc = evaluate_generation(pairs, gateway=mock_gateway)
    corpus = doc["corpus"]
    assert corpus["bleu1"] == 1.0
    assert corpus["bleu4"] == 1.0
    assert corpus["rouge_l"] == pytest.approx(1.0, abs=1e-12)
    assert corpus["entity_f1"] == 1.0


def test_evaluate_generation_corpus_values_are_sample_means(mock_gateway):
    doc = evaluate_generation(_PAIRS, gateway=mock_gateway)
    rows = doc["per_sample"]
    for name in ("rouge_l", "cider_d", "meteor_simple"):
        mean = sum(r[name] for r in rows) / len(rows)
        assert doc["corpus"][name] == pytest.approx(mean, rel=1e-12)


def test_evaluate_generation_metric_subset_skips_the_rest():
    doc = evaluate_generation(_PAIRS, enabled=("bleu", "rouge_l"))
    assert "cider_d" not in doc["corpus"]
    assert "entity_f1" not in doc["corpus"]
    assert "bleu1" in doc["corpus"]


def test_evaluate_generation_is_permutation_invariant(mock_gateway):
    forward = evaluate_generation(_PAIRS, gateway=mock_gateway)["corpus"]
    backward = evaluate_generation(_PAIRS[::-1], gateway=mock_gateway)["corpus"]
    assert set(forward) == set(backward)
    for name, value in forward.items():
        assert backward[name] == pytest.approx(value, rel=1e-12)


# The BLEU that rebuilt every n-gram Counter for each call, kept verbatim as
# the reference for the shared per-pair counts.
def _reference_bleu_scores(candidates, references, max_n=4):
    clipped = [0] * max_n
    total = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            c_counts = ngram_counts(cand, n)
            r_counts = ngram_counts(ref, n)
            total[n - 1] += sum(c_counts.values())
            clipped[n - 1] += sum(
                min(count, r_counts.get(gram, 0)) for gram, count in c_counts.items()
            )
    precisions = [
        (clipped[i] / total[i]) if total[i] else 0.0 for i in range(max_n)
    ]
    if cand_len == 0:
        return [0.0] * max_n
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    scores = []
    for n in range(1, max_n + 1):
        if any(p == 0.0 for p in precisions[:n]):
            scores.append(0.0)
            continue
        log_mean = sum(math.log(p) for p in precisions[:n]) / n
        scores.append(bp * math.exp(log_mean))
    return scores


def _reference_rouge_l(cand, ref):
    if not cand or not ref:
        return 0.0
    lcs = _reference_lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    recall = lcs / len(ref)
    precision = lcs / len(cand)
    beta_sq = 1.2 * 1.2
    return ((1 + beta_sq) * recall * precision) / (recall + beta_sq * precision)


_WORDS = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=8).map(" ".join)

# Pairs drawn from a small pool of texts, mixed with one-off texts, so that
# texts repeat within and across the two columns: CIDEr-D keeps the vectors
# of a repeated text and computes those of a one-off text inline, and the
# scores of both must match the oracles.
_POOLED_PAIRS = st.lists(_WORDS, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(
        st.tuples(
            st.one_of(st.sampled_from(pool), _WORDS),
            st.one_of(st.sampled_from(pool), _WORDS),
        ),
        min_size=1,
        max_size=8,
    )
)


@settings(max_examples=200, deadline=None)
@example([("a b", "a b c"), ("a b", "c d"), ("d", "a b c"), ("A, b!", "a b")])
@given(_POOLED_PAIRS)
def test_evaluate_generation_matches_the_oracles_exactly(texts):
    pairs = [(f"r{i}", gen, ref) for i, (gen, ref) in enumerate(texts)]
    doc = evaluate_generation(pairs, enabled=("bleu", "rouge_l", "cider_d", "meteor_simple"))
    names = ("bleu1", "bleu2", "bleu3", "bleu4")
    gen_tokens = [tokenize(gen) for gen, _ in texts]
    ref_tokens = [tokenize(ref) for _, ref in texts]
    expected = _reference_bleu_scores(gen_tokens, ref_tokens)
    assert [doc["corpus"][n] for n in names] == expected
    assert bleu_scores(gen_tokens, ref_tokens) == expected
    cider = _reference_cider_d_scores(gen_tokens, ref_tokens)
    for row, cand, ref, want in zip(doc["per_sample"], gen_tokens, ref_tokens, cider):
        assert [row[n] for n in names] == _reference_bleu_scores([cand], [ref])
        assert row["cider_d"] == want
        assert row["rouge_l"] == _reference_rouge_l(cand, ref)
        assert row["meteor_simple"] == meteor_sample(cand, ref)


# Every row scored on its own, as before each distinct pair was scored once:
# the document `evaluate_generation` must write, byte for byte.
def _per_slot_document(pairs):
    cands, refs = _analyse([gen for _, gen, _ in pairs], [ref for _, _, ref in pairs], tokenize)
    names = ("bleu1", "bleu2", "bleu3", "bleu4")
    counts = [_bleu_counts(c, r) for c, r in zip(cands, refs)]
    rouge = [rouge_l_sample(c.tokens, r.tokens) for c, r in zip(cands, refs)]
    cider = _reference_cider_d_scores([list(c.tokens) for c in cands], [list(r.tokens) for r in refs])
    meteor = [meteor_sample(c.tokens, r.tokens) for c, r in zip(cands, refs)]
    n = len(pairs)
    corpus = dict(zip(names, _bleu_from_counts(counts)))
    corpus.update(rouge_l=sum(rouge) / n, cider_d=sum(cider) / n, meteor_simple=sum(meteor) / n)
    per_sample = [
        {"id": rid, **dict(zip(names, _bleu(pair_counts))), "rouge_l": r, "cider_d": c, "meteor_simple": m}
        for (rid, _, _), pair_counts, r, c, m in zip(pairs, counts, rouge, cider, meteor)
    ]
    return {"config": {}, "corpus": corpus, "per_sample": per_sample}


_TEXT_METRICS = ("bleu", "rouge_l", "cider_d", "meteor_simple")
# A punctuation-only text (no tokens) and one with a CJK ideograph.
_EDGE_TEXTS = ["?!", "\u80ba a b", "A, b!"]


@st.composite
def _cells_with_recurring_pairs(draw):
    """(id, generated, reference) rows whose texts come from a small pool,
    so that pairs recur, or are one-off texts, which no other slot carries.
    Half the candidates equal their reference."""
    pool = draw(st.lists(st.one_of(st.sampled_from(_EDGE_TEXTS), _WORDS), min_size=1, max_size=4))

    def text(tag):
        return draw(st.one_of(st.sampled_from(pool), _WORDS.map(lambda w: f"{w} {tag}")))

    rows = []
    for i in range(draw(st.integers(1, 12))):
        ref = text(f"ref{i}")
        gen = ref if draw(st.booleans()) else text(f"gen{i}")
        rows.append((f"r{i}", gen, ref))
    return rows


@settings(max_examples=200, deadline=None)
@example([("r0", "a b", "a b")])
@example([("r0", "\u80ba a", "?!"), ("r1", "\u80ba a", "?!"), ("r2", "a b", "a b"), ("r3", "a b", "a b")])
@given(_cells_with_recurring_pairs())
def test_scoring_each_distinct_pair_once_writes_the_per_slot_bytes(pairs):
    doc = evaluate_generation(pairs, enabled=_TEXT_METRICS)
    assert json_text(doc) == json_text(_per_slot_document(pairs))


def test_each_distinct_pair_is_scored_once_and_one_off_pairs_are_kept_nowhere(monkeypatch):
    # R = 4 distinct pairs of recurring texts, one of them in a single slot,
    # and U = 5 pairs of one-off texts, interleaved.
    recurring = [("a b c", "a c d"), ("a b c", "b d"), ("c d", "a c d")] * 3 + [("c d", "b d")]
    one_off = [(f"a c once{i}", f"b c d once{i}") for i in range(5)]
    rows = recurring + one_off
    random.Random(0).shuffle(rows)
    pairs = [(f"r{i}", gen, ref) for i, (gen, ref) in enumerate(rows)]

    calls = Counter()

    def counted(name):
        real = getattr(metrics, name)

        def wrapper(a, b):
            calls[name] += 1
            return real(a, b)

        return wrapper

    for name in ("_lcs_length", "_align"):
        monkeypatch.setattr(metrics, name, counted(name))
    doc = evaluate_generation(pairs, enabled=_TEXT_METRICS)
    assert calls == {"_lcs_length": 4 + 5, "_align": 4 + 5}
    assert json_text(doc) == json_text(_per_slot_document(pairs))

    # The memo holds exactly the pairs of two recurring texts.
    cands, refs = _analyse([gen for gen, _ in rows], [ref for _, ref in rows], tokenize)
    memos = []

    def score(cand, ref):
        memos.append(sys._getframe(1).f_locals["memo"])  # `_per_pair`'s frame
        return len(cand.tokens), len(ref.tokens)

    values = _per_pair(score, cands, refs)
    assert values == [(len(c.tokens), len(r.tokens)) for c, r in zip(cands, refs)]
    assert len(memos) == 4 + 5
    assert {(c.tokens, r.tokens) for c, r in memos[0]} == {
        (tuple(tokenize(gen)), tuple(tokenize(ref))) for gen, ref in set(recurring)
    }


# `_bleu_from_counts` as it was before per-pair scoring had its own path,
# kept verbatim: one pair's statistics, pooled alone, give that pair's BLEU.
def _pooled_bleu_before(counts):
    cand_len, ref_len, *pooled = (sum(column) for column in zip(*counts))
    clipped, total = pooled[:4], pooled[4:]
    precisions = [(clipped[i] / total[i]) if total[i] else 0.0 for i in range(4)]
    if cand_len == 0:
        return [0.0] * 4
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    scores = []
    for n in range(1, 5):
        if any(p == 0.0 for p in precisions[:n]):
            scores.append(0.0)
            continue
        log_mean = sum(math.log(p) for p in precisions[:n]) / n
        scores.append(bp * math.exp(log_mean))
    return scores


_TOKENS = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=12)


@settings(max_examples=300, deadline=None)
@example([], ["a"])
@example(["a"], [])
@example([], [])
@example(["a", "b"], ["a", "b", "c"])
@example(["a", "x", "b"], ["a", "y", "b"])
@example(["a", "a", "a"], ["a", "b"])
@given(_TOKENS, _TOKENS)
def test_per_pair_bleu_matches_the_pooled_path_bit_for_bit(cand, ref):
    cands, refs = _analyse([tuple(cand)], [tuple(ref)], tuple)
    counts = _bleu_counts(cands[0], refs[0])
    assert counts[:2] == (len(cand), len(ref))
    assert list(counts[6:]) == [sum(ngram_counts(cand, n).values()) for n in range(1, 5)]
    hexes = [x.hex() for x in _bleu(counts)]
    assert hexes == [x.hex() for x in _pooled_bleu_before([counts])]
    assert hexes == [x.hex() for x in _bleu_from_counts([counts])]
    assert hexes == [x.hex() for x in _reference_bleu_scores([cand], [ref])]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_TOKENS, _TOKENS), min_size=1, max_size=6))
def test_corpus_bleu_matches_the_pooled_path_bit_for_bit(pairs):
    cands, refs = _analyse([tuple(c) for c, _ in pairs], [tuple(r) for _, r in pairs], tuple)
    counts = [_bleu_counts(c, r) for c, r in zip(cands, refs)]
    assert [x.hex() for x in _bleu_from_counts(counts)] == [
        x.hex() for x in _pooled_bleu_before(counts)
    ]


def test_evaluate_generation_warns_on_empty_reference(caplog):
    pairs = [("r1", "some text", ""), ("r2", "a b", "a b")]
    with caplog.at_level(logging.WARNING, logger="reportguide.metrics"):
        doc = evaluate_generation(pairs, enabled=("bleu", "rouge_l"))
    assert any("empty reference" in r.message for r in caplog.records)
    assert doc["per_sample"][0]["rouge_l"] == 0.0


def test_evaluate_generation_rolls_empty_references_into_one_warning(caplog):
    pairs = [(f"r{i}", "a b", "" if i < 8 else "a b") for i in range(10)]
    with caplog.at_level(logging.WARNING, logger="reportguide.metrics"):
        evaluate_generation(pairs, enabled=("bleu",))
    warnings = [r.message for r in caplog.records if "empty reference" in r.message]
    assert len(warnings) == 1
    assert warnings[0].startswith("8 records")
    assert "r0, r1, r2, r3, r4, ..." in warnings[0]
    assert "r5" not in warnings[0]


def test_evaluate_generation_counts_excluded_entity_samples(
    monkeypatch, mock_gateway
):
    real_complete = gateway_mod.complete

    def flaky_complete(request, config):
        if "refuses extraction" in request.user:
            return ChatResponse(text="nope", input_tokens=0, output_tokens=0)
        return real_complete(request, config)

    monkeypatch.setattr(gateway_mod, "complete", flaky_complete)
    pairs = [
        ("r1", "A cavity is seen.", "A cavity is seen."),
        ("r2", "this text refuses extraction", "A cavity is seen."),
    ]
    doc = evaluate_generation(pairs, gateway=mock_gateway, enabled=("entity_f1",))
    assert doc["corpus"]["entity_excluded"] == 1
    assert doc["corpus"]["entity_f1"] == 1.0
    assert "entity_f1" in doc["per_sample"][0]
    assert "entity_f1" not in doc["per_sample"][1]
