import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import pack_chunks_oracle, segment_sentences_oracle

from pheno_mine.chunking import (
    GUARDED_ABBREVIATIONS,
    chunk_text,
    estimate_tokens,
    pack_chunks,
    segment_sentences,
)
from pheno_mine.errors import ParameterError


def test_estimate_tokens_is_ceiling_of_quarter_chars():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2
    assert estimate_tokens("x" * 41) == math.ceil(41 / 4)


def test_basic_sentence_split():
    text = "Patient stable. Denies pain! Follow up in two weeks? Labs pending."
    assert segment_sentences(text) == [
        "Patient stable.",
        "Denies pain!",
        "Follow up in two weeks?",
        "Labs pending.",
    ]


def test_boundary_requires_following_capital_or_digit():
    assert segment_sentences("Gave 0.5 mg. she tolerated it.") == [
        "Gave 0.5 mg. she tolerated it."
    ]
    assert segment_sentences("Gave 0.5 mg. She tolerated it.") == [
        "Gave 0.5 mg.",
        "She tolerated it.",
    ]
    assert segment_sentences("Checked at 8 am. 2 hours later repeat.") == [
        "Checked at 8 am.",
        "2 hours later repeat.",
    ]


def test_abbreviations_do_not_split():
    assert segment_sentences("Seen by Dr. Smith today. Stable overnight.") == [
        "Seen by Dr. Smith today.",
        "Stable overnight.",
    ]
    assert segment_sentences("Plan per Mrs. Jones. Continue meds.") == [
        "Plan per Mrs. Jones.",
        "Continue meds.",
    ]
    assert segment_sentences("Compare vs. Baseline values.") == [
        "Compare vs. Baseline values."
    ]


def test_abbreviation_guard_is_case_sensitive():
    # lowercase "pt." is not the guarded "Pt." token, so the boundary fires
    assert segment_sentences("Dr. Smith saw pt. Pt stable.") == [
        "Dr. Smith saw pt.",
        "Pt stable.",
    ]


def test_decimal_numbers_do_not_split():
    assert segment_sentences("CDR was 1.0 today. Gait steady.") == [
        "CDR was 1.0 today.",
        "Gait steady.",
    ]


def test_whitespace_normalized_within_sentences():
    assert segment_sentences("Patient   stable.\nDenies  pain.") == [
        "Patient stable.",
        "Denies pain.",
    ]


def test_empty_and_blank_text():
    assert segment_sentences("") == []
    assert segment_sentences("   \n\t ") == []
    assert chunk_text("", 100) == []


def test_packing_respects_budget_and_order():
    sentences = ["one two three.", "four five six.", "seven eight nine."]
    # each sentence estimates to 4 tokens; budget 8 fits two per chunk
    chunks = pack_chunks(sentences, 8, "N1")
    assert [c.chunk_index for c in chunks] == list(range(len(chunks)))
    assert all(c.estimated_tokens <= 8 for c in chunks)
    joined = " ".join(c.text for c in chunks)
    assert joined == " ".join(sentences)


def test_single_oversized_sentence_is_flagged_not_split():
    big = "word " * 200
    chunks = pack_chunks([big.strip()], 10, "N1")
    assert len(chunks) == 1
    assert chunks[0].oversized
    assert chunks[0].estimated_tokens > 10


def test_hard_limit_splits_oversized_sentences_on_whitespace():
    big = ("word " * 200).strip()
    chunks = pack_chunks([big], 10, "N1", hard_limit=10)
    assert len(chunks) > 1
    # pieces stay flagged: the sentence-boundary guarantee was broken
    assert all(c.oversized for c in chunks)
    assert all(c.estimated_tokens <= 10 for c in chunks)
    reassembled = " ".join(c.text for c in chunks)
    assert reassembled == big


def test_hard_limit_slices_single_giant_token():
    giant = "x" * 400
    chunks = pack_chunks([giant], 10, "N1", hard_limit=10)
    assert all(len(c.text) <= 40 for c in chunks)
    assert "".join(c.text for c in chunks) == giant


def test_budget_must_be_positive():
    with pytest.raises(ParameterError):
        pack_chunks(["abc."], 0, "N1")


def test_chunk_text_union_preserves_all_sentences(demo_notes):
    for record in demo_notes[:5]:
        sentences = segment_sentences(record.text)
        chunks = chunk_text(record.text, 50, record.note_id)
        rebuilt = " ".join(c.text for c in chunks)
        assert rebuilt == " ".join(sentences)
        assert all(c.note_id == record.note_id for c in chunks)


# Fragments that sit on every branch of the boundary rule: guarded
# abbreviations (with the opening brackets the guard strips), decimals,
# Unicode digits and uppercase letters, and Unicode whitespace.
_FRAGMENTS = st.sampled_from(
    [
        "Dr.", "Mrs.", "vs.", "e.g.", "i.e.", "Pt.", "pt.", "approx.", "(Dr.", '"Pt.', "[e.g.",
        "1.0", "0.5 mg.", "\u0663", "\u00b2", "\u216b", "\u00c9", "\u00df", "Word", "word", "7",
        ".", "!", "?", "...", ". ", "! ", "? ",
        " ", "  ", "\n", "\t", "\u00a0", "\u2003", "\u3000", "\x1c", "\u2028", "\x85",
    ]
)
_TEXT = st.lists(_FRAGMENTS | st.text(max_size=4), max_size=60).map("".join)
# Sentences as segment_sentences emits them, plus long runs for the hard split.
_SENTENCES = st.lists(
    st.one_of(_TEXT, st.text(alphabet="xy ", max_size=300)).map(lambda t: " ".join(t.split())),
    max_size=20,
).map(lambda sentences: [s for s in sentences if s])


@settings(max_examples=400, deadline=None)
@given(_TEXT)
def test_segment_sentences_matches_character_scan(text):
    sentences = segment_sentences(text)
    assert sentences == segment_sentences_oracle(text)
    # joining the sentences keeps every non-whitespace character, in order
    assert " ".join(sentences) == " ".join(text.split())


@settings(max_examples=400, deadline=None)
@given(_SENTENCES, st.integers(1, 40), st.none() | st.integers(1, 40))
def test_pack_chunks_matches_join_oracle_and_budget(sentences, budget, hard_limit):
    chunks = pack_chunks(sentences, budget, "N1", hard_limit)
    assert chunks == pack_chunks_oracle(sentences, budget, "N1", hard_limit)
    # chunks keep every non-whitespace character, in order
    assert "".join(c.text for c in chunks).replace(" ", "") == "".join(sentences).replace(" ", "")
    for chunk in chunks:
        assert chunk.oversized or chunk.estimated_tokens <= budget
        if hard_limit is not None:
            assert chunk.estimated_tokens <= max(budget, hard_limit)


# Text aimed at the split-and-repair path: guarded abbreviations (bare and
# behind the brackets the guard strips) and other marks, followed through
# Unicode whitespace by non-ASCII uppercase letters and digits, which are true
# boundaries, or by non-ASCII lowercase letters, which are not.
_GUARDED = st.tuples(
    st.sampled_from(["", "(", '"', "[", "(["]),
    st.sampled_from(sorted(GUARDED_ABBREVIATIONS) + ["pt.", "Drs.", "xDr."]),
).map("".join)
_MARKED = st.tuples(
    st.sampled_from(["", "x", "Word", "1.0", "\u00e9t\u00e9"]),
    st.sampled_from([".", "!", "?", "?.", "...", "!?", ".)"]),
).map("".join)
# É, Arabic-Indic 3, Roman numeral twelve; ß, é; superscript 2, titlecase Dž
_FOLLOWER = st.sampled_from(
    ["\u00c9", "\u0663", "\u216b", "\u00df", "\u00e9", "A", "7", "a", "\u00b2", "\u01c5"]
)
_GAP = st.sampled_from(
    ["", " ", "  ", "\n", "\t", "\u00a0", "\u2003", "\u3000", "\x1c", "\u2028", "\x85", " \n "]
)
_REPAIR_TEXT = st.lists(
    st.tuples(st.one_of(_GUARDED, _MARKED, _FOLLOWER), _GAP).map("".join), max_size=40
).map("".join)


@settings(max_examples=300, deadline=None)
@given(_REPAIR_TEXT)
def test_split_and_repair_matches_oracles(text):
    sentences = segment_sentences_oracle(text)
    assert segment_sentences(text) == sentences
    for budget in range(1, 41):
        assert chunk_text(text, budget) == pack_chunks_oracle(sentences, budget)


@pytest.mark.parametrize("unit", ["x. \u00e9 ", "Dr. X ", "(Dr. \u00c9 ", "e.g.\u2003\u00df "])
def test_long_run_of_false_boundaries_segments_like_oracle(unit):
    # about 200k characters of candidate boundaries that all need repair, so
    # the whole note is one sentence rebuilt from tens of thousands of pieces
    text = unit * (200_000 // len(unit))
    sentences = segment_sentences(text)
    assert sentences == segment_sentences_oracle(text)
    assert len(sentences) == 1


def test_normalising_whitespace_once_agrees_with_isspace_and_regex():
    # segment_sentences collapses whitespace with str.split() and then splits
    # at single spaces; the oracles test str.isspace() and `\s` stands for it
    # in patterns, so all three must name the same code points
    for code in range(sys.maxunicode + 1):
        char = chr(code)
        by_method = char.isspace()
        assert by_method == bool(re.fullmatch(r"\s", char)), hex(code)
        assert by_method == (len(f"a{char}b".split()) == 2), hex(code)
