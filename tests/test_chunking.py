import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import pack_chunks_oracle, segment_sentences_oracle

from pheno_mine import chunking, extraction
from pheno_mine.chunking import (
    DEFAULT_CHUNK_BUDGET,
    GUARDED_ABBREVIATIONS,
    chunk_text,
    estimate_tokens,
)
from pheno_mine.errors import ParameterError


def sentence_chunks(text: str) -> list:
    """Chunk texts at a one-token budget: every sentence longer than four
    characters is then a chunk of its own, so these are the note's sentences."""
    return [c.text for c in chunk_text(text, 1)]


def test_estimate_tokens_is_ceiling_of_quarter_chars():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2
    assert estimate_tokens("x" * 41) == math.ceil(41 / 4)


def test_basic_sentence_split():
    text = "Patient stable. Denies pain! Follow up in two weeks? Labs pending."
    assert sentence_chunks(text) == [
        "Patient stable.",
        "Denies pain!",
        "Follow up in two weeks?",
        "Labs pending.",
    ]


def test_boundary_requires_following_capital_or_digit():
    assert sentence_chunks("Gave 0.5 mg. she tolerated it.") == [
        "Gave 0.5 mg. she tolerated it."
    ]
    assert sentence_chunks("Gave 0.5 mg. She tolerated it.") == [
        "Gave 0.5 mg.",
        "She tolerated it.",
    ]
    assert sentence_chunks("Checked at 8 am. 2 hours later repeat.") == [
        "Checked at 8 am.",
        "2 hours later repeat.",
    ]


def test_abbreviations_do_not_split():
    assert sentence_chunks("Seen by Dr. Smith today. Stable overnight.") == [
        "Seen by Dr. Smith today.",
        "Stable overnight.",
    ]
    assert sentence_chunks("Plan per Mrs. Jones. Continue meds.") == [
        "Plan per Mrs. Jones.",
        "Continue meds.",
    ]
    assert sentence_chunks("Compare vs. Baseline values.") == [
        "Compare vs. Baseline values."
    ]


def test_abbreviation_guard_is_case_sensitive():
    # lowercase "pt." is not the guarded "Pt." token, so the boundary fires
    assert sentence_chunks("Dr. Smith saw pt. Pt stable.") == [
        "Dr. Smith saw pt.",
        "Pt stable.",
    ]


def test_decimal_numbers_do_not_split():
    assert sentence_chunks("CDR was 1.0 today. Gait steady.") == [
        "CDR was 1.0 today.",
        "Gait steady.",
    ]


def test_whitespace_normalized_within_sentences():
    assert sentence_chunks("Patient   stable.\nDenies  pain.") == [
        "Patient stable.",
        "Denies pain.",
    ]


def test_empty_and_blank_text():
    assert chunk_text("") == []
    assert chunk_text("   \n\t ") == []
    assert chunk_text("", 100) == []


def test_packing_respects_budget_and_order():
    # the sentences estimate to 4, 4 and 5 tokens; budget 8 fits the first two
    chunks = chunk_text("One two three. Four five six. Seven eight nine.", 8, "N1")
    assert [c.chunk_index for c in chunks] == [0, 1]
    assert [c.text for c in chunks] == ["One two three. Four five six.", "Seven eight nine."]
    assert [c.estimated_tokens for c in chunks] == [8, 5]
    assert not any(c.oversized for c in chunks)


def test_single_oversized_sentence_is_flagged_not_split():
    big = "word " * 200
    chunks = chunk_text(big, 10, "N1")
    assert len(chunks) == 1
    assert chunks[0].oversized
    assert chunks[0].estimated_tokens > 10


def test_budget_must_be_positive():
    with pytest.raises(ParameterError):
        chunk_text("abc.", 0, "N1")
    with pytest.raises(ParameterError):
        chunk_text("", 0)


def test_chunk_text_union_preserves_all_sentences(demo_notes):
    for record in demo_notes[:5]:
        chunks = chunk_text(record.text, 50, record.note_id)
        rebuilt = " ".join(c.text for c in chunks)
        assert rebuilt == " ".join(segment_sentences_oracle(record.text))
        assert all(c.note_id == record.note_id for c in chunks)


def test_extraction_calls_chunking_chunk_text_by_its_name():
    # perfbench's tracer wraps extraction.chunk_text to time chunking; another
    # name there would leave chunking.busy_s at zero
    assert extraction.chunk_text is chunking.chunk_text


# ---------------------------------------------------------------------------
# the edge of the window: `budget * 4` characters, plus the boundary's space
# and the character after it


def chunked(text: str, budget: int) -> list:
    """(text, oversized) of each chunk, checked against the oracles first."""
    chunks = chunk_text(text, budget, "N1")
    assert chunks == pack_chunks_oracle(segment_sentences_oracle(text), budget, "N1")
    return [(c.text, c.oversized) for c in chunks]


def test_sentences_ending_at_the_budget_edge_fit():
    # budget 5: 20 characters
    assert len("Abcd efg. Hijk lmno.") == len("Abcdefghijklmnopqrs.") == 20
    assert chunked("Abcd efg. Hijk lmno. Pqr.", 5) == [
        ("Abcd efg. Hijk lmno.", False),
        ("Pqr.", False),
    ]
    assert chunked("Abcdefghijklmnopqrs. Pqr.", 5) == [
        ("Abcdefghijklmnopqrs.", False),
        ("Pqr.", False),
    ]


def test_sentences_ending_one_past_the_budget_edge_do_not_fit():
    assert chunked("Abcd efgh. Hijk lmno. Pqr.", 5) == [
        ("Abcd efgh.", False),
        ("Hijk lmno. Pqr.", False),
    ]
    assert chunked("Abcdefghijklmnopqrst. Pqr.", 5) == [
        ("Abcdefghijklmnopqrst.", True),
        ("Pqr.", False),
    ]


def test_boundary_whose_next_character_is_past_the_window_is_not_taken():
    # the space after "Efghijklmnopqr." is the window's last character and the
    # "S" that makes it a boundary lies just past it
    text = "Abcd. Efghijklmnopqr. Stu."
    assert text.index(" S") == 5 * 4 + 1
    assert chunked(text, 5) == [("Abcd.", False), ("Efghijklmnopqr. Stu.", False)]


@pytest.mark.parametrize(
    "rest", ["Cd saw Dr. Smith today.", "Cd (e.g. Xy) ok today.", "Cd x. \u00e9t\u00e9 is ok today."]
)
def test_false_boundary_last_in_the_window_is_skipped(rest):
    # budget 6: 24 characters; the window's last candidate is a false one, so
    # the chunk ends at the true boundary before it
    text = "Ab. " + rest
    assert len(rest) <= 24 < len(text)
    assert chunked(text, 6) == [("Ab.", False), (rest, False)]


def test_window_without_a_true_boundary_gives_one_oversized_chunk():
    # only "Dr. Smith" is a candidate within 20 characters, and it is false
    text = "Seen by Dr. Smith and Dr. Jones on rounds. Stable."
    assert chunked(text, 5) == [
        ("Seen by Dr. Smith and Dr. Jones on rounds.", True),
        ("Stable.", False),
    ]


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
# Notes of such text, with long runs of words, which give sentences over the budget.
_NOTES = st.lists(st.one_of(_TEXT, st.text(alphabet="xy ", max_size=300)), max_size=20).map(
    " ".join
)


@settings(max_examples=400, deadline=None)
@given(_TEXT, st.integers(1, 40))
def test_segment_sentences_matches_character_scan(text, budget):
    # every chunk is a run of whole sentences, so the chunks fall on the
    # character scan's sentences and on nothing else
    sentences = segment_sentences_oracle(text)
    chunks = chunk_text(text, budget, "N1")
    start = 0
    for chunk in chunks:
        end = start + 1
        while " ".join(sentences[start:end]) != chunk.text:
            end += 1
            assert end <= len(sentences), chunk.text
        start = end
    assert start == len(sentences)
    # joining the chunks keeps every non-whitespace character, in order
    assert " ".join(c.text for c in chunks) == " ".join(text.split())


@settings(max_examples=400, deadline=None)
@given(_NOTES, st.integers(1, 40))
def test_pack_chunks_matches_join_oracle_and_budget(text, budget):
    chunks = chunk_text(text, budget, "N1")
    assert chunks == pack_chunks_oracle(segment_sentences_oracle(text), budget, "N1")
    # chunks keep every non-whitespace character, in order
    assert "".join(c.text for c in chunks).replace(" ", "") == "".join(text.split())
    for chunk in chunks:
        assert chunk.oversized == (chunk.estimated_tokens > budget)


# Text aimed at the false candidates the search skips: guarded abbreviations
# (bare and behind the brackets the guard strips) and other marks, followed
# through Unicode whitespace by non-ASCII uppercase letters and digits, which
# are true boundaries, or by non-ASCII lowercase letters, which are not.
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
    for budget in range(1, 41):
        assert chunk_text(text, budget) == pack_chunks_oracle(sentences, budget)


@pytest.mark.parametrize("unit", ["x. \u00e9 ", "Dr. X ", "(Dr. \u00c9 ", "e.g.\u2003\u00df "])
def test_long_run_of_false_boundaries_segments_like_oracle(unit):
    # about 200k characters of candidate boundaries that are all false, so the
    # whole note is one sentence, found by skipping tens of thousands of them
    text = unit * (200_000 // len(unit))
    sentences = segment_sentences_oracle(text)
    assert len(sentences) == 1
    assert chunk_text(text) == pack_chunks_oracle(sentences, DEFAULT_CHUNK_BUDGET)


def test_boundary_follower_is_an_ascii_capital_or_digit_or_non_ascii():
    # every ASCII character, and non-ASCII ones across the whole code space
    for code in [*range(0x80), *range(0x80, sys.maxunicode + 1, 251), sys.maxunicode]:
        text = f"Ab. {chr(code)}c. D"
        assert chunk_text(text, 1) == pack_chunks_oracle(segment_sentences_oracle(text), 1), hex(code)


def test_normalising_whitespace_once_agrees_with_isspace_and_regex():
    # chunk_text collapses whitespace with str.split() and then matches single
    # spaces; the oracles test str.isspace() and `\s` stands for it in
    # patterns, so all three must name the same code points
    for code in range(sys.maxunicode + 1):
        char = chr(code)
        by_method = char.isspace()
        assert by_method == bool(re.fullmatch(r"\s", char)), hex(code)
        assert by_method == (len(f"a{char}b".split()) == 2), hex(code)
