"""Sentence segmentation and token-budgeted chunk packing for long notes."""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass

from .errors import ParameterError

logger = logging.getLogger(__name__)

# Abbreviations that must not end a sentence. Matched case-sensitively against
# the whitespace-delimited token ending at the period ("Pt." guards, "pt" in
# "saw pt. Pt stable." does not).
GUARDED_ABBREVIATIONS = frozenset(
    {"Dr.", "Mr.", "Mrs.", "Ms.", "vs.", "e.g.", "i.e.", "Pt.", "approx."}
)

CHARS_PER_TOKEN = 4
DEFAULT_CHUNK_BUDGET = 2048

# `\s` matches exactly the characters for which str.isspace() is true.
_CANDIDATE_BOUNDARY = re.compile(r"[.!?]\s+")


@dataclass(frozen=True)
class Chunk:
    note_id: str
    chunk_index: int
    text: str
    estimated_tokens: int
    oversized: bool = False


def estimate_tokens(text: str) -> int:
    """Cheap length proxy: one token per 4 characters, rounded up."""
    return math.ceil(len(text) / CHARS_PER_TOKEN)


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def _guarded(text: str, start: int, punct: int) -> bool:
    """True when the period at `punct` must not end a sentence."""
    if text[punct] != ".":
        return False
    begin = punct
    while begin > start and not text[begin - 1].isspace():
        begin -= 1
    token = text[begin : punct + 1].lstrip("(\"'[")
    return token in GUARDED_ABBREVIATIONS


def segment_sentences(text: str) -> list[str]:
    """Split on [.!?] followed by whitespace and an uppercase letter or digit.

    Whitespace inside each sentence is collapsed to single spaces, so joining
    the result with single spaces reproduces the non-whitespace content of the
    input in order.
    """
    sentences: list[str] = []
    start = 0
    n = len(text)
    # Only a punctuation mark followed by whitespace can end a sentence; the
    # character and abbreviation checks run at those candidates alone.
    for match in _CANDIDATE_BOUNDARY.finditer(text):
        punct, j = match.start(), match.end()
        if j < n and (text[j].isupper() or text[j].isdigit()) and not _guarded(text, start, punct):
            piece = _normalize_ws(text[start : punct + 1])
            if piece:
                sentences.append(piece)
            start = j
    tail = _normalize_ws(text[start:])
    if tail:
        sentences.append(tail)
    return sentences


def _hard_split(sentence: str, hard_limit: int) -> list[str]:
    """Last-resort split of a single oversized sentence on whitespace."""
    max_chars = hard_limit * CHARS_PER_TOKEN
    pieces: list[str] = []
    current: list[str] = []
    length = 0
    for word in sentence.split():
        # A single word longer than the limit is sliced by characters.
        while len(word) > max_chars:
            if current:
                pieces.append(" ".join(current))
                current, length = [], 0
            pieces.append(word[:max_chars])
            word = word[max_chars:]
        extra = len(word) + (1 if current else 0)
        if current and length + extra > max_chars:
            pieces.append(" ".join(current))
            current, length = [], 0
            extra = len(word)
        current.append(word)
        length += extra
    if current:
        pieces.append(" ".join(current))
    return pieces


def pack_chunks(
    sentences: list[str],
    budget: int = DEFAULT_CHUNK_BUDGET,
    note_id: str = "",
    hard_limit: int | None = None,
) -> list[Chunk]:
    """Greedy first-fit packing of whole sentences into token-budgeted chunks.

    A single sentence over the budget becomes its own chunk flagged oversized;
    if a hard_limit is given, such sentences are additionally split on
    whitespace with a warning.
    """
    if budget < 1:
        raise ParameterError(f"chunk budget must be >= 1 token, got {budget}")
    if hard_limit is not None and hard_limit < 1:
        raise ParameterError(f"hard limit must be >= 1 token, got {hard_limit}")
    chunks: list[Chunk] = []
    current: list[str] = []
    # len(" ".join(current)), kept as sentences are added
    length = 0

    def flush():
        nonlocal length
        if current:
            text = " ".join(current)
            chunks.append(Chunk(note_id, len(chunks), text, estimate_tokens(text)))
            current.clear()
            length = 0

    for sentence in sentences:
        if estimate_tokens(sentence) > budget:
            flush()
            if hard_limit is not None and estimate_tokens(sentence) > hard_limit:
                logger.warning(
                    "note %s: sentence of ~%d tokens exceeds hard limit %d; splitting on whitespace",
                    note_id or "<unnamed>",
                    estimate_tokens(sentence),
                    hard_limit,
                )
                for piece in _hard_split(sentence, hard_limit):
                    chunks.append(
                        Chunk(note_id, len(chunks), piece, estimate_tokens(piece), oversized=True)
                    )
            else:
                chunks.append(
                    Chunk(
                        note_id,
                        len(chunks),
                        sentence,
                        estimate_tokens(sentence),
                        oversized=True,
                    )
                )
            continue
        if current and math.ceil((length + 1 + len(sentence)) / CHARS_PER_TOKEN) > budget:
            flush()
        length += len(sentence) + (1 if current else 0)
        current.append(sentence)
    flush()
    return chunks


def chunk_text(
    text: str,
    budget: int = DEFAULT_CHUNK_BUDGET,
    note_id: str = "",
    hard_limit: int | None = None,
) -> list[Chunk]:
    return pack_chunks(segment_sentences(text), budget, note_id, hard_limit)
