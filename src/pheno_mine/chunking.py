"""Token-budgeted chunks of whole sentences, cut by searching back from the budget's edge."""

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

# A candidate boundary in whitespace-normalised text: a space after [.!?] and
# before A-Z, 0-9 or any non-ASCII character (the complement of the rest of
# ASCII, which compiles in 0.2 ms where a range to U+10FFFF takes 4). Scans
# forward look behind only at spaces; backward, a greedy `.*` backs off from
# the end of the matched range, so one match finds its last candidate.
_CANDIDATE_BOUNDARY = re.compile(r" (?<=[.!?] )(?=[^\x00-/:-@\[-\x7f])")
_LAST_CANDIDATE = re.compile(r"(?s:.*)[.!?]( )(?=[^\x00-/:-@\[-\x7f])")


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


def _ends_sentence(text: str, space: int) -> bool:
    """Whether the candidate boundary at `space` ends a sentence: not after a
    guarded abbreviation, nor before a non-ASCII non-uppercase non-digit."""
    first = text[space + 1]
    if first > "\x7f" and not (first.isupper() or first.isdigit()):
        return False
    token = text[text.rfind(" ", 0, space) + 1 : space]
    return token.lstrip("(\"'[") not in GUARDED_ABBREVIATIONS


def _chunk_end(text: str, start: int, width: int) -> int:
    """Where the chunk from `start` ends: the text's end if the rest fits in
    `width` characters, else the last sentence end within them, else the end
    of the first sentence, which is then oversized."""
    if len(text) - start <= width:
        return len(text)
    end = start + width + 2  # the boundary's space and the character after it
    # each retry searches back from the candidate the last one rejected
    while match := _LAST_CANDIDATE.match(text, start, end):
        end = match.start(1)
        if _ends_sentence(text, end):
            return end
    for match in _CANDIDATE_BOUNDARY.finditer(text, start + width + 1):
        if _ends_sentence(text, match.start()):
            return match.start()
    return len(text)


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
        if current and length + 1 + len(word) > max_chars:
            pieces.append(" ".join(current))
            current, length = [], 0
        length += len(word) + (1 if current else 0)
        current.append(word)
    if current:
        pieces.append(" ".join(current))
    return pieces


def chunk_text(
    text: str,
    budget: int = DEFAULT_CHUNK_BUDGET,
    note_id: str = "",
    hard_limit: int | None = None,
) -> list[Chunk]:
    """Greedy first-fit packing of whole sentences into token-budgeted chunks.

    A sentence ends at [.!?], whitespace and an uppercase letter or digit, but
    not after a guarded abbreviation. On the whitespace-normalised text, each
    chunk ends at the last sentence end within `budget * 4` characters of its
    start, found searching back from there, so no character is scanned more
    than twice. A sentence over the budget alone is a chunk flagged oversized;
    with a hard_limit it is also split on whitespace, with a warning.
    """
    if budget < 1:
        raise ParameterError(f"chunk budget must be >= 1 token, got {budget}")
    if hard_limit is not None and hard_limit < 1:
        raise ParameterError(f"hard limit must be >= 1 token, got {hard_limit}")
    text = " ".join(text.split())
    width = budget * CHARS_PER_TOKEN
    chunks: list[Chunk] = []
    start = 0
    while start < len(text):
        end = _chunk_end(text, start, width)
        piece, start = text[start:end], end + 1
        tokens = estimate_tokens(piece)
        if tokens <= budget:
            chunks.append(Chunk(note_id, len(chunks), piece, tokens))
            continue
        pieces = [piece]
        if hard_limit is not None and tokens > hard_limit:
            logger.warning(
                "note %s: sentence of ~%d tokens exceeds hard limit %d; splitting on whitespace",
                note_id or "<unnamed>",
                tokens,
                hard_limit,
            )
            pieces = _hard_split(piece, hard_limit)
        for part in pieces:
            chunks.append(Chunk(note_id, len(chunks), part, estimate_tokens(part), oversized=True))
    return chunks
