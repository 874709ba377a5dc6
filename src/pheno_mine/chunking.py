"""Sentence segmentation and token-budgeted chunk packing for long notes."""

from __future__ import annotations

import logging
import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import methodcaller

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
# before an ASCII uppercase letter or digit or any non-ASCII character. The
# pattern starts at the space so the scan looks behind only at spaces.
_CANDIDATE_BOUNDARY = re.compile(r" (?<=[.!?] )(?=[A-Z0-9\x80-\U0010ffff])")
_ENDS_GUARDED = methodcaller("endswith", tuple(GUARDED_ABBREVIATIONS))


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


def _false_cut(prev: str, piece: str) -> bool:
    """True when the candidate boundary between two pieces ends no sentence."""
    first = piece[0]
    if first > "\x7f" and not (first.isupper() or first.isdigit()):
        return True
    if not _ENDS_GUARDED(prev):
        return False
    return prev[prev.rfind(" ") + 1 :].lstrip("(\"'[") in GUARDED_ABBREVIATIONS


def segment_sentences(text: str) -> list[str]:
    """Split on [.!?] followed by whitespace and an uppercase letter or digit.

    Whitespace is normalised once, so `" ".join(result) == " ".join(text.split())`.
    One regex split cuts at every candidate boundary; one linear pass rejoins the
    pieces cut after a guarded abbreviation or before a non-ASCII character that
    is neither uppercase nor a digit (in ASCII text, only the former can occur).
    """
    text = " ".join(text.split())
    if not text:
        return []
    pieces = _CANDIDATE_BOUNDARY.split(text)
    if text.isascii():
        suspects = compress(range(1, len(pieces)), map(_ENDS_GUARDED, pieces))
    else:
        suspects = range(1, len(pieces))
    false_cuts = {k for k in suspects if _false_cut(pieces[k - 1], pieces[k])}
    if not false_cuts:
        return pieces
    starts = [k for k in range(len(pieces)) if k not in false_cuts] + [len(pieces)]
    return [" ".join(pieces[a:b]) for a, b in zip(starts, starts[1:])]


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

    `ends[k]` is the length of the first k sentences joined with a trailing
    space each, so sentences i..j-1 join to `ends[j] - ends[i] - 1` characters
    and one bisection finds the longest run from i that fits the budget.

    A single sentence over the budget becomes its own chunk flagged oversized;
    if a hard_limit is given, such sentences are additionally split on
    whitespace with a warning.
    """
    if budget < 1:
        raise ParameterError(f"chunk budget must be >= 1 token, got {budget}")
    if hard_limit is not None and hard_limit < 1:
        raise ParameterError(f"hard limit must be >= 1 token, got {hard_limit}")
    ends = [0, *accumulate(len(s) + 1 for s in sentences)]
    reach = budget * CHARS_PER_TOKEN + 1
    chunks: list[Chunk] = []
    i = 0
    while i < len(sentences):
        # the longest run from sentence i that fits, else sentence i alone
        j = max(bisect_right(ends, ends[i] + reach, i + 1) - 1, i + 1)
        text = " ".join(sentences[i:j])
        i = j
        tokens = estimate_tokens(text)
        if tokens <= budget:
            chunks.append(Chunk(note_id, len(chunks), text, tokens))
            continue
        pieces = [text]
        if hard_limit is not None and tokens > hard_limit:
            logger.warning(
                "note %s: sentence of ~%d tokens exceeds hard limit %d; splitting on whitespace",
                note_id or "<unnamed>",
                tokens,
                hard_limit,
            )
            pieces = _hard_split(text, hard_limit)
        for piece in pieces:
            chunks.append(
                Chunk(note_id, len(chunks), piece, estimate_tokens(piece), oversized=True)
            )
    return chunks


def chunk_text(
    text: str,
    budget: int = DEFAULT_CHUNK_BUDGET,
    note_id: str = "",
    hard_limit: int | None = None,
) -> list[Chunk]:
    return pack_chunks(segment_sentences(text), budget, note_id, hard_limit)
