"""Baseline feature builders: dictionary concept matching and NER ingestion.

Both baselines produce one-hot concept matrices in the same FeatureMatrix
container the prompt pipeline uses, so statistics and clustering run on them
unchanged.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from collections.abc import Collection, Iterable
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path

from .artifacts import parse_json, read_csv_rows, read_lines
from .cohort import NoteRecord, UNLABELED
from .errors import BaselineError, ParameterError
from .features import FeatureMatrix
from .schema import FeatureColumn

logger = logging.getLogger(__name__)

DEFAULT_MIN_TERM_LENGTH = 4
DEFAULT_MIN_DOC_FREQ = 50
DEFAULT_MIN_NER_SCORE = 0.8
MAX_NGRAM = 5

_TOKEN_RE = re.compile(r"[a-z0-9']+")


def _tokenize(text: str) -> list:
    return _TOKEN_RE.findall(text.lower())


def _column_renames(concepts: Collection, source) -> dict:
    """Each of ``concepts`` holding ':', which a column key cannot, -> its column id, with '_'.
    Logs one warning for ``source``; refuses two ids that would share a column."""
    renames = {c: c.replace(":", "_") for c in concepts if ":" in c}
    if renames:
        owner: dict[str, str] = {}  # column id -> concept id
        for concept in concepts:
            other = owner.setdefault(renames.get(concept, concept), concept)
            if other != concept:
                raise BaselineError(
                    f"{source}: concept ids {other!r} and {concept!r} would share one matrix column"
                )
        first = next(iter(renames))
        logger.warning(
            "%s: %d concept id(s) contain ':'; renamed with '_' for matrix columns "
            "(first: %r -> %r)", source, len(renames), first, renames[first],
        )
    return renames


@dataclass
class ConceptDictionary:
    """Terms, each the token tuple of its normalized text, and their concept ids."""

    terms: dict  # token tuple -> concept id
    min_term_length: int
    # concept id -> note count from the most recent corpus scan
    document_frequency: dict = field(default_factory=dict)

    @property
    def max_term_tokens(self) -> int:
        return max(map(len, self.terms), default=1)


def build_dictionary(
    term_file: str | Path, min_term_length: int = DEFAULT_MIN_TERM_LENGTH
) -> ConceptDictionary:
    """Load a term,concept_id CSV as a map from each term's token tuple to its concept id,
    dropping terms of length <= min_term_length (tokens joined by single spaces); a
    duplicate term keeps the first concept id with a warning."""
    terms: dict[tuple, str] = {}
    for lineno, row in read_csv_rows(term_file, BaselineError, "term file", ("term", "concept_id")):
        tokens = tuple(_tokenize(row["term"] or ""))  # None: a short record's missing field
        concept = (row["concept_id"] or "").strip()
        if not tokens or not concept:
            logger.warning("%s:%d: skipping row with empty term or concept", term_file, lineno)
            continue
        term = " ".join(tokens)
        if len(term) <= min_term_length:
            logger.debug("dropping term %r: length %d <= %d", term, len(term), min_term_length)
            continue
        if tokens in terms:
            logger.warning(
                "%s:%d: duplicate term %r; keeping first concept %r",
                term_file, lineno, term, terms[tokens],
            )
            continue
        terms[tokens] = concept
    renames = _column_renames(terms.values(), term_file)
    for tokens, concept in terms.items():
        if concept in renames:
            terms[tokens] = renames[concept]
    if not terms:
        logger.warning("term file %s produced an empty dictionary", term_file)
    return ConceptDictionary(terms=terms, min_term_length=min_term_length)


def _concept_matrix(list_id, note_ids, cohorts, found, concepts) -> FeatureMatrix:
    """A one-hot matrix: a column per concept of ``concepts``, sorted, and per note a row
    that sets the columns of the concepts it ``found``; other found concepts are ignored."""
    concepts = sorted(concepts)
    column_of = {c: i for i, c in enumerate(concepts)}
    rows = []
    for hits in found:
        row = bytearray(len(concepts))
        for concept in column_of.keys() & hits:
            row[column_of[concept]] = 1
        rows.append(row)
    columns = [
        FeatureColumn(index=i, list_id=list_id, category="concepts", phenotype_id=c)
        for i, c in enumerate(concepts)
    ]
    return FeatureMatrix(note_ids=note_ids, cohorts=cohorts, columns=columns, rows=rows)


def _note_grams(tokens: list, max_n: int) -> Iterable:
    """Each n-gram (n <= max_n) of ``tokens`` as a tuple, in one walk per n."""
    return chain.from_iterable(zip(*(tokens[k:] for k in range(n))) for n in range(1, max_n + 1))


def _note_concepts_exact(tokens: list, dictionary: ConceptDictionary, max_n: int) -> set:
    found = set(map(dictionary.terms.get, _note_grams(tokens, max_n)))
    found.discard(None)
    return found


def _min_overlap(size: int, threshold: float) -> int:
    """The smallest k with ``k / size >= threshold``, by the match test's own float division.

    A gram and a term that match share at least this many tokens for either
    one's size, since ``overlap / union <= overlap / size`` holds after
    rounding too. Terminates because ``size / size`` is 1.0.
    """
    return next(k for k in range(1, size + 1) if k / size >= threshold)


class _Rank(dict):
    """Token -> rank; a token in no term ranks -1, below all others."""

    def __missing__(self, token):
        return -1

    def lowest(self, tokens: frozenset, count: int) -> Iterable:
        """The ``count`` lowest-ranked of ``tokens``."""
        if count == 1:
            return (min(tokens, key=self.__getitem__),)
        return sorted(tokens, key=self.__getitem__)[:count]


# Entries each of an index's two memos holds. With every token a distinct
# 7-letter word, full memos kept 7.2 MB of grams and 11.0 MB of windows, and
# 16.3 MB together, as their keys share token strings, so they stay under
# 17 MB however many notes a run scans.
GRAM_MEMO_LIMIT = 1 << 16


class _JaccardIndex:
    """Token-set Jaccard matching against a dictionary through an inverted index.

    Tokens are ranked by ascending dictionary frequency, ties broken by the
    token; a token in no term ranks below all others. A gram and a term with
    ``overlap >= k`` share their lowest-ranked common token inside each one's
    first ``size - k + 1`` tokens (prefix filtering), so each term is indexed
    under that prefix only and a gram probes with its own prefix; the prefix
    length is computed once per set size. Candidates then pass the size
    filter and the exact Jaccard test, and the matches are exactly those of
    comparing every gram with every term.

    Each gram of a note is a prefix of the window of up to ``MAX_NGRAM`` tokens
    that starts where it does, so a note is walked by its start windows. Across
    every note it scans, the index memoises each window's matches (the union of
    its prefixes') and, for a window it misses, each prefix gram's. Each memo
    holds at most ``GRAM_MEMO_LIMIT`` entries and starts over when full.
    """

    def __init__(self, dictionary: ConceptDictionary, threshold: float):
        self.threshold = threshold
        term_sets = [(frozenset(tokens), c) for tokens, c in dictionary.terms.items()]
        frequency = Counter(token for term_set, _ in term_sets for token in term_set)
        ordered = sorted(frequency, key=lambda token: (frequency[token], token))
        self.rank = _Rank((token, position) for position, token in enumerate(ordered))
        # probe length by set size, of a term or of a gram (at most MAX_NGRAM
        # distinct tokens); an empty token set has Jaccard 0 with every gram,
        # so it is never indexed
        sizes = {len(term_set) for term_set, _ in term_sets if term_set}
        self.prefix = {
            n: n - _min_overlap(n, threshold) + 1 for n in sizes.union(range(1, MAX_NGRAM + 1))
        }
        self.postings: dict[str, list] = {}
        for term_set, concept in term_sets:
            if term_set:
                entry = (len(term_set), term_set, concept)
                for token in self.rank.lowest(term_set, self.prefix[len(term_set)]):
                    self.postings.setdefault(token, []).append(entry)
        self.memo: dict[tuple, tuple] = {}
        self.window_memo: dict[tuple, tuple] = {}

    def note_concepts(self, tokens: list) -> set:
        """Concepts with a term at Jaccard >= threshold to some n-gram (n <= 5) of ``tokens``."""
        memo, window_memo = self.memo, self.window_memo
        ordered = tuple(tokens)
        # a window from each position, cut short only by the note's end
        tail = range(max(len(ordered) - MAX_NGRAM + 1, 0), len(ordered))
        windows = [*zip(*(ordered[k:] for k in range(MAX_NGRAM))), *(ordered[i:] for i in tail)]
        # the hits are gathered first, since storing a miss may clear the memo
        matches = list(map(window_memo.get, windows))
        found: set[str] = set().union(*filter(None, matches))
        for window in {w for w, m in zip(windows, matches) if m is None}:
            union: tuple = ()  # most prefixes match nothing; a repeat is harmless
            for n in range(1, len(window) + 1):
                gram = window[:n]
                gram_matches = memo.get(gram)
                if gram_matches is None:
                    if len(memo) >= GRAM_MEMO_LIMIT:
                        memo.clear()
                    memo[gram] = gram_matches = self._gram_matches(gram)
                union += gram_matches
            if len(window_memo) >= GRAM_MEMO_LIMIT:
                window_memo.clear()
            window_memo[window] = union
            found.update(union)
        return found

    def _gram_matches(self, gram: tuple) -> tuple:
        threshold = self.threshold
        gram_set = frozenset(gram)
        size = len(gram_set)
        matched: tuple = ()
        for token in self.rank.lowest(gram_set, self.prefix[size]):
            for term_size, term_set, concept in self.postings.get(token, ()):
                if concept in matched or min(size, term_size) / max(size, term_size) < threshold:
                    continue
                # the union's size is the same integer as len(gram_set | term_set)
                overlap = len(gram_set & term_set)
                if overlap / (size + term_size - overlap) >= threshold:
                    matched += (concept,)
        return matched


def extract_dictionary_features(
    notes: "Iterable[NoteRecord]",
    dictionary: ConceptDictionary,
    min_doc_freq: int = DEFAULT_MIN_DOC_FREQ,
    similarity_threshold: float = 1.0,
) -> FeatureMatrix:
    """Scan token n-grams (n <= 5) per note and one-hot the matched concepts.

    At threshold 1.0 an n-gram's token tuple is looked up in the dictionary's ``terms``;
    below 1.0 an n-gram matches a term when their token-set Jaccard similarity
    reaches the threshold, through one ``_JaccardIndex`` per call, which walks
    notes by start window. Concepts found in fewer than min_doc_freq notes are dropped.
    The dictionary's document_frequency field records this scan's counts.
    ``notes`` is read once, and of each note only its id, cohort and hits are kept.
    """
    if not 0.0 < similarity_threshold <= 1.0:
        raise ParameterError(f"similarity threshold must be in (0, 1], got {similarity_threshold}")
    if min_doc_freq < 0:
        raise ParameterError(f"min_doc_freq must be >= 0, got {min_doc_freq}")
    # Exact matching cannot match grams longer than the longest term, so the
    # window can shrink; Jaccard mode must scan the full n <= 5 range.
    exact_max_n = min(MAX_NGRAM, dictionary.max_term_tokens)
    index = _JaccardIndex(dictionary, similarity_threshold) if similarity_threshold < 1.0 else None
    note_ids, cohorts, hits_per_note, frequency = [], [], [], Counter()
    for note in notes:
        tokens = _tokenize(note.text)
        if index is None:
            found = _note_concepts_exact(tokens, dictionary, exact_max_n)
        else:
            found = index.note_concepts(tokens)
        note_ids.append(note.note_id)
        cohorts.append(note.cohort)
        hits_per_note.append(found)
        frequency.update(found)
    if not note_ids:
        raise BaselineError("dictionary extraction needs a non-empty note collection")
    dictionary.document_frequency = dict(sorted(frequency.items()))
    surviving = (c for c, df in frequency.items() if df >= min_doc_freq)
    return _concept_matrix("dict", note_ids, cohorts, hits_per_note, surviving)


def ingest_ner_annotations(
    file: str | Path, min_score: float = DEFAULT_MIN_NER_SCORE
) -> FeatureMatrix:
    """Read a {note_id, concept, score} JSONL file into a one-hot matrix.

    Annotations under min_score are discarded; malformed lines, such as an
    empty note_id or a score that is not a JSON number, are skipped with a
    warning, and a file with only malformed lines is an error. Rows follow
    first appearance of each note; columns are sorted concept ids.
    """
    if not 0.0 <= min_score <= 1.0:
        raise ParameterError(f"min_score must be in [0, 1], got {min_score}")
    note_concepts: dict[str, set] = {}
    malformed = 0
    parsed = 0
    for lineno, line in read_lines(file, BaselineError):
        if not line.strip():
            continue
        try:
            doc = parse_json(line)
            note_id = doc["note_id"]
            concept = doc["concept"]
            if not (isinstance(note_id, str) and note_id and isinstance(concept, str) and concept):
                raise TypeError("note_id and concept must be non-empty strings")
            score = doc["score"]
            if isinstance(score, bool) or not isinstance(score, (int, float)):
                raise TypeError(f"score {score!r} is not a JSON number")
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"score {score} outside [0, 1]")
        except (ValueError, KeyError, TypeError) as exc:
            logger.warning("%s:%d: skipping malformed annotation: %s", file, lineno, exc)
            malformed += 1
            continue
        parsed += 1
        if score < min_score:
            continue
        note_concepts.setdefault(note_id, set()).add(concept)
    if parsed == 0 and malformed > 0:
        raise BaselineError(f"{file}: all {malformed} annotation lines are malformed")
    renames = _column_renames(sorted(set().union(*note_concepts.values())), file)
    found = [{renames.get(c, c) for c in hits} for hits in note_concepts.values()]
    cohorts = [UNLABELED] * len(found)
    return _concept_matrix("ner", list(note_concepts), cohorts, found, set().union(*found))


def attach_cohorts(matrix: FeatureMatrix, cohort_of: dict) -> FeatureMatrix:
    """The rows of the notes that a note_id -> cohort mapping (e.g. a manifest) labels,
    with their labels; the other rows are dropped, and so are the columns that no kept
    row sets, as the dictionary baseline writes no concept that no note has."""
    keep = [i for i, note_id in enumerate(matrix.note_ids) if note_id in cohort_of]
    if not keep:
        raise BaselineError(f"the manifest lists none of the matrix's {matrix.shape[0]} notes")
    rows = [matrix.rows[i] for i in keep]
    seen = 0  # cells are 0 or 1, so OR-ing the rows as integers marks each column in use
    for row in rows:
        seen |= int.from_bytes(row, "big")
    used = [j for j, cell in enumerate(seen.to_bytes(len(matrix.columns), "big")) if cell]
    return FeatureMatrix(
        note_ids=[matrix.note_ids[i] for i in keep],
        cohorts=[cohort_of[matrix.note_ids[i]] for i in keep],
        columns=[replace(matrix.columns[j], index=n) for n, j in enumerate(used)],
        rows=[bytes(map(row.__getitem__, used)) for row in rows],
    )
