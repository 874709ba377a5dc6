"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written via a different route than the
library code: pair-by-pair brute force for the clustering indices,
numerical integration for the chi-square survival function, a loop over
notes for the per-category counts of a matrix, SVD for PCA,
exhaustive assignment enumeration for k-means, and one ``json.dumps`` of the
whole blob for the response-cache key. Slow and simple wins.
"""

import hashlib
import itertools
import json
import math

import numpy as np
from scipy import integrate


# ---------------------------------------------------------------------------
# pair-counting clustering indices


def pair_counts(labels_a, labels_b) -> tuple:
    """(tp, fp, fn, tn) over all item pairs.

    tp: same cluster in both; fp: same in a only; fn: same in b only;
    tn: different in both.
    """
    tp = fp = fn = tn = 0
    n = len(labels_a)
    for i in range(n):
        for j in range(i + 1, n):
            same_a = labels_a[i] == labels_a[j]
            same_b = labels_b[i] == labels_b[j]
            if same_a and same_b:
                tp += 1
            elif same_a:
                fp += 1
            elif same_b:
                fn += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def ari_oracle(labels_a, labels_b) -> float:
    a, b, c, d = pair_counts(labels_a, labels_b)
    denominator = (a + b) * (b + d) + (a + c) * (c + d)
    if denominator == 0:
        return 1.0
    return 2.0 * (a * d - b * c) / denominator


def nmi_oracle(labels_a, labels_b) -> float:
    n = len(labels_a)
    joint: dict = {}
    count_a: dict = {}
    count_b: dict = {}
    for x, y in zip(labels_a, labels_b):
        joint[(x, y)] = joint.get((x, y), 0) + 1
        count_a[x] = count_a.get(x, 0) + 1
        count_b[y] = count_b.get(y, 0) + 1
    h_a = -sum((c / n) * math.log(c / n) for c in count_a.values())
    h_b = -sum((c / n) * math.log(c / n) for c in count_b.values())
    mean_h = (h_a + h_b) / 2.0
    if mean_h == 0.0:
        # both partitions are single clusters, hence identical
        return 1.0
    mi = 0.0
    for (x, y), c in joint.items():
        p_xy = c / n
        mi += p_xy * math.log(p_xy / ((count_a[x] / n) * (count_b[y] / n)))
    return mi / mean_h


def fmi_oracle(labels_a, labels_b) -> float:
    tp, fp, fn, _ = pair_counts(labels_a, labels_b)
    denominator = math.sqrt((tp + fp) * (tp + fn))
    if denominator == 0.0:
        return 0.0
    return tp / denominator


def all_partitions(n: int):
    """Every set partition of range(n) as a restricted-growth label tuple."""

    def extend(prefix, max_label):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for label in range(max_label + 2):
            prefix.append(label)
            yield from extend(prefix, max(max_label, label))
            prefix.pop()

    yield from extend([0], 0)


# ---------------------------------------------------------------------------
# chi-square survival by numerical integration


def chi2_pdf(x: float, df: int) -> float:
    if x < 0:
        return 0.0
    half = df / 2.0
    if x == 0.0:
        return 0.0 if df != 2 else 0.5
    log_pdf = (half - 1.0) * math.log(x) - x / 2.0 - half * math.log(2.0) - math.lgamma(half)
    return math.exp(log_pdf)


def chi2_sf_quad(x: float, df: int) -> float:
    if x <= 0:
        return 1.0
    cdf, _ = integrate.quad(chi2_pdf, 0.0, x, args=(df,), limit=200)
    return max(0.0, min(1.0, 1.0 - cdf))


# ---------------------------------------------------------------------------
# chi-square statistic recomputed from first principles


def chi2_stat_oracle(table, correction: float = 0.0) -> tuple:
    """(statistic, df) for an r x c observed-count table."""
    rows = len(table)
    cols = len(table[0])
    row_totals = [sum(table[i]) for i in range(rows)]
    col_totals = [sum(table[i][j] for i in range(rows)) for j in range(cols)]
    grand = sum(row_totals)
    stat = 0.0
    for i in range(rows):
        for j in range(cols):
            expected = row_totals[i] * col_totals[j] / grand
            deviation = max(abs(table[i][j] - expected) - correction, 0.0)
            stat += deviation * deviation / expected
    return stat, (rows - 1) * (cols - 1)


# ---------------------------------------------------------------------------
# per-category counts of a feature matrix, one note at a time


def matrix_counts_oracle(matrix, granularity: str) -> list:
    """(list_id, category, totals, nones) per subject, in the order of first column.

    A subject is every column sharing a (namespace, category), or one column,
    named by its key, at phenotype granularity. A note is present when any
    column of the subject is 1.
    """
    subjects: dict = {}
    for col in matrix.columns:
        if granularity == "category":
            name = (col.list_id, col.category)
        else:
            name = (col.list_id, col.key)
        subjects.setdefault(name, []).append(col.index)
    out = []
    for (list_id, category), indices in subjects.items():
        totals: dict = {}
        nones: dict = {}
        for i, cohort in enumerate(matrix.cohorts):
            totals[cohort] = totals.get(cohort, 0) + 1
            present = any(int(matrix.data[i, j]) == 1 for j in indices)
            nones[cohort] = nones.get(cohort, 0) + (0 if present else 1)
        out.append((list_id, category, totals, nones))
    return out


# ---------------------------------------------------------------------------
# PCA via SVD


def pca_svd_oracle(X: np.ndarray) -> tuple:
    """(full variance-ratio spectrum, top-2 components) of mean-centered X."""
    centered = X - X.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    variances = (singular ** 2) / (X.shape[0] - 1)
    total = variances.sum()
    ratios = variances / total if total > 0 else np.zeros_like(variances)
    return ratios, vt[:2]


# ---------------------------------------------------------------------------
# exact k-means by assignment enumeration


def kmeans_global_optimum(X: np.ndarray, k: int) -> float:
    """Global minimum inertia over every surjective assignment (tiny inputs)."""
    n = X.shape[0]
    best = math.inf
    for assignment in itertools.product(range(k), repeat=n):
        if len(set(assignment)) != k:
            continue
        inertia = 0.0
        for label in range(k):
            members = X[[i for i in range(n) if assignment[i] == label]]
            centroid = members.mean(axis=0)
            inertia += float(((members - centroid) ** 2).sum())
        if inertia < best:
            best = inertia
    return best


# ---------------------------------------------------------------------------
# sentence segmentation and chunk packing, one character and one join at a time


def _guarded_oracle(text: str, start: int, punct: int) -> bool:
    """Abbreviation guard, plus a decimal guard the whitespace rule never reaches."""
    from pheno_mine.chunking import GUARDED_ABBREVIATIONS

    if text[punct] != ".":
        return False
    begin = punct
    while begin > start and not text[begin - 1].isspace():
        begin -= 1
    if text[begin : punct + 1].lstrip("(\"'[") in GUARDED_ABBREVIATIONS:
        return True
    return (
        punct > 0
        and text[punct - 1].isdigit()
        and punct + 1 < len(text)
        and text[punct + 1].isdigit()
    )


def segment_sentences_oracle(text: str) -> list:
    """Character-by-character scan for [.!?] + whitespace + uppercase/digit."""
    sentences = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] in ".!?" and i + 1 < n and text[i + 1].isspace():
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            if j < n and (text[j].isupper() or text[j].isdigit()) and not _guarded_oracle(
                text, start, i
            ):
                piece = " ".join(text[start : i + 1].split())
                if piece:
                    sentences.append(piece)
                start = j
                i = j
                continue
        i += 1
    tail = " ".join(text[start:].split())
    if tail:
        sentences.append(tail)
    return sentences


def pack_chunks_oracle(sentences: list, budget: int, note_id: str = "") -> list:
    """Greedy packing that re-joins the candidate chunk to test each sentence."""
    from pheno_mine.chunking import Chunk

    def tokens(text):
        return math.ceil(len(text) / 4)

    chunks = []
    current = []

    def flush():
        if current:
            text = " ".join(current)
            chunks.append(Chunk(note_id, len(chunks), text, tokens(text)))
            current.clear()

    for sentence in sentences:
        if tokens(sentence) > budget:
            flush()
            chunks.append(Chunk(note_id, len(chunks), sentence, tokens(sentence), oversized=True))
            continue
        if current and tokens(" ".join(current + [sentence])) > budget:
            flush()
        current.append(sentence)
    flush()
    return chunks


# ---------------------------------------------------------------------------
# dictionary matching, every n-gram against every term


def note_concepts_jaccard_oracle(tokens: list, terms: dict, max_n: int, threshold: float) -> set:
    """Concepts with a term at token-set Jaccard >= threshold to some n-gram (n <= max_n)."""
    term_sets = [(frozenset(term.split()), concept) for term, concept in terms.items()]
    found = set()
    seen_grams = set()
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            gram_set = frozenset(tokens[i : i + n])
            if gram_set in seen_grams:
                continue
            seen_grams.add(gram_set)
            for term_set, concept in term_sets:
                if concept in found:
                    continue
                union = len(gram_set | term_set)
                if union == 0:
                    continue
                if len(gram_set & term_set) / union >= threshold:
                    found.add(concept)
    return found


# ---------------------------------------------------------------------------
# response-cache key, the whole blob dumped and hashed in one go


def cache_key_oracle(backend_id: str, request) -> str:
    """sha256 of the sorted-key JSON of backend, model, prompt and temperature."""
    blob = json.dumps(
        {
            "backend": backend_id,
            "model": request.model,
            "temperature": request.temperature,
            "prompt": request.prompt,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
