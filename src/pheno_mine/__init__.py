"""Prompt-driven phenotype mining from clinical notes.

The pipeline labels notes into CN/MCI/ADRD cohorts from ICD codes, chunks
note text under a token budget, renders per-category extraction prompts,
sends them to a chat-completion backend (HTTP or deterministic mock),
parses the constrained responses into a binary note-by-phenotype matrix,
and validates the matrix with chi-square cohort statistics, k-means
clustering scored against cohort labels, PCA projections, and dictionary
or NER baselines.
"""

from importlib import import_module

from .cohort import CohortManifest, NoteRecord, assign_cohort, build_manifest
from .errors import PhenoMineError
from .extraction import build_feature_matrix, extract_notes
from .features import FeatureMatrix
from .gateway import HttpChatBackend, LlmGateway, MockBackend, MockRuleTable
from .schema import PhenotypeList, builtin_list, combine_lists, load_phenotype_list

__version__ = "0.1.0"

# The analytics modules load numpy, so their names are imported on first use (PEP 562).
_LAZY = {
    "clustering": ("adjusted_rand_index", "evaluate_clustering", "fowlkes_mallows_index",
                   "kmeans_fit", "normalized_mutual_information"),
    "pca": ("pca_project",),
    "stats": ("analyze_matrix", "chi2_survival", "chi_square_test"),
}

__all__ = [
    "CohortManifest",
    "FeatureMatrix",
    "HttpChatBackend",
    "LlmGateway",
    "MockBackend",
    "MockRuleTable",
    "NoteRecord",
    "PhenoMineError",
    "PhenotypeList",
    "adjusted_rand_index",
    "analyze_matrix",
    "assign_cohort",
    "build_feature_matrix",
    "build_manifest",
    "builtin_list",
    "chi2_survival",
    "chi_square_test",
    "combine_lists",
    "evaluate_clustering",
    "extract_notes",
    "fowlkes_mallows_index",
    "kmeans_fit",
    "load_phenotype_list",
    "normalized_mutual_information",
    "pca_project",
    "__version__",
]


def __getattr__(name):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
