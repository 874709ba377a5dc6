"""Command-line entry points for the phenotype mining pipeline."""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import sys
import time
from importlib import resources
from pathlib import Path

import click

from . import baselines as baselines_mod
from . import cohort as cohort_mod
from . import extraction, figures, pca, stats
from .chunking import DEFAULT_CHUNK_BUDGET
from .clustering import (
    ClusteringReport,
    evaluate_clustering,
    write_clustering_report,
)
from .errors import ConfigError, PhenoMineError
from .features import FeatureMatrix
from .gateway import (
    DEFAULT_MODEL,
    HttpChatBackend,
    LlmGateway,
    MockBackend,
    MockRuleTable,
)
from .schema import builtin_list, resolve_list, to_document

logger = logging.getLogger(__name__)

EXIT_FAILURES = 2

_DATA_FILES = (
    "list1.json",
    "list2.json",
    "mock_rules.csv",
    "counts_list1.csv",
    "counts_list2.csv",
    "demo_notes.jsonl",
    "demo_diagnoses.csv",
    "demo_truth.csv",
    "demo_terms.csv",
    "demo_ner.jsonl",
)


def data_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    return Path(str(resources.files("pheno_mine.data").joinpath(name)))


def guarded(fn):
    """Convert package errors into exit code 1 with a clean message."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PhenoMineError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _setting(ctx, key: str, flag_value, default=None):
    """Resolution order: explicit flag, config file entry, default."""
    if flag_value is not None:
        return flag_value
    return ctx.obj.get(key, default)


def _count_setting(ctx, key: str, flag_value, default: int) -> int:
    """A count resolved like ``_setting``: an int >= 1, never a bool."""
    value = _setting(ctx, key, flag_value, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{key} must be an integer >= 1, got {value!r}")
    return value


def _provenance(options: dict, seed, list_id: str = "", mode: str = "") -> dict:
    blob = json.dumps(options, sort_keys=True, default=str)
    return {
        "config_hash": hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12],
        "seed": 0 if seed is None else seed,
        "list_id": list_id,
        "mode": mode,
    }


def _out_dir(ctx, flag_value) -> Path:
    out = Path(_setting(ctx, "out_dir", flag_value, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="JSON file supplying default values for any option (keys use underscores).",
)
@click.option("--seed", type=int, default=None, help="Random seed recorded in every artifact.")
@click.option("--out-dir", type=click.Path(file_okay=False), default=None, help="Artifact directory.")
@click.option("--verbose", is_flag=True, help="Enable debug logging.")
@click.pass_context
@guarded
def main(ctx, config_path, seed, out_dir, verbose):
    """Prompt-driven phenotype mining from clinical notes.

    Extracts dementia-related phenotypes with an LLM (or a deterministic
    mock), builds binary feature matrices, and validates them with cohort
    chi-square statistics, k-means clustering, PCA figures, and baselines.
    """
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    settings: dict = {}
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{config_path}: invalid JSON: {exc.msg}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{config_path}: config must be a JSON object")
        settings.update(doc)
    if seed is not None:
        settings["seed"] = seed
    if out_dir is not None:
        settings["out_dir"] = out_dir
    ctx.obj = settings


# ---------------------------------------------------------------------------
# cohort


@main.command("cohort")
@click.option("--notes", "notes_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option(
    "--diagnoses", "diagnoses_path", type=click.Path(exists=True, dir_okay=False), required=True
)
@click.option("--out-manifest", type=click.Path(dir_okay=False), default=None)
@click.option("--sample-per-cohort", type=int, default=None, help="Cap each cohort at N notes.")
@click.option("--draws", type=int, default=None, help="Union of this many independent draws.")
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", type=click.Path(file_okay=False), default=None)
@click.pass_context
@guarded
def cohort_cmd(ctx, notes_path, diagnoses_path, out_manifest, sample_per_cohort, draws, seed, out_dir):
    """Label notes with CN/MCI/ADRD cohorts and write the run manifest."""
    seed = _setting(ctx, "seed", seed, 0)
    draws = _setting(ctx, "draws", draws, 1)
    sample_per_cohort = _setting(ctx, "sample_per_cohort", sample_per_cohort)
    out = _out_dir(ctx, out_dir)
    manifest_path = Path(out_manifest) if out_manifest else out / "manifest.csv"
    notes = cohort_mod.load_notes(notes_path)
    diagnoses = cohort_mod.load_diagnoses(diagnoses_path)
    labeled = cohort_mod.label_notes(notes, diagnoses)
    manifest = cohort_mod.build_manifest(labeled, seed=seed)
    manifest = _apply_sampling(manifest, sample_per_cohort, seed, draws)
    provenance = _provenance(
        {
            "command": "cohort",
            "notes": str(notes_path),
            "diagnoses": str(diagnoses_path),
            "sample_per_cohort": sample_per_cohort,
            "draws": draws,
        },
        seed,
    )
    cohort_mod.write_manifest(manifest, manifest_path, provenance)
    counts = manifest.counts
    click.echo(
        f"manifest: {manifest_path} (CN={counts['CN']}, MCI={counts['MCI']}, ADRD={counts['ADRD']})"
    )


def _apply_sampling(manifest, sample_per_cohort, seed, draws):
    """Cap each cohort at the target size; cohorts already at or under it pass through."""
    if not sample_per_cohort:
        return manifest
    for cohort in cohort_mod.COHORTS:
        available = manifest.counts[cohort]
        if available > sample_per_cohort:
            manifest = cohort_mod.sample_cohort(
                manifest, cohort, sample_per_cohort, seed=seed, draws=draws
            )
    return manifest


# ---------------------------------------------------------------------------
# extract


@main.command("extract")
@click.option("--notes", "notes_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--manifest", "manifest_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--diagnoses", "diagnoses_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--list", "list_spec", default=None, help="list1, list2, combined, or a schema JSON path.")
@click.option("--mode", type=click.Choice(["zero_shot", "few_shot"]), default=None)
@click.option("--backend", type=click.Choice(["mock", "http"]), default=None)
@click.option("--mock-rules", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--base-url", default=None, help="Chat-completions endpoint base URL (http backend).")
@click.option("--model", default=None)
@click.option("--temperature", type=float, default=None)
@click.option("--max-output-tokens", type=int, default=None)
@click.option("--max-in-flight", type=int, default=None)
@click.option("--cache-dir", type=click.Path(file_okay=False), default=None)
@click.option("--chunk-budget", type=int, default=None)
@click.option("--sample-per-cohort", type=int, default=None)
@click.option("--draws", type=int, default=None)
@click.option("--per-patient", is_flag=True, default=False, help="Also write an OR-aggregated patient-level matrix.")
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", type=click.Path(file_okay=False), default=None)
@click.pass_context
@guarded
def extract_cmd(
    ctx,
    notes_path,
    manifest_path,
    diagnoses_path,
    list_spec,
    mode,
    backend,
    mock_rules,
    base_url,
    model,
    temperature,
    max_output_tokens,
    max_in_flight,
    cache_dir,
    chunk_budget,
    sample_per_cohort,
    draws,
    per_patient,
    seed,
    out_dir,
):
    """Run the full pipeline: cohort, sample, chunk, prompt, complete, parse, matrix."""
    seed = _setting(ctx, "seed", seed, 0)
    list_spec = _setting(ctx, "list", list_spec, "combined")
    mode = _setting(ctx, "mode", mode, "zero_shot")
    backend = _setting(ctx, "backend", backend, "mock")
    model = _setting(ctx, "model", model, DEFAULT_MODEL)
    temperature = _setting(ctx, "temperature", temperature, 0.0)
    max_output_tokens = _count_setting(ctx, "max_output_tokens", max_output_tokens, 64)
    max_in_flight = _count_setting(ctx, "max_in_flight", max_in_flight, 4)
    chunk_budget = _count_setting(ctx, "chunk_budget", chunk_budget, DEFAULT_CHUNK_BUDGET)
    sample_per_cohort = _setting(ctx, "sample_per_cohort", sample_per_cohort)
    draws = _setting(ctx, "draws", draws, 1)
    cache_dir = _setting(ctx, "cache_dir", cache_dir)
    base_url = _setting(ctx, "base_url", base_url)
    out = _out_dir(ctx, out_dir)

    plist = resolve_list(list_spec)
    gateway = _build_gateway(backend, plist, mock_rules, base_url, cache_dir)

    notes = cohort_mod.load_notes(notes_path)
    wrote_manifest = False
    if manifest_path:
        manifest = cohort_mod.load_manifest(manifest_path)
    elif diagnoses_path:
        diagnoses = cohort_mod.load_diagnoses(diagnoses_path)
        manifest = cohort_mod.build_manifest(cohort_mod.label_notes(notes, diagnoses), seed=seed)
        wrote_manifest = True
    else:
        raise ConfigError("extract needs --manifest or --diagnoses to define cohorts")
    manifest = _apply_sampling(manifest, sample_per_cohort, seed, draws)

    notes_by_id = {n.note_id: n for n in notes}
    missing = [e.note_id for e in manifest.entries if e.note_id not in notes_by_id]
    if missing:
        raise ConfigError(
            f"manifest references {len(missing)} note(s) absent from the notes file "
            f"(first: {missing[0]!r})"
        )
    selected = [notes_by_id[e.note_id] for e in manifest.entries]

    options = {
        "command": "extract",
        "list": plist.list_id,
        "mode": mode,
        "backend": backend,
        "model": model,
        "temperature": temperature,
        "chunk_budget": chunk_budget,
        "sample_per_cohort": sample_per_cohort,
        "draws": draws,
    }
    provenance = _provenance(options, seed, plist.list_id, mode)

    started = time.perf_counter()
    profiles, failure_count = extraction.extract_notes(
        selected,
        plist,
        gateway,
        mode=mode,
        chunk_budget=chunk_budget,
        max_in_flight=max_in_flight,
        model=model,
        temperature=temperature,
        max_output_tokens=max_output_tokens,
    )
    matrix = extraction.build_feature_matrix(profiles, plist, manifest)
    elapsed = time.perf_counter() - started

    if wrote_manifest:
        cohort_mod.write_manifest(manifest, out / "manifest.csv", provenance)
    matrix.to_csv(out / "feature_matrix.csv", provenance)
    extraction.write_reject_log(profiles, out / "reject_log.jsonl")
    if per_patient:
        extraction.aggregate_by_patient(matrix, manifest).to_csv(
            out / "feature_matrix_patients.csv", provenance
        )

    requests_total = gateway.cache_hits + gateway.cache_misses
    report = {
        "provenance": provenance,
        "notes": len(selected),
        "cohort_counts": manifest.counts,
        "requests": requests_total,
        "failures": failure_count,
        "cache_hits": gateway.cache_hits,
        "cache_hit_rate": (gateway.cache_hits / requests_total) if requests_total else 0.0,
        "rejected_tokens": sum(len(p.rejects) for p in profiles),
        "note_token_estimate": sum(p.estimated_tokens for p in profiles),
        "elapsed_seconds": round(elapsed, 3),
    }
    (out / "run_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    click.echo(
        f"matrix: {out / 'feature_matrix.csv'} ({matrix.shape[0]} notes x "
        f"{matrix.shape[1]} phenotypes, {failure_count} failed completions)"
    )
    if failure_count:
        click.echo(f"warning: {failure_count} completions failed; see run_report.json", err=True)
        sys.exit(EXIT_FAILURES)


def _build_gateway(backend, plist, mock_rules, base_url, cache_dir) -> LlmGateway:
    if backend == "mock":
        if mock_rules:
            table = MockRuleTable.from_csv(mock_rules)
        else:
            # the bundled rules cover the combined vocabulary; trim them when
            # extraction runs on a narrower list
            table = MockRuleTable.from_csv(data_path("mock_rules.csv")).restricted_to(plist)
        return LlmGateway(MockBackend(table, plist), cache_dir=cache_dir)
    if not base_url:
        raise ConfigError("http backend requires --base-url")
    http = HttpChatBackend(base_url)
    # Fail fast before any artifact is written.
    http.preflight()
    return LlmGateway(http, cache_dir=cache_dir)


# ---------------------------------------------------------------------------
# stats


@main.command("stats")
@click.option("--matrix", "matrix_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option(
    "--fixture",
    "fixture_paths",
    type=click.Path(exists=True, dir_okay=False),
    multiple=True,
    help="Counts fixture CSV (repeatable). 'builtin' loads the bundled fixtures.",
)
@click.option("--builtin-fixtures", is_flag=True, default=False, help="Use the bundled count fixtures.")
@click.option("--granularity", type=click.Choice(["category", "phenotype"]), default=None)
@click.option("--yates", type=click.Choice(["auto", "on", "off"]), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", type=click.Path(file_okay=False), default=None)
@click.pass_context
@guarded
def stats_cmd(ctx, matrix_path, fixture_paths, builtin_fixtures, granularity, yates, seed, out_dir):
    """Chi-square presence/absence tests per category across cohorts."""
    seed = _setting(ctx, "seed", seed, 0)
    granularity = _setting(ctx, "granularity", granularity, "category")
    yates = _setting(ctx, "yates", yates, "auto")
    out = _out_dir(ctx, out_dir)
    paths = [Path(p) for p in fixture_paths]
    if builtin_fixtures:
        paths = [data_path("counts_list1.csv"), data_path("counts_list2.csv")]
    if bool(paths) == bool(matrix_path):
        raise ConfigError("stats needs exactly one of --matrix or --fixture/--builtin-fixtures")
    if paths:
        counts = []
        for p in paths:
            counts.extend(stats.load_counts_fixture(p))
        report = stats.analyze_fixture(counts, yates=yates)
        source = ",".join(str(p) for p in paths)
        list_id = ",".join(sorted({c.list_id for c in counts}))
    else:
        matrix = FeatureMatrix.from_csv(matrix_path)
        report = stats.analyze_matrix(matrix, yates=yates, granularity=granularity)
        source = str(matrix_path)
        list_id = ",".join(sorted({c.list_id for c in matrix.columns}))
    provenance = _provenance(
        {"command": "stats", "source": source, "granularity": granularity, "yates": yates},
        seed,
        list_id,
    )
    stats.write_stats_csv(report, out / "stats_report.csv", provenance)
    text = stats.format_stats_table(report)
    (out / "stats_report.txt").write_text(text, encoding="utf-8")
    click.echo(text.rstrip())


# ---------------------------------------------------------------------------
# cluster


def _parse_setting(raw: str) -> tuple:
    try:
        k_text, scheme = raw.split(":", 1)
        k = int(k_text)
    except ValueError:
        raise ConfigError(
            f"invalid clustering setting {raw!r}; expected K:SCHEME like 2:collapsed_patient"
        ) from None
    return k, scheme


def _format_cluster_table(reports: "list[ClusteringReport]") -> str:
    header = f"{'setting':<28}{'ARI':>8}{'NMI':>8}{'FMI':>8}  cluster sizes"
    lines = [header]
    for r in reports:
        name = f"k={r.k} {r.label_scheme}"
        sizes = "/".join(str(s) for s in r.cluster_sizes)
        lines.append(f"{name:<28}{r.ari:>8.3f}{r.nmi:>8.3f}{r.fmi:>8.3f}  {sizes}")
    return "\n".join(lines) + "\n"


@main.command("cluster")
@click.option("--matrix", "matrix_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option(
    "--setting",
    "settings_raw",
    multiple=True,
    help="K:SCHEME pair, repeatable (default: 2:collapsed_patient and 3:three_way).",
)
@click.option("--restarts", type=int, default=None)
@click.option("--max-iter", type=int, default=None)
@click.option("--tol", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", type=click.Path(file_okay=False), default=None)
@click.pass_context
@guarded
def cluster_cmd(ctx, matrix_path, settings_raw, restarts, max_iter, tol, seed, out_dir):
    """K-means over the feature matrix scored against cohort labels."""
    seed = _setting(ctx, "seed", seed, 0)
    restarts = _setting(ctx, "restarts", restarts, 10)
    max_iter = _setting(ctx, "max_iter", max_iter, 300)
    tol = _setting(ctx, "tol", tol, 1e-4)
    out = _out_dir(ctx, out_dir)
    matrix = FeatureMatrix.from_csv(matrix_path)
    pairs = [_parse_setting(raw) for raw in settings_raw] or [
        (2, "collapsed_patient"),
        (3, "three_way"),
    ]
    list_id = ",".join(sorted({c.list_id for c in matrix.columns}))
    reports = [
        evaluate_clustering(
            matrix,
            k,
            label_scheme=scheme,
            seed=seed,
            restarts=restarts,
            max_iter=max_iter,
            tol=tol,
            list_id=list_id,
        )
        for k, scheme in pairs
    ]
    provenance = _provenance(
        {
            "command": "cluster",
            "matrix": str(matrix_path),
            "settings": [f"{k}:{s}" for k, s in pairs],
            "restarts": restarts,
        },
        seed,
        list_id,
    )
    write_clustering_report(reports, out / "clustering_report.json", provenance)
    table = _format_cluster_table(reports)
    (out / "clustering_report.txt").write_text(table, encoding="utf-8")
    click.echo(table.rstrip())


# ---------------------------------------------------------------------------
# pca


@main.command("pca")
@click.option("--matrix", "matrix_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", type=click.Path(file_okay=False), default=None)
@click.pass_context
@guarded
def pca_cmd(ctx, matrix_path, seed, out_dir):
    """Project the matrix onto two principal components and plot it."""
    seed = _setting(ctx, "seed", seed, 0)
    out = _out_dir(ctx, out_dir)
    matrix = FeatureMatrix.from_csv(matrix_path)
    list_id = ",".join(sorted({c.list_id for c in matrix.columns}))
    provenance = _provenance({"command": "pca", "matrix": str(matrix_path)}, seed, list_id)
    projection = pca.pca_project(matrix)
    pca.write_pca_csv(projection, matrix.note_ids, matrix.cohorts, out / "pca_scatter.csv", provenance)
    figures.write_pca_svg(projection, matrix.cohorts, out / "pca_scatter.svg", provenance)
    r1, r2 = projection.explained_variance_ratio
    click.echo(
        f"pca: {out / 'pca_scatter.svg'} (PC1 {r1 * 100:.1f}%, PC2 {r2 * 100:.1f}% of variance)"
    )


# ---------------------------------------------------------------------------
# baseline


@main.command("baseline")
@click.option("--method", type=click.Choice(["dictionary", "ner"]), required=True)
@click.option("--notes", "notes_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--terms", "terms_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--annotations", "annotations_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--manifest", "manifest_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--min-term-length", type=int, default=None)
@click.option("--min-doc-freq", type=int, default=None)
@click.option("--similarity-threshold", type=float, default=None)
@click.option("--min-score", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", type=click.Path(file_okay=False), default=None)
@click.pass_context
@guarded
def baseline_cmd(
    ctx,
    method,
    notes_path,
    terms_path,
    annotations_path,
    manifest_path,
    min_term_length,
    min_doc_freq,
    similarity_threshold,
    min_score,
    seed,
    out_dir,
):
    """Dictionary matching or NER-ingestion baseline feature matrices."""
    seed = _setting(ctx, "seed", seed, 0)
    out = _out_dir(ctx, out_dir)
    cohort_of = cohort_mod.load_manifest(manifest_path).cohort_of() if manifest_path else {}
    if method == "dictionary":
        if not notes_path or not terms_path:
            raise ConfigError("dictionary baseline needs --notes and --terms")
        min_term_length = _setting(ctx, "min_term_length", min_term_length, 4)
        min_doc_freq = _setting(ctx, "min_doc_freq", min_doc_freq, 50)
        similarity_threshold = _setting(ctx, "similarity_threshold", similarity_threshold, 1.0)
        notes = cohort_mod.load_notes(notes_path)
        if cohort_of:
            notes = [
                n for n in notes if n.note_id in cohort_of
            ]
            for n in notes:
                n.cohort = cohort_of[n.note_id]
        dictionary = baselines_mod.build_dictionary(terms_path, min_term_length)
        matrix = baselines_mod.extract_dictionary_features(
            notes, dictionary, min_doc_freq=min_doc_freq, similarity_threshold=similarity_threshold
        )
        out_path = out / "dictionary_matrix.csv"
        options = {
            "command": "baseline",
            "method": method,
            "terms": str(terms_path),
            "min_term_length": min_term_length,
            "min_doc_freq": min_doc_freq,
            "similarity_threshold": similarity_threshold,
        }
    else:
        if not annotations_path:
            raise ConfigError("ner baseline needs --annotations")
        min_score = _setting(ctx, "min_score", min_score, 0.8)
        matrix = baselines_mod.ingest_ner_annotations(annotations_path, min_score=min_score)
        if cohort_of:
            matrix = baselines_mod.attach_cohorts(matrix, cohort_of)
        out_path = out / "ner_matrix.csv"
        options = {
            "command": "baseline",
            "method": method,
            "annotations": str(annotations_path),
            "min_score": min_score,
        }
    provenance = _provenance(options, seed, method)
    matrix.to_csv(out_path, provenance)
    click.echo(f"baseline matrix: {out_path} ({matrix.shape[0]} notes x {matrix.shape[1]} concepts)")


# ---------------------------------------------------------------------------
# report


@main.command("report")
@click.option("--matrix", "matrix_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--yates", type=click.Choice(["auto", "on", "off"]), default=None)
@click.option("--restarts", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", type=click.Path(file_okay=False), default=None)
@click.pass_context
@guarded
def report_cmd(ctx, matrix_path, yates, restarts, seed, out_dir):
    """Stats, clustering, and PCA artifacts from one matrix, plus a summary."""
    seed = _setting(ctx, "seed", seed, 0)
    yates = _setting(ctx, "yates", yates, "auto")
    restarts = _setting(ctx, "restarts", restarts, 10)
    out = _out_dir(ctx, out_dir)
    matrix = FeatureMatrix.from_csv(matrix_path)
    list_id = ",".join(sorted({c.list_id for c in matrix.columns}))
    provenance = _provenance(
        {"command": "report", "matrix": str(matrix_path), "yates": yates}, seed, list_id
    )

    stats_report = stats.analyze_matrix(matrix, yates=yates)
    stats.write_stats_csv(stats_report, out / "stats_report.csv", provenance)
    stats_text = stats.format_stats_table(stats_report)
    (out / "stats_report.txt").write_text(stats_text, encoding="utf-8")

    cluster_reports = [
        evaluate_clustering(
            matrix, 2, label_scheme="collapsed_patient", seed=seed, restarts=restarts, list_id=list_id
        ),
        evaluate_clustering(
            matrix, 3, label_scheme="three_way", seed=seed, restarts=restarts, list_id=list_id
        ),
    ]
    write_clustering_report(cluster_reports, out / "clustering_report.json", provenance)
    cluster_text = _format_cluster_table(cluster_reports)
    (out / "clustering_report.txt").write_text(cluster_text, encoding="utf-8")

    projection = pca.pca_project(matrix)
    pca.write_pca_csv(projection, matrix.note_ids, matrix.cohorts, out / "pca_scatter.csv", provenance)
    figures.write_pca_svg(projection, matrix.cohorts, out / "pca_scatter.svg", provenance)

    summary = (
        f"rows: {matrix.shape[0]}  columns: {matrix.shape[1]}\n"
        f"cohorts: {dict(sorted(_tally(matrix.cohorts).items()))}\n\n"
        f"{stats_text}\n{cluster_text}"
    )
    (out / "summary.txt").write_text(summary, encoding="utf-8")
    click.echo(summary.rstrip())


def _tally(values) -> dict:
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# export-defaults


@main.command("export-defaults")
@click.option("--out-dir", type=click.Path(file_okay=False), default=None)
@click.pass_context
@guarded
def export_defaults_cmd(ctx, out_dir):
    """Write the bundled vocabularies, fixtures, demo corpus, and templates."""
    out = _out_dir(ctx, out_dir)
    for name in _DATA_FILES:
        (out / name).write_bytes(data_path(name).read_bytes())
    combined = builtin_list("combined")
    (out / "combined.json").write_text(
        json.dumps(to_document(combined), indent=2) + "\n", encoding="utf-8"
    )
    from .prompts import render_few_shot, render_zero_shot

    category = builtin_list("list1").category("Comorbidities")
    templates = (
        "zero_shot:\n"
        + render_zero_shot(category, "[note text]")
        + "\n\nfew_shot:\n"
        + render_few_shot(category, "[note text]")
        + "\n"
    )
    (out / "prompt_templates.txt").write_text(templates, encoding="utf-8")
    click.echo(f"wrote {len(_DATA_FILES) + 2} default files to {out}")


if __name__ == "__main__":
    main()
