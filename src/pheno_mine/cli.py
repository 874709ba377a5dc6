"""Command-line entry points for the phenotype mining pipeline."""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import sys
import time
from collections import Counter
from contextlib import closing
from pathlib import Path

import click

from . import baselines as baselines_mod
from . import cohort as cohort_mod
from . import extraction
from .artifacts import artifact_dir, data_path, read_json, read_text, write_json, write_text
from .baselines import DEFAULT_MIN_DOC_FREQ, DEFAULT_MIN_NER_SCORE, DEFAULT_MIN_TERM_LENGTH
from .chunking import DEFAULT_CHUNK_BUDGET
from .errors import CohortError, ConfigError, PhenoMineError
from .features import DEFAULT_MAX_ITER, DEFAULT_RESTARTS, DEFAULT_TOL, FeatureMatrix
from .gateway import (
    DEFAULT_MAX_OUTPUT_TOKENS,
    DEFAULT_MODEL,
    HttpChatBackend,
    LlmGateway,
    MockBackend,
    MockRuleTable,
)
from .schema import builtin_list, resolve_list, to_document

EXIT_FAILURES = 2

DEFAULT_CLUSTER_SETTINGS = ((2, "collapsed_patient"), (3, "three_way"))

# The options that no config_hash covers, by command, and why. Every command records
# its seed beside the hash, and out_dir only says where the artifacts go.
UNHASHED = {
    "cohort": ("seed", "out_dir", "out_manifest"),  # out_manifest: where the manifest goes
    # in-flight requests and a cache change no reply; --per-patient only adds an artifact
    "extract": ("seed", "out_dir", "max_in_flight", "cache_dir", "per_patient"),
    "stats": ("seed", "out_dir"),
    "cluster": ("seed", "out_dir"),
    "pca": ("seed", "out_dir"),
    "baseline": ("seed", "out_dir"),
    "report": ("seed", "out_dir"),
}

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


class FiniteFloatRange(click.FloatRange):
    """A FloatRange that also refuses nan and the infinities."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{rv} is not a finite number.", param, ctx)
        return rv


# Option types shared by several commands (and by the group's own --seed/--out-dir).
SEED = click.IntRange(min=0)
OUT_DIR = click.Path(file_okay=False)
EXISTING_FILE = click.Path(exists=True, dir_okay=False)

seed_option = click.option("--seed", type=SEED, default=0, help="Random seed recorded in every artifact.")
out_dir_option = click.option("--out-dir", type=OUT_DIR, default=".", help="Artifact directory.")
sample_option = click.option(
    "--sample-per-cohort", type=click.IntRange(min=1), help="Cap each cohort at N notes."
)
draws_option = click.option(
    "--draws", type=click.IntRange(min=1), default=1, help="Union of this many independent draws."
)
matrix_option = click.option("--matrix", "matrix_path", type=EXISTING_FILE, required=True)
yates_option = click.option("--yates", type=click.Choice(["auto", "on", "off"]), default="auto")
restarts_option = click.option("--restarts", type=click.IntRange(min=1), default=DEFAULT_RESTARTS)


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


def _expected(kind) -> tuple:
    """The JSON type of a config value for an option of type ``kind``, and its values in words."""
    if isinstance(kind, click.Choice):
        return str, "one of " + ", ".join(repr(c) for c in kind.choices)
    if isinstance(kind, click.types.BoolParamType):
        return bool, "true or false"
    if isinstance(kind, click.types.IntParamType):
        json_type, noun = int, "an integer"
    elif isinstance(kind, click.types.FloatParamType):
        json_type = (int, float)
        noun = "a finite number" if isinstance(kind, FiniteFloatRange) else "a number"
    else:
        return str, "a string"
    bounds = []
    if getattr(kind, "min", None) is not None:
        bounds.append(f"{'>' if kind.min_open else '>='} {kind.min}")
    if getattr(kind, "max", None) is not None:
        bounds.append(f"{'<' if kind.max_open else '<='} {kind.max}")
    return json_type, " ".join([noun, " and ".join(bounds)]).rstrip()


def _config_value(param, key: str, value):
    """One config value checked against its option's declaration and converted as a flag is."""
    json_type, words = _expected(param.type)
    # a JSON true/false is an int to isinstance, but never a number here
    if not isinstance(value, json_type) or isinstance(value, bool) != (json_type is bool):
        raise ConfigError(f"{key} must be {words}, got {value!r}")
    try:
        return param.type.convert(value, param, None)
    except click.BadParameter as exc:
        if isinstance(param.type, click.Path):
            raise ConfigError(f"{key}: {exc.message}") from None
        raise ConfigError(f"{key} must be {words}, got {value!r}") from None


def _config_key(param) -> str:
    """The config key of an option: its long name, underscores for dashes."""
    return max(param.opts, key=len).lstrip("-").replace("-", "_")


def _config_defaults(config_path, group, command) -> dict:
    """``--config`` entries for the options of ``command``.

    One file serves every command, so a key of another command's option is
    ignored; a key that names no option of any command, nor of ``group``, is
    an error. The group's own options apply too, except ``config`` itself.
    """
    doc = read_json(config_path, ConfigError)
    if not isinstance(doc, dict):
        raise ConfigError(f"{config_path}: config must be a JSON object")
    known = {_config_key(p) for cmd in [group, *group.commands.values()] for p in cmd.params}
    for key in doc:
        if key not in known:
            raise ConfigError(f"{key} names no option of any command")
    if "config" in doc:
        raise ConfigError("config cannot be set inside a config file")
    values = {}
    for param in [*group.params, *command.params]:
        key = _config_key(param)
        if key not in doc:
            continue
        value = doc[key]
        if not param.multiple:
            values[param.name] = _config_value(param, key, value)
        elif isinstance(value, list):
            values[param.name] = tuple(_config_value(param, key, item) for item in value)
        else:
            raise ConfigError(f"{key} must be a JSON list, got {value!r}")
    return values


def _provenance(seed: int, list_id: str = "", mode: str = "", ignored=()) -> dict:
    """The running command's provenance. ``config_hash`` hashes its name and each option
    value as given, but None, the command's ``UNHASHED`` options and those it ``ignored``."""
    ctx = click.get_current_context()
    command = ctx.command.name
    skip = {*UNHASHED[command], *ignored}
    options = {"command": command}
    for param in ctx.command.params:
        key, value = _config_key(param), ctx.params[param.name]
        if value is not None and key not in skip:
            options[key] = value
    blob = json.dumps(options, sort_keys=True, default=str)
    return {
        "config_hash": hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12],
        "seed": seed,
        "list_id": list_id,
        "mode": mode,
    }


def _list_ids(items) -> str:
    """The sorted, comma-joined list ids of columns or count rows."""
    return ",".join(sorted({item.list_id for item in items}))


def _load_matrix(matrix_path, seed: int) -> tuple:
    """The matrix at ``matrix_path`` and the provenance of the command run on it."""
    matrix = FeatureMatrix.from_csv(matrix_path)
    return matrix, _provenance(seed, _list_ids(matrix.columns))


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.option(
    "--config",
    "config_path",
    type=EXISTING_FILE,
    help="JSON file of option values for the invoked command (keys use underscores).",
)
@click.option("--seed", type=SEED, help="Random seed recorded in every artifact.")
@click.option("--out-dir", type=OUT_DIR, help="Artifact directory.")
@click.option("--verbose", is_flag=True, help="Enable debug logging.")
@click.pass_context
@guarded
def main(ctx, config_path, seed, out_dir, verbose):
    """Prompt-driven phenotype mining from clinical notes.

    Extracts dementia-related phenotypes with an LLM (or a deterministic
    mock), builds binary feature matrices, and validates them with cohort
    chi-square statistics, k-means clustering, PCA figures, and baselines.
    """
    command = main.get_command(ctx, ctx.invoked_subcommand)
    defaults = _config_defaults(config_path, ctx.command, command) if config_path else {}
    verbose = verbose or defaults.pop("verbose", False)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    # apart from basicConfig, which changes nothing once the root logger has a handler
    logging.getLogger().setLevel(logging.DEBUG if verbose else logging.WARNING)
    # One BLAS thread unless the user chose otherwise; numpy loads only in the analytics
    # commands, after this line. Their matrices are narrow, and on 2 cores OpenBLAS's
    # thread pool cost a 1,000 x 37 report more than its arithmetic: 0.22 s, 0.10 s without.
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    # Group flags beat config entries; the subcommand's own flags beat both.
    if seed is not None:
        defaults["seed"] = seed
    if out_dir is not None:
        defaults["out_dir"] = out_dir
    ctx.default_map = {ctx.invoked_subcommand: defaults}


# ---------------------------------------------------------------------------
# cohort


@main.command("cohort")
@click.option("--notes", "notes_path", type=EXISTING_FILE, required=True)
@click.option("--diagnoses", "diagnoses_path", type=EXISTING_FILE, required=True)
@click.option("--out-manifest", type=click.Path(dir_okay=False))
@sample_option
@draws_option
@seed_option
@out_dir_option
@guarded
def cohort_cmd(notes_path, diagnoses_path, out_manifest, sample_per_cohort, draws, seed, out_dir):
    """Label notes with CN/MCI/ADRD cohorts and write the run manifest."""
    out = artifact_dir(out_dir)
    manifest_path = Path(out_manifest) if out_manifest else out / "manifest.csv"
    manifest = _run_manifest(notes_path, None, diagnoses_path, sample_per_cohort, draws, seed)
    provenance = _provenance(seed, ignored=() if sample_per_cohort else ("draws",))
    cohort_mod.write_manifest(manifest, manifest_path, provenance)
    counts = manifest.counts
    click.echo(
        f"manifest: {manifest_path} (CN={counts['CN']}, MCI={counts['MCI']}, ADRD={counts['ADRD']})"
    )


def _run_manifest(notes_path, manifest_path, diagnoses_path, sample_per_cohort, draws, seed):
    """The notes to run: those ``manifest_path`` lists, else every note that ``diagnoses_path``
    labels, each cohort capped at ``sample_per_cohort``. Reads no note's text."""
    notes = cohort_mod.load_notes(notes_path)
    if manifest_path:
        manifest = cohort_mod.load_manifest(manifest_path)
    elif diagnoses_path:
        diagnoses = cohort_mod.load_diagnoses(diagnoses_path)
        manifest = cohort_mod.build_manifest(cohort_mod.label_notes(notes, diagnoses))
    else:
        raise ConfigError("extract needs --manifest or --diagnoses to define cohorts")
    if sample_per_cohort:
        for cohort in cohort_mod.COHORTS:
            if manifest.counts[cohort] > sample_per_cohort:
                manifest = cohort_mod.sample_cohort(
                    manifest, cohort, sample_per_cohort, seed=seed, draws=draws
                )
    _require_notes([e.note_id for e in manifest.entries], {n.note_id for n in notes})
    return manifest


def _require_notes(listed, known: set):
    """Refuse a manifest that lists a note id the notes file does not hold."""
    missing = [note_id for note_id in listed if note_id not in known]
    if missing:
        raise ConfigError(
            f"manifest references {len(missing)} note(s) absent from the notes file "
            f"(first: {missing[0]!r})"
        )


# ---------------------------------------------------------------------------
# extract


@main.command("extract")
@click.option("--notes", "notes_path", type=EXISTING_FILE, required=True)
@click.option("--manifest", "manifest_path", type=EXISTING_FILE)
@click.option("--diagnoses", "diagnoses_path", type=EXISTING_FILE)
@click.option(
    "--list", "list_spec", default="combined", help="list1, list2, combined, or a schema JSON path."
)
@click.option("--mode", type=click.Choice(["zero_shot", "few_shot"]), default="zero_shot")
@click.option("--backend", type=click.Choice(["mock", "http"]), default="mock")
@click.option("--mock-rules", type=EXISTING_FILE)
@click.option("--base-url", help="Chat-completions endpoint base URL (http backend).")
@click.option("--model", default=DEFAULT_MODEL)
@click.option("--temperature", type=FiniteFloatRange(min=0), default=0.0)
@click.option("--max-output-tokens", type=click.IntRange(min=1), default=DEFAULT_MAX_OUTPUT_TOKENS)
@click.option("--max-in-flight", type=click.IntRange(min=1), default=4)
@click.option("--cache-dir", type=click.Path(file_okay=False))
@click.option("--chunk-budget", type=click.IntRange(min=1), default=DEFAULT_CHUNK_BUDGET)
@sample_option
@draws_option
@click.option("--per-patient", is_flag=True, help="Also write an OR-aggregated patient-level matrix.")
@seed_option
@out_dir_option
@guarded
def extract_cmd(
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
    out = artifact_dir(out_dir)

    plist = resolve_list(list_spec)
    with closing(_build_gateway(backend, plist, mock_rules, base_url, cache_dir)) as gateway:
        manifest = _run_manifest(
            notes_path, manifest_path, diagnoses_path, sample_per_cohort, draws, seed
        )
        unused = {
            "draws": not sample_per_cohort,
            "diagnoses": manifest_path,
            "mock_rules": backend == "http",
            "base_url": backend == "mock",
        }
        provenance = _provenance(seed, plist.list_id, mode, [k for k, v in unused.items() if v])

        started = time.perf_counter()
        row_of = {e.note_id: row for row, e in enumerate(manifest.entries)}
        profiles, failure_count = extraction.extract_notes(
            (note for note in cohort_mod.read_notes(notes_path) if note.note_id in row_of),
            plist,
            gateway,
            mode=mode,
            chunk_budget=chunk_budget,
            max_in_flight=max_in_flight,
            model=model,
            temperature=temperature,
            max_output_tokens=max_output_tokens,
        )
        found = {p.note_id for p in profiles}
        gone = [e.note_id for e in manifest.entries if e.note_id not in found]
        if gone:
            raise CohortError(
                f"{notes_path}: {len(gone)} manifest note(s) were gone when the notes were read "
                f"again (first: {gone[0]!r}); the file changed during the run"
            )
        # the notes came in file order; every artifact follows the manifest
        profiles.sort(key=lambda p: row_of[p.note_id])
        matrix = extraction.build_feature_matrix(profiles, plist, manifest)
        elapsed = time.perf_counter() - started

        if not manifest_path:
            cohort_mod.write_manifest(manifest, out / "manifest.csv", provenance)
        matrix.to_csv(out / "feature_matrix.csv", provenance)
        extraction.write_reject_log(profiles, out / "reject_log.jsonl")
        if per_patient:
            extraction.aggregate_by_patient(matrix, manifest).to_csv(
                out / "feature_matrix_patients.csv", provenance
            )

        requests = sum(p.requests for p in profiles)
        cache_hits = sum(p.cache_hits for p in profiles)
        report = {
            "provenance": provenance,
            "notes": len(profiles),
            "cohort_counts": manifest.counts,
            "requests": requests,
            "failures": failure_count,
            "cache_hits": cache_hits,
            "cache_hit_rate": (cache_hits / requests) if requests else 0.0,
            "rejected_tokens": sum(len(p.rejects) for p in profiles),
            "note_token_estimate": sum(p.estimated_tokens for p in profiles),
            "oversized_chunks": sum(p.oversized_chunks for p in profiles),
            "elapsed_seconds": round(elapsed, 3),
        }
        write_json(out / "run_report.json", report)
        click.echo(
            f"matrix: {out / 'feature_matrix.csv'} ({matrix.shape[0]} notes x "
            f"{matrix.shape[1]} phenotypes, {failure_count} failed completions)"
        )
        if failure_count:
            where = "the WARNING lines above name each one's note, chunk and category"
            click.echo(f"warning: {failure_count} completions failed; {where}", err=True)
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
# Artifact writers shared by stats, cluster, pca and report. Only these four
# commands load numpy, through the analytics modules they import when called.


def _stats_artifacts(report, out: Path, provenance: dict) -> str:
    """Write stats_report.csv and stats_report.txt; return the text table."""
    from . import stats

    stats.write_stats_csv(report, out / "stats_report.csv", provenance)
    text = stats.format_stats_table(report)
    write_text(out / "stats_report.txt", text)
    return text


def evaluate_clustering(*args, **kwargs):
    """``clustering.evaluate_clustering``, imported on the first call."""
    from .clustering import evaluate_clustering

    return evaluate_clustering(*args, **kwargs)


def _cluster_artifacts(matrix, pairs, out: Path, provenance: dict, **kmeans) -> str:
    """Cluster at each (k, scheme) pair, write clustering_report.json and .txt; return the text."""
    from .clustering import write_clustering_report

    reports = [
        evaluate_clustering(matrix, k, label_scheme=scheme, list_id=provenance["list_id"], **kmeans)
        for k, scheme in pairs
    ]
    write_clustering_report(reports, out / "clustering_report.json", provenance)
    lines = [f"{'setting':<28}{'ARI':>8}{'NMI':>8}{'FMI':>8}  cluster sizes"]
    for r in reports:
        name = f"k={r.k} {r.label_scheme}"
        sizes = "/".join(str(s) for s in r.cluster_sizes)
        lines.append(f"{name:<28}{r.ari:>8.3f}{r.nmi:>8.3f}{r.fmi:>8.3f}  {sizes}")
    text = "\n".join(lines) + "\n"
    write_text(out / "clustering_report.txt", text)
    return text


def _pca_artifacts(matrix, out: Path, provenance: dict):
    """Project the matrix, write pca_scatter.csv and pca_scatter.svg; return the projection."""
    from . import figures, pca

    projection = pca.pca_project(matrix)
    pca.write_pca_csv(projection, matrix.note_ids, matrix.cohorts, out / "pca_scatter.csv", provenance)
    figures.write_pca_svg(projection, matrix.cohorts, out / "pca_scatter.svg", provenance)
    return projection


# ---------------------------------------------------------------------------
# stats


@main.command("stats")
@click.option("--matrix", "matrix_path", type=EXISTING_FILE)
@click.option(
    "--fixture",
    "fixture_paths",
    type=EXISTING_FILE,
    multiple=True,
    help="Counts fixture CSV (repeatable); --builtin-fixtures selects the bundled ones.",
)
@click.option("--builtin-fixtures", is_flag=True, help="Use the bundled count fixtures.")
@click.option("--granularity", type=click.Choice(["category", "phenotype"]), default="category")
@yates_option
@seed_option
@out_dir_option
@guarded
def stats_cmd(matrix_path, fixture_paths, builtin_fixtures, granularity, yates, seed, out_dir):
    """Chi-square presence/absence tests per category across cohorts."""
    from . import stats

    out = artifact_dir(out_dir)
    if bool(matrix_path) + bool(fixture_paths) + builtin_fixtures != 1:
        raise ConfigError("stats needs exactly one of --matrix, --fixture or --builtin-fixtures")
    if builtin_fixtures:
        fixture_paths = [data_path("counts_list1.csv"), data_path("counts_list2.csv")]
    if fixture_paths:
        counts = []
        for p in fixture_paths:
            counts.extend(stats.load_counts_fixture(p))
        report = stats.analyze_fixture(counts, yates=yates)
        provenance = _provenance(seed, _list_ids(counts), ignored=("granularity",))
    else:
        matrix = FeatureMatrix.from_csv(matrix_path)
        report = stats.analyze_matrix(matrix, yates=yates, granularity=granularity)
        provenance = _provenance(seed, _list_ids(matrix.columns))
    click.echo(_stats_artifacts(report, out, provenance).rstrip())


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


@main.command("cluster")
@matrix_option
@click.option(
    "--setting",
    "settings_raw",
    multiple=True,
    help="K:SCHEME pair, repeatable (default: 2:collapsed_patient and 3:three_way).",
)
@restarts_option
@click.option("--max-iter", type=click.IntRange(min=1), default=DEFAULT_MAX_ITER)
@click.option("--tol", type=FiniteFloatRange(min=0), default=DEFAULT_TOL)
@seed_option
@out_dir_option
@guarded
def cluster_cmd(matrix_path, settings_raw, restarts, max_iter, tol, seed, out_dir):
    """K-means over the feature matrix scored against cohort labels."""
    out = artifact_dir(out_dir)
    pairs = [_parse_setting(raw) for raw in settings_raw] or DEFAULT_CLUSTER_SETTINGS
    matrix, provenance = _load_matrix(matrix_path, seed)
    kmeans = {"seed": seed, "restarts": restarts, "max_iter": max_iter, "tol": tol}
    text = _cluster_artifacts(matrix, pairs, out, provenance, **kmeans)
    click.echo(text.rstrip())


# ---------------------------------------------------------------------------
# pca


@main.command("pca")
@matrix_option
@seed_option
@out_dir_option
@guarded
def pca_cmd(matrix_path, seed, out_dir):
    """Project the matrix onto two principal components and plot it."""
    out = artifact_dir(out_dir)
    matrix, provenance = _load_matrix(matrix_path, seed)
    r1, r2 = _pca_artifacts(matrix, out, provenance).explained_variance_ratio
    click.echo(
        f"pca: {out / 'pca_scatter.svg'} (PC1 {r1 * 100:.1f}%, PC2 {r2 * 100:.1f}% of variance)"
    )


# ---------------------------------------------------------------------------
# baseline


@main.command("baseline")
@click.option("--method", type=click.Choice(["dictionary", "ner"]), required=True)
@click.option("--notes", "notes_path", type=EXISTING_FILE)
@click.option("--terms", "terms_path", type=EXISTING_FILE)
@click.option("--annotations", "annotations_path", type=EXISTING_FILE)
@click.option("--manifest", "manifest_path", type=EXISTING_FILE)
@click.option("--min-term-length", type=click.IntRange(min=0), default=DEFAULT_MIN_TERM_LENGTH)
@click.option("--min-doc-freq", type=click.IntRange(min=0), default=DEFAULT_MIN_DOC_FREQ)
@click.option("--similarity-threshold", type=click.FloatRange(0, 1, min_open=True), default=1.0)
@click.option("--min-score", type=FiniteFloatRange(0, 1), default=DEFAULT_MIN_NER_SCORE)
@seed_option
@out_dir_option
@guarded
def baseline_cmd(
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
    out = artifact_dir(out_dir)
    cohort_of = cohort_mod.load_manifest(manifest_path).cohort_of() if manifest_path else None
    if method == "dictionary":
        if not notes_path or not terms_path:
            raise ConfigError("dictionary baseline needs --notes and --terms")
        notes = cohort_mod.read_notes(notes_path)
        if cohort_of is not None:
            _require_notes(cohort_of, {n.note_id for n in cohort_mod.read_notes(notes_path)})
            notes = (n for n in notes if n.note_id in cohort_of)
        dictionary = baselines_mod.build_dictionary(terms_path, min_term_length)
        matrix = baselines_mod.extract_dictionary_features(
            notes, dictionary, min_doc_freq=min_doc_freq, similarity_threshold=similarity_threshold
        )
        out_path = out / "dictionary_matrix.csv"
        ignored = ("annotations", "min_score")
    else:
        if not annotations_path:
            raise ConfigError("ner baseline needs --annotations")
        matrix = baselines_mod.ingest_ner_annotations(annotations_path, min_score=min_score)
        out_path = out / "ner_matrix.csv"
        ignored = ("notes", "terms", "min_term_length", "min_doc_freq", "similarity_threshold")
    if cohort_of is not None:
        matrix = baselines_mod.attach_cohorts(matrix, cohort_of)
    provenance = _provenance(seed, method, ignored=ignored)
    matrix.to_csv(out_path, provenance)
    click.echo(f"baseline matrix: {out_path} ({matrix.shape[0]} notes x {matrix.shape[1]} concepts)")
    if method == "dictionary" and matrix.shape[0] and not matrix.shape[1]:
        click.echo(
            f"warning: no concept was found in --min-doc-freq {min_doc_freq} notes or more; "
            "lower --min-doc-freq to keep rarer concepts",
            err=True,
        )


# ---------------------------------------------------------------------------
# report


@main.command("report")
@matrix_option
@yates_option
@restarts_option
@seed_option
@out_dir_option
@guarded
def report_cmd(matrix_path, yates, restarts, seed, out_dir):
    """Stats, clustering, and PCA artifacts from one matrix, plus a summary."""
    from . import stats

    out = artifact_dir(out_dir)
    matrix, provenance = _load_matrix(matrix_path, seed)
    stats_text = _stats_artifacts(stats.analyze_matrix(matrix, yates=yates), out, provenance)
    cluster_text = _cluster_artifacts(
        matrix, DEFAULT_CLUSTER_SETTINGS, out, provenance, seed=seed, restarts=restarts
    )
    _pca_artifacts(matrix, out, provenance)
    summary = (
        f"rows: {matrix.shape[0]}  columns: {matrix.shape[1]}\n"
        f"cohorts: {dict(sorted(Counter(matrix.cohorts).items()))}\n\n"
        f"{stats_text}\n{cluster_text}"
    )
    write_text(out / "summary.txt", summary)
    click.echo(summary.rstrip())


# ---------------------------------------------------------------------------
# export-defaults


@main.command("export-defaults")
@out_dir_option
@guarded
def export_defaults_cmd(out_dir):
    """Write the bundled vocabularies, fixtures, demo corpus, and templates."""
    out = artifact_dir(out_dir)
    for name in _DATA_FILES:
        write_text(out / name, read_text(data_path(name), ConfigError, newline=""))
    write_text(out / "combined.json", json.dumps(to_document(builtin_list("combined")), indent=2) + "\n")
    from .prompts import render_few_shot, render_zero_shot

    category = builtin_list("list1").category("Comorbidities")
    templates = (
        "zero_shot:\n"
        + render_zero_shot(category, "[note text]")
        + "\n\nfew_shot:\n"
        + render_few_shot(category, "[note text]")
        + "\n"
    )
    write_text(out / "prompt_templates.txt", templates)
    click.echo(f"wrote {len(_DATA_FILES) + 2} default files to {out}")


if __name__ == "__main__":
    main()
