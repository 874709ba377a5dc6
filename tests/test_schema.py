import json

import pytest

from pheno_mine.errors import SchemaError
from pheno_mine.extraction import parse_response
from pheno_mine.schema import (
    FeatureColumn,
    builtin_list,
    combine_lists,
    feature_index,
    load_phenotype_list,
    parse_column_key,
    parse_phenotype_list,
    resolve_list,
    to_document,
)


def test_builtin_list_shapes(list1, list2):
    assert len(list1.categories) == 6
    assert len(list1) == 10
    assert len(list2.categories) == 5
    assert len(list2) == 27


def test_builtin_category_names(list1, list2):
    assert [c.name for c in list1.categories] == [
        "Memory Indicators",
        "Comorbidities",
        "Family history",
        "Neurobehavioral tests/ratings",
        "Neuroimaging findings",
        "Biomarker test results",
    ]
    assert [c.name for c in list2.categories] == [
        "Memory",
        "Executive Functions",
        "Language",
        "Visuospatial Skills",
        "Behavior",
    ]


def test_every_category_has_three_examples_with_a_none(combined):
    for category in combined.categories:
        assert len(category.few_shot_examples) == 3
        outputs = [e.expected_output for e in category.few_shot_examples]
        assert "none" in outputs


def test_phenotype_matches_display_name_and_aliases(list1):
    # a reply token matches a candidate when both normalise alike
    memory = list1.category("Memory Indicators")
    for reply in ("repeating", "REPEATING", "repeats questions"):
        assert parse_response(reply, memory) == {"repeating"}
    assert parse_response("misplacing", memory) == {"misplacing"}


@pytest.mark.parametrize(
    "candidate",
    [{"display_name": "Memory, short-term"}, {"display_name": "x", "aliases": ["y", "a,b"]}],
)
def test_comma_in_a_name_rejected(candidate):
    # replies are split at commas, so such a name could never match
    doc = {"list_id": "x", "categories": [{"name": "A", "candidates": [{"id": "p", **candidate}]}]}
    with pytest.raises(SchemaError, match="must not contain ','") as caught:
        parse_phenotype_list(doc)
    assert "\n" not in str(caught.value)


def test_category_lookup_bare_and_namespaced(combined):
    bare = combined.category("Comorbidities")
    namespaced = combined.category("list1:Comorbidities")
    assert bare is namespaced


def test_category_lookup_unknown_raises(list1):
    with pytest.raises(SchemaError, match="unknown category"):
        list1.category("Nonexistent")


def test_combined_namespaces_both_sources(combined, list1, list2):
    assert combined.list_id == "combined"
    namespaces = {c.namespace for c in combined.categories}
    assert namespaces == {"list1", "list2"}
    assert len(combined) == len(list1) + len(list2)


def test_combining_a_list_with_itself_disambiguates(list1):
    doubled = combine_lists(list1, list1)
    keys = [c.key for c in feature_index(doubled)]
    assert len(keys) == len(set(keys)) == 20
    assert any(key.startswith("list1~2:") for key in keys)


def test_feature_index_is_stable_and_parseable(combined):
    columns = feature_index(combined)
    assert len(columns) == 37
    assert [c.index for c in columns] == list(range(37))
    for column in columns:
        namespace, category, phenotype_id = parse_column_key(column.key)
        assert namespace == column.list_id
        assert category == column.category
        assert phenotype_id == column.phenotype_id


def test_parse_column_key_rejects_malformed():
    with pytest.raises(SchemaError):
        parse_column_key("only_one_part")


def test_column_key_roundtrip_with_colon_in_category():
    column = FeatureColumn(0, "list1", "Neurobehavioral tests/ratings", "mmse")
    assert parse_column_key(column.key) == (
        "list1",
        "Neurobehavioral tests/ratings",
        "mmse",
    )


def test_document_roundtrip(tmp_path, list2):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(to_document(list2)), encoding="utf-8")
    loaded = load_phenotype_list(path)
    assert loaded.list_id == list2.list_id
    assert [c.name for c in loaded.categories] == [c.name for c in list2.categories]
    assert len(loaded) == len(list2)


def test_duplicate_phenotype_ids_rejected():
    doc = {
        "list_id": "x",
        "categories": [
            {
                "name": "A",
                "candidates": [
                    {"id": "p", "display_name": "p"},
                    {"id": "p", "display_name": "q"},
                ],
            }
        ],
    }
    with pytest.raises(SchemaError, match="duplicate"):
        parse_phenotype_list(doc)


def test_colon_in_id_rejected():
    # a matrix column key is split at its first ':', so "custom:mine" would read back wrong
    for list_id in ("x:y", "custom:mine"):
        doc = {
            "list_id": list_id,
            "categories": [{"name": "A", "candidates": [{"id": "p", "display_name": "p"}]}],
        }
        with pytest.raises(SchemaError, match="':'"):
            parse_phenotype_list(doc)


def test_few_shot_examples_require_a_none_case():
    doc = {
        "list_id": "x",
        "categories": [
            {
                "name": "A",
                "candidates": [{"id": "p", "display_name": "p"}],
                "few_shot_examples": [
                    {"note_excerpt": "has p", "expected_output": "p"},
                ],
            }
        ],
    }
    with pytest.raises(SchemaError, match="none"):
        parse_phenotype_list(doc)


def test_resolve_list_accepts_builtin_ids_and_paths(tmp_path, list1):
    assert resolve_list("list1").list_id == "list1"
    assert resolve_list("combined").list_id == "combined"
    path = tmp_path / "mine.json"
    path.write_text(json.dumps(to_document(list1)), encoding="utf-8")
    assert resolve_list(str(path)).list_id == "list1"


def test_resolve_list_unknown_spec():
    with pytest.raises(SchemaError):
        resolve_list("list99")
