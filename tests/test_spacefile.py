"""Space file format: parsing and validation."""

import json

import pytest

from acso.obstruct import DataValidationError
from acso.spacefile import (
    SCHEMA_VERSION,
    SpaceFileError,
    load_space_file,
    space_file_from_doc,
    space_file_from_text,
)

from conftest import CORPUS_DIR, DATA_DIR


def cp2_doc() -> dict:
    return json.loads((CORPUS_DIR / "cp2.json").read_text())


# -- loading -------------------------------------------------------------


def test_corpus_loads_with_expected_shape(corpus):
    assert set(corpus) == {"cp2", "cp2bar", "hp2", "s1xwu", "s2xs4",
                           "s4", "s6", "s8", "s8_rank6"}
    for name, space in corpus.items():
        assert space.name
        assert space.bundle.rank % 2 == 0
        assert space.expectations


def test_cp2_values(cp2):
    rings = cp2.rings
    assert cp2.rank == 4
    assert cp2.base_dimension == 4
    assert cp2.w_class(2) == rings.mod2.from_terms(2, {"a": 1})
    assert cp2.p_class(1) == rings.integral.from_terms(4, {"a^2": 3})
    assert cp2.euler == rings.integral.from_terms(4, {"a^2": 3})
    assert cp2.pair(cp2.euler) == 3


def test_quaternionic_values(hp2):
    rings = hp2.rings
    assert hp2.rank == 8
    assert hp2.w_class(4) == rings.mod2.from_terms(4, {"u": 1})
    assert hp2.p_class(2) == rings.integral.from_terms(8, {"u^2": 7})
    assert hp2.pair(hp2.euler) == 3


def test_explicit_three_ring_form(s1xwu):
    rings = s1xwu.rings
    assert rings.integral.orders(3) == (2,)
    assert rings.mod2.basis_strings(3) == ("z3", "tb*z2")
    assert rings.beta(s1xwu.w_class(2)) == rings.integral.from_terms(3, {"c": 1})


def test_load_rejects_bad_reduction_data():
    with pytest.raises(DataValidationError):
        load_space_file(DATA_DIR / "bad_reduction.json")


def test_missing_file():
    with pytest.raises(OSError):
        load_space_file(DATA_DIR / "does_not_exist.json")


# -- document validation -----------------------------------------------------


def test_unknown_top_level_key():
    doc = cp2_doc()
    doc["surprise"] = 1
    with pytest.raises(SpaceFileError):
        space_file_from_doc(doc)


def test_unknown_expectation_key():
    doc = cp2_doc()
    doc["expectations"]["flavor"] = "vanilla"
    with pytest.raises(SpaceFileError):
        space_file_from_doc(doc)


def test_schema_version_checked():
    doc = cp2_doc()
    doc["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(SpaceFileError):
        space_file_from_doc(doc)


def test_unknown_monomial_rejected():
    doc = cp2_doc()
    doc["bundle"]["euler"] = {"b^2": "3"}
    with pytest.raises(SpaceFileError):
        space_file_from_doc(doc)


def test_unknown_generator_in_relation():
    doc = cp2_doc()
    doc["rings"]["shared"]["relations"].append({"lhs": "q^2", "rhs": {}})
    with pytest.raises(SpaceFileError):
        space_file_from_doc(doc)


def test_shared_form_excludes_maps():
    doc = cp2_doc()
    doc["maps"] = {"rho2": {}}
    with pytest.raises(SpaceFileError):
        space_file_from_doc(doc)


def test_integer_fields_accept_plain_and_string():
    doc = cp2_doc()
    doc["bundle"]["p"]["1"] = {"a^2": 3}
    plain = space_file_from_doc(doc)
    doc["bundle"]["p"]["1"] = {"a^2": "3"}
    quoted = space_file_from_doc(doc)
    assert plain.bundle.p_class(1) == quoted.bundle.p_class(1)
    doc["bundle"]["p"]["1"] = {"a^2": "three"}
    with pytest.raises(SpaceFileError):
        space_file_from_doc(doc)


def int_error(value) -> str:
    doc = cp2_doc()
    doc["bundle"]["euler"] = {"a^2": value}
    with pytest.raises(SpaceFileError) as info:
        space_file_from_doc(doc)
    return str(info.value)


INT_ERROR = "bundle.euler['a^2'] must be an integer or decimal string, got "


def test_integer_errors_quote_a_short_value_whole():
    # "x" * 62 has a repr of 64 characters, the most quoted whole
    for value in ("three", 1.5, [1, 2], None, "x" * 62):
        assert int_error(value) == INT_ERROR + repr(value)


def test_integer_errors_cut_a_long_value():
    for value in ("x" * 63, "y" * 5000, list(range(1000))):
        assert int_error(value) == INT_ERROR + repr(value)[:64] + "..."


def test_from_text_uses_default_name():
    doc = cp2_doc()
    del doc["name"]
    sf = space_file_from_text(json.dumps(doc), default_name="fallback")
    assert sf.name == "fallback"
