"""Space file format: parsing and validation."""

import collections
import json
import random
import re

import pytest

from acso import spacefile
from acso.gradedring import MAP_SIGNATURES, GradedRing, RingError
from acso.intlin import IntMatrix
from acso.obstruct import DataValidationError
from acso.spacefile import (
    SCHEMA_VERSION,
    SpaceFileError,
    load_space_file,
    space_file_from_doc,
    space_file_from_text,
)

from conftest import CORPUS_DIR, DATA_DIR, kernel_space
from test_gradedring import DenseMap, DenseSystem, dense_matrix


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


def s2xs4_doc() -> dict:
    return json.loads((CORPUS_DIR / "s2xs4.json").read_text())


@pytest.mark.parametrize("values, shown", [
    ({"b*a": "1"}, "'b*a'"),          # a*b spelled the other way round
    ({"a*b ": "1"}, "'a*b '"),
    ({"a^1*b": "1"}, "'a^1*b'"),
    ({"a*b": "1", "b": "1"}, "'b'"),  # a basis name of degree 4
    ({"q": "1", "a*b": "1"}, "'q'"),
    ({"x" * 70: "1"}, "'%s..." % ("x" * 63)),
])
def test_pairing_values_take_canonical_names_only(tmp_path, capsys, values,
                                                  shown):
    # every key of pairing.values must be the name of a basis monomial of
    # the pairing's degree, as the ring writes it; anything else, even a
    # spelling that from_terms would read, is refused by name
    from acso.cli import main
    doc = s2xs4_doc()
    doc["bundle"]["pairing"]["values"] = values
    message = "pairing.values names unknown monomial %s" % shown
    with pytest.raises(SpaceFileError) as info:
        space_file_from_doc(doc)
    assert str(info.value) == message
    path = tmp_path / "s2xs4.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_pairing_values_are_read_by_basis_name():
    doc = s2xs4_doc()
    doc["bundle"]["pairing"] = {"degree": 6, "values": {"a*b": "-1"}}
    assert space_file_from_doc(doc).bundle.pairing.values == (-1,)
    doc["bundle"]["pairing"] = {"degree": 4, "values": {"b": "5"}}
    assert space_file_from_doc(doc).bundle.pairing.values == (5,)
    doc["bundle"]["pairing"] = {"degree": 2, "values": {}}
    assert space_file_from_doc(doc).bundle.pairing.values == (0,)


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


# -- integer-keyed sections ------------------------------------------------


def s1xwu_doc() -> dict:
    return json.loads((CORPUS_DIR / "s1xwu.json").read_text())


@pytest.mark.parametrize("doc, section, keys, message", [
    (s1xwu_doc, ("bundle", "w"), ("2", "02"),
     "bundle.w: index 2 given twice, as '2' and '02'"),
    (cp2_doc, ("bundle", "p"), ("1", "+1"),
     "bundle.p: index 1 given twice, as '1' and '+1'"),
    (s1xwu_doc, ("maps", "rho2"), ("3", " 3"),
     "maps.rho2: degree 3 given twice, as '3' and ' 3'"),
    (s1xwu_doc, ("bundle", "w"), ("3", "0" * 70 + "3"),
     "bundle.w: index 3 given twice, as '3' and '%s..."
     % ("0" * 63)),
])
def test_two_keys_of_one_index_are_refused(doc, section, keys, message):
    # int() reads each pair of keys as one index; neither may silently
    # replace the other
    doc = doc()
    entries = doc[section[0]][section[1]]
    entries[keys[1]] = entries[keys[0]]
    with pytest.raises(SpaceFileError) as info:
        space_file_from_doc(doc)
    assert str(info.value) == message


def test_duplicate_index_fixture_is_refused_by_the_command(capsys):
    # the fixture is s1xwu (obstructed, exit 2) with w2 given again as 0
    # under "02"; letting the later key win made it clear (exit 0)
    from acso.cli import main
    assert main(["check", str(DATA_DIR / "duplicate_index.json")]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: bundle.w: index 2 given twice, as "
                              "'2' and '02'\n")
    doc = json.loads((DATA_DIR / "duplicate_index.json").read_text())
    del doc["bundle"]["w"]["02"]
    assert space_file_from_doc(doc).bundle.w == load_space_file(
        CORPUS_DIR / "s1xwu.json").bundle.w


# -- map rows against the dense reference -----------------------------------


def reference_matrix(ring_rows: int, ring_cols: int, rows, what: str):
    """How map rows were read before they went straight into columns: a
    dense IntMatrix, the zero matrix of the degree's shape for no rows."""
    if not isinstance(rows, list):
        raise SpaceFileError("%s must be a list of rows" % what)
    entries = []
    for r in rows:
        if not isinstance(r, list):
            raise SpaceFileError("%s rows must be lists" % what)
        entries.append([spacefile._int(v, what + " entry") for v in r])
    try:
        return IntMatrix.from_rows(entries) if entries else \
            IntMatrix.zero(ring_rows, ring_cols)
    except ValueError as exc:
        raise SpaceFileError("%s: %s" % (what, exc)) from None


def reference_maps(doc: dict):
    """The explicit-form maps of doc read through reference_matrix into
    DenseMap and checked by DenseSystem: {name: {degree: IntMatrix}}, or
    the message that refuses them."""
    moduli = {"integral": 0, "mod2": 2, "mod4": 4}
    rings = {label: GradedRing(spacefile._presentation(
                 doc["rings"][label], modulus, "rings." + label))
             for label, modulus in moduli.items()}
    maps = {}
    try:
        for name, src_key, tgt_key, shift in MAP_SIGNATURES:
            if name not in doc["maps"]:
                continue
            src, tgt = rings[src_key], rings[tgt_key]
            mats = {}
            for dkey, rows in spacefile._require_dict(
                    doc["maps"][name], "maps.%s" % name).items():
                d = spacefile._int(dkey, "maps.%s degree" % name)
                td = d + shift
                if d < 0 or d > src.cutoff or td < 0 or td > tgt.cutoff:
                    raise SpaceFileError("maps.%s: degree %d out of range"
                                         % (name, d))
                mats[d] = reference_matrix(len(tgt.basis(td)),
                                           len(src.basis(d)), rows,
                                           "maps.%s[%d]" % (name, d))
            maps[name] = DenseMap(name, src, tgt, shift, mats)
        system = DenseSystem(rings["integral"], rings["mod2"], rings["mod4"],
                             **maps)
    except (SpaceFileError, RingError) as exc:
        return str(exc)
    return {name: getattr(system, name).matrices for name, *_ in
            MAP_SIGNATURES}


def read_maps(doc: dict):
    """The maps spacefile reads from doc, as reference_maps gives them."""
    try:
        system = spacefile._ring_system(doc)
    except SpaceFileError as exc:
        return str(exc)
    return {name: {d: dense_matrix(getattr(system, name), d)
                   for d in getattr(system, name).columns}
            for name, *_ in MAP_SIGNATURES}


def mutate_rows(rng, rows):
    """rows with one change a file might carry, or rows as they are."""
    rows = json.loads(json.dumps(rows))
    roll = rng.randrange(11)
    if roll == 0 or not rows or not isinstance(rows, list):
        return rows
    i = rng.randrange(len(rows))
    if roll == 1:
        return []
    if roll == 2:
        return [[]]
    if roll == 3:
        return rng.choice(("x", 3, {"0": 1}))
    if roll == 4:
        rows[i] = rng.choice(("x", 1, None))
    elif not isinstance(rows[i], list):
        pass
    elif roll == 5:
        rows[i] = rows[i] + [rng.choice(("1", 0))]
    elif roll == 6:
        rows.append(list(rows[i]))
    elif roll == 7 and len(rows) > 1:
        del rows[i]
    elif roll == 8 and rows[i]:
        rows[i] = rows[i][:-1]
    elif rows[i]:
        j = rng.randrange(len(rows[i]))
        rows[i][j] = rng.choice(("1", "2", "3", "-1", "0", 2, "y", 1.5,
                                 True, "4" * 70))
    return rows


def test_map_rows_match_the_dense_reference(tmp_path):
    # s1xwu and the kernel space with random changes to their map rows,
    # degrees and keys: the same refusal, or the same maps, as reading
    # the rows into dense matrices did
    rng = random.Random(23)
    bases = [s1xwu_doc(), json.loads(kernel_space(tmp_path).read_text())]
    # theta2 breaks the order law in degree 1 and has the wrong shape in
    # degree 3: degree 1 is refused first, whichever key comes first
    for theta2 in ({"1": [["1"]], "3": [["0"]]}, {"3": [["0"]], "1": [["1"]]}):
        doc = s1xwu_doc()
        doc["maps"]["theta2"].update(theta2)
        assert read_maps(doc) == reference_maps(doc) == (
            "map theta2 does not respect additive orders in degree 1")
    outcomes = collections.Counter()
    for _ in range(400):
        doc = json.loads(json.dumps(rng.choice(bases)))
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(sorted(doc["maps"]))
            degrees = doc["maps"][name]
            roll = rng.random()
            if roll < 0.7 and degrees:
                key = rng.choice(sorted(degrees))
                degrees[key] = mutate_rows(rng, degrees[key])
            elif roll < 0.8:
                degrees[str(rng.choice((-1, 1, 2, 3, 5, 12, 13)))] = [["1"]]
            elif roll < 0.9 and degrees:
                del degrees[rng.choice(sorted(degrees))]
            else:
                degrees[rng.choice(("x", "2.0", ""))] = []
        want = reference_maps(doc)
        assert read_maps(doc) == want, doc["maps"]
        outcomes[want if isinstance(want, str) else "accepted"] += 1
    kinds = {re.sub(r"^maps?\.? ?\w+(\[\d+\])?|-?\d+|, got .*", "", k)
             for k in outcomes}
    # acceptance and every way to refuse rows are reached
    assert {"accepted", " must be a list of rows", " rows must be lists",
            " entry must be an integer or decimal string",
            " entry must be an integer", ": ragged rows",
            ": matrix in degree  should be x",
            " does not respect additive orders in degree ",
            " degree must be an integer or decimal string",
            ": degree  out of range"} <= kinds, kinds
