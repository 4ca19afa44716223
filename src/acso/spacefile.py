"""Reading bundle descriptions from JSON space files.

A space file carries one bundle: the cohomology rings of its base (either
a single torsion-free presentation shared by all three coefficient rings,
or three explicit presentations tied together by coefficient matrices),
the characteristic classes, an optional fundamental-class pairing, and
the expected outcomes used by the corpus runner.  Integer values may be
written as decimal strings so coefficients survive arbitrary precision.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping

from .gradedring import (
    MAP_SIGNATURES,
    CoefficientMap,
    Generator,
    GradedRing,
    RingError,
    RingPresentation,
    RewriteRule,
    RingSystem,
    cut,
    parse_exponents,
    quote,
)
from .intlin import Frozen
from .obstruct import BundleData, DataValidationError, Pairing

SCHEMA_VERSION = 1


class SpaceFileError(Exception):
    """The file does not follow the space-file schema."""


_TOP_KEYS = {"schema_version", "name", "description", "rings", "maps",
             "bundle", "expectations"}
_RING_KEYS = {"cutoff", "generators", "relations"}
_GEN_KEYS = {"name", "degree", "order"}
_REL_KEYS = {"lhs", "rhs"}
_BUNDLE_KEYS = {"rank", "base_dimension", "w", "p", "euler", "pairing"}
_PAIRING_KEYS = {"degree", "values"}
_MAP_KEYS = {name for name, *_ in MAP_SIGNATURES}
_EXPECTATION_KEYS = {"status", "existence", "exit_code", "first", "final",
                     "final_note_contains", "vanishing_candidates",
                     "wu_pairings", "euler_pairing"}


def _require_dict(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise SpaceFileError("%s must be an object" % what)
    return obj


def _require_list(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise SpaceFileError("%s must be a list" % what)
    return obj


def _required(obj: dict, key: str, what: str):
    if key not in obj:
        raise SpaceFileError("%s is missing %r" % (what, key))
    return obj[key]


def _check_keys(obj: dict, allowed, what: str) -> None:
    # allowed is a set of keys, or the keys of a dict
    if not obj.keys() <= allowed:
        raise SpaceFileError("%s has unknown keys: %s" % (
            what, cut(", ".join(sorted(obj.keys() - allowed)))))


def _int(value, what: str, key=None) -> int:
    """value as an int, from an int other than a bool or a decimal string.

    A refusal names the value `what`, or `what[key]` when a key is given;
    that name is formatted only for the refusal.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            pass
    if key is not None:
        what = "%s[%s]" % (what, quote(key))
    if isinstance(value, bool):
        raise SpaceFileError("%s must be an integer" % what)
    raise SpaceFileError("%s must be an integer or decimal string, got %s"
                         % (what, quote(value)))


def _terms(obj, what: str) -> dict:
    obj = _require_dict(obj if obj is not None else {}, what)
    return {str(mon): _int(c, what, mon) for mon, c in obj.items()}


def _presentation(section, modulus: int, what: str) -> RingPresentation:
    section = _require_dict(section, what)
    _check_keys(section, _RING_KEYS, what)
    cutoff = _int(_required(section, "cutoff", what), what + ".cutoff")
    gens = []
    entry = what + ".generators[]"
    for g in _require_list(_required(section, "generators", what),
                           what + ".generators"):
        g = _require_dict(g, entry)
        _check_keys(g, _GEN_KEYS, entry)
        gens.append(Generator(str(_required(g, "name", entry)),
                              _int(_required(g, "degree", entry),
                                   "generator degree"),
                              _int(g.get("order", 0), "generator order")))
    names = [g.name for g in gens]
    index = {n: i for i, n in enumerate(names)}
    rules = []
    entry = what + ".relations[]"
    for rel in _require_list(section.get("relations", []),
                             what + ".relations"):
        rel = _require_dict(rel, entry)
        _check_keys(rel, _REL_KEYS, entry)
        lhs_text = str(_required(rel, "lhs", entry))
        try:
            lhs = parse_exponents(names, lhs_text, index)
            rhs = tuple((c, parse_exponents(names, mon, index))
                        for mon, c in sorted(_terms(rel.get("rhs"),
                                                    what + ".rhs").items()))
        except ValueError as exc:
            raise SpaceFileError("%s: %s" % (what, exc)) from None
        rules.append(RewriteRule(lhs, rhs))
    try:
        return RingPresentation(modulus, cutoff, tuple(gens), tuple(rules))
    except (RingError, ValueError) as exc:
        raise SpaceFileError("%s: %s" % (what, exc)) from None


def _indexed(section, what: str, label: str):
    """(index, value) of each entry of an object keyed by integers, in
    order; two keys that name one index, such as "2" and "02", are
    refused when the second is reached."""
    keys: dict = {}
    for key, value in _require_dict(section, what).items():
        i = _int(key, "%s %s" % (what, label))
        if i in keys:
            raise SpaceFileError("%s: %s %d given twice, as %s and %s"
                                 % (what, label, i, quote(keys[i]),
                                    quote(key)))
        keys[i] = key
        yield i, value


def _columns(rows, what: str) -> tuple[int, list[dict]] | None:
    """A map's rows in one degree as its row count and sparse columns,
    {row: entry} per column over the nonzero entries; None for no rows,
    the zero matrix of whatever shape the degree has."""
    if not isinstance(rows, list):
        raise SpaceFileError("%s must be a list of rows" % what)
    columns = None
    ragged = False
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise SpaceFileError("%s rows must be lists" % what)
        if columns is None:
            columns = [{} for _ in row]
        ragged = ragged or len(row) != len(columns)
        for j, v in enumerate(row):
            x = _int(v, what + " entry")
            if x and not ragged:
                columns[j][i] = x
    if ragged:
        raise SpaceFileError("%s: ragged rows" % what)
    return None if columns is None else (len(rows), columns)


def matrix_map(name: str, source: GradedRing, target: GradedRing, shift: int,
               matrices) -> CoefficientMap:
    """The column map given per source degree by a matrix, as its row
    count and its sparse columns.

    A matrix of the wrong shape in a degree the map covers is refused
    only after the degrees below it pass the map's checks, since
    CoefficientMap checks its degrees in ascending order.
    """
    covered = range(max(0, -shift),
                    min(source.cutoff, target.cutoff - shift) + 1)
    for d in sorted(matrices):
        if d not in covered:
            continue
        rows, columns = matrices[d]
        shape = (len(target.basis(d + shift)), len(source.basis(d)))
        if (rows, len(columns)) != shape:
            CoefficientMap(name, source, target, shift,
                           {k: c for k, (_, c) in matrices.items()
                            if k in covered and k < d})
            raise RingError("map %s: matrix in degree %d should be %dx%d, "
                            "got %dx%d" % (name, d, *shape, rows, len(columns)))
    return CoefficientMap(name, source, target, shift,
                          {d: c for d, (_, c) in matrices.items()})


def _ring_system(doc: dict) -> RingSystem:
    rings = _require_dict(doc.get("rings"), "'rings'")
    if "shared" in rings:
        if set(rings) != {"shared"}:
            raise SpaceFileError("'rings.shared' excludes other ring sections")
        if "maps" in doc:
            raise SpaceFileError("the shared-ring form takes no 'maps' section")
        pres = _presentation(rings["shared"], 0, "rings.shared")
        try:
            return RingSystem.with_reduction_defaults(pres)
        except RingError as exc:
            raise SpaceFileError(str(exc)) from None
    moduli = {"integral": 0, "mod2": 2, "mod4": 4}
    _check_keys(rings, moduli.keys(), "'rings'")
    sections = {label: _required(rings, label, "'rings' without 'shared'")
                for label in moduli}
    try:
        built = {label: GradedRing(_presentation(sections[label], modulus,
                                                 "rings." + label))
                 for label, modulus in moduli.items()}
    except RingError as exc:
        raise SpaceFileError(str(exc)) from None
    maps_doc = _require_dict(doc.get("maps"), "'maps'")
    _check_keys(maps_doc, _MAP_KEYS, "'maps'")
    maps = {}
    for name, src_key, tgt_key, shift in MAP_SIGNATURES:
        if name not in maps_doc:
            raise SpaceFileError("'maps' is missing %r" % name)
        src, tgt = built[src_key], built[tgt_key]
        what = "maps.%s" % name
        mats = {}
        for d, rows in _indexed(maps_doc[name], what, "degree"):
            td = d + shift
            if d < 0 or d > src.cutoff or td < 0 or td > tgt.cutoff:
                raise SpaceFileError("%s: degree %d out of range" % (what, d))
            matrix = _columns(rows, "%s[%d]" % (what, d))
            if matrix is not None:
                mats[d] = matrix
        try:
            maps[name] = matrix_map(name, src, tgt, shift, mats)
        except RingError as exc:
            raise SpaceFileError(str(exc)) from None
    try:
        return RingSystem(built["integral"], built["mod2"], built["mod4"],
                          **maps)
    except RingError as exc:
        raise SpaceFileError(str(exc)) from None


def _element(ring: GradedRing, degree: int, obj, what: str):
    terms = _terms(obj, what)
    try:
        return ring.from_terms(degree, terms)
    except RingError as exc:
        raise SpaceFileError("%s: %s" % (what, exc)) from None


def _bundle(doc: dict, rings: RingSystem) -> BundleData:
    b = _require_dict(doc.get("bundle"), "'bundle'")
    _check_keys(b, _BUNDLE_KEYS, "'bundle'")
    rank = _int(_required(b, "rank", "'bundle'"), "bundle.rank")
    dim = (None if b.get("base_dimension") is None
           else _int(b["base_dimension"], "bundle.base_dimension"))
    w = {}
    for i, terms in _indexed(b.get("w", {}), "bundle.w", "index"):
        w[i] = _element(rings.mod2, i, terms, "bundle.w[%d]" % i)
    p = {}
    for k, terms in _indexed(b.get("p", {}), "bundle.p", "index"):
        p[k] = _element(rings.integral, 4 * k, terms, "bundle.p[%d]" % k)
    euler = _element(rings.integral, rank, _required(b, "euler", "'bundle'"),
                     "bundle.euler")
    pairing = None
    if b.get("pairing") is not None:
        pd = _require_dict(b["pairing"], "bundle.pairing")
        _check_keys(pd, _PAIRING_KEYS, "bundle.pairing")
        degree = _int(pd.get("degree"), "pairing.degree")
        if degree < 0 or degree > rings.integral.cutoff:
            raise SpaceFileError("pairing.degree %d out of range" % degree)
        index = rings.integral.basis_string_index(degree)
        values = [0] * len(index)
        for mon, v in _terms(pd.get("values"), "pairing.values").items():
            k = index.get(mon)
            if k is None:
                raise SpaceFileError("pairing.values names unknown monomial %s"
                                     % quote(mon))
            values[k] = v
        pairing = Pairing(degree, values)
    return BundleData(rank, rings, w, p, euler, pairing=pairing,
                      base_dimension=dim)


class SpaceFile(Frozen):
    """One parsed space file: the bundle plus its expected outcomes."""

    __slots__ = ("name", "bundle", "description", "expectations")

    def __init__(self, name: str, bundle: BundleData, description: str = "",
                 expectations: Mapping | None = None) -> None:
        Frozen.__init__(self, name, bundle, description,
                        {} if expectations is None else expectations)


def space_file_from_doc(doc, default_name: str = "") -> SpaceFile:
    doc = _require_dict(doc, "space file")
    _check_keys(doc, _TOP_KEYS, "space file")
    version = _int(doc.get("schema_version"), "schema_version")
    if version != SCHEMA_VERSION:
        raise SpaceFileError("unsupported schema_version %d (expected %d)"
                             % (version, SCHEMA_VERSION))
    name = str(doc.get("name") or default_name)
    if not name:
        raise SpaceFileError("space file needs a 'name'")
    expectations = _require_dict(doc.get("expectations", {}), "'expectations'")
    _check_keys(expectations, _EXPECTATION_KEYS, "'expectations'")
    rings = _ring_system(doc)
    bundle = _bundle(doc, rings)
    return SpaceFile(name=name, bundle=bundle,
                     description=str(doc.get("description", "")),
                     expectations=dict(expectations))


def space_file_from_text(text: str, default_name: str = "") -> SpaceFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpaceFileError("invalid JSON: %s" % exc) from None
    except RecursionError:
        raise SpaceFileError("invalid JSON: nested deeper than the "
                             "interpreter's recursion limit") from None
    return space_file_from_doc(doc, default_name)


def load_space_file(path) -> SpaceFile:
    """Read a space file, named by default after its file less the suffix."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    # pathlib's stem: "a." stays whole and "..json" gives ".", where
    # os.path.splitext would give "a" and "..json"
    name = os.path.basename(path)
    dot = name.rfind(".")
    stem = name[:dot] if 0 < dot < len(name) - 1 else name
    return space_file_from_text(text, default_name=stem)
