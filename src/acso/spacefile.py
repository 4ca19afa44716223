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
    parse_exponents,
    quote,
)
from .intlin import Frozen, IntMatrix, set_field
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
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise SpaceFileError("%s has unknown keys: %s" % (what, ", ".join(unknown)))


def _int(value, what: str) -> int:
    if isinstance(value, bool):
        raise SpaceFileError("%s must be an integer" % what)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            pass
    raise SpaceFileError("%s must be an integer or decimal string, got %s"
                         % (what, quote(value)))


def _terms(obj, what: str) -> dict:
    obj = _require_dict(obj if obj is not None else {}, what)
    return {str(mon): _int(c, "%s[%s]" % (what, quote(mon)))
            for mon, c in obj.items()}


def _presentation(section, modulus: int, what: str) -> RingPresentation:
    section = _require_dict(section, what)
    _check_keys(section, _RING_KEYS, what)
    cutoff = _int(_required(section, "cutoff", what), what + ".cutoff")
    gens = []
    for g in _require_list(_required(section, "generators", what),
                           what + ".generators"):
        g = _require_dict(g, what + ".generators[]")
        _check_keys(g, _GEN_KEYS, what + ".generators[]")
        gens.append(Generator(str(_required(g, "name", what + ".generators[]")),
                              _int(_required(g, "degree",
                                             what + ".generators[]"),
                                   "generator degree"),
                              _int(g.get("order", 0), "generator order")))
    names = [g.name for g in gens]
    rules = []
    for rel in _require_list(section.get("relations", []),
                             what + ".relations"):
        rel = _require_dict(rel, what + ".relations[]")
        _check_keys(rel, _REL_KEYS, what + ".relations[]")
        lhs_text = str(_required(rel, "lhs", what + ".relations[]"))
        try:
            lhs = parse_exponents(names, lhs_text)
            rhs = tuple((c, parse_exponents(names, mon))
                        for mon, c in sorted(_terms(rel.get("rhs"),
                                                    what + ".rhs").items()))
        except ValueError as exc:
            raise SpaceFileError("%s: %s" % (what, exc)) from None
        rules.append(RewriteRule(lhs, rhs))
    try:
        return RingPresentation(modulus, cutoff, tuple(gens), tuple(rules))
    except (RingError, ValueError) as exc:
        raise SpaceFileError("%s: %s" % (what, exc)) from None


def _matrix(ring_rows: int, ring_cols: int, rows, what: str) -> IntMatrix:
    if not isinstance(rows, list):
        raise SpaceFileError("%s must be a list of rows" % what)
    entries = []
    for r in rows:
        if not isinstance(r, list):
            raise SpaceFileError("%s rows must be lists" % what)
        entries.append([_int(v, what + " entry") for v in r])
    try:
        return IntMatrix.from_rows(entries) if entries else \
            IntMatrix.zero(ring_rows, ring_cols)
    except ValueError as exc:
        raise SpaceFileError("%s: %s" % (what, exc)) from None


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
    _check_keys(rings, moduli, "'rings'")
    sections = {label: _required(rings, label, "'rings' without 'shared'")
                for label in moduli}
    try:
        built = {label: GradedRing(_presentation(sections[label], modulus,
                                                 "rings." + label))
                 for label, modulus in moduli.items()}
    except RingError as exc:
        raise SpaceFileError(str(exc)) from None
    maps_doc = _require_dict(doc.get("maps"), "'maps'")
    _check_keys(maps_doc, [s[0] for s in MAP_SIGNATURES], "'maps'")
    maps = {}
    for name, src_key, tgt_key, shift in MAP_SIGNATURES:
        if name not in maps_doc:
            if name == "sq1":
                continue
            raise SpaceFileError("'maps' is missing %r" % name)
        src, tgt = built[src_key], built[tgt_key]
        mats = {}
        for dkey, rows in _require_dict(maps_doc[name], "maps.%s" % name).items():
            d = _int(dkey, "maps.%s degree" % name)
            td = d + shift
            if d < 0 or d > src.cutoff or td < 0 or td > tgt.cutoff:
                raise SpaceFileError("maps.%s: degree %d out of range" % (name, d))
            mats[d] = _matrix(len(tgt.basis(td)), len(src.basis(d)), rows,
                              "maps.%s[%d]" % (name, d))
        try:
            maps[name] = CoefficientMap(name, src, tgt, shift, mats)
        except RingError as exc:
            raise SpaceFileError(str(exc)) from None
    try:
        return RingSystem(built["integral"], built["mod2"], built["mod4"],
                          rho2=maps["rho2"], rho4=maps["rho4"],
                          theta2=maps["theta2"], rho24=maps["rho24"],
                          beta=maps["beta"], sq1=maps.get("sq1"))
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
    for key, terms in _require_dict(b.get("w", {}), "bundle.w").items():
        i = _int(key, "bundle.w index")
        w[i] = _element(rings.mod2, i, terms, "bundle.w[%d]" % i)
    p = {}
    for key, terms in _require_dict(b.get("p", {}), "bundle.p").items():
        k = _int(key, "bundle.p index")
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
        basis = list(rings.integral.basis_strings(degree))
        values = [0] * len(basis)
        for mon, v in _terms(pd.get("values"), "pairing.values").items():
            if mon not in basis:
                raise SpaceFileError("pairing.values names unknown monomial %s"
                                     % quote(mon))
            values[basis.index(mon)] = v
        pairing = Pairing(degree, values)
    return BundleData(rank, rings, w, p, euler, pairing=pairing,
                      base_dimension=dim)


class SpaceFile(Frozen):
    """One parsed space file: the bundle plus its expected outcomes."""

    __slots__ = ("name", "bundle", "description", "expectations", "path")

    def __init__(self, name: str, bundle: BundleData, description: str = "",
                 expectations: Mapping | None = None,
                 path: str | os.PathLike | None = None) -> None:
        set_field(self, "name", name)
        set_field(self, "bundle", bundle)
        set_field(self, "description", description)
        set_field(self, "expectations",
                  {} if expectations is None else expectations)
        set_field(self, "path", path)


def space_file_from_doc(doc, default_name: str = "",
                        path: str | os.PathLike | None = None) -> SpaceFile:
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
                     expectations=dict(expectations), path=path)


def space_file_from_text(text: str, default_name: str = "",
                         path: str | os.PathLike | None = None) -> SpaceFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpaceFileError("invalid JSON: %s" % exc) from None
    except RecursionError:
        raise SpaceFileError("invalid JSON: nested deeper than the "
                             "interpreter's recursion limit") from None
    return space_file_from_doc(doc, default_name, path)


def load_space_file(path) -> SpaceFile:
    """Read a space file, named by default after its file less the suffix."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    # pathlib's stem: "a." stays whole and "..json" gives ".", where
    # os.path.splitext would give "a" and "..json"
    name = os.path.basename(path)
    dot = name.rfind(".")
    stem = name[:dot] if 0 < dot < len(name) - 1 else name
    return space_file_from_text(text, default_name=stem, path=path)
