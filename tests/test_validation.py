"""Bundle validation on coefficient tuples, against its reference.

`validation_reference.py` keeps `BundleData._validate`,
`validate_wu_formula` and the product kernel as they were, on ring
elements and in every degree.  Validation must record the same Wu checks
and refuse with the same first message, and `validate_wu_formula` must
return the same check for every m, failing ones included.  The bundles
are those of the survey comparison (sums of line bundles and tangent
bundles from `bench/families.py`, k CP^2 # l reversed CP^2, the torsion
fixtures and three corpus files) and every corpus file, each with one
coefficient of a Pontryagin, Euler or Stiefel-Whitney class moved by
+-1, +-2 or +-4.
"""

import json

import pytest

from acso import obstruct
from acso.cli import main
from acso.obstruct import BundleData, DataValidationError, validate_wu_formula

from conftest import CORPUS_DIR
import validation_reference as reference
from test_survey import _bundle, specs

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

CORPUS = sorted(p.stem for p in CORPUS_DIR.glob("*.json"))
DELTAS = (1, -1, 2, -2, 4, -4)


class UnvalidatedBundleData(BundleData):
    """Bundle data that skips validation, so that a failing Wu check can
    be read from validate_wu_formula itself."""

    def _validate(self) -> None:
        pass


def perturbable(data):
    """(kind, index, ring, degree) of every class with a coefficient to
    move: w_i for 2 <= i <= rank, p_k for k <= rank/2 and the Euler class,
    wherever the class's degree has basis monomials."""
    rings = data.rings
    slots = [("w", i, rings.mod2, i) for i in range(2, data.rank + 1)]
    slots += [("p", k, rings.integral, 4 * k)
              for k in range(1, data.rank // 2 + 1) if 4 * k <= data.cutoff]
    slots.append(("e", None, rings.integral, data.rank))
    return [s for s in slots if s[2].basis(s[3])]


def perturbed(data, slot, position, delta):
    """The arguments of BundleData for data with coefficient `position`
    of the class in `slot` moved by delta."""
    kind, index, ring, degree = slot
    w, p, euler = dict(data.w), dict(data.p), data.euler
    old = (euler if kind == "e" else
           data.w_class(index) if kind == "w" else data.p_class(index))
    coeffs = list(old.coeffs)
    coeffs[position] += delta
    new = ring.element(degree, coeffs)
    if kind == "e":
        euler = new
    else:
        (w if kind == "w" else p)[index] = new
    return (data.rank, data.rings, w, p, euler, data.pairing,
            data.base_dimension)


def _validation(cls, args):
    """The Wu checks recorded by validation, or its refusal's message."""
    try:
        data = cls(*args)
    except DataValidationError as exc:
        return str(exc)
    return tuple((c.m, c.status, c.discrepancy, c.note)
                 for c in data.wu_checks)


def _wu_checks(wu, args):
    data = UnvalidatedBundleData(*args)
    return [(c.m, c.status, c.discrepancy, c.note)
            for c in (wu(data, m) for m in range(1, data.cutoff // 4 + 1))]


def assert_same_validation(args):
    expected = _validation(reference.ParentBundleData, args)
    assert _validation(BundleData, args) == expected
    assert (_wu_checks(validate_wu_formula, args)
            == _wu_checks(reference.validate_wu_formula, args))
    return expected


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(spec=st.one_of(specs(), st.sampled_from(
           [("corpus", name) for name in CORPUS])),
       choice=st.data())
def test_validation_matches_the_reference(families, spec, choice):
    data = _bundle(families, spec)
    slots = perturbable(data)
    slot = choice.draw(st.sampled_from(slots))
    position = choice.draw(st.integers(0, len(slot[2].basis(slot[3])) - 1))
    delta = choice.draw(st.sampled_from(DELTAS))
    assert_same_validation(perturbed(data, slot, position, delta))


def test_the_reference_comparison_sees_every_kind_of_outcome(corpus):
    # every refusal of an identity, a skipped and a failed Wu check, and
    # data that passes
    outcomes = set()
    for name in CORPUS:
        data = corpus[name].bundle
        got = assert_same_validation(perturbed(data, perturbable(data)[0],
                                               0, 0))
        outcomes.add(name if isinstance(got, str) else "accepted")
        for slot in perturbable(data):
            for delta in DELTAS:
                args = perturbed(data, slot, 0, delta)
                got = assert_same_validation(args)
                if isinstance(got, str):
                    outcomes.add(got.split(",")[0].split(":")[0])
                if any(c[1] == "failed"
                       for c in _wu_checks(validate_wu_formula, args)):
                    outcomes.add("failed check")
                if not isinstance(got, str) and any(c[1] == "skipped"
                                                    for c in got):
                    outcomes.add("skipped check")
    assert {"accepted", "rho2(e) != w4", "rho2(p1) != w2^2",
            "rho2(p2) != w4^2", "Wu's formula fails at m=1",
            "Wu's formula fails at m=2", "failed check",
            "skipped check"} <= outcomes, outcomes


# -- messages and empty degrees -------------------------------------------


@pytest.mark.parametrize("change, message", [
    ({"euler": {"a^2": "4"}}, "rho2(e) != w4, discrepancy a^2"),
    ({"p": {"1": {"a^2": "4"}}}, "rho2(p1) != w2^2, discrepancy a^2"),
    # 5 = 3 mod 2, so rho2(p1) = w2^2 still holds, but not mod 4
    ({"p": {"1": {"a^2": "5"}}},
     "Wu's formula fails at m=1: discrepancy 2*a^2"),
])
def test_each_identity_refuses_through_acso_check(tmp_path, capsys, change,
                                                  message):
    doc = json.loads((CORPUS_DIR / "cp2.json").read_text())
    doc["bundle"].update(change)
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(doc))
    for fmt in ("text", "json"):
        assert main(["check", "--format", fmt, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: %s\n" % message


def test_s1xwu_checks_its_empty_degrees_without_products(corpus,
                                                         monkeypatch):
    # w2 = z2 has no integral lift, and the mod-4 ring of s1xwu has no
    # basis monomials in degrees 8 and 12, where the checks for m = 2 and
    # 3 hold vacuously: w4 and w6 are 0, so they lift, and no product
    # into those degrees is asked for
    data = corpus["s1xwu"].bundle
    assert data.cutoff == 12
    assert data.rings.mod4.basis(8) == data.rings.mod4.basis(12) == ()
    asked = []
    product = obstruct.product

    def spy(ring, d1, a, d2, b):
        asked.append(d1 + d2)
        return product(ring, d1, a, d2, b)

    monkeypatch.setattr(obstruct, "product", spy)
    checks = BundleData(data.rank, data.rings, data.w, data.p, data.euler,
                        data.pairing, data.base_dimension).wu_checks
    assert [(c.m, c.status, c.discrepancy, c.note) for c in checks] == [
        (1, "skipped", None, "w2 has no integral lift"),
        (2, "ok", None, ""),
        (3, "ok", None, "")]
    assert not {8, 12} & set(asked), asked
