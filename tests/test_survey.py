"""The Chern-candidate survey on coefficient tuples, against its reference.

`survey_reference.py` keeps the survey as it was, on ring elements.  The
survey must return the same `SearchOutcome` (records with their q, status
and pairing, `enumerated`, `complete` and `no_lift_degree`) and refuse
with the same exception and message, whatever the caps.  The bundles are
sums of line bundles and tangent bundles from `bench/families.py`, the
torsion fixtures of test_obstruct.py, s1xwu, a ring whose lifts come in
two spreads, and k CP^2 # l reversed CP^2, the rank-4 family of
conftest.py, whose exit codes are pinned here too.
"""

import contextlib
import io
import json

import pytest

from acso import gradedring, obstruct
from acso.cli import main
from acso.gradedring import (
    CoefficientMap,
    DegreeError,
    Generator,
    GradedRing,
    RewriteRule,
    RingPresentation,
    RingSystem,
    TooManyLifts,
)
from acso.obstruct import (
    BudgetExceeded,
    BundleData,
    DivisibilityViolation,
    Pairing,
    survey_candidates,
)
from acso.spacefile import load_space_file, space_file_from_doc

from conftest import CORPUS_DIR, cp2_sum_doc
import survey_reference as reference
from test_obstruct import z2_in_degree_four_bundle, z4_in_degree_eight_bundle

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def two_spread_bundle():
    """Rank-4 data whose lifts of w2 come in two spreads.

    Integral ring (cutoff 4): t of order 2 and a free in degree 2, with
    t a = t^2 = 0, so that the degree-2 basis is a, t.  rho2 and rho4
    kill t, which the validated laws allow, so the parity of t is a
    kernel vector of the mod-2 system, and the lifts x a and x a + t of
    w2 = rho2(a) lie in different spreads.  p1 = a^2 and e = 0, so
    q = (1 - x^2) a^2.
    """
    integral = GradedRing(RingPresentation(0, 4, (
        Generator("t", 2, order=2), Generator("a", 2)),
        (RewriteRule((1, 1)), RewriteRule((2, 0)))))
    mod2, mod4 = (GradedRing(RingPresentation(m, 4, (Generator("z", 2),)))
                  for m in (2, 4))

    def on_a(scale):
        # the degree-2 basis is a, t
        return {0: [{0: scale}], 2: [{0: scale}, {}], 4: [{0: scale}]}

    def scaled(scale):
        return {d: [{0: scale}] for d in (0, 2, 4)}

    system = RingSystem(
        integral, mod2, mod4,
        rho2=CoefficientMap("rho2", integral, mod2, 0, on_a(1)),
        rho4=CoefficientMap("rho4", integral, mod4, 0, on_a(1)),
        theta2=CoefficientMap("theta2", mod2, mod4, 0, scaled(2)),
        rho24=CoefficientMap("rho24", mod4, mod2, 0, scaled(1)),
        beta=CoefficientMap("beta", mod2, integral, 1))
    return BundleData(rank=4, rings=system,
                      w={2: mod2.from_terms(2, {"z": 1})},
                      p={1: integral.from_terms(4, {"a^2": 1})},
                      euler=integral.zero(4), pairing=Pairing(4, (1,)),
                      base_dimension=4)


def test_two_spread_bundle_interleaves_its_spreads():
    data = two_spread_bundle()
    outcome = survey_candidates(data, 3)
    assert [r.candidate.classes[0].coeffs for r in outcome.records] == [
        (x, t) for x in (-3, -1, 1, 3) for t in (0, 1)]
    assert [c.classes[0].coeffs for c in outcome.vanishing] == [
        (-1, 0), (-1, 1), (1, 0), (1, 1)]


_CACHE: dict = {}


def _bundle(F, spec):
    """The bundle of a drawn spec, built once per spec; F is `families`."""
    data = _CACHE.get(spec)
    if data is None:
        data = _CACHE[spec] = _build(F, spec)
    return data


def _build(F, spec):
    kind, *args = spec
    if kind == "lines" or kind == "tangent":
        if kind == "lines":
            ns, vectors = args
            bundle = F.line_sum(F.cp_product(list(ns)),
                                [list(v) for v in vectors])
        else:
            bundle = F.tangent_cp_product(list(args[0]))
        return space_file_from_doc(F.space_doc("family", bundle)).bundle
    if kind == "cp2_sum":
        return space_file_from_doc(cp2_sum_doc(*args)).bundle
    if kind == "corpus":
        return load_space_file(CORPUS_DIR / ("%s.json" % args[0])).bundle
    return {"z2": lambda: z2_in_degree_four_bundle(args[0] if args else 1),
            "z4": z4_in_degree_eight_bundle,
            "two_spread": two_spread_bundle}[kind]()


_BASES = [(2,), (2, 2), (1, 1), (1, 3), (1, 1, 1)]


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(["lines", "lines", "lines", "tangent",
                                 "cp2_sum", "other"]))
    if kind == "lines":
        ns = draw(st.sampled_from(_BASES))
        rank = draw(st.sampled_from([2, 3, 4, 6]))
        vector = st.tuples(*[st.integers(-2, 2)] * len(ns))
        return ("lines", ns, tuple(draw(st.lists(vector, min_size=rank,
                                                 max_size=rank))))
    if kind == "tangent":
        return ("tangent", draw(st.sampled_from([(2,), (3,), (2, 2), (1, 3),
                                                 (6,), (1, 1, 2)])))
    if kind == "cp2_sum":
        return ("cp2_sum", draw(st.integers(1, 3)), draw(st.integers(0, 3)))
    return draw(st.sampled_from([("z2", 1), ("z2", -3), ("z2", 5), ("z4",),
                                 ("two_spread",), ("corpus", "s1xwu"),
                                 ("corpus", "hp2"), ("corpus", "s8_rank6")]))


def _outcome(survey, data, bound):
    """What a survey establishes, or the type and text of its refusal."""
    try:
        o = survey(data, bound)
    except (BudgetExceeded, TooManyLifts, DivisibilityViolation,
            DegreeError) as exc:
        return type(exc), str(exc)
    return (o.bound, o.rule, o.enumerated, o.complete, o.no_lift_degree,
            tuple((r.candidate, r.q, r.status, r.pairing) for r in o.records))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(spec=specs(), bound=st.integers(0, 4),
       caps=st.one_of(st.none(), st.tuples(st.integers(0, 60),
                                           st.integers(0, 60))))
def test_survey_matches_the_reference(families, spec, bound, caps):
    data = _bundle(families, spec)
    with pytest.MonkeyPatch.context() as mp:
        if caps is not None:
            mp.setattr(obstruct, "CANDIDATE_CAP", caps[0])
            mp.setattr(gradedring, "LIFT_CAP", caps[1])
        expected = _outcome(reference.survey_candidates, data, bound)
        assert _outcome(survey_candidates, data, bound) == expected


def test_the_reference_comparison_sees_every_kind_of_outcome(families):
    # the drawn inputs reach every refusal, a proven missing lift, and
    # outcomes with and without records
    kinds = set()
    cases = [(("corpus", "s1xwu"), 2, None), (("z4",), 3, None),
             (("tangent", (2, 2)), 3, (5, 10 ** 6)),
             (("tangent", (2, 2)), 3, (10 ** 6, 5)),
             (("tangent", (3,)), 2, None), (("cp2_sum", 1, 0), 0, None)]
    for spec, bound, caps in cases:
        with pytest.MonkeyPatch.context() as mp:
            if caps is not None:
                mp.setattr(obstruct, "CANDIDATE_CAP", caps[0])
                mp.setattr(gradedring, "LIFT_CAP", caps[1])
            data = _bundle(families, spec)
            got = _outcome(survey_candidates, data, bound)
            assert got == _outcome(reference.survey_candidates, data, bound)
        kinds.add(got[0] if isinstance(got[0], type) else
                  "no lift" if got[4] is not None else
                  "records" if got[5] else "empty")
    assert kinds == {BudgetExceeded, TooManyLifts, DegreeError, "no lift",
                     "records", "empty"}


# -- the rho4 check ------------------------------------------------------


@pytest.mark.parametrize("name", ["cp2", "lines_rank8"])
def test_a_q_not_divisible_by_four_is_refused(families, name):
    # q = 4o for consistent data, and no choice of rho4 columns into a ring
    # of exponent 4 makes rho4 of a multiple of 4 nonzero.  So the data are
    # made inconsistent after validation: adding the top class to e adds
    # 2 to a coordinate of every q, and rho4(q) = 2 there
    if name == "cp2":
        data = load_space_file(CORPUS_DIR / "cp2.json").bundle
    else:
        F = families
        bundle = F.line_sum(F.cp_product([2, 2]),
                            [(1, 0), (0, 1), (1, -1), (0, 2)])
        data = space_file_from_doc(F.space_doc(name, bundle)).bundle
    ring = data.rings.integral
    top = data.euler.degree
    data.euler = data.euler + ring.element(top, [1] + [0] * (
        len(ring.orders(top)) - 1))
    with pytest.raises(DivisibilityViolation) as expected:
        reference.survey_candidates(data, 2)
    with pytest.raises(DivisibilityViolation) as got:
        survey_candidates(data, 2)
    assert str(got.value) == str(expected.value)
    assert "is not divisible by 4 (rho4(q) = 2*" in str(got.value)


# -- k CP^2 # l reversed CP^2 --------------------------------------------


def _exit_code(doc, bound, tmp_path):
    path = tmp_path / ("%s.json" % doc["name"])
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", str(path), "--bound", str(bound)])
    return code, out.getvalue()


# (k, l) -> exit codes at bounds 0 and 3
CP2_SUM_EXITS = {
    (1, 0): (3, 0), (1, 1): (3, 0), (1, 2): (3, 0), (3, 1): (3, 0),
    (3, 3): (3, 0), (3, 5): (3, 0),
    (2, 0): (3, 2), (2, 1): (3, 3), (2, 2): (3, 3), (4, 1): (3, 3),
    (2, 5): (3, 3),
}


def test_cp2_sum_exit_codes(cp2_sums, tmp_path):
    for (k, l), codes in CP2_SUM_EXITS.items():
        got = tuple(_exit_code(cp2_sums(k, l), bound, tmp_path)[0]
                    for bound in (0, 3))
        assert got == codes, (k, l)


def test_cp2_sums_never_contradict_hirzebruch_hopf(cp2_sums, tmp_path):
    # an almost complex structure exists iff k is odd: odd k never comes
    # out obstructed (exit 2), even k never clear (exit 0)
    for k in range(1, 5):
        for l in range(4):
            for bound in (0, 1, 2, 3):
                code, _ = _exit_code(cp2_sums(k, l), bound, tmp_path)
                assert code in ((0, 1, 3) if k % 2 else (1, 2, 3)), (k, l)


def test_three_cp2_sum_three_reversed_at_bound_six(cp2_sums, tmp_path):
    code, out = _exit_code(cp2_sums(3, 3), 6, tmp_path)
    assert code == 0
    assert ("search: bound 6, 46656 enumerated, 46656 admissible, "
            "4800 vanishing") in out


# -- the elements of the records -----------------------------------------


# (spec, bound): ranks 6, 8 and 12, whose even-index classes are solved
ELEMENT_CASES = [
    (("lines", (2, 2), ((1, 0), (0, 1), (1, 1))), 5),
    (("lines", (2, 2), ((1, 1), (1, -1), (2, 1))), 4),
    (("lines", (2, 2), ((1, 0), (0, 1), (1, -1), (0, 2))), 3),
    (("tangent", (2, 2)), 3),
    (("tangent", (6,)), 6),
    (("corpus", "s8_rank6"), 3),
]


@pytest.mark.parametrize("spec, bound", ELEMENT_CASES)
def test_survey_builds_an_element_per_class_its_records_hold(
        families, monkeypatch, spec, bound):
    data = _bundle(families, spec)
    built = []

    def spy(ring, degree, coeffs):
        built.append((degree, coeffs))
        return gradedring._element(ring, degree, coeffs)

    monkeypatch.setattr(obstruct, "_element", spy)
    outcome = survey_candidates(data, bound)
    records = outcome.records
    assert records
    n = data.rank // 2
    for i in range(2, n, 2):
        held = {r.candidate.classes[i - 1].coeffs for r in records}
        made = [c for d, c in built if d == 2 * i]
        assert sorted(made) == sorted(held), i
    # one element per lift at each index, and one per value of q
    for i in range(n - 1):
        shared = {}
        for r in records:
            x = r.candidate.classes[i]
            assert shared.setdefault(x.coeffs, x) is x
    shared = {}
    for r in records:
        assert shared.setdefault(r.q.coeffs, r.q) is r.q
    top = 8 if data.rank == 6 else data.rank
    assert sum(d == top for d, _ in built) == len(shared)


def test_survey_of_a_rank_six_line_sum_builds_eighteen_elements(
        families, monkeypatch):
    # O(1,0) + O(0,1) + O(1,1) over CP^2 x CP^2 at bound 5: lift sets of
    # 25 c1 and 216 c2, but the 9 records hold 9 c1, 5 c2 and 4 values of q
    data = _bundle(families, ELEMENT_CASES[0][0])
    built = []

    def spy(ring, degree, coeffs):
        built.append(degree)
        return gradedring._element(ring, degree, coeffs)

    monkeypatch.setattr(obstruct, "_element", spy)
    assert len(survey_candidates(data, 5).records) == 9
    assert sorted(built) == [2] * 9 + [4] * 5 + [8] * 4
