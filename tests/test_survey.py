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

import collections
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
    acs_verdict,
    survey_candidates,
)
from acso.report import render_json
from acso.spacefile import load_space_file, space_file_from_doc

from conftest import CORPUS_DIR, cp2_sum_doc, replace
import survey_reference as reference
from test_report import reference_json
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


# -- the elements and texts of the records -------------------------------


# (spec, bound): ranks 6, 8 and 12, whose even-index classes are solved;
# the tangent bundle of CP^2 x CP^2 at bound 5 writes 432 records in two
# blocks, which share the lifts of c3
ELEMENT_CASES = [
    (("lines", (2, 2), ((1, 0), (0, 1), (1, 1))), 5),
    (("lines", (2, 2), ((1, 1), (1, -1), (2, 1))), 4),
    (("lines", (2, 2), ((1, 0), (0, 1), (1, -1), (0, 2))), 3),
    (("tangent", (2, 2)), 3),
    (("tangent", (6,)), 6),
    (("corpus", "s8_rank6"), 3),
    (("tangent", (2, 2)), 5),
]


def _spied_survey(monkeypatch, data, bound):
    """The survey's outcome and the (degree, coefficients) of every
    element it made."""
    built = []

    def spy(ring, degree, coeffs):
        built.append((degree, coeffs))
        return gradedring._element(ring, degree, coeffs)

    with monkeypatch.context() as mp:
        mp.setattr(obstruct, "_element", spy)
        outcome = survey_candidates(data, bound)
    return outcome, built


def _texts_per_piece(monkeypatch, data, outcome):
    """The JSON report of the outcome in pieces, each with the (level,
    index) of every class text the writer built for it, in order."""
    reads = []

    def spy(cls):
        read = cls.__getitem__

        def spied(self, index):
            reads.append((id(self), index))
            return read(self, index)

        monkeypatch.setattr(cls, "__getitem__", spied)

    spy(obstruct._Lifts)
    spy(obstruct._Classes)
    pieces = []

    def write(piece):
        pieces.append((piece, list(reads)))
        reads.clear()

    report = replace(acs_verdict(data, outcome.bound), search=outcome)
    render_json(report, "spied", write)
    monkeypatch.undo()
    return report, pieces


def _classes_held(records, positions):
    # the (level, index) of every class the records at positions hold
    held = set()
    for r in positions:
        run = records.run(r)
        held.update((id(level), column[run]) for level, column
                    in zip(records.levels, records.heads))
        held.add((id(records.levels[-1]), records.last[r]))
    return held


@pytest.mark.parametrize("spec, bound", ELEMENT_CASES)
def test_survey_builds_an_element_per_class_its_records_hold(
        families, monkeypatch, spec, bound):
    # the survey makes one element per value of q and none for a class;
    # the JSON writer builds the text of each class that the records (or
    # vanishing candidates) of a block hold once in that block
    data = _bundle(families, spec)
    outcome, built = _spied_survey(monkeypatch, data, bound)
    records = outcome.records
    assert records
    top = 8 if data.rank == 6 else data.rank
    assert sorted(built) == sorted((top, q.coeffs)
                                   for q, _, _ in records.values)
    report, pieces = _texts_per_piece(monkeypatch, data, outcome)
    assert "".join(p for p, _ in pieces) == reference_json(report, "spied")
    vanishing = records.positions("Zero")
    blocks = [range(len(records))[i:i + 256]
              for i in range(0, len(records), 256)]
    blocks += [vanishing[i:i + 256] for i in range(0, len(vanishing), 256)]
    texts = [read for _, read in pieces if read]
    assert len(texts) == len(blocks)
    for read, block in zip(texts, blocks):
        assert len(read) == len(set(read))
        assert set(read) == _classes_held(records, block)


def test_survey_of_a_rank_six_line_sum_builds_eighteen_elements(
        families, monkeypatch):
    # O(1,0) + O(0,1) + O(1,1) over CP^2 x CP^2 at bound 5: lift sets of
    # 25 c1 and 216 c2, but the 9 records hold 9 c1, 5 c2 and 4 values of
    # q.  Once an element each, these are now 4 elements of q, made by
    # the survey, and 14 class texts, built by the JSON writer in the one
    # block of records
    data = _bundle(families, ELEMENT_CASES[0][0])
    outcome, built = _spied_survey(monkeypatch, data, 5)
    assert len(outcome.records) == 9
    assert sorted(d for d, _ in built) == [8] * 4
    _, pieces = _texts_per_piece(monkeypatch, data, outcome)
    c1, c2 = map(id, outcome.records.levels)
    read = [read for _, read in pieces if read][0]
    assert sorted(level for level, _ in read) == sorted([c1] * 9 + [c2] * 5)


def test_a_report_builds_no_record(cp2_sums, tmp_path, monkeypatch, capsys):
    # 3 CP^2 # 3 reversed CP^2 at bound 3: 4,096 records and 384
    # vanishing candidates.  Neither writer builds a CandidateRecord or an
    # element of a class: both read the classes from the columns
    path = tmp_path / "cp2_sum.json"
    path.write_text(json.dumps(cp2_sums(3, 3)))
    records = []
    monkeypatch.setattr(obstruct.CandidateRecord, "__init__",
                        lambda self, *a: records.append(a))
    built = []

    def spy(ring, degree, coeffs):
        built.append(degree)
        return gradedring._element(ring, degree, coeffs)

    monkeypatch.setattr(obstruct, "_element", spy)
    for form in ("text", "json"):
        built.clear()
        assert main(["check", str(path), "--bound", "3", "--format",
                     form]) == 0
        out = capsys.readouterr().out
        assert records == []
        assert ("4096 admissible, 384 vanishing" in out if form == "text"
                else '"admissible": 4096' in out)
        assert 2 not in built


# -- the walk over the levels --------------------------------------------


def _walks_and_listings(monkeypatch, data, bound):
    """The records of a survey, and per level the calls of walk() and of
    listed() on it; listed() walks its level on its first call."""
    calls = collections.Counter()
    for name in ("walk", "listed"):
        def spied(self, method=getattr(obstruct._Lifts, name), name=name):
            calls[id(self), name] += 1
            return method(self)

        monkeypatch.setattr(obstruct._Lifts, name, spied)
    records = survey_candidates(data, bound).records
    monkeypatch.undo()
    return records, [(calls[id(level), "walk"], calls[id(level), "listed"])
                     for level in records.levels]


def test_the_first_level_is_streamed_and_later_ones_walked_once(
        families, cp2_sums, monkeypatch):
    # the first lift set is walked once and never listed, so a rank-4
    # survey holds no list of its lifts; a later one is reached once per
    # prefix but walked once, when it is first listed.  The tangent bundle
    # of CP^2 x CP^2 at bound 3 reaches c3 from 12 prefixes (c1, c2)
    records, calls = _walks_and_listings(
        monkeypatch, space_file_from_doc(cp2_sums(3, 3)).bundle, 2)
    assert len(records) == 2 ** 6 and calls == [(1, 0)]
    records, calls = _walks_and_listings(
        monkeypatch, _bundle(families, ("tangent", (2, 2))), 3)
    assert len(records) == 192
    assert [type(level) for level in records.levels] == [
        obstruct._Lifts, obstruct._Solved, obstruct._Lifts]
    assert calls == [(1, 0), (0, 0), (1, 12)]


def test_the_survey_walk_does_not_use_the_callers_stack(tmp_path, capsys):
    # rank 1400 over a ring with no generators: 699 levels of one lift
    # each, which a walk recursing once per level cannot take from a
    # caller 400 frames deep
    path = tmp_path / "r1400.json"
    path.write_text(json.dumps({
        "schema_version": 1, "name": "r1400",
        "rings": {"shared": {"cutoff": 1400, "generators": []}},
        "bundle": {"rank": 1400, "euler": {}}}))

    def deep(frames):
        return deep(frames - 1) if frames else main(["check", str(path)])

    assert deep(400) == 0
    out, err = capsys.readouterr()
    assert err == "" and "status: clear (exit 0)" in out
    assert "search: bound 10, 1 enumerated, 1 admissible, 1 vanishing" in out


# -- a solved class is tested, not listed --------------------------------


def test_a_solved_class_is_tested_without_its_lift_set(tmp_path, capsys):
    # rank 8 with every class zero over (S^4)^6: six degree-4 generators
    # x_i with x_i^2 = 0.  c2 is solved from q_1 = 0, and its one solution
    # is tested against the spreads of w4 = 0, which are never listed: 7^6
    # lifts at bound 6, and 11^6 at the default bound 10, above LIFT_CAP
    # but refused no longer.  The witness is c = (0, 0, 0), q = 0
    gens = ["x%d" % i for i in range(1, 7)]
    path = tmp_path / "s4_power_6.json"
    path.write_text(json.dumps({
        "schema_version": 1, "name": "s4_power_6",
        "rings": {"shared": {
            "cutoff": 8,
            "generators": [{"name": g, "degree": 4} for g in gens],
            "relations": [{"lhs": g + "^2", "rhs": {}} for g in gens]}},
        "bundle": {"rank": 8, "euler": {}}}))
    for bound, lifts in ((["--bound", "6"], 117649), ([], 1771561)):
        assert main(["check", str(path)] + bound) == 0
        out, err = capsys.readouterr()
        assert err == "" and "status: clear (exit 0)" in out
        assert ("search: bound %s, %d enumerated, 1 admissible, "
                "1 vanishing" % (bound[-1] if bound else 10, lifts)) in out
        assert "vanishing candidate: c1 = 0, c2 = 0, c3 = 0" in out
        assert "obstruction vanishes for 1 of 1 candidates" in out
