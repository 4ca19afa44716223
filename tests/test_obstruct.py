"""Obstruction layer: torsion classes, divisibility criteria, the pipeline."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from acso.gradedring import (
    CoefficientMap,
    DegreeError,
    Generator,
    GradedRing,
    RewriteRule,
    RingPresentation,
    RingSystem,
    TableTooLarge,
    any_integral_lift,
    divide_by,
    integral_lifts,
    quotients,
)
from acso import obstruct
from acso.intlin import AbelianGroupDescriptor, IntMatrix
from acso.spacefile import load_space_file, space_file_from_doc
from acso.obstruct import (
    BudgetExceeded,
    BundleData,
    ChernCandidate,
    DataValidationError,
    NoSolution,
    Pairing,
    Verdict,
    acs_verdict,
    canonical_witness,
    chern_square_sum,
    construct_w4m_lift,
    first_obstruction,
    homotopy_group,
    integral_sw,
    obstruction_denominator,
    survey_candidates,
    theorem1_obstruction,
    theorem2_class,
    validate_candidate,
)

from conftest import CORPUS_DIR, DATA_DIR
import verdict_reference as reference


def torsion_top_system(cutoff=12, degree=11):
    """Ring system whose only content is one order-2 class in `degree`."""
    integral = GradedRing(RingPresentation(
        modulus=0, cutoff=cutoff,
        generators=(Generator("tau", degree, order=2),), rules=()))
    mod2 = GradedRing(RingPresentation(
        modulus=2, cutoff=cutoff,
        generators=(Generator("taub", degree),), rules=()))
    mod4 = GradedRing(RingPresentation(
        modulus=4, cutoff=cutoff,
        generators=(Generator("tau4", degree, order=2),), rules=()))
    one = [{0: 1}]
    return RingSystem(
        integral, mod2, mod4,
        rho2=CoefficientMap("rho2", integral, mod2, 0, {0: one, degree: one}),
        rho4=CoefficientMap("rho4", integral, mod4, 0, {0: one, degree: one}),
        theta2=CoefficientMap("theta2", mod2, mod4, 0, {0: [{0: 2}]}),
        rho24=CoefficientMap("rho24", mod4, mod2, 0, {0: one, degree: one}),
        beta=CoefficientMap("beta", mod2, integral, 1, {}))


@pytest.fixture(scope="module")
def torsion_bundle():
    sys = torsion_top_system()
    return BundleData(rank=12, rings=sys, w={}, p={},
                      euler=sys.integral.zero(12), base_dimension=11)


@pytest.fixture(scope="module")
def two_sphere_six_sphere():
    # rank-6 data over a product of a 2-sphere and a 6-sphere
    pres = RingPresentation(
        modulus=0, cutoff=8,
        generators=(Generator("a", 2), Generator("v", 6)),
        rules=(RewriteRule((2, 0), ()), RewriteRule((0, 2), ())))
    sys = RingSystem.with_reduction_defaults(pres)
    e = sys.integral.from_terms(6, {"v": 2})
    return BundleData(rank=6, rings=sys, w={}, p={}, euler=e,
                      pairing=Pairing(8, (1,)), base_dimension=8)


def z2_in_degree_four_bundle(p1):
    """Rank-6 data whose degree-4 piece is Z + Z/2, so that c2 is solved
    from 2 c2 = y with two solutions, of which only the one with rho2 = w4
    is a lift.

    Integral ring: a in degree 2, t of order 2 in degree 4, a^5 = at =
    t^2 = 0; w2 = a, w4 = t, p1 = p1 * a^2 with p1 = 1 mod 4 (Wu's formula
    at m = 1), and e = p2 = 0.
    """
    def ring(modulus, t_order):
        return GradedRing(RingPresentation(
            modulus=modulus, cutoff=8,
            generators=(Generator("a", 2), Generator("t", 4, order=t_order)),
            rules=(RewriteRule((5, 0), ()), RewriteRule((1, 1), ()),
                   RewriteRule((0, 2), ()))))

    integral, mod2, mod4 = ring(0, 2), ring(2, 0), ring(4, 2)
    sys = RingSystem(
        integral, mod2, mod4,
        rho2=CoefficientMap.scaled_identity("rho2", integral, mod2),
        rho4=CoefficientMap.scaled_identity("rho4", integral, mod4),
        theta2=CoefficientMap.scaled_identity("theta2", mod2, mod4, 2),
        rho24=CoefficientMap.scaled_identity("rho24", mod4, mod2),
        beta=CoefficientMap("beta", mod2, integral, 1))
    return BundleData(
        rank=6, rings=sys,
        w={2: sys.mod2.from_terms(2, {"a": 1}),
           4: sys.mod2.from_terms(4, {"t": 1})},
        p={1: sys.integral.from_terms(4, {"a^2": p1})},
        euler=sys.integral.zero(6), pairing=Pairing(8, (1,)),
        base_dimension=8)


def z4_in_degree_eight_bundle():
    """Rank-8 data whose degree-8 piece is Z/4 + Z, so that the top class
    q = q0 - 2 c1 c3 has a torsion coordinate that 2 does not kill.

    Integral ring (cutoff 8): a in degree 2, s in degree 6 and t of order
    4 in degree 8, with a*s = t; the degree-8 basis is t, a^4.  w2 = a,
    w4 = 0, w6 = s, p1 = -3a^2, p2 = 2t - 2a^4 and e = -a^4, so every c1
    is an odd multiple of a (two or more lifts from bound 1 on) and every
    c3 has an odd s-coefficient, which makes c1 c3 an odd multiple of t.
    """
    def ring(modulus):
        return GradedRing(RingPresentation(
            modulus=modulus, cutoff=8,
            generators=(Generator("a", 2), Generator("s", 6),
                        Generator("t", 8, order=4)),
            rules=(RewriteRule((1, 1, 0), ((1, (0, 0, 1)),)),)))

    integral, mod2, mod4 = ring(0), ring(2), ring(4)
    sys = RingSystem(
        integral, mod2, mod4,
        rho2=CoefficientMap.scaled_identity("rho2", integral, mod2),
        rho4=CoefficientMap.scaled_identity("rho4", integral, mod4),
        theta2=CoefficientMap.scaled_identity("theta2", mod2, mod4, 2),
        rho24=CoefficientMap.scaled_identity("rho24", mod4, mod2),
        beta=CoefficientMap("beta", mod2, integral, 1))
    euler = sys.integral.from_terms(8, {"a^4": -1})
    return BundleData(
        rank=8, rings=sys,
        w={2: sys.mod2.from_terms(2, {"a": 1}),
           6: sys.mod2.from_terms(6, {"s": 1}),
           8: sys.rho2(euler)},
        p={1: sys.integral.from_terms(4, {"a^2": -3}),
           2: sys.integral.from_terms(8, {"t": 2, "a^4": -2})},
        euler=euler, pairing=Pairing(8, (0, 1)), base_dimension=8)


# -- torsion classes ----------------------------------------------------------


def test_first_obstruction_values(cp2, s1xwu):
    clear = first_obstruction(cp2)
    assert clear.status == "Zero"
    assert clear.denominator == 1
    hit = first_obstruction(s1xwu)
    assert hit.status == "NonZero"
    assert hit.witness == s1xwu.rings.integral.from_terms(3, {"c": 1})


def test_integral_sw_is_bockstein(s1xwu):
    w3 = integral_sw(s1xwu, 1)
    assert w3 == s1xwu.rings.beta(s1xwu.w_class(2))
    assert (2 * w3).is_zero
    with pytest.raises(ValueError):
        integral_sw(s1xwu, -1)
    with pytest.raises(DegreeError):
        integral_sw(s1xwu, 6)  # degree 13 above the cutoff


def test_two_torsion_for_all_corpus_classes(corpus):
    for space in corpus.values():
        data = space.bundle
        for i in range((data.cutoff - 1) // 2 + 1):
            assert (2 * integral_sw(data, i)).is_zero


def test_obstruction_denominators():
    assert [obstruction_denominator(k) for k in (1, 2, 3)] == [1, 24, 360]
    assert obstruction_denominator(4) == math.factorial(8)
    assert obstruction_denominator(5) == math.factorial(10) // 2
    with pytest.raises(ValueError):
        obstruction_denominator(0)


def test_theorem1_zero_in_empty_degree(hp2):
    v = theorem1_obstruction(hp2, 1)
    assert v.status == "Zero"
    assert v.denominator == 1


def test_theorem1_requires_room(cp2, hp2):
    with pytest.raises(ValueError):
        theorem1_obstruction(cp2, 1)  # 4k+3 = 7 is not below rank 4
    with pytest.raises(ValueError):
        theorem1_obstruction(hp2, 2)  # 11 is not below rank 8


def test_theorem1_torsion_is_inconclusive(torsion_bundle):
    v = theorem1_obstruction(torsion_bundle, 2)
    assert v.status == "Inconclusive"
    assert v.denominator == 24
    assert "24" in v.note
    # k=1 has denominator 1, so an empty degree-7 piece settles it
    assert theorem1_obstruction(torsion_bundle, 1).status == "Zero"


# -- divisibility criteria ------------------------------------------------------


def test_theorem2_class_values(cp2):
    a = cp2.rings.integral.from_terms(2, {"a": 1})
    q, sols = theorem2_class(cp2, ChernCandidate((3 * a,)))
    assert q.is_zero
    assert sols == (cp2.rings.integral.zero(4),)
    q, sols = theorem2_class(cp2, ChernCandidate((a,)))
    assert q == cp2.rings.integral.from_terms(4, {"a^2": 8})
    assert sols == (cp2.rings.integral.from_terms(4, {"a^2": 2}),)


def test_theorem2_rank_check(corpus):
    s6 = corpus["s6"].bundle
    with pytest.raises(ValueError):
        theorem2_class(s6, ChernCandidate((s6.rings.integral.zero(2),
                                           s6.rings.integral.zero(4))))


def test_validate_candidate(cp2):
    ring = cp2.rings.integral
    with pytest.raises(DataValidationError):
        validate_candidate(cp2, ChernCandidate((2 * ring.from_terms(2, {"a": 1}),)))
    with pytest.raises(DataValidationError):
        validate_candidate(cp2, ChernCandidate((ring.from_terms(4, {"a^2": 1}),)))
    with pytest.raises(DataValidationError):
        validate_candidate(cp2, ChernCandidate(()))
    validate_candidate(cp2, ChernCandidate((ring.from_terms(2, {"a": -3}),)))


def survey_verdict(data, bound, *classes):
    """The reference verdict of the survey's record at `bound` of the
    candidate c1, c2, ..."""
    outcome = survey_candidates(data, bound)
    for rec in outcome.records:
        if rec.candidate.classes == classes:
            return reference.record_verdict(data, outcome.rule, rec)
    raise AssertionError("no candidate %s within bound %d"
                         % (", ".join(map(str, classes)), bound))


def test_wu_dim4_values(cp2, corpus):
    ring = cp2.rings.integral
    a = ring.from_terms(2, {"a": 1})
    assert survey_verdict(cp2, 3, 3 * a).status == "Zero"
    hit = survey_verdict(cp2, 3, a)
    assert hit.status == "NonZero"
    assert hit.witness == ring.from_terms(4, {"a^2": 2})
    s4 = corpus["s4"].bundle
    sphere = survey_verdict(s4, 0, s4.rings.integral.zero(2))
    assert sphere.status == "NonZero"
    assert "pairs to 4" in sphere.note
    assert sphere.witness == s4.rings.integral.from_terms(4, {"s": 1})


def test_rank6_criterion_values(corpus, two_sphere_six_sphere):
    over_s8 = corpus["s8_rank6"].bundle
    v = survey_verdict(over_s8, 0, over_s8.rings.integral.zero(2),
                       over_s8.rings.integral.zero(4))
    assert v.status == "NonZero"
    assert "pairs to -4" in v.note
    # witness is only defined up to sign; the canonical pick is positive
    assert v.witness == over_s8.rings.integral.from_terms(8, {"s8": 1})

    prod = two_sphere_six_sphere
    assert survey_verdict(prod, 0, prod.rings.integral.zero(2),
                          prod.rings.integral.zero(4)).status == "Zero"

    s6 = corpus["s6"].bundle
    assert survey_verdict(s6, 0, s6.rings.integral.zero(2),
                          s6.rings.integral.zero(4)).status == "Zero"


def test_rank6_nonzero_euler_pairing_term(two_sphere_six_sphere):
    prod = two_sphere_six_sphere
    ring = prod.rings.integral
    # c1 = 2a makes the cross term -2 c1 e = -8 a*v survive
    v = survey_verdict(prod, 2, ring.from_terms(2, {"a": 2}), ring.zero(4))
    assert v.status == "NonZero"
    assert "pairs to -8" in v.note


def test_canonical_witness_sign(cp2):
    ring = cp2.rings.integral
    x = ring.from_terms(4, {"a^2": -2})
    assert canonical_witness(x) == -x
    assert canonical_witness(-x) == -x
    assert canonical_witness(ring.zero(4)) == ring.zero(4)


def test_witness_is_the_first_quarter():
    # a report prints the first solution of 4x = q in divide_by's order, or
    # q itself when there is none; here 4x = 4y has the solutions y and
    # y + tau, and 4x = 2y has none
    ring = GradedRing(RingPresentation(
        modulus=0, cutoff=2,
        generators=(Generator("y", 2), Generator("tau", 2, order=2)),
        rules=()))
    y, tau = ring.from_terms(2, {"y": 1}), ring.from_terms(2, {"tau": 1})
    assert divide_by(4, 4 * y) == (y, y + tau)
    assert obstruct._witness(4 * y) == canonical_witness(y)
    assert obstruct._witness(-4 * y) == canonical_witness(-y) == y
    assert divide_by(4, 2 * y) == ()
    assert obstruct._witness(2 * y) == canonical_witness(2 * y)


def test_verdict_validation(cp2):
    with pytest.raises(ValueError):
        Verdict("Maybe")
    with pytest.raises(ValueError):
        Verdict("NonZero", witness=cp2.rings.integral.zero(4))


# -- candidate searches ------------------------------------------------------------


def test_survey_on_complex_projective_plane(cp2):
    outcome = survey_candidates(cp2, bound=10)
    assert outcome.enumerated == 10
    assert outcome.admissible == 10
    assert not outcome.complete  # a free lift family is never exhausted
    assert outcome.no_lift_degree is None
    coeffs = [rec.candidate.classes[0].coeffs[0] for rec in outcome.records]
    assert coeffs == [-9, -7, -5, -3, -1, 1, 3, 5, 7, 9]
    vanishing = [c.classes[0].coeffs[0] for c in outcome.vanishing]
    assert vanishing == [-3, 3]
    pairings = {rec.candidate.classes[0].coeffs[0]: rec.pairing
                for rec in outcome.records}
    for c, value in pairings.items():
        assert value == 9 - c * c  # <2e - c1^2 + p1, fundamental class>


def test_survey_reversed_orientation_never_vanishes(cp2bar):
    outcome = survey_candidates(cp2bar, bound=10)
    assert outcome.vanishing == ()
    for rec in outcome.records:
        assert rec.status == "NonZero"
        c = rec.candidate.classes[0].coeffs[0]
        assert rec.pairing == 3 + c * c


def test_survey_forces_quaternionic_candidate(hp2):
    outcome = survey_candidates(hp2, bound=10)
    assert outcome.enumerated == 10
    assert outcome.admissible == 1
    [rec] = outcome.records
    u = hp2.rings.integral.from_terms(4, {"u": 1})
    assert rec.candidate.classes[1] == -u
    assert rec.status == "Zero"
    assert rec.pairing == 0
    assert outcome.vanishing == (rec.candidate,)


def test_survey_stops_at_missing_lift(s1xwu):
    outcome = survey_candidates(s1xwu, bound=3)
    assert outcome.no_lift_degree == 2
    assert outcome.records == ()
    assert outcome.complete  # a proven missing lift settles the search


def test_survey_budget(cp2, monkeypatch):
    monkeypatch.setattr(obstruct, "CANDIDATE_CAP", 5)
    with pytest.raises(BudgetExceeded, match="exceeded the cap 5"):
        survey_candidates(cp2, bound=10)


def test_survey_records_match_public_criteria(corpus, two_sphere_six_sphere):
    # the survey skips candidate validation; the public functions do not.
    # test_survey_matches_full_product_reference compares the verdicts
    cases = [sf.bundle for sf in corpus.values()] + [two_sphere_six_sphere]
    checked = 0
    for data in cases:
        for rec in survey_candidates(data, bound=3).records:
            validate_candidate(data, rec.candidate)
            if data.rank % 4 == 0:
                q, _ = theorem2_class(data, rec.candidate)
                assert q == rec.q
            checked += 1
    assert checked >= 10


def full_product_survey(data, bound):
    """The survey as a plain enumeration, kept as the reference.

    Every element of the product of the lift sets is built, and the
    intermediate identities are checked on whole candidates through the
    naive (2j+1)-term sum.  Returns what `SearchOutcome` reports.
    """
    k_final, rule = obstruct._final_criterion(data.rank)
    lift_sets = []
    for i in range(1, data.rank // 2):
        found = integral_lifts(data.rings, data.w_class(2 * i), bound)
        if found.no_lift_proven:
            return (), 0, True, 2 * i
        lift_sets.append(found.lifts)
    complete = all(o != 0 for i in range(1, data.rank // 2)
                   for o in data.rings.integral.orders(2 * i))
    records = []
    for combo in itertools.product(*lift_sets):
        cand = ChernCandidate(combo)
        if any(not naive_chern_square_sum(data, cand, j).is_zero
               for j in range(1, k_final)):
            continue
        q = naive_chern_square_sum(data, cand, k_final)
        paired = data.pair(q)
        verdict = reference._divisibility_verdict(data, q, rule, paired)
        records.append((cand, q, verdict.status, paired))
    return (tuple(records), math.prod(len(lifts) for lifts in lift_sets),
            complete, None)


def test_survey_matches_full_product_reference(corpus, two_sphere_six_sphere,
                                                families):
    F = families
    base = F.cp_product([2, 2])
    generated = [F.tangent_cp_product(ns) for ns in ([6], [2, 2], [1, 3])]
    generated += [F.line_sum(base, vectors) for vectors in (
        [(1, 0), (0, 1), (1, 1)],
        [(1, 1), (1, -1), (2, 1)],
        [(1, 0), (0, 1), (1, -1), (0, 2)])]
    cases = [sf.bundle for sf in corpus.values()] + [
        two_sphere_six_sphere,
        z2_in_degree_four_bundle(1), z2_in_degree_four_bundle(-3),
        z4_in_degree_eight_bundle()]
    cases += [space_file_from_doc(F.space_doc("family", b)).bundle
              for b in generated]
    solved = 0
    for data in cases:
        for bound in range(4):
            outcome = survey_candidates(data, bound)
            records = tuple((r.candidate, r.q, r.status, r.pairing)
                            for r in outcome.records)
            assert (records, outcome.enumerated, outcome.complete,
                    outcome.no_lift_degree) == full_product_survey(data, bound)
            solved += data.rank >= 6 and bool(records)
    assert solved >= 20


def test_survey_of_torsion_in_the_top_degree():
    # two values of c1 come with twelve lifts c3 each, and c1 c3 is an odd
    # multiple of the order-4 class t, so the per-prefix q = q0 - 2 c1 c3
    # must keep 2t in the t-coordinate before rho4(q) = 0 is checked
    data = z4_in_degree_eight_bundle()
    outcome = survey_candidates(data, 3)
    c1s = {r.candidate.classes[0].coeffs for r in outcome.records}
    assert c1s == {(-1,), (1,)} and len(outcome.records) == 24
    for r in outcome.records:
        c1, c2, c3 = r.candidate.classes
        assert (c1 * c3).coeffs[0] % 2 == 1
        assert (2 * (c1 * c3)).coeffs[0] == 2
        assert r.q == chern_square_sum(data, r.candidate, 2)
        assert r.q.coeffs[0] == 0
    statuses = {r.status for r in outcome.records}
    assert statuses == {"NonZero", "Inconclusive"}


def test_survey_solves_torsion_even_classes():
    # 2 c2 = (x^2 - p1) a^2 has two solutions, t-coordinate 0 and 1; only
    # the second lifts w4 = t, and c2 = (x^2 - p1)/2 a^2 must lie in the bound
    for p1, bound, c2_a2 in ((1, 1, 0), (-3, 2, 2), (-3, 1, None)):
        data = z2_in_degree_four_bundle(p1)
        ring = data.rings.integral
        expected = [] if c2_a2 is None else [
            (ring.from_terms(2, {"a": x}),
             ring.from_terms(4, {"t": 1, "a^2": c2_a2}))
            for x in (-1, 1)]
        outcome = survey_candidates(data, bound)
        assert [r.candidate.classes for r in outcome.records] == expected


def test_candidate_sign_flip_preserves_verdict(cp2, hp2):
    for data in (cp2, hp2):
        records = survey_candidates(data, bound=6).records
        status = {rec.candidate.classes: rec.status for rec in records}
        for rec in records:
            flipped = ChernCandidate(tuple(-c for c in rec.candidate.classes))
            validate_candidate(data, flipped)
            q0, _ = theorem2_class(data, rec.candidate)
            q1, _ = theorem2_class(data, flipped)
            assert q0.is_zero == q1.is_zero
            if data.rank == 4:
                # -c1 lies within the bound with c1, so it has a record
                assert status[flipped.classes] == rec.status


def z3_in_degree_two_bundle():
    """Rank-4 data whose degree-2 piece is Z/3, so that the survey is
    complete and every candidate is NonZero, with witnesses that differ.

    Integral ring (cutoff 4): t of order 3 in degree 2 and s in degree 4,
    so the degree-4 basis is s, t^2 with t^2 of order 3; the mod-2 and
    mod-4 rings hold s alone.  w = 0, e = 0 and p1 = -4s.  The lifts of
    w2 are c1 = 0, t, 2t, whose q = -4s - c1^2 gives the witnesses s,
    s + t^2 and s + t^2 once 4x = q is solved and the sign fixed.
    """
    integral = GradedRing(RingPresentation(0, 4, (
        Generator("t", 2, order=3), Generator("s", 4))))
    mod2, mod4 = (GradedRing(RingPresentation(m, 4, (Generator("s", 4),)))
                  for m in (2, 4))

    def on_s(scale):
        return {0: [{0: 1}], 4: [{0: scale}, {}]}

    sys = RingSystem(
        integral, mod2, mod4,
        rho2=CoefficientMap("rho2", integral, mod2, 0, on_s(1)),
        rho4=CoefficientMap("rho4", integral, mod4, 0, on_s(1)),
        theta2=CoefficientMap("theta2", mod2, mod4, 0,
                              {0: [{0: 2}], 4: [{0: 2}]}),
        rho24=CoefficientMap("rho24", mod4, mod2, 0,
                             {0: [{0: 1}], 4: [{0: 1}]}),
        beta=CoefficientMap("beta", mod2, integral, 1))
    return BundleData(rank=4, rings=sys, w={},
                      p={1: integral.from_terms(4, {"s": -4})},
                      euler=integral.zero(4), base_dimension=4)


def reference_cases(corpus, families):
    """Bundles whose records are checked against the verdict reference:
    the corpus, thm1_w7, generated bundles of rank 4, 6, 8 and 12, and
    the torsion bundles of this module."""
    F = families
    generated = [F.tangent_cp_product(ns) for ns in ([2], [2, 2], [6])]
    generated += [F.line_sum(F.cp_product([2, 2]), vectors) for vectors in (
        [(1, 0), (1, 1)], [(1, 1), (1, -1), (2, 1)],
        [(1, 0), (0, 1), (1, -1), (0, 2)])]
    return ([sf.bundle for sf in corpus.values()]
            + [load_space_file(DATA_DIR / "thm1_w7.json").bundle]
            + [space_file_from_doc(F.space_doc("family", b)).bundle
               for b in generated]
            + [z2_in_degree_four_bundle(1), z4_in_degree_eight_bundle(),
               z3_in_degree_two_bundle()])


def test_record_statuses_and_witness_match_the_verdict_reference(
        corpus, families):
    ranks = set()
    printed = 0
    for data in reference_cases(corpus, families):
        ranks.add(data.rank)
        for bound in range(4):
            outcome = survey_candidates(data, bound)
            for r in outcome.records:
                expected = reference.record_verdict(data, outcome.rule, r)
                assert r.status == expected.status
            final = obstruct._aggregate_final(data, outcome)
            if final.status == "NonZero" and outcome.records:
                first = reference.record_verdict(data, outcome.rule,
                                                 outcome.records[0])
                assert final.witness == first.witness
                printed += 1
    assert {4, 6, 8, 12} <= ranks
    assert printed >= 16


def test_final_witness_comes_from_the_first_record():
    data = z3_in_degree_two_bundle()
    ring = data.rings.integral
    outcome = survey_candidates(data, 0)
    assert outcome.complete
    assert [r.candidate.classes[0].coeffs for r in outcome.records] == \
        [(0,), (1,), (2,)]
    assert [r.status for r in outcome.records] == ["NonZero"] * 3
    witnesses = [reference.record_verdict(data, outcome.rule, r).witness
                 for r in outcome.records]
    s, st2 = ring.from_terms(4, {"s": 1}), ring.from_terms(4, {"s": 1,
                                                              "t^2": 1})
    assert witnesses == [s, st2, st2]
    final = acs_verdict(data, 0).final
    assert (final.status, final.witness) == ("NonZero", s)


def test_survey_without_a_candidate_below_the_cutoff(families):
    # rank 6 over CP^3: q would lie in degree 8, above the cutoff 6, and at
    # bound 0 no candidate gets there, so there is no status of q = 0 to read
    doc = families.space_doc("t_cp3", families.tangent_cp_product([3]))
    data = space_file_from_doc(doc).bundle
    outcome = survey_candidates(data, 0)
    assert (data.cutoff, outcome.enumerated, outcome.records) == (6, 1, ())


def test_survey_builds_no_verdict_and_never_divides_by_four(
        corpus, families, monkeypatch):
    built, divisors = [], []

    def counting_verdict(*args, **kwargs):
        built.append(args)
        return Verdict(*args, **kwargs)

    def counting_divide_by(n, y):
        divisors.append(n)
        return divide_by(n, y)

    def counting_quotients(n, coeffs, orders):
        # the survey solves 2x = y on coefficients, without elements
        divisors.append(n)
        return quotients(n, coeffs, orders)

    monkeypatch.setattr(obstruct, "Verdict", counting_verdict)
    monkeypatch.setattr(obstruct, "divide_by", counting_divide_by)
    monkeypatch.setattr(obstruct, "quotients", counting_quotients)
    records = 0
    for data in reference_cases(corpus, families):
        records += len(survey_candidates(data, 3).records)
    assert records >= 100
    assert built == [] and 4 not in divisors
    assert 2 in divisors  # the even-index classes are still solved
    # the one witness a report prints is made once
    divisors.clear()
    final = acs_verdict(corpus["cp2bar"].bundle, 3).final
    assert final.status == "NonZero"
    assert divisors.count(4) == 1 and len(built) == 2


def naive_chern_square_sum(data, cand, j):
    # the (2j+1)-term alternating sum exactly as Massey writes it
    q = data.rings.integral.zero(4 * j)
    for i in range(2 * j + 1):
        term = cand.chern(data, i) * cand.chern(data, 2 * j - i)
        q = q + term if i % 2 == 0 else q - term
    pj = data.p_class(j)
    return q - pj if j % 2 == 0 else q + pj


def test_chern_square_sum_matches_naive_sum(cp2, hp2, two_sphere_six_sphere):
    rng = random.Random(31)
    for data in (cp2, hp2, two_sphere_six_sphere):
        ring = data.rings.integral
        k = 2 if data.rank == 6 else data.rank // 4
        cands = [r.candidate for r in survey_candidates(data, bound=4).records]
        assert cands
        for _ in range(20):
            cands.append(ChernCandidate(tuple(
                ring.element(2 * i, [rng.randint(-5, 5)
                                     for _ in ring.basis(2 * i)])
                for i in range(1, data.rank // 2))))
        for cand in cands:
            for j in range(1, k + 1):
                assert chern_square_sum(data, cand, j) == \
                    naive_chern_square_sum(data, cand, j)


def test_lift_perturbation_changes_q_by_multiples_of_four(cp2, hp2):
    rng = random.Random(4242)
    for data in (cp2, hp2):
        base = survey_candidates(data, bound=6).records
        for rec in base:
            q0, _ = theorem2_class(data, rec.candidate)
            for _ in range(10):
                classes = []
                for c in rec.candidate.classes:
                    piece = data.rings.integral.basis(c.degree)
                    shift = [2 * rng.randint(-3, 3) for _ in piece]
                    classes.append(c + data.rings.integral.element(c.degree, shift))
                q1, _ = theorem2_class(data, ChernCandidate(tuple(classes)))
                assert divide_by(4, q1 - q0), "delta q must be divisible by 4"


def form_bundle(alpha, beta, s, t):
    """Rank-4 data over H^2 = Z{a, b}, H^4 = Z{ab}: a^2 = alpha ab,
    b^2 = beta ab and <ab> = s, so <c1^2> = s (alpha x^2 + 2xy + beta y^2)
    for c1 = xa + yb.  w2 = 0, e = 0 and p1 = s t ab, so <p1 + 2e> = t,
    which Wu's formula makes a multiple of 4."""
    pres = RingPresentation(
        modulus=0, cutoff=4,
        generators=(Generator("a", 2), Generator("b", 2)),
        rules=(RewriteRule((2, 0), ((alpha, (1, 1)),)),
               RewriteRule((0, 2), ((beta, (1, 1)),))))
    sys = RingSystem.with_reduction_defaults(pres)
    return BundleData(rank=4, rings=sys, w={},
                      p={1: sys.integral.from_terms(4, {"a*b": s * t})},
                      euler=sys.integral.zero(4), pairing=Pairing(4, (s,)),
                      base_dimension=4)


def test_definite_form_certificate_bounds_every_solution():
    forms = {(2, 2, 1): True, (1, 3, 1): True, (2, 2, -1): True,
             (3, 1, -1): True, (0, 0, 1): False, (1, 1, 1): False}
    for (alpha, beta, s), definite in forms.items():
        for t in (-8, -4, 0, 4, 8, 12, 20):
            data = form_bundle(alpha, beta, s, t)
            solutions = [(x, y) for x in range(-15, 16) for y in range(-15, 16)
                         if s * (alpha * x * x + 2 * x * y + beta * y * y) == t]
            holds = [obstruct._definite_form_certificate(data, bound) is not None
                     for bound in range(7)]
            assert holds[-1] == definite
            for bound, held in enumerate(holds):
                if held:
                    assert all(max(abs(x), abs(y)) <= bound
                               for x, y in solutions)
                    assert all(holds[bound:])


def gram_bundle(Q, t):
    """Rank-4 data over H^2 = Z{a0, ..., a(m-1)}, H^4 = Z{u} with
    a_i a_j = Q_ij u and <u> = 1, so <c1^2> is the form Q.  w2 = 0, e = 0
    and p1 = t u, so <p1 + 2e> = t (a multiple of 4 by Wu's formula)."""
    m = len(Q)
    names = ["a%d" % i for i in range(m)]
    gens = tuple(Generator(n, 2) for n in names) + (Generator("u", 4),)
    rules = []
    for i in range(m):
        for j in range(i, m):
            lhs = [0] * (m + 1)
            lhs[i] += 1
            lhs[j] += 1
            rhs = ((Q[i][j], (0,) * m + (1,)),) if Q[i][j] else ()
            rules.append(RewriteRule(tuple(lhs), rhs))
    sys = RingSystem.with_reduction_defaults(
        RingPresentation(modulus=0, cutoff=4, generators=gens,
                         rules=tuple(rules)))
    return BundleData(rank=4, rings=sys, w={},
                      p={1: sys.integral.from_terms(4, {"u": t})},
                      euler=sys.integral.zero(4), pairing=Pairing(4, (1,)),
                      base_dimension=4)


def fraction_radius(Q, t, sign):
    """The radius as _definite_form_certificate computed it with Fraction:
    max over i of isqrt(floor(sign t (sign Q)^-1_ii))."""
    m = len(Q)

    def det(keep):
        return IntMatrix.from_rows([[sign * Q[i][j] for j in keep]
                                    for i in keep]).determinant()

    full = det(range(m))
    return max(math.isqrt(math.floor(
        sign * t * Fraction(det([j for j in range(m) if j != i]), full)))
        for i in range(m))


def test_certificate_radius_matches_the_fraction_formula():
    # random definite forms B^T B (signs flipped half the time) of size 1
    # to 3; the radius is now one integer floor division
    rng = random.Random(41)
    tested = 0
    while tested < 60:
        m = rng.randint(1, 3)
        B = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        if IntMatrix.from_rows(B).determinant() == 0:
            continue
        sign = rng.choice((1, -1))
        Q = [[sign * sum(B[k][i] * B[k][j] for k in range(m))
              for j in range(m)] for i in range(m)]
        t = sign * 4 * rng.randint(0, 40)
        note = obstruct._definite_form_certificate(gram_bundle(Q, t), 10 ** 6)
        radius = fraction_radius(Q, t, sign)
        assert note.endswith("vanishing c1 by %d" % radius), (Q, t, note)
        kind = "positive" if sign > 0 else "negative"
        assert note.startswith("<c1^2> is %s definite" % kind)
        data = gram_bundle(Q, t)
        assert obstruct._definite_form_certificate(data, radius) is not None
        if radius:
            assert obstruct._definite_form_certificate(data,
                                                       radius - 1) is None
        tested += 1


def test_bounded_search_claims_nothing_without_a_certificate(cp2):
    # rank 4 over CP^2 with w2 = a, p1 = 3a^2, e = a^2: Wu's formula holds,
    # but a vanishing c1 would need c1^2 = p1 + 2e = 5a^2, so none exists
    ring = cp2.rings.integral
    data = BundleData(rank=4, rings=cp2.rings, w=dict(cp2.w),
                      p={1: ring.from_terms(4, {"a^2": 3})},
                      euler=ring.from_terms(4, {"a^2": 1}),
                      pairing=cp2.pairing, base_dimension=4)
    final = {bound: acs_verdict(data, bound).final for bound in (0, 1, 2, 5)}
    assert final[0].status == "Inconclusive"
    assert "no admissible candidates within bound 0" in final[0].note
    assert final[1].status == "Inconclusive"
    assert "within bound 1 (2 tested), but candidates outside" in final[1].note
    for bound in (2, 5):
        assert final[bound].status == "NonZero"
        assert "positive definite" in final[bound].note
        assert "coefficients of a vanishing c1 by 2" in final[bound].note


def test_negative_definite_form_excludes_at_every_bound(cp2bar):
    for bound in (0, 1, 10):
        report = acs_verdict(cp2bar, bound)
        assert (report.status, report.existence) == ("obstructed", "excluded")
        assert "negative definite" in report.final.note
    # bound 0 holds no odd c1, so the witness comes from any_integral_lift
    report = acs_verdict(cp2bar, 0)
    assert report.search.records == ()
    lift = any_integral_lift(cp2bar.rings, cp2bar.w_class(2))
    q, quarters = theorem2_class(cp2bar, ChernCandidate((lift,)))
    assert not q.is_zero
    assert report.final.witness == canonical_witness(quarters[0])


# -- lift construction ---------------------------------------------------------------


def test_construct_lift_on_projective_planes(cp2, hp2):
    a = cp2.rings.integral.from_terms(2, {"a": 1})
    z = construct_w4m_lift(cp2, 1, (a,))
    assert z == cp2.rings.integral.from_terms(4, {"a^2": -1})
    assert cp2.rings.rho2(z) == cp2.w_class(4)

    u = hp2.rings.integral.from_terms(4, {"u": 1})
    z1 = construct_w4m_lift(hp2, 1, (hp2.rings.integral.zero(2),))
    assert z1 == -u
    assert hp2.rings.rho2(z1) == hp2.w_class(4)
    z2 = construct_w4m_lift(hp2, 2, (hp2.rings.integral.zero(2), -u,
                                     hp2.rings.integral.zero(6)))
    assert z2 == hp2.rings.integral.from_terms(8, {"u^2": -3})
    assert hp2.rings.rho2(z2) == hp2.w_class(8)


def test_construct_lift_with_zero_data(corpus):
    s8 = corpus["s8"].bundle
    ring = s8.rings.integral
    z = construct_w4m_lift(s8, 1, (ring.zero(2),))
    assert z.is_zero
    z = construct_w4m_lift(s8, 2, (ring.zero(2), ring.zero(4), ring.zero(6)))
    assert z.is_zero


def test_construct_lift_reduces_correctly_everywhere(corpus):
    for space in corpus.values():
        data = space.bundle
        for m in (1, 2):
            if 4 * m > data.cutoff:
                continue
            lifts = []
            ok = True
            for j in range(1, 2 * m):
                found = any_integral_lift(data.rings, data.w_class(2 * j))
                if found is None:
                    ok = False
                    break
                lifts.append(found)
            if not ok:
                continue
            z = construct_w4m_lift(data, m, tuple(lifts))
            assert data.rings.rho2(z) == data.w_class(4 * m)


def test_construct_lift_validates_input(cp2):
    ring = cp2.rings.integral
    with pytest.raises(ValueError):
        construct_w4m_lift(cp2, 1, ())
    with pytest.raises(DataValidationError):
        construct_w4m_lift(cp2, 1, (2 * ring.from_terms(2, {"a": 1}),))
    with pytest.raises(DegreeError):
        construct_w4m_lift(cp2, 3, tuple(ring.zero(2 * j) for j in range(1, 6)))


def test_construct_lift_no_solution_on_inconsistent_data(monkeypatch):
    # w4 = 0 but p1 = 2b contradicts Wu's formula; with validation off the
    # only half of c1^2 - p1 = -2b is -b, which reduces to b, not to w4
    monkeypatch.setattr(BundleData, "_validate", lambda self: None)
    pres = RingPresentation(
        modulus=0, cutoff=8,
        generators=(Generator("b", 4),), rules=(RewriteRule((2,), ()),))
    sys = RingSystem.with_reduction_defaults(pres)
    b = sys.integral.from_terms(4, {"b": 1})
    data = BundleData(rank=8, rings=sys, w={}, p={1: 2 * b},
                      euler=sys.integral.zero(8))
    with pytest.raises(NoSolution):
        construct_w4m_lift(data, 1, (sys.integral.zero(2),))


def test_verdicts_stay_below_the_factorial_cap():
    # acs_verdict takes (2k)! with 4k + 3 < rank and (n - 1)! with 2n = rank,
    # and rank <= cutoff, so the largest cutoff a ring accepts bounds both
    def ring(cutoff):
        return GradedRing(RingPresentation(0, cutoff, (Generator("x", 2),),
                                           (RewriteRule((2,), ()),)))

    ring(1412)
    with pytest.raises(TableTooLarge):
        ring(1413)
    assert 1412 // 2 - 1 <= obstruct.FACTORIAL_CAP
    with pytest.raises(ValueError, match=r"^1002! exceeds the factorial cap"):
        obstruction_denominator(501)
    with pytest.raises(ValueError, match=r"^1002! exceeds the factorial cap"):
        homotopy_group(1003, 2005)


# -- homotopy groups ------------------------------------------------------------------


def test_homotopy_group_table_through_degree_fourteen():
    Z = AbelianGroupDescriptor.free(1)
    Z2 = AbelianGroupDescriptor.cyclic(2)
    O = AbelianGroupDescriptor.trivial()
    expected = [O, Z, O, O, O, Z, Z2, Z2, O, Z, O, O, O, Z]
    got = [homotopy_group(8, q) for q in range(1, 15)]
    assert got == expected


def test_homotopy_group_top_degree():
    assert str(homotopy_group(4, 7)) == "Z + Z/2"
    assert str(homotopy_group(5, 9)) == "Z/24"
    assert str(homotopy_group(6, 11)) == "Z"
    assert str(homotopy_group(7, 13)) == "Z/360"
    assert homotopy_group(3, 5).is_trivial  # (n-1)!/2 = 1
    assert str(homotopy_group(2, 3)) == "Z"


def test_homotopy_group_stability():
    for q in range(1, 7):
        values = {str(homotopy_group(n, q)) for n in range(4, 9)}
        assert len(values) == 1


def test_homotopy_group_range_errors():
    with pytest.raises(ValueError):
        homotopy_group(0, 1)
    with pytest.raises(ValueError):
        homotopy_group(4, 0)
    with pytest.raises(ValueError):
        homotopy_group(4, 8)


# -- the full pipeline -----------------------------------------------------------------


def test_pipeline_statuses(corpus):
    expected = {
        "cp2": ("clear", "admits"),
        "cp2bar": ("obstructed", "excluded"),
        "hp2": ("clear", "undetermined"),
        "s4": ("obstructed", "excluded"),
        "s6": ("clear", "admits"),
        "s2xs4": ("clear", "admits"),
        "s8": ("obstructed", "excluded"),
        "s8_rank6": ("obstructed", "excluded"),
        "s1xwu": ("obstructed", "excluded"),
    }
    for name, (status, existence) in expected.items():
        report = acs_verdict(corpus[name].bundle, bound=10)
        assert report.status == status, name
        assert report.existence == existence, name


def test_pipeline_dimension_six_rule(corpus):
    for name in ("s6", "s2xs4"):
        report = acs_verdict(corpus[name].bundle, bound=10)
        assert report.sole_obstruction
        assert report.first.status == "Zero"
        assert report.final is None
        assert report.gaps == ()


def test_pipeline_undetected_torsion_component(hp2):
    report = acs_verdict(hp2, bound=10)
    assert report.final.status == "Zero"
    assert "Z/2 component" in report.final.note
    assert any("Z/2 component" in g for g in report.gaps)
    assert dict(report.theorem1)[1].status == "Zero"


def test_pipeline_first_obstruction_blocks_everything(s1xwu):
    report = acs_verdict(s1xwu, bound=3)
    assert report.first.status == "NonZero"
    assert report.existence != "admits"  # the pipeline is monotone
    # degree 8 exceeds the 6-dimensional base, so no search is attempted
    assert report.search is None
    assert report.final is None
    assert report.sole_obstruction


def test_pipeline_inconclusive_torsion(torsion_bundle):
    report = acs_verdict(torsion_bundle, bound=2)
    assert report.status == "inconclusive"
    assert report.existence == "undetermined"
    rows = dict(report.theorem1)
    assert rows[1].status == "Zero"
    assert rows[2].status == "Inconclusive"
    assert report.final is None
    assert any("exceeds" in n or "dimension" in n for n in report.notes)


def test_pipeline_wu_checks_recorded(cp2, s1xwu):
    assert [c.status for c in acs_verdict(cp2).wu_checks] == ["ok", "ok"]
    checks = {c.m: c for c in acs_verdict(s1xwu).wu_checks}
    assert checks[1].status == "skipped"
    assert "no integral lift" in checks[1].note
    assert checks[2].status == "ok"


def test_pipeline_rank_two_is_immediate():
    pres = RingPresentation(
        modulus=0, cutoff=4, generators=(Generator("a", 2),),
        rules=(RewriteRule((2,), ()),))
    sys = RingSystem.with_reduction_defaults(pres)
    data = BundleData(rank=2, rings=sys, w={2: sys.mod2.from_terms(2, {"a": 1})},
                      p={}, euler=sys.integral.from_terms(2, {"a": 1}),
                      base_dimension=2)
    report = acs_verdict(data)
    assert report.status == "clear"
    assert report.existence == "admits"


def test_pipeline_degrees_above_the_cutoff_are_one_gap():
    # T S^6 with its ring cut at 6: degree 7 has no obstruction (pi_6 of the
    # fiber vanishes) and degree 8 is the final test, so the gap for the
    # degrees above the cutoff starts at 9 and names one degree or a range
    doc = json.loads((CORPUS_DIR / "s6.json").read_text())
    doc["rings"]["shared"]["cutoff"] = 6
    final = "final degree 8 lies beyond the ring cutoff 6"
    expected = {
        7: [],
        8: [final],
        9: [final, "degree 9 lies above the top covered degree"],
        10: [final, "degrees 9 to 10 lie above the top covered degree"],
        10 ** 30: [final, "degrees 9 to %d lie above the top covered degree"
                   % 10 ** 30],
    }
    for dim, gaps in expected.items():
        doc["bundle"]["base_dimension"] = dim
        data = space_file_from_doc(doc).bundle
        assert list(acs_verdict(data).gaps) == gaps, dim
