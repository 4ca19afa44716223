"""The Chern-candidate survey as it was, before it worked on coefficients.

A copy of `survey_candidates`, `_admissible_candidates` and the
element-level `chern_square_sum` from `acso.obstruct` at the change that
moved the survey onto coefficient tuples, except that CANDIDATE_CAP is
read from `acso.obstruct` at call time, so that a test patching the cap
there patches it here too (LIFT_CAP is read by `integral_lifts`).  This
copy builds a `RingElement` per lift and per candidate and evaluates
each top class through element products; tests/test_survey.py compares
the survey against it, outcome by outcome and refusal by refusal.

One rule changed since: the lift set of a solved even-index class is
not listed, so LIFT_CAP no longer refuses its lifts, only its parity
solutions, one or more lifts each.  Here that set is still listed by
`integral_lifts`, with LIFT_CAP lifted for the call, and the refusal is
made when the parity patterns of its lifts outnumber the cap: the free
and even-order coordinates, whose parities rho2 sees, take both
parities within any bound from 1 and only 0 at bound 0, exactly as in
the parity system, so the lifts show each of its solutions.
"""

import math
from collections.abc import Sequence

from acso import gradedring, obstruct
from acso.gradedring import RingElement, TooManyLifts, divide_by, integral_lifts
from acso.obstruct import (
    BudgetExceeded,
    BundleData,
    CandidateRecord,
    ChernCandidate,
    SearchOutcome,
    _annihilated_by,
    _divisible,
    _final_criterion,
)


def chern_square_sum(data: BundleData, cand: ChernCandidate,
                     j: int) -> RingElement:
    """Massey's degree-4j class

        q_j = sum_{i=0}^{2j} (-1)^i c_i c_{2j-i} - (-1)^j p_j.

    Chern classes have even degree, so c_i c_{2j-i} = c_{2j-i} c_i and the
    sum folds to (-1)^j (c_j^2 - p_j) + 2 sum_{i<j} (-1)^i c_i c_{2j-i},
    whose i = 0 term is c_{2j} itself.
    """
    q = cand.chern(data, j) * cand.chern(data, j) - data.p_class(j)
    if j % 2:
        q = -q
    twice = cand.chern(data, 2 * j)
    for i in range(1, j):
        term = cand.chern(data, i) * cand.chern(data, 2 * j - i)
        twice = twice - term if i % 2 else twice + term
    return q + 2 * twice


def survey_candidates(data: BundleData, bound: int = 10) -> SearchOutcome:
    """Find the Chern candidates within `bound` and test each one.

    Candidates are built depth-first in index order.  An odd-index class
    c_i ranges over the integral lifts of w_2i whose free coefficients lie
    in [-bound, bound].  An even-index class c_2j is solved, not
    enumerated: Massey's intermediate identity q_j = 0 (j below the final
    index) contains it only as 2 c_2j, so c_2j runs over the solutions of
    2 c_2j = -r, r being q_j with c_2j set to zero, that are lifts of
    w_4j within the bound.  Every candidate built thus reduces to w and
    satisfies the intermediate identities by construction, and only its
    top-degree class is evaluated.  At rank 4k with k >= 2 that class is
    evaluated once per prefix c_1..c_{2k-2}: the last class c_{2k-1}
    enters it only as -2 c_1 c_{2k-1}, so each lift x of c_{2k-1} gets
    q = q0 - 2 c_1 x, q0 being the class with c_{2k-1} = 0.  At ranks 4
    and 6 it is quadratic in the last class and is computed whole.  The
    check rho4(q) = 0 and the pairing of q run once per candidate.  A
    record holds a status, that of q = 0 read once per search, and no
    record solves 4x = q: the witness is made once, for the printed verdict.
    Deterministic: candidates come out in lexicographic order of their
    coefficient vectors.

    `enumerated` is the size of the product of the lift sets, which is
    reported but never iterated.  The work is predicted before the search
    starts: the product of the odd-index lift-set sizes times, for each
    solved class, the 2^e solutions that 2x = y can have when its piece
    has e torsion coordinates of even order.  BudgetExceeded is raised
    when the prediction exceeds CANDIDATE_CAP.
    """
    rank = data.rank
    final = _final_criterion(rank)
    if final is None:
        raise ValueError("no top-degree criterion for rank %d" % rank)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    k_final, rule = final
    n = rank // 2
    rings = data.rings

    lift_sets = []
    for i in range(1, n):
        found = (integral_lifts if i % 2 else _solved_lifts)(
            rings, data.w_class(2 * i), bound)
        if found.no_lift_proven:
            return SearchOutcome(bound=bound, rule=rule, no_lift_degree=2 * i,
                                 complete=True)
        lift_sets.append(found.lifts)
    complete = all(o != 0
                   for i in range(1, n)
                   for o in rings.integral.orders(2 * i))

    predicted = 1
    for i, lifts in enumerate(lift_sets, start=1):
        if i % 2:
            predicted *= len(lifts)
        else:
            predicted *= 2 ** sum(1 for o in rings.integral.orders(2 * i)
                                  if o and o % 2 == 0)
    if predicted > obstruct.CANDIDATE_CAP:
        raise BudgetExceeded("candidate enumeration exceeded the cap %d"
                             % obstruct.CANDIDATE_CAP)
    # the status of q = 0; no q exists above the cutoff
    top = 4 * k_final
    zero = ("Inconclusive" if top <= data.cutoff and _annihilated_by(
        rings.integral.orders(top), 4) else "Zero")
    records = []
    for cand, q in _admissible_candidates(data, lift_sets, k_final):
        q = _divisible(data, q)
        records.append(CandidateRecord(cand, q, zero if q.is_zero else
                                       "NonZero", data.pair(q)))
    return SearchOutcome(bound=bound, rule=rule,
                         enumerated=math.prod(len(lifts) for lifts in lift_sets),
                         records=tuple(records), complete=complete)


def _solved_lifts(rings, w, bound: int):
    # integral_lifts of w without its LIFT_CAP refusal, refused instead
    # when the parity solutions of rho2(x) = w outnumber the cap
    cap = gradedring.LIFT_CAP
    gradedring.LIFT_CAP = math.inf
    try:
        found = integral_lifts(rings, w, bound)
    finally:
        gradedring.LIFT_CAP = cap
    orders = rings.integral.orders(w.degree)
    parities = {tuple(c & 1 for c, o in zip(x.coeffs, orders) if o % 2 == 0)
                for x in found.lifts}
    if len(parities) > cap:
        raise TooManyLifts("at least %d lifts in degree %d exceed the cap %d"
                           % (len(parities), w.degree, cap))
    return found


def _admissible_candidates(data: BundleData, lift_sets: Sequence[tuple],
                           k: int):
    # (candidate, its unchecked top class q_k), in lexicographic order.
    # Every even index 2j below n = rank/2 has j below the final index, so
    # identity j fixes c_2j; it reads only c_1..c_2j, so the prefix with
    # c_2j = 0 gives r.  Lift-set membership keeps rho2(c_2j) = w_4j, the
    # bound and the lexicographic order of divide_by's solutions.  The
    # last level evaluates q_k per prefix where survey_candidates says so.
    integral = data.rings.integral
    last = len(lift_sets)
    members = {i: {x.coeffs for x in lift_sets[i - 1]}
               for i in range(2, last + 1, 2)}
    per_prefix = k >= 2 and data.rank % 4 == 0

    def without_last(prefix, j):
        # q_j of the prefix extended by a zero class
        zero = integral.zero(2 * len(prefix) + 2)
        return chern_square_sum(data, ChernCandidate(prefix + (zero,)), j)

    def extend(prefix):
        i = len(prefix) + 1
        if i % 2:
            choices = lift_sets[i - 1]
        else:
            r = without_last(prefix, i // 2)
            choices = [x for x in divide_by(2, -r) if x.coeffs in members[i]]
        if i < last:
            for x in choices:
                yield from extend(prefix + (x,))
        elif per_prefix:
            q0, c1 = without_last(prefix, k), prefix[0]
            for x in choices:
                yield ChernCandidate(prefix + (x,)), q0 - 2 * (c1 * x)
        else:
            for x in choices:
                cand = ChernCandidate(prefix + (x,))
                yield cand, chern_square_sum(data, cand, k)

    return extend(())
