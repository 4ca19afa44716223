"""Obstructions to almost complex structures on oriented real bundles.

An oriented rank-2n bundle carries an almost complex structure precisely
when its structure group reduces from SO(2n) to U(n).  The obstructions to
building such a reduction cell by cell live in H^q(X; pi_{q-1}(SO(2n)/U(n))),
and in low degrees they are computable from characteristic classes:

  * degree 3: the integral class W_3 = beta(w_2), exactly (Ehresmann);
  * degrees 4k+3 < 2n: Massey's Theorem I writes the integral class
    W_{4k+3} as an integer multiple l(k) of the obstruction;
  * the top degree of a rank-4k bundle: Massey's Theorem II expresses four
    times the obstruction through Chern class candidates, Pontryagin
    classes and the Euler class;
  * rank 6, degree 8: the same shape with c_3 pinned to the Euler class.

`BundleData` packages the characteristic classes of one bundle over the
three coefficient rings and cross-checks the classical identities among
them (including Wu's formula relating Pontryagin squares to Pontryagin
classes).  `acs_verdict` runs every criterion the rank admits and reports
what was proven, what failed, and what stayed out of reach.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
from array import array
from collections.abc import Iterable, Mapping, Sequence

from .gradedring import (
    DegreeError,
    RingElement,
    RingSystem,
    _element,
    any_integral_lift,
    divide_by,
    lift_spreads,
    lift_test,
    product,
    quotients,
    square,
)
from .intlin import AbelianGroupDescriptor, Frozen, IntMatrix


class DataValidationError(Exception):
    """Bundle data violates a structural or classical identity."""


class DivisibilityViolation(Exception):
    """A class that must reduce to zero mod 4 fails to."""


class BudgetExceeded(Exception):
    """A candidate search is predicted to build more than CANDIDATE_CAP."""


class NoSolution(Exception):
    """The degree-4m lift construction ran out of options."""


_STATUSES = ("Zero", "NonZero", "Inconclusive")


class Verdict(Frozen):
    """Outcome of one obstruction test.

    `status` is "Zero", "NonZero" or "Inconclusive".  `witness` is a
    representative of the obstruction (or of the class that forces it
    nonzero); `denominator` is the integer l with l*o = computed class,
    when the test has that shape.  Both default to None, `note` to "".
    """

    __slots__ = ("status", "witness", "denominator", "note")
    _defaults = {"witness": None, "denominator": None, "note": ""}

    def __init__(self, *args, **kwargs) -> None:
        Frozen.__init__(self, *args, **kwargs)
        if self.status not in _STATUSES:
            raise ValueError("unknown verdict status %r" % (self.status,))
        if self.status == "NonZero" and (self.witness is None
                                         or self.witness.is_zero):
            raise ValueError("NonZero verdict requires a nonzero witness")


def canonical_witness(x: RingElement) -> RingElement:
    # obstruction classes are only pinned up to sign by the data; pick the
    # lexicographically larger of x and -x so reruns agree
    neg = -x
    return x if x.coeffs >= neg.coeffs else neg


class WuCheck(Frozen):
    """Result of checking Wu's formula for one m.

    `status` is "ok", "failed" or "skipped"; `discrepancy` (a RingElement,
    default None) and `note` (default "") say why.
    """

    __slots__ = ("m", "status", "discrepancy", "note")
    _defaults = {"discrepancy": None, "note": ""}


class Pairing(Frozen):
    """Evaluation against a fundamental class in one degree.

    `values` lists the integer each basis element of the integral piece
    pairs to.  Torsion basis elements must pair to zero.
    """

    __slots__ = ("degree", "values")

    def __init__(self, degree: int, values: Iterable[int]) -> None:
        Frozen.__init__(self, int(degree), tuple(int(v) for v in values))

    def pair(self, x: RingElement) -> int:
        if x.degree != self.degree:
            raise DegreeError("pairing is defined in degree %d, not %d"
                              % (self.degree, x.degree))
        if len(x.coeffs) != len(self.values):
            raise ValueError("pairing has %d values for a %d-dimensional piece"
                             % (len(self.values), len(x.coeffs)))
        return sum(c * v for c, v in zip(x.coeffs, self.values))


class BundleData:
    """Characteristic-class data of one oriented real bundle.

    `w` maps i to the i-th Stiefel-Whitney class (mod 2 ring), `p` maps k
    to the k-th Pontryagin class (integral ring), `euler` is the Euler
    class in degree `rank`.  Missing entries mean zero.  Construction
    validates the classical identities: w_1 = 0, w_i = 0 above the rank,
    p_k = 0 above rank/2, rho_2(p_k) = w_{2k}^2, rho_2(e) = w_rank, and
    Wu's formula for every m in range (skipped, with a note, when w_{2m}
    has no integral lift).  The identities are checked on coefficient
    tuples, with the product kernels (`square` for the squares) and each
    map's image, and reduced once; an element is made only for the
    discrepancy of a failing one.
    An identity lives in one degree of one ring, the mod-2 ring for the
    reductions and the mod-4 ring for Wu's formula.  Where that degree
    has no basis monomials both sides are (), so the identity holds
    vacuously and is not computed.
    """

    def __init__(self, rank: int, rings: RingSystem,
                 w: Mapping[int, RingElement],
                 p: Mapping[int, RingElement],
                 euler: RingElement,
                 pairing: Pairing | None = None,
                 base_dimension: int | None = None) -> None:
        self.rank = int(rank)
        self.rings = rings
        self.w = {int(i): wi for i, wi in w.items() if not wi.is_zero}
        self.p = {int(k): pk for k, pk in p.items() if not pk.is_zero}
        self.euler = euler
        self.pairing = pairing
        self.base_dimension = None if base_dimension is None else int(base_dimension)
        self.wu_checks: tuple = ()
        self._validate()

    # -- accessors ---------------------------------------------------

    @property
    def cutoff(self) -> int:
        return self.rings.integral.presentation.cutoff

    def w_class(self, i: int) -> RingElement:
        if i < 0:
            raise ValueError("Stiefel-Whitney index must be nonnegative")
        if i == 0:
            return self.rings.mod2.unit()
        if i in self.w:
            return self.w[i]
        return self.rings.mod2.zero(i)

    def p_class(self, k: int) -> RingElement:
        if k < 0:
            raise ValueError("Pontryagin index must be nonnegative")
        if k == 0:
            return self.rings.integral.unit()
        if k in self.p:
            return self.p[k]
        return self.rings.integral.zero(4 * k)

    def pair(self, x: RingElement) -> int | None:
        if self.pairing is None or x.degree != self.pairing.degree:
            return None
        return self.pairing.pair(x)

    def __eq__(self, other: object):
        if not isinstance(other, BundleData):
            return NotImplemented
        return (self.rank == other.rank
                and self.base_dimension == other.base_dimension
                and self.rings == other.rings
                and self.w == other.w
                and self.p == other.p
                and self.euler == other.euler
                and self.pairing == other.pairing)

    # -- validation --------------------------------------------------

    def _validate(self) -> None:
        rings = self.rings
        cutoff = self.cutoff
        if self.rank < 2 or self.rank % 2:
            raise DataValidationError("rank must be an even integer >= 2, got %d"
                                      % self.rank)
        if self.rank > cutoff:
            raise DataValidationError("ring cutoff %d lies below the rank %d"
                                      % (cutoff, self.rank))
        if self.base_dimension is not None and self.base_dimension < 0:
            raise DataValidationError("base dimension must be nonnegative")
        for i, wi in self.w.items():
            if i < 1:
                raise DataValidationError("w index %d out of range" % i)
            if wi.ring is not rings.mod2 and wi.ring != rings.mod2:
                raise DataValidationError("w%d must live in the mod-2 ring" % i)
            if wi.degree != i:
                raise DataValidationError("w%d has degree %d" % (i, wi.degree))
            if i == 1:
                raise DataValidationError("w1 must vanish for an oriented bundle")
            if i > self.rank:
                raise DataValidationError("w%d must vanish for a rank-%d bundle"
                                          % (i, self.rank))
        for k, pk in self.p.items():
            if k < 1:
                raise DataValidationError("p index %d out of range" % k)
            if pk.ring != rings.integral:
                raise DataValidationError("p%d must live in the integral ring" % k)
            if pk.degree != 4 * k:
                raise DataValidationError("p%d has degree %d, expected %d"
                                          % (k, pk.degree, 4 * k))
            if k > self.rank // 2:
                raise DataValidationError("p%d must vanish for a rank-%d bundle"
                                          % (k, self.rank))
        if self.euler.ring != rings.integral:
            raise DataValidationError("the Euler class must live in the integral ring")
        if self.euler.degree != self.rank:
            raise DataValidationError("the Euler class has degree %d, expected %d"
                                      % (self.euler.degree, self.rank))

        # each identity is checked on coefficient tuples and reduced once;
        # a degree of its ring without basis monomials holds only (), so
        # the identity holds there vacuously and is not computed
        mod2, rho2 = rings.mod2, rings.rho2
        if mod2._basis[self.rank]:
            diff = rho2.image(self.rank)(self.euler.coeffs)
            if self.rank in self.w:
                diff = _minus(diff, self.w[self.rank].coeffs)
            wrong = _discrepancy(mod2, self.rank, diff)
            if wrong is not None:
                raise DataValidationError(
                    "rho2(e) != w%d, discrepancy %s" % (self.rank, wrong))
        for k in range(1, cutoff // 4 + 1):
            d = 4 * k
            if not mod2._basis[d]:
                continue
            pk, w2k = self.p.get(k), self.w.get(2 * k)
            diff = ([0] * len(mod2._basis[d]) if pk is None
                    else rho2.image(d)(pk.coeffs))
            if w2k is not None:
                diff = _minus(diff, square(mod2, 2 * k, w2k.coeffs))
            wrong = _discrepancy(mod2, d, diff)
            if wrong is not None:
                raise DataValidationError(
                    "rho2(p%d) != w%d^2, discrepancy %s" % (k, 2 * k, wrong))

        if self.pairing is not None:
            deg = self.pairing.degree
            if deg < 0 or deg > cutoff:
                raise DataValidationError("pairing degree %d outside the ring" % deg)
            orders = rings.integral.orders(deg)
            if len(self.pairing.values) != len(orders):
                raise DataValidationError(
                    "pairing lists %d values for a %d-dimensional piece"
                    % (len(self.pairing.values), len(orders)))
            for o, v in zip(orders, self.pairing.values):
                if o != 0 and v != 0:
                    raise DataValidationError(
                        "pairing must vanish on torsion basis elements")

        checks = []
        for m in range(1, cutoff // 4 + 1):
            chk = validate_wu_formula(self, m)
            if chk.status == "failed":
                raise DataValidationError(
                    "Wu's formula fails at m=%d: discrepancy %s"
                    % (m, chk.discrepancy))
            checks.append(chk)
        self.wu_checks = tuple(checks)


def _minus(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return [x - y for x, y in zip(a, b)]


def _discrepancy(ring, degree: int, diff: list[int]) -> RingElement | None:
    # the element of diff, reduced at the torsion coordinates, or None when
    # it is zero: an element is made only for an identity that fails
    for i, o in ring._torsion[degree]:
        diff[i] %= o
    return _element(ring, degree, tuple(diff)) if any(diff) else None


def validate_wu_formula(data: BundleData, m: int) -> WuCheck:
    """Check P(w_{2m}) = rho4(p_m) + theta2(sum_{j<m} w_{2j} w_{4m-2j}).

    P is the Pontryagin square, rho4 of the square of any integral lift.
    When w_{2m} admits no integral lift the square is not defined and the
    check is skipped with a note; a zero w_{2m} lifts to 0, whose square
    is 0.  The formula lives in degree 4m of the mod-4 ring: where that
    degree has no basis monomials, both sides are () and the check is
    "ok" without computing either, once w_{2m} is known to lift.
    Otherwise both sides are summed on coefficient tuples, with the
    product kernels (`square` for the lift's square) and each map's
    image, and reduced once; an element is made only for the discrepancy
    of a failing check.
    """
    if m < 1 or 4 * m > data.cutoff:
        raise ValueError("m=%d out of range for cutoff %d" % (m, data.cutoff))
    rings = data.rings
    d = 4 * m
    w2m = data.w.get(2 * m)
    lift = None if w2m is None else any_integral_lift(rings, w2m)
    if w2m is not None and lift is None:
        return WuCheck(m, "skipped",
                       note="w%d has no integral lift" % (2 * m))
    mod4 = rings.mod4
    if not mod4._basis[d]:
        return WuCheck(m, "ok")
    image = rings.rho4.image(d)
    diff = ([0] * len(mod4._basis[d]) if lift is None else
            image(square(rings.integral, 2 * m, lift.coeffs)))
    if m in data.p:
        diff = _minus(diff, image(data.p[m].coeffs))
    # the sum over j < m, whose j = 0 term is 1 * w_{4m}
    w = data.w
    acc = list(w[d].coeffs) if d in w else [0] * len(rings.mod2._basis[d])
    for j in range(1, m):
        left, right = w.get(2 * j), w.get(d - 2 * j)
        if left is not None and right is not None:
            terms = product(rings.mod2, 2 * j, left.coeffs,
                            d - 2 * j, right.coeffs)
            acc = [x + y for x, y in zip(acc, terms)]
    if any(acc):
        diff = _minus(diff, rings.theta2.image(d)(acc))
    wrong = _discrepancy(mod4, d, diff)
    if wrong is None:
        return WuCheck(m, "ok")
    return WuCheck(m, "failed", discrepancy=wrong,
                   note="Pontryagin square of w%d disagrees with p%d" % (2 * m, m))


# -- elementary integral classes --------------------------------------


def integral_sw(data: BundleData, i: int) -> RingElement:
    """Integral Stiefel-Whitney class W_{2i+1} = beta(w_{2i})."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    if 2 * i + 1 > data.cutoff:
        raise DegreeError("degree %d exceeds cutoff %d" % (2 * i + 1, data.cutoff))
    return data.rings.beta(data.w_class(2 * i))


def first_obstruction(data: BundleData) -> Verdict:
    """W_3 = beta(w_2), the exact first obstruction.  Never Inconclusive."""
    w3 = integral_sw(data, 1)
    if w3.is_zero:
        return Verdict("Zero", denominator=1, note="W3 = beta(w2) vanishes")
    return Verdict("NonZero", witness=canonical_witness(w3), denominator=1,
                   note="W3 = beta(w2) is nonzero")


# the largest n whose n! is computed (1000! has 2,568 digits); acs_verdict
# needs at most 705!, as rank <= cutoff <= 1412 (TABLE_CAP degree pairs)
FACTORIAL_CAP = 1000


def _factorial(n: int) -> int:
    if n > FACTORIAL_CAP:
        raise ValueError("%d! exceeds the factorial cap %d!" % (n, FACTORIAL_CAP))
    return math.factorial(n)


def obstruction_denominator(k: int) -> int:
    """Multiplier l(k) with W_{4k+3} = l(k) * o_{4k+3}: (2k)!, halved for odd k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    f = _factorial(2 * k)
    return f if k % 2 == 0 else f // 2


def _annihilated_by(orders: Sequence[int], n: int) -> bool:
    # does the group with these cyclic orders contain x != 0 with n*x = 0?
    return any(o != 0 and math.gcd(o, n) > 1 for o in orders)


def theorem1_obstruction(data: BundleData, k: int) -> Verdict:
    """Massey Theorem I test in degree 4k+3: W_{4k+3} = l(k) * o.

    Valid for 4k+3 < rank.  A nonzero W forces o nonzero.  W = 0 gives
    Zero only when no nonzero class of the degree-(4k+3) piece is killed
    by l(k); otherwise the test is Inconclusive.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    degree = 4 * k + 3
    if degree >= data.rank:
        raise ValueError("Theorem I needs 4k+3 < rank, got 4*%d+3 >= %d"
                         % (k, data.rank))
    if degree > data.cutoff:
        raise DegreeError("degree %d exceeds cutoff %d" % (degree, data.cutoff))
    ell = obstruction_denominator(k)
    w_int = integral_sw(data, 2 * k + 1)
    if not w_int.is_zero:
        return Verdict("NonZero", witness=canonical_witness(w_int),
                       denominator=ell,
                       note="W%d = l*o with l = %d is nonzero, so o != 0"
                            % (degree, ell))
    orders = data.rings.integral.orders(degree)
    if not _annihilated_by(orders, ell):
        return Verdict("Zero", denominator=ell,
                       note="W%d = 0 and no nonzero degree-%d class is killed by %d"
                            % (degree, degree, ell))
    return Verdict("Inconclusive", denominator=ell,
                   note="W%d = 0 but l = %d kills torsion in degree %d"
                        % (degree, ell, degree))


# -- Chern class candidates and the top-degree criteria ----------------


class ChernCandidate(Frozen):
    """Proposed integral Chern classes c_1..c_{n-1}; c_n is the Euler class."""

    __slots__ = ("classes",)

    def __init__(self, classes: Iterable[RingElement]) -> None:
        Frozen.__init__(self, tuple(classes))

    def chern(self, data: BundleData, i: int) -> RingElement:
        n = data.rank // 2
        if i == 0:
            return data.rings.integral.unit()
        if 1 <= i <= n - 1:
            return self.classes[i - 1]
        if i == n:
            return data.euler
        return data.rings.integral.zero(2 * i)


def validate_candidate(data: BundleData, cand: ChernCandidate) -> None:
    n = data.rank // 2
    if len(cand.classes) != n - 1:
        raise DataValidationError("rank %d needs %d candidate classes, got %d"
                                  % (data.rank, n - 1, len(cand.classes)))
    for i, ci in enumerate(cand.classes, start=1):
        if ci.ring != data.rings.integral:
            raise DataValidationError("c%d must live in the integral ring" % i)
        if ci.degree != 2 * i:
            raise DataValidationError("c%d has degree %d, expected %d"
                                      % (i, ci.degree, 2 * i))
        diff = data.rings.rho2(ci) - data.w_class(2 * i)
        if not diff.is_zero:
            raise DataValidationError(
                "rho2(c%d) != w%d, discrepancy %s" % (i, 2 * i, diff))


def chern_square_sum(data: BundleData, cand: ChernCandidate,
                     j: int) -> RingElement:
    """Massey's degree-4j class

        q_j = sum_{i=0}^{2j} (-1)^i c_i c_{2j-i} - (-1)^j p_j,

    from square_sum over the coefficients of c_0..c_{min(2j, n)}.
    """
    c = [cand.chern(data, i).coeffs
         for i in range(min(2 * j, data.rank // 2) + 1)]
    return data.rings.integral.element(4 * j, square_sum(data, c, j))


def square_sum(data: BundleData, c: Sequence[Sequence[int]],
               j: int) -> list[int]:
    """The coefficients of q_j, not yet reduced, where c[i] holds those of
    c_i and a class past the end of c is zero.  c_j^2 is taken by
    `square`, so at a torsion coordinate the result is q_j only modulo
    the order, and every caller reduces it there.

    Chern classes have even degree, so c_i c_{2j-i} = c_{2j-i} c_i and the
    sum folds to (-1)^j (c_j^2 - p_j) + 2 sum_{i<j} (-1)^i c_i c_{2j-i},
    whose i = 0 term is c_{2j} itself.  This is the one formula for q:
    chern_square_sum and the candidate survey both evaluate it.
    """
    ring = data.rings.integral
    q = square(ring, 2 * j, c[j])
    sign = -1 if j % 2 else 1
    if j and j not in data.p:  # p_j = 0: no zero element is made for it
        q = [sign * x for x in q]
    else:
        q = [sign * (x - y) for x, y in zip(q, data.p_class(j).coeffs)]
    for i in range(j):
        if 2 * j - i < len(c):
            term = (c[2 * j] if i == 0 else
                    product(ring, 2 * i, c[i], 4 * j - 2 * i, c[2 * j - i]))
            twice = -2 if i % 2 else 2
            q = [x + twice * y for x, y in zip(q, term)]
    return q


def _divisible(data: BundleData, q: RingElement) -> RingElement:
    # q itself, once rho4(q) = 0 is checked, as consistent data guarantees
    if not data.rings.rho4(q).is_zero:
        raise DivisibilityViolation("q = %s is not divisible by 4 (rho4(q) = %s)"
                                    % (q, data.rings.rho4(q)))
    return q


def theorem2_class(data: BundleData, cand: ChernCandidate):
    """Massey Theorem II class for rank 4k:

        q = sum_{i+j=2k} (-1)^i c_i c_j - (-1)^k p_k = 4 * o.

    Returns (q, solutions of 4x = q).  Raises DivisibilityViolation when
    rho4(q) != 0, which consistent data never produces.
    """
    if data.rank % 4:
        raise ValueError("Theorem II applies to ranks divisible by 4, got %d"
                         % data.rank)
    validate_candidate(data, cand)
    q = _divisible(data, chern_square_sum(data, cand, data.rank // 4))
    return q, divide_by(4, q)


def _witness(q: RingElement) -> RingElement:
    # the printed witness of a nonzero q = 4o: the first solution of
    # 4x = q in divide_by's order, or q itself when there is none, up to
    # sign
    first = next(quotients(4, q.coeffs, q.ring.orders(q.degree)), None)
    return canonical_witness(
        q if first is None else _element(q.ring, q.degree, first))


# -- candidate enumeration ---------------------------------------------


class CandidateRecord(Frozen):
    """An admissible candidate, its top class q = 4o and the status of q:
    "NonZero" when q != 0, else "Zero", or "Inconclusive" when 4 kills
    torsion in the degree of q.  It holds no witness: _aggregate_final
    makes the one a report prints."""

    __slots__ = ("candidate", "q", "status", "pairing")


class _Lifts:
    """The lifts of an odd index, as the spreads of lift_spreads.

    A lift is known by its index: the number of lifts in the spreads
    before its own, plus its place in its spread's product of axes, the
    last axis running fastest.  walk() gives every (coefficients, index)
    in lexicographic order of the coefficients, and self[index] the
    (ring, degree, coefficients) of one lift.  An index walked once per
    prefix, past the first, is listed once instead: listed() keeps the
    lifts by index and their indices in walk order, gives the walk from
    them, and self[index] then reads them.
    """

    __slots__ = ("ring", "degree", "spreads", "starts", "size", "_order",
                 "_by_index")

    def __init__(self, ring, degree: int, spreads: list) -> None:
        self.ring, self.degree, self.spreads = ring, degree, spreads
        self.starts = []
        self.size = 0
        for axes in spreads:
            self.starts.append(self.size)
            self.size += math.prod(map(len, axes))
        self._order = self._by_index = None

    def walk(self):
        # each spread's product is sorted and the spreads are disjoint, so
        # no two indices are ever compared.  heapq.merge passes every
        # lift through a generator even for one spread, a cost that the
        # corpus workload of the benchmark measures
        if len(self.spreads) == 1:
            return zip(itertools.product(*self.spreads[0]), itertools.count())
        return heapq.merge(*(
            zip(itertools.product(*axes), itertools.count(start))
            for axes, start in zip(self.spreads, self.starts)))

    def listed(self):
        if self._order is None:
            self._order = array("l")
            self._by_index = [None] * self.size
            for coeffs, index in self.walk():
                self._order.append(index)
                self._by_index[index] = coeffs
        return zip(map(self._by_index.__getitem__, self._order), self._order)

    @property
    def predicted(self) -> int:
        return self.size

    def choices(self, data: BundleData, prefix: list):
        # the first level is walked once, and streamed; a later one is
        # walked once per prefix, so it is listed
        return self.listed() if prefix else self.walk()

    def __getitem__(self, index: int) -> tuple:
        if self._by_index is not None:
            return self.ring, self.degree, self._by_index[index]
        s = bisect.bisect_right(self.starts, index) - 1
        index -= self.starts[s]
        coeffs = []
        for axis in reversed(self.spreads[s]):
            index, j = divmod(index, len(axis))
            coeffs.append(axis[j])
        coeffs.reverse()
        return self.ring, self.degree, tuple(coeffs)


class _Classes:
    """The distinct classes that records hold at one index, each once:
    index(key, item) numbers an item by its key, and self[i] is item i,
    a (ring, degree, coefficients) triple."""

    __slots__ = ("items", "_numbers")

    def __init__(self) -> None:
        self.items = []
        self._numbers = {}

    def index(self, key, item: tuple) -> int:
        i = self._numbers.get(key)
        if i is None:
            i = self._numbers[key] = len(self.items)
            self.items.append(item)
        return i

    def __getitem__(self, i: int) -> tuple:
        return self.items[i]


class _Solved(_Classes):
    """The solutions of an even index c_2j, numbered as _Classes numbers
    the classes the records hold.

    Identity j reads only c_1..c_2j and holds c_2j only as 2 c_2j, so the
    prefix alone, c_2j being zero, gives r, and choices() gives each
    solution of 2x = -r that lift_test's test keeps, a lift of w_4j
    within the bound, in lexicographic order.  `size` is the size of the
    lift set, which is never listed; `predicted` is 2^e, the most
    solutions 2x = y can have, e counting the torsion coordinates of even
    order.
    """

    __slots__ = ("ring", "degree", "size", "predicted", "_test")

    def __init__(self, ring, degree: int, found: tuple) -> None:
        _Classes.__init__(self)
        self.ring, self.degree = ring, degree
        self.size, self._test = found
        self.predicted = 2 ** sum(1 for o in ring.orders(degree)
                                  if o and o % 2 == 0)

    def choices(self, data: BundleData, prefix: list):
        orders = self.ring.orders(self.degree)
        r = square_sum(data, [(1,)] + prefix, self.degree // 4)
        y = [-x % o if o else -x for x, o in zip(r, orders)]
        return iter([(c, self.index(c, (self.ring, self.degree, c)))
                     for c in quotients(2, y, orders) if self._test(c)])


class RecordColumns(Sequence):
    """The records of a survey as columns, read as a tuple of
    CandidateRecords, each built when it is read.

    A candidate has one class per entry of `levels`, which gives the
    (ring, degree, coefficients) of a class by its index.  The records
    come in runs that share every class but the last: run p starts at
    record starts[p], and heads[l][p] is the index of its class at level
    l.  last[r] is the index of record r's last class and q[r] that of
    its entry in `values`, a list of (q element, status, pairing).  A
    view equals the tuple of its records.  The positions of the records
    of a status are found in one pass over q when first asked for and
    kept, so the verdict and both report writers read one list.
    """

    __slots__ = ("levels", "heads", "starts", "last", "q", "values",
                 "_positions", "_vanishing")

    def __init__(self, levels: list) -> None:
        self.levels = levels
        self.heads = [array("l") for _ in levels[1:]]
        self.starts = array("l")
        self.last = array("l")
        self.q = array("l")
        self.values = []
        self._positions = {}
        self._vanishing = None

    @classmethod
    def of(cls, records) -> "RecordColumns":
        """records itself when it is a view, else a view of the tuple of
        CandidateRecords, each class and q numbered by its value."""
        if isinstance(records, cls):
            return records
        size = len(records[0].candidate.classes) if records else 0
        out = cls([_Classes() for _ in range(size)])
        values = _Classes()
        run = None
        for r in records:
            numbers = [level.index((id(x.ring), x.degree, x.coeffs),
                                   (x.ring, x.degree, x.coeffs))
                       for level, x in zip(out.levels, r.candidate.classes)]
            if numbers[:-1] != run:
                run = numbers[:-1]
                out.starts.append(len(out.q))
                for column, i in zip(out.heads, run):
                    column.append(i)
            out.last.append(numbers[-1] if numbers else 0)
            q = r.q
            out.q.append(values.index(
                (id(q.ring), q.degree, q.coeffs, r.status, r.pairing),
                (q, r.status, r.pairing)))
        out.values = values.items
        return out

    def __len__(self) -> int:
        return len(self.q)

    def run(self, r: int) -> int:
        """The run that holds record r."""
        return bisect.bisect_right(self.starts, r) - 1

    def classes(self, r: int) -> list:
        """The (ring, degree, coefficients) of each class of record r."""
        p = self.run(r)
        indices = [column[p] for column in self.heads] + [self.last[r]]
        return [level[i] for level, i in zip(self.levels, indices)]

    def candidate(self, r: int) -> ChernCandidate:
        return ChernCandidate([_element(*c) for c in self.classes(r)])

    def __getitem__(self, r):
        if isinstance(r, slice):
            return tuple(self[i] for i in range(*r.indices(len(self))))
        if r < 0:
            r += len(self)
        if not 0 <= r < len(self):
            raise IndexError("record index out of range")
        return CandidateRecord(self.candidate(r), *self.values[self.q[r]])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if isinstance(other, (tuple, RecordColumns)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))

    def positions(self, status: str) -> list:
        """The indices of the records with this status, in order: one
        pass over the q column per status, kept for the later readers."""
        found = self._positions.get(status)
        if found is None:
            wanted = {i for i, v in enumerate(self.values) if v[1] == status}
            found = [] if not wanted else list(itertools.compress(
                range(len(self)), map(wanted.__contains__, self.q)))
            self._positions[status] = found
        return found

    @property
    def vanishing(self) -> tuple:
        """The candidates of the records with status "Zero", made once."""
        if self._vanishing is None:
            self._vanishing = tuple(map(self.candidate,
                                        self.positions("Zero")))
        return self._vanishing


class SearchOutcome(Frozen):
    """Everything one enumeration of Chern candidates established.

    `bound` and `rule` are required; `enumerated` defaults to 0, `records`
    (a sequence of CandidateRecords, one per admissible candidate: a
    RecordColumns view from survey_candidates) to (), `no_lift_degree`
    (the degree of a w class with no integral lift) to None and
    `complete` to False.  `admissible` and `vanishing` read the records
    as columns.
    """

    __slots__ = ("bound", "rule", "enumerated", "records", "no_lift_degree",
                 "complete")
    _defaults = {"enumerated": 0, "records": (), "no_lift_degree": None,
                 "complete": False}

    @property
    def admissible(self) -> int:
        return len(self.records)

    @property
    def vanishing(self) -> tuple:
        return RecordColumns.of(self.records).vanishing


# a candidate search predicted to build more candidates than this raises
# BudgetExceeded before it starts
CANDIDATE_CAP = 10 ** 6


def _final_criterion(rank: int) -> tuple[int, str] | None:
    # (k, rule) for the top-degree class q_k, which lives in degree 4k
    if rank == 4:
        return 1, "Wu's dimension-4 criterion (p1 - c1^2 + 2e = 4o)"
    if rank == 6:
        return 2, "rank-6 degree-8 criterion (c2^2 - 2 c1 e - p2 = 4o)"
    if rank % 4 == 0:
        return rank // 4, "Massey Theorem II (rank %d, k=%d)" % (rank, rank // 4)
    return None


def survey_candidates(data: BundleData, bound: int = 10) -> SearchOutcome:
    """Find the Chern candidates within `bound` and test each one.

    The survey's plan is its list of levels, one per index i below
    rank/2, each of one of two kinds:

      * an odd index is a _Lifts: the integral lifts of w_2i whose free
        coefficients lie in [-bound, bound], the spreads of lift_spreads,
        a lift being known by its index in them.  The first level is
        walked once, in lexicographic order of the coefficients, and
        streamed; a later one is listed once and read once per prefix;
      * an even index is a _Solved, not enumerated: Massey's intermediate
        identity q_j = 0 (j below the final index) holds c_2j only as
        2 c_2j, so per prefix c_2j runs over the solutions of 2 c_2j = -r,
        r being q_j with c_2j set to zero, that lift_test's test accepts
        as lifts of w_4j within the bound; its lift set is never listed.

    Each level carries its degree, `size`, the size of its lift set, and
    `predicted`, its factor of the work: the size for a _Lifts, and for a
    _Solved the 2^e solutions that 2x = y can have when its piece has e
    torsion coordinates of even order.  `enumerated` is the product of
    the sizes, which is reported but never iterated, and BudgetExceeded
    is raised before the walk when the product of the predictions exceeds
    CANDIDATE_CAP.  `complete` holds when no level has a free coordinate,
    so that the bound cut nothing off.

    The walk is depth first, on coefficient tuples, on a stack of its own.
    Every candidate it builds reduces to w and satisfies the intermediate
    identities by construction, and only its top-degree class q is
    evaluated, by square_sum, the formula chern_square_sum uses; at rank
    4k with k >= 2 the last class c_{2k-1} enters q only as
    -2 c_1 c_{2k-1}, so each lift x of it gets q = q0 - 2 M x, q0 being the
    class with c_{2k-1} = 0, made once per prefix, and M the matrix of
    multiplication by c_1 from degree 4k-2 to 4k, made once per c_1.
    Sums are reduced at the torsion coordinates once, at the end.

    The check rho4(q) = 0 and the pairing of q run once per value of q, on
    its reduced coefficients, when the value first occurs, so the first
    candidate whose q fails raises DivisibilityViolation.  The records
    are RecordColumns over the levels: per candidate, the index of each
    class in its level (a lift's index in its spreads, a solved class's
    number among those the records hold) and of its value of q, whose
    element, status and pairing are kept once; the status of q = 0 is
    read once per search.  Only the q elements are made here, and the
    elements of the vanishing candidates when they are read.  No record
    solves 4x = q: the witness is made once, for the printed verdict.
    Deterministic: candidates come out in lexicographic order of their
    coefficient vectors.
    """
    rank = data.rank
    final = _final_criterion(rank)
    if final is None:
        raise ValueError("no top-degree criterion for rank %d" % rank)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    k, rule = final
    rings = data.rings
    integral = rings.integral

    levels = []
    for i in range(1, rank // 2):
        found = (lift_spreads if i % 2 else lift_test)(
            rings, data.w_class(2 * i), bound)
        if found is None:
            return SearchOutcome(bound=bound, rule=rule, no_lift_degree=2 * i,
                                 complete=True)
        levels.append((_Lifts if i % 2 else _Solved)(integral, 2 * i, found))
    complete = all(o != 0 for level in levels
                   for o in integral.orders(level.degree))
    if math.prod(level.predicted for level in levels) > CANDIDATE_CAP:
        raise BudgetExceeded("candidate enumeration exceeded the cap %d"
                             % CANDIDATE_CAP)
    # the status of q = 0; no q exists above the cutoff
    top = 4 * k
    above = top > data.cutoff
    zero = ("Inconclusive" if not above and _annihilated_by(
        integral.orders(top), 4) else "Zero")
    torsion = () if above else [(i, o) for i, o in
                                enumerate(integral.orders(top)) if o]
    pairing = data.pairing
    values = (pairing.values if pairing is not None
              and pairing.degree == top else None)
    rho4 = None if above else rings.rho4.image(top)
    records = RecordColumns(levels)
    last_column, q_column = records.last, records.q

    def number(q):
        # the index in records.values of a new value of q, once checked
        key = tuple(q)
        q_element = _element(integral, top, key)
        if any(rho4(key)):
            _divisible(data, q_element)
        records.values.append((
            q_element, "NonZero" if any(key) else zero,
            None if values is None else sum(map(operator.mul, key, values))))
        index = seen[key] = len(records.values) - 1
        return index

    seen = {}  # each value of q -> its index in records.values
    linear = k >= 2 and rank % 4 == 0
    size = len(integral.orders(levels[-1].degree))
    # c_1 -> the entries (column, row, value) of -2 c_1 from degree 4k-2
    # to 4k, where q is linear in the last class
    times_c1 = {}
    unit, euler = (1,), data.euler.coeffs
    prefix, heads = [], []  # coefficients and indices of c_1..c_{i-1}
    # depth first on a stack of iterators of its own, so that the rank/2
    # - 1 levels take no frames of the caller's
    stack = [levels[0].choices(data, prefix)]
    while stack:
        i = len(stack)
        if i < len(levels):
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                continue
            del prefix[i - 1:], heads[i - 1:]
            prefix.append(step[0])
            heads.append(step[1])
            stack.append(levels[i].choices(data, prefix))
            continue
        # the last level: its records form one run of the columns
        start = len(q_column)
        c = [unit] + prefix
        if linear:
            q0 = square_sum(data, c + [(0,) * size, euler], k)
            c1 = prefix[0]
            entries = times_c1.get(c1)
            if entries is None:
                entries = times_c1[c1] = [
                    (j, t, -2 * v) for j in range(size)
                    for t, v in enumerate(product(
                        integral, 2, c1, 2 * i,
                        [int(j == s) for s in range(size)])) if v]
        for x, index in stack.pop():
            if linear:
                q = q0[:]
                for j, t, v in entries:
                    q[t] += x[j] * v
            else:
                q = square_sum(data, c + [x, euler], k)
            for t, o in torsion:
                q[t] %= o
            value = seen.get(tuple(q))
            last_column.append(index)
            q_column.append(number(q) if value is None else value)
        if len(q_column) > start:
            records.starts.append(start)
            for column, index in zip(records.heads, heads):
                column.append(index)
    return SearchOutcome(bound=bound, rule=rule,
                         enumerated=math.prod(level.size for level in levels),
                         records=records, complete=complete)


def _definite_form_certificate(data: BundleData, bound: int) -> str | None:
    """Why no rank-4 candidate outside `bound` can vanish, or None.

    A vanishing q = p1 - c1^2 + 2e pairs to zero, so Q(c1) = t with
    Q(x) = <x^2> on the free part of H^2 and t = <p1 + 2e>: c1 is
    characteristic and c1^2 = 2 chi + 3 sigma (Hirzebruch-Hopf, Wu).  When
    Q is definite by Sylvester's criterion, signs flipped so that it is
    positive, every solution has x_i^2 <= t (Q^-1)_ii, and none exists when
    t < 0.  The certificate holds when that radius is within the bound.
    """
    if data.rank != 4 or data.pairing is None or data.pairing.degree != 4:
        return None
    ring = data.rings.integral
    orders = ring.orders(2)
    gens = [ring.element(2, [int(j == i) for j in range(len(orders))])
            for i, o in enumerate(orders) if o == 0]
    rows = [[data.pair(x * y) for y in gens] for x in gens]
    t = data.pair(data.p_class(1) + 2 * data.euler)

    def minor(keep, sign):
        return IntMatrix.from_rows([[sign * rows[i][j] for j in keep]
                                    for i in keep]).determinant()

    m = len(gens)
    for sign, kind in ((1, "positive"), (-1, "negative")):
        if all(minor(range(k), sign) > 0 for k in range(1, m + 1)):
            break
    else:
        return None
    if sign * t < 0:
        return ("<c1^2> is %s definite and never equals <p1 + 2e> = %d"
                % (kind, t))
    det = minor(range(m), sign)
    radius = 0
    for i in range(m):
        # floor(sign t (Q^-1)_ii) with (Q^-1)_ii = minor_i / det, det > 0
        minor_i = minor([j for j in range(m) if j != i], sign)
        radius = max(radius, math.isqrt(sign * t * minor_i // det))
    if radius > bound:
        return None
    return ("<c1^2> is %s definite, so <c1^2> = <p1 + 2e> = %d bounds the "
            "coefficients of a vanishing c1 by %d" % (kind, t, radius))


def _aggregate_final(data: BundleData, outcome: SearchOutcome) -> Verdict:
    """The final verdict from the record statuses, read from the columns
    of the records without building one; a NonZero one makes here, once,
    the one witness it prints."""
    rule = outcome.rule
    if outcome.no_lift_degree is not None:
        i2 = outcome.no_lift_degree
        w_int = integral_sw(data, i2 // 2)
        witness = w_int if not w_int.is_zero else data.w_class(i2)
        return Verdict("NonZero", witness=canonical_witness(witness),
                       denominator=4,
                       note="%s: w%d admits no integral lift, so no reduction "
                            "reaches this degree" % (rule, i2))
    records = RecordColumns.of(outcome.records)
    tested = len(records)
    vanishing = len(records.positions("Zero"))
    if vanishing:
        return Verdict("Zero", denominator=4,
                       note="%s: obstruction vanishes for %d of %d candidates"
                            % (rule, vanishing, tested))
    if records.positions("Inconclusive"):
        return Verdict("Inconclusive", denominator=4,
                       note="%s: no vanishing candidate, but some verdicts are "
                            "inconclusive (%d tested)" % (rule, tested))
    # every candidate within the bound, if there is any, is NonZero
    certificate = None if outcome.complete else \
        _definite_form_certificate(data, outcome.bound)
    if not tested and certificate is None:
        return Verdict("Inconclusive", denominator=4,
                       note="%s: no admissible candidates within bound %d"
                            % (rule, outcome.bound))
    if not outcome.complete and certificate is None:
        return Verdict("Inconclusive", denominator=4,
                       note="%s: nonzero obstruction for every candidate within "
                            "bound %d (%d tested), but candidates outside it "
                            "are not ruled out"
                            % (rule, outcome.bound, tested))
    if tested:
        q = records.values[records.q[0]][0]
    else:
        # only the rank-4 certificate gets here: no c1 lies within the
        # bound, so none vanishes, and the q of any lift is a witness
        lift = any_integral_lift(data.rings, data.w_class(2))
        q = _divisible(data, chern_square_sum(
            data, ChernCandidate((lift,)), 1))
    note = ("%s: nonzero obstruction for every candidate (%d tested%s)"
            % (rule, tested,
               "" if certificate is None else "; " + certificate))
    # every value of q is that of some record
    pairings = {pairing for _, _, pairing in records.values}
    if len(pairings) == 1 and None not in pairings:
        note += "; q pairs to %d" % pairings.pop()
    return Verdict("NonZero", witness=_witness(q), denominator=4, note=note)


# -- the degree-4m lift construction ------------------------------------


def construct_w4m_lift(data: BundleData, m: int,
                       lifts: Sequence[RingElement]) -> RingElement:
    """Integral lift of w_{4m} built from lifts c_1..c_{2m-1} of w_2..w_{4m-2}.

    Returns the first half x of c_m^2 - p_m - 2 * sum_{j<m} c_j c_{2m-j}, in
    divide_by's order, with rho2(x) = w_{4m}; raises NoSolution when none
    reduces to w_{4m}.  Any two halves differ by a class killed by 2, and
    2 beta = 0 is a validated law, so a Bockstein correction x + beta(y)
    is itself a half: testing every half misses no lift it could reach.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if 4 * m > data.cutoff:
        raise DegreeError("degree %d exceeds cutoff %d" % (4 * m, data.cutoff))
    if len(lifts) != 2 * m - 1:
        raise ValueError("need %d lift classes c_1..c_%d, got %d"
                         % (2 * m - 1, 2 * m - 1, len(lifts)))
    rings = data.rings
    for i, ci in enumerate(lifts, start=1):
        if ci.ring != rings.integral or ci.degree != 2 * i:
            raise DataValidationError("c%d must be integral of degree %d"
                                      % (i, 2 * i))
        diff = rings.rho2(ci) - data.w_class(2 * i)
        if not diff.is_zero:
            raise DataValidationError("rho2(c%d) != w%d" % (i, 2 * i))

    cm = lifts[m - 1]
    rhs = cm * cm - data.p_class(m)
    for j in range(1, m):
        rhs = rhs - 2 * (lifts[j - 1] * lifts[2 * m - j - 1])

    w4m = data.w_class(4 * m).coeffs
    reduce = rings.rho2.image(4 * m)
    for c in quotients(2, rhs.coeffs, rhs.ring.orders(4 * m)):
        if tuple(reduce(c)) == w4m:
            return _element(rhs.ring, 4 * m, c)
    raise NoSolution("no integral lift of w%d arises from the given classes"
                     % (4 * m))


# -- homotopy of SO(2n)/U(n) --------------------------------------------


# the stable groups pi_q(SO(2n)/U(n)), q <= 2n-2, that are not zero, by
# q mod 8; every other residue has _TRIVIAL.  The descriptors are
# immutable, so every call shares them
_STABLE = {2: AbelianGroupDescriptor.free(1),
           6: AbelianGroupDescriptor.free(1),
           7: AbelianGroupDescriptor.cyclic(2),
           0: AbelianGroupDescriptor.cyclic(2)}
_TRIVIAL = AbelianGroupDescriptor.trivial()


def homotopy_group(n: int, q: int) -> AbelianGroupDescriptor:
    """pi_q(SO(2n)/U(n)) for 1 <= q <= 2n-1.

    Below the top (q <= 2n-2) the groups are stable and 8-periodic:
    Z in degrees 2 and 6 mod 8, Z/2 in degrees 7 and 0 mod 8, zero
    otherwise.  They are read from one module table of shared
    descriptors.  At q = 2n-1 the answer depends on n mod 4.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if q < 1 or q > 2 * n - 1:
        raise ValueError("q=%d outside the computed range 1..%d" % (q, 2 * n - 1))
    if q <= 2 * n - 2:
        return _STABLE.get(q % 8, _TRIVIAL)
    r = n % 4
    if r == 0:
        return AbelianGroupDescriptor(free_rank=1, torsion_factors=(2,))
    if r == 2:
        return AbelianGroupDescriptor.free(1)
    f = _factorial(n - 1)
    return AbelianGroupDescriptor.cyclic(f if r == 1 else f // 2)


# -- the full pipeline ---------------------------------------------------


class ObstructionReport(Frozen):
    """Everything `acs_verdict` established for one bundle.

    `status` is "clear", "obstructed" or "inconclusive"; `existence` is
    "admits", "excluded" or "undetermined".
    """

    __slots__ = ("rank", "base_dimension", "first", "theorem1", "final",
                 "search", "sole_obstruction", "wu_checks", "gaps", "notes",
                 "status", "existence")

    @property
    def final_rule(self) -> str | None:
        return None if self.search is None else self.search.rule


def _piece_trivial(data: BundleData, q: int) -> bool:
    if q > data.cutoff:
        return False
    return (len(data.rings.integral.basis(q)) == 0
            and len(data.rings.mod2.basis(q)) == 0)


def _aggregate_status(verdicts: Iterable[Verdict]) -> str:
    seen = [v.status for v in verdicts if v is not None]
    if any(s == "NonZero" for s in seen):
        return "obstructed"
    if any(s == "Inconclusive" for s in seen):
        return "inconclusive"
    return "clear"


def acs_verdict(data: BundleData, bound: int = 10) -> ObstructionReport:
    """Run every obstruction criterion the rank admits and assemble a report.

    `status` summarizes the tests that ran; `existence` additionally
    accounts for the degrees no implemented criterion covers (`gaps`), so
    a clear run with gaps stays "undetermined".  A negative bound raises
    ValueError whether or not a search would run.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    rank = data.rank
    n = rank // 2
    cutoff = data.cutoff
    dim = data.base_dimension
    notes = []
    gaps = []

    if rank == 2:
        first = (first_obstruction(data) if cutoff >= 3
                 else Verdict("Zero", note="degree 3 beyond the ring cutoff"))
        notes.append("oriented rank-2 bundles are complex line bundles")
        return ObstructionReport(
            rank=rank, base_dimension=dim, first=first,
            theorem1=(), final=None, search=None,
            sole_obstruction=False, wu_checks=data.wu_checks, gaps=(),
            notes=tuple(notes), status="clear", existence="admits")

    first = first_obstruction(data)

    theorem1 = []
    k = 1
    while 4 * k + 3 < rank:
        degree = 4 * k + 3
        if degree <= cutoff:
            theorem1.append((k, theorem1_obstruction(data, k)))
        elif dim is None or degree <= dim:
            gaps.append("degree %d lies beyond the ring cutoff %d"
                        % (degree, cutoff))
        k += 1
    theorem1 = tuple(theorem1)

    criterion = _final_criterion(rank)
    final = None
    search = None
    if criterion is not None:
        final_degree = 4 * criterion[0]
        if dim is not None and final_degree > dim:
            notes.append("final degree %d exceeds the base dimension %d; "
                         "nothing to check there" % (final_degree, dim))
        elif final_degree > cutoff:
            gaps.append("final degree %d lies beyond the ring cutoff %d"
                        % (final_degree, cutoff))
        else:
            search = survey_candidates(data, bound)
            final = _aggregate_final(data, search)

    sole = rank == 6 and dim is not None and dim <= 6
    if sole:
        notes.append("W3 is the sole obstruction for rank 6 over bases of "
                     "dimension <= 6")

    horizon = dim if dim is not None else cutoff
    if dim is None:
        gaps.append("base dimension not given; degrees assessed only up to "
                    "the cutoff %d" % cutoff)
    # every degree above the cutoff is a gap (rank <= cutoff puts it above
    # 2n), reported once for the whole range so that a large base
    # dimension costs nothing
    for q in range(4, min(horizon, cutoff) + 1):
        if rank == 6 and q in (7, 8):
            continue  # pi_6 of the fiber vanishes; degree 8 is the final test
        if q <= 2 * n:
            group = homotopy_group(n, q - 1)
            if group.is_trivial:
                continue
            if q % 4 == 3 and q < 2 * n:
                continue  # Theorem I row
            if q == 2 * n and rank % 4 == 0:
                if n % 4 == 0 and final is not None and final.status != "NonZero":
                    gap = ("Z/2 component of the degree-%d obstruction "
                           "undetected" % q)
                    gaps.append(gap)
                    final = Verdict(final.status, final.witness,
                                    final.denominator, final.note + "; " + gap)
                continue
            if _piece_trivial(data, q):
                continue
            if q == 2 * n:
                gaps.append("no top-degree criterion for rank %d" % rank)
            else:
                gaps.append("mod-2 obstruction in degree %d has no "
                            "implemented criterion" % q)
        else:
            if _piece_trivial(data, q):
                continue
            gaps.append("degree %d lies above the top covered degree" % q)
    above = cutoff + 1
    while rank == 6 and above in (7, 8):
        above += 1
    if above == horizon:
        gaps.append("degree %d lies above the top covered degree" % above)
    elif above < horizon:
        gaps.append("degrees %d to %d lie above the top covered degree"
                    % (above, horizon))

    verdicts = [first] + [v for _, v in theorem1] + ([final] if final else [])
    status = _aggregate_status(verdicts)
    if status == "obstructed":
        existence = "excluded"
    elif status == "clear" and not gaps:
        existence = "admits"
    else:
        existence = "undetermined"

    return ObstructionReport(
        rank=rank, base_dimension=dim, first=first,
        theorem1=theorem1, final=final, search=search,
        sole_obstruction=sole, wu_checks=data.wu_checks, gaps=tuple(gaps),
        notes=tuple(notes), status=status, existence=existence)
