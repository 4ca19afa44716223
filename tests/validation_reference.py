"""Bundle validation as it was, before it worked on coefficient tuples.

`ParentBundleData._validate` and `validate_wu_formula` are copies of
`BundleData._validate` and `validate_wu_formula` from `acso.obstruct` at
the change that moved them onto coefficient tuples, and `product` is the
product kernel of `acso.gradedring` at that change.  They build a
`RingElement` for every zero class, map image, sum and product, and they
compute every identity in every degree up to the cutoff, also where the
ring of the identity has no basis monomials.  Element products go through
`mul`, which reduces what the kept `product` returns, as
`RingElement.__mul__` did; the Pontryagin square goes through
`pontryagin_square`, which squares the lift with `mul`.  Tests compare
`BundleData` against `ParentBundleData` check by check and message by
message.  `pontryagin_square` and its `NoIntegralLift` live only here
since the package stopped using them; the squaring tests of
test_gradedring.py import them from here.
"""

from collections.abc import Sequence

from acso.gradedring import (
    DegreeError,
    GradedRing,
    RingElement,
    RingError,
    RingSystem,
    _reduced,
    any_integral_lift,
)
from acso.obstruct import BundleData, DataValidationError, WuCheck


def product(ring: GradedRing, d1: int, a: Sequence[int], d2: int,
            b: Sequence[int]) -> list[int]:
    """The coefficients of the product of two homogeneous elements, given
    by their degrees and coefficients, not yet reduced.

    This is the one product loop: RingElement.__mul__ reduces its result,
    and the Chern-candidate survey adds products up before reducing once.
    Each pair of nonzero coefficients adds their product times the terms
    of its pair of basis monomials, which are computed on first use.
    """
    d = d1 + d2
    if d > ring.cutoff:
        raise DegreeError(
            "product degree %d exceeds cutoff %d" % (d, ring.cutoff))
    products = ring._products
    right = [(j, y) for j, y in enumerate(b) if y]
    coeffs = [0] * len(ring._basis[d])
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in right:
            terms = products.get((d1, i, d2, j))
            if terms is None:
                terms = ring._product_terms(d1, i, d2, j)
            xy = x * y
            for k, v in terms:
                coeffs[k] += xy * v
    return coeffs


def mul(x: RingElement, y: RingElement) -> RingElement:
    """x * y as RingElement.__mul__ computed it, through `product`."""
    return _reduced(x.ring, x.degree + y.degree,
                    product(x.ring, x.degree, x.coeffs, y.degree, y.coeffs))


class NoIntegralLift(RingError):
    """A mod-2 class has no integral preimage."""


def pontryagin_square(system: RingSystem, u: RingElement) -> RingElement:
    """rho4 of the square of any integral lift of u.

    On classes that lift, the value is independent of the chosen lift:
    (x + 2k)^2 = x^2 + 4(kx + k^2) and the correction dies mod 4.
    Raises NoIntegralLift when u has no integral preimage.
    """
    lift = any_integral_lift(system, u)
    if lift is None:
        raise NoIntegralLift(
            "no integral lift in degree %d" % u.degree)
    return system.rho4(mul(lift, lift))


class ParentBundleData(BundleData):
    """A BundleData validated the way it was."""

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

        diff = rings.rho2(self.euler) - self.w_class(self.rank)
        if not diff.is_zero:
            raise DataValidationError(
                "rho2(e) != w%d, discrepancy %s" % (self.rank, diff))
        for k in range(1, cutoff // 4 + 1):
            w2k = self.w_class(2 * k)
            diff = rings.rho2(self.p_class(k)) - mul(w2k, w2k)
            if not diff.is_zero:
                raise DataValidationError(
                    "rho2(p%d) != w%d^2, discrepancy %s" % (k, 2 * k, diff))

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


def validate_wu_formula(data: BundleData, m: int) -> WuCheck:
    """Check P(w_{2m}) = rho4(p_m) + theta2(sum_{j<m} w_{2j} w_{4m-2j}).

    P is the Pontryagin square.  When w_{2m} admits no integral lift the
    square is not computed here and the check is skipped with a note.
    """
    if m < 1 or 4 * m > data.cutoff:
        raise ValueError("m=%d out of range for cutoff %d" % (m, data.cutoff))
    rings = data.rings
    w2m = data.w_class(2 * m)
    try:
        lhs = pontryagin_square(rings, w2m)
    except NoIntegralLift:
        return WuCheck(m, "skipped",
                       note="w%d has no integral lift" % (2 * m))
    acc = rings.mod2.zero(4 * m)
    for j in range(m):
        acc = acc + mul(data.w_class(2 * j), data.w_class(4 * m - 2 * j))
    rhs = rings.rho4(data.p_class(m)) + rings.theta2(acc)
    diff = lhs - rhs
    if diff.is_zero:
        return WuCheck(m, "ok")
    return WuCheck(m, "failed", discrepancy=diff,
                   note="Pontryagin square of w%d disagrees with p%d" % (2 * m, m))
