"""Ring construction and element parsing as they were before rule caps
and basis-name lookups.

`ParentEnumerationRing._enumerate_monomials` and `_check_table_size` are
copies of `GradedRing`'s at the change that made the enumeration cap
exponents by pure powers and test every other rule once per prefix: each
exponent of each prefix is tested against every rule that ends at its
generator, on the whole prefix.  They differ only in reading TABLE_CAP
from `acso.gradedring` at call time, so that a test patching the cap
there patches it here too.  The odd-exponent masks that the enumeration
now carries were computed afterwards, per degree, by `_parity_masks`,
which is kept as it was and called for every degree at the end.
`from_terms` is `GradedRing.from_terms` at that change, which parsed and
rewrote every term, canonical basis names included.
`ParentProductRing._product_terms` and `_normal_form` are copies of
`GradedRing`'s before products of basis monomials were looked up: every
exponent sum was rewritten to its normal form, whether it was a basis
monomial or the ring had no rule with a right-hand side, and a rule
without one was applied like any other.  Its `_koszul` is the loop over
exponent tuples that signed every product and rewriting step before
signs were read off the odd-exponent masks, so the parent ring signs with
its own copy.  Its `_check_confluence` and `_check_table` are
`GradedRing`'s before a monomial order could prove termination and
before the order test was left out of rings that do not rewrite: every
multiple of every rule with a right-hand side is normalised, in every
degree, and the order test runs wherever a left factor has finite order.
`solve_mod2` is `_solve_mod2` of `acso.gradedring` before
each row was reduced by the pivots at its own set bits: it tests every
pivot.  `ParentScaleMap._check_scale` and `ParentScaleSystem._check_scales`
are the checks of scale maps and of their laws before they were asked
once per distinct order: the order test scans every degree with source
torsion, and each law is tested in every degree, on the set of that
degree's orders.  `lift_parities` is `_lift_parities` before it read the
answer off an odd scale: it eliminates over the columns of rho2 whatever
rho2 is.  Tests compare the code under test with these copies outcome by
outcome and message by message.
"""

import itertools
import math

from acso import gradedring
from acso.gradedring import (
    CoefficientMap,
    ConfluenceError,
    DegreeError,
    GradedRing,
    RingError,
    RingSystem,
    SignRuleError,
    TableTooLarge,
    _norm_coeff,
    _reduced,
    _solve_mod2,
    _table_too_large,
    format_exponents,
    parse_exponents,
    quote,
)


class ParentEnumerationRing(GradedRing):
    """A GradedRing whose basis is enumerated the way it was."""

    def _enumerate_monomials(self):
        TABLE_CAP = gradedring.TABLE_CAP  # read at call time, like the ring
        ending: list[list] = [[] for _ in self._degrees]
        for rule in self.presentation.rules:
            last = max(k for k, l in enumerate(rule.lhs) if l)
            ending[last].append(rule.lhs[:last + 1])
        prefixes: list = [((), 0, self.modulus)]
        for step, gen_order, lhss in zip(self._degrees, self._gen_orders,
                                         ending):
            grown = []
            for exps, d, order in prefixes:
                grown.append((exps + (0,), d, order))
                order = math.gcd(order, gen_order)
                if order == 1:
                    continue
                for e in range(1, (self.cutoff - d) // step + 1):
                    ext = exps + (e,)
                    if any(all(l <= x for l, x in zip(lhs, ext))
                           for lhs in lhss):
                        break
                    grown.append((ext, d + e * step, order))
                if len(grown) > TABLE_CAP:
                    raise _table_too_large(len(grown))
            self._check_table_size(grown)
            prefixes = grown
        basis: dict[int, list] = {d: [] for d in range(self.cutoff + 1)}
        orders: dict[int, list] = {d: [] for d in range(self.cutoff + 1)}
        for exps, d, order in prefixes:
            basis[d].append(exps)
            orders[d].append(order)
        self._basis = {d: tuple(v) for d, v in basis.items()}
        self._orders = {d: tuple(v) for d, v in orders.items()}
        self._torsion = {d: tuple((i, o) for i, o in enumerate(v) if o)
                         for d, v in orders.items()}
        self._index = {d: {m: i for i, m in enumerate(b)}
                       for d, b in self._basis.items()}
        self._masks = {}
        for d in self._basis:
            self._parity_masks(d)

    def _check_table_size(self, monomials):
        # the pairs with degree sum <= cutoff among (exps, degree, order)
        # basis monomials
        sizes = [0] * (self.cutoff + 1)
        for _, d, _ in monomials:
            sizes[d] += 1
        # below[k]: the number of those monomials of degree <= k
        below = list(itertools.accumulate(sizes))
        entries = sum(n * below[self.cutoff - d] for d, n in enumerate(sizes))
        if entries > gradedring.TABLE_CAP:
            raise _table_too_large(entries)

    def _parity_masks(self, degree: int) -> list[int]:
        # per basis monomial: the bits i of odd generators with an odd exponent
        out = self._masks.get(degree)
        if out is None:
            out = self._masks[degree] = [
                sum(1 << i for i, (e, o) in enumerate(zip(exps, self._odd))
                    if e & o)
                for exps in self._basis[degree]]
        return out


def from_terms(self, degree, terms):
    """Build an element from {monomial string: coefficient}.

    The normal form of each monomial, times its coefficient, is added
    into one coefficient list, which is reduced once at the end.
    """
    self._check_degree(degree)
    coeffs = [0] * len(self._basis[degree])
    for text, coeff in terms.items():
        try:
            exps = parse_exponents(self.names, text)
        except ValueError as exc:
            raise RingError(str(exc)) from None
        if self._exp_degree(exps) != degree:
            raise DegreeError(
                "monomial %s has degree %d, expected %d"
                % (quote(text), self._exp_degree(exps), degree))
        c = int(coeff)
        for k, v in self._terms(degree, self._normal_form(exps)):
            coeffs[k] += c * v
    return _reduced(self, degree, coeffs)


class ParentProductRing(GradedRing):
    """A GradedRing that rewrites the exponent sum of every product of
    basis monomials, as it did; its reductions do the same."""

    def _normal_form(self, exps) -> dict:
        cached = self._nf_cache.get(exps)
        if cached is not None:
            return cached
        if exps in self._nf_active:
            raise ConfluenceError(
                "rewriting does not terminate at %s"
                % format_exponents(self.names, exps))
        rule = self._first_rule(exps)
        if rule is None:
            result = {} if self._order_of(exps) == 1 else {exps: 1}
        else:
            self._nf_active.add(exps)
            try:
                acc = self._rewrite(exps, rule)
            finally:
                self._nf_active.discard(exps)
            result = {m: c for m, c in acc.items() if c}
        self._nf_cache[exps] = result
        return result

    def _koszul(self, a, b) -> int:
        # sign putting sorted(a)*sorted(b) into sorted(a + b)
        s = 0
        for j, bj in enumerate(b):
            if bj and self._odd[j]:
                for i in range(j + 1, len(a)):
                    if a[i] and self._odd[i]:
                        s += a[i] * bj
        return -1 if s & 1 else 1

    def _product_terms(self, d1: int, i: int, d2: int, j: int) -> tuple:
        key = (d1, i, d2, j)
        terms = self._products.get(key)
        if terms is not None:
            return terms
        a, b = self._basis[d1][i], self._basis[d2][j]
        nf = self._normal_form(tuple([x + y for x, y in zip(a, b)]))
        if self._koszul(a, b) < 0:
            nf = {m: -c for m, c in nf.items()}
        terms = self._products[key] = self._terms(d1 + d2, nf,
                                                  self._product_orders)
        return terms

    def _check_confluence(self):
        TABLE_CAP = gradedring.TABLE_CAP  # read at call time, like the ring
        # a monomial that no rule with a right-hand side divides rewrites
        # to 0 by every applicable rule, so nothing there can recurse,
        # disagree or leave the basis; the multiples s*lhs of the others
        # are normalised in order of degree, then exponents, and compared
        # under every other applicable rule where their degree has basis
        # monomials.  The work, one normal form per multiple and, where a
        # basis is, one test per rule, on that rule's support, is counted
        # before any multiple is normalised, and more than TABLE_CAP is
        # refused
        rules = self.presentation.rules
        multiples = set()
        by_budget: dict = {}  # budget -> _all_monomials(budget, TABLE_CAP)
        for rule in rules:
            if rule.rhs:
                budget = self.cutoff - self._exp_degree(rule.lhs)
                if budget not in by_budget:
                    by_budget[budget] = self._all_monomials(budget, TABLE_CAP)
                rests = by_budget[budget]
                if rests is not None:
                    multiples.update(
                        tuple(l + s for l, s in zip(rule.lhs, rest))
                        for rest in rests)
                if rests is None or len(multiples) > TABLE_CAP:
                    raise TableTooLarge(
                        "confluence check of more than %d multiples exceeds "
                        "the cap %d" % (TABLE_CAP, TABLE_CAP))
        empty = {d for d, basis in self._basis.items() if not basis}
        multiples = [(self._exp_degree(m), m) for m in multiples]
        compared = sum(d not in empty for d, _ in multiples)
        if len(multiples) + compared * len(rules) > TABLE_CAP:
            raise TableTooLarge(
                "confluence check of %d multiples, %d of them tested by %d "
                "rules, exceeds the cap %d"
                % (len(multiples), compared, len(rules), TABLE_CAP))
        for d, exps in sorted(multiples):
            # the normal form, by the first applicable rule, is the
            # termination check; in a degree without basis monomials every
            # vector is (), so no comparison there can fail
            normal = self._normal_form(exps)
            if d in empty:
                continue
            _, *rest = [rule for rule, support in self._supports
                        if all(exps[k] >= l for k, l in support)]
            canonical = self._vector(d, normal)
            for rule in rest:
                if self._vector(d, self._rewrite(exps, rule)) != canonical:
                    raise ConfluenceError(
                        "rules disagree on %s"
                        % format_exponents(self.names, exps))

    def _check_table(self):
        # by the Koszul identity k(a,b) k(b,a) = (-1)^(d1 d2 + D), D the sum
        # of a_i b_i over odd generators, ab and ba share a normal form and
        # their signs differ by (-1)^(d1 d2) unless D is odd.  So graded
        # commutativity, v12 = (-1)^(d1 d2) v21, fails only where D is odd
        # and 2 v12 != 0, and the order test only where o_left v12 != 0.
        # Zero vectors pass both tests.  The pairs are visited in the order
        # of a dense table, but a pair is looked up only where a test can
        # fail: 2 v12 or o_left v12 can be nonzero only if an order of the
        # product's degree does not divide 2 or o_left.  And an odd
        # generator is dead when a rule without right-hand side divides its
        # square: a shared dead generator puts that rule under the exponent
        # sum, whose normal form is then 0: _check_confluence compared
        # every rule on the multiples of the rules with a right-hand side
        # wherever a degree has basis monomials, and elsewhere every
        # vector is 0
        dead = 0
        for rule in self.presentation.rules:
            support = [k for k, l in enumerate(rule.lhs) if l]
            if not rule.rhs and len(support) == 1 and rule.lhs[support[0]] <= 2:
                dead |= 1 << support[0]
        masks = self._masks
        order_sets = {d: set(orders) for d, orders in self._orders.items()}

        def may_fail(factor, d):
            # factor * v can be nonzero in degree d
            return any(o == 0 or factor % o for o in order_sets[d])

        for d1 in range(self.cutoff + 1):
            rows = [(i, odd, o_left) for i, (odd, o_left)
                    in enumerate(zip(masks[d1], self._orders[d1]))
                    if odd & ~dead or o_left]
            if not rows:
                continue
            for d2 in range(self.cutoff + 1 - d1):
                d = d1 + d2
                orders = self._orders[d]
                if not (orders and masks[d2]):
                    continue  # no pair, or every product is ()
                for i, odd, o_left in rows:
                    sign_test = odd & ~dead and may_fail(2, d)
                    order_test = o_left and may_fail(o_left, d)
                    if not (sign_test or order_test):
                        continue
                    for j, odd2 in enumerate(masks[d2]):
                        shared = odd & odd2
                        if shared & dead:
                            continue
                        odd_d = sign_test and shared.bit_count() & 1
                        if not (odd_d or order_test):
                            continue
                        v12 = self._product_terms(d1, i, d2, j)
                        if not v12:
                            continue
                        if odd_d and any(_norm_coeff(2 * c, orders[k])
                                         for k, c in v12):
                            raise SignRuleError(
                                "product of %s and %s breaks graded "
                                "commutativity"
                                % (self.basis_strings(d1)[i],
                                   self.basis_strings(d2)[j]))
                        if order_test and any(_norm_coeff(o_left * c, orders[k])
                                              for k, c in v12):
                            raise RingError(
                                "product of %s and %s violates additive orders"
                                % (self.basis_strings(d1)[i],
                                   self.basis_strings(d2)[j]))

    def _reduction(self, modulus: int) -> GradedRing:
        ring = GradedRing._reduction(self, modulus)
        ring.__class__ = ParentProductRing
        return ring


def solve_mod2(columns, u, variables):
    """Parities p with sum_k p_k columns[variables[k]] = u over F2.

    Bit k of p is the parity of coordinate variables[k].  Returns None
    when there is no solution, else a particular solution and a basis of
    the kernel, as bit masks, from Gauss-Jordan elimination on the rows.
    """
    rows = [0] * len(u)
    for k, j in enumerate(variables):
        for i, x in columns[j].items():
            if x & 1:
                rows[i] |= 1 << k
    pivots: dict = {}  # pivot bit -> (row mask, right side), fully reduced
    for mask, b in zip(rows, u):
        b &= 1
        for bit, (pm, pb) in pivots.items():
            if mask & bit:
                mask ^= pm
                b ^= pb
        if not mask:
            if b:
                return None
            continue
        bit = mask & -mask
        for q, (pm, pb) in pivots.items():
            if pm & bit:
                pivots[q] = (pm ^ mask, pb ^ b)
        pivots[bit] = (mask, b)
    particular = sum(bit for bit, (_, b) in pivots.items() if b)
    kernel = []
    for k in range(len(variables)):
        free = 1 << k
        if free not in pivots:
            kernel.append(free | sum(bit for bit, (pm, _) in pivots.items()
                                     if pm & free))
    return particular, kernel


class ParentScaleMap(CoefficientMap):
    """A CoefficientMap whose scale is checked the way it was."""

    def _check_scale(self):
        s, source, target = self.scale, self.source, self.target
        if self.shift:
            if s:
                raise RingError("map %s: scale %d with shift %d; only the "
                                "zero map shifts degrees"
                                % (self.name, s, self.shift))
            return
        if source._basis is not target._basis:
            for d in self._span:
                if source.basis(d) != target.basis(d):
                    raise RingError(
                        "rings do not share a monomial basis in degree %d" % d)
        checked: set = set()
        for d in self._span:
            if not source._torsion[d]:
                continue
            pairs = set(zip(source._orders[d], target._orders[d])) - checked
            if any(o and _norm_coeff(o * s, t) for o, t in pairs):
                raise RingError(
                    "map %s does not respect additive orders in degree %d"
                    % (self.name, d))
            checked |= pairs


class ParentScaleSystem(RingSystem):
    """A RingSystem whose scale laws are checked degree by degree."""

    def _check_scales(self) -> None:
        r2, r4, t2, r24 = (self.rho2.scale, self.rho4.scale,
                           self.theta2.scale, self.rho24.scale)
        b = self.beta.scale
        cutoff = self.integral.cutoff
        for d in range(cutoff + 1):
            self._expect_scale(d, "theta2 . rho2 = rho4 . 2",
                               t2 * r2 - 2 * r4, self.mod4._orders[d])
            self._expect_scale(d, "rho24 . rho4 = rho2",
                               r24 * r4 - r2, self.mod2._orders[d])
            if d == cutoff:
                break
            up = self.integral._orders[d + 1]
            self._expect_scale(d + 1, "2 beta = 0", 2 * b, up)
            self._expect_scale(d + 1, "beta . rho2 = 0", b * r2, up)

    @staticmethod
    def _expect_scale(degree: int, law: str, difference: int, orders) -> None:
        if difference and any(_norm_coeff(difference, o) for o in set(orders)):
            raise RingError("identity %s fails in degree %d" % (law, degree))


def lift_parities(system, u, free=True):
    """Solve rho2(x) = u for the parities of x over F2.

    Every mod-2 order is 2, so rho2 sees the parity of each free and
    even-order coordinate of x and kills those of odd order.  free=False
    fixes the free parities to 0.  Returns the integral orders, the
    coordinates solved for, and _solve_mod2's answer.
    """
    if u.ring != system.mod2:
        raise RingError("lift source must be the mod-2 ring")
    orders = system.integral.orders(u.degree)
    seen = [j for j, o in enumerate(orders) if o % 2 == 0 and (o or free)]
    return orders, seen, _solve_mod2(system.rho2._columns(u.degree), u.coeffs,
                                     seen)
