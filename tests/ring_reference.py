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
without one was applied like any other.  Tests compare the ring under
test with these copies outcome by outcome and message by message.
"""

import itertools
import math

from acso import gradedring
from acso.gradedring import (
    ConfluenceError,
    DegreeError,
    GradedRing,
    RingError,
    _reduced,
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

    def _reduction(self, modulus: int) -> GradedRing:
        ring = GradedRing._reduction(self, modulus)
        ring.__class__ = ParentProductRing
        return ring
