"""Finitely presented graded-commutative rings with exact coefficients.

A ring here is presented by generators with degrees and additive orders,
a global coefficient modulus (0, 2, or 4), homogeneous rewrite rules for
products of generators, and a degree cutoff.  Monomial bases per degree
are enumerated once; products are computed through confluent rewriting
with Koszul signs, so odd-degree generators anticommute the way graded
commutativity demands.

Only basis monomials are enumerated: an exponent prefix stops growing as
soon as a rule divides it.  Confluence is checked only on the multiples
of rules with a right-hand side, since every other reducible monomial
rewrites to 0: each multiple is normalised, which shows that rewriting
terminates, and its other applicable rules are compared only in degrees
with basis monomials, since elsewhere every vector is 0.  No product
table is built: the product of two basis monomials is computed the
first time the pair is asked and kept, as the sparse terms of the Koszul
sign times the normal form of the exponent sum; normal forms are kept
per exponent tuple, so pairs with one sum share one.  Elements reduce
only their torsion coordinates.  The checks of graded commutativity and
additive orders look up only the pairs on which they can fail, so
building an exterior algebra computes no product at all.  Construction
scales with the basis rather than with the truncated set of all
exponent tuples or the pairs of basis monomials.

On top of single rings, a RingSystem bundles an integral ring with its
mod-2 and mod-4 reductions plus the standard coefficient maps (rho2,
rho4, theta2, rho24, the Bockstein beta, and Sq^1) and checks the
compatibilities between them, e.g. theta2(rho2(z)) = rho4(2z).  Maps
given degree by degree are stored as sparse columns, and the laws are
checked column by column.  For a torsion-free presentation the
reductions are derived from the integral ring, which is built once, and
every map is a scale times the identity on the one shared basis (the
zero map for beta and Sq^1): it stores the scale, and the laws are
checked on the scales, once per degree and distinct target order.  The
operations at the bottom of the module (divide_by and its coefficient
form quotients, integral lifts, Pontryagin squares) are what the
obstruction evaluator consumes; the mod-2 equations among them are
solved over F2 from the columns of rho2, built per degree when read.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from collections.abc import Iterator, Mapping, Sequence

from .intlin import Frozen, set_field


class RingError(Exception):
    """Base class for structural problems in a ring or map."""


class DegreeError(RingError):
    """An operation left the degree range the presentation covers."""


class ConfluenceError(RingError):
    """The rewrite rules do not define a unique normal form."""


class SignRuleError(RingError):
    """A product of basis monomials violates graded commutativity."""


class NoIntegralLift(RingError):
    """A mod-2 class has no integral preimage."""


class TableTooLarge(RingError):
    """A ring's checks could visit more than TABLE_CAP pairs of monomials,
    or its confluence check would take more than TABLE_CAP steps: a normal
    form per multiple of a rule, and a test per rule and multiple in the
    degrees with basis monomials."""


class TooManyLifts(RingError):
    """A lift search would return more than LIFT_CAP lifts."""


# the most pairs of basis monomials (the entries of a dense product table)
# that the construction checks of a ring may visit, T^10 (616,666) fitting,
# and the most steps of its confluence check (normal forms and rule tests)
TABLE_CAP = 10 ** 6
# the most lifts lift_spreads spreads over a bound, so the most that
# lift_coefficients and integral_lifts return or `acso lifts` writes
LIFT_CAP = 10 ** 6
# the most characters of an offending value that an error message quotes
QUOTE_CAP = 64


def cut(text: str) -> str:
    """text for an error message, cut after QUOTE_CAP characters."""
    if len(text) > QUOTE_CAP:
        text = text[:QUOTE_CAP] + "..."
    return text


def quote(value) -> str:
    """repr(value) for an error message, cut after QUOTE_CAP characters."""
    return cut(repr(value))


def _table_too_large(entries: int) -> TableTooLarge:
    return TableTooLarge("product table of at least %d entries exceeds the "
                         "cap %d" % (entries, TABLE_CAP))


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class Generator(Frozen):
    """Ring generator: additive order 0 means infinite order."""

    __slots__ = ("name", "degree", "order")

    def __init__(self, name: str, degree: int, order: int = 0):
        if not _NAME_RE.match(name):
            raise ValueError("bad generator name %s" % quote(name))
        if degree < 1:
            raise ValueError("generator degree must be positive")
        if order < 0 or order == 1:
            raise ValueError("generator order must be 0 or >= 2")
        set_field(self, "name", name)
        set_field(self, "degree", degree)
        set_field(self, "order", order)


class RewriteRule(Frozen):
    """lhs is an exponent tuple; rhs a sum of (coefficient, exponent tuple)."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: tuple[int, ...],
                 rhs: tuple[tuple[int, tuple[int, ...]], ...] = ()):
        lhs = tuple(int(e) for e in lhs)
        rhs = tuple((int(c), tuple(int(e) for e in m)) for c, m in rhs)
        if not any(lhs):
            raise ValueError("rewrite rule with trivial left-hand side")
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


class RingPresentation(Frozen):
    __slots__ = ("modulus", "cutoff", "generators", "rules")

    def __init__(self, modulus: int, cutoff: int,
                 generators: tuple[Generator, ...],
                 rules: tuple[RewriteRule, ...] = ()):
        set_field(self, "modulus", modulus)
        set_field(self, "cutoff", cutoff)
        set_field(self, "generators", tuple(generators))
        set_field(self, "rules", tuple(rules))
        if modulus not in (0, 2, 4):
            raise ValueError("modulus must be 0, 2, or 4")
        if cutoff < 0:
            raise ValueError("negative cutoff")
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        width = len(self.generators)
        for rule in self.rules:
            if len(rule.lhs) != width:
                raise ValueError("rule arity differs from generator count")
            d = self._exp_degree(rule.lhs)
            for coeff, mon in rule.rhs:
                if len(mon) != width:
                    raise ValueError("rule arity differs from generator count")
                if self._exp_degree(mon) != d:
                    raise ValueError("rewrite rule is not homogeneous")

    def _exp_degree(self, exps) -> int:
        return sum(e * g.degree for e, g in zip(exps, self.generators))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)


def format_exponents(names: Sequence[str], exps: Sequence[int]) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts) if parts else "1"


def parse_exponents(names: Sequence[str], text: str) -> tuple[int, ...]:
    """Inverse of format_exponents; raises ValueError on unknown names."""
    index = {n: i for i, n in enumerate(names)}
    exps = [0] * len(names)
    text = text.strip()
    if text == "1":
        return tuple(exps)
    for factor in text.split("*"):
        factor = factor.strip()
        if "^" in factor:
            name, _, power = factor.partition("^")
            name = name.strip()
            try:
                e = int(power)
            except ValueError:  # not a number: as bad as a power below 1
                e = 0
            if e < 1:
                raise ValueError("bad exponent in %s" % quote(factor))
        else:
            name, e = factor, 1
        if name not in index:
            raise ValueError("unknown generator %s" % quote(name))
        exps[index[name]] += e
    return tuple(exps)


def _norm_coeff(c: int, order: int) -> int:
    return c % order if order else c


class GradedRing:
    """Graded-commutative ring truncated above a degree cutoff.

    Construction refuses a cutoff with more than TABLE_CAP degree pairs,
    enumerates monomial bases while counting the pairs of the monomials
    found so far against TABLE_CAP, counts the steps of the confluence
    check against TABLE_CAP before it verifies that the rewrite rules are
    confluent inside the truncation, and checks graded commutativity and
    the additive orders on the pairs of basis monomials where they can
    fail.  A presentation that survives construction is safe to compute
    in.  Products of basis monomials are computed on demand and memoised
    (_product_terms).
    """

    def __init__(self, presentation: RingPresentation):
        self._set_presentation(presentation)
        # each rule with the (generator, exponent) pairs of its left-hand
        # side's support; it divides exps when exps[k] >= l for every pair
        self._supports = tuple(
            (rule, tuple((k, l) for k, l in enumerate(rule.lhs) if l))
            for rule in presentation.rules)
        self._basis_names: dict = {}
        self._name_order: dict = {}
        self._nf_cache: dict = {}
        self._nf_active: set = set()
        self._masks: dict = {}  # degree -> odd-exponent masks of its basis
        self._products: dict = {}  # (d1, i, d2, j) -> sparse product terms
        self._check_cutoff()
        self._enumerate_monomials()
        try:
            self._check_confluence()
        except RecursionError:
            # each rewriting step nests two calls of _normal_form/_rewrite,
            # so a chain of rules as long as about half the interpreter's
            # recursion limit cannot be followed
            raise RingError("rewriting nests too deeply to check confluence; "
                            "the rules chain too many steps") from None
        self._check_table()

    # -- presentation machinery -------------------------------------------

    def _set_presentation(self, presentation: RingPresentation):
        self.presentation = presentation
        self.cutoff = presentation.cutoff
        self.modulus = presentation.modulus
        self.generators = presentation.generators
        self.names = presentation.names
        self._degrees = tuple(g.degree for g in self.generators)
        self._gen_orders = tuple(g.order for g in self.generators)
        self._odd = tuple(d % 2 for d in self._degrees)

    def _exp_degree(self, exps) -> int:
        return sum(e * d for e, d in zip(exps, self._degrees))

    def _order_of(self, exps) -> int:
        g = self.modulus
        for e, o in zip(exps, self._gen_orders):
            if e:
                g = math.gcd(g, o)
        return g

    def _check_cutoff(self):
        # _check_table may visit every degree pair (d1, d2) with d1 + d2 <=
        # cutoff, so the cutoff alone bounds the work before any monomial
        pairs = (self.cutoff + 1) * (self.cutoff + 2) // 2
        if pairs > TABLE_CAP:
            raise TableTooLarge(
                "cutoff %d gives %d degree pairs, more than the cap %d"
                % (self.cutoff, pairs, TABLE_CAP))

    def _enumerate_monomials(self):
        # extend exponent prefixes one generator at a time, each carrying
        # its degree and additive order.  A rule whose last nonzero
        # exponent belongs to generator k divides a tuple exactly when it
        # divides the tuple's prefix through k.  Raising that exponent
        # keeps the rule dividing, and an order of 1 stays 1, so a prefix
        # stops growing at the first exponent that makes it reducible or
        # zero: only basis monomials are built, in lexicographic order.
        # Each prefix padded with zeros is a distinct basis monomial m, so
        # the pairs of the prefixes are among the pairs _check_table may
        # visit, which hold 1*m for every m: too many pairs show before the
        # basis is done
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

    def _check_table_size(self, monomials):
        # the pairs with degree sum <= cutoff among (exps, degree, order)
        # basis monomials
        sizes = [0] * (self.cutoff + 1)
        for _, d, _ in monomials:
            sizes[d] += 1
        # below[k]: the number of those monomials of degree <= k
        below = list(itertools.accumulate(sizes))
        entries = sum(n * below[self.cutoff - d] for d, n in enumerate(sizes))
        if entries > TABLE_CAP:
            raise _table_too_large(entries)

    def _first_rule(self, exps) -> RewriteRule | None:
        for rule, support in self._supports:
            if all(exps[k] >= l for k, l in support):
                return rule
        return None

    def _koszul(self, a, b) -> int:
        # sign putting sorted(a)*sorted(b) into sorted(a + b)
        s = 0
        for j, bj in enumerate(b):
            if bj and self._odd[j]:
                for i in range(j + 1, len(a)):
                    if a[i] and self._odd[i]:
                        s += a[i] * bj
        return -1 if s & 1 else 1

    def _parity_masks(self, degree: int) -> list[int]:
        # per basis monomial: the bits i of odd generators with an odd exponent
        out = self._masks.get(degree)
        if out is None:
            out = self._masks[degree] = [
                sum(1 << i for i, (e, o) in enumerate(zip(exps, self._odd))
                    if e & o)
                for exps in self._basis[degree]]
        return out

    def _apply_rule(self, exps, rule):
        rem = tuple(e - l for e, l in zip(exps, rule.lhs))
        s0 = self._koszul(rule.lhs, rem)
        out = []
        for coeff, mon in rule.rhs:
            s1 = self._koszul(mon, rem)
            out.append((coeff * s0 * s1, tuple(m + r for m, r in zip(mon, rem))))
        return out

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

    def _rewrite(self, exps, rule) -> dict:
        acc: dict = {}
        for coeff, mon in self._apply_rule(exps, rule):
            for m2, c2 in self._normal_form(mon).items():
                acc[m2] = acc.get(m2, 0) + coeff * c2
        return acc

    def _terms(self, degree: int, combo: Mapping) -> tuple:
        # the nonzero (index, coefficient) pairs of combo in the degree
        # basis, in index order; the monomials of combo are distinct, so
        # each gives at most one pair
        orders = self._orders[degree]
        index = self._index[degree]
        out = []
        for mon, c in combo.items():
            k = index.get(mon)
            if k is not None:
                c = _norm_coeff(c, orders[k])
                if c:
                    out.append((k, c))
            elif self._order_of(mon) != 1:
                raise RingError("normal form left the basis in degree %d" % degree)
        out.sort()
        return tuple(out)

    def _vector(self, degree: int, combo: Mapping) -> tuple[int, ...]:
        coeffs = [0] * len(self._orders[degree])
        for k, c in self._terms(degree, combo):
            coeffs[k] = c
        return tuple(coeffs)

    def _all_monomials(self, budget: int, limit: int) -> list | None:
        # every exponent tuple of degree <= budget, in lexicographic order,
        # or None as soon as there are more than limit of them: a prefix
        # grows into at least one tuple, so the count never falls
        prefixes: list = [((), 0)]
        for step in self._degrees:
            grown: list = []
            for exps, d in prefixes:
                grown.extend((exps + (e,), d + e * step)
                             for e in range((budget - d) // step + 1))
                if len(grown) > limit:
                    return None
            prefixes = grown
        return [exps for exps, _ in prefixes]

    def _check_confluence(self):
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
        masks = {d: self._parity_masks(d) for d in self._basis}
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

    def _reduction(self, modulus: int) -> "GradedRing":
        """The mod-`modulus` ring of this torsion-free integral ring.

        It is built without rewriting.  Rewriting never reduces a
        coefficient and only _terms does, so every normal form mod m is
        the integral one reduced: basis, index, odd-exponent masks and
        normal forms are shared, every order is m (so every coordinate is
        a torsion coordinate), and _terms reduces a product mod m the
        first time its pair is asked.  The checks that passed over Z
        therefore hold mod m.
        """
        # attributes are set one by one, as in __init__: copying __dict__
        # would give both rings slower attribute access on the hot path
        ring = object.__new__(GradedRing)
        pres = self.presentation
        ring._set_presentation(RingPresentation(
            modulus, pres.cutoff, pres.generators, pres.rules))
        ring._supports = self._supports
        ring._basis_names = self._basis_names
        ring._name_order = self._name_order
        ring._nf_cache = self._nf_cache
        ring._nf_active = set()
        ring._masks = self._masks
        ring._products = {}
        ring._basis = self._basis
        ring._orders = {d: (modulus,) * len(basis)
                        for d, basis in self._basis.items()}
        ring._torsion = {d: tuple((i, modulus) for i in range(len(basis)))
                         for d, basis in self._basis.items()}
        ring._index = self._index
        return ring

    # -- public API --------------------------------------------------------

    def basis(self, degree: int) -> tuple[tuple[int, ...], ...]:
        self._check_degree(degree)
        return self._basis[degree]

    def orders(self, degree: int) -> tuple[int, ...]:
        self._check_degree(degree)
        return self._orders[degree]

    def basis_strings(self, degree: int) -> tuple[str, ...]:
        """Names of the degree-d basis monomials, computed once per degree.

        The derived mod-m rings share them with their integral ring.
        """
        names = self._basis_names.get(degree)
        if names is None:
            names = self._basis_names[degree] = tuple(
                format_exponents(self.names, m) for m in self.basis(degree))
        return names

    def basis_string_order(self, degree: int) -> tuple[int, ...]:
        """Indices of the degree-d basis sorted by their monomial names.

        Computed once per degree and shared with the derived mod-m rings,
        as basis_strings is; reports and space files list terms this way.
        """
        order = self._name_order.get(degree)
        if order is None:
            names = self.basis_strings(degree)
            order = self._name_order[degree] = tuple(
                sorted(range(len(names)), key=names.__getitem__))
        return order

    def _check_degree(self, degree: int):
        if not 0 <= degree <= self.cutoff:
            raise DegreeError("degree %d outside [0, %d]" % (degree, self.cutoff))

    def element(self, degree: int, coeffs: Sequence[int]) -> "RingElement":
        return RingElement(self, degree, coeffs)

    def zero(self, degree: int) -> "RingElement":
        self._check_degree(degree)
        return _element(self, degree, (0,) * len(self._basis[degree]))

    def unit(self) -> "RingElement":
        # the degree-0 basis is the empty monomial alone, as no rule has a
        # trivial left-hand side, so 1 needs no normal form.  It is not
        # cached: a ring holding an element that refers back to it would
        # be freed only by the cyclic garbage collector
        return _element(self, 0, (1,))

    def monomial(self, exps: Sequence[int]) -> "RingElement":
        exps = tuple(int(e) for e in exps)
        if len(exps) != len(self.generators) or any(e < 0 for e in exps):
            raise RingError("bad exponent tuple %r" % (exps,))
        d = self._exp_degree(exps)
        self._check_degree(d)
        return _element(self, d, self._vector(d, self._normal_form(exps)))

    def from_terms(self, degree: int, terms: Mapping[str, int]) -> "RingElement":
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

    def _product_terms(self, d1: int, i: int, d2: int, j: int) -> tuple:
        # basis monomial i of degree d1 times basis monomial j of degree
        # d2, d1 + d2 <= cutoff: the Koszul sign times the normal form of
        # the exponent sum, as sparse (index, coefficient) terms in degree
        # d1 + d2, computed the first time the pair is asked and memoised
        key = (d1, i, d2, j)
        terms = self._products.get(key)
        if terms is not None:
            return terms
        a, b = self._basis[d1][i], self._basis[d2][j]
        nf = self._normal_form(tuple([x + y for x, y in zip(a, b)]))
        if self._koszul(a, b) < 0:
            nf = {m: -c for m, c in nf.items()}
        terms = self._products[key] = self._terms(d1 + d2, nf)
        return terms

    def __eq__(self, other):
        return self is other or (isinstance(other, GradedRing)
                                 and self.presentation == other.presentation)

    def __hash__(self):
        return hash(self.presentation)

    def __repr__(self):
        return "GradedRing(modulus=%d, cutoff=%d, generators=%s)" % (
            self.modulus, self.cutoff, ",".join(self.names))


class RingElement:
    """Homogeneous element, stored as coefficients over the degree basis.

    The constructor validates: it takes any integer sequence of the
    degree's length and reduces it.  Only the torsion coordinates are
    reduced, the (index, order) pairs that the ring lists once per degree;
    a free coordinate is kept as the integer it is, and in the derived
    mod-m rings every coordinate is a torsion coordinate of order m.  The
    results of the ring's own arithmetic (+, -, negation, scalar and ring
    products, CoefficientMap application, divide_by and integral_lifts)
    are reduced the same way but skip the validation, since their
    coefficients are integers of the right length already.  A ring
    product reduces what the kernel `product` returns.  Loops that make
    many products, such as the Chern-candidate survey, call `product` and
    the map's `image` on coefficient tuples, and make elements only for
    what they keep.  str() is
    `text` over the names of the degree's basis, the one formatter that
    `acso lifts` also writes its lines with.
    """

    __slots__ = ("ring", "degree", "coeffs")

    def __init__(self, ring: GradedRing, degree: int, coeffs: Sequence[int]):
        orders = ring.orders(degree)
        if len(coeffs) != len(orders):
            raise RingError(
                "expected %d coefficients in degree %d, got %d"
                % (len(orders), degree, len(coeffs)))
        coeffs = list(map(int, coeffs))
        for i, o in ring._torsion[degree]:
            coeffs[i] %= o
        self.ring = ring
        self.degree = degree
        self.coeffs = tuple(coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _require_peer(self, other):
        if not isinstance(other, RingElement) or other.ring != self.ring:
            raise RingError("operands live in different rings")
        if other.degree != self.degree:
            raise DegreeError("operands live in different degrees")

    def __add__(self, other):
        self._require_peer(other)
        return _reduced(self.ring, self.degree,
                        [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._require_peer(other)
        return _reduced(self.ring, self.degree,
                        [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return _reduced(self.ring, self.degree, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return _reduced(self.ring, self.degree,
                            [other * c for c in self.coeffs])
        if not isinstance(other, RingElement) or other.ring != self.ring:
            raise RingError("operands live in different rings")
        return _reduced(self.ring, self.degree + other.degree,
                        product(self.ring, self.degree, self.coeffs,
                                other.degree, other.coeffs))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self.ring.unit()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, RingElement) and self.ring == other.ring
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def term_strings(self) -> dict[str, str]:
        """Nonzero coefficients as decimal strings, sorted by monomial.

        This is the form in which reports and space files store an element.
        """
        names = self.ring.basis_strings(self.degree)
        coeffs = self.coeffs
        return {names[i]: str(coeffs[i])
                for i in self.ring.basis_string_order(self.degree)
                if coeffs[i]}

    def __str__(self):
        return text(self.ring.basis_strings(self.degree), self.coeffs)

    def __repr__(self):
        return "<%s in degree %d>" % (self, self.degree)


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


def _element(ring: GradedRing, degree: int, coeffs: tuple) -> RingElement:
    # an element whose coefficients are a reduced tuple of the right length
    x = object.__new__(RingElement)
    x.ring = ring
    x.degree = degree
    x.coeffs = coeffs
    return x


def _reduced(ring: GradedRing, degree: int, coeffs: list) -> RingElement:
    # an element from a list of integers of the right length, reduced in
    # place at the torsion coordinates
    for i, o in ring._torsion[degree]:
        coeffs[i] %= o
    return _element(ring, degree, tuple(coeffs))


def term(name: str, c: int) -> str:
    """One nonzero term as it follows another: " + 3*a*b", " - a", " + 2"."""
    sign = " - " if c < 0 else " + "
    c = abs(c)
    if name == "1":
        return "%s%d" % (sign, c)
    if c == 1:
        return sign + name
    return "%s%d*%s" % (sign, c, name)


def leading(t: str) -> str:
    """A term of `term` as the first of its text: "3*a*b", "-a", "2"."""
    return t[3:] if t[1] == "+" else "-" + t[3:]


def text(names: Sequence[str], coeffs: Sequence[int]) -> str:
    """The text of the element with these coefficients over these names.

    The nonzero terms come in basis order as `3*a*b`, `a` or `-a`, joined
    by " + " or " - "; the degree-0 monomial `1` shows its coefficient
    alone, and an element without terms is `0`.  Each term is built with
    the sign that joins it to the one before, and only the first term's
    sign is then fixed.
    """
    terms = [term(names[i], c) for i, c in enumerate(coeffs) if c]
    if not terms:
        return "0"
    terms[0] = leading(terms[0])
    return "".join(terms)


# a map in one degree: per source basis monomial, {target row: coefficient}
Columns = Sequence[Mapping[int, int]]


def _normalised(column: Mapping[int, int], orders: Sequence[int]) -> dict:
    """The nonzero entries of a column, each reduced by its row's order."""
    out = {}
    for i, c in column.items():
        o = orders[i]
        if o:
            c %= o
        if c:
            out[i] = c
    return out


def _combine(columns: Columns, coeffs: Mapping[int, int]) -> dict:
    """The sum of c * columns[k] over the entries (k, c) of coeffs."""
    acc: dict = {}
    for k, c in coeffs.items():
        for i, x in columns[k].items():
            acc[i] = acc.get(i, 0) + c * x
    return acc


class CoefficientMap:
    """Additive degree-shifting map between rings: sparse columns, or a scale.

    In source degree d the map has one column per source basis monomial.
    A column is a dict {row: coefficient} over the target basis monomials
    in degree d + shift, and it holds only the coefficients that are
    nonzero once reduced by the additive order of their row.  Degrees
    whose image would exceed the target cutoff are undefined.

    A column map is given, per degree, a sequence of column mappings
    {row: coefficient}, one per source basis monomial, which is what a
    space file's rows are read into.  They are normalised here, and the
    map must send each source monomial of finite order o to a target
    element killed by o.  Building, applying, composing and comparing
    maps costs time linear in the nonzero entries, and the lift solver
    reads the columns of rho2 directly.

    A scale map (scaled_identity) is `scale` times the identity on a
    basis its two rings share, and stores the scale alone.  Its
    construction checks, once per degree, that the bases agree (at no
    cost when both rings hold one basis object, as the reductions of
    RingSystem.with_reduction_defaults do) and that the scale respects
    additive orders, once per distinct pair of source and target orders.
    Applying it multiplies by the scale and reduces the torsion rows.
    Its columns, scale * e_j reduced by the row orders, are built one
    degree at a time, the first time something reads them.  A nonzero
    scale needs shift 0, so a scale map of nonzero shift is the zero map.
    `scale` is None for a column map.
    """

    def __init__(self, name: str, source: GradedRing, target: GradedRing,
                 shift: int,
                 matrices: Mapping[int, Columns] | None = None,
                 scale: int | None = None):
        self.name = name
        self.source = source
        self.target = target
        self.shift = shift
        self.scale = scale
        # the source degrees whose image lies inside the target's cutoff
        self._span = range(max(0, -shift),
                           min(source.cutoff, target.cutoff - shift) + 1)
        self._cols: dict[int, tuple[dict, ...]] = {}
        if scale is not None:
            self._check_scale()
            return
        given = dict(matrices or {})
        for d in self._span:
            td = d + shift
            rows = len(target.basis(td))
            cols = len(source.basis(d))
            M = given.pop(d, None)
            if M is None:
                self._cols[d] = tuple({} for _ in range(cols))
                continue
            if len(M) != cols or any(not 0 <= i < rows
                                     for col in M for i in col):
                raise RingError(
                    "map %s: columns in degree %d should be %d over %d rows"
                    % (name, d, cols, rows))
            t_orders = target.orders(td)
            columns = tuple(_normalised(col, t_orders) for col in M)
            self._check_orders(d, columns, t_orders)
            self._cols[d] = columns
        if given:
            raise RingError(
                "map %s: matrices supplied for undefined degrees %s"
                % (name, sorted(given)))

    def _check_orders(self, d: int, columns, t_orders):
        for o, col in zip(self.source.orders(d), columns):
            if o and any(_norm_coeff(o * x, t_orders[i])
                         for i, x in col.items()):
                raise RingError(
                    "map %s does not respect additive orders in degree %d"
                    % (self.name, d))

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
        # column j is s e_j, killed by its source order o when o s = 0
        # modulo its row's order t, which depends on (o, t) alone
        checked: set = set()
        for d in self._span:
            pairs = set(zip(source._orders[d], target._orders[d])) - checked
            if any(o and _norm_coeff(o * s, t) for o, t in pairs):
                raise RingError(
                    "map %s does not respect additive orders in degree %d"
                    % (self.name, d))
            checked |= pairs

    @property
    def columns(self) -> dict[int, tuple[dict, ...]]:
        """{source degree: its columns}, for every degree the map covers."""
        if self.scale is not None and len(self._cols) < len(self._span):
            self._cols = {d: self._columns(d) for d in self._span}
        return self._cols

    def _columns(self, degree: int) -> tuple[dict, ...]:
        columns = self._cols.get(degree)
        if columns is None:
            if self.scale is None or degree not in self._span:
                raise self._undefined(degree)
            s = self.scale
            orders = self.target._orders[degree + self.shift]
            columns = self._cols[degree] = tuple(
                _normalised({j: s}, orders) if s else {}
                for j in range(len(self.source._basis[degree])))
        return columns

    def _undefined(self, degree: int) -> DegreeError:
        return DegreeError("map %s undefined in degree %d"
                           % (self.name, degree))

    def __call__(self, x: RingElement) -> RingElement:
        if x.ring != self.source:
            raise RingError("map %s applied outside its source ring" % self.name)
        return _element(self.target, x.degree + self.shift,
                        tuple(self.image(x.degree)(x.coeffs)))

    def image(self, degree: int):
        """The map in one source degree, as a function from coefficients
        to the reduced coefficients of the image."""
        s = self.scale
        if s is not None and degree not in self._span:
            raise self._undefined(degree)
        columns = None if s is not None else self._columns(degree)
        td = degree + self.shift
        size = len(self.target._basis[td])
        torsion = self.target._torsion[td]

        def apply(coeffs: Sequence[int]) -> list[int]:
            if columns is not None:
                out = [0] * size
                for c, col in zip(coeffs, columns):
                    if c:
                        for i, v in col.items():
                            out[i] += c * v
            elif s:  # shift 0: coeffs index the target rows
                out = [s * c for c in coeffs]
            else:
                return [0] * size
            for i, o in torsion:
                out[i] %= o
            return out

        return apply

    @classmethod
    def compose(cls, name: str, outer: "CoefficientMap",
                inner: "CoefficientMap") -> "CoefficientMap":
        if outer.source != inner.target:
            raise RingError("composition mismatch: %s after %s"
                            % (outer.name, inner.name))
        cols = {}
        for d, columns in inner.columns.items():
            mid = outer.columns.get(d + inner.shift)
            if mid is not None:
                cols[d] = [_combine(mid, col) for col in columns]
        return cls(name, inner.source, outer.target,
                   inner.shift + outer.shift, cols)

    @classmethod
    def scaled_identity(cls, name: str, source: GradedRing, target: GradedRing,
                        scale: int = 1, shift: int = 0) -> "CoefficientMap":
        """`scale` times the identity on the basis that source and target
        share, stored as the scale; with a nonzero shift only the zero map
        (scale 0) is accepted."""
        return cls(name, source, target, shift, scale=scale)

    def __eq__(self, other):
        return (isinstance(other, CoefficientMap) and self.name == other.name
                and self.source == other.source and self.target == other.target
                and self.shift == other.shift and self.columns == other.columns)

    def __repr__(self):
        return "CoefficientMap(%s, shift=%d)" % (self.name, self.shift)


# (map name, source ring, target ring, degree shift) of every RingSystem map
MAP_SIGNATURES = (
    ("rho2", "integral", "mod2", 0),
    ("rho4", "integral", "mod4", 0),
    ("theta2", "mod2", "mod4", 0),
    ("rho24", "mod4", "mod2", 0),
    ("beta", "mod2", "integral", 1),
    ("sq1", "mod2", "mod2", 1),
)


class RingSystem:
    """Integral, mod-2, and mod-4 rings tied together by coefficient maps.

    Validation happens at construction: the three rings must share a
    cutoff and carry moduli 0, 2, 4, and the maps must satisfy

        theta2 . rho2 = rho4 . (2 id)      rho24 . rho4 = rho2
        2 beta = 0                          beta . rho2 = 0
        rho2 . beta = sq1

    degree by degree on every basis monomial, in that order.  When any map
    is a column map, each law is checked column by column: both sides of
    it, applied to one source monomial, are composed from sparse columns,
    reduced by the target orders and compared, so the check costs time
    linear in the nonzero coefficients.  When all six are scale maps, as
    with_reduction_defaults builds them, each law is checked on the
    scales, once per degree and distinct target order: theta2 . rho2 =
    rho4 . 2 holds when the scales give theta2 * rho2 = 2 * rho4 modulo
    each mod-4 order of the degree.
    That is exact, since every column of a scale map is scale * e_j: the
    two sides of a law agree on every basis monomial of a degree exactly
    when they agree modulo each distinct target order in that degree.
    Either way the first failing law and degree give the same message.
    """

    def __init__(self, integral: GradedRing, mod2: GradedRing, mod4: GradedRing,
                 rho2: CoefficientMap, rho4: CoefficientMap,
                 theta2: CoefficientMap, rho24: CoefficientMap,
                 beta: CoefficientMap, sq1: CoefficientMap | None = None):
        self.integral = integral
        self.mod2 = mod2
        self.mod4 = mod4
        self.rho2 = rho2
        self.rho4 = rho4
        self.theta2 = theta2
        self.rho24 = rho24
        self.beta = beta
        self.sq1 = sq1 if sq1 is not None else CoefficientMap.compose(
            "sq1", rho2, beta)
        self.validate()

    def validate(self) -> None:
        if self.integral.modulus != 0 or self.mod2.modulus != 2 or self.mod4.modulus != 4:
            raise RingError("ring moduli must be 0, 2, 4")
        if not (self.integral.cutoff == self.mod2.cutoff == self.mod4.cutoff):
            raise RingError("rings must share a cutoff")
        scaled = True
        for name, src, tgt, shift in MAP_SIGNATURES:
            m = getattr(self, name)
            if (m.source != getattr(self, src) or m.target != getattr(self, tgt)
                    or m.shift != shift):
                raise RingError("map %s has the wrong signature" % m.name)
            scaled = scaled and m.scale is not None
        if scaled:
            self._check_scales()
            return
        rho2, rho4 = self.rho2.columns, self.rho4.columns
        theta2, rho24 = self.theta2.columns, self.rho24.columns
        beta, sq1 = self.beta.columns, self.sq1.columns
        for d in range(self.integral.cutoff + 1):
            self._expect(d, "theta2 . rho2 = rho4 . 2",
                         ((_combine(theta2[d], r),
                           {i: 2 * c for i, c in s.items()})
                          for r, s in zip(rho2[d], rho4[d])),
                         self.mod4.orders(d))
            self._expect(d, "rho24 . rho4 = rho2",
                         ((_combine(rho24[d], r), s)
                          for r, s in zip(rho4[d], rho2[d])),
                         self.mod2.orders(d))
            if d not in beta:
                continue
            up = self.integral.orders(d + 1)
            self._expect(d + 1, "2 beta = 0",
                         (({i: 2 * c for i, c in b.items()}, {})
                          for b in beta[d]), up)
            self._expect(d + 1, "rho2 . beta = sq1",
                         ((_combine(rho2[d + 1], b), s)
                          for b, s in zip(beta[d], sq1[d])),
                         self.mod2.orders(d + 1))
            self._expect(d + 1, "beta . rho2 = 0",
                         ((_combine(beta[d], r), {}) for r in rho2[d]), up)

    @staticmethod
    def _expect(degree: int, law: str, pairs, orders) -> None:
        # pairs: (left, right) columns, one per source basis monomial
        for left, right in pairs:
            if _normalised(left, orders) != _normalised(right, orders):
                raise RingError("identity %s fails in degree %d"
                                % (law, degree))

    def _check_scales(self) -> None:
        # the laws of a system of scale maps, in the column path's order.
        # rho2, rho4, theta2 and rho24 share one basis per degree, so both
        # sides of a law send monomial j to a multiple of e_j.  A column
        # holds its scale reduced by row j's order; the unreduced scale
        # differs by a multiple of a target order, or, inside a
        # composition, by the outer scale times a multiple of its source
        # order, which the outer map's order check kills.  beta and sq1
        # have shift 1, so their scale is 0 and their three laws compare 0
        # with 0.  A degree without basis monomials has no orders and
        # checks nothing, as it has no columns
        r2, r4, t2, r24 = (self.rho2.scale, self.rho4.scale,
                           self.theta2.scale, self.rho24.scale)
        b, s1 = self.beta.scale, self.sq1.scale
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
            self._expect_scale(d + 1, "rho2 . beta = sq1",
                               r2 * b - s1, self.mod2._orders[d + 1])
            self._expect_scale(d + 1, "beta . rho2 = 0", b * r2, up)

    @staticmethod
    def _expect_scale(degree: int, law: str, difference: int, orders) -> None:
        if difference and any(_norm_coeff(difference, o) for o in set(orders)):
            raise RingError("identity %s fails in degree %d" % (law, degree))

    @classmethod
    def with_reduction_defaults(cls, presentation: RingPresentation) -> "RingSystem":
        """System for a torsion-free integral ring: reductions are literal.

        Only the integral ring is built from the presentation.  The mod-2
        and mod-4 rings are reduced from it: they share its basis, index
        and normal forms, each of their products is the integral one
        reduced mod 2 or mod 4 when it is first asked, and they compare
        equal to rings built from the presentation with the modulus
        swapped.  Every map is a scale map on that one basis: rho2, rho4
        and rho24 scale by 1, theta2 by 2, and the Bockstein and Sq^1 are
        the zero maps of shift 1, as they must be without 2-torsion.  The
        five laws are checked on these scales (RingSystem).
        """
        if presentation.modulus != 0:
            raise RingError("expected an integral presentation")
        if any(g.order for g in presentation.generators):
            raise RingError("defaults require a torsion-free presentation")
        integral = GradedRing(presentation)
        mod2 = integral._reduction(2)
        mod4 = integral._reduction(4)
        scaled = CoefficientMap.scaled_identity
        return cls(integral, mod2, mod4,
                   scaled("rho2", integral, mod2),
                   scaled("rho4", integral, mod4),
                   scaled("theta2", mod2, mod4, 2),
                   scaled("rho24", mod4, mod2),
                   scaled("beta", mod2, integral, 0, 1),
                   scaled("sq1", mod2, mod2, 0, 1))

    def __eq__(self, other):
        return (isinstance(other, RingSystem)
                and self.integral == other.integral
                and self.mod2 == other.mod2 and self.mod4 == other.mod4
                and self.rho2 == other.rho2 and self.rho4 == other.rho4
                and self.theta2 == other.theta2 and self.rho24 == other.rho24
                and self.beta == other.beta and self.sq1 == other.sq1)


class LiftSearch(Frozen):
    """Integral preimages under rho2 found within a coefficient bound."""

    __slots__ = ("lifts", "no_lift_proven")

    def __init__(self, lifts: tuple[RingElement, ...],
                 no_lift_proven: bool = False):
        set_field(self, "lifts", lifts)
        set_field(self, "no_lift_proven", no_lift_proven)


def divide_by(n: int, y: RingElement) -> tuple[RingElement, ...]:
    """All x in y's ring with n*x = y, in coefficient-lexicographic order.

    Division happens coordinatewise against the additive order of each
    basis monomial, so the answer is exact: an empty tuple means n*x = y
    has no solution at all.
    """
    if n == 0:
        raise ValueError("division by zero scalar")
    return tuple(_element(y.ring, y.degree, combo) for combo in
                 quotients(n, y.coeffs, y.ring.orders(y.degree)))


def quotients(n: int, coeffs: Sequence[int],
              orders: Sequence[int]) -> Iterator[tuple]:
    """The coefficients of every x with n*x = y, y having these reduced
    coefficients over a basis with these orders, in lexicographic order;
    divide_by makes one element of each.  n is nonzero."""
    axes = []
    for c, o in zip(coeffs, orders):
        if o == 0:
            if c % n:
                return iter(())
            axes.append([c // n])
            continue
        g = math.gcd(n, o)
        if c % g:
            return iter(())
        step = o // g
        base = (c // g) * pow(n // g, -1, step) % step if step > 1 else 0
        axes.append(sorted((base + k * step) % o for k in range(g)))
    return itertools.product(*axes)


def _solve_mod2(columns: Columns, u: Sequence[int], variables: Sequence[int]):
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


def _lift_parities(system: RingSystem, u: RingElement, free: bool = True):
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


def any_integral_lift(system: RingSystem, u: RingElement) -> RingElement | None:
    """One integral x with rho2(x) = u, or None when provably none exists.

    x is the particular solution of the parity system of integral_lifts:
    each coordinate rho2 sees is 0 or 1, and the others are 0.
    """
    orders, seen, solved = _lift_parities(system, u)
    if solved is None:
        return None
    coeffs = [0] * len(orders)
    for k, j in enumerate(seen):
        coeffs[j] = solved[0] >> k & 1
    return system.integral.element(u.degree, coeffs)


def _range_size(r: range) -> int:
    # len() of a range raises OverflowError beyond sys.maxsize values
    return max(0, (r.stop - r.start + r.step - 1) // r.step)


def lift_spreads(system: RingSystem, u: RingElement,
                 bound: int) -> list[list[range]] | None:
    """The lifts of u with free coefficients in [-bound, bound], as spreads.

    Returns None exactly when the underlying congruences are unsolvable,
    which no bound can repair; otherwise one spread per solution of the
    parity system below: the list of its coordinate axes, ascending
    ranges of coefficients, whose product is that solution's lifts.
    Torsion coordinates range over their full residue system regardless
    of the bound.

    Whether x lifts u depends only on the parities of x's free and
    even-order coordinates, and those parities p solve the system
    rho2(p) = u over F2, whose solutions are a particular one plus the
    kernel.  At bound 0 the free parities are fixed to 0.  Each solution
    is spread over the bound, one or more lifts each, and the running
    count is checked against LIFT_CAP before this function returns:
    TooManyLifts is raised as soon as it exceeds the cap, so a refusal
    comes before any lift.  Spreads of different parities are disjoint.
    """
    if bound < 0:
        raise ValueError("negative bound")
    orders, seen, solved = _lift_parities(system, u)
    if solved is None:
        return None
    if bound == 0:
        orders, seen, solved = _lift_parities(system, u, free=False)
        if solved is None:
            return []
    # the values of each coordinate with parity 0 and with parity 1; a
    # coordinate outside `seen` takes the first, whatever its parity
    values = [(range(o),) * 2 if o % 2 else
              (range(0, o, 2), range(1, o, 2)) if o else
              (range(-bound + bound % 2, bound + 1, 2),
               range(-bound + (bound + 1) % 2, bound + 1, 2))
              for o in orders]
    bit_of = dict(zip(seen, range(len(seen))))
    positions = [bit_of.get(j) for j in range(len(orders))]
    particular, kernel = solved
    spreads = []
    count = 0
    p = particular
    total = 1 << len(kernel)
    for step in range(total):
        if step:  # Gray code: one kernel vector changes per step
            p ^= kernel[(step & -step).bit_length() - 1]
        axes = [pair[0] if k is None else pair[p >> k & 1]
                for pair, k in zip(values, positions)]
        size = math.prod(_range_size(axis) for axis in axes)
        count += size
        if count > LIFT_CAP:
            raise TooManyLifts("%s%d lifts in degree %d exceed the cap %d"
                               % ("" if step == total - 1 else "at least ",
                                  count, u.degree, LIFT_CAP))
        if size:
            spreads.append(axes)
    return spreads


def lift_coefficients(system: RingSystem, u: RingElement,
                      bound: int) -> Iterator[tuple] | None:
    """The coefficients of the lifts of u with free ones in [-bound, bound].

    None when lift_spreads finds none can exist, with its LIFT_CAP
    refusal; otherwise an iterator over the coefficient tuples of the
    lifts in lexicographic order.  Each spread's product of ascending
    ranges is sorted and the spreads are disjoint, so merging them yields
    every lift once and in order, one at a time.
    """
    spreads = lift_spreads(system, u, bound)
    if spreads is None:
        return None
    return heapq.merge(*(itertools.product(*axes) for axes in spreads))


def integral_lifts(system: RingSystem, u: RingElement, bound: int) -> LiftSearch:
    """All lifts of u with free coefficients in [-bound, bound].

    One element per tuple of lift_coefficients, in its order, with the
    same LIFT_CAP refusal; no_lift_proven is True exactly when it finds
    the congruences unsolvable.  No command calls it: `acso lifts` builds
    its lines from the axes of lift_spreads, and the Chern-candidate
    survey reads the tuples of lift_coefficients and makes one element
    per lift itself.  `str()` of its elements is what `acso lifts` must
    print, so the tests hold the command's output against it.
    """
    coeffs = lift_coefficients(system, u, bound)
    if coeffs is None:
        return LiftSearch(lifts=(), no_lift_proven=True)
    ring, degree = system.integral, u.degree
    return LiftSearch(lifts=tuple(_element(ring, degree, c) for c in coeffs),
                      no_lift_proven=False)


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
    return system.rho4(lift * lift)
