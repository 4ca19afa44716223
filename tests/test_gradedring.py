"""Graded ring layer: presentations, products, coefficient maps, lifts."""

import collections
import functools
import itertools
import json
import math
import operator
import random
import re
import time

import pytest

from acso import gradedring, obstruct, spacefile
from acso.cli import main
from acso.gradedring import (
    CoefficientMap,
    ConfluenceError,
    DegreeError,
    Generator,
    GradedRing,
    RewriteRule,
    MAP_SIGNATURES,
    RingElement,
    RingError,
    RingPresentation,
    RingSystem,
    SignRuleError,
    TableTooLarge,
    TooManyLifts,
    _norm_coeff,
    any_integral_lift,
    divide_by,
    format_exponents,
    integral_lifts,
    lift_spreads,
    lift_test,
    parse_exponents,
)
from acso.intlin import IntMatrix, solve_integer_linear
from acso.obstruct import BundleData, NoSolution, construct_w4m_lift
from acso.report import render_json, render_text
from acso.spacefile import load_space_file, matrix_map, space_file_from_doc

from conftest import CORPUS_DIR, DATA_DIR, replace
import ring_reference
from validation_reference import NoIntegralLift, pontryagin_square


def truncated_polynomial(name: str, degree: int, power: int, cutoff: int,
                         modulus: int = 0) -> RingPresentation:
    g = Generator(name, degree)
    lhs = (power,)
    return RingPresentation(
        modulus=modulus, cutoff=cutoff, generators=(g,),
        rules=(RewriteRule(lhs, ()),))


@pytest.fixture(scope="module")
def proj_plane_ring():
    # Z[a]/(a^3), |a| = 2, truncated at degree 8
    return GradedRing(truncated_polynomial("a", 2, 3, 8))


def basis_elements(ring, d):
    """The degree-d basis monomials of a ring as elements, in basis order."""
    n = len(ring.basis(d))
    return [ring.element(d, [int(i == j) for j in range(n)]) for i in range(n)]


def check_associativity(ring):
    """(xy)z == x(yz) for all triples of basis monomials inside the cutoff."""
    elements = [basis_elements(ring, d) for d in range(ring.cutoff + 1)]
    for da in range(ring.cutoff + 1):
        for db in range(ring.cutoff + 1 - da):
            for dc in range(ring.cutoff + 1 - da - db):
                for a in elements[da]:
                    for b in elements[db]:
                        for c in elements[dc]:
                            assert (a * b) * c == a * (b * c), (a, b, c)


# -- basis structure --------------------------------------------------------


def test_truncated_polynomial_basis(proj_plane_ring):
    r = proj_plane_ring
    expected = {0: ("1",), 1: (), 2: ("a",), 3: (), 4: ("a^2",),
                5: (), 6: (), 7: (), 8: ()}
    for d, basis in expected.items():
        assert r.basis_strings(d) == basis
    assert r.orders(4) == (0,)


def test_single_generator_in_high_degree():
    r = GradedRing(truncated_polynomial("x", 8, 2, 16))
    assert r.basis_strings(8) == ("x",)
    assert r.orders(8) == (0,)
    assert r.basis_strings(16) == ()


def test_product_ring_basis():
    # two spheres: Z[a,b]/(a^2, b^2) with |a| = 2, |b| = 4
    pres = RingPresentation(
        modulus=0, cutoff=12,
        generators=(Generator("a", 2), Generator("b", 4)),
        rules=(RewriteRule((2, 0), ()), RewriteRule((0, 2), ())))
    r = GradedRing(pres)
    assert r.basis_strings(2) == ("a",)
    assert r.basis_strings(4) == ("b",)
    assert r.basis_strings(6) == ("a*b",)
    assert r.basis_strings(8) == ()


def test_degree_outside_cutoff():
    r = GradedRing(truncated_polynomial("a", 2, 3, 8))
    with pytest.raises(DegreeError):
        r.basis(9)
    with pytest.raises(DegreeError):
        r.zero(-1)


def test_corpus_rings_are_associative(corpus):
    for sf in corpus.values():
        rings = sf.bundle.rings
        for ring in (rings.integral, rings.mod2, rings.mod4):
            check_associativity(ring)


# -- enumeration and derived reductions ---------------------------------------


class ReferenceRing(GradedRing):
    """Reference ring: enumerates every monomial inside the cutoff.

    Confluence is compared on every reducible monomial, every ordered
    pair of basis monomials gets its own normal form and Koszul sign in a
    dense product table built at construction, and graded commutativity
    is tested on every pair of that table.  The ring under test must
    agree with it on basis, orders and the product of every pair, or
    fail the same way.  The Koszul sign and the rewriting step are its
    own copies, so a sign the ring under test gets wrong in rewriting or
    in products shows as a difference.
    """

    def _koszul(self, a, b) -> int:
        # sign putting sorted(a)*sorted(b) into sorted(a + b)
        s = 0
        for j, bj in enumerate(b):
            if bj and self._odd[j]:
                for i in range(j + 1, len(a)):
                    if a[i] and self._odd[i]:
                        s += a[i] * bj
        return -1 if s & 1 else 1

    def _apply_rule(self, exps, rule):
        rem = tuple(e - l for e, l in zip(exps, rule.lhs))
        s0 = self._koszul(rule.lhs, rem)
        out = []
        for coeff, mon in rule.rhs:
            s1 = self._koszul(mon, rem)
            out.append((coeff * s0 * s1, tuple(m + r for m, r in zip(mon, rem))))
        return out

    def _enumerate_monomials(self):
        prefixes = [((), 0)]
        for step in self._degrees:
            prefixes = [(exps + (e,), d + e * step)
                        for exps, d in prefixes
                        for e in range((self.cutoff - d) // step + 1)]
        by_degree = {d: [] for d in range(self.cutoff + 1)}
        for exps, d in prefixes:
            by_degree[d].append(exps)
        self._set_monomials(by_degree)

    def _set_monomials(self, by_degree):
        self._monomials = {d: tuple(sorted(v)) for d, v in by_degree.items()}
        self._basis = {}
        self._orders = {}
        self._index = {}
        for d, mons in self._monomials.items():
            basis = tuple(m for m in mons
                          if self._first_rule(m) is None and self._order_of(m) != 1)
            self._basis[d] = basis
            self._orders[d] = tuple(self._order_of(m) for m in basis)
            self._index[d] = {m: i for i, m in enumerate(basis)}

    def _vector(self, degree, combo):
        coeffs = [0] * len(self._basis[degree])
        index = self._index[degree]
        for mon, c in combo.items():
            if mon in index:
                coeffs[index[mon]] += c
            elif self._order_of(mon) != 1:
                raise RingError("normal form left the basis in degree %d" % degree)
        return tuple(_norm_coeff(c, o) for c, o in zip(coeffs, self._orders[degree]))

    def _check_confluence(self):
        for d, mons in self._monomials.items():
            for exps in mons:
                first = self._first_rule(exps)
                if first is None:
                    continue
                canonical = self._vector(d, self._normal_form(exps))
                for rule in self.presentation.rules:
                    if rule is first or not all(
                            l <= e for l, e in zip(rule.lhs, exps)):
                        continue
                    if self._vector(d, self._rewrite(exps, rule)) != canonical:
                        raise ConfluenceError(
                            "rules disagree on %s"
                            % format_exponents(self.names, exps))

    def _build_table(self):
        self._table = {}
        for d1 in range(self.cutoff + 1):
            for d2 in range(self.cutoff + 1 - d1):
                b1, b2 = self._basis[d1], self._basis[d2]
                for i, a in enumerate(b1):
                    for j, b in enumerate(b2):
                        sign = self._koszul(a, b)
                        prod = tuple(x + y for x, y in zip(a, b))
                        nf = self._normal_form(prod)
                        vec = self._vector(
                            d1 + d2, {m: sign * c for m, c in nf.items()})
                        self._table[(d1, i, d2, j)] = vec

    def product_vector(self, d1, i, d2, j):
        return self._table[(d1, i, d2, j)]

    def _check_table(self):
        self._build_table()
        for (d1, i, d2, j), v12 in self._table.items():
            d = d1 + d2
            orders = self._orders[d]
            v21 = self._table[(d2, j, d1, i)]
            sign = -1 if (d1 * d2) % 2 else 1
            flipped = tuple(_norm_coeff(sign * c, o) for c, o in zip(v21, orders))
            if v12 != flipped:
                raise SignRuleError(
                    "product of %s and %s breaks graded commutativity"
                    % (format_exponents(self.names, self._basis[d1][i]),
                       format_exponents(self.names, self._basis[d2][j])))
            o_left = self._orders[d1][i]
            if o_left:
                for c, o in zip(v12, orders):
                    if _norm_coeff(o_left * c, o):
                        raise RingError(
                            "product of %s and %s violates additive orders"
                            % (format_exponents(self.names, self._basis[d1][i]),
                               format_exponents(self.names, self._basis[d2][j])))


class BoxScanRing(ReferenceRing):
    """Reference ring that scans the whole exponent box for the monomials."""

    def _enumerate_monomials(self):
        ranges = [range(self.cutoff // d + 1) for d in self._degrees]
        by_degree = {d: [] for d in range(self.cutoff + 1)}
        for exps in itertools.product(*ranges):
            d = self._exp_degree(exps)
            if d <= self.cutoff:
                by_degree[d].append(exps)
        self._set_monomials(by_degree)


def truncated_product(prefix, degree, caps, cutoff):
    """Z[x_1..x_n]/(x_i^(cap_i + 1)) with every |x_i| = degree."""
    n = len(caps)
    return RingPresentation(
        modulus=0, cutoff=cutoff,
        generators=tuple(Generator("%s%d" % (prefix, i + 1), degree)
                         for i in range(n)),
        rules=tuple(RewriteRule(tuple(cap + 1 if j == i else 0
                                      for j in range(n)), ())
                    for i, cap in enumerate(caps)))


FAMILY_PRESENTATIONS = {
    "T^5": truncated_product("t", 1, [1] * 5, 6),
    "T^6": truncated_product("t", 1, [1] * 6, 6),
    "(S^2)^4": truncated_product("x", 2, [1] * 4, 8),
    "CP^2xCP^2xCP^2": truncated_product("a", 2, [2, 2, 2], 12),
    "CP^1xCP^2": truncated_product("a", 2, [1, 2], 6),
}


def shared_presentations(corpus):
    out = dict(FAMILY_PRESENTATIONS)
    for name, sf in corpus.items():
        doc = json.loads((CORPUS_DIR / ("%s.json" % name)).read_text())
        if "shared" in doc["rings"]:
            out[name] = sf.bundle.rings.integral.presentation
    return out


def dense_table(ring):
    """The product of every pair of basis monomials, keyed (d1, i, d2, j).

    A ReferenceRing reads its own dense table; any other ring multiplies
    the two basis elements.
    """
    if isinstance(ring, ReferenceRing):
        return {key: ring.product_vector(*key) for key in ring._table}
    elements = [basis_elements(ring, d) for d in range(ring.cutoff + 1)]
    return {(d1, i, d2, j): (x * y).coeffs
            for d1 in range(ring.cutoff + 1)
            for d2 in range(ring.cutoff + 1 - d1)
            for i, x in enumerate(elements[d1])
            for j, y in enumerate(elements[d2])}


def outcome(ring_class, pres):
    """Basis, orders and products of a ring, or its construction error."""
    try:
        ring = ring_class(pres)
    except RingError as exc:
        return type(exc), str(exc)
    return ring._basis, ring._orders, dense_table(ring)


def assert_same_enumeration(ring, ref):
    assert ring._basis == ref._basis
    assert ring._orders == ref._orders
    assert dense_table(ring) == ref._table


def test_enumeration_matches_box_scan(corpus):
    for sf in corpus.values():
        rings = sf.bundle.rings
        for ring in (rings.integral, rings.mod2, rings.mod4):
            assert_same_enumeration(ring, BoxScanRing(ring.presentation))
    for pres in FAMILY_PRESENTATIONS.values():
        system = RingSystem.with_reduction_defaults(pres)
        for ring in (system.integral, system.mod2, system.mod4):
            assert_same_enumeration(ring, BoxScanRing(ring.presentation))
    torus = truncated_product("t", 1, [1] * 7, 7)
    system = RingSystem.with_reduction_defaults(torus)
    for ring in (system.integral, system.mod2, system.mod4):
        assert_same_enumeration(ring, ReferenceRing(ring.presentation))


# odd squares that rewrite: s^2 -> 0 makes s dead, but t^2 -> x survives
# and is not killed by 2, so the pair (t, t) must be looked up
LIVE_ODD_SQUARE = RingPresentation(
    0, 3, (Generator("t", 1), Generator("s", 1), Generator("x", 2)),
    (RewriteRule((0, 2, 0), ()), RewriteRule((2, 0, 0), ((1, (0, 0, 1)),))))
# a of order 3 times the free b rewrites to the free b^2, which 3 does not kill
ORDER_THREE_TIMES_FREE = RingPresentation(
    0, 4, (Generator("a", 2, 3), Generator("b", 2)),
    (RewriteRule((1, 1), ((1, (0, 2)),)),))


def odd_rule_fixture(lhs, rhs):
    """u, x, z of degree 1 with squares 0 and w of degree 2, over Z with
    cutoff 4, and the one rule lhs -> rhs between monomials of degree 3."""
    gens = (Generator("u", 1), Generator("x", 1), Generator("z", 1),
            Generator("w", 2))
    squares = tuple(RewriteRule(tuple(2 * (k == i) for k in range(4)), ())
                    for i in range(3))
    return RingPresentation(0, 4, gens,
                            squares + (RewriteRule(lhs, ((1, rhs),)),))


# z*w -> u*w: x*z*w rewrites to -u*x*w, the sign of moving x past z
# (the sign s0 of putting lhs*rest in order)
SIGN_OF_LHS = odd_rule_fixture((0, 0, 1, 1), (1, 0, 0, 1))
# u*w -> z*w: u*x*w rewrites to -x*z*w, the sign of moving x past z
# (the sign s1 of putting rhs*rest in order)
SIGN_OF_RHS = odd_rule_fixture((1, 0, 0, 1), (0, 0, 1, 1))


# a*b -> a^2 and a^2*b^2 -> e with a^2, b^2 -> 0: degrees 4 and 6 have
# no basis monomials, and the rules disagree on a^2*b^2 in degree 8,
# whose basis is e
DISAGREE_NEXT_TO_EMPTY = RingPresentation(
    0, 8, (Generator("a", 2), Generator("b", 2), Generator("e", 8)),
    (RewriteRule((2, 0, 0), ()), RewriteRule((1, 1, 0), ((1, (2, 0, 0)),)),
     RewriteRule((0, 2, 0), ()), RewriteRule((2, 2, 0), ((1, (0, 0, 1)),))))


def hand_fixtures(corpus):
    """Presentations that fail construction, each in its own way, the two
    rules that fix a rewriting sign, the mod-4 ring of s1xwu, whose rule
    has a right-hand side, and rules in degrees without basis monomials,
    where only the termination of rewriting can fail."""
    two = (Generator("a", 2), Generator("b", 2))
    yield RingPresentation(  # a rewrite cycle
        0, 4, two, (RewriteRule((2, 0), ((1, (0, 2)),)),
                    RewriteRule((0, 2), ((1, (2, 0)),))))
    yield RingPresentation(  # an inconsistent overlap
        0, 6, two, (RewriteRule((2, 0), ()),
                    RewriteRule((2, 1), ((1, (0, 3)),))))
    # a rewrite cycle in degree 4, which a*b -> 0 leaves without a basis
    yield RingPresentation(
        0, 4, two, (RewriteRule((2, 0), ((1, (0, 2)),)),
                    RewriteRule((1, 1), ()),
                    RewriteRule((0, 2), ((1, (2, 0)),))))
    # the overlap above in degree 6, which a*b^2, b^3 -> 0 leave without a
    # basis: a^2*b rewrites to 0 and to b^3, and both are 0 there
    yield RingPresentation(
        0, 6, two, (RewriteRule((2, 0), ()),
                    RewriteRule((2, 1), ((1, (0, 3)),)),
                    RewriteRule((1, 2), ()), RewriteRule((0, 3), ())))
    yield DISAGREE_NEXT_TO_EMPTY
    yield RingPresentation(0, 2, (Generator("t", 1),))  # an odd square
    yield LIVE_ODD_SQUARE
    yield ORDER_THREE_TIMES_FREE
    yield SIGN_OF_LHS
    yield SIGN_OF_RHS
    mod4 = corpus["s1xwu"].bundle.rings.mod4.presentation
    assert any(rule.rhs for rule in mod4.rules)
    yield mod4


def test_construction_matches_reference_on_fixtures(corpus):
    kinds = set()
    for pres in hand_fixtures(corpus):
        got = outcome(GradedRing, pres)
        assert got == outcome(ReferenceRing, pres), pres
        kinds.add(got[0] if isinstance(got[0], type) else "ring")
    assert kinds == {ConfluenceError, SignRuleError, RingError, "ring"}


@pytest.mark.parametrize("pres, error", [
    (LIVE_ODD_SQUARE,
     (SignRuleError, "product of t and t breaks graded commutativity")),
    (ORDER_THREE_TIMES_FREE,
     (RingError, "product of a and b violates additive orders")),
])
def test_checks_look_up_the_pairs_that_fail(pres, error):
    assert outcome(GradedRing, pres) == outcome(ReferenceRing, pres) == error


def test_construction_computes_no_product_without_a_live_odd_square():
    # every odd generator of T^9 squares to 0 and no ring has torsion, so
    # neither the checks nor the derived reductions ask for a product
    for pres in (truncated_product("t", 1, [1] * 9, 9),
                 FAMILY_PRESENTATIONS["CP^2xCP^2xCP^2"]):
        system = RingSystem.with_reduction_defaults(pres)
        for ring in (system.integral, system.mod2, system.mod4):
            assert ring._products == {}, ring


def random_presentation(rng):
    """1-3 generators of degree 1-3, orders {0, 2, 3, 4}, moduli
    {0, 2, 4}, and up to three rules with random same-degree right-hand
    sides (a right-hand side may hold its own left-hand side)."""
    n = rng.randint(1, 3)
    gens = tuple(Generator("g%d" % k, rng.randint(1, 3),
                           rng.choice((0, 2, 3, 4))) for k in range(n))
    degrees = [g.degree for g in gens]
    rules = []
    for _ in range(rng.randint(0, 3)):
        lhs = (0,) * n
        while not any(lhs):
            lhs = tuple(rng.randint(0, 2) for _ in range(n))
        d = sum(e * g for e, g in zip(lhs, degrees))
        same = [m for m in itertools.product(range(d + 1), repeat=n)
                if sum(e * g for e, g in zip(m, degrees)) == d]
        terms = rng.sample(same, rng.randint(0, min(2, len(same))))
        rules.append(RewriteRule(lhs, tuple((rng.choice((-2, -1, 1, 2)), m)
                                            for m in terms)))
    return RingPresentation(rng.choice((0, 2, 4)), rng.randint(0, 6),
                            gens, tuple(rules))


def test_construction_matches_reference_on_random_presentations():
    rng = random.Random(2024)
    kinds = collections.Counter()
    for _ in range(2000):
        pres = random_presentation(rng)
        got = outcome(GradedRing, pres)
        assert got == outcome(ReferenceRing, pres), pres
        kinds[got[0] if isinstance(got[0], type) else "ring"] += 1
    # the draw reaches every outcome
    assert set(kinds) == {"ring", SignRuleError, ConfluenceError, RingError}, \
        kinds


def dense_pairs(ring):
    """Every (d1, i, d2, j) with d1 + d2 <= cutoff, in the order of a
    dense table."""
    return [(d1, i, d2, j) for d1 in range(ring.cutoff + 1)
            for d2 in range(ring.cutoff + 1 - d1)
            for i in range(len(ring._basis[d1]))
            for j in range(len(ring._basis[d2]))]


def assert_products_match_parent(ring, parent, kinds):
    """Every pair's memo entry in ring equals the parent's, and so does
    every normal form the parent computed; kinds counts the pairs and
    normal forms by the way ring reaches them."""
    for key in dense_pairs(ring):
        got = ring._product_terms(*key)
        assert got == parent._product_terms(*key), (ring, key)
        d1, i, d2, j = key
        a, b = ring._basis[d1][i], ring._basis[d2][j]
        exps = tuple(x + y for x, y in zip(a, b))
        if exps in ring._index[d1 + d2]:
            kinds["hit" if got[0][1] == ring._koszul(a, b)
                  else "hit, sign reduced"] += 1
        elif not ring._rewrites:
            kinds["miss, no right-hand side"] += 1
        else:
            kinds["rewritten" if got else "rewritten to 0"] += 1
    assert ring._products == parent._products
    for exps, normal in parent._nf_cache.items():
        assert ring._normal_form(exps) == normal, (ring, exps)
        first = ring._first_rule(exps)
        kinds["normal form" if first is None or first.rhs
              else "normal form, no right-hand side"] += 1


def built(cls, pres):
    """The ring of pres, or its construction error."""
    try:
        return cls(pres)
    except RingError as exc:
        return type(exc), str(exc)


def assert_presentation_matches_parent(pres, kinds):
    """The ring of pres, and for a torsion-free integral pres each of
    its reductions, each taken from a fresh integral ring so that the
    reduction multiplies first, against the parent's."""
    ring = built(GradedRing, pres)
    parent = built(ring_reference.ParentProductRing, pres)
    if isinstance(ring, tuple):
        assert ring == parent, pres
        return
    assert_products_match_parent(ring, parent, kinds)
    if pres.modulus or any(g.order for g in pres.generators):
        return
    for m in (2, 4):
        derived = GradedRing(pres)._reduction(m)
        assert vars(derived).keys() == vars(ring).keys()
        assert_products_match_parent(
            derived, ring_reference.ParentProductRing(pres)._reduction(m),
            kinds)
        kinds["derived"] += 1


def test_products_match_the_parent_on_random_presentations():
    # the draws of test_construction_matches_reference_on_random_presentations
    rng = random.Random(2024)
    kinds = collections.Counter()
    for _ in range(2000):
        assert_presentation_matches_parent(random_presentation(rng), kinds)
    assert min(kinds.values()) > 20, kinds
    assert len(kinds) == 8, kinds


def test_products_match_the_parent_on_every_file_ring():
    kinds = collections.Counter()
    paths = sorted(CORPUS_DIR.glob("*.json")) + sorted(DATA_DIR.glob("*.json"))
    for path in paths:
        rings = json.loads(path.read_text())["rings"]
        moduli = {"shared": 0, "integral": 0, "mod2": 2, "mod4": 4}
        for label, section in rings.items():
            pres = spacefile._presentation(section, moduli[label], label)
            assert_presentation_matches_parent(pres, kinds)
    assert min(kinds.values()) > 10, kinds
    assert len(kinds) == 8, kinds


def assert_squares_match_products(ring, rng, kinds):
    """square(ring, d, a) equals product(ring, d, a, d, a) once both are
    reduced at the torsion coordinates, for a random dense and a random
    sparse a in every even d with 2d <= cutoff; kinds counts the rings by
    modulus, the squares whose unreduced coordinates differ (only a
    torsion coordinate may), and the cross pairs i < j of nonzero
    coefficients whose odd-exponent masks share an odd number of bits."""
    kinds["modulus %d" % ring.modulus] += 1
    for d in range(0, ring.cutoff // 2 + 1, 2):
        masks = ring._masks[d]
        for density in (1, 0.3):
            a = [rng.randint(-5, 5) if rng.random() < density else 0
                 for _ in masks]
            got = gradedring.square(ring, d, a)
            want = gradedring.product(ring, d, a, d, a)
            if got != want:
                kinds["unreduced coordinates differ"] += 1
            for i, o in ring._torsion[2 * d]:
                got[i] %= o
                want[i] %= o
            assert got == want, (ring, d, a)
            kinds["odd overlap"] += sum(
                (masks[i] & masks[j]).bit_count() & 1
                for i, j in itertools.combinations(range(len(a)), 2)
                if a[i] and a[j])


def assert_squares_and_signs_match(pres, rng, kinds):
    """For the ring of pres, and for a torsion-free integral pres also
    its mod-2 and mod-4 reductions, squares match products
    (assert_squares_match_products); and the sign read off the
    odd-exponent masks equals the parent's loop over exponent tuples on
    every pair of basis monomials, as does every rule application on
    every monomial the parent normalises when it multiplies every pair."""
    ring = built(GradedRing, pres)
    if isinstance(ring, tuple):
        return
    rings = [ring]
    if not (pres.modulus or any(g.order for g in pres.generators)):
        rings += [ring._reduction(2), ring._reduction(4)]
    for each in rings:
        assert_squares_match_products(each, rng, kinds)
    parent = ring_reference.ParentProductRing(pres)
    for d1, i, d2, j in dense_pairs(ring):
        a, b = ring._basis[d1][i], ring._basis[d2][j]
        assert gradedring._mask_sign(ring._masks[d1][i], ring._masks[d2][j]) \
            == parent._koszul(a, b), (pres, a, b)
        parent._product_terms(d1, i, d2, j)
        kinds["pair"] += 1
    for exps in parent._nf_cache:
        for rule, support in ring._supports:
            if all(exps[k] >= l for k, l in support):
                assert ring._apply_rule(exps, rule) == \
                    parent._apply_rule(exps, rule), (pres, exps, rule)
                kinds["rule with a right-hand side" if rule.rhs
                      else "rule without one"] += 1


def random_odd_presentation(rng):
    """2-4 generators of degree 1 or 3 and order 0, 2 or 4, modulus 0, 2
    or 4, cutoff 4-8, and maybe g^2 = 0 or g^3 = 0 for one generator: the
    squares of degree 2 and 4 meet monomials that share an odd exponent
    of an odd generator, whose products are killed by 2."""
    n = rng.randint(2, 4)
    gens = tuple(Generator("g%d" % k, rng.choice((1, 1, 3)),
                           rng.choice((0, 2, 2, 4))) for k in range(n))
    rules = ()
    if rng.random() < 0.5:
        k = rng.randrange(n)
        rules = (RewriteRule(tuple(rng.randint(2, 3) if j == k else 0
                                   for j in range(n))),)
    return RingPresentation(rng.choice((0, 2, 4)), rng.randint(4, 8), gens,
                            rules)


def test_squares_and_signs_match_on_random_presentations():
    # the draws of test_products_match_the_parent_on_random_presentations,
    # then draws on odd generators alone, which those seldom combine
    rng, draw = random.Random(2024), random.Random(33)
    kinds = collections.Counter()
    for _ in range(2000):
        assert_squares_and_signs_match(random_presentation(rng), draw, kinds)
    for _ in range(300):
        assert_squares_and_signs_match(random_odd_presentation(rng), draw,
                                       kinds)
    assert min(kinds.values()) > 20, kinds
    assert len(kinds) == 8, kinds


def test_squares_and_signs_match_on_every_file_ring():
    rng = random.Random(33)
    kinds = collections.Counter()
    paths = sorted(CORPUS_DIR.glob("*.json")) + sorted(DATA_DIR.glob("*.json"))
    for path in paths:
        rings = json.loads(path.read_text())["rings"]
        moduli = {"shared": 0, "integral": 0, "mod2": 2, "mod4": 4}
        for label, section in rings.items():
            pres = spacefile._presentation(section, moduli[label], label)
            assert_squares_and_signs_match(pres, rng, kinds)
    assert all(kinds[kind] > 10 for kind in (
        "modulus 0", "modulus 2", "modulus 4", "pair",
        "rule with a right-hand side", "rule without one")), kinds


def test_s1xwu_products_keep_rewritten_and_reduced_terms(corpus):
    # mod 4, zeta2*zeta3 is no basis monomial, yet its rule has the
    # right-hand side 2 mu4, so the product is rewritten, not 0.  Mod 2,
    # z3*tb is the basis monomial tb*z3 with Koszul sign -1, which the
    # memo holds reduced by the order 2, as 1
    rings = corpus["s1xwu"].bundle.rings
    mod4 = GradedRing(rings.mod4.presentation)
    zeta2 = mod4.from_terms(2, {"zeta2": 1})
    zeta3 = mod4.from_terms(3, {"zeta3": 1})
    two_mu4 = mod4.from_terms(5, {"mu4": 2})
    assert gradedring.product(mod4, 2, zeta2.coeffs, 3, zeta3.coeffs) == \
        list(two_mu4.coeffs) == [2]
    assert zeta2 * zeta3 == two_mu4
    mod2 = GradedRing(rings.mod2.presentation)
    i = mod2.basis_string_index(3)["z3"]
    j = mod2.basis_string_index(1)["tb"]
    k = mod2.basis_string_index(4)["tb*z3"]
    assert mod2._koszul(mod2.basis(3)[i], mod2.basis(1)[j]) == -1
    assert mod2._product_terms(3, i, 1, j) == ((k, 1),)
    assert mod2._products[3, i, 1, j] == ((k, 1),)


def test_product_table_cap():
    # T^11 has 2,048 basis monomials and a table of 2,449,868 entries
    with pytest.raises(TableTooLarge, match="2449868 entries exceeds the cap"):
        GradedRing(truncated_product("t", 1, [1] * 11, 11))


def test_enumeration_stops_at_the_cap(monkeypatch):
    # twenty generators of degree 7 and x of degree 1, cutoff 12: the unit
    # and the g_i give a table of 41 entries, then x grows them to 133 basis
    # monomials; the enumeration stops at the first count over the cap
    monkeypatch.setattr(gradedring, "TABLE_CAP", 100)
    gens = tuple(Generator("g%d" % i, 7) for i in range(20))
    pres = RingPresentation(0, 12, gens + (Generator("x", 1),))
    with pytest.raises(TableTooLarge,
                       match="at least 103 entries exceeds the cap 100"):
        GradedRing(pres)
    with pytest.raises(TableTooLarge, match="cutoff 13 gives 105 degree pairs"):
        GradedRing(replace(pres, cutoff=13))


def test_table_cap_refusals_keep_their_counts(monkeypatch):
    # the counts of both refusals of the enumeration are those of the
    # enumeration that tested every rule at every exponent: T^11 after its
    # last generator, and three free degree-2 generators at cutoff 400
    # after the first two, whose 20,301 monomials give 70,058,751 pairs.
    # The check after each generator reads the enumeration's running
    # count of prefixes per degree, whose total the spy records
    free = RingPresentation(0, 400, tuple(Generator("x%d" % i, 2)
                                          for i in range(3)))
    two = [k // 2 + 1 if k % 2 == 0 else 0 for k in range(401)]
    pairs = sum(n * sum(two[:401 - d]) for d, n in enumerate(two))
    assert pairs == 70058751
    sizes = []
    check_table_size = GradedRing._check_table_size

    def spy(self, counts):
        sizes.append(sum(counts))
        return check_table_size(self, counts)

    monkeypatch.setattr(GradedRing, "_check_table_size", spy)
    for pres, entries in ((truncated_product("t", 1, [1] * 11, 11), 2449868),
                          (free, pairs)):
        message = ("product table of at least %d entries exceeds the cap "
                   "1000000" % entries)
        for cls in (GradedRing, ring_reference.ParentEnumerationRing):
            assert outcome(cls, pres) == (TableTooLarge, message)
    assert sizes == [2 ** k for k in range(1, 12)] + [201, 20301]


class EnumerationOnly:
    """Mixin: construction stops after the cutoff check and enumeration."""

    def _check_confluence(self):
        pass

    def _check_table(self):
        pass


class EnumeratedRing(EnumerationOnly, GradedRing):
    pass


class EnumeratedParentRing(EnumerationOnly,
                           ring_reference.ParentEnumerationRing):
    pass


class EnumeratedBoxScanRing(EnumerationOnly, BoxScanRing):
    pass


def odd_masks(ring):
    """Per degree, the odd-exponent mask of each basis monomial, from the
    basis alone: bit i for an odd exponent of an odd-degree generator."""
    return {d: tuple(sum(1 << i for i, (e, g) in enumerate(zip(m, ring._degrees))
                         if e & g & 1) for m in basis)
            for d, basis in ring._basis.items()}


def enumeration(cls, pres):
    """Basis, orders and odd-exponent masks of pres, or the refusal of its
    enumeration; a ring that keeps no masks gets them from its basis."""
    try:
        ring = cls(pres)
    except RingError as exc:
        return type(exc), str(exc)
    masks = getattr(ring, "_masks", None)
    if masks is None:
        masks = odd_masks(ring)
    return (ring._basis, ring._orders,
            {d: tuple(v) for d, v in masks.items()})


def random_monomial_presentation(draw):
    """1-4 generators of degree 1-4 and order 0, 2, 3 or 4, modulus 0, 2
    or 4, cutoff 0-10, and monomial rules: up to three with a support of
    two or more generators, maybe x^2 and x^3 of one generator, maybe one
    rule twice, in any order."""
    from hypothesis import strategies as st
    n = draw(st.integers(1, 4))
    gens = tuple(Generator("g%d" % k, draw(st.integers(1, 4)),
                           draw(st.sampled_from((0, 2, 3, 4))))
                 for k in range(n))
    lhss = []
    if n > 1:
        for _ in range(draw(st.integers(0, 3))):
            support = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                    max_size=n, unique=True))
            lhss.append(tuple(draw(st.integers(1, 3)) if k in support else 0
                              for k in range(n)))
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        lhss += [tuple(p if j == k else 0 for j in range(n)) for p in (2, 3)]
    if lhss and draw(st.booleans()):
        lhss.append(draw(st.sampled_from(lhss)))
    lhss = draw(st.permutations(lhss))
    return RingPresentation(draw(st.sampled_from((0, 2, 4))),
                            draw(st.integers(0, 10)), gens,
                            tuple(RewriteRule(lhs) for lhs in lhss))


def test_enumeration_matches_box_scan_and_parent():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    seen = collections.Counter()

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        pres = random_monomial_presentation(data.draw)
        # a cap of 25 pairs refuses about half of the draws, mid-way
        cap = data.draw(st.sampled_from((gradedring.TABLE_CAP, 25)))
        saved, gradedring.TABLE_CAP = gradedring.TABLE_CAP, cap
        try:
            got = enumeration(EnumeratedRing, pres)
            assert got == enumeration(EnumeratedParentRing, pres), pres
            if cap == saved:
                assert got == enumeration(EnumeratedBoxScanRing, pres), pres
        finally:
            gradedring.TABLE_CAP = saved
        seen["refused" if got[0] is TableTooLarge else
             "masked" if any(any(v) for v in got[2].values()) else
             "built"] += 1
        rules = [r.lhs for r in pres.rules]
        seen["repeated rule"] += len(set(rules)) < len(rules)

    check()
    assert min(seen.values()) > 10, seen


def test_confluence_check_is_capped_before_any_comparison(monkeypatch):
    # four degree-2 generators, cutoff 12, g_i g_j -> 0 (i < j),
    # g_i^2 -> g_0^2 (i >= 1) and g_0^3 -> 0: 10 rules, and the 3 with a
    # right-hand side have 166 distinct multiples (the 210 exponent tuples
    # of degree <= 12 less the 44 with g_1..g_3 exponents below 2).  The
    # check normalises all 166 and tests the 10 rules only on the 3 in
    # degree 4, the last degree with basis monomials: 196 steps
    gens = tuple(Generator("g%d" % i, 2) for i in range(4))
    unit = [tuple(int(k == i) for k in range(4)) for i in range(4)]
    rules = [RewriteRule(tuple(a + b for a, b in zip(unit[i], unit[j])))
             for i, j in itertools.combinations(range(4), 2)]
    rules += [RewriteRule(tuple(2 * e for e in unit[i]),
                          ((1, (2, 0, 0, 0)),)) for i in range(1, 4)]
    rules.append(RewriteRule((3, 0, 0, 0)))
    pres = RingPresentation(0, 12, gens, tuple(rules))
    monkeypatch.setattr(gradedring, "TABLE_CAP", 196)
    ring = GradedRing(pres)
    assert [len(ring.basis(d)) for d in range(0, 13, 2)] == [1, 4, 1, 0, 0,
                                                             0, 0]

    def compared(*args):
        raise AssertionError("a normal form was computed")

    monkeypatch.setattr(gradedring, "TABLE_CAP", 195)
    monkeypatch.setattr(GradedRing, "_normal_form", compared)
    with pytest.raises(TableTooLarge, match=r"^confluence check of 166 "
                       r"multiples, 3 of them tested by 10 rules, exceeds "
                       r"the cap 195$"):
        GradedRing(pres)
    # more multiples than the cap are refused while they are listed
    monkeypatch.setattr(gradedring, "TABLE_CAP", 165)
    with pytest.raises(TableTooLarge, match=r"^confluence check of more than "
                       r"165 multiples exceeds the cap 165$"):
        GradedRing(pres)


# a -> b and b -> a: degree 2 has no basis, and rewriting cycles there
TWO_CYCLE = RingPresentation(
    0, 2, (Generator("a", 2), Generator("b", 2)),
    (RewriteRule((1, 0), ((1, (0, 1)),)), RewriteRule((0, 1), ((1, (1, 0)),))))
# b^2 -> a^2 with a*b, a^3 -> 0: a^2 spans degree 4 and degree 6 has no
# basis; the rule raises the exponent tuple in lex and in reverse lex
NEITHER_ORDER = RingPresentation(
    0, 6, (Generator("a", 2), Generator("b", 2)),
    (RewriteRule((0, 2), ((1, (2, 0)),)), RewriteRule((1, 1)),
     RewriteRule((3, 0))))


def confluence_spies(monkeypatch):
    """The monomials whose normal form is computed, and those rewritten
    by a rule other than their first, while the spies are in place."""
    compared, normalised = set(), set()
    rewrite, normal_form = GradedRing._rewrite, GradedRing._normal_form

    def spy_rewrite(self, exps, r):
        if r is not self._first_rule(exps):
            compared.add(exps)
        return rewrite(self, exps, r)

    def spy_normal_form(self, exps):
        normalised.add(exps)
        return normal_form(self, exps)

    monkeypatch.setattr(GradedRing, "_rewrite", spy_rewrite)
    monkeypatch.setattr(GradedRing, "_normal_form", spy_normal_form)
    return compared, normalised


def rule_multiples(ring):
    """Every multiple s*lhs within the cutoff of a rule with a right-hand
    side, keyed by its degree."""
    out = collections.defaultdict(set)
    for rule in ring.presentation.rules:
        if rule.rhs:
            budget = ring.cutoff - ring._exp_degree(rule.lhs)
            for rest in ring._all_monomials(budget, 10 ** 6):
                m = tuple(l + e for l, e in zip(rule.lhs, rest))
                out[ring._exp_degree(m)].add(m)
    return out


def test_confluence_compares_rules_only_where_a_basis_is(corpus,
                                                        monkeypatch):
    # s1xwu's mod-4 ring has one rule with a right-hand side,
    # zeta2*zeta3 -> 2 mu4, with 35 multiples in degrees 5-12.  33 of
    # them, all in degrees 7-12 where the basis is empty, take a second
    # rule; none is compared.  The rule lowers the exponent tuple in lex,
    # so rewriting terminates, and only the 2 multiples in degrees 5-6
    # are normalised
    pres = corpus["s1xwu"].bundle.rings.mod4.presentation
    ring = GradedRing(pres)
    assert gradedring._rewriting_descends(pres.rules)
    rule = next(r for r in pres.rules if r.rhs)
    budget = pres.cutoff - ring._exp_degree(rule.lhs)
    multiples = {tuple(l + e for l, e in zip(rule.lhs, rest))
                 for rest in ring._all_monomials(budget, 10 ** 6)}
    overlaps = {m for m in multiples
                if sum(all(l <= e for l, e in zip(r.lhs, m))
                       for r in pres.rules) > 1}
    assert len(multiples) == 35 and len(overlaps) == 33
    assert {ring._exp_degree(m) for m in overlaps} == set(range(7, 13))
    assert all(not ring.basis(d) for d in range(7, 13))
    compared, normalised = confluence_spies(monkeypatch)
    assert GradedRing(pres) == ring
    assert compared == set()
    low = {m for m in multiples if ring._exp_degree(m) in (5, 6)}
    assert len(low) == 2 and multiples & normalised == low
    assert all(ring._exp_degree(m) < 7 for m in normalised)


def test_confluence_without_a_descending_order_normalises_every_multiple(
        monkeypatch):
    # neither lex nor reverse lex proves termination for a 2-cycle, nor
    # for b^2 -> a^2, so every multiple is normalised, in degrees
    # without a basis too: the cycle is refused at its first multiple,
    # b in degree 2, and b^2 -> a^2 builds after normalising a*b^2 and b^3
    # in degree 6
    assert not gradedring._rewriting_descends(TWO_CYCLE.rules)
    assert not gradedring._rewriting_descends(NEITHER_ORDER.rules)
    neither = GradedRing(NEITHER_ORDER)
    compared, normalised = confluence_spies(monkeypatch)
    with pytest.raises(ConfluenceError,
                       match=r"^rewriting does not terminate at b$"):
        GradedRing(TWO_CYCLE)
    assert normalised == {(1, 0), (0, 1)} and compared == set()
    normalised.clear()
    assert GradedRing(NEITHER_ORDER) == neither
    multiples = rule_multiples(neither)
    assert multiples == {4: {(0, 2)}, 6: {(1, 2), (0, 3)}}
    assert neither.basis(6) == ()
    assert set().union(*multiples.values()) <= normalised


# a*c -> b^2 lowers the exponent tuple in lex alone, b^3 -> a*b*c in
# reverse lex alone, and together they cycle on b^3 in degree 6, which
# the rules without a right-hand side leave without a basis
MIXED_ORDER_CYCLE = RingPresentation(
    0, 6, (Generator("a", 2), Generator("b", 2), Generator("c", 2)),
    (RewriteRule((2, 0, 0)), RewriteRule((0, 0, 2)),
     RewriteRule((1, 0, 1), ((1, (0, 2, 0)),)),
     RewriteRule((0, 3, 0), ((1, (1, 1, 1)),)),
     RewriteRule((1, 2, 0)), RewriteRule((0, 2, 1))))


def assert_construction_matches_parent(pres, kinds):
    """GradedRing and the parent's construction (ParentProductRing, whose
    confluence check normalises every multiple and whose table check
    tests orders in every ring) accept pres or refuse it with the same
    first message, and agree on the element of every exponent tuple in
    every degree that has basis monomials; kinds counts the outcomes."""
    ring = built(GradedRing, pres)
    parent = built(ring_reference.ParentProductRing, pres)
    if isinstance(ring, tuple) or isinstance(parent, tuple):
        assert ring == parent, pres
        kinds[ring[0].__name__] += 1
        return
    for exps in ring._all_monomials(ring.cutoff, gradedring.TABLE_CAP):
        if ring._basis[ring._exp_degree(exps)]:
            assert ring.monomial(exps) == parent.monomial(exps), (pres, exps)
    if not ring._rewrites:
        kinds["no rewriting" if not any(map(any, ring._orders.values()))
              else "no rewriting, finite orders"] += 1
    elif gradedring._rewriting_descends(pres.rules):
        kinds["rewriting, descending"] += 1
    else:
        kinds["rewriting, no order"] += 1


def test_construction_matches_the_parent_on_files_and_fixtures(corpus):
    kinds = collections.Counter()
    paths = sorted(CORPUS_DIR.glob("*.json")) + sorted(DATA_DIR.glob("*.json"))
    for path in paths:
        rings = json.loads(path.read_text())["rings"]
        moduli = {"shared": 0, "integral": 0, "mod2": 2, "mod4": 4}
        for label, section in rings.items():
            pres = spacefile._presentation(section, moduli[label], label)
            assert_construction_matches_parent(pres, kinds)
    # the mod-4 rings of s1xwu and of duplicate_index, a copy of it
    assert kinds["rewriting, descending"] == 2, kinds
    assert kinds["no rewriting, finite orders"] > 5, kinds
    # hand_fixtures holds LIVE_ODD_SQUARE, ORDER_THREE_TIMES_FREE and two
    # odd_rule_fixture rings; the others rule between any two degree-3
    # monomials of u, x, z and w
    degree_three = [(1, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 0, 1)]
    fixtures = list(hand_fixtures(corpus))
    fixtures += [odd_rule_fixture(lhs, rhs)
                 for lhs, rhs in itertools.permutations(degree_three, 2)]
    fixtures += [TWO_CYCLE, NEITHER_ORDER, MIXED_ORDER_CYCLE]
    for pres in fixtures:
        assert_construction_matches_parent(pres, kinds)
    assert set(kinds) == {
        "no rewriting", "no rewriting, finite orders", "rewriting, descending",
        "rewriting, no order", "ConfluenceError", "SignRuleError",
        "RingError"}, kinds


def test_construction_matches_the_parent_on_random_presentations():
    # the draws of test_squares_and_signs_match_on_random_presentations
    rng = random.Random(2024)
    kinds = collections.Counter()
    for _ in range(2000):
        assert_construction_matches_parent(random_presentation(rng), kinds)
    for _ in range(300):
        assert_construction_matches_parent(random_odd_presentation(rng),
                                           kinds)
    # three draws break the additive orders, the refusal "RingError"
    assert len(kinds) == 7 and kinds.pop("RingError") == 3, kinds
    assert min(kinds.values()) > 20, kinds


def test_construction_matches_the_parent_on_monomial_presentations():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    kinds = collections.Counter()

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        assert_construction_matches_parent(
            random_monomial_presentation(data.draw), kinds)

    check()
    assert kinds["no rewriting, finite orders"] > 50, kinds


def test_basis_names_are_shared_with_derived_rings():
    system = RingSystem.with_reduction_defaults(
        truncated_product("t", 1, [1] * 4, 4))
    for d in range(5):
        names = system.integral.basis_strings(d)
        assert names == tuple(format_exponents(system.integral.names, m)
                              for m in system.integral.basis(d))
        assert system.mod2.basis_strings(d) is names
        assert system.mod4.basis_strings(d) is names
        order = system.integral.basis_string_order(d)
        assert [names[i] for i in order] == sorted(names)
        assert system.mod2.basis_string_order(d) is order
        assert system.mod4.basis_string_order(d) is order
        index = system.integral.basis_string_index(d)
        assert index == {n: i for i, n in enumerate(names)}
        assert system.mod2.basis_string_index(d) is index
        assert system.mod4.basis_string_index(d) is index


def test_names_are_sorted_only_where_terms_are_listed(
        cp2_sums, tmp_path, monkeypatch):
    # a degree's sorted name order is built the first time it is read:
    # loading a shared-form file, the verdict and the text report sort no
    # names, and the JSON report sorts them once per degree it writes
    # terms in, the mod-m rings sharing the integral ring's table.  The
    # names sort is gradedring's only sort with a key
    keyed = []

    def counted_sorted(iterable, *, key=None, reverse=False):
        if key is not None:
            keyed.append(key)
        return sorted(iterable, key=key, reverse=reverse)

    def degrees(doc) -> set:
        # the degree of every class in a JSON report: of each element
        # object, and 2i of each "ci" entry of a candidate
        if isinstance(doc, list):
            return set().union(*map(degrees, doc))
        if not isinstance(doc, dict):
            return set()
        found = {doc["degree"]} if "terms" in doc else set()
        for key, value in doc.items():
            if key in ("candidate", "vanishing"):
                for candidate in value if key == "vanishing" else [value]:
                    found |= {2 * int(c[1:]) for c in candidate}
            else:
                found |= degrees(value)
        return found

    cp2_sum = tmp_path / "cp2_sum_3_3.json"
    cp2_sum.write_text(json.dumps(cp2_sums(3, 3)))
    paths = [p for p in sorted(CORPUS_DIR.glob("*.json"))
             if "shared" in json.loads(p.read_text())["rings"]] + [cp2_sum]
    monkeypatch.setattr(gradedring, "sorted", counted_sorted, raising=False)
    sorts = {}
    for path in paths:
        keyed.clear()
        sf = load_space_file(path)
        report = obstruct.acs_verdict(sf.bundle, bound=2)
        render_text(report, sf.name)
        assert keyed == [], path.name
        written = degrees(json.loads(render_json(report, sf.name)))
        assert len(keyed) == len(written), path.name
        sorts[path.stem] = len(keyed)
    assert sorts["cp2_sum_3_3"] == 2 and sorts["hp2"] > 0, sorts


def family_docs(F):
    """The shared-form space files of six `families` bundles."""
    bundles = [F.tangent_cp_product([6]), F.tangent_cp_product([2, 2]),
               F.tangent_cp_product([1, 3]),
               F.line_sum(F.cp_product([2, 2, 2]), [[1, 1, 1]]),
               F.line_sum(F.torus(4), [[0] * 4]),
               F.line_sum(F.sphere_product(3), [[2, 0, 2]])]
    return [F.space_doc("family%d" % i, b) for i, b in enumerate(bundles)]


def family_and_corpus_systems(corpus, F):
    """The ring systems of six `families` bundles and of the corpus."""
    systems = [space_file_from_doc(doc).bundle.rings for doc in family_docs(F)]
    return systems + [sf.bundle.rings for sf in corpus.values()]


def test_term_strings_sorts_terms_by_monomial_name(corpus, families):
    rng = random.Random(14)
    checked = 0
    for system in family_and_corpus_systems(corpus, families):
        for ring in (system.integral, system.mod2, system.mod4):
            for d in range(ring.cutoff + 1):
                n = len(ring.basis(d))
                elements = [ring.element(d, [int(i == j) for j in range(n)])
                            for i in range(n)]
                elements += [ring.element(d, [rng.randint(-5, 5)
                                              for _ in range(n)])
                             for _ in range(4)]
                for x in elements:
                    names = ring.basis_strings(d)
                    expected = {m: str(c) for m, c in
                                sorted(zip(names, x.coeffs)) if c}
                    assert list(x.term_strings().items()) == \
                        list(expected.items())
                    checked += len(expected) > 1
    assert checked > 100


def reference_str(self):
    # the term-by-term RingElement.__str__ that `text` must match, verbatim
    parts = []
    for text, c in zip(self.ring.basis_strings(self.degree), self.coeffs):
        if not c:
            continue
        if text == "1":
            parts.append("%d" % c)
        elif c == 1:
            parts.append(text)
        elif c == -1:
            parts.append("-%s" % text)
        else:
            parts.append("%d*%s" % (c, text))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
    return out


def test_element_text_matches_the_reference(corpus, families):
    # every basis element and its negative, and seeded random elements
    # with zero, unit and large coefficients of either sign, of every
    # degree of the integral, mod-2 and mod-4 rings
    rng = random.Random(15)
    coefficients = [0, 0, 1, -1, 2, -2, 3, -7, 12, -10 ** 6, 10 ** 30]
    seen = collections.Counter()
    for system in family_and_corpus_systems(corpus, families):
        for ring in (system.integral, system.mod2, system.mod4):
            for d in range(ring.cutoff + 1):
                names = ring.basis_strings(d)
                n = len(names)
                elements = [ring.element(d, [s * (i == j) for j in range(n)])
                            for i in range(n) for s in (1, -1, 5)]
                elements += [ring.element(d, [rng.choice(coefficients)
                                              for _ in range(n)])
                             for _ in range(6)]
                elements.append(ring.zero(d))
                for x in elements:
                    expected = reference_str(x)
                    assert str(x) == expected
                    assert gradedring.text(names, x.coeffs) == expected
                    first = next((c for c in x.coeffs if c), 0)
                    seen["degree 0, |c| > 1"] += d == 0 and abs(first) > 1
                    seen["negative first term"] += first < 0 and n > 1
                    seen["several terms"] += sum(map(bool, x.coeffs)) > 1
                    seen["zero"] += first == 0
    assert min(seen.values()) > 20, seen


def test_torus_basis_sizes_are_binomial():
    system = RingSystem.with_reduction_defaults(
        truncated_product("t", 1, [1] * 7, 7))
    for ring in (system.integral, system.mod2, system.mod4):
        assert [len(ring.basis(d)) for d in range(8)] == \
            [math.comb(7, d) for d in range(8)]


def test_derived_reductions_equal_rings_built_from_scratch(corpus):
    for name, pres in shared_presentations(corpus).items():
        system = RingSystem.with_reduction_defaults(pres)
        for derived in (system.mod2, system.mod4):
            m = derived.modulus
            scratch = GradedRing(replace(pres, modulus=m))
            ref = BoxScanRing(replace(pres, modulus=m))
            assert derived == scratch and hash(derived) == hash(scratch), name
            assert vars(derived).keys() == vars(scratch).keys()
            cutoff = pres.cutoff
            for d in range(cutoff + 1):
                assert derived.basis(d) == scratch.basis(d) == ref.basis(d)
                assert derived.orders(d) == scratch.orders(d) == \
                    (m,) * len(scratch.basis(d))
            table = dense_table(derived)
            assert table == dense_table(scratch), (name, m)
            assert table == ref._table, (name, m)
            for mons in ref._monomials.values():
                for exps in mons:
                    assert derived.monomial(exps).coeffs == \
                        scratch.monomial(exps).coeffs, (name, m, exps)


# -- products ---------------------------------------------------------------


def test_cup_products(proj_plane_ring):
    r = proj_plane_ring
    a = r.from_terms(2, {"a": 1})
    assert a * a == r.from_terms(4, {"a^2": 1})
    assert (a * a * a).is_zero  # truncation relation
    assert (a * r.unit()) == a
    assert (3 * a).term_strings() == {"a": "3"}
    assert (a ** 2).term_strings() == {"a^2": "1"}


def test_unit_is_the_empty_monomial(corpus):
    for sf in corpus.values():
        rings = sf.bundle.rings
        for ring in (rings.integral, rings.mod2, rings.mod4):
            empty = (0,) * len(ring.generators)
            assert ring.basis(0) == (empty,)
            assert ring.unit() == ring.monomial(empty)


def test_product_beyond_cutoff_raises(proj_plane_ring):
    r = proj_plane_ring
    a2 = r.from_terms(4, {"a^2": 1})
    assert (a2 * a2).is_zero  # degree 8 still lives in the ring
    with pytest.raises(DegreeError):
        a2 * a2 * a2  # degree 12 does not


def test_product_into_a_degree_without_basis_normalises_nothing(
        monkeypatch):
    # a * a^2 lands in degree 6, where Z[a]/(a^3) has no basis monomials:
    # the product is () at once, without normalising a^3 or memoising it
    r = GradedRing(truncated_polynomial("a", 2, 3, 8))
    assert r.basis(6) == () and r.basis(8) == ()
    normalised = []
    product_terms = GradedRing._product_terms

    def spy(self, d1, i, d2, j):
        normalised.append((d1, i, d2, j))
        return product_terms(self, d1, i, d2, j)

    monkeypatch.setattr(GradedRing, "_product_terms", spy)
    assert gradedring.product(r, 2, (1,), 4, (5,)) == []
    assert gradedring.product(r, 4, (-3,), 4, (2,)) == []
    a = r.from_terms(2, {"a": 1})
    assert (a * (a * a)).coeffs == ()
    assert normalised == [(2, 0, 2, 0)]  # a * a, in degree 4
    assert list(r._products) == [(2, 0, 2, 0)]
    with pytest.raises(DegreeError):
        gradedring.product(r, 6, (), 4, (1,))  # beyond the cutoff still


def test_parse_exponents_reads_the_same_with_a_given_index():
    # spacefile._presentation builds the name index once per presentation
    names = ("a", "b", "c_1")
    index = {n: i for i, n in enumerate(names)}
    for text in ("1", " 1 ", "a", "a*b", "b * a^2", "c_1^3*a", "a*a",
                 "a^ 2", "d", "a^0", "a^-1", "a^x", "a*", "", "A"):
        try:
            expected = parse_exponents(names, text)
        except ValueError as exc:
            expected = str(exc)
        try:
            got = parse_exponents(names, text, index)
        except ValueError as exc:
            got = str(exc)
        assert got == expected, text
    assert parse_exponents(names, "b * a^2", index) == (2, 1, 0)


def test_mixed_degree_addition_rejected(proj_plane_ring):
    r = proj_plane_ring
    with pytest.raises(DegreeError):
        r.from_terms(2, {"a": 1}) + r.from_terms(4, {"a^2": 1})


def test_koszul_sign_for_odd_generators():
    pres = RingPresentation(
        modulus=0, cutoff=4,
        generators=(Generator("t", 1), Generator("m", 3)),
        rules=(RewriteRule((2, 0), ()), RewriteRule((0, 2), ())))
    r = GradedRing(pres)
    t = r.from_terms(1, {"t": 1})
    m = r.from_terms(3, {"m": 1})
    tm = r.from_terms(4, {"t*m": 1})
    assert t * m == tm
    assert m * t == -tm
    assert not (m * t).is_zero


def test_rewriting_sign_of_the_left_hand_side():
    r = GradedRing(SIGN_OF_LHS)
    x, z = r.from_terms(1, {"x": 1}), r.from_terms(1, {"z": 1})
    w = r.from_terms(2, {"w": 1})
    assert (x * z) * w == -r.from_terms(4, {"u*x*w": 1}) == x * (z * w)
    check_associativity(r)


def test_rewriting_sign_of_the_right_hand_side():
    r = GradedRing(SIGN_OF_RHS)
    u, x = r.from_terms(1, {"u": 1}), r.from_terms(1, {"x": 1})
    w = r.from_terms(2, {"w": 1})
    assert (u * x) * w == -r.from_terms(4, {"x*z*w": 1}) == u * (x * w)
    check_associativity(r)


def test_odd_square_needs_a_rule():
    # over Z an odd generator with t^2 surviving contradicts t*t = -t*t
    pres = RingPresentation(
        modulus=0, cutoff=2, generators=(Generator("t", 1),), rules=())
    with pytest.raises(SignRuleError):
        GradedRing(pres)
    # mod 2 the sign argument is vacuous and t^2 is an honest basis class
    r = GradedRing(RingPresentation(
        modulus=2, cutoff=2, generators=(Generator("t", 1),), rules=()))
    t = r.from_terms(1, {"t": 1})
    assert (t * t).term_strings() == {"t^2": "1"}


def test_rewrite_cycle_detected():
    pres = RingPresentation(
        modulus=0, cutoff=4,
        generators=(Generator("a", 2), Generator("b", 2)),
        rules=(RewriteRule((2, 0), ((1, (0, 2)),)),
               RewriteRule((0, 2), ((1, (2, 0)),))))
    with pytest.raises(ConfluenceError):
        GradedRing(pres)


def test_inconsistent_overlap_detected():
    # a^2 -> 0 but a^2*b -> b^3: the same monomial normalizes two ways
    pres = RingPresentation(
        modulus=0, cutoff=6,
        generators=(Generator("a", 2), Generator("b", 2)),
        rules=(RewriteRule((2, 0), ()),
               RewriteRule((2, 1), ((1, (0, 3)),))))
    with pytest.raises(ConfluenceError):
        GradedRing(pres)
    with pytest.raises(ConfluenceError):
        RingSystem.with_reduction_defaults(pres)


# -- element construction ----------------------------------------------------


def test_from_terms_validation(proj_plane_ring):
    r = proj_plane_ring
    with pytest.raises(RingError):
        r.from_terms(2, {"q": 1})
    with pytest.raises(DegreeError):
        r.from_terms(2, {"a^2": 1})
    assert r.from_terms(4, {"a^2": 0}).is_zero


def test_element_rendering(proj_plane_ring):
    r = proj_plane_ring
    assert str(r.from_terms(2, {"a": -3})) == "-3*a"
    assert str(r.from_terms(2, {"a": 1})) == "a"
    assert str(r.zero(6)) == "0"
    assert str(r.unit()) == "1"


def test_modular_coefficients_normalize():
    r = GradedRing(truncated_polynomial("a", 2, 3, 8, modulus=2))
    a = r.from_terms(2, {"a": 1})
    assert (a + a).is_zero
    assert r.from_terms(2, {"a": 3}) == a


# -- coefficient maps ---------------------------------------------------------


@pytest.fixture(scope="module")
def proj_plane_system():
    return RingSystem.with_reduction_defaults(truncated_polynomial("a", 2, 3, 8))


def test_reduction_defaults_identities(proj_plane_system):
    sys = proj_plane_system
    for d in range(0, sys.integral.cutoff + 1):
        for i in range(len(sys.integral.basis(d))):
            coeffs = [0] * len(sys.integral.basis(d))
            coeffs[i] = 1
            x = sys.integral.element(d, coeffs)
            assert sys.theta2(sys.rho2(x)) == sys.rho4(2 * x)
            assert sys.rho24(sys.rho4(x)) == sys.rho2(x)
            assert sys.beta(sys.rho2(x)).is_zero


def test_map_rejects_wrong_ring(proj_plane_system):
    sys = proj_plane_system
    u = sys.mod2.from_terms(2, {"a": 1})
    with pytest.raises(RingError):
        sys.rho2(u)  # rho2 eats integral classes


def test_broken_square_map_rejected():
    pres = truncated_polynomial("a", 2, 3, 8)
    integral = GradedRing(pres)
    mod2 = GradedRing(replace(pres, modulus=2))
    mod4 = GradedRing(replace(pres, modulus=4))
    with pytest.raises(RingError):
        RingSystem(
            integral, mod2, mod4,
            rho2=CoefficientMap.scaled_identity("rho2", integral, mod2),
            rho4=CoefficientMap.scaled_identity("rho4", integral, mod4),
            # wrong scale: theta2 must send 1 to 2
            theta2=CoefficientMap.scaled_identity("theta2", mod2, mod4),
            rho24=CoefficientMap.scaled_identity("rho24", mod4, mod2),
            beta=CoefficientMap("beta", mod2, integral, 1))


# -- sparse maps against the dense reference ------------------------------------


class DenseMap:
    """Reference map: one dense IntMatrix per degree, normalised row by row.

    It is the construction the sparse columns of CoefficientMap replaced,
    and every map under test must agree with it or fail the same way.
    """

    def __init__(self, name, source, target, shift, matrices=None):
        self.name = name
        self.source = source
        self.target = target
        self.shift = shift
        given = dict(matrices or {})
        self.matrices = {}
        for d in range(source.cutoff + 1):
            td = d + shift
            if not 0 <= td <= target.cutoff:
                continue
            rows = len(target.basis(td))
            cols = len(source.basis(d))
            M = given.pop(d, None)
            if M is None:
                M = IntMatrix.zero(rows, cols)
            if M.rows != rows or M.cols != cols:
                raise RingError(
                    "map %s: matrix in degree %d should be %dx%d, got %dx%d"
                    % (name, d, rows, cols, M.rows, M.cols))
            norm = IntMatrix(rows, cols,
                             [_norm_coeff(x, o)
                              for i, o in enumerate(target.orders(td))
                              for x in M.row(i)])
            s_orders = source.orders(d)
            for i, ot in enumerate(target.orders(td)):
                if any(_norm_coeff(o * x, ot)
                       for o, x in zip(s_orders, norm.row(i)) if o):
                    raise RingError(
                        "map %s does not respect additive orders in degree %d"
                        % (name, d))
            self.matrices[d] = norm
        if given:
            raise RingError(
                "map %s: matrices supplied for undefined degrees %s"
                % (name, sorted(given)))

    @classmethod
    def scaled_identity(cls, name, source, target, scale=1):
        mats = {}
        for d in range(min(source.cutoff, target.cutoff) + 1):
            n = len(source.basis(d))
            mats[d] = IntMatrix(n, n, [scale if i == j else 0
                                       for i in range(n) for j in range(n)])
        return cls(name, source, target, 0, mats)


class DenseSystem:
    """Reference RingSystem: every law checked by dense products."""

    def __init__(self, integral, mod2, mod4, rho2, rho4, theta2, rho24,
                 beta):
        self.integral, self.mod2, self.mod4 = integral, mod2, mod4
        self.rho2, self.rho4, self.theta2 = rho2, rho4, theta2
        self.rho24, self.beta = rho24, beta
        self.validate()

    def validate(self):
        for d in range(self.integral.cutoff + 1):
            self.expect(d, self.mod4,
                        self.theta2.matrices[d] @ self.rho2.matrices[d],
                        self.scale(self.rho4.matrices[d], 2),
                        "theta2 . rho2 = rho4 . 2")
            self.expect(d, self.mod2,
                        self.rho24.matrices[d] @ self.rho4.matrices[d],
                        self.rho2.matrices[d], "rho24 . rho4 = rho2")
            if d in self.beta.matrices:
                B = self.beta.matrices[d]
                self.expect(d + 1, self.integral, self.scale(B, 2),
                            IntMatrix.zero(B.rows, B.cols), "2 beta = 0")
                R = self.rho2.matrices[d]
                self.expect(d + 1, self.integral, B @ R,
                            IntMatrix.zero(B.rows, R.cols), "beta . rho2 = 0")

    @staticmethod
    def scale(M, k):
        return IntMatrix(M.rows, M.cols, [k * M[i, j] for i in range(M.rows)
                                          for j in range(M.cols)])

    @staticmethod
    def expect(degree, ring, left, right, law):
        orders = ring.orders(degree)

        def norm(M):
            return tuple(_norm_coeff(M[i, j], orders[i])
                         for i in range(M.rows) for j in range(M.cols))

        if norm(left) != norm(right):
            raise RingError("identity %s fails in degree %d" % (law, degree))


def system_outcome(map_class, system_class, rings, mats):
    """The system the map matrices give, or the error that refuses them.

    rings maps "integral", "mod2", "mod4" to rings; mats maps each map
    name to its {degree: IntMatrix}.
    """
    try:
        maps = {name: map_class(name, rings[src], rings[tgt], shift,
                                mats[name])
                for name, src, tgt, shift in gradedring.MAP_SIGNATURES
                if name in mats}
        return system_class(rings["integral"], rings["mod2"], rings["mod4"],
                            **maps)
    except RingError as exc:
        return type(exc), str(exc)


def sparse_map(name, source, target, shift, matrices=None):
    """The column map of dense IntMatrix matrices, per source degree,
    read as a space file's rows are: row count and nonzero entries."""
    return matrix_map(name, source, target, shift, {
        d: (M.rows, [{i: M[i, j] for i in range(M.rows) if M[i, j]}
                     for j in range(M.cols)])
        for d, M in (matrices or {}).items()})


def dense_matrix(m, d):
    """The map m in source degree d as a dense IntMatrix, from its columns."""
    columns = m.columns[d]
    rows, cols = len(m.target.basis(d + m.shift)), len(columns)
    entries = [0] * (rows * cols)
    for j, col in enumerate(columns):
        for i, x in col.items():
            entries[i * cols + j] = x
    return IntMatrix(rows, cols, entries)


def assert_same_system(rings, mats, rng, got=None):
    """The outcome under test, by default the column maps built from mats,
    against the dense reference built from mats: the same refusal, or
    equal maps with equal images of random elements."""
    if got is None:
        got = system_outcome(sparse_map, RingSystem, rings, mats)
    ref = system_outcome(DenseMap, DenseSystem, rings, mats)
    if isinstance(ref, tuple):
        assert got == ref
        return ref[1]
    assert isinstance(got, RingSystem), got
    for name, _, _, shift in gradedring.MAP_SIGNATURES:
        m, dense = getattr(got, name), getattr(ref, name)
        assert set(m.columns) == set(dense.matrices), name
        for d, M in dense.matrices.items():
            assert dense_matrix(m, d) == M, (name, d)
            n = len(m.source.basis(d))
            for _ in range(3):
                x = m.source.element(d, [rng.randint(-5, 5) for _ in range(n)])
                assert m(x) == m.target.element(d + shift, M.mul_vector(x.coeffs))
    return "accepted"


def system_rings(system):
    return {"integral": system.integral, "mod2": system.mod2,
            "mod4": system.mod4}


def system_matrices(system):
    return {name: {d: dense_matrix(getattr(system, name), d)
                   for d in getattr(system, name).columns}
            for name, _, _, _ in gradedring.MAP_SIGNATURES}


def shared_matrices(rings):
    """Dense scaled identities of a shared-ring system; beta is zero."""
    mats = {name: DenseMap.scaled_identity(
                name, rings[src], rings[tgt],
                2 if name == "theta2" else 1).matrices
            for name, src, tgt, _ in gradedring.MAP_SIGNATURES[:4]}
    mats["beta"] = {}
    return mats


def torsion_rings():
    """H^1 = Z x, H^2 = Z a + Z/4 t + Z/3 s, with x^2 = 0 and cutoff 2.

    The mod-2 and mod-4 rings have y and a, t one degree up each; s has
    no reduction, since 3 is a unit mod 2 and mod 4.
    """
    def ring(modulus, names, orders):
        gens = tuple(Generator(n, deg, o) for n, deg, o in
                     zip(names, (1, 2, 2, 2), orders) if n)
        rule = RewriteRule((2,) + (0,) * (len(gens) - 1), ())
        return GradedRing(RingPresentation(modulus, 2, gens, (rule,)))

    rings = {"integral": ring(0, ("x", "s", "t", "a"), (0, 3, 4, 0)),
             "mod2": ring(2, ("y", None, "tb", "ab"), (0, 0, 0, 0)),
             "mod4": ring(4, ("y4", None, "t4", "a4"), (0, 0, 0, 0))}
    assert rings["integral"].basis_strings(2) == ("a", "t", "s")
    assert rings["mod2"].basis_strings(2) == ("ab", "tb")
    return rings


def torsion_matrices(**changes):
    """Maps that satisfy every law on torsion_rings(), with changes."""
    one, two = IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[2]])
    mats = {
        "rho2": {0: one, 1: one,
                 2: IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]])},
        "rho4": {0: one, 1: one,
                 2: IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]])},
        "theta2": {0: two, 1: two,
                   2: IntMatrix.from_rows([[2, 0], [0, 2]])},
        "rho24": {0: one, 1: one, 2: IntMatrix.from_rows([[1, 0], [0, 1]])},
        "beta": {},
    }
    for name, degrees in changes.items():
        mats[name] = {**mats.get(name, {}), **degrees}
    return mats


MAP_FIXTURES = [
    # a -> 0 under rho4, so theta2(rho2(a)) = 2 a4 but rho4(2a) = 0
    ({"rho4": {2: IntMatrix.from_rows([[0, 0, 0], [0, 1, 0]])}},
     "identity theta2 . rho2 = rho4 . 2 fails in degree 2"),
    ({"rho24": {2: IntMatrix.from_rows([[0, 0], [0, 1]])}},
     "identity rho24 . rho4 = rho2 fails in degree 2"),
    # beta(y) = 2t is killed by 2, but beta(rho2(x)) = 2t
    ({"beta": {1: IntMatrix.from_rows([[0], [2], [0]])}},
     "identity beta . rho2 = 0 fails in degree 2"),
    ({"theta2": {2: IntMatrix.from_rows([[1, 0], [0, 1]])}},
     "map theta2 does not respect additive orders in degree 2"),
    # degrees are checked in ascending order: the order law in degree 1
    # fails before the shape of degree 2 is looked at
    ({"theta2": {2: IntMatrix.from_rows([[2]]), 1: IntMatrix.from_rows([[1]])}},
     "map theta2 does not respect additive orders in degree 1"),
    ({"rho2": {2: IntMatrix.from_rows([[1, 0]])}},
     "map rho2: matrix in degree 2 should be 2x3, got 1x2"),
    ({"beta": {3: IntMatrix.zero(0, 0)}},
     "map beta: matrices supplied for undefined degrees [3]"),
]


def test_map_fixtures_fail_with_their_message():
    rng = random.Random(1)
    rings = torsion_rings()
    assert assert_same_system(rings, torsion_matrices(), rng) == "accepted"
    for changes, message in MAP_FIXTURES:
        assert assert_same_system(rings, torsion_matrices(**changes),
                                  rng) == message
    # columns, the form the library itself builds, are checked as well
    for columns in ([{0: 1}], [{0: 1}, {2: 1}, {}]):
        with pytest.raises(RingError, match=r"^map rho2: columns in degree 2 "
                           r"should be 3 over 2 rows$"):
            CoefficientMap("rho2", rings["integral"], rings["mod2"], 0,
                           {2: columns})


def test_twice_beta_law_is_checked():
    # the order check already refuses a beta that 2 does not kill, since
    # every mod-2 basis monomial has order 2, so the law is broken here
    # after construction
    rings = torsion_rings()
    mats = torsion_matrices()
    system = system_outcome(sparse_map, RingSystem, rings, mats)
    ref = system_outcome(DenseMap, DenseSystem, rings, mats)
    system.beta.columns[1] = ({1: 1},)
    ref.beta.matrices[1] = IntMatrix.from_rows([[0], [1], [0]])
    for s in (system, ref):
        with pytest.raises(RingError,
                           match=r"^identity 2 beta = 0 fails in degree 2$"):
            s.validate()


def assert_scale_map_matches_columns(m, c, rng):
    """A scale map m against the column map c built from its matrices:
    equal images of random elements, through the map and through image,
    and the same DegreeError in every undefined degree.  m has built no
    columns yet, so its images come from its scale."""
    assert m.scale is not None and c.scale is None and not m._cols
    for d in range(-1, m.source.cutoff + 2):
        if d not in c.columns:
            with pytest.raises(DegreeError) as got:
                m.image(d)
            with pytest.raises(DegreeError) as want:
                c.image(d)
            assert str(got.value) == str(want.value), (m.name, d)
            continue
        for _ in range(3):
            x = m.source.element(d, [rng.randint(-9, 9)
                                     for _ in m.source.basis(d)])
            assert m(x) == c(x), (m.name, d)
            assert m.image(d)(x.coeffs) == c.image(d)(x.coeffs), (m.name, d)
    assert not m._cols


def test_maps_match_dense_reference(corpus):
    rng = random.Random(5)
    for name, sf in corpus.items():
        doc = json.loads((CORPUS_DIR / ("%s.json" % name)).read_text())
        system = sf.bundle.rings
        if "shared" in doc["rings"]:
            continue
        mats = {m: {int(d): IntMatrix.from_rows(
                    [[int(x) for x in row] for row in rows])
                    for d, rows in degrees.items()}
                for m, degrees in doc["maps"].items()}
        rings = system_rings(system)
        assert assert_same_system(rings, mats, rng) == "accepted", name
        assert system_outcome(sparse_map, RingSystem, rings, mats) \
            == system
    # the shared form of every family and corpus file, built fresh so that
    # no column of its scale maps has been read
    for pres in shared_presentations(corpus).values():
        system = RingSystem.with_reduction_defaults(pres)
        rings = system_rings(system)
        mats = shared_matrices(rings)
        assert assert_same_system(rings, mats, rng) == "accepted"
        columns = system_outcome(sparse_map, RingSystem, rings, mats)
        for name, _, _, _ in MAP_SIGNATURES:
            assert_scale_map_matches_columns(getattr(system, name),
                                             getattr(columns, name), rng)
        assert columns == system and system == columns


# the scales with_reduction_defaults gives the five maps
SHIPPED_SCALES = {"rho2": 1, "rho4": 1, "theta2": 2, "rho24": 1,
                  "beta": 0}
# (changed scales, what every shared form gives them)
SCALE_MUTATIONS = [
    ({}, "accepted"),
    ({"theta2": 1}, "map theta2 does not respect additive orders in degree 0"),
    ({"theta2": 3}, "map theta2 does not respect additive orders in degree 0"),
    ({"rho24": 0}, "identity rho24 . rho4 = rho2 fails in degree 0"),
    ({"rho24": 2}, "identity rho24 . rho4 = rho2 fails in degree 0"),
    ({"rho2": 0}, "identity theta2 . rho2 = rho4 . 2 fails in degree 0"),
    # 2 - 2*3 vanishes mod 4 and 3 - 1 mod 2: every law holds
    ({"rho4": 3}, "accepted"),
]


def scale_outcome(rings, scales, mats, columns=()):
    """The system of scale maps with these scales, the maps named in
    columns built as column maps from mats instead, or the error that
    refuses them."""
    try:
        maps = {name: sparse_map(name, rings[src], rings[tgt], shift,
                                 mats[name])
                if name in columns else
                CoefficientMap.scaled_identity(name, rings[src], rings[tgt],
                                               scales[name], shift)
                for name, src, tgt, shift in MAP_SIGNATURES}
        return RingSystem(rings["integral"], rings["mod2"], rings["mod4"],
                          **maps)
    except RingError as exc:
        return type(exc), str(exc)


def test_scale_laws_match_dense_reference(corpus):
    # every law checked on the scales refuses what the dense reference
    # refuses, with its message, and accepts the same maps; with beta as a
    # column map the system takes the column path, with the same outcome
    rng = random.Random(17)
    for pres in shared_presentations(corpus).values():
        rings = system_rings(RingSystem.with_reduction_defaults(pres))
        for changes, expected in SCALE_MUTATIONS:
            scales = {**SHIPPED_SCALES, **changes}
            mats = {name: {d: IntMatrix(n, n, [scales[name] * (i == j)
                                               for i in range(n)
                                               for j in range(n)])
                           for d in range(pres.cutoff + 1)
                           for n in [len(rings["integral"].basis(d))]}
                    for name, _, _, shift in MAP_SIGNATURES if not shift}
            mats["beta"] = {}
            for columns in ((), ("beta",)):
                got = scale_outcome(rings, scales, mats, columns)
                assert assert_same_system(rings, mats, rng, got) == expected, \
                    (pres, changes, columns)
        # beta shifts degrees, so only its zero map is a scale map
        for name, src, tgt, shift in MAP_SIGNATURES[4:]:
            for scale in (1, 2, -1):
                with pytest.raises(RingError) as exc:
                    CoefficientMap.scaled_identity(name, rings[src],
                                                   rings[tgt], scale, shift)
                assert str(exc.value) == (
                    "map %s: scale %d with shift 1; only the zero map "
                    "shifts degrees" % (name, scale))
                got = scale_outcome(rings, {**SHIPPED_SCALES, name: scale}, {})
                assert got == (RingError, str(exc.value))


def torsion_scale_rings(order):
    """Z t + Z a, t of degree 3 and additive order `order`, a free of
    degree 4, t^2 = 0 and cutoff 8, built over 0, 2 and 4 with one basis.

    t is the only torsion generator, so the integral ring has its first
    torsion in degree 3 and its first free monomial of positive degree in
    4.  Over 4, t keeps order 4 when order is 4, and has order 2 beside
    the 4 of a when order is 2.
    """
    pres = RingPresentation(0, 8, (Generator("t", 3, order), Generator("a", 4)),
                            (RewriteRule((2, 0), ()),))
    return {label: GradedRing(replace(pres, modulus=m)) for label, m in
            (("integral", 0), ("mod2", 2), ("mod4", 4))}


def scale_law_rings(corpus, F):
    """The rings of every shared-form presentation of the corpus, of
    tests/data and of the families, derived from the integral ring, and
    the hand-built rings of torsion_scale_rings and mixed_order_rings, by
    name."""
    presentations = shared_presentations(corpus)
    docs = [json.loads(path.read_text())
            for path in sorted(DATA_DIR.glob("*.json"))] + family_docs(F)
    for i, doc in enumerate(docs):
        if "shared" in doc["rings"]:
            presentations["shared%d" % i] = spacefile._presentation(
                doc["rings"]["shared"], 0, "rings.shared")
    rings = {name: system_rings(RingSystem.with_reduction_defaults(pres))
             for name, pres in presentations.items()}
    assert len(rings) >= 20
    rings["t3 of order 4"] = torsion_scale_rings(4)
    rings["t3 of order 2"] = torsion_scale_rings(2)
    rings["t3 and v7"] = mixed_order_rings()
    return rings


def mixed_order_rings():
    """t of degree 3 and v of degree 7, both of additive order 2 over Z
    and mod 2, but v free over 4, t^2 = 0 and cutoff 8.

    The three rings share one basis, but the mod-4 orders are 2 in degree
    3 and 4 in degree 7, so an order test into the mod-4 ring that asked
    only the modulus would pass degree 3 and miss the failure of an odd
    rho4 in degree 7.
    """
    def ring(modulus, v_order):
        gens = (Generator("t", 3, 2), Generator("v", 7, v_order))
        return GradedRing(RingPresentation(modulus, 8, gens,
                                           (RewriteRule((2, 0), ()),)))

    return {"integral": ring(0, 2), "mod2": ring(2, 2), "mod4": ring(4, 0)}


def scale_system_outcome(rings, scales, parent=False, laws=None):
    """The system of scale maps with these scales, by the checks under
    test or by the parent's, or the error that refuses it.  When laws
    gives scales, they replace the maps' scales after construction and
    the system is validated again: that reaches scales the map checks
    refuse, such as a nonzero beta."""
    map_class = ring_reference.ParentScaleMap if parent else CoefficientMap
    system_class = (ring_reference.ParentScaleSystem if parent
                    else RingSystem)
    try:
        system = system_class(rings["integral"], rings["mod2"], rings["mod4"],
                              **{name: map_class.scaled_identity(
                                  name, rings[src], rings[tgt], scales[name],
                                  shift)
                                 for name, src, tgt, shift in MAP_SIGNATURES})
        if laws:
            for name, scale in laws.items():
                getattr(system, name).scale = scale
            system.validate()
    except RingError as exc:
        return type(exc), str(exc)
    return "accepted"


def test_scale_laws_match_the_per_degree_checks(corpus, families):
    # the laws and order tests asked once per distinct order give the
    # outcome of the parent's scan of every degree, message for message,
    # on every mutation of SCALE_MUTATIONS, on random scales of the four
    # maps of shift 0, and on random scales of all five set after
    # construction
    rng = random.Random(34)
    messages = collections.Counter()
    for name, rings in scale_law_rings(corpus, families).items():
        draws = [({**SHIPPED_SCALES, **changes}, None)
                 for changes, _ in SCALE_MUTATIONS]
        for _ in range(30):
            scales = {m: rng.randrange(-2, 5) for m in SHIPPED_SCALES}
            beta = {"beta": rng.choice((1, 2, -1, 3))}
            draws += [({**scales, "beta": 0}, None), (SHIPPED_SCALES, beta),
                      (SHIPPED_SCALES, {**scales, **beta})]
        for scales, laws in draws:
            got = scale_system_outcome(rings, scales, laws=laws)
            assert got == scale_system_outcome(rings, scales, True, laws), \
                (name, scales, laws)
            messages[got if got == "accepted" else got[1]] += 1
    for changes, expected in SCALE_MUTATIONS:
        assert messages[expected] > 0
    # failures away from degree 0: the beta laws from the first positive
    # degree of a failing order, and over t3 the first torsion degree
    for message in ("identity 2 beta = 0 fails in degree 1",
                    "identity 2 beta = 0 fails in degree 2",
                    "identity 2 beta = 0 fails in degree 3",
                    "identity beta . rho2 = 0 fails in degree 3"):
        assert messages[message] > 0, message
    rings = torsion_scale_rings(2)
    assert scale_system_outcome(rings, SHIPPED_SCALES, laws={"beta": 1}) \
        == (RingError, "identity beta . rho2 = 0 fails in degree 3")
    assert scale_system_outcome(torsion_scale_rings(4), SHIPPED_SCALES,
                                laws={"beta": 1}) \
        == (RingError, "identity 2 beta = 0 fails in degree 3")
    # over t3 of order 2 the mod-4 orders are 4 and 2, so the order test
    # of a map into it scans the degrees
    assert set(rings["mod4"].orders(3)) == {2}
    assert rings["mod4"].orders(4) == (4,)
    rings = mixed_order_rings()
    for parent in (False, True):
        assert scale_system_outcome(rings, SHIPPED_SCALES, parent) == (
            RingError, "map rho4 does not respect additive orders in degree 7")


def random_matrices(rng, rings, base):
    """Perturb the law-abiding matrices base: keep a map, move one entry,
    redraw it, zero a degree, or give a degree a wrong shape or none."""
    mats = {}
    for name, src, _, _ in gradedring.MAP_SIGNATURES:
        degrees = dict(base[name])
        roll = rng.random()
        if roll < 0.5:
            pass
        elif roll < 0.75 and degrees:
            d = rng.choice(sorted(degrees))
            M = degrees[d]
            if M.rows and M.cols:
                i, j = rng.randrange(M.rows), rng.randrange(M.cols)
                rows = [list(r) for r in M.to_rows()]
                rows[i][j] += rng.choice((-4, -2, -1, 1, 2, 3, 4))
                degrees[d] = IntMatrix.from_rows(rows)
        elif roll < 0.9:
            degrees = {d: IntMatrix(M.rows, M.cols,
                                    [rng.choice((0, 0, 0, 1, -1, 2))
                                     for _ in range(M.rows * M.cols)])
                       for d, M in degrees.items()}
        elif roll < 0.95 and degrees:
            del degrees[rng.choice(sorted(degrees))]
        elif roll < 0.98 and degrees:
            d = rng.choice(sorted(degrees))
            M = degrees[d]
            degrees[d] = IntMatrix.zero(M.rows + 1, M.cols)
        else:
            degrees[rings[src].cutoff + 1] = IntMatrix.zero(1, 1)
        mats[name] = degrees
    return mats


def random_systems(corpus):
    """Yield (outcome, system) for 1200 perturbed map sets.

    Each draw is checked against the dense reference by assert_same_system;
    outcome is "accepted" or the message that refused the maps, and system
    is the accepted RingSystem or None.
    """
    rng = random.Random(2025)
    systems = [
        system_outcome(sparse_map, RingSystem, torsion_rings(),
                       torsion_matrices()),
        corpus["s1xwu"].bundle.rings,
        free_and_z4_system(),
        RingSystem.with_reduction_defaults(truncated_polynomial("a", 2, 3, 8)),
        RingSystem.with_reduction_defaults(
            truncated_product("t", 1, [1] * 3, 3)),
    ]
    pools = [(system_rings(s), system_matrices(s)) for s in systems]
    for _ in range(1200):
        rings, base = rng.choice(pools)
        mats = random_matrices(rng, rings, base)
        outcome = assert_same_system(rings, mats, rng)
        yield outcome, (system_outcome(sparse_map, RingSystem, rings, mats)
                        if outcome == "accepted" else None)


def test_maps_match_dense_reference_on_random_systems(corpus):
    kinds = collections.Counter()
    for outcome, _ in random_systems(corpus):
        kind = re.sub(r"( fails)? in degree.*| for undefined.*", "", outcome)
        kinds[kind] += 1
    # most draws break a law, and every way to fail is reached
    assert kinds["accepted"] < 600, kinds
    assert set(kinds) >= {
        "accepted",
        "identity theta2 . rho2 = rho4 . 2",
        "identity rho24 . rho4 = rho2",
        "identity beta . rho2 = 0",
    }, kinds
    assert any(k.endswith("additive orders") for k in kinds), kinds
    assert any(k.endswith(": matrix") for k in kinds), kinds
    assert any(k.endswith(": matrices supplied") for k in kinds), kinds


# -- exact division -------------------------------------------------------------


def test_divide_by_free(proj_plane_ring):
    r = proj_plane_ring
    a2 = r.from_terms(4, {"a^2": 1})
    assert divide_by(4, 4 * a2) == (a2,)
    assert divide_by(2, a2) == ()
    assert divide_by(5, r.zero(4)) == (r.zero(4),)


def test_divide_by_torsion_axis():
    # one free and one order-2 class in the same degree
    pres = RingPresentation(
        modulus=0, cutoff=2,
        generators=(Generator("x", 2), Generator("tau", 2, order=2)),
        rules=())
    r = GradedRing(pres)
    zero = r.zero(2)
    tau = r.from_terms(2, {"tau": 1})
    sols = divide_by(4, zero)
    assert sols == (zero, tau)  # 4*tau = 0 as well
    assert divide_by(3, tau) == (tau,)


def test_divide_by_zero_scalar(proj_plane_ring):
    with pytest.raises(ValueError):
        divide_by(0, proj_plane_ring.zero(2))


# -- integral lifts ---------------------------------------------------------------


def test_integral_lifts_enumeration(proj_plane_system):
    sys = proj_plane_system
    w2 = sys.mod2.from_terms(2, {"a": 1})
    search = integral_lifts(sys, w2, bound=5)
    assert not search.no_lift_proven
    assert [x.coeffs for x in search.lifts] == [(-5,), (-3,), (-1,), (1,), (3,), (5,)]
    zeros = integral_lifts(sys, sys.mod2.zero(2), bound=2)
    assert [x.coeffs for x in zeros.lifts] == [(-2,), (0,), (2,)]


def smith_lift(system, u):
    # the reference any_integral_lift: solve rho2(x) = u over Z as
    # M x + diag(orders) t = u through a Smith normal form
    M = dense_matrix(system.rho2, u.degree)
    orders = system.mod2.orders(u.degree)
    A = IntMatrix.from_rows([list(row) + [o if k == i else 0
                                          for k, o in enumerate(orders)]
                             for i, row in enumerate(M.to_rows())])
    solved = solve_integer_linear(A, u.coeffs)
    if solved is None:
        return None
    return system.integral.element(u.degree, solved[0][:M.cols])


def box_scan_lifts(system, u, bound):
    # the reference: test every point of [-bound, bound]^free x prod range(o),
    # and prove "no lift" by solving M x + diag(orders) t = u over Z
    if smith_lift(system, u) is None:
        return (), True
    axes = [range(-bound, bound + 1) if o == 0 else range(o)
            for o in system.integral.orders(u.degree)]
    elements = (system.integral.element(u.degree, combo)
                for combo in itertools.product(*axes))
    return tuple(x for x in elements if system.rho2(x) == u), False


def assert_lifts_match_box_scan(system, u, bounds):
    for bound in bounds:
        found = integral_lifts(system, u, bound)
        lifts, proven = box_scan_lifts(system, u, bound)
        assert found.lifts == lifts and found.no_lift_proven == proven, \
            (u, bound)
        assert all(system.rho2(x) == u for x in found.lifts)
    # every class that lifts has a lift with free coefficients in {0, 1}
    assert found.no_lift_proven == (box_scan_lifts(system, u, 1)[0] == ())


def free_and_z4_system():
    """H^2 = Z a + Z/4 t, with the mod-2 class y of H^1 and beta(y) = 2t.

    Two parity classes of degree 2 lift each mod-2 class, (a, 0) and
    (a, 2) for instance, and the free coordinate a comes first in the
    basis, so the classes interleave in lexicographic order.
    """
    def ring(modulus, names, first_order=0):
        y = (Generator(names[0], 1),) if names[0] else ()
        gens = y + (Generator(names[1], 2, first_order), Generator(names[2], 2))
        rules = (RewriteRule((2, 0, 0), ()),) if y else ()
        return GradedRing(RingPresentation(modulus, 2, gens, rules))

    integral = ring(0, (None, "t", "a"), first_order=4)
    mod2 = ring(2, ("y", "tb", "ab"))
    mod4 = ring(4, ("y4", "t4", "a4"))
    assert integral.basis_strings(2) == ("a", "t")
    one = IntMatrix.from_rows([[1]])
    two = IntMatrix.from_rows([[2]])
    ident = IntMatrix.from_rows([[1, 0], [0, 1]])
    return RingSystem(
        integral, mod2, mod4,
        rho2=sparse_map("rho2", integral, mod2, 0, {0: one, 2: ident}),
        rho4=sparse_map("rho4", integral, mod4, 0, {0: one, 2: ident}),
        theta2=sparse_map("theta2", mod2, mod4, 0,
                          {0: two, 1: two,
                           2: IntMatrix.from_rows([[2, 0], [0, 2]])}),
        rho24=sparse_map("rho24", mod4, mod2, 0, {0: one, 1: one, 2: ident}),
        beta=sparse_map("beta", mod2, integral, 1,
                        {1: IntMatrix.from_rows([[0], [2]])}))


def test_lifts_match_box_scan(corpus):
    for sf in corpus.values():
        data = sf.bundle
        mod2 = data.rings.mod2
        for d in range(data.cutoff + 1):
            classes = [data.w_class(d)] + basis_elements(mod2, d)
            for u in classes:
                assert_lifts_match_box_scan(data.rings, u, range(4))
    s1xwu = corpus["s1xwu"].bundle
    assert integral_lifts(s1xwu.rings, s1xwu.w_class(2), 3).no_lift_proven
    assert any(o for o in s1xwu.rings.integral.orders(3))
    system = RingSystem.with_reduction_defaults(FAMILY_PRESENTATIONS["(S^2)^4"])
    classes = [system.mod2.zero(4), sum(basis_elements(system.mod2, 4),
                                        system.mod2.zero(4))]
    classes += basis_elements(system.mod2, 4)
    for u in classes:
        assert_lifts_match_box_scan(system, u, range(2))
    system = free_and_z4_system()
    for d in (1, 2):
        n = len(system.mod2.basis(d))
        for coeffs in itertools.product(range(2), repeat=n):
            assert_lifts_match_box_scan(system, system.mod2.element(d, coeffs),
                                        range(4))



def class_test_lifts(system, u, bound):
    # the reference: test one point per parity class of the free
    # coordinates and per torsion value, and spread each class that lifts
    # over the bound; "no lift" is proven by solving over Z
    if smith_lift(system, u) is None:
        return (), True
    orders = system.integral.orders(u.degree)
    classes = [range(min(2, 2 * bound + 1)) if o == 0 else range(o)
               for o in orders]
    found = []
    for rep in itertools.product(*classes):
        x = system.integral.element(u.degree, rep)
        if system.rho2(x) == u:
            found.extend(itertools.product(
                *[range(-bound + (bound + r) % 2, bound + 1, 2)
                  if o == 0 else (r,) for r, o in zip(rep, orders)]))
    found.sort()
    return tuple(system.integral.element(u.degree, c) for c in found), False


def assert_lifts_match_class_test(system, u, bounds):
    for bound in bounds:
        found = integral_lifts(system, u, bound)
        assert (found.lifts, found.no_lift_proven) == \
            class_test_lifts(system, u, bound), (u, bound)


def every_class(ring, d):
    return [ring.element(d, c)
            for c in itertools.product(range(2), repeat=len(ring.basis(d)))]


def test_lifts_match_class_test(corpus):
    for sf in corpus.values():
        data = sf.bundle
        for d in range(data.cutoff + 1):
            classes = [data.w_class(d)] + basis_elements(data.rings.mod2, d)
            for u in classes:
                assert_lifts_match_class_test(data.rings, u, range(5))
    torsion = system_outcome(sparse_map, RingSystem, torsion_rings(),
                             torsion_matrices())
    # beta(y) = 2t leaves the laws intact once rho2 kills x
    kernel = system_outcome(
        sparse_map, RingSystem, torsion_rings(),
        torsion_matrices(rho2={1: IntMatrix.from_rows([[0]])},
                         rho4={1: IntMatrix.from_rows([[2]])},
                         beta={1: IntMatrix.from_rows([[0], [2], [0]])}))
    assert isinstance(kernel, RingSystem)
    for system in (torsion, kernel, free_and_z4_system()):
        for d in (1, 2):
            for u in every_class(system.mod2, d):
                assert_lifts_match_class_test(system, u, range(4))
    for pres in (FAMILY_PRESENTATIONS["(S^2)^4"],
                 FAMILY_PRESENTATIONS["CP^1xCP^2"],
                 truncated_product("t", 1, [1] * 4, 4)):
        system = RingSystem.with_reduction_defaults(pres)
        for d in range(system.integral.cutoff + 1):
            basis = basis_elements(system.mod2, d)
            for u in [system.mod2.zero(d), sum(basis, system.mod2.zero(d))] \
                    + basis[:3]:
                assert_lifts_match_class_test(system, u, range(3))


def test_lifts_solve_parities_without_testing_classes():
    # H^3(T^6) has 20 free coordinates and rho2 is the identity mod 2, so
    # each class has one parity solution: 2^20 parity classes are not tested
    system = RingSystem.with_reduction_defaults(FAMILY_PRESENTATIONS["T^6"])
    basis = basis_elements(system.mod2, 3)
    assert len(basis) == 20
    start = time.perf_counter()
    zero = integral_lifts(system, system.mod2.zero(3), 1)
    single = integral_lifts(system, basis[4], 1)
    assert time.perf_counter() - start < 1
    assert zero.lifts == (system.integral.zero(3),)
    assert [x.coeffs[4] for x in single.lifts] == [-1, 1]
    assert all(system.rho2(x) == basis[4] for x in single.lifts)
    assert not zero.no_lift_proven and not single.no_lift_proven


def test_solve_mod2_matches_brute_force():
    # up to 6 rows and 6 variables with entries 0-3: columns share rows,
    # so rows must be reduced by the pivots before them, and even entries
    # vanish mod 2.  Bit k of a parity vector is variable k
    rng = random.Random(7)
    kinds = collections.Counter()
    for _ in range(2000):
        rows = rng.randint(0, 6)
        columns = [{i: rng.randint(0, 3) for i in range(rows)
                    if rng.random() < 0.6} for _ in range(rng.randint(0, 6))]
        variables = rng.sample(range(len(columns)),
                               rng.randint(0, len(columns)))
        u = [rng.randint(0, 3) for _ in range(rows)]

        def image(p):
            out = [0] * rows
            for k, j in enumerate(variables):
                if p >> k & 1:
                    for i, x in columns[j].items():
                        out[i] ^= x & 1
            return out

        vectors = range(1 << len(variables))
        solutions = [p for p in vectors if image(p) == [b & 1 for b in u]]
        homogeneous = {p for p in vectors if not any(image(p))}
        solved = gradedring._solve_mod2(columns, u, variables)
        if not solutions:
            assert solved is None
            kinds["none"] += 1
            continue
        particular, kernel = solved
        assert particular in solutions
        assert all(v in homogeneous for v in kernel)
        assert 1 << len(kernel) == len(homogeneous)  # the nullity
        span = {0}
        for v in kernel:
            span |= {p ^ v for p in span}
        assert len(span) == len(homogeneous)  # independent
        kinds["kernel" if kernel else "unique"] += 1
    assert set(kinds) == {"none", "kernel", "unique"}, kinds


def test_solve_mod2_matches_the_parent():
    # up to 20 variables and 30 rows, built from up to 12 random rows
    # over the columns: later rows are sums of earlier ones, zero rows or
    # fresh rows, and u is the image of a random parity vector, flipped
    # at one row half of the time, so some systems are inconsistent.  The
    # parent's solver answers the same, kernel vectors in the same order
    rng = random.Random(33)
    kinds = collections.Counter()
    for _ in range(3000):
        n, rows = rng.randint(0, 20), rng.randint(0, 30)
        base = [rng.getrandbits(n) for _ in range(rng.randint(1, 12))]
        masks = []
        for _ in range(rows):
            kind = rng.choice(("sum", "sum", "zero", "fresh"))
            if kind == "zero":
                masks.append(0)
            elif kind == "fresh" or not masks:
                masks.append(rng.choice(base))
            else:
                masks.append(functools.reduce(
                    operator.xor, rng.sample(masks, rng.randint(1, len(masks)))))
        # entries 0-3 in the columns, even where the row mask has no bit
        columns = [{i: 2 * rng.randint(0, 1) + (m >> k & 1)
                    for i, m in enumerate(masks)
                    if m >> k & 1 or rng.random() < 0.2} for k in range(n)]
        p = rng.getrandbits(n)
        u = [(m & p).bit_count() % 2 + 2 * rng.randint(0, 1) for m in masks]
        if rows and rng.random() < 0.5:
            u[rng.randrange(rows)] += 1
        variables = rng.sample(range(n), n)
        solved = gradedring._solve_mod2(columns, u, variables)
        assert solved == ring_reference.solve_mod2(columns, u, variables), \
            (columns, u, variables)
        kinds["none" if solved is None else
              "kernel" if solved[1] else "unique"] += 1
    assert min(kinds.values()) > 100, kinds


def free_system(n, rho2_rows):
    """H^2 free of rank n over Z and of rank len(rho2_rows) mod 2 and 4.

    rho2 and rho4 send the integral basis through the rows rho2_rows,
    theta2 doubles and rho24 reduces, so every law holds.
    """
    def ring(modulus, prefix, count):
        return GradedRing(RingPresentation(
            modulus, 2, tuple(Generator("%s%d" % (prefix, i), 2)
                              for i in range(count))))

    integral = ring(0, "a", n)
    mod2, mod4 = ring(2, "b", len(rho2_rows)), ring(4, "c", len(rho2_rows))
    one = IntMatrix.from_rows([[1]])
    rows = {0: one, 2: IntMatrix.from_rows(rho2_rows)}
    return RingSystem(
        integral, mod2, mod4,
        rho2=sparse_map("rho2", integral, mod2, 0, rows),
        rho4=sparse_map("rho4", integral, mod4, 0, rows),
        theta2=CoefficientMap.scaled_identity("theta2", mod2, mod4, 2),
        rho24=CoefficientMap.scaled_identity("rho24", mod4, mod2),
        beta=CoefficientMap("beta", mod2, integral, 1))


def test_lifts_match_class_test_when_rho2_mixes_coordinates():
    # rows a+b and b+c: the elimination must reduce the first row by the
    # second, and (1, 1, 1) spans the kernel
    system = free_system(3, [[1, 1, 0], [0, 1, 1]])
    for u in every_class(system.mod2, 2):
        assert_lifts_match_class_test(system, u, range(4))


def test_lifts_at_bound_zero_fix_free_parities():
    # rho2 kills 21 of 22 free coordinates; at bound 0 they are fixed to 0
    # rather than solved for, which would visit 2^21 parity solutions
    system = free_system(22, [[1] + [0] * 21])
    start = time.perf_counter()
    found = integral_lifts(system, system.mod2.zero(2), 0)
    assert time.perf_counter() - start < 1
    assert found.lifts == (system.integral.zero(2),)


def test_lift_cap_counts_parity_solutions(monkeypatch):
    # rho2 kills two of the three free coordinates, so every class has
    # four parity solutions; those of 0 give 1, 2, 4 and 2 lifts at
    # bound 1, in the order they are visited
    system = free_system(3, [[1, 0, 0]])
    u = system.mod2.zero(2)
    assert len(integral_lifts(system, u, 1).lifts) == 9
    assert_lifts_match_class_test(system, u, range(4))
    monkeypatch.setattr(gradedring, "LIFT_CAP", 8)
    with pytest.raises(TooManyLifts,
                       match=r"^9 lifts in degree 2 exceed the cap 8$"):
        integral_lifts(system, u, 1)
    monkeypatch.setattr(gradedring, "LIFT_CAP", 2)
    with pytest.raises(TooManyLifts,
                       match=r"^at least 3 lifts in degree 2 exceed the cap 2$"):
        integral_lifts(system, u, 1)


def assert_lift_test_matches_listing(system, u, bounds):
    # the count and the membership test of lift_test against the listed
    # lifts, on a box two wider than the bound at each free coordinate
    orders = system.integral.orders(u.degree)
    for bound in bounds:
        found = integral_lifts(system, u, bound)
        tested = lift_test(system, u, bound)
        assert (tested is None) == found.no_lift_proven, (u, bound)
        if tested is None:
            continue
        count, test = tested
        lifts = {x.coeffs for x in found.lifts}
        assert count == len(lifts), (u, bound)
        box = [range(-bound - 2, bound + 3) if o == 0 else range(o)
               for o in orders]
        for c in itertools.product(*box):
            assert test(c) == (c in lifts), (u, bound, c)


def test_lift_test_matches_the_listed_lifts(corpus):
    for sf in corpus.values():
        data = sf.bundle
        for d in range(min(data.cutoff, 6) + 1):
            for u in [data.w_class(d)] + basis_elements(data.rings.mod2, d):
                assert_lift_test_matches_listing(data.rings, u, range(3))
    system = free_and_z4_system()
    for d in (1, 2):
        for u in every_class(system.mod2, d):
            assert_lift_test_matches_listing(system, u, range(4))
    for rows in ([[1, 1, 0], [0, 1, 1]], [[1, 0, 0]]):
        system = free_system(3, rows)
        for u in every_class(system.mod2, 2):
            assert_lift_test_matches_listing(system, u, range(3))


def test_lift_test_caps_parity_solutions_not_lifts(monkeypatch):
    # four parity solutions of 1, 2, 4 and 2 lifts at bound 1: lift_test
    # counts the 9 under a cap of 4, which the listing exceeds, and
    # refuses only when the solutions alone exceed the cap
    system = free_system(3, [[1, 0, 0]])
    u = system.mod2.zero(2)
    monkeypatch.setattr(gradedring, "LIFT_CAP", 4)
    assert lift_test(system, u, 1)[0] == 9
    with pytest.raises(TooManyLifts):
        integral_lifts(system, u, 1)
    monkeypatch.setattr(gradedring, "LIFT_CAP", 3)
    with pytest.raises(TooManyLifts,
                       match=r"^at least 4 lifts in degree 2 exceed the cap 3$"):
        lift_test(system, u, 1)
    # 2^21 solutions are refused before any is visited
    monkeypatch.undo()
    system = free_system(22, [[1] + [0] * 21])
    start = time.perf_counter()
    with pytest.raises(TooManyLifts, match=r"^at least 2097152 lifts"):
        lift_test(system, system.mod2.zero(2), 1)
    assert time.perf_counter() - start < 1
    assert lift_test(system, system.mod2.zero(2), 0)[0] == 1


def lift_answers(system, u):
    """What lift_spreads and lift_test give for u at bounds 0 to 2: the
    spreads, or the refusal; the count, and the membership test on 0, on
    the first and last lift of each spread, and on its first lift moved
    by 1 in the first coordinate."""
    answers = []
    for bound in range(3):
        try:
            spreads = lift_spreads(system, u, bound)
        except TooManyLifts as exc:
            spreads = str(exc)
        try:
            tested = lift_test(system, u, bound)
        except TooManyLifts as exc:
            tested = str(exc)
        if isinstance(tested, tuple):
            count, test = tested
            probes = [tuple([0] * len(u.coeffs))]
            for axes in spreads if isinstance(spreads, list) else ():
                first = [axis[0] for axis in axes]
                probes += [tuple(first), tuple([axis[-1] for axis in axes])]
                if axes:
                    probes.append(tuple([first[0] + 1] + first[1:]))
            tested = count, [test(c) for c in probes]
        answers.append((spreads, tested))
    return answers


def assert_lifts_read_off(system, u, monkeypatch):
    """The parity system read off rho2's scale against the parent's
    elimination, with free parities and without, and the lifts that
    lift_spreads and lift_test give on each."""
    for free in (True, False):
        got = gradedring._lift_parities(system, u, free)
        assert got == ring_reference.lift_parities(system, u, free), \
            (u, free)
    answers = lift_answers(system, u)
    with monkeypatch.context() as patched:
        patched.setattr(gradedring, "_lift_parities",
                        ring_reference.lift_parities)
        assert answers == lift_answers(system, u), u


def shared_fixture_systems(corpus, families, cp2_sums):
    """(system, classes to lift per degree) of every shared-form fixture:
    the w classes of the corpus's shared files, the families and three
    cp2 sums, and 0, the sum of the basis and each basis class over every
    shared-form presentation of scale_law_rings."""
    out = []
    docs = family_docs(families) + [cp2_sums(k, l)
                                    for k, l in ((1, 0), (2, 1), (3, 3))]
    bundles = [space_file_from_doc(doc).bundle for doc in docs]
    bundles += [sf.bundle for sf in corpus.values()
                if sf.bundle.rings.rho2.scale is not None]
    for data in bundles:
        out.append((data.rings, lambda d, data=data: [data.w_class(d)]))
    for rings in scale_law_rings(corpus, families).values():
        if rings["mod2"]._basis is rings["integral"]._basis:
            system = RingSystem.with_reduction_defaults(
                rings["integral"].presentation)
            out.append((system, lambda d, mod2=system.mod2: [
                mod2.zero(d), sum(basis_elements(mod2, d), mod2.zero(d))]
                + basis_elements(mod2, d)))
    return out


def test_lift_parities_read_off_an_odd_scale(corpus, families, cp2_sums,
                                             monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    # every degree of every shared-form fixture
    checked = 0
    for system, classes in shared_fixture_systems(corpus, families, cp2_sums):
        assert system.rho2.scale == 1
        for d in range(system.integral.cutoff + 1):
            for u in classes(d):
                assert_lifts_read_off(system, u, monkeypatch)
                checked += 1
    assert checked > 500
    # rho2 = rho4 = 2 pass the laws and are 0 mod 2: an even scale is
    # eliminated, and only 0 lifts
    rings = system_rings(RingSystem.with_reduction_defaults(
        FAMILY_PRESENTATIONS["CP^1xCP^2"]))
    even = {**SHIPPED_SCALES, "rho2": 2, "rho4": 2}
    assert scale_system_outcome(rings, even) == "accepted"
    system = RingSystem(rings["integral"], rings["mod2"], rings["mod4"], **{
        name: CoefficientMap.scaled_identity(name, rings[src], rings[tgt],
                                             even[name], shift)
        for name, src, tgt, shift in MAP_SIGNATURES})
    for d in range(system.integral.cutoff + 1):
        for u in every_class(system.mod2, d):
            assert_lifts_read_off(system, u, monkeypatch)
            assert (any_integral_lift(system, u) is None) == (not u.is_zero)

    # drawn families bundles, with their w classes and drawn classes
    @st.composite
    def bundles(draw):
        kind = draw(st.sampled_from(("cp", "torus", "spheres")))
        if kind == "cp":
            ns = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
            if draw(st.booleans()):
                return families.tangent_cp_product(ns)
            ring = families.cp_product(ns)
        elif kind == "torus":
            ring = families.torus(draw(st.integers(1, 5)))
        else:
            ring = families.sphere_product(draw(st.integers(1, 4)))
        width = len(ring.names)
        vectors = draw(st.lists(st.lists(st.integers(-2, 2), min_size=width,
                                         max_size=width),
                                min_size=1, max_size=3))
        return families.line_sum(ring, vectors)

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(bundles(), st.data())
    def drawn(bundle, data):
        loaded = space_file_from_doc(
            families.space_doc("drawn", bundle)).bundle
        system = loaded.rings
        d = data.draw(st.integers(0, system.integral.cutoff))
        n = len(system.mod2.basis(d))
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        for u in (loaded.w_class(d), system.mod2.element(d, bits)):
            assert_lifts_read_off(system, u, monkeypatch)

    drawn()


def test_check_eliminates_only_over_column_maps(corpus, monkeypatch, capsys):
    # acso check on a shared-form file reads every mod-2 lift off the
    # scale of rho2; s1xwu gives rho2 as columns and still eliminates
    calls = []
    solve = gradedring._solve_mod2

    def spy(columns, u, variables):
        calls.append(len(variables))
        return solve(columns, u, variables)

    monkeypatch.setattr(gradedring, "_solve_mod2", spy)
    shared = 0
    for path in sorted(CORPUS_DIR.glob("*.json")):
        form = json.loads(path.read_text())["rings"]
        del calls[:]
        assert main(["check", str(path)]) in (0, 2, 3)
        capsys.readouterr()
        if "shared" in form:
            assert calls == [], path.stem
            shared += 1
        else:
            assert path.stem == "s1xwu" and calls, path.stem
    assert shared == 8


def test_shared_load_validates_once_through_five_maps(corpus, monkeypatch):
    # bench/tracing.py times the gradedring.maps layer on
    # CoefficientMap.__init__ and the gradedring.system_validate layer on
    # RingSystem.validate: a shared-form file builds its five maps and
    # validates its system once, through both
    calls = collections.Counter()
    for owner, attr in ((CoefficientMap, "__init__"),
                        (RingSystem, "validate")):
        original = getattr(owner, attr)

        def spy(*args, _original=original, _attr=attr, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, spy)
    shared = 0
    for path in sorted(CORPUS_DIR.glob("*.json")):
        if "shared" not in json.loads(path.read_text())["rings"]:
            continue
        calls.clear()
        system = load_space_file(path).bundle.rings
        assert calls == {"__init__": 5, "validate": 1}, path.stem
        assert all(getattr(system, name).scale is not None
                   for name, *_ in MAP_SIGNATURES)
        shared += 1
    assert shared == 8


def test_lift_spreads_refuse_before_the_first_lift(monkeypatch, s1xwu):
    # the count is checked before a spread is returned, so `acso lifts`
    # prints nothing before a refusal.  The four spreads of 0 are
    # disjoint and each product is sorted, but one after another they are
    # not: integral_lifts merges them into every lift once, in
    # lexicographic order
    system = free_system(3, [[1, 0, 0]])
    u = system.mod2.zero(2)
    spreads = lift_spreads(system, u, 1)
    assert len(spreads) == 4
    listed = [c for axes in spreads for c in itertools.product(*axes)]
    assert len(set(listed)) == len(listed) == 9
    assert listed != sorted(listed)
    assert tuple(x.coeffs for x in integral_lifts(system, u, 1).lifts) == (
        tuple(sorted(listed)))
    monkeypatch.setattr(gradedring, "LIFT_CAP", 8)
    with pytest.raises(TooManyLifts):
        lift_spreads(system, u, 1)
    with pytest.raises(TooManyLifts):
        integral_lifts(system, u, 1)
    z2 = s1xwu.rings.mod2.from_terms(2, {"z2": 1})
    assert lift_spreads(s1xwu.rings, z2, 4) is None
    assert integral_lifts(s1xwu.rings, z2, 4).no_lift_proven


def test_lift_failure_is_proven(s1xwu):
    sys = s1xwu.rings
    z2 = sys.mod2.from_terms(2, {"z2": 1})
    search = integral_lifts(sys, z2, bound=4)
    assert search.no_lift_proven
    assert search.lifts == ()
    assert any_integral_lift(sys, z2) is None


def test_lift_of_torsion_class(s1xwu):
    sys = s1xwu.rings
    z3 = sys.mod2.from_terms(3, {"z3": 1})
    lift = any_integral_lift(sys, z3)
    assert lift is not None
    assert sys.rho2(lift) == z3
    assert lift == sys.integral.from_terms(3, {"c": 1})


def test_lift_requires_mod2_source(proj_plane_system):
    sys = proj_plane_system
    with pytest.raises(RingError):
        any_integral_lift(sys, sys.integral.from_terms(2, {"a": 1}))


# -- the Smith and Sq^1 solves, kept as references ---------------------------------


def w4m_rhs(data, m, lifts):
    """c_m^2 - p_m - 2 sum_{j<m} c_j c_{2m-j}, the class construct_w4m_lift halves."""
    cm = lifts[m - 1]
    rhs = cm * cm - data.p_class(m)
    for j in range(1, m):
        rhs = rhs - 2 * (lifts[j - 1] * lifts[2 * m - j - 1])
    return rhs


def sq1_w4m_lift(data, m, lifts):
    # the reference construct_w4m_lift: a half x of the right side whose
    # reduction misses w_4m is corrected by beta(y), where y solves
    # sq1(y) = rho2(x) + w_4m over Z modulo the order-2 relations, with
    # Sq^1 = rho2 . beta composed from the dense matrices of the two maps
    rings = data.rings
    w4m = data.w_class(4 * m)
    sq1 = (dense_matrix(rings.rho2, 4 * m)
           @ dense_matrix(rings.beta, 4 * m - 1))
    orders = rings.mod2.orders(4 * m)
    system = IntMatrix.from_rows([list(row) + [o if k == i else 0
                                               for k, o in enumerate(orders)]
                                  for i, row in enumerate(sq1.to_rows())]) \
        if orders else sq1
    for x in divide_by(2, w4m_rhs(data, m, lifts)):
        target = rings.rho2(x) + w4m
        if target.is_zero:
            return x
        solved = solve_integer_linear(system, list(target.coeffs))
        if solved is None:
            continue
        y = rings.mod2.element(4 * m - 1, solved[0][:sq1.cols])
        z = x + rings.beta(y)
        if rings.rho2(z) == w4m:
            return z
    raise NoSolution("no integral lift of w%d arises from the given classes"
                     % (4 * m))


def w4m_outcome(construct, data, m, lifts):
    try:
        return construct(data, m, lifts)
    except NoSolution:
        return NoSolution


def assert_solves_match_references(system, bundle=None):
    """any_integral_lift and construct_w4m_lift against the references.

    Lifts are compared on every mod-2 basis element and w class.  The
    degree-4m construction runs on unvalidated bundles that keep the w
    classes below 4m, take w_4m from the w class and the basis of degree
    4m, and take p_m from the p class plus 0 or one integral basis element
    of degree 4m.  BundleData._validate must be switched off.
    """
    def w(i):
        return bundle.w_class(i) if bundle else system.mod2.zero(i)

    cutoff = system.integral.cutoff
    for d in range(cutoff + 1):
        for u in [w(d)] + basis_elements(system.mod2, d):
            got, ref = any_integral_lift(system, u), smith_lift(system, u)
            assert (got is None) == (ref is None), u
            assert all(x is None or system.rho2(x) == u for x in (got, ref))
    for m in range(1, cutoff // 4 + 1):
        lifts = tuple(any_integral_lift(system, w(2 * j))
                      for j in range(1, 2 * m))
        if None in lifts:
            continue
        p = bundle.p_class(m) if bundle else system.integral.zero(4 * m)
        below = {2 * j: w(2 * j) for j in range(1, 2 * m)}
        for w4m in [w(4 * m)] + basis_elements(system.mod2, 4 * m):
            for pm in [p] + [p + e for e in
                             basis_elements(system.integral, 4 * m)]:
                data = BundleData(rank=4 * m, rings=system,
                                  w={**below, 4 * m: w4m}, p={m: pm},
                                  euler=system.integral.zero(4 * m))
                got = w4m_outcome(construct_w4m_lift, data, m, lifts)
                ref = w4m_outcome(sq1_w4m_lift, data, m, lifts)
                assert (got is NoSolution) == (ref is NoSolution), (m, w4m, pm)
                if got is not NoSolution:
                    rhs = w4m_rhs(data, m, lifts)
                    for z in (got, ref):
                        assert 2 * z == rhs and system.rho2(z) == w4m


def test_solves_match_smith_and_sq1_references(corpus, monkeypatch):
    monkeypatch.setattr(BundleData, "_validate", lambda self: None)
    for sf in corpus.values():
        assert_solves_match_references(sf.bundle.rings, sf.bundle)
    for pres in FAMILY_PRESENTATIONS.values():
        assert_solves_match_references(RingSystem.with_reduction_defaults(pres))
    # the Z/4 and Z/3 torsion fixtures, and the one where rho2 kills x
    kernel = system_outcome(
        sparse_map, RingSystem, torsion_rings(),
        torsion_matrices(rho2={1: IntMatrix.from_rows([[0]])},
                         rho4={1: IntMatrix.from_rows([[2]])},
                         beta={1: IntMatrix.from_rows([[0], [2], [0]])}))
    for system in (system_outcome(sparse_map, RingSystem, torsion_rings(),
                                  torsion_matrices()),
                   kernel, free_and_z4_system()):
        assert_solves_match_references(system)


def test_solves_match_references_on_random_systems(corpus, monkeypatch):
    monkeypatch.setattr(BundleData, "_validate", lambda self: None)
    accepted = [system for _, system in random_systems(corpus) if system]
    assert len(accepted) > 100
    for system in accepted:
        assert_solves_match_references(system)


def test_construct_lift_takes_the_bockstein_branch(s1xwu, monkeypatch):
    # H^4 = Z/2{t*c} and beta(tb*z2) = t*c.  With c1 = 0 and p1 = 0 the
    # first half of 0 is 0, which misses w4 = tb*z3; the second half, t*c,
    # is what the Sq^1 correction reaches as well
    monkeypatch.setattr(BundleData, "_validate", lambda self: None)
    rings = s1xwu.rings
    zero, tc = rings.integral.zero(4), rings.integral.from_terms(4, {"t*c": 1})
    assert rings.integral.orders(4) == (2,)
    assert rings.beta(rings.mod2.from_terms(3, {"tb*z2": 1})) == tc
    assert divide_by(2, zero) == (zero, tc)
    w4 = rings.mod2.from_terms(4, {"tb*z3": 1})
    data = BundleData(rank=6, rings=rings, w={4: w4}, p={},
                      euler=rings.integral.zero(6))
    c1 = (rings.integral.zero(2),)
    assert construct_w4m_lift(data, 1, c1) == tc
    assert sq1_w4m_lift(data, 1, c1) == tc


# -- squaring operation --------------------------------------------------------------


def test_pontryagin_square_values(proj_plane_system):
    sys = proj_plane_system
    w2 = sys.mod2.from_terms(2, {"a": 1})
    sq = pontryagin_square(sys, w2)
    assert sq == sys.mod4.from_terms(4, {"a^2": 1})
    assert sys.rho24(sq) == w2 * w2


def test_pontryagin_square_on_torsion(s1xwu):
    sys = s1xwu.rings
    z3 = sys.mod2.from_terms(3, {"z3": 1})
    assert pontryagin_square(sys, z3).is_zero  # the lift squares to zero


def test_pontryagin_square_needs_a_lift(s1xwu):
    sys = s1xwu.rings
    with pytest.raises(NoIntegralLift):
        pontryagin_square(sys, sys.mod2.from_terms(2, {"z2": 1}))


def test_square_is_lift_independent(proj_plane_system):
    sys = proj_plane_system
    w2 = sys.mod2.from_terms(2, {"a": 1})
    base = pontryagin_square(sys, w2)
    for lift in integral_lifts(sys, w2, bound=7).lifts:
        assert sys.rho4(lift * lift) == base


# -- element arithmetic -------------------------------------------------------


def validated(ring, degree, raw):
    """The validating constructor on raw coefficients, after checking it
    against the reduction of every coordinate by its order."""
    x = RingElement(ring, degree, raw)
    assert x.coeffs == tuple(_norm_coeff(int(c), o)
                             for c, o in zip(raw, ring.orders(degree)))
    return x


def unreduced_product(x, y):
    ring, d = x.ring, x.degree + y.degree
    acc = [0] * len(ring.basis(d))
    left = basis_elements(ring, x.degree)
    right = basis_elements(ring, y.degree)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            vec = (left[i] * right[j]).coeffs
            for k, v in enumerate(vec):
                acc[k] += a * b * v
    return acc


def assert_same_element(got, expected):
    assert (got.ring, got.degree, got.coeffs) == \
        (expected.ring, expected.degree, expected.coeffs)
    assert all(type(c) is int for c in got.coeffs)


def test_element_arithmetic_matches_validating_constructor(s1xwu):
    # the ring's own results skip validation and reduce only the torsion
    # coordinates: every coordinate of the derived mod-2/mod-4 rings, the
    # orders 2 and 4 of s1xwu's explicit rings, none of a free piece
    rng = random.Random(13)
    derived = RingSystem.with_reduction_defaults(
        FAMILY_PRESENTATIONS["CP^1xCP^2"])
    for system in (derived, s1xwu.rings):
        for ring in (system.integral, system.mod2, system.mod4):

            def random_element(d):
                return ring.element(d, [rng.randint(-9, 9)
                                        for _ in ring.basis(d)])

            for d1 in range(ring.cutoff + 1):
                for _ in range(3):
                    x, y = random_element(d1), random_element(d1)
                    n = rng.randint(-7, 7)
                    pairs = [(x + y, [a + b for a, b in zip(x.coeffs, y.coeffs)]),
                             (x - y, [a - b for a, b in zip(x.coeffs, y.coeffs)]),
                             (-x, [-a for a in x.coeffs]),
                             (n * x, [n * a for a in x.coeffs])]
                    for got, raw in pairs:
                        assert_same_element(got, validated(ring, d1, raw))
                    for m in (2, 3, 4):
                        for half in divide_by(m, x):
                            assert_same_element(half, validated(ring, d1,
                                                                half.coeffs))
                            assert m * half == x
                    for d2 in range(ring.cutoff + 1 - d1):
                        z = random_element(d2)
                        assert_same_element(
                            x * z, validated(ring, d1 + d2,
                                             unreduced_product(x, z)))
        for name, _, _, _ in MAP_SIGNATURES:
            f = getattr(system, name)
            for d, columns in f.columns.items():
                x = f.source.element(d, [rng.randint(-9, 9)
                                         for _ in f.source.basis(d)])
                raw = [0] * len(f.target.basis(d + f.shift))
                for c, col in zip(x.coeffs, columns):
                    for i, v in col.items():
                        raw[i] += c * v
                assert_same_element(f(x), validated(f.target, d + f.shift, raw))
        for d in range(system.integral.cutoff + 1):
            u = system.mod2.element(d, [rng.randint(0, 1)
                                        for _ in system.mod2.basis(d)])
            for lift in integral_lifts(system, u, 2).lifts:
                assert_same_element(lift, validated(system.integral, d,
                                                    lift.coeffs))


def parent_from_terms(ring, degree, terms):
    """GradedRing.from_terms as it was before it summed into one list:
    one element per term, added up."""
    ring._check_degree(degree)
    acc = ring.zero(degree)
    for text, coeff in terms.items():
        try:
            exps = parse_exponents(ring.names, text)
        except ValueError as exc:
            raise RingError(str(exc)) from None
        if ring._exp_degree(exps) != degree:
            raise DegreeError(
                "monomial %r has degree %d, expected %d"
                % (text, ring._exp_degree(exps), degree))
        acc = acc + int(coeff) * ring.monomial(exps)
    return acc


def from_terms_outcome(build, ring, degree, terms):
    try:
        x = build(ring, degree, terms)
    except RingError as exc:
        return type(exc), str(exc)
    return x.ring, x.degree, x.coeffs


def test_from_terms_matches_repeated_addition(corpus):
    # random term dicts over every exponent tuple up to the cutoff, so
    # that reducible, rewritten and zero monomials occur next to basis
    # ones, with unknown names, bad exponents and wrong degrees mixed in
    rng = random.Random(29)
    rings = []
    for name in ("cp2", "s1xwu", "hp2"):
        system = corpus[name].bundle.rings
        rings += [system.integral, system.mod2, system.mod4]
    derived = RingSystem.with_reduction_defaults(
        FAMILY_PRESENTATIONS["CP^1xCP^2"])
    rings += [derived.integral, derived.mod2, derived.mod4]
    outcomes = collections.Counter()
    for ring in rings:
        tuples = ring._all_monomials(ring.cutoff, gradedring.TABLE_CAP)
        for _ in range(300):
            degree = rng.randint(-1, ring.cutoff + 1)
            same = [m for m in tuples if ring._exp_degree(m) == degree]
            terms = {}
            for _ in range(rng.randint(0, 4)):
                roll = rng.random()
                if roll < 0.75 and same:
                    text = format_exponents(ring.names, rng.choice(same))
                elif roll < 0.85:
                    text = format_exponents(ring.names, rng.choice(tuples))
                elif roll < 0.9:
                    text = "%s^0" % ring.names[0]
                elif roll < 0.95:
                    text = "nosuch*%s" % ring.names[-1]
                else:
                    text = "%s*%s" % (ring.names[0], ring.names[0])
                terms[text] = rng.choice((rng.randint(-30, 30),
                                          str(rng.randint(-5, 5))))
            got = from_terms_outcome(GradedRing.from_terms, ring, degree,
                                     terms)
            assert got == from_terms_outcome(parent_from_terms, ring,
                                             degree, terms), (ring, terms)
            outcomes[got[0] if isinstance(got[0], type) else "element"] += 1
    assert outcomes["element"] > 500
    assert outcomes[DegreeError] > 100 and outcomes[RingError] > 20


def spelled_terms(ring, degree):
    """Term dicts in one degree, by kind: each canonical basis name with
    coefficients inside and beyond the additive orders, all of them at
    once; other spellings of basis monomials (factors reversed, `g^1`,
    padded, `g*g`); reducible monomials; basis names of other degrees; an
    unknown name; and a canonical name next to a bad one, either way.
    Other spellings come alone and next to the canonical name."""
    names = ring.basis_strings(degree)
    coefficients = (1, -1, 2, 3, 5, -7, 10 ** 20, "6")
    cases = {"canonical": [{n: c} for n in names for c in coefficients]}
    cases["canonical"].append(
        {n: coefficients[i % 8] for i, n in enumerate(names)})
    other = ["%s " % n for n in names] + [" %s" % n for n in names]
    other += ["*".join(reversed(n.split("*"))) for n in names if "*" in n]
    for g, d in zip(ring.names, ring._degrees):
        if d == degree:
            other.append("%s^1" % g)
        if 2 * d == degree:
            other.append("%s*%s" % (g, g))
    cases["other spelling"] = [{t: 3} for t in other]
    # a basis monomial named and spelled otherwise in one dict
    cases["other spelling"] += [{n: 2, "%s " % n: 3} for n in names] + \
        [{" %s" % n: 3, n: 2} for n in names]
    tuples = ring._all_monomials(ring.cutoff, gradedring.TABLE_CAP)
    cases["reducible"] = [
        {format_exponents(ring.names, m): 3} for m in tuples
        if ring._exp_degree(m) == degree and m not in ring._index[degree]]
    cases["other degree"] = [{n: 1} for d in range(ring.cutoff + 1)
                             if d != degree for n in ring.basis_strings(d)]
    cases["unknown"] = [{"nosuch": 1}]
    bad = (cases["other degree"] + cases["unknown"])[0]
    cases["mixed"] = [{**{n: 1}, **bad} for n in names] + \
        [{**bad, **{n: 1}} for n in names]
    return cases


def test_from_terms_matches_the_parse_of_every_term(corpus):
    # the integral, mod-2 and mod-4 rings of a shared-form file with two
    # generators and of s1xwu, which has torsion and explicit rings
    kinds = collections.Counter()
    for name in ("s2xs4", "s1xwu"):
        system = corpus[name].bundle.rings
        for ring in (system.integral, system.mod2, system.mod4):
            for degree in range(ring.cutoff + 1):
                for kind, cases in spelled_terms(ring, degree).items():
                    for terms in cases:
                        got = from_terms_outcome(GradedRing.from_terms, ring,
                                                 degree, terms)
                        assert got == from_terms_outcome(
                            ring_reference.from_terms, ring, degree,
                            terms), (ring, degree, terms)
                        kinds[kind, got[0] if isinstance(got[0], type)
                              else "element"] += 1
    assert {kind for kind, _ in kinds} == {
        "canonical", "other spelling", "reducible", "other degree",
        "unknown", "mixed"}
    assert kinds["canonical", "element"] > 300, kinds
    assert kinds["other spelling", "element"] > 50, kinds
    assert kinds["reducible", "element"] > 50, kinds
    assert kinds["other degree", DegreeError] > 50, kinds
    assert kinds["unknown", RingError] > 20, kinds


def test_check_rewrites_no_product_after_construction(
        families, cp2_sums, tmp_path, monkeypatch, capsys):
    # T^6 has monomial relations alone, so its products are looked up or
    # 0 and no normal form is computed at all.  The cp2 sums have
    # relations a_i^2 -> a_1^2 and b_j^2 -> -a_1^2, whose multiples the
    # confluence check rewrites while the ring is built; after that every
    # product is a basis monomial, a normal form kept from that check, or
    # a mixed product whose rule has no right-hand side, so nothing is
    # rewritten again
    F = families
    torus = tmp_path / "t6_line.json"
    torus.write_text(json.dumps(F.space_doc(
        "t6_line", F.line_sum(F.torus(6), [[1, 0, 1, 1, 0, 1]]))))
    cp2_sum = tmp_path / "cp2_sum_3_3.json"
    cp2_sum.write_text(json.dumps(cp2_sums(3, 3)))

    def no_normal_form(self, exps):
        raise AssertionError("a normal form was computed")

    with monkeypatch.context() as patch:
        patch.setattr(GradedRing, "_normal_form", no_normal_form)
        for argv in (["check", str(torus)],
                     ["check", "--bound", "3", "--format", "json",
                      str(torus)]):
            assert main(argv) == 0
            assert "clear" in capsys.readouterr().out
    building = []
    check_confluence, rewrite = GradedRing._check_confluence, \
        GradedRing._rewrite

    def spy_check_confluence(self):
        building.append(self)
        try:
            return check_confluence(self)
        finally:
            building.pop()

    rewritten = []

    def spy_rewrite(self, exps, rule):
        if not building:
            raise AssertionError("rewrote %s after construction" % (exps,))
        rewritten.append(exps)
        return rewrite(self, exps, rule)

    monkeypatch.setattr(GradedRing, "_check_confluence", spy_check_confluence)
    monkeypatch.setattr(GradedRing, "_rewrite", spy_rewrite)
    for form in ("text", "json"):
        assert main(["check", "--bound", "3", "--format", form,
                     str(cp2_sum)]) == 0
        assert "clear" in capsys.readouterr().out
    assert rewritten  # the spy saw the confluence check rewrite


def test_derived_rings_share_one_product_memo(corpus, families, tmp_path,
                                              monkeypatch, capsys):
    # `acso check` on shared-form files: the mod-2 and mod-4 rings read
    # the integral ring's memo, so w2 * w2 mod 2 (rho2(p1) = w2^2) and the
    # square of w2's lift over Z (its Pontryagin square) compute their
    # common pairs once.  Bundle validation calls the product kernels
    # through acso.obstruct's bindings, so both bindings of each are
    # spied on.  square reads the pairs i <= j, and mod 2 only i = j
    # a system is told by the basis its three rings share
    computed = collections.Counter()
    asked = collections.defaultdict(set)  # (system, modulus) -> pairs read
    bases = {}  # keeps every basis alive, so that no two share an id

    def system_of(ring):
        bases[id(ring._basis)] = ring._basis
        return id(ring._basis)

    product_terms, product = GradedRing._product_terms, gradedring.product
    square = gradedring.square

    def spy_product_terms(self, d1, i, d2, j):
        computed[system_of(self), d1, i, d2, j] += 1
        return product_terms(self, d1, i, d2, j)

    def spy_product(ring, d1, a, d2, b):
        asked[system_of(ring), ring.modulus].update(
            (d1, i, d2, j) for i, x in enumerate(a) if x
            for j, y in enumerate(b) if y)
        return product(ring, d1, a, d2, b)

    def spy_square(ring, d, a):
        asked[system_of(ring), ring.modulus].update(
            (d, i, d, j) for i, x in enumerate(a) if x
            for j, y in enumerate(a) if y and i <= j
            and (i == j or ring.modulus != 2))
        return square(ring, d, a)

    monkeypatch.setattr(GradedRing, "_product_terms", spy_product_terms)
    for module in (gradedring, obstruct):
        monkeypatch.setattr(module, "product", spy_product)
        monkeypatch.setattr(module, "square", spy_square)
    F = families
    paths = [CORPUS_DIR / ("%s.json" % name)
             for name in ("cp2", "cp2bar", "hp2", "s2xs4", "s4")]
    for i, bundle in enumerate([F.tangent_cp_product([2, 2]),
                                F.line_sum(F.torus(4), [[1, 0, 1, 1]]),
                                F.line_sum(F.cp_product([1, 2]),
                                           [[1, 1], [1, 2]])]):
        paths.append(tmp_path / ("family%d.json" % i))
        paths[-1].write_text(json.dumps(F.space_doc("family%d" % i, bundle)))
    shared = 0
    for path in paths:
        system = load_space_file(path).bundle.rings
        for ring in (system.mod2, system.mod4):
            assert ring._products is system.integral._products
            assert ring.basis_string_index(2) is \
                system.integral.basis_string_index(2)
        assert main(["check", "--bound", "3", str(path)]) in (0, 2, 3)
        capsys.readouterr()
    assert max(computed.values()) == 1
    for (system, modulus), pairs in asked.items():
        if modulus:
            shared += len(pairs & asked.get((system, 0), set()))
    assert shared > 10, shared
