"""Space files built from closed forms, stdlib only.

Every generated bundle is a virtual sum of complex line bundles over a
torsion-free base, so its classes follow from the splitting principle:
c = prod (1 + y_j)^m_j, p = prod (1 + y_j^2)^m_j, e = c_top and
w = c mod 2.  The tangent bundle of a product of CP^n is the sum of
(n_i + 1) copies of O(a_i) minus a trivial bundle, which gives
c = prod (1 + a_i)^(n_i + 1) and p = prod (1 + a_i^2)^(n_i + 1).

Seeds only change coefficients in ways that keep the program's work the
same (see `symmetry` and `even_offsets`).
"""

from __future__ import annotations

import random

from algebra import Ring, total_class

_LETTERS = "abdfgh"  # generator names of CP^n factors (c is kept for Chern)


def cp_product(ns) -> Ring:
    names = [_LETTERS[i] for i in range(len(ns))]
    return Ring(names, [2] * len(ns), list(ns))


def torus(n: int) -> Ring:
    return Ring(["t%d" % (i + 1) for i in range(n)], [1] * n, [1] * n)


def sphere_product(k: int) -> Ring:
    return Ring(["x%d" % (i + 1) for i in range(k)], [2] * k, [1] * k)


def linear(ring: Ring, coeffs) -> dict:
    """sum_i coeffs[i] * (i-th generator)."""
    return ring.add(*[ring.gen(i, k) for i, k in enumerate(coeffs) if k])


class ComplexBundle:
    """Classes of sum_j m_j * L_j over `ring`, of complex rank `crank`."""

    def __init__(self, ring: Ring, summands, crank: int):
        self.ring = ring
        self.crank = crank
        self.c = total_class(ring, summands)
        self.p = total_class(ring, [(m, ring.mul(y, y)) for m, y in summands])

    def chern(self, i: int) -> dict:
        return self.ring.part(self.c, 2 * i)

    def pontryagin(self, k: int) -> dict:
        return self.ring.part(self.p, 4 * k)

    @property
    def euler(self) -> dict:
        return self.chern(self.crank)

    def w(self, i: int) -> dict:
        return self.ring.mod2(self.chern(i // 2)) if i % 2 == 0 else {}


def tangent_cp_product(ns, sym=None) -> ComplexBundle:
    ring = cp_product(ns)
    summands = [(n + 1, ring.gen(i)) for i, n in enumerate(ns)]
    if sym is not None:
        summands = [(m, sym(y)) for m, y in summands]
    return ComplexBundle(ring, summands, sum(ns))


def line_sum(ring: Ring, vectors, sym=None) -> ComplexBundle:
    summands = [(1, linear(ring, v)) for v in vectors]
    if sym is not None:
        summands = [(m, sym(y)) for m, y in summands]
    return ComplexBundle(ring, summands, len(vectors))


def space_doc(name: str, bundle: ComplexBundle) -> dict:
    """A shared-form space file, the pairing being 1 on the top class."""
    ring = bundle.ring
    rank = 2 * bundle.crank
    cutoff = max(ring.dimension, rank)
    top = ring.basis(ring.dimension)
    assert len(top) == 1, "generated bases are products with one top class"
    w = {str(i): ring.terms(bundle.w(i))
         for i in range(2, rank + 1, 2) if bundle.w(i)}
    p = {str(k): ring.terms(bundle.pontryagin(k))
         for k in range(1, cutoff // 4 + 1) if bundle.pontryagin(k)}
    return {
        "schema_version": 1,
        "name": name,
        "rings": {"shared": {
            "cutoff": cutoff,
            "generators": [{"name": n, "degree": d}
                           for n, d in zip(ring.names, ring.degrees)],
            "relations": [{"lhs": "%s^%d" % (n, cap + 1), "rhs": {}}
                          for n, cap in zip(ring.names, ring.caps)],
        }},
        "bundle": {
            "rank": rank,
            "base_dimension": ring.dimension,
            "w": w,
            "p": p,
            "euler": ring.terms(bundle.euler),
            "pairing": {"degree": ring.dimension,
                        "values": {ring.fmt(top[0]): "1"}},
        },
    }


def symmetry(ring: Ring, rng: random.Random):
    """A seeded automorphism a_i -> s_i * a_pi(i) of a product of CP^n.

    pi only permutes factors of equal dimension and the signs keep the top
    class fixed, so the fundamental pairing is unchanged.  The candidate
    boxes of the search are invariant under it, so the work is too.
    """
    caps = ring.caps
    perm = list(range(len(caps)))
    for cap in sorted(set(caps)):
        slots = [i for i in range(len(caps)) if caps[i] == cap]
        shuffled = slots[:]
        rng.shuffle(shuffled)
        for src, dst in zip(slots, shuffled):
            perm[src] = dst
    signs = [rng.choice((1, -1)) for _ in caps]
    odd = [i for i, cap in enumerate(caps) if cap % 2]
    if odd and sum(1 for i in odd if signs[i] < 0) % 2:
        signs[odd[0]] = -signs[odd[0]]

    def apply(y: dict) -> dict:
        out = {}
        for mono, coeff in y.items():
            image = [0] * len(mono)
            sign = 1
            for i, e in enumerate(mono):
                image[perm[i]] = e
                sign *= signs[i] ** e
            out[tuple(image)] = sign * coeff
        return out

    return apply


def even_offsets(rng: random.Random, base, spread: int = 2):
    """base[i] + 2*r_i with r_i in [-spread, spread]: parities stay fixed."""
    return [b + 2 * rng.randint(-spread, spread) for b in base]
