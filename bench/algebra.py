"""Truncated graded polynomial arithmetic over Z, kept apart from acso.

The benchmark builds its inputs and checks the program's answers with this
module, so it shares no code with the program under test.  A ring here has
generators with degrees and exponent caps (x^(cap+1) = 0), which covers
the cohomology of products of CP^n (cap n, degree 2), of (S^2)^k (cap 1,
degree 2) and of T^n (cap 1, degree 1, an exterior algebra).  Elements are
dicts {exponent tuple: coefficient} with zero coefficients dropped.
"""

from __future__ import annotations

import itertools
import re


class Ring:
    def __init__(self, names, degrees, caps):
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.caps = tuple(caps)
        self.dimension = sum(d * c for d, c in zip(self.degrees, self.caps))

    def degree(self, mono) -> int:
        return sum(e * d for e, d in zip(mono, self.degrees))

    def gen(self, i: int, coeff: int = 1) -> dict:
        mono = [0] * len(self.names)
        mono[i] = 1
        return {tuple(mono): coeff}

    def one(self) -> dict:
        return {(0,) * len(self.names): 1}

    def basis(self, degree: int) -> list:
        """Monomials of one degree, in sorted exponent order."""
        ranges = [range(c + 1) for c in self.caps]
        return sorted(m for m in itertools.product(*ranges)
                      if self.degree(m) == degree)

    def _sign(self, a, b) -> int:
        # moving each odd generator of b left past the later odd ones of a
        s = 0
        for j, bj in enumerate(b):
            if bj and self.degrees[j] % 2:
                s += bj * sum(a[i] for i in range(j + 1, len(a))
                              if self.degrees[i] % 2)
        return -1 if s % 2 else 1

    def mul(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for a, ca in x.items():
            for b, cb in y.items():
                m = tuple(i + j for i, j in zip(a, b))
                if any(e > c for e, c in zip(m, self.caps)):
                    continue
                out[m] = out.get(m, 0) + self._sign(a, b) * ca * cb
        return {m: c for m, c in out.items() if c}

    def add(self, *xs: dict) -> dict:
        out: dict = {}
        for x in xs:
            for m, c in x.items():
                out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}

    def scale(self, x: dict, k: int) -> dict:
        return {m: k * c for m, c in x.items() if k * c}

    def part(self, x: dict, degree: int) -> dict:
        return {m: c for m, c in x.items() if self.degree(m) == degree}

    def mod2(self, x: dict) -> dict:
        return {m: c % 2 for m, c in x.items() if c % 2}

    def fmt(self, mono) -> str:
        parts = []
        for name, e in zip(self.names, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts) if parts else "1"

    def parse_mono(self, text: str) -> tuple:
        exps = [0] * len(self.names)
        if text == "1":
            return tuple(exps)
        for factor in text.split("*"):
            name, _, power = factor.partition("^")
            exps[self.names.index(name)] += int(power) if power else 1
        return tuple(exps)

    def terms(self, x: dict) -> dict:
        """Space-file form: {monomial string: decimal string}."""
        return {self.fmt(m): str(c) for m, c in sorted(x.items())}

    def from_terms(self, terms: dict) -> dict:
        out: dict = {}
        for text, c in terms.items():
            m = self.parse_mono(text)
            out[m] = out.get(m, 0) + int(c)
        return {m: c for m, c in out.items() if c}

    def parse_element(self, text: str) -> dict:
        """Parse the printed form of a class, e.g. '-2*a*b + c^2 - 3'."""
        text = text.strip()
        if text == "0":
            return {}
        tokens = text.split(" ")
        out: dict = {}
        sign = 1
        for pos, tok in enumerate(tokens):
            if pos % 2:
                if tok not in ("+", "-"):
                    raise ValueError("bad separator %r in %r" % (tok, text))
                sign = 1 if tok == "+" else -1
                continue
            coeff, mono = _split_term(tok)
            m = self.parse_mono(mono)
            out[m] = out.get(m, 0) + sign * coeff
        return {m: c for m, c in out.items() if c}


_TERM_RE = re.compile(r"(-?)(\d+)\*(.+)\Z")


def _split_term(tok: str):
    match = _TERM_RE.match(tok)
    if match:
        sign = -1 if match.group(1) else 1
        return sign * int(match.group(2)), match.group(3)
    if tok.lstrip("-").isdigit():
        return int(tok), "1"
    if tok.startswith("-"):
        return -1, tok[1:]
    return 1, tok


def power(ring: Ring, x: dict, k: int) -> dict:
    out = ring.one()
    for _ in range(k):
        out = ring.mul(out, x)
    return out


def total_class(ring: Ring, factors) -> dict:
    """prod (1 + y)^m over (m, y) pairs, truncated by the ring."""
    out = ring.one()
    for m, y in factors:
        out = ring.mul(out, power(ring, ring.add(ring.one(), y), m))
    return out
