"""Exact linear algebra over the integers.

Everything in this module computes with arbitrary-precision ints and
returns exact results: Smith normal forms together with the unimodular
transforms that realize them, solvers for linear systems over Z, Hermite
bases for integer lattices, and finitely generated abelian groups in
invariant-factor form.  No floats anywhere.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


class Frozen:
    """Base of the immutable value classes, whose fields are their __slots__.

    Assigning or deleting a field raises AttributeError.  Equality,
    hashing and repr go field by field, in slot order: two instances are
    equal when they are of one class and their field tuples are equal, a
    comparison with any other class is NotImplemented, and the hash is
    that of the field tuple.  Each subclass stores its fields from a
    hand-written __init__ through `set_field`.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


# stores a field of a Frozen instance, which its own __setattr__ refuses
set_field = object.__setattr__


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


class IntMatrix:
    """Integer matrix, row-major, treated as immutable.

    All arithmetic is exact.  Instances hash and compare by shape and
    entries, so do not mutate them.
    """

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        e = tuple(int(x) for x in entries)
        if rows < 0 or cols < 0 or len(e) != rows * cols:
            raise ValueError("entry count does not match matrix shape")
        self.rows = rows
        self.cols = cols
        self._e = e

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        return cls(len(rows), width, [x for r in rows for x in r])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self._e[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self._e[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self._e[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.row(i) for i in range(self.rows))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        out = []
        for i in range(self.rows):
            # add up rows of `other` for the nonzero entries of row i only
            acc = [0] * other.cols
            for k, a in enumerate(self.row(i)):
                if a:
                    acc = [x + a * b for x, b in zip(acc, other.row(k))]
            out.extend(acc)
        return IntMatrix(self.rows, other.cols, out)

    def mul_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length differs from column count")
        return tuple(sum(a * b for a, b in zip(self.row(i), v))
                     for i in range(self.rows))

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(self.row(i)) for i in range(n)]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._e == other._e)

    def __hash__(self):
        return hash((self.rows, self.cols, self._e))

    def __repr__(self):
        return "IntMatrix.from_rows(%r)" % [list(self.row(i)) for i in range(self.rows)]


class SmithDecomposition(Frozen):
    """U @ A @ V == D with U, V unimodular and D in Smith normal form."""

    __slots__ = ("U", "D", "V")

    def __init__(self, U: IntMatrix, D: IntMatrix, V: IntMatrix):
        set_field(self, "U", U)
        set_field(self, "D", D)
        set_field(self, "V", V)

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i, i] for i in range(min(self.D.rows, self.D.cols)))


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Diagonalize A over Z.

    Returns U, D, V with U @ A @ V == D, |det U| = |det V| = 1, the
    diagonal of D nonnegative, and each diagonal entry dividing the next.
    Pivots are chosen by smallest absolute value, which keeps coefficient
    growth tame on the small matrices this library produces.
    """
    m, n = A.rows, A.cols
    a = [list(A.row(i)) for i in range(m)]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for r in a:
                r[i], r[j] = r[j], r[i]
            for r in v:
                r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        # row dst += q * row src, mirrored into U
        ad, asrc = a[dst], a[src]
        for k in range(n):
            ad[k] += q * asrc[k]
        ud, usrc = u[dst], u[src]
        for k in range(m):
            ud[k] += q * usrc[k]

    def add_col(dst, src, q):
        for r in a:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    def best_pivot(t):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x and (piv is None or abs(x) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        return piv

    t = 0
    while t < min(m, n):
        piv = best_pivot(t)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            clean = True
            for i in range(t + 1, m):
                q = a[i][t] // a[t][t]
                if q:
                    add_row(i, t, -q)
                if a[i][t]:
                    clean = False
            for j in range(t + 1, n):
                q = a[t][j] // a[t][t]
                if q:
                    add_col(j, t, -q)
                if a[t][j]:
                    clean = False
            if not clean:
                # leftover residues are strictly smaller than the pivot
                piv = best_pivot(t)
                swap_rows(t, piv[0])
                swap_cols(t, piv[1])
                continue
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            # pull the offending row up so the next sweep shrinks the pivot
            add_row(t, bad, 1)
        t += 1

    for i in range(t):
        if a[i][i] < 0:
            for k in range(n):
                a[i][k] = -a[i][k]
            for k in range(m):
                u[i][k] = -u[i][k]

    U = IntMatrix(m, m, [x for r in u for x in r])
    D = IntMatrix(m, n, [x for r in a for x in r])
    V = IntMatrix(n, n, [x for r in v for x in r])
    return SmithDecomposition(U=U, D=D, V=V)


def hermite_basis(vectors: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the lattice spanned by the given vectors.

    Column-style Hermite normal form: basis vectors come out ordered by
    pivot position, each pivot positive, and every entry sharing a row
    with a later pivot reduced into [0, pivot).  Any two generating sets
    of the same lattice produce the identical tuple.
    """
    vecs = [list(v) for v in vectors if any(v)]
    if not vecs:
        return ()
    n = len(vecs[0])
    if any(len(v) != n for v in vecs):
        raise ValueError("vectors of mixed length")
    k = len(vecs)
    fixed = 0
    for r in range(n):
        pivot = None
        for j in range(fixed, k):
            if vecs[j][r]:
                pivot = j
                break
        if pivot is None:
            continue
        vecs[fixed], vecs[pivot] = vecs[pivot], vecs[fixed]
        for j in range(fixed + 1, k):
            bv = vecs[j][r]
            if not bv:
                continue
            av = vecs[fixed][r]
            g, x, y = _xgcd(av, bv)
            c0 = [x * vecs[fixed][i] + y * vecs[j][i] for i in range(n)]
            c1 = [(av // g) * vecs[j][i] - (bv // g) * vecs[fixed][i] for i in range(n)]
            vecs[fixed], vecs[j] = c0, c1
        if vecs[fixed][r] < 0:
            vecs[fixed] = [-x for x in vecs[fixed]]
        p = vecs[fixed][r]
        for j in range(fixed):
            q = vecs[j][r] // p
            if q:
                vecs[j] = [vecs[j][i] - q * vecs[fixed][i] for i in range(n)]
        fixed += 1
        if fixed == k:
            break
    return tuple(tuple(v) for v in vecs[:fixed])


def solve_integer_linear(
    A: IntMatrix, b: Sequence[int]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]] | None:
    """Solve A x = b over Z.

    Returns (particular, kernel_basis) or None when no integer solution
    exists.  The kernel basis is in Hermite form and the particular
    solution is reduced against it, so the answer is canonical.
    """
    if len(b) != A.rows:
        raise ValueError("right-hand side length differs from row count")
    snf = smith_normal_form(A)
    m, n = A.rows, A.cols
    c = snf.U.mul_vector(b)
    diag = snf.diagonal
    y = [0] * n
    for i in range(m):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d:
                return None
            y[i] = c[i] // d
    x = list(snf.V.mul_vector(y))
    free_cols = [j for j in range(n) if j >= len(diag) or diag[j] == 0]
    kernel = hermite_basis([snf.V.column(j) for j in free_cols])
    for kv in kernel:
        r = next(i for i, t in enumerate(kv) if t)
        q = x[r] // kv[r]
        if q:
            x = [x[i] - q * kv[i] for i in range(n)]
    return tuple(x), kernel


class AbelianGroupDescriptor(Frozen):
    """Finitely generated abelian group in invariant-factor form.

    torsion_factors is the ascending divisibility chain (each entry >= 2
    and dividing the next), so two descriptors are equal exactly when the
    groups are isomorphic.
    """

    __slots__ = ("free_rank", "torsion_factors")

    def __init__(self, free_rank: int, torsion_factors: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("negative free rank")
        factors = tuple(int(t) for t in torsion_factors)
        prev = None
        for t in factors:
            if t < 2:
                raise ValueError("torsion factors must be at least 2")
            if prev is not None and t % prev:
                raise ValueError("torsion factors must form a divisibility chain")
            prev = t
        set_field(self, "free_rank", free_rank)
        set_field(self, "torsion_factors", factors)

    @classmethod
    def trivial(cls) -> "AbelianGroupDescriptor":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "AbelianGroupDescriptor":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "AbelianGroupDescriptor":
        n = abs(int(n))
        if n == 0:
            return cls(1, ())
        if n == 1:
            return cls(0, ())
        return cls(0, (n,))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion_factors

    def __str__(self):
        parts = ["Z"] * self.free_rank
        parts += ["Z/%d" % t for t in self.torsion_factors]
        return " + ".join(parts) if parts else "0"
