"""Integer matrix layer: Smith/Hermite forms, solver, group descriptors.

The Smith diagonal is cross-checked against the classical minors
characterization: d_k = gcd(k-minors) / gcd((k-1)-minors).  That oracle
shares no code with the elimination in the module under test.
"""

import itertools
import math
import random

import pytest

from acso.intlin import (
    AbelianGroupDescriptor,
    IntMatrix,
    hermite_basis,
    smith_normal_form,
    solve_integer_linear,
)


def minors_gcd_diagonal(A: IntMatrix) -> tuple:
    """Invariant factors straight from the definition, for small matrices."""
    rows = A.to_rows()
    m, n = A.rows, A.cols
    gcds = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = IntMatrix.from_rows([[rows[i][j] for j in ci] for i in ri])
                g = math.gcd(g, sub.determinant())
        gcds.append(g)
    diag = []
    for k in range(1, len(gcds)):
        if gcds[k] == 0:
            break
        diag.append(gcds[k] // gcds[k - 1])
    return tuple(diag)


def det_by_cofactors(rows) -> int:
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j in range(len(rows)):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_by_cofactors(minor)
    return total


def random_matrix(rng, max_dim=5, span=5) -> IntMatrix:
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-span, span) for _ in range(n)] for _ in range(m)])


# -- IntMatrix basics -----------------------------------------------------


def test_constructors_and_access():
    A = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert A[0, 1] == 2
    assert A.row(1) == (3, 4)
    assert A.column(0) == (1, 3)
    assert IntMatrix.zero(2, 3).to_rows() == ((0, 0, 0), (0, 0, 0))


def test_matmul_and_vector():
    A = IntMatrix.from_rows([[1, 2], [0, 1]])
    B = IntMatrix.from_rows([[1, 0], [3, 1]])
    assert (A @ B).to_rows() == ((7, 2), (3, 1))
    assert A.mul_vector([1, 1]) == (3, 1)
    with pytest.raises(ValueError):
        A.mul_vector([1, 2, 3])


def naive_matmul(A, B):
    return [[sum(A[i, k] * B[k, j] for k in range(A.cols))
             for j in range(B.cols)] for i in range(A.rows)]


def sparse_matrix(rng, rows, cols):
    # about 70% zeros, like the scaled identities and map matrices of rings
    return IntMatrix(rows, cols, [0 if rng.random() < 0.7 else rng.randint(-9, 9)
                                  for _ in range(rows * cols)])


def test_matmul_and_vector_match_naive_products():
    rng = random.Random(4242)
    shapes = [(0, 3, 4), (3, 0, 4), (3, 4, 0), (1, 1, 1)]
    shapes += [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(200)]
    for m, n, p in shapes:
        A = sparse_matrix(rng, m, n)
        B = sparse_matrix(rng, n, p)
        C = A @ B
        assert (C.rows, C.cols) == (m, p)
        assert [list(r) for r in C.to_rows()] == naive_matmul(A, B)
        v = [rng.randint(-9, 9) for _ in range(n)]
        assert list(A.mul_vector(v)) == [sum(A[i, k] * v[k] for k in range(n))
                                         for i in range(m)]
    with pytest.raises(ValueError):
        IntMatrix.zero(2, 3) @ IntMatrix.zero(2, 3)


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert IntMatrix.from_rows(rows).determinant() == det_by_cofactors(rows)


def test_determinant_requires_square():
    with pytest.raises(ValueError):
        IntMatrix.zero(2, 3).determinant()


# -- Smith normal form ----------------------------------------------------


def test_smith_examples():
    assert smith_normal_form(
        IntMatrix.from_rows([[2, 0], [0, 3]])).diagonal == (1, 6)
    assert smith_normal_form(IntMatrix.from_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]])).diagonal == (1, 1, 1)
    assert smith_normal_form(IntMatrix.from_rows([[4]])).diagonal == (4,)


def assert_valid_smith(A: IntMatrix):
    snf = smith_normal_form(A)
    assert (snf.U @ A @ snf.V) == snf.D
    assert snf.U.determinant() in (1, -1)
    assert snf.V.determinant() in (1, -1)
    diag = snf.diagonal
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # the zero block comes after every nonzero invariant factor
    assert list(diag) == nz + [0] * (len(diag) - len(nz))
    assert diag == minors_gcd_diagonal(A) + (0,) * (len(diag) - len(minors_gcd_diagonal(A)))


def test_smith_random_against_minors_oracle():
    rng = random.Random(20260816)
    for _ in range(300):
        assert_valid_smith(random_matrix(rng))


def test_smith_invariance_under_permutation():
    rng = random.Random(7)
    for _ in range(40):
        A = random_matrix(rng, max_dim=4, span=4)
        rows = [list(r) for r in A.to_rows()]
        rng.shuffle(rows)
        cols = list(range(A.cols))
        rng.shuffle(cols)
        B = IntMatrix.from_rows([[r[j] for j in cols] for r in rows])
        assert smith_normal_form(A).diagonal == smith_normal_form(B).diagonal


def test_smith_zero_matrix():
    snf = smith_normal_form(IntMatrix.zero(3, 2))
    assert snf.diagonal == (0, 0)


# -- Hermite basis ---------------------------------------------------------


def test_hermite_basis_examples():
    assert hermite_basis([]) == ()
    assert hermite_basis([(0, 0)]) == ()
    assert hermite_basis([(-2, 1)]) == ((2, -1),)
    assert hermite_basis([(2, 0), (0, 3), (2, 3)]) == ((2, 0), (0, 3))


def span_membership(basis, v) -> bool:
    v = list(v)
    for bv in basis:
        r = next(i for i, t in enumerate(bv) if t)
        if v[r] % bv[r]:
            return False
        q = v[r] // bv[r]
        v = [v[i] - q * bv[i] for i in range(len(v))]
    return not any(v)


def test_hermite_basis_is_generating_set_independent():
    rng = random.Random(55)
    for _ in range(50):
        n = rng.randint(1, 4)
        vecs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        basis = hermite_basis(vecs)
        # same lattice, different generators: shuffled sums of the originals
        mixed = [
            [sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(n)]
            for coeffs in ([1] + [0] * (len(vecs) - 1),
                           [rng.randint(-2, 2) for _ in vecs],
                           [rng.randint(-2, 2) for _ in vecs])
        ] + [list(v) for v in vecs]
        rng.shuffle(mixed)
        assert hermite_basis(mixed + vecs) == basis
        for v in vecs:
            assert span_membership(basis, v)
        for bv in basis:
            assert span_membership(hermite_basis(vecs), bv)


# -- integer linear solve ---------------------------------------------------


def test_solve_examples():
    assert solve_integer_linear(IntMatrix.from_rows([[2]]), [4]) == ((2,), ())
    assert solve_integer_linear(IntMatrix.from_rows([[2]]), [3]) is None
    x, kernel = solve_integer_linear(IntMatrix.from_rows([[1, 2], [2, 4]]), [1, 2])
    assert x == (1, 0)
    assert kernel == ((2, -1),)


def test_solve_rejects_bad_rhs_length():
    with pytest.raises(ValueError):
        solve_integer_linear(IntMatrix.from_rows([[1, 0], [0, 1]]), [1])


def brute_force_solution(A: IntMatrix, b, span) -> bool:
    n = A.cols
    for x in itertools.product(range(-span, span + 1), repeat=n):
        if A.mul_vector(x) == tuple(b):
            return True
    return False


def test_solve_agrees_with_box_search():
    rng = random.Random(909)
    for _ in range(120):
        A = random_matrix(rng, max_dim=3, span=3)
        if rng.random() < 0.5:
            x0 = [rng.randint(-2, 2) for _ in range(A.cols)]
            b = list(A.mul_vector(x0))
        else:
            b = [rng.randint(-3, 3) for _ in range(A.rows)]
        got = solve_integer_linear(A, b)
        if got is None:
            # a solution found by exhaustive search would refute the solver
            assert not brute_force_solution(A, b, 4)
        else:
            x, kernel = got
            assert A.mul_vector(x) == tuple(b)
            for kv in kernel:
                assert A.mul_vector(kv) == (0,) * A.rows


def test_solve_is_canonical():
    A = IntMatrix.from_rows([[2, 4], [1, 2]])
    first = solve_integer_linear(A, [6, 3])
    assert first is not None
    assert first == solve_integer_linear(A, [6, 3])
    x, kernel = first
    # particular is reduced against the kernel pivots
    for kv in kernel:
        r = next(i for i, t in enumerate(kv) if t)
        assert 0 <= x[r] < kv[r]


# -- group descriptors -------------------------------------------------------


def test_descriptor_strings():
    assert str(AbelianGroupDescriptor.trivial()) == "0"
    assert str(AbelianGroupDescriptor.free(1)) == "Z"
    assert str(AbelianGroupDescriptor.cyclic(24)) == "Z/24"
    assert str(AbelianGroupDescriptor(free_rank=1, torsion_factors=(2,))) == "Z + Z/2"


def test_descriptor_normalizes_cyclic_one():
    assert AbelianGroupDescriptor.cyclic(1).is_trivial
