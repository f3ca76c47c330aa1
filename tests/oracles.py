"""Oracles that share no code with the package engine.

The subspace enumerators over F_p build every subspace through the
public ``Subspace`` constructor, so the tests use them as oracles for
``stability._isotropic_scanner``, the package's one subspace enumerator.

The generic elimination below runs on the scalar operations of the
field objects, one method call per entry operation, as the package's
matrices once did.  The tests check the plain-int kernel of ``Matrix``
against it: reduced echelon forms, kernels, inverses and determinants
are unique, so both must agree entry by entry.
"""

import itertools
from fractions import Fraction

from twistmod.errors import FieldError, ShapeError, SingularMatrixError
from twistmod.linalg import Matrix, Subspace


def is_element(field, a) -> bool:
    """Whether a is a canonical element: a Fraction, or an int in range(p)."""
    if field.kind == "rational":
        return isinstance(a, Fraction)
    return isinstance(a, int) and 0 <= a < field.p


def dot(field, u, v):
    acc = field.zero
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def vec_mat(m, v):
    """v^T m for a row tuple v."""
    return tuple(dot(m.field, v, [r[j] for r in m.rows]) for j in range(m.ncols))


def generic_mul(a, b):
    if a.ncols != b.nrows:
        raise ShapeError("shape mismatch")
    columns = [[s[j] for s in b.rows] for j in range(b.ncols)]
    return [[dot(a.field, r, c) for c in columns] for r in a.rows]


def generic_rref(m):
    """(echelon rows, rank, pivots) by Gauss-Jordan on field operations."""
    f = m.field
    rows = [list(r) for r in m.rows]
    pivots = []
    for c in range(m.ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != f.zero), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        scale = f.inv(rows[r][c])
        rows[r] = [f.mul(scale, e) for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != f.zero:
                factor = rows[i][c]
                rows[i] = [f.sub(a, f.mul(factor, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, len(pivots), tuple(pivots)


def generic_kernel(m):
    """Canonical (reduced echelon) basis rows of {v : M v = 0}."""
    f = m.field
    echelon, _, pivots = generic_rref(m)
    vectors = []
    for fc in range(m.ncols):
        if fc in pivots:
            continue
        v = [f.zero] * m.ncols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(echelon[r][fc])
        vectors.append(v)
    reduced, k, _ = generic_rref(Matrix(f, vectors))
    return reduced[:k]


def generic_det(m):
    f = m.field
    n = m.nrows
    rows = [list(r) for r in m.rows]
    result = f.one
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != f.zero), None)
        if pivot_row is None:
            return f.zero
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            result = f.neg(result)
        result = f.mul(result, rows[c][c])
        inv_pivot = f.inv(rows[c][c])
        for i in range(c + 1, n):
            if rows[i][c] != f.zero:
                factor = f.mul(rows[i][c], inv_pivot)
                rows[i] = [f.sub(a, f.mul(factor, b)) for a, b in zip(rows[i], rows[c])]
    return result


def generic_inverse(m):
    f = m.field
    n = m.nrows
    identity = [[f.one if j == i else f.zero for j in range(n)] for i in range(n)]
    augmented = Matrix(f, [list(row) + unit for row, unit in zip(m.rows, identity)])
    echelon, _, pivots = generic_rref(augmented)
    if pivots[:n] != tuple(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [r[n:] for r in echelon]


def vectors_of(field, n: int):
    """All vectors of F_p^n in lexicographic order (finite fields only)."""
    elems = field.elements()
    return [tuple(v) for v in itertools.product(elems, repeat=n)]


def enumerate_subspaces(field, ambient: int, dim: int):
    """Yield all ``dim``-dimensional subspaces of F_p^ambient.

    Enumerates reduced row echelon bases directly: one choice of pivot
    columns plus arbitrary values at the free positions gives each
    subspace exactly once.  The yield order is the canonical package
    order (pivot columns lexicographically, then free entries).
    """
    if field.kind != "fp":
        raise FieldError("subspace enumeration needs a finite field")
    if dim < 0 or dim > ambient:
        return
    if dim == 0:
        yield Subspace.zero(field, ambient)
        return
    elems = field.elements()
    for pivots in itertools.combinations(range(ambient), dim):
        pivot_set = set(pivots)
        free_positions = [
            (r, c)
            for r in range(dim)
            for c in range(pivots[r] + 1, ambient)
            if c not in pivot_set
        ]
        for assignment in itertools.product(elems, repeat=len(free_positions)):
            rows = [[field.zero] * ambient for _ in range(dim)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = field.one
            for (r, c), value in zip(free_positions, assignment):
                rows[r][c] = value
            yield Subspace(field, ambient, rows)


def all_subspaces(field, ambient: int):
    """All nonzero subspaces of every dimension, in canonical order."""
    for dim in range(1, ambient + 1):
        yield from enumerate_subspaces(field, ambient, dim)
