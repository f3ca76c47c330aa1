"""Oracles that share no code with the package engine.

The subspace enumerators over F_p build every subspace through the
public ``Subspace`` constructor, so the tests use them as oracles for
``stability._isotropic_scanner``, the package's one subspace enumerator.

The field objects of the package carry no arithmetic, so the scalar
operations of every oracle and test are kept here, in one place: one
function call per entry operation, with the inverse over F_p taken by
Fermat's little theorem.  The generic elimination below runs on them,
as the package's matrices once did on field methods.  The tests check
the plain-int kernel of ``Matrix`` against it: reduced echelon forms,
kernels, inverses and determinants are unique, so both must agree entry
by entry.

The orders of the orthogonal and symplectic groups over F_q come from
their closed forms alone; they count the yields of ``linalg.isometries``.
"""

import itertools
import math
from fractions import Fraction

from twistmod.errors import FieldError, ShapeError, SingularMatrixError
from twistmod.linalg import Matrix, Subspace


def is_element(field, a) -> bool:
    """Whether a is a canonical element: a Fraction, or an int in range(p)."""
    if field.kind == "rational":
        return isinstance(a, Fraction)
    return isinstance(a, int) and 0 <= a < field.p


def _canonical(field, a):
    return a % field.p if field.characteristic else a


def add(field, a, b):
    return _canonical(field, a + b)


def sub(field, a, b):
    return _canonical(field, a - b)


def mul(field, a, b):
    return _canonical(field, a * b)


def neg(field, a):
    return _canonical(field, -a)


def inv(field, a):
    if a == field.zero:
        raise ZeroDivisionError("inverse of zero")
    if field.characteristic:
        return pow(a, field.p - 2, field.p)
    # Fraction(1), not 1: a plain-int a would otherwise give a float
    return Fraction(1) / a


def elements(field):
    """The elements of F_p in order (finite fields only)."""
    if field.kind != "fp":
        raise FieldError("cannot enumerate an infinite field")
    return list(range(field.p))


def dot(field, u, v):
    acc = field.zero
    for a, b in zip(u, v):
        acc = add(field, acc, mul(field, a, b))
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
        scale = inv(f, rows[r][c])
        rows[r] = [mul(f, scale, e) for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != f.zero:
                factor = rows[i][c]
                rows[i] = [sub(f, a, mul(f, factor, b)) for a, b in zip(rows[i], rows[r])]
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
            v[pc] = neg(f, echelon[r][fc])
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
            result = neg(f, result)
        result = mul(f, result, rows[c][c])
        inv_pivot = inv(f, rows[c][c])
        for i in range(c + 1, n):
            if rows[i][c] != f.zero:
                factor = mul(f, rows[i][c], inv_pivot)
                rows[i] = [sub(f, a, mul(f, factor, b)) for a, b in zip(rows[i], rows[c])]
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
    elems = elements(field)
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
    elems = elements(field)
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


def all_combinations_invariants_match(q1, q2) -> bool:
    """The congruence invariants of two modules with every coefficient
    vector: the ranks of each form, of the stacked forms and of every
    nonzero combination sum c_k B_k, with c_k over all of F_p or in
    -2..2 over QQ, each rank by generic elimination."""
    field = q1.field

    def rank(rows):
        return generic_rref(Matrix(field, rows))[1]

    def combination(q, coeffs):
        n = q.dim_h
        out = [[field.zero] * n for _ in range(n)]
        for c, b in zip(coeffs, q.forms):
            for i in range(n):
                for j in range(n):
                    out[i][j] = add(field, out[i][j], mul(field, c, b.rows[i][j]))
        return out

    if rank([r for b in q1.forms for r in b.rows]) != rank([r for b in q2.forms for r in b.rows]):
        return False
    box = elements(field) if field.kind == "fp" else [field.from_int(c) for c in range(-2, 3)]
    for coeffs in itertools.product(box, repeat=q1.dim_w):
        if all(c == field.zero for c in coeffs):
            continue
        if rank(combination(q1, coeffs)) != rank(combination(q2, coeffs)):
            return False
    return True


def stacked_complement(inner, outer):
    """The complement of inner in outer by its definition: the outer
    basis vectors at the pivot columns past the inner ones, when the
    inner and then the outer basis vectors, taken as the columns of one
    matrix, are brought to echelon form by generic elimination."""
    field = inner.field
    stacked = inner.basis.rows + outer.basis.rows
    _, _, pivots = generic_rref(Matrix(field, [list(c) for c in zip(*stacked)]))
    return Subspace(field, inner.ambient, [stacked[c] for c in pivots[inner.dim :]])


def adapted_block_table(lam, q):
    """(i, j) -> whether block (i, j) of T^T B_k T vanishes for every k,
    T the matrix whose columns are the adapted basis of lam, piece after
    piece; each T^T B_k T is formed in full by ``generic_mul``."""
    field = q.field
    adapted = [row for sub, _ in lam.pieces for row in sub.basis.rows]
    tt = Matrix(field, adapted)
    t = Matrix(field, [list(c) for c in zip(*adapted)])
    tables = [generic_mul(Matrix(field, generic_mul(tt, b)), t) for b in q.forms]
    ranges, pos = [], 0
    for sub, _ in lam.pieces:
        ranges.append(range(pos, pos + sub.dim))
        pos += sub.dim
    return {
        (i, j): all(table[r][c] == field.zero for table in tables for r in rows for c in cols)
        for i, rows in enumerate(ranges)
        for j, cols in enumerate(ranges)
    }


def mu_by_full_table(lam, q):
    """max(a_i + a_j) over the nonzero blocks of ``adapted_block_table``,
    or None when every block vanishes."""
    weights = [wt for _, wt in lam.pieces]
    table = adapted_block_table(lam, q)
    sums = [weights[i] + weights[j] for (i, j), zero in table.items() if not zero]
    return max(sums) if sums else None


def orthogonal_group_order(n: int, q: int) -> int:
    """|O_n(q)| for the form I_n over F_q, q odd, from the closed forms
    (Taylor, The Geometry of the Classical Groups, 1992): with n = 2m + 1
    it is 2 q^(m^2) prod_{i=1..m} (q^(2i) - 1); with n = 2m it is
    2 q^(m(m-1)) (q^m - eps) prod_{i<m} (q^(2i) - 1), where eps = +1
    exactly when the discriminant (-1)^m of I_n is a square mod q."""
    m = n // 2
    if n % 2:
        return 2 * q ** (m * m) * math.prod(q ** (2 * i) - 1 for i in range(1, m + 1))
    eps = 1 if any(x * x % q == (-1) ** m % q for x in range(q)) else -1
    return 2 * q ** (m * (m - 1)) * (q**m - eps) * math.prod(q ** (2 * i) - 1 for i in range(1, m))


def symplectic_group_order(n: int, q: int) -> int:
    """|Sp_n(q)| = q^(m^2) prod_{i=1..m} (q^(2i) - 1) for n = 2m (Taylor,
    1992), for any nondegenerate alternating form over F_q."""
    m = n // 2
    return q ** (m * m) * math.prod(q ** (2 * i) - 1 for i in range(1, m + 1))
