"""Matrix groups over dual numbers, their fixed subgroups, and Pfaffian types.

A dual-number matrix is a pair (g, h) standing for g + eps*h with
eps^2 = 0.  The products, inverses and determinants used here all have
closed forms, so no polynomial quotient ring is needed.

The fixed-subgroup predicates describe the fibers of the relevant group
schemes at a point of the base.  At a branch point the covering
involution acts on the double point itself, sending eps to -eps, and the
fixed elements of transpose-inversion twisted by a form M (M = I in the
plus case, an alternating M in the symplectic one) satisfy:

  g^T M g = M,  h = g M^-1 h^T M g,  det g = 1,  tr(g^-1 h) = 0

At M = I, where g^-1 = g^T, the second condition says g^T h is symmetric.
At g = I these cut out the traceless h with M h = h^T M: the traceless
symmetric matrices in the plus case, matching the additive kernels of
the projections onto SO_r and Sp_r.  Away from the branch locus the
fiber has two reduced points swapped by the involution, and being fixed
means the second component is the transpose-inverse of the first.

The fiber engine runs on ``linalg.Matrix``, one construction for both
cases.  Its image keeps the determinant-one yields of
``linalg.isometries``, the Gram walk that ``sigmamod.is_isomorphic``
also runs, here with no budget.  For a fixed g the conditions on h are
linear, so each image element gets one linear solve, and the fixed set,
held once as ``DualNumberMatrix`` pairs, is the union of the solution
spaces.  Every pair found is rechecked with the predicate of its case,
written independently of the solver.  Group closure is checked through
``dn_mul`` on a generating set rather than on all pairs.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import (
    BoundExceededError,
    FieldError,
    InternalCheckError,
    ShapeError,
    SingularMatrixError,
    UsageError,
)
from .linalg import Matrix, _null_space, isometries, rank_mod_p


class _DualNumberFields(NamedTuple):
    g: Matrix
    h: Matrix


class DualNumberMatrix(_DualNumberFields):
    """g + eps*h with eps^2 = 0; invertible exactly when g is."""

    __slots__ = ()

    def __new__(cls, g: Matrix, h: Matrix):
        if g.field != h.field:
            raise ShapeError("components live over different fields")
        if g.nrows != g.ncols or g.shape != h.shape:
            raise ShapeError("components must be square of equal size")
        return tuple.__new__(cls, (g, h))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate there too
        return cls(*iterable)

    @classmethod
    def identity(cls, field, r: int) -> "DualNumberMatrix":
        return cls(Matrix.identity(field, r), Matrix.zeros(field, r, r))

    @property
    def field(self):
        return self.g.field

    @property
    def size(self) -> int:
        return self.g.nrows


def dn_mul(a: DualNumberMatrix, b: DualNumberMatrix) -> DualNumberMatrix:
    """(g, h)(k, l) = (gk, gl + hk)."""
    if a.size != b.size or a.field != b.field:
        raise ShapeError("size mismatch in dual-number product")
    return DualNumberMatrix(a.g @ b.g, a.g @ b.h + a.h @ b.g)


def dn_inverse(a: DualNumberMatrix) -> DualNumberMatrix:
    """(g, h)^-1 = (g^-1, -g^-1 h g^-1)."""
    ginv = a.g.inverse()
    return DualNumberMatrix(ginv, -(ginv @ a.h @ ginv))


def dn_det(a: DualNumberMatrix):
    """det(g + eps*h) as a pair (d0, d1) with value d0 + eps*d1.

    d0 = det g, and d1, the derivative of det at g in the direction h,
    expands by multilinearity into a sum of determinants with one row of
    g replaced by the matching row of h.
    """
    field, g, n = a.field, a.g.rows, a.size
    p = field.characteristic
    swapped = (g[:i] + (a.h.rows[i],) + g[i + 1 :] for i in range(n))
    d1 = sum((Matrix._from_rows(field, rows, n).det() for rows in swapped), field.zero)
    return (a.g.det(), d1 % p if p else d1)


def is_fixed_plus(a: DualNumberMatrix) -> bool:
    """Fixed under plain transpose-inversion at a branch point."""
    field = a.field
    r = a.size
    if a.g.transpose() @ a.g != Matrix.identity(field, r):
        return False
    gth = a.g.transpose() @ a.h
    if gth != gth.transpose():
        return False
    return a.g.det() == field.one and gth.trace() == field.zero


def is_fixed_unramified(g1: Matrix, g2: Matrix) -> bool:
    """Away from the branch locus: the two points swap, so (g1, g2) is
    fixed exactly when g2 is the transpose-inverse of g1 (inside SL_r)."""
    field = g1.field
    d1, d2 = g1.det(), g2.det()
    if d1 == field.zero or d2 == field.zero:
        raise SingularMatrixError("unramified fibers live in the invertible locus")
    if d1 != field.one or d2 != field.one:
        return False
    if g1.field != g2.field or g1.shape != g2.shape:
        return False
    # g2 = g1^-T exactly when g1^T g2 = I, which takes no inverse
    return g1.transpose() @ g2 == Matrix.identity(field, g1.nrows)


def _check_alternating(m: Matrix):
    if m.nrows != m.ncols:
        raise ShapeError("alternating matrices are square")
    if m.transpose() != -m or any(
        m[i][i] != m.field.zero for i in range(m.nrows)
    ):
        raise ShapeError("matrix is not alternating")


def is_fixed_alternating(m: Matrix, a: DualNumberMatrix) -> bool:
    """Fixed under transpose-inversion twisted by the alternating m."""
    _check_alternating(m)
    if m.nrows % 2 != 0:
        raise ShapeError("alternating fixed sets need even size")
    if m.shape != a.g.shape:
        raise ShapeError("twist matrix size mismatch")
    return _fixed_alternating(m, m.inverse(), a)


def _fixed_alternating(m: Matrix, minv: Matrix, a: DualNumberMatrix) -> bool:
    # is_fixed_alternating for a checked twist m with its inverse minv
    field = a.field
    if a.g.transpose() @ m @ a.g != m:
        return False
    if a.g.det() != field.one:
        return False
    if a.h != a.g @ minv @ a.h.transpose() @ m @ a.g:
        return False
    return (a.g.inverse() @ a.h).trace() == field.zero


class FiberReport(NamedTuple):
    """Structure report for one fiber over a finite field."""

    case: str
    r: int
    field_order: int
    fixed_count: int
    image_count: int
    kernel_count: int
    kernel_dim: int
    closure_ok: bool
    inverses_ok: bool
    projection_ok: bool
    kernel_ok: bool
    count_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.closure_ok
            and self.inverses_ok
            and self.projection_ok
            and self.kernel_ok
            and self.count_ok
        )


def _solutions(field, r: int, conditions):
    """Every r x r matrix h over F_p with ``conditions(h)`` all zero.  The
    conditions are linear in h, so their matrix is read off the r^2 unit
    matrices and its kernel is spanned in full."""
    p = field.p
    n = r * r

    def matrix(flat):
        return Matrix._from_rows(field, tuple(tuple(flat[i * r : (i + 1) * r]) for i in range(r)), r)

    columns = [conditions(matrix([int(j == k) for j in range(n)])) for k in range(n)]
    basis, _ = _null_space(field, list(zip(*columns)), n)
    return [
        matrix([sum(c * b[k] for c, b in zip(coeffs, basis)) % p for k in range(n)])
        for coeffs in itertools.product(range(p), repeat=len(basis))
    ]


def _closed(elements, mul) -> bool:
    """Whether a finite set is closed under ``mul``, checked on generators.

    The walk multiplies every reached element by every generator once.
    Whenever it stops short of the whole set, the first unreached element
    becomes a new generator.  So the set is the semigroup of its
    generators T, and S*T inside S gives S*S inside S by induction on word
    length.  That costs |S| |T| products, |T| about log |S| for a group,
    instead of |S|^2.
    """
    members = set(elements)
    done = {}  # reached element -> how many generators it has been multiplied by
    reached, gens = [], []
    for s in elements:
        if s in done:
            continue
        gens.append(s)
        done[s] = 0
        reached.append(s)
        for x in reached:  # grows as the walk reaches new elements
            for g in gens[done[x] :]:
                y = mul(x, g)
                if y not in members:
                    return False
                if y not in done:
                    done[y] = 0
                    reached.append(y)
            done[x] = len(gens)
    return True


_MAX_PAIRS = 1_000_000


def _check_fiber(field, r: int, max_pairs: int = _MAX_PAIRS) -> int:
    # the field order q; the bound counts the q^(2 r^2) pairs (g, h), not the work done
    if field.kind != "fp":
        raise FieldError("fiber enumeration needs a finite field")
    if r < 0:
        raise UsageError("the rank must be nonnegative")
    q = field.p
    n = 2 * r * r
    # q >= 2, so past the bound's bit length q^n exceeds it without being computed
    if n > max_pairs.bit_length() or q**n > max_pairs:
        raise BoundExceededError(
            f"fiber enumeration over F_{q} at size {r} exceeds {max_pairs} pairs"
        )
    return q


def fiber_structure_check(
    field,
    r: int,
    case: str,
    m: Matrix | None = None,
    max_pairs: int = _MAX_PAIRS,
) -> FiberReport:
    """Find a branch-point fiber over F_q and verify its structure.

    The image, SO_r (plus case) or the symplectic group of m (alternating
    case), keeps the determinant-one yields of ``linalg.isometries`` for
    B1 = B2 = the form, I or m, with no budget.  For each image element g
    the linear conditions on h are solved once, and every pair found is
    rechecked with ``is_fixed_plus`` or ``is_fixed_alternating``.  Both
    cases solve the twisted conditions, the plus case with m = I.  The
    report checks that the fixed set is a group under dual-number
    multiplication (closure on generators, and inverses), that it
    projects onto the image, that the kernel over the identity is the
    expected additive space of matrices (solved from its own
    description), and that the counts match |image| * q^(dim kernel).
    ``max_pairs`` refuses any size with more than that many pairs (g, h),
    q^(2 r^2), whatever the work.
    """
    if case not in ("plus", "alternating"):
        raise ValueError(f"unknown fiber case {case!r}")
    p = _check_fiber(field, r, max_pairs)
    identity = Matrix.identity(field, r)

    if case == "plus":
        # for orthogonal g, g^T h is symmetric exactly when h = g h^T g
        form = minv = identity
        fixed = is_fixed_plus
        expected_kernel_dim = r * (r + 1) // 2 - 1
    else:
        if m is None:
            raise UsageError("the alternating case needs its twist matrix")
        _check_alternating(m)
        if m.det() == field.zero:
            raise SingularMatrixError("twist matrix must be invertible")
        if r % 2 != 0:
            raise ShapeError("alternating fixed sets need even size")
        if m.field != field:
            raise FieldError("twist matrix lives over another field")
        if m.shape != (r, r):
            raise ShapeError("twist matrix size mismatch")
        form, minv = m, m.inverse()

        def fixed(a):
            return _fixed_alternating(m, minv, a)

        # the kernel is {h : m h skew, tr h = 0}; for q odd the skew m h
        # span r(r-1)/2 dimensions and the trace cuts one, while in
        # characteristic 2 skew means symmetric and no dimension is expected
        expected_kernel_dim = r * (r - 1) // 2 - 1 if p % 2 else None

    def fixed_at(g):
        left, right = g @ minv, form @ g
        # g^-1 = m^-1 g^T m inside the isometry group of m
        ginv = minv @ g.transpose() @ form

        def conditions(h):
            twisted = left @ h.transpose() @ right
            return [*itertools.chain(*(h - twisted).rows), (ginv @ h).trace()]

        return conditions

    def kernel_conditions(h):
        return [*itertools.chain(*(form @ h - h.transpose() @ form).rows), h.trace()]

    bases = isometries([form.rows], [form.rows], range(p), p)
    group = (Matrix._from_rows(field, tuple(zip(*cols)), r) for cols in bases)
    image = [g for g in group if g.det() == 1]
    kernel_space = _solutions(field, r, kernel_conditions)
    fixed_set = [DualNumberMatrix(g, h) for g in image for h in _solutions(field, r, fixed_at(g))]
    if not all(fixed(a) for a in fixed_set):
        raise InternalCheckError("a solved pair fails the fixed-point predicate")
    keys = set(fixed_set)

    closure_ok = _closed(fixed_set, dn_mul)
    inverses_ok = all(dn_inverse(a) in keys for a in fixed_set)
    projection_ok = {a.g for a in fixed_set} == set(image)
    kernel_found = [a.h for a in fixed_set if a.g == identity]
    kernel = set(kernel_found)
    # additive closure: (I, h1)(I, h2) = (I, h1 + h2) stays fixed, so h1 + h2
    # is again an eps-part over the identity
    kernel_ok = kernel == set(kernel_space) and all(
        h1 + h2 in kernel for h1 in kernel_found for h2 in kernel_found
    )

    kernel_dim = 0
    while p**kernel_dim < len(kernel_found):
        kernel_dim += 1
    count_ok = (
        p**kernel_dim == len(kernel_found)
        and len(fixed_set) == len(image) * p**kernel_dim
    )
    if expected_kernel_dim is not None:
        # at r = 0 the trace condition is empty and cuts nothing
        count_ok = count_ok and kernel_dim == max(expected_kernel_dim, 0)

    return FiberReport(
        case=case,
        r=r,
        field_order=p,
        fixed_count=len(fixed_set),
        image_count=len(image),
        kernel_count=len(kernel_found),
        kernel_dim=kernel_dim,
        closure_ok=closure_ok,
        inverses_ok=inverses_ok,
        projection_ok=projection_ok,
        kernel_ok=kernel_ok,
        count_ok=count_ok,
    )


def unramified_fixed_count(field, r: int, max_pairs: int = _MAX_PAIRS) -> int:
    """Count fixed pairs away from the branch locus.

    The answer is |SL_r(F_q)|.  A pair (g1, g2) can be fixed only when
    g2 = t(g1)^-1, so the predicate is applied to that one partner of
    each invertible g1, which keeps the count an oracle for the fact.
    ``max_pairs`` refuses the same sizes as ``fiber_structure_check``.
    """
    q = _check_fiber(field, r, max_pairs)
    count = 0
    for entries in itertools.product(range(q), repeat=r * r):
        rows = [entries[i * r : (i + 1) * r] for i in range(r)]
        if rank_mod_p(rows, q) == r:
            g1 = Matrix._from_rows(field, tuple(rows), r)
            count += is_fixed_unramified(g1, g1.inverse().transpose())
    return count


def pfaffian(a: Matrix):
    """Pfaffian of an alternating matrix, by skew elimination.

    Alternating means a^T = -a with zero diagonal (the diagonal clause
    matters in characteristic 2).  pf(a)^2 = det(a).
    """
    _check_alternating(a)
    if a.nrows % 2 != 0:
        raise ShapeError("the pfaffian needs an even size")
    return _pf(a.field, a.rows)


def _pf(field, rows):
    """O(n^3) skew elimination, from pf(P^T A P) = det(P) pf(A).

    Step k moves a nonzero entry of row k to column k+1 by swapping an
    index pair in rows and columns (det P = -1), takes that entry as a
    factor, and clears rows k and k+1 beyond it by a congruence of
    determinant one.  What is left below is the Schur complement of the
    2x2 block [[0, a], [-a, 0]]: entry (i, j) gains (v_i u_j - u_i v_j)/a
    for the rows u and v of indices k and k+1.  A zero row k gives 0.
    The entries are plain ints with one ``% p`` per update over F_p, and
    Fractions under their own operators over QQ.
    """
    p = field.characteristic
    a = [list(row) for row in rows]
    n = len(a)
    result = field.one
    for k in range(0, n, 2):
        j = next((j for j in range(k + 1, n) if a[k][j]), None)
        if j is None:
            return field.zero
        if j != k + 1:
            a[j], a[k + 1] = a[k + 1], a[j]
            for row in a:
                row[j], row[k + 1] = row[k + 1], row[j]
            result = -result
        u, v = a[k], a[k + 1]
        pivot = u[k + 1]
        result *= pivot
        inv = pow(pivot, -1, p) if p else 1 / pivot
        for i in range(k + 2, n):
            ui, vi = u[i] * inv, v[i] * inv
            if p:
                ui, vi = ui % p, vi % p
            if not (ui or vi):
                continue
            row = a[i]
            for c in range(k + 2, n):
                x = row[c] + vi * u[c] - ui * v[c]
                row[c] = x % p if p else x
    return result % p if p else result


class TypeVector:
    """A +-1 vector of Pfaffian types, one per branch point, modulo a
    global sign; normalized so the first entry is +1."""

    __slots__ = ("taus",)

    def __init__(self, taus):
        taus = tuple(taus)
        if not taus or len(taus) % 2 != 0:
            raise ShapeError("type vectors have positive even length")
        if any(t not in (1, -1) for t in taus):
            raise ShapeError("type entries are +1 or -1")
        if taus[0] == -1:
            taus = tuple(-t for t in taus)
        object.__setattr__(self, "taus", taus)

    def __setattr__(self, name, value):
        raise AttributeError("TypeVector is immutable")

    def __eq__(self, other):
        return isinstance(other, TypeVector) and self.taus == other.taus

    def __hash__(self):
        return hash(self.taus)

    def __repr__(self):
        return f"TypeVector{self.taus}"


def type_vector(psis) -> TypeVector:
    """Pfaffian type of a family of alternating isomorphisms.

    Each matrix must have determinant one, so its Pfaffian is +-1; the
    resulting vector is read modulo a global sign flip.
    """
    taus = []
    for psi in psis:
        if psi.det() != 1:
            raise UsageError("type entries need determinant one")
        p = psi.field.characteristic
        value = pfaffian(psi)
        if value == 1:
            taus.append(1)
        elif value == (p - 1 if p else -1):
            taus.append(-1)
        else:
            raise UsageError("pfaffian is not a unit sign")
    return TypeVector(taus)
