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
spaces.  Before anything r x r is built, one gate, ``_check_fiber``,
refuses the field, a rank that is no nonnegative int, the parity and
the size, in that order.  ``_twist`` is then the one source of the form
M, and checks a given alternating M once.  Every pair found is rechecked
with the twisted predicate at M, written independently of the solver;
``is_fixed_plus`` is that predicate at M = I.  Group closure is checked
through ``dn_mul`` on a generating set rather than on all pairs.
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
from .linalg import Matrix, _det, _null_space, isometries, rank_mod_p


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
    g replaced by the matching row of h, each over den(g)^(n-1) den(h).
    """
    field, g, h, n = a.field, a.g.num, a.h.num, a.size
    p = field.characteristic
    d1 = sum(_det(g[:i] + (h[i],) + g[i + 1 :], p) for i in range(n))
    return (a.g.det(), field._value(d1, a.g.den ** max(n - 1, 0) * a.h.den))


def is_fixed_plus(a: DualNumberMatrix) -> bool:
    """Fixed under plain transpose-inversion at a branch point: the
    twisted condition of ``is_fixed_alternating`` at M = I."""
    return _fixed_alternating(*_twist(a.field, a.size, "plus"), a)


def is_fixed_unramified(g1: Matrix, g2: Matrix) -> bool:
    """Away from the branch locus: the two points swap, so (g1, g2) is
    fixed exactly when g2 is the transpose-inverse of g1 (inside SL_r)."""
    field = g1.field
    d1, d2 = g1.det(), g2.det()
    if d1 == 0 or d2 == 0:
        raise SingularMatrixError("unramified fibers live in the invertible locus")
    if d1 != 1 or d2 != 1:
        return False
    if g1.field != g2.field or g1.shape != g2.shape:
        return False
    # g2 = g1^-T exactly when g1^T g2 = I, which takes no inverse
    return g1.transpose() @ g2 == Matrix.identity(field, g1.nrows)


def _check_alternating(m: Matrix):
    if m.nrows != m.ncols:
        raise ShapeError("alternating matrices are square")
    if m.transpose() != -m or any(m.num[i][i] for i in range(m.nrows)):
        raise ShapeError("matrix is not alternating")


def is_fixed_alternating(m: Matrix, a: DualNumberMatrix) -> bool:
    """Fixed under transpose-inversion twisted by the alternating m."""
    return _fixed_alternating(*_twist(a.field, a.size, "alternating", m), a)


def _fixed_alternating(m: Matrix, minv: Matrix, a: DualNumberMatrix) -> bool:
    # the fixed-point conditions for a checked twist m with its inverse minv
    if a.g.transpose() @ m @ a.g != m:
        return False
    if a.g.det() != 1:
        return False
    if a.h != a.g @ minv @ a.h.transpose() @ m @ a.g:
        return False
    return (a.g.inverse() @ a.h).trace() == 0


def _even_rank(r: int, case: str):
    if case == "alternating" and r % 2:
        raise ShapeError("the alternating case needs an even rank")


def _twist(field, r: int, case: str, m: Matrix | None = None):
    """(M, M^-1) for the form M that twists transpose-inversion at rank r,
    with what the predicates need: the plus case takes M = I and refuses a
    given m; the alternating case needs an even rank and takes m, or the
    standard twist [[0, 1], [-1, 0]] down the diagonal, checked here once
    (the engine passes ``_check_fiber`` first): alternating, over the field, r x r, invertible."""
    if case == "plus":
        if m is not None:
            raise UsageError("a twist is for the alternating case only")
        identity = Matrix.identity(field, r)
        return identity, identity
    _even_rank(r, case)
    if m is None:
        grid = [[0] * r for _ in range(r)]
        for i in range(0, r, 2):
            grid[i][i + 1], grid[i + 1][i] = 1, -1
        m = Matrix(field, grid)
    _check_alternating(m)
    if m.field != field:
        raise FieldError("twist matrix lives over another field")
    if m.shape != (r, r):
        raise ShapeError("twist matrix size mismatch")
    if m.det() == 0:
        raise SingularMatrixError("twist matrix must be invertible")
    return m, m.inverse()


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
    basis, _, _, _ = _null_space(field, list(zip(*columns)), n)
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


# the fiber engine refuses a size with more pairs (g, h) than this
_MAX_PAIRS = 1_000_000


def _check_fiber(field, r: int, case: str) -> int:
    # the field order q, past the gate; the bound counts the q^(2 r^2) pairs (g, h), not the work
    if field.kind != "fp":
        raise FieldError("fiber enumeration needs a finite field")
    if not isinstance(r, int) or isinstance(r, bool):
        raise UsageError("the rank must be an int")
    if r < 0:
        raise UsageError("the rank must be nonnegative")
    _even_rank(r, case)
    q = field.p
    n = 2 * r * r
    # q >= 2, so past the bound's bit length q^n exceeds it without being computed
    if n > _MAX_PAIRS.bit_length() or q**n > _MAX_PAIRS:
        raise BoundExceededError(
            f"fiber enumeration over F_{q} at size {r} exceeds {_MAX_PAIRS} pairs"
        )
    return q


def _expected_kernel_dim(case: str, r: int, p: int) -> int:
    """dim {h : M h = h^T M, tr h = 0}: traceless symmetric h at M = I; for M
    alternating M h is skew, r(r-1)/2 dimensions less one for the trace at q
    odd, but r(r+1)/2 in characteristic 2, where skew is symmetric and, M^-1
    being alternating, tr(M^-1 S) = 0 for all symmetric S.  At r = 0 the
    trace condition is empty and cuts nothing."""
    if case == "alternating" and p == 2:
        return r * (r + 1) // 2
    return max(r * (r + (1 if case == "plus" else -1)) // 2 - 1, 0)


def fiber_structure_check(field, r: int, case: str, m: Matrix | None = None) -> FiberReport:
    """Find a branch-point fiber over F_q and verify its structure.

    Both cases are transpose-inversion twisted by one form M, from
    ``_twist``: M = I in the plus case, which refuses a given m, and in
    the alternating case m, by default the standard twist.  The image,
    SO_r or the symplectic group of M, keeps the determinant-one yields
    of ``linalg.isometries`` for B1 = B2 = M, with no budget.  For each
    image element g the linear conditions on h are solved once, and every
    pair found is rechecked with the twisted predicate, written apart
    from the solver.  The report checks that the fixed set is a group
    under dual-number multiplication (closure on generators, and
    inverses), that it projects onto the image, that the kernel over the
    identity is the expected additive space of matrices (solved from its
    own description), and that the counts match |image| * q^(dim kernel).
    ``_check_fiber`` runs first, so a field, rank or size it refuses is
    refused before anything r x r is built.
    """
    if case not in ("plus", "alternating"):
        raise ValueError(f"unknown fiber case {case!r}")
    p = _check_fiber(field, r, case)
    form, minv = _twist(field, r, case, m)
    identity = Matrix.identity(field, r)

    def fixed_at(g):
        left, right = g @ minv, form @ g
        # g^-1 = m^-1 g^T m inside the isometry group of m
        ginv = minv @ g.transpose() @ form

        def conditions(h):
            twisted = left @ h.transpose() @ right
            return [*itertools.chain(*(h - twisted).num), (ginv @ h).trace()]

        return conditions

    def kernel_conditions(h):
        return [*itertools.chain(*(form @ h - h.transpose() @ form).num), h.trace()]

    bases = isometries([form.num], [form.num], range(p), p)
    group = (Matrix._from_rows(field, tuple(zip(*cols)), r) for cols in bases)
    image = [g for g in group if g.det() == 1]
    kernel_space = _solutions(field, r, kernel_conditions)
    fixed_set = [DualNumberMatrix(g, h) for g in image for h in _solutions(field, r, fixed_at(g))]
    if not all(_fixed_alternating(form, minv, a) for a in fixed_set):
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
        and kernel_dim == _expected_kernel_dim(case, r, p)
    )

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


def unramified_fixed_count(field, r: int) -> int:
    """Count fixed pairs away from the branch locus.

    The answer is |SL_r(F_q)|.  A pair (g1, g2) can be fixed only when
    g2 = t(g1)^-1, so the predicate is applied to that one partner of
    each invertible g1, which keeps the count an oracle for the fact.
    It refuses the same sizes as ``fiber_structure_check``.
    """
    q = _check_fiber(field, r, "unramified")
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
    matters in characteristic 2).  pf(a)^2 = det(a).  Over QQ it is the
    pfaffian of the int rows over the denominator to the n / 2.
    """
    return a.field._value(*_pfaffian(a))


def _pfaffian(a: Matrix):
    """(n, d), d > 0, with pfaffian(a) = n / d, built without a
    Fraction: the int pfaffian of the rows and the denominator to the
    size / 2."""
    _check_alternating(a)
    if a.nrows % 2 != 0:
        raise ShapeError("the pfaffian needs an even size")
    return _pf(a.field, a.num), a.den ** (a.nrows // 2)


def _pf(field, rows) -> int:
    """O(n^3) skew elimination of int rows, from pf(P^T A P) = det(P) pf(A).

    Step k moves a nonzero entry of row k to column k+1 by swapping an
    index pair in rows and columns (det P = -1), and clears rows k and
    k+1 beyond it by a congruence.  What is left below is a times the
    Schur complement of the 2x2 block [[0, a], [-a, 0]], a that entry:
    entry (i, j) becomes a x_ij + v_i u_j - u_i v_j for the rows u and v
    of indices k and k+1, divided by the previous pivot as in Bareiss
    elimination, exactly, since it is then the pfaffian of the leading
    indices with i and j (Knuth, Electron. J. Combin. 3(2), 1996).  The
    last pivot is the pfaffian, and a zero row k gives 0.  Over F_p each
    update takes one inverse-multiply and one ``% p``.
    """
    p = field.characteristic
    a = [list(row) for row in rows]
    n = len(a)
    sign = previous = 1
    for k in range(0, n, 2):
        j = next((j for j in range(k + 1, n) if a[k][j]), None)
        if j is None:
            return 0
        if j != k + 1:
            a[j], a[k + 1] = a[k + 1], a[j]
            for row in a:
                row[j], row[k + 1] = row[k + 1], row[j]
            sign = -sign
        u, v = a[k], a[k + 1]
        pivot = u[k + 1]
        inv = pow(previous, -1, p) if p else None
        for i in range(k + 2, n):
            row, ui, vi = a[i], u[i], v[i]
            for c in range(k + 2, n):
                x = pivot * row[c] + vi * u[c] - ui * v[c]
                row[c] = x * inv % p if p else x // previous
        previous = pivot
    return sign * previous % p if p else sign * previous


class TypeVector:
    """A +-1 vector of Pfaffian types, one per branch point, modulo a
    global sign; normalized so the first entry is +1."""

    __slots__ = ("taus",)

    def __init__(self, taus):
        taus = tuple(taus)
        if not taus or len(taus) % 2 != 0:
            raise ShapeError("type vectors have positive even length")
        # the ints 1 and -1 alone: True and 1.0 compare equal to 1
        if any(type(t) is not int or t not in (1, -1) for t in taus):
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
