"""Dual-number matrices, branch-fiber predicates, Pfaffian types.

The fixed-point predicates are gated behind an independent oracle that
conjugates by the actual involution in dual-number arithmetic (with
eps -> -eps, since the covering involution acts on the double point) and
compares against the closed-form conditions, over every matrix pair of
M_2(F_3)^2.  The fiber engine is checked against the exhaustive scan it
replaced, kept here as ``reference_fiber_structure_check``, and against
closed-form group orders; the Pfaffian against first-row expansion.
"""

import itertools
import random
from fractions import Fraction

import pytest

from twistmod.errors import (
    BoundExceededError,
    FieldError,
    InternalCheckError,
    ShapeError,
    SingularMatrixError,
    UsageError,
)
from twistmod.linalg import GF, QQ, Matrix
from twistmod.dualnum import (
    DualNumberMatrix,
    FiberReport,
    TypeVector,
    _closed,
    dn_det,
    dn_inverse,
    dn_mul,
    fiber_structure_check,
    is_fixed_alternating,
    is_fixed_plus,
    is_fixed_unramified,
    pfaffian,
    type_vector,
    unramified_fixed_count,
)

from oracles import add, is_element, mul, neg


def mat(field, rows):
    return Matrix(field, rows)


def dn(field, g_rows, h_rows):
    return DualNumberMatrix(mat(field, g_rows), mat(field, h_rows))


def all_matrices(field, r):
    for entries in itertools.product(range(field.p), repeat=r * r):
        yield Matrix(field, [entries[i * r : (i + 1) * r] for i in range(r)])


def standard_j(field):
    return mat(field, [[0, 1], [-1, 0]])


# -- arithmetic --------------------------------------------------------------


def test_dn_mul_worked_examples():
    h1 = mat(QQ, [[1, 2], [3, 4]])
    h2 = mat(QQ, [[0, 1], [1, 0]])
    i2 = Matrix.identity(QQ, 2)
    a = dn_mul(DualNumberMatrix(i2, h1), DualNumberMatrix(i2, h2))
    assert a == DualNumberMatrix(i2, h1 + h2)

    g = mat(QQ, [[1, 1], [0, 1]])
    b = DualNumberMatrix(g, h1)
    assert dn_mul(b, DualNumberMatrix.identity(QQ, 2)) == b
    assert dn_mul(
        DualNumberMatrix(g, Matrix.zeros(QQ, 2, 2)),
        DualNumberMatrix(g.inverse(), Matrix.zeros(QQ, 2, 2)),
    ) == DualNumberMatrix.identity(QQ, 2)

    with pytest.raises(ShapeError):
        dn_mul(b, DualNumberMatrix.identity(QQ, 3))


def test_dn_mul_is_associative_on_samples():
    rng = random.Random(3)
    f3 = GF(3)
    triples = []
    for _ in range(6):
        mats = [
            Matrix(f3, [[rng.randrange(3) for _ in range(2)] for _ in range(2)])
            for _ in range(6)
        ]
        triples.append(
            (
                DualNumberMatrix(mats[0], mats[1]),
                DualNumberMatrix(mats[2], mats[3]),
                DualNumberMatrix(mats[4], mats[5]),
            )
        )
    for a, b, c in triples:
        assert dn_mul(dn_mul(a, b), c) == dn_mul(a, dn_mul(b, c))


def test_dn_inverse():
    g = mat(QQ, [[2, 1], [1, 1]])
    h = mat(QQ, [[0, 5], [7, 0]])
    a = DualNumberMatrix(g, h)
    assert dn_mul(a, dn_inverse(a)) == DualNumberMatrix.identity(QQ, 2)
    assert dn_mul(dn_inverse(a), a) == DualNumberMatrix.identity(QQ, 2)
    with pytest.raises(SingularMatrixError):
        dn_inverse(dn(QQ, [[1, 1], [1, 1]], [[0, 0], [0, 0]]))


def test_dn_det_worked_examples():
    h = mat(QQ, [[4, 1], [2, 9]])
    assert dn_det(DualNumberMatrix(Matrix.identity(QQ, 2), h)) == (1, 13)
    g = mat(QQ, [[1, 2], [3, 4]])
    assert dn_det(DualNumberMatrix(g, Matrix.zeros(QQ, 2, 2))) == (-2, 0)
    # trace formula: 6 * (1/2 + 1/3) = 5
    assert dn_det(dn(QQ, [[2, 0], [0, 3]], [[1, 0], [0, 1]])) == (6, 5)


def test_dn_det_fallback_on_singular_part():
    # det(diag(1, eps)) = eps
    assert dn_det(dn(QQ, [[1, 0], [0, 0]], [[0, 0], [0, 1]])) == (0, 1)
    # the empty determinant is one, and its eps-part a Fraction zero
    empty = dn_det(DualNumberMatrix(Matrix(QQ, []), Matrix(QQ, [])))
    assert empty == (1, 0) and all(type(x) is Fraction for x in empty)
    # on invertible g the row-replacement expansion must agree with
    # Jacobi's formula d1 = det(g) tr(g^-1 h), computed here by hand
    rng = random.Random(5)
    field = QQ
    checked = 0
    for _ in range(10):
        g = Matrix(field, [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)])
        h = Matrix(field, [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)])
        d0 = g.det()
        if d0 == 0:
            continue
        ginv = g.inverse().rows
        jacobi = d0 * sum(ginv[i][k] * h.rows[k][i] for i in range(3) for k in range(3))
        assert dn_det(DualNumberMatrix(g, h)) == (d0, jacobi)
        checked += 1
    assert checked


def test_dn_det_is_multiplicative():
    rng = random.Random(8)
    f5 = GF(5)
    for _ in range(25):
        mats = [
            Matrix(f5, [[rng.randrange(5) for _ in range(2)] for _ in range(2)])
            for _ in range(4)
        ]
        a = DualNumberMatrix(mats[0], mats[1])
        b = DualNumberMatrix(mats[2], mats[3])
        a0, a1 = dn_det(a)
        b0, b1 = dn_det(b)
        expected = (a0 * b0 % 5, (a0 * b1 + a1 * b0) % 5)
        assert dn_det(dn_mul(a, b)) == expected


# -- branch-point fixed sets --------------------------------------------------


def test_is_fixed_plus_worked_examples():
    assert is_fixed_plus(dn(QQ, [[1, 0], [0, 1]], [[1, 0], [0, -1]]))
    assert is_fixed_plus(dn(QQ, [[0, -1], [1, 0]], [[0, 0], [0, 0]]))
    # in SL_2 but not orthogonal
    assert not is_fixed_plus(
        DualNumberMatrix(
            Matrix(QQ, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1, 2)]]),
            Matrix.zeros(QQ, 2, 2),
        )
    )
    # orthogonal reflection: determinant -1 is excluded
    assert not is_fixed_plus(dn(QQ, [[1, 0], [0, -1]], [[0, 0], [0, 0]]))
    # non-symmetric or traceful eps-parts fail
    assert not is_fixed_plus(dn(QQ, [[1, 0], [0, 1]], [[0, 1], [0, 0]]))
    assert not is_fixed_plus(dn(QQ, [[1, 0], [0, 1]], [[1, 0], [0, 1]]))


def conjugate_eps(a):
    return DualNumberMatrix(a.g, -a.h)


def dn_transpose(a):
    return DualNumberMatrix(a.g.transpose(), a.h.transpose())


def constant(m):
    return DualNumberMatrix(m, Matrix.zeros(m.field, m.nrows, m.nrows))


def branch_oracle(a, twist=None):
    """Literal fixed-point test: A = M^-1 t(A^sigma)^-1 M and det A = 1."""
    field = a.field
    theta = dn_inverse(dn_transpose(conjugate_eps(a)))
    if twist is not None:
        theta = dn_mul(dn_mul(constant(twist.inverse()), theta), constant(twist))
    return theta == a and dn_det(a) == (field.one, field.zero)


def test_fixed_plus_matches_involution_oracle_exhaustively():
    f3 = GF(3)
    mats = list(all_matrices(f3, 2))
    for g in mats:
        invertible = g.det() != 0
        for h in mats:
            a = DualNumberMatrix(g, h)
            if invertible:
                assert is_fixed_plus(a) == branch_oracle(a)
            else:
                assert not is_fixed_plus(a)


def test_fixed_alternating_matches_involution_oracle_exhaustively():
    f3 = GF(3)
    j = standard_j(f3)
    mats = list(all_matrices(f3, 2))
    for g in mats:
        invertible = g.det() != 0
        for h in mats:
            a = DualNumberMatrix(g, h)
            if invertible:
                assert is_fixed_alternating(j, a) == branch_oracle(a, twist=j)
            else:
                assert not is_fixed_alternating(j, a)


def test_is_fixed_alternating_worked_examples():
    f3 = GF(3)
    j = standard_j(f3)
    assert is_fixed_alternating(j, DualNumberMatrix.identity(f3, 2))
    # over F_3 the identity fiber of the kernel is trivial: M h = h^T M and
    # tr h = 0 force h = 0 at r = 2
    i2 = Matrix.identity(f3, 2)
    kernel = [h for h in all_matrices(f3, 2) if is_fixed_alternating(j, DualNumberMatrix(i2, h))]
    assert kernel == [Matrix.zeros(f3, 2, 2)]
    # a unipotent symplectic element
    assert is_fixed_alternating(j, dn(f3, [[1, 1], [0, 1]], [[0, 0], [0, 0]]))
    with pytest.raises(ShapeError):
        is_fixed_alternating(mat(f3, [[0, 1], [1, 0]]), DualNumberMatrix.identity(f3, 2))


def test_is_fixed_unramified():
    f2 = GF(2)
    g = mat(QQ, [[1, 1], [0, 1]])
    assert is_fixed_unramified(g, g.inverse().transpose())
    assert is_fixed_unramified(Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))
    assert not is_fixed_unramified(g, g)
    # determinant 2 with its transpose-inverse: outside SL_2
    d = mat(QQ, [[2, 0], [0, 1]])
    assert not is_fixed_unramified(d, d.inverse().transpose())
    with pytest.raises(SingularMatrixError):
        is_fixed_unramified(mat(QQ, [[1, 1], [1, 1]]), Matrix.identity(QQ, 2))
    # components of different sizes are never a fixed pair
    assert not is_fixed_unramified(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3))
    # the predicate picks out one pair per element of SL_2(F_2)
    invertible = [g for g in all_matrices(f2, 2) if g.det() != 0]
    count = sum(
        1
        for g1 in invertible
        for g2 in invertible
        if is_fixed_unramified(g1, g2)
    )
    assert count == 6


# -- fiber structure reports ---------------------------------------------------


def test_fiber_structure_plus_f3():
    report = fiber_structure_check(GF(3), 2, "plus")
    assert report.fixed_count == 36
    assert report.image_count == 4
    assert report.kernel_count == 9
    assert report.kernel_dim == 2 == 2 * 3 // 2 - 1
    assert report.ok


def test_fiber_structure_plus_f2():
    report = fiber_structure_check(GF(2), 2, "plus")
    assert report.fixed_count == 8
    assert report.image_count == 2
    assert report.kernel_count == 4
    assert report.ok


def test_fiber_structure_alternating_f3():
    f3 = GF(3)
    report = fiber_structure_check(f3, 2, "alternating", m=standard_j(f3))
    assert report.image_count == 24  # Sp_2 = SL_2
    assert report.kernel_count == 1
    assert report.kernel_dim == 0
    assert report.fixed_count == 24
    assert report.ok


def test_fiber_structure_alternating_f2():
    # char 2 enlarges the kernel: M h = h^T M loses its off-diagonal
    # constraints, leaving {h : h_00 = h_11}, and the trace condition is vacuous
    f2 = GF(2)
    report = fiber_structure_check(f2, 2, "alternating", m=standard_j(f2))
    assert report.image_count == 6
    assert report.kernel_count == 8
    assert report.fixed_count == 48
    assert report.ok


def test_a_wrong_alternating_kernel_dimension_fails_the_count(monkeypatch):
    # without its trace condition the alternating fiber over F_3 is still
    # a group, with consistent counts, but its kernel {h : m h skew} has
    # dim 1, not the r(r-1)/2 - 1 = 0 that q odd requires
    from twistmod import dualnum

    f3 = GF(3)
    solve = dualnum._solutions

    def without_the_trace(field, r, conditions):
        return solve(field, r, lambda h: conditions(h)[:-1])

    monkeypatch.setattr(dualnum, "_solutions", without_the_trace)
    # the engine rechecks through the predicate's body, with m inverted once
    monkeypatch.setattr(dualnum, "_fixed_alternating", lambda m, minv, a: True)
    report = fiber_structure_check(f3, 2, "alternating", m=standard_j(f3))
    assert report.kernel_dim == 1 and report.fixed_count == 24 * 3
    assert report.closure_ok and report.inverses_ok and report.projection_ok and report.kernel_ok
    assert not report.count_ok and not report.ok


@pytest.mark.parametrize("r, kernel_dim", [(0, 0), (2, 3)])
def test_the_alternating_kernel_over_f2_has_dimension_r_r_plus_1_over_2(r, kernel_dim, monkeypatch):
    # over F_2 the m h are symmetric, r(r+1)/2 dimensions, and m^-1 is
    # alternating, so tr(m^-1 S) = 0 for every symmetric S and the trace
    # condition cuts nothing
    from twistmod import dualnum

    f2 = GF(2)
    report = fiber_structure_check(f2, r, "alternating")
    assert report.kernel_dim == kernel_dim == r * (r + 1) // 2
    assert report.count_ok and report.ok
    # the expectation is checked: a wrong one fails the count and nothing else
    monkeypatch.setattr(dualnum, "_expected_kernel_dim", lambda case, r, p: kernel_dim + 1)
    wrong = fiber_structure_check(f2, r, "alternating")
    assert wrong._replace(count_ok=True) == report
    assert not wrong.count_ok and not wrong.ok


@pytest.mark.parametrize("case", ["plus", "alternating"])
def test_a_rank_zero_fiber_passes_its_checks(case):
    # at r = 0 the trace condition is empty, so the kernel has dim 0
    f3 = GF(3)
    m = Matrix(f3, []) if case == "alternating" else None
    report = fiber_structure_check(f3, 0, case, m=m)
    assert (report.fixed_count, report.kernel_dim) == (1, 0)
    assert report.ok


def test_fiber_structure_errors():
    f3 = GF(3)
    with pytest.raises(FieldError):
        fiber_structure_check(QQ, 2, "plus")
    with pytest.raises(ValueError):
        fiber_structure_check(f3, 2, "minus")
    # a twist belongs to the alternating case only
    with pytest.raises(UsageError, match="alternating case only"):
        fiber_structure_check(f3, 2, "plus", m=standard_j(f3))
    with pytest.raises(ShapeError):
        fiber_structure_check(f3, 2, "alternating", m=mat(f3, [[0, 1], [1, 0]]))
    with pytest.raises(BoundExceededError):
        fiber_structure_check(f3, 3, "plus")


class NoMatrix:
    # stands in for dualnum.Matrix where the gate must refuse before any build
    def __getattr__(self, name):
        raise AssertionError("a matrix was built before the gate refused")


def test_fiber_refuses_a_huge_rank_before_any_work(monkeypatch):
    # q^(2 r^2) at r = 100000 is never computed: the exponent alone is past
    # the bound, and no matrix is built, the standard twist included
    from twistmod import dualnum

    f3 = GF(3)
    j = standard_j(f3)
    monkeypatch.setattr(dualnum, "Matrix", NoMatrix())
    for run in (
        lambda: fiber_structure_check(f3, 100_000, "plus"),
        lambda: fiber_structure_check(f3, 100_000, "alternating"),
        lambda: fiber_structure_check(f3, 100_000, "alternating", m=j),
        lambda: unramified_fixed_count(f3, 100_000),
    ):
        with pytest.raises(BoundExceededError, match="exceeds 1000000 pairs"):
            run()


def test_fiber_refuses_a_negative_rank():
    with pytest.raises(UsageError, match="nonnegative"):
        fiber_structure_check(GF(3), -1, "plus")
    with pytest.raises(UsageError, match="nonnegative"):
        unramified_fixed_count(GF(3), -1)


# the fiber layer's one gate, as (field, r, case) -> the error it raises
# and a part of its message: the field, then the sign, then the parity,
# then the size, each named before anything r x r is built
GATE_ORDER = {
    "qq-negative-odd": (QQ, -1, "alternating", FieldError, "finite field"),
    "qq-odd": (QQ, 3, "alternating", FieldError, "finite field"),
    "qq-huge": (QQ, 100_000, "plus", FieldError, "finite field"),
    "qq-unramified": (QQ, -1, "unramified", FieldError, "finite field"),
    "negative-odd": (GF(3), -1, "alternating", UsageError, "nonnegative"),
    "negative-even": (GF(3), -2, "alternating", UsageError, "nonnegative"),
    "negative-unramified": (GF(2), -1, "unramified", UsageError, "nonnegative"),
    "odd-past-the-bound": (GF(3), 100_001, "alternating", ShapeError, "even rank"),
    "odd-f2": (GF(2), 3, "alternating", ShapeError, "even rank"),
    "odd-plus-past-the-bound": (GF(3), 3, "plus", BoundExceededError, "exceeds 1000000 pairs"),
    "odd-unramified-past-the-bound": (GF(5), 3, "unramified", BoundExceededError, "over F_5"),
}


@pytest.mark.parametrize("case", sorted(GATE_ORDER))
def test_the_fiber_gate_refuses_field_sign_parity_and_size_in_that_order(case, monkeypatch):
    from twistmod import dualnum

    field, r, kind, error, part = GATE_ORDER[case]
    monkeypatch.setattr(dualnum, "Matrix", NoMatrix())
    with pytest.raises(error, match=part) as caught:
        if kind == "unramified":
            unramified_fixed_count(field, r)
        else:
            fiber_structure_check(field, r, kind)
    assert "\n" not in str(caught.value)


def test_the_alternating_twist_defaults_to_the_standard_block():
    for q in (2, 3, 5):
        field = GF(q)
        assert fiber_structure_check(field, 2, "alternating") == fiber_structure_check(
            field, 2, "alternating", m=standard_j(field)
        )
    f3 = GF(3)
    assert fiber_structure_check(f3, 0, "alternating") == fiber_structure_check(
        f3, 0, "alternating", m=Matrix(f3, [])
    )


@pytest.mark.parametrize(
    "rows, error",
    [
        ([[0, 1], [1, 0]], ShapeError),  # symmetric, not alternating
        ([[0, 0], [0, 0]], SingularMatrixError),
        ([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], ShapeError),  # not 2 x 2
    ],
)
def test_one_twist_check_serves_the_fiber_and_the_predicate(rows, error):
    # the fiber engine and is_fixed_alternating refuse a bad twist alike
    f3 = GF(3)
    m = mat(f3, rows)
    with pytest.raises(error):
        fiber_structure_check(f3, 2, "alternating", m=m)
    with pytest.raises(error):
        is_fixed_alternating(m, DualNumberMatrix.identity(f3, 2))


def test_an_odd_alternating_rank_is_named_before_the_size_rule():
    # rank 3 over F_3 is also past the pair bound, but its parity is the fault
    for m in (None, standard_j(GF(3))):
        with pytest.raises(ShapeError, match="even rank"):
            fiber_structure_check(GF(3), 3, "alternating", m=m)


def test_twist_entries_are_checked_at_the_boundary():
    f3 = GF(3)
    # the constructor takes ints mod 3, so 5 and -5 are the alternating
    # 2 and 1, and the twist is checked like its canonical form
    loose = Matrix(f3, [[0, 5], [-5, 0]])
    canonical = Matrix(f3, [[0, 2], [1, 0]])
    assert loose == canonical
    assert fiber_structure_check(f3, 2, "alternating", m=loose) == fiber_structure_check(
        f3, 2, "alternating", m=canonical
    )
    assert is_fixed_alternating(loose, DualNumberMatrix.identity(f3, 2))
    # a rational is no F_3 entry: a field error at the boundary
    with pytest.raises(FieldError):
        Matrix(f3, [[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    with pytest.raises(FieldError):
        fiber_structure_check(f3, 2, "alternating", m=standard_j(QQ))
    with pytest.raises(ShapeError):
        fiber_structure_check(f3, 2, "alternating", m=Matrix(f3, [
            [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0],
        ]))


# -- the exhaustive references the fiber engine replaced --------------------------


def reference_fiber_structure_check(field, r, case, m=None):
    """Scan all q^(r^2) matrices for the image and the kernel, and every
    image element against all q^(r^2) candidates h; closure over all
    |fixed|^2 products."""
    q = field.p
    identity = Matrix.identity(field, r)
    if case == "plus":
        def in_image(g):
            return g.transpose() @ g == identity and g.det() == field.one

        def in_kernel(h):
            return h == h.transpose() and h.trace() == field.zero

        def fixed(g, h):
            return is_fixed_plus(DualNumberMatrix(g, h))

        expected_kernel_dim = r * (r + 1) // 2 - 1
    else:
        def in_image(g):
            return g.transpose() @ m @ g == m and g.det() == field.one

        def in_kernel(h):
            return m @ h == h.transpose() @ m and h.trace() == field.zero

        def fixed(g, h):
            return is_fixed_alternating(m, DualNumberMatrix(g, h))

        expected_kernel_dim = r * (r - 1) // 2 - 1 if q % 2 else None

    everything = list(all_matrices(field, r))
    image = [g for g in everything if in_image(g)]
    kernel_space = [h for h in everything if in_kernel(h)]
    fixed_set = [DualNumberMatrix(g, h) for g in image for h in everything if fixed(g, h)]
    keys = {(a.g.rows, a.h.rows) for a in fixed_set}
    closure_ok = all(
        (p.g.rows, p.h.rows) in keys
        for a in fixed_set
        for p in (dn_mul(a, b) for b in fixed_set)
    )
    inverses_ok = all(
        (inv.g.rows, inv.h.rows) in keys for inv in (dn_inverse(a) for a in fixed_set)
    )
    projection_ok = {a.g.rows for a in fixed_set} == {g.rows for g in image}
    kernel_found = [a.h for a in fixed_set if a.g == identity]
    kernel_ok = {h.rows for h in kernel_found} == {h.rows for h in kernel_space}
    if kernel_ok:
        kernel_ok = all(
            (identity.rows, (h1 + h2).rows) in keys
            for h1 in kernel_found
            for h2 in kernel_found
        )
    kernel_dim = 0
    while q**kernel_dim < len(kernel_found):
        kernel_dim += 1
    count_ok = (
        q**kernel_dim == len(kernel_found)
        and len(fixed_set) == len(image) * q**kernel_dim
    )
    if expected_kernel_dim is not None:
        count_ok = count_ok and kernel_dim == expected_kernel_dim
    return FiberReport(
        case, r, q, len(fixed_set), len(image), len(kernel_found), kernel_dim,
        closure_ok, inverses_ok, projection_ok, kernel_ok, count_ok,
    )


def reference_unramified_fixed_count(field, r):
    """The predicate over all |GL_r|^2 invertible pairs."""
    invertible = [g for g in all_matrices(field, r) if g.det() != field.zero]
    return sum(
        1 for g1 in invertible for g2 in invertible if is_fixed_unramified(g1, g2)
    )


def random_twist(field, seed):
    """A seeded random invertible alternating 2x2 matrix: c J for a
    random unit c, which at size 2 is every such matrix."""
    c = random.Random(seed).randrange(1, field.p)
    return Matrix(field, [[0, c], [-c, 0]])


FIBER_CASES = {
    "plus-f2": (2, "plus", None),
    "plus-f3": (3, "plus", None),
    "alternating-f2": (2, "alternating", "j"),
    "alternating-f3": (3, "alternating", "j"),
    "alternating-f3-minus-j": (3, "alternating", "-j"),
    "alternating-f3-random-1": (3, "alternating", 1),
    "alternating-f3-random-2": (3, "alternating", 2),
}


@pytest.mark.parametrize("case", sorted(FIBER_CASES))
def test_fiber_engine_matches_the_exhaustive_reference(case):
    p, kind, twist = FIBER_CASES[case]
    field = GF(p)
    m = None
    if twist == "j":
        m = standard_j(field)
    elif twist == "-j":
        m = -standard_j(field)
    elif twist is not None:
        m = random_twist(field, twist)
    report = fiber_structure_check(field, 2, kind, m=m)
    assert report == reference_fiber_structure_check(field, 2, kind, m)
    assert report.ok


# every report of the plus fiber at r <= 3 over F_2 and r <= 2 over F_3, F_5
# and F_7, and of the alternating fiber at r = 0 and 2 twisted by J and -J,
# keyed (case, q, r, twist); the values are the FiberReport fields after the
# case, as the plain-int engine that the Matrix engine replaced reported them
PINNED_REPORTS = {
    ("plus", 2, 0, None): (0, 2, 1, 1, 1, 0, True, True, True, True, True),
    ("plus", 2, 1, None): (1, 2, 1, 1, 1, 0, True, True, True, True, True),
    ("plus", 2, 2, None): (2, 2, 8, 2, 4, 2, True, True, True, True, True),
    ("plus", 2, 3, None): (3, 2, 192, 6, 32, 5, True, True, True, True, True),
    ("plus", 3, 0, None): (0, 3, 1, 1, 1, 0, True, True, True, True, True),
    ("plus", 3, 1, None): (1, 3, 1, 1, 1, 0, True, True, True, True, True),
    ("plus", 3, 2, None): (2, 3, 36, 4, 9, 2, True, True, True, True, True),
    ("plus", 5, 0, None): (0, 5, 1, 1, 1, 0, True, True, True, True, True),
    ("plus", 5, 1, None): (1, 5, 1, 1, 1, 0, True, True, True, True, True),
    ("plus", 5, 2, None): (2, 5, 100, 4, 25, 2, True, True, True, True, True),
    ("plus", 7, 0, None): (0, 7, 1, 1, 1, 0, True, True, True, True, True),
    ("plus", 7, 1, None): (1, 7, 1, 1, 1, 0, True, True, True, True, True),
    ("plus", 7, 2, None): (2, 7, 392, 8, 49, 2, True, True, True, True, True),
    ("alternating", 2, 0, "j"): (0, 2, 1, 1, 1, 0, True, True, True, True, True),
    ("alternating", 2, 0, "-j"): (0, 2, 1, 1, 1, 0, True, True, True, True, True),
    ("alternating", 2, 2, "j"): (2, 2, 48, 6, 8, 3, True, True, True, True, True),
    ("alternating", 2, 2, "-j"): (2, 2, 48, 6, 8, 3, True, True, True, True, True),
    ("alternating", 3, 0, "j"): (0, 3, 1, 1, 1, 0, True, True, True, True, True),
    ("alternating", 3, 0, "-j"): (0, 3, 1, 1, 1, 0, True, True, True, True, True),
    ("alternating", 3, 2, "j"): (2, 3, 24, 24, 1, 0, True, True, True, True, True),
    ("alternating", 3, 2, "-j"): (2, 3, 24, 24, 1, 0, True, True, True, True, True),
    ("alternating", 5, 0, "j"): (0, 5, 1, 1, 1, 0, True, True, True, True, True),
    ("alternating", 5, 0, "-j"): (0, 5, 1, 1, 1, 0, True, True, True, True, True),
    ("alternating", 5, 2, "j"): (2, 5, 120, 120, 1, 0, True, True, True, True, True),
    ("alternating", 5, 2, "-j"): (2, 5, 120, 120, 1, 0, True, True, True, True, True),
    ("alternating", 7, 0, "j"): (0, 7, 1, 1, 1, 0, True, True, True, True, True),
    ("alternating", 7, 0, "-j"): (0, 7, 1, 1, 1, 0, True, True, True, True, True),
    ("alternating", 7, 2, "j"): (2, 7, 336, 336, 1, 0, True, True, True, True, True),
    ("alternating", 7, 2, "-j"): (2, 7, 336, 336, 1, 0, True, True, True, True, True),
}


def report_id(key):
    case, q, r, twist = key
    return f"{case}-f{q}-r{r}" + (f"-{twist}" if twist else "")


@pytest.mark.parametrize("key", sorted(PINNED_REPORTS, key=repr), ids=report_id)
def test_fiber_reports_are_pinned(key, monkeypatch):
    from twistmod import dualnum

    case, q, r, twist = key
    field = GF(q)
    m = None
    if twist is not None:
        m = standard_j(field) if r else Matrix(field, [])
        m = -m if twist == "-j" else m
    monkeypatch.setattr(dualnum, "_MAX_PAIRS", q ** (2 * r * r))
    report = fiber_structure_check(field, r, case, m=m)
    assert report == FiberReport(case, *PINNED_REPORTS[key])


@pytest.mark.parametrize("p", [2, 3])
def test_unramified_count_matches_the_exhaustive_reference(p):
    field = GF(p)
    assert unramified_fixed_count(field, 2) == reference_unramified_fixed_count(field, 2)


def test_unramified_count_takes_one_inverse_per_invertible_matrix(monkeypatch):
    inverse = Matrix.inverse
    calls = []

    def counted(self):
        calls.append(1)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counted)
    # |GL_2(F_3)| = 48 matrices, |SL_2(F_3)| = 24 fixed pairs
    assert unramified_fixed_count(GF(3), 2) == 24
    assert len(calls) == 48


def test_alternating_fiber_inverts_its_twist_once(monkeypatch):
    inverse = Matrix.inverse
    inverted = []

    def counted(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counted)
    f3 = GF(3)
    j = standard_j(f3)
    report = fiber_structure_check(f3, 2, "alternating", m=j)
    assert report.fixed_count == 24 and report.ok
    # m^-1 once per fiber; per pair, one g^-1 in the recheck's trace
    # condition and one in the inverses check.  J lies in Sp_2(F_3), so
    # as a pair's g it is inverted twice more.
    assert len(inverted) == 1 + 2 * report.fixed_count
    assert sum(m == j for m in inverted) == 3


def test_fiber_over_f5_matches_closed_forms(monkeypatch):
    from twistmod import dualnum

    # the plus fiber also over F_3, F_7 and F_11; F_7 and F_11 have more
    # pairs (g, h) than the default bound, and than the exhaustive
    # reference can scan
    for q in (5, 3, 7, 11):
        monkeypatch.setattr(dualnum, "_MAX_PAIRS", q**8)
        plus = fiber_structure_check(GF(q), 2, "plus")
        # |SO_2(F_q)| = q - 1 when -1 is a square mod q, q + 1 otherwise
        so2 = q - 1 if q % 4 == 1 else q + 1
        assert plus.image_count == so2
        assert plus.kernel_dim == 2 and plus.kernel_count == q**2
        assert plus.fixed_count == so2 * q**2
        assert plus.ok
    f5 = GF(5)
    alt = fiber_structure_check(f5, 2, "alternating", m=standard_j(f5))
    # |Sp_2(F_q)| = |SL_2(F_q)| = q (q^2 - 1)
    assert alt.image_count == 5 * 24 == 120
    assert alt.kernel_dim == 0 and alt.fixed_count == 120
    assert alt.ok
    assert unramified_fixed_count(f5, 2) == 120


def fixed_pairs(field, r, case, m=None):
    """The fixed set as dual-number matrices, by exhaustive scan."""
    test = is_fixed_plus if case == "plus" else (lambda a: is_fixed_alternating(m, a))
    mats = list(all_matrices(field, r))
    pairs = (DualNumberMatrix(g, h) for g in mats if g.det() != 0 for h in mats)
    return [a for a in pairs if test(a)]


def test_a_solved_pair_that_fails_the_predicate_is_an_internal_error(monkeypatch):
    from twistmod import dualnum

    solve = dualnum._solutions

    def with_a_stray(field, r, conditions):
        # the identity as an eps-part has trace r, so no pair (g, I) is fixed
        return solve(field, r, conditions) + [Matrix.identity(field, r)]

    monkeypatch.setattr(dualnum, "_solutions", with_a_stray)
    for case, m in (("plus", None), ("alternating", standard_j(GF(3)))):
        with pytest.raises(InternalCheckError):
            fiber_structure_check(GF(3), 2, case, m=m)


def test_closure_on_generators_catches_a_missing_or_foreign_element():
    f3 = GF(3)
    for keys in (fixed_pairs(f3, 2, "plus"), fixed_pairs(f3, 2, "alternating", standard_j(f3))):
        assert _closed(keys, dn_mul)
        for k in range(len(keys)):
            assert not _closed(keys[:k] + keys[k + 1 :], dn_mul)
        identity, zero = [[1, 0], [0, 1]], [[0, 0], [0, 0]]
        foreign = [
            dn(f3, identity, identity),  # a traceful eps-part over the identity
            dn(f3, [[1, 0], [0, 2]], zero),  # determinant 2
            dn(f3, [[1, 1], [0, 1]], zero),  # symplectic, not orthogonal
        ]
        foreign = [x for x in foreign if x not in keys]
        assert len(foreign) >= 2
        for x in foreign:
            assert not _closed(keys + [x], dn_mul)


def test_closure_on_generators_agrees_with_all_pairs_on_subsets():
    # every subset of the 8-element plus fiber over F_2, and 200 seeded
    # random subsets of the 24-element alternating fiber over F_3: the
    # generator walk and the |S|^2 check answer alike
    group = fixed_pairs(GF(2), 2, "plus")
    assert len(group) == 8
    closed = 0
    for mask in range(1 << len(group)):
        subset = [x for i, x in enumerate(group) if mask >> i & 1]
        members = set(subset)
        full = all(dn_mul(a, b) in members for a in subset for b in subset)
        assert _closed(subset, dn_mul) == full
        closed += full
    assert closed > 2  # the empty set, the identity, the whole group and more
    rng = random.Random(59)
    group3 = fixed_pairs(GF(3), 2, "alternating", standard_j(GF(3)))
    for _ in range(200):
        subset = rng.sample(group3, rng.randrange(1, len(group3)))
        members = set(subset)
        full = all(dn_mul(a, b) in members for a in subset for b in subset)
        assert _closed(subset, dn_mul) == full


# -- pfaffians and types --------------------------------------------------------


def test_pfaffian_worked_examples():
    assert pfaffian(standard_j(QQ)) == 1
    assert pfaffian(mat(QQ, [[0, 5], [-5, 0]])) == 5
    block = mat(
        QQ,
        [
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, 1, 0],
        ],
    )
    assert pfaffian(block) == -1
    assert block.det() == 1


def test_pfaffian_preconditions():
    with pytest.raises(ShapeError):
        pfaffian(mat(QQ, [[0, 1], [1, 0]]))
    with pytest.raises(ShapeError):
        pfaffian(Matrix.zeros(QQ, 3, 3))
    # char 2: skew-symmetry alone is not enough, the diagonal must vanish
    with pytest.raises(ShapeError):
        pfaffian(mat(GF(2), [[1, 1], [1, 1]]))
    assert pfaffian(mat(GF(2), [[0, 1], [1, 0]])) == 1


def random_alternating(rng, n):
    raw = Matrix(QQ, [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
    return raw - raw.transpose()


def test_pfaffian_squares_to_determinant():
    rng = random.Random(17)
    for n in (2, 4, 6):
        for _ in range(6):
            a = random_alternating(rng, n)
            value = pfaffian(a)
            assert value * value == a.det()


def test_pfaffian_transforms_by_determinant():
    rng = random.Random(23)
    for _ in range(8):
        a = random_alternating(rng, 4)
        p = Matrix(QQ, [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)])
        assert pfaffian(p.transpose() @ a @ p) == p.det() * pfaffian(a)


def reference_pfaffian(a):
    """First-row expansion, n!! terms: the oracle for elimination."""
    field = a.field

    def pf(rows):
        n = len(rows)
        if n == 0:
            return field.one
        total = field.zero
        for j in range(1, n):
            if rows[0][j] == field.zero:
                continue
            keep = [i for i in range(n) if i not in (0, j)]
            term = mul(field, rows[0][j], pf([[rows[x][y] for y in keep] for x in keep]))
            total = add(field, total, neg(field, term) if j % 2 == 0 else term)
        return total

    return pf(a.rows)


def random_skew(rng, field, n):
    """A random alternating n x n matrix over ``field``; every third one is
    X B X^T with X of width n - 2, so it has rank below n and pf 0."""
    def entry():
        if field.kind == "fp":
            return rng.randrange(field.p)
        return Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))

    def skew(k):
        rows = [[field.zero] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                rows[i][j] = entry()
                rows[j][i] = -rows[i][j]
        return Matrix(field, rows)

    if n >= 2 and rng.randrange(3) == 0:
        x = Matrix(field, [[entry() for _ in range(n - 2)] for _ in range(n)])
        return x @ skew(n - 2) @ x.transpose() if n > 2 else Matrix.zeros(field, 2, 2)
    return skew(n)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=repr)
def test_pfaffian_elimination_matches_first_row_expansion(field):
    rng = random.Random(f"pf/{field!r}")
    singular = 0
    for n in (0, 2, 4, 6, 8, 10):
        for _ in range(5 if n < 10 else 2):
            a = random_skew(rng, field, n)
            value = pfaffian(a)
            assert value == reference_pfaffian(a)
            assert is_element(field, value)
            singular += value == field.zero
    assert singular >= 3


def test_pfaffian_of_a_40_by_40_rational_matrix_squares_to_its_determinant():
    rng = random.Random(40)
    a = random_skew(rng, QQ, 40)
    while a.det() == 0:
        a = random_skew(rng, QQ, 40)
    value = pfaffian(a)
    assert value != 0 and value * value == a.det()


def test_pfaffians_types_and_dual_determinants_call_no_field_method():
    # plain ints with one % p per entry over F_p, Fraction operators over QQ:
    # the field classes carry no arithmetic to call
    for field_type in (type(QQ), type(GF(2))):
        for name in ("add", "sub", "mul", "neg", "inv", "elements"):
            assert not hasattr(field_type, name)
    rng = random.Random(5)
    skews = [random_skew(rng, field, 6) for field in (QQ, GF(2), GF(5)) for _ in range(3)]
    pfaffians = [reference_pfaffian(a) for a in skews]
    duals = [
        dn(QQ, [[1, 0], [0, 0]], [[0, 0], [0, 1]]),
        dn(QQ, [[2, 0], [0, 3]], [[1, 0], [0, 1]]),
        dn(GF(5), [[2, 1], [1, 1]], [[1, 2], [3, 4]]),
        dn(GF(5), [[1, 2], [2, 4]], [[1, 0], [0, 1]]),
    ]
    types = [[standard_j(f), -standard_j(f)] for f in (QQ, GF(5))]
    assert [pfaffian(a) for a in skews] == pfaffians
    assert [dn_det(a) for a in duals] == [(0, 1), (6, 5), (1, 4), (0, 0)]
    assert [type_vector(psis) for psis in types] == [TypeVector((1, -1))] * 2


def test_pfaffian_entries_are_checked_at_the_boundary():
    # the Matrix constructor is the boundary: a float is refused there,
    # before any arithmetic
    with pytest.raises(FieldError):
        pfaffian(Matrix(QQ, [[0, 0.5], [-0.5, 0]]))
    with pytest.raises(FieldError):
        type_vector([Matrix(QQ, [[0, 1.0], [-1.0, 0]])])
    # and so is a rational over F_3
    with pytest.raises(FieldError):
        pfaffian(Matrix(GF(3), [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]))
    # plain ints are taken through from_int: Fractions over QQ, and
    # residues mod 3, where 5 and -5 are the alternating 2 and 1
    value = pfaffian(Matrix(QQ, [[0, 1], [-1, 0]]))
    assert value == 1 and isinstance(value, Fraction)
    loose = Matrix(GF(3), [[0, 5], [-5, 0]])
    assert loose == Matrix(GF(3), [[0, 2], [1, 0]])
    assert pfaffian(loose) == 2
    assert type_vector([loose, loose]) == TypeVector((1, 1))
    assert pfaffian(Matrix(GF(3), [[0, 2], [1, 0]])) == 2


def test_type_vectors():
    j = standard_j(QQ)
    assert type_vector([j, j]) == TypeVector((1, 1))
    assert type_vector([j, -j]) == TypeVector((1, -1))
    assert TypeVector((-1, 1)) == TypeVector((1, -1))
    assert TypeVector((-1, -1)) == TypeVector((1, 1))

    patterns = {
        type_vector([j if s1 == 1 else -j, j if s2 == 1 else -j])
        for s1 in (1, -1)
        for s2 in (1, -1)
    }
    assert len(patterns) == 2  # 2^(2n-1) components at 2n = 2

    four = {
        TypeVector(signs)
        for signs in itertools.product((1, -1), repeat=4)
    }
    assert len(four) == 2 ** 3

    with pytest.raises(UsageError):
        type_vector([mat(QQ, [[0, 2], [-2, 0]])])
    with pytest.raises(ShapeError):
        TypeVector((1, -1, 1))
    with pytest.raises(ShapeError):
        TypeVector(())
    with pytest.raises(ShapeError):
        TypeVector((1, 0))
