"""Tests for exact matrices and canonical subspaces.

Counting oracles here are independent of the library: subspace counts are
checked against the Gaussian binomial product formula computed from
scratch, and rank/kernel facts against hand-worked examples.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from twistmod.errors import (
    FieldError,
    ParseError,
    ShapeError,
    SingularMatrixError,
)
from twistmod.linalg import (
    GF,
    QQ,
    Matrix,
    Subspace,
    complement_in,
    field_from_name,
    field_name,
    isometries,
    rank_mod_p,
    _MR_BOUND,
    _is_prime,
)
from twistmod.hilbert import OneParamSubgroup
from twistmod.sigmamod import InvolutionSpace, SigmaModule, symmetrize
from twistmod.stability import _isotropic_scanner

from oracles import (
    add,
    all_subspaces,
    enumerate_subspaces,
    gaussian_multinomial,
    generic_rref,
    inv,
    mul,
    neg,
    orthogonal_group_order,
    symplectic_group_order,
    vectors_of,
)


def random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_matrix(rng, field, nrows, ncols):
    if field.kind == "fp":
        return Matrix(
            field, [[rng.randrange(field.p) for _ in range(ncols)] for _ in range(nrows)]
        )
    return Matrix(field, [[random_rational(rng) for _ in range(ncols)] for _ in range(nrows)])


# -- fields ---------------------------------------------------------------


def test_field_tags_round_trip():
    assert field_name(QQ) == "rational"
    assert field_name(GF(7)) == "fp:7"
    assert field_from_name("rational") == QQ
    assert field_from_name("fp:5") == GF(5)
    with pytest.raises(ParseError):
        field_from_name("fp:6")
    with pytest.raises(ParseError):
        field_from_name("real")
    # only the canonical ASCII numeral names a field, so tags round-trip
    for tag in ("fp:3_1", "fp: 7", "fp:+7", "fp:07", "fp:\u0663", "fp:", "fp:" + "1" * 5000):
        with pytest.raises(ParseError):
            field_from_name(tag)


def test_prime_field_arithmetic():
    # the field carries no arithmetic: entries are canonical ints, and the
    # scalar operations of the oracles agree with hand-worked F_5 facts
    f = GF(5)
    assert (f.zero, f.one, f.characteristic) == (0, 1, 5)
    assert f.from_int(7) == 2 and f.from_int(-1) == 4
    assert add(f, 3, 4) == 2
    assert neg(f, 2) == 3
    assert inv(f, 3) == 2
    assert mul(f, inv(f, 4), 4) == 1
    with pytest.raises(FieldError):
        GF(9)


def test_gf_refuses_a_p_that_is_not_an_int(monkeypatch):
    # 5.0 and True hash as 5 and 1, so the check comes before the cache
    # lookup: a float or str p is refused whether GF(5) is cached or not
    from twistmod import linalg

    monkeypatch.setattr(linalg, "_gf_cache", {})
    for cached in (False, True):
        assert (5 in linalg._gf_cache) == cached
        for p in (5.0, "5", True, False, Fraction(5), None):
            with pytest.raises(FieldError, match="needs an int p"):
                GF(p)
        assert GF(5).p == 5 and type(GF(5).p) is int
    assert Matrix(GF(5), [[1, 2], [3, 4]]).det() == 3


def test_prime_field_parse_is_strict():
    f = GF(3)
    assert f.parse("2") == 2
    with pytest.raises(ParseError):
        f.parse("3")
    with pytest.raises(ParseError):
        f.parse("-1")
    for literal in ("\u00b2", "\u0662", "01", "+1", " 1", "1_0", "", "1" * 5000):
        with pytest.raises(ParseError):
            f.parse(literal)


def test_primality_is_exact_and_bounded():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(_is_prime(n) == trial_division(n) for n in range(-2, 5000))
    # strong pseudoprimes to every base below 13, 29 and 41
    for n in (3_215_031_751, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461):
        assert not _is_prime(n)
        with pytest.raises(FieldError, match="not prime"):
            GF(n)
    assert GF(2**61 - 1).p == 2**61 - 1
    # past the proven range of the bases, and past what a float can hold
    for n in (_MR_BOUND, 10**400):
        with pytest.raises(FieldError, match="certified"):
            GF(n)


def test_rational_parse_and_format():
    assert QQ.parse("-3/6") == Fraction(-1, 2)
    assert QQ.format(Fraction(-1, 2)) == "-1/2"
    assert QQ.format(Fraction(4)) == "4"
    # only "a/b" or "a" in ASCII digits; an exponent would parse slowly
    # and format past the integer digit limit
    literals = ("1e5000", "1e2000000", "1.5", " 2/4 ", "1_0", "+1", "1/-2", "\u0662", "", "1/0")
    for literal in literals:
        with pytest.raises(ParseError):
            QQ.parse(literal)


# -- rref / rank / kernel -------------------------------------------------


def test_rref_worked_example():
    # [[1,2],[2,4]] reduces to [[1,2],[0,0]] with rank 1
    m = Matrix(QQ, [[1, 2], [2, 4]])
    echelon, rank, pivots = m.rref()
    assert echelon == Matrix(QQ, [[1, 2], [0, 0]])
    assert rank == 1
    assert pivots == (0,)


def test_rref_is_idempotent_and_rank_transpose_invariant():
    rng = random.Random(7)
    for field in (QQ, GF(2), GF(3), GF(5)):
        for _ in range(60):
            m = random_matrix(rng, field, rng.randint(1, 5), rng.randint(1, 5))
            echelon, rank, _ = m.rref()
            assert echelon.rref()[0] == echelon
            assert m.transpose().rank() == rank
            if field.kind == "fp":
                assert rank_mod_p(m.rows, field.p) == rank
            else:
                # Bareiss over QQ, on the rows scaled to ints, and with one
                # dependent row more, so rank-deficient inputs are covered
                d = math.lcm(*(x.denominator for r in m.rows for x in r))
                ints = [[x.numerator * (d // x.denominator) for x in r] for r in m.rows]
                assert rank_mod_p(ints, 0) == rank
                dependent = ints + [[2 * a - b for a, b in zip(ints[0], ints[-1])]]
                assert rank_mod_p(dependent, 0) == rank


def test_kernel_worked_example_f2():
    # kernel of [1 1] over F_2 is spanned by (1,1)
    m = Matrix(GF(2), [[1, 1]])
    assert m.kernel_basis() == Matrix(GF(2), [[1, 1]])


def test_rank_nullity():
    rng = random.Random(11)
    for field in (QQ, GF(3)):
        for _ in range(60):
            m = random_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 5))
            ker = m.kernel_basis()
            assert m.rank() + ker.nrows == m.ncols
            for v in ker.rows:
                assert all(e == field.zero for e in m.mat_vec(v))


def test_det_and_inverse():
    rng = random.Random(13)
    m = Matrix(QQ, [[2, 1], [1, 1]])
    assert m.det() == 1
    assert m.inverse() == Matrix(QQ, [[1, -1], [-1, 2]])
    with pytest.raises(SingularMatrixError):
        Matrix(QQ, [[1, 2], [2, 4]]).inverse()
    for field in (QQ, GF(5)):
        for _ in range(40):
            n = rng.randint(1, 4)
            m = random_matrix(rng, field, n, n)
            if m.det() == field.zero:
                continue
            assert m.mul(m.inverse()) == Matrix.identity(field, n)
            # multiplicativity against a second random invertible factor
            g = random_matrix(rng, field, n, n)
            assert m.mul(g).det() == mul(field, m.det(), g.det())


def test_det_via_permutation_expansion_oracle():
    # independent Leibniz-formula oracle on plain operators, on random
    # matrices and on permutation and triangular ones, whose elimination
    # leaves rows untouched
    import itertools

    def perm_sign(perm):
        sign = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        return sign

    def leibniz(m):
        p = m.field.characteristic
        total = sum(
            perm_sign(perm) * math.prod(m[i][perm[i]] for i in range(m.nrows))
            for perm in itertools.permutations(range(m.nrows))
        )
        return total % p if p else total

    rng = random.Random(17)
    for field in (QQ, GF(2), GF(3), GF(7)):
        for _ in range(25):
            n = rng.randint(1, 3)
            m = random_matrix(rng, field, n, n)
            assert m.det() == leibniz(m)
        for n in range(5):
            for perm in itertools.permutations(range(n)):
                m = Matrix(field, [[int(j == perm[i]) for j in range(n)] for i in range(n)])
                assert m.det() == leibniz(m) == field.from_int(perm_sign(perm))
            for _ in range(4):
                t = random_matrix(rng, field, n, n)
                diagonal = math.prod(t[i][i] for i in range(n))
                if field.characteristic:
                    diagonal %= field.p
                upper = Matrix(field, [[t[i][j] if j >= i else 0 for j in range(n)] for i in range(n)])
                for m in (upper, upper.transpose()):
                    assert m.det() == leibniz(m) == diagonal


def test_the_constructor_is_the_public_boundary():
    # ints go through from_int: residues mod p, Fractions over QQ
    assert Matrix(GF(3), [[5]]) == Matrix(GF(3), [[2]])
    assert Matrix(GF(3), [[-1, 7]]).rows == ((2, 1),)
    (row,) = Matrix(QQ, [[1, -2]]).rows
    assert row == (1, -2) and all(type(e) is Fraction for e in row)
    # a float never enters, so a determinant is never a float
    with pytest.raises(FieldError):
        Matrix(QQ, [[0.1, 0.2], [0.3, 0.4]])
    # a Fraction only over QQ, and nothing else anywhere
    with pytest.raises(FieldError):
        Matrix(GF(5), [[Fraction(1, 2)]])
    for bad in ("1", None, 1.0, complex(1, 0)):
        for field in (QQ, GF(5)):
            with pytest.raises(FieldError):
                Matrix(field, [[bad]])
    assert Subspace(GF(3), 2, [[4, 5]]) == Subspace(GF(3), 2, [[1, 2]])
    with pytest.raises(FieldError):
        Subspace(QQ, 1, [[0.5]])
    with pytest.raises(ShapeError):
        Matrix(QQ, [[1, 2], [3]])


def one_form_module():
    return SigmaModule(QQ, 1, InvolutionSpace.trivial(QQ), 1, [Matrix(QQ, [[1]])])


def weights_3_0_minus_3(field):
    return OneParamSubgroup.from_diagonal_weights(field, [3, 0, -3])


# public methods that take a scalar or a vector, each given one that is no
# element of the field: a float over QQ, a Fraction over F_5
SCALAR_AND_VECTOR_ARGUMENTS = {
    "scale-float": lambda: Matrix.identity(QQ, 2).scale(0.5),
    "scale-fraction-mod-5": lambda: Matrix.identity(GF(5), 2).scale(Fraction(1, 2)),
    "mat_vec-float": lambda: Matrix.identity(QQ, 2).mat_vec((0.5, 1)),
    "gram-float": lambda: one_form_module().gram((0.5,), (1,)),
    "pairs_to_zero-float": lambda: one_form_module().pairs_to_zero((1,), (0.5,)),
    "matrix_at-float": lambda: weights_3_0_minus_3(QQ).matrix_at(0.1),
    "matrix_at-fraction-mod-5": lambda: weights_3_0_minus_3(GF(5)).matrix_at(Fraction(1, 2)),
    "contains_vector-float": lambda: Subspace(QQ, 2, [[1, 2]]).contains_vector((0.5, 1.0)),
    "contains_vector-fraction-mod-5": lambda: Subspace(GF(5), 2, [[1, 2]]).contains_vector(
        (Fraction(1, 2), 1)
    ),
}


@pytest.mark.parametrize("call", sorted(SCALAR_AND_VECTOR_ARGUMENTS))
def test_scalar_and_vector_arguments_cross_the_public_boundary(call):
    with pytest.raises(FieldError):
        SCALAR_AND_VECTOR_ARGUMENTS[call]()


def test_scalar_and_vector_arguments_take_ints_and_rationals():
    assert Matrix.identity(GF(5), 1).scale(7) == Matrix(GF(5), [[2]])
    assert Matrix.identity(QQ, 1).scale(Fraction(1, 2)).rows == ((Fraction(1, 2),),)
    assert Matrix(GF(5), [[1, 2]]).mat_vec((6, -1)) == (4,)
    assert one_form_module().gram((Fraction(1, 2),), (2,)) == (1,)
    lam = weights_3_0_minus_3(QQ)
    assert lam.matrix_at(Fraction(1, 2)) == lam.matrix_at(2).inverse()
    assert Subspace(GF(5), 2, [[1, 2]]).contains_vector((6, 7))
    assert Subspace(QQ, 2, [[1, 2]]).contains_vector((Fraction(1, 2), 1))


def test_empty_shapes_keep_their_width():
    for field in (QQ, GF(3)):
        wide = Matrix.zeros(field, 0, 3)
        assert wide.shape == (0, 3)
        assert wide.transpose().shape == (3, 0)
        assert wide.transpose().transpose() == wide
        assert Matrix.zeros(field, 2, 0).transpose().shape == (0, 2)
        assert (wide @ Matrix.identity(field, 3)).shape == (0, 3)
        # an inner dimension 0 gives the zero matrix
        assert Matrix.zeros(field, 2, 0) @ Matrix.zeros(field, 0, 3) == Matrix.zeros(field, 2, 3)
        assert (Matrix.zeros(field, 3, 0) @ Matrix.zeros(field, 0, 0)).shape == (3, 0)
        with pytest.raises(ShapeError):
            wide @ Matrix.identity(field, 2)
        assert wide != Matrix.zeros(field, 0, 2)
        assert wide.kernel_basis() == Matrix.identity(field, 3)
        assert Matrix.identity(field, 2).kernel_basis().shape == (0, 2)
        assert Subspace.zero(field, 3).basis.shape == (0, 3)


def test_block_assembly():
    a = Matrix(QQ, [[1, 2]])
    b = Matrix(QQ, [[3]])
    c = Matrix(QQ, [[0, 0], [4, 5]])
    d = Matrix(QQ, [[6], [7]])
    m = Matrix.from_blocks([[a, b], [c, d]])
    assert m == Matrix(QQ, [[1, 2, 3], [0, 0, 6], [4, 5, 7]])
    with pytest.raises(ShapeError):
        Matrix.from_blocks([[a, c]])


# -- subspaces ------------------------------------------------------------


def test_subspace_canonical_equality():
    a = Subspace(QQ, 2, [[2, 4]])
    b = Subspace(QQ, 2, [[1, 2]])
    assert a == b
    assert a.dim == 1
    assert hash(a) == hash(b)


def test_rational_echelon_from_plain_ints_stays_exact():
    # a plain-int pivot used to be inverted to a float
    (row,) = Subspace(QQ, 2, [[2, 1]]).basis.rows
    assert all(isinstance(e, Fraction) for e in row)
    assert row == (1, Fraction(1, 2))


def test_subspace_membership_sum_intersection():
    v = Subspace(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    w = Subspace(QQ, 3, [[0, 1, 0], [0, 0, 1]])
    assert v.contains_vector((3, -2, 0))
    assert not v.contains_vector((0, 0, 1))
    assert v.sum(w) == Subspace.full(QQ, 3)
    assert v.intersect(w) == Subspace(QQ, 3, [[0, 1, 0]])


def test_perp_dimensions_and_involution():
    rng = random.Random(19)
    for field in (QQ, GF(3)):
        for _ in range(40):
            n = rng.randint(1, 5)
            k = rng.randint(0, n)
            vecs = [random_matrix(rng, field, 1, n).rows[0] for _ in range(k)]
            s = Subspace(field, n, vecs)
            assert s.perp().dim == n - s.dim
            assert s.perp().perp() == s


def test_contains_refuses_subspaces_of_another_space():
    # the check sum and intersect make: another field, or another ambient
    # dimension, whether the other subspace is zero or not
    pairs = [
        (Subspace(QQ, 2, [[1, 0]]), Subspace(GF(5), 2, [[1, 0]])),
        (Subspace(GF(5), 2, [[1, 0]]), Subspace(GF(7), 2, [[1, 0]])),
        (Subspace(QQ, 2, [[1, 0]]), Subspace.zero(QQ, 3)),
        (Subspace(QQ, 2, [[1, 0]]), Subspace(QQ, 3, [[1, 0, 0]])),
        (Subspace.full(GF(3), 2), Subspace.zero(GF(3), 1)),
    ]
    for outer, inner in pairs:
        for call in (outer.contains, outer.sum, outer.intersect):
            with pytest.raises(FieldError, match="different ambient spaces"):
                call(inner)
        with pytest.raises(FieldError):
            complement_in(inner, outer)


def test_contains_compares_the_entries_off_the_pivots():
    v = Subspace(GF(5), 3, [[1, 2, 0], [0, 0, 1]])
    assert v.contains(Subspace(GF(5), 3, [[2, 4, 3]]))
    assert not v.contains(Subspace(GF(5), 3, [[1, 3, 0]]))
    assert v.contains(Subspace.zero(GF(5), 3))
    assert not v.contains(Subspace.full(GF(5), 3))
    w = Subspace(QQ, 3, [[1, Fraction(1, 2), 0]])
    assert w.contains(Subspace(QQ, 3, [[2, 1, 0]]))
    assert not w.contains(Subspace(QQ, 3, [[2, 1, 1]]))
    assert Subspace.zero(QQ, 3).contains(Subspace.zero(QQ, 3))


def test_complement_worked_example():
    # complement of span{e1} in Q^2 is span{e2}
    inner = Subspace(QQ, 2, [[1, 0]])
    comp = complement_in(inner, Subspace.full(QQ, 2))
    assert comp == Subspace(QQ, 2, [[0, 1]])


def reference_complement_in(inner, outer):
    # one rank computation per outer vector, the greedy rule spelled out,
    # with the ranks taken by the oracle's generic elimination
    if not outer.contains(inner):
        raise ValueError("inner is not contained in outer")
    f = inner.field
    current = [list(r) for r in inner.basis.rows]
    added = []
    rank = inner.dim
    for candidate in outer.basis.rows:
        trial = Matrix(f, current + [list(candidate)])
        new_rank = generic_rref(trial)[1]
        if new_rank > rank:
            current.append(list(candidate))
            added.append(candidate)
            rank = new_rank
        if rank == outer.dim:
            break
    return Subspace(f, inner.ambient, added)


def test_complement_properties():
    # the complement keeps the vectors the rank-per-vector reference
    # keeps; inner is any subspace of outer, not only a span of
    # outer's basis rows, so its pivots need not be outer's
    rng = random.Random(23)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(50):
            n = rng.randint(1, 5)
            outer_vecs = [
                random_matrix(rng, field, 1, n).rows[0] for _ in range(rng.randint(0, n))
            ]
            outer = Subspace(field, n, outer_vecs)
            if outer.dim and rng.random() < 0.5:
                coeffs = random_matrix(rng, field, rng.randint(1, outer.dim), outer.dim)
                inner_vecs = coeffs.mul(outer.basis).rows
            else:
                inner_vecs = [r for r in outer.basis.rows if rng.random() < 0.5]
            inner = Subspace(field, n, inner_vecs)
            comp = complement_in(inner, outer)
            assert comp.dim == outer.dim - inner.dim
            assert inner.intersect(comp).is_zero()
            assert inner.sum(comp) == outer
            assert comp == reference_complement_in(inner, outer)
    with pytest.raises(ValueError):
        complement_in(Subspace(QQ, 2, [[0, 1]]), Subspace(QQ, 2, [[1, 0]]))


def test_subspace_apply():
    g = Matrix(QQ, [[0, 1], [1, 0]])
    s = Subspace(QQ, 2, [[1, 0]])
    assert s.apply(g) == Subspace(QQ, 2, [[0, 1]])


# -- enumeration ----------------------------------------------------------


def scanned(q: int, n: int, k: int) -> list:
    """The k-dim subspaces of F_q^n from the package's one enumerator,
    the isotropic scanner given no forms, as (rows, pivots)."""
    return [(rows, pivots) for rows, pivots, _ in _isotropic_scanner([], q, n)(dims=(k,))]


def test_enumerate_subspaces_worked_counts():
    # 3 lines in F_2^2, 4 lines in F_3^2
    assert len(list(enumerate_subspaces(GF(2), 2, 1))) == 3
    assert len(list(enumerate_subspaces(GF(3), 2, 1))) == 4
    assert len(scanned(2, 2, 1)) == 3
    assert len(scanned(3, 2, 1)) == 4


def test_enumerate_subspaces_counts_match_gaussian_binomial():
    for q in (2, 3, 5):
        field = GF(q)
        for n in range(5):
            for k in range(n + 1):
                got = list(enumerate_subspaces(field, n, k))
                assert len(got) == gaussian_multinomial(q, (k, n - k))
                assert len(set(got)) == len(got)
                if k:
                    rows = [r for r, _ in scanned(q, n, k)]
                    assert len(rows) == gaussian_multinomial(q, (k, n - k))
                    assert len({Subspace(field, n, r) for r in rows}) == len(rows)


def test_enumeration_is_in_canonical_order():
    for q, n, k in ((2, 4, 2), (3, 3, 1), (3, 4, 3)):
        subs = list(enumerate_subspaces(GF(q), n, k))
        keys = [s.sort_key() for s in subs]
        assert keys == sorted(keys)
        keys = [Subspace(GF(q), n, rows).sort_key() for rows, _ in scanned(q, n, k)]
        assert keys == sorted(keys)
    # span{e1} always comes first among lines
    assert next(iter(enumerate_subspaces(GF(3), 3, 1))) == Subspace(
        GF(3), 3, [[1, 0, 0]]
    )
    assert scanned(3, 3, 1)[0] == (((1, 0, 0),), (0,))


def test_the_scanner_with_no_forms_lists_every_subspace_like_the_oracle():
    # with no forms every pairing vanishes, so the isotropic scanner lists
    # all nonzero subspaces: the same reduced echelon rows and pivots, in
    # the same order, as the oracle that builds each one as a Subspace
    for q in (2, 3, 5):
        for n in range(1, 5):
            expected = [(s.basis.rows, tuple(s.pivots)) for s in all_subspaces(GF(q), n)]
            got = [(rows, tuple(pivots)) for rows, pivots, _ in _isotropic_scanner([], q, n)()]
            assert got == expected


def test_all_subspaces_membership_partition():
    # every nonzero vector of F_2^3 lies in exactly gauss(2,1,2)=3 planes
    field = GF(2)
    planes = list(enumerate_subspaces(field, 3, 2))
    for v in vectors_of(field, 3):
        if all(e == 0 for e in v):
            continue
        assert sum(1 for s in planes if s.contains_vector(v)) == 3
    assert len(list(all_subspaces(field, 3))) == 7 + 7 + 1


def test_enumerate_requires_finite_field():
    with pytest.raises(FieldError):
        list(enumerate_subspaces(QQ, 2, 1))


def walk(form, p: int, budget=None) -> list:
    return list(isometries([form], [form], range(p), p, budget))


def assert_isometries(bases, form, p: int):
    # distinct, in lexicographic order of the columns, and each f^T form f = form
    assert bases == sorted(set(bases))
    field, b = GF(p), Matrix(GF(p), form)
    for cols in bases:
        f = Matrix(field, [list(row) for row in zip(*cols)])
        assert f.transpose() @ b @ f == b


@pytest.mark.parametrize("n, p", [(1, 3), (2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (4, 3)])
def test_the_isometry_walk_lists_the_orthogonal_group(n, p):
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    bases = walk(identity, p)
    assert len(bases) == orthogonal_group_order(n, p)
    assert_isometries(bases, identity, p)


@pytest.mark.parametrize("n, p", [(2, 2), (2, 3), (2, 5), (2, 7), (4, 2)])
def test_the_isometry_walk_lists_the_symplectic_group(n, p):
    m = n // 2
    # J = [[0, I], [-I, 0]]
    j = [[1 if c == r + m else p - 1 if r == c + m else 0 for c in range(n)] for r in range(n)]
    bases = walk(j, p)
    assert len(bases) == symplectic_group_order(n, p)
    assert_isometries(bases, j, p)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_isometry_walk_over_the_integers_lists_signed_permutations(n):
    # O_n(Z) is the signed permutation matrices, 2^n n! of them
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    bases = list(isometries([identity], [identity], (0, 1, -1), 0))
    assert len(bases) == 2**n * math.factorial(n)
    assert all(sorted(map(abs, sum(cols, ()))) == [0] * (n * n - n) + [1] * n for cols in bases)


def test_the_isometry_walk_matches_brute_force_on_unsymmetric_forms():
    # the walk tests each pair of columns one way round, which the relation
    # of a valid module settles for the other: swap pairs, whose forms need
    # not be symmetric, and eps-symmetric single forms, each against moved
    # and random valid targets; every matrix is tried
    rng = random.Random(5)
    for p, n, k in ((3, 2, 1), (2, 3, 1), (3, 2, 2), (2, 2, 2)):
        field = GF(p)
        w = InvolutionSpace(field, Matrix(field, [[0, 1], [1, 0]] if k == 2 else [[1]]))

        def square():
            return Matrix(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])

        for trial in range(4):
            sign = 1 if trial < 2 else -1
            mats, g = symmetrize(field, n, w, sign, [square() for _ in range(k)]).forms, square()
            if trial % 2 and g.det():
                targets = [g.transpose() @ m @ g for m in mats]
            else:
                targets = symmetrize(field, n, w, sign, [square() for _ in range(k)]).forms
            expected = []
            for entries in itertools.product(range(p), repeat=n * n):
                f = Matrix(field, [entries[i * n : (i + 1) * n] for i in range(n)])
                if f.det() and all(f.transpose() @ m @ f == t for m, t in zip(mats, targets)):
                    expected.append(tuple(zip(*f.rows)))
            got = list(isometries([m.rows for m in mats], [t.rows for t in targets], range(p), p))
            assert got == sorted(expected)


def test_the_isometry_walk_edge_cases():
    # n = 0 has exactly one basis, the empty one
    assert walk([], 3) == [()]
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    full = walk(identity, 3)
    # a cut yields None once, last, after a prefix of the full walk
    cut = walk(identity, 3, budget=200)
    assert len(cut) > 1 and cut[-1] is None and None not in cut[:-1]
    assert cut[:-1] == full[: len(cut) - 1]
    assert walk(identity, 3, budget=0) == [None]
    assert walk(identity, 3, budget=10**6) == full
