"""Tests for subgroup weights, block exponents, limits and destabilizers."""

import random
from fractions import Fraction

import pytest

from twistmod.errors import IsotropyError, ShapeError
from twistmod.hilbert import (
    MINUS_INFINITY,
    OneParamSubgroup,
    block_exponents,
    destabilizing_1ps,
    limit_at_zero,
    mu,
)
from twistmod.linalg import GF, QQ, Matrix, Subspace
from twistmod.sigmamod import (
    InvolutionSpace,
    SigmaModule,
    act,
    isotropy_class,
    orthogonal,
    symmetrize,
    validate,
    TOTALLY_ISOTROPIC,
)

from oracles import vectors_of

WORKED_ROWS = [[0, 0, 1], [0, 1, 1], [1, 1, 1]]


def module_1form(field, rows, sign=1):
    b = Matrix(field, rows)
    return SigmaModule(field, b.nrows, InvolutionSpace.trivial(field), sign, [b])


def diag_lambda(field, weights):
    return OneParamSubgroup.from_diagonal_weights(field, weights)


# -- construction ------------------------------------------------------------


def test_constructor_canonicalizes_and_validates():
    field = QQ
    e1 = Subspace(field, 2, [[1, 0]])
    e2 = Subspace(field, 2, [[0, 1]])
    lam = OneParamSubgroup([(e2, -1), (e1, 1)])
    assert lam.weights == (1, -1)
    assert lam.pieces[0][0] == e1
    # merging equal weights
    lam2 = OneParamSubgroup([(e1, 0), (e2, 0)])
    assert lam2 == OneParamSubgroup.trivial(field, 2)
    with pytest.raises(ShapeError):
        OneParamSubgroup([(e1, 1), (e2, 1)])  # weighted sum nonzero
    with pytest.raises(ShapeError):
        OneParamSubgroup([(e1, 1), (e1, -1)])  # not spanning
    with pytest.raises(ShapeError):
        OneParamSubgroup([(e1, 2), (e2, -2), (Subspace(field, 2, [[1, 1]]), 0)])


def test_the_internal_constructor_keeps_the_direct_sum_and_weight_checks():
    # _from_pieces trusts its pieces to be canonical, nonzero and sorted,
    # but still refuses a non-direct sum and a nonzero weighted sum
    for field in (QQ, GF(3)):
        e1 = Subspace(field, 2, [[1, 0]])
        e2 = Subspace(field, 2, [[0, 1]])
        lam = OneParamSubgroup._from_pieces(field, 2, ((e1, 1), (e2, -1)))
        assert lam == OneParamSubgroup([(e2, -1), (e1, 1)])
        with pytest.raises(ShapeError, match="direct sum"):
            OneParamSubgroup._from_pieces(field, 2, ((e1, 1), (e1, -1)))
        with pytest.raises(ShapeError, match="direct sum"):
            OneParamSubgroup._from_pieces(field, 2, ((e1, 0),))
        with pytest.raises(ShapeError, match="sum to zero"):
            OneParamSubgroup._from_pieces(field, 2, ((e1, 2), (e2, -1)))


def test_matrix_at_acts_with_the_right_powers():
    lam = diag_lambda(QQ, [1, 0, -1])
    g = lam.matrix_at(QQ.from_int(2))
    assert g == Matrix(
        QQ, [[QQ.from_int(2), QQ.zero, QQ.zero],
             [QQ.zero, QQ.one, QQ.zero],
             [QQ.zero, QQ.zero, QQ.parse("1/2")]]
    )
    # non-diagonal pieces: lambda(t) is conjugated accordingly
    v = Subspace(QQ, 2, [[1, 1]])
    w = Subspace(QQ, 2, [[1, -1]])
    lam2 = OneParamSubgroup([(v, 1), (w, -1)])
    g2 = lam2.matrix_at(QQ.from_int(3))
    for vec, expected in (((1, 1), (3, 3)), ((3, -3), (1, -1))):
        assert g2.mat_vec(tuple(QQ.from_int(c) for c in vec)) == tuple(
            QQ.from_int(c) for c in expected
        )


def test_matrix_at_takes_powers_on_plain_operators():
    # pow(t, wt, p) over F_p and Fraction powers over QQ, as the field
    # classes carry no arithmetic; a plain-int t over QQ still gives
    # exact negative powers
    f5 = GF(5)
    lam5 = diag_lambda(f5, [3, 0, -3])
    lam = diag_lambda(QQ, [3, 0, -3])
    for field_type in (type(QQ), type(f5)):
        for name in ("add", "sub", "mul", "neg", "inv", "elements"):
            assert not hasattr(field_type, name)
    # 2^3 = 8 = 3 and 2^-3 = 3^-1 = 2 mod 5
    assert lam5.matrix_at(2) == Matrix(f5, [[3, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert lam.matrix_at(2) == Matrix(QQ, [[8, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 8)]])
    for t in (0, 5):
        with pytest.raises(ShapeError):
            lam5.matrix_at(t)
    with pytest.raises(ShapeError):
        lam.matrix_at(Fraction(0))


# -- block exponents and mu ---------------------------------------------------


def test_block_exponents_worked_example():
    q = module_1form(QQ, WORKED_ROWS)
    lam = diag_lambda(QQ, [1, 0, -1])
    blocks = block_exponents(lam, q)
    nonzero = {ij: info.exponent for ij, info in blocks.items() if not info.is_zero}
    assert nonzero == {
        (0, 2): 0,
        (2, 0): 0,
        (1, 1): 0,
        (1, 2): 1,
        (2, 1): 1,
        (2, 2): 2,
    }
    assert mu(lam, q) == 0


def test_hyperbolic_plane_exponents_and_mu():
    q = module_1form(QQ, [[0, 1], [1, 0]])
    lam = diag_lambda(QQ, [1, -1])
    blocks = block_exponents(lam, q)
    assert blocks[(0, 1)] == (0, False)
    assert blocks[(1, 0)] == (0, False)
    assert blocks[(0, 0)] == (-2, True)
    assert blocks[(1, 1)] == (2, True)
    assert mu(lam, q) == 0


def test_mu_of_zero_module_is_minus_infinity():
    q = module_1form(QQ, [[0, 0], [0, 0]])
    lam = diag_lambda(QQ, [1, -1])
    assert mu(lam, q) is MINUS_INFINITY
    assert MINUS_INFINITY < -10**9
    assert not MINUS_INFINITY > 0


def test_mu_scales_with_the_subgroup():
    rng = random.Random(301)
    field = GF(3)
    w = InvolutionSpace.trivial(field)
    for _ in range(20):
        raw = Matrix(field, [[rng.randrange(3) for _ in range(3)] for _ in range(3)])
        q = symmetrize(field, 3, w, 1, [raw])
        lam = diag_lambda(field, [1, 0, -1])
        lam2 = diag_lambda(field, [2, 0, -2])
        m = mu(lam, q)
        m2 = mu(lam2, q)
        if m is MINUS_INFINITY:
            assert m2 is MINUS_INFINITY
        else:
            assert m2 == 2 * m


def test_mu_is_equivariant_under_the_action():
    rng = random.Random(307)
    field = GF(5)
    w = InvolutionSpace.trivial(field)
    for _ in range(15):
        raw = Matrix(field, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
        q = symmetrize(field, 3, w, 1, [raw])
        g = None
        while g is None:
            cand = Matrix(field, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
            if cand.det() != field.zero:
                g = cand
        lam = diag_lambda(field, [1, 0, -1])
        moved = OneParamSubgroup([(s.apply(g), wt) for s, wt in lam.pieces])
        assert mu(lam, q) == mu(moved, act(g, q))


# -- limits --------------------------------------------------------------------


def test_limit_worked_example():
    q = module_1form(QQ, WORKED_ROWS)
    lam = diag_lambda(QQ, [1, 0, -1])
    limit = limit_at_zero(lam, q)
    assert limit is not None
    assert limit.forms[0] == Matrix(QQ, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_limit_exists_iff_mu_nonpositive_and_is_fixed():
    rng = random.Random(311)
    field = GF(3)
    w = InvolutionSpace.trivial(field)
    for _ in range(40):
        raw = Matrix(field, [[rng.randrange(3) for _ in range(3)] for _ in range(3)])
        q = symmetrize(field, 3, w, rng.choice((1, -1)), [raw])
        weights = rng.choice(([1, 0, -1], [2, 0, -2], [2, 1, -3], [1, -1, 0]))
        rng.shuffle(weights)
        lam = diag_lambda(field, weights)
        m = mu(lam, q)
        limit = limit_at_zero(lam, q)
        if m is MINUS_INFINITY or m <= 0:
            assert limit is not None
            assert validate(limit)
            # the limit is a fixed point of lambda
            g = lam.matrix_at(field.from_int(2))
            assert act(g, limit) == limit
            follow_up = mu(lam, limit)
            assert follow_up is MINUS_INFINITY or follow_up <= 0
        else:
            assert limit is None


def test_limit_divergence_example():
    q = module_1form(QQ, [[1, 0], [0, 0]])
    lam = diag_lambda(QQ, [1, -1])
    assert limit_at_zero(lam, q) is None
    # same weights on the hyperbolic plane converge to itself
    q2 = module_1form(QQ, [[0, 1], [1, 0]])
    assert limit_at_zero(lam, q2) == q2


# -- destabilizing subgroups ----------------------------------------------------


def test_destabilizing_worked_examples():
    # rank-one form, isotropic plane: weights (1, -2), H_2 empty
    q = module_1form(QQ, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    v = Subspace(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    lam = destabilizing_1ps(q, v)
    assert lam.weights == (1, -2)
    assert lam.pieces[0][0] == v
    assert mu(lam, q) == -4  # 2 * m2 with m2 = 3 - 4 - 1
    # hyperbolic plane: weights (2, -2), mu = 0
    q2 = module_1form(QQ, [[0, 1], [1, 0]])
    lam2 = destabilizing_1ps(q2, Subspace(QQ, 2, [[1, 0]]))
    assert lam2.weights == (2, -2)
    assert mu(lam2, q2) == 0
    # the dim-3 worked module: weights (3, 0, -3), mu = 0
    q3 = module_1form(QQ, WORKED_ROWS)
    lam3 = destabilizing_1ps(q3, Subspace(QQ, 3, [[1, 0, 0]]))
    assert lam3.weights == (3, 0, -3)
    assert mu(lam3, q3) == 0
    with pytest.raises(IsotropyError):
        destabilizing_1ps(q3, Subspace(QQ, 3, [[0, 1, 0]]))
    with pytest.raises(IsotropyError):
        destabilizing_1ps(q3, Subspace.zero(QQ, 3))


def test_destabilizing_mu_identity_on_random_isotropic_pairs():
    # mu <= 2 (n - dim v - dim perp), with equality unless both the
    # cross pairing and the middle restriction vanish
    rng = random.Random(313)
    field = GF(3)
    w = InvolutionSpace.trivial(field)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 4)
        raw = Matrix(field, [[rng.randrange(3) for _ in range(n)] for _ in range(n)])
        q = symmetrize(field, n, w, rng.choice((1, -1)), [raw])
        candidates = [
            Subspace(field, n, [u]) for u in vectors_of(field, n) if any(u)
        ]
        rng.shuffle(candidates)
        v = next(
            (c for c in candidates if isotropy_class(q, c) == TOTALLY_ISOTROPIC), None
        )
        if v is None:
            continue
        checked += 1
        perp = orthogonal(q, v)
        lam = destabilizing_1ps(q, v)
        bound = 2 * (n - v.dim - perp.dim)
        m = mu(lam, q)
        assert m is MINUS_INFINITY or m <= bound
        if m is not MINUS_INFINITY and m == bound:
            pass  # equality is the generic case, checked exactly in acceptance
        assert sum(wt * s.dim for s, wt in lam.pieces) == 0
