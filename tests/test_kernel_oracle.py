"""Property tests: the plain-int kernel of Matrix against generic elimination.

``oracles.py`` keeps the elimination that runs on the fields' scalar
operations, one method call per entry operation.  Reduced echelon forms,
canonical kernel bases, inverses, determinants and products are unique,
so the plain-int kernel (one ``% p`` per entry over F_p, fraction-free
Gauss-Jordan and Bareiss over QQ) must agree with it exactly, on every
shape: rank-deficient, without rows, without columns, and empty.
Rational entries reach 10^30 over denominators up to 10^12, so the
exact divisions of the fraction-free updates see large minors.  The
complement of a subspace in an outer space, read off the trailing
pivots of its coordinates in the outer basis, is checked against the
stacked elimination of ``oracles.py``.
"""

import math
from fractions import Fraction

import pytest

from twistmod.errors import SingularMatrixError
from twistmod.linalg import GF, QQ, Matrix, Subspace, complement_in, rank_mod_p

from oracles import (
    generic_det,
    generic_inverse,
    generic_kernel,
    generic_mul,
    generic_rref,
    is_element,
    stacked_complement,
)

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

FIELDS = (GF(2), GF(3), GF(5), GF(7), GF(1_000_003), QQ)


def entries(field, big: bool):
    if field.kind == "fp":
        return st.integers(0, field.p - 1)
    top, bottom = (10**30, 10**12) if big else (9, 9)
    return st.builds(Fraction, st.integers(-top, top), st.integers(1, bottom))


@st.composite
def matrices(draw, field=None, nrows=None, ncols=None):
    """A matrix with up to 5 rows and columns; about half of them are a
    product through a narrower inner dimension, so rank-deficient."""
    field = draw(st.sampled_from(FIELDS)) if field is None else field
    nrows = draw(st.integers(0, 5)) if nrows is None else nrows
    ncols = draw(st.integers(0, 5)) if ncols is None else ncols
    big = draw(st.booleans())

    def plain(r, c):
        row = st.lists(entries(field, big), min_size=c, max_size=c)
        rows = draw(st.lists(row, min_size=r, max_size=r))
        return Matrix(field, rows) if r else Matrix.zeros(field, 0, c)

    if draw(st.booleans()):
        inner = draw(st.integers(0, max(0, min(nrows, ncols) - 1)))
        left, right = plain(nrows, inner), plain(inner, ncols)
        rows = generic_mul(left, right)
        return Matrix(field, rows) if nrows else Matrix.zeros(field, 0, ncols)
    return plain(nrows, ncols)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 5))
    return draw(matrices(nrows=n, ncols=n))


def canonical(m: Matrix) -> bool:
    return all(is_element(m.field, e) for row in m.rows for e in row)


@given(matrices())
def test_rref_matches_generic_elimination(m):
    echelon, rank, pivots = m.rref()
    rows, generic_rank, generic_pivots = generic_rref(m)
    assert echelon.shape == m.shape
    assert echelon.rows == tuple(map(tuple, rows))
    assert (rank, pivots) == (generic_rank, generic_pivots)
    assert m.rank() == rank
    assert canonical(echelon)
    # a subspace is canonicalised by the same elimination
    span = Subspace(m.field, m.ncols, m.rows)
    assert span.basis.rows == echelon.rows[:rank] and span.pivots == pivots


@given(matrices())
def test_kernel_basis_matches_generic_elimination(m):
    kernel = m.kernel_basis()
    assert kernel.rows == tuple(map(tuple, generic_kernel(m)))
    assert kernel.shape == (m.ncols - generic_rref(m)[1], m.ncols)
    assert canonical(kernel)
    assert all(not any(m.mat_vec(v)) for v in kernel.rows)


@given(square_matrices())
def test_det_and_inverse_match_generic_elimination(m):
    det = m.det()
    assert det == generic_det(m) and is_element(m.field, det)
    if det == 0:
        with pytest.raises(SingularMatrixError):
            m.inverse()
        with pytest.raises(SingularMatrixError):
            generic_inverse(m)
        return
    inverse = m.inverse()
    assert inverse.rows == tuple(map(tuple, generic_inverse(m)))
    assert canonical(inverse)
    assert m @ inverse == Matrix.identity(m.field, m.nrows)


@st.composite
def products(draw):
    field = draw(st.sampled_from(FIELDS))
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    return draw(matrices(field, r, k)), draw(matrices(field, k, c))


@given(products())
def test_mul_matches_generic_products(pair):
    a, b = pair
    product = a @ b
    assert product.shape == (a.nrows, b.ncols)
    assert product.rows == tuple(map(tuple, generic_mul(a, b)))
    assert canonical(product)


@given(matrices())
def test_rank_mod_p_agrees_with_generic_rank(m):
    rank = generic_rref(m)[1]
    if m.field.kind == "fp":
        assert rank_mod_p(m.rows, m.field.p) == rank
    else:
        # Bareiss on the rows scaled to ints by a common denominator
        d = math.lcm(*(x.denominator for row in m.rows for x in row))
        assert rank_mod_p([[int(x * d) for x in row] for row in m.rows], 0) == rank


@st.composite
def nested_subspaces(draw):
    """(inner, outer) with inner inside outer in F^n, n <= 6, over QQ,
    F_2, F_3 or F_5; outer is the whole space about half the time."""
    field = draw(st.sampled_from((QQ, GF(2), GF(3), GF(5))))
    n = draw(st.integers(1, 6))
    inner = draw(matrices(field, draw(st.integers(0, n)), n))
    extra = draw(matrices(field, draw(st.integers(0, n)), n))
    inner_space = Subspace(field, n, inner.rows)
    if draw(st.booleans()):
        return inner_space, Subspace.full(field, n)
    return inner_space, Subspace(field, n, inner.rows + extra.rows)


@given(nested_subspaces())
def test_complement_matches_the_stacked_elimination(pair):
    # the complement is read off the trailing pivots of inner's coordinates
    # in the outer basis; it must be the stacked elimination's subspace,
    # pivots included
    inner, outer = pair
    got = complement_in(inner, outer)
    expected = stacked_complement(inner, outer)
    assert got == expected and got.pivots == expected.pivots
    assert got.dim == outer.dim - inner.dim
    assert canonical(got.basis)
