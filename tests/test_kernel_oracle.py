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

A matrix holds int rows over one denominator.  Every result is checked
in that canonical form (over QQ a positive denominator with gcd 1 with
the entries, over F_p residues over 1), so that equal matrices compare
and hash equal whatever path built them; the entrywise operations, the
twisted transpose and the written form of each entry are checked
against the Fraction arithmetic of ``oracles.py``.
"""

import math
from fractions import Fraction

import pytest

from twistmod.errors import BoundExceededError, SingularMatrixError
from twistmod.linalg import GF, QQ, Matrix, Subspace, complement_in, rank_mod_p
from twistmod.serialize import matrix_to_lists
from twistmod.sigmamod import InvolutionSpace, twisted_transpose

from oracles import (
    add,
    generic_det,
    generic_inverse,
    generic_kernel,
    generic_mul,
    generic_rref,
    is_element,
    mul,
    neg,
    stacked_complement,
    sub,
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
    """Canonical entries, and the canonical int form: over F_p the rows
    themselves over 1, over QQ a positive denominator with gcd 1 with
    every entry, so 1 for the zero matrix."""
    flat = [x for row in m.num for x in row]
    if m.field.kind == "fp":
        scaled = m.den == 1 and m.num == m.rows
    else:
        scaled = m.den > 0 and math.gcd(m.den, *flat) == 1
        scaled = scaled and m.rows == tuple(tuple(Fraction(x, m.den) for x in r) for r in m.num)
    return scaled and all(is_element(m.field, e) for row in m.rows for e in row)


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


@st.composite
def same_shape(draw):
    field = draw(st.sampled_from(FIELDS))
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    scalar = draw(st.integers(-5, 5) | entries(field, draw(st.booleans())))
    return draw(matrices(field, r, c)), draw(matrices(field, r, c)), scalar


def entrywise(field, op, a, b):
    return tuple(tuple(op(field, x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows))


@given(same_shape())
def test_entrywise_operations_match_the_fraction_reference(case):
    a, b, c = case
    field = a.field
    c_elt = c % field.p if field.kind == "fp" else Fraction(c)
    results = [
        (a + b, entrywise(field, add, a, b)),
        (a - b, entrywise(field, sub, a, b)),
        (-a, tuple(tuple(neg(field, x) for x in row) for row in a.rows)),
        (a.scale(c), tuple(tuple(mul(field, c_elt, x) for x in row) for row in a.rows)),
        (a.transpose(), tuple(zip(*a.rows)) if a.rows else ((),) * a.ncols),
    ]
    for got, expected in results:
        assert got.rows == expected and canonical(got)
    assert a.transpose().transpose() == a and a - a == Matrix.zeros(field, a.nrows, a.ncols)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)


# the involutions of W: trivial, the swap, the identity on a plane, and
# over QQ one with denominators, [[3/5, 4/5], [4/5, -3/5]]
def involutions(field):
    out = [Matrix.identity(field, 1), Matrix(field, [[0, 1], [1, 0]]), Matrix.identity(field, 2)]
    if field.kind == "rational":
        out.append(Matrix(QQ, [[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]]))
    return out


@st.composite
def twisted(draw):
    field = draw(st.sampled_from(FIELDS))
    s = draw(st.sampled_from(involutions(field)))
    n = draw(st.integers(0, 3))
    forms = [draw(matrices(field, n, n)) for _ in range(s.nrows)]
    return InvolutionSpace(field, s), draw(st.sampled_from((1, -1))), forms


@given(twisted())
def test_twisted_transpose_matches_the_fraction_reference(case):
    # the l-th result is sign * sum_k S[l][k] B_k^T, entry by entry
    w, sign, forms = case
    field, n = w.field, forms[0].nrows
    got = twisted_transpose(w, sign, forms)
    for row, result in zip(w.matrix.rows, got):
        expected = [[field.zero] * n for _ in range(n)]
        for c, b in zip(row, forms):
            c = mul(field, c, sign % field.p if field.kind == "fp" else Fraction(sign))
            for i in range(n):
                for j in range(n):
                    expected[i][j] = add(field, expected[i][j], mul(field, c, b.rows[j][i]))
        assert result.rows == tuple(map(tuple, expected)) and canonical(result)


@given(square_matrices())
def test_equal_matrices_built_by_different_paths_compare_and_hash_equal(m):
    identity = Matrix.identity(m.field, m.nrows)
    if m.det() != 0:
        product = m @ m.inverse()
        assert product == identity and hash(product) == hash(identity)
        assert product.num == identity.num and product.den == 1
    zero = m - m
    assert zero == Matrix.zeros(m.field, m.nrows, m.ncols) and zero.den == 1
    rebuilt = Matrix(m.field, m.rows)
    assert rebuilt == m and hash(rebuilt) == hash(m)


def test_a_fraction_is_taken_in_lowest_terms():
    half = Matrix(QQ, [[Fraction(1, 2)]])
    for other in (
        Matrix(QQ, [[Fraction(2, 4)]]),
        Matrix(QQ, [[1]]).scale(Fraction(3, 6)),
        Matrix(QQ, [[Fraction(3, 2)]]) - Matrix.identity(QQ, 1),
        Matrix(QQ, [[2]]).inverse(),
    ):
        assert other == half and hash(other) == hash(half)
        assert (other.num, other.den) == (((1,),), 2)
    assert Matrix(QQ, [[Fraction(-6, 4), 0], [3, Fraction(1, 6)]]).den == 6


@given(matrices(QQ))
def test_rows_are_fractions_and_written_as_str_fraction_writes_them(m):
    # the rows are rebuilt as Fractions; each written entry is
    # str(Fraction(n, d)) of its entry, signs, integers and zeros included
    assert all(type(x) is Fraction for row in m.rows for x in row)
    assert matrix_to_lists(m) == [[str(x) for x in row] for row in m.rows]
    if m.nrows:
        assert all(type(x) is Fraction for x in m[0])
        assert m == Matrix(QQ, m.rows)


def test_written_entries_cover_signs_integers_and_zero():
    entries = [[Fraction(-3, 4), 0, 5], [Fraction(6, 3), Fraction(-7), Fraction(0, 9)]]
    written = matrix_to_lists(Matrix(QQ, entries))
    assert written == [["-3/4", "0", "5"], ["2", "-7", "0"]]
    assert written == [[str(Fraction(x)) for x in row] for row in entries]
    # past the interpreter's digit limit the int formatter refuses, as QQ.format does
    huge = Fraction(10**5000, 3)
    for write in (lambda: matrix_to_lists(Matrix(QQ, [[huge]])), lambda: QQ.format(huge)):
        with pytest.raises(BoundExceededError, match="too many digits"):
            write()
