"""The one-form isometry decision over F_p, p odd, against the search.

For dim W = 1 and p odd, ``is_isomorphic`` decides by the congruence
normal forms of ``twistmod.quadform``: rank and discriminant square
class for symmetric forms, rank alone for alternating ones.  The
column-by-column ``_isometry_search`` is exhaustive at n <= 3 over F_3,
F_5 and F_7, so it is the oracle here, and every "yes" witness is
rechecked as f^T B2 f = B1 with det f != 0.
"""

import pytest

from twistmod import sigmamod
from twistmod.errors import BoundExceededError
from twistmod.linalg import GF, Matrix
from twistmod.quadform import normal_form
from twistmod.sigmamod import (
    InvolutionSpace,
    IsoResult,
    SigmaModule,
    _isometry_search,
    act,
    is_isomorphic,
)
from twistmod.stability import s_equivalent

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

# decidable, and past the search's budget: the search answered unknown
# here after about 0.7 s; det B1 = 6 is a nonsquare mod 7, det B2 = 1
F7_B1 = [[1, 1, 0, 1], [1, 3, 5, 0], [0, 5, 5, 3], [1, 0, 3, 5]]
F7_B2 = [[0, 4, 4, 6], [4, 0, 2, 6], [4, 2, 1, 2], [6, 6, 2, 3]]


def one_form(field, rows, sign=1, s=1):
    w = InvolutionSpace(field, Matrix(field, [[s % field.p]]))
    b = Matrix(field, rows)
    return SigmaModule(field, b.nrows, w, sign, [b])


def assert_witness(q1, q2, f):
    b1, b2 = q1.forms[0], q2.forms[0]
    assert f.transpose() @ b2 @ f == b1
    assert f.det() != 0


@st.composite
def one_form_pairs(draw):
    """(q1, q2) over F_3, F_5 or F_7 with n <= 3, both signs and S = +-1.

    Each form is C + eps C^T for C = L R of a drawn inner rank, so
    singular forms are common; q2 is a moved copy act(g, q1), a copy
    squeezed by a possibly singular h (h^T B h), or an independent form.
    """
    p = draw(st.sampled_from((3, 5, 7)))
    n = draw(st.integers(1, 3))
    sign, s = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
    eps = sign * s
    field = GF(p)

    def rows(nrows, ncols):
        row = st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols)
        return draw(st.lists(row, min_size=nrows, max_size=nrows))

    def form():
        k = draw(st.integers(0, n))
        c = Matrix(field, rows(n, k)) @ Matrix(field, rows(k, n)) if k else Matrix.zeros(field, n, n)
        return [[(c.rows[i][j] + eps * c.rows[j][i]) % p for j in range(n)] for i in range(n)]

    q1 = one_form(field, form(), sign, s)
    kind = draw(st.sampled_from(("moved", "squeezed", "independent")))
    if kind == "independent":
        return q1, one_form(field, form(), sign, s)
    g = Matrix(field, rows(n, n))
    if kind == "moved":
        if g.det() == 0:
            g = Matrix.identity(field, n)
        return q1, act(g, q1)
    return q1, SigmaModule(field, n, q1.w, sign, [g.transpose() @ q1.forms[0] @ g])


@settings(max_examples=100)
@given(one_form_pairs())
def test_one_form_decision_matches_the_exhaustive_search(pair):
    q1, q2 = pair
    got = is_isomorphic(q1, q2)
    # a refutation over F_7^3 can visit millions of nodes; such pairs are
    # set aside rather than searched for seconds
    witness, exhausted = _isometry_search(q1, q2, 100_000)
    assume(exhausted)
    assert got.status == ("yes" if witness is not None else "no")
    if got.status == "yes":
        assert_witness(q1, q2, got.witness)


def test_normal_form_invariants():
    f7 = 7
    # <1> + <1> and <3> + <5>: discriminants 1 and 15 = 1 mod 7, one class
    assert normal_form([[1, 0], [0, 1]], 1, f7)[0] == (2, 1)
    assert normal_form([[3, 0], [0, 5]], 1, f7)[0] == (2, 1)
    # <1> and <3>: 3 is the least nonresidue mod 7
    assert normal_form([[1]], 1, f7)[0] == (1, 1)
    assert normal_form([[3]], 1, f7)[0] == (1, 3)
    # the hyperbolic plane has discriminant -1 = 6, a nonresidue mod 7
    assert normal_form([[0, 1], [1, 0]], 1, f7)[0] == (2, 3)
    # alternating forms: the rank alone
    assert normal_form([[0, 2, 0], [5, 0, 0], [0, 0, 0]], -1, f7)[0] == (2,)
    assert normal_form([[0, 0], [0, 0]], -1, f7)[0] == (0,)
    # not eps-symmetric: no normal form
    assert normal_form([[0, 1], [0, 0]], 1, f7) is None
    assert normal_form([[1, 0], [0, 0]], -1, f7) is None


@st.composite
def eps_symmetric_forms(draw):
    p = draw(st.sampled_from((3, 5, 7, 11, 101)))
    n = draw(st.integers(0, 6))
    eps = draw(st.sampled_from((1, -1)))
    k = draw(st.integers(0, n))
    entries = st.integers(0, p - 1)
    left = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n))
    right = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    c = [[sum(left[i][m] * right[m][j] for m in range(k)) for j in range(n)] for i in range(n)]
    return p, eps, [[(c[i][j] + eps * c[j][i]) % p for j in range(n)] for i in range(n)]


@given(eps_symmetric_forms())
def test_normal_form_basis_reaches_the_normal_form(drawn):
    # the rows of basis are the columns of P: P^T B P is the normal form
    # its invariants name, and P is invertible
    p, eps, rows = drawn
    n = len(rows)
    invariants, basis = normal_form(rows, eps, p)
    field = GF(p)
    rank = invariants[0]
    expected = [[0] * n for _ in range(n)]
    if eps == 1:
        for i in range(rank):
            expected[i][i] = 1
        if rank:
            expected[rank - 1][rank - 1] = invariants[1]
            assert invariants[1] in (1, next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) != 1))
    else:
        assert rank % 2 == 0
        for i in range(0, rank, 2):
            expected[i][i + 1], expected[i + 1][i] = 1, p - 1
    if n:
        c = Matrix(field, basis)
        assert c @ Matrix(field, rows) @ c.transpose() == Matrix(field, expected)
        assert c.det() != 0
        assert rank == Matrix(field, rows).rank()


def test_the_f7_pair_is_decided_without_the_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("the one-form path must not search")

    monkeypatch.setattr(sigmamod, "_isometry_search", refuse)
    f7 = GF(7)
    q1, q2 = one_form(f7, F7_B1), one_form(f7, F7_B2)
    assert is_isomorphic(q1, q2) == IsoResult("no")
    assert s_equivalent(q1, q2) == "no"
    # and a moved copy is found isomorphic, with a rechecked witness
    g = Matrix(f7, [[1, 2, 0, 0], [0, 1, 3, 0], [0, 0, 1, 4], [0, 5, 0, 1]])
    moved = act(g, q1)
    found = is_isomorphic(q1, moved)
    assert found.status == "yes"
    assert_witness(q1, moved, found.witness)
    assert s_equivalent(q1, moved) == "yes"
    # the patch is what is_isomorphic calls: over F_2 the same rank
    # invariants for I and the hyperbolic plane leave the pair to the walk
    f2 = GF(2)
    with pytest.raises(AssertionError, match="must not search"):
        is_isomorphic(one_form(f2, [[1, 0], [0, 1]]), one_form(f2, [[0, 1], [1, 0]]))


def test_an_invalid_one_form_module_falls_back_to_the_search():
    # B is not symmetric, so the module breaks its symmetry relation and
    # has no normal form; the search answers, and finds the moved copy
    f5 = GF(5)
    q = one_form(f5, [[0, 1], [0, 0]])
    moved = act(Matrix(f5, [[1, 2], [0, 3]]), q)
    found = is_isomorphic(q, moved)
    assert found.status == "yes"
    assert_witness(q, moved, found.witness)
    # a congruence keeps the symmetric form symmetric: no witness exists
    assert is_isomorphic(q, one_form(f5, [[1, 0], [0, 0]])).status == "no"


def test_one_form_is_decided_before_the_search_size_guards():
    # F_11^5 has 161,050 candidate columns, past the search bound, but
    # one form lists none: 2 is a nonsquare mod 11 and 4 a square
    f11 = GF(11)
    identity = [[int(i == j) for j in range(5)] for i in range(5)]
    scaled = [[c * x for x in row] for c, row in zip((2, 1, 1, 1, 1), identity)]
    squared = [[c * x for x in row] for c, row in zip((4, 1, 1, 1, 1), identity)]
    q = one_form(f11, identity)
    assert is_isomorphic(q, one_form(f11, scaled)) == IsoResult("no")
    found = is_isomorphic(q, one_form(f11, squared))
    assert found.status == "yes"
    assert_witness(q, one_form(f11, squared), found.witness)
    # a form that breaks the symmetry relation goes to the search, which
    # is still refused before it starts
    shift = one_form(f11, [[int(j == i + 1) for j in range(5)] for i in range(5)])
    with pytest.raises(BoundExceededError, match="161050 candidate columns"):
        is_isomorphic(q, shift)
