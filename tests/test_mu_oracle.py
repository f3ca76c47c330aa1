"""``mu`` and ``block_exponents`` against the full block table.

``hilbert.mu`` reads the weight from the first nonzero block in
descending order of a_i + a_j, on plain ints, without forming T^T B_k T.
The oracle in ``tests/oracles.py`` forms every T^T B_k T with its own
scalar operations and takes max(a_i + a_j) over the nonzero blocks.
"""

from fractions import Fraction

import pytest

from twistmod.hilbert import MINUS_INFINITY, OneParamSubgroup, block_exponents, mu
from twistmod.linalg import GF, QQ, Matrix, Subspace
from twistmod.sigmamod import InvolutionSpace, SigmaModule, act, symmetrize

from builders import diag_lambda, module_1form
from oracles import adapted_block_table, mu_by_full_table

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def _entry(draw, field):
    if field.kind == "fp":
        return draw(st.integers(0, field.p - 1))
    return Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))


@st.composite
def modules_and_subgroups(draw):
    """(lam, q) over F_2, F_3, F_5, F_7 or QQ with dim H <= 4.

    lam comes from a random invertible adapted basis P L U (P a
    permutation, L unit lower, U upper triangular with a nonzero
    diagonal) cut into pieces, with weights a_i = n b_i - sum(b_j dim H_j)
    for strictly decreasing b_i, so sum(a_i dim H_i) = 0.  q has the
    trivial or the swap involution and either sign; it is drawn in the
    adapted basis with each pair of blocks {(i, j), (j, i)} kept or
    zeroed, and each entry of a kept block drawn or zeroed, so a block
    can be nonzero through one basis vector alone; it is symmetrised
    there and moved to the standard basis.  So mu takes every sign, and
    the zero module (no block kept) comes up too.
    """
    field = draw(st.sampled_from((GF(2), GF(3), GF(5), GF(7), QQ)))
    n = draw(st.integers(1, 4))
    sign = draw(st.sampled_from((1, -1)))
    swap = draw(st.booleans())
    s = Matrix(field, [[0, 1], [1, 0]]) if swap else Matrix.identity(field, 1)
    w = InvolutionSpace(field, s)

    def nonzero():
        if field.kind == "fp":
            return draw(st.integers(1, field.p - 1))
        return Fraction(draw(st.sampled_from((-3, -2, -1, 1, 2, 3))), draw(st.integers(1, 3)))

    def triangle(diagonal, below):
        return Matrix(field, [
            [diagonal() if i == j else _entry(draw, field) if (j < i) == below else 0
             for j in range(n)]
            for i in range(n)
        ])

    lower, upper = triangle(lambda: 1, True), triangle(nonzero, False)
    order = draw(st.permutations(range(n)))
    adapted = [(lower @ upper).rows[i] for i in order]

    k = draw(st.integers(1, n))
    cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), min_size=k - 1, max_size=k - 1)))
    bounds = [0, *cuts, n]
    dims = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    gaps = [draw(st.integers(1, 3)) for _ in dims]
    b = [sum(gaps[i:]) for i in range(k)]
    total = sum(bi * d for bi, d in zip(b, dims))
    pieces = [
        (Subspace(field, n, adapted[lo:hi]), n * bi - total)
        for lo, hi, bi in zip(bounds, bounds[1:], b)
    ]

    piece_of = [i for i, d in enumerate(dims) for _ in range(d)]
    kept = {(i, j) for i in range(k) for j in range(i, k) if draw(st.booleans())}
    raw = [
        Matrix(field, [
            [_entry(draw, field) if (min(x, y), max(x, y)) in kept and draw(st.booleans()) else 0
             for x, y in ((piece_of[r], piece_of[c]) for c in range(n))]
            for r in range(n)
        ])
        for _ in range(w.dim)
    ]
    in_adapted = symmetrize(field, n, w, sign, raw)
    lam = OneParamSubgroup(pieces)
    return lam, act(lam.transform(), in_adapted)


def _zero_module_case():
    field = GF(3)
    q = SigmaModule(field, 2, InvolutionSpace.trivial(field), 1, [Matrix.zeros(field, 2, 2)])
    return diag_lambda(field, [1, -1]), q


def _second_vector_case():
    # one piece, span(e1, e2), and B = diag(0, 1) over QQ: the block is
    # nonzero through e2 alone
    return diag_lambda(QQ, [0, 0]), module_1form(QQ, [[0, 0], [0, 1]])


def _positive_mu_case():
    # <1> + <1> over F_5 against weights (1, -1): block (0, 0) is nonzero
    q = module_1form(GF(5), [[1, 0], [0, 1]])
    return diag_lambda(GF(5), [1, -1]), q


@settings(max_examples=200)
@given(modules_and_subgroups())
@example(_zero_module_case())
@example(_positive_mu_case())
@example(_second_vector_case())
def test_mu_is_the_largest_weight_sum_of_the_full_block_table(case):
    lam, q = case
    expected = mu_by_full_table(lam, q)
    assert mu(lam, q) == (MINUS_INFINITY if expected is None else expected)
    table = adapted_block_table(lam, q)
    weights = lam.weights
    blocks = block_exponents(lam, q)
    assert blocks.keys() == table.keys()
    for (i, j), info in blocks.items():
        assert info == (-(weights[i] + weights[j]), table[i, j])


def test_the_pinned_mu_cases_cover_minus_infinity_and_a_positive_weight():
    lam, q = _zero_module_case()
    assert mu(lam, q) is MINUS_INFINITY and mu_by_full_table(lam, q) is None
    lam, q = _positive_mu_case()
    assert mu(lam, q) == mu_by_full_table(lam, q) == 2
