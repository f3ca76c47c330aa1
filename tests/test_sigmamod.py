"""Tests for twisted modules: symmetry, orthogonals, isotropy, reductions.

The isomorphism decision is cross-checked against an exhaustive GL_2(F_3)
enumeration written from scratch here.
"""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from twistmod.errors import FieldError, IsotropyError, SingularMatrixError
from twistmod.linalg import GF, QQ, Matrix, Subspace, isometries, rank_mod_p
from twistmod.sigmamod import (
    NOT_ISOTROPIC,
    SIGMA_ISOTROPIC,
    TOTALLY_ISOTROPIC,
    InvolutionSpace,
    IsoResult,
    LinearPiece,
    SigmaModule,
    _congruence_invariants_match,
    _isometry_search,
    act,
    direct_sum,
    dotform,
    hyperbolic_module,
    is_isomorphic,
    isotropic_reduction,
    isotropy_class,
    orthogonal,
    symmetrize,
    validate,
)

from oracles import all_combinations_invariants_match, dot, elements, vec_mat, vectors_of


def trivial_w(field):
    return InvolutionSpace.trivial(field)


def module_1form(field, rows, sign=1):
    b = Matrix(field, rows)
    return SigmaModule(field, b.nrows, trivial_w(field), sign, [b])


def swap_w(field):
    return InvolutionSpace(field, Matrix(field, [[0, 1], [1, 0]]))


def random_module(rng, field, dim_h, w, sign):
    def rand_entry():
        if field.kind == "fp":
            return rng.randrange(field.p)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    raw = [
        Matrix(field, [[rand_entry() for _ in range(dim_h)] for _ in range(dim_h)])
        for _ in range(w.dim)
    ]
    return symmetrize(field, dim_h, w, sign, raw)


# -- value space and validation --------------------------------------------


def test_involution_must_square_to_identity():
    with pytest.raises(Exception, match="involution not idempotent"):
        InvolutionSpace(QQ, Matrix(QQ, [[1, 1], [0, 1]]))
    # diag(1,-1), the swap, and -I are all fine
    for rows in ([[1, 0], [0, -1]], [[0, 1], [1, 0]], [[-1, 0], [0, -1]]):
        InvolutionSpace(QQ, Matrix(QQ, rows))


def test_validate_worked_examples():
    # symmetric B with trivial W and sign +1
    assert validate(module_1form(QQ, [[0, 1], [1, 0]]))
    # B = [[0,1],[-1,0]] with sign +1 and trivial sigma is *not* valid
    assert not validate(module_1form(QQ, [[0, 1], [-1, 0]]))
    # ... but is valid with sign -1
    assert validate(module_1form(QQ, [[0, 1], [-1, 0]], sign=-1))
    # swap involution on W pairs B_1 with B_2^T
    w = swap_w(QQ)
    b1 = Matrix(QQ, [[0, 1], [0, 0]])
    b2 = Matrix(QQ, [[0, 0], [1, 0]])
    assert validate(SigmaModule(QQ, 2, w, 1, [b1, b2]))
    assert not validate(SigmaModule(QQ, 2, w, 1, [b1, b1]))


def test_symmetrize_produces_valid_modules_and_single_perturbations_break():
    rng = random.Random(101)
    for field in (QQ, GF(3), GF(5)):
        for sign in (1, -1):
            for _ in range(25):
                dim_h = rng.randint(2, 4)
                w = swap_w(field) if rng.random() < 0.5 else trivial_w(field)
                q = random_module(rng, field, dim_h, w, sign)
                assert validate(q)
                # perturb one strictly off-diagonal entry: always breaks
                k = rng.randrange(w.dim)
                i = rng.randrange(dim_h)
                j = rng.randrange(dim_h)
                while j == i:
                    j = rng.randrange(dim_h)
                rows = [list(r) for r in q.forms[k].rows]
                rows[i][j] += field.one
                forms = list(q.forms)
                forms[k] = Matrix(field, rows)
                assert not validate(SigmaModule(field, dim_h, w, sign, forms))


# -- orthogonal and isotropy ------------------------------------------------


def test_orthogonal_worked_examples():
    # hyperbolic plane: orthogonal of span{e1} is span{e1} itself
    q = module_1form(QQ, [[0, 1], [1, 0]])
    v = Subspace(QQ, 2, [[1, 0]])
    assert orthogonal(q, v) == v
    # forms whose first two columns vanish: orthogonal of span{e1,e2} is all of H
    q = module_1form(QQ, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    v = Subspace(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    assert orthogonal(q, v) == Subspace.full(QQ, 3)
    # the dim-3 worked module
    q = module_1form(QQ, [[0, 0, 1], [0, 1, 1], [1, 1, 1]])
    assert orthogonal(q, Subspace(QQ, 3, [[1, 0, 0]])) == Subspace(
        QQ, 3, [[1, 0, 0], [0, 1, 0]]
    )


def test_orthogonal_is_linear_in_v():
    rng = random.Random(103)
    field = GF(3)
    for _ in range(20):
        q = random_module(rng, field, 3, trivial_w(field), 1)
        lines = [Subspace(field, 3, [v]) for v in vectors_of(field, 3) if any(v)]
        a, b = rng.choice(lines), rng.choice(lines)
        assert orthogonal(q, a.sum(b)) == orthogonal(q, a).intersect(orthogonal(q, b))


def test_isotropy_worked_examples():
    # hyperbolic plane: span{e1} is totally isotropic
    q = module_1form(QQ, [[0, 1], [1, 0]])
    assert isotropy_class(q, Subspace(QQ, 2, [[1, 0]])) == TOTALLY_ISOTROPIC
    # diag(1,1) over F_5: (1,2) spans a totally isotropic line
    q5 = module_1form(GF(5), [[1, 0], [0, 1]])
    assert isotropy_class(q5, Subspace(GF(5), 2, [[1, 2]])) == TOTALLY_ISOTROPIC
    assert isotropy_class(q5, Subspace(GF(5), 2, [[1, 1]])) == NOT_ISOTROPIC
    # diag(1,1) over F_3: no isotropic lines at all
    q3 = module_1form(GF(3), [[1, 0], [0, 1]])
    for v in ([1, 0], [0, 1], [1, 1], [1, 2]):
        assert isotropy_class(q3, Subspace(GF(3), 2, [v])) == NOT_ISOTROPIC
    # a plane meeting its orthogonal without being contained in it
    q = module_1form(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    v = Subspace(QQ, 3, [[1, 0, 0], [0, 0, 1]])
    assert isotropy_class(q, v) == SIGMA_ISOTROPIC
    with pytest.raises(IsotropyError):
        isotropy_class(q, Subspace.zero(QQ, 3))


def test_totally_isotropic_iff_all_basis_grams_vanish():
    rng = random.Random(107)
    field = GF(3)
    for _ in range(30):
        w = swap_w(field) if rng.random() < 0.5 else trivial_w(field)
        q = random_module(rng, field, 3, w, rng.choice((1, -1)))
        for v in (Subspace(field, 3, [u]) for u in vectors_of(field, 3) if any(u)):
            by_def = all(
                q.pairs_to_zero(x, y)
                for x in v.basis.rows
                for y in v.basis.rows
            )
            assert (isotropy_class(q, v) == TOTALLY_ISOTROPIC) == by_def


# -- reduction ---------------------------------------------------------------


def test_reduced_form_worked_examples():
    # hyperbolic plane reduced by span{e1}: zero-dimensional module
    q = module_1form(QQ, [[0, 1], [1, 0]])
    reduced = isotropic_reduction(q, Subspace(QQ, 2, [[1, 0]])).module
    assert reduced.dim_h == 0
    # the dim-3 worked module reduces to the 1-dim module [1]
    q = module_1form(QQ, [[0, 0, 1], [0, 1, 1], [1, 1, 1]])
    reduced = isotropic_reduction(q, Subspace(QQ, 3, [[1, 0, 0]])).module
    assert reduced.dim_h == 1
    assert reduced.forms[0] == Matrix(QQ, [[1]])
    with pytest.raises(IsotropyError):
        isotropic_reduction(q, Subspace(QQ, 3, [[0, 1, 0]]))


def test_reduced_form_is_valid_and_has_quotient_dimension():
    rng = random.Random(109)
    field = GF(3)
    for _ in range(40):
        w = swap_w(field) if rng.random() < 0.5 else trivial_w(field)
        q = random_module(rng, field, rng.randint(2, 4), w, rng.choice((1, -1)))
        found = None
        for v in (
            Subspace(field, q.dim_h, [u]) for u in vectors_of(field, q.dim_h) if any(u)
        ):
            if isotropy_class(q, v) == TOTALLY_ISOTROPIC:
                found = v
                break
        if found is None:
            continue
        perp = orthogonal(q, found)
        reduced = isotropic_reduction(q, found).module
        assert validate(reduced)
        assert reduced.dim_h == perp.dim - found.dim


# -- hyperbolic modules ------------------------------------------------------


def test_hyperbolic_worked_examples():
    w = trivial_w(QQ)
    one = LinearPiece((Matrix(QQ, [[1]]),))
    assert hyperbolic_module(one, w, 1).forms[0] == Matrix(
        QQ, [[0, 1], [1, 0]]
    )
    assert hyperbolic_module(one, w, -1).forms[0] == Matrix(
        QQ, [[0, -1], [1, 0]]
    )
    diag = LinearPiece((Matrix(QQ, [[1, 0], [0, 2]]),))
    q = hyperbolic_module(diag, w, 1)
    assert q.forms[0] == Matrix(
        QQ, [[0, 0, 1, 0], [0, 0, 0, 2], [1, 0, 0, 0], [0, 2, 0, 0]]
    )
    assert q.forms[0].det() == 4
    # a non-square piece: V of dim 2, its dual part of dim 1, so the
    # corner blocks are 2 x 2 and 1 x 1
    wide = LinearPiece((Matrix(QQ, [[1, 2]]),))
    assert (wide.vee_dim, wide.v_dim) == (1, 2)
    assert hyperbolic_module(wide, w, 1).forms[0] == Matrix(
        QQ, [[0, 0, 1], [0, 0, 2], [1, 2, 0]]
    )
    assert hyperbolic_module(wide, w, -1).forms[0] == Matrix(
        QQ, [[0, 0, -1], [0, 0, -2], [1, 2, 0]]
    )


def test_hyperbolic_is_valid_for_arbitrary_alpha():
    rng = random.Random(113)
    for field in (QQ, GF(3)):
        for sign in (1, -1):
            for w in (trivial_w(field), swap_w(field)):
                for _ in range(10):
                    m = rng.randint(1, 2)
                    alpha = tuple(
                        Matrix(
                            field,
                            [[rng.randint(0, 4) for _ in range(m)] for _ in range(m)],
                        )
                        for _ in range(w.dim)
                    )
                    q = hyperbolic_module(LinearPiece(alpha), w, sign)
                    assert validate(q)
                    # the isotropic summand is genuinely totally isotropic
                    v = Subspace(
                        field,
                        2 * m,
                        [
                            [field.one if j == i else field.zero for j in range(2 * m)]
                            for i in range(m)
                        ],
                    )
                    assert isotropy_class(q, v) == TOTALLY_ISOTROPIC


# -- group action ------------------------------------------------------------


def test_act_scalar_worked_example():
    q = module_1form(QQ, [[0, 1], [1, 0]])
    g = Matrix(QQ, [[2, 0], [0, 2]])
    assert act(g, q).forms[0] == Matrix(
        QQ, [[QQ.zero, QQ.parse("1/4")], [QQ.parse("1/4"), QQ.zero]]
    )


def test_act_is_a_left_action_preserving_validity():
    rng = random.Random(127)
    field = GF(5)
    w = swap_w(field)
    for _ in range(20):
        q = random_module(rng, field, 3, w, -1)
        gs = []
        while len(gs) < 2:
            g = Matrix(field, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
            if g.det() != field.zero:
                gs.append(g)
        g, h = gs
        assert act(g.mul(h), q) == act(g, act(h, q))
        assert validate(act(g, q))
        # isotropic subspaces transport along g
        for u in vectors_of(field, 3):
            if not any(u):
                continue
            v = Subspace(field, 3, [u])
            assert isotropy_class(q, v) == isotropy_class(act(g, q), v.apply(g))
    with pytest.raises(SingularMatrixError):
        act(Matrix.zeros(field, 3, 3), q)


# -- isomorphism -------------------------------------------------------------


def brute_force_iso_gl2(q1, q2):
    """Oracle: try every invertible 2x2 matrix over the base prime field."""
    field = q1.field
    for rows in itertools.product(vectors_of(field, 2), repeat=2):
        f = Matrix(field, rows).transpose()
        if f.det() == field.zero:
            continue
        ft = f.transpose()
        if all(
            ft.mul(b2).mul(f) == b1 for b1, b2 in zip(q1.forms, q2.forms)
        ):
            return f
    return None


def test_isomorphism_worked_example_f3():
    # hyperbolic plane vs diag(2,1) over F_3: isomorphic
    q1 = module_1form(GF(3), [[0, 1], [1, 0]])
    q2 = module_1form(GF(3), [[2, 0], [0, 1]])
    result = is_isomorphic(q1, q2)
    assert result.status == "yes"
    oracle = brute_force_iso_gl2(q1, q2)
    assert oracle is not None
    # hyperbolic plane vs diag(1,1) over F_3: not isomorphic
    q3 = module_1form(GF(3), [[1, 0], [0, 1]])
    assert is_isomorphic(q1, q3).status == "no"
    assert brute_force_iso_gl2(q1, q3) is None
    # one path, invariants then search; a stale positional mode does
    # not bind to the node budget
    with pytest.raises(TypeError):
        is_isomorphic(q1, q2, "auto")
    assert is_isomorphic(q1, q2, node_budget=1_000).status == "yes"


def test_isomorphism_matches_brute_force_on_random_pairs():
    rng = random.Random(131)
    field = GF(3)
    for w_factory in (trivial_w, swap_w):
        w = w_factory(field)
        for sign in (1, -1):
            for _ in range(15):
                q1 = random_module(rng, field, 2, w, sign)
                q2 = random_module(rng, field, 2, w, sign)
                got = is_isomorphic(q1, q2)
                oracle = brute_force_iso_gl2(q1, q2)
                assert got.status == ("yes" if oracle is not None else "no")


def test_isomorphism_recognizes_acted_modules():
    rng = random.Random(137)
    field = GF(3)
    w = swap_w(field)
    for _ in range(10):
        q = random_module(rng, field, 3, w, 1)
        g = None
        while g is None:
            cand = Matrix(field, [[rng.randrange(3) for _ in range(3)] for _ in range(3)])
            if cand.det() != field.zero:
                g = cand
        result = is_isomorphic(q, act(g, q))
        assert result.status == "yes"
        f = result.witness
        assert all(
            f.transpose().mul(b2).mul(f) == b1
            for b1, b2 in zip(q.forms, act(g, q).forms)
        )


def test_isomorphism_over_q_is_a_semi_decision():
    q1 = module_1form(QQ, [[0, 1], [1, 0]])
    q2 = module_1form(QQ, [[1, 0], [0, -1]])  # witnessed with half-integer entries
    assert is_isomorphic(q1, q2).status == "yes"
    # rank invariants refute
    q3 = module_1form(QQ, [[1, 0], [0, 0]])
    assert is_isomorphic(q1, q3).status == "no"
    # never a false "no" when the search is inconclusive
    q4 = module_1form(QQ, [[2, 0], [0, -2]])
    assert is_isomorphic(q1, q4).status in ("yes", "unknown")
    with pytest.raises(FieldError):
        is_isomorphic(q1, module_1form(QQ, [[0, -1], [1, 0]], sign=-1))


def test_isomorphism_over_q_answers_unknown_when_the_search_runs_out():
    one, four, three = (module_1form(QQ, [[a]]) for a in (1, 4, 3))
    # the witness f = 1/2 (1 = f 4 f) is the fifth box candidate, after 1, -1, 2 and -2
    assert is_isomorphic(one, four, node_budget=4) == IsoResult("unknown")
    found = is_isomorphic(one, four, node_budget=5)
    assert found.status == "yes" and found.witness == Matrix(QQ, [[Fraction(1, 2)]])
    # <1> and <3> are not isomorphic (3 is no rational square), but the
    # box search over QQ cannot refute; ROADMAP item 1, the quadratic-form
    # layer for dim W = 1, will turn this answer into "no"
    assert is_isomorphic(one, three) == IsoResult("unknown")


# The search as it ran on field elements, before it moved to plain ints:
# generic Field ops, Fractions and Matrix.rank.  It is the reference the
# int path must match answer for answer; the invariants are checked
# against oracles.all_combinations_invariants_match, which tests every
# coefficient vector.


def reference_isometry_search(q1, q2, node_budget):
    field = q1.field
    n = q1.dim_h
    if n == 0:
        return Matrix(field, []), True
    if field.kind == "fp":
        box = elements(field)
    else:
        box = [Fraction(c) for c in (0, 1, -1, 2, -2)] + [Fraction(1, 2), Fraction(-1, 2)]
    candidates = [v for v in itertools.product(box, repeat=n) if any(e != field.zero for e in v)]
    targets, b2 = q1.forms, q2.forms
    chosen = []
    budget = [node_budget]
    visits = []

    def gram_ok(c):
        visits.append(c)
        i = len(chosen)
        if any(dotform(field, c, b, c) != t[i][i] for b, t in zip(b2, targets)):
            return False
        for b, t in zip(b2, targets):
            bc, cb = b.mat_vec(c), vec_mat(b, c)
            for j in range(i):
                if dot(field, chosen[j], bc) != t[j][i] or dot(field, cb, chosen[j]) != t[i][j]:
                    return False
        return True

    def extend():
        if len(chosen) == n:
            return Matrix(field, chosen).transpose(), True
        complete = True
        for c in candidates:
            if budget[0] <= 0:
                return None, False
            budget[0] -= 1
            if not gram_ok(c):
                continue
            if Matrix(field, chosen + [list(c)]).rank() != len(chosen) + 1:
                continue
            chosen.append(tuple(c))
            found, sub_complete = extend()
            chosen.pop()
            if found is not None:
                return found, True
            complete = complete and sub_complete
        return None, complete

    return extend(), len(visits)


def int_search(q1, q2, node_budget):
    """_isometry_search with its visits: calls of the gram_ok nested in
    linalg.isometries, the walk it runs."""
    visits = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is gram_ok_code:
            visits[0] += 1

    gram_ok_code = next(
        c for c in isometries.__code__.co_consts if getattr(c, "co_name", None) == "gram_ok"
    )
    sys.setprofile(profile)
    try:
        result = _isometry_search(q1, q2, node_budget)
    finally:
        sys.setprofile(None)
    return result, visits[0]


def random_invertible(rng, field, n, entries):
    while True:
        g = Matrix(field, [[rng.choice(entries) for _ in range(n)] for _ in range(n)])
        if g.det() != field.zero:
            return g


def oracle_pairs(rng, field, n, w, sign, count):
    """Pairs (q, act(g, q)), isomorphic, and (q, q'), mostly not."""
    entries = elements(field) if field.kind == "fp" else [Fraction(c) for c in (0, 1, -1, 2)]
    for _ in range(count):
        q = random_module(rng, field, n, w, sign)
        yield q, act(random_invertible(rng, field, n, entries), q)
        yield q, random_module(rng, field, n, w, sign)


def assert_search_matches(q1, q2, node_budget):
    # same witness, same exhausted flag, and the same candidates visited
    expected = reference_isometry_search(q1, q2, node_budget)
    assert int_search(q1, q2, node_budget) == expected
    return expected


@pytest.mark.parametrize("p", [2, 3, 5])
def test_int_search_and_invariants_match_the_field_reference_over_fp(p):
    rng = random.Random(1000 + p)
    field = GF(p)
    outcomes = set()
    for n in (2, 3):
        for w in (trivial_w(field), swap_w(field)):
            for sign in (1, -1):
                for q1, q2 in oracle_pairs(rng, field, n, w, sign, 2):
                    assert _congruence_invariants_match(q1, q2) == all_combinations_invariants_match(q1, q2)
                    for budget in (1, 7, 50, 500_000 if p ** n < 64 else 2_000):
                        (witness, exhausted), _ = assert_search_matches(q1, q2, budget)
                        outcomes.add((witness is not None, exhausted))
    # found, refuted after a full search, and cut by the budget all occur
    assert {(True, True), (False, True), (False, False)} <= outcomes


def test_int_search_and_invariants_match_the_field_reference_over_qq():
    rng = random.Random(2024)
    outcomes = set()
    for dens in ((1, 2), (1, 3)):

        def entry():
            return Fraction(rng.choice((0, 0, 1, -1, 2)), rng.choice(dens))

        for n in (2, 3):
            for w in (trivial_w(QQ), swap_w(QQ)):
                for sign in (1, -1):
                    q = symmetrize(QQ, n, w, sign, [
                        Matrix(QQ, [[entry() for _ in range(n)] for _ in range(n)]) for _ in range(w.dim)
                    ])
                    small = [Fraction(c) for c in (0, 1, -1)]
                    others = [act(random_invertible(rng, QQ, n, small), q)]
                    others.append(act(Matrix(QQ, [[Fraction(1, 2) if i == j else 0 for j in range(n)] for i in range(n)]), q))
                    for q2 in others:
                        assert _congruence_invariants_match(q, q2) == all_combinations_invariants_match(q, q2)
                        for budget in (1, 7, 50, 500_000 if n == 2 else 3_000):
                            (witness, exhausted), _ = assert_search_matches(q, q2, budget)
                            outcomes.add((witness is not None, exhausted))
    assert {(True, True), (False, False)} <= outcomes


def test_invariants_reduce_a_combination_that_vanishes_only_mod_p():
    # over F_3 with the swap involution, c_1 B_1 + c_2 B_2 can have entries
    # such as 3 or 6 as raw ints: zero mod 3, and a rank that took them for
    # pivots would differ between isomorphic modules, a false "no"
    rng = random.Random(7)
    field = GF(3)
    w = swap_w(field)
    misled = 0
    for _ in range(40):
        q = random_module(rng, field, 2, w, 1)
        q2 = act(random_invertible(rng, field, 2, elements(field)), q)
        for coeffs in itertools.product(range(3), repeat=2):
            raw = [
                [[sum(c * b.rows[i][j] for c, b in zip(coeffs, m.forms)) for j in range(2)] for i in range(2)]
                for m in (q, q2)
            ]
            if rank_mod_p(raw[0], 3) != rank_mod_p(raw[1], 3):
                misled += 1
        assert all_combinations_invariants_match(q, q2)
        assert _congruence_invariants_match(q, q2)
        assert is_isomorphic(q, q2).status == "yes"
    assert misled > 0


@pytest.mark.parametrize("field", [GF(3), GF(5), QQ], ids=["F3", "F5", "QQ"])
def test_one_rank_per_projective_point_matches_every_coefficient_vector(field):
    # rank(c M) = rank(M) for c != 0: the package tests one coefficient
    # vector per projective point, the oracle every nonzero vector
    rng = random.Random(31 + (field.p if field.kind == "fp" else 0))
    entries = elements(field) if field.kind == "fp" else [Fraction(c) for c in (0, 1, -1, 2)]
    answers = set()
    for w in (trivial_w(field), swap_w(field)):
        for sign in (1, -1):
            for n in (2, 3):
                for _ in range(3):
                    q1 = random_module(rng, field, n, w, sign)
                    # g^T B g with a singular g keeps the symmetry relation, not the rank
                    g = Matrix(field, [[int(i == j < n - 1) for j in range(n)] for i in range(n)])
                    squeezed = SigmaModule(field, n, w, sign, [g.transpose() @ b @ g for b in q1.forms])
                    moved = act(random_invertible(rng, field, n, entries), q1)
                    for q2 in (moved, squeezed, random_module(rng, field, n, w, sign)):
                        answer = _congruence_invariants_match(q1, q2)
                        assert answer == all_combinations_invariants_match(q1, q2)
                        answers.add(answer)
    assert answers == {True, False}


@pytest.mark.parametrize("field", [GF(3), QQ], ids=["F3", "QQ"])
def test_invariants_refute_by_a_combination_alone(field):
    # with the swap involution the forms are A and A^T.  A and C below
    # agree in rank (2) and stacked rank (3), but A + A^T has rank 3 and
    # C + C^T rank 2: only the combination (1, 1) tells them apart
    w = swap_w(field)
    a = Matrix(field, [[0, 1, 0], [0, 0, 0], [0, 0, 1]])
    c = Matrix(field, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    qa = SigmaModule(field, 3, w, 1, [a, a.transpose()])
    qc = SigmaModule(field, 3, w, 1, [c, c.transpose()])
    assert validate(qa) and validate(qc)
    assert not _congruence_invariants_match(qa, qc)
    assert not all_combinations_invariants_match(qa, qc)
    assert is_isomorphic(qa, qc).status == "no"


def test_direct_sum_validates_and_distributes_isotropy():
    q1 = module_1form(QQ, [[0, 1], [1, 0]])
    q2 = module_1form(QQ, [[1]])
    s = direct_sum(q1, q2)
    assert s.dim_h == 3
    assert validate(s)
    assert isotropy_class(s, Subspace(QQ, 3, [[1, 0, 0]])) == TOTALLY_ISOTROPIC
