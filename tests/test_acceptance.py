"""End-to-end acceptance suite.

Each test here pins one headline guarantee of the package at its stated
scale: the constructor refuses every single-entry corruption, the verdict
engine agrees with a bounded weight sweep, destabilizing subgroups hit
their weight bound, graded limits match the assembled graded module
exactly, the worked three-dimensional fixture behaves end to end, fiber
enumerations produce the known group orders, and the Pfaffian suite
holds.  The command line's byte-exact output is pinned once, in
``tests/cli_cases.py``.
"""

import random
import time
from fractions import Fraction

import pytest

from twistmod.errors import StabilityError
from twistmod.hilbert import (
    MINUS_INFINITY,
    OneParamSubgroup,
    destabilizing_1ps,
    limit_at_zero,
    mu,
)
from twistmod.linalg import GF, QQ, Matrix, Subspace, complement_in
from twistmod.sigmamod import (
    TOTALLY_ISOTROPIC,
    InvolutionSpace,
    LinearPiece,
    SigmaModule,
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
from twistmod.stability import (
    STRICTLY_SEMISTABLE,
    UNSTABLE,
    enumerate_totally_isotropic,
    graded,
    hilbert_mumford_sweep,
    iso_filtration,
    semistability_verdict,
)
from twistmod.dualnum import (
    fiber_structure_check,
    pfaffian,
    type_vector,
    unramified_fixed_count,
)


def rand_entry(rng, field):
    if field.kind == "fp":
        return rng.randrange(field.p)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def rand_nonzero(rng, field):
    if field.kind == "fp":
        return rng.randrange(1, field.p)
    return Fraction(rng.randint(1, 5), rng.randint(1, 3))


def rand_matrix(rng, field, n):
    return Matrix(field, [[rand_entry(rng, field) for _ in range(n)] for _ in range(n)])


def rand_invertible(rng, field, n):
    while True:
        g = rand_matrix(rng, field, n)
        if g.det() != field.zero:
            return g


def involution_choices(field):
    return [
        InvolutionSpace.trivial(field),
        InvolutionSpace(field, Matrix.identity(field, 2)),
        InvolutionSpace(field, Matrix(field, [[0, 1], [1, 0]])),
        InvolutionSpace(field, Matrix(field, [[1, 0], [1, -1]])),
    ]


def random_module(rng, field, dim_h, w, sign):
    raw = [rand_matrix(rng, field, dim_h) for _ in range(w.dim)]
    return symmetrize(field, dim_h, w, sign, raw)


def test_validation_catches_every_single_entry_perturbation():
    # 1000 modules per (field, sign) pair; an off-diagonal bump to one
    # coordinate matrix must always break the symmetry relation, so the
    # constructor refuses it
    rng = random.Random(101)
    started = time.monotonic()
    for field in (QQ, GF(3), GF(5)):
        ws = involution_choices(field)
        for sign in (1, -1):
            for _ in range(1000):
                w = rng.choice(ws)
                n = rng.randint(2, 4)
                q = random_module(rng, field, n, w, sign)
                assert validate(q)

                k = rng.randrange(w.dim)
                i = rng.randrange(n)
                j = rng.choice([c for c in range(n) if c != i])
                delta = rand_nonzero(rng, field)
                bumped = list(q.forms)
                rows = [list(r) for r in bumped[k].rows]
                rows[i][j] += delta
                bumped[k] = Matrix(field, rows)
                with pytest.raises(StabilityError, match="^module violates its symmetry relation$"):
                    SigmaModule(field, n, w, sign, bumped)
    assert time.monotonic() - started < 10.0


def test_verdicts_match_bounded_weight_sweep():
    # the subspace criterion and the swept Hilbert-Mumford minimum must
    # call instability identically on small finite-field modules
    rng = random.Random(103)
    started = time.monotonic()
    checked = 0
    while checked < 200:
        field = GF(rng.choice([2, 3]))
        ws = [
            InvolutionSpace.trivial(field),
            InvolutionSpace(field, Matrix(field, [[0, 1], [1, 0]])),
        ]
        w = rng.choice(ws)
        sign = rng.choice([1, -1])
        n = rng.randint(1, 3)
        q = random_module(rng, field, n, w, sign)
        verdict = semistability_verdict(q)
        assert verdict.provenance.kind == "exhaustive"
        swept = hilbert_mumford_sweep(q)
        assert (verdict.status == UNSTABLE) == (swept < 0), (
            q.forms,
            verdict.status,
            swept,
        )
        checked += 1
    assert time.monotonic() - started < 300.0


def _alpha_block_nonzero(q, v, perp):
    dual = complement_in(perp, Subspace.full(q.field, q.dim_h))
    if dual.is_zero():
        return False
    return any(
        dotform(q.field, c, b, x) != q.field.zero
        for b in q.forms
        for c in dual.basis.rows
        for x in v.basis.rows
    )


def _check_weight_bound(q, v):
    perp = orthogonal(q, v)
    d, h1, n = v.dim, perp.dim, q.dim_h
    bound = 2 * (n - d - h1)
    value = mu(destabilizing_1ps(q, v), q)
    alpha_nonzero = _alpha_block_nonzero(q, v, perp)
    qprime_nonzero = not isotropic_reduction(q, v).module.is_zero()
    if value is MINUS_INFINITY:
        assert not (alpha_nonzero or qprime_nonzero)
    else:
        assert value <= bound
        if alpha_nonzero or qprime_nonzero:
            assert value == bound
    if d + h1 > n:
        assert value < 0


def test_destabilizing_subgroup_weight_bound():
    # mu(lambda_V, q) <= 2(dim H - dim V - dim perp), with equality as
    # soon as the pairing against the dual model or the reduced form
    # survives, and strictly negative whenever V plus its perp overfill H
    rng = random.Random(107)
    f3 = GF(3)
    triv3 = InvolutionSpace.trivial(f3)
    swap3 = InvolutionSpace(f3, Matrix(f3, [[0, 1], [1, 0]]))
    pairs_fp = 0
    while pairs_fp < 300:
        w = rng.choice([triv3, swap3])
        q = random_module(rng, f3, rng.randint(2, 4), w, rng.choice([1, -1]))
        for v in list(enumerate_totally_isotropic(q))[:4]:
            _check_weight_bound(q, v)
            pairs_fp += 1

    trivq = InvolutionSpace.trivial(QQ)
    pairs_q = 0
    while pairs_q < 220:
        sign = rng.choice([1, -1])
        d = rng.randint(1, 2)
        alpha = LinearPiece(
            (rng.choice([rand_matrix(rng, QQ, d), Matrix.zeros(QQ, d, d)]),)
        )
        q = hyperbolic_module(alpha, trivq, sign)
        if rng.random() < 0.5 and q.dim_h < 4:
            core = random_module(rng, QQ, rng.randint(1, 4 - q.dim_h), trivq, sign)
            q = direct_sum(q, core)
        g = rand_invertible(rng, QQ, q.dim_h)
        moved = act(g, q)
        basis = Matrix(
            QQ, [[QQ.one if c == r else QQ.zero for c in range(q.dim_h)] for r in range(d)]
        )
        v = Subspace(QQ, q.dim_h, (basis @ g.transpose()).rows)
        assert isotropy_class(moved, v) == TOTALLY_ISOTROPIC
        _check_weight_bound(moved, v)
        pairs_q += 1
    assert pairs_fp + pairs_q >= 500


def test_graded_limit_identity_on_strictly_semistable_modules():
    # for the canonical filtration subgroup, the limit at zero read in
    # the adapted basis must equal the assembled graded module exactly,
    # and grading twice must not change the isomorphism class
    rng = random.Random(109)
    f3 = GF(3)
    triv = InvolutionSpace.trivial(f3)
    swap = InvolutionSpace(f3, Matrix(f3, [[0, 1], [1, 0]]))
    found = 0
    while found < 100:
        w = rng.choice([triv, swap])
        sign = rng.choice([1, -1])
        style = rng.randrange(3)
        if style == 0:
            q = random_module(rng, f3, rng.randint(2, 4), w, sign)
        elif style == 1:
            d = rng.randint(1, 2)
            alpha = LinearPiece(tuple(rand_matrix(rng, f3, d) for _ in range(w.dim)))
            q = act(rand_invertible(rng, f3, 2 * d), hyperbolic_module(alpha, w, sign))
        else:
            alpha = LinearPiece(tuple(rand_matrix(rng, f3, 1) for _ in range(w.dim)))
            hyp = hyperbolic_module(alpha, w, sign)
            core = random_module(rng, f3, rng.randint(1, 2), w, sign)
            q = act(rand_invertible(rng, f3, 2 + core.dim_h), direct_sum(hyp, core))
        verdict = semistability_verdict(q)
        assert verdict.provenance.kind == "exhaustive"
        if verdict.status != STRICTLY_SEMISTABLE:
            continue
        g = graded(q)
        limit = limit_at_zero(g.canonical_1ps, q)
        assert limit is not None
        assert act(g.transform.inverse(), limit) == g.assembled
        again = graded(g.assembled)
        assert is_isomorphic(g.assembled, again.assembled).status == "yes"
        found += 1


def test_worked_fixture_end_to_end():
    q = SigmaModule(
        QQ,
        3,
        InvolutionSpace.trivial(QQ),
        1,
        [Matrix(QQ, [[0, 0, 1], [0, 1, 1], [1, 1, 1]])],
    )
    verdict = semistability_verdict(q)
    assert verdict.status == STRICTLY_SEMISTABLE

    filtration = iso_filtration(q)
    assert filtration.chain == (Subspace(QQ, 3, [[QQ.one, QQ.zero, QQ.zero]]),)

    g = graded(q)
    expected = Matrix(QQ, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert g.assembled.forms == (expected,)

    lam = OneParamSubgroup.from_diagonal_weights(QQ, (1, 0, -1))
    assert limit_at_zero(lam, q) == g.assembled


def test_fiber_structure_counts():
    started = time.monotonic()
    for p, so_order in ((2, 2), (3, 4)):
        field = GF(p)
        report = fiber_structure_check(field, 2, "plus")
        assert report.ok
        assert report.image_count == so_order
        assert report.kernel_count == p * p  # traceless symmetric 2x2
        assert report.kernel_dim == 2
        assert report.fixed_count == so_order * p * p

        assert unramified_fixed_count(field, 2) == {2: 6, 3: 24}[p]

        j = Matrix(field, [[0, 1], [-1, 0]])
        alt = fiber_structure_check(field, 2, "alternating", m=j)
        assert alt.ok
        assert alt.projection_ok
        assert alt.image_count == {2: 6, 3: 24}[p]  # Sp_2 = SL_2
    assert time.monotonic() - started < 60.0


def test_pfaffian_and_type_suite():
    j2 = Matrix(QQ, [[0, 1], [-1, 0]])
    assert pfaffian(j2) == 1

    rng = random.Random(113)
    count = 0
    for n in (2, 4, 6):
        for _ in range(34):
            raw = Matrix(
                QQ,
                [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(n)],
            )
            a = raw - raw.transpose()
            assert pfaffian(a) ** 2 == a.det()
            count += 1
    assert count >= 100

    # on two points only +1 entries survive normalization in one class
    seen = set()
    for s1 in (1, -1):
        for s2 in (1, -1):
            seen.add(type_vector([j2.scale(Fraction(s1)), j2.scale(Fraction(s2))]))
    assert len(seen) == 2 == 2 ** (2 * 1 - 1)
