"""The filtration levels, the certificates and the Gram walk read off
what the scan and the runs already hold; these tests keep the formulas
they replace as the reference.

A level's dual was _complement(perp) of the public orthogonal, its
pairing alpha_k = dual.basis B_k v^T and its rows in H dual.basis times
the model rows; a certificate's outer piece was _complement(perp); a
Gram candidate's diagonal was c^T M_k c.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from twistmod import linalg, sigmamod, stability
from twistmod.errors import StabilityError
from twistmod.hilbert import OneParamSubgroup
from twistmod.linalg import (
    GF,
    QQ,
    Matrix,
    Subspace,
    _complement,
    _gram_candidates,
    _units,
    isometries,
)
from twistmod.sigmamod import (
    InvolutionSpace,
    LinearPiece,
    SigmaModule,
    _DOUBLED_BOX,
    act,
    direct_sum,
    hyperbolic_module,
    isotropic_reduction,
    orthogonal,
    symmetrize,
)
from twistmod.stability import _build_levels, _candidates, semistability_verdict

# the primes of the rational scans: few, so that a dim-4 scan stays cheap
QQ_PRIMES = (2, 3, 5)


def trivial_w(field):
    return InvolutionSpace.trivial(field)


def swap_w(field):
    return InvolutionSpace(field, Matrix(field, [[0, 1], [1, 0]]))


def entry(rng, field):
    if field.kind == "fp":
        return rng.randrange(field.p)
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))


def square(rng, field, n):
    return Matrix(field, [[entry(rng, field) for _ in range(n)] for _ in range(n)])


def random_module(rng, field, n, w, sign):
    return symmetrize(field, n, w, sign, [square(rng, field, n) for _ in range(w.dim)])


def semistable_module(rng, field, n, w, sign):
    """A hyperbolic piece round a random core of dim n - 2 d, moved by a
    random invertible g: strictly semistable when the core is."""
    d = rng.choice([e for e in (1, 2) if 2 * e <= n])
    while True:
        alpha = tuple(square(rng, field, d) for _ in range(w.dim))
        if any(a.det() for a in alpha):
            break
    q = hyperbolic_module(LinearPiece(alpha), w, sign)
    if n > 2 * d:
        q = direct_sum(q, random_module(rng, field, n - 2 * d, w, sign))
    while True:
        g = square(rng, field, n)
        if g.det():
            return act(g, q)


def modules(count_per_case: int, seed: int):
    rng = random.Random(seed)
    for field in (GF(2), GF(3), GF(5), GF(7), QQ):
        for w in (trivial_w(field), swap_w(field)):
            for sign in (1, -1):
                for n in (1, 2, 3, 4):
                    for i in range(count_per_case):
                        make = semistable_module if n >= 2 and i % 2 == 0 else random_module
                        yield make(rng, field, n, w, sign)


def primes_of(q):
    return QQ_PRIMES if q.field.kind == "rational" else ()


def reference_levels(q, primes):
    """_build_levels by the formulas it replaced: the witness of the
    level scan, its public orthogonal and reduction, the dual a
    complement of that orthogonal, and alpha and the dual rows by
    products."""
    field, n = q.field, q.dim_h
    levels, chain = [], []
    reached = Subspace.zero(field, n)
    model_rows = Matrix.identity(field, n)
    current = q
    while True:
        worse, equality = stability._scan(current, primes, [], full=False)
        if worse is not None:
            raise StabilityError("module is unstable")
        if equality is None:
            break
        v, _, images = equality
        perp = orthogonal(current, v)
        # the read-off complement: the unit rows at the pivots of the images
        solved, kept = sigmamod._perp(current, images)
        dual = _complement(perp)
        assert solved == perp
        assert _units(field, current.dim_h, kept) == dual
        reduction = isotropic_reduction(current, v)
        v_t = v.basis.transpose()
        alpha = tuple(dual.basis @ b @ v_t for b in current.forms)
        witness_rows = v.basis @ model_rows
        dual_rows = dual.basis @ model_rows
        levels.append((witness_rows, dual_rows, alpha))
        reached = reached.sum(Subspace(field, n, witness_rows.rows))
        chain.append(reached)
        model_rows = reduction.model @ model_rows
        current = reduction.module
    return levels, tuple(chain), current, model_rows


def build(q, primes):
    try:
        levels, chain, core, model_rows = _build_levels(q, primes)
    except StabilityError:
        return None
    flat = [(lv.witness_rows, lv.dual_rows, lv.piece.alpha) for lv in levels]
    return flat, chain, core, model_rows


def reference_build(q, primes):
    try:
        return reference_levels(q, primes)
    except StabilityError:
        return None


def test_levels_read_off_the_scan_match_the_products():
    # every level's dual, pairing and dual rows, and so every chain, core
    # and model, against the products they replaced, over F_2 .. F_7 and
    # QQ, both involutions, both signs and dim H 1 .. 4
    total = levelled = two_forms = unstable = 0
    for q in modules(3, seed=27):
        got, expected = build(q, primes_of(q)), reference_build(q, primes_of(q))
        assert got == expected
        total += 1
        if got is None:
            unstable += 1
            continue
        levelled += bool(got[0])
        two_forms += bool(got[0]) and q.dim_w == 2
    assert total >= 200
    assert levelled > 60 and two_forms > 30 and unstable > 10


def reference_outer(q, v):
    return _complement(orthogonal(q, v))


def test_certificate_outer_pieces_are_the_complement_of_the_orthogonal():
    # the outer piece of every certificate, and the read-off complement of
    # every candidate of the stream, against _complement of the public
    # orthogonal; a QQ lift's perp dim, n minus the rank of its images,
    # against that orthogonal too
    certificates = candidates = 0
    for q in modules(2, seed=2027):
        primes = primes_of(q)
        verdict = semistability_verdict(q, primes=primes or stability.DEFAULT_PRIMES)
        if verdict.certificate is not None:
            v, lam = verdict.certificate
            perp = orthogonal(q, v)
            pieces = [(v, 2 * q.dim_h - 2 * v.dim - (perp.dim - v.dim))]
            middle = _complement(v, perp)
            if middle.dim:
                pieces.append((middle, q.dim_h - v.dim - perp.dim))
            outer = reference_outer(q, v)
            if outer.dim:
                pieces.append((outer, -v.dim - perp.dim))
            assert lam == OneParamSubgroup(pieces)
            assert lam.pieces == tuple(pieces)
            certificates += 1
        stream = _candidates(q, [b.num for b in q.forms], primes, [], full=True)
        for found in itertools.islice(stream, 12):
            # built as _scan builds the witness it returns
            v, perp_dim, images = stability._built(q, found)
            perp, kept = sigmamod._perp(q, images)
            assert perp == orthogonal(q, v) and perp.contains(v)
            assert perp_dim == perp.dim
            assert _units(q.field, q.dim_h, kept) == reference_outer(q, v)
            candidates += 1
    assert certificates > 60 and candidates > 300


def test_run_diagonals_match_the_direct_products():
    # the Gram walk's diagonal of each candidate, a + x (b + x c) along
    # its run, against c^T M_k c, for n = 0 .. 4 over F_2 .. F_7 and over
    # QQ's doubled box, in its own order
    rng = random.Random(19)
    compared = 0
    for p, values in [(p, range(p)) for p in (2, 3, 5, 7)] + [(0, _DOUBLED_BOX)]:
        for n in range(5):
            for k in (1, 2):
                draw = (lambda: rng.randrange(p)) if p else (lambda: rng.randint(-4, 4))
                mats = [[[draw() for _ in range(n)] for _ in range(n)] for _ in range(k)]
                expected = []
                for c in itertools.product(values, repeat=n):
                    if any(c):
                        diagonal = tuple(
                            sum(c[i] * m[i][j] * c[j] for i in range(n) for j in range(n))
                            for m in mats
                        )
                        expected.append((c, tuple(x % p for x in diagonal) if p else diagonal))
                got = _gram_candidates(mats, values, p)
                assert got == expected
                compared += len(got)
                if n == 0:
                    # no candidates, and the one basis of F^0
                    assert got == [] and list(isometries(mats, mats, values, p)) == [()]
    assert compared > 10_000


def test_the_gram_walk_builds_one_plane_per_outer_prefix(monkeypatch):
    # one _gram_candidates call builds |values|^(n-2) planes for n >= 2,
    # one for F^1 and none for F^0, and reads one run per plane and x:
    # no plane and no run is built per candidate
    built = {"planes": 0, "runs": 0}
    plane, run = linalg._plane, linalg._run

    def counted(name, reader):
        def wrapper(*args):
            built[name] += 1
            return reader(*args)

        return wrapper

    monkeypatch.setattr(linalg, "_plane", counted("planes", plane))
    monkeypatch.setattr(linalg, "_run", counted("runs", run))
    for p, values in [(2, range(2)), (5, range(5)), (0, _DOUBLED_BOX)]:
        for n in range(5):
            for k in (1, 2):
                built.update(planes=0, runs=0)
                mats = [[[(i + 2 * j + k) % 3 for j in range(n)] for i in range(n)] for _ in range(k)]
                got = _gram_candidates(mats, values, p)
                assert len(got) == (len(values) ** n - 1 if 0 in values else len(values) ** n)
                assert built["planes"] == (len(values) ** (n - 2) if n > 1 else n)
                assert built["runs"] == (len(values) ** (n - 1) if n else 0)


def test_the_rational_recheck_drops_a_lift_that_is_not_totally_isotropic(monkeypatch):
    # the hyperbolic plane over QQ: e1 and e2 are isotropic lines, but the
    # plane they span pairs them to 1; a scanner that yields that plane as
    # a lift must see it dropped by the exact recheck of its pairings,
    # while the line e1 passes with dim perp = 2 - rank of its images
    q = SigmaModule(QQ, 2, trivial_w(QQ), 1, [Matrix(QQ, [[0, 1], [1, 0]])])
    lifts = [
        (((1, 0), (0, 1)), (0, 1), [(0, 1), (1, 0)]),
        (((1, 0),), (0,), [(0, 1)]),
    ]

    def scanner(forms, p, n, primes=(), budget=None):
        def scan(dims=None, prime=p):
            yield from lifts

        return scan

    monkeypatch.setattr(stability, "_isotropic_scanner", scanner)
    found = list(_candidates(q, [b.num for b in q.forms], (3,), [], full=True))
    assert [(rows, den, perp_dim) for rows, _, den, perp_dim, _ in found] == [(((1, 0),), 1, 1)]
