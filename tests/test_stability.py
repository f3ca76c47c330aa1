"""Verdicts, filtrations, graded modules, S-equivalence.

The exhaustive verdict is cross-checked against a raw restatement of the
subspace criterion that works on explicit vector sets (frozensets closed
under spanning, dimensions read off cardinalities) and never touches the
Subspace machinery.
"""

import functools
import itertools
import math
import random
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from twistmod import stability
from twistmod.errors import (
    BoundExceededError,
    FieldError,
    InternalCheckError,
    StabilityError,
)
from twistmod.hilbert import MINUS_INFINITY, limit_at_zero, mu
from twistmod.linalg import GF, QQ, Matrix, Subspace, rank_mod_p
from twistmod.sigmamod import (
    TOTALLY_ISOTROPIC,
    InvolutionSpace,
    SigmaModule,
    _integer_forms,
    act,
    dotform,
    is_isomorphic,
    isotropy_class,
    orthogonal,
    symmetrize,
    validate,
)
from twistmod.stability import (
    NO_DESTABILIZER_FOUND,
    STABLE,
    STRICTLY_SEMISTABLE,
    UNSTABLE,
    Provenance,
    _candidates,
    _direct_sums,
    enumerate_totally_isotropic,
    graded,
    hilbert_mumford_sweep,
    iso_filtration,
    joint_kernel,
    s_equivalent,
    semistability_verdict,
)

from oracles import all_subspaces, generic_rref


def trivial_w(field):
    return InvolutionSpace.trivial(field)


def swap_w(field):
    return InvolutionSpace(field, Matrix(field, [[0, 1], [1, 0]]))


def module_1form(field, rows, sign=1):
    b = Matrix(field, rows)
    return SigmaModule(field, b.nrows, trivial_w(field), sign, [b])


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


# -- raw restatement of the subspace criterion ------------------------------


def span_set(p, gens):
    n = len(gens[0])
    vecs = set()
    for coeffs in itertools.product(range(p), repeat=len(gens)):
        vecs.add(tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) % p for i in range(n)))
    return frozenset(vecs)


def raw_gram(p, x, b, y):
    return sum(x[i] * b[i][j] * y[j] for i in range(len(x)) for j in range(len(y))) % p


def raw_status(q):
    p, n = q.field.p, q.dim_h
    forms = [b.rows for b in q.forms]
    vectors = list(itertools.product(range(p), repeat=n))
    nonzero = [v for v in vectors if any(v)]
    spaces = set()
    for size in range(1, n + 1):
        for gens in itertools.combinations(nonzero, size):
            spaces.add(span_set(p, gens))

    def log_p(count):
        d = 0
        while p**d < count:
            d += 1
        assert p**d == count
        return d

    saw_equality = False
    for space in spaces:
        if any(raw_gram(p, x, b, y) for b in forms for x in space for y in space):
            continue
        perp_count = sum(
            1
            for x in vectors
            if all(raw_gram(p, x, b, v) == 0 for b in forms for v in space)
        )
        total = log_p(len(space)) + log_p(perp_count)
        if total > n:
            return UNSTABLE
        if total == n:
            saw_equality = True
    return STRICTLY_SEMISTABLE if saw_equality else STABLE


# -- enumeration -------------------------------------------------------------


def test_enumerate_totally_isotropic_fixtures():
    f3, f5 = GF(3), GF(5)
    assert enumerate_totally_isotropic(module_1form(f3, [[1, 0], [0, 1]])) == ()
    lines = enumerate_totally_isotropic(module_1form(f5, [[1, 0], [0, 1]]))
    assert [v.basis.rows for v in lines] == [((1, 2),), ((1, 3),)]
    hyper = enumerate_totally_isotropic(module_1form(f3, [[0, 1], [1, 0]]))
    assert [v.basis.rows for v in hyper] == [((1, 0),), ((0, 1),)]
    (full,) = enumerate_totally_isotropic(module_1form(f3, [[0]]))
    assert full.dim == 1
    with pytest.raises(FieldError):
        enumerate_totally_isotropic(module_1form(QQ, [[0, 1], [1, 0]]))
    with pytest.raises(BoundExceededError):
        enumerate_totally_isotropic(module_1form(f3, [[0] * 5 for _ in range(5)]))


def test_pruned_search_matches_the_filtered_scan():
    # the engine against the unpruned scan it replaces: same subspaces,
    # same order, and each perp dimension equal to orthogonal()'s
    rng = random.Random(5)
    for p in (2, 3, 5):
        field = GF(p)
        for n in (2, 3, 4):
            modules = [
                random_module(rng, field, n, w, sign)
                for w in (trivial_w(field), swap_w(field))
                for sign in (1, -1)
            ]
            raw = Matrix(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
            modules.append(SigmaModule(field, n, trivial_w(field), -1, [raw]))
            for q in modules:
                found = list(_candidates(q, 4, (), [], by_prime=True))
                expected = [
                    v
                    for v in all_subspaces(field, n)
                    if isotropy_class(q, v) == TOTALLY_ISOTROPIC
                ]
                assert [v for v, _, _ in found] == expected
                for v, perp_dim, perp in found:
                    assert perp_dim == orthogonal(q, v).dim
                    assert perp is None
    assert not validate(modules[-1])


def test_survivors_are_built_in_canonical_form():
    # the engine builds each survivor from its echelon rows without an
    # elimination, in the verdict's stream and in the enumeration; the
    # result must be the Subspace the public constructor makes from the
    # same rows
    rng = random.Random(11)
    total = 0
    for p in (2, 3, 5):
        field = GF(p)
        for n in (1, 2, 3, 4):
            zero = SigmaModule(field, n, trivial_w(field), 1, [Matrix.zeros(field, n, n)])
            for q in (zero, random_module(rng, field, n, swap_w(field), -1)):
                stream = [v for v, _, _ in _candidates(q, 4, (), [], by_prime=True)]
                assert stream == list(enumerate_totally_isotropic(q))
                for v in stream + list(enumerate_totally_isotropic(q)):
                    public = Subspace(field, n, v.basis.rows)
                    assert v == public
                    assert v.basis == public.basis and v.pivots == public.pivots
                    assert v.sort_key() == public.sort_key()
                    assert hash(v) == hash(public)
                    total += 1
    assert total > 1000


def test_line_table_matches_the_direct_product_order_table():
    # the on-demand columns, which solve each run's last coordinate,
    # against images(u) computed in full for every u in product order.
    # Alternating forms and no forms at all keep every line, so every
    # line's images are compared; random forms keep some of them, and a
    # form whose only nonzero entry is the last diagonal corner keeps
    # exactly the lines with last entry 0.  The scanner's dim-1 scan
    # serves the same lines, the same after a scan that stopped partway
    # (inside the first run of column 0, and half way) as from finished
    # columns.
    rng = random.Random(17)
    compared = 0
    sizes = [(p, n) for p in (2, 3, 5, 7) for n in (1, 2, 3, 4)]
    sizes += [(p, n) for p in (11, 13) for n in (1, 2, 3)]
    for p, n in sizes:
        corner = [[rng.randrange(1, p) if i == j == n - 1 else 0 for j in range(n)] for i in range(n)]
        cases = [([], True), ([corner], False)]
        for k in (1, 2, 3):
            square = [[[rng.randrange(p) for _ in range(n)] for _ in range(n)] for _ in range(k)]
            alternating = [
                [[(b[i][j] - b[j][i]) % p for j in range(n)] for i in range(n)] for b in square
            ]
            cases += [(square, False), (alternating, True)]
        for forms, keeps_every_line in cases:
            images, kills = stability._pairing(forms, p)
            expected = []
            for pc in range(n):
                found = []
                for tail in itertools.product(range(p), repeat=n - 1 - pc):
                    u = (0,) * pc + (1,) + tail
                    if kills(u, images(u)):
                        found.append((u, images(u)))
                expected.append(found)
            columns = [list(stability._column_lines(forms, p, n, pc)) for pc in range(n)]
            assert columns == expected
            lines = [((u,), (pc,), imgs) for pc in range(n) for u, imgs in expected[pc]]
            for stop in (1, len(lines) // 2):
                scan = stability._isotropic_scanner(forms, p, n)
                partial = scan((1,))
                assert list(itertools.islice(partial, stop)) == lines[:stop]
                del partial
                assert list(scan((1,))) == lines
                assert list(scan((1,))) == lines
            compared += len(lines)
            if keeps_every_line:
                assert len(lines) == (p**n - 1) // (p - 1)
            elif forms == [corner]:
                assert len(lines) == (p ** (n - 1) - 1) // (p - 1)
    assert compared > 4000


def test_a_line_over_a_huge_field_builds_nothing_sized_by_p():
    # F_p^1 has one line whatever p, so it passes the line bound, and the
    # scan must then build nothing sized by p.  The scan runs in a child
    # process with its address space capped, so a table over range(p)
    # fails there at once instead of filling the machine's memory.
    code = (
        "from twistmod.linalg import GF, Matrix\n"
        "from twistmod.sigmamod import InvolutionSpace, SigmaModule\n"
        "from twistmod.stability import enumerate_totally_isotropic, semistability_verdict\n"
        "f = GF(2305843009213693951)\n"
        "for entry in (0, 3):\n"
        "    q = SigmaModule(f, 1, InvolutionSpace.trivial(f), 1, [Matrix(f, [[entry]])])\n"
        "    print(len(enumerate_totally_isotropic(q)), semistability_verdict(q).status)\n"
    )

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, preexec_fn=cap
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == f"1 {UNSTABLE}\n0 {STABLE}\n"


def test_symplectic_count_matches_closed_form():
    # totally isotropic subspaces of a symplectic F_q^4: every line, plus
    # (q+1)(q^2+1) Lagrangian planes
    q = 3
    field = GF(q)
    form = [[0, 0, 1, 0], [0, 0, 0, 1], [q - 1, 0, 0, 0], [0, q - 1, 0, 0]]
    subs = enumerate_totally_isotropic(module_1form(field, form, sign=-1))
    assert len(subs) == (q**4 - 1) // (q - 1) + (q + 1) * (q**2 + 1) == 80


# -- verdicts ----------------------------------------------------------------


def test_verdict_on_worked_examples():
    f3, f5 = GF(3), GF(5)

    stable = semistability_verdict(module_1form(f3, [[1, 0], [0, 1]]))
    assert stable.status == STABLE
    assert stable.provenance == Provenance("exhaustive")
    assert stable.certificate is None and stable.mu_value is None

    hyper = semistability_verdict(module_1form(QQ, [[0, 1], [1, 0]]))
    assert hyper.status == STRICTLY_SEMISTABLE
    witness, lam = hyper.certificate
    assert witness.basis.rows == ((1, 0),)
    assert hyper.mu_value == 0
    assert lam.weights == (2, -2)
    assert hyper.provenance.kind == "heuristic"

    zero = semistability_verdict(module_1form(f3, [[0]]))
    assert zero.status == UNSTABLE
    witness, lam = zero.certificate
    assert witness.dim == 1
    assert zero.mu_value is MINUS_INFINITY

    fixture = semistability_verdict(module_1form(QQ, [[0, 0, 1], [0, 1, 1], [1, 1, 1]]))
    assert fixture.status == STRICTLY_SEMISTABLE

    assert semistability_verdict(module_1form(f5, [[1, 0], [0, 1]])).status == STRICTLY_SEMISTABLE


def test_exhaustive_verdict_matches_raw_definition():
    rng = random.Random(20260826)
    for p in (2, 3):
        field = GF(p)
        for _ in range(8):
            dim = rng.randint(1, 3)
            w = trivial_w(field) if rng.random() < 0.5 else swap_w(field)
            q = random_module(rng, field, dim, w, rng.choice([1, -1]))
            assert semistability_verdict(q).status == raw_status(q)


def test_unstable_certificates_verify():
    rng = random.Random(7)
    found = 0
    for _ in range(500):
        field = GF(rng.choice([2, 3]))
        q = random_module(rng, field, rng.randint(2, 4), trivial_w(field), rng.choice([1, -1]))
        verdict = semistability_verdict(q)
        if verdict.status != UNSTABLE:
            continue
        witness, lam = verdict.certificate
        assert isotropy_class(q, witness) == TOTALLY_ISOTROPIC
        assert witness.dim + orthogonal(q, witness).dim > q.dim_h
        assert mu(lam, q) == verdict.mu_value
        assert verdict.mu_value < 0
        found += 1
        if found == 6:
            break
    assert found == 6


def test_heuristic_kernel_instability():
    # a zero row and column put e3 in the joint kernel
    q = module_1form(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    verdict = semistability_verdict(q)
    assert verdict.status == UNSTABLE
    assert verdict.provenance == Provenance("heuristic")
    witness, _ = verdict.certificate
    assert witness == joint_kernel(q)
    assert witness.basis.rows == ((0, 0, 1),)
    assert verdict.mu_value < 0


def test_heuristic_lifted_instability():
    # kernel-free but destabilized by span{e1,e2}, found through mod-2 lifting
    b0 = Matrix(QQ, [[0, 0, 1], [0, 0, 2], [3, 4, 5]])
    q = SigmaModule(QQ, 3, swap_w(QQ), 1, [b0, b0.transpose()])
    assert validate(q)
    assert joint_kernel(q).is_zero()
    verdict = semistability_verdict(q)
    assert verdict.status == UNSTABLE
    assert verdict.provenance == Provenance("heuristic", (2,))
    witness, lam = verdict.certificate
    assert witness.basis.rows == ((1, 0, 0), (0, 1, 0))
    assert witness.dim + orthogonal(q, witness).dim > 3
    assert mu(lam, q) == verdict.mu_value < 0


def test_rational_candidates_match_the_filtered_lifts():
    # the QQ candidate stream against a restatement built from the public
    # oracles: the nonzero joint kernel first, then reduce each prime by
    # hand, filter all_subspaces with isotropy_class, lift residues as r
    # and as balanced r or r - p, keep each lift once and only when it is
    # totally isotropic over QQ
    rng = random.Random(41)
    primes = (2, 3, 5, 7)

    def reduce_by_hand(q, p):
        field = GF(p)

        def entries(m):
            if any(x.denominator % p == 0 for row in m.rows for x in row):
                return None
            return [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in m.rows]

        mats = [entries(m) for m in (q.w.matrix, *q.forms)]
        if any(m is None for m in mats):
            return None
        w = InvolutionSpace(field, Matrix(field, mats[0]))
        return SigmaModule(field, q.dim_h, w, q.sign, [Matrix(field, m) for m in mats[1:]])

    def lifts(vp, p):
        for balanced in (False, True):
            rows = [[r - p if balanced and r > p // 2 else r for r in row] for row in vp.basis.rows]
            yield Subspace(QQ, vp.ambient, [[Fraction(r) for r in row] for row in rows])

    def reference(q, by_prime):
        n = q.dim_h
        isotropic = {}
        for p in primes:
            qp = reduce_by_hand(q, p)
            if qp is not None:
                isotropic[p] = [
                    v for v in all_subspaces(GF(p), n)
                    if isotropy_class(qp, v) == TOTALLY_ISOTROPIC
                ]
        if by_prime:
            steps = [(p, range(1, n + 1)) for p in primes]
        else:
            steps = [(p, (d,)) for d in range(1, n + 1) for p in primes]
        kernel = joint_kernel(q)
        out = [] if kernel.is_zero() else [kernel]
        seen = {kernel}
        for p, dims in steps:
            for vp in isotropic.get(p, ()):
                if vp.dim not in dims:
                    continue
                for v in lifts(vp, p):
                    if v not in seen:
                        seen.add(v)
                        if isotropy_class(q, v) == TOTALLY_ISOTROPIC:
                            out.append(v)
        return out, [p for p in primes if p in isotropic]

    def sparse_module(n, w, sign):
        raw = [
            Matrix(QQ, [[Fraction(rng.choice((0, 0, 0, 1, -1, 2))) for _ in range(n)] for _ in range(n)])
            for _ in range(w.dim)
        ]
        return symmetrize(QQ, n, w, sign, raw)

    total = 0
    for n in (1, 2, 3):
        for w in (trivial_w(QQ), swap_w(QQ)):
            for sign in (1, -1):
                for q in (random_module(rng, QQ, n, w, sign), sparse_module(n, w, sign)):
                    for by_prime in (True, False):
                        tried = []
                        found = list(_candidates(q, 4, primes, tried, by_prime))
                        expected, reducible = reference(q, by_prime)
                        assert [v for v, _, _ in found] == expected
                        for v, perp_dim, perp in found:
                            assert perp_dim == orthogonal(q, v).dim
                            # a lift carries the orthogonal its recheck computed
                            assert perp is None or perp == orthogonal(q, v)
                        if by_prime:
                            assert tried == reducible
                        total += len(found)
    assert total > 0


def test_integer_gram_test_matches_the_exact_isotropy_class():
    # the plain-int Gram test of the candidate stream against the exact
    # three-way class, on every plain and balanced lift; denominators 2, 3
    # and 6 in one form catch a wrong lcm scaling, and lines (whose only
    # Gram entries are diagonal) catch a skipped i == j pair
    rng = random.Random(43)

    def entry(dens):
        return Fraction(rng.choice((0, 0, 0, 1, -1, 2)), rng.choice(dens))

    outcomes = []
    modules = 0
    for n in (1, 2, 3):
        for w in (trivial_w(QQ), swap_w(QQ)):
            for sign in (1, -1):
                for dens in ((1,), (1, 2), (1, 3), (2, 3, 6)):
                    raw = [
                        Matrix(QQ, [[entry(dens) for _ in range(n)] for _ in range(n)])
                        for _ in range(w.dim)
                    ]
                    q = symmetrize(QQ, n, w, sign, raw)
                    modules += 1
                    forms = _integer_forms(q, 0)
                    for p in (2, 3, 5, 7):
                        if any(x.denominator % p == 0 for b in q.forms for r in b.rows for x in r):
                            continue
                        reduced = [
                            [[x.numerator * pow(x.denominator, -1, p) % p for x in r] for r in b.rows]
                            for b in q.forms
                        ]
                        for residues, _, _ in stability._isotropic_scanner(reduced, p, n)():
                            for balanced in (False, True):
                                rows = stability._lift_subspace(residues, p, balanced)
                                v = Subspace(QQ, n, [[Fraction(x) for x in row] for row in rows])
                                exact = isotropy_class(q, v) == TOTALLY_ISOTROPIC
                                assert stability._grams_vanish(forms, rows) == exact
                                outcomes.append((len(rows), exact))
    assert modules >= 24
    assert {(1, True), (1, False), (2, True), (2, False)} <= set(outcomes)


def test_no_destabilizer_over_the_rationals():
    # x^2 + y^2 = 0 has no rational solution, but no proof of stability is claimed
    verdict = semistability_verdict(module_1form(QQ, [[1, 0], [0, 1]]))
    assert verdict.status == NO_DESTABILIZER_FOUND
    assert verdict.certificate is None
    assert verdict.provenance.kind == "heuristic"
    assert verdict.provenance.primes == (2, 3, 5, 7, 11, 13)


def test_a_prime_dividing_only_an_involution_denominator_is_skipped():
    # the forms are integral, but W = [[0, 2], [1/2, 0]] does not reduce
    # mod 2, so 2 is not among the primes tried
    w = InvolutionSpace(QQ, Matrix(QQ, [[0, 2], [Fraction(1, 2), 0]]))
    raw = [Matrix(QQ, [[2, 0], [0, 0]]), Matrix(QQ, [[0, 1], [0, 0]])]
    q = symmetrize(QQ, 2, w, 1, raw)
    assert all(x.denominator == 1 for b in q.forms for row in b.rows for x in row)
    verdict = semistability_verdict(q)
    assert verdict.status == STRICTLY_SEMISTABLE
    assert verdict.provenance.primes == (3, 5, 7, 11, 13)


def test_strategy_selection():
    f3 = GF(3)
    q3 = module_1form(f3, [[1, 0], [0, 1]])
    qq = module_1form(QQ, [[1, 0], [0, 1]])
    # the field decides the mode
    exhaustive = semistability_verdict(q3)
    assert exhaustive.status == STABLE
    assert exhaustive.provenance == Provenance("exhaustive")
    assert semistability_verdict(qq).provenance.kind == "heuristic"
    # a stale positional mode does not bind to enum_bound
    with pytest.raises(TypeError):
        semistability_verdict(q3, "exhaustive")
    with pytest.raises(StabilityError):
        semistability_verdict(module_1form(QQ, [[0, 1], [2, 0]]))


def test_provenance_shape():
    with pytest.raises(ValueError):
        Provenance("exhaustive", (2,))
    with pytest.raises(ValueError):
        Provenance("guesswork")


# -- filtration --------------------------------------------------------------


def test_filtration_fixtures():
    f3 = GF(3)
    assert iso_filtration(module_1form(f3, [[1, 0], [0, 1]])).chain == ()
    hyper = iso_filtration(module_1form(QQ, [[0, 1], [1, 0]]))
    assert [v.basis.rows for v in hyper.chain] == [((1, 0),)]
    fixture = iso_filtration(module_1form(QQ, [[0, 0, 1], [0, 1, 1], [1, 1, 1]]))
    assert [v.basis.rows for v in fixture.chain] == [((1, 0, 0),)]
    with pytest.raises(StabilityError):
        iso_filtration(module_1form(f3, [[0]]))


def test_filtration_of_length_two():
    f3 = GF(3)
    q = module_1form(f3, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    filtration = iso_filtration(q)
    assert filtration.length == 2
    assert [v.dim for v in filtration.chain] == [1, 2]
    gm = graded(q)
    assert gm.length == 2
    assert gm.core.dim_h == 0
    assert gm.assembled == q  # already in nested hyperbolic shape
    assert gm.canonical_1ps.weights == (2, 1, -1, -2)


def test_filtration_refuses_exactly_the_unstable_modules():
    # each filtration level is its own semistability check: iso_filtration
    # must raise exactly when the verdict is unstable, and over F_p its
    # first step is the first equality witness in canonical order
    rng = random.Random(23)
    samples = []
    for field in (GF(2), GF(3)):
        for dim in range(1, 5):
            for w in (trivial_w(field), swap_w(field)):
                for sign in (1, -1):
                    samples += [random_module(rng, field, dim, w, sign) for _ in range(3)]
    b0 = Matrix(QQ, [[0, 0, 1], [0, 0, 2], [3, 4, 5]])
    samples += [
        module_1form(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]),  # joint kernel e3
        SigmaModule(QQ, 3, swap_w(QQ), 1, [b0, b0.transpose()]),  # lifted witness
        module_1form(QQ, [[0, 0, 1], [0, 1, 1], [1, 1, 1]]),
        module_1form(QQ, [[0, 1], [1, 0]]),
        module_1form(QQ, [[1, 0], [0, 1]]),
    ]
    for dim in (1, 2, 3):
        samples.append(random_module(rng, QQ, dim, trivial_w(QQ), rng.choice([1, -1])))

    statuses = set()
    for q in samples:
        status = semistability_verdict(q).status
        statuses.add(status)
        if status == UNSTABLE:
            with pytest.raises(StabilityError):
                iso_filtration(q)
            continue
        chain = iso_filtration(q).chain
        if q.field.kind == "fp":
            equalities = [
                v for v in enumerate_totally_isotropic(q)
                if v.dim + orthogonal(q, v).dim == q.dim_h
            ]
            assert chain[:1] == tuple(equalities[:1])
    assert statuses == {UNSTABLE, STRICTLY_SEMISTABLE, STABLE, NO_DESTABILIZER_FOUND}


def test_graded_scans_each_level_once(monkeypatch):
    # one candidate scan per filtration level, plus the one that finds the
    # core stable, and no separate verdict pass before them; each level
    # builds at most one scanner per prime, whatever the dimensions it
    # scans.  The nonsingular dim-3 level stops at its first equality, a
    # line mod 2, so it builds no scanner for a later prime; the stable
    # core finds no equality and scans every prime.
    scanned, verdicts, tables = [], [], []
    scan, verdict = stability._candidates, stability.semistability_verdict
    scanner = stability._isotropic_scanner

    def counted_scanner(forms, p, n):
        tables.append((p, n))
        return scanner(forms, p, n)

    def counted_scan(q, *args, **kwargs):
        scanned.append(q.dim_h)
        return scan(q, *args, **kwargs)

    def counted_verdict(*args, **kwargs):
        verdicts.append(args)
        return verdict(*args, **kwargs)

    monkeypatch.setattr(stability, "_candidates", counted_scan)
    monkeypatch.setattr(stability, "semistability_verdict", counted_verdict)
    monkeypatch.setattr(stability, "_isotropic_scanner", counted_scanner)
    gm = graded(module_1form(QQ, [[0, 0, 1], [0, 1, 1], [1, 1, 1]]))
    assert gm.length == 1
    assert scanned == [3, 1]
    assert verdicts == []
    assert tables == [(2, 3)] + [(p, 1) for p in stability.DEFAULT_PRIMES]


def test_a_scan_stops_at_its_first_equality_only_when_no_v_can_destabilize():
    # when some form is nonsingular the full scan finds no destabilizer,
    # and the scan that stops at its first equality returns the same
    # (destabilizer, equality).  A zero joint kernel is not enough: with
    # every form singular a swap module with a zero joint kernel can be
    # unstable, and the samples must hold such modules
    rng = random.Random(29)

    def sparse_module(field, n, w, sign):
        raw = [
            Matrix(field, [[rng.choice((0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)])
            for _ in range(w.dim)
        ]
        return symmetrize(field, n, w, sign, raw)

    samples = []
    for field, trials, dims in (
        (GF(2), 20, (1, 2, 3, 4)),
        (GF(3), 12, (1, 2, 3, 4)),
        (GF(5), 6, (1, 2, 3, 4)),
        (GF(7), 4, (1, 2, 3, 4)),
        (QQ, 2, (1, 2, 3)),
    ):
        for n in dims:
            for w in (trivial_w(field), swap_w(field)):
                for sign in (1, -1):
                    for i in range(trials):
                        make = sparse_module if i % 2 else functools.partial(random_module, rng)
                        samples.append(make(field, n, w, sign))
    b0 = Matrix(QQ, [[0, 0, 1], [0, 0, 2], [3, 4, 5]])
    samples.append(SigmaModule(QQ, 3, swap_w(QQ), 1, [b0, b0.transpose()]))

    stopped = singular_unstable = 0
    for q in samples:
        for by_prime in (True, False) if q.field.kind == "rational" else (True,):

            def scan(may_stop):
                stream = _candidates(q, 4, (2, 3, 5, 7), [], by_prime)
                return stability._witnesses(q, stream, may_stop)

            full = scan(False)
            if stability._no_destabilizer(q):
                assert full[0] is None
                assert scan(True) == full
                stopped += full[1] is not None
            elif full[0] is not None and joint_kernel(q).is_zero():
                singular_unstable += 1
    assert stopped > 100
    assert singular_unstable > 5


def test_the_fp_verdict_stops_inside_the_first_column(monkeypatch):
    # a nonsingular dim-4 module over F_5 whose first line (1, 0, 0, 0) is
    # isotropic: the verdict stops at that equality, so pivot column 0,
    # 125 candidate rows, is started and never read to its end
    finished, started = [], []
    column_lines = stability._column_lines

    def recorded(forms, p, n, pc):
        started.append(pc)
        yield from column_lines(forms, p, n, pc)
        finished.append(pc)

    monkeypatch.setattr(stability, "_column_lines", recorded)
    hyperbolic = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    q = module_1form(GF(5), hyperbolic)
    verdict = semistability_verdict(q)
    assert verdict.status == STRICTLY_SEMISTABLE
    assert verdict.certificate[0].basis.rows == ((1, 0, 0, 0),)
    assert started == [0] and finished == []


# -- graded modules ----------------------------------------------------------


def test_graded_fixtures():
    f3 = GF(3)
    stable = module_1form(f3, [[1, 0], [0, 1]])
    gm = graded(stable)
    assert gm.pieces == ()
    assert gm.core == stable and gm.assembled == stable
    assert gm.transform == Matrix.identity(f3, 2)
    assert gm.canonical_1ps.weights == (0,)

    hyper = module_1form(QQ, [[0, 1], [1, 0]])
    gm = graded(hyper)
    assert gm.length == 1
    assert gm.core.dim_h == 0
    assert [a.rows for a in gm.pieces[0].alpha] == [((1,),)]
    assert gm.assembled == hyper

    fixture = module_1form(QQ, [[0, 0, 1], [0, 1, 1], [1, 1, 1]])
    gm = graded(fixture)
    assert gm.assembled == module_1form(QQ, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert gm.core.forms[0].rows == ((1,),)
    assert gm.canonical_1ps.weights == (1, 0, -1)
    assert gm.transform == Matrix.identity(QQ, 3)
    limit = limit_at_zero(gm.canonical_1ps, fixture)
    assert act(gm.transform.inverse(), limit) == gm.assembled

    with pytest.raises(StabilityError):
        graded(module_1form(QQ, [[0, 0], [0, 0]]))


def test_graded_limit_identity_on_random_strictly_semistable():
    rng = random.Random(11)
    f3 = GF(3)
    seen = 0
    for _ in range(4000):
        dim = rng.randint(2, 4)
        w = trivial_w(f3) if rng.random() < 0.5 else swap_w(f3)
        q = random_module(rng, f3, dim, w, rng.choice([1, -1]))
        if semistability_verdict(q).status != STRICTLY_SEMISTABLE:
            continue
        gm = graded(q)
        limit = limit_at_zero(gm.canonical_1ps, q)
        assert act(gm.transform.inverse(), limit) == gm.assembled
        again = graded(gm.assembled)
        assert is_isomorphic(again.assembled, gm.assembled).status == "yes"
        seen += 1
        if seen == 8:
            break
    assert seen == 8


# -- S-equivalence -----------------------------------------------------------


def test_s_equivalence_worked_examples():
    f3 = GF(3)
    a = module_1form(f3, [[0, 0, 1], [0, 1, 1], [1, 1, 1]])
    b = module_1form(f3, [[0, 0, 1], [0, 1, 2], [1, 2, 5]])
    assert s_equivalent(a, b) == "yes"
    assert s_equivalent(a, a) == "yes"
    hyper = module_1form(f3, [[0, 1], [1, 0]])
    diag = module_1form(f3, [[1, 0], [0, 1]])
    assert s_equivalent(hyper, diag) == "no"
    assert s_equivalent(diag, hyper) == "no"
    with pytest.raises(StabilityError):
        s_equivalent(module_1form(f3, [[0]]), module_1form(f3, [[1]]))


def test_s_equivalence_is_orbit_invariant():
    f3 = GF(3)
    q = module_1form(f3, [[0, 0, 1], [0, 1, 1], [1, 1, 1]])
    g = Matrix(f3, [[1, 2, 0], [0, 1, 1], [2, 0, 1]])
    assert g.rank() == 3
    assert s_equivalent(q, act(g, q)) == "yes"


# -- bounded Hilbert-Mumford sweep -------------------------------------------


def test_hilbert_mumford_sweep_fixtures():
    f3 = GF(3)
    assert hilbert_mumford_sweep(module_1form(f3, [[1, 0], [0, 1]])) == 0
    assert hilbert_mumford_sweep(module_1form(f3, [[0, 1], [1, 0]])) == 0
    assert hilbert_mumford_sweep(module_1form(f3, [[0]])) is MINUS_INFINITY
    assert hilbert_mumford_sweep(module_1form(f3, [[0, 0], [0, 1]])) < 0
    with pytest.raises(FieldError):
        hilbert_mumford_sweep(module_1form(QQ, [[1, 0], [0, 1]]))
    with pytest.raises(BoundExceededError):
        hilbert_mumford_sweep(
            module_1form(f3, [[0, 0, 1], [0, 1, 1], [1, 1, 1]]),
            max_decompositions=100,
        )


def test_a_negative_weight_bound_is_a_value_error_not_an_internal_one():
    # no weight lies in [-w, w] for w < 0, so no subgroup could be swept;
    # that is the caller's error, not a broken invariant
    q = module_1form(GF(3), [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="weight_bound"):
        hilbert_mumford_sweep(q, weight_bound=-1)
    assert hilbert_mumford_sweep(q, weight_bound=0) == 0


def test_sweep_agrees_with_the_verdict_on_samples():
    rng = random.Random(99)
    for _ in range(12):
        field = GF(rng.choice([2, 3]))
        dim = rng.randint(1, 3)
        w = trivial_w(field) if rng.random() < 0.5 else swap_w(field)
        q = random_module(rng, field, dim, w, rng.choice([1, -1]))
        swept = hilbert_mumford_sweep(q)
        assert (swept < 0) == (semistability_verdict(q).status == UNSTABLE)


# The sweep as it stood before it visited each decomposition once: every
# ordering of every decomposition, each with strictly decreasing weights,
# and its own rank check and pairing scan.  Kept unchanged as the oracle.
def ordered_sweep(
    q: SigmaModule,
    weight_bound: int = 3,
    max_decompositions: int = 200_000,
):
    """Minimum weight over every subgroup with enumerated eigenspaces.

    Sweeps all ordered direct-sum decompositions of H into enumerated
    subspaces, paired with strictly decreasing integer weights in
    [-weight_bound, weight_bound] summing (weighted by dimension) to
    zero.  Returns the minimum of mu over the swept subgroups, which is
    negative iff the module is unstable for small dims; q = 0 gives
    minus infinity.
    """
    if q.field.kind != "fp":
        raise FieldError("the bounded sweep enumerates subspaces over a finite field")
    field = q.field
    n = q.dim_h
    subs = list(all_subspaces(field, n))
    nonzero_pair = [
        [
            any(
                dotform(field, x, b, y) != field.zero
                for b in q.forms
                for x in u.basis.rows
                for y in v.basis.rows
            )
            for v in subs
        ]
        for u in subs
    ]

    best = None
    counter = [0]
    weights_by_dims: dict = {}

    def weight_vectors(dims):
        bound = weight_bound
        out = []

        def extend(i, prev, acc, total):
            if i == len(dims):
                if total == 0:
                    out.append(tuple(acc))
                return
            for wt in range(min(prev - 1, bound), -bound - 1, -1):
                extend(i + 1, wt, acc + [wt], total + wt * dims[i])

        extend(0, bound + 1, [], 0)
        return out

    def score(chosen):
        nonlocal best
        counter[0] += 1
        if counter[0] > max_decompositions:
            raise BoundExceededError(
                f"sweep exceeded {max_decompositions} decompositions"
            )
        dims = tuple(subs[i].dim for i in chosen)
        if dims not in weights_by_dims:
            weights_by_dims[dims] = weight_vectors(dims)
        for weights in weights_by_dims[dims]:
            value = MINUS_INFINITY
            for a, ia in enumerate(chosen):
                for b, ib in enumerate(chosen):
                    if nonzero_pair[ia][ib]:
                        pair_weight = weights[a] + weights[b]
                        if value is MINUS_INFINITY or pair_weight > value:
                            value = pair_weight
            if best is None or value < best:
                best = value

    def extend_decomposition(chosen, rows):
        # rows: the chosen bases stacked, independent by construction
        remaining = n - len(rows)
        if remaining == 0:
            score(chosen)
            return
        for idx, s in enumerate(subs):
            if s.dim > remaining:
                break
            joined = rows + list(s.basis.rows)
            if rank_mod_p(joined, field.p) == len(joined):
                extend_decomposition(chosen + [idx], joined)

    extend_decomposition([], [])
    if best is None:
        raise InternalCheckError("sweep produced no subgroup")
    return best


def sweep_outcome(sweep, q, **bounds):
    try:
        return sweep(q, **bounds)
    except BoundExceededError as exc:
        return ("refused", str(exc))


def ordered_decompositions(p, n):
    """The ordered direct-sum decompositions of F_p^n into nonzero pieces:
    a first piece of dim d (a Gaussian binomial of choices), one of its
    p^(d(n-d)) complements, and a decomposition of that complement."""
    if n == 0:
        return 1
    total = 0
    for d in range(1, n + 1):
        pieces = math.prod(p ** (n - i) - 1 for i in range(d))
        pieces //= math.prod(p ** (i + 1) - 1 for i in range(d))
        total += pieces * p ** (d * (n - d)) * ordered_decompositions(p, n - d)
    return total


def test_sweep_matches_the_ordered_sweep():
    rng = random.Random(2024)
    cases = []
    for p in (2, 3, 5):
        field = GF(p)
        for dim in (1, 2, 3):
            for w in (trivial_w(field), swap_w(field)):
                for sign in (1, -1):
                    cases.append(random_module(rng, field, dim, w, sign))
    # zero modules, and one the ordered sweep takes about a second on
    cases.append(module_1form(GF(3), [[0, 0], [0, 0]]))
    cases.append(SigmaModule(GF(3), 0, trivial_w(GF(3)), 1, [Matrix(GF(3), [])]))
    cases.append(random_module(rng, GF(2), 4, trivial_w(GF(2)), 1))
    for q in cases:
        total = ordered_decompositions(q.field.p, q.dim_h)
        # the reference is slow on the big cases, so only the cheap ones
        # meet it at every bound; the rest hold the closed-form total
        small = total < 2000
        for weight_bound in (0, 1, 2, 3) if total < 500 else (3,):
            expected = ordered_sweep(q, weight_bound=weight_bound)
            for bound in (1, 10, 100, total - 1, total):
                bounds = {"max_decompositions": bound, "weight_bound": weight_bound}
                # every ordering counts, so the sweep refuses exactly past the total
                want = expected
                if bound < total:
                    want = ("refused", f"sweep exceeded {bound} decompositions")
                assert sweep_outcome(hilbert_mumford_sweep, q, **bounds) == want
                if small or bound <= 100:
                    assert sweep_outcome(ordered_sweep, q, **bounds) == want


def test_searches_refuse_too_many_lines_before_any_work():
    big = GF(2**61 - 1)
    q = module_1form(big, [[0, 1], [1, 0]])
    for search in (enumerate_totally_isotropic, hilbert_mumford_sweep):
        with pytest.raises(BoundExceededError, match="2305843009213693952 candidate lines"):
            search(q)
    # a line is a line over any field
    assert enumerate_totally_isotropic(module_1form(big, [[0]]))[0].dim == 1


def test_direct_sums_match_the_closed_form():
    # each set of k pieces stands for its k! orderings, and its stacked
    # bases span F_p^n by an elimination that shares no code with it
    for p, top in ((2, 4), (3, 3), (5, 3), (7, 3)):
        field = GF(p)
        for n in range(1, top + 1):
            subs, sets = _direct_sums(p, n)
            seen = set()
            total = 0
            for dims, chosen, lasts in sets:
                for j in lasts:
                    pieces = chosen + (j,)
                    assert list(pieces) == sorted(set(pieces))
                    assert dims == tuple(len(subs[i]) for i in pieces)
                    rows = [u for i in pieces for u in subs[i]]
                    assert generic_rref(Matrix(field, rows))[1] == n == len(rows)
                    seen.add(pieces)
                    total += math.factorial(len(pieces))
            assert total == ordered_decompositions(p, n)
            assert len(seen) == sum(len(lasts) for _, _, lasts in sets)


def test_the_cache_state_changes_no_sweep():
    rng = random.Random(15)
    jobs = []
    for p, dim in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (2, 4)):
        field = GF(p)
        for w in (trivial_w(field), swap_w(field)):
            q = random_module(rng, field, dim, w, rng.choice([1, -1]))
            jobs.append((q, rng.randint(0, 3)))

    def sweep(jobs):
        return [hilbert_mumford_sweep(q, weight_bound=b) for q, b in jobs]

    forward = sweep(jobs)
    backward = sweep(jobs[::-1])[::-1]
    _direct_sums.cache_clear()
    stability._best_weights.clear()
    assert forward == backward == sweep(jobs)

    # a refused sweep builds no lattice
    _direct_sums.cache_clear()
    refused = [
        (module_1form(GF(3), [[0, 0, 1], [0, 1, 1], [1, 1, 1]]), {"max_decompositions": 100}),
        (module_1form(GF(2**61 - 1), [[0, 1], [1, 0]]), {}),
        (module_1form(GF(2), [[0, 0], [0, 0]]), {"weight_bound": 50_000}),
    ]
    for q, bounds in refused:
        with pytest.raises(BoundExceededError):
            hilbert_mumford_sweep(q, **bounds)
    assert _direct_sums.cache_info().currsize == 0


def test_a_huge_weight_bound_is_refused_before_any_work():
    q = random_module(random.Random(7), GF(2), 4, trivial_w(GF(2)), 1)
    _direct_sums.cache_clear()
    # a set of four lines would try P(2001, 3) tuples of three weights
    with pytest.raises(BoundExceededError, match="has 7999998000 weight tuples"):
        hilbert_mumford_sweep(q, weight_bound=1000)
    assert _direct_sums.cache_info().currsize == 0
    # at dim 2 a set tries 2w + 1 tuples, so the bound falls between
    # w = 49,999 and w = 50,000
    plane = module_1form(GF(3), [[0, 1], [1, 0]])
    assert hilbert_mumford_sweep(plane, weight_bound=49_999) == 0
    with pytest.raises(BoundExceededError, match="has 100001 weight tuples"):
        hilbert_mumford_sweep(plane, weight_bound=50_000)
    # a line tries one tuple at any bound
    assert hilbert_mumford_sweep(module_1form(GF(3), [[1]]), weight_bound=10**30) == 0
