"""Verdicts, filtrations, graded modules, S-equivalence.

The exhaustive verdict is cross-checked against a raw restatement of the
subspace criterion that works on explicit vector sets (frozensets closed
under spanning, dimensions read off cardinalities) and never touches the
Subspace machinery.
"""

import functools
import itertools
import math
import operator
import random
import re
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from twistmod import hilbert, sigmamod, stability
from twistmod.errors import (
    BoundExceededError,
    FieldError,
    InternalCheckError,
    ShapeError,
    StabilityError,
)
from twistmod.hilbert import MINUS_INFINITY, limit_at_zero, mu
from twistmod.linalg import GF, QQ, Matrix, Subspace, rank_mod_p
from twistmod.serialize import parse_module_file
from twistmod.sigmamod import (
    TOTALLY_ISOTROPIC,
    InvolutionSpace,
    SigmaModule,
    _pairing,
    act,
    dotform,
    is_isomorphic,
    isotropy_class,
    orthogonal,
    symmetrize,
    twisted_transpose,
    validate,
)
from twistmod.stability import (
    NO_DESTABILIZER_FOUND,
    STABLE,
    STRICTLY_SEMISTABLE,
    UNSTABLE,
    Provenance,
    _candidates,
    enumerate_totally_isotropic,
    graded,
    hilbert_mumford_sweep,
    iso_filtration,
    joint_kernel,
    s_equivalent,
    semistability_verdict,
)

from oracles import all_subspaces, flag_sweep, flags, generic_rref, subspace_count


def trivial_w(field):
    return InvolutionSpace.trivial(field)


def swap_w(field):
    return InvolutionSpace(field, Matrix(field, [[0, 1], [1, 0]]))


def module_1form(field, rows, sign=1):
    b = Matrix(field, rows)
    return SigmaModule(field, b.nrows, trivial_w(field), sign, [b])


def swap_pair(field, rows, sign=1):
    # the valid swap module (A, sign A^T) of one form A, which need not be symmetric
    a = Matrix(field, rows)
    return SigmaModule(field, a.nrows, swap_w(field), sign, [a, a.transpose().scale(sign)])


def integer_forms(q):
    # the forms the candidate stream and the witness scan of q run on:
    # the int rows of each, over its own denominator
    return [b.num for b in q.forms]


def candidates(q, primes=(), tried=None, full=True):
    # the candidate stream of q as (V, dim V^perp, images): each record's
    # echelon rows over its denominator, built into V by the public
    # constructor, whose pivots must be the record's
    found = []
    for rows, pivots, den, perp_dim, images in _candidates(
        q, integer_forms(q), primes, [] if tried is None else tried, full
    ):
        entries = [[x if den == 1 else Fraction(x, den) for x in row] for row in rows]
        v = Subspace(q.field, q.dim_h, entries)
        assert v.pivots == pivots and v.basis.num == rows and v.basis.den == den
        found.append((v, perp_dim, images))
    return found


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
    # no dim cap: the zero module on F_3^5 lists every nonzero subspace
    zero = enumerate_totally_isotropic(module_1form(f3, [[0] * 5 for _ in range(5)]))
    assert len(zero) == subspace_count(3, 5) == 2663


def test_pruned_search_matches_the_filtered_scan():
    # the engine against the unpruned scan it replaces: same subspaces,
    # same order, each perp dimension equal to orthogonal()'s, and the
    # images each candidate carries solve to that orthogonal
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
            if twisted_transpose(trivial_w(field), -1, (raw,)) != (raw,):
                # the search assumes the relation, so no module that breaks it is built
                with pytest.raises(StabilityError, match="^module violates its symmetry relation$"):
                    SigmaModule(field, n, trivial_w(field), -1, [raw])
            for q in modules:
                found = candidates(q)
                expected = [
                    v
                    for v in all_subspaces(field, n)
                    if isotropy_class(q, v) == TOTALLY_ISOTROPIC
                ]
                assert [v for v, _, _ in found] == expected
                for v, perp_dim, images in found:
                    assert perp_dim == orthogonal(q, v).dim
                    assert sigmamod._perp(q, images)[0] == orthogonal(q, v)


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
                # built as _scan builds the witness it returns
                records = _candidates(q, integer_forms(q), (), [], full=True)
                stream = [stability._built(q, found)[0] for found in records]
                assert stream == list(enumerate_totally_isotropic(q))
                for v in stream + list(enumerate_totally_isotropic(q)):
                    public = Subspace(field, n, v.basis.rows)
                    assert v == public
                    assert v.basis == public.basis and v.pivots == public.pivots
                    assert v.sort_key() == public.sort_key()
                    assert hash(v) == hash(public)
                    total += 1
    assert total > 1000


def columns_of(forms):
    # the column tuples of each form, as stability._lines reads them
    return [list(zip(*b)) for b in forms]


def test_line_table_matches_the_direct_product_order_table():
    # the one line source, which solves each run's last coordinate and
    # gives each line its images, against a brute-force isotropy test of
    # every row u in product order and the row products B_k u of
    # sigmamod._pairing: over F_p on the box range(p), and over ZZ on a
    # plain and a balanced box sharing one solved map, as the rational
    # search runs them.  Alternating forms and no forms at all keep every
    # line, so every line is compared; random forms, which are not
    # symmetric, keep some of them, and a form whose only nonzero entry is
    # the last diagonal corner keeps exactly the lines with last entry 0.
    # Over F_p the scanner's dim-1 scan serves the same lines with their
    # images, the same after a scan that stopped partway (inside the
    # first run of column 0, and half way) as from finished columns.
    rng = random.Random(17)
    compared = zz_lines = 0
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
            # the same forms on signed integers, with roots over ZZ for some runs
            signed = [
                [[x - p if x > p // 2 and rng.random() < 0.5 else x for x in row] for row in b]
                for b in forms
            ]
            searches = [(forms, p, [range(p)])]
            if n <= 3 and p <= 7:
                searches.append((signed, 0, [range(p), range(p // 2 + 1 - p, p // 2 + 1)]))
            for forms_here, modulus, boxes in searches:
                images, kills = _pairing(forms_here, modulus)
                columns, solved = columns_of(forms_here), {}
                for box in boxes:
                    for pc in range(n):
                        expected = [
                            (u, images(u))
                            for tail in itertools.product(box, repeat=n - 1 - pc)
                            for u in [(0,) * pc + (1,) + tail]
                            if kills(u, images(u))
                        ]
                        got = list(stability._lines(columns, modulus, n, pc, box, solved))
                        assert got == expected
                        compared += len(got)
                        zz_lines += len(got) if modulus == 0 and forms_here else 0
            lines = [
                ((u,), (pc,), imgs)
                for pc in range(n)
                for u, imgs in stability._lines(columns_of(forms), p, n, pc, range(p), {})
            ]
            for stop in (1, len(lines) // 2):
                scan = stability._isotropic_scanner(forms, p, n)
                partial = scan((1,))
                assert list(itertools.islice(partial, stop)) == lines[:stop]
                del partial
                assert list(scan((1,))) == lines
                assert list(scan((1,))) == lines
            if keeps_every_line:
                assert len(lines) == (p**n - 1) // (p - 1)
            elif forms == [corner]:
                assert len(lines) == (p ** (n - 1) - 1) // (p - 1)
    assert compared > 5000 and zz_lines > 300


def test_a_line_over_a_huge_field_builds_nothing_sized_by_p():
    # F_p^1 has one line whatever p, so it passes the line bound, and the
    # scan must then build nothing sized by p: over F_p, and over QQ,
    # where <3> at that prime has the plain and the balanced box, each as
    # long as p.  The scans run in a child process with its address space
    # capped, so a table or a box listed over range(p) fails there at once
    # instead of filling the machine's memory.
    code = (
        "from twistmod.linalg import GF, QQ, Matrix\n"
        "from twistmod.sigmamod import InvolutionSpace, SigmaModule\n"
        "from twistmod.stability import enumerate_totally_isotropic, semistability_verdict\n"
        "big = 2305843009213693951\n"
        "f = GF(big)\n"
        "for entry in (0, 3):\n"
        "    q = SigmaModule(f, 1, InvolutionSpace.trivial(f), 1, [Matrix(f, [[entry]])])\n"
        "    print(len(enumerate_totally_isotropic(q)), semistability_verdict(q).status)\n"
        "q = SigmaModule(QQ, 1, InvolutionSpace.trivial(QQ), 1, [Matrix(QQ, [[3]])])\n"
        "print(semistability_verdict(q, primes=(big,)).status)\n"
    )

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, preexec_fn=cap
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == f"1 {UNSTABLE}\n0 {STABLE}\n{NO_DESTABILIZER_FOUND}\n"


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


def census(q, n, sign):
    """(semistable, stable) counts over every dim W = 1 module of F_q^n
    whose form is symmetric (sign 1) or alternating (sign -1)."""
    field = GF(q)
    pairs = [(i, j) for i in range(n) for j in range(i, n) if sign == 1 or i < j]
    semistable = stable = 0
    for entries in itertools.product(range(q), repeat=len(pairs)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), x in zip(pairs, entries):
            rows[i][j], rows[j][i] = x, sign * x
        status = semistability_verdict(module_1form(field, rows, sign=sign)).status
        semistable += status in (STABLE, STRICTLY_SEMISTABLE)
        stable += status == STABLE
    return semistable, stable


def test_the_semistable_census_matches_closed_forms():
    # with dim W = 1, semistable means nonsingular.  Nonsingular symmetric
    # n x n matrices over F_q, q odd, number q^(m(m+1)) prod (q^(2i-1) - 1)
    # with m = n // 2 and i up to (n + 1) // 2 (MacWilliams, Amer. Math.
    # Monthly 76, 1969); the stable binary forms are the anisotropic ones,
    # q(q - 1)^2 / 2; nonsingular alternating 2m x 2m matrices number
    # q^(m(m-1)) prod_(i <= m) (q^(2i-1) - 1)
    def symmetric(q, n):
        m = n // 2
        return q ** (m * (m + 1)) * math.prod(q ** (2 * i - 1) - 1 for i in range(1, (n + 3) // 2))

    def alternating(q, n):
        m = n // 2
        return q ** (m * (m - 1)) * math.prod(q ** (2 * i - 1) - 1 for i in range(1, m + 1))

    for q, n, expected in ((3, 1, 2), (3, 2, 18), (3, 3, 468), (5, 1, 4), (5, 2, 100)):
        semistable, stable = census(q, n, 1)
        assert semistable == symmetric(q, n) == expected
        if n == 2:
            assert stable == q * (q - 1) ** 2 // 2 == {3: 6, 5: 40}[q]
    for q, n, expected in ((2, 2, 1), (2, 4, 28), (3, 2, 2), (3, 4, 468), (5, 2, 4)):
        assert census(q, n, -1)[0] == alternating(q, n) == expected


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


def test_a_rational_joint_kernel_settles_a_verdict_before_the_size_rules():
    # over QQ a nonzero joint kernel is the first candidate, yielded before
    # any prime's line count, so it can answer a module that the line rule
    # refuses; over F_p the rule comes first.  No rule reads dim H: the
    # same modules at dim 5 answer over both fields
    def diagonal(field, entries):
        n = len(entries)
        return module_1form(field, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    for field in (QQ, GF(3)):
        verdict = semistability_verdict(diagonal(field, (1, 1, 0, 0, 0)))
        assert verdict.status == UNSTABLE
        if field is QQ:
            # the dim-3 joint kernel comes first
            assert verdict.certificate[0] == joint_kernel(diagonal(field, (1, 1, 0, 0, 0)))
            assert verdict.mu_value == -6
        else:
            # the first line of the scan, e3, is killed by the form
            assert verdict.certificate[0].basis.rows == ((0, 0, 1, 0, 0),)
            assert verdict.mu_value == -2
        with pytest.raises(StabilityError, match=r"^module is unstable$"):
            iso_filtration(diagonal(field, (1, 1, 0, 0, 0)))
    verdict = semistability_verdict(diagonal(QQ, (1, 1, 1, 1, 1)))
    assert verdict.status == NO_DESTABILIZER_FOUND
    assert verdict.provenance.primes == stability.DEFAULT_PRIMES

    mersenne = 2**61 - 1
    lines = "^F_2305843009213693951\\^2 has 2305843009213693952 candidate lines"
    assert semistability_verdict(diagonal(QQ, (1, 0)), primes=(mersenne,)).status == UNSTABLE
    for q in (diagonal(QQ, (1, 1)), diagonal(GF(mersenne), (1, 0))):
        with pytest.raises(BoundExceededError, match=lines):
            semistability_verdict(q, primes=(mersenne,))


# -- the scan budget ---------------------------------------------------------

# a swap module over F_3^5 whose filtration has two levels, on F_3^5 and
# F_3^3, whose scans test 200 and 6 candidate rows; its verdict and its
# enumeration test 200
SWAP_TWO_LEVELS = (
    [(2, 0, 1, 1, 2), (2, 0, 2, 2, 1), (1, 0, 1, 1, 2), (1, 2, 0, 0, 0), (2, 1, 0, 1, 1)],
    [(2, 2, 1, 1, 2), (0, 0, 0, 2, 1), (1, 2, 1, 0, 0), (1, 2, 1, 0, 1), (2, 1, 2, 0, 1)],
)


# a strictly semistable swap module over QQ whose witness is a plane, a
# balanced lift at 5
SWAPPED_QQ = (
    '{"field":"rational","sign":"+1","dim_h":4,"w":{"dim":2,"involution":[["0","1"],["1","0"]]},'
    '"forms":[[["3","0","-1","2"],["3","2","3","-1"],["2","4","0","2"],["0","2","1","0"]],'
    '[["3","3","2","0"],["0","2","4","2"],["-1","3","0","1"],["2","-1","2","0"]]]}'
)


def swap_two_levels():
    f3 = GF(3)
    return SigmaModule(f3, 5, swap_w(f3), 1, [Matrix(f3, rows) for rows in SWAP_TWO_LEVELS])


def test_the_scan_budget_refuses_by_the_rows_tested(monkeypatch):
    # each public call refuses on the first row past _SCAN_BUDGET, naming
    # the space, the bound and the dim it reached, and answers when the
    # budget holds every row it tests
    symplectic = module_1form(GF(3), [[0, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 0], [0, 2, 0, 0]], sign=-1)
    swapped = parse_module_file(SWAPPED_QQ).module
    q = swap_two_levels()
    cases = [
        (lambda: enumerate_totally_isotropic(symplectic), 212, "F_3^4", 4),
        (lambda: enumerate_totally_isotropic(q), 200, "F_3^5", 3),
        (lambda: semistability_verdict(q), 200, "F_3^5", 3),
        (lambda: iso_filtration(q), 206, "F_3^3", 2),
        (lambda: graded(q), 206, "F_3^3", 2),
        (lambda: semistability_verdict(swapped), 60, "Q^4", 2),
        (lambda: graded(swapped), 8, "Q^4", 2),
    ]
    assert len(enumerate_totally_isotropic(symplectic)) == 80
    assert semistability_verdict(q).status == STRICTLY_SEMISTABLE
    assert graded(q).length == 2
    for call, rows, space, dim in cases:
        monkeypatch.setattr(stability, "_SCAN_BUDGET", rows - 1)
        refusal = f"the isotropic search of {space} exceeds {rows - 1} candidate rows at dim {dim}"
        with pytest.raises(BoundExceededError, match=f"^{re.escape(refusal)}$"):
            call()
        monkeypatch.setattr(stability, "_SCAN_BUDGET", rows)
        call()


def test_the_levels_of_one_filtration_share_one_budget(monkeypatch):
    # every level of one filtration draws on one budget: the two levels
    # fit 200 and 6 rows apart, but not 206 - 1 together, and each level's
    # search gets the same budget object
    budgets = []
    scanner = stability._isotropic_scanner

    def recorded(forms, p, n, primes=(), budget=None):
        budgets.append(budget)
        return scanner(forms, p, n, primes, budget)

    monkeypatch.setattr(stability, "_isotropic_scanner", recorded)
    assert graded(swap_two_levels()).length == 2
    assert len(budgets) == 3 and all(b is budgets[0] for b in budgets)
    assert budgets[0] == [stability._SCAN_BUDGET - 206]
    monkeypatch.setattr(stability, "_SCAN_BUDGET", 205)
    with pytest.raises(BoundExceededError, match="^the isotropic search of F_3\\^3 exceeds 205"):
        graded(swap_two_levels())
    # two public calls draw on two budgets
    assert semistability_verdict(swap_two_levels()).status == STRICTLY_SEMISTABLE
    assert len(enumerate_totally_isotropic(swap_two_levels())) > 0


def test_semistable_by_construction_swap_modules_answer_past_dim_4():
    # a swap module with a nonsingular form is semistable, since the rows
    # B_k u over a basis of V are independent constraints on V^perp; at
    # F_5^5, F_3^6 and F_7^6, where a dim cap once refused them, the
    # verdict and the filtration answer at both signs
    rng = random.Random(7)
    for p, n in ((5, 5), (3, 6), (7, 6)):
        field = GF(p)
        for sign in (1, -1):
            q = random_module(rng, field, n, swap_w(field), sign)
            while all(rank_mod_p(b.num, p) < n for b in q.forms):
                q = random_module(rng, field, n, swap_w(field), sign)
            status = semistability_verdict(q).status
            assert status in (STABLE, STRICTLY_SEMISTABLE), (p, n, sign)
            assert (iso_filtration(q).length > 0) == (status == STRICTLY_SEMISTABLE)


def test_verdicts_past_dim_4_are_invariant_under_the_action():
    # act(g, .) moves a witness V to g V, so the status, the isotropy class
    # of the witness and dim V + dim V^perp cannot change
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        st.sampled_from((2, 3, 5)),
        st.sampled_from((5, 6)),
        st.booleans(),
        st.sampled_from((1, -1)),
        st.integers(0, 2**32),
    )
    def invariant(p, n, swap, sign, seed):
        rng = random.Random(seed)
        field = GF(p)
        q = random_module(rng, field, n, swap_w(field) if swap else trivial_w(field), sign)
        g = Matrix(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        hypothesis.assume(g.rank() == n)
        moved = act(g, q)
        before, after = semistability_verdict(q), semistability_verdict(moved)
        assert before.status == after.status
        if before.certificate is None:
            assert after.certificate is None
            return
        v, w = before.certificate[0], after.certificate[0]
        gv = Subspace(field, n, (v.basis @ g.transpose()).rows)
        assert isotropy_class(q, v) == isotropy_class(moved, w) == isotropy_class(moved, gv)
        assert gv.dim + orthogonal(moved, gv).dim == v.dim + orthogonal(q, v).dim

    invariant()


def test_the_joint_kernel_is_the_orthogonal_of_h():
    # joint_kernel solves x . B_k e_i = 0 column by column; the public
    # orthogonal of H solves the same conditions from the basis of H.
    # One sample in three zeros a row and a column of every form, so that
    # the kernel holds a unit vector
    rng = random.Random(41)

    def sparse_module(field, n, w, sign, zero):
        raw = [
            Matrix(
                field,
                [
                    [0 if zero in (i, j) else rng.choice((0, 0, 1, -1, 2)) for j in range(n)]
                    for i in range(n)
                ],
            )
            for _ in range(w.dim)
        ]
        return symmetrize(field, n, w, sign, raw)

    nonzero = 0
    for field in (GF(2), GF(3), GF(5), GF(7), QQ):
        for n in (1, 2, 3, 4):
            for w in (trivial_w(field), swap_w(field)):
                for sign in (1, -1):
                    for q in (
                        random_module(rng, field, n, w, sign),
                        sparse_module(field, n, w, sign, None),
                        sparse_module(field, n, w, sign, rng.randrange(n)),
                    ):
                        kernel = joint_kernel(q)
                        assert kernel == orthogonal(q, Subspace.full(field, n))
                        nonzero += not kernel.is_zero()
    assert nonzero > 80


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


def reduce_by_hand(q, p):
    """q mod p, entry by entry, or None when p divides a denominator of
    the involution or of a form."""
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


def test_rational_candidates_match_the_filtered_lifts():
    # the QQ candidate stream against a restatement built from the public
    # oracles: the nonzero joint kernel first, then reduce each prime by
    # hand (a repeated prime counts in its first place only), filter
    # all_subspaces with isotropy_class, lift residues as r and as
    # balanced r or r - p, keep each lift once and only when it is
    # totally isotropic over QQ.  The default primes run at dims 1-3 and
    # (2, 3) at dim 4; unsorted and repeated lists run at dims 1-3, and
    # modules with denominators 2, 3, 5 and 7 skip those primes
    rng = random.Random(41)

    def lifts(vp, p):
        for balanced in (False, True):
            rows = [[r - p if balanced and r > p // 2 else r for r in row] for row in vp.basis.rows]
            yield Subspace(QQ, vp.ambient, [[Fraction(r) for r in row] for row in rows])

    isotropic_mod: dict = {}

    def isotropic(q, p):
        # the totally isotropic subspaces mod p, None when p divides a denominator
        key = (id(q), p)
        if key not in isotropic_mod:
            qp = reduce_by_hand(q, p)
            isotropic_mod[key] = None if qp is None else [
                v for v in all_subspaces(GF(p), q.dim_h)
                if isotropy_class(qp, v) == TOTALLY_ISOTROPIC
            ]
        return isotropic_mod[key]

    def reference(q, primes, full):
        n = q.dim_h
        primes = [p for p in dict.fromkeys(primes) if isotropic(q, p) is not None]
        if full:
            steps = [(p, range(1, n + 1)) for p in primes]
        else:
            steps = [(p, (d,)) for d in range(1, n + 1) for p in primes]
        kernel = joint_kernel(q)
        out = [] if kernel.is_zero() else [kernel]
        seen = {kernel}
        for p, dims in steps:
            for vp in isotropic(q, p):
                if vp.dim not in dims:
                    continue
                for v in lifts(vp, p):
                    if v not in seen:
                        seen.add(v)
                        if isotropy_class(q, v) == TOTALLY_ISOTROPIC:
                            out.append(v)
        return out, primes

    def entry(dens):
        return Fraction(rng.choice((0, 0, 0, 1, -1, 2)), rng.choice(dens))

    def sparse_module(n, w, sign, dens=(1,)):
        raw = [
            Matrix(QQ, [[entry(dens) for _ in range(n)] for _ in range(n)]) for _ in range(w.dim)
        ]
        return symmetrize(QQ, n, w, sign, raw)

    cases = []
    for n in (1, 2, 3):
        for w in (trivial_w(QQ), swap_w(QQ)):
            for sign in (1, -1):
                for q in (random_module(rng, QQ, n, w, sign), sparse_module(n, w, sign)):
                    cases.append((q, (2, 3, 5, 7, 11, 13)))
                q = sparse_module(n, w, sign)
                cases += [(q, (7, 2, 5)), (q, (3, 3, 2))]
                cases.append((sparse_module(n, w, sign, (1, 5, 7)), (2, 3, 5, 7, 11)))
    for w in (trivial_w(QQ), swap_w(QQ)):
        for sign in (1, -1):
            cases.append((sparse_module(4, w, sign), (2, 3)))

    total = skipped = dim4 = 0
    for q, primes in cases:
        for full in (True, False):
            tried = []
            found = candidates(q, primes, tried, full)
            expected, reducible = reference(q, primes, full)
            assert [v for v, _, _ in found] == expected
            for v, perp_dim, images in found:
                assert perp_dim == orthogonal(q, v).dim
                # every candidate, the joint kernel's () included, carries
                # the images its orthogonal is solved from
                assert sigmamod._perp(q, images)[0] == orthogonal(q, v)
            if full:
                assert tried == reducible
                skipped += len(reducible) < len(set(primes))
            total += len(found)
            dim4 += len(found) if q.dim_h == 4 else 0
    assert total > 100 and dim4 > 10
    assert skipped > 10


def test_integer_gram_test_matches_the_exact_isotropy_class():
    # the search over ZZ against the exact three-way class: with one prime
    # p in the list, every subspace it yields is totally isotropic over QQ,
    # and every plain or balanced lift of a totally isotropic subspace mod
    # p (from all_subspaces) that is totally isotropic over QQ is yielded.
    # Denominators 2, 3 and 6 in one form catch a wrong scaling, and
    # lines (whose only Gram entries are diagonal) catch a skipped i == j
    # pair.  The identity involution on a 2-dim W gives two unrelated
    # forms, so a root of the first form that the second does not share
    # shows here; under the swap involution the second form is the
    # transpose of the first up to sign, with the same diagonal
    rng = random.Random(43)

    def entry(dens):
        return Fraction(rng.choice((0, 0, 0, 1, -1, 2)), rng.choice(dens))

    outcomes = []
    modules = 0
    for n in (1, 2, 3):
        for w in (trivial_w(QQ), swap_w(QQ), InvolutionSpace(QQ, Matrix.identity(QQ, 2))):
            for sign in (1, -1):
                for dens in ((1,), (1, 2), (1, 3), (2, 3, 6)):
                    raw = [
                        Matrix(QQ, [[entry(dens) for _ in range(n)] for _ in range(n)])
                        for _ in range(w.dim)
                    ]
                    q = symmetrize(QQ, n, w, sign, raw)
                    modules += 1
                    forms = integer_forms(q)
                    for p in (2, 3, 5, 7):
                        qp = reduce_by_hand(q, p)
                        if qp is None:
                            continue
                        scan = stability._isotropic_scanner(forms, 0, n, [p])
                        yielded = set()
                        for rows, pivots, _ in scan(range(1, n + 1), p):
                            v = Subspace(QQ, n, [[Fraction(x) for x in row] for row in rows])
                            assert v.pivots == pivots
                            assert isotropy_class(q, v) == TOTALLY_ISOTROPIC
                            yielded.add(rows)
                        for vp in all_subspaces(GF(p), n):
                            if isotropy_class(qp, vp) != TOTALLY_ISOTROPIC:
                                continue
                            for balanced in (False, True):
                                rows = tuple(
                                    tuple(r - p if balanced and r > p // 2 else r for r in row)
                                    for row in vp.basis.rows
                                )
                                v = Subspace(QQ, n, [[Fraction(x) for x in row] for row in rows])
                                exact = isotropy_class(q, v) == TOTALLY_ISOTROPIC
                                assert (rows in yielded) == exact
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


def test_a_repeated_prime_is_scanned_once():
    q = module_1form(QQ, [[1, 0], [0, 1]])
    verdict = semistability_verdict(q, primes=(2, 2, 3))
    assert verdict.status == NO_DESTABILIZER_FOUND
    assert verdict.provenance.primes == (2, 3)


def test_a_prime_list_is_checked_before_any_work(monkeypatch):
    # every entry that GF refuses is refused with FieldError, as
    # --prime-list refuses it, before any scan starts: also when the
    # joint kernel alone decides (x^2 kills e2), and over F_p, where the
    # list is not read; 2^127 - 1 is prime, past the certified range
    scans = []
    candidates = stability._candidates

    def counted(*args, **kwargs):
        scans.append(args)
        return candidates(*args, **kwargs)

    monkeypatch.setattr(stability, "_candidates", counted)
    modules = [
        module_1form(QQ, [[1, 0], [0, -1]]),
        module_1form(QQ, [[1, 0], [0, 0]]),
        module_1form(GF(3), [[1, 0], [0, 2]]),
    ]
    for q in modules:
        for bad in (0, 4, -3, 1, True, 2.0, "3", 2**127 - 1):
            for run in (
                lambda primes: semistability_verdict(q, primes=primes),
                lambda primes: graded(q, primes=primes),
                lambda primes: iso_filtration(q, primes=primes),
                lambda primes: s_equivalent(q, q, primes=primes),
            ):
                with pytest.raises(FieldError):
                    run((2, bad))
    assert scans == []
    verdict = semistability_verdict(modules[0], primes=iter([5, 3]))
    assert verdict.status == STRICTLY_SEMISTABLE
    assert verdict.provenance.primes == (5, 3)
    # a list read once serves both graded modules of s_equivalent: with
    # no prime the moved copy keeps an empty filtration, and the bounded
    # QQ search cannot match it to the graded module of the fixture
    fixture = module_1form(QQ, [[0, 0, 1], [0, 1, 1], [1, 1, 1]])
    moved = act(Matrix(QQ, [[1, 3, 0], [0, 1, 5], [0, 0, 1]]), fixture)
    assert s_equivalent(fixture, moved, primes=(2, 3)) == "yes"
    assert s_equivalent(fixture, moved, primes=iter([2, 3])) == "yes"
    assert semistability_verdict(modules[1], primes=[2]).status == UNSTABLE


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
    # a stale positional mode or size bound binds to nothing: the prime
    # list is keyword-only
    with pytest.raises(TypeError):
        semistability_verdict(q3, "exhaustive")
    for call in (lambda: iso_filtration(q3, 5), lambda: graded(q3, 5), lambda: s_equivalent(q3, q3, 5)):
        with pytest.raises(TypeError):
            call()
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
    # builds one search over the integers (p = 0) and asks it for each
    # (prime, dims) step it reaches.  The nonsingular dim-3 level stops at
    # its first equality, a line mod 2, so it reaches no later prime; the
    # stable core finds no equality and reaches every prime.
    scanned, verdicts, searches, steps = [], [], [], []
    scan, verdict = stability._candidates, stability.semistability_verdict
    isotropic_scanner = stability._isotropic_scanner

    def counted_search(forms, p, n, primes=(), budget=None):
        searches.append((n, p))
        search = isotropic_scanner(forms, p, n, primes, budget)

        def counted(dims=None, prime=p):
            steps.append((n, prime, tuple(dims)))
            return search(dims, prime)

        return counted

    def counted_scan(q, *args, **kwargs):
        scanned.append(q.dim_h)
        return scan(q, *args, **kwargs)

    def counted_verdict(*args, **kwargs):
        verdicts.append(args)
        return verdict(*args, **kwargs)

    monkeypatch.setattr(stability, "_candidates", counted_scan)
    monkeypatch.setattr(stability, "semistability_verdict", counted_verdict)
    monkeypatch.setattr(stability, "_isotropic_scanner", counted_search)
    gm = graded(module_1form(QQ, [[0, 0, 1], [0, 1, 1], [1, 1, 1]]))
    assert gm.length == 1
    assert scanned == [3, 1]
    assert searches == [(3, 0), (1, 0)]
    assert verdicts == []
    assert steps == [(3, 2, (1,))] + [(1, p, (1,)) for p in stability.DEFAULT_PRIMES]


def test_a_module_is_validated_once_at_its_construction(monkeypatch):
    # the constructor checks the symmetry relation, so a parsed module is
    # validated once and no search checks it again; graded validates only
    # what it builds: each level's reduction and the assembled module
    calls = []

    def counted(q):
        calls.append(q.dim_h)
        return validate(q)

    for module in (sigmamod, stability, hilbert):
        monkeypatch.setattr(module, "validate", counted)
    parse_module_file(SWAPPED_QQ)
    assert calls == [4]
    q = swap_two_levels()
    moved = act(Matrix(GF(3), [[int(j in (i, i + 1)) for j in range(5)] for i in range(5)]), q)
    calls.clear()
    semistability_verdict(q)
    enumerate_totally_isotropic(q)
    hilbert_mumford_sweep(q, 1)
    assert is_isomorphic(q, moved).status == "yes"
    assert calls == []
    assert graded(q).length == 2
    assert calls == [3, 1, 5]


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

    primes = (2, 3, 5, 7)

    def read_to_end(q, full):
        # (destabilizer, equality) over the whole stream, as _scan defines them
        equality = None
        for found in candidates(q, primes, [], full):
            total = found[0].dim + found[1]
            if total > q.dim_h:
                return found, equality
            if total == q.dim_h and equality is None:
                equality = found
        return None, equality

    stopped = singular_unstable = 0
    for q in samples:
        # a full scan, the rational verdict's, never stops at an equality
        assert stability._scan(q, primes, [], True) == read_to_end(q, True)
        whole = read_to_end(q, False)
        if stability._no_destabilizer(q, integer_forms(q)):
            assert whole[0] is None
            assert stability._scan(q, primes, [], False) == whole
            stopped += whole[1] is not None
        elif whole[0] is not None and joint_kernel(q).is_zero():
            singular_unstable += 1
    assert stopped > 100
    assert singular_unstable > 5


def test_witnesses_solve_their_orthogonal_from_the_scan_images(monkeypatch):
    # a certificate's subgroup and a level's reduction are built from the
    # images the scan yielded with the witness, through sigmamod._perp:
    # no public orthogonal, isotropic_reduction or destabilizing_1ps runs,
    # in the F_p verdict nor in graded over F_p and over QQ
    calls = []
    for module in (sigmamod, hilbert, stability):
        for name in ("orthogonal", "isotropic_reduction", "destabilizing_1ps"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    solved = []
    perp = sigmamod._perp

    def recorded(q, images):
        solved.append(q.field.kind)
        return perp(q, images)

    monkeypatch.setattr(stability, "_perp", recorded)
    unstable = semistability_verdict(module_1form(GF(3), [[1, 0], [0, 0]]))
    assert unstable.status == UNSTABLE and unstable.mu_value == -2
    hyperbolic = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    equality = semistability_verdict(module_1form(GF(5), hyperbolic))
    assert equality.status == STRICTLY_SEMISTABLE and equality.mu_value == 0
    assert solved == ["fp", "fp"]
    fixture = [[0, 0, 1], [0, 1, 1], [1, 1, 1]]
    for field in (GF(3), GF(5), QQ):
        gm = graded(module_1form(field, fixture))
        assert gm.length == 1 and gm.core.dim_h == 1
    gm = graded(module_1form(GF(5), hyperbolic))
    assert gm.length == 2 and gm.core.dim_h == 0
    assert calls == []
    # a QQ level solves its witness's orthogonal in the recheck and in
    # the reduction, and a stable scan solves only its lifts
    assert solved.count("fp") == 6 and "rational" in solved


def record_solved_prefixes(monkeypatch):
    """The list of (prefix u, prime) for each prefix u = w + x e_j whose
    roots linalg._zeros solves over ZZ, at the prime of the box it reads,
    in order."""
    solved = []
    zeros = stability._zeros

    def recorded(plane, roots, w, xs, box, p):
        known = set(roots)
        found = zeros(plane, roots, w, xs, box, p)
        solved.extend((w[:-2] + (x, 0), len(box)) for x in roots if x not in known)
        return found

    monkeypatch.setattr(stability, "_zeros", recorded)
    return solved


def record_solved_planes(monkeypatch):
    """The list of prefixes w whose planes linalg._zeros solves, one
    entry a call."""
    planes = []
    zeros = stability._zeros

    def recorded(plane, roots, w, xs, box, p):
        planes.append(w)
        return zeros(plane, roots, w, xs, box, p)

    monkeypatch.setattr(stability, "_zeros", recorded)
    return planes


def test_the_fp_verdict_stops_inside_the_first_column(monkeypatch):
    # a nonsingular dim-4 module over F_5 whose first line (1, 0, 0, 0) is
    # isotropic: the verdict stops at that equality, so pivot column 0,
    # 125 candidate rows on 5 planes, is started and never read to its
    # end, and only its first plane, of w = (1, 0, 0, 0), is solved
    finished, started = [], []
    lines = stability._lines

    def recorded(columns, p, n, pc, box, solved):
        started.append(pc)
        yield from lines(columns, p, n, pc, box, solved)
        finished.append(pc)

    monkeypatch.setattr(stability, "_lines", recorded)
    planes = record_solved_planes(monkeypatch)
    hyperbolic = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    q = module_1form(GF(5), hyperbolic)
    verdict = semistability_verdict(q)
    assert verdict.status == STRICTLY_SEMISTABLE
    assert verdict.certificate[0].basis.rows == ((1, 0, 0, 0),)
    assert started == [0] and finished == []
    assert planes == [(1, 0, 0, 0)]


def test_an_fp_line_at_a_huge_prime_solves_one_plane(monkeypatch):
    # <1, 1> over F_99991 (99,992 lines, inside the line bound): pivot
    # column 0 is the one plane of w = 0 with x held at the lead 1, so its
    # run 1 + t^2, which has no root since 99,991 is 3 mod 4, is solved in
    # one pass over the box, and column 1 is the corner alone
    planes = record_solved_planes(monkeypatch)
    identity = [[1, 0], [0, 1]]
    verdict = semistability_verdict(module_1form(GF(99_991), identity))
    assert verdict.status == STABLE
    assert planes == [(0, 0)]


def test_a_line_yielded_by_a_scan_is_the_callers_to_change():
    # the readers keep each column's lines for every later scan, so what a
    # dim-1 scan yields must share nothing with them: a caller that
    # clears the images of every line it was given changes no later scan
    forms = [[[1, 2, 0], [2, 0, 1], [0, 1, 0]]]
    expected = list(stability._isotropic_scanner(forms, 3, 3)((1,)))
    assert expected
    scan = stability._isotropic_scanner(forms, 3, 3)
    for _ in range(2):
        given = list(scan((1,)))
        assert given == expected
        for _, _, images in given:
            images.clear()
            images.append(None)
    assert list(scan()) == list(stability._isotropic_scanner(forms, 3, 3)())


def test_a_rational_level_that_stops_at_2_solves_only_the_2_boxes(monkeypatch):
    # the QQ analogue: the nonsingular fixture's first level stops at its
    # first equality, the line (1, 0, 0), found mod 2 on the first plane
    # of pivot column 0; the search reads that column lazily, so it
    # solves that plane alone, up to its end: its two prefixes of the
    # p = 2 box {0, 1}, and no plane of a later prime's box
    planes = record_solved_planes(monkeypatch)
    solved = record_solved_prefixes(monkeypatch)
    q = module_1form(QQ, [[0, 0, 1], [0, 1, 1], [1, 1, 1]])
    tried = []
    worse, equality = stability._scan(q, stability.DEFAULT_PRIMES, tried, False)
    assert worse is None and equality[0].basis.rows == ((1, 0, 0),)
    assert tried == [2]
    assert planes == [(1, 0, 0)]
    assert solved == [((1, 0, 0), 2), ((1, 1, 0), 2)]


def test_a_rational_line_at_a_huge_prime_solves_one_run(monkeypatch):
    # the last entry of a run is solved over ZZ, so a prime far beyond the
    # entries costs no pass over range(p): <3> at 2^61 - 1 has one line,
    # e1, and no run at all; <1, 1> at 99,991 (99,992 lines, inside the
    # line bound) reads its one plane in both boxes and solves its one
    # run, 1 + t^2, once, with no root
    planes = record_solved_planes(monkeypatch)
    solved = record_solved_prefixes(monkeypatch)
    big = 2**61 - 1
    verdict = semistability_verdict(module_1form(QQ, [[3]]), primes=(big,))
    assert verdict.status == NO_DESTABILIZER_FOUND
    assert verdict.provenance == Provenance("heuristic", (big,))
    assert planes == solved == []
    verdict = semistability_verdict(module_1form(QQ, [[1, 0], [0, 1]]), primes=(99_991,))
    assert verdict.status == NO_DESTABILIZER_FOUND
    assert verdict.provenance == Provenance("heuristic", (99_991,))
    assert planes == [(0, 0), (0, 0)]
    assert solved == [((1, 0), 99_991)]
    # dim 2 at 2^61 - 1 is still refused before any work, with its message
    with pytest.raises(BoundExceededError) as refused:
        semistability_verdict(module_1form(QQ, [[1, 0], [0, 1]]), primes=(big,))
    assert str(refused.value) == (
        "F_2305843009213693951^2 has 2305843009213693952 candidate lines,"
        " over the search bound 100000"
    )
    assert solved == [((1, 0), 99_991)]


def test_a_rational_scanner_solves_each_prefix_once_over_every_box_and_prime(monkeypatch):
    # the ZZ search keeps the roots of each prefix w + x e_j per plane: a
    # full QQ verdict of the swap module under the default primes solves
    # each prefix once, over both boxes and all six primes, and reads
    # some of them again at a later prime
    solved = record_solved_prefixes(monkeypatch)
    read = []
    zeros = stability._zeros

    def recorded(plane, roots, w, xs, box, p):
        read.extend((w[:-2] + (x, 0), len(box)) for x in xs if x in roots)
        return zeros(plane, roots, w, xs, box, p)

    monkeypatch.setattr(stability, "_zeros", recorded)
    forms = [
        [[3, 0, -1, 2], [3, 2, 3, -1], [2, 4, 0, 2], [0, 2, 1, 0]],
        [[3, 3, 2, 0], [0, 2, 4, 2], [-1, 3, 0, 1], [2, -1, 2, 0]],
    ]
    q = SigmaModule(QQ, 4, swap_w(QQ), 1, [Matrix(QQ, b) for b in forms])
    verdict = semistability_verdict(q)
    assert verdict.status == STRICTLY_SEMISTABLE
    assert verdict.provenance == Provenance("heuristic", stability.DEFAULT_PRIMES)
    first = dict(solved)
    assert len(first) == len(solved) > 0
    assert any(prime > first[u] for u, prime in read)


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


def test_graded_limit_check_catches_a_corrupted_assembly(monkeypatch):
    # graded checks its assembled module against the limit of the
    # canonical subgroup in its own adapted basis, where both are
    # compared entry by entry
    fixture = module_1form(QQ, [[0, 0, 1], [0, 1, 1], [1, 1, 1]])
    wrap = stability._wrap

    def corrupt(r, c):
        def wrapped(*args):
            forms = wrap(*args)
            rows = [list(row) for row in forms[0].rows]
            rows[r][c] += 1
            return [Matrix(QQ, rows), *forms[1:]]

        return wrapped

    # a diagonal entry keeps the symmetry relation: only the limit sees it
    monkeypatch.setattr(stability, "_wrap", corrupt(1, 1))
    with pytest.raises(InternalCheckError, match="^graded limit disagrees with the assembled module$"):
        graded(fixture)
    monkeypatch.setattr(stability, "_wrap", corrupt(0, 2))
    with pytest.raises(InternalCheckError, match="^assembled graded module fails validation$"):
        graded(fixture)
    monkeypatch.setattr(stability, "_wrap", wrap)
    # with witness and dual model swapped, the weights no longer fit the
    # module: its nonzero (2, 2) entry gets weight sum 2 > 0
    build = stability._build_levels

    def swapped(*args):
        levels, chain, core, core_rows = build(*args)
        levels = [lv._replace(witness_rows=lv.dual_rows, dual_rows=lv.witness_rows) for lv in levels]
        return levels, chain, core, core_rows

    monkeypatch.setattr(stability, "_build_levels", swapped)
    with pytest.raises(InternalCheckError, match="^canonical subgroup has no limit$"):
        graded(fixture)


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


def test_s_equivalence_refuses_incompatible_modules_before_any_level(monkeypatch):
    # the field, the sign or W differ; the unstable F_5 line would have
    # been refused by its own filtration first
    f3 = GF(3)
    plane = module_1form(f3, [[0, 1], [1, 0]])
    others = [
        module_1form(GF(5), [[0, 1], [1, 0]]),
        module_1form(GF(5), [[0]]),
        module_1form(f3, [[0, 1], [2, 0]], sign=-1),
        random_module(random.Random(3), f3, 2, swap_w(f3), 1),
    ]

    def scan(*args):
        raise AssertionError("a filtration level was built")

    monkeypatch.setattr(stability, "_build_levels", scan)
    for other in others:
        for pair in ((plane, other), (other, plane)):
            with pytest.raises(FieldError, match=r"^incompatible ambient data$"):
                s_equivalent(*pair)


def test_s_equivalence_is_orbit_invariant():
    f3 = GF(3)
    q = module_1form(f3, [[0, 0, 1], [0, 1, 1], [1, 1, 1]])
    g = Matrix(f3, [[1, 2, 0], [0, 1, 1], [2, 0, 1]])
    assert g.rank() == 3
    assert s_equivalent(q, act(g, q)) == "yes"


# a strictly semistable swap module over QQ, and its act(g, .) for g below
SWAP_FIRST = (
    '{"field":"rational","sign":"-1","dim_h":3,"w":{"dim":2,"involution":[["0","1"],["1","0"]]},'
    '"forms":[[["0","-1","0"],["0","0","-1"],["-1","0","-1"]],[["0","0","1"],["1","0","0"],["0","1","1"]]]}'
)
SWAP_MOVED = (
    '{"field":"rational","sign":"-1","dim_h":3,"w":{"dim":2,"involution":[["0","1"],["1","0"]]},'
    '"forms":[[["3/25","7/50","-14/25"],["1/25","-3/25","-1/50"],["1/25","-3/25","12/25"]],'
    '[["-3/25","-1/25","-1/25"],["-7/50","3/25","3/25"],["14/25","1/50","-12/25"]]]}'
)
SWAP_G = [[-1, -2, 2], [-2, -2, -2], [0, -2, 1]]


def test_rational_s_equivalence_says_no_only_when_dim_h_differs():
    # the moved copy's witness has denominators, so the scan misses it and
    # graded keeps the whole module as an uncertified core: the assembled
    # modules are not isomorphic, though the inputs are
    q = parse_module_file(SWAP_FIRST).module
    moved = parse_module_file(SWAP_MOVED).module
    assert act(Matrix(QQ, SWAP_G), q) == moved
    assert is_isomorphic(graded(q).assembled, graded(moved).assembled).status == "no"
    assert s_equivalent(q, moved) == "unknown"
    assert s_equivalent(moved, q) == "unknown"
    # a hyperbolic plane differs in dim H, and that no stands
    plane = sigmamod.hyperbolic_module(
        sigmamod.LinearPiece((Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 1))), q.w, q.sign
    )
    assert s_equivalent(q, plane) == "no" and s_equivalent(plane, moved) == "no"


def test_rational_s_equivalence_never_says_no_to_a_moved_copy():
    # QQ modules under both involutions, dims 2-3, with raw entries in
    # {-1, 0, 1, 2}, against act(g, q) for g with entries in -2..2; the
    # first example is the pair above, which answered no
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(2, 3))
        w = draw(st.sampled_from((trivial_w(QQ), swap_w(QQ))))
        sign = draw(st.sampled_from((1, -1)))

        def square(values):
            return draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n))

        raw = [Matrix(QQ, square(st.sampled_from((-1, 0, 1, 2)))) for _ in range(w.dim)]
        g = Matrix(QQ, square(st.integers(-2, 2)))
        hypothesis.assume(g.det() != 0)
        return symmetrize(QQ, n, w, sign, raw), g

    @hypothesis.settings(max_examples=60)
    @hypothesis.example((parse_module_file(SWAP_FIRST).module, Matrix(QQ, SWAP_G)))
    @hypothesis.given(cases())
    def check(case):
        q, g = case
        try:
            status = s_equivalent(q, act(g, q))
        except StabilityError:
            # an unstable module has no graded module
            return
        assert status != "no"

    check()


# -- bounded Hilbert-Mumford sweep -------------------------------------------


def test_hilbert_mumford_sweep_fixtures():
    f3 = GF(3)
    assert hilbert_mumford_sweep(module_1form(f3, [[1, 0], [0, 1]])) == 0
    assert hilbert_mumford_sweep(module_1form(f3, [[0, 1], [1, 0]])) == 0
    assert hilbert_mumford_sweep(module_1form(f3, [[0]])) is MINUS_INFINITY
    assert hilbert_mumford_sweep(module_1form(f3, [[0, 0], [0, 1]])) < 0
    with pytest.raises(FieldError):
        hilbert_mumford_sweep(module_1form(QQ, [[1, 0], [0, 1]]))
    # F_5^4 and F_17^3 have 1,119 and 615 nonzero subspaces, but the walk
    # sees only the isotropic ones, and a nondegenerate form is semistable
    for p, n in ((5, 4), (17, 3)):
        identity = module_1form(GF(p), [[int(i == j) for j in range(n)] for i in range(n)])
        assert hilbert_mumford_sweep(identity) == 0
        assert semistability_verdict(identity).status != UNSTABLE


def test_a_negative_weight_bound_is_a_value_error_not_an_internal_one():
    # no weight lies in [-w, w] for w < 0, so no subgroup could be swept;
    # that is the caller's error, not a broken invariant
    q = module_1form(GF(3), [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="weight_bound"):
        hilbert_mumford_sweep(q, weight_bound=-1)
    assert hilbert_mumford_sweep(q, weight_bound=0) == 0
    # a bound that is not an int is refused the same way, and so is True,
    # which GF refuses for p too; before any work, so a QQ module, which
    # the sweep refuses with FieldError, meets the ValueError first
    rational = module_1form(QQ, [[1, 0], [0, 1]])
    for bound in (2.0, "2", None, True):
        for module in (q, rational):
            with pytest.raises(ValueError, match=f"^weight_bound must be an int, not {re.escape(repr(bound))}$"):
                hilbert_mumford_sweep(module, weight_bound=bound)


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
    """The ordered direct-sum decompositions of F_p^n into nonzero pieces,
    the work of ordered_sweep: a first piece of dim d (a Gaussian binomial
    of choices), one of its p^(d(n-d)) complements, and a decomposition of
    that complement."""
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
        p, n = q.field.p, q.dim_h
        total = ordered_decompositions(p, n)
        # the reference is slow on the big cases, so only the cheap ones
        # meet it at every weight bound
        for weight_bound in (0, 1, 2, 3) if total < 500 else (3,):
            expected = ordered_sweep(q, weight_bound=weight_bound)
            if total < 2000:
                # the reference visits every ordering of every decomposition
                bounds = {"max_decompositions": total - 1, "weight_bound": weight_bound}
                refused = ("refused", f"sweep exceeded {total - 1} decompositions")
                assert sweep_outcome(ordered_sweep, q, **bounds) == refused
            assert hilbert_mumford_sweep(q, weight_bound=weight_bound) == expected


# The flag sweep as it stood before it kept only the row pairs that a
# flag can ask about: every echelon row of every subspace against every
# other, both ways, and every weight tuple of every flag, with no pattern
# cache.  Kept unchanged as the oracle of the chain walk.
def row_table_sweep(q, weight_bound=3):
    p, n = q.field.p, q.dim_h
    subs, listed = flags(p, n)
    images, kills = _pairing([b.num for b in q.forms], p)
    index: dict = {}
    for basis in subs:
        for u in basis:
            index.setdefault(u, len(index))
    imgs = [images(u) for u in index]
    meets = [sum(1 << j for j, c in enumerate(imgs) if not kills(u, c)) for u in index]
    left, right = [], []
    for basis in subs:
        rows = [index[u] for u in basis]
        mask = 0
        for i in rows:
            mask |= meets[i]
        left.append(mask)
        right.append(sum(1 << i for i in rows))
    best = None
    for dims, flag in listed:
        pairs = []
        for j, b in enumerate(flag):
            for i, a in enumerate(flag[: j + 1]):
                if left[a] & right[b] or left[b] & right[a]:
                    pairs.append((i, j))
                    break
        descending = range(weight_bound, -weight_bound - 1, -1)
        for w in itertools.combinations(descending, len(dims)):
            if sum(map(operator.mul, w, dims)):
                continue
            value = max((w[i] + w[j] for i, j in pairs), default=MINUS_INFINITY)
            if best is None or value < best:
                best = value
    return best


def small_fields():
    """Every F_p^n, 1 <= n <= 5, with at most 200,000 ordered pairs of
    nonzero subspaces, whose flags oracles.flags lists in seconds, but
    for F_p^1 and F_p^2 only up to p = 13 and the largest, p = 443."""
    for p in (2, 3, 5, 7, 11, 13, 443):
        for n in range(1, 6):
            if subspace_count(p, n) ** 2 <= 200_000 and (p < 443 or n == 2):
                yield p, n


def test_the_sweep_matches_the_full_row_table():
    rng = random.Random(17)
    fields = list(small_fields())
    assert {(2, 5), (3, 4), (7, 3), (11, 3), (13, 3), (443, 2)} <= set(fields)
    assert (5, 4) not in fields and (3, 5) not in fields
    for p, n in fields:
        field = GF(p)
        # the row table tries every weight tuple of every flag, so the
        # largest fields run fewer cases at one weight bound: F_443^2 and
        # the fields with over 1,000 flags at 3, F_2^5 (27,808) at 1
        listed = len(flags(p, n)[1])
        few = p == 443 or listed > 1000
        cases = [module_1form(field, [[0] * n for _ in range(n)])]
        for w in (trivial_w(field), swap_w(field)):
            for sign in (1,) if few else (1, -1):
                cases.append(random_module(rng, field, n, w, sign))
        # swap pairs (A, A^T), whose forms pair u with v and v with u
        # differently: random A, and each A with a single nonzero entry
        # off the diagonal
        for _ in range(1 if few else 3):
            cases.append(swap_pair(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)]))
        off_diagonal = list(itertools.permutations(range(n), 2))
        for k, l in off_diagonal[:2] if few else off_diagonal:
            cases.append(swap_pair(field, [[int((i, j) == (k, l)) for j in range(n)] for i in range(n)]))
        bounds = (1, 3) if not few else (1,) if listed > 10_000 else (3,)
        for q in cases:
            for bound in bounds:
                assert hilbert_mumford_sweep(q, bound) == row_table_sweep(q, bound), (p, n, bound)


def test_the_sweep_matches_the_flag_sweep_on_drawn_modules():
    # the minimum over the chain flags is the minimum over every flag, as
    # measured here on drawn modules: each involution of dim W <= 2 that
    # the fields carry, both signs, dense or sparse forms, and the swap
    # pair (A, sign A^T) of one drawn form A, at weight bounds 0 to 5
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    involutions = {"trivial": [[1]], "swap": [[0, 1], [1, 0]], "diag": [[1, 0], [0, -1]], "raw": [[0, 1], [1, 0]]}

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(
        st.sampled_from(((2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2), (5, 3), (7, 2))),
        st.sampled_from(sorted(involutions)),
        st.sampled_from((1, -1)),
        st.booleans(),
        st.integers(0, 2**32),
    )
    def check(field_dim, kind, sign, sparse, seed):
        (p, n), rng = field_dim, random.Random(seed)
        # diag(1, -1) is the identity over F_2
        hypothesis.assume(p > 2 or kind != "diag")
        field = GF(p)
        w = InvolutionSpace(field, Matrix(field, involutions[kind]))

        def square():
            return Matrix(field, [[rng.randrange(p) if rng.random() < (0.25 if sparse else 1) else 0 for _ in range(n)] for _ in range(n)])

        if kind == "raw":
            q = swap_pair(field, square().rows, sign)
        else:
            q = symmetrize(field, n, w, sign, [square() for _ in range(w.dim)])
        for bound in range(6):
            assert hilbert_mumford_sweep(q, bound) == flag_sweep(q, bound), bound

    check()


def test_the_subspace_count_matches_the_listed_subspaces():
    for p, top in ((2, 5), (3, 4), (5, 3), (7, 2), (443, 1)):
        for n in range(top + 1):
            assert subspace_count(p, n) == len(list(all_subspaces(GF(p), n))), (p, n)


def test_the_sweep_agrees_with_the_verdict_on_the_largest_flag_sweep_fields():
    # each has at most 373^2 subspace pairs, the most the flag sweep
    # compared, and 1.9 to 17.7 million ordered direct-sum decompositions
    rng = random.Random(33)
    statuses = set()
    for p, n in ((3, 4), (11, 3), (13, 3), (2, 5)):
        field = GF(p)
        for w in (trivial_w(field), swap_w(field)):
            for sign in (1, -1):
                q = random_module(rng, field, n, w, sign)
                status = semistability_verdict(q).status
                assert (hilbert_mumford_sweep(q) < 0) == (status == UNSTABLE), (p, n)
                statuses.add(status)
    assert UNSTABLE in statuses and STRICTLY_SEMISTABLE in statuses


def test_the_sweep_reaches_past_the_flag_sweep():
    # F_5^5, F_7^5 and F_3^6 have 42,175 to 285,703 nonzero subspaces, too
    # many for the flag sweep, but the walk sees only the isotropic ones.
    # The forms of each swap module vanish on the first k coordinates, so
    # e_1 .. e_k span a totally isotropic V with V^perp of dim at least k:
    # k > n / 2 destabilizes.  Every module is moved by a random g, which
    # changes no sweep
    rng = random.Random(37)
    statuses = set()
    for p, n in ((5, 5), (7, 5), (3, 6)):
        field = GF(p)
        for sign in (1, -1):
            for k in (0, n // 2, n // 2 + 1):
                raw = [
                    Matrix(field, [[0 if i < k and j < k else rng.randrange(p) for j in range(n)] for i in range(n)])
                    for _ in range(2)
                ]
                q = symmetrize(field, n, swap_w(field), sign, raw)
                g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                while rank_mod_p(g, p) < n:
                    g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                status = semistability_verdict(q).status
                swept = hilbert_mumford_sweep(q)
                assert (swept < 0) == (status == UNSTABLE), (p, n, sign, k)
                assert hilbert_mumford_sweep(act(Matrix(field, g), q)) == swept, (p, n, sign, k)
                statuses.add(status)
    assert statuses == {STABLE, STRICTLY_SEMISTABLE, UNSTABLE}


def test_the_sweep_charges_its_walk_to_the_scan_budget(monkeypatch):
    # the sweep of the symplectic F_3^4 tests the 212 candidate rows of its
    # search, which finds its 40 lines and 40 planes, then takes 840 walk
    # steps: 200 lines listed, 400 holders of a first row tested and 240
    # chains scored.  It refuses on the first row or step past
    # _SCAN_BUDGET, and answers when the budget holds them all
    symplectic = module_1form(GF(3), [[0, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 0], [0, 2, 0, 0]], sign=-1)
    for rows, refusal in (
        (212, "the isotropic search of F_3^4 exceeds 211 candidate rows at dim 4"),
        (1052, "the chain walk of F_3^4 exceeds 1051 candidate rows and walk steps"),
    ):
        monkeypatch.setattr(stability, "_SCAN_BUDGET", rows - 1)
        with pytest.raises(BoundExceededError, match=f"^{re.escape(refusal)}$"):
            hilbert_mumford_sweep(symplectic)
    monkeypatch.setattr(stability, "_SCAN_BUDGET", 1052)
    assert hilbert_mumford_sweep(symplectic) == 0
    # a walk that stops at the floor -2 weight_bound lists the supersets of
    # only the V it reached: <x_1^2> on F_3^4 (23 candidate rows, 27 V
    # with 78 lines) weighs -6 at weight bound 3 after 21 holders tested
    # and chains scored, where testing the holders of every V first took
    # 165 steps
    rank1 = module_1form(GF(3), [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    monkeypatch.setattr(stability, "_SCAN_BUDGET", 121)
    with pytest.raises(BoundExceededError, match="^the chain walk of F_3\\^4 exceeds 121 "):
        hilbert_mumford_sweep(rank1)
    monkeypatch.setattr(stability, "_SCAN_BUDGET", 122)
    assert hilbert_mumford_sweep(rank1) == -6


def test_searches_refuse_too_many_lines_before_any_work():
    big = GF(2**61 - 1)
    q = module_1form(big, [[0, 1], [1, 0]])
    for search in (enumerate_totally_isotropic, hilbert_mumford_sweep):
        with pytest.raises(BoundExceededError, match="2305843009213693952 candidate lines"):
            search(q)
    # a line is a line over any field
    assert enumerate_totally_isotropic(module_1form(big, [[0]]))[0].dim == 1


def gaussian_multinomial(p, dims):
    """[n; d_1, ..., d_k]_p: the flags of F_p^n with those step dims."""

    def factorial(m):
        return math.prod((p ** (i + 1) - 1) // (p - 1) for i in range(m))

    return factorial(sum(dims)) // math.prod(factorial(d) for d in dims)


def compositions(n):
    if n == 0:
        yield ()
        return
    for d in range(1, n + 1):
        for rest in compositions(n - d):
            yield (d,) + rest


def test_flags_match_the_closed_form():
    # each step of a flag holds the one before it and is larger, by an
    # elimination that shares no code with it
    for p, top in ((2, 4), (3, 3), (5, 3), (7, 3)):
        field = GF(p)
        for n in range(1, top + 1):
            subs, listed = flags(p, n)
            counts: dict = {}
            for dims, flag in listed:
                assert len(dims) == len(flag)
                below = []
                for d, i in zip(dims, flag):
                    rows = below + list(subs[i])
                    assert generic_rref(Matrix(field, rows))[1] == len(subs[i]) == len(below) + d
                    below = list(subs[i])
                assert len(below) == n
                counts[dims] = counts.get(dims, 0) + 1
            assert len(set(flag for _, flag in listed)) == len(listed)
            assert counts == {dims: gaussian_multinomial(p, dims) for dims in compositions(n)}


def test_the_cache_state_changes_no_sweep(monkeypatch):
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
    assert forward == backward == sweep(jobs)

    # a refused sweep starts no search
    monkeypatch.setattr(stability, "_isotropic_scanner", unreached)
    refused = [
        (module_1form(GF(2**61 - 1), [[0, 1], [1, 0]]), {}),
        (module_1form(GF(2), [[0, 0], [0, 0]]), {"weight_bound": 50_000}),
    ]
    for q, bounds in refused:
        with pytest.raises(BoundExceededError):
            hilbert_mumford_sweep(q, **bounds)


def unreached(*args, **kwargs):
    raise AssertionError("the sweep started a search")


def test_a_huge_weight_bound_is_refused_before_any_work(monkeypatch):
    q = random_module(random.Random(7), GF(2), 4, trivial_w(GF(2)), 1)
    # a flag of four lines would try P(2001, 3) tuples of three weights
    with monkeypatch.context() as patched:
        patched.setattr(stability, "_isotropic_scanner", unreached)
        with pytest.raises(BoundExceededError, match="has 7999998000 weight tuples"):
            hilbert_mumford_sweep(q, weight_bound=1000)
    # at dim 2 a flag tries 2w + 1 tuples, so the bound falls between
    # w = 49,999 and w = 50,000
    plane = module_1form(GF(3), [[0, 1], [1, 0]])
    assert hilbert_mumford_sweep(plane, weight_bound=49_999) == 0
    with pytest.raises(BoundExceededError, match="has 100001 weight tuples"):
        hilbert_mumford_sweep(plane, weight_bound=50_000)
    # a line tries one tuple at any bound
    assert hilbert_mumford_sweep(module_1form(GF(3), [[1]]), weight_bound=10**30) == 0


def test_the_sweep_is_constant_on_orbits():
    # mu(g.lambda, g.q) = mu(lambda, q), and g moves every flag to a flag,
    # coordinate-aligned or not, so a missing flag would show here
    rng = random.Random(16)
    for p, n in ((2, 3), (3, 3), (2, 4), (5, 2)):
        field = GF(p)
        for w in (trivial_w(field), swap_w(field)):
            for sign in (1, -1):
                q = random_module(rng, field, n, w, sign)
                g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                while rank_mod_p(g, p) < n:
                    g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                moved = act(Matrix(field, g), q)
                for bound in range(4):
                    swept = hilbert_mumford_sweep(q, weight_bound=bound)
                    assert hilbert_mumford_sweep(moved, weight_bound=bound) == swept


def test_a_larger_weight_bound_never_raises_the_sweep():
    # every subgroup swept at bound w is swept again at w + 1; 23 is the
    # largest bound F_2^4 accepts, P(47, 3) = 97,290 weight tuples
    q = module_1form(GF(2), [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    swept = [hilbert_mumford_sweep(q, weight_bound=bound) for bound in range(24)]
    assert swept == sorted(swept, reverse=True)
    with pytest.raises(BoundExceededError, match="weight tuples"):
        hilbert_mumford_sweep(q, weight_bound=24)


def test_graded_refuses_dim_zero_before_any_work(monkeypatch):
    # the zero module over F_p is stable, but its canonical subgroup would
    # have no piece; no filtration level is scanned
    zero = SigmaModule(GF(3), 0, trivial_w(GF(3)), 1, [Matrix(GF(3), [])])
    assert semistability_verdict(zero).status == STABLE

    def scan(*args):
        raise AssertionError("a filtration level was scanned")

    monkeypatch.setattr(stability, "_build_levels", scan)
    for field in (GF(3), QQ):
        zero = SigmaModule(field, 0, trivial_w(field), 1, [Matrix(field, [])])
        for call in (lambda: graded(zero), lambda: s_equivalent(zero, zero)):
            with pytest.raises(ShapeError, match=r"^a graded module needs dim H >= 1, not 0$"):
                call()
