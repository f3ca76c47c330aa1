"""The orbit census: every small module, grouped into GL_n orbits by the
plain congruence action of ``oracles.orbit_census``, checked against the
engine.

Over F_q the points of the moduli space are the S-classes of semistable
modules, so one census tests the verdict, ``isometries``,
``is_isomorphic``, ``graded`` and ``s_equivalent`` together:

- the class equation: sum over the orbits of |GL_n| / |Aut| is the
  number of modules, with |Aut| counted by ``linalg.isometries`` and
  equal to the stabilizer the orbit walk counted;
- the verdict, and the isotropy class of its witness, are the same on
  every member of an orbit;
- ``is_isomorphic`` answers yes between a representative and a moved
  member, and no between two representatives, which is exact over F_p;
- ``hilbert_mumford_sweep``, which walks the isotropic chains alone,
  equals the flag sweep ``oracles.flag_sweep`` at weight bounds 0 to 3
  on the representative and on the moved member, so the chain walk is
  checked on every module of the census up to GL_n;
- ``s_equivalent`` is symmetric and transitive on the semistable
  representatives, and each stable orbit is its own S-class.

The orbit counts were found by brute force (congruence classes:
Waterhouse, Finite Fields Appl. 1, 1995), and each is checked against
Burnside's lemma, ``oracles.burnside_orbit_count``, which lists no
module.  ``census_f3.py`` runs the same check on the 19,683 swap
modules over F_3^3, outside tier-1.
"""

import itertools
from collections import Counter
from typing import NamedTuple

import pytest

from twistmod.linalg import GF, Matrix, isometries
from twistmod.sigmamod import InvolutionSpace, SigmaModule, is_isomorphic, isotropy_class
from twistmod.stability import (
    STABLE,
    STRICTLY_SEMISTABLE,
    UNSTABLE,
    hilbert_mumford_sweep,
    s_equivalent,
    semistability_verdict,
)

from oracles import (
    anisotropic_symmetric_count,
    burnside_orbit_count,
    census_modules,
    flag_sweep,
    general_linear_order,
    nondegenerate_symmetric_count,
    orbit_census,
)


class Census(NamedTuple):
    modules: int
    orbits: int
    semistable: int
    s_classes: int


def check_census(p: int, n: int, swap: bool, sign: int) -> Census:
    field = GF(p)
    involution = [[0, 1], [1, 0]] if swap else [[1]]
    w = InvolutionSpace(field, Matrix(field, involution))

    def module(forms):
        return SigmaModule(field, n, w, sign, [Matrix(field, b) for b in forms])

    def verdict(q):
        v = semistability_verdict(q)
        witness = None if v.certificate is None else isotropy_class(q, v.certificate[0])
        return v.status, witness

    modules = census_modules(p, n, swap, sign)
    orbits = orbit_census(p, n, modules)
    assert burnside_orbit_count(p, n, swap, sign) == len(orbits)
    order = general_linear_order(n, p)
    mass = 0
    representatives = []
    for orbit in orbits:
        forms = [list(b) for b in orbit.representative]
        aut = sum(1 for _ in isometries(forms, forms, range(p), p))
        assert aut == orbit.stabilizer and aut * len(orbit.members) == order
        mass += order // aut
        q = module(orbit.representative)
        status = verdict(q)
        assert all(verdict(module(m)) == status for m in orbit.members)
        moved = module(max(orbit.members))
        assert is_isomorphic(q, moved).status == "yes"
        for member in (q, moved):
            for bound in range(4):
                assert hilbert_mumford_sweep(member, bound) == flag_sweep(member, bound)
        representatives.append((q, status[0]))
    assert mass == len(modules)

    for (q1, _), (q2, _) in itertools.combinations(representatives, 2):
        assert is_isomorphic(q1, q2).status == "no"

    semistable = [(q, s) for q, s in representatives if s in (STABLE, STRICTLY_SEMISTABLE)]
    k = range(len(semistable))
    same = {(i, j): s_equivalent(semistable[i][0], semistable[j][0]) for i in k for j in k}
    assert set(same.values()) <= {"yes", "no"}
    classes = {frozenset(j for j in k if same[i, j] == "yes") for i in k}
    for i in k:
        assert same[i, i] == "yes"
        assert all(same[i, j] == same[j, i] for j in k)
        if semistable[i][1] == STABLE:
            assert frozenset([i]) in classes
    # transitive: the classes of the representatives partition them
    assert sum(map(len, classes)) == len(semistable)
    return Census(len(modules), len(orbits), len(semistable), len(classes))


# (p, n, swap, sign) -> (modules, orbits, semistable orbits, S-classes)
CENSUS = {
    (2, 2, True, 1): (16, 6, 4, 3),
    (3, 2, True, 1): (81, 10, 7, 5),
    (2, 3, True, 1): (512, 12, 5, 3),
    (2, 2, True, -1): (16, 6, 4, 3),
    (3, 2, True, -1): (81, 10, 7, 5),
    (2, 3, True, -1): (512, 12, 5, 3),
    (2, 2, False, 1): (8, 4, 2, 1),
    (3, 2, False, 1): (27, 5, 2, 2),
    (2, 3, False, 1): (64, 5, 1, 1),
    (2, 2, False, -1): (8, 4, 2, 1),
    (3, 2, False, -1): (3, 2, 1, 1),
    (2, 3, False, -1): (64, 5, 1, 1),
}


def census_id(key):
    p, n, swap, sign = key
    return f"F{p}^{n}-{'swap' if swap else 'trivial'}-{'plus' if sign == 1 else 'minus'}"


@pytest.mark.parametrize("key", sorted(CENSUS), ids=census_id)
def test_the_orbit_census_agrees_with_the_engine(key):
    assert check_census(*key) == CENSUS[key]


def one_form_counts(p: int, n: int) -> tuple:
    """(stable, strictly semistable, unstable) verdicts over every
    symmetric n x n form over F_p, each one form with the trivial
    involution at sign +1."""
    field = GF(p)
    w = InvolutionSpace.trivial(field)
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    counts = Counter()
    for entries in itertools.product(range(p), repeat=len(cells)):
        b = [[0] * n for _ in range(n)]
        for (i, j), x in zip(cells, entries):
            b[i][j] = b[j][i] = x
        counts[semistability_verdict(SigmaModule(field, n, w, 1, [Matrix(field, b)])).status] += 1
    return counts[STABLE], counts[STRICTLY_SEMISTABLE], counts[UNSTABLE]


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3)])
def test_the_one_form_point_counts_match_their_closed_forms(p, n):
    # semistable means nonsingular and stable means anisotropic, so both
    # counts have closed forms, the only oracle here; census_f3_forms.py
    # checks F_3^4 outside tier-1
    stable, strict, unstable = one_form_counts(p, n)
    assert stable == anisotropic_symmetric_count(p, n)
    assert stable + strict == nondegenerate_symmetric_count(p, n)
    assert stable + strict + unstable == p ** (n * (n + 1) // 2)
