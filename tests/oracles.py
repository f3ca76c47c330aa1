"""Subspace enumerators over F_p that share no code with the package engine.

They build every subspace through the public ``Subspace`` constructor,
so the tests use them as oracles for ``stability._isotropic_scanner``,
the package's one subspace enumerator.
"""

import itertools

from twistmod.errors import FieldError
from twistmod.linalg import Subspace


def vectors_of(field, n: int):
    """All vectors of F_p^n in lexicographic order (finite fields only)."""
    elems = field.elements()
    return [tuple(v) for v in itertools.product(elems, repeat=n)]


def enumerate_subspaces(field, ambient: int, dim: int):
    """Yield all ``dim``-dimensional subspaces of F_p^ambient.

    Enumerates reduced row echelon bases directly: one choice of pivot
    columns plus arbitrary values at the free positions gives each
    subspace exactly once.  The yield order is the canonical package
    order (pivot columns lexicographically, then free entries).
    """
    if field.kind != "fp":
        raise FieldError("subspace enumeration needs a finite field")
    if dim < 0 or dim > ambient:
        return
    if dim == 0:
        yield Subspace.zero(field, ambient)
        return
    elems = field.elements()
    for pivots in itertools.combinations(range(ambient), dim):
        pivot_set = set(pivots)
        free_positions = [
            (r, c)
            for r in range(dim)
            for c in range(pivots[r] + 1, ambient)
            if c not in pivot_set
        ]
        for assignment in itertools.product(elems, repeat=len(free_positions)):
            rows = [[field.zero] * ambient for _ in range(dim)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = field.one
            for (r, c), value in zip(free_positions, assignment):
                rows[r][c] = value
            yield Subspace(field, ambient, rows)


def all_subspaces(field, ambient: int):
    """All nonzero subspaces of every dimension, in canonical order."""
    for dim in range(1, ambient + 1):
        yield from enumerate_subspaces(field, ambient, dim)
