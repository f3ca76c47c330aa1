"""Congruence normal forms of one bilinear form over F_p, p odd.

Over F_p with p odd a symmetric form is congruent to exactly one

    diag(1, ..., 1, delta, 0, ..., 0),

where the number of nonzero entries is its rank and delta is 1 or the
least quadratic nonresidue mod p, by the square class of the
discriminant of its nondegenerate part (Euler's criterion).  An
alternating form is congruent to exactly one sum of hyperbolic blocks
[[0, 1], [-1, 0]] and zeros, fixed by its rank.  So two forms of the
same symmetry are isometric iff their invariants agree (Serre, *A Course
in Arithmetic*, Ch. IV), and the bases that bring both to the common
normal form give an isometry.

Everything here runs on plain ints in ``range(p)``.
"""

from __future__ import annotations

from .errors import InternalCheckError


def normal_form(rows, eps: int, p: int):
    """(invariants, basis) for the form B given by ``rows``, with B = eps B^T
    (eps = 1 symmetric, eps = -1 alternating) over F_p, p odd.

    The basis vectors are the columns of an invertible P with P^T B P the
    normal form, and the invariants determine that normal form: (rank,
    delta) for a symmetric form, (rank,) for an alternating one.  B must
    be eps-symmetric mod p, as ``sigmamod.is_isomorphic`` ensures.
    """
    n = len(rows)
    gram = [list(r) for r in rows]
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    if eps == 1:
        return _symmetric(gram, basis, p), basis
    return _alternating(gram, basis, p), basis


def _add(gram, basis, j: int, i: int, c: int, p: int):
    # basis vector j += c * basis vector i, with the Gram matrix following
    basis[j] = [(x + c * y) % p for x, y in zip(basis[j], basis[i])]
    gram[j] = [(x + c * y) % p for x, y in zip(gram[j], gram[i])]
    for row in gram:
        row[j] = (row[j] + c * row[i]) % p


def _swap(gram, basis, i: int, j: int):
    basis[i], basis[j] = basis[j], basis[i]
    gram[i], gram[j] = gram[j], gram[i]
    for row in gram:
        row[i], row[j] = row[j], row[i]


def _symmetric(gram, basis, p: int) -> tuple:
    """Diagonalise by congruence, then turn the diagonal into 1, ..., 1, delta."""
    n = len(gram)
    rank = 0
    while rank < n:
        k = rank
        pivot = next((i for i in range(k, n) if gram[i][i]), None)
        if pivot is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if gram[i][j]), None)
            if pair is None:
                break
            # with zero diagonal, e_i + e_j has value 2 b_ij, nonzero as p is odd
            pivot, j = pair
            _add(gram, basis, pivot, j, 1, p)
        _swap(gram, basis, k, pivot)
        inv = pow(gram[k][k], -1, p)
        for j in range(k + 1, n):
            if gram[k][j]:
                _add(gram, basis, j, k, -gram[k][j] * inv % p, p)
        rank += 1
    values = [gram[i][i] for i in range(rank)]
    for i in range(rank - 1):
        # <a> + <b> = <1> + <ab>: v = x e_i + y e_(i+1) with a x^2 + b y^2 = 1
        # and w = -b y e_i + a x e_(i+1), orthogonal to v, of value ab
        a, b = values[i], values[i + 1]
        x, y = _represent_one(a, b, p)
        u, v = basis[i], basis[i + 1]
        basis[i] = [(x * s + y * t) % p for s, t in zip(u, v)]
        basis[i + 1] = [(-b * y * s + a * x * t) % p for s, t in zip(u, v)]
        values[i], values[i + 1] = 1, a * b % p
    delta = 1
    if rank:
        last = values[-1]
        delta = 1 if _is_square(last, p) else _nonresidue(p)
        # last = delta * t^2; scaling the last vector by 1/t leaves delta
        scale = pow(_sqrt(last * pow(delta, -1, p) % p, p), -1, p)
        basis[rank - 1] = [x * scale % p for x in basis[rank - 1]]
    return rank, delta


def _alternating(gram, basis, p: int) -> tuple:
    """Bring an alternating form to hyperbolic blocks by a symplectic basis."""
    n = len(gram)
    k = 0
    while k < n:
        pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if gram[i][j]), None)
        if pair is None:
            break
        i, j = pair
        _swap(gram, basis, k, i)
        _swap(gram, basis, k + 1, j)
        inv = pow(gram[k][k + 1], -1, p)
        basis[k + 1] = [x * inv % p for x in basis[k + 1]]
        gram[k + 1] = [x * inv % p for x in gram[k + 1]]
        for row in gram:
            row[k + 1] = row[k + 1] * inv % p
        # w -> w - b(w, v) u + b(w, u) v is orthogonal to the pair (u, v)
        for m in range(k + 2, n):
            if gram[m][k + 1]:
                _add(gram, basis, m, k, -gram[m][k + 1] % p, p)
            if gram[m][k]:
                _add(gram, basis, m, k + 1, gram[m][k], p)
        k += 2
    return (k,)


def _is_square(a: int, p: int) -> bool:
    # Euler's criterion, for a nonzero mod p
    return pow(a, (p - 1) // 2, p) == 1


def _nonresidue(p: int) -> int:
    return next(z for z in range(2, p) if not _is_square(z, p))


def _represent_one(a: int, b: int, p: int) -> tuple:
    """x, y with a x^2 + b y^2 = 1 mod p, for a, b nonzero: among the
    (p + 1) / 2 values of 1 - a x^2 one lies in the (p + 1) / 2 values
    of b y^2."""
    b_inv = pow(b, -1, p)
    for x in range(p):
        t = (1 - a * x * x) * b_inv % p
        if t == 0 or _is_square(t, p):
            return x, _sqrt(t, p)
    raise InternalCheckError("a x^2 + b y^2 missed 1 over a prime field")


def _sqrt(a: int, p: int) -> int:
    """A square root of the square a mod the odd prime p (Tonelli-Shanks)."""
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    c = pow(_nonresidue(p), q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r
