"""Semistability verdicts, isotropic filtrations, and graded modules.

The subspace criterion drives everything here: a module is semistable
when every nonzero totally isotropic subspace V satisfies
dim V + dim V^perp <= dim H, stable when the inequality is strict.  Over
a prime field the quantifier is decided by enumeration; over the
rationals we certify instability when a witness is found and otherwise
report an explicit no_destabilizer_found, never a silent upgrade to
semistable.

One candidate stream serves both the verdict and each filtration step.
Over F_p it is the pruned enumeration of every totally isotropic
subspace.  Over the rationals it starts with the joint kernel when that
is nonzero, then yields the lifts of the totally isotropic subspaces of
the reductions mod a list of primes: the integral reduced echelon bases,
totally isotropic over ZZ under the forms scaled to DB_k (D the lcm of
all their denominators), whose entries a prime's plain box 0 .. p - 1
or balanced box p//2 + 1 - p .. p//2 holds.  They are searched for over
ZZ, with no reduction mod p: the last entry of a line is an integer root
of a quadratic in it.  A prime that divides a denominator of the
involution or of a form is skipped.  Each candidate is rechecked once,
exactly: its orthogonal is computed over QQ and must contain it.

A scan stops at its first equality witness when some form B_k is
nonsingular: the rows B_k u over a basis of V are then independent
constraints on V^perp, so dim V + dim V^perp <= dim H for every V and
nothing later in the stream can destabilize.  The isotropic lines are
found on demand, per pivot column over F_p and per prime and pivot
column over QQ, so a scan that stops early pays only for what it
reached.  The F_p verdict and every filtration level stop
this way; the rational verdict scans in full, since its provenance
lists every prime it scanned.

A strictly semistable module carries a filtration by successive minimal
equality witnesses.  Each level is one scan of the stream, which also
refuses an unstable module, so no separate verdict runs before the
filtration.  Peeling the witnesses off leaves a stable core, and the
witnesses together with their dual pairings reassemble into the graded
module: the nested hyperbolic wrapping of the core.  Two semistable
modules are S-equivalent when their graded modules are isomorphic.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import (
    BoundExceededError,
    FieldError,
    InternalCheckError,
    ShapeError,
    StabilityError,
)
from .hilbert import (
    MINUS_INFINITY,
    OneParamSubgroup,
    _destabilizing_by,
    _limit_in_basis,
    destabilizing_1ps,
    mu,
)
from .linalg import (
    Matrix,
    Subspace,
    _complement,
    rank_mod_p,
)
from .sigmamod import (
    LinearPiece,
    SigmaModule,
    _check_search_size,
    _denominator_lcm,
    _integer_forms,
    _reduce_by,
    _wrap,
    is_isomorphic,
    isotropic_reduction,
    orthogonal,
    validate,
)

STABLE = "stable"
STRICTLY_SEMISTABLE = "strictly_semistable"
UNSTABLE = "unstable"
NO_DESTABILIZER_FOUND = "no_destabilizer_found"

DEFAULT_ENUM_BOUND = 4
DEFAULT_PRIMES = (2, 3, 5, 7, 11, 13)


class _ProvenanceFields(NamedTuple):
    kind: str
    primes: tuple = ()


class Provenance(_ProvenanceFields):
    """How a verdict was reached.

    ``exhaustive`` means every totally isotropic subspace was examined
    (finite fields only).  ``heuristic`` records the primes whose reductions were
    scanned for liftable witnesses; an empty tuple means a witness was
    found before any reduction was needed.
    """

    __slots__ = ()

    def __new__(cls, kind: str, primes: tuple = ()):
        if kind not in ("exhaustive", "heuristic"):
            raise ValueError(f"unknown provenance kind {kind!r}")
        if kind == "exhaustive" and primes:
            raise ValueError("exhaustive provenance carries no prime list")
        return super().__new__(cls, kind, primes)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate there too
        return cls(*iterable)


class Verdict(NamedTuple):
    """Outcome of the subspace criterion, with a checkable certificate.

    For unstable and strictly semistable verdicts the certificate is a
    pair (V, lambda): the witness subspace and its destabilizing
    one-parameter subgroup, whose weight is stored in ``mu_value``
    (negative, respectively zero).
    """

    status: str
    provenance: Provenance
    certificate: tuple | None = None
    mu_value: object = None


class Filtration(NamedTuple):
    """Increasing chain of subspaces of H from successive minimal equality
    witnesses; empty for a stable module."""

    chain: tuple

    @property
    def length(self) -> int:
        return len(self.chain)


class GradedModule(NamedTuple):
    """The graded module of a semistable (H, q).

    ``pieces`` holds one pairing per filtration step, outermost first;
    ``core`` is the stable module left after all reductions.
    ``assembled`` is their nested hyperbolic wrapping, expressed in the
    adapted basis whose columns form ``transform``: witnesses outside in,
    then the core, then the dual models inside out.  ``canonical_1ps``
    is the filtration subgroup; its limit, read in the adapted basis, is
    exactly ``assembled``.
    """

    pieces: tuple
    core: SigmaModule
    assembled: SigmaModule
    filtration: Filtration
    canonical_1ps: OneParamSubgroup
    transform: Matrix

    @property
    def length(self) -> int:
        return len(self.pieces)


def enumerate_totally_isotropic(q: SigmaModule, bound: int = DEFAULT_ENUM_BOUND):
    """All nonzero totally isotropic subspaces, dimension ascending.

    Only meaningful over a prime field.  The search is pruned: it grows
    reduced echelon bases row by row and drops a partial basis as soon
    as one pairing is nonzero, so its cost follows the number of
    isotropic partial bases rather than the p^(d(n-d)) subspaces of
    each dimension d.  ``bound`` caps dim H.
    """
    if q.field.kind != "fp":
        raise FieldError("exhaustive enumeration needs a finite field")
    n = q.dim_h
    _check_dim(n, bound)
    scan = _isotropic_scanner([b.rows for b in q.forms], q.field.p, n)
    return tuple(Subspace._from_echelon(q.field, n, rows, pivots) for rows, pivots, _ in scan())


def _check_dim(n: int, bound: int):
    if n > bound:
        raise BoundExceededError(f"dim {n} exceeds the enumeration bound {bound}")


def _check_lines(p: int, n: int):
    # a search may scan every line of F_p^n; F_13^4 has 2,380
    _check_search_size((p**n - 1) // (p - 1), f"F_{p}^{n}", "candidate lines")


def _pairing(forms, p: int):
    """The pairing of a module over F_p, on plain ints, or over the
    integers when p is 0: ``images(u)`` is the rows B_k u, and
    ``kills(u, images(w))`` tests u^T B_k w == 0 for every k.  V^perp is
    the joint kernel of the images of its basis."""

    def images(u):
        if p:
            return [tuple(sum(map(mul, row, u)) % p for row in b) for b in forms]
        return [tuple(sum(map(mul, row, u)) for row in b) for b in forms]

    def kills(u, imgs):
        for c in imgs:
            s = sum(map(mul, u, c))
            if s % p if p else s:
                return False
        return True

    return images, kills


def _grow(kills, rows, basis):
    """Yield ``basis``, a list of (u, images(u)) extended in place, once
    for every way to take its r-th row from rows[r] with u_i^T B_k u_j
    zero for every i != j: a partial basis is dropped as soon as one
    pairing is nonzero.  The rows listed are isotropic lines, which
    settles i == j."""
    r = len(basis)
    if r == len(rows):
        yield basis
        return
    for u, imgs in rows[r]:
        for w, bi in basis:
            if not (kills(u, bi) and kills(w, imgs)):
                break
        else:
            basis.append((u, imgs))
            yield from _grow(kills, rows, basis)
            basis.pop()


def _column_lines(forms, p: int, n: int, pc: int):
    """Yield the isotropic lines of F_p^n with pivot column ``pc`` under
    the forms (n x n plain ints): the (u, images(u)) of the isotropic
    echelon rows u with that pivot, free entries in product order.

    The rows run as prefixes u, last entry 0, each followed by its run
    u + t e_last over t in range(p).  Along a run every Q_k(x) = x^T B_k x
    is a polynomial in t,

        Q_k(u + t e_last) = u^T B_k u + t ((B_k u)_last + u^T B_k e_last)
                            + t^2 B_k[last][last],

    so a run costs two dot products per form and then scalar arithmetic
    per t; no division is taken, so characteristic 2 is no exception.
    The images B_k (u + t e_last) = B_k u + t B_k e_last are built only
    for the t where every Q_k vanishes.  The images of the prefixes are
    built incrementally: the next prefix in product order adds one to an
    entry j and wraps the entries after it to 0, and each of those steps
    of +1 mod p adds column j of each form, mod p.  Nothing is tabulated
    over range(p).
    """
    columns = [[tuple(row[j] % p for row in b) for b in forms] for j in range(n)]
    last = n - 1
    u = [0] * n
    u[pc] = 1
    if pc == last:
        # no free entry: the one row e_last is isotropic iff every corner vanishes
        if not any(col[last] for col in columns[last]):
            yield tuple(u), columns[last]
        return
    tail = columns[last]
    corners = [col[last] for col in tail]
    imgs = columns[pc]
    while True:
        prefix = tuple(u[:last])
        runs = [
            (sum(map(mul, u, img)), img[last] + sum(map(mul, u, col)), c)
            for img, col, c in zip(imgs, tail, corners)
        ]
        for t in range(p):
            for a, b, c in runs:
                if (a + t * (b + t * c)) % p:
                    break
            else:
                yield prefix + (t,), [
                    tuple((x + t * y) % p for x, y in zip(img, col)) for img, col in zip(imgs, tail)
                ]
        j = last - 1
        while j > pc:
            u[j] = (u[j] + 1) % p
            imgs = [
                tuple((a + b) % p for a, b in zip(img, col))
                for img, col in zip(imgs, columns[j])
            ]
            if u[j]:
                break
            j -= 1
        if j == pc:
            return


def _isotropic_scanner(forms, p: int, n: int):
    """``scan(dims)`` yields (rows, pivots, images) for every nonzero
    totally isotropic subspace V of F_p^n whose dimension is in ``dims``
    (default: all), under the forms given as n x n plain ints mod p.

    ``rows`` is the reduced echelon basis of V, with pivot columns
    ``pivots``, and ``images`` the rows B_k u over that basis, so
    dim V^perp = n - their rank.  With no forms every pairing vanishes,
    so the scan yields every nonzero subspace of F_p^n.  The order is
    Subspace.sort_key: dimension, then pivot columns, then free entries.
    Reduced echelon bases grow row by row in _grow, each row running
    over its free entries in product order, and a partial basis is
    dropped as soon as a pairing u_i^T B_k u_j is nonzero.  V is totally
    isotropic exactly when all of them vanish, so no symmetry of the
    forms is assumed.

    Each pivot column's isotropic lines are found by _column_lines on
    first demand and kept for every later scan.  The first row of a
    pivot pattern reads its column only as far as the scan goes, so a
    scan that stops early pays only for the lines it reached; the later
    rows, and a column some scan has read to its end, are plain lists.
    More than MAX_LINES lines in F_p^n raise BoundExceededError before
    any work.
    """
    _check_lines(p, n)
    _, kills = _pairing(forms, p)
    found = [[] for _ in range(n)]
    # the line generator of each column no scan has read to its end
    sources = [_column_lines(forms, p, n, pc) for pc in range(n)]

    def reading(pc):
        # one reader per column at a time: a scan reads a column lazily
        # only as the first row of a pivot pattern, and a scan left
        # unfinished is never resumed
        lines = found[pc]
        yield from lines
        for line in sources[pc]:
            lines.append(line)
            yield line
        sources[pc] = None

    def finished(pc):
        if sources[pc] is not None:
            for _ in reading(pc):
                pass
        return found[pc]

    def scan(dims=None):
        for d in range(1, n + 1) if dims is None else dims:
            for pivots in itertools.combinations(range(n), d):
                # row r must vanish on the later pivot columns
                later = [
                    [e for e in finished(pc) if not any(map(e[0].__getitem__, pivots[r + 1 :]))]
                    for r, pc in enumerate(pivots[1:], 1)
                ]
                if all(later):
                    first = found[pivots[0]] if sources[pivots[0]] is None else reading(pivots[0])
                    if d > 1:
                        rest = pivots[1:]
                        first = (e for e in first if not any(map(e[0].__getitem__, rest)))
                    for basis in _grow(kills, [first] + later, []):
                        yield (
                            tuple(u for u, _ in basis),
                            pivots,
                            [c for _, imgs in basis for c in imgs],
                        )

    return scan


def semistability_verdict(
    q: SigmaModule,
    *,
    enum_bound: int = DEFAULT_ENUM_BOUND,
    primes: tuple = DEFAULT_PRIMES,
) -> Verdict:
    """Decide the subspace criterion for q.

    The field decides how: over F_p the verdict is exhaustive, complete
    within the enumeration bound; over QQ it is heuristic, certifying
    instability via the joint kernel and via witnesses lifted from
    reductions mod ``primes``, and returning no_destabilizer_found when
    nothing lifts.
    """
    if not validate(q):
        raise StabilityError("module violates its symmetry relation")
    kind = "exhaustive" if q.field.kind == "fp" else "heuristic"
    tried: list = []
    # the heuristic's provenance lists every prime it scanned, so it scans in full
    worse, equality = _witnesses(
        q, _candidates(q, enum_bound, primes, tried, by_prime=True), may_stop=kind == "exhaustive"
    )
    provenance = Provenance(kind, tuple(tried))
    if worse is not None:
        return _certified(UNSTABLE, provenance, q, worse)
    if equality is not None:
        return _certified(STRICTLY_SEMISTABLE, provenance, q, equality)
    return Verdict(STABLE if kind == "exhaustive" else NO_DESTABILIZER_FOUND, provenance)


def _witnesses(q: SigmaModule, candidates, may_stop: bool):
    """(destabilizer, equality) over the (V, dim V^perp, V^perp or None)
    of ``candidates``, each one of those triples or None.

    The scan stops at the first V with dim V + dim V^perp > dim H, the
    destabilizer; equality is the first V before it meeting equality.
    Either is None when the scan saw none.  When ``may_stop`` is set and
    _no_destabilizer(q) holds, the scan also stops at the first
    equality: a full scan would return that same equality and no
    destabilizer.
    """
    n = q.dim_h
    equality = None
    for found in candidates:
        v, perp_dim, _ = found
        total = v.dim + perp_dim
        if total > n:
            return found, equality
        if total == n and equality is None:
            equality = found
            if may_stop and _no_destabilizer(q):
                break
    return None, equality


def _no_destabilizer(q: SigmaModule) -> bool:
    """Whether some form B_k has rank dim H.

    Then the rows B_k u over a basis of any V are independent
    constraints on V^perp, so dim V + dim V^perp <= dim H and no V
    destabilizes.  A zero joint kernel is not enough: the forms can all
    be singular with nothing killed by every one of them, and such a
    module can be unstable.
    """
    p = q.field.p if q.field.kind == "fp" else 0
    return any(rank_mod_p(b, p) == q.dim_h for b in _integer_forms(q, p))


def _certified(status: str, provenance: Provenance, q: SigmaModule, found) -> Verdict:
    # found is a (V, dim V^perp, V^perp or None) triple of the candidate stream
    v, _, perp = found
    lam = destabilizing_1ps(q, v) if perp is None else _destabilizing_by(q, v, perp)
    value = mu(lam, q)
    if status == UNSTABLE and not value < 0:
        raise InternalCheckError("destabilizing weight is not negative")
    if status == STRICTLY_SEMISTABLE and value != 0:
        raise InternalCheckError("equality witness weight is not zero")
    return Verdict(status, provenance, (v, lam), value)


def joint_kernel(q: SigmaModule) -> Subspace:
    """Vectors x with q(x) = 0; by the symmetry relation this also kills
    every q(y)(x), so the kernel is totally isotropic with full orthogonal."""
    return orthogonal(q, Subspace.full(q.field, q.dim_h))


def _candidates(q: SigmaModule, enum_bound: int, primes, tried: list, by_prime: bool):
    """Yield (V, dim V^perp, V^perp or None) for the totally isotropic V
    that the subspace criterion is tested on; V^perp is given when the
    stream computed it, that is for the QQ lifts.

    Over F_p these are all of them, in canonical order.  Over QQ the
    nonzero joint kernel comes first, with the whole of H as its
    orthogonal; then the lifts (plain and balanced residues) of the
    totally isotropic subspaces of the reductions mod ``primes`` that
    are totally isotropic over QQ, each once, as _integer_search finds
    them over ZZ under the forms DB_k, D the lcm of all their
    denominators.  A prime dividing a denominator of the involution or
    of a form is skipped, and a repeated prime counts in its first place
    only.  The stream runs prime by prime, all dimensions each, when
    ``by_prime`` is set, and otherwise dimension by dimension, all
    primes each; each lift comes at the first step whose prime lifts it,
    and the order fixes which witness comes first.  A prime is appended
    to ``tried`` whenever a step of it starts.  Each lift is rechecked
    exactly over QQ: its orthogonal must contain it.  A prime with more
    than MAX_LINES lines in F_p^n is refused before any work.
    """
    n = q.dim_h
    if q.field.kind == "fp":
        _check_dim(n, enum_bound)
        p = q.field.p
        for rows, pivots, images in _isotropic_scanner([b.rows for b in q.forms], p, n)():
            yield Subspace._from_echelon(q.field, n, rows, pivots), n - rank_mod_p(images, p), None
        return
    kernel = joint_kernel(q)
    if not kernel.is_zero():
        yield kernel, n, None
    _check_dim(n, enum_bound)
    denominators = _denominator_lcm(q.w.matrix, *q.forms)
    primes = [p for p in dict.fromkeys(primes) if denominators % p]
    # refuse a prime with too many lines before any search, however early
    # a scan may stop
    for p in primes:
        _check_lines(p, n)
    if by_prime:
        steps = [(p, range(1, n + 1)) for p in primes]
    else:
        steps = [(p, (d,)) for d in range(1, n + 1) for p in primes]
    search = _integer_search(_integer_forms(q, 0), n, primes)
    for p, dims in steps:
        tried.append(p)
        for rows, pivots in search(p, dims):
            if rows == kernel.basis.rows:
                # the joint kernel came first
                continue
            v = Subspace._from_echelon(
                q.field, n, tuple(tuple(map(Fraction, row)) for row in rows), pivots
            )
            perp = orthogonal(q, v)
            if perp.contains(v):
                yield v, perp.dim, perp


def _run_roots(runs, u):
    """The integers t, ascending, with Q_k(u + t e_last) = 0 for every
    form, or None when every t is one.  ``u`` ends in 0 and ``runs``
    holds one (B_k, s_k, c_k) per form, s_k the row B_k[last] plus the
    column B_k[.][last] and c_k the corner B_k[last][last], so that

        Q_k(u + t e_last) = u^T B_k u + t (s_k . u) + t^2 c_k

    over ZZ.  The first of these polynomials that is not zero gives at
    most two roots, by an integer square root of its discriminant or by
    one exact division; the others only filter them."""
    roots = None
    for form, s, c in runs:
        a = sum(x * sum(map(mul, row, u)) for x, row in zip(u, form) if x)
        b = sum(map(mul, s, u))
        if roots is not None:
            roots = [t for t in roots if not a + t * (b + t * c)]
        elif c:
            disc = b * b - 4 * a * c
            root = math.isqrt(disc) if disc >= 0 else -1
            if root * root != disc:
                return []
            pairs = (divmod(-b - root, 2 * c), divmod(-b + root, 2 * c))
            roots = sorted({t for t, rest in pairs if not rest})
        elif b:
            t, rest = divmod(-a, b)
            roots = [] if rest else [t]
        elif a:
            return []
        if roots == []:
            return roots
    return roots


def _integer_search(forms, n: int, primes):
    """``search(p, dims)`` yields (rows, pivots) for the totally isotropic
    subspaces of QQ^n, dimension in ``dims``, that a scan of the reduction
    mod p lifts first, under the integer forms DB_k and the list ``primes``.

    A lift of a totally isotropic subspace mod p writes its reduced
    echelon residues as plain ints in range(p), the plain box, or in
    p//2 + 1 - p .. p//2, the balanced box; it survives only when it is
    totally isotropic over ZZ.  So the survivors are the integral reduced
    echelon bases, totally isotropic over ZZ, that some box holds, and
    the search finds them over ZZ.  ``search(p, dims)`` yields those that
    p's boxes hold and no box of an earlier prime of ``primes`` does, in
    the order of a scan of the reduction: dimension, pivot columns, the
    residues mod p, and the plain lift before the balanced one.

    The isotropic lines of each pivot column run over the prefixes u of
    a box, last entry 0, and _run_roots solves Q_k(u + t e_last) = 0 for
    the last entry over ZZ, with no pass over range(p).  Each prefix is
    solved once, at the first prime whose box holds it, and the lines of
    each (prime, column) are found on first demand.  Bases of dim >= 2
    grow from those lines under the pairing over ZZ, as in
    _isotropic_scanner.
    """
    last = n - 1
    # a form on QQ^0 has no run
    runs = [(b, [x + row[last] for x, row in zip(b[last], b)], b[last][last]) for b in forms if b]
    images, kills = _pairing(forms, 0)
    solved: dict = {}
    lines: dict = {}

    def boxes(p):
        # the plain box and the balanced box, which are one box at p = 2
        plain, balanced = range(p), range(p // 2 + 1 - p, p // 2 + 1)
        return (plain,) if plain == balanced else (plain, balanced)

    def held(p, lo, hi):
        # whether one of p's boxes holds the entries lo .. hi
        return any(lo in box and hi in box for box in boxes(p))

    def column(p, pc):
        if (p, pc) in lines:
            return lines[p, pc]
        found = []
        if pc == last:
            # no free entry: the one row e_last is isotropic iff every corner vanishes
            if not any(c for _, _, c in runs):
                found.append((0,) * last + (1,))
        else:
            head = (0,) * pc + (1,)
            for box in boxes(p):
                for middle in itertools.product(box, repeat=last - pc - 1):
                    u = head + middle + (0,)
                    if u not in solved:
                        solved[u] = _run_roots(runs, u)
                    roots = solved[u]
                    if roots is None:
                        found.extend(u[:last] + (t,) for t in box)
                    elif roots:
                        found.extend(u[:last] + (t,) for t in roots if t in box)
        # a line in both boxes is listed twice
        lines[p, pc] = [(u, images(u)) for u in dict.fromkeys(found)]
        return lines[p, pc]

    def search(p, dims):
        earlier = primes[: primes.index(p)]
        for d in dims:
            for pivots in itertools.combinations(range(n), d):
                rows = []
                for r, pc in enumerate(pivots):
                    row = column(p, pc)
                    later = pivots[r + 1 :]
                    if later:
                        # row r must vanish on the later pivot columns
                        row = [e for e in row if not any(map(e[0].__getitem__, later))]
                    if not row:
                        break
                    rows.append(row)
                else:
                    found = []
                    for basis in _grow(kills, rows, []):
                        basis = tuple(u for u, _ in basis)
                        lo, hi = min(map(min, basis)), max(map(max, basis))
                        if held(p, lo, hi) and not any(held(e, lo, hi) for e in earlier):
                            residues = tuple(tuple(x % p for x in u) for u in basis)
                            # a plain lift has no negative entry, and comes first
                            found.append((residues, lo < 0, basis))
                    found.sort()
                    for _, _, basis in found:
                        yield basis, pivots

    return search


class _Level(NamedTuple):
    """One filtration step, with all bases written in H coordinates."""

    witness_rows: Matrix
    dual_rows: Matrix
    piece: LinearPiece


def _build_levels(q, enum_bound, primes):
    if not validate(q):
        raise StabilityError("module violates its symmetry relation")
    field = q.field
    n = q.dim_h
    levels = []
    chain = []
    reached = Subspace.zero(field, n)
    model_rows = Matrix.identity(field, n)
    current = q
    while True:
        # one scan, dimension ascending, per level: it doubles as the
        # level's semistability check, and v is its smallest equality witness
        worse, equality = _witnesses(
            current, _candidates(current, enum_bound, primes, [], by_prime=False), may_stop=True
        )
        if worse is not None:
            raise StabilityError("module is unstable")
        if equality is None:
            break
        v, _, perp = equality
        # a QQ lift comes with the orthogonal its recheck computed
        reduction = isotropic_reduction(current, v) if perp is None else _reduce_by(current, v, perp)
        dual = _complement(reduction.perp)
        v_t = v.basis.transpose()
        alpha = tuple(dual.basis @ b @ v_t for b in current.forms)
        witness_rows = v.basis @ model_rows
        dual_rows = dual.basis @ model_rows
        levels.append(_Level(witness_rows, dual_rows, LinearPiece(alpha)))
        reached = Subspace._span(field, n, reached.basis.rows + witness_rows.rows)
        chain.append(reached)
        model_rows = reduction.model @ model_rows
        current = reduction.module
    return levels, tuple(chain), current, model_rows


def iso_filtration(
    q: SigmaModule,
    enum_bound: int = DEFAULT_ENUM_BOUND,
    primes: tuple = DEFAULT_PRIMES,
) -> Filtration:
    """Chain of successive minimal equality witnesses, lifted back to H.

    Each step meets the equality of the subspace criterion inside the
    reduced module of the previous one; the module is stable iff the
    chain is empty.  Deterministic: witnesses are searched dimension
    ascending, then in canonical basis order.
    """
    _, chain, _, _ = _build_levels(q, enum_bound, tuple(primes))
    return Filtration(chain)


def graded(
    q: SigmaModule,
    enum_bound: int = DEFAULT_ENUM_BOUND,
    primes: tuple = DEFAULT_PRIMES,
) -> GradedModule:
    """Graded module of a semistable q: hyperbolic pieces round a stable core.

    The assembled module is written in the adapted basis (witnesses
    outside in, core, dual models inside out), the columns of
    ``transform``, and coincides there with the limit of the canonical
    one-parameter subgroup.  Every call checks this in that basis: the
    forms T^T B T of q, truncated by the weight sums of the basis
    vectors, must equal the assembled forms entry by entry.  A module
    with dim H = 0 is refused with ShapeError: its canonical subgroup
    would have no piece.
    """
    if q.dim_h == 0:
        raise ShapeError("a graded module needs dim H >= 1, not 0")
    primes = tuple(primes)
    levels, chain, core, core_rows = _build_levels(q, enum_bound, primes)
    field = q.field
    n = q.dim_h

    k = len(levels)
    # the adapted basis in blocks, each with its weight under the
    # canonical subgroup: k - i on the witness of level i, 0 on the core,
    # -(k - i) on the dual model of level i
    blocks = [(level.witness_rows, k - i) for i, level in enumerate(levels)]
    if core.dim_h > 0:
        blocks.append((core_rows, 0))
    blocks.extend((levels[i].dual_rows, i - k) for i in reversed(range(k)))
    adapted = tuple(row for rows, _ in blocks for row in rows.rows)
    weights = [weight for rows, weight in blocks for _ in range(rows.nrows)]
    adapted_rows = Matrix._from_rows(field, adapted, n)
    transform = adapted_rows.transpose()

    forms = list(core.forms)
    for level in reversed(levels):
        forms = _wrap(q.w, q.sign, level.piece.alpha, forms)
    assembled = SigmaModule(field, n, q.w, q.sign, forms)
    if not validate(assembled):
        raise InternalCheckError("assembled graded module fails validation")

    # the block weights strictly decrease, and every block is nonzero
    canonical = OneParamSubgroup._from_pieces(
        field, n, tuple((Subspace._span(field, n, rows.rows), weight) for rows, weight in blocks)
    )

    # the limit of the canonical subgroup in the adapted basis: T^T B T,
    # truncated by the weight sums
    limit = _limit_in_basis(field, [adapted_rows @ b @ transform for b in q.forms], weights)
    if limit is None:
        raise InternalCheckError("canonical subgroup has no limit")
    if tuple(limit) != assembled.forms:
        raise InternalCheckError("graded limit disagrees with the assembled module")

    return GradedModule(
        pieces=tuple(level.piece for level in levels),
        core=core,
        assembled=assembled,
        filtration=Filtration(chain),
        canonical_1ps=canonical,
        transform=transform,
    )


def s_equivalent(
    q1: SigmaModule,
    q2: SigmaModule,
    enum_bound: int = DEFAULT_ENUM_BOUND,
    primes: tuple = DEFAULT_PRIMES,
) -> str:
    """yes / no / unknown: are the graded modules isomorphic?"""
    g1 = graded(q1, enum_bound, primes)
    g2 = graded(q2, enum_bound, primes)
    return is_isomorphic(g1.assembled, g2.assembled).status


def hilbert_mumford_sweep(
    q: SigmaModule,
    weight_bound: int = 3,
    max_decompositions: int = 200_000,
):
    """Minimum weight over every subgroup with enumerated eigenspaces.

    A subgroup with eigenspaces H_1, ..., H_k of strictly decreasing
    integer weights a_1 > ... > a_k in [-weight_bound, weight_bound],
    summing (weighted by dimension) to zero, has weight
    mu = max(a_i + a_j) over the pairs of pieces that pair nonzero.
    That weight depends only on the flag F_i = H_1 + ... + H_i and the
    weights, not on the complements chosen (Mumford, Fogarty and
    Kirwan, *Geometric Invariant Theory*, Prop. 2.7): whenever F_i and
    F_j (i <= j) pair nonzero, some pieces H_i' and H_j' with i' <= i
    and j' <= j pair nonzero, and a_i' + a_j' >= a_i + a_j.  So
    mu = max(a_i + a_j) over the i <= j where F_i and F_j pair nonzero,
    where each j needs only the first such i, and the sweep scores every
    flag of F_p^n instead of every direct-sum decomposition.  The flags
    depend only on F_p^n, so _flags lists them once per F_p^n per
    process; the module only decides which steps pair nonzero.  The best
    weight of a flag depends only on its step dims and on those pairs, so
    it is computed once per such pattern per call.

    Work is refused before it starts, with BoundExceededError: the
    ordered direct-sum decompositions of F_p^n, each flag once per choice
    of complements, count toward ``max_decompositions``, and that total
    has a closed form; F_p^n may have at most MAX_LINES lines; and at
    most MAX_LINES weight tuples P(2 weight_bound + 1, n - 1) may be
    tried for one flag.  A negative ``weight_bound`` raises ValueError.
    Returns the minimum of mu over the swept subgroups, which is negative
    iff the module is unstable for small dims; q = 0 gives minus
    infinity.
    """
    if weight_bound < 0:
        raise ValueError(f"weight_bound must be nonnegative, not {weight_bound}")
    if q.field.kind != "fp":
        raise FieldError("the bounded sweep enumerates subspaces over a finite field")
    p, n = q.field.p, q.dim_h
    _check_lines(p, n)
    if _ordered_decompositions(p, n) > max_decompositions:
        raise BoundExceededError(f"sweep exceeded {max_decompositions} decompositions")
    # a flag of n lines tries every tuple of n - 1 distinct weights, the last solved for
    _check_search_size(
        math.perm(2 * weight_bound + 1, max(n - 1, 0)),
        f"the sweep of F_{p}^{n} at weight bound {weight_bound}",
        "weight tuples",
    )
    if n == 0:
        # the one subgroup of the zero space pairs nothing
        return MINUS_INFINITY
    subs, flags = _flags(p, n)
    images, kills = _pairing([b.rows for b in q.forms], p)

    # number the echelon rows of all bases; meets[i] has bit j when row i
    # pairs nonzero with row j, so subspace a pairs nonzero with subspace
    # b iff left[a] & right[b]
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

    descending = range(weight_bound, -weight_bound - 1, -1)
    vectors: dict = {}
    scores: dict = {}

    def weight_vectors(dims):
        # strictly decreasing weights summing (weighted by dims) to zero;
        # the last is solved for, so a single step has weight 0 and lists
        # no span
        if len(dims) == 1:
            return [(0,)]
        out = []
        for head in itertools.combinations(descending, len(dims) - 1):
            last, rest = divmod(-sum(map(mul, dims, head)), dims[-1])
            if rest == 0 and -weight_bound <= last < head[-1]:
                out.append(head + (last,))
        return out

    def score(dims, pairs):
        if dims not in vectors:
            vectors[dims] = weight_vectors(dims)
        if not vectors[dims]:
            return None
        if not pairs:
            return MINUS_INFINITY
        return min(max(w[i] + w[j] for i, j in pairs) for w in vectors[dims])

    for dims, flag in flags:
        # a_i + a_j is symmetric, so a pair counts once, whichever way it
        # pairs; the weights decrease, so step j needs only the first step
        # that pairs nonzero with it
        pairs = []
        for j, b in enumerate(flag):
            for i, a in enumerate(flag[: j + 1]):
                if left[a] & right[b] or left[b] & right[a]:
                    pairs.append((i, j))
                    break
        pairs = tuple(pairs)
        if (dims, pairs) not in scores:
            scores[dims, pairs] = score(dims, pairs)
    values = [value for value in scores.values() if value is not None]
    if not values:
        raise InternalCheckError("sweep produced no subgroup")
    return min(values)


# the flags of the last four fields swept; F_2^4, the longest list under
# the default bound, has 696
@functools.lru_cache(maxsize=4)
def _flags(p: int, n: int):
    """(subs, flags): the nonzero subspaces of F_p^n, as the reduced
    echelon bases _isotropic_scanner lists given no forms, and every flag
    0 < F_1 < ... < F_k = F_p^n, as (step dims, indices of F_1 ... F_k).

    The lines are the first subspaces listed, and each subspace is held
    as the bitmask of its lines, so F_a lies in F_b iff masks[a] has no
    bit outside masks[b].  The subspaces are listed dimension ascending,
    so a subspace that holds another comes after it.
    """
    subs = [rows for rows, _, _ in _isotropic_scanner([], p, n)()]
    line = {rows[0]: i for i, rows in enumerate(subs) if len(rows) == 1}
    # the lines of a subspace: its vectors with leading entry 1, each
    # some row plus a combination of the rows after it
    masks = []
    for rows in subs:
        mask = 0
        for i, head in enumerate(rows):
            vectors = [head]
            for row in rows[i + 1 :]:
                vectors = [
                    tuple((x + t * y) % p for x, y in zip(v, row))
                    for v in vectors
                    for t in range(p)
                ]
            for v in vectors:
                mask |= 1 << line[v]
        masks.append(mask)
    above = [
        [b for b in range(a + 1, len(subs)) if not masks[a] & ~masks[b]]
        for a in range(len(subs))
    ]
    flags = []

    def extend(dims, flag):
        a = flag[-1]
        if len(subs[a]) == n:
            flags.append((dims, flag))
        for b in above[a]:
            extend(dims + (len(subs[b]) - len(subs[a]),), flag + (b,))

    for a, rows in enumerate(subs):
        extend((len(rows),), (a,))
    return tuple(subs), tuple(flags)


def _ordered_decompositions(p: int, n: int) -> int:
    """Ordered direct-sum decompositions of F_p^n into nonzero pieces: a
    first piece of dim d with a complement to decompose can be chosen in
    |GL_n| / (|GL_d| |GL_(n-d)|) ways."""

    def gl(m):
        return math.prod(p**m - p**i for i in range(m))

    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(gl(m) // (gl(d) * gl(m - d)) * counts[m - d] for d in range(1, m + 1)))
    return counts[n]
