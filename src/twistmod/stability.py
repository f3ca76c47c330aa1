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
is nonzero, then lifts the totally isotropic subspaces of the reductions
mod a list of primes, each reduction finding its lines once.  The
forms B_k are scaled once to the integers DB_k, D the lcm of all their
denominators, and the reduction mod p is DB_k mod p on plain ints; a
prime that divides a denominator of the involution or of a form is
skipped.  A lift is dropped unless its Gram entries vanish against the
integer forms, and each kept lift is rechecked once, exactly: its
orthogonal is computed over QQ and must contain it.

A scan stops at its first equality witness when some form B_k is
nonsingular: the rows B_k u over a basis of V are then independent
constraints on V^perp, so dim V + dim V^perp <= dim H for every V and
nothing later in the stream can destabilize.  The isotropic lines of a
reduction are found on demand, so a scan that stops early pays only for
the lines it reached.  The F_p verdict and every filtration level stop
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
from array import array
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import (
    BoundExceededError,
    FieldError,
    InternalCheckError,
    StabilityError,
)
from .hilbert import (
    MINUS_INFINITY,
    OneParamSubgroup,
    destabilizing_1ps,
    limit_at_zero,
    mu,
)
from .linalg import (
    Matrix,
    Subspace,
    _gauss_jordan,
    _null_space,
    complement_in,
    rank_mod_p,
)
from .sigmamod import (
    LinearPiece,
    SigmaModule,
    _check_search_size,
    _denominator_lcm,
    _integer_forms,
    _reduce_by,
    act,
    is_isomorphic,
    isotropic_reduction,
    orthogonal,
    twisted_transpose,
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
    _check_enumerable(q, bound)
    n = q.dim_h
    scan = _isotropic_scanner([b.rows for b in q.forms], q.field.p, n)
    return tuple(Subspace._from_echelon(q.field, n, rows, pivots) for rows, pivots, _ in scan())


def _check_enumerable(q: SigmaModule, bound: int):
    if q.field.kind != "fp":
        raise FieldError("exhaustive enumeration needs a finite field")
    if q.dim_h > bound:
        raise BoundExceededError(
            f"dim {q.dim_h} exceeds the enumeration bound {bound}"
        )


def _check_lines(p: int, n: int):
    # a search may scan every line of F_p^n; F_13^4 has 2,380
    _check_search_size((p**n - 1) // (p - 1), f"F_{p}^{n}", "candidate lines")


def _pairing(forms, p: int):
    """The pairing of a module over F_p, on plain ints: ``images(u)`` is
    the rows B_k u, and ``kills(u, images(w))`` tests u^T B_k w == 0 for
    every k.  V^perp is the joint kernel of the images of its basis."""

    def images(u):
        return [tuple(sum(map(mul, row, u)) % p for row in b) for b in forms]

    def kills(u, imgs):
        for c in imgs:
            if sum(map(mul, u, c)) % p:
                return False
        return True

    return images, kills


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
    dim V^perp = n - their rank.  Over QQ the forms are DB_k mod p,
    which kill exactly the pairs that B_k mod p kills, since D is a
    unit mod p.  With no forms every pairing vanishes, so the scan
    yields every nonzero subspace of F_p^n.  The order is
    Subspace.sort_key: dimension, then pivot columns, then free entries.
    Reduced echelon bases grow row by row, each row running over its
    free entries in product order, and a partial basis is dropped as
    soon as a pairing u_i^T B_k u_j is nonzero.  V is totally isotropic
    exactly when all of them vanish, so no symmetry of the forms is
    assumed.

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

    def grow(pivots, rows, basis):
        r = len(basis)
        if r == len(rows):
            yield tuple(u for u, _ in basis), pivots, [c for _, imgs in basis for c in imgs]
            return
        for u, imgs in rows[r]:
            for w, bi in basis:
                if not (kills(u, bi) and kills(w, imgs)):
                    break
            else:
                basis.append((u, imgs))
                yield from grow(pivots, rows, basis)
                basis.pop()

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
                    yield from grow(pivots, [first] + later, [])

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
        return _certified(UNSTABLE, provenance, q, worse[0])
    if equality is not None:
        return _certified(STRICTLY_SEMISTABLE, provenance, q, equality[0])
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


def _certified(status: str, provenance: Provenance, q: SigmaModule, v: Subspace) -> Verdict:
    lam = destabilizing_1ps(q, v)
    value = mu(lam, q)
    if status == UNSTABLE and not value < 0:
        raise InternalCheckError("destabilizing weight is not negative")
    if status == STRICTLY_SEMISTABLE and value != 0:
        raise InternalCheckError("equality witness weight is not zero")
    return Verdict(status, provenance, (v, lam), value)


def joint_kernel(q: SigmaModule) -> Subspace:
    """Vectors x with q(x) = 0; by the symmetry relation this also kills
    every q(y)(x), so the kernel is totally isotropic with full orthogonal."""
    forms = _integer_forms(q, q.field.characteristic)
    stacked = [column for b in forms for column in zip(*b)]
    return Subspace._from_echelon(q.field, q.dim_h, *_null_space(q.field, stacked, q.dim_h))


def _lift_subspace(rows, p: int, balanced: bool) -> tuple:
    # plain ints of residues in range(p); they keep the pivots, so they are reduced echelon
    top = p // 2 if balanced else p
    return tuple(tuple(x - p if x > top else x for x in row) for row in rows)


def _grams_vanish(forms, rows) -> bool:
    """Whether u_i^T B u_j == 0 for every B in ``forms`` and (i, j), i == j too."""
    for b in forms:
        images = [[sum(map(mul, row, u)) for row in b] for u in rows]
        for u in rows:
            for c in images:
                if sum(map(mul, u, c)):
                    return False
    return True


def _candidates(q: SigmaModule, enum_bound: int, primes, tried: list, by_prime: bool):
    """Yield (V, dim V^perp, V^perp or None) for the totally isotropic V
    that the subspace criterion is tested on; V^perp is given when the
    stream computed it, that is for the QQ lifts.

    Over F_p these are all of them, in canonical order.  Over QQ the
    nonzero joint kernel comes first, with the whole of H as its
    orthogonal; then the lifts (plain and balanced residues) of the
    totally isotropic subspaces of the reductions mod ``primes``, each
    kept once.  The forms B_k are scaled once to the integers DB_k, D
    the lcm of all their denominators, and the reduction mod p is DB_k
    mod p on plain ints; a prime dividing a denominator of the involution
    or of a form is skipped.  A lift whose Gram entries u_i^T (DB_k) u_j
    do not all vanish is dropped; the rest are rechecked exactly over
    QQ.  The scan runs prime by prime, all dimensions each, when
    ``by_prime`` is set, and otherwise dimension by dimension, all
    primes each; the order fixes which witness comes first.  Each prime
    is reduced, and its scanner built, at most once, and appended to
    ``tried`` whenever a scan of its reduction starts.  A prime whose
    reduction has more than MAX_LINES lines is refused before any
    reduction is scanned.
    """
    n = q.dim_h
    if q.field.kind == "fp":
        _check_enumerable(q, enum_bound)
        p = q.field.p
        for rows, pivots, images in _isotropic_scanner([b.rows for b in q.forms], p, n)():
            yield Subspace._from_echelon(q.field, n, rows, pivots), n - rank_mod_p(images, p), None
        return
    kernel = joint_kernel(q)
    if not kernel.is_zero():
        yield kernel, n, None
    if n > enum_bound:
        raise BoundExceededError(
            f"dim {n} exceeds the enumeration bound {enum_bound}"
        )
    denominators = _denominator_lcm(q.w.matrix, *q.forms)
    primes = [p for p in primes if denominators % p]
    # refuse a prime with too many lines before any reduction is scanned,
    # however early a scan may stop
    for p in primes:
        _check_lines(p, n)
    if by_prime:
        steps = [(p, range(1, n + 1)) for p in primes]
    else:
        steps = [(p, (d,)) for d in range(1, n + 1) for p in primes]
    forms = _integer_forms(q, 0)
    scans: dict = {}
    # lifts are int rows, and an int equals and hashes as the same Fraction
    seen = {kernel.basis.rows}
    for p, dims in steps:
        if p not in scans:
            reduced = [[[x % p for x in row] for row in b] for b in forms]
            scans[p] = _isotropic_scanner(reduced, p, n)
        tried.append(p)
        for residues, pivots, _ in scans[p](dims):
            for balanced in (False, True):
                rows = _lift_subspace(residues, p, balanced)
                if rows in seen:
                    continue
                seen.add(rows)
                if not _grams_vanish(forms, rows):
                    continue
                v = Subspace._from_echelon(
                    q.field, n, tuple(tuple(map(Fraction, row)) for row in rows), pivots
                )
                perp = orthogonal(q, v)
                if perp.contains(v):
                    yield v, perp.dim, perp


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
        dual = complement_in(reduction.perp, Subspace.full(field, current.dim_h))
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
    outside in, core, dual models inside out) and coincides there with
    the limit of the canonical one-parameter subgroup; this is checked
    on every call.
    """
    primes = tuple(primes)
    levels, chain, core, core_rows = _build_levels(q, enum_bound, primes)
    field = q.field
    n = q.dim_h

    adapted = [row for level in levels for row in level.witness_rows.rows]
    adapted.extend(core_rows.rows)
    for level in reversed(levels):
        adapted.extend(level.dual_rows.rows)
    transform = Matrix._from_rows(field, tuple(adapted), n).transpose()

    forms = list(core.forms)
    size = core.dim_h
    for level in reversed(levels):
        # the layout of hyperbolic_module, with the inner module in the middle
        d = level.piece.v_dim
        corner = Matrix.zeros(field, d, d)
        across, down = Matrix.zeros(field, d, size), Matrix.zeros(field, size, d)
        dmats = twisted_transpose(q.w, q.sign, level.piece.alpha)
        forms = [
            Matrix.from_blocks(
                [
                    [corner, across, dmat],
                    [down, inner, down],
                    [alpha, across, corner],
                ]
            )
            for alpha, dmat, inner in zip(level.piece.alpha, dmats, forms)
        ]
        size += 2 * d
    assembled = SigmaModule(field, size, q.w, q.sign, forms)
    if not validate(assembled):
        raise InternalCheckError("assembled graded module fails validation")

    k = len(levels)
    pieces = []
    for i, level in enumerate(levels):
        weight = k - i
        pieces.append((Subspace._span(field, n, level.witness_rows.rows), weight))
        pieces.append((Subspace._span(field, n, level.dual_rows.rows), -weight))
    if core.dim_h > 0:
        pieces.append((Subspace._span(field, n, core_rows.rows), 0))
    canonical = OneParamSubgroup(pieces)

    limit = limit_at_zero(canonical, q)
    if limit is None:
        raise InternalCheckError("canonical subgroup has no limit")
    if act(transform.inverse(), limit) != assembled:
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

    Sweeps the direct-sum decompositions of H into nonzero subspaces,
    each set of pieces once, and gives the pieces every assignment of
    distinct integer weights in [-weight_bound, weight_bound] summing
    (weighted by dimension) to zero: the subgroups of all orderings of
    the pieces with strictly decreasing weights.  The sets depend only
    on F_p^n, so _direct_sums builds their lattice once per F_p^n per
    process and keeps the last _LATTICES of them: under the default
    bound the largest, F_7^3 with 28,862 sets, keeps 0.7 MB, and
    F_443^2, with the most sets (98,347), 0.6 MB.  The module only
    decides which pairs of pieces pair nonzero.  The best weight of a
    set depends only on its dims, on those pairs and on
    ``weight_bound``, so it is memoised on that key across calls.

    Work is refused before it starts, with BoundExceededError: a set of
    k pieces counts k! toward ``max_decompositions``, one per ordering,
    and that total has a closed form; F_p^n may have at most MAX_LINES
    lines; and at most MAX_LINES weight tuples P(2 weight_bound + 1,
    n - 1) may be tried for one set.  A negative ``weight_bound`` raises
    ValueError.  Returns the minimum of mu over the swept subgroups,
    which is negative iff the module is unstable for small dims; q = 0
    gives minus infinity.
    """
    if weight_bound < 0:
        raise ValueError(f"weight_bound must be nonnegative, not {weight_bound}")
    if q.field.kind != "fp":
        raise FieldError("the bounded sweep enumerates subspaces over a finite field")
    p, n = q.field.p, q.dim_h
    _check_lines(p, n)
    if _ordered_decompositions(p, n) > max_decompositions:
        raise BoundExceededError(f"sweep exceeded {max_decompositions} decompositions")
    # a set of n lines tries every tuple of n - 1 distinct weights, the last solved for
    _check_search_size(
        math.perm(2 * weight_bound + 1, max(n - 1, 0)),
        f"the sweep of F_{p}^{n} at weight bound {weight_bound}",
        "weight tuples",
    )
    if n == 0:
        # the one subgroup of the zero space pairs nothing
        return MINUS_INFINITY
    subs, sets = _direct_sums(p, n)
    images, kills = _pairing([b.rows for b in q.forms], p)

    # number the echelon rows of all bases; meets[i] has bit j when row i
    # pairs nonzero with row j, so piece a pairs nonzero with piece b iff
    # left[a] & right[b]
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

    span = range(-weight_bound, weight_bound + 1)
    weights_by_dims: dict = {}
    best = None

    def weight_vectors(dims):
        # distinct weights summing (weighted by dims) to zero; the last is
        # solved for, so a single piece has weight 0 and lists no span
        if len(dims) == 1:
            return [(0,)]
        out = []
        for head in itertools.permutations(span, len(dims) - 1):
            last, rest = divmod(-sum(d * w for d, w in zip(dims, head)), dims[-1])
            if rest == 0 and last in span and last not in head:
                out.append(head + (last,))
        return out

    def minimum(dims, pairs):
        if dims not in weights_by_dims:
            weights_by_dims[dims] = weight_vectors(dims)
        vectors = weights_by_dims[dims]
        if not vectors:
            return None
        if not pairs:
            return MINUS_INFINITY
        return min(max(w[a] + w[b] for a, b in pairs) for w in vectors)

    def score(dims, pairs):
        nonlocal best
        key = (dims, pairs, weight_bound)
        if key not in _best_weights:
            if len(_best_weights) >= _MAX_PATTERNS:
                _best_weights.clear()
            _best_weights[key] = minimum(dims, pairs)
        value = _best_weights[key]
        if value is not None and (best is None or value < best):
            best = value

    def paired(chosen, j):
        # the pairs (a, r) that piece j, taken after the r pieces chosen,
        # makes with piece a; w_a + w_b is symmetric, so a pair counts
        # once, whichever way it pairs
        r = len(chosen)
        lj, rj = left[j], right[j]
        out = [(a, r) for a, c in enumerate(chosen) if left[c] & rj or lj & right[c]]
        if lj & rj:
            out.append((r, r))
        return tuple(out)

    for dims, chosen, lasts in sets:
        pairs = sum((paired(chosen[:r], j) for r, j in enumerate(chosen)), ())
        for j in lasts:
            score(dims, pairs + paired(chosen, j))
    if best is None:
        raise InternalCheckError("sweep produced no subgroup")
    return best


# the lattices of the last _LATTICES fields swept, and the best weight of
# each (dims, pairs, weight_bound) seen, for every module: at most
# _MAX_PATTERNS of them, where dims n <= 4 allow 1,192 per weight bound
_LATTICES = 4
_MAX_PATTERNS = 4096
_best_weights: dict = {}


@functools.lru_cache(maxsize=_LATTICES)
def _direct_sums(p: int, n: int):
    """(subs, sets): the nonzero subspaces of F_p^n, as the reduced
    echelon bases _isotropic_scanner lists given no forms, and every
    nonempty set of them whose direct sum is F_p^n.

    A set takes its pieces in index order, so its dims never decrease
    and each set is listed once, whatever the order of its pieces.  The
    sets come grouped as (dims, chosen, lasts): chosen + (j,) for each j
    in lasts, an array of 4 bytes a set, all of dims ``dims``, in the
    order a depth-first walk meets them.  Two subspaces meet only in 0 iff they share no line,
    and the lines are the first subspaces listed, so each subspace is
    held as the bitmask of its lines and a piece is tested against the
    span of the pieces before it by one &.  That span is itself listed:
    it is found by its reduced echelon rows, once per (span, piece), and
    only when more pieces follow.
    """
    subs = [rows for rows, _, _ in _isotropic_scanner([], p, n)()]
    dims = [len(rows) for rows in subs]
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
    position = {rows: i for i, rows in enumerate(subs)}
    joins: dict = {}
    sets = []

    def join(a, b):
        if (a, b) not in joins:
            rows = [list(u) for u in subs[a] + subs[b]]
            pivots, _ = _gauss_jordan(rows, n, p)
            joins[a, b] = position[tuple(map(tuple, rows[: len(pivots)]))]
        return joins[a, b]

    def extend(start, remaining, spanned, chosen, shape):
        # the pieces of dim d < remaining come first, so the sets
        # completed here follow every set below this one
        taken = masks[spanned] if chosen else 0
        lasts = []
        for j in range(start, len(subs)):
            d = dims[j]
            if d > remaining:
                break
            if d < remaining < 2 * d or taken & masks[j]:
                continue
            if d == remaining:
                lasts.append(j)
            else:
                grown = join(spanned, j) if chosen else j
                extend(j + 1, remaining - d, grown, chosen + (j,), shape + (d,))
        if lasts:
            sets.append((shape + (remaining,), chosen, array("I", lasts)))

    extend(0, n, None, (), ())
    return tuple(subs), tuple(sets)


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
