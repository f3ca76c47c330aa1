"""Semistability verdicts, isotropic filtrations, and graded modules.

The subspace criterion drives everything here: a module is semistable
when every nonzero totally isotropic subspace V satisfies
dim V + dim V^perp <= dim H, stable when the inequality is strict.  Over
a prime field the quantifier is decided by enumeration; over the
rationals we certify instability when a witness is found and otherwise
report an explicit no_destabilizer_found, never a silent upgrade to
semistable.

One candidate stream serves both the verdict and each filtration step,
and one search feeds it over both fields, _isotropic_scanner: it grows
reduced echelon bases row by row from the isotropic lines of each pivot
column and drops a partial basis at its first nonzero pairing.  Along
the last entry of a line each form is a quadratic, so the lines are
solved for rather than listed, by one solver in both fields: each
prefix u = w + x e_(last-1) lies on the plane of w, whose row B_k w is
built once and gives both the quadratic's coefficients and the images
B_k w + x B_k e_(last-1) + t B_k e_last of each line u + t e_last, with
no second product.  Over F_p the search runs mod p on the one box
0 .. p - 1 and yields every totally isotropic subspace.  Over the
rationals the stream starts with the joint kernel when that is
nonzero, then yields the lifts of the totally isotropic subspaces of
the reductions mod a list of primes.  These are the integral reduced
echelon bases, totally isotropic over ZZ under the int rows d_k B_k of
the forms (d_k the denominator of B_k), whose entries a prime's plain
box 0 .. p - 1 or balanced box p//2 + 1 - p .. p//2 holds, so the same
search runs over ZZ on those two boxes, with no reduction mod p.  A
prime that divides a denominator of the involution or of a form is
skipped.  Each candidate is rechecked once, exactly: every pairing
u_i^T B_k u_j of its basis must vanish over ZZ, and dim V^perp is n
minus the rank of the rows B_k u that the search built over the basis.
A candidate travels as its echelon rows and pivots: the Subspace is
built only for the witness a scan returns, and for each result of
enumerate_totally_isotropic.  V^perp itself is solved, by
sigmamod._perp from those rows, only for the witness that a certificate
or a filtration level uses; the pivot columns of that one elimination
give the complement of V^perp, the level's pairing and its dual rows,
read off rather than recomputed.

A scan stops at its first equality witness when some form B_k is
nonsingular: the rows B_k u over a basis of V are then independent
constraints on V^perp, so dim V + dim V^perp <= dim H for every V and
nothing later in the stream can destabilize.  The isotropic lines are
found on demand, per prime and pivot column, so a scan that stops early
pays only for what it reached.  The F_p verdict and every filtration
level stop this way; the rational verdict scans in full, since its
provenance lists every prime it scanned.

The search is limited by its work, not by dim H: each candidate row it
tests while growing a basis is charged to one budget of _SCAN_BUDGET
rows per verdict, enumeration or filtration (all of its levels), and a
scan past it raises BoundExceededError where it stands.  Only the line
rule, MAX_LINES, refuses before any work.

A strictly semistable module carries a filtration by successive minimal
equality witnesses.  Each level is one scan of the stream, which also
refuses an unstable module, so no separate verdict runs before the
filtration.  Peeling the witnesses off leaves a stable core, and the
witnesses together with their dual pairings reassemble into the graded
module: the nested hyperbolic wrapping of the core.  Two semistable
modules are S-equivalent when their graded modules are isomorphic.

The subgroup layer, hilbert, is imported inside _certified, graded and
hilbert_mumford_sweep, where a certificate, a grading or a sweep is
built: an enumeration, or an F_p verdict of stable, never loads it.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    BoundExceededError,
    FieldError,
    InternalCheckError,
    ShapeError,
    StabilityError,
)
from .linalg import (
    GF,
    Matrix,
    Subspace,
    rank_mod_p,
)
from .sigmamod import (
    LinearPiece,
    SigmaModule,
    _check_compatible,
    _check_search_size,
    _pairing,
    _perp,
    _reduce_by,
    _wrap,
    is_isomorphic,
    validate,
)

if TYPE_CHECKING:
    from .hilbert import OneParamSubgroup

STABLE = "stable"
STRICTLY_SEMISTABLE = "strictly_semistable"
UNSTABLE = "unstable"
NO_DESTABILIZER_FOUND = "no_destabilizer_found"

DEFAULT_PRIMES = (2, 3, 5, 7, 11, 13)

# the candidate rows that one verdict, enumeration or filtration may test;
# the zero module on F_43^4, the largest scan the line bound admits at
# dim H <= 4, tests 3,592,960
_SCAN_BUDGET = 4_000_000


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


def enumerate_totally_isotropic(q: SigmaModule):
    """All nonzero totally isotropic subspaces, dimension ascending.

    Only meaningful over a prime field.  The search is pruned: it grows
    reduced echelon bases row by row and drops a partial basis as soon
    as one pairing is nonzero, so its cost follows the number of
    isotropic partial bases rather than the p^(d(n-d)) subspaces of
    each dimension d.  A search that tests more than _SCAN_BUDGET
    candidate rows raises BoundExceededError.
    """
    bases = _isotropic_bases(q)
    return tuple(Subspace._from_echelon(q.field, q.dim_h, rows, pivots) for rows, pivots in bases)


def _isotropic_bases(q: SigmaModule):
    """(rows, pivots) for each subspace enumerate_totally_isotropic
    lists, in its order: the int rows of its reduced echelon basis, over
    1, and their pivot columns.  The field and the line rule are checked
    here, before the stream is read."""
    if q.field.kind != "fp":
        raise FieldError("exhaustive enumeration needs a finite field")
    scan = _isotropic_scanner([b.num for b in q.forms], q.field.p, q.dim_h)
    return ((rows, pivots) for rows, pivots, _ in scan())


def _check_lines(p: int, n: int):
    # a search may scan every line of F_p^n; F_13^4 has 2,380
    _check_search_size((p**n - 1) // (p - 1), f"F_{p}^{n}", "candidate lines")


def _plane(columns, w, j: int):
    """The forms on the plane w + x e_j + t e_last, one (entries, a,
    beta, gamma, b, delta, c) per form, for a prefix ``w`` that is 0 at
    j = last - 1 and at last, under the forms whose column tuples
    ``columns`` holds: over the ints,

        Q_k(w + x e_j + t e_last)
            = a + x (beta + x gamma) + t (b + x delta) + t^2 c,

    with a = w . B_k w, beta = (B_k w)_j + w . B_k e_j, gamma = B_k[j][j],
    b = (B_k w)_last + w . B_k e_last, delta = B_k[last][j] + B_k[j][last]
    and c = B_k[last][last].  ``entries`` zips the rows B_k w, B_k e_j
    and B_k e_last, so B_k (w + x e_j + t e_last) is read off it.  The
    row B_k w is summed from the columns of B_k at the nonzero entries of
    w, and the rest is read off it and the columns, so no symmetry of the
    forms is assumed."""
    last = len(w) - 1
    plane = []
    for cols in columns:
        row = [0] * len(w)
        for i, x in enumerate(w):
            if x:
                row = [r + x * y for r, y in zip(row, cols[i])]
        col, tail = cols[j], cols[last]
        a, beta = sum(map(mul, w, row)), row[j] + sum(map(mul, w, col))
        b, delta = row[last] + sum(map(mul, w, tail)), col[last] + tail[j]
        plane.append((list(zip(row, col, tail)), a, beta, col[j], b, delta, tail[last]))
    return plane


def _solve_prefix(plane, u, p: int):
    """The t with Q_k(u + t e_last) = 0 for every form, mod p when p is
    a prime and over ZZ when p is 0, or None when every t is one, for the
    prefix ``u`` = w + x e_j on ``plane``, the _plane of w.  Along the
    run each form is

        Q_k(u + t e_last) = a_k + t (b_k + t c_k),

    a_k = a + x (beta + x gamma) and b_k = b + x delta.  The first of
    these polynomials that is not zero gives the roots: mod p by trying
    each t in range(p), which takes no division, so characteristic 2 is
    no exception; over ZZ at most two, by an integer square root of its
    discriminant or by one exact division.  The others only filter them.
    """
    x = u[-2]
    roots = None
    for _, a, beta, gamma, b, delta, c in plane:
        a, b = a + x * (beta + x * gamma), b + x * delta
        if p:
            a, b, c = a % p, b % p, c % p
        if roots is not None:
            values = ((t, a + t * (b + t * c)) for t in roots)
            roots = [t for t, v in values if not (v % p if p else v)]
        elif not (a or b or c):
            continue
        elif p:
            roots = [t for t in range(p) if not (a + t * (b + t * c)) % p]
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
        else:
            return []
        if not roots:
            return []
    return roots


def _lines(columns, p: int, n: int, pc: int, box, solved: dict):
    """Yield (u, images) for the isotropic lines u of pivot column ``pc``
    whose free entries the range ``box`` holds, in product order: the
    echelon rows u with u^T B_k u = 0 for every one of the n x n
    plain-int forms, mod p when p is a prime (box is then range(p), and
    the forms residues mod p) and over ZZ when p is 0, with their images,
    the rows B_k u, reduced mod p over F_p.

    ``columns`` holds the column tuples of each form.  The rows run as
    prefixes, last entry 0, each followed by its run over t in box.  A
    prefix is w + x e_j, j = last - 1, with x running innermost over box
    (or the lead 1 when pc is j, and w is 0).  _plane builds the rows
    B_k w once per w, and _solve_prefix solves each run for its last
    entry from a few products of scalars.  Each line w + x e_j + t e_last
    takes its images B_k w + x B_k e_j + t B_k e_last off the same plane,
    with no product of its own; nothing is built over the box.
    ``solved`` keeps the plane of each w and the roots of each of its
    prefixes, for every later box under the same forms and p.
    """
    last = n - 1
    lead = (0,) * pc + (1,)
    if pc == last:
        # no free entry: the one row e_last is isotropic iff every corner
        # vanishes, and its images are the last columns
        tails = [cols[last] for cols in columns]
        if not any(tail[last] for tail in tails):
            yield lead, tails
        return
    j = last - 1
    # product() of no box builds nothing, however long the box; a longer
    # product is of boxes that the line bound has kept short
    if pc < j:
        outers = itertools.product(*[box] * (j - pc - 1))
        planes = ((lead + outer + (0, 0), box) for outer in outers)
    else:
        planes = [((0,) * n, (1,))]
    for w, xs in planes:
        if w not in solved:
            solved[w] = _plane(columns, w, j), {}
        plane, runs = solved[w]
        head = w[:j]
        for x in xs:
            if x not in runs:
                runs[x] = _solve_prefix(plane, head + (x, 0), p)
            roots = runs[x]
            for t in box if roots is None else roots:
                if t in box:
                    if p:
                        images = [tuple([(r + x * y + t * z) % p for r, y, z in e[0]]) for e in plane]
                    else:
                        images = [tuple([r + x * y + t * z for r, y, z in e[0]]) for e in plane]
                    yield head + (x, t), images


def _isotropic_scanner(forms, p: int, n: int, primes=(), budget=None):
    """``scan(dims=None, prime=p)`` yields (rows, pivots, images) for the
    nonzero totally isotropic subspaces V with dim V in ``dims`` (default:
    all), under the n x n plain-int forms: the one candidate search.

    With p a prime it works mod p, in F_p^n; given no forms it yields
    every nonzero subspace.  With p = 0 it works over ZZ, and
    ``scan(dims, prime)`` yields the lifts, totally isotropic over ZZ, of
    the totally isotropic subspaces mod ``prime``, one of ``primes``: the
    integral reduced echelon bases whose entries the plain box
    range(prime) or the balanced box prime//2 + 1 - prime .. prime//2
    holds (one box at 2), each at the first prime whose box holds it.

    ``rows`` is the reduced echelon basis of V, with pivot columns
    ``pivots``, and ``images`` the rows B_k u over it, which _lines gives
    with each line from the plane of its prefix: V^perp is their null
    space (sigmamod._perp), of dim n minus their rank.  The form columns
    that _lines reads are built once per scanner.  A line is a basis of
    dimension 1 by itself; longer bases grow row by row in grow from
    the lines of _lines, and a partial basis is dropped at its first
    nonzero pairing u_i^T B_k u_j; V is totally isotropic exactly when
    all of them vanish, so no symmetry of the forms is assumed.  The
    order is that of a scan mod p: dimension, pivot columns, residues,
    and the plain lift before the balanced one.  The bases of one box
    grow in that order.  Two boxes give two integer lifts of one
    residue, which pair differently over ZZ, so each pivot pattern's
    lifts are sorted.

    A reader finds the lines of a (prime, pivot column) on demand and
    keeps the list once it has read them all, for every later scan; the
    plane of each prefix and its roots are kept for every prime.  With
    one box the first row of a pivot pattern reads its column only as
    far as the scan goes, so a scan that stops early pays only for the
    lines it reached.  With two boxes a column is read in full when
    first asked for, since each pattern's lifts are sorted before the
    first is yielded anyway.  A prime with more than MAX_LINES lines in
    F_prime^n raises BoundExceededError before any work.

    ``budget``, a one-item list, holds the candidate rows that grow may
    still test, one a pass of its row loop; a scan that runs it below
    zero raises BoundExceededError.  The scanners of one call share one
    budget, and a scanner given none starts its own at _SCAN_BUDGET.
    """
    if budget is None:
        budget = [_SCAN_BUDGET]
    space = f"F_{p}^{n}" if p else f"Q^{n}"
    primes = (p,) if p else tuple(primes)
    boxes = {}
    for prime in primes:
        _check_lines(prime, n)
        plain, balanced = range(prime), range(prime // 2 + 1 - prime, prime // 2 + 1)
        boxes[prime] = (plain,) if p or plain == balanced else (plain, balanced)
    _, kills = _pairing(forms, p)
    # the column tuples of each form, read by every plane the lines solve
    columns = [list(zip(*b)) for b in forms]
    solved: dict = {}
    # the lines of each (prime, column) that some reader has read to its end
    found: dict = {}

    def grow(rows, basis):
        # yield basis, a list of lines (u, images) extended in place, once for
        # every way to take its r-th row from rows[r] with u_i^T B_k u_j
        # zero for every i != j: a partial basis is dropped at its first
        # nonzero pairing, and the rows are isotropic lines, which settles
        # i == j
        r = len(basis)
        if r == len(rows):
            yield basis
            return
        for u, imgs in rows[r]:
            budget[0] -= 1
            if budget[0] < 0:
                raise BoundExceededError(
                    f"the isotropic search of {space} exceeds {_SCAN_BUDGET} candidate rows at dim {len(rows)}"
                )
            for w, bi in basis:
                if not (kills(u, bi) and kills(w, imgs)):
                    break
            else:
                basis.append((u, imgs))
                yield from grow(rows, basis)
                basis.pop()

    def reader(prime, pc):
        read = []
        for i, box in enumerate(boxes[prime]):
            for line in _lines(columns, p, n, pc, box, solved):
                # a balanced line with no negative entry is a plain one, listed already
                if not i or min(line[0]) < 0:
                    read.append(line)
                    yield line
        found[prime, pc] = read

    def lines(prime, pc):
        read = found.get((prime, pc))
        if read is not None:
            return read
        return list(reader(prime, pc)) if len(boxes[prime]) > 1 else reader(prime, pc)

    def first_lifts(bases, prime):
        # the bases whose entries a box of prime holds, and no box of an
        # earlier prime; with two boxes they are sorted by their
        # residues, the plain lift first
        kept = []
        for basis in bases:
            rows = [u for u, _ in basis]
            lo, hi = min(map(min, rows)), max(map(max, rows))
            holders = (e for e in primes if any(lo in box and hi in box for box in boxes[e]))
            if next(holders, None) != prime:
                continue
            if len(boxes[prime]) == 1:
                yield basis
            else:
                kept.append(((tuple(tuple(x % prime for x in u) for u in rows), lo < 0), basis[:]))
        # the keys are distinct, so no two bases are compared
        kept.sort()
        for _, basis in kept:
            yield basis

    def scan(dims=None, prime=p):
        for d in range(1, n + 1) if dims is None else dims:
            for pivots in itertools.combinations(range(n), d):
                # row r must vanish on the later pivot columns; the first
                # row is filtered as grow reads it, and a reader counts as
                # nonempty
                first = lines(prime, pivots[0])
                later = [
                    [e for e in lines(prime, pc) if not any(map(e[0].__getitem__, pivots[r + 1 :]))]
                    for r, pc in enumerate(pivots[1:], 1)
                ]
                if not (first and all(later)):
                    continue
                if d == 1:
                    # a line is a basis by itself
                    bases = ([e] for e in first)
                else:
                    rest = pivots[1:]
                    first = (e for e in first if not any(map(e[0].__getitem__, rest)))
                    bases = grow([first] + later, [])
                for basis in bases if p else first_lifts(bases, prime):
                    yield (
                        tuple(u for u, _ in basis),
                        pivots,
                        [c for _, imgs in basis for c in imgs],
                    )

    return scan


def semistability_verdict(
    q: SigmaModule,
    *,
    primes: tuple = DEFAULT_PRIMES,
) -> Verdict:
    """Decide the subspace criterion for q.

    The field decides how: over F_p the verdict is exhaustive; over QQ
    it is heuristic, certifying instability via the joint kernel and via
    witnesses lifted from reductions mod ``primes``, and returning
    no_destabilizer_found when nothing lifts.  A search that tests more
    than _SCAN_BUDGET candidate rows raises BoundExceededError.
    """
    primes = _checked(primes)
    if not validate(q):
        raise StabilityError("module violates its symmetry relation")
    kind = "exhaustive" if q.field.kind == "fp" else "heuristic"
    tried: list = []
    # the heuristic's provenance lists every prime it scanned, so it scans in full
    worse, equality = _scan(q, primes, tried, full=kind == "heuristic")
    provenance = Provenance(kind, tuple(tried))
    if worse is not None:
        return _certified(UNSTABLE, provenance, q, worse)
    if equality is not None:
        return _certified(STRICTLY_SEMISTABLE, provenance, q, equality)
    return Verdict(STABLE if kind == "exhaustive" else NO_DESTABILIZER_FOUND, provenance)


def _checked(primes) -> tuple:
    # FieldError before any work for an entry that GF refuses, as --prime-list has it
    return tuple(GF(p).p for p in primes)


def _scan(q: SigmaModule, primes, tried: list, full: bool, budget=None):
    """(destabilizer, equality) over the candidate stream of q, each a
    (V, dim V^perp, images) record or None; ``budget`` is the search's,
    as _isotropic_scanner takes it.  The candidates come from _candidates
    as echelon rows, and V is built from them for these two alone.

    The scan stops at the first V with dim V + dim V^perp > dim H, the
    destabilizer; equality is the first V before it meeting equality.
    Either is None when the scan saw none.  A ``full`` scan runs the
    stream prime by prime and reads it to the end.  Otherwise the stream
    runs dimension by dimension, and when _no_destabilizer holds the scan
    also stops at the first equality: reading on would return that same
    equality and no destabilizer.
    """
    n = q.dim_h
    forms = [b.num for b in q.forms]
    equality = None
    for found in _candidates(q, forms, primes, tried, full, budget):
        total = len(found[0]) + found[3]
        if total > n:
            return _built(q, found), _built(q, equality)
        if total == n and equality is None:
            equality = found
            if not full and _no_destabilizer(q, forms):
                break
    return None, _built(q, equality)


def _built(q: SigmaModule, found):
    # the (V, dim V^perp, images) record of a _candidates record, or None;
    # its rows are a reduced echelon basis over den, so no elimination runs
    if found is None:
        return None
    rows, pivots, den, perp_dim, images = found
    return Subspace._from_echelon(q.field, q.dim_h, rows, pivots, den), perp_dim, images


def _no_destabilizer(q: SigmaModule, forms) -> bool:
    """Whether some form B_k has rank dim H, read on ``forms``, the
    int rows of the forms of q.

    Then the rows B_k u over a basis of any V are independent
    constraints on V^perp, so dim V + dim V^perp <= dim H and no V
    destabilizes.  A zero joint kernel is not enough: the forms can all
    be singular with nothing killed by every one of them, and such a
    module can be unstable.
    """
    return any(rank_mod_p(b, q.field.characteristic) == q.dim_h for b in forms)


def _certified(status: str, provenance: Provenance, q: SigmaModule, found) -> Verdict:
    from .hilbert import _destabilizing_by, mu

    v, _, images = found
    lam = _destabilizing_by(q, v, *_perp(q, images))
    value = mu(lam, q)
    if status == UNSTABLE and not value < 0:
        raise InternalCheckError("destabilizing weight is not negative")
    if status == STRICTLY_SEMISTABLE and value != 0:
        raise InternalCheckError("equality witness weight is not zero")
    return Verdict(status, provenance, (v, lam), value)


def joint_kernel(q: SigmaModule) -> Subspace:
    """Vectors x with q(x) = 0, solved from x . B_k e_i = 0 for every
    column B_k e_i; by the symmetry relation this also kills every
    q(y)(x), so the kernel is totally isotropic with full orthogonal."""
    return _perp(q, [c for b in q.forms for c in zip(*b.num)])[0]


def _candidates(q: SigmaModule, forms, primes, tried: list, full: bool, budget=None):
    """Yield (rows, pivots, den, dim V^perp, images) for the totally
    isotropic V that the subspace criterion is tested on, where ``forms``
    are the int rows of the forms of q: V is spanned by the reduced
    echelon basis ``rows`` / ``den``, int rows with pivot columns
    ``pivots``, and ``images`` are the rows B_k u that the search built
    over that basis: V^perp is sigmamod._perp(q, images).  No Subspace is
    built here; _scan builds one for the witness it returns.

    Both fields run the one search, _isotropic_scanner.  Over F_p the
    stream is every totally isotropic subspace, in canonical order.
    Over QQ the nonzero joint kernel comes first, on its own
    denominator, with images () for its orthogonal H; then the lifts,
    over 1, that the search over ZZ finds at the
    primes of ``primes``, under the int rows of the forms, on which every
    pairing keeps its zeros.  A prime dividing a denominator of the
    involution or of a form is skipped, and a repeated prime counts in
    its first place only.  The stream runs prime by prime, all dimensions
    each, when ``full`` is set, and otherwise dimension by dimension, all
    primes each; over F_p the order is the same either way.  Each lift
    comes at the first step whose prime lifts it, and the order fixes
    which witness comes first.  A prime is appended
    to ``tried`` whenever a step of it starts.  Each lift is rechecked
    exactly over QQ, by its pairings u_i^T B_k u_j with the images, on
    the int rows of the forms; its dim V^perp is n minus the rank of the
    images, as over F_p, and V^perp is solved only where a witness is
    used.  A prime with more than MAX_LINES lines in F_p^n is refused
    before any work, and ``budget`` goes to _isotropic_scanner.

    The rational joint kernel comes before every line check, so a module
    it destabilizes is unstable even at a prime too large.
    """
    n = q.dim_h
    if q.field.kind == "fp":
        p = q.field.p
        for rows, pivots, images in _isotropic_scanner(forms, p, n, budget=budget)():
            yield rows, pivots, 1, n - rank_mod_p(images, p), images
        return
    kernel = joint_kernel(q)
    if not kernel.is_zero():
        yield kernel.basis.num, kernel.pivots, kernel.basis.den, n, ()
    # the denominator of a matrix is the lcm of those of its entries
    denominators = math.lcm(q.w.matrix.den, *(b.den for b in q.forms))
    primes = [p for p in dict.fromkeys(primes) if denominators % p]
    # the scanner refuses a prime with too many lines before any search,
    # however early a scan may stop
    scan = _isotropic_scanner(forms, 0, n, primes, budget)
    _, kills = _pairing(forms, 0)
    if full:
        steps = [(p, range(1, n + 1)) for p in primes]
    else:
        steps = [(p, (d,)) for d in range(1, n + 1) for p in primes]
    for p, dims in steps:
        tried.append(p)
        for rows, pivots, images in scan(dims, p):
            if rows == kernel.basis.num:
                # the joint kernel came first: an integral reduced echelon
                # basis is its own int rows, over 1
                continue
            # every pairing u_i^T B_k u_j, each image against each row
            if all(kills(u, images) for u in rows):
                yield rows, pivots, 1, n - rank_mod_p(images, 0), images



class _Level(NamedTuple):
    """One filtration step, with all bases written in H coordinates."""

    witness_rows: Matrix
    dual_rows: Matrix
    piece: LinearPiece


def _build_levels(q, primes):
    """(levels, chain, core, model rows) of the filtration of q.

    Each level scans the current module once, all levels on one budget of
    _SCAN_BUDGET candidate rows, and reduces it by its
    smallest equality witness V, whose orthogonal is solved from the
    images the scan yielded with it, and rechecked by the reduction.
    The dual of the level is the complement of V^perp that this
    elimination gives, the unit rows e_j for j in its pivot columns
    ``kept``, so the pairing alpha_k[i][j] is image j * dim W + k, the
    row B_k u_j, at kept[i], over the denominator of B_k, and the dual's
    rows in H are rows ``kept`` of the model rows: no product is taken.
    """
    primes = _checked(primes)
    if not validate(q):
        raise StabilityError("module violates its symmetry relation")
    field = q.field
    n = q.dim_h
    levels = []
    chain = []
    reached = Subspace.zero(field, n)
    model_rows = Matrix.identity(field, n)
    current = q
    budget = [_SCAN_BUDGET]
    while True:
        # one scan, dimension ascending, per level: it doubles as the
        # level's semistability check, and v is its smallest equality witness
        worse, equality = _scan(current, primes, [], full=False, budget=budget)
        if worse is not None:
            raise StabilityError("module is unstable")
        if equality is None:
            break
        v, _, images = equality
        perp, kept = _perp(current, images)
        reduction = _reduce_by(current, v, perp)
        alpha = []
        for k, b in enumerate(current.forms):
            # images[k::dim W] are the rows B_k u_j, j = 0 .. dim V - 1
            rows = tuple(tuple(r[c] for r in images[k :: current.dim_w]) for c in kept)
            alpha.append(Matrix._from_rows(field, rows, v.dim, b.den))
        witness_rows = v.basis @ model_rows
        dual_num = tuple(model_rows.num[c] for c in kept)
        dual_rows = Matrix._from_rows(field, dual_num, n, model_rows.den)
        levels.append(_Level(witness_rows, dual_rows, LinearPiece(tuple(alpha))))
        reached = Subspace._span(field, n, reached.basis.num + witness_rows.num)
        chain.append(reached)
        model_rows = reduction.model @ model_rows
        current = reduction.module
    return levels, tuple(chain), current, model_rows


def iso_filtration(q: SigmaModule, *, primes: tuple = DEFAULT_PRIMES) -> Filtration:
    """Chain of successive minimal equality witnesses, lifted back to H.

    Each step meets the equality of the subspace criterion inside the
    reduced module of the previous one; the module is stable iff the
    chain is empty.  Deterministic: witnesses are searched dimension
    ascending, then in canonical basis order.
    """
    _, chain, _, _ = _build_levels(q, primes)
    return Filtration(chain)


def graded(q: SigmaModule, *, primes: tuple = DEFAULT_PRIMES) -> GradedModule:
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
    from .hilbert import OneParamSubgroup, _limit_in_basis

    if q.dim_h == 0:
        raise ShapeError("a graded module needs dim H >= 1, not 0")
    levels, chain, core, core_rows = _build_levels(q, primes)
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
    weights = [weight for rows, weight in blocks for _ in range(rows.nrows)]
    adapted_rows = Matrix.from_blocks([[rows] for rows, _ in blocks])
    transform = adapted_rows.transpose()

    forms = list(core.forms)
    for level in reversed(levels):
        forms = _wrap(q.w, q.sign, level.piece.alpha, forms)
    assembled = SigmaModule(field, n, q.w, q.sign, forms)
    if not validate(assembled):
        raise InternalCheckError("assembled graded module fails validation")

    # the block weights strictly decrease, and every block is nonzero
    canonical = OneParamSubgroup._from_pieces(
        field, n, tuple((Subspace._span(field, n, rows.num), weight) for rows, weight in blocks)
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
    *,
    primes: tuple = DEFAULT_PRIMES,
) -> str:
    """yes / no / unknown: are the graded modules isomorphic?

    Over QQ the core of a grading is whatever the heuristic could not
    reduce, never certified stable, so S-equivalent modules can assemble
    to modules that are not isomorphic: a "no" there stands only when
    dim H differs, and is "unknown" otherwise.  Over F_p it stands.
    Modules over different fields, signs or W are refused before either
    is graded.
    """
    # both modules scan the same list, also when primes is an iterator
    primes = _checked(primes)
    _check_compatible(q1, q2)
    g1, g2 = (graded(q, primes=primes) for q in (q1, q2))
    status = is_isomorphic(g1.assembled, g2.assembled).status
    if status == "no" and q1.field.kind == "rational" and q1.dim_h == q2.dim_h:
        return "unknown"
    return status


# the sweep refuses an F_p^n with more ordered pairs of nonzero subspaces
_MAX_SUBSPACE_PAIRS = 200_000


def hilbert_mumford_sweep(q: SigmaModule, weight_bound: int = 3):
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

    Work is refused before it starts, with BoundExceededError: F_p^n may
    have at most MAX_LINES lines; the containment pass of _flags compares
    every ordered pair of the S nonzero subspaces of F_p^n, and S^2 may
    be at most _MAX_SUBSPACE_PAIRS; and at most MAX_LINES weight tuples
    P(2 weight_bound + 1, n - 1) may be tried for one flag.  A negative
    ``weight_bound`` raises ValueError.
    Returns the minimum of mu over the swept subgroups, which is negative
    iff the module is unstable for small dims; q = 0 gives minus
    infinity.
    """
    from .hilbert import MINUS_INFINITY

    if weight_bound < 0:
        raise ValueError(f"weight_bound must be nonnegative, not {weight_bound}")
    if q.field.kind != "fp":
        raise FieldError("the bounded sweep enumerates subspaces over a finite field")
    p, n = q.field.p, q.dim_h
    _check_lines(p, n)
    _check_search_size(_subspace_count(p, n) ** 2, f"F_{p}^{n}", "subspace pairs", _MAX_SUBSPACE_PAIRS)
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
    images, kills = _pairing([b.num for b in q.forms], p)

    # number the echelon rows of all bases, the rows of the wide bases
    # (dim >= 2) first; meets[i] has bit j when row i pairs nonzero with
    # row j, so subspaces a and b pair nonzero iff left[a] & right[b] or
    # left[b] & right[a].  Every step of a flag after the first is wide,
    # so a flag pairs a line only with itself or with a wide step, and
    # the row of a line outside the wide bases is tested against the
    # wide rows and itself only: on F_p^2 three tests a line, not p + 1
    index: dict = {}
    for basis in subs:
        if len(basis) > 1:
            for u in basis:
                index.setdefault(u, len(index))
    wide = len(index)
    for basis in subs:
        if len(basis) == 1:
            index.setdefault(basis[0], len(index))
    imgs = [images(u) for u in index]
    meets = []
    for i, u in enumerate(index):
        tested = range(len(index)) if i < wide else (*range(wide), i)
        meets.append(sum(1 << j for j in tested if not kills(u, imgs[j])))
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


# the flags of the last four fields swept; F_2^5, the longest list under
# the default bound, has 27,808
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


def _subspace_count(p: int, n: int) -> int:
    """The nonzero subspaces of F_p^n: the Gaussian binomials [n, d]_p
    for d = 1 .. n, each from the one before it, summed."""
    binomials = [1]
    for d in range(1, n + 1):
        binomials.append(binomials[-1] * (p ** (n - d + 1) - 1) // (p**d - 1))
    return sum(binomials) - 1
