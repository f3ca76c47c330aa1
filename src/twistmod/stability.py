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
column and drops a partial basis at its first nonzero pairing.  Each
line w + x e_(last-1) + t e_last lies on the plane of its prefix w,
linalg._plane, on which each form is a quadratic in x and t, so the
lines are solved for rather than listed, and each takes its images
B_k w + x B_k e_(last-1) + t B_k e_last off the plane with no product
of its own.  One solver, linalg._zeros, finds them in both fields.
Over F_p the search runs mod p on the one box 0 .. p - 1, solves each
plane in one pass, and yields every totally isotropic subspace.  Over
ZZ each prefix w + x e_(last-1) is solved on its own, by an integer
root, so a huge box costs no pass, and its roots are kept for every
later box and prime.
Over the rationals the stream starts with the joint kernel when that
is nonzero, then yields the lifts of the totally isotropic subspaces of
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
pays only for what it reached, up to the end of its plane.
The F_p verdict and every filtration level stop this way; the rational
verdict scans in full, since its provenance lists every prime it
scanned.

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

The weight sweep reads the same stream over F_p: it walks the chains of
totally isotropic subspaces and scores their self-dual flags, knowing
each V^perp by its dim alone.

The subgroup layer, hilbert, is imported inside _certified, graded and
hilbert_mumford_sweep, where a certificate, a grading or a sweep is
built: an enumeration, or an F_p verdict of stable, never loads it.
"""

from __future__ import annotations

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
    _plane,
    _zeros,
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

# the candidate rows that one verdict, enumeration or filtration may test,
# and a sweep, with the steps of its chain walk; the zero module on F_43^4,
# the largest scan the line bound admits at dim H <= 4, tests 3,592,960
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


def _lines(columns, p: int, n: int, pc: int, box, solved: dict):
    """Yield (u, images) for the isotropic lines u of pivot column ``pc``
    whose free entries the range ``box`` holds, in product order: the
    echelon rows u with u^T B_k u = 0 for every one of the n x n
    plain-int forms, mod p when p is a prime (box is then range(p), and
    the forms residues mod p) and over ZZ when p is 0, with their images,
    the rows B_k u, reduced mod p over F_p.

    ``columns`` holds the column tuples of each form.  The rows lie on
    planes w + x e_j + t e_last, j = last - 1, with x running over box (or
    held at the lead 1 when pc is j, and w is 0) and t innermost, and
    linalg._plane builds the rows B_k w once per w.  linalg._zeros
    solves each plane, in one pass over F_p and one prefix w + x e_j at
    a time over ZZ, with no pass over the box, and gives its lines with
    their images B_k w + x B_k e_j + t B_k e_last, read off the plane.
    ``solved`` keeps the plane of each w with its roots dict, which over
    ZZ holds the roots and lines of each prefix, for every later box
    under the same forms.
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
        plane, roots = solved[w]
        yield from _zeros(plane, roots, w, xs, box, p)


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
    nonzero pairing u_i^T B_k u_j, i > j; by the symmetry relation of the
    module, V is totally isotropic exactly when these vanish.  The order
    is that of a scan mod p: dimension, pivot columns, residues, and the
    plain lift before the balanced one.  The bases of one box
    grow in that order.  Two boxes give two integer lifts of one
    residue, which pair differently over ZZ, so each pivot pattern's
    lifts are sorted.

    A reader finds the lines of a (prime, pivot column) on demand and
    keeps the list once it has read them all, for every later scan; the
    plane of each prefix w is kept for every prime, and over ZZ the
    roots and lines of each prefix w + x e_j too.  A dim-1 scan yields
    each line with a copy of its images, so no caller changes a kept
    line.  With one box the first row of a pivot pattern reads its
    column plane by plane, only as far as the scan goes, so a scan that
    stops early pays only up to the end of the plane it reached.  With
    two boxes a column is read in full when
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
        # zero for every i > j (and so i < j, by the symmetry relation): a
        # partial basis is dropped at its first nonzero pairing, and the rows
        # are isotropic lines, which settles i == j; the last row yields
        # without a call of its own
        r = len(basis)
        last = r + 1 == len(rows)
        for u, imgs in rows[r]:
            budget[0] -= 1
            if budget[0] < 0:
                raise BoundExceededError(
                    f"the isotropic search of {space} exceeds {_SCAN_BUDGET} candidate rows at dim {len(rows)}"
                )
            for _, bi in basis:
                if not kills(u, bi):
                    break
            else:
                basis.append((u, imgs))
                if last:
                    yield basis
                else:
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
                if d == 1 and p:
                    # a line is a basis by itself; its images are copied,
                    # since a reader keeps the line for every later scan
                    for u, imgs in first:
                        yield (u,), pivots, imgs[:]
                    continue
                if d == 1:
                    # over ZZ a line is lifted as a basis of one row
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
    assembled = SigmaModule._from_forms(field, n, q.w, q.sign, forms)
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


def hilbert_mumford_sweep(q: SigmaModule, weight_bound: int = 3):
    """Minimum weight over the subgroups of the isotropic chain flags.

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
    where each j needs only the first such i.

    The sweep scores the one-step flag {H} and, for each chain
    V_1 < ... < V_m of the totally isotropic subspaces that
    _isotropic_scanner streams, the flag
    V_1 < ... < V_m < V_m^perp < ... < V_1^perp < H, equal neighbours
    dropped, with V^perp the module's orthogonal.  That the minimum over
    these flags is the minimum over every flag of F_p^n is measured, not
    proved: Kempf's optimal destabilizing flags are self-dual (Ann. of
    Math. 108, 1978), but these weights are bounded integers with no
    norm.  Tier-1 compares the sweep with a sweep over every flag, kept
    in its tests, on every F_p^n that sweep reaches.

    Which steps of a chain flag pair is read off dims: the
    V_i pair zero with each other and with V_j^perp for j >= i; V_j^perp
    pairs with V_i, i > j, iff V_i^perp is smaller; H pairs with V_1
    unless V_1^perp is H; and V_m^perp pairs with itself unless it is
    totally isotropic, that is, unless some V of the stream holds V_m
    and has the dim of V_m^perp.  So each V needs only dim V^perp, n
    minus the rank of the rows B_k x over its basis, as a verdict reads
    it.  The best weight of a flag depends only on its step dims and on
    which steps pair, so it is computed once per such pattern per call.
    {H} is scored first, so the zero module gives minus infinity with no
    search, and the walk stops at a flag of weight -2 weight_bound,
    below which none weighs.

    Work is refused with BoundExceededError: F_p^n may have at most
    MAX_LINES lines, and at most MAX_LINES weight tuples
    P(2 weight_bound + 1, n - 1) may be tried for one flag, both before
    any work; and the search and the walk share one budget of
    _SCAN_BUDGET, charged one for each candidate row the search tests
    and one for each walk step: a line of a V listed, a V tested for
    holding another, a chain scored.  Before all that, a
    ``weight_bound`` that is a bool, no int or negative is a ValueError.
    Returns the minimum of mu over the swept subgroups, which is
    negative iff the module is unstable for small dims; q = 0 gives
    minus infinity.
    """
    from .hilbert import MINUS_INFINITY

    if not isinstance(weight_bound, int) or isinstance(weight_bound, bool):
        raise ValueError(f"weight_bound must be an int, not {weight_bound!r}")
    if weight_bound < 0:
        raise ValueError(f"weight_bound must be nonnegative, not {weight_bound}")
    if q.field.kind != "fp":
        raise FieldError("the bounded sweep enumerates subspaces over a finite field")
    p, n = q.field.p, q.dim_h
    _check_lines(p, n)
    # a flag of n lines tries every tuple of n - 1 distinct weights, the last solved for
    _check_search_size(
        math.perm(2 * weight_bound + 1, max(n - 1, 0)),
        f"the sweep of F_{p}^{n} at weight bound {weight_bound}",
        "weight tuples",
    )
    forms = [b.num for b in q.forms]
    if not any(any(row) for b in forms for row in b):
        # no step pairs: the zero module, and the zero space
        return MINUS_INFINITY

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

    # {H}: a nonzero form pairs H with itself
    best = score((n,), ((0, 0),))
    budget = [_SCAN_BUDGET]

    def charge(steps):
        budget[0] -= steps
        if budget[0] < 0:
            raise BoundExceededError(f"the chain walk of F_{p}^{n} exceeds {_SCAN_BUDGET} candidate rows and walk steps")

    found, perps = [], []
    for rows, _, imgs in _isotropic_scanner(forms, p, n, budget=budget)():
        found.append(rows)
        perps.append(n - rank_mod_p(imgs, p))
    dims = [len(rows) for rows in found]
    # the lines of each V, as its vectors with leading entry 1: a row of
    # its reduced echelon basis plus any combination of the rows after
    # it.  V_a lies in V_b iff every row of V_a, a line itself, is a line
    # of V_b; ``holders`` lists the V through each line
    lines = []
    holders: dict = {}
    for b, rows in enumerate(found):
        held = set()
        for i, head in enumerate(rows):
            span = [head]
            for row in rows[i + 1 :]:
                span = [tuple((x + t * y) % p for x, y in zip(v, row)) for v in span for t in range(p)]
            held.update(span)
        charge(len(held))
        lines.append(held)
        for line in held:
            holders.setdefault(line, []).append(b)
    supersets: dict = {}

    def above(a):
        # (the V of larger dim that hold V_a, whether V_a^perp is totally
        # isotropic), listed when the walk first needs them; V_a^perp is
        # totally isotropic iff some V that holds V_a has its dim
        if a not in supersets:
            rows = found[a]
            charge(len(holders[rows[0]]))
            held = [b for b in holders[rows[0]] if dims[b] > dims[a] and lines[b].issuperset(rows)]
            supersets[a] = held, any(dims[b] == perps[a] for b in held)
        return supersets[a]

    def walk(chain):
        # score the flag of ``chain``, then of each chain that extends it;
        # no flag weighs less than 2 a_k >= -2 weight_bound, so the walk
        # stops once a flag does, before it lists another V's supersets
        nonlocal best
        if best == -2 * weight_bound:
            return
        charge(1)
        widths, pairs, reached = [], [], 0
        for a in chain:
            widths.append(dims[a] - reached)
            reached = dims[a]
        for j in reversed(range(len(chain))):
            if perps[chain[j]] > reached:
                # V_j^perp pairs first with V_(j+1); at the top of the chain
                # with itself, unless it is totally isotropic
                if j + 1 < len(chain):
                    pairs.append((j + 1, len(widths)))
                elif not above(chain[j])[1]:
                    pairs.append((len(widths), len(widths)))
                widths.append(perps[chain[j]] - reached)
                reached = perps[chain[j]]
        if reached < n:
            pairs.append((0, len(widths)))
            widths.append(n - reached)
        key = tuple(widths), tuple(pairs)
        if key not in scores:
            scores[key] = score(*key)
        if scores[key] is not None and scores[key] < best:
            best = scores[key]
        if best > -2 * weight_bound:
            for b in above(chain[-1])[0]:
                walk(chain + [b])

    for a in range(len(found)):
        walk([a])
    return best
