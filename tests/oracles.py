"""Oracles that share no code with the package engine.

The subspace enumerators over F_p build every subspace through the
public ``Subspace`` constructor, so the tests use them as oracles for
``stability._isotropic_scanner``, the package's one subspace enumerator.

The field objects of the package carry no arithmetic, so the scalar
operations of every oracle and test are kept here, in one place: one
function call per entry operation, with the inverse over F_p taken by
Fermat's little theorem.  The generic elimination below runs on them,
as the package's matrices once did on field methods.  The tests check
the plain-int kernel of ``Matrix`` against it: reduced echelon forms,
kernels, inverses and determinants are unique, so both must agree entry
by entry.

The orders of the orthogonal and symplectic groups over F_q come from
their closed forms alone; they count the yields of ``linalg.isometries``.

The flag sweep scores every flag of F_p^n, listed from those
subspaces, as ``stability.hilbert_mumford_sweep`` did before it walked
the isotropic chains alone; the sweep is compared with it.  The nonzero
subspaces of F_p^n are counted in closed form, by Gaussian binomials,
and so are the semistable and the stable single symmetric forms.

The orbit census lists every module over F_p^n for the swap or the
trivial involution, as tuples of int row tuples, and groups them into
GL_n orbits by the plain congruence action B_k -> g^T B_k g over every
invertible g, on ints mod p with no package code.  Burnside's lemma
counts the same orbits a second way, from the fixed points of each g,
without listing a module.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from twistmod.errors import FieldError, ShapeError, SingularMatrixError
from twistmod.hilbert import MINUS_INFINITY
from twistmod.linalg import GF, Matrix, Subspace


def is_element(field, a) -> bool:
    """Whether a is a canonical element: a Fraction, or an int in range(p)."""
    if field.kind == "rational":
        return isinstance(a, Fraction)
    return isinstance(a, int) and 0 <= a < field.p


def _canonical(field, a):
    return a % field.p if field.characteristic else a


def add(field, a, b):
    return _canonical(field, a + b)


def sub(field, a, b):
    return _canonical(field, a - b)


def mul(field, a, b):
    return _canonical(field, a * b)


def neg(field, a):
    return _canonical(field, -a)


def inv(field, a):
    if a == field.zero:
        raise ZeroDivisionError("inverse of zero")
    if field.characteristic:
        return pow(a, field.p - 2, field.p)
    # Fraction(1), not 1: a plain-int a would otherwise give a float
    return Fraction(1) / a


def elements(field):
    """The elements of F_p in order (finite fields only)."""
    if field.kind != "fp":
        raise FieldError("cannot enumerate an infinite field")
    return list(range(field.p))


def dot(field, u, v):
    acc = field.zero
    for a, b in zip(u, v):
        acc = add(field, acc, mul(field, a, b))
    return acc


def vec_mat(m, v):
    """v^T m for a row tuple v."""
    return tuple(dot(m.field, v, [r[j] for r in m.rows]) for j in range(m.ncols))


def generic_mul(a, b):
    if a.ncols != b.nrows:
        raise ShapeError("shape mismatch")
    columns = [[s[j] for s in b.rows] for j in range(b.ncols)]
    return [[dot(a.field, r, c) for c in columns] for r in a.rows]


def generic_rref(m):
    """(echelon rows, rank, pivots) by Gauss-Jordan on field operations."""
    f = m.field
    rows = [list(r) for r in m.rows]
    pivots = []
    for c in range(m.ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != f.zero), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        scale = inv(f, rows[r][c])
        rows[r] = [mul(f, scale, e) for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != f.zero:
                factor = rows[i][c]
                rows[i] = [sub(f, a, mul(f, factor, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, len(pivots), tuple(pivots)


def generic_kernel(m):
    """Canonical (reduced echelon) basis rows of {v : M v = 0}."""
    f = m.field
    echelon, _, pivots = generic_rref(m)
    vectors = []
    for fc in range(m.ncols):
        if fc in pivots:
            continue
        v = [f.zero] * m.ncols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = neg(f, echelon[r][fc])
        vectors.append(v)
    reduced, k, _ = generic_rref(Matrix(f, vectors))
    return reduced[:k]


def generic_det(m):
    f = m.field
    n = m.nrows
    rows = [list(r) for r in m.rows]
    result = f.one
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != f.zero), None)
        if pivot_row is None:
            return f.zero
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            result = neg(f, result)
        result = mul(f, result, rows[c][c])
        inv_pivot = inv(f, rows[c][c])
        for i in range(c + 1, n):
            if rows[i][c] != f.zero:
                factor = mul(f, rows[i][c], inv_pivot)
                rows[i] = [sub(f, a, mul(f, factor, b)) for a, b in zip(rows[i], rows[c])]
    return result


def generic_inverse(m):
    f = m.field
    n = m.nrows
    identity = [[f.one if j == i else f.zero for j in range(n)] for i in range(n)]
    augmented = Matrix(f, [list(row) + unit for row, unit in zip(m.rows, identity)])
    echelon, _, pivots = generic_rref(augmented)
    if pivots[:n] != tuple(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [r[n:] for r in echelon]


def vectors_of(field, n: int):
    """All vectors of F_p^n in lexicographic order (finite fields only)."""
    elems = elements(field)
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
    elems = elements(field)
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


def gaussian_multinomial(p: int, dims) -> int:
    """[n; d_1, ..., d_k]_p, n = sum(dims): the flags of F_p^n with those
    step dims.  With two dims (d, n - d) it is the Gaussian binomial
    [n, d]_p, the d-dim subspaces of F_p^n."""

    def factorial(m):
        return math.prod((p ** (i + 1) - 1) // (p - 1) for i in range(m))

    return factorial(sum(dims)) // math.prod(factorial(d) for d in dims)


def subspace_count(p: int, n: int) -> int:
    """The nonzero subspaces of F_p^n: the Gaussian binomials [n, d]_p
    for d = 1 .. n, summed."""
    return sum(gaussian_multinomial(p, (d, n - d)) for d in range(1, n + 1))


def nondegenerate_symmetric_count(q: int, n: int) -> int:
    """N(n), the nonsingular symmetric n x n matrices over F_q, q odd:
    q^(n(n+1)/2) prod_(i=1..ceil(n/2)) (1 - q^(1-2i)) (MacWilliams, Amer.
    Math. Monthly 76, 1969).  With one form, the trivial involution and
    sign +1 the semistable modules are exactly these."""
    count = q ** (n * (n + 1) // 2) * math.prod(1 - Fraction(1, q ** (2 * i - 1)) for i in range(1, (n + 1) // 2 + 1))
    if count.denominator != 1:
        raise AssertionError("N(n) is not an integer")
    return int(count)


def anisotropic_symmetric_count(q: int, n: int) -> int:
    """The nonsingular symmetric n x n matrices over F_q, q odd, with no
    isotropic line, the stable single forms: q - 1 at n = 1, q (q - 1)^2 / 2
    at n = 2 (b^2 - ac = d over the (q - 1) / 2 nonsquares d, with q (q - 1)
    points each), and none at n >= 3 (Chevalley-Warning)."""
    return {1: q - 1, 2: q * (q - 1) ** 2 // 2}.get(n, 0)


# the flags of the last four fields listed; F_2^5 has 27,808
@functools.lru_cache(maxsize=4)
def flags(p: int, n: int):
    """(subs, flags): the nonzero subspaces of F_p^n, as the int rows of
    the reduced echelon bases that all_subspaces lists, and every flag
    0 < F_1 < ... < F_k = F_p^n, as (step dims, indices of F_1 ... F_k).

    The lines are the first subspaces listed, and each subspace is held
    as the bitmask of its lines, so F_a lies in F_b iff masks[a] has no
    bit outside masks[b].  The subspaces are listed dimension ascending,
    so a subspace that holds another comes after it.
    """
    subs = [v.basis.rows for v in all_subspaces(GF(p), n)]
    line = {rows[0]: i for i, rows in enumerate(subs) if len(rows) == 1}
    # the lines of a subspace: its vectors with leading entry 1, each
    # some row plus a combination of the rows after it
    masks = []
    for rows in subs:
        mask = 0
        for i, head in enumerate(rows):
            vectors = [head]
            for row in rows[i + 1 :]:
                vectors = [tuple((x + t * y) % p for x, y in zip(v, row)) for v in vectors for t in range(p)]
            for v in vectors:
                mask |= 1 << line[v]
        masks.append(mask)
    above = [[b for b in range(a + 1, len(subs)) if not masks[a] & ~masks[b]] for a in range(len(subs))]
    found = []

    def extend(dims, flag):
        a = flag[-1]
        if len(subs[a]) == n:
            found.append((dims, flag))
        for b in above[a]:
            extend(dims + (len(subs[b]) - len(subs[a]),), flag + (b,))

    for a, rows in enumerate(subs):
        extend((len(rows),), (a,))
    return tuple(subs), tuple(found)


def flag_sweep(q, weight_bound: int = 3):
    """The minimum weight of q over every flag of F_p^n, with weights in
    [-weight_bound, weight_bound], on plain ints mod p.

    A flag's weight is max(a_i + a_j) over the i <= j where F_i and F_j
    pair nonzero, either way round, each j with only the first such i,
    so it depends only on the step dims and those pairs, and is scored
    once per such pattern.  The echelon rows of all bases are numbered,
    the rows of the wide bases (dim >= 2) first; meets[i] has bit j when
    row i pairs nonzero with row j, so subspaces a and b pair nonzero iff
    left[a] & right[b] or left[b] & right[a].  Every step of a flag after
    the first is wide, so the row of a line outside the wide bases is
    tested against the wide rows and itself only.  q = 0 gives minus
    infinity.
    """
    p, n = q.field.p, q.dim_h
    if n == 0:
        return MINUS_INFINITY
    forms = [b.num for b in q.forms]

    def images(u):
        return [tuple(sum(map(operator.mul, row, u)) % p for row in b) for b in forms]

    def kills(u, imgs):
        return all(sum(map(operator.mul, u, c)) % p == 0 for c in imgs)

    subs, found = flags(p, n)
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
        # strictly decreasing weights summing (weighted by dims) to zero,
        # the last solved for
        if len(dims) == 1:
            return [(0,)]
        out = []
        for head in itertools.combinations(descending, len(dims) - 1):
            last, rest = divmod(-sum(map(operator.mul, dims, head)), dims[-1])
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

    for dims, flag in found:
        pairs = []
        for j, b in enumerate(flag):
            for i, a in enumerate(flag[: j + 1]):
                if left[a] & right[b] or left[b] & right[a]:
                    pairs.append((i, j))
                    break
        pairs = tuple(pairs)
        if (dims, pairs) not in scores:
            scores[dims, pairs] = score(dims, pairs)
    return min(value for value in scores.values() if value is not None)


def all_combinations_invariants_match(q1, q2) -> bool:
    """The congruence invariants of two modules with every coefficient
    vector: the ranks of each form, of the stacked forms and of every
    nonzero combination sum c_k B_k, with c_k over all of F_p or in
    -2..2 over QQ, each rank by generic elimination."""
    field = q1.field

    def rank(rows):
        return generic_rref(Matrix(field, rows))[1]

    def combination(q, coeffs):
        n = q.dim_h
        out = [[field.zero] * n for _ in range(n)]
        for c, b in zip(coeffs, q.forms):
            for i in range(n):
                for j in range(n):
                    out[i][j] = add(field, out[i][j], mul(field, c, b.rows[i][j]))
        return out

    if rank([r for b in q1.forms for r in b.rows]) != rank([r for b in q2.forms for r in b.rows]):
        return False
    box = elements(field) if field.kind == "fp" else [field.from_int(c) for c in range(-2, 3)]
    for coeffs in itertools.product(box, repeat=q1.dim_w):
        if all(c == field.zero for c in coeffs):
            continue
        if rank(combination(q1, coeffs)) != rank(combination(q2, coeffs)):
            return False
    return True


def stacked_complement(inner, outer):
    """The complement of inner in outer by its definition: the outer
    basis vectors at the pivot columns past the inner ones, when the
    inner and then the outer basis vectors, taken as the columns of one
    matrix, are brought to echelon form by generic elimination."""
    field = inner.field
    stacked = inner.basis.rows + outer.basis.rows
    _, _, pivots = generic_rref(Matrix(field, [list(c) for c in zip(*stacked)]))
    return Subspace(field, inner.ambient, [stacked[c] for c in pivots[inner.dim :]])


def adapted_block_table(lam, q):
    """(i, j) -> whether block (i, j) of T^T B_k T vanishes for every k,
    T the matrix whose columns are the adapted basis of lam, piece after
    piece; each T^T B_k T is formed in full by ``generic_mul``."""
    field = q.field
    adapted = [row for sub, _ in lam.pieces for row in sub.basis.rows]
    tt = Matrix(field, adapted)
    t = Matrix(field, [list(c) for c in zip(*adapted)])
    tables = [generic_mul(Matrix(field, generic_mul(tt, b)), t) for b in q.forms]
    ranges, pos = [], 0
    for sub, _ in lam.pieces:
        ranges.append(range(pos, pos + sub.dim))
        pos += sub.dim
    return {
        (i, j): all(table[r][c] == field.zero for table in tables for r in rows for c in cols)
        for i, rows in enumerate(ranges)
        for j, cols in enumerate(ranges)
    }


def mu_by_full_table(lam, q):
    """max(a_i + a_j) over the nonzero blocks of ``adapted_block_table``,
    or None when every block vanishes."""
    weights = [wt for _, wt in lam.pieces]
    table = adapted_block_table(lam, q)
    sums = [weights[i] + weights[j] for (i, j), zero in table.items() if not zero]
    return max(sums) if sums else None


def orthogonal_group_order(n: int, q: int) -> int:
    """|O_n(q)| for the form I_n over F_q, q odd, from the closed forms
    (Taylor, The Geometry of the Classical Groups, 1992): with n = 2m + 1
    it is 2 q^(m^2) prod_{i=1..m} (q^(2i) - 1); with n = 2m it is
    2 q^(m(m-1)) (q^m - eps) prod_{i<m} (q^(2i) - 1), where eps = +1
    exactly when the discriminant (-1)^m of I_n is a square mod q."""
    m = n // 2
    if n % 2:
        return 2 * q ** (m * m) * math.prod(q ** (2 * i) - 1 for i in range(1, m + 1))
    eps = 1 if any(x * x % q == (-1) ** m % q for x in range(q)) else -1
    return 2 * q ** (m * (m - 1)) * (q**m - eps) * math.prod(q ** (2 * i) - 1 for i in range(1, m))


def symplectic_group_order(n: int, q: int) -> int:
    """|Sp_n(q)| = q^(m^2) prod_{i=1..m} (q^(2i) - 1) for n = 2m (Taylor,
    1992), for any nondegenerate alternating form over F_q."""
    m = n // 2
    return q ** (m * m) * math.prod(q ** (2 * i) - 1 for i in range(1, m + 1))


def _product(a, b, p: int):
    """a b mod p for square int row tuples."""
    columns = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in columns) for row in a)


def _rank(rows, p: int) -> int:
    """The rank of int rows mod p, by forward elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = pow(rows[rank][c], p - 2, p)
        for i in range(rank + 1, len(rows)):
            factor = rows[i][c] * scale
            rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def square_matrices(p: int, n: int):
    """Every n x n matrix over F_p, as int row tuples, in product order."""
    for entries in itertools.product(range(p), repeat=n * n):
        yield tuple(entries[i * n : (i + 1) * n] for i in range(n))


def general_linear_order(n: int, q: int) -> int:
    """|GL_n(q)| = prod_{i<n} (q^n - q^i) (Taylor, 1992)."""
    return math.prod(q**n - q**i for i in range(n))


def census_modules(p: int, n: int, swap: bool, sign: int) -> list:
    """Every module over F_p^n as its tuple of forms, in product order of
    the first form.  The symmetry relation B_l = sign sum_k S[l][k] B_k^T
    reads B_2 = sign B_1^T for the swap involution, so B_1 is free, and
    B = sign B^T for the trivial one."""
    modules = []
    for b in square_matrices(p, n):
        twisted = tuple(tuple(sign * x % p for x in column) for column in zip(*b))
        if swap:
            modules.append((b, twisted))
        elif b == twisted:
            modules.append((b,))
    return modules


class Orbit(NamedTuple):
    """A GL_n orbit: its first module, every member, and the number of g
    in GL_n that fix the first module."""

    representative: tuple
    members: frozenset
    stabilizer: int


def orbit_census(p: int, n: int, modules) -> list:
    """The GL_n orbits of ``modules`` under B_k -> g^T B_k g, each walked
    over all of GL_n from its first module in the given order."""
    group = [(tuple(zip(*g)), g) for g in square_matrices(p, n) if _rank(g, p) == n]
    if len(group) != general_linear_order(n, p):
        raise AssertionError("the invertible matrices miss the order of GL_n")
    left = set(modules)
    orbits = []
    for module in modules:
        if module not in left:
            continue
        members, stabilizer = set(), 0
        for gt, g in group:
            moved = tuple(_product(_product(gt, b, p), g, p) for b in module)
            members.add(moved)
            stabilizer += moved == module
        if not members <= left:
            raise AssertionError("an orbit meets a module outside the census or another orbit")
        left -= members
        orbits.append(Orbit(module, frozenset(members), stabilizer))
    return orbits


def burnside_orbit_count(p: int, n: int, swap: bool, sign: int) -> int:
    """The number of GL_n orbits of the modules of ``census_modules``, by
    Burnside's lemma: the average over g in GL_n of p^(dim Fix(g)), with
    Fix(g) the solutions of g^T B g = B on the module space.  That space
    is every n x n matrix B, the first form, for the swap involution, and
    the B with B = sign B^T for the trivial one.  Each Fix(g) is solved
    by elimination mod p on the n^2 entries of B; no module is listed."""
    cells = list(itertools.product(range(n), repeat=2))
    # B[i][j] - sign B[j][i] = 0, for the trivial involution
    relation = [[((k, l) == (i, j)) - sign * ((k, l) == (j, i)) for k, l in cells] for i, j in cells]
    total = 0
    for g in square_matrices(p, n):
        if _rank(g, p) < n:
            continue
        # entry (i, j) of g^T B g - B, as a row over the entries B[k][l]
        rows = [[g[k][i] * g[l][j] - ((k, l) == (i, j)) for k, l in cells] for i, j in cells]
        total += p ** (n * n - _rank(rows if swap else rows + relation, p))
    orbits, rest = divmod(total, general_linear_order(n, p))
    if rest:
        raise AssertionError("the fixed points do not average to a whole number of orbits")
    return orbits
