"""Exact linear algebra over the rationals and over prime fields.

All arithmetic in this package is exact.  Rational scalars are
``fractions.Fraction`` instances (arbitrary-precision), elements of F_p are
canonical integer representatives in ``range(p)``.  A field object bundles
the primitive operations so matrix and subspace code stays generic over
both kinds of scalar.

Subspaces are kept in a canonical form (reduced row echelon basis), which
makes equality of subspaces plain object equality and gives every
enumeration in the package a stable, reproducible order.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import BoundExceededError, FieldError, ParseError, ShapeError, SingularMatrixError


class RationalField:
    """The field of rational numbers, elements are ``Fraction``."""

    kind = "rational"
    characteristic = 0

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        # Fraction(1), not 1: a plain-int pivot would otherwise give a float
        return Fraction(1) / a

    def div(self, a, b):
        return a * self.inv(b)

    def is_element(self, a) -> bool:
        return isinstance(a, Fraction)

    def elements(self):
        raise FieldError("cannot enumerate an infinite field")

    def parse(self, s: str):
        if not _RATIONAL.fullmatch(s):
            raise ParseError(f"bad rational literal {s!r}")
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {s!r}") from exc

    def format(self, a) -> str:
        try:
            return str(a)
        except ValueError as exc:
            # str() refuses integers past the interpreter's digit limit
            raise BoundExceededError("a rational result has too many digits to print") from exc

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


# Miller-Rabin with the first 13 prime bases has no strong pseudoprime
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981

# a canonical decimal numeral: ASCII digits, no sign, no leading zero, and
# at most 25 digits, since every accepted p (so every F_p element) is below
# 10^25; int() never sees a numeral past its digit limit
_NUMERAL = re.compile("0|[1-9][0-9]{0,24}")

# a rational literal "a/b" or "a" in ASCII digits; Fraction() alone would
# also take exponents, decimals, spaces and underscores
_RATIONAL = re.compile("-?[0-9]+(/[0-9]+)?")


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below ``_MR_BOUND``."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p with canonical representatives 0..p-1 stored as plain ints."""

    kind = "fp"

    def __init__(self, p: int):
        if p >= _MR_BOUND:
            raise FieldError(f"F_p needs p < {_MR_BOUND}, where primality is certified")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_element(self, a) -> bool:
        return isinstance(a, int) and 0 <= a < self.p

    def elements(self):
        return list(range(self.p))

    def parse(self, s: str):
        if not _NUMERAL.fullmatch(s):
            raise ParseError(f"bad F_{self.p} literal {s!r}")
        n = int(s)
        if n >= self.p:
            raise ParseError(f"literal {s!r} is not a canonical F_{self.p} representative")
        return n

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_name(name: str):
    """Parse a field tag: ``rational`` or ``fp:<p>``."""
    if name == "rational":
        return QQ
    digits = name[3:] if name.startswith("fp:") else ""
    if not _NUMERAL.fullmatch(digits):
        raise ParseError(f"bad field tag {name!r}")
    try:
        return GF(int(digits))
    except FieldError as exc:
        raise ParseError(str(exc)) from exc


def field_name(field) -> str:
    if field.kind == "rational":
        return "rational"
    return f"fp:{field.p}"


def dot(field, u, v):
    # zero terms are skipped: forms and candidate vectors are mostly sparse
    zero = field.zero
    acc = zero
    for a, b in zip(u, v):
        if a != zero and b != zero:
            acc = field.add(acc, field.mul(a, b))
    return acc


class Matrix:
    """Immutable dense matrix over an exact field.

    Rows are tuples, so matrices hash and compare by value.  ``m[i]``
    returns the i-th row, ``m[i][j]`` an entry.
    """

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ShapeError("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", width)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_ints(cls, field, rows):
        return cls(field, [[field.from_int(e) for e in r] for r in rows])

    @classmethod
    def identity(cls, field, n: int):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def from_blocks(cls, grid):
        """Assemble a matrix from a 2D grid of blocks with matching dims."""
        if not grid or not grid[0]:
            raise ShapeError("empty block grid")
        field = grid[0][0].field
        out_rows = []
        for block_row in grid:
            height = block_row[0].nrows
            if any(b.nrows != height for b in block_row):
                raise ShapeError("block heights disagree")
            for i in range(height):
                row = []
                for b in block_row:
                    row.extend(b.rows[i])
                out_rows.append(row)
        widths = {len(r) for r in out_rows}
        if len(widths) > 1:
            raise ShapeError("block widths disagree")
        return cls(field, out_rows)

    # -- basics ---------------------------------------------------------

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format(e) for e in r) for r in self.rows)
        return f"Matrix[{body}]"

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(e == z for r in self.rows for e in r)

    def to_lists(self):
        return [list(r) for r in self.rows]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.rows)) if self.rows else [])

    def _check_same_field(self, other):
        if self.field != other.field:
            raise FieldError("mixed fields")

    def __add__(self, other):
        self._check_same_field(other)
        if self.shape != other.shape:
            raise ShapeError("shape mismatch in add")
        f = self.field
        return Matrix(
            f,
            [
                [f.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other):
        self._check_same_field(other)
        if self.shape != other.shape:
            raise ShapeError("shape mismatch in sub")
        f = self.field
        return Matrix(
            f,
            [
                [f.sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __neg__(self):
        f = self.field
        return Matrix(f, [[f.neg(a) for a in r] for r in self.rows])

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, [[f.mul(c, a) for a in r] for r in self.rows])

    def __matmul__(self, other):
        return self.mul(other)

    def mul(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero
        cols = other.transpose().rows
        out = []
        for r in self.rows:
            out_row = []
            for c in cols:
                acc = zero
                for a, b in zip(r, c):
                    if a != zero and b != zero:
                        acc = add(acc, mul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return Matrix(f, out)

    def mat_vec(self, v):
        if len(v) != self.ncols:
            raise ShapeError("vector length mismatch")
        return tuple(dot(self.field, r, v) for r in self.rows)

    def vec_mat(self, v):
        if len(v) != self.nrows:
            raise ShapeError("vector length mismatch")
        cols = self.transpose().rows
        return tuple(dot(self.field, v, c) for c in cols)

    def trace(self):
        if not self.is_square():
            raise ShapeError("trace of non-square matrix")
        f = self.field
        acc = f.zero
        for i in range(self.nrows):
            acc = f.add(acc, self.rows[i][i])
        return acc

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row echelon form.

        Returns ``(echelon, rank, pivots)`` where ``pivots`` is the tuple
        of pivot column indices.  Zero rows are kept (at the bottom) so the
        result has the same shape as the input.
        """
        f = self.field
        m = [list(r) for r in self.rows]
        nrows, ncols = self.nrows, self.ncols
        pivots = []
        r = 0
        for c in range(ncols):
            pivot_row = None
            for i in range(r, nrows):
                if m[i][c] != f.zero:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            scale = f.inv(m[r][c])
            m[r] = [f.mul(scale, e) for e in m[r]]
            for i in range(nrows):
                if i != r and m[i][c] != f.zero:
                    factor = m[i][c]
                    m[i] = [f.sub(a, f.mul(factor, b)) for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return Matrix(f, m), r, tuple(pivots)

    def rank(self) -> int:
        return self.rref()[1]

    def kernel_basis(self) -> "Matrix":
        """Canonical basis of the right kernel {v : M v = 0}, as rows."""
        f = self.field
        echelon, rank, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        vectors = []
        for fc in free:
            v = [f.zero] * self.ncols
            v[fc] = f.one
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(echelon.rows[r][fc])
            vectors.append(v)
        if not vectors:
            return Matrix(f, [])
        reduced, k, _ = Matrix(f, vectors).rref()
        return Matrix(f, reduced.rows[:k])

    def det(self):
        if not self.is_square():
            raise ShapeError("determinant of non-square matrix")
        f = self.field
        n = self.nrows
        m = [list(r) for r in self.rows]
        result = f.one
        for c in range(n):
            pivot_row = None
            for i in range(c, n):
                if m[i][c] != f.zero:
                    pivot_row = i
                    break
            if pivot_row is None:
                return f.zero
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                result = f.neg(result)
            result = f.mul(result, m[c][c])
            inv_pivot = f.inv(m[c][c])
            for i in range(c + 1, n):
                if m[i][c] != f.zero:
                    factor = f.mul(m[i][c], inv_pivot)
                    m[i] = [f.sub(a, f.mul(factor, b)) for a, b in zip(m[i], m[c])]
        return result

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ShapeError("inverse of non-square matrix")
        f = self.field
        n = self.nrows
        augmented = Matrix(
            f,
            [
                list(self.rows[i]) + [f.one if j == i else f.zero for j in range(n)]
                for i in range(n)
            ],
        )
        echelon, _, pivots = augmented.rref()
        if pivots[:n] != tuple(range(n)):
            raise SingularMatrixError("matrix is singular")
        return Matrix(f, [r[n:] for r in echelon.rows])


class Subspace:
    """A linear subspace of F^n stored by its reduced row echelon basis.

    The canonical basis makes equality of ``Subspace`` objects equality of
    the subspaces themselves, and induces the package-wide deterministic
    ordering ``sort_key``: dimension first, then pivot columns, then the
    flattened basis entries.
    """

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field, ambient: int, vectors):
        m = Matrix(field, [list(v) for v in vectors])
        if m.nrows and m.ncols != ambient:
            raise ShapeError("vector length != ambient dimension")
        if m.nrows:
            echelon, rank, pivots = m.rref()
            basis = Matrix(field, echelon.rows[:rank])
        else:
            basis, pivots = Matrix(field, []), ()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _from_echelon(cls, field, ambient: int, rows, pivots):
        # trusted internal path: rows are a reduced echelon basis with these pivots
        v = object.__new__(cls)
        object.__setattr__(v, "field", field)
        object.__setattr__(v, "ambient", ambient)
        object.__setattr__(v, "basis", Matrix(field, rows))
        object.__setattr__(v, "pivots", tuple(pivots))
        return v

    @classmethod
    def zero(cls, field, ambient: int):
        return cls(field, ambient, [])

    @classmethod
    def full(cls, field, ambient: int):
        return cls(field, ambient, Matrix.identity(field, ambient).rows)

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def is_zero(self) -> bool:
        return self.dim == 0

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient})"

    def sort_key(self):
        return (self.dim, self.pivots, self.basis.rows)

    def contains_vector(self, v) -> bool:
        if len(v) != self.ambient:
            raise ShapeError("vector length != ambient dimension")
        f = self.field
        v = list(v)
        for row, pc in zip(self.basis.rows, self.pivots):
            coeff = v[pc]
            if coeff != f.zero:
                v = [f.sub(a, f.mul(coeff, b)) for a, b in zip(v, row)]
        return all(e == f.zero for e in v)

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.basis.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace(
            self.field, self.ambient, list(self.basis.rows) + list(other.basis.rows)
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return self.perp().sum(other.perp()).perp()

    def perp(self) -> "Subspace":
        """Orthogonal complement under the standard dot product."""
        if self.dim == 0:
            return Subspace.full(self.field, self.ambient)
        ker = self.basis.kernel_basis()
        return Subspace(self.field, self.ambient, ker.rows)

    def apply(self, g: Matrix) -> "Subspace":
        """Image of this subspace under the invertible map ``v -> g v``."""
        if g.shape != (self.ambient, self.ambient):
            raise ShapeError("map shape != ambient dimension")
        image = self.basis.mul(g.transpose())
        return Subspace(self.field, self.ambient, image.rows)

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field or self.ambient != other.ambient:
            raise FieldError("subspaces live in different ambient spaces")


def complement_in(inner: Subspace, outer: Subspace) -> Subspace:
    """A deterministic complement of ``inner`` inside ``outer``.

    Extends the inner basis greedily with the vectors of the canonical
    outer basis in index order (for the full ambient space those are the
    standard basis vectors), keeping the ones that grow the span.  The
    kept vectors span the complement.  Each vector is reduced against
    one growing echelon basis: a row per kept vector, monic at its pivot
    and zero at the pivots of the rows before it, so a vector grows the
    span exactly when it does not reduce to zero.
    """
    if not outer.contains(inner):
        raise ValueError("inner is not contained in outer")
    f = inner.field
    zero = f.zero
    # inner's basis is reduced echelon, so it starts the echelon basis as it is
    echelon = list(zip(inner.pivots, inner.basis.rows))
    added = []
    for candidate in outer.basis.rows:
        if len(echelon) == outer.dim:
            break
        v = list(candidate)
        # in the order the rows were added, which keeps each cleared pivot at zero
        for c, row in echelon:
            a = v[c]
            if a != zero:
                v = [f.sub(x, f.mul(a, y)) for x, y in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x != zero), None)
        if lead is not None:
            inv = f.inv(v[lead])
            echelon.append((lead, [f.mul(x, inv) for x in v]))
            added.append(candidate)
    return Subspace(f, inner.ambient, added)


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of equal-length rows of ints in ``range(p)``, or
    over QQ of rows of any ints when ``p`` is 0.

    Plain-int elimination for hot loops: each row operation clears one
    column with a single ``% p`` per entry and needs no inverse, because
    scaling a row by the nonzero pivot keeps the rank.  Over QQ it is
    fraction-free Bareiss elimination (Math. Comp. 22, 1968): each
    entry is divided exactly by the previous pivot, so entries stay
    minors of the input instead of growing with every step.
    """
    rows = [list(r) for r in rows]
    rank, previous = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        a = top[c]
        for i in range(rank + 1, len(rows)):
            b = rows[i][c]
            if p:
                if b:
                    rows[i] = [(a * x - b * y) % p for x, y in zip(rows[i], top)]
            else:
                rows[i] = [(a * x - b * y) // previous for x, y in zip(rows[i], top)]
        previous = a
        rank += 1
        if rank == len(rows):
            break
    return rank

