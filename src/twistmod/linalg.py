"""Exact linear algebra over the rationals and over prime fields.

All arithmetic in this package is exact.  A ``Matrix`` holds plain-int
rows ``num`` over one denominator ``den``, in canonical form: over F_p
residues in ``range(p)`` over 1, over QQ a positive ``den`` with gcd 1
with the entries, so equal matrices have equal ``num`` and ``den``.
Every kernel runs on ``num``.  Over F_p each entry of a row operation
takes one ``% p`` and the reduced echelon form inverts its pivots by
``pow(a, -1, p)``.  Over QQ a product is the int product over the
product of the denominators, elimination is fraction-free (Bareiss,
Math. Comp. 22, 1968, where every update divides exactly by the previous
pivot), and each result costs one gcd.  A span, a null space or a rank
does not depend on the scale of a row, so it is read off ``num`` alone.

A rational crosses the public API as a ``Fraction``, built on demand by
``Matrix.rows``, ``det``, ``trace`` and ``QQ.parse``; ``fractions``, which
imports ``decimal``, is loaded only then.  The public ``Matrix`` and
``Subspace`` constructors are the boundary: an int entry is taken
through ``field.from_int``, a ``Fraction`` is accepted over QQ only, and
anything else raises ``FieldError``; the scalar and vector arguments of
public methods cross the same rule, ``_ratio``.  Internal results are
built by the trusted ``Matrix._from_rows`` and ``Subspace._from_echelon``.

Subspaces are kept in a canonical form (reduced row echelon basis), which
makes equality of subspaces plain object equality and gives every
enumeration in the package a stable, reproducible order.

The planes that _plane builds are read here alone, by two readers.
_zeros is the one solver of the isotropic search of stability, in both
of its fields: mod p it solves a plane in one pass, and over ZZ it
solves each prefix by an integer root and keeps the roots, so no box
is passed over.  _run turns a plane and an x into the quadratic runs
Q_k(u + t e_last), off which the Gram walk of isometries reads its
diagonals.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from operator import add as _plus, mul as _times, sub as _minus

from .errors import BoundExceededError, FieldError, ParseError, ShapeError, SingularMatrixError


def _fraction(n: int, d: int = 1):
    # the one way to a Fraction: fractions is imported here, on first need
    from fractions import Fraction

    return Fraction(n, d)


class RationalField:
    """The field of rational numbers; its elements cross the API as ``Fraction``."""

    kind = "rational"
    characteristic = 0

    @property
    def zero(self):
        return _fraction(0)

    @property
    def one(self):
        return _fraction(1)

    def from_int(self, n: int):
        return _fraction(n)

    def parse(self, s: str):
        return _fraction(*self._parse(s))

    def format(self, a) -> str:
        return self._format(a.numerator, a.denominator)

    def _parse(self, s: str):
        # (n, d), d > 0, for "a/b" or "a"; int() refuses a numeral past its digit limit
        n, _, d = s.partition("/")
        try:
            if _RATIONAL.fullmatch(s) and int(d or 1):
                return int(n), int(d or 1)
        except ValueError:
            pass
        raise ParseError(f"bad rational literal {s!r}")

    def _format(self, n: int, d: int) -> str:
        # n / d, d > 0, written as str(Fraction(n, d)) writes it
        g = math.gcd(n, d)
        try:
            return str(n // g) if d == g else f"{n // g}/{d // g}"
        except ValueError as exc:
            # str() refuses integers past the interpreter's digit limit
            raise BoundExceededError("a rational result has too many digits to print") from exc

    def _value(self, n: int, d: int):
        # the element n / d, d > 0
        return _fraction(n, d)

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

# a rational literal "a/b" or "a" in ASCII digits; int() alone would also
# take a plus sign, spaces, underscores and non-ASCII digits
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

    def parse(self, s: str):
        if not _NUMERAL.fullmatch(s):
            raise ParseError(f"bad F_{self.p} literal {s!r}")
        n = int(s)
        if n >= self.p:
            raise ParseError(f"literal {s!r} is not a canonical F_{self.p} representative")
        return n

    def format(self, a) -> str:
        return str(a)

    # the pair forms of parse, format and element n / d that QQ has
    def _parse(self, s: str):
        return self.parse(s), 1

    def _format(self, n: int, d: int) -> str:
        return str(n)

    def _value(self, n: int, d: int):
        return n % self.p  # every denominator over F_p is 1

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    # before the cache lookup: 5.0 and True are equal keys to 5 and 1
    if not isinstance(p, int) or isinstance(p, bool):
        raise FieldError(f"F_p needs an int p, not {p!r}")
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


def _ratio(field, a):
    """(n, d), d > 0, for a scalar crossing the public boundary: an int,
    not a bool, through from_int, a Fraction over QQ only, tested without
    importing fractions, since none exists before it is; FieldError else."""
    if isinstance(a, int) and not isinstance(a, bool):
        return (a % field.characteristic if field.characteristic else int(a)), 1
    fractions = sys.modules.get("fractions")
    if not field.characteristic and fractions and isinstance(a, fractions.Fraction):
        return a.numerator, a.denominator
    raise FieldError(f"{a!r} is not an int or an element of {field!r}")


def _over_lcm(rows):
    # (num, den): rows of pairs (n, d), d > 0, over the lcm of the d
    den = math.lcm(*(d for r in rows for _, d in r))
    return tuple(tuple(n * (den // d) for n, d in r) for r in rows), den


def _num_at(m, den: int):
    # the int rows of m over den, a multiple of m.den
    k = den // m.den
    return m.num if k == 1 else tuple(tuple(x * k for x in r) for r in m.num)


def _common(mats):
    # (den, rows): the int rows of each matrix over den, the lcm of theirs
    den = math.lcm(*(m.den for m in mats))
    return den, [_num_at(m, den) for m in mats]


def _fill_matrix(m, field, num, den, ncols):
    # Matrix and Subspace are immutable: their slots are set once, here and
    # below, through their slot descriptors, which cost less than
    # object.__setattr__ on the path every internal result takes
    _set_field(m, field)
    _set_num(m, num)
    _set_den(m, den)
    _set_nrows(m, len(num))
    _set_ncols(m, ncols)


def _fill_subspace(v, field, ambient, basis, pivots):
    _set_space_field(v, field)
    _set_ambient(v, ambient)
    _set_basis(v, basis)
    _set_pivots(v, pivots)


class Matrix:
    """Immutable dense matrix over an exact field, the int rows ``num``
    over ``den`` (see the module docstring).

    ``rows`` are the rows as tuples of field elements, ``m[i]`` the i-th
    of them, ``m[i][j]`` an entry.  Matrices hash and compare by value.
    A matrix without rows still has its ``ncols``.
    """

    __slots__ = ("field", "num", "den", "nrows", "ncols")

    def __init__(self, field, rows):
        rows = [[_ratio(field, e) for e in r] for r in rows]
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged rows")
        # a Fraction is in lowest terms, so no gcd is needed
        _fill_matrix(self, field, *_over_lcm(rows), width)

    @classmethod
    def _from_rows(cls, field, num, ncols: int, den: int = 1):
        # trusted internal path: num is a tuple of ncols-tuples of ints,
        # residues over F_p with den 1; over QQ num / den for any den != 0,
        # brought to canonical form by one gcd
        m = object.__new__(cls)
        if den != 1:
            g = math.gcd(den, *itertools.chain.from_iterable(num)) * (-1 if den < 0 else 1)
            if g != 1:
                num, den = tuple(tuple(x // g for x in r) for r in num), den // g
        _fill_matrix(m, field, num, den, ncols)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def rows(self):
        return self[:]

    @classmethod
    def identity(cls, field, n: int):
        rows = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return cls._from_rows(field, rows, n)

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int):
        return cls._from_rows(field, ((0,) * ncols,) * nrows, ncols)

    @classmethod
    def from_blocks(cls, grid):
        """Assemble a matrix from a 2D grid of blocks with matching dims."""
        if not grid or not grid[0]:
            raise ShapeError("empty block grid")
        width = sum(b.ncols for b in grid[0])
        den = math.lcm(*(b.den for block_row in grid for b in block_row))
        rows = []
        for block_row in grid:
            if any(b.nrows != block_row[0].nrows for b in block_row):
                raise ShapeError("block heights disagree")
            if sum(b.ncols for b in block_row) != width:
                raise ShapeError("block widths disagree")
            parts = [_num_at(b, den) for b in block_row]
            rows.extend(parts[0] if len(parts) == 1 else (sum(r, ()) for r in zip(*parts)))
        return cls._from_rows(grid[0][0].field, tuple(rows), width, den)

    # -- basics ---------------------------------------------------------

    def __getitem__(self, i):
        # over QQ the Fractions of the rows asked for only
        num, d = self.num[i], self.den
        if self.field.characteristic:
            return num
        if isinstance(i, slice):
            return tuple(tuple(_fraction(x, d) for x in r) for r in num)
        return tuple(_fraction(x, d) for x in num)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        # equal matrices have equal int rows; __eq__ tells the fields apart
        return hash(self.num)

    def __repr__(self):
        fmt, d = self.field._format, self.den
        body = "; ".join(" ".join(fmt(x, d) for x in r) for r in self.num)
        return f"Matrix[{body}]"

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.num)

    def transpose(self) -> "Matrix":
        rows = tuple(zip(*self.num)) if self.num else ((),) * self.ncols
        return Matrix._from_rows(self.field, rows, self.nrows, self.den)

    def _entrywise(self, other, op, what: str) -> "Matrix":
        if self.field != other.field:
            raise FieldError("mixed fields")
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch in {what}")
        p = self.field.characteristic
        if p:
            pairs = zip(self.num, other.num)
            rows = tuple([tuple([x % p for x in map(op, ra, rb)]) for ra, rb in pairs])
            return Matrix._from_rows(self.field, rows, self.ncols)
        den, (left, right) = _common((self, other))
        rows = tuple([tuple(map(op, ra, rb)) for ra, rb in zip(left, right)])
        return Matrix._from_rows(self.field, rows, self.ncols, den)

    def __add__(self, other):
        return self._entrywise(other, _plus, "add")

    def __sub__(self, other):
        return self._entrywise(other, _minus, "sub")

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c, d = _ratio(self.field, c)
        p = self.field.characteristic
        rows = tuple(tuple(c * a % p if p else c * a for a in r) for r in self.num)
        return Matrix._from_rows(self.field, rows, self.ncols, d * self.den)

    def mul(self, other: "Matrix") -> "Matrix":
        """The product of the int rows, one ``% p`` per entry over F_p;
        over QQ over the product of the two denominators."""
        if self.field != other.field:
            raise FieldError("mixed fields")
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        p = self.field.characteristic
        cols = tuple(zip(*other.num)) if other.num else ((),) * other.ncols
        if p:
            rows = tuple([tuple([sum(map(_times, r, c)) % p for c in cols]) for r in self.num])
        else:
            rows = tuple([tuple([sum(map(_times, r, c)) for c in cols]) for r in self.num])
        return Matrix._from_rows(self.field, rows, other.ncols, self.den * other.den)

    __matmul__ = mul

    def mat_vec(self, v):
        if len(v) != self.ncols:
            raise ShapeError("vector length mismatch")
        v, value = Matrix(self.field, [v]), self.field._value
        return tuple(value(sum(map(_times, r, v.num[0])), v.den * self.den) for r in self.num)

    def trace(self):
        if not self.is_square():
            raise ShapeError("trace of non-square matrix")
        return self.field._value(sum(r[i] for i, r in enumerate(self.num)), self.den)

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row echelon form.

        Returns ``(echelon, rank, pivots)`` where ``pivots`` is the tuple
        of pivot column indices.  Zero rows are kept (at the bottom) so the
        result has the same shape as the input.
        """
        rows = list(self.num)
        pivots, d = _gauss_jordan(rows, self.ncols, self.field.characteristic)
        echelon = Matrix._from_rows(self.field, tuple(map(tuple, rows)), self.ncols, d)
        return echelon, len(pivots), tuple(pivots)

    def rank(self) -> int:
        return rank_mod_p(self.num, self.field.characteristic)

    def kernel_basis(self) -> "Matrix":
        """Canonical basis of the right kernel {v : M v = 0}, as rows."""
        rows, _, den, _ = _null_space(self.field, list(self.num), self.ncols)
        return Matrix._from_rows(self.field, rows, self.ncols, den)

    def det(self):
        """det(num) / den^n, from the forward pass that gives the rank."""
        if not self.is_square():
            raise ShapeError("determinant of non-square matrix")
        return self.field._value(_det(self.num, self.field.characteristic), self.den**self.nrows)

    def inverse(self) -> "Matrix":
        # (num / den)^-1 is the right half of the reduced echelon form of [num | den I]
        if not self.is_square():
            raise ShapeError("inverse of non-square matrix")
        field, n, den = self.field, self.nrows, self.den
        augmented = [[*r, *(den * (j == i) for j in range(n))] for i, r in enumerate(self.num)]
        pivots, d = _gauss_jordan(augmented, 2 * n, field.characteristic)
        if pivots[:n] != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return Matrix._from_rows(field, tuple(tuple(r[n:]) for r in augmented), n, d)


_set_field, _set_num, _set_den, _set_nrows, _set_ncols = (
    getattr(Matrix, name).__set__ for name in ("field", "num", "den", "nrows", "ncols")
)


def _det(rows, p: int) -> int:
    """The determinant of square int rows: mod p, or over ZZ when p is 0."""
    rank, d, scale = _forward(rows, p)
    if rank < len(rows):
        return 0
    return d * pow(scale, -1, p) % p if p else d


def _gauss_jordan(rows, ncols: int, p: int):
    """Bring plain-int rows to reduced echelon form in place; returns the
    pivot columns and a divisor d.

    Over F_p (p > 0) the pivot row is scaled by pow(a, -1, p) and every
    other row cleared with one ``% p`` per entry, so d = 1.  Over QQ
    (p == 0) it is fraction-free Gauss-Jordan: a pivot a clears its
    column in every other row by (a x - b y) // d, d the previous pivot,
    an exact division since every entry stays a minor of the input.  All
    pivot entries end equal to the last pivot d, and the reduced echelon
    form is rows / d.
    """
    pivots = []
    d = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        top = rows[r]
        a = top[c]
        if p:
            inv = pow(a, -1, p)
            top = rows[r] = [x * inv % p for x in top]
            for k, row in enumerate(rows):
                b = row[c]
                if b and k != r:
                    rows[k] = [(x - b * y) % p for x, y in zip(row, top)]
        else:
            for k, row in enumerate(rows):
                b = row[c]
                if k != r and (b or a != d):
                    rows[k] = [(a * x - b * y) // d for x, y in zip(row, top)]
            d = a
        pivots.append(c)
    return pivots, d


def _null_space(field, rows, ncols: int):
    """(rows, pivots, den, kept): the canonical basis of {v : M v = 0},
    rows over den with pivot columns pivots, for M given as plain-int
    rows, each on any scale, and ``kept`` the pivot columns of M's
    elimination.

    The basis vector of a free column f is e_f plus entries at pivot
    columns of M before f, so f is its last nonzero entry; the free
    columns are the trailing pivots of the null space, and the unit rows
    e_j, j in ``kept``, span the complement that _complement reads off
    the null space."""
    p = field.characteristic
    pivots, d = _gauss_jordan(rows, ncols, p)
    vectors = []
    for f in range(ncols):
        if f not in pivots:
            v = [0] * ncols
            v[f] = d
            for row, c in zip(rows, pivots):
                v[c] = -row[f] % p if p else -row[f]
            vectors.append(v)
    kernel_pivots, kd = _gauss_jordan(vectors, ncols, p)
    return tuple(map(tuple, vectors)), tuple(kernel_pivots), kd, tuple(pivots)


class Subspace:
    """A linear subspace of F^n stored by its reduced row echelon basis.

    The canonical basis makes equality of ``Subspace`` objects equality of
    the subspaces themselves, and induces the package-wide deterministic
    ordering ``sort_key``: dimension first, then pivot columns, then the
    flattened basis entries.
    """

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field, ambient: int, vectors):
        m = Matrix(field, vectors)
        if m.nrows and m.ncols != ambient:
            raise ShapeError("vector length != ambient dimension")
        v = Subspace._span(field, ambient, m.num)
        _fill_subspace(self, field, ambient, v.basis, v.pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _from_echelon(cls, field, ambient: int, rows, pivots, den: int = 1):
        # trusted internal path: rows / den, int rows as Matrix._from_rows
        # takes them, is a reduced echelon basis with pivot columns pivots
        v = object.__new__(cls)
        _fill_subspace(v, field, ambient, Matrix._from_rows(field, rows, ambient, den), pivots)
        return v

    @classmethod
    def _span(cls, field, ambient: int, rows):
        # trusted internal path: the span of int rows, each on any scale
        rows = list(rows)
        pivots, d = _gauss_jordan(rows, ambient, field.characteristic)
        basis = tuple(map(tuple, rows[: len(pivots)]))
        return cls._from_echelon(field, ambient, basis, tuple(pivots), d)

    @classmethod
    def zero(cls, field, ambient: int):
        return cls._from_echelon(field, ambient, (), ())

    @classmethod
    def full(cls, field, ambient: int):
        identity = Matrix.identity(field, ambient).num
        return cls._from_echelon(field, ambient, identity, tuple(range(ambient)))

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
        return self._contains_rows(Matrix(self.field, [v]).num)

    def contains(self, other: "Subspace") -> bool:
        """Whether other lies in this subspace; FieldError, as for sum and
        intersect, when the two live in different spaces."""
        self._check_compatible(other)
        return other.dim <= self.dim and self._contains_rows(other.basis.num)

    def _contains_rows(self, rows) -> bool:
        """Whether every int row v, on any scale, is the combination of
        the basis rows num / den with its entries at the pivots as
        coefficients, den v = v|pivots num; only the entries off the
        pivots can differ, so only they are compared."""
        p = self.field.characteristic
        pivots, den = self.pivots, self.basis.den
        free = [
            (c, column)
            for c, column in enumerate(zip(*self.basis.num) if pivots else ((),) * self.ambient)
            if c not in pivots
        ]
        for v in rows:
            coeffs = [v[c] for c in pivots]
            for c, column in free:
                rest = den * v[c] - sum(map(_times, coeffs, column))
                if rest % p if p else rest:
                    return False
        return True

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace._span(self.field, self.ambient, self.basis.num + other.basis.num)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return self.perp().sum(other.perp()).perp()

    def perp(self) -> "Subspace":
        """Orthogonal complement under the standard dot product."""
        rows, pivots, den, _ = _null_space(self.field, list(self.basis.num), self.ambient)
        return Subspace._from_echelon(self.field, self.ambient, rows, pivots, den)

    def apply(self, g: Matrix) -> "Subspace":
        """Image of this subspace under the invertible map ``v -> g v``."""
        if g.shape != (self.ambient, self.ambient):
            raise ShapeError("map shape != ambient dimension")
        image = self.basis.mul(g.transpose())
        return Subspace._span(self.field, self.ambient, image.num)

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field or self.ambient != other.ambient:
            raise FieldError("subspaces live in different ambient spaces")


_set_space_field, _set_ambient, _set_basis, _set_pivots = (
    getattr(Subspace, name).__set__ for name in ("field", "ambient", "basis", "pivots")
)


def complement_in(inner: Subspace, outer: Subspace) -> Subspace:
    """A deterministic complement of ``inner`` inside ``outer``.

    Extends the inner basis greedily with the vectors of the canonical
    outer basis in index order (for the full ambient space those are the
    standard basis vectors), keeping each one that grows the rank of the
    vectors kept so far; the kept vectors span the complement.  They are
    the pivot columns past the inner ones when all the vectors, taken as
    columns, are brought to echelon form.

    This public entry trusts neither argument: it raises FieldError
    when they live in different spaces and ValueError when outer does
    not contain inner.  ``_complement`` computes the complement and
    trusts that containment.
    """
    if not outer.contains(inner):
        raise ValueError("inner is not contained in outer")
    return _complement(inner, outer)


def _complement(inner: Subspace, outer: Subspace | None = None) -> Subspace:
    """complement_in(inner, outer) for an inner known to lie in outer;
    outer None is the whole ambient space, whose canonical basis is the
    standard one and is not built.

    The outer basis is in reduced echelon form, so a vector of outer has
    its entries at the outer pivots as coordinates.  Outer basis vector
    b_j is kept exactly when no vector of inner has its last nonzero
    coordinate at j, so the complement is read off the pivots of inner's
    coordinate rows reversed, in one elimination; the kept rows of a
    reduced echelon basis are one themselves.
    """
    field, n = inner.field, inner.ambient
    pivots = range(n) if outer is None else outer.pivots
    m = len(pivots)
    coords = [tuple(r[c] for c in pivots)[::-1] for r in inner.basis.num]
    trailing, _ = _gauss_jordan(coords, m, field.characteristic)
    kept = sorted(set(range(m)).difference(m - 1 - c for c in trailing))
    if outer is None:
        return _units(field, n, kept)
    rows = tuple(outer.basis.num[j] for j in kept)
    return Subspace._from_echelon(field, n, rows, tuple(pivots[j] for j in kept), outer.basis.den)


def _units(field, n: int, columns) -> Subspace:
    """The span of the unit rows e_j of F^n, j in the ascending
    ``columns``: a reduced echelon basis as it stands."""
    rows = tuple(tuple(int(i == j) for i in range(n)) for j in columns)
    return Subspace._from_echelon(field, n, rows, tuple(columns))


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of equal-length rows of ints in ``range(p)``, or
    over QQ of rows of any ints when ``p`` is 0."""
    return _forward(rows, p)[0]


def _forward(rows, p: int):
    """Forward elimination of the rows that ``rank_mod_p`` takes:
    returns (rank, d, scale), where d / scale is the determinant of
    square rows of full rank.

    Over F_p each row operation clears one column with a single ``% p``
    per entry and needs no inverse, because scaling a row by the
    nonzero pivot keeps the rank; rows with a zero in the column are
    left alone.  d is the signed product of the pivots and scale the
    product of the row scalings.  Over QQ it is fraction-free Bareiss
    elimination (Math. Comp. 22, 1968): each entry is divided exactly
    by the previous pivot, so entries stay minors of the input, d is
    the signed last pivot and scale is 1.
    """
    rows = list(rows)
    n = len(rows)
    rank, d, sign, scale = 0, 1, 1, 1
    for c in range(len(rows[0]) if rows else 0):
        for pivot in range(rank, n):
            if rows[pivot][c]:
                break
        else:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        top = rows[rank]
        a = top[c]
        for i in range(rank + 1, n):
            b = rows[i][c]
            if p:
                if b:
                    rows[i] = [(a * x - b * y) % p for x, y in zip(rows[i], top)]
                    scale = scale * a % p
            else:
                rows[i] = [(a * x - b * y) // d for x, y in zip(rows[i], top)]
        # over QQ d is the previous pivot that the next step divides by
        d = d * a % p if p else a
        rank += 1
        if rank == n:
            break
    return rank, sign * d, scale


def _plane(columns, w, j: int):
    """The forms on the plane w + x e_j + t e_last, as (entries, forms)
    with one item per form in each, for a prefix ``w`` that is 0 at j and
    at last, under the forms whose column tuples ``columns`` holds: over
    the ints, forms holds (a, beta, gamma, b, delta, c) with

        Q_k(w + x e_j + t e_last)
            = a + x (beta + x gamma) + t (b + x delta) + t^2 c,

    with a = w . B_k w, beta = (B_k w)_j + w . B_k e_j, gamma = B_k[j][j],
    b = (B_k w)_last + w . B_k e_last, delta = B_k[last][j] + B_k[j][last]
    and c = B_k[last][last], and entries zips the rows B_k w, B_k e_j
    and B_k e_last.  The row B_k w is summed from the columns of B_k at
    the nonzero entries of w, and the rest is read off it and the
    columns, so no symmetry of the forms is assumed.  j is last - 1, or
    last on F^1, which has no e_(last-1), and x is then held at 0."""
    last = len(w) - 1
    entries, forms = [], []
    for cols in columns:
        row = [0] * len(w)
        for i, x in enumerate(w):
            if x:
                row = [r + x * y for r, y in zip(row, cols[i])]
        col, tail = cols[j], cols[last]
        a, beta = sum(map(_times, w, row)), row[j] + sum(map(_times, w, col))
        b, delta = row[last] + sum(map(_times, w, tail)), col[last] + tail[j]
        entries.append(list(zip(row, col, tail)))
        forms.append((a, beta, col[j], b, delta, tail[last]))
    return entries, forms


def _run(plane, x):
    """The runs of the line u + t e_last of ``plane``, u = w + x e_j:
    one (a_k, b_k, c_k) per form, over the ints, with
    Q_k(u + t e_last) = a_k + t (b_k + t c_k).  A plane is read here and
    in _zeros alone."""
    # a loop: a comprehension's own call would cost more than the run of one
    # or two forms
    run = []
    for a, beta, gamma, b, delta, c in plane[1]:
        run.append((a + x * (beta + x * gamma), b + x * delta, c))
    return run


def _zeros(plane, roots: dict, w, xs, box, p: int) -> list:
    """The isotropic points of ``plane``, the linalg._plane of ``w``,
    j = last - 1, over ``xs`` x ``box``: one (u, images) per
    u = w + x e_j + t e_last where every Q_k vanishes, mod the prime p or
    over ZZ when p is 0, in product order, with images the rows
    B_k u = r + x y + t z over the plane's entries (r, y, z), mod p over
    F_p.

    Mod p the plane is solved in one pass: forms whose six coefficients
    all vanish mod p keep every point and are passed over, the first
    other form is tried at every point, with no division, so
    characteristic 2 is no exception, and the rest only filter its
    zeros.  Over ZZ each x is solved on its own: the first of its runs
    a_k + t (b_k + t c_k) that is not zero gives at most two roots t, by
    an integer square root of its discriminant or by one exact division,
    and the others only filter them, so a huge box costs no pass.
    ``roots`` keeps, per x, those roots (None when every t is one) and
    the line of each t read so far, for every later box and prime."""
    entries, forms = plane
    if p:
        forms = [form for form in forms if any(v % p for v in form)]
        if forms:
            a, beta, gamma, b, delta, c = forms[0]
            points = [
                (x, t)
                for x in xs
                for ax in [a + x * (beta + x * gamma)]
                for bx in [b + x * delta]
                for t in box
                if not (ax + t * (bx + t * c)) % p
            ]
            for a, beta, gamma, b, delta, c in forms[1:]:
                points = [
                    (x, t) for x, t in points if not (a + x * (beta + x * gamma) + t * (b + x * delta + t * c)) % p
                ]
        else:
            points = [(x, t) for x in xs for t in box]
        if not points:
            return points
        head = w[:-2]
        return [
            (head + (x, t), [tuple([(r + x * y + t * z) % p for r, y, z in e]) for e in entries])
            for x, t in points
        ]
    head, zeros = w[:-2], []
    for x in xs:
        if x not in roots:
            ts = None
            # the run of x, read off the plane as _run reads it, with no list
            for a, beta, gamma, b, delta, c in forms:
                a, b = a + x * (beta + x * gamma), b + x * delta
                if ts is not None:
                    ts = [t for t in ts if not a + t * (b + t * c)]
                elif not (a or b or c):
                    continue
                elif c:
                    disc = b * b - 4 * a * c
                    root = math.isqrt(disc) if disc >= 0 else -1
                    pairs = (divmod(-b - root, 2 * c), divmod(-b + root, 2 * c))
                    ts = sorted({t for t, rest in pairs if not rest}) if root * root == disc else []
                elif b:
                    t, rest = divmod(-a, b)
                    ts = [] if rest else [t]
                else:
                    ts = []
                if not ts:
                    break
            roots[x] = ts, {}
        ts, lines = roots[x]
        for t in box if ts is None else ts:
            if t in box:
                line = lines.get(t)
                if line is None:
                    line = lines[t] = head + (x, t), [tuple([r + x * y + t * z for r, y, z in e]) for e in entries]
                zeros.append(line)
    return zeros


def _gram_candidates(mats, values, p: int) -> list:
    """(c, diagonal) for the nonzero c in ``values``^n, in product order,
    diagonal the tuple of c^T M_k c over the n x n int matrices ``mats``,
    mod p when p > 0.  A candidate is a point w + x e_j + t e_last,
    j = n - 2: one _plane per outer prefix w, one _run per x, and
    a_k + t (b_k + t c_k) per t, with no product per candidate."""
    n = len(mats[0])
    columns = [list(zip(*m)) for m in mats]
    # F^1 has no e_(n-2): its one plane, of w = 0, takes j = last with x
    # held at 0, so its candidates are the points t e_last; F^0 has none
    j, xs = (n - 2, values) if n > 1 else (0, (0,))
    candidates = []
    for outer in itertools.product(values, repeat=n - 2) if n > 1 else [()] * n:
        plane = _plane(columns, outer + (0,) * min(n, 2), j)
        for x in xs:
            runs = _run(plane, x)
            head = (outer + (x,))[: n - 1]
            for t in values:
                c = head + (t,)
                if any(c):
                    if p:
                        diagonal = tuple((a + t * (b + t * k)) % p for a, b, k in runs)
                    else:
                        diagonal = tuple(a + t * (b + t * k) for a, b, k in runs)
                    candidates.append((c, diagonal))
    return candidates


def isometries(mats, targets, values, p: int, budget=None):
    """The columns of every invertible f with f^T M_k f = T_k for all k.

    ``mats`` and ``targets`` are n x n int matrices, compared mod p when
    p > 0 and over the ints when p is 0.  One backtrack (Plesken and
    Souvignier, J. Symbolic Comput. 24, 1997) grows f column by column,
    each over the nonzero vectors of ``values``^n in lexicographic order
    (``values`` in its own order): a candidate c is kept when
    c^T M_k c = T_k[i][i], then its pairings c_j^T M_k c with the earlier
    columns match T_k[j][i], and it is independent of them.  So the
    yields, tuples of n column tuples, come in lexicographic order too.
    M and T must obey one invertible relation M_l = sum_k R[l][k] M_k^T
    (R = sign S for two valid modules, +-1 for the fiber's M = +-M^T), by
    which the entries (j, i) for every k fix the entries (i, j).

    The diagonal values are computed once per candidate per call, by
    _gram_candidates off its planes; M_k c the first time a diagonal
    matches past column 0.  Each visited candidate costs one unit of
    ``budget`` (None: no bound), and a walk cut by the budget yields
    None last.
    """
    n = len(mats[0])
    wanted = [tuple(t[i][i] for t in targets) for i in range(n)]

    def pair(u, v) -> int:
        s = sum(map(_times, u, v))
        return s % p if p else s

    candidates = _gram_candidates(mats, values, p)
    cache = {}
    chosen: list[tuple] = []
    left = math.inf if budget is None else budget

    def gram_ok(c, diagonal) -> bool:
        # the diagonal entries first, for every k: most candidates fail there
        i = len(chosen)
        if diagonal != wanted[i]:
            return False
        if i == 0:
            return True
        if c not in cache:
            cache[c] = [[sum(map(_times, row, c)) for row in m] for m in mats]
        for mc, t in zip(cache[c], targets):
            for j in range(i):
                if pair(chosen[j], mc) != t[j][i]:
                    return False
        return True

    def extend():
        # yields the completions of ``chosen``; left < 0 once the budget cut the walk
        nonlocal left
        if len(chosen) == n:
            yield tuple(chosen)
            return
        for c, diagonal in candidates:
            left -= 1
            if left < 0:
                return
            if gram_ok(c, diagonal) and rank_mod_p(chosen + [c], p) == len(chosen) + 1:
                chosen.append(c)
                yield from extend()
                chosen.pop()

    yield from extend()
    if left < 0:
        yield None
