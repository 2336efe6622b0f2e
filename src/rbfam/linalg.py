"""Dense exact linear algebra: vectors, matrices, tensors, fraction-free elimination.

Everything is immutable and every operation is a pure function of its
inputs, so values are safe to share across threads.  Elimination follows
the Bareiss fraction-free scheme with the pivot fixed as the first nonzero
entry in the current column (lowest row index), which makes rank, kernel
and solve fully deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import lcm, prod

from .errors import InputError
from .scalars import TruncatedPoly, ensure_scalar

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# vectors (plain tuples of scalars)

def vector(values):
    return tuple(ensure_scalar(v) for v in values)


def zero_vector(n):
    return (ZERO,) * n


def unit_vector(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Matrix:
    """Row-major dense matrix of exact scalars."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise InputError(
                f"matrix entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    @staticmethod
    def from_rows(rows):
        rows = [tuple(ensure_scalar(e) for e in row) for row in rows]
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise InputError("ragged matrix rows")
        return Matrix(len(rows), ncols, tuple(e for row in rows for e in row))

    @staticmethod
    def from_columns(cols, rows=None):
        cols = [tuple(ensure_scalar(e) for e in col) for col in cols]
        if rows is None:
            if not cols:
                raise InputError("from_columns needs a row count when empty")
            rows = len(cols[0])
        for col in cols:
            if len(col) != rows:
                raise InputError("ragged matrix columns")
        return Matrix(rows, len(cols), tuple(cols[j][i] for i in range(rows) for j in range(len(cols))))

    @staticmethod
    def identity(n):
        return Matrix(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows, cols):
        return Matrix(rows, cols, (ZERO,) * (rows * cols))

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def apply(self, v):
        if len(v) != self.cols:
            raise InputError(f"matrix-vector mismatch: {self.cols} cols vs {len(v)}")
        out = []
        for i in range(self.rows):
            acc = ZERO
            base = i * self.cols
            for j, x in enumerate(v):
                e = self.entries[base + j]
                if e and x:
                    acc = acc + e * x
            out.append(acc)
        return tuple(out)

    def mul(self, other):
        if self.cols != other.rows:
            raise InputError("matrix-matrix dimension mismatch")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            for j in range(other.cols):
                acc = ZERO
                for k in range(self.cols):
                    a = self.entries[base + k]
                    if a:
                        b = other.entries[k * other.cols + j]
                        if b:
                            acc = acc + a * b
                out.append(acc)
        return Matrix(self.rows, other.cols, tuple(out))

    def add(self, other):
        self._same_shape(other)
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def sub(self, other):
        self._same_shape(other)
        return Matrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def neg(self):
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c):
        c = ensure_scalar(c)
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def power(self, k):
        if self.rows != self.cols:
            raise InputError("matrix power needs a square matrix")
        out = Matrix.identity(self.rows)
        for _ in range(k):
            out = out.mul(self)
        return out

    def is_zero(self):
        return not any(self.entries)

    def is_identity(self):
        if self.rows != self.cols:
            return False
        return all(
            self.at(i, j) == (ONE if i == j else ZERO)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def has_poly_entries(self):
        return any(isinstance(e, TruncatedPoly) for e in self.entries)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise InputError("matrix shape mismatch")


def block_diag(blocks):
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[ZERO] * cols for _ in range(rows)]
    r = c = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[r + i][c + j] = b.at(i, j)
        r += b.rows
        c += b.cols
    return Matrix.from_rows(out) if rows else Matrix(0, cols, ())


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tensor:
    """Dense row-major coefficient tensor; shape is fixed at construction."""

    shape: tuple
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(self.shape))
        if any((not isinstance(d, int)) or d < 0 for d in self.shape):
            raise InputError(f"bad tensor shape {self.shape}")
        if len(self.entries) != prod(self.shape):
            raise InputError(
                f"tensor entry count {len(self.entries)} != product of {self.shape}"
            )

    @staticmethod
    def zero(shape):
        return Tensor(tuple(shape), (ZERO,) * prod(shape))

    @staticmethod
    def from_function(shape, fn):
        shape = tuple(shape)
        entries = tuple(ensure_scalar(fn(*idx)) for idx in iproduct(*(range(d) for d in shape)))
        return Tensor(shape, entries)

    @staticmethod
    def from_nested(nested, depth):
        """Build from depth-nested lists (row-major)."""

        def walk(node, level):
            if level == 0:
                yield ensure_scalar(node)
                return
            for child in node:
                yield from walk(child, level - 1)

        def dims(node, level):
            out = []
            for _ in range(level):
                out.append(len(node))
                node = node[0] if len(node) else []
            return tuple(out)

        shape = dims(nested, depth)
        return Tensor(shape, tuple(walk(nested, depth)))

    def at(self, *idx):
        if len(idx) != len(self.shape):
            raise InputError("tensor index arity mismatch")
        flat = 0
        for i, d in zip(idx, self.shape):
            if not 0 <= i < d:
                raise InputError("tensor index out of range")
            flat = flat * d + i
        return self.entries[flat]

    def add(self, other):
        if self.shape != other.shape:
            raise InputError("tensor shape mismatch")
        return Tensor(self.shape, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def sub(self, other):
        if self.shape != other.shape:
            raise InputError("tensor shape mismatch")
        return Tensor(self.shape, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def neg(self):
        return Tensor(self.shape, tuple(-a for a in self.entries))

    def scale(self, c):
        c = ensure_scalar(c)
        return Tensor(self.shape, tuple(c * a for a in self.entries))

    def is_zero(self):
        return not any(self.entries)


def multilinear_apply(tensor, args):
    """Contract a tensor of shape (d_out, d_1..d_n) with n argument vectors.

    Returns the vector with coordinates sum T[k][i_1..i_n] args_1[i_1]...args_n[i_n];
    the result is linear in each argument.
    """
    shape = tensor.shape
    if len(shape) < 1:
        raise InputError("tensor needs an output axis")
    d_out, in_dims = shape[0], shape[1:]
    if len(args) != len(in_dims):
        raise InputError(f"expected {len(in_dims)} arguments, got {len(args)}")
    for v, d in zip(args, in_dims):
        if len(v) != d:
            raise InputError(f"argument length {len(v)} != extent {d}")
    out = [ZERO] * d_out
    if d_out == 0:
        return ()
    inner = prod(in_dims)
    for flat_in, idx in enumerate(iproduct(*(range(d) for d in in_dims))):
        w = ONE
        for v, i in zip(args, idx):
            x = v[i]
            if not x:
                w = None
                break
            w = w * x
        if w is None:
            continue
        for k in range(d_out):
            c = tensor.entries[k * inner + flat_in]
            if c:
                out[k] = out[k] + c * w
    return tuple(out)


def tensor_column(tensor, idx):
    """The vector tensor[:, idx] over the output axis, for input indices idx."""
    d_out, in_dims = tensor.shape[0], tensor.shape[1:]
    if len(idx) != len(in_dims):
        raise InputError("tensor index arity mismatch")
    inner = prod(in_dims)
    flat = 0
    for i, d in zip(idx, in_dims):
        flat = flat * d + i
    return tuple(tensor.entries[k * inner + flat] for k in range(d_out))


# ---------------------------------------------------------------------------
# fraction-free elimination


def _require_rational_matrix(m):
    if m.has_poly_entries():
        raise InputError("elimination is defined for rational matrices only")


def _integer_rows(m):
    # Scaling each row by the lcm of its denominators changes neither the
    # rank nor the null space.
    rows = []
    for i in range(m.rows):
        row = [Fraction(e) for e in m.row(i)]
        scale = lcm(*(e.denominator for e in row)) if row else 1
        rows.append([int(e * scale) for e in row])
    return rows


def _bareiss(rows, ncols):
    """In-place fraction-free echelon form; returns the pivot column list.

    Pivot choice: first nonzero entry in the current column, lowest row
    index first.  All intermediate divisions are exact by the Bareiss
    identity.
    """
    nrows = len(rows)
    prev = 1
    r = 0
    pivots = []
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pc = rows[r][c]
        width = len(rows[0])
        for i in range(r + 1, nrows):
            ri = rows[i]
            ic = ri[c]
            rr = rows[r]
            for j in range(c, width):
                ri[j] = (pc * ri[j] - ic * rr[j]) // prev
        prev = pc
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(m):
    """Rank over the rationals via Bareiss fraction-free elimination."""
    _require_rational_matrix(m)
    rows = _integer_rows(m)
    return len(_bareiss(rows, m.cols))


def _kernel_from_echelon(rows, pivots, ncols):
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        x = [ZERO] * ncols
        x[f] = ONE
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            acc = ZERO
            for j in range(c + 1, ncols):
                e = rows[r][j]
                if e and x[j]:
                    acc += e * x[j]
            x[c] = -acc / rows[r][c]
        basis.append(tuple(x))
    return basis


def kernel_basis(m):
    """Deterministic basis of the right null space (free columns ascending).

    Each basis vector is 1 on its own free column and 0 on every other free
    column (and on every column after its own), so a vector of the null
    space has its free-column entries as its coordinates in this basis.
    ``ComplexHandle.differential_matrix`` reads coordinates that way.
    """
    _require_rational_matrix(m)
    rows = _integer_rows(m)
    pivots = _bareiss(rows, m.cols)
    return _kernel_from_echelon(rows, pivots, m.cols)


def solve(m, b):
    """Solve M x = b exactly.

    Returns (particular solution, kernel basis) when consistent, or None
    when the system has no solution.
    """
    _require_rational_matrix(m)
    if len(b) != m.rows:
        raise InputError(f"right-hand side length {len(b)} != {m.rows} rows")
    for e in b:
        if isinstance(e, TruncatedPoly):
            raise InputError("elimination is defined for rational inputs only")
    rows = []
    for i in range(m.rows):
        row = [Fraction(e) for e in m.row(i)] + [Fraction(b[i])]
        scale = lcm(*(e.denominator for e in row))
        rows.append([int(e * scale) for e in row])
    # Pivots restricted to matrix columns; the augmented column rides along.
    pivots = _bareiss(rows, m.cols)
    nr = len(pivots)
    for i in range(nr, m.rows):
        if rows[i][m.cols]:
            return None
    x = [ZERO] * m.cols
    for r in range(nr - 1, -1, -1):
        c = pivots[r]
        acc = Fraction(rows[r][m.cols])
        for j in range(c + 1, m.cols):
            e = rows[r][j]
            if e and x[j]:
                acc -= e * x[j]
        x[c] = acc / rows[r][c]
    return tuple(x), _kernel_from_echelon(rows, pivots, m.cols)
