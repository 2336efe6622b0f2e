"""Exact linear algebra: dense vectors, matrices and tensors, sparse
contraction, sparse fraction-free elimination.

Everything is immutable and every operation is a pure function of its
inputs, so values are safe to share across threads.

``Matrix`` and ``Tensor`` are one array layer, ``_Array``: a shape and a
row-major entries tuple, with one body each for the entrywise operations
and the cached integer view.  A matrix's shape is (rows, cols), so the
kernels read a ``Matrix`` in place as its row-major tensor, with no copy.

``Matrix.apply`` and ``multilinear_apply`` run one contraction,
``_contract``, over the arguments' supports (their nonzero coordinates),
reading a matrix or tensor through a sparse column view built once per
array.  Every signed sum of compositions goes through one kernel,
``_signed_state``, which composes each term one slot at a time over
nonzero entries and returns the sparse state {flat index: value} over one
denominator: ``_compose_sum`` (one-term case ``_compose``, which is also
``Matrix.mul``) turns it into a tensor, and the law primitives of
``reports`` read it as residuals.

Rationals become integers in one place, ``_integer_view``: the lcm of the
entries' denominators and the entries scaled by it.  Each ``Tensor`` and
``Matrix`` caches its view on first use (a tensor its integer sparse
columns too), so ``multilinear_apply`` and ``_signed_state`` contract
integer numerators and a ``Fraction`` is built once per output entry.  An
entry that is neither an int nor a ``Fraction`` (a ``TruncatedPoly``, a
float) leaves its tensor or matrix without a view: contraction then runs on
the entries themselves.

Elimination (``rank``, ``kernel_supports``, ``solve``, ``invert_matrix``)
reads each line of entries once (a row or column of the matrix, a row with
its right-hand side or identity row appended) into a sparse integer row
``{column: value}`` scaled by the lcm of the line's own denominators, and
refuses a line with an entry that is not an int or a ``Fraction``; it keeps
no integer view and builds no augmented matrix.  Columns are eliminated
left to right, each pivot is the candidate row with the fewest nonzeros,
and each combined row is divided by the gcd of its entries.  The answers
do not depend on which rows become pivots: the pivot columns found left to
right are the same for every row choice, and the null-space basis that is
1 on its own free column and 0 on the others is unique, so rank, kernel,
solve and inverse are fully deterministic.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct
from itertools import compress, count, repeat
from math import gcd, lcm, prod
from operator import is_not

from .errors import InputError
from .scalars import TruncatedPoly, ensure_scalar

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# vectors (plain tuples of scalars)

def vector(values):
    return tuple(ensure_scalar(v) for v in values)


def unit_vector(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


# ---------------------------------------------------------------------------


class _Array:
    """The entrywise code of ``Matrix`` and ``Tensor``: a ``shape`` and a
    row-major ``entries`` tuple.  Each result has the caller's class and
    shape; the base adds no field, so ``==``, ``hash`` and ``repr`` stay
    those of the dataclass."""

    def add(self, other):
        self._same_shape(other)
        return replace(self, entries=tuple(a + b for a, b in zip(self.entries, other.entries)))

    def sub(self, other):
        self._same_shape(other)
        return replace(self, entries=tuple(a - b for a, b in zip(self.entries, other.entries)))

    def neg(self):
        return replace(self, entries=tuple(-a for a in self.entries))

    def scale(self, c):
        c = ensure_scalar(c)
        return replace(self, entries=tuple(c * a for a in self.entries))

    def is_zero(self):
        return not any(self.entries)

    @cached_property
    def integer_view(self):
        """``_integer_view(entries)``, built on first use and kept on the
        instance; not a field, so ``==``, ``hash`` and ``repr`` ignore it."""
        return _integer_view(self.entries)

    @cached_property
    def sparse_columns(self):
        """For each flat input index, the tuple of (k, c) with c = A[k][index] != 0.

        Built on first use and kept on the instance; not a field, so ``==``,
        ``hash`` and ``repr`` ignore it.  Needs an output axis.
        """
        return _columns(self.entries, self.shape)

    def _same_shape(self, other):
        if self.shape != other.shape:
            raise InputError(f"{type(self).__name__.lower()} shape mismatch")


@dataclass(frozen=True)
class Matrix(_Array):
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

    @property
    def shape(self):
        """(rows, cols): a matrix is read in place as its row-major tensor."""
        return (self.rows, self.cols)

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def apply(self, v):
        if len(v) != self.cols:
            raise InputError(f"matrix-vector mismatch: {self.cols} cols vs {len(v)}")
        return tuple(_contract(self.sparse_columns, [v], [ZERO] * self.rows, ONE))

    def mul(self, other):
        if self.cols != other.rows:
            raise InputError("matrix-matrix dimension mismatch")
        return Matrix(self.rows, other.cols, _compose(self, [other]).entries)

    def power(self, k):
        if self.rows != self.cols:
            raise InputError("matrix power needs a square matrix")
        if k < 0:
            raise InputError("matrix power needs a nonnegative exponent")
        out = Matrix.identity(self.rows)
        for _ in range(k):
            out = out.mul(self)
        return out

    def is_identity(self):
        return self == Matrix.identity(self.rows)

    def has_poly_entries(self):
        return any(isinstance(e, TruncatedPoly) for e in self.entries)


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
class Tensor(_Array):
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
        """Build from depth-nested lists (row-major).  The shape is read
        along the first path; every list at a level must have its extent."""
        shape = []
        node = nested
        for _ in range(depth):
            shape.append(len(node))
            node = node[0] if len(node) else []

        def walk(node, level):
            if level == depth:
                yield ensure_scalar(node)
                return
            if len(node) != shape[level]:
                raise InputError(
                    f"ragged nested tensor: {len(node)} entries at depth {level}, expected {shape[level]}"
                )
            for child in node:
                yield from walk(child, level + 1)

        return Tensor(tuple(shape), tuple(walk(nested, 0)))

    def at(self, *idx):
        if len(idx) != len(self.shape):
            raise InputError("tensor index arity mismatch")
        flat = 0
        for i, d in zip(idx, self.shape):
            if not 0 <= i < d:
                raise InputError("tensor index out of range")
            flat = flat * d + i
        return self.entries[flat]

    @cached_property
    def integer_columns(self):
        """(scale, ``sparse_columns`` of the integer view), kept like
        ``sparse_columns``; None when the tensor has no integer view."""
        if self.integer_view is None:
            return None
        scale, ints = self.integer_view
        return scale, _columns(ints, self.shape)


def _columns(entries, shape):
    d_out, inner = shape[0], prod(shape[1:])
    return tuple(
        tuple((k, c) for k in range(d_out) if (c := entries[k * inner + j]))
        for j in range(inner)
    )


def _integer_view(entries):
    """``(scale, ints)`` with ``scale`` the lcm of the entries' denominators
    and ``ints[i] = entries[i] * scale``; None when an entry is not an int
    or a ``Fraction`` (a ``TruncatedPoly``, say).  The one place where
    rationals become integer numerators."""
    if not all(map(isinstance, entries, repeat((int, Fraction)))):
        return None
    scale = lcm(*{e.denominator for e in entries})
    if scale == 1:
        return 1, tuple(e.numerator for e in entries)
    return scale, tuple(e.numerator * (scale // e.denominator) for e in entries)


def multilinear_apply(tensor, args):
    """Contract a tensor of shape (d_out, d_1..d_n) with n argument vectors.

    Returns the vector with coordinates sum T[k][i_1..i_n] args_1[i_1]...args_n[i_n];
    the result is linear in each argument.  The sum runs over the product of
    the arguments' supports only, in lexicographic order, against the
    tensor's sparse columns; each term is ``T[k][i] * (x_1 * ... * x_n)``.

    When the tensor and every argument have an integer view (every entry an
    int or a ``Fraction``), the sum runs on the tensor's cached integer
    columns and on each argument scaled by the lcm of its denominators, and
    each nonzero coordinate is one ``Fraction`` built at the end.  Otherwise
    (a ``TruncatedPoly`` entry, say) it runs on the entries themselves.
    Either way a rational coordinate is a ``Fraction`` (``ZERO`` when it
    vanishes) and a polynomial one a ``TruncatedPoly``.  The integer path
    stays because it keeps the median small verdict job fast: without it,
    verdict-stream's ``job_p50_s`` read 21-29% higher in untraced benchmark
    pairs (Python 3.11, 2 shared cores).
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
    if d_out == 0:
        return ()
    if tensor.integer_columns is not None:
        views = [_integer_view(v) for v in args]
        if None not in views:
            scale, columns = tensor.integer_columns
            den = scale * prod(s for s, _ in views)
            out = _contract(columns, [ints for _, ints in views], [0] * d_out, 1)
            return tuple(Fraction(v, den) if v else ZERO for v in out)
    return tuple(_contract(tensor.sparse_columns, args, [ZERO] * d_out, ONE))


def _contract(columns, args, out, one):
    """Add every term columns[i] * (args_1[i_1] * ... * args_n[i_n]) into
    ``out``, over the product of the arguments' supports; returns ``out``."""
    # Each support entry carries its row-major offset i * stride in place of i.
    supports = []
    stride = 1
    for v in reversed(args):
        supports.append([(i * stride, x) for i, x in enumerate(v) if x])
        stride *= len(v)
    supports.reverse()
    for terms in iproduct(*supports):
        flat, w = terms[0] if terms else (0, one)
        for offset, x in terms[1:]:
            flat += offset
            w = w * x
        for k, c in columns[flat]:
            out[k] = out[k] + c * w
    return out


def _compose(outer, parts):
    """The tensor outer o (parts[0] x ... x parts[m-1]): the one-term case
    of ``_compose_sum``."""
    return _compose_sum([(1, outer, parts)])


def _compose_sum(terms):
    """The tensor of ``_signed_state(terms)``, ``ZERO`` where the state has no entry."""
    state, den, shape = _signed_state(terms)
    out = [ZERO] * prod(shape)
    for k, v in state.items():
        out[k] = v if den is None else Fraction(v, den)
    return Tensor(shape, tuple(out))


def _signed_state(terms):
    """(state, den, shape): the sum of sign * outer o (parts[0] x ... x
    parts[m-1]) over the terms (sign, outer, parts) as a sparse state
    {flat index over shape: value}; the one signed-composition kernel.

    outer has shape (d, a_0, ..., a_{m-1}) and parts[s] shape (a_s, *in_s),
    a ``Matrix`` read in place; every term must have the shape
    (d, *in_0, ..., *in_{m-1}).  Terms are contracted one slot at a time
    over nonzero supports (``_compose_state``).  With an integer view on
    every input, a term counts in units of 1/(product of its scales) and is
    added times sign * (den // units), den the lcm of the units; a
    ``TruncatedPoly`` entry anywhere runs on the entries themselves, with
    the signs as multipliers and den None.  Every entry fed by a product of
    nonzero factors is kept, even one that cancels to 0, so it keeps that
    sum's type: a ``TruncatedPoly`` stays one (t * t^2 = 0 mod t^3
    included) and a rational is a ``Fraction``.
    """
    scales, values = _values([t for _, outer, parts in terms for t in (outer, *parts)])
    signs = [sign for sign, _, _ in terms]
    # A lone term is over its own units, and entries without a view have none.
    if scales is None or len(terms) == 1:
        multipliers, den = signs, None if scales is None else prod(scales)
    else:
        dens, start = [], 0
        for _, _, parts in terms:
            dens.append(prod(scales[start : start + len(parts) + 1]))
            start += len(parts) + 1
        multipliers, den = _multipliers(signs, dens)
    # The first state starts the sum in place, and each state is dropped
    # before the next term is composed.
    shape = acc = None
    start = 0
    for m, (_, outer, parts) in zip(multipliers, terms):
        outer_shape, term_shape, rows = outer.shape, outer.shape[:1], []
        if len(outer_shape) != len(parts) + 1:
            raise _compose_error(outer, parts)
        for part, a, v in zip(parts, outer_shape[1:], values[start + 1 :]):
            part_shape = part.shape
            if part_shape[0] != a:
                raise _compose_error(outer, parts)
            term_shape += part_shape[1:]
            rows.append(_rows(v, a, prod(part_shape[1:])))
        if shape is None:
            shape = term_shape
        elif term_shape != shape:
            raise InputError(f"cannot add compositions of shapes {shape} and {term_shape}")
        state = _compose_state(outer_shape, _nonzeros(values[start]), rows)
        start += len(parts) + 1
        if acc is None:
            acc, get = state, state.get
            if m != 1:
                for k, v in acc.items():
                    acc[k] = v * m
        else:
            for k, v in state.items():
                w = get(k)
                acc[k] = v * m if w is None else w + v * m
        del state
    return acc, den, shape


def _compose_error(outer, parts):
    return InputError(f"cannot compose shape {outer.shape} with {[t.shape for t in parts]}")


def _compose_state(shape, state, parts):
    """The sparse state {flat: value} of outer o (parts[0] x ... x parts[m-1]).

    ``state`` holds the nonzero entries of ``outer``, of shape
    (d, a_0, ..., a_{m-1}), by row-major flat index.  parts[s] is
    (rows, size) for a part of shape (a_s, *in_s): size is the product of
    in_s and rows[a] the nonzero (j, x) of part[a] by flat index j over
    in_s (what ``_rows`` gives).  The result is keyed by the flat index
    over (d, *in_0, ..., *in_{m-1}) and holds every entry fed by a product
    of nonzero factors, even one that cancels to 0.  Values are whatever
    the inputs hold, integer numerators or the entries themselves; the
    contraction of ``_signed_state``.  ``state`` is only read.
    """
    remaining = prod(shape[1:])
    for s, (rows, size) in enumerate(parts):
        rest = prod(shape[s + 2 :])
        acc = {}
        get = acc.get
        for key, c in state.items():
            head, tail = divmod(key, remaining)
            a, tail = divmod(tail, rest)
            base = head * size
            for j, x in rows[a]:
                k = (base + j) * rest + tail
                v = get(k)
                acc[k] = c * x if v is None else v + c * x
        state, remaining = acc, rest
    return state


def _rows(entries, count, size):
    """(rows, size) of ``count`` consecutive rows of length ``size`` of a
    row-major ``entries``: rows[a] is the nonzero (j, x) of row a."""
    rows = [[(j, x) for j, x in enumerate(entries[a * size : (a + 1) * size]) if x] for a in range(count)]
    return rows, size


def _nonzeros(entries):
    """The state {flat: x} of the nonzero entries."""
    return {f: x for f, x in enumerate(entries) if x}


def _values(tensors):
    """(scales, values) of tensors and matrices: each one's cached integer
    view, or, when one of them has none (a ``TruncatedPoly`` entry), scales
    None and the entries themselves."""
    views = [t.integer_view for t in tensors]
    if None not in views:
        return [scale for scale, _ in views], [ints for _, ints in views]
    return None, [[ensure_scalar(e) for e in t.entries] for t in tensors]


def _multipliers(signs, dens):
    """(multipliers, den) that put signed states over one denominator.

    A state over dens[t] is scaled by signs[t] * (den // dens[t]), den the
    lcm of ``dens``.  With ``dens`` None the states hold the entries
    themselves: the multipliers are the signs and den is None.
    """
    if dens is None:
        return list(signs), None
    den = lcm(*dens)
    return [sign * (den // d) for sign, d in zip(signs, dens)], den


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
# sparse fraction-free elimination


def _integer_rows(lines):
    """The nonzero lines of entries as rows {column: int}; zero lines are
    left out.

    Each row is its line scaled by the lcm of the line's own denominators.
    Scaling a row changes neither the rank nor the null space (nor, on an
    augmented row, the solutions).  A line holding an entry that is not an
    int or a ``Fraction`` is refused.  The shared ``ZERO`` that fills most
    matrices is skipped by identity, so only the other entries are read.
    """
    out = []
    for line in lines:
        row = {}
        for j in compress(count(), map(is_not, line, repeat(ZERO))):
            e = line[j]
            if not isinstance(e, (int, Fraction)):
                raise InputError("elimination is defined for rational matrices only")
            if e:
                row[j] = e
        if row:
            scale = lcm(*{e.denominator for e in row.values()})
            out.append({j: e.numerator * (scale // e.denominator) for j, e in row.items()})
    return out


def _echelon(rows, ncols):
    """Sparse fraction-free echelon form; returns (pivot rows, pivot columns).

    Columns are eliminated left to right.  The pivot of a column is the
    candidate row with the fewest nonzeros, ties going to the lowest row
    index; every other candidate becomes pc * row - rc * pivot (over the
    gcd of pc and rc), divided by the gcd of its entries, and waits at its
    new leading column.  Pivot row r leads at pivot column r.  The rows are
    consumed: a combined row may be updated in place.
    """
    waiting = {}
    for i, row in enumerate(rows):
        waiting.setdefault(min(row), []).append((len(row), i, row))
    echelon, pivots = [], []
    for c in range(ncols):
        candidates = waiting.pop(c, None)
        if candidates is None:
            continue
        candidates.sort(key=lambda t: t[:2])
        (_, _, pivot), *others = candidates
        pc = pivot[c]
        tail = [(j, v) for j, v in pivot.items() if j != c]
        for _, i, row in others:
            rc = row.pop(c)
            g = gcd(pc, rc)
            a, b = pc // g, rc // g
            new = row if a == 1 else {j: a * v for j, v in row.items()}
            for j, v in tail:
                w = new.get(j, 0) - b * v
                if w:
                    new[j] = w
                else:
                    del new[j]
            if new:
                g = gcd(*new.values())
                if g != 1:
                    new = {j: v // g for j, v in new.items()}
                waiting.setdefault(min(new), []).append((len(new), i, new))
        echelon.append(pivot)
        pivots.append(c)
    return echelon, pivots


def rank(m):
    """Rank over the rationals by sparse fraction-free elimination.

    rank(M) = rank(M^T), so the shorter side's lines are eliminated.
    """
    if m.rows > m.cols:
        return len(_echelon(_integer_rows(m.entries[j :: m.cols] for j in range(m.cols)), m.rows)[1])
    return len(_echelon(_integer_rows(map(m.row, range(m.rows))), m.cols)[1])


def _kernel_from_echelon(rows, pivots, ncols):
    """Null space of a sparse echelon form as ((column, value), ...), one
    per free column f: 1 at f, 0 at the other free columns, so only the
    pivot columns before f can be nonzero.  That vector is unique, so it
    does not depend on which rows were chosen as pivots."""
    pivot_set = set(pivots)
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_set):
        x = {f: ONE}
        for r in range(bisect_left(pivots, f) - 1, -1, -1):
            row = rows[r]
            acc = ZERO
            for j in x.keys() & row.keys():
                acc += row[j] * x[j]
            if acc:
                x[pivots[r]] = -acc / row[pivots[r]]
        basis.append(tuple(sorted(x.items())))
    return basis


def densify(support, n):
    """The length-n vector with the entries of a sparse ((index, value), ...)."""
    out = [ZERO] * n
    for i, c in support:
        out[i] = c
    return tuple(out)


def kernel_supports(m):
    """``kernel_basis`` with each vector as its nonzero ((column, value), ...)."""
    return _kernel_from_echelon(*_echelon(_integer_rows(map(m.row, range(m.rows))), m.cols), m.cols)


def kernel_basis(m):
    """Deterministic basis of the right null space (free columns ascending).

    Each basis vector is 1 on its own free column and 0 on every other free
    column (and on every column after its own), so a vector of the null
    space has its free-column entries as its coordinates in this basis.
    ``ComplexHandle.differential_matrix`` reads coordinates that way.
    """
    return [densify(v, m.cols) for v in kernel_supports(m)]


def solve(m, b):
    """Solve M x = b exactly.

    Returns (particular solution, kernel basis) when consistent, or None
    when the system has no solution.  Both are read off the null space of
    [M | b]: the system is consistent exactly when its last column is
    free, minus that column's vector is the particular solution (0 on
    every free column of M), and the other vectors, which are 0 there,
    truncated, are the kernel.
    """
    if len(b) != m.rows:
        raise InputError(f"right-hand side length {len(b)} != {m.rows} rows")
    b = [ensure_scalar(e) for e in b]
    rows, pivots = _echelon(_integer_rows(m.row(i) + (b[i],) for i in range(m.rows)), m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    *kernel, last = _kernel_from_echelon(rows, pivots, m.cols + 1)
    x = [ZERO] * m.cols
    for j, c in last[:-1]:
        x[j] = -c
    return tuple(x), [densify(v, m.cols) for v in kernel]


def invert_matrix(m):
    """M^-1, read off the null space of [M | I] as ``solve`` reads [M | b].

    M is invertible exactly when each of its own columns is a pivot.  Then
    the free columns are those of I, and the null-space vector of free
    column n + i is (-M^-1 e_i, e_i).
    """
    if m.rows != m.cols:
        raise InputError("only square matrices invert")
    n = m.rows
    rows, pivots = _echelon(_integer_rows(m.row(i) + unit_vector(n, i) for i in range(n)), 2 * n)
    if pivots != list(range(n)):
        raise InputError("matrix is not invertible")
    kernel = _kernel_from_echelon(rows, pivots, 2 * n)
    return Matrix.from_columns([tuple(-c for c in densify(v, 2 * n)[:n]) for v in kernel], rows=n)
