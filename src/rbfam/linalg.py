"""Exact linear algebra: dense vectors, matrices and tensors, sparse
contraction, sparse fraction-free elimination.

Everything is immutable and every operation is a pure function of its
inputs, so values are safe to share across threads.

``Matrix`` and ``Tensor`` are one array layer, ``_Array``: a shape and a
row-major entries tuple, with one body each for the entrywise operations
and the cached views.  A matrix's shape is (rows, cols), so the
kernels read a ``Matrix`` in place as its row-major tensor, with no copy.
An array the integer path makes is born integer (``_Array._born``): it
holds its shape and ``integer_view`` only, and one hook,
``_Array.__getattr__``, builds its ``Fraction`` entries on their first
read, as it builds those of a matrix born from integer column states.

``Matrix.apply`` and ``multilinear_apply`` share one body, ``_applied``:
one contraction, ``_contract``, over the arguments' supports (their
nonzero coordinates, built by ``_supports``), reading a matrix or tensor
through its sparse ``columns``, built once per array.  A caller that
contracts the same vector many times builds its support once and calls
``_contract_supports``.  Every signed sum of compositions goes
through one kernel, ``_signed_state``, which composes each term one slot
at a time over nonzero entries, the sparsest part first, and returns the
sparse state {flat index: value} over one denominator: ``_compose_sum`` (one-term case
``_compose``, which is also ``Matrix.mul``) turns it into a tensor, and
the law primitives of ``reports`` read it as residuals: ``run_law`` counts
a law's violations on the state itself and reads entries only for the
first violations it reports.  On integers the
kernel reads each array through views built once per array:
``state_view``, its nonzero state, when it is an outer, and ``rows_view``,
its sparse rows, with ``density``, its nonzeros per row, when it is a
part.  A part whose integer view is the identity pattern at scale 1 (a
square identity, or shape (a, *in) with prod(in) = a) has no rows view and
is skipped, which keeps every key and value; 2 * I is composed.  Cached
views are shared by every call and never mutated.  A tensor composed on
integers (``_from_state``) is born integer, so its next reader takes its
integer view and no ``Fraction`` entry is built unless something reads
``entries`` (``==``, ``hash``, ``repr``, ``replace``, a report).

Every value is read as (scale, values), the entries times an integer
scale.  Rationals become integers in one place, ``_integer_view``: the lcm
of the entries' denominators and the entries scaled by it.  An array reads
its cached ``scaled`` view and a vector ``_scaled``: the integer view, or
(1, the entries) when an entry is a ``TruncatedPoly``; an entry that is not
an exact scalar (a float) is refused.  So ``_applied``, the stencil walk of
``cohomology`` and ``homalg.hochschild_differential`` run one integer loop
over one denominator, a polynomial riding it at scale 1, and read each
output value once through ``_read``: ``Fraction(v, den)`` for an integer
and v / den for a polynomial.  The Hochschild route is a second route to
the cocycle identity, so it composes with its own loop, one slot at a
time over nonzero entries with each term's partial contraction formed
once, and never enters ``_signed_state``.  ``_signed_state`` runs the same loop on the
entries themselves when one is a polynomial, with no denominator: an
output entry is a ``TruncatedPoly`` exactly when a product with a
polynomial factor feeds it, and a ``Fraction`` otherwise.  In the
package, polynomials come only from ``LinearDeformation.deformed_maps``,
whose splitting ``deformations.deform_ns_family`` checks; the deformation
laws read their t and t^2 coefficients off rational evaluations instead.

Elimination (``rank``, ``kernel_supports``, ``solve``, ``invert_matrix``)
reads each line of entries once (a row or column of the matrix, a row with
its right-hand side or identity row appended) into a sparse integer row
``{column: value}`` scaled by the lcm of the line's own denominators, and
refuses a line with an entry that is not an int or a ``Fraction``; it keeps
no integer view and builds no augmented matrix; ``rank`` and
``kernel_supports`` share one reader, ``_matrix_rows``, which reads only
the states of a matrix built from integer column states.  Columns are
eliminated left to right, each pivot is the candidate row with the fewest
nonzeros, and each combined row is divided by the gcd of its entries.  The
answers do not depend on which rows become pivots: the pivot columns found
left to right are the same for every row choice, and the null-space basis
that is 1 on its own free column and 0 on the others is unique, so rank,
kernel, solve and inverse are fully deterministic.
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

from .errors import DegreeCapError, InputError
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
    those of the dataclass.

    An array may be born (``_born``) with its shape and a view in place of
    its entries: the ``integer_view`` (scale, ints) of the integer path, or
    a matrix's ``column_states``.  It skips ``__post_init__``, and
    ``__getattr__`` builds ``entries`` from that view on their first read,
    so ``==``, ``hash``, ``repr`` and ``replace`` read the same entries as
    those of the array built eagerly."""

    @classmethod
    def _born(cls, shape, **views):
        array = object.__new__(cls)
        vars(array).update(cls._fields_of(shape), **views)
        return array

    def __getattr__(self, name):  # an unset attribute: ``entries`` of a born array before its first read
        fields = vars(self)
        if name == "entries" and "column_states" in fields:
            entries = self._column_entries()
        elif name == "entries" and "integer_view" in fields:
            scale, ints = fields["integer_view"]
            entries = tuple(Fraction(v, scale) if v else ZERO for v in ints)
        else:
            raise AttributeError(name)
        fields["entries"] = entries
        return entries

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
    def scaled(self):
        """(scale, values): ``integer_view``, or (1, entries) when there is
        none (a ``TruncatedPoly`` entry); kept like ``integer_view``."""
        return self.integer_view or _scaled(self.entries)

    @cached_property
    def columns(self):
        """(scale, cols) of ``scaled``: cols[j] the tuple of (k, c) with
        c = values[k][j] != 0, per flat input index j; kept like
        ``integer_view``.  Needs an output axis."""
        scale, values = self.scaled
        return scale, _columns(values, self.shape)

    @cached_property
    def state_view(self):
        """``_nonzeros`` of ``integer_view``'s values: what ``_signed_state``
        reads of an outer.  Kept like ``integer_view`` and shared by every
        call, so never mutated."""
        return _nonzeros(self.integer_view[1])

    @cached_property
    def rows_view(self):
        """``_rows`` of ``integer_view``'s values, cut after the output axis:
        what ``_signed_state`` reads of a part.  None when they are the
        identity pattern at scale 1 (shape (a, *in) with prod(in) = a and
        row k the one entry 1 at k), a part ``_compose_state`` skips.  Kept
        like ``integer_view``, so never mutated."""
        scale, values = self.integer_view
        a = self.shape[0]
        rows, size = _rows(values, a, prod(self.shape[1:]))
        if scale == 1 and size == a and all(row == [(k, 1)] for k, row in enumerate(rows)):
            return None
        return rows, size

    @cached_property
    def density(self):
        """The nonzeros per row of ``rows_view`` (0 when it is None), the key
        by which ``_compose_state`` orders parts; kept like ``integer_view``."""
        view = self.rows_view
        return _density(view[0], self.shape[0]) if view else 0

    def _same_shape(self, other):
        if self.shape != other.shape:
            raise InputError(f"{type(self).__name__.lower()} shape mismatch")

    def _check_entries(self):
        """Refuse what ``ensure_scalar`` refuses, after one type pass; convert nothing."""
        if not all(map(isinstance, self.entries, repeat((Fraction, int, TruncatedPoly)))):
            for entry in self.entries:
                ensure_scalar(entry)


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
        self._check_entries()

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

    @staticmethod
    def _fields_of(shape):
        rows, cols = shape
        return {"rows": rows, "cols": cols}

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def apply(self, v):
        if len(v) != self.cols:
            raise InputError(f"matrix-vector mismatch: {self.cols} cols vs {len(v)}")
        return _applied(self, [v])

    def mul(self, other):
        if self.cols != other.rows:
            raise InputError("matrix-matrix dimension mismatch")
        return _from_state(Matrix, *_signed_state([(1, self, [other])]))

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
        """Whether this is ``Matrix.identity(rows)``, read in place: diagonal
        entries equal ``ONE`` and the others ``ZERO``."""
        n = self.rows
        return self.cols == n and all(e == (ZERO if k % (n + 1) else ONE) for k, e in enumerate(self.entries))

    def has_poly_entries(self):
        return any(isinstance(e, TruncatedPoly) for e in self.entries)

    column_states = None  # (state {row: value}, den) per column, from ``from_column_states``

    @staticmethod
    def from_column_states(rows, cols, states, limit):
        """Column j is (state, den) = states[j]: entry (i, j) is _read(state[i], den), and ``ZERO`` off
        the state.  The matrix is born (``_Array``): ``entries`` is built on first read, up to
        ``limit`` cells; elimination reads the states."""
        return Matrix._born((rows, cols), column_states=tuple(states), _limit=limit)

    def _column_entries(self):
        size = self.rows * self.cols
        if size > self._limit:
            message = f"a {self.rows}x{self.cols} matrix needs {size} entries, beyond the budget {self._limit}"
            raise DegreeCapError(message, estimated_entries=size)
        out = [ZERO] * size
        for j, (state, den) in enumerate(self.column_states):
            for i, v in state.items():
                out[i * self.cols + j] = _read(v, den)
        return tuple(out)


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
        self._check_entries()

    @staticmethod
    def _fields_of(shape):
        return {"shape": tuple(shape)}

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


def _scaled(v):
    """(scale, values) of a vector's entries: its integer view, or (1, the
    entries) when an entry is a ``TruncatedPoly``.  An entry that is not
    an exact scalar is refused as ``ensure_scalar`` refuses it."""
    return _integer_view(v) or (1, tuple(map(ensure_scalar, v)))


def _read(v, den):
    """The entry of value v over den: ``Fraction(v, den)`` (``ZERO`` for 0)
    for an integer, and v / den otherwise (a ``TruncatedPoly``, or a
    ``Fraction`` entry of an array read at scale 1)."""
    if type(v) is int:
        return Fraction(v, den) if v else ZERO
    return v / den


def multilinear_apply(tensor, args):
    """Contract a tensor of shape (d_out, d_1..d_n) with n argument vectors.

    Returns the vector with coordinates sum T[k][i_1..i_n] args_1[i_1]...args_n[i_n];
    the result is linear in each argument.  The sum runs over the product of
    the arguments' supports only, in lexicographic order, against the
    tensor's cached ``columns``; each term is ``T[k][i] * (x_1 * ... * x_n)``
    on the values of ``scaled`` and of each argument's ``_scaled``, over the
    product of their scales, and each coordinate is read once at the end
    (``_read``): a rational one is a ``Fraction`` (``ZERO`` when it
    vanishes), and one fed by a polynomial a ``TruncatedPoly``.
    """
    shape = tensor.shape
    if len(shape) < 1:
        raise InputError("tensor needs an output axis")
    in_dims = shape[1:]
    if len(args) != len(in_dims):
        raise InputError(f"expected {len(in_dims)} arguments, got {len(args)}")
    for v, d in zip(args, in_dims):
        if len(v) != d:
            raise InputError(f"argument length {len(v)} != extent {d}")
    return _applied(tensor, args)


def _applied(array, args):
    """The body of ``multilinear_apply`` and ``Matrix.apply``, with the
    arguments' lengths checked."""
    scale, columns = array.columns
    views = [_scaled(v) for v in args]
    den = scale * prod(s for s, _ in views)
    out = _contract(columns, [values for _, values in views], [0] * array.shape[0])
    return tuple(_read(v, den) for v in out)


def _contract(columns, args, out):
    """Add every term columns[i] * (args_1[i_1] * ... * args_n[i_n]) into
    ``out``, over the product of the arguments' supports; returns ``out``."""
    return _contract_supports(columns, _supports(args), out)


def _support(v, stride):
    """The nonzero entries of a vector as (i * stride, x): each carries its
    row-major offset in place of its index i."""
    return [(i * stride, x) for i, x in enumerate(v) if x]


def _supports(args):
    """``_support`` of each argument at its row-major stride, the product of
    the lengths of the arguments after it."""
    supports = []
    stride = 1
    for v in reversed(args):
        supports.append(_support(v, stride))
        stride *= len(v)
    supports.reverse()
    return supports


def _contract_supports(columns, supports, out):
    """``_contract`` on supports already built, so that a caller contracting
    the same vector many times builds its support once."""
    for terms in iproduct(*supports):
        flat, w = terms[0] if terms else (0, 1)
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
    """The tensor of ``_signed_state(terms)`` (``_from_state``): on the
    integer path it is born integer and builds its ``Fraction`` entries
    only when they are read."""
    return _from_state(Tensor, *_signed_state(terms))


def _from_state(cls, state, den, shape):
    """The array of ``cls`` and ``shape`` whose entries are the state's
    values over den, ``ZERO`` where the state has no entry.

    On the integer path (den an int) the array is born (``_Array._born``)
    with only its ``integer_view``, (den // g, values // g), g the gcd of
    den and the values, and reads its entries from it.  That is
    ``_integer_view`` of the entries, since the lcm of the denominators
    den / gcd(v, den) is den / gcd(den, v_1, ..., v_m).  With den None the
    values are the entries themselves, and the array is built eagerly."""
    size = prod(shape)
    if den is None:
        out = [ZERO] * size
        for k, v in state.items():
            out[k] = v
        return cls(**cls._fields_of(shape), entries=tuple(out))
    g = gcd(den, *state.values())
    ints = [0] * size
    for k, v in state.items():
        ints[k] = v // g
    return cls._born(shape, integer_view=(den // g, tuple(ints)))


def _signed_state(terms):
    """(state, den, shape): the sum of sign * outer o (parts[0] x ... x
    parts[m-1]) over the terms (sign, outer, parts) as a sparse state
    {flat index over shape: value}; the one signed-composition kernel.

    outer has shape (d, a_0, ..., a_{m-1}) and parts[s] shape (a_s, *in_s),
    a ``Matrix`` read in place; every term must have the shape
    (d, *in_0, ..., *in_{m-1}).  Terms are contracted one slot at a time
    over nonzero supports, the part with the fewest nonzeros per row first
    (``_compose_state``).  Every entry fed by a
    product of nonzero factors is kept, even one that cancels to 0.

    With an integer view on every input the values are integer numerators
    over den: a term counts in units of 1/(product of its arrays' scales)
    and is added times sign * (den // units), den the lcm of the units (a
    lone term is over its own units).  Each array is read through its
    cached views: an outer's ``state_view`` and a part's ``rows_view``
    (None for an identity pattern at scale 1, which ``_compose_state``
    skips) and ``density``.  Those views are shared and only read: a term
    whose parts are all skipped starts from a copy of its outer's state,
    so the sum is scaled and added in place.

    Otherwise (a ``TruncatedPoly`` entry) every array's entries are read
    (``ensure_scalar``) and multiplied one product at a time, the
    multipliers are the signs and den is None: the values are the entries
    themselves, a ``TruncatedPoly`` exactly where some product with a
    polynomial factor feeds it (t * t^2 = 0 mod t^3 included) and a
    ``Fraction`` elsewhere.  A call that holds two truncation orders is
    refused, even where they never meet.
    """
    arrays = [t for _, outer, parts in terms for t in (outer, *parts)]
    views = [t.integer_view for t in arrays]
    signs = [sign for sign, _, _ in terms]
    entrywise = None in views
    if entrywise:
        values = [[ensure_scalar(e) for e in t.entries] for t in arrays]
        if len({e.order for v in values for e in v if isinstance(e, TruncatedPoly)}) > 1:
            raise InputError("mixed truncation orders")
        multipliers, den = signs, None
    elif len(terms) == 1:
        multipliers, den = signs, prod(scale for scale, _ in views)
    else:
        scales = [scale for scale, _ in views]
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
        densities = None if entrywise else []
        if len(outer_shape) != len(parts) + 1:
            raise _compose_error(outer, parts)
        for s, (part, a) in enumerate(zip(parts, outer_shape[1:]), start + 1):
            part_shape = part.shape
            if part_shape[0] != a:
                raise _compose_error(outer, parts)
            term_shape += part_shape[1:]
            if entrywise:
                rows.append(_rows(values[s], a, prod(part_shape[1:])))
            else:
                rows.append(part.rows_view)
                densities.append(part.density)
        if shape is None:
            shape = term_shape
        elif term_shape != shape:
            raise InputError(f"cannot add compositions of shapes {shape} and {term_shape}")
        state = _compose_state(outer_shape, _nonzeros(values[start]) if entrywise else outer.state_view, rows, densities)
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


def _compose_state(shape, state, parts, densities=None):
    """The sparse state {flat: value} of outer o (parts[0] x ... x parts[m-1]).

    ``state`` holds the nonzero entries of ``outer``, of shape
    (d, a_0, ..., a_{m-1}), by row-major flat index.  parts[s] is
    (rows, size) for a part of shape (a_s, *in_s): size is the product of
    in_s and rows[a] the nonzero (j, x) of part[a] by flat index j over
    in_s (what ``_rows`` gives).  The result is keyed by the flat index
    over (d, *in_0, ..., *in_{m-1}) and holds every entry fed by a product
    of nonzero factors, even one that cancels to 0.  Values are whatever
    the inputs hold, integer numerators or entries; the contraction of
    ``_signed_state``.

    A part given as None is an identity pattern (``_Array.rows_view``) and
    is skipped: composing with it keeps every key, its value and the key
    order, zero values included.  ``state`` may be an array's cached
    ``state_view`` and is only read; when every part is skipped the result
    is a copy of it, so the caller may add into the result in place.

    When two or more parts are composed, the one with the fewest nonzeros
    per row goes first (a sparse p before an expanding mu), so the
    intermediate states stay small.  The keys and exact values do not
    depend on that order, only the order of the keys does.  ``densities``
    gives each part's nonzeros per row when the caller keeps them
    (``_Array.density``); otherwise they are counted here.
    """
    # extents[s] is slot s's extent in the state: a_s until it is composed, then prod(in_s).
    extents = list(shape[1:])
    slots = [s for s, part in enumerate(parts) if part is not None]
    if len(slots) > 1:
        if densities is None:
            densities = [part and _density(part[0], a) for part, a in zip(parts, extents)]
        slots.sort(key=densities.__getitem__)
    for s in slots:
        rows, size = parts[s]
        rest = prod(extents[s + 1 :])
        remaining = extents[s] * rest
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
        state, extents[s] = acc, size
    # A part that was composed made ``state`` a new dict.
    return state if slots else dict(state)


def _rows(entries, count, size):
    """(rows, size) of ``count`` consecutive rows of length ``size`` of a
    row-major ``entries``: rows[a] is the nonzero (j, x) of row a."""
    rows = [[(j, x) for j, x in enumerate(entries[a * size : (a + 1) * size]) if x] for a in range(count)]
    return rows, size


def _density(rows, count):
    """The nonzeros per row of ``count`` rows (``_rows``)."""
    return sum(map(len, rows)) / (count or 1)


def _nonzeros(entries):
    """The state {flat: x} of the nonzero entries."""
    return {f: x for f, x in enumerate(entries) if x}


def _multipliers(signs, dens):
    """(multipliers, den) that put signed states over one denominator.

    A state over dens[t] is scaled by signs[t] * (den // dens[t]), den the
    lcm of ``dens``.
    """
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


def _matrix_rows(m, transposed=False):
    """The nonzero integer rows {column: value} of L * m, or of its columns
    when ``transposed``.  Integer column states are read in O(nonzeros), L
    the lcm of their denominators (a uniform scale keeps the rank and the
    null space); any other matrix, or states holding a value that is not an
    int, goes through ``_integer_rows``."""
    states = m.column_states
    if states is None or not all(type(v) is int for state, _ in states for v in state.values()):
        return _integer_rows((m.entries[j :: m.cols] for j in range(m.cols)) if transposed else map(m.row, range(m.rows)))
    scale = lcm(*(den for _, den in states))
    factors = [scale // den for _, den in states]
    if transposed:
        lines = [{i: k * v for i, v in state.items() if v} for (state, _), k in zip(states, factors)]
    else:
        lines = [{} for _ in range(m.rows)]
        for j, ((state, _), k) in enumerate(zip(states, factors)):
            for i, v in state.items():
                if v:
                    lines[i][j] = k * v
    return [line for line in lines if line]


def rank(m):
    """Rank over the rationals by sparse fraction-free elimination: rank(M)
    = rank(M^T), so the shorter side's lines are eliminated."""
    tall = m.rows > m.cols
    return len(_echelon(_matrix_rows(m, tall), m.rows if tall else m.cols)[1])


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
    return _kernel_from_echelon(*_echelon(_matrix_rows(m), m.cols), m.cols)


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
