"""Cochain complexes and cohomology dimensions.

Three complexes share one chassis:

* HA    - the Hochschild-type complex of a Hom-associative algebra with
          coefficients in a bimodule (no semigroup grading; the cochain
          table has the single empty key),
* OMEGA - the complex of a semigroup-pair-indexed associative algebra with
          coefficients in a pair-indexed bimodule,
* RBF   - the complex of a twisted Rota-Baxter family, whose differential
          has two routes: the direct formula and the generic OMEGA
          differential on the induced total-product algebra and bimodule.
          Their term maps are built apart and compared exactly; where any
          differs, both maps are assembled and every image must agree.

Cochain spaces carry the equivariance membership constraint, enforced at
construction.  In every degree and for any structure maps the basis is the
kernel of one index tuple's constraint block, kept as sparse supports; the
block is built and eliminated as integer column states, with no dense cell,
and an a-priori bound on its nonzeros counts against the entry budget.
Bases, differential matrices and dimensions are exact and deterministic.

A complex starts at degree ``ComplexHandle.first_degree``: 0, or 1 for an
OMEGA or RBF complex over a semigroup without a unit, whose degree-0
differential needs the empty product.  Degrees below it are refused, and in
it nothing bounds (dim B = 0).

In every degree n >= 0 the differential of each complex is one linear
map, assembled in raw coordinates by one stencil walker shared by the
three complexes (each supplies a small stencil of term maps, composed as
whole tensors, and merged arguments) on integer numerators over one
denominator, and kept on the handle.  ``differential_matrix`` reads a
unit basis's images off its columns and applies it to every basis vector
of a constrained space, ``differential`` to one member cochain and
``raw_differential`` to any raw coefficient vector.  Each image stays a
sparse state {row: integer numerator} over one denominator from the walk
to elimination: two RBF maps' images are compared across their
denominators, the membership rebuild runs on integers, and the matrix
keeps each column's coordinates as such a state, which elimination reads
directly.  Only ``raw_differential`` and a matrix's lazy
``entries`` turn values into entries (``linalg._read``).  Polynomial data
rides the same loops at scale 1, over the same denominators.  Every
cochain that enters, through ``make_cochain`` or ``differential``, passes
one validation path (index tuples, shapes, the size guard and
membership), and every stencil is assembled under the size guard.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cache, partial
from itertools import product as iproduct
from math import lcm

from .errors import (
    DegreeCapError,
    InputError,
    MissingUnitError,
    RouteMismatchError,
)
from .family import check_omega_assoc, check_omega_bimodule, operator_bimodule
from .homalg import check_bimodule, check_hom_algebra, is_equivariant
from .linalg import (
    ZERO,
    Matrix,
    Tensor,
    _compose,
    _compose_sum,
    _read,
    _scaled,
    densify,
    invert_matrix,
    kernel_supports,
    rank,
)
from .operators import check_operator_morphism, twisted_inner_sum
from .reports import ensure_valid

DEFAULT_DEGREE_CAP = 2
DEFAULT_MAX_ENTRIES = 10**7
# Size estimates are counted exactly up to this bound and reported as
# "more than" it beyond, so no degree builds or prints a huge number.
EXACT_SIZE_LIMIT = 10**18

HA, OMEGA, RBF = "HA", "OMEGA", "RBF"

CohomologyDims = namedtuple("CohomologyDims", ["dim_c", "dim_z", "dim_b", "dim_h"])


@dataclass(frozen=True)
class Cochain:
    """Degree-n cochain: a table from index tuples to coefficient tensors.

    Tensors have shape (target_dim,) + (source_dim,)*degree; degree 0 is a
    single vector stored under the empty key.  HA cochains always use the
    single empty key.
    """

    complex: str
    degree: int
    source_dim: int
    target_dim: int
    table: dict

    def keys(self):
        return sorted(self.table)

    def add(self, other):
        frame = (self.complex, self.degree, self.source_dim, self.target_dim, self.table.keys())
        if frame != (other.complex, other.degree, other.source_dim, other.target_dim, other.table.keys()):
            raise InputError("cochain mismatch")
        return replace(self, table={k: self.table[k].add(other.table[k]) for k in self.table})

    def scale(self, c):
        return replace(self, table={k: t.scale(c) for k, t in self.table.items()})

    def is_zero(self):
        return all(t.is_zero() for t in self.table.values())


@dataclass
class ComplexHandle:
    """Bundle of the data a complex needs, plus basis and matrix caches."""

    tag: str
    source_dim: int
    target_dim: int
    source_map: Matrix
    target_map: Matrix
    omega: object  # FiniteSemigroup or None for HA
    degree_cap: int = DEFAULT_DEGREE_CAP
    max_entries: int = DEFAULT_MAX_ENTRIES
    ha_module: object = None
    omega_algebra: object = None
    omega_module: object = None
    operator: object = None
    notes: tuple = ()
    _basis: dict = field(default_factory=dict, repr=False)
    _matrix: dict = field(default_factory=dict, repr=False)
    _maps: dict = field(default_factory=dict, repr=False)

    # -- layout ------------------------------------------------------------

    @property
    def first_degree(self):
        """The degree the complex starts at: 1 for a pair-indexed or family
        complex over a semigroup without a unit, whose degree-0 differential
        needs the empty product, and 0 otherwise."""
        return int(self.tag != HA and self.omega.unit is None)

    def index_keys(self, degree):
        if self.tag == HA:
            return [()]
        return list(iproduct(range(self.omega.size), repeat=degree))

    def tensor_shape(self, degree):
        return (self.target_dim,) + (self.source_dim,) * degree

    def block_dim(self, degree):
        """Entries of one index tuple's coefficient tensor."""
        return self.target_dim * self.source_dim**degree

    def raw_dim(self, degree, limit=None):
        """Raw coordinates in degree n, one block per index tuple, counted
        without listing the tuples; None when it exceeds ``limit``."""
        slots = self.source_dim * (1 if self.tag == HA else self.omega.size)
        return cochain_size(self.target_dim, slots, degree, limit)

    def flatten(self, cochain):
        out = []
        for key in cochain.keys():
            out.extend(cochain.table[key].entries)
        return tuple(out)

    def unflatten(self, degree, vec):
        keys = self.index_keys(degree)
        shape = self.tensor_shape(degree)
        block = self.block_dim(degree)
        if len(vec) != block * len(keys):
            raise InputError("coefficient vector has the wrong length")
        table = {}
        for pos, key in enumerate(sorted(keys)):
            table[key] = Tensor(shape, tuple(vec[pos * block : (pos + 1) * block]))
        return Cochain(
            complex=self.tag,
            degree=degree,
            source_dim=self.source_dim,
            target_dim=self.target_dim,
            table=table,
        )

    # -- membership ---------------------------------------------------------

    def membership_ok(self, cochain):
        return is_equivariant(
            self.target_map, self.source_map, cochain.degree, cochain.table.values()
        )

    def make_cochain(self, degree, table):
        """Wrap and validate a cochain: the one validation path of the complex.

        ``table`` maps each index tuple to a tensor (or a flat sequence of
        its entries); in degree 0 it may also be the vector itself.  The
        degree passes the size guard, and the cochain the membership
        constraint.
        """
        self._guard_degree(degree)
        if degree == 0 and not isinstance(table, dict):
            table = {(): table}
        shape, keys = self.tensor_shape(degree), self.index_keys(degree)
        block = self.block_dim(degree)
        tensors = {
            key: t if isinstance(t, Tensor) or len(t) != block else Tensor(shape, tuple(t))
            for key, t in table.items()
        }
        if tensors.keys() != set(keys) or any(
            not isinstance(t, Tensor) or t.shape != shape for t in tensors.values()
        ):
            raise InputError(f"cochain needs one tensor of shape {shape} per index tuple")
        cochain = Cochain(
            complex=self.tag,
            degree=degree,
            source_dim=self.source_dim,
            target_dim=self.target_dim,
            table={key: tensors[key] for key in keys},
        )
        if not self.membership_ok(cochain):
            raise InputError("cochain violates the membership constraint q o f = f o p^n")
        return cochain

    # -- degree guards -------------------------------------------------------

    def _guard_degree(self, degree):
        if degree < 0:
            raise InputError("degree must be nonnegative")
        if degree > self.degree_cap + 1:  # the differential at the cap reaches one past it
            raise _cap_error(self, degree, degree)
        limit = max(self.max_entries, EXACT_SIZE_LIMIT)
        est = self.raw_dim(degree, limit)
        self._guard_size(degree, est, f"{_about(est, limit)} tensor entries")
        # Dense arrays are bounded where they are built: the constraint
        # block, ``basis_vectors``, a differential matrix's entries and the
        # stencil walk (``_stencil_maps``, the only walker).
        if degree < self.first_degree:
            raise MissingUnitError("degree-0 cohomology needs a unit in the semigroup")

    def _guard_size(self, degree, size, what):
        """Refuse degree n's ``what`` when its size (None: beyond any limit) is over the budget."""
        if size is None or size > self.max_entries:
            message = f"degree {degree} needs {what}, beyond the budget {self.max_entries}"
            raise DegreeCapError(message, estimated_entries=size)

    # -- bases ----------------------------------------------------------------

    def supports(self, degree):
        """The constraint-kernel basis as sparse ((position, value), ...),
        lexicographic.  The raw constraint is block-diagonal with one
        identical block per index tuple, so the basis (unit on its free
        columns, hence unique) is the block's, placed at each key's offset."""
        if degree not in self._basis:
            self._guard_degree(degree)
            # Rows (k, i_vec) hold q's row k, nnz(q) g^n in all, and d nnz(p)^n products of p.
            nnz_p, nnz_q = (sum(1 for e in t.entries if e) for t in (self.source_map, self.target_map))
            bound = nnz_q * self.source_dim**degree + self.target_dim * nnz_p**degree
            self._guard_size(degree, bound, f"a constraint block of up to {bound} nonzeros")
            block_vecs = kernel_supports(self._constraint_matrix(degree))
            self._basis[degree] = [
                tuple((offset + j, c) for j, c in v)
                for offset in range(0, self.raw_dim(degree), self.block_dim(degree) or 1)
                for v in block_vecs
            ]
        return self._basis[degree]

    def basis_vectors(self, degree):
        """Coefficient vectors of the constraint-kernel basis, lexicographic."""
        supports, raw = self.supports(degree), self.raw_dim(degree)
        self._guard_size(degree, raw**2, f"a basis of up to {raw}x{raw} ({raw**2} entries)")
        return [densify(v, raw) for v in supports]

    def basis(self, degree):
        return [self.unflatten(degree, v) for v in self.basis_vectors(degree)]

    def combine(self, degree, coeffs):
        """Raw coordinates of sum_i coeffs[i] * (basis vector i)."""
        out = [ZERO] * self.raw_dim(degree)
        for c, support in zip(coeffs, self.supports(degree)):
            if c:
                for i, e in support:
                    out[i] += c * e
        return out

    def _constraint_matrix(self, degree):
        """One key's block of the membership constraint q o f = f o p^(x n),
        as integer column states over den = scale(q) scale(p)^n.

        Row (k, i_vec), column (k', j_vec):
            q[k][k'] [j=i] - [k'=k] prod_l p[j_l][i_l],
        the products taken over the supports of p's columns i_l.  Rows that
        vanish (all of them when p = q = id) do not change the kernel and
        are left out.  A polynomial p or q is read at scale 1 (``scaled``).
        """
        g, d = self.source_dim, self.target_dim
        m = g**degree
        (p_scale, p_values), (q_scale, q_values) = self.source_map.scaled, self.target_map.scaled
        p_units = p_scale**degree
        den = q_scale * p_units
        p_cols = [_sparse(p_values[i::g]) for i in range(g)]
        q_rows = [_sparse(q_values[k * d : (k + 1) * d]) for k in range(d)]
        # q_scale prod_l p[j_l][i_l] does not depend on k: one list per i_vec.
        weights = []
        for ivec in iproduct(range(g), repeat=degree):
            row = []
            for combo in iproduct(*(p_cols[i] for i in ivec)):
                jpos, w = 0, q_scale
                for jl, c in combo:
                    jpos, w = jpos * g + jl, w * c
                row.append((jpos, w))
            weights.append(row)
        columns, rows = [{} for _ in range(d * m)], 0
        for krow in range(d):
            for ipos in range(m):
                r = {}
                for kcol, e in q_rows[krow]:
                    r[kcol * m + ipos] = e * p_units
                for jpos, w in weights[ipos]:
                    col = krow * m + jpos
                    r[col] = r.get(col, 0) - w
                if any(r.values()):
                    for col, v in r.items():
                        columns[col][rows] = v
                    rows += 1
        return Matrix.from_column_states(rows, d * m, [(c, den) for c in columns], self.max_entries)

    # -- differentials ----------------------------------------------------------

    def differential(self, cochain):
        """D . f through the assembled maps; ``make_cochain`` validates the
        input and the output is checked for membership."""
        if cochain.complex != self.tag:
            raise InputError("cochain belongs to a different complex")
        cochain = self.make_cochain(cochain.degree, cochain.table)
        degree = cochain.degree
        out = self.unflatten(degree + 1, self.raw_differential(degree, self.flatten(cochain)))
        if not self.membership_ok(out):
            raise RouteMismatchError("differential output violates the membership constraint")
        return out

    def raw_differential(self, degree, vec):
        """D . vec in raw coordinates for any raw vector of the right length
        (membership is not required); for RBF the routes must agree
        (``_apply_maps``)."""
        if len(vec) != self.raw_dim(degree, len(vec)):
            raise InputError("coefficient vector has the wrong length")
        image, den = self._apply_maps(self._stencil_maps(degree), degree, _sparse(vec))
        return list(densify(((r, _read(v, den)) for r, v in image.items()), self.raw_dim(degree + 1)))

    def differential_matrix(self, degree):
        """The matrix of D from the degree-n basis to the next one, built
        from its columns' integer states (``Matrix.from_column_states``).

        Degree 0 sends each basis vector through ``differential``.  From
        degree 1 on, a space that is the whole raw space has the unit
        basis: when one map stands for every route, its images are the
        map's columns; otherwise each basis vector goes through
        ``_apply_maps``.  An image in a whole raw space is its own
        coordinates; in a constrained one it is rebuilt over the basis
        (``_coordinates``)."""
        if degree in self._matrix:
            return self._matrix[degree]
        vec_out = self.supports(degree + 1)
        if degree == 0:
            images = [_state(self.flatten(self.differential(b))) for b in self.basis(0)]
        else:
            maps, vec_in = self._stencil_maps(degree), self.supports(degree)
            size = sum(len(c) for cols, _ in maps for c in cols) + sum(map(len, vec_in + vec_out))
            self._guard_size(degree, size, f"{size} stencil and basis nonzeros for its differential")
            (cols, den), *others = _distinct(maps)
            if not others and len(vec_in) == len(cols):
                images = [({r: v for r, v in col.items() if v}, den) for col in cols]
            else:
                images = [self._apply_maps(maps, degree, b, f", on basis vector {j}") for j, b in enumerate(vec_in)]
        if len(vec_out) < self.raw_dim(degree + 1):
            images = _coordinates(images, vec_out)
        self._matrix[degree] = Matrix.from_column_states(len(vec_out), len(images), images, self.max_entries)
        return self._matrix[degree]

    def _stencil_maps(self, degree):
        """Raw differentials C^n -> C^(n+1), assembled once per degree, each
        as (columns, den) from ``_assemble_stencil``.

        RBF gets two, the direct and the generic one, whose term maps are
        built independently and compared exactly as the walker reads them
        (``_same_terms``).  When they agree, the walker runs once, on the
        direct stencil, and its map stands for both routes: it would walk
        equal arrays to an equal map.  When any term map differs, both are
        assembled and ``_apply_maps`` compares their images.  The others
        get one.  Degree 0 is the n = 0 case of the same stencils, refused
        below ``first_degree``.  ``_maps`` holds the maps of each degree
        and, under each stencil's tag, its term maps, built once per
        handle; a copy with ``_maps={}`` builds its own.
        """
        if degree in self._maps:
            return self._maps[degree]
        self._guard_degree(degree)
        # The walk covers raw(n+1) output rows with n merged slots of n-long
        # argument lists each, however small the spaces above are.
        limit = max(self.max_entries, EXACT_SIZE_LIMIT)
        walk = self.raw_dim(degree + 1, limit)
        walk = None if walk is None or walk * degree**2 > limit else walk * degree**2
        self._guard_size(degree, walk, f"a stencil walk of {_about(walk, limit)} steps")
        # Each stencil keeps its term maps in the handle's store for its tag,
        # shared by every degree.
        terms = self._maps.setdefault
        if self.tag == HA:
            stencils = [_ha_stencil(self.ha_module, degree, terms(HA, {}))]
        else:
            stencils = [_omega_stencil(self.omega_algebra, self.omega_module, degree, terms(OMEGA, {}))]
            if self.tag == RBF:
                stencils.insert(0, _rbf_stencil(self.operator, degree, terms(RBF, {})))
        if len(stencils) == 2 and _same_terms(self.index_keys(degree + 1), degree, *stencils):
            maps = [_assemble_stencil(self, degree, stencils[0])] * 2
        else:
            maps = [_assemble_stencil(self, degree, s) for s in stencils]
        self._maps[degree] = maps
        return maps

    def _apply_maps(self, maps, degree, support, where=""):
        """(state, den) of D . vec (``_apply_columns``), vec given by its nonzero ((position,
        value), ...), each distinct map applied once; RBF's two routes, when
        they are two maps, must agree, across denominators."""
        (image, den), *others = [_apply_columns(cols, d, support) for cols, d in _distinct(maps)]
        for other, oden in others:
            rows = [r for r in image.keys() | other.keys() if image.get(r, 0) * oden != other.get(r, 0) * den]
            if rows:
                key, entry = self._locate(degree + 1, min(rows))
                raise RouteMismatchError(
                    f"twisted-family differential routes disagree at index tuple {key}, "
                    f"entry {entry}{where}"
                )
        return image, den

    def _locate(self, degree, row):
        """(index tuple, tensor entry) of a raw coordinate position."""
        block = self.block_dim(degree)
        key = self.index_keys(degree)[row // block]
        flat, entry = row % block, []
        for extent in reversed(self.tensor_shape(degree)):
            flat, i = divmod(flat, extent)
            entry.append(i)
        return key, tuple(reversed(entry))


def ha_complex(algebra, module, degree_cap=DEFAULT_DEGREE_CAP, max_entries=DEFAULT_MAX_ENTRIES):
    """Complex of a Hom-associative algebra with coefficients in a bimodule."""
    ensure_valid(algebra, check_hom_algebra, "hom-algebra")
    ensure_valid(module, check_bimodule, "hom-bimodule")
    if module.parent != algebra:
        raise InputError("module is not over the given algebra")
    return ComplexHandle(
        tag=HA,
        source_dim=algebra.dim,
        target_dim=module.dim,
        source_map=algebra.p,
        target_map=module.q,
        omega=None,
        degree_cap=degree_cap,
        max_entries=max_entries,
        ha_module=module,
    )


def omega_complex(algebra, module, degree_cap=DEFAULT_DEGREE_CAP, max_entries=DEFAULT_MAX_ENTRIES):
    """Complex of a pair-indexed algebra with coefficients in a pair-indexed bimodule."""
    ensure_valid(algebra, check_omega_assoc, "pair-indexed algebra")
    ensure_valid(module, check_omega_bimodule, "pair-indexed bimodule")
    if module.parent != algebra:
        raise InputError("module is not over the given algebra")
    return ComplexHandle(
        tag=OMEGA,
        source_dim=algebra.dim,
        target_dim=module.dim,
        source_map=algebra.p,
        target_map=module.q,
        omega=algebra.omega,
        degree_cap=degree_cap,
        max_entries=max_entries,
        omega_algebra=algebra,
        omega_module=module,
    )


def rbf_complex(operator, degree_cap=DEFAULT_DEGREE_CAP, max_entries=DEFAULT_MAX_ENTRIES):
    """Complex of a twisted Rota-Baxter family.

    Source space is the module V (with map q), target the algebra L (with
    map p).  The induced total-product algebra on V and the pair-indexed
    bimodule structure on L are derived once and reused by the generic
    route of the differential.
    """
    derived_module = operator_bimodule(operator)
    return ComplexHandle(
        tag=RBF,
        source_dim=operator.bimodule.dim,
        target_dim=operator.algebra.dim,
        source_map=operator.bimodule.q,
        target_map=operator.algebra.p,
        omega=operator.omega,
        degree_cap=degree_cap,
        max_entries=max_entries,
        omega_algebra=derived_module.parent,
        omega_module=derived_module,
        operator=operator,
        notes=(
            "inserted-slot reading: arguments after the merged slot are the "
            "structure map applied to u_{i+2}..u_{n+1}; the direct formula is "
            "cross-checked against the generic pair-indexed differential on "
            "every call",
        ),
    )


# ---------------------------------------------------------------------------
# differentials from a raw-coordinate stencil
#
# A stencil holds the data-only parts of a degree-n differential, each one
# array (a ``Tensor`` or a ``Matrix``):
#   first(key)      T[k][a][k'], the map v -> first term acting on
#                   f[key[1:]][:, idx[1:]] when idx[0] = a;
#   last(key)       T[k][k'][a], the last term on f[key[:-1]][:, idx[:-1]]
#                   when idx[-1] = a;
#   merged(key, i)  M[j][a][b], the merged argument of slot i when
#                   (idx[i-1], idx[i]) = (a, b);
#   smap            the structure map on the source.
# In degree 0 key[1:] and key[:-1] are the empty key, whose semigroup
# product is the unit, and there is no merged slot.  Each term map is one
# signed sum of whole compositions (``linalg._compose_sum``), built once per
# handle and kept in its store (``_kept``) under the data it depends on,
# never per key, degree or cochain: a merged argument by its two semigroup
# indices, an end map by its indices and the exponent k of the power of the
# structure map it composes (``_exponent``: n - 1, or 0 when the map is the
# identity, so degrees with equal powers share it).  Where that power is the
# identity, a generic or Hochschild end map is the action itself.  The
# walker reads every array once per degree, through its cached ``scaled``
# view.

_Stencil = namedtuple("_Stencil", ["first", "last", "merged", "smap"])


def _sparse(v):
    return [(j, c) for j, c in enumerate(v) if c]


def _kept(terms, name):
    """Decorator: fn(*args) is built on its first call and kept in
    ``terms``, a handle's store, under (name, *args)."""

    def wrap(fn):
        def kept(*args):
            key = (name, *args)
            out = terms.get(key)
            if out is None:
                out = terms[key] = fn(*args)
            return out

        return kept

    return wrap


def _exponent(smap, degree):
    """k of the power smap^k = smap^max(n-1, 0) that a degree-n end map
    composes, 0 when smap is the identity pattern ``_compose`` skips."""
    if smap.rows_view is None:
        return 0
    return max(degree - 1, 0)


def _omega_stencil(algebra, module, degree, terms):
    """Generic pair-indexed stencil: with P = p^max(n-1, 0), the first term
    is left o (P x I) under the left action indexed by (key[0], product of
    key[1:]), the last term right o (I x P) indexed by (product of
    key[:-1], key[-1]), and the merged argument the pair-indexed product of
    slots i-1 and i.  An end map is kept by its indices and P's exponent k;
    when P is the identity (k = 0) it is the action itself."""
    omega = algebra.omega
    k = _exponent(algebra.p, degree)
    eye = Matrix.identity(module.dim)
    kept = partial(_kept, terms)

    @kept("power")
    def ppow(k):
        return algebra.p.power(k)

    @kept("first")
    def first(alpha, rest, k):
        act = module.left[alpha][rest]
        return _compose(act, [ppow(k), eye]) if k else act

    @kept("last")
    def last(head, beta, k):
        act = module.right[head][beta]
        return _compose(act, [eye, ppow(k)]) if k else act

    return _Stencil(
        first=lambda key: first(key[0], omega.product(key[1:]), k),
        last=lambda key: last(omega.product(key[:-1]), key[-1], k),
        merged=lambda key, i: algebra.prod[key[i - 1]][key[i]],
        smap=algebra.p,
    )


def _rbf_stencil(operator, degree, terms):
    """Direct twisted-family stencil on the operator's host data: with
    Q = q^max(n-1, 0), pi the product of key and a = key[0], the first term
    is mu o (R_a Q x I) - R_pi o right o (Q x I) - R_pi o phi o (R_a Q x I);
    the last term mirrors it with b = key[-1], mu o (I x R_b Q) -
    R_pi o left o (I x Q) - R_pi o phi o (I x R_b Q); the merged argument is
    ``twisted_inner_sum`` of slots i-1 and i, one basis pair at a time.
    The end maps are kept by (a or b, pi, k), k the exponent of Q, and the
    merged arguments by (a, b), for every degree."""
    A, module, phi, omega = (
        operator.algebra,
        operator.bimodule,
        operator.cocycle.phi,
        operator.omega,
    )
    d = module.dim
    k = _exponent(module.q, degree)
    eye = Matrix.identity(A.dim)
    vbasis = module.basis()
    kept = partial(_kept, terms)

    @kept("power")
    def qpow(k):
        return module.q.power(k)

    @kept("right_q")
    def right_q(k):
        return _compose(module.right, [qpow(k), eye])

    @kept("left_q")
    def left_q(k):
        return _compose(module.left, [eye, qpow(k)])

    @kept("r_q")
    def r_q(alpha, k):
        return operator.maps[alpha].mul(qpow(k))

    @kept("first")
    def first(alpha, pi, k):
        r_pi, ra_q = operator.maps[pi], r_q(alpha, k)
        twisted = _compose(phi, [ra_q, eye])
        return _compose_sum([(1, A.mu, [ra_q, eye]), (-1, r_pi, [right_q(k)]), (-1, r_pi, [twisted])])

    @kept("last")
    def last(beta, pi, k):
        r_pi, rb_q = operator.maps[pi], r_q(beta, k)
        twisted = _compose(phi, [eye, rb_q])
        return _compose_sum([(1, A.mu, [eye, rb_q]), (-1, r_pi, [left_q(k)]), (-1, r_pi, [twisted])])

    @kept("merged")
    def merged(alpha, beta):
        sums = [[twisted_inner_sum(operator, alpha, beta, u, v) for v in vbasis] for u in vbasis]
        return Tensor.from_function((d, d, d), lambda j, a, b: sums[a][b][j])

    return _Stencil(
        first=lambda key: first(key[0], omega.product(key), k),
        last=lambda key: last(key[-1], omega.product(key), k),
        merged=lambda key, i: merged(key[i - 1], key[i]),
        smap=module.q,
    )


def _ha_stencil(module, degree, terms):
    """Hochschild-type stencil (the terms of ``hochschild_differential``),
    its end maps kept by the exponent k of p^max(n-1, 0): the actions
    themselves when k = 0."""
    A = module.parent
    k = _exponent(A.p, degree)
    eye = Matrix.identity(module.dim)
    kept = partial(_kept, terms)

    @kept("ends")
    def ends(k):
        if not k:
            return module.left, module.right
        ppow = A.p.power(k)
        return _compose(module.left, [ppow, eye]), _compose(module.right, [eye, ppow])

    first, last = ends(k)
    return _Stencil(
        first=lambda key: first,
        last=lambda key: last,
        merged=lambda key, i: A.mu,
        smap=A.p,
    )


def _assemble_stencil(handle, degree, stencil):
    """Raw differential C^n -> C^(n+1) as (sparse columns {row: value}, den).

    Output entry (key, k, idx) is the first term on f[key[1:]][:, idx[1:]],
    plus sign_last times the last term on f[key[:-1]][:, idx[:-1]], plus,
    for each merged slot i, sgn_i * sum_j f[mkey_i][k, j] prod_l args_l[j_l].

    The columns hold values over one denominator ``den`` for the whole
    stencil, each array read through ``scaled``: a first or last term
    counts in units of its tensor's scale, a merged term in units of
    scale(smap)^(n-1) * scale(merged), and each is multiplied up to den, the
    lcm of those units.  The values are integer numerators, and a
    polynomial, read at scale 1, rides the same loop.
    """
    g, d, n = handle.source_dim, handle.target_dim, degree
    in_pos = {key: pos for pos, key in enumerate(handle.index_keys(n))}
    inner_in, inner_out = g**n, g ** (n + 1)
    block_in, block_out = d * inner_in, d * inner_out
    sign_last = 1 if (n + 1) % 2 == 0 else -1

    plan, ends, inner = [], {}, {}
    for opos, key in enumerate(handle.index_keys(n + 1)):
        if handle.tag == HA:
            # Hochschild type: every cochain lives under the empty key.
            tail = head = ()
            mkeys = [()] * n
        else:
            mul = handle.omega.mul
            tail, head = key[1:], key[:-1]
            mkeys = [key[: i - 1] + (mul(key[i - 1], key[i]),) + key[i + 1 :] for i in range(1, n + 1)]
        first, last = stencil.first(key), stencil.last(key)
        merged = [(i, in_pos[mk] * block_in, stencil.merged(key, i)) for i, mk in enumerate(mkeys, 1)]
        plan.append((opos, in_pos[tail] * block_in, in_pos[head] * block_in, first, last, merged))
        ends.update({id(first): first, id(last): last})
        inner.update((id(t), t) for _, _, t in merged)

    # Every distinct array is read once; den is the lcm of the terms' units.
    arrays = {**ends, **inner, id(stencil.smap): stencil.smap}
    scales = {key: t.scaled[0] for key, t in arrays.items()}
    # A merged term multiplies n - 1 entries of smap into its own.  An end
    # map kept as an action may be the very array of a merged term, so the
    # units are taken per role.
    args_scale = scales[id(stencil.smap)] ** max(n - 1, 0)
    den = lcm(*(scales[key] for key in ends), *(scales[key] * args_scale for key in inner))

    @cache
    def end_term(key, axis):
        # A first (axis 1, T[k][a][k']) or last (axis 2, T[k][k'][a]) term
        # map as (k, k', value) per a; the last carries its sign.
        m = den // scales[key] * (sign_last if axis == 2 else 1)
        out = [[] for _ in range(g)]
        for (k, x, y), c in zip(iproduct(*map(range, arrays[key].shape)), arrays[key].scaled[1]):
            if c:
                a, kp = (x, y) if axis == 1 else (y, x)
                out[a].append((k, kp, m * c))
        return out

    @cache
    def merged_table(key):
        # M[j][a][b] as (j, value) per (a, b).
        m = den // (scales[key] * args_scale)
        out = [[[] for _ in range(g)] for _ in range(g)]
        for (j, a, b), c in zip(iproduct(range(g), repeat=3), arrays[key].scaled[1]):
            if c:
                out[a][b].append((j, m * c))
        return out

    smap_values = stencil.smap.scaled[1]
    smap = [_sparse(smap_values[a::g]) for a in range(g)]
    cols = [{} for _ in range(len(in_pos) * block_in)]

    def add(col, row, c):
        entries = cols[col]
        entries[row] = entries.get(row, 0) + c

    for opos, tail0, head0, first, last, merged in plan:
        first, last = end_term(id(first), 1), end_term(id(last), 2)
        merged = [(i, m0, merged_table(id(t))) for i, m0, t in merged]
        for flat, idx in enumerate(iproduct(range(g), repeat=n + 1)):
            row = opos * block_out + flat
            col = tail0 + flat % inner_in
            for k, kp, c in first[idx[0]]:
                add(col + kp * inner_in, row + k * inner_out, c)
            col = head0 + flat // g
            for k, kp, c in last[idx[-1]]:
                add(col + kp * inner_in, row + k * inner_out, c)
            for i, m0, table in merged:
                args = [smap[a] for a in idx[: i - 1]]
                args.append(table[idx[i - 1]][idx[i]])
                args.extend(smap[a] for a in idx[i + 1 :])
                for combo in iproduct(*args):
                    j, w = 0, (-1 if i % 2 else 1)
                    for jl, c in combo:
                        j, w = j * g + jl, w * c
                    for k in range(d):
                        add(m0 + k * inner_in + j, row + k * inner_out, w)
    return cols, den


def _same_terms(keys, degree, direct, generic):
    """Whether two degree-n stencils hand ``_assemble_stencil`` the same
    arrays, compared as it reads them (``shape`` and ``scaled``): ``smap``,
    and the first, last and merged terms of every output key.  Each
    stencil's term maps are built in full before any is compared."""

    def arrays(stencil):
        out = [stencil.smap]
        for key in keys:
            out += [stencil.first(key), stencil.last(key), *(stencil.merged(key, i) for i in range(1, degree + 1))]
        return out

    pairs = {(id(a), id(b)): (a, b) for a, b in zip(arrays(direct), arrays(generic))}
    return all(a.shape == b.shape and a.scaled == b.scaled for a, b in pairs.values())


def _distinct(maps):
    """The maps of a degree, each one once, in order."""
    return list({id(m): m for m in maps}.values())


def _apply_columns(cols, den, support):
    """(state, den) of the product of the sparse columns {row: value} of
    ``_assemble_stencil`` with a sparse vector ((column, value), ...): the
    nonzero values {row: value} over den times the vector's scale, the
    vector read through ``linalg._scaled``."""
    scale, values = _scaled([e for _, e in support])
    out = {}
    for (c, _), e in zip(support, values):
        for r, v in cols[c].items():
            out[r] = out.get(r, 0) + e * v
    return {r: v for r, v in out.items() if v}, den * scale


def _coordinates(images, supports):
    """The coordinates (state, den) of each image (state, den) in the basis
    of ``supports``.  Each basis vector is 1 on its own free column (its
    last nonzero entry) and 0 on the others' free columns, so the
    coordinates of a member are its free-column entries.  The image is
    rebuilt from them over the supports, scaled to integers by one lcm, to
    check that it is a member."""
    free = {s[-1][0]: i for i, s in enumerate(supports)}
    scale = lcm(*{e.denominator for s in supports for _, e in s})
    scaled = [[(r, e.numerator * (scale // e.denominator)) for r, e in s] for s in supports]
    columns = []
    for image, den in images:
        coords, rebuilt = {}, {}
        for f, c in image.items():
            i = free.get(f)
            if i is not None:
                coords[i] = c
                for r, e in scaled[i]:
                    rebuilt[r] = rebuilt.get(r, 0) + c * e
        if {r: v for r, v in rebuilt.items() if v} != {r: scale * v for r, v in image.items()}:
            raise RouteMismatchError("differential image escaped the constrained cochain space")
        columns.append((coords, den))
    return columns


def _state(vec):
    """(state, den) of a raw vector, as ``_apply_columns`` gives an image."""
    scale, values = _scaled(vec)
    return dict(_sparse(values)), scale


# ---------------------------------------------------------------------------
# public operations


def cochain_basis(handle, degree):
    """Deterministic ordered basis of the degree-n cochain space."""
    return handle.basis(degree)


def cochain_size(target_dim, slots, degree, limit=None):
    """target_dim * slots**degree, or None when it exceeds ``limit``.

    ``slots`` counts the raw coordinates of one input slot (source
    dimension times semigroup size).  With a limit, slots**degree is only
    built when it has at most about twice the bits of the limit.
    """
    if limit is not None and degree * (slots.bit_length() - 1) > limit.bit_length():
        return None if target_dim else 0
    size = target_dim * slots**degree
    return size if limit is None or size <= limit else None


def _about(est, limit):
    return f"about {est}" if est is not None else f"more than {limit}"


def _cap_error(handle, degree, at, where=""):
    """The error for a degree over the cap, with the raw size of degree ``at``."""
    est = handle.raw_dim(at, EXACT_SIZE_LIMIT)
    estimate = f"estimated {est}" if est is not None else f"more than {EXACT_SIZE_LIMIT}"
    return DegreeCapError(
        f"degree {degree} exceeds the cap {handle.degree_cap} ({estimate} raw entries{where})",
        estimated_entries=est,
    )


def differential_matrix(handle, degree):
    """Matrix of the differential from the degree-n basis to the next one."""
    return handle.differential_matrix(degree)


def cohomology_dims(handle, degree):
    """(dim C, dim Z, dim B, dim H) at the requested degree, exactly."""
    if degree > handle.degree_cap:
        raise _cap_error(handle, degree, degree + 1, " at the next degree")
    dim_c = len(handle.supports(degree))
    dim_z = dim_c - rank(handle.differential_matrix(degree))
    # Nothing bounds in the first degree of the complex.
    dim_b = 0 if degree == handle.first_degree else rank(handle.differential_matrix(degree - 1))
    return CohomologyDims(dim_c=dim_c, dim_z=dim_z, dim_b=dim_b, dim_h=dim_z - dim_b)


def transport_cochain(morphism, cochain):
    """Move a cochain along an invertible morphism of twisted families.

    Degree n >= 1 sends f to psi o f o (phi^{-1})^(x n); degree 0 sends x
    to psi(x).  The chain-map law (transport then differentiate equals
    differentiate then transport) is asserted exactly at the input degree.
    """
    ensure_valid(morphism, check_operator_morphism, "operator morphism")
    src, tgt = morphism.source, morphism.target
    if src.bimodule != tgt.bimodule or src.algebra != tgt.algebra:
        raise InputError("cochain transport needs both families on one bimodule")
    source_handle, target_handle = rbf_complex(src), rbf_complex(tgt)
    if cochain.complex != RBF:
        raise InputError("only twisted-family cochains transport")
    phi_inv = invert_matrix(morphism.phi)
    out = _transported(morphism.psi, phi_inv, cochain, target_handle)
    lhs = _transported(morphism.psi, phi_inv, source_handle.differential(cochain), target_handle)
    rhs = target_handle.differential(out)
    for key in lhs.keys():
        if lhs.table[key].entries != rhs.table[key].entries:
            raise RouteMismatchError("cochain transport is not a chain map here")
    return out


def _transported(psi, phi_inv, cochain, target_handle):
    degree = cochain.degree
    table = {key: _compose(psi, [_compose(cochain.table[key], [phi_inv] * degree)]) for key in cochain.keys()}
    return target_handle.make_cochain(degree, table)
