"""Cochain complexes and cohomology dimensions.

Three complexes share one chassis:

* HA    - the Hochschild-type complex of a Hom-associative algebra with
          coefficients in a bimodule (no semigroup grading; the cochain
          table has the single empty key),
* OMEGA - the complex of a semigroup-pair-indexed associative algebra with
          coefficients in a pair-indexed bimodule,
* RBF   - the complex of a twisted Rota-Baxter family, whose differential
          is computed twice: once by the direct formula and once through
          the generic OMEGA differential on the induced total-product
          algebra and bimodule; the two must agree exactly.

Cochain spaces carry the equivariance membership constraint, enforced at
construction.  Bases, differential matrices and dimensions are exact and
deterministic.

In degree n >= 1 the differential of each complex is one linear map,
assembled in raw coordinates by one stencil walker shared by the three
complexes (each supplies a small stencil of probed linear maps and merged
arguments).  ``differential_matrix`` assembles it once and applies it to
every basis vector, ``differential`` to one member cochain; for RBF the
direct and the generic stencils are both assembled and every image is
compared.  Degree 0 is evaluated per cochain, by both routes for RBF.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cache
from itertools import product as iproduct

from .errors import (
    DegreeCapError,
    InputError,
    MissingUnitError,
    RouteMismatchError,
)
from .family import (
    check_omega_assoc,
    check_omega_bimodule,
    ns_family_from_operator,
    omega_assoc_from_ns_family,
    operator_bimodule,
)
from .homalg import (
    check_bimodule,
    check_hom_algebra,
    hochschild_differential,
    is_equivariant,
)
from .linalg import (
    ZERO,
    Matrix,
    Tensor,
    kernel_basis,
    multilinear_apply,
    rank,
    solve,
    tensor_column,
    unit_vector,
    vadd,
    vsub,
)
from .operators import check_twisted_rbf, twisted_inner_sum
from .reports import ensure_valid

DEFAULT_DEGREE_CAP = 2
DEFAULT_MAX_ENTRIES = 10**7

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

    def tensor(self, key):
        return self.table[key]

    def as_vector(self):
        if self.degree != 0:
            raise InputError("only degree-0 cochains collapse to a vector")
        return tuple(self.table[()].entries)

    def add(self, other):
        if (self.complex, self.degree) != (other.complex, other.degree):
            raise InputError("cochain mismatch")
        return Cochain(
            complex=self.complex,
            degree=self.degree,
            source_dim=self.source_dim,
            target_dim=self.target_dim,
            table={k: self.table[k].add(other.table[k]) for k in self.table},
        )

    def scale(self, c):
        return Cochain(
            complex=self.complex,
            degree=self.degree,
            source_dim=self.source_dim,
            target_dim=self.target_dim,
            table={k: t.scale(c) for k, t in self.table.items()},
        )

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

    # -- layout ------------------------------------------------------------

    def index_keys(self, degree):
        if degree == 0 or self.tag == HA:
            return [()]
        return list(iproduct(range(self.omega.size), repeat=degree))

    def tensor_shape(self, degree):
        return (self.target_dim,) + (self.source_dim,) * degree

    def block_dim(self, degree):
        """Entries of one index tuple's coefficient tensor."""
        return self.target_dim * self.source_dim**degree

    def raw_dim(self, degree):
        return len(self.index_keys(degree)) * self.block_dim(degree)

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

    def _constraint_trivial(self):
        return self.source_map.is_identity() and self.target_map.is_identity()

    def membership_ok(self, cochain):
        return is_equivariant(
            self.target_map, self.source_map, cochain.degree, cochain.table.values()
        )

    def make_cochain(self, degree, table):
        """Wrap and validate a user-supplied cochain (membership enforced here)."""
        self._guard_degree(degree, allow_plus_one=True)
        if degree == 0:
            vec = tuple(table) if isinstance(table, (tuple, list)) else tuple(table.entries)
            if len(vec) != self.target_dim:
                raise InputError("degree-0 cochain has the wrong length")
            cochain = Cochain(
                complex=self.tag,
                degree=0,
                source_dim=self.source_dim,
                target_dim=self.target_dim,
                table={(): Tensor((self.target_dim,), vec)},
            )
        else:
            keys = self.index_keys(degree)
            shape = self.tensor_shape(degree)
            normalized = {}
            for key in keys:
                if key not in table:
                    raise InputError(f"missing cochain table entry for index tuple {key}")
                t = table[key]
                if not isinstance(t, Tensor):
                    t = Tensor(shape, tuple(t))
                if t.shape != shape:
                    raise InputError(f"cochain tensor at {key} must have shape {shape}")
                normalized[key] = t
            if len(table) != len(keys):
                raise InputError("cochain table has unexpected extra keys")
            cochain = Cochain(
                complex=self.tag,
                degree=degree,
                source_dim=self.source_dim,
                target_dim=self.target_dim,
                table=normalized,
            )
        if not self.membership_ok(cochain):
            raise InputError(
                "cochain violates the equivariance membership constraint"
            )
        return cochain

    # -- degree guards -------------------------------------------------------

    def _guard_degree(self, degree, allow_plus_one=False):
        if degree < 0:
            raise InputError("degree must be nonnegative")
        cap = self.degree_cap + (1 if allow_plus_one else 0)
        if degree > cap:
            raise DegreeCapError(
                f"degree {degree} exceeds the cap {self.degree_cap} "
                f"(estimated {self.raw_dim(degree)} raw entries)",
                estimated_entries=self.raw_dim(degree),
            )
        est = self.raw_dim(degree)
        if est > self.max_entries:
            raise DegreeCapError(
                f"degree {degree} needs about {est} tensor entries, "
                f"beyond the budget {self.max_entries}",
                estimated_entries=est,
            )
        # The dense basis holds up to raw vectors of raw entries; this also
        # bounds the block x block constraint (block <= raw) and the
        # stencil's raw(n+1) x raw(n) nonzeros, guarded at degree n + 1.
        if est * est > self.max_entries:
            raise DegreeCapError(
                f"degree {degree} needs a basis of up to {est}x{est} "
                f"({est * est} entries), beyond the budget {self.max_entries}",
                estimated_entries=est * est,
            )
        if degree == 0 and self.tag in (OMEGA, RBF) and self.omega.unit is None:
            raise MissingUnitError(
                "degree-0 cohomology needs a unit in the semigroup"
            )

    # -- bases ----------------------------------------------------------------

    def basis_vectors(self, degree):
        """Coefficient vectors of the constraint-kernel basis, lexicographic."""
        if degree in self._basis:
            return self._basis[degree]
        self._guard_degree(degree, allow_plus_one=True)
        raw = self.raw_dim(degree)
        if degree == 0:
            mat = self.target_map.sub(Matrix.identity(self.target_dim))
            vecs = kernel_basis(mat)
        elif self._constraint_trivial():
            vecs = [unit_vector(raw, j) for j in range(raw)]
        else:
            # The constraint never mixes index tuples: its raw matrix is
            # block-diagonal with one identical block per key, so the raw
            # kernel basis (unit on its free columns, hence unique) is the
            # block's basis placed at each key's offset, in key order.
            block = self.block_dim(degree)
            block_vecs = kernel_basis(self._constraint_matrix(degree))
            vecs = [
                (ZERO,) * offset + v + (ZERO,) * (raw - block - offset)
                for offset in range(0, raw, block)
                for v in block_vecs
            ]
        self._basis[degree] = vecs
        return vecs

    def basis(self, degree):
        return [self.unflatten(degree, v) for v in self.basis_vectors(degree)]

    def _constraint_matrix(self, degree):
        """One key's block of the membership constraint q o f = f o p^(x n).

        Rows (k, i_vec), cols (k', j_vec):
            q[k][k'] [j=i] - [k'=k] prod_l p[j_l][i_l]
        """
        src, tgt = self.source_map, self.target_map
        d = self.target_dim
        in_idx = list(iproduct(range(self.source_dim), repeat=degree))
        m = len(in_idx)
        # prod_l p[j_l][i_l] does not depend on k: one row per i_vec.
        weights = []
        for ivec in in_idx:
            row = []
            for jpos, jvec in enumerate(in_idx):
                w = 1
                for jl, il in zip(jvec, ivec):
                    w = w * src.at(jl, il)
                    if not w:
                        break
                if w:
                    row.append((jpos, w))
            weights.append(row)
        entries = [[0] * (d * m) for _ in range(d * m)]
        for krow in range(d):
            for ipos in range(m):
                r = entries[krow * m + ipos]
                for kcol in range(d):
                    e = tgt.at(krow, kcol)
                    if e:
                        r[kcol * m + ipos] += e
                for jpos, w in weights[ipos]:
                    r[krow * m + jpos] -= w
        return Matrix.from_rows(entries)

    # -- differentials ----------------------------------------------------------

    def differential(self, cochain):
        if cochain.complex != self.tag:
            raise InputError("cochain belongs to a different complex")
        if self.tag == OMEGA:
            return omega_differential(self, cochain)
        if self.tag == RBF:
            return rbf_differential(self, cochain)
        if cochain.degree > 0:
            return self._image(cochain)
        return self.unflatten(1, hochschild_differential(self.ha_module, 0, cochain).entries)

    def _image(self, cochain):
        """D . f through the assembled maps of degree n >= 1, input and output checked."""
        degree = cochain.degree
        shape = self.tensor_shape(degree)
        if cochain.keys() != self.index_keys(degree) or any(
            t.shape != shape for t in cochain.table.values()
        ):
            raise InputError(f"cochain needs one tensor of shape {shape} per index tuple")
        if not self.membership_ok(cochain):
            raise InputError("cochain violates the membership constraint q o f = f o p^n")
        maps = self._stencil_maps(degree)
        out = self.unflatten(degree + 1, self._apply_maps(maps, degree, self.flatten(cochain)))
        if not self.membership_ok(out):
            raise RouteMismatchError("differential output violates the membership constraint")
        return out

    def differential_matrix(self, degree):
        if degree in self._matrix:
            return self._matrix[degree]
        if degree == 0:
            basis_in = self.basis(0)
            vec_out = self.basis_vectors(1)
            images = [self.flatten(self.differential(b)) for b in basis_in]
        else:
            basis_in = self.basis_vectors(degree)
            vec_out = self.basis_vectors(degree + 1)
            maps = self._stencil_maps(degree)
            images = [
                self._apply_maps(maps, degree, b, f", on basis vector {j}")
                for j, b in enumerate(basis_in)
            ]
        if self._constraint_trivial():
            columns = images
        else:
            # Each basis vector is 1 on its own free column (its last
            # nonzero entry) and 0 on the others' free columns, so the
            # coordinates of a member are its free-column entries.  Rebuild
            # the image from them to check that it is a member.
            support = [[(i, e) for i, e in enumerate(v) if e] for v in vec_out]
            free = [s[-1][0] for s in support]
            columns = []
            for image in images:
                coords = tuple(image[f] for f in free)
                rebuilt = [ZERO] * len(image)
                for c, s in zip(coords, support):
                    if c:
                        for i, e in s:
                            rebuilt[i] += c * e
                if rebuilt != list(image):
                    raise RouteMismatchError(
                        "differential image escaped the constrained cochain space"
                    )
                columns.append(coords)
        mat = Matrix.from_columns(columns, rows=len(vec_out))
        self._matrix[degree] = mat
        return mat

    def _stencil_maps(self, degree):
        """Raw differentials C^n -> C^(n+1), n >= 1, freshly assembled.

        RBF gets two, the direct and the generic one, assembled
        independently; the others get one.  They are not kept on the
        handle; the matrix built from them is.
        """
        if self.tag == HA:
            stencils = [_ha_stencil(self.ha_module, degree)]
        else:
            stencils = [_omega_stencil(self.omega_algebra, self.omega_module, degree)]
            if self.tag == RBF:
                stencils.insert(0, _rbf_stencil(self.operator, degree))
        return [_assemble_stencil(self, degree, s) for s in stencils]

    def _apply_maps(self, maps, degree, vec, where=""):
        """Raw image D . vec of each map; for RBF both routes' images must agree."""
        raw_out = self.raw_dim(degree + 1)
        image, *others = [_apply_columns(cols, vec, raw_out) for cols in maps]
        for other in others:
            if other != image:
                row = next(r for r, (x, y) in enumerate(zip(image, other)) if x != y)
                key, entry = self._locate(degree + 1, row)
                raise RouteMismatchError(
                    f"twisted-family differential routes disagree at index tuple {key}, "
                    f"entry {entry}{where}"
                )
        return image

    def _locate(self, degree, row):
        """(index tuple, tensor entry) of a raw coordinate position."""
        block = self.block_dim(degree)
        key = self.index_keys(degree)[row // block]
        flat, entry = row % block, []
        for extent in reversed(self.tensor_shape(degree)):
            flat, i = divmod(flat, extent)
            entry.append(i)
        return key, tuple(reversed(entry))


def _check_degree0_unit(handle):
    if handle.tag in (OMEGA, RBF) and handle.omega.unit is None:
        raise MissingUnitError("degree-0 differential needs a unit in the semigroup")


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
    ensure_valid(operator, check_twisted_rbf, "twisted Rota-Baxter family")
    derived_algebra = omega_assoc_from_ns_family(
        ns_family_from_operator(operator, validate=False), validate=False
    )
    derived_module = operator_bimodule(operator, validate=False)
    return ComplexHandle(
        tag=RBF,
        source_dim=operator.bimodule.dim,
        target_dim=operator.algebra.dim,
        source_map=operator.bimodule.q,
        target_map=operator.algebra.p,
        omega=operator.omega,
        degree_cap=degree_cap,
        max_entries=max_entries,
        omega_algebra=derived_algebra,
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
# differentials


def _omega_delta0_tables(algebra, module, u):
    omega = algebra.omega
    unit = omega.unit
    g, d = algebra.dim, module.dim
    out = {}
    for alpha in omega.elements():
        cols = [
            vsub(
                module.act_l(alpha, unit, unit_vector(g, j), u),
                module.act_r(unit, alpha, u, unit_vector(g, j)),
            )
            for j in range(g)
        ]
        out[(alpha,)] = Tensor.from_function((d, g), lambda k, j: cols[j][k])
    return out


def omega_differential(handle, cochain):
    """Differential of the pair-indexed complex (Ω-graded Hochschild shape)."""
    if handle.tag != OMEGA:
        raise InputError("omega_differential needs an OMEGA handle")
    if cochain.complex != OMEGA:
        raise InputError("cochain belongs to a different complex")
    if cochain.degree > 0:
        return handle._image(cochain)
    _check_degree0_unit(handle)
    table = _omega_delta0_tables(handle.omega_algebra, handle.omega_module, cochain.as_vector())
    out = Cochain(
        complex=OMEGA,
        degree=1,
        source_dim=handle.source_dim,
        target_dim=handle.target_dim,
        table=table,
    )
    if not handle.membership_ok(out):
        raise RouteMismatchError("differential output violates the membership constraint")
    return out


def _rbf_delta0_tables(handle, x):
    operator = handle.operator
    A, module, phi, omega = (
        operator.algebra,
        operator.bimodule,
        operator.cocycle,
        operator.omega,
    )
    d = module.dim
    out = {}
    for alpha in omega.elements():
        r_a = operator.maps[alpha]
        cols = []
        for a in range(d):
            u = module.basis()[a]
            ru = r_a.column(a)
            val = vsub(A.product(ru, x), r_a.apply(module.act_r(u, x)))
            val = vsub(val, r_a.apply(phi.apply(ru, x)))
            val = vsub(val, A.product(x, ru))
            val = vadd(val, r_a.apply(module.act_l(x, u)))
            val = vadd(val, r_a.apply(phi.apply(x, ru)))
            cols.append(val)
        out[(alpha,)] = Tensor.from_function((A.dim, d), lambda k, a: cols[a][k])
    return out


def rbf_differential(handle, cochain):
    """Differential of the twisted-family complex, computed by both routes.

    The direct formula and the generic pair-indexed differential on the
    induced data are evaluated independently and must agree entrywise; in
    degree n >= 1 both are the handle's assembled maps.
    """
    if handle.tag != RBF:
        raise InputError("rbf_differential needs an RBF handle")
    if cochain.complex != RBF:
        raise InputError("cochain belongs to a different complex")
    if cochain.degree > 0:
        return handle._image(cochain)
    _check_degree0_unit(handle)
    direct = _rbf_delta0_tables(handle, cochain.as_vector())
    generic = _omega_delta0_tables(handle.omega_algebra, handle.omega_module, cochain.as_vector())
    for key in direct:
        if direct[key].entries != generic[key].entries:
            raise RouteMismatchError(
                f"twisted-family differential routes disagree at index tuple {key}"
            )
    out = Cochain(
        complex=RBF,
        degree=1,
        source_dim=handle.source_dim,
        target_dim=handle.target_dim,
        table=direct,
    )
    if not handle.membership_ok(out):
        raise RouteMismatchError("differential output violates the membership constraint")
    return out


# ---------------------------------------------------------------------------
# differentials of degree n >= 1 from a raw-coordinate stencil
#
# A stencil holds the data-only parts of a degree-n differential (n >= 1):
#   first(key)[a]   nonzero entries (k, k', c) of the map v -> first term,
#                   acting on f[key[1:]][:, idx[1:]] when idx[0] = a;
#   last(key)[a]    the same for the last term on f[key[:-1]][:, idx[:-1]]
#                   when idx[-1] = a;
#   merged(key, i)  [a][b] -> sparse merged argument of slot i when
#                   (idx[i-1], idx[i]) = (a, b);
#   smap[a]         sparse column a of the structure map on the source.
# Each linear map is probed once on unit vectors and cached per the data
# it depends on, never per key or per cochain.

_Stencil = namedtuple("_Stencil", ["first", "last", "merged", "smap"])


def _sparse(v):
    return [(j, c) for j, c in enumerate(v) if c]


def _probe(fn, dim):
    """Nonzero entries (k, k', c) of a linear map on a dim-space."""
    return [(k, kp, c) for kp in range(dim) for k, c in enumerate(fn(unit_vector(dim, kp))) if c]


def _omega_stencil(algebra, module, degree):
    """Generic pair-indexed stencil: with x = p^(n-1) e_idx[0] and
    y = p^(n-1) e_idx[-1], the first term is x .l f[key[1:]] under the left
    action indexed by (key[0], product of key[1:]), the last term is
    f[key[:-1]] .r y indexed by (product of key[:-1], key[-1]), and the
    merged argument is the pair-indexed product of slots i-1 and i."""
    omega, g, d = algebra.omega, algebra.dim, module.dim
    ppow = algebra.p.power(degree - 1)
    ppow_cols = [ppow.column(j) for j in range(g)]

    @cache
    def first(alpha, rest):
        return [_probe(lambda v: module.act_l(alpha, rest, x, v), d) for x in ppow_cols]

    @cache
    def last(head, beta):
        return [_probe(lambda v: module.act_r(head, beta, v, x), d) for x in ppow_cols]

    @cache
    def merged(alpha, beta):
        t = algebra.prod[alpha][beta]
        return [[_sparse(tensor_column(t, (a, b))) for b in range(g)] for a in range(g)]

    return _Stencil(
        first=lambda key: first(key[0], omega.product(key[1:])),
        last=lambda key: last(omega.product(key[:-1]), key[-1]),
        merged=lambda key, i: merged(key[i - 1], key[i]),
        smap=[_sparse(algebra.p.column(j)) for j in range(g)],
    )


def _rbf_stencil(operator, degree):
    """Direct twisted-family stencil: with u = q^(n-1) e_idx[0], pi the
    product of key and x = f[key[1:]], the first term is
    R_key[0] u . x - R_pi(u .r x) - R_pi phi(R_key[0] u, x); the last term
    mirrors it on f[key[:-1]] and q^(n-1) e_idx[-1]; the merged argument
    is ``twisted_inner_sum`` of slots i-1 and i."""
    A, module, phi, omega = (
        operator.algebra,
        operator.bimodule,
        operator.cocycle,
        operator.omega,
    )
    n, d = A.dim, module.dim
    qpow = module.q.power(degree - 1)
    qpow_cols = [qpow.column(a) for a in range(d)]
    vbasis = module.basis()

    @cache
    def first(alpha, pi):
        r_pi = operator.maps[pi]

        def term(u1):
            r1u1 = operator.maps[alpha].apply(u1)
            return _probe(
                lambda x: vsub(
                    vsub(A.product(r1u1, x), r_pi.apply(module.act_r(u1, x))),
                    r_pi.apply(phi.apply(r1u1, x)),
                ),
                n,
            )

        return [term(u1) for u1 in qpow_cols]

    @cache
    def last(beta, pi):
        r_pi = operator.maps[pi]

        def term(un1):
            rn1un1 = operator.maps[beta].apply(un1)
            return _probe(
                lambda x: vsub(
                    vsub(A.product(x, rn1un1), r_pi.apply(module.act_l(x, un1))),
                    r_pi.apply(phi.apply(x, rn1un1)),
                ),
                n,
            )

        return [term(un1) for un1 in qpow_cols]

    @cache
    def merged(alpha, beta):
        return [
            [_sparse(twisted_inner_sum(operator, alpha, beta, vbasis[a], vbasis[b])) for b in range(d)]
            for a in range(d)
        ]

    return _Stencil(
        first=lambda key: first(key[0], omega.product(key)),
        last=lambda key: last(key[-1], omega.product(key)),
        merged=lambda key, i: merged(key[i - 1], key[i]),
        smap=[_sparse(module.q.column(a)) for a in range(d)],
    )


def _ha_stencil(module, degree):
    """Hochschild-type stencil (the terms of ``hochschild_differential``)."""
    A, d = module.parent, module.dim
    ppow = A.p.power(degree - 1)
    ppow_cols = [ppow.column(j) for j in range(A.dim)]
    first = [_probe(lambda v: module.act_l(x, v), d) for x in ppow_cols]
    last = [_probe(lambda v: module.act_r(v, x), d) for x in ppow_cols]
    merged = [[_sparse(A.basis_product(a, b)) for b in range(A.dim)] for a in range(A.dim)]
    return _Stencil(
        first=lambda key: first,
        last=lambda key: last,
        merged=lambda key, i: merged,
        smap=[_sparse(A.p.column(j)) for j in range(A.dim)],
    )


def _assemble_stencil(handle, degree, stencil):
    """Raw differential C^n -> C^(n+1), n >= 1, as sparse columns {row: value}.

    Output entry (key, k, idx) is the first term on f[key[1:]][:, idx[1:]],
    plus sign_last times the last term on f[key[:-1]][:, idx[:-1]], plus,
    for each merged slot i, sgn_i * sum_j f[mkey_i][k, j] prod_l args_l[j_l].
    """
    g, d, n = handle.source_dim, handle.target_dim, degree
    in_pos = {key: pos for pos, key in enumerate(handle.index_keys(n))}
    inner_in, inner_out = g**n, g ** (n + 1)
    block_in, block_out = d * inner_in, d * inner_out
    cols = [{} for _ in range(len(in_pos) * block_in)]
    sign_last = 1 if (n + 1) % 2 == 0 else -1
    smap = stencil.smap

    def add(col, row, c):
        entries = cols[col]
        entries[row] = entries.get(row, ZERO) + c

    for opos, key in enumerate(handle.index_keys(n + 1)):
        if handle.tag == HA:
            # Hochschild type: every cochain lives under the empty key.
            tail = head = ()
            mkeys = [()] * n
        else:
            mul = handle.omega.mul
            tail, head = key[1:], key[:-1]
            mkeys = [key[: i - 1] + (mul(key[i - 1], key[i]),) + key[i + 1 :] for i in range(1, n + 1)]
        tail0, head0 = in_pos[tail] * block_in, in_pos[head] * block_in
        first, last = stencil.first(key), stencil.last(key)
        merged = [(i, in_pos[mk] * block_in, stencil.merged(key, i)) for i, mk in enumerate(mkeys, 1)]
        for flat, idx in enumerate(iproduct(range(g), repeat=n + 1)):
            row = opos * block_out + flat
            col = tail0 + flat % inner_in
            for k, kp, c in first[idx[0]]:
                add(col + kp * inner_in, row + k * inner_out, c)
            col = head0 + flat // g
            for k, kp, c in last[idx[-1]]:
                add(col + kp * inner_in, row + k * inner_out, sign_last * c)
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
    return cols


def _apply_columns(cols, vec, rows):
    """Dense product of sparse columns {row: value} with a coefficient vector."""
    out = [ZERO] * rows
    for c, e in enumerate(vec):
        if e:
            for r, v in cols[c].items():
                out[r] += e * v
    return out


# ---------------------------------------------------------------------------
# public operations


def cochain_basis(handle, degree):
    """Deterministic ordered basis of the degree-n cochain space."""
    return handle.basis(degree)


def differential_matrix(handle, degree):
    """Matrix of the differential from the degree-n basis to the next one."""
    return handle.differential_matrix(degree)


def cohomology_dims(handle, degree):
    """(dim C, dim Z, dim B, dim H) at the requested degree, exactly."""
    if degree < 0:
        raise InputError("degree must be nonnegative")
    if degree > handle.degree_cap:
        raise DegreeCapError(
            f"degree {degree} exceeds the cap {handle.degree_cap} "
            f"(estimated {handle.raw_dim(degree + 1)} raw entries at the next degree)",
            estimated_entries=handle.raw_dim(degree + 1),
        )
    dim_c = len(handle.basis_vectors(degree))
    m_n = handle.differential_matrix(degree)
    dim_z = dim_c - rank(m_n)
    if degree == 0:
        dim_b = 0
    elif (
        degree == 1
        and handle.tag in (OMEGA, RBF)
        and handle.omega.unit is None
    ):
        # Without a unit the complex starts at degree 1, so nothing bounds.
        dim_b = 0
    else:
        m_prev = handle.differential_matrix(degree - 1)
        dim_b = rank(m_prev)
    return CohomologyDims(dim_c=dim_c, dim_z=dim_z, dim_b=dim_b, dim_h=dim_z - dim_b)


def invert_matrix(mat):
    if mat.rows != mat.cols:
        raise InputError("only square matrices invert")
    cols = []
    for i in range(mat.rows):
        sol = solve(mat, unit_vector(mat.rows, i))
        if sol is None or sol[1]:
            raise InputError("matrix is not invertible")
        cols.append(sol[0])
    return Matrix.from_columns(cols, rows=mat.rows)


def transport_cochain(morphism, cochain, source_handle=None, target_handle=None):
    """Move a cochain along an invertible morphism of twisted families.

    Degree n >= 1 sends f to psi o f o (phi^{-1})^(x n); degree 0 sends x
    to psi(x).  The chain-map law (transport then differentiate equals
    differentiate then transport) is asserted exactly at the input degree.
    """
    from .operators import check_operator_morphism
    from .reports import require_pass

    require_pass(check_operator_morphism(morphism), "operator morphism")
    src, tgt = morphism.source, morphism.target
    if src.bimodule != tgt.bimodule or src.algebra != tgt.algebra:
        raise InputError("cochain transport needs both families on one bimodule")
    if source_handle is None:
        source_handle = rbf_complex(src)
    if target_handle is None:
        target_handle = rbf_complex(tgt)
    if cochain.complex != RBF:
        raise InputError("only twisted-family cochains transport")
    out = transport_cochain_unchecked(morphism, cochain, target_handle)
    lhs = transport_cochain_unchecked(morphism, source_handle.differential(cochain), target_handle)
    rhs = target_handle.differential(out)
    for key in lhs.keys():
        if lhs.table[key].entries != rhs.table[key].entries:
            raise RouteMismatchError("cochain transport is not a chain map here")
    return out


def transport_cochain_unchecked(morphism, cochain, target_handle):
    phi_inv = invert_matrix(morphism.phi)
    psi = morphism.psi
    degree = cochain.degree
    if degree == 0:
        return target_handle.make_cochain(0, psi.apply(cochain.as_vector()))
    d = cochain.source_dim
    inv_cols = [phi_inv.column(a) for a in range(d)]
    table = {}
    for key in cochain.keys():
        t = cochain.table[key]
        cols = {}
        for idx in iproduct(range(d), repeat=degree):
            cols[idx] = psi.apply(multilinear_apply(t, [inv_cols[a] for a in idx]))
        table[key] = Tensor.from_function(t.shape, lambda k, *idx: cols[idx][k])
    return target_handle.make_cochain(degree, table)
