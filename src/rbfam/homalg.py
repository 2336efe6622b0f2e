"""Hom-associative algebras, bimodules, 2-cocycles and their constructions.

All structures are structure-constant tensors on a chosen basis.  Axioms
are verified on basis tuples (multilinearity makes that sufficient) and
failures are report outcomes, never exceptions; only shape problems raise.

Packed bases for a space tensored with the semigroup algebra are ordered
with the semigroup index major: the pair (i, a) sits at position a*dim + i,
keeping each semigroup block contiguous.  Two bodies own that layout:
``graded_tensor`` for a graded bilinear map, and ``_packed_data`` for a
packed algebra with L as a bimodule over it and a cocycle in L.  Every
packed construction goes through them; nothing else decodes a packed index.
They, and ``semidirect_product``, place each block's entries at its
offsets (``_placed``), reading each block once.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .errors import InputError, RouteMismatchError
from .linalg import (
    ZERO,
    Matrix,
    Tensor,
    _contract_supports,
    _multipliers,
    _read,
    _support,
    block_diag,
    multilinear_apply,
    tensor_column,
    unit_vector,
)
from .reports import (
    DEFAULT_MAX_VIOLATIONS,
    CheckReport,
    ensure_valid,
    intertwining_cases,
    intertwining_residual,
    nested_cases,
    run_law,
)
from .scalars import ensure_scalar
from .semigroups import FiniteSemigroup


@dataclass(frozen=True)
class HomAlgebra:
    """(L, mu, p): mu[k][i][j] is the e_k coefficient of e_i * e_j."""

    dim: int
    mu: Tensor
    p: Matrix

    def __post_init__(self):
        n = self.dim
        if self.mu.shape != (n, n, n):
            raise InputError(f"mu must have shape {(n, n, n)}, got {self.mu.shape}")
        if (self.p.rows, self.p.cols) != (n, n):
            raise InputError("p must be a square matrix of the algebra dimension")

    def product(self, x, y):
        return multilinear_apply(self.mu, [x, y])

    def basis_product(self, i, j):
        return tensor_column(self.mu, (i, j))

    def basis(self):
        return [unit_vector(self.dim, i) for i in range(self.dim)]


@dataclass(frozen=True)
class HomBimodule:
    """(V, left, right, q) over a HomAlgebra; left is x .l u, right is u .r x."""

    parent: HomAlgebra
    dim: int
    left: Tensor
    right: Tensor
    q: Matrix

    def __post_init__(self):
        n, d = self.parent.dim, self.dim
        if self.left.shape != (d, n, d):
            raise InputError(f"left action must have shape {(d, n, d)}, got {self.left.shape}")
        if self.right.shape != (d, d, n):
            raise InputError(f"right action must have shape {(d, d, n)}, got {self.right.shape}")
        if (self.q.rows, self.q.cols) != (d, d):
            raise InputError("q must be a square matrix of the module dimension")

    def act_l(self, x, u):
        return multilinear_apply(self.left, [x, u])

    def act_r(self, u, x):
        return multilinear_apply(self.right, [u, x])

    def basis(self):
        return [unit_vector(self.dim, a) for a in range(self.dim)]


@dataclass(frozen=True)
class TwoCocycle:
    """Bilinear Phi: L x L -> V as a coefficient tensor phi[a][i][j]."""

    host: HomBimodule
    phi: Tensor

    def __post_init__(self):
        n, d = self.host.parent.dim, self.host.dim
        if self.phi.shape != (d, n, n):
            raise InputError(f"phi must have shape {(d, n, n)}, got {self.phi.shape}")

    @property
    def algebra(self):
        return self.host.parent

    def apply(self, x, y):
        return multilinear_apply(self.phi, [x, y])


@dataclass(frozen=True)
class AlgebraMorphism:
    source: HomAlgebra
    target: HomAlgebra
    psi: Matrix

    def __post_init__(self):
        if (self.psi.rows, self.psi.cols) != (self.target.dim, self.source.dim):
            raise InputError("psi shape does not match source/target dimensions")


def zero_cocycle(module):
    n, d = module.parent.dim, module.dim
    return TwoCocycle(host=module, phi=Tensor.zero((d, n, n)))


# ---------------------------------------------------------------------------
# checkers


def check_hom_algebra(cand, max_violations=DEFAULT_MAX_VIOLATIONS):
    report = CheckReport(subject=f"hom-algebra (dim {cand.dim})")
    p, mu = cand.p, cand.mu
    multiplicativity = intertwining_cases(p, mu, mu, [p, p], ("x", "y"))
    hom_associativity = nested_cases(p, p, [(1, mu, mu, False), (-1, mu, mu, True)], ("x", "y", "z"))
    run_law(report, "p(x.y) = p(x).p(y)", multiplicativity, max_violations)
    run_law(report, "p(x).(y.z) = (x.y).p(z)", hom_associativity, max_violations)
    return report


def check_bimodule(cand, max_violations=DEFAULT_MAX_VIOLATIONS):
    report = CheckReport(subject=f"hom-bimodule (dim {cand.dim})")
    p, q = cand.parent.p, cand.q
    mu, left, right = cand.parent.mu, cand.left, cand.right
    q_left = intertwining_cases(q, left, left, [p, q], ("x", "u"))
    q_right = intertwining_cases(q, right, right, [q, p], ("u", "x"))
    right_right = nested_cases(q, p, [(1, right, mu, False), (-1, right, right, True)], ("u", "x", "y"))
    left_right = nested_cases(p, p, [(1, left, right, False), (-1, right, left, True)], ("x", "u", "y"))
    left_left = nested_cases(p, q, [(1, left, left, False), (-1, left, mu, True)], ("x", "y", "u"))
    run_law(report, "q(x.l u) = p(x).l q(u)", q_left, max_violations)
    run_law(report, "q(u.r x) = q(u).r p(x)", q_right, max_violations)
    run_law(report, "q(u).r (x.y) = (u.r x).r p(y)", right_right, max_violations)
    run_law(report, "p(x).l (u.r y) = (x.l u).r p(y)", left_right, max_violations)
    run_law(report, "p(x).l (y.l u) = (x.y).l q(u)", left_left, max_violations)
    return report


def check_algebra_morphism(m, max_violations=DEFAULT_MAX_VIOLATIONS):
    report = CheckReport(subject="algebra morphism")
    src, tgt, psi = m.source, m.target, m.psi
    multiplicative = intertwining_cases(psi, src.mu, tgt.mu, [psi, psi], ("x", "y"))
    intertwines = intertwining_cases(psi, src.p, tgt.p, [psi], ("x",))
    run_law(report, "psi(x.y) = psi(x).psi(y)", multiplicative, max_violations)
    run_law(report, "psi(p(x)) = p'(psi(x))", intertwines, max_violations)
    return report


# ---------------------------------------------------------------------------
# Hochschild-type complex


def is_equivariant(q, p, degree, tensors):
    """Cochain membership q o f = f o p^(x n) on all basis tuples, for every f.

    Each f in ``tensors`` is a coefficient tensor with ``degree`` input
    axes (or, in degree 1, a matrix); in degree 0 it is a vector (tuple or
    tensor) and the condition is q(u) = u.  The law is the intertwining law
    of ``reports.intertwining_cases`` with out = q, T = T' = f, in = p,
    read as one residual state through ``intertwining_residual``: no
    where-dict and no residual column.
    """
    if degree and q.is_identity() and p.is_identity():
        return True
    tensors = (Tensor((len(f),), f) if isinstance(f, tuple) else f for f in tensors)
    return not any(any(intertwining_residual(q, f, f, [p] * degree)[0].values()) for f in tensors)


def hochschild_differential(module, degree, f):
    """Differential of the Hom-type Hochschild complex of L with values in V.

    ``f`` is a coefficient tensor of shape (d, n..n) with ``degree`` input
    axes (in degree 0 a vector: a tuple, list or tensor).  Degree 0 is the
    n = 0 case of the same formula, u -> x .l u - u .r x with p^0 = id.
    The input must satisfy the membership constraint q o f = f o p^(x degree);
    the output satisfies it one degree higher.
    """
    A = module.parent
    n, d = A.dim, module.dim
    if degree < 0:
        raise InputError("degree must be nonnegative")
    if degree == 0:
        u = tuple(f) if isinstance(f, (tuple, list)) else tuple(f.entries)
        if len(u) != d:
            raise InputError("degree-0 cochain has wrong length")
        f = Tensor((d,), u)
    if f.shape != (d,) + (n,) * degree:
        raise InputError(f"cochain tensor must have shape {(d,) + (n,) * degree}")
    if not is_equivariant(module.q, A.p, degree, [f]):
        if degree == 0:
            raise InputError("degree-0 cochain violates q(u) = u")
        raise InputError("cochain violates the membership constraint q o f = f o p^n")

    # Every term is a contraction of hoisted columns: act_l on a column of
    # p^(n-1) and one of f, act_r on a column of f and one of p^(n-1), and
    # f on columns of p and one basis product.  Each term's numerators count
    # in units of 1/dens[t]; its tensor's columns carry the sign and the
    # factor to the common denominator.  Each array is read through
    # ``scaled``, so a polynomial rides the same loop at scale 1.
    p_pow = A.p.power(max(degree - 1, 0))
    arrays = (module.left, module.right, f, A.p, p_pow, A.mu)
    (s_left, s_right, s_f, s_p, s_ppow, s_mu), (_, _, fv, p, ppow, mu) = zip(*(t.scaled for t in arrays))
    sign_last = 1 if (degree + 1) % 2 == 0 else -1
    dens = (s_left * s_ppow * s_f, s_right * s_f * s_ppow, s_f * s_p ** max(degree - 1, 0) * s_mu)
    (m_left, m_right, m_f), den = _multipliers((1, sign_last, 1), dens)

    def columns(t, m):
        return [tuple((k, c * m) for k, c in column) for column in t.columns[1]]

    act_l, act_r = columns(module.left, m_left), columns(module.right, m_right)
    # The i-th inner term carries the sign (-1)^i: f_terms[i % 2].
    f_terms = (columns(f, m_f), columns(f, -m_f))
    f_inner = n**degree
    f_cols = [fv[j::f_inner] for j in range(f_inner)]
    ppow_cols = [ppow[j::n] for j in range(n)]
    # Each hoisted column's support is built once per stride it is read at
    # (``linalg._supports``): act_l reads (p^(n-1), f) columns at strides
    # (d, 1), act_r (f, p^(n-1)) at (n, 1), and slot s of an f term reads a
    # column of p or a basis product at n^(degree-1-s).
    l_ppow, l_f = [_support(c, d) for c in ppow_cols], [_support(c, 1) for c in f_cols]
    r_f, r_ppow = [_support(c, n) for c in f_cols], [_support(c, 1) for c in ppow_cols]
    strides = [n ** (degree - 1 - s) for s in range(degree)]
    p_at = [[_support(p[j::n], stride) for j in range(n)] for stride in strides]
    products_at = [[_support(mu[j :: n * n], stride) for j in range(n * n)] for stride in strides]

    inner = n ** (degree + 1)
    out = [ZERO] * (d * inner)
    for flat, idx in enumerate(iproduct(range(n), repeat=degree + 1)):
        acc = _contract_supports(act_l, [l_ppow[idx[0]], l_f[flat % f_inner]], [0] * d)
        _contract_supports(act_r, [r_f[flat // n], r_ppow[idx[-1]]], acc)
        for i in range(1, degree + 1):
            supports = [p_at[s][idx[s]] for s in range(i - 1)]
            supports.append(products_at[i - 1][idx[i - 1] * n + idx[i]])
            supports.extend(p_at[s][idx[s + 1]] for s in range(i, degree))
            _contract_supports(f_terms[i % 2], supports, acc)
        for k, v in enumerate(acc):
            out[k * inner + flat] = _read(v, den)
    result = Tensor((d,) + (n,) * (degree + 1), tuple(out))
    if not is_equivariant(module.q, A.p, degree + 1, [result]):
        raise RouteMismatchError(
            "differential output violates the membership constraint; "
            "the underlying bimodule most likely fails its axioms"
        )
    return result


def check_two_cocycle(cand, max_violations=DEFAULT_MAX_VIOLATIONS):
    """Verify the degree-2 cocycle laws through both available routes.

    Route one evaluates the equivariance and cocycle identities directly;
    route two checks membership in the degree-2 cochain space plus the
    vanishing of the Hochschild-type differential.  The two routes must
    agree tuple by tuple.
    """
    module = cand.host
    A = module.parent
    n = A.dim
    p, q = A.p, module.q
    report = CheckReport(subject="two-cocycle")

    equivariance = intertwining_cases(q, cand.phi, cand.phi, [p, p], ("x", "y"))
    ok_eq = run_law(report, "q phi(x,y) = phi(p x, p y)", equivariance, max_violations)
    phi, mu = cand.phi, A.mu
    terms = [
        (1, module.left, phi, False),
        (-1, module.right, phi, True),
        (-1, phi, mu, True),
        (1, phi, mu, False),
    ]
    direct = list(nested_cases(p, p, terms, ("x1", "x2", "x3")))
    run_law(
        report,
        "p(x1).l phi(x2,x3) - phi(x1,x2).r p(x3) - phi(x1.x2, p x3) + phi(p x1, x2.x3) = 0",
        iter(direct),
        max_violations,
    )
    if ok_eq:
        d2 = hochschild_differential(module, 2, cand.phi)
        for (where, residual), idx in zip(direct, iproduct(range(n), repeat=3)):
            if tensor_column(d2, idx) != tuple(residual):
                raise RouteMismatchError(
                    f"cocycle routes disagree at {where}: direct identity vs differential"
                )
        run_law(
            report,
            "membership + vanishing hochschild differential (independent route)",
            iter([({}, tuple(d2.entries))]),
            max_violations,
        )
    else:
        report.notes.append(
            "differential route skipped: phi is not equivariant, hence not a degree-2 cochain"
        )
    report.notes.append(
        "equivariance is checked with two arguments, q(phi(x,y)) = phi(p x, p y), "
        "matching degree-2 cochain membership"
    )
    return report


# ---------------------------------------------------------------------------
# constructions


def regular_bimodule(algebra):
    """V = L with both actions the product and q = p."""
    ensure_valid(algebra, check_hom_algebra, "hom-algebra")
    return HomBimodule(
        parent=algebra, dim=algebra.dim, left=algebra.mu, right=algebra.mu, q=algebra.p
    )


def semidirect_product(module, cocycle):
    """Twisted semidirect product on L + V with (x,u)(y,v) = (xy, x.l v + u.r y + phi(x,y))."""
    if cocycle.host is not module and cocycle.host != module:
        raise InputError("cocycle is not hosted on the given bimodule")
    ensure_valid(module.parent, check_hom_algebra, "hom-algebra")
    ensure_valid(module, check_bimodule, "hom-bimodule")
    ensure_valid(cocycle, check_two_cocycle, "two-cocycle")
    A = module.parent
    n, d = A.dim, module.dim
    total = n + d
    blocks = [((0, 0, 0), A.mu), ((n, 0, 0), cocycle.phi), ((n, 0, n), module.left), ((n, n, 0), module.right)]
    mu_s = _placed((total, total, total), blocks)
    return HomAlgebra(dim=total, mu=mu_s, p=block_diag([A.p, module.q]))


def tensor_semigroup_algebra(algebra, omega):
    """Pack a Hom-associative algebra with the semigroup algebra of omega.

    Returns the packed algebra on L (x) K[omega], the bimodule structure of
    L over it (actions through the product, forgetting the index), and the
    2-cocycle (x(x)a, y(x)b) -> -x.y with coefficients in L.  This is the
    data ``operators.nijenhuis_induced_data`` induces from the identity
    family, built from constant blocks.
    """
    ensure_valid(algebra, check_hom_algebra, "hom-algebra")
    if not isinstance(omega, FiniteSemigroup):
        raise InputError("omega must be a validated finite semigroup")
    mu, minus_mu = algebra.mu, algebra.mu.neg()
    actions = (mu,) * omega.size
    return _packed_data(omega, algebra.p, lambda a, b: mu, actions, actions, lambda a, b: minus_mu)


def _packed_data(omega, p, product, left, right, cocycle):
    """The packed algebra on L (x) K[omega], L as a bimodule over it and a
    2-cocycle with values in L, unchecked: the body of
    ``tensor_semigroup_algebra`` and ``operators.nijenhuis_induced_data``.

    Every block is an n x n x n tensor on L, with p the structure map of L
    and of the bimodule.  product(a, b) multiplies grade a by grade b into
    grade ab; left[a] is the action of grade a on L, left[a].at(k, i, j)
    the e_k coefficient of (e_i (x) a) .l e_j; right[b].at(k, j, i) is that
    of e_j .r (e_i (x) b); cocycle(a, b) takes grades a and b into L.
    """
    n, m = p.rows, omega.size
    nm = n * m
    packed = HomAlgebra(
        dim=nm, mu=graded_tensor(omega, (n, n, n), product), p=_block_repeat(p, m)
    )

    elements = omega.elements()
    module = HomBimodule(
        parent=packed,
        dim=n,
        left=_placed((n, nm, n), [((0, a * n, 0), left[a]) for a in elements]),
        right=_placed((n, n, nm), [((0, 0, b * n), right[b]) for b in elements]),
        q=p,
    )
    phi = _placed((n, nm, nm), [((0, a * n, b * n), cocycle(a, b)) for a, b in iproduct(elements, repeat=2)])
    return packed, module, TwoCocycle(host=module, phi=phi)


def tensor_bimodule(cocycle, omega):
    """Pack a bimodule and cocycle with K[omega] over the packed algebra.

    Returns the bimodule V (x) K[omega] over L (x) K[omega] together with
    the packed cocycle (x(x)a, y(x)b) -> phi(x,y) (x) ab.
    """
    module = cocycle.host
    algebra = module.parent
    ensure_valid(module, check_bimodule, "hom-bimodule")
    ensure_valid(cocycle, check_two_cocycle, "two-cocycle")
    packed, _, _ = tensor_semigroup_algebra(algebra, omega)
    n, d = algebra.dim, module.dim
    # (u (x) b) .r (x (x) a) lands in the b*a block: the grades multiply
    # in the order of the arguments.
    packed_module = HomBimodule(
        parent=packed,
        dim=d * omega.size,
        left=graded_tensor(omega, (d, n, d), lambda a, b: module.left),
        right=graded_tensor(omega, (d, d, n), lambda a, b: module.right),
        q=_block_repeat(module.q, omega.size),
    )
    phi = graded_tensor(omega, (d, n, n), lambda a, b: cocycle.phi)
    return packed_module, TwoCocycle(host=packed_module, phi=phi)


def graded_tensor(omega, dims, block):
    """A bilinear map on K[omega]-graded spaces, semigroup index major.

    ``dims`` are the (output, left, right) dimensions of one grade.  The
    entry at ((g, k), (a, i), (b, j)) is block(a, b).at(k, i, j) when
    g = ab in omega, and 0 otherwise.
    """
    d0, d1, d2 = dims
    m = omega.size
    blocks = [((omega.mul(a, b) * d0, a * d1, b * d2), block(a, b)) for a, b in iproduct(omega.elements(), repeat=2)]
    return _placed((d0 * m, d1 * m, d2 * m), blocks)


def _placed(shape, blocks):
    """The 3-tensor of ``shape`` holding each block (offsets, tensor) with
    its entry (k, i, j) at (k, i, j) + offsets, and ``ZERO`` where no block
    lies.  Each block's entries pass ``ensure_scalar`` once, so an int is
    read as a ``Fraction`` and a float is refused."""
    s0, s1, s2 = shape
    out = [ZERO] * (s0 * s1 * s2)
    for (o0, o1, o2), block in blocks:
        b0, b1, b2 = block.shape
        entries = [ensure_scalar(e) for e in block.entries]
        for k, i in iproduct(range(b0), range(b1)):
            dst, src = ((o0 + k) * s1 + o1 + i) * s2 + o2, (k * b1 + i) * b2
            out[dst : dst + b2] = entries[src : src + b2]
    return Tensor(shape, tuple(out))


def _block_repeat(mat, copies):
    return block_diag([mat] * copies)
