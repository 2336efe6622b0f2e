"""Hom-associative algebras, bimodules, 2-cocycles and their constructions.

All structures are structure-constant tensors on a chosen basis.  Axioms
are verified on basis tuples (multilinearity makes that sufficient) and
failures are report outcomes, never exceptions; only shape problems raise.

Packed bases for a space tensored with the semigroup algebra are ordered
with the semigroup index major: the pair (i, a) sits at position a*dim + i,
keeping each semigroup block contiguous.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .errors import InputError, RouteMismatchError
from .linalg import (
    Matrix,
    Tensor,
    multilinear_apply,
    tensor_column,
    unit_vector,
    vadd,
    vsub,
)
from .reports import DEFAULT_MAX_VIOLATIONS, CheckReport, require_pass, run_law
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
    n = cand.dim
    basis = cand.basis()
    p = cand.p

    def multiplicativity():
        for i, j in iproduct(range(n), repeat=2):
            lhs = p.apply(cand.basis_product(i, j))
            rhs = cand.product(p.column(i), p.column(j))
            yield {"x": i, "y": j}, vsub(lhs, rhs)

    def hom_associativity():
        for i, j, k in iproduct(range(n), repeat=3):
            lhs = cand.product(p.column(i), cand.basis_product(j, k))
            rhs = cand.product(cand.basis_product(i, j), p.column(k))
            yield {"x": i, "y": j, "z": k}, vsub(lhs, rhs)

    run_law(report, "p(x.y) = p(x).p(y)", multiplicativity(), max_violations)
    run_law(report, "p(x).(y.z) = (x.y).p(z)", hom_associativity(), max_violations)
    return report


def check_bimodule(cand, max_violations=DEFAULT_MAX_VIOLATIONS):
    report = CheckReport(subject=f"hom-bimodule (dim {cand.dim})")
    A = cand.parent
    n, d = A.dim, cand.dim
    p, q = A.p, cand.q
    ebasis = A.basis()
    vbasis = cand.basis()

    def q_left():
        for i, a in iproduct(range(n), range(d)):
            lhs = q.apply(cand.act_l(ebasis[i], vbasis[a]))
            rhs = cand.act_l(p.column(i), q.column(a))
            yield {"x": i, "u": a}, vsub(lhs, rhs)

    def q_right():
        for a, i in iproduct(range(d), range(n)):
            lhs = q.apply(cand.act_r(vbasis[a], ebasis[i]))
            rhs = cand.act_r(q.column(a), p.column(i))
            yield {"u": a, "x": i}, vsub(lhs, rhs)

    def right_right():
        for a, i, j in iproduct(range(d), range(n), range(n)):
            lhs = cand.act_r(q.column(a), A.basis_product(i, j))
            rhs = cand.act_r(cand.act_r(vbasis[a], ebasis[i]), p.column(j))
            yield {"u": a, "x": i, "y": j}, vsub(lhs, rhs)

    def left_right():
        for i, a, j in iproduct(range(n), range(d), range(n)):
            lhs = cand.act_l(p.column(i), cand.act_r(vbasis[a], ebasis[j]))
            rhs = cand.act_r(cand.act_l(ebasis[i], vbasis[a]), p.column(j))
            yield {"x": i, "u": a, "y": j}, vsub(lhs, rhs)

    def left_left():
        for i, j, a in iproduct(range(n), range(n), range(d)):
            lhs = cand.act_l(p.column(i), cand.act_l(ebasis[j], vbasis[a]))
            rhs = cand.act_l(A.basis_product(i, j), q.column(a))
            yield {"x": i, "y": j, "u": a}, vsub(lhs, rhs)

    run_law(report, "q(x.l u) = p(x).l q(u)", q_left(), max_violations)
    run_law(report, "q(u.r x) = q(u).r p(x)", q_right(), max_violations)
    run_law(report, "q(u).r (x.y) = (u.r x).r p(y)", right_right(), max_violations)
    run_law(report, "p(x).l (u.r y) = (x.l u).r p(y)", left_right(), max_violations)
    run_law(report, "p(x).l (y.l u) = (x.y).l q(u)", left_left(), max_violations)
    return report


def check_algebra_morphism(m, max_violations=DEFAULT_MAX_VIOLATIONS):
    report = CheckReport(subject="algebra morphism")
    src, tgt, psi = m.source, m.target, m.psi
    n = src.dim

    def multiplicative():
        for i, j in iproduct(range(n), repeat=2):
            lhs = psi.apply(src.basis_product(i, j))
            rhs = tgt.product(psi.column(i), psi.column(j))
            yield {"x": i, "y": j}, vsub(lhs, rhs)

    def intertwines():
        lhs = psi.mul(src.p)
        rhs = tgt.p.mul(psi)
        for i in range(n):
            yield {"x": i}, vsub(lhs.column(i), rhs.column(i))

    run_law(report, "psi(x.y) = psi(x).psi(y)", multiplicative(), max_violations)
    run_law(report, "psi(p(x)) = p'(psi(x))", intertwines(), max_violations)
    return report


# ---------------------------------------------------------------------------
# Hochschild-type complex


def is_equivariant(q, p, degree, tensors):
    """Cochain membership q o f = f o p^(x n) on all basis tuples, for every f.

    Each f in ``tensors`` is a coefficient tensor with ``degree`` input
    axes; in degree 0 it is a vector (tuple or tensor) and the condition is
    q(u) = u.
    """
    if degree == 0:
        vectors = (f if isinstance(f, tuple) else tuple(f.entries) for f in tensors)
        return all(q.apply(u) == u for u in vectors)
    if q.is_identity() and p.is_identity():
        return True
    p_cols = [p.column(j) for j in range(p.rows)]
    return all(
        q.apply(tensor_column(f, idx)) == multilinear_apply(f, [p_cols[j] for j in idx])
        for f in tensors
        for idx in iproduct(range(p.rows), repeat=degree)
    )


def hochschild_differential(module, degree, f):
    """Differential of the Hom-type Hochschild complex of L with values in V.

    ``f`` is a coefficient tensor of shape (d, n..n) with ``degree`` input
    axes (a plain vector for degree 0, where the differential specializes
    to u -> x .l u - u .r x).  The input must satisfy the membership
    constraint q o f = f o p^(x degree); the output satisfies it one degree
    higher.
    """
    A = module.parent
    n, d = A.dim, module.dim
    if degree < 0:
        raise InputError("degree must be nonnegative")
    if hasattr(f, "table"):
        # Cochain view: the table of a complex without semigroup grading
        # holds a single tensor under the empty key.
        f = f.table[()] if degree > 0 else tuple(f.table[()].entries)
    if degree == 0:
        u = tuple(f) if isinstance(f, (tuple, list)) else tuple(f.entries)
        if len(u) != d:
            raise InputError("degree-0 cochain has wrong length")
        if not is_equivariant(module.q, A.p, 0, [u]):
            raise InputError("degree-0 cochain violates q(u) = u")
        cols = [vsub(module.act_l(x, u), module.act_r(u, x)) for x in A.basis()]
        out = Tensor.from_function((d, n), lambda k, j: cols[j][k])
        if not is_equivariant(module.q, A.p, 1, [out]):
            raise RouteMismatchError(
                "differential output violates the membership constraint; "
                "the underlying bimodule most likely fails its axioms"
            )
        return out
    if f.shape != (d,) + (n,) * degree:
        raise InputError(f"cochain tensor must have shape {(d,) + (n,) * degree}")
    if not is_equivariant(module.q, A.p, degree, [f]):
        raise InputError("cochain violates the membership constraint q o f = f o p^n")

    p_pow = A.p.power(degree - 1)
    p_cols = [A.p.column(j) for j in range(n)]
    ppow_cols = [p_pow.column(j) for j in range(n)]
    sign_last = 1 if (degree + 1) % 2 == 0 else -1

    inner = n ** (degree + 1)
    out = [None] * (d * inner)
    for flat, idx in enumerate(iproduct(range(n), repeat=degree + 1)):
        acc = list(module.act_l(ppow_cols[idx[0]], tensor_column(f, idx[1:])))
        tail = module.act_r(tensor_column(f, idx[:-1]), ppow_cols[idx[-1]])
        for k in range(d):
            acc[k] = acc[k] + sign_last * tail[k]
        for i in range(1, degree + 1):
            args = [p_cols[j] for j in idx[: i - 1]]
            args.append(A.basis_product(idx[i - 1], idx[i]))
            args.extend(p_cols[j] for j in idx[i + 1 :])
            term = multilinear_apply(f, args)
            sgn = -1 if i % 2 else 1
            for k in range(d):
                acc[k] = acc[k] + sgn * term[k]
        for k in range(d):
            out[k * inner + flat] = acc[k]
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

    def equivariance():
        for i, j in iproduct(range(n), repeat=2):
            lhs = q.apply(tensor_column(cand.phi, (i, j)))
            rhs = cand.apply(p.column(i), p.column(j))
            yield {"x": i, "y": j}, vsub(lhs, rhs)

    def direct_cocycle():
        for i, j, k in iproduct(range(n), repeat=3):
            t1 = module.act_l(p.column(i), tensor_column(cand.phi, (j, k)))
            t2 = module.act_r(tensor_column(cand.phi, (i, j)), p.column(k))
            t3 = cand.apply(A.basis_product(i, j), p.column(k))
            t4 = cand.apply(p.column(i), A.basis_product(j, k))
            yield {"x1": i, "x2": j, "x3": k}, vadd(vsub(vsub(t1, t2), t3), t4)

    ok_eq = run_law(report, "q phi(x,y) = phi(p x, p y)", equivariance(), max_violations)
    direct = list(direct_cocycle())
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
    require_pass(check_hom_algebra(algebra), "hom-algebra")
    return HomBimodule(
        parent=algebra, dim=algebra.dim, left=algebra.mu, right=algebra.mu, q=algebra.p
    )


def semidirect_product(module, cocycle):
    """Twisted semidirect product on L + V with (x,u)(y,v) = (xy, x.l v + u.r y + phi(x,y))."""
    if cocycle.host is not module and cocycle.host != module:
        raise InputError("cocycle is not hosted on the given bimodule")
    require_pass(check_two_cocycle(cocycle), "two-cocycle")
    A = module.parent
    n, d = A.dim, module.dim
    total = n + d

    def entry(k, i, j):
        if i < n and j < n:
            if k < n:
                return A.mu.at(k, i, j)
            return cocycle.phi.at(k - n, i, j)
        if k < n:
            return 0
        if i < n and j >= n:
            return module.left.at(k - n, i, j - n)
        if i >= n and j < n:
            return module.right.at(k - n, i - n, j)
        return 0

    mu_s = Tensor.from_function((total, total, total), entry)
    from .linalg import block_diag

    return HomAlgebra(dim=total, mu=mu_s, p=block_diag([A.p, module.q]))


def tensor_semigroup_algebra(algebra, omega):
    """Pack a Hom-associative algebra with the semigroup algebra of omega.

    Returns the packed algebra on L (x) K[omega], the bimodule structure of
    L over it (actions through the product, forgetting the index), and the
    2-cocycle (x(x)a, y(x)b) -> -x.y with coefficients in L.
    """
    require_pass(check_hom_algebra(algebra), "hom-algebra")
    if not isinstance(omega, FiniteSemigroup):
        raise InputError("omega must be a validated finite semigroup")
    n, m = algebra.dim, omega.size
    nm = n * m

    def mu_entry(kk, ii, jj):
        gamma, k = divmod(kk, n)
        alpha, i = divmod(ii, n)
        beta, j = divmod(jj, n)
        if gamma != omega.mul(alpha, beta):
            return 0
        return algebra.mu.at(k, i, j)

    packed = HomAlgebra(
        dim=nm,
        mu=Tensor.from_function((nm, nm, nm), mu_entry),
        p=_block_repeat(algebra.p, m),
    )

    def left_entry(k, ii, j):
        _, i = divmod(ii, n)
        return algebra.mu.at(k, i, j)

    def right_entry(k, j, ii):
        _, i = divmod(ii, n)
        return algebra.mu.at(k, j, i)

    module = HomBimodule(
        parent=packed,
        dim=n,
        left=Tensor.from_function((n, nm, n), left_entry),
        right=Tensor.from_function((n, n, nm), right_entry),
        q=algebra.p,
    )

    def phi_entry(k, ii, jj):
        _, i = divmod(ii, n)
        _, j = divmod(jj, n)
        return -algebra.mu.at(k, i, j)

    cocycle = TwoCocycle(host=module, phi=Tensor.from_function((n, nm, nm), phi_entry))
    return packed, module, cocycle


def tensor_bimodule(cocycle, omega):
    """Pack a bimodule and cocycle with K[omega] over the packed algebra.

    Returns the bimodule V (x) K[omega] over L (x) K[omega] together with
    the packed cocycle (x(x)a, y(x)b) -> phi(x,y) (x) ab.
    """
    module = cocycle.host
    algebra = module.parent
    require_pass(check_bimodule(module), "hom-bimodule")
    require_pass(check_two_cocycle(cocycle), "two-cocycle")
    packed, _, _ = tensor_semigroup_algebra(algebra, omega)
    n, d, m = algebra.dim, module.dim, omega.size
    nm, dm = n * m, d * m

    def left_entry(cc, ii, bb):
        gamma, c = divmod(cc, d)
        alpha, i = divmod(ii, n)
        beta, b = divmod(bb, d)
        if gamma != omega.mul(alpha, beta):
            return 0
        return module.left.at(c, i, b)

    def right_entry(cc, bb, ii):
        gamma, c = divmod(cc, d)
        beta, b = divmod(bb, d)
        alpha, i = divmod(ii, n)
        # (u (x) b) .r (x (x) a) lands in the b*a block.
        if gamma != omega.mul(beta, alpha):
            return 0
        return module.right.at(c, b, i)

    packed_module = HomBimodule(
        parent=packed,
        dim=dm,
        left=Tensor.from_function((dm, nm, dm), left_entry),
        right=Tensor.from_function((dm, dm, nm), right_entry),
        q=_block_repeat(module.q, m),
    )

    def phi_entry(cc, ii, jj):
        gamma, c = divmod(cc, d)
        alpha, i = divmod(ii, n)
        beta, j = divmod(jj, n)
        if gamma != omega.mul(alpha, beta):
            return 0
        return cocycle.phi.at(c, i, j)

    packed_cocycle = TwoCocycle(
        host=packed_module, phi=Tensor.from_function((dm, nm, nm), phi_entry)
    )
    return packed_module, packed_cocycle


def _block_repeat(mat, copies):
    from .linalg import block_diag

    return block_diag([mat] * copies)
