"""Independent oracles for the test suite.

Everything here is deliberately coded apart from the package: naive
Fraction Gaussian elimination with a different pivot rule, a recursive
multilinear evaluator, the package's former dense multilinear kernel
(frozen as the reference of the sparse one), the package's former
``solve`` (frozen as the reference of the one that reads its answer off
the augmented null space), the package's former dense Bareiss ``rank``
and ``kernel_supports`` (frozen as the references of the sparse
elimination engine), the package's former
law primitives ``reports.intertwining_sides`` and ``nested_cases`` and
``homalg.is_equivariant`` (frozen as the references of the ones that
compose each law's sides as whole tensors), the package's former
``homalg.hochschild_differential`` (frozen, as it called
``multilinear_apply`` once per term of each basis tuple, as the reference
of the one that contracts hoisted integer columns), the package's former
``check_nijenhuis_element`` (frozen as the reference of the one built on
the trivial pair's morphism laws), the package's former packed-family
constructions and hand-split deformed splitting (frozen as the references
of the ones built through one packing body and one splitting over
K[t]/(t^2)), the package's former family identities and induced
products (frozen as the references of the ones read off products composed
as whole tensors), the package's former Nijenhuis grid search (frozen, as
it enumerated every candidate, as the reference of the map-by-map
search), the package's former entrywise ``Matrix`` and ``Tensor`` code and
``linalg._compose`` (frozen, as each class wrote its own and ``_compose``
copied a ``Matrix`` into a ``Tensor``, as the references of the shared
array layer), the package's former stencil providers and walker
(frozen, as they probed each first/last-term map on unit vectors and added
``Fraction`` entries one cell at a time, as the references of the ones
that compose those maps as tensors and assemble integer numerators), the
package's former signed sums (``reports.nested_cases`` composing per first
index, ``intertwining_residual`` putting its sides over one denominator,
``linalg._compose`` as a body of its own, and the ``sub`` chains of the
twisted stencil's end maps and of ``operator_bimodule``; frozen as the
references of the one signed-composition kernel), the package's former
``Matrix.mul`` and ``Matrix.apply``, per-index-tuple ``_transported`` and
view-reading elimination (frozen, as ``Matrix`` multiplied in loops of its
own and ``rank``, ``kernel_supports``, ``solve`` and ``invert_matrix`` read
rows off a whole-matrix integer view, ``solve`` and ``invert_matrix`` of an
augmented ``Matrix``, as the references of the products run on the
contraction kernels and of elimination that reads each line once), the
package's former entry-wise branch of ``linalg._signed_state`` (frozen,
as it multiplied ``TruncatedPoly`` entries one product at a time, as the
reference of the polynomial path of the kernel), the
package's former ``linalg._signed_state`` with its ``_compose_state``,
``_rows`` and ``_nonzeros`` (frozen, as every call built each part's
sparse rows and each outer's nonzero state afresh and composed every part,
an identity included, as the reference of the kernel that reads cached
views and skips identity parts), the package's former
``check_infinitesimal`` and ``check_equivalence`` with their
``_order_coefficients``, ``_trivial_pair`` and ``_module_laws`` (frozen,
as they read the t and t^2 coefficients of residuals over K[t]/(t^3), as
the references of the ones that interpolate rational evaluations), a
twist-free family-law
checker, the dendriform subsystem checker, a from-scratch twisted-family
differential (any structure maps; its matrix builder needs identity
maps), and the dense raw x raw membership-constraint matrix of a cochain
space.  Package objects are accepted as data carriers only (their raw
entries are extracted up front), except by the frozen package bodies,
which keep the package primitives they were written on.
"""
from bisect import bisect_left
from collections import namedtuple
from dataclasses import fields, replace
from fractions import Fraction
from functools import cache
from itertools import chain, product
from math import gcd, lcm, prod

from rbfam.cohomology import HA, RBF, ComplexHandle, rbf_complex
from rbfam.deformations import (
    EquivalenceReport,
    InfinitesimalReport,
    NSDeformationReport,
    check_infinitesimal,
    direction_cochain,
    rbf_delta0_matrices,
)
from rbfam.errors import InputError, PreconditionError, RouteMismatchError
from rbfam.family import (
    HomNSFamilyAlgebra,
    HomTridendFamily,
    OmegaBimodule,
    _split_operator,
    _total_product,
    check_hom_ns_family,
    check_ns_family_morphism,
    check_omega_assoc,
)
from rbfam.homalg import (
    HomAlgebra,
    HomBimodule,
    TwoCocycle,
    _block_repeat,
    check_bimodule,
    check_hom_algebra,
    check_two_cocycle,
    graded_tensor,
    is_equivariant,
    tensor_bimodule,
)
from rbfam.linalg import _kernel_from_echelon as _sparse_kernel_from_echelon
from rbfam.linalg import (
    ONE,
    ZERO,
    Matrix,
    Tensor,
    _compose_error,
    _compose_state,
    _echelon,
    _nonzeros,
    _rows,
    densify,
    multilinear_apply,
    tensor_column,
    unit_vector,
    vadd,
    vector,
    vsub,
)
from rbfam.operators import (
    NijenhuisFamily,
    NijenhuisInducedData,
    TwistedRBFamily,
    _split_products,
    check_nijenhuis_family,
    check_operator_morphism,
    check_twisted_rbf,
    check_weighted_rbf,
    family_identity_cases,
    identity_packing_family,
    twisted_inner_sum,
)
from rbfam.reports import (
    DEFAULT_MAX_VIOLATIONS,
    CheckReport,
    ensure_valid,
    intertwining_cases,
    require_pass,
    run_law,
)
from rbfam.scalars import TruncatedPoly, ensure_rational, ensure_scalar, poly_coefficient
from rbfam.semigroups import FiniteSemigroup, builtin

READING_NOTE = (
    "module-action reading: the second lines of the morphism obstructions "
    "use u .r x (a module element cannot act from the left on an algebra element)"
)


def _values(tensors):
    """(scales, values) of tensors and matrices: each one's cached integer
    view, or, when one of them has none (a ``TruncatedPoly`` entry), scales
    None and the entries themselves.

    The package's former ``linalg._values``, kept verbatim for the frozen
    bodies below that read their arrays through it."""
    views = [t.integer_view for t in tensors]
    if None not in views:
        return [scale for scale, _ in views], [ints for _, ints in views]
    return None, [[ensure_scalar(e) for e in t.entries] for t in tensors]


def bilinear_tensor(shape, col):
    """The tensor whose column at input indices (i, j) is col(i, j).

    ``shape`` is (out, left, right), or one int n for (n, n, n).
    """
    if isinstance(shape, int):
        shape = (shape,) * 3
    cols = {idx: col(*idx) for idx in product(range(shape[1]), range(shape[2]))}
    return Tensor.from_function(shape, lambda k, i, j: cols[(i, j)][k])


def rows_of(matrix):
    return [[Fraction(matrix.at(i, j)) for j in range(matrix.cols)] for i in range(matrix.rows)]


def nested_of(tensor):
    def build(level, base):
        d = tensor.shape[level]
        stride = 1
        for e in tensor.shape[level + 1 :]:
            stride *= e
        if level == len(tensor.shape) - 1:
            return [Fraction(tensor.entries[base + i]) for i in range(d)]
        return [build(level + 1, base + i * stride) for i in range(d)]

    return build(0, 0)


def naive_rank(rows):
    """Gaussian elimination over Fractions; pivot = largest absolute value."""
    rows = [[Fraction(e) for e in r] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv, best = None, None
        for i in range(r, len(rows)):
            v = abs(rows[i][c])
            if v and (best is None or v > best):
                piv, best = i, v
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot_row = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / pivot_row[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], pivot_row)]
        r += 1
        if r == len(rows):
            break
    return r


def naive_kernel_dim(rows, ncols):
    if not rows:
        return ncols
    return ncols - naive_rank(rows)


def naive_multilinear(nested, args):
    """Recursive contraction of nested[k][i1]..[in] against n argument vectors."""

    def contract(node, remaining):
        if not remaining:
            return node
        head, rest = remaining[0], remaining[1:]
        total = Fraction(0)
        for coeff, child in zip(head, node):
            if coeff:
                total += coeff * contract(child, rest)
        return total

    return [contract(nested[k], list(args)) for k in range(len(nested))]


def dense_multilinear(tensor, args):
    """The dense body ``linalg.multilinear_apply`` had before it went sparse.

    Walks the whole input index product and, at each index with a nonzero
    weight ``1 * x_1 * ... * x_n``, reads every output row of the row-major
    entries.  Shapes are assumed valid.  Kept verbatim so the sparse kernel
    can be held to ``repr``-identical output, entry types included.
    """
    zero, one = Fraction(0), Fraction(1)
    d_out, in_dims = tensor.shape[0], tensor.shape[1:]
    out = [zero] * d_out
    if d_out == 0:
        return ()
    inner = prod(in_dims)
    for flat_in, idx in enumerate(product(*(range(d) for d in in_dims))):
        w = one
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


def bareiss_solve(m, b):
    """The body ``linalg.solve`` had before it read its answer off the null
    space of [M | b]: Bareiss on the augmented integer rows with pivots
    restricted to M's columns, then back-substitution.

    Kept verbatim, so the new ``solve`` can be held to ``repr``-identical
    output, except that rejections raise ``ValueError`` (the package raises
    ``InputError``) and cover any entry that is not an int or ``Fraction``.
    """
    zero, one = Fraction(0), Fraction(1)
    entries = list(m.entries)
    if any(not isinstance(e, (int, Fraction)) for e in entries):
        raise ValueError("elimination is defined for rational matrices only")
    if len(b) != m.rows:
        raise ValueError(f"right-hand side length {len(b)} != {m.rows} rows")
    for e in b:
        if not isinstance(e, (int, Fraction)):
            raise ValueError("elimination is defined for rational inputs only")
    rows = []
    for i in range(m.rows):
        row = [Fraction(e) for e in entries[i * m.cols : (i + 1) * m.cols] + [b[i]]]
        scale = lcm(*(e.denominator for e in row))
        rows.append([int(e * scale) for e in row])
    nrows, ncols = len(rows), m.cols
    prev, r, pivots = 1, 0, []
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pc = rows[r][c]
        for i in range(r + 1, nrows):
            ri, rr = rows[i], rows[r]
            ic = ri[c]
            for j in range(c, ncols + 1):
                ri[j] = (pc * ri[j] - ic * rr[j]) // prev
        prev = pc
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    nr = len(pivots)
    for i in range(nr, m.rows):
        if rows[i][m.cols]:
            return None
    x = [zero] * m.cols
    for r in range(nr - 1, -1, -1):
        c = pivots[r]
        acc = Fraction(rows[r][m.cols])
        for j in range(c + 1, m.cols):
            e = rows[r][j]
            if e and x[j]:
                acc -= e * x[j]
        x[c] = acc / rows[r][c]
    pivot_set = set(pivots)
    kernel = []
    for f in (c for c in range(ncols) if c not in pivot_set):
        y = [zero] * ncols
        y[f] = one
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            acc = zero
            for j in range(c + 1, ncols):
                e = rows[r][j]
                if e and y[j]:
                    acc += e * y[j]
            y[c] = -acc / rows[r][c]
        kernel.append(tuple(y))
    return tuple(x), kernel


# The package's dense elimination before it went sparse: ``rank`` and
# ``kernel_supports`` with the helpers they ran on, kept verbatim (only the
# two public names are prefixed), so the sparse engine can be held to
# ``repr``-identical output.


def _require_rational_matrix(m):
    if m.has_poly_entries():
        raise InputError("elimination is defined for rational matrices only")


def _integer_rows(rows):
    # Scaling each row by the lcm of its denominators changes neither the
    # rank nor the null space (nor, on an augmented row, the solutions).
    out = []
    for row in rows:
        scale = lcm(*(e.denominator for e in row))
        out.append([e.numerator * (scale // e.denominator) for e in row])
    return out


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


def bareiss_rank(m):
    """Rank over the rationals via Bareiss fraction-free elimination."""
    _require_rational_matrix(m)
    rows = _integer_rows(m.row(i) for i in range(m.rows))
    return len(_bareiss(rows, m.cols))


def _kernel_from_echelon(rows, pivots, ncols):
    """Null space of an echelon form as sparse ((column, value), ...), one
    per free column f: 1 at f, 0 at the other free columns, so only the
    pivot columns before f can be nonzero."""
    pivot_set = set(pivots)
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_set):
        x = {f: ONE}
        for r in range(bisect_left(pivots, f) - 1, -1, -1):
            row = rows[r]
            acc = ZERO
            for j, v in x.items():
                if row[j]:
                    acc += row[j] * v
            if acc:
                x[pivots[r]] = -acc / row[pivots[r]]
        basis.append(tuple(sorted(x.items())))
    return basis


def bareiss_kernel_supports(m):
    """``kernel_basis`` with each vector as its nonzero ((column, value), ...)."""
    _require_rational_matrix(m)
    rows = _integer_rows(m.row(i) for i in range(m.rows))
    return _kernel_from_echelon(rows, _bareiss(rows, m.cols), m.cols)


def _commutator(algebra, x, y):
    return vsub(algebra.product(x, y), algebra.product(y, x))


def nijenhuis_element_report(x, operator, max_violations=DEFAULT_MAX_VIOLATIONS):
    """The body ``deformations.check_nijenhuis_element`` had while it checked
    seven of its nine laws with hand-written loops.

    Kept verbatim, so the checker built on the trivial pair's morphism laws
    can be held to an identical ``to_dict()``.
    """
    ensure_valid(operator, check_twisted_rbf, "twisted Rota-Baxter family")
    A, module, phi, omega = (
        operator.algebra,
        operator.bimodule,
        operator.cocycle,
        operator.omega,
    )
    n, d = A.dim, module.dim
    x = vector(x)
    if len(x) != n:
        raise InputError(f"element must live in the {n}-dimensional algebra")
    ebasis = A.basis()
    vbasis = module.basis()
    report = CheckReport(subject="Nijenhuis element")

    def lhd(u_idx, alpha, beta):
        u = vbasis[u_idx]
        ru = operator.maps[alpha].column(u_idx)
        r_ab = operator.maps[omega.mul(alpha, beta)]
        return vsub(
            vsub(A.product(ru, x), r_ab.apply(module.act_r(u, x))),
            r_ab.apply(phi.apply(ru, x)),
        )

    def rhd(u_idx, alpha, beta):
        u = vbasis[u_idx]
        rv = operator.maps[beta].column(u_idx)
        r_ab = operator.maps[omega.mul(alpha, beta)]
        return vsub(
            vsub(A.product(x, rv), r_ab.apply(module.act_l(x, u))),
            r_ab.apply(phi.apply(x, rv)),
        )

    def commutator_law():
        for alpha, beta in product(omega.elements(), repeat=2):
            for a in range(d):
                c = vsub(lhd(a, alpha, beta), rhd(a, alpha, beta))
                yield {"alpha": alpha, "beta": beta, "u": a}, _commutator(A, x, c)

    def square_law():
        for i, j in product(range(n), repeat=2):
            xa = A.product(x, ebasis[i])
            ax = A.product(ebasis[i], x)
            xb = A.product(x, ebasis[j])
            bx = A.product(ebasis[j], x)
            residual = vsub(
                vsub(A.product(xa, xb), A.product(xa, bx)),
                vsub(A.product(ax, xb), A.product(ax, bx)),
            )
            yield {"a": i, "b": j}, residual

    def first_order_transform(alpha, u):
        ru = operator.maps[alpha].apply(u)
        return vadd(
            vsub(module.act_l(x, u), module.act_r(u, x)),
            vsub(phi.apply(x, ru), phi.apply(ru, x)),
        )

    def cocycle_compat_t():
        for alpha in omega.elements():
            for i, j in product(range(n), repeat=2):
                w = phi.apply(ebasis[i], ebasis[j])
                lhs = first_order_transform(alpha, w)
                rhs = vadd(
                    phi.apply(_commutator(A, x, ebasis[i]), ebasis[j]),
                    phi.apply(ebasis[i], _commutator(A, x, ebasis[j])),
                )
                yield {"alpha": alpha, "a": i, "b": j}, vsub(lhs, rhs)

    def cocycle_compat_t2():
        for i, j in product(range(n), repeat=2):
            yield {"a": i, "b": j}, phi.apply(
                _commutator(A, x, ebasis[i]), _commutator(A, x, ebasis[j])
            )

    def left_compat_t():
        for alpha in omega.elements():
            for i, a in product(range(n), range(d)):
                w = module.act_l(ebasis[i], vbasis[a])
                lhs = first_order_transform(alpha, w)
                rhs = vadd(
                    module.act_l(_commutator(A, x, ebasis[i]), vbasis[a]),
                    module.act_l(ebasis[i], first_order_transform(alpha, vbasis[a])),
                )
                yield {"alpha": alpha, "a": i, "u": a}, vsub(lhs, rhs)

    def left_compat_t2():
        for alpha in omega.elements():
            for i, a in product(range(n), range(d)):
                yield {"alpha": alpha, "a": i, "u": a}, module.act_l(
                    _commutator(A, x, ebasis[i]), first_order_transform(alpha, vbasis[a])
                )

    def right_compat_t():
        for alpha in omega.elements():
            for a, i in product(range(d), range(n)):
                w = module.act_r(vbasis[a], ebasis[i])
                lhs = first_order_transform(alpha, w)
                rhs = vadd(
                    module.act_r(vbasis[a], _commutator(A, x, ebasis[i])),
                    module.act_r(first_order_transform(alpha, vbasis[a]), ebasis[i]),
                )
                yield {"alpha": alpha, "u": a, "a": i}, vsub(lhs, rhs)

    def right_compat_t2():
        for alpha in omega.elements():
            for a, i in product(range(d), range(n)):
                yield {"alpha": alpha, "u": a, "a": i}, module.act_r(
                    first_order_transform(alpha, vbasis[a]), _commutator(A, x, ebasis[i])
                )

    x_t = Tensor((n,), x)
    run_law(report, "p(x) = x", intertwining_cases(A.p, x_t, x_t, [], ()), max_violations)
    run_law(
        report,
        "x.(u |>- x - x -<| u) - (u |>- x - x -<| u).x = 0",
        commutator_law(),
        max_violations,
    )
    run_law(
        report,
        "(x.a).(x.b) - (x.a).(b.x) - (a.x).(x.b) + (a.x).(b.x) = 0",
        square_law(),
        max_violations,
    )
    run_law(report, "cocycle compatibility @ t", cocycle_compat_t(), max_violations)
    run_law(report, "cocycle compatibility @ t^2", cocycle_compat_t2(), max_violations)
    run_law(report, "left-action compatibility @ t", left_compat_t(), max_violations)
    run_law(report, "left-action compatibility @ t^2", left_compat_t2(), max_violations)
    run_law(report, "right-action compatibility @ t", right_compat_t(), max_violations)
    run_law(report, "right-action compatibility @ t^2", right_compat_t2(), max_violations)
    report.notes.append(READING_NOTE)
    return report


# ---------------------------------------------------------------------------
# family constructions, frozen while each decoded its own packed layout


def packed_tensor_algebra(algebra, omega):
    """The body ``homalg.tensor_semigroup_algebra`` had while it decoded the
    packed layout of L (x) K[omega] by hand.

    Kept verbatim, so the construction through the one packing body can be
    held to ``repr``-identical output.
    """
    ensure_valid(algebra, check_hom_algebra, "hom-algebra")
    if not isinstance(omega, FiniteSemigroup):
        raise InputError("omega must be a validated finite semigroup")
    n, m = algebra.dim, omega.size
    nm = n * m
    packed = HomAlgebra(
        dim=nm,
        mu=graded_tensor(omega, (n, n, n), lambda a, b: algebra.mu),
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


def nijenhuis_data(family):
    """The body ``operators.nijenhuis_induced_data`` had while it decoded the
    packed layout of L (x) K[omega] by hand, one entry at a time.

    Kept verbatim, so the construction through the one packing body can be
    held to ``repr``-identical output.
    """
    ensure_valid(family, check_nijenhuis_family, "Nijenhuis family")
    A, omega = family.algebra, family.omega
    n, m = A.dim, omega.size
    nm = n * m

    def deformed_block(alpha, beta):
        n_a, n_b = family.maps[alpha], family.maps[beta]
        n_ab = family.maps[omega.mul(alpha, beta)]

        def col(i, j):
            x, y = unit_vector(n, i), unit_vector(n, j)
            inner = vadd(A.product(n_a.apply(x), y), A.product(x, n_b.apply(y)))
            return vsub(inner, n_ab.apply(A.basis_product(i, j)))

        return bilinear_tensor(n, col)

    blocks = {ab: deformed_block(*ab) for ab in product(omega.elements(), repeat=2)}
    deformed = HomAlgebra(
        dim=nm,
        mu=graded_tensor(omega, (n, n, n), lambda a, b: blocks[(a, b)]),
        p=_block_repeat(A.p, m),
    )

    def left_entry(k, ii, j):
        alpha, i = divmod(ii, n)
        return A.product(family.maps[alpha].column(i), unit_vector(n, j))[k]

    def right_entry(k, j, ii):
        beta, i = divmod(ii, n)
        return A.product(unit_vector(n, j), family.maps[beta].column(i))[k]

    module = HomBimodule(
        parent=deformed,
        dim=n,
        left=Tensor.from_function((n, nm, n), left_entry),
        right=Tensor.from_function((n, n, nm), right_entry),
        q=A.p,
    )

    def phi_entry(k, ii, jj):
        alpha, i = divmod(ii, n)
        beta, j = divmod(jj, n)
        n_ab = family.maps[omega.mul(alpha, beta)]
        return -n_ab.apply(A.basis_product(i, j))[k]

    cocycle = TwoCocycle(host=module, phi=Tensor.from_function((n, nm, nm), phi_entry))

    return NijenhuisInducedData(
        algebra=deformed,
        module=module,
        cocycle=cocycle,
        operator=identity_packing_family(A, omega, cocycle),
    )


def packed_operator(operator):
    """The body ``operators.pack_operator`` had while it filled the
    block-diagonal packed map with a hand loop.

    Kept verbatim, so the packing through ``block_diag`` can be held to
    ``repr``-identical output.
    """
    ensure_valid(operator, check_twisted_rbf, "twisted Rota-Baxter family")
    omega = operator.omega
    n, d, m = operator.algebra.dim, operator.bimodule.dim, omega.size
    packed_module, packed_cocycle = tensor_bimodule(operator.cocycle, omega)
    entries = [[Fraction(0)] * (d * m) for _ in range(n * m)]
    for alpha in omega.elements():
        mat = operator.maps[alpha]
        for i in range(n):
            for a in range(d):
                entries[alpha * n + i][alpha * d + a] = mat.at(i, a)
    packed_map = Matrix.from_rows(entries)
    return TwistedRBFamily(cocycle=packed_cocycle, omega=builtin("trivial"), maps=(packed_map,))


def _poly_tensor(t0, t1, order):
    return Tensor(
        t0.shape,
        tuple(TruncatedPoly([a, b], order) for a, b in zip(t0.entries, t1.entries)),
    )


def ns_deformation_report(deformation, strict=True, max_violations=DEFAULT_MAX_VIOLATIONS):
    """The body ``deformations.deform_ns_family`` had while it split R + t R1
    into its t^0 and t^1 parts by hand (two splittings, a hand-written
    t-part of v and one truncated polynomial per entry).

    Kept verbatim, so the splitting of R + t R1 over K[t]/(t^2) can be held
    to an identical ``to_dict()`` and ``render()``.
    """
    inf = check_infinitesimal(deformation, max_violations=max_violations)
    if strict and not inf.passed:
        raise PreconditionError(
            "direction fails the order-1 infinitesimal check", report=inf.order1
        )
    base, direction = deformation.base, deformation.direction
    phi, omega = base.cocycle, base.omega
    # < and > are linear in the maps, so the t^0 and t^1 parts of the
    # splitting of R + t R1 are the splittings of R and of R1; v is bilinear.
    split0 = _split_operator(base)
    split1 = _split_operator(replace(base, maps=direction))

    def vee(alpha, beta):
        r_a, r_b = base.maps[alpha], base.maps[beta]
        r1_a, r1_b = direction[alpha], direction[beta]
        vee1 = bilinear_tensor(
            base.bimodule.dim,
            lambda a, b: vadd(
                phi.apply(r1_a.column(a), r_b.column(b)),
                phi.apply(r_a.column(a), r1_b.column(b)),
            ),
        )
        return _poly_tensor(split0.vee[alpha][beta], vee1, 2)

    deformed = replace(
        split0,
        prec=tuple(_poly_tensor(t0, t1, 2) for t0, t1 in zip(split0.prec, split1.prec)),
        succ=tuple(_poly_tensor(t0, t1, 2) for t0, t1 in zip(split0.succ, split1.succ)),
        vee=tuple(tuple(vee(a, b) for b in omega.elements()) for a in omega.elements()),
    )
    ns_report = check_hom_ns_family(deformed, max_violations)
    total = _total_product(deformed)
    total_report = check_omega_assoc(total, max_violations)
    report = NSDeformationReport(
        subject="induced splitting-product deformation (mod t^2)",
        order1=inf,
        ns_axioms=ns_report,
        total_product=total_report,
    )
    if not inf.passed:
        report.notes.append("order-1 precondition failed; axiom residuals shown at order t")
    return report


# ---------------------------------------------------------------------------
# family identities and induced products, frozen while they were evaluated
# one basis tuple, or one column, at a time


def _inner_sum(operator, u, v, ru, rv):
    module, phi = operator.bimodule, operator.cocycle
    return vadd(vadd(module.act_l(ru, v), module.act_r(u, rv)), phi.apply(ru, rv))


def tuple_family_identity_cases(operator, maps):
    """The body ``operators.family_identity_cases`` had while it evaluated
    the twisted Rota-Baxter family identity once per basis pair (u, v).

    Kept verbatim, so the identity read off the composed induced total
    product can be held to ``repr``-identical cases.
    """
    A, omega = operator.algebra, operator.omega
    vbasis = operator.bimodule.basis()
    for alpha, beta in product(omega.elements(), repeat=2):
        r_ab = maps[omega.mul(alpha, beta)]
        for a, b in product(range(len(vbasis)), repeat=2):
            u, v = vbasis[a], vbasis[b]
            ru, rv = maps[alpha].apply(u), maps[beta].apply(v)
            rhs = r_ab.apply(_inner_sum(operator, u, v, ru, rv))
            yield {"alpha": alpha, "beta": beta, "u": a, "v": b}, vsub(A.product(ru, rv), rhs)


def twisted_rbf_report(operator, max_violations=DEFAULT_MAX_VIOLATIONS):
    """The body ``operators.check_twisted_rbf`` had, on the frozen cases."""
    A, module, omega = operator.algebra, operator.bimodule, operator.omega
    ensure_valid(A, check_hom_algebra, "host hom-algebra")
    ensure_valid(module, check_bimodule, "host hom-bimodule")
    ensure_valid(operator.cocycle, check_two_cocycle, "host two-cocycle")
    report = CheckReport(subject=f"twisted Rota-Baxter family over omega of size {omega.size}")

    def equivariance():
        for alpha in omega.elements():
            r_a = operator.maps[alpha]
            yield from intertwining_cases(r_a, module.q, A.p, [r_a], ("u",), {"alpha": alpha})

    run_law(report, "R_a o q = p o R_a", equivariance(), max_violations)
    run_law(
        report,
        "R_a u . R_b v = R_ab(R_a u .l v + u .r R_b v + phi(R_a u, R_b v))",
        tuple_family_identity_cases(operator, operator.maps),
        max_violations,
    )
    return report


def _commutes_with_p(family):
    p = family.algebra.p
    for alpha in family.omega.elements():
        m_a = family.maps[alpha]
        yield from intertwining_cases(p, m_a, m_a, [p], ("x",), {"alpha": alpha})


def _tuple_endo_family_identity_cases(family, third):
    """The body ``operators._endo_family_identity_cases`` had: the family
    identity of maps M_a : L -> L, once per basis pair (x, y)."""
    A, omega, maps = family.algebra, family.omega, family.maps
    n = A.dim
    for alpha, beta in product(omega.elements(), repeat=2):
        m_ab = maps[omega.mul(alpha, beta)]
        for i, j in product(range(n), repeat=2):
            x, y = unit_vector(n, i), unit_vector(n, j)
            lhs = A.product(maps[alpha].apply(x), maps[beta].apply(y))
            inner = vadd(
                vadd(A.product(maps[alpha].apply(x), y), A.product(x, maps[beta].apply(y))),
                third(m_ab, A.basis_product(i, j)),
            )
            yield {"alpha": alpha, "beta": beta, "x": i, "y": j}, vsub(lhs, m_ab.apply(inner))


def nijenhuis_family_report(family, max_violations=DEFAULT_MAX_VIOLATIONS):
    """The body ``operators.check_nijenhuis_family`` had, on the frozen cases."""
    ensure_valid(family.algebra, check_hom_algebra, "host hom-algebra")
    report = CheckReport(subject=f"Nijenhuis family over omega of size {family.omega.size}")
    run_law(report, "p o N_a = N_a o p", _commutes_with_p(family), max_violations)
    run_law(
        report,
        "N_a x . N_b y = N_ab(N_a x . y + x . N_b y - N_ab(x.y))",
        _tuple_endo_family_identity_cases(family, lambda n_ab, xy: tuple(-c for c in n_ab.apply(xy))),
        max_violations,
    )
    return report


def weighted_rbf_report(family, max_violations=DEFAULT_MAX_VIOLATIONS):
    """The body ``operators.check_weighted_rbf`` had, on the frozen cases."""
    ensure_valid(family.algebra, check_hom_algebra, "host hom-algebra")
    lam = family.weight
    report = CheckReport(subject=f"weighted Rota-Baxter family (weight {lam})")
    run_law(report, "p(T_a x) = T_a p(x)", _commutes_with_p(family), max_violations)
    run_law(
        report,
        "T_a x . T_b y = T_ab(T_a x . y + x . T_b y + w x.y)",
        _tuple_endo_family_identity_cases(family, lambda t_ab, xy: tuple(lam * c for c in xy)),
        max_violations,
    )
    return report


def brute_force_nijenhuis_search(algebra, omega, grid):
    """The body ``operators.search_nijenhuis_families`` had while it
    enumerated every one of the len(grid)**(m*n*n) candidates, less its cap.

    Kept verbatim otherwise, so the map-by-map search can be held to a
    ``repr``-identical family list.
    """
    ensure_valid(algebra, check_hom_algebra, "host hom-algebra")
    n, m = algebra.dim, omega.size
    slots = m * n * n
    grid = tuple(ensure_rational(g) for g in grid)
    prods = {(i, j): algebra.basis_product(i, j) for i, j in product(range(n), repeat=2)}
    basis = algebra.basis()
    p = algebra.p
    p_is_id = p.is_identity()
    found = []
    for flat in product(grid, repeat=slots):
        maps = tuple(Matrix(n, n, flat[a * n * n : (a + 1) * n * n]) for a in range(m))
        ok = True
        if not p_is_id:
            ok = is_equivariant(p, p, 1, maps)
        if ok:
            for alpha, beta in product(range(m), repeat=2):
                n_ab = maps[omega.mul(alpha, beta)]
                for i, j in product(range(n), repeat=2):
                    lhs = algebra.product(maps[alpha].column(i), maps[beta].column(j))
                    inner = vsub(
                        vadd(
                            algebra.product(maps[alpha].column(i), basis[j]),
                            algebra.product(basis[i], maps[beta].column(j)),
                        ),
                        n_ab.apply(prods[(i, j)]),
                    )
                    if lhs != n_ab.apply(inner):
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            found.append(NijenhuisFamily(algebra=algebra, omega=omega, maps=maps))
    return found


def split_operator(operator):
    """The body ``family._split_operator`` had while it built each splitting
    product column by column."""
    module, phi, omega = operator.bimodule, operator.cocycle, operator.omega
    d = module.dim
    vbasis = module.basis()

    prec = tuple(
        bilinear_tensor(d, lambda a, b, al=al: module.act_r(vbasis[a], operator.maps[al].column(b)))
        for al in omega.elements()
    )
    succ = tuple(
        bilinear_tensor(d, lambda a, b, al=al: module.act_l(operator.maps[al].column(a), vbasis[b]))
        for al in omega.elements()
    )
    vee = tuple(
        tuple(
            bilinear_tensor(
                d,
                lambda a, b, al=al, be=be: phi.apply(
                    operator.maps[al].column(a), operator.maps[be].column(b)
                ),
            )
            for be in omega.elements()
        )
        for al in omega.elements()
    )
    return HomNSFamilyAlgebra(dim=d, omega=omega, prec=prec, succ=succ, vee=vee, p=module.q)


def tridend_from_weighted(family):
    """The body ``family.tridend_from_weighted_rbf`` had while it built each
    product column by column."""
    ensure_valid(family, check_weighted_rbf, "weighted Rota-Baxter family")
    A, omega = family.algebra, family.omega
    n = A.dim
    basis = A.basis()
    prec = tuple(
        bilinear_tensor(n, lambda i, j, al=al: A.product(basis[i], family.maps[al].column(j)))
        for al in omega.elements()
    )
    succ = tuple(
        bilinear_tensor(n, lambda i, j, al=al: A.product(family.maps[al].column(i), basis[j]))
        for al in omega.elements()
    )
    return HomTridendFamily(
        dim=n, omega=omega, prec=prec, succ=succ, dot=A.mu.scale(family.weight), p=A.p
    )


def derived_bimodule(operator):
    """The body ``family.operator_bimodule`` had while it built each action
    column by column, over the frozen splitting."""
    ensure_valid(operator, check_twisted_rbf, "twisted Rota-Baxter family")
    A, module, phi, omega = (
        operator.algebra,
        operator.bimodule,
        operator.cocycle,
        operator.omega,
    )
    n, d = A.dim, module.dim
    vbasis = module.basis()
    ebasis = A.basis()
    parent = _total_product(split_operator(operator))

    def left_tensor(a, b):
        r_ab = operator.maps[omega.mul(a, b)]

        def col(u, i):
            ru = operator.maps[a].column(u)
            x = ebasis[i]
            return vsub(
                vsub(A.product(ru, x), r_ab.apply(module.act_r(vbasis[u], x))),
                r_ab.apply(phi.apply(ru, x)),
            )

        return bilinear_tensor((n, d, n), col)

    def right_tensor(a, b):
        r_ab = operator.maps[omega.mul(a, b)]

        def col(i, u):
            rv = operator.maps[b].column(u)
            x = ebasis[i]
            return vsub(
                vsub(A.product(x, rv), r_ab.apply(module.act_l(x, vbasis[u]))),
                r_ab.apply(phi.apply(x, rv)),
            )

        return bilinear_tensor((n, n, d), col)

    left = tuple(tuple(left_tensor(a, b) for b in omega.elements()) for a in omega.elements())
    right = tuple(tuple(right_tensor(a, b) for b in omega.elements()) for a in omega.elements())
    return OmegaBimodule(parent=parent, dim=n, left=left, right=right, q=A.p)


def yau_twist(family, endo):
    """The body ``family.yau_twist_ns_family`` had while it twisted each
    product column by column."""
    ensure_valid(family, check_hom_ns_family, "Hom-NS family algebra")
    report = check_ns_family_morphism(endo, family, family)
    require_pass(report, "structure-preserving endomorphism")
    omega, n = family.omega, family.dim

    def twist(tensor):
        return bilinear_tensor(n, lambda i, j: multilinear_apply(tensor, [endo.column(i), endo.column(j)]))

    return HomNSFamilyAlgebra(
        dim=n,
        omega=omega,
        prec=tuple(twist(t) for t in family.prec),
        succ=tuple(twist(t) for t in family.succ),
        vee=tuple(tuple(twist(t) for t in row) for row in family.vee),
        p=endo.mul(family.p),
    )


def _add(a, b):
    if isinstance(a, list):
        return [_add(x, y) for x, y in zip(a, b)]
    return a + b


def relative_family_law_holds(operator):
    """Twist-free family law: R_a u . R_b v == R_ab(R_a u .l v + u .r R_b v).

    Independent of the package's checker; used for the phi = 0 degeneration.
    """
    A = operator.algebra
    module = operator.bimodule
    omega = operator.omega
    mu = nested_of(A.mu)
    left = nested_of(module.left)
    right = nested_of(module.right)
    maps = [rows_of(m) for m in operator.maps]
    n, d = A.dim, module.dim

    def apply_mat(mat, vec):
        return [sum(mat[i][j] * vec[j] for j in range(len(vec))) for i in range(len(mat))]

    for a, b in product(range(omega.size), repeat=2):
        ab = omega.mul(a, b)
        for u_i, v_i in product(range(d), repeat=2):
            u = [Fraction(int(i == u_i)) for i in range(d)]
            v = [Fraction(int(i == v_i)) for i in range(d)]
            ru = apply_mat(maps[a], u)
            rv = apply_mat(maps[b], v)
            lhs = naive_multilinear(mu, [ru, rv])
            inner = _add(
                naive_multilinear(left, [ru, v]), naive_multilinear(right, [u, rv])
            )
            rhs = apply_mat(maps[ab], inner)
            if lhs != rhs:
                return False
    return True


def dendriform_family_law_holds(family):
    """The two-product subsystem: the three mixed associativity laws with
    the pair-indexed product dropped."""
    omega = family.omega
    n = family.dim
    prec = [nested_of(t) for t in family.prec]
    succ = [nested_of(t) for t in family.succ]
    p = rows_of(family.p)

    def apply_mat(mat, vec):
        return [sum(mat[i][j] * vec[j] for j in range(len(vec))) for i in range(len(mat))]

    basis = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    for a, b in product(range(omega.size), repeat=2):
        ab = omega.mul(a, b)
        for i, j, k in product(range(n), repeat=3):
            x, y, z = basis[i], basis[j], basis[k]
            px, pz = apply_mat(p, x), apply_mat(p, z)
            inner = _add(
                naive_multilinear(prec[b], [y, z]), naive_multilinear(succ[a], [y, z])
            )
            if naive_multilinear(prec[ab], [px, inner]) != naive_multilinear(
                prec[b], [naive_multilinear(prec[a], [x, y]), pz]
            ):
                return False
            if naive_multilinear(prec[b], [naive_multilinear(succ[a], [x, y]), pz]) != naive_multilinear(
                succ[a], [px, naive_multilinear(prec[b], [y, z])]
            ):
                return False
            if naive_multilinear(succ[ab], [inner, pz]) != naive_multilinear(
                succ[a], [px, naive_multilinear(succ[b], [y, z])]
            ):
                return False
    return True


def oracle_full_constraint(source_map, target_map, nkeys, degree):
    """Dense rows of the membership constraint q o f = f o p^(x n) on the
    whole raw coefficient space (all index tuples at once).

    Coefficient order: index tuple, then the output coordinate, then the
    input multi-index.  Row (key, k, i_vec), column (key', k', j_vec):
    q[k][k'] [key'=key][j=i] - [key'=key][k'=k] prod_l p[j_l][i_l].
    """
    p, q = rows_of(source_map), rows_of(target_map)
    d = len(q)
    in_idx = list(product(range(len(p)), repeat=degree))
    block = d * len(in_idx)
    raw = block * nkeys
    rows = [[Fraction(0)] * raw for _ in range(raw)]
    for kpos in range(nkeys):
        base = kpos * block
        for krow in range(d):
            for ipos, ivec in enumerate(in_idx):
                r = base + krow * len(in_idx) + ipos
                for kcol in range(d):
                    rows[r][base + kcol * len(in_idx) + ipos] += q[krow][kcol]
                for jpos, jvec in enumerate(in_idx):
                    w = Fraction(1)
                    for jl, il in zip(jvec, ivec):
                        w *= p[jl][il]
                    rows[r][base + krow * len(in_idx) + jpos] -= w
    return rows


class NaiveFamilyComplex:
    """From-scratch twisted-family differential.

    ``delta`` takes any structure maps.  ``dim_c``, ``differential_matrix``
    and ``dims`` require p = q = id (true for every desk instance), where
    the cochain membership constraint is vacuous and the coefficient space
    is the full table space.  Coefficient order: index tuples
    lexicographically, then the output coordinate, then the input
    multi-index.
    """

    def __init__(self, operator):
        A = operator.algebra
        module = operator.bimodule
        self.p = rows_of(A.p)
        self.q = rows_of(module.q)
        self.omega = operator.omega
        self.n = A.dim
        self.d = module.dim
        self.mu = nested_of(A.mu)
        self.left = nested_of(module.left)
        self.right = nested_of(module.right)
        self.phi = nested_of(operator.cocycle.phi)
        self.maps = [rows_of(m) for m in operator.maps]

    def apply_map(self, alpha, vec):
        mat = self.maps[alpha]
        return [sum(mat[i][j] * vec[j] for j in range(len(vec))) for i in range(len(mat))]

    def keys(self, degree):
        if degree == 0:
            return [()]
        return list(product(range(self.omega.size), repeat=degree))

    def _require_identity_maps(self):
        for name, mat in (("p", self.p), ("q", self.q)):
            assert mat == [
                [Fraction(int(i == j)) for j in range(len(mat))] for i in range(len(mat))
            ], f"oracle needs {name} = id"

    def dim_c(self, degree):
        self._require_identity_maps()
        if degree == 0:
            return self.n
        return len(self.keys(degree)) * self.n * self.d**degree

    def coeff_index(self, degree, key, k, idx):
        keys = self.keys(degree)
        block = self.n * self.d**degree
        pos = keys.index(key)
        flat = 0
        for i in idx:
            flat = flat * self.d + i
        return pos * block + k * (self.d**degree) + flat

    def basis_cochain(self, degree, coeff_pos):
        """Coefficient position -> table key -> nested [k][i1]..[idegree]."""
        table = {}
        for key in self.keys(degree):
            table[key] = self._zero_table(degree)
        if degree == 0:
            vec = [Fraction(0)] * self.n
            vec[coeff_pos] = Fraction(1)
            return vec
        block = self.n * self.d**degree
        pos, rest = divmod(coeff_pos, block)
        k, flat = divmod(rest, self.d**degree)
        idx = []
        for _ in range(degree):
            flat, r = divmod(flat, self.d)
            idx.append(r)
        idx = list(reversed(idx))
        node = table[self.keys(degree)[pos]]
        target = node[k]
        for i in idx[:-1]:
            target = target[i]
        target[idx[-1]] = Fraction(1)
        return table

    def _zero_table(self, degree):
        def build(level):
            if level == 0:
                return Fraction(0)
            return [build(level - 1) for _ in range(self.d)]

        return [build(degree) for _ in range(self.n)]

    def eval_cochain(self, degree, table, key, arg_vectors):
        """f_{key}(args) by naive contraction."""
        if degree == 0:
            return list(table)
        return naive_multilinear(table[key], arg_vectors)

    def unit_v(self, a):
        return [Fraction(int(i == a)) for i in range(self.d)]

    def q_v(self, a, times=1):
        """q^times e_a."""
        v = self.unit_v(a)
        for _ in range(times):
            v = [sum(self.q[i][j] * v[j] for j in range(self.d)) for i in range(self.d)]
        return v

    def star(self, a, b, u, v):
        ru = self.apply_map(a, u)
        rv = self.apply_map(b, v)
        return _add(
            _add(naive_multilinear(self.left, [ru, v]), naive_multilinear(self.right, [u, rv])),
            naive_multilinear(self.phi, [ru, rv]),
        )

    def delta(self, degree, table):
        """Degree-n differential as a table over (n+1)-tuples."""
        omega = self.omega
        out = {}
        if degree == 0:
            x = list(table)
            for alpha in range(omega.size):
                cols = []
                for a in range(self.d):
                    u = self.unit_v(a)
                    ru = self.apply_map(alpha, u)
                    val = naive_multilinear(self.mu, [ru, x])
                    val = [
                        p - q
                        for p, q in zip(
                            val, self.apply_map(alpha, naive_multilinear(self.right, [u, x]))
                        )
                    ]
                    val = [
                        p - q
                        for p, q in zip(
                            val, self.apply_map(alpha, naive_multilinear(self.phi, [ru, x]))
                        )
                    ]
                    val = [p - q for p, q in zip(val, naive_multilinear(self.mu, [x, ru]))]
                    val = [
                        p + q
                        for p, q in zip(
                            val, self.apply_map(alpha, naive_multilinear(self.left, [x, u]))
                        )
                    ]
                    val = [
                        p + q
                        for p, q in zip(
                            val, self.apply_map(alpha, naive_multilinear(self.phi, [x, ru]))
                        )
                    ]
                    cols.append(val)
                out[(alpha,)] = cols  # [a][k]
            return out
        for key in product(range(omega.size), repeat=degree + 1):
            pi = key[0]
            for a in key[1:]:
                pi = omega.mul(pi, a)
            values = {}
            for idx in product(range(self.d), repeat=degree + 1):
                u1 = self.q_v(idx[0], degree - 1)
                un1 = self.q_v(idx[-1], degree - 1)
                ftail = self.eval_cochain(
                    degree, table, key[1:], [self.unit_v(a) for a in idx[1:]]
                )
                fhead = self.eval_cochain(
                    degree, table, key[:-1], [self.unit_v(a) for a in idx[:-1]]
                )
                r1u1 = self.apply_map(key[0], u1)
                acc = naive_multilinear(self.mu, [r1u1, ftail])
                acc = [
                    p - q
                    for p, q in zip(
                        acc, self.apply_map(pi, naive_multilinear(self.right, [u1, ftail]))
                    )
                ]
                acc = [
                    p - q
                    for p, q in zip(
                        acc, self.apply_map(pi, naive_multilinear(self.phi, [r1u1, ftail]))
                    )
                ]
                sign_last = Fraction((-1) ** (degree + 1))
                rn = self.apply_map(key[-1], un1)
                last = naive_multilinear(self.mu, [fhead, rn])
                last = [
                    p - q
                    for p, q in zip(
                        last, self.apply_map(pi, naive_multilinear(self.left, [fhead, un1]))
                    )
                ]
                last = [
                    p - q
                    for p, q in zip(
                        last, self.apply_map(pi, naive_multilinear(self.phi, [fhead, rn]))
                    )
                ]
                acc = [p + sign_last * q for p, q in zip(acc, last)]
                for i in range(1, degree + 1):
                    mkey = key[: i - 1] + (self.omega.mul(key[i - 1], key[i]),) + key[i + 1 :]
                    args = [self.q_v(a) for a in idx[: i - 1]]
                    args.append(self.star(key[i - 1], key[i], self.unit_v(idx[i - 1]), self.unit_v(idx[i])))
                    args.extend(self.q_v(a) for a in idx[i + 1 :])
                    term = self.eval_cochain(degree, table, mkey, args)
                    sgn = Fraction((-1) ** i)
                    acc = [p + sgn * q for p, q in zip(acc, term)]
                values[idx] = acc
            out[key] = values
        return out

    def differential_matrix(self, degree):
        """Rows = coefficients at degree + 1, columns = basis at degree."""
        self._require_identity_maps()
        rows_count = self.dim_c(degree + 1)
        cols_count = self.dim_c(degree)
        matrix = [[Fraction(0)] * cols_count for _ in range(rows_count)]
        for col in range(cols_count):
            table = self.basis_cochain(degree, col)
            image = self.delta(degree, table)
            if degree == 0:
                for alpha in range(self.omega.size):
                    cols = image[(alpha,)]
                    for a in range(self.d):
                        for k in range(self.n):
                            r = self.coeff_index(1, (alpha,), k, (a,))
                            matrix[r][col] = cols[a][k]
            else:
                for key in self.keys(degree + 1):
                    values = image[key]
                    for idx, vec in values.items():
                        for k in range(self.n):
                            r = self.coeff_index(degree + 1, key, k, idx)
                            matrix[r][col] = vec[k]
        return matrix

    def dims(self, degree):
        self._require_identity_maps()
        m_n = self.differential_matrix(degree)
        dim_c = self.dim_c(degree)
        dim_z = dim_c - naive_rank(m_n)
        if degree == 0:
            dim_b = 0
        else:
            dim_b = naive_rank(self.differential_matrix(degree - 1))
        return (dim_c, dim_z, dim_b, dim_z - dim_b)


# ---------------------------------------------------------------------------
# law primitives, frozen while they contracted once per basis tuple


def _as_tensor(t):
    return Tensor((t.rows, t.cols), t.entries) if isinstance(t, Matrix) else t


def tuple_intertwining_sides(out, src, tgt, ins):
    """The body ``reports.intertwining_sides`` had while it applied ``out``
    and contracted ``tgt`` once per basis tuple.

    Kept verbatim, so the one that composes out o src and
    tgt o (ins[0] x ... x ins[n-1]) as whole tensors can be held to
    ``repr``-identical sides, entry types included.
    """
    src, tgt = _as_tensor(src), _as_tensor(tgt)
    cols = [[m.column(j) for j in range(m.cols)] for m in ins]
    for idx in product(*(range(d) for d in src.shape[1:])):
        lhs = out.apply(tensor_column(src, idx))
        yield idx, lhs, multilinear_apply(tgt, [c[j] for c, j in zip(cols, idx)])


def tuple_intertwining_cases(out, src, tgt, ins, names, where=None):
    """``reports.intertwining_cases`` read through the frozen sides."""
    prefix = where or {}
    for idx, lhs, rhs in tuple_intertwining_sides(out, src, tgt, ins):
        case = dict(prefix)
        case.update(zip(names, idx))
        yield case, vsub(lhs, rhs)


def tuple_nested_cases(first, last, terms, names, where=None):
    """The body ``reports.nested_cases`` had while it contracted each term
    once per basis triple.

    Kept verbatim, so the one that composes each term as a whole tensor per
    leading index can be held to ``repr``-identical cases.
    """
    _, outer0, inner0, left0 = terms[0]
    middle = inner0.shape[2] if left0 else inner0.shape[1]
    first_cols = [first.column(i) for i in range(first.cols)]
    last_cols = [last.column(k) for k in range(last.cols)]
    zero = (ZERO,) * outer0.shape[0]
    prefix = where or {}
    for idx in product(range(first.cols), range(middle), range(last.cols)):
        i, j, k = idx
        case = dict(prefix)
        case.update(zip(names, idx))
        residual = zero
        for sign, outer, inner, left in terms:
            if left:
                term = multilinear_apply(outer, [tensor_column(inner, (i, j)), last_cols[k]])
            else:
                term = multilinear_apply(outer, [first_cols[i], tensor_column(inner, (j, k))])
            residual = vadd(residual, term) if sign > 0 else vsub(residual, term)
        yield case, residual


def tuple_is_equivariant(q, p, degree, tensors):
    """``homalg.is_equivariant`` read through the frozen sides."""
    if degree and q.is_identity() and p.is_identity():
        return True
    tensors = (Tensor((len(f),), f) if isinstance(f, tuple) else f for f in tensors)
    return not any(
        lhs != rhs for f in tensors for _, lhs, rhs in tuple_intertwining_sides(q, f, f, [p] * degree)
    )


def tuple_hochschild_differential(module, degree, f):
    """The body ``homalg.hochschild_differential`` had while it called
    ``multilinear_apply`` (through ``act_l``, ``act_r`` and on f) once per
    term of each basis tuple.

    Kept verbatim, with its membership checks read through the frozen
    ``tuple_is_equivariant``, so the one that contracts hoisted integer
    columns over one common denominator can be held to ``repr``-identical
    tensors and to the same exceptions.
    """
    A = module.parent
    n, d = A.dim, module.dim
    if degree < 0:
        raise InputError("degree must be nonnegative")
    if degree == 0:
        u = tuple(f) if isinstance(f, (tuple, list)) else tuple(f.entries)
        if len(u) != d:
            raise InputError("degree-0 cochain has wrong length")
        if not tuple_is_equivariant(module.q, A.p, 0, [u]):
            raise InputError("degree-0 cochain violates q(u) = u")
        cols = [vsub(module.act_l(x, u), module.act_r(u, x)) for x in A.basis()]
        out = Tensor.from_function((d, n), lambda k, j: cols[j][k])
        if not tuple_is_equivariant(module.q, A.p, 1, [out]):
            raise RouteMismatchError(
                "differential output violates the membership constraint; "
                "the underlying bimodule most likely fails its axioms"
            )
        return out
    if f.shape != (d,) + (n,) * degree:
        raise InputError(f"cochain tensor must have shape {(d,) + (n,) * degree}")
    if not tuple_is_equivariant(module.q, A.p, degree, [f]):
        raise InputError("cochain violates the membership constraint q o f = f o p^n")

    p_pow = A.p.power(degree - 1)
    p_cols = [A.p.column(j) for j in range(n)]
    ppow_cols = [p_pow.column(j) for j in range(n)]
    sign_last = 1 if (degree + 1) % 2 == 0 else -1

    inner = n ** (degree + 1)
    out = [None] * (d * inner)
    for flat, idx in enumerate(product(range(n), repeat=degree + 1)):
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
    if not tuple_is_equivariant(module.q, A.p, degree + 1, [result]):
        raise RouteMismatchError(
            "differential output violates the membership constraint; "
            "the underlying bimodule most likely fails its axioms"
        )
    return result


# ---------------------------------------------------------------------------
# entrywise array code, frozen while Matrix and Tensor each wrote their own


def matrix_add(a, b):
    """``Matrix.add`` as written apart from ``Tensor.add``.

    Kept verbatim, like the other ``matrix_*`` and ``tensor_*`` bodies
    below, so the array layer the two classes share can be held to
    ``repr``-identical results and the same exceptions.
    """
    if a.rows != b.rows or a.cols != b.cols:
        raise InputError("matrix shape mismatch")
    return Matrix(a.rows, a.cols, tuple(x + y for x, y in zip(a.entries, b.entries)))


def matrix_sub(a, b):
    if a.rows != b.rows or a.cols != b.cols:
        raise InputError("matrix shape mismatch")
    return Matrix(a.rows, a.cols, tuple(x - y for x, y in zip(a.entries, b.entries)))


def matrix_neg(a):
    return Matrix(a.rows, a.cols, tuple(-x for x in a.entries))


def matrix_scale(a, c):
    c = ensure_scalar(c)
    return Matrix(a.rows, a.cols, tuple(c * x for x in a.entries))


def matrix_is_zero(a):
    return not any(a.entries)


def matrix_is_identity(a):
    if a.rows != a.cols:
        return False
    return all(
        a.at(i, j) == (ONE if i == j else ZERO)
        for i in range(a.rows)
        for j in range(a.cols)
    )


def tensor_add(a, b):
    if a.shape != b.shape:
        raise InputError("tensor shape mismatch")
    return Tensor(a.shape, tuple(x + y for x, y in zip(a.entries, b.entries)))


def tensor_sub(a, b):
    if a.shape != b.shape:
        raise InputError("tensor shape mismatch")
    return Tensor(a.shape, tuple(x - y for x, y in zip(a.entries, b.entries)))


def tensor_neg(a):
    return Tensor(a.shape, tuple(-x for x in a.entries))


def tensor_scale(a, c):
    c = ensure_scalar(c)
    return Tensor(a.shape, tuple(c * x for x in a.entries))


def tensor_is_zero(a):
    return not any(a.entries)


def copying_compose(outer, parts):
    """The body ``linalg._compose`` had while it copied every ``Matrix``
    input into a ``Tensor`` (``_as_tensor``) to read its shape.

    Kept verbatim, on the package kernel ``_compose_state``, so the one that
    reads a ``Matrix`` in place can be held to ``repr``-identical tensors
    and to the same exceptions.
    """
    scales, values = _values((outer, *parts))
    outer, parts = _as_tensor(outer), [_as_tensor(t) for t in parts]
    shape = outer.shape
    if len(shape) != len(parts) + 1 or any(t.shape[0] != a for t, a in zip(parts, shape[1:])):
        raise InputError(f"cannot compose shape {shape} with {[t.shape for t in parts]}")
    rows = [_rows(v, t.shape[0], prod(t.shape[1:])) for t, v in zip(parts, values[1:])]
    state = _compose_state(shape, _nonzeros(values[0]), rows)
    out_shape = shape[:1] + sum((t.shape[1:] for t in parts), ())
    out = [ZERO] * prod(out_shape)
    den = None if scales is None else prod(scales)
    for k, v in state.items():
        out[k] = v if den is None else Fraction(v, den)
    return Tensor(out_shape, tuple(out))


# ---------------------------------------------------------------------------
# stencil maps, frozen while each first/last-term map was probed on unit
# vectors and the walker added Fractions one cell at a time


_ProbedStencil = namedtuple("_ProbedStencil", ["first", "last", "merged", "smap"])


def _stencil_sparse(v):
    return [(j, c) for j, c in enumerate(v) if c]


def _probe(fn, dim):
    """Nonzero entries (k, k', c) of a linear map on a dim-space."""
    return [(k, kp, c) for kp in range(dim) for k, c in enumerate(fn(unit_vector(dim, kp))) if c]


def probed_omega_stencil(algebra, module, degree):
    """The body ``cohomology._omega_stencil`` had while it probed act_l and
    act_r on unit vectors.  Kept verbatim, like the stencil bodies below,
    so the stencil maps can be held to ``repr``-identical matrices and
    images and to the same exceptions."""
    omega, g, d = algebra.omega, algebra.dim, module.dim
    ppow = algebra.p.power(max(degree - 1, 0))
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
        return [[_stencil_sparse(tensor_column(t, (a, b))) for b in range(g)] for a in range(g)]

    return _ProbedStencil(
        first=lambda key: first(key[0], omega.product(key[1:])),
        last=lambda key: last(omega.product(key[:-1]), key[-1]),
        merged=lambda key, i: merged(key[i - 1], key[i]),
        smap=[_stencil_sparse(algebra.p.column(j)) for j in range(g)],
    )


def probed_rbf_stencil(operator, degree):
    A, module, phi, omega = (
        operator.algebra,
        operator.bimodule,
        operator.cocycle,
        operator.omega,
    )
    n, d = A.dim, module.dim
    qpow = module.q.power(max(degree - 1, 0))
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
            [_stencil_sparse(twisted_inner_sum(operator, alpha, beta, vbasis[a], vbasis[b])) for b in range(d)]
            for a in range(d)
        ]

    return _ProbedStencil(
        first=lambda key: first(key[0], omega.product(key)),
        last=lambda key: last(key[-1], omega.product(key)),
        merged=lambda key, i: merged(key[i - 1], key[i]),
        smap=[_stencil_sparse(module.q.column(a)) for a in range(d)],
    )


def probed_ha_stencil(module, degree):
    A, d = module.parent, module.dim
    ppow = A.p.power(max(degree - 1, 0))
    ppow_cols = [ppow.column(j) for j in range(A.dim)]
    first = [_probe(lambda v: module.act_l(x, v), d) for x in ppow_cols]
    last = [_probe(lambda v: module.act_r(v, x), d) for x in ppow_cols]
    merged = [[_stencil_sparse(A.basis_product(a, b)) for b in range(A.dim)] for a in range(A.dim)]
    return _ProbedStencil(
        first=lambda key: first,
        last=lambda key: last,
        merged=lambda key, i: merged,
        smap=[_stencil_sparse(A.p.column(j)) for j in range(A.dim)],
    )


def fraction_assemble_stencil(handle, degree, stencil):
    """The body ``cohomology._assemble_stencil`` had while it added
    ``Fraction`` entries one cell at a time."""
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
        for flat, idx in enumerate(product(range(g), repeat=n + 1)):
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
                for combo in product(*args):
                    j, w = 0, (-1 if i % 2 else 1)
                    for jl, c in combo:
                        j, w = j * g + jl, w * c
                    for k in range(d):
                        add(m0 + k * inner_in + j, row + k * inner_out, w)
    return cols


def fraction_apply_columns(cols, support):
    """The body ``cohomology._apply_columns`` had on ``Fraction`` columns."""
    out = {}
    for c, e in support:
        for r, v in cols[c].items():
            out[r] = out.get(r, ZERO) + e * v
    return {r: v for r, v in out.items() if v}


class ProbedStencilHandle(ComplexHandle):
    """A ``ComplexHandle`` whose stencil maps are built and applied by the
    frozen bodies above: ``_stencil_maps`` and ``_apply_maps`` are the
    handle's former methods, verbatim but for the frozen names and the
    (columns or image, 1) pairs that the handle passes on: the values are
    the ``Fraction`` entries themselves, over the denominator 1."""

    def _stencil_maps(self, degree):
        if degree in self._maps:
            return self._maps[degree]
        self._guard_degree(degree)
        if self.tag == HA:
            stencils = [probed_ha_stencil(self.ha_module, degree)]
        else:
            stencils = [probed_omega_stencil(self.omega_algebra, self.omega_module, degree)]
            if self.tag == RBF:
                stencils.insert(0, probed_rbf_stencil(self.operator, degree))
        maps = [(fraction_assemble_stencil(self, degree, s), 1) for s in stencils]
        self._maps[degree] = maps
        return maps

    def _apply_maps(self, maps, degree, support, where=""):
        image, *others = [fraction_apply_columns(cols, support) for cols, _ in maps]
        for other in others:
            if other != image:
                row = min(r for r in image.keys() | other.keys() if image.get(r) != other.get(r))
                key, entry = self._locate(degree + 1, row)
                raise RouteMismatchError(
                    f"twisted-family differential routes disagree at index tuple {key}, "
                    f"entry {entry}{where}"
                )
        return image, 1


def probed_handle(handle):
    """A ``ProbedStencilHandle`` on the data of ``handle``, with empty caches."""
    data = {f.name: getattr(handle, f.name) for f in fields(handle) if not f.name.startswith("_")}
    return ProbedStencilHandle(**data)


# ---------------------------------------------------------------------------
# signed sums, frozen while each builder summed its own terms


def first_index_nested_cases(first, last, terms, names, where=None):
    """The body ``reports.nested_cases`` had while it composed each term
    once per first index i, with per-term denominators and multipliers and
    rows sliced off the law's integer views.

    Kept verbatim, with its ``_signed_state`` and ``_residual_columns``
    (``first_index_signed_state``, ``residual_columns``), so the one that
    composes each term whole through one signed sum can be held to
    ``repr``-identical cases and to the same exceptions.
    """
    _, outer0, inner0, left0 = terms[0]
    middle = inner0.shape[2] if left0 else inner0.shape[1]
    shape = (outer0.shape[0], middle, last.cols)
    count = first.cols
    for _, outer, inner, left in terms:
        e = inner.shape[0] if inner.shape else -1
        if left:
            want = ((shape[0], e, last.rows), (e, count, middle))
        else:
            want = ((shape[0], first.rows, e), (e, middle, last.cols))
        if (outer.shape, inner.shape) != want:
            raise InputError(f"nested term of shapes {outer.shape} and {inner.shape}, expected {want}")
    scales, values = _values([first, last, *(t for _, outer, inner, _ in terms for t in (outer, inner))])
    dens = None
    if scales is not None:
        edges = (scales[1] if left else scales[0] for *_, left in terms)
        dens = [s_outer * s_inner * s for s_outer, s_inner, s in zip(scales[2::2], scales[3::2], edges)]
    multipliers, den = _multipliers([sign for sign, *_ in terms], dens)
    # Row a * count + i of ``firsts`` is first[a][i], and of a left term's
    # inner rows inner[a][i][:]: both are sliced per i.  A right term's
    # inner is one fixed part.
    firsts, _ = _rows(values[0], first.rows * count, 1)
    lasts = _rows(values[1], last.rows, last.cols)
    prepared = []
    for m, term, outer_values, entries in zip(multipliers, terms, values[2::2], values[3::2]):
        _, outer, inner, left = term
        e = inner.shape[0]
        rows = _rows(entries, e * count, middle)[0] if left else _rows(entries, e, middle * last.cols)
        prepared.append((m, outer.shape, _nonzeros(outer_values), rows, left))
    prefix = where or {}
    for i in range(count):
        composed = []
        for m, outer_shape, outer_state, rows, left in prepared:
            heads = range(outer_shape[1])
            if left:
                parts = [([rows[a * count + i] for a in heads], middle), lasts]
            else:
                parts = [([firsts[a * count + i] for a in heads], 1), rows]
            composed.append((m, outer_shape, outer_state, parts))
        state = first_index_signed_state(composed)
        indices = product(range(middle), range(shape[2]))
        for (j, k), residual in zip(indices, residual_columns(state, den, shape)):
            case = dict(prefix)
            case.update(zip(names, (i, j, k)))
            yield case, residual


def first_index_signed_state(terms):
    """The state of the sum of m * (outer o (parts...)) over the terms
    (m, outer shape, outer state, parts) of ``_compose_state``."""
    acc = {}
    get = acc.get
    for m, shape, state, parts in terms:
        for k, v in _compose_state(shape, state, parts).items():
            w = get(k)
            acc[k] = v * m if w is None else w + v * m
    return acc


def residual_columns(state, den, shape):
    """The columns of a residual state over ``shape`` = (d, *inputs), one
    tuple per input tuple in row-major order."""
    d, inner = shape[0], prod(shape[1:])
    columns = {}
    for flat, v in state.items():
        if den is not None:
            if not v:
                continue
            v = Fraction(v, den)
        k, c = divmod(flat, inner)
        column = columns.get(c)
        if column is None:
            column = columns[c] = [ZERO] * d
        column[k] = v
    zero = (ZERO,) * d
    for c in range(inner):
        column = columns.get(c)
        yield zero if column is None else tuple(column)


def sided_intertwining_residual(out, src, tgt, ins):
    """The body ``reports.intertwining_residual`` had while it put its two
    sides over one denominator itself.

    Kept verbatim, on ``first_index_signed_state``, so the one that is a
    two-term signed sum can be held to ``repr``-identical states and to the
    same exceptions.
    """
    src_shape, tgt_shape = src.shape, tgt.shape
    ins_shapes = [(m.rows, m.cols) for m in ins]
    shape = (out.rows, *src_shape[1:])
    if (
        out.cols != src_shape[0]
        or tgt_shape[1:] != tuple(r for r, _ in ins_shapes)
        or shape != (tgt_shape[0], *(c for _, c in ins_shapes))
    ):
        raise InputError(
            f"law sides {(out.rows, out.cols)} o {src_shape} and {tgt_shape} o {ins_shapes} do not match"
        )
    scales, values = _values((out, src, tgt, *ins))
    dens = None if scales is None else (scales[0] * scales[1], prod(scales[2:]))
    (lhs_m, rhs_m), den = _multipliers((1, -1), dens)
    lhs = [_rows(values[1], out.cols, prod(shape[1:]))]
    rhs = [_rows(v, m.rows, m.cols) for m, v in zip(ins, values[3:])]
    sides = [
        (lhs_m, (out.rows, out.cols), _nonzeros(values[0]), lhs),
        (rhs_m, tgt_shape, _nonzeros(values[2]), rhs),
    ]
    return first_index_signed_state(sides), den, shape


def single_compose(outer, parts):
    """The body ``linalg._compose`` had while it composed one term on its
    own, before it became the one-term case of a signed sum.

    Kept verbatim, on the package kernel ``_compose_state``, so the signed
    sum can be held to ``repr``-identical tensors and to the same
    exceptions; the chained builders below compose through it.
    """
    scales, values = _values((outer, *parts))
    shape = outer.shape
    if len(shape) != len(parts) + 1 or any(t.shape[0] != a for t, a in zip(parts, shape[1:])):
        raise InputError(f"cannot compose shape {shape} with {[t.shape for t in parts]}")
    rows = [_rows(v, t.shape[0], prod(t.shape[1:])) for t, v in zip(parts, values[1:])]
    state = _compose_state(shape, _nonzeros(values[0]), rows)
    out_shape = shape[:1] + sum((t.shape[1:] for t in parts), ())
    out = [ZERO] * prod(out_shape)
    den = None if scales is None else prod(scales)
    for k, v in state.items():
        out[k] = v if den is None else Fraction(v, den)
    return Tensor(out_shape, tuple(out))


def chained_rbf_ends(operator, degree):
    """(first, last): the first- and last-term maps of
    ``cohomology._rbf_stencil`` as it built them, each a chain of ``sub``
    calls on separately composed tensors.

    Kept verbatim but for ``single_compose`` in place of ``_compose``;
    first(alpha, pi) and last(beta, pi) take the semigroup indices the
    stencil reads off a key.
    """
    A, module, phi = (
        operator.algebra,
        operator.bimodule,
        operator.cocycle.phi,
    )
    qpow = module.q.power(max(degree - 1, 0))
    eye = Matrix.identity(A.dim)
    right_q = single_compose(module.right, [qpow, eye])
    left_q = single_compose(module.left, [eye, qpow])

    @cache
    def r_q(alpha):
        return operator.maps[alpha].mul(qpow)

    @cache
    def first(alpha, pi):
        r_pi, ra_q = operator.maps[pi], r_q(alpha)
        return (
            single_compose(A.mu, [ra_q, eye])
            .sub(single_compose(r_pi, [right_q]))
            .sub(single_compose(r_pi, [single_compose(phi, [ra_q, eye])]))
        )

    @cache
    def last(beta, pi):
        r_pi, rb_q = operator.maps[pi], r_q(beta)
        return (
            single_compose(A.mu, [eye, rb_q])
            .sub(single_compose(r_pi, [left_q]))
            .sub(single_compose(r_pi, [single_compose(phi, [eye, rb_q])]))
        )

    return first, last


def chained_operator_bimodule(operator):
    """The body ``family.operator_bimodule`` had while each action was a
    chain of ``sub`` calls on separately composed tensors.

    Kept verbatim but for ``single_compose`` in place of ``_compose``.
    """
    ensure_valid(operator, check_twisted_rbf, "twisted Rota-Baxter family")
    A, module, phi = operator.algebra, operator.bimodule, operator.cocycle.phi
    omega, maps = operator.omega, operator.maps
    parent = _total_product(_split_operator(operator))
    # x . R_b u, R_a u . x, phi(x, R_b u) and phi(R_a u, x)
    x_r, r_x = _split_products(A.mu, A.mu, maps)
    phi_x_r, phi_r_x = _split_products(phi, phi, maps)

    def action(a, b, product, act, twisted):
        r_ab = maps[omega.mul(a, b)]
        return product.sub(single_compose(r_ab, [act])).sub(single_compose(r_ab, [twisted]))

    elements = omega.elements()
    left = tuple(tuple(action(a, b, r_x[a], module.right, phi_r_x[a]) for b in elements) for a in elements)
    right = tuple(tuple(action(a, b, x_r[b], module.left, phi_x_r[b]) for b in elements) for a in elements)
    return OmegaBimodule(parent=parent, dim=A.dim, left=left, right=right, q=A.p)


# ---------------------------------------------------------------------------
# matrix products and elimination, frozen while ``Matrix`` multiplied in
# loops of its own, ``_transported`` contracted one index tuple at a time and
# elimination read rows off a whole-matrix integer view


def dense_matrix_apply(m, v):
    """``Matrix.apply`` as a row loop of its own.

    Kept verbatim, like ``dense_matrix_mul`` below, so the products that run
    on the contraction kernels can be held to ``repr``-identical results and
    the same exceptions.
    """
    if len(v) != m.cols:
        raise InputError(f"matrix-vector mismatch: {m.cols} cols vs {len(v)}")
    support = [(j, x) for j, x in enumerate(v) if x]
    out = []
    for i in range(m.rows):
        acc = ZERO
        base = i * m.cols
        for j, x in support:
            e = m.entries[base + j]
            if e:
                acc = acc + e * x
        out.append(acc)
    return tuple(out)


def dense_matrix_mul(a, b):
    """``Matrix.mul`` as a triple loop of its own."""
    if a.cols != b.rows:
        raise InputError("matrix-matrix dimension mismatch")
    out = []
    for i in range(a.rows):
        base = i * a.cols
        for j in range(b.cols):
            acc = ZERO
            for k in range(a.cols):
                x = a.entries[base + k]
                if x:
                    y = b.entries[k * b.cols + j]
                    if y:
                        acc = acc + x * y
            out.append(acc)
    return Matrix(a.rows, b.cols, tuple(out))


def tuple_transported(psi, phi_inv, cochain, target_handle):
    """The body ``cohomology._transported`` had while it contracted the
    cochain once per index tuple through ``multilinear_apply``.

    Kept verbatim but for ``dense_matrix_apply`` in place of ``psi.apply``.
    """
    degree = cochain.degree
    if degree == 0:
        return target_handle.make_cochain(0, dense_matrix_apply(psi, cochain.table[()].entries))
    d = cochain.source_dim
    inv_cols = [phi_inv.column(a) for a in range(d)]
    table = {}
    for key in cochain.keys():
        t = cochain.table[key]
        cols = {}
        for idx in product(range(d), repeat=degree):
            cols[idx] = dense_matrix_apply(psi, multilinear_apply(t, [inv_cols[a] for a in idx]))
        table[key] = Tensor.from_function(t.shape, lambda k, *idx: cols[idx][k])
    return target_handle.make_cochain(degree, table)


def tuple_transport_cochain(morphism, cochain):
    """``cohomology.transport_cochain`` on ``tuple_transported`` and
    ``augmented_invert_matrix``, its body kept verbatim."""
    ensure_valid(morphism, check_operator_morphism, "operator morphism")
    src, tgt = morphism.source, morphism.target
    if src.bimodule != tgt.bimodule or src.algebra != tgt.algebra:
        raise InputError("cochain transport needs both families on one bimodule")
    source_handle, target_handle = rbf_complex(src), rbf_complex(tgt)
    if cochain.complex != RBF:
        raise InputError("only twisted-family cochains transport")
    phi_inv = augmented_invert_matrix(morphism.phi)
    out = tuple_transported(morphism.psi, phi_inv, cochain, target_handle)
    lhs = tuple_transported(morphism.psi, phi_inv, source_handle.differential(cochain), target_handle)
    rhs = target_handle.differential(out)
    for key in lhs.keys():
        if lhs.table[key].entries != rhs.table[key].entries:
            raise RouteMismatchError("cochain transport is not a chain map here")
    return out


def viewed_integer_rows(m, transpose=False):
    """The body ``linalg._integer_rows`` had while it read the rows (or
    columns) of a matrix off its cached integer view.

    Kept verbatim, with the ``rank``, ``kernel_supports``, ``solve`` and
    ``invert_matrix`` that called it (``viewed_rank``,
    ``viewed_kernel_supports``, ``augmented_solve``,
    ``augmented_invert_matrix``) on the package's ``_echelon`` and
    ``_kernel_from_echelon``, so elimination that reads each line of entries
    once can be held to ``repr``-identical answers and the same exceptions.
    """
    if m.integer_view is None:
        raise InputError("elimination is defined for rational matrices only")
    scale, ints = m.integer_view
    if transpose:
        lines = (ints[j :: m.cols] for j in range(m.cols))
    else:
        lines = (ints[i * m.cols : (i + 1) * m.cols] for i in range(m.rows))
    out = []
    for line in lines:
        row = {j: v for j, v in enumerate(line) if v}
        if row:
            g = gcd(scale, *row.values())
            out.append(row if g == 1 else {j: v // g for j, v in row.items()})
    return out


def viewed_rank(m):
    transpose = m.rows > m.cols
    return len(_echelon(viewed_integer_rows(m, transpose), m.rows if transpose else m.cols)[1])


def viewed_kernel_supports(m):
    return _sparse_kernel_from_echelon(*_echelon(viewed_integer_rows(m), m.cols), m.cols)


def augmented_solve(m, b):
    if len(b) != m.rows:
        raise InputError(f"right-hand side length {len(b)} != {m.rows} rows")
    b = [ensure_scalar(e) for e in b]
    augmented = Matrix(m.rows, m.cols + 1, tuple(e for i in range(m.rows) for e in (*m.row(i), b[i])))
    rows, pivots = _echelon(viewed_integer_rows(augmented), m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    *kernel, last = _sparse_kernel_from_echelon(rows, pivots, m.cols + 1)
    x = [ZERO] * m.cols
    for j, c in last[:-1]:
        x[j] = -c
    return tuple(x), [densify(v, m.cols) for v in kernel]


def augmented_invert_matrix(m):
    if m.rows != m.cols:
        raise InputError("only square matrices invert")
    n = m.rows
    augmented = Matrix(n, 2 * n, tuple(e for i in range(n) for e in m.row(i) + unit_vector(n, i)))
    rows, pivots = _echelon(viewed_integer_rows(augmented), 2 * n)
    if pivots != list(range(n)):
        raise InputError("matrix is not invertible")
    kernel = _sparse_kernel_from_echelon(rows, pivots, 2 * n)
    return Matrix.from_columns([tuple(-c for c in densify(v, 2 * n)[:n]) for v in kernel], rows=n)


# ---------------------------------------------------------------------------
# the signed-composition kernel, frozen while polynomial entries were
# multiplied entry by entry


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


def entrywise_signed_state(terms):
    """The body ``linalg._signed_state`` had while a ``TruncatedPoly``
    entry sent the whole call down an entry-wise branch: every product a
    ``TruncatedPoly.__mul__``, the signs as multipliers and den None.

    Kept verbatim, on the package kernel ``_compose_state``, so the
    kernel's polynomial path can be held to ``repr``-identical
    (state, den, shape), key order and entry types included, and to the
    same exceptions.
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
            raise InputError(f"cannot compose shape {outer.shape} with {[t.shape for t in parts]}")
        for part, a, v in zip(parts, outer_shape[1:], values[start + 1 :]):
            part_shape = part.shape
            if part_shape[0] != a:
                raise InputError(f"cannot compose shape {outer.shape} with {[t.shape for t in parts]}")
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


# ---------------------------------------------------------------------------
# the signed-composition kernel, frozen while every call read its arrays
# afresh: the sparse rows of each part and the nonzero state of each outer
# built per call, and every part composed, an identity included


def fresh_signed_state(terms):
    """The package's former ``linalg._signed_state``, kept verbatim (only
    the names of its frozen helpers below carry a ``_fresh`` prefix, and the
    array's cached ``coefficient_view`` is ``_fresh_coefficient_view`` of
    its entries), so
    the kernel that reads cached views and skips identity parts can be held
    to the same (state, den, shape): keys, zero-valued keys, key order and
    value types included."""
    arrays = [t for _, outer, parts in terms for t in (outer, *parts)]
    views = [t.integer_view for t in arrays]
    packed = None in views
    if packed:
        views = [_fresh_coefficient_view(t.entries) for t in arrays]
    scales = [view[0] for view in views]
    signs = [sign for sign, _, _ in terms]
    if len(terms) == 1:
        multipliers, den = signs, prod(scales)
    else:
        dens, start = [], 0
        for _, _, parts in terms:
            dens.append(prod(scales[start : start + len(parts) + 1]))
            start += len(parts) + 1
        multipliers, den = _multipliers(signs, dens)
    if packed:
        values, order, slot = _fresh_packed_values(terms, views, multipliers)
        marked = set()
    else:
        values = [ints for _, ints in views]
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
            rows.append(_fresh_rows(v, a, prod(part_shape[1:])))
        if shape is None:
            shape = term_shape
        elif term_shape != shape:
            raise InputError(f"cannot add compositions of shapes {shape} and {term_shape}")
        state = _fresh_compose_state(outer_shape, _fresh_nonzeros(values[start]), rows)
        if packed:
            term = slice(start, start + len(parts) + 1)
            marked.update(_fresh_polynomial_keys(state, outer_shape, rows, arrays[term], values[term], views[term]))
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
    if packed:
        return _fresh_unpacked(acc, den, order, slot, marked), None, shape
    return acc, den, shape


def _fresh_polynomial_keys(state, outer_shape, rows, arrays, values, views):
    """The package's former ``linalg._polynomial_keys``, kept verbatim on
    the frozen helpers."""
    if any(view.poly and not view.rational for view in views):
        return state
    keys = set()
    for s, (array, v, view) in enumerate(zip(arrays, values, views)):
        if not view.poly:
            continue
        cut = [x if isinstance(e, TruncatedPoly) else 0 for x, e in zip(v, array.entries)]
        if s == 0:
            keys.update(_fresh_compose_state(outer_shape, _fresh_nonzeros(cut), rows))
        else:
            part_rows, size = rows[s - 1]
            cut_rows = [*rows[: s - 1], _fresh_rows(cut, len(part_rows), size), *rows[s:]]
            keys.update(_fresh_compose_state(outer_shape, _fresh_nonzeros(values[0]), cut_rows))
    return keys


def _fresh_slot_width(bound):
    """The bits per coefficient of a packed polynomial whose coefficients
    all lie in [-bound, bound]: balanced base-2^s digits hold
    [-2^(s-1), 2^(s-1)), so s = bound.bit_length() + 1 (one bit fewer
    misreads -bound when bound is not a power of 2)."""
    return bound.bit_length() + 1


def _fresh_packed_values(terms, views, multipliers):
    """(values, order, slot) of ``_signed_state``'s packed path: the
    arrays' entries packed at ``slot`` bits per coefficient, and the
    call's one truncation order."""
    orders = {view.order for view in views} - {None}
    if len(orders) > 1:
        raise InputError("mixed truncation orders")
    bound, start = 0, 0
    for m, (_, outer, parts) in zip(multipliers, terms):
        end = start + len(parts) + 1
        bound += abs(m) * prod(outer.shape[1:]) * prod(view.norm for view in views[start:end])
        start = end
    slot = _fresh_slot_width(bound)
    values = []
    for view in views:
        packed = []
        for coeffs in view.coeffs:
            v = 0
            for c in reversed(coeffs):
                v = (v << slot) + c
            packed.append(v)
        values.append(packed)
    return values, orders.pop(), slot


def _fresh_unpacked(state, den, order, slot, marked):
    """``state`` with each packed value read back: a ``TruncatedPoly``
    of its first ``order`` balanced base-2^slot digits over den at a
    ``marked`` key, and ``Fraction(value, den)`` elsewhere (a constant)."""
    half, mask = 1 << (slot - 1), (1 << slot) - 1
    for k, v in state.items():
        if k in marked:
            coeffs = []
            for _ in range(order):
                c = ((v + half) & mask) - half
                coeffs.append(Fraction(c, den))
                v = (v - c) >> slot
            state[k] = TruncatedPoly(coeffs, order)
        else:
            state[k] = Fraction(v, den)
    return state


_FreshCoefficients = namedtuple("_FreshCoefficients", "scale order coeffs norm poly rational")


def _fresh_coefficient_view(entries):
    """``_Coefficients(scale, order, coeffs, norm, poly, rational)`` of
    entries that may be ``TruncatedPoly``s, for ``_signed_state``'s packed
    path.

    ``scale`` is the lcm of every coefficient's denominator (a rational is
    a constant polynomial), ``coeffs[i]`` the coefficients of entries[i]
    times scale, ``order`` the truncation order of the polynomial entries
    (None when there is none; two orders are refused), ``norm`` the
    largest |c_0| + |c_1| + ... of an entry, and ``poly`` and ``rational``
    whether some nonzero entry is a polynomial or a rational.  An entry
    that is neither is refused as ``ensure_rational`` refuses it.
    """
    order, poly, rational, raw = None, False, False, []
    for e in entries:
        if isinstance(e, TruncatedPoly):
            if order is None:
                order = e.order
            elif e.order != order:
                raise InputError("mixed truncation orders")
            poly = poly or bool(e)
            raw.append(e.coeffs)
        else:
            e = ensure_rational(e)
            rational = rational or bool(e)
            raw.append((e,))
    scale = lcm(*{c.denominator for cs in raw for c in cs})
    coeffs = [tuple(c.numerator * (scale // c.denominator) for c in cs) for cs in raw]
    norm = max((sum(map(abs, cs)) for cs in coeffs), default=0)
    return _FreshCoefficients(scale, order, coeffs, norm, poly, rational)



def _fresh_compose_state(shape, state, parts):
    """The package's former ``linalg._compose_state``, kept verbatim: every
    part is (rows, size) and is composed, an identity included."""
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


def _fresh_rows(entries, count, size):
    """The package's former ``linalg._rows``, kept verbatim."""
    rows = [[(j, x) for j, x in enumerate(entries[a * size : (a + 1) * size]) if x] for a in range(count)]
    return rows, size


def _fresh_nonzeros(entries):
    """The package's former ``linalg._nonzeros``, kept verbatim."""
    return {f: x for f, x in enumerate(entries) if x}


# ---------------------------------------------------------------------------
# deformation laws, frozen while their t and t^2 coefficients were read off
# residuals over K[t]/(t^3)

DEFORMATION_TRUNCATION = 3


def _coeff_vector(vec, i):
    return tuple(poly_coefficient(c, i) for c in vec)


def _order_coefficients(cases, what, orders):
    """The package's former ``deformations._order_coefficients``, kept
    verbatim: one list of (where, t^i coefficient of the residual) per i in
    ``orders``, after a nonzero constant term raised."""
    stored = list(cases)
    if any(any(_coeff_vector(residual, 0)) for _, residual in stored):
        raise RouteMismatchError(f"{what} broke at order 0")
    return [[(where, _coeff_vector(residual, i)) for where, residual in stored] for i in orders]


def _trivial_pair(operator, x):
    """The package's former ``deformations._trivial_pair``, kept verbatim:
    psi^t and each phi^t_a as matrices of ``TruncatedPoly`` entries over
    K[t]/(t^3)."""
    A, module, phi = operator.algebra, operator.bimodule, operator.cocycle
    x = vector(x)
    if len(x) != A.dim:
        raise InputError(f"element must live in the {A.dim}-dimensional algebra")

    def id_plus_t(basis, first_order):
        cols = [
            tuple(TruncatedPoly([b, c], DEFORMATION_TRUNCATION) for b, c in zip(e, first_order(e)))
            for e in basis
        ]
        return Matrix.from_columns(cols, rows=len(basis))

    def transform(r):
        def first_order(u):
            ru = r.apply(u)
            return vadd(
                vsub(module.act_l(x, u), module.act_r(u, x)),
                vsub(phi.apply(x, ru), phi.apply(ru, x)),
            )

        return first_order

    psi = id_plus_t(A.basis(), lambda a: _commutator(A, x, a))
    return x, psi, [id_plus_t(module.basis(), transform(r)) for r in operator.maps]


def _module_laws(operator, psi):
    """The package's former ``deformations._module_laws``, kept verbatim."""
    module, phi = operator.bimodule, operator.cocycle
    left, right = module.left, module.right
    return (
        ("(iv) phi^t o Phi = Phi o (psi^t x psi^t)", lambda al, ph: (ph, phi.phi, phi.phi, [psi, psi], ("a", "b"))),
        ("(v) phi^t(a .l u) = psi^t(a) .l phi^t(u)", lambda al, ph: (ph, left, left, [psi, ph], ("a", "u"))),
        ("(vi) phi^t(u .r a) = phi^t(u) .r psi^t(a)", lambda al, ph: (ph, right, right, [ph, psi], ("u", "a"))),
    )


def _per_alpha(law, phi_ts):
    return chain.from_iterable(
        intertwining_cases(*law(al, ph), {"alpha": al}) for al, ph in enumerate(phi_ts)
    )


def truncated_infinitesimal_report(deformation, max_violations=DEFAULT_MAX_VIOLATIONS):
    """The body ``deformations.check_infinitesimal`` had while it read the
    family identity of R + t R1 over K[t]/(t^3), on the frozen
    ``_order_coefficients``."""
    base = deformation.base
    ensure_valid(base, check_twisted_rbf, "base twisted Rota-Baxter family")
    return _truncated_infinitesimal(deformation, rbf_complex(base), max_violations)


def _truncated_infinitesimal(deformation, handle, max_violations=DEFAULT_MAX_VIOLATIONS):
    order1_cases, order2_cases = _order_coefficients(
        family_identity_cases(deformation.base, deformation.deformed_maps(DEFORMATION_TRUNCATION)),
        "base identity",
        (1, 2),
    )

    order1 = CheckReport(subject="infinitesimal deformation, order-1 identity")
    run_law(
        order1,
        "t-coefficient of R^t_a u . R^t_b v = R^t_ab(R^t_a u .l v + u .r R^t_b v + phi(..))",
        order1_cases,
        max_violations,
    )
    order2 = CheckReport(subject="order-2 coefficient (separate flag)")
    run_law(order2, "t^2-coefficient of the family identity", order2_cases, max_violations)

    cocycle = direction_cochain(handle, deformation.direction)
    cocycle_ok = handle.differential(cocycle).is_zero()
    if cocycle_ok != order1.passed:
        raise RouteMismatchError(
            "order-1 identity and degree-1 cocycle membership disagree"
        )
    return InfinitesimalReport(
        subject="infinitesimal deformation",
        order1=order1,
        order2=order2,
        cocycle_route_ok=cocycle_ok,
        notes=["the verdict is the order-1 condition; the order-2 coefficient is a separate flag"],
    )


def truncated_equivalence_report(deformation, other, x, max_violations=DEFAULT_MAX_VIOLATIONS):
    """The body ``deformations.check_equivalence`` had while it read the
    morphism laws of the trivial pair over K[t]/(t^3), on the frozen
    ``_order_coefficients``, ``_trivial_pair`` and ``_module_laws``."""
    if deformation.base is not other.base and deformation.base != other.base:
        raise InputError("equivalence needs two deformations of the same base family")
    base = deformation.base
    ensure_valid(base, check_twisted_rbf, "base twisted Rota-Baxter family")
    handle = rbf_complex(base)
    inf1 = _truncated_infinitesimal(deformation, handle)
    inf2 = _truncated_infinitesimal(other, handle)
    if not inf1.passed:
        raise PreconditionError("first deformation fails its order-1 check", report=inf1.order1)
    if not inf2.passed:
        raise PreconditionError("second deformation fails its order-1 check", report=inf2.order1)
    A, module, omega = base.algebra, base.bimodule, base.omega
    x, psi, phi_ts = _trivial_pair(base, x)
    if A.p.apply(x) != tuple(x):
        raise PreconditionError("element is not fixed by the structure map")
    maps_t = deformation.deformed_maps(DEFORMATION_TRUNCATION)
    maps_bar = other.deformed_maps(DEFORMATION_TRUNCATION)

    q = module.q
    per_alpha = (
        ("(ii) psi^t o R^t = Rbar^t o phi^t", lambda al, ph: (psi, maps_t[al], maps_bar[al], [ph], ("u",))),
        ("(iii) phi^t o q = q o phi^t", lambda al, ph: (ph, q, q, [ph], ("u",))),
    ) + _module_laws(base, psi)
    laws = [
        ("(i) psi^t multiplicative", intertwining_cases(psi, A.mu, A.mu, [psi, psi], ("a", "b"))),
        ("(i) psi^t commutes with p", intertwining_cases(psi, A.p, A.p, [psi], ("a",))),
    ] + [(name, _per_alpha(law, phi_ts)) for name, law in per_alpha]
    buckets = [
        (name, _order_coefficients(cases, f"condition {name}", (1, 2))) for name, cases in laws
    ]

    conditions = CheckReport(subject="equivalence morphism conditions")
    for name, (at_t, _) in buckets:
        run_law(conditions, f"{name} @ t^1", at_t, max_violations)
    mod_t2 = conditions.passed
    for name, (_, at_t2) in buckets:
        run_law(conditions, f"{name} @ t^2", at_t2, max_violations)
    all_orders = conditions.passed

    delta0 = rbf_delta0_matrices(handle, x)
    coboundary_cases = []
    for alpha in omega.elements():
        diff = deformation.direction[alpha].sub(other.direction[alpha])
        res = diff.sub(delta0[alpha])
        for a in range(module.dim):
            coboundary_cases.append(({"alpha": alpha, "u": a}, res.column(a)))
    run_law(conditions, "R1 - R1bar = delta0(x) entrywise", iter(coboundary_cases), max_violations)
    coboundary_ok = conditions.laws[-1].ok
    if mod_t2 and not coboundary_ok:
        raise RouteMismatchError(
            "morphism conditions passed mod t^2 but the directions do not "
            "differ by the coboundary of x"
        )
    return EquivalenceReport(
        subject="equivalence of infinitesimal deformations",
        conditions=conditions,
        passes_mod_t2=mod_t2,
        passes_all_orders=all_orders,
        notes=[READING_NOTE],
    )
