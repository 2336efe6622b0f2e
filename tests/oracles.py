"""Independent oracles for the test suite.

Everything here is deliberately coded apart from the package: naive
Fraction Gaussian elimination with a different pivot rule, a recursive
multilinear evaluator, a twist-free family-law checker, the dendriform
subsystem checker, a from-scratch twisted-family differential (any
structure maps; its matrix builder needs identity maps), and the dense
raw x raw membership-constraint matrix of a cochain space.  Package
objects are accepted as data carriers only (their raw entries are
extracted up front).
"""
from fractions import Fraction
from itertools import product


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
