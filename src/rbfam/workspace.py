"""Workspace files: one self-contained JSON document of named objects.

Schema: {"objects": {name: {"kind": ..., ...}, ...}}.  Cross-references
are by name inside the same document; the reference graph must be acyclic
and every referenced name defined.  Scalars are rational literals stored
as strings ("-3/4", "7"); semigroup elements and dimensions are plain
integers.  Unknown fields are rejected so that emitted documents stay
bit-exact under round-trips.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .cohomology import DEFAULT_MAX_ENTRIES, cochain_size
from .deformations import LinearDeformation
from .errors import InputError
from .family import (
    HomNSAlgebra,
    HomNSFamilyAlgebra,
    HomTridendFamily,
    OmegaAssocAlgebra,
    OmegaBimodule,
)
from .homalg import (
    HomAlgebra,
    HomBimodule,
    TwoCocycle,
    is_equivariant,
    regular_bimodule,
    tensor_semigroup_algebra,
    zero_cocycle,
)
from .linalg import Matrix, Tensor
from .operators import (
    NijenhuisFamily,
    OperatorMorphism,
    TwistedRBFamily,
    WeightedRBFamily,
    identity_packing_family,
)
from .scalars import format_rational, parse_rational
from .semigroups import FiniteSemigroup, builtin, validate_semigroup


@dataclass(frozen=True)
class WorkspaceCochain:
    """A cochain document: complex tag, host reference(s), degree, table."""

    complex: str  # "rbf" | "ha" | "omega"
    host: tuple
    degree: int
    table: dict


@dataclass(frozen=True)
class DeformationDoc:
    deformation: LinearDeformation
    other: str | None
    element: tuple | None


@dataclass(frozen=True)
class NijenhuisCandidate:
    operator: TwistedRBFamily
    vector: tuple


@dataclass(frozen=True)
class LinearMapDoc:
    matrix: Matrix


class Workspace:
    def __init__(self):
        self.objects = {}
        self.kinds = {}

    def add(self, name, kind, obj):
        self.objects[name] = obj
        self.kinds[name] = kind

    def get(self, name, kinds=None):
        if not isinstance(name, str):
            raise InputError(f"object references must be names (strings), got {name!r}")
        if name not in self.objects:
            raise InputError(f"unknown object name {name!r}")
        if kinds is not None and self.kinds[name] not in kinds:
            raise InputError(
                f"object {name!r} has kind {self.kinds[name]!r}, expected one of {sorted(kinds)}"
            )
        return self.objects[name]

    def names_of_kind(self, kind):
        return [n for n, k in self.kinds.items() if k == kind]


# ---------------------------------------------------------------------------
# scalar / array parsing


def _parse_scalar(node, where):
    if isinstance(node, str):
        return parse_rational(node)
    raise InputError(f"{where}: scalars must be rational literals as strings, got {node!r}")


def _parse_matrix(node, rows, cols, where):
    if not isinstance(node, list) or len(node) != rows:
        raise InputError(f"{where}: expected {rows} rows")
    entries = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != cols:
            raise InputError(f"{where}: row {i} must have {cols} entries")
        entries.extend(_parse_scalar(e, f"{where}[{i}]") for e in row)
    return Matrix(rows, cols, tuple(entries))


def _parse_tensor3(node, d0, d1, d2, where):
    if not isinstance(node, list) or len(node) != d0:
        raise InputError(f"{where}: expected {d0} outer entries")
    entries = []
    for k, plane in enumerate(node):
        if not isinstance(plane, list) or len(plane) != d1:
            raise InputError(f"{where}[{k}]: expected {d1} rows")
        for i, row in enumerate(plane):
            if not isinstance(row, list) or len(row) != d2:
                raise InputError(f"{where}[{k}][{i}]: expected {d2} entries")
            entries.extend(_parse_scalar(e, f"{where}[{k}][{i}]") for e in row)
    return Tensor((d0, d1, d2), tuple(entries))


def _parse_vector(node, length, where):
    if not isinstance(node, list) or len(node) != length:
        raise InputError(f"{where}: expected a vector of length {length}")
    return tuple(_parse_scalar(e, where) for e in node)


def _parse_int(node, where, minimum=0):
    if not isinstance(node, int) or isinstance(node, bool) or node < minimum:
        raise InputError(f"{where}: expected an integer >= {minimum}")
    return node


def _require_fields(doc, required, optional=(), where=""):
    keys = set(doc)
    missing = set(required) - keys
    if missing:
        raise InputError(f"{where}: missing fields {sorted(missing)}")
    extra = keys - set(required) - set(optional) - {"kind"}
    if extra:
        raise InputError(f"{where}: unknown fields {sorted(extra)}")


def _indexed_matrices(node, count, rows, cols, where):
    if not isinstance(node, dict):
        raise InputError(f"{where}: expected an object keyed by semigroup indices")
    out = []
    for alpha in range(count):
        key = str(alpha)
        if key not in node:
            raise InputError(f"{where}: missing key {key!r}")
        out.append(_parse_matrix(node[key], rows, cols, f"{where}[{key}]"))
    if len(node) != count:
        raise InputError(f"{where}: unexpected extra keys")
    return tuple(out)


def _indexed_tensors(node, count, shape, where):
    if not isinstance(node, dict):
        raise InputError(f"{where}: expected an object keyed by semigroup indices")
    out = []
    for alpha in range(count):
        key = str(alpha)
        if key not in node:
            raise InputError(f"{where}: missing key {key!r}")
        out.append(_parse_tensor3(node[key], *shape, f"{where}[{key}]"))
    if len(node) != count:
        raise InputError(f"{where}: unexpected extra keys")
    return tuple(out)


def _pair_tensors(node, count, shape, where):
    if not isinstance(node, dict):
        raise InputError(f"{where}: expected an object keyed by 'a,b' pairs")
    out = []
    for a in range(count):
        row = []
        for b in range(count):
            key = f"{a},{b}"
            if key not in node:
                raise InputError(f"{where}: missing key {key!r}")
            row.append(_parse_tensor3(node[key], *shape, f"{where}[{key}]"))
        out.append(tuple(row))
    if len(node) != count * count:
        raise InputError(f"{where}: unexpected extra keys")
    return tuple(out)


# ---------------------------------------------------------------------------
# per-kind loaders


def _load_semigroup(doc, ws, where):
    _require_fields(doc, ["size", "table"], where=where)
    size = _parse_int(doc["size"], f"{where}.size", minimum=1)
    table = doc["table"]
    if not isinstance(table, list) or len(table) != size:
        raise InputError(f"{where}.table: expected {size} rows")
    return validate_semigroup(table)


def _load_hom_algebra(doc, ws, where):
    _require_fields(doc, ["dim", "mu", "p"], where=where)
    n = _parse_int(doc["dim"], f"{where}.dim")
    return HomAlgebra(
        dim=n,
        mu=_parse_tensor3(doc["mu"], n, n, n, f"{where}.mu"),
        p=_parse_matrix(doc["p"], n, n, f"{where}.p"),
    )


def _load_hom_bimodule(doc, ws, where):
    _require_fields(doc, ["algebra", "dim", "left", "right", "q"], where=where)
    algebra = ws.get(doc["algebra"], kinds={"hom_algebra"})
    d = _parse_int(doc["dim"], f"{where}.dim")
    n = algebra.dim
    return HomBimodule(
        parent=algebra,
        dim=d,
        left=_parse_tensor3(doc["left"], d, n, d, f"{where}.left"),
        right=_parse_tensor3(doc["right"], d, d, n, f"{where}.right"),
        q=_parse_matrix(doc["q"], d, d, f"{where}.q"),
    )


def _load_two_cocycle(doc, ws, where):
    _require_fields(doc, ["bimodule", "phi"], where=where)
    module = ws.get(doc["bimodule"], kinds={"hom_bimodule"})
    n, d = module.parent.dim, module.dim
    return TwoCocycle(host=module, phi=_parse_tensor3(doc["phi"], d, n, n, f"{where}.phi"))


def _load_twisted_rbf(doc, ws, where):
    _require_fields(doc, ["omega", "phi_ref", "maps"], where=where)
    omega = ws.get(doc["omega"], kinds={"semigroup"})
    cocycle = ws.get(doc["phi_ref"], kinds={"two_cocycle"})
    n, d = cocycle.host.parent.dim, cocycle.host.dim
    maps = _indexed_matrices(doc["maps"], omega.size, n, d, f"{where}.maps")
    return TwistedRBFamily(cocycle=cocycle, omega=omega, maps=maps)


def _load_nijenhuis_family(doc, ws, where):
    _require_fields(doc, ["algebra", "omega", "maps"], where=where)
    algebra = ws.get(doc["algebra"], kinds={"hom_algebra"})
    omega = ws.get(doc["omega"], kinds={"semigroup"})
    maps = _indexed_matrices(doc["maps"], omega.size, algebra.dim, algebra.dim, f"{where}.maps")
    return NijenhuisFamily(algebra=algebra, omega=omega, maps=maps)


def _load_weighted_rbf(doc, ws, where):
    _require_fields(doc, ["algebra", "omega", "weight", "maps"], where=where)
    algebra = ws.get(doc["algebra"], kinds={"hom_algebra"})
    omega = ws.get(doc["omega"], kinds={"semigroup"})
    weight = _parse_scalar(doc["weight"], f"{where}.weight")
    maps = _indexed_matrices(doc["maps"], omega.size, algebra.dim, algebra.dim, f"{where}.maps")
    return WeightedRBFamily(algebra=algebra, omega=omega, weight=weight, maps=maps)


def _load_operator_morphism(doc, ws, where):
    _require_fields(doc, ["source", "target", "psi", "phi"], where=where)
    source = ws.get(doc["source"], kinds={"twisted_rbf"})
    target = ws.get(doc["target"], kinds={"twisted_rbf"})
    psi = _parse_matrix(doc["psi"], target.algebra.dim, source.algebra.dim, f"{where}.psi")
    phi = _parse_matrix(doc["phi"], target.bimodule.dim, source.bimodule.dim, f"{where}.phi")
    return OperatorMorphism(source=source, target=target, psi=psi, phi=phi)


def _load_ns_algebra(doc, ws, where):
    _require_fields(doc, ["dim", "prec", "succ", "vee", "p"], where=where)
    n = _parse_int(doc["dim"], f"{where}.dim")
    return HomNSAlgebra(
        dim=n,
        prec=_parse_tensor3(doc["prec"], n, n, n, f"{where}.prec"),
        succ=_parse_tensor3(doc["succ"], n, n, n, f"{where}.succ"),
        vee=_parse_tensor3(doc["vee"], n, n, n, f"{where}.vee"),
        p=_parse_matrix(doc["p"], n, n, f"{where}.p"),
    )


def _load_ns_family(doc, ws, where):
    _require_fields(doc, ["omega", "dim", "prec", "succ", "vee", "p"], where=where)
    omega = ws.get(doc["omega"], kinds={"semigroup"})
    n = _parse_int(doc["dim"], f"{where}.dim")
    shape = (n, n, n)
    return HomNSFamilyAlgebra(
        dim=n,
        omega=omega,
        prec=_indexed_tensors(doc["prec"], omega.size, shape, f"{where}.prec"),
        succ=_indexed_tensors(doc["succ"], omega.size, shape, f"{where}.succ"),
        vee=_pair_tensors(doc["vee"], omega.size, shape, f"{where}.vee"),
        p=_parse_matrix(doc["p"], n, n, f"{where}.p"),
    )


def _load_tridend_family(doc, ws, where):
    _require_fields(doc, ["omega", "dim", "prec", "succ", "dot", "p"], where=where)
    omega = ws.get(doc["omega"], kinds={"semigroup"})
    n = _parse_int(doc["dim"], f"{where}.dim")
    shape = (n, n, n)
    return HomTridendFamily(
        dim=n,
        omega=omega,
        prec=_indexed_tensors(doc["prec"], omega.size, shape, f"{where}.prec"),
        succ=_indexed_tensors(doc["succ"], omega.size, shape, f"{where}.succ"),
        dot=_parse_tensor3(doc["dot"], n, n, n, f"{where}.dot"),
        p=_parse_matrix(doc["p"], n, n, f"{where}.p"),
    )


def _load_omega_assoc(doc, ws, where):
    _require_fields(doc, ["omega", "dim", "prod", "p"], where=where)
    omega = ws.get(doc["omega"], kinds={"semigroup"})
    n = _parse_int(doc["dim"], f"{where}.dim")
    return OmegaAssocAlgebra(
        dim=n,
        omega=omega,
        prod=_pair_tensors(doc["prod"], omega.size, (n, n, n), f"{where}.prod"),
        p=_parse_matrix(doc["p"], n, n, f"{where}.p"),
    )


def _load_omega_bimodule(doc, ws, where):
    _require_fields(doc, ["algebra", "dim", "left", "right", "q"], where=where)
    parent = ws.get(doc["algebra"], kinds={"omega_assoc"})
    d = _parse_int(doc["dim"], f"{where}.dim")
    g, m = parent.dim, parent.omega.size
    return OmegaBimodule(
        parent=parent,
        dim=d,
        left=_pair_tensors(doc["left"], m, (d, g, d), f"{where}.left"),
        right=_pair_tensors(doc["right"], m, (d, d, g), f"{where}.right"),
        q=_parse_matrix(doc["q"], d, d, f"{where}.q"),
    )


def _load_deformation(doc, ws, where):
    _require_fields(doc, ["base", "direction", "order"], optional=["other", "element"], where=where)
    base = ws.get(doc["base"], kinds={"twisted_rbf"})
    n, d = base.algebra.dim, base.bimodule.dim
    direction = _indexed_matrices(doc["direction"], base.omega.size, n, d, f"{where}.direction")
    order = _parse_int(doc["order"], f"{where}.order", minimum=2)
    deformation = LinearDeformation(base=base, direction=direction, order=order)
    other = doc.get("other")
    if other is not None and not isinstance(other, str):
        raise InputError(f"{where}.other: expected an object name")
    element = doc.get("element")
    if element is not None:
        element = _parse_vector(element, n, f"{where}.element")
    return DeformationDoc(deformation=deformation, other=other, element=element)


def _load_nijenhuis_candidate(doc, ws, where):
    _require_fields(doc, ["operator", "vector"], where=where)
    operator = ws.get(doc["operator"], kinds={"twisted_rbf"})
    vec = _parse_vector(doc["vector"], operator.algebra.dim, f"{where}.vector")
    return NijenhuisCandidate(operator=operator, vector=vec)


def _load_linear_map(doc, ws, where):
    _require_fields(doc, ["entries"], where=where)
    node = doc["entries"]
    if not isinstance(node, list) or not node:
        raise InputError(f"{where}.entries: expected a nonempty matrix")
    rows = len(node)
    cols = len(node[0]) if isinstance(node[0], list) else 0
    return LinearMapDoc(matrix=_parse_matrix(node, rows, cols, f"{where}.entries"))


def _load_cochain(doc, ws, where):
    _require_fields(
        doc,
        ["complex", "degree", "table"],
        optional=["operator", "algebra", "bimodule"],
        where=where,
    )
    tag = doc["complex"]
    degree = _parse_int(doc["degree"], f"{where}.degree")
    if tag == "rbf":
        if "operator" not in doc:
            raise InputError(f"{where}: rbf cochains need an 'operator' reference")
        operator = ws.get(doc["operator"], kinds={"twisted_rbf"})
        host = (operator,)
        src, tgt = operator.bimodule.dim, operator.algebra.dim
        indices = operator.omega.size
        src_map, tgt_map = operator.bimodule.q, operator.algebra.p
    elif tag == "ha":
        if "algebra" not in doc or "bimodule" not in doc:
            raise InputError(f"{where}: ha cochains need 'algebra' and 'bimodule' references")
        algebra = ws.get(doc["algebra"], kinds={"hom_algebra"})
        module = ws.get(doc["bimodule"], kinds={"hom_bimodule"})
        if module.parent != algebra:
            raise InputError(f"{where}: bimodule is not over the referenced algebra")
        host = (algebra, module)
        src, tgt = algebra.dim, module.dim
        indices = 1
        src_map, tgt_map = algebra.p, module.q
    elif tag == "omega":
        if "algebra" not in doc or "bimodule" not in doc:
            raise InputError(f"{where}: omega cochains need 'algebra' and 'bimodule' references")
        algebra = ws.get(doc["algebra"], kinds={"omega_assoc"})
        module = ws.get(doc["bimodule"], kinds={"omega_bimodule"})
        if module.parent != algebra:
            raise InputError(f"{where}: bimodule is not over the referenced algebra")
        host = (algebra, module)
        src, tgt = algebra.dim, module.dim
        indices = algebra.omega.size
        src_map, tgt_map = algebra.p, module.q
    else:
        raise InputError(f"{where}.complex: expected 'rbf', 'ha' or 'omega'")
    # Count before listing index tuples or row widths: both grow
    # exponentially with the degree.
    if cochain_size(tgt, src * indices, degree, DEFAULT_MAX_ENTRIES) is None:
        raise InputError(
            f"{where}.degree: a cochain of this degree has more than {DEFAULT_MAX_ENTRIES} entries"
        )
    keys = [()] if tag == "ha" else list(iproduct(range(indices), repeat=degree))

    node = doc["table"]
    if not isinstance(node, dict):
        raise InputError(f"{where}.table: expected an object keyed by joined index tuples")
    table = {}
    for key in keys:
        skey = ",".join(str(a) for a in key)
        if skey not in node:
            raise InputError(f"{where}.table: missing key {skey!r}")
        if degree == 0:
            table[key] = Tensor((tgt,), _parse_vector(node[skey], tgt, f"{where}.table[{skey!r}]"))
        else:
            flat = node[skey]
            # Stored as a (target x source^degree) rectangular array.
            width = src**degree
            mat = _parse_matrix(flat, tgt, width, f"{where}.table[{skey!r}]")
            table[key] = Tensor((tgt,) + (src,) * degree, mat.entries)
    if len(node) != len(keys):
        raise InputError(f"{where}.table: unexpected extra keys")
    # Membership (equivariance) is part of shape validation for cochains.
    if not is_equivariant(tgt_map, src_map, degree, table.values()):
        if degree == 0:
            raise InputError(f"{where}: degree-0 cochain is not fixed by the structure map")
        raise InputError(f"{where}: cochain violates the membership constraint")
    return WorkspaceCochain(complex=tag, host=host, degree=degree, table=table)


_LOADERS = {
    "semigroup": _load_semigroup,
    "hom_algebra": _load_hom_algebra,
    "hom_bimodule": _load_hom_bimodule,
    "two_cocycle": _load_two_cocycle,
    "twisted_rbf": _load_twisted_rbf,
    "nijenhuis_family": _load_nijenhuis_family,
    "weighted_rbf": _load_weighted_rbf,
    "operator_morphism": _load_operator_morphism,
    "ns_algebra": _load_ns_algebra,
    "ns_family": _load_ns_family,
    "tridend_family": _load_tridend_family,
    "omega_assoc": _load_omega_assoc,
    "omega_bimodule": _load_omega_bimodule,
    "deformation": _load_deformation,
    "nijenhuis_candidate": _load_nijenhuis_candidate,
    "linear_map": _load_linear_map,
    "cochain": _load_cochain,
}

_REFERENCE_FIELDS = {
    "hom_bimodule": ["algebra"],
    "two_cocycle": ["bimodule"],
    "twisted_rbf": ["omega", "phi_ref"],
    "nijenhuis_family": ["algebra", "omega"],
    "weighted_rbf": ["algebra", "omega"],
    "operator_morphism": ["source", "target"],
    "ns_family": ["omega"],
    "tridend_family": ["omega"],
    "omega_assoc": ["omega"],
    "omega_bimodule": ["algebra"],
    "deformation": ["base", "other"],
    "nijenhuis_candidate": ["operator"],
    "cochain": ["operator", "algebra", "bimodule"],
}


def load_workspace(source):
    """Load a workspace from a path, a JSON string, or a parsed dict."""
    if isinstance(source, dict):
        data = source
    else:
        import os

        text = source
        try:
            if hasattr(source, "read"):
                text = source.read()
            elif isinstance(source, (str, os.PathLike)) and os.path.exists(source):
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            data = json.loads(text)
        except OSError as exc:
            raise InputError(f"cannot read workspace: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"workspace is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise InputError("workspace is not valid JSON: nesting too deep") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"cannot read workspace: {exc}") from exc
        except ValueError as exc:
            # Python refuses to convert integer literals of over 4300 digits.
            raise InputError("workspace is not valid JSON: an integer literal is too long") from exc
    if not isinstance(data, dict):
        raise InputError("workspace document must be a JSON object")
    extra = set(data) - {"objects"}
    if extra:
        raise InputError(f"unknown top-level fields {sorted(extra)}")
    docs = data.get("objects", {})
    if not isinstance(docs, dict):
        raise InputError("'objects' must map names to object documents")
    for name, doc in docs.items():
        if not isinstance(doc, dict) or "kind" not in doc:
            raise InputError(f"object {name!r} must be a document with a 'kind'")
        if doc["kind"] not in _LOADERS:
            raise InputError(f"object {name!r} has unknown kind {doc['kind']!r}")

    # Reference-graph check: every referenced name defined, no cycles.
    edges = {}
    for name, doc in docs.items():
        refs = []
        for fieldname in _REFERENCE_FIELDS.get(doc["kind"], []):
            target = doc.get(fieldname)
            if isinstance(target, str):
                if target not in docs:
                    raise InputError(
                        f"object {name!r} references undefined name {target!r}"
                    )
                refs.append(target)
        edges[name] = refs
    state = {}
    order = []

    def postorder(node):
        mark = state.get(node)
        if mark == "done":
            return
        if mark == "doing":
            raise InputError(f"reference cycle through object {node!r}")
        state[node] = "doing"
        for nxt in edges[node]:
            postorder(nxt)
        state[node] = "done"
        order.append(node)

    for name in docs:
        postorder(name)

    ws = Workspace()
    for name in order:
        doc = docs[name]
        obj = _LOADERS[doc["kind"]](doc, ws, where=f"objects[{name!r}]")
        ws.add(name, doc["kind"], obj)
    return ws


# ---------------------------------------------------------------------------
# writers


def _scalar_doc(value):
    return format_rational(value)


def _matrix_doc(mat):
    return [[_scalar_doc(mat.at(i, j)) for j in range(mat.cols)] for i in range(mat.rows)]


def _tensor3_doc(t):
    d0, d1, d2 = t.shape
    return [
        [[_scalar_doc(t.at(k, i, j)) for j in range(d2)] for i in range(d1)]
        for k in range(d0)
    ]


def _ref(named, obj, what):
    for name, candidate in named.items():
        if candidate is obj or candidate == obj:
            return name
    raise InputError(f"emitting requires the {what} to be present in the same document")


def _doc_semigroup(obj, named):
    return {"kind": "semigroup", "size": obj.size, "table": [list(r) for r in obj.table]}


def _doc_hom_algebra(obj, named):
    return {
        "kind": "hom_algebra",
        "dim": obj.dim,
        "mu": _tensor3_doc(obj.mu),
        "p": _matrix_doc(obj.p),
    }


def _doc_hom_bimodule(obj, named):
    return {
        "kind": "hom_bimodule",
        "algebra": _ref(named, obj.parent, "parent algebra"),
        "dim": obj.dim,
        "left": _tensor3_doc(obj.left),
        "right": _tensor3_doc(obj.right),
        "q": _matrix_doc(obj.q),
    }


def _doc_two_cocycle(obj, named):
    return {
        "kind": "two_cocycle",
        "bimodule": _ref(named, obj.host, "host bimodule"),
        "phi": _tensor3_doc(obj.phi),
    }


def _doc_twisted_rbf(obj, named):
    return {
        "kind": "twisted_rbf",
        "omega": _ref(named, obj.omega, "semigroup"),
        "phi_ref": _ref(named, obj.cocycle, "cocycle"),
        "maps": {str(a): _matrix_doc(m) for a, m in enumerate(obj.maps)},
    }


def _doc_nijenhuis_family(obj, named):
    return {
        "kind": "nijenhuis_family",
        "algebra": _ref(named, obj.algebra, "host algebra"),
        "omega": _ref(named, obj.omega, "semigroup"),
        "maps": {str(a): _matrix_doc(m) for a, m in enumerate(obj.maps)},
    }


def _doc_weighted_rbf(obj, named):
    return {
        "kind": "weighted_rbf",
        "algebra": _ref(named, obj.algebra, "host algebra"),
        "omega": _ref(named, obj.omega, "semigroup"),
        "weight": _scalar_doc(obj.weight),
        "maps": {str(a): _matrix_doc(m) for a, m in enumerate(obj.maps)},
    }


def _doc_operator_morphism(obj, named):
    return {
        "kind": "operator_morphism",
        "source": _ref(named, obj.source, "source operator"),
        "target": _ref(named, obj.target, "target operator"),
        "psi": _matrix_doc(obj.psi),
        "phi": _matrix_doc(obj.phi),
    }


def _doc_ns_algebra(obj, named):
    return {
        "kind": "ns_algebra",
        "dim": obj.dim,
        "prec": _tensor3_doc(obj.prec),
        "succ": _tensor3_doc(obj.succ),
        "vee": _tensor3_doc(obj.vee),
        "p": _matrix_doc(obj.p),
    }


def _doc_ns_family(obj, named):
    m = obj.omega.size
    return {
        "kind": "ns_family",
        "omega": _ref(named, obj.omega, "semigroup"),
        "dim": obj.dim,
        "prec": {str(a): _tensor3_doc(obj.prec[a]) for a in range(m)},
        "succ": {str(a): _tensor3_doc(obj.succ[a]) for a in range(m)},
        "vee": {f"{a},{b}": _tensor3_doc(obj.vee[a][b]) for a in range(m) for b in range(m)},
        "p": _matrix_doc(obj.p),
    }


def _doc_tridend_family(obj, named):
    m = obj.omega.size
    return {
        "kind": "tridend_family",
        "omega": _ref(named, obj.omega, "semigroup"),
        "dim": obj.dim,
        "prec": {str(a): _tensor3_doc(obj.prec[a]) for a in range(m)},
        "succ": {str(a): _tensor3_doc(obj.succ[a]) for a in range(m)},
        "dot": _tensor3_doc(obj.dot),
        "p": _matrix_doc(obj.p),
    }


def _doc_omega_assoc(obj, named):
    m = obj.omega.size
    return {
        "kind": "omega_assoc",
        "omega": _ref(named, obj.omega, "semigroup"),
        "dim": obj.dim,
        "prod": {f"{a},{b}": _tensor3_doc(obj.prod[a][b]) for a in range(m) for b in range(m)},
        "p": _matrix_doc(obj.p),
    }


def _doc_omega_bimodule(obj, named):
    m = obj.parent.omega.size
    return {
        "kind": "omega_bimodule",
        "algebra": _ref(named, obj.parent, "parent algebra"),
        "dim": obj.dim,
        "left": {f"{a},{b}": _tensor3_doc(obj.left[a][b]) for a in range(m) for b in range(m)},
        "right": {f"{a},{b}": _tensor3_doc(obj.right[a][b]) for a in range(m) for b in range(m)},
        "q": _matrix_doc(obj.q),
    }


def _doc_deformation(obj, named):
    deformation = obj.deformation
    doc = {
        "kind": "deformation",
        "base": _ref(named, deformation.base, "base operator"),
        "direction": {str(a): _matrix_doc(m) for a, m in enumerate(deformation.direction)},
        "order": deformation.order,
    }
    if obj.other is not None:
        doc["other"] = obj.other
    if obj.element is not None:
        doc["element"] = [_scalar_doc(c) for c in obj.element]
    return doc


def _doc_nijenhuis_candidate(obj, named):
    return {
        "kind": "nijenhuis_candidate",
        "operator": _ref(named, obj.operator, "operator"),
        "vector": [_scalar_doc(c) for c in obj.vector],
    }


def _doc_linear_map(obj, named):
    return {"kind": "linear_map", "entries": _matrix_doc(obj.matrix)}


def _doc_cochain(obj, named):
    doc = {"kind": "cochain", "complex": obj.complex, "degree": obj.degree, "table": {}}
    if obj.complex == "rbf":
        doc["operator"] = _ref(named, obj.host[0], "operator")
        src = obj.host[0].bimodule.dim
    else:
        doc["algebra"] = _ref(named, obj.host[0], "algebra")
        doc["bimodule"] = _ref(named, obj.host[1], "bimodule")
        src = obj.host[0].dim
    for key, tensor in sorted(obj.table.items()):
        skey = ",".join(str(a) for a in key)
        if obj.degree == 0:
            doc["table"][skey] = [_scalar_doc(c) for c in tensor.entries]
        else:
            width = src**obj.degree
            tgt = tensor.shape[0]
            mat = Matrix(tgt, width, tensor.entries)
            doc["table"][skey] = _matrix_doc(mat)
    return doc


_WRITERS = {
    FiniteSemigroup: ("semigroup", _doc_semigroup),
    HomAlgebra: ("hom_algebra", _doc_hom_algebra),
    HomBimodule: ("hom_bimodule", _doc_hom_bimodule),
    TwoCocycle: ("two_cocycle", _doc_two_cocycle),
    TwistedRBFamily: ("twisted_rbf", _doc_twisted_rbf),
    NijenhuisFamily: ("nijenhuis_family", _doc_nijenhuis_family),
    WeightedRBFamily: ("weighted_rbf", _doc_weighted_rbf),
    OperatorMorphism: ("operator_morphism", _doc_operator_morphism),
    HomNSAlgebra: ("ns_algebra", _doc_ns_algebra),
    HomNSFamilyAlgebra: ("ns_family", _doc_ns_family),
    HomTridendFamily: ("tridend_family", _doc_tridend_family),
    OmegaAssocAlgebra: ("omega_assoc", _doc_omega_assoc),
    OmegaBimodule: ("omega_bimodule", _doc_omega_bimodule),
    DeformationDoc: ("deformation", _doc_deformation),
    NijenhuisCandidate: ("nijenhuis_candidate", _doc_nijenhuis_candidate),
    LinearMapDoc: ("linear_map", _doc_linear_map),
    WorkspaceCochain: ("cochain", _doc_cochain),
}


def workspace_document(named):
    """Serialize a dict name -> object into a workspace document."""
    docs = {}
    for name, obj in named.items():
        writer = _WRITERS.get(type(obj))
        if writer is None:
            raise InputError(f"cannot serialize object of type {type(obj).__name__}")
        docs[name] = writer[1](obj, named)
    return {"objects": docs}


def dump_workspace(named, path=None):
    doc = workspace_document(named)
    text = json.dumps(doc, indent=1, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


# ---------------------------------------------------------------------------
# desk catalog


def desk_instance(name):
    """Shipped desk instances: D0, D1, D2 as name -> object dicts."""
    if name == "D0":
        omega = builtin("trivial")
        algebra = HomAlgebra(
            dim=1, mu=Tensor((1, 1, 1), (Fraction(1),)), p=Matrix.identity(1)
        )
        module = regular_bimodule(algebra)
        cocycle = zero_cocycle(module)
        operator = TwistedRBFamily(cocycle=cocycle, omega=omega, maps=(Matrix.zero(1, 1),))
        return {
            "omega": omega,
            "algebra": algebra,
            "bimodule": module,
            "cocycle": cocycle,
            "operator": operator,
        }
    if name in ("D1", "D2"):
        omega = builtin("cyclic", 2) if name == "D1" else builtin("boolean_monoid")
        base = HomAlgebra(
            dim=2,
            mu=Tensor.from_nested(
                [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], 3
            ),
            p=Matrix.identity(2),
        )
        packed, module, cocycle = tensor_semigroup_algebra(base, omega)
        operator = identity_packing_family(base, omega, cocycle)
        return {
            "omega": omega,
            "base_algebra": base,
            "algebra": packed,
            "bimodule": module,
            "cocycle": cocycle,
            "operator": operator,
        }
    raise InputError(f"unknown desk instance {name!r} (expected D0, D1 or D2)")


DESK_NAMES = ("D0", "D1", "D2")
