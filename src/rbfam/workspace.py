"""Workspace files: one self-contained JSON document of named objects.

Schema: {"objects": {name: {"kind": ..., ...}, ...}}.  Cross-references
are by name inside the same document; the reference graph must be acyclic
and every referenced name defined.  Scalars are rational literals stored
as strings ("-3/4", "7"); semigroup elements and dimensions are plain
integers.  Every array field (vector, matrix or 3-tensor) is nested lists,
one list level per axis, row-major; a keyed table ("a", "a,b" or a joined
index tuple) holds exactly its keys, each an array.  One reader
(``_parse_array``, with ``_keyed`` for tables) and one writer
(``_array_doc``) handle all of them.  Unknown fields are rejected so that
emitted documents stay bit-exact under round-trips.  Each kind's layout is
one row of ``KINDS``, read by loading, dumping, the reference check and
``rbfam check``.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import prod
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .cohomology import DEFAULT_MAX_ENTRIES, cochain_size
from .deformations import LinearDeformation, check_infinitesimal, check_nijenhuis_element
from .errors import InputError
from .family import (
    HomNSAlgebra,
    HomNSFamilyAlgebra,
    HomTridendFamily,
    OmegaAssocAlgebra,
    OmegaBimodule,
    check_hom_ns,
    check_hom_ns_family,
    check_omega_assoc,
    check_omega_bimodule,
    check_tridend_family,
)
from .homalg import (
    HomAlgebra,
    HomBimodule,
    TwoCocycle,
    check_bimodule,
    check_hom_algebra,
    check_two_cocycle,
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
    check_nijenhuis_family,
    check_operator_morphism,
    check_twisted_rbf,
    check_weighted_rbf,
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
# scalar / array parsing and writing


def _parse_scalar(node, where, literals):
    """The value of a rational literal.  ``literals`` maps each literal this
    load has parsed to its value; only successes are kept, so a bad literal
    fails in ``parse_rational`` wherever it appears."""
    if isinstance(node, str):
        value = literals.get(node)
        if value is None:
            value = literals[node] = parse_rational(node, where)
        return value
    raise InputError(f"{where}: scalars must be rational literals as strings, got {node!r}")


# The message for a list of the wrong length, by (rank, depth): ``path``
# names the list, ``where`` and ``i`` its parent list and its index there.
_WRONG_LENGTH = {
    (1, 0): "{path}: expected a vector of length {n}",
    (2, 0): "{path}: expected {n} rows",
    (2, 1): "{where}: row {i} must have {n} entries",
    (3, 0): "{path}: expected {n} outer entries",
    (3, 1): "{path}: expected {n} rows",
    (3, 2): "{path}: expected {n} entries",
}


def _parse_array(node, shape, where, literals):
    """Nested lists, one list level per axis, read row-major: a tuple for a
    vector, a ``Matrix`` or a ``Tensor``.  A bad scalar is named by the path
    of its innermost list."""
    entries = []
    _read_lists(node, shape, 0, where, None, entries, literals)
    if len(shape) == 1:
        return tuple(entries)
    if len(shape) == 2:
        return Matrix(shape[0], shape[1], tuple(entries))
    return Tensor(shape, tuple(entries))


def _read_lists(node, shape, depth, where, i, out, literals):
    path = where if i is None else f"{where}[{i}]"
    n = shape[depth]
    if not isinstance(node, list) or len(node) != n:
        message = _WRONG_LENGTH[len(shape), depth]
        raise InputError(message.format(path=path, where=where, i=i, n=n))
    if depth + 1 == len(shape):
        out.extend(_parse_scalar(e, path, literals) for e in node)
    else:
        for j, child in enumerate(node):
            _read_lists(child, shape, depth + 1, path, j, out, literals)


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


def _keyed(node, keys, shape, where, what, literals, quoted=False):
    """The arrays of ``shape`` under exactly ``keys`` of an object, in key
    order, each key checked and read before the next; ``what`` names the
    keys, and ``quoted`` quotes a key in the path of its array."""
    if not isinstance(node, dict):
        raise InputError(f"{where}: expected an object keyed by {what}")
    out = []
    for key in keys:
        if key not in node:
            raise InputError(f"{where}: missing key {key!r}")
        out.append(_parse_array(node[key], shape, f"{where}[{key!r}]" if quoted else f"{where}[{key}]", literals))
    if len(node) != len(keys):
        raise InputError(f"{where}: unexpected extra keys")
    return tuple(out)


def _array_doc(x):
    """A vector (tuple), ``Matrix`` or ``Tensor`` as nested lists, one per
    axis, row-major; the extents come from the shape, so empty axes stay."""
    if isinstance(x, tuple):
        return [format_rational(c) for c in x]
    shape, nested = x.shape, [format_rational(c) for c in x.entries]
    for axis in range(len(shape) - 1, 0, -1):
        n = shape[axis]
        nested = [nested[k * n : (k + 1) * n] for k in range(prod(shape[:axis]))]
    return nested


class _Names:
    """The references of one dump: a name -> object dict, indexed once.

    ``ref(obj, what)`` is the first name in dict order whose object is or
    ``==`` obj.  Equal hashable objects share one key of ``first``, which
    keeps the earliest position; objects that cannot be hashed are scanned,
    and so is everything when the lookup misses.  ``by_id`` maps the id of
    each hashable named object to its hit in ``first``, so a reference to
    one of the named objects themselves (the usual case) is found without
    hashing it again; ``items`` keeps those objects, and so their ids,
    alive.
    """

    def __init__(self, named):
        self.items = list(named.items())
        self.first = {}
        self.by_id = {}
        self.unhashable = []
        for pos, (_, obj) in enumerate(self.items):
            try:
                self.by_id[id(obj)] = self.first.setdefault(obj, pos)
            except TypeError:
                self.unhashable.append(pos)

    def ref(self, obj, what):
        hit = self.by_id.get(id(obj))
        if hit is None:
            try:
                hit = self.first.get(obj)
            except TypeError:
                hit = None
        if hit is None:
            positions = range(len(self.items))
        else:
            positions = [pos for pos in self.unhashable if pos < hit] + [hit]
        for pos in positions:
            name, candidate = self.items[pos]
            if candidate is obj or candidate == obj:
                return name
        raise InputError(f"emitting requires the {what} to be present in the same document")


# ---------------------------------------------------------------------------
# field codecs
#
# A codec loads one document field and dumps it back.  ``load(node, f, ws,
# where)`` may size the field from ``f``, the namespace of the fields loaded
# before it (keyed by attribute); ``dump(value, named)`` gets the ``_Names``
# of the whole document to write references.


class Codec(NamedTuple):
    load: Callable
    dump: Callable
    refers: bool = False


def reference(kind, what):
    """A name of an object of ``kind``; ``what`` names it in dump errors."""
    return Codec(
        lambda node, f, ws, where: ws.get(node, kinds={kind}),
        lambda obj, named: named.ref(obj, what),
        refers=True,
    )


INT = Codec(lambda node, f, ws, where: _parse_int(node, where), lambda value, named: value)
SCALAR = Codec(
    lambda node, f, ws, where: _parse_scalar(node, where, ws.literals),
    lambda value, named: format_rational(value),
)


def array(shape):
    """A vector, matrix or 3-tensor of the extents ``shape(f)``."""
    return Codec(
        lambda node, f, ws, where: _parse_array(node, shape(f), where, ws.literals),
        lambda x, named: _array_doc(x),
    )


def indexed(shape):
    """One matrix or 3-tensor per semigroup element, keyed "a";
    ``shape(f)`` is (number of elements, *array shape)."""

    def load(node, f, ws, where):
        count, *dims = shape(f)
        return _keyed(node, [str(a) for a in range(count)], dims, where, "semigroup indices", ws.literals)

    return Codec(load, lambda arrays, named: {str(a): _array_doc(x) for a, x in enumerate(arrays)})


def pair_indexed(shape):
    """One 3-tensor per pair of semigroup elements, keyed "a,b";
    ``shape(f)`` is (number of elements, *tensor shape)."""

    def load(node, f, ws, where):
        count, *dims = shape(f)
        keys = [f"{a},{b}" for a in range(count) for b in range(count)]
        flat = _keyed(node, keys, dims, where, "'a,b' pairs", ws.literals)
        return tuple(flat[a * count : (a + 1) * count] for a in range(count))

    def dump(rows, named):
        return {f"{a},{b}": _array_doc(t) for a, row in enumerate(rows) for b, t in enumerate(row)}

    return Codec(load, dump)


# ---------------------------------------------------------------------------
# the kind table


@dataclass(frozen=True)
class Kind:
    """One workspace kind: its class, its checker and its document layout.

    ``fields`` lists (document key, attribute, codec) in load order.  A kind
    the codecs cannot express gives hand-written ``load(doc, ws, where)`` and
    ``dump(obj, named)`` instead, and names its reference keys in ``refs``.
    ``check(obj)`` returns the kind's report; for a kind validated in full
    at load it is instead the note of a vacuous report.
    """

    cls: type
    check: object
    fields: tuple = ()
    load: Callable | None = None
    dump: Callable | None = None
    refs: tuple = ()

    def reference_keys(self):
        return self.refs or tuple(key for key, _, codec in self.fields if codec.refers)

    def load_document(self, doc, ws, where):
        if self.load is not None:
            return self.load(doc, ws, where)
        _require_fields(doc, [key for key, _, _ in self.fields], where=where)
        f = SimpleNamespace()
        for key, attr, codec in self.fields:
            setattr(f, attr, codec.load(doc[key], f, ws, f"{where}.{key}"))
        return self.cls(**vars(f))

    def dump_document(self, obj, named):
        if self.dump is not None:
            return self.dump(obj, named)
        return {key: codec.dump(getattr(obj, attr), named) for key, attr, codec in self.fields}


def _load_semigroup(doc, ws, where):
    _require_fields(doc, ["size", "table"], where=where)
    size = _parse_int(doc["size"], f"{where}.size", minimum=1)
    table = doc["table"]
    if not isinstance(table, list) or len(table) != size:
        raise InputError(f"{where}.table: expected {size} rows")
    for i, row in enumerate(table):
        if not isinstance(row, list):
            raise InputError(f"{where}.table[{i}]: expected a row of {size} entries")
    return validate_semigroup(table)


def _load_deformation(doc, ws, where):
    _require_fields(doc, ["base", "direction", "order"], optional=["other", "element"], where=where)
    base = ws.get(doc["base"], kinds={"twisted_rbf"})
    n, d = base.algebra.dim, base.bimodule.dim
    keys = [str(a) for a in range(base.omega.size)]
    direction = _keyed(doc["direction"], keys, (n, d), f"{where}.direction", "semigroup indices", ws.literals)
    order = _parse_int(doc["order"], f"{where}.order", minimum=2)
    deformation = LinearDeformation(base=base, direction=direction, order=order)
    other = doc.get("other")
    if other is not None and not isinstance(other, str):
        raise InputError(f"{where}.other: expected an object name")
    element = doc.get("element")
    if element is not None:
        element = _parse_array(element, (n,), f"{where}.element", ws.literals)
    return DeformationDoc(deformation=deformation, other=other, element=element)


def _doc_deformation(obj, named):
    deformation = obj.deformation
    doc = {
        "base": named.ref(deformation.base, "base operator"),
        "direction": {str(a): _array_doc(m) for a, m in enumerate(deformation.direction)},
        "order": deformation.order,
    }
    if obj.other is not None:
        doc["other"] = obj.other
    if obj.element is not None:
        doc["element"] = _array_doc(obj.element)
    return doc


def _load_linear_map(doc, ws, where):
    _require_fields(doc, ["entries"], where=where)
    node = doc["entries"]
    if not (isinstance(node, list) and node and isinstance(node[0], list) and node[0]):
        raise InputError(f"{where}.entries: expected a nonempty matrix")
    return LinearMapDoc(matrix=_parse_array(node, (len(node), len(node[0])), f"{where}.entries", ws.literals))


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
    # Each tensor is stored as a (target x source^degree) rectangular array.
    shape, skeys = (tgt, src**degree) if degree else (tgt,), [",".join(map(str, k)) for k in keys]
    arrays = _keyed(doc["table"], skeys, shape, f"{where}.table", "joined index tuples", ws.literals, quoted=True)
    tshape = (tgt,) + (src,) * degree
    table = {key: Tensor(tshape, x if degree == 0 else x.entries) for key, x in zip(keys, arrays)}
    # Membership (equivariance) is part of shape validation for cochains.
    if not is_equivariant(tgt_map, src_map, degree, table.values()):
        if degree == 0:
            raise InputError(f"{where}: degree-0 cochain is not fixed by the structure map")
        raise InputError(f"{where}: cochain violates the membership constraint")
    return WorkspaceCochain(complex=tag, host=host, degree=degree, table=table)


def _doc_cochain(obj, named):
    doc = {"complex": obj.complex, "degree": obj.degree, "table": {}}
    if obj.complex == "rbf":
        doc["operator"] = named.ref(obj.host[0], "operator")
        src = obj.host[0].bimodule.dim
    else:
        doc["algebra"] = named.ref(obj.host[0], "algebra")
        doc["bimodule"] = named.ref(obj.host[1], "bimodule")
        src = obj.host[0].dim
    for key, tensor in sorted(obj.table.items()):
        if obj.degree:
            tensor = Matrix(tensor.shape[0], src**obj.degree, tensor.entries)
        doc["table"][",".join(map(str, key))] = _array_doc(tensor)
    return doc


def _cube(f):
    return (f.dim,) * 3


def _square(f):
    return (f.dim, f.dim)


def _indexed_cubes(f):
    return (f.omega.size, f.dim, f.dim, f.dim)


def _maps(f):
    """One square map of the host algebra per semigroup element."""
    return (f.omega.size, f.algebra.dim, f.algebra.dim)


DIM = ("dim", "dim", INT)
P = ("p", "p", array(_square))
OMEGA = ("omega", "omega", reference("semigroup", "semigroup"))
HOST_ALGEBRA = ("algebra", "algebra", reference("hom_algebra", "host algebra"))


# The checkers are called through lambdas, so each call looks its name up in
# this module: a wrapper installed on that name (a tracer's span, say) then
# sees the calls made through the table.
KINDS = {
    "semigroup": Kind(
        FiniteSemigroup,
        "associativity and unit detection validated",
        load=_load_semigroup,
        dump=lambda obj, named: obj.to_dict(),
    ),
    "hom_algebra": Kind(
        HomAlgebra, lambda obj: check_hom_algebra(obj), (DIM, ("mu", "mu", array(_cube)), P)
    ),
    "hom_bimodule": Kind(
        HomBimodule,
        lambda obj: check_bimodule(obj),
        (
            ("algebra", "parent", reference("hom_algebra", "parent algebra")),
            DIM,
            ("left", "left", array(lambda f: (f.dim, f.parent.dim, f.dim))),
            ("right", "right", array(lambda f: (f.dim, f.dim, f.parent.dim))),
            ("q", "q", array(_square)),
        ),
    ),
    "two_cocycle": Kind(
        TwoCocycle,
        lambda obj: check_two_cocycle(obj),
        (
            ("bimodule", "host", reference("hom_bimodule", "host bimodule")),
            ("phi", "phi", array(lambda f: (f.host.dim, f.host.parent.dim, f.host.parent.dim))),
        ),
    ),
    "twisted_rbf": Kind(
        TwistedRBFamily,
        lambda obj: check_twisted_rbf(obj),
        (
            OMEGA,
            ("phi_ref", "cocycle", reference("two_cocycle", "cocycle")),
            (
                "maps",
                "maps",
                indexed(lambda f: (f.omega.size, f.cocycle.host.parent.dim, f.cocycle.host.dim)),
            ),
        ),
    ),
    "nijenhuis_family": Kind(
        NijenhuisFamily,
        lambda obj: check_nijenhuis_family(obj),
        (HOST_ALGEBRA, OMEGA, ("maps", "maps", indexed(_maps))),
    ),
    "weighted_rbf": Kind(
        WeightedRBFamily,
        lambda obj: check_weighted_rbf(obj),
        (HOST_ALGEBRA, OMEGA, ("weight", "weight", SCALAR), ("maps", "maps", indexed(_maps))),
    ),
    "operator_morphism": Kind(
        OperatorMorphism,
        lambda obj: check_operator_morphism(obj),
        (
            ("source", "source", reference("twisted_rbf", "source operator")),
            ("target", "target", reference("twisted_rbf", "target operator")),
            ("psi", "psi", array(lambda f: (f.target.algebra.dim, f.source.algebra.dim))),
            ("phi", "phi", array(lambda f: (f.target.bimodule.dim, f.source.bimodule.dim))),
        ),
    ),
    "ns_algebra": Kind(
        HomNSAlgebra,
        lambda obj: check_hom_ns(obj),
        (
            DIM,
            ("prec", "prec", array(_cube)),
            ("succ", "succ", array(_cube)),
            ("vee", "vee", array(_cube)),
            P,
        ),
    ),
    "ns_family": Kind(
        HomNSFamilyAlgebra,
        lambda obj: check_hom_ns_family(obj),
        (
            OMEGA,
            DIM,
            ("prec", "prec", indexed(_indexed_cubes)),
            ("succ", "succ", indexed(_indexed_cubes)),
            ("vee", "vee", pair_indexed(_indexed_cubes)),
            P,
        ),
    ),
    "tridend_family": Kind(
        HomTridendFamily,
        lambda obj: check_tridend_family(obj),
        (
            OMEGA,
            DIM,
            ("prec", "prec", indexed(_indexed_cubes)),
            ("succ", "succ", indexed(_indexed_cubes)),
            ("dot", "dot", array(_cube)),
            P,
        ),
    ),
    "omega_assoc": Kind(
        OmegaAssocAlgebra,
        lambda obj: check_omega_assoc(obj),
        (OMEGA, DIM, ("prod", "prod", pair_indexed(_indexed_cubes)), P),
    ),
    "omega_bimodule": Kind(
        OmegaBimodule,
        lambda obj: check_omega_bimodule(obj),
        (
            ("algebra", "parent", reference("omega_assoc", "parent algebra")),
            DIM,
            ("left", "left", pair_indexed(lambda f: (f.parent.omega.size, f.dim, f.parent.dim, f.dim))),
            ("right", "right", pair_indexed(lambda f: (f.parent.omega.size, f.dim, f.dim, f.parent.dim))),
            ("q", "q", array(_square)),
        ),
    ),
    "deformation": Kind(
        DeformationDoc,
        lambda doc: check_infinitesimal(doc.deformation),
        load=_load_deformation,
        dump=_doc_deformation,
        refs=("base", "other"),
    ),
    "nijenhuis_candidate": Kind(
        NijenhuisCandidate,
        lambda candidate: check_nijenhuis_element(candidate.vector, candidate.operator),
        (
            ("operator", "operator", reference("twisted_rbf", "operator")),
            ("vector", "vector", array(lambda f: (f.operator.algebra.dim,))),
        ),
    ),
    "linear_map": Kind(
        LinearMapDoc,
        "shape and membership validated at load",
        load=_load_linear_map,
        dump=lambda obj, named: {"entries": _array_doc(obj.matrix)},
    ),
    "cochain": Kind(
        WorkspaceCochain,
        "shape and membership validated at load",
        load=_load_cochain,
        dump=_doc_cochain,
        refs=("operator", "algebra", "bimodule"),
    ),
}
_KIND_OF_CLASS = {kind.cls: name for name, kind in KINDS.items()}


def load_workspace(source):
    """Load a workspace from a path, a JSON string, or a parsed dict."""
    if isinstance(source, dict):
        data = source
    else:
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
        if not isinstance(doc["kind"], str) or doc["kind"] not in KINDS:
            raise InputError(f"object {name!r} has unknown kind {doc['kind']!r}")

    # Reference-graph check: every referenced name defined, no cycles.
    edges = {}
    for name, doc in docs.items():
        refs = []
        for fieldname in KINDS[doc["kind"]].reference_keys():
            target = doc.get(fieldname)
            if isinstance(target, str):
                if target not in docs:
                    raise InputError(
                        f"object {name!r} references undefined name {target!r}"
                    )
                refs.append(target)
        edges[name] = refs
    # Depth-first postorder with an explicit stack: a long chain of
    # references must not exhaust the interpreter's recursion limit.
    state, order = {}, []
    for root in docs:
        stack = [] if root in state else [(root, iter(edges[root]))]
        state.setdefault(root, "doing")
        while stack:
            node, children = stack[-1]
            nxt = next(children, None)
            if nxt is None:
                stack.pop()
                state[node] = "done"
                order.append(node)
            elif state.get(nxt) == "doing":
                raise InputError(f"reference cycle through object {nxt!r}")
            elif nxt not in state:
                state[nxt] = "doing"
                stack.append((nxt, iter(edges[nxt])))

    ws = Workspace()
    # Each distinct literal is parsed once per load (``_parse_scalar``).
    ws.literals = {}
    for name in order:
        doc = docs[name]
        obj = KINDS[doc["kind"]].load_document(doc, ws, f"objects[{name!r}]")
        ws.add(name, doc["kind"], obj)
    del ws.literals
    return ws


def workspace_document(named):
    """Serialize a dict name -> object into a workspace document."""
    docs = {}
    names = _Names(named)
    for name, obj in named.items():
        kind = _KIND_OF_CLASS.get(type(obj))
        if kind is None:
            raise InputError(f"cannot serialize object of type {type(obj).__name__}")
        docs[name] = {"kind": kind, **KINDS[kind].dump_document(obj, names)}
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
