"""Command-line entry point.

Subcommands: check, induce, cohomology, deform, verify-suite, catalog.
Exit codes: 0 when every requested verdict passes, 1 when a mathematical
verdict fails (including failing preconditions of a construction), 2 on
input or usage errors.

Every choice is read from a table: ``SUBCOMMANDS``, ``INDUCE``,
``COMPLEXES``, ``DEFORM``, ``SUITE`` and ``workspace.KINDS``.  An entry
calls its target by name when it runs, so a wrapper installed on that name
later (a tracer's span, say) sees the calls.  The parser is built once.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .cohomology import cohomology_dims, differential_matrix, ha_complex, omega_complex, rbf_complex
from .deformations import (
    check_equivalence,
    check_infinitesimal,
    check_nijenhuis_element,
    deform_ns_family,
    rigidity_probe,
    trivialize_cocycle,
)
from .errors import InputError, PreconditionError, WorkbenchError
from .family import (
    as_ns_algebra,
    check_hom_ns,
    check_hom_ns_family,
    check_omega_assoc,
    check_omega_bimodule,
    ns_family_from_operator,
    ns_family_pack,
    omega_assoc_from_ns_family,
    operator_bimodule,
    tridend_from_weighted_rbf,
    yau_twist_ns_family,
)
from .homalg import semidirect_product, tensor_semigroup_algebra
from .linalg import Matrix, kernel_basis
from .operators import check_twisted_rbf, graph_check, nijenhuis_induced_data, pack_operator
from .reports import CheckReport
from .workspace import DESK_NAMES, KINDS, desk_instance, dump_workspace, load_workspace

EXIT_OK = 0
EXIT_VERDICT_FAILED = 1
EXIT_INPUT_ERROR = 2


def _check_object(ws, name):
    obj = ws.get(name)
    kind = ws.kinds[name]
    check = KINDS[kind].check
    if isinstance(check, str):
        return CheckReport(subject=f"{kind} {name}", notes=[check])
    return check(obj)


def _emit_report(report, as_json):
    if as_json:
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(report.render())


def cmd_check(args):
    ws = load_workspace(args.file)
    report = _check_object(ws, args.object)
    _emit_report(report, args.json)
    return EXIT_OK if report.passed else EXIT_VERDICT_FAILED


def _unique_semigroup(ws):
    names = ws.names_of_kind("semigroup")
    if len(names) != 1:
        raise InputError(
            "the workspace must contain exactly one semigroup, or pass --with NAME"
        )
    return ws.get(names[0])


def _induce_tensor_omega(algebra, ws, args):
    omega = ws.get(args.with_name, kinds={"semigroup"}) if args.with_name else _unique_semigroup(ws)
    packed, module, cocycle = tensor_semigroup_algebra(algebra, omega)
    return {
        "omega": omega,
        "_tensor_omega": packed,
        "_tensor_omega_bimodule": module,
        "_tensor_omega_cocycle": cocycle,
    }


def _induce_pack_operator(operator, ws, args):
    packed = pack_operator(operator)
    return {
        "omega_trivial": packed.omega,
        "_packed_algebra": packed.algebra,
        "_packed_bimodule": packed.bimodule,
        "_packed_cocycle": packed.cocycle,
        "_packed": packed,
    }


def _induce_operator_bimodule(operator, ws, args):
    module = operator_bimodule(operator)
    return {"omega": operator.omega, "_total_product": module.parent, "_operator_bimodule": module}


def _induce_nijenhuis_data(family, ws, args):
    data = nijenhuis_induced_data(family)
    return {
        "omega": family.omega,
        "_induced_algebra": data.algebra,
        "_induced_bimodule": data.module,
        "_induced_cocycle": data.cocycle,
        "_induced_operator": data.operator,
    }


def _induce_yau(family, ws, args):
    if not args.with_name:
        raise InputError("--what yau needs --with NAME of a linear_map")
    endo = ws.get(args.with_name, kinds={"linear_map"}).matrix
    return {"omega": family.omega, "_yau": yau_twist_ns_family(family, endo)}


# --what -> (the kind of object it needs, its builder).  A builder maps
# output names to objects; a name that starts with "_" is a suffix of the
# induced object's name.
INDUCE = {
    "semidirect": ("two_cocycle", lambda c, ws, args: {"_semidirect": semidirect_product(c.host, c)}),
    "tensor_omega": ("hom_algebra", _induce_tensor_omega),
    "ns_family": (
        "twisted_rbf", lambda r, ws, args: {"omega": r.omega, "_ns_family": ns_family_from_operator(r)}
    ),
    "tridend": (
        "weighted_rbf", lambda r, ws, args: {"omega": r.omega, "_tridend": tridend_from_weighted_rbf(r)}
    ),
    "omega_assoc": (
        "ns_family", lambda f, ws, args: {"omega": f.omega, "_omega_assoc": omega_assoc_from_ns_family(f)}
    ),
    "pack_ns": ("ns_family", lambda f, ws, args: {"_packed_ns": ns_family_pack(f)}),
    "pack_operator": ("twisted_rbf", _induce_pack_operator),
    "operator_bimodule": ("twisted_rbf", _induce_operator_bimodule),
    "nijenhuis_data": ("nijenhuis_family", _induce_nijenhuis_data),
    "yau": ("ns_family", _induce_yau),
}


def cmd_induce(args):
    ws = load_workspace(args.file)
    obj, kind = ws.get(args.object), ws.kinds[args.object]
    if args.what not in INDUCE:
        raise InputError(f"unknown --what; expected one of {', '.join(INDUCE)}")
    needs, build = INDUCE[args.what]
    if kind != needs:
        article = "an" if needs == "ns_family" else "a"
        raise InputError(f"--what {args.what} needs {article} {needs} object")
    out = build(obj, ws, args)
    print(dump_workspace({args.object + k if k.startswith("_") else k: v for k, v in out.items()}))
    return EXIT_OK


COMPLEXES = {
    "twisted_rbf": lambda op, **budget: rbf_complex(op, **budget),
    "hom_bimodule": lambda mod, **budget: ha_complex(mod.parent, mod, **budget),
    "omega_bimodule": lambda mod, **budget: omega_complex(mod.parent, mod, **budget),
}


def cmd_cohomology(args):
    ws = load_workspace(args.file)
    obj = ws.get(args.object)
    kind = ws.kinds[args.object]
    if kind not in COMPLEXES:
        raise InputError("cohomology needs a twisted_rbf, hom_bimodule or omega_bimodule object")
    budget = {}
    if args.max_entries is not None:
        # Explicitly granting an entry budget also lifts the default degree
        # cap up to the requested degree; the size estimate stays the guard.
        budget["max_entries"] = args.max_entries
        budget["degree_cap"] = max(2, args.degree)
    handle = COMPLEXES[kind](obj, **budget)
    dims = cohomology_dims(handle, args.degree)
    notes = list(handle.notes)
    if args.degree == handle.first_degree == 1:
        notes.append("no unit in the semigroup: the complex starts at degree 1, so dimB = 0")
    tag = handle.tag.lower()
    doc = {
        "complex": tag,
        "degree": args.degree,
        "dimC": dims.dim_c,
        "dimZ": dims.dim_z,
        "dimB": dims.dim_b,
        "dimH": dims.dim_h,
    }
    if args.json:
        # the machine-readable form carries exactly the six dimension keys
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(
            f"{tag} complex, degree {args.degree}: dim C = {dims.dim_c}, "
            f"dim Z = {dims.dim_z}, dim B = {dims.dim_b}, dim H = {dims.dim_h}"
        )
        for note in notes:
            print(f"  note: {note}")
    return EXIT_OK


def _deform_equivalence(doc, ws):
    if doc.other is None or doc.element is None:
        raise InputError("--mode equivalence needs 'other' and 'element' fields on the deformation")
    other = ws.get(doc.other, kinds={"deformation"})
    return check_equivalence(doc.deformation, other.deformation, doc.element)


def _deform_nijenhuis_element(doc, ws):
    return None if doc.element is None else check_nijenhuis_element(doc.element, doc.deformation.base)


def _trivialize_cochain(cochain, ws):
    if cochain.complex != "rbf" or cochain.degree != 1:
        return None
    operator = cochain.host[0]
    n, d = operator.algebra.dim, operator.bimodule.dim
    maps = [Matrix(n, d, cochain.table[(alpha,)].entries) for alpha in operator.omega.elements()]
    return trivialize_cocycle(operator, maps)


# (--mode, kind) -> report builder.  A builder takes (object, workspace) and
# returns the report, or None when the object does not fit the mode.
DEFORM = {
    ("infinitesimal", "deformation"): lambda d, ws: check_infinitesimal(d.deformation),
    ("ns_family", "deformation"): lambda d, ws: deform_ns_family(d.deformation),
    ("equivalence", "deformation"): _deform_equivalence,
    ("nijenhuis", "nijenhuis_candidate"): lambda c, ws: check_nijenhuis_element(c.vector, c.operator),
    ("nijenhuis", "deformation"): _deform_nijenhuis_element,
    ("trivialize", "deformation"): lambda d, ws: trivialize_cocycle(d.deformation.base, d.deformation.direction),
    ("trivialize", "cochain"): _trivialize_cochain,
    ("rigidity", "twisted_rbf"): lambda op, ws: rigidity_probe(op),
    ("rigidity", "deformation"): lambda d, ws: rigidity_probe(d.deformation.base),
}
# --mode -> what the mode needs, for the error when no builder takes the object.
MODE_NEEDS = {
    "infinitesimal": "a deformation object",
    "ns_family": "a deformation object",
    "equivalence": "a deformation object",
    "nijenhuis": "a nijenhuis_candidate (or a deformation with an 'element' field)",
    "trivialize": "a deformation or a degree-1 rbf cochain",
    "rigidity": "a twisted_rbf or deformation object",
}


def cmd_deform(args):
    ws = load_workspace(args.file)
    obj = ws.get(args.object)
    kind = ws.kinds[args.object]
    if args.mode not in MODE_NEEDS:
        raise InputError(f"unknown --mode; expected one of {', '.join(MODE_NEEDS)}")
    build = DEFORM.get((args.mode, kind))
    report = None if build is None else build(obj, ws)
    if report is None:
        raise InputError(f"--mode {args.mode} needs {MODE_NEEDS[args.mode]}")
    _emit_report(report, args.json)
    # trivialize and rigidity report what they find; neither is a verdict.
    if args.mode in ("trivialize", "rigidity") or report.passed:
        return EXIT_OK
    return EXIT_VERDICT_FAILED


def _axioms_hold(ws, name):
    return _check_object(ws, name).passed


def _graph_agrees(op):
    return graph_check(op).passed == check_twisted_rbf(op).passed


def _packing_passes(op):
    return check_twisted_rbf(pack_operator(op)).passed


def _chain_passes(op):
    ns = ns_family_from_operator(op)
    return (
        check_hom_ns_family(ns).passed
        and check_hom_ns(ns_family_pack(ns)).passed
        and check_omega_assoc(omega_assoc_from_ns_family(ns)).passed
        and check_omega_bimodule(operator_bimodule(op)).passed
    )


def _packing_coheres(op):
    packed_route = as_ns_algebra(ns_family_from_operator(pack_operator(op)))
    family_route = ns_family_pack(ns_family_from_operator(op))
    products = ("prec", "succ", "vee", "p")
    return all(getattr(packed_route, f).entries == getattr(family_route, f).entries for f in products)


def _rbf_complex_holds(op):
    handle = rbf_complex(op)
    for n in range(handle.first_degree, 2):
        m_lo = differential_matrix(handle, n)
        if not differential_matrix(handle, n + 1).mul(m_lo).is_zero():
            return False
        if cohomology_dims(handle, n).dim_z != len(kernel_basis(m_lo)):
            return False
    return True


def _ha_complex_holds(mod):
    handle = ha_complex(mod.parent, mod)
    return all(differential_matrix(handle, n + 1).mul(differential_matrix(handle, n)).is_zero() for n in (0, 1))


def _routes_agree(doc):
    report = check_infinitesimal(doc.deformation)
    return report.cocycle_route_ok == report.passed


# kind -> the (property label, check) pairs verify-suite runs on each object
# of that kind, in this order, after the axioms of every object.
SUITE = {
    "twisted_rbf": (
        ("graph characterization agrees with the direct check", _graph_agrees),
        ("packed single operator passes", _packing_passes),
        ("splitting / total-product / bimodule chain passes", _chain_passes),
        ("packing coherence (family route = packed-operator route)", _packing_coheres),
        ("differential squares to zero (degrees 0,1) and rank-nullity", _rbf_complex_holds),
    ),
    "hom_bimodule": (("Hochschild-type differential squares to zero (degrees 0,1)", _ha_complex_holds),),
    "deformation": (("order-1 verdict agrees with the cocycle route", _routes_agree),),
}


def _holds(check, *args):
    """A property fails when its check returns false or a precondition fails."""
    try:
        return bool(check(*args))
    except PreconditionError:
        return False


def cmd_verify_suite(args):
    ws = load_workspace(args.file)
    if not ws.objects:
        doc = {"passed": True, "warning": "empty workspace: vacuous pass", "properties": []}
        if args.json:
            print(json.dumps(doc, indent=1, sort_keys=True))
        else:
            print("WARNING: empty workspace, nothing to verify (vacuous pass)")
        return EXIT_OK
    results = []
    for name in ws.objects:
        if ws.kinds[name] not in ("cochain", "linear_map"):
            results.append((f"{name}: axioms", _holds(_axioms_hold, ws, name)))
    for kind, properties in SUITE.items():
        for name in ws.names_of_kind(kind):
            results += [(f"{name}: {label}", _holds(check, ws.get(name))) for label, check in properties]
    failed = next((n for n, ok in results if not ok), None)
    doc = {
        "passed": failed is None,
        "first_failing": failed,
        "properties": [{"property": n, "ok": ok} for n, ok in results],
    }
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        for n, ok in results:
            print(f"[{'ok ' if ok else 'FAIL'}] {n}")
        if failed is None:
            print(f"all {len(results)} properties hold")
        else:
            print(f"FIRST FAILING PROPERTY: {failed}")
    return EXIT_OK if failed is None else EXIT_VERDICT_FAILED


def cmd_catalog(args):
    os.makedirs(args.outdir, exist_ok=True)
    paths = []
    for name in DESK_NAMES:
        path = os.path.join(args.outdir, f"{name}.json")
        dump_workspace(desk_instance(name), path)
        paths.append(path)
    for path in paths:
        print(path)
    return EXIT_OK


FILE, OBJECT, JSON = ("file", {}), ("--object", {"required": True}), ("--json", {"action": "store_true"})

# subcommand -> (command, help line, arguments), each argument a name and
# the keywords of ``add_argument``.
SUBCOMMANDS = {
    "check": (lambda args: cmd_check(args), "run the axiom checker for one object", (FILE, OBJECT, JSON)),
    "induce": (
        lambda args: cmd_induce(args),
        "emit a derived-object document",
        (FILE, OBJECT, ("--what", {"required": True}), ("--with", {"dest": "with_name", "metavar": "NAME"})),
    ),
    "cohomology": (
        lambda args: cmd_cohomology(args),
        "cohomology dimensions at one degree",
        (FILE, OBJECT, ("--degree", {"type": int, "required": True}), JSON, ("--max-entries", {"type": int})),
    ),
    "deform": (
        lambda args: cmd_deform(args),
        "deformation analyses",
        (FILE, OBJECT, ("--mode", {"required": True}), JSON),
    ),
    "verify-suite": (lambda args: cmd_verify_suite(args), "run every applicable property", (FILE, JSON)),
    "catalog": (lambda args: cmd_catalog(args), "write the shipped desk instances", (("outdir", {}),)),
}


@cache
def build_parser():
    """The parser of every subcommand; built on the first call, then shared."""
    parser = argparse.ArgumentParser(
        prog="rbfam",
        description=(
            "Exact-arithmetic workbench for Hom-associative algebras and "
            "semigroup-indexed twisted Rota-Baxter operator families"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for argument, keywords in arguments:
            p.add_argument(argument, **keywords)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return SUBCOMMANDS[args.command][0](args)
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(exc.report.render(), file=sys.stderr)
        return EXIT_VERDICT_FAILED
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
