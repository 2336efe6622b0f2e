"""Command-line entry point.

Subcommands: check, induce, cohomology, deform, verify-suite, catalog.
Exit codes: 0 when every requested verdict passes, 1 when a mathematical
verdict fails (including failing preconditions of a construction), 2 on
input or usage errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

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


def cmd_cohomology(args):
    ws = load_workspace(args.file)
    obj = ws.get(args.object)
    kind = ws.kinds[args.object]
    kwargs = {}
    if args.max_entries is not None:
        # Explicitly granting an entry budget also lifts the default degree
        # cap up to the requested degree; the size estimate stays the guard.
        kwargs["max_entries"] = args.max_entries
        kwargs["degree_cap"] = max(2, args.degree)
    if kind == "twisted_rbf":
        handle = rbf_complex(obj, **kwargs)
    elif kind == "hom_bimodule":
        handle = ha_complex(obj.parent, obj, **kwargs)
    elif kind == "omega_bimodule":
        handle = omega_complex(obj.parent, obj, **kwargs)
    else:
        raise InputError(
            "cohomology needs a twisted_rbf, hom_bimodule or omega_bimodule object"
        )
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


def cmd_deform(args):
    ws = load_workspace(args.file)
    obj = ws.get(args.object)
    kind = ws.kinds[args.object]
    mode = args.mode

    if mode in ("infinitesimal", "ns_family", "equivalence") and kind != "deformation":
        raise InputError(f"--mode {mode} needs a deformation object")
    if mode == "infinitesimal":
        report = check_infinitesimal(obj.deformation)
    elif mode == "ns_family":
        report = deform_ns_family(obj.deformation)
    elif mode == "equivalence":
        if obj.other is None or obj.element is None:
            raise InputError(
                "--mode equivalence needs 'other' and 'element' fields on the deformation"
            )
        other = ws.get(obj.other, kinds={"deformation"})
        report = check_equivalence(obj.deformation, other.deformation, obj.element)
    elif mode == "nijenhuis":
        if kind == "nijenhuis_candidate":
            report = check_nijenhuis_element(obj.vector, obj.operator)
        elif kind == "deformation" and obj.element is not None:
            report = check_nijenhuis_element(obj.element, obj.deformation.base)
        else:
            raise InputError(
                "--mode nijenhuis needs a nijenhuis_candidate (or a deformation "
                "with an 'element' field)"
            )
    elif mode == "trivialize":
        if kind == "deformation":
            operator = obj.deformation.base
            maps = obj.deformation.direction
        elif kind == "cochain" and obj.complex == "rbf" and obj.degree == 1:
            operator = obj.host[0]
            n, d = operator.algebra.dim, operator.bimodule.dim
            maps = [
                Matrix(n, d, obj.table[(alpha,)].entries)
                for alpha in operator.omega.elements()
            ]
        else:
            raise InputError(
                "--mode trivialize needs a deformation or a degree-1 rbf cochain"
            )
        report = trivialize_cocycle(operator, maps)
    elif mode == "rigidity":
        if kind == "twisted_rbf":
            report = rigidity_probe(obj)
        elif kind == "deformation":
            report = rigidity_probe(obj.deformation.base)
        else:
            raise InputError("--mode rigidity needs a twisted_rbf or deformation object")
    else:
        raise InputError(
            "unknown --mode; expected one of infinitesimal, ns_family, equivalence, "
            "nijenhuis, trivialize, rigidity"
        )
    _emit_report(report, args.json)
    # trivialize and rigidity report what they find; neither is a verdict.
    if mode in ("trivialize", "rigidity") or report.passed:
        return EXIT_OK
    return EXIT_VERDICT_FAILED


def _suite_properties(ws):
    """Yield (property name, callable) pairs for everything in the workspace."""
    for name in ws.objects:
        kind = ws.kinds[name]
        if kind in ("cochain", "linear_map"):
            continue
        yield f"{name}: axioms", (lambda n=name: _check_object(ws, n).passed)
    for name in ws.names_of_kind("twisted_rbf"):
        operator = ws.get(name)
        yield f"{name}: graph characterization agrees with the direct check", (
            lambda op=operator: graph_check(op).passed == check_twisted_rbf(op).passed
        )

        def packing_ok(op=operator):
            packed = pack_operator(op)
            return check_twisted_rbf(packed).passed

        yield f"{name}: packed single operator passes", packing_ok

        def chain_ok(op=operator):
            ns = ns_family_from_operator(op)
            if not check_hom_ns_family(ns).passed:
                return False
            if not check_hom_ns(ns_family_pack(ns)).passed:
                return False
            if not check_omega_assoc(omega_assoc_from_ns_family(ns)).passed:
                return False
            return check_omega_bimodule(operator_bimodule(op)).passed

        yield f"{name}: splitting / total-product / bimodule chain passes", chain_ok

        def coherence_ok(op=operator):
            packed_route = as_ns_algebra(ns_family_from_operator(pack_operator(op)))
            family_route = ns_family_pack(ns_family_from_operator(op))
            return (
                packed_route.prec.entries == family_route.prec.entries
                and packed_route.succ.entries == family_route.succ.entries
                and packed_route.vee.entries == family_route.vee.entries
                and packed_route.p.entries == family_route.p.entries
            )

        yield f"{name}: packing coherence (family route = packed-operator route)", coherence_ok

        def complex_ok(op=operator):
            handle = rbf_complex(op)
            for n in range(handle.first_degree, 2):
                m_lo = differential_matrix(handle, n)
                m_hi = differential_matrix(handle, n + 1)
                if not m_hi.mul(m_lo).is_zero():
                    return False
                dims = cohomology_dims(handle, n)
                if len(kernel_basis(m_lo)) != dims.dim_z:
                    return False
            return True

        yield f"{name}: differential squares to zero (degrees 0,1) and rank-nullity", complex_ok
    for name in ws.names_of_kind("hom_bimodule"):
        module = ws.get(name)

        def ha_ok(mod=module):
            handle = ha_complex(mod.parent, mod)
            for n in (0, 1):
                if not differential_matrix(handle, n + 1).mul(differential_matrix(handle, n)).is_zero():
                    return False
            return True

        yield f"{name}: Hochschild-type differential squares to zero (degrees 0,1)", ha_ok
    for name in ws.names_of_kind("deformation"):
        doc = ws.get(name)

        def routes_agree(d=doc):
            report = check_infinitesimal(d.deformation)
            return report.cocycle_route_ok == report.passed

        yield f"{name}: order-1 verdict agrees with the cocycle route", routes_agree


def cmd_verify_suite(args):
    ws = load_workspace(args.file)
    results = []
    if not ws.objects:
        doc = {"passed": True, "warning": "empty workspace: vacuous pass", "properties": []}
        if args.json:
            print(json.dumps(doc, indent=1, sort_keys=True))
        else:
            print("WARNING: empty workspace, nothing to verify (vacuous pass)")
        return EXIT_OK
    failed = None
    for prop_name, prop in _suite_properties(ws):
        try:
            ok = bool(prop())
        except PreconditionError:
            ok = False
        results.append((prop_name, ok))
        if not ok and failed is None:
            failed = prop_name
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rbfam",
        description=(
            "Exact-arithmetic workbench for Hom-associative algebras and "
            "semigroup-indexed twisted Rota-Baxter operator families"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the axiom checker for one object")
    p.add_argument("file")
    p.add_argument("--object", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("induce", help="emit a derived-object document")
    p.add_argument("file")
    p.add_argument("--object", required=True)
    p.add_argument("--what", required=True)
    p.add_argument("--with", dest="with_name", default=None, metavar="NAME")
    p.set_defaults(fn=cmd_induce)

    p = sub.add_parser("cohomology", help="cohomology dimensions at one degree")
    p.add_argument("file")
    p.add_argument("--object", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-entries", type=int, default=None)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("deform", help="deformation analyses")
    p.add_argument("file")
    p.add_argument("--object", required=True)
    p.add_argument("--mode", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_deform)

    p = sub.add_parser("verify-suite", help="run every applicable property")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify_suite)

    p = sub.add_parser("catalog", help="write the shipped desk instances")
    p.add_argument("outdir")
    p.set_defaults(fn=cmd_catalog)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
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
