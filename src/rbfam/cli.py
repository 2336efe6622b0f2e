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


def _vacuous_report(subject, note):
    report = CheckReport(subject=subject)
    report.notes.append(note)
    return report


def _check_object(ws, name):
    obj = ws.get(name)
    kind = ws.kinds[name]
    check = KINDS[kind].check
    if isinstance(check, str):
        return _vacuous_report(f"{kind} {name}", check)
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


def cmd_induce(args):
    ws = load_workspace(args.file)
    name = args.object
    what = args.what
    obj = ws.get(name)
    kind = ws.kinds[name]

    if what == "semidirect":
        if kind != "two_cocycle":
            raise InputError("--what semidirect needs a two_cocycle object")
        out = {f"{name}_semidirect": semidirect_product(obj.host, obj)}
    elif what == "tensor_omega":
        if kind != "hom_algebra":
            raise InputError("--what tensor_omega needs a hom_algebra object")
        omega = ws.get(args.with_name, kinds={"semigroup"}) if args.with_name else _unique_semigroup(ws)
        packed, module, cocycle = tensor_semigroup_algebra(obj, omega)
        out = {
            "omega": omega,
            f"{name}_tensor_omega": packed,
            f"{name}_tensor_omega_bimodule": module,
            f"{name}_tensor_omega_cocycle": cocycle,
        }
    elif what == "ns_family":
        if kind != "twisted_rbf":
            raise InputError("--what ns_family needs a twisted_rbf object")
        out = {"omega": obj.omega, f"{name}_ns_family": ns_family_from_operator(obj)}
    elif what == "tridend":
        if kind != "weighted_rbf":
            raise InputError("--what tridend needs a weighted_rbf object")
        out = {"omega": obj.omega, f"{name}_tridend": tridend_from_weighted_rbf(obj)}
    elif what == "omega_assoc":
        if kind != "ns_family":
            raise InputError("--what omega_assoc needs an ns_family object")
        out = {"omega": obj.omega, f"{name}_omega_assoc": omega_assoc_from_ns_family(obj)}
    elif what == "pack_ns":
        if kind != "ns_family":
            raise InputError("--what pack_ns needs an ns_family object")
        out = {f"{name}_packed_ns": ns_family_pack(obj)}
    elif what == "pack_operator":
        if kind != "twisted_rbf":
            raise InputError("--what pack_operator needs a twisted_rbf object")
        packed = pack_operator(obj)
        out = {
            "omega_trivial": packed.omega,
            f"{name}_packed_algebra": packed.algebra,
            f"{name}_packed_bimodule": packed.bimodule,
            f"{name}_packed_cocycle": packed.cocycle,
            f"{name}_packed": packed,
        }
    elif what == "operator_bimodule":
        if kind != "twisted_rbf":
            raise InputError("--what operator_bimodule needs a twisted_rbf object")
        module = operator_bimodule(obj)
        out = {
            "omega": obj.omega,
            f"{name}_total_product": module.parent,
            f"{name}_operator_bimodule": module,
        }
    elif what == "nijenhuis_data":
        if kind != "nijenhuis_family":
            raise InputError("--what nijenhuis_data needs a nijenhuis_family object")
        data = nijenhuis_induced_data(obj)
        out = {
            "omega": obj.omega,
            f"{name}_induced_algebra": data.algebra,
            f"{name}_induced_bimodule": data.module,
            f"{name}_induced_cocycle": data.cocycle,
            f"{name}_induced_operator": data.operator,
        }
    elif what == "yau":
        if kind != "ns_family":
            raise InputError("--what yau needs an ns_family object")
        if not args.with_name:
            raise InputError("--what yau needs --with NAME of a linear_map")
        endo = ws.get(args.with_name, kinds={"linear_map"}).matrix
        out = {"omega": obj.omega, f"{name}_yau": yau_twist_ns_family(obj, endo)}
    else:
        raise InputError(
            "unknown --what; expected one of semidirect, tensor_omega, ns_family, "
            "tridend, omega_assoc, pack_ns, pack_operator, operator_bimodule, "
            "nijenhuis_data, yau"
        )
    print(dump_workspace(out))
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
        handle, tag = rbf_complex(obj, **kwargs), "rbf"
    elif kind == "hom_bimodule":
        handle, tag = ha_complex(obj.parent, obj, **kwargs), "ha"
    elif kind == "omega_bimodule":
        handle, tag = omega_complex(obj.parent, obj, **kwargs), "omega"
    else:
        raise InputError(
            "cohomology needs a twisted_rbf, hom_bimodule or omega_bimodule object"
        )
    dims = cohomology_dims(handle, args.degree)
    notes = list(handle.notes)
    if (
        args.degree == 1
        and tag in ("rbf", "omega")
        and handle.omega.unit is None
    ):
        notes.append("no unit in the semigroup: the complex starts at degree 1, so dimB = 0")
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

    if mode == "infinitesimal":
        if kind != "deformation":
            raise InputError("--mode infinitesimal needs a deformation object")
        report = check_infinitesimal(obj.deformation)
        _emit_report(report, args.json)
        return EXIT_OK if report.passed else EXIT_VERDICT_FAILED
    if mode == "ns_family":
        if kind != "deformation":
            raise InputError("--mode ns_family needs a deformation object")
        report = deform_ns_family(obj.deformation)
        _emit_report(report, args.json)
        return EXIT_OK if report.passed else EXIT_VERDICT_FAILED
    if mode == "equivalence":
        if kind != "deformation":
            raise InputError("--mode equivalence needs a deformation object")
        if obj.other is None or obj.element is None:
            raise InputError(
                "--mode equivalence needs 'other' and 'element' fields on the deformation"
            )
        other = ws.get(obj.other, kinds={"deformation"})
        report = check_equivalence(obj.deformation, other.deformation, obj.element)
        _emit_report(report, args.json)
        return EXIT_OK if report.passed else EXIT_VERDICT_FAILED
    if mode == "nijenhuis":
        if kind == "nijenhuis_candidate":
            report = check_nijenhuis_element(obj.vector, obj.operator)
        elif kind == "deformation" and obj.element is not None:
            report = check_nijenhuis_element(obj.element, obj.deformation.base)
        else:
            raise InputError(
                "--mode nijenhuis needs a nijenhuis_candidate (or a deformation "
                "with an 'element' field)"
            )
        _emit_report(report, args.json)
        return EXIT_OK if report.passed else EXIT_VERDICT_FAILED
    if mode == "trivialize":
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
        result = trivialize_cocycle(operator, maps)
        if args.json:
            print(json.dumps(result.to_dict(), indent=1, sort_keys=True))
        else:
            if result.found:
                print("trivializing element found; kernel dimension", len(result.kernel))
                print("nijenhuis witness:", result.witness)
            else:
                print("no trivializing element: the class is nontrivial")
        return EXIT_OK
    if mode == "rigidity":
        if kind == "twisted_rbf":
            operator = obj
        elif kind == "deformation":
            operator = obj.deformation.base
        else:
            raise InputError("--mode rigidity needs a twisted_rbf or deformation object")
        report = rigidity_probe(operator)
        if args.json:
            print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
        else:
            print(report.render())
        return EXIT_OK
    raise InputError(
        "unknown --mode; expected one of infinitesimal, ns_family, equivalence, "
        "nijenhuis, trivialize, rigidity"
    )


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
            # Without a unit the complex starts at degree 1.
            for n in (0, 1) if op.omega.unit is not None else (1,):
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
            render = getattr(exc.report, "render", None)
            if render:
                print(render(), file=sys.stderr)
        return EXIT_VERDICT_FAILED
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
