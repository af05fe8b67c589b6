"""Command line front end with JSON input and output.

Commands delegate to the library modules; every output is a JSON document.
Object arguments accept a file path, `-` for stdin, a built-in name
(`@S`, `@A1`, `@phi`, `@S^k*A^s`, `@A^s`, `@S^k`), or `@name` for an entry
stored in the workspace file. Exit codes: 0 success, 1 domain failure
(machine-readable error object on stdout), 2 usage or parse failure, 3
internal error (error object on stderr).
"""

import argparse
import json
import os
import re
import sys
import tempfile

from .cone import Cone
from .divisor import (
    a1_variety,
    canonical_class,
    canonical_divisor,
    divisor_from_ray_coeffs,
    enumerate_mcm_rank_one_candidates,
    half_canonical,
    module_generators,
    steinberg_multiplicity,
    steinberg_product_variety,
    steinberg_variety,
    ToricVariety,
    TorusDivisor,
    trace_surjectivity_witness,
)
from .errors import BudgetExceeded, NonUnique, ToricaError
from .polyring import (
    Ideal,
    PolyRing,
    is_regular_sequence,
    saturate,
    standard_monomials,
)
from .toric import MonomialMap, steinberg_monomial_map, toric_ideal
from .verification import run_checks
from .zlinalg import IntMatrix

DEFAULT_FIELD = 101
DEFAULT_WORKSPACE = "torica_workspace.json"
FIELD_ENV_VAR = "TORICA_FIELD"
WORKSPACE_ENV_VAR = "TORICA_WORKSPACE"

_PRODUCT_BUILTIN = re.compile(r"^@S\^(\d+)\*A\^(\d+)$")
_POWER_BUILTIN = re.compile(r"^@S\^(\d+)$")
_AFFINE_BUILTIN = re.compile(r"^@A\^(\d+)$")


class UsageError(Exception):
    """Bad invocation or unparseable input; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors become USAGE error objects."""

    def error(self, message):
        raise UsageError(message)


# -- IO helpers --------------------------------------------------------------


def _emit(data, args):
    if getattr(args, "json", False):
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))
    else:
        print(json.dumps(data, indent=2, sort_keys=True))


def _workspace_path(args):
    return (
        getattr(args, "workspace", None)
        or os.environ.get(WORKSPACE_ENV_VAR)
        or DEFAULT_WORKSPACE
    )


def _load_workspace(path):
    if not os.path.exists(path):
        return {"torica_workspace": 1, "objects": {}}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise UsageError(f"workspace file {path} is not valid JSON: {err}")
    if not isinstance(doc, dict) or "objects" not in doc:
        raise UsageError(f"workspace file {path} lacks an 'objects' table")
    return doc


def _write_json(path, doc):
    """Write `doc` through a temp file beside `path`, so a failed write leaves `path` as it was."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_json_arg(token, args):
    """Resolve an object argument: stdin, workspace reference, or file path."""
    if token == "-":
        try:
            return json.load(sys.stdin)
        except json.JSONDecodeError as err:
            raise UsageError(f"stdin is not valid JSON: {err}")
    if token.startswith("@"):
        doc = _load_workspace(_workspace_path(args))
        name = token[1:]
        if name in doc["objects"]:
            return doc["objects"][name]
        raise UsageError(f"unknown built-in or workspace object {token}")
    try:
        with open(token, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise UsageError(f"cannot read {token}: {err}")
    except json.JSONDecodeError as err:
        raise UsageError(f"{token} is not valid JSON: {err}")


def _resolve_field(args):
    value = getattr(args, "field", None)
    if value is None:
        value = os.environ.get(FIELD_ENV_VAR)
    if value is None:
        return DEFAULT_FIELD
    try:
        return int(value)
    except (TypeError, ValueError):
        raise UsageError(f"field must be an integer, got {value!r}")


# -- object resolution -------------------------------------------------------


def _builtin_variety(token, field):
    if token == "@S":
        return steinberg_variety(field)
    if token == "@A1":
        return a1_variety()
    m = _PRODUCT_BUILTIN.match(token)
    if m:
        return steinberg_product_variety(int(m.group(1)), int(m.group(2)), field)
    m = _POWER_BUILTIN.match(token)
    if m:
        return steinberg_product_variety(int(m.group(1)), 0, field)
    m = _AFFINE_BUILTIN.match(token)
    if m:
        return steinberg_product_variety(0, int(m.group(1)), field)
    return None


def _resolve_variety(token, args) -> ToricVariety:
    builtin = _builtin_variety(token, _resolve_field(args))
    if builtin is not None:
        return builtin
    doc = _load_json_arg(token, args)
    return ToricVariety(_cone_from_json(doc))


def _cone_from_json(doc) -> Cone:
    if not isinstance(doc, dict):
        raise UsageError("cone document must be a JSON object")
    dim = doc.get("dim", doc.get("ambient_dim"))
    gens = doc.get("generators")
    if dim is None or gens is None:
        raise UsageError("cone document needs 'dim' and 'generators'")
    return Cone(dim, gens)


def _resolve_cone(token, args) -> Cone:
    builtin = _builtin_variety(token, _resolve_field(args))
    if builtin is not None:
        return builtin.cone
    return _cone_from_json(_load_json_arg(token, args))


def _resolve_divisor(variety, token, args) -> TorusDivisor:
    doc = _load_json_arg(token, args)
    if not isinstance(doc, dict):
        raise UsageError("divisor document must be a JSON object")
    if "coeffs" in doc:
        return TorusDivisor(variety, doc["coeffs"])
    if "ray_coeffs" in doc:
        if isinstance(doc["ray_coeffs"], dict):
            raise ValueError("ray_coeffs must be a list of [ray, coefficient] pairs")
        return divisor_from_ray_coeffs(variety, doc["ray_coeffs"])
    raise UsageError("divisor document needs 'coeffs' or 'ray_coeffs'")


def _monomial_map_from_json(doc) -> MonomialMap:
    if not isinstance(doc, dict) or "phi" not in doc:
        raise UsageError("monomial map document needs 'phi'")
    phi = doc["phi"]
    if isinstance(phi, dict):
        matrix = IntMatrix.from_json(phi)
    else:
        matrix = IntMatrix(phi)
    names = doc.get("variables") or doc.get("vars")
    if names is None:
        names = tuple(f"z{j}" for j in range(matrix.cols))
    return MonomialMap(matrix, names)


def _ideal_from_json(doc, args) -> Ideal:
    if not isinstance(doc, dict):
        raise UsageError("ideal document must be a JSON object")
    variables = doc.get("variables", doc.get("vars"))
    generators = doc.get("generators", doc.get("gens"))
    if variables is None or generators is None:
        raise UsageError("ideal document needs 'variables' and 'generators'")
    if any(not isinstance(g, str) for g in generators):
        raise ValueError("ideal generators must be polynomial strings")
    field = getattr(args, "field", None)
    if field is None:
        field = doc.get("field", doc.get("char"))
    if field is None:
        field = _resolve_field(args)
    ring = PolyRing(field, variables)
    order = doc.get("order", "grevlex")
    return Ideal(ring, generators, order=tuple(order) if isinstance(order, list) else order)


def _ideal_to_json(ideal):
    return {
        "type": "ideal",
        "field": ideal.ring.char,
        "variables": list(ideal.ring.variables),
        "order": ideal.order if isinstance(ideal.order, str) else list(ideal.order),
        "generators": [str(g) for g in ideal.groebner()],
    }


def _cone_to_json(cone):
    data = cone.to_json()
    data["type"] = "cone"
    return data


# -- command handlers --------------------------------------------------------


def cmd_cone(args):
    if args.sub == "dual":
        _emit(_cone_to_json(_resolve_cone(args.input, args).dual()), args)
    elif args.sub == "rays":
        cone = _resolve_cone(args.input, args)
        _emit(
            {"rays": [{"index": i, "generator": list(u)} for i, u in enumerate(cone.rays())]},
            args,
        )
    elif args.sub == "hilbert-basis":
        semigroup = _resolve_cone(args.input, args).hilbert_basis()
        data = semigroup.to_json()
        data["type"] = "semigroup"
        _emit(data, args)
    elif args.sub == "product":
        c1 = _resolve_cone(args.inputs[0], args)
        c2 = _resolve_cone(args.inputs[1], args)
        _emit(_cone_to_json(c1.product(c2)), args)
    return 0


def cmd_ideal(args):
    if args.sub == "toric":
        if args.input == "@phi":
            monomial_map = steinberg_monomial_map()
        else:
            monomial_map = _monomial_map_from_json(_load_json_arg(args.input, args))
        pres = toric_ideal(monomial_map, _resolve_field(args))
        data = _ideal_to_json(pres.ideal)
        data["semigroup"] = pres.semigroup.to_json()
        _emit(data, args)
    elif args.sub == "groebner":
        ideal = _ideal_from_json(_load_json_arg(args.input, args), args)
        _emit(_ideal_to_json(ideal), args)
    elif args.sub == "saturate":
        ideal = _ideal_from_json(_load_json_arg(args.input, args), args)
        _emit(_ideal_to_json(saturate(ideal, ideal.ring.parse(args.at))), args)
    elif args.sub == "quotient-dim":
        ideal = _ideal_from_json(_load_json_arg(args.input, args), args)
        basis = standard_monomials(ideal)
        _emit(
            {
                "dimension": "INFINITE" if basis is None else len(basis),
                "standard_monomials": None
                if basis is None
                else [str(ideal.ring.monomial(e)) for e in basis],
            },
            args,
        )
    elif args.sub == "regular-seq":
        ideal = _ideal_from_json(_load_json_arg(args.input, args), args)
        elements = [ideal.ring.parse(e) for e in args.elements]
        regular = is_regular_sequence(elements, ideal)
        _emit({"regular": regular, "elements": [str(e) for e in elements]}, args)
    return 0


def cmd_div(args):
    if args.sub == "multiplicity":
        value = steinberg_multiplicity(args.k, args.s, _resolve_field(args))
        digits = getattr(sys, "get_int_max_str_digits", int)()  # json.dumps refuses longer ints; 0: none
        if digits and value >= 10**digits:
            raise BudgetExceeded(f"the multiplicity has over {digits} digits, the output budget", digits)
        _emit({"k": args.k, "s": args.s, "multiplicity": value}, args)
        return 0
    variety = _resolve_variety(args.variety, args)
    if args.sub == "class-group":
        cg = variety.class_group()
        _emit({"free": cg.free_rank, "torsion": list(cg.torsion)}, args)
    elif args.sub == "canonical":
        _emit(
            {
                "divisor": canonical_divisor(variety).to_json(),
                "class": canonical_class(variety).to_json(),
            },
            args,
        )
    elif args.sub == "half-canonical":
        _emit(half_canonical(variety).to_json(), args)
    elif args.sub == "module-gens":
        divisor = _resolve_divisor(variety, args.divisor, args)
        _emit(module_generators(variety, divisor).to_json(), args)
    elif args.sub == "trace-witness":
        divisor = _resolve_divisor(variety, args.divisor, args)
        other = _resolve_divisor(variety, args.other, args) if args.other else None
        target = _resolve_divisor(variety, args.target, args) if args.target else None
        ok, witness = trace_surjectivity_witness(variety, divisor, other=other, target=target)
        _emit({"surjective": ok, "witness": list(witness) if witness else None}, args)
    elif args.sub == "mcm-scan":
        results = enumerate_mcm_rank_one_candidates(
            variety, gen_bound=args.gen_bound, scan_window=args.window
        )
        _emit(
            {
                "gen_bound": args.gen_bound,
                "window": args.window,
                "candidates": [
                    {"class": cls.free[0], "generators": count} for cls, count in results
                ],
            },
            args,
        )
    return 0


def cmd_verify(args):
    report = run_checks(field=_resolve_field(args))
    _emit(report, args)
    if args.report:
        _write_json(args.report, report)
    return 0 if report["all_pass"] else 1


def cmd_workspace(args):
    path = _workspace_path(args)
    doc = _load_workspace(path)
    if args.sub == "set":
        doc["objects"][args.name] = _load_json_arg(args.input, args)
        _write_json(path, doc)
        _emit({"stored": args.name, "workspace": path}, args)
    elif args.sub == "get":
        if args.name not in doc["objects"]:
            raise UsageError(f"no object named {args.name} in {path}")
        _emit(doc["objects"][args.name], args)
    elif args.sub == "list":
        _emit({"workspace": path, "objects": sorted(doc["objects"])}, args)
    elif args.sub == "delete":
        if args.name not in doc["objects"]:
            raise UsageError(f"no object named {args.name} in {path}")
        del doc["objects"][args.name]
        _write_json(path, doc)
        _emit({"deleted": args.name, "workspace": path}, args)
    return 0


# -- parser ------------------------------------------------------------------


def _build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--field", type=int, default=None, help="prime field characteristic")
    common.add_argument("--json", action="store_true", help="compact machine output")
    common.add_argument("--workspace", default=None, help="workspace JSON file path")

    parser = _Parser(
        prog="torica",
        description="Exact computations on affine toric varieties.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    cone_p = top.add_parser("cone", help="polyhedral cone operations")
    cone_sub = cone_p.add_subparsers(dest="sub", required=True)
    for name in ("dual", "rays", "hilbert-basis"):
        sp = cone_sub.add_parser(name, parents=[common])
        sp.add_argument("input")
        sp.set_defaults(handler=cmd_cone)
    sp = cone_sub.add_parser("product", parents=[common])
    sp.add_argument("inputs", nargs=2)
    sp.set_defaults(handler=cmd_cone)

    ideal_p = top.add_parser("ideal", help="polynomial and toric ideal operations")
    ideal_sub = ideal_p.add_subparsers(dest="sub", required=True)
    for name in ("toric", "groebner", "quotient-dim"):
        sp = ideal_sub.add_parser(name, parents=[common])
        sp.add_argument("input")
        sp.set_defaults(handler=cmd_ideal)
    sp = ideal_sub.add_parser("saturate", parents=[common])
    sp.add_argument("input")
    sp.add_argument("--at", required=True, help="polynomial to saturate at")
    sp.set_defaults(handler=cmd_ideal)
    sp = ideal_sub.add_parser("regular-seq", parents=[common])
    sp.add_argument("input")
    sp.add_argument("--elements", nargs="+", required=True)
    sp.set_defaults(handler=cmd_ideal)

    div_p = top.add_parser("div", help="divisor class group operations")
    div_sub = div_p.add_subparsers(dest="sub", required=True)
    for name in ("class-group", "canonical", "half-canonical"):
        sp = div_sub.add_parser(name, parents=[common])
        sp.add_argument("variety")
        sp.set_defaults(handler=cmd_div)
    sp = div_sub.add_parser("module-gens", parents=[common])
    sp.add_argument("variety")
    sp.add_argument("divisor")
    sp.set_defaults(handler=cmd_div)
    sp = div_sub.add_parser("trace-witness", parents=[common])
    sp.add_argument("variety")
    sp.add_argument("divisor")
    sp.add_argument("--other", default=None)
    sp.add_argument("--target", default=None)
    sp.set_defaults(handler=cmd_div)
    sp = div_sub.add_parser("mcm-scan", parents=[common])
    sp.add_argument("variety")
    sp.add_argument("--gen-bound", type=int, default=4, dest="gen_bound")
    sp.add_argument("--window", type=int, default=10)
    sp.set_defaults(handler=cmd_div)
    sp = div_sub.add_parser("multiplicity", parents=[common])
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.set_defaults(handler=cmd_div)

    verify_p = top.add_parser("verify", parents=[common], help="run every named check")
    verify_p.add_argument("--report", default=None, help="also write the report here")
    verify_p.set_defaults(handler=cmd_verify, sub=None)

    paper_p = top.add_parser("paper", help="aliases for the verification suite")
    paper_sub = paper_p.add_subparsers(dest="sub", required=True)
    sp = paper_sub.add_parser("verify", parents=[common])
    sp.add_argument("--report", default=None)
    sp.set_defaults(handler=cmd_verify)

    ws_p = top.add_parser("workspace", help="named JSON object store")
    ws_sub = ws_p.add_subparsers(dest="sub", required=True)
    sp = ws_sub.add_parser("set", parents=[common])
    sp.add_argument("name")
    sp.add_argument("input")
    sp.set_defaults(handler=cmd_workspace)
    for name in ("get", "delete"):
        sp = ws_sub.add_parser(name, parents=[common])
        sp.add_argument("name")
        sp.set_defaults(handler=cmd_workspace)
    sp = ws_sub.add_parser("list", parents=[common])
    sp.set_defaults(handler=cmd_workspace)

    return parser


def _error_json(code, err):
    body = {"code": code, "message": str(err)}
    if isinstance(err, NonUnique):
        body["count"] = err.count
    if isinstance(err, BudgetExceeded):
        body["budget"] = err.budget
    return {"error": body}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ToricaError as err:
        print(json.dumps(_error_json(err.code, err), indent=2, sort_keys=True))
        return 1
    except UsageError as err:
        error, status = _error_json("USAGE", err), 2
    except (ValueError, KeyError, TypeError, IndexError) as err:
        error, status = _error_json("BAD_INPUT", err), 2
    except Exception as err:  # a defect in torica, not a verdict on the input
        error, status = _error_json("INTERNAL", f"{type(err).__name__}: {err}"), 3
    print(json.dumps(error, indent=2, sort_keys=True), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
