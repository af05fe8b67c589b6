"""Command line front end with JSON input and output.

Commands delegate to the library modules; every output is a JSON document.
Each subcommand, its arguments and its handler are declared once, in `COMMANDS`.
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

# @S^k*A^s, @S^k or @A^s, matched whole
_PRODUCT_BUILTIN = re.compile(r"@(?:S\^(\d+)(?:\*A\^(\d+))?|A\^(\d+))")


class UsageError(Exception):
    """Bad invocation or unparseable input; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors become USAGE error objects."""

    def error(self, message):
        raise UsageError(message)


# -- IO helpers --------------------------------------------------------------


def _workspace_path(args):
    return args.workspace or os.environ.get(WORKSPACE_ENV_VAR) or DEFAULT_WORKSPACE


def _read_json(token, name):
    """The JSON document in the file `token`, or on stdin for `-`; `name` names it in errors.

    An unreadable file or invalid JSON is a UsageError.
    """
    try:
        if token == "-":
            return json.load(sys.stdin)
        with open(token, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise UsageError(f"cannot read {name}: {err}")
    except json.JSONDecodeError as err:
        raise UsageError(f"{name} is not valid JSON: {err}")


def _load_workspace(path):
    if not os.path.exists(path):
        return {"torica_workspace": 1, "objects": {}}
    doc = _read_json(path, f"workspace file {path}")
    if not isinstance(doc, dict) or "objects" not in doc:
        raise UsageError(f"workspace file {path} lacks an 'objects' table")
    return doc


def _write_json(path, doc):
    """Write `doc` through a temp file beside `path`, so a failed write leaves `path` as it was.

    A failed write is a UsageError that names `path`, not the temp file.
    """
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err.strerror}")
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _load_json_arg(token, args):
    """Resolve an object argument: stdin, workspace reference, or file path."""
    if token.startswith("@"):
        doc = _load_workspace(_workspace_path(args))
        name = token[1:]
        if name in doc["objects"]:
            return doc["objects"][name]
        raise UsageError(f"unknown built-in or workspace object {token}")
    return _read_json(token, "stdin" if token == "-" else token)


def _resolve_field(args):
    value = os.environ.get(FIELD_ENV_VAR, DEFAULT_FIELD) if args.field is None else args.field
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
    m = _PRODUCT_BUILTIN.fullmatch(token)
    if m:
        k, s, n = (int(g or 0) for g in m.groups())
        return steinberg_product_variety(k, s + n, field)
    return None


def _resolve_variety(args) -> ToricVariety:
    builtin = _builtin_variety(args.variety, _resolve_field(args))
    if builtin is not None:
        return builtin
    return ToricVariety(_cone_from_json(_load_json_arg(args.variety, args)))


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


def _resolve_map(args) -> MonomialMap:
    if args.input == "@phi":
        return steinberg_monomial_map()
    doc = _load_json_arg(args.input, args)
    if not isinstance(doc, dict) or "phi" not in doc:
        raise UsageError("monomial map document needs 'phi'")
    phi = doc["phi"]
    matrix = IntMatrix.from_json(phi) if isinstance(phi, dict) else IntMatrix(phi)
    names = doc.get("variables") or doc.get("vars") or tuple(f"z{j}" for j in range(matrix.cols))
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
    field = doc.get("field", doc.get("char"))
    if args.field is not None or field is None:
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


def _typed(obj, kind):
    return dict(obj.to_json(), type=kind)


def _ideal_arg(args):
    return _ideal_from_json(_load_json_arg(args.input, args), args)


# -- commands ----------------------------------------------------------------
# A handler returns the document to print; `verify` returns its exit code too.
# Handlers of one expression are written in the command table.


def cone_rays(args):
    rays = _resolve_cone(args.input, args).rays()
    return {"rays": [{"index": i, "generator": list(u)} for i, u in enumerate(rays)]}


def cone_product(args):
    c1, c2 = (_resolve_cone(token, args) for token in args.inputs)
    return _typed(c1.product(c2), "cone")


def ideal_toric(args):
    pres = toric_ideal(_resolve_map(args), _resolve_field(args))
    return dict(_ideal_to_json(pres.ideal), semigroup=pres.semigroup.to_json())


def ideal_saturate(args):
    ideal = _ideal_arg(args)
    return _ideal_to_json(saturate(ideal, ideal.ring.parse(args.at)))


def ideal_quotient_dim(args):
    ideal = _ideal_arg(args)
    basis = standard_monomials(ideal)
    if basis is None:
        return {"dimension": "INFINITE", "standard_monomials": None}
    monomials = [str(ideal.ring.monomial(e)) for e in basis]
    return {"dimension": len(monomials), "standard_monomials": monomials}


def ideal_regular_seq(args):
    ideal = _ideal_arg(args)
    elements = [ideal.ring.parse(e) for e in args.elements]
    return {"regular": is_regular_sequence(elements, ideal), "elements": [str(e) for e in elements]}


def div_class_group(args):
    cg = _resolve_variety(args).class_group()
    return {"free": cg.free_rank, "torsion": list(cg.torsion)}


def div_canonical(args):
    variety = _resolve_variety(args)
    divisor, cls = canonical_divisor(variety), canonical_class(variety)
    return {"divisor": divisor.to_json(), "class": cls.to_json()}


def div_module_gens(args):
    variety = _resolve_variety(args)
    return module_generators(variety, _resolve_divisor(variety, args.divisor, args)).to_json()


def div_trace_witness(args):
    variety = _resolve_variety(args)
    divisor = _resolve_divisor(variety, args.divisor, args)
    other = _resolve_divisor(variety, args.other, args) if args.other else None
    target = _resolve_divisor(variety, args.target, args) if args.target else None
    ok, witness = trace_surjectivity_witness(variety, divisor, other=other, target=target)
    return {"surjective": ok, "witness": list(witness) if witness else None}


def div_mcm_scan(args):
    results = enumerate_mcm_rank_one_candidates(
        _resolve_variety(args), gen_bound=args.gen_bound, scan_window=args.window
    )
    candidates = [{"class": cls.free[0], "generators": count} for cls, count in results]
    return {"gen_bound": args.gen_bound, "window": args.window, "candidates": candidates}


def div_multiplicity(args):
    value = steinberg_multiplicity(args.k, args.s, _resolve_field(args))
    digits = getattr(sys, "get_int_max_str_digits", int)()  # json.dumps refuses longer; 0: none
    if digits and value >= 10**digits:
        message = f"the multiplicity has over {digits} digits, the output budget"
        raise BudgetExceeded(message, digits)
    return {"k": args.k, "s": args.s, "multiplicity": value}


def verify(args):
    report = run_checks(field=_resolve_field(args))
    return report, 0 if report["all_pass"] else 1


def _workspace(args, stored=False):
    """The workspace path and document; with `stored`, `args.name` must be in it."""
    path = _workspace_path(args)
    doc = _load_workspace(path)
    if stored and args.name not in doc["objects"]:
        raise UsageError(f"no object named {args.name} in {path}")
    return path, doc


def workspace_set(args):
    path, doc = _workspace(args)
    doc["objects"][args.name] = _load_json_arg(args.input, args)
    _write_json(path, doc)
    return {"stored": args.name, "workspace": path}


def workspace_list(args):
    path, doc = _workspace(args)
    return {"workspace": path, "objects": sorted(doc["objects"])}


def workspace_delete(args):
    path, doc = _workspace(args, stored=True)
    del doc["objects"][args.name]
    _write_json(path, doc)
    return {"deleted": args.name, "workspace": path}


# -- command table -----------------------------------------------------------


def _arg(*names, **options):
    """The arguments of one `add_argument` call."""
    return names, options


_INPUT, _VARIETY, _NAME = _arg("input"), _arg("variety"), _arg("name")
_VERIFY = ([_arg("--report", help="also write the report here")], verify)

# command -> (help, {subcommand: (arguments, handler)}), or (help, (arguments, handler))
# for a command without subcommands
COMMANDS = {
    "cone": ("polyhedral cone operations", {
        "dual": ([_INPUT], lambda args: _typed(_resolve_cone(args.input, args).dual(), "cone")),
        "rays": ([_INPUT], cone_rays),
        "hilbert-basis": (
            [_INPUT],
            lambda args: _typed(_resolve_cone(args.input, args).hilbert_basis(), "semigroup"),
        ),
        "product": ([_arg("inputs", nargs=2)], cone_product),
    }),
    "ideal": ("polynomial and toric ideal operations", {
        "toric": ([_INPUT], ideal_toric),
        "groebner": ([_INPUT], lambda args: _ideal_to_json(_ideal_arg(args))),
        "quotient-dim": ([_INPUT], ideal_quotient_dim),
        "saturate": (
            [_INPUT, _arg("--at", required=True, help="polynomial to saturate at")],
            ideal_saturate,
        ),
        "regular-seq": ([_INPUT, _arg("--elements", nargs="+", required=True)], ideal_regular_seq),
    }),
    "div": ("divisor class group operations", {
        "class-group": ([_VARIETY], div_class_group),
        "canonical": ([_VARIETY], div_canonical),
        "half-canonical": (
            [_VARIETY], lambda args: half_canonical(_resolve_variety(args)).to_json()
        ),
        "module-gens": ([_VARIETY, _arg("divisor")], div_module_gens),
        "trace-witness": (
            [_VARIETY, _arg("divisor"), _arg("--other"), _arg("--target")],
            div_trace_witness,
        ),
        "mcm-scan": (
            [
                _VARIETY,
                _arg("--gen-bound", type=int, default=4, dest="gen_bound"),
                _arg("--window", type=int, default=10),
            ],
            div_mcm_scan,
        ),
        "multiplicity": (
            [_arg("--k", type=int, required=True), _arg("--s", type=int, required=True)],
            div_multiplicity,
        ),
    }),
    "verify": ("run every named check", _VERIFY),
    "paper": ("aliases for the verification suite", {"verify": _VERIFY}),
    "workspace": ("named JSON object store", {
        "set": ([_NAME, _INPUT], workspace_set),
        "get": ([_NAME], lambda args: _workspace(args, stored=True)[1]["objects"][args.name]),
        "delete": ([_NAME], workspace_delete),
        "list": ([], workspace_list),
    }),
}


def _build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--field", type=int, default=None, help="prime field characteristic")
    common.add_argument("--json", action="store_true", help="compact machine output")
    common.add_argument("--workspace", default=None, help="workspace JSON file path")

    parser = _Parser(prog="torica", description="Exact computations on affine toric varieties.")
    top = parser.add_subparsers(dest="command", required=True)
    for command, (summary, entry) in COMMANDS.items():
        if isinstance(entry, dict):
            subs = top.add_parser(command, help=summary).add_subparsers(dest="sub", required=True)
            leaves = [(subs.add_parser(sub, parents=[common]), entry[sub]) for sub in entry]
        else:
            leaves = [(top.add_parser(command, parents=[common], help=summary), entry)]
        for sub_parser, (arguments, handler) in leaves:
            for names, options in arguments:
                sub_parser.add_argument(*names, **options)
            sub_parser.set_defaults(handler=handler)
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
        result = args.handler(args)
        document, status = result if isinstance(result, tuple) else (result, 0)
        if args.json:
            print(json.dumps(document, sort_keys=True, separators=(",", ":")))
        else:
            print(json.dumps(document, indent=2, sort_keys=True))
        if getattr(args, "report", None):
            _write_json(args.report, document)
        return status
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
