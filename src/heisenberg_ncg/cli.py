"""Command-line surface.

Every subcommand prints a single JSON document (default) or a readable
table, always echoing the resolved configuration.  Exit codes: 0 success,
1 verification failure, 2 usage error (including malformed JSON).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import acceptance as acc
from . import chern as ch
from . import derivations as dv
from . import group_structure as gs
from . import kk
from .algebra import (
    AlgebraElement,
    GroupElement,
    RationalAngle,
    element_from_dict,
    element_to_dict,
    eval_at_angle,
    is_central,
    matrix_to_jsonable,
)
from .fredholm import even_pairing_trace, odd_pairing

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


# ---- input plumbing ----


def _is_file(text: str) -> bool:
    try:
        return Path(text).is_file()
    except OSError:  # inline JSON may be longer than a file name can be
        return False


def _load_json(text_or_path: str):
    """Inline JSON, a file path, or '-' for stdin."""
    if text_or_path == "-":
        raw = sys.stdin.read()
    elif _is_file(text_or_path):
        raw = Path(text_or_path).read_text()
    else:
        raw = text_or_path
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed JSON input: {e}") from None


def _element(text_or_path: str) -> AlgebraElement:
    try:
        return element_from_dict(_load_json(text_or_path))
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"malformed element: {e}") from None


def _matrix_element(text_or_path: str):
    """Either a single element or {"blocks": [[element, ...], ...]}."""
    data = _load_json(text_or_path)
    try:
        if isinstance(data, dict) and "blocks" in data:
            return [[element_from_dict(b) for b in row] for row in data["blocks"]]
        return element_from_dict(data)
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"malformed element: {e}") from None


def _derivation(text_or_path: str) -> dv.Derivation:
    try:
        return dv.derivation_from_dict(_load_json(text_or_path))
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"malformed derivation: {e}") from None


def _group_element(text: str) -> GroupElement:
    data = _load_json(text)
    if (
        not isinstance(data, (list, tuple))
        or len(data) != 3
        or not all(isinstance(v, int) for v in data)
    ):
        raise UsageError("group element must be a JSON triple [p, q, r]")
    return GroupElement(*data)


def _angle(text: str) -> RationalAngle:
    try:
        s, t = text.split("/")
        return RationalAngle.of(int(s), int(t))
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"angle must be of the form s/t: {e}") from None


def _resolve_seed(args) -> int:
    env = os.environ.get("HNC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError("HNC_SEED must be an integer") from None
    return args.seed


# ---- output plumbing ----


def _emit(args, command: str, config: dict, result: dict) -> None:
    doc = {"command": command, "config": config, "result": result}
    if args.table:
        print(f"# {command}  config: " + json.dumps(config, sort_keys=True))
        _print_table(result)
    else:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _print_table(obj, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            v = obj[k]
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _print_table(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _print_table(v, indent + 1)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{obj}")


# ---- subcommand handlers; each returns (config, result, exit_code) ----


def cmd_alg(args):
    if args.action == "mul":
        x, y = _element(args.inputs[0]), _element(args.inputs[1])
        return {}, element_to_dict(x * y), EXIT_OK
    if args.action == "star":
        return {}, element_to_dict(_element(args.inputs[0]).star()), EXIT_OK
    if args.action == "central":
        x = _element(args.inputs[0])
        return {}, {"central": is_central(x)}, EXIT_OK
    if args.action == "eval":
        theta = _angle(args.theta)
        x = _element(args.inputs[0])
        m = eval_at_angle(x, theta)
        return (
            {"theta": f"{theta.s}/{theta.t}"},
            {"dimension": theta.t, "matrix": matrix_to_jsonable(m)},
            EXIT_OK,
        )
    raise UsageError(f"unknown alg action {args.action}")


def cmd_deriv(args):
    d = _derivation(args.inputs[0])
    if args.action == "check":
        rep = dv.check_consistency(d)
        result = {
            "consistent": rep.passed,
            "violations": [
                {"kind": v.kind, "cell": list(v.cell)} for v in rep.violations
            ],
        }
        return {}, result, EXIT_OK if rep.passed else EXIT_VERIFICATION
    if args.action == "decompose":
        try:
            res = dv.decompose(d)
        except (ValueError, ArithmeticError) as e:
            raise VerificationFailure(str(e)) from None
        return {}, dv.decomposition_to_dict(res), EXIT_OK
    if args.action == "apply":
        x = _element(args.inputs[1])
        try:
            out = dv.apply(d, x)
        except ValueError as e:
            raise VerificationFailure(str(e)) from None
        return {}, element_to_dict(out), EXIT_OK
    raise UsageError(f"unknown deriv action {args.action}")


def cmd_group(args):
    if args.action == "classify":
        g = _group_element(args.element)
        rep = gs.classify_element(g)
        result = rep.to_dict()
        result["conjugacy_representative"] = list(
            gs.conjugacy_representative(g).as_tuple()
        )
        return {"element": list(g.as_tuple())}, result, EXIT_OK
    if args.action == "cohomology":
        try:
            prof = gs.group_cohomology(args.type)
        except ValueError as e:
            raise UsageError(str(e)) from None
        return {"type": args.type}, prof.to_dict(), EXIT_OK
    if args.action == "hc-dim":
        if args.n is None or args.n < 0:
            raise UsageError("hc-dim requires a nonnegative --n")
        rep = gs.cyclic_cohomology_dim(args.n)
        return {"n": args.n}, rep.to_dict(), EXIT_OK
    raise UsageError(f"unknown group action {args.action}")


def cmd_pairing(args):
    if args.action == "table":
        even, odd = kk.pairing_tables()
        even_t2, odd_t2 = kk.torus_pairing_tables()
        result = {
            "even": even.to_dict(),
            "odd": odd.to_dict(),
            "torus_even": even_t2.to_dict(),
            "torus_odd": odd_t2.to_dict(),
        }
        return {}, result, EXIT_OK
    if args.action == "verify":
        truncs = (max(args.truncation // 2, 16), args.truncation, args.truncation * 2)
        rep = acc.criterion_1_pairing_tables(truncs)
        code = EXIT_OK if rep["passed"] else EXIT_VERIFICATION
        return {"truncations": list(truncs)}, rep, code
    raise UsageError(f"unknown pairing action {args.action}")


def cmd_index(args):
    u = _matrix_element(args.unitary)
    truncs = (max(args.truncation // 2, 16), args.truncation, args.truncation * 2)
    try:
        idx = odd_pairing(args.module, u, truncs, args.tol)
    except (ValueError, ArithmeticError) as e:
        raise VerificationFailure(str(e)) from None
    config = {
        "module": args.module,
        "truncations": list(truncs),
        "tol": args.tol,
    }
    return config, {"index": idx}, EXIT_OK


def cmd_chern(args):
    config = {"grid": args.grid, "mass": args.mass}
    try:
        field = ch.bott_projector(args.grid, args.mass)
        c = ch.lattice_chern(field)
    except (ValueError, ArithmeticError) as e:
        raise VerificationFailure(str(e)) from None
    result = {"lattice_chern": c}
    if args.dirac:
        config.update(
            {"truncation": args.truncation, "n_commutators": args.n_commutators}
        )
        try:
            result["dirac"] = ch.dirac_even_pairing(
                field,
                truncation=args.truncation,
                n_commutators=args.n_commutators,
            )
        except (ValueError, ArithmeticError) as e:
            raise VerificationFailure(str(e)) from None
        result["agree"] = result["dirac"]["value"] == c
        if not result["agree"]:
            return config, result, EXIT_VERIFICATION
    return config, result, EXIT_OK


def cmd_sequence(args):
    builder = (
        kk.pv_ktheory_sequence if args.which == "ktheory" else kk.khomology_sequence
    )
    maps = builder()
    result = {"maps": [m.to_dict() for m in maps]}
    code = EXIT_OK
    if args.check:
        reports = kk.check_exactness(maps)
        result["nodes"] = [r.to_dict() for r in reports]
        result["exact"] = all(r.exact for r in reports)
        if not result["exact"]:
            code = EXIT_VERIFICATION
    return {"sequence": args.which, "checked": args.check}, result, code


def cmd_report(args):
    seed = _resolve_seed(args)
    report = acc.run_all(seed=seed)
    if args.table:
        print(f"# report all  config: " + json.dumps({"seed": seed}, sort_keys=True))
        for r in report["results"]:
            status = "PASS" if r["passed"] else "FAIL"
            print(
                f"[{status}] criterion {r['criterion']:>2}: "
                f"{r['name']} ({r['elapsed_s']}s)"
            )
        print("overall:", "PASS" if report["passed"] else "FAIL")
    else:
        doc = {"command": "report all", "config": {"seed": seed}, "result": report}
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


# ---- parser ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hnc",
        description="Invariants of the Heisenberg group ring and its C*-algebra",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="table", action="store_false",
                         default=False, help="JSON output (default)")
        fmt.add_argument("--table", dest="table", action="store_true",
                         help="human-readable output")
        p.add_argument("--seed", type=int, default=acc.DEFAULT_SEED)
        p.add_argument("--truncation", type=int, default=64)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--grid", type=int, default=64)
        p.add_argument("--n-commutators", type=int, default=4)

    p = sub.add_parser("alg", help="group-ring arithmetic")
    p.add_argument("action", choices=["mul", "star", "central", "eval"])
    p.add_argument("inputs", nargs="*", help="element JSON, file path, or -")
    p.add_argument("--theta", default="0/1", help="angle s/t for eval")
    common(p)

    p = sub.add_parser("deriv", help="derivation checks and decomposition")
    p.add_argument("action", choices=["check", "decompose", "apply"])
    p.add_argument("inputs", nargs="*", help="derivation (and element) JSON")
    common(p)

    p = sub.add_parser("group", help="conjugacy and cohomology")
    p.add_argument("action", choices=["classify", "cohomology", "hc-dim"])
    p.add_argument("--element", default="[0,0,0]", help="JSON triple [p,q,r]")
    p.add_argument("--type", default="H3", help="group descriptor")
    p.add_argument("--n", type=int, default=None, help="cyclic degree")
    common(p)

    p = sub.add_parser("pairing", help="pairing tables and verification")
    p.add_argument("action", choices=["table", "verify"])
    common(p)

    p = sub.add_parser("index", help="index pairing of an odd module")
    p.add_argument("--module", required=True,
                   choices=["z1", "z1prime", "w1", "w1prime", "del0_w0"])
    p.add_argument("--unitary", required=True,
                   help="element JSON, {'blocks': ...}, file path, or -")
    common(p)

    p = sub.add_parser("chern", help="lattice Chern number of the Bott field")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--dirac", action="store_true",
                   help="also evaluate the Dirac trace pairing")
    common(p)

    p = sub.add_parser("sequence", help="six-term sequences")
    p.add_argument("which", choices=["ktheory", "khomology"])
    p.add_argument("--check", action="store_true", help="verify exactness")
    common(p)

    p = sub.add_parser("report", help="run the full verification suite")
    p.add_argument("action", choices=["all"])
    common(p)

    return parser


_HANDLERS = {
    "alg": cmd_alg,
    "deriv": cmd_deriv,
    "group": cmd_group,
    "pairing": cmd_pairing,
    "index": cmd_index,
    "chern": cmd_chern,
    "sequence": cmd_sequence,
}


def _needed_inputs(args) -> int:
    if args.subcommand == "alg":
        return 2 if args.action == "mul" else 1
    if args.subcommand == "deriv":
        return 2 if args.action == "apply" else 1
    return 0


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK

    try:
        if args.subcommand == "report":
            return cmd_report(args)
        n = _needed_inputs(args)
        if len(getattr(args, "inputs", []) or []) < n:
            raise UsageError(
                f"{args.subcommand} {getattr(args, 'action', '')} needs "
                f"{n} input argument(s)"
            )
        config, result, code = _HANDLERS[args.subcommand](args)
        config.setdefault("seed", _resolve_seed(args))
        command = args.subcommand + (
            f" {args.action}" if hasattr(args, "action") else f" {args.which}"
            if hasattr(args, "which") else ""
        )
        _emit(args, command, config, result)
        return code
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationFailure as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFICATION


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early.  Point stdout at devnull so the
        # interpreter's own flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_VERIFICATION
    sys.exit(code)


if __name__ == "__main__":
    main()
