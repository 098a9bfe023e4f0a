"""Command-line surface.

Every command ('alg mul', 'deriv apply', 'index', ...) has its own leaf
parser that declares its inputs as positionals and only the options its
handler reads; ``--json``/``--table`` are shared by all, and ``--seed`` (or
``HNC_SEED``) belongs to ``report all``, the only randomized command.  An
option a command does not read is a usage error.  Every command prints a
single JSON document (default) or a readable table, always echoing the
resolved configuration.  Exit codes: 0 success, 1 verification failure,
2 usage error (including malformed JSON).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

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
from .fredholm import odd_pairing, odd_windows

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2

# largest t for `alg eval --theta s/t`: its output is a dense t x t matrix
MAX_EVAL_DIMENSION = 256
# Caps that keep one command near 1 GB of measured peak RSS (with
# `fredholm.MAX_BLOCK_TRUNCATION` for `index` and `pairing verify`):
# ~250 G^2 B for `chern --grid` G, ~6.4 kB per point of the (<= 3N)^2
# `--dirac` grid.
MAX_GRID = 2048
MAX_DIRAC_TRUNCATION = 128


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


def _parse(text_or_path: str, build, what: str):
    """Load the JSON input and build ``what`` from it; input the builder
    rejects is a usage error."""
    data = _load_json(text_or_path)
    try:
        return build(data)
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"malformed {what}: {e}") from None


def _matrix_from_dict(data):
    """Either a single element or {"blocks": [[element, ...], ...]}, a
    nonempty square matrix of elements."""
    if isinstance(data, dict) and "blocks" in data:
        blocks = data["blocks"]
        if (
            not isinstance(blocks, list)
            or not blocks
            or not all(isinstance(row, list) and len(row) == len(blocks)
                       for row in blocks)
        ):
            raise ValueError("blocks must be a nonempty square list of lists")
        return [[element_from_dict(b) for b in row] for row in blocks]
    return element_from_dict(data)


def _element(text_or_path: str) -> AlgebraElement:
    return _parse(text_or_path, element_from_dict, "element")


def _matrix_element(text_or_path: str):
    return _parse(text_or_path, _matrix_from_dict, "element")


def _derivation(text_or_path: str) -> dv.Derivation:
    return _parse(text_or_path, dv.derivation_from_dict, "derivation")


def _group_element(text: str) -> GroupElement:
    data = _load_json(text)
    # bool is a subclass of int, but true/false are not exponents
    if (
        not isinstance(data, (list, tuple))
        or len(data) != 3
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in data)
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


def _split_timings(results: list[dict]) -> dict[str, float]:
    """Move ``elapsed_s`` out of criterion results and onto stderr, so that
    the document on stdout is the same bytes on every run."""
    timings = {f"criterion_{r['criterion']}": r.pop("elapsed_s") for r in results}
    print(json.dumps({"elapsed_s": timings}, sort_keys=True), file=sys.stderr)
    return timings


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


# ---- command handlers; each returns (config, result, exit_code) ----


def cmd_alg_mul(args):
    return {}, element_to_dict(_element(args.x) * _element(args.y)), EXIT_OK


def cmd_alg_star(args):
    return {}, element_to_dict(_element(args.x).star()), EXIT_OK


def cmd_alg_central(args):
    return {}, {"central": is_central(_element(args.x))}, EXIT_OK


def cmd_alg_eval(args):
    theta = _angle(args.theta)
    if theta.t > MAX_EVAL_DIMENSION:
        raise UsageError(f"eval dimension {theta.t} exceeds {MAX_EVAL_DIMENSION}")
    m = eval_at_angle(_element(args.x), theta)
    return (
        {"theta": f"{theta.s}/{theta.t}"},
        {"dimension": theta.t, "matrix": matrix_to_jsonable(m)},
        EXIT_OK,
    )


def cmd_deriv_check(args):
    rep = dv.check_consistency(_derivation(args.d))
    result = {
        "consistent": rep.passed,
        "violations": [{"kind": v.kind, "cell": list(v.cell)} for v in rep.violations],
    }
    return {}, result, EXIT_OK if rep.passed else EXIT_VERIFICATION


def cmd_deriv_decompose(args):
    d = _derivation(args.d)
    try:
        return {}, dv.decomposition_to_dict(dv.decompose(d)), EXIT_OK
    except (ValueError, ArithmeticError) as e:
        raise VerificationFailure(str(e)) from None


def cmd_deriv_apply(args):
    d, y = _derivation(args.d), _element(args.y)
    # apply runs decompose, so it fails the same two ways
    try:
        return {}, element_to_dict(dv.apply(d, y)), EXIT_OK
    except (ValueError, ArithmeticError) as e:
        raise VerificationFailure(str(e)) from None


def cmd_group_classify(args):
    g = _group_element(args.element)
    result = gs.classify_element(g).to_dict()
    result["conjugacy_representative"] = list(gs.conjugacy_representative(g).as_tuple())
    return {"element": list(g.as_tuple())}, result, EXIT_OK


def cmd_group_cohomology(args):
    try:
        prof = gs.group_cohomology(args.type)
    except ValueError as e:
        raise UsageError(str(e)) from None
    return {"type": args.type}, prof.to_dict(), EXIT_OK


def cmd_group_hc_dim(args):
    if args.n is None or args.n < 0:
        raise UsageError("hc-dim requires a nonnegative --n")
    return {"n": args.n}, gs.cyclic_cohomology_dim(args.n).to_dict(), EXIT_OK


def cmd_pairing_table(args):
    even, odd = kk.pairing_tables()
    even_t2, odd_t2 = kk.torus_pairing_tables()
    result = {
        "even": even.to_dict(),
        "odd": odd.to_dict(),
        "torus_even": even_t2.to_dict(),
        "torus_odd": odd_t2.to_dict(),
    }
    return {}, result, EXIT_OK


def _truncation_rule(rule, *args) -> tuple[int, ...]:
    """The windows that a library truncation rule gives.  A truncation it
    rejects is an out-of-range ``--truncation``: the rule's message starts
    with "truncation" and names the bound."""
    try:
        return rule(*args)
    except ValueError as e:
        raise UsageError(f"--{e}") from None


def cmd_pairing_verify(args):
    # criterion 1's windows; the 2x2 block [V_a] bounds the truncation
    truncs = _truncation_rule(odd_windows, "z1prime", acc.KTHEORY_ODD["[V_a]"],
                              args.truncation)
    rep = acc.criterion_1_pairing_tables(args.truncation)
    _split_timings([rep])
    code = EXIT_OK if rep["passed"] else EXIT_VERIFICATION
    return {"truncations": list(truncs)}, rep, code


def cmd_index(args):
    u = _matrix_element(args.unitary)
    truncs = _truncation_rule(odd_windows, args.module, u, args.truncation)
    try:
        idx = odd_pairing(args.module, u, args.truncation)
    except (ValueError, ArithmeticError) as e:
        raise VerificationFailure(str(e)) from None
    return {"module": args.module, "truncations": list(truncs)}, {"index": idx}, EXIT_OK


def cmd_chern(args):
    if args.grid < ch.MIN_GRID:
        raise UsageError(f"--grid must be at least {ch.MIN_GRID}")
    if args.grid > MAX_GRID:
        raise UsageError(f"--grid must be at most {MAX_GRID}")
    if args.dirac and args.truncation > MAX_DIRAC_TRUNCATION:
        raise UsageError(f"--truncation must be at most {MAX_DIRAC_TRUNCATION} with --dirac")
    if args.dirac and (args.n_commutators < 2 or args.n_commutators % 2):
        raise UsageError("--n-commutators must be a positive even integer")
    config = {"grid": args.grid, "mass": args.mass}
    try:
        # raises ValueError only for a grid or mass out of range, before any work
        field = ch.bott_projector(args.grid, args.mass)
    except ValueError as e:
        raise UsageError(str(e)) from None
    if args.dirac:
        try:
            _, radius = ch.fourier_coefficients(field)
        except ValueError as e:  # the grid cannot certify the decay
            raise VerificationFailure(str(e)) from None
        _truncation_rule(ch.certificate_windows, radius, args.truncation)
    try:
        c = ch.lattice_chern(field)
    except ArithmeticError as e:
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
        kk.pv_ktheory_sequence if args.action == "ktheory" else kk.khomology_sequence
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
    return {"sequence": args.action, "checked": args.check}, result, code


def cmd_report(args):
    """Prints its own output: the table has one line per criterion."""
    seed = _resolve_seed(args)
    report = acc.run_all(seed=seed)
    timings = _split_timings(report["results"])
    if args.table:
        print(f"# report all  config: " + json.dumps({"seed": seed}, sort_keys=True))
        for r, secs in zip(report["results"], timings.values()):
            status = "PASS" if r["passed"] else "FAIL"
            print(
                f"[{status}] criterion {r['criterion']:>2}: "
                f"{r['name']} ({secs}s)"
            )
        print("overall:", "PASS" if report["passed"] else "FAIL")
    else:
        _emit(args, "report all", {"seed": seed}, report)
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


# ---- parser ----


def build_parser() -> argparse.ArgumentParser:
    """One leaf parser per command, each with only the options its handler
    reads, plus the output format shared by every command."""
    shared = argparse.ArgumentParser(add_help=False)
    fmt = shared.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="table", action="store_false",
                     default=False, help="JSON output (default)")
    fmt.add_argument("--table", dest="table", action="store_true",
                     help="human-readable output")

    parser = argparse.ArgumentParser(
        prog="hnc",
        description="Invariants of the Heisenberg group ring and its C*-algebra",
    )
    commands = parser.add_subparsers(dest="subcommand", required=True)
    groups = {
        name: commands.add_parser(name, help=help).add_subparsers(
            dest="action", required=True)
        for name, help in (
            ("alg", "group-ring arithmetic"),
            ("deriv", "derivation checks and decomposition"),
            ("group", "conjugacy and cohomology"),
            ("pairing", "pairing tables and verification"),
            ("sequence", "six-term sequences"),
            ("report", "run the full verification suite"),
        )
    }

    def leaf(command: str, handler, help: str) -> argparse.ArgumentParser:
        *group, name = command.split()
        parent = groups[group[0]] if group else commands
        p = parent.add_parser(name, parents=[shared], help=help)
        p.set_defaults(handler=handler, command=command)
        return p

    element = "element JSON, file path, or -"
    derivation = "derivation JSON, file path, or -"

    p = leaf("alg mul", cmd_alg_mul, "product x*y")
    p.add_argument("x", help=element)
    p.add_argument("y", help=element)
    leaf("alg star", cmd_alg_star, "adjoint x*").add_argument("x", help=element)
    leaf("alg central", cmd_alg_central, "is x central?").add_argument("x", help=element)
    p = leaf("alg eval", cmd_alg_eval, "clock-and-shift matrix of x at an angle")
    p.add_argument("x", help=element)
    p.add_argument("--theta", default="0/1", help="angle s/t")

    leaf("deriv check", cmd_deriv_check, "consistency of d").add_argument(
        "d", help=derivation)
    leaf("deriv decompose", cmd_deriv_decompose, "d = z1*d1 + z2*d2 + [., x]"
         ).add_argument("d", help=derivation)
    p = leaf("deriv apply", cmd_deriv_apply, "d(y) through the decomposition")
    p.add_argument("d", help=derivation)
    p.add_argument("y", help=element)

    leaf("group classify", cmd_group_classify, "centralizer and conjugacy class"
         ).add_argument("--element", default="[0,0,0]", help="JSON triple [p,q,r]")
    leaf("group cohomology", cmd_group_cohomology, "group cohomology profile"
         ).add_argument("--type", default="H3", help="group descriptor")
    leaf("group hc-dim", cmd_group_hc_dim, "cyclic cohomology dimension"
         ).add_argument("--n", type=int, default=None, help="cyclic degree")

    leaf("pairing table", cmd_pairing_table, "both tables with provenance")
    leaf("pairing verify", cmd_pairing_verify, "recompute the numeric entries"
         ).add_argument("--truncation", type=int, default=64)

    p = leaf("index", cmd_index, "index pairing of an odd module")
    p.add_argument("--module", required=True,
                   choices=["z1", "z1prime", "w1", "w1prime", "del0_w0"])
    p.add_argument("--unitary", required=True,
                   help="element JSON, {'blocks': ...}, file path, or -")
    p.add_argument("--truncation", type=int, default=64)

    p = leaf("chern", cmd_chern, "lattice Chern number of the Bott field")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--dirac", action="store_true",
                   help="also evaluate the Dirac trace pairing")
    p.add_argument("--truncation", type=int, default=64, help="with --dirac")
    p.add_argument("--n-commutators", type=int, default=4, help="with --dirac")

    for which in ("ktheory", "khomology"):
        leaf(f"sequence {which}", cmd_sequence, f"the {which} sequence"
             ).add_argument("--check", action="store_true", help="verify exactness")

    leaf("report all", cmd_report, "all ten criteria").add_argument(
        "--seed", type=int, default=acc.DEFAULT_SEED, help="HNC_SEED overrides it")
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK

    try:
        if args.handler is cmd_report:
            return cmd_report(args)
        config, result, code = args.handler(args)
        _emit(args, args.command, config, result)
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
