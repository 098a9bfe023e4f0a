"""Command-line surface.

Every command ('alg mul', 'deriv apply', 'index', ...) has its own leaf
parser that declares its inputs as positionals and only the options its
handler reads; ``--json``/``--table`` are shared by all, and ``--seed``
belongs to ``report all``, the only randomized command; this module reads
no environment variable.  An option a command does not read is a usage
error.  Every command prints a single JSON document (default) or a
readable table, always echoing the resolved configuration.  The commands
that run acceptance criteria ('pairing verify', 'report all') get each
criterion's seconds beside its result and write them as one JSON line on
stderr, so the document is the same bytes on every run.  Exit codes: 0
success, 1 verification failure, 2 usage error.  This module only parses,
calls the library and maps exceptions: each work bound and range or shape
rule is held by the library function it guards (``chern.MAX_GRID``, say),
which raises ``UnsupportedInput``.  Only ``run`` turns an exception into a
line on stderr: a ``UsageError`` or an ``UnsupportedInput`` exits 2, and a
``ValueError`` or ``ArithmeticError`` exits 1, in the exception's words, less
CPython's advice to raise its int-string digit limit.

Each command imports only the package modules it runs: ``algebra`` is
imported here, and every other module inside the handlers that use it.
The package uses no ``dataclasses``, whose own imports and generated
methods would cost every command at start.  So only the commands that
compute floats on arrays ('chern', 'report all') load numpy or scipy:
``acceptance`` imports numpy only where it needs it, and ``algebra`` not
at all, so an exact command ('index' and 'pairing verify' included) and
'alg eval' start without either library.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .algebra import (
    AlgebraElement,
    GroupElement,
    RationalAngle,
    UnsupportedInput,
    element_from_dict,
    element_to_dict,
    eval_at_angle,
    is_central,
    matrix_to_jsonable,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


# CPython's advice on its int-string digit limit, which names a call that
# an hnc user cannot make; ``run`` drops it from every line it prints.
_INT_LIMIT_ADVICE = "; use sys.set_int_max_str_digits() to increase the limit"


# ---- input plumbing ----


def _is_file(text: str) -> bool:
    try:
        return Path(text).is_file()
    except OSError:  # inline JSON may be longer than a file name can be
        return False


def _load_json(text_or_path: str):
    """Inline JSON, a file path, or '-' for stdin; a file or stdin is UTF-8."""
    try:
        if text_or_path == "-":
            raw = sys.stdin.buffer.read().decode()
        elif _is_file(text_or_path):
            raw = Path(text_or_path).read_bytes().decode()
        else:
            raw = text_or_path
        return json.loads(raw)
    except (ValueError, RecursionError) as e:  # also bad UTF-8, too many digits, too deep
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
    """Either a single element or {"blocks": [[element, ...], ...]}, whose
    shape ``fredholm`` checks."""
    if isinstance(data, dict) and "blocks" in data:
        blocks = data["blocks"]
        if not (isinstance(blocks, list) and all(isinstance(row, list) for row in blocks)):
            raise TypeError(f"blocks are a JSON list of rows of elements, got {blocks!r}")
        return [[element_from_dict(b) for b in row] for row in blocks]
    return element_from_dict(data)


def _element(text_or_path: str) -> AlgebraElement:
    return _parse(text_or_path, element_from_dict, "element")


def _matrix_element(text_or_path: str):
    return _parse(text_or_path, _matrix_from_dict, "element")


def _derivation(text_or_path: str):
    from .derivations import derivation_from_dict

    return _parse(text_or_path, derivation_from_dict, "derivation")


def _stdin_once(*texts: str) -> None:
    """Refuse a second '-': the first reads all of stdin."""
    if texts.count("-") > 1:
        raise UsageError("only one argument may read stdin ('-')")


def _group_from_list(data) -> GroupElement:
    """A JSON list of three exponents, which ``GroupElement`` checks."""
    if not isinstance(data, list) or len(data) != 3:
        raise TypeError("expected a JSON triple [p, q, r]")
    return GroupElement(*data)


def _integer(text: str, what: str) -> int:
    """int(text), parsed here and not by argparse so that the usage line
    names the option and quotes int()'s error, the digit limit included."""
    try:
        return int(text)
    except ValueError as e:
        raise UsageError(f"{what} must be an integer: {e}") from None


def _angle(text: str) -> RationalAngle:
    try:
        s, t = text.split("/")
        return RationalAngle.of(_integer(s, "--theta's s"), _integer(t, "--theta's t"))
    except ValueError as e:
        raise UsageError(f"angle must be of the form s/t: {e}") from None


# ---- output plumbing ----


def _emit(args, command: str, config: dict, result: dict) -> None:
    """Render the whole document, then print it, so that a result that
    cannot be written (an integer past the int-string digit limit raises
    ValueError) prints nothing on stdout."""
    if args.table:
        text = "\n".join([f"# {command}  config: " + json.dumps(config, sort_keys=True),
                          *_table_lines(result)])
    else:
        text = json.dumps({"command": command, "config": config, "result": result},
                          sort_keys=True, separators=(",", ":"))
    print(text)


def _print_timings(elapsed: dict[str, float]) -> None:
    """The seconds each criterion took, as one JSON line on stderr."""
    print(json.dumps({"elapsed_s": elapsed}, sort_keys=True), file=sys.stderr)


def _table_lines(obj, indent: int = 0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            v = obj[k]
            if isinstance(v, (dict, list, tuple)):
                yield f"{pad}{k}:"
                yield from _table_lines(v, indent + 1)
            else:
                yield f"{pad}{k}: {v}"
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            if isinstance(v, (dict, list, tuple)):  # a bare "-" opens each item
                yield f"{pad}-"
                yield from _table_lines(v, indent + 1)
            else:
                yield f"{pad}- {v}"
    else:
        yield f"{pad}{obj}"


# ---- command handlers; each returns (config, result, exit_code) ----


def cmd_alg_mul(args):
    _stdin_once(args.x, args.y)
    return {}, element_to_dict(_element(args.x) * _element(args.y)), EXIT_OK


def cmd_alg_star(args):
    return {}, element_to_dict(_element(args.x).star()), EXIT_OK


def cmd_alg_central(args):
    return {}, {"central": is_central(_element(args.x))}, EXIT_OK


def cmd_alg_eval(args):
    theta = _angle(args.theta)
    m = eval_at_angle(_element(args.x), theta)
    return (
        {"theta": f"{theta.s}/{theta.t}"},
        {"dimension": theta.t, "matrix": matrix_to_jsonable(m)},
        EXIT_OK,
    )


def cmd_deriv_check(args):
    from . import derivations as dv

    rep = dv.check_consistency(_derivation(args.d))
    result = {
        "consistent": rep.passed,
        "violations": [{"kind": v.kind, "cell": list(v.cell)} for v in rep.violations],
    }
    return {}, result, EXIT_OK if rep.passed else EXIT_VERIFICATION


def cmd_deriv_decompose(args):
    from . import derivations as dv

    return {}, dv.decomposition_to_dict(dv.decompose(_derivation(args.d))), EXIT_OK


def cmd_deriv_apply(args):
    from . import derivations as dv

    _stdin_once(args.d, args.y)
    return {}, element_to_dict(dv.apply(_derivation(args.d), _element(args.y))), EXIT_OK


def cmd_group_classify(args):
    from . import group_structure as gs

    g = _parse(args.element, _group_from_list, "group element")
    result = gs.classify_element(g)._asdict()
    result["conjugacy_representative"] = list(gs.conjugacy_representative(g).as_tuple())
    return {"element": list(g.as_tuple())}, result, EXIT_OK


def cmd_group_cohomology(args):
    from . import group_structure as gs

    return {"type": args.type}, gs.group_cohomology(args.type)._asdict(), EXIT_OK


def cmd_group_hc_dim(args):
    from . import group_structure as gs

    n = _integer(args.n, "--n")
    return {"n": n}, gs.cyclic_cohomology_dim(n)._asdict(), EXIT_OK


def cmd_pairing_table(args):
    from . import kk

    return {}, {name: t.to_dict() for name, t in kk.pairing_tables().items()}, EXIT_OK


def cmd_pairing_verify(args):
    from . import acceptance as acc

    rep, seconds = acc.run_criterion(acc.criterion_1_pairing_tables)
    _print_timings({"criterion_1": seconds})
    code = EXIT_OK if rep["passed"] else EXIT_VERIFICATION
    return {}, rep, code


def cmd_index(args):
    from . import fredholm as fr

    idx = fr.odd_cocycle_pairing(args.module, _matrix_element(args.unitary))
    return {"module": args.module}, {"index": idx}, EXIT_OK


def cmd_chern(args):
    from . import chern as ch

    if not args.dirac and args.truncation is not None:
        raise UsageError("unrecognized arguments: --truncation is read only with --dirac")
    truncation = 64 if args.truncation is None else args.truncation
    config = {"grid": args.grid, "mass": args.mass}
    if args.dirac:  # checked before the field is sampled
        config["truncation"] = truncation
        ch.check_truncation(truncation)
    field = ch.bott_projector(args.grid, args.mass)
    result = {}
    if args.dirac:
        result["dirac"] = ch.dirac_even_pairing(field, truncation)
    result["lattice_chern"] = ch.lattice_chern(field)
    if args.dirac:
        result["agree"] = result["dirac"]["value"] == result["lattice_chern"]
        if not result["agree"]:
            return config, result, EXIT_VERIFICATION
    return config, result, EXIT_OK


def cmd_sequence(args):
    from . import kk

    builder = (
        kk.pv_ktheory_sequence if args.action == "ktheory" else kk.khomology_sequence
    )
    maps = builder()
    result = {"maps": [m.to_dict() for m in maps]}
    code = EXIT_OK
    if args.check:
        reports = kk.check_exactness(maps)
        result["nodes"] = [r._asdict() for r in reports]
        result["exact"] = all(r.exact for r in reports)
        if not result["exact"]:
            code = EXIT_VERIFICATION
    return {"sequence": args.action, "checked": args.check}, result, code


def cmd_report(args):
    """Prints its own output: the table has one line per criterion."""
    from . import acceptance as acc

    seed = acc.DEFAULT_SEED if args.seed is None else args.seed
    report, elapsed = acc.run_all(seed=seed)
    _print_timings(elapsed)
    if args.table:
        print(f"# report all  config: " + json.dumps({"seed": seed}, sort_keys=True))
        for r in report["results"]:
            n = r["criterion"]
            status = "PASS" if r["passed"] else "FAIL"
            print(f"[{status}] criterion {n:>2}: {r['name']} ({elapsed[f'criterion_{n}']}s)")
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
         ).add_argument("--n", required=True, help="cyclic degree")

    leaf("pairing table", cmd_pairing_table, "the four tables with provenance")
    leaf("pairing verify", cmd_pairing_verify, "recompute the numeric entries")

    p = leaf("index", cmd_index, "index pairing of an odd module")
    p.add_argument("--module", required=True, help="odd module, such as z1")
    p.add_argument("--unitary", required=True,
                   help="element JSON, {'blocks': ...}, file path, or -")

    p = leaf("chern", cmd_chern, "lattice Chern number of the Bott field")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--dirac", action="store_true",
                   help="also evaluate the Dirac trace pairing")
    p.add_argument("--truncation", type=int, help="with --dirac (default 64)")

    for which in ("ktheory", "khomology"):
        leaf(f"sequence {which}", cmd_sequence, f"the {which} sequence"
             ).add_argument("--check", action="store_true", help="verify exactness")

    leaf("report all", cmd_report, "all ten criteria").add_argument(
        "--seed", type=int, default=None, help="seed of the randomized criteria")
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
    except (UsageError, UnsupportedInput) as e:
        print(f"usage error: {_line(e)}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as e:
        print(f"verification failure: {_line(e)}", file=sys.stderr)
        return EXIT_VERIFICATION


def _line(e: Exception) -> str:
    return str(e).replace(_INT_LIMIT_ADVICE, "")


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
