"""Command line front end.

Every command reads JSON files, writes one JSON object to stdout and
returns exit code 0, whatever the mathematical outcome; exit code 1
means the input was unusable and 2 means an internal consistency check
failed.  Output bytes are deterministic for identical inputs.

Each command imports only the layers it runs: ``pfaffian`` and
``fiber`` never load the semistability engine, and ``check`` never
loads the dual-number code.  Interpreter start-up still dominates the
wall time of a small command.
"""

from __future__ import annotations

import argparse
import sys

from .errors import InternalCheckError, ParseError, UsageError
from .linalg import Matrix, field_from_name, field_name
from .serialize import (
    fiber_report_to_dict,
    graded_to_dict,
    module_to_dict,
    mu_to_json,
    parse_matrix_file,
    parse_module_file,
    subspace_to_lists,
    to_json,
    verdict_to_dict,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments, which is reserved
    # here for internal check failures; surface a UsageError instead
    def error(self, message):
        raise ParseError(message)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") from exc


def _check_field(args, field):
    # on a file command, --field only cross-checks the file's own tag
    if args.field is not None and field_from_name(args.field) != field:
        raise UsageError(f"file is over {field_name(field)}, not {args.field}")


def _load_module(args, path: str):
    mf = parse_module_file(_read(path))
    _check_field(args, mf.module.field)
    return mf


def _given(**options) -> dict:
    # options left unset on the command line take the library's defaults
    return {key: value for key, value in options.items() if value is not None}


def _search(args, *modules) -> dict:
    primes = None
    if args.prime_list is not None:
        # the reductions mod a prime list run only over the rationals
        if any(q.field.kind == "fp" for q in modules):
            raise UsageError("--prime-list is for modules over the rationals")
        # each entry follows the grammar, and passes the primality test, of fp:<p>
        try:
            primes = tuple(field_from_name(f"fp:{p}").p for p in args.prime_list.split(","))
        except ParseError as exc:
            raise UsageError(f"bad prime list {args.prime_list!r}: {exc}") from exc
    return _given(enum_bound=args.enum_bound, primes=primes)


def _cmd_check(args) -> dict:
    from .stability import semistability_verdict

    mf = _load_module(args, args.file)
    verdict = semistability_verdict(mf.module, **_search(args, mf.module))
    return verdict_to_dict(verdict)


def _require_subgroup(mf, command: str):
    if mf.subgroup is None:
        raise UsageError(f"the {command} command needs a 'lambda' attachment")
    return mf.subgroup


def _cmd_weight(args) -> dict:
    from .hilbert import destabilizing_1ps, mu

    mf = _load_module(args, args.file)
    if mf.subgroup is not None:
        lam = mf.subgroup
    elif mf.subspace is not None:
        # weight of the canonical destabilizer for an isotropic witness
        lam = destabilizing_1ps(mf.module, mf.subspace)
    else:
        raise UsageError("the weight command needs a 'lambda' or 'subspace' attachment")
    return {"mu": mu_to_json(mu(lam, mf.module))}


def _cmd_limit(args) -> dict:
    from .hilbert import limit_at_zero

    mf = _load_module(args, args.file)
    lam = _require_subgroup(mf, "limit")
    result = limit_at_zero(lam, mf.module)
    if result is None:
        return {"diverges": True}
    return module_to_dict(result)


def _cmd_gr(args) -> dict:
    from .stability import graded

    mf = _load_module(args, args.file)
    return graded_to_dict(graded(mf.module, **_search(args, mf.module)))


def _cmd_sequiv(args) -> dict:
    from .stability import s_equivalent

    first = _load_module(args, args.file)
    second = _load_module(args, args.other)
    search = _search(args, first.module, second.module)
    return {"s_equivalent": s_equivalent(first.module, second.module, **search)}


def _standard_twist(field, r: int, bound: dict) -> Matrix:
    from .dualnum import _check_fiber

    if r % 2 != 0:
        raise UsageError("the alternating case needs an even rank")
    # refuse a huge rank before its r x r grid is built
    _check_fiber(field, r, **bound)
    grid = [[0] * r for _ in range(r)]
    for i in range(0, r, 2):
        grid[i][i + 1] = 1
        grid[i + 1][i] = -1
    return Matrix(field, grid)


def _cmd_fiber(args) -> dict:
    from .dualnum import fiber_structure_check, unramified_fixed_count

    if args.twist is not None and args.case != "alternating":
        raise UsageError("--twist is for the alternating case only")
    field = field_from_name(args.field)
    bound = _given(max_pairs=args.max_pairs)
    if args.case == "unramified":
        count = unramified_fixed_count(field, args.rank, **bound)
        return {
            "case": "unramified",
            "r": args.rank,
            "field": field_name(field),
            "fixed_count": count,
        }
    twist = None
    if args.twist is not None:
        twist = parse_matrix_file(_read(args.twist))
        if twist.field != field:
            raise UsageError("twist matrix is over the wrong field")
    elif args.case == "alternating":
        twist = _standard_twist(field, args.rank, bound)
    report = fiber_structure_check(field, args.rank, args.case, m=twist, **bound)
    return fiber_report_to_dict(report)


def _cmd_pfaffian(args) -> dict:
    from .dualnum import _pfaffian

    m = parse_matrix_file(_read(args.file))
    _check_field(args, m.field)
    # written from its int pair, so a QQ matrix loads no fractions
    return {"pfaffian": m.field._format(*_pfaffian(m))}


def _cmd_enumerate(args) -> dict:
    from .stability import enumerate_totally_isotropic

    mf = _load_module(args, args.file)
    subs = list(enumerate_totally_isotropic(mf.module, **_given(bound=args.enum_bound)))
    return {
        "count": len(subs),
        "subspaces": [subspace_to_lists(v) for v in subs],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="twistmod", description=__doc__)

    common = _Parser(add_help=False)
    common.add_argument(
        "--field",
        help="field tag (rational or fp:<p>); on file commands this is a cross-check",
    )

    bound = _Parser(add_help=False)
    bound.add_argument(
        "--enum-bound",
        type=int,
        help="largest dim H the subspace enumerations will accept",
    )
    search = _Parser(add_help=False, parents=[bound])
    search.add_argument(
        "--prime-list",
        help="comma-separated primes for heuristic reductions over the rationals",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common, search], help="semistability verdict")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser(
        "weight", parents=[common], help="weight of the attached subgroup"
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_weight)

    p = sub.add_parser(
        "limit", parents=[common], help="limit module under the attached subgroup"
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_limit)

    p = sub.add_parser("gr", parents=[common, search], help="graded module")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_gr)

    p = sub.add_parser(
        "sequiv", parents=[common, search], help="compare graded modules"
    )
    p.add_argument("file")
    p.add_argument("other")
    p.set_defaults(handler=_cmd_sequiv)

    p = sub.add_parser(
        "fiber", parents=[common], help="enumerate a fixed-set fiber"
    )
    p.add_argument("--case", required=True, choices=["plus", "alternating", "unramified"])
    p.add_argument("--rank", "-r", type=int, required=True)
    p.add_argument("--twist", help="matrix file for the alternating twist")
    p.add_argument("--max-pairs", type=int)
    p.set_defaults(handler=_cmd_fiber)

    p = sub.add_parser("pfaffian", parents=[common], help="pfaffian of a matrix file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_pfaffian)

    p = sub.add_parser(
        "enumerate",
        parents=[common, bound],
        help="list the totally isotropic subspaces",
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) == "fiber" and args.field is None:
            raise UsageError("the fiber command needs --field")
        payload = args.handler(args)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(to_json(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
