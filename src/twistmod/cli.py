"""Command line front end.

Every command reads JSON files, writes one JSON object to stdout and
returns exit code 0, whatever the mathematical outcome; exit code 1
means the input was unusable and 2 means an internal consistency check
failed.  Output bytes are deterministic for identical inputs.

Each command is described once, in the COMMANDS table.  A well-formed
command line is read straight off that table; argparse, built from the
same table, is loaded only for help, for usage errors and for the
spellings the table reader leaves to it, such as --opt=value.  Each
command imports only the layers it runs: ``pfaffian`` and ``fiber``
never load the semistability engine, and ``check`` never loads the
dual-number code.  Interpreter start-up still dominates the wall time
of a small command.
"""

from __future__ import annotations

import itertools
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import InternalCheckError, ParseError, UsageError
from .linalg import field_from_name, field_name
from .serialize import (
    fiber_report_to_dict,
    graded_to_dict,
    module_to_dict,
    mu_to_json,
    parse_matrix_file,
    parse_module_file,
    rows_to_lists,
    to_json,
    verdict_to_dict,
)

if TYPE_CHECKING:
    import argparse


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


def _search(args, *modules) -> dict:
    # without --prime-list the library's default primes are used
    if args.prime_list is None:
        return {}
    # the reductions mod a prime list run only over the rationals
    if any(q.field.kind == "fp" for q in modules):
        raise UsageError("--prime-list is for modules over the rationals")
    # each entry follows the grammar, and passes the primality test, of fp:<p>
    try:
        return {"primes": tuple(field_from_name(f"fp:{p}").p for p in args.prime_list.split(","))}
    except ParseError as exc:
        raise UsageError(f"bad prime list {args.prime_list!r}: {exc}") from exc


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


def _cmd_fiber(args) -> dict:
    from .dualnum import fiber_structure_check, unramified_fixed_count

    if args.twist is not None and args.case != "alternating":
        raise UsageError("--twist is for the alternating case only")
    field = field_from_name(args.field)
    if args.case == "unramified":
        count = unramified_fixed_count(field, args.rank)
        return {
            "case": "unramified",
            "r": args.rank,
            "field": field_name(field),
            "fixed_count": count,
        }
    # the library checks the twist, and builds the standard one when none is given
    twist = None if args.twist is None else parse_matrix_file(_read(args.twist))
    return fiber_report_to_dict(fiber_structure_check(field, args.rank, args.case, m=twist))


def _cmd_pfaffian(args) -> dict:
    from .dualnum import _pfaffian

    m = parse_matrix_file(_read(args.file))
    _check_field(args, m.field)
    # written from its int pair, so a QQ matrix loads no fractions
    return {"pfaffian": m.field._format(*_pfaffian(m))}


def _cmd_enumerate(args):
    from .stability import _isotropic_bases

    mf = _load_module(args, args.file)
    q = mf.module
    # the output starts with the count, so the stream is read twice and no
    # list of results is held: this pass counts, and a search past its
    # budget is refused here, before any byte is written
    count = sum(1 for _ in _isotropic_bases(q))

    def text():
        # the second pass writes each subspace from its echelon rows, the
        # int rows over 1 of the basis that enumerate_totally_isotropic
        # builds, as subspace_to_lists writes them, with one names dict for
        # all; a batch of them is one to_json list with its brackets cut off
        bases, field, names, comma = _isotropic_bases(q), q.field, {}, ""
        yield f'{{"count":{count},"subspaces":['
        while batch := [rows_to_lists(field, rows, names=names) for rows, _ in itertools.islice(bases, 1000)]:
            yield comma + to_json(batch)[1:-1]
            comma = ","
        yield "]}"

    return text()


# an option is (option strings, type, choices, required, help); its
# value is stored under the first string, as argparse names it
_FIELD = (
    ("--field",),
    None,
    None,
    False,
    "field tag (rational or fp:<p>); on file commands this is a cross-check",
)
_PRIME_LIST = (
    ("--prime-list",),
    None,
    None,
    False,
    "comma-separated primes for heuristic reductions over the rationals",
)
_SEARCH = (_FIELD, _PRIME_LIST)

# every command once, as name: (handler, help, positionals, options)
COMMANDS = {
    "check": (_cmd_check, "semistability verdict", ("file",), _SEARCH),
    "weight": (_cmd_weight, "weight of the attached subgroup", ("file",), (_FIELD,)),
    "limit": (_cmd_limit, "limit module under the attached subgroup", ("file",), (_FIELD,)),
    "gr": (_cmd_gr, "graded module", ("file",), _SEARCH),
    "sequiv": (_cmd_sequiv, "compare graded modules", ("file", "other"), _SEARCH),
    "fiber": (
        _cmd_fiber,
        "enumerate a fixed-set fiber",
        (),
        (
            (("--field",), None, None, True, "field tag fp:<p>"),
            (("--case",), None, ("plus", "alternating", "unramified"), True, None),
            (("--rank", "-r"), int, None, True, None),
            (("--twist",), None, None, False, "matrix file for the alternating twist"),
        ),
    ),
    "pfaffian": (_cmd_pfaffian, "pfaffian of a matrix file", ("file",), (_FIELD,)),
    "enumerate": (_cmd_enumerate, "list the totally isotropic subspaces", ("file",), (_FIELD,)),
}


def _dest(names) -> str:
    return names[0].lstrip("-").replace("-", "_")


def _parse(argv):
    """The namespace that argparse builds for ``argv`` when that is
    exactly well formed, else None, and build_parser() decides.

    Well formed: a command of COMMANDS, then its positionals and its
    options in any order, each option at most once, spelt in full and
    followed by its value, every required option given and every value
    passing its type and choices.  No token but an option string may
    start with "-", so help, "--", abbreviations, --opt=value and
    negative numbers all go to argparse, with every usage error.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, _, positionals, options = COMMANDS[argv[0]]
    by_name = {name: option for option in options for name in option[0]}
    values = {_dest(names): None for names, *_ in options}
    seen = set()
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        option = by_name.get(token)
        # a missing value reads as a dashed one
        value = next(tokens, "-")
        if option is None or value.startswith("-"):
            return None
        names, kind, choices, _, _ = option
        dest = _dest(names)
        if dest in seen:
            return None
        seen.add(dest)
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if len(given) != len(positionals):
        return None
    if any(required and _dest(names) not in seen for names, _, _, required, _ in options):
        return None
    values.update(zip(positionals, given), command=argv[0], handler=handler)
    return SimpleNamespace(**values)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of COMMANDS, the one source of help text and
    usage errors."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with status 2 on bad arguments, which is reserved
        # here for internal check failures; surface a UsageError instead
        def error(self, message):
            raise ParseError(message)

    parser = _Parser(prog="twistmod", description="Exact computations on twisted bilinear modules.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, positionals, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for names, kind, choices, required, help_option in options:
            p.add_argument(*names, type=kind, choices=choices, required=required, help=help_option)
        for name in positionals:
            p.add_argument(name)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        payload = args.handler(args)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(payload, dict):
        print(to_json(payload))
    else:
        # enumerate's text, written piece by piece as its second pass runs
        sys.stdout.writelines(payload)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
