"""Exit codes and golden byte-for-byte command outputs."""

import argparse
import json
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from twistmod import cli
from twistmod.errors import InternalCheckError

HYPERBOLIC = (
    '{"field":"rational","sign":"+1","dim_h":2,'
    '"w":{"dim":1,"involution":[["1"]]},'
    '"forms":[[["0","1"],["1","0"]]]}'
)

# strictly semistable with a one-step filtration; carries its canonical subgroup
FIXTURE = (
    '{"field":"rational","sign":"+1","dim_h":3,'
    '"w":{"dim":1,"involution":[["1"]]},'
    '"forms":[[["0","0","1"],["0","1","1"],["1","1","1"]]],'
    '"lambda":{"pieces":[{"basis":[["1","0","0"]],"weight":1},'
    '{"basis":[["0","1","0"]],"weight":0},'
    '{"basis":[["0","0","1"]],"weight":-1}]}}'
)

GR_GOLDEN = (
    '{"filtration":[[["1","0","0"]]],'
    '"lambda":{"pieces":[{"basis":[["1","0","0"]],"weight":1},'
    '{"basis":[["0","1","0"]],"weight":0},'
    '{"basis":[["0","0","1"]],"weight":-1}]},'
    '"pieces":[[[["1"]]]],'
    '"core":{"field":"rational","sign":"+1","dim_h":1,'
    '"w":{"dim":1,"involution":[["1"]]},"forms":[[["1"]]]},'
    '"assembled":{"field":"rational","sign":"+1","dim_h":3,'
    '"w":{"dim":1,"involution":[["1"]]},'
    '"forms":[[["0","0","1"],["0","1","0"],["1","0","0"]]]},'
    '"transform":[["1","0","0"],["0","1","0"],["0","0","1"]]}'
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_check_golden(tmp_path, capsys):
    path = put(tmp_path, "hyperbolic.json", HYPERBOLIC)
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert out == (
        '{"status":"strictly_semistable",'
        '"certificate":{"V":[["1","0"]],'
        '"lambda":{"pieces":[{"basis":[["1","0"]],"weight":2},'
        '{"basis":[["0","1"]],"weight":-2}]}},'
        '"provenance":{"kind":"heuristic","primes":[2,3,5,7,11,13]},'
        '"mu":0}\n'
    )
    # byte-identical on a second run
    assert run(capsys, "check", path)[1] == out


def test_check_strategy_and_prime_list(tmp_path, capsys):
    path = put(tmp_path, "hyp2.json", HYPERBOLIC.replace("rational", "fp:2"))
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert json.loads(out)["provenance"] == {"kind": "exhaustive", "primes": []}
    # the field decides the mode, so there is no --strategy to set
    code, out, err = run(capsys, "check", path, "--strategy", "exhaustive")
    assert code == 1 and out == "" and "--strategy" in err and err.count("\n") == 1

    qpath = put(tmp_path, "hyp.json", HYPERBOLIC)
    code, out, _ = run(capsys, "check", qpath, "--prime-list", "3,5")
    assert code == 0
    assert json.loads(out)["provenance"] == {"kind": "heuristic", "primes": [3, 5]}
    # a repeated prime is scanned and listed once
    code, out, _ = run(capsys, "check", qpath, "--prime-list", "3,3,5,3")
    assert code == 0
    assert json.loads(out)["provenance"] == {"kind": "heuristic", "primes": [3, 5]}

    code, _, err = run(capsys, "check", qpath, "--prime-list", "3;5")
    assert code == 1 and "prime list" in err
    # entries follow the canonical grammar of field tags
    for primes in (" 3,+5", "3_1", "\u0663"):
        code, out, err = run(capsys, "check", qpath, "--prime-list", primes)
        assert code == 1 and out == "" and "prime list" in err and err.count("\n") == 1
    # 2^61 - 1 is prime, but its reduction has too many lines to scan
    code, out, err = run(capsys, "check", qpath, "--prime-list", "2305843009213693951")
    assert code == 1 and out == "" and "candidate lines" in err and err.count("\n") == 1
    # a field cross-check that disagrees with the file
    code, _, err = run(capsys, "check", qpath, "--field", "fp:7")
    assert code == 1 and "fp:7" in err


@pytest.mark.parametrize("command", ["gr", "sequiv"])
def test_a_prime_with_too_many_lines_is_refused_before_any_scan(tmp_path, capsys, command):
    # the fixture's filtration finds its witness mod 2 and could stop
    # there, but the list is refused whole, before any reduction is scanned
    path = put(tmp_path, "fixture.json", FIXTURE)
    files = [path, path] if command == "sequiv" else [path]
    code, out, err = run(capsys, command, *files, "--prime-list", "2,2305843009213693951")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "candidate lines" in err and err.count("\n") == 1


def test_sequiv_over_a_huge_field_is_refused_before_any_work(tmp_path):
    # <1> and <3> under the swap involution over F_p, p = 2^61 - 1: each
    # graded module is the module itself, and with two forms the pair
    # goes to the search, which would list the p^2 combinations of the
    # forms.  (One form over such a field is decided by its normal form,
    # with no list.)  The command runs in a child process with its
    # address space capped, so a list sized by p fails there at once
    # instead of filling the machine's memory.
    swapped = (
        '{"field":"fp:2305843009213693951","sign":"+1","dim_h":1,'
        '"w":{"dim":2,"involution":[["0","1"],["1","0"]]},"forms":[[["X"]],[["X"]]]}'
    )
    files = [put(tmp_path, f"q{x}.json", swapped.replace("X", x)) for x in ("1", "3")]

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    child = subprocess.run(
        [sys.executable, "-m", "twistmod.cli", "sequiv", *files],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap,
    )
    assert child.returncode == 1 and child.stdout == "", child.stderr
    assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1
    assert "over the search bound 100000" in child.stderr


def test_enumerate_over_a_huge_field_names_only_the_residues_it_writes(tmp_path):
    # a dim-1 module over F_p, p = 2^61 - 1, has the one line e1, which
    # the line rule admits at any p; the command runs in a child process
    # with its address space capped, so a list sized by p (one name per
    # residue, say) fails there at once instead of filling the memory
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    for form, out in (("0", '{"count":1,"subspaces":[[["1"]]]}\n'), ("1", '{"count":0,"subspaces":[]}\n')):
        path = put(
            tmp_path,
            f"line{form}.json",
            '{"field":"fp:2305843009213693951","sign":"+1","dim_h":1,'
            f'"w":{{"dim":1,"involution":[["1"]]}},"forms":[[["{form}"]]]}}',
        )
        child = subprocess.run(
            [sys.executable, "-m", "twistmod.cli", "enumerate", path],
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=cap,
        )
        assert child.returncode == 0 and child.stdout == out, child.stderr


def test_an_enumeration_the_budget_refuses_holds_no_list_of_results(tmp_path):
    # every row of the zero module over F_2^12 is isotropic, so each
    # candidate row the search tests is a result; with the budget lowered
    # to 400,000 rows inside the child, a command that kept its results
    # until the refusal would need about 200 MB and end in a MemoryError
    # under the 128 MiB cap, while a count that keeps nothing is refused
    # on the one budget line, on exit 1, with nothing written
    zero = [["0"] * 12 for _ in range(12)]
    path = put(
        tmp_path,
        "zero12.json",
        '{"field":"fp:2","sign":"+1","dim_h":12,"w":{"dim":1,"involution":[["1"]]},'
        f'"forms":[{json.dumps(zero, separators=(",", ":"))}]}}',
    )
    code = (
        "import sys; from twistmod import cli, stability; "
        "stability._SCAN_BUDGET = 400_000; sys.exit(cli.main(['enumerate', sys.argv[1]]))"
    )

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))

    child = subprocess.run(
        [sys.executable, "-c", code, path],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap,
    )
    assert child.returncode == 1 and child.stdout == "", child.stderr
    assert child.stderr == "error: the isotropic search of F_2^12 exceeds 400000 candidate rows at dim 2\n"


def test_sequiv_over_qq_is_refused_past_the_combination_rule(tmp_path, capsys):
    # two stable rational modules under the trivial involution on a dim-8
    # W grade to themselves; their isomorphism test would list 5^8
    # combinations of the forms, so it is refused on one line
    def module(a):
        form = f'[["1","0"],["0","{a}"]]'
        identity = [["1" if i == j else "0" for j in range(8)] for i in range(8)]
        return (
            '{"field":"rational","sign":"+1","dim_h":2,'
            f'"w":{{"dim":8,"involution":{json.dumps(identity, separators=(",", ":"))}}},'
            f'"forms":[{",".join([form] * 8)}]}}'
        )

    files = [put(tmp_path, f"w8_{a}.json", module(a)) for a in (1, 2)]
    code, out, err = run(capsys, "sequiv", *files)
    assert code == 1 and out == ""
    assert err == "error: Q^8 at coefficients -2..2 has 390625 form combinations, over the search bound 100000\n"


def test_the_enum_bound_option_is_gone(tmp_path, capsys):
    path = put(tmp_path, "hyp3.json", HYPERBOLIC.replace("rational", "fp:3"))
    for command in ("check", "gr", "enumerate"):
        code, out, err = run(capsys, command, path, "--enum-bound", "4")
        assert code == 1 and out == ""
        assert err == "error: unrecognized arguments: --enum-bound 4\n"


def test_check_input_errors(tmp_path, capsys):
    path = put(tmp_path, "malformed.json", "{broken")
    code, _, err = run(capsys, "check", path)
    assert code == 1
    assert "malformed JSON" in err

    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 1

    bad = json.loads(HYPERBOLIC)
    bad["w"]["involution"] = [["2"]]
    path = put(tmp_path, "bad.json", json.dumps(bad))
    code, _, err = run(capsys, "check", path)
    assert code == 1
    assert "involution not idempotent" in err

    code, _, err = run(capsys, "bogus")
    assert code == 1
    assert "invalid choice" in err

    # no --seed flag: nothing in twistmod is randomized
    code, out, err = run(capsys, "check", put(tmp_path, "hyp.json", HYPERBOLIC), "--seed", "1")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "--seed" in err


def test_weight_and_limit(tmp_path, capsys):
    path = put(tmp_path, "fixture.json", FIXTURE)
    code, out, _ = run(capsys, "weight", path)
    assert code == 0 and out == '{"mu":0}\n'

    code, out, _ = run(capsys, "limit", path)
    assert code == 0
    assert out == (
        '{"field":"rational","sign":"+1","dim_h":3,'
        '"w":{"dim":1,"involution":[["1"]]},'
        '"forms":[[["0","0","1"],["0","1","0"],["1","0","0"]]]}\n'
    )

    # a definite form sends every diagonal entry to a negative exponent
    diverging = (
        '{"field":"rational","sign":"+1","dim_h":2,'
        '"w":{"dim":1,"involution":[["1"]]},'
        '"forms":[[["1","0"],["0","1"]]],'
        '"lambda":{"pieces":[{"basis":[["1","0"]],"weight":1},'
        '{"basis":[["0","1"]],"weight":-1}]}}'
    )
    path = put(tmp_path, "diverging.json", diverging)
    code, out, _ = run(capsys, "limit", path)
    assert code == 0 and out == '{"diverges":true}\n'

    path = put(tmp_path, "bare.json", HYPERBOLIC)
    code, _, err = run(capsys, "weight", path)
    assert code == 1 and "attachment" in err

    # a subspace attachment stands in for lambda via its destabilizer
    witness = HYPERBOLIC[:-1] + ',"subspace":[["1","0"]]}'
    path = put(tmp_path, "witness.json", witness)
    code, out, _ = run(capsys, "weight", path)
    assert code == 0 and out == '{"mu":0}\n'


def test_gr_golden(tmp_path, capsys):
    path = put(tmp_path, "fixture.json", FIXTURE)
    code, out, _ = run(capsys, "gr", path)
    assert code == 0
    assert out == GR_GOLDEN + "\n"


def test_sequiv(tmp_path, capsys):
    first = put(tmp_path, "fixture.json", FIXTURE)
    second = put(tmp_path, "hyperbolic.json", HYPERBOLIC)
    code, out, _ = run(capsys, "sequiv", first, first)
    assert code == 0 and out == '{"s_equivalent":"yes"}\n'
    code, out, _ = run(capsys, "sequiv", first, second)
    assert code == 0 and out == '{"s_equivalent":"no"}\n'


def test_sequiv_over_qq_answers_unknown_where_only_the_gradings_differ(tmp_path, capsys):
    # a strictly semistable swap module and its act(g, .) for
    # g = [[-1, -2, 2], [-2, -2, -2], [0, -2, 1]]: the moved copy's witness
    # has denominators, so its grading keeps an uncertified core, and the
    # assembled modules differ though the inputs are isomorphic
    first = put(
        tmp_path,
        "first.json",
        '{"field":"rational","sign":"-1","dim_h":3,'
        '"w":{"dim":2,"involution":[["0","1"],["1","0"]]},'
        '"forms":[[["0","-1","0"],["0","0","-1"],["-1","0","-1"]],'
        '[["0","0","1"],["1","0","0"],["0","1","1"]]]}',
    )
    moved = put(
        tmp_path,
        "moved.json",
        '{"field":"rational","sign":"-1","dim_h":3,'
        '"w":{"dim":2,"involution":[["0","1"],["1","0"]]},'
        '"forms":[[["3/25","7/50","-14/25"],["1/25","-3/25","-1/50"],["1/25","-3/25","12/25"]],'
        '[["-3/25","-1/25","-1/25"],["-7/50","3/25","3/25"],["14/25","1/50","-12/25"]]]}',
    )
    code, out, _ = run(capsys, "sequiv", first, moved)
    assert code == 0 and out == '{"s_equivalent":"unknown"}\n'


def test_gr_and_sequiv_refuse_a_zero_module(tmp_path, capsys):
    # check calls the zero module stable, but it has no graded module
    path = put(
        tmp_path,
        "zero.json",
        '{"field":"fp:3","sign":"+1","dim_h":0,'
        '"w":{"dim":1,"involution":[["1"]]},"forms":[[]]}',
    )
    code, out, _ = run(capsys, "check", path)
    assert code == 0 and out.startswith('{"status":"stable"')
    for argv in (["gr", path], ["sequiv", path, path]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: a graded module needs dim H >= 1, not 0\n"


def test_fiber_golden(capsys):
    code, out, _ = run(capsys, "fiber", "--field", "fp:3", "--case", "plus", "-r", "2")
    assert code == 0
    assert out == (
        '{"case":"plus","r":2,"field":"fp:3",'
        '"fixed_count":36,"image_count":4,"kernel_count":9,"kernel_dim":2,'
        '"checks":{"closure":true,"inverses":true,"projection":true,'
        '"kernel":true,"counts":true},"ok":true}\n'
    )

    code, out, _ = run(
        capsys, "fiber", "--field", "fp:3", "--case", "alternating", "-r", "2"
    )
    assert code == 0
    assert out == (
        '{"case":"alternating","r":2,"field":"fp:3",'
        '"fixed_count":24,"image_count":24,"kernel_count":1,"kernel_dim":0,'
        '"checks":{"closure":true,"inverses":true,"projection":true,'
        '"kernel":true,"counts":true},"ok":true}\n'
    )

    code, out, _ = run(
        capsys, "fiber", "--field", "fp:2", "--case", "unramified", "-r", "2"
    )
    assert code == 0
    assert out == '{"case":"unramified","r":2,"field":"fp:2","fixed_count":6}\n'


def test_fiber_errors(capsys):
    # --field is required by the command table, so argparse names it
    code, _, err = run(capsys, "fiber", "--case", "plus", "-r", "2")
    assert code == 1 and err == "error: the following arguments are required: --field\n"
    code, _, err = run(capsys, "fiber", "--field", "fp:3", "--case", "plus", "-r", "3")
    assert code == 1 and "exceeds" in err
    code, _, err = run(
        capsys, "fiber", "--field", "fp:3", "--case", "alternating", "-r", "3"
    )
    assert code == 1 and "even" in err
    # the sign is named before the parity, and the field before both
    code, _, err = run(capsys, "fiber", "--field", "fp:3", "--case", "alternating", "-r", "-1")
    assert code == 1 and err == "error: the rank must be nonnegative\n"
    code, _, err = run(capsys, "fiber", "--field", "rational", "--case", "alternating", "-r", "-1")
    assert code == 1 and err == "error: fiber enumeration needs a finite field\n"


def test_fiber_help_shows_that_field_is_required(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["fiber", "--help"])
    assert exit_.value.code == 0
    usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
    assert " --field FIELD " in usage and "[--field" not in usage
    assert cli._parse(["fiber", "--case", "plus", "-r", "2"]) is None


# the standard twist over F_3, as a matrix file
J3 = '{"field":"fp:3","matrix":[["0","1"],["2","0"]]}'


def test_the_standard_twist_file_prints_the_default_report(tmp_path, capsys):
    argv = ["fiber", "--field", "fp:3", "--case", "alternating", "-r", "2"]
    default = run(capsys, *argv)
    assert default[0] == 0
    assert run(capsys, *argv, "--twist", put(tmp_path, "j.json", J3)) == default


# twists refused at rank 2 over F_3, as (case, matrix file, stderr part)
BAD_TWISTS = {
    "over-f5": ("alternating", J3.replace("fp:3", "fp:5").replace('"2"', '"4"'), "another field"),
    "symmetric": ("alternating", J3.replace('"2"', '"1"'), "not alternating"),
    "three-by-three": (
        "alternating",
        '{"field":"fp:3","matrix":[["0","1","0"],["2","0","0"],["0","0","0"]]}',
        "size mismatch",
    ),
    "zero": ("alternating", '{"field":"fp:3","matrix":[["0","0"],["0","0"]]}', "invertible"),
    "plus": ("plus", J3, "alternating case only"),
}


@pytest.mark.parametrize("case", sorted(BAD_TWISTS))
def test_a_bad_twist_ends_in_one_line_exit_1(tmp_path, capsys, case):
    kind, text, part = BAD_TWISTS[case]
    twist = put(tmp_path, "m.json", text)
    code, out, err = run(capsys, "fiber", "--field", "fp:3", "--case", kind, "-r", "2", "--twist", twist)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and part in err


@pytest.mark.parametrize("case", ["plus", "unramified", "alternating"])
def test_fiber_refuses_a_huge_rank_on_one_line(capsys, case):
    # refused from the exponent 2 r^2 alone, before the alternating twist is built
    code, out, err = run(capsys, "fiber", "--field", "fp:3", "--case", case, "-r", "100000")
    assert code == 1 and out == ""
    assert err == "error: fiber enumeration over F_3 at size 100000 exceeds 1000000 pairs\n"


@pytest.mark.parametrize("rank, pairs", [("2", "5"), ("3", "400000000")])
def test_the_fiber_bound_cannot_be_set(capsys, rank, pairs):
    # the pair bound is a constant: --max-pairs is a usage error, whether
    # it would lower the bound or raise it past F_3 at rank 3
    argv = ["fiber", "--field", "fp:3", "--case", "plus", "-r", rank, "--max-pairs", pairs]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "--max-pairs" in err


def test_help_is_written_for_users(capsys):
    # the help text is argparse's usage and a one-line description, not
    # the cli module's docstring
    description = cli.build_parser().description
    assert "\n" not in description
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith("usage: twistmod")
    assert description in " ".join(out.split())
    assert "COMMANDS" not in out


# options that a command once accepted and then ignored, as (argv, stderr part);
# "{fixture}", "{fp7}" and "{matrix}" name a rational module, a module over
# F_7 and a rational matrix file
IGNORED_OPTIONS = {
    "sequiv-first-field": (["sequiv", "{fixture}", "{fp7}", "--field", "fp:7"], "rational"),
    "sequiv-second-field": (["sequiv", "{fp7}", "{fixture}", "--field", "fp:7"], "rational"),
    "pfaffian-field": (["pfaffian", "{matrix}", "--field", "fp:7"], "rational"),
    "enumerate-prime-list": (["enumerate", "{fp7}", "--prime-list", "4"], "--prime-list"),
    "check-fp-prime-list": (["check", "{fp7}", "--prime-list", "5,11"], "--prime-list"),
    "gr-fp-prime-list": (["gr", "{fp7}", "--prime-list", "5"], "--prime-list"),
    "sequiv-fp-prime-list": (["sequiv", "{fp7}", "{fp7}", "--prime-list", "5"], "--prime-list"),
    "fiber-plus-twist": (
        ["fiber", "--field", "rational", "--case", "plus", "-r", "2", "--twist", "{matrix}"],
        "--twist",
    ),
}


@pytest.mark.parametrize("case", sorted(IGNORED_OPTIONS))
def test_options_a_command_would_ignore_are_refused(tmp_path, capsys, case):
    files = {
        "fixture": put(tmp_path, "fixture.json", FIXTURE),
        "fp7": put(tmp_path, "hyp7.json", HYPERBOLIC.replace("rational", "fp:7")),
        "matrix": put(tmp_path, "j2.json", '{"field":"rational","matrix":[["0","1"],["-1","0"]]}'),
    }
    argv, part = IGNORED_OPTIONS[case]
    code, out, err = run(capsys, *(arg.format(**files) for arg in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and part in err


def test_pfaffian_golden(tmp_path, capsys):
    path = put(tmp_path, "j2.json", '{"field":"rational","matrix":[["0","1"],["-1","0"]]}')
    code, out, _ = run(capsys, "pfaffian", path)
    assert code == 0 and out == '{"pfaffian":"1"}\n'

    path = put(tmp_path, "j2f2.json", '{"field":"fp:2","matrix":[["0","1"],["1","0"]]}')
    code, out, _ = run(capsys, "pfaffian", path)
    assert code == 0 and out == '{"pfaffian":"1"}\n'

    path = put(tmp_path, "sym.json", '{"field":"rational","matrix":[["0","1"],["1","0"]]}')
    code, _, err = run(capsys, "pfaffian", path)
    assert code == 1 and "alternating" in err


def test_enumerate_golden(tmp_path, capsys, monkeypatch):
    path = put(tmp_path, "hyp2.json", HYPERBOLIC.replace("rational", "fp:2"))
    code, out, _ = run(capsys, "enumerate", path)
    assert code == 0
    assert out == '{"count":3,"subspaces":[[["1","0"]],[["1","1"]],[["0","1"]]]}\n'

    # a swap module over F_5 with forms that are not symmetric: the command
    # writes the library's 37 subspaces byte for byte, and builds no
    # Subspace to do so
    from twistmod.linalg import Subspace
    from twistmod.serialize import parse_module_file, subspace_to_lists, to_json
    from twistmod.stability import enumerate_totally_isotropic

    text = (
        '{"field":"fp:5","sign":"+1","dim_h":4,"w":{"dim":2,"involution":[["0","1"],["1","0"]]},'
        '"forms":[[["4","4","1","1"],["0","2","3","2"],["1","0","3","4"],["4","3","3","2"]],'
        '[["4","0","1","4"],["4","2","0","3"],["1","3","3","3"],["1","2","4","2"]]]}'
    )
    subs = enumerate_totally_isotropic(parse_module_file(text).module)
    assert len(subs) == 37
    expected = to_json({"count": 37, "subspaces": [subspace_to_lists(v) for v in subs]}) + "\n"

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate built a Subspace")

    monkeypatch.setattr(Subspace, "_from_echelon", refuse)
    code, out, _ = run(capsys, "enumerate", put(tmp_path, "swap5.json", text))
    assert code == 0 and out == expected


def test_internal_check_maps_to_exit_2(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InternalCheckError("forced")

    monkeypatch.setattr("twistmod.stability.semistability_verdict", boom)
    path = put(tmp_path, "hyperbolic.json", HYPERBOLIC)
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert "internal check failed" in err


# inputs that once ended in a traceback or a hang, as (command, file text)
PROBES = {
    "non-utf8-file": ("check", b"\xff\xfe{"),
    "deep-module-file": ("check", "[" * 100_000 + "]" * 100_000),
    "deep-matrix-file": ("pfaffian", "[" * 100_000 + "]" * 100_000),
    "long-json-integer": ("check", HYPERBOLIC.replace('"dim_h":2', '"dim_h":1' + "0" * 5000)),
    "superscript-literal": (
        "check",
        HYPERBOLIC.replace("rational", "fp:3").replace('[["1"]]', '[["\u00b2"]]'),
    ),
    "tag-underscore": ("check", HYPERBOLIC.replace("rational", "fp:3_1")),
    "tag-space": ("check", HYPERBOLIC.replace("rational", "fp: 7")),
    "tag-plus": ("check", HYPERBOLIC.replace("rational", "fp:+7")),
    "tag-arabic-digit": ("check", HYPERBOLIC.replace("rational", "fp:\u0663")),
    "tag-401-digits": ("fiber", "fp:" + str(10**400)),
    "rational-exponent": (
        "gr",
        HYPERBOLIC.replace('[["0","1"],["1","0"]]', '[["0","1e5000"],["1e5000","0"]]'),
    ),
    # a prime field with more lines than any search will scan
    "check-mersenne-61": ("check", HYPERBOLIC.replace("rational", "fp:2305843009213693951")),
    # 2^61 - 1 is prime, so the field is built and the fiber bound refuses it
    "tag-mersenne-61": ("fiber", "fp:2305843009213693951"),
    "forms-object": (
        "check",
        HYPERBOLIC.replace('[[["0","1"],["1","0"]]]', '{"0":[["0","1"],["1","0"]]}'),
    ),
    # a module file, its "w", its "lambda", a piece or a matrix file that
    # is not a JSON object
    "module-array": ("check", "[" + HYPERBOLIC + "]"),
    "w-array": ("check", HYPERBOLIC.replace('{"dim":1,"involution":[["1"]]}', '[1,[["1"]]]')),
    "lambda-array": (
        "weight",
        FIXTURE.replace('"lambda":{"pieces":', '"lambda":[').replace("}]}}", "}]]}"),
    ),
    "piece-array": (
        "weight",
        FIXTURE.replace('{"basis":[["0","0","1"]],"weight":-1}', '[[["0","0","1"]],-1]'),
    ),
    "matrix-array": ("pfaffian", '[[["0","1"],["-1","0"]]]'),
    "involution-shape": ("check", HYPERBOLIC.replace('[["1"]]', '[["1","0"],["0","1"]]')),
    "module-field-number": ("check", HYPERBOLIC.replace('"rational"', "3")),
    "matrix-field-number": ("pfaffian", '{"field":3,"matrix":[["0","1"],["-1","0"]]}'),
    "matrix-missing": ("pfaffian", '{"field":"rational"}'),
    "limit-without-lambda": ("limit", HYPERBOLIC),
    # each entry parses, but the Pfaffian 10^5000 has too many digits to print
    "pfaffian-5001-digits": (
        "pfaffian",
        '{"field":"rational","matrix":[["0","N","0","0"],["-N","0","0","0"],'
        '["0","0","0","N"],["0","0","-N","0"]]}'.replace("N", "1" + "0" * 2500),
    ),
    # B = [[0, 1], [0, 0]] over F_5 is not symmetric: the module's constructor refuses it
    "symmetry-broken": (
        "check",
        HYPERBOLIC.replace("rational", "fp:5").replace('[["0","1"],["1","0"]]', '[["0","1"],["0","0"]]'),
    ),
}
# the probes whose one stderr line is pinned
PINNED = {"symmetry-broken": "error: symmetry relation violated\n"}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_bad_input_ends_in_one_line_exit_1(tmp_path, capsys, probe):
    command, text = PROBES[probe]
    if command == "fiber":
        argv = ["fiber", "--field", text, "--case", "plus", "-r", "2"]
    else:
        path = tmp_path / "input.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        argv = [command, str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if probe in PINNED:
        assert err == PINNED[probe]


# -- mutated input files -------------------------------------------------------

# valid small files that the fuzz below mutates: modules over QQ and F_p,
# with a subgroup or a subspace attached, and matrix files
FUZZ_MODULES = (
    FIXTURE,
    FIXTURE.replace("rational", "fp:3"),
    HYPERBOLIC.replace('"forms"', '"subspace":[["1","0"]],"forms"'),
    '{"field":"fp:5","sign":"+1","dim_h":2,"w":{"dim":2,"involution":[["0","1"],["1","0"]]},'
    '"forms":[[["1","2"],["0","1"]],[["1","0"],["2","1"]]]}',
)
FUZZ_MATRICES = (
    J3,
    '{"field":"rational","matrix":[["0","1/2","0","0"],["-1/2","0","0","0"],'
    '["0","0","0","3"],["0","0","-3","0"]]}',
)
# a JSON integer past int()'s digit limit, and 100,000 levels of nesting,
# spliced into the text where these strings stand
HUGE, DEEP = "@huge@", "@deep@"
RETYPED = (0, 7, -1, True, None, 1.5, "x", "", [], {}, [[]], ["1"], {"a": 1}, HUGE, DEEP)
BAD_LITERALS = (
    "1/0", "0/0", "1/-2", "--1", "1e3", "0x10", "1.5", " 1", "1 ", "\u00b2", "\u00bd",
    "1/2/3", "", "nan", "\u0663", "1" + "0" * 5000, "1/" + "3" * 5000, "1" + "0" * 400,
)
BAD_TAGS = (
    "fp:4", "fp:1", "fp:0", "fp:", "fp:-3", "FP:3", "fp:03", "fp:3.0", "real", "fp:2", "fp:7",
    "rational ", "fp:" + "9" * 30, "fp:2305843009213693951",
)


def fuzz_nodes(node, path=()):
    """Every (path, node) of a JSON tree, the root first."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from fuzz_nodes(child, path + (key,))


def fuzz_replace(tree, path, value):
    if not path:
        return value
    key, rest = path[0], path[1:]
    if isinstance(tree, dict):
        return {**tree, key: fuzz_replace(tree[key], rest, value)}
    return [fuzz_replace(child, rest, value) if i == key else child for i, child in enumerate(tree)]


def mutated_file(draw, st, text):
    """``text`` after up to three mutations: a dropped key, a value of
    another JSON type, a ragged matrix row, a bad entry literal, a bad
    field tag, a huge numeral or deep nesting."""
    tree = json.loads(text)
    for _ in range(draw(st.integers(0, 3))):
        nodes = list(fuzz_nodes(tree))
        how = draw(st.sampled_from(("drop", "retype", "ragged", "literal", "tag")))
        if how == "drop":
            objects = [(p, n) for p, n in nodes if isinstance(n, dict) and n]
            if objects:
                at, node = draw(st.sampled_from(objects))
                gone = draw(st.sampled_from(sorted(node)))
                tree = fuzz_replace(tree, at, {k: v for k, v in node.items() if k != gone})
                continue
        elif how == "ragged":
            # a row: an array inside an array
            rows = [(p, n) for p, n in nodes if isinstance(n, list) and p and isinstance(p[-1], int)]
            if rows:
                at, row = draw(st.sampled_from(rows))
                tree = fuzz_replace(tree, at, row[:-1] if draw(st.booleans()) else row + row[:1])
                continue
        elif how == "literal":
            leaves = [p for p, n in nodes if isinstance(n, str) and p[-1:] != ("field",)]
            if leaves:
                tree = fuzz_replace(tree, draw(st.sampled_from(leaves)), draw(st.sampled_from(BAD_LITERALS)))
                continue
        elif how == "tag" and isinstance(tree, dict):
            tree = {**tree, "field": draw(st.sampled_from(BAD_TAGS))}
            continue
        at = draw(st.sampled_from([p for p, _ in nodes]))
        tree = fuzz_replace(tree, at, draw(st.sampled_from(RETYPED)))
    text = json.dumps(tree)
    return text.replace(f'"{HUGE}"', "1" + "0" * 5000).replace(f'"{DEEP}"', "[" * 100_000 + "]" * 100_000)


def test_mutated_files_end_in_one_output_line_or_one_error_line(tmp_path, capsys):
    # every file command, on small valid files with up to three faults;
    # sequiv reads a mutated file against its valid base, either way round
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    commands = ("check", "enumerate", "gr", "weight", "limit", "sequiv", "pfaffian", "fiber")

    @hypothesis.settings(max_examples=250, deadline=None)
    @hypothesis.given(st.sampled_from(commands), st.data())
    def check(command, data):
        bases = FUZZ_MATRICES if command in ("pfaffian", "fiber") else FUZZ_MODULES
        base = data.draw(st.sampled_from(bases))
        path = put(tmp_path, "fuzz.json", mutated_file(data.draw, st, base))
        if command == "fiber":
            argv = ["fiber", "--field", "fp:3", "--case", "alternating", "-r", "2", "--twist", path]
        elif command == "sequiv":
            argv = ["sequiv", *data.draw(st.permutations([path, put(tmp_path, "base.json", base)]))]
        else:
            argv = [command, path]
        code, out, err = run(capsys, *argv)
        if code == 0:
            assert out.endswith("\n") and out.count("\n") == 1 and err == "", argv
        else:
            assert code == 1 and out == "", (argv, err)
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)

    check()


BASE_LAYERS = {
    "twistmod",
    "twistmod.cli",
    "twistmod.errors",
    "twistmod.linalg",
    "twistmod.serialize",
}
ENGINE = {"twistmod.sigmamod", "twistmod.hilbert", "twistmod.stability"}


# standard modules that no well-formed command should load: dataclasses
# pulls in inspect, ast, dis and tokenize, and argparse pulls in gettext,
# whose lookups load locale, milliseconds of start-up per process each;
# argparse is loaded only for help and usage errors
START_UP_EXCLUDED = ("dataclasses", "inspect", "argparse", "gettext", "locale")


def loaded_layers(code, *argv):
    """The twistmod modules a fresh interpreter holds after running code,
    together with any of START_UP_EXCLUDED that it loaded."""
    report = (
        "import json, sys; "
        "print(json.dumps([m for m in sys.modules "
        f"if m.startswith('twistmod') or m in {START_UP_EXCLUDED!r}]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}", *argv],
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_engine_layer():
    assert loaded_layers("import twistmod.cli") == BASE_LAYERS


# x^2 + y^2 over F_3 has no isotropic line, since -1 is not a square mod 3
ANISOTROPIC_F3 = (
    '{"field":"fp:3","sign":"+1","dim_h":2,"w":{"dim":1,"involution":[["1"]]},'
    '"forms":[[["1","0"],["0","1"]]]}'
)


@pytest.mark.parametrize(
    "case, layers",
    [
        ("pfaffian", {"twistmod.dualnum"}),
        ("fiber", {"twistmod.dualnum"}),
        ("weight", {"twistmod.sigmamod", "twistmod.hilbert"}),
        ("limit", {"twistmod.sigmamod", "twistmod.hilbert"}),
        ("check", ENGINE),
        ("gr", ENGINE),
        ("sequiv", ENGINE),
        # hilbert only where a certificate, a grading or a sweep is built
        ("enumerate", {"twistmod.sigmamod", "twistmod.stability"}),
        ("check-fp-stable", {"twistmod.sigmamod", "twistmod.stability"}),
    ],
)
def test_each_command_loads_only_its_layers(tmp_path, case, layers):
    fixture = put(tmp_path, "fixture.json", FIXTURE)
    matrix = '{"field":"rational","matrix":[["0","1"],["-1","0"]]}'
    argv = {
        "pfaffian": ["pfaffian", put(tmp_path, "j2.json", matrix)],
        "fiber": ["fiber", "--field", "fp:2", "--case", "plus", "-r", "2"],
        "sequiv": ["sequiv", fixture, fixture],
        "enumerate": [
            "enumerate",
            put(tmp_path, "hyp2.json", HYPERBOLIC.replace("rational", "fp:2")),
        ],
        "check-fp-stable": ["check", put(tmp_path, "aniso3.json", ANISOTROPIC_F3)],
    }.get(case, [case, fixture])
    code = "import sys, twistmod.cli; assert twistmod.cli.main(sys.argv[1:]) == 0"
    assert loaded_layers(code, *argv) == BASE_LAYERS | layers


def test_a_stable_fp_check_certifies_nothing(tmp_path, capsys):
    path = put(tmp_path, "aniso3.json", ANISOTROPIC_F3)
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert out == '{"status":"stable","provenance":{"kind":"exhaustive","primes":[]},"mu":null}\n'


# -- the table parser against argparse --------------------------------------

# values a command line may carry: paths, field tags, ints that int() reads
# and ints it refuses, choices and near-choices, and dashed tokens
VALUES = (
    "a.json",
    "b c.json",
    "",
    "fp:3",
    "rational",
    "2",
    " 4",
    "1_0",
    "+3",
    "\u0663",
    "x",
    "2.0",
    "plus",
    "alternating",
    "unramified",
    "Plus",
    "check",
    "-2",
    "-x",
    "-",
)
# dashed tokens that are not an option of any command as it is spelt
DASHED = ("-h", "--help", "--", "--bogus", "-r2", "--fie", "--enum", "--ca", "--ra", "--max")


def value_for(draw, st, option):
    names, kind, choices, _, _ = option
    if choices is not None:
        return draw(st.sampled_from(choices))
    if kind is int:
        return str(draw(st.integers(0, 10**6)))
    return draw(st.sampled_from([v for v in VALUES if not v.startswith("-")]))


def well_formed_argv(st):
    """Every command with its positionals and some of its options, every
    required one included, in full spelling and in any order."""

    @st.composite
    def argv(draw):
        command = draw(st.sampled_from(sorted(cli.COMMANDS)))
        _, _, positionals, options = cli.COMMANDS[command]
        chunks = [[draw(st.sampled_from(("a.json", "b c.json", "", "check")))] for _ in positionals]
        for option in options:
            if option[3] or draw(st.booleans()):
                chunks.append([draw(st.sampled_from(option[0])), value_for(draw, st, option)])
        chunks = draw(st.permutations(chunks))
        return [command] + [token for chunk in chunks for token in chunk]

    return argv()


def mutated_argv(st):
    """A well-formed argv with one change that argparse may or may not
    accept: an abbreviation, --opt=value, a repeated option, a negative
    number or a dashed value, -h, --, an unknown command, a bad int or
    choice, a dropped or an extra token."""

    @st.composite
    def argv(draw):
        tokens = draw(well_formed_argv(st))
        command = tokens[0]
        names = [name for option in cli.COMMANDS[command][3] for name in option[0]]
        flagged = [i for i, token in enumerate(tokens) if token in names]
        on_an_option = ("abbreviate", "join", "repeat", "negative", "value")
        how = draw(st.sampled_from(on_an_option + ("insert", "command", "drop", "extra")))
        if how in on_an_option and not flagged:
            how = "insert"
        if how == "abbreviate":
            i = draw(st.sampled_from(flagged))
            name = tokens[i]
            tokens[i] = name[: draw(st.integers(2, len(name)))]
        elif how == "join":
            i = draw(st.sampled_from(flagged))
            tokens[i : i + 2] = [f"{tokens[i]}={tokens[i + 1]}"]
        elif how == "repeat":
            i = draw(st.sampled_from(flagged))
            tokens += tokens[i : i + 2]
        elif how == "negative":
            i = draw(st.sampled_from(flagged))
            tokens[i + 1] = draw(st.sampled_from(("-1", "-0", "-7", "-x")))
        elif how == "value":
            i = draw(st.sampled_from(flagged))
            tokens[i + 1] = draw(st.sampled_from(VALUES))
        elif how == "insert":
            where = draw(st.integers(1, len(tokens)))
            tokens.insert(where, draw(st.sampled_from(DASHED)))
        elif how == "command":
            tokens[0] = draw(st.sampled_from(("bogus", "chec", "", "-h", "--field", "CHECK")))
        elif how == "drop":
            del tokens[draw(st.integers(1, max(len(tokens) - 1, 1))) :]
        else:
            tokens.append(draw(st.sampled_from(VALUES + DASHED)))
        return tokens

    return argv()


def test_the_table_parser_reads_every_well_formed_command_as_argparse_does():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    parser = cli.build_parser()

    @hypothesis.settings(max_examples=300)
    @hypothesis.given(well_formed_argv(st))
    def check(argv):
        args = cli._parse(argv)
        assert args is not None, argv
        assert vars(args) == vars(parser.parse_args(argv))

    check()


def test_the_table_parser_leaves_to_argparse_or_agrees_with_it():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    parser = cli.build_parser()
    soup = st.lists(st.sampled_from(VALUES + DASHED + tuple(cli.COMMANDS)), max_size=8)

    @hypothesis.settings(max_examples=600)
    @hypothesis.given(st.one_of(mutated_argv(st), soup))
    def check(argv):
        args = cli._parse(argv)
        if args is not None:
            # argparse accepts it too, with the same values
            assert vars(args) == vars(parser.parse_args(argv)), argv

    check()


# one of each kind of command line that only argparse reads
LEFT_TO_ARGPARSE = [
    [],
    ["-h"],
    ["check", "-h"],
    ["check", "a.json", "--help"],
    ["bogus", "a.json"],
    ["chec", "a.json"],
    ["check", "a.json", "--bogus", "x"],
    ["check", "a.json", "--fie", "fp:3"],
    ["check", "a.json", "--field=fp:3"],
    ["check", "a.json", "--field", "fp:3", "--field", "fp:3"],
    ["fiber", "--field", "fp:3", "--case", "plus", "-r", "2", "--rank", "2"],
    ["fiber", "--field", "fp:3", "--case", "plus", "-r", "-2"],
    ["fiber", "--field", "fp:3", "--case", "plus", "-r2"],
    ["check", "-a.json"],
    ["check", "--", "a.json"],
    ["fiber", "--field", "fp:3", "--case", "plus", "-r", "x"],
    ["fiber", "--field", "fp:3", "--case", "minus", "-r", "2"],
    ["fiber", "--field", "fp:3", "-r", "2"],
    ["check"],
    ["check", "a.json", "b.json"],
    ["check", "a.json", "--field"],
]


@pytest.mark.parametrize("argv", LEFT_TO_ARGPARSE, ids=" ".join)
def test_the_table_parser_leaves_help_errors_and_other_spellings_to_argparse(argv):
    assert cli._parse(argv) is None


def test_module_entry_point_matches_library(tmp_path):
    path = put(tmp_path, "hyperbolic.json", HYPERBOLIC)
    proc = subprocess.run(
        [sys.executable, "-m", "twistmod.cli", "check", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "strictly_semistable"


def test_readme_synopsis_names_only_real_options():
    # every --flag in the README's command synopsis is an option of that
    # command's subparser, so a removed option cannot linger in the docs
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags: dict = {}
    command = None
    for line in block.splitlines():
        if line.startswith("twistmod "):
            command = line.split()[1]
        if command is not None:
            flags.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    assert set(flags) == set(sub.choices)
    for command, named in flags.items():
        options = sub.choices[command]._option_string_actions
        assert named <= set(options), (command, named - set(options))
