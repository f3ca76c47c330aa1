"""What each command prints: one row per command line, with its input files.

A row gives the argv, the exit code, the expected stdout and the expected
stderr.  An expected stream is its exact text, a ``Digest`` (the sha256
and byte count of a long output) or a pattern that must match it whole,
for the text that argparse words and Python versions may word differently.
A row's command line names an input file as ``{name}``, a key of
``FILES``.

``tests/test_cli.py`` runs every row but the slow ones through
``cli.main`` in process, twice.  ``main()`` runs every row, the slow ones
and the address-space caps included, through the ``twistmod`` found on
PATH, one fresh process each; it imports nothing from twistmod, so it
tests an installed console script alone.  To run it from a checkout,
put a shim on PATH that does what pip's console-script wrapper does,

    #!/usr/bin/env python3
    import sys
    from twistmod.cli import main
    sys.exit(main())

and run, from the repository root,

    PYTHONPATH=src python tests/cli_cases.py

It prints one line per failing row, then ``N cases, M failed``, and exits
0 only when every row ran and passed.
"""

import hashlib
import json
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional, Union


class Digest(NamedTuple):
    sha256: str
    size: int


class Case(NamedTuple):
    # the argv, split on spaces
    line: str
    code: int = 0
    out: Union[str, Digest, re.Pattern] = ""
    err: Union[str, Digest, re.Pattern] = ""
    # only main() runs a slow row; tier-1 leaves it out
    slow: bool = False
    # main() runs the row under this address-space cap, in MiB
    cap_mib: Optional[int] = None


TRIVIAL, SWAP = '[["1"]]', '[["0","1"],["1","0"]]'


def module(field: str, forms: str, involution: str = TRIVIAL, sign: str = "+1", extra: str = "") -> str:
    """A module file, from the JSON text of its forms and any attachment after them."""
    dim_h, dim_w = len(json.loads(forms)[0]), len(json.loads(involution))
    return (
        f'{{"field":"{field}","sign":"{sign}","dim_h":{dim_h},'
        f'"w":{{"dim":{dim_w},"involution":{involution}}},"forms":{forms}{extra}}}'
    )


def zero_module(p: int, n: int) -> str:
    return module(f"fp:{p}", json.dumps([[["0"] * n] * n], separators=(",", ":")))


FIXTURE_FORM = '[[["0","0","1"],["0","1","1"],["1","1","1"]]]'
HYPERBOLIC = module("rational", '[[["0","1"],["1","0"]]]')

FILES = {
    # strictly semistable with a one-step filtration; carries its canonical subgroup
    "fixture": module(
        "rational",
        FIXTURE_FORM,
        extra=',"lambda":{"pieces":[{"basis":[["1","0","0"]],"weight":1},'
        '{"basis":[["0","1","0"]],"weight":0},{"basis":[["0","0","1"]],"weight":-1}]}',
    ),
    "hyperbolic": HYPERBOLIC,
    "hyperbolic_f3": HYPERBOLIC.replace("rational", "fp:3"),
    # the line e1 stands in for lambda through its destabilizer
    "hyperbolic_line": HYPERBOLIC[:-1] + ',"subspace":[["1","0"]]}',
    # a definite form sends every diagonal entry to a negative exponent
    "diverging": module(
        "rational",
        '[[["1","0"],["0","1"]]]',
        extra=',"lambda":{"pieces":[{"basis":[["1","0"]],"weight":1},{"basis":[["0","1"]],"weight":-1}]}',
    ),
    # x^2 + y^2 over F_3 has no isotropic line, since -1 is not a square mod 3
    "anisotropic_f3": module("fp:3", '[[["1","0"],["0","1"]]]'),
    "j2": '{"field":"rational","matrix":[["0","1"],["-1","0"]]}',
    "j2_f2": '{"field":"fp:2","matrix":[["0","1"],["1","0"]]}',
    "symmetric": '{"field":"rational","matrix":[["0","1"],["1","0"]]}',
    # the standard twist over F_3, and one over F_5
    "j3": '{"field":"fp:3","matrix":[["0","1"],["2","0"]]}',
    "j5": '{"field":"fp:5","matrix":[["0","1"],["4","0"]]}',
    # a zero at (0, 1): the pfaffian a01 a23 - a02 a13 + a03 a12 = 2 takes
    # the pivot swap of the plain-int skew elimination
    "pivot_swap": '{"field":"rational","matrix":[["0","0","1","2"],["0","0","3","4"],["-1","-3","0","0"],'
    '["-2","-4","0","0"]]}',
    # denominators 2, 3, 4 and 7: the pfaffian 5/14 - 1/4 = 3/28 is read
    # off the int rows over one denominator
    "fractional": '{"field":"rational","matrix":[["0","1/2","1/3","0"],["-1/2","0","0","3/4"],'
    '["-1/3","0","0","5/7"],["0","-3/4","-5/7","0"]]}',
    # one form over F_7^4 is decided by rank and discriminant square class:
    # form7_other's is 6, a nonsquare, against 1; form7_moved is a moved copy
    "form7": module("fp:7", '[[["1","1","0","1"],["1","3","5","0"],["0","5","5","3"],["1","0","3","5"]]]'),
    "form7_other": module("fp:7", '[[["0","4","4","6"],["4","0","2","6"],["4","2","1","2"],["6","6","2","3"]]]'),
    "form7_moved": module("fp:7", '[[["1","3","5","2"],["3","3","2","0"],["5","2","1","3"],["2","0","3","0"]]]'),
    # two forms over F_3 go past the one-form decision to the Gram walk:
    # A = [[2, 2], [2, 1]] under g = [[1, 1], [0, 1]] is 2 I, and diag(1, 2)
    # agrees on every rank invariant but not on the discriminant class
    "swap3": module("fp:3", '[[["2","2"],["2","1"]],[["2","2"],["2","1"]]]', SWAP),
    "swap3_diag": module("fp:3", '[[["1","0"],["0","2"]],[["1","0"],["0","2"]]]', SWAP),
    "swap3_moved": module("fp:3", '[[["2","0"],["0","2"]],[["2","0"],["0","2"]]]', SWAP),
    # swap modules over F_5^3 take the walk through planes with an outer
    # entry: swap5 against its moved copy, and two whose congruence
    # invariants all agree, refuted by listing every candidate
    "swap5": module(
        "fp:5", '[[["0","4","4"],["3","4","1"],["1","2","4"]],[["0","3","1"],["4","4","2"],["4","1","4"]]]', SWAP
    ),
    "swap5_moved": module(
        "fp:5", '[[["3","2","0"],["3","2","3"],["4","0","2"]],[["3","3","4"],["2","2","0"],["0","3","2"]]]', SWAP
    ),
    "swap5_b": module(
        "fp:5", '[[["4","2","1"],["2","4","1"],["0","4","1"]],[["4","2","0"],["2","4","4"],["1","1","1"]]]', SWAP
    ),
    "swap5_c": module(
        "fp:5", '[[["0","2","0"],["2","3","0"],["1","3","2"]],[["0","2","1"],["2","3","3"],["0","0","2"]]]', SWAP
    ),
    # e2 is in the kernel, so the line e2 certifies instability with mu = -2
    "kernel_f3": module("fp:3", '[[["1","0"],["0","0"]]]'),
    # the fixture's form against the weights (2, -1, -1): mu = 1, from its
    # first nonzero block, e1 against e3
    "weighted": module(
        "rational",
        FIXTURE_FORM,
        extra=',"lambda":{"pieces":[{"basis":[["1","0","0"]],"weight":2},'
        '{"basis":[["0","1","0"],["0","0","1"]],"weight":-1}]}',
    ),
    # x^2 + 3xy + 2y^2 has the isotropic line (1, -1), a balanced lift at 3;
    # 2 divides a denominator and is skipped
    "rational_line": module("rational", '[[["1","3/2"],["3/2","2"]]]'),
    # the standard symplectic F_3^4: 40 lines and 40 Lagrangian planes
    "symplectic_f3": module(
        "fp:3", '[[["0","0","1","0"],["0","0","0","1"],["2","0","0","0"],["0","2","0","0"]]]', sign="-1"
    ),
    # a swap module over QQ whose dim-2 witness is a balanced lift at 5
    "swapped_qq": module(
        "rational",
        '[[["3","0","-1","2"],["3","2","3","-1"],["2","4","0","2"],["0","2","1","0"]],'
        '[["3","3","2","0"],["0","2","4","2"],["-1","3","0","1"],["2","-1","2","0"]]]',
        SWAP,
    ),
    # forms that are not symmetric, so each run's linear coefficient needs
    # both the last row and the last column of a form: 37 totally isotropic
    # subspaces, and the line (1, 1, 4, 3) certifies instability
    "nonsymmetric_f5": module(
        "fp:5",
        '[[["4","4","1","1"],["0","2","3","2"],["1","0","3","4"],["4","3","3","2"]],'
        '[["4","0","1","4"],["4","2","0","3"],["1","3","3","3"],["1","2","4","2"]]]',
        SWAP,
    ),
    # every point of every plane is isotropic, so each plane is kept whole
    "zero_f3": zero_module(3, 3),
    # the largest enumeration tracked
    "zero_f23": zero_module(23, 4),
    # every row isotropic: refused by the scan budget, with no list of results held
    "zero_f2_12": zero_module(2, 12),
    # the fixture's form over F_3: gr peels the line e1 and leaves a dim-1 core
    "levelled": module("fp:3", FIXTURE_FORM),
    # two forms that differ: gr peels two lines, each level's pairing read
    # off the scan's images B_k u_j in the layout j * dim W + k
    "two_level": module(
        "fp:3",
        '[[["1","0","0","2"],["1","0","0","1"],["2","1","1","1"],["2","2","0","0"]],'
        '[["1","1","2","2"],["0","0","1","2"],["0","0","1","0"],["2","1","1","0"]]]',
        SWAP,
    ),
    # strictly semistable over QQ, and its act(g, .) for
    # g = [[-1, -2, 2], [-2, -2, -2], [0, -2, 1]]: the moved copy's witness
    # has denominators, so its grading keeps an uncertified core
    "semistable_qq": module(
        "rational",
        '[[["0","-1","0"],["0","0","-1"],["-1","0","-1"]],[["0","0","1"],["1","0","0"],["0","1","1"]]]',
        SWAP,
        "-1",
    ),
    "semistable_qq_moved": module(
        "rational",
        '[[["3/25","7/50","-14/25"],["1/25","-3/25","-1/50"],["1/25","-3/25","12/25"]],'
        '[["-3/25","-1/25","-1/25"],["-7/50","3/25","3/25"],["14/25","1/50","-12/25"]]]',
        SWAP,
        "-1",
    ),
    # a semistable swap module on F_3^6: no option bounds dim H
    "stable6": module(
        "fp:3",
        '[[["2","2","0","0","2","0"],["1","0","0","1","2","1"],["0","1","2","0","0","2"],'
        '["2","0","2","0","1","2"],["1","2","0","2","1","0"],["2","0","1","0","2","2"]],'
        '[["2","1","0","2","1","2"],["2","0","1","0","2","0"],["0","0","2","2","0","1"],'
        '["0","1","0","0","2","0"],["2","2","0","1","1","2"],["0","1","2","2","0","2"]]]',
        SWAP,
    ),
    # the standard symplectic F_3^8, refused by the scan budget
    "symplectic_f3_8": module(
        "fp:3",
        '[[["0","0","0","0","1","0","0","0"],["0","0","0","0","0","1","0","0"],'
        '["0","0","0","0","0","0","1","0"],["0","0","0","0","0","0","0","1"],'
        '["2","0","0","0","0","0","0","0"],["0","2","0","0","0","0","0","0"],'
        '["0","0","2","0","0","0","0","0"],["0","0","0","2","0","0","0","0"]]]',
        sign="-1",
    ),
    # check calls the zero module stable, but it has no graded module
    "zero": module("fp:3", "[[]]"),
    # B = [[0, 1], [0, 0]] over F_5 is not symmetric: the module's constructor refuses it
    "symmetry_broken": module("fp:5", '[[["0","1"],["0","0"]]]'),
}

# outputs that more than one row prints
FIBER_F3_ALTERNATING = (
    '{"case":"alternating","r":2,"field":"fp:3","fixed_count":24,"image_count":24,"kernel_count":1,'
    '"kernel_dim":0,"checks":{"closure":true,"inverses":true,"projection":true,"kernel":true,"counts":true},'
    '"ok":true}\n'
)
GRADED_FIXTURE = module("rational", '[[["0","0","1"],["0","1","0"],["1","0","0"]]]')
YES, NO = '{"s_equivalent":"yes"}\n', '{"s_equivalent":"no"}\n'
STABLE_FP = '{"status":"stable","provenance":{"kind":"exhaustive","primes":[]},"mu":null}\n'
HUGE_RANK = "error: fiber enumeration over F_3 at size 100000 exceeds 1000000 pairs\n"
NO_ENUM_BOUND = "error: unrecognized arguments: --enum-bound 4\n"
NO_GRADING = "error: a graded module needs dim H >= 1, not 0\n"

CASES = {
    # the plus fiber is SO_2(F_q) times its q^2 traceless symmetric eps-parts
    "fiber-f2-plus": Case(
        "fiber --field fp:2 --case plus -r 2",
        out='{"case":"plus","r":2,"field":"fp:2","fixed_count":8,"image_count":2,"kernel_count":4,"kernel_dim":2,'
        '"checks":{"closure":true,"inverses":true,"projection":true,"kernel":true,"counts":true},"ok":true}\n',
    ),
    "fiber-f3-plus": Case(
        "fiber --field fp:3 --case plus -r 2",
        out='{"case":"plus","r":2,"field":"fp:3","fixed_count":36,"image_count":4,"kernel_count":9,"kernel_dim":2,'
        '"checks":{"closure":true,"inverses":true,"projection":true,"kernel":true,"counts":true},"ok":true}\n',
    ),
    # Sp_2(F_3) = SL_2(F_3) over a zero kernel, since q is odd
    "fiber-f3-alternating": Case("fiber --field fp:3 --case alternating -r 2", out=FIBER_F3_ALTERNATING),
    "fiber-f3-standard-twist": Case(
        "fiber --field fp:3 --case alternating -r 2 --twist {j3}", out=FIBER_F3_ALTERNATING
    ),
    "fiber-f3-twist-over-f5": Case(
        "fiber --field fp:3 --case alternating -r 2 --twist {j5}",
        code=1,
        err="error: twist matrix lives over another field\n",
    ),
    # |SL_2(F_q)|, reached through two determinants per invertible matrix
    "fiber-f2-unramified": Case(
        "fiber --field fp:2 --case unramified -r 2",
        out='{"case":"unramified","r":2,"field":"fp:2","fixed_count":6}\n',
    ),
    "fiber-f3-unramified": Case(
        "fiber --field fp:3 --case unramified -r 2",
        out='{"case":"unramified","r":2,"field":"fp:3","fixed_count":24}\n',
    ),
    # a huge rank is refused from the exponent 2 r^2 alone, in every case
    "fiber-huge-rank-plus": Case("fiber --field fp:3 --case plus -r 100000", code=1, err=HUGE_RANK),
    "fiber-huge-rank-unramified": Case("fiber --field fp:3 --case unramified -r 100000", code=1, err=HUGE_RANK),
    "fiber-huge-rank-alternating": Case("fiber --field fp:3 --case alternating -r 100000", code=1, err=HUGE_RANK),
    # 3^18 pairs, past the constant bound, which no option sets
    "fiber-f3-rank-3": Case(
        "fiber --field fp:3 --case plus -r 3",
        code=1,
        err="error: fiber enumeration over F_3 at size 3 exceeds 1000000 pairs\n",
    ),
    "fiber-max-pairs": Case(
        "fiber --field fp:3 --case plus -r 3 --max-pairs 400000000",
        code=1,
        err="error: unrecognized arguments: --max-pairs 400000000\n",
    ),
    "pfaffian-j2": Case("pfaffian {j2}", out='{"pfaffian":"1"}\n'),
    "pfaffian-j2-f2": Case("pfaffian {j2_f2}", out='{"pfaffian":"1"}\n'),
    "pfaffian-pivot-swap": Case("pfaffian {pivot_swap}", out='{"pfaffian":"2"}\n'),
    "pfaffian-fractional": Case("pfaffian {fractional}", out='{"pfaffian":"3/28"}\n'),
    "pfaffian-symmetric": Case("pfaffian {symmetric}", code=1, err="error: matrix is not alternating\n"),
    "check-fixture": Case(
        "check {fixture}",
        out='{"status":"strictly_semistable","certificate":{"V":[["1","0","0"]],'
        '"lambda":{"pieces":[{"basis":[["1","0","0"]],"weight":3},{"basis":[["0","1","0"]],"weight":0},'
        '{"basis":[["0","0","1"]],"weight":-3}]}},"provenance":{"kind":"heuristic","primes":[2,3,5,7,11,13]},'
        '"mu":0}\n',
    ),
    "check-hyperbolic": Case(
        "check {hyperbolic}",
        out='{"status":"strictly_semistable","certificate":{"V":[["1","0"]],'
        '"lambda":{"pieces":[{"basis":[["1","0"]],"weight":2},{"basis":[["0","1"]],"weight":-2}]}},'
        '"provenance":{"kind":"heuristic","primes":[2,3,5,7,11,13]},"mu":0}\n',
    ),
    "check-kernel-f3": Case(
        "check {kernel_f3}",
        out='{"status":"unstable","certificate":{"V":[["0","1"]],'
        '"lambda":{"pieces":[{"basis":[["0","1"]],"weight":1},{"basis":[["1","0"]],"weight":-1}]}},'
        '"provenance":{"kind":"exhaustive","primes":[]},"mu":-2}\n',
    ),
    "check-rational-line": Case(
        "check {rational_line}",
        out='{"status":"strictly_semistable","certificate":{"V":[["1","-1"]],'
        '"lambda":{"pieces":[{"basis":[["1","-1"]],"weight":2},{"basis":[["1","0"]],"weight":-2}]}},'
        '"provenance":{"kind":"heuristic","primes":[3,5,7,11,13]},"mu":0}\n',
    ),
    "check-nonsymmetric-f5": Case(
        "check {nonsymmetric_f5}",
        out='{"status":"unstable","certificate":{"V":[["1","1","4","3"]],'
        '"lambda":{"pieces":[{"basis":[["1","1","4","3"]],"weight":3},'
        '{"basis":[["1","0","0","0"],["0","1","0","0"],["0","0","1","0"]],"weight":-1}]}},'
        '"provenance":{"kind":"exhaustive","primes":[]},"mu":-2}\n',
    ),
    "check-swapped-qq": Case(
        "check {swapped_qq}",
        out='{"status":"strictly_semistable","certificate":{"V":[["1","0","-1","2"],["0","1","0","-2"]],'
        '"lambda":{"pieces":[{"basis":[["1","0","-1","2"],["0","1","0","-2"]],"weight":4},'
        '{"basis":[["1","0","0","0"],["0","1","0","0"]],"weight":-4}]}},'
        '"provenance":{"kind":"heuristic","primes":[2,3,5,7,11,13]},"mu":0}\n',
    ),
    # a stable F_p check certifies nothing
    "check-anisotropic-f3": Case("check {anisotropic_f3}", out=STABLE_FP),
    "check-stable6": Case("check {stable6}", out=STABLE_FP),
    "check-enum-bound": Case("check {hyperbolic_f3} --enum-bound 4", code=1, err=NO_ENUM_BOUND),
    "check-stable6-enum-bound": Case("check {stable6} --enum-bound 4", code=1, err=NO_ENUM_BOUND),
    "check-symmetry-broken": Case("check {symmetry_broken}", code=1, err="error: symmetry relation violated\n"),
    "check-zero": Case("check {zero}", out=STABLE_FP),
    "weight-fixture": Case("weight {fixture}", out='{"mu":0}\n'),
    "weight-subspace": Case("weight {hyperbolic_line}", out='{"mu":0}\n'),
    "weight-weighted": Case("weight {weighted}", out='{"mu":1}\n'),
    "weight-bare": Case(
        "weight {hyperbolic}", code=1, err="error: the weight command needs a 'lambda' or 'subspace' attachment\n"
    ),
    "limit-fixture": Case("limit {fixture}", out=GRADED_FIXTURE + "\n"),
    "limit-diverging": Case("limit {diverging}", out='{"diverges":true}\n'),
    "gr-fixture": Case(
        "gr {fixture}",
        out='{"filtration":[[["1","0","0"]]],"lambda":{"pieces":[{"basis":[["1","0","0"]],"weight":1},'
        '{"basis":[["0","1","0"]],"weight":0},{"basis":[["0","0","1"]],"weight":-1}]},"pieces":[[[["1"]]]],'
        '"core":' + module("rational", '[[["1"]]]') + ',"assembled":' + GRADED_FIXTURE + ','
        '"transform":[["1","0","0"],["0","1","0"],["0","0","1"]]}\n',
    ),
    "gr-enum-bound": Case("gr {hyperbolic_f3} --enum-bound 4", code=1, err=NO_ENUM_BOUND),
    "gr-zero": Case("gr {zero}", code=1, err=NO_GRADING),
    "gr-levelled": Case(
        "gr {levelled}", out=Digest("f502b4ed40c7e170012c9b507157c74d2566970e61b46bfa0c88ed256ff0f05f", 483)
    ),
    # one level, the dim-2 balanced lift at 5, leaving a dim-0 core
    "gr-swapped-qq": Case(
        "gr {swapped_qq}", out=Digest("957ba607cf63655c23454d4c82dd15df3cdce8f02f12b93e9db0c0516db0961e", 731)
    ),
    "gr-two-level": Case(
        "gr {two_level}", out=Digest("7a8444ee35947cc21ccd1178fc1606690f03a4541433e17de005129e883f5611", 765)
    ),
    "sequiv-fixture-itself": Case("sequiv {fixture} {fixture}", out=YES),
    "sequiv-fixture-hyperbolic": Case("sequiv {fixture} {hyperbolic}", out=NO),
    "sequiv-zero": Case("sequiv {zero} {zero}", code=1, err=NO_GRADING),
    "sequiv-form7-other": Case("sequiv {form7} {form7_other}", out=NO),
    "sequiv-form7-moved": Case("sequiv {form7} {form7_moved}", out=YES),
    "sequiv-swap3-moved": Case("sequiv {swap3} {swap3_moved}", out=YES),
    "sequiv-swap3-diag": Case("sequiv {swap3} {swap3_diag}", out=NO),
    "sequiv-swap5-moved": Case("sequiv {swap5} {swap5_moved}", out=YES),
    "sequiv-swap5-refuted": Case("sequiv {swap5_b} {swap5_c}", out=NO),
    # the inputs are isomorphic, but only the gradings are compared, and they differ
    "sequiv-semistable-qq": Case(
        "sequiv {semistable_qq} {semistable_qq_moved}", out='{"s_equivalent":"unknown"}\n'
    ),
    "enumerate-enum-bound": Case("enumerate {hyperbolic_f3} --enum-bound 4", code=1, err=NO_ENUM_BOUND),
    "enumerate-symplectic-f3": Case(
        "enumerate {symplectic_f3}",
        out=Digest("a3dc92048bf327f56937d4f123af9b854bbd3486a9a3f8057f762cd9911dd914", 2347),
    ),
    "enumerate-nonsymmetric-f5": Case(
        "enumerate {nonsymmetric_f5}",
        out=Digest("2ed6d651f74ba52249c6f5f8f613b61af1aa21ef5917cef460db669c6cd3a855", 875),
    ),
    # all 27 subspaces of every dim
    "enumerate-zero-f3": Case(
        "enumerate {zero_f3}", out=Digest("fda400ed0d5d9bace113f1d4be88fd25496c057dd22e667a995efd49710ebabf", 669)
    ),
    # about 3 s at about 21 MB peak
    "enumerate-zero-f23": Case(
        "enumerate {zero_f23}",
        out=Digest("2c7e8129921302adb2cfe39b9b9b0d928ac5daa10d7b6c170f4a8e5a53997449", 12801253),
        slow=True,
        cap_mib=256,
    ),
    "enumerate-symplectic-f3-8": Case(
        "enumerate {symplectic_f3_8}",
        code=1,
        err="error: the isotropic search of F_3^8 exceeds 4000000 candidate rows at dim 3\n",
        slow=True,
    ),
    # enumerate counts its stream before it writes, so the cap holds
    "enumerate-zero-f2-12": Case(
        "enumerate {zero_f2_12}",
        code=1,
        err="error: the isotropic search of F_2^12 exceeds 4000000 candidate rows at dim 3\n",
        slow=True,
        cap_mib=1024,
    ),
    # help and usage errors come from argparse
    "help": Case("--help", out=re.compile(r"usage: twistmod .*", re.S)),
    "check-help": Case("check --help", out=re.compile(r"usage: twistmod check .*", re.S)),
    "unknown-command": Case(
        "bogus", code=1, err=re.compile(r"error: argument command: invalid choice: 'bogus' \(choose from .*\)\n")
    ),
    "bad-rank": Case(
        "fiber --field fp:3 --case plus -r x", code=1, err="error: argument --rank/-r: invalid int value: 'x'\n"
    ),
}


def write_files(directory) -> dict:
    """Write every input file into directory; its path by name."""
    paths = {name: Path(directory) / f"{name}.json" for name in FILES}
    for name, path in paths.items():
        path.write_text(FILES[name], encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


def command_line(case: Case, paths: dict) -> list:
    return [arg.format(**paths) for arg in case.line.split()]


def _differs(expected, got: bytes) -> bool:
    if isinstance(expected, str):
        return got != expected.encode()
    if isinstance(expected, Digest):
        return (hashlib.sha256(got).hexdigest(), len(got)) != expected
    return expected.fullmatch(got.decode(errors="replace")) is None


def mismatch(case: Case, code: int, out: bytes, err: bytes) -> Optional[str]:
    """What in one run differs from its row, or None."""
    wrong = [
        f"{stream} {got[:200]!r}"
        for stream, expected, got in (("out", case.out, out), ("err", case.err, err))
        if _differs(expected, got)
    ]
    if code != case.code:
        wrong.insert(0, f"exit {code}, not {case.code}")
    return "; ".join(wrong) or None


def run(case: Case, command: list, paths: dict) -> Optional[str]:
    """Run one row in a fresh process; what differs from the row, or None."""

    def cap():
        limit = case.cap_mib << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    try:
        child = subprocess.run(
            command + command_line(case, paths),
            capture_output=True,
            timeout=120,
            preexec_fn=cap if case.cap_mib else None,
        )
    except subprocess.TimeoutExpired:
        return "no exit within 120 s"
    except OSError as exc:
        return f"not started: {exc}"
    return mismatch(case, child.returncode, child.stdout, child.stderr)


def main() -> int:
    script = shutil.which("twistmod")
    if script is None:
        print("no twistmod on PATH")
        return 1
    failed = 0
    with tempfile.TemporaryDirectory() as directory:
        paths = write_files(directory)
        for name, case in CASES.items():
            wrong = run(case, [script], paths)
            if wrong:
                failed += 1
                print(f"{name}: {wrong}")
    print(f"{len(CASES)} cases, {failed} failed")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
