"""The package namespace: every public name is exported lazily from the
module that defines it."""

import importlib
import subprocess
import sys

import pytest

import twistmod


def test_every_public_name_resolves_to_its_home_module():
    assert len(set(twistmod.__all__)) == len(twistmod.__all__)
    for name in twistmod.__all__:
        home = importlib.import_module(f"twistmod.{twistmod._HOME[name]}")
        value = getattr(twistmod, name)
        assert value is getattr(home, name)
        # classes and functions are defined there, not re-exported from elsewhere
        defined_in = getattr(value, "__module__", None) or ""
        if defined_in.startswith("twistmod"):
            assert defined_in == home.__name__, name
        # the first lookup caches the value in the package namespace
        assert vars(twistmod)[name] is value
    namespace = {}
    exec("from twistmod import *", namespace)
    for name in twistmod.__all__:
        assert namespace[name] is getattr(twistmod, name)


def test_no_public_search_takes_a_size_budget():
    # each search bound is one module constant, read at call time; the
    # prime list of a stability entry point is keyword-only, so a stale
    # positional size bound, as in graded(q, 5), is a TypeError
    import inspect

    from twistmod import dualnum, sigmamod, stability

    parameters = {
        stability.enumerate_totally_isotropic: ["q"],
        stability.semistability_verdict: ["q", "primes"],
        stability.iso_filtration: ["q", "primes"],
        stability.graded: ["q", "primes"],
        stability.s_equivalent: ["q1", "q2", "primes"],
        stability.hilbert_mumford_sweep: ["q", "weight_bound"],
        sigmamod.is_isomorphic: ["q1", "q2"],
        dualnum.fiber_structure_check: ["field", "r", "case", "m"],
        dualnum.unramified_fixed_count: ["field", "r"],
    }
    for function, names in parameters.items():
        signature = inspect.signature(function).parameters
        assert list(signature) == names, function.__name__
        if "primes" in signature:
            assert signature["primes"].kind is inspect.Parameter.KEYWORD_ONLY, function.__name__
    assert stability._SCAN_BUDGET == 4_000_000
    # the sweep's walk draws on the scan budget; no bound of its own is left
    assert not hasattr(stability, "_MAX_SUBSPACE_PAIRS")
    assert sigmamod._NODE_BUDGET == 500_000
    assert dualnum._MAX_PAIRS == 1_000_000
    assert sigmamod.MAX_LINES == 100_000


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        twistmod.no_such_name
    # a module-level helper that is not public stays out of the namespace
    with pytest.raises(AttributeError):
        twistmod.dot
    with pytest.raises(ImportError):
        exec("from twistmod import no_such_name", {})


def record_examples():
    from twistmod import (
        GF,
        QQ,
        DualNumberMatrix,
        Filtration,
        GradedModule,
        IsoResult,
        LinearPiece,
        Matrix,
        Provenance,
        Verdict,
    )
    from twistmod.dualnum import fiber_structure_check

    one = Matrix.identity(QQ, 1)
    return [
        lambda: Provenance("heuristic", (2, 3)),
        lambda: Verdict("stable", Provenance("exhaustive")),
        lambda: Filtration(()),
        lambda: GradedModule((), None, None, Filtration(()), None, one),
        lambda: LinearPiece((one, one)),
        lambda: IsoResult("yes", one),
        lambda: DualNumberMatrix.identity(GF(3), 2),
        lambda: fiber_structure_check(GF(2), 2, "plus"),
    ]


@pytest.mark.parametrize("k", range(8))
def test_records_are_immutable_values(k):
    build = record_examples()[k]
    first, second = build(), build()
    assert first == second and first is not second
    assert hash(first) == hash(second)
    assert repr(first).startswith(type(first).__name__ + "(")
    with pytest.raises(AttributeError):
        setattr(first, first._fields[0], None)


def test_records_check_their_values_at_construction():
    from twistmod import GF, QQ, DualNumberMatrix, LinearPiece, Matrix, Provenance, ShapeError

    with pytest.raises(ValueError):
        Provenance("guessed")
    with pytest.raises(ValueError):
        Provenance("exhaustive", (2,))
    with pytest.raises(ValueError):
        Provenance("heuristic", (2,))._replace(kind="exhaustive")
    one, two = Matrix.identity(QQ, 1), Matrix.identity(QQ, 2)
    with pytest.raises(ShapeError):
        LinearPiece(())
    with pytest.raises(ShapeError):
        LinearPiece((one, two))
    with pytest.raises(ShapeError):
        LinearPiece((one,))._replace(alpha=(one, two))
    with pytest.raises(ShapeError):
        DualNumberMatrix(two, one)
    with pytest.raises(ShapeError):
        DualNumberMatrix(two, Matrix.identity(GF(3), 2))
    with pytest.raises(ShapeError):
        DualNumberMatrix(two, two)._replace(h=one)


# the README fixture over QQ, and the same form over F_3
RATIONAL_FIXTURE = (
    '{"field":"rational","sign":"+1","dim_h":3,"w":{"dim":1,"involution":[["1"]]},'
    '"forms":[[["0","0","1"],["0","1","1"],["1","1","1"]]]}'
)
F3_FIXTURE = RATIONAL_FIXTURE.replace('"rational"', '"fp:3"')
# an alternating QQ matrix with denominators, whose pfaffian is 3/28
RATIONAL_MATRIX = (
    '{"field":"rational","matrix":[["0","1/2","1/3","0"],["-1/2","0","0","3/4"],'
    '["-1/3","0","0","5/7"],["0","-3/4","-5/7","0"]]}'
)

NO_FRACTIONS = """
import importlib, pkgutil, sys
import twistmod
from twistmod import cli

def clean(what):
    loaded = [m for m in ("fractions", "decimal") if m in sys.modules]
    assert not loaded, (what, loaded)

f3, rational, matrix = sys.argv[1:]
for argv in (
    ["check", f3],
    ["enumerate", f3],
    ["fiber", "--field", "fp:3", "--case", "plus", "-r", "2"],
    ["check", rational],
    ["pfaffian", matrix],
):
    assert cli.main(argv) == 0, argv
    clean(argv)
for module in pkgutil.iter_modules(twistmod.__path__):
    importlib.import_module(f"twistmod.{module.name}")
clean("every module")
# the boundary refuses a float without importing fractions to test for a Fraction
from twistmod import QQ, FieldError, Matrix
try:
    Matrix(QQ, [[0.5]])
except FieldError:
    clean("a refused float")
else:
    raise AssertionError("a float entry was accepted")
print("clean")
"""


def test_no_command_loads_fractions_unless_it_needs_a_fraction(tmp_path):
    # fractions imports decimal, milliseconds of start-up per process; a
    # QQ matrix is held on ints, so neither an F_p command nor a rational
    # verdict nor a rational pfaffian loads them, and neither does
    # importing every module
    f3, rational = tmp_path / "f3.json", tmp_path / "rational.json"
    matrix = tmp_path / "matrix.json"
    f3.write_text(F3_FIXTURE, encoding="utf-8")
    rational.write_text(RATIONAL_FIXTURE, encoding="utf-8")
    matrix.write_text(RATIONAL_MATRIX, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", NO_FRACTIONS, str(f3), str(rational), str(matrix)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "clean"
