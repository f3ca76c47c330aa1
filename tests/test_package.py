"""The package namespace: every public name is exported lazily from the
module that defines it."""

import importlib

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
