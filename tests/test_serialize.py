"""Canonical JSON round trips and golden byte strings."""

import json
import random
from fractions import Fraction

import pytest

from twistmod.errors import ParseError, ShapeError, UsageError
from twistmod.hilbert import MINUS_INFINITY, OneParamSubgroup
from twistmod.linalg import GF, QQ, Matrix, Subspace
from twistmod.sigmamod import InvolutionSpace, SigmaModule, symmetrize
from twistmod.stability import Provenance, Verdict, graded, semistability_verdict
from twistmod.dualnum import TypeVector, fiber_structure_check
from twistmod.serialize import (
    ModuleFile,
    fiber_report_to_dict,
    graded_to_dict,
    matrix_from_lists,
    matrix_to_lists,
    module_file_to_dict,
    module_from_dict,
    module_to_dict,
    parse_module_file,
    subgroup_from_dict,
    subgroup_to_dict,
    subspace_from_lists,
    subspace_to_lists,
    to_json,
    verdict_to_dict,
)

HYPERBOLIC_JSON = (
    '{"field":"rational","sign":"+1","dim_h":2,'
    '"w":{"dim":1,"involution":[["1"]]},'
    '"forms":[[["0","1"],["1","0"]]]}'
)


def trivial_w(field):
    return InvolutionSpace.trivial(field)


def swap_w(field):
    return InvolutionSpace(field, Matrix(field, [[0, 1], [1, 0]]))


def hyperbolic_module(field=QQ):
    b = Matrix(field, [[0, 1], [1, 0]])
    return SigmaModule(field, 2, trivial_w(field), 1, [b])


def random_module(rng, field, dim_h, w, sign):
    def rand_entry():
        if field.kind == "fp":
            return rng.randrange(field.p)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    raw = [
        Matrix(field, [[rand_entry() for _ in range(dim_h)] for _ in range(dim_h)])
        for _ in range(w.dim)
    ]
    return symmetrize(field, dim_h, w, sign, raw)


def test_matrix_encoding_round_trip():
    m = Matrix(QQ, [[Fraction(-1, 2), Fraction(3)], [Fraction(0), Fraction(7, 5)]])
    data = matrix_to_lists(m)
    assert data == [["-1/2", "3"], ["0", "7/5"]]
    assert matrix_from_lists(QQ, data) == m

    f3 = GF(3)
    m3 = Matrix(f3, [[0, 1], [2, 1]])
    assert matrix_to_lists(m3) == [["0", "1"], ["2", "1"]]
    assert matrix_from_lists(f3, [["0", "1"], ["2", "1"]]) == m3


def test_matrix_decoding_rejects_junk():
    with pytest.raises(ParseError):
        matrix_from_lists(QQ, "nope")
    with pytest.raises(ParseError):
        matrix_from_lists(QQ, [["1"], ["1", "2"]])  # ragged
    with pytest.raises(ParseError):
        matrix_from_lists(QQ, [[1, 2]])  # numbers, not strings
    with pytest.raises(ParseError):
        matrix_from_lists(QQ, [["1/0"]])
    # non-canonical residue representatives are rejected, not reduced
    with pytest.raises(ParseError):
        matrix_from_lists(GF(3), [["4"]])
    with pytest.raises(ParseError):
        matrix_from_lists(GF(3), [["-1"]])


def test_module_golden_bytes_and_round_trip():
    text = to_json(module_to_dict(hyperbolic_module()))
    assert text == HYPERBOLIC_JSON
    parsed = parse_module_file(text)
    assert isinstance(parsed, ModuleFile)
    assert parsed.module == hyperbolic_module()
    assert parsed.subgroup is None and parsed.subspace is None
    assert to_json(module_to_dict(parsed.module)) == text


def test_module_round_trip_is_byte_identical_on_random_modules():
    rng = random.Random(71)
    fields = [QQ, GF(3), GF(5)]
    for _ in range(24):
        field = rng.choice(fields)
        w = rng.choice([trivial_w(field), swap_w(field)])
        sign = rng.choice([1, -1])
        q = random_module(rng, field, rng.randint(1, 4), w, sign)
        text = to_json(module_to_dict(q))
        again = parse_module_file(text)
        assert again.module == q
        assert to_json(module_to_dict(again.module)) == text


def test_parse_diagnostics_name_the_first_violation():
    with pytest.raises(ParseError, match="malformed JSON"):
        parse_module_file("{not json")
    with pytest.raises(ParseError, match="missing 'sign'"):
        parse_module_file('{"field":"rational"}')
    with pytest.raises(ParseError, match="field tag"):
        parse_module_file(HYPERBOLIC_JSON.replace("rational", "real"))
    with pytest.raises(ParseError, match="sign"):
        parse_module_file(HYPERBOLIC_JSON.replace('"+1"', '"2"'))

    bad_involution = json.loads(HYPERBOLIC_JSON)
    bad_involution["w"]["involution"] = [["2"]]
    with pytest.raises(ParseError, match="involution not idempotent"):
        parse_module_file(to_json(bad_involution))

    asymmetric = json.loads(HYPERBOLIC_JSON)
    asymmetric["sign"] = "-1"
    with pytest.raises(ParseError, match="symmetry relation violated"):
        parse_module_file(to_json(asymmetric))

    wrong_shape = json.loads(HYPERBOLIC_JSON)
    wrong_shape["dim_h"] = 3
    with pytest.raises(ParseError):
        parse_module_file(to_json(wrong_shape))


def test_subspace_encoding():
    v = Subspace(QQ, 3, [[Fraction(0), Fraction(2), Fraction(0)]])
    data = subspace_to_lists(v)
    assert data == [["0", "1", "0"]]  # canonical echelon basis
    assert subspace_from_lists(QQ, 3, data) == v
    with pytest.raises(UsageError):
        subspace_to_lists(Subspace.zero(QQ, 3))
    with pytest.raises(ParseError):
        subspace_from_lists(QQ, 2, data)
    with pytest.raises(ParseError, match="dependent"):
        subspace_from_lists(QQ, 3, [["1", "0", "0"], ["2", "0", "0"]])


def test_subgroup_attachment_round_trip():
    lam = OneParamSubgroup.from_diagonal_weights(QQ, (1, 0, -1))
    obj = subgroup_to_dict(lam)
    assert subgroup_from_dict(QQ, 3, obj) == lam

    q = SigmaModule(
        QQ, 3, trivial_w(QQ), 1, [Matrix(QQ, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])]
    )
    v = Subspace(QQ, 3, [[QQ.one, QQ.zero, QQ.zero]])
    text = to_json(module_file_to_dict(q, lam=lam, subspace=v))
    parsed = parse_module_file(text)
    assert parsed.subgroup == lam
    assert parsed.subspace == v
    assert to_json(module_file_to_dict(*parsed)) == text

    with pytest.raises(ParseError, match="weight"):
        subgroup_from_dict(QQ, 3, {"pieces": [{"basis": [["1", "0", "0"]], "weight": "1"}]})
    with pytest.raises(ParseError):
        subgroup_from_dict(QQ, 3, {"pieces": []})
    # weighted dimensions must cancel
    with pytest.raises(ParseError):
        subgroup_from_dict(
            QQ,
            2,
            {
                "pieces": [
                    {"basis": [["1", "0"]], "weight": 1},
                    {"basis": [["0", "1"]], "weight": 1},
                ]
            },
        )


def test_a_bool_weight_is_refused_so_every_subgroup_round_trips():
    # True is an int to Python, but subgroup_to_dict would write it as
    # "weight":true, which subgroup_from_dict refuses; so the constructor
    # refuses it first, also beside an equal int weight that it would merge
    # with, and every subgroup it builds round-trips
    lines = [Subspace(QQ, 2, [[1, 0]]), Subspace(QQ, 2, [[0, 1]])]
    for pieces in ([(lines[0], True), (lines[1], -1)], [(lines[0], -1), (lines[1], True)]):
        with pytest.raises(ShapeError, match="^weights must be integers$"):
            OneParamSubgroup(pieces)
    for weights in ((True, 0, -1), (1, True, -2), (False, 0)):
        with pytest.raises(ShapeError, match="^weights must be integers$"):
            OneParamSubgroup.from_diagonal_weights(QQ, weights)
    for field, weights in ((QQ, (1, 1, -2)), (GF(5), (2, 0, 0, -2)), (QQ, (0,))):
        lam = OneParamSubgroup.from_diagonal_weights(field, weights)
        assert all(type(weight) is int for weight in lam.weights)
        assert subgroup_from_dict(field, len(weights), json.loads(to_json(subgroup_to_dict(lam)))) == lam
    # a type vector's entries are the ints +1 and -1, so True is refused
    # there too, and so is 1.0
    for taus in ((True, -1), (1, True), (1.0, -1)):
        with pytest.raises(ShapeError, match="^type entries are \\+1 or -1$"):
            TypeVector(taus)


def test_verdict_golden_bytes():
    verdict = semistability_verdict(hyperbolic_module())
    assert to_json(verdict_to_dict(verdict)) == (
        '{"status":"strictly_semistable",'
        '"certificate":{"V":[["1","0"]],'
        '"lambda":{"pieces":[{"basis":[["1","0"]],"weight":2},'
        '{"basis":[["0","1"]],"weight":-2}]}},'
        '"provenance":{"kind":"heuristic","primes":[2,3,5,7,11,13]},'
        '"mu":0}'
    )

    f3 = GF(3)
    zero = SigmaModule(f3, 2, trivial_w(f3), 1, [Matrix.zeros(f3, 2, 2)])
    out = verdict_to_dict(semistability_verdict(zero))
    assert out["status"] == "unstable"
    assert out["mu"] == "-infinity"
    assert out["provenance"] == {"kind": "exhaustive", "primes": []}

    bare = Verdict("no_destabilizer_found", Provenance("heuristic", (2, 3)))
    assert to_json(verdict_to_dict(bare)) == (
        '{"status":"no_destabilizer_found",'
        '"provenance":{"kind":"heuristic","primes":[2,3]},"mu":null}'
    )


def test_graded_golden_bytes():
    q = SigmaModule(
        QQ, 3, trivial_w(QQ), 1, [Matrix(QQ, [[0, 0, 1], [0, 1, 1], [1, 1, 1]])]
    )
    assert to_json(graded_to_dict(graded(q))) == (
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


def test_fiber_report_golden_bytes():
    report = fiber_structure_check(GF(3), 2, "plus")
    assert to_json(fiber_report_to_dict(report)) == (
        '{"case":"plus","r":2,"field":"fp:3",'
        '"fixed_count":36,"image_count":4,"kernel_count":9,"kernel_dim":2,'
        '"checks":{"closure":true,"inverses":true,"projection":true,'
        '"kernel":true,"counts":true},"ok":true}'
    )
