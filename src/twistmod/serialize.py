"""Canonical JSON encoding for modules, subgroups, verdicts and reports.

Matrices are arrays of arrays of strings (rationals as "a/b" or "a",
prime-field elements as their canonical representatives), fields are
tagged "rational" or "fp:<p>".  Encoders emit dicts with a fixed key
order and :func:`to_json` renders them compactly, so identical inputs
always produce identical bytes.  Decoders validate structure first and
mathematics second, and every failure is a ParseError naming the first
violated requirement.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, NamedTuple

from .errors import FieldError, ParseError, ShapeError, StabilityError, UsageError
from .linalg import Matrix, Subspace, _over_lcm, field_from_name, field_name

if TYPE_CHECKING:
    from .dualnum import FiberReport
    from .hilbert import OneParamSubgroup
    from .sigmamod import SigmaModule
    from .stability import Filtration, GradedModule, Provenance, Verdict


def to_json(payload) -> str:
    """Compact, key-order-preserving rendering; the one true byte form."""
    return json.dumps(payload, separators=(",", ":"))


# -- plain matrices ------------------------------------------------------------


def rows_to_lists(field, rows, den: int = 1, names: dict | None = None) -> list:
    """Int rows over ``den`` as lists of the field's literals.  A caller
    that writes many rows over one ``den`` passes the same ``names`` dict
    to each call, so that each value is named by one shared string; only
    the values that occur are named."""
    fmt = field._format
    names = {} if names is None else names
    return [[names.get(x) or names.setdefault(x, fmt(x, den)) for x in row] for row in rows]


def matrix_to_lists(m: Matrix) -> list:
    return rows_to_lists(m.field, m.num, m.den)


def matrix_from_lists(field, data, what: str = "matrix") -> Matrix:
    if not isinstance(data, list) or any(not isinstance(row, list) for row in data):
        raise ParseError(f"{what} must be an array of arrays")
    if any(not isinstance(cell, str) for row in data for cell in row):
        raise ParseError(f"{what} entries must be strings")
    # each cell is read as a pair (n, d); the trusted constructor takes them
    # and reduces a literal such as "2/4"
    rows = [[field._parse(cell) for cell in row] for row in data]
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ParseError(f"{what}: ragged rows")
    num, den = _over_lcm(rows)
    return Matrix._from_rows(field, num, width, den)


def _expect_int(obj, key: str):
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{key!r} must be an integer")
    return value


def _expect_dict(value, what: str):
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be an object")
    return value


# -- modules -------------------------------------------------------------------


def module_to_dict(q: SigmaModule) -> dict:
    return {
        "field": field_name(q.field),
        "sign": "+1" if q.sign == 1 else "-1",
        "dim_h": q.dim_h,
        "w": {
            "dim": q.dim_w,
            "involution": matrix_to_lists(q.w.matrix),
        },
        "forms": [matrix_to_lists(b) for b in q.forms],
    }


def module_from_dict(obj) -> SigmaModule:
    """Structural and mathematical validation, in that order.

    The first violated requirement wins: shape problems are reported
    before the involution square, which is reported before the symmetry
    relation.
    """
    from .sigmamod import InvolutionSpace, SigmaModule

    obj = _expect_dict(obj, "module")
    for key in ("field", "sign", "dim_h", "w", "forms"):
        if key not in obj:
            raise ParseError(f"module is missing {key!r}")
    if not isinstance(obj["field"], str):
        raise ParseError("'field' must be a string tag")
    field = field_from_name(obj["field"])
    if obj["sign"] not in ("+1", "-1"):
        raise ParseError("'sign' must be \"+1\" or \"-1\"")
    sign = 1 if obj["sign"] == "+1" else -1
    dim_h = _expect_int(obj, "dim_h")
    wobj = _expect_dict(obj["w"], "'w'")
    wdim = _expect_int(wobj, "dim")
    s = matrix_from_lists(field, wobj.get("involution"), what="involution")
    if s.shape != (wdim, wdim):
        raise ParseError("involution shape disagrees with 'w.dim'")
    try:
        w = InvolutionSpace(field, s)
    except ShapeError as exc:
        raise ParseError(str(exc)) from exc
    if not isinstance(obj["forms"], list):
        raise ParseError("'forms' must be an array")
    forms = [
        matrix_from_lists(field, entry, what=f"forms[{k}]")
        for k, entry in enumerate(obj["forms"])
    ]
    try:
        return SigmaModule(field, dim_h, w, sign, forms)
    except (ShapeError, FieldError) as exc:
        raise ParseError(str(exc)) from exc
    except StabilityError as exc:
        raise ParseError("symmetry relation violated") from exc


# -- subspaces and one-parameter subgroups --------------------------------------


def subspace_to_lists(v: Subspace) -> list:
    if v.is_zero():
        raise UsageError("a zero subspace has no basis rows to serialize")
    return matrix_to_lists(v.basis)


def subspace_from_lists(field, ambient: int, data, what: str = "subspace") -> Subspace:
    basis = matrix_from_lists(field, data, what=what)
    if basis.nrows == 0 or basis.ncols != ambient:
        raise ParseError(f"{what} basis must be nonempty rows of width {ambient}")
    v = Subspace._span(field, ambient, basis.num)
    if v.dim != basis.nrows:
        raise ParseError(f"{what} basis rows are linearly dependent")
    return v


def subgroup_to_dict(lam: OneParamSubgroup) -> dict:
    return {
        "pieces": [
            {"basis": subspace_to_lists(sub), "weight": wt}
            for sub, wt in lam.pieces
        ]
    }


def subgroup_from_dict(field, ambient: int, obj) -> OneParamSubgroup:
    from .hilbert import OneParamSubgroup

    obj = _expect_dict(obj, "one-parameter subgroup")
    pieces = obj.get("pieces")
    if not isinstance(pieces, list) or not pieces:
        raise ParseError("'pieces' must be a nonempty array")
    built = []
    for k, piece in enumerate(pieces):
        piece = _expect_dict(piece, f"pieces[{k}]")
        weight = _expect_int(piece, "weight")
        sub = subspace_from_lists(
            field, ambient, piece.get("basis"), what=f"pieces[{k}].basis"
        )
        built.append((sub, weight))
    try:
        return OneParamSubgroup(built)
    except ShapeError as exc:
        raise ParseError(str(exc)) from exc


# -- verdicts and graded modules -------------------------------------------------


def mu_to_json(value):
    # a verdict without a certificate has no weight, and loads no hilbert
    if value is None:
        return None
    from .hilbert import MINUS_INFINITY

    if value is MINUS_INFINITY:
        return "-infinity"
    return int(value)


def provenance_to_dict(prov: Provenance) -> dict:
    return {"kind": prov.kind, "primes": list(prov.primes)}


def verdict_to_dict(verdict: Verdict) -> dict:
    out: dict = {"status": verdict.status}
    if verdict.certificate is not None:
        v, lam = verdict.certificate
        out["certificate"] = {
            "V": subspace_to_lists(v),
            "lambda": subgroup_to_dict(lam),
        }
    out["provenance"] = provenance_to_dict(verdict.provenance)
    out["mu"] = mu_to_json(verdict.mu_value)
    return out


def filtration_to_lists(filtration: Filtration) -> list:
    return [subspace_to_lists(v) for v in filtration.chain]


def graded_to_dict(g: GradedModule) -> dict:
    return {
        "filtration": filtration_to_lists(g.filtration),
        "lambda": subgroup_to_dict(g.canonical_1ps),
        "pieces": [
            [matrix_to_lists(a) for a in piece.alpha] for piece in g.pieces
        ],
        "core": module_to_dict(g.core),
        "assembled": module_to_dict(g.assembled),
        "transform": matrix_to_lists(g.transform),
    }


def fiber_report_to_dict(report: FiberReport) -> dict:
    return {
        "case": report.case,
        "r": report.r,
        "field": f"fp:{report.field_order}",
        "fixed_count": report.fixed_count,
        "image_count": report.image_count,
        "kernel_count": report.kernel_count,
        "kernel_dim": report.kernel_dim,
        "checks": {
            "closure": report.closure_ok,
            "inverses": report.inverses_ok,
            "projection": report.projection_ok,
            "kernel": report.kernel_ok,
            "counts": report.count_ok,
        },
        "ok": report.ok,
    }


# -- bare matrix files -------------------------------------------------------------


def _load_json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad syntax and integers past int()'s digit
        # limit; the decoder recurses once per level of nesting
        raise ParseError(f"malformed JSON: {exc}") from exc


def parse_matrix_file(text: str) -> Matrix:
    obj = _expect_dict(_load_json(text), "matrix file")
    for key in ("field", "matrix"):
        if key not in obj:
            raise ParseError(f"matrix file is missing {key!r}")
    if not isinstance(obj["field"], str):
        raise ParseError("'field' must be a string tag")
    field = field_from_name(obj["field"])
    return matrix_from_lists(field, obj["matrix"])


# -- module files ----------------------------------------------------------------


class ModuleFile(NamedTuple):
    """A module plus the optional attachments a command may need."""

    module: SigmaModule
    subgroup: OneParamSubgroup | None
    subspace: Subspace | None


def module_file_to_dict(
    q: SigmaModule,
    lam: OneParamSubgroup | None = None,
    subspace: Subspace | None = None,
) -> dict:
    out = module_to_dict(q)
    if lam is not None:
        out["lambda"] = subgroup_to_dict(lam)
    if subspace is not None:
        out["subspace"] = subspace_to_lists(subspace)
    return out


def parse_module_file(text: str) -> ModuleFile:
    obj = _load_json(text)
    q = module_from_dict(obj)
    lam = None
    if "lambda" in obj:
        lam = subgroup_from_dict(q.field, q.dim_h, obj["lambda"])
    subspace = None
    if "subspace" in obj:
        subspace = subspace_from_lists(q.field, q.dim_h, obj["subspace"])
    return ModuleFile(q, lam, subspace)
