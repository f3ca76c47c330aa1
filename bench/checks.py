"""Correctness gate: goldens recorded from a known-good commit, plus
oracles that share no code with twistmod.

A job fails when it raises, when its output bytes differ from the
golden, or when an oracle disagrees.  One exception keeps an improved
rational heuristic from reading as a regression: where the golden
verdict over QQ is no_destabilizer_found, a certified verdict may
replace it once its weight is rechecked here.  Over QQ a "stable"
verdict always fails, since the heuristic may never claim it.
"""

from __future__ import annotations

import hashlib
import json
import os

import gen

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_path(workload):
    return os.path.join(GOLDEN_DIR, f"{workload}.json")


def load_goldens(workload, files):
    with open(golden_path(workload), encoding="utf-8") as fh:
        goldens = json.load(fh)
    if goldens["pool_digest"] != gen.pool_digest(files):
        raise SystemExit(
            f"bench: the {workload} inputs differ from the ones the goldens were recorded on"
        )
    return goldens["jobs"]


# -- oracles ------------------------------------------------------------------------


def symplectic_count(q):
    """Totally isotropic subspaces of a nondegenerate alternating form on
    F_q^4: every line, plus (q+1)(q^2+1) Lagrangian planes."""
    return (q**4 - 1) // (q - 1) + (q + 1) * (q * q + 1)


def sl2_order(q):
    return q * (q * q - 1)


SO2_ORDER = {2: 2, 3: 4}


def _nondegenerate_alternating_4(module):
    """p, when the module is alternating on F_p^4 with trivial sigma and an
    invertible form (so the closed-form count applies), else None."""
    if module["sign"] != "-1" or module["dim_h"] != 4 or module["w"]["dim"] != 1:
        return None
    if not module["field"].startswith("fp:"):
        return None
    p = int(module["field"][3:])
    form = [[int(x) for x in row] for row in module["forms"][0]]
    return p if gen.det(form, p) != 0 else None


def enumerate_oracle(module, count):
    p = _nondegenerate_alternating_4(module)
    if p is not None and count != symplectic_count(p):
        return f"count {count} != closed form {symplectic_count(p)} over F_{p}"
    return None


def fiber_oracle(report):
    q = int(report["field"][3:])
    case = report["case"]
    if case == "unramified":
        if report["fixed_count"] != sl2_order(q):
            return f"unramified fixed count {report['fixed_count']} != |SL_2(F_{q})|"
        return None
    if not report.get("ok"):
        return "fiber report is not ok"
    if case == "alternating" and report["image_count"] != sl2_order(q):
        return f"alternating image {report['image_count']} != |Sp_2(F_{q})|"
    if case == "plus":
        expected = (SO2_ORDER[q], q * q, SO2_ORDER[q] * q * q)
        got = (report["image_count"], report["kernel_count"], report["fixed_count"])
        if got != expected:
            return f"plus counts {got} != {expected}"
    return None


# -- verdicts over QQ ----------------------------------------------------------------


def rational_verdict_problem(golden_status, payload, module_file):
    """None when a QQ verdict that differs from its golden is acceptable;
    ``module_file`` is the parsed input of the job."""
    status = payload.get("status")
    if status == "stable":
        return "a heuristic verdict over QQ claimed stable"
    if golden_status != "no_destabilizer_found" or status not in (
        "unstable",
        "strictly_semistable",
    ):
        return "output differs from golden"
    from twistmod.hilbert import destabilizing_1ps, mu
    from twistmod.serialize import subspace_from_lists

    q = module_file.module
    v = subspace_from_lists(q.field, q.dim_h, payload["certificate"]["V"])
    value = mu(destabilizing_1ps(q, v), q)
    if status == "unstable" and not value < 0:
        return "claimed destabilizer has weight >= 0"
    if status == "strictly_semistable" and value != 0:
        return "claimed equality witness has nonzero weight"
    return None


def check_output(job, output, goldens, files, load_input):
    """None if the job's output is right, else the reason it is not.

    ``output`` is the payload bytes of a library job, or (exit code,
    stdout bytes) of a CLI job; ``load_input(input_id)`` parses an input
    with twistmod, needed only to recheck a changed QQ verdict.
    """
    golden = goldens.get(job["key"])
    if golden is None:
        return "no golden recorded for this job"
    if "argv" in job:
        rc, data = output
        if rc != golden["rc"]:
            return f"exit code {rc} != {golden['rc']}"
    else:
        data = output
    first = files[job["inputs"][0]] if job["inputs"] else None
    rational = first is not None and first.get("field") == "rational"
    verdict_kind = job["kind"] in ("verdict", "cli-check")
    payload = None
    if digest(data) != golden["sha256"]:
        if not (rational and verdict_kind):
            return "output differs from golden"
        payload = json.loads(data)
        problem = rational_verdict_problem(
            golden.get("status"), payload, load_input(job["inputs"][0])
        )
        if problem:
            return problem
    if rational and verdict_kind:
        payload = payload or json.loads(data)
        if payload.get("status") == "stable":
            return "a heuristic verdict over QQ claimed stable"
    if job["kind"] in ("enumerate", "cli-enumerate"):
        return enumerate_oracle(first, json.loads(data)["count"])
    if job["kind"] == "cli-fiber":
        return fiber_oracle(json.loads(data))
    return None
