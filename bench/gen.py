"""Seeded inputs for the three workloads.

Every workload draws its jobs from a fixed pool of inputs.  The pool is
built from constant seeds with the small exact helpers below, which
share no code with twistmod, so the program only ever sees the module
and matrix files written here.  Goldens cover every job a pool can
produce (see record_goldens.py), so any workload seed is checkable.

The workload seed fixes which pool inputs a run uses and in which order.
The number of jobs of each class (field, dim H, kind) is the same for
every seed, so runs with different seeds do the same mix of work.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
POOL_SEED = 20171115
POOL_SIZE = 8  # pool inputs per (field, dim, involution, sign) class

DEFAULT_PRIMES = None  # the library default, (2, 3, 5, 7, 11, 13)
SHORT_PRIMES = (2, 3)  # dim 4 over QQ with the default list costs 15-30 s a job

WORKED_FIXTURE = {
    "field": "rational",
    "sign": "+1",
    "dim_h": 3,
    "w": {"dim": 1, "involution": [["1"]]},
    "forms": [[["0", "0", "1"], ["0", "1", "1"], ["1", "1", "1"]]],
    "lambda": {
        "pieces": [
            {"basis": [["1", "0", "0"]], "weight": 1},
            {"basis": [["0", "1", "0"]], "weight": 0},
            {"basis": [["0", "0", "1"]], "weight": -1},
        ]
    },
}

# q = x^2 - 4y^2 has the totally isotropic line (2, 1); the heuristic
# misses it today (no_destabilizer_found), and the job stays in the mix.
HALF_INTEGER_FIXTURE = {
    "field": "rational",
    "sign": "+1",
    "dim_h": 2,
    "w": {"dim": 1, "involution": [["1"]]},
    "forms": [[["1", "0"], ["0", "-4"]]],
}


# -- exact arithmetic over QQ (p = 0) and F_p, independent of twistmod ---------


def _norm(x, p):
    return x % p if p else Fraction(x)


def mat_mul(a, b, p):
    cols = list(zip(*b))
    return [[_norm(sum(x * y for x, y in zip(row, col)), p) for col in cols] for row in a]


def transpose(a):
    return [list(r) for r in zip(*a)]


def det(a, p):
    """Determinant by elimination; modular inverses via Fermat over F_p."""
    m = [[_norm(x, p) for x in row] for row in a]
    n = len(m)
    result = _norm(1, p)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return _norm(0, p)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        inv = pow(m[c][c], p - 2, p) if p else 1 / m[c][c]
        result = _norm(result * m[c][c], p)
        for i in range(c + 1, n):
            f = _norm(m[i][c] * inv, p)
            m[i] = [_norm(x - f * y, p) for x, y in zip(m[i], m[c])]
    return _norm(result, p)


def _entry(rng, p, lo=-3, hi=3):
    return rng.randrange(p) if p else Fraction(rng.randint(lo, hi))


def _nonzero(rng, p):
    return rng.randrange(1, p) if p else Fraction(rng.choice((1, -1, 2, -2, 3)))


def random_matrix(rng, p, n, lo=-3, hi=3):
    return [[_entry(rng, p, lo, hi) for _ in range(n)] for _ in range(n)]


def random_invertible(rng, p, n):
    while True:
        g = random_matrix(rng, p, n, -2, 2)
        if det(g, p) != 0:
            return g


def _involution(swap):
    return [[0, 1], [1, 0]] if swap else [[1]]


def symmetrized(rng, p, n, swap, sign):
    """C_l + sign * sum_k S[l][k] C_k^T for random C, as in the README."""
    raw = [random_matrix(rng, p, n) for _ in range(2 if swap else 1)]
    twisted = [transpose(raw[1]), transpose(raw[0])] if swap else [transpose(raw[0])]
    return [
        [[_norm(x + sign * y, p) for x, y in zip(r, t)] for r, t in zip(c, tw)]
        for c, tw in zip(raw, twisted)
    ]


def semistable_forms(rng, p, n, swap):
    """A hyperbolic plane plus a nondegenerate symmetric core, moved by a
    random invertible g: semistable by construction (sign +1)."""
    a, b = _nonzero(rng, p), _nonzero(rng, p)
    while True:
        core = random_matrix(rng, p, n - 2)
        for i in range(n - 2):
            for j in range(i):
                core[i][j] = core[j][i]
        if n == 2 or det(core, p) != 0:
            break
    blocks = [((0, b), (a, 0)), ((0, a), (b, 0))] if swap else [((0, a), (a, 0))]
    forms = []
    for hyp in blocks:
        m = [[_norm(0, p)] * n for _ in range(n)]
        for i in range(2):
            for j in range(2):
                m[i][j] = _norm(hyp[i][j], p)
        for i in range(n - 2):
            for j in range(n - 2):
                m[2 + i][2 + j] = core[i][j]
        forms.append(m)
    return move(forms, random_invertible(rng, p, n), p)


def move(forms, g, p):
    """g^T B g for every coordinate matrix: the same module in another basis."""
    gt = transpose(g)
    return [mat_mul(mat_mul(gt, b, p), g, p) for b in forms]


def module_dict(p, n, swap, sign, forms):
    return {
        "field": f"fp:{p}" if p else "rational",
        "sign": "+1" if sign == 1 else "-1",
        "dim_h": n,
        "w": {
            "dim": 2 if swap else 1,
            "involution": [[str(x) for x in r] for r in _involution(swap)],
        },
        "forms": [[[str(x) for x in r] for r in b] for b in forms],
    }


def standard_symplectic(p):
    j = [[0, 1, 0, 0], [p - 1, 0, 0, 0], [0, 0, 0, 1], [0, 0, p - 1, 0]]
    return module_dict(p, 4, False, -1, [j])


def alternating_matrix(rng, n):
    raw = random_matrix(rng, 0, n, -4, 4)
    return {
        "field": "rational",
        "matrix": [[str(raw[i][j] - raw[j][i]) for j in range(n)] for i in range(n)],
    }


# -- pools ----------------------------------------------------------------------


def _symmetrized_pool(rng, fields, dims, sign_kinds=(1, -1)):
    """{(p, n): [(input_id, module_dict), ...]}: random symmetrised modules
    over both involutions and the given signs (p = 0 is QQ)."""
    pool = {}
    for p in fields:
        for n in dims:
            entries = []
            for swap in (False, True):
                for sign in sign_kinds:
                    for k in range(POOL_SIZE):
                        forms = symmetrized(rng, p, n, swap, sign)
                        tag = f"p{p}n{n}{'s' if swap else 't'}{'+' if sign == 1 else '-'}{k}"
                        entries.append((tag, module_dict(p, n, swap, sign, forms)))
            pool[(p, n)] = entries
    return pool


def _semistable_pool(rng, classes):
    """{(p, n): [(input_id, module, partner)]}: partner is the module moved
    by another random invertible matrix, for s_equivalent jobs."""
    pool = {}
    for p, n, swaps in classes:
        entries = []
        for swap in swaps:
            for k in range(POOL_SIZE):
                forms = semistable_forms(rng, p, n, swap)
                partner = move(forms, random_invertible(rng, p, n), p)
                tag = f"ss{p}n{n}{'s' if swap else 't'}{k}"
                entries.append(
                    (tag, module_dict(p, n, swap, 1, forms), module_dict(p, n, swap, 1, partner))
                )
        pool[(p, n)] = entries
    return pool


def build_pool(workload):
    """All inputs a workload can use: {input_id: file dict}, plus the
    class tables the job lists draw from."""
    rng = random.Random(f"{POOL_SEED}/{workload}")
    files = {}
    if workload == "fp-exhaustive":
        classes = _symmetrized_pool(rng, (2, 3, 5, 7), (3, 4))
        for entries in classes.values():
            files.update(entries)
        for p in (3, 5):
            files[f"symp{p}"] = standard_symplectic(p)
        return files, classes
    if workload == "graded-sequiv":
        semi = _semistable_pool(
            rng,
            [
                (0, 2, (False, True)),
                (0, 3, (False, True)),
                (0, 4, (False,)),
                (3, 3, (False, True)),
                (3, 4, (False, True)),
                (5, 3, (False, True)),
                (5, 4, (False,)),
            ],
        )
        for entries in semi.values():
            for tag, module, partner in entries:
                files[tag] = module
                files[tag + "g"] = partner
        rand = _symmetrized_pool(rng, (0,), (2, 3), sign_kinds=(1,))
        for entries in rand.values():
            files.update(entries)
        files["halfint"] = HALF_INTEGER_FIXTURE
        return files, {"semi": semi, "rand": rand}
    if workload == "cli-mix":
        files["fixture"] = WORKED_FIXTURE
        small = _symmetrized_pool(rng, (2, 3), (3, 4))
        for entries in small.values():
            files.update(entries)
        pf = {}
        for n in (6, 8, 10):
            tags = []
            for k in range(2 * POOL_SIZE):
                tag = f"alt{n}x{k}"
                files[tag] = alternating_matrix(rng, n)
                tags.append(tag)
            pf[n] = tags
        return files, {"small": small, "pf": pf}
    raise KeyError(workload)


# -- job lists --------------------------------------------------------------------
#
# A job is a dict: key (the golden key, fixed by inputs and parameters),
# kind, inputs (input ids) and, for CLI jobs, argv with "{0}", "{1}"
# standing for the input file paths.


def _lib(kind, inputs, primes=DEFAULT_PRIMES):
    key = f"{kind}:{'+'.join(inputs)}"
    if primes is not None:
        key += ":primes=" + ",".join(map(str, primes))
    return {"key": key, "kind": kind, "inputs": list(inputs), "primes": primes}


def _cli(kind, argv, inputs=()):
    key = "cli:" + " ".join(argv).format(*inputs)
    return {"key": key, "kind": kind, "inputs": list(inputs), "argv": list(argv)}


def _stratified(rng, entries, count, groups, offset=0):
    """``count`` seeded draws spread evenly over ``groups`` equal, consecutive
    slices of ``entries`` (pool order: involution, then sign).  Leftover
    draws go to the slices from ``offset`` on, the same for every seed."""
    size = len(entries) // groups
    picked = []
    for g in range(groups):
        k = count // groups + ((g - offset) % groups < count % groups)
        picked += rng.sample(entries[g * size : (g + 1) * size], k)
    return picked


# per (p, n): (verdict jobs, enumerate jobs) in one pass.  Each quantile
# sits inside a band of similar jobs: F_7 at dim 3 and the F_2 sweeps
# (about 15 ms) hold the median, F_5 at dim 4 (about 0.2 s) holds p90,
# and F_7 at dim 4 (about 0.7 s) sets the tail.
FP_MIX = {
    (2, 3): (6, 6), (2, 4): (8, 8),
    (3, 3): (6, 6), (3, 4): (16, 16),
    (5, 3): (8, 8), (5, 4): (10, 6),
    (7, 3): (8, 8), (7, 4): (1, 1),
}
FP_SWEEPS = {(2, 3): 6, (3, 3): 4}


def _fp_jobs(rng, classes):
    jobs = []
    for (p, n), (verdicts, enums) in FP_MIX.items():
        entries = classes[(p, n)]
        for tag, _ in _stratified(rng, entries, verdicts, 4):
            jobs.append(_lib("verdict", [tag]))
        for tag, _ in _stratified(rng, entries, enums, 4, offset=2):
            jobs.append(_lib("enumerate", [tag]))
    for p in (3, 5):
        # closed-form oracle: the standard symplectic F_p^4
        jobs.append(_lib("enumerate", [f"symp{p}"]))
    for (p, n), count in FP_SWEEPS.items():
        for tag, _ in _stratified(rng, classes[(p, n)], count, 4):
            jobs.append(_lib("sweep", [tag]))
    return jobs


# per (p, n): (graded, iso_filtration, s_equivalent) jobs in one pass.
# The costs cluster by class, so the mix puts each quantile inside a band
# of similar jobs: graded/iso_filtration over F_3 at dim 4 (60-90 ms)
# holds the median, the same over F_5 at dim 4 (0.35-0.5 s, most of the
# pool every seed) holds p90, and s_equivalent there (0.8 s) is the tail.
# Cost over QQ at dim 3 depends much on the module, so those jobs stay
# below p90.  s_equivalent over QQ stays at dim 2: at dim 3-4 its bounded
# isometry search can take minutes.
GRADED_MIX = {
    (0, 2): (6, 4, 4),
    (0, 3): (4, 2, 0),
    (0, 4): (2, 1, 0),
    (3, 3): (6, 4, 4),
    (3, 4): (12, 8, 4),
    (5, 3): (4, 2, 4),
    (5, 4): (8, 6, 1),
}
QQ_HEURISTIC_MIX = {(0, 2): 6, (0, 3): 8}


def _graded_jobs(rng, tables):
    jobs = []
    for (p, n), (gr, filt, seq) in GRADED_MIX.items():
        entries = tables["semi"][(p, n)]
        primes = SHORT_PRIMES if (p, n) == (0, 4) else DEFAULT_PRIMES
        groups = len(entries) // POOL_SIZE
        for tag, _, _ in _stratified(rng, entries, gr, groups):
            jobs.append(_lib("graded", [tag], primes))
        for tag, _, _ in _stratified(rng, entries, filt, groups, offset=1):
            jobs.append(_lib("filtration", [tag], primes))
        for tag, _, _ in _stratified(rng, entries, seq, groups):
            jobs.append(_lib("sequiv", [tag, tag + "g"], primes))
    for (p, n), count in QQ_HEURISTIC_MIX.items():
        for tag, _ in _stratified(rng, tables["rand"][(p, n)], count, 2):
            jobs.append(_lib("verdict", [tag]))
    jobs.append(_lib("verdict", ["halfint"]))
    return jobs


# CLI jobs in one pass: commands on the worked fixture, then per (p, n)
# small F_p modules for (check, enumerate), fibers, Pfaffians by size.
# Most commands cost little more than start-up (about 0.12 s).  The
# fixture's sequiv/check/gr and the alternating fibers (0.23-0.56 s) are
# the tail; p90 falls in the band of F_3 dim-4 check/enumerate and the
# F_3 plus/unramified fibers (0.16-0.19 s).
# sequiv compares the fixture with itself: against a randomly moved copy
# the bounded QQ isometry search costs 0.6-10 s depending on the move, so
# jobs_per_s would depend on the seed (graded-sequiv covers that search)
CLI_FIXTURE_MIX = {"check": 2, "gr": 1, "weight": 16, "limit": 16, "sequiv": 1}
CLI_SMALL_MIX = {(2, 3): (4, 6), (2, 4): (3, 5), (3, 3): (3, 5), (3, 4): (3, 3)}
CLI_FIBER_MIX = {
    (2, "plus"): 2, (2, "alternating"): 1, (2, "unramified"): 2,
    (3, "plus"): 2, (3, "alternating"): 1, (3, "unramified"): 2,
}
CLI_PFAFFIAN_MIX = {6: 8, 8: 8, 10: 6}


def _cli_jobs(rng, tables):
    m = ["-m", "twistmod.cli"]
    jobs = []
    for cmd, count in CLI_FIXTURE_MIX.items():
        argv = m + [cmd, "{0}"] + (["{1}"] if cmd == "sequiv" else [])
        inputs = ["fixture"] * (2 if cmd == "sequiv" else 1)
        jobs += [_cli(f"cli-{cmd}", argv, inputs) for _ in range(count)]
    for (p, n), (checks, enums) in CLI_SMALL_MIX.items():
        entries = tables["small"][(p, n)]
        for tag, _ in _stratified(rng, entries, checks, 4):
            jobs.append(_cli("cli-check", m + ["check", "{0}"], [tag]))
        for tag, _ in _stratified(rng, entries, enums, 4, offset=2):
            jobs.append(_cli("cli-enumerate", m + ["enumerate", "{0}"], [tag]))
    for (p, case), count in CLI_FIBER_MIX.items():
        argv = m + ["fiber", "--field", f"fp:{p}", "--case", case, "-r", "2"]
        jobs += [_cli("cli-fiber", argv) for _ in range(count)]
    for n, count in CLI_PFAFFIAN_MIX.items():
        for tag in rng.sample(tables["pf"][n], count):
            jobs.append(_cli("cli-pfaffian", m + ["pfaffian", "{0}"], [tag]))
    return jobs


JOB_BUILDERS = {
    "fp-exhaustive": _fp_jobs,
    "graded-sequiv": _graded_jobs,
    "cli-mix": _cli_jobs,
}


def all_jobs(workload):
    """Every job any seed can draw, for recording goldens."""
    files, tables = build_pool(workload)
    jobs = {}

    def add(job):
        jobs[job["key"]] = job

    if workload == "fp-exhaustive":
        for (p, n), entries in tables.items():
            for tag, _ in entries:
                add(_lib("verdict", [tag]))
                add(_lib("enumerate", [tag]))
                if (p, n) in FP_SWEEPS:
                    add(_lib("sweep", [tag]))
        for p in (3, 5):
            add(_lib("enumerate", [f"symp{p}"]))
    elif workload == "graded-sequiv":
        for (p, n), entries in tables["semi"].items():
            primes = SHORT_PRIMES if (p, n) == (0, 4) else DEFAULT_PRIMES
            gr, filt, seq = GRADED_MIX[(p, n)]
            for tag, _, _ in entries:
                if gr:
                    add(_lib("graded", [tag], primes))
                if filt:
                    add(_lib("filtration", [tag], primes))
                if seq:
                    add(_lib("sequiv", [tag, tag + "g"], primes))
        for entries in tables["rand"].values():
            for tag, _ in entries:
                add(_lib("verdict", [tag]))
        add(_lib("verdict", ["halfint"]))
    else:
        # one seed's list holds every job on fixed inputs; add the drawn ones
        for job in _cli_jobs(random.Random(0), tables):
            add(job)
        m = ["-m", "twistmod.cli"]
        for entries in tables["small"].values():
            for tag, _ in entries:
                add(_cli("cli-check", m + ["check", "{0}"], [tag]))
                add(_cli("cli-enumerate", m + ["enumerate", "{0}"], [tag]))
        for tags in tables["pf"].values():
            for tag in tags:
                add(_cli("cli-pfaffian", m + ["pfaffian", "{0}"], [tag]))
    return files, list(jobs.values())


def job_list(workload, seed):
    """One pass of the workload for this seed, in seeded order, with ids."""
    files, tables = build_pool(workload)
    rng = random.Random(f"{seed}/{workload}")
    jobs = JOB_BUILDERS[workload](rng, tables)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = f"{i:03d}"
    return files, jobs


def write_inputs(files, names, directory):
    """Write the named inputs as JSON files; returns {input_id: path}."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name in sorted(set(names)):
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(files[name], fh, separators=(",", ":"))
        paths[name] = path
    return paths


def pool_digest(files):
    blob = json.dumps(files, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
