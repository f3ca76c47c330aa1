"""Per-layer metrics from a cProfile run, and the layer map.

Each function's self time is charged to the module whose file defines it
(the layers are twistmod's modules, plus the standard ``fractions``).
Named functions are found through their code objects, so a metric keeps
working when line numbers move, and reads 0 when its function is gone.
The counts are exact for a fixed seed; the timings include profiling
cost, which ``trace_overhead_ratio`` states.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys

LAYERS = ("linalg", "sigmamod", "hilbert", "stability", "dualnum", "serialize", "cli")

FIELD_OPS = [
    f"{cls}.{op}"
    for cls in ("RationalField", "PrimeField")
    for op in ("add", "sub", "mul", "neg", "inv", "div")
]

# metric name -> (statistic, [(module, qualified name), ...]); the value
# sums the statistic over the functions.  "calls" counts every call,
# recursive ones included; "cum_s" is pstats' cumulative time.
FUNCTION_METRICS = {
    "linalg.rref.calls": ("calls", [("linalg", "Matrix.rref")]),
    "linalg.rref.self_s": ("self_s", [("linalg", "Matrix.rref")]),
    "linalg.kernel_basis.calls": ("calls", [("linalg", "Matrix.kernel_basis")]),
    "linalg.matrix_init.calls": ("calls", [("linalg", "Matrix.__init__")]),
    "linalg.matrix_init.self_s": ("self_s", [("linalg", "Matrix.__init__")]),
    "linalg.subspace_init.calls": ("calls", [("linalg", "Subspace.__init__")]),
    "linalg.subspace_sum.calls": ("calls", [("linalg", "Subspace.sum")]),
    "linalg.subspace_intersect.calls": ("calls", [("linalg", "Subspace.intersect")]),
    "linalg.det.calls": ("calls", [("linalg", "Matrix.det")]),
    "linalg.field_ops.calls": ("calls", [("linalg", name) for name in FIELD_OPS]),
    "sigmamod.isotropy_class.calls": ("calls", [("sigmamod", "isotropy_class")]),
    "sigmamod.isotropy_class.cum_s": ("cum_s", [("sigmamod", "isotropy_class")]),
    "sigmamod.orthogonal.calls": ("calls", [("sigmamod", "orthogonal")]),
    "stability.enumerations": ("calls", [("stability", "enumerate_totally_isotropic")]),
    "stability.reduce_mod_p.calls": ("calls", [("stability", "_reduce_mod_p")]),
    "stability.lift_attempts": ("calls", [("stability", "_lift_subspace")]),
    "stability.verdict.cum_s": ("cum_s", [("stability", "semistability_verdict")]),
    "stability.graded.cum_s": ("cum_s", [("stability", "graded")]),
    "sigmamod.isotropic_reduction.calls": ("calls", [("sigmamod", "isotropic_reduction")]),
    "sigmamod.validate.calls": ("calls", [("sigmamod", "validate")]),
    "hilbert.mu.calls": ("calls", [("hilbert", "mu")]),
    "hilbert.limit_at_zero.cum_s": ("cum_s", [("hilbert", "limit_at_zero")]),
    "sigmamod.is_isomorphic.cum_s": ("cum_s", [("sigmamod", "is_isomorphic")]),
    "sigmamod.isometry_nodes": ("calls", [("sigmamod", "_isometry_search.gram_ok")]),
    "stability.sweep.cum_s": ("cum_s", [("stability", "hilbert_mumford_sweep")]),
    "stability.sweep.decompositions": ("calls", [("stability", "hilbert_mumford_sweep.score")]),
    "stability.weight_vectors.calls": (
        "calls",
        [("stability", "hilbert_mumford_sweep.weight_vectors")],
    ),
    "dualnum.fiber.cum_s": (
        "cum_s",
        [("dualnum", "fiber_structure_check"), ("dualnum", "unramified_fixed_count")],
    ),
    "dualnum.dn_mul.calls": ("calls", [("dualnum", "dn_mul")]),
    "dualnum.pf.calls": ("calls", [("dualnum", "_pf")]),
    "serialize.parse.cum_s": (
        "cum_s",
        [("serialize", "parse_module_file"), ("serialize", "parse_matrix_file")],
    ),
    "serialize.to_json.cum_s": ("cum_s", [("serialize", "to_json")]),
}

UNITS = {"calls": "count", "self_s": "s", "cum_s": "s"}

# every per-layer metric with its unit, in report order
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("linalg.self_share", "ratio"), ("fractions.self_s", "s")]
    + [(name, UNITS[stat]) for name, (stat, _) in FUNCTION_METRICS.items()]
    + [
        ("stability.candidates_visited", "count"),
        ("stability.useful_ratio", "ratio"),
        ("cli.interp_start_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.compute_share", "ratio"),
        ("trace_overhead_ratio", "ratio"),
    ]
)

# which end-to-end metric each group of layer metrics should move, on
# which workload; "bypass" names the workload where the prediction is no
# change.  Carried in every run record so later claims can cite it.
LAYER_MAP = [
    {
        "layer_metrics": [
            "linalg.self_s", "linalg.self_share", "linalg.rref.calls",
            "linalg.rref.self_s", "linalg.kernel_basis.calls",
            "linalg.matrix_init.calls", "linalg.matrix_init.self_s",
            "linalg.subspace_init.calls", "linalg.subspace_sum.calls",
            "linalg.subspace_intersect.calls", "linalg.det.calls",
            "linalg.field_ops.calls",
        ],
        "moves": {"fp-exhaustive": ["jobs_per_s"]},
        "small": ["cli-mix"],
    },
    {
        "layer_metrics": ["fractions.self_s"],
        "moves": {"graded-sequiv": ["jobs_per_s", "job_p50_ms"]},
        "bypass": ["fp-exhaustive"],
    },
    {
        "layer_metrics": [
            "stability.candidates_visited", "sigmamod.isotropy_class.calls",
            "sigmamod.isotropy_class.cum_s", "sigmamod.orthogonal.calls",
            "stability.useful_ratio",
        ],
        "moves": {
            "fp-exhaustive": ["job_p90_ms", "jobs_per_s"],
            "graded-sequiv": ["job_p90_ms", "jobs_per_s"],
        },
        "bypass": ["cli-mix (apart from check and enumerate)"],
    },
    {
        "layer_metrics": [
            "stability.enumerations", "stability.reduce_mod_p.calls",
            "stability.lift_attempts", "stability.verdict.cum_s",
            "stability.graded.cum_s", "sigmamod.isotropic_reduction.calls",
            "sigmamod.validate.calls", "hilbert.mu.calls",
            "hilbert.limit_at_zero.cum_s",
        ],
        "moves": {"graded-sequiv": ["job_p50_ms"]},
        "bypass": ["fp-exhaustive"],
    },
    {
        "layer_metrics": ["sigmamod.is_isomorphic.cum_s", "sigmamod.isometry_nodes"],
        "moves": {"graded-sequiv": ["job_p90_ms"]},
    },
    {
        "layer_metrics": [
            "stability.sweep.cum_s", "stability.sweep.decompositions",
            "stability.weight_vectors.calls",
        ],
        "moves": {"fp-exhaustive": ["jobs_per_s"]},
    },
    {
        "layer_metrics": [
            "dualnum.self_s", "dualnum.fiber.cum_s", "dualnum.dn_mul.calls",
            "dualnum.pf.calls",
        ],
        "moves": {"cli-mix": ["job_p90_ms"]},
        "bypass": ["fp-exhaustive", "graded-sequiv"],
    },
    {
        "layer_metrics": [
            "serialize.self_s", "serialize.parse.cum_s", "serialize.to_json.cum_s",
            "cli.self_s", "cli.interp_start_ms", "cli.import_ms", "cli.compute_share",
        ],
        "moves": {"cli-mix": ["job_p50_ms", "setup_s"]},
        "bypass": ["fp-exhaustive", "graded-sequiv"],
    },
    {
        "layer_metrics": [],
        "note": "no layer metric stands in for memory; streaming the candidate "
        "scan should lower peak_rss_mb",
        "moves": {"fp-exhaustive": ["peak_rss_mb"]},
    },
]


def _norm_path(path):
    return os.path.normcase(os.path.abspath(path))


def code_key(module, qualname):
    """(file, first line, name) of a twistmod function, nested ones too,
    or None when it no longer exists."""
    obj = importlib.import_module(f"twistmod.{module}")
    code = None
    for part in qualname.split("."):
        if code is None:
            obj = inspect.getattr_static(obj, part, None)
            if isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            if obj is None:
                return None
            if inspect.isfunction(obj):
                code = obj.__code__
        else:
            code = next(
                (c for c in code.co_consts if inspect.iscode(c) and c.co_name == part),
                None,
            )
            if code is None:
                return None
    if code is None:
        return None
    return (_norm_path(code.co_filename), code.co_firstlineno, code.co_name)


def file_layer(filename):
    if filename.startswith("~") or filename.startswith("<"):
        return None
    base = os.path.basename(filename)
    if os.path.basename(os.path.dirname(filename)) == "twistmod":
        return base[:-3] if base.endswith(".py") else None
    if base == "fractions.py":
        return "fractions"
    return None


def aggregate(stats):
    """Per-layer metrics from pstats' raw table
    {(file, line, name): (cc, nc, tt, ct, callers)}.  The special metrics
    (candidates, ratios, CLI timings) are filled in by the caller."""
    table = {}
    for (filename, line, name), (cc, nc, tt, ct, _) in stats.items():
        key = (_norm_path(filename), line, name) if not filename.startswith("~") else (filename, line, name)
        prev = table.get(key)
        table[key] = (
            (prev[0] + nc, prev[1] + tt, prev[2] + ct) if prev else (nc, tt, ct)
        )
    self_by_layer = {}
    total_self = 0.0
    for (filename, _, _), (_, tt, _) in table.items():
        total_self += tt
        layer = file_layer(filename)
        if layer:
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + tt
    out = {f"{layer}.self_s": self_by_layer.get(layer, 0.0) for layer in LAYERS}
    out["fractions.self_s"] = self_by_layer.get("fractions", 0.0)
    out["linalg.self_share"] = (
        self_by_layer.get("linalg", 0.0) / total_self if total_self else 0.0
    )
    index = {"calls": 0, "self_s": 1, "cum_s": 2}
    for metric, (stat, targets) in FUNCTION_METRICS.items():
        value = 0
        for module, qualname in targets:
            key = code_key(module, qualname)
            if key in table:
                value += table[key][index[stat]]
        out[metric] = value
    return out


class CandidateCounter:
    """Counts subspaces yielded by linalg.enumerate_subspaces.

    Rebinds every twistmod module attribute that refers to the generator,
    so callers that imported it by name are counted too; ``remove``
    restores them.  Used only in traced runs.
    """

    def __init__(self):
        self.count = 0
        self._patched = []

    def install(self):
        linalg = importlib.import_module("twistmod.linalg")
        original = getattr(linalg, "enumerate_subspaces", None)
        if original is None:
            return
        counter = self

        def counted(*args, **kwargs):
            for v in original(*args, **kwargs):
                counter.count += 1
                yield v

        for name, mod in list(sys.modules.items()):
            if name == "twistmod" or name.startswith("twistmod."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, counted)
                        self._patched.append((mod, attr, original))

    def remove(self):
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched = []
