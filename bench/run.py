"""The twistmod benchmark: one closed-loop caller, one seeded workload.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (why each was chosen is in bench/README.md):
  fp-exhaustive  exhaustive verdicts, enumerations and small weight sweeps over F_p
  graded-sequiv  graded modules, filtrations, S-equivalence and QQ heuristic verdicts
  cli-mix        one ``python -m twistmod.cli`` process per job, all 8 commands

Each job starts when the previous one has returned.  The untraced run
(--trace 0) repeats whole passes over the seed's job list (100 or more
jobs) until S seconds have passed, at least MIN_PASSES times, and checks
every output.  Each job's time is rescaled by a reference kernel timed
next to it (see ``normalised``), and the end-to-end metrics come from
each job's best rescaled time.  The raw wall-time figures are printed
and recorded beside them.  The traced run (--trace 1) makes one
untraced and one profiled pass over the same list and prints the
per-layer metrics.  The last line of stdout is one JSON object; spans
and a run record go to bench/out/<workload>-seed<N>/.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time

import checks
import execute
import gen
import layers

MIN_PASSES = 2
MAX_LOOP_S = 150.0  # whole passes stop here whatever MIN_PASSES says
SETUP_REPEATS = 5
START_REPEATS = 5
REFERENCE_ROUNDS = 20
# the reference kernel's time on the machine the benchmark was tuned on;
# it only sets the scale of the normalised times
REFERENCE_S = 0.0025

CHILD_SCRIPT = os.path.join(execute.BENCH, "cli_child.py")

SETUP_PROBE = """\
import sys, time
t = time.perf_counter()
import twistmod
from twistmod import parse_module_file
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        parse_module_file(fh.read())
print(time.perf_counter() - t)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(gen.JOB_BUILDERS))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- run record ---------------------------------------------------------------------


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=execute.ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_record():
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
    }


# -- set-up ---------------------------------------------------------------------------


def _wall(cmd, env):
    t = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=execute.ROOT, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t


def measure_setup(workload, paths, env):
    """Set-up time samples, normalised and raw: for cli-mix the wall time
    of a process that imports twistmod.cli; otherwise the time to import
    twistmod and parse every input file, timed inside a fresh interpreter."""
    samples = []
    refs = [reference_time()]
    for _ in range(SETUP_REPEATS):
        if workload == "cli-mix":
            samples.append(_wall([sys.executable, "-c", "import twistmod.cli"], env))
        else:
            out = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, *sorted(paths.values())],
                env=env, cwd=execute.ROOT, check=True, capture_output=True, text=True,
                timeout=60,
            )
            samples.append(float(out.stdout.strip().splitlines()[-1]))
        refs.append(reference_time())
    scale = REFERENCE_S / statistics.median(refs)
    return [s * scale for s in samples], samples


# -- machine speed --------------------------------------------------------------------


def reference_time():
    """Seconds taken now by a fixed piece of pure-Python work (integer
    arithmetic, tuples, generator calls): the machine's momentary speed."""
    start = time.perf_counter()
    acc = 0
    for _ in range(REFERENCE_ROUNDS):
        for i in range(64):
            t = tuple((x * 7 + acc) % 101 for x in range(i, i + 8))
            acc = (acc + sum(t)) % 1000003
    return time.perf_counter() - start


def normalised(walls, refs):
    """Each time rescaled to the nominal speed at which the reference
    kernel takes REFERENCE_S, using the median of the five reference
    times measured nearest to it."""
    return [
        wall * REFERENCE_S / statistics.median(refs[max(0, i - 2) : i + 3])
        for i, wall in enumerate(walls)
    ]


# -- one job --------------------------------------------------------------------------


class Runner:
    """Runs and checks jobs, keeping their spans in memory."""

    def __init__(self, workload, files, paths, goldens, env):
        self.workload = workload
        self.files = files
        self.paths = paths
        self.goldens = goldens
        self.env = env
        self.cli = workload == "cli-mix"
        self.parsed = {}
        self.spans = []
        self.failures = []
        self.origin = time.perf_counter()
        if not self.cli:
            for input_id in paths:
                self.load(input_id)

    def load(self, input_id):
        if input_id not in self.parsed:
            from twistmod import parse_module_file

            with open(self.paths[input_id], encoding="utf-8") as fh:
                self.parsed[input_id] = parse_module_file(fh.read())
        return self.parsed[input_id]

    def run(self, job, pass_no, traced=False, child=None, profiler=None):
        """Run one job; returns (wall seconds, result or None)."""
        result = error = None
        if self.cli:
            args = execute.cli_args(job, self.paths)
            start = time.perf_counter()
            try:
                result = execute.run_cli(args, self.env, execute.ROOT, child)
            except (OSError, subprocess.SubprocessError) as exc:
                error = exc
            end = time.perf_counter()
        else:
            call = execute.library_call(job, self.parsed)
            if profiler:
                profiler.enable()
            start = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # any engine error fails the job
                error = exc
            end = time.perf_counter()
            if profiler:
                profiler.disable()
        problem = repr(error) if error is not None else self.check(job, result)
        if problem:
            self.failures.append({"job": job["id"], "key": job["key"], "problem": problem})
        self.spans.append(
            {
                "workload": self.workload,
                "job": job["id"],
                "kind": job["kind"],
                "pass": pass_no,
                "traced": traced,
                "start": start - self.origin,
                "end": end - self.origin,
                "ok": not problem,
            }
        )
        return end - start, (None if problem else result)

    def check(self, job, result):
        try:
            output = result if self.cli else execute.library_payload(job, result)
            return checks.check_output(job, output, self.goldens, self.files, self.load)
        except Exception as exc:  # a malformed output fails the job
            return f"check raised {exc!r}"


# -- metrics --------------------------------------------------------------------------


def end_to_end(walls, setup_samples, cli):
    """``walls`` holds one time per job: its best over the passes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    return {
        "jobs_per_s": (len(walls) / sum(walls), "1/s"),
        "job_p50_ms": (statistics.median(walls) * 1000, "ms"),
        "job_p90_ms": (statistics.quantiles(walls, n=10)[8] * 1000, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
    }


def timed_run(runner, jobs, seconds):
    """Whole passes until ``seconds`` have passed, at least MIN_PASSES of
    them.  Returns each job's best normalised time, its best raw wall
    time, and the number of passes.

    A shared machine's speed drifts by tens of percent, both for minutes
    and in bursts of seconds.  Normalising by the reference kernel run
    next to each job removes the slow drift; a job's best of several runs
    made seconds apart drops the bursts.
    """
    best = [[] for _ in jobs]
    raw = [[] for _ in jobs]
    started = time.perf_counter()
    passes = 0
    while True:
        # odd passes run backwards, so a job's runs are not evenly spaced
        order = list(range(len(jobs)))
        if passes % 2:
            order.reverse()
        walls, refs = [], []
        for i in order:
            refs.append(reference_time())
            walls.append(runner.run(jobs[i], passes)[0])
            runner.spans[-1]["reference"] = refs[-1]
        for i, wall, scaled in zip(order, walls, normalised(walls, refs)):
            raw[i].append(wall)
            best[i].append(scaled)
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_LOOP_S or (elapsed >= seconds and passes >= MIN_PASSES):
            return [min(s) for s in best], [min(s) for s in raw], passes


def start_times(env):
    bare = [_wall([sys.executable, "-c", "pass"], env) for _ in range(START_REPEATS)]
    cli = [_wall([sys.executable, "-c", "import twistmod.cli"], env) for _ in range(START_REPEATS)]
    return statistics.median(bare) * 1000, (statistics.median(cli) - statistics.median(bare)) * 1000


def traced_run(runner, jobs, workdir):
    """One untraced and one profiled pass; returns the per-layer metrics."""
    plain = 0.0
    main_s = 0.0
    sidecar_dir = os.path.join(workdir, "trace")
    os.makedirs(sidecar_dir, exist_ok=True)
    for job in jobs:
        sidecar = os.path.join(sidecar_dir, f"{job['id']}.json")
        child = (CHILD_SCRIPT, sidecar, "time") if runner.cli else None
        wall, result = runner.run(job, 0, child=child)
        plain += wall
        if runner.cli and result is not None:
            with open(sidecar, encoding="utf-8") as fh:
                main_s += json.load(fh)["main_s"]

    traced = 0.0
    visited = 0
    enum_visited = enum_found = 0
    if runner.cli:
        stats = None
        for job in jobs:
            sidecar = os.path.join(sidecar_dir, f"{job['id']}.json")
            wall, result = runner.run(job, 1, traced=True, child=(CHILD_SCRIPT, sidecar, "profile"))
            traced += wall
            if result is None:
                continue  # a failed command may leave no profile behind
            with open(sidecar, encoding="utf-8") as fh:
                found = json.load(fh)["candidates"]
            visited += found
            if stats is None:
                stats = pstats.Stats(sidecar + ".prof")
            else:
                stats.add(sidecar + ".prof")
            if job["kind"] == "cli-enumerate":
                enum_visited += found
                enum_found += json.loads(result[1])["count"]
        table = stats.stats if stats else {}
        compute_share = main_s / plain
    else:
        from twistmod import parse_module_file

        profiler = cProfile.Profile()
        texts = []
        for path in runner.paths.values():
            with open(path, encoding="utf-8") as fh:
                texts.append(fh.read())
        profiler.enable()
        for text in texts:
            parse_module_file(text)
        profiler.disable()
        counter = layers.CandidateCounter()
        counter.install()
        try:
            for job in jobs:
                before = counter.count
                wall, result = runner.run(job, 1, traced=True, profiler=profiler)
                traced += wall
                if job["kind"] == "enumerate" and result is not None:
                    enum_visited += counter.count - before
                    enum_found += len(result)
        finally:
            counter.remove()
        visited = counter.count
        profiler.create_stats()
        table = profiler.stats
        compute_share = 1.0  # library jobs are all compute; no process start-up

    metrics = layers.aggregate(table)
    interp_ms, import_ms = start_times(runner.env)
    metrics.update(
        {
            "stability.candidates_visited": visited,
            "stability.useful_ratio": enum_found / enum_visited if enum_visited else 0.0,
            "cli.interp_start_ms": interp_ms,
            "cli.import_ms": import_ms,
            "cli.compute_share": compute_share,
            "trace_overhead_ratio": traced / plain,
        }
    )
    units = dict(layers.PER_LAYER)
    return {name: (metrics[name], units[name]) for name, _ in layers.PER_LAYER}


# -- main -------------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(execute.SRC, "twistmod", "__init__.py")):
        print("bench: src/twistmod is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    env = execute.child_env()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # a fixed hash seed makes set order, and so every count, repeat
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, execute.SRC)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loadavg_start": _read("/proc/loadavg").strip()}
    record.update(machine_record())
    # one CPU for the whole process tree, so the reference kernel runs on
    # the CPU the jobs (and the CLI children) run on
    record["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {record["pinned_cpu"]})
    files, jobs = gen.job_list(args.workload, args.seed)
    goldens = checks.load_goldens(args.workload, files)
    workdir = os.path.join(execute.BENCH, "out", f"{args.workload}-seed{args.seed}")
    paths = gen.write_inputs(
        files, [i for job in jobs for i in job["inputs"]], os.path.join(workdir, "inputs")
    )

    notes = {}
    if args.trace:
        runner = Runner(args.workload, files, paths, goldens, env)
        metrics = traced_run(runner, jobs, workdir)
        samples = {"jobs": len(jobs), "passes": 2}
    else:
        setup_samples, raw_setup = measure_setup(args.workload, paths, env)
        runner = Runner(args.workload, files, paths, goldens, env)
        walls, raw_walls, passes = timed_run(runner, jobs, args.seconds)
        metrics = end_to_end(walls, setup_samples, runner.cli)
        raw = end_to_end(raw_walls, raw_setup, runner.cli)
        record["raw_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
        beyond = sum(w * 1000 > metrics["job_p90_ms"][0] for w in walls)
        samples = {"jobs": len(walls), "passes": passes, "setup": len(setup_samples),
                   "beyond_p90": beyond}
        per_job = f"n={len(walls)} jobs, best of {passes} passes"
        notes = {"jobs_per_s": per_job, "job_p50_ms": per_job,
                 "job_p90_ms": f"{per_job}, {beyond} beyond",
                 "setup_s": f"median of {len(setup_samples)}"}

    attempted = len(runner.spans)
    failed = len(runner.failures)
    record.update(
        {
            "loadavg_end": _read("/proc/loadavg").strip(),
            "jobs_per_pass": len(jobs),
            "samples": samples,
            "attempted": attempted,
            "failed": failed,
            "failed_ratio": failed / attempted,
            "failures": runner.failures[:50],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "layer_map": layers.LAYER_MAP,
        }
    )
    tag = f"trace{args.trace}"
    with open(os.path.join(workdir, f"record-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    with open(os.path.join(workdir, f"spans-{tag}.jsonl"), "w", encoding="utf-8") as fh:
        for span in runner.spans:
            fh.write(json.dumps(span) + "\n")

    for failure in runner.failures[:10]:
        print(f"FAILED job {failure['job']} {failure['key']}: {failure['problem']}",
              file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {attempted} jobs ({samples}),"
          f" python {record['python']}, nproc {record['nproc']}, {record['cpu_model']},"
          f" commit {record['commit']}, loadavg {record['loadavg_start']} -> {record['loadavg_end']}")
    print(f"failed_ratio {failed / attempted:.6g} ratio (n={attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f" ({notes[name]})" if name in notes else ""))
    for name, metric in record.get("raw_metrics", {}).items():
        print(f"raw {name} {metric['value']:.6g} {metric['unit']} (not normalised)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
