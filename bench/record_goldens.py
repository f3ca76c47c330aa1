"""Records the goldens: every job any seed can draw, run once at the
current commit.

    python3 bench/record_goldens.py [WORKLOAD ...]

Writes bench/goldens/<workload>.json: per job key, the sha256 of the
library job's to_json bytes (or of a CLI job's stdout, with its exit
code), and the verdict status where there is one.  Exits non-zero if a
job raises or an oracle disagrees, since the workloads must be free of
failures.
"""

import json
import os
import sys
import time

import checks
import execute
import gen
from run import git_commit


def record(workload):
    files, jobs = gen.all_jobs(workload)
    paths = gen.write_inputs(
        files,
        [i for job in jobs for i in job["inputs"]],
        os.path.join(execute.BENCH, "out", "golden-inputs", workload),
    )
    from twistmod import parse_module_file

    parsed = {}

    def load(input_id):
        if input_id not in parsed:
            with open(paths[input_id], encoding="utf-8") as fh:
                parsed[input_id] = parse_module_file(fh.read())
        return parsed[input_id]

    entries = {}
    problems = []
    started = time.perf_counter()
    for job in jobs:
        if "argv" in job:
            rc, data = execute.run_cli(
                execute.cli_args(job, paths), execute.child_env(), execute.ROOT
            )
            entry = {"rc": rc, "sha256": checks.digest(data)}
        else:
            for i in job["inputs"]:
                load(i)
            data = execute.library_payload(job, execute.library_call(job, parsed)())
            entry = {"sha256": checks.digest(data)}
        if job["kind"] in ("verdict", "cli-check"):
            entry["status"] = json.loads(data)["status"]
        entries[job["key"]] = entry
        problem = checks.check_output(
            job, (rc, data) if "argv" in job else data, entries, files, load
        )
        if problem:
            problems.append(f"{job['key']}: {problem}")
    statuses = {}
    for entry in entries.values():
        if "status" in entry:
            statuses[entry["status"]] = statuses.get(entry["status"], 0) + 1
    out = {
        "workload": workload,
        "commit": git_commit(),
        "pool_digest": gen.pool_digest(files),
        "verdict_statuses": dict(sorted(statuses.items())),
        "jobs": dict(sorted(entries.items())),
    }
    os.makedirs(checks.GOLDEN_DIR, exist_ok=True)
    with open(checks.golden_path(workload), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print(
        f"{workload}: {len(entries)} goldens in {time.perf_counter() - started:.1f} s,"
        f" verdicts {out['verdict_statuses']}"
    )
    return problems


def main():
    sys.path.insert(0, execute.SRC)
    workloads = sys.argv[1:] or list(gen.JOB_BUILDERS)
    problems = []
    for workload in workloads:
        problems += record(workload)
    for workload in workloads:
        # the default and held-out seeds must be fully covered
        for seed in (gen.DEFAULT_SEED, gen.HELD_OUT_SEED):
            files, jobs = gen.job_list(workload, seed)
            goldens = checks.load_goldens(workload, files)
            problems += [
                f"{workload} seed {seed}: no golden for {job['key']}"
                for job in jobs
                if job["key"] not in goldens
            ]
    for line in problems:
        print("problem:", line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
