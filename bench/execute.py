"""Running one job: a library call in this process, or one CLI command in a
child process.  Shared by the benchmark and by the golden recorder."""

from __future__ import annotations

import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def child_env():
    """Environment for child interpreters: the checkout's twistmod and a
    fixed hash seed, so set iteration order (and so every count) repeats."""
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


def library_call(job, parsed):
    """The job's twistmod call as a thunk; running it is the timed work.
    ``parsed`` maps input ids to parsed module files."""
    import twistmod as tw

    qs = [parsed[i].module for i in job["inputs"]]
    primes = tuple(job["primes"]) if job["primes"] else tw.DEFAULT_PRIMES
    kind = job["kind"]
    if kind == "verdict":
        return lambda: tw.semistability_verdict(qs[0], primes=primes)
    if kind == "enumerate":
        # tuple() consumes the result inside the timed region
        return lambda: tuple(tw.enumerate_totally_isotropic(qs[0]))
    if kind == "sweep":
        return lambda: tw.hilbert_mumford_sweep(qs[0])
    if kind == "graded":
        return lambda: tw.graded(qs[0], primes=primes)
    if kind == "filtration":
        return lambda: tw.iso_filtration(qs[0], primes=primes)
    if kind == "sequiv":
        return lambda: tw.s_equivalent(qs[0], qs[1], primes=primes)
    raise KeyError(kind)


def library_payload(job, result) -> bytes:
    """The job's result in the package's own canonical JSON bytes."""
    from twistmod import serialize as ser

    kind = job["kind"]
    if kind == "verdict":
        payload = ser.verdict_to_dict(result)
    elif kind == "enumerate":
        payload = {
            "count": len(result),
            "subspaces": [ser.subspace_to_lists(v) for v in result],
        }
    elif kind == "sweep":
        payload = {"min_mu": ser.mu_to_json(result)}
    elif kind == "graded":
        payload = ser.graded_to_dict(result)
    elif kind == "filtration":
        payload = {"filtration": ser.filtration_to_lists(result)}
    else:
        payload = {"s_equivalent": result}
    return ser.to_json(payload).encode()


def cli_args(job, paths):
    """The twistmod.cli arguments of a CLI job, with input paths filled in."""
    argv = [a.format(*(paths[i] for i in job["inputs"])) for a in job["argv"]]
    return argv[2:]  # drop "-m twistmod.cli"


def run_cli(args, env, cwd, child=None):
    """Run one command to completion; returns (exit code, stdout bytes).

    With ``child`` = (script, sidecar path, mode) the command runs under
    the benchmark's child wrapper instead of ``python -m twistmod.cli``.
    """
    if child is None:
        cmd = [sys.executable, "-m", "twistmod.cli", *args]
    else:
        script, sidecar, mode = child
        cmd = [sys.executable, script, sidecar, mode, *args]
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout
