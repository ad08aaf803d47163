"""Benchmark of the ``hamriccati`` command line, one workload per run.

    python3 perfbench/run.py --workload region-grid --seed 0 --seconds 33 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 33 --trace 0

Run from the root of a source checkout; ``hamriccati`` is imported from
its ``src`` directory.  The workload runs in one worker process, a closed
loop with one caller: each command starts when the previous one has
returned.  Set-up time is sampled in that worker and in a few probe
processes that only set up.  BLAS and OpenMP are pinned to one thread in
every child.  Inputs and outputs live in a scratch directory under
``.perfbench_work`` that is removed at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run (its spans are kept in ``.perfbench_out``).  The line before
it records the numerical stack, the round and per-command times, the
failures and the host's steal ticks during the run.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "HAMRICCATI_LOG": "quiet",
    "PYTHONHASHSEED": "0",
}
# Set-up samples per run: these probes plus the workload process itself.
SETUP_PROBES = 2
# Every run must end within this many seconds.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def steal_ticks() -> int | None:
    """Host steal time in clock ticks from the first line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def _spawn(worker_args: list[str], result: str, deadline: float) -> dict:
    """Run one worker to completion and return the JSON it wrote."""
    spawned = time.monotonic()
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--root", ROOT, "--spawned", repr(spawned), "--result", result, *worker_args,
    ]
    env = dict(os.environ, **PINNED_ENV)
    # The CLI reports refused commands on stderr; the oracles record them.
    with open(result + ".stderr", "w+", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("the worker ran past the time limit") from None
        if code != 0:
            err.seek(0)
            tail = err.read()[-2000:]
            raise BenchError(f"the worker exited with code {code}:\n{tail}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def per_layer_units() -> dict[str, str]:
    """Names and units of the metrics a traced run reports."""
    return dict(tracing.metric_units(), fail_rate="ratio")


def summarize(worker: dict, setups: list[float], trace: bool) -> dict:
    """The final result object from the worker's report and the set-up samples."""
    if trace:
        values = dict(worker["per_layer"], fail_rate=worker["failed"] / worker["attempted"])
        units = per_layer_units()
    else:
        values = dict(worker, setup_s=statistics.median(setups))
        units = END_TO_END_UNITS
    return {
        "correct": worker["wrong"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return the result object and the run's diagnostics."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    steal0 = steal_ticks()
    try:
        workloads.write_warmup_inputs(work)
        setups = []
        for i in range(SETUP_PROBES):
            probe = _spawn(["--work", work, "--probe"], os.path.join(work, f"probe{i}.json"), deadline)
            setups.append(probe["setup_s"])
        args = [
            "--work", work, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(int(trace)),
        ]
        if trace:
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            args += ["--spans", os.path.join(out_dir, f"{workload}-seed{seed}.spans.json")]
        worker = _spawn(args, os.path.join(work, "result.json"), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal1 = steal_ticks()
    setups.append(worker["setup_s"])
    diagnostics = {
        "workload": workload,
        "seed": seed,
        "environment": worker["environment"],
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "setup_samples_s": setups,
        "round_wall_s": worker["round_wall_s"],
        "traced_round_wall_s": worker.get("traced_round_wall_s"),
        "command_median_wall_s": worker["command_median_wall_s"],
        "wrong_outputs": worker["wrong"],
        "failures": worker["failures"],
        "notes": worker["notes"],
    }
    return summarize(worker, setups, trace), diagnostics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
        help="one workload, or all of them in turn (one result line each)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if ns.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "hamriccati", "cli.py")):
        print(f"perfbench: no hamriccati sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if ns.workload == "all" else [ns.workload]
    for name in names:
        try:
            result, diagnostics = run(name, ns.seed, ns.seconds, bool(ns.trace))
        except (BenchError, OSError, ValueError, KeyError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print("perfbench: " + json.dumps(diagnostics, sort_keys=True))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
