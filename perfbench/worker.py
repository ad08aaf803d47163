"""One workload process: set up, run timed rounds of commands, report.

Started by ``run.py`` with BLAS pinned to one thread.  The process
imports ``hamriccati`` from the checkout's ``src``, runs one warm-up
command per subcommand on the lab problem, and stamps the moment it is
ready; ``run.py`` subtracts its own spawn stamp to get the set-up time.
A ``--probe`` process stops there.  Otherwise it generates the workload's
inputs and runs rounds: each round runs every command of the workload in
sequence, in this process, through ``hamriccati.cli.main``.  Oracles
judge each round's outputs after the round's clock has stopped.

With ``--trace 1`` the rounds alternate untraced and traced.  The first
traced round, preceded by the warm-up commands, gives the per-layer
metrics and its spans are written to ``--spans``: the warm-up reaches
every traced function, so each layer's times are measured on every
workload, and a layer the workload does not use shows only the warm-up's
small, fixed share.  The result is one JSON object written to
``--result``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import tracing
import workloads


def _import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from hamriccati import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"hamriccati was imported from {cli.__file__}, not from {src}")
    return cli


def _call(cli, argv) -> int | None:
    """Exit code of one CLI call; None when it raised instead of exiting."""
    # ``cli.main`` is looked up per call so that a tracer's rebinding is seen.
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else None
    except Exception:
        traceback.print_exc()
        return None


def _run_round(cli, commands) -> dict:
    """Run every command once, in order; per-command wall and CPU seconds."""
    codes, wall, cpu = [], [], []
    # Garbage left by the previous round is collected outside the timers,
    # so that every round starts from the same heap.
    gc.collect()
    for cmd in commands:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        codes.append(_call(cli, cmd.argv))
        wall.append(time.perf_counter() - wall0)
        cpu.append(time.process_time() - cpu0)
    return {"wall_s": wall, "cpu_s": cpu, "codes": codes}


def body_median(rounds) -> float:
    """Time of one pass over the workload's commands: each command's median
    over the rounds, summed.  A slow spell of the host that hits one
    command in one round is then left out, where a median of round totals
    would keep it whenever it lands in the middle round."""
    return sum(statistics.median(times) for times in zip(*rounds))


def judge(cmd, code: int | None) -> workloads.Outcome:
    """The oracle's verdict on one command's exit code and output."""
    if code is None:
        return workloads.Outcome("raised an exception")
    try:
        return cmd.check(code, cmd.out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return workloads.Outcome(f"unreadable output: {exc!r}", wrong_output=True)


def _tally(commands, codes, tally: dict) -> None:
    for cmd, code in zip(commands, codes):
        tally["attempted"] += 1
        outcome = judge(cmd, code)
        if outcome.failure is not None:
            tally["failed"] += 1
            tally["wrong"] += int(outcome.wrong_output)
            tally["failures"].setdefault(cmd.label, outcome.failure)
        if outcome.notes:
            tally["notes"][cmd.label] = outcome.notes


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _write_spans(path: str, spans) -> None:
    names = sorted({s.name for s in spans})
    index = {name: i for i, name in enumerate(names)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "names": names,
                "columns": ["name", "start", "end", "parent", "raised"],
                "spans": [[index[s.name], s.start, s.end, s.parent, s.raised] for s in spans],
            },
            fh,
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    ns = parser.parse_args(argv)

    cli = _import_program(ns.root)
    warmups = workloads.warmup_argvs(ns.work)
    for warm in warmups:
        code = _call(cli, warm)
        if code != 0:
            print(f"perfbench: warm-up {warm[:3]} exited {code}", file=sys.stderr)
            return 1
    setup_s = time.monotonic() - ns.spawned
    result: dict = {"setup_s": setup_s}
    if ns.probe:
        with open(ns.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    commands = workloads.build(ns.workload, ns.seed, ns.work)
    tally = {"attempted": 0, "failed": 0, "wrong": 0, "failures": {}, "notes": {}}
    rounds, traced_rounds = [], []
    spans = None
    deadline = time.monotonic() + ns.seconds
    while True:
        rnd = _run_round(cli, commands)
        _tally(commands, rnd.pop("codes"), tally)
        rounds.append(rnd)
        if ns.trace:
            tracer = tracing.Tracer()
            with tracer:
                if spans is None:
                    for warm in warmups:
                        _call(cli, warm)
                rnd = _run_round(cli, commands)
            _tally(commands, rnd.pop("codes"), tally)
            traced_rounds.append(rnd)
            if spans is None:
                spans = tracer.spans
        if time.monotonic() >= deadline:
            break

    result.update(tally)
    result.update(
        wall_s=body_median(r["wall_s"] for r in rounds),
        cpu_s=body_median(r["cpu_s"] for r in rounds),
        round_wall_s=[sum(r["wall_s"]) for r in rounds],
        command_median_wall_s={
            cmd.label: statistics.median(r["wall_s"][i] for r in rounds)
            for i, cmd in enumerate(commands)
        },
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=_environment(),
    )
    if ns.trace:
        traced = body_median(r["wall_s"] for r in traced_rounds)
        result["traced_round_wall_s"] = [sum(r["wall_s"]) for r in traced_rounds]
        result["per_layer"] = tracing.layer_metrics(spans, traced / result["wall_s"] - 1.0)
        _write_spans(ns.spans, spans)
    with open(ns.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
