"""Benchmark of the circpeaks command line on seeded workloads.

    python3 perfbench/run.py --workload large_n --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  It imports the library from the
checkout's ``src`` directory; there is nothing to build.

With ``--trace 0`` every operation is one ``python3 -m circpeaks.cli``
process, run one at a time: a closed loop with one client.  Whole rounds
of the workload repeat until ``--seconds`` have passed, and the
end-to-end metrics are printed.  With ``--trace 1`` the same operations
run inside this process through ``circpeaks.cli.run``, in alternate
untraced and traced rounds, and the per-layer metrics of the traced
rounds are printed with the tracing overhead.

Every output is checked by ``checkers``, which never calls the library.
An operation that exits non-zero or prints a wrong answer counts as
failed; a wrong answer also makes ``correct`` false.  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checkers  # noqa: E402
import workloads  # noqa: E402

# One set-up sample before every SETUP_EVERY-th operation of a round.
SETUP_EVERY = 3
IMPORT = ["-c", "import circpeaks.cli"]
WHERE = ["-c", "import circpeaks.cli, sys; sys.stdout.write(circpeaks.cli.__file__)"]
CLI = ["-m", "circpeaks.cli"]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Tally:
    """Operations attempted and failed, checked one by one."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.wrong = 0

    def record(self, argv: list[str], code: int, stdout: str) -> None:
        self.attempted += 1
        problem = checkers.check(argv, code, stdout)
        if problem:
            self.failed += 1
            self.wrong += code == 0
            print(f"FAILED {' '.join(argv)}: {problem}", file=sys.stderr)

    def result(self, metrics: dict) -> dict:
        return {"correct": self.wrong == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


class Launcher:
    """Spawns CLI processes through ``launch.py`` and reads what they printed."""

    def __init__(self, env: dict) -> None:
        OUT.mkdir(exist_ok=True)
        self.stdout_path, self.stderr_path = OUT / "op.stdout", OUT / "op.stderr"
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launch.py"),
             str(self.stdout_path), str(self.stderr_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def run(self, args: list[str]) -> tuple[float, int, int, str]:
        """(wall seconds, peak RSS in KiB, exit code, stdout) of one process."""
        self.proc.stdin.write("\x1f".join([sys.executable, *args]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 3:
            raise BenchError("launcher stopped")
        wall_ns, rss_kb, status = map(int, reply)
        return (wall_ns / 1e9, rss_kb, os.waitstatus_to_exitcode(status),
                self.stdout_path.read_text())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def cli_run(ops: list[list[str]], seconds: int) -> dict:
    """End-to-end metrics: each operation a fresh CLI process.

    The machine's speed drifts by up to a fifth over tens of seconds, so
    set-up is sampled between operations throughout the run rather than
    in one burst, and wall_s is the mean round over the whole run.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    launcher = Launcher(env)
    try:
        # Untimed first call: finds the library and writes its bytecode caches.
        _, _, code, where = launcher.run(WHERE)
        if code != 0 or Path(where) != SRC / "circpeaks" / "cli.py":
            raise BenchError(f"circpeaks.cli does not import from {SRC}")

        tally = Tally()
        setup: list[float] = []
        op_s: list[float] = []
        rounds = 0
        peak_kb = 0
        stop = perf_counter() + seconds
        while not rounds or perf_counter() < stop:
            for k, argv in enumerate(ops):
                if k % SETUP_EVERY == 0:
                    setup.append(launcher.run(IMPORT)[0])
                wall, rss_kb, code, stdout = launcher.run(CLI + argv)
                op_s.append(wall)
                peak_kb = max(peak_kb, rss_kb)
                tally.record(argv, code, stdout)
            rounds += 1
    finally:
        launcher.close()
    return tally.result({
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": sum(op_s) / rounds, "unit": "s"},
        "op_p50_ms": {"value": statistics.median(op_s) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    })


PER_LAYER_UNITS = {"_ms": "ms", "_pct": "%", "_per_op": "ratio"}


def _unit(name: str) -> str:
    return next((u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix)), "count")


def traced_run(ops: list[list[str]], seconds: int, workload: str) -> dict:
    """Per-layer metrics: untraced and traced rounds inside this process."""
    sys.path.insert(0, str(SRC))
    try:
        import circpeaks.cli as cli
    except ImportError as exc:
        raise BenchError(f"cannot import circpeaks from {SRC}: {exc}") from exc
    if Path(cli.__file__) != SRC / "circpeaks" / "cli.py":
        raise BenchError(f"circpeaks.cli does not import from {SRC}")
    import spans

    tally = Tally()

    def one_round() -> float:
        elapsed = 0.0
        for argv in ops:
            out = io.StringIO()
            t0 = perf_counter()
            code = cli.run(argv, out=out)
            elapsed += perf_counter() - t0
            tally.record(argv, code, out.getvalue())
        return elapsed

    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    stop = perf_counter() + seconds
    while not traced or perf_counter() < stop:
        plain.append(one_round())
        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced.append(one_round())
        layers.append(spans.layer_metrics(tracer))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}.json")

    metrics = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
    metrics["trace.untraced_round_ms"] = statistics.median(plain) * 1e3
    metrics["trace.traced_round_ms"] = statistics.median(traced) * 1e3
    # Each traced round against the untraced round just before it, so the
    # machine's drift between rounds far apart does not enter the ratio.
    metrics["trace.overhead_pct"] = statistics.median(
        (t / p - 1) * 100 for p, t in zip(plain, traced))
    return tally.result({name: {"value": v, "unit": _unit(name)} for name, v in metrics.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ops = workloads.build(args.workload, args.seed)
    try:
        if args.trace:
            result = traced_run(ops, args.seconds, args.workload)
        else:
            result = cli_run(ops, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
