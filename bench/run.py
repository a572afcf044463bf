"""The spinroot benchmark: one workload per run, outputs checked, metrics printed.

    python3 bench/run.py --workload acceptance --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; the program is imported from ./src.  A
run measures the interpreter's set-up time, then repeats whole rounds of the
workload until --seconds have passed, checks every output against
oracles.py, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (tracing off).  With
--trace 1 the run alternates untraced and traced rounds and reports the
per-layer metrics of the traced rounds plus trace.overhead_s.  The line
before the last holds the run's details: every operation with its time and
error, the checks that failed, and the Python/numpy versions and nproc.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 3            # set-up samples before each round and after the last
RUN_LIMIT_S = 170.0          # every run ends well within the 180 s a run may take
PER_LAYER = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"] \
    if (BENCH.parent / "BENCHMARK.json").is_file() else []


@dataclass
class Op:
    name: str
    seconds: float
    error: str | None = None


@dataclass
class Round:
    ops: list[Op]
    wall_s: float
    rss_mb: float
    layers: dict = field(default_factory=dict)


class Harness:
    """Spawns the program's processes from the checkout and records what went wrong."""

    def __init__(self, root: Path, work: Path):
        self.root, self.work = root, work
        path = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        # TMPDIR keeps the program's temporary files inside the checkout too
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), TMPDIR=str(work))
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.problems: list[str] = []

    def spawn(self, argv: list[str], stdout: Path) -> tuple[float, float, int, str]:
        """Run one process to its end: (wall seconds, peak RSS in MB, exit code, stderr)."""
        err = stdout.with_suffix(".err")
        with open(stdout, "wb") as out, open(err, "wb") as errf:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=errf,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:          # interrupted: end the child before leaving
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, usage.ru_maxrss / 1024.0, proc.returncode, err.read_text()[-500:]

    def round_dir(self, label: str) -> Path:
        d = self.work / label
        d.mkdir(parents=True)
        return d

    def check(self, what: str, fn, *args) -> None:
        """Run one output check; a disagreement or a malformed output is recorded."""
        try:
            fn(*args)
        except Exception as exc:
            self.problems.append(f"{what}: {type(exc).__name__}: {exc}")


def add_layers(into: dict, spans_file: Path) -> None:
    data = json.loads(spans_file.read_text())
    for name, secs in tracer.self_times(data["spans"]).items():
        into[f"{name}.s"] = into.get(f"{name}.s", 0.0) + secs
    for name, count in data["counts"].items():
        into[name] = into.get(name, 0) + count
    for name, count in data["cache"].items():
        into[f"cache.{name}"] = into.get(f"cache.{name}", 0) + count


# -- workloads ------------------------------------------------------------------------------


VERIFY_ARGS = ["verify-all", "--n-max", "12", "--format", "json"]


def acceptance(h: Harness, seed: int, label: str, traced: bool) -> Round:
    d = h.round_dir(label)
    stdout, spans = d / "verify.out", d / "verify.spans"
    if traced:
        argv = [str(BENCH / "tracer.py"), "--spans", str(spans), "cli", *VERIFY_ARGS]
    else:
        argv = ["-m", "spinroot.cli", *VERIFY_ARGS]
    seconds, rss, code, err = h.spawn(argv, stdout)
    op, layers = Op("verify-all", seconds), {}
    if code != 0:
        op.error = f"exit {code}: {err.strip()}"
        h.problems.append(f"verify-all: unexpected failure {op.error}")
    else:
        if traced:
            add_layers(layers, spans)
        h.check("verify-all", checks.acceptance, stdout.read_text())
    return Round([op], seconds, rss, layers)


EXPORTED_ROOTS = ("F4", "H4")


def check_exports(h: Harness) -> None:
    """Untimed, after the rounds: `export roots F4` and `H4`, invoked twice in fresh
    processes.  The first files pass the exact checks; the second must be byte-identical."""
    dirs = [h.round_dir(f"export{i}") for i in (1, 2)]
    for d in dirs:
        for system in EXPORTED_ROOTS:
            argv = ["-m", "spinroot.cli", "export", "roots", system, "--out", str(d)]
            code, err = h.spawn(argv, d / f"{system}.out")[2:]
            if code != 0:
                h.problems.append(f"export roots {system}: exit {code}: {err.strip()}")
                return
    for system in EXPORTED_ROOTS:
        h.check(f"export roots {system}", checks.export_roots, system, dirs[0])
    files = sorted(p.name for p in dirs[0].iterdir() if p.suffix in (".json", ".csv"))
    for name in files:
        if not filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False):
            h.problems.append(f"export {name} differs between two invocations")


def family_sweep(h: Harness, seed: int, label: str, traced: bool) -> Round:
    d = h.round_dir(label)
    out, stdout = d / "sweep.json", d / "sweep.out"
    args = ["--seed", str(seed), "--out", str(out)]
    if traced:
        argv = [str(BENCH / "tracer.py"), "--spans", str(d / "sweep.spans"), "sweep", *args]
    else:
        argv = [str(BENCH / "sweep.py"), *args]
    seconds, rss, code, err = h.spawn(argv, stdout)
    if code != 0:
        h.problems.append(f"family-sweep process: exit {code}: {err.strip()}")
        return Round([Op("family-sweep", seconds, f"exit {code}")], seconds, rss)
    data = json.loads(out.read_text())
    ops = []
    for rec in data["ops"]:
        op = Op(f"{rec['op']} {rec['family']}({rec['n']})", rec["seconds"], rec["error"])
        if op.error is None:
            h.check(op.name, checks.sweep_record, rec)
        elif not checks.known_failure(rec):      # the known fault counts as failed, not wrong
            h.problems.append(f"{op.name}: unexpected failure {op.error}")
        ops.append(op)
    layers = {}
    if traced:
        add_layers(layers, d / "sweep.spans")
    return Round(ops, data["wall_s"], rss, layers)


WORKLOADS = {"acceptance": acceptance, "family-sweep": family_sweep}


# -- one run ------------------------------------------------------------------------------


SETUP_ARGV = ["-c", "import spinroot.cli"]


def warm_up(h: Harness) -> None:
    """One untimed import: fails fast without the program, and writes the bytecode caches."""
    _, _, code, err = h.spawn(SETUP_ARGV, h.work / "setup.out")
    if code != 0:
        raise SystemExit(f"error: cannot import spinroot from {h.root / 'src'}: {err.strip()}")


def setup_sample(h: Harness) -> float:
    """Time for a fresh interpreter to finish `import spinroot.cli`."""
    return h.spawn(SETUP_ARGV, h.work / "setup.out")[0]


def environment() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    base = root / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    try:
        h = Harness(root, work)
        warm_up(h)
        fn = WORKLOADS[workload]
        plain, traced, setup = [], [], []
        n_setup = 0 if trace else SETUP_SAMPLES       # a traced run reports no set-up time
        t0 = time.perf_counter()
        while True:
            # set-up samples are spread over the run, so they see the machine as the rounds do
            setup += [setup_sample(h) for _ in range(n_setup)]
            plain.append(fn(h, seed, f"r{len(plain)}", False))
            if trace:
                traced.append(fn(h, seed, f"t{len(traced)}", True))
            if time.perf_counter() - t0 >= seconds:
                break
        setup += [setup_sample(h) for _ in range(n_setup)]
        if workload == "acceptance":
            check_exports(h)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for r in plain + traced for op in r.ops]
    failed = [op for op in ops if op.error]
    if trace:
        metrics = {}
        for m in PER_LAYER:
            name = m["name"]
            if name == "trace.overhead_s":
                value = (statistics.median(r.wall_s for r in traced)
                         - statistics.median(r.wall_s for r in plain))
            else:
                value = statistics.median(r.layers.get(name, 0) for r in traced)
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.wall_s for r in plain),
            # the geometric mean weighs every operation of a round alike
            "op_gmean_s": statistics.median(
                statistics.geometric_mean(op.seconds for op in r.ops) for r in plain),
            "peak_rss_mb": max(r.rss_mb for r in plain),
        }
        units = {"peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units.get(k, "s")} for k, v in values.items()}
    result = {"correct": not h.problems, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": len(plain), "traced_rounds": len(traced), "env": environment(),
        "problems": h.problems,
        "operations": [{"name": op.name, "seconds": op.seconds, "failed": bool(op.error),
                        "error": op.error} for op in ops],
    }
    return result, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "spinroot" / "__init__.py").is_file():
        print(f"error: no spinroot sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    if not PER_LAYER:
        print("error: BENCHMARK.json is missing beside the benchmark directory", file=sys.stderr)
        return 2
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    for problem in detail["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
