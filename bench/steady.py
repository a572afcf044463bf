"""Steadiness check: two sets of runs of the same commit, compared metric by metric.

    python3 bench/steady.py --runs 10               # every workload
    python3 bench/steady.py --runs 5 --workload family-sweep

Run from the root of a checkout.  Each run is `bench/run.py` with its own seed
(set k uses seeds k*1000+1 ... k*1000+runs) and the run length from
BENCHMARK.json.  For each workload and end-to-end metric it prints both
medians, each set's quartile spread (q3 - q1) / median, and whether the two
medians differ by at most the metric's bound, either way, and every spread
stays within the bound.  The share of failed operations must be the same in
both sets.  All runs, with Python/numpy versions and nproc, go to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SETS = 2


def one_run(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run {workload} seed {seed} failed ({proc.returncode}): "
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return {"seed": seed, "run_s": time.perf_counter() - t0, "result": result,
            "env": detail["env"], "rounds": detail["rounds"], "problems": detail["problems"]}


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def compare(workload: str, sets: list[list[dict]]) -> list[dict]:
    rows = []
    for m in SPEC["end_to_end"]:
        name, bound = m["name"], m["bound"]
        stats = [spread([r["result"]["metrics"][name]["value"] for r in runs]) for runs in sets]
        meds = [s[0] for s in stats]
        spreads = [s[1] for s in stats]
        drift = (meds[1] - meds[0]) / meds[0]
        ok = abs(drift) <= bound and all(s <= bound for s in spreads)
        rows.append({"workload": workload, "metric": name, "unit": m["unit"], "bound": bound,
                     "medians": meds, "spreads": spreads, "drift": drift, "ok": ok})
    shares = [sorted({(r["result"]["failed"], r["result"]["attempted"]) for r in runs})
              for runs in sets]
    fracs = {f / a for s in shares for f, a in s}
    rows.append({"workload": workload, "metric": "failed share", "shares": shares,
                 "ok": len(fracs) == 1 and all(r["result"]["correct"]
                                               for runs in sets for r in runs)})
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--out", default=".bench_results/steady.json")
    args = p.parse_args(argv)
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    for k in range(SETS):
        for w in workloads:
            for i in range(args.runs):
                r = one_run(w, (k + 1) * 1000 + i + 1)
                runs[w][k].append(r)
                print(f"set {k + 1} {w} seed {r['seed']}: {r['run_s']:.1f} s, "
                      f"{r['rounds']} rounds, correct={r['result']['correct']}",
                      file=sys.stderr, flush=True)
    rows = [row for w in workloads for row in compare(w, runs[w])]
    print(f"{'workload':<14}{'metric':<13}{'medians':<28}{'spreads':<20}{'drift':>7}"
          f"{'bound':>7}  ok")
    for row in rows:
        if "medians" in row:
            meds = " / ".join(f"{v:.4g}" for v in row["medians"])
            sps = " / ".join(f"{v:.3f}" for v in row["spreads"])
            print(f"{row['workload']:<14}{row['metric']:<13}{meds:<28}{sps:<20}"
                  f"{row['drift']:>+7.3f}{row['bound']:>7}  {row['ok']}")
        else:
            print(f"{row['workload']:<14}{row['metric']:<13}{str(row['shares']):<48}  {row['ok']}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"spec": SPEC, "rows": rows, "runs": runs}, indent=1))
    return 0 if all(row["ok"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
