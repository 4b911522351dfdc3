#!/usr/bin/env python3
"""Run one workload of the IMCa simulator benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest [--seed <n>]

Run it from the root of a source checkout. It builds perfbench/ (which
compiles the simulator from src/) with CMake in Release mode into
.bench_build/perfbench, runs the benchmark binary and prints:

  * a machine and build tag (nproc, CPU model, build type, compiler, git rev);
  * every metric the run produced, with its unit and sample count, and the
    run's correctness checks;
  * as the last line, one JSON object with the keys correct, attempted,
    failed and metrics. metrics holds BENCHMARK.json's end_to_end metrics
    with --trace 0 and its per_layer metrics with --trace 1.

The full run record, tags included, is saved under .bench_build/results/.
The exit status is 0 for a correct run and nonzero if any op failed, any
read returned wrong bytes, any check failed, or the build failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
BINARY_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the benchmark; build output goes to stderr."""
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={ROOT / 'perfbench'}" \
            not in cache.read_text(errors="replace"):
        shutil.rmtree(BUILD)  # configured for another checkout location
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", "perfbench", "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def machine_tag():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rev = "none"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            rev = r.stdout.strip()
    # A checkout without git still identifies its sources by content.
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "git_rev": rev, "source_sha256": h.hexdigest()[:16]}


def print_table(rec, tag):
    print(f"# machine: nproc={tag['nproc']} cpu=\"{tag['cpu']}\""
          f" build={rec['build_type']} compiler=\"{rec['compiler']}\""
          f" git_rev={tag['git_rev']} sources={tag['source_sha256']}")
    sz = rec["sizing"]
    print(f"# workload={rec['workload']} seed={rec['seed']} trace={rec['trace']}"
          f" reps={rec['reps']} clients={sz['clients']} mcds={sz['mcds']}"
          f" mcd_memory={sz['mcd_memory_bytes']}B"
          f" page_cache={sz['page_cache_bytes']}B"
          f" working_set={sz['working_set_bytes']}B"
          f" inputs={rec['input_digest']}")
    for m in rec["metrics"]:
        n = f"n={m['samples']}" if m["samples"] else ""
        print(f"{m['name']:<40} {m['value']:>18.6f} {m['unit']:<6} {n}")
    for c in rec["checks"]:
        print(f"# check {c['name']}: {'ok' if c['ok'] else 'FAILED'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "cluster" / "testbed.h").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from the root"
             " of a source checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    build()

    if args.selftest:
        sys.exit(subprocess.run([str(BINARY), "--selftest", "--seed",
                                 str(args.seed)], cwd=ROOT,
                                timeout=BINARY_TIMEOUT_S).returncode)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    results = ROOT / ".bench_build" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(results / f"{stem}.spans.tsv")]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=BINARY_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"benchmark binary exited with {out.returncode}")
    rec = json.loads(lines[-1])
    tag = machine_tag()
    rec["machine"] = tag
    (results / f"{stem}.json").write_text(json.dumps(rec, indent=1) + "\n")
    print_table(rec, tag)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    have = {m["name"]: m for m in rec["metrics"]}
    missing = [w["name"] for w in wanted if w["name"] not in have]
    if missing:
        fail("run produced no value for " + ", ".join(missing))
    wrong = [w["name"] for w in wanted if w["unit"] != have[w["name"]]["unit"]]
    if wrong:
        fail("unit differs from BENCHMARK.json for " + ", ".join(wrong))
    result = {
        "correct": bool(rec["correct"]),
        "attempted": int(rec["attempted"]),
        "failed": int(rec["failed"]),
        "metrics": {w["name"]: {"value": have[w["name"]]["value"],
                                "unit": have[w["name"]]["unit"]}
                    for w in wanted},
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
