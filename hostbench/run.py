#!/usr/bin/env python3
"""Builds and runs the EasyIO host-cost benchmark.

Run from the repository root:

  python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>
      Builds the benchmark (first run only) into .bench_build/, runs one
      measurement and prints its result as the last stdout line.
  python3 hostbench/run.py --smoke
      Runs every workload at tiny size, traced and untraced, and fails unless
      every metric named in BENCHMARK.json is printed with its unit, no
      operation failed, and the traced and untraced runs of each workload
      print the same simulated digest.
  python3 hostbench/run.py --compare A.json B.json
      Compares two saved results (.bench_out/<workload>-seed<n>-trace<t>.json)
      metric by metric, and flags a comparison across host fingerprints.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")
BUILD = os.path.join(os.getcwd(), ".bench_build", "hostbench")
OUT = os.path.join(os.getcwd(), ".bench_out")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    def run(cmd):
        # Build logs go to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(done.returncode)

    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "--build", BUILD, "--target", "hostbench", "-j", jobs])
    return os.path.join(BUILD, "hostbench")


def last_json_line(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def digest_line(text):
    return next((l for l in text.splitlines() if l.startswith("digest ")),
                None)


def smoke(binary):
    with open(SPEC) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        digests = set()
        for trace, wanted in (("0", spec["end_to_end"]),
                              ("1", spec["per_layer"])):
            done = subprocess.run(
                [binary, "--workload", name, "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--smoke",
                 "--out-dir", os.path.join(OUT, "smoke")],
                capture_output=True, text=True)
            where = f"{name} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: "
                                f"{done.stderr.strip()[-300:]}")
                continue
            result = last_json_line(done.stdout)
            digests.add(digest_line(done.stdout))
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}")
            metrics = result["metrics"]
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{where}: metric {m['name']} missing")
                elif got.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} has unit "
                                    f"{got.get('unit')}, want {m['unit']}")
            extra = set(metrics) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{where}: unlisted metrics {sorted(extra)}")
            print(f"smoke {where}: {len(metrics)} metrics, "
                  f"failed_frac={result['failed'] / result['attempted']:g}")
        if len(digests) != 1 or None in digests:
            problems.append(f"{name}: simulated digest differs between "
                            f"runs: {sorted(map(str, digests))}")
    for p in problems:
        print("FAIL", p)
    print("smoke: OK" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if a["fingerprint"] != b["fingerprint"]:
        print("WARNING: the two results come from different hosts or builds;"
              " their timings are not comparable.")
        for key in sorted(set(a["fingerprint"]) | set(b["fingerprint"])):
            va, vb = a["fingerprint"].get(key), b["fingerprint"].get(key)
            if va != vb:
                print(f"  {key}: {va!r} vs {vb!r}")
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in ma:
        if name in mb:
            va, vb = ma[name]["value"], mb[name]["value"]
            ratio = f"{vb / va:.4f}x" if va else "n/a"
            print(f"{name:28s} {va:14.6g} {vb:14.6g} {ratio:>10s} "
                  f"{ma[name]['unit']}")
    return 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            print(__doc__, file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    binary = build()
    if argv == ["--smoke"]:
        return smoke(binary)
    done = subprocess.run([binary] + argv + ["--out-dir", OUT])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
