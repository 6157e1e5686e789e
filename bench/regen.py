#!/usr/bin/env python3
"""Regenerates every artifact declared in bench/artifacts.json and checks it.

Build the default tree first (cmake -B build -S . && cmake --build build -j),
then run from anywhere:

  python3 bench/regen.py [--jobs=N]

Each artifact's bench runs at --jobs=1 and at --jobs=N (default: the host's
CPU count), and its stdout is compared with tests/golden/<bench>.txt; an
artifact without a golden (fig10) is compared with its own --jobs=1 output.
Prints one JSON line naming the host and the commit, then one per
(artifact, jobs): host wall and user seconds, peak RSS and whether the output
matched. The last lines give each job count's total wall and user seconds,
the end-to-end cost of regenerating every artifact. Exits 1 if any output
differs or any bench fails.

To record a run, append it to the trajectory file:

  python3 bench/regen.py --jobs=4 >> bench/regen_trajectory.jsonl

Wall times compare only between runs on one host.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
BUILD = os.path.join(ROOT, "build")
GOLDEN = os.path.join(ROOT, "tests", "golden")


def host(jobs):
    """The host line: what a wall time is comparable with."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = subprocess.run(
        ["git", "-C", ROOT, "describe", "--always", "--dirty"],
        capture_output=True, text=True).stdout.strip()
    build_type = None
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("EASYIO_CONFIGURED_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return {"host": cpu, "nproc": os.cpu_count(), "commit": commit,
            "build_type": build_type, "jobs": jobs}


def run(binary, jobs):
    """Runs one bench; returns (stdout, exit code, wall s, user s, RSS MB)."""
    with tempfile.TemporaryFile() as out:
        start = time.monotonic()
        proc = subprocess.Popen([binary, f"--jobs={jobs}"], stdout=out,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return (out.read(), proc.returncode, wall, usage.ru_utime,
                usage.ru_maxrss / 1024)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        sys.exit("no build tree: run cmake -B build -S . && "
                 "cmake --build build -j first")

    with open(os.path.join(ROOT, "bench", "artifacts.json")) as f:
        artifacts = json.load(f)
    job_counts = sorted({1, args.jobs})
    print(json.dumps(host(args.jobs)), flush=True)
    totals = {jobs: [0.0, 0.0] for jobs in job_counts}
    ok = True
    for name, entry in artifacts.items():
        expected = None
        if entry["golden"]:
            with open(os.path.join(GOLDEN, name + ".txt"), "rb") as f:
                expected = f.read()
        for jobs in job_counts:
            stdout, code, wall, user, rss = run(
                os.path.join(BUILD, "bench", name), jobs)
            if expected is None:
                # No golden: the first run is the reference for the others.
                expected, match = stdout, None
            else:
                match = stdout == expected
            match = match if code == 0 else False
            ok = ok and match is not False
            totals[jobs][0] += wall
            totals[jobs][1] += user
            print(json.dumps({
                "artifact": name, "jobs": jobs, "wall_s": round(wall, 3),
                "user_s": round(user, 3), "max_rss_mb": round(rss, 1),
                "match": match}), flush=True)
    for jobs, (wall, user) in totals.items():
        print(json.dumps({"artifact": "total", "jobs": jobs,
                          "wall_s": round(wall, 3), "user_s": round(user, 3)}),
              flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
