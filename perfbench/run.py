#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/campaign.exe with dune from the checkout this file sits in,
then runs one measurement from the checkout's root. The last line of standard
output is the campaign's JSON result: {correct, attempted, failed, metrics}.
The exit status is non-zero when the build fails, a known-answer or
determinism check fails, or no result is printed. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "campaign.exe")
# A campaign run must end within 180 s; keep a margin for the build check.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project in %s: the benchmark builds the qtr library from this checkout" % ROOT)
    # The shared dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/campaign.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode)

    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("campaign did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("campaign printed no result (exit %d)" % run.returncode)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: %s" % lines[-1])
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
