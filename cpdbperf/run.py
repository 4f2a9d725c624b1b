#!/usr/bin/env python3
"""Build and run the CPDB benchmark from the root of a source checkout.

    python3 cpdbperf/run.py --workload query --seed 1 --seconds 10 --trace 0

It builds cmd/cpdbd and the cpdbperf command from the checkout's sources
into .bench_build/ (Go's build cache lives there too, so nothing is written
outside the checkout), runs cpdbperf with the given arguments and exits
with its code. Store files and daemon logs go to a per-run directory under
.bench_build/runs that is removed afterwards; a traced run's spans are kept
in .bench_build/traces/<workload>-<seed>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", default="1")
    known, _ = parser.parse_known_args()

    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"), ("GOPATH", "gopath"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(build, sub)
    env.update(GOFLAGS="-mod=mod", GOPROXY="off", GOTOOLCHAIN="local", GOTELEMETRY="off", GOWORK="off")
    bindir = os.path.join(build, "bin")
    cpdbd = os.path.join(bindir, "cpdbd")
    bench = os.path.join(bindir, "cpdbperf")
    for cwd, out, pkg in ((root, cpdbd, "./cmd/cpdbd"), (here, bench, ".")):
        done = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                              stdout=sys.stderr)
        if done.returncode != 0:
            print("run.py: building %s failed" % pkg, file=sys.stderr)
            return done.returncode or 1

    os.makedirs(os.path.join(build, "runs"), exist_ok=True)
    os.makedirs(os.path.join(build, "traces"), exist_ok=True)
    rundir = tempfile.mkdtemp(dir=os.path.join(build, "runs"))
    spans = os.path.join(build, "traces", "%s-%s.jsonl" % (known.workload or "none", known.seed))
    try:
        done = subprocess.run([bench, *sys.argv[1:], "-cpdbd", cpdbd, "-dir", rundir, "-spans", spans],
                              cwd=root)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
