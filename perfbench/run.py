#!/usr/bin/env python3
"""Build fq and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of an fq checkout.  The build is `dune build` of
bin/fq.exe and perfbench/fqbench.exe (release profile, no shared dune
cache); the run is fqbench with the same arguments, in its own process
group so that a run that overstays is killed together with any fq serve
child it started.  The exit code is fqbench's.

fqbench and the servers it starts all run on one CPU.  On a small shared
host, every wakeup that crosses CPUs risks waiting for the host to
schedule the idle CPU back in (CPU steal); measured across CPUs, the
served latencies swung up to 2x from run to run with the host's load,
pinned they stay within a few percent.
"""

import os
import signal
import subprocess
import sys

TIMEOUT_S = 175


def main():
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/fq.ml")):
        print("run.py: not at the root of an fq checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--profile", "release", "--display", "quiet",
         "bin/fq.exe", "perfbench/fqbench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cmd = ["_build/default/perfbench/fqbench.exe"] + sys.argv[1:]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: fqbench timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
