#!/usr/bin/env python3
"""Build the freqload benchmark from source and run it.

Run from the repository root:

    python3 freqload/run.py --workload ingest_durable --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and every scratch file live under
.bench_build/ in the repository, so a run reads and writes nothing
outside it. The last line of standard output is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "freqload")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("freqload: build failed\n")
        sys.exit(build.returncode or 1)
    args = [binary] + sys.argv[1:] + ["--work-dir", os.path.join(BUILD, "work")]
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(binary, args)


if __name__ == "__main__":
    main()
