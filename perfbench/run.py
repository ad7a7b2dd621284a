#!/usr/bin/env python3
"""Build cts-daemon and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Both builds go to $CARGO_TARGET_DIR
(default `.bench_build` under the checkout); scratch files (daemon data
directories, logs, span dumps) go to `.perfbench/`. The last line of
standard output is the JSON result; the exit code is non-zero when a build
fails or any answer is wrong.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def build(args, cwd):
    res = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        cwd=cwd,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if res.returncode != 0:
        sys.stderr.write("perfbench: build failed: cargo %s\n" % " ".join(args))
        sys.exit(res.returncode or 1)


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.stderr.write("perfbench: no workspace at %s to build cts-daemon from\n" % ROOT)
        sys.exit(2)
    build(["-p", "cts-daemon", "--bin", "cts-daemon"], ROOT)
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], ROOT)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "cts-perfbench"),
        "--daemon",
        os.path.join(release, "cts-daemon"),
        "--workdir",
        os.path.join(ROOT, ".perfbench"),
    ] + sys.argv[1:]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
