#!/usr/bin/env python3
"""Builds the CSC benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build), then run with the same
arguments plus the source revision. Its standard output ends with one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
# Sources whose content names the revision when git is unavailable.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".bench_work", ".git"}


def source_rev():
    """The git commit, or a hash of the source tree outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        return out.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, subdirs, names in os.walk(path):
                subdirs[:] = sorted(s for s in subdirs if s not in SKIP_DIRS)
                files.extend(os.path.join(d, n) for n in sorted(names))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:12]


def pin_one_cpu():
    """Runs the benchmark on one CPU of those allowed.

    The reader and the writer then always share exactly one core, however
    many of the host's cores happen to be free during the run.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "csc-perfbench")
    run = subprocess.run(
        [binary, *sys.argv[1:], "--rev", source_rev()], env=env, preexec_fn=pin_one_cpu
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
