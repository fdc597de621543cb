#!/usr/bin/env python3
"""Build `serve_tcp` and the benchmark from source, then make one run.

    python3 perfbench/run.py --workload hot_small --seed 1 --seconds 40 --trace 0

Run from the repository root.  Cargo output goes to stderr; the benchmark's
own report goes to stdout and ends with one JSON line.  Artifacts land in
`$CARGO_TARGET_DIR` (default `.bench_build`); results in `.bench_out/`.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cargo_build(args, env):
    """Run one offline release build; its output goes to stderr."""
    command = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = (
        ["-p", "cpm-serve", "--bin", "serve_tcp"],
        ["--manifest-path", "perfbench/Cargo.toml"],
    )
    for args in builds:
        code = cargo_build(args, env)
        if code != 0:
            print(f"perfbench: build failed: cargo build {' '.join(args)}", file=sys.stderr)
            return code or 2
    bench = target / "release" / "cpm-perfbench"
    server = target / "release" / "serve_tcp"
    command = [str(bench), *sys.argv[1:], "--server", str(server)]
    return subprocess.run(command, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
