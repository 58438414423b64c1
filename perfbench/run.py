#!/usr/bin/env python3
"""Build the benchmark and run it.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--jobs N]

Builds the `perfbench` package in release mode with the repository's own
`[profile.release]` settings (so it is compiled the way `figures` is), then
runs it from the repository root with the same arguments and passes its exit
code through. The last line on stdout is the JSON result. Cargo builds into
`$CARGO_TARGET_DIR`, or `.bench_build/` when that is unset.
"""

import json
import os
import signal
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def toml_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return json.dumps(str(value))


def release_profile():
    """`--config` overrides mirroring the root manifest's release profile."""
    with open(os.path.join(ROOT, "Cargo.toml"), "rb") as f:
        release = tomllib.load(f).get("profile", {}).get("release", {})
    flags, desc = [], []
    for key, value in sorted(release.items()):
        if isinstance(value, (bool, int, str)):
            flags += ["--config", f"profile.release.{key}={toml_value(value)}"]
            desc.append(f"{key}={toml_value(value).strip(chr(34))}")
    return flags, " ".join(desc)


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_child(cmd, **kwargs):
    """Run `cmd` to completion; kill and reap it if we are interrupted."""
    child = subprocess.Popen(cmd, **kwargs)
    try:
        return child.wait()
    except BaseException:
        child.kill()
        child.wait()
        raise


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        flags, desc = release_profile()
    except OSError as e:
        print(f"run.py: cannot read the repository manifest: {e}", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env["PERFBENCH_PROFILE_FLAGS"] = desc
    env["PERFBENCH_GIT_REV"] = git_rev()
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ] + flags
    if run_child(build, cwd=ROOT, env=env, stdout=sys.stderr) != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    exe = os.path.join(target, "release", "aff-perfbench")
    return run_child([exe] + sys.argv[1:], cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())
