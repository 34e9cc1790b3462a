#!/usr/bin/env python3
"""Builds the lina benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 linabench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--threads <n>]

The build goes to $CARGO_TARGET_DIR/linabench (default
.bench_build/linabench) and is incremental. Trace shards and snapshots
are written under .bench_work/run-<pid>/ and removed when the run ends;
traced runs write their spans as Chrome trace-event JSON under
.bench_out/. The last line of stdout is the benchmark's JSON result. Any
other argument is passed to the benchmark binary unchanged.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "linabench"


def fail(message):
    print(f"linabench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no lina sources under {ROOT / 'src'}; run from a full checkout")
    target_dir = pathlib.Path(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    build_dir = target_dir / "linabench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "linabench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "linabench"


def option(args, name):
    """The value following `name` in args, or None."""
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def warm_up(binary, args):
    """Runs one tiny, discarded process after each new build.

    The first process after a build runs noticeably slower (cold page
    cache for the binary and its inputs), so it is not left to a
    measured run.
    """
    marker = binary.parent / "warmed-up"
    if marker.is_file() and marker.stat().st_mtime >= binary.stat().st_mtime:
        return
    workload = option(args, "--workload")
    if workload is None:
        return
    command = [str(binary), "--workload", workload, "--size", "tiny",
               "--seconds", "1", "--trace", "0"]
    if option(args, "--threads") is not None:
        command += ["--threads", option(args, "--threads")]
    subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=False)
    marker.touch()


def main(argv):
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as error:
        fail(f"build failed: {error}")
    args = list(argv)
    warm_up(binary, args)
    if "--spans-out" not in args and option(args, "--trace") == "1":
        name = f"spans-{option(args, '--workload')}.json"
        args += ["--spans-out", str(ROOT / ".bench_out" / name)]
    sys.stdout.flush()
    return subprocess.run([str(binary)] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
