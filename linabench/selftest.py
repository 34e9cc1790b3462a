#!/usr/bin/env python3
"""Tiny-size self-test of the lina benchmark.

Run from the root of a checkout:

    python3 linabench/selftest.py

Builds the benchmark (see run.py), then runs every workload at a tiny
input size and asserts that:
  * the metric list the binary reports equals BENCHMARK.json's;
  * every metric of BENCHMARK.json is emitted, finite, with its unit, on
    the default seed and on a held-out seed, untraced and traced;
  * those runs check at least one output and report error_rate 0, and the
    traced runs drop no span and write a Chrome trace;
  * a deliberately corrupted reference raises error_rate above 0.
Exits non-zero on the first failed assertion.
"""

import json
import math
import pathlib
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's build step)

DEFAULT_SEED = 7
HELD_OUT_SEED = 20141017


def load_benchmark():
    with open(run.ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def invoke(binary, *args):
    # The thread settings come from BENCHMARK.json's command.
    command = load_benchmark()["command"]
    threads = command[command.index("linabench/run.py") + 1:]
    out = subprocess.run(
        [str(binary), "--size", "tiny", "--seconds", "0.5"] + threads
        + list(args),
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"{args}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(result, expected, what):
    got = result["metrics"]
    assert set(got) == set(expected), (
        f"{what}: metric names differ: missing {set(expected) - set(got)}, "
        f"extra {set(got) - set(expected)}")
    for name, unit in expected.items():
        value = got[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            f"{what}: {name} = {value!r} is not a finite number")
        assert got[name]["unit"] == unit, (
            f"{what}: {name} has unit {got[name]['unit']!r}, want {unit!r}")
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)


def main():
    bench = load_benchmark()
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    binary = run.build()

    listed = subprocess.run([str(binary), "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout.split("\n")
    rows = [line.split() for line in listed if line]
    assert {r[1]: r[2] for r in rows if r[0] == "end_to_end"} == end_to_end
    assert {r[1]: r[2] for r in rows if r[0] == "per_layer"} == per_layer
    workloads = [r[1] for r in rows if r[0] == "workload"]
    assert workloads == [w["name"] for w in bench["workloads"]], workloads

    for workload in workloads:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            base = ["--workload", workload, "--seed", str(seed)]
            what = f"{workload} seed {seed}"
            result = invoke(binary, *base, "--trace", "0")
            check_metrics(result, end_to_end, what + " untraced")
            assert result["correct"] and result["failed"] == 0, what
            spans = run.ROOT / ".bench_out" / f"selftest-{workload}.json"
            result = invoke(binary, *base, "--trace", "1",
                            "--spans-out", str(spans))
            check_metrics(result, per_layer, what + " traced")
            assert result["correct"] and result["failed"] == 0, what
            values = {k: v["value"] for k, v in result["metrics"].items()}
            assert values["error_rate"] == 0, what
            assert values["bench.spans_dropped"] == 0, what
            assert values["bench.passes"] >= 1, what
            with open(spans) as f:
                assert json.load(f)["traceEvents"], what
            spans.unlink()
        for trace in ("0", "1"):
            result = invoke(binary, "--workload", workload, "--seed",
                            str(DEFAULT_SEED), "--trace", trace,
                            "--corrupt-reference")
            assert not result["correct"] and result["failed"] > 0, (
                f"{workload}: a corrupted reference went unnoticed")
            if trace == "1":
                assert result["metrics"]["error_rate"]["value"] > 0
        print(f"selftest: {workload} ok", flush=True)
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
