#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format, that every workload runs
untraced and traced, that each run's last line is the result object with
every named metric and its unit, that all correctness checks pass
(including the traced loop reproducing the estimators bit for bit), and
that the benchmark refuses to run without the program's source.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def check_benchmark_json(bench: dict) -> None:
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert 1 <= len(bench["paths"]) <= 16
    for p in bench["paths"]:
        assert PATH.fullmatch(p) and not p.startswith("/") and ".." not in p.split("/"), p
    assert 1 <= len(bench["command"]) <= 32
    assert all(len(c) <= 200 and not c.startswith("/") for c in bench["command"])
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in bench[key]]
    assert len(names) == len(set(names)), "names must be unique"
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_run(bench: dict, workload: str, trace: int) -> None:
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    failed_checks = [line for line in lines if line.startswith("# check") and "FAIL" in line]
    assert result["correct"] and result["failed"] == 0, failed_checks
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float))
        assert trace or got["value"] > 0, (m, got)
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m
    for name in ("solve_s", "reps_per_s", "checks_failed_frac"):
        assert any(line.startswith(name) for line in lines), name
    if trace:
        assert "# check trace.reproduces_estimators: pass" in lines
        assert result["metrics"]["trace.accounted_frac"]["value"] > 0.95
    print(f"ok  {workload} trace={trace} ({result['attempted']} checks)", flush=True)


def check_refuses_without_program() -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(["--workload", "put_solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without src/stopline", flush=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_benchmark_json(bench)
    print("ok  BENCHMARK.json format", flush=True)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace)
    check_refuses_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
