"""Fast self-test of the benchmark harness (about a minute).

    python3 perfbench/selftest.py

Runs a tiny workload (`knutson sn 4`, `seq a363675 --limit 10`,
`seq a363701 --limit 10`) through
the same code as the real workloads and checks that:
- every end-to-end and per-layer metric of BENCHMARK.json is emitted,
  with its unit, and nothing else;
- the trace reaches the `seq` functions the CLI calls through its
  dispatch table;
- a deliberately wrong expected value counts as a failed command;
- a command that overruns its timeout is killed and counted as failed;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import checks
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke(k_s4: int) -> run.Workload:
    return run.Workload("smoke", (
        run.Command(("knutson", "sn", "4", "--format", "json", "--no-cache"),
                    checks.check_index("S4", k_s4)),
        run.Command(("seq", "a363675", "--limit", "10"), checks.check_sequence("a363675", 10)),
        run.Command(("seq", "a363701", "--limit", "10"), checks.check_sequence("a363701", 10)),
    ))


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"selftest ok: {what}", flush=True)


def expect_metrics(report: dict, spec: list[dict], kind: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    expect(got == want, f"{kind} metrics emitted with their units ({len(want)})")
    expect(
        all(isinstance(m["value"], (int, float)) for m in report["metrics"].values()),
        f"{kind} metric values are numbers",
    )


def main() -> int:
    plain = run.measure(smoke(1), seed=1, seconds=0, trace=False)
    expect(plain["correct"] and plain["failed"] == 0 and plain["attempted"] == 3,
           "tiny workload runs and passes its checks")
    expect_metrics(plain, SPEC["end_to_end"], "end-to-end")
    expect(all(m["value"] > 0 for m in plain["metrics"].values()),
           "end-to-end metrics are non-zero")

    traced = run.measure(smoke(1), seed=1, seconds=0, trace=True)
    expect(traced["correct"], "traced pass passes its checks")
    expect_metrics(traced, SPEC["per_layer"], "per-layer")
    layer = {k: m["value"] for k, m in traced["metrics"].items()}
    expect(layer["knutsonlat.min_multiplier.calls"] > 0 and layer["partitions.yielded"] > 0,
           "the trace sees the lattice and partition layers")
    expect(layer["sequences.seq_zero_columns_sn_s"] > 0 and layer["sequences.self_s"] > 0,
           "the trace sees the seq functions called through cli._SEQ_FUNCS")

    wrong = run.measure(smoke(2), seed=1, seconds=0, trace=False)
    expect(not wrong["correct"] and wrong["failed"] == 1 and wrong["attempted"] == 3,
           "a wrong expected value shows up as error_rate 1/3")

    saved = run.COMMAND_TIMEOUT_S
    run.COMMAND_TIMEOUT_S = 0.05
    try:
        slow = run.measure(smoke(1), seed=1, seconds=0, trace=False)
    finally:
        run.COMMAND_TIMEOUT_S = saved
    expect(slow["failed"] == slow["attempted"], "commands over their timeout count as failed")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "index",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without the sources the benchmark exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
