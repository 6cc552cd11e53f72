"""Benchmark of the `knutson` CLI: real commands, run as fresh processes.

    python3 perfbench/run.py --workload index --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it uses the package under
`src/` and writes only under `.bench_build/perfbench/`.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones
(wall_s, cpu_s, peak_rss_mb, setup_s); with --trace 1 they are the
per-layer ones, from an extra pass with every package layer
instrumented by `tracer.py`.  The lines before it give the environment,
each command's time and the error rate.  See README.md for why each
workload exists and which end-to-end metric each layer metric moves.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from tracer import layer_metrics, ratio, unit_of

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"
CLI = "import sys; from knutson.cli import main; sys.exit(main())"
COMMAND_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 165.0  # a run that hangs still exits inside 180 s
IMPORT_TIMEOUT_S = 30.0
SETUP_IMPORTS = 5
IMPORTTIME_REPEATS = 3


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    check: Callable[[bytes], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # "none": every command passes --no-cache; "cold": each pass starts
    # from an empty cache directory; "warm": the cache is filled before
    # timing, and each output must equal the output that filled it.
    cache: str = "none"


def _cmd(line: str, check) -> Command:
    return Command(tuple(line.split()), check)


def _tables(cache: str) -> Workload:
    return Workload(
        f"tables_{cache}",
        tuple(
            _cmd(f"table {kind} {param} --format csv", checks.check_table_csv(kind, param))
            for kind, param in (("sn", 20), ("an", 18), ("sl2", 32), ("psl2", 13))
        ),
        cache,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("index", (
            _cmd("knutson sn 10 --format json --no-cache", checks.check_index("S10", 1)),
            _cmd("knutson an 11 --format json --no-cache", checks.check_index("A11", 1)),
            _cmd(
                "knutson sl2 13 --rho theorem --format json --no-cache",
                checks.check_index("SL2(13)", 2, rho_column="left"),
            ),
            _cmd("knutson psl2 13 --format json --no-cache", checks.check_index("PSL2(13)", 2)),
        )),
        _tables("cold"),
        _tables("warm"),
        Workload("combinatorics", (
            _cmd("seq a363701 --limit 30", checks.check_sequence("a363701", 30)),
            _cmd("seq a363675 --limit 200", checks.check_sequence("a363675", 200)),
            _cmd("seq a363676 --limit 60", checks.check_sequence("a363676", 60)),
            _cmd("cores --n 60 --t 3 --format json", checks.check_cores(60, 3)),
            _cmd("cores --n 60 --t 5 --format json", checks.check_cores(60, 5)),
            _cmd("cores --n 40 --t 4 --format json", checks.check_cores(40, 4)),
        )),
    )
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Result:
    """One finished command."""

    args: tuple[str, ...]
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None
    out: bytes = b""


class Session:
    """Work directory, child environment and deadline of one benchmark run."""

    def __init__(self, tag: str) -> None:
        if not (ROOT / "src" / "knutson" / "cli.py").is_file():
            raise SystemExit(f"error: no knutson sources under {ROOT / 'src'}")
        self.start = time.perf_counter()
        self.work = WORK / f"{tag}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.cache = self.work / "cache"
        self.env = dict(os.environ)
        for var in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONSTARTUP"):
            self.env.pop(var, None)
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            KNUTSON_CACHE_DIR=str(self.cache),
        )

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def reset_cache(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)

    def spawn(self, argv: list[str], timeout: float | None = None):
        """Run argv to completion; (wall_s, rusage, exit code or None on timeout, stdout, stderr)."""
        timeout = min(
            COMMAND_TIMEOUT_S if timeout is None else timeout,
            RUN_DEADLINE_S - (time.perf_counter() - self.start),
        )
        if timeout <= 0:
            return 0.0, None, None, b"", b""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
        finished = False
        pidfd = os.pidfd_open(proc.pid)
        try:
            finished = bool(select.select([pidfd], [], [], timeout)[0])
        finally:  # on a timeout or an interrupt, the child is killed and reaped
            os.close(pidfd)
            if not finished:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = proc.returncode if finished else None
        return wall, usage, code, out_path.read_bytes(), err_path.read_bytes()

    def run(self, cmd: Command, prefix: list[str], expected: bytes | None = None) -> Result:
        wall, usage, code, out, err = self.spawn(prefix + list(cmd.args))
        if usage is None:
            return Result(cmd.args, 0.0, 0.0, 0.0, "not run: run deadline reached")
        cpu = usage.ru_utime + usage.ru_stime
        rss = usage.ru_maxrss / 1024
        if code is None:
            error = f"timed out after {wall:.1f} s"
        elif code != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
            error = f"exit code {code}: {tail[0]}"
        else:
            try:
                error = cmd.check(out)
            except ValueError as exc:  # includes UnicodeDecodeError
                error = f"unparseable output: {exc}"
            if error is None and expected is not None and out != expected:
                error = "output differs from the cold-cache output"
        return Result(cmd.args, wall, cpu, rss, error, out)

    def expired(self) -> bool:
        return time.perf_counter() - self.start >= RUN_DEADLINE_S


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def cli_prefix() -> list[str]:
    return python("-c", CLI)


def bytecode_state() -> str:
    """Whether src/knutson has compiled bytecode for this interpreter."""
    sources = sorted((ROOT / "src" / "knutson").glob("*.py"))
    cache = ROOT / "src" / "knutson" / "__pycache__"
    tag = sys.implementation.cache_tag
    have = sum((cache / f"{src.stem}.{tag}.pyc").is_file() for src in sources)
    return "warm" if have == len(sources) else "cold" if have == 0 else "partial"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def environment(bytecode_before: str) -> dict:
    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = "missing"
    return {
        "python": platform.python_version(),
        "sympy": sympy,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "bytecode_before_setup": bytecode_before,
        "bytecode_timed": bytecode_state(),
    }


def import_knutson(session: Session, module: str = "knutson") -> float:
    wall, _, code, _, err = session.spawn(python("-c", f"import {module}"), IMPORT_TIMEOUT_S)
    if code != 0:
        raise SystemExit(f"error: `import {module}` failed: {err.decode(errors='replace')}")
    return wall


def import_times(session: Session) -> tuple[float, float]:
    """(sympy cumulative, knutson modules' own) import seconds, by -X importtime."""
    sympy, own = [], []
    for _ in range(IMPORTTIME_REPEATS):
        _, _, code, _, err = session.spawn(
            python("-X", "importtime", "-c", "import knutson"), IMPORT_TIMEOUT_S
        )
        if code != 0:
            raise SystemExit("error: `import knutson` failed under -X importtime")
        s = k = 0
        for line in err.decode().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            if not self_us.strip().isdigit():
                continue  # the header line
            if name == "sympy":
                s = int(cumulative_us) / 1e6
            if name == "knutson" or name.startswith("knutson."):
                k += int(self_us) / 1e6
        sympy.append(s)
        own.append(k)
    return statistics.median(sympy), statistics.median(own)


def warm_outputs(session: Session, workload: Workload) -> dict[tuple, bytes]:
    """Fill the table cache once per source tree; return the cold outputs.

    The filled cache and the outputs that filled it are kept under
    WORK/warm/<hash of src/knutson>, and each run starts from a copy of
    that cache, so the fill (about 18 s) is not paid on every run.
    """
    digest = hashlib.sha256(sys.version.encode())
    for src in sorted((ROOT / "src" / "knutson").glob("*.py")):
        digest.update(src.name.encode() + src.read_bytes())
    store = WORK / "warm" / digest.hexdigest()[:16]
    if not store.is_dir():
        session.reset_cache()
        fill = [session.run(cmd, cli_prefix()) for cmd in workload.commands]
        if any(r.error for r in fill):
            return {r.args: r.out for r in fill if r.error is None}
        tmp = WORK / "warm" / f"{store.name}.tmp-{os.getpid()}"
        shutil.copytree(session.cache, tmp / "cache")
        for i, r in enumerate(fill):
            (tmp / f"{i}.out").write_bytes(r.out)
        tmp.rename(store)
    session.reset_cache()
    shutil.copytree(store / "cache", session.cache)
    return {
        cmd.args: (store / f"{i}.out").read_bytes() for i, cmd in enumerate(workload.commands)
    }


def timed_loop(session: Session, workload: Workload, rng: random.Random, seconds: float,
               expected: dict | None) -> list[Result]:
    """Closed loop, one client: shuffled passes over the commands, one command
    at a time, until every command ran once and `seconds` have passed."""
    results: list[Result] = []
    begin = time.perf_counter()
    while True:
        if workload.cache == "cold":
            session.reset_cache()
        for cmd in rng.sample(workload.commands, len(workload.commands)):
            elapsed = time.perf_counter() - begin
            if len(results) >= len(workload.commands) and (
                elapsed >= seconds or session.expired()
            ):
                return results
            results.append(session.run(cmd, cli_prefix(), _expected(expected, cmd)))


def _expected(expected: dict | None, cmd: Command) -> bytes | None:
    return None if expected is None else expected.get(cmd.args, b"")


def traced_pass(session: Session, workload: Workload, rng: random.Random,
                expected: dict | None, tag: str) -> tuple[list[Result], list[dict]]:
    """One pass with every command under tracer.py; (results, trace records)."""
    trace_dir = session.work / "trace"
    trace_dir.mkdir()
    if workload.cache == "cold":
        session.reset_cache()
    results, records = [], []
    for i, cmd in enumerate(rng.sample(workload.commands, len(workload.commands))):
        out = trace_dir / f"{i}.json"
        prefix = python(str(BENCH_DIR / "tracer.py"), str(out), f"{tag}-c{i}", "--")
        results.append(session.run(cmd, prefix, _expected(expected, cmd)))
        if out.is_file():
            records.append(json.loads(out.read_text()))
    return results, records


def per_command(results: list[Result], field: str) -> dict[tuple, float]:
    """Median of one field per command."""
    samples: dict[tuple, list[float]] = {}
    for r in results:
        samples.setdefault(r.args, []).append(getattr(r, field))
    return {args: statistics.median(v) for args, v in samples.items()}


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, time the workload for `seconds`, check every output; the report."""
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    session = Session(tag)
    try:
        return _measure(session, workload, seed, seconds, trace, tag)
    finally:
        session.close()


def _measure(session: Session, workload: Workload, seed: int, seconds: float,
             trace: bool, tag: str) -> dict:
    rng = random.Random(seed)
    bytecode_before = bytecode_state()
    import_knutson(session, "knutson.cli")  # compile once: every timed import is warm
    setup_s = statistics.median(import_knutson(session) for _ in range(SETUP_IMPORTS))
    env = environment(bytecode_before)
    print("env " + json.dumps(env), flush=True)
    expected = warm_outputs(session, workload) if workload.cache == "warm" else None

    timed = timed_loop(session, workload, rng, seconds, expected)
    ran = [r for r in timed if r.wall_s]  # leave out commands the deadline skipped
    wall = per_command(ran, "wall_s")
    metrics = {
        "wall_s": sum(wall.values()),
        "cpu_s": sum(per_command(ran, "cpu_s").values()),
        "peak_rss_mb": max(r.rss_mb for r in timed),
        "setup_s": setup_s,
    }
    results = list(timed)
    spans_file = None
    if trace:
        traced, records = traced_pass(session, workload, rng, expected, tag)
        results += traced
        metrics = layer_metrics(records)
        metrics["import.sympy_s"], metrics["import.knutson_self_s"] = import_times(session)
        metrics["trace.overhead_ratio"] = ratio(
            sum(r.wall_s for r in traced), sum(wall.values())
        )
        spans_file = WORK / "results" / f"{tag}-spans.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps([
            {
                "trace_id": rec["trace_id"], "argv": rec["argv"],
                "spans_dropped": rec["spans_dropped"],
                "spans": [
                    dict(zip(("id", "parent", "name", "start_s", "end_s"), s))
                    for s in rec["spans"]
                ],
            }
            for rec in records
        ]))

    failed = [r for r in results if r.error is not None]
    report = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {
            k: {"value": v, "unit": END_TO_END_UNITS.get(k) or unit_of(k)}
            for k, v in metrics.items()
        },
    }
    print(f"workload {workload.name}: closed loop, one client, "
          f"{len(timed)} timed commands in {sum(r.wall_s for r in timed):.1f} s")
    for args, w in wall.items():
        n = sum(r.args == args for r in timed)
        print(f"  {w:8.3f} s  median of {n}  {' '.join(args)}")
    for r in failed:
        print(f"  FAILED {' '.join(r.args)}: {r.error}")
    print(f"error_rate {ratio(len(failed), len(results))} ratio "
          f"({len(failed)} failed of {len(results)} attempted)", flush=True)
    record = WORK / "results" / f"{tag}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env, "spans_file": str(spans_file) if spans_file else None,
        "commands": [
            {"args": list(r.args), "wall_s": r.wall_s, "cpu_s": r.cpu_s,
             "rss_mb": r.rss_mb, "error": r.error}
            for r in results
        ],
        **report,
    }, indent=1))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    report = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
