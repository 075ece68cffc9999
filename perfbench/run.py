"""Benchmark of the frontera CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds ``src/frontera`` and
``BENCHMARK.json``. The run writes the workload's seeded inputs to a
scratch directory inside the tree, then repeats passes of the workload's
CLI invocations (fresh ``python -m frontera.cli`` processes, tracing off)
for S seconds. Before each invocation it runs a fixed reference job
(yardstick.py) that reads the machine's current start-up and compute
speed, then times a fresh interpreter importing ``frontera.cli`` (set-up
time). The run's times are scaled by those speeds. The outputs of the
first pass are checked against an independent numpy reference
(check.py); every later pass must be byte-identical to the first. With
``--trace 1`` one more pass runs in-process under the span tracer
(tracing.py). It must reproduce the same bytes, and the traced counts
that the inputs fix must match them.

Every metric is printed by name and unit, then a ``record`` line with the
run's environment, then, as the last line, the JSON result whose metrics
are the end-to-end ones (``--trace 0``) or the per-layer ones
(``--trace 1``), as declared in BENCHMARK.json. The record and the spans
are also written to ``.perfbench_results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import check
import gen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"
MIN_PASSES = 3
# Typical start-up and compute seconds of yardstick.py on the 2-vCPU Xeon
# (2.1 GHz) where the benchmark was defined. Times are reported at those
# speeds: see README.
YARD_START_REF_S = 0.21
YARD_COMPUTE_REF_S = 0.50
# one yardstick process per CPU this process may use, at most two
YARD_CPUS = sorted(os.sched_getaffinity(0))[:2]
CHILD_TIMEOUT_S = 150


def tree_digests(base: Path) -> dict[str, str]:
    """sha256 of every file under each immediate sub-directory of ``base``."""
    out = {}
    for sub in sorted(p for p in base.iterdir() if p.is_dir()):
        h = hashlib.sha256()
        for f in sorted(p for p in sub.rglob("*") if p.is_file()):
            h.update(str(f.relative_to(sub)).encode() + b"\0" + f.read_bytes() + b"\0")
        out[sub.name] = h.hexdigest()
    return out


def files_digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


class Child:
    """One finished child process: exit code, wall and CPU seconds, max RSS."""

    def __init__(self, argv: list[str], env: dict, cwd: Path, stdout: Path, stderr: Path):
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], env=env, cwd=cwd,
                                    stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mib = usage.ru_maxrss / 1024  # Linux reports KiB
        self.stderr = stderr.read_text(errors="replace").strip()


def yardstick(env: dict, cwd: Path, stderr: Path) -> tuple[float, float, str | None]:
    """Mean start-up wall seconds and mean compute seconds of one round of
    yardstick.py processes, one per CPU in YARD_CPUS, and what went wrong,
    if anything (then compute is NaN). The processes start one after
    another and compute at the same time, each pinned to its CPU."""
    procs, starts, computes = [], [], []
    with open(stderr, "wb") as err:
        timer = threading.Timer(CHILD_TIMEOUT_S, lambda: [p.kill() for p in procs])
        timer.start()
        try:
            for _ in YARD_CPUS:
                start = time.perf_counter()
                procs.append(subprocess.Popen(
                    [sys.executable, str(HERE / "yardstick.py")], env=env, cwd=cwd,
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True))
                ready = procs[-1].stdout.readline()
                starts.append(time.perf_counter() - start)
                if ready.strip() != "ready":
                    break
            else:
                for cpu, proc in zip(YARD_CPUS, procs):
                    proc.stdin.write(f"{cpu}\n")
                    proc.stdin.flush()
                computes = [proc.stdout.readline() for proc in procs]
                for proc in procs:
                    proc.wait()
        finally:
            timer.cancel()
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdin.close()
                proc.stdout.close()
    try:
        compute_s = statistics.mean(map(float, computes))
    except ValueError:
        compute_s = math.nan
    codes = [proc.returncode for proc in procs]
    if len(procs) < len(YARD_CPUS) or not compute_s > 0 or any(codes):
        tail = stderr.read_text(errors="replace").strip()[-300:]
        return statistics.mean(starts), math.nan, f"yardstick exit {codes}, output {computes!r}: {tail}"
    return statistics.mean(starts), compute_s, None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("FRONTERA_OUTPUT_DIR", None)
    return env


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        libs = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line}
    except OSError:
        return None
    for lib in libs:
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, files: dict[str, bytes]) -> dict:
    src = {str(p.relative_to(SRC)): p.read_bytes() for p in sorted(SRC.rglob("*.py"))}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "src_sha256": files_digest(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "input_sizes": {**gen.SIZES[args.workload], "files": len(files),
                        "bytes": sum(map(len, files.values()))},
        "input_sha256": files_digest(files),
    }


def check_outputs(workload: str, in_dir: Path, out: Path):
    """Problems per invocation of the first pass, the perturbed outputs the
    check failed to reject, and the traced counts the inputs fix."""
    if workload.startswith("analyze"):
        refs, counts = check.analyze_references(in_dir)
        problems = {"analyze": check.check_analyze(out / "analyze", refs)}
        ref = next(r for r in refs if r["viable"])
        sample = out / "analyze" / ref["name"]
    else:
        refs = [check.replay_reference(in_dir / f"fixture_{k}.json")
                for k in range(gen.REPLAY_FIXTURES)]
        problems = {f"replay_{k}": check.check_replay(out / f"replay_{k}", ref)
                    for k, ref in enumerate(refs)}
        problems["summarize"] = check.check_summary(out / "summarize" / "summary.csv", refs)
        k, ref = next((k, r) for k, r in enumerate(refs) if r["viable"])
        sample = out / f"replay_{k}" / ref["name"]
        # no price data; each viable window is judged once by its replay
        # invocation and once by summarize
        counts = {"market_data.rows_parsed": 0, "market_data.dates_dropped": 0,
                  "market_data.obs_per_window": 0.0,
                  "report.viable_windows": 2 * sum(r["viable"] for r in refs)}
    return problems, check.perturbations_accepted(sample, ref), counts


def traced_pass(workload: str, in_dir: Path, out: Path) -> tuple[tracing.Tracer, list[int]]:
    """One pass in this process under the span tracer; returns the exit codes."""
    sys.path.insert(0, str(SRC))
    import frontera.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [frontera.cli.main(argv) for _, argv in gen.invocations(workload, in_dir, out)]
    finally:
        tracer.uninstall()
    return tracer, codes


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of n={len(values)}, quartiles {q1:.4g}..{q3:.4g}, range {min(values):.4g}..{max(values):.4g}"


def bench(args, declared: dict, run_dir: Path) -> int:
    problems: list[str] = []
    files = gen.generate(args.workload, args.seed)
    if files_digest(gen.generate(args.workload, args.seed)) != files_digest(files):
        problems.append("inputs differ between two generations from the same seed")
    in_dir = run_dir / "in"
    for name, data in files.items():
        (in_dir / name).parent.mkdir(parents=True, exist_ok=True)
        (in_dir / name).write_bytes(data)
    env = child_env()
    logs = run_dir / "logs"
    logs.mkdir()

    def child(argv: list[str], tag: str) -> Child:
        return Child(argv, env, run_dir, logs / f"{tag}.out", logs / f"{tag}.err")

    probe = child(["-c", "import frontera.cli, sys; sys.stdout.write(frontera.cli.__file__)"],
                  "probe")
    where = (logs / "probe.out").read_text()
    if probe.code != 0 or Path(where).resolve() != SRC / "frontera" / "cli.py":
        print(f"error: frontera.cli does not import from {SRC}: {where or probe.stderr}",
              file=sys.stderr)
        return 2

    calls = gen.invocations(args.workload, in_dir, run_dir / "out0")
    passes, invocation_failed = [], []
    reference: dict[str, str] = {}
    end = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or (
            time.perf_counter() + statistics.median(p["elapsed_s"] for p in passes) <= end):
        k = len(passes)
        start = time.perf_counter()
        out = run_dir / f"out{k}"
        done, starts, computes, setups = [], [], [], []
        for sub, argv in gen.invocations(args.workload, in_dir, out):
            start_s, compute_s, trouble = yardstick(env, run_dir, logs / f"yard{k}-{sub}.err")
            if trouble:
                problems.append(trouble)
            starts.append(start_s)
            computes.append(compute_s)
            setups.append(child(["-c", "import frontera.cli"], f"setup{k}-{sub}").wall_s)
            done.append(child(["-m", "frontera.cli", *argv], f"pass{k}-{sub}"))
        passes.append({"wall_s": sum(c.wall_s for c in done), "cpu_s": sum(c.cpu_s for c in done),
                       "setups": setups, "rss_mib": max(c.rss_mib for c in done),
                       "yard_start_s": starts, "yard_compute_s": computes,
                       "invocations": [[c.wall_s, c.cpu_s] for c in done],
                       "elapsed_s": time.perf_counter() - start})
        for (sub, _), c in zip(calls, done):
            if c.code != 0:
                problems.append(f"pass {k} {sub}: exit {c.code}: {c.stderr[-300:]}")
        digests = tree_digests(out) if out.is_dir() else {}
        if k == 0:
            reference = digests
        else:
            shutil.rmtree(out, ignore_errors=True)
        invocation_failed += [c.code != 0 or digests.get(sub) != reference.get(sub)
                              for (sub, _), c in zip(calls, done)]

    try:
        first, accepted, counts = check_outputs(args.workload, in_dir, run_dir / "out0")
    except (ValueError, IndexError, KeyError, OSError) as exc:
        first, accepted, counts = {sub: [f"unreadable output: {exc!r}"] for sub, _ in calls}, [], {}
    for sub, found in first.items():
        problems += [f"pass 0 {sub}: {p}" for p in found[:5]]
    bad_subs = {sub for sub, found in first.items() if found}
    # a later pass equal to a wrong first pass is wrong too
    invocation_failed = [f or calls[i % len(calls)][0] in bad_subs
                         for i, f in enumerate(invocation_failed)]
    problems += [f"the output check accepted a perturbed {what}" for what in accepted]

    setups = [s for p in passes for s in p["setups"]]
    computes = [y for p in passes for y in p["yard_compute_s"]]
    raw = {name: statistics.median(p[name] for p in passes) for name in ("wall_s", "cpu_s")}
    raw["setup_s"] = statistics.median(setups)
    raw["yard_start_s"] = statistics.median(y for p in passes for y in p["yard_start_s"])
    raw["yard_compute_s"] = statistics.median(computes)
    # Pass times at reference speed: the run's mean pass time over the mean
    # compute time of all its yardstick runs. A ratio of means over the
    # whole run moved less from run to run than per-pass ratios (README).
    speed = YARD_COMPUTE_REF_S / statistics.mean(computes)
    measured = {name: statistics.mean(p[name] for p in passes) * speed
                for name in ("wall_s", "cpu_s")}
    # each set-up sample is scaled by the start-up time of the yardstick run
    # just before it
    measured["setup_s"] = statistics.median(
        s * YARD_START_REF_S / y for p in passes for s, y in zip(p["setups"], p["yard_start_s"]))
    measured["peak_rss_mb"] = statistics.median(p["rss_mib"] for p in passes)
    detail = {name: f"mean pass x {YARD_COMPUTE_REF_S} s / mean yardstick compute s; raw "
              + quartiles([p[name] for p in passes]) for name in ("wall_s", "cpu_s")}
    detail["peak_rss_mb"] = "largest child max-RSS per pass, " + quartiles(
        [p["rss_mib"] for p in passes])
    detail["setup_s"] = (f"import frontera.cli, once per invocation, x {YARD_START_REF_S} s / "
                         f"the mean yardstick start-up s just before it; raw {quartiles(setups)}")
    spans, absent = None, {}
    if args.trace:
        traced_dir = run_dir / "traced"
        tracer, codes = traced_pass(args.workload, in_dir, traced_dir)
        digests = tree_digests(traced_dir) if traced_dir.is_dir() else {}
        for (sub, _), code in zip(calls, codes):
            failed = code != 0 or digests.get(sub) != reference.get(sub) or sub in bad_subs
            invocation_failed.append(failed)
            if failed:
                problems.append(f"traced {sub}: exit {code}, output differs from the CLI pass")
        written = [p for p in traced_dir.rglob("*") if p.is_file()]
        layer = tracer.metrics()
        overhead, timed_cost, counted_cost = tracer.overhead()
        layer.update({
            "cli.files_written": (len(written), None),
            "cli.bytes_written": (sum(p.stat().st_size for p in written), None),
            "trace.total_s": (tracer.total(), None),
            "trace.overhead_s": (overhead, None),
        })
        for name, want in counts.items():
            got = layer[name][0]
            if got is not None and not math.isclose(got, want, rel_tol=1e-12):
                problems.append(f"traced {name} = {got}, the inputs imply {want}")
        for name, (value, reason) in layer.items():
            measured[name] = value
            detail[name] = f"absent: {reason}" if reason else "traced pass"
            if reason:
                absent[name] = reason
        detail["trace.overhead_s"] = (
            f"{len(tracer.spans)} spans x {timed_cost * 1e6:.3g} us + counted calls x "
            f"{counted_cost * 1e6:.3g} us, per-call costs measured on a no-op")
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        spans = [[n, s - t0, e - t0, p, w] for n, s, e, p, w in tracer.spans]

    attempted, failed = len(invocation_failed), sum(invocation_failed)
    fail_ratio = failed / attempted
    record = environment(args, files)
    record.update(samples=len(passes), passes=passes, raw_medians=raw,
                  invocations_per_pass=len(calls),
                  attempted=attempted, failed=failed, fail_ratio=fail_ratio,
                  metrics=measured, problems=problems)

    for m in declared["end_to_end"] + declared["per_layer"]:
        if m["name"] in measured:
            value = measured[m["name"]]
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"{m['name']:30} {shown:>12} {m['unit']:8} {detail[m['name']]}")
    print(f"{'fail_ratio':30} {fail_ratio:>12.6g} {'ratio':8} {failed} of {attempted} invocations")
    for p in problems:
        print(f"problem: {p}")
    print("record " + json.dumps(record, sort_keys=True))
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json", "w") as f:
        json.dump({"record": record, "spans": spans}, f)

    section = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in section:
        value = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if value is None:
            metrics[m["name"]]["absent"] = absent[m["name"]]
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "frontera" / "cli.py").is_file():
        print(f"error: {SRC / 'frontera' / 'cli.py'} not found; run from a frontera source tree",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        return bench(args, declared, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
