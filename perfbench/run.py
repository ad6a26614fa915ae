#!/usr/bin/env python3
"""The benchmark of the gskew branch-predictor simulator.

Run it from the repository root:

    python3 perfbench/run.py --workload quick-campaign --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all-quick --seed 0 --seconds 30 --trace 1
    python3 perfbench/run.py selftest
    python3 perfbench/run.py refs
    python3 perfbench/run.py compare --parent A.json ... --change B.json ...

It builds the `perfbench` pass runner (perfbench/src/main.rs) against the
repository's crates, runs one pass per fresh process, checks every table
cell the simulator produced against a stored reference at tolerance 0, and
prints one JSON object as the last line of stdout. perfbench/README.md
describes the workloads and the metrics.
"""

import argparse
import csv
import gzip
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
REFS_DIR = os.path.join(BENCH_DIR, "refs")
SPEC_PATH = os.path.join(REPO_DIR, "BENCHMARK.json")

WORKLOADS = ("quick-campaign", "all-quick", "store-roundtrip")
# The workload seed the committed quick-campaign baseline was made with.
DEFAULT_SEED = 0x5EED0000
# `--seed n` selects one of these workload seeds (n mod 5), unless n is
# itself a reference seed. Each has a stored reference.
TUNING_SEEDS = tuple(DEFAULT_SEED + i for i in range(5))
# Never reached through `--seed n mod 5`: a gain claimed while tuning on
# the seeds above must also hold here (`--seed 0x5EED1997`).
HELD_OUT_SEED = 0x5EED1997
REFERENCE_SEEDS = TUNING_SEEDS + (HELD_OUT_SEED,)

MIN_PASSES = 3
# Set-up takes ~60 ms, so extra set-up-only passes run between the timed
# passes until there are MIN_SETUPS samples spread over the run.
MIN_SETUPS = 12
SETUP_PROBES_PER_PASS = 3
PASS_TIMEOUT_S = 170
MIB = 1 << 20
PASS_IDS = itertools.count(1)


class BenchError(Exception):
    """A failure that ends the run without a result."""


def parse_seed(text):
    return int(text, 16) if text.lower().startswith("0x") else int(text)


def workload_seed(seed):
    return seed if seed in REFERENCE_SEEDS else TUNING_SEEDS[seed % len(TUNING_SEEDS)]


def reference_kind(workload):
    return "all-quick" if workload == "all-quick" else "quick"


def reference_path(workload, wseed):
    return os.path.join(REFS_DIR, f"{reference_kind(workload)}-{wseed:016x}.json.gz")


def load_reference_text(workload, wseed):
    path = reference_path(workload, wseed)
    if not os.path.exists(path):
        raise BenchError(f"no reference {os.path.relpath(path, REPO_DIR)}")
    with gzip.open(path, "rt", encoding="utf-8") as f:
        return f.read()


# ---------------------------------------------------------------- build


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return configured if os.path.isabs(configured) else os.path.join(REPO_DIR, configured)


def build():
    """Build the pass runner in release mode; return the binary's path."""
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=REPO_DIR,
        env=env,
        capture_output=True,
        text=True,
        timeout=850,
    )
    if done.returncode != 0:
        raise BenchError(f"build failed:\n{done.stderr[-4000:]}")
    return os.path.join(target_dir(), "release", "perfbench")


# ---------------------------------------------------------------- passes


class Pass:
    """Runs pass-runner processes for one workload under one seed."""

    def __init__(self, binary, workload, wseed, threads, length, scratch):
        self.binary = binary
        self.workload = workload
        self.wseed = wseed
        self.threads = threads
        self.length = length
        self.scratch = scratch

    def fresh_dir(self):
        path = os.path.join(self.scratch, f"pass-{next(PASS_IDS)}")
        os.makedirs(path)
        return path

    def spawn(self, mode, run_dir, *extra):
        """Run one pass-runner process; return its report and rusage."""
        argv = [self.binary, mode, "--workload", self.workload, "--seed", str(self.wseed),
                "--threads", str(self.threads), "--dir", run_dir, *extra]
        if self.length is not None:
            argv += ["--len", str(self.length)]
        out_path = os.path.join(run_dir, f"{mode}.out")
        err_path = os.path.join(run_dir, f"{mode}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=REPO_DIR)
            watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(err_path, encoding="utf-8", errors="replace") as f:
                raise BenchError(f"`{mode}` pass exited {proc.returncode}: {f.read()[-2000:]}")
        with open(out_path, encoding="utf-8") as f:
            lines = f.read().strip().splitlines()
        if not lines:
            raise BenchError(f"`{mode}` pass printed nothing")
        return json.loads(lines[-1]), usage

    def produced_cells(self, run_dir, name="artifact.json"):
        if self.workload == "all-quick" and name == "artifact.json":
            return cells_from_tables(os.path.join(run_dir, "tables"))
        return cells_from_artifact(os.path.join(run_dir, name))


# ---------------------------------------------------------------- cells


def cells_from_artifact(path):
    """{(experiment, table index): [columns, row, ...]} of a campaign artifact."""
    with open(path, encoding="utf-8") as f:
        return cells_from_artifact_text(f.read())


def cells_from_artifact_text(text):
    artifact = json.loads(text)
    return {
        (exp["id"], i): [table["columns"], *table["rows"]]
        for exp in artifact["experiments"]
        for i, table in enumerate(exp["tables"])
    }


def cells_from_tables(directory):
    """The same shape from `gskew experiment --out DIR` CSV files."""
    cells = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".csv"):
            continue
        exp, index = name[: -len(".csv")].rsplit("-", 1)
        with open(os.path.join(directory, name), newline="", encoding="utf-8") as f:
            cells[(exp, int(index))] = list(csv.reader(f))
    return cells


def same_cell(a, b):
    if a == b:
        return True
    try:
        return float(a) == float(b)
    except ValueError:
        return False


def diff_cells(reference, produced):
    """(cells compared, cells wrong) at tolerance 0; missing or extra cells are wrong."""
    compared = wrong = 0
    for key in reference.keys() | produced.keys():
        ref_rows, got_rows = reference.get(key, []), produced.get(key, [])
        for r in range(max(len(ref_rows), len(got_rows))):
            ref_row = ref_rows[r] if r < len(ref_rows) else []
            got_row = got_rows[r] if r < len(got_rows) else []
            for c in range(max(len(ref_row), len(got_row))):
                compared += 1
                if c >= len(ref_row) or c >= len(got_row) or not same_cell(ref_row[c], got_row[c]):
                    wrong += 1
    return compared, wrong


# ---------------------------------------------------------------- runs


def median(values):
    return statistics.median(values) if values else 0.0


class Tally:
    """Cells and store records checked across a run's passes."""

    def __init__(self):
        self.cells = self.cells_wrong = self.records = self.records_lost = 0

    def add_cells(self, compared_wrong):
        compared, wrong = compared_wrong
        self.cells += compared
        self.cells_wrong += wrong
        return wrong

    def wrong_frac(self):
        return self.cells_wrong / self.cells if self.cells else 0.0

    def lost_frac(self):
        return self.records_lost / self.records if self.records else 0.0


def store_round(runner, run_dir, tally, reference, drop_record=False, replay=False):
    """Check the store a cold store-roundtrip pass left in run_dir, then resume from it."""
    if drop_record:
        runner.spawn("drop-record", run_dir)
    check, _ = runner.spawn("check-store", run_dir, *(["--replay"] if replay else []))
    tally.records += int(check["store.saved"])
    tally.records_lost += int(check["store.lost"])
    warm, _ = runner.spawn("warm", run_dir)
    bad = tally.add_cells(diff_cells(reference, runner.produced_cells(run_dir, "warm.json")))
    return check, warm, bad + int(check["store.lost"])


def set_up_only(runner):
    run_dir = runner.fresh_dir()
    setup_s = runner.spawn("setup", run_dir)[0]["setup_s"]
    shutil.rmtree(run_dir)
    return setup_s


def timed_run(runner, reference, seconds, drop_record=False):
    """Untraced passes until the time is spent; medians of the end-to-end metrics."""
    tally = Tally()
    samples = {name: [] for name in ("run_s", "cpu_s", "peak_rss_mib", "resume_s")}
    setups = []
    deadline = time.monotonic() + seconds
    passes = 0
    while True:
        started = time.monotonic()
        run_dir = runner.fresh_dir()
        cold, usage = runner.spawn("cold", run_dir)
        bad = tally.add_cells(diff_cells(reference, runner.produced_cells(run_dir)))
        setups.append(cold["setup_s"])
        if runner.workload == "store-roundtrip":
            _, warm, store_bad = store_round(runner, run_dir, tally, reference, drop_record)
            bad += store_bad
            resume_s = warm["resume_s"]
        else:
            resume_s = cold["setup_s"] + cold["run_s"]
        if bad == 0:
            samples["run_s"].append(cold["run_s"])
            samples["cpu_s"].append(usage.ru_utime + usage.ru_stime)
            samples["peak_rss_mib"].append(usage.ru_maxrss * 1024 / MIB)
            samples["resume_s"].append(resume_s)
        shutil.rmtree(run_dir)
        passes += 1
        for _ in range(SETUP_PROBES_PER_PASS if len(setups) < MIN_SETUPS else 0):
            setups.append(set_up_only(runner))
        if passes >= MIN_PASSES and time.monotonic() + (time.monotonic() - started) > deadline:
            break
    metrics = {name: median(values) for name, values in samples.items()}
    metrics["setup_s"] = median(setups)
    metrics["cells_wrong_frac"] = tally.wrong_frac()
    metrics["store_lost_frac"] = tally.lost_frac()
    return metrics, tally, {"passes": passes, "setups": len(setups), "samples": samples}


def traced_run(runner, reference, reference_file, seconds):
    """Traced passes, each beside an untraced one, until the time is spent."""
    tally = Tally()
    rounds = []
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        run_dir = runner.fresh_dir()
        layers, _ = runner.spawn("trace", run_dir, "--reference", reference_file)
        tally.add_cells(diff_cells(reference, runner.produced_cells(run_dir)))
        if runner.workload == "store-roundtrip":
            check, warm, _ = store_round(runner, run_dir, tally, reference, replay=True)
            layers.update({k: v for k, v in check.items() if k.startswith("results.")})
            layers.update(warm)
        shutil.rmtree(run_dir)

        run_dir = runner.fresh_dir()
        cold, _ = runner.spawn("cold", run_dir)
        tally.add_cells(diff_cells(reference, runner.produced_cells(run_dir)))
        shutil.rmtree(run_dir)
        layers["runner.busy_frac"] = cold["work_cpu_s"] / (cold["run_s"] * runner.threads)
        layers["bench.trace_overhead"] = layers["traced_run_s"] / cold["run_s"] - 1
        rounds.append(layers)
        if time.monotonic() + (time.monotonic() - started) > deadline:
            break
    metrics = {name: median([r[name] for r in rounds]) for name in rounds[0]}
    metrics["cells_wrong_frac"] = tally.wrong_frac()
    metrics["store_lost_frac"] = tally.lost_frac()
    return metrics, tally, {"rounds": len(rounds)}


# ---------------------------------------------------------------- host stamp


def host_stamp(threads, seed, wseed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def output_of(argv, **kwargs):
        try:
            done = subprocess.run(argv, capture_output=True, text=True, timeout=30, **kwargs)
            return done.stdout.strip() if done.returncode == 0 else "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    # Stop git at the repository root, so an enclosing repository is never read.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(REPO_DIR))
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "commit": output_of(["git", "rev-parse", "HEAD"], cwd=REPO_DIR, env=git_env),
        "rustc": output_of(["rustc", "--version"]),
        "profile": "release",
        "seed": seed,
        "workload_seed": f"{wseed:#x}",
    }


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def result_line(spec, trace, metrics, tally):
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    failed = tally.cells_wrong + tally.records_lost
    return {
        "correct": failed == 0,
        "attempted": max(tally.cells + tally.records, 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def measure(workload, seed, seconds, trace, length=None, reference_text=None,
            drop_record=False):
    """One benchmark run; returns (stamp, metrics, tally, detail)."""
    binary = build()
    wseed = workload_seed(seed)
    if reference_text is None:
        reference_text = load_reference_text(workload, wseed)
    threads = len(os.sched_getaffinity(0))
    scratch = os.path.join(REPO_DIR, ".perfbench-runs", str(os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        reference_file = os.path.join(scratch, "reference.json")
        with open(reference_file, "w", encoding="utf-8") as f:
            f.write(reference_text)
        reference = cells_from_artifact_text(reference_text)
        runner = Pass(binary, workload, wseed, threads, length, scratch)
        if trace:
            metrics, tally, detail = traced_run(runner, reference, reference_file, seconds)
        else:
            metrics, tally, detail = timed_run(runner, reference, seconds, drop_record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    return host_stamp(threads, seed, wseed), metrics, tally, detail


def cmd_run(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=parse_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also save stamp, metrics and samples here (for compare)")
    args = parser.parse_args(argv)

    spec = load_spec()
    stamp, metrics, tally, detail = measure(args.workload, args.seed, args.seconds, args.trace)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"cells_wrong_frac": "ratio", "store_lost_frac": "ratio"})
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name in sorted(metrics):
        print(f"{name:28} {metrics[name]!r:>24} {units.get(name, '')}")
    line = result_line(spec, args.trace, metrics, tally)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"stamp": stamp, "workload": args.workload, "trace": args.trace,
                       "metrics": metrics, "detail": detail, "result": line}, f, indent=1)
    print(json.dumps(line))


# ---------------------------------------------------------------- references


def cmd_refs(argv):
    """Write the stored references: every workload kind at every reference seed."""
    parser = argparse.ArgumentParser(description="Regenerate perfbench/refs.")
    parser.parse_args(argv)
    binary = build()
    threads = len(os.sched_getaffinity(0))
    scratch = os.path.join(REPO_DIR, ".perfbench-runs", "refs")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(REFS_DIR, exist_ok=True)
    try:
        for wseed in REFERENCE_SEEDS:
            for workload in ("quick-campaign", "all-quick"):
                runner = Pass(binary, workload, wseed, threads, None, scratch)
                run_dir = runner.fresh_dir()
                runner.spawn("trace", run_dir)
                with open(os.path.join(run_dir, "captured.json"), encoding="utf-8") as f:
                    text = f.read()
                # The traced capture must match what the user command writes.
                cold_dir = runner.fresh_dir()
                runner.spawn("cold", cold_dir)
                compared, wrong = diff_cells(cells_from_artifact_text(text),
                                             runner.produced_cells(cold_dir))
                if wrong:
                    raise BenchError(f"{workload} {wseed:#x}: traced and plain passes differ "
                                     f"in {wrong} of {compared} cells")
                path = reference_path(workload, wseed)
                with gzip.GzipFile(path, "wb", mtime=0) as f:
                    f.write(text.encode("utf-8"))
                print(f"{os.path.relpath(path, REPO_DIR)}: {compared} cells")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ---------------------------------------------------------------- self-test


def cmd_selftest(argv):
    """Check the harness itself at a tiny trace length."""
    parser = argparse.ArgumentParser(description="Self-test the benchmark harness.")
    parser.add_argument("--len", type=int, default=3000)
    args = parser.parse_args(argv)
    spec = load_spec()
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    binary = build()
    threads = len(os.sched_getaffinity(0))
    scratch = os.path.join(REPO_DIR, ".perfbench-runs", "selftest")
    for workload in WORKLOADS:
        shutil.rmtree(scratch, ignore_errors=True)
        runner = Pass(binary, workload, DEFAULT_SEED, threads, args.len, scratch)
        run_dir = runner.fresh_dir()
        runner.spawn("trace", run_dir)
        with open(os.path.join(run_dir, "captured.json"), encoding="utf-8") as f:
            reference = f.read()
        shutil.rmtree(scratch, ignore_errors=True)

        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            _, metrics, tally, _ = measure(workload, DEFAULT_SEED, 0, trace, args.len, reference)
            line = result_line(spec, trace, metrics, tally)
            emitted = {name: m["unit"] for name, m in line["metrics"].items()}
            check(emitted == {m["name"]: m["unit"] for m in declared}
                  and all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()),
                  f"{workload} --trace {trace}: every declared metric emitted with its unit")
            check(line["correct"] and metrics["cells_wrong_frac"] == 0,
                  f"{workload} --trace {trace}: cells match a fresh reference")

        corrupted = json.loads(reference)
        row = corrupted["experiments"][0]["tables"][0]["rows"][0]
        row[-1] = "-1" if row[-1] != "-1" else "-2"
        _, metrics, tally, _ = measure(workload, DEFAULT_SEED, 0, 0, args.len, json.dumps(corrupted))
        check(metrics["cells_wrong_frac"] > 0 and not result_line(spec, 0, metrics, tally)["correct"],
              f"{workload}: one corrupted reference cell gives cells_wrong_frac "
              f"{metrics['cells_wrong_frac']:.5f} > 0")
        if workload == "store-roundtrip":
            _, metrics, tally, _ = measure(workload, DEFAULT_SEED, 0, 0, args.len, reference,
                                           drop_record=True)
            check(metrics["store_lost_frac"] > 0 and not result_line(spec, 0, metrics, tally)["correct"],
                  f"{workload}: one deleted store record gives store_lost_frac "
                  f"{metrics['store_lost_frac']:.5f} > 0")
    shutil.rmtree(os.path.dirname(scratch), ignore_errors=True)
    print("selftest: " + ("ok" if not failures else f"{len(failures)} check(s) failed"))
    return 1 if failures else 0


# ---------------------------------------------------------------- compare


def cmd_compare(argv):
    """Compare saved runs of a parent and a change, refusing mismatched hosts."""
    parser = argparse.ArgumentParser(description="Compare runs saved with --out.")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    runs = {}
    for side in ("parent", "change"):
        runs[side] = []
        for path in getattr(args, side):
            with open(path, encoding="utf-8") as f:
                runs[side].append(json.load(f))
    every = runs["parent"] + runs["change"]
    for key in ("cpu_model", "nproc", "threads", "profile"):
        values = {run["stamp"][key] for run in every}
        if len(values) > 1:
            raise BenchError(f"refusing to compare runs with different {key}: {sorted(values)}")
    for key in ("workload", "trace"):
        if len({run[key] for run in every}) > 1:
            raise BenchError(f"refusing to compare runs of different {key}")
    if not all(run["result"]["correct"] for run in every):
        raise BenchError("refusing to compare: a run has wrong cells or lost records")
    spec = load_spec()
    declared = spec["per_layer"] if every[0]["trace"] else spec["end_to_end"]
    print(f"{'metric':28} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} {'change':>8}")
    for m in declared:
        sides = []
        for side in ("parent", "change"):
            values = [run["metrics"][m["name"]] for run in runs[side]]
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            sides.append((statistics.median(values), q[0], q[2]))
        (p, p1, p3), (c, c1, c3) = sides
        delta = f"{(c - p) / p:+.1%}" if p else "n/a"
        print(f"{m['name']:28} {p:>14.6g} [{p1:.6g}, {p3:.6g}] {c:>14.6g} [{c1:.6g}, {c3:.6g}] {delta:>8}")


def main(argv):
    commands = {"selftest": cmd_selftest, "refs": cmd_refs, "compare": cmd_compare}
    try:
        if argv and argv[0] in commands:
            return commands[argv[0]](argv[1:]) or 0
        cmd_run(argv)
        return 0
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
