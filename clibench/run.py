#!/usr/bin/env python3
"""clibench: what an argus user pays, end to end and per layer.

Run from the root of an argus-cpp checkout:

    python3 clibench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--workload all runs the four workloads one after another with the same
arguments and exits 1 if any of them failed.

Every run first builds the real `argus` binary and `clibench_trace` from
source (CMake, into $CARGO_TARGET_DIR or .bench_build), then sets the
workload up from --seed and measures for --seconds (--trace 0 repeats the
set-up at points spread through those seconds to time it; see
SETUP_SLOTS).

--trace 0 spawns the real binary, one closed-loop client at a time, and
reports the end-to-end metrics: setup_s, latency_mean_ms, programs_per_s
and peak_rss_mb. It also prints latency_tail_ms, named with its percentile
and sample count, which BENCHMARK.json does not bound (see TAIL_LADDER).
The failure share (error_rate) is the result line's failed / attempted.

--trace 1 runs clibench_trace on the same inputs: each round runs the real
binary, then replays the same operation in process with a span around each
call into a layer's public function, and once more without spans. It
reports the per-layer metrics (layer_map.json says which end-to-end metric
and workload each should move).

Every operation's output is checked (see check_program, check_batch and
the edit-replay consistency check); any mismatch counts as a failed
operation and makes the command exit 1. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("paper-corpus", "library-scale", "edit-replay", "batch-ci")

# setup_s is the median of set-ups timed at SETUP_SLOTS points spread
# evenly through the run (at the start of each equal slice of --seconds),
# each point repeating the set-up until SETUP_SLOT_SECONDS pass. A set-up
# of a few ms timed only before the run follows the host's load at that
# moment; spread over the run it sees the same host as the operations.
# The set-ups count against --seconds, so a run lasts about --seconds.
SETUP_SLOTS = 5
SETUP_SLOT_SECONDS = 0.2
EDIT_REVISIONS = 8     # revisions per edit script, the base included
# Edit scripts per run, each over its own seeded lib1k. The work of one
# script moves with its seed as cache reuse varies, so a run spreads its
# revisions over several short scripts: with three scripts of 12
# revisions, the median latency spread by 0.19 of itself over ten seeds.
EDIT_SCRIPTS = 5
BATCH_LIB1K = 3        # generated lib1k programs added to the batch
# The same flags as trace.cpp's cliArgv (BatchJobs, BatchThreads). One
# thread: on a shared host a batch that runs threads in parallel waits for
# whichever core the host's other tenants slow down, and its latency
# swings further than a serial one's (layer_map.json, batch-ci).
BATCH_FLAGS = ["--jobs", "1", "--threads", "1", "--cache", "shared"]
OP_TIMEOUT_S = 60.0    # a spawned operation running longer is a failure
# latency_mean_ms drops this share of each input's slowest runs and as many
# of its fastest, then takes the mean. On a shared host a spawned run is
# either fast or about 1.5x slower (the two modes of every input's latency
# histogram), and the share of slow runs wanders over minutes. The median
# jumps between the modes as that share crosses one half; the mean moves
# only in proportion to it. Over 10 min of one edit script, ten 25 s runs'
# medians spread by 0.068 of their median on average, their trimmed means
# by 0.049 (lib1k: 0.086 against 0.060).
TRIM = 0.1
# latency_tail_ms is the highest of these with at least 10 samples beyond
# it. It is printed with its percentile and sample count but is not a
# bounded metric in BENCHMARK.json; layer_map.json says why.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# Reference verdicts for examples/*.tl, written from each file's header
# comment: expected exit code and the failing predicate the comment names.
EXAMPLES = {
    "display_vec.tl": (1, "Timer: Display"),
    "grow_overflow.tl": (1, "(): Grow"),
    "missing_resmut.tl": (1, "Timer: SystemParam"),
    "timer_ok.tl": (0, None),
    "unit_mismatch.tl": (1, "<Rod as Length>::Unit == Meters"),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log(f"clibench: {msg}")
    sys.exit(2)


# --------------------------------------------------------------------------
# Build and environment


def build(root):
    for needed in ("CMakeLists.txt", "src", "tools", "examples"):
        if not (root / needed).exists():
            die(f"{root} is not an argus-cpp checkout (no {needed}); "
                "run from the repository root")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_quiet(["cmake", "--build", str(build_dir), "--target", "argus",
               "clibench_trace", "clibench_spawn", "-j", jobs], "build")
    binaries = (build_dir / "argus" / "tools" / "argus",
                build_dir / "clibench_trace", build_dir / "clibench_spawn")
    if not all(b.is_file() for b in binaries):
        die("the build produced no argus / clibench_trace / clibench_spawn")
    return (build_dir,) + binaries


def run_quiet(cmd, what, timeout=850):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        die(f"{what} failed: {err}")
    if proc.returncode != 0:
        log(proc.stdout.decode(errors="replace")[-4000:])
        die(f"{what} failed with exit code {proc.returncode}")


def environment(root, build_dir, seed, specs):
    cache = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("#", "//")):
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = "unknown"
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "clibench"):
        base = root / top
        files = sorted(base.rglob("*")) if base.is_dir() else [base]
        for path in files:
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo",
        "assertions": "on in every build type",
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "inputs": specs,
    }


# --------------------------------------------------------------------------
# Spawning the real binary


class Spawner:
    """Runs commands through clibench_spawn (see clibench/spawn.cpp), which
    times each from spawn to exit and reads its peak RSS from wait4.
    Spawning from this interpreter would fold the interpreter's own RSS
    into every child's peak."""

    def __init__(self, server):
        self.proc = subprocess.Popen([str(server)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, bufsize=0)

    def run(self, argv):
        """Returns (wall_s, exit_code or -signal, peak_rss_kb, stdout,
        stderr)."""
        request = "\x1f".join([str(OP_TIMEOUT_S)] + [str(a) for a in argv])
        self.proc.stdin.write(request.encode() + b"\n")
        header = self.proc.stdout.readline().split()
        if len(header) != 5:
            die("clibench_spawn stopped answering")
        wall_ns, code, rss, out_len, err_len = map(int, header)
        out = self._read(out_len)
        err = self._read(err_len)
        if code == -255:
            die(f"cannot spawn {argv[0]}")
        return wall_ns / 1e9, code, rss, out, err

    def _read(self, n):
        chunks = []
        while n > 0:
            data = self.proc.stdout.read(n)
            if not data:
                die("clibench_spawn closed its output")
            chunks.append(data)
            n -= len(data)
        return b"".join(chunks)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# --------------------------------------------------------------------------
# Output checks


def bottom_up_trees(stdout):
    """The ranked failing leaves of each tree's bottom-up view, in order."""
    trees, leaves = [], None
    for line in stdout.splitlines():
        if line == "== Bottom Up ==":
            leaves = []
            trees.append(leaves)
        elif leaves is not None:
            if not line:
                leaves = None
            elif line[:2] in ("> ", "  ") and line[2:3] == "[":
                leaves.append(line[2:].split("] ", 1)[1])
    return trees


def check_program(stdout, code, expect):
    """Checks one `argus <file>` rendering against its reference.

    expect: {"exit": int, "root_causes": [printed predicates],
             "rank": int or None, "leaves": int or None}. With a rank (a
    generated program's manifest) the root cause must be the failing leaf
    at that rank of the only tree, among exactly that many leaves. Without
    one (the corpus annotations, the examples' comments) it must be a
    ranked failing leaf, or, for an E0275 overflow, be named by the
    diagnostic's "required for" chain.
    Returns None when the output matches, else the first mismatch.
    """
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    if expect["exit"] == 0:
        return None if re.fullmatch(r"all \d+ goal\(s\) hold\.\n", stdout) \
            else "expected only 'all N goal(s) hold.'"
    trees = bottom_up_trees(stdout)
    if not trees or "error[" not in stdout:
        return "no diagnostic or bottom-up view"
    for truth in expect["root_causes"]:
        ranked = [leaves for leaves in trees if truth in leaves]
        if expect["rank"] is None:
            subject, _, trait = truth.rpartition(": ")
            if not ranked and not ("error[E0275]" in stdout and
                                   f"required for `{subject}` to implement "
                                   f"`{trait}`" in stdout):
                return f"root cause '{truth}' is neither a ranked failing " \
                    "leaf nor in an overflow's requirement chain"
            continue
        if len(trees) != 1 or not ranked:
            return f"{len(trees)} failing trees; root cause '{truth}' " \
                f"{'ranked' if ranked else 'not a ranked leaf'}"
        if ranked[0].index(truth) != expect["rank"]:
            return (f"root cause ranked {ranked[0].index(truth)}, "
                    f"manifest says {expect['rank']}")
        if len(ranked[0]) != expect["leaves"]:
            return (f"{len(ranked[0])} failing leaves, manifest says "
                    f"{expect['leaves']}")
    return None


def without_warnings(text):
    return "".join(line + "\n" for line in text.splitlines()
                   if not line.startswith("warning: "))


def check_batch(stdout, expects):
    """Checks each "=== <path> ===" block of a --batch rendering."""
    blocks = re.split(r"^=== (.+) ===\n", stdout, flags=re.M)
    if blocks[0]:
        return "text before the first batch block"
    seen = {Path(name).name: body
            for name, body in zip(blocks[1::2], blocks[2::2])}
    if sorted(seen) != sorted(expects):
        return f"batch blocks {sorted(seen)} != inputs {sorted(expects)}"
    for name, expect in expects.items():
        why = check_program(without_warnings(seen[name]), expect["exit"],
                            expect)
        if why:
            return f"{name}: {why}"
    return None


def check_edit_reference(stdout, manifest_expect):
    """The cold --cache off replay: one block per revision, the first (the
    unedited generated program) checked against its manifest."""
    blocks = re.split(r"^=== rev (\d+) of (\d+) ===\n", stdout, flags=re.M)
    revs = list(zip(blocks[1::3], blocks[2::3], blocks[3::3]))
    if len(revs) != EDIT_REVISIONS or blocks[0]:
        return f"{len(revs)} revision blocks, expected {EDIT_REVISIONS}"
    why = check_program(without_warnings(revs[0][2]), 1, manifest_expect)
    return f"revision 1: {why}" if why else None


# --------------------------------------------------------------------------
# Workload set-up


def manifest_expect(manifest_path):
    m = json.loads(Path(manifest_path).read_text())
    return {"exit": 1, "root_causes": [m["root_cause"]],
            "rank": m["expected_rank"], "leaves": m["expected_leaves"]}


def gen(tracer, out_dir, specs):
    """Generated programs, each with its manifest's reference verdict."""
    ids = run_tool([str(tracer), "gen", str(out_dir)] + specs).split()
    return [(out_dir / f"{i}.tl",
             manifest_expect(out_dir / f"{i}.manifest.json")) for i in ids]


def run_tool(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        die(f"{' '.join(cmd)} failed: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def corpus_and_examples(root, tracer, out_dir):
    """The 17 evaluationSuite() programs plus examples/*.tl, with their
    reference verdicts."""
    expect_path = out_dir / "corpus_expect.json"
    run_tool([str(tracer), "corpus", str(out_dir), str(expect_path)])
    programs = []
    for name, truths in json.loads(expect_path.read_text()).items():
        programs.append((out_dir / name, {"exit": 1, "root_causes": truths,
                                          "rank": None, "leaves": None}))
    for name, (code, truth) in EXAMPLES.items():
        src = root / "examples" / name
        if not src.is_file():
            die(f"examples/{name} is missing")
        shutil.copyfile(src, out_dir / name)
        programs.append((out_dir / name, {
            "exit": code, "root_causes": [truth] if truth else [],
            "rank": None, "leaves": None}))
    return programs


def setup(workload, root, spawn, argus, tracer, seed, work, problems):
    """Generates and writes one workload's inputs and captures its cold
    references, checking them. Returns the operations to measure and the
    generator specs used; appends reference mismatches to problems."""
    rng = random.Random(f"{workload}:{seed}")
    specs = []

    def new_seed(preset):
        specs.append(f"{preset}:{rng.randrange(1, 1 << 31)}")
        return specs[-1]

    if work.exists():
        shutil.rmtree(work)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)

    if workload == "paper-corpus":
        programs = corpus_and_examples(root, tracer, inputs)
        rng.shuffle(programs)
        specs.append(f"order:{','.join(p.name for p, _ in programs)}")
        return [op_single(argus, path, expect)
                for path, expect in programs], specs

    if workload == "library-scale":
        generated = gen(tracer, inputs, [new_seed(preset) for preset in
                                         ("lib1k", "lib5k", "lib10k")])
        return [op_single(argus, path, expect)
                for path, expect in generated], specs

    if workload == "edit-replay":
        return [edit_op(argus, tracer, spawn, inputs, work / f"edits{k}",
                        new_seed, problems)
                for k in range(EDIT_SCRIPTS)], specs

    if workload == "batch-ci":
        programs = corpus_and_examples(root, tracer, inputs)
        programs += gen(tracer, inputs,
                        [new_seed("lib1k") for _ in range(BATCH_LIB1K)])
        expects = {path.name: expect for path, expect in programs}
        batch_dir = os.path.relpath(inputs, root)
        serial = [str(argus), "--batch", batch_dir, "--jobs", "1",
                  "--cache", "off"]
        _, code, _, ref, _ = spawn(serial)
        ref = ref.decode(errors="replace")
        why = check_batch(ref, expects) if code == 1 else \
            f"serial batch exited {code}"
        if why:
            problems.append(f"{batch_dir} serial reference: {why}")
        return [{
            "kind": "batch", "input": batch_dir, "programs": len(programs),
            "argv": [str(argus), "--batch", batch_dir] + BATCH_FLAGS,
            "check": lambda out, c: None if (c, out) == (code, ref) else
            "differs from the serial --cache off batch (consistency check)",
        }], specs
    die(f"unknown workload {workload}")


def edit_op(argus, tracer, spawn, inputs, script, new_seed, problems):
    """One edit script over a seeded lib1k, with its --cache off replay
    captured and checked as the reference."""
    (base, expect), = gen(tracer, inputs, [new_seed("lib1k")])
    edit_seed = new_seed("edits").split(":")[1]
    run_tool([str(tracer), "edits", str(base), edit_seed,
              str(EDIT_REVISIONS), str(script)])
    _, code, _, ref, _ = spawn([str(argus), "--edit-script", str(script),
                                "--cache", "off"])
    ref = ref.decode(errors="replace")
    why = check_edit_reference(ref, expect) if code == 1 else \
        f"cold replay exited {code}"
    if why:
        problems.append(f"{script} --cache off reference: {why}")
    return {
        "kind": "edit", "input": str(script), "programs": EDIT_REVISIONS,
        "argv": [str(argus), "--edit-script", str(script)],
        "check": lambda out, c: None if (c, out) == (code, ref) else
        "differs from the --cache off replay (consistency check)",
    }


def op_single(argus, path, expect):
    return {"kind": "single", "input": str(path), "programs": 1,
            "argv": [str(argus), str(path)],
            "check": lambda out, c: check_program(out, c, expect)}


# --------------------------------------------------------------------------
# Measurement


def run_ops(spawn, ops, deadline, first, samples, failures):
    """Closed loop, one client: whole passes over ops (at least one) until
    the perf_counter deadline. Appends (op_index, wall_s, rss_kb) for ops
    that pass their check; first holds each input's first rendering across
    calls."""
    while True:
        for index, op in enumerate(ops):
            wall, code, rss, out, err = spawn(op["argv"])
            why = None
            if code < 0:
                why = f"killed by signal {-code}"
            else:
                try:
                    why = op["check"](out.decode(), code)
                except UnicodeDecodeError:
                    why = "output is not UTF-8"
            # Repeat consistency: every run of an input renders the same.
            if why is None and first.setdefault(index, (out, err, code)) != \
                    (out, err, code):
                why = "output differs from this input's first run"
            if why:
                failures.append(f"{op['input']}: {why}")
            else:
                samples.append((index, wall, rss))
        if time.perf_counter() >= deadline:
            return


def tail(values):
    """The highest ladder percentile with at least 10 samples beyond it."""
    n = len(values)
    best = None
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return None, None
    return best, statistics.quantiles(values, n=1000,
                                      method="inclusive")[round(best * 10) - 1]


def trimmed_mean(values):
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


def end_to_end(ops, samples, setup_times):
    walls = [w for _, w, _ in samples]
    by_input = {}
    for index, wall, _ in samples:
        by_input.setdefault(index, []).append(wall)
    # Each input's trimmed mean latency, and every input weighs the same: a
    # pooled figure would follow whichever input sits in the middle (lib5k
    # on library-scale) and jump with the seed between the inputs'
    # clusters. Not a median: see TRIM.
    means = [trimmed_mean(v) for v in by_input.values()]
    pass_s = sum(means)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_mean_ms": (pass_s / len(means) * 1e3, "ms"),
        "programs_per_s": (sum(ops[i]["programs"] for i in by_input) /
                           pass_s, "1/s"),
        "peak_rss_mb": (statistics.median(r for _, _, r in samples) / 1024,
                        "MB"),
    }
    p, tail_s = tail(walls)
    notes = {
        "samples": len(walls),
        "latency_p50_ms": statistics.fmean(statistics.median(v) for v in
                                           by_input.values()) * 1e3,
        "latency_tail_ms": (tail_s if tail_s is not None
                            else max(walls)) * 1e3,
        "tail_percentile": f"p{p:g}" if p is not None else
        "max (fewer than 20 samples)",
        "p90_p95_p99_ms": [statistics.quantiles(walls, n=100)[k] * 1e3
                           for k in (89, 94, 98)] if len(walls) >= 2 else None,
        "setup_runs": len(setup_times),
        "setup_quartiles_s": statistics.quantiles(setup_times, n=4)
        if len(setup_times) >= 2 else None,
        "programs_measured": sum(ops[i]["programs"] for i, _, _ in samples),
    }
    return metrics, notes


def per_layer(trace):
    """Per-layer metrics from the traced run: per operation, the mean over
    the workload's inputs of each input's median over rounds."""
    med = statistics.median
    inputs = trace["inputs"]

    def mean_over_inputs(fn):
        return statistics.fmean(med(fn(r) for r in inp["rounds"])
                                for inp in inputs)

    def span_ms(name):
        return mean_over_inputs(lambda r: r["spans_ns"].get(name, 0) / 1e6)

    def count(name):
        return mean_over_inputs(lambda r: r["counters"][name])

    lookups = count("cache_hits") + count("cache_misses")
    roots = count("root_goals")
    m = {
        "tlang.parse_ms": span_ms("tlang.parse"),
        "tlang.source_kb": count("source_bytes") / 1024,
        "solver.overlap_ms": mean_over_inputs(lambda r: r["overlap_ns"] / 1e6),
        "solver.index_ms": mean_over_inputs(lambda r: r["index_ns"] / 1e6),
        "solver.impls_subsumed": mean_over_inputs(
            lambda r: r["impls_subsumed"]),
        "solver.shadowed_pairs": mean_over_inputs(
            lambda r: r["shadowed_pairs"]),
        "solver.solve_ms": span_ms("solver.solve"),
        "solver.goal_evals": count("goal_evals"),
        "solver.solver_steps": count("solver_steps"),
        "solver.goal_evals_per_root": count("goal_evals") / roots
        if roots else 0.0,
        "solver.cache_hits": count("cache_hits"),
        "solver.cache_misses": count("cache_misses"),
        "solver.cache_hit_ratio": count("cache_hits") / lookups
        if lookups else 0.0,
        "solver.cache_inserts": count("cache_inserts"),
        "solver.cache_cross_rev_hits": count("cache_cross_rev_hits"),
        "solver.cache_dep_misses": count("cache_dep_misses"),
        "solver.cache_skips": count("cache_skips"),
        "extract.extract_ms": span_ms("extract.extract"),
        "extract.tree_goals": count("tree_goals"),
        "extract.snapshots_dropped": count("snapshots_dropped"),
        "analysis.analyze_ms": span_ms("analysis.analyze"),
        "analysis.dnf_conjuncts": count("dnf_conjuncts"),
        "analysis.dnf_words": count("dnf_words"),
        "render.render_ms": span_ms("render.render"),
        "render.output_kb": count("output_bytes") / 1024,
        "engine.teardown_ms": span_ms("engine.teardown"),
        "engine.apply_ms": span_ms("engine.apply"),
        "engine.batch_ms": span_ms("engine.batch"),
        "support.par_chunks": count("par_chunks"),
        "support.par_goal_tasks": count("par_goal_tasks"),
        # Each round's real-binary run minus its own traced top-level
        # spans, so the two see the same host.
        "unattributed_ms": mean_over_inputs(
            lambda r: (r["spawned_ns"] - r["top_level_ns"]) / 1e6),
        "tracing_overhead_ms": mean_over_inputs(
            lambda r: (r["traced_ns"] - r["untraced_ns"]) / 1e6),
    }
    notes = {
        "rounds": trace["rounds"],
        "cache_hit_ratio_base": f"{lookups:g} lookups (cache_hits + "
                                "cache_misses) per operation",
    }
    return m, notes


def declared_metrics(root, trace):
    """The metric names and units BENCHMARK.json declares for this mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def traced_run(ops, tracer, argus, seconds, work, failures):
    """Runs clibench_trace on the workload's inputs (see trace.cpp) and
    checks the first round's rendering of each input like an untraced
    run's. Returns the trace and the number of real-binary runs it made."""
    render_dir = work / "render"
    render_dir.mkdir(exist_ok=True)
    out_json = work / "trace.json"
    cmd = [str(tracer), "run", ops[0]["kind"], f"{seconds:.3f}",
           str(out_json), str(render_dir), str(argus)] + \
        [op["input"] for op in ops]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        die("clibench_trace timed out")
    if proc.returncode not in (0, 1) or not out_json.exists():
        die(f"clibench_trace failed: {proc.stderr.strip()[-2000:]}")
    trace = json.loads(out_json.read_text())
    failures += [f"accounting: {why}" for why in trace["violations"]]
    if trace["violation_count"] > len(trace["violations"]):
        failures.append(f"accounting: {trace['violation_count']} violations")
    for i, op in enumerate(ops):
        out = (render_dir / f"{i}.stdout").read_text()
        code = int((render_dir / f"{i}.exit").read_text())
        why = op["check"](out, code)
        if why:
            failures.append(f"{op['input']}: {why}")
    return trace, trace["rounds"] * len(ops)


# --------------------------------------------------------------------------


def measure(args, root, work, units, spawner, argus, tracer):
    """Sets the workload up, measures it, and returns (metrics, notes,
    attempted, failures, specs)."""
    problems = []  # set-up reference mismatches, the same on every repeat

    def timed_setup():
        found = []
        start = time.perf_counter()
        ops, specs = setup(args.workload, root, spawner.run, argus, tracer,
                           args.seed, work, found)
        elapsed = time.perf_counter() - start
        problems.extend(why for why in found if why not in problems)
        return elapsed, ops, specs

    metrics, notes = {}, {}
    if args.trace == 0:
        # Each repeat rewrites the same inputs and references (same seed).
        setup_times, samples, failures, first = [], [], [], {}
        start = time.perf_counter()
        for slot in range(1, SETUP_SLOTS + 1):
            slot_start = time.perf_counter()
            while time.perf_counter() - slot_start < SETUP_SLOT_SECONDS:
                elapsed, ops, specs = timed_setup()
                setup_times.append(elapsed)
            run_ops(spawner.run, ops,
                    start + args.seconds * slot / SETUP_SLOTS, first,
                    samples, failures)
        if samples:
            metrics, notes = end_to_end(ops, samples, setup_times)
        runs = len(samples)
    else:
        _, ops, specs = timed_setup()
        failures = []
        trace, runs = traced_run(ops, tracer, argus, args.seconds, work,
                                 failures)
        values, notes = per_layer(trace)
        metrics = {k: (v, units[k]) for k, v in values.items()}
    if metrics and {k: u for k, (_, u) in metrics.items()} != units:
        die("metrics measured do not match those BENCHMARK.json declares")
    failures = problems + failures
    return metrics, notes, runs + len(failures), failures, specs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed), "--seconds",
                                 str(args.seconds), "--trace",
                                 str(args.trace)]).returncode
                 for w in WORKLOADS]
        sys.exit(max(codes))

    root = Path.cwd()
    build_dir, argus, tracer, server = build(root)
    units = declared_metrics(root, args.trace)
    work_root = root / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    spawner = Spawner(server)
    try:
        metrics, notes, attempted, failures, specs = measure(
            args, root, work, units, spawner, argus, tracer)
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    env = environment(root, build_dir, args.seed, specs)

    print(f"clibench {args.workload} seed={args.seed} trace={args.trace} "
          f"env={json.dumps(env)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")
    if "latency_p50_ms" in notes:
        print(f"  {'latency_p50_ms':<30} {notes['latency_p50_ms']:>14.6g} "
              "ms  (each input's median, averaged; reported, not bounded)")
    if "latency_tail_ms" in notes:
        print(f"  {'latency_tail_ms':<30} {notes['latency_tail_ms']:>14.6g} "
              f"ms  ({notes['tail_percentile']} of {notes['samples']} "
              "samples; reported, not bounded)")
    print(f"  notes: {json.dumps(notes)}")
    print(f"  error_rate = {len(failures)}/{max(attempted, 1)} = "
          f"{len(failures) / max(attempted, 1):.6g}")
    for why in failures[:20]:
        print(f"  FAILED {why}")
    correct = not failures and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": len(failures) if attempted else 1,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
