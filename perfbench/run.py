#!/usr/bin/env python3
"""Campaign benchmark for pfi: build, run one workload, gate, report.

Run from the root of a source tree:

    python3 perfbench/run.py --workload neuron-fp32 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke            # all workloads, reduced size
    python3 perfbench/run.py --record-expected 0-31

The first call builds pfi and the benchmark from source (cmake) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1. The line before it holds the ledger
(nproc, kernel ISA, source digest, run count, spread); both are also written
to .../perfbench/results/.

Correctness gate: every campaign call the run makes reports a digest of its
outputs (counts, trace-JSONL digest, stratified estimate). A digest must
match perfbench/expected.json when the seed is recorded there, and all
digests of one run must agree. A call that throws or mismatches counts as
failed; `failed / attempted` is the run's failed share.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ["neuron-fp32", "layerwide-int8", "stratified-shards"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configure once, then (re)build the benchmark binary; logs to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no pfi sources under {ROOT}/src; run from a source checkout")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "pfi_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "pfi_perfbench")


def run_binary(binary, workload, seed, seconds, trace, smoke=False,
               digest_only=False):
    work = os.path.join(build_dir(), "work", f"{workload}-{os.getpid()}")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", work]
    if smoke:
        cmd.append("--smoke")
    if digest_only:
        cmd.append("--digest-only")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def gate(result, expected):
    """(attempted, failed, messages) for one binary result."""
    size = "smoke" if result["smoke"] else "full"
    want = expected.get(size, {}).get(result["workload"], {}).get(
        str(int(result["seed"])))
    digests = result["digests"]
    reference = want if want is not None else (digests[0] if digests else None)
    messages = list(result["errors"])
    failed = len(result["errors"])
    for d in digests:
        if d != reference:
            failed += 1
            messages.append(f"digest {d} != expected {reference}")
    return len(digests) + len(result["errors"]), failed, messages


def source_digest():
    """sha256 over the pfi and benchmark sources: identifies the code measured
    when the tree is not a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def report(result, attempted, failed, trace):
    values = result["metrics"]
    metrics = {}
    for m in metric_specs(trace):
        if m["name"] not in values:
            fail(f"the benchmark did not report {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    ledger = dict(result["ledger"], workload=result["workload"],
                  seed=result["seed"], trace=trace, source=source_digest(),
                  commit=git_commit(), attempted=attempted, failed=failed,
                  failed_share=failed / attempted if attempted else 1.0)
    final = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
             "failed": failed, "metrics": metrics}
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    name = f"{result['workload']}-seed{int(result['seed'])}-trace{trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump({"ledger": ledger, "result": final}, f, indent=1)
    print(json.dumps({"ledger": ledger}))
    print(json.dumps(final))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record_expected(binary, seeds):
    """Write expected.json: the digest of each workload at each seed, full and
    smoke size. Only for a deliberate change of what the workloads compute."""
    expected = {"full": {}, "smoke": {}}
    for size, smoke in (("full", False), ("smoke", True)):
        for w in WORKLOADS:
            table = expected[size].setdefault(w, {})
            for seed in seeds:
                r = run_binary(binary, w, seed, 1, 0, smoke=smoke,
                               digest_only=True)
                if r["errors"] or len(r["digests"]) != 1:
                    fail(f"{w} seed {seed}: {r['errors']}")
                table[str(seed)] = r["digests"][0]
                print(f"{size} {w} seed {seed}: {table[str(seed)]}",
                      file=sys.stderr)
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def smoke(binary, expected):
    """Every workload at reduced size, untraced and traced, gated."""
    bad = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            r = run_binary(binary, w, 1, 2, trace, smoke=True)
            attempted, failed, messages = gate(r, expected)
            bad += failed or not attempted
            print(f"{w} trace={trace}: {attempted - failed}/{attempted} checks "
                  f"passed", *messages, sep="\n  ")
    print(json.dumps({"smoke_ok": bad == 0}))
    return 0 if bad == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at reduced size and gate it")
    ap.add_argument("--record-expected", metavar="LO-HI",
                    help="rewrite expected.json for seeds LO..HI")
    args = ap.parse_args()
    if not (args.smoke or args.record_expected or args.workload):
        ap.error("one of --workload, --smoke or --record-expected is required")

    binary = build()
    if args.record_expected:
        record_expected(binary, parse_seeds(args.record_expected))
        return 0
    expected = load_expected()
    if args.smoke:
        return smoke(binary, expected)
    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    attempted, failed, messages = gate(result, expected)
    for msg in messages:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    report(result, attempted, failed, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
