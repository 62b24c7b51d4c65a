#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --aa <runs> [--seed <first>] [--seconds <s>] [--trace <0|1>]
    python3 perfbench/run.py --selftest

Run from the repository root. The first form builds the harness (a
Release CMake build of perfbench/ and the library in src/, kept in
.bench_build/) and runs one workload; the last line of its output is the
result JSON. --aa runs the same code on <runs> consecutive seeds and
prints each metric's median, quartiles and spread against the bound in
BENCHMARK.json, so steadiness is one command to check. --selftest builds
and runs the benchmark's own unit tests. NOTES.md describes the workloads.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("inc-pr-rmat", "ingest-talk", "serve-mixed")
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    """Configure (once) and build @target; build logs go to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", target,
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / target


def source_digest():
    """sha256 over the sources the harness is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def spec():
    """BENCHMARK.json: the metric names, units and bounds of the benchmark."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def narrow(result, trace):
    """Keep the metrics BENCHMARK.json names for this kind of run.

    End-to-end metrics must all be present. A per-layer metric of a layer
    the workload does not drive is absent and reads 0 ("layer idle").
    """
    wanted = spec()["per_layer" if trace else "end_to_end"]
    have = result["metrics"]
    metrics = {}
    for m in wanted:
        got = have.get(m["name"])
        if got is None and trace:
            got = {"value": 0, "unit": m["unit"]}
        if got is None or got["unit"] != m["unit"]:
            print(f"perfbench: metric {m['name']} missing or not in "
                  f"{m['unit']}", file=sys.stderr)
            result["correct"] = False
            continue
        metrics[m["name"]] = got
    result["metrics"] = metrics
    return result


def run_once(binary, workload, seed, seconds, trace, digest, rev, echo):
    """Run one workload; @return (exit code, result dict or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--source-digest", digest, "--commit", rev]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} ran over {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    try:
        result = narrow(json.loads(lines[-1]), trace) if lines else None
    except json.JSONDecodeError:
        result = None
    if echo:
        # The binary's last line carries every metric it recorded; the
        # result line printed last here holds the ones BENCHMARK.json names.
        body = lines[:-1] if result is not None else lines
        print("\n".join(body))
        if result is not None:
            print(json.dumps(result))
        sys.stdout.flush()
    code = proc.returncode
    if code == 0 and result is not None and not result["correct"]:
        code = 3
    return code, result


def aa(binary, args, digest, rev):
    """Same-code A/A: one workload on consecutive seeds, then spreads."""
    results = []
    for k in range(args.aa):
        seed = args.seed + k
        code, result = run_once(binary, args.workload, seed, args.seconds,
                                args.trace, digest, rev, echo=False)
        if code != 0 or result is None or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {code})")
            return 1
        results.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    bound = {m["name"]: m for m in spec()["end_to_end"]}
    print(f"\n{args.workload}: {args.aa} runs, {args.seconds} s each, "
          f"seeds {args.seed}..{args.seed + args.aa - 1}")
    print(f"{'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        spread = (q3 - q1) / med if med else 0.0
        b = bound.get(name, {}).get("bound")
        flag = ""
        if b is not None and name != "setup_s":
            flag = "ok" if spread <= b / 3 else (
                "WIDE" if spread <= b else "OVER")
        print(f"{name:34} {first['unit']:6} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:7.3f} {'' if b is None else b:>6} {flag}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--aa", type=int, default=0, metavar="RUNS",
                   help="A/A mode: run RUNS seeds and print spreads")
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's unit tests")
    args = p.parse_args()

    if not args.selftest and not args.workload:
        p.error("--workload is required")
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit("perfbench: BENCHMARK.json not found at the checkout root")
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be 1..60")
    try:
        binary = build("perfbench_tests" if args.selftest else "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([str(binary)]).returncode
    digest, rev = source_digest(), commit()
    if args.aa:
        return aa(binary, args, digest, rev)
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace, digest, rev, echo=True)
    if result is None:
        print(f"perfbench: no result line (exit {code})", file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
