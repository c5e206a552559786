#!/usr/bin/env python3
"""Cubie host-cost benchmark: build, run one workload, print its result.

    python3 cubiebench/run.py --workload suite_cold --seed 1 --seconds 30 --trace 0
    python3 cubiebench/run.py --workload suite_disk --seed 1 --seconds 30 --trace 1 \
        --report layers.json --spans spans.jsonl
    python3 cubiebench/run.py --selftest
    python3 cubiebench/run.py --write-goldens

Run from the root of a Cubie checkout. The benchmark builds the library
from src/ (Release) into $CARGO_TARGET_DIR or .bench_build/, runs the
workload in a fresh per-run scratch directory under the build directory
(sockets and disk caches live there; it is deleted at exit), and prints the
result object as the last line of stdout. See cubiebench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["suite_cold", "suite_disk"]
RUN_TIMEOUT_S = 170


def log(msg):
    print("cubiebench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "cubiebench")


def build():
    """Configure (once) and build the benchmark; return the binary dir."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"] + gen)
        steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                      "cubiebench", "cubiebench_selftest"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                log("build failed: " + " ".join(cmd))
                sys.exit(1)
    return out


def source_digest():
    """Digest of src/ so a result names the code it measured even where
    the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_binary(cmd, scratch):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=scratch, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("timed out after %d s" % RUN_TIMEOUT_S)
        return 1, ""
    try:  # the cache writer child belongs to the same group
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.returncode, out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args, bindir):
    scratch_root = os.path.join(build_dir(), "scratch")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    cmd = [os.path.join(bindir, "cubiebench"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", scratch,
           "--goldens", os.path.join(HERE, "goldens"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    for flag, value in (("--report", args.report), ("--spans", args.spans)):
        if value:
            cmd += [flag, os.path.abspath(value)]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        code, out = run_binary(cmd, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        log("workload %s failed (exit %d)" % (args.workload, code))
        if lines:
            print(lines[-1])
        return code or 1
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log("metrics differ from BENCHMARK.json: %s" %
            sorted(set(got.items()) ^ set(want.items())))
        return 1
    print(json.dumps(result, separators=(",", ":")))
    return 0


def selftest(bindir):
    """Unit self-tests, then proof that a corrupted output fails a run."""
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=build_dir())
    try:
        if subprocess.run([os.path.join(bindir, "cubiebench_selftest"),
                           scratch]).returncode:
            return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ok = True
    for corrupt in (False, True):
        args = argparse.Namespace(workload="suite_cold", seed=7, seconds=1,
                                  trace=0, report=None, spans=None,
                                  corrupt=corrupt)
        saved = sys.stdout
        sys.stdout = open(os.devnull, "w")
        try:
            code = run_workload(args, bindir)
        finally:
            sys.stdout.close()
            sys.stdout = saved
        if (code == 0) == corrupt:
            log("suite_cold%s exited %d" % (" --corrupt" if corrupt else "", code))
            ok = False
    print("cubiebench: corrupted output %s" % ("fails the run" if ok else "NOT caught"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--report", help="traced run: write the per-layer "
                   "MetricsReport (schema v1) here")
    p.add_argument("--spans", help="traced run: write the span log here")
    p.add_argument("--corrupt", action="store_true",
                   help="flip one output byte; the run must fail")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--write-goldens", action="store_true")
    args = p.parse_args()
    if not (args.workload or args.selftest or args.write_goldens):
        p.error("--workload, --selftest or --write-goldens is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no Cubie sources next to the benchmark (expected %s)" %
            os.path.join(ROOT, "src"))
        return 2
    bindir = build()
    if args.selftest:
        return selftest(bindir)
    if args.write_goldens:
        return subprocess.run([os.path.join(bindir, "cubiebench"), "goldens",
                               "--goldens", os.path.join(HERE, "goldens")]).returncode
    return run_workload(args, bindir)


if __name__ == "__main__":
    sys.exit(main())
