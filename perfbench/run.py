#!/usr/bin/env python3
"""Builds and runs the Snapper benchmark from the root of a source tree.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>
    python3 perfbench/run.py --self-test

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the libraries under src/ and links perfbench/snapper_bench.cc. It is
built into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on
every run; an up-to-date build costs about a second.

Before the program's output this prints one provenance line: git sha and
dirty bit when the tree is a git checkout, a hash of the sources and every
SNAPPER_* variable in the environment. The program's own first line adds the
build type, compiler and version, nproc, simulated sync latency and seed.
The last line of standard output is the program's JSON result. SNAPPER_*
variables are recorded and then removed from the program's environment, so
none of them changes what is measured; with SNAPPER_TRACE_DIR or
SNAPPER_REPLAY_TRACE set the run is refused.

Exit codes: 0 done, 1 a correctness check failed, 2 bad arguments, a
refused configuration or a failed build, 3 a submission never resolved
(stall), 4 the program ran past its time limit, 5 the program printed no
valid result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

WORKLOADS = (
    "smallbank-pact",
    "smallbank-act-serial",
    "smallbank-hybrid-skew",
    "tpcc-neworder",
)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_LIMIT_S = 170  # the whole run, build excluded, must end within 180 s
REFUSED_ENV = ("SNAPPER_TRACE_DIR", "SNAPPER_REPLAY_TRACE")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no Snapper sources at %s/src; nothing to build" % ROOT)
        sys.exit(2)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        try:
            subprocess.run(step, check=True, stdout=sys.stderr, timeout=850)
        except (OSError, subprocess.SubprocessError) as e:
            log("run.py: build failed: %s" % e)
            sys.exit(2)
    return out


def source_sha256():
    """Hash of every file the benchmark builds from, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git(*args):
    try:
        return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def provenance():
    # Only a checkout whose own root holds .git is asked: a tree copied
    # inside some other repository must not report that repository's sha.
    is_git = os.path.exists(os.path.join(ROOT, ".git"))
    sha = git("rev-parse", "HEAD") if is_git else None
    status = git("status", "--porcelain") if is_git else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_sha256(),
        "snapper_env": {k: v for k, v in sorted(os.environ.items())
                        if k.startswith("SNAPPER_")},
    }


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json lists for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def valid_result(line, expected):
    try:
        result = json.loads(line)
        units = {name: m["unit"] for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return False
    return (sorted(result) == ["attempted", "correct", "failed", "metrics"]
            and units == expected)


def run_bench(args):
    refused = [k for k in REFUSED_ENV if k in os.environ]
    if refused:
        log("run.py: refusing to record with %s set" % ", ".join(refused))
        return 2
    out = build("snapper_bench")
    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("SNAPPER_")}
    cmd = [os.path.join(out, "snapper_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    timer = threading.Timer(RUN_LIMIT_S, proc.kill)
    timer.start()
    last = ""
    for line in proc.stdout:
        print(line, end="", flush=True)
        if line.strip():
            last = line.strip()
    proc.wait()
    timer.cancel()
    if proc.returncode == -signal.SIGKILL:
        log("run.py: snapper_bench ran past %d s and was stopped" %
            RUN_LIMIT_S)
        return 4
    if proc.returncode != 0:
        return proc.returncode
    if not valid_result(last, expected_metrics(args.trace)):
        log("run.py: snapper_bench printed no result line with the metrics "
            "BENCHMARK.json lists")
        return 5
    return 0


def self_test():
    out = build("bench_math_test")
    return subprocess.run([os.path.join(out, "bench_math_test")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's arithmetic tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")
    return run_bench(args)


if __name__ == "__main__":
    sys.exit(main())
