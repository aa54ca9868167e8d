#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 rsbench/run.py --workload steady|reconfig|verify \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds rsbench/main.exe from
source with dune (release profile, build directory .bench_build, dune's
shared cache off so nothing is written outside the checkout), prints the
method header, then runs the benchmark.  The last line of standard output
is the JSON result.  The exit status is 0 only when the build succeeded,
every correctness check passed and the result names exactly the metrics
BENCHMARK.json declares.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
PROFILE = "release"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("rsbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout.
    Returns (exit status or None on timeout, captured stdout or None)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "rsbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f in ("dune", "dune-project"):
                    p = os.path.join(d, f)
                    h.update(p.encode() + b"\0")
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):
        return "none (not a git checkout)"
    status, out = run(["git", "rev-parse", "HEAD"], 30,
                      stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return out.decode().strip() if status == 0 else "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("rsbench", "dune"))):
        fail("run from the root of a checkout: dune-project, lib/ and "
             "rsbench/ must all be present")
    env = dict(os.environ, DUNE_CACHE="disabled")
    status, _ = run(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
                     "--profile", PROFILE, "./rsbench/main.exe"],
                    BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if status != 0:
        fail("build failed" if status is not None else "build timed out")
    print("method: nproc %d, build profile %s, commit %s, source sha256 %s"
          % (os.cpu_count(), PROFILE, commit(), source_digest()), flush=True)
    exe = os.path.join(BUILD_DIR, "default", "rsbench", "main.exe")
    status, out = run([exe] + sys.argv[1:], RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    if status is None:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    text = out.decode()
    sys.stdout.write(text)
    sys.stdout.flush()
    if status != 0:
        sys.exit(status)
    # The result must carry exactly the declared metrics of its kind.
    if os.path.isfile("BENCHMARK.json"):
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        kind = "per_layer" if "--trace" in sys.argv and \
            sys.argv[sys.argv.index("--trace") + 1] == "1" else "end_to_end"
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        result = json.loads(text.strip().splitlines()[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared:
            fail("result metrics differ from BENCHMARK.json %s" % kind)


if __name__ == "__main__":
    main()
