#!/usr/bin/env python3
"""Build the repository from source and run one benchmark workload.

    python3 perfbench/run.py --workload simulate|analyze|attack \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --compare OLD.trace.json NEW.trace.json
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. The last line of standard output is
the JSON result. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = os.path.basename(HERE)

DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
BENCH_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"{NAME}: {msg}", file=sys.stderr)
    sys.exit(code)


def dune(*args):
    # The shared dune cache lives outside the checkout; keep the build inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", *args, "--root", ROOT],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return r.returncode


def require_checkout():
    needed = ["dune-project", "lib", os.path.join(NAME, "dune")]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a source checkout (missing %s)" % ", ".join(missing))


def run_bench(args, rest):
    require_checkout()
    if dune("build", f"./{NAME}/bench.exe") != 0:
        fail("build failed", 1)
    exe = os.path.join(ROOT, "_build", "default", NAME, "bench.exe")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--expected-dir", os.path.join(HERE, "expected"),
        "--out-dir", os.path.join(HERE, "out"),
        *rest,
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {BENCH_TIMEOUT_S} s", 1)
    sys.exit(r.returncode)


def compare(old_path, new_path):
    """Layer-by-layer difference of two traced runs."""
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    print(f"{old_path} -> {new_path}")
    print("workload %s, seeds %s -> %s, units %s -> %s" % (
        new["workload"], old["seed"], new["seed"], old["units"], new["units"]))
    print("untraced pass_s %.4f -> %.4f" % (old["untraced_pass_s"], new["untraced_pass_s"]))
    print("%-28s %11s %11s %11s %8s   %11s %11s" % (
        "layer (self)", "old ms", "new ms", "delta ms", "delta", "old Mwords", "new Mwords"))
    for name, a in old["layers"].items():
        b = new["layers"].get(name)
        if b is None or a["calls"] == b["calls"] == 0:
            continue
        d = b["self_ms"] - a["self_ms"]
        pct = ("%+7.1f%%" % (100 * d / a["self_ms"])) if a["self_ms"] else "       -"
        print("%-28s %11.3f %11.3f %+11.3f %8s   %11.3f %11.3f" % (
            name, a["self_ms"], b["self_ms"], d, pct, a["alloc_mw"], b["alloc_mw"]))
    moved = [(n, v, new["counts"].get(n)) for n, v in old["counts"].items()
             if new["counts"].get(n) != v]
    print("exact counts that moved: %d" % len(moved))
    for n, a, b in moved:
        print("  %-36s %s -> %s" % (n, a, b))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=["simulate", "analyze", "attack"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--self-test", action="store_true")
    args, rest = p.parse_known_args()
    if args.compare:
        compare(*args.compare)
    elif args.self_test:
        require_checkout()
        sys.exit(dune("build", f"@{NAME}/runtest", "--force"))
    elif args.workload:
        run_bench(args, rest)
    else:
        p.print_usage(sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
