#!/usr/bin/env python3
"""Fast self-check of the repository benchmark.

Checks, for every workload in BENCHMARK.json, that an untraced run emits
exactly the end-to-end metrics and a traced run exactly the per-layer
metrics, each with its declared unit, with every output correct; and that a
run whose outputs are deliberately corrupted (--corrupt) counts failures,
so error_rate rises above 0 and the result reads correct: false.

Usage, from the root of a checkout:  python3 perfbench/selfcheck.py
Takes about three minutes; exits 0 when every check passes.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SECONDS = 1
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def result_of(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check(cond, what, failures):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = bench.build()
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=workload, seed=1,
                                      seconds=SECONDS, trace=trace)
            code, out = bench.run(binary, args)
            res = result_of(out)
            tag = "%s --trace %d" % (workload, trace)
            check(code == 0 and res is not None, tag + ": exits 0 with a "
                  "result line", failures)
            if res is None:
                continue
            check(set(res) == RESULT_KEYS, tag + ": result keys", failures)
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1, tag + ": outputs correct", failures)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            check(not missing and not extra, tag + ": metric names (missing "
                  "%s, unexpected %s)" % (missing, extra), failures)
            wrong = sorted(k for k in want if k in got and got[k] != want[k])
            check(not wrong, tag + ": units (%s differ)" % wrong, failures)
            if group == "end_to_end":
                zero = sorted(k for k, v in res["metrics"].items()
                              if not v["value"] > 0)
                check(not zero, tag + ": end-to-end values > 0 (%s are not)"
                      % zero, failures)
        args = argparse.Namespace(workload=workload, seed=1, seconds=SECONDS,
                                  trace=0)
        code, out = bench.run(binary, args, extra=["--corrupt"])
        res = result_of(out)
        check(code == 0 and res is not None and res["failed"] > 0 and
              not res["correct"], workload + " --corrupt: corrupted outputs "
              "raise error_rate", failures)
    print("self-check %s" % ("passed" if not failures else
                             "FAILED: %d checks" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
