#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny instance sizes (about a minute
after the build):

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json, in both modes, it checks that the run
succeeds and that its result line carries exactly the metrics BENCHMARK.json
lists for that mode, each with its unit and a finite value; that the
human-readable block names the workload's own figures; and that a wrong
reference objective turns into a failed output check (nonzero
failed_ops_frac, correct=false, nonzero exit).
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Figures each workload prints by name in its untraced run.
FIGURES = {
    "ibm-te-period": ["te_period_s", "te_period_budget_frac", "failed_ops_frac"],
    "b4-serve": ["tick_p50_ms", "tick_p90_ms", "cut_p50_ms",
                 "serve.warm_start_hits", "failed_ops_frac"],
    "fbsynth-sweep": ["sweep_cells_per_s", "arrow_max_scale", "failed_ops_frac"],
}


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", trace, "--smoke", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return out, result


def failed_frac(stdout):
    for line in stdout.splitlines():
        fields = line.split()
        if fields and fields[0] == "failed_ops_frac":
            return float(fields[1])
    raise AssertionError("no failed_ops_frac line")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []

    def expect(cond, what):
        if not cond:
            errors.append(what)
            print("FAIL:", what, flush=True)

    for w in bench["workloads"]:
        name = w["name"]
        for trace, listed in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            out, result = run(name, trace)
            tag = "%s --trace %s" % (name, trace)
            expect(out.returncode == 0 and result is not None and result["correct"],
                   "%s did not succeed:\n%s" % (tag, out.stderr[-2000:]))
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in listed}
            got = result["metrics"]
            expect(set(got) == set(want),
                   "%s metrics differ from BENCHMARK.json: missing %s, extra %s"
                   % (tag, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
            for metric, unit in want.items():
                if metric in got:
                    expect(got[metric]["unit"] == unit,
                           "%s: %s unit %r != %r" % (tag, metric, got[metric]["unit"], unit))
                    expect(math.isfinite(got[metric]["value"]),
                           "%s: %s is not finite" % (tag, metric))
            if trace == "0":
                for figure in FIGURES[name]:
                    expect(any(line.split()[:1] == [figure] for line in out.stdout.splitlines()),
                           "%s does not print %s" % (tag, figure))
                expect(failed_frac(out.stdout) == 0.0, "%s reports failed operations" % tag)
            print("ok:", tag, flush=True)

    # A wrong reference objective is a failed output check.
    out, result = run("ibm-te-period", "0", "--ref-objective", "1.0")
    expect(out.returncode != 0, "wrong reference objective still exits 0")
    expect(result is not None and not result["correct"] and result["failed"] >= 1,
           "wrong reference objective not counted as failed")
    expect(failed_frac(out.stdout) > 0.0, "wrong reference objective leaves failed_ops_frac at 0")
    print("ok: wrong reference objective raises failed_ops_frac", flush=True)

    if errors:
        print("%d check(s) failed" % len(errors))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
