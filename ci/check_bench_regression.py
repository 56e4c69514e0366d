#!/usr/bin/env python3
"""Bench regression gate for the smoke benches.

    python3 ci/check_bench_regression.py BASE_DIR CUR_DIR
    python3 ci/check_bench_regression.py --self-test DIR

Reads every *.json under both directories (subdirectories included: CI's
artifact download nests each artifact in one) that has the one smoke-report
shape of bench::SmokeReport (bench/bench_common.h),

    {"bench": NAME, "info": {...}, "metrics": {...}, "counters": {...}},

pairs the reports by bench and gates two rules, printing names as
BENCH/NAME:

  * a metric is a rate, higher is better: it may fall at most 25% below
    its baseline (smoke runs on shared runners are noisy, so the tolerance
    only guards against step-function regressions);
  * a counter is a deterministic work count: it may not grow at all.

info is never gated. So that the pipeline bootstraps itself, a name only
in CUR_DIR passes as [new] (it is gated once the baseline has it), a name
only in BASE_DIR passes as [gone], and a metric whose baseline reads zero
is [skipped] (a degenerate artifact must not divide by zero). A BASE_DIR
without a readable report -- the first run on a branch, an expired
artifact, or files from before the one shape -- warns and passes. A file
under CUR_DIR that is not a readable report, or a CUR_DIR with no report
at all, fails.

--self-test DIR runs the gate over edited copies of the reports in DIR and
exits nonzero on the first broken rule, or if DIR holds no report or an
unreadable one; CI runs it on the smoke output before the real gate, so a
broken gate cannot wave regressions through.
"""

import argparse
import glob
import json
import os
import sys
import tempfile

RATE_TOLERANCE = 0.25


def is_report(data):
    """True iff `data` names its bench and has numeric gated maps."""
    def numbers(section):
        return isinstance(section, dict) and all(
            type(v) in (int, float) for v in section.values())
    return (isinstance(data, dict) and isinstance(data.get("bench"), str)
            and numbers(data.get("metrics")) and numbers(data.get("counters")))


def load(directory):
    """({bench: report}, [unreadable path and reason]) for every *.json
    under `directory`."""
    reports, bad = {}, []
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"),
                                 recursive=True)):
        try:
            with open(path) as f:
                data = json.load(f)
            if not is_report(data):
                raise ValueError("not a smoke report")
            reports[data["bench"]] = data
        except (OSError, ValueError) as e:
            bad.append(f"{path} ({e})")
    return reports, bad


def compare(base_reports, cur_reports):
    """Prints one line per name; returns the names that regressed."""
    failures = []
    for section in ("metrics", "counters"):
        base, cur = ({f"{bench}/{name}": value
                      for bench, data in reports.items()
                      for name, value in data[section].items()}
                     for reports in (base_reports, cur_reports))
        gated = 0
        for name in sorted(base.keys() | cur.keys()):
            if name not in cur:
                print(f"  [gone]      {name}: baseline {base[name]}")
            elif name not in base:
                print(f"  [new]       {name}: {cur[name]}, no baseline yet")
            elif section == "metrics" and base[name] <= 0:
                print(f"  [skipped]   {name}: baseline reads {base[name]}")
            else:
                gated += 1
                if section == "metrics":
                    ok = cur[name] >= base[name] * (1 - RATE_TOLERANCE)
                    note = f"{cur[name] / base[name]:.1%} of baseline"
                else:
                    ok = cur[name] <= base[name]
                    note = "counter, must not grow"
                print(f"  [{'OK' if ok else 'REGRESSED':>9}] {name}: "
                      f"{base[name]} -> {cur[name]} ({note})")
                if not ok:
                    failures.append(name)
        print(f"  {gated} {section} gated")
    return failures


def gate(base_dir, cur_dir):
    """Runs the gate; returns what failed (empty = pass)."""
    cur, failures = load(cur_dir)
    for entry in failures:
        print(f"ERROR: unreadable current report {entry}")
    if not cur and not failures:
        print(f"ERROR: no smoke report under {cur_dir}")
        return [cur_dir]
    base, base_bad = load(base_dir)
    for entry in base_bad:
        print(f"WARNING: baseline {entry} counts as missing")
    if not base:
        print(f"WARNING: no usable baseline under {base_dir}; not gated")
        return failures
    return failures + compare(base, cur)


def self_test(sample_dir):
    """Exits nonzero on the first case the gate gets wrong. The cases edit
    copies of the reports under `sample_dir` (a smoke run's output)."""
    sample, bad = load(sample_dir)
    for entry in bad:
        print(f"SELF-TEST FAIL: unreadable report {entry}")
    if not sample and not bad:
        print(f"SELF-TEST FAIL: no smoke report under {sample_dir}")
    if bad or not sample:
        sys.exit(1)
    # One positive rate and one counter to edit, from the first benches
    # that have them.
    rated = [(b, name) for b in sorted(sample)
             for name, v in sorted(sample[b]["metrics"].items()) if v > 0]
    counted = [(b, name) for b in sorted(sample)
               for name in sorted(sample[b]["counters"])]
    if not rated or not counted:
        print(f"SELF-TEST FAIL: {sample_dir} has no positive rate or counter")
        sys.exit(1)
    (rate_bench, rate), (count_bench, count) = rated[0], counted[0]
    base_rate = sample[rate_bench]["metrics"][rate]
    base_count = sample[count_bench]["counters"][count]
    checks = 0

    def check(ok, what):
        nonlocal checks
        checks += 1
        if not ok:
            print(f"SELF-TEST FAIL: {what}")
            sys.exit(1)

    with tempfile.TemporaryDirectory() as tmp:
        def write(name, files):
            directory = os.path.join(tmp, name)
            for rel, data in files.items():
                path = os.path.join(directory, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w") as f:
                    f.write(data if isinstance(data, str) else json.dumps(data))
            return directory

        def reports(name, bench=None, section=None, key=None, value=None,
                    extra=None):
            """A copy of the sample with one value set (None: deleted)."""
            files = {}
            for b, data in sample.items():
                data = json.loads(json.dumps(data))
                if b == bench:
                    data[section][key] = value
                    if value is None:
                        del data[section][key]
                files[f"BENCH_{b}.json"] = data
            files.update(extra or {})
            return write(name, files)

        base_dir = reports("base")
        check(gate(base_dir, base_dir) == [], "identical reports must pass")
        check(gate(base_dir, reports("cut30", rate_bench, "metrics", rate,
                                     base_rate * 0.7))
              == [f"{rate_bench}/{rate}"], "a rate cut by 30% must fail by name")
        check(gate(base_dir, reports("cut20", rate_bench, "metrics", rate,
                                     base_rate * 0.8))
              == [], "a rate cut by 20% must pass")
        check(gate(base_dir, reports("plus1", count_bench, "counters", count,
                                     base_count + 1))
              == [f"{count_bench}/{count}"],
              "a counter raised by 1 must fail by name")
        check(gate(reports("zero", rate_bench, "metrics", rate, 0.0), base_dir)
              == [], "a zero-rate baseline must be skipped")
        gone = reports("gone", rate_bench, "metrics", rate, None)
        check(gate(base_dir, gone) == [] and gate(gone, base_dir) == [],
              "new and gone names must pass with a notice")
        old = write("old", {
            "BENCH_throughput/BENCH_throughput.json": {
                "patients": 50, "results": [{"batch": 1, "indexed": False,
                                             "batched_qps": 1.0}]},
            "BENCH_authz/BENCH_authz.json": {
                "authz": {"sweep": [], "counters": {"planes_evicted": 8}}}})
        check(gate(old, base_dir) == [],
              "old-format baseline files must warn and pass")
        check(gate(os.path.join(tmp, "absent"), base_dir) == [],
              "a missing baseline must warn and pass")
        broken = reports("broken", extra={
            "BENCH_gamma.json": "{\"bench\"",
            "BENCH_delta.json": {"bench": "delta", "metrics": {"qps": None},
                                 "counters": {}},
            "BENCH_eps.json": {"metrics": {}, "counters": {}}})
        check(len(gate(base_dir, broken)) == 3,
              "unreadable, non-numeric and unnamed current files must fail")
        check(gate(base_dir, old) != [],
              "an old-format current file must fail")
        check(gate(base_dir, os.path.join(tmp, "absent")) != [],
              "a current directory without reports must fail")

    print(f"\nSELF-TEST PASS: {checks} checks on copies of "
          f"{len(sample)} report(s)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base_dir", nargs="?",
                        help="baseline reports, e.g. main's artifacts")
    parser.add_argument("cur_dir", nargs="?",
                        help="reports of the run under test")
    parser.add_argument("--self-test", metavar="DIR",
                        help="check the gate on edited copies of the reports "
                             "in DIR and exit")
    args = parser.parse_args()
    if args.self_test is not None:
        if args.base_dir is not None:
            parser.error("--self-test takes no BASE_DIR or CUR_DIR")
        return self_test(args.self_test)
    if args.cur_dir is None:
        parser.error("BASE_DIR and CUR_DIR are required (unless --self-test)")

    failures = gate(args.base_dir, args.cur_dir)
    if failures:
        print(f"\nFAIL: {len(failures)} regressed or unreadable:")
        for name in failures:
            print(f"  - {name}")
        return 1
    print(f"\nPASS: no metric fell more than {RATE_TOLERANCE:.0%} and no "
          "counter grew")
    return 0


if __name__ == "__main__":
    sys.exit(main())
