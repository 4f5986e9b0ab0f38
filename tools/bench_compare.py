#!/usr/bin/env python3
"""Validate and compare cgra-bench-v1 JSON reports.

Every bench binary emits BENCH_<name>.json (see bench/bench_common.hpp).
This tool has two modes:

  validate:  bench_compare.py --validate DIR
      Schema-check every BENCH_*.json under DIR. Exit 1 on any violation.

  compare:   bench_compare.py --baseline DIR --current DIR [--threshold 0.10]
      Compare deterministic metrics against a baseline: integers exactly, in
      either direction; fractional (lower-is-better) ones past the threshold.
      A metric the current run emits that has no baseline entry is a hard
      failure too: an ungated metric is a regression gate silently not
      running, which is exactly how stale baselines rot (re-seed the
      baseline file to fix). So is the reverse, a baseline metric the
      current run no longer emits (e.g. the idleFraction_* counters of a
      run without CGRA_BENCH_COUNTERS=1): its gate would vanish silently.
      Wall-clock "timings" are machine-dependent and only warn. A
      missing baseline directory or missing baseline file is
      non-blocking (exit 0 with a warning) so the first CI run can seed
      the baseline.

      --gate-timing KEY (repeatable) promotes the named timing key from
      warn-only to gated, at its own generous --timing-threshold (default
      3.0, i.e. fail only past 4x the baseline): loose enough for shared
      CI runners, tight enough to catch an accidental O(n^2) on the
      scheduling hot path. BENCH_table4_walltime.json additionally carries
      the per-pass exclusive wall times (passAnalysisMs, passCandidateMs,
      passCostModelMs, passPlacementMs, passRoutingMs, passFusingMs,
      passCboxMs, passLoopMs, passFinalizeMs), so an individual scheduler
      pass can be gated on its own: e.g.
        --gate-timing sweepWallMs --gate-timing passRoutingMs

Uses only the Python standard library.
"""

import argparse
import glob
import json
import math
import os
import sys

SCHEMA = "cgra-bench-v1"
REQUIRED_FIELDS = ("schema", "name", "gitRev", "wallMs", "metrics", "timings")


def fail(msg):
    print("ERROR: " + msg)
    return 1


def warn(msg):
    print("WARNING: " + msg)


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def load_reports(directory):
    """Return {bench name: parsed json} for every BENCH_*.json in directory."""
    reports = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        with open(path, "r", encoding="utf-8") as f:
            reports[os.path.basename(path)] = json.load(f)
    return reports


def validate_report(fname, doc):
    """Return a list of schema violations (empty when valid)."""
    errors = []
    if not isinstance(doc, dict):
        return [fname + ": top level is not an object"]
    for field in REQUIRED_FIELDS:
        if field not in doc:
            errors.append(fname + ": missing required field '" + field + "'")
    if errors:
        return errors
    if doc["schema"] != SCHEMA:
        errors.append(fname + ": schema is '" + str(doc["schema"]) +
                      "', expected '" + SCHEMA + "'")
    if not isinstance(doc["name"], str) or not doc["name"]:
        errors.append(fname + ": 'name' must be a non-empty string")
    elif fname != "BENCH_" + doc["name"] + ".json":
        errors.append(fname + ": filename does not match name '" +
                      doc["name"] + "'")
    if not isinstance(doc["gitRev"], str) or not doc["gitRev"]:
        errors.append(fname + ": 'gitRev' must be a non-empty string")
    if not is_num(doc["wallMs"]) or doc["wallMs"] < 0:
        errors.append(fname + ": 'wallMs' must be a non-negative number")
    for section in ("metrics", "timings"):
        if not isinstance(doc[section], dict):
            errors.append(fname + ": '" + section + "' must be an object")
            continue
        for key, value in doc[section].items():
            if not is_num(value):
                errors.append(fname + ": " + section + "." + key +
                              " is not a finite number")
    if "info" in doc and not isinstance(doc["info"], dict):
        errors.append(fname + ": 'info' must be an object")
    if "counters" in doc and not isinstance(doc["counters"], dict):
        errors.append(fname + ": 'counters' must be an object")
    return errors


def cmd_validate(directory):
    reports = load_reports(directory)
    if not reports:
        return fail("no BENCH_*.json files found in " + directory)
    errors = []
    for fname, doc in reports.items():
        errors.extend(validate_report(fname, doc))
    for e in errors:
        print("ERROR: " + e)
    n_metrics = sum(len(d.get("metrics", {})) for d in reports.values())
    print("validated %d report(s), %d metric(s): %s" %
          (len(reports), n_metrics, "FAIL" if errors else "OK"))
    return 1 if errors else 0


def compare_section(fname, section, base, cur, threshold, lower_is_better):
    """Yield (is_regression, message) for each shared key."""
    for key in sorted(set(base) & set(cur)):
        b, c = base[key], cur[key]
        if not (is_num(b) and is_num(c)):
            continue
        if section == "metrics" and b % 1 == 0 and c % 1 == 0:
            if b != c:
                yield True, "%s %s.%s: %d -> %d (integers gate exactly)" % (
                    fname, section, key, b, c)
            continue
        if b <= 0:
            # Ratios are meaningless against a zero/negative baseline;
            # only flag an exact-zero baseline that became non-zero.
            if b == 0 and c != 0 and lower_is_better:
                yield True, "%s %s.%s: baseline 0, now %g" % (
                    fname, section, key, c)
            continue
        delta = (c - b) / b
        if delta > threshold:
            yield lower_is_better, "%s %s.%s: %g -> %g (+%.1f%%)" % (
                fname, section, key, b, c, 100.0 * delta)
        elif delta < -threshold:
            yield False, "%s %s.%s: %g -> %g (%.1f%% improvement)" % (
                fname, section, key, b, c, -100.0 * delta)


def cmd_compare(baseline_dir, current_dir, threshold, gated_timings,
                timing_threshold):
    if not os.path.isdir(baseline_dir):
        warn("baseline directory '" + baseline_dir +
             "' not found; nothing to compare (seed it from this run)")
        return 0
    current = load_reports(current_dir)
    if not current:
        return fail("no BENCH_*.json files found in " + current_dir)
    baseline = load_reports(baseline_dir)

    regressions = []
    compared = 0
    for fname, cur in sorted(current.items()):
        if fname not in baseline:
            warn("no baseline for " + fname + "; skipping")
            continue
        base = baseline[fname]
        compared += 1
        # Every metric the current run produces must be gated: a key absent
        # from the baseline would silently escape comparison forever, so it
        # fails hard until the baseline is re-seeded with it.
        for key in sorted(set(cur.get("metrics", {})) -
                          set(base.get("metrics", {}))):
            regressions.append(
                "%s metrics.%s: no baseline entry — metric is ungated; "
                "re-seed the baseline file with this run's value" %
                (fname, key))
        for key in sorted(set(base.get("metrics", {})) -
                          set(cur.get("metrics", {}))):
            regressions.append(
                "%s metrics.%s: in the baseline but missing from the current "
                "run — its gate did not run" % (fname, key))
        for key in sorted(gated_timings & (set(cur.get("timings", {})) -
                                           set(base.get("timings", {})))):
            regressions.append(
                "%s timings.%s: gated timing has no baseline entry — "
                "re-seed the baseline file" % (fname, key))
        for is_reg, msg in compare_section(
                fname, "metrics", base.get("metrics", {}),
                cur.get("metrics", {}), threshold, lower_is_better=True):
            if is_reg:
                regressions.append(msg)
            else:
                print("NOTE: " + msg)
        base_timings = base.get("timings", {})
        cur_timings = cur.get("timings", {})
        gated = {k: v for k, v in cur_timings.items() if k in gated_timings}
        free = {k: v for k, v in cur_timings.items() if k not in gated_timings}
        for is_reg, msg in compare_section(
                fname, "timings", base_timings, gated, timing_threshold,
                lower_is_better=True):
            if is_reg:
                regressions.append(msg + " [gated wall clock]")
            else:
                print("NOTE: " + msg)
        for _, msg in compare_section(
                fname, "timings", base_timings, free, threshold,
                lower_is_better=False):
            warn(msg + " [wall clock, not gated]")

    if compared == 0:
        warn("no benches had baselines; nothing gated")
        return 0
    for msg in regressions:
        print("REGRESSION: " + msg)
    print("compared %d report(s) at %.0f%% threshold: %s" %
          (compared, 100.0 * threshold,
           "FAIL (%d regression(s))" % len(regressions)
           if regressions else "OK"))
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--validate", metavar="DIR",
                        help="schema-check all BENCH_*.json in DIR")
    parser.add_argument("--baseline", metavar="DIR",
                        help="directory holding baseline BENCH_*.json")
    parser.add_argument("--current", metavar="DIR",
                        help="directory holding freshly produced BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="regression gate as a fraction (default 0.10)")
    parser.add_argument("--gate-timing", action="append", default=[],
                        metavar="KEY",
                        help="timing key to gate instead of warn "
                             "(repeatable)")
    parser.add_argument("--timing-threshold", type=float, default=3.0,
                        help="gate for --gate-timing keys as a fraction "
                             "(default 3.0 = fail past 4x the baseline)")
    args = parser.parse_args()

    if args.validate:
        return cmd_validate(args.validate)
    if args.baseline and args.current:
        return cmd_compare(args.baseline, args.current, args.threshold,
                           set(args.gate_timing), args.timing_threshold)
    parser.error("need --validate DIR, or --baseline DIR --current DIR")


if __name__ == "__main__":
    sys.exit(main())
