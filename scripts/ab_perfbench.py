#!/usr/bin/env python3
"""A/B runner for the repository benchmark.

    scripts/ab_perfbench.py --workload coold-large-closed --pairs 10 \
        --workdir /tmp/cool-ab [--parent HEAD] [--seed 9001]

Exports the parent commit (git archive) and the working tree (tracked and
untracked, non-ignored files, uncommitted edits included) into two
checkouts under --workdir, then runs --pairs alternating pairs of one
workload through each checkout's own, unchanged perfbench/run.py for
BENCHMARK.json's run_seconds: pair i runs both sides on seed --seed + i,
the parent first in even pairs and the change first in odd ones. Each
checkout keeps its .bench_build between invocations, so later runs rebuild
incrementally.

For every end-to-end metric of BENCHMARK.json it prints both medians and
quartiles, the change's wins (pairs where it is better, per the metric's
"better" direction) and a verdict:
  worse     the change's median is worse than the parent's by more than
            the metric's bound (a relative fraction of the parent median);
  gain      better on at least 90% of the pairs run (a pair with a failed
            run is no win), the median gap exceeds the parent's
            interquartile range (the IQR rule), and the change failed no
            more operations than the parent;
  unresolved a side's IQR exceeds the bound times its median, too wide
            to tell, and not every change run beats every parent run;
  neutral   none of the above.
It also prints each run's failed operations, each side's failed-operation
share and median host CPU steal (as coolbench reports it), and every run
that did not produce a result (workload, seed, exit status). Exits 1 if any
metric reads worse or unresolved or a run failed, else 0.
"""

import argparse
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEEP = ".bench_build"  # build state carried between invocations


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def export_parent(rev, dest):
    """git archive of rev into dest, once per commit."""
    stamp = os.path.join(dest, ".ab_rev")
    sha = git("rev-parse", rev).strip()
    if os.path.exists(stamp) and open(stamp).read() == sha:
        return sha
    os.makedirs(dest, exist_ok=True)
    for name in os.listdir(dest):
        path = os.path.join(dest, name)
        if name == KEEP:
            continue
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.remove(path)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait():
        sys.exit("ab: git archive %s failed" % rev)
    with open(stamp, "w") as f:
        f.write(sha)
    return sha


def export_tree(dest):
    """Mirror the working tree's files into dest; unchanged files keep their
    mtimes, so the benchmark's build stays incremental."""
    files = set(git("ls-files", "-z", "--cached", "--others",
                    "--exclude-standard").split("\0")) - {""}
    files = {f for f in files if os.path.isfile(os.path.join(ROOT, f))}
    for rel in sorted(files):
        src, dst = os.path.join(ROOT, rel), os.path.join(dest, rel)
        if os.path.isfile(dst) and filecmp.cmp(src, dst, shallow=False):
            continue
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copyfile(src, dst)
        shutil.copymode(src, dst)
    for top, dirs, names in os.walk(dest):
        if top == dest and KEEP in dirs:
            dirs.remove(KEEP)
        for name in names:
            rel = os.path.relpath(os.path.join(top, name), dest)
            if rel not in files:
                os.remove(os.path.join(top, name))


def run_once(checkout, workload, seed, seconds):
    """One perfbench run; (result dict or None, exit status)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None, done.returncode
    result = json.loads(lines[-1])
    steal = re.search(r"stolen ([0-9.]+)%", done.stderr)
    result["steal_pct"] = float(steal.group(1)) if steal else None
    return result, 0


def quantile(values, q):
    """Linear interpolation between order statistics (util::percentile)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] * (1 - (pos - lo)) + s[hi] * (pos - lo)


def verdict(metric, parent, change, pairs, more_failures):
    """Summary dict for one end-to-end metric over the usable paired runs;
    pairs counts every pair run, more_failures whether the change failed
    more operations than the parent."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_med, c_med = quantile(parent, 0.5), quantile(change, 0.5)
    p_iqr = quantile(parent, 0.75) - quantile(parent, 0.25)
    c_iqr = quantile(change, 0.75) - quantile(change, 0.25)
    better = (lambda p, c: c < p) if lower else (lambda p, c: c > p)
    wins = sum(better(p, c) for p, c in zip(parent, change))
    gap = (p_med - c_med) if lower else (c_med - p_med)  # > 0: change better
    worse_frac = (-gap / abs(p_med)) if p_med else (0.0 if gap >= 0 else 1.0)
    if worse_frac > bound:
        call = "worse"
    elif (any(iqr > bound * abs(med)
              for iqr, med in ((p_iqr, p_med), (c_iqr, c_med)) if med)
          and not all(better(p, c) for p in parent for c in change)):
        call = "unresolved"
    elif wins >= 0.9 * pairs and gap > p_iqr and not more_failures:
        call = "gain"
    else:
        call = "neutral"
    return {"parent_median": p_med, "change_median": c_med,
            "parent_q1": quantile(parent, 0.25),
            "parent_q3": quantile(parent, 0.75),
            "change_q1": quantile(change, 0.25),
            "change_q3": quantile(change, 0.75),
            "wins": wins,
            "change_pct": 100.0 * (c_med - p_med) / p_med if p_med else 0.0,
            "verdict": call}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True,
                        help="directory for the two checkouts")
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=9001,
                        help="seed of pair 0; pair i runs seed + i")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("ab: unknown workload " + args.workload)
    seconds = spec["run_seconds"]

    parent_dir = os.path.join(args.workdir, "parent")
    change_dir = os.path.join(args.workdir, "change")
    os.makedirs(change_dir, exist_ok=True)
    sha = export_parent(args.parent, parent_dir)
    export_tree(change_dir)
    sides = {"parent": parent_dir, "change": change_dir}

    runs = {"parent": [], "change": []}
    failures = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            result, status = run_once(sides[side], args.workload, seed, seconds)
            if result is None:
                failures.append({"side": side, "workload": args.workload,
                                 "seed": seed, "exit": status})
                print("pair %d seed %d: %s run failed, exit %d"
                      % (i, seed, side, status), flush=True)
            pair[side] = result
        if all(pair.values()):
            for side in runs:
                runs[side].append(pair[side])
        print("pair %d seed %d done, failed ops: parent %s, change %s"
              % ((i, seed) + tuple(pair[side]["failed"] if pair[side] else "-"
                                   for side in ("parent", "change"))),
              flush=True)

    print("\nworkload %s, parent %s vs working tree, %d usable pairs of %g s"
          % (args.workload, sha[:10], len(runs["parent"]), seconds))
    failed_share = {}
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        failed_share[side] = failed / attempted if attempted else 0.0
        incorrect = sum(not r["correct"] for r in runs[side])
        steal = [r["steal_pct"] for r in runs[side]
                 if r["steal_pct"] is not None]
        print("%-6s failed ops %d of %d (%.4f%%), incorrect runs %d, "
              "host steal median %s%%"
              % (side, failed, attempted, 100.0 * failed_share[side],
                 incorrect,
                 "%.1f" % quantile(steal, 0.5) if steal else "n/a"))
    failed_runs = {side: sum(f["side"] == side for f in failures)
                   for side in ("parent", "change")}
    more_failures = (failed_share["change"] > failed_share["parent"]
                     or failed_runs["change"] > failed_runs["parent"])
    header = ("%-20s %12s %25s %12s %25s %8s %6s  %s"
              % ("metric", "parent med", "parent [q1, q3]", "change med",
                 "change [q1, q3]", "change", "wins", "verdict"))
    print(header)
    bad = bool(failures)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if not runs["parent"]:
            break
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        s = verdict(metric, parent, change, args.pairs, more_failures)
        bad = bad or s["verdict"] in ("worse", "unresolved")
        print("%-20s %12.6g %25s %12.6g %25s %+7.1f%% %3d/%-2d  %s (bound %g)"
              % (name, s["parent_median"],
                 "[%.6g, %.6g]" % (s["parent_q1"], s["parent_q3"]),
                 s["change_median"],
                 "[%.6g, %.6g]" % (s["change_q1"], s["change_q3"]),
                 s["change_pct"], s["wins"], args.pairs, s["verdict"],
                 metric["bound"]))
    for f in failures:
        print("failed run: %(side)s, workload %(workload)s, seed %(seed)d, "
              "exit %(exit)d" % f)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
