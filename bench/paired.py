#!/usr/bin/env python3
"""Paired same-host perf gate: two git revisions, one host, one verdict.

    bench/paired.py BASE HEAD
    bench/paired.py --self-test

Both revisions name commits of this script's repository. Each is
exported with `git archive` and its `nvpsim` built from that tree's
perfbench/CMakeLists.txt (RelWithDebInfo, as perfbench builds it). Then
every perfbench workload command (perfbench/benchlib.py) runs PAIRS
times on each side at perfbench's default seed, alternating which side
runs first. Each run starts cold in a fresh directory and is gated like
a perfbench repetition. As in perfbench, each run is followed by
SETUPS_PER_REP runs of the workload's one-sample twin; their median is
the pair's setup_s (a single run of that twin, ~10 ms, is too noisy for
its bound).

For each workload and each end-to-end metric of BENCHMARK.json (name,
direction and bound) the report prints both medians with quartiles, the
median per-pair HEAD/BASE ratio, the pairs HEAD won, tied and lost, and
a verdict:

  gain        HEAD wins at least 9 of 10 pairs (ties count for neither
              side) and the medians differ by more than BASE's IQR
  regression  HEAD's median is worse than BASE's by more than the bound
  unresolved  BASE's IQR is wider than the bound, unless every HEAD run
              reads better than every BASE run

It also prints whether forward_progress and the CSV bytes are identical
on both sides. Nothing is tunable: the pair count and seed are
constants, the workloads come from perfbench and the bounds from
BENCHMARK.json.

Exit status: 0 when no metric regressed and no job failed, 1 otherwise,
2 when a side has no perfbench/ or does not build. --self-test checks
the verdicts on synthetic timings.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from benchlib import (DEFAULT_SEED, SETUPS_PER_REP,  # noqa: E402
                      WORKLOADS, BenchError, become_subreaper, gate_rep,
                      reap_survivors, run_timed, workload_command)

PAIRS = 10
SIDES = ("BASE", "HEAD")
BUILD_TIMEOUT_S = 900


def end_to_end():
    """[(name, better, bound)] of BENCHMARK.json's end-to-end metrics."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"], m["bound"]) for m in doc["end_to_end"]]


# ---- build -------------------------------------------------------------

def build(rev, work):
    """Export @p rev into @p work and build its nvpsim. Returns (commit,
    binary); raises BenchError naming @p rev when it cannot."""
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
         f"{rev}^{{commit}}"], capture_output=True, text=True).stdout.strip()
    if not sha:
        raise BenchError(f"{rev}: not a commit")
    src, out = work / f"src-{sha}", work / f"build-{sha}"
    if (out / "nvpsim").exists():  # BASE and HEAD name one commit
        return sha, out / "nvpsim"
    src.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                             capture_output=True)
    if archive.returncode != 0 or subprocess.run(
            ["tar", "-x", "-C", str(src)],
            input=archive.stdout).returncode != 0:
        raise BenchError(f"{rev}: cannot export the tree")
    if not (src / "perfbench" / "CMakeLists.txt").exists():
        raise BenchError(f"{rev}: no perfbench/ in that revision")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [["cmake", *generator, "-S", str(src / "perfbench"), "-B",
              str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(out), "--target", "nvpsim", "-j",
              str(min(4, os.cpu_count() or 1))]]
    for step in steps:
        try:
            res = subprocess.run(step, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT,
                                 timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{rev}: build timed out ({' '.join(step)})")
        if res.returncode != 0:
            tail = res.stdout.decode(errors="replace")[-3000:]
            raise BenchError(f"{rev}: does not build "
                             f"({' '.join(step)}):\n{tail}")
    return sha, out / "nvpsim"


# ---- the pair loop -----------------------------------------------------

@dataclass
class Side:
    """One side's runs of one workload, in pair order."""
    samples: dict = field(default_factory=dict)  # metric -> per-pair
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    csv: bytes = b""

    def add(self, values):
        for name, value in values.items():
            self.samples.setdefault(name, []).append(value)


def run_once(nvpsim, workload, tmp, name, ref, setup=False):
    """One gated run of the workload's command with @p nvpsim in a fresh
    directory. Returns (ProcResult, failed jobs, problems, CsvSummary)."""
    cwd = tmp / name
    cwd.mkdir()
    cmd = workload_command(workload, DEFAULT_SEED, cwd, setup=setup)
    res = run_timed([nvpsim, *cmd[1:]], cwd)
    failed, problems, csv = gate_rep(workload, res, cwd, tmp, ref)
    shutil.rmtree(cwd)
    return res, failed, problems, csv


def measure(workload, nvpsims, tmp):
    """Run @p workload PAIRS times with each binary of @p nvpsims
    (BASE, HEAD), alternating which goes first, in fresh directories
    under @p tmp. Returns one Side per binary."""
    sides = [Side() for _ in nvpsims]
    refs = [({}, {}) for _ in nvpsims]  # full and one-sample CSV bytes
    for k, nvpsim in enumerate(nvpsims):  # page the binary in
        run_once(nvpsim, workload, tmp, f"warmup-{k}", {}, setup=True)
    for pair in range(PAIRS):
        for k in (0, 1) if pair % 2 == 0 else (1, 0):
            side, (ref, setup_ref) = sides[k], refs[k]
            res, failed, problems, csv = run_once(
                nvpsims[k], workload, tmp, f"pair{pair}-{k}", ref)
            setups, setup_problems = [], []
            for n in range(SETUPS_PER_REP):
                setup, _, found, _ = run_once(
                    nvpsims[k], workload, tmp, f"pair{pair}-{k}-setup{n}",
                    setup_ref, setup=True)
                setups.append(setup)
                setup_problems += [f"one-sample setup run: {p}"
                                   for p in found]
            if setup_problems:  # as in perfbench: all jobs count failed
                failed = workload.jobs
                problems += setup_problems
            side.attempted += workload.jobs
            side.failed += failed
            side.problems += [f"pair {pair}: {p}" for p in problems]
            side.add({
                "wall_s": res.wall_s,
                "cpu_s": res.cpu_s,
                "setup_s": statistics.median(r.wall_s for r in setups),
                "sim_instr_per_s": csv.forward_progress / res.wall_s,
                "peak_rss_mb": max(r.maxrss_mb for r in [res, *setups]),
                "forward_progress": float(csv.forward_progress),
                "job_ok_frac": 1.0 - failed / workload.jobs,
            })
    for side, (ref, _) in zip(sides, refs):
        side.csv = ref.get("csv", b"")
    return sides


# ---- verdicts ----------------------------------------------------------

def quartiles(values):
    """(q1, median, q3)."""
    return statistics.quantiles(values, n=4, method="inclusive")


def tally(base, head, better):
    """(HEAD wins, ties, HEAD losses) over the pairs."""
    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (h - b) for b, h in zip(base, head)]
    return (sum(d > 0 for d in diffs), sum(d == 0 for d in diffs),
            sum(d < 0 for d in diffs))


def verdict(base, head, better, bound):
    """gain, regression, unresolved or "" for one metric's per-pair
    samples (pair i of each list ran together)."""
    b1, bmed, b3 = quartiles(base)
    hmed = statistics.median(head)
    sign = 1.0 if better == "higher" else -1.0
    if sign * (bmed - hmed) > bound * abs(bmed):
        return "regression"
    wins, _, _ = tally(base, head, better)
    if 10 * wins >= 9 * len(base) and abs(hmed - bmed) > b3 - b1:
        return "gain"
    all_better = (min(head) > max(base) if sign > 0
                  else max(head) < min(base))
    if b3 - b1 > bound * abs(bmed) and not all_better:
        return "unresolved"
    return ""


def summarize(name, sides, spec):
    """The report lines for one workload and whether it failed the gate
    (a regression or a failed job on either side)."""
    base, head = sides
    lines = [f"{name}: {PAIRS} pairs, seed {DEFAULT_SEED}",
             f"  {'metric':17s} {'better':6s} {'bound':5s} "
             f"{'BASE median [q1, q3]':>29s} {'HEAD median [q1, q3]':>29s}"
             f" {'HEAD/BASE':>9s} {'won-tied-lost':>13s}  verdict"]
    bad = False
    for metric, better, bound in spec:
        b, h = base.samples[metric], head.samples[metric]
        ratios = [y / x for x, y in zip(b, h) if x]
        ratio = statistics.median(ratios) if ratios else float("nan")
        said = verdict(b, h, better, bound)
        bad |= said == "regression"
        cells = []
        for values in (b, h):
            q1, med, q3 = quartiles(values)
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        won = "-".join(str(n) for n in tally(b, h, better))
        lines.append(f"  {metric:17s} {better:6s} {bound:<5g} "
                     f"{cells[0]:>29s} {cells[1]:>29s} {ratio:>9.4f} "
                     f"{won:>13s}  {said or '-'}")
    same_fp = base.samples["forward_progress"] == \
        head.samples["forward_progress"]
    lines.append(f"  forward_progress identical on both sides: "
                 f"{'yes' if same_fp else 'NO'}; CSV bytes identical: "
                 f"{'yes' if base.csv == head.csv else 'NO'}")
    for label, side in zip(SIDES, sides):
        lines.append(f"  {label}: {side.failed} of {side.attempted} jobs "
                     f"failed")
        lines += [f"  {label} FAILED: {p}" for p in side.problems]
        bad |= side.failed > 0 or bool(side.problems)
    return lines, bad


# ---- self-test ---------------------------------------------------------

def self_test():
    """The verdicts on synthetic per-pair timings."""
    spec = end_to_end()
    bound = {m: b for m, _, b in spec}["wall_s"]
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.05, 9.95]
    wide = [6.0, 14.0, 8.0, 12.0, 7.0, 13.0, 9.0, 11.0, 10.0, 10.5]
    checks = [
        ("A/A gives no verdict", verdict(base, base, "lower", bound), ""),
        ("A/A, pairs reordered, gives no verdict",
         verdict(base, base[::-1], "lower", bound), ""),
        ("x1.5 wall is a regression",
         verdict(base, [1.5 * v for v in base], "lower", bound),
         "regression"),
        ("x1/1.5 instr/s is a regression",
         verdict(base, [v / 1.5 for v in base], "higher", bound),
         "regression"),
        ("x0.6 wall is a gain",
         verdict(base, [0.6 * v for v in base], "lower", bound), "gain"),
        ("9/10 wins inside BASE's IQR is unresolved",
         verdict(wide, [v - 0.3 for v in wide[:9]] + [wide[9] + 0.3],
                 "lower", bound), "unresolved"),
        ("ties count for neither side",
         tally(base, base[:2] + [0.6 * v for v in base[2:]], "lower"),
         (8, 2, 0)),
        ("8 wins and 2 ties are no gain",
         verdict(base, base[:2] + [0.6 * v for v in base[2:]], "lower",
                 bound), ""),
    ]

    def side(failed):
        s = Side(attempted=10 * PAIRS, failed=failed, csv=b"x")
        for metric, _, _ in spec:
            s.samples[metric] = list(base)
        return s

    checks += [
        ("clean A/A passes the gate",
         summarize("synthetic", (side(0), side(0)), spec)[1], False),
        ("a failed job fails the gate",
         summarize("synthetic", (side(0), side(1)), spec)[1], True),
    ]
    ok = True
    for what, got, want in checks:
        passed = got == want
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {what}: got {got!r}"
              + ("" if passed else f", want {want!r}"))
    return 0 if ok else 1


# ---- main --------------------------------------------------------------

def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        usage="%(prog)s BASE HEAD | %(prog)s --self-test")
    parser.add_argument("revs", nargs="*", metavar="REV")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        if args.revs:
            parser.error("--self-test takes no revisions")
        return self_test()
    if len(args.revs) != 2:
        parser.error("expected two revisions, BASE and HEAD")

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    become_subreaper()
    spec = end_to_end()
    bad = False
    with tempfile.TemporaryDirectory(prefix="paired-") as work:
        work = Path(work)
        try:
            built = [build(rev, work) for rev in args.revs]
        except BenchError as e:
            print(f"paired: {e}", file=sys.stderr)
            return 2
        for label, rev, (sha, _) in zip(SIDES, args.revs, built):
            print(f"{label} {rev} = {sha}")
        nvpsims = [nvpsim for _, nvpsim in built]
        for workload in WORKLOADS.values():
            tmp = work / f"runs-{workload.name}"
            tmp.mkdir()
            try:
                sides = measure(workload, nvpsims, tmp)
            finally:
                reap_survivors(tmp)
            lines, failed = summarize(workload.name, sides, spec)
            print("\n".join(lines), flush=True)
            bad |= failed
    print("paired: FAILED (a regression or a failed job)" if bad
          else "paired: no regression, no failed job")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
