"""End-to-end benchmark of the aldikit CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload aoc --seed 7 --seconds 56 --trace 0

The benchmark generates the workload's inputs from the seed (see gen.py),
then runs the real CLI (``python -m aldikit.cli`` with ``PYTHONPATH=src``)
one command at a time from this single process: a closed loop with one
client and no concurrency. The chain runs once unmeasured (warm-up), then
rounds of every command, a quick command several times in a round, repeat
until ``--seconds`` have passed since the warm-up began; each metric is
the median over its command's calls in those rounds. Every output is
checked against the generator's ledger and against the sha256 digests
recorded in digests.json for that workload and seed (for a seed without
recorded digests, every call must reproduce the bytes of the first one).

With ``--trace 1`` the chain instead runs twice in-process in fresh
interpreters (tracer.py), once plain and once with timing wrappers on the
public functions of each aldikit module, and the per-layer metrics are
reported. The last line of standard output is the JSON result; the line
before it holds the run facts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS_FILE = BENCH_DIR / "digests.json"
RUN_BUDGET_S = 165.0  # every child is killed once the whole run exceeds this
# A measured round gives each command about this many seconds: a command
# quicker than that is called several times, a slower one once.
ROUND_STEP_S = 1.0

sys.path.insert(0, str(BENCH_DIR))
import gen  # noqa: E402


# ---------------------------------------------------------------------------
# Command chains


@dataclass(frozen=True)
class Step:
    """One CLI command of a chain, run with the output directory as cwd."""

    name: str  # metric stem: `<name>_s`, `<name>_rss_mb`
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()  # files whose sha256 must match
    digest_stdout: bool = False
    check: Callable[[dict, str, Path], list[str]] | None = None


def _json_fields(stdout: str, expected: dict) -> list[str]:
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not JSON"]
    return [
        "%s: got %r, expected %r" % (key, got.get(key), want)
        for key, want in expected.items()
        if got.get(key) != want
    ]


def _check_ingest(ledger: dict, stdout: str, out: Path) -> list[str]:
    return _json_fields(stdout, {
        "hits": ledger["hits"],
        "rows": ledger["rows"],
        "rows_per_source": ledger["rows_per_source"],
        "skipped_lines": 0,
    })


def _check_build(ledger: dict, stdout: str, out: Path) -> list[str]:
    problems = _json_fields(stdout, {
        "groups": {
            "total": ledger["groups"],
            "kept": ledger["kept"],
            "discarded": ledger["discarded"],
            "more_than_three_annotations": ledger["more_than_three_annotations"],
        },
        "kept": ledger["kept"],
        "discarded": ledger["discarded"],
    })
    stats = json.loads((out / "ds" / "stats.json").read_text(encoding="utf-8"))
    for got, want, what in (
        (stats["discard_categories"], ledger["discard_categories"],
         "discard categories"),
        (stats["distinct_keys"], ledger["distinct_keys"], "distinct keys"),
    ):
        if got != want:
            problems.append("%s: got %r, expected %r" % (what, got, want))
    return problems


def _check_agreement(ledger: dict, stdout: str, out: Path) -> list[str]:
    items = ledger["agreement_items"]
    return _json_fields(stdout, {
        "items": items, "ratings": 3 * items, "groups_total": ledger["groups"]
    })


def _check_lexicon(ledger: dict, stdout: str, out: Path) -> list[str]:
    return _json_fields(stdout, {
        "tokens": ledger["lexicon_tokens"],
        "distinct_tokens_seen": ledger["lexicon_distinct_seen"],
    })


def _check_scores(ledger: dict, stdout: str, out: Path) -> list[str]:
    lines = 0
    with open(out / "scores.tsv", encoding="utf-8") as fh:
        for lines, line in enumerate(fh, start=1):
            if not line.startswith("%d\t" % lines):
                return ["scores.tsv: line %d has id %r" % (lines, line[:20])]
    if lines != ledger["kept"]:
        return ["scores.tsv: %d score lines, expected %d" % (lines, ledger["kept"])]
    return []


def _check_evaluate(ledger: dict, stdout: str, out: Path) -> list[str]:
    report = json.loads(stdout)
    n = report["all"]["n"]
    if n == 0 or n != report["comment"]["n"] + report["control"]["n"]:
        return ["evaluate: inconsistent counts %r" % report]
    if not 0.0 <= report["all"]["rmse"] <= 1.0:
        return ["evaluate: rmse %r outside [0, 1]" % report["all"]["rmse"]]
    return []


def _check_speech(ledger: dict, stdout: str, out: Path) -> list[str]:
    return _json_fields(stdout, {"segments": ledger["segments"]})


def _check_version(ledger: dict, stdout: str, out: Path) -> list[str]:
    if not stdout.startswith("aldikit "):
        return ["unexpected output %r" % stdout[:80]]
    return []


# `setup_s`: interpreter, imports and parser build, which every command pays.
VERSION = Step("version", ("--version",), check=_check_version)


LEXICON_FLAGS = ("--estimator", "lexicon", "--lexicon", "lexicon.txt")
DATASET_FILES = tuple(
    "ds/" + name for name in
    ("dataset.tsv", "discarded.tsv", "split_assignment.tsv", "stats.json",
     "stats.txt")
)


def chain(seed: int) -> list[Step]:
    """The workload's commands, in order: every subcommand once."""
    return [
        Step("ingest", ("ingest", "../in/hits.tsv", "-o", "rows.tsv", "--json"),
             ("rows.tsv",), check=_check_ingest),
        Step("build_dataset", ("build-dataset", "rows.tsv", "--seed", str(seed),
                               "-o", "ds", "--json"),
             DATASET_FILES, check=_check_build),
        Step("agreement", ("agreement", "rows.tsv", "--json"),
             digest_stdout=True, check=_check_agreement),
        Step("build_lexicon", ("build-lexicon", "../in/msa.txt", "-o",
                               "lexicon.txt", "--json"),
             ("lexicon.txt",), check=_check_lexicon),
        Step("score", ("score",) + LEXICON_FLAGS
             + ("--from-dataset", "ds/dataset.tsv", "-o", "scores.tsv"),
             ("scores.tsv",), check=_check_scores),
        Step("evaluate", ("evaluate", "--gold", "ds/dataset.tsv", "--pred",
                          "scores.tsv", "--split", "test", "--json"),
             digest_stdout=True, check=_check_evaluate),
        Step("speech", ("speech", "../in/transcript.html", "--mode", "p")
             + LEXICON_FLAGS + ("-o", "series.csv", "--plot", "series.svg",
                                "--json"),
             ("series.csv", "series.svg"), check=_check_speech),
    ]


RSS_STEPS = ("build_dataset", "agreement", "score", "evaluate")


# ---------------------------------------------------------------------------
# Running and checking


@dataclass
class StepResult:
    name: str
    code: int
    wall_s: float
    rss_kb: int
    stdout: str
    problems: list[str] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["SOURCE_DATE_EPOCH"] = "0"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], cwd: Path, deadline: float,
              stdout_path: Path) -> tuple[int, float, int]:
    """Run one child; return (exit code, wall seconds, its own peak RSS KB).

    The RSS comes from ``os.wait4`` on this child's pid, so it is the
    child's own high-water mark, not the maximum over all children reaped
    so far (which is what ``RUSAGE_CHILDREN`` reports).
    """
    err_path = stdout_path.with_suffix(".stderr")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=err)
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                                   proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write("%s exited %d: %s\n" % (
            argv, proc.returncode,
            err_path.read_text(encoding="utf-8", errors="replace")[-2000:]))
    return proc.returncode, wall, usage.ru_maxrss


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def step_digests(step: Step, out: Path, stdout: str) -> dict[str, str]:
    digests = {name: sha256(out / name) for name in step.outputs
               if (out / name).is_file()}
    if step.digest_stdout:
        digests[step.name + ".stdout"] = hashlib.sha256(
            stdout.encode("utf-8")).hexdigest()
    return digests


def check_step(step: Step, result: StepResult, out: Path, ledger: dict,
               expected: dict[str, str]) -> None:
    """Fill ``result.problems``.

    ``expected`` maps output names to digests; names it lacks are added, so
    the first execution of a seed without recorded digests becomes the
    reference for the later ones.
    """
    if result.code != 0:
        result.problems.append("exit code %d" % result.code)
        return
    digests = step_digests(step, out, result.stdout)
    for name in step.outputs:
        if name not in digests:
            result.problems.append("%s was not written" % name)
    for name, digest in digests.items():
        want = expected.setdefault(name, digest)
        if digest != want:
            result.problems.append("%s differs from its recorded digest" % name)
    if step.check is not None:
        try:
            result.problems.extend(step.check(ledger, result.stdout, out))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result.problems.append("check failed: %r" % exc)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_step(step: Step, out: Path, ledger: dict, expected: dict,
             deadline: float) -> StepResult:
    """Run one command as a child process in ``out`` and check it.

    Its outputs are removed first, so a call that writes nothing fails even
    when an earlier call of the same command left the files behind.
    """
    for name in step.outputs:
        (out / name).unlink(missing_ok=True)
    stdout_path = out.parent / ("%s.stdout" % step.name)
    code, wall, rss = run_child(
        [sys.executable, "-m", "aldikit.cli", *step.argv], out, deadline,
        stdout_path)
    result = StepResult(step.name, code, wall, rss,
                        stdout_path.read_text(encoding="utf-8"))
    check_step(step, result, out, ledger, expected)
    return result


def run_chain(steps: list[Step], out: Path, ledger: dict, expected: dict,
              deadline: float) -> list[StepResult]:
    """Every step once, in order, in a fresh output directory."""
    fresh_dir(out)
    return [run_step(step, out, ledger, expected, deadline) for step in steps]


def generate(workload: str, seed: int, work: Path, deadline: float) -> dict:
    """Write the inputs from a child process and return its ledger.

    A child keeps the generated data out of this process: a spawned command
    starts as a copy of its parent, and Linux counts the parent's resident
    pages at spawn time into the child's peak RSS.
    """
    argv = [sys.executable, str(BENCH_DIR / "gen.py"), workload, str(seed),
            str(work / "in")]
    code = run_child(argv, work, deadline, work / "ledger.json")[0]
    if code != 0:
        raise RuntimeError("input generator exited %d" % code)
    return json.loads((work / "ledger.json").read_text(encoding="utf-8"))


def load_expected(workload: str, seed: int) -> tuple[dict, bool]:
    if DIGESTS_FILE.is_file():
        recorded = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
        digests = recorded.get(workload, {}).get(str(seed))
        if digests:
            return dict(digests), True
    return {}, False


# ---------------------------------------------------------------------------
# Modes


def repeat(once, seconds: float, start: float | None = None) -> list:
    """Call ``once`` until about ``seconds`` have passed; at least once.

    The time counts from ``start`` (a ``perf_counter`` value; now if not
    given). Another call is made while it is expected to end no more than
    half a call past ``seconds``, so a run lasts ``seconds`` give or take
    half a call however fast the machine is at the moment.
    """
    if start is None:
        start = time.perf_counter()
    runs = [once()]
    first = time.perf_counter()
    while True:
        now = time.perf_counter()
        per_call = (now - first) / (len(runs) - 1) if len(runs) > 1 else now - start
        if now - start + per_call / 2 > seconds:
            return runs
        runs.append(once())


def untraced(steps, work, ledger, expected, seconds, deadline):
    """Warm-up chain, then measured rounds of child processes.

    The warm-up fills the OS and bytecode caches and gives each command's
    duration, which sets how often it is called per round. Each metric is
    the median over all measured calls of its command, so a quick command,
    whose relative jitter is largest, gets the most samples, and every
    command is sampled across the whole run.
    """
    out = work / "out"
    start = time.perf_counter()
    commands = steps + [VERSION]
    warmup = run_chain(commands, out, ledger, expected, deadline)
    calls = {r.name: max(1, round(ROUND_STEP_S / r.wall_s)) for r in warmup}

    def one_round():
        # Calls of one command are spread through the round, not made in a
        # row, so its samples see the machine at more different moments.
        return [run_step(step, out, ledger, expected, deadline)
                for slot in range(max(calls.values()))
                for step in commands if slot < calls[step.name]]

    rounds = repeat(one_round, seconds, start)
    measured = [r for rnd in rounds for r in rnd]

    def median(name, attr, scale=1.0):
        return statistics.median(
            getattr(r, attr) for r in measured if r.name == name) * scale

    metrics = {"setup_s": (median("version", "wall_s"), "s")}
    for step in steps:
        metrics[step.name + "_s"] = (median(step.name, "wall_s"), "s")
    metrics["total_s"] = (sum(median(s.name, "wall_s") for s in steps), "s")
    metrics["peak_rss_mb"] = (max(median(s.name, "rss_kb", 1 / 1024.0)
                                  for s in steps), "MB")
    for name in RSS_STEPS:
        metrics[name + "_rss_mb"] = (median(name, "rss_kb", 1 / 1024.0), "MB")
    facts = {"calls_per_round": calls}
    return metrics, warmup + measured, len(rounds), facts


def run_tracer(steps, work, ledger, expected, deadline, traced: bool):
    """One in-process run of the chain in a fresh interpreter, checked."""
    out = fresh_dir(work / ("out_traced" if traced else "out_plain"))
    plan = work / "plan.json"
    plan.write_text(json.dumps({"steps": [list(s.argv) for s in steps],
                                "out": str(out)}), encoding="utf-8")
    report_path = work / ("traced.json" if traced else "plain.json")
    argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(plan),
            str(report_path)] + ([] if traced else ["--off"])
    code = run_child(argv, work, deadline, work / "tracer.stdout")[0]
    if code != 0:
        raise RuntimeError("tracer exited %d" % code)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    results = []
    for step, got in zip(steps, report["steps"]):
        result = StepResult(step.name, got["code"], got["wall_s"], 0,
                            got["stdout"])
        check_step(step, result, out, ledger, expected)
        results.append(result)
    return report, results


def traced(steps, work, ledger, expected, seconds, deadline):
    """Plain and traced in-process runs, repeated; per-layer metrics."""
    results = []

    def pair():
        plain, plain_results = run_tracer(steps, work, ledger, expected,
                                          deadline, traced=False)
        trace, trace_results = run_tracer(steps, work, ledger, expected,
                                          deadline, traced=True)
        results.extend(plain_results + trace_results)
        return plain, trace

    pairs = repeat(pair, seconds)
    metrics = {
        name: (statistics.median(t["metrics"][name][0] for _, t in pairs), unit)
        for name, (_, unit) in pairs[0][1]["metrics"].items()
    }
    metrics["trace.overhead_s"] = (statistics.median(
        t["total_s"] - p["total_s"] for p, t in pairs), "s")
    shutil.copyfile(work / "traced.json", WORK / ("spans-%s.json" % work.name))
    facts = {"absent_metrics": pairs[0][1]["absent"]}
    share = metrics.get("textnorm.normalize.distinct_share")
    if share:
        facts["normalize_distinct_share"] = round(share[0], 4)
    return metrics, results, len(pairs), facts


def git_commit() -> str:
    """HEAD of the checkout when it is a git checkout, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "aldikit" / "cli.py").is_file():
        print("error: %s/aldikit not found; run from a checkout of the repo"
              % SRC, file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    work = fresh_dir(WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid())))
    try:
        ledger = generate(args.workload, args.seed, work, deadline)
        steps = chain(args.seed)
        expected, recorded = load_expected(args.workload, args.seed)
        mode = traced if args.trace else untraced
        metrics, results, reps, mode_facts = mode(
            steps, work, ledger, expected, args.seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = 0
    for result in results:
        failed += bool(result.problems)
        for problem in result.problems:
            print("FAIL %s: %s" % (result.name, problem), file=sys.stderr)
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": reps,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "digests": "recorded" if recorded else "first-repetition",
        "input_bytes": ledger["input_bytes"],
        "rows": ledger["rows"],
        "distinct_raw_texts": ledger["distinct_raw_texts"],
        "distinct_normalized_keys": ledger["distinct_keys"]["normalized"],
        "raw_text_distinct_share": round(
            ledger["distinct_raw_texts"] / ledger["rows"], 4),
        **mode_facts,
    }
    print(json.dumps({"facts": facts}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
