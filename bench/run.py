"""betaspec benchmark: time to checked output on one workload.

Run from the root of a source checkout:

    python3 bench/run.py --workload figures --seed 1 --seconds 55 --trace 0

Operations are ``betaspec.cli.run(argv)`` calls made in this process, one
at a time in a fixed order (a closed loop with one client).  Before each
one the eigenvalue cache is cleared, so every operation pays what a fresh
``betaspec`` process pays.  The run repeats whole rounds of the workload's
operations for about ``--seconds``, then checks the outputs against
references computed apart from the program (see checks.py).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (see spans.py) with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One client, one process, no threads: keep BLAS in the checks and in the
# program's numpy calls single-threaded.  Must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Set-up is sampled once before the first round and once after every round,
# so the samples spread over the run's changing host speed; at least this
# many in all.
SETUP_SAMPLES = 5
# No round starts that would be expected to end after this many seconds, so a
# run ends well within 180 s.
HARD_STOP_S = 100.0
OUT_ROOT = Path(".bench_out")
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import betaspec.cli\n"
    "betaspec.cli.build_parser()\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(src: Path) -> float:
    """Time from interpreter start to a built CLI parser, in a fresh process."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(src)],
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.wait(timeout=120)
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return t1 - t0


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Result:
    """What one operation did in one round."""

    def __init__(self, op, round_index, traced):
        self.op = op
        self.round = round_index
        self.traced = traced
        self.wall = self.cpu = 0.0
        self.rc = None
        self.error = None
        self.files = {}
        self.digest = None
        self.problems = []


def run_op(op, rundir: Path, cli, spectra, round_index: int, traced: bool) -> Result:
    res = Result(op, round_index, traced)
    opdir = rundir / op.name
    shutil.rmtree(opdir, ignore_errors=True)
    opdir.mkdir(parents=True)
    argv = list(op.argv) + ["--out", str(opdir / op.out)]
    out, err = io.StringIO(), io.StringIO()
    spectra.eigenvalues.cache_clear()
    c0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            res.rc = cli.run(argv)
    except SystemExit as exc:
        res.rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        res.error = "raised " + traceback.format_exc(limit=-3).strip().replace("\n", " | ")
    res.wall = time.perf_counter() - t0
    res.cpu = _cpu_seconds() - c0
    if res.error is None and res.rc != 0:
        res.error = f"exit code {res.rc}: {err.getvalue().strip()}"
    digest = hashlib.sha256(out.getvalue().encode())
    for path in sorted(p for p in opdir.rglob("*") if p.is_file()):
        name = str(path.relative_to(opdir))
        res.files[name] = path.read_bytes()
        digest.update(name.encode() + b"\0" + res.files[name])
    res.digest = digest.hexdigest()
    return res


def run_check(op, files) -> list:
    try:
        return op.check(files)
    except Exception as exc:
        return [f"check could not read the output: {type(exc).__name__}: {exc}"]


def check_results(results) -> None:
    """Check round 0 in full; later rounds must repeat its bytes exactly.

    The program promises identical bytes for identical flags, so a traced
    round must also reproduce the untraced round's files.
    """
    reference = {}
    for res in results:
        if res.round != 0 or res.error:
            continue
        reference[res.op.name] = (res.digest, run_check(res.op, res.files))
    series = {}
    for res in results:
        if res.round == 0 and res.op.series and not res.error:
            series.setdefault(res.op.series, []).append(res)
    for members in series.values():
        try:
            rows = [checks.parse_outliers_csv(workloads.only_text(r.files)) for r in members]
            extra = checks.check_outlier_series(rows, members[0].op.digits)
        except Exception as exc:
            extra = [f"series check could not read the outputs: {exc}"]
        last = members[-1].op.name
        reference[last] = (reference[last][0], reference[last][1] + extra)
    for res in results:
        if res.error:
            continue
        ref = reference.get(res.op.name)
        if ref is None:
            res.problems = run_check(res.op, res.files)
        elif res.digest != ref[0]:
            res.problems = (["output bytes differ from the first round's"]
                            + run_check(res.op, res.files))
        else:
            res.problems = ref[1]


def another_round(done: int, elapsed: float, seconds: float, trace: int) -> bool:
    """Whole rounds for about ``seconds``: a round starts if it is expected to
    end less than half a round after them.  A traced run needs an untraced
    and a traced round."""
    if done < (2 if trace else 1):
        return True
    per_round = elapsed / done
    if elapsed + per_round > HARD_STOP_S:
        return False
    return elapsed + per_round / 2 < seconds


def median_rounds(results, traced: bool, key) -> float:
    per_round = {}
    for res in results:
        if res.traced == traced:
            per_round[res.round] = per_round.get(res.round, 0.0) + key(res)
    return statistics.median(per_round.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "betaspec" / "cli.py").is_file():
        sys.stderr.write(f"betaspec sources not found under {src}; run from a checkout root\n")
        return 2
    sys.path.insert(0, str(src))
    import betaspec
    from betaspec import cli, spectra
    if Path(betaspec.__file__).resolve().parent != (src / "betaspec").resolve():
        sys.stderr.write(f"imported betaspec from {betaspec.__file__}, not from {src}\n")
        return 2
    cli.build_parser()

    ops = workloads.build(args.workload, args.seed)
    # set-up is an end-to-end metric, so a traced run does not measure it
    setup_samples = [] if args.trace else [measure_setup(src)]

    rundir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)

    results, tracers, first_digest = [], [], {}
    start = time.perf_counter()
    round_index = 0
    while another_round(round_index, time.perf_counter() - start, args.seconds, args.trace):
        traced = bool(args.trace) and round_index % 2 == 1
        tracer = spans.Tracer() if traced else None
        if tracer:
            tracer.install()
            tracers.append((round_index, tracer))
        try:
            for op in ops:
                res = run_op(op, rundir, cli, spectra, round_index, traced)
                if round_index and res.digest == first_digest.get(op.name):
                    res.files = None    # checked through round 0's copy
                elif not round_index and not res.error:
                    first_digest[op.name] = res.digest
                results.append(res)
        finally:
            if tracer:
                tracer.uninstall()
        round_index += 1
        if not args.trace:
            setup_samples.append(measure_setup(src))
    while setup_samples and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(measure_setup(src))
    rusage = [resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    peak_rss_mib = max(rusage) / 1024.0

    t_check = time.perf_counter()
    check_results(results)
    print(f"checks took {time.perf_counter() - t_check:.1f} s; "
          f"{round_index} round(s) and {len(setup_samples)} set-up sample(s) "
          f"took {t_check - start:.1f} s")
    for op in ops:
        shutil.rmtree(rundir / op.name, ignore_errors=True)
    failed = [r for r in results if r.error or r.problems]
    correct = not any(r.problems for r in results)

    for res in failed[:10]:
        print(f"FAILED {res.op.name} round {res.round}: {res.error or '; '.join(res.problems)}")
    for idx in range(round_index):
        done = [r for r in results if r.round == idx]
        print(f"round {idx}{' traced' if done[0].traced else ''}: "
              f"wall {sum(r.wall for r in done):.4f} s, cpu {sum(r.cpu for r in done):.4f} s")
    for op in ops:
        walls = [r.wall for r in results if r.op is op and not r.traced]
        print(f"op {op.name:24s} median {statistics.median(walls):9.4f} s "
              f"over {len(walls)} | {' '.join(op.argv)}")

    if args.trace:
        per_round = [t.layer_metrics() for _, t in tracers]
        metrics = {name: statistics.median(m[name] for m in per_round)
                   for name in per_round[0]}
        untraced = median_rounds(results, False, lambda r: r.wall)
        traced_wall = median_rounds(results, True, lambda r: r.wall)
        metrics["trace.overhead_pct"] = 100.0 * (traced_wall / untraced - 1.0)
        with open(rundir / "spans.jsonl", "w") as fh:
            for idx, tracer in tracers:
                tracer.write(fh, idx, start)
        units = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": median_rounds(results, False, lambda r: r.wall),
            "op_p50_s": statistics.median(r.wall for r in results if not r.traced),
            "cpu_s": median_rounds(results, False, lambda r: r.cpu),
            "peak_rss_mib": peak_rss_mib,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "cpu_s": "s",
                 "peak_rss_mib": "MiB"}
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
