"""Offline benchmark of the paper's three applications, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It synthesizes the seeded corpus of the
workload (corpus.py, in a process of its own), writes the pipeline
configuration with the program's own `config` command, then repeats whole
rounds of sessions for S seconds, each session a fresh process driving the
`speech-features` entry point (session.py):

  --trace 0   a round is two set-up probes, one session at --njobs 1 and
              one at --njobs 2; prints the end-to-end metrics
  --trace 1   a round is one untraced and one traced session at --njobs 1;
              prints the per-layer metrics, from the spans of the traced
              sessions, and the tracing overhead

Every output is checked (checks.py) and every session's container must be
byte-identical to the first one. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Work files go
to .bench_work/ in the checkout and are removed at the end, except the
spans of the last traced session.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")

# `speech-features config` arguments of each workload, and the hand edits a
# user makes to the generated text
CONFIGS = {
    "pitch-mfcc-16k": (["mfcc", "--pitch", "kaldi", "--delta", "--cmvn"], []),
    # the number of warp-search rounds depends on the data (4 to 15 on
    # seeds 1-6 of a 6-speaker corpus, 2x in run time); at most 2 rounds
    # every seed runs both, so every seed asks for the same work
    "vtln-mfcc-16k": (["mfcc", "--vtln", "--cmvn"],
                      [("\n  num_iters: 15\n", "\n  num_iters: 2\n")]),
    "abx-plp-22k": (["plp", "--delta"], [("rasta: false", "rasta: true")]),
}

# left out of the sessions' environment, so the program runs with its
# default thread settings whatever the caller's shell sets
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")

SESSION_TIMEOUT = 150
SETUP_PROBES = 2

END_TO_END = {"xrt_j1": "x", "xrt_j2": "x", "peak_rss_mb": "MB", "setup_s": "s"}


def _environment():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["BENCH_ROOT"] = ROOT
    return env


def _call(args, cwd, env):
    """Run a Python script to its end; its stdout, or an error on failure.

    The child gets a process group of its own, so that a timeout also ends
    the worker processes it started.
    """
    proc = subprocess.Popen([sys.executable] + args, cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=SESSION_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{args[0]} timed out after {SESSION_TIMEOUT} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}: "
                           f"{err.strip()[-2000:]}")
    return out


def edit_config(workload, text):
    """The generated configuration text with the workload's hand edits."""
    for old, new in CONFIGS[workload][1]:
        if text.count(old) != 1:
            raise RuntimeError(f"config text has no single {old!r} to edit")
        text = text.replace(old, new)
    return text


def prepare(workload, seed, workdir, env):
    """Write the corpus, manifest and configuration; return the truth."""
    _call([os.path.join(BENCH, "corpus.py"), "--workload", workload,
           "--seed", str(seed), "--out", workdir], ROOT, env)
    text = _call(["-m", "speechfeatures", "config"] + CONFIGS[workload][0],
                 workdir, env)
    with open(os.path.join(workdir, "config.txt"), "w", encoding="utf-8") as fp:
        fp.write(edit_config(workload, text))
    with open(os.path.join(workdir, "truth.json"), encoding="utf-8") as fp:
        return json.load(fp)


class Sessions:
    """Runs sessions in one corpus directory and keeps their outcomes."""

    def __init__(self, workload, workdir, env):
        self.workload = workload
        self.workdir = workdir
        self.env = env
        self.attempted = 0
        self.failed = []
        self.first = None  # (sha256 of the container, eval output)

    def setup(self):
        out = _call([os.path.join(BENCH, "session.py"), "setup", "config.txt",
                     "manifest.txt"], self.workdir, self.env)
        return json.loads(out.splitlines()[-1])["seconds"]

    def run(self, njobs, spans=None):
        """One session; its result dict, or None if it failed."""
        self.attempted += 1
        args = [os.path.join(BENCH, "session.py"), "run", self.workload, str(njobs)]
        try:
            result = json.loads(_call(args + ([spans] if spans else []),
                                      self.workdir, self.env).splitlines()[-1])
        except (RuntimeError, ValueError) as err:
            self.failed.append(f"njobs {njobs}: {err}")
            return None
        container = os.path.join(self.workdir, "out.bin")
        with open(container, "rb") as fp:
            digest = hashlib.sha256(fp.read()).hexdigest()
        if any(result["codes"]):
            self.failed.append(f"njobs {njobs}: exit codes {result['codes']}")
            return None
        if self.first is None:
            self.first = (digest, result["stdout"])
            os.replace(container, os.path.join(self.workdir, "first.bin"))
        elif (digest, result["stdout"]) != self.first:
            self.failed.append(f"njobs {njobs}: output differs from the first session")
            return None
        return result


def check(workload, workdir, truth, sessions):
    """Failures of the output checks on the first session's container."""
    if sessions.first is None:
        return ["no session succeeded"]
    items = checks.read_container(os.path.join(workdir, "first.bin"))
    program_dtw = None
    if workload == "abx-plp-22k":
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from speechfeatures.evaluate import dtw_cosine as program_dtw
    return checks.check_output(workload, items, truth, sessions.first[1], program_dtw)


def timed_rounds(sessions, seconds):
    """Rounds of set-up probes and sessions at njobs 1 and 2 (untraced)."""
    samples = {"setup": [], 1: [], 2: [], "rss": []}
    start = time.perf_counter()
    rounds = 0
    while True:
        began = time.perf_counter()
        samples["setup"] += [sessions.setup() for _ in range(SETUP_PROBES)]
        # alternate the order so neither job count always runs first
        for njobs in ((1, 2) if rounds % 2 == 0 else (2, 1)):
            result = sessions.run(njobs)
            if result is not None:
                samples[njobs].append(result["seconds"])
                if njobs == 1:
                    samples["rss"].append(result["maxrss_kb"] / 1024.0)
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return samples, rounds


def traced_rounds(sessions, seconds, spans_path):
    """Rounds of one untraced and one traced session at njobs 1."""
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        began = time.perf_counter()
        for traced_turn in ((False, True) if rounds % 2 == 0 else (True, False)):
            result = sessions.run(1, spans_path if traced_turn else None)
            if result is None:
                continue
            if traced_turn:
                with open(spans_path, encoding="utf-8") as fp:
                    record = json.load(fp)
                traced.append(result["seconds"])
                layers.append(tracer.summarize(record["spans"]))
            else:
                plain.append(result["seconds"])
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return plain, traced, layers, rounds


def _median(values):
    return statistics.median(values) if values else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "speechfeatures", "__init__.py")):
        print(f"bench: no speechfeatures package under {ROOT}/src", file=sys.stderr)
        return 2

    env = _environment()
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        truth = prepare(args.workload, args.seed, workdir, env)
        sessions = Sessions(args.workload, workdir, env)
        audio = truth["audio_seconds"]
        if args.trace:
            spans_path = os.path.join(WORK, f"spans-{args.workload}-s{args.seed}.json")
            plain, traced, layers, rounds = traced_rounds(
                sessions, args.seconds, spans_path)
            values = {name: _median([layer[name] for layer in layers])
                      for name in tracer.METRICS if name != "trace.overhead_ms"}
            values["trace.overhead_ms"] = 1000.0 * (_median(traced) - _median(plain))
            units = tracer.METRICS
        else:
            samples, rounds = timed_rounds(sessions, args.seconds)
            values = {
                "xrt_j1": audio / _median(samples[1]),
                "xrt_j2": audio / _median(samples[2]),
                "peak_rss_mb": _median(samples["rss"]),
                "setup_s": _median(samples["setup"]),
            }
            units = END_TO_END
            for key in (1, 2, "setup"):
                print(f"bench: {key} samples " + " ".join(
                    f"{v:.3f}" for v in samples[key]), file=sys.stderr)
        failures = check(args.workload, workdir, truth, sessions)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in sessions.failed + failures:
        print(f"bench: {message}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{audio:.1f} s of audio per session", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:30s} {value:12.4f} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sessions.attempted,
        "failed": len(sessions.failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
