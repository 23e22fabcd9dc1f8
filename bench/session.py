"""One measured session of the program, run in a process of its own.

The parent (run.py) starts this script with the corpus directory as the
working directory and `src/` of the checkout on PYTHONPATH, so the package
under test is the one of the checkout. It prints one JSON line.

    session.py setup CONFIG MANIFEST
        time to import the package and parse the configuration and the
        manifest, up to the first utterance read
    session.py run WORKLOAD NJOBS [SPANS]
        one user session through the command line entry point: extract,
        then for abx-plp-22k `eval abx`; with SPANS the layers are traced
        and the spans written to that file when the session ends
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _check_origin(module):
    """Refuse to measure a package that is not the checkout's own."""
    expected = os.path.join(os.environ["BENCH_ROOT"], "src", "speechfeatures")
    if os.path.dirname(os.path.abspath(module.__file__)) != expected:
        raise SystemExit(f"speechfeatures imported from {module.__file__}, "
                         f"not from {expected}")


def setup(config, manifest):
    start = time.perf_counter()
    from speechfeatures import audio, cli, pipeline
    pipeline.read_config(config)
    utterances = audio.parse_utterances(manifest)
    elapsed = time.perf_counter() - start
    _check_origin(cli)
    return {"seconds": elapsed, "utterances": len(utterances)}


def run(workload, njobs, spans_path=None):
    from speechfeatures import cli
    _check_origin(cli)
    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    captured = io.StringIO()
    start = time.perf_counter()
    codes = [cli.main(["extract", "config.txt", "manifest.txt", "out.bin",
                       "--njobs", str(njobs)])]
    if workload == "abx-plp-22k":
        with contextlib.redirect_stdout(captured):
            codes.append(cli.main(["eval", "abx", "triplets.txt", "out.bin"]))
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        tracer.write(spans_path, elapsed)
    return {"seconds": elapsed, "codes": codes, "stdout": captured.getvalue(),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main(argv):
    if argv[0] == "setup":
        result = setup(argv[1], argv[2])
    else:
        result = run(argv[1], int(argv[2]), argv[3] if len(argv) > 3 else None)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
