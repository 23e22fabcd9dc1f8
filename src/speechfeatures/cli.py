"""The speech-features command line tool.

Subcommands:
  config   generate an editable pipeline configuration file
  extract  run a configured pipeline over an utterance manifest
  eval     scoring utilities (pitch MAE/GER, ABX over triplets)
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .audio import parse_utterances
from .evaluate import PitchEval, abx_score, ger, load_triplets, mae
from .features import (FORMATS, TIME_TOLERANCE, check_target, load_collection,
                       read_text)
from .pipeline import (FEATURE_OPTIONS, ExtractionError, config_to_text,
                       default_config, extract_features, read_config,
                       write_config)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="speech-features",
        description="speech features extraction and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    conf = sub.add_parser("config", help="generate a pipeline configuration")
    conf.add_argument("features", choices=list(FEATURE_OPTIONS))
    conf.add_argument("--pitch", choices=["kaldi"], default=None,
                      help="add pitch estimation to the pipeline")
    conf.add_argument("--delta", action="store_true",
                      help="add delta features to the pipeline")
    conf.add_argument("--cmvn", action="store_true",
                      help="add per-speaker mean/variance normalization")
    conf.add_argument("--vtln", action="store_true",
                      help="add per-speaker frequency warp normalization")
    conf.add_argument("-o", "--output", default=None,
                      help="output file (default: stdout)")

    extr = sub.add_parser("extract", help="extract features for a manifest")
    extr.add_argument("config", help="pipeline configuration file")
    extr.add_argument("utterances", help="utterance manifest file")
    extr.add_argument("output", help="output file (or directory in csv format)")
    extr.add_argument("--njobs", type=int, default=1,
                      help="number of parallel workers (default 1)")
    extr.add_argument("--seed", type=int, default=None,
                      help="override the configuration seed")
    extr.add_argument("--format", choices=FORMATS, default="binary",
                      help="output serialization format (default binary)")

    ev = sub.add_parser("eval", help="evaluation metrics")
    ev_sub = ev.add_subparsers(dest="metric", required=True)
    pitch = ev_sub.add_parser("pitch", help="pitch MAE and gross error rate")
    pitch.add_argument("truth", help="ground truth CSV (time,f0 rows)")
    pitch.add_argument("estimates", help="estimates CSV (time,f0 rows)")
    abx = ev_sub.add_parser("abx", help="ABX error over a triplet list")
    abx.add_argument("triplets", help="text file of <name_a> <name_b> <name_x>")
    abx.add_argument("features", help="binary features container")

    return parser


def _pitch_track(lines):
    """The [m, 2] `time,f0` (or [m, 1] bare f0) rows of a CSV pitch track."""
    if not any(line.split("#", 1)[0].strip() for line in lines):
        raise ValueError("no pitch values")
    values = np.loadtxt(lines, delimiter=",", ndmin=2)
    if values.shape[1] > 2:
        raise ValueError(f"expected time,f0 or f0 rows, got {values.shape[1]} columns")
    return values


def _cmd_config(args):
    config = default_config(args.features, with_pitch=args.pitch is not None,
                            with_delta=args.delta, with_cmvn=args.cmvn,
                            with_vtln=args.vtln)
    if args.output is None:
        print(config_to_text(config), end="")
    else:
        write_config(config, args.output)
    return 0


def _cmd_extract(args):
    config = read_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    utterances = parse_utterances(args.utterances)
    check_target(args.output, [u.name for u in utterances], args.format)
    collection = extract_features(config, utterances, njobs=args.njobs)
    collection.save(args.output, format=args.format)
    return 0


def _cmd_eval_pitch(args):
    truth = read_text(args.truth, _pitch_track)
    estimates = read_text(args.estimates, _pitch_track)
    if truth.shape[0] != estimates.shape[0]:
        raise ValueError(
            f"track lengths differ: {truth.shape[0]} in {args.truth} and "
            f"{estimates.shape[0]} in {args.estimates}")
    # two timed tracks must share their time grid, as in features.concatenate
    if truth.shape[1] == estimates.shape[1] == 2 and not np.allclose(
            truth[:, 0], estimates[:, 0], rtol=0, atol=TIME_TOLERANCE):
        raise ValueError(f"frame times differ between {args.truth} and {args.estimates}")
    truth, estimates = truth[:, -1], estimates[:, -1]
    mask = (truth > 0) & (estimates > 0)
    evaluation = PitchEval(truth, estimates, mask)
    print(f"MAE: {mae(evaluation):.6g} Hz")
    print(f"GER: {ger(evaluation):.6g} %")
    return 0


def _cmd_eval_abx(args):
    collection = load_collection(args.features, format="binary")
    triplets = load_triplets(args.triplets, collection)
    print(f"ABX error rate: {abx_score(triplets):.6g} %")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "config":
            return _cmd_config(args)
        if args.command == "extract":
            return _cmd_extract(args)
        if args.metric == "pitch":
            return _cmd_eval_pitch(args)
        return _cmd_eval_abx(args)
    except ExtractionError as err:
        print(f"speech-features: {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        print(f"speech-features: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
