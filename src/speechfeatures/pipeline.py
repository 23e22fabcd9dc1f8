"""The three-step extraction pipeline: utterances, configuration, extraction.

A PipelineConfig bundles one spectro-temporal feature type with optional
pitch, delta, CMVN and warp-normalization stages. Configurations serialize
to an editable, indentation-nested key-value text format and back without
loss. Extraction runs over an utterance manifest with any number of worker
processes and returns bit-identical results regardless of the worker count:
every randomized stage draws from a generator seeded by the global seed and
the utterance name.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import hashlib
import math
import os
from dataclasses import dataclass, asdict

from .audio import Utterances, load_wav, resample, segment
from .features import FeaturesCollection, Options, _fields, concatenate, read_text
from .pitch import PitchOptions, PostPitchOptions, estimate_pitch, postprocess_pitch
from .postproc import CmvnOptions, DeltaOptions, cmvn_apply, delta
from .speaker import ExtractionError, VtlnOptions, estimate_warps, warp_grid
from .spectral import (FilterbankOptions, MfccOptions, PlpOptions,
                       SpectrogramOptions, _frame_spectra, _mfcc_stage,
                       compute_mel_banks, filterbank, mfcc, plp, spectrogram)

__all__ = ["PipelineConfig", "ExtractionError", "default_config",
           "extract_features", "config_to_dict", "config_from_dict",
           "config_to_text", "write_config", "read_config"]

# feature type -> options class; the processor is the global of that name
FEATURE_OPTIONS = {
    "spectrogram": SpectrogramOptions,
    "filterbank": FilterbankOptions,
    "mfcc": MfccOptions,
    "plp": PlpOptions,
}

# config block -> (PipelineConfig field, options class), in config text order
_STAGES = {
    "pitch": ("pitch", PitchOptions),
    "pitch_postprocessing": ("pitch_post", PostPitchOptions),
    "delta": ("delta", DeltaOptions),
    "cmvn": ("cmvn", CmvnOptions),
    "vtln": ("vtln", VtlnOptions),
}


def _options_class(features):
    """The options class of a feature type, or ValueError if it is unknown."""
    if not isinstance(features, str) or features not in FEATURE_OPTIONS:
        raise ValueError(f"unknown features {features!r}, expected one of "
                         f"{', '.join(FEATURE_OPTIONS)}")
    return FEATURE_OPTIONS[features]


@dataclass(frozen=True)
class PipelineConfig(Options):
    """A full extraction recipe: feature options plus optional stages."""
    features: str
    options: object
    pitch: PitchOptions | None = None
    pitch_post: PostPitchOptions | None = None
    delta: DeltaOptions | None = None
    cmvn: CmvnOptions | None = None
    vtln: VtlnOptions | None = None
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        expected = _options_class(self.features)
        if type(self.options) is not expected:
            raise ValueError(
                f"{self.features} features need {expected.__name__} options")
        if (self.pitch is None) != (self.pitch_post is None):
            raise ValueError("pitch and pitch post-processing go together")
        if self.vtln is not None and self.features == "spectrogram":
            raise ValueError("warp normalization is not available for spectrogram")
        if self.pitch is not None:
            self.pitch.check_framing(self.options)
        # every bank extraction asks for, by the same positional call, so it
        # finds each cached: with vtln, the grid's, then the search's at 1.0
        banks = [] if self.features == "spectrogram" else [(self.options, 1.0)]
        if self.vtln is not None:
            grid, search = warp_grid(self.vtln).tolist(), _search_options(self)
            banks = [(opts, warp) for opts in (self.options, search)
                     for warp in grid] + [(search, 1.0)]
        for opts, warp in banks:
            try:
                compute_mel_banks(opts, warp)
            except ValueError as err:
                block = self.features if self.vtln is None else f"vtln: warp {warp:g}"
                raise ValueError(f"{block}: {err}") from err


def _search_options(config):
    """The MFCC options the warp search extracts with."""
    return MfccOptions(sample_rate=config.options.sample_rate)


def default_config(features, with_pitch=False, with_delta=False,
                   with_cmvn=False, with_vtln=False, seed=0):
    """A PipelineConfig with default parameters for the requested stages."""
    return PipelineConfig(
        features=features,
        options=_options_class(features)(),
        pitch=PitchOptions() if with_pitch else None,
        pitch_post=PostPitchOptions() if with_pitch else None,
        delta=DeltaOptions() if with_delta else None,
        cmvn=CmvnOptions(by="speaker") if with_cmvn else None,
        vtln=VtlnOptions() if with_vtln else None,
        seed=seed)


def config_to_dict(config):
    """The configuration as a plain nested dict (JSON-compatible)."""
    out = {"features": config.features, "seed": config.seed,
           config.features: asdict(config.options)}
    for block, (name, _) in _STAGES.items():
        if (stage := getattr(config, name)) is not None:
            out[block] = asdict(stage)
    return out


def _check_keys(tree, known):
    for key in tree:
        if key not in known:
            raise ValueError(f"unknown key {key!r}")


def _options_from_block(name, cls, block):
    """An options dataclass from the parsed block `name`; an options field
    is built from its own block. A ValueError names the block."""
    try:
        if not isinstance(block, dict):
            raise ValueError(f"expected a parameter block, got {block!r}")
        kinds = {key: kind for key, kind, _ in _fields(cls)}
        _check_keys(block, kinds)
        return cls(**{key: _options_from_block(key, kinds[key], value)
                      if dataclasses.is_dataclass(kinds[key]) else value
                      for key, value in block.items()})
    except (TypeError, ValueError) as err:
        raise ValueError(f"{name}: {err}") from err


def config_from_dict(tree):
    """Inverse of config_to_dict; unknown keys and mistyped values fail."""
    tree = dict(tree)
    features = tree.get("features")
    blocks = {features: ("options", _options_class(features)), **_STAGES}
    if features not in tree:
        raise ValueError(f"config is missing the {features!r} parameter block")
    _check_keys(tree, {"features", "seed", *blocks})
    if "pitch" in tree:
        tree.setdefault("pitch_postprocessing", {})
    stages = {name: _options_from_block(block, cls, tree[block])
              for block, (name, cls) in blocks.items() if block in tree}
    return PipelineConfig(features=features, seed=tree.get("seed", 0), **stages)


def _format_scalar(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_scalar(text):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _render_tree(tree, indent=0):
    lines = []
    pad = "  " * indent
    for key, value in tree.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_tree(value, indent + 1))
        else:
            lines.append(f"{pad}{key}: {_format_scalar(value)}")
    return lines


def _parse_tree(lines):
    root = {}
    stack = [(-1, root)]
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        if indent % 2:
            raise ValueError(f"line {lineno}: odd indentation")
        level = indent // 2
        key, sep, value = raw.strip().partition(":")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key: value' or 'key:'")
        while stack[-1][0] >= level:
            stack.pop()
        if stack[-1][0] != level - 1:  # deeper than its block's keys
            raise ValueError(f"line {lineno}: indentation does not match")
        _, parent = stack[-1]
        key, value = key.strip(), value.strip()
        if key in parent:
            raise ValueError(f"line {lineno}: repeated key {key!r}")
        if value:
            parent[key] = _parse_scalar(value)
        else:
            parent[key] = child = {}
            stack.append((level, child))
    return root


def config_to_text(config):
    """The configuration as editable nested key-value text."""
    return "\n".join(_render_tree(config_to_dict(config))) + "\n"


def write_config(config, path):
    """Write a configuration as editable nested key-value text."""
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(config_to_text(config))


def read_config(path):
    """Parse a configuration written by write_config (or hand-edited)."""
    return read_text(path, lambda lines: config_from_dict(_parse_tree(lines)))


def derive_seed(seed, label):
    """A stable per-label seed, independent of process or schedule."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


# the one decoded recording this process holds, keyed by (path,
# st_mtime_ns, st_size); extract_features empties it before it returns
_recording = {}


def _load_recording(path):
    """The decoded recording at `path`, decoded again only once it changes.

    Segments cut one after another from a recording decode it once. A miss
    drops the held recording before decoding, so two are never alive at
    once, and a failed read is never held.
    """
    stat = os.stat(path)
    key = (path, stat.st_mtime_ns, stat.st_size)
    audio = _recording.get(key)
    if audio is None:
        _recording.clear()
        audio = _recording[key] = load_wav(path)
    return audio


def _load_utterance_audio(utt, sample_rate):
    audio = _load_recording(utt.audio_path)
    if utt.onset is not None:
        audio = segment(audio, utt.onset, utt.offset)
    return resample(audio, sample_rate)


def _failure(err):
    """How an utterance that failed is reported: `<Type>: <message>`."""
    return f"{type(err).__name__}: {err}"


def _warped_mfccs(utt, warps, opts, seed):
    """The warp search's extractor: one MFCC matrix of `utt` per warp.

    The audio is read and framed once, with dither seeded per utterance, so
    each matrix equals mfcc(...).data at its warp. A failure is raised as
    an ExtractionError naming the utterance.
    """
    try:
        audio = _load_utterance_audio(utt, opts.sample_rate)
        power, energy, _ = _frame_spectra(audio, opts, derive_seed(seed, utt.name))
        return [_mfcc_stage(power, energy, opts, warp) for warp in warps]
    except Exception as err:  # reported like a failed extraction
        raise ExtractionError({utt.name: _failure(err)}) from err


def _extract_one(config, utt, warp):
    """Extract the configured features of one utterance."""
    audio = _load_utterance_audio(utt, config.options.sample_rate)
    seed = derive_seed(config.seed, utt.name)

    # looked up at call time: bench/tracer.py wraps the processors by name
    processor = globals()[config.features]
    warp_kwargs = {} if warp == 1.0 else {"vtln_warp": warp}
    feats = processor(audio, config.options, seed=seed, **warp_kwargs)

    if config.delta is not None:
        feats = delta(feats, config.delta)
    if config.pitch is not None:
        raw = estimate_pitch(audio, config.pitch, config.options)
        post = postprocess_pitch(raw, config.pitch_post,
                                 seed=derive_seed(config.seed, utt.name + "::pitch"))
        feats = concatenate(feats, post)

    return feats.with_properties({
        **feats.properties, "pipeline": config_to_dict(config), "audio": utt.audio_path,
        **({} if warp == 1.0 else {"vtln_warp": warp})})


def _extract_task(args):
    config, utt, warp = args
    try:
        return utt.name, _extract_one(config, utt, warp), None
    except Exception as err:  # reported per utterance by extract_features
        return utt.name, None, _failure(err)


def extract_features(config, utterances, njobs=1):
    """Run the configured pipeline over an utterance manifest.

    Per utterance: load, segment, resample, compute the configured features
    (at the speaker's warp factor when warp normalization is enabled),
    append derivatives, concatenate pitch channels, then normalize over the
    configured scope. Results are keyed by utterance name and identical for
    any njobs. Raises ExtractionError with per-utterance diagnostics if any
    utterance fails.

    The warp search runs in the calling process. Then, with njobs > 1, one
    pool of min(njobs, number of utterances) worker processes extracts the
    utterances, each worker one contiguous run of them. A process decodes
    a recording once for a run of utterances cut from it, and none is held
    once the call returns.
    """
    if njobs < 1:
        raise ValueError(f"njobs must be >= 1, got {njobs}")
    if not isinstance(utterances, Utterances):
        utterances = Utterances(utterances)
    needs_speakers = (config.vtln is not None
                      or (config.cmvn is not None and config.cmvn.by == "speaker"))
    if needs_speakers and not utterances.has_speakers:
        raise ValueError(
            "this configuration requires speaker information in the manifest")

    try:
        warps = {name: 1.0 for name in (u.name for u in utterances)}
        if config.vtln is not None:
            extractor = functools.partial(
                _warped_mfccs, opts=_search_options(config),
                seed=derive_seed(config.seed, "::vtln-features"))
            speaker_warps = estimate_warps(
                utterances, extractor, config.vtln,
                seed=derive_seed(config.seed, "::vtln-ubm"))
            warps = {u.name: speaker_warps[u.speaker] for u in utterances}

        tasks = [(config, utt, warps[utt.name]) for utt in utterances]
        # the pool forks all its workers at once, so start no idle ones
        workers = min(njobs, len(tasks))
        outcomes = list(map(_extract_task, tasks)) if workers <= 1 else None
    finally:
        # the call returns, and the pool forks, with no recording held
        _recording.clear()
    if outcomes is None:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_extract_task, tasks,
                                     chunksize=math.ceil(len(tasks) / workers)))

    failures = {name: message for name, _, message in outcomes if message}
    if failures:
        raise ExtractionError(failures)

    collection = FeaturesCollection({name: feats for name, feats, _ in outcomes})
    if config.cmvn is not None:
        collection = cmvn_apply(collection, utterances.speakers, config.cmvn)
    return collection
