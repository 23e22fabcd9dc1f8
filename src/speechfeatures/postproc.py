"""Feature post-processors: delta derivatives, CMVN, energy-based VAD."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .features import Features, FeaturesCollection, Options, frozen_in_place, rule

__all__ = ["DeltaOptions", "CmvnOptions", "VadOptions",
           "delta", "delta_filter", "cmvn_apply", "vad"]

CMVN_SCOPES = ("frame", "utterance", "speaker")

# smallest standard deviation used for normalization, so constant channels
# map to zero instead of NaN
SIGMA_FLOOR = 1e-10


@dataclass(frozen=True)
class DeltaOptions(Options):
    """Derivative order and regression window half-width."""
    order: int = rule(2, low=1, high=3)
    window: int = rule(2, low=1)


@dataclass(frozen=True)
class CmvnOptions(Options):
    """Normalization scope and whether to normalize variances too."""
    by: str = rule(choices=CMVN_SCOPES)
    norm_vars: bool = True


@dataclass(frozen=True)
class VadOptions(Options):
    """Energy threshold offset and scaling of the mean energy."""
    energy_threshold: float = 5.0
    energy_mean_scale: float = rule(0.5, low=0)


def delta_filter(matrix, window):
    """First-order regression derivative of each column, edges replicated.

    d[t] = sum_k k * (x[t+k] - x[t-k]) / (2 * sum_k k^2), k = 1..window.
    """
    out = np.empty(matrix.shape, np.result_type(matrix, 1.0))
    return _regression_into(out, matrix, window)


def _regression_into(out, matrix, window):
    """delta_filter(matrix, window), written into `out` and returned."""
    m = matrix.shape[0]
    padded = np.pad(matrix, ((window, window), (0, 0)), mode="edge")
    denom = 2.0 * sum(k * k for k in range(1, window + 1))
    out[...] = 0.0
    for k in range(1, window + 1):
        out += k * (padded[window + k:window + k + m]
                    - padded[window - k:window - k + m])
    out /= denom
    return out


def delta(feats, opts=None):
    """Append successive derivatives to a Features.

    The output has n * (order + 1) channels: the original columns followed
    by each derivative order, so frame count and times are unchanged.
    """
    opts = opts or DeltaOptions()
    m, n = feats.data.shape
    data = np.empty((m, n * (opts.order + 1)))
    data[:, :n] = feats.data
    for i in range(opts.order):
        _regression_into(data[:, (i + 1) * n:(i + 2) * n],
                         data[:, i * n:(i + 1) * n], opts.window)
    return Features(frozen_in_place(data), feats.times,
                    {**feats.properties, "delta": asdict(opts)})


def cmvn_apply(coll, speakers=None, opts=None):
    """Mean-variance normalize a collection per frame, utterance or speaker.

    In speaker scope, `speakers` must map every item name to its speaker;
    statistics are pooled over all frames of a speaker. In frame scope each
    frame is normalized across its channels. Variances are population
    variances with the standard deviation floored at 1e-10.
    """
    if opts is None:
        raise ValueError("cmvn requires options with a scope")
    by_speaker = opts.by == "speaker"
    if by_speaker:
        speakers = speakers or {}
        missing = [name for name in coll if name not in speakers]
        if missing:
            raise ValueError(
                f"cmvn by speaker: no speaker for {', '.join(sorted(missing))}")
    axis = 1 if opts.by == "frame" else 0
    # frame and utterance scopes group each utterance on its own
    groups = {}
    for name in coll:
        groups.setdefault(speakers[name] if by_speaker else name, []).append(name)
    out = {}
    for names in groups.values():
        # name-sorted stacking keeps the statistics bit-identical no
        # matter how the collection is ordered
        pooled = np.vstack([coll[name].data for name in sorted(names)])
        mean = pooled.mean(axis=axis, keepdims=True)
        sigma = np.maximum(pooled.std(axis=axis, keepdims=True), SIGMA_FLOOR)
        for name in names:
            feats = coll[name]
            data = feats.data - mean
            if opts.norm_vars:
                data = data / sigma
            out[name] = Features(data, feats.times,
                                 {**feats.properties, "cmvn": asdict(opts)})
    return FeaturesCollection({name: out[name] for name in coll})


def vad(log_energy, opts=None):
    """Per-frame voicing decision from a log energy vector.

    Frame t is voiced iff
    log_energy[t] > energy_threshold + energy_mean_scale * mean(log_energy).
    """
    opts = opts or VadOptions()
    log_energy = np.asarray(log_energy, dtype=np.float64)
    if log_energy.ndim != 1 or log_energy.shape[0] < 1:
        raise ValueError("log_energy must be a non-empty vector")
    threshold = opts.energy_threshold + opts.energy_mean_scale * log_energy.mean()
    return log_energy > threshold
