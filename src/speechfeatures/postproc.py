"""Feature post-processors: delta derivatives, CMVN, energy-based VAD."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .features import Features, FeaturesCollection

__all__ = ["DeltaOptions", "CmvnOptions", "VadOptions",
           "delta", "delta_filter", "cmvn_apply", "vad"]

CMVN_SCOPES = ("frame", "utterance", "speaker")

# smallest standard deviation used for normalization, so constant channels
# map to zero instead of NaN
SIGMA_FLOOR = 1e-10


@dataclass(frozen=True)
class DeltaOptions:
    """Derivative order and regression window half-width."""
    order: int = 2
    window: int = 2

    def __post_init__(self):
        if not 1 <= self.order <= 3:
            raise ValueError(f"order must be in [1, 3], got {self.order}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


@dataclass(frozen=True)
class CmvnOptions:
    """Normalization scope and whether to normalize variances too."""
    by: str
    norm_vars: bool = True

    def __post_init__(self):
        if self.by not in CMVN_SCOPES:
            raise ValueError(
                f"unknown cmvn scope {self.by!r}, expected one of "
                f"{', '.join(CMVN_SCOPES)}")


@dataclass(frozen=True)
class VadOptions:
    """Energy threshold offset and scaling of the mean energy."""
    energy_threshold: float = 5.0
    energy_mean_scale: float = 0.5

    def __post_init__(self):
        if self.energy_mean_scale < 0:
            raise ValueError(
                f"energy_mean_scale must be >= 0, got {self.energy_mean_scale}")


def delta_filter(matrix, window):
    """First-order regression derivative of each column, edges replicated.

    d[t] = sum_k k * (x[t+k] - x[t-k]) / (2 * sum_k k^2), k = 1..window.
    """
    m = matrix.shape[0]
    padded = np.pad(matrix, ((window, window), (0, 0)), mode="edge")
    denom = 2.0 * sum(k * k for k in range(1, window + 1))
    out = np.zeros_like(matrix)
    for k in range(1, window + 1):
        out += k * (padded[window + k:window + k + m]
                    - padded[window - k:window - k + m])
    return out / denom


def delta(feats, opts=None):
    """Append successive derivatives to a Features.

    The output has n * (order + 1) channels: the original columns followed
    by each derivative order, so frame count and times are unchanged.
    """
    opts = opts or DeltaOptions()
    blocks = [feats.data]
    for _ in range(opts.order):
        blocks.append(delta_filter(blocks[-1], opts.window))
    properties = dict(feats.properties)
    properties["delta"] = asdict(opts)
    return Features(np.hstack(blocks), feats.times, properties)


def _normalize(data, mean, sigma, norm_vars):
    out = data - mean
    if norm_vars:
        out = out / np.maximum(sigma, SIGMA_FLOOR)
    return out


def cmvn_apply(coll, speakers=None, opts=None):
    """Mean-variance normalize a collection per frame, utterance or speaker.

    In speaker scope, `speakers` must map every item name to its speaker;
    statistics are pooled over all frames of a speaker. In frame scope each
    frame is normalized across its channels. Variances are population
    variances with the standard deviation floored at 1e-10.
    """
    if opts is None:
        raise ValueError("cmvn requires options with a scope")
    if opts.by == "speaker":
        speakers = speakers or {}
        missing = [name for name in coll if name not in speakers]
        if missing:
            raise ValueError(
                f"cmvn by speaker: no speaker for {', '.join(sorted(missing))}")
    else:
        # frame and utterance scopes group each utterance on its own
        speakers = {name: name for name in coll}
    axis = 1 if opts.by == "frame" else 0
    groups = {}
    for name in coll:
        groups.setdefault(speakers[name], []).append(name)
    out = {}
    for names in groups.values():
        # name-sorted stacking keeps the statistics bit-identical no
        # matter how the collection is ordered
        pooled = np.vstack([coll[name].data for name in sorted(names)])
        mean = pooled.mean(axis=axis, keepdims=True)
        sigma = pooled.std(axis=axis, keepdims=True)
        for name in names:
            feats = coll[name]
            out[name] = _with_cmvn(feats, _normalize(feats.data, mean, sigma,
                                                     opts.norm_vars), opts)
    return FeaturesCollection({name: out[name] for name in coll})


def _with_cmvn(feats, data, opts):
    properties = dict(feats.properties)
    properties["cmvn"] = asdict(opts)
    return Features(data, feats.times, properties)


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
