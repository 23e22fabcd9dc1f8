"""Diagonal-covariance GMM training and per-speaker warp factor estimation.

A universal background model (UBM) is fitted by expectation-maximization,
starting from a few components at the global mean and splitting the heaviest
component until the requested size is reached. Warp factors are then chosen
per speaker by scoring features extracted over a grid of warps against the
UBM and keeping the most likely warp, retraining the UBM on the warped
features between rounds. Training is unsupervised throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .features import Features, FeaturesCollection, ReadOnlyArrays, frozen, read_text

__all__ = ["DiagGmm", "ExtractionError", "UbmOptions", "VtlnOptions",
           "train_ubm", "estimate_warps", "warp_grid", "select_warp", "save_warps",
           "load_warps", "save_gmm", "load_gmm"]

NORM_TYPES = ("offset", "none", "diag")

# the most warps a grid may hold: each is a mel bank built at config load
# and an extraction of every utterance per search round
MAX_WARPS = 128

# per-dimension variance floor, as a fraction of the global variance
VAR_FLOOR_FRACTION = 1e-3
ABSOLUTE_VAR_FLOOR = 1e-10


class ExtractionError(RuntimeError):
    """Raised when utterances fail to process; carries per-utterance detail."""

    def __init__(self, failures):
        self.failures = dict(failures)
        lines = [f"{name}: {message}" for name, message in self.failures.items()]
        super().__init__("extraction failed for {} utterance(s):\n  {}".format(
            len(lines), "\n  ".join(lines)))

    def __reduce__(self):
        # rebuilt from the failures, so callers can pickle the error
        return type(self), (self.failures,)


@dataclass(frozen=True)
class UbmOptions:
    """Background model size and training schedule."""
    num_gauss: int = 64
    num_iters: int = 4
    initial_gauss_proportion: float = 0.5
    num_iters_init: int = 20
    num_frames: int = 500000
    min_gaussian_weight: float = 1e-4
    remove_low_count_gaussians: bool = False

    def __post_init__(self):
        if self.num_gauss < 1:
            raise ValueError(f"num_gauss must be >= 1, got {self.num_gauss}")
        if not 0 < self.initial_gauss_proportion <= 1:
            raise ValueError("initial_gauss_proportion must be in (0, 1]")
        if self.num_iters < 0:
            raise ValueError(f"num_iters must be >= 0, got {self.num_iters}")
        if self.num_iters_init < 1:
            raise ValueError(
                f"num_iters_init must be >= 1, got {self.num_iters_init}")
        if self.num_frames < 1:
            raise ValueError(f"num_frames must be >= 1, got {self.num_frames}")
        # the heaviest component weighs at least 1/num_gauss, so EM always
        # updates one; above that every component could stay frozen
        if not 0 <= self.min_gaussian_weight <= 1 / self.num_gauss:
            raise ValueError(
                f"min_gaussian_weight must be in [0, 1/num_gauss] = "
                f"[0, {1 / self.num_gauss}], got {self.min_gaussian_weight}")


@dataclass(frozen=True)
class VtlnOptions:
    """Warp search grid and normalization applied during scoring."""
    num_iters: int = 15
    min_warp: float = 0.85
    max_warp: float = 1.15
    warp_step: float = 0.01
    logdet_scale: float = 0.0
    norm_type: str = "offset"
    ubm: UbmOptions = field(default_factory=UbmOptions)

    def __post_init__(self):
        if self.min_warp <= 0:
            raise ValueError(f"min_warp must be > 0, got {self.min_warp}")
        if not self.min_warp < 1.0 < self.max_warp < np.inf:
            raise ValueError(
                f"need min_warp < 1 < max_warp < inf, got {self.min_warp} "
                f"and {self.max_warp}")
        if self.warp_step <= 0:
            raise ValueError(f"warp_step must be > 0, got {self.warp_step}")
        count = _warp_count(self)
        if count > MAX_WARPS:
            raise ValueError(f"the warp grid has {count} warps, more than "
                             f"the maximum {MAX_WARPS}")
        if self.norm_type not in NORM_TYPES:
            raise ValueError(
                f"unknown norm_type {self.norm_type!r}, expected one of "
                f"{', '.join(NORM_TYPES)}")
        if self.num_iters < 1:
            raise ValueError(f"num_iters must be >= 1, got {self.num_iters}")


class DiagGmm(ReadOnlyArrays):
    """A Gaussian mixture with diagonal covariances (read-only arrays)."""

    def __init__(self, weights, means, variances):
        weights = np.asarray(weights, dtype=np.float64)
        means = np.asarray(means, dtype=np.float64)
        variances = np.asarray(variances, dtype=np.float64)
        if means.ndim != 2 or variances.shape != means.shape:
            raise ValueError("means and variances must be [num_gauss, dim]")
        if weights.shape != (means.shape[0],):
            raise ValueError("weights must be a vector of num_gauss entries")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-10:
            raise ValueError("weights must be non-negative and sum to 1")
        if np.any(variances <= 0):
            raise ValueError("variances must be positive")
        self.weights = frozen(weights)
        self.means = frozen(means)
        self.variances = frozen(variances)

    @property
    def num_gauss(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]

    def component_loglikes(self, frames):
        """Per-frame, per-component log of weight times Gaussian density."""
        frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
        if frames.shape[1] != self.dim:
            raise ValueError(
                f"frames have dimension {frames.shape[1]}, model has {self.dim}")
        inv_var = 1.0 / self.variances
        const = (np.log(self.weights)
                 - 0.5 * (np.log(2.0 * np.pi * self.variances).sum(axis=1)
                          + (self.means ** 2 * inv_var).sum(axis=1)))
        quad = (frames ** 2) @ (0.5 * inv_var).T - frames @ (self.means * inv_var).T
        return const[None, :] - quad

    def loglikes(self, frames):
        """Per-frame mixture log-likelihood via log-sum-exp."""
        comp = self.component_loglikes(frames)
        top = comp.max(axis=1, keepdims=True)
        return top[:, 0] + np.log(np.exp(comp - top).sum(axis=1))


def _em_step(gmm, data, min_weight, var_floor):
    """One EM update of `gmm` on `data`; returns the new model."""
    comp = gmm.component_loglikes(data)
    shifted = np.exp(comp - comp.max(axis=1, keepdims=True))
    resp = shifted / shifted.sum(axis=1, keepdims=True)

    counts = resp.sum(axis=0)
    weights = counts / counts.sum()
    active = weights >= min_weight

    new_means = gmm.means.copy()
    new_vars = gmm.variances.copy()
    safe = np.maximum(counts, 1e-300)
    means = (resp.T @ data) / safe[:, None]
    second = (resp.T @ (data ** 2)) / safe[:, None]
    new_means[active] = means[active]
    new_vars[active] = np.maximum(second[active] - means[active] ** 2,
                                  var_floor[None, :])

    new_weights = np.where(active, weights, gmm.weights)
    new_weights = new_weights / new_weights.sum()
    return DiagGmm(new_weights, new_means, new_vars)


def _split_largest(gmm):
    """Split the heaviest component, perturbing the mean by +-0.5 sigma.

    Smaller perturbations leave the two halves in a symmetric saddle that
    EM escapes too slowly to separate well-spread clusters within the
    default iteration budget.
    """
    g = int(np.argmax(gmm.weights))
    offset = 0.5 * np.sqrt(gmm.variances[g])
    weights = np.concatenate([gmm.weights, [gmm.weights[g] / 2.0]])
    weights[g] /= 2.0
    means = np.vstack([gmm.means, gmm.means[g] - offset])
    means[g] = gmm.means[g] + offset
    variances = np.vstack([gmm.variances, gmm.variances[g]])
    return DiagGmm(weights, means, variances)


def _as_matrix(source):
    if isinstance(source, (FeaturesCollection, dict)):
        return np.vstack([f.data for f in source.values()])
    if isinstance(source, Features):
        return source.data
    return np.atleast_2d(np.asarray(source, dtype=np.float64))


def train_ubm(source, opts=None, seed=0):
    """Fit a diagonal GMM to a FeaturesCollection (or raw frame matrix).

    Initialization starts from round(initial_gauss_proportion * num_gauss)
    components at the global mean with seeded perturbations and the global
    diagonal variance, runs num_iters_init EM iterations over at most
    num_frames subsampled frames while splitting the heaviest component at
    evenly spaced points until num_gauss is reached, then runs num_iters
    full EM passes over all frames. Components whose weight falls under
    min_gaussian_weight are not updated, and are removed at the end iff
    remove_low_count_gaussians.
    """
    opts = opts or UbmOptions()
    data = _as_matrix(source)
    n, dim = data.shape
    if n < opts.num_gauss:
        raise ValueError(
            f"cannot fit {opts.num_gauss} components on {n} frames")

    global_mean = data.mean(axis=0)
    global_var = data.var(axis=0)
    if np.all(global_var <= 0):
        raise ValueError("degenerate training data: all frames are identical")
    var_floor = np.maximum(VAR_FLOOR_FRACTION * global_var, ABSOLUTE_VAR_FLOOR)

    rng = np.random.default_rng(seed)
    if n > opts.num_frames:
        init_data = data[rng.choice(n, opts.num_frames, replace=False)]
    else:
        init_data = data

    g0 = min(opts.num_gauss, max(1, round(opts.initial_gauss_proportion
                                          * opts.num_gauss)))
    means = global_mean[None, :] + (0.1 * np.sqrt(np.maximum(global_var, 0))
                                    * rng.standard_normal((g0, dim)))
    variances = np.tile(np.maximum(global_var, var_floor), (g0, 1))
    gmm = DiagGmm(np.full(g0, 1.0 / g0), means, variances)

    for i in range(opts.num_iters_init):
        gmm = _em_step(gmm, init_data, opts.min_gaussian_weight, var_floor)
        # evenly spaced splits, rounding up so they finish with EM to spare
        target = g0 + int(np.ceil(
            (i + 1) * (opts.num_gauss - g0) / opts.num_iters_init))
        while gmm.num_gauss < target:
            gmm = _split_largest(gmm)
    for _ in range(opts.num_iters):
        gmm = _em_step(gmm, data, opts.min_gaussian_weight, var_floor)

    if opts.remove_low_count_gaussians:
        keep = gmm.weights >= opts.min_gaussian_weight
        if not np.all(keep):
            gmm = DiagGmm(gmm.weights[keep] / gmm.weights[keep].sum(),
                          gmm.means[keep], gmm.variances[keep])
    return gmm


def _warp_count(opts):
    return int(round((opts.max_warp - opts.min_warp) / opts.warp_step)) + 1


def warp_grid(opts):
    """The warp factors searched, min_warp to max_warp in warp_step steps."""
    return opts.min_warp + np.arange(_warp_count(opts)) * opts.warp_step


def select_warp(grid, scores):
    """The grid warp with the best score.

    Ties prefer the warp closest to 1.0, then the smaller warp; adding a
    constant to every score cannot change the selection.
    """
    best_key, best_warp = None, None
    for warp, score in zip(grid, scores):
        key = (score, -abs(warp - 1.0), -warp)
        if best_key is None or key > best_key:
            best_key, best_warp = key, float(warp)
    return best_warp


def estimate_warps(utterances, extractor, opts=None, seed=0):
    """Estimate one frequency warp factor per speaker, unsupervised.

    `extractor` is a deterministic callable (utterance, warps) -> [one
    [m, d] frame matrix per warp], whose matrix at a warp must not depend on
    the other warps requested; each round asks it once per utterance for
    the whole grid. Each round scores every speaker's frames at every warp
    against a UBM trained on the frames at the selected warps (1.0 for
    everyone at first), and keeps the most likely warp and only its frames.
    Ties prefer the warp closest to 1.0, then the smaller warp. The whole
    search runs in the calling process, so `extractor` need not pickle.

    A round depends only on the warp map before it, so once a round repeats
    any earlier map the remaining rounds would cycle: the search stops there
    and returns the map that round opts.num_iters would have reached.

    The extractor reports a failed utterance by raising ExtractionError. The
    first pass, at warp 1.0, visits every utterance in manifest order and
    raises one ExtractionError naming all that failed, before any UBM is
    trained.

    With norm_type "offset" the speaker's feature mean is replaced by the
    corpus mean before scoring; "diag" also rescales per-channel standard
    deviations and adds logdet_scale times the log sigma-ratio per frame;
    "none" scores raw features.
    """
    opts = opts or VtlnOptions()
    if not utterances.has_speakers:
        raise ValueError("warp estimation requires speakered utterances")
    grid = warp_grid(opts).tolist()
    # name-sorted grouping keeps every reduction bit-identical no matter
    # how the manifest is ordered
    by_speaker = {
        speaker: sorted(utts, key=lambda u: u.name)
        for speaker, utts in sorted(utterances.by_speaker().items())}

    unwarped, failures = {}, {}
    for u in utterances:
        try:
            unwarped[u.name] = extractor(u, [1.0])[0]
        except ExtractionError as err:
            failures.update(err.failures)
    if failures:
        raise ExtractionError(failures)
    history = [{speaker: 1.0 for speaker in by_speaker}]
    selected = {speaker: np.vstack([unwarped.pop(u.name) for u in utts])
                for speaker, utts in by_speaker.items()}
    for _ in range(opts.num_iters):
        train_data = np.vstack(list(selected.values()))
        gmm = train_ubm(train_data, opts.ubm, seed=seed)
        corpus_mean = train_data.mean(axis=0)
        corpus_std = np.maximum(train_data.std(axis=0), 1e-10)

        # in this process: per-speaker rounds in a worker pool measured
        # slower (ROADMAP, measured dead ends)
        warps = {}
        for speaker, utts in by_speaker.items():
            # stacked one warp at a time: the grid is held once, per utterance
            per_warp = list(zip(*(extractor(u, grid) for u in utts)))
            warps[speaker] = select_warp(grid, [
                _warp_score(gmm, np.vstack(mats), corpus_mean, corpus_std, opts)
                for mats in per_warp])
            selected[speaker] = np.vstack(per_warp[grid.index(warps[speaker])])
            del per_warp  # hold one speaker's grid of frames at a time
        if warps in history:
            first = history.index(warps)
            period = len(history) - first
            return history[first + (opts.num_iters - first) % period]
        history.append(warps)
    return history[-1]


def _warp_score(gmm, frames, corpus_mean, corpus_std, opts):
    if opts.norm_type == "none":
        return float(gmm.loglikes(frames).sum())
    mean = frames.mean(axis=0)
    if opts.norm_type == "offset":
        return float(gmm.loglikes(frames - mean + corpus_mean).sum())
    std = np.maximum(frames.std(axis=0), 1e-10)
    ratio = corpus_std / std
    normalized = (frames - mean) * ratio + corpus_mean
    score = float(gmm.loglikes(normalized).sum())
    score += opts.logdet_scale * frames.shape[0] * float(np.log(ratio).sum())
    return score


def save_warps(warps, path):
    """Write a speaker -> warp map as two-column text.

    A speaker name must be a non-empty string without whitespace and a
    warp a finite positive number, as load_warps reads them back; otherwise
    a ValueError names the speaker before the file is opened.
    """
    for speaker, warp in warps.items():
        if not isinstance(speaker, str) or speaker.split() != [speaker]:
            raise ValueError(f"speaker name must be a non-empty string "
                             f"without whitespace, got {speaker!r}")
        if not 0.0 < warp < np.inf:
            raise ValueError(f"speaker {speaker!r}: warp must be finite "
                             f"and positive, got {warp!r}")
    with open(path, "w", encoding="utf-8") as fp:
        for speaker in sorted(warps):
            fp.write(f"{speaker} {float(warps[speaker])!r}\n")


def load_warps(path):
    """Read a speaker -> warp map written by save_warps.

    Each speaker appears once, with a finite positive warp.
    """
    return read_text(path, _warps_from_lines)


def _warps_from_lines(lines):
    warps = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            speaker, value = line.split()
            warp = float(value)
        except ValueError as err:
            raise ValueError(f"line {lineno}: expected "
                             f"'<speaker> <warp>', got {line!r}") from err
        if not 0.0 < warp < np.inf:
            raise ValueError(f"line {lineno}: warp must be finite "
                             f"and positive, got {line!r}")
        if speaker in warps:
            raise ValueError(f"line {lineno}: repeated speaker "
                             f"{speaker!r} in {line!r}")
        warps[speaker] = warp
    return warps


def save_gmm(gmm, path):
    """Store a DiagGmm in the binary features container.

    The model becomes three named matrices (weights, means, variances) with
    the component index as the time column.
    """
    index = np.arange(gmm.num_gauss, dtype=np.float64)
    props = {"num_gauss": gmm.num_gauss, "dim": gmm.dim}
    coll = FeaturesCollection({
        "weights": Features(gmm.weights[:, None], index, props),
        "means": Features(gmm.means, index, props),
        "variances": Features(gmm.variances, index, props),
    })
    coll.save(path, format="binary")


def load_gmm(path):
    """Load a DiagGmm stored by save_gmm; a malformed model raises a
    ValueError naming the file."""
    coll = FeaturesCollection.load(path, format="binary")
    try:
        return DiagGmm(coll["weights"].data[:, 0], coll["means"].data,
                       coll["variances"].data)
    except KeyError as err:
        raise ValueError(f"{path}: not a stored GMM, missing {err}") from err
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
