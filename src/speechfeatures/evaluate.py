"""Evaluation metrics: pitch MAE/GER, DTW-cosine divergence, ABX scoring.

The pitch metrics compare an estimate vector against a ground truth over a
caller-supplied mask (typically excluding unvoiced frames). The ABX score of
a triplet (a, b, x) where a and x belong to the same category is the
probability, in percent, that x is closer to b than to a under the
length-normalized DTW divergence with cosine frame distance; ties count one
half. Random representations score 50%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import read_text

__all__ = ["PitchEval", "AbxTriplet", "mae", "ger", "dtw_cosine",
           "abx_score", "load_triplets"]


@dataclass
class PitchEval:
    """Ground truth and estimated pitch tracks with a kept-frames mask."""
    ground_truth: np.ndarray
    estimates: np.ndarray
    mask: np.ndarray = None

    def __post_init__(self):
        self.ground_truth = np.asarray(self.ground_truth, dtype=np.float64)
        self.estimates = np.asarray(self.estimates, dtype=np.float64)
        if self.mask is None:
            self.mask = np.ones(self.ground_truth.shape, dtype=bool)
        self.mask = np.asarray(self.mask, dtype=bool)
        if not (self.ground_truth.shape == self.estimates.shape == self.mask.shape):
            raise ValueError("ground truth, estimates and mask lengths differ")
        if np.any(self.ground_truth[self.mask] <= 0):
            raise ValueError("ground truth must be positive on masked frames")


def mae(pitch_eval):
    """Mean absolute error over the masked frames, in Hz."""
    mask = pitch_eval.mask
    if not np.any(mask):
        raise ValueError("mae needs at least one masked frame")
    return float(np.abs(pitch_eval.estimates[mask]
                        - pitch_eval.ground_truth[mask]).mean())


def ger(pitch_eval):
    """Gross error rate: percent of masked frames off by more than 5%."""
    mask = pitch_eval.mask
    if not np.any(mask):
        raise ValueError("ger needs at least one masked frame")
    truth = pitch_eval.ground_truth[mask]
    err = np.abs(pitch_eval.estimates[mask] - truth)
    return float(100.0 * np.mean(err > 0.05 * truth))


def _frames(features):
    data = getattr(features, "data", features)
    return np.atleast_2d(np.asarray(data, dtype=np.float64))


def _cosine_cost(a, b):
    """Frame-pair cost matrix 1 - cos(a_i, b_j).

    A zero-norm frame costs 1 against any non-zero frame and 0 against
    another zero frame.
    """
    norm_a = np.linalg.norm(a, axis=1)
    norm_b = np.linalg.norm(b, axis=1)
    zero_a = norm_a == 0
    zero_b = norm_b == 0
    denom = np.outer(np.where(zero_a, 1.0, norm_a), np.where(zero_b, 1.0, norm_b))
    cost = 1.0 - np.clip((a @ b.T) / denom, -1.0, 1.0)
    cost[zero_a[:, None] ^ zero_b[None, :]] = 1.0
    cost[zero_a[:, None] & zero_b[None, :]] = 0.0
    return cost


def _check_pair(a, b):
    """Raise ValueError unless frame matrices a and b can be aligned."""
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"channel counts differ: {a.shape[1]} versus {b.shape[1]}")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("dtw needs non-empty sequences")


# padded (pairs, rows, cols) cells of one DTW sweep, about 32 pairs of 28x28
# frames: bounds the working set whatever the number of pairs
_DTW_CHUNK_CELLS = 32 * 28 * 28


def _dtw_sweep(costs):
    """DTW divergence of each cost matrix, all swept together.

    The matrices are zero-padded to a common (rows, cols) and filled one
    anti-diagonal at a time; a cell's predecessors lie in its own pair's
    range, so padding never feeds back. Each cell extends the diagonal, up
    or left predecessor with the lexicographically least (total cost,
    steps). Border cells are running sums.
    """
    n = len(costs)
    rows = np.array([c.shape[0] for c in costs])
    cols = np.array([c.shape[1] for c in costs])
    height, width = int(rows.max()), int(cols.max())
    cost = np.zeros((n, height, width))
    for p, c in enumerate(costs):
        cost[p, :c.shape[0], :c.shape[1]] = c
    total = np.empty_like(cost)
    steps = np.empty((n, height, width), dtype=np.int64)
    total[:, 0, :] = np.cumsum(cost[:, 0, :], axis=1)
    total[:, :, 0] = np.cumsum(cost[:, :, 0], axis=1)
    steps[:, 0, :] = np.arange(1, width + 1)
    steps[:, :, 0] = np.arange(1, height + 1)
    cost = cost.reshape(n, -1)
    total = total.reshape(n, -1)
    steps = steps.reshape(n, -1)
    for s in range(2, height + width - 1):
        i = np.arange(max(1, s - width + 1), min(height - 1, s - 1) + 1)
        cell = i * width + (s - i)
        best = total[:, cell - width - 1]
        best_steps = steps[:, cell - width - 1]
        for pred in (cell - width, cell - 1):  # up, then left
            other = total[:, pred]
            other_steps = steps[:, pred]
            better = (other < best) | ((other == best) & (other_steps < best_steps))
            best = np.where(better, other, best)
            best_steps = np.where(better, other_steps, best_steps)
        total[:, cell] = best + cost[:, cell]
        steps[:, cell] = best_steps + 1
    last = (rows - 1) * width + cols - 1
    index = np.arange(n)
    return total[index, last] / steps[index, last]


def _dtw_many(pairs):
    """DTW divergence of each (a, b) pair of frame matrices, in order.

    Pairs are sorted by shape, so that little padding is swept, and taken
    in chunks of at most _DTW_CHUNK_CELLS padded cells (a pair larger than
    that is a chunk of its own); cost matrices exist for one chunk at a time.
    """
    shapes = [(a.shape[0], b.shape[0]) for a, b in pairs]
    chunks, height, width = [[]], 0, 0
    for p in sorted(range(len(pairs)), key=shapes.__getitem__):
        rows, cols = shapes[p]
        height, width = max(height, rows), max(width, cols)
        if chunks[-1] and (len(chunks[-1]) + 1) * height * width > _DTW_CHUNK_CELLS:
            chunks.append([])
            height, width = rows, cols
        chunks[-1].append(p)
    out = np.empty(len(pairs))
    for chunk in chunks:
        out[chunk] = _dtw_sweep([_cosine_cost(*pairs[p]) for p in chunk])
    return out


def dtw_cosine(a, b):
    """DTW divergence between two frame sequences, cosine frame distance.

    The minimal-cost monotone alignment is found over steps (1,0), (0,1)
    and (1,1), and its total cost is divided by the number of aligned cells,
    so the value lies in [0, 2] and is 0 iff perfectly parallel frames can
    be aligned. Symmetric in its arguments.
    """
    a = _frames(a)
    b = _frames(b)
    _check_pair(a, b)
    return float(_dtw_sweep([_cosine_cost(a, b)])[0])


@dataclass
class AbxTriplet:
    """One ABX trial: a and x share a category, b belongs to the other."""
    a: object
    b: object
    x: object

    def __post_init__(self):
        channels = {_frames(item).shape[1] for item in (self.a, self.b, self.x)}
        if len(channels) != 1:
            raise ValueError(f"triplet channel counts differ: {sorted(channels)}")


def abx_score(triplets):
    """ABX error rate in percent over a list of AbxTriplet; ties count 0.5.

    Each distinct (a, x) and (b, x) pair, by object identity, is aligned
    once, so repeated items cost nothing. The pairs are swept together in
    chunks of about 32 pairs of 28x28 frames, so besides one divergence per
    pair the working set is bounded by the chunk (or by the largest single
    pair), whatever the number of triplets.
    """
    triplets = list(triplets)
    if not triplets:
        raise ValueError("abx_score needs at least one triplet")
    frames = {}
    pair_index = {}
    pairs = []
    for triplet in triplets:
        for obj in (triplet.a, triplet.b, triplet.x):
            if id(obj) not in frames:
                frames[id(obj)] = _frames(obj)
        for key in ((id(triplet.a), id(triplet.x)), (id(triplet.b), id(triplet.x))):
            if key not in pair_index:
                pair = (frames[key[0]], frames[key[1]])
                _check_pair(*pair)
                pair_index[key] = len(pairs)
                pairs.append(pair)
    divergence = _dtw_many(pairs)
    errors = 0.0
    for triplet in triplets:
        d_ax = divergence[pair_index[(id(triplet.a), id(triplet.x))]]
        d_bx = divergence[pair_index[(id(triplet.b), id(triplet.x))]]
        if d_ax > d_bx:
            errors += 1.0
        elif d_ax == d_bx:
            errors += 0.5
    return 100.0 * errors / len(triplets)


def load_triplets(path, collection):
    """Read `<name_a> <name_b> <name_x>` lines resolved in a collection."""
    return read_text(path, lambda lines: _triplets_from_lines(lines, collection))


def _triplets_from_lines(lines, collection):
    triplets = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        names = line.split()
        if len(names) != 3:
            raise ValueError(f"line {lineno}: expected 3 names, got {line!r}")
        missing = [n for n in names if n not in collection]
        if missing:
            raise ValueError(f"line {lineno}: unknown features {', '.join(missing)}")
        try:
            triplets.append(AbxTriplet(*(collection[n] for n in names)))
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from err
    if not triplets:
        raise ValueError("no triplets")
    return triplets
