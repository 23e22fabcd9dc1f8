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


def dtw_cosine(a, b):
    """DTW divergence between two frame sequences, cosine frame distance.

    The minimal-cost monotone alignment is found over steps (1,0), (0,1)
    and (1,1), and its total cost is divided by the number of aligned cells,
    so the value lies in [0, 2] and is 0 iff perfectly parallel frames can
    be aligned. Symmetric in its arguments.
    """
    a = _frames(a)
    b = _frames(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"channel counts differ: {a.shape[1]} versus {b.shape[1]}")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("dtw needs non-empty sequences")
    cost = _cosine_cost(a, b)
    rows, cols = cost.shape
    total = np.empty((rows, cols))
    steps = np.empty((rows, cols), dtype=np.int64)
    total[0, 0] = cost[0, 0]
    steps[0, 0] = 1
    for j in range(1, cols):
        total[0, j] = total[0, j - 1] + cost[0, j]
        steps[0, j] = j + 1
    for i in range(1, rows):
        total[i, 0] = total[i - 1, 0] + cost[i, 0]
        steps[i, 0] = i + 1
        row_total = total[i]
        prev_total = total[i - 1]
        for j in range(1, cols):
            diag = prev_total[j - 1]
            up = prev_total[j]
            left = row_total[j - 1]
            best = diag
            best_steps = steps[i - 1, j - 1]
            if up < best or (up == best and steps[i - 1, j] < best_steps):
                best = up
                best_steps = steps[i - 1, j]
            if left < best or (left == best and steps[i, j - 1] < best_steps):
                best = left
                best_steps = steps[i, j - 1]
            row_total[j] = best + cost[i, j]
            steps[i, j] = best_steps + 1
    return float(total[-1, -1] / steps[-1, -1])


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
    """ABX error rate in percent over a list of AbxTriplet; ties count 0.5."""
    triplets = list(triplets)
    if not triplets:
        raise ValueError("abx_score needs at least one triplet")
    errors = 0.0
    for triplet in triplets:
        d_ax = dtw_cosine(triplet.a, triplet.x)
        d_bx = dtw_cosine(triplet.b, triplet.x)
        if d_ax > d_bx:
            errors += 1.0
        elif d_ax == d_bx:
            errors += 0.5
    return 100.0 * errors / len(triplets)


def load_triplets(path, collection):
    """Read `<name_a> <name_b> <name_x>` lines resolved in a collection."""
    triplets = []
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            if not line.strip():
                continue
            names = line.split()
            if len(names) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 names, got {line!r}")
            missing = [n for n in names if n not in collection]
            if missing:
                raise ValueError(
                    f"{path}:{lineno}: unknown features {', '.join(missing)}")
            triplets.append(AbxTriplet(*(collection[n] for n in names)))
    return triplets
