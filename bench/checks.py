"""Output checks made apart from the program.

The container is read by a reader of its own (the layout is documented in
the program's `features` module), and every check compares the output with
the corpus ground truth or with a property of the method. Each check
returns a list of failure messages; an empty list is a pass.
"""

import json
import math
import struct

import numpy as np

# the program's framing at 16 kHz: 25 ms frames every 10 ms, snipped edges
RATE = 16000
WINDOW = 400
SHIFT = 160


def read_container(path):
    """name -> (times [m, t], data [m, n], properties) of a binary container."""
    with open(path, "rb") as fp:
        raw = fp.read()
    if raw[:4] != b"SHN1":
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    try:
        return _read_items(raw, path)
    except struct.error as err:
        raise ValueError(f"{path}: truncated container ({err})") from err


def _read_items(raw, path):
    items = {}
    pos = 4
    while pos < len(raw):
        name_len, = struct.unpack_from("<I", raw, pos)
        name = raw[pos + 4:pos + 4 + name_len].decode("utf-8")
        pos += 4 + name_len
        m, n, t = struct.unpack_from("<QIB", raw, pos)
        pos += 13
        times = np.frombuffer(raw, "<f8", m * t, pos).reshape(m, t)
        pos += 8 * m * t
        data = np.frombuffer(raw, "<f8", m * n, pos).reshape(m, n)
        pos += 8 * m * n
        blob_len, = struct.unpack_from("<Q", raw, pos)
        pos += 8
        if pos + blob_len > len(raw):
            raise ValueError(f"{path}: truncated item {name!r}")
        properties = json.loads(raw[pos:pos + blob_len].decode("utf-8"))
        pos += blob_len
        items[name] = (times, data, properties)
    return items


def input_samples(item, rate):
    """Samples at 16 kHz the program frames for one corpus item.

    Segments span [floor(onset * rate), floor(offset * rate)) and are then
    resampled to round(n * 16000 / rate) samples.
    """
    if "onset" not in item:
        return item["samples"]
    n = math.floor(item["offset"] * rate) - math.floor(item["onset"] * rate)
    return int(round(n * RATE / rate))


def check_frames(items, truth):
    """Frame counts and frame-center times follow the framing formula."""
    failures = []
    if sorted(items) != sorted(truth["utterances"]):
        return [f"container items {sorted(items)[:4]}... differ from the manifest"]
    for name, item in truth["utterances"].items():
        times = items[name][0]
        n = input_samples(item, truth["rate"])
        m = 1 + (n - WINDOW) // SHIFT
        expected = (np.arange(m) * SHIFT + WINDOW / 2) / RATE
        if times.shape != (m, 1):
            failures.append(f"{name}: {times.shape[0]} frames, expected {m}")
        elif np.max(np.abs(times[:, 0] - expected)) > 1e-9:
            failures.append(f"{name}: frame times off the 10 ms grid")
    return failures


def check_cmvn(items, truth, tolerance=1e-6):
    """Per-speaker means are 0 and standard deviations 1 in every channel."""
    failures = []
    speakers = {}
    for name, item in truth["utterances"].items():
        speakers.setdefault(item["speaker"], []).append(items[name][1])
    for speaker, blocks in sorted(speakers.items()):
        pooled = np.vstack(blocks)
        mean = np.abs(pooled.mean(axis=0)).max()
        std = np.abs(pooled.std(axis=0) - 1.0).max()
        if mean > tolerance or std > tolerance:
            failures.append(f"{speaker}: channel mean off 0 by {mean:.3g}, "
                            f"std off 1 by {std:.3g}")
    return failures


def truth_log_f0(glides, times, margin=0.03):
    """log f0 of the synthesis at `times`, NaN outside the voiced glides.

    Frames within `margin` s of a glide edge are left out, since their
    25 ms window straddles voiced and unvoiced audio.
    """
    out = np.full(len(times), np.nan)
    for start, end, f0_start, f0_end in glides:
        inside = (times >= start + margin) & (times <= end - margin)
        frac = (times[inside] - start) / (end - start)
        out[inside] = (1.0 - frac) * math.log(f0_start) + frac * math.log(f0_end)
    return out


def normalized_log_f0(log_f0, half=75):
    """log f0 minus its mean over voiced frames of a centered window.

    The window is the 151 frames the pitch post-processor averages over;
    unvoiced frames get no weight, as they get almost none there.
    """
    voiced = ~np.isnan(log_f0)
    values = np.where(voiced, log_f0, 0.0)
    num = np.concatenate([[0.0], np.cumsum(values)])
    den = np.concatenate([[0.0], np.cumsum(voiced)])
    index = np.arange(len(log_f0))
    lo = np.maximum(index - half, 0)
    hi = np.minimum(index + half + 1, len(log_f0))
    return log_f0 - (num[hi] - num[lo]) / np.maximum(den[hi] - den[lo], 1)


# mfcc 13 ceps with two delta orders, then [pov, log pitch, delta pitch]
PITCH_CHANNELS = 42
LOG_PITCH_CHANNEL = 40


def check_pitch(items, truth, minimum=0.9):
    """The log-pitch channel follows the synthesis contour.

    Per speaker, the Pearson correlation between the channel and the
    normalized log f0 of the contour over voiced frames must reach
    `minimum`. Correlation is unchanged by the per-speaker affine map of
    CMVN, so normalization cannot make a wrong track pass.
    """
    failures = []
    pairs = {}
    for name, item in truth["utterances"].items():
        times, data, _ = items[name]
        if data.shape[1] != PITCH_CHANNELS:
            return [f"{name}: {data.shape[1]} channels, expected {PITCH_CHANNELS}"]
        reference = normalized_log_f0(truth_log_f0(item["glides"], times[:, 0]))
        keep = ~np.isnan(reference)
        got, want = pairs.setdefault(item["speaker"], ([], []))
        got.append(data[keep, LOG_PITCH_CHANNEL])
        want.append(reference[keep])
    for speaker, (got, want) in sorted(pairs.items()):
        r = float(np.corrcoef(np.concatenate(got), np.concatenate(want))[0, 1])
        if not r >= minimum:
            failures.append(f"{speaker}: log pitch correlates {r:.3f} with the "
                            f"contour, need {minimum}")
    return failures


def speaker_warps(items, truth):
    """speaker -> warp factor recorded in the items' `vtln_warp` properties."""
    warps = {}
    for name, item in truth["utterances"].items():
        properties = items[name][2]
        warp = properties["mfcc"]["vtln_warp"]
        if properties.get("vtln_warp", 1.0) != warp:
            raise ValueError(f"{name}: two different vtln_warp properties")
        if warps.setdefault(item["speaker"], warp) != warp:
            raise ValueError(f"{name}: warp differs from its speaker's")
    return warps


def check_warps(items, truth):
    """Warps do not increase with formant scale and are not all equal.

    The program places the mel bank of frequency f at f / warp, so a
    speaker whose formants sit higher is matched by a smaller warp.
    """
    try:
        warps = speaker_warps(items, truth)
    except (KeyError, ValueError) as err:
        return [f"warp properties: {err}"]
    order = sorted(warps, key=lambda s: truth["scales"][s])
    ordered = [warps[s] for s in order]
    failures = []
    if any(a < b for a, b in zip(ordered, ordered[1:])):
        failures.append("warps increase with formant scale: " + ", ".join(
            f"{truth['scales'][s]}->{warps[s]:.2f}" for s in order))
    if len(set(ordered)) == 1:
        failures.append(f"every speaker has warp {ordered[0]}")
    return failures


def dtw(a, b):
    """Length-normalized DTW with cosine frame distance, by anti-diagonals.

    Among equal-cost paths the one with fewer steps wins, and the total
    cost is divided by the step count of the chosen path.
    """
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = (a @ b.T) / np.outer(na, nb)
    cost = 1.0 - np.clip(cos, -1.0, 1.0)
    zero_a, zero_b = (na == 0)[:, None], (nb == 0)[None, :]
    cost = np.where(zero_a ^ zero_b, 1.0, cost)
    cost = np.where(zero_a & zero_b, 0.0, cost)
    rows, cols = cost.shape
    total = np.full((rows + 1, cols + 1), np.inf)
    steps = np.zeros((rows + 1, cols + 1), dtype=np.int64)
    total[0, 0] = 0.0
    for d in range(2, rows + cols + 1):  # cells (i, j), 1-based, i + j = d
        i = np.arange(max(1, d - cols), min(rows, d - 1) + 1)
        j = d - i
        cand_t = np.stack([total[i - 1, j - 1], total[i - 1, j], total[i, j - 1]])
        cand_s = np.stack([steps[i - 1, j - 1], steps[i - 1, j], steps[i, j - 1]])
        best = np.lexsort((cand_s, cand_t), axis=0)[0]
        pick = np.arange(len(i))
        total[i, j] = cand_t[best, pick] + cost[i - 1, j - 1]
        steps[i, j] = cand_s[best, pick] + 1
    return float(total[rows, cols] / steps[rows, cols])


def abx_error(items, triplets):
    """(error in percent, [(d_ax, d_bx)]) over the triplets; ties count half."""
    distances = [(dtw(items[a][1], items[x][1]), dtw(items[b][1], items[x][1]))
                 for a, b, x in triplets]
    errors = sum(1.0 if ax > bx else 0.5 if ax == bx else 0.0
                 for ax, bx in distances)
    return 100.0 * errors / len(triplets), distances


def check_abx(items, truth, printed, program_dtw=None, spot=12, ceiling=25.0):
    """The printed ABX error is reproduced and well below chance.

    `printed` is the program's `eval abx` output. `program_dtw`, when given,
    is the program's DTW, compared on the first `spot` triplets.
    """
    error, distances = abx_error(items, truth["triplets"])
    failures = []
    if printed.strip() != f"ABX error rate: {error:.6g} %":
        failures.append(f"program printed {printed.strip()!r}, "
                        f"independent DTW gives {error:.6g} %")
    if not error < ceiling:
        failures.append(f"ABX error {error:.3g} % is not below {ceiling} %")
    if program_dtw is not None:
        for (a, b, x), pair in zip(truth["triplets"][:spot], distances):
            theirs = (program_dtw(items[a][1], items[x][1]),
                      program_dtw(items[b][1], items[x][1]))
            if max(abs(p - q) for p, q in zip(theirs, pair)) > 1e-12:
                failures.append(f"({a}, {b}, {x}): divergences {theirs} "
                                f"differ from {pair}")
                break
    return failures


CHECKS = {
    "pitch-mfcc-16k": (check_frames, check_cmvn, check_pitch),
    "vtln-mfcc-16k": (check_frames, check_cmvn, check_warps),
    "abx-plp-22k": (check_frames,),
}


def check_output(workload, items, truth, printed="", program_dtw=None):
    """Every check of one workload's output."""
    failures = []
    for check in CHECKS[workload]:
        failures += check(items, truth)
    if workload == "abx-plp-22k":
        failures += check_abx(items, truth, printed, program_dtw)
    return failures
