"""Seeded synthetic corpora with known ground truth, one per workload.

Speech is simulated by harmonic synthesis: a glottal source of known f0
contour whose harmonics are weighted by a four-formant resonance envelope.
Every corpus is fully determined by (workload, seed); the amount of audio,
the number of utterances and the segment lengths do not depend on the seed,
so every seed asks the program for the same amount of work.

Run as a script it writes into an output directory:

    wav/*.wav      16-bit PCM mono files (the only thing the program reads,
                   together with manifest.txt and triplets.txt)
    manifest.txt   the utterance manifest
    triplets.txt   ABX triplets (abx-plp-22k only)
    truth.json     ground truth for the output checks

    python3 bench/corpus.py --workload pitch-mfcc-16k --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import struct

import numpy as np

# formant targets in Hz (F1..F4) of the vowels used by the synthesizer
VOWELS = {
    "a": (730.0, 1090.0, 2440.0, 3400.0),
    "e": (530.0, 1840.0, 2480.0, 3500.0),
    "i": (270.0, 2290.0, 3010.0, 3700.0),
    "o": (570.0, 840.0, 2410.0, 3300.0),
    "u": (300.0, 870.0, 2240.0, 3300.0),
}
BANDWIDTHS = (80.0, 100.0, 150.0, 200.0)

# The corpora. Durations, counts and rates are fixed; the seed only moves
# contours, formant jitter, vowel order, noise and speaker assignments.
PITCH = {
    "rate": 16000, "speakers": 4, "utterances": 1, "duration": 2.0,
    # SNR in dB of utterance u of speaker s is snrs[(s + u) % 3]; None is
    # clean speech
    "snrs": (None, 20.0, 10.0),
    "base_f0": (95.0, 130.0, 175.0, 230.0),
}
VTLN = {
    "rate": 16000, "speakers": 3, "utterances": 3, "duration": 1.2,
    # formant scale of each speaker, assigned to speaker names by the seed
    "scales": (0.87, 1.00, 1.13),
}
ABX = {
    "rate": 22050, "speakers": 3, "tokens_per_category": 3,
    # diphthong categories: formant glide from the first to the second vowel
    "categories": ("ai", "ae", "ei"),
    "token": 0.30, "gap": 0.12, "lead": 0.2, "triplets": 150,
}


def write_wav16(path, samples, rate):
    """Write float samples in [-1, 1] as mono 16-bit PCM."""
    ints = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    header = (b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
              + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
              + b"data" + struct.pack("<I", len(payload)))
    with open(path, "wb") as fp:
        fp.write(header + payload)


def _envelope(freqs, formants):
    """Magnitude of a cascade of second-order resonances at `freqs`."""
    gain = np.ones_like(freqs)
    for i, bandwidth in enumerate(BANDWIDTHS):
        center = formants[i]
        ratio = freqs / center
        gain = gain / np.sqrt((1.0 - ratio ** 2) ** 2
                              + (freqs * bandwidth / center ** 2) ** 2)
    return gain


def harmonic_voice(f0, formants, rate, rng, hop=64):
    """Voiced signal with per-sample f0 [n] and formant tracks [n, 4].

    Harmonic amplitudes are evaluated on a `hop`-sample grid and linearly
    interpolated; harmonics stay below 0.45 * rate.
    """
    n = len(f0)
    phase = 2.0 * np.pi * np.cumsum(f0) / rate
    grid = np.arange(0, n, hop)
    top = int(0.45 * rate / f0.min())
    out = np.zeros(n)
    index = np.arange(n)
    for k in range(1, top + 1):
        freqs = k * f0[grid]
        amp = _envelope(freqs, formants[grid].T) / k
        amp[freqs >= 0.45 * rate] = 0.0
        out += np.interp(index, grid, amp) * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    return out


def _glide(n, start, end):
    """Log-linear glide of n samples from start to end."""
    return np.exp(np.linspace(np.log(start), np.log(end), n))


def _formant_track(n, first, second, scale):
    """Formants moving from vowel `first` to `second` along a smooth step."""
    weight = 0.5 - 0.5 * np.cos(np.pi * np.linspace(0.0, 1.0, n))
    a = np.asarray(VOWELS[first]) * scale
    b = np.asarray(VOWELS[second]) * scale
    return a[None, :] + weight[:, None] * (b - a)[None, :]


def _taper(n, rate, ramp=0.01):
    """Linear 10 ms fade in and out over n samples."""
    edge = np.minimum(np.arange(n), np.arange(n)[::-1])
    return np.minimum(1.0, edge / (ramp * rate))


def _add_noise(signal, voiced, snr_db, rng):
    """White noise at `snr_db` relative to the power of the voiced part."""
    if snr_db is None:
        return signal
    power = np.mean(signal[voiced] ** 2)
    sigma = np.sqrt(power / 10.0 ** (snr_db / 10.0))
    return signal + sigma * rng.standard_normal(len(signal))


def _normalize(signal, peak=0.5):
    return peak * signal / np.abs(signal).max()


def _stretches(duration, rng):
    """Alternating voiced glides and unvoiced gaps filling `duration` s.

    Returns [(start, end)] voiced intervals in seconds; the first starts
    after a short gap and the last ends before the end of the utterance.
    """
    intervals = []
    t = rng.uniform(0.10, 0.20)
    while True:
        length = rng.uniform(0.40, 0.80)
        if t + length > duration - 0.10:
            break
        intervals.append((round(t, 4), round(t + length, 4)))
        t += length + rng.uniform(0.10, 0.25)
    return intervals


def pitch_corpus(seed, out):
    """Multi-speaker voiced glides in noise, with the f0 of every glide."""
    spec = PITCH
    rng = np.random.default_rng([seed, 1])
    rate = spec["rate"]
    n = int(round(spec["duration"] * rate))
    manifest, truth = [], {}
    vowels = list(VOWELS)
    for s in range(spec["speakers"]):
        base = spec["base_f0"][s]
        for u in range(spec["utterances"]):
            name = f"p{s}u{u}"
            snr = spec["snrs"][(s + u) % len(spec["snrs"])]
            signal = 1e-3 * rng.standard_normal(n)  # unvoiced breath noise
            voiced = np.zeros(n, dtype=bool)
            glides = []
            for start, end in _stretches(spec["duration"], rng):
                lo, hi = int(round(start * rate)), int(round(end * rate))
                f0_start = base * rng.uniform(0.8, 1.25)
                f0_end = f0_start * rng.uniform(0.7, 1.4)
                f0 = _glide(hi - lo, f0_start, f0_end)
                first, second = rng.choice(vowels, 2, replace=False)
                formants = _formant_track(hi - lo, first, second, 1.0)
                signal[lo:hi] += 0.05 * _taper(hi - lo, rate) * harmonic_voice(
                    f0, formants, rate, rng)
                voiced[lo:hi] = True
                glides.append([start, end, float(f0_start), float(f0_end)])
            signal = _normalize(_add_noise(signal, voiced, snr, rng))
            path = os.path.join("wav", name + ".wav")
            write_wav16(os.path.join(out, path), signal, rate)
            manifest.append(f"{name} {path} spk{s}")
            truth[name] = {"speaker": f"spk{s}", "samples": n, "snr_db": snr,
                           "glides": glides}
    return manifest, {"rate": rate, "utterances": truth}


def vtln_corpus(seed, out):
    """Speakers whose formants are scaled by known factors.

    Every speaker reads the same prompts (vowel-to-vowel chains), so the
    formant scale is what sets the speakers apart.
    """
    spec = VTLN
    rng = np.random.default_rng([seed, 2])
    rate = spec["rate"]
    n = int(round(spec["duration"] * rate))
    scales = rng.permutation(spec["scales"])
    vowels = list(VOWELS)
    prompts = []
    for _ in range(spec["utterances"]):
        chain = [str(rng.choice(vowels))]
        while len(chain) < 9:
            chain.append(str(rng.choice([v for v in vowels if v != chain[-1]])))
        prompts.append(chain)
    bounds = np.linspace(0, n, 9).astype(int)
    manifest, truth, speakers = [], {}, {}
    for s in range(spec["speakers"]):
        speaker = f"spk{s}"
        scale = float(scales[s])
        speakers[speaker] = scale
        # f0 rises with the formant scale, as it does from longer to
        # shorter vocal tracts
        base = 130.0 * scale * rng.uniform(0.95, 1.05)
        for u, chain in enumerate(prompts):
            name = f"v{s}u{u}"
            formants = np.vstack([
                _formant_track(hi - lo, first, second, scale)
                for lo, hi, first, second in zip(bounds[:-1], bounds[1:],
                                                 chain[:-1], chain[1:])])
            f0 = _glide(n, base * rng.uniform(0.85, 1.15), base * rng.uniform(0.85, 1.15))
            signal = harmonic_voice(f0, formants, rate, rng)
            signal = _normalize(signal + 1e-3 * np.abs(signal).max()
                                * rng.standard_normal(n))
            path = os.path.join("wav", name + ".wav")
            write_wav16(os.path.join(out, path), signal, rate)
            manifest.append(f"{name} {path} {speaker}")
            truth[name] = {"speaker": speaker, "samples": n, "vowels": chain}
    return manifest, {"rate": rate, "utterances": truth, "scales": speakers}


def abx_corpus(seed, out):
    """22.05 kHz recordings of diphthong tokens, cut by onset/offset."""
    spec = ABX
    rng = np.random.default_rng([seed, 3])
    rate = spec["rate"]
    token_n = int(round(spec["token"] * rate))
    manifest, truth = [], {}
    categories = spec["categories"]
    for s in range(spec["speakers"]):
        speaker = f"spk{s}"
        scale = rng.uniform(0.92, 1.08)
        base = rng.uniform(100.0, 220.0)
        order = np.repeat(np.arange(len(categories)), spec["tokens_per_category"])
        order = rng.permutation(order)
        lead = int(round(spec["lead"] * rate))
        gap = int(round(spec["gap"] * rate))
        total = 2 * lead + len(order) * token_n + (len(order) - 1) * gap
        signal = 1e-3 * rng.standard_normal(total)
        wav = os.path.join("wav", f"rec{s}.wav")
        for t, c in enumerate(order):
            category = categories[c]
            lo = lead + t * (token_n + gap)
            jitter = rng.uniform(0.95, 1.05)
            formants = _formant_track(token_n, category[0], category[1], scale * jitter)
            f0 = _glide(token_n, base * rng.uniform(0.9, 1.1), base * rng.uniform(0.9, 1.1))
            signal[lo:lo + token_n] += 0.05 * _taper(token_n, rate) * harmonic_voice(
                f0, formants, rate, rng)
            name = f"{speaker}t{t:02d}"
            onset, offset = lo / rate, (lo + token_n) / rate
            manifest.append(f"{name} {wav} {speaker} {onset!r} {offset!r}")
            truth[name] = {"speaker": speaker, "category": category,
                           "onset": onset, "offset": offset}
        write_wav16(os.path.join(out, wav), _normalize(signal), rate)

    # a and x share the category and differ in speaker; b is a's speaker in
    # another category, so speaker identity cannot answer the trial
    names = sorted(truth)
    triplets = []
    while len(triplets) < spec["triplets"]:
        a, x = rng.choice(names, 2, replace=False)
        if (truth[a]["category"] != truth[x]["category"]
                or truth[a]["speaker"] == truth[x]["speaker"]):
            continue
        others = [b for b in names if truth[b]["speaker"] == truth[a]["speaker"]
                  and truth[b]["category"] != truth[a]["category"]]
        triplets.append((a, str(rng.choice(others)), x))
    with open(os.path.join(out, "triplets.txt"), "w", encoding="utf-8") as fp:
        fp.writelines(f"{a} {b} {x}\n" for a, b, x in triplets)
    return manifest, {"rate": rate, "utterances": truth, "triplets": triplets}


CORPORA = {
    "pitch-mfcc-16k": pitch_corpus,
    "vtln-mfcc-16k": vtln_corpus,
    "abx-plp-22k": abx_corpus,
}


def audio_seconds(truth):
    """Seconds of audio the manifest hands to the program."""
    total = 0.0
    for item in truth["utterances"].values():
        if "onset" in item:
            total += item["offset"] - item["onset"]
        else:
            total += item["samples"] / truth["rate"]
    return total


def generate(workload, seed, out):
    """Write the corpus of `workload` for `seed` into directory `out`."""
    os.makedirs(os.path.join(out, "wav"), exist_ok=True)
    manifest, truth = CORPORA[workload](seed, out)
    truth["workload"] = workload
    truth["seed"] = seed
    truth["audio_seconds"] = audio_seconds(truth)
    with open(os.path.join(out, "manifest.txt"), "w", encoding="utf-8") as fp:
        fp.write("\n".join(manifest) + "\n")
    with open(os.path.join(out, "truth.json"), "w", encoding="utf-8") as fp:
        json.dump(truth, fp)
    return truth


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CORPORA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
