"""Background model training and per-speaker warp estimation.

First fits a diagonal GMM to data drawn from a known mixture and checks the
recovery. Then builds a corpus where the second speaker's formants sit 10%
above the first's and estimates frequency warp factors: the shifted speaker
lands below 1.0, compensating the shift, without any transcription.
"""

import functools
import tempfile
from pathlib import Path

import numpy as np

from speechfeatures import (Audio, MfccOptions, UbmOptions, Utterance,
                            Utterances, VtlnOptions, estimate_warps, save_warps,
                            train_ubm, write_wav)
from speechfeatures.pipeline import _warped_mfccs

rng = np.random.default_rng(0)

# --- unsupervised density modeling ---------------------------------------
samples = np.concatenate([rng.normal(-2.0, 0.4, 4000),
                          rng.normal(3.0, 0.7, 6000)])[:, None]
ubm = train_ubm(samples, UbmOptions(num_gauss=2, num_iters=6), seed=0)
order = np.argsort(ubm.means[:, 0])
print("mixture recovery from 10k samples:")
for g in order:
    print(f"  weight {ubm.weights[g]:.3f}  mean {ubm.means[g, 0]:+.3f}  "
          f"std {np.sqrt(ubm.variances[g, 0]):.3f}")
print(f"log-likelihood of a point at the heavy mode: "
      f"{ubm.loglikes(np.array([3.0]))[0]:.3f}")
print(f"mean log-likelihood per sample: {ubm.loglikes(samples).mean():.3f}")

# --- warp factor estimation ----------------------------------------------
rate = 16000
VOWELS = [(730, 1090, 2440), (270, 2290, 3010), (300, 870, 2240)]


def vowel_sequence(f0, scale, seed):
    parts = []
    for v, formants in enumerate(VOWELS):
        local = np.random.default_rng(seed * 7 + v)
        t = np.arange(rate // 3) / rate
        signal = np.zeros_like(t)
        k = 1
        while k * f0 < 0.45 * rate:
            gain = sum(1.0 / (1.0 + ((k * f0 - scale * f) / 120.0) ** 2)
                       for f in formants)
            signal += gain * np.sin(2 * np.pi * k * f0 * t
                                    + local.uniform(0, 2 * np.pi))
            k += 1
        parts.append(0.3 * signal / np.abs(signal).max())
    return Audio(np.concatenate(parts), rate)


with tempfile.TemporaryDirectory(prefix="speechfeatures-demo-") as tmp:
    workdir = Path(tmp)
    items = []
    for speaker, scale in (("deep", 1.0), ("bright", 1.1)):
        for i in range(4):
            name = f"{speaker}{i}"
            path = workdir / f"{name}.wav"
            write_wav(path, vowel_sequence(115 + 7 * i, scale, seed=i))
            items.append(Utterance(name, str(path), speaker=speaker))
    corpus = Utterances(items)

    # the search asks an extractor (utterance, warps) -> [one frame matrix per
    # warp] for each utterance's whole warp grid once per round, and keeps only
    # the frames at each speaker's selected warp between rounds; the pipeline's
    # extractor reads and frames the utterance once per call
    extractor = functools.partial(_warped_mfccs, opts=MfccOptions(sample_rate=rate),
                                  seed=0)
    warps = estimate_warps(corpus, extractor, VtlnOptions(), seed=0)
    print(f"\nestimated warps: {warps}")
    print("the 10% brighter speaker is pulled under 1.0: "
          f"{warps['bright'] < 1.0 <= warps['deep']}")

    warps_path = workdir / "speakers.warp"
    save_warps(warps, warps_path)
    print(f"warp map stored as two-column text:\n{warps_path.read_text().strip()}")
