"""The three-step batch pipeline: manifest, configuration, extraction.

Builds a tiny two-speaker corpus on disk, generates an editable pipeline
configuration, extracts MFCC+pitch features over two worker processes, and
round-trips the results through both serialization formats. The same steps
are available from the command line; the equivalent commands are printed.
"""

import tempfile
from pathlib import Path

import numpy as np

from speechfeatures import (Audio, FeaturesCollection, default_config,
                            extract_features, parse_utterances, read_config,
                            write_config, write_wav)

rate = 16000


def vowel(f0, formants, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(rate) / rate
    signal = np.zeros_like(t)
    k = 1
    while k * f0 < 0.45 * rate:
        gain = sum(1.0 / (1.0 + ((k * f0 - f) / 120.0) ** 2) for f in formants)
        signal += gain * np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
        k += 1
    return Audio(0.3 * signal / np.abs(signal).max(), rate)


with tempfile.TemporaryDirectory(prefix="speechfeatures-demo-") as tmp:
    workdir = Path(tmp)

    # step 1: define the utterances
    lines = []
    for i, (name, speaker, f0) in enumerate([("utterance1", "speaker1", 120),
                                             ("utterance2", "speaker1", 135),
                                             ("utterance3", "speaker2", 210)]):
        path = workdir / f"{name}.wav"
        write_wav(path, vowel(f0, [600 + 30 * i, 1400, 2600], seed=i))
        lines.append(f"{name} {path} {speaker}")
    manifest = workdir / "utterances.txt"
    manifest.write_text("\n".join(lines) + "\n")
    print(f"manifest:\n{manifest.read_text()}")

    # step 2: generate a configuration (then edit the file at will)
    config = default_config("mfcc", with_pitch=True, with_cmvn=True, seed=42)
    config_path = workdir / "config.txt"
    write_config(config, config_path)
    print(f"configuration written to {config_path} "
          f"({len(config_path.read_text().splitlines())} lines, human-editable)")

    # step 3: run the pipeline; results are identical for any njobs
    utterances = parse_utterances(manifest)
    collection = extract_features(read_config(config_path), utterances, njobs=2)
    for name, feats in collection.items():
        print(f"  {name}: {feats.data.shape} "
              f"(13 mfcc + 3 pitch, speaker-normalized)")

    # save both ways; binary is exact, csv is one file pair per utterance
    binary_path = workdir / "features.bin"
    collection.save(binary_path, format="binary")
    collection.save(workdir / "features_csv", format="csv")
    back = FeaturesCollection.load(binary_path, format="binary")
    print(f"binary round trip exact: {back == collection}")

    print("\nthe command line equivalent:")
    print(f"  speech-features config mfcc --pitch kaldi --cmvn -o {config_path}")
    print(f"  speech-features extract --njobs 2 {config_path} {manifest} "
          f"{binary_path}")
