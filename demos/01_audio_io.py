"""Loading, resampling and segmenting audio, and parsing utterance manifests.

Generates a WAV file in a temporary directory, then walks through the audio
layer: reading it back, resampling, cutting a segment, and describing a
small corpus with a manifest file.
"""

import tempfile
from pathlib import Path

import numpy as np

from speechfeatures import (Audio, load_wav, parse_utterances, resample,
                            segment, write_wav)

with tempfile.TemporaryDirectory(prefix="speechfeatures-demo-") as tmp:
    workdir = Path(tmp)

    # synthesize one second of a 440 Hz tone at 48 kHz, stored as 16-bit WAV
    rate = 48000
    t = np.arange(rate) / rate
    tone = Audio(0.6 * np.sin(2 * np.pi * 440 * t), rate)
    wav_path = workdir / "tone.wav"
    write_wav(wav_path, tone)
    print(f"wrote {wav_path}")

    # read it back: samples are float64 in [-1, 1]
    audio = load_wav(wav_path)
    print(f"loaded {audio} ({audio.duration:.2f} s, "
          f"peak {np.abs(audio.samples).max():.3f})")

    # resample to the 16 kHz most processors expect
    audio16 = resample(audio, 16000)
    print(f"resampled to {audio16}")

    # the tone survives: locate the spectral peak
    spectrum = np.abs(np.fft.rfft(audio16.samples))
    peak_hz = np.argmax(spectrum) * audio16.sample_rate / audio16.nsamples
    print(f"dominant frequency after resampling: {peak_hz:.1f} Hz")

    # cut out the middle half second
    middle = segment(audio16, 0.25, 0.75)
    print(f"segment [0.25 s, 0.75 s) -> {middle.nsamples} samples")

    # a manifest names utterances, points at audio and labels speakers
    manifest = workdir / "utterances.txt"
    manifest.write_text(
        f"utt1 {wav_path} speaker-a\n"
        f"utt2 {wav_path} speaker-b\n")
    utterances = parse_utterances(manifest)
    print(f"manifest has {len(utterances)} utterances, "
          f"speakers {sorted(set(utterances.speakers.values()))}")
