"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Every tolerance is stated inline; timing budgets are asserted.
"""

import functools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import speechfeatures as sf
from speechfeatures.pipeline import _warped_mfccs
from speechfeatures.speaker import warp_grid
from speechfeatures.spectral import rasta_filter

from conftest import make_tone, make_voweled
from test_framing import enumerate_frames_centered, enumerate_frames_snip
from test_spectral import naive_dct_ortho, rasta_oracle


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s")
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s "
          f"(budget {budget_seconds}s)")


@pytest.fixture(scope="module")
def speech_wav(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    path = root / "speech.wav"
    sf.write_wav(path, make_voweled(120, [650, 1400, 2600], duration=1.0))
    return str(path)


def test_criterion_1_shape_contracts(speech_wav):
    with criterion(1, "shape contracts", 1.0):
        feats = sf.mfcc(make_tone(440, duration=1.0))
        assert feats.data.shape == (98, 13)

        utterances = sf.Utterances([sf.Utterance("u1", speech_wav)])
        with_pitch = sf.extract_features(
            sf.default_config("mfcc", with_pitch=True), utterances)
        assert with_pitch["u1"].nchannels == 16

        with_deltas = sf.extract_features(
            sf.default_config("mfcc", with_pitch=True, with_delta=True),
            utterances)
        assert with_deltas["u1"].nchannels == 42  # 3n + 3 with n = 13


def test_criterion_2_framing_oracle():
    with criterion(2, "framing oracle", 1.0):
        snip = sf.FrameOptions(snip_edges=True)
        centered = sf.FrameOptions(snip_edges=False)
        size, shift = snip.window_size, snip.window_shift
        for n in range(0, 2001):
            assert sf.num_frames(n, snip) == enumerate_frames_snip(n, size, shift)
            assert sf.num_frames(n, centered) == enumerate_frames_centered(n, shift)


def test_criterion_3_dsp_oracles():
    with criterion(3, "dsp oracles", 5.0):
        # MFCC against an independent direct DCT evaluation, within 1e-10
        audio = make_voweled(130, [700, 1250, 2400], duration=1.0)
        ceps = sf.mfcc(audio, sf.MfccOptions(dither=0.0, cepstral_lifter=0.0))
        log_mel = sf.filterbank(audio, sf.FilterbankOptions(dither=0.0))
        for row in range(0, 98, 7):
            expected = naive_dct_ortho(log_mel.data[row], 13)
            assert np.allclose(ceps.data[row], expected, atol=1e-10, rtol=0)

        # pure tones peak in the correct mel bin, within one bin
        banks = sf.compute_mel_banks(sf.FilterbankOptions(dither=0.0), 512)
        for freq in (300.0, 1000.0, 3000.0):
            feats = sf.filterbank(make_tone(freq),
                                  sf.FilterbankOptions(dither=0.0))
            hottest = np.argmax(feats.data, axis=1)
            nearest = int(np.argmin(np.abs(banks.center_freqs - freq)))
            assert np.all(np.abs(hottest - nearest) <= 1)

        # RASTA rejects a constant input to 1e-6 after 100 frames
        constant = np.full((120, 5), 3.7)
        filtered = rasta_filter(constant)
        assert np.all(np.abs(filtered[100:]) <= 1e-6)
        oracle = rasta_oracle(constant[:, 0])
        assert np.allclose(filtered[:, 0], oracle, atol=1e-12)


def test_criterion_4_pitch():
    with criterion(4, "pitch tracking", 10.0):
        # 2 s pure 220 Hz tone: every frame within 5% (gross-error sense)
        raw = sf.estimate_pitch(make_tone(220, duration=2.0))
        f0 = raw.data[:, 1]
        assert np.all(np.abs(f0 - 220.0) <= 0.05 * 220.0)

        # 220 then 330 Hz: per-half medians within 5%
        rate = 16000
        t = np.arange(rate) / rate
        two_tone = sf.Audio(np.concatenate([
            0.5 * np.sin(2 * np.pi * 220 * t),
            0.5 * np.sin(2 * np.pi * 330 * t)]), rate)
        f0 = sf.estimate_pitch(two_tone).data[:, 1]
        half = len(f0) // 2
        assert abs(np.median(f0[:half]) - 220.0) <= 0.05 * 220.0
        assert abs(np.median(f0[half:]) - 330.0) <= 0.05 * 330.0

        # the selected lag path is invariant to gains 0.1, 1, 10
        tones = [sf.Audio(gain * 0.05 * np.sin(2 * np.pi * 220 * t), rate)
                 for gain in (0.1, 1.0, 10.0)]
        paths = [sf.estimate_pitch(a).data[:, 1] for a in tones]
        assert np.array_equal(paths[0], paths[1])
        assert np.array_equal(paths[1], paths[2])


def test_criterion_5_metrics():
    with criterion(5, "evaluation metrics", 10.0):
        # hand evaluations of the error formulas, exact
        ev = sf.PitchEval([100.0, 200.0], [110.0, 190.0])
        assert sf.mae(ev) == 10.0
        assert sf.ger(ev) == 50.0
        assert sf.mae(sf.PitchEval([50.0], [50.0])) == 0.0
        assert sf.ger(sf.PitchEval([100.0], [200.0])) == 100.0

        # 1000 random triplets score 50% within 5 points
        rng = np.random.default_rng(2024)
        triplets = []
        for _ in range(1000):
            a, b, x = (sf.Features(rng.standard_normal((10, 4)),
                                   np.arange(10, dtype=np.float64))
                       for _ in range(3))
            triplets.append(sf.AbxTriplet(a, b, x))
        score = sf.abx_score(triplets)
        assert abs(score - 50.0) <= 5.0


def test_criterion_6_cmvn():
    with criterion(6, "cmvn", 1.0):
        rng = np.random.default_rng(7)
        coll = sf.FeaturesCollection({
            name: sf.Features(5.0 * rng.standard_normal((m, 6)) + 2.0,
                              np.arange(m) * 0.01 + 0.0125)
            for name, m in (("a", 220), ("b", 180), ("c", 160))})
        speakers = {"a": "s1", "b": "s1", "c": "s2"}

        by_utt = sf.cmvn_apply(coll, opts=sf.CmvnOptions(by="utterance"))
        for feats in by_utt.values():
            assert np.all(np.abs(feats.data.mean(axis=0)) < 1e-10)
            assert np.all(np.abs(feats.data.var(axis=0) - 1.0) < 1e-8)

        by_spk = sf.cmvn_apply(coll, speakers, sf.CmvnOptions(by="speaker"))
        pooled = np.vstack([by_spk["a"].data, by_spk["b"].data])
        assert np.all(np.abs(pooled.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(pooled.var(axis=0) - 1.0) < 1e-8)

        twice = sf.cmvn_apply(by_utt, opts=sf.CmvnOptions(by="utterance"))
        for name in coll:
            assert np.allclose(twice[name].data, by_utt[name].data, atol=1e-8)


def test_criterion_7_ubm():
    with criterion(7, "ubm training", 30.0):
        # EM monotonicity, 1e-8 relative, across every recorded iteration
        rng = np.random.default_rng(11)
        data = rng.standard_normal((3000, 5)) * [1.0, 2.0, 0.5, 1.5, 1.0]
        gmm = sf.train_ubm(data, sf.UbmOptions(num_gauss=8), seed=1)
        for segment in gmm.history:
            for before, after in zip(segment, segment[1:]):
                assert after >= before - 1e-8 * abs(before)

        # two well-separated clusters recovered within 0.1
        half = 5000
        clusters = np.concatenate([
            0.5 * rng.standard_normal(half),
            5.0 + 0.5 * rng.standard_normal(half)])[:, None]
        gmm = sf.train_ubm(clusters, sf.UbmOptions(num_gauss=2, num_iters=6),
                           seed=0)
        means = np.sort(gmm.means[:, 0])
        assert abs(means[0] - 0.0) < 0.1
        assert abs(means[1] - 5.0) < 0.1


VOWEL_FORMANTS = [(730.0, 1090.0, 2440.0), (270.0, 2290.0, 3010.0),
                  (300.0, 870.0, 2240.0), (530.0, 1840.0, 2480.0)]


@pytest.fixture(scope="module")
def vtln_corpus(tmp_path_factory):
    """12 synthetic utterances: 6 from a base speaker, 6 formant-shifted.

    Each utterance cycles through four vowel spectra so the background
    model sees a shared class structure; the second speaker's formants sit
    10% higher throughout.
    """
    root = tmp_path_factory.mktemp("vtln")
    items = []
    for speaker, scale in (("base", 1.0), ("shifted", 1.1)):
        for i in range(6):
            parts = [make_voweled(115.0 + 6.0 * i + 3 * v,
                                  scale * np.array(formants),
                                  duration=0.25, seed=10 * i + v).samples
                     for v, formants in enumerate(VOWEL_FORMANTS)]
            name = f"{speaker}{i}"
            path = root / f"{name}.wav"
            sf.write_wav(path, sf.Audio(np.concatenate(parts), 16000))
            items.append(sf.Utterance(name, str(path), speaker=speaker))
    return sf.Utterances(items)


def test_criterion_8_vtln(vtln_corpus):
    with criterion(8, "vtln warp estimation", 120.0):
        opts = sf.VtlnOptions()
        grid = np.round(warp_grid(opts), 6)

        # a single speaker scored against its own model keeps warp 1.0
        solo = sf.Utterances([u for u in vtln_corpus if u.speaker == "base"])
        extractor = functools.partial(_warped_mfccs, opts=sf.MfccOptions(), seed=0)
        warps = sf.estimate_warps(solo, extractor, opts, seed=0)
        assert warps == {"base": 1.0}

        # raising the formants by 10% must pull the warp strictly under 1.0,
        # with the unshifted speaker staying on or above 1.0
        warps = sf.estimate_warps(vtln_corpus, extractor, opts, seed=0)
        assert warps["shifted"] < 1.0 <= warps["base"]
        for warp in warps.values():
            assert round(warp, 6) in grid


def test_criterion_9_determinism_and_round_trips(tmp_path):
    with criterion(9, "pipeline determinism and serialization", 30.0):
        items = []
        for i in range(4):
            path = tmp_path / f"u{i}.wav"
            sf.write_wav(path, make_voweled(110 + 15 * i, [600, 1300, 2500],
                                            duration=0.5, seed=i))
            items.append(sf.Utterance(f"u{i}", str(path),
                                      speaker=f"s{i % 2}"))
        utterances = sf.Utterances(items)
        config = sf.default_config("mfcc", with_pitch=True, seed=123)

        serial = sf.extract_features(config, utterances, njobs=1)
        parallel = sf.extract_features(config, utterances, njobs=4)
        one = tmp_path / "njobs1.bin"
        four = tmp_path / "njobs4.bin"
        serial.save(one, format="binary")
        parallel.save(four, format="binary")
        assert one.read_bytes() == four.read_bytes()

        back = sf.FeaturesCollection.load(one, format="binary")
        assert back == serial  # float64 preserved exactly

        csv_dir = tmp_path / "csv"
        serial.save(csv_dir, format="csv")
        csv_back = sf.FeaturesCollection.load(csv_dir, format="csv")
        for name in serial:
            assert np.allclose(csv_back[name].data, serial[name].data,
                               atol=1e-12, rtol=0)
            assert np.allclose(csv_back[name].times, serial[name].times,
                               atol=1e-12, rtol=0)
