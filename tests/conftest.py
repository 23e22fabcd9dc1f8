import numpy as np
import pytest

from speechfeatures import Audio, read_config, write_wav
from speechfeatures.pipeline import _render_tree, config_to_dict


def make_tone(freq, duration=1.0, rate=16000, amplitude=0.5, phase=0.0):
    t = np.arange(int(round(duration * rate))) / rate
    return Audio(amplitude * np.sin(2 * np.pi * freq * t + phase), rate)


def make_noise(duration=1.0, rate=16000, amplitude=0.01, seed=0):
    rng = np.random.default_rng(seed)
    n = int(round(duration * rate))
    return Audio(amplitude * rng.standard_normal(n), rate)


def make_voweled(f0, formants, duration=1.0, rate=16000, seed=0, amplitude=0.3):
    """A crude voiced-speech stand-in: harmonics shaped by resonance peaks."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(round(duration * rate))) / rate
    signal = np.zeros_like(t)
    k = 1
    while k * f0 < 0.45 * rate:
        freq = k * f0
        gain = sum(1.0 / (1.0 + ((freq - f) / 120.0) ** 2) for f in formants)
        signal += gain * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        k += 1
    signal += 1e-4 * rng.standard_normal(len(t))
    return Audio(amplitude * signal / np.abs(signal).max(), rate)


def assert_valid_features(feats):
    """The shared Features validator run against every processor output."""
    assert feats.data.ndim == 2
    assert feats.times.ndim == 2 and feats.times.shape[1] in (1, 2)
    assert feats.data.shape[0] == feats.times.shape[0] >= 1
    assert np.all(np.isfinite(feats.data))
    assert np.all(np.isfinite(feats.times))
    assert np.all(np.diff(feats.times[:, 0]) > 0)
    if feats.times.shape[1] == 2:
        assert np.all(feats.times[:, 0] < feats.times[:, 1])
    assert isinstance(feats.properties, dict)


def error_naming_file(path, func, *args):
    """The message of the ValueError func(*args) raises, which opens with
    `<path>: ` and names the file nowhere else."""
    with pytest.raises(ValueError) as info:
        func(*args)
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    assert message.count(str(path)) == 1
    return message


def config_error(tmp_path, config, block, **edits):
    """The message of the ValueError read_config raises on the text of
    `config` with `edits` made in `block` (a block name, or a tuple of
    nested ones); the message opens with the file and then the blocks."""
    blocks = (block,) if isinstance(block, str) else block
    tree = config_to_dict(config)
    target = tree
    for name in blocks:
        target = target.setdefault(name, {})
    target.update(edits)
    path = tmp_path / "config.txt"
    path.write_text("\n".join(_render_tree(tree)) + "\n")
    message = error_naming_file(path, read_config, path)
    assert message.startswith(f"{path}: " + "".join(f"{b}: " for b in blocks))
    return message


@pytest.fixture
def tone_wav(tmp_path):
    """A 1 s 440 Hz 16 kHz WAV file on disk."""
    path = tmp_path / "tone.wav"
    write_wav(path, make_tone(440))
    return str(path)
