"""IDX parsing, downsampling, and the synthetic multi-mode dataset."""
import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiff.data import (
    ImageBatch,
    SyntheticSpec,
    downsample,
    load_idx,
    mode_templates,
    nearest_mode,
    parse_idx,
    synth_modes,
)


def serialize_idx(tensor):
    """IDX fixture writer, the inverse of parse_idx: the layout it documents."""
    tensor = np.asarray(tensor, dtype=np.uint8)
    head = bytes([0, 0, 0x08, tensor.ndim]) + struct.pack(f">{tensor.ndim}I", *tensor.shape)
    return head + tensor.tobytes()


def test_parse_idx_minimal_example():
    stream = bytes([0, 0, 0x08, 1, 0, 0, 0, 3, 1, 2, 3])
    t = parse_idx(stream)
    assert t.shape == (3,) and t.dtype == np.uint8
    assert list(t) == [1, 2, 3]


def test_parse_idx_image_layout():
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(5, 28, 28)).astype(np.uint8)
    t = parse_idx(serialize_idx(imgs))
    assert t.shape == (5, 28, 28)
    assert np.array_equal(t, imgs)


def test_parse_idx_error_paths():
    good = serialize_idx(np.arange(12, dtype=np.uint8).reshape(3, 4))
    with pytest.raises(ValueError):
        parse_idx(b"")
    with pytest.raises(ValueError):
        parse_idx(b"\x01\x00\x08\x01" + good[4:])  # bad magic
    with pytest.raises(ValueError):
        parse_idx(good[:2] + b"\x09" + good[3:])  # type byte not 0x08
    with pytest.raises(ValueError):
        parse_idx(good[:-1])  # truncated payload
    with pytest.raises(ValueError):
        parse_idx(good[:6])  # truncated dimension table
    with pytest.raises(ValueError):
        parse_idx(good + b"\x00")  # trailing junk
    with pytest.raises(ValueError, match="truncated IDX payload"):
        parse_idx(bytes([0, 0, 0x08, 4]) + b"\x00\x01\x00\x00" * 4)  # 2^64 bytes claimed


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=40),
       st.sampled_from([(1,), (2,), (4, 1)]))
def test_idx_round_trip_is_bit_exact(values, head):
    n = len(values)
    shape = head + (n,) if np.prod(head) * n else (n,)
    tensor = np.array(values, dtype=np.uint8)
    tensor = np.tile(tensor, int(np.prod(head))).reshape(shape + ())
    blob = serialize_idx(tensor)
    back = parse_idx(blob)
    assert np.array_equal(back, tensor)
    assert serialize_idx(back) == blob


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_parse_idx_refuses_truncated_or_mutated_streams_with_value_error(data):
    good = serialize_idx(np.arange(24, dtype=np.uint8).reshape(2, 3, 4))
    blob = bytearray(good[: data.draw(st.integers(0, len(good)), label="cut")])
    for pos, byte in data.draw(st.lists(st.tuples(st.integers(0, len(good) - 1),
                                                  st.integers(0, 255)), max_size=4),
                               label="mutations"):
        if pos < len(blob):
            blob[pos] = byte
    try:
        out = parse_idx(bytes(blob))
    except ValueError:
        return
    assert out.dtype == np.uint8 and out.size == len(blob) - 4 - 4 * blob[3]


def test_load_idx_handles_gzip(tmp_path):
    rng = np.random.default_rng(1)
    imgs = rng.integers(0, 256, size=(3, 28, 28)).astype(np.uint8)
    blob = serialize_idx(imgs)
    plain = tmp_path / "imgs.idx"
    plain.write_bytes(blob)
    zipped = tmp_path / "imgs.idx.gz"
    zipped.write_bytes(gzip.compress(blob))
    assert np.array_equal(load_idx(plain), imgs)
    assert np.array_equal(load_idx(zipped), imgs)


def test_downsample_constant_images():
    out = downsample(np.full(784, 200.0))
    assert np.allclose(out, 200 / 255, atol=1e-12)
    assert np.array_equal(downsample(np.zeros(784)), np.zeros(256))
    out_unit = downsample(np.full(784, 0.5))
    assert np.allclose(out_unit, 0.5, atol=1e-12)
    with pytest.raises(ValueError):
        downsample(np.zeros(100))


def nn_downsample(img):
    """Nearest-neighbor reference resampler."""
    src = np.asarray(img, float).reshape(28, 28)
    idx = np.clip(np.rint((np.arange(16) + 0.5) * 28 / 16 - 0.5).astype(int), 0, 27)
    out = src[np.ix_(idx, idx)]
    if out.max() > 1:
        out = out / 255
    return np.clip(out, 0, 1).ravel()


def area_downsample(img):
    """Area-average reference: mean over the source cells each pixel covers."""
    src = np.asarray(img, float).reshape(28, 28)
    out = np.zeros((16, 16))
    for r in range(16):
        for c in range(16):
            r0, r1 = int(r * 28 / 16), int(np.ceil((r + 1) * 28 / 16))
            c0, c1 = int(c * 28 / 16), int(np.ceil((c + 1) * 28 / 16))
            out[r, c] = src[r0:r1, c0:c1].mean()
    if out.max() > 1:
        out = out / 255
    return np.clip(out, 0, 1).ravel()


def test_downsample_agrees_with_reference_methods():
    rng = np.random.default_rng(2)
    # smooth images: all three resamplers should roughly agree
    xs = np.linspace(0, 2 * np.pi, 28)
    smooth = (np.sin(xs)[:, None] * np.cos(xs)[None, :] + 1) * 100
    bil = downsample(smooth.ravel())
    assert np.max(np.abs(bil - nn_downsample(smooth.ravel()))) < 0.08
    assert np.max(np.abs(bil - area_downsample(smooth.ravel()))) < 0.08
    # rough images still agree on total mass within a factor of two
    noisy = rng.uniform(0, 255, 784)
    assert 0.5 < downsample(noisy).sum() / area_downsample(noisy).sum() < 2.0


def test_downsample_single_bright_pixel_mass():
    img = np.zeros(784)
    img[13 * 28 + 13] = 255.0
    out = downsample(img)
    # input mass ratio 1/784 of max; output keeps it within 2x after rescaling
    in_ratio = 1.0 / 784
    out_ratio = out.sum() / 256
    assert in_ratio / 2 < out_ratio < in_ratio * 2


def test_downsample_range_property():
    rng = np.random.default_rng(3)
    for _ in range(10):
        out = downsample(rng.uniform(0, 255, 784))
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_image_batch_validation():
    with pytest.raises(ValueError):
        ImageBatch(np.zeros((2, 100)))
    with pytest.raises(ValueError):
        ImageBatch(np.full((2, 256), 1.5))
    for bad in (np.nan, np.inf, -np.inf):
        imgs = np.zeros((2, 256))
        imgs[1, 7] = bad
        with pytest.raises(ValueError, match="pixel values must lie in"):
            ImageBatch(imgs)
    with pytest.raises(ValueError):
        ImageBatch(np.zeros((2, 256)), labels=np.zeros(3, dtype=int))
    b = ImageBatch(np.zeros((2, 256)))
    assert len(b) == 2 and b.labels is None


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n_modes=1)
    for sigma in (-0.1, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="noise sigma must be finite and >= 0"):
            SyntheticSpec(noise_sigma=sigma)
    for seed in (-1, 1.0, 2.5, True, "3"):
        with pytest.raises(ValueError, match="pattern seed must be an integer >= 0"):
            SyntheticSpec(pattern_seed=seed)
    SyntheticSpec(noise_sigma=0.0, pattern_seed=7)
    with pytest.raises(ValueError):
        SyntheticSpec(per_mode=0)


def test_synthetic_spec_rejects_more_modes_than_templates():
    SyntheticSpec(n_modes=8, per_mode=1)
    with pytest.raises(ValueError, match="at most 8 modes"):
        SyntheticSpec(n_modes=9, per_mode=1)


def test_synth_modes_sigma_zero_equals_templates():
    spec = SyntheticSpec(n_modes=3, pattern_seed=1, noise_sigma=0.0, per_mode=4)
    batch = synth_modes(spec, seed=0)
    templates = mode_templates(spec)
    assert len(batch) == 12
    for img, label in zip(batch.images, batch.labels):
        assert np.array_equal(img, templates[label])


def test_synth_modes_deterministic_and_classifiable():
    spec = SyntheticSpec(n_modes=2, pattern_seed=0, noise_sigma=0.05, per_mode=100)
    a = synth_modes(spec, seed=3)
    b = synth_modes(spec, seed=3)
    assert np.array_equal(a.images, b.images)
    templates = mode_templates(spec)
    hits = sum(1 for img, lab in zip(a.images, a.labels)
               if nearest_mode(img, templates)[0] == lab)
    assert hits == 200


def test_synth_modes_mean_converges_to_template():
    # sigma small enough that the [0,1] clamp never bites (5 sigma inside)
    sigma, n = 0.01, 10_000
    spec = SyntheticSpec(n_modes=2, pattern_seed=2, noise_sigma=sigma, per_mode=n)
    batch = synth_modes(spec, seed=4)
    templates = mode_templates(spec)
    se = sigma / np.sqrt(n)
    for mode in range(2):
        sel = batch.images[batch.labels == mode]
        dev = np.abs(sel.mean(axis=0) - templates[mode])
        # per-pixel 3-standard-error coverage, plus a hard 5 SE ceiling
        assert np.mean(dev <= 3 * se) > 0.99
        assert np.max(dev) < 5 * se


def test_mode_templates_distinct_and_seeded():
    spec8 = SyntheticSpec(n_modes=8, pattern_seed=0, per_mode=1)
    t8 = mode_templates(spec8)
    for i in range(8):
        for j in range(i + 1, 8):
            cos = t8[i] @ t8[j] / (np.linalg.norm(t8[i]) * np.linalg.norm(t8[j]))
            assert cos < 0.75
    other = mode_templates(SyntheticSpec(n_modes=8, pattern_seed=5, per_mode=1))
    assert not np.array_equal(t8, other)
    with pytest.raises(ValueError):
        mode_templates(SyntheticSpec(n_modes=9, per_mode=1))
