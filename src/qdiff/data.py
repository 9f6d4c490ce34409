"""Dataset handling: IDX ingestion, 28->16 downsampling, synthetic modes.

The synthetic dataset exists so the full training loop can run in seconds:
a handful of well-separated 16x16 block/stripe templates plus Gaussian
pixel noise, with labels for nearest-template checks.
"""
from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass

import numpy as np

from .qcore import _check_int

IDX_TYPE_UBYTE = 0x08

HIGH, LOW = 0.95, 0.05


@dataclass(frozen=True)
class ImageBatch:
    images: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        imgs = np.asarray(self.images, dtype=float)
        if imgs.ndim != 2 or imgs.shape[1] != 256:
            raise ValueError(f"images must be (n, 256), got {imgs.shape}")
        if not np.all((imgs >= 0) & (imgs <= 1)):  # NaN fails both comparisons
            raise ValueError("pixel values must lie in [0, 1]")
        object.__setattr__(self, "images", imgs)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=int)
            if labels.shape != (imgs.shape[0],):
                raise ValueError("labels must match the number of images")
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.images.shape[0]


@dataclass(frozen=True)
class SyntheticSpec:
    n_modes: int = 2
    pattern_seed: int = 0
    noise_sigma: float = 0.05
    per_mode: int = 50

    def __post_init__(self):
        _check_int("n_modes", self.n_modes, 2)
        if self.n_modes > len(_template_family()):
            raise ValueError(f"at most {len(_template_family())} modes supported")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise sigma must be finite and >= 0, got {self.noise_sigma!r}")
        _check_int("pattern seed", self.pattern_seed, 0)
        _check_int("per_mode", self.per_mode, 1)


def parse_idx(stream: bytes) -> np.ndarray:
    """Decode an IDX byte stream into a uint8 tensor.

    Layout: two zero bytes, a type byte (only 0x08 unsigned-byte payloads
    are supported), a dimension-count byte, big-endian uint32 sizes, then
    the payload. Trailing or missing bytes are rejected.
    """
    if len(stream) < 4:
        raise ValueError("stream too short for an IDX header")
    if stream[0] != 0 or stream[1] != 0:
        raise ValueError("bad IDX magic (first two bytes must be zero)")
    if stream[2] != IDX_TYPE_UBYTE:
        raise ValueError(f"unsupported IDX type byte 0x{stream[2]:02x}")
    ndims = stream[3]
    if ndims < 1:
        raise ValueError("IDX needs at least one dimension")
    header_len = 4 + 4 * ndims
    if len(stream) < header_len:
        raise ValueError("truncated IDX dimension table")
    dims = struct.unpack(f">{ndims}I", stream[4:header_len])
    count = math.prod(dims)  # exact: np.prod wraps at 2^63
    if len(stream) - header_len < count:
        raise ValueError(f"truncated IDX payload: need {count} bytes, have {len(stream) - header_len}")
    if len(stream) - header_len > count:
        raise ValueError("IDX stream has trailing bytes")
    data = np.frombuffer(stream, dtype=np.uint8, count=count, offset=header_len)
    return data.reshape(dims).copy()


def load_idx(path) -> np.ndarray:
    """Read an IDX file, transparently handling gzip compression."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return parse_idx(raw)


def downsample(img28) -> np.ndarray:
    """Bilinear 28x28 -> 16x16 resample flattened to 256, scaled to [0, 1].

    Inputs with a maximum above 1 are treated as byte-range and divided by
    255 after resampling.
    """
    img28 = np.asarray(img28, dtype=float).ravel()
    if img28.size != 784:
        raise ValueError(f"expected 784 pixels, got {img28.size}")
    src = img28.reshape(28, 28)
    coords = (np.arange(16) + 0.5) * (28.0 / 16.0) - 0.5
    lo = np.floor(coords).astype(int)
    frac = coords - lo
    lo0 = np.clip(lo, 0, 27)
    lo1 = np.clip(lo + 1, 0, 27)
    rows = src[lo0][:, :] * (1 - frac)[:, None] + src[lo1][:, :] * frac[:, None]
    out = rows[:, lo0] * (1 - frac)[None, :] + rows[:, lo1] * frac[None, :]
    if out.max() > 1.0:
        out = out / 255.0
    return np.clip(out, 0.0, 1.0).ravel()


def _template_family() -> list:
    """Eight fixed, well-separated 16x16 layouts with values HIGH/LOW."""
    t = []
    base = np.full((16, 16), LOW)

    def make(fn):
        img = base.copy()
        fn(img)
        t.append(img.ravel())

    make(lambda m: m.__setitem__((slice(None), slice(0, 8)), HIGH))        # left half
    make(lambda m: m.__setitem__((slice(0, 8), slice(None)), HIGH))        # top half
    make(lambda m: m.__setitem__((slice(None), slice(None, None, 2)), HIGH))  # vertical stripes
    make(lambda m: m.__setitem__((slice(None, None, 2), slice(None)), HIGH))  # horizontal stripes
    make(lambda m: m.__setitem__((slice(4, 12), slice(4, 12)), HIGH))      # center block

    def quads(m):
        m[0:8, 0:8] = HIGH
        m[8:16, 8:16] = HIGH

    make(quads)

    def frame(m):
        m[0:2, :] = HIGH
        m[14:16, :] = HIGH
        m[:, 0:2] = HIGH
        m[:, 14:16] = HIGH

    make(frame)

    def checker(m):
        for i in range(0, 16, 4):
            for j in range(0, 16, 4):
                if (i // 4 + j // 4) % 2 == 0:
                    m[i:i + 4, j:j + 4] = HIGH

    make(checker)
    return t


def mode_templates(spec: SyntheticSpec) -> np.ndarray:
    """Templates for a SyntheticSpec: a seeded pick from the fixed family."""
    family = _template_family()
    order = np.random.default_rng(spec.pattern_seed).permutation(len(family))
    return np.stack([family[i] for i in order[: spec.n_modes]])


def synth_modes(spec: SyntheticSpec, seed: int) -> ImageBatch:
    """Template + clamped Gaussian pixel noise, per_mode samples per mode."""
    templates = mode_templates(spec)
    rng = np.random.default_rng(seed)
    images, labels = [], []
    for mode in range(spec.n_modes):
        for _ in range(spec.per_mode):
            img = templates[mode] + rng.normal(0.0, spec.noise_sigma, 256)
            images.append(np.clip(img, 0.0, 1.0))
            labels.append(mode)
    return ImageBatch(np.stack(images), np.array(labels))


def nearest_mode(img, templates) -> tuple:
    """(best mode index, cosine similarity to it) for a flat image."""
    img = np.asarray(img, dtype=float).ravel()
    sims = []
    for tpl in templates:
        denom = np.linalg.norm(img) * np.linalg.norm(tpl)
        sims.append(float(img @ tpl / denom) if denom > 0 else 0.0)
    best = int(np.argmax(sims))
    return best, sims[best]
