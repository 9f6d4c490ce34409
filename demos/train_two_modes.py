"""Train the hybrid denoiser on a tiny two-mode dataset, then sample.

Equivalent CLI pipeline:
    qdiff train --out run --max-steps 60
    qdiff sample --out run --checkpoint run/checkpoint.qdc --n-trajectories 4

Runs in well under a minute on one core.
"""

import numpy as np

from qdiff import model
from qdiff.bench import frechet_gaussian
from qdiff.data import SyntheticSpec, mode_templates, nearest_mode, synth_modes


def ascii_image(img, width=16):
    shades = " .:-=+*#%@"
    rows = []
    for r in range(width):
        row = img[r * width:(r + 1) * width]
        idx = np.clip((row * (len(shades) - 1)).round().astype(int), 0, len(shades) - 1)
        rows.append("".join(shades[i] for i in idx))
    return "\n".join(rows)


def main():
    spec = SyntheticSpec(n_modes=2, pattern_seed=0, noise_sigma=0.05, per_mode=50)
    batch = synth_modes(spec, seed=1)
    templates = mode_templates(spec)
    print(f"dataset: {len(batch)} images, 2 modes")
    print("\nmode 0 template:")
    print(ascii_image(templates[0]))

    m = model.init_model(0)
    config = model.TrainConfig(max_steps=60, batch_size=8, lr=1e-3, seed=0)
    print("\ntraining 60 steps...")
    log, _, _ = model.train(m, config, batch.images)
    losses = [row[1] for row in log]
    for i in range(0, 60, 10):
        chunk = losses[i:i + 10]
        print(f"  steps {i:>2d}-{i + 9:<2d} mean loss {np.mean(chunk):.4f}")

    print("\nsampling 4 trajectories...")
    finals = model.sample_block(m, [500 + j for j in range(4)])[:, -1]
    for j, final in enumerate(finals):
        mode, cos = nearest_mode(final, templates)
        print(f"  trajectory {j}: nearest mode {mode}, cosine {cos:.3f}")

    print("\nfirst generated image:")
    print(ascii_image(np.clip(finals[0], 0, 1)))

    noise = np.random.default_rng(9).standard_normal(finals.shape)
    d_gen = frechet_gaussian(finals, batch.images)
    d_noise = frechet_gaussian(noise, batch.images)
    print(f"\nproxy Frechet distance to the data: generated {d_gen:.1f}, "
          f"pure noise {d_noise:.1f}")


if __name__ == "__main__":
    main()
