import numpy as np
import pytest

from netrecon.augment import (
    AugmentationSpec,
    biased_noise,
    build,
    grid_bands,
    grid_composition,
    grid_composition_biased_noise,
    hv_flips,
    identity,
    random_rotations,
    rotate_image,
    uniform_noise,
)
from netrecon.data import ImageDataset, make_synthetic_classification, standardize


@pytest.fixture(scope="module")
def ds():
    raw = make_synthetic_classification(60, height=7, width=7, seed=5)
    out, _, _ = standardize(raw)
    return out


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AugmentationSpec(kind="mixup")

    def test_noise_magnitude_positive(self):
        with pytest.raises(ValueError):
            AugmentationSpec(kind="biased_noise", magnitude=0.0)

    def test_uniform_bounds_ordered(self):
        with pytest.raises(ValueError):
            AugmentationSpec(kind="uniform_noise", lo=1.0, hi=-1.0, copies=2)

    @pytest.mark.parametrize("params,needle", [
        (dict(kind="biased_noise", magnitude=np.inf), "finite magnitude"),
        (dict(kind="grid_biased_noise", grid_x=2, grid_y=2, count=3, magnitude=np.inf),
         "finite magnitude"),
        (dict(kind="uniform_noise", lo=-1.0, hi=np.inf, copies=1), "finite hi - lo"),
        (dict(kind="uniform_noise", lo=-np.inf, hi=1.0, copies=1), "finite hi - lo"),
        # both bounds finite, but rng.uniform overflows on their span
        (dict(kind="uniform_noise", lo=-1e308, hi=1e308, copies=1), "finite hi - lo"),
    ])
    def test_noise_bounds_finite(self, params, needle):
        with pytest.raises(ValueError, match=needle):
            AugmentationSpec(**params)

    def test_grid_dims(self):
        with pytest.raises(ValueError):
            AugmentationSpec(kind="grid", grid_x=0, grid_y=3, count=5)

    def test_parameter_the_kind_does_not_use(self):
        # the spec would otherwise describe itself with copies=5 while the
        # strategy it builds ignores them
        with pytest.raises(ValueError, match="copies"):
            AugmentationSpec(kind="biased_noise", magnitude=1.0, copies=5, seed=1)
        with pytest.raises(ValueError, match="magnitude"):
            AugmentationSpec(kind="identity", magnitude=1.0)

    def test_describe_is_stable(self):
        spec = AugmentationSpec(kind="biased_noise", magnitude=1.0, seed=7)
        assert spec.describe() == "biased_noise(magnitude=1.0 seed=7)"
        assert "," not in spec.describe()  # it lands in single CSV fields


class TestIdentity:
    def test_inputs_unchanged(self, ds):
        out = identity(ds)
        assert out.Q == ds.n_samples
        assert np.array_equal(out.inputs, ds.images)

    def test_single_image(self):
        one = ImageDataset(images=[[1.0, 2.0]], labels=[0], height=1, width=2)
        assert identity(one).Q == 1


class TestRotations:
    def test_cardinality(self, ds):
        out = random_rotations(ds, copies=2, seed=0)
        assert out.Q == 3 * ds.n_samples

    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(7, 7))
        assert np.max(np.abs(rotate_image(img, 0.0, fill=0.0) - img)) < 1e-9

    def test_center_pixel_fixed(self):
        img = np.zeros((7, 7))
        img[3, 3] = 2.5
        for angle in (13.0, 90.0, 217.3):
            rotated = rotate_image(img, angle, fill=0.0)
            assert rotated[3, 3] == pytest.approx(2.5, abs=1e-6)

    def test_fill_value_used(self):
        img = np.ones((5, 5))
        rotated = rotate_image(img, 45.0, fill=-3.0)
        assert rotated[0, 0] == -3.0  # corner leaves the frame under 45 degrees

    def test_default_fill_is_standardized_background(self, ds):
        # rotating an all-background image by 45 deg must stay all-background
        background = (0.0 - ds.mean) / ds.std
        flat = ImageDataset(
            images=np.full((1, 49), background), labels=[0], height=7, width=7,
            mean=ds.mean, std=ds.std,
        )
        out = random_rotations(flat, copies=1, seed=1)
        assert np.max(np.abs(out.inputs[1] - background)) < 1e-9

    def test_originals_kept(self, ds):
        out = random_rotations(ds, copies=1, seed=3)
        assert np.array_equal(out.inputs[: ds.n_samples], ds.images)


class TestFlips:
    def test_cardinality(self, ds):
        assert hv_flips(ds).Q == 3 * ds.n_samples

    def test_symmetric_image_fixed(self):
        img = np.zeros((3, 3))
        img[:, 1] = 1.0  # symmetric under horizontal flip
        one = ImageDataset(images=img.reshape(1, 9), labels=[0], height=3, width=3)
        out = hv_flips(one)
        assert np.array_equal(out.inputs[1], out.inputs[0])

    def test_involution(self, ds):
        once = hv_flips(ds)
        n = ds.n_samples
        horizontal = ImageDataset(images=once.inputs[n:2 * n], labels=ds.labels,
                                  height=ds.height, width=ds.width)
        twice = hv_flips(horizontal)
        assert np.array_equal(twice.inputs[n:2 * n], ds.images)


class TestUniformNoise:
    def test_cardinality(self, ds):
        assert uniform_noise(ds, -1.0, 1.0, copies=2, seed=0).Q == 3 * ds.n_samples

    def test_vanishing_noise(self, ds):
        out = uniform_noise(ds, -1e-12, 1e-12, copies=1, seed=0)
        assert np.max(np.abs(out.inputs[ds.n_samples:] - ds.images)) < 1e-11

    def test_support(self, ds):
        out = uniform_noise(ds, -0.25, 0.5, copies=2, seed=1)
        delta = out.inputs[ds.n_samples:] - np.vstack([ds.images, ds.images])
        assert delta.min() >= -0.25 and delta.max() <= 0.5

    def test_monte_carlo_mean(self):
        # oracle: U[-1, 1] has zero mean; 1e5 draws keep |mean| under 0.02
        flat = ImageDataset(images=np.zeros((100, 1000)), labels=np.zeros(100),
                            height=100, width=10)
        out = uniform_noise(flat, -1.0, 1.0, copies=1, seed=2)
        assert abs(out.inputs[100:].mean()) < 0.02


class TestBiasedNoise:
    def test_cardinality(self, ds):
        assert biased_noise(ds, 1.0, seed=0).Q == 3 * ds.n_samples

    def test_magnitude_variants_constructible(self, ds):
        for u in (0.5, 2.0):
            assert biased_noise(ds, u, seed=0).Q == 3 * ds.n_samples

    def test_block_signs(self, ds):
        u = 0.7
        out = biased_noise(ds, u, seed=3)
        n = ds.n_samples
        positive = out.inputs[n:2 * n] - ds.images
        negative = out.inputs[2 * n:] - ds.images
        assert positive.min() >= 0.0 and positive.max() <= u
        assert negative.max() <= 0.0 and negative.min() >= -u

    def test_vanishing_magnitude(self, ds):
        out = biased_noise(ds, 1e-12, seed=4)
        n = ds.n_samples
        assert np.max(np.abs(out.inputs[n:2 * n] - ds.images)) < 1e-11
        assert np.max(np.abs(out.inputs[2 * n:] - ds.images)) < 1e-11


class TestGridComposition:
    def test_bands_28_over_3(self):
        assert grid_bands(28, 3) == [10, 9, 9]

    def test_bands_sum_and_balance(self):
        for length in (5, 7, 28):
            for k in (1, 2, 3, 5):
                bands = grid_bands(length, k)
                assert sum(bands) == length
                assert max(bands) - min(bands) <= 1

    def test_cardinality_and_sources(self, ds):
        out = grid_composition(ds, grid_x=3, grid_y=3, count=17, seed=0)
        assert out.Q == 17
        assert out.source_indices.shape == (17, 9)

    def test_single_cell_grid_copies_bases(self, ds):
        out = grid_composition(ds, grid_x=1, grid_y=1, count=25, seed=1)
        for row, (src,) in zip(out.inputs, out.source_indices):
            assert np.array_equal(row, ds.images[src])

    def test_pixels_match_recorded_sources(self, ds):
        out = grid_composition(ds, grid_x=3, grid_y=2, count=10, seed=2)
        bands_y = grid_bands(ds.height, 2)
        bands_x = grid_bands(ds.width, 3)
        stacked = ds.images.reshape(-1, ds.height, ds.width)
        made = out.inputs.reshape(-1, ds.height, ds.width)
        for row in range(10):
            y0 = 0
            for iy, by in enumerate(bands_y):
                x0 = 0
                for ix, bx in enumerate(bands_x):
                    src = out.source_indices[row, iy * 3 + ix]
                    patch = made[row, y0:y0 + by, x0:x0 + bx]
                    assert np.array_equal(patch, stacked[src, y0:y0 + by, x0:x0 + bx])
                    x0 += bx
                y0 += by

    def test_two_bases_reach_512_compositions(self):
        # oracle: enumeration; with 2 distinct bases a 3x3 grid has 2^9 outcomes
        base = ImageDataset(
            images=np.vstack([np.zeros(81), np.ones(81)]), labels=[0, 1],
            height=9, width=9,
        )
        out = grid_composition(base, grid_x=3, grid_y=3, count=20000, seed=3)
        distinct = {row.tobytes() for row in out.inputs}
        assert len(distinct) == 512


class TestGridBiasedNoise:
    def test_cardinality(self, ds):
        out = grid_composition_biased_noise(ds, 3, 3, count=12, u=1.0, seed=0)
        assert out.Q == 36

    def test_blocks_share_base_grids(self, ds):
        u = 0.9
        out = grid_composition_biased_noise(ds, 3, 3, count=15, u=u, seed=1)
        base, pos, neg = out.inputs[:15], out.inputs[15:30], out.inputs[30:]
        assert ((pos - base) >= 0).all() and ((pos - base) <= u).all()
        assert ((neg - base) <= 0).all() and ((neg - base) >= -u).all()
        assert np.array_equal(out.source_indices[:15], out.source_indices[15:30])

    def test_vanishing_magnitude(self, ds):
        out = grid_composition_biased_noise(ds, 3, 3, count=9, u=1e-12, seed=2)
        assert np.max(np.abs(out.inputs[9:18] - out.inputs[:9])) < 1e-11
        assert np.max(np.abs(out.inputs[18:] - out.inputs[:9])) < 1e-11


class TestDeterminismAndDispatch:
    @pytest.mark.parametrize("spec", [
        AugmentationSpec(kind="identity"),
        AugmentationSpec(kind="random_rotations", copies=1, seed=9),
        AugmentationSpec(kind="hv_flips"),
        AugmentationSpec(kind="uniform_noise", lo=-1.0, hi=1.0, copies=2, seed=9),
        AugmentationSpec(kind="biased_noise", magnitude=1.0, seed=9),
        AugmentationSpec(kind="grid", grid_x=3, grid_y=3, count=11, seed=9),
        AugmentationSpec(kind="grid_biased_noise", grid_x=2, grid_y=2, count=7,
                         magnitude=0.5, seed=9),
    ])
    def test_same_spec_same_output(self, ds, spec):
        a = build(spec, ds)
        b = build(spec, ds)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.source_indices, b.source_indices)
        assert a.spec == spec
