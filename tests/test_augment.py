import hashlib
from dataclasses import replace

import numpy as np
import pytest

from netrecon.augment import PARAMS, AugmentationSpec, build, grid_bands, rotate_image
from netrecon.data import ImageDataset, make_synthetic_classification, standardize


def make(ds, kind, **params):
    """The query inputs `build` makes from `ds` for one spec."""
    return build(AugmentationSpec(kind=kind, **params), ds)


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

    @pytest.mark.parametrize("kind", ["identity", "biased_noise"])
    def test_negative_seed(self, kind):
        # default_rng would reject it only inside build; the spec does for every kind
        params = dict(magnitude=1.0) if kind == "biased_noise" else {}
        with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
            AugmentationSpec(kind=kind, seed=-5, **params)

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
        out = make(ds, "identity")
        assert out.Q == ds.n_samples
        assert np.array_equal(out.inputs, ds.images)

    def test_single_image(self):
        one = ImageDataset(images=[[1.0, 2.0]], labels=[0], height=1, width=2)
        assert make(one, "identity").Q == 1


class TestRotations:
    def test_cardinality(self, ds):
        out = make(ds, "random_rotations", copies=2, seed=0)
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
        out = make(flat, "random_rotations", copies=1, seed=1)
        assert np.max(np.abs(out.inputs[1] - background)) < 1e-9

    def test_originals_kept(self, ds):
        out = make(ds, "random_rotations", copies=1, seed=3)
        assert np.array_equal(out.inputs[: ds.n_samples], ds.images)


class TestFlips:
    def test_cardinality(self, ds):
        assert make(ds, "hv_flips").Q == 3 * ds.n_samples

    def test_symmetric_image_fixed(self):
        img = np.zeros((3, 3))
        img[:, 1] = 1.0  # symmetric under horizontal flip
        one = ImageDataset(images=img.reshape(1, 9), labels=[0], height=3, width=3)
        out = make(one, "hv_flips")
        assert np.array_equal(out.inputs[1], out.inputs[0])

    def test_involution(self, ds):
        once = make(ds, "hv_flips")
        n = ds.n_samples
        horizontal = ImageDataset(images=once.inputs[n:2 * n], labels=ds.labels,
                                  height=ds.height, width=ds.width)
        twice = make(horizontal, "hv_flips")
        assert np.array_equal(twice.inputs[n:2 * n], ds.images)


class TestUniformNoise:
    def test_cardinality(self, ds):
        out = make(ds, "uniform_noise", lo=-1.0, hi=1.0, copies=2, seed=0)
        assert out.Q == 3 * ds.n_samples

    def test_vanishing_noise(self, ds):
        out = make(ds, "uniform_noise", lo=-1e-12, hi=1e-12, copies=1, seed=0)
        assert np.max(np.abs(out.inputs[ds.n_samples:] - ds.images)) < 1e-11

    def test_support(self, ds):
        out = make(ds, "uniform_noise", lo=-0.25, hi=0.5, copies=2, seed=1)
        delta = out.inputs[ds.n_samples:] - np.vstack([ds.images, ds.images])
        assert delta.min() >= -0.25 and delta.max() <= 0.5

    def test_monte_carlo_mean(self):
        # oracle: U[-1, 1] has zero mean; 1e5 draws keep |mean| under 0.02
        flat = ImageDataset(images=np.zeros((100, 1000)), labels=np.zeros(100),
                            height=100, width=10)
        out = make(flat, "uniform_noise", lo=-1.0, hi=1.0, copies=1, seed=2)
        assert abs(out.inputs[100:].mean()) < 0.02


class TestBiasedNoise:
    def test_cardinality(self, ds):
        assert make(ds, "biased_noise", magnitude=1.0, seed=0).Q == 3 * ds.n_samples

    def test_magnitude_variants_constructible(self, ds):
        for u in (0.5, 2.0):
            assert make(ds, "biased_noise", magnitude=u, seed=0).Q == 3 * ds.n_samples

    def test_block_signs(self, ds):
        u = 0.7
        out = make(ds, "biased_noise", magnitude=u, seed=3)
        n = ds.n_samples
        positive = out.inputs[n:2 * n] - ds.images
        negative = out.inputs[2 * n:] - ds.images
        assert positive.min() >= 0.0 and positive.max() <= u
        assert negative.max() <= 0.0 and negative.min() >= -u

    def test_vanishing_magnitude(self, ds):
        out = make(ds, "biased_noise", magnitude=1e-12, seed=4)
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
        out = make(ds, "grid", grid_x=3, grid_y=3, count=17, seed=0)
        assert out.Q == 17
        assert out.source_indices.shape == (17, 9)

    def test_single_cell_grid_copies_bases(self, ds):
        out = make(ds, "grid", grid_x=1, grid_y=1, count=25, seed=1)
        for row, (src,) in zip(out.inputs, out.source_indices):
            assert np.array_equal(row, ds.images[src])

    def test_pixels_match_recorded_sources(self, ds):
        out = make(ds, "grid", grid_x=3, grid_y=2, count=10, seed=2)
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
        out = make(base, "grid", grid_x=3, grid_y=3, count=20000, seed=3)
        distinct = {row.tobytes() for row in out.inputs}
        assert len(distinct) == 512


class TestGridBiasedNoise:
    def test_cardinality(self, ds):
        out = make(ds, "grid_biased_noise", grid_x=3, grid_y=3, count=12, magnitude=1.0,
                   seed=0)
        assert out.Q == 36

    def test_blocks_share_base_grids(self, ds):
        u = 0.9
        out = make(ds, "grid_biased_noise", grid_x=3, grid_y=3, count=15, magnitude=u,
                   seed=1)
        base, pos, neg = out.inputs[:15], out.inputs[15:30], out.inputs[30:]
        assert ((pos - base) >= 0).all() and ((pos - base) <= u).all()
        assert ((neg - base) <= 0).all() and ((neg - base) >= -u).all()
        assert np.array_equal(out.source_indices[:15], out.source_indices[15:30])

    def test_vanishing_magnitude(self, ds):
        out = make(ds, "grid_biased_noise", grid_x=3, grid_y=3, count=9, magnitude=1e-12,
                   seed=2)
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
        AugmentationSpec(kind="identity", seed=9),
        AugmentationSpec(kind="hv_flips", seed=9),
    ])
    def test_same_spec_same_output(self, ds, spec):
        a = build(spec, ds)
        b = build(spec, ds)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.source_indices, b.source_indices)
        assert a.spec is spec


# one spec per kind, with the sha256 of `inputs` (as <f8) and of `source_indices`
# (as <i8) that `build` gave on a raw and on a standardized 7x9 base before the
# seven strategies moved behind one table
GOLDEN = [
    (AugmentationSpec(kind="identity"), {
        "raw": ("2358539455ab8ed3a3138d396d28861c730f0bff295ced570c10e3236c3514a6",
                "700a4498438a801b5781533040bce85a20ae4bfe08866f7552ff33e172923b0a"),
        "standardized": ("fd86226c5d039375f516784bfdd551f5499e577d4656a3987facb2ad8330386c",
                         "700a4498438a801b5781533040bce85a20ae4bfe08866f7552ff33e172923b0a")}),
    (AugmentationSpec(kind="random_rotations", copies=2, seed=3), {
        "raw": ("81154857f099b27d78edf62ae8dd65298e458a315886f67f718a7c705d491c0c",
                "27d43e6d605681dc7c580f4aa2f4cbabe8df875f3c2daf76f9204685959ff21c"),
        "standardized": ("fb2db5d3921ca60f4d95ec7a463c0c754148030a8f2ff15a86f1208e02f520e4",
                         "27d43e6d605681dc7c580f4aa2f4cbabe8df875f3c2daf76f9204685959ff21c")}),
    (AugmentationSpec(kind="hv_flips"), {
        "raw": ("2bc1a898cf7bee0ed5235bccb1f9dd0a07f1cc22518071a41183dee348afe133",
                "27d43e6d605681dc7c580f4aa2f4cbabe8df875f3c2daf76f9204685959ff21c"),
        "standardized": ("84d6c6ece4564b5f6455d7a6692c1905065f21c2e9015f99357d8276cb74aa8b",
                         "27d43e6d605681dc7c580f4aa2f4cbabe8df875f3c2daf76f9204685959ff21c")}),
    (AugmentationSpec(kind="uniform_noise", lo=-0.5, hi=1.0, copies=2, seed=4), {
        "raw": ("64ced7bd9446287126f148f075eaccbd6bbb312fd4720aa009b3b4bb8a71b33c",
                "27d43e6d605681dc7c580f4aa2f4cbabe8df875f3c2daf76f9204685959ff21c"),
        "standardized": ("58e4f6714210811759c84fda4fa342c05e4d46c0fc4c1b1fdd8db6942ea42fa2",
                         "27d43e6d605681dc7c580f4aa2f4cbabe8df875f3c2daf76f9204685959ff21c")}),
    (AugmentationSpec(kind="biased_noise", magnitude=1.5, seed=5), {
        "raw": ("612b74a792065534d16f7a70de6e08dd4b27d1741b7e8cf7c33f6fbdd0b6f83c",
                "27d43e6d605681dc7c580f4aa2f4cbabe8df875f3c2daf76f9204685959ff21c"),
        "standardized": ("36bc0de1ac61b80f880d015d67d06e9aca16597bfc163d7d0b3b05bd795bd91a",
                         "27d43e6d605681dc7c580f4aa2f4cbabe8df875f3c2daf76f9204685959ff21c")}),
    (AugmentationSpec(kind="grid", grid_x=3, grid_y=2, count=17, seed=6), {
        "raw": ("95c2ea37af9898d75c36bdc0592ab7fe5db7700ca1ed16cc6bb101696187d7cf",
                "0dfa691a9dcb5d9e042c81ca2b2fe7af260815831740038aff1e279cfb742f26"),
        "standardized": ("ffe9dd973fefb8b8e51da42bd27c52e35f9ca8b9d23f442523a39b772e9029a7",
                         "0dfa691a9dcb5d9e042c81ca2b2fe7af260815831740038aff1e279cfb742f26")}),
    (AugmentationSpec(kind="grid_biased_noise", grid_x=3, grid_y=2, count=13,
                      magnitude=0.75, seed=7), {
        "raw": ("2000d51ed964c8a6c2e1039d8f6114cb3c523e60036daf22b395ae3a289a9200",
                "82a2c5d72e3c64302ec08f024625d6b97ba1673443b9b79760e2cd5e9e72fe19"),
        "standardized": ("2b6198e068689383e005b0b611041c55151376726f523a75cc0566370b120d37",
                         "82a2c5d72e3c64302ec08f024625d6b97ba1673443b9b79760e2cd5e9e72fe19")}),
]


def _bumped(field, value):
    """A different valid value for one spec field (lo moves down, the rest up)."""
    return value - 0.5 if field == "lo" else value * 2 if field == "magnitude" else value + 1


class TestOneBuildPath:
    @pytest.fixture(scope="class")
    def bases(self):
        raw = make_synthetic_classification(12, height=7, width=9, seed=8)
        return {"raw": raw, "standardized": standardize(raw)[0]}

    @pytest.mark.parametrize("spec,digests", GOLDEN, ids=[s.kind for s, _ in GOLDEN])
    def test_golden_hashes(self, bases, spec, digests):
        for name, base in bases.items():
            out = build(spec, base)
            assert (hashlib.sha256(out.inputs.astype("<f8").tobytes()).hexdigest(),
                    hashlib.sha256(out.source_indices.astype("<i8").tobytes()).hexdigest()) \
                == digests[name], name

    @pytest.mark.parametrize("spec", [s for s, _ in GOLDEN] + [
        AugmentationSpec(kind="identity", seed=7), AugmentationSpec(kind="hv_flips", seed=7)])
    def test_describe_names_exactly_the_fields_that_change_the_inputs(self, bases, spec):
        base = bases["standardized"]
        named = {part.split("=")[0] for part in spec.describe()[len(spec.kind) + 1:-1].split()}
        inputs = build(spec, base).inputs
        changing = {
            field for field in (*PARAMS, "seed") if getattr(spec, field) is not None
            and not np.array_equal(inputs, build(replace(
                spec, **{field: _bumped(field, getattr(spec, field))}), base).inputs)
        }
        assert named == changing
