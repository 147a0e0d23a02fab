"""Pyramid encoder: shape law, weight sharing, branch asymmetry, validation."""

import numpy as np
import pytest

from srrnet import nn
from srrnet import tensor as T
from srrnet.backbone import FrameTriplet, RMABackbone
from srrnet.model import ReferenceSlot, SRRNet, build_model, preset_config
from srrnet.tensor import ConfigurationError, ShapeMismatchError, Tensor


def make_triplet(rng, size=64, batch=1):
    return FrameTriplet(
        Tensor(rng.uniform(-1, 1, size=(batch, 3, size, size))),
        Tensor(rng.uniform(-1, 1, size=(batch, 4, size, size))),
        Tensor(rng.uniform(-1, 1, size=(batch, 4, size, size))),
    )


@pytest.mark.parametrize("size", [32, 64, 96])
def test_stage_extents_halve_from_quarter_resolution(desk_model, rng, size):
    features = desk_model.backbone(make_triplet(rng, size=size))
    channels = [8, 16, 24, 32]
    for i in range(4):
        # stage numbering is 1-based: stage i has extent H / 2^(i+1)
        expected = size // 2 ** (i + 2)
        for branch in (features.c, features.p, features.r):
            assert branch[i].shape == (1, channels[i], expected, expected)


def test_p_and_r_branches_share_weights(rng):
    # In self-only mode the branch stacks are independent, so swapping the P
    # and R inputs must swap the outputs exactly iff the weights are shared.
    model = build_model("desk", attention_mode="self_only", seed=0)
    trip = make_triplet(rng, size=32)
    swapped = FrameTriplet(trip.c_img, trip.r_in, trip.p_in)
    a = model.backbone(trip)
    b = model.backbone(swapped)
    for i in range(4):
        np.testing.assert_array_equal(a.p[i].data, b.r[i].data)
        np.testing.assert_array_equal(a.r[i].data, b.p[i].data)
        np.testing.assert_array_equal(a.c[i].data, b.c[i].data)


def test_backbone_asymmetry_closure(desk_model, rng):
    base = make_triplet(rng, size=32)
    feats0 = desk_model.backbone(base)

    poked_c = FrameTriplet(Tensor(base.c_img.data + rng.normal(size=base.c_img.shape)),
                           base.p_in, base.r_in)
    feats1 = desk_model.backbone(poked_c)
    for i in range(4):
        np.testing.assert_array_equal(feats0.r[i].data, feats1.r[i].data)
        np.testing.assert_array_equal(feats0.p[i].data, feats1.p[i].data)
        assert not np.array_equal(feats0.c[i].data, feats1.c[i].data)

    poked_p = FrameTriplet(base.c_img,
                           Tensor(base.p_in.data + rng.normal(size=base.p_in.shape)),
                           base.r_in)
    feats2 = desk_model.backbone(poked_p)
    for i in range(4):
        np.testing.assert_array_equal(feats0.r[i].data, feats2.r[i].data)
        assert not np.array_equal(feats0.p[i].data, feats2.p[i].data)
        assert not np.array_equal(feats0.c[i].data, feats2.c[i].data)


def test_reference_perturbation_reaches_every_branch(desk_model, rng):
    base = make_triplet(rng, size=32)
    feats0 = desk_model.backbone(base)
    poked_r = FrameTriplet(base.c_img, base.p_in,
                           Tensor(base.r_in.data + rng.normal(size=base.r_in.shape)))
    feats1 = desk_model.backbone(poked_r)
    for i in range(4):
        assert not np.array_equal(feats0.r[i].data, feats1.r[i].data)
        assert not np.array_equal(feats0.p[i].data, feats1.p[i].data)
        assert not np.array_equal(feats0.c[i].data, feats1.c[i].data)


def test_forward_is_deterministic(rng):
    a = build_model("desk", seed=3)
    b = build_model("desk", seed=3)
    trip = make_triplet(rng, size=32)
    fa, fb = a.backbone(trip), b.backbone(trip)
    for i in range(4):
        np.testing.assert_array_equal(fa.c[i].data, fb.c[i].data)


def test_frame_triplet_validation(rng):
    good = rng.normal(size=(1, 3, 64, 64))
    mask4 = rng.normal(size=(1, 4, 64, 64))
    with pytest.raises(ShapeMismatchError):
        FrameTriplet(Tensor(mask4), Tensor(mask4), Tensor(mask4))
    with pytest.raises(ShapeMismatchError):
        FrameTriplet(Tensor(good), Tensor(mask4),
                     Tensor(rng.normal(size=(1, 4, 32, 32))))
    with pytest.raises(ConfigurationError):
        FrameTriplet(Tensor(rng.normal(size=(1, 3, 48, 48))),
                     Tensor(rng.normal(size=(1, 4, 48, 48))),
                     Tensor(rng.normal(size=(1, 4, 48, 48))))
    for h, w, side in ((0, 0, "height"), (64, 0, "width")):
        with pytest.raises(ConfigurationError,
                           match=f"input {side} must be a positive multiple of 32, got 0"):
            FrameTriplet(Tensor(np.zeros((1, 3, h, w))), Tensor(np.zeros((1, 4, h, w))),
                         Tensor(np.zeros((1, 4, h, w))))


def test_backbone_config_validation(rng):
    stages = preset_config("desk").stages
    gen = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        RMABackbone(stages[:3], gen)
    shrinking = preset_config("desk").stages
    shrinking[3].channels = 4
    shrinking[3].attention.head_dim = 1
    with pytest.raises(ConfigurationError, match="nondecreasing"):
        RMABackbone(shrinking, gen)
    with pytest.raises(ConfigurationError, match="mode"):
        RMABackbone(preset_config("desk").stages, gen, attention_mode="bogus")


def test_desk_parameter_count_is_frozen(desk_model):
    from srrnet.nn import count_parameters
    assert count_parameters(desk_model) == 129_693


def _record_weight_reads(monkeypatch) -> dict:
    """Wraps every ``matmul``/``conv2d`` binding: the batch of each call, by weight id."""
    reads = {}
    matmul, conv2d = T.matmul, T.conv2d

    def counted_matmul(a, b):
        reads.setdefault(id(b), []).append(a.shape[0])
        return matmul(a, b)

    def counted_conv2d(x, w, b, stride=1, padding=0):
        reads.setdefault(id(w), []).append(x.shape[0])
        return conv2d(x, w, b, stride=stride, padding=padding)

    for module in (T, nn):
        monkeypatch.setattr(module, "matmul", counted_matmul)
        monkeypatch.setattr(module, "conv2d", counted_conv2d)
    return reads


def test_shared_weights_are_read_once_for_p_and_r(monkeypatch, rng):
    """A slot miss runs P and R as one batch of 2; a slot hit runs P alone."""
    config = preset_config("desk")
    for stage, sr_ratio in zip(config.stages, (8, 4, 2, 1)):  # the full preset's SR convs
        stage.attention.sr_ratio = sr_ratio
        stage.depth = 2
    model = SRRNet(config, np.random.default_rng(0))
    triplet = make_triplet(rng, size=64)
    slot = ReferenceSlot()
    reads = _record_weight_reads(monkeypatch)
    for pr_batch in (2, 1):  # the first call fills the slot, the second reuses it
        reads.clear()
        with T.no_grad():
            model(FrameTriplet(triplet.c_img, triplet.p_in, triplet.r_in, reference=slot))
        for stage in model.backbone.stages:
            assert reads[id(stage.embed_c.conv.weight)] == [1]
            assert reads[id(stage.embed_pr.conv.weight)] == [pr_batch]
            for block in stage.blocks:
                for weights, batch in ((block.cur, 1), (block.ref, pr_batch)):
                    # q/k/v run in the self and the cross stage, the rest once
                    for name in ("q", "k", "v"):
                        assert reads[id(getattr(weights, name).weight)] == [batch] * 2, name
                    for lin in (weights.proj, weights.proj_cross, weights.mlp.fc1,
                                weights.mlp.fc2):
                        assert reads[id(lin.weight)] == [batch]
                    if hasattr(weights, "sr"):
                        assert reads[id(weights.sr.weight)] == [batch] * 2
    assert [hasattr(stage.blocks[0].ref, "sr") for stage in model.backbone.stages] == \
        [True, True, True, False]


def test_p_and_r_are_stacked_once_per_forward(monkeypatch, desk_model, rng):
    """A slot miss or a grad-on forward stacks P and R on the batch axis once; a slot hit never."""
    stackings = []
    concat = T.concat

    def counted_concat(tensors, axis):
        tensors = list(tensors)
        if axis == 0 and all(t.ndim == 4 for t in tensors):  # maps; the cross stage stacks tokens
            stackings.append(len(tensors))
        return concat(tensors, axis)

    monkeypatch.setattr(T, "concat", counted_concat)
    triplet = make_triplet(rng)
    slot = ReferenceSlot()
    for expected in ([2], []):  # the first call fills the slot, the second reuses it
        stackings.clear()
        with T.no_grad():
            desk_model(FrameTriplet(triplet.c_img, triplet.p_in, triplet.r_in, reference=slot))
        assert stackings == expected
    stackings.clear()
    desk_model(triplet)  # the tape on: the joint route
    assert stackings == [2]


def test_backbone_neither_reads_nor_writes_the_slot(desk_model, rng):
    """Only ``SRRNet.__call__`` touches the slot: the backbone is a function of its arguments."""
    first, second = make_triplet(rng), make_triplet(rng)
    slot = ReferenceSlot()
    with T.no_grad():
        desk_model(FrameTriplet(first.c_img, first.p_in, first.r_in, reference=slot))
    fields = dict(vars(slot))
    assert slot.reference is not None and slot.collapse is not None
    with T.no_grad():  # a slot filled from another reference input: reading it would show
        slotted = desk_model.backbone(FrameTriplet(second.c_img, second.p_in, second.r_in,
                                                   reference=slot))
        plain = desk_model.backbone(second)
    for branch in ("c", "p", "r"):
        for got, expected in zip(getattr(slotted, branch), getattr(plain, branch)):
            np.testing.assert_array_equal(got.data, expected.data)
    assert all(getattr(slot, name) is value for name, value in fields.items())
