"""Three-branch attention blocks against naive loop oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from srrnet import tensor as T
from srrnet.attention import (
    ATTENTION_MODES,
    AttentionConfig,
    BranchWeights,
    RMABlock,
    scaled_dot_attention,
    split_batch,
)
from srrnet.model import build_model
from srrnet.pipeline import infer_sequence
from srrnet.synth import SynthParams, generate_arrays
from srrnet.tensor import ConfigurationError, ShapeMismatchError, Tensor

from test_backbone import make_triplet


def _naive_attention(q, k, v, heads):
    """Double-loop multi-head attention oracle, no vectorized tricks."""
    batch, n_q, channels = q.shape
    n_k = k.shape[1]
    d = channels // heads
    out = np.zeros((batch, n_q, channels))
    for b in range(batch):
        for h in range(heads):
            qs = q[b, :, h * d:(h + 1) * d]
            ks = k[b, :, h * d:(h + 1) * d]
            vs = v[b, :, h * d:(h + 1) * d]
            for i in range(n_q):
                logits = np.array([qs[i] @ ks[j] / np.sqrt(d) for j in range(n_k)])
                weights = np.exp(logits - logits.max())
                weights /= weights.sum()
                out[b, i, h * d:(h + 1) * d] = weights @ vs
    return out


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_scaled_dot_attention_matches_naive_oracle(rng, heads):
    q = rng.normal(size=(2, 5, 8))
    k = rng.normal(size=(2, 7, 8))
    v = rng.normal(size=(2, 7, 8))
    got = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), heads).data
    np.testing.assert_allclose(got, _naive_attention(q, k, v, heads), atol=1e-12)


def test_attention_rows_are_convex_combinations(rng):
    # With identical value rows the output must reproduce that value exactly.
    q = rng.normal(size=(1, 4, 6))
    k = rng.normal(size=(1, 5, 6))
    v = np.broadcast_to(rng.normal(size=(1, 1, 6)), (1, 5, 6)).copy()
    got = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), heads=2).data
    np.testing.assert_allclose(got, np.broadcast_to(v[:, :1], (1, 4, 6)), atol=1e-12)


def test_scaled_dot_attention_errors(rng):
    q = Tensor(rng.normal(size=(1, 4, 6)))
    k = Tensor(rng.normal(size=(1, 5, 6)))
    with pytest.raises(ShapeMismatchError):
        scaled_dot_attention(q, k, k, heads=4)  # 6 not divisible by 4
    with pytest.raises(ShapeMismatchError):
        scaled_dot_attention(q, k, Tensor(rng.normal(size=(1, 6, 6))), heads=2)


# ---------------------------------------------------------------------------
# query-row tiles


def _attention_and_grads(q, k, v, heads, weight):
    """Attention's output and the gradients of q, k, v under the loss mean(out * weight)."""
    qt, kt, vt = (Tensor(x, requires_grad=True) for x in (q, k, v))
    out = scaled_dot_attention(qt, kt, vt, heads)
    T.backward(T.mean(out * Tensor(weight)))
    return out.data, qt.grad, kt.grad, vt.grad


class _TileRecorder:
    """Wraps ``T.row_tiles``, recording each call's score entries per tile."""

    def __init__(self, monkeypatch):
        self.tiles = []  # per call: (rows of each tile, score entries of one row)
        self._row_tiles = T.row_tiles
        monkeypatch.setattr(T, "row_tiles", self)

    def __call__(self, batch, heads, n_q, n_k):
        bounds = self._row_tiles(batch, heads, n_q, n_k)
        self.tiles.append(([b - a for a, b in zip(bounds, bounds[1:])], batch * heads * n_k))
        return bounds

    def entries(self):
        return [rows * row for call, row in self.tiles for rows in call]


@given(batch=st.integers(1, 2), heads=st.sampled_from([1, 2, 4]), head_dim=st.integers(1, 3),
       n_q=st.integers(1, 11), n_k=st.integers(1, 9), tile=st.integers(1, 400),
       seed=st.integers(0, 2 ** 16))
@example(batch=2, heads=1, head_dim=2, n_q=7, n_k=3, tile=12, seed=0)  # rows 1, 2, 2, 2
@example(batch=2, heads=4, head_dim=2, n_q=5, n_k=9, tile=50, seed=0)  # n_k > tile: one row each
def test_row_blocks_match_one_block(batch, heads, head_dim, n_q, n_k, tile, seed):
    gen = np.random.default_rng(seed)
    channels = heads * head_dim
    q, k, v = (gen.normal(size=(batch, n, channels)) for n in (n_q, n_k, n_k))
    weight = gen.normal(size=(batch, n_q, channels))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(T, "SCORE_TILE", 2 ** 62)
        expected = _attention_and_grads(q, k, v, heads, weight)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(T, "SCORE_TILE", tile)
        recorder = _TileRecorder(patch)
        got = _attention_and_grads(q, k, v, heads, weight)
    (rows, row), = recorder.tiles  # one softmax call, one row's scores the smallest tile
    assert all(r * row <= max(tile, row) for r in rows)
    assert len(rows) == math.ceil(n_q / max(1, tile // row))  # the fewest tiles
    assert sum(rows) == n_q
    assert max(rows) - min(rows) <= 1
    for mine, ref in zip(got, expected):
        assert np.abs(mine - ref).max() <= 1e-13 * np.abs(ref).max()


def _unsplit_chain(q, k, v, heads):
    """The ops of a one-tile ``scaled_dot_attention`` forward, in numpy."""
    batch, n_q, channels = q.shape
    d = channels // heads

    def split(x):
        return x.reshape(x.shape[0], x.shape[1], heads, d).transpose(0, 2, 1, 3)

    scores = np.matmul(split(q * (1.0 / math.sqrt(d))),
                       np.ascontiguousarray(np.swapaxes(split(k), -1, -2)))
    e = np.exp(scores)  # scores this small take no shift
    out = np.matmul(e, split(v)) / e.sum(axis=-1, keepdims=True)
    return out.transpose(0, 2, 1, 3).reshape(batch, n_q, channels)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_one_block_is_the_unsplit_chain_bitwise(rng, heads):
    q, k, v = (rng.normal(size=(2, n, 8)) for n in (9, 13, 13))
    expected = _unsplit_chain(q, k, v, heads)
    taped = scaled_dot_attention(*(Tensor(x, requires_grad=True) for x in (q, k, v)), heads)
    np.testing.assert_array_equal(taped.data, expected)
    with T.no_grad():  # the reused score buffer takes the same values
        np.testing.assert_array_equal(
            scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), heads).data, expected)


def test_desk128_score_blocks_fit_the_budget_and_cover_every_score(monkeypatch, desk_model, rng):
    triplet = make_triplet(rng, size=128)
    with monkeypatch.context() as patch:
        patch.setattr(T, "SCORE_TILE", 2 ** 62)
        unsplit = _TileRecorder(patch)
        with T.no_grad():
            desk_model(triplet)
    tiled = _TileRecorder(monkeypatch)
    with T.no_grad():
        desk_model(triplet)
    assert max(unsplit.entries()) > T.SCORE_TILE
    assert max(tiled.entries()) <= T.SCORE_TILE
    assert sum(tiled.entries()) == sum(unsplit.entries())


# ---------------------------------------------------------------------------
# the attention primitive against the normalize-then-multiply chain


def _unfused_softmax(q, k, v):
    """The oracle for ``T.softmax(q, k, v)``: score, normalize, then multiply, off the tape."""
    scores = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
    y = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return Tensor(np.matmul(y / y.sum(axis=-1, keepdims=True), v.data))


@pytest.mark.parametrize("preset, reference_mode, frames",
                         [("desk", "scored", 6), ("desk", "random", 6), ("full", "scored", 3)])
def test_sessions_match_the_unfused_softmax(monkeypatch, preset, reference_mode, frames):
    model = build_model(preset, seed=0)
    sequence, _ = generate_arrays(SynthParams(seed=4, frames=frames, size=64))
    fused = infer_sequence(model, sequence, reference_mode=reference_mode, seed=3)
    monkeypatch.setattr(T, "softmax", _unfused_softmax)
    unfused = infer_sequence(model, sequence, reference_mode=reference_mode, seed=3)
    assert [r.ref_frame_index for r in fused] == [r.ref_frame_index for r in unfused]
    for mine, ref in zip(fused, unfused):
        np.testing.assert_array_equal(mine.o_msk, ref.o_msk)
        assert np.abs(mine.o_err - ref.o_err).max() <= 1e-12
        assert abs(mine.score - ref.score) <= 1e-12


# ---------------------------------------------------------------------------
# configuration validation


def test_attention_config_validation():
    assert AttentionConfig(heads=2, head_dim=4).channels == 8
    with pytest.raises(ConfigurationError):
        AttentionConfig(heads=0, head_dim=4)
    with pytest.raises(ConfigurationError):
        AttentionConfig(heads=2, head_dim=4, sr_ratio=3)


def test_rma_block_rejects_unknown_mode(rng):
    with pytest.raises(ConfigurationError):
        RMABlock(AttentionConfig(heads=2, head_dim=4), rng, mode="bogus")


# ---------------------------------------------------------------------------
# block behavior


def _tokens(rng, channels=8, n=4):
    """C, P and R tokens, each 1 x n x channels."""
    return tuple(Tensor(rng.normal(size=(1, n, channels))) for _ in range(3))


def _poke(x, delta):
    return Tensor(x.data + delta)


def _run(block, c, p, r, h=2, w=2):
    """All three branches through ``block``, P and R stacked: the outputs by branch."""
    c, pr, _ = block(c, T.concat([p, r], axis=0), h, w)
    return dict(zip("cpr", [c, *split_batch(pr, 2)]))


def _cross(block, c, p, r, h=2, w=2):
    """Cross-stage outputs ``(A_C, A_P, A_R)`` of the three branches, pre-residual."""
    a_c, a_pr, _ = block.attend_cross(c, T.concat([p, r], axis=0), h, w)
    return (a_c, *split_batch(a_pr, 2))


def test_branch_weight_sets_cur_and_ref_only(rng):
    block = RMABlock(AttentionConfig(heads=2, head_dim=4), rng)
    prefixes = {name.split(".")[0] for name, _ in block.named_parameters()}
    assert prefixes == {"cur", "ref"}


def test_cross_asymmetry_r_ignores_c_and_p(rng):
    block = RMABlock(AttentionConfig(heads=2, head_dim=4), rng)
    c, p, r = _tokens(rng)
    a_c0, a_p0, a_r0 = _cross(block, c, p, r)
    a_c1, a_p1, a_r1 = _cross(block, _poke(c, rng.normal(size=c.shape)), p, r)
    np.testing.assert_array_equal(a_r0.data, a_r1.data)
    np.testing.assert_array_equal(a_p0.data, a_p1.data)
    assert not np.array_equal(a_c0.data, a_c1.data)

    _, a_p2, a_r2 = _cross(block, c, _poke(p, rng.normal(size=p.shape)), r)
    np.testing.assert_array_equal(a_r0.data, a_r2.data)
    assert not np.array_equal(a_p0.data, a_p2.data)


def test_attend_cross_returns_the_keys_of_r_and_reads_given_ones(rng):
    block = RMABlock(AttentionConfig(heads=2, head_dim=4, sr_ratio=2), rng)
    c, p, r = _tokens(rng, n=16)
    a_c, a_pr, kv_r = block.attend_cross(c, T.concat([p, r], axis=0), 4, 4)
    assert a_c.shape == (1, 16, 8) and a_pr.shape == (2, 16, 8)
    assert [t.shape for t in kv_r] == [(1, 4, 8)] * 2  # R's keys, spatially reduced
    a_c2, a_p2, kv_given = block.attend_cross(c, p, 4, 4, given=kv_r)
    assert kv_given is kv_r
    for got, want in ((a_c2, a_c), (a_p2, split_batch(a_pr, 2)[0])):  # up to GEMM rounding
        np.testing.assert_allclose(got.data, want.data, rtol=0,
                                   atol=1e-13 * np.abs(want.data).max())
    with pytest.raises(ShapeMismatchError, match="pr stream batch"):
        block.attend_cross(c, p, 4, 4)  # P alone, but R's keys are not given


def _joint_block_oracle(block, c, p, r, h, w):
    """All three branches advanced apart, each cross key set built explicitly."""
    cfg = block.cfg

    def self_attend(x, wt):
        y = wt.norm1(x)
        kv = block._reduce(y, wt, h, w)
        return x + wt.proj(scaled_dot_attention(wt.q(y), wt.k(kv), wt.v(kv), cfg.heads))

    weights = {"c": block.cur, "p": block.ref, "r": block.ref}
    x = {"c": self_attend(c, block.cur), "p": self_attend(p, block.ref),
         "r": self_attend(r, block.ref)}
    if block.mode != "self_only":
        q, k, v = {}, {}, {}
        for b, wt in weights.items():
            xn = wt.norm_cross(x[b])
            kv = block._reduce(xn, wt, h, w)
            q[b], k[b], v[b] = wt.q(xn), wt.k(kv), wt.v(kv)
        visible = {"rma": {"c": "cpr", "p": "pr", "r": "r"},
                   "motion_only": {"c": "cp", "p": "p", "r": "r"},
                   "full": {"c": "cpr", "p": "cpr", "r": "cpr"}}[block.mode]
        a = {}
        for b, keys in visible.items():
            ks = k[keys] if len(keys) == 1 else T.concat([k[j] for j in keys], axis=1)
            vs = v[keys] if len(keys) == 1 else T.concat([v[j] for j in keys], axis=1)
            a[b] = weights[b].proj_cross(scaled_dot_attention(q[b], ks, vs, cfg.heads))
        x = {b: x[b] + a[b] for b in x}
    return {b: x[b] + weights[b].mlp(weights[b].norm2(x[b])) for b in x}


def _block_grads(block, out):
    """Parameter gradients of a fixed loss on the three branch outputs."""
    block.zero_grad()
    T.backward(T.mean(out["c"] * out["c"]) + T.mean(out["p"] * out["p"])
               + T.mean(out["r"] * out["r"]))
    grads = {name: p.grad for name, p in block.named_parameters()}
    block.zero_grad()
    return grads


def _assert_grads_close(got, want, err_msg):
    """Every parameter gradient within 1e-10 of the largest one in the block.

    The scale is block-wide: key-bias gradients are zero in exact arithmetic
    and read rounding noise, so a per-tensor scale would compare noise.
    """
    scale = max(np.abs(g).max() for g in want.values() if g is not None)
    for name, g in want.items():  # None (no gradient) must match None
        assert (got[name] is None) == (g is None), f"{err_msg} {name}"
        if g is not None:
            assert np.abs(got[name] - g).max() <= 1e-10 * scale, f"{err_msg} {name}"


@pytest.mark.parametrize("mode", ATTENTION_MODES)
def test_block_matches_joint_oracle(rng, mode):
    block = RMABlock(AttentionConfig(heads=2, head_dim=4, sr_ratio=2), rng, mode=mode)
    c, p, r = _tokens(rng, n=16)
    want = _joint_block_oracle(block, c, p, r, 4, 4)
    want_grads = _block_grads(block, want)
    _, _, kv_r = block(c, T.concat([p, r], axis=0), 4, 4)
    assert (kv_r is None) == (mode == "self_only")

    def given_route():  # C and P against R's cross keys/values from a joint call
        _, pr, kv_r = block(c, T.concat([p, r], axis=0), 4, 4)
        c_out, p_out, _ = block(c, p, 4, 4, given=kv_r)
        return {"c": c_out, "p": p_out, "r": split_batch(pr, 2)[1]}

    routes = {"joint": lambda: _run(block, c, p, r, 4, 4), "given": given_route}
    for route, run in routes.items():  # a fresh graph per route
        got = run()
        for b in "cpr":  # stacking changes GEMM shapes, which may move a last bit
            np.testing.assert_allclose(got[b].data, want[b].data, rtol=0,
                                       atol=1e-13 * np.abs(want[b].data).max(),
                                       err_msg=f"{route} {b}")
        _assert_grads_close(_block_grads(block, got), want_grads, route)


def test_full_mode_breaks_asymmetry(rng):
    block = RMABlock(AttentionConfig(heads=2, head_dim=4), rng, mode="full")
    c, p, r = _tokens(rng)
    _, _, a_r0 = _cross(block, c, p, r)
    _, _, a_r1 = _cross(block, _poke(c, 1.0), p, r)
    assert not np.array_equal(a_r0.data, a_r1.data)


def test_motion_only_mode_c_sees_p_but_not_r(rng):
    block = RMABlock(AttentionConfig(heads=2, head_dim=4), rng, mode="motion_only")
    c, p, r = _tokens(rng)
    a_c0, _, _ = _cross(block, c, p, r)
    a_c1, _, _ = _cross(block, c, p, _poke(r, 1.0))
    np.testing.assert_array_equal(a_c0.data, a_c1.data)
    a_c2, _, _ = _cross(block, c, _poke(p, 1.0), r)
    assert not np.array_equal(a_c0.data, a_c2.data)


def test_self_only_mode_has_no_cross_stage(rng):
    block = RMABlock(AttentionConfig(heads=2, head_dim=4), rng, mode="self_only")
    c, p, r = _tokens(rng)
    with pytest.raises(ConfigurationError, match="no cross stage"):
        _cross(block, c, p, r)
    grads = _block_grads(block, _run(block, c, p, r))
    untouched = {name for name, g in grads.items() if g is None}
    assert untouched == {n for n in grads if ".norm_cross." in n or ".proj_cross." in n}


def test_self_only_mode_keeps_branches_independent(rng):
    block = RMABlock(AttentionConfig(heads=2, head_dim=4), rng, mode="self_only")
    c, p, r = _tokens(rng)
    out0 = _run(block, c, p, r)
    out1 = _run(block, _poke(c, 1.0), p, r)
    np.testing.assert_array_equal(out0["p"].data, out1["p"].data)
    np.testing.assert_array_equal(out0["r"].data, out1["r"].data)


def test_modes_produce_distinct_outputs(rng):
    tokens = _tokens(rng)
    outputs = []
    for mode in ATTENTION_MODES:
        block = RMABlock(AttentionConfig(heads=2, head_dim=4),
                         np.random.default_rng(0), mode=mode)
        out = _run(block, *tokens)
        outputs.append(np.concatenate([out[b].data for b in "cpr"]))
    for i in range(len(outputs)):
        for j in range(i + 1, len(outputs)):
            assert not np.array_equal(outputs[i], outputs[j])


def test_block_output_shape_and_residual_structure(rng):
    cfg = AttentionConfig(heads=2, head_dim=4)
    block = RMABlock(cfg, rng)
    tokens = _tokens(rng)
    out = _run(block, *tokens)
    for b in "cpr":
        assert out[b].shape == tokens[0].shape


def test_sr_ratio_reduces_key_count(rng):
    cfg = AttentionConfig(heads=2, head_dim=4, sr_ratio=2)
    block = RMABlock(cfg, rng)
    c, p, r = _tokens(rng, n=16)
    reduced = block._reduce(c, block.cur, 4, 4)
    assert reduced.shape == (1, 4, 8)
    assert _run(block, c, p, r, 4, 4)["c"].shape == (1, 16, 8)


def test_block_gradients_reach_all_parameters(rng):
    block = RMABlock(AttentionConfig(heads=2, head_dim=4), rng)
    out = _run(block, *_tokens(rng))
    T.backward(sum((T.mean(out[b] * out[b]) for b in "cpr"), Tensor(0.0)))
    for name, p in block.named_parameters():
        assert p.grad is not None, name
        assert np.isfinite(p.grad).all(), name


@pytest.mark.parametrize("mode", ATTENTION_MODES)
def test_one_cross_stage_per_block_in_a_desk_forward(monkeypatch, rng, mode):
    model = build_model("desk", attention_mode=mode, seed=0)
    calls = []
    real = RMABlock.attend_cross

    def counted(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(RMABlock, "attend_cross", counted)
    with T.no_grad():
        model(make_triplet(rng))
    blocks = [block for stage in model.backbone.stages for block in stage.blocks]
    assert calls == ([] if mode == "self_only" else blocks)
