import math
import pickle
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import ks_critical
from hmchaos import rng
from hmchaos.rng import Seed, Stream, split

S_BIG = 10**6
S_MED = 10**5


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _next_is_value(stream, kind, seed, n):
    # the stream has handed out n values of this kind: its next one is value
    # n + 1 of a fresh stream on the same seed
    return _same_bytes(getattr(stream, kind)(1), getattr(Stream(seed), kind)(n + 1)[n:])


def test_replay_is_exact():
    a = Stream(Seed(123, 5)).draw(1000)
    b = Stream(Seed(123, 5)).draw(1000)
    assert np.array_equal(a, b)


def test_chunking_never_changes_values():
    whole = Stream(Seed(9)).draw(64)
    st = Stream(Seed(9))
    parts = np.concatenate([st.draw(3), st.draw(5), st.draw(40), st.draw(16)])
    assert np.array_equal(whole, parts)
    assert _next_is_value(st, "draw", Seed(9), 64)


def test_moments_on_a_million_draws():
    x = Stream(Seed(2024)).draw(S_BIG)
    n = x.size
    # E[Re X] = 0 within 4*(1/sqrt(2))/1000
    assert abs(np.mean(x.real)) <= 4.0 * (1.0 / math.sqrt(2.0)) / 1000.0
    # Var[Re X] = 1/2 within 1%
    assert abs(np.var(x.real) - 0.5) <= 0.005
    # E[X] = 0, E[|X|^2] = 1, E[X^2] = 0, each within 4 standard errors
    se_mean = np.hypot(np.std(x.real), np.std(x.imag)) / math.sqrt(n)
    assert abs(np.mean(x)) <= 4.0 * se_mean
    sq = np.abs(x) ** 2
    assert abs(np.mean(sq) - 1.0) <= 4.0 * np.std(sq) / math.sqrt(n)
    xx = x * x
    se_sq = np.hypot(np.std(xx.real), np.std(xx.imag)) / math.sqrt(n)
    assert abs(np.mean(xx)) <= 4.0 * se_sq


@pytest.mark.parametrize("phi", [math.pi / 7, math.pi / 3])
def test_rotational_symmetry_ks(phi):
    a = Stream(Seed(77, 0)).draw(S_MED)
    b = Stream(Seed(77, 1)).draw(S_MED)
    stat = ks_2samp((a * np.exp(1j * phi)).real, b.real).statistic
    assert stat < ks_critical(S_MED, S_MED, 0.01)


def test_split_is_pure_and_distinct():
    s = Seed(55, 3)
    assert split(s, 7) == split(s, 7)
    assert split(s, 0) != split(s, 1)
    a = Stream(split(s, 0)).draw(100)
    b = Stream(split(s, 1)).draw(100)
    assert not np.allclose(a, b)


def test_split_streams_uncorrelated():
    s = Seed(918273)
    a = Stream(split(s, 0)).draw(S_MED).real
    b = Stream(split(s, 1)).draw(S_MED).real
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 4.0 / math.sqrt(S_MED)


def test_nested_splits_are_distinct():
    s = Seed(10)
    assert split(split(s, 0), 1) != split(s, 1)


@pytest.mark.parametrize("root, index", [(0, 0), (55, 3), (2**64 - 1, 2**64 - 1)])
def test_split_equals_the_validated_seed(root, index):
    # split builds its child without re-validating the masked words; the
    # child is the Seed the checked constructor gives, for any replicate int
    parent = Seed(root, index)
    child_root = rng.splitmix64(root ^ rng.splitmix64(index))
    for replicate in (0, 7, -1, -(2**70), 2**64, 2**64 + 5, np.int64(9), True):
        child = split(parent, replicate)
        expected = Seed(child_root, int(replicate) % 2**64)
        assert child == expected and hash(child) == hash(expected)
        assert str(child) == str(expected)
        assert type(child.root) is int and type(child.replicate_index) is int
        assert pickle.loads(pickle.dumps(child)) == expected


def test_threaded_creation_matches_sequential():
    root = Seed(31337)
    sequential = [Stream(split(root, i)).draw(256) for i in range(8)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(
            lambda i: Stream(split(root, i)).draw(256), range(8)))
    for a, b in zip(sequential, threaded):
        assert np.array_equal(a, b)


def _bits(a):
    return a.view(np.uint64)


@pytest.mark.parametrize("n", [1, 2, 7, 4096, 4097])
def test_draw_real_is_the_ziggurat_on_the_streams_philox(n):
    st, ref = Stream(Seed(21)), rng._philox(Seed(21))
    for _ in range(2):  # a second call starts where the first stopped
        assert np.array_equal(_bits(st.draw_real(n)), _bits(ref.standard_normal(n)))
    assert _next_is_value(st, "draw_real", Seed(21), 2 * n)


def test_split_real_draws_equal_one_draw():
    sizes = [0, 1, 7, 4096, 4097, 2 * rng.UNIT_TILE + 1, 0]
    whole = Stream(Seed(5, 3)).draw_real(sum(sizes))
    st = Stream(Seed(5, 3))
    parts = [st.draw_real(n) for n in sizes]
    assert [part.size for part in parts] == sizes
    assert np.array_equal(_bits(np.concatenate(parts)), _bits(whole))
    assert _next_is_value(st, "draw_real", Seed(5, 3), sum(sizes))


def _normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def test_draw_real_moments_and_ks_on_a_million_draws():
    v = Stream(Seed(27)).draw_real(S_BIG)
    n = v.size
    assert abs(np.mean(v)) <= 4.0 / math.sqrt(n)
    assert abs(np.var(v, ddof=1) - 1.0) <= 4.0 * math.sqrt(2.0 / (n - 1))
    # one-sample KS against the exact CDF: the two-sample critical value at
    # m = n is sqrt(2) times the one-sample c(alpha)/sqrt(n)
    cdf = np.fromiter(map(_normal_cdf, np.sort(v).tolist()), dtype=float, count=n)
    ranks = np.arange(1, n + 1) / n
    stat = max(np.max(ranks - cdf), np.max(cdf - (ranks - 1.0 / n)))
    assert stat < ks_critical(n, n, 0.01) / math.sqrt(2.0)


def test_draw_real_tail_share_past_the_ziggurat_cut():
    # numpy's ziggurat draws |x| past its last layer, 3.6541528853610088, on
    # its rejection tail; that share against 2 (1 - Phi(cut)), within 4 sigma
    cut = 3.6541528853610088
    v = Stream(Seed(28)).draw_real(S_BIG)
    p = math.erfc(cut / math.sqrt(2.0))
    hits = np.count_nonzero(np.abs(v) > cut)
    assert abs(hits - v.size * p) <= 4.0 * math.sqrt(v.size * p * (1.0 - p))


def test_draw_real_standard_normal():
    st = Stream(Seed(88))
    v = st.draw_real(200001)
    assert v.size == 200001
    assert abs(np.mean(v)) <= 4.0 / math.sqrt(v.size)
    assert abs(np.var(v) - 1.0) <= 0.02


# The untiled formulas, kept as the oracle of the tiled draws: each reads
# the stream's own uniform source.


def _oracle_unit_circle(stream, n):
    # unit values are the transform of the stream's own uniforms, in one call
    u = stream._gen.random((1, max(n, 0)))
    out = np.empty(u.shape, dtype=np.complex128)
    rng.unit_circle(u, out)
    return out[0]


def _oracle_draw(stream, n):
    # each part is the radius times that part of the angle's unit value
    u = stream._gen.random((max(n, 0), 2))
    radius = np.sqrt(-np.log1p(-u[:, 0]))
    unit = np.empty((1, len(u)), dtype=np.complex128)
    rng.unit_circle(u[:, 1].copy()[None], unit)
    out = np.empty(len(u), dtype=np.complex128)
    out.real, out.imag = radius * unit[0].real, radius * unit[0].imag
    return out


B = 2 * rng.UNIT_TILE  # sizes about the second tile boundary
FILL_SIZES = [0, 1, 2, B - 1, B, B + 1, 3 * B + 5]


@pytest.mark.parametrize("n", FILL_SIZES)
def test_blocked_fill_matches_the_unblocked_formulas(n):
    for kind, oracle in (("draw", _oracle_draw), ("draw_unit", _oracle_unit_circle)):
        st, ref = Stream(Seed(606, 2)), Stream(Seed(606, 2))
        for m in (n, 2 * n + 1):  # the second call starts mid-stream; 2n + 1 is odd
            assert _same_bytes(getattr(st, kind)(m), oracle(ref, m))
        # both stand after 3n + 1 values
        assert _same_bytes(oracle(ref, 1), getattr(Stream(Seed(606, 2)), kind)(3 * n + 2)[-1:])
        assert _next_is_value(st, kind, Seed(606, 2), 3 * n + 1)


def test_draws_split_across_a_block_boundary_equal_one_draw():
    whole = Stream(Seed(4)).draw(2 * B + 6)
    st = Stream(Seed(4))
    head = np.concatenate([st.draw(B - 1), st.draw(2)])
    assert _same_bytes(head, whole[: B + 1])
    assert _same_bytes(st.draw(B + 5), whole[B + 1 :])
    assert _next_is_value(st, "draw", Seed(4), 2 * B + 6)


@pytest.mark.parametrize("n", [1, 7, 10])
def test_fill_does_not_depend_on_the_block_size(n, monkeypatch):
    expected = Stream(Seed(12)).draw(n)
    expected_unit = Stream(Seed(12)).draw_unit(n)
    monkeypatch.setattr(rng, "UNIT_TILE", 3)
    assert _same_bytes(Stream(Seed(12)).draw(n), expected)
    assert _same_bytes(Stream(Seed(12)).draw_unit(n), expected_unit)


class _FixedUniforms:
    """Stands in for a stream's uniform source, handing out given values."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)
        self._used = 0

    def random(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out[...] = self._values[self._used : self._used + out.size].reshape(out.shape)
        self._used += out.size
        return out


def test_a_zero_radius_uniform_gives_the_oracle_value():
    # u1 = 0 gives radius 0; the angle uniforms put cos and sin in all four
    # sign patterns, and 0 gives the angle 0
    u = [[0.0, a] for a in (0.0, 0.1, 0.3, 0.6, 0.9)] + [[0.5, 0.2]]
    streams = [Stream(Seed(1)) for _ in range(2)]
    for st in streams:
        st._gen = _FixedUniforms(np.ravel(u))
    x = streams[0].draw(6)
    assert _same_bytes(x, _oracle_draw(streams[1], 6))  # zeros keep their signs
    assert [st._gen._used for st in streams] == [12, 12]  # both read six pairs
    assert np.count_nonzero(x == 0) == 5
    assert np.signbit(x[:5].real).tolist() == [False, False, True, True, False]
    assert np.signbit(x[:5].imag).tolist() == [False, False, False, True, True]


KEY_WORDS = [0, 1, 2**64 - 1]


@pytest.mark.parametrize("root", KEY_WORDS)
@pytest.mark.parametrize("index", KEY_WORDS)
def test_stream_state_is_philox_keyed_by_the_seed(root, index):
    # the key reaches Philox as it is: same state as Philox(key=...), same draws
    philox = np.random.Philox(key=np.array([root, index], dtype=np.uint64))
    st = Stream(Seed(root, index))
    state, expected = st._gen.bit_generator.state, philox.state
    assert state.keys() == expected.keys()
    for name in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
        assert state[name] == expected[name]
    assert np.array_equal(state["buffer"], expected["buffer"])
    for word in ("counter", "key"):
        assert np.array_equal(state["state"][word], expected["state"][word])
    assert np.array_equal(st._gen.random(1000), np.random.Generator(np.random.Philox(
        key=np.array([root, index], dtype=np.uint64))).random(1000))


def test_a_stream_pickles_and_replays():
    st = Stream(Seed(41, 2))
    st.draw(5)
    copy = pickle.loads(pickle.dumps(st))
    assert _same_bytes(copy.draw(9), st.draw(9))


@pytest.mark.parametrize("shape", [(1, 7), (5, 3), (3, B + 2), (2 * B // 3 + 1, 3)])
def test_draw_blocks_in_tiles_is_per_row_draws(shape):
    # draw_blocks: rows of pairs filled one stream at a time and transformed
    # at once, in row tiles or in pieces of a row wider than a tile
    rows, m = shape
    out = np.empty((rows, m + 2), dtype=np.complex128)[:, 1 : m + 1]  # rows not contiguous
    (block,) = rng.draw_blocks((Stream(Seed(3, i)) for i in range(rows)), out)
    for i in range(rows):
        assert _same_bytes(block[i].copy(), Stream(Seed(3, i)).draw(m))


def _exact_unit(u):
    return mpmath.expjpi(2 * mpmath.mpf(float(u)))


def test_unit_circle_is_within_1e_15_of_the_exact_value():
    # 10^4 uniforms, the quarter turns, the largest uniform and every table
    # point and half-step (where |x| is largest), against mpmath at 120 bits
    table = rng.UNIT_TABLE
    u = np.concatenate([np.random.default_rng(7).random(10**4),
                        [0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53, 2.0**-53],
                        np.arange(table) / table, (np.arange(table) + 0.5) / table])
    out = np.empty((1, u.size), dtype=np.complex128)
    rng.unit_circle(u[None], out)
    with mpmath.workprec(120):
        err = max(abs(mpmath.mpc(v) - _exact_unit(x)) for x, v in zip(u.tolist(), out[0].tolist()))
    assert err <= 1e-15
    assert np.max(np.abs(np.abs(out) - 1.0)) <= 4.5e-16


def test_gaussian_draw_is_within_1e_15_of_the_exact_value():
    # 10^4 uniform pairs, then every table point and half-step as the angle
    # uniform and the extreme radius uniforms, against mpmath's
    # sqrt(-log1p(-u1)) (cos, sin)(2 pi u2) at 120 bits: each part within 1e-15 |X|
    table = rng.UNIT_TABLE
    gen = np.random.default_rng(8)
    angles = np.concatenate([gen.random(10**4), np.arange(table) / table,
                             (np.arange(table) + 0.5) / table, [0.125, 0.375]])
    radii = np.concatenate([gen.random(angles.size - 2), [1.0 - 2.0**-53, 2.0**-53]])
    st = Stream(Seed(1))
    st._gen = _FixedUniforms(np.stack([radii, angles], axis=-1).ravel())
    draws = st.draw(angles.size)
    with mpmath.workprec(120):
        err = 0.0
        for u1, u2, x in zip(radii.tolist(), angles.tolist(), draws.tolist()):
            re, im = x.real, x.imag
            x = mpmath.sqrt(-mpmath.log1p(-mpmath.mpf(u1))) * _exact_unit(u2)
            err = max(err, abs(re - x.real) / abs(x), abs(im - x.imag) / abs(x))
    assert err <= 1e-15


@pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0), (1, 7), (5, 3),
                                   (2, rng.UNIT_TILE + 3), (rng.UNIT_TILE // 3 + 1, 3)])
def test_unit_circle_on_a_block_is_per_row_draws(shape):
    # rows of uniforms filled one stream at a time and transformed at once,
    # in row tiles or in pieces of a row wider than a tile; empty blocks too
    rows, m = shape
    uniforms = np.empty((rows, m))
    out = np.empty((rows, m + 2), dtype=np.complex128)[:, 1 : m + 1]  # rows not contiguous
    for i in range(rows):
        st = Stream(Seed(3, i))
        st.fill_uniforms(uniforms[i])
        assert _next_is_value(st, "draw_unit", Seed(3, i), m)
    rng.unit_circle(uniforms, out)
    for i in range(rows):
        assert _same_bytes(out[i].copy(), Stream(Seed(3, i)).draw_unit(m))


def test_an_empty_unit_draw_is_empty():
    st = Stream(Seed(3))
    for n in (0, -2):
        draw = st.draw_unit(n)
        assert draw.shape == (0,) and draw.dtype == np.complex128
    assert _next_is_value(st, "draw_unit", Seed(3), 0)
    assert _same_bytes(st.draw_unit(5), Stream(Seed(3)).draw_unit(6)[1:])


def _taking_streams(count, taken):
    # Stream(Seed(8, i)) for i < count, recording each index as it is taken
    for i in range(count):
        taken.append(i)
        yield Stream(Seed(8, i))


@pytest.mark.parametrize("row", [(4,), (4, 2)])
def test_draw_blocks_fill_one_row_per_stream_per_block(row):
    # each stream writes a row of 4 uniforms (unit values) or 4 pairs
    # (Gaussians); row i holds stream i's own draw, the last block is short,
    # an empty iterator yields nothing, and no stream is taken past a
    # block's last row, so the next block starts at the next stream
    kind, blocks = (("draw_unit", rng.draw_unit_blocks) if len(row) == 1
                    else ("draw", rng.draw_blocks))
    taken = []
    out = np.full((3, 4), np.nan, dtype=np.complex128)
    it = blocks(_taking_streams(5, taken), out)
    block = next(it)
    assert len(block) == 3 and taken == [0, 1, 2]
    assert all(_same_bytes(block[i], getattr(Stream(Seed(8, i)), kind)(4)) for i in range(3))
    block = next(it)
    assert len(block) == 2 and taken == [0, 1, 2, 3, 4]
    # the short block leaves the row past it as the first block wrote it
    assert all(_same_bytes(out[i], getattr(Stream(Seed(8, j)), kind)(4))
               for i, j in enumerate((3, 4, 2)))
    assert next(it, None) is None
    assert list(blocks(_taking_streams(0, []), out)) == []


@pytest.mark.parametrize("kind", ["draw", "draw_unit"])
@pytest.mark.parametrize("n", [0, 1, 7, B + 3])
def test_draw_blocks_are_each_streams_own_draws(kind, n):
    # out is a column slice of a wider complex block, as chaos passes it;
    # every row is its stream's own draw(n) or draw_unit(n), the columns
    # outside the slice stay untouched, and the blocks take the streams in
    # order, len(out) at a time, the short last block included
    blocks = {"draw": rng.draw_blocks, "draw_unit": rng.draw_unit_blocks}[kind]
    wide = np.full((4, n + 3), np.nan + 1j * np.nan)
    taken = []
    seen = 0
    for block in blocks(_taking_streams(7, taken), wide[:, 2 : n + 2]):
        assert taken == list(range(seen + len(block)))
        for i, values in enumerate(block):
            assert _same_bytes(values.copy(), getattr(Stream(Seed(8, seen + i)), kind)(n))
        seen += len(block)
        assert np.isnan(wide[:, :2]).all() and np.isnan(wide[:, n + 2 :]).all()
    assert seen == 7 and len(block) == 3


def test_seed_validation():
    with pytest.raises(ValueError):
        Seed(-1)
    with pytest.raises(ValueError):
        Seed(1 << 64)
    with pytest.raises(ValueError):
        Seed(True)
    with pytest.raises(ValueError):
        Seed(3, False)
