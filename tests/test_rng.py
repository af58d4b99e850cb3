import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import ks_critical
from hmchaos.rng import GaussianStream, Seed, split

S_BIG = 10**6
S_MED = 10**5


def test_replay_is_exact():
    a = GaussianStream(Seed(123, 5)).draw(1000)
    b = GaussianStream(Seed(123, 5)).draw(1000)
    assert np.array_equal(a, b)


def test_chunking_never_changes_values():
    whole = GaussianStream(Seed(9)).draw(64)
    st = GaussianStream(Seed(9))
    parts = np.concatenate([st.draw(3), st.draw(5), st.draw(40), st.draw(16)])
    assert np.array_equal(whole, parts)
    assert st.position == 64


def test_moments_on_a_million_draws():
    x = GaussianStream(Seed(2024)).draw(S_BIG)
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
    a = GaussianStream(Seed(77, 0)).draw(S_MED)
    b = GaussianStream(Seed(77, 1)).draw(S_MED)
    stat = ks_2samp((a * np.exp(1j * phi)).real, b.real).statistic
    assert stat < ks_critical(S_MED, S_MED, 0.01)


def test_split_is_pure_and_distinct():
    s = Seed(55, 3)
    assert split(s, 7) == split(s, 7)
    assert split(s, 0) != split(s, 1)
    a = GaussianStream(split(s, 0)).draw(100)
    b = GaussianStream(split(s, 1)).draw(100)
    assert not np.allclose(a, b)


def test_split_streams_uncorrelated():
    s = Seed(918273)
    a = GaussianStream(split(s, 0)).draw(S_MED).real
    b = GaussianStream(split(s, 1)).draw(S_MED).real
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 4.0 / math.sqrt(S_MED)


def test_nested_splits_are_distinct():
    s = Seed(10)
    assert split(split(s, 0), 1) != split(s, 1)


def test_threaded_creation_matches_sequential():
    root = Seed(31337)
    sequential = [GaussianStream(split(root, i)).draw(256) for i in range(8)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(
            lambda i: GaussianStream(split(root, i)).draw(256), range(8)))
    for a, b in zip(sequential, threaded):
        assert np.array_equal(a, b)


def _bits(a):
    return a.view(np.uint64)


def test_draw_re_is_the_real_part_of_draw():
    # bit for bit under any mix of batchings, with draw's stride and position
    whole = GaussianStream(Seed(9)).draw(300)
    st = GaussianStream(Seed(9))
    parts = [st.draw_re(3), st.draw(5).real, st.draw_re(0), st.draw_re(129),
             st.draw(40).real, st.draw_re(1), st.draw_re(122)]
    assert st.position == 300
    assert np.array_equal(_bits(np.concatenate(parts)), _bits(whole.real))
    assert np.array_equal(st.draw(7), GaussianStream(Seed(9)).draw(307)[300:])
    re = GaussianStream(Seed(9)).draw_re(300)
    assert re.strides == whole.real.strides
    assert GaussianStream(Seed(9)).draw_re(-2).size == 0


def _draw_real_by_interleaving(stream, n):
    m = (n + 1) // 2
    z = stream.draw(m) * math.sqrt(2.0)
    out = np.empty(2 * m)
    out[0::2] = z.real
    out[1::2] = z.imag
    return out[:n]


@pytest.mark.parametrize("n", [1, 2, 7, 4096, 4097])
def test_draw_real_matches_interleaved_complex_draws(n):
    st, ref = GaussianStream(Seed(21)), GaussianStream(Seed(21))
    for _ in range(2):  # a second call starts at the advanced position
        assert np.array_equal(_bits(st.draw_real(n)),
                              _bits(_draw_real_by_interleaving(ref, n)))
        assert st.position == ref.position


def test_draw_real_standard_normal():
    st = GaussianStream(Seed(88))
    v = st.draw_real(200001)  # odd length exercises the truncation
    assert v.size == 200001
    assert abs(np.mean(v)) <= 4.0 / math.sqrt(v.size)
    assert abs(np.var(v) - 1.0) <= 0.02


def test_seed_validation():
    with pytest.raises(ValueError):
        Seed(-1)
    with pytest.raises(ValueError):
        Seed(1 << 64)
    with pytest.raises(ValueError):
        Seed(True)
    with pytest.raises(ValueError):
        Seed(3, False)
