import numpy as np
import pytest

from vrlite.model import (
    Dataset,
    LossModel,
    full_gradient,
    grad_sample,
    rel_grad_norm,
)
from vrlite.optim import (
    ACCUM_MODES,
    EpochAverages,
    OptState,
    epoch_grad_evals,
    initial_state,
    permutation,
    saga_epoch,
    saga_init,
    saga_step,
    sgd_epoch,
    svrg_epoch,
    vr_step,
    vrlite_epoch,
    vrlite_init,
    vrlite_step,
)
from vrlite.seeding import optimizer_rng


def _single_sample_ridge():
    ds = Dataset(np.array([[1.0, 0.0]]), np.array([2.0]), "regression")
    return ds, LossModel("ridge", 0.0)


def test_permutation_covers_every_index():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 64):
        order = permutation(n, rng)
        assert isinstance(order, np.ndarray)
        assert np.issubdtype(order.dtype, np.integer)
        assert order.shape == (n,)
        assert sorted(order.tolist()) == list(range(n))
    assert list(permutation(1, rng)) == [0]
    with pytest.raises(ValueError):
        permutation(0, rng)


def test_vr_step_hand_value():
    # 0.25 and the gradient entries are exactly representable, so the
    # expected result is exact: -(0.25 * (2 - 1 + 0.5), 0.25 * 0.5).
    x = np.zeros(2)
    out = vr_step(x, np.array([2.0, 0.0]), np.array([1.0, 0.0]),
                  np.array([0.5, 0.5]), 0.25)
    np.testing.assert_array_equal(out, np.array([-0.375, -0.125]))


def test_vr_step_cancels_when_reference_matches():
    g = np.array([3.0, -1.0])
    x = np.array([1.0, 2.0])
    np.testing.assert_allclose(vr_step(x, g, g, np.zeros(2), 0.5), x,
                               atol=0, rtol=0)


def test_vrlite_step_matches_manual_correction(tiny_class):
    ds, m = tiny_class
    rng = np.random.default_rng(21)
    x = rng.standard_normal(ds.dimension)
    averages = EpochAverages.zeros(ds.dimension)
    averages.x_bar = rng.standard_normal(ds.dimension)
    averages.g_bar = rng.standard_normal(ds.dimension)
    s = ds[7]
    want = vr_step(x, grad_sample(m, s, x), grad_sample(m, s, averages.x_bar),
                   averages.g_bar, 0.03)
    np.testing.assert_array_equal(vrlite_step(m, s, x, averages, 0.03), want)


def test_sgd_single_sample_hand_values():
    ds, m = _single_sample_ridge()
    st = sgd_epoch(initial_state(2), m, ds, 0.25, np.random.default_rng(0))
    # grad at 0 is (-4, 0), so one step of size 0.25 lands on (1, 0).
    np.testing.assert_array_equal(st.x, np.array([1.0, 0.0]))
    np.testing.assert_array_equal(st.averages.x_bar, np.array([1.0, 0.0]))
    # accum_grad="post" re-evaluates at the updated iterate: grad is (-2, 0).
    np.testing.assert_array_equal(st.averages.g_bar, np.array([-2.0, 0.0]))
    st_reuse = sgd_epoch(initial_state(2), m, ds, 0.25,
                         np.random.default_rng(0), accum_grad="reuse")
    np.testing.assert_array_equal(st_reuse.averages.g_bar,
                                  np.array([-4.0, 0.0]))


def test_initial_state_is_all_zero():
    st = initial_state(3)
    np.testing.assert_array_equal(st.x, np.zeros(3))
    np.testing.assert_array_equal(st.averages.x_bar, np.zeros(3))
    np.testing.assert_array_equal(st.averages.g_bar, np.zeros(3))


def test_vrlite_init_counts_one_epoch(tiny_ridge):
    # The bootstrap is one plain-SGD pass from the origin: one permutation
    # draw, len(ds) steps, and the same state as sgd_epoch from zero.
    ds, m, _ = tiny_ridge
    rng = optimizer_rng(0)
    st = vrlite_init(m, ds, 0.01, rng)
    one_draw = optimizer_rng(0)
    permutation(len(ds), one_draw)
    assert rng.bit_generator.state == one_draw.bit_generator.state
    ref = sgd_epoch(initial_state(ds.dimension), m, ds, 0.01, optimizer_rng(0))
    for got, want in ((st.x, ref.x), (st.averages.x_bar, ref.averages.x_bar),
                      (st.averages.g_bar, ref.averages.g_bar)):
        assert got.tobytes() == want.tobytes()


def test_vrlite_init_eta_zero_recovers_full_gradient(tiny_class):
    # With eta=0 every iterate stays at the origin, so the accumulated
    # step gradients average to the exact full gradient there.
    ds, m = tiny_class
    st = vrlite_init(m, ds, 0.0, optimizer_rng(4))
    np.testing.assert_array_equal(st.x, np.zeros(ds.dimension))
    np.testing.assert_array_equal(st.averages.x_bar, np.zeros(ds.dimension))
    g0 = full_gradient(m, ds, np.zeros(ds.dimension))
    np.testing.assert_allclose(st.averages.g_bar, g0, atol=1e-12, rtol=0)


def test_eta_zero_is_a_fixed_point_everywhere(tiny_ridge):
    ds, m, _ = tiny_ridge
    rng = np.random.default_rng(8)
    x0 = rng.standard_normal(ds.dimension)

    st = vrlite_init(m, ds, 0.0, optimizer_rng(1))
    st = vrlite_epoch(st, m, ds, 0.0, optimizer_rng(2))
    np.testing.assert_array_equal(st.x, np.zeros(ds.dimension))

    sgd = sgd_epoch(
        initial_state(ds.dimension), m, ds, 0.0, optimizer_rng(3))
    np.testing.assert_array_equal(sgd.x, np.zeros(ds.dimension))

    np.testing.assert_array_equal(
        svrg_epoch(x0, m, ds, 0.0, optimizer_rng(4)), x0)

    sst = saga_init(m, ds, x0)
    x1, _ = saga_epoch(x0, m, ds, sst, 0.0, optimizer_rng(5))
    np.testing.assert_array_equal(x1, x0)


def test_eta_validation():
    ds, m = _single_sample_ridge()
    with pytest.raises(ValueError):
        vrlite_init(m, ds, -0.1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        vrlite_init(m, ds, float("nan"), np.random.default_rng(0))
    with pytest.raises(ValueError):
        vrlite_init(m, ds, 0.1, np.random.default_rng(0), accum_grad="lazy")


@pytest.mark.parametrize("accum", ACCUM_MODES)
def test_vrlite_trajectory_replays_from_public_api(tiny_class, accum):
    """The epoch driver must be bit-identical to a hand-rolled loop built
    from grad_sample and vr_step consuming the same generator stream."""
    ds, m = tiny_class
    eta = 0.05
    seed = 123

    rng = optimizer_rng(seed)
    st = vrlite_init(m, ds, eta, rng, accum_grad=accum)
    st2 = vrlite_epoch(st, m, ds, eta, rng, accum_grad=accum)

    # Replay. Bootstrap: plain SGD from zero.
    replay_rng = optimizer_rng(seed)
    x = np.zeros(ds.dimension)
    acc_x = np.zeros(ds.dimension)
    acc_g = np.zeros(ds.dimension)
    for i in replay_rng.permutation(len(ds)):
        s = ds[int(i)]
        g = grad_sample(m, s, x)
        x = x - eta * g
        acc_x += x
        acc_g += g if accum == "reuse" else grad_sample(m, s, x)
    x_bar, g_bar = acc_x / len(ds), acc_g / len(ds)
    np.testing.assert_array_equal(st.x, x)
    np.testing.assert_array_equal(st.averages.x_bar, x_bar)
    np.testing.assert_array_equal(st.averages.g_bar, g_bar)

    # Corrected epoch anchored at the bootstrap averages.
    acc_x2 = np.zeros(ds.dimension)
    acc_g2 = np.zeros(ds.dimension)
    for i in replay_rng.permutation(len(ds)):
        s = ds[int(i)]
        g_x = grad_sample(m, s, x)
        g_ref = grad_sample(m, s, x_bar)
        x = vr_step(x, g_x, g_ref, g_bar, eta)
        acc_x2 += x
        acc_g2 += g_x if accum == "reuse" else grad_sample(m, s, x)
    np.testing.assert_array_equal(st2.x, x)
    np.testing.assert_array_equal(st2.averages.x_bar, acc_x2 / len(ds))
    np.testing.assert_array_equal(st2.averages.g_bar, acc_g2 / len(ds))


@pytest.mark.parametrize("accum", ACCUM_MODES)
def test_sgd_epoch_replays_from_public_api(tiny_class, accum):
    """sgd_epoch is the epoch kernel without an anchor. From a non-zero
    state it must be bit-identical to a grad_sample loop over the same
    permutation, and the carried averages must not enter the steps."""
    ds, m = tiny_class
    eta, seed = 0.05, 17
    init_rng = np.random.default_rng(5)
    d = ds.dimension
    x0 = init_rng.standard_normal(d)
    start = OptState(x=x0.copy(),
                     averages=EpochAverages(init_rng.standard_normal(d),
                                            init_rng.standard_normal(d)))
    st = sgd_epoch(start, m, ds, eta, optimizer_rng(seed), accum_grad=accum)

    replay_rng = optimizer_rng(seed)
    x = x0.copy()
    acc_x = np.zeros(d)
    acc_g = np.zeros(d)
    for i in replay_rng.permutation(len(ds)):
        s = ds[int(i)]
        g = grad_sample(m, s, x)
        x = x - eta * g
        acc_x += x
        acc_g += g if accum == "reuse" else grad_sample(m, s, x)
    np.testing.assert_array_equal(st.x, x)
    np.testing.assert_array_equal(st.averages.x_bar, acc_x / len(ds))
    np.testing.assert_array_equal(st.averages.g_bar, acc_g / len(ds))
    np.testing.assert_array_equal(start.x, x0)


def test_epoch_averages_match_recorded_trajectory(tiny_ridge):
    """x_bar is the mean of the epoch's iterates and g_bar the mean of its
    step gradients, checked against independently recorded lists."""
    ds, m, _ = tiny_ridge
    eta = 0.01
    seed = 7
    rng = optimizer_rng(seed)
    st = vrlite_init(m, ds, eta, rng)
    st2 = vrlite_epoch(st, m, ds, eta, rng)

    replay_rng = optimizer_rng(seed)
    x = np.zeros(ds.dimension)
    for i in replay_rng.permutation(len(ds)):
        x = x - eta * grad_sample(m, ds[int(i)], x)
    iterates, step_grads = [], []
    x_bar, g_bar = st.averages.x_bar, st.averages.g_bar
    for i in replay_rng.permutation(len(ds)):
        s = ds[int(i)]
        x = vr_step(x, grad_sample(m, s, x), grad_sample(m, s, x_bar),
                    g_bar, eta)
        iterates.append(x)
        step_grads.append(grad_sample(m, s, x))
    np.testing.assert_allclose(st2.averages.x_bar,
                               np.mean(iterates, axis=0), atol=1e-12, rtol=0)
    np.testing.assert_allclose(st2.averages.g_bar,
                               np.mean(step_grads, axis=0), atol=1e-12, rtol=0)


def test_accum_mode_changes_averages_not_iterates(tiny_class):
    # Within one epoch the iterates depend only on the carried averages,
    # not on how the next averages are being accumulated.
    ds, m = tiny_class
    st = vrlite_init(m, ds, 0.02, optimizer_rng(11))
    a = vrlite_epoch(st, m, ds, 0.02, optimizer_rng(12), accum_grad="post")
    b = vrlite_epoch(st, m, ds, 0.02, optimizer_rng(12), accum_grad="reuse")
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.averages.x_bar, b.averages.x_bar)
    assert not np.array_equal(a.averages.g_bar, b.averages.g_bar)


def test_same_seed_same_trajectory(tiny_ridge):
    ds, m, _ = tiny_ridge

    def run(seed):
        rng = optimizer_rng(seed)
        st = vrlite_init(m, ds, 0.01, rng)
        for _ in range(3):
            st = vrlite_epoch(st, m, ds, 0.01, rng)
        return st.x

    np.testing.assert_array_equal(run(42), run(42))
    assert not np.array_equal(run(42), run(43))


def test_svrg_replays_from_public_api(tiny_ridge):
    ds, m, _ = tiny_ridge
    eta, seed = 0.01, 31
    rng = optimizer_rng(seed)
    x0 = np.linspace(-0.5, 0.5, ds.dimension)
    out = svrg_epoch(x0.copy(), m, ds, eta, rng)

    replay = optimizer_rng(seed)
    y = x0.copy()
    g_full = full_gradient(m, ds, y)
    x = x0.copy()
    for i in replay.integers(0, len(ds), size=2 * len(ds)):
        s = ds[int(i)]
        x = vr_step(x, grad_sample(m, s, x), grad_sample(m, s, y), g_full, eta)
    np.testing.assert_array_equal(out, x)


@pytest.mark.parametrize("algo,accum,first,evals", [
    ("vrlite", "post", True, 20), ("vrlite", "post", False, 30),   # 2, then 3
    ("vrlite", "reuse", True, 10), ("vrlite", "reuse", False, 20),  # 1, then 2
    ("sgd", "post", True, 20), ("sgd", "post", False, 20),
    ("sgd", "reuse", True, 10), ("sgd", "reuse", False, 10),
    ("svrg", "post", True, 50), ("svrg", "post", False, 50),  # n + 2n * 2
    ("svrg", "reuse", True, 50), ("svrg", "reuse", False, 50),
    ("saga", "post", True, 20), ("saga", "post", False, 10),  # fill, then n
    ("saga", "reuse", True, 20), ("saga", "reuse", False, 10),
])
def test_epoch_grad_evals_hand_values(algo, accum, first, evals):
    assert epoch_grad_evals(algo, 10, accum, first) == evals


def test_epoch_grad_evals_rejects_unknown_accum_mode():
    with pytest.raises(ValueError, match="accum_grad"):
        epoch_grad_evals("vrlite", 10, "lazy", False)


@pytest.mark.parametrize("toy", ["toy_class", "toy_ridge"])
def test_saga_epoch_replays_from_public_api(request, toy):
    """saga_epoch must be bit-identical to a saga_step loop over the same
    rng.integers stream, in the iterate and in the whole table state."""
    ds, m = request.getfixturevalue(toy)[:2]
    eta, seed = 1e-3, 41
    x0 = np.linspace(-0.2, 0.2, ds.dimension)
    st = saga_init(m, ds, x0)
    ref = saga_init(m, ds, x0)
    rng = optimizer_rng(seed)
    x, st = saga_epoch(x0, m, ds, st, eta, rng)
    x, st = saga_epoch(x, m, ds, st, eta, rng)

    replay = optimizer_rng(seed)
    y = x0
    for _ in range(2):
        for i in replay.integers(0, len(ds), size=len(ds)):
            y, ref = saga_step(y, int(i), m, ds, ref, eta)
    np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(st.grad_table, ref.grad_table)
    np.testing.assert_array_equal(st.table_mean, ref.table_mean)
    np.testing.assert_array_equal(x0, np.linspace(-0.2, 0.2, ds.dimension))


def test_saga_single_sample_is_gradient_descent():
    # With n=1 the table entry cancels against the running mean, so each
    # step is exact gradient descent on the one sample.
    ds, m = _single_sample_ridge()
    st = saga_init(m, ds, np.zeros(2))
    np.testing.assert_array_equal(st.grad_table, np.array([[-4.0, 0.0]]))
    np.testing.assert_array_equal(st.table_mean, np.array([-4.0, 0.0]))
    x, st = saga_step(np.zeros(2), 0, m, ds, st, 0.25)
    np.testing.assert_array_equal(x, np.array([1.0, 0.0]))
    x, st = saga_step(x, 0, m, ds, st, 0.25)
    np.testing.assert_array_equal(x, np.array([1.5, 0.0]))
    np.testing.assert_array_equal(st.grad_table[0], np.array([-2.0, 0.0]))


def test_saga_init_matches_per_sample_gradients(tiny_class):
    ds, m = tiny_class
    x0 = np.full(ds.dimension, 0.1)
    st = saga_init(m, ds, x0)
    per = np.stack([grad_sample(m, ds[i], x0) for i in range(len(ds))])
    np.testing.assert_allclose(st.grad_table, per, atol=1e-12, rtol=0)
    np.testing.assert_allclose(st.table_mean, per.mean(axis=0), atol=1e-12,
                               rtol=0)


def test_saga_incremental_mean_tracks_table(tiny_ridge):
    ds, m, _ = tiny_ridge
    rng = optimizer_rng(77)
    x = np.zeros(ds.dimension)
    st = saga_init(m, ds, x)
    for k, i in enumerate(rng.integers(0, len(ds), size=2000)):
        x, st = saga_step(x, int(i), m, ds, st, 0.005)
        if k % 250 == 0:
            np.testing.assert_allclose(st.table_mean,
                                       st.grad_table.mean(axis=0),
                                       atol=1e-12, rtol=0)
    np.testing.assert_allclose(st.table_mean, st.grad_table.mean(axis=0),
                               atol=1e-12, rtol=0)
    assert np.isfinite(x).all()


def test_saga_step_rejects_bad_index():
    ds, m = _single_sample_ridge()
    st = saga_init(m, ds, np.zeros(2))
    with pytest.raises(IndexError):
        saga_step(np.zeros(2), 1, m, ds, st, 0.1)
    with pytest.raises(IndexError):
        saga_step(np.zeros(2), -1, m, ds, st, 0.1)


def test_vrlite_makes_progress(tiny_ridge):
    ds, m, _ = tiny_ridge
    x0 = np.zeros(ds.dimension)
    rng = optimizer_rng(5)
    st = vrlite_init(m, ds, 0.01, rng)
    probes = {}
    for epoch in range(2, 17):
        st = vrlite_epoch(st, m, ds, 0.01, rng)
        if epoch in (2, 4, 8, 16):
            probes[epoch] = rel_grad_norm(m, ds, st.x, x0)
    assert probes[16] < probes[2]
    assert probes[16] < 1e-3
    # The min-so-far envelope over the probes never increases much; allow
    # stochastic wiggle between consecutive probes only downward overall.
    assert min(probes.values()) == probes[16]


def test_bias_of_average_anchor_is_finite_and_logged(tiny_class, capsys):
    """The correction anchor is biased: g_bar generally differs from the
    exact full gradient at x_bar. The gap must stay finite and the exact
    mean-over-samples identity must hold at the anchor point."""
    ds, m = tiny_class
    rng = optimizer_rng(9)
    st = vrlite_init(m, ds, 0.05, rng)
    st = vrlite_epoch(st, m, ds, 0.05, rng)
    anchor_grad = full_gradient(m, ds, st.averages.x_bar)
    bias = anchor_grad - st.averages.g_bar
    assert np.isfinite(bias).all()
    per = np.stack([grad_sample(m, ds[i], st.averages.x_bar)
                    for i in range(len(ds))])
    np.testing.assert_allclose(per.mean(axis=0), anchor_grad, atol=1e-12,
                               rtol=0)
    print(f"anchor bias norm: {np.linalg.norm(bias):.6e}")
