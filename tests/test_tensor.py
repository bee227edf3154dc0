import numpy as np
import pytest

from cdlora.rng import substream
from cdlora.tensor import (
    ArrayPool,
    GradTape,
    NonFiniteError,
    ShapeError,
    TapeError,
    Tensor,
    add,
    add_bias,
    concat_cols,
    embed_rows,
    empty,
    grad_check,
    matmul,
    mean_all,
    mul,
    neg,
    pad_cols,
    product,
    scale_rows,
    silu,
    sqrt,
    square,
    stopgrad,
    sub,
    sum_all,
    sum_rows,
    transpose,
)


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(matmul(eye, m).data, m.data)


def test_matmul_orthogonal_pick():
    a = Tensor([[1.0, 0.0]])
    b = Tensor([[0.0], [5.0]])
    np.testing.assert_array_equal(matmul(a, b).data, [[0.0]])


def test_matmul_shape_error_mentions_both_shapes():
    with pytest.raises(ShapeError) as err:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(err.value)


def test_matmul_gradient_vs_finite_differences():
    stream = substream(7, "test/matmul")
    a = Tensor(stream.normal((3, 4)), requires_grad=True)
    b = Tensor(stream.normal((4, 2)), requires_grad=True)
    rel = grad_check(lambda: sum_all(matmul(a, b)), [a, b], h=1e-5)
    assert rel < 1e-6


@pytest.mark.parametrize("n", range(1, 18))
def test_product_row_blocks_equal_whole_batch(n):
    # any block of 2 or more rows gets the whole product's bits, at every
    # column count, from a padded or an unpadded right operand
    stream = substream(9, f"test/product-{n}")
    for inner in (2, 34, 128):
        a = stream.normal((1000, inner))
        b = stream.normal((inner, n))
        whole = product(a, b)
        assert whole.shape == (1000, n)
        np.testing.assert_allclose(whole, a @ b, rtol=1e-12, atol=1e-12)
        buf = np.empty(256 * pad_cols(b).shape[1])
        for rows in (2, 3, 7, 129, 250, 256):
            for lo in (0, 1000 - rows - 5):
                block = a[lo:lo + rows]
                assert np.array_equal(product(block, b), whole[lo:lo + rows])
                assert np.array_equal(product(block, pad_cols(b), n, out=buf), whole[lo:lo + rows])


def test_pad_cols_appends_zero_columns_to_whole_groups():
    b = substream(10, "test/pad").normal((3, 5))
    padded = pad_cols(b)
    assert padded.shape == (3, 8)
    assert np.array_equal(padded[:, :5], b) and np.all(padded[:, 5:] == 0.0)
    whole = substream(10, "test/pad-whole").normal((3, 16))
    assert pad_cols(whole) is whole


@pytest.mark.parametrize("prim, frozen", [("matmul", "a"), ("matmul", "b"), ("add_bias", "b")],
                         ids=["matmul-a", "matmul-b", "add_bias-b"])
def test_backward_skips_frozen_operand(prim, frozen):
    stream = substream(8, f"test/{prim}-frozen")
    a_shape, b_shape = ((5, 3), (3, 4)) if prim == "matmul" else ((5, 4), (4,))
    a = Tensor(stream.normal(a_shape), requires_grad=frozen != "a")
    b = Tensor(stream.normal(b_shape), requires_grad=frozen != "b")
    g = stream.normal((5, 4))
    with GradTape() as tape:
        out = (matmul if prim == "matmul" else add_bias)(a, b)
        tape.backward(sum_all(mul(out, Tensor(g))))
    serial, index = out._mark
    assert serial == tape._serial
    _, bwd = tape._nodes[index]
    ga, gb = bwd(g)
    want_a, want_b = (g @ b.data.T, a.data.T @ g) if prim == "matmul" else (g, np.sum(g, axis=0))
    if frozen == "a":
        assert ga is None and a.grad is None
        assert np.array_equal(b.grad, want_b) and np.array_equal(gb, want_b)
    else:
        assert gb is None and b.grad is None
        assert np.array_equal(a.grad, want_a) and np.array_equal(ga, want_a)


def test_output_of_an_earlier_tape_is_a_leaf_on_the_next():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with GradTape():
        y = square(x)   # node 0 of a tape that never runs backward
    with GradTape() as tape:
        # node 0 of this tape is the mul; y's gradient must not land there
        tape.backward(sum_all(mul(y, 3.0)))
    assert np.array_equal(y.grad, [3.0, 3.0])
    assert x.grad is None


def test_add_example():
    out = add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_silu_fixes_origin():
    assert silu(Tensor([0.0])).data[0] == 0.0


def test_silu_gradient_at_one():
    x = Tensor([1.0], requires_grad=True)
    rel = grad_check(lambda: sum_all(silu(x)), [x], h=1e-5)
    assert rel < 1e-6


def _two_exp_silu(x):
    """Reference SiLU and its derivative from the two-exp sigmoid
    exp(min(x, 0)) / (1 + exp(-|x|)), which never overflows."""
    with np.errstate(under="ignore"):
        sig = np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))
        return x * sig, sig * (1.0 + x * (1.0 - sig))


def _silu_and_grad(x):
    xt = Tensor(x, requires_grad=True)
    with GradTape() as tape:
        y = silu(xt)
        tape.backward(sum_all(y))
    return y.data, xt.grad


def test_silu_matches_two_exp_reference():
    stream = substream(24, "test/silu-ref")
    x = np.concatenate([np.linspace(-700.0, 700.0, 200_001), 700.0 * (2.0 * stream.uniform(100_000) - 1.0),
                        5.0 * stream.normal(100_000)])
    y, g = _silu_and_grad(x)
    ref_y, ref_g = _two_exp_silu(x)
    nz = ref_y != 0.0
    assert np.array_equal(y[~nz], ref_y[~nz])
    assert np.max(np.abs(y[nz] - ref_y[nz]) / np.abs(ref_y[nz])) <= 6e-16
    assert np.max(np.abs(g - ref_g)) <= 4.5e-16
    # beyond |x| = 700 exp(-x) may overflow; the far-negative output is then -0.0
    tails = np.concatenate([np.linspace(-800.0, -700.0, 10_001), np.linspace(700.0, 800.0, 10_001),
                            [-1e300, 1e300]])
    y, _ = _silu_and_grad(tails)
    assert np.max(np.abs(y - _two_exp_silu(tails)[0])) <= 1e-300


def test_silu_edge_values_raise_nothing():
    x = np.concatenate([np.linspace(-800.0, 800.0, 16_001), [-1e300, 1e300]])
    with np.errstate(all="raise"):
        y, g = _silu_and_grad(x)
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(g))
    # below x = -709.78 the denominator 1 + exp(-x) is inf: -0.0 out, zero gradient
    far = x < -709.79
    assert np.all(y[far] == 0.0) and np.all(np.signbit(y[far]))
    assert np.all(g[far] == 0.0)
    assert y[-1] == 1e300 and g[-1] == 1.0


@pytest.mark.parametrize("center", [-30.0, 30.0])
def test_silu_gradient_in_the_tails(center):
    # sigmoid(-30) ~ 9e-14 needs full relative precision for this to hold
    x = Tensor(center + np.linspace(-0.5, 0.5, 6), requires_grad=True)
    assert grad_check(lambda: sum_all(silu(x)), [x]) <= 1e-4


def test_no_broadcast_beyond_scalar():
    with pytest.raises(ShapeError):
        add(Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))
    # scalar-by-tensor stays allowed
    out = mul(Tensor([1.0, 2.0]), 3.0)
    np.testing.assert_array_equal(out.data, [3.0, 6.0])


def test_backward_sum_gives_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with GradTape() as tape:
        loss = sum_all(x)
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_square_chain():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with GradTape() as tape:
        loss = sum_all(mul(x, x))
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with GradTape() as tape:
        y = square(x)
        with pytest.raises(ShapeError):
            tape.backward(y)


def test_backward_consumed_tape():
    x = Tensor([1.0], requires_grad=True)
    with GradTape() as tape:
        loss = sum_all(square(x))
        tape.backward(loss)
        with pytest.raises(TapeError):
            tape.backward(loss)


def test_unreachable_leaf_gets_zero():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0], requires_grad=True)
    with GradTape() as tape:
        _dead = square(y)
        loss = sum_all(square(x))
        tape.backward(loss)
    np.testing.assert_array_equal(y.grad, [0.0])


def test_stopgrad_blocks_gradient_exactly():
    x = Tensor([1.5, -0.5], requires_grad=True)
    with GradTape() as tape:
        loss = sum_all(square(stopgrad(x)))
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [0.0, 0.0])


def test_stopgrad_partial_path():
    # loss = (w*x - stopgrad(w*y))^2 differentiates only through the live branch
    w = Tensor([2.0], requires_grad=True)
    x, y = 3.0, 5.0
    with GradTape() as tape:
        live = mul(w, x)
        frozen = stopgrad(mul(w, y))
        loss = sum_all(square(sub(live, frozen)))
        tape.backward(loss)
    expected = 2.0 * (2.0 * x - 2.0 * y) * x
    np.testing.assert_allclose(w.grad, [expected])


def test_backward_deterministic_bitwise():
    stream = substream(11, "test/det")
    a = Tensor(stream.normal((5, 5)), requires_grad=True)
    b = Tensor(stream.normal((5, 5)), requires_grad=True)

    def run():
        a.grad = None
        b.grad = None
        with GradTape() as tape:
            loss = sum_all(silu(matmul(a, b)))
            tape.backward(loss)
        return a.grad.copy(), b.grad.copy()

    ga1, gb1 = run()
    ga2, gb2 = run()
    assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)


def test_array_pool_hands_out_only_released_arrays():
    pool = ArrayPool()
    first, second = pool.empty((3, 4)), pool.empty((3, 4))
    assert first is not second and first.shape == (3, 4) and first.dtype == np.float64
    view, first_id = first[:, :2], id(first)
    del first
    third = pool.empty((3, 4))   # first is still seen through the view
    assert id(third) != first_id and third is not second
    del view
    assert id(pool.empty((3, 4))) == first_id
    assert empty((3, 4)) is not second   # no pool is active
    with pool:
        assert id(empty((3, 4))) == first_id
        assert pool.empty((4, 3)).shape == (4, 3)


def _every_primitive_loss(x, w, b, s, table, ids):
    h = concat_cols([silu(add_bias(matmul(x, w), b)), embed_rows(table, ids)])
    h = scale_rows(sub(mul(h, 1.5), neg(square(h))), s)
    rows = sum_rows(transpose(transpose(h)))
    return add(mean_all(sqrt(add(square(h), 1.0))), sum_all(square(rows)))


def test_pooled_tape_gives_the_same_bits_and_reuses_its_arrays():
    stream = substream(29, "test/pool")
    leaves = [Tensor(stream.normal(shape), requires_grad=True)
              for shape in ((6, 5), (5, 4), (4,), (6,), (3, 2))]
    ids = np.array([0, 2, 1, 2, 0, 1])

    def step():
        for leaf in leaves:
            leaf.grad = None
        with GradTape() as tape:
            loss = _every_primitive_loss(*leaves, ids)
            tape.backward(loss)
        return float(loss.data), [leaf.grad.copy() for leaf in leaves]

    want_loss, want_grads = step()
    pool = ArrayPool()
    sizes = []
    for _ in range(3):
        with pool:
            got_loss, got_grads = step()
        assert got_loss == want_loss
        assert all(np.array_equal(g, w) for g, w in zip(got_grads, want_grads))
        sizes.append(sum(len(arrays) for arrays in pool._arrays.values()))
    assert sizes[0] > 0 and sizes[1] == sizes[2] == sizes[0]


def test_primitive_gradients_randomized_shapes():
    # every primitive against central differences on shapes up to 8x8
    stream = substream(23, "test/prims")
    for trial in range(5):
        m = int(stream.integers(1, 1, 8)[0])
        n = int(stream.integers(1, 1, 8)[0])
        x = Tensor(stream.normal((m, n)), requires_grad=True)
        y = Tensor(stream.normal((m, n)), requires_grad=True)
        b = Tensor(stream.normal(n), requires_grad=True)
        s = Tensor(stream.normal(m), requires_grad=True)
        cases = [
            (lambda: sum_all(add(x, y)), [x, y]),
            (lambda: sum_all(sub(x, y)), [x, y]),
            (lambda: sum_all(mul(x, y)), [x, y]),
            (lambda: sum_all(silu(x)), [x]),
            (lambda: sum_all(square(x)), [x]),
            (lambda: sum_all(add_bias(x, b)), [x, b]),
            (lambda: sum_all(scale_rows(x, s)), [x, s]),
            (lambda: sum_all(square(sum_rows(x))), [x]),
            (lambda: mean_all(concat_cols([x, y])), [x, y]),
            (lambda: sum_all(transpose(x)), [x]),
        ]
        for f, params in cases:
            assert grad_check(f, params, h=1e-5) < 1e-6


def test_embed_rows_accumulates_repeats():
    table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    ids = np.array([0, 2, 0])
    with GradTape() as tape:
        loss = sum_all(embed_rows(table, ids))
        tape.backward(loss)
    np.testing.assert_array_equal(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_embed_rows_rejects_bad_ids():
    table = Tensor(np.zeros((3, 2)))
    with pytest.raises(IndexError):
        embed_rows(table, np.array([3]))


def test_sqrt_gradient():
    # the pseudo-Huber distance's only primitive that the l2 path never runs
    x = Tensor(0.5 + substream(29, "test/sqrt").uniform(6), requires_grad=True)
    assert grad_check(lambda: sum_all(sqrt(x)), [x], h=1e-5) < 1e-6


def test_grad_check_simple_square():
    x = Tensor([3.0], requires_grad=True)
    rel = grad_check(lambda: sum_all(square(x)), [x], h=1e-5)
    assert rel < 1e-9


def test_grad_check_constant_function():
    x = Tensor([1.0], requires_grad=True)
    const = Tensor([4.0])
    rel = grad_check(lambda: sum_all(square(const)), [x], h=1e-5)
    assert rel == 0.0


def test_grad_check_rejects_bad_step():
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda: sum_all(square(x)), [x], h=1e-3)


def test_tensor_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.inf])


def test_nested_tapes_rejected():
    with GradTape():
        with pytest.raises(TapeError):
            with GradTape():
                pass
