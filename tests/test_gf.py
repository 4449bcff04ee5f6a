import numpy as np
import pytest

from linenet.gf import _PRIMITIVE_POLY, GF2m, SUPPORTED_FIELD_SIZES, rank


@pytest.mark.parametrize("q", [2, 16])
def test_field_axioms_exhaustive(q):
    gf = GF2m(q)
    els = np.arange(q, dtype=np.uint32)
    a, b, c = np.meshgrid(els, els, els, indexing="ij")
    a, b, c = a.ravel(), b.ravel(), c.ravel()
    np.testing.assert_array_equal(gf.mul(a, b ^ c), gf.mul(a, b) ^ gf.mul(a, c))
    np.testing.assert_array_equal(gf.mul(a, b), gf.mul(b, a))
    np.testing.assert_array_equal(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)))
    nz = els[1:]
    np.testing.assert_array_equal(gf.mul(nz, gf.inv(nz)), np.ones(q - 1, dtype=np.uint32))
    np.testing.assert_array_equal(gf.mul(els, np.zeros_like(els)), np.zeros_like(els))


@pytest.mark.parametrize("q", [256, 65536])
def test_field_axioms_randomized(q):
    gf = GF2m(q)
    rng = np.random.default_rng(1)
    a = rng.integers(0, q, 20_000, dtype=np.uint32)
    b = rng.integers(0, q, 20_000, dtype=np.uint32)
    c = rng.integers(0, q, 20_000, dtype=np.uint32)
    np.testing.assert_array_equal(gf.mul(a, b ^ c), gf.mul(a, b) ^ gf.mul(a, c))
    np.testing.assert_array_equal(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)))
    nz = a[a != 0]
    np.testing.assert_array_equal(gf.mul(nz, gf.inv(nz)), np.ones(nz.size, dtype=np.uint32))


def test_unsupported_size_rejected():
    with pytest.raises(ValueError):
        GF2m(8)
    assert set(SUPPORTED_FIELD_SIZES) == {2, 16, 256, 65536}


def test_rank_small_cases():
    gf = GF2m(16)
    rows = np.array(
        [[1, 2, 0], [2, 4, 0], [0, 0, 5]], dtype=np.uint32
    )  # row2 = 2 * row1 over GF(16)
    assert rank(gf, rows) == 2
    assert rank(gf, np.zeros((3, 4), dtype=np.uint32)) == 0
    eye = np.eye(3, dtype=np.uint32)
    assert rank(gf, eye) == 3


def clmul_mod(a, b, q):
    """Table-free product: carry-less shift-and-xor modulo the field polynomial."""
    a = np.array(a, dtype=np.uint32)
    b = np.array(b, dtype=np.uint32)
    a, b = np.broadcast_arrays(a, b)
    a = a.copy()
    out = np.zeros(a.shape, dtype=np.uint32)
    for bit in range(q.bit_length() - 1):
        out ^= np.where((b >> np.uint32(bit)) & 1, a, 0).astype(np.uint32)
        a <<= np.uint32(1)
        a ^= np.where(a & np.uint32(q), np.uint32(_PRIMITIVE_POLY[q]), 0).astype(np.uint32)
    return out


@pytest.mark.parametrize("q", [2, 16, 256])
def test_mul_matches_table_free_product_exhaustive(q):
    gf = GF2m(q)
    a, b = np.meshgrid(np.arange(q, dtype=np.uint32), np.arange(q, dtype=np.uint32), indexing="ij")
    np.testing.assert_array_equal(gf.mul(a, b), clmul_mod(a, b, q))
    la = gf.logs(a)
    assert la.dtype == np.int32
    np.testing.assert_array_equal(gf.mul_logs(la, b), clmul_mod(a, b, q))


def test_mul_matches_table_free_product_q65536():
    q = 65536
    gf = GF2m(q)
    rng = np.random.default_rng(5)
    a = rng.integers(0, q, (200, 300), dtype=np.uint32)
    b = rng.integers(0, q, (200, 300), dtype=np.uint32)
    a[7] = 0  # an all-zero row
    b[:, 11] = 0  # an all-zero column
    got = gf.mul(a, b)
    np.testing.assert_array_equal(got, clmul_mod(a, b, q))
    assert not got[7].any() and not got[:, 11].any()
    # scalar and broadcast operand shapes
    for s in (0, 1, 2, 40503, q - 1):
        assert int(gf.mul(s, int(b[0, 0]))) == int(clmul_mod(s, b[0, 0], q))
        np.testing.assert_array_equal(gf.mul(np.uint32(s), b), clmul_mod(s, b, q))
    col, row = a[:, :1], b[:1, :]
    np.testing.assert_array_equal(gf.mul(col, row), clmul_mod(col, row, q))
    assert gf.mul(col, row).shape == (200, 300)
    # int32 logs against every operand, zero rows and columns included
    np.testing.assert_array_equal(gf.mul_logs(gf.logs(a), b), got)


@pytest.mark.parametrize("q", SUPPORTED_FIELD_SIZES)
def test_inv_of_zero_raises(q):
    gf = GF2m(q)
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf.inv(np.array([1, 0, 1], dtype=np.uint32))


@pytest.mark.parametrize("q", SUPPORTED_FIELD_SIZES)
def test_tables_are_built_once_per_field_and_read_only(q):
    a, b = GF2m(q), GF2m(q)
    assert a._exp is b._exp and a._log is b._log
    with pytest.raises(ValueError, match="read-only"):
        a._exp[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        a._log[1] = 0
