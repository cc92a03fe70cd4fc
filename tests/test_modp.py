from q8family.modp import Mat2, is_odd_prime


class TestMat2:
    def test_make_reduces(self):
        m = Mat2.make(5, -1, 7, 3, 3)
        assert m.entries() == (2, 2, 1, 0)

    def test_det_and_inverse(self):
        m = Mat2.make(0, -1, 1, 0, 7)
        assert m.det() == 1
        assert m * m.inv() == Mat2.identity(7)
        assert m.inv() * m == Mat2.identity(7)

    def test_transpose_neg(self):
        m = Mat2.make(1, 2, 3, 4, 5)
        assert m.neg().entries() == (4, 3, 2, 1)


def test_is_odd_prime():
    assert [n for n in range(2, 20) if is_odd_prime(n)] == [3, 5, 7, 11, 13, 17, 19]
    assert not is_odd_prime(2)
    assert not is_odd_prime(1)
    assert not is_odd_prime(9)
