import pytest

from q8family import modp
from q8family.errors import UsageError
from q8family.modp import Mat2, is_odd_prime, odd_primes


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


def test_miller_rabin_agrees_with_trial_division_below_10_5():
    def by_trial(n):
        return all(n % d for d in range(3, int(n ** 0.5) + 1, 2))

    assert [n for n in range(3, 10 ** 5, 2) if is_odd_prime(n)] == [
        n for n in range(3, 10 ** 5, 2) if by_trial(n)]


@pytest.mark.parametrize("n", [
    3215031751,                  # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,         # ... to every prime base up to 23
    318665857834031151167461,    # ... up to 37
])
def test_strong_pseudoprimes_are_refused(n):
    assert not is_odd_prime(n)


def test_large_primes_are_found_by_miller_rabin():
    assert is_odd_prime(10 ** 18 + 3) and is_odd_prime(2 ** 61 - 1) and is_odd_prime(2 ** 31 - 1)
    assert not is_odd_prime((2 ** 31 - 1) * (2 ** 32 + 15)) and not is_odd_prime(10 ** 18 + 1)


def test_an_odd_input_past_the_proven_bound_is_refused():
    limit = modp._MILLER_RABIN_BELOW
    assert type(is_odd_prime(limit - 2)) is bool and not is_odd_prime(limit + 1)  # decided; even
    for n in (limit, 2 ** 89 - 1):  # the smallest 13-base strong pseudoprime; a Mersenne prime
        with pytest.raises(UsageError, match=f"p={n}: too large to test for primality"):
            is_odd_prime(n)
        with pytest.raises(UsageError, match="too large to test"):
            odd_primes(n, n + 100, 97)


class TestOddPrimes:
    def test_odd_primes_of_a_range(self):
        assert odd_primes(1, 20) == [3, 5, 7, 11, 13, 17, 19]
        assert odd_primes(3, 13, 13) == [3, 5, 7, 11, 13]
        assert odd_primes(97, 103) == [97, 101, 103]  # no bound unless one is given

    def test_walk_stops_at_the_first_prime_past_the_bound(self, monkeypatch):
        for hi, bound, past in ((10 ** 9, 97, 101), (100000, 7, 11)):
            tested = []

            def counted(p):
                tested.append(p)
                if len(tested) > 1000:
                    raise AssertionError("the range was walked past the first prime beyond the bound")
                return is_odd_prime(p)

            monkeypatch.setattr(modp, "is_odd_prime", counted)
            with pytest.raises(UsageError, match=f"p={past} exceeds the prime bound {bound}"):
                odd_primes(3, hi, bound)
            # require_odd_prime tests each prime once more
            assert sorted(set(tested)) == list(range(3, past + 1))
