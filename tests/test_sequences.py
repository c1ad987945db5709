import math
import time
import tracemalloc
from fractions import Fraction

import pytest

from hyperseq.errors import DomainError
from hyperseq.exactnum import reciprocal_partial_sums
from hyperseq.sequences import (
    CLOSED_MEMO_SIZE,
    HyperharmonicMethod,
    alpha,
    beta,
    fibonacci,
    gen_harmonic,
    harmonic,
    hyperharmonic,
    hyperharmonic_half_integer_alt,
    hyperharmonic_neg,
    hyperharmonic_rational_order,
)

F = Fraction

ALL_METHODS = list(HyperharmonicMethod)


class TestHarmonic:
    def test_values(self):
        assert harmonic(0) == 0
        assert harmonic(-3) == 0
        assert harmonic(1) == 1
        assert harmonic(3) == F(11, 6)

    def test_gen_harmonic(self):
        assert gen_harmonic(3, 2) == F(49, 36)
        assert gen_harmonic(0, 5) == 0
        assert gen_harmonic(-1, 2) == 0
        for n in range(12):
            assert gen_harmonic(n, 1) == harmonic(n)

    def test_gen_harmonic_nonpositive_order(self):
        assert gen_harmonic(4, 0) == 4
        assert gen_harmonic(3, -1) == 6
        assert gen_harmonic(3, -2) == 14


class TestHyperharmonic:
    def test_first_column_is_one(self):
        for r in range(1, 20):
            assert hyperharmonic(1, r) == 1

    def test_examples(self):
        assert hyperharmonic(2, 3) == F(7, 2)
        assert hyperharmonic(3, 2) == F(13, 3)
        assert hyperharmonic(0, 5) == 0
        assert hyperharmonic(4, 0) == F(1, 4)

    def test_0_0_is_domain_error(self):
        with pytest.raises(DomainError):
            hyperharmonic(0, 0)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_def_oracle_agreement(self, method):
        # Brute-force iterated sums, independent of every method under test.
        # Orders up to 140 take the recurrence in r through two gcd steps.
        rows = {0: [F(0)] + [F(1, k) for k in range(1, 31)]}
        for r in range(1, 141):
            prev = rows[r - 1]
            row = [F(0)]
            for n in range(1, 31):
                row.append(row[-1] + prev[n])
            rows[r] = row
        for r in range(1, 141):
            for n in range(31):
                assert hyperharmonic(n, r, method) == rows[r][n], (n, r)

    def test_lower_recurrence(self):
        for n in range(1, 30):
            for r in range(1, 10):
                assert hyperharmonic(n, r + 1) == alpha(n, r) * hyperharmonic(
                    n - 1, r + 1
                ) + beta(n, r)

    def test_upper_recurrence(self):
        for n in range(1, 30):
            for r in range(1, 10):
                assert (alpha(n, r) - 1) * hyperharmonic(n, r + 1) == alpha(
                    n, r
                ) * hyperharmonic(n, r) - beta(n, r)

    def test_pascal_type(self):
        for n in range(1, 30):
            for r in range(1, 10):
                assert hyperharmonic(n, r + 1) == hyperharmonic(n, r) + hyperharmonic(
                    n - 1, r + 1
                )

    def test_second_order_closed_form(self):
        for n in range(1, 201):
            assert hyperharmonic(n, 2) == (n + 1) * harmonic(n) - n

    def test_closed_form_at_a_large_order_leaves_the_h_table_alone(self):
        # for r > n the closed form sums 1/j over j = r..n+r-1 itself, where
        # reading H(n+r-1) would first grow the H table to 10**6 entries
        from hyperseq import sequences

        harmonic(1)  # row 1 exists from here on
        size = len(sequences._gen_harmonic_prefix[1])
        sequences._hyper_closed.cache_clear()
        start = time.perf_counter()
        h = hyperharmonic(3, 10**6)
        assert time.perf_counter() - start < 0.1
        assert h == hyperharmonic(3, 10**6, HyperharmonicMethod.CONV)
        assert h == hyperharmonic(3, 10**6, HyperharmonicMethod.REC_LOWER)
        assert len(sequences._gen_harmonic_prefix[1]) == size

    def test_def_at_a_large_order_stores_only_that_order(self):
        # the DEF row at r = 10**5 is built whole by the r-fold kernel: four
        # values, not one table row per order 2..10**5
        from hyperseq import sequences

        keys = set(sequences._def_rows)
        h = hyperharmonic(3, 10**5, HyperharmonicMethod.DEF)
        assert h == hyperharmonic(3, 10**5, HyperharmonicMethod.CLOSED)
        assert set(sequences._def_rows) == keys | {10**5}


class TestReciprocalPartialSums:
    @pytest.mark.parametrize("r", [1, 2, 3, 7, 30])
    @pytest.mark.parametrize("n", [0, 1, 5, 12])
    def test_matches_the_closed_form(self, r, n):
        # h(i, r) = C(i+r-1, r-1) (H(i+r-1) - H(r-1)), summed here from 1/j
        nums, d = reciprocal_partial_sums(r, n)
        assert len(nums) == n + 1
        for i in range(n + 1):
            tail = sum((F(1, j) for j in range(r, i + r)), F(0))
            assert F(nums[i], d) == math.comb(i + r - 1, r - 1) * tail, (i, r)


class TestNegativeOrder:
    def test_examples(self):
        assert hyperharmonic_neg(3, 1) == F(-1, 6)
        assert hyperharmonic_neg(1, 5) == 1
        assert hyperharmonic_neg(2, 3) == 0
        assert hyperharmonic_neg(5, 2) == F(1, 30)

    def test_bad_args(self):
        with pytest.raises(DomainError):
            hyperharmonic_neg(0, 1)
        with pytest.raises(DomainError):
            hyperharmonic_neg(2, 0)

    def test_matches_downward_recurrence(self):
        # Iterate h(n, s-1) = h(n, s) - h(n-1, s) down from the order-zero
        # row and compare on the n > r region where the closed form applies.
        top = 31
        row = [None] + [F(1, n) for n in range(1, top + 1)]  # order 0
        for r in range(1, 30):  # row becomes order -r
            nxt = [None] * (top + 1)
            for n in range(r + 1, top + 1):
                if row[n] is not None and row[n - 1] is not None:
                    nxt[n] = row[n] - row[n - 1]
            row = nxt
            for n in range(2, top + 1):
                if r < n:
                    assert hyperharmonic_neg(n, r) == row[n], (n, r)


class TestRationalOrder:
    def test_integer_consistency(self):
        for n in range(1, 12):
            for r in range(1, 8):
                assert hyperharmonic_rational_order(n, F(r)) == hyperharmonic(n, r)

    def test_half_values(self):
        assert hyperharmonic_rational_order(1, F(1, 2)) == 1
        assert hyperharmonic_rational_order(2, F(1, 2)) == 1

    def test_pole_names_offset(self):
        with pytest.raises(DomainError, match="i=2"):
            hyperharmonic_rational_order(4, F(-2))

    def test_alt_convention_base(self):
        # At order 1/2 the alternative reading is C(n-1/2,n)(H(2n)-H(n)).
        from hyperseq.exactnum import binomial_general

        for n in range(1, 15):
            expected = binomial_general(F(n) - F(1, 2), n) * (
                harmonic(2 * n) - harmonic(n)
            )
            assert hyperharmonic_half_integer_alt(n, F(1, 2)) == expected

    def test_alt_convention_rejects_non_half(self):
        with pytest.raises(DomainError):
            hyperharmonic_half_integer_alt(3, F(1, 3))


class TestBoundedMemos:
    @pytest.mark.parametrize(
        "fn, order",
        [
            (hyperharmonic_rational_order, lambda i: F(1, i + 2)),
            (hyperharmonic_half_integer_alt, lambda i: F(2 * i + 1, 2)),
        ],
    )
    def test_distinct_orders_stay_within_the_bound(self, fn, order):
        fn.cache_clear()
        try:
            for i in range(CLOSED_MEMO_SIZE + 10):
                fn(1, order(i))
            assert fn.cache_info().currsize <= CLOSED_MEMO_SIZE
        finally:
            fn.cache_clear()


class TestCoefficients:
    def test_examples(self):
        assert alpha(2, 3) == F(5, 2)
        assert beta(2, 1) == 1

    def test_symmetries(self):
        for n in range(1, 21):
            for r in range(1, 21):
                assert beta(n, r) == beta(r, n)
                assert alpha(n, r) == F(r, n) * alpha(r, n)


class TestOneHarmonicTable:
    def test_def_table_reads_the_h_list(self):
        # H, H(n; 1) and the DEF row of order 1 agree on H(700).
        h700 = hyperharmonic(700, 3, HyperharmonicMethod.DEF)
        assert h700 == hyperharmonic(700, 3, HyperharmonicMethod.CONV)
        expected = sum((F(1, k) for k in range(1, 701)), F(0))
        assert harmonic(700) == gen_harmonic(700, 1) == expected
        assert hyperharmonic(700, 1, HyperharmonicMethod.DEF) == expected


class TestConcurrency:
    def test_caches_safe_under_threads(self):
        # Fresh-ish stress: many threads hammer every cached family at once
        # and every result must match a serially computed table.
        import concurrent.futures

        expected_h = {
            (n, r): hyperharmonic(n, r, HyperharmonicMethod.CONV)
            for n in range(0, 40)
            for r in range(1, 8)
        }
        expected_g = {
            (n, m): sum((F(1, k**m) if m > 0 else F(k**-m) for k in range(1, n + 1)), F(0))
            for n in range(0, 40)
            for m in range(-2, 4)
        }

        def worker(seed):
            import random

            rng = random.Random(seed)
            for _ in range(200):
                n = rng.randint(0, 39)
                r = rng.randint(1, 7)
                m = rng.randint(-2, 3)
                method = rng.choice(ALL_METHODS)
                assert hyperharmonic(n, r, method) == expected_h[(n, r)]
                assert gen_harmonic(n, m) == expected_g[(n, m)]
                fibonacci(rng.randint(-60, 60))
            return seed

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            assert sorted(pool.map(worker, range(16))) == list(range(16))


    def test_warm_def_read_takes_no_lock(self):
        # A DEF value already in the table is read without the lock; one
        # beyond the table still waits for it.
        import threading

        from hyperseq import sequences

        def_ = HyperharmonicMethod.DEF
        warm = hyperharmonic(150, 20, def_)
        cold_n = max(151, len(sequences._def_rows[20]))
        cold_expected = hyperharmonic(cold_n, 20, HyperharmonicMethod.CONV)
        keys = set(sequences._def_rows)
        results = {}

        def read(n):
            results[n] = hyperharmonic(n, 20, def_)

        with sequences._lock:
            fast = threading.Thread(target=read, args=(150,))
            fast.start()
            fast.join(timeout=5)
            assert not fast.is_alive()
            assert results[150] == warm
            assert set(sequences._def_rows) == keys
            slow = threading.Thread(target=read, args=(cold_n,))
            slow.start()
            slow.join(timeout=0.2)
            assert slow.is_alive()
        slow.join(timeout=5)
        assert not slow.is_alive()
        assert results[cold_n] == cold_expected


class TestFibonacci:
    def test_examples(self):
        assert fibonacci(10) == 55
        assert fibonacci(0) == 0
        assert fibonacci(1) == 1
        assert fibonacci(-1) == 1
        assert fibonacci(-2) == -1
        assert fibonacci(-3) == 2

    def test_recurrence_both_signs(self):
        for k in range(-40, 41):
            assert fibonacci(k) == fibonacci(k - 1) + fibonacci(k - 2)

    def test_sign_rule(self):
        for k in range(0, 41):
            assert fibonacci(-k) == (-1) ** (k + 1) * fibonacci(k)

    def test_equals_the_plain_loop(self):
        # up from F(0), F(1) by F(k) = F(k-1) + F(k-2), down by
        # F(k) = F(k+2) - F(k+1), so the downward loop checks the sign rule
        fib = {0: 0, 1: 1}
        for k in range(2, 1001):
            fib[k] = fib[k - 1] + fib[k - 2]
        for k in range(-1, -1001, -1):
            fib[k] = fib[k + 2] - fib[k + 1]
        for k in range(-1000, 1001):
            assert fibonacci(k) == fib[k], k

    def test_keeps_no_table(self):
        # a table of F(0..k) would hold about k^2 / 3 bits: 40 MB here
        tracemalloc.start()
        try:
            fibonacci(3 * 10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_large_index_mod_a_prime(self):
        p = 1_000_000_007
        a, b = 0, 1
        for _ in range(10**5):
            a, b = b, (a + b) % p
        assert fibonacci(10**5) % p == a
