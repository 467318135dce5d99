"""Group layer: construction, curve arithmetic, pairing, encodings, hashing.

The small 5x7 group is fully enumerable, so most algebraic claims are checked
against the naive chord-and-tangent oracle in support.py rather than against
the code under test.
"""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringauction import group as group_module
from ringauction.group import (
    _MAX_ELL_BITS,
    MAX_PRIME_BITS,
    GroupError,
    GtElement,
    InvalidPoint,
    OpCounter,
    PairingGroup,
    ParameterSearchExhausted,
    _double_and_add,
    _jacobi,
    _point_mul,
    _random_point,
    _to_affine,
    _window_table,
    _strong_lucas_probable_prime,
    check_point_bytes,
    check_public_group,
    count_ops,
    decode_point_bytes,
    gen_group_params,
    group_from_primes,
    hash_to_bits,
    is_probable_prime,
    jacobian,
)
from ringauction.ringsig import (
    Ring,
    public_params_from_json,
    public_params_to_json,
    setup,
    sign,
    verify,
)

from .support import (
    PSI_12,
    TWELVE_BASES,
    all_curve_points,
    cofactor_torsion,
    is_prime_trial_division,
    naive_add,
    naive_in_group,
    naive_jacobi,
    naive_mul,
    naive_neg,
    naive_on_curve,
    naive_order,
    naive_pair,
    prime_factors,
    primes_below,
    strong_probable_prime,
    torsion_shifts,
)


def _outcome(read, data: bytes, ell: int) -> str:
    # What a point reader makes of an encoding: its InvalidPoint message, or
    # "decodes".
    try:
        read(data, ell)
    except InvalidPoint as exc:
        return str(exc)
    return "decodes"


def _check_pair(group, P, Q):
    # pair matches the oracle, with a value in G_T, for a first argument in
    # G_n, and refuses any other one, as its Miller loop ends at [n]P != O.
    n, ell = group.n, group.ell
    if naive_mul(n, P, ell) is not None:
        with pytest.raises(InvalidPoint, match="outside the order-n subgroup"):
            group.pair(P, Q)
        return
    z = group.pair(P, Q)
    assert (z.re, z.im) == naive_pair(P, Q, n, ell), (P, Q)
    assert (z ** n).is_one(), (P, Q)


def _signed_digits(k: int, rows: int) -> list[int]:
    # The recoding a window mul walks, written out as the reference: the
    # base-32 digits -15..16 of k, least significant first.
    digits = []
    for _ in range(rows):
        d = k % 32 - 32 * (k % 32 > 16)
        digits.append(d)
        k = (k - d) // 32
    assert k == 0, "k does not fit the rows"
    return digits


def _fresh(group):
    # A new PairingGroup on group's public values, with none of its tables.
    return PairingGroup(group.n, group.ell, group.g, group.h)


def _member_proof(group, e, commit, key, signer):
    # One slot's proof by the two calls sign makes: member_base, then member_proof_jac.
    (base,) = group.to_affine(group.member_base(jacobian(commit), key, signer))
    return group.to_affine(group.member_proof_jac(e, base, key, signer))[0]


def _signed_window_scalars(n: int) -> list[int]:
    """Scalars below n that put every digit the recoding can give into every
    row of a window table, k = 15, 16 and 17 (mod 32) at each row with and
    without a carry in, n - 1, and the largest k < n whose recoding carries
    into the top row."""
    rows = n.bit_length() // 5 + 1
    top = 32 ** (rows - 1)

    def below_top(digits):  # those digits below the top row, then a top digit of 0 or 1
        k = sum(d * 32 ** i for i, d in enumerate(digits))
        return k + top * (k < 0)

    # The rows below the top hold k mod top up to 16 * (top - 1) / 31; past it they carry.
    last = n - 1 if (n - 1) % top > 16 * (top - 1) // 31 else n - 1 - (n - 1) % top - 1
    highest = max(_signed_digits(n - 1, rows)[-1], _signed_digits(last, rows)[-1])
    scalars = [n - 1, last, *(d * top for d in range(1, highest))]
    scalars += [below_top([d] * (rows - 1)) for d in range(-15, 17)]
    # A digit d means k = d (mod 32) at its row.  d alternates with w across
    # the rows: w = -1 below d carries into its row, w = 1 does not.
    scalars += [below_top([(d, w)[(i + phase) % 2] for i in range(rows - 1)])
                for d in (15, 16, -15) for w in (-1, 1) for phase in (0, 1)]
    assert all(0 <= k < n for k in scalars)
    recoded = [_signed_digits(k, rows) for k in scalars]
    assert [set(row) for row in zip(*recoded)] == [set(range(-15, 17))] * (rows - 1) + [
        set(range(highest + 1))]
    for i in range(1, rows - 1):
        seen = {(digits[i - 1] < 0, digits[i]) for digits in recoded}
        assert {(c, d) for c in (False, True) for d in (15, 16, -15)} <= seen
    assert _signed_digits(last, rows)[-1] == last // top + 1
    return scalars


# ---------------------------------------------------------------------------
# construction

class TestConstruction:
    def test_known_small_pair(self, tiny_params):
        assert tiny_params.group.n == 35
        assert tiny_params.r == 4
        assert tiny_params.group.ell == 139

    def test_known_second_pair(self):
        params = group_from_primes(11, 13, random.Random(2))
        assert params.group.n == 143
        assert params.r == 4
        assert params.group.ell == 571

    def test_equal_primes_rejected(self):
        with pytest.raises((GroupError, ValueError)):
            group_from_primes(7, 7, random.Random(0))

    def test_field_size_relation(self, tiny_params):
        # The curve group has ell + 1 points, and the search guarantees the
        # cofactor is a multiple of 4 so that the field size is odd.
        p = tiny_params
        assert p.group.ell == p.group.n * p.r - 1
        assert p.r % 4 == 0
        assert p.group.ell % 4 == 3
        assert is_prime_trial_division(p.group.ell)

    def test_curve_group_order(self, tiny_params):
        # |E(F_139)| = 140 points for y^2 = x^3 + x, identity included.
        assert len(all_curve_points(tiny_params.group.ell)) == tiny_params.group.ell + 1

    def test_generator_orders_brute_force(self, tiny_params):
        p = tiny_params
        assert naive_order(p.group.g, p.group.ell, 2 * p.group.n) == p.group.n
        assert naive_order(p.group.h, p.group.ell, 2 * p.group.n) == 7  # the secret factor q

    def test_generated_params_validate(self, params16):
        grp = params16.group
        encoded = (grp.encode_point(grp.g), grp.encode_point(grp.h))
        assert check_public_group(grp.n, grp.ell, *encoded) == (grp.g, grp.h)
        assert params16.p != params16.q
        assert params16.p.bit_length() == 16
        assert params16.q.bit_length() == 16
        assert params16.group.ell % 4 == 3
        assert (params16.group.ell + 1) % params16.group.n == 0

    def test_generation_deterministic(self):
        a = gen_group_params(16, 16, random.Random(9))
        b = gen_group_params(16, 16, random.Random(9))
        assert (a.p, a.q, a.r, a.group.g, a.group.h) == (b.p, b.q, b.r, b.group.g, b.group.h)

    def test_too_small_bit_request(self):
        with pytest.raises(ValueError):
            gen_group_params(4, 4, random.Random(0))

    def test_too_large_bit_request(self):
        with pytest.raises(ValueError):
            gen_group_params(16, MAX_PRIME_BITS + 1, random.Random(0))

    def test_ell_cap_holds_at_the_largest_primes(self):
        # ell = p*q*r - 1 with p, q below 2^MAX_PRIME_BITS and r at the limit
        largest = (1 << MAX_PRIME_BITS) - 1
        assert (largest * largest * 100_000 - 1).bit_length() <= _MAX_ELL_BITS

    def test_primality_against_trial_division(self):
        for m in range(2000):
            assert is_probable_prime(m) == is_prime_trial_division(m), m

    def test_composite_factor_refused(self):
        with pytest.raises(ValueError, match="both factors must be prime"):
            group_from_primes(9, 7, random.Random(1))

    def test_cofactor_search_exhausted(self, monkeypatch):
        # n = 55: r = 4 gives ell = 219 = 3 * 73, and the bound stops there.
        monkeypatch.setattr(group_module, "_R_SEARCH_LIMIT", 4)
        with pytest.raises(ParameterSearchExhausted, match="55\\*r - 1 with r <= 4"):
            group_from_primes(5, 11, random.Random(1))

    @pytest.mark.parametrize("p, q", [(2, 7), (7, 2)])
    def test_even_factor_refused_at_once(self, p, q):
        # n = 2q is even, which check_public_group refuses; the generator
        # search used to run forever on it.
        with pytest.raises(ValueError, match="odd"):
            group_from_primes(p, q, random.Random(1))


# ---------------------------------------------------------------------------
# primality (Baillie-PSW) and the Jacobi symbol

class TestPrimality:
    def test_agrees_with_trial_division_below_a_million(self):
        flags = primes_below(10**6)
        assert all(flags[m] == is_prime_trial_division(m) for m in range(5000))
        wrong = [m for m in range(10**6) if is_probable_prime(m) != flags[m]]
        assert wrong == []

    def test_psi_12_is_composite(self):
        # The least composite that passes Miller-Rabin to the first twelve
        # prime bases, which the test used to run below 3.3e24.
        assert PSI_12 == 399165290221 * 798330580441
        assert all(strong_probable_prime(PSI_12, a) for a in TWELVE_BASES)
        assert not is_probable_prime(PSI_12)

    def test_strong_pseudoprime_to_the_bases_up_to_23_is_composite(self):
        m = 3825123056546413051
        assert m == 149491 * 747451 * 34233211
        assert all(strong_probable_prime(m, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23))
        assert not is_probable_prime(m)

    @pytest.mark.parametrize("m", [5459, 5777, 10877])
    def test_strong_lucas_pseudoprimes(self, m):
        # Composites that pass the strong Lucas test with Selfridge's
        # parameters; the base-2 test catches them.
        assert not is_prime_trial_division(m)
        assert _strong_lucas_probable_prime(m)
        assert not strong_probable_prime(m, 2)
        assert not is_probable_prime(m)

    @pytest.mark.parametrize("p", [1093, 3511])
    def test_square_of_a_wieferich_prime_is_composite(self, p):
        # p^2 passes the base-2 test, and no D has (D/p^2) = -1.
        assert strong_probable_prime(p * p, 2)
        assert not is_probable_prime(p * p)

    def test_lucas_test_refuses_a_square_at_once(self, monkeypatch):
        # No D has (D/m) = -1 when m is a square, so the search for one would
        # run until |D| reached a factor of m.
        calls = []

        def counting(a, m):
            calls.append(a)
            assert len(calls) < 50, "the search for D does not end"
            return _jacobi(a, m)

        monkeypatch.setattr(group_module, "_jacobi", counting)
        assert not _strong_lucas_probable_prime(((1 << 61) - 1) ** 2)
        assert calls == []

    def test_agrees_with_twelve_bases_below_psi_12(self):
        rng = random.Random(17)
        samples = [rng.randrange(1 << 39, PSI_12) | 1 for _ in range(3000)]
        while len(samples) < 3100:  # products of two primes, the hard case
            p, q = (rng.randrange(1 << 20, 1 << 38) | 1 for _ in range(2))
            if is_probable_prime(p) and is_probable_prime(q):
                samples.append(p * q)
        for m in samples:
            oracle = all(strong_probable_prime(m, a) for a in TWELVE_BASES)
            assert is_probable_prime(m) == oracle, m

    def test_large_primes_and_composites(self):
        assert is_probable_prime((1 << 127) - 1)
        assert is_probable_prime((1 << 521) - 1)
        assert not is_probable_prime((1 << 67) - 1)  # 193707721 * 761838257287
        assert not is_probable_prime(((1 << 127) - 1) * ((1 << 521) - 1))

    def test_jacobi_matches_euler_products_for_small_moduli(self):
        for m in range(1, 2000, 2):
            for a in [*range(m), -1, -2, -m - 5, m, 3 * m + 1]:
                assert _jacobi(a, m) == naive_jacobi(a, m), (a, m)

    @pytest.mark.parametrize("bits", (16, 32, 64))
    def test_jacobi_matches_euler_criterion_at_size(self, bits):
        rng = random.Random(bits)
        for _ in range(5):
            ell = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            while not is_probable_prime(ell):
                ell += 2
            for z in [0, 1, ell - 1] + [rng.randrange(ell) for _ in range(300)]:
                euler = pow(z, (ell - 1) // 2, ell)
                assert _jacobi(z, ell) == {0: 0, 1: 1, ell - 1: -1}[euler], (z, ell)


# ---------------------------------------------------------------------------
# the one owner of public group validity

class TestCheckPublicGroup:
    def test_accepts_built_groups(self, tiny_params, params16):
        for params in (tiny_params, params16):
            grp = params.group
            encoded = (grp.encode_point(grp.g), grp.encode_point(grp.h))
            assert check_public_group(grp.n, grp.ell, *encoded) == (grp.g, grp.h)

    def test_decodes_encoded_generators(self, tiny_params):
        grp = tiny_params.group
        encoded = (grp.encode_point(grp.g), grp.encode_point(grp.h))
        assert check_public_group(grp.n, grp.ell, *encoded) == (grp.g, grp.h)

    @pytest.mark.parametrize("n, ell, reason", [
        (35, (1 << _MAX_ELL_BITS) + 139, "at most"),  # before anything else
        (70, 139, "odd"),
        (1, 139, "odd"),
        (-35, -141, "odd"),
        (33, 139, "divide"),
        (7, 13, "multiple of 4"),  # ell = 1 (mod 4)
        (7, 7 * 100_004 - 1, "must lie in"),
        (35, 279, "ell must be prime"),  # 279 = 9 * 31
    ], ids=["ell-over-cap", "n-even", "n-one", "n-negative", "n-not-dividing",
            "r-not-4k", "r-over-limit", "ell-composite"])
    def test_refuses_each_invariant(self, tiny_params, n, ell, reason):
        grp = tiny_params.group
        with pytest.raises(GroupError, match=reason):
            check_public_group(n, ell, grp.encode_point(grp.g), grp.encode_point(grp.h))

    @pytest.mark.parametrize("bad", [None, (1, 1), b"\x00" * 3])
    def test_refuses_generators_that_are_not_finite_curve_points(self, tiny_params, bad):
        # The identity and (1, 1) go in encoded: all-zero bytes, and an x
        # off the curve, as 1^3 + 1 = 2 is not a square mod ell = 139.
        grp = tiny_params.group
        if not isinstance(bad, bytes):
            bad = grp.encode_point(bad)
        with pytest.raises(InvalidPoint):
            check_public_group(grp.n, grp.ell, grp.encode_point(grp.g), bad)


# ---------------------------------------------------------------------------
# curve arithmetic vs. the naive oracle

class TestArithmetic:
    def test_add_matches_oracle_exhaustively(self, tiny_params):
        group = tiny_params.group
        pts = all_curve_points(tiny_params.group.ell)
        sample = pts[::7] + [None, tiny_params.group.g, tiny_params.group.h]
        for P in sample:
            for Q in sample:
                assert group.add(P, Q) == naive_add(P, Q, tiny_params.group.ell)

    def test_neg_matches_oracle(self, tiny_params):
        group = tiny_params.group
        for P in all_curve_points(tiny_params.group.ell):
            assert group.neg(P) == naive_neg(P, tiny_params.group.ell)

    @given(k=st.integers(min_value=-200, max_value=500))
    def test_mul_matches_oracle(self, tiny_params, k):
        group = tiny_params.group
        g, ell = tiny_params.group.g, tiny_params.group.ell
        assert group.mul(k, g) == naive_mul(k, g, ell)

    def test_mul_matches_oracle_for_every_point(self, tiny_params):
        # Every point, cofactor torsion and (0, 0) included, and every scalar
        # from below zero to past twice the curve order.  The order check
        # [n]P = O is the ladder's final Z = 0, g and h included.
        group, n, ell = tiny_params.group, tiny_params.group.n, tiny_params.group.ell
        for P in all_curve_points(ell):
            for k in range(-3, 2 * (ell + 1) + 4):
                assert group.mul(k, P) == naive_mul(k, P, ell), (k, P)
            assert (_point_mul(n, P, ell)[2] == 0) == (naive_mul(n, P, ell) is None), P

    @given(a=st.integers(min_value=0, max_value=34), b=st.integers(min_value=0, max_value=34))
    def test_mul_is_additive_in_the_scalar(self, tiny_params, a, b):
        group = tiny_params.group
        g = tiny_params.group.g
        assert group.add(group.mul(a, g), group.mul(b, g)) == group.mul(a + b, g)

    def test_scalar_wraps_at_group_order(self, tiny_params):
        group = tiny_params.group
        g = tiny_params.group.g
        assert group.mul(tiny_params.group.n, g) is None
        assert group.mul(tiny_params.group.n + 3, g) == group.mul(3, g)

    def test_projection_by_cofactor_kills_small_factor(self, tiny_params):
        # Multiplying by q annihilates exactly the order-q component; the
        # trace operation depends on this.
        group = tiny_params.group
        q = 7
        assert group.mul(q, tiny_params.group.h) is None
        assert group.mul(q, tiny_params.group.g) is not None
        assert group.mul(q, group.mul(5, tiny_params.group.g)) is None

    def test_random_point_lands_on_curve(self, tiny_params):
        rng = random.Random(5)
        for _ in range(50):
            P = _random_point(tiny_params.group.ell, rng)
            assert naive_on_curve(P, tiny_params.group.ell)
            assert P[1] != 0


# ---------------------------------------------------------------------------
# pairing

class TestPairing:
    def test_nondegenerate_of_full_order(self, tiny_params):
        group = tiny_params.group
        z = group.pair(tiny_params.group.g, tiny_params.group.g)
        assert not z.is_one()
        assert (z ** 35).is_one()
        assert not (z ** 5).is_one()
        assert not (z ** 7).is_one()

    @pytest.mark.parametrize("bits, seeds", [(8, 100), (9, 100), (10, 100), (11, 100), (12, 100),
                                             (16, 1), (32, 1), (64, 1)])
    def test_self_pairing_of_generated_groups_has_order_n(self, bits, seeds):
        # group_from_primes picks g by its order alone; e(g, g) = t(g, psi(g))
        # then has order exactly n, as the distorted pairing is non-degenerate.
        for seed in range(seeds):
            params = gen_group_params(bits, bits, random.Random(seed))
            z = params.group.pair(params.group.g, params.group.g)
            assert (z ** params.group.n).is_one()
            assert not (z ** params.p).is_one() and not (z ** params.q).is_one(), seed

    @settings(max_examples=60)
    @given(a=st.integers(min_value=0, max_value=34), b=st.integers(min_value=0, max_value=34))
    def test_bilinear(self, tiny_params, a, b):
        group = tiny_params.group
        g = tiny_params.group.g
        base = group.pair(g, g)
        assert group.pair(group.mul(a, g), group.mul(b, g)) == base ** (a * b)

    def test_symmetric(self, tiny_params):
        group = tiny_params.group
        P = group.mul(4, tiny_params.group.g)
        Q = group.mul(9, tiny_params.group.g)
        assert group.pair(P, Q) == group.pair(Q, P)

    def test_identity_inputs_give_one(self, tiny_params):
        group = tiny_params.group
        assert group.pair(None, tiny_params.group.g).is_one()
        assert group.pair(tiny_params.group.g, None).is_one()

    def test_small_order_point_pairs_nontrivially(self, tiny_params):
        # h has order q; its self-pairing must be a q-th root of unity != 1
        # or the membership-proof equation would be vacuous.
        group = tiny_params.group
        z = group.pair(tiny_params.group.h, tiny_params.group.h)
        assert not z.is_one()
        assert (z ** 7).is_one()

    def test_mixed_order_pairing(self, tiny_params):
        group = tiny_params.group
        z = group.pair(tiny_params.group.g, tiny_params.group.h)
        assert not z.is_one()
        assert (z ** 7).is_one()

    def test_off_curve_input_rejected(self, tiny_params):
        with pytest.raises(InvalidPoint):
            tiny_params.group.pair((1, 1), tiny_params.group.g)

    def test_bilinear_at_16_bits(self, params16):
        group = params16.group
        rng = random.Random(77)
        n, g = group.n, group.g
        a, b = rng.randrange(n), rng.randrange(n)
        base = group.pair(g, g)
        assert group.pair(group.mul(a, g), group.mul(b, g)) == base ** (a * b)

    def test_pair_matches_oracle_exhaustively(self, tiny_params):
        # All 140 x 140 pairs, including the identity, cofactor torsion and
        # (0, 0): the 35 first arguments in G_n against the oracle, the
        # other 105 refused with every Q.
        group, ell = tiny_params.group, tiny_params.group.ell
        pts = all_curve_points(ell)
        for P in pts:
            for Q in pts:
                _check_pair(group, P, Q)

    @pytest.mark.parametrize("bits", (16, 32, 64))
    def test_mul_and_pair_match_oracles_at_size(self, bits):
        params = gen_group_params(bits, bits, random.Random(bits))
        group, n, ell = params.group, params.group.n, params.group.ell
        rng = random.Random(1000 + bits)
        outside = [_random_point(ell, rng) for _ in range(3)]  # almost surely not in <g>
        torsion = naive_mul(n, outside[0], ell)  # order divides the cofactor r
        points = [params.group.g, params.group.h, group.mul(rng.randrange(n), params.group.g),
                  torsion, (0, 0), *outside]
        # n kills every point of <g> and ell + 1 every point, so k = n - 1 and
        # k = ell take the ladder's [k + 1]P = O exit and k = n and k = ell + 1
        # its [k]P = O exit, on multi-limb scalars (g and h use tables).
        scalars = [0, 1, -1, n - 1, n, n + 1, -(n - 1), ell, ell + 1, ell + 2, -ell,
                   -rng.randrange(n), *(rng.randrange(4 * (ell + 1)) for _ in range(3))]
        for P in points:
            for k in scalars:
                assert group.mul(k, P) == naive_mul(k, P, ell), (k, P)
            for Q in points:
                _check_pair(group, P, Q)

    def test_miller_steps_are_the_non_adjacent_form(self):
        # Replayed on integers from 1, the steps rebuild k, and at least two
        # doublings come before each signed digit.
        rng = random.Random(14)
        scalars = [*range(1, 10 ** 4 + 1),
                   *(rng.getrandbits(b) | 1 << (b - 1) for b in (64, 128) for _ in range(100))]
        for k in scalars:
            steps, value = _double_and_add(k), 1
            for step in steps:
                value = {"d": 2 * value, "a": value + 1, "s": value - 1}[step]
            assert value == k
            assert all(steps[i - 2:i] == "dd" for i, step in enumerate(steps) if step != "d"), k

    def test_gt_element_algebra(self, tiny_params):
        group = tiny_params.group
        z = group.pair(tiny_params.group.g, tiny_params.group.g)
        assert (z * z ** -1).is_one()
        assert z ** 0 == GtElement(1, 0, group.ell)
        assert (z ** 3) * (z ** 4) == z ** 7

    def test_gt_elements_of_two_fields_do_not_multiply(self, tiny_params):
        other = group_from_primes(11, 13, random.Random(2))
        z = tiny_params.group.pair(tiny_params.group.g, tiny_params.group.g)
        w = other.group.pair(other.group.g, other.group.g)
        with pytest.raises(ValueError, match="cannot mix target fields"):
            z * w


# ---------------------------------------------------------------------------
# subgroup membership through the Tate pairing

# 8..12-bit groups (bits, seed) whose cofactor r has an odd prime factor:
# r = 56 = 8*7, 60 = 4*3*5, 144 = 16*9, 88 = 8*11, 60 and 72 = 8*9, so 8 | r
# in four of them.
SMALL_GROUPS = [(8, 1), (8, 5), (9, 1), (10, 5), (11, 4), (12, 7)]


def _lift(P):
    # A rational point as a point of E(F_ell^2).
    return ((P[0], 0), (P[1], 0))


def _record_candidates(monkeypatch, source):
    # Route _membership_lines through ``source``; the returned list gathers
    # every candidate it is handed, the selected one last.
    handed = []

    def candidates(n, ell):
        for T in source(n, ell):
            handed.append(T)
            yield T

    monkeypatch.setattr(group_module, "_tate_candidates", candidates)
    return handed


class TestInGroup:
    def test_every_point_of_the_tiny_group(self, tiny_params):
        group, n, ell = tiny_params.group, tiny_params.group.n, tiny_params.group.ell
        pts = all_curve_points(ell)
        verdicts = [group.in_group(P) for P in pts]
        assert verdicts == [naive_in_group(P, n, ell) for P in pts]
        assert sum(verdicts) == n

    @pytest.mark.parametrize("bits, seed", SMALL_GROUPS)
    def test_small_groups_match_the_oracle(self, bits, seed):
        params = gen_group_params(bits, bits, random.Random(seed))
        group, n, ell, r = params.group, params.group.n, params.group.ell, params.r
        assert any(s % 2 for s in prime_factors(r))
        rng = random.Random(seed)
        outside = [_random_point(ell, rng) for _ in range(20)]  # mostly not in <g>
        points = [None, (0, 0), params.group.g, params.group.h, *outside,
                  *(naive_mul(r, P, ell) for P in outside),  # in <g>
                  *torsion_shifts(group, params.group.g, rng)]
        verdicts = [group.in_group(P) for P in points]
        assert verdicts == [naive_in_group(P, n, ell) for P in points]
        assert True in verdicts[4:] and False in verdicts[4:]

    def test_generated_groups_match_the_oracle(self):
        # The candidate comes from a line through a rational point, so its
        # search differs from group to group: across 40 groups of 8..12 bits,
        # with 8 | r, with r = 4 (mod 8) and with an odd prime above 5 in r,
        # every verdict is the ladder's.
        groups = [gen_group_params(bits, bits, random.Random(seed))
                  for bits in range(8, 13) for seed in range(8)]
        assert len({(params.group.n, params.group.ell) for params in groups}) == 40
        rs = [params.r for params in groups]
        assert any(r % 8 == 4 for r in rs) and any(r % 8 == 0 for r in rs)
        assert any(s > 5 for r in rs for s in prime_factors(r) if s % 2)
        for params in groups:
            group, n, ell, r = params.group, params.group.n, params.group.ell, params.r
            rng = random.Random(ell)
            outside = [_random_point(ell, rng) for _ in range(20)]
            points = [*outside, *(naive_mul(r, P, ell) for P in outside),
                      *torsion_shifts(group, params.group.g, rng)]
            verdicts = [group.in_group(P) for P in points]
            assert verdicts == [naive_in_group(P, n, ell) for P in points], (n, ell)

    @pytest.mark.parametrize("bits", (16, 32, 64))
    def test_torsion_shifts_refused_at_size(self, bits):
        params = gen_group_params(bits, bits, random.Random(bits))
        group, n, ell, r = params.group, params.group.n, params.group.ell, params.r
        rng = random.Random(4000 + bits)
        P = group.mul(rng.randrange(1, n), params.group.g)
        shifts = torsion_shifts(group, P, rng)
        torsion = [naive_add(Q, naive_neg(P, ell), ell) for Q in shifts[1:]]
        divisors = [d for d in range(2, r + 1) if r % d == 0]
        assert [naive_order(T, ell, r) for T in torsion] == divisors
        assert group.in_group(P)
        assert not any(group.in_group(Q) for Q in shifts)

    def test_orders_p_q_and_n_accepted(self, params16):
        group, n, ell = params16.group, params16.group.n, params16.group.ell
        p, q, g = params16.p, params16.q, params16.group.g
        for P, primes in ((None, ()), (g, (p, q)), (group.mul(q, g), (p,)), (group.mul(p, g), (q,)),
                          (params16.group.h, (q,))):
            order = math.prod(primes)  # exactly: [order]P = O, and no prime drops out
            assert naive_mul(order, P, ell) is None
            assert all(naive_mul(order // f, P, ell) is not None for f in primes)
            assert group.in_group(P)
        assert not group.in_group((0, 0))
        assert not group.in_group((1, 1))  # off the curve

    def test_counts_one_exp_and_builds_at_first_call(self, tiny_params):
        group = _fresh(tiny_params.group)
        assert group._tate is None
        counter = OpCounter()
        with count_ops(counter):
            counter.set_phase("check")
            assert group.in_group(tiny_params.group.g)
            assert not group.in_group((0, 0))
        assert counter.phase("check") == {"exp": 2}
        assert group._tate is not None

    def test_setup_builds_no_membership_lines(self):
        params = gen_group_params(16, 16, random.Random(16))
        setup(params, 4, random.Random(17))
        assert params.group._tate is None

    @pytest.mark.parametrize("bits, seed", [(None, None), SMALL_GROUPS[1]])
    def test_two_certified_candidates_agree(self, monkeypatch, tiny_params, bits, seed):
        # The search skips the first certified candidate the second time, so
        # two different T's are built; every verdict agrees, and neither T
        # has a rational multiple other than O.
        params = tiny_params if bits is None else gen_group_params(bits, bits, random.Random(seed))
        group, n, ell, r = params.group, params.group.n, params.group.ell, params.r
        source = group_module._tate_candidates
        handed = _record_candidates(monkeypatch, source)
        first, chosen = group_module._membership_lines(n, ell), handed[-1]
        handed = _record_candidates(
            monkeypatch, lambda n, ell: (T for T in source(n, ell) if T != chosen))
        second, other = group_module._membership_lines(n, ell), handed[-1]
        assert other != chosen and second != first
        for T in (chosen, other):
            R = T
            for _ in range(r - 1):
                assert R is not None and (R[0][1], R[1][1]) != (0, 0)
                R = group_module._fp2_point_add(R, T, ell)[0]
            assert R is None
        rng = random.Random(5)
        if bits is None:
            points = [P for P in all_curve_points(ell) if P not in (None, (0, 0))]
        else:
            outside = [_random_point(ell, rng) for _ in range(20)]
            points = [*outside, *(naive_mul(r, P, ell) for P in outside),
                      *torsion_shifts(group, params.group.g, rng)[1:]]
        for P in points:
            verdicts = {group_module._tate_at(tate, *P, n, ell) == 2 for tate in (first, second)}
            assert verdicts == {naive_in_group(P, n, ell)}, P

    @pytest.mark.parametrize("bits, seed", [(None, None), SMALL_GROUPS[1]])
    def test_deficient_candidates_never_selected(self, monkeypatch, tiny_params, bits, seed):
        # A rational T pairs to 1 with every rational R, and a distorted
        # psi(U) to an order of at most r/2; handed those first, the search
        # passes them over and selects what it selects without them.
        params = tiny_params if bits is None else gen_group_params(bits, bits, random.Random(seed))
        group, n, ell, r = params.group, params.group.n, params.group.ell, params.r
        U = _lift(cofactor_torsion(group, random.Random(6)))  # exact order r
        deficient = [U, group_module._fp2_psi(U, ell)]
        expected = group_module._membership_lines(n, ell)
        rng = random.Random(7)

        def order(tate, R):
            trace = group_module._tate_at(tate, *R, n, ell)
            return min(d for d in range(1, r + 1)
                       if r % d == 0 and group_module._lucas_v(trace, d, ell) == 2)

        R = next(R for R in iter(lambda: _random_point(ell, rng), None)
                 if order(expected, R) == r)
        assert all(order(group_module._tate_lines(T, r, ell), R) < r for T in deficient)
        source = group_module._tate_candidates
        handed = _record_candidates(
            monkeypatch, lambda n, ell: itertools.chain(deficient, source(n, ell)))
        assert group_module._membership_lines(n, ell) == expected
        assert handed[:2] == deficient and handed[-1] not in deficient

    @pytest.mark.parametrize("bits, seed, accepted", [(None, None, 8), (*SMALL_GROUPS[1], 960)])
    def test_certificate_accepts_exactly_the_points_that_decide_membership(
            self, monkeypatch, tiny_params, bits, seed, accepted):
        # E[r] is spanned by a rational U and the certified T, both of exact
        # order r.  Handed each V = [a]U + [b]T of exact order r alone, the
        # search selects V exactly when the pairing at V agrees with the
        # oracle on the points below; on n = 35 that is every rational
        # point.  The torsion shifts put a point of each prime order s | r in
        # the kernel of any t(V, .) of order below r, so they suffice to
        # expose a wrong verdict.  r*phi(r) of the r^2*prod(1 - 1/s^2) V's
        # pair with order r: 8 of 12 at r = 4, 960 of 2304 at r = 60.
        params = tiny_params if bits is None else gen_group_params(bits, bits, random.Random(seed))
        group, n, ell, r = params.group, params.group.n, params.group.ell, params.r
        rng = random.Random(8)
        if bits is None:
            points = [P for P in all_curve_points(ell) if P not in (None, (0, 0))]
        else:
            outside = [_random_point(ell, rng) for _ in range(4)]
            points = [*outside, *(naive_mul(r, P, ell) for P in outside),
                      *torsion_shifts(group, params.group.g, rng)[1:]]
        expected = [naive_in_group(P, n, ell) for P in points]
        handed = _record_candidates(monkeypatch, group_module._tate_candidates)
        group_module._membership_lines(n, ell)

        def multiples(P):  # [0]P .. [r - 1]P
            out = [None]
            for _ in range(r - 1):
                out.append(group_module._fp2_point_add(out[-1], P, ell)[0])
            return out

        us, ts = multiples(_lift(cofactor_torsion(group, rng))), multiples(handed[-1])
        certified = 0
        for a, b in itertools.product(range(r), repeat=2):
            if math.gcd(math.gcd(a, b), r) != 1:  # order below r
                continue
            V = group_module._fp2_point_add(us[a], ts[b], ell)[0]
            monkeypatch.setattr(group_module, "_tate_candidates", lambda n, ell: iter([V]))
            try:
                tate, selected = group_module._membership_lines(n, ell), True
            except GroupError:
                tate, selected = group_module._tate_lines(V, r, ell), False
            verdicts = [group_module._tate_at(tate, *P, n, ell) == 2 for P in points]
            assert selected == (verdicts == expected), (a, b)
            certified += selected
        assert certified == accepted


# ---------------------------------------------------------------------------
# fixed bases: window tables for mul, stored Miller lines for pair

class TestFixedBases:
    def test_every_point_as_fixed_base_matches_oracles(self, tiny_params):
        # A fresh group, so the session fixture keeps only g and h as fixed
        # bases.  Bases whose order does not divide n (cofactor torsion,
        # (0, 0)) must keep the plain scalar multiplication.
        n, ell = tiny_params.group.n, tiny_params.group.ell
        group = _fresh(tiny_params.group)
        pts = all_curve_points(ell)
        group.precompute(*pts)
        for P in pts:
            for k in range(-3, 2 * (ell + 1) + 4):
                assert group.mul(k, P) == naive_mul(k, P, ell), (k, P)
            for Q in pts:
                _check_pair(group, P, Q)
        tabled = {P for P, rows in group._mul_tables.items() if rows is not None}
        assert tabled == {P for P in pts if P is not None and naive_mul(n, P, ell) is None}
        assert (0, 0) in group._mul_tables and (0, 0) not in tabled
        # Miller lines are kept only for the bases that pair accepts first.
        assert {P for P, lines in group._lines.items() if lines is not None} == tabled

    @pytest.mark.parametrize("bits", (16, 32, 64))
    def test_fixed_bases_match_oracles_at_size(self, bits):
        params = gen_group_params(bits, bits, random.Random(bits))
        pp, _ = setup(params, 4, random.Random(bits + 1))
        group, n, ell = params.group, params.group.n, params.group.ell
        rng = random.Random(2000 + bits)
        outside = _random_point(ell, rng)  # almost surely not in <g>
        group.precompute(outside)
        bases = [params.group.g, params.group.h, pp.key_base, pp.blind_base, outside]
        scalars = [0, 1, -1, n - 1, n, n + 1, 2 * n + 3, rng.randrange(n)]
        others = [group.mul(rng.randrange(n), params.group.g), outside, (0, 0)]
        for P in bases:
            for k in scalars:
                assert group.mul(k, P) == naive_mul(k, P, ell), (k, P)
            for Q in others:
                _check_pair(group, P, Q)
        assert group._mul_tables[outside] is None  # [n]outside != O: plain path
        window_scalars = _signed_window_scalars(n)
        for P in bases[:4]:
            for k in window_scalars:
                assert group.mul(k, P) == naive_mul(k, P, ell), (k, P)
            table = group._mul_tables[P]
            assert table is not None and len(table) == n.bit_length() // 5 + 1
            assert all(len(row) == 32 for row in table)

    def test_every_window_row_entry_matches_the_oracle(self, tiny_params):
        # Row i of a window table holds [d * 32^i]P at index d + 15, d = -15..16,
        # negatives included; a joint table is h's rows, then the key's.
        n, ell, h = tiny_params.group.n, tiny_params.group.ell, tiny_params.group.h
        group = _fresh(tiny_params.group)

        def check(rows, P):
            for i, row in enumerate(rows):
                assert len(row) == 32
                for idx, entry in enumerate(row):
                    assert entry == naive_mul((idx - 15) * 32 ** i, P, ell), (P, i, idx)

        keys = [P for P in all_curve_points(ell) if naive_mul(n, P, ell) is None]
        for key in keys:
            check(_window_table(key, n, ell), key)
            for e in range(16):  # the 16th request builds the joint table
                _member_proof(group, e, naive_add(naive_mul(e, h, ell), key, ell), key, True)
            joint = group._joint[key]
            check(joint[:len(joint) // 2], h)
            check(joint[len(joint) // 2:], key)

    def test_window_table_built_on_second_mul(self, params16):
        # A base multiplied once keeps the plain path; the second mul builds
        # its table.
        group = _fresh(params16.group)
        ell = params16.group.ell
        for k in (5, 7):
            assert group.mul(k, params16.group.h) == naive_mul(k, params16.group.h, ell)
            assert (params16.group.h in group._mul_tables) == (k == 7)
        assert group._mul_tables[params16.group.h] is not None

    def test_fixed_base_calls_count_once(self, tiny_params):
        group = _fresh(tiny_params.group)
        counter = OpCounter()
        with count_ops(counter):
            counter.set_phase("fixed")
            for _ in range(2):  # the first call of each builds the table
                group.mul(3, tiny_params.group.g)
                group.pair(tiny_params.group.h, tiny_params.group.g)
        assert counter.phase("fixed") == {"exp": 2, "pair": 2}
        assert counter.paths == {"fixed": {"exp.ladder": 1, "exp.window": 1, "pair.lines": 2}}

    def test_verify_only_group_builds_no_mul_table(self, setup16, keys16):
        pp, _ = setup16
        ring = Ring(pp.group, [k.pub_key for k in keys16[:3]])
        signer = keys16[0]
        sig = sign(pp, ring, signer, b"bid", random.Random(5))
        header_pp = public_params_from_json(public_params_to_json(pp))
        group = header_pp.group
        header_ring = Ring(group, ring.keys)
        assert verify(header_pp, header_ring, b"bid", sig)
        assert group._mul_tables == {}
        assert set(group._lines) == {group.h, header_pp.key_base}


class TestMemberProof:
    # The proof of a slot's commitment C = [e]h, plus K in the signer's slot,
    # is [e]C for the signer and [e](C - K) for a decoy, so [e^2]h + [+-e]K
    # either way: the ladder for a key's first 15 requests, then one pass
    # over h's rows and K's rows.
    @staticmethod
    def _request(e, h, key, signer, ell):
        # (commit, expected proof) of one slot, from the oracles.
        blind = naive_mul(e, h, ell)
        commit = naive_add(blind, key, ell) if signer else blind
        return commit, naive_mul(e, naive_add(blind, naive_mul(1 if signer else -1, key, ell),
                                              ell), ell)

    def test_joint_path_matches_the_oracle_on_every_key_scalar_and_sign(self, tiny_params):
        n, ell, h = tiny_params.group.n, tiny_params.group.ell, tiny_params.group.h
        group = _fresh(tiny_params.group)
        keys = [P for P in all_curve_points(ell) if naive_mul(n, P, ell) is None]
        assert len(keys) == n
        for key in keys:
            for e in range(15):  # the ladder requests
                _member_proof(group, e, self._request(e, h, key, True, ell)[0], key, True)
            for e in range(n):
                for signer in (True, False):
                    commit, expected = self._request(e, h, key, signer, ell)
                    got = _member_proof(group, e, commit, key, signer)
                    assert got == expected, (key, e, signer)
        assert set(group._joint) == set(keys)
        assert all(len(rows) == 2 * (n.bit_length() // 5 + 1) for rows in group._joint.values())

    def test_sixteenth_request_switches_to_the_joint_path(self, params16):
        group = _fresh(params16.group)
        n, ell, h = params16.group.n, params16.group.ell, params16.group.h
        rng = random.Random(16)
        key = naive_mul(rng.randrange(1, n), params16.group.g, ell)
        counter = OpCounter()
        with count_ops(counter):
            for request in range(1, 21):
                counter.set_phase("ladder" if request < 16 else "joint")
                e, signer = rng.randrange(n), request % 2 == 1
                commit, expected = self._request(e, h, key, signer, ell)
                assert _member_proof(group, e, commit, key, signer) == expected, request
                assert (key in group._joint) == (request >= 16)
        assert counter.phases == {"ladder": {"exp": 15}, "joint": {"exp": 5}}
        assert counter.paths == {"ladder": {"exp.ladder": 15}, "joint": {"exp.joint": 5}}

    @pytest.mark.parametrize("bits", (16, 32, 64))
    def test_joint_path_matches_the_ladder_at_size(self, bits):
        params = gen_group_params(bits, bits, random.Random(bits))
        pp, _ = setup(params, 4, random.Random(bits + 1))
        group, n, ell = params.group, params.group.n, params.group.ell
        rng = random.Random(3000 + bits)
        key = group.add(group.mul(rng.randrange(1, n), group.g), group.neg(pp.commit_offset))
        scalars = [rng.randrange(n) for _ in range(15)] + _signed_window_scalars(n)
        for e in scalars:
            for signer in (True, False):
                blind = group.mul(e, params.group.h)
                commit = group.add(blind, key) if signer else blind
                assert _member_proof(group, e, commit, key, signer) == _to_affine([_point_mul(
                    e, group.add(blind, group.mul(1 if signer else -1, key)), ell)], ell)[0], (e, signer)
        assert key in group._joint

    def test_key_outside_the_group_stays_on_the_ladder(self, tiny_params):
        n, ell, h = tiny_params.group.n, tiny_params.group.ell, tiny_params.group.h
        group = _fresh(tiny_params.group)
        rng = random.Random(7)
        counter = OpCounter()
        for key in (cofactor_torsion(group, rng), (0, 0)):
            with count_ops(counter):
                for request in range(20):
                    e, signer = rng.randrange(n), request % 2 == 0
                    commit, expected = self._request(e, h, key, signer, ell)
                    got = _member_proof(group, e, commit, key, signer)
                    assert got == expected, (key, request)
            assert key not in group._joint
        assert counter.paths == {"default": {"exp.ladder": 40}}


# ---------------------------------------------------------------------------
# encodings

class TestEncoding:
    def test_roundtrip_every_point(self, tiny_params):
        group = tiny_params.group
        for P in all_curve_points(tiny_params.group.ell):
            data = group.encode_point(P)
            assert len(data) == group.point_bytes
            assert group.decode_point(data) == P

    def test_identity_encoding_is_all_zero(self, tiny_params):
        assert tiny_params.group.encode_point(None) == bytes(tiny_params.group.point_bytes)

    def test_rejects_wrong_length(self, tiny_params):
        with pytest.raises(InvalidPoint):
            tiny_params.group.decode_point(b"\x00")

    def test_rejects_unknown_tag(self, tiny_params):
        data = tiny_params.group.encode_point(tiny_params.group.g)
        with pytest.raises(InvalidPoint):
            tiny_params.group.decode_point(data[:-1] + b"\x07")

    def test_rejects_out_of_range_x(self, tiny_params):
        width = tiny_params.group.coord_bytes
        data = (tiny_params.group.ell).to_bytes(width, "big") + b"\x02"
        with pytest.raises(InvalidPoint):
            tiny_params.group.decode_point(data)

    def test_rejects_x_not_on_curve(self, tiny_params):
        on_curve_x = {P[0] for P in all_curve_points(tiny_params.group.ell) if P}
        x = next(x for x in range(tiny_params.group.ell) if x not in on_curve_x)
        data = x.to_bytes(tiny_params.group.coord_bytes, "big") + b"\x02"
        with pytest.raises(InvalidPoint):
            tiny_params.group.decode_point(data)

    def test_rejects_nonzero_identity(self, tiny_params):
        data = b"\x00" * (tiny_params.group.point_bytes - 2) + b"\x01\x00"
        with pytest.raises(InvalidPoint):
            tiny_params.group.decode_point(data)

    def test_rejects_zero_y_under_odd_tag(self, tiny_params):
        # (0, 0) has y = 0, so only its even-tag encoding is canonical
        data = bytes(tiny_params.group.coord_bytes) + b"\x03"
        with pytest.raises(InvalidPoint, match="even parity tag"):
            tiny_params.group.decode_point(data)

    def test_every_decodable_encoding_is_canonical(self, tiny_params):
        group = tiny_params.group
        decoded = 0
        for x in range(1 << (8 * group.coord_bytes)):
            for tag in (0x00, 0x02, 0x03):
                data = x.to_bytes(group.coord_bytes, "big") + bytes([tag])
                try:
                    P = group.decode_point(data)
                except InvalidPoint:
                    continue
                decoded += 1
                assert group.encode_point(P) == data
        assert decoded == len(all_curve_points(tiny_params.group.ell))

    def test_check_agrees_with_decode_on_every_short_encoding(self, tiny_params):
        # Every one-byte x, in range (x < 139) and out of it, under the
        # identity, both parity tags and an unknown one, plus bad lengths.
        ell = tiny_params.group.ell
        encodings = [bytes([x, tag]) for x in range(256) for tag in (0x00, 0x02, 0x03, 0x07)]
        for data in encodings + [b"", b"\x00", b"\x00\x00\x02"]:
            assert _outcome(check_point_bytes, data, ell) == _outcome(
                decode_point_bytes, data, ell), data

    @pytest.mark.parametrize("bits", (16, 32, 64))
    def test_check_agrees_with_decode_at_size(self, bits):
        ell = gen_group_params(bits, bits, random.Random(bits)).group.ell
        width = (ell.bit_length() + 7) // 8
        rng = random.Random(2000 + bits)
        encodings = [rng.randbytes(width + 1) for _ in range(200)]
        for _ in range(400):  # x in range, so about half lie on the curve
            tag = rng.choice((0x00, 0x02, 0x03, rng.randrange(256)))
            encodings.append(rng.randrange(ell).to_bytes(width, "big") + bytes([tag]))
        encodings += [bytes(width) + bytes([tag]) for tag in (0x00, 0x02, 0x03)]
        outcomes = Counter()
        for data in encodings:
            outcome = _outcome(decode_point_bytes, data, ell)
            assert _outcome(check_point_bytes, data, ell) == outcome, data
            outcomes[outcome] += 1
        assert outcomes["decodes"] > 50 and outcomes["x coordinate is not on the curve"] > 50

    @given(k=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50)
    def test_roundtrip_at_16_bits(self, params16, k):
        group = params16.group
        P = group.mul(k, params16.group.g)
        assert group.decode_point(group.encode_point(P)) == P


# ---------------------------------------------------------------------------
# hashing

class TestHashing:
    def test_scalar_hash_deterministic_and_in_range(self, tiny_params):
        group = tiny_params.group
        v = group.hash_to_zn(b"fixed input")
        assert v == group.hash_to_zn(b"fixed input")
        assert 0 <= v < tiny_params.group.n
        assert v != group.hash_to_zn(b"fixed input!")

    def test_scalar_hash_uniformity_chi_square(self, tiny_params):
        # 10^4 draws into 35 buckets; the statistic stays within five sigma
        # of the chi-square mean unless the reduction is biased.
        group = tiny_params.group
        n = tiny_params.group.n
        draws = 10_000
        counts = [0] * n
        for i in range(draws):
            counts[group.hash_to_zn(b"chi:%d" % i)] += 1
        expected = draws / n
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        df = n - 1
        assert chi2 < df + 5 * math.sqrt(2 * df), chi2

    def test_bit_hash_shape(self):
        bits = hash_to_bits(b"abc", 16)
        assert len(bits) == 16
        assert set(bits) <= {0, 1}
        assert bits == hash_to_bits(b"abc", 16)
        assert hash_to_bits(b"abc", 16) != hash_to_bits(b"abd", 16)

    def test_bit_hash_needs_one_bit(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            hash_to_bits(b"abc", 0)

    def test_bit_hash_prefix_stability(self):
        # The k-bit output is the truncation of the same stream.
        long = hash_to_bits(b"prefix", 64)
        short = hash_to_bits(b"prefix", 16)
        assert long[:16] == short

    def test_bit_hash_balance(self):
        draws = 2_000
        k = 32
        totals = [0] * k
        for i in range(draws):
            for j, bit in enumerate(hash_to_bits(b"bal:%d" % i, k)):
                totals[j] += bit
        sigma = math.sqrt(draws * 0.25)
        for j, total in enumerate(totals):
            assert abs(total - draws / 2) < 5 * sigma, (j, total)

    def test_scalar_and_bit_hashes_are_domain_separated(self, tiny_params):
        group = tiny_params.group
        data = b"same bytes"
        scalar_stream = group.hash_to_zn(data)
        bit_stream = int("".join(map(str, hash_to_bits(data, 32))), 2) % tiny_params.group.n
        # Not a strong statement individually, but with distinct domain tags
        # the two streams disagree on essentially any input.
        assert scalar_stream != bit_stream or group.hash_to_zn(data + b"x") != int(
            "".join(map(str, hash_to_bits(data + b"x", 32))), 2) % tiny_params.n


# ---------------------------------------------------------------------------
# operation counting

class TestOpCounter:
    def test_counts_by_phase(self, tiny_params):
        group = tiny_params.group
        counter = OpCounter()
        with count_ops(counter):
            counter.set_phase("alpha")
            group.mul(3, tiny_params.group.g)
            group.add(tiny_params.group.g, tiny_params.group.g)
            counter.set_phase("beta")
            group.pair(tiny_params.group.g, tiny_params.group.g)
            group.hash_to_zn(b"x")
            group.neg(tiny_params.group.g)
        assert counter.phase("alpha") == {"exp": 1, "mul": 1}
        assert counter.phase("beta") == {"pair": 1, "hash": 1, "inv": 1}

    def test_paths_split_exp_and_pair_by_code_path(self, tiny_params):
        group = _fresh(tiny_params.group)
        P = group.mul(3, tiny_params.group.g)
        counter = OpCounter()
        with count_ops(counter):
            group.mul(2, P)
            group.in_group(P)
            group.pair(P, P)
            group.add(P, P)
            group.hash_to_zn(b"x")
        assert counter.phases == {"default": {"exp": 2, "pair": 1, "mul": 1, "hash": 1}}
        assert counter.paths == {"default": {"exp.ladder": 1, "exp.member": 1, "pair.var": 1}}

    def test_no_counter_is_silent(self, tiny_params):
        # Ops outside any count_ops() region must not fail or leak anywhere.
        tiny_params.group.mul(5, tiny_params.group.g)

    def test_nested_counters_restore(self, tiny_params):
        group = tiny_params.group
        outer, inner = OpCounter(), OpCounter()
        with count_ops(outer):
            outer.set_phase("out")
            group.mul(2, tiny_params.group.g)
            with count_ops(inner):
                inner.set_phase("in")
                group.mul(2, tiny_params.group.g)
            group.mul(2, tiny_params.group.g)
        assert outer.phase("out")["exp"] == 2
        assert inner.phase("in")["exp"] == 1

    def test_phase_is_a_copy(self, tiny_params):
        counter = OpCounter()
        with count_ops(counter):
            counter.set_phase("p")
            tiny_params.group.mul(2, tiny_params.group.g)
        tally = counter.phase("p")
        tally["exp"] = 999
        assert counter.phase("p") == {"exp": 1} == counter.phases["p"]
        assert counter.phase("unused") == {}
