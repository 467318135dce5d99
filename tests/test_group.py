"""Group layer: construction, curve arithmetic, pairing, encodings, hashing.

The small 5x7 group is fully enumerable, so most algebraic claims are checked
against the naive chord-and-tangent oracle in support.py rather than against
the code under test.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringauction.group import (
    _MAX_ELL_BITS,
    MAX_PRIME_BITS,
    GroupError,
    GroupParams,
    GtElement,
    InvalidPoint,
    OpCounter,
    PairingGroup,
    _double_and_add,
    _point_mul,
    check_public_group,
    count_ops,
    gen_group_params,
    group_from_primes,
    hash_to_bits,
    is_probable_prime,
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
    all_curve_points,
    is_prime_trial_division,
    naive_add,
    naive_mul,
    naive_neg,
    naive_on_curve,
    naive_order,
    naive_pair,
)


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
        assert tiny_params.n == 35
        assert tiny_params.r == 4
        assert tiny_params.ell == 139

    def test_known_second_pair(self):
        params = group_from_primes(11, 13, random.Random(2))
        assert params.n == 143
        assert params.r == 4
        assert params.ell == 571

    def test_equal_primes_rejected(self):
        with pytest.raises((GroupError, ValueError)):
            group_from_primes(7, 7, random.Random(0))

    def test_field_size_relation(self, tiny_params):
        # The curve group has ell + 1 points, and the search guarantees the
        # cofactor is a multiple of 4 so that the field size is odd.
        p = tiny_params
        assert p.ell == p.n * p.r - 1
        assert p.r % 4 == 0
        assert p.ell % 4 == 3
        assert is_prime_trial_division(p.ell)

    def test_curve_group_order(self, tiny_params):
        # |E(F_139)| = 140 points for y^2 = x^3 + x, identity included.
        assert len(all_curve_points(tiny_params.ell)) == tiny_params.ell + 1

    def test_generator_orders_brute_force(self, tiny_params):
        p = tiny_params
        assert naive_order(p.g, p.ell, 2 * p.n) == p.n
        assert naive_order(p.h, p.ell, 2 * p.n) == 7  # the secret factor q

    def test_generated_params_validate(self, params16):
        params16.validate()
        assert params16.p != params16.q
        assert params16.p.bit_length() == 16
        assert params16.q.bit_length() == 16
        assert params16.ell % 4 == 3
        assert (params16.ell + 1) % params16.n == 0

    def test_generation_deterministic(self):
        a = gen_group_params(16, 16, random.Random(9))
        b = gen_group_params(16, 16, random.Random(9))
        assert (a.p, a.q, a.r, a.g, a.h) == (b.p, b.q, b.r, b.g, b.h)

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


# ---------------------------------------------------------------------------
# the one owner of public group validity

class TestCheckPublicGroup:
    def test_accepts_built_groups(self, tiny_params, params16):
        for params in (tiny_params, params16):
            grp = params.group
            assert check_public_group(grp.n, grp.ell, grp.g, grp.h) == (grp.g, grp.h)

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
        with pytest.raises(GroupError, match=reason):
            check_public_group(n, ell, tiny_params.g, tiny_params.h)

    @pytest.mark.parametrize("bad", [None, (1, 1), b"\x00" * 3])
    def test_refuses_generators_that_are_not_finite_curve_points(self, tiny_params, bad):
        grp = tiny_params.group
        with pytest.raises(InvalidPoint):
            check_public_group(grp.n, grp.ell, grp.g, bad)

    def test_validate_runs_the_public_check(self, tiny_params):
        grp = tiny_params.group
        hostile = GroupParams(5, 7, PairingGroup(35, 279, grp.g, grp.h))
        with pytest.raises(GroupError, match="ell must be prime"):
            hostile.validate()
        tiny_params.validate()



# ---------------------------------------------------------------------------
# curve arithmetic vs. the naive oracle

class TestArithmetic:
    def test_add_matches_oracle_exhaustively(self, tiny_params):
        group = tiny_params.group
        pts = all_curve_points(tiny_params.ell)
        sample = pts[::7] + [None, tiny_params.g, tiny_params.h]
        for P in sample:
            for Q in sample:
                assert group.add(P, Q) == naive_add(P, Q, tiny_params.ell)

    def test_neg_matches_oracle(self, tiny_params):
        group = tiny_params.group
        for P in all_curve_points(tiny_params.ell):
            assert group.neg(P) == naive_neg(P, tiny_params.ell)

    @given(k=st.integers(min_value=-200, max_value=500))
    def test_mul_matches_oracle(self, tiny_params, k):
        group = tiny_params.group
        assert group.mul(k, tiny_params.g) == naive_mul(k, tiny_params.g, tiny_params.ell)

    def test_mul_matches_oracle_for_every_point(self, tiny_params):
        # Every point, cofactor torsion and (0, 0) included, and every scalar
        # from below zero to past twice the curve order.  The order check
        # [n]P = O is the ladder's final Z = 0, g and h included.
        group, n, ell = tiny_params.group, tiny_params.n, tiny_params.ell
        for P in all_curve_points(ell):
            for k in range(-3, 2 * (ell + 1) + 4):
                assert group.mul(k, P) == naive_mul(k, P, ell), (k, P)
            assert (_point_mul(n, P, ell) is None) == (naive_mul(n, P, ell) is None), P

    @given(a=st.integers(min_value=0, max_value=34), b=st.integers(min_value=0, max_value=34))
    def test_mul_is_additive_in_the_scalar(self, tiny_params, a, b):
        group = tiny_params.group
        g = tiny_params.g
        assert group.add(group.mul(a, g), group.mul(b, g)) == group.mul(a + b, g)

    def test_scalar_wraps_at_group_order(self, tiny_params):
        group = tiny_params.group
        g = tiny_params.g
        assert group.mul(tiny_params.n, g) is None
        assert group.mul(tiny_params.n + 3, g) == group.mul(3, g)

    def test_projection_by_cofactor_kills_small_factor(self, tiny_params):
        # Multiplying by q annihilates exactly the order-q component; the
        # trace operation depends on this.
        group = tiny_params.group
        q = 7
        assert group.mul(q, tiny_params.h) is None
        assert group.mul(q, tiny_params.g) is not None
        assert group.mul(q, group.mul(5, tiny_params.g)) is None

    def test_random_point_lands_on_curve(self, tiny_params):
        rng = random.Random(5)
        for _ in range(50):
            P = tiny_params.group.random_point(rng)
            assert naive_on_curve(P, tiny_params.ell)
            assert P[1] != 0


# ---------------------------------------------------------------------------
# pairing

class TestPairing:
    def test_nondegenerate_of_full_order(self, tiny_params):
        group = tiny_params.group
        z = group.pair(tiny_params.g, tiny_params.g)
        assert not z.is_one()
        assert (z ** 35).is_one()
        assert not (z ** 5).is_one()
        assert not (z ** 7).is_one()

    @settings(max_examples=60)
    @given(a=st.integers(min_value=0, max_value=34), b=st.integers(min_value=0, max_value=34))
    def test_bilinear(self, tiny_params, a, b):
        group = tiny_params.group
        g = tiny_params.g
        base = group.pair(g, g)
        assert group.pair(group.mul(a, g), group.mul(b, g)) == base ** (a * b)

    def test_symmetric(self, tiny_params):
        group = tiny_params.group
        P = group.mul(4, tiny_params.g)
        Q = group.mul(9, tiny_params.g)
        assert group.pair(P, Q) == group.pair(Q, P)

    def test_identity_inputs_give_one(self, tiny_params):
        group = tiny_params.group
        assert group.pair(None, tiny_params.g).is_one()
        assert group.pair(tiny_params.g, None).is_one()

    def test_small_order_point_pairs_nontrivially(self, tiny_params):
        # h has order q; its self-pairing must be a q-th root of unity != 1
        # or the membership-proof equation would be vacuous.
        group = tiny_params.group
        z = group.pair(tiny_params.h, tiny_params.h)
        assert not z.is_one()
        assert (z ** 7).is_one()

    def test_mixed_order_pairing(self, tiny_params):
        group = tiny_params.group
        z = group.pair(tiny_params.g, tiny_params.h)
        assert not z.is_one()
        assert (z ** 7).is_one()

    def test_off_curve_input_rejected(self, tiny_params):
        with pytest.raises(InvalidPoint):
            tiny_params.group.pair((1, 1), tiny_params.g)

    def test_bilinear_at_16_bits(self, params16):
        group = params16.group
        rng = random.Random(77)
        a, b = rng.randrange(params16.n), rng.randrange(params16.n)
        base = group.pair(params16.g, params16.g)
        assert group.pair(group.mul(a, params16.g), group.mul(b, params16.g)) == base ** (a * b)

    def test_pair_matches_oracle_exhaustively(self, tiny_params):
        # All 140 x 140 pairs, including the identity, cofactor torsion and
        # Q = (0, 0), whose lines can vanish and make the value 0.
        group, n, ell = tiny_params.group, tiny_params.n, tiny_params.ell
        pts = all_curve_points(ell)
        for P in pts:
            for Q in pts:
                z = group.pair(P, Q)
                assert (z.re, z.im) == naive_pair(P, Q, n, ell), (P, Q)

    @pytest.mark.parametrize("bits", (16, 32, 64))
    def test_mul_and_pair_match_oracles_at_size(self, bits):
        params = gen_group_params(bits, bits, random.Random(bits))
        group, n, ell = params.group, params.n, params.ell
        rng = random.Random(1000 + bits)
        outside = [group.random_point(rng) for _ in range(3)]  # almost surely not in <g>
        torsion = naive_mul(n, outside[0], ell)  # order divides the cofactor r
        points = [params.g, params.h, group.mul(rng.randrange(n), params.g),
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
                z = group.pair(P, Q)
                assert (z.re, z.im) == naive_pair(P, Q, n, ell), (P, Q)

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
        z = group.pair(tiny_params.g, tiny_params.g)
        assert (z * z.inverse()).is_one()
        assert z ** -1 == z.inverse()
        assert z ** 0 == GtElement(1, 0, group.ell)
        assert (z ** 3) * (z ** 4) == z ** 7


# ---------------------------------------------------------------------------
# fixed bases: window tables for mul, stored Miller lines for pair

class TestFixedBases:
    def test_every_point_as_fixed_base_matches_oracles(self, tiny_params):
        # A fresh group, so the session fixture keeps only g and h as fixed
        # bases.  Bases whose order does not divide n (cofactor torsion,
        # (0, 0)) must keep the plain scalar multiplication.
        n, ell = tiny_params.n, tiny_params.ell
        group = PairingGroup(n, ell, tiny_params.g, tiny_params.h)
        pts = all_curve_points(ell)
        group.precompute(*pts)
        for P in pts:
            for k in range(-3, 2 * (ell + 1) + 4):
                assert group.mul(k, P) == naive_mul(k, P, ell), (k, P)
            for Q in pts:
                z = group.pair(P, Q)
                assert (z.re, z.im) == naive_pair(P, Q, n, ell), (P, Q)
        tabled = {P for P, rows in group._mul_tables.items() if rows is not None}
        assert tabled == {P for P in pts if P is not None and naive_mul(n, P, ell) is None}
        assert (0, 0) in group._mul_tables and (0, 0) not in tabled

    @pytest.mark.parametrize("bits", (16, 32, 64))
    def test_fixed_bases_match_oracles_at_size(self, bits):
        params = gen_group_params(bits, bits, random.Random(bits))
        pp, _ = setup(params, 4, random.Random(bits + 1))
        group, n, ell = params.group, params.n, params.ell
        rng = random.Random(2000 + bits)
        outside = group.random_point(rng)  # almost surely not in <g>
        group.precompute(outside)
        bases = [params.g, params.h, pp.key_base, pp.blind_base, outside]
        scalars = [0, 1, -1, n - 1, n, n + 1, 2 * n + 3, rng.randrange(n)]
        others = [group.mul(rng.randrange(n), params.g), outside, (0, 0)]
        for P in bases:
            for k in scalars:
                assert group.mul(k, P) == naive_mul(k, P, ell), (k, P)
            for Q in others:
                z = group.pair(P, Q)
                assert (z.re, z.im) == naive_pair(P, Q, n, ell), (P, Q)
        assert group._mul_tables[outside] is None  # [n]outside != O: plain path
        window_scalars = _signed_window_scalars(n)
        for P in bases[:4]:
            for k in window_scalars:
                assert group.mul(k, P) == naive_mul(k, P, ell), (k, P)
            table = group._mul_tables[P]
            assert table is not None and len(table) == n.bit_length() // 5 + 1
            assert all(len(row) == 16 for row in table)

    def test_window_table_built_on_second_mul(self, params16):
        # A base multiplied once keeps the plain path; the second mul builds
        # its table.
        group = PairingGroup(params16.n, params16.ell, params16.g, params16.h)
        ell = params16.ell
        for k in (5, 7):
            assert group.mul(k, params16.h) == naive_mul(k, params16.h, ell)
            assert (params16.h in group._mul_tables) == (k == 7)
        assert group._mul_tables[params16.h] is not None

    def test_fixed_base_calls_count_once(self, tiny_params):
        group = PairingGroup(tiny_params.n, tiny_params.ell, tiny_params.g, tiny_params.h)
        counter = OpCounter()
        with count_ops(counter):
            counter.set_phase("fixed")
            for _ in range(2):  # the first call of each builds the table
                group.mul(3, tiny_params.g)
                group.pair(tiny_params.h, tiny_params.g)
        assert counter.phase("fixed") == {"exp": 2, "pair": 2}

    def test_verify_only_group_builds_no_mul_table(self, setup16, keys16):
        pp, _ = setup16
        ring = Ring(pp.group, [k.pub_key for k in keys16[:3]])
        signer = keys16[0]
        sig = sign(pp, ring, ring.index_of(signer.pub_key), signer, b"bid", random.Random(5))
        header_pp = public_params_from_json(public_params_to_json(pp))
        group = header_pp.group
        header_ring = Ring(group, ring.keys)
        assert verify(header_pp, header_ring, b"bid", sig)
        assert group._mul_tables == {}
        assert set(group._lines) == {group.h, header_pp.key_base}


# ---------------------------------------------------------------------------
# encodings

class TestEncoding:
    def test_roundtrip_every_point(self, tiny_params):
        group = tiny_params.group
        for P in all_curve_points(tiny_params.ell):
            data = group.encode_point(P)
            assert len(data) == group.point_bytes
            assert group.decode_point(data) == P

    def test_identity_encoding_is_all_zero(self, tiny_params):
        assert tiny_params.group.encode_point(None) == bytes(tiny_params.group.point_bytes)

    def test_rejects_wrong_length(self, tiny_params):
        with pytest.raises(InvalidPoint):
            tiny_params.group.decode_point(b"\x00")

    def test_rejects_unknown_tag(self, tiny_params):
        data = tiny_params.group.encode_point(tiny_params.g)
        with pytest.raises(InvalidPoint):
            tiny_params.group.decode_point(data[:-1] + b"\x07")

    def test_rejects_out_of_range_x(self, tiny_params):
        width = tiny_params.group.coord_bytes
        data = (tiny_params.ell).to_bytes(width, "big") + b"\x02"
        with pytest.raises(InvalidPoint):
            tiny_params.group.decode_point(data)

    def test_rejects_x_not_on_curve(self, tiny_params):
        on_curve_x = {P[0] for P in all_curve_points(tiny_params.ell) if P}
        x = next(x for x in range(tiny_params.ell) if x not in on_curve_x)
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
        assert decoded == len(all_curve_points(tiny_params.ell))

    @given(k=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50)
    def test_roundtrip_at_16_bits(self, params16, k):
        group = params16.group
        P = group.mul(k, params16.g)
        assert group.decode_point(group.encode_point(P)) == P


# ---------------------------------------------------------------------------
# hashing

class TestHashing:
    def test_scalar_hash_deterministic_and_in_range(self, tiny_params):
        group = tiny_params.group
        v = group.hash_to_zn(b"fixed input")
        assert v == group.hash_to_zn(b"fixed input")
        assert 0 <= v < tiny_params.n
        assert v != group.hash_to_zn(b"fixed input!")

    def test_scalar_hash_uniformity_chi_square(self, tiny_params):
        # 10^4 draws into 35 buckets; the statistic stays within five sigma
        # of the chi-square mean unless the reduction is biased.
        group = tiny_params.group
        n = tiny_params.n
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
        bit_stream = int("".join(map(str, hash_to_bits(data, 32))), 2) % tiny_params.n
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
            group.mul(3, tiny_params.g)
            group.add(tiny_params.g, tiny_params.g)
            counter.set_phase("beta")
            group.pair(tiny_params.g, tiny_params.g)
            group.hash_to_zn(b"x")
            group.neg(tiny_params.g)
        assert counter.phase("alpha") == {"exp": 1, "mul": 1}
        assert counter.phase("beta") == {"pair": 1, "hash": 1, "inv": 1}

    def test_no_counter_is_silent(self, tiny_params):
        # Ops outside any count_ops() region must not fail or leak anywhere.
        tiny_params.group.mul(5, tiny_params.g)

    def test_nested_counters_restore(self, tiny_params):
        group = tiny_params.group
        outer, inner = OpCounter(), OpCounter()
        with count_ops(outer):
            outer.set_phase("out")
            group.mul(2, tiny_params.g)
            with count_ops(inner):
                inner.set_phase("in")
                group.mul(2, tiny_params.g)
            group.mul(2, tiny_params.g)
        assert outer.phase("out")["exp"] == 2
        assert inner.phase("in")["exp"] == 1

    def test_phase_is_a_copy(self, tiny_params):
        counter = OpCounter()
        with count_ops(counter):
            counter.set_phase("p")
            tiny_params.group.mul(2, tiny_params.g)
        tally = counter.phase("p")
        tally["exp"] = 999
        assert counter.phase("p") == {"exp": 1} == counter.phases["p"]
        assert counter.phase("unused") == {}
