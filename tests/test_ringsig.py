"""Ring signatures: completeness, soundness probes, tracing, serialization.

The tracing tests run against a brute-force oracle that re-implements the
projection test with the naive curve arithmetic from support.py, so the
package's trace() is never checked against itself.
"""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ringauction.group as group_module
from ringauction.group import OpCounter, count_ops, gen_group_params, hash_to_bits
from ringauction.ringsig import (
    MemberProof,
    NotAMember,
    NotVerified,
    Ring,
    RingSignature,
    TraceKey,
    Untraceable,
    VerifyResult,
    canonical_encode,
    deserialize_signature,
    keygen,
    locate_signer,
    public_params_from_json,
    public_params_to_json,
    serialize_signature,
    setup,
    sign,
    trace,
    verify,
)

from .support import (
    NOT_WELL_FORMED,
    RING3_COMPONENTS,
    forged_signature,
    naive_add,
    naive_mul,
    naive_neg,
    naive_trace_slots,
    off_curve,
    untraceable_words,
)

Q = 7  # secret factor of the tiny 5x7 group


@pytest.fixture(scope="module")
def tiny_setup(tiny_params):
    pp, tk = setup(tiny_params, 8, random.Random(0))
    return tiny_params, pp, tk


def is_degenerate(pp, pub_key):
    """True when the offset key pub - commit_offset has order dividing q.

    Such a key matches the tracing projection no matter who signed: both
    sides collapse to the identity.  The chance of drawing one is q'/n for
    the secret factor q' — negligible at real sizes, one in five in the
    35-element toy group — so toy-sized tests filter these out explicitly
    and dedicated tests pin how tracing treats them.
    """
    offset = naive_add(pub_key, naive_neg(pp.commit_offset, pp.group.ell), pp.group.ell)
    return naive_mul(Q, offset, pp.group.ell) is None


def degenerate_keypairs(pp, count, rng, avoid=()):
    """``count`` distinct keypairs with degenerate keys, none in ``avoid``."""
    keypairs = []
    while len(keypairs) < count:
        kp = keygen(pp, rng)
        taken = [*avoid, *(k.pub_key for k in keypairs)]
        if is_degenerate(pp, kp.pub_key) and kp.pub_key not in taken:
            keypairs.append(kp)
    return keypairs


def make_ring(pp, size, rng, allow_degenerate=False):
    # the tiny group has only 34 possible keys, so draws can collide; the
    # ring type requires distinct keys, hence the resampling here
    keypairs = []
    seen = set()
    while len(keypairs) < size:
        kp = keygen(pp, rng)
        if kp.pub_key in seen:
            continue
        if not allow_degenerate and is_degenerate(pp, kp.pub_key):
            continue
        seen.add(kp.pub_key)
        keypairs.append(kp)
    ring = Ring(pp.group, [kp.pub_key for kp in keypairs])
    return ring, keypairs


# ---------------------------------------------------------------------------
# ring container

class TestRing:
    def test_canonical_order_ignores_input_order(self, tiny_setup):
        _, pp, _ = tiny_setup
        ring, _ = make_ring(pp, 4, random.Random(21))
        shuffled = list(ring.keys)
        random.Random(5).shuffle(shuffled)
        assert Ring(pp.group, shuffled) == ring
        assert Ring(pp.group, shuffled).encoded() == ring.encoded()

    def test_a_ring_equals_only_a_ring(self, tiny_setup):
        # Exact type, both ways: a subclass holding the same keys could
        # override any method, so a Ring does not take it as equal.
        _, pp, _ = tiny_setup
        ring, _ = make_ring(pp, 3, random.Random(23))
        sub = type("SubRing", (Ring,), {})(pp.group, ring.keys)
        assert ring != sub and sub != ring and not ring == sub and not sub == ring

    def test_sorted_by_encoding(self, tiny_setup):
        _, pp, _ = tiny_setup
        ring, _ = make_ring(pp, 5, random.Random(22))
        encodings = [pp.group.encode_point(key) for key in ring]
        assert encodings == sorted(encodings)

    def test_rejects_duplicates_and_empty(self, tiny_setup):
        _, pp, _ = tiny_setup
        key = keygen(pp, random.Random(23)).pub_key
        with pytest.raises(ValueError):
            Ring(pp.group, [key, key])
        with pytest.raises(ValueError):
            Ring(pp.group, [])

    def test_encoded_layout(self, tiny_setup):
        _, pp, _ = tiny_setup
        ring, _ = make_ring(pp, 3, random.Random(24))
        data = ring.encoded()
        assert int.from_bytes(data[:4], "big") == 3
        assert len(data) == 4 + 3 * pp.group.point_bytes

    def test_canonical_encode_binds_message_length(self, tiny_setup):
        _, pp, _ = tiny_setup
        ring, _ = make_ring(pp, 2, random.Random(26))
        assert canonical_encode(b"ab", ring) != canonical_encode(b"a", ring)
        assert canonical_encode(b"", ring).startswith(bytes(8))


# ---------------------------------------------------------------------------
# setup and keys

class TestSetup:
    def test_published_values(self, tiny_setup):
        params, pp, tk = tiny_setup
        assert len(pp.hash_gens) == 8
        assert json.loads(public_params_to_json(pp))["hash"] == {"algorithm": "sha256", "k": 8}
        assert tk.q == Q
        grp = pp.group
        assert grp.pair(pp.key_base, grp.h) == grp.pair(grp.g, pp.blind_base)

    def test_setup_rejects_zero_hash_bits_before_drawing(self, tiny_params):
        rng = random.Random(3)
        state = rng.getstate()
        with pytest.raises(ValueError, match="k must be at least 1"):
            setup(tiny_params, 0, rng)
        assert rng.getstate() == state

    def test_setup_deterministic(self, tiny_params):
        a, _ = setup(tiny_params, 8, random.Random(3))
        b, _ = setup(tiny_params, 8, random.Random(3))
        assert public_params_to_json(a) == public_params_to_json(b)

    def test_keygen_matches_bases(self, tiny_setup):
        params, pp, _ = tiny_setup
        kp = keygen(pp, random.Random(31))
        assert kp.pub_key == naive_mul(kp.x, params.group.g, params.group.ell)
        assert kp.sign_key == naive_mul(kp.x, pp.key_base, params.group.ell)

    def test_keygen_resamples_zero_exponent(self, tiny_setup):
        _, pp, _ = tiny_setup

        class StubRng:
            def __init__(self):
                self.draws = iter([0, 0, 5])

            def randrange(self, _n):
                return next(self.draws)

        kp = keygen(pp, StubRng())
        assert kp.x == 5


# ---------------------------------------------------------------------------
# sign / verify

class TestSignVerify:
    def test_every_signer_every_small_ring(self, tiny_setup):
        _, pp, _ = tiny_setup
        rng = random.Random(41)
        for size in (1, 2, 3, 5):
            ring, keypairs = make_ring(pp, size, rng)
            for kp in keypairs:
                sig = sign(pp, ring, kp, b"msg %d" % size, rng)
                assert verify(pp, ring, b"msg %d" % size, sig)

    def test_verify_survives_ring_permutation(self, tiny_setup):
        _, pp, _ = tiny_setup
        rng = random.Random(42)
        ring, keypairs = make_ring(pp, 4, rng)
        kp = keypairs[2]
        sig = sign(pp, ring, kp, b"stable", rng)
        shuffled = list(ring.keys)
        random.Random(9).shuffle(shuffled)
        assert verify(pp, Ring(pp.group, shuffled), b"stable", sig)

    def test_wrong_message_fails_main_equation(self, tiny_setup):
        _, pp, _ = tiny_setup
        rng = random.Random(43)
        ring, keypairs = make_ring(pp, 3, rng)
        sig = sign(pp, ring, keypairs[0], b"right", rng)
        outcome = verify(pp, ring, b"wrong", sig)
        assert not outcome
        assert outcome.reason == "main-equation"

    def test_tampered_s1_fails_main_equation(self, tiny_setup):
        params, pp, _ = tiny_setup
        rng = random.Random(44)
        ring, keypairs = make_ring(pp, 3, rng)
        kp = keypairs[0]
        sig = sign(pp, ring, kp, b"m", rng)
        from dataclasses import replace
        bad = replace(sig, s1=params.group.add(sig.s1, params.group.g))
        outcome = verify(pp, ring, b"m", bad)
        assert not outcome
        assert outcome.reason == "main-equation"

    def test_tampered_member_fails_membership(self, tiny_setup):
        params, pp, _ = tiny_setup
        rng = random.Random(45)
        ring, keypairs = make_ring(pp, 3, rng)
        kp = keypairs[1]
        sig = sign(pp, ring, kp, b"m", rng)
        members = list(sig.members)
        members[1] = MemberProof(commit=members[1].commit,
                                 proof=params.group.add(members[1].proof, params.group.g))
        bad = RingSignature(s1=sig.s1, s2=sig.s2, members=tuple(members))
        outcome = verify(pp, ring, b"m", bad)
        assert not outcome
        assert outcome.reason == "membership-proof 1"

    def test_wrong_member_count_is_malformed(self, tiny_setup):
        _, pp, _ = tiny_setup
        rng = random.Random(46)
        ring, keypairs = make_ring(pp, 3, rng)
        kp = keypairs[0]
        sig = sign(pp, ring, kp, b"m", rng)
        bad = RingSignature(s1=sig.s1, s2=sig.s2, members=sig.members[:-1])
        assert verify(pp, ring, b"m", bad) == VerifyResult(False, NOT_WELL_FORMED)

    @pytest.mark.parametrize("component", RING3_COMPONENTS)
    def test_off_curve_component_is_malformed(self, tiny_setup, component):
        # well_formed refuses the point before any pairing, whichever
        # component it stands for.
        _, pp, _ = tiny_setup
        rng = random.Random(47)
        ring, keypairs = make_ring(pp, 3, rng)
        sig = sign(pp, ring, keypairs[0], b"m", rng)
        assert verify(pp, ring, b"m", sig)
        assert verify(pp, ring, b"m", off_curve(sig, component)) == VerifyResult(
            False, NOT_WELL_FORMED)

    @pytest.mark.parametrize("part, value", [
        ("s1", 5), ("s1", (1, 2, 3)), ("s1", "list"), ("s2", 5), ("s2", ("a", "b")),
        ("s2", "list"), ("commit", 5), ("commit", (1.5, 2)), ("commit", "list"),
        ("proof", 5), ("proof", "list"), ("members", (1, 2)), ("members", None)], ids=str)
    def test_a_part_that_is_no_point_is_malformed(self, setup16, keys16, part, value):
        # verify never raises: a part of any other type (a list of the
        # point's own coordinates too) is malformed, as an off-curve one is.
        pp, _ = setup16
        ring = Ring(pp.group, [kp.pub_key for kp in keys16[:2]])
        sig = sign(pp, ring, keys16[0], b"m", random.Random(49))
        if part in ("commit", "proof"):
            member = sig.members[1]
            value = list(getattr(member, part)) if value == "list" else value
            bad = replace(sig, members=(sig.members[0], replace(member, **{part: value})))
        else:
            bad = replace(sig, **{part: list(getattr(sig, part)) if value == "list" else value})
        outcome = verify(pp, ring, b"m", bad)
        assert not outcome
        assert outcome.reason.startswith("malformed: ")

    def test_a_commit_that_is_no_point_is_malformed_before_any_membership_verdict(
            self, setup16, keys16):
        # The form is judged whole before any member proof, so slot 1's
        # commit is the verdict, though slot 0's proof fails.
        pp, _ = setup16
        grp = pp.group
        ring = Ring(grp, [kp.pub_key for kp in keys16[:2]])
        sig = sign(pp, ring, keys16[0], b"m", random.Random(50))
        first, second = sig.members
        bad = replace(sig, members=(replace(first, proof=grp.add(first.proof, grp.g)),
                                    replace(second, commit=5)))
        assert verify(pp, ring, b"m", bad) == VerifyResult(False, NOT_WELL_FORMED)

    def test_signature_under_wrong_ring_fails(self, tiny_setup):
        _, pp, _ = tiny_setup
        rng = random.Random(48)
        ring, keypairs = make_ring(pp, 3, rng)
        other_ring, _ = make_ring(pp, 3, rng)
        kp = keypairs[0]
        sig = sign(pp, ring, kp, b"m", rng)
        assert not verify(pp, other_ring, b"m", sig)

    def test_outsider_cannot_sign_for_the_ring(self, tiny_setup):
        _, pp, _ = tiny_setup
        rng = random.Random(50)
        ring, _ = make_ring(pp, 3, rng)
        outsider = keygen(pp, rng)
        assert outsider.pub_key not in ring
        with pytest.raises(NotAMember):
            sign(pp, ring, outsider, b"m", rng)

    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(min_value=1, max_value=4),
           signer=st.integers(min_value=0, max_value=3),
           message=st.binary(max_size=40),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_completeness_property(self, tiny_setup, size, signer, message, seed):
        _, pp, tk = tiny_setup
        signer %= size
        rng = random.Random(seed)
        ring, keypairs = make_ring(pp, size, rng)
        kp = next(k for k in keypairs if k.pub_key == ring[signer])
        sig = sign(pp, ring, kp, message, rng)
        assert verify(pp, ring, message, sig)
        assert trace(tk, pp, ring, message, sig) == (signer, ring[signer])


# ---------------------------------------------------------------------------
# white-box structure of a signature

def _sign_with_draws(pp, ring, kp, message, rng):
    """sign, plus what it drew from rng: e_i per member in ring order, then r."""
    state = rng.getstate()
    sig = sign(pp, ring, kp, message, rng)
    rng.setstate(state)
    blind_exps = [rng.randrange(pp.group.n) for _ in ring]
    return sig, blind_exps, rng.randrange(pp.group.n)


class TestSignatureStructure:
    def test_commitments_and_binding_terms(self, tiny_setup):
        params, pp, _ = tiny_setup
        ell = params.group.ell
        rng = random.Random(61)
        ring, keypairs = make_ring(pp, 3, rng)
        kp = keypairs[2]
        idx = ring.keys.index(kp.pub_key)
        sig, blind_exps, _ = _sign_with_draws(pp, ring, kp, b"white box", rng)
        neg_b0 = naive_neg(pp.commit_offset, ell)
        for i, pub in enumerate(ring):
            e_i = blind_exps[i]
            blind = naive_mul(e_i, params.group.h, ell)
            if i == idx:
                expected = naive_add(naive_add(pub, neg_b0, ell), blind, ell)
            else:
                expected = blind
            assert sig.members[i].commit == expected, i

    def test_s1_s2_composition(self, tiny_setup):
        params, pp, _ = tiny_setup
        ell = params.group.ell
        rng = random.Random(62)
        ring, keypairs = make_ring(pp, 2, rng)
        kp = keypairs[0]
        sig, blind_exps, rand_exp = _sign_with_draws(pp, ring, kp, b"compose", rng)
        assert sig.s2 == naive_mul(rand_exp, params.group.g, ell)
        total = sum(blind_exps) % params.group.n
        from ringauction.ringsig import _waters_sum
        from ringauction.group import hash_to_bits
        bits = hash_to_bits(canonical_encode(b"compose", ring), len(pp.hash_gens))
        expected = naive_add(
            kp.sign_key,
            naive_add(naive_mul(rand_exp, pp.group.to_affine(_waters_sum(pp, bits))[0], ell),
                      naive_mul(total, pp.blind_base, ell), ell),
            ell)
        assert sig.s1 == expected

    def test_signature_size_is_two_plus_two_per_member(self, tiny_setup):
        _, pp, _ = tiny_setup
        rng = random.Random(63)
        for size in (1, 2, 5):
            ring, keypairs = make_ring(pp, size, rng)
            kp = keypairs[0]
            sig = sign(pp, ring, kp, b"sz", rng)
            data = serialize_signature(pp.group, sig)
            assert len(data) == (2 + 2 * size) * pp.group.point_bytes

    def test_signatures_are_randomized(self, tiny_setup):
        _, pp, _ = tiny_setup
        rng = random.Random(64)
        ring, keypairs = make_ring(pp, 2, rng)
        kp = keypairs[0]
        seen = {serialize_signature(pp.group, sign(pp, ring, kp, b"same", rng))
                for _ in range(100)}
        assert len(seen) == 100


def _oracle_signature(pp, ring, keypair, message, rng):
    """The signature ``sign`` makes from rng's draws (e_i per slot in ring
    order, then r), built with the naive oracles alone."""
    grp, ell, n = pp.group, pp.group.ell, pp.group.n
    blinds = [rng.randrange(n) for _ in ring]
    r = rng.randrange(n)
    members = []
    for e, pub in zip(blinds, ring):
        key = naive_add(pub, naive_neg(pp.commit_offset, ell), ell)
        commit = naive_mul(e, grp.h, ell)
        if pub == keypair.pub_key:
            commit = naive_add(commit, key, ell)
            proof = naive_mul(e, commit, ell)
        else:
            proof = naive_mul(e, naive_add(commit, naive_neg(key, ell), ell), ell)
        members.append(MemberProof(commit=commit, proof=proof))
    waters = pp.hash_base
    for bit, gen in zip(hash_to_bits(canonical_encode(message, ring), len(pp.hash_gens)),
                        pp.hash_gens):
        if bit:
            waters = naive_add(waters, gen, ell)
    blinding = naive_mul(sum(blinds) % n, pp.blind_base, ell)
    s1 = naive_add(keypair.sign_key, naive_add(naive_mul(r, waters, ell), blinding, ell), ell)
    return RingSignature(s1=s1, s2=naive_mul(r, grp.g, ell), members=tuple(members))


def _sized_setup(bits, keys=16):
    params = gen_group_params(bits, bits, random.Random(bits))
    pp, tk = setup(params, 16, random.Random(bits + 1))
    rng = random.Random(bits + 2)
    return pp, tk, [keygen(pp, rng) for _ in range(keys)]


class TestSignOracle:
    # sign keeps its points Jacobian and makes them affine in batches; the
    # oracle adds and multiplies affine points one at a time.  With
    # commit_offset moved onto a ring key, that key's K′ is O.
    @pytest.mark.parametrize("bits", (16, 32, 64))
    def test_every_signer_of_rings_of_one_two_and_four(self, bits):
        pp, _, keypairs = _sized_setup(bits, 4)
        for params in (pp, replace(pp, commit_offset=keypairs[1].pub_key)):
            for size in (1, 2, 4):
                ring = Ring(pp.group, [kp.pub_key for kp in keypairs[:size]])
                for index, kp in enumerate(keypairs[:size]):
                    seed = 100 * size + index
                    assert sign(params, ring, kp, b"oracle", random.Random(seed)) == \
                        _oracle_signature(params, ring, kp, b"oracle", random.Random(seed))

    def test_a_ring_of_sixteen_signed_past_the_joint_threshold(self):
        pp, _, keypairs = _sized_setup(16)
        params = replace(pp, commit_offset=keypairs[5].pub_key)
        ring = Ring(pp.group, [kp.pub_key for kp in keypairs])
        for count in range(20):
            kp = keypairs[count % len(keypairs)]
            message = b"round %d" % count
            assert sign(params, ring, kp, message, random.Random(count)) == \
                _oracle_signature(params, ring, kp, message, random.Random(count))
        assert len(pp.group._joint) == 16  # every key's proofs, K′ = O's too


class TestInversions:
    # Field inversions are the pow(z, -1, ell) calls in ringauction.group.
    # A signature makes three, one per batch, whichever path its member
    # proofs take; normalizing each result on its own took 61 on the joint
    # path, 76 on the ladder path, 29 at 64 bits and 23 at 16 bits.  A
    # verify adds two to its pairings' own (37, was 90, in a ring of 16),
    # and an opening needs one (was 47).
    @pytest.fixture
    def inversions(self, monkeypatch):
        calls = []

        def counting_pow(base, exp, mod=None):
            if exp == -1:
                calls.append(mod)
            return pow(base, exp, mod)

        monkeypatch.setattr(group_module, "pow", counting_pow, raising=False)
        return calls

    @pytest.mark.parametrize("bits, size, earlier, path", [
        (32, 16, 16, "exp.joint"), (32, 16, 1, "exp.ladder"), (64, 4, 1, "exp.ladder"),
        (16, 2, 1, "exp.ladder")], ids=["joint", "ladder", "64-bit-ring-4", "16-bit-ring-2"])
    def test_three_per_signature(self, inversions, bits, size, earlier, path):
        pp, tk, keypairs = _sized_setup(bits, size)
        ring = Ring(pp.group, [kp.pub_key for kp in keypairs])
        rng = random.Random(5)
        for _ in range(earlier):  # K′ and the tables are built by now
            sign(pp, ring, keypairs[0], b"earlier", rng)
        inversions.clear()
        counter = OpCounter()
        with count_ops(counter):
            sig = sign(pp, ring, keypairs[-1], b"counted", rng)
        assert len(inversions) <= 3
        assert counter.paths["default"][path] >= size
        inversions.clear()
        assert verify(pp, ring, b"counted", sig)
        assert len(inversions) <= 2 * size + 3 + 3  # the pairings' own, then at most 3
        inversions.clear()
        assert locate_signer(tk, pp, ring, sig)[1] == keypairs[-1].pub_key
        assert len(inversions) <= 2


# ---------------------------------------------------------------------------
# tracing

class TestTrace:
    def test_trace_matches_brute_force_oracle(self, tiny_setup):
        _, pp, tk = tiny_setup
        rng = random.Random(71)
        for trial in range(60):
            size = rng.randrange(1, 5)
            ring, keypairs = make_ring(pp, size, rng)
            kp = keypairs[rng.randrange(size)]
            idx = ring.keys.index(kp.pub_key)
            sig = sign(pp, ring, kp, b"trial %d" % trial, rng)
            assert naive_trace_slots(pp, ring, sig, Q) == ([idx], [idx])
            assert trace(tk, pp, ring, b"trial %d" % trial, sig) == (idx, kp.pub_key)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 4), degenerate=st.integers(0, 4),
           signer=st.sampled_from(("honest", "all decoys", "two marked")))
    @example(seed=0, size=3, degenerate=0, signer="all decoys")  # no slot passes
    @example(seed=0, size=2, degenerate=2, signer="honest")  # the filter keeps none
    @example(seed=0, size=3, degenerate=1, signer="two marked")  # it keeps one of two
    @example(seed=0, size=2, degenerate=0, signer="two marked")  # it keeps both
    def test_trace_names_a_slot_exactly_when_the_naive_rule_leaves_one(
            self, tiny_setup, seed, size, degenerate, signer):
        # Verifying signatures in the 35-element group over rings of clean
        # and degenerate keys: an honest signer's, an all-decoy forgery's and
        # a forgery with two slots (one in a ring of one) that carry their
        # keys.  trace names the slot exactly when the naive rule keeps one,
        # and otherwise raises Untraceable in the words that rule predicts.
        _, pp, tk = tiny_setup
        rng = random.Random(seed)
        degenerate = min(degenerate, size)
        clean = make_ring(pp, size - degenerate, rng)[1] if degenerate < size else []
        keypairs = clean + degenerate_keypairs(pp, degenerate, rng,
                                               avoid=[kp.pub_key for kp in clean])
        ring = Ring(pp.group, [kp.pub_key for kp in keypairs])
        if signer == "honest":
            sig = sign(pp, ring, rng.choice(keypairs), b"oracle", rng)
        else:
            marked = () if signer == "all decoys" else rng.sample(range(size), min(2, size))
            sig = forged_signature(pp, ring, b"oracle", marked, rng)
        assert verify(pp, ring, b"oracle", sig)
        passed, kept = naive_trace_slots(pp, ring, sig, Q)
        if len(kept) == 1:
            assert trace(tk, pp, ring, b"oracle", sig) == (kept[0], ring[kept[0]])
        else:
            with pytest.raises(Untraceable) as raised:
                trace(tk, pp, ring, b"oracle", sig)
            assert str(raised.value) == untraceable_words(passed, kept)

    def test_trace_identifies_each_member_of_one_ring(self, tiny_setup):
        _, pp, tk = tiny_setup
        rng = random.Random(72)
        ring, keypairs = make_ring(pp, 4, rng)
        for kp in keypairs:
            idx = ring.keys.index(kp.pub_key)
            sig = sign(pp, ring, kp, b"per-member", rng)
            assert trace(tk, pp, ring, b"per-member", sig) == (idx, kp.pub_key)

    def test_naive_projection_without_offset_finds_nobody(self, tiny_setup):
        # A tempting simplification of the tracing test — project the
        # commitment and compare against the bare key, ignoring the offset —
        # matches a member only if the offset key has trivial order, which
        # cannot happen in a group of odd composite order; the offset must
        # stay inside the projection.
        params, pp, tk = tiny_setup
        ell = params.group.ell
        rng = random.Random(73)
        ring, keypairs = make_ring(pp, 3, rng)
        kp = keypairs[1]
        idx = ring.keys.index(kp.pub_key)
        sig = sign(pp, ring, kp, b"pitfall", rng)
        for i, pub in enumerate(ring):
            assert pub != pp.commit_offset  # sanity: the degenerate case is absent
            projected = naive_mul(Q, sig.members[i].commit, ell)
            literal = naive_add(projected, pp.commit_offset, ell)
            assert literal != pub, i
        # the correct form, for contrast, singles out the signer
        assert trace(tk, pp, ring, b"pitfall", sig) == (idx, kp.pub_key)

    def test_all_decoy_signature_traces_to_nobody(self, tiny_setup):
        # Hand-built signature whose every slot is a pure blinding value:
        # membership proofs hold (each slot proves "key or nothing"), yet no
        # slot carries a key, so tracing raises Untraceable rather than
        # blaming an arbitrary member.  Knowing a with key_base = [a]g
        # (found by brute force in the 35-element group) lets the forger
        # satisfy the main equation too, so the decoy verifies and reaches
        # the tracing test (``forged_signature``).  Two degenerate members
        # both match the projection test, with commits in G_q, so they
        # leave nobody to name either.
        _, pp, tk = tiny_setup
        rng = random.Random(74)
        words = {0: "no ring slot passes the tracing test",
                 2: "ring slots 0, 2 pass the tracing test; the degenerate-key filter keeps none"}
        for degenerate in (0, 2):
            clean, _ = make_ring(pp, 3 - degenerate, rng)
            extra = degenerate_keypairs(pp, degenerate, rng, avoid=clean.keys)
            ring = Ring(pp.group, [*clean.keys, *(kp.pub_key for kp in extra)])
            fake = forged_signature(pp, ring, b"decoy", (), rng)
            assert verify(pp, ring, b"decoy", fake)
            with pytest.raises(Untraceable) as raised:
                trace(tk, pp, ring, b"decoy", fake)
            assert str(raised.value) == words[degenerate]

    def test_degenerate_decoy_does_not_hide_the_signer(self, tiny_setup):
        # A member whose offset key has order dividing the secret factor
        # matches the projection test no matter who signed: both sides of
        # its comparison collapse to the identity.  Its commit lies in G_q,
        # the signer's does not, so tracing still names the signer.
        # Drawing one is a q-in-n event — negligible at real sizes, common
        # in the toy group, which is what makes it testable here.
        _, pp, tk = tiny_setup
        rng = random.Random(77)
        clean, keypairs = make_ring(pp, 2, rng)
        (degenerate,) = degenerate_keypairs(pp, 1, rng, avoid=clean.keys)
        ring = Ring(pp.group, list(clean.keys) + [degenerate.pub_key])
        signer = next(kp for kp in keypairs if kp.pub_key == clean[0])
        idx = ring.keys.index(signer.pub_key)
        sig = sign(pp, ring, signer, b"ambig", rng)
        assert verify(pp, ring, b"ambig", sig)
        assert trace(tk, pp, ring, b"ambig", sig) == (idx, signer.pub_key)

    def test_degenerate_signer_beside_degenerate_decoy_traces_to_nobody(self, tiny_setup):
        # Both commits lie in G_q and both slots match, so nothing tells
        # the signer from the decoy: tracing refuses to guess.
        _, pp, tk = tiny_setup
        rng = random.Random(79)
        keypairs = degenerate_keypairs(pp, 2, rng)
        ring = Ring(pp.group, [kp.pub_key for kp in keypairs])
        signer = keypairs[0]
        sig = sign(pp, ring, signer, b"ambig", rng)
        assert verify(pp, ring, b"ambig", sig)
        with pytest.raises(Untraceable) as raised:
            trace(tk, pp, ring, b"ambig", sig)
        assert str(raised.value) == (
            "ring slots 0, 1 pass the tracing test; the degenerate-key filter keeps none")

    def test_trace_rejects_structurally_broken_signature(self, tiny_setup):
        _, pp, tk = tiny_setup
        rng = random.Random(75)
        ring, keypairs = make_ring(pp, 2, rng)
        kp = keypairs[0]
        sig = sign(pp, ring, kp, b"m", rng)
        bad = RingSignature(s1=sig.s1, s2=sig.s2, members=sig.members[:1] * 2)
        with pytest.raises(NotVerified):
            trace(tk, pp, ring, b"m", bad)

    def test_trace_rejects_a_failed_membership_proof(self, tiny_setup):
        params, pp, tk = tiny_setup
        rng = random.Random(78)
        ring, keypairs = make_ring(pp, 2, rng)
        kp = keypairs[0]
        sig = sign(pp, ring, kp, b"m", rng)
        from dataclasses import replace
        group = params.group
        member = replace(sig.members[1], proof=group.add(sig.members[1].proof, group.g))
        bad = replace(sig, members=(sig.members[0], member))
        with pytest.raises(NotVerified, match="^membership-proof 1$"):
            trace(tk, pp, ring, b"m", bad)

    def test_trace_checks_the_message_binding(self, tiny_setup):
        # Tracing verifies the signature against its message first: a
        # signature that fails only the main equation is not opened.
        params, pp, tk = tiny_setup
        rng = random.Random(76)
        ring, keypairs = make_ring(pp, 3, rng)
        kp = keypairs[0]
        idx = ring.keys.index(kp.pub_key)
        sig = sign(pp, ring, kp, b"m", rng)
        from dataclasses import replace
        broken = replace(sig, s1=params.group.add(sig.s1, params.group.g))
        with pytest.raises(NotVerified, match="^main-equation$"):
            trace(tk, pp, ring, b"m", broken)
        with pytest.raises(NotVerified, match="^main-equation$"):
            trace(tk, pp, ring, b"other message", sig)
        assert trace(tk, pp, ring, b"m", sig) == (idx, kp.pub_key)

    def test_trace_key_divisible_by_the_order_names_nobody(self, setup16, keys16):
        # [q] with n | q annihilates every slot, so on a one-key ring it would
        # name member 0 whoever signed; locate_signer refuses such a key.
        pp, _ = setup16
        kp = keys16[0]
        ring = Ring(pp.group, [kp.pub_key])
        sig = sign(pp, ring, kp, b"m", random.Random(77))
        for q in (0, pp.group.n):
            with pytest.raises(ValueError, match="multiple of the group order"):
                locate_signer(TraceKey(q), pp, ring, sig)

    @pytest.mark.parametrize("key", ("0", "1", "p", "n"))
    def test_trace_rejects_a_bad_trace_key_before_verifying(self, params16, setup16,
                                                            keys16, key):
        # A key that leaves h alive (1, p) finds no slot and one that kills g
        # (0, n) finds every slot; trace refuses both before any pairing
        # instead of reading them as an ambiguous trace.
        pp, _ = setup16
        ring = Ring(pp.group, [kp.pub_key for kp in keys16[:3]])
        kp = keys16[1]
        sig = sign(pp, ring, kp, b"m", random.Random(78))
        q = {"0": 0, "1": 1, "p": params16.p, "n": params16.group.n}[key]
        counter = OpCounter()
        with count_ops(counter), pytest.raises(ValueError, match="^bad trace key"):
            trace(TraceKey(q), pp, ring, b"m", sig)
        assert counter.phase("default").get("pair", 0) == 0

    @pytest.mark.parametrize("orders", (0, 1))
    def test_trace_accepts_the_key_shifted_by_the_order(self, params16, setup16,
                                                        keys16, orders):
        pp, tk = setup16
        ring = Ring(pp.group, [kp.pub_key for kp in keys16[:3]])
        kp = keys16[1]
        idx = ring.keys.index(kp.pub_key)
        sig = sign(pp, ring, kp, b"m", random.Random(79))
        key = TraceKey(tk.q + orders * params16.group.n)
        assert trace(key, pp, ring, b"m", sig) == (idx, kp.pub_key)


# ---------------------------------------------------------------------------
# serialization

class TestSerialization:
    def test_signature_roundtrip(self, tiny_setup):
        _, pp, _ = tiny_setup
        rng = random.Random(81)
        ring, keypairs = make_ring(pp, 3, rng)
        kp = keypairs[1]
        sig = sign(pp, ring, kp, b"round", rng)
        data = serialize_signature(pp.group, sig)
        back = deserialize_signature(pp.group, data, len(ring))
        assert back == sig

    def test_deserialize_rejects_wrong_length(self, tiny_setup):
        _, pp, _ = tiny_setup
        with pytest.raises(ValueError):
            deserialize_signature(pp.group, b"\x00" * 10, 2)

    def test_public_params_json_roundtrip(self, tiny_setup, tiny_params):
        _, pp, _ = tiny_setup
        data = public_params_to_json(pp)
        back = public_params_from_json(data)
        assert back.group.n == tiny_params.group.n
        assert back.group.ell == tiny_params.group.ell
        assert back.key_base == pp.key_base
        assert back.hash_gens == pp.hash_gens
        grp = back.group
        assert grp.pair(back.key_base, grp.h) == grp.pair(grp.g, back.blind_base)
        assert public_params_to_json(back) == data

    def test_roundtripped_params_verify_existing_signature(self, tiny_setup):
        _, pp, _ = tiny_setup
        rng = random.Random(82)
        ring, keypairs = make_ring(pp, 2, rng)
        kp = keypairs[0]
        sig = sign(pp, ring, kp, b"travel", rng)
        back = public_params_from_json(public_params_to_json(pp))
        ring_again = Ring(back.group, list(ring.keys))
        assert verify(back, ring_again, b"travel", sig)

    def test_json_is_canonical(self, tiny_setup):
        _, pp, _ = tiny_setup
        data = public_params_to_json(pp)
        assert b" " not in data
        import json
        keys = list(json.loads(data))
        assert keys == sorted(keys)
