"""Independent oracles used by the tests.

The arithmetic here is deliberately written from first principles — trial
division, the textbook chord-and-tangent formulas, square-and-multiply —
so that the package's own group arithmetic is checked against code that
shares none of its internals.  ``eager_verify_transcript`` is the replay
that verifies every posted bid; the package's lazy replay must reach the
same verdict on every transcript.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import replace

from ringauction.auction import parse_bid_payload
from ringauction.group import (
    GroupParams,
    InvalidPoint,
    PairingGroup,
    _random_point,
    group_from_primes,
    hash_to_bits,
)
from ringauction.harness import TranscriptReport, read_transcript
from ringauction.registry import (
    BID_POSTED,
    KEY_EVICTED,
    KEY_PUBLISHED,
    MalformedBid,
    MalformedBoard,
)
from ringauction.ringsig import MemberProof, RingSignature, canonical_encode, verify


def is_prime_trial_division(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def primes_below(limit: int) -> bytearray:
    """flags[m] = 1 exactly when m < limit is prime: trial division of every
    m at once (the sieve of Eratosthenes), each prime up to sqrt(limit)
    striking out its multiples."""
    flags = bytearray([1]) * limit
    flags[:2] = bytes(min(2, limit))
    for d in range(2, math.isqrt(limit - 1) + 1):
        if flags[d]:
            flags[d * d::d] = bytes(len(range(d * d, limit, d)))
    return flags


def strong_probable_prime(m: int, a: int) -> bool:
    """One Miller-Rabin round: odd m > 2 is a strong probable prime to base a."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, m)
    if x in (1, m - 1):
        return True
    for _ in range(s - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


# The first twelve primes: as Miller-Rabin bases they decide every odd m
# below psi_12 = 318665857834031151167461, the least composite that is a
# strong probable prime to all of them (Sorenson and Webster, Math. Comp. 2017).
PSI_12 = 318665857834031151167461
TWELVE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.lru_cache(maxsize=None)
def prime_factors(m: int) -> tuple[int, ...]:
    """The prime factors of m > 0 by trial division, with multiplicity."""
    factors, d = [], 2
    while d * d <= m:
        while m % d == 0:
            factors.append(d)
            m //= d
        d += 1
    return tuple(factors + [m] * (m > 1))


def naive_jacobi(a: int, m: int) -> int:
    """The Jacobi symbol (a/m) for odd m > 0, as the definition has it: the
    product of the Legendre symbols of a over the prime factors of m, with
    multiplicity, each from Euler's criterion a^((p-1)/2) mod p."""
    symbol = 1
    for p in prime_factors(m):
        euler = pow(a, (p - 1) // 2, p)
        symbol *= 1 if euler == 1 else -1 if euler == p - 1 else 0
    return symbol


def naive_on_curve(P, ell: int) -> bool:
    if P is None:
        return True
    x, y = P
    return (y * y - (x * x * x + x)) % ell == 0


def naive_slope(P, Q, ell: int):
    """Slope of the chord (or tangent, if P == Q) through two finite points.

    None when the line is vertical.
    """
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % ell == 0:
        return None
    if P == Q:
        return (3 * x1 * x1 + 1) * pow(2 * y1, ell - 2, ell) % ell
    return (y2 - y1) * pow(x2 - x1, ell - 2, ell) % ell


def naive_add(P, Q, ell: int):
    """Chord-and-tangent addition on y^2 = x^3 + x over F_ell."""
    if P is None:
        return Q
    if Q is None:
        return P
    lam = naive_slope(P, Q, ell)
    if lam is None:
        return None
    x1, y1 = P
    x3 = (lam * lam - x1 - Q[0]) % ell
    y3 = (lam * (x1 - x3) - y1) % ell
    return (x3, y3)


def naive_mul(k: int, P, ell: int):
    """Scalar multiple by repeated doubling (handles negative k)."""
    if k < 0:
        return naive_mul(-k, naive_neg(P, ell), ell)
    acc = None
    addend = P
    while k:
        if k & 1:
            acc = naive_add(acc, addend, ell)
        addend = naive_add(addend, addend, ell)
        k >>= 1
    return acc


def naive_neg(P, ell: int):
    if P is None:
        return None
    x, y = P
    return (x, (-y) % ell)


def naive_order(P, ell: int, bound: int) -> int:
    """Order of P by brute force, up to ``bound`` additions."""
    acc = P
    for m in range(1, bound + 1):
        if acc is None:
            return m
        acc = naive_add(acc, P, ell)
    raise AssertionError(f"order of {P} exceeds {bound}")


def cofactor_torsion(group, rng):
    """A point of exact order r = (ell + 1)/n, the cofactor: [n]X for random X
    until the multiple has that order (the curve group is cyclic)."""
    n, ell = group.n, group.ell
    r = (ell + 1) // n
    while True:
        T = naive_mul(n, _random_point(ell, rng), ell)
        if T is not None and naive_order(T, ell, r) == r:
            return T


def torsion_shifts(group, P, rng):
    """(0, 0) and P + T_d for every divisor d > 1 of the cofactor
    r = (ell + 1)/n, with T_d = [r/d]T of exact order d for a T of exact
    order r: for P in <g>, none of them has [n]Q = O."""
    ell = group.ell
    r = (ell + 1) // group.n
    T = cofactor_torsion(group, rng)
    return [(0, 0)] + [naive_add(P, naive_mul(r // d, T, ell), ell)
                       for d in range(2, r + 1) if r % d == 0]


def toy_params(ell: int) -> GroupParams:
    """The toy groups of n = 35 = 5 * 7 (q = 7): ell = 139 (r = 4), as
    group_from_primes(5, 7) builds it, or ell = 419 (r = 12, so r has the
    odd prime 3), where group_from_primes stops at r = 4, so g and h are
    built as it builds them."""
    if ell == 139:
        return group_from_primes(5, 7, random.Random(1))
    n, rng = 35, random.Random(0)
    while True:
        g = naive_mul((ell + 1) // n, _random_point(ell, rng), ell)
        if g is not None and naive_order(g, ell, n) == n:
            return GroupParams(p=5, q=7, group=PairingGroup(n, ell, g, naive_mul(15, g, ell)))


def naive_in_group(P, n: int, ell: int) -> bool:
    """P is a curve point with [n]P = O, by repeated doubling: the oracle for
    ``PairingGroup.in_group``."""
    return naive_on_curve(P, ell) and naive_mul(n, P, ell) is None


def naive_trace_slots(pp, ring, sig, q: int):
    """The opening rule in naive arithmetic, the oracle for
    ``ringsig.locate_signer``: (passed, kept), where passed holds the slots i
    with [q](C_i - K'_i) = O for K'_i = pub_i - commit_offset, and kept is
    passed when it has at most one slot, else those of its slots with
    [q]C_i != O (the degenerate-key filter)."""
    ell = pp.group.ell
    neg_offset = naive_neg(pp.commit_offset, ell)
    commits = [member.commit for member in sig.members]
    passed = [i for i, (pub, C) in enumerate(zip(ring, commits))
              if naive_mul(q, naive_add(C, naive_neg(naive_add(pub, neg_offset, ell), ell), ell),
                           ell) is None]
    if len(passed) < 2:
        return passed, passed
    return passed, [i for i in passed if naive_mul(q, commits[i], ell) is not None]


def untraceable_words(passed, kept) -> str:
    """``Untraceable``'s message for the oracle's (passed, kept) when kept is
    not one slot."""
    if not passed:
        return "no ring slot passes the tracing test"
    listed = [", ".join(map(str, slots)) or "none" for slots in (passed, kept)]
    return (f"ring slots {listed[0]} pass the tracing test; "
            f"the degenerate-key filter keeps {listed[1]}")


def forged_signature(pp, ring, message: bytes, marked, rng):
    """A verifying signature on ``message`` over ``ring`` in which each slot
    in ``marked`` carries its offset key K' and every other slot only a
    blinding value, in naive arithmetic.  Each slot draws e from ``rng`` in
    ring order, C = [e]h (+ K' when marked) and its proof [e]C when marked,
    [e](C - K') when not; then r, s1 = [a](commit_offset + sum C) + [r]W and
    s2 = [r]g.  This takes the exponent a with key_base = [a]g, found by
    brute force, so only a toy group will do.  With ``marked`` empty no slot
    carries a key: an all-decoy signature."""
    grp = pp.group
    n, ell = grp.n, grp.ell
    a = next(a for a in range(n) if naive_mul(a, grp.g, ell) == pp.key_base)
    neg_offset = naive_neg(pp.commit_offset, ell)
    members, total = [], pp.commit_offset
    for i, pub in enumerate(ring):
        key = naive_add(pub, neg_offset, ell)
        e = rng.randrange(n)
        commit = naive_mul(e, grp.h, ell)
        if i in marked:
            commit = naive_add(commit, key, ell)
        base = commit if i in marked else naive_add(commit, naive_neg(key, ell), ell)
        members.append(MemberProof(commit=commit, proof=naive_mul(e, base, ell)))
        total = naive_add(total, commit, ell)
    waters = pp.hash_base
    bits = hash_to_bits(canonical_encode(message, ring), len(pp.hash_gens))
    for bit, gen in zip(bits, pp.hash_gens):
        if bit:
            waters = naive_add(waters, gen, ell)
    r = rng.randrange(n)
    return RingSignature(s1=naive_add(naive_mul(a, total, ell), naive_mul(r, waters, ell), ell),
                         s2=naive_mul(r, grp.g, ell), members=tuple(members))


# The board's refusal of a bid it cannot read, and of a handed ``Bid`` whose
# points are not canonical (admission reports both as the board words them;
# ``ringsig.well_formed`` judges the latter).
UNREADABLE = "unreadable bid: "
NOT_CANONICAL = UNREADABLE + "not a bid of canonical points"
# ``verify``'s words for the same refusal of a (ring, signature) pair's form.
NOT_WELL_FORMED = "malformed: not a signature of canonical points"


class Fresh(bytes):
    """Bytes that hash by id and equal only themselves, so no set or dict
    of bytes finds one: a door that takes a ``bytes`` subclass would let it
    past every "seen before" rule."""

    __hash__ = object.__hash__

    def __eq__(self, other):
        return self is other


class EqualsAnything(tuple):
    """A tuple that equals anything."""

    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return True


# The components of a ring-of-3 signature, as named by ``off_curve``.
RING3_COMPONENTS = ("s1", "s2", "commit0", "commit1", "commit2", "proof0", "proof1", "proof2")


def off_curve(sig, component: str):
    """sig with one component ("s1", "s2", "commit<i>" or "proof<i>")
    replaced by (1, 1), which is on no curve y^2 = x^3 + x."""
    if component in ("s1", "s2"):
        return replace(sig, **{component: (1, 1)})
    members = list(sig.members)
    index = int(component[-1])
    members[index] = replace(members[index], **{component[:-1]: (1, 1)})
    return replace(sig, members=tuple(members))


def all_curve_points(ell: int):
    """Every point of y^2 = x^3 + x over F_ell, identity included."""
    points = [None]
    for x in range(ell):
        rhs = (x * x * x + x) % ell
        for y in range(ell):
            if (y * y) % ell == rhs:
                points.append((x, y))
    return points


def _fp2_times(u, v, ell: int):
    # (a + b i)(c + d i) with i^2 = -1
    return ((u[0] * v[0] - u[1] * v[1]) % ell, (u[0] * v[1] + u[1] * v[0]) % ell)


def naive_pair(P, Q, n: int, ell: int):
    """Textbook Tate pairing e(P, phi(Q)) as an (re, im) pair in F_ell^2.

    An affine Miller loop over the bits of n, with phi(x, y) = (-x, i*y).
    Lines are evaluated at phi(Q); vertical lines and lines at infinity are
    left out, because their values lie in F_ell and the final exponentiation
    maps every element of F_ell* to 1.  The result is then raised to the
    full exponent (ell^2 - 1) / n by square-and-multiply.
    """
    if P is None or Q is None:
        return (1, 0)
    qx, qy = (-Q[0]) % ell, Q[1] % ell

    def line(R, S):
        if R is None or S is None:
            return (1, 0)
        lam = naive_slope(R, S, ell)
        if lam is None:
            return (1, 0)
        # y - y_R - lam * (x - x_R) at (qx, i * qy)
        return ((-R[1] - lam * (qx - R[0])) % ell, qy)

    f, R = (1, 0), P
    for bit in bin(n)[3:]:
        f = _fp2_times(_fp2_times(f, f, ell), line(R, R), ell)
        R = naive_add(R, R, ell)
        if bit == "1":
            f = _fp2_times(f, line(R, P), ell)
            R = naive_add(R, P, ell)

    e = (ell * ell - 1) // n
    result = (1, 0)
    while e:
        if e & 1:
            result = _fp2_times(result, f, ell)
        f = _fp2_times(f, f, ell)
        e >>= 1
    return result


def eager_verify_transcript(data: bytes) -> TranscriptReport:
    """Replay that verifies every posted bid as it is read, then checks each
    announced winner against all verifying bids of its auction posted so far.
    Leaves ``outcomes`` empty."""
    def invalid(seq, reason):
        return TranscriptReport(False, failing_seq=seq, reason=reason)

    try:
        pp, entries = read_transcript(data)
    except MalformedBoard as exc:
        return invalid(exc.seq, exc.reason)
    group = pp.group

    active = set()
    evicted = set()  # keys removed by key-evicted records
    bids = {}  # seq -> (auction_id, price, payload, verifies)
    payloads = set()  # of the posted bids
    announced = set()
    winners = []
    for seq, (kind, payload) in enumerate(entries):
        if kind == KEY_PUBLISHED:
            try:
                key = group.decode_point(payload)
            except InvalidPoint as exc:
                return invalid(seq, f"unreadable key: {exc}")
            if key is None:
                return invalid(seq, "identity point published as a key")
            if key == (0, 0):
                return invalid(seq, "order-2 point published as a key")
            if group.encode_point(key) != payload:
                return invalid(seq, "non-canonical key encoding")
            if payload in active:
                return invalid(seq, "key is already active")
            if payload in evicted:
                return invalid(seq, "publishing a key that was evicted")
            active.add(payload)
        elif kind == KEY_EVICTED:
            if payload not in active:
                return invalid(seq, "evicting a key that is not active")
            active.discard(payload)
            evicted.add(payload)
        elif kind == BID_POSTED:
            try:
                bid = parse_bid_payload(group, payload)
            except MalformedBid as exc:
                return invalid(seq, f"unreadable bid: {exc}")
            if payload in payloads:
                return invalid(seq, "bid payload already posted")
            if bid.auction_id in announced:
                return invalid(seq, "bid posted after its auction's winner")
            if bid.price < 1:
                return invalid(seq, "non-positive price")
            for key in bid.ring:
                if group.encode_point(key) not in active:
                    return invalid(seq, "ring key not in the active view")
            verifies = bool(verify(pp, bid.ring, bid.message_bytes(), bid.signature))
            bids[seq] = (bid.auction_id, bid.price, payload, verifies)
            payloads.add(payload)
        else:  # winner-announced
            if len(payload) < 8:
                return invalid(seq, "winner record too short")
            ref = int.from_bytes(payload[:8], "big")
            if ref not in bids:
                return invalid(seq, "winner references an unknown bid")
            auction_id, price, posted, verifies = bids[ref]
            if payload[8:] != posted:
                return invalid(seq, "winner payload differs from the referenced bid")
            if not verifies:
                return invalid(seq, "announced winner's signature does not verify")
            if auction_id in announced:
                return invalid(seq, "auction already has an announced winner")
            best = min((-b[1], s) for s, b in bids.items() if b[0] == auction_id and b[3])
            if best[1] != ref:
                return invalid(seq, "a better verifying bid exists than the announced winner")
            announced.add(auction_id)
            winners.append((auction_id, ref, price))
    return TranscriptReport(True, winners=tuple(winners))


def verdict(report: TranscriptReport):
    """The parts of a replay report on which lazy and eager replay agree."""
    return report.valid, report.failing_seq, report.reason, report.winners
