"""Composite-order symmetric pairing group over a supersingular curve.

The curve y^2 = x^3 + x over F_ell, with ell prime and ell = 3 (mod 4), is
supersingular and its group of rational points is cyclic of order ell + 1.
Choosing ell = n*r - 1 therefore embeds a cyclic subgroup of a chosen
composite order n = p*q, containing order-p and order-q subgroups.  The
distortion map (x, y) -> (-x, i*y), with i^2 = -1 in F_ell^2, turns the
Tate pairing into a symmetric bilinear map that is non-degenerate on that
subgroup, with values in the order-n subgroup of F_ell^2*.

Everything is plain big-integer arithmetic.  Points are affine at the API;
inside, Jacobian (X, Y, Z) stands for (X/Z^2, Y/Z^3), with Z = 0 for O.
Variable-base scalar multiplication runs a Montgomery ladder on x = X/Z
alone, so [k]P = O shows as Z = 0 before any inversion, and recovers y with
one inversion; the Miller loop and the window tables run in Jacobian
coordinates and invert once at the end, and the final exponentiation uses
the Frobenius map so that it needs one inversion in F_ell and a short power.
Since -(x, y) = (x, -y) costs nothing, both walk signed digits: the Miller
loop the non-adjacent form of n, a window mul the base-32 digits -15..16.
g, h and the points passed to PairingGroup.precompute are fixed bases.  mul
takes [j * 32^i]P from a window table, built at a declared base's first mul
and at g's or h's second, and only when [n]P = O, as only then may a scalar
be reduced mod n; pair evaluates the Miller lines of a fixed first argument,
stored once, at each Q.  check_public_group decides, from the public
values alone, whether a group is one gen_group_params could have built.
The parameter sizes used throughout this package are study material:
breaking anonymity only requires factoring n, and nothing here is
constant-time.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

Point = Optional[tuple[int, int]]  # affine (x, y); None is the identity


class GroupError(Exception):
    """Base class for parameter-construction and arithmetic failures."""


class ParameterSearchExhausted(GroupError):
    """No prime ell = n*r - 1 was found within the configured search bound."""


class InvalidPoint(GroupError):
    """A point is not on the curve or not decodable."""


# ---------------------------------------------------------------------------
# operation counting
#
# The counter is passive instrumentation: installing one never changes any
# computed value, it only tallies the counted entry points below.

class OpCounter:
    """Per-phase tallies of group operations and hash calls.

    Keys: "exp" scalar multiplications, "mul" point additions, "inv" point
    negations, "hash" hash invocations, "pair" pairing evaluations.  A scalar
    multiplication or pairing counts once; their internal point arithmetic is
    part of that single operation and is not tallied separately.
    """

    def __init__(self) -> None:
        self._phase = "default"
        self.phases: dict[str, dict[str, int]] = {}  # phase -> op kind -> count

    def set_phase(self, name: str) -> None:
        self._phase = name

    def bump(self, op: str) -> None:
        tally = self.phases.setdefault(self._phase, {})
        tally[op] = tally.get(op, 0) + 1

    def phase(self, name: str) -> dict[str, int]:
        """A copy of one phase's tally; {} for a phase that counted nothing."""
        return dict(self.phases.get(name, {}))


_ACTIVE_COUNTER: OpCounter | None = None


def _bump(op: str) -> None:
    counter = _ACTIVE_COUNTER
    if counter is not None:
        counter.bump(op)


@contextmanager
def count_ops(counter: OpCounter | None) -> Iterator[OpCounter | None]:
    """Install ``counter`` as the active tally for the duration of the block."""
    global _ACTIVE_COUNTER
    previous = _ACTIVE_COUNTER
    _ACTIVE_COUNTER = counter
    try:
        yield counter
    finally:
        _ACTIVE_COUNTER = previous


# ---------------------------------------------------------------------------
# primality

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _mr_composite_witness(a: int, d: int, s: int, m: int) -> bool:
    x = pow(a, d, m)
    if x == 1 or x == m - 1:
        return False
    for _ in range(s - 1):
        x = x * x % m
        if x == m - 1:
            return False
    return True


def is_probable_prime(m: int) -> bool:
    """Deterministic Miller-Rabin at the sizes used here.

    The fixed base set decides every m below 3.3e24 exactly; beyond that,
    extra bases derived from m keep the error chance negligible.
    """
    if m < 2:
        return False
    for p in _SMALL_PRIMES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if _mr_composite_witness(a, d, s, m):
            return False
    if m >= 3_317_044_064_679_887_385_961_981:
        seed = m.to_bytes((m.bit_length() + 7) // 8, "big")
        for i in range(16):
            digest = hashlib.sha256(seed + bytes([i])).digest()
            a = int.from_bytes(digest, "big") % (m - 3) + 2
            if _mr_composite_witness(a, d, s, m):
                return False
    return True


def _sample_prime(bits: int, rng) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate


# ---------------------------------------------------------------------------
# raw curve arithmetic (uncounted; the curve is always y^2 = x^3 + x)

def _on_curve(P: Point, ell: int) -> bool:
    if P is None:
        return True
    x, y = P
    return (y * y - (x * x * x + x)) % ell == 0


def _point_neg(P: Point, ell: int) -> Point:
    if P is None:
        return None
    x, y = P
    return (x, (-y) % ell)


def _point_add(P: Point, Q: Point, ell: int) -> Point:
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % ell == 0:
            return None
        lam = (3 * x1 * x1 + 1) * pow(2 * y1, -1, ell) % ell
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
    x3 = (lam * lam - x1 - x2) % ell
    y3 = (lam * (x1 - x3) - y1) % ell
    return (x3, y3)


def _double_and_add(k: int) -> str:
    # Left-to-right steps for k > 0 after its leading digit, from the
    # non-adjacent form of k (Morain-Olivos 1990): "d" doubles the running
    # point, "a" adds the base and "s" adds its negative.  At least two
    # doublings come before each "a" or "s", so a third of the bits add.
    steps = []
    while k > 1:
        digit = 2 - (k & 3) if k & 1 else 0
        steps.append(("d", "da", "ds")[digit])
        k = (k - digit) >> 1
    return "".join(reversed(steps))


def _jac_double(X: int, Y: int, Z: int, ell: int) -> tuple[int, int, int]:
    # Z = 2*Y*Z comes out 0 when R is 2-torsion or the identity, as 2R = O.
    YY = Y * Y % ell
    ZZ = Z * Z % ell
    M = (3 * X * X + ZZ * ZZ) % ell
    S = 4 * X * YY % ell
    X3 = (M * M - 2 * S) % ell
    return X3, (M * (S - X3) - 8 * YY * YY) % ell, 2 * Y * Z % ell


def _jac_add(X: int, Y: int, Z: int, xp: int, yp: int, ell: int) -> tuple[int, int, int]:
    # Mixed addition R + P of a Jacobian R and a finite affine P.
    if not Z:
        return xp, yp, 1
    ZZ = Z * Z % ell
    H = (xp * ZZ - X) % ell
    S = (yp * ZZ * Z - Y) % ell
    if H:
        HH = H * H % ell
        HHH = H * HH % ell
        V = X * HH % ell
        X3 = (S * S - HHH - 2 * V) % ell
        return X3, (S * (V - X3) - Y * HHH) % ell, Z * H % ell
    if S:  # R = -P
        return 1, 1, 0
    return _jac_double(X, Y, Z, ell)  # R = P


def _to_affine(points: list, ell: int) -> list[Point]:
    # Jacobian points to affine with one inversion (Montgomery's trick).
    prefix, acc = [], 1
    for _, _, Z in points:
        prefix.append(acc)
        acc = acc * (Z or 1) % ell
    inv = pow(acc, -1, ell)
    out: list[Point] = [None] * len(points)
    for j in range(len(points) - 1, -1, -1):
        X, Y, Z = points[j]
        if Z:
            zi = inv * prefix[j] % ell
            inv = inv * Z % ell
            zi2 = zi * zi % ell
            out[j] = (X * zi2 % ell, Y * zi2 * zi % ell)
    return out


def _point_mul(k: int, P: Point, ell: int) -> Point:
    # Montgomery ladder on x = X/Z alone (Brier-Joye, PKC 2002).  R1 = [m]P
    # and R2 = [m+1]P, so R2 - R1 = P and their sum needs only x = x(P):
    #   2R1     = ((X1^2 - Z1^2)^2, 4*X1*Z1*(X1^2 + Z1^2))
    #   R1 + R2 = ((X1*X2 - Z1*Z2)^2, x*(X1*Z2 - X2*Z1)^2)
    # Both come from U = X1 + Z1 and V = X1 - Z1, scaled by 2 and by 4.  A
    # bit 0 doubles R1 and adds into R2; a bit 1 does the same with the two
    # swapped, and they stay swapped until a bit 0.
    if P is None or k == 0:
        return None
    if k < 0:
        k, P = -k, _point_neg(P, ell)
    xp, yp = P
    if not yp:  # (0, 0), the one point of order 2, where x(P) = 0
        return P if k & 1 else None
    X1, Z1, X2, Z2 = 1, 0, xp, 1  # O and P
    swapped = "0"
    for bit in bin(k)[2:]:
        if bit != swapped:
            X1, Z1, X2, Z2 = X2, Z2, X1, Z1
            swapped = bit
        U, V = X1 + Z1, X1 - Z1
        A, B = U * (X2 - Z2) % ell, V * (X2 + Z2) % ell
        U, V = U * U % ell, V * V % ell
        X1, Z1 = 2 * U * V % ell, (U - V) * (U + V) % ell
        A, B = A + B, B - A
        X2, Z2 = A * A % ell, xp * B * B % ell
    if swapped == "1":
        X1, Z1, X2, Z2 = X2, Z2, X1, Z1
    if not Z1:
        return None
    if not Z2:  # [k + 1]P = O
        return (xp, ell - yp)
    # y of [k]P from x(P), y(P) and x of [k]P and [k + 1]P, over the one
    # inversion of 2*y*Z1^2*Z2 (Okeya-Sakurai, CHES 2001).
    d = 2 * yp * Z1 * Z2 % ell
    inv = pow(d * Z1, -1, ell)
    xz = xp * Z1
    y = (Z1 + xp * X1) * (xz + X1) * Z2 - X2 * (xz - X1) * (xz - X1)
    return (X1 * d * inv % ell, y * inv % ell)


_WINDOW = 5  # bits per signed digit of a fixed-base scalar


def _window_table(P: tuple[int, int], n: int, ell: int):
    """Row i holds the affine [j * 32^i]P, j = 1..16 (None for O), for each
    signed base-32 digit of a scalar below n, the last row taking the final
    carry; None unless [n]P = O."""
    rows, base = [], P
    for _ in range(n.bit_length() // _WINDOW + 1):
        X, Y, Z = 1, 1, 0
        jac = []
        for _ in range(1 << (_WINDOW - 1)):
            if base is not None:
                X, Y, Z = _jac_add(X, Y, Z, *base, ell)
            jac.append((X, Y, Z))
        jac.append(_jac_double(X, Y, Z, ell))  # the next row's base
        *row, base = _to_affine(jac, ell)
        rows.append(row)
    return rows if _window_mul(rows, n, ell) is None else None


def _window_mul(rows, k: int, ell: int) -> Point:
    # One mixed addition per nonzero digit d of 0 <= k < n, recoded on the
    # fly into -15 <= d <= 16; a negative d adds -[|d| * 32^i]P = (x, -y).
    X, Y, Z = 1, 1, 0
    for row in rows:
        d = ((k + 15) & 31) - 15
        k = (k - d) >> _WINDOW
        if not d or row[abs(d) - 1] is None:
            continue
        xp, yp = row[abs(d) - 1]
        if d < 0:
            yp = (-yp) % ell
        if not Z:
            X, Y, Z = xp, yp, 1
            continue
        ZZ = Z * Z % ell
        H = (xp * ZZ - X) % ell
        S = (yp * ZZ * Z - Y) % ell
        if H:
            HH = H * H % ell
            HHH = H * HH % ell
            V = X * HH % ell
            X3 = (S * S - HHH - 2 * V) % ell
            X, Y, Z = X3, (S * (V - X3) - Y * HHH) % ell, Z * H % ell
        elif S:  # R = -P
            Z = 0
        else:  # R = P
            X, Y, Z = _jac_double(X, Y, Z, ell)
    if not Z:
        return None
    zi = pow(Z, -1, ell)
    return (X * zi * zi % ell, Y * zi * zi * zi % ell)


def decode_point_bytes(data: bytes, ell: int) -> Point:
    """Decode the canonical fixed-width encoding for a curve modulus ell."""
    width = (ell.bit_length() + 7) // 8
    if len(data) != width + 1:
        raise InvalidPoint("wrong point encoding length")
    x = int.from_bytes(data[:-1], "big")
    tag = data[-1]
    if tag == 0x00:
        if x != 0:
            raise InvalidPoint("identity encoding must be all zero")
        return None
    if tag not in (0x02, 0x03):
        raise InvalidPoint(f"unknown parity tag {tag:#04x}")
    if x >= ell:
        raise InvalidPoint("x coordinate out of range")
    z = (x * x * x + x) % ell
    y = pow(z, (ell + 1) // 4, ell)
    if y * y % ell != z:
        raise InvalidPoint("x coordinate is not on the curve")
    if (y & 1) != (tag == 0x03):
        if y == 0:
            raise InvalidPoint("y = 0 takes the even parity tag")
        y = ell - y
    return (x, y)


def _random_point(ell: int, rng) -> tuple[int, int]:
    # Uniform over finite points with y != 0; odd-order work never needs the
    # single 2-torsion point (0, 0).
    exp = (ell + 1) // 4
    while True:
        x = rng.randrange(ell)
        z = (x * x * x + x) % ell
        if z == 0:
            continue
        y = pow(z, exp, ell)
        if y * y % ell != z:
            continue
        if rng.getrandbits(1):
            y = ell - y
        return (x, y)


# ---------------------------------------------------------------------------
# F_ell^2 = F_ell(i) with i^2 = -1 (irreducible because ell = 3 mod 4)

_FP2_ONE = (1, 0)


def _fp2_mul(u, v, ell):
    a, b = u
    c, d = v
    return ((a * c - b * d) % ell, (a * d + b * c) % ell)


def _fp2_sqr(u, ell):
    a, b = u
    return ((a * a - b * b) % ell, 2 * a * b % ell)


def _fp2_pow(u, e, ell):
    if e == 0:
        return _FP2_ONE
    acc = _FP2_ONE
    for bit in bin(e)[2:]:
        acc = _fp2_sqr(acc, ell)
        if bit == "1":
            acc = _fp2_mul(acc, u, ell)
    return acc


def _fp2_inv(u, ell):
    a, b = u
    norm_inv = pow((a * a + b * b) % ell, -1, ell)
    return (a * norm_inv % ell, (-b) * norm_inv % ell)


@dataclass(frozen=True)
class GtElement:
    """Element of the order-n target subgroup of F_ell^2*."""

    re: int
    im: int
    ell: int

    def __mul__(self, other: "GtElement") -> "GtElement":
        if self.ell != other.ell:
            raise ValueError("cannot mix target fields")
        re, im = _fp2_mul((self.re, self.im), (other.re, other.im), self.ell)
        return GtElement(re, im, self.ell)

    def __pow__(self, exponent: int) -> "GtElement":
        base = (self.re, self.im)
        if exponent < 0:
            base = _fp2_inv(base, self.ell)
            exponent = -exponent
        re, im = _fp2_pow(base, exponent, self.ell)
        return GtElement(re, im, self.ell)

    def inverse(self) -> "GtElement":
        re, im = _fp2_inv((self.re, self.im), self.ell)
        return GtElement(re, im, self.ell)

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0


# ---------------------------------------------------------------------------
# pairing internals

def _miller(P: tuple[int, int], tx: int, ty: int, n: int, ell: int):
    # Miller loop for f_{n,P} at the distorted point (tx, i*ty), with R kept
    # in Jacobian coordinates, over the signed steps of n: "a" adds P and
    # "s" adds -P = (xp, -yp).  Each step computes the tangent numerator M
    # (or the chord pair H, S) once and uses it for both the line value and
    # the point update.
    #
    # Every line is scaled by a nonzero factor in F_ell: 2*Y*Z^3 for a
    # tangent, Z*H for a chord.  Vertical lines, f_{-1,P} among them, and
    # lines at infinity lie in F_ell* (or are 1) and are skipped.  Both are
    # exact because (ell^2 - 1)/n = (ell - 1)*r, so the final exponentiation
    # maps all of F_ell* to 1.  A non-vertical line value has imaginary part
    # ty times a nonzero factor; it is zero only when ty = 0, i.e. for
    # Q = (0, 0), where the real part can vanish too and f, and so the
    # pairing value, is 0.  That value lies outside G_T; it is returned as
    # is, and rejecting such inputs is left to a subgroup check on decoded
    # points.
    xp, yp = P
    X, Y, Z = xp, yp, 1
    fa, fb = 1, 0
    for step in _double_and_add(n):
        if step != "d":
            y0 = yp if step == "a" else (-yp) % ell
            if not Z:
                X, Y, Z = xp, y0, 1
                continue
            ZZ = Z * Z % ell
            H = (xp * ZZ - X) % ell
            S = (y0 * ZZ * Z - Y) % ell
            if H:
                Z3 = Z * H % ell
                la = (-y0 * Z3 - S * (tx - xp)) % ell
                lb = ty * Z3 % ell
                fa, fb = (fa * la - fb * lb) % ell, (fa * lb + fb * la) % ell
                HH = H * H % ell
                HHH = H * HH % ell
                V = X * HH % ell
                X = (S * S - HHH - 2 * V) % ell
                Y = (S * (V - X) - Y * HHH) % ell
                Z = Z3
                continue
            if S:  # R = -(xp, y0): vertical chord
                Z = 0
                continue
            # R = (xp, y0): the line is the tangent at R
        else:
            fa, fb = (fa + fb) * (fa - fb) % ell, 2 * fa * fb % ell
            if not Z:
                continue
        if not Y:  # vertical tangent at a 2-torsion point
            Z = 0
            continue
        YY = Y * Y % ell
        ZZ = Z * Z % ell
        M = (3 * X * X + ZZ * ZZ) % ell
        Z3 = 2 * Y * Z % ell
        la = (M * (X - tx * ZZ) - 2 * YY) % ell
        lb = ty * Z3 * ZZ % ell
        fa, fb = (fa * la - fb * lb) % ell, (fa * lb + fb * la) % ell
        S = 4 * X * YY % ell
        X = (M * M - 2 * S) % ell
        Y = (M * (S - X) - 8 * YY * YY) % ell
        Z = Z3
    return fa, fb


def _miller_lines(P: tuple[int, int], n: int, ell: int) -> list:
    """The Q-independent part of _miller for a fixed P, step by step: None
    for a squaring of f, (c0, c1, c2) for each line _miller multiplies in
    (same scaling, same skipped lines), worth (c0 - c1*tx) + i*(c2*ty)."""
    xp, yp = P
    X, Y, Z = xp, yp, 1
    ops: list = []
    for step in _double_and_add(n):
        y0 = (-yp) % ell if step == "s" else yp
        tangent = step == "d"
        if tangent:
            ops.append(None)
        elif Z:
            ZZ = Z * Z % ell
            H = (xp * ZZ - X) % ell
            S = (y0 * ZZ * Z - Y) % ell
            if H:  # chord through R and (xp, y0), scaled by Z*H
                ops.append(((S * xp - y0 * Z * H) % ell, S, Z * H % ell))
            tangent = not (H or S)  # R = (xp, y0)
        if tangent and Z and Y:  # tangent at R, scaled by 2*Y*Z^3
            ZZ = Z * Z % ell
            M = (3 * X * X + ZZ * ZZ) % ell
            ops.append(((M * X - 2 * Y * Y) % ell, M * ZZ % ell, 2 * Y * Z * ZZ % ell))
        if step == "d":
            X, Y, Z = _jac_double(X, Y, Z, ell)
        else:
            X, Y, Z = _jac_add(X, Y, Z, xp, y0, ell)
    return ops


def _miller_at(ops: list, tx: int, ty: int, ell: int):
    # Replays _miller_lines' output at the distorted point (tx, i*ty).
    fa, fb = 1, 0
    for line in ops:
        if line is None:
            fa, fb = (fa + fb) * (fa - fb) % ell, 2 * fa * fb % ell
        else:
            c0, c1, c2 = line
            la = (c0 - c1 * tx) % ell
            lb = c2 * ty % ell
            fa, fb = (fa * la - fb * lb) % ell, (fa * lb + fb * la) % ell
    return fa, fb


def _pair_value(P: Point, Q: Point, n: int, ell: int, lines: list | None = None):
    """Raw pairing value in F_ell^2 (already final-exponentiated); ``lines``
    are P's stored Miller lines, if it has them."""
    if P is None or Q is None:
        return _FP2_ONE
    tx = (-Q[0]) % ell  # distorted image of Q
    ty = Q[1] % ell
    a, b = _miller(P, tx, ty, n, ell) if lines is None else _miller_at(lines, tx, ty, ell)
    # Final exponent (ell^2 - 1)/n = (ell - 1) * (ell + 1)/n.  Frobenius is
    # conjugation, so f^(ell - 1) = conj(f)/f = conj(f)^2 / N(f) with the
    # norm N(f) = a^2 + b^2 in F_ell, zero only for f = 0.
    norm = (a * a + b * b) % ell
    if not norm:
        return (0, 0)
    norm_inv = pow(norm, -1, ell)
    u = ((a * a - b * b) * norm_inv % ell, -2 * a * b * norm_inv % ell)
    return _fp2_pow(u, (ell + 1) // n, ell)


# ---------------------------------------------------------------------------
# hashing

_SCALAR_TAG = b"\x01"
_BITS_TAG = b"\x02"


def _expand(tag: bytes, data: bytes, nbytes: int) -> bytes:
    blocks = []
    for ctr in range((nbytes + 31) // 32):
        blocks.append(hashlib.sha256(tag + ctr.to_bytes(4, "big") + data).digest())
    return b"".join(blocks)[:nbytes]


def hash_to_bits(data: bytes, k: int) -> tuple[int, ...]:
    """Hash arbitrary bytes to exactly k bits (MSB of each byte first)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    _bump("hash")
    raw = _expand(_BITS_TAG, data, (k + 7) // 8)
    bits = []
    for byte in raw:
        for shift in range(7, -1, -1):
            bits.append((byte >> shift) & 1)
    return tuple(bits[:k])


# ---------------------------------------------------------------------------
# the public group context

class PairingGroup:
    """Public arithmetic context: curve modulus, subgroup generators, codecs.

    This object carries exactly what verifiers see — n, ell, the order-n
    generator g and the order-q generator h — and none of the factorization.
    All point arithmetic, the pairing, and the canonical encodings hang off
    it.  The counted methods (add/neg/mul/pair/hash_to_zn) are the
    instrumentation points; internal steps of a single operation are not
    tallied separately.
    """

    def __init__(self, n: int, ell: int, g: Point, h: Point) -> None:
        self.n = n
        self.ell = ell
        self.coord_bytes = (ell.bit_length() + 7) // 8
        self.point_bytes = self.coord_bytes + 1
        self.g = g
        self.h = h
        # Fixed bases get tables on first use, but g and h, fixed without
        # being declared, get a window table only on their second mul.
        self._fixed = {g, h}
        self._mul_seen: set = set()
        self._mul_tables: dict = {}
        self._lines: dict = {}

    def precompute(self, *points: Point) -> None:
        """Mark points as fixed bases: later ``mul`` and ``pair`` calls with
        one of them as base or first argument build and reuse its tables
        (the window table from the first ``mul``, as if this were a use)."""
        points = {pt for pt in points if pt is not None}
        self._fixed |= points
        self._mul_seen |= points

    # -- point arithmetic ---------------------------------------------------

    def is_on_curve(self, P: Point) -> bool:
        return _on_curve(P, self.ell)

    def add(self, P: Point, Q: Point) -> Point:
        _bump("mul")
        return _point_add(P, Q, self.ell)

    def neg(self, P: Point) -> Point:
        _bump("inv")
        return _point_neg(P, self.ell)

    def mul(self, k: int, P: Point) -> Point:
        """Scalar multiple [k]P (one counted exponentiation)."""
        _bump("exp")
        if P in self._fixed:
            if P in self._mul_seen and P not in self._mul_tables:
                self._mul_tables[P] = _window_table(P, self.n, self.ell)
            self._mul_seen.add(P)
            if self._mul_tables.get(P) is not None:
                return _window_mul(self._mul_tables[P], k % self.n, self.ell)
        return _point_mul(k, P, self.ell)

    def random_point(self, rng) -> tuple[int, int]:
        return _random_point(self.ell, rng)

    # -- pairing --------------------------------------------------------------

    def pair(self, P: Point, Q: Point) -> GtElement:
        """Symmetric pairing through the distortion map; bilinear on <g>."""
        for pt in (P, Q):
            if not _on_curve(pt, self.ell):
                raise InvalidPoint("pairing input is not on the curve")
        _bump("pair")
        lines = None
        if P in self._fixed:
            lines = self._lines.get(P)
            if lines is None:
                lines = self._lines[P] = _miller_lines(P, self.n, self.ell)
        re, im = _pair_value(P, Q, self.n, self.ell, lines)
        return GtElement(re, im, self.ell)

    # -- canonical encodings --------------------------------------------------

    def encode_point(self, P: Point) -> bytes:
        """Fixed-width big-endian x plus a parity byte; identity is all zero."""
        if P is None:
            return bytes(self.point_bytes)
        x, y = P
        tag = b"\x03" if y & 1 else b"\x02"
        return x.to_bytes(self.coord_bytes, "big") + tag

    def decode_point(self, data: bytes) -> Point:
        return decode_point_bytes(data, self.ell)

    # -- hashing ----------------------------------------------------------------

    def hash_to_zn(self, data: bytes) -> int:
        """Counter-mode SHA-256 expanded to bitlen(n)+64 bits, reduced mod n."""
        _bump("hash")
        nbytes = (self.n.bit_length() + 64 + 7) // 8
        return int.from_bytes(_expand(_SCALAR_TAG, data, nbytes), "big") % self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PairingGroup(n={self.n}, ell={self.ell})"


@dataclass(frozen=True)
class GroupParams:
    """Full parameter set, including the secret factorization n = p*q.

    ``group`` is the public part; handing it out does not reveal p or q.
    """

    p: int
    q: int
    group: PairingGroup

    @property
    def n(self) -> int:
        return self.group.n

    @property
    def r(self) -> int:
        """The cofactor: ell = n*r - 1."""
        return (self.group.ell + 1) // self.group.n

    @property
    def ell(self) -> int:
        return self.group.ell

    @property
    def g(self) -> Point:
        return self.group.g

    @property
    def h(self) -> Point:
        return self.group.h

    def validate(self) -> None:
        """Run ``check_public_group``, then re-check what needs p and q:
        distinct primes with n = p*q, g of order exactly n and h of order
        dividing q.  Raises GroupError on failure."""
        grp = self.group
        check_public_group(grp.n, grp.ell, grp.g, grp.h)
        if self.p == self.q:
            raise GroupError("p and q must be distinct")
        if not (is_probable_prime(self.p) and is_probable_prime(self.q)):
            raise GroupError("p and q must be prime")
        if self.p * self.q != grp.n:
            raise GroupError("n != p*q")
        ell = grp.ell
        if _point_mul(grp.n, grp.g, ell) is not None:
            raise GroupError("g order does not divide n")
        for factor in (self.p, self.q):
            if _point_mul(grp.n // factor, grp.g, ell) is None:
                raise GroupError("g order is a proper divisor of n")
        if _point_mul(self.q, grp.h, ell) is not None:
            raise GroupError("h order does not divide q")


# ---------------------------------------------------------------------------
# public group validity

MIN_PRIME_BITS = 8
MAX_PRIME_BITS = 256  # bounds on the sizes of p and q in gen_group_params
_R_SEARCH_LIMIT = 100_000  # largest cofactor r tried for ell = n*r - 1
# ell = p*q*r - 1 has at most this many bits, so no group that
# gen_group_params builds is refused by check_public_group.
_MAX_ELL_BITS = 2 * MAX_PRIME_BITS + _R_SEARCH_LIMIT.bit_length()


def check_public_group(n: int, ell: int, g: Point | bytes, h: Point | bytes) -> tuple[Point, Point]:
    """The one check that (n, ell, g, h) is a group ``gen_group_params``
    could have published; raises GroupError if not, else returns (g, h).

    Cheapest first, so that a hostile size is refused before any work at
    that size: ell's size, n odd, n | ell + 1, then 4 | r and r at most
    _R_SEARCH_LIMIT for r = (ell + 1)/n, then ell prime, then g and h
    finite curve points.  ell = 3 (mod 4) follows from n odd and 4 | r.
    g and h may come as canonical encodings, decoded only after ell has
    passed.  Whether they lie in the order-n subgroup is not checked.
    """
    if ell.bit_length() > _MAX_ELL_BITS:
        raise GroupError(f"ell must have at most {_MAX_ELL_BITS} bits")
    if n < 3 or n % 2 == 0:
        raise GroupError("n must be odd and above 1")
    if (ell + 1) % n:
        raise GroupError("n must divide ell + 1")
    r = (ell + 1) // n
    if r % 4:
        raise GroupError("r = (ell + 1)/n must be a multiple of 4")
    if not 0 < r <= _R_SEARCH_LIMIT:
        raise GroupError(f"r = (ell + 1)/n must lie in 4..{_R_SEARCH_LIMIT}")
    if not is_probable_prime(ell):
        raise GroupError("ell must be prime")
    points = []
    for name, pt in (("g", g), ("h", h)):
        if isinstance(pt, bytes):
            pt = decode_point_bytes(pt, ell)
        if pt is None or not _on_curve(pt, ell):
            raise InvalidPoint(f"generator {name} is not a finite curve point")
        points.append(pt)
    return tuple(points)


def group_from_primes(p: int, q: int, rng) -> GroupParams:
    """Build the curve and generators for composite order n = p*q.

    Searches r = 4, 8, 12, ... for a prime ell = n*r - 1 (n is odd, so
    ell = 3 mod 4 forces 4 | r), then cofactor-multiplies random points into
    a generator g of exact order n whose self-pairing also has exact order n,
    and finally forms the order-q generator h = [alpha*p]g.
    """
    if p == q:
        raise ValueError("the two prime factors must be distinct")
    if not (is_probable_prime(p) and is_probable_prime(q)):
        raise ValueError("both factors must be prime")
    n = p * q
    for r in range(4, _R_SEARCH_LIMIT + 1, 4):
        ell = n * r - 1
        if is_probable_prime(ell):
            break
    else:
        raise ParameterSearchExhausted(
            f"no prime of the form {n}*r - 1 with r <= {_R_SEARCH_LIMIT}"
        )

    while True:
        base = _random_point(ell, rng)
        g = _point_mul(r, base, ell)
        if g is None:
            continue
        if _point_mul(n // p, g, ell) is None or _point_mul(n // q, g, ell) is None:
            continue
        # Defensive: insist the self-pairing generates the whole target
        # subgroup, so the pairing separates both prime-order components.
        z = _pair_value(g, g, n, ell)
        if z == _FP2_ONE:
            continue
        if _fp2_pow(z, p, ell) == _FP2_ONE or _fp2_pow(z, q, ell) == _FP2_ONE:
            continue
        break

    while True:
        alpha = rng.randrange(n)
        if math.gcd(alpha, q) == 1:
            break
    h = _point_mul(alpha * p % n, g, ell)

    return GroupParams(p=p, q=q, group=PairingGroup(n, ell, g, h))


def gen_group_params(p_bits: int, q_bits: int, rng) -> GroupParams:
    """Sample fresh primes of the requested sizes and build the group."""
    if min(p_bits, q_bits) < MIN_PRIME_BITS or max(p_bits, q_bits) > MAX_PRIME_BITS:
        raise ValueError(f"prime sizes must lie in {MIN_PRIME_BITS}..{MAX_PRIME_BITS} bits")
    p = _sample_prime(p_bits, rng)
    while True:
        q = _sample_prime(q_bits, rng)
        if q != p:
            break
    return group_from_primes(p, q, rng)
