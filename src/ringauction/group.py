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
alone, so [k]P = O shows as Z = 0, and recovers y without an inversion; the
ladder, the window passes and point addition return Jacobian points, and
to_affine normalizes any number of them with one inversion (Montgomery's
trick), so a signer makes three.  The Miller loop runs in Jacobian
coordinates too: each doubling squares f unreduced and reduces once after
the tangent's product, and a chord's values multiply f unreduced.  The
final exponentiation uses the Frobenius map so that it needs one inversion
in F_ell and a short power.
Since -(x, y) = (x, -y) costs nothing, both walk signed digits: the Miller
loop the non-adjacent form of n, recoded once as the group is made, a window
mul the w-bit digits 1 - 2^(w-1)..2^(w-1), each row holding the negatives
too.  g, h and the points passed to PairingGroup.precompute are fixed bases.
mul takes [j * 2^(w*i)]P from a window table, built at a declared base's
first mul and at g's or h's second, and only when [n]P = O, as only then may
a scalar be reduced mod n; w is 7 for h, the base of two passes in every
ring slot, else 5.  A table's row bases come from one doubling chain, its
other entries from affine sums a level at a time, each level's slopes over
one shared inversion, w a table.  From a key's 16th request on, a member
proof (member_base, then member_proof_jac) is two chained passes: h's 7-bit
rows on e^2 mod n, then the key's 5-bit rows on +-e mod n.  pair evaluates
the Miller lines of a fixed first argument, stored once as (square first?,
line) steps, at each Q with the same fused square-and-multiply, and refuses
a first argument outside G_n, as its loop's final [n]P shows.
in_group decides [n]P = O without the ladder: the reduced Tate pairing of
order r = (ell + 1)/n at a fixed T in E(F_ell^2) is 1 at P.  T = [n]X, for X
on a line through a rational point, is found with F_ell square roots at the
first call and kept with its Miller lines; it is certified exactly, by
[r/s]T not being rational for any prime s | r.  The final exponent's large
factor n takes a Lucas sequence, two products per bit where the ladder takes
about ten.  check_public_group decides, from the public values alone,
whether a group is one gen_group_params could have built; its primality test
is Baillie-PSW.  decode_point_bytes and check_point_bytes run one reading
loop: the first takes each point's square root, the second reaches the same
verdict with the Jacobi symbol instead, for a caller that may never need it.
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
Jac = tuple[int, int, int]  # Jacobian (X, Y, Z); Z = 0 is the identity


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

    ``paths`` is a second tally per phase, kept out of ``phases``, that splits
    each "exp" and "pair" by the code path that computed it: "exp.ladder" the
    x-only ladder, "exp.window" a fixed-base window table, "exp.member"
    ``in_group``'s membership test, "exp.joint" a member proof from a joint
    table, "pair.var" a Miller loop on variable lines and "pair.lines" one on
    stored lines.  An op named "kind.path" bumps both tallies.
    """

    def __init__(self) -> None:
        self._phase = "default"
        self.phases: dict[str, dict[str, int]] = {}  # phase -> op kind -> count
        self.paths: dict[str, dict[str, int]] = {}  # phase -> "kind.path" -> count

    def set_phase(self, name: str) -> None:
        self._phase = name

    def bump(self, op: str) -> None:
        kind, _, path = op.partition(".")
        tally = self.phases.setdefault(self._phase, {})
        tally[kind] = tally.get(kind, 0) + 1
        if path:
            tally = self.paths.setdefault(self._phase, {})
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


def _jacobi(a: int, m: int) -> int:
    """The Jacobi symbol (a/m) for odd m > 0: for prime m, 0 when m | a, 1
    when a is a nonzero square mod m and -1 otherwise.  Binary form: factors
    of 4 drop out, a lone 2 flips it when m = 3, 5 (mod 8), reciprocity swaps."""
    a %= m
    t = 1
    while a:
        while not a & 3:
            a >>= 2
        if not a & 1:
            a >>= 1
            if m & 7 in (3, 5):
                t = -t
        if a & m & 2:  # a = m = 3 (mod 4)
            t = -t
        a, m = m % a, a
    return t if m == 1 else 0


def _strong_probable_prime(m: int) -> bool:
    # Strong Fermat test to base 2 for odd m > 2.
    d, s = m - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(2, d, m)
    if x == 1 or x == m - 1:
        return True
    for _ in range(s - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


def _strong_lucas_probable_prime(m: int) -> bool:
    # Strong Lucas test for odd m > 2 with Selfridge's parameters: D the
    # first of 5, -7, 9, -11, ... with (D/m) = -1, P = 1 and Q = (1 - D)/4.
    # With m + 1 = d * 2^s, d odd, it passes when U_d = 0 or V_(d*2^r) = 0
    # for some r < s, all mod m.  No such D exists for a square, which is
    # refused first so that the search ends.
    if math.isqrt(m) ** 2 == m:
        return False
    D = 5
    while True:
        symbol = _jacobi(D, m)
        if symbol == -1:
            break
        if symbol == 0 and abs(D) != m:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = m + 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    half = (m + 1) // 2
    U, V, Qk = 1, 1, Q % m  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % m, (V * V - 2 * Qk) % m, Qk * Qk % m  # index k -> 2k
        if bit == "1":  # 2k -> 2k + 1
            U, V, Qk = (U + V) * half % m, (D * U + V) * half % m, Qk * Q % m
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % m, Qk * Qk % m
        if V == 0:
            return True
    return False


def is_probable_prime(m: int) -> bool:
    """Baillie-PSW: trial division by the primes below 50, a strong base-2
    test, then a strong Lucas test with Selfridge's parameters (Baillie and
    Wagstaff, "Lucas pseudoprimes", Math. Comp. 1980).  Exact below 2^64,
    and no composite is known to pass it at any size."""
    if m < 2:
        return False
    for p in _SMALL_PRIMES:
        if m % p == 0:
            return m == p
    return _strong_probable_prime(m) and _strong_lucas_probable_prime(m)


def _sample_prime(bits: int, rng) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate


# ---------------------------------------------------------------------------
# raw curve arithmetic (uncounted; the curve is always y^2 = x^3 + x)

def _on_curve(P: Point, ell: int) -> bool:
    # A point is O or a tuple of integers 0 <= x, y < ell on the curve, and
    # nothing else: one encoding per point, so no unreduced twin passes.
    if P is None:
        return True
    if type(P) is not tuple or len(P) != 2:
        return False
    x, y = P
    return (type(x) is type(y) is int and 0 <= x < ell and 0 <= y < ell
            and (y * y - (x * x * x + x)) % ell == 0)


def _point_neg(P: Point, ell: int) -> Point:
    # ell - y, not -y % ell: a y out of range stays out of range, for the
    # on-curve check that follows to refuse.
    if P is None:
        return None
    x, y = P
    return (x, ell - y if y % ell else y)


_JAC_O: Jac = (1, 1, 0)


def jacobian(P: Point) -> Jac:
    """An affine point in Jacobian coordinates."""
    return _JAC_O if P is None else (P[0], P[1], 1)


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


def _inverses(values: list[int], ell: int) -> list[int]:
    # The inverses mod ell of values, a 0 skipped and returned as 0, over one
    # inversion (Montgomery's trick, Math. Comp. 1987): the running products
    # forward, then their one inverse peeled back through them.
    prefix, acc = [], 1
    for v in values:
        prefix.append(acc)
        acc = acc * (v or 1) % ell
    inv = pow(acc, -1, ell)
    out = [0] * len(values)
    for j in range(len(values) - 1, -1, -1):
        if values[j]:
            out[j] = inv * prefix[j] % ell
            inv = inv * values[j] % ell
    return out


def _to_affine(points, ell: int) -> list[Point]:
    # Jacobian points to affine, every Z inverted by one _inverses call.
    out: list[Point] = []
    for (X, Y, Z), zi in zip(points, _inverses([Z for _, _, Z in points], ell)):
        zi2 = zi * zi % ell
        out.append((X * zi2 % ell, Y * zi2 * zi % ell) if Z else None)
    return out


def _point_mul(k: int, P: Point, ell: int) -> Jac:
    # Montgomery ladder on x = X/Z alone (Brier-Joye, PKC 2002).  R1 = [m]P
    # and R2 = [m+1]P, so R2 - R1 = P and their sum needs only x = x(P):
    #   2R1     = ((X1^2 - Z1^2)^2, 4*X1*Z1*(X1^2 + Z1^2))
    #   R1 + R2 = ((X1*X2 - Z1*Z2)^2, x*(X1*Z2 - X2*Z1)^2)
    # Both come from U = X1 + Z1 and V = X1 - Z1, scaled by 2 and by 4.  A
    # bit 0 doubles R1 and adds into R2; a bit 1 does the same with the two
    # swapped, and they stay swapped until a bit 0.
    if P is None or k == 0:
        return _JAC_O
    if k < 0:
        k, P = -k, _point_neg(P, ell)
    xp, yp = P
    if not yp:  # (0, 0), the one point of order 2, where x(P) = 0
        return (0, 0, 1) if k & 1 else _JAC_O
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
        return _JAC_O
    if not Z2:  # [k + 1]P = O
        return (xp, ell - yp, 1)
    # y of [k]P from x(P), y(P) and x of [k]P and [k + 1]P is y/(d*Z1) for
    # d = 2*y*Z1*Z2 (Okeya-Sakurai, CHES 2001), so with Z = d*Z1 the point
    # is X = X1/Z1 * Z^2 = X1*d*Z and Y = y*Z^2.
    d = 2 * yp * Z1 * Z2 % ell
    Z = d * Z1 % ell
    xz = xp * Z1
    y = (Z1 + xp * X1) * (xz + X1) * Z2 - X2 * (xz - X1) * (xz - X1)
    return X1 * d * Z % ell, y * Z * Z % ell, Z


_WINDOW = 5  # bits per signed digit of a window table, but h's 7 (PairingGroup._table)
_JOINT_USES = 16  # member_base requests for a key before it gets a joint table


def _window_table(P: Point, n: int, ell: int, width: int):
    """Row i holds the affine [d * 2^(width * i)]P at index d + half - 1,
    d = 1 - half..half, half = 2^(width - 1) (None for O), for each signed
    digit of a scalar below n, the last row taking the final carry; None
    unless [n]P = O.  The row bases B = [2^(width * i)]P come from one
    doubling chain, made affine together; then for lo = 1, 2, 4, .., half/2,
    entries lo + 1..2lo of every row are the affine sums [lo]B + [m]B,
    m = 1..lo, the last a tangent, their slopes' denominators inverted
    together: ``width`` inversions a table."""
    half = 1 << width - 1
    chain = [jacobian(P)]
    for _ in range(n.bit_length() // width):
        X, Y, Z = chain[-1]
        for _ in range(width):
            X, Y, Z = _jac_double(X, Y, Z, ell)
        chain.append((X, Y, Z))
    rows = [[None, B] for B in _to_affine(chain, ell)]  # row[m] = [m]B
    for lo in (1 << b for b in range(width - 1)):
        terms = [(row[lo], row[m]) for row in rows for m in range(1, lo + 1)]
        # A slope's denominator: x2 - x1 for a chord, 2y for a tangent, and 0
        # for a term O, B = -A or a vertical tangent, which _jac_add sums.
        dens = [0 if A is None or B is None else (B[0] - A[0]) % ell
                or (2 * A[1] % ell if A[1] == B[1] else 0) for A, B in terms]
        for j, ((A, B), inv) in enumerate(zip(terms, _inverses(dens, ell))):
            if inv:
                (x1, y1), (x2, y2) = A, B
                lam = (y2 - y1 if x1 != x2 else 3 * x1 * x1 + 1) * inv % ell
                x3 = (lam * lam - x1 - x2) % ell
                pt = x3, (lam * (x1 - x3) - y1) % ell
            else:
                pt = A if B is None else _to_affine([_jac_add(*jacobian(A), *B, ell)], ell)[0]
            rows[j // lo].append(pt)
    rows = [[_point_neg(pt, ell) for pt in row[half - 1:0:-1]] + row for row in rows]
    return None if _window_mul(rows, n, ell)[2] else rows


def _window_mul(rows, k: int, ell: int, start: Jac = _JAC_O) -> Jac:
    # start + [k]P, one mixed addition per nonzero digit d of 0 <= k < n,
    # recoded on the fly into 1 - half <= d <= half for rows of 2*half: with
    # k + half - 1 = 2*half*k' + (d + half - 1), entry d + half - 1 is read.
    size = len(rows[0])
    mask, shift, offset = size - 1, size.bit_length() - 1, size // 2 - 1
    X, Y, Z = start
    for row in rows:
        k += offset
        pt = row[k & mask]
        k >>= shift
        if pt is None:
            continue
        xp, yp = pt
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
    return X, Y, Z


def _read_points(data: bytes, ell: int, count: int, decode: bool) -> list[Point]:
    # The one reader of ``count`` encodings: length, then each one's tag, zero x
    # for the identity, x < ell, and x on the curve: z = x^3 + x is 0 (only at
    # x = 0, where y = 0 takes the even tag) or a square, as the square root
    # giving y decides when decoding, else the Jacobi symbol (prime ell).
    width = (ell.bit_length() + 7) // 8 + 1
    if len(data) != count * width:
        raise InvalidPoint("wrong point encoding length")
    points = []
    for at in range(width - 1, len(data), width):
        x = int.from_bytes(data[at - width + 1: at], "big")
        tag = data[at]
        if tag == 0:
            if x:
                raise InvalidPoint("identity encoding must be all zero")
            points.append(None)
            continue
        if tag != 2 and tag != 3:
            raise InvalidPoint(f"unknown parity tag {tag:#04x}")
        if x >= ell:
            raise InvalidPoint("x coordinate out of range")
        z = (x * x * x + x) % ell
        if not z and tag == 3:
            raise InvalidPoint("y = 0 takes the even parity tag")
        if decode:
            y = pow(z, (ell + 1) // 4, ell)
            if y * y % ell != z:
                raise InvalidPoint("x coordinate is not on the curve")
            points.append((x, y if y & 1 == tag & 1 else ell - y))
        elif z and _jacobi(z, ell) != 1:
            raise InvalidPoint("x coordinate is not on the curve")
    return points


def decode_point_bytes(data: bytes, ell: int) -> Point:
    """Decode the canonical fixed-width encoding for a curve modulus ell."""
    return _read_points(data, ell, 1, True)[0]


def check_point_bytes(data: bytes, ell: int, count: int = 1) -> None:
    """Raise what ``decode_point_bytes`` raises on the first of ``count``
    encodings in ``data`` it would refuse, by the Jacobi symbol, at half the
    cost of its square root."""
    _read_points(data, ell, count, False)


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


def _fp2_pow(u, e, ell):
    # Left to right from u itself, so the leading bit costs no squaring.
    if not e:
        return _FP2_ONE
    ua, ub = a, b = u
    for bit in bin(e)[3:]:
        a, b = (a + b) * (a - b) % ell, 2 * a * b % ell
        if bit == "1":
            a, b = (a * ua - b * ub) % ell, (a * ub + b * ua) % ell
    return a, b


def _fp2_inv(u, ell):
    a, b = u
    norm_inv = pow((a * a + b * b) % ell, -1, ell)
    return (a * norm_inv % ell, (-b) * norm_inv % ell)


def _fp2_sub(u, v, ell):
    return ((u[0] - v[0]) % ell, (u[1] - v[1]) % ell)


@dataclass(frozen=True)
class GtElement:
    """Element of the order-n target subgroup G_T of F_ell^2*; every pair value lies there."""

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

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0


# ---------------------------------------------------------------------------
# pairing internals

def _miller(P: tuple[int, int], tx: int, ty: int, steps: str, ell: int):
    # Miller loop for f_{n,P} at the distorted point (tx, i*ty), with R kept
    # in Jacobian coordinates, over n's signed steps (_double_and_add(n)):
    # "a" adds P and "s" adds -P = (xp, -yp).  Each step computes the tangent
    # numerator M (or the chord pair H, S) once and uses it for both the line
    # value and the point update.  A doubling squares f unreduced and takes
    # one reduction after the tangent's product; a chord's values multiply
    # f unreduced, and so do S of a doubling and V of a chord, each read by
    # one product and sums that are reduced.
    #
    # Every line is scaled by a nonzero factor in F_ell: 2*Y*Z^3 for a
    # tangent, Z*H for a chord.  Vertical lines, f_{-1,P} among them, and
    # lines at infinity lie in F_ell* (or are 1) and are skipped.  Both are
    # exact because (ell^2 - 1)/n = (ell - 1)*r, so the final exponentiation
    # maps all of F_ell* to 1.  R ends at [n]P, so a final Z != 0 means P
    # lies outside G_n, and then there is no value: None.
    xp, yp = P
    X, Y, Z = xp, yp, 1
    dx, ny = tx - xp, -yp % ell  # per pairing: tx - xp, and y of -P
    fa, fb = 1, 0
    for step in steps:
        if step == "d":
            if not (Z and Y):  # R = O, or a vertical tangent at a 2-torsion R
                fa, fb = (fa + fb) * (fa - fb) % ell, 2 * fa * fb % ell
                Z = 0
                continue
            sa, sb = (fa + fb) * (fa - fb), 2 * fa * fb
        else:
            y0, y1 = (yp, ny) if step == "a" else (ny, yp)  # y1 = -y0
            if not Z:
                X, Y, Z = xp, y0, 1
                continue
            ZZ = Z * Z % ell
            H = (xp * ZZ - X) % ell
            S = (y0 * ZZ * Z - Y) % ell
            if H:
                Z3 = Z * H % ell
                la, lb = y1 * Z3 - S * dx, ty * Z3
                fa, fb = (fa * la - fb * lb) % ell, (fa * lb + fb * la) % ell
                HH = H * H % ell
                HHH = H * HH % ell
                V = X * HH
                X = (S * S - HHH - 2 * V) % ell
                Y = (S * (V - X) - Y * HHH) % ell
                Z = Z3
                continue
            if S or not Y:  # R = -(xp, y0): a vertical chord, or R = (0, 0)'s tangent
                Z = 0
                continue
            sa, sb = fa, fb  # R = (xp, y0): the line is the tangent at R
        YY = Y * Y % ell
        ZZ = Z * Z % ell
        M = (3 * X * X + ZZ * ZZ) % ell
        Z3 = 2 * Y * Z % ell
        la = (M * (X - tx * ZZ) - 2 * YY) % ell
        lb = ty * Z3 * ZZ % ell
        fa, fb = (sa * la - sb * lb) % ell, (sa * lb + sb * la) % ell
        S = 4 * X * YY
        X = (M * M - 2 * S) % ell
        Y = (M * (S - X) - 8 * YY * YY) % ell
        Z = Z3
    return None if Z else (fa, fb)


def _miller_lines(P: tuple[int, int], steps: str, ell: int) -> list | None:
    """The Q-independent part of _miller for a fixed P, on _miller's steps:
    (square, c0, c1, c2) for each step that touches f, square True where f
    is squared first, and (c0, c1, c2) the line _miller multiplies in (same
    scaling, same skipped lines), worth (c0 - c1*tx) + i*(c2*ty), or
    (1, 0, 0) where a doubling takes no line.  None, like _miller, when P
    lies outside G_n."""
    xp, yp = P
    X, Y, Z = xp, yp, 1
    ny = -yp % ell
    ops: list = []
    for step in steps:
        if step == "d":
            if not (Z and Y):
                ops.append((True, 1, 0, 0))
                Z = 0
                continue
            square = True
        else:
            y0 = yp if step == "a" else ny
            if not Z:
                X, Y, Z = xp, y0, 1
                continue
            ZZ = Z * Z % ell
            H = (xp * ZZ - X) % ell
            S = (y0 * ZZ * Z - Y) % ell
            if H:  # chord through R and (xp, y0), scaled by Z*H
                Z3 = Z * H % ell
                ops.append((False, (S * xp - y0 * Z3) % ell, S, Z3))
                HH = H * H % ell
                HHH = H * HH % ell
                V = X * HH
                X = (S * S - HHH - 2 * V) % ell
                Y = (S * (V - X) - Y * HHH) % ell
                Z = Z3
                continue
            if S or not Y:
                Z = 0
                continue
            square = False
        YY = Y * Y % ell  # tangent at R, scaled by 2*Y*Z^3
        ZZ = Z * Z % ell
        M = (3 * X * X + ZZ * ZZ) % ell
        Z3 = 2 * Y * Z % ell
        ops.append((square, (M * X - 2 * YY) % ell, M * ZZ % ell, Z3 * ZZ % ell))
        S = 4 * X * YY
        X = (M * M - 2 * S) % ell
        Y = (M * (S - X) - 8 * YY * YY) % ell
        Z = Z3
    return None if Z else ops


def _miller_at(ops: list, tx: int, ty: int, ell: int):
    # Replays _miller_lines' output at the distorted point (tx, i*ty): a
    # square of f is left unreduced into its product with the step's line,
    # one reduction per product.
    fa, fb = 1, 0
    for square, c0, c1, c2 in ops:
        if square:
            fa, fb = (fa + fb) * (fa - fb), 2 * fa * fb
        la, lb = (c0 - c1 * tx) % ell, c2 * ty % ell
        fa, fb = (fa * la - fb * lb) % ell, (fa * lb + fb * la) % ell
    return fa, fb


def _pair_value(P: Point, Q: Point, n: int, ell: int, steps: str, lines: list | None = None):
    """Raw pairing value in F_ell^2 (already final-exponentiated), or None
    when P lies outside G_n; ``steps`` are _double_and_add(n), ``lines`` P's
    stored Miller lines, if it has them.  Q = O pairs to 1, but P's loop
    still runs, for its verdict."""
    if P is None:
        return _FP2_ONE
    tx, ty = ((-Q[0]) % ell, Q[1] % ell) if Q else (0, 0)  # distorted image of Q
    f = _miller(P, tx, ty, steps, ell) if lines is None else _miller_at(lines, tx, ty, ell)
    if f is None or Q is None:
        return None if f is None else _FP2_ONE
    # Final exponent (ell^2 - 1)/n = (ell - 1) * (ell + 1)/n.  Frobenius is
    # conjugation, so f^(ell - 1) = conj(f)/f = conj(f)^2 / N(f) with the
    # norm N(f) = a^2 + b^2 in F_ell, zero only for f = 0.  For P in G_n,
    # f != 0: a line of the loop meets the curve only at points of G_n, and
    # the distorted Q is rational only as (0, 0), of order 2.
    a, b = f
    norm_inv = pow((a * a + b * b) % ell, -1, ell)
    u = ((a * a - b * b) * norm_inv % ell, -2 * a * b * norm_inv % ell)
    return _fp2_pow(u, (ell + 1) // n, ell)


# ---------------------------------------------------------------------------
# subgroup membership (Koshelev, "Subgroup membership testing on elliptic
# curves via the Tate pairing", J. Cryptogr. Eng. 2023)
#
# E(F_ell) is cyclic of order n*r, so [n]P = O exactly when P lies in
# rE(F_ell), which is also E(F_ell) meet rE(F_ell^2), as E(F_ell^2) has
# exponent n*r.  The reduced Tate pairing t(T, P) = f_{r,T}(P)^((ell-1)*n),
# for T in E(F_ell^2)[r], is 1 on rE(F_ell^2); for a T with t(T, .) of
# order exactly r on E(F_ell), P -> t(T, P) is one-to-one on the cyclic
# E(F_ell)/rE(F_ell), so t(T, P) = 1 exactly when [n]P = O.
#
# Which T those are is exact: t(T, P)^(r/s) is the order-s pairing
# t_s([r/s]T, P), and for a prime s | r the kernel of T -> t_s(T, .) on
# E[s] (order s^2) against E(F_ell) (order s modulo s) is the F_ell-points
# of E[s], as rational T and P pair to 1.  So t(T, .) has order r exactly
# when [r/s]T is not rational for any prime s | r.  At s = 2 that fails
# for a T whose 2-part lies in E(F_ell) + psi(E(F_ell)), as psi fixes
# (0, 0); that index-2 subgroup of E(F_ell^2) is where x is a square of
# F_ell^2 (2-descent at x = 0), so the candidates are T = [n]X for an X
# whose x is not a square, on a line through a rational point (F_ell roots
# only).  A certified T has no rational multiple but O, so no Miller line or
# vertical vanishes at a rational point.

def _fp2_point_add(R, S, ell):
    # R + S on E(F_ell^2), coordinates in F_ell^2, and the slope of the line
    # through R and S (the tangent if R = S); (None, None) when that line is
    # vertical.  A None input is O and is returned with no slope.
    if R is None or S is None:
        return (S if R is None else R), None
    (x1, y1), (x2, y2) = R, S
    if x1 != x2:
        num, den = _fp2_sub(y2, y1, ell), _fp2_sub(x2, x1, ell)
    elif y1 != y2 or y1 == (0, 0):
        return None, None
    else:
        a, b = _fp2_mul(x1, x1, ell)
        num, den = ((3 * a + 1) % ell, 3 * b % ell), (2 * y1[0] % ell, 2 * y1[1] % ell)
    lam = _fp2_mul(num, _fp2_inv(den, ell), ell)
    x3 = _fp2_sub(_fp2_sub(_fp2_mul(lam, lam, ell), x1, ell), x2, ell)
    return (x3, _fp2_sub(_fp2_mul(lam, _fp2_sub(x1, x3, ell), ell), y1, ell)), lam


def _fp2_psi(P, ell):
    # The distortion map (x, y) -> (-x, i*y) on E(F_ell^2); O for O.
    if P is None:
        return None
    (x0, x1), (y0, y1) = P
    return ((-x0 % ell, -x1 % ell), (-y1 % ell, y0))


def _tate_candidates(n: int, ell: int) -> Iterator:
    # Points of E(F_ell^2)[r] whose 2-part is good, in a fixed order.  For
    # a non-square a with a^3 + a = b^2 and 3a^2 + 4 = t^2, the line y = -b
    # meets the curve at -W, W = (a, b), and at x0 = (-a + t*i)/2 and its
    # conjugate, the roots of x^2 + a*x + a^2 + 1.  So X = (x0, -b) has
    # X + pi(X) = W, N(x0) = a^2 + 1 = b^2/a is not a square, nor is x0, and
    # with m = (n - 1)/2 and X - pi(X) = psi(V), V rational,
    # T0 = [n]X = [m]W + psi([m]V) + X over F_ell alone.  T0 + [k]psi(T0) for
    # even k keeps the 2-part and moves the odd part, so k = 2, 4 follow T0.
    # a = 2 is passed over: its t = 4 puts V at W + (0, 0), and then
    # T0 + [2]psi(T0) fails the certificate whenever 3 | r.
    m, e, half = (n - 1) // 2, (ell + 1) // 4, (ell + 1) // 2
    for a in range(3, ell):
        if (_jacobi(a, ell) != -1 or _jacobi(a * a * a + a, ell) != 1
                or _jacobi(3 * a * a + 4, ell) != 1):
            continue
        b, t = pow(a * a * a + a, e, ell), pow(3 * a * a + 4, e, ell)
        x0 = (-a * half % ell, t * half % ell)
        X = (x0, (ell - b, 0))
        (v, _), (_, vy) = _fp2_point_add(X, ((x0[0], ell - x0[1]), (b, 0)), ell)[0]
        M1, M2 = _to_affine([_point_mul(m, (a, b), ell), _point_mul(m, (-v % ell, vy), ell)], ell)
        T = M1 and ((M1[0], 0), (M1[1], 0))
        T = _fp2_point_add(T, _fp2_psi(M2 and ((M2[0], 0), (M2[1], 0)), ell), ell)[0]
        T = _fp2_point_add(T, X, ell)[0]
        step = _fp2_point_add(_fp2_psi(T, ell), _fp2_psi(T, ell), ell)[0]
        for _ in range(3):
            yield T
            T = _fp2_point_add(T, step, ell)[0]


def _tate_lines(T, r: int, ell: int):
    """The Miller loop of f_{r,T} over the binary digits of r, for T of exact
    order r, stored for evaluation at rational points.  None squares f; a
    line y - lam*x - nu, times the conjugate of the vertical x - w at the sum
    R + S (dividing by the vertical, up to its norm, which lies in F_ell), is
    stored as xy + c1*y + c2*x^2 + c3*x + c4, the real parts of c1..c4, then
    their imaginary parts.  Verticals are kept, as T is not rational.  No
    partial sum before [r/2]T is O or of order 2, so no line is vertical;
    4 | r, so the loop ends by doubling [r/2]T, of order 2: f squares and
    takes the vertical x - x([r/2]T), returned apart."""
    lines, R = [], T
    for step in bin(r)[3:-1].replace("1", "01"):  # "0" doubles R, "1" adds T
        if step == "0":
            lines.append(None)
        R2, lam = _fp2_point_add(R, R if step == "0" else T, ell)
        nu = _fp2_sub(R[1], _fp2_mul(lam, R[0], ell), ell)
        wc = (R2[0][0], -R2[0][1] % ell)
        c1, c2 = (-wc[0] % ell, -wc[1] % ell), (-lam[0] % ell, -lam[1] % ell)
        c3, c4 = _fp2_sub(_fp2_mul(lam, wc, ell), nu, ell), _fp2_mul(nu, wc, ell)
        lines.append((c1[0], c2[0], c3[0], c4[0], c1[1], c2[1], c3[1], c4[1]))
        R = R2
    lines.append(None)
    return tuple(lines), R[0]


def _lucas_v(t: int, m: int, ell: int) -> int:
    # V_m(t) for m >= 1, with V_0 = 2, V_1 = t, V_(k+1) = t*V_k - V_(k-1):
    # for u of norm 1 in F_ell^2, V_m(u + 1/u) = u^m + 1/u^m, which is 2
    # exactly when u^m = 1.  Two products per bit of m.
    v0, v1 = t, (t * t - 2) % ell  # V_k, V_(k+1) for k = 1
    for bit in bin(m)[3:]:
        if bit == "1":
            v0, v1 = (v0 * v1 - t) % ell, (v1 * v1 - 2) % ell
        else:
            v0, v1 = (v0 * v0 - 2) % ell, (v0 * v1 - t) % ell
    return v0


def _tate_at(tate, x: int, y: int, n: int, ell: int) -> int | None:
    """The trace of t(T, P) for T's stored lines and a finite rational
    P = (x, y), or None where f_{r,T}(P) = 0 (never, for a T certified by
    _membership_lines, whose multiples other than O are not rational).
    t(T, P) = u^n for u = f^(ell - 1) = conj(f)^2/N(f), of norm 1 and trace
    2(a^2 - b^2)/N(f) for f = a + b*i."""
    lines, w = tate
    xx, xy = x * x % ell, x * y % ell
    fa, fb = 1, 0
    for line in lines:
        if line is None:
            fa, fb = (fa + fb) * (fa - fb) % ell, 2 * fa * fb % ell
        else:
            c1, c2, c3, c4, d1, d2, d3, d4 = line
            la = (xy + c1 * y + c2 * xx + c3 * x + c4) % ell
            lb = (d1 * y + d2 * xx + d3 * x + d4) % ell
            fa, fb = (fa * la - fb * lb) % ell, (fa * lb + fb * la) % ell
    la, lb = (x - w[0]) % ell, -w[1] % ell
    fa, fb = (fa * la - fb * lb) % ell, (fa * lb + fb * la) % ell
    norm = (fa * fa + fb * fb) % ell
    if not norm:
        return None
    return _lucas_v(2 * (fa * fa - fb * fb) * pow(norm, -1, ell) % ell, n, ell)


def _prime_factors(m: int) -> list[int]:
    # The distinct prime factors of m >= 1, by trial division.
    primes, d = [], 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return primes + [m] * (m > 1)


def _membership_lines(n: int, ell: int):
    """The stored lines of the first candidate T for which t(T, .) has order
    exactly r: [r/s]T is not an F_ell-point for any prime s | r.  Frobenius
    pi commutes with [k], so [k]T is rational exactly when [k]D = O for
    D = T - pi(T); pi(D) = -D, so D = psi(B) for a rational B, and the test
    is [r/s]B != O, an F_ell ladder per prime."""
    r = (ell + 1) // n
    for T in _tate_candidates(n, ell):
        (x0, x1), (y0, y1) = T
        D = _fp2_point_add(T, ((x0, -x1 % ell), (-y0 % ell, y1)), ell)[0]  # T - pi(T)
        B = D and (-D[0][0] % ell, D[1][1])
        if all(_point_mul(r // s, B, ell)[2] for s in _prime_factors(r)):  # Z != 0
            return _tate_lines(T, r, ell)
    raise GroupError("no point certifies the membership pairing")


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
    it.  The counted methods (add/neg/mul/pair/hash_to_zn and the Jacobian
    forms add_jac/mul_jac/member_proof_jac, which leave to_affine to the
    caller) are the instrumentation points; internal steps of a single
    operation are not tallied separately.  A ring slot's member proof is
    member_base, then member_proof_jac.
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
        self._key_uses: dict = {}  # member_base's requests per key
        self._joint: dict = {}  # key -> its window rows, for member proofs
        self._steps = _double_and_add(n)  # n's signed Miller steps, for every pairing
        self._lines: dict = {}
        self._tate = None  # in_group's stored lines, built at its first call

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

    def to_affine(self, *points: Jac) -> list[Point]:
        """Jacobian points made affine over one field inversion (not counted)."""
        return _to_affine(points, self.ell)

    def add(self, P: Point, Q: Point) -> Point:
        return self.to_affine(self.add_jac(jacobian(P), Q))[0]

    def add_jac(self, R: Jac, Q: Point) -> Jac:
        """R + Q for a Jacobian R and an affine Q, left Jacobian (one counted
        point addition)."""
        _bump("mul")
        return R if Q is None else _jac_add(*R, *Q, self.ell)

    def neg(self, P: Point) -> Point:
        _bump("inv")
        return _point_neg(P, self.ell)

    def mul(self, k: int, P: Point) -> Point:
        """Scalar multiple [k]P (one counted exponentiation)."""
        return self.to_affine(self.mul_jac(k, P))[0]

    def mul_jac(self, k: int, P: Point) -> Jac:
        """``mul``, left Jacobian."""
        if P in self._fixed:
            rows = self._table(P) if P in self._mul_seen else self._mul_tables.get(P)
            self._mul_seen.add(P)
            if rows is not None:
                _bump("exp.window")
                return _window_mul(rows, k % self.n, self.ell)
        _bump("exp.ladder")
        return _point_mul(k, P, self.ell)

    def _table(self, P: Point):
        # A fixed base's window table, built at the first call: 7-bit rows for
        # h, the base of two passes in every ring slot, 5-bit rows for others.
        if P not in self._mul_tables:
            width = 7 if P == self.h else _WINDOW
            self._mul_tables[P] = _window_table(P, self.n, self.ell, width)
        return self._mul_tables[P]

    def member_base(self, commit: Jac, key: Point, signer: bool) -> Jac:
        """Count one member-proof request for key and return the Jacobian
        point a decoy's proof multiplies on the ladder, commit minus key; O
        for the signer, whose ladder multiplies the commit itself, and O once
        the key's joint table serves the proof, which reads no base.  A
        slot's commit is [e]h, plus key in the signer's slot, so its proof is
        [e^2]h +- [e]key either way.  The 16th request keeps key's 5-bit
        window table when [n]h = [n]key = O.  Memory: one such table per key
        with 16 or more requests, R x 32 affine points, R = n.bit_length()//5
        + 1 (416 at a 64-bit n), and one int per key requested."""
        joint = self._joint.get(key)
        if joint is None:
            uses = self._key_uses[key] = self._key_uses.get(key, 0) + 1
            if uses == _JOINT_USES and self._table(self.h) is not None:
                joint = _window_table(key, self.n, self.ell, _WINDOW)
                if joint is not None:
                    self._joint[key] = joint
        if joint is not None or signer:
            return _JAC_O
        if key is None:
            return commit
        return _jac_add(*commit, *_point_neg(key, self.ell), self.ell)

    def member_proof_jac(self, e: int, commit: Point, base: Point, key: Point,
                         signer: bool) -> Jac:
        """The proof of the slot ``member_base`` was last asked for, left
        Jacobian, for commit and base the affine forms of that call's commit
        and result: on the ladder [e]commit in the signer's slot and [e]base
        in a decoy's, or h's 7-bit pass on e^2 mod n chained into a pass over
        the key's 5-bit joint table on +-e mod n.  One counted exp."""
        rows = self._joint.get(key)
        if rows is not None:
            _bump("exp.joint")
            blind = _window_mul(self._mul_tables[self.h], e * e % self.n, self.ell)
            return _window_mul(rows, (e if signer else -e) % self.n, self.ell, blind)
        _bump("exp.ladder")
        return _point_mul(e, commit if signer else base, self.ell)

    def in_group(self, P: Point) -> bool:
        """Whether P is a curve point with [n]P = O, counted as one
        exponentiation, like the [n]P it decides: the reduced Tate pairing of
        order r at a fixed T is 1 at P.  T and its Miller lines are built at
        the first call and kept."""
        _bump("exp.member")
        if P is None:
            return True
        if not _on_curve(P, self.ell) or not P[1] % self.ell:
            return False  # off the curve, or (0, 0), of order 2
        if self._tate is None:
            self._tate = _membership_lines(self.n, self.ell)
        return _tate_at(self._tate, P[0], P[1], self.n, self.ell) == 2

    # -- pairing --------------------------------------------------------------

    def pair(self, P: Point, Q: Point) -> GtElement:
        """Symmetric pairing through the distortion map; bilinear on <g>.
        InvalidPoint for a point off the curve or a first argument outside G_n."""
        for pt in (P, Q):
            if not _on_curve(pt, self.ell):
                raise InvalidPoint("pairing input is not on the curve")
        lines = None
        if P in self._fixed:
            if P not in self._lines:
                self._lines[P] = _miller_lines(P, self._steps, self.ell)
            lines = self._lines[P]
        _bump("pair.var" if lines is None else "pair.lines")
        value = _pair_value(P, Q, self.n, self.ell, self._steps, lines)
        if value is None:
            raise InvalidPoint("pairing's first argument is outside the order-n subgroup")
        return GtElement(*value, self.ell)

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


@dataclass(frozen=True)
class GroupParams:
    """Full parameter set, including the secret factorization n = p*q.

    ``group`` is the public part; handing it out does not reveal p or q.
    """

    p: int
    q: int
    group: PairingGroup

    @property
    def r(self) -> int:
        """The cofactor: ell = n*r - 1."""
        return (self.group.ell + 1) // self.group.n


# ---------------------------------------------------------------------------
# public group validity

MIN_PRIME_BITS = 8
MAX_PRIME_BITS = 256  # bounds on the sizes of p and q in gen_group_params
_R_SEARCH_LIMIT = 100_000  # largest cofactor r tried for ell = n*r - 1
# ell = p*q*r - 1 has at most this many bits, so no group that
# gen_group_params builds is refused by check_public_group.
_MAX_ELL_BITS = 2 * MAX_PRIME_BITS + _R_SEARCH_LIMIT.bit_length()


def check_public_group(n: int, ell: int, g: bytes, h: bytes) -> tuple[Point, Point]:
    """The one check that (n, ell, g, h) is a group ``gen_group_params``
    could have published; raises GroupError if not, else returns (g, h).

    Cheapest first, so that a hostile size is refused before any work at
    that size: ell's size, n odd, n | ell + 1, then 4 | r and r at most
    _R_SEARCH_LIMIT for r = (ell + 1)/n, then ell prime, then g and h
    finite curve points.  ell = 3 (mod 4) follows from n odd and 4 | r.
    g and h come as canonical encodings, decoded only after ell has
    passed.  Whether they lie in the order-n subgroup is not checked here
    (``PairingGroup.pair`` refuses an h outside it, as a first argument).
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
    for name, data in (("g", g), ("h", h)):
        pt = decode_point_bytes(data, ell)
        if pt is None:
            raise InvalidPoint(f"generator {name} is not a finite curve point")
        points.append(pt)
    return tuple(points)


def group_from_primes(p: int, q: int, rng) -> GroupParams:
    """Build the curve and generators for composite order n = p*q.

    Searches r = 4, 8, 12, ... for a prime ell = n*r - 1 (n is odd, so
    ell = 3 mod 4 forces 4 | r), then cofactor-multiplies random points into
    a generator g of exact order n, which the ladders [n/p]g != O and
    [n/q]g != O decide (a draw with g = O fails them, as [k]O = O), and
    finally forms the order-q generator h = [alpha*p]g, as [alpha mod q]
    applied to the order-q point [n/q]g = [p]g that the check computed.
    The self-pairing e(g, g) = t(g, psi(g)) then has exact order n too, as
    the distorted pairing is non-degenerate on <g>.
    """
    if p == q:
        raise ValueError("the two prime factors must be distinct")
    if 2 in (p, q):  # n must be odd (check_public_group)
        raise ValueError("both factors must be odd")
    if not (is_probable_prime(p) and is_probable_prime(q)):
        raise ValueError("both factors must be prime")
    return _build_group(p, q, rng)


def _build_group(p: int, q: int, rng) -> GroupParams:
    # group_from_primes after its input checks, for distinct odd primes.
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
        g = _to_affine([_point_mul(r, _random_point(ell, rng), ell)], ell)[0]
        pg = _point_mul(n // q, g, ell)  # [p]g
        if _point_mul(n // p, g, ell)[2] and pg[2]:  # Z != 0
            break

    while True:
        alpha = rng.randrange(n)
        if math.gcd(alpha, q) == 1:
            break
    h = _to_affine([_point_mul(alpha % q, _to_affine([pg], ell)[0], ell)], ell)[0]  # [alpha*p]g

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
    return _build_group(p, q, rng)  # _sample_prime's primes are odd and checked
