"""Jones-Wenzl projectors, cores, and the dotted operators z_n, U_n, D_n.

One basis per level n: on each strand b = A1 and v = A0 - (E1/2) A1 (T,
statespace.STRAND_BASIS), and u_k sums the words with k v-letters, each
signed by (-1)^(sum of the 0-based positions of its v-letters).  B_n has
columns T^(x)n u_k and its left inverse B_n^+ the rows u_k^T T^-(x)n /
C(n,k), as u_j^T u_k = C(n,k) [j = k] (the sign-twisted symmetric basis
of Sym^n, Frenkel-Khovanov), both written entry by entry (_closed_basis)
and checked by B_n^+ B_n = I, so p_n = B_n B_n^+ is idempotent.  The core
of F: V_n -> V_m is B_m^+ F B_n; it fixes p_m F p_n, cores compose by the
product and p_n's core is the identity.  commutator_star acts on cores
(statespace._core_operator), so U_n and D_n (built once per process, by
_u_map and _d_map) are certified on cores, as are the Kirby star images;
z_n's core is written from one strand (_z_core).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ring import E_RING, pack_key
from .sl2 import GENERATORS, DtlParams
from .statespace import (A0, A1, PRIM_MATRICES, STRAND_BASIS, PolyMatrix,
                         commutator_star, core_side)
from .words import Word, crossing_combo, evaluate_word

E1, E2 = E_RING.gen("E1"), E_RING.gen("E2")

JW_TRACKED_BOUND = 8
# the symmetrizer oracle runs at every level p_n is built
JW_BRUTE_BOUND = JW_TRACKED_BOUND


class ProjectorError(Exception):
    pass


# -- the symmetric basis, projectors and cores --------------------------------

# p_n under n, (B_n, B_n^+) under ("basis", n), N = T^-1 dot T under "dot",
# U_n, D_n under ("u", n), ("d", n), True under (kind, n, params) once
# certified: swapping the dict swaps every derived matrix and certificate.
_jw_cache: dict = {}


def _derived(key, build):
    """The cached value under key, built on first use."""
    m = _jw_cache.get(key)
    if m is None:
        m = _jw_cache[key] = build()
    return m


def _classes(n: int) -> list:
    """(|S|, #odd p in S) per state s, S its A0 positions p = n-1-b (bits b
    of s): B_n's row s and B_n^+'s column s depend only on it."""
    odds = sum(1 << b for b in range(n) if (n - 1 - b) % 2)
    return [(bin(s).count("1"), bin(s & odds).count("1"))
            for s in range(2 ** n)]


def _closed_basis(n: int):
    """(B_n, B_n^+) as packed tables: for a state s with the A0 positions S,
    B_n[s, k] = sigma(S) (-E1/2)^(k-|S|) e_(k-|S|)(positions not in S) and
    B_n^+[k, s] = (E1/2)^(|S|-k) e_k(S) / C(n,k), where sigma(S) =
    prod_{p in S} (-1)^p and e_j(P) is the j-th elementary symmetric
    polynomial of the signs (-1)^p, p in P."""
    def elementary(a, c):  # e_0, e_1, ... of a signs +1 and c signs -1
        return [sum((-1) ** i * math.comb(a, j - i) * math.comb(c, i)
                    for i in range(j + 1)) for j in range(a + c + 1)]

    den = math.lcm(*(math.comb(n, k) for k in range(n + 1)))
    b_cols, bp_cols, parts = {k: {} for k in range(n + 1)}, {}, {}
    for s, (size, odd) in enumerate(_classes(n)):
        if (size, odd) not in parts:  # each class's entries, built once
            out = elementary(n - n // 2 - size + odd, n // 2 - odd)
            parts[size, odd] = (
                [(size + j, {pack_key(j, 0):
                             (-1) ** (odd + j) * 2 ** (n - j) * e})
                 for j, e in enumerate(out) if e],
                {k: {pack_key(size - k, 0): e * 2 ** (n - size + k)
                     * (den // math.comb(n, k))}
                 for k, e in enumerate(elementary(size - odd, odd)) if e})
        row, bp_cols[s] = parts[size, odd]
        for k, t in row:
            b_cols[k][s] = t
    return (PolyMatrix.from_packed(n, core_side(n), 2 ** n, b_cols),
            PolyMatrix.from_packed(core_side(n), n, den * 2 ** n, bp_cols))


def _basis(n: int):
    """(B_n, B_n^+) from _closed_basis, accepted only if B_n^+ B_n = I."""
    def build():
        b, bp = _closed_basis(n)
        if bp * b != PolyMatrix.identity(core_side(n)):
            raise ProjectorError(f"B_{n}^+ is not a left inverse of B_{n}")
        return b, bp

    return _derived(("basis", n), build)


def jw_tracked(n: int) -> PolyMatrix:
    """The cached p_n = B_n B_n^+: B_n times one column of B_n^+ per class
    (_classes), each product column shared by the states of its class."""
    if n < 0 or n > JW_TRACKED_BOUND:
        raise ProjectorError(f"projector bound exceeded: n={n}")

    def build():
        b, bp = _basis(n)
        den, table = bp._packed()
        classes = _classes(n)
        reps = {c: s for s, c in enumerate(classes)}
        half = b * PolyMatrix.from_packed(bp.n_out, n, den, {
            s: table[s] for s in reps.values()})
        den, table = half._packed()
        return PolyMatrix.from_packed(n, n, den, {
            s: table[reps[c]] for s, c in enumerate(classes)})

    return _derived(n, build)


jw = jw_tracked


def idempotent(n: int) -> bool:
    """p_n^2 = p_n, decided by B_n^+ B_n = I on the cached pair."""
    b, bp = _basis(n)
    return bp * b == PolyMatrix.identity(b.n_in)


class TrackedMor:
    """A map F: P_n -> P_m as its state matrix and its core C, with F =
    B_m C B_n^+ checked by its builder, so checks on C decide F's."""

    __slots__ = ("mat", "core")

    def __init__(self, mat: PolyMatrix, core: PolyMatrix):
        self.mat, self.core = mat, core


def _u_map(n: int, x: PolyMatrix) -> TrackedMor:
    """p_{n+2} X for X: V_n -> V_{n+2}, whose core is C = Y B_n, Y =
    B_{n+2}^+ X; only its right side is open: it is p-sandwiched iff
    Y = C B_n^+, on thin products (B_{n+2} is injective)."""
    y = _basis(n + 2)[1] * x
    c = y * _basis(n)[0]
    if c * _basis(n)[1] != y:
        raise ProjectorError(f"map {n + 2}<-{n} is not p-sandwiched")
    return TrackedMor(jw(n + 2) * x, c)


def _d_map(n: int, x: PolyMatrix) -> TrackedMor:
    """n(n-1) X p_n for X: V_n -> V_{n-2}; only its left side is open: it
    is p-sandwiched iff Y = X B_n has B_{n-2} B_{n-2}^+ Y = Y, on thin
    products (B_n^+ is surjective), and its core is n(n-1) B_{n-2}^+ Y."""
    y = x * _basis(n)[0]
    c = _basis(n - 2)[1] * y
    if _basis(n - 2)[0] * c != y:
        raise ProjectorError(f"map {n - 2}<-{n} is not p-sandwiched")
    return TrackedMor((x * jw(n)).scale(n * (n - 1)), c.scale(n * (n - 1)))


# -- symmetrizer oracle -------------------------------------------------------

def jw_bruteforce(n: int) -> PolyMatrix:
    """(1/n!) times the sum of all of S_n, with s_i = id - e_i, as the product
    C_1 C_2 ... C_{n-1} of coset sums C_k = 1 + s_k + s_k s_{k-1} + ...
    + s_k...s_1 = 1 + s_k C_{k-1}; independent of the symmetric basis.
    Its precondition, that the s_i satisfy the Coxeter relations of S_n,
    is checked by the tests."""
    if n < 0 or n > JW_BRUTE_BOUND:
        raise ProjectorError(f"projector bound exceeded: n={n}")
    ident = PolyMatrix.identity(n)
    total = coset = ident
    for i in range(1, n):
        coset = ident + crossing_combo(i, n).evaluate() * coset
        total = total * coset
    return total.scale(Fraction(1, math.factorial(n)))


# -- dotted connecting operators --------------------------------------------

def _certify(name: str, t: TrackedMor, params: DtlParams, f_eig, h_eig):
    """Abort unless, at params, e kills t and f, h scale it by the stated
    eigenvalues, decided on t's core."""
    failures = []
    c = t.core
    star = {g: commutator_star(g, c, params=params) for g in GENERATORS}
    if not star["e"].is_zero():
        failures.append("e image nonzero")
    if star["f"] != c.scale(f_eig):
        failures.append(f"f image is not ({f_eig}) times the morphism")
    if star["h"] != c.scale(E_RING.const(h_eig)):
        failures.append(f"h image is not ({h_eig}) times the morphism")
    if failures:
        raise ProjectorError(f"{name} failed certification: " + "; ".join(failures))


def _certified(kind: str, n: int, params: DtlParams, build, f_eig, h_eig):
    """U_n or D_n, built once and certified once per parameter pair; a
    failed certification is not recorded, so it raises on every call."""
    t = _derived((kind, n), build)
    if (kind, n, params) not in _jw_cache:
        _certify(f"{kind.upper()}_{n}", t, params, f_eig, h_eig)
        _jw_cache[kind, n, params] = True
    return t


def un(n: int, params: DtlParams = DtlParams()) -> TrackedMor:
    """U_n = p_{n+2} o (id^n (x) dotted cup) o p_n, certified at params.
    One dot carries the side-independent dotted cup, and p_n is absorbed:
    (id^n (x) cup) o p_n = (p_n (x) id^2) o (id^n (x) cup) and p_{n+2} o
    (p_n (x) id^2) = p_{n+2}, so U_n is the one product of _u_map."""
    if n < 0:
        raise ProjectorError("n must be non-negative")
    if params.a1 != 0:
        raise ProjectorError("U_n requires a1 = 0")

    def build():
        cup = evaluate_word(Word((("cup",), ("dot", "id"))))
        return _u_map(n, PolyMatrix.identity(n).tensor(cup))

    a2 = params.a2
    return _certified("u", n, params, build, (1 - a2) * E1, 2 * a2 - 2)


def dn(n: int, params: DtlParams = DtlParams()) -> TrackedMor:
    """D_n = n(n-1) * p_{n-2} o (id^(n-2) (x) dotted cap) o p_n, certified
    at params; p_{n-2} is absorbed as in U_n, so D_n is the one product
    n(n-1) * (id^(n-2) (x) dotted cap) o p_n of _d_map."""
    if n < 2:
        raise ProjectorError("D_n needs n >= 2")
    if params.a1 != 0:
        raise ProjectorError("D_n requires a1 = 0")

    def build():
        cap = evaluate_word(Word((("dot", "id"), ("cap",))))
        return _d_map(n, PolyMatrix.identity(n - 2).tensor(cap))

    a2 = params.a2
    return _certified("d", n, params, build, (1 + a2) * E1, -2 * a2 - 2)


def _z_core(n: int) -> PolyMatrix:
    """The core Z of z_n = sum_i (-1)^i dot_i: [n odd] E1/2 on the diagonal,
    k + 1 below, (n - k) q above, q = (E1^2 - 4E2)/4, once N = T^-1 dot T
    (T the strand basis) is checked to be (E1/2) I + (b -> v) + q (v -> b).
    For all n, dot_i T^(x)n = T^(x)n N_i, whose (E1/2) I parts sum to [n odd]
    E1/2; as sigma(S) (-1)^i = sigma(S + i), the signed raisings send u_k to
    (k+1) u_(k+1), the lowerings to (n-k+1) q u_(k-1), so z_n B_n = B_n Z."""
    def strand_step():  # read and checked once per projector cache
        t, ti = STRAND_BASIS
        half, q = E1 * Fraction(1, 2), (E1 * E1 - 4 * E2) * Fraction(1, 4)
        if ti * PRIM_MATRICES["dot"] * t != PolyMatrix(1, 1, {
                (A1, A1): half, (A0, A0): half, (A0, A1): 1, (A1, A0): q}):
            raise ProjectorError("T^-1 dot T is not of the checked form")
        return half, q

    half, q = _derived("dot", strand_step)
    entries = {(k, k): half for k in range(n + 1) if n % 2}
    for k in range(n):
        entries[k + 1, k], entries[k, k + 1] = k + 1, q * (n - k)
    return PolyMatrix(core_side(n), core_side(n), entries)


def _quiver_rhs(n: int, k: int, z: PolyMatrix, z2: PolyMatrix):
    """-z_n^2 + k(E1^2 - 4E2)p_n + [n odd](E1 z_n - E2 p_n), the core of
    D_{n+2}U_n (k = floor((n+2)^2/4)) and of U_{n-2}D_n (k = floor(n^2/4)),
    from the cores z, z2 of z_n and z_n^2, with the name that states it."""
    p = PolyMatrix.identity(core_side(n))  # p_n's core
    value = -z2 + p.scale(k * (E1 * E1 - 4 * E2))
    text = f"-z_{n}^2 + {k}*(E1^2-4*E2)*p_{n}"
    if n % 2:
        value = value + z.scale(E1) - p.scale(E2)
        text += f" + E1*z_{n} - E2*p_{n}"
    return value, text


def quiver_check(n_max: int = 5, params: DtlParams = DtlParams()) -> dict:
    """The relations among U, D, z in the projector category, on cores: U_n
    and D_n the cached cores of the certified un and dn, z_n's from
    _z_core.
    D_{n+2}U_n, U_{n-2}D_n (_quiver_rhs) and the z-intertwinings are exact
    identities; z_n^{n+1} = 0 holds at E1 = E2 = 0 (constant_terms: a ring
    homomorphism that makes T the identity, so a core reduces to 0 exactly
    when its state matrix does).  n_max lies in 0..JW_TRACKED_BOUND."""
    if not 0 <= n_max <= JW_TRACKED_BOUND:
        raise ProjectorError(
            f"n_max must be between 0 and {JW_TRACKED_BOUND}, got {n_max}")
    checks = []
    zs = [_z_core(n) for n in range(n_max + 3)]

    def record(name, ok):
        checks.append({"relation": name, "status": "pass" if ok else "fail"})

    for n in range(n_max + 1):
        z = zs[n]
        z2 = z * z
        if n + 4 <= JW_TRACKED_BOUND:
            u, d = un(n, params).core, dn(n + 2, params).core
            rhs, text = _quiver_rhs(n, (n + 2) ** 2 // 4, z, z2)
            record(f"D_{n+2}U_{n} = {text}", d * u == rhs)
            record(f"z_{n}D_{n+2} = D_{n+2}z_{n+2}", z * d == d * zs[n + 2])
        if n >= 2:
            u, d = un(n - 2, params).core, dn(n, params).core
            rhs, text = _quiver_rhs(n, n * n // 4, z, z2)
            record(f"U_{n-2}D_{n} = {text}", u * d == rhs)
            record(f"z_{n}U_{n-2} = U_{n-2}z_{n-2}", z * u == u * zs[n - 2])
        zpow = zmod = z.constant_terms()
        for _ in range(n):
            zpow = zpow * zmod
        record(f"z_{n}^{n+1} = 0 mod (E1,E2)", zpow.is_zero())
    ok = all(c["status"] == "pass" for c in checks)
    return {"n_max": n_max, "ok": ok, "checks": checks}
