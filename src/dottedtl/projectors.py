"""Jones-Wenzl projectors and the dotted operators z_n, U_n, D_n.

A projector is a matrix, built by the Wenzl recursion and checked against
the coset-product symmetrizer.  The matrices of p_n, U_n, D_n and z_n do
not depend on the action parameters, so each is built once per process,
in one cache bounded by n <= JW_TRACKED_BOUND, and p_n and z_n are
returned as the cached matrices.  U_n and D_n are certified once per
parameter pair, by the one sl2 action on morphisms,
statespace.commutator_star, applied to their matrices, and are returned as
a TrackedMor: the matrix with the parameters it is certified at.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ring import E_RING
from .sl2 import GENERATORS, DtlParams
from .statespace import PolyMatrix, commutator_star, generator_matrix
from .words import (
    Word,
    crossing_combo,
    evaluate_word,
    zn_combo,
)

E1 = E_RING.gen("E1")
E2 = E_RING.gen("E2")

JW_TRACKED_BOUND = 8
# the symmetrizer oracle runs wherever the recursion does
JW_BRUTE_BOUND = JW_TRACKED_BOUND


class ProjectorError(Exception):
    pass


class TrackedMor:
    """A morphism's matrix with the action parameters it is certified at."""

    __slots__ = ("mat", "params")

    def __init__(self, mat: PolyMatrix, params: DtlParams):
        self.mat = mat
        self.params = params

    def compose(self, other: "TrackedMor") -> "TrackedMor":
        """self o other (other applied first)."""
        if other.params != self.params:
            raise ProjectorError("mixing tracked morphisms at different parameters")
        return TrackedMor(self.mat * other.mat, self.params)


# -- Jones-Wenzl projectors --------------------------------------------------

# Parameter-independent matrices: p_n under n, and U_n, D_n, z_n under
# ("u", n), ("d", n), ("z", n).  The parameter pairs at which U_n and D_n
# passed certification are recorded in the same dict, as keys
# ("u", n, params) and ("d", n, params) holding True, so swapping the dict
# swaps every derived matrix and certificate with the projectors.
_jw_cache: dict = {}


def jw_tracked(n: int) -> PolyMatrix:
    """p_n by the Wenzl recursion at circle value 2,
    p_{k+1} = p_k(x)id - (k/(k+1)) (p_k(x)id) e_k (p_k(x)id),
    with the turnback e_k factored through its cap for a low-rank product.
    Built once per process: every call returns the cached matrix."""
    if n < 0 or n > JW_TRACKED_BOUND:
        raise ProjectorError(f"projector bound exceeded: n={n}")
    p = _jw_cache.get(n)
    if p is None:
        p = PolyMatrix.identity(0)
        if n:
            ext = jw_tracked(n - 1).tensor(PolyMatrix.identity(1))
            p = ext
            if n > 1:
                capm = generator_matrix("cap", n - 2, n)
                cupm = generator_matrix("cup", n - 2, n - 2)
                # scaled on the narrow factor, so no full-size copy is made
                mid = (ext * cupm).scale(Fraction(n - 1, n)) * (capm * ext)
                p = ext - mid
        _jw_cache[n] = p
    return p


jw = jw_tracked


# -- symmetrizer oracle -------------------------------------------------------

def jw_bruteforce(n: int) -> PolyMatrix:
    """(1/n!) times the sum of all of S_n, with s_i = id - e_i, as the product
    C_1 C_2 ... C_{n-1} of coset sums C_k = 1 + s_k + s_k s_{k-1} + ...
    + s_k...s_1 = 1 + s_k C_{k-1}; independent of the Wenzl recursion.
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

def _certify(name: str, t: TrackedMor, f_eig, h_eig):
    """Abort unless e kills t and f, h scale it by the stated eigenvalues."""
    failures = []
    star = {g: commutator_star(g, t.mat, params=t.params) for g in GENERATORS}
    if not star["e"].is_zero():
        failures.append("e image nonzero")
    if star["f"] != t.mat.scale(f_eig):
        failures.append(f"f image is not ({f_eig}) times the morphism")
    if star["h"] != t.mat.scale(E_RING.const(h_eig)):
        failures.append(f"h image is not ({h_eig}) times the morphism")
    if failures:
        raise ProjectorError(f"{name} failed certification: " + "; ".join(failures))


def _derived(key: tuple, build) -> PolyMatrix:
    """The cached matrix under key, built on first use."""
    m = _jw_cache.get(key)
    if m is None:
        m = _jw_cache[key] = build()
    return m


def _certified(kind: str, n: int, params: DtlParams, build, f_eig, h_eig):
    """The U_n or D_n matrix at params, certified once per parameter pair.
    A failed certification is not recorded, so it raises on every call."""
    t = TrackedMor(_derived((kind, n), build), params)
    if (kind, n, params) not in _jw_cache:
        _certify(f"{kind.upper()}_{n}", t, f_eig, h_eig)
        _jw_cache[kind, n, params] = True
    return t


def un(n: int, params: DtlParams = DtlParams()) -> TrackedMor:
    """U_n = p_{n+2} o (id^n (x) dotted cup) o p_n, certified at params.

    The dotted cup is side-independent in the matrix model, so a single
    dot carries the construction; certification pins the eigen-equations.
    The right-hand p_n is absorbed: by the interchange law
    (id^n (x) cup) o p_n = (p_n (x) id^2) o (id^n (x) cup), and
    p_{n+2} o (p_n (x) id^2) = p_{n+2}, so U_n is the one product
    p_{n+2} o (id^n (x) dotted cup).  The matrix is built once per process
    and certified once per parameter pair."""
    if n < 0:
        raise ProjectorError("n must be non-negative")
    if params.a1 != 0:
        raise ProjectorError("U_n requires a1 = 0")

    def build():
        cup = evaluate_word(Word((("cup",), ("dot", "id"))))
        return jw(n + 2) * PolyMatrix.identity(n).tensor(cup)

    a2 = params.a2
    return _certified("u", n, params, build, (1 - a2) * E1, 2 * a2 - 2)


def dn(n: int, params: DtlParams = DtlParams()) -> TrackedMor:
    """D_n = n(n-1) * p_{n-2} o (id^(n-2) (x) dotted cap) o p_n, certified
    at params; built once per process and certified once per parameter
    pair, like U_n.  The left-hand p_{n-2} is absorbed, as in U_n:
    p_{n-2} o (id^(n-2) (x) cap) = (id^(n-2) (x) cap) o (p_{n-2} (x) id^2)
    and (p_{n-2} (x) id^2) o p_n = p_n, so D_n is
    n(n-1) * (id^(n-2) (x) dotted cap) o p_n, one product."""
    if n < 2:
        raise ProjectorError("D_n needs n >= 2")
    if params.a1 != 0:
        raise ProjectorError("D_n requires a1 = 0")

    def build():
        cap = evaluate_word(Word((("dot", "id"), ("cap",))))
        mid = PolyMatrix.identity(n - 2).tensor(cap)
        return (mid * jw(n)).scale(n * (n - 1))

    a2 = params.a2
    return _certified("d", n, params, build, (1 + a2) * E1, -2 * a2 - 2)


def zn_matrix(n: int) -> PolyMatrix:
    """z_n inside End(P_n): p_n z_n p_n, built once per process."""
    def build():
        p = jw(n)
        return p * zn_combo(n).evaluate() * p

    return _derived(("z", n), build)


def _quiver_rhs(n: int, k: int, z: PolyMatrix, z2: PolyMatrix):
    """-z_n^2 + k(E1^2 - 4E2)p_n + [n odd](E1 z_n - E2 p_n), the value of
    D_{n+2}U_n (k = floor((n+2)^2/4)) and of U_{n-2}D_n (k = floor(n^2/4))
    inside End(P_n), with the name that states it."""
    p = jw(n)
    value = -z2 + p.scale(k * (E1 * E1 - 4 * E2))
    text = f"-z_{n}^2 + {k}*(E1^2-4*E2)*p_{n}"
    if n % 2:
        value = value + z.scale(E1) - p.scale(E2)
        text += f" + E1*z_{n} - E2*p_{n}"
    return value, text


def quiver_check(n_max: int = 5, params: DtlParams = DtlParams()) -> dict:
    """The relations among U, D, z inside the projector category.

    D_{n+2}U_n and U_{n-2}D_n are checked as exact identities (_quiver_rhs),
    and so are the z-intertwinings; z_n^{n+1} = 0 holds after setting
    E1 = E2 = 0 (PolyMatrix.constant_terms, a ring homomorphism, so the
    power multiplies the reduced z_n).  z_n^2 is built once per n.
    n_max must lie in 0..JW_TRACKED_BOUND.
    """
    if not 0 <= n_max <= JW_TRACKED_BOUND:
        raise ProjectorError(
            f"n_max must be between 0 and {JW_TRACKED_BOUND}, got {n_max}")
    checks = []

    def record(name, ok):
        checks.append({"relation": name, "status": "pass" if ok else "fail"})

    for n in range(n_max + 1):
        z = zn_matrix(n)
        z2 = z * z
        if n + 4 <= JW_TRACKED_BOUND:
            u = un(n, params)
            d = dn(n + 2, params)
            rhs, text = _quiver_rhs(n, (n + 2) ** 2 // 4, z, z2)
            record(f"D_{n+2}U_{n} = {text}", d.mat * u.mat == rhs)
            zd = zn_matrix(n + 2)
            record(f"z_{n}D_{n+2} = D_{n+2}z_{n+2}", z * d.mat == d.mat * zd)
        if n >= 2:
            u = un(n - 2, params)
            d = dn(n, params)
            rhs, text = _quiver_rhs(n, n * n // 4, z, z2)
            record(f"U_{n-2}D_{n} = {text}", u.mat * d.mat == rhs)
            zu = zn_matrix(n - 2)
            record(f"z_{n}U_{n-2} = U_{n-2}z_{n-2}", z * u.mat == u.mat * zu)
        zmod = z.constant_terms()
        zpow = jw(n).constant_terms()
        for _ in range(n + 1):
            zpow = zpow * zmod
        record(f"z_{n}^{n+1} = 0 mod (E1,E2)", zpow.is_zero())
    ok = all(c["status"] == "pass" for c in checks)
    return {"n_max": n_max, "ok": ok, "checks": checks}
