"""Seeded invariant suites runnable from the command line.

Condensed versions of the library's mathematical invariants: the ring's
multiplication table against an independent fold, ring axioms,
Teichmueller multiplicativity, weight function properties against the
definitional oracle, splitting-series and kernel bounds, the vectorized
kernel sweep against the reference kernel sum, dual-step norm control,
adjointness, the oracle's torus enumerator against the reference sum and
its Newton-identity traces against conjugate sums, the exactness of the
GEMM product kernel on this machine's BLAS, route A's digit enumerator
and stopping step, and route C's first-return coefficients against
Newton's identities over dense trace powers, two more than the cap and
carrying the digits the divisions lose.  Each suite returns
(name, ok, detail).
"""

import itertools
import random
from fractions import Fraction

import numpy as np

from . import dwork, ffield, hyperg, oracle, padic, weights
from .errors import PrecisionTooLow
from .padic import make_ring, powers, split_p, teichmueller, valuation, zeta_p


def int64_top(p):
    """The last N whose p^N check_product_precision accepts: 31, 19 and 13
    at p = 2, 3 and 5."""
    for N in itertools.count(1):
        try:
            dwork.check_product_precision(p ** (N + 1))
        except PrecisionTooLow:
            return N


def law_mismatch(ring):
    """First slot pair (i, k) where RingSpec.law differs from
    dwork.pair_products_reference, which folds by _fold, on the units of
    slots i and k (slot j*m + s is pi^j t^s), else None."""
    S = ring.npi * ring.m
    units = np.eye(S, dtype=np.int64).reshape(S, 1, 1, ring.npi, ring.m)
    for i, k in itertools.product(range(S), repeat=2):
        ref = dwork.pair_products_reference(ring, units[i], units[k]).ravel().tolist()
        if dict(ring.law[i][k]) != {o: c for o, c in enumerate(ref) if c}:
            return i, k
    return None


def _suite_ring_laws(rng):
    from .padic import RingElem
    for p, m in itertools.product((2, 3, 5), (1, 2, 3)):
        if law_mismatch(make_ring(p, m, None, 4)) is not None:
            return False, f"RingSpec.law differs from _fold at p={p}, m={m}"
    for p, m in ((2, 1), (3, 1), (5, 1), (3, 2)):
        ring = make_ring(p, m, None, 4)
        pi = ring.pi()
        # random digits times a random power of pi, so every order occurs
        elems = [RingElem(ring, [[rng.randrange(ring.pN) for _ in range(m)]
                                 for _ in range(ring.npi)])
                 * pi ** rng.randrange(ring.N * ring.npi) for _ in range(12)]
        if not (pi ** (p - 1) + ring.from_int(p)).is_zero():
            return False, f"pi^(p-1) + p != 0 at p={p}"
        for _ in range(40):
            x, y, z = rng.choice(elems), rng.choice(elems), rng.choice(elems)
            if (x + y) * z != x * z + y * z:
                return False, f"distributivity fails at p={p}"
            if x * y != y * x or (x * y) * z != x * (y * z):
                return False, f"commutativity/associativity fails at p={p}"
            ox, oy, oxy = x.order(), y.order(), (x * y).order()
            if ox is not None and oy is not None and ox + oy < ring.N * ring.npi:
                if oxy != ox + oy:
                    return False, f"order not additive at p={p}"
            if x.valuation() != (None if ox is None else Fraction(ox, p - 1)):
                return False, f"valuation is not order/(p-1) at p={p}"
    return True, "law = _fold, ring laws, pi relation, order additivity, valuation"


def _suite_teichmueller(rng):
    for p, m in ((3, 1), (5, 1), (3, 2), (2, 2)):
        ring = make_ring(p, m, None, 4)
        q = p ** m
        for _ in range(10):
            a = [rng.randrange(p) for _ in range(m)]
            b = [rng.randrange(p) for _ in range(m)]
            ta, tb = teichmueller(ring, a), teichmueller(ring, b)
            if (ta * tb) ** q != ta * tb:
                return False, f"product is not Teichmueller at p={p},m={m}"
            if ta ** q != ta:
                return False, f"lift not fixed by q-power at p={p},m={m}"
        z = zeta_p(ring)
        phi = ring.zero()
        for k in range(p):
            phi = phi + z ** k
        if not phi.is_zero():
            return False, f"cyclotomic value nonzero at p={p}"
        if valuation(z - ring.one()) != Fraction(1, p - 1):
            return False, f"zeta - 1 has wrong order at p={p}"
    return True, "multiplicativity, q-power fixing, cyclotomic identity"


def _suite_weights(rng):
    for aname in ("kloosterman", "skew", "triangle", "edge"):
        from .battery import EXPONENT_SETS
        vecs = EXPONENT_SETS[aname]
        A = weights.ExponentSet(len(vecs[0]), vecs)
        W = weights.build_weight_data(A)
        n = A.n
        for _ in range(200):
            cs = [rng.randrange(9) for _ in vecs]
            nu = tuple(sum(c * v[i] for c, v in zip(cs, vecs)) for i in range(n))
            w = weights.weight(W, nu)
            if w < 0 or (w == 0) != (not any(nu)):
                return False, f"positivity fails on {aname}"
            if weights.weight(W, tuple(3 * x for x in nu)) != 3 * w:
                return False, f"homogeneity fails on {aname}"
            if w != weights.weight_definitional(A, nu):
                return False, f"oracle mismatch on {aname} at {nu}"
            if (W.D * w).denominator != 1:
                return False, f"denominator fails on {aname}"
            cs2 = [rng.randrange(9) for _ in vecs]
            mu = tuple(sum(c * v[i] for c, v in zip(cs2, vecs)) for i in range(n))
            both = tuple(a + b for a, b in zip(nu, mu))
            if weights.weight(W, both) > w + weights.weight(W, mu):
                return False, f"subadditivity fails on {aname}"
    return True, "properties of the weight function vs the definitional oracle"


def _suite_kernel_bounds(rng):
    # ord b_i >= i/(p-1) = i/2 at p = 3, read past the cutoff, where b_i
    # vanishes mod p^N
    ring = make_ring(3, 1, None, 4)
    sc = dwork.splitting_coefficients(ring, dwork.kernel_cut(ring) + 4)
    for i, b in enumerate(sc.b):
        if not b.val_at_least(Fraction(i, 2)):
            return False, f"splitting bound fails at {i}"
    from .battery import EXPONENT_SETS
    A = weights.ExponentSet(1, EXPONENT_SETS["kloosterman"])
    W = weights.build_weight_data(A)
    lam = (ring.one(), ring.one())
    for mu in weights.enumerate_weighted_monomials(W, 6):
        val = dwork.bigF_coefficient(lam, mu, W, ring, sc)
        if not val.val_at_least(weights.weight(W, mu) / 2):
            return False, f"kernel bound fails at {mu}"
    return True, "splitting-series and kernel coefficient bounds"


def sweep_mismatch(table, lam, W, ring, sc, s_cut):
    """First mu where a kernel table differs from bigF_coefficient, else None.

    Every cone point of the box holding all mu = sum nu_a a with
    |nu| <= s_cut is compared, a point missing from the table as zero; a
    table key outside that box is a mismatch too.
    """
    vecs = np.array(W.A.vectors)
    lo = s_cut * np.minimum(vecs.min(axis=0), 0)
    hi = s_cut * np.maximum(vecs.max(axis=0), 0)
    box = [tuple(int(c) for c in mu)
           for mu in itertools.product(*map(range, lo, hi + 1))]
    stray = set(table) - set(box)
    if stray:
        return min(stray)
    pows = [powers(x, s_cut) for x in lam]  # once per call, not per mu
    for mu in box:
        if weights.in_cone(W, mu):
            ref = dwork.bigF_coefficient(lam, mu, W, ring, sc, s_cut, pows)
            if ref != table.get(mu, ring.zero()):
                return mu
        elif mu in table:
            return mu
    return None


def _suite_kernel_sweep(rng):
    from .battery import EXPONENT_SETS
    from .padic import RingElem
    # 3^19 and 5^13 are the last moduli of the int64 rule; at p = 2 an
    # int64 overflow wraps mod 2^64 and stays right mod 2^N.  lambda is a
    # random element of Z_q, the sweep's domain: random t-digits in pi-row 0
    for p, m, N, aname, s_cut in ((2, 2, 3, "kloosterman", None),
                                  (3, 1, 19, "kloosterman", 20),
                                  (3, 2, 3, "triangle", 5),
                                  (5, 1, 2, "edge", None),
                                  (5, 1, 13, "skew", 12),
                                  (7, 1, 2, "triangle", None)):
        ring = make_ring(p, m, None, N)
        s_cut = dwork.kernel_cut(ring) if s_cut is None else s_cut
        sc = dwork.splitting_coefficients(ring, s_cut)
        vecs = EXPONENT_SETS[aname]
        W = weights.build_weight_data(weights.ExponentSet(len(vecs[0]), vecs))
        lam = tuple(RingElem(ring, [[rng.randrange(ring.pN) for _ in range(m)]]
                             + [[0] * m] * (ring.npi - 1)) for _ in vecs)
        table = dwork.kernel_sweep(lam, W, ring, sc, s_cut)
        mu = sweep_mismatch(table, lam, W, ring, sc, s_cut)
        if mu is not None:
            return False, f"sweep differs from bigF at {mu}, p={p}, m={m}, N={N}, {aname}"
    return True, "kernel sweep equals bigF up to the last int64 moduli"


def _suite_dual_operator(rng):
    ring = make_ring(3, 1, None, 3)
    from .battery import EXPONENT_SETS
    A = weights.ExponentSet(1, EXPONENT_SETS["kloosterman"])
    spec = hyperg.LaurentSpec(A, 3, 1, 1, ((1,), (1,)))
    W = weights.build_weight_data(A)
    od = dwork.OperatorData(spec, W, ring, 6)
    basis = od.basis
    for _ in range(6):
        support = {}
        for mu in basis:
            if rng.random() < 0.5:
                from .padic import RingElem
                support[mu] = RingElem(
                    ring, [[rng.randrange(ring.pN)] for _ in range(ring.npi)])
        if not support:
            continue
        xi = dwork.XSeries(support, Fraction(6))
        eta = dwork.one_step_dual(od.lam_orbit[0], xi, W, ring, od.sc,
                                  od.s_cut, lookup=od.kernel_table(0).get)
        nin, nout = xi.norm_order(W, ring), eta.norm_order(W, ring)
        if nout is not None and (nin is None or nout < nin):
            return False, "dual step increased the weighted norm"
    if dwork.adjoint_check(spec, 6, ring) is not None:
        return False, "adjointness discrepancy above the precision floor"
    return True, "dual-step norm control and adjointness"


def _suite_oracle(rng):
    from .battery import EXPONENT_SETS
    A = weights.ExponentSet(1, EXPONENT_SETS["kloosterman"])
    spec = hyperg.LaurentSpec(A, 3, 1, 1, ((1,), (1,)))
    table = oracle.char_sum_table(spec, 3)
    for row in table.rows:
        if sum(row.counts) != (3 ** row.field_degree - 1):
            return False, "count conservation fails"
    ring = make_ring(3, 1, None, 4)
    est = oracle.embed_and_estimate(table, ring)
    if any(v != 0 for v in est.s_valuations):
        return False, "character sum is not a unit"
    # Frobenius invariance at a quadratic point
    spec1 = hyperg.LaurentSpec(A, 3, 2, 1, ((0, 1), (1,)))
    spec2 = hyperg.LaurentSpec(A, 3, 2, 1, ((0, 2), (1,)))  # (t)^3 = 2t in F9
    t1 = oracle.char_sum_table(spec1, 3)
    t2 = oracle.char_sum_table(spec2, 3)
    for r1, r2 in zip(t1.rows, t2.rows):
        if r1.counts != r2.counts:
            return False, "Frobenius invariance fails"
    # the numpy enumerator against the reference sum in three variables
    A3 = weights.ExponentSet(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)))
    for p, l in ((2, 2), (3, 1)):
        coeffs = tuple((rng.randrange(1, p),) for _ in A3.vectors)
        spec3 = hyperg.LaurentSpec(A3, p, 1, 1, coeffs)
        tower = oracle.FqTower(spec3)
        F, offsets = tower.level(l)
        slow = oracle._char_sum_slow(F, offsets, A3.vectors, F.size - 1, p)
        if oracle.char_sum(spec3, l, tower).counts != tuple(int(x) for x in slow):
            return False, f"enumeration differs from the reference at p={p}, l={l}"
    # Newton's-identity traces against conjugate sums, one field per p
    for p, k in ((2, 5), (3, 4), (5, 3)):
        F = ffield.field(p, k)
        for e, t in enumerate(F.traces()):
            x, conj = F.pow(F.elem((0, 1)), e), F.zero()
            for i in range(k):
                conj = F.add(conj, F.pow(x, p ** i))
            if conj != F.elem((t,)):
                return False, f"Tr(s^{e}) in F_{p}^{k} differs from its conjugate sum"
    return True, ("count conservation, unit sums, Frobenius invariance, "
                  "enumeration against the reference, traces")


def limb_boundaries():
    """(p, m, N, dim) on both sides of the product kernel's limb rules.

    For p in {2, 3, 5} and m in {1, 2}, with h = floor(p^N/2) and
    S = (p-1)m slots:
    - at the largest N with (p^N - 1)^2 < 2^52, the last dimension with
      dim (p^N - 1)^2 < 2^52 and the next (the rule before centring);
    - at the largest N with 2 (p^N - 1)^2 < 2^62, the last two dimensions
      with dim (p^N - 1)^2 < 2^62, the rule the product kernel once had;
    - at the largest N before PrecisionTooLow, where
      (p^N - 1)^2 + p^N < 2^63 (2^31, 3^19, 5^13), the last dimension
      under that old rule and the next;
    - at the largest N with h^2 < 2^53, the last one-limb dimension and the
      next, where one slot per GEMM turns into all S slots in two limbs;
    - at the next N, the last dimension whose S-slot contraction keeps the
      digit width of dimension 1, K floor(p^e/2) h < 2^53, and the next;
      and the same for the k-bit limbs the kernel cut before it had digits,
      K (2^k - 1) h < 2^53;
    - at the largest N with S h^2 < 2^53, the last dimension contracting all
      S slots in one GEMM, and the next, which splits them into groups.
    A case already listed is not repeated.
    """
    out = []
    for p in (2, 3, 5):
        N = max(n for n in range(1, 64) if (p ** n - 1) ** 2 < 2 ** 52)
        first = -(-2 ** 52 // (p ** N - 1) ** 2)
        old = max(n for n in range(1, 64) if 2 * (p ** n - 1) ** 2 < 2 ** 62)
        top = int64_top(p)
        last = {n: (2 ** 62 - 1) // (p ** n - 1) ** 2 for n in (old, top)}
        for m in (1, 2):
            for case in ((p, m, N, first - 1), (p, m, N, first),
                         (p, m, old, last[old] - 1), (p, m, old, last[old]),
                         (p, m, top, last[top]), (p, m, top, last[top] + 1)):
                if case not in out:
                    out.append(case)
    for p in (2, 3, 5):
        for m in (1, 2):
            S = (p - 1) * m
            N1 = max(n for n in range(1, 64) if (p ** n // 2) ** 2 < 2 ** 53)
            d1 = (2 ** 53 - 1) // (p ** N1 // 2) ** 2
            dw = next(d for d in range(1, 64)
                      if padic.limb_digits(S * (d + 1), p, N1 + 1)
                      < padic.limb_digits(S, p, N1 + 1))
            h = p ** (N1 + 1) // 2

            def bits(K):
                return max(k for k in range(1, h.bit_length())
                           if K * (2 ** k - 1) * h < 2 ** 53)
            db = next(d for d in range(1, 64) if bits(S * (d + 1)) < bits(S))
            Ng = max(n for n in range(1, 64) if S * (p ** n // 2) ** 2 < 2 ** 53)
            dg = (2 ** 53 - 1) // (S * (p ** Ng // 2) ** 2)
            for case in ((p, m, N1, d1), (p, m, N1, d1 + 1),
                         (p, m, N1 + 1, dw), (p, m, N1 + 1, dw + 1),
                         (p, m, N1 + 1, db), (p, m, N1 + 1, db + 1),
                         (p, m, Ng, dg), (p, m, Ng, dg + 1)):
                if case not in out:
                    out.append(case)
    return out


def extreme_operands(ring, dim, cols):
    """Constant operand pairs (A, B) with the largest partial sums.

    The kernel centres every entry, |x| <= h = floor(p^N/2), and cuts left
    entries into centred base-p digits, a limb of w digits at most
    floor(p^w/2) in absolute value.  A = h has every digit at that bound at
    odd p, and its top limb at it at p = 2; h + 1 is -h at odd p.  Against
    B = h and h + 1 they give the largest sums, +-K floor(p^e/2) h.  A whose
    every digit is the largest odd one within the bound, against B the
    largest odd entry up to h, gives odd sums over an odd contraction, and
    an odd sum a bit past 2^53 cannot be held exactly.  The pairs that were
    extreme for the kernel's earlier bit limbs stay: every entry p^N - 1;
    A all ones below the top bit of p^N - 1 against B the largest odd
    residue; and A = p^N - 1 against B = h and h + 1.
    """
    p, N, pN = ring.p, ring.N, ring.pN
    h = pN // 2
    shapes = ((dim, dim, ring.npi, ring.m), (dim, cols, ring.npi, ring.m))
    K = padic.slot_group(dim, ring.npi * ring.m, p, N) * dim
    e, limbs = padic.limb_digits(K, p, N), padic.product_limbs(K, p, N)
    odd_digits, shift = 0, 0
    for width in [N - (limbs - 1) * e] + [e] * (limbs - 1):
        bound = (p ** width - 1) // 2
        odd_digits += (bound - 1 + bound % 2) * p ** shift
        shift += width
    ones = 2 ** ((pN - 1).bit_length() - 1) - 1
    odd = pN - 1 if pN % 2 == 0 else pN - 2
    return [tuple(np.full(s, v % pN, dtype=np.int64) for s, v in zip(shapes, vals))
            for vals in ((h, h), (h + 1, h + 1), (h, h + 1),
                         (odd_digits, h - 1 + h % 2), (pN - 1, pN - 1),
                         (ones, odd), (pN - 1, h), (pN - 1, h + 1))]


def _suite_exact_matmul(rng):
    for p, m, N, dim in limb_boundaries():
        ring = make_ring(p, m, None, N)
        for cols in (dim, 1):
            shapes = ((dim, dim, ring.npi, m), (dim, cols, ring.npi, m))
            seeded = tuple(np.array([rng.randrange(ring.pN) for _ in range(np.prod(s))],
                                    dtype=np.int64).reshape(s) for s in shapes)
            for A, B in extreme_operands(ring, dim, cols) + [seeded]:
                if not np.array_equal(dwork._pair_products(ring, A, B),
                                      dwork.pair_products_reference(ring, A, B)):
                    return False, (f"kernel differs from the integer reference at "
                                   f"p={p}, m={m}, N={N}, dim={dim}, cols={cols}")
    return True, "GEMM products equal integer products at the limb boundaries"


def surviving_solutions(A, target, degmax, p, order_bound):
    """Reference for hyperg.digit_solutions, with no digit-by-digit search:
    the lattice solver's u >= 0 with sum u_a a = target and |u| <= degmax
    (weights.lattice_solutions), kept while the base-p digit sums of the
    u_a add up to less than order_bound."""
    def digit_sum(x):
        s = 0
        while x:
            x, d = divmod(x, p)
            s += d
        return s
    return [u for u in weights.lattice_solutions(A, target, degmax)
            if sum(map(digit_sum, u)) < order_bound]


def _suite_route_a(rng):
    from .battery import BATTERY, job_dict
    from .errors import NotSpanning
    from .runner import run
    checked = 0
    while checked < 40:
        n = rng.choice((1, 2))
        vecs = {tuple(rng.randrange(-2, 3) for _ in range(n))
                for _ in range(rng.randrange(n, n + 3))}
        try:
            A = weights.ExponentSet(n, tuple(sorted(vecs)))
        except (NotSpanning, ValueError):
            continue
        p, N = rng.choice((2, 3, 5)), rng.randrange(1, 5)
        target = tuple(rng.randrange(-3, 4) for _ in range(n))
        degmax = rng.randrange(12 if len(vecs) < 4 else 8)
        got = hyperg.digit_solutions(A, target, degmax, p, N * (p - 1))
        want = surviving_solutions(A, target, degmax, p, N * (p - 1))
        if len(got) != len(set(got)) or sorted(got) != sorted(want):
            return False, (f"digit_solutions differs from the lattice solver on A="
                           f"{A.vectors}, target={target}, degmax={degmax}, p={p}, N={N}")
        checked += 1
    for cid in ("p2-skew", "p3-kloosterman-f9"):
        case = next(c for c in BATTERY if c["id"] == cid)
        data = run(job_dict(case, routes=("A", "C"))).data
        route = data["routes"].get("A", {})
        if route.get("stop_step") != data["weights"]["D"] * 4:
            return False, f"route A did not stop at step D*N on {cid}"
        if route["unit_root"] != data["routes"].get("C", {}).get("unit_root"):
            return False, f"route A's u_(D*N) differs from route C on {cid}"
    return True, "digit enumerator equals the lattice solver; u_(D*N) equals route C"


def route_c_jobs():
    """(case, N): every battery case at N = 4 and the triangle and edge cases
    of the benchmark's operators-n8 workload at N = 8."""
    from .battery import BATTERY, DEGENERATE_BATTERY
    cases = {c["id"]: c for c in BATTERY + DEGENERATE_BATTERY}
    return [(c, 4) for c in cases.values()] + [
        (cases[cid], 8) for cid in ("p3-triangle", "p5-triangle", "p5-triangle-f25",
                                    "p3-edge-degenerate", "p5-edge-degenerate")]


def charpoly_boost(p, cap):
    """Digits Newton's identities lose over cap traces: v_p(cap!).

    Traces exact mod p^N' give c_k exact mod p^(N' - v_p(k!)), each step
    dividing by k and losing at most v_p(k) digits beyond its inputs; so
    N' = N + v_p(cap!) keeps every c_k, k <= cap, exact mod p^N.  Before the
    division by p^(v_p(k)) the error has ord >= N + v_p(k), so the division
    is exact.  Route C divides by nothing; only newton_coefficients, the
    fredholm-cap suite's dense trace-power reference, needs this.
    """
    return sum(split_p(k, p)[0] for k in range(2, cap + 1))


def newton_coefficients(traces, ring):
    """c_0 .. c_k of det(I - T M) in ring, trailing zeros dropped, from
    tr M^1 .. tr M^k by Newton's identities k c_k = -sum_j tr(M^j) c_(k-j);
    exact when the traces carry charpoly_boost(p, k) digits beyond ring's."""
    wide = traces[0].spec if traces else ring
    coeffs = [wide.one()]
    for k in range(1, len(traces) + 1):
        acc = -sum((traces[j - 1] * coeffs[k - j] for j in range(1, k + 1)),
                   wide.zero())
        v, unit = split_p(k, wide.p)
        acc = acc * pow(unit, -1, wide.pN)
        coeffs.append(acc.divide_exact_p(v) if v else acc)
    coeffs = [c.reduce_to(ring) for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _suite_fredholm_cap(rng):
    """Route C's first-return coefficients on route_c_jobs against
    newton_coefficients over min(cap + 2, dim) dense trace powers at
    N + charpoly_boost digits, an encoding that shares neither the window
    nor the cap with the code it checks: equal lists, trailing zeros
    stripped, so c_(cap+1) and c_(cap+2) vanish.  The cap is where Dwork's
    estimate reaches N, every ord c_k meets that estimate, and every
    product's band K_k (trace_band) never increases down the rows, nor
    from one product to the next."""
    from .battery import job_dict
    from .runner import JobConfig, default_wmax
    for case, N in route_c_jobs():
        cfg = JobConfig.from_dict(job_dict(case, precision=N, routes=("C",)))
        spec, p = cfg.laurent_spec(), cfg.p
        ring = make_ring(p, cfg.field_degree, cfg.field_poly, N)
        W = weights.build_weight_data(spec.A)
        wmax = default_wmax(ring, W.D)
        basis = weights.enumerate_weighted_monomials(W, wmax)
        ws = sorted(weights.weight(W, mu) for mu in basis)
        cap = dwork.fredholm_cap(W, basis, p, N)
        traced = min(cap + 2, len(basis))
        wide = make_ring(p, cfg.field_degree, cfg.field_poly,
                         N + charpoly_boost(p, traced))
        Mx = dwork.OperatorData(spec, W, wide, wmax, basis=basis).full_matrix()
        traces, Mk = [Mx.trace()], Mx
        for _ in range(traced - 1):
            Mk = Mk.matmul(Mx)
            traces.append(Mk.trace())
        want = newton_coefficients(traces, ring)
        # the matrix at N is the wide one reduced
        got = dwork.fredholm_coefficients(
            dwork.RingMatrix(ring, W, basis, Mx.tensor % ring.pN)).coeffs
        where = f"{case['id']} at N = {N}"
        # the first k where Dwork's estimate over the k + 1 smallest
        # weights reaches N; c_k vanish past it
        if cap != next((k for k in range(len(ws)) if sum(ws[:k + 1]) >= N), len(ws)):
            return False, f"cap {cap} is not where Dwork's estimate reaches N on {where}"
        bands = dwork.trace_band(W, basis, p, N, cap - 1)
        if (np.diff(bands, axis=1) > 0).any():
            return False, f"some K_k(a) increases down the rows on {where}"
        if (np.diff(bands, axis=0) > 0).any():
            return False, f"K_k(a) increases with k on {where}"
        if got != want:
            return False, f"first-return coefficients differ from trace powers on {where}"
        for k, c in enumerate(want):
            v = c.valuation()
            if v is not None and v < sum(ws[:k]):
                return False, f"ord c_{k} = {v} is below Dwork's estimate on {where}"
    return True, ("first-return coefficients equal Newton's identities over "
                  "cap + 2 dense trace powers; the cap and ord c_k meet Dwork's "
                  "estimate; every K_k never increases down the rows or in k")


SUITES = [
    ("ring-laws", _suite_ring_laws),
    ("teichmueller", _suite_teichmueller),
    ("weights", _suite_weights),
    ("kernel-bounds", _suite_kernel_bounds),
    ("kernel-sweep", _suite_kernel_sweep),
    ("dual-operator", _suite_dual_operator),
    ("oracle", _suite_oracle),
    ("exact-matmul", _suite_exact_matmul),
    ("route-a", _suite_route_a),
    ("fredholm-cap", _suite_fredholm_cap),
]


def run_selftest(seed=20240801):
    results = []
    for name, fn in SUITES:
        rng = random.Random(seed)
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crashed suite is a failed suite
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
