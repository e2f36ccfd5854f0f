"""Every pass/fail/inconclusive check of regcert, one per lemma of the
chain: the flattening inequality, the power-substitution lemma, the
initial/lex regularity chain, and the main regularity bound for
polynomially parametrised varieties, with the seeded trials over each.

Every check recomputes each side of an (in)equality through an
independent route before comparing; no check derives both sides from the
same intermediate object.
"""

import random
import time
from fractions import Fraction

import numpy as np

from .groebner import (IdealPresentation, eliminate, graph_ideal,
                       groebner_basis, ideal_equal, image_ideal,
                       initial_ideal, kernel_of_map,
                       passes_buchberger_criterion)
from .instances import random_ideal, random_parametrisation
from .monomials import (MonomialIdeal, ci_hilbert_function, compute_G,
                        g_cap, hilbert_function, lex_segment_ideal,
                        monomials_of_degree, num_monomials,
                        stable_regularity)
from .reports import VerificationReport, digest_of
from .resolution import (betti_table, matrix_dtype, pivot_split, regularity,
                         sparse_rank, t_invariants)
from .rings import (BlockOrder, DegRevLexOrder, LexOrder, Polynomial,
                    PowerMap, apply_power_map)
from .scalars import DEFAULT_PRIME


# ---------------------------------------------------------------------------
# Hilbert function of a homogeneous ideal by direct linear algebra
# (independent of any Groebner computation)

def hf_direct(J, D):
    """Quotient dimensions of R/J in degrees 0..D, as a tuple, computed as
    corank of the span of (monomial multiples of) the generators.

    Columns.  The degree-t columns are the monomials of degree t in
    increasing degrevlex order, so a row's leading monomial under
    degrevlex is its last nonzero column.  That order is descending lex
    with x_1 compared first, so the column of x^a is the number of
    degree-t monomials before it: the sum over k of the monomials of
    degree s_k - 1 in x_k, ..., x_n, s_k the degree of a_{k+1}, ..., a_n.

    Row cut.  With g_1, ..., g_k the generators by ascending degree and
    lm taken under degrevlex whatever order g_i carries, the degree-t rows
    are the m g_i with m not in (lm g_1, ..., lm g_{i-1}).  They span
    every m g_i: for m = m' lm(g_j), j < i, and g_j = c lm(g_j) + tail(g_j),
        m g_i = (m' g_i g_j - m' tail(g_j) g_i) / c,
    a sum of rows of g_j and of rows (m' u) g_i with m' u < m, so both lie
    in the span of the rows kept, by induction on i and then on m.  The
    argument holds for any generating set sorted by degree.

    Autoreduction.  The generators are taken by ascending degree e, and
    each is reduced by pivot_split of the degree-e rows of the generators
    already kept, itself the last row: if it is no pivot, it is replaced
    by its reduced part over the columns that no row leads with, and
    dropped if that is zero.  So the kept degree-e generators have
    distinct degrevlex leads, none the lead of a lower generator's
    degree-e row.  A replaced g' is g less a combination of rows m h of
    generators h kept before it, so (kept, g') = (kept, g), and a dropped
    g lies in (kept); by induction the kept generators generate J, and
    the Hilbert function is unchanged.  Random forms of one degree share
    one lead: on the first regbound bench ideal the degree-18 matrix, of
    rank 1,314, gets 1,242 pivots, not 969.  Over QQ, where reduction can
    swell coefficients, it still pays: hf_direct of that ideal over QQ
    took 1.8 s of CPU at D = 12 and 45 s at D = 18, against 5.0 s and
    76 s with the generators as given (2 vCPU Xeon).

    The rank is sparse_rank's, of rows built from the generators alone:
    the route stays independent of Groebner bases."""
    rows = _macaulay(J, D)[1]
    return tuple(num_monomials(J.ring.nvars, t)
                 - sparse_rank(*rows(t), J.ring.field) for t in range(D + 1))


def _macaulay(J, D):
    """(gens, rows) of hf_direct: gens the autoreduced generators of degree
    at most D, as (degree, exponents, coefficients, degrevlex lead) by
    ascending degree; rows(t) the degree-t rows of those in gens that the
    cut keeps, as the (shape, rows, cols, vals) of sparse_rank."""
    ring, n = J.ring, J.ring.nvars
    dtype = matrix_dtype(ring.char)
    count = np.array([[num_monomials(n - k, s - 1) for s in range(D + 1)]
                      for k in range(n)], np.int64)

    def column(exps):
        after = np.cumsum(exps[..., ::-1], -1)[..., ::-1] - exps
        return count[np.arange(n), after].sum(-1)

    gens = []

    def rows(t):
        # a degree below every generator's has no rows
        ri, ci, vals = ([np.zeros(0, d)] for d in (np.int64, np.int64, dtype))
        lms = np.array([g[3] for g in gens], np.int64).reshape(-1, n)
        R = 0
        for i, (e, E, C, _) in enumerate(gens):
            if e > t:
                break
            M = np.array(monomials_of_degree(n, t - e), np.int64)
            M = M[~(M[:, None] >= lms[:i]).all(2).any(1)]
            ri.append(np.repeat(np.arange(R, R + len(M)), len(C)))
            ci.append(column(M[:, None] + E).ravel())
            vals.append(np.tile(C, len(M)))
            R += len(M)
        return ((R, num_monomials(n, t)),
                *map(np.concatenate, (ri, ci, vals)))

    for g in sorted((g for g in J.generators if g.degree() <= D),
                    key=Polynomial.degree):
        e = g.degree()
        E = np.array([m for _, m in g.terms], np.int64)
        C = np.array([c for c, _ in g.terms], dtype)
        (R, N), *coo = rows(e)
        coo = map(np.concatenate, zip(coo, ([R] * len(C), column(E), C)))
        _, free, rest = pivot_split((R + 1, N), *coo, ring.field, [R])
        if len(rest):
            nz = np.flatnonzero(rest[0])
            if not nz.size:
                continue
            M = np.array(monomials_of_degree(n, e), np.int64)
            E, C = M[np.argsort(column(M))][free[nz]], rest[0, nz]
        gens.append((e, E, C, E[column(E).argmax()]))
    return gens, rows


def lex_ideal_of_presentation(J, cutoff=None, inJ=None):
    """Lex-segment ideal Lex(J) of a homogeneous ideal: one scan of the
    Hilbert series of in(J) through its scan bound, or through cutoff if
    that is lower.

    Returns (MonomialIdeal, complete), complete as in lex_segment_ideal.
    in(J) may be taken in any term order, as every one gives the Hilbert
    function of J; without inJ it comes from the reduced degrevlex basis,
    and a caller that has one already passes it."""
    if inJ is None:
        inJ = (MonomialIdeal(J.ring, ()) if J.is_zero()
               else initial_ideal(groebner_basis(J, DegRevLexOrder())))
    h = hilbert_function(inJ)
    D = h.scan_bound() if cutoff is None else min(h.scan_bound(), cutoff)
    return lex_segment_ideal(h, J.ring, D)


# ---------------------------------------------------------------------------
# Lemma-level checks

def _ms_since(t0):
    """Milliseconds since perf_counter() read t0, to the microsecond."""
    return round(1000 * (time.perf_counter() - t0), 3)


def _trials(check, trials, seed, char, run):
    """The merged reports of run(rng, trial, char) over the trials, each
    with its own stream rng = Random(repr((check, seed, trial)))."""
    char = DEFAULT_PRIME if char is None else char
    report = VerificationReport(check, char, seed=seed)
    for trial in range(trials):
        rng = random.Random(repr((check, seed, trial)))
        report.merge(run(rng, trial, char))
    return report


def _flat_failures(T, Tp, d):
    """(failures, values) of the flattening relations between the Betti
    tables T of I and Tp of its image I' under x_i -> x_i^d:
    beta_{i,jd}(I') = beta_{i,j}(I), vanishing off multiples of d,
    t_i(I') = d t_i(I), the regularity gap inequality
    reg(I')/d >= reg(I) + p(d-1)/d, and reg(I) <= reg(I')/d.  A bad cell
    is reported once, in I' coordinates."""
    failures = []
    for i, j in sorted({(i, j * d) for i, j in T.entries} | set(Tp.entries)):
        got = Tp.beta(i, j)
        if j % d:
            if got:
                failures.append({"cell": [i, j], "got": got,
                                 "kind": "off-multiple"})
        elif got != T.beta(i, j // d):
            failures.append({"cell": [i, j], "got": got,
                             "expected": T.beta(i, j // d),
                             "kind": "scaled-cell"})

    ts, p = t_invariants(T)
    tsp, _ = t_invariants(Tp)
    if tuple(d * t for t in ts) != tsp:
        failures.append({"kind": "t-sequence", "t": list(ts),
                         "t_prime": list(tsp)})

    reg_I = T.regularity()
    reg_Ip = Tp.regularity()
    lhs = Fraction(reg_Ip, d)
    rhs = reg_I + Fraction(p * (d - 1), d)
    if lhs < rhs:
        failures.append({"kind": "eq1", "lhs": str(lhs), "rhs": str(rhs)})
    if reg_I > lhs:
        failures.append({"kind": "reg-bound", "reg": reg_I,
                         "reg_prime_over_d": str(lhs)})

    values = {
        "reg": reg_I,
        "reg_prime": reg_Ip,
        "p": p,
        "t_sequence": list(ts),
        "eq1_lhs": str(lhs),
        "eq1_rhs": str(rhs),
        "eq1_gap": str(lhs - rhs),
        "d": d,
    }
    return failures, values


def verify_regflat(I, d):
    """The flattening inequality reg(I) <= reg(I')/d for I' the image of a
    monomial ideal or a homogeneous ideal I under x_i -> x_i^d on all
    variables, with the Betti relations of _flat_failures."""
    if isinstance(I, IdealPresentation) and not I.homogeneous:
        raise ValueError("regflat requires a homogeneous ideal")
    if I.is_zero():
        raise ValueError("regularity of the zero ideal is undefined")
    ring = I.ring
    if isinstance(I, MonomialIdeal):
        Iprime = MonomialIdeal.from_monomials(
            ring, [tuple(d * e for e in g) for g in I.gens])
        desc = f"monomial:{I.gens}"
    else:
        Iprime = image_ideal(PowerMap.uniform(ring.nvars, d), I)
        desc = f"ideal:{[str(g) for g in I.generators]}"
    report = VerificationReport("regflat", ring.char)
    failures, values = _flat_failures(betti_table(I), betti_table(Iprime), d)
    report.add(digest_of(f"flat:{desc}:d={d}"), values, failures)
    return report


def _identity_failures(alpha_I, JprimeR, order):
    """Failures of the power-substitution identity alpha(I) R = J' cap R
    (poweli (ii)), both sides given as ideals of R."""
    if ideal_equal(alpha_I, JprimeR, order):
        return []
    return [{"kind": "Pprime-mismatch",
             "alpha_I": [str(g) for g in alpha_I.generators],
             "Jprime_cap_R": [str(g) for g in JprimeR.generators]}]


def verify_poweli(J, phi, keep):
    """Check, for phi(x_i) = x_i^{d_i} on all variables and lex orders:
    (i) phi(G) of a lex Groebner basis G of J satisfies the Buchberger
        criterion (hence is a Groebner basis of phi(J)S), and
    (ii) alpha(J cap R) R  =  phi(J) S cap R  as ideals of R, R the ring
        of the first keep variables and alpha the restriction of phi."""
    order = LexOrder()
    ring = J.ring
    report = VerificationReport("poweli", ring.char)
    dig = digest_of(f"poweli:{[str(g) for g in J.generators]}:{phi.exponents}:{keep}")

    G = groebner_basis(J, order)
    phiG = [apply_power_map(phi, g) for g in G.generators]
    ok_i, witness_pair = passes_buchberger_criterion(phiG, order)
    failures = [] if ok_i else [{"kind": "buchberger-criterion",
                                 "failing_pair": list(witness_pair)}]

    # alpha(I) R with I = J cap R, alpha = phi restricted to R, against
    # J' cap R from an independent Buchberger run on phi(J)
    alpha_I = image_ideal(PowerMap(phi.exponents[:keep]), eliminate(G, keep))
    JprimeR = eliminate(groebner_basis(image_ideal(phi, J), order), keep)
    identity = _identity_failures(alpha_I, JprimeR, order)

    values = {
        "buchberger_criterion_on_phi_G": ok_i,
        "alpha_I_equals_Jprime_cap_R": not identity,
        "basis_size": len(G),
    }
    report.add(dig, values, failures + identity)
    return report


def verify_poweli_trials(trials, seed, char=None):
    """The power-substitution check over seeded random ideals in 3
    variables with generators of degree at most 3, and power maps with
    exponents at most 3.  Each trial's time is kept as trial{k}."""

    def run(rng, trial, char):
        t0 = time.perf_counter()
        J = random_ideal(3, seed * 1000 + trial, ngens=rng.randint(2, 3),
                         max_degree=3, char=char)
        phi = PowerMap(tuple(rng.randint(1, 3) for _ in range(3)))
        report = verify_poweli(J, phi, keep=rng.randint(1, 2))
        report.timings_ms[f"trial{trial}"] = _ms_since(t0)
        return report

    return _trials("poweli", trials, seed, char, run)


def verify_regbound(J, keep, cutoff=None):
    """The chain reg(I) <= reg(in I) <= reg(in J) <= reg(Lex J) for
    I = J cap R, all initial ideals taken for lex, with reg(J) <= reg(in J)
    and the degreewise Hilbert-function equality HF(J) = HF(in J)."""
    if not J.homogeneous:
        raise ValueError("regbound requires a homogeneous ideal")
    if J.is_zero():
        raise ValueError("regularity of the zero ideal is undefined")
    ring = J.ring
    report = VerificationReport("regbound", ring.char)
    dig = digest_of(f"regbound:{[str(g) for g in J.generators]}:{keep}")
    t0 = time.perf_counter()
    order = LexOrder()
    G = groebner_basis(J, order)
    inJ = initial_ideal(G)
    I = eliminate(G, keep)
    inI = initial_ideal(I)

    reg_inJ = regularity(inJ)
    # reg(J) and reg(I) are order-independent; regularity runs its own
    # degrevlex bases from the generators of J and of the lex basis I:
    # degrevlex keeps the Koszul cell support small
    reg_J = regularity(J)
    if I.is_zero():
        reg_I = None
        reg_inI = None
    else:
        reg_I = regularity(I)
        reg_inI = regularity(inI)

    L, complete = lex_ideal_of_presentation(J, cutoff, inJ)
    if not complete:
        report.add_inconclusive(dig, f"Lex(J) not stabilised by degree "
                                     f"{cutoff}")
        report.timings_ms["regbound"] = _ms_since(t0)
        return report
    reg_lex = stable_regularity(L)

    # independent Hilbert function route: direct linear algebra on the
    # generators, past every generator degree of in(J)
    D = inJ.max_gen_degree() + 2
    hJ = hf_direct(J, D)
    h_inJ = hilbert_function(inJ).dims(D)
    h_lex = hilbert_function(L).dims(D)
    hf_equal = hJ == h_inJ
    hf_lex_equal = h_lex == hJ

    values = {
        "reg_I": reg_I,
        "reg_inI": reg_inI,
        "reg_J": reg_J,
        "reg_inJ": reg_inJ,
        "reg_lex": reg_lex,
        "hf_equal": hf_equal,
        "I_gens": [str(g) for g in I.generators],
    }
    # Betti numbers only grow under Groebner degeneration; a link with
    # I = 0 has no regularity on one side and is skipped
    failures = []
    for a, b in (("reg_J", "reg_inJ"), ("reg_I", "reg_inI"),
                 ("reg_inI", "reg_inJ"), ("reg_inJ", "reg_lex")):
        x, y = values[a], values[b]
        if None not in (x, y) and not x <= y:
            failures.append({"kind": f"{a}<={b}", a: x, b: y})
    if not hf_equal:
        failures.append({"kind": "hilbert-mismatch",
                         "hf_J": list(hJ), "hf_inJ": list(h_inJ)})
    if not hf_lex_equal:
        failures.append({"kind": "lex-hilbert-mismatch",
                         "hf_J": list(hJ),
                         "hf_lex": list(h_lex)})
    report.add(dig, values, failures)
    report.timings_ms["regbound"] = _ms_since(t0)
    return report


def verify_regbound_trials(trials, seed, char=None):
    """Regbound chain over seeded random homogeneous ideals in 3-4
    variables."""

    def run(rng, trial, char):
        nvars = rng.choice([3, 4])
        J = random_ideal(nvars, seed * 1000 + trial,
                         ngens=rng.randint(2, nvars), max_degree=3,
                         char=char, homogeneous=True)
        return verify_regbound(J, keep=rng.randint(1, nvars - 1))

    return _trials("regbound", trials, seed, char, run)


# ---------------------------------------------------------------------------
# the main theorem

def verify_main(param, cutoff=None):
    """The full pipeline for one parametrisation: P = ker(phi) via
    elimination, P' = alpha(P)R = J' cap R, the constant G_{n,d,m} as the
    regularity of the lex ideal of the complete-intersection series
    (counted by compute_G, which builds no lex ideal), and the chain
        reg(P) <= reg(P')/d <= G/d <= d^(n 2^(m-1) - 1).
    The first link is the regflat check on the Betti tables of P and P',
    the identity alpha(P)R = J' cap R the poweli (ii) check.

    G is certified for the actual J' only when the independent route
    agrees: the Hilbert series of the initial ideal of J' equals the
    series in every degree, so Lex(J') is the lex ideal of the series."""
    n, m, d = param.n, param.m, param.d
    report = VerificationReport("main", param.ring.char)
    dig = digest_of(f"main:{n}:{m}:{d}:"
                    f"{[str(g) for g in param.f]}")
    t0 = time.perf_counter()
    order = BlockOrder(n)

    Gp = groebner_basis(graph_ideal(param, d, order), order)
    h_actual = hilbert_function(initial_ideal(Gp))
    h_series = ci_hilbert_function(n, d, m)
    hf_ci = h_actual == h_series

    complete = cutoff is None or cutoff >= h_series.scan_bound()
    G_series = compute_G(n, d, m) if complete else None
    G_actual = G_series if hf_ci else None

    failures = []
    inconclusive = None
    if not hf_ci:
        failures.append({"kind": "hilbert-vs-ci-series",
                         "hf_actual": list(h_actual.dims(11)),
                         "hf_series": list(h_series.dims(11))})
    elif not complete:
        inconclusive = f"Lex(J') not stabilised by degree {cutoff}"

    # P = J cap R via elimination from the graph ideal; for the block
    # order both eliminations are reduced degrevlex bases over R
    P = kernel_of_map(param, order=order)
    Pprime = eliminate(Gp, n)

    values = {
        "n": n, "m": m, "d": d,
        "G_series": G_series, "G_actual": G_actual,
        "hf_matches_ci_series": hf_ci,
        "P_gens": [str(g) for g in P.generators],
        "bound": d ** (n * 2 ** (m - 1) - 1),
    }

    failures += _identity_failures(image_ideal(PowerMap.uniform(n, d), P),
                                   Pprime, P.order)
    if P.is_zero():
        values["reg_P"] = None
    elif not P.homogeneous:
        failures.append({"kind": "P-not-homogeneous"})
    else:
        # the regflat check on P, with P' = J' cap R standing for alpha(P)R
        flat, v = _flat_failures(betti_table(P), betti_table(Pprime), d)
        failures += flat
        values["reg_P"], values["reg_Pprime"] = v["reg"], v["reg_prime"]
        lhs = Fraction(v["reg_prime"], d)
        if G_actual is not None and not lhs <= Fraction(G_actual, d):
            failures.append({"kind": "reg_Pprime/d<=G/d",
                             "lhs": str(lhs), "G": G_actual})
    if G_actual is not None and not G_actual <= g_cap(n, d, m):
        failures.append({"kind": "G<=d^(n*2^(m-1))", "G": G_actual})

    if inconclusive and not failures:
        report.add_inconclusive(dig, inconclusive)
    else:
        report.add(dig, values, failures, {"reg_P": values["bound"]})
    report.timings_ms["main"] = _ms_since(t0)
    return report


def verify_main_trials(n, m, d, trials, seed, char=None, cutoff=None):
    """Main-theorem chain over seeded random parametrisations; each is
    drawn from its own seed, so the trial stream is not read."""

    def run(rng, trial, char):
        param = random_parametrisation(n, m, d, seed * 1000 + trial,
                                       char=char)
        return verify_main(param, cutoff=cutoff)

    return _trials("main", trials, seed, char, run)
