"""End-to-end verification pipelines: the flattening inequality, the
initial/lex regularity chain, and the main regularity bound for
polynomially parametrised varieties.

Every check recomputes each side of an (in)equality through an
independent route before comparing; no check derives both sides from the
same intermediate object.
"""

import time
from fractions import Fraction

import numpy as np

from .groebner import (IdealPresentation, eliminate, graph_ideal,
                       groebner_basis, initial_ideal, kernel_of_map,
                       verify_poweli)
from .instances import random_ideal, random_parametrisation
from .monomials import (ci_hilbert_function, compute_G, hilbert_function,
                        lex_segment_ideal, monomials_of_degree,
                        num_monomials, stable_regularity)
from .reports import VerificationReport, digest_of
from .resolution import check_flat_betti, matrix_rank, regularity
from .rings import BlockOrder, LexOrder, PowerMap, apply_power_map, mono_mul
from .scalars import PrimeField


# ---------------------------------------------------------------------------
# Hilbert function of a homogeneous ideal by direct linear algebra
# (independent of any Groebner computation)

def hf_direct(J, D):
    """Quotient dimensions of R/J in degrees 0..D, as a tuple, computed as
    corank of the span of (monomial multiples of) the generators.

    Each degree's Macaulay matrix is one array filled from (row, column,
    coefficient) lists: int64 over GF(p) for p < 2^63, Python objects
    otherwise.  matrix_rank gets it as a list of rows."""
    ring = J.ring
    K = ring.field
    dtype = np.int64 if isinstance(K, PrimeField) and K.p < 2 ** 63 else object
    dims = []
    for t in range(D + 1):
        basis = monomials_of_degree(ring.nvars, t)
        idx = {m: i for i, m in enumerate(basis)}
        ri, ci, vals = [], [], []
        nrows = 0
        for g in J.generators:
            e = g.degree()
            if e > t:
                continue
            for m in monomials_of_degree(ring.nvars, t - e):
                for c, gm in g.terms:
                    ri.append(nrows)
                    ci.append(idx[mono_mul(m, gm)])
                    vals.append(c)
                nrows += 1
        rank = 0
        if nrows:
            A = np.zeros((nrows, len(basis)), dtype=dtype)
            A[ri, ci] = vals
            rank = matrix_rank(list(A), K)
        dims.append(num_monomials(ring.nvars, t) - rank)
    return tuple(dims)


def lex_ideal_of_presentation(J, cutoff=None, inJ=None):
    """Lex-segment ideal Lex(J) of a homogeneous ideal: one scan of the
    Hilbert series of in(J) through its scan bound, or through cutoff if
    that is lower.

    Returns (MonomialIdeal, complete), complete as in lex_segment_ideal.
    Pass inJ to reuse an initial ideal of J the caller already has."""
    if inJ is None:
        inJ = initial_ideal(groebner_basis(J, LexOrder()))
    h = hilbert_function(inJ)
    D = h.scan_bound() if cutoff is None else min(h.scan_bound(), cutoff)
    return lex_segment_ideal(h, J.ring, D)


# ---------------------------------------------------------------------------
# Lemma-level wrappers

def verify_regflat(I, d):
    """The flattening inequality reg(I) <= reg(I')/d for I' the image of I
    under x_i -> x_i^d, together with the cellwise Betti identities."""
    if isinstance(I, IdealPresentation) and not I.homogeneous:
        raise ValueError("regflat requires a homogeneous ideal")
    report = check_flat_betti(I, d)
    report.check_name = "regflat"
    return report


def verify_poweli_trials(trials, seed, nvars=3, max_degree=3, max_power=3,
                         char=None):
    """Lemma-3 check over seeded random ideals and power maps."""
    import random
    from .scalars import DEFAULT_PRIME
    char = DEFAULT_PRIME if char is None else char
    report = VerificationReport("poweli", char, seed=seed)
    for trial in range(trials):
        t0 = time.perf_counter()
        rng = random.Random(("poweli", seed, trial).__repr__())
        J = random_ideal(nvars, seed * 1000 + trial, ngens=rng.randint(2, 3),
                         max_degree=max_degree, char=char)
        dvec = PowerMap(tuple(rng.randint(1, max_power)
                              for _ in range(nvars)))
        keep = rng.randint(1, nvars - 1)
        report.merge(verify_poweli(J, dvec, keep))
        report.timings_ms[f"trial{trial}"] = round(
            1000 * (time.perf_counter() - t0), 3)
    return report


def verify_regbound(J, keep, cutoff=None):
    """The chain reg(I) <= reg(in I) <= reg(in J) <= reg(Lex J) for
    I = J cap R, all initial ideals taken for lex, plus the degreewise
    Hilbert-function equality HF(J) = HF(in J)."""
    if not J.homogeneous:
        raise ValueError("regbound requires a homogeneous ideal")
    ring = J.ring
    report = VerificationReport("regbound", ring.char)
    dig = digest_of(f"regbound:{[str(g) for g in J.generators]}:{keep}")
    t0 = time.perf_counter()
    order = LexOrder()
    G = groebner_basis(J, order)
    inJ = initial_ideal(G)
    GI = eliminate(G, keep)
    I = GI.as_presentation()
    inI = initial_ideal(GI)

    reg_inJ = regularity(inJ)
    # reg(J) and reg(I) are order-independent.  They are computed from the
    # presentations, so regularity runs its own degrevlex bases rather than
    # reusing the lex bases G and GI: degrevlex keeps the Koszul cell
    # support small
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

    failures = []
    if reg_I is not None:
        if not reg_I <= reg_inI:
            failures.append({"kind": "reg_I<=reg_inI", "reg_I": reg_I,
                             "reg_inI": reg_inI})
        if not reg_inI <= reg_inJ:
            failures.append({"kind": "reg_inI<=reg_inJ", "reg_inI": reg_inI,
                             "reg_inJ": reg_inJ})
    if not reg_inJ <= reg_lex:
        failures.append({"kind": "reg_inJ<=reg_lex", "reg_inJ": reg_inJ,
                         "reg_lex": reg_lex})
    if not hf_equal:
        failures.append({"kind": "hilbert-mismatch",
                         "hf_J": list(hJ), "hf_inJ": list(h_inJ)})
    if not hf_lex_equal:
        failures.append({"kind": "lex-hilbert-mismatch",
                         "hf_J": list(hJ),
                         "hf_lex": list(h_lex)})

    values = {
        "reg_I": reg_I,
        "reg_inI": reg_inI,
        "reg_J": reg_J,
        "reg_inJ": reg_inJ,
        "reg_lex": reg_lex,
        "hf_equal": hf_equal,
        "I_gens": [str(g) for g in I.generators],
    }
    if failures:
        report.add_fail(dig, values, {"failures": failures})
    else:
        report.add_pass(dig, values)
    report.timings_ms["regbound"] = round(1000 * (time.perf_counter() - t0),
                                          3)
    return report


def verify_regbound_trials(trials, seed, char=None):
    """Regbound chain over seeded random homogeneous ideals in 3-4
    variables."""
    import random
    from .scalars import DEFAULT_PRIME
    char = DEFAULT_PRIME if char is None else char
    report = VerificationReport("regbound", char, seed=seed)
    for trial in range(trials):
        rng = random.Random(("regbound", seed, trial).__repr__())
        nvars = rng.choice([3, 4])
        J = random_ideal(nvars, seed * 1000 + trial,
                         ngens=rng.randint(2, nvars), max_degree=3,
                         char=char, homogeneous=True)
        keep = rng.randint(1, nvars - 1)
        report.merge(verify_regbound(J, keep))
    report.seed = seed
    return report


# ---------------------------------------------------------------------------
# the main theorem

def verify_main(param, cutoff=None):
    """The full pipeline for one parametrisation: P = ker(phi) via
    elimination, P' = alpha(P)R = J' cap R, the constant G_{n,d,m} as the
    regularity of the lex ideal of the complete-intersection series, and
    the chain
        reg(P) <= reg(P')/d <= G/d <= d^(n 2^(m-1) - 1).

    G is certified for the actual J' only when the independent route
    agrees: the Hilbert series of the initial ideal of J' equals the
    series in every degree, so Lex(J') is the lex ideal of the series."""
    n, m, d = param.n, param.m, param.d
    report = VerificationReport("main", param.ring.char)
    dig = digest_of(f"main:{n}:{m}:{d}:"
                    f"{[str(g) for g in param.f]}")
    t0 = time.perf_counter()
    order = BlockOrder(n)

    Gp = groebner_basis(graph_ideal(param.f, d, order), order)
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
    P = kernel_of_map(param.f, order=order)
    Pprime_from_Jprime = eliminate(Gp, n)

    values = {
        "n": n, "m": m, "d": d,
        "G_series": G_series, "G_actual": G_actual,
        "hf_matches_ci_series": hf_ci,
        "P_gens": [str(g) for g in P.elements],
        "bound": d ** (n * 2 ** (m - 1) - 1),
    }

    if P.is_zero():
        if not Pprime_from_Jprime.is_zero():
            failures.append({
                "kind": "Pprime-mismatch", "alpha_P": [],
                "Jprime_cap_R": [str(g)
                                 for g in Pprime_from_Jprime.elements]})
        values["reg_P"] = None
    else:
        if not P.homogeneous:
            failures.append({"kind": "P-not-homogeneous"})
        else:
            alpha = PowerMap.uniform(n, d)
            alpha_P = tuple(apply_power_map(alpha, g) for g in P.elements)
            Pprime = groebner_basis(IdealPresentation(P.ring, alpha_P),
                                    P.order)
            if Pprime.elements != Pprime_from_Jprime.elements:
                failures.append({
                    "kind": "Pprime-mismatch",
                    "alpha_P": [str(g) for g in alpha_P],
                    "Jprime_cap_R": [str(g)
                                     for g in Pprime_from_Jprime.elements]})
            reg_P = regularity(P)
            reg_Pp = regularity(Pprime)
            values["reg_P"] = reg_P
            values["reg_Pprime"] = reg_Pp
            lhs = Fraction(reg_Pp, d)
            if not reg_P <= lhs:
                failures.append({"kind": "reg_P<=reg_Pprime/d",
                                 "reg_P": reg_P, "rhs": str(lhs)})
            if G_actual is not None:
                if not lhs <= Fraction(G_actual, d):
                    failures.append({"kind": "reg_Pprime/d<=G/d",
                                     "lhs": str(lhs), "G": G_actual})
    if G_actual is not None and not G_actual <= d ** (n * 2 ** (m - 1)):
        failures.append({"kind": "G<=d^(n*2^(m-1))", "G": G_actual})

    bound = {"reg_P": values["bound"]}
    if failures:
        report.add_fail(dig, values, {"failures": failures}, bound)
    elif inconclusive:
        report.add_inconclusive(dig, inconclusive)
    else:
        report.add_pass(dig, values, bound)
    report.timings_ms["main"] = round(1000 * (time.perf_counter() - t0), 3)
    return report


def verify_main_trials(n, m, d, trials, seed, char=None, cutoff=None):
    """Main-theorem chain over seeded random parametrisations."""
    from .scalars import DEFAULT_PRIME
    char = DEFAULT_PRIME if char is None else char
    report = VerificationReport("main", char, seed=seed)
    for trial in range(trials):
        param = random_parametrisation(n, m, d, seed * 1000 + trial,
                                       char=char)
        report.merge(verify_main(param, cutoff=cutoff))
    return report
