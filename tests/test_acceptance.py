"""Acceptance criteria for the regularity-certification pipeline.

Each test checks one criterion at zero tolerance (exact equality of
integers, rationals, and tables) and records a single pass/fail line
printed in the terminal summary.  Heavy artifacts (the regbound trial
set, the lex-segment table, the Betti comparisons) are shared between
criteria through module-scoped fixtures so nothing is computed twice.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from conftest import record_criterion

from regcert.instances import random_ideal, random_parametrisation
from regcert.monomials import MonomialIdeal, ci_lex_ideal, stable_regularity
from regcert.parser import parse_ideal_file
from regcert.resolution import betti_table, t_invariants
from regcert.rings import make_ring
from regcert.verify import (lex_ideal_of_presentation, verify_main,
                            verify_main_trials, verify_poweli_trials,
                            verify_regbound, verify_regflat)

EX1 = "ring x1 x2; char {c}; gens: x1^2, x2^2"
EX2 = "ring x1 x2 x3; char {c}; gens: x1*x2 + x2*x3, x1*x3, x3^2"

# G_{n,d,m} keyed by (n, d, m); every value recomputed below through both
# the series route and the actual-parametrisation route.
G_TABLE = {
    (1, 2, 1): 2, (1, 3, 1): 3, (1, 4, 1): 4,
    (1, 2, 2): 2, (1, 3, 2): 3,
    (2, 2, 0): 3, (2, 2, 1): 4, (2, 2, 2): 6,
    (2, 3, 0): 5, (2, 3, 1): 9, (2, 3, 2): 27,
    (3, 2, 0): 4, (3, 2, 1): 8, (3, 2, 2): 24,
    (3, 3, 0): 7, (3, 3, 1): 27, (3, 3, 2): 297,
}


def ideal(text):
    return parse_ideal_file(text)[1]


def _check(num, ok, detail):
    record_criterion(num, ok, detail)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared computations

def criteria_1_to_4_values(char):
    """Exact values behind criteria 1-4, computed over the given field so
    criterion 11 can compare characteristics."""
    out = {}

    rep = verify_regbound(ideal(EX1.format(c=char)), 1)
    v = rep.instances[0].values
    out["ex1"] = {"status": rep.status, "reg_J": v["reg_J"],
                  "reg_I": v["reg_I"], "reg_lex": v["reg_lex"],
                  "hf_equal": v["hf_equal"]}

    rep = verify_regbound(ideal(EX2.format(c=char)), 2)
    v = rep.instances[0].values
    out["ex2"] = {"status": rep.status, "reg_J": v["reg_J"],
                  "reg_I": v["reg_I"], "I_gens": v["I_gens"],
                  "hf_equal": v["hf_equal"]}

    ci = {}
    for c, s, d in product((2, 3), repeat=3):
        ring = make_ring([f"x{i + 1}" for i in range(c)], char=char)
        M = MonomialIdeal.from_monomials(
            ring, [tuple(s if i == k else 0 for i in range(c))
                   for k in range(c)])
        rep = verify_regflat(M, d)
        v = rep.instances[0].values
        ci[(c, s, d)] = {"status": rep.status, "reg": v["reg"],
                         "reg_prime": v["reg_prime"], "p": v["p"],
                         "eq1_gap": v["eq1_gap"]}
    out["ci"] = ci

    ring5 = make_ring([f"x{i + 1}" for i in range(5)], char=char)
    e = [tuple(1 if i == k else 0 for i in range(5)) for k in range(5)]
    gens = [tuple(a + b for a, b in zip(e[0], e[k])) for k in range(5)]
    gens += [tuple(2 * x for x in e[1]), tuple(2 * x for x in e[2])]
    M = MonomialIdeal.from_monomials(ring5, gens)
    T = betti_table(M)
    ts, p = t_invariants(T)
    rem = {"t_sequence": list(ts), "reg": T.regularity(), "p": p}
    for d in (2, 3):
        rep = verify_regflat(M, d)
        v = rep.instances[0].values
        rem[f"d{d}"] = {"status": rep.status, "reg_prime": v["reg_prime"],
                        "eq1_gap": v["eq1_gap"]}
    out["remark"] = rem
    return out


@pytest.fixture(scope="module")
def values_gf():
    return criteria_1_to_4_values(32003)


@pytest.fixture(scope="module")
def values_qq():
    return criteria_1_to_4_values(0)


@pytest.fixture(scope="module")
def regbound_data():
    """Paper examples and 15 seeded trials, plus the lex-segment ideal of
    each trial input (for criterion 10)."""
    reports = [verify_regbound(ideal(EX1.format(c=32003)), 1),
               verify_regbound(ideal(EX2.format(c=32003)), 2)]
    trial_report = verify_regbound_trials_with_seed()
    lex_ideals = []
    seed = 3
    for trial in range(15):
        rng = random.Random(("regbound", seed, trial).__repr__())
        nvars = rng.choice([3, 4])
        J = random_ideal(nvars, seed * 1000 + trial,
                         ngens=rng.randint(2, nvars), max_degree=3,
                         homogeneous=True)
        rng.randint(1, nvars - 1)
        L, complete = lex_ideal_of_presentation(J)
        assert complete and not L.is_zero()
        lex_ideals.append(L)
    return reports, trial_report, lex_ideals


def verify_regbound_trials_with_seed():
    from regcert.verify import verify_regbound_trials
    return verify_regbound_trials(15, seed=3)


@pytest.fixture(scope="module")
def bhp_data():
    """Betti tables of 10 seeded homogeneous ideals next to the tables of
    their lex-segment ideals."""
    rows = []
    for seed in range(10):
        J = random_ideal(3, seed=seed, homogeneous=True)
        TJ = betti_table(J)
        L, complete = lex_ideal_of_presentation(J)
        assert complete and not L.is_zero()
        TL = betti_table(L)
        rows.append((seed, TJ, TL, L))
    return rows


@pytest.fixture(scope="module")
def gtable_data():
    """Every G_{n,d,m} in the table through the series route, with the
    lex-segment ideal kept for criterion 10."""
    lex_ideals = {key: ci_lex_ideal(*key) for key in G_TABLE}
    computed = {key: stable_regularity(L) for key, L in lex_ideals.items()}
    return computed, lex_ideals


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_elimination_example_one(values_gf):
    v = values_gf["ex1"]
    ok = (v["status"] == "pass" and v["reg_J"] == 3 and v["reg_I"] == 2
          and v["hf_equal"])
    _check(1, ok, f"(x1^2, x2^2): reg(J)={v['reg_J']}, "
                  f"reg(J cap K[x1])={v['reg_I']}")


def test_criterion_2_elimination_example_two(values_gf):
    v = values_gf["ex2"]
    ok = (v["status"] == "pass" and v["reg_J"] == 2 and v["reg_I"] == 3
          and v["I_gens"] == ["x1^2*x2"] and v["hf_equal"])
    _check(2, ok, f"3-variable example: reg(J)={v['reg_J']}, "
                  f"I=({', '.join(v['I_gens'])}), reg(I)={v['reg_I']}")


def test_criterion_3_complete_intersection_flattening(values_gf):
    bad = []
    for (c, s, d), v in values_gf["ci"].items():
        gap = Fraction(v["reg_prime"], d) - v["reg"]
        if not (v["status"] == "pass"
                and v["reg"] == s * c - (c - 1)
                and v["reg_prime"] == d * s * c - (c - 1)
                and v["p"] == c - 1
                and gap == Fraction((c - 1) * (d - 1), d)
                and v["eq1_gap"] == "0"):
            bad.append((c, s, d))
    _check(3, not bad,
           f"8 monomial complete intersections (c,s,d in {{2,3}}^3): "
           f"reg=sc-(c-1), reg'=dsc-(c-1), gap=(c-1)(d-1)/d"
           + (f"; failed at {bad}" if bad else ""))


def test_criterion_4_remark_ideal(values_gf):
    v = values_gf["remark"]
    ok = (v["t_sequence"] == [2, 4, 5, 5, 6] and v["reg"] == 3
          and v["p"] == 2
          and v["d2"]["status"] == "pass" and v["d2"]["reg_prime"] == 8
          and v["d2"]["eq1_gap"] == "0"
          and v["d3"]["status"] == "pass" and v["d3"]["reg_prime"] == 14
          and v["d3"]["eq1_gap"] == "1/3")
    _check(4, ok, f"remark ideal: t={tuple(v['t_sequence'])}, reg=3, p=2, "
                  f"reg(I')=6d-4; gap 0 at d=2, 1/3 at d=3")


def test_criterion_5_power_map_elimination_trials():
    rep = verify_poweli_trials(20, seed=1)
    ok = rep.status == "pass"
    _check(5, ok, f"20 seeded power-map elimination trials: {rep.status}, "
                  f"{len(rep.instances)} instances, 0 witnesses")


def test_criterion_6_regularity_chain(regbound_data):
    reports, trial_report, _ = regbound_data
    statuses = [r.status for r in reports] + [trial_report.status]
    hf_ok = all(inst.values["hf_equal"]
                for r in reports + [trial_report] for inst in r.instances)
    ok = statuses == ["pass"] * 3 and hf_ok
    _check(6, ok, f"chain reg(I)<=reg(in I)<=reg(in J)<=reg(Lex J) on 2 "
                  f"examples + 15 trials: {statuses}, HF(J)=HF(in J) "
                  f"everywhere: {hf_ok}")


def test_criterion_7_betti_dominated_by_lex(bhp_data):
    bad = []
    for seed, TJ, TL, _ in bhp_data:
        for (i, j), v in TJ.entries.items():
            if v > TL.beta(i, j):
                bad.append((seed, i, j))
    _check(7, not bad,
           "beta_{i,j}(J) <= beta_{i,j}(Lex J) cellwise on 10 seeded "
           "ideals" + (f"; violated at {bad}" if bad else ""))


def test_criterion_8_main_bound_trials():
    shapes = [(2, 2, 2), (3, 2, 2), (2, 2, 3), (3, 1, 3)]
    statuses = {}
    for n, m, d in shapes:
        rep = verify_main_trials(n, m, d, trials=5, seed=7)
        statuses[(n, m, d)] = rep.status
    ok = all(s == "pass" for s in statuses.values())
    _check(8, ok, f"main chain on 4 shapes x 5 seeds: {statuses}")


def test_criterion_9_g_table_both_routes(gtable_data):
    computed, _ = gtable_data
    bad = []
    if [computed[(1, d, 1)] for d in (2, 3, 4)] != [2, 3, 4]:
        bad.append("G(1,d,1)")
    if computed[(1, 2, 2)] != 2:
        bad.append("G(1,2,2)")
    for key, G in computed.items():
        n, d, m = key
        if G != G_TABLE[key]:
            bad.append(("table", key))
        if m >= 1 and G > d ** (n * 2 ** (m - 1)):
            bad.append(("cap", key))
        if m >= 1:
            rep = verify_main(random_parametrisation(n, m, d, seed=42))
            v = rep.instances[0].values
            if not (rep.status == "pass" and v["G_series"] == v["G_actual"]
                    == G):
                bad.append(("routes", key))
    _check(9, not bad,
           f"G table over n<=3, d<=4, m<=2: series route == lex route on "
           f"actual parametrisations, caps hold for m>=1"
           + (f"; failed {bad}" if bad else ""))


def test_criterion_10_stable_regularity_is_koszul(regbound_data, bhp_data,
                                                  gtable_data):
    seen = {}
    for L in regbound_data[2]:
        seen[(L.nvars, L.gens)] = L
    for _, _, _, L in bhp_data:
        seen[(L.nvars, L.gens)] = L
    for L in gtable_data[1].values():
        seen[(L.nvars, L.gens)] = L
    bad = []
    for key, L in seen.items():
        if stable_regularity(L) != betti_table(L).regularity():
            bad.append(key[0:1] + (len(key[1]),))
    _check(10, not bad,
           f"max generator degree == Koszul regularity on {len(seen)} "
           f"distinct lex ideals (largest: {max(len(k[1]) for k in seen)} "
           f"generators)" + (f"; failed {bad}" if bad else ""))


def test_criterion_11_characteristic_independence(values_gf, values_qq):
    ok = values_gf == values_qq
    _check(11, ok, "criteria 1-4 values identical over GF(32003) and QQ")
