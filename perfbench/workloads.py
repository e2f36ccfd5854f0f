"""The benchmark's workloads: seeded inputs, the regcert call each instance
makes, and the checks on its output.

Only the child process of one repetition imports this module, because it
imports regcert.  Every input is drawn from the workload seed; the shapes
are fixed, so the seed changes coefficients and not the amount of work.
"""

import hashlib
import json
import math
import random

import regcert
from regcert import (DegRevLexOrder, IdealPresentation, ci_lex_ideal,
                     groebner_basis, initial_ideal, make_ring,
                     stable_regularity)
from regcert.instances import random_form, random_parametrisation
from regcert.monomials import quotient_k_polynomial

# verify_main ladder, written (n, m, d) as on the command line
MAIN_SHAPES = [(2, 2, 2), (3, 2, 2), (4, 2, 2), (3, 2, 3), (3, 3, 2)]

# verify_regbound instances: (nvars, form degrees, kept variables).  The
# first has a lex basis of degree 16, so hf_direct builds Macaulay
# matrices up to 1,330 columns.
REGBOUND_SHAPES = [(4, (2, 2, 4), 3), (4, (2, 2, 3), 2), (3, (3, 3), 2),
                   (3, (2, 2, 3), 1)]

# betti_table inputs: general ideals (nvars, form degrees) and the lex
# ideals ci_lex_ideal gives for (n, d, m)
BETTI_GENERAL = [(4, (2, 2, 3, 3)), (4, (3, 3, 3, 3)), (4, (3, 3, 3, 3)),
                 (5, (2, 2, 2, 2, 2)), (5, (2, 2, 2, 2, 2)),
                 (5, (2, 2, 2, 3)), (5, (2, 2, 3, 3))]
BETTI_LEX = [(4, 2, 1), (3, 2, 2), (2, 3, 2), (2, 4, 2)]


class Instance:
    """One call into regcert, the output values it is compared on, and
    checks of those outputs through independent routes.  The call goes
    through the regcert package namespace, where the tracer can wrap it."""

    def __init__(self, ident, call, values, check):
        self.ident = ident
        self.call = call      # timed; returns the raw result
        self.values = values  # raw -> JSON values
        self.check = check    # raw -> list of problems


def _canonical(values):
    """JSON-normal form, so values compare equal to a reference file."""
    return json.loads(json.dumps(values, sort_keys=True, default=str))


def _digest(gens):
    text = repr([str(g) for g in gens])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _random_ideal(nvars, degrees, rng):
    ring = make_ring([f"x{i + 1}" for i in range(nvars)])
    order = DegRevLexOrder()
    forms = [random_form(ring, order, deg, rng) for deg in degrees]
    return IdealPresentation.from_polynomials(ring, forms)


def _report_values(report):
    values = report.to_dict()
    del values["timings_ms"]
    return _canonical(values)


def _status(report):
    return [] if report.status == "pass" else [f"status {report.status}"]


# ---------------------------------------------------------------------------
# main: the paper's headline pipeline

def _check_main(shape):
    n, m, d = shape

    def check(report):
        problems = _status(report)
        for inst in report.instances:
            v = inst.values
            G = v["G_actual"]
            if v["G_series"] != G:
                problems.append(f"G_series {v['G_series']} != G_actual {G}")
            if G is not None and not G <= d ** (n * 2 ** (m - 1)):
                problems.append(f"G {G} above the cap")
            if v.get("reg_P") is not None and G is not None:
                # reg(P) <= reg(P')/d <= G/d, in integers
                if not (d * v["reg_P"] <= v["reg_Pprime"] <= G):
                    problems.append("chain reg(P) <= reg(P')/d <= G/d broken")
        return problems
    return check


def _main(seed):
    out = []
    for n, m, d in MAIN_SHAPES:
        param = random_parametrisation(n, m, d, seed)
        out.append(Instance(f"main-{n}-{m}-{d}",
                            lambda p=param: regcert.verify_main(p),
                            _report_values, _check_main((n, m, d))))
    return out


# ---------------------------------------------------------------------------
# regbound: the initial/lex chain, rank-bound through hf_direct

def _check_regbound(report):
    problems = _status(report)
    for inst in report.instances:
        v = inst.values
        chain = [v["reg_I"], v["reg_inI"], v["reg_inJ"], v["reg_lex"]]
        if v["reg_I"] is None:
            chain = chain[2:]
        if chain != sorted(chain):
            problems.append(f"chain reg(I) <= reg(in I) <= reg(in J) <= "
                            f"reg(Lex J) broken: {chain}")
        if not v["reg_J"] <= v["reg_inJ"]:
            problems.append("reg(J) > reg(in J)")
        if not v["hf_equal"]:
            problems.append("HF(J) != HF(in J)")
    return problems


def _regbound(seed):
    out = []
    for k, (nvars, degrees, keep) in enumerate(REGBOUND_SHAPES):
        rng = random.Random(repr(("regbound", seed, k)))
        J = _random_ideal(nvars, degrees, rng)
        ident = f"regbound-{k}-{nvars}v-" + "-".join(map(str, degrees))
        out.append(Instance(ident, lambda J=J, keep=keep:
                            regcert.verify_regbound(J, keep),
                            _report_values, _check_regbound))
    return out


# ---------------------------------------------------------------------------
# betti: Betti tables of general ideals and of lex ideals

def _table_values(gens):
    def values(table):
        return _canonical({
            "input": _digest(gens),
            "regularity": table.regularity(),
            "table": sorted([i, j, v] for (i, j), v in table.entries.items()),
        })
    return values


def _trimmed(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _alternating_sum(table):
    """1 + sum (-1)^(i+1) beta_{i,j}(I) t^j, the Hilbert series numerator
    of R/I read off the ideal-side Betti table."""
    top = max((j for (_, j) in table.entries), default=0)
    poly = [0] * (top + 1)
    poly[0] = 1
    for (i, j), v in table.entries.items():
        poly[j] += (-1) ** (i + 1) * v
    return _trimmed(poly)


def _check_general(J):
    def check(table):
        # independent route: the K-polynomial of the initial ideal
        kpoly = quotient_k_polynomial(
            initial_ideal(groebner_basis(J, DegRevLexOrder())))
        if _alternating_sum(table) != _trimmed(kpoly):
            return ["Betti table disagrees with the Hilbert series"]
        return []
    return check


def _eliahou_kervaire(L):
    """Ideal-side Betti numbers of a strongly stable ideal from its
    generators: beta_{i,i+j} = sum over degree-j generators u of
    C(m(u) - 1, i), where m(u) counts the variables from the smallest one
    dividing u up to the largest variable."""
    entries = {}
    for u in L.gens:
        deg = sum(u)
        top = L.nvars - min(k for k, e in enumerate(u) if e)
        for i in range(top):
            cell = (i, i + deg)
            entries[cell] = entries.get(cell, 0) + math.comb(top - 1, i)
    return entries


def _check_lex(L):
    def check(table):
        problems = []
        if {c: v for c, v in table.entries.items() if v} != \
                _eliahou_kervaire(L):
            problems.append("Betti table disagrees with Eliahou-Kervaire")
        if table.regularity() != stable_regularity(L):
            problems.append("Koszul regularity != max generator degree")
        return problems
    return check


def _betti(seed):
    out = []
    for k, (nvars, degrees) in enumerate(BETTI_GENERAL):
        rng = random.Random(repr(("betti", seed, k)))
        J = _random_ideal(nvars, degrees, rng)
        ident = f"betti-{k}-{nvars}v-" + "-".join(map(str, degrees))
        out.append(Instance(ident, lambda J=J: regcert.betti_table(J),
                            _table_values(J.generators), _check_general(J)))
    for n, d, m in BETTI_LEX:
        L = ci_lex_ideal(n, d, m)
        out.append(Instance(f"betti-lex-{n}-{d}-{m}",
                            lambda L=L: regcert.betti_table(L),
                            _table_values(L.gens), _check_lex(L)))
    return out


_WORKLOADS = {"main": _main, "regbound": _regbound, "betti": _betti}


def build(workload, seed, only=None):
    """The workload's instances for this seed, optionally restricted to
    the named instance ids."""
    instances = _WORKLOADS[workload](seed)
    if only is not None:
        instances = [inst for inst in instances if inst.ident in only]
    return instances
