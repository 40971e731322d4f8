"""The benchmark's three workloads: seeded inputs, ops and correctness gates.

Each workload is a fixed list of ops, built once from the seed during
set-up.  An op's ``run`` makes the calls into ``currentext`` that are
timed; its ``check`` then tests the answer against mathematical facts
that any correct change of representatives keeps, never against stored
output bytes, and returns None or a message naming what is wrong.

The package is reached through the module passed in (``ce``), looked up
at call time, so the tracer's rebinding reaches every call.

Left out on purpose: ladder inputs that the cochain ceiling refuses
today (``sl3 (x) sq2*sq2`` exits 3).  A change that makes them reachable
would read as a slowdown here; adding them is its own benchmark change.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# universality-ladder: the large end of the ROADMAP ladder.
# (fibre, coefficients, m, expected dim H^2 = dim V * dim Omega1bar * m)
LADDER = (
    ("sl2", "fun:8*sq2", 1, 8),
    ("sl3", "fun:2*sq2", 1, 2),
    ("sl2+so3", "sq2*jets:2", 1, 10),
    ("sl2", "fun:4*sq2", 3, 12),
)

# twist-glue: connection twists (acceptance criterion 5) and gluing over
# a chain cover (acceptance criterion 7), at sizes where they cost seconds.
TWISTS = (("sl2", "sq2*jets:3"), ("so3", "sq2*sq2"))
GLUE_FIBRE, GLUE_COEFF = "sl2", "fun:6*sq2"
GLUE_COVER = (("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"))
# the short glue ops sit in equal groups before, between and after the
# long twists, so that their times sample the whole pass, not one moment
GLUE_TRIALS = 12

# catalog-sweep: every CLI subcommand over the catalog at acceptance sizes.
SWEEP_LIE = ("sl2", "sl3", "so3", "heis3", "sl2C", "gl2", "abelian:3")
SWEEP_COMM = ("jets:3", "sq2", "fun:2", "fun:3", "fun:2*sq2", "fun:2*jets:2")
# (fibre, coefficients, dim H^2) for the acceptance pairs
SWEEP_PAIRS = (
    ("sl2", "sq2", 1),
    ("sl2", "fun:2*sq2", 2),
    ("sl2", "jets:3", 0),
    ("sl2", "fun:2", 0),
    ("sl2+so3", "sq2", 2),
)
# witness element per Lie name; x in heis3 and the trace-one or abelian
# elements lie outside [g, g], so those exit 2 with their defect class
SWEEP_WITNESS = (
    ("sl2", "h", 0),
    ("sl3", "h1", 0),
    ("so3", "e1", 0),
    ("heis3", "x", 2),
    ("sl2C", "0", 0),
    ("gl2", "E11", 2),
    ("abelian:3", "a1", 2),
)
# H^2 with trivial coefficients: Whitehead's lemma for the semisimple
# names, and the known dimensions of heis3 and abelian:3
H2_DIM = {"sl2": 0, "sl3": 0, "so3": 0, "sl2C": 0, "gl2": 0, "heis3": 2, "abelian:3": 3}

WORKLOADS = ("universality-ladder", "twist-glue", "catalog-sweep")


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def build(workload, ce, seed):
    """The workload's op list for this seed; ``ce`` is the imported package."""
    if workload == "universality-ladder":
        return ladder_ops(ce, seed)
    if workload == "twist-glue":
        return twist_glue_ops(ce, seed)
    if workload == "catalog-sweep":
        return sweep_ops(ce, seed)
    raise ValueError(f"unknown workload {workload!r}")


# --- universality-ladder ----------------------------------------------------

def permuted_lie(ce, L, order):
    """L on the basis order[0], order[1], ..., via the public constructor."""
    new = {old: r for r, old in enumerate(order)}
    entries = [(new[i], new[j], new[k], c) for i, j, k, c in L.structure_entries()]
    return ce.LieAlgebra([L.labels[old] for old in order], entries)


def permuted_comm(ce, A, order):
    """A on the basis order[0], order[1], ..., via the public constructor."""
    new = {old: r for r, old in enumerate(order)}
    entries = [(new[i], new[j], new[k], c) for i, j, k, c in A.entries()]
    unit = None if A.unit is None else [A.unit[old] for old in order]
    idempotents = None
    if A.idempotents is not None:
        idempotents = [(label, [e[old] for old in order]) for label, e in A.idempotents]
    return ce.CommAlgebra([A.labels[old] for old in order], entries, unit, idempotents)


def basis_orders(rng, seed, *dims):
    """One basis order per dimension; seed 0 keeps the catalog order."""
    orders = []
    for n in dims:
        order = list(range(n))
        if seed:
            rng.shuffle(order)
        orders.append(order)
    return orders


def ladder_inputs(ce, seed):
    rng = random.Random(seed)
    out = []
    for gname, aname, m, expected in LADDER:
        g, A = ce.lie_catalog(gname), ce.comm_catalog(aname)
        g_order, a_order = basis_orders(rng, seed, g.dim, A.dim)
        out.append((gname, aname, m, expected,
                    permuted_lie(ce, g, g_order), permuted_comm(ce, A, a_order)))
    return out


def check_universality(result, m, expected):
    dim_v = result.uc.forms.dim
    dim_w = result.uc.kaehler.dim_omega1bar
    if not result.bijective:
        return "phi -> [phi o omega] is not bijective"
    if result.dim_h2 != dim_v * dim_w * m or result.dim_h2 != expected:
        return f"dim H^2 = {result.dim_h2}, expected {expected} = {dim_v} * {dim_w} * {m}"
    return None


def ladder_ops(ce, seed):
    ops = []
    for gname, aname, m, expected, g, A in ladder_inputs(ce, seed):
        def run(g=g, A=A, m=m):
            uc = ce.universal_cocycle(g, A)
            return ce.universality_map(g, A, m, uc=uc)

        ops.append(Op(f"universality {gname} {aname} m={m}", run,
                      lambda r, m=m, e=expected: check_universality(r, m, e)))
    return ops


# --- twist-glue -------------------------------------------------------------

def random_one_form(ce, rng, fibre_dim, omega1_dim):
    entries = {}
    for i in range(fibre_dim):
        for t in range(omega1_dim):
            value = rng.randint(-3, 3)
            if value:
                entries[(i, t)] = Fraction(value)
    return ce.GValuedOneForm(fibre_dim, omega1_dim, entries)


def check_twist(outcome):
    twist, witness = outcome
    if not witness.is_exact:
        return "twist difference tau is not exact"
    if witness.beta.coboundary() != twist.tau:
        return "d(witness primitive) != tau"
    return None


def check_glue(outcome):
    psi, witnesses, glued = outcome
    if not all(w.is_exact for w in witnesses):
        return "a restriction of a coboundary is not exact"
    if glued.coboundary() != psi:
        return "d(glued primitive) != psi"
    return None


def twist_glue_ops(ce, seed):
    rng = random.Random(seed)
    twists = []
    for gname, aname in TWISTS:
        g, A = ce.lie_catalog(gname), ce.comm_catalog(aname)
        # the universal cocycle fixes the shape g (x) Omega1 of the one-form
        uc = ce.universal_cocycle(g, A)
        xi = random_one_form(ce, rng, g.dim, uc.kaehler.dim_omega1)

        def run(g=g, A=A, xi=xi, uc=uc):
            twist = ce.twist_difference(g, A, xi, uc=uc)
            return twist, ce.coboundary_witness(twist.tau)

        twists.append(Op(f"twist {gname} {aname}", run, check_twist))
    ca = ce.current_algebra(ce.lie_catalog(GLUE_FIBRE), ce.comm_catalog(GLUE_COEFF))
    ss = ce.SupportStructure(ca)
    cover = ce.Cover(ss, GLUE_COVER)
    glues = []
    for trial in range(GLUE_TRIALS):
        beta0 = ce.OneCochain(ca.total, 1, [(Fraction(rng.randint(-3, 3)),) for _ in range(ca.dim)])
        psi = beta0.coboundary()

        def run(psi=psi):
            witnesses = [ce.coboundary_witness(ce.restrict_class(psi, ss, subset))
                         for subset in cover.subsets]
            if not all(w.is_exact for w in witnesses):
                return psi, witnesses, None
            return psi, witnesses, ce.glue_primitives(psi, cover, [w.beta for w in witnesses])

        glues.append(Op(f"glue {GLUE_FIBRE} {GLUE_COEFF} #{trial}", run, check_glue))
    group = GLUE_TRIALS // (len(twists) + 1)
    ops = glues[:group]
    for k, twist in enumerate(twists, 1):
        ops += [twist] + glues[k * group:(k + 1) * group]
    return ops


# --- catalog-sweep ----------------------------------------------------------

def _expect(*facts):
    """Check payload[path[0]][path[1]]... == value for each (path, value)."""
    def check(payload):
        for path, value in facts:
            got = payload
            for key in path:
                got = got[key]
            if got != value:
                return f"{'.'.join(path)} = {got!r}, expected {value!r}"
        return None
    return check


def sweep_commands():
    """(argv, expected exit code, fact or None) in catalog listing order."""
    # vform sl2C: V is 2-dimensional and the Killing form kills one direction
    vform_facts = {"sl2C": _expect((("results", "dim_v"), 2),
                                   (("results", "killing_factor", "kernel_dim"), 1))}
    cmds = []
    for name in SWEEP_LIE:
        cmds += [(["info", name], 0, None),
                 (["killing", name], 0, None),
                 (["derivations", name], 0, None),
                 (["vform", name], 0, vform_facts.get(name)),
                 (["h2", name], 0, _expect((("results", "dim"), H2_DIM[name])))]
    for name, element, code in SWEEP_WITNESS:
        fact = _expect((("results", "defect_class"), ["1", "0"])) if name == "heis3" else None
        cmds.append((["witness", name, element], code, fact))
    for name in SWEEP_COMM:
        cmds += [(["info", name], 0, None),
                 (["kaehler", name], 0, None),
                 (["omegabar", name], 0, None)]
    for fibre, coeff, dim_h2 in SWEEP_PAIRS:
        cmds += [(["current", fibre, coeff], 0, _expect((("results", "valid"), True))),
                 (["cocycle-check", fibre, coeff], 0, _expect((("results", "cocycle_identity"), True))),
                 (["universality", fibre, coeff], 0, _expect((("results", "dim_h2"), dim_h2))),
                 (["twist", fibre, coeff], 0, _expect((("results", "class_unchanged"), True)))]
    cmds += [
        (["glue-demo", "sl2", "fun:3*jets:2", "--cover", "1,2;2,3"], 0,
         _expect((("results", "glued_matches"), True))),
        (["glue-demo", "sl2", "fun:4*jets:2", "--cover", "1,2;2,3;3,4"], 0,
         _expect((("results", "glued_matches"), True))),
        (["validate", "--all"], 0, None),
        (["h2", "sl2", "--coeff-dim", "3"], 0, _expect((("results", "dim"), 0))),
    ]
    return cmds


def sweep_ops(ce, seed):
    cmds = sweep_commands()
    if seed:
        random.Random(seed).shuffle(cmds)
    ops = []
    for argv, code, fact in cmds:
        argv = argv + ["--format", "json"]
        first = []

        def run(argv=argv):
            report = ce.cli.run_command(argv)
            return report.exit_code, report.to_json()

        def check(outcome, code=code, fact=fact, first=first):
            exit_code, text = outcome
            if exit_code != code:
                return f"exit code {exit_code}, expected {code}"
            if not first:
                first.append(text)
            elif text != first[0]:
                return "JSON differs from the first pass"
            return fact(json.loads(text)) if fact else None

        ops.append(Op(" ".join(argv[:-2]), run, check))
    return ops
