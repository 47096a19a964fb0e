"""The four benchmark workloads: seeded inputs, fixed objects, jobs, checks.

Each workload draws its inputs from a fixed *pool* of job specs.  The pool
is generated from a constant seed, so it is part of the benchmark's
definition, and the rendered answer of every pool entry is pinned in
``pins/<workload>.json``.  The run seed only chooses which pool entries are
used and in which order; a run therefore never meets an input whose answer
is not pinned, and a faster but different answer fails.

Specs are plain data (strings, ints, lists) and are made without importing
``weylops``.  A workload object then provides:

``setup(W)``
    build the fixed objects (fields, rings, groups, algebras); counted in
    ``setup_s``.
``prepare(ctx, stratum, spec)``
    turn a spec into package objects; untimed.
``run(ctx, stratum, obj)``
    the timed job; returns ``(rendered, kept)`` where ``rendered`` is the
    JSON-able answer that is digested and ``kept`` is what the oracles need.
``check(ctx, stratum, obj, kept)``
    independent oracles on a seeded sample; raises :class:`CheckFailed`.

Job code reaches every package function through its module attribute at
call time (``W.transpose.standard_transpose``), so the tracing hooks, which
rebind those attributes, see every call.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product
from types import SimpleNamespace

POOL_SEED = "weylops-perfbench-pool-v1"


class CheckFailed(Exception):
    """An answer disagreed with its oracle."""


def expect(condition, what):
    if not condition:
        raise CheckFailed(what)


# -- spec generators (pure data, no package import) ------------------------


def _exponent(rng, nvars, max_total, exact=False):
    exp = [0] * nvars
    for _ in range(max_total if exact else rng.randint(0, max_total)):
        exp[rng.randrange(nvars)] += 1
    return exp


def _q_coeff(rng, fractional):
    """A nonzero rational literal: an integer, or a proper fraction."""
    if fractional:
        while True:
            den = rng.randint(2, 9)
            num = rng.randint(-9, 9)
            if num and num % den:
                return Fraction(num, den)
    return Fraction(rng.randint(-9, 9) or 1)


def _text_op(rng, names, fractional, nterms, max_order, coeff_degree, full=False):
    """Operator expression text such as ``-3/4*x1*x3^2*d[1,0,2] + x2``.

    With ``full`` the first term has order ``max_order`` and a coefficient
    of degree ``coeff_degree``.
    """
    chunks = []
    for k in range(nterms):
        c = _q_coeff(rng, fractional)
        factors = [] if abs(c) == 1 else [str(abs(c))]
        exact = full and k == 0
        for name, e in zip(names, _exponent(rng, len(names), coeff_degree, exact)):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        alpha = _exponent(rng, len(names), max_order, exact)
        if any(alpha):
            factors.append("d[" + ",".join(map(str, alpha)) + "]")
        body = "*".join(factors) or "1"
        if k == 0:
            chunks.append(f"-{body}" if c < 0 else body)
        else:
            chunks.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(chunks)


def _raw_poly(rng, nvars, p, degree, nterms):
    """Polynomial as ``[[exp, coeff], ...]``, the first term of total degree
    ``degree``; coefficients are residues for p > 0, fraction strings for 0."""
    terms = []
    for k in range(nterms):
        exp = _exponent(rng, nvars, degree, exact=k == 0)
        c = rng.randrange(1, p) if p else str(_q_coeff(rng, rng.random() < 0.5))
        terms.append([exp, c])
    return terms


def _raw_op(rng, nvars, p, nterms, order, box=None, coeff_degree=2, coeff_terms=2):
    """Operator as ``[[alpha, poly], ...]``.

    The first term has the full order (|alpha| = order, or with ``box``
    every entry box - 1) and a coefficient of full degree, so that the
    operators of one stratum cost about the same; the other terms are
    random below those bounds.  With ``box`` every exponent entry is below
    it, which bounds the level.
    """
    terms = []
    for k in range(nterms):
        if box is None:
            alpha = _exponent(rng, nvars, order, exact=k == 0)
        else:
            alpha = [box - 1 if k == 0 else rng.randrange(box) for _ in range(nvars)]
        terms.append([alpha, _raw_poly(rng, nvars, p, coeff_degree, coeff_terms)])
    return terms


def _matrix(rng, dim, p, density):
    """Sparse seeded dim x dim matrix; entries residues or small ints."""
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            if rng.random() < density:
                rows[i][j] = rng.randrange(1, p) if p else rng.randint(-3, 3)
    return rows


def _op_from_raw(W, ring, raw):
    terms = {}
    for alpha, poly in raw:
        f = ring.from_terms({tuple(e): c for e, c in poly})
        alpha = tuple(alpha)
        terms[alpha] = terms[alpha] + f if alpha in terms else f
    return W.DiffOp.from_terms(ring, terms)


# -- workload base ---------------------------------------------------------


class Workload:
    """Slot-based workload: job i of a round has stratum ``slots[i]``."""

    name = ""
    why = ""
    slots: tuple = ()
    pool_sizes: dict = {}
    # jobs of the traced run: whole rounds, fixed, so counts repeat exactly
    trace_rounds = 1
    # least number of jobs in a run (its p90 needs 10 beyond it)
    min_jobs = 100

    def make_pool(self):
        pool = {}
        for stratum, size in self.pool_sizes.items():
            rng = random.Random(f"{POOL_SEED}:{self.name}:{stratum}")
            pool[stratum] = [self.make_spec(stratum, rng, k) for k in range(size)]
        return pool

    def make_spec(self, stratum, rng, k):
        raise NotImplementedError

    def rounds(self, seed):
        """Rounds of ``[stratum, pool index]`` jobs, one pass over the pool.

        Each stratum is visited in its own seeded order.  The list stops
        before any pool entry would repeat; a run that outlasts it starts
        again from the first round.
        """
        per_round = {s: self.slots.count(s) for s in self.pool_sizes}
        order = {}
        for s, size in self.pool_sizes.items():
            idx = list(range(size))
            random.Random(f"{seed}:{self.name}:{s}").shuffle(idx)
            order[s] = idx
        n_rounds = min(self.pool_sizes[s] // per_round[s] for s in per_round)
        cursor = dict.fromkeys(per_round, 0)
        out = []
        for _ in range(n_rounds):
            rnd = []
            for s in self.slots:
                rnd.append([s, order[s][cursor[s]]])
                cursor[s] += 1
            out.append(rnd)
        return out

    def setup(self, W):
        raise NotImplementedError

    def prepare(self, ctx, stratum, spec):
        return spec

    def run(self, ctx, stratum, obj):
        raise NotImplementedError

    def check(self, ctx, stratum, obj, kept):
        raise NotImplementedError


# -- weyl_q ----------------------------------------------------------------


class WeylQ(Workload):
    name = "weyl_q"
    why = ("characteristic-0 operator products over Fraction; half the jobs "
           "integral, half fractional, every tenth adds a cube and a twist")
    # Positions 9 and 19 are the heavy jobs; integral and fractional
    # coefficients alternate, so each kind is half of every round.
    slots = (("int", "frac") * 4 + ("int", "heavy_frac")
             + ("frac", "int") * 4 + ("frac", "heavy_int"))
    pool_sizes = {"int": 8192, "frac": 8192, "heavy_int": 1024, "heavy_frac": 1024}
    trace_rounds = 10
    names = ("x1", "x2", "x3")

    def make_spec(self, stratum, rng, k):
        fractional = stratum.endswith("frac")
        a = _text_op(rng, self.names, fractional, rng.randint(2, 4), 3, 3)
        b = _text_op(rng, self.names, fractional, rng.randint(2, 4), 3, 3)
        g = _text_op(rng, self.names, fractional, 3, 0, 4)
        spec = {"a": a, "b": b, "g": g}
        if stratum.startswith("heavy"):
            # an operator of fixed shape to cube and to twist, and
            # univariate twist polynomials, one per variable
            spec["c"] = _text_op(rng, self.names, fractional, 2, 3, 2, full=True)
            spec["twist"] = [
                _text_op(rng, (name,), fractional, 2, 0, 2) for name in self.names
            ]
        return spec

    def setup(self, W):
        field = W.FieldSpec(0)
        return SimpleNamespace(W=W, ring=W.PolyRing(field, 3))

    def run(self, ctx, stratum, spec):
        W, R = ctx.W, ctx.ring
        parse = W.opparser.parse_operator
        op_json = W.render.op_json
        A = parse(spec["a"], R)
        B = parse(spec["b"], R)
        g = W.opparser.parse_polynomial(spec["g"], R)
        P = A * B
        C = W.diffop.bracket(A, B)
        T = W.transpose.standard_transpose(P)
        v = P.apply(g)
        rendered = [op_json(P), op_json(C), op_json(T), W.render.poly_json(v)]
        kept = {"A": A, "B": B, "g": g, "P": P, "C": C, "T": T, "v": v}
        if "twist" in spec:
            twist = [W.opparser.parse_polynomial(t, R) for t in spec["twist"]]
            c = parse(spec["c"], R)
            cube = c ** 3
            tw = W.transpose.twisted_transpose(twist, c)
            rendered += [op_json(cube), op_json(tw)]
            kept.update(twist=twist, c=c, cube=cube, tw=tw)
        return rendered, kept

    def check(self, ctx, stratum, spec, k):
        import oracles

        W = ctx.W
        A, B, P, g = k["A"], k["B"], k["P"], k["g"]
        # char-0 apply against sympy derivatives divided by alpha!
        expect(oracles.sympy_apply(A, oracles.sympy_apply(B, g)) == oracles.as_dict(k["v"]),
               "P(g) != A(B(g)) by sympy")
        bg = oracles.sympy_apply(B, oracles.sympy_apply(A, g))
        ab = oracles.sympy_apply(A, oracles.sympy_apply(B, g))
        expect(oracles.as_dict(k["C"].apply(g)) == oracles.poly_sub(ab, bg),
               "[A,B](g) != A(B(g)) - B(A(g)) by sympy")
        if not P.is_zero() and P.order() <= 4:
            expect(W.diffop.order_by_bracket_oracle(P, degree_bound=1) == P.order(),
                   "order of the product disagrees with the bracket oracle")
        st = W.transpose.standard_transpose
        expect(st(k["T"]) == P, "standard transpose is not involutive")
        expect(k["T"] == st(B) * st(A), "standard transpose is not anti-multiplicative")
        if "twist" in k:
            c = k["c"]
            cube_g = oracles.sympy_apply(c, oracles.sympy_apply(c, oracles.sympy_apply(c, g)))
            expect(oracles.as_dict(k["cube"].apply(g)) == cube_g, "c^3(g) != c(c(c(g)))")
            tt = W.transpose.twisted_transpose
            expect(tt(k["twist"], k["tw"]) == c, "twisted transpose is not involutive")
            expect(tt(k["twist"], P) == tt(k["twist"], B) * tt(k["twist"], A),
                   "twisted transpose is not anti-multiplicative")


# -- modular ---------------------------------------------------------------

LARGE_P = 1000003
# (p, e, nvars) of the level-matrix jobs: basis sizes p^(e*n) of 8 to 27
LEVEL_CONFIGS = {f"lvm_p{p}e{e}n{n}": (p, e, n) for p, e, n in
                 ((2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 1), (5, 1, 2), (3, 1, 3))}


class Modular(Workload):
    name = "modular"
    why = ("prime fields 2, 3, 5, 1000003: products, brackets, transposes, "
           "level matrices, and transport over all of GL2(F2) and GL2(F3)")
    # Every round holds the same job kinds, so every round does alike work.
    # In cost order a round is: three small level matrices, products in
    # characteristics 2 and 3, a band of products in 5 and 1000003 with the
    # GL2(F2) transport, then the 16-, the GL2(F3) transport and the 25- and
    # 27-square level matrices.  With 15 jobs the median falls inside the
    # band and the 90th percentile on the two largest matrices, not on a
    # gap between kinds, so neither jumps from run to run.
    slots = ("lvm_p2e1n3", "ops2", "ops5", "lvm_p3e1n3", "ops3", "opsL",
             "transport2", "lvm_p3e1n2", "ops5", "lvm_p2e2n2", "ops3",
             "transport3", "opsL", "lvm_p3e2n1", "lvm_p5e1n2")
    pool_sizes = dict.fromkeys(slots, 512)
    trace_rounds = 12
    ops_p = {"ops2": 2, "ops3": 3, "ops5": 5, "opsL": LARGE_P}

    def make_spec(self, stratum, rng, k):
        if stratum in self.ops_p:
            p = self.ops_p[stratum]
            return {"p": p,
                    "a": _raw_op(rng, 3, p, 4, 4, coeff_degree=3),
                    "b": _raw_op(rng, 3, p, 4, 4, coeff_degree=3)}
        if stratum in LEVEL_CONFIGS:
            p, e, n = LEVEL_CONFIGS[stratum]
            return {"p": p, "e": e, "n": n,
                    "a": _raw_op(rng, n, p, 2, None, box=p**e),
                    "b": _raw_op(rng, n, p, 2, None, box=p**e)}
        p = 2 if stratum == "transport2" else 3
        return {"p": p,
                "g": rng.randrange(6 if p == 2 else 48),
                "a": _raw_op(rng, 2, p, 2, None, box=p + 1)}

    def setup(self, W):
        fields = {p: W.FieldSpec(p) for p in (2, 3, 5, LARGE_P)}
        rings = {(p, n): W.PolyRing(fields[p], n)
                 for p in fields for n in (1, 2, 3)}
        groups = {p: W.FiniteGroup(_gl2(W, fields[p])) for p in (2, 3)}
        inverses = {p: [g.inverse().matrix.rows for g in groups[p]]
                    for p in groups}
        return SimpleNamespace(W=W, rings=rings, groups=groups, inverses=inverses)

    def prepare(self, ctx, stratum, spec):
        W = ctx.W
        if stratum in self.ops_p:
            R = ctx.rings[(spec["p"], 3)]
            return {"a": _op_from_raw(W, R, spec["a"]),
                    "b": _op_from_raw(W, R, spec["b"])}
        if stratum in LEVEL_CONFIGS:
            R = ctx.rings[(spec["p"], spec["n"])]
            return {"e": spec["e"],
                    "a": _op_from_raw(W, R, spec["a"]),
                    "b": _op_from_raw(W, R, spec["b"])}
        p = spec["p"]
        R = ctx.rings[(p, 2)]
        g = ctx.groups[p].elements[spec["g"]]
        return {"ring": R, "rows": g.matrix.rows,
                "inv_rows": ctx.inverses[p][spec["g"]],
                "a": _op_from_raw(W, R, spec["a"])}

    def run(self, ctx, stratum, obj):
        W = ctx.W
        op_json = W.render.op_json
        st = W.transpose.standard_transpose
        if stratum in self.ops_p:
            A, B = obj["a"], obj["b"]
            P = A * B
            C = W.diffop.bracket(A, B)
            T = st(P)
            levels = [A.level(), B.level(), P.level()]
            return ([op_json(P), op_json(C), op_json(T), levels],
                    {"P": P, "C": C, "T": T, "levels": levels})
        if stratum in LEVEL_CONFIGS:
            A, B, e = obj["a"], obj["b"], obj["e"]
            m = W.levelmatrix.to_matrix(A, e)
            back = W.levelmatrix.to_operator(m)
            consistent = W.levelmatrix.matrix_mul_consistency(A, B, e)
            return ([W.render.level_matrix_json(m), op_json(back), consistent],
                    {"m": m, "back": back, "consistent": consistent})
        # coordinate invariance of the transposition (a fresh map per job)
        R, A = obj["ring"], obj["a"]
        rm = W.poly.RingMap.from_matrix
        m = rm(R, obj["rows"], inverse_rows=obj["inv_rows"])
        minv = rm(R, obj["inv_rows"], inverse_rows=obj["rows"])
        transport = W.transpose.transport_via_coordinates
        lhs = transport(m, st(transport(minv, A)))
        rhs = st(A)
        return [op_json(lhs), op_json(rhs)], {"lhs": lhs, "rhs": rhs, "m": m,
                                              "minv": minv}

    def check(self, ctx, stratum, obj, k):
        W = ctx.W
        st = W.transpose.standard_transpose
        if stratum in self.ops_p:
            A, B, P = obj["a"], obj["b"], k["P"]
            R = A.ring
            for exp in product(range(3), repeat=3):
                mono = R.monomial(exp)
                expect(P.apply(mono) == A.apply(B.apply(mono)),
                       "composition oracle failed on a monomial")
            expect(k["C"] == P - B * A, "bracket is not AB - BA")
            expect(st(k["T"]) == P, "standard transpose is not involutive")
            expect(k["T"] == st(B) * st(A), "standard transpose is not anti-multiplicative")
            for op, e in zip((A, B, P), k["levels"]):
                expect(W.diffop.level_by_commutation_oracle(op, e, degree_bound=1),
                       "operator is not linear over its level's powers")
            return
        if stratum in LEVEL_CONFIGS:
            lm = W.levelmatrix
            expect(k["back"] == obj["a"], "level matrix round trip changed the operator")
            expect(lm.to_matrix(k["back"], obj["e"]) == k["m"],
                   "level matrix round trip changed the matrix")
            expect(k["consistent"] is True, "matrix of a product != product of matrices")
            return
        expect(k["lhs"] == k["rhs"], "transposition is not coordinate invariant")
        back = W.transpose.transport_via_coordinates(
            k["minv"], W.transpose.transport_via_coordinates(k["m"], obj["a"]))
        expect(back == obj["a"], "transport by m then m^-1 is not the identity")


def _gl2(W, field):
    p = field.characteristic
    out = []
    for a, b, c, d in product(range(p), repeat=4):
        if (a * d - b * c) % p:
            out.append(W.GroupElement(W.Matrix(field, [[a, b], [c, d]])))
    return out


# -- artinian --------------------------------------------------------------

# (exponents, characteristic) of the algebras whose filtrations are built
ALGEBRAS = (((4,), 0), ((5,), 0), ((2, 3), 0),
            ((2, 3), 2), ((2, 2, 2), 2), ((3, 3), 2),
            ((2, 3), 5), ((2, 2, 2), 5), ((3, 3), 5))
# seeded query matrices per algebra, of each query kind
QUERY_POOL = 72


def _dim(exps):
    out = 1
    for a in exps:
        out *= a
    return out


class Artinian(Workload):
    name = "artinian"
    why = ("order filtrations by dense elimination, then socle-adjoint and "
           "membership queries that re-check the pairing on every call")
    pool_sizes = {"build": len(ALGEBRAS), "table": len(ALGEBRAS),
                  "adjoint": len(ALGEBRAS) * QUERY_POOL,
                  "contains": len(ALGEBRAS) * QUERY_POOL}
    # queries of each kind per algebra and round
    queries = 6

    def make_spec(self, stratum, rng, k):
        if stratum in ("build", "table"):
            return {"alg": k}
        alg = k // QUERY_POOL
        exps, p = ALGEBRAS[alg]
        d = _dim(exps)
        spec = {"alg": alg,
                "xi": _matrix(rng, d, p, rng.choice((1.5 / d, 3.0 / d, 0.3)))}
        if stratum == "contains":
            # the order tested; rounds take one query of each order 0..5
            spec["n"] = k % self.queries
        return spec

    def rounds(self, seed):
        """Per round, the algebras in seeded order; each gets its build, its
        full adjoint table, then ``queries`` adjoint and membership queries
        on seeded matrices.  The membership queries of a round test each
        order 0..queries-1 once, so every round does alike work."""
        rng = random.Random(f"{seed}:{self.name}:order")
        adjoint, contains = {}, {}
        for a in range(len(ALGEBRAS)):
            idx = list(range(a * QUERY_POOL, (a + 1) * QUERY_POOL))
            random.Random(f"{seed}:{self.name}:adjoint:{a}").shuffle(idx)
            adjoint[a] = idx
            for n in range(self.queries):
                idx = list(range(a * QUERY_POOL + n, (a + 1) * QUERY_POOL, self.queries))
                random.Random(f"{seed}:{self.name}:contains:{a}:{n}").shuffle(idx)
                contains[a, n] = idx
        out = []
        for r in range(QUERY_POOL // self.queries):
            algs = list(range(len(ALGEBRAS)))
            rng.shuffle(algs)
            rnd = []
            for a in algs:
                rnd += [["build", a], ["table", a]]
                for n, i in enumerate(adjoint[a][r * self.queries:(r + 1) * self.queries]):
                    rnd += [["adjoint", i], ["contains", contains[a, n][r]]]
            out.append(rnd)
        return out

    def setup(self, W):
        fields = {p: W.FieldSpec(p) for p in (0, 2, 5)}
        algebras = [W.ArtinianAlgebra(exps, fields[p]) for exps, p in ALGEBRAS]
        return SimpleNamespace(W=W, algebras=algebras, filtrations={})

    def prepare(self, ctx, stratum, spec):
        if stratum == "build":
            # a fresh algebra per build, so that nothing an algebra object
            # may keep carries over to the next round's build
            A = ctx.algebras[spec["alg"]]
            return dict(spec, algebra=ctx.W.ArtinianAlgebra(A.exponents, A.field))
        if stratum == "table":
            return spec
        A = ctx.algebras[spec["alg"]]
        return dict(spec, xi=ctx.W.Matrix(A.field, spec["xi"]))

    def run(self, ctx, stratum, obj):
        W = ctx.W
        A = ctx.algebras[obj["alg"]]
        art = W.artinian
        if stratum == "build":
            filt = art.order_filtration(obj["algebra"])
            ctx.filtrations[obj["alg"]] = filt
            return [filt.dims, filt.stabilized_at], {"filt": filt}
        if stratum == "table":
            # the CLI ``artinian`` command: the adjoint of every E_{mu,nu}
            d = A.dim
            F = A.field
            cols = []
            for k in range(d * d):
                vec = [F.zero()] * (d * d)
                vec[k] = F.one()
                xi = art.unvectorize(F, vec, d)
                cols.append(art.vectorize(art.socle_adjoint(A, xi)))
            table = W.Matrix.from_columns(F, cols)
            return W.render.scalar_matrix_json(table), {"table": table}
        filt = ctx.filtrations[obj["alg"]]
        if stratum == "adjoint":
            adj = art.socle_adjoint(A, obj["xi"])
            return W.render.scalar_matrix_json(adj), {"adj": adj, "filt": filt}
        inside = filt.contains(obj["xi"], obj["n"])
        return inside, {"inside": inside, "filt": filt}

    def check(self, ctx, stratum, obj, k):
        W = ctx.W
        A = ctx.algebras[obj["alg"]]
        art = W.artinian
        if stratum == "build":
            dims = k["filt"].dims
            expect(dims[0] == A.dim, "order 0 is not the multiplication operators")
            expect(dims == sorted(dims) and dims[-1] == A.dim**2,
                   "filtration does not grow to all endomorphisms")
            return
        if stratum == "table":
            t = k["table"]
            expect(t * t == W.Matrix.identity(A.field, A.dim**2),
                   "adjoint table is not an involution")
            return
        filt = k["filt"]
        top = len(filt.bases) - 1
        level = next(n for n in range(top + 1) if filt.contains(obj["xi"], n))
        if stratum == "contains":
            expect(k["inside"] == (obj["n"] >= level), "membership is not monotone")
            return
        adj = k["adj"]
        expect(art.socle_adjoint(A, adj) == obj["xi"], "socle adjoint is not involutive")
        expect(filt.contains(adj, level), "socle adjoint raised the order")
        expect(level == 0 or not filt.contains(adj, level - 1),
               "socle adjoint lowered the order")


def dual_numbers_check(W):
    """The dual numbers k[x]/(x^2) have order-filtration dims 2, 3, 4."""
    A = W.ArtinianAlgebra((2,), W.FieldSpec(0))
    expect(W.artinian.order_filtration(A).dims[:3] == [2, 3, 4],
           "dual numbers do not give dims [2, 3, 4]")


# -- group_actions ---------------------------------------------------------


class GroupActions(Workload):
    name = "group_actions"
    why = ("Reynolds averages and equivariance under sign, D4 and S3: a few "
           "group elements reused across hundreds of operators")
    slots = ("sign", "d4", "s3")
    pool_sizes = {"sign": 1024, "d4": 1024, "s3": 1024}
    trace_rounds = 30

    def make_spec(self, stratum, rng, k):
        if stratum == "sign":
            return _raw_op(rng, 2, 0, 2, 2)
        if stratum == "d4":
            return _raw_op(rng, 2, 0, 2, 3, coeff_degree=1)
        return _raw_op(rng, 3, 0, 2, 2, coeff_degree=1)

    def setup(self, W):
        F = W.FieldSpec(0)
        G, M = W.GroupElement, W.Matrix
        sign = W.FiniteGroup([G(M.identity(F, 2)), G(M(F, [[-1, 0], [0, -1]]))])
        rot, flip = G(M(F, [[0, -1], [1, 0]])), G(M(F, [[1, 0], [0, -1]]))
        d4, r = [], G(M.identity(F, 2))
        for _ in range(4):
            d4 += [r, r * flip]
            r = r * rot
        s3 = [G(M(F, [[1 if perm[j] == i else 0 for j in range(3)] for i in range(3)]))
              for perm in permutations(range(3))]
        rings = {"sign": W.PolyRing(F, 2, ("s", "t")),
                 "d4": W.PolyRing(F, 2), "s3": W.PolyRing(F, 3)}
        groups = {"sign": sign, "d4": W.FiniteGroup(d4), "s3": W.FiniteGroup(s3)}
        return SimpleNamespace(W=W, rings=rings, groups=groups)

    def prepare(self, ctx, stratum, spec):
        return _op_from_raw(ctx.W, ctx.rings[stratum], spec)

    def run(self, ctx, stratum, xi):
        W = ctx.W
        inv = W.invariants
        G = ctx.groups[stratum]
        avg = inv.reynolds(G, xi)
        if stratum == "sign":
            # the c10 pattern: equivariance, Reynolds, invariance
            eq = inv.equivariance_check(G, xi)
            invariant = inv.is_invariant(G, avg)
            return [eq, W.render.op_json(avg), invariant], {"avg": avg, "eq": eq,
                                                            "invariant": invariant}
        return W.render.op_json(avg), {"avg": avg}

    def check(self, ctx, stratum, xi, k):
        inv = ctx.W.invariants
        G = ctx.groups[stratum]
        avg = k["avg"]
        expect(inv.reynolds(G, avg) == avg, "Reynolds average is not idempotent")
        expect(inv.is_invariant(G, avg), "Reynolds average is not invariant")
        if stratum == "sign":
            expect(k["eq"] is True and k["invariant"] is True,
                   "sign-group equivariance or invariance failed")


WORKLOADS = {w.name: w for w in (WeylQ(), Modular(), Artinian(), GroupActions())}
