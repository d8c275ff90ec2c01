import random
from fractions import Fraction

import pytest

from cartaneq import Context, jets
from cartaneq.characters import CharacterReport
from cartaneq.cli import main
from cartaneq.engine import run_loop
from cartaneq.jets import (
    InconsistentSystemError,
    JetError,
    JetSpace,
    JetSystem,
    NonGenuineSystemError,
    complete_to_involution,
    complete_to_order,
    crosscheck_characters,
    encode_gstructure,
    jet_characters,
    multi_indices,
    project_integrability,
    prolong_system,
    total_derivative,
)
from cartaneq.linalg import row_reduce, symbolic_rank
from cartaneq.problems import load_problem

import genprob
from genutil import PROBLEMS, corpus_problem, drawn_problem, random_expr


def one_dep_space():
    ctx = Context()
    x, y = ctx.declare_symbols(["x", "y"], "coordinate")
    u = ctx.declare_symbol("u", "jet-variable")
    return ctx, JetSpace(ctx, [x, y], [u])


def test_total_derivative_examples():
    ctx, sp = one_dep_space()
    u = ctx.sym("u")
    assert total_derivative(sp, u, 0) == sp.jet_expr(0, (1, 0))
    e = ctx.sym("x") * sp.jet_expr(0, (0, 1))
    # D_x(x u_y) = u_y + x u_xy
    assert total_derivative(sp, e, 0) == sp.jet_expr(0, (0, 1)) + ctx.sym("x") * sp.jet_expr(0, (1, 1))


def test_total_derivative_through_opaque():
    ctx = Context()
    x = ctx.declare_symbol("x", "coordinate")
    u, p = ctx.declare_symbols(["u", "p"], "jet-variable")
    ctx.declare_opaque("E", ["x", "u", "p"])
    sp = JetSpace(ctx, [x], [u, p])
    e = ctx.parse("E(x,u,p)")
    out = total_derivative(sp, e, 0)
    expected = (
        ctx.parse("E_x(x,u,p)")
        + sp.jet_expr(0, (1,)) * ctx.parse("E_u(x,u,p)")
        + sp.jet_expr(1, (1,)) * ctx.parse("E_p(x,u,p)")
    )
    assert out == expected


def test_total_derivative_matches_termwise_definition_on_lagrangian():
    # D_i = d/dx^i + sum over jets u^a_J of u^a_{J,i} d/du^a_J, summed one
    # term at a time with Expr arithmetic
    R = encode_gstructure(corpus_problem("lagrangian"))
    sp = R.space
    assert R.equations
    for F in R.equations.values():
        for i, x_i in enumerate(sp.independents):
            expected = F.diff(x_i)
            for a, J in sp.jets_in(F):
                J_i = list(J)
                J_i[i] += 1
                expected = expected + sp.jet_expr(a, tuple(J_i)) * F.diff(sp.jet(a, J))
            assert total_derivative(sp, F, i) == expected


def test_commutation_of_total_derivatives():
    rng = random.Random(13)
    ctx, sp = one_dep_space()
    atoms = [ctx.sym("x"), ctx.sym("y"), ctx.sym("u"), sp.jet_expr(0, (1, 0)), sp.jet_expr(0, (0, 1))]
    for _ in range(30):
        e = random_expr(ctx, rng, atoms, depth=2)
        d01 = total_derivative(sp, total_derivative(sp, e, 0), 1)
        d10 = total_derivative(sp, total_derivative(sp, e, 1), 0)
        assert d01 == d10


def test_prolong_simple():
    ctx, sp = one_dep_space()
    R = JetSystem(sp, {(0, (1, 0)): ctx.sym("u")}, 1)
    P = prolong_system(R)
    eqs = P.new_equations()
    # u_xx = u_x reduces to u in solved form; u_xy = u_y stays
    assert eqs[(0, (2, 0))] == ctx.sym("u")
    assert eqs[(0, (1, 1))] == sp.jet_expr(0, (0, 1))
    assert not P.conditions
    assert P.parametric_top_count == 1  # only u_yy free


def test_prolong_empty():
    ctx, sp = one_dep_space()
    R = JetSystem(sp, {}, 1)
    P = prolong_system(R)
    assert P.top_rank == 0
    assert P.parametric_top_count == 3


def test_prolong_clash_condition():
    ctx, sp = one_dep_space()
    R = JetSystem(sp, {(0, (1, 0)): ctx.sym("u"), (0, (0, 1)): ctx.parse("x*u")}, 1)
    P = prolong_system(R)
    conds, reduced = project_integrability(P)
    assert len(conds) == 1
    assert conds[0] == ctx.sym("u") or conds[0] == -ctx.sym("u")
    assert reduced.equations[(0, (0, 0))].is_zero()


def test_project_no_conditions():
    ctx, sp = one_dep_space()
    R = JetSystem(sp, {(0, (1, 0)): ctx.zero, (0, (0, 1)): ctx.zero}, 1)
    conds, reduced = project_integrability(prolong_system(R))
    assert conds == []
    assert reduced is not None


def test_project_non_genuine_aborts():
    ctx, sp = one_dep_space()
    R = JetSystem(sp, {(0, (1, 0)): ctx.sym("u"), (0, (0, 1)): ctx.sym("x")}, 1)
    with pytest.raises(NonGenuineSystemError):
        project_integrability(prolong_system(R))


def test_complete_to_order_simple():
    ctx, sp = one_dep_space()
    R = JetSystem(sp, {(0, (0, 0)): ctx.sym("x")}, 1)
    done = complete_to_order(R)
    assert done.equations[(0, (1, 0))] == ctx.one
    assert done.equations[(0, (0, 1))].is_zero()
    # already-complete systems are unchanged
    again = complete_to_order(done)
    assert again.equations == done.equations


def test_completion_prolongs_the_system_as_each_adjoin_leaves_it():
    # D_x(u = x) gives v_y = 1, which resolves v = y*v_y to v = y.  A candidate
    # prolonged before that adjoin, D_x(v = y*v_y), holds v_xy above order 1,
    # so each candidate must come from the current system
    ctx = Context()
    sp = JetSpace(ctx, ctx.declare_symbols(["x", "y"], "coordinate"), ctx.declare_symbols(["u", "v"], "jet-variable"))
    v_y = sp.jet_expr(1, (0, 1))
    R = JetSystem(sp, {(0, (0, 0)): ctx.sym("x"), (0, (1, 0)): v_y, (1, (0, 0)): ctx.sym("y") * v_y}, 1)
    done = complete_to_order(R)
    assert done.pretty() == ["u = x", "u_y = 0", "u_x = 1", "v = y", "v_y = 1", "v_x = 0"]


def test_complete_to_order_paper_degenerate_example():
    # maps (x,y,u) -> (X,Y,U) pinned to first order with U = u + x U_x + y U_y
    # and every second-order jet zero; completion is stable at order 2
    ctx = Context()
    x, y, u = ctx.declare_symbols(["x", "y", "u"], "coordinate")
    X, Y, U = ctx.declare_symbols(["X", "Y", "U"], "jet-variable")
    sp = JetSpace(ctx, [x, y, u], [X, Y, U])
    eqs = {}
    eqs[(0, (0, 0, 0))] = ctx.sym("x")
    eqs[(1, (0, 0, 0))] = ctx.sym("y")
    eqs[(2, (0, 0, 0))] = (
        ctx.sym("u") + ctx.sym("x") * sp.jet_expr(2, (1, 0, 0)) + ctx.sym("y") * sp.jet_expr(2, (0, 1, 0))
    )
    eqs[(0, (1, 0, 0))] = ctx.one
    eqs[(0, (0, 1, 0))] = ctx.zero
    eqs[(0, (0, 0, 1))] = ctx.zero
    eqs[(1, (1, 0, 0))] = ctx.zero
    eqs[(1, (0, 1, 0))] = ctx.one
    eqs[(1, (0, 0, 1))] = ctx.zero
    eqs[(2, (0, 0, 1))] = ctx.one
    for a in range(3):
        for J in multi_indices(3, 2):
            eqs[(a, J)] = ctx.zero
    R = JetSystem(sp, eqs, 2)
    done = complete_to_order(R)
    # stable completion: every second-order jet principal and zero
    for a in range(3):
        for J in multi_indices(3, 2):
            assert done.equations[(a, J)].is_zero()
    # closure: prolonging any member of order < 2 stays inside the system
    for (a, K), F in done.equations.items():
        if sum(K) >= 2:
            continue
        for i in range(3):
            J = list(K)
            J[i] += 1
            cand = done.reduce(sp.jet_expr(a, tuple(J)) - total_derivative(sp, F, i))
            assert cand.is_zero()
    ch = jet_characters(prolong_system(done), random.Random(0))
    assert ch.s == [0, 0, 0] and ch.r2 == 0 and ch.involutive


def test_jet_characters_examples():
    ctx, sp = one_dep_space()
    R = JetSystem(sp, {(0, (1, 0)): ctx.zero}, 1)
    ch = jet_characters(prolong_system(R), random.Random(0))
    assert ch.s == [1, 0] and ch.r2 == 1 and ch.involutive

    free = JetSystem(sp, {}, 1)
    ch2 = jet_characters(prolong_system(free), random.Random(0))
    assert ch2.s == [1, 1] and ch2.r2 == 3 and ch2.involutive

    det = JetSystem(sp, {(0, (1, 0)): ctx.zero, (0, (0, 1)): ctx.zero}, 1)
    ch3 = jet_characters(prolong_system(det), random.Random(0))
    assert ch3.s == [0, 0] and ch3.r2 == 0 and ch3.involutive


def _rank_calls(monkeypatch):
    """Record, per rank the regularity probe takes, whether it ran on
    numbers (True: the witness rank) or over the direction symbols."""
    calls = []

    def counting(rows):
        calls.append(all(isinstance(e, Fraction) for row in rows for e in row))
        return symbolic_rank(rows)

    monkeypatch.setattr(jets, "symbolic_rank", counting)
    return calls


def _hand_report(ctx, tableau, ranks, witnesses):
    """A report on a tableau of a two-variable space."""
    return CharacterReport([], ranks, witnesses, tableau=[[[ctx.parse(e) for e in row] for row in T] for T in tableau])


def test_regularity_probe_falls_back_to_the_exact_rank(monkeypatch):
    ctx, _ = one_dep_space()
    calls = _rank_calls(monkeypatch)
    # a claimed generic rank above the rank of the tableau: the witness rank
    # falls short, the exact rank too, and the probe aborts
    short = _hand_report(ctx, [[["x", "0"]], [["0", "0"]]], [1, 2], [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    with pytest.raises(JetError, match="not constant: rank 1"):
        jets._monitor_regularity(ctx, short, random.Random(0))
    assert calls == [True, False]
    # no witness: the exact rank alone
    calls.clear()
    short.witnesses = [[Fraction(1), Fraction(0)], None]
    with pytest.raises(JetError, match="not constant: rank 1"):
        jets._monitor_regularity(ctx, short, random.Random(0))
    assert calls == [False]
    # witnesses that fall short of a rank the tableau does have: the exact
    # rank decides, at each of the 3 points
    calls.clear()
    witnesses = [[Fraction(2), Fraction(0)], [Fraction(2), Fraction(0)]]
    jets._monitor_regularity(ctx, _hand_report(ctx, [[["x", "0"]], [["0", "y"]]], [1, 2], witnesses), random.Random(0))
    assert calls == [True, False] * 3


def test_regularity_probe_takes_the_witness_rank_on_lagrangian(monkeypatch):
    calls = _rank_calls(monkeypatch)
    jet_characters(prolong_system(encode_gstructure(corpus_problem("lagrangian"))), random.Random(0))
    # a full rank at the witness directions at every point: no rank over the
    # direction symbols runs
    assert calls == [True, True, True]


def test_complete_to_involution():
    ctx, sp = one_dep_space()
    R = JetSystem(sp, {(0, (1, 0)): ctx.sym("u"), (0, (0, 1)): ctx.parse("x*u")}, 1)
    final, log = complete_to_involution(R, random.Random(0), cap=5)
    actions = [s["action"] for s in log]
    assert actions == ["conditions", "cartan-test"]
    assert log[0]["conditions"] == ["u"]
    assert final.equations[(0, (0, 0))].is_zero()

    R2 = JetSystem(sp, {(0, (1, 0)): ctx.zero}, 1)
    final2, log2 = complete_to_involution(R2, random.Random(0), cap=3)
    assert [s["action"] for s in log2] == ["cartan-test"]
    assert log2[0]["involutive"]

    with pytest.raises(JetError):
        complete_to_involution(R, random.Random(0), cap=0)


def test_whole_completion_of_the_lagrangian_ends_where_the_engine_does():
    # the Cartan-Kuranishi completion of the encoded problem and the
    # equivalence method end at the same characters, after as many steps:
    # one adjoined condition against one group reduction, no prolongation
    problem, policy = load_problem(PROBLEMS / "lagrangian.prob")
    _, log = complete_to_involution(encode_gstructure(problem), random.Random(0), cap=5)
    result = run_loop(problem, policy)
    final = result.loops[-1].characters
    assert result.outcome == "involutive" and log[-1]["involutive"]
    assert (tuple(log[-1]["s"]), log[-1]["r_next"]) == (tuple(final.s), final.r2) == ((3, 1, 0), 5)
    jet_steps = [s["action"] for s in log]
    engine_steps = [loop.action for loop in result.loops]
    assert (jet_steps.count("conditions") + jet_steps.count("prolong")
            == engine_steps.count("reduce") + engine_steps.count("prolong") == 1 + 0)


def test_one_prolongation_per_jet_loop(monkeypatch):
    calls = []

    def counting(R):
        calls.append(R)
        return prolong_system(R)

    monkeypatch.setattr(jets, "prolong_system", counting)
    assert crosscheck_characters(corpus_problem("toy_diag"), random.Random(0)).equal
    assert len(calls) == 1

    calls.clear()
    ctx, sp = one_dep_space()
    R = JetSystem(sp, {(0, (1, 0)): ctx.sym("u"), (0, (0, 1)): ctx.parse("x*u")}, 1)
    _, log = complete_to_involution(R, random.Random(0), cap=5)
    loops = [s for s in log if s["action"] != "prolong"]
    assert len(calls) == len(loops) == 2


def test_encode_flat_identity():
    p = corpus_problem("flat_identity")
    R = encode_gstructure(p)
    sp = R.space
    assert R.equations[(0, (1, 0))] == p.ctx.one
    assert R.equations[(0, (0, 1))].is_zero()
    assert R.equations[(1, (1, 0))].is_zero()
    assert R.equations[(1, (0, 1))] == p.ctx.one


def test_encode_gl2_empty():
    p = corpus_problem("flat_gl2")
    R = encode_gstructure(p)
    assert R.equations == {}


def test_encode_lagrangian_reproduces_the_four_equation_system():
    p = corpus_problem("lagrangian")
    ctx = p.ctx
    R = encode_gstructure(p)
    assert len(R.equations) == 4
    sp = R.space
    X, U, P = sp.dependents
    # the contact pair U_p = P X_p is solved exactly
    assert R.equations[(1, (0, 0, 1))] == ctx.sym("P") * sp.jet_expr(0, (0, 0, 1))

    # independent oracle: the four equations derived by hand from
    # g = A(X) (grad X) A(x)^{-1} with the membership pattern of the group
    pe = ctx.parse
    Ez = pe("L_u(x,u,p) - L_xp(x,u,p) - p*L_up(x,u,p)")
    EZ = pe("L_u(X,U,P) - L_xp(X,U,P) - P*L_up(X,U,P)")
    Lz = pe("L_pp(x,u,p)")
    LZ = pe("L_pp(X,U,P)")
    j = {(a, i): sp.jet_expr(a, tuple(1 if t == i else 0 for t in range(3))) for a in range(3) for i in range(3)}
    w = [
        -EZ * j[(0, i)] + LZ * j[(2, i)]  # third row of A(X) grad X
        for i in range(3)
    ]
    oracle = [
        (j[(1, 2)] - ctx.sym("P") * j[(0, 2)]),
        (j[(1, 0)] - ctx.sym("P") * j[(0, 0)])
        + ctx.sym("p") * (j[(1, 1)] - ctx.sym("P") * j[(0, 1)])
        + (Ez / Lz) * (j[(1, 2)] - ctx.sym("P") * j[(0, 2)]),
        w[0] + ctx.sym("p") * w[1] + (Ez / Lz) * w[2],
        (j[(1, 1)] - ctx.sym("P") * j[(0, 1)]) * w[2] - Lz,
    ]
    for eq in oracle:
        assert R.reduce(eq).is_zero(), str(eq)[:120]


def test_encode_requires_membership_or_recovery():
    ctx = Context()
    x = ctx.declare_symbol("x", "coordinate")
    from cartaneq.forms import Chart, Coframe
    from cartaneq.groups import GroupError, ParamGroup

    chart = Chart(ctx, [x])
    eta = Coframe(chart, [[ctx.one]])
    (a,) = ctx.declare_symbols(["a"], "group-parameter")
    # a parametrization that the triangular solver cannot invert slot-wise
    g = ParamGroup(ctx, 1, (a,), [[(1 + ctx.sym("a") ** 3)]], {a: 0})
    from cartaneq.engine import GStructureProblem

    p = GStructureProblem(ctx, chart, eta, g)
    with pytest.raises(GroupError):
        encode_gstructure(p)


def _five_system_corpus():
    out = []
    ctx, sp = one_dep_space()
    out.append(JetSystem(sp, {(0, (1, 0)): ctx.sym("u"), (0, (0, 1)): ctx.parse("x*u")}, 1))
    ctx2, sp2 = one_dep_space()
    out.append(JetSystem(sp2, {(0, (1, 0)): ctx2.zero, (0, (0, 1)): ctx2.zero}, 1))
    ctx3, sp3 = one_dep_space()
    out.append(JetSystem(sp3, {(0, (1, 0)): sp3.jet_expr(0, (0, 1))}, 1))
    # the encoded toy problem (rational right sides)
    out.append(encode_gstructure(corpus_problem("toy_diag")))
    # two dependents with one clash condition
    ctx5 = Context()
    x5, y5 = ctx5.declare_symbols(["x", "y"], "coordinate")
    u5, v5 = ctx5.declare_symbols(["u", "v"], "jet-variable")
    sp5 = JetSpace(ctx5, [x5, y5], [u5, v5])
    out.append(
        JetSystem(
            sp5,
            {(0, (1, 0)): ctx5.sym("v"), (0, (0, 1)): ctx5.zero, (1, (0, 1)): ctx5.sym("u")},
            1,
        )
    )
    return out


def intrinsic_conditions(R: JetSystem) -> list:
    """First-order integrability conditions via the exterior-derivative
    formulation, the reference for ``prolong_system``'s conditions: expand d
    of the zero-order contact forms on R, write the parametric du's in
    horizontal + contact parts with fresh z-slots, and eliminate; the z-free
    relations are the conditions."""
    space = R.space
    ctx = space.ctx
    n, m = space.n, space.m
    assert R.order == 1
    prin = R.principal()
    params = R.parametric_of_order(1)
    zs = [(b, L, i) for (b, L) in params for i in range(n)]
    z_index = {key: t for t, key in enumerate(zs)}

    def first_jet(a: int, i: int):
        key = (a, tuple(int(k == i) for k in range(n)))
        if key in prin:
            return R.equations[key]
        return space.jet_expr(*key)

    # d Upsilon^a|_{R_1} = -sum_i dW_i ^ dx^i with W_i = u^a_i restricted;
    # the dx^j ^ dx^k slot collects the two legs (l, i) with {l, i} = {j, k},
    # where dW_i is expanded over the chart (x, u, parametric first jets) of
    # R_1 and du^b, du^b_L are split into horizontal + contact parts.
    rows = []
    for a in range(m):
        W = [first_jet(a, i) for i in range(n)]
        for j in range(n):
            for k in range(j + 1, n):
                zrow = [ctx.zero] * len(zs)
                horizontal = ctx.zero
                for i, other, sign in ((k, j, 1), (j, k, -1)):
                    e = W[i]
                    part = e.diff(space.independents[other])
                    for b in range(m):
                        d0 = e.diff(space.dependents[b])
                        if not d0.is_zero():
                            part = part + d0 * first_jet(b, other)
                    for (b, L) in params:
                        dz = e.diff(space.jet(b, L))
                        if not dz.is_zero():
                            t = z_index[(b, L, other)]
                            zrow[t] = zrow[t] + sign * dz
                    horizontal = horizontal + sign * part
                rows.append(zrow + [horizontal])
    reduced, pivots = row_reduce(rows, len(zs))
    pivot_rows = {r for r, _ in pivots}
    out = []
    for r in range(len(reduced)):
        if r in pivot_rows:
            continue
        cond = R.reduce(reduced[r][-1])
        if not cond.is_zero():
            out.append(cond)
    return out


def test_intrinsic_extrinsic_agreement():
    for R in _five_system_corpus():
        extrinsic = [R.reduce(c) for c in prolong_system(R).conditions]
        extrinsic = [c for c in extrinsic if not c.is_zero()]
        intrinsic = intrinsic_conditions(R)
        # compare as sets of conditions up to a nonzero rational scale,
        # after reduction modulo each other
        def matches(a, bs):
            for b in bs:
                if (a - b).is_zero():
                    return True
                ratio = None
                q = a / b if not b.is_zero() else None
                if q is not None and q.as_fraction() is not None:
                    return True
            return False

        def deduped(conds):
            kept = []
            for c in conds:
                if not matches(c, kept):
                    kept.append(c)
            return kept

        ded_e = deduped(extrinsic)
        ded_i = deduped(intrinsic)
        assert len(ded_e) == len(ded_i)
        for c in ded_i:
            assert matches(c, ded_e), str(c)


def test_character_basis_independence():
    # recombining the contact rows and the direction space by invertible
    # rational matrices leaves the characters unchanged
    rng = random.Random(17)
    from cartaneq.characters import contract, reduced_characters

    ctx, sp = one_dep_space()
    R = JetSystem(sp, {(0, (1, 0)): sp.jet_expr(0, (0, 1)) * ctx.sym("x")}, 1)
    base = jet_characters(prolong_system(R), random.Random(0))

    # reproduce the gamma-system and transform it
    prin = R.principal()
    cols = R.parametric_of_order(1)
    col_index = {key: t for t, key in enumerate(cols)}

    def gamma_of(b, L):
        vec = [ctx.zero] * len(cols)
        if (b, L) in col_index:
            vec[col_index[(b, L)]] = ctx.one
        elif (b, L) in prin:
            F = R.equations[(b, L)]
            for key, t in col_index.items():
                d = F.diff(sp.jet(*key))
                if not d.is_zero():
                    vec[t] = d
        return vec

    for _ in range(5):
        S = [[ctx.expr(Fraction(rng.randint(-3, 3))) for _ in range(2)] for _ in range(2)]
        from cartaneq.linalg import mat_det

        if mat_det(S).is_zero():
            continue
        Rmix = ctx.expr(Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2])))

        # T_i = -Rmix gamma(d u_{e_i}), rebased as T'_j = sum_i S_ij T_i
        tableau = [[[-Rmix * g for g in gamma_of(0, tuple(1 if t == i else 0 for t in range(2)))]] for i in range(2)]
        rebased = [contract(tableau, [S[0][j], S[1][j]]) for j in range(2)]
        rep = reduced_characters(ctx, len(cols), rebased, base.r2, random.Random(0))
        assert rep.s == base.s


def test_crosscheck_all_four_problems():
    for name in ("flat_identity", "flat_gl2", "toy_diag", "lagrangian"):
        res = crosscheck_characters(corpus_problem(name), random.Random(0))
        assert res.equal, (name, res)


@pytest.mark.parametrize("seed", [5, 38])
def test_implicit_condition_is_refused_not_looped(seed, tmp_path):
    # the jet projection meets a condition X = f(X, ...) that no jet solves,
    # where the engine finds a genuine invariant; solving it anyway nested f
    # without end
    with pytest.raises(JetError, match="cannot solve integrability condition"):
        crosscheck_characters(drawn_problem(seed), random.Random(0))
    path = tmp_path / f"random-{seed}.prob"
    path.write_text(genprob.random_problem_text(seed))
    assert main(["run", str(path)]) == 2


@pytest.mark.xfail(strict=True, reason="engine counts 2 conditions, jets 1; ROADMAP item 6")
@pytest.mark.parametrize("seed", [19, 34])
def test_crosscheck_condition_count_on_mixed_residuals(seed):
    assert crosscheck_characters(drawn_problem(seed), random.Random(0)).equal


def test_solved_form_rejects_circular():
    ctx, sp = one_dep_space()
    with pytest.raises(JetError):
        JetSystem(sp, {(0, (1, 0)): sp.jet_expr(0, (0, 1)), (0, (0, 1)): sp.jet_expr(0, (1, 0)) + 1}, 1)


def test_adjoin_takes_the_new_jet_out_of_every_right_side():
    # u_x = x u_y + f(u_y) holds u_y at top level and inside an opaque
    # argument; adjoining u_y = u leaves no right side holding u_y
    ctx, sp = one_dep_space()
    ctx.declare_opaque("f", ["s"])
    sp.jet(0, (0, 1))  # declares u_y
    R = JetSystem(sp, {(0, (1, 0)): ctx.parse("x*u_y + f(u_y)")}, 1)
    R2 = R.adjoin((0, (0, 1)), ctx.sym("u"))
    assert R2.equations == {(0, (1, 0)): ctx.parse("x*u + f(u)"), (0, (0, 1)): ctx.sym("u")}
    assert all(not (F.free_symbols & {sp.jet(*key) for key in R2.principal()}) for F in R2.equations.values())
    assert R.equations == {(0, (1, 0)): ctx.parse("x*u_y + f(u_y)")} and R2.order == R.order


def test_inconsistent_condition():
    ctx, sp = one_dep_space()
    # u_x = 1 and u_x written through a second equation forcing 0 = 1 after
    # completion: u = x and u_x = 2 clash
    R = JetSystem(sp, {(0, (0, 0)): ctx.sym("x"), (0, (1, 0)): ctx.expr(2)}, 1)
    with pytest.raises(InconsistentSystemError):
        complete_to_order(R)


def test_condition_with_a_constant_numerator_is_inconsistent():
    # u = x forces u_x = 1, so u_x = 1 + 1/u_y leaves 1/u_y = 0, which no
    # value of u_y satisfies
    ctx, sp = one_dep_space()
    sp.jet(0, (0, 1))  # declares u_y
    R = JetSystem(sp, {(0, (0, 0)): ctx.sym("x"), (0, (1, 0)): ctx.parse("1 + 1/u_y")}, 1)
    with pytest.raises(InconsistentSystemError, match=r"condition \(1\)/\(u_y\) has a nonzero constant numerator"):
        complete_to_order(R)


def test_completion_refuses_a_jet_above_the_declared_order():
    # prolonging u = u_x gives u_x = u_xx, a second-order jet in a system
    # declared at order 1
    ctx, sp = one_dep_space()
    R = JetSystem(sp, {(0, (0, 0)): sp.jet_expr(0, (1, 0))}, 1)
    with pytest.raises(JetError, match="condition u_x - u_xx holds a jet above the declared order 1"):
        complete_to_order(R)
