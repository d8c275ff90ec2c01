"""Structure equations of a coframe: d eta^i = sum B^i_jk eta^j ^ eta^k.

Computes the structure functions of the contact coframe of a first-order
Lagrangian L(x, u, p), the starting data of the divergence-equivalence
problem, and shows the row form of the exterior algebra along the way: a
form is the row of its coefficients against a coframe, or against its wedge
products on the pairs j < k.
"""

from cartaneq import Context
from cartaneq.forms import (
    Chart,
    Coframe,
    exterior_derivative,
    exterior_square,
    pairs,
    rewrite_in_coframe,
    structure_functions,
)
from cartaneq.linalg import identity_matrix


def show(row, basis):
    return " + ".join(f"({c}) {b}" for c, b in zip(row, basis) if not c.is_zero()) or "0"


def main():
    ctx = Context()
    x, u, p = ctx.declare_symbols(["x", "u", "p"], "coordinate")
    ctx.declare_opaque("L", ["x", "u", "p"])
    chart = Chart(ctx, [x, u, p])

    Et = ctx.parse("L_u(x,u,p) - L_xp(x,u,p) - p*L_up(x,u,p)")
    Lpp = ctx.parse("L_pp(x,u,p)")
    eta = Coframe(
        chart,
        [[ctx.one, ctx.zero, ctx.zero],
         [-ctx.sym("p"), ctx.one, ctx.zero],
         [-Et, ctx.zero, Lpp]],
    )
    print("coframe: eta1 = dx, eta2 = du - p dx, eta3 = -E dx + L_pp dp")
    print("coframe determinant (must be nonzero):", eta.det())

    print("\n-- structure functions --")
    B = structure_functions(eta)
    for (i, j, k), val in sorted(B.items()):
        if not val.is_zero():
            print(f"B^{i + 1}_({j + 1}{k + 1}) =", val)
    print("(every other entry vanishes; note B^3_(13) = 0: the coframe is adapted)")

    print("\n-- exterior algebra on coefficient rows --")
    cc = Coframe(chart, identity_matrix(ctx, 3))
    dx_pairs = [f"d{chart.coords[j].name}^d{chart.coords[k].name}" for j, k in pairs(3)]
    eta3 = eta.transition[2]
    w = exterior_square(eta.transition)[pairs(3).index((1, 2))]
    print("eta2 ^ eta3 =", show(w, dx_pairs))
    (d3,) = exterior_derivative([eta3], cc)
    print("d eta3 =", show(d3, dx_pairs))
    (d3_eta,) = rewrite_in_coframe([d3], 2, cc, eta)
    print("d eta3 rewritten in the coframe eta is row B^3:", d3_eta == [B[(2, j, k)] for j, k in pairs(3)])

    f = ctx.parse("L(x,u,p)*x")
    (ddf,) = exterior_derivative([[f.diff(c) for c in chart.coords]], cc)
    print("d(d(L x)) is zero:", all(c.is_zero() for c in ddf))


if __name__ == "__main__":
    main()
