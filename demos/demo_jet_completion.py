"""Completion of first-order PDE systems to involution in jet coordinates.

Prolongation adjoins total derivatives, projection surfaces integrability
conditions, and Cartan's test decides involution from the reduced characters
and the count of parametric higher-order jets.
"""

import random

from cartaneq import Context
from cartaneq.jets import (
    JetSpace,
    JetSystem,
    complete_to_involution,
    jet_characters,
    project_integrability,
    prolong_system,
)


def main():
    ctx = Context()
    x, y = ctx.declare_symbols(["x", "y"], "coordinate")
    u = ctx.declare_symbol("u", "jet-variable")
    space = JetSpace(ctx, [x, y], [u])

    print("-- a system with a hidden condition: u_x = u, u_y = x u --")
    R = JetSystem(space, {(0, (1, 0)): ctx.sym("u"), (0, (0, 1)): ctx.parse("x*u")}, 1)
    prolonged = prolong_system(R)
    conditions, reduced = project_integrability(prolonged)
    print("cross-derivative clash u_xy yields the condition:", conditions[0], "= 0")
    print("completed system:", ", ".join(reduced.pretty()))
    final, log = complete_to_involution(R, random.Random(0), cap=5)
    for step in log:
        print("  ", step)

    print("\n-- an involutive system: u_x = 0 --")
    R2 = JetSystem(space, {(0, (1, 0)): ctx.zero}, 1)
    ch = jet_characters(prolong_system(R2), random.Random(0))
    print(f"characters s = {tuple(ch.s)}, parametric second-order count r2 = {ch.r2}")
    print(f"Cartan's test: {ch.r2} = 1*{ch.s[0]} + 2*{ch.s[1]} ->",
          "involutive" if ch.involutive else "prolong")
    print("(solutions depend on one free function of one variable: u = f(y))")

    print("\n-- a non-genuine system aborts: u_x = u, u_y = x --")
    R3 = JetSystem(space, {(0, (1, 0)): ctx.sym("u"), (0, (0, 1)): ctx.sym("x")}, 1)
    try:
        project_integrability(prolong_system(R3))
    except Exception as exc:
        print("rejected:", exc)


if __name__ == "__main__":
    main()
