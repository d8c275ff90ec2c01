"""The divergence-equivalence problem for first-order Lagrangians, end to end.

A contact transformation preserves the Lagrangian L(x, u, p) up to a total
divergence exactly when it solves the G-structure problem for the contact
coframe and a 5-parameter matrix group.  The run below reproduces the
classical answer: one normalization (the residual -a4^2/(a1 L_pp) set to -1)
reduces the group, and the reduced problem passes Cartan's test with
characters (3, 1, 0), so the symmetry pseudo-group depends on three functions
of one variable and one function of two variables.
"""

from pathlib import Path

from cartaneq.engine import run_loop
from cartaneq.problems import load_problem
from cartaneq.report import render_text


def main():
    problem, policy = load_problem(Path(__file__).parent.parent / "problems" / "lagrangian.prob")
    print("chart: (x, u, p);  structure group: 5 parameters\n")

    result = run_loop(problem, policy)
    print(render_text(result))

    loop1, loop2 = result.loops
    residual = [t for t in loop1.solution.torsion if not t.expr.is_zero()][0]
    print("the single essential torsion residual of loop 0:", residual.expr)
    print("its normalization produced the isotropy condition recorded above;")
    print("the reduced group is the paper's 4-parameter group with b1 = b4^2.\n")

    ch = loop2.characters
    print(f"reduced Cartan characters: s = {tuple(ch.s)}")
    print(f"fiber dimension r2 = {ch.r2}; Cartan's test: "
          f"{ch.r2} = 1*{ch.s[0]} + 2*{ch.s[1]} + 3*{ch.s[2]}")
    print("involutive at order one: the general symmetry depends on",
          f"{ch.s[0]} functions of 1 variable and {ch.s[1]} function of 2 variables")


if __name__ == "__main__":
    main()
