"""Exit-code fuzz: every germ file and flag set ends in a documented exit code.

Generated germ files (valid and invalid shapes, Gaussian, rational and huge
coefficients, weights such as ``"1e400"``, ``"0"`` and ``"1/0"``) go through
``germlab.cli.main`` in-process with each of the five commands.  Every run
must return 0, 1, 10 or 20 without raising, and whatever reaches the
process's stdout or stderr file descriptors must be a ``germlab:`` line, never
a traceback or LAPACK's own output.  Budgets stay at most 200 steps and
``foliate`` draws two samples, so the whole suite takes a few seconds.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from germlab.cli import main

EXIT_CODES = {0, 1, 10, 20}
VARIABLES = ["x", "y", "z"]
HUGE = "1" + "0" * 400  # 10^400, past the float range

_coefficients = st.one_of(
    st.integers(-6, 6).map(str),
    st.sampled_from(["3/2", "-1/7", "i", "(1+2*i)", "(2/3-1/3*i)", HUGE, f"1/{HUGE}"]),
)


@st.composite
def _polynomials(draw, variables: list[str]) -> str:
    # (hypothesis favours the ends of a range: the rare branch sits inside it)
    if draw(st.integers(0, 9)) == 5:  # text the grammar refuses
        return draw(st.sampled_from(["", "x^", "x**2", "2x", "x^0", "w^2", "(x)", "x^2 +", "1/0*x^2"]))
    monomials = st.lists(st.tuples(st.sampled_from(variables), st.integers(1, 6)), min_size=1, max_size=3)
    terms = []
    if draw(st.booleans()):  # pure powers: a convenient germ whose weights can be inferred
        terms = [f"{name}^{draw(st.integers(2, 6))}" for name in variables]
    for _ in range(draw(st.integers(0 if terms else 1, 3))):
        factors = [f"{name}^{power}" for name, power in draw(monomials)]
        if draw(st.booleans()):
            factors.insert(0, draw(_coefficients))
        terms.append("*".join(factors))
    return " + ".join(terms)


_weight = st.sampled_from(["1", "2", "1/2", "1/3", "2/5", "3/7", "1e400", "1e-400"])
_bad_weight = st.sampled_from(["0", "-1", "1/0", "abc"])


@st.composite
def _germ_files(draw) -> str:
    """The text of a germ file: mostly a valid shape, sometimes not."""
    shape = draw(st.sampled_from(["equations", "equations", "split", "broken", "equations"]))
    if shape == "broken":
        return draw(st.sampled_from([
            "{not json", "[]", "{}", '{"variables": []}', '{"variables": ["x"], "weight": ["1"]}',
            '{"variables": ["x", "x"], "equations": ["x^2"]}', '{"variables": ["x"], "equations": [2]}',
            '{"variables": ["i"], "equations": ["i^2"]}', '{"variables": ["x"], "equations": []}',
        ]))
    variables = VARIABLES[: draw(st.sampled_from([3, 3, 3, 2, 1]))]
    data: dict = {"variables": variables}
    count = draw(st.sampled_from([1, 1, 1, 2]))
    equations = [draw(_polynomials(variables)) for _ in range(count)]
    if shape == "equations":
        data["equations"] = equations
    else:
        perturbation = [draw(_polynomials(variables)) for _ in range(count)] if draw(st.booleans()) else []
        data["split"] = {"principal": equations, "perturbation": perturbation}
    if draw(st.booleans()):
        weights = [draw(_weight) for _ in variables]
        flaw = draw(st.sampled_from(["none", "none", "none", "bad", "extra"]))
        if flaw == "bad":
            weights[draw(st.integers(0, len(weights) - 1))] = draw(_bad_weight)
        elif flaw == "extra":
            weights.append("1")
        data["weights"] = weights
    if draw(st.integers(0, 4)) == 2:
        data["assumptions"] = draw(st.sampled_from([["milnor-fibre"], ["nonsense"]]))
    return json.dumps(data)


@st.composite
def _commands(draw) -> list[str]:
    """A command and its flags; foliate on one draw in about fourteen."""
    command = draw(st.sampled_from(["analyze", "sigma", "newton", "milnor"] * 3 + ["analyze", "foliate"]))
    argv = [command, "--seed", str(draw(st.integers(-1, 20))), "--budget", str(draw(st.integers(0, 200)))]
    if command == "analyze" and draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--assume-milnor-fibre", "--assume-noncontractible-component"])))
    if command == "newton" and draw(st.booleans()):
        argv.append("--probabilistic-nnd")
    if command == "foliate":
        argv += ["--samples", draw(st.sampled_from(["2", "2", "1"]))]
        if draw(st.booleans()):
            # one word: argparse reads a separate "-3/7" as an option
            argv.append("--epsilon=" + draw(st.sampled_from(["1/2", "1/10", "-3/7", "0", "abc", "1e400"])))
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(germ=_germ_files(), command=_commands())
@example(
    germ=json.dumps({"variables": VARIABLES, "equations": ["x^2+y^2+z^2"], "weights": ["1e400", "1", "1"]}),
    command=["foliate", "--samples", "2"],
)
@example(
    germ=json.dumps({"variables": VARIABLES, "equations": [f"x^2+y^2+{HUGE}*z^2"]}),
    command=["foliate", "--samples", "2"],
)
@example(
    germ=json.dumps({"variables": VARIABLES, "equations": [f"x^2+y^2+{HUGE}*z^2"]}),
    command=["newton", "--probabilistic-nnd", "--budget", "5"],
)
@example(
    germ=json.dumps({"variables": VARIABLES, "equations": ["x^2+y^2+z^2+z^3"], "weights": ["1/2"] * 3}),
    command=["foliate", "--samples", "2", "--epsilon=1/2"],
)
def test_every_input_ends_in_a_documented_exit_code(tmp_path, capfd, germ, command):
    path = tmp_path / "germ.json"
    path.write_text(germ, encoding="utf-8")
    argv = [command[0], str(path), "--out", str(tmp_path / "report.json"), *command[1:]]
    if command[0] == "foliate":
        argv += ["--csv", str(tmp_path / "arcs.csv")]
    capfd.readouterr()
    code = main(argv)
    out, err = capfd.readouterr()
    event(f"{command[0]} exit {code}")
    assert code in EXIT_CODES
    assert out == ""
    lines = err.splitlines()
    assert len(lines) <= 1 and all(line.startswith("germlab: ") for line in lines), err
