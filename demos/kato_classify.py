"""Potential-class verdicts from the shrinking-window modulus ladder.

A potential belongs to the admissible class when its local singular
integrals vanish uniformly as the window shrinks; the heat-semigroup
characterization gives an equivalent test.  The script classifies the
bundled potential shapes, printing the shrink ratio and the heat-leg
values behind each verdict.  The failing case is an inverse power at
or past the integrability threshold.
"""

from dunklkit import kato
from dunklkit.reflection import RootSystem
from dunklkit.schrodinger import potential_function


def main():
    rs = RootSystem.z2_product([0.5])
    probes = (0.0, 0.25, 0.5, 1.0, 2.0)
    cases = (
        ("constant", {"c": 1.0}),
        ("soft_coulomb", {"a": 1.0}),
        ("bump", {"h": 1.0, "w": 4.0}),
        ("inverse_power", {"beta": 0.75}),
        ("inverse_power", {"beta": 1.5}),
    )
    print("potential               verdict        shrink ratio   heat(1)/heat(0.03)")
    # one call classifies every shape: their heat legs share one quadrature
    reports = kato.classify(rs, [potential_function(name, **params) for name, params in cases], probes)
    for (name, params), rep in zip(cases, reports):
        ratio = rep.diagnostics.get("shrink_ratio", float("nan"))
        if rep.heat_modulus:
            hr = rep.heat_modulus[1.0] / max(rep.heat_modulus[0.03], 1e-300)
            heat = "%.1f" % hr
        else:
            heat = "-"
        label = "%s(%s)" % (name, ",".join("%s=%g" % kv for kv in params.items()))
        print("%-22s  %-12s  %10.4f    %s" % (label, rep.verdict, ratio, heat))

    # exact anchor: for V = 1 the heat characterization integrates to t
    one = potential_function("constant", c=1.0)
    for t in (0.3, 1.0):
        h = kato.heat_modulus(rs, one, t, probes=(0.0, 1.0))
        print("heat_modulus(V=1, t=%.1f) = %.12f  (quadrature error %.1e)" % (t, h.value, h.error))


if __name__ == "__main__":
    main()
