"""The cross-validation battery shared by the CLI and the acceptance tests.

Four exponent sets at p = 2, 3, 5, each with coefficients presented over the
prime field and over its quadratic extension; seven of the quadratic cases
have coefficients generating the full extension, which forces a Frobenius
orbit of length two.  A separate pair of degenerate cases puts three
exponents on one edge of the polytope with coefficients whose edge
polynomial has a double root on the torus.  WIDE_P_BATTERY, outside the
battery, takes four exponent sets to p = 7, 11 and 13 with every coefficient
1, for routes B and C alone.
"""

EXPONENT_SETS = {
    "single": ((1,),),
    "kloosterman": ((1,), (-1,)),
    "skew": ((2,), (-1,)),
    "triangle": ((1, 0), (0, 1), (-1, -1)),
    "edge": ((0, 1), (1, 0), (2, -1)),
}


def _case(cid, p, aname, coeffs, m=1, expected_d=1):
    return {
        "id": cid,
        "p": p,
        "A": EXPONENT_SETS[aname],
        "A_name": aname,
        "coeffs": coeffs,
        "field_degree": m,
        "epsilon": 1,
        "expected_d": expected_d,
    }


BATTERY = [
    _case("p2-single", 2, "single", ((1,),)),
    _case("p2-kloosterman", 2, "kloosterman", ((1,), (1,))),
    _case("p2-skew", 2, "skew", ((1,), (1,))),
    _case("p2-triangle", 2, "triangle", ((1,), (1,), (1,))),
    _case("p3-single", 3, "single", ((1,),)),
    _case("p3-kloosterman", 3, "kloosterman", ((1,), (1,))),
    _case("p3-skew", 3, "skew", ((1,), (2,))),
    _case("p3-triangle", 3, "triangle", ((1,), (2,), (1,))),
    _case("p5-single", 5, "single", ((2,),)),
    _case("p5-kloosterman", 5, "kloosterman", ((1,), (3,))),
    _case("p5-skew", 5, "skew", ((2,), (1,))),
    _case("p5-triangle", 5, "triangle", ((1,), (1,), (1,))),
    _case("p2-single-f4", 2, "single", ((0, 1),), m=2, expected_d=2),
    _case("p2-kloosterman-f4", 2, "kloosterman", ((0, 1), (1,)), m=2, expected_d=2),
    _case("p2-skew-f4", 2, "skew", ((0, 1), (1, 1)), m=2, expected_d=2),
    _case("p2-triangle-f4", 2, "triangle", ((0, 1), (1,), (1, 1)), m=2,
          expected_d=2),
    _case("p3-single-f9", 3, "single", ((0, 1),), m=2, expected_d=2),
    _case("p3-kloosterman-f9", 3, "kloosterman", ((0, 1), (1,)), m=2,
          expected_d=2),
    _case("p3-skew-f9", 3, "skew", ((0, 1), (2,)), m=2, expected_d=2),
    _case("p3-triangle-f9", 3, "triangle", ((1,), (2,), (1,)), m=2),
    _case("p5-single-f25", 5, "single", ((2,),), m=2),
    _case("p5-kloosterman-f25", 5, "kloosterman", ((1,), (3,)), m=2),
    _case("p5-skew-f25", 5, "skew", ((2,), (1,)), m=2),
    _case("p5-triangle-f25", 5, "triangle", ((1,), (1,), (1,)), m=2),
]

DEGENERATE_BATTERY = [
    _case("p3-edge-degenerate", 3, "edge", ((1,), (2,), (1,))),
    _case("p5-edge-degenerate", 5, "edge", ((1,), (2,), (1,))),
]

WIDE_P_BATTERY = [
    _case(f"p{p}-{aname}", p, aname, ((1,),) * len(EXPONENT_SETS[aname]))
    for p in (7, 11, 13) for aname in ("kloosterman", "skew", "triangle", "edge")
]

QUICK_IDS = [
    "p2-kloosterman", "p3-kloosterman", "p3-skew", "p2-triangle",
    "p2-kloosterman-f4", "p3-skew-f9",
]


def job_dict(case, precision=4, routes=("A", "B", "C", "oracle"), lmax=6):
    return {
        "p": case["p"],
        "A": [list(v) for v in case["A"]],
        "coeffs": [list(c) for c in case["coeffs"]],
        "epsilon": case["epsilon"],
        "field_degree": case["field_degree"],
        "precision": precision,
        "routes": list(routes),
        "lmax": lmax,
    }
