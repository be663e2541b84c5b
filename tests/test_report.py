"""Pins the report encoding byte for byte on hand-built result values.

Every float site of the ``foliate`` body gets an inf, -inf, nan or
``np.float64`` value, the ``analyze`` bodies carry a Fraction bound, a None
Milnor number and None certificates, and the ``newton`` body nested tuples
and Fraction weights; each test asserts the exact rendered document."""

from __future__ import annotations

import math

import numpy as np

import germlab
from germlab import report
from germlab.foliation import (
    DEFAULT_T_GRID,
    ArcSample,
    FoliationReport,
    LinkSample,
    PairDichotomy,
    TangencyEstimate,
)
from germlab.germ import AnalysisReport, Certificates, FaceVerdict, HypothesisEntry, NewtonAnalysis
from germlab.germfile import load_raw, load_system
from germlab.newton import Face, NewtonDiagram, NondegeneracyReport

from conftest import F

GERM = {"variables": ["y", "x"], "equations": ["x^2 + y^4"]}
LEDGER = [
    HypothesisEntry("a", "X is an ICIS", "verified", "dim Sing = 0"),
    HypothesisEntry("b", "slice is reduced", "unchecked", "budget"),
]


def rendered(command: str, data: dict, seed: int, body: dict) -> str:
    return report.render(report.document(command, data, seed, None, body))


def expected(text: str) -> str:
    return text.replace('"version": "VERSION"', f'"version": "{germlab.__version__}"')


def arc(distance: float, gram: float, converged_count: int) -> ArcSample:
    sample = LinkSample(s=(1j, 0j), distance_to_sigma=distance)
    n = len(DEFAULT_T_GRID)
    converged = (True,) * converged_count + (False,) * (n - converged_count)
    return ArcSample(
        sample, 0.5 + 0j, ((1j, 0j),) * n, (0.0,) * n, converged, gram, ((0.0,),) * n,
    )


def test_foliate_floats_render_nonfinite_as_strings():
    result = FoliationReport(
        passed=False,
        failures=("pair (0, 1) collided",),
        dichotomy=(
            PairDichotomy(
                (0, 1),
                TangencyEstimate(math.inf, math.nan, (np.float64(1e-3), 0.25)),
                TangencyEstimate(np.float64(1.5), -math.inf, (math.inf, -math.inf)),
                False,
            ),
        ),
        min_separation=np.float64(math.nan),
        separation_ok=False,
        coordinate_planes_ok=True,
        converged_fraction=np.float64(0.75),
        arcs=(arc(math.inf, np.float64(-math.inf), 2), arc(np.float64(0.125), math.nan, 0)),
        reference_arcs=(),
    )
    body = report.foliate_body(load_system(GERM), result, F(-1, 3), 4, "arcs.csv", ["RuntimeWarning: overflow"])
    assert rendered("foliate", GERM, 5, body) == expected(FOLIATE)


def test_analysis_renders_fraction_bound_and_none_mu():
    data = dict(GERM, assumptions=["milnor-fibre"])
    certificates = Certificates(
        fast_cycle_dim=1, homotopy="S^1", mu=None, tangent_cone_coordinate_span=2, exponent_bound=F(7, 3)
    )
    result = AnalysisReport("FAST_CYCLE_FOUND", 2, certificates, LEDGER, ["from the report", "extra"])
    loaded = load_system(data)
    body = report.analysis_body(loaded, result, loaded.assumptions)
    assert rendered("analyze", data, 0, body) == expected(ANALYZE)


def test_analysis_renders_none_certificates():
    data = dict(GERM, assumptions=["milnor-fibre"])
    result = AnalysisReport("HYPOTHESES_UNVERIFIED", None, None, LEDGER[1:])
    body = report.analysis_body(load_system(data), result, {"noncontractible-component"})
    assert rendered("analyze", data, 0, body) == expected(ANALYZE_UNCERTIFIED)


def test_newton_renders_nested_tuples_and_face_weights():
    data = {"variables": ["x", "y"], "equations": ["x^3 + x*y + y^3"]}
    edge = Face(1, ((1, 1), (3, 0)), (1, 2), 3)
    corner = Face(0, ((1, 1),), (3, 3), 6)
    diagram = NewtonDiagram(((0, 3), (1, 1), (3, 0)), (edge, corner), True)
    nondegeneracy = NondegeneracyReport(["nondegenerate", "undetermined"], ["exact", "probabilistic"])
    verdicts = [
        FaceVerdict(0, (F(1, 3), F(2, 3)), None, None, False, False, "unchecked", "budget"),
        FaceVerdict(1, (F(1, 2), F(1, 2)), 0, True, True, True, "certificate", "dim 0"),
    ]
    analysis = NewtonAnalysis(diagram, nondegeneracy, False, verdicts, ["note"])
    body = report.newton_body(load_raw(data), analysis)
    assert rendered("newton", data, 1, body) == expected(NEWTON)


FOLIATE = '''\
{
  "breakpoints": [
    1,
    2
  ],
  "command": "foliate",
  "degrees": [
    "1"
  ],
  "foliate": {
    "arcs": [
      {
        "converged_count": 2,
        "distance_to_sigma": "inf",
        "gram_determinant": "-inf",
        "grid_size": 20
      },
      {
        "converged_count": 0,
        "distance_to_sigma": 0.125,
        "gram_determinant": "nan",
        "grid_size": 20
      }
    ],
    "checks": {
      "coordinate_planes_ok": true,
      "dichotomy": [
        {
          "ok": false,
          "pair": [
            0,
            1
          ],
          "perturbed": {
            "alpha": 1.5,
            "r2": "-inf",
            "window": [
              "inf",
              "-inf"
            ]
          },
          "unperturbed": {
            "alpha": "inf",
            "r2": "nan",
            "window": [
              0.001,
              0.25
            ]
          }
        }
      ],
      "min_separation": "nan",
      "separation_ok": false
    },
    "converged_fraction": 0.75,
    "csv_path": "arcs.csv",
    "epsilon": "-1/3",
    "failures": [
      "pair (0, 1) collided"
    ],
    "notes": [
      "RuntimeWarning: overflow"
    ],
    "passed": false,
    "samples": {
      "obtained": 2,
      "requested": 4
    }
  },
  "input": {
    "equations": [
      "x^2 + y^4"
    ],
    "variables": [
      "y",
      "x"
    ]
  },
  "original_variables": [
    "y",
    "x"
  ],
  "permutation": [
    0,
    1
  ],
  "perturbation": [
    "0"
  ],
  "principal": [
    "y^4 + x^2"
  ],
  "same_order": false,
  "schema_version": 1,
  "seeds": {
    "root": 5
  },
  "timing_seconds": null,
  "tool": {
    "name": "germlab",
    "version": "VERSION"
  },
  "variables": [
    "y",
    "x"
  ],
  "weights": [
    "1/4",
    "1/2"
  ]
}
'''


ANALYZE = '''\
{
  "analysis": {
    "certificates": {
      "exponent_bound": "7/3",
      "fast_cycle_dim": 1,
      "homotopy": "S^1",
      "mu": null,
      "tangent_cone_coordinate_span": 2
    },
    "hypothesis_ledger": [
      {
        "evidence": "dim Sing = 0",
        "key": "a",
        "statement": "X is an ICIS",
        "status": "verified"
      },
      {
        "evidence": "budget",
        "key": "b",
        "statement": "slice is reduced",
        "status": "unchecked"
      }
    ],
    "l": 2,
    "notes": [
      "from the report",
      "extra"
    ],
    "verdict": "FAST_CYCLE_FOUND"
  },
  "assumptions": [
    "milnor-fibre"
  ],
  "breakpoints": [
    1,
    2
  ],
  "command": "analyze",
  "degrees": [
    "1"
  ],
  "input": {
    "assumptions": [
      "milnor-fibre"
    ],
    "equations": [
      "x^2 + y^4"
    ],
    "variables": [
      "y",
      "x"
    ]
  },
  "original_variables": [
    "y",
    "x"
  ],
  "permutation": [
    0,
    1
  ],
  "perturbation": [
    "0"
  ],
  "principal": [
    "y^4 + x^2"
  ],
  "same_order": false,
  "schema_version": 1,
  "seeds": {
    "root": 0
  },
  "timing_seconds": null,
  "tool": {
    "name": "germlab",
    "version": "VERSION"
  },
  "variables": [
    "y",
    "x"
  ],
  "weights": [
    "1/4",
    "1/2"
  ]
}
'''


ANALYZE_UNCERTIFIED = '''\
{
  "analysis": {
    "certificates": null,
    "hypothesis_ledger": [
      {
        "evidence": "budget",
        "key": "b",
        "statement": "slice is reduced",
        "status": "unchecked"
      }
    ],
    "l": null,
    "notes": [],
    "verdict": "HYPOTHESES_UNVERIFIED"
  },
  "assumptions": [
    "noncontractible-component"
  ],
  "breakpoints": [
    1,
    2
  ],
  "command": "analyze",
  "degrees": [
    "1"
  ],
  "input": {
    "assumptions": [
      "milnor-fibre"
    ],
    "equations": [
      "x^2 + y^4"
    ],
    "variables": [
      "y",
      "x"
    ]
  },
  "original_variables": [
    "y",
    "x"
  ],
  "permutation": [
    0,
    1
  ],
  "perturbation": [
    "0"
  ],
  "principal": [
    "y^4 + x^2"
  ],
  "same_order": false,
  "schema_version": 1,
  "seeds": {
    "root": 0
  },
  "timing_seconds": null,
  "tool": {
    "name": "germlab",
    "version": "VERSION"
  },
  "variables": [
    "y",
    "x"
  ],
  "weights": [
    "1/4",
    "1/2"
  ]
}
'''


NEWTON = '''\
{
  "command": "newton",
  "equation": "x^3 + y^3 + x*y",
  "input": {
    "equations": [
      "x^3 + x*y + y^3"
    ],
    "variables": [
      "x",
      "y"
    ]
  },
  "newton": {
    "any_certificate": true,
    "convenient": true,
    "criterion_applicable": false,
    "face_verdicts": [
      {
        "certificate": false,
        "dim_condition": null,
        "evidence": "budget",
        "face_index": 0,
        "lower_weights_coincide": false,
        "sing_dim": null,
        "sorted_weights": [
          "1/3",
          "2/3"
        ],
        "status": "unchecked"
      },
      {
        "certificate": true,
        "dim_condition": true,
        "evidence": "dim 0",
        "face_index": 1,
        "lower_weights_coincide": true,
        "sing_dim": 0,
        "sorted_weights": [
          "1/2",
          "1/2"
        ],
        "status": "certificate"
      }
    ],
    "faces": [
      {
        "dim": 1,
        "inner_normal": [
          1,
          2
        ],
        "is_top": true,
        "level": 3,
        "vertices": [
          [
            1,
            1
          ],
          [
            3,
            0
          ]
        ],
        "weights": [
          "1/3",
          "2/3"
        ]
      },
      {
        "dim": 0,
        "inner_normal": [
          3,
          3
        ],
        "is_top": false,
        "level": 6,
        "vertices": [
          [
            1,
            1
          ]
        ],
        "weights": [
          "1/2",
          "1/2"
        ]
      }
    ],
    "nondegeneracy": {
      "overall": null,
      "per_face": [
        {
          "face": 0,
          "method": "exact",
          "status": "nondegenerate"
        },
        {
          "face": 1,
          "method": "probabilistic",
          "status": "undetermined"
        }
      ]
    },
    "notes": [
      "note"
    ],
    "support": [
      [
        0,
        3
      ],
      [
        1,
        1
      ],
      [
        3,
        0
      ]
    ]
  },
  "schema_version": 1,
  "seeds": {
    "root": 1
  },
  "timing_seconds": null,
  "tool": {
    "name": "germlab",
    "version": "VERSION"
  },
  "variables": [
    "x",
    "y"
  ]
}
'''
