"""Deterministic serialization: the JSON that reports, containers and arrays become."""

from fractions import Fraction

import numpy as np

from amnm import KeyEstimateReport, Mat2, T2Element, canonical_json, to_jsonable


def test_a_key_estimate_report_serializes_its_nested_matrix():
    # a 2x2 matrix becomes its two rows; a complex entry a [re, im] pair, a
    # rational a "p/q" string
    report = KeyEstimateReport(
        trace_class=1,
        trace_distance=0.25,
        nearby_idempotent=Mat2(1, 0.5j, Fraction(1, 3), 0),
        idempotent_distance_bound=0.125,
        achieved_distance=0.0625,
        measured=0.5,
    )
    assert canonical_json(report) == (
        "{\n"
        '  "trace_class": 1,\n'
        '  "trace_distance": 0.25,\n'
        '  "nearby_idempotent": [\n'
        "    [\n"
        "      1,\n"
        "      [\n"
        "        0.0,\n"
        "        0.5\n"
        "      ]\n"
        "    ],\n"
        "    [\n"
        '      "1/3",\n'
        "      0\n"
        "    ]\n"
        "  ],\n"
        '  "idempotent_distance_bound": 0.125,\n'
        '  "achieved_distance": 0.0625,\n'
        '  "measured": 0.5\n'
        "}"
    )


def test_sets_are_sorted_and_arrays_become_lists():
    assert canonical_json({"set": frozenset({3, 1, 2})}) == (
        '{\n  "set": [\n    1,\n    2,\n    3\n  ]\n}'
    )
    assert canonical_json(np.array([[1, 2], [3, 4]])) == (
        "[\n  [\n    1,\n    2\n  ],\n  [\n    3,\n    4\n  ]\n]"
    )


def test_a_t2_element_serializes_as_the_pair_it_is():
    assert to_jsonable(T2Element(1, 0.5)) == [1, 0.5]
