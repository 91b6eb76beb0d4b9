"""Command-line interface: subcommands, document parsing, exit codes, determinism."""

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import amnm
from amnm import counterexamples
from amnm.cli import build_parser, main

CHAIN3 = {"table": [[0, 0, 0], [0, 1, 1], [0, 1, 2]]}
FREE2 = {"table": [[0, 2, 2], [2, 1, 2], [2, 2, 2]]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# validate / invariants / filters.
# ---------------------------------------------------------------------------


def test_validate_accepts_a_chain(tmp_path, capsys):
    code, out, _ = run(capsys, "validate", write_doc(tmp_path, CHAIN3))
    assert code == 0
    assert "valid" in out


def test_validate_reports_structural_errors(tmp_path, capsys):
    bad = {"table": [[1, 0], [0, 1]]}
    code, _, err = run(capsys, "validate", write_doc(tmp_path, bad))
    assert code == 2
    assert "structural error" in err


def test_malformed_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 3


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/nowhere.json")
    assert code == 3


def test_invariants_json_reports_breadth_width_height(tmp_path, capsys):
    code, out, _ = run(capsys, "invariants", "--json", write_doc(tmp_path, FREE2))
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert doc["breadth"] == 2
    assert doc["width"] == 2
    assert doc["height"] == 2
    assert doc["filters"] == 3


def test_invariants_past_sixteen_elements_is_a_usage_error(tmp_path, capsys):
    chain17 = {"table": [[min(i, j) for j in range(17)] for i in range(17)]}
    code, out, err = run(capsys, "invariants", write_doc(tmp_path, chain17))
    assert code == 3
    assert out == ""
    assert 'method="sample"' in err


def test_filters_lists_principal_up_sets(tmp_path, capsys):
    code, out, _ = run(capsys, "filters", "--json", write_doc(tmp_path, CHAIN3))
    assert code == 0
    doc = json.loads(out)
    assert [f["members"] for f in doc["filters"]] == [[0, 1, 2], [1, 2], [2]]


# ---------------------------------------------------------------------------
# defect / correct.
# ---------------------------------------------------------------------------


def _scalar_doc(values):
    return dict(CHAIN3, map={"codomain": "scalar", "values": values})


_M2_UNIT = {"table": [[0, 0], [0, 1]], "map": {"codomain": "m2", "values": [[[1, 0], [0, 1]]] * 2}}
# an exact entry, written out in full, that no float holds
_M2_PAST_THE_FLOAT_RANGE = dict(
    _M2_UNIT, map={"codomain": "m2", "values": [[[10**400, 0], [0, 0]], [[1, 0], [0, 1]]]}
)
# a float beside an exact value that no float holds; an exactly multiplicative
# map with an exact entry that no float holds
_MIXED_PAST_THE_FLOAT_RANGE = {
    "table": [[0, 0], [0, 1]],
    "map": {"codomain": "scalar", "values": [1.0, 10**400]},
}
_M2_IDEMPOTENT_PAST_THE_FLOAT_RANGE = dict(
    _M2_UNIT, map={"codomain": "m2", "values": [[[1, 10**400], [0, 0]], [[1, 0], [0, 1]]]}
)

# (id, argv before the document, the document or None for no document argument)
_INPUT_ERRORS = [
    ("document-not-an-object", ["validate"], [CHAIN3]),
    ("weights-of-the-wrong-length", ["validate"], dict(CHAIN3, weights=[1, 2])),
    ("a-null-weight", ["validate"], dict(CHAIN3, weights=[1, None, 2])),
    ("a-pair-weight", ["validate"], dict(CHAIN3, weights=[1, [1, 2], 2])),
    ("a-boolean-weight", ["validate"], dict(CHAIN3, weights=[1, True, 2])),
    ("a-map-of-the-wrong-length", ["validate"], _scalar_doc([0, 1])),
    ("a-boolean-pair-part", ["defect"], _scalar_doc([[True, False], 1, 1])),
    ("a-string-pair-part", ["defect"], _scalar_doc([["half", 0], 1, 1])),
    ("a-boolean-table", ["validate"], {"table": [[False, False], [False, True]]}),
    ("a-boolean-in-an-integer-table", ["validate"], {"table": [[0, 0], [0, True]]}),
    ("a-null-table-entry", ["validate"], {"table": [[None]]}),
    ("a-string-table-entry", ["validate"], {"table": [["a"]]}),
    ("chain-doc-without-weights", ["counterexample", "--family", "t2-chain", "--m", 1], CHAIN3),
    ("a-bad-base", ["counterexample", "--family", "psi-blocks", "--base", "x"], None),
    ("a-chain-family-without-delta", ["counterexample", "--family", "m2-chain"], None),
    ("t2-chain-without-m", ["counterexample", "--family", "t2-chain"], None),
    ("a-sample-count-below-one", ["invariants", "--breadth-method", "sample", "--samples", -5], FREE2),
    ("a-document-without-a-table", ["validate"], {"n": 3}),
    ("table-rows-that-are-not-lists", ["validate"], {"table": [0, 1]}),
    ("an-n-that-does-not-match-the-table", ["validate"], dict(CHAIN3, n=2)),
    ("a-ragged-table", ["validate"], {"table": [[0, 0], [0]]}),
    ("labels-of-the-wrong-length", ["validate"], dict(CHAIN3, labels=["a", "b"])),
    ("a-map-without-values", ["defect"], dict(CHAIN3, map={"codomain": "scalar"})),
    ("an-unknown-codomain", ["defect"], dict(CHAIN3, map={"codomain": "h", "values": [0, 1, 1]})),
    ("map-values-that-are-not-a-list", ["defect"], dict(CHAIN3, map={"codomain": "t2", "values": 1})),
    ("malformed-map-values", ["defect"], dict(CHAIN3, map={"codomain": "t2", "values": [1, 1, 1]})),
    ("a-document-without-a-map", ["defect"], CHAIN3),
    ("an-m2-entry-past-the-float-range", ["oracle"], _M2_PAST_THE_FLOAT_RANGE),
    ("a-float-beside-a-value-past-the-float-range", ["defect"], _MIXED_PAST_THE_FLOAT_RANGE),
    ("an-oracle-of-a-float-beside-a-value-past-the-range", ["oracle"], _MIXED_PAST_THE_FLOAT_RANGE),
    (
        "a-scalar-correction-of-a-float-beside-a-value-past-the-range",
        ["correct", "--target", "scalar"],
        _MIXED_PAST_THE_FLOAT_RANGE,
    ),
    (
        "an-m2-correction-of-an-idempotent-past-the-float-range",
        ["correct", "--target", "m2"],
        _M2_IDEMPOTENT_PAST_THE_FLOAT_RANGE,
    ),
    ("a-negative-oracle-starts", ["oracle", "--starts", -3], _M2_UNIT),
    # an exact op-norm distance whose maximum is irrational (HS gives sqrt(6))
    (
        "an-irrational-op-distance-at-the-maximum",
        ["oracle", "--norm", "op"],
        {"table": [[0]], "map": {"codomain": "m2", "values": [[[2, 1], [0, 3]]]}},
    ),
    (
        "a-negative-corroborating-starts",
        ["counterexample", "--family", "m2-chain", "--delta", 0.05, "--corroborate", "--starts", -3],
        None,
    ),
    (
        "a-weighted-value-past-the-float-range",
        ["correct", "--target", "weighted", "--epsilon", 1],
        {"table": [[0]], "weights": [1], "map": {"codomain": "scalar", "values": [10**400]}},
    ),
]
_IDS = [c[0] for c in _INPUT_ERRORS]


@pytest.mark.parametrize("argv, doc", [c[1:] for c in _INPUT_ERRORS], ids=_IDS)
def test_input_errors_exit_3(tmp_path, capsys, argv, doc):
    argv = argv if doc is None else [*argv, write_doc(tmp_path, doc)]
    code, out, err = run(capsys, "--json", *map(str, argv))
    assert (code, out) == (3, "")
    assert err.startswith("amnm: ")


def test_a_table_entry_past_the_index_range_is_named_unwrapped(tmp_path, capsys):
    code, out, err = run(capsys, "validate", write_doc(tmp_path, {"table": [[1e30]]}))
    assert (code, out) == (2, "")
    assert "table[0][0] = 1000000000000000019884624838656 is out of range 0..0" in err


def test_a_rational_pair_part_reads_as_its_value(tmp_path, capsys):
    rational = write_doc(tmp_path, _scalar_doc([["1/2", 0], 1, 1]))
    floats = write_doc(tmp_path, _scalar_doc([[0.5, 0.0], 1, 1]), "floats.json")
    code, out, _ = run(capsys, "--json", "defect", rational)
    assert code == 0 and out == run(capsys, "--json", "defect", floats)[1]




def test_defect_exact_rational_output(tmp_path, capsys):
    doc = dict(CHAIN3, weights=["2", "4", "8"], map={"codomain": "scalar", "values": [1, 0, 1]})
    code, out, _ = run(capsys, "defect", "--json", write_doc(tmp_path, doc))
    assert code == 0
    parsed = json.loads(out)
    # worst pair (0, 1): |1*0 - psi(0)| / (2*4) = 1/8
    assert parsed["defect"] == 0.125
    assert parsed["defect_sq"] == "1/64"
    assert parsed["exact"] is True
    assert parsed["witness"] == [0, 1]


NONFINITE = {"table": [[0, 0], [0, 1]], "map": {"codomain": "scalar", "values": [0, 1]}}


def test_a_non_finite_weight_is_an_input_error(tmp_path, capsys):
    doc = dict(NONFINITE, weights=[1, float("inf")])
    code, out, err = run(capsys, "--json", "defect", write_doc(tmp_path, doc))
    assert (code, out) == (3, "")
    assert "input error" in err and "not finite" in err


def test_a_nan_map_value_is_an_input_error(tmp_path, capsys):
    doc = dict(NONFINITE, map={"codomain": "scalar", "values": [0, float("nan")]})
    path = write_doc(tmp_path, doc)
    for argv in (["defect"], ["correct", "--target", "scalar"]):
        code, out, err = run(capsys, "--json", *argv, path)
        assert (code, out) == (3, "")
        assert "input error" in err and "not finite" in err


def test_defect_reads_from_stdin(capsys, monkeypatch):
    doc = dict(CHAIN3, map={"codomain": "scalar", "values": [0, 1, 1]})
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run(capsys, "defect", "-")
    assert code == 0
    assert "0" in out


def test_correct_scalar_emits_certificate(tmp_path, capsys):
    doc = dict(CHAIN3, map={"codomain": "scalar", "values": [[0.02, 0.01], 0.97, 1.01]})
    code, out, _ = run(capsys, "correct", "--target", "scalar", "--json", write_doc(tmp_path, doc))
    assert code == 0
    cert = json.loads(out)
    assert cert["target"] == "scalar"
    assert cert["corrected"]["values"] == [0, 1, 1]
    assert cert["achieved_distance"] <= 1.4 * cert["input_defect"] + 1e-9


def test_correct_scalar_rejects_big_defect(tmp_path, capsys):
    doc = dict(FREE2, map={"codomain": "scalar", "values": [1, 1, 0]})
    code, _, err = run(capsys, "correct", "--target", "scalar", write_doc(tmp_path, doc))
    assert code == 4
    assert "precondition" in err


def test_correct_weighted_requires_weights_and_epsilon(tmp_path, capsys):
    doc = dict(CHAIN3, map={"codomain": "scalar", "values": [1, 1, 1]})
    code, _, err = run(
        capsys, "correct", "--target", "weighted", "--epsilon", "0.5", write_doc(tmp_path, doc)
    )
    assert code == 3  # weights missing


def test_correct_weighted_round_trip(tmp_path, capsys):
    doc = dict(
        CHAIN3,
        weights=["2", "4", "8"],
        map={"codomain": "scalar", "values": [0.99, 1.02, 0.98]},
    )
    code, out, _ = run(
        capsys,
        "correct",
        "--target",
        "weighted",
        "--epsilon",
        "0.9",
        "--round",
        "--json",
        write_doc(tmp_path, doc),
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["target"] == "weighted-scalar"
    assert cert["achieved_distance"] <= 0.9


def test_correct_unweighted_target_rejects_weights_field(tmp_path, capsys):
    doc = dict(
        CHAIN3, weights=["2", "4", "8"], map={"codomain": "scalar", "values": [1, 1, 1]}
    )
    code, _, err = run(capsys, "correct", "--target", "scalar", write_doc(tmp_path, doc))
    assert code == 3


def test_correct_t2(tmp_path, capsys):
    doc = dict(
        CHAIN3,
        map={"codomain": "t2", "values": [[0.01, 0.005], [1.02, -0.01], [0.98, 0.0]]},
    )
    code, out, _ = run(capsys, "correct", "--target", "t2", "--json", write_doc(tmp_path, doc))
    assert code == 0
    cert = json.loads(out)
    assert cert["achieved_distance"] <= (25.0 / 11.0) * cert["input_defect"] + 1e-9


def test_correct_m2(tmp_path, capsys):
    doc = dict(
        CHAIN3,
        map={
            "codomain": "m2",
            "values": [
                [[0.001, 0.0], [0.0, 0.001]],
                [[1.0, 0.002], [0.0, 0.0]],
                [[0.999, 0.0], [0.001, 0.0]],
            ],
        },
    )
    code, out, _ = run(capsys, "correct", "--target", "m2", "--json", write_doc(tmp_path, doc))
    assert code == 0
    cert = json.loads(out)
    assert cert["achieved_distance"] <= cert["claimed_bound"] + 1e-12


# ---------------------------------------------------------------------------
# counterexample / oracle.
# ---------------------------------------------------------------------------


def test_counterexample_psi_blocks(capsys):
    code, out, _ = run(
        capsys, "counterexample", "--family", "psi-blocks", "--sizes", "2,3", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["defect"]["defect"] for r in doc["reports"]] == ["1/4", "1/8"]


def test_psi_blocks_corroboration_builds_its_carrier_once(capsys, monkeypatch):
    # the reports and the corroborating search share one carrier; the cache is
    # cleared around the count so that no carrier built under the patch is kept
    built = []
    real = counterexamples.counterexample_weight
    monkeypatch.setattr(
        counterexamples, "counterexample_weight", lambda *args: built.append(args) or real(*args)
    )
    counterexamples._psi_carrier.cache_clear()
    argv = ["counterexample", "--family", "psi-blocks", "--sizes", "2,3", "--corroborate", "--json"]
    try:
        code, out, _ = run(capsys, *argv)
    finally:
        counterexamples._psi_carrier.cache_clear()
    assert code == 0 and len(built) == 1
    assert [r["defect"]["defect"] for r in json.loads(out)["reports"]] == ["1/4", "1/8"]


def test_counterexample_t2_chain_range(capsys):
    code, out, _ = run(
        capsys,
        "counterexample",
        "--family",
        "t2-chain",
        "--length",
        "10",
        "--m-range",
        "0:3",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["defect"]["defect"] for r in doc["reports"]] == ["1/2", "1/4", "1/8"]


def test_counterexample_m2_chain_with_corroboration(capsys):
    code, out, _ = run(
        capsys,
        "counterexample",
        "--family",
        "m2-chain",
        "--length",
        "12",
        "--delta",
        "0.05",
        "--corroborate",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    rep = doc["reports"][0]
    assert rep["defect"]["defect"] == "3/128"
    assert rep["distance_lower_bound"] == 0.5
    assert doc["corroborations"][0]["value"] >= 0.49


def test_corroboration_refuses_any_search_value_below_the_floor(capsys, monkeypatch):
    # the search's value bounds the distance from above: 0.499 under the floor
    # 0.5 is a contradiction, however small the gap
    real = amnm.cli._nearest

    def below_floor(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), value=0.499)

    monkeypatch.setattr(amnm.cli, "_nearest", below_floor)
    argv = ["counterexample", "--family", "m2-chain", "--length", "6", "--delta", "0.1"]
    code, _, err = run(capsys, *argv, "--corroborate", "--starts", "1")
    assert code == 1
    assert "inside the certified lower bound 0.5" in err


def test_counterexample_nonuniform_needs_a_spiked_weight(capsys, tmp_path):
    # a geometric document has no eligible index -> exit 5
    weights = [str(2 ** (k + 1)) for k in range(12)]
    table = [[min(i, j) for j in range(12)] for i in range(12)]
    doc = {"table": table, "weights": weights}
    code, _, err = run(
        capsys,
        "counterexample",
        "--family",
        "m2-chain-nonuniform",
        "--delta",
        "0.05",
        write_doc(tmp_path, doc),
    )
    assert code == 5


def test_counterexample_nonuniform_default_weight(capsys):
    code, out, _ = run(
        capsys,
        "counterexample",
        "--family",
        "m2-chain-nonuniform",
        "--length",
        "9",
        "--delta",
        "0.05",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["details"]["lemma_scenario"] == "double"


@pytest.mark.parametrize("family", ["m2-chain", "m2-chain-nonuniform"])
@pytest.mark.parametrize("delta", ["0", "1e-320", "nan", "inf"])
def test_a_chain_family_delta_out_of_range_exits_with_its_reason(capsys, family, delta):
    code, out, err = run(capsys, "--json", "counterexample", "--family", family, "--delta", delta)
    if delta != "1e-320":
        want = (3, f"delta must be positive and finite, got {float(delta)!r}")
    elif family == "m2-chain":  # positive and finite, but no weight reaches 2/delta
        want = (5, "no adjacent pair")
    else:  # nor can a float spike reach 6/delta
        want = (3, "6/delta is past the float range")
    assert out == ""
    assert code == want[0]
    assert want[1] in err


@pytest.mark.parametrize("epsilon", ["inf", "nan", "0", "-1"])
def test_a_weighted_correction_epsilon_out_of_range_exits_3(capsys, epsilon):
    path = str(Path(__file__).parent / "golden" / "inputs" / "weighted.json")
    argv = ["--json", "correct", "--target", "weighted", "--epsilon", epsilon, path]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "epsilon must be positive and finite" in err


@pytest.mark.parametrize("delta", ["nan", "inf", "-1"])
def test_an_m2_correction_delta_out_of_range_exits_3(capsys, delta):
    path = str(Path(__file__).parent / "golden" / "inputs" / "m2.json")
    argv = ["--json", "correct", "--target", "m2", "--delta", delta, path]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "delta must be non-negative and finite" in err


def test_oracle_output_is_deterministic(tmp_path, capsys):
    doc = dict(
        CHAIN3,
        map={
            "codomain": "m2",
            "values": [
                [[0.0, 0.0], [0.0, 0.0]],
                [[0.99, 0.01], [0.0, 0.0]],
                [[1.0, 0.0], [0.0, 1.0]],
            ],
        },
    )
    path = write_doc(tmp_path, doc)
    code1, out1, _ = run(capsys, "oracle", "--json", "--seed", "5", path)
    code2, out2, _ = run(capsys, "oracle", "--json", "--seed", "5", path)
    assert code1 == code2 == 0
    assert out1 == out2


def test_oracle_on_norms_past_the_float_range_is_an_input_error(tmp_path, capsys):
    doc = {
        "table": [[0, 0], [0, 1]],
        "map": {"codomain": "m2", "values": [[[[1.5e308, 1.5e308], 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]},
    }
    code, _, err = run(capsys, "oracle", "--json", write_doc(tmp_path, doc))
    assert code == 3
    assert "infinite distance" in err


def test_oracle_on_seeds_past_the_square_range_reports_its_map_distance(tmp_path, capsys):
    # the seed idempotents' squares overflow, so the polish cannot start from them
    doc = {
        "table": [[0, 0], [0, 1]],
        "map": {"codomain": "m2", "values": [[[1.0, 1e247], [0.0, 0.0]], [[0.0, 0.0], [1e207, 1.0]]]},
    }
    code, out, _ = run(capsys, "oracle", "--json", write_doc(tmp_path, doc))
    assert code == 0
    parsed = json.loads(out)
    theta, best = amnm.map_from_json(doc["map"]), amnm.map_from_json(parsed["best_map"])
    distance = amnm.weighted_sup_distance(amnm.validate(doc["table"]), theta, best, "hs")
    assert parsed["value"] == distance == 1e207


def test_oracle_scalar_exhaustive(tmp_path, capsys):
    doc = dict(CHAIN3, map={"codomain": "scalar", "values": [0.1, 0.9, 1.1]})
    code, out, _ = run(capsys, "oracle", "--json", write_doc(tmp_path, doc))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["method"] == "exhaustive"


# ---------------------------------------------------------------------------
# suite and the console entry point.
# ---------------------------------------------------------------------------


def test_suite_fast_runs_green(capsys):
    code, out, _ = run(capsys, "suite", "--fast", "--seed", "3")
    assert code == 0
    assert "all sections passed" in out


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def assert_command_matches_main(capsys, tmp_path, command, env=None):
    """``command + argv`` must print what in-process ``main(argv)`` prints and
    exit with the code it returns: a success and an input error (exit 3)."""
    cases = [
        (["invariants", "--json", write_doc(tmp_path, CHAIN3)], 0),
        (["validate", str(tmp_path / "missing.json")], 3),
    ]
    for argv, expected in cases:
        proc = subprocess.run([*command, *argv], capture_output=True, env=env)
        code, out, _ = run(capsys, *argv)
        assert code == expected
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == out.encode()
        if expected == 0:
            assert json.loads(out)["breadth"] == 1


def test_console_entry_point_matches_module_main(tmp_path, capsys):
    """The ``[project.scripts]`` declaration resolves to ``amnm.cli.main``, and
    the wrapper an installer writes for it behaves exactly like ``main``."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "amnm" in scripts
    module_name, _, attr = scripts["amnm"].partition(":")
    assert getattr(importlib.import_module(module_name), attr) is main
    wrapper = (
        f"import sys; sys.argv[0] = 'amnm'; from {module_name} import {attr}; sys.exit({attr}())"
    )
    package_root = str(Path(amnm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    assert_command_matches_main(capsys, tmp_path, [sys.executable, "-c", wrapper], env)


@pytest.mark.skipif(shutil.which("amnm") is None, reason="amnm console script not installed")
def test_installed_amnm_script_matches_module_main(tmp_path, capsys):
    assert_command_matches_main(capsys, tmp_path, [shutil.which("amnm")])


def test_bad_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3


def test_main_parses_as_a_fresh_parser_on_every_call(tmp_path, capsys):
    """``main`` builds its parser once and reuses it: help, usage errors and
    a ``--json`` given on one call must not differ from a fresh parser's."""
    path = write_doc(tmp_path, CHAIN3)
    for argv in (["--help"], ["defect", "--help"], ["frobnicate"], ["defect"], ["correct", path]):
        seen = []
        for parse in (lambda a: build_parser().parse_args(a), main):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            seen.append((exc.value.code, capsys.readouterr()))
        assert seen[0] == seen[1]
    assert json.loads(run(capsys, "validate", path, "--json")[1])
    code, out, _ = run(capsys, "validate", path)
    assert code == 0 and out == run(capsys, "validate", path)[1] and not out.startswith("{")
