"""Schedule-document schema and the command-line interface."""

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest

import twistor4
from twistor4 import cli, cohomology, errors, schema
from twistor4.classify import classify, model_from_document
from twistor4.cli import main
from twistor4.cycles import DEFAULT_ORACLE_SEED, TorsionSpec
from twistor4.errors import ScheduleError
from twistor4.classify import walk_schedules
from twistor4.lattice import BlowupSchedule, BlowupStep, RealizationState

S, N, INF = BlowupStep.smooth, BlowupStep.node, BlowupStep.infinitely_near


# -- schema: round-trips -------------------------------------------------------

def test_document_round_trip_all_step_kinds():
    schedule = BlowupSchedule(
        "I",
        (N(("F", "G")), S("G"), INF(2, "G"), INF(1)),
    )
    doc = schema.document_for(schedule, torsion=TorsionSpec.finite(3))
    parsed = schema.parse_document(doc)
    assert parsed.n == 4
    assert parsed.schedule == schedule
    assert parsed.torsion == TorsionSpec.finite(3)
    # a second emit-parse cycle is byte-stable
    assert schema.canonical_json(
        schema.document_for(parsed.schedule, torsion=parsed.torsion)
    ) == schema.canonical_json(doc)


def test_document_round_trip_through_json_text():
    schedule = BlowupSchedule("II", (S("C0"), N(("F", "C0"))))
    doc = schema.document_for(schedule)
    text = schema.canonical_json(doc)
    assert schema.parse_document(schema.loads_document(text)).schedule == schedule


def test_smooth_variant_document_parses():
    doc = {
        "n": 4,
        "initial_type": "I",
        "steps": [],
        "smooth_anticanonical": True,
        "torsion": {"kind": "infinite"},
    }
    parsed = schema.parse_document(doc)
    assert parsed.schedule is None
    assert parsed.torsion == TorsionSpec.non_torsion()


def test_every_walked_schedule_round_trips_through_its_document():
    # types I and II, plus the type III schedules that blow the nodes first
    roots = [RealizationState("I", 4), RealizationState("II", 4),
             RealizationState("III", 4).extend(N(("A", "Abar")))]
    schedules = [s for root in roots for s, _ in walk_schedules(root)]
    assert len(schedules) == 1480 + 152
    torsions = (None, TorsionSpec.finite(2), TorsionSpec.non_torsion())
    for i, schedule in enumerate(schedules):
        torsion = torsions[i % 3]
        text = schema.canonical_json(schema.document_for(schedule, torsion))
        parsed = schema.parse_document(schema.loads_document(text))
        assert (parsed.schedule, parsed.torsion) == (schedule, torsion)
        again = schema.document_for(parsed.schedule, parsed.torsion)
        assert schema.canonical_json(again) == text


def test_torsion_alias_and_emission():
    assert schema.parse_torsion({"kind": "non_torsion"}) == (
        TorsionSpec.non_torsion()
    )
    assert schema.parse_torsion({"kind": "infinite"}) == TorsionSpec.non_torsion()
    assert schema.torsion_document(TorsionSpec.non_torsion()) == {
        "kind": "infinite"
    }
    assert schema.torsion_document(TorsionSpec.finite(4)) == {
        "kind": "finite",
        "order": 4,
    }


# -- schema: strictness ----------------------------------------------------------

def _base_doc():
    return {
        "n": 1,
        "initial_type": "I",
        "steps": [{"kind": "smooth", "component": "G"}],
    }


def test_unknown_fields_rejected_everywhere():
    doc = _base_doc()
    doc["comment"] = "nope"
    with pytest.raises(ScheduleError, match="unknown field"):
        schema.parse_document(doc)
    doc = _base_doc()
    doc["steps"][0]["note"] = "nope"
    with pytest.raises(ScheduleError, match="unknown field"):
        schema.parse_document(doc)
    doc = _base_doc()
    doc["torsion"] = {"kind": "finite", "order": 2, "extra": 1}
    with pytest.raises(ScheduleError, match="unknown field"):
        schema.parse_document(doc)


def test_missing_fields_rejected():
    with pytest.raises(ScheduleError, match="missing field"):
        schema.parse_document({"n": 1, "steps": []})
    with pytest.raises(ScheduleError, match="missing field"):
        schema.parse_document(
            {"n": 1, "initial_type": "I", "steps": [{"kind": "smooth"}]},
        )


def test_step_count_must_match_n():
    doc = _base_doc()
    doc["n"] = 2
    with pytest.raises(ScheduleError, match="must agree"):
        schema.parse_document(doc)


@pytest.mark.parametrize("smooth", [False, True])
def test_document_n_is_capped_before_its_steps_are_read(smooth):
    # the cap comes first: the steps here are not even JSON objects
    doc = {"n": 151, "initial_type": "I", "steps": [] if smooth else [None] * 151}
    if smooth:
        doc["smooth_anticanonical"] = True
    with pytest.raises(ScheduleError, match=r"^n is capped at 150, got 151$"):
        schema.parse_document(doc)
    # at the cap the document is read on
    doc["n"] = schema.MAX_N
    if smooth:
        assert schema.parse_document(doc).n == 150
    else:
        doc["steps"].pop()
        with pytest.raises(ScheduleError, match="step 1 must be a JSON object"):
            schema.parse_document(doc)


def test_bool_is_not_an_integer():
    doc = _base_doc()
    doc["n"] = True
    with pytest.raises(ScheduleError, match="integer"):
        schema.parse_document(doc)
    with pytest.raises(ScheduleError, match="integer"):
        schema.parse_torsion({"kind": "finite", "order": True})


def test_malformed_documents_rejected():
    with pytest.raises(ScheduleError):
        schema.parse_document(["not", "an", "object"])
    doc = _base_doc()
    doc["initial_type"] = "Q"
    with pytest.raises(ScheduleError):
        schema.parse_document(doc)
    doc = _base_doc()
    doc["steps"] = "smooth G"
    with pytest.raises(ScheduleError):
        schema.parse_document(doc)
    doc = _base_doc()
    doc["steps"] = [{"kind": "teleport"}]
    with pytest.raises(ScheduleError):
        schema.parse_document(doc)
    doc = _base_doc()
    doc["steps"] = [{"kind": "node", "components": ["F", "G", "E1"]}]
    with pytest.raises(ScheduleError):
        schema.parse_document(doc)
    doc = _base_doc()
    doc["steps"] = [{"kind": "infinitely_near", "over_pair": 0}]
    with pytest.raises(ScheduleError):
        schema.parse_document(doc)
    doc = _base_doc()
    doc["smooth_anticanonical"] = "yes"
    with pytest.raises(ScheduleError):
        schema.parse_document(doc)
    doc = _base_doc()
    doc["smooth_anticanonical"] = True
    with pytest.raises(ScheduleError, match="no steps"):
        schema.parse_document(doc)
    with pytest.raises(ScheduleError):
        schema.parse_torsion({"kind": "sometimes"})


@pytest.mark.parametrize("step, message", [
    ({"kind": "smooth", "component": 5}, "needs a component id"),
    ({"kind": "smooth", "component": None}, "needs a component id"),
    ({"kind": "node", "components": ["F", "F"]}, "two distinct component ids"),
    ({"kind": "node", "components": ["F", 7]}, "two distinct component ids"),
    ({"kind": "node", "components": ["F"]}, "two distinct component ids"),
    ({"kind": "node", "components": "FG"}, "must be a list of two ids"),
    ({"kind": "infinitely_near", "over_pair": 0}, "positive over_pair"),
    ({"kind": "infinitely_near", "over_pair": True}, "positive over_pair"),
    ({"kind": "infinitely_near", "over_pair": 1.0}, "positive over_pair"),
    ({"kind": "infinitely_near", "over_pair": 1, "on_strict_transform": 3},
     "on_strict_transform is a component id"),
])
def test_malformed_step_value_names_its_position(step, message):
    doc = _base_doc()
    doc["n"] = 2
    doc["steps"].append(step)
    with pytest.raises(ScheduleError) as info:
        schema.parse_document(doc)
    assert str(info.value).startswith("step 2: ")
    assert message in str(info.value)


def test_step_kind_must_be_a_known_string():
    for kind in ("teleport", None, ["smooth"], {"smooth": 1}):
        doc = _base_doc()
        doc["steps"][0]["kind"] = kind
        with pytest.raises(ScheduleError, match="step 1 kind must be"):
            schema.parse_document(doc)


def test_canonical_json_and_digest():
    a = {"b": 1, "a": [1, 2]}
    b = {"a": [1, 2], "b": 1}
    assert schema.canonical_json(a) == schema.canonical_json(b) == '{"a":[1,2],"b":1}'
    digest = schema.document_digest(_base_doc())
    assert len(digest) == 12 and int(digest, 16) >= 0
    other = _base_doc()
    other["n"] = 1
    other["steps"] = [{"kind": "smooth", "component": "F"}]
    assert schema.document_digest(other) != digest


_DEEP_JSON = '{"a":' * 5000 + "1" + "}" * 5000


def test_loads_document_rejects_bad_json():
    with pytest.raises(ScheduleError, match="invalid JSON"):
        schema.loads_document("{not json")
    with pytest.raises(ScheduleError, match="invalid JSON: nested too deeply"):
        schema.loads_document(_DEEP_JSON)


# -- CLI: helpers -----------------------------------------------------------------

def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- CLI: computation subcommands ---------------------------------------------------

def test_cli_chern(capsys):
    code, out, _ = _run(capsys, "chern", "--n", "3")
    assert code == 0
    assert "c1^3  = 16" in out and "c1.c2 = 24" in out and "c3    = 10" in out
    data = _run_json(capsys, "chern", "--n", "4", "--json")
    assert data == {"n": 4, "c1_cubed": 0, "c1_c2": 24, "c3": 12}


def test_cli_pairing(capsys):
    code, out, _ = _run(capsys, "pairing", "--n", "2", "--matrix")
    assert code == 0
    assert "det = -4" in out and "kernel: trivial" in out
    code, out, _ = _run(capsys, "pairing", "--n", "4")
    assert code == 0 and "kernel: (1, 1, 1, 1, 2)\n" in out
    data = _run_json(capsys, "pairing", "--n", "4", "--json")
    assert data["det"] == 0
    assert data["kernel"] == [[1, 1, 1, 1, 2]]
    assert data["matrix"][0] == [2, 0, 0, 0, 1]
    assert data["matrix"][4] == [-1, -1, -1, -1, -2]


def test_cli_pairing_n_is_capped(capsys):
    # chern and ring share the cap: each builds tuples of length n
    for command, *rest in (("pairing",), ("chern",), ("ring", "--expr", "w w w")):
        assert _run(capsys, command, "--n", "150", *rest)[0] == 0
        for n in (151, 10 ** 6):
            code, out, err = _run(capsys, command, "--n", str(n), *rest)
            assert code == 1 and out == ""
            assert err == f"error: --n is capped at 150, got {n}\n"


def test_cli_pairing_json_at_the_cap(capsys):
    data = _run_json(capsys, "pairing", "--n", "150", "--json")
    assert data["n"] == 150 and data["kernel"] == []
    assert data["det"] == 2 ** 149 * 146


def test_cli_reports_a_failed_invariant_as_a_violation(capsys, monkeypatch):
    # |det| is right, the sign is not: the signed closed form refuses it
    monkeypatch.setattr(cohomology.linalg, "bareiss_determinant", lambda rows: 4)
    code, out, err = _run(capsys, "pairing", "--n", "2")
    assert code == 2 and out == ""
    assert err == ("violation: invariant-pairing-determinant: "
                   "computed 4, closed form -4 at n=2\n")


def test_cli_euler(capsys):
    code, out, _ = _run(capsys, "euler", "--n", "4", "--m", "7")
    assert code == 0 and out.strip() == "8"
    data = _run_json(capsys, "euler", "--n", "2", "--m", "3", "--json")
    assert data == {"n": 2, "m": 3, "chi": 3 + 1 + 2 * 2 * 10}
    code, _, err = _run(capsys, "euler", "--n", "4", "--m", "-1")
    assert code == 1 and "error:" in err
    code, _, err = _run(capsys, "euler", "--n", "0", "--m", "1")
    assert code == 1


def test_cli_ring(capsys):
    data = _run_json(capsys, "ring", "--n", "4", "--expr", "w*w*w", "--json")
    assert data["degree"] == 6
    assert data["evaluation"] == 1 - 4
    assert data["pretty"] == "3*w*x1^2"
    code, out, _ = _run(capsys, "ring", "--n", "4", "--expr", "w*w*w")
    assert code == 0 and "evaluation: -3\n" in out
    code, out, _ = _run(capsys, "ring", "--n", "2", "--expr", "x1 x1")
    assert code == 0 and "degree: 4" in out
    code, _, err = _run(capsys, "ring", "--n", "2", "--expr", "x3")
    assert code == 1 and "does not exist" in err
    code, _, err = _run(capsys, "ring", "--n", "2", "--expr", "y1")
    assert code == 1 and "unknown generator" in err
    code, _, err = _run(capsys, "ring", "--n", "2", "--expr", "  ")
    assert code == 1


def test_cli_cycle_h0(capsys):
    data = _run_json(
        capsys, "cycle-h0", "--degrees", "2,-2,2,-2", "--oracle", "--json",
    )
    assert data["formula"] == 2 and data["oracle"] == 2 and data["agree"] is True
    assert data["seed"] == DEFAULT_ORACLE_SEED
    assert data["hypothesis_violation"] is None
    code, out, _ = _run(capsys, "cycle-h0", "--degrees", "1,-1,1,-1")
    assert code == 0 and "formula: 0" in out


def test_cli_cycle_h0_hypothesis_violation(capsys):
    # formula hypotheses fail (one negative only): violation without the
    # oracle, rescued when the oracle supplies the value
    code, _, err = _run(capsys, "cycle-h0", "--degrees", "3,-1,0,0")
    assert code == 2
    assert err.startswith("violation: too-few-negatives")
    data = _run_json(
        capsys, "cycle-h0", "--degrees", "3,-1,0,0", "--oracle", "--json",
    )
    assert data["formula"] is None
    assert data["hypothesis_violation"] == "too-few-negatives"
    assert isinstance(data["oracle"], int)
    code, out, _ = _run(capsys, "cycle-h0", "--degrees", "3,-1,0,0", "--oracle")
    assert code == 0 and "hypothesis violated (too-few-negatives)" in out


def test_cli_cycle_h0_malformed_degrees(capsys):
    code, _, err = _run(capsys, "cycle-h0", "--degrees", "1,two,3")
    assert code == 1 and "comma-separated" in err
    code, _, err = _run(capsys, "cycle-h0", "--degrees", "5")
    assert code == 1 and "at least two" in err


def test_cli_cycle_h0_oracle_total_degree_is_capped(capsys):
    assert _run(capsys, "cycle-h0", "--degrees", "250,-250,250,-250", "--oracle")[0] == 0
    code, out, err = _run(
        capsys, "cycle-h0", "--degrees", "250,-250,250,-251", "--oracle",
    )
    assert code == 1 and out == ""
    assert err == "error: --oracle is capped at sum(|deg|) = 1000, got 1001\n"
    # the closed formula alone costs nothing and is not capped
    code, out, _ = _run(capsys, "cycle-h0", "--degrees", "250,-250,250,-251")
    assert code == 0 and out.startswith("formula: ")


def test_cli_cycle_h0_oracle_component_count_is_capped(capsys, monkeypatch):
    # every component adds a row to the oracle's system; a stub oracle
    # shows which calls get past the cap
    calls = []
    monkeypatch.setattr(cli, "h0_oracle",
                        lambda bundle, seed: calls.append(bundle.m) or 1)
    code, out, _ = _run(capsys, "cycle-h0", "--degrees", ",".join(["0"] * 1000),
                        "--oracle")
    assert code == 0 and calls == [1000]
    assert out.endswith("oracle (seed=20260816): 1\n")
    code, out, err = _run(capsys, "cycle-h0", "--degrees",
                          ",".join(["0"] * 1001), "--oracle")
    assert code == 1 and out == "" and calls == [1000]
    assert err == "error: --oracle is capped at 1000 components, got 1001\n"


def test_cli_seed_resolution(capsys, monkeypatch):
    monkeypatch.setenv("TWISTOR_SEED", "17")
    data = _run_json(
        capsys, "cycle-h0", "--degrees", "2,-2,2,-2", "--oracle", "--json",
    )
    assert data["seed"] == 17
    data = _run_json(
        capsys,
        "cycle-h0", "--degrees", "2,-2,2,-2", "--oracle", "--seed", "5",
        "--json",
    )
    assert data["seed"] == 5  # explicit flag beats the environment
    monkeypatch.setenv("TWISTOR_SEED", "not-a-number")
    code, _, err = _run(
        capsys, "cycle-h0", "--degrees", "2,-2,2,-2", "--oracle",
    )
    assert code == 1 and "TWISTOR_SEED" in err


# -- CLI: classify ------------------------------------------------------------------

def test_cli_classify_golden_files(capsys):
    code, out, _ = _run(capsys, "classify", "schedules/case_a.json")
    assert code == 0
    assert "case: REAL_MINUS_2 (case a)" in out
    assert "algebraic dimension: 3" in out
    code, out, _ = _run(capsys, "classify", "schedules/case_b.json")
    assert code == 0 and "case: PAIR_MINUS_2 (case b)" in out
    assert "lebrun: yes" in out and "degree-one count: infinite" in out
    code, out, _ = _run(capsys, "classify", "schedules/case_c.json")
    assert code == 0 and "case: PAIRS_MINUS_1 (case c)" in out
    assert "dim |-2K_S|: 2" in out and "dim |-K_Z|: 4" in out
    code, out, _ = _run(capsys, "classify", "schedules/nef.json")
    assert code == 0 and "case: NEF" in out and "tau: 1" in out


def test_cli_classify_json_is_byte_stable(capsys):
    code1, out1, _ = _run(capsys, "classify", "schedules/case_c.json", "--json")
    code2, out2, _ = _run(capsys, "classify", "schedules/case_c.json", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["case"] == "PAIRS_MINUS_1"
    assert data["negative_curves"] == [["G", -1], ["Gbar", -1]]


def test_cli_classify_error_paths(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, err = _run(capsys, "classify", str(missing))
    assert code == 1 and "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = _run(capsys, "classify", str(bad))
    assert code == 1 and "invalid JSON" in err

    deep = tmp_path / "deep.json"
    deep.write_text(_DEEP_JSON, encoding="utf-8")
    code, out, err = _run(capsys, "classify", str(deep))
    assert code == 1 and out == ""
    assert err == "error: invalid JSON: nested too deeply to parse\n"

    wrong_n = tmp_path / "wrong_n.json"
    wrong_n.write_text(
        json.dumps(
            {
                "n": 1,
                "initial_type": "I",
                "steps": [{"kind": "smooth", "component": "G"}],
            }
        ),
        encoding="utf-8",
    )
    code, _, err = _run(capsys, "classify", str(wrong_n))
    assert code == 1 and "n = 4" in err


def test_cli_classify_refuses_a_large_n_before_realizing(tmp_path, capsys):
    smooth = {"n": 2_000_000, "initial_type": "I", "steps": [],
              "smooth_anticanonical": True}
    steps = {"n": 151, "initial_type": "I",
             "steps": [{"kind": "smooth", "component": "G"}] * 151}
    for doc in (smooth, steps):
        path = tmp_path / "large.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = _run(capsys, "classify", str(path))
        assert code == 1 and out == ""
        assert err == f"error: n is capped at 150, got {doc['n']}\n"


def test_cli_classify_violations_exit_2(tmp_path, capsys):
    nef_without_torsion = tmp_path / "nef.json"
    nef_without_torsion.write_text(
        json.dumps(
            {
                "n": 4,
                "initial_type": "I",
                "steps": [
                    {"kind": "smooth", "component": "F"},
                    {"kind": "smooth", "component": "F"},
                    {"kind": "smooth", "component": "G"},
                    {"kind": "smooth", "component": "G"},
                ],
            }
        ),
        encoding="utf-8",
    )
    code, _, err = _run(capsys, "classify", str(nef_without_torsion))
    assert code == 2 and err.startswith("violation: torsion-required")

    unrealizable = tmp_path / "unrealizable.json"
    unrealizable.write_text(
        json.dumps(
            {
                "n": 4,
                "initial_type": "II",
                "steps": [
                    {"kind": "smooth", "component": "C0"},
                    {"kind": "node", "components": ["F", "C0"]},
                    {"kind": "smooth", "component": "E3"},
                    {"kind": "smooth", "component": "E3"},
                ],
            }
        ),
        encoding="utf-8",
    )
    code, _, err = _run(capsys, "classify", str(unrealizable))
    assert code == 2 and err.startswith("violation: case-c-structure")

    off_cycle = tmp_path / "off_cycle.json"
    off_cycle.write_text(
        json.dumps(
            {
                "n": 4,
                "initial_type": "I",
                "steps": [
                    {"kind": "smooth", "component": "G"},
                    {"kind": "infinitely_near", "over_pair": 1},
                    {"kind": "smooth", "component": "G"},
                    {"kind": "smooth", "component": "G"},
                ],
            }
        ),
        encoding="utf-8",
    )
    code, _, err = _run(capsys, "classify", str(off_cycle))
    assert code == 2
    assert err.startswith("violation: point-off-anticanonical-cycle")


# -- CLI: enumerate -------------------------------------------------------------------

def test_cli_enumerate_limit_and_table(capsys):
    code, out, _ = _run(capsys, "enumerate", "--limit", "5")
    assert code == 0
    assert "exhausted: no" in out
    assert out.count("\n") >= 7  # header, rule, five rows, summary
    code, _, err = _run(capsys, "enumerate", "--limit", "0")
    assert code == 1 and "--limit" in err


def test_cli_enumerate_json_round_trip(capsys):
    data = _run_json(capsys, "enumerate", "--json")
    assert data["exhausted"] is True
    assert data["visited"] == 1480
    assert len(data["entries"]) == 58
    for entry in data["entries"][:10]:
        assert entry["digest"] == schema.document_digest(entry["document"])
        if entry["report"] is not None:
            report = classify(model_from_document(entry["document"]))
            assert report.as_dict() == entry["report"]
    # emitted JSON is byte-stable across runs
    data_again = _run_json(capsys, "enumerate", "--json")
    assert data_again == data


_ENUMERATE_JSON_SHA256 = (
    "918cee63dc80362a4b3a22f0ab34c4348b0d58c2054960c37e84f306afb0a4bb"
)


def test_cli_enumerate_json_bytes_are_pinned(capsys):
    code, out, _ = _run(capsys, "enumerate", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _ENUMERATE_JSON_SHA256


_ENUMERATE_TABLE_SHA256 = (
    "c5adad34bd8cb68f5d162fc5ab052dc62abc5223c0245be696cdbe011e0bdfe6"
)


def test_cli_enumerate_table_bytes_are_pinned(capsys):
    # the full text table, error rows included
    code, out, _ = _run(capsys, "enumerate")
    assert code == 0
    assert "error:case-c-structure" in out
    assert out.endswith("visited 1480 schedules; 58 entries; exhausted: yes\n")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _ENUMERATE_TABLE_SHA256


_ENUMERATE_LIMIT_10_JSON_SHA256 = (
    "438eb58696d5ae852ef35d968bc307afcf74254376f4aefa2a188faac2ac73d2"
)


def test_cli_enumerate_limit_json_bytes_are_pinned(capsys):
    # a capped walk keeps the same first representatives
    code, out, _ = _run(capsys, "enumerate", "--limit", "10", "--json")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == _ENUMERATE_LIMIT_10_JSON_SHA256


def test_cli_under_python_O_keeps_its_results():
    # with asserts stripped, nothing the program computes may change: no
    # control flow rests on an assert
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-O", "-m", "twistor4.cli", *argv],
            capture_output=True, env=env, check=True,
        ).stdout

    selftest = run("selftest").decode("utf-8")
    assert selftest.count(": PASS - ") == 10
    assert selftest.strip().endswith("10/10 criteria passed")
    enumerated = run("enumerate", "--json")
    assert hashlib.sha256(enumerated).hexdigest() == _ENUMERATE_JSON_SHA256


# -- the names the benchmark traces ---------------------------------------------------

def test_every_traced_name_resolves():
    # the benchmark's tracer patches twistor4 by name, and a deleted or
    # renamed name stops its traced runs: install it, then take it off
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()  # an AttributeError here names the missing attribute
        patched = list(tracer._restore)
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    assert {attr for _, attr, _ in patched} >= {
        "__post_init__", *chain.from_iterable(spans.FUNCTIONS.values()),
        *(name for methods in spans.METHODS.values() for _, name in methods)}
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("module", ["twistor4"] + [
    f"twistor4.{info.name}" for info in pkgutil.iter_modules(twistor4.__path__)])
def test_every_exported_name_resolves(module):
    # a name deleted from a module but left in an ``__all__`` would break
    # ``from twistor4 import *`` and every caller that trusts the list
    namespace = importlib.import_module(module)
    for name in getattr(namespace, "__all__", ()):
        assert hasattr(namespace, name), f"{module}.{name}"


# -- the package surface: each re-exported module's ``__all__`` ---------------------

_REEXPORTED = ("cohomology", "cycles", "errors", "lattice", "classify")


def test_the_package_surface_is_the_reexported_modules_lists():
    modules = [importlib.import_module(f"twistor4.{name}") for name in _REEXPORTED]
    # pairwise disjoint: with wildcard imports a later module would
    # otherwise silently shadow an earlier module's name
    for i, first in enumerate(modules):
        for second in modules[i + 1:]:
            shared = set(first.__all__) & set(second.__all__)
            assert not shared, (first.__name__, second.__name__, shared)
    assert twistor4.__all__ == [
        "__version__", *(name for module in modules for name in module.__all__)]
    for module in modules:
        for name in module.__all__:
            assert getattr(twistor4, name) is getattr(module, name), name
    # the other modules stay out, and so does ``errors.check``
    for info in pkgutil.iter_modules(twistor4.__path__):
        if info.name not in _REEXPORTED:
            module = importlib.import_module(f"twistor4.{info.name}")
            assert not set(getattr(module, "__all__", ())) & set(twistor4.__all__)
    assert "check" not in twistor4.__all__


def test_star_import_binds_exactly_the_package_all():
    namespace = {}
    exec("from twistor4 import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(twistor4.__all__)


def test_twistor4_classify_is_the_function_and_the_submodule_stays_importable():
    module = importlib.import_module("twistor4.classify")
    assert module is sys.modules["twistor4.classify"]
    assert twistor4.classify is module.classify


# -- CLI: one output path --------------------------------------------------------------

def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# one sample per error class: (exception, exit code, stderr)
_ERROR_SAMPLES = {
    errors.TwistorError: (errors.TwistorError("plain"), 1, "error: plain\n"),
    errors.ScheduleError: (errors.ScheduleError("bad"), 1, "error: bad\n"),
    errors.DegreeError: (errors.DegreeError("too big"), 1, "error: too big\n"),
    errors.TaggedError: (errors.TaggedError("some-tag", "why"), 2,
                         "violation: some-tag: why\n"),
    errors.RealizabilityError: (
        errors.RealizabilityError("negative-pattern", "why"), 2,
        "violation: negative-pattern: why\n"),
    errors.HypothesisError: (
        errors.HypothesisError("too-few-negatives", "why"), 2,
        "violation: too-few-negatives: why\n"),
    errors.TorsionRequiredError: (errors.TorsionRequiredError("why"), 2,
                                  "violation: torsion-required: why\n"),
    errors.InvariantError: (errors.InvariantError("report-h0", "why"), 2,
                            "violation: invariant-report-h0: why\n"),
}


@pytest.mark.parametrize(
    "cls", [errors.TwistorError, *_subclasses(errors.TwistorError)],
    ids=lambda cls: cls.__name__)
def test_cli_exit_code_follows_the_tag(capsys, monkeypatch, cls):
    # a new error class must be listed above, with the exit code it gets
    exc, expected_code, expected_err = _ERROR_SAMPLES[cls]

    def failing(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_chern", failing)
    code, out, err = _run(capsys, "chern", "--n", "4")
    assert (code, out, err) == (expected_code, "", expected_err)


_JSON_SAMPLES = {
    "chern": ["--n", "4"],
    "pairing": ["--n", "3", "--matrix"],
    "euler": ["--n", "4", "--m", "2"],
    "ring": ["--n", "4", "--expr", "w w w"],
    "cycle-h0": ["--degrees", "2,-2,2,-2", "--oracle"],
    "classify": ["schedules/case_b.json"],
    "enumerate": ["--limit", "2"],
}


def test_json_samples_cover_every_subcommand_but_selftest():
    subparsers = next(action for action in cli._build_parser()._actions
                      if action.dest == "command")
    assert set(subparsers.choices) == set(_JSON_SAMPLES) | {"selftest"}


@pytest.mark.parametrize("command", sorted(_JSON_SAMPLES))
def test_cli_json_is_one_canonical_line(capsys, command):
    code, out, err = _run(capsys, command, *_JSON_SAMPLES[command], "--json")
    assert code == 0 and err == ""
    assert out == schema.canonical_json(json.loads(out)) + "\n"


def test_cli_selftest_takes_no_json(capsys):
    code, out, err = _run(capsys, "selftest", "--json")
    assert code == 1 and out == ""
    assert err == "error: unrecognized arguments: --json\n"


_SUBCOMMANDS = ("chern", "pairing", "euler", "ring", "cycle-h0", "classify",
                "enumerate", "selftest")


@pytest.mark.parametrize("argv", [(), *((name,) for name in _SUBCOMMANDS)],
                         ids=["twistor4", *_SUBCOMMANDS])
def test_cli_help_returns_zero(capsys, argv):
    # ``--help`` prints argparse's help text and main returns 0, as for any
    # other success, instead of raising SystemExit
    parser = cli._build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert set(commands) == set(_SUBCOMMANDS)
    expected = (commands[argv[0]] if argv else parser).format_help()
    assert _run(capsys, *argv, "--help") == (0, expected, "")


def test_python_m_twistor4_help_exits_zero():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    package, module = (
        subprocess.run([sys.executable, "-m", name, "--help"],
                       capture_output=True, env=env)
        for name in ("twistor4", "twistor4.cli"))
    assert package.returncode == module.returncode == 0
    assert package.stdout == module.stdout
    assert package.stdout.startswith(b"usage: twistor4 ")


def test_cli_prints_the_result_before_a_failure(capsys, monkeypatch):
    # a disagreeing oracle: the result, then the violation, exit 2
    monkeypatch.setattr(cli, "h0_oracle", lambda bundle, seed: 99)
    code, out, err = _run(capsys, "cycle-h0", "--degrees", "2,-2,2,-2", "--oracle")
    assert code == 2
    assert out == f"formula: 2\noracle (seed={DEFAULT_ORACLE_SEED}): 99\nagree: NO\n"
    assert err == ("violation: formula-oracle-disagreement: the closed formula "
                   "and the kernel oracle differ (2 vs 99)\n")
    data = json.loads(_run(capsys, "cycle-h0", "--degrees", "2,-2,2,-2",
                           "--oracle", "--json")[1])
    assert (data["formula"], data["oracle"], data["agree"]) == (2, 99, False)
    # a failed criterion: every line, then exit 1 with nothing on stderr
    acceptance = importlib.import_module("twistor4.acceptance")
    monkeypatch.setattr(acceptance, "run_all", lambda: [
        acceptance.CriterionResult(1, "one", True, "fine", 0.0),
        acceptance.CriterionResult(2, "two", False, "broken", 0.0)])
    assert _run(capsys, "selftest") == (1, (
        "criterion 1 (one): PASS - fine\ncriterion 2 (two): FAIL - broken\n"
        "1/2 criteria passed\n"), "")


# -- CLI: usage errors -----------------------------------------------------------------

def test_cli_usage_errors_exit_1(capsys):
    code, _, err = _run(capsys, "no-such-command")
    assert code == 1 and "error:" in err
    code, _, err = _run(capsys, "chern")
    assert code == 1
    code, _, err = _run(capsys, "chern", "--n", "four")
    assert code == 1
    code, _, err = _run(capsys, "enumerate", "--bogus")
    assert code == 1


def test_cli_index_errors_exit_1_and_tagged_errors_exit_2(capsys):
    # a bad generator index is malformed input; a failed hypothesis is tagged
    code, out, err = _run(capsys, "ring", "--n", "4", "--expr", "x5 w")
    assert (code, out, err) == (1, "", "error: x5 does not exist for n=4\n")
    code, out, err = _run(capsys, "ring", "--n", "4", "--expr", "x0")
    assert (code, out, err) == (1, "", "error: x0 does not exist for n=4\n")
    code, out, err = _run(capsys, "euler", "--n", "4", "--m", "-1")
    assert (code, out) == (1, "") and err.startswith("error: ")
    code, out, err = _run(capsys, "cycle-h0", "--degrees", "1,1")
    assert (code, out) == (2, "") and err.startswith("violation: too-few-components: ")


def test_cli_chern_rejects_unsupported_n(capsys):
    code, _, err = _run(capsys, "chern", "--n", "0")
    assert code == 1 and "error:" in err


# -- CLI: selftest ----------------------------------------------------------------------

def test_cli_selftest_runs_all_criteria(capsys):
    code, out, _ = _run(capsys, "selftest")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("criterion")]
    assert len(lines) == 10
    assert all(": PASS - " in line for line in lines)
    assert out.strip().endswith("10/10 criteria passed")
