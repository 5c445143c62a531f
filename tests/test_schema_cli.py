"""Schedule-document schema and the command-line interface."""

import argparse
import ast
import hashlib
import importlib
import importlib.util
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

import twistor4
from twistor4 import cli, cohomology, errors, linalg, oracle, schema
from twistor4.classify import classify, model_from_document
from twistor4.cli import main
from twistor4.cycles import DEFAULT_ORACLE_SEED, TorsionSpec
from twistor4.errors import InvariantError, ScheduleError
from twistor4.classify import walk_schedules
from twistor4.lattice import (
    BlowupSchedule,
    BlowupStep,
    RealizationState,
    SurfaceLattice,
    realize_cycle,
)
from pins import PINS, Pin, PinError, check

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
    # the lower bounds: n >= 0 and a finite torsion order >= 1
    for field, value, message in (
        ("n", -1, "n must be >= 0, got -1"),
        ("torsion", {"kind": "finite", "order": 0}, "order must be >= 1, got 0"),
        ("torsion", {"kind": "finite", "order": -1}, "order must be >= 1, got -1"),
    ):
        doc = _base_doc()
        doc[field] = value
        with pytest.raises(ScheduleError, match=message):
            schema.parse_document(doc)


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


_G = {"kind": "smooth", "component": "G"}


def _type_i_text(steps, **fields):
    """A type I document's JSON text, ``fields`` added or overriding."""
    return json.dumps({"n": len(steps), "initial_type": "I", "steps": steps,
                       **fields})


@pytest.mark.parametrize("text, message", [
    ('{"n": 4, "initial_type": "I"',
     "invalid JSON: Expecting ',' delimiter: line 1 column 29 (char 28)"),
    (_type_i_text([_G] * 4, comment="unknown"),
     "unknown field(s) ['comment'] in document"),
    (_type_i_text([_G] * 4, z=0, a=0), "unknown field(s) ['a', 'z'] in document"),
    (_type_i_text([_G, {**_G, "note": 1}, _G, _G]),
     "unknown field(s) ['note'] in step 2"),
    (json.dumps({"steps": [], "n": 0}),
     "missing field(s) ['initial_type'] in document"),
    (_type_i_text([_G, {"kind": "smooth"}, _G, _G]),
     "missing field(s) ['component'] in step 2"),
    (_type_i_text([{"kind": "teleport", "component": "G"}, _G, _G, _G]),
     "step 1 kind must be 'smooth', 'node' or 'infinitely_near', got 'teleport'"),
    (_type_i_text([_G] * 4, n=3),
     "n=3 but the document lists 4 steps; they must agree"),
    (_type_i_text([_G, {"kind": "smooth", "component": "Z9"}, _G, _G]),
     "component 'Z9' does not exist; cycle is ('F', 'G', 'Fbar', 'Gbar')"),
    (_type_i_text([_G, {"kind": "infinitely_near", "over_pair": 2,
                        "on_strict_transform": None}, _G, _G]),
     "step 2 is infinitely near over pair 2, which is not strictly earlier"),
    (_type_i_text([_G] * 4, torsion={"kind": "finite", "order": 0}),
     "torsion order must be >= 1, got 0"),
    (_type_i_text([_G] * 3),
     "classification requires n = 4 conjugate pairs, got n = 3"),
    (_type_i_text([{"kind": "node", "components": ["F", "Fbar"]}, _G, _G, _G]),
     "components F and Fbar are not adjacent; cycle is ('F', 'G', 'Fbar', 'Gbar')"),
], ids=["truncated-json", "unknown-field", "unknown-fields-sorted",
        "unknown-step-field", "missing-field", "missing-step-field",
        "unknown-step-kind", "n-not-the-step-count", "unknown-component",
        "over-pair-not-earlier", "torsion-order-below-1", "n-three",
        "nodes-not-adjacent"])
def test_the_document_path_pins_each_malformed_message(text, message):
    # the malformed kinds of the benchmark stream, a missing field and an
    # unknown step kind, each with its whole message, from text to report
    with pytest.raises(ScheduleError) as info:
        classify(model_from_document(schema.loads_document(text)))
    assert type(info.value) is ScheduleError
    assert str(info.value) == message


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


def test_text_past_the_digit_limit_and_bytes_past_utf8_raise_schedule_errors(tmp_path):
    # json.loads refuses an int of more than 4,300 digits with a plain
    # ValueError on the Pythons that limit int-string conversion, and a file
    # that is not UTF-8 fails in its read; both are malformed documents.
    # Where no digit limit applies, the MAX_N cap refuses the same n
    text = '{"n": ' + "7" * 5000 + ', "initial_type": "I", "steps": []}'
    with pytest.raises(ScheduleError, match="^invalid JSON: |^n is capped at "):
        classify(model_from_document(schema.loads_document(text)))
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 0, "initial_type": "I\xff", "steps": []}')
    with pytest.raises(ScheduleError, match="^invalid JSON: not UTF-8 text: "):
        classify(model_from_document(schema.load_document(path)))


def _mutants(data, rng, count):
    """``count`` seeded mutants of the bytes ``data``: byte flips,
    truncations and runs of digits put in after a digit."""
    digits = [i for i, byte in enumerate(data) if chr(byte).isdigit()]
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            mutant = bytearray(data)
            for _ in range(rng.randint(1, 3)):
                mutant[rng.randrange(len(data))] = rng.randrange(256)
            yield bytes(mutant)
        elif kind == 1:
            yield data[:rng.randrange(len(data))]
        else:
            at = rng.choice(digits) + 1
            run = rng.choice((1, 3, 20, 4300, 5000)) * rng.choice("0179").encode()
            yield data[:at] + run + data[at:]


def test_no_mutant_of_a_golden_document_escapes_as_anything_but_a_twistor_error(
        tmp_path):
    # a seeded sweep over the four goldens' bytes, read from a file as the
    # CLI reads them: whatever a mutant breaks, the library refuses it with
    # a TwistorError, or classifies it
    rng, path, outcomes = random.Random(40), tmp_path / "mutant.json", Counter()
    for golden in sorted((_ROOT / "schedules").glob("*.json")):
        for mutant in _mutants(golden.read_bytes(), rng, 600):
            path.write_bytes(mutant)
            try:
                classify(model_from_document(schema.load_document(path)))
                outcomes["classified"] += 1
            except errors.TwistorError as exc:
                outcomes[type(exc).__name__] += 1
            except Exception as exc:  # the leak under test
                pytest.fail(f"{type(exc).__name__} escaped on {mutant[:120]!r}: {exc}")
    assert sum(outcomes.values()) == 2400 and outcomes["ScheduleError"] > 0
    assert outcomes["classified"] > 0


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
    monkeypatch.setattr(linalg, "bareiss_determinant", lambda rows: 4)
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
    assert set(data) == {"degrees", "chi", "formula", "oracle", "seed", "agree"}
    code, out, _ = _run(capsys, "cycle-h0", "--degrees", "1,-1,1,-1")
    assert code == 0 and "formula: 0" in out


def test_cli_cycle_h0_outside_the_old_hypotheses(capsys):
    # one negative component only: the closed form still answers, and the
    # oracle is a pure cross-check
    code, out, err = _run(capsys, "cycle-h0", "--degrees", "3,-1,0,0")
    assert (code, out, err) == (0, "formula: 2\n", "")
    data = _run_json(
        capsys, "cycle-h0", "--degrees", "3,-1,0,0", "--oracle", "--json",
    )
    assert (data["formula"], data["oracle"], data["agree"]) == (2, 2, True)
    for degrees in ("3,-3", "1,1,-1", "2,-1,0,-1", "0,0,0"):
        data = _run_json(capsys, "cycle-h0", "--degrees", degrees, "--oracle",
                         "--json")
        assert data["agree"] is True, degrees


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
    # every component adds a row to the oracle's system; a stub oracle,
    # returning the generic value 0, shows which calls get past the cap
    calls = []
    monkeypatch.setattr(oracle, "h0_oracle",
                        lambda bundle, seed: calls.append(bundle.m) or 0)
    code, out, _ = _run(capsys, "cycle-h0", "--degrees", ",".join(["0"] * 1000),
                        "--oracle")
    assert code == 0 and calls == [1000]
    assert out.endswith("oracle (seed=20260816): 0\nagree: yes\n")
    code, out, err = _run(capsys, "cycle-h0", "--degrees",
                          ",".join(["0"] * 1001), "--oracle")
    assert code == 1 and out == "" and calls == [1000]
    assert err == "error: --oracle is capped at 1000 components, got 1001\n"


def test_cli_seed_resolution(capsys, monkeypatch):
    # --seed is the one knob: the environment is never read
    monkeypatch.setenv("TWISTOR_SEED", "17")
    data = _run_json(
        capsys, "cycle-h0", "--degrees", "2,-2,2,-2", "--oracle", "--json",
    )
    assert data["seed"] == DEFAULT_ORACLE_SEED == 20260816
    data = _run_json(
        capsys,
        "cycle-h0", "--degrees", "2,-2,2,-2", "--oracle", "--seed", "5",
        "--json",
    )
    assert data["seed"] == 5


def test_cli_oracle_takes_every_int_seed(capsys):
    for seed in ("-5", "0", str(2 ** 70)):
        data = _run_json(capsys, "cycle-h0", "--degrees", "0,0,0", "--oracle",
                         "--seed", seed, "--json")
        assert (data["seed"], data["oracle"], data["agree"]) == (int(seed), 0, True)


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


# -- CLI: the pinned commands (tests/pins.py) -------------------------------------------

_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("flags", ["", "-O"], ids=["python", "python-O"])
@pytest.mark.parametrize("name", PINS, ids=lambda name: name.replace(" ", "_"))
def test_a_pinned_command_prints_its_pinned_bytes(name, flags):
    # with asserts stripped, nothing the program computes may change: no
    # control flow rests on an assert
    check(name, flags)


def test_a_wrong_digest_or_a_failing_call_fails_its_pin(monkeypatch):
    name = "enumerate --limit 1 --json"
    argvs, pinned = PINS[name]
    monkeypatch.setitem(PINS, name, Pin(argvs, "0" * 64))
    with pytest.raises(PinError, match=f"^python: {name}: sha256 {pinned}, pinned 0{{64}}$"):
        check(name, "")
    # the first call exits 1 and the run stops there, though the last succeeds
    monkeypatch.setitem(PINS, name, Pin([["enumerate", "--limit", "0"], *argvs], pinned))
    with pytest.raises(PinError, match=f"^python -O: {name}: exit 1\n") as failed:
        check(name, "-O")
    assert str(failed.value).endswith(
        "error: --limit must be positive\nfailed: enumerate --limit 0")


def test_the_classify_pin_runs_every_golden():
    assert PINS["classify --json"].argvs == [
        ["classify", "--json", path.relative_to(_ROOT).as_posix()]
        for path in sorted(_ROOT.glob("schedules/*.json"))]


def test_a_tampered_lattice_trips_the_class_route_alone(capsys, monkeypatch):
    # a lattice whose E1 also carries E3: the node exceptional E1 of pair 1
    # meets pair 2 before step 2 places it.  The walk reads positions only,
    # so enumerate --json keeps every byte; the class replay still trips
    exceptional = SurfaceLattice._exceptional_coeffs
    monkeypatch.setattr(SurfaceLattice, "_exceptional_coeffs", lambda self, i: (
        tuple(a + b for a, b in zip(exceptional(self, 1), exceptional(self, 3)))
        if i == 1 else exceptional(self, i)))
    code, out, _ = _run(capsys, "enumerate", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        PINS["enumerate --json"].sha256)
    schedule = BlowupSchedule("I", (N(("F", "G")), S("G"), S("G"), S("G")))
    with pytest.raises(InvariantError) as info:
        realize_cycle(schedule)
    assert info.value.tag == "invariant-realization-fresh-pair"
    assert "already meet E3 or E4 before step 2" in str(info.value)


def test_a_cold_start_loads_no_dataclasses_inspect_or_typing():
    # the records are namedtuples, so importing the CLI, or the acceptance
    # suite after it, loads none of these three and what they pull in; a
    # fresh interpreter without site, as pytest imports all three itself
    script = ("import sys, twistor4.cli\n"
              "heavy = {'dataclasses', 'inspect', 'typing'}\n"
              "print(sorted(heavy & set(sys.modules)))\n"
              "import twistor4.acceptance\n"
              "print(sorted(heavy & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    loaded = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                            text=True, env=env, check=True).stdout
    assert loaded.splitlines() == ["[]", "[]"]


#: The modules a subcommand may load only if it runs them.
_WATCHED_MODULES = ("decimal", "fractions", "hashlib", "heapq", "shutil",
                    "twistor4.cohomology", "twistor4.linalg", "twistor4.oracle")


@pytest.mark.parametrize("argv, loaded", [
    (["classify", "--json", str(_ROOT / "schedules" / "case_b.json")], []),
    (["classify", "--json", "smooth.json"], []),
    (["enumerate", "--json"], ["hashlib"]),
    (["cycle-h0", "--degrees", "2,-2,2,-2"], []),
    (["cycle-h0", "--oracle", "--degrees", "2,-2,2,-2"],
     ["decimal", "fractions", "hashlib", "heapq", "twistor4.linalg", "twistor4.oracle"]),
    (["chern", "--n", "4"], ["twistor4.cohomology"]),
    (["pairing", "--n", "4", "--json"],
     ["decimal", "fractions", "heapq", "twistor4.cohomology", "twistor4.linalg"]),
], ids=["classify", "classify-smooth", "enumerate", "cycle-h0", "cycle-h0-oracle",
        "chern", "pairing"])
def test_a_subcommand_loads_only_what_it_runs(argv, loaded, tmp_path):
    # a structural gate on the cold start, which timing noise cannot pass or
    # fail: a fresh interpreter without site runs one subcommand, then lists
    # which of the watched modules it loaded.  It runs in ``tmp_path``, where
    # the smooth member's document is written
    (tmp_path / "smooth.json").write_text(json.dumps({
        "n": 4, "initial_type": "I", "steps": [], "smooth_anticanonical": True,
        "torsion": {"kind": "finite", "order": 2}}), encoding="utf-8")
    script = ("import sys\nfrom twistor4.cli import main\n"
              "code = main(sys.argv[1:])\n"
              f"print(code, sorted(set({_WATCHED_MODULES!r}) & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", script, *argv], cwd=tmp_path,
                         capture_output=True, text=True, env=env, check=True).stdout
    assert out.splitlines()[-1] == f"0 {loaded}"


def _forwarded_names(tree):
    """The names of a module's ``__all__`` that it does not define itself,
    which its ``__getattr__`` forwards."""
    defined, listed = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            names = {target.id for target in node.targets if isinstance(target, ast.Name)}
            if "__all__" in names:
                listed = ast.literal_eval(node.value)
            defined |= names
    return set(listed) - defined


def test_the_positional_modules_reach_the_oracle_only_in_their_getattr():
    # ``lattice`` and ``cycles`` forward the moved names, for the public
    # surface only; nothing else in them, nor in ``classify`` or ``schema``,
    # names the oracle module, so importing them loads none of it.  No
    # module of the package looks a forwarded name up through them either
    package = Path(cli.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    forwarded = {name: _forwarded_names(trees[name]) for name in ("lattice", "cycles")}
    assert "smooth_anticanonical_cycle" in forwarded["lattice"]
    assert forwarded["cycles"] == {"h0_oracle"}
    for name in ("lattice", "cycles", "classify", "schema"):
        tree = trees[name]
        forwarder = next((node for node in tree.body if isinstance(node, ast.FunctionDef)
                          and node.name == "__getattr__"), None)
        inside = {id(node) for node in ast.walk(forwarder)} if forwarder else set()
        references = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "oracle" in [
                (getattr(node, "module", None) or "").rpartition(".")[2],
                *(alias.name.rpartition(".")[2] for alias in node.names)]
            or isinstance(node, ast.Name) and node.id == "oracle"]
        assert bool(references) == (forwarder is not None), name
        assert [node.lineno for node in references if id(node) not in inside] == [], name
    for name, tree in trees.items():
        lookups = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in forwarded
            and {alias.name for alias in node.names} & forwarded[node.module]
            or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.attr in forwarded.get(node.value.id, ())]
        assert lookups == [], name


def test_ci_and_the_benchmark_pin_the_tests_digests():
    # tests/pins.py holds every pinned digest: CI runs it and repeats none,
    # and of the tests only pins.py names one.  The benchmark's expected
    # results keep their copy of enumerate --json's, which must equal it
    workflow = (_ROOT / ".github" / "workflows" / "tier1.yml").read_text(
        encoding="utf-8")
    assert re.findall(r"[0-9a-f]{64}", workflow) == []
    assert re.search(r"^ +run: python tests/pins\.py$", workflow, re.MULTILINE)
    for path in chain(_ROOT.glob("tests/*.py"), _ROOT.glob(".github/**/*.yml")):
        text = path.read_text(encoding="utf-8")
        named = [name for name, pin in PINS.items() if pin.sha256 in text]
        assert named == [] or path.name == "pins.py", (path, named)
    expected = json.loads((_ROOT / "perfbench" / "expected.json").read_text(
        encoding="utf-8"))
    assert expected["enumerate_json"]["sha256"] == PINS["enumerate --json"].sha256


# -- the names the benchmark traces ---------------------------------------------------

def _perfbench_module(name):
    """``perfbench/<name>.py`` loaded read-only, as the benchmark loads it."""
    path = _ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the benchmark's tracer patches twistor4 by name, and a deleted or
    # renamed name stops its traced runs: install it, then take it off
    spans = _perfbench_module("spans")
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


# the classify_stream pass of seed 1: its outcome digest, with and without -O
_STREAM_SCRIPT = """
import importlib.util, sys
from pathlib import Path
bench = Path(sys.argv[1]) / "perfbench"
sys.path.insert(0, str(bench))
spec = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
stream = workloads.ClassifyStream(None)
items = stream.generate(1)
stream.bind()
print(sys.flags.optimize, len(items),
      stream.outcome_digest([stream.run(item) for item in items]))
"""


def test_the_stream_workload_reproduces_its_pinned_outcomes(monkeypatch):
    # every document of seed 1's classify_stream pass, classified in this
    # process and under -O: each report's bytes and each rejection's class
    # and tag go into the digest that perfbench/expected.json pins
    expected = json.loads((_ROOT / "perfbench" / "expected.json").read_text(
        encoding="utf-8"))
    pinned = expected["classify_stream_digests"]["1"]
    monkeypatch.setitem(sys.modules, "inputs", _perfbench_module("inputs"))
    stream = _perfbench_module("workloads").ClassifyStream(expected)
    items = stream.generate(1)
    stream.bind()
    outputs = [stream.run(item) for item in items]
    assert len(items) == 2000
    assert stream.outcome_digest(outputs) == pinned
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(_ROOT / "src"), os.environ.get("PYTHONPATH")))))
    optimized = subprocess.run([sys.executable, "-O", "-c", _STREAM_SCRIPT, str(_ROOT)],
                               capture_output=True, text=True, env=env, check=True)
    assert optimized.stdout.split() == ["1", "2000", pinned]


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


@pytest.mark.parametrize("first", [
    "import twistor4", "import twistor4.cli", "import twistor4.classify"])
def test_twistor4_classify_stays_the_function_in_every_import_order(first):
    # the package binds the function on import; a lazy package would lose it
    # once the import system binds the submodule of that name on the package
    script = (f"{first}\n"
              "import sys, twistor4.classify\n"
              "namespace = {}\n"
              "exec('from twistor4 import *', namespace)\n"
              "function = sys.modules['twistor4.classify'].classify\n"
              "print(twistor4.classify is namespace['classify'] is function)\n")
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out == "True\n"


#: ``__all__`` of the two modules whose independent routes live in
#: ``oracle``, and the names among them that ``oracle`` defines
_LATTICE_ALL = [
    "SurfaceLattice", "DivisorClass", "anticanonical_class", "adjunction_genus",
    "real_involution", "BlowupStep", "BlowupSchedule", "AnticanonicalCycle",
    "Necklace", "smooth_anticanonical_cycle", "INITIAL_TYPES", "STEP_FIELDS",
    "RealizationState", "realize_cycle", "elementary_transform"]
_CYCLES_ALL = ["CycleLineBundle", "TorsionSpec", "DEFAULT_ORACLE_SEED", "cyclic_arcs",
               "euler_char_cycle", "h0_formula", "h0_oracle"]
_MOVED = {"lattice": ["SurfaceLattice", "DivisorClass", "anticanonical_class",
                      "adjunction_genus", "real_involution", "AnticanonicalCycle",
                      "smooth_anticanonical_cycle", "realize_cycle"],
          "cycles": ["h0_oracle"]}


def test_the_surface_keeps_its_names_after_the_oracle_moved_out():
    # the names of the package and of ``from twistor4.lattice import *``
    # (and of ``cycles``) are the ones they were before the move
    listed = " ".join(twistor4.__all__).encode()
    assert hashlib.sha256(listed).hexdigest() == (
        "fcc103bce2a1897eb9d0168b040bb3964ae12f0b539a2f9f4f6641cee540fd2e")
    for module, names in (("lattice", _LATTICE_ALL), ("cycles", _CYCLES_ALL)):
        assert importlib.import_module(f"twistor4.{module}").__all__ == names
        namespace = {}
        exec(f"from twistor4.{module} import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(names), module


@pytest.mark.parametrize("module", sorted(_MOVED))
def test_a_moved_name_is_the_oracles_own_object_bound_on_first_use(module):
    # a fresh interpreter: importing the module loads no oracle, and the
    # first lookup of each moved name binds the oracle's object in its dict
    script = (f"import sys, twistor4.{module} as module\n"
              "print('twistor4.oracle' in sys.modules)\n"
              f"names = {_MOVED[module]!r}\n"
              "print([name for name in names if name in vars(module)])\n"
              "found = [getattr(module, name) for name in names]\n"
              "oracle = sys.modules['twistor4.oracle']\n"
              "print(all(vars(module)[name] is value is getattr(oracle, name)\n"
              "          for name, value in zip(names, found)))\n"
              "print(not any(name in vars(module) for name in dir(oracle)\n"
              "              if name.startswith('_') and not name.endswith('__')))\n")
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.splitlines() == ["False", "[]", "True", "True"]


def test_the_readme_library_example_gives_its_commented_values():
    # run README's ``## Library`` block statement by statement, keeping the
    # value of each bare expression by its source text
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```", readme,
                      re.DOTALL | re.MULTILINE).group(1)
    namespace, values = {}, {}
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), "README.md", "eval")
            values[ast.get_source_segment(block, statement)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    assert values["chern_numbers(4)"] == cohomology.ChernData(0, 24, 12)
    assert values["pairing_matrix(4).det"] == 0
    assert values["h0_formula(bundle)"] == values["h0_oracle(bundle)"] == 2
    assert values["model.degrees"] == (0, 1, 0, -1, 0, 1, 0, -1)
    assert values["report.case, report.algebraic_dimension"] == ("PAIRS_MINUS_1", 3)
    assert values["cycle.necklace() == model"] is True
    result = namespace["result"]
    assert len(result.entries) == 58 and result.exhausted
    assert len(namespace["leaves"]) == 152
    assert values["classify_leaf(leaves[0][1]).report.case"] == "PAIRS_MINUS_1"


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
    errors.TorsionRequiredError: (errors.TorsionRequiredError("why"), 2,
                                  "violation: torsion-required: why\n"),
    errors.InvariantError: (errors.InvariantError("report-nef", "why"), 2,
                            "violation: invariant-report-nef: why\n"),
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


def test_repeated_calls_in_one_process_print_the_same_bytes(capsys, monkeypatch):
    # ``main`` keeps no state between calls: each command prints the same
    # bytes before and after a --help and a usage error in between
    for command in sorted(_JSON_SAMPLES):
        for flags in ((), ("--json",)):
            first = _run(capsys, command, *_JSON_SAMPLES[command], *flags)
            assert first[0] == 0 and first[2] == ""
            code, out, _ = _run(capsys, command, "--help")
            assert code == 0 and out.startswith(f"usage: twistor4 {command} ")
            code, out, err = _run(capsys, command, "--no-such-flag")
            assert (code, out) == (1, "") and err.startswith("error: ")
            assert _run(capsys, command, *_JSON_SAMPLES[command], *flags) == first
    # and a subcommand's function replaced after a first call still runs
    for command, name in (("chern", "_cmd_chern"), ("cycle-h0", "_cmd_cycle_h0")):
        monkeypatch.setattr(cli, name, lambda args, command=command: cli._Result(
            {"command": command}, [f"replaced {command}"]))
        argv = (command, *_JSON_SAMPLES[command])
        assert _run(capsys, *argv) == (0, f"replaced {command}\n", "")
        assert _run(capsys, *argv, "--json") == (0, f'{{"command":"{command}"}}\n', "")


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


@pytest.mark.parametrize("columns", ["123", "0", "-5", "wide", None])
def test_the_help_width_is_the_shutil_terminal_width(monkeypatch, columns):
    # the CLI reads the width without importing shutil; COLUMNS, a terminal
    # on stdout and the 80-column fallback decide it as they decide shutil's
    import shutil

    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    width = cli._build_parser().formatter_class.keywords["width"]
    assert width == shutil.get_terminal_size().columns - 2


# -- CLI: the invoked subcommand's parser alone ------------------------------------------

def _subparsers(parser):
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


@pytest.mark.parametrize("command", _SUBCOMMANDS)
def test_a_subcommands_own_parser_prints_the_full_builds_help(command):
    alone = _subparsers(cli._build_parser(command))
    assert list(alone) == [command]
    expected = _subparsers(cli._build_parser())[command].format_help()
    assert alone[command].format_help() == expected


@pytest.mark.parametrize("argv, err", [
    (("chern", "--n", "4", "--no-such-flag"),
     "error: unrecognized arguments: --no-such-flag\n"),
    (("euler", "--n", "4"), "error: the following arguments are required: --m\n"),
    (("selftest", "--json"), "error: unrecognized arguments: --json\n"),
], ids=["unknown-flag", "missing-argument", "selftest-json"])
def test_a_usage_error_reads_the_same_from_either_build(capsys, monkeypatch, argv, err):
    assert _run(capsys, *argv) == (1, "", err)
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full())
    assert _run(capsys, *argv) == (1, "", err)


def test_no_command_help_and_an_unknown_command_take_the_full_build(capsys):
    assert _run(capsys, "-h") == (0, cli._build_parser().format_help(), "")
    for argv in ((), ("bogus",)):
        with pytest.raises(ScheduleError) as shown:
            cli._build_parser().parse_args(list(argv))
        assert _run(capsys, *argv) == (1, "", f"error: {shown.value}\n")
    assert str(shown.value).startswith("argument command: invalid choice: ")
    assert all(name in str(shown.value) for name in _SUBCOMMANDS)


def test_main_builds_only_the_invoked_subcommands_parser(capsys, monkeypatch):
    builds, init = Counter(), cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        builds[argv] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    named = [(name, "--help") for name in _SUBCOMMANDS]
    named.append(("enumerate", "--limit", "1", "--json"))
    for argv in (*named, ("-h",), (), ("bogus",), ("--",), named[-1]):
        _run(capsys, *argv)
    # a named subcommand builds the top-level parser and its own; help, a
    # missing or unknown command and a leading -- build the top level and
    # all eight; every call builds afresh, so the repeated one counts twice
    assert builds == Counter({**dict.fromkeys(named, 2), named[-1]: 4,
                              ("-h",): 9, (): 9, ("bogus",): 9, ("--",): 9})


@pytest.mark.parametrize("command", _SUBCOMMANDS)
def test_a_leading_double_dash_before_the_command_is_dropped(capsys, monkeypatch, command):
    # argparse would take the "--" for the command's name
    builds, init = [], cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    argv = (command, *_JSON_SAMPLES.get(command, ()))
    expected = _run(capsys, *argv)
    assert expected[0] == 0
    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert _run(capsys, "--", *argv) == expected
    assert len(builds) == 2


@pytest.mark.parametrize("argv", [("--",), ("--", "-h"), ("--", "bogus"),
                                  ("--", "--")],
                         ids=["alone", "help", "unknown", "double-dash"])
def test_a_double_dash_before_no_command_stays_a_usage_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("error: ")
    if argv[1:]:  # the word after the "--" is the rejected command, not help
        bogus = _run(capsys, "bogus")[2]
        assert err == bogus.replace(repr("bogus"), repr(argv[1]), 1), err


def test_main_reads_sys_argv_when_given_no_argv(capsys, monkeypatch):
    # the installed console script calls main() with no argv
    monkeypatch.setattr(sys, "argv", ["twistor4", "enumerate", "--limit", "1", "--json"])
    code = main()
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == PINS["enumerate --limit 1 --json"].sha256
    monkeypatch.setattr(sys, "argv", ["twistor4"])
    assert main() == 1
    assert capsys.readouterr() == (
        "", "error: the following arguments are required: command\n")


def test_cli_prints_the_result_before_a_failure(capsys, monkeypatch):
    # a disagreeing oracle: the result, then the violation, exit 2
    monkeypatch.setattr(oracle, "h0_oracle", lambda bundle, seed: 99)
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


def test_cli_index_errors_exit_1_and_tagged_errors_exit_2(capsys, tmp_path):
    # a bad generator index is malformed input; a refused configuration is tagged
    code, out, err = _run(capsys, "ring", "--n", "4", "--expr", "x5 w")
    assert (code, out, err) == (1, "", "error: x5 does not exist for n=4\n")
    code, out, err = _run(capsys, "ring", "--n", "4", "--expr", "x0")
    assert (code, out, err) == (1, "", "error: x0 does not exist for n=4\n")
    code, out, err = _run(capsys, "euler", "--n", "4", "--m", "-1")
    assert (code, out) == (1, "") and err.startswith("error: ")
    nef = json.loads((_ROOT / "schedules" / "nef.json").read_text(encoding="utf-8"))
    del nef["torsion"]
    (tmp_path / "nef.json").write_text(json.dumps(nef), encoding="utf-8")
    code, out, err = _run(capsys, "classify", str(tmp_path / "nef.json"))
    assert (code, out) == (2, "") and err.startswith("violation: torsion-required: ")


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
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINS["selftest"].sha256
