import json
import os
import subprocess
import sys
from time import perf_counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ordcsp
from ordcsp.cli import build_parser, run_cli
from ordcsp.lab import DEFAULT_ORBIT_BUDGET
from ordcsp.polymorphism import DEFAULT_CONSTRAINT_BUDGET

from conftest import complete_graph


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2) + "\n")


@pytest.fixture
def qlt_path(tmp_path, capsys):
    path = tmp_path / "qlt.json"
    assert run_cli(["preset", "--name", "qlt", "--out", str(path)]) == 0
    capsys.readouterr()
    return path


def test_preset_to_stdout(capsys):
    code, data = run(capsys, "preset", "--name", "gamma2")
    assert code == 0
    assert data["name"] == "gamma2"
    assert data["kind"] == "interpretation"
    assert data["dimension"] == 2


def test_preset_unknown(capsys):
    assert run_cli(["preset", "--name", "nope"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_sample_matches_definition(tmp_path, capsys, qlt_path):
    out = tmp_path / "b.json"
    code = run_cli(
        ["sample", "--template", str(qlt_path), "--size", "3", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["relations"]["Lt"] == [[0, 1], [0, 2], [1, 2]]


def test_sample_sidecar(tmp_path, capsys):
    t = tmp_path / "g3.json"
    run_cli(["preset", "--name", "gamma3", "--out", str(t)])
    out = tmp_path / "b.json"
    side = tmp_path / "b.reps.json"
    code = run_cli(
        [
            "sample",
            "--template",
            str(t),
            "--size",
            "1",
            "--out",
            str(out),
            "--sidecar",
            str(side),
        ]
    )
    assert code == 0
    assert json.loads(side.read_text()) == {
        "representatives": [[0, 1], [1, 0]],
        "base_grid_size": 2,
    }


def test_solve_exit_codes_and_witness(tmp_path, capsys):
    t = tmp_path / "ord3.json"
    run_cli(["preset", "--name", "ord3", "--out", str(t)])
    good = tmp_path / "good.json"
    write_json(
        good,
        {
            "variables": ["x", "y", "z"],
            "constraints": [{"rel": "T", "args": ["x", "y", "z"]}],
        },
    )
    code, data = run(
        capsys, "solve", "--template", str(t), "--instance", str(good),
        "--witness",
    )
    assert code == 0
    assert data["accept"] is True
    assert data["witness"] == {"x": 1, "y": 0, "z": 0}
    # without --witness the key is suppressed
    code, data = run(
        capsys, "solve", "--template", str(t), "--instance", str(good)
    )
    assert "witness" not in data

    bad = tmp_path / "bad.json"
    write_json(
        bad,
        {
            "variables": ["x"],
            "constraints": [{"rel": "T", "args": ["x", "x", "x"]}],
        },
    )
    code, data = run(
        capsys, "solve", "--template", str(t), "--instance", str(bad)
    )
    assert code == 1
    assert data["accept"] is False

    # 101 variables ask for 101**3 ord3 grid tuples, beyond the cap.
    wide = tmp_path / "wide.json"
    variables = [f"v{i}" for i in range(101)]
    write_json(
        wide,
        {
            "variables": variables,
            "constraints": [{"rel": "T", "args": variables[:3]}],
        },
    )
    assert run_cli(["solve", "--template", str(t), "--instance", str(wide)]) == 3
    assert "grid cap" in capsys.readouterr().err


def test_solve_gamma2_past_bitset_size(tmp_path, capsys):
    # 48 variables give 9,216 representatives, past BITSET_SIZE: the rows
    # answer. 64 give 16,384, whose 16,384^2 candidate pairs the table
    # cap still refuses.
    t = tmp_path / "gamma2.json"
    run_cli(["preset", "--name", "gamma2", "--out", str(t)])
    for n, code in ((48, 0), (64, 3)):
        variables = [f"v{i}" for i in range(n)]
        chain = [
            {"rel": "S" if i % 2 else "R", "args": pair}
            for i, pair in enumerate(zip(variables, variables[1:]))
        ]
        path = tmp_path / f"chain{n}.json"
        write_json(path, {"variables": variables, "constraints": chain})
        assert run_cli(["solve", "--template", str(t), "--instance", str(path)]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert json.loads(out)["sample_size"] == 9216
        else:
            assert err == "error: table cap: 16384^2 > 100000000\n"


def test_ac_and_hom_disagree_on_k4_k3(tmp_path, capsys):
    k3 = tmp_path / "k3.json"
    write_json(k3, complete_graph(3).to_json_dict())
    k4i = tmp_path / "k4.json"
    vs = ["a", "b", "c", "d"]
    write_json(
        k4i,
        {
            "variables": vs,
            "constraints": [
                {"rel": "E", "args": [p, q]} for p in vs for q in vs if p != q
            ],
        },
    )
    code, data = run(
        capsys, "ac", "--instance", str(k4i), "--structure", str(k3)
    )
    assert code == 0 and data["accept"] is True
    code, data = run(capsys, "hom", "--from", str(k4i), "--to", str(k3))
    assert code == 1 and data["exists"] is False


def test_hom_structure_to_structure(tmp_path, capsys):
    k3 = tmp_path / "k3.json"
    write_json(k3, complete_graph(3).to_json_dict())
    code, data = run(capsys, "hom", "--from", str(k3), "--to", str(k3))
    assert code == 0 and data["exists"] is True


def test_powerset(tmp_path, capsys):
    k3 = tmp_path / "k3.json"
    write_json(k3, complete_graph(3).to_json_dict())
    code, data = run(capsys, "powerset", "--structure", str(k3))
    assert code == 0
    assert data["size"] == 7


def test_check_ts_and_semilattice(tmp_path, capsys):
    b = tmp_path / "b.json"
    write_json(
        b,
        {
            "signature": [{"name": "R", "arity": 2}],
            "size": 2,
            "relations": {"R": [[0, 0], [0, 1], [1, 1]]},
        },
    )
    code, data = run(capsys, "check-ts", "--structure", str(b), "--arity", "2")
    assert code == 0 and data["found"] is True
    code, data = run(capsys, "check-semilattice", "--structure", str(b))
    assert code == 0
    assert data["table"]["table"] == [[0, 0], [0, 1]]

    k3 = tmp_path / "k3.json"
    write_json(k3, complete_graph(3).to_json_dict())
    code, data = run(capsys, "check-ts", "--structure", str(k3), "--arity", "2")
    assert code == 1 and data["found"] is False
    code, data = run(capsys, "check-semilattice", "--structure", str(k3))
    assert code == 1


def test_check_semilattice_at_six_elements(tmp_path, capsys, qlt_path):
    # K6 has no semilattice polymorphism and the qlt sample at n = 6 has
    # min. Each pair of tuples is checked as soon as its cells are filled,
    # so neither enumerates every semilattice on six elements.
    k6 = tmp_path / "k6.json"
    write_json(k6, complete_graph(6).to_json_dict())
    start = perf_counter()
    code, data = run(capsys, "check-semilattice", "--structure", str(k6))
    assert (code, data) == (1, {"found": False})
    b = tmp_path / "b.json"
    assert run_cli(
        ["sample", "--template", str(qlt_path), "--size", "6", "--out", str(b)]
    ) == 0
    code, data = run(capsys, "check-semilattice", "--structure", str(b))
    table = [[min(x, y) for y in range(6)] for x in range(6)]
    assert (code, data) == (0, {"found": True, "table": {"size": 6, "table": table}})
    assert perf_counter() - start < 5


def test_check_semilattice_pair_budget(tmp_path, capsys):
    # 1,415 distinct 5-tuples make C(1415, 2) = 1,000,405 unordered pairs,
    # one past what the default budget admits; they are counted before any
    # is filed.
    tuples = [[x // 6**i % 6 for i in range(5)] for x in range(1415)]
    b = tmp_path / "wide.json"
    signature = [{"name": "R", "arity": 5}]
    write_json(b, {"signature": signature, "size": 6, "relations": {"R": tuples}})
    start = perf_counter()
    assert run_cli(["check-semilattice", "--structure", str(b)]) == 3
    assert perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: semilattice pair budget: 1000405 tuple pairs > "
        f"{DEFAULT_CONSTRAINT_BUDGET}\n"
    )


def test_check_ts_gamma1_sample_at_arity_4(tmp_path, capsys):
    # 2,516 subset variables, more than the default recursion limit.
    t = tmp_path / "gamma1.json"
    b = tmp_path / "b.json"
    assert run_cli(["preset", "--name", "gamma1", "--out", str(t)]) == 0
    assert run_cli(
        ["sample", "--template", str(t), "--size", "2", "--out", str(b)]
    ) == 0
    capsys.readouterr()
    code, data = run(capsys, "check-ts", "--structure", str(b), "--arity", "4")
    assert code == 0 and data["found"] is True


def test_check_equiv(tmp_path, capsys):
    k3 = tmp_path / "k3.json"
    write_json(k3, complete_graph(3).to_json_dict())
    code, data = run(capsys, "check-equiv", "--structure", str(k3))
    assert code == 0
    assert data["consistent"] is True
    assert data["set_hom"] is False


def test_walk(tmp_path, capsys):
    r = tmp_path / "r.json"
    write_json(
        r,
        {
            "signature": [{"name": "R", "arity": 2}],
            "size": 2,
            "relations": {"R": [[0, 1], [1, 0]]},
        },
    )
    code, data = run(
        capsys, "walk", "--from", str(r), "--to", str(r), "--size", "3"
    )
    assert code == 0
    assert data["walk"]["elements"] == [0, 1, 0]


def test_walk_lemma(tmp_path, capsys):
    b = tmp_path / "b.json"
    write_json(
        b,
        {
            "signature": [{"name": "R", "arity": 2}],
            "size": 2,
            "relations": {"R": [[0, 0], [0, 1], [1, 1]]},
        },
    )
    code, data = run(
        capsys, "walk-lemma", "--structure", str(b), "--arity", "2"
    )
    assert code == 0
    assert data["violations"] == 0


def test_orbits(tmp_path, capsys):
    t = tmp_path / "g2.json"
    run_cli(["preset", "--name", "gamma2", "--out", str(t)])
    code, data = run(capsys, "orbits", "--template", str(t), "--size", "4")
    assert code == 0
    assert data == {"n": 4, "class_count": 8, "exactness": "exact"}


def test_orbits_budget_cap(tmp_path, capsys):
    t = tmp_path / "g1.json"
    run_cli(["preset", "--name", "gamma1", "--out", str(t)])
    code = run_cli(
        ["orbits", "--template", str(t), "--size", "5", "--budget", "10"]
    )
    assert code == 3


def test_budget_defaults_come_from_the_library():
    parse = build_parser().parse_args
    check_ts = parse(["check-ts", "--structure", "b.json", "--arity", "2"])
    assert check_ts.budget == DEFAULT_CONSTRAINT_BUDGET
    orbits = parse(["orbits", "--template", "t.json", "--size", "2"])
    assert orbits.budget == DEFAULT_ORBIT_BUDGET


def test_orbits_checks_the_equality_as_sample_does(tmp_path, capsys):
    # (eq 0 2) relates points with equal first coordinates, which R,
    # reading the second, tells apart.
    template = tmp_path / "t.json"
    write_json(
        template,
        {
            "name": "loose",
            "kind": "interpretation",
            "dimension": 2,
            "equality_formula": "(eq 0 2)",
            "relations": [{"name": "R", "arity": 2, "formula": "(lt 1 3)"}],
        },
    )
    errors = []
    for command in ("sample", "orbits"):
        argv = [command, "--template", str(template), "--size", "2"]
        assert run_cli(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "equal arguments" in errors[0]


@pytest.mark.parametrize(
    "base, change, cap",
    [
        # 2^70 patterns of 2^70 coordinates each on the first level.
        ("gamma2", {"dimension": 2**70, "relations": []}, "patterns"),
        # 2^30 candidate tuples for each 2-point configuration's table.
        (
            "qlt",
            {"relations": [{"name": "W", "arity": 30, "formula": "(lt 0 1)"}]},
            "table candidates",
        ),
    ],
    ids=["dimension-2^70", "arity-30"],
)
def test_orbits_refuses_before_enumerating(tmp_path, capsys, base, change, cap):
    template = tmp_path / "t.json"
    _, data = run(capsys, "preset", "--name", base)
    write_json(template, {**data, **change})
    start = perf_counter()
    code = run_cli(["orbits", "--template", str(template), "--size", "2"])
    assert code == 3
    assert perf_counter() - start < 5
    assert f"{cap} > 10000000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["ac", "--instance", "edge.json", "--structure", "huge.json"],
        ["hom", "--from", "edge.json", "--to", "huge.json"],
        ["hom", "--from", "huge.json", "--to", "k2.json"],
    ],
    ids=["ac-structure", "hom-to", "hom-from"],
)
def test_huge_structure_hits_network_cap(tmp_path, monkeypatch, capsys, argv):
    # A billion-element structure would need a billion-value domain per
    # variable (or a billion variables); both are refused before any is built.
    write_json(
        tmp_path / "huge.json",
        {
            "signature": [{"name": "E", "arity": 2}],
            "size": 10**9,
            "relations": {"E": [[0, 1]]},
        },
    )
    write_json(
        tmp_path / "edge.json",
        {
            "variables": ["x", "y"],
            "constraints": [{"rel": "E", "args": ["x", "y"]}],
        },
    )
    write_json(tmp_path / "k2.json", complete_graph(2).to_json_dict())
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 3
    assert "network cap" in capsys.readouterr().err


def test_structure_past_maxsize_hits_network_cap(tmp_path, capsys):
    # Its elements, the variables of ``hom --from``, are a range whose
    # len() would overflow. Into an empty target, each still counts as
    # one value, so the cap holds there too.
    huge, k2 = tmp_path / "huge.json", tmp_path / "k2.json"
    zero = tmp_path / "zero.json"
    write_json(huge, {"signature": [], "size": 2**63, "relations": {}})
    write_json(k2, complete_graph(2).to_json_dict())
    write_json(zero, {"signature": [], "size": 0, "relations": {}})
    for target in (k2, zero):
        assert run_cli(["hom", "--from", str(huge), "--to", str(target)]) == 3
        err = capsys.readouterr().err
        assert "network cap: 9223372036854775808 variables" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["powerset", "--structure", "k12.json"], "box cap: 0 + 4095^2 > 10000000"),
        (
            ["powerset", "--structure", "bare17.json"],
            "power_structure cap: size 17 > 16 (2^17 - 1 subsets)",
        ),
        (["powerset", "--structure", "wide.json"], f"arity {2**70} > 10000"),
        (["check-equiv", "--structure", "wide.json"], f"arity {2**70} > 10000"),
    ],
    ids=["powerset-boxes", "powerset-elements", "powerset-arity", "check-equiv-arity"],
)
def test_power_structure_caps(tmp_path, monkeypatch, capsys, argv, message):
    # K12 has 4095^2 candidate boxes; 17 elements with no relation have
    # no box, but 2^17 - 1 subsets; one element with an empty relation of
    # arity 2^70 has one box, over a table too wide to build. All are
    # refused before any subset is listed.
    write_json(tmp_path / "k12.json", complete_graph(12).to_json_dict())
    write_json(tmp_path / "bare17.json", {"signature": [], "size": 17, "relations": {}})
    write_json(
        tmp_path / "wide.json",
        {"signature": [{"name": "R", "arity": 2**70}], "size": 1, "relations": {}},
    )
    monkeypatch.chdir(tmp_path)
    start = perf_counter()
    assert run_cli(argv) == 3
    assert perf_counter() - start < 5
    assert message in capsys.readouterr().err


def test_powerset_has_no_subset_size_flag(tmp_path, capsys):
    # The element cap is the constant SUBSET_CAP_BITS; no flag overrides it.
    path = tmp_path / "k3.json"
    write_json(path, complete_graph(3).to_json_dict())
    argv = ["powerset", "--structure", str(path), "--max-subset-bits", "20"]
    assert run_cli(argv) == 2
    assert "unrecognized arguments: --max-subset-bits 20" in capsys.readouterr().err
    assert run_cli(["powerset", "--help"]) == 0
    assert "--max-subset-bits" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["preset", "--name", "qlt", "--out", "{missing}/x.json"],
        ["sample", "--template", "{qlt}", "--size", "2", "--sidecar",
         "{missing}/s.json"],
        ["solve", "--template", "{dir}", "--instance", "{qlt}"],
    ],
    ids=["out", "sidecar", "template-directory"],
)
def test_unusable_path_is_usage_error(tmp_path, capsys, qlt_path, argv):
    paths = {"missing": tmp_path / "missing", "qlt": qlt_path, "dir": tmp_path}
    assert run_cli([a.format(**paths) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "internal error" not in err


def test_schema_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["solve", "--template", str(bad), "--instance", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.json" in err
    missing = tmp_path / "missing.json"
    assert run_cli(["hom", "--from", str(missing), "--to", str(missing)]) == 2
    structure = tmp_path / "k2.json"
    write_json(structure, complete_graph(2).to_json_dict())
    for i, value in enumerate((5, None)):
        scalar = tmp_path / f"scalar{i}.json"
        write_json(scalar, value)
        args = ["hom", "--from", str(scalar), "--to", str(structure)]
        assert run_cli(args) == 2
    template = tmp_path / "string_dimension.json"
    _, data = run(capsys, "preset", "--name", "gamma2")
    write_json(template, {**data, "dimension": "2"})
    assert run_cli(["sample", "--template", str(template), "--size", "2"]) == 2

    inst = tmp_path / "non_string_names.json"
    write_json(
        inst,
        {
            "variables": [None, 1.5, True],
            "constraints": [{"rel": 7, "args": [None, True]}],
        },
    )
    code = run_cli(["ac", "--instance", str(inst), "--structure", str(structure)])
    assert code == 2
    assert "name must be a string" in capsys.readouterr().err

    pair = tmp_path / "two_binary.json"
    write_json(
        pair,
        {
            "signature": [{"name": "R", "arity": 2}, {"name": "S", "arity": 2}],
            "size": 2,
            "relations": {"R": [[0, 1]], "S": [[1, 0]]},
        },
    )
    walk = ["walk", "--from", str(pair), "--to", str(structure), "--size", "2"]
    assert run_cli(walk) == 2
    err = capsys.readouterr().err
    assert "expected exactly one binary relation, found 2" in err

    # json.load recurses per nesting level; every command that loads a
    # file reports the overflow as a format error naming that file.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    one = tmp_path / "one_variable.json"
    write_json(one, {"variables": ["x"], "constraints": []})
    d, s = str(deep), str(structure)
    for argv in (
        ["sample", "--template", d, "--size", "2"],
        ["solve", "--template", d, "--instance", d],
        ["ac", "--instance", d, "--structure", s],
        ["ac", "--instance", str(one), "--structure", d],
        ["hom", "--from", d, "--to", s],
        ["hom", "--from", s, "--to", d],
        ["powerset", "--structure", d],
        ["check-ts", "--structure", d, "--arity", "2"],
        ["check-semilattice", "--structure", d],
        ["check-equiv", "--structure", d],
        ["walk", "--from", d, "--to", s, "--size", "2"],
        ["walk-lemma", "--structure", d, "--arity", "2"],
        ["orbits", "--template", d, "--size", "2"],
    ):
        assert run_cli(argv) == 2, argv
        err = capsys.readouterr().err
        assert "deep.json: JSON nested too deeply" in err, argv


@pytest.mark.parametrize(
    "formula",
    [
        "(not " * 3000 + "(lt 0 1)" + ")" * 3000,
        "(and " * 400 + "(lt 0 1)" + ")" * 400,
    ],
    ids=["not-3000", "and-400"],
)
def test_deep_formula_schema_error(tmp_path, capsys, formula):
    template = tmp_path / "deep.json"
    _, data = run(capsys, "preset", "--name", "qlt")
    data["relations"][0]["formula"] = formula
    write_json(template, data)
    assert run_cli(["sample", "--template", str(template), "--size", "3"]) == 2
    assert "connectives nest deeper than 300" in capsys.readouterr().err


def test_template_fields_that_used_to_crash(tmp_path, capsys):
    template = tmp_path / "t.json"
    _, qlt = run(capsys, "preset", "--name", "qlt")
    _, gamma2 = run(capsys, "preset", "--name", "gamma2")
    cases = [
        # (relation field, value, command, size, exit code)
        ("formula", ["lt", 0, 1], "sample", 2, 2),
        ("name", "", "orbits", 2, 2),
        # 2^(2^70) candidate tuples, or one tuple of 2^70 coordinates.
        ("arity", 2**70, "sample", 2, 3),
        ("arity", 2**70, "sample", 1, 3),
        ("arity", 2**70, "orbits", 2, 3),
    ]
    for field, value, command, size, expected in cases:
        data = json.loads(json.dumps(qlt))
        data["relations"][0][field] = value
        write_json(template, data)
        argv = [command, "--template", str(template), "--size", str(size)]
        assert run_cli(argv) == expected, capsys.readouterr().err
    # A grid of (2n)^(2^70) points.
    write_json(template, {**gamma2, "dimension": 2**70})
    argv = ["sample", "--template", str(template), "--size", "2"]
    assert run_cli(argv) == 3
    assert "grid cap" in capsys.readouterr().err


def test_direct_sample_points_within_grid_cap(tmp_path, monkeypatch, capsys):
    # A direct template without relations has no table to refuse, so its
    # n grid points are held to GRID_CAP before any is built.
    template = tmp_path / "e.json"
    write_json(template, {"name": "e", "kind": "direct", "relations": []})
    monkeypatch.setattr(ordcsp.sampler, "GRID_CAP", 100)
    argv = ["sample", "--template", str(template), "--size"]
    assert run_cli(argv + ["100"]) == 0
    capsys.readouterr()
    assert run_cli(argv + ["1000"]) == 3
    assert "grid cap" in capsys.readouterr().err


BASES = {
    "qlt": [{"rel": "Lt", "args": ["x", "y"]}],
    "ord3": [{"rel": "T", "args": ["x", "y", "z"]}],
    "gamma2": [{"rel": "R", "args": ["x", "y"]}, {"rel": "S", "args": ["y", "z"]}],
    "gamma3": [{"rel": "Ord", "args": ["x", "y"]}, {"rel": "M", "args": ["y", "z"]}],
}
TEMPLATE_KEYS = (
    "name",
    "kind",
    "dimension",
    "domain_formula",
    "equality_formula",
    "relations",
    "semilattice",
)
RELATION_KEYS = ("name", "arity", "formula")
HUGE = (2**31, 2**63, 2**70)
ints = st.sampled_from((-1, 0, 1, 2, 3, *HUGE)) | st.integers(-3, 2**70)
scalars = (
    ints
    | st.sampled_from(
        ["direct", "interpretation", "min", "true", "(eq 0 1)", "(lt 0 2)"]
    )
    | st.builds("(lt 0 {})".format, st.sampled_from((3, 7, *HUGE)))
    | st.none()
    | st.booleans()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
# ints twice: the integer fields (arity, dimension) reach the most code.
json_values = (
    ints
    | scalars
    | st.lists(scalars, max_size=3)
    | st.dictionaries(st.sampled_from(RELATION_KEYS), scalars, max_size=3)
)


@st.composite
def fuzzed_templates(draw):
    base = draw(st.sampled_from(sorted(BASES)))
    data = ordcsp.preset(base).to_json_dict()
    for _ in range(draw(st.integers(1, 2))):
        rels = data.get("relations")
        first = rels[0] if isinstance(rels, list) and rels else None
        if isinstance(first, dict) and draw(st.booleans()):
            target, keys = first, RELATION_KEYS
        else:
            target, keys = data, TEMPLATE_KEYS
        key = draw(st.sampled_from(keys))
        if draw(st.integers(0, 4)) == 0:
            target.pop(key, None)
        else:
            target[key] = draw(json_values)
    return base, data


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(fuzzed_templates(), st.integers(0, 3), st.integers(1, 3))
def test_fuzzed_template_json_never_crashes(tmp_path, capsys, case, size, n):
    base, data = case
    template, instance = tmp_path / "t.json", tmp_path / "i.json"
    write_json(template, data)
    write_json(
        instance, {"variables": ["x", "y", "z"], "constraints": BASES[base]}
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ordcsp.sampler, "GRID_CAP", 10**3)
        mp.setattr(ordcsp.sampler, "TABLE_CAP", 10**4)
        mp.setattr(ordcsp.sampler, "CHECK_BUDGET", 10**4)
        mp.setattr(ordcsp.formula, "MAX_TABLE_WIDTH", 100)
        for argv in (
            ["sample", "--template", str(template), "--size", str(size)],
            ["solve", "--template", str(template), "--instance", str(instance)],
            ["orbits", "--template", str(template), "--size", str(n), "--budget=1000"],
        ):
            code = run_cli(argv)
            assert 0 <= code <= 3, capsys.readouterr().err
            capsys.readouterr()


@st.composite
def fuzzed_structures(draw):
    """One structure JSON: size 0-4 or huge, up to two relations of arity
    1-3 whose tuples may be out of range or ill-typed, and one top-level
    key that may be replaced or missing."""
    size = draw(st.integers(0, 4) | st.sampled_from(HUGE))
    arities = draw(st.lists(st.integers(1, 3), max_size=2))
    element = st.integers(0, max(min(size, 4) - 1, 0))
    bad_tuple = st.lists(st.integers(-1, 4) | scalars, max_size=4)
    data = {
        "signature": [
            {"name": f"R{i}", "arity": k} for i, k in enumerate(arities)
        ],
        "size": size,
        "relations": {
            f"R{i}": draw(
                st.lists(
                    st.lists(element, min_size=k, max_size=k) | bad_tuple,
                    max_size=6,
                )
            )
            for i, k in enumerate(arities)
        },
    }
    if draw(st.booleans()):
        key = draw(st.sampled_from(("signature", "size", "relations", "labels")))
        if draw(st.integers(0, 2)) == 0:
            data.pop(key, None)
        else:
            data[key] = draw(json_values)
    return arities, data


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(fuzzed_structures(), st.integers(1, 4), st.integers(1, 3))
def test_fuzzed_structure_json_never_crashes(tmp_path, capsys, case, ts, walk):
    arities, data = case
    b, k2, inst = tmp_path / "b.json", tmp_path / "k2.json", tmp_path / "i.json"
    empty, zero = tmp_path / "e.json", tmp_path / "z.json"
    write_json(b, data)
    write_json(empty, {"variables": [], "constraints": []})
    signature = [{"name": f"R{i}", "arity": k} for i, k in enumerate(arities)]
    write_json(zero, {"signature": signature, "size": 0})
    write_json(k2, complete_graph(2).to_json_dict())
    args = ["x", "y", "z"][: arities[0]] if arities else []
    constraints = [{"rel": "R0", "args": args}] if arities else []
    write_json(inst, {"variables": ["x", "y", "z"], "constraints": constraints})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ordcsp.solver, "NETWORK_CAP", 10**4)
        mp.setattr(ordcsp.lab, "MAX_WALK_HALF_LENGTH", 2)
        for argv in (
            ["powerset", "--structure", str(b)],
            ["check-ts", "--structure", str(b), "--arity", str(ts)],
            ["check-semilattice", "--structure", str(b)],
            ["check-equiv", "--structure", str(b)],
            ["walk-lemma", "--structure", str(b), "--arity", str(walk)],
            ["walk", "--from", str(b), "--to", str(b), "--size", str(walk)],
            ["hom", "--from", str(b), "--to", str(k2)],
            ["hom", "--from", str(b), "--to", str(zero)],
            ["hom", "--from", str(inst), "--to", str(b)],
            ["ac", "--instance", str(inst), "--structure", str(b)],
            ["hom", "--from", str(empty), "--to", str(b)],
            ["ac", "--instance", str(empty), "--structure", str(b)],
        ):
            code = run_cli(argv)
            assert 0 <= code <= 3, capsys.readouterr().err
            capsys.readouterr()


# Template and sample size per base of the instance fuzz; samples of
# gamma3 at n=4 have 14 elements, so masks span more than one digit.
INSTANCE_BASES = {"qlt": 3, "ord3": 3, "gamma3": 4}


@st.composite
def fuzzed_instances(draw):
    """One instance JSON over a preset's signature, whose constraints may
    repeat variables, with at most one fault: an unknown relation, an
    arity off by one, an undeclared or ill-typed argument, an ill-typed
    or duplicate variable, or a top-level key replaced or missing."""
    base = draw(st.sampled_from(sorted(INSTANCE_BASES)))
    symbols = ordcsp.preset(base).signature.symbols
    variables = draw(
        st.lists(st.sampled_from("xyzw"), min_size=1, max_size=4, unique=True)
    )
    constraints = []
    for _ in range(draw(st.integers(0, 5))):
        rel, arity = draw(st.sampled_from(symbols))
        args = st.lists(st.sampled_from(variables), min_size=arity, max_size=arity)
        constraints.append({"rel": rel, "args": draw(args)})
    data = {"variables": variables, "constraints": constraints}
    fault = draw(st.sampled_from(("none", "rel", "arity", "arg", "variable", "key")))
    if fault in ("rel", "arity", "arg") and constraints:
        c = draw(st.sampled_from(constraints))
        if fault == "rel":
            c["rel"] = draw(st.sampled_from(["E", c["rel"].lower()]) | scalars)
        elif fault == "arity":
            c["args"] = c["args"][1:] if draw(st.booleans()) else c["args"] * 2
        else:
            c["args"] = draw(json_values | st.lists(scalars, max_size=3))
    elif fault == "variable":
        variables.append(draw(scalars | st.sampled_from(variables)))
    elif fault == "key":
        key = draw(st.sampled_from(("variables", "constraints")))
        if draw(st.booleans()):
            data.pop(key)
        else:
            data[key] = draw(json_values)
    return base, data


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(fuzzed_instances())
def test_fuzzed_instance_json_never_crashes(tmp_path, capsys, case):
    base, data = case
    t, b, inst = tmp_path / "t.json", tmp_path / "b.json", tmp_path / "i.json"
    template = ordcsp.preset(base)
    write_json(t, template.to_json_dict())
    structure = ordcsp.sample(template, INSTANCE_BASES[base]).structure
    write_json(b, structure.to_json_dict())
    write_json(inst, data)
    for argv in (
        ["ac", "--instance", str(inst), "--structure", str(b)],
        ["solve", "--template", str(t), "--instance", str(inst)],
        ["hom", "--from", str(inst), "--to", str(b)],
    ):
        code = run_cli(argv)
        assert 0 <= code <= 3, capsys.readouterr().err
        capsys.readouterr()


def test_walk_lemma_cap(tmp_path, capsys, monkeypatch):
    b = tmp_path / "b.json"
    edges = [[0, 0], [0, 1], [1, 1], [1, 2], [2, 2], [0, 2]]
    write_json(
        b,
        {
            "signature": [{"name": "E", "arity": 2}],
            "size": 3,
            "relations": {"E": edges},
        },
    )
    argv = ["walk-lemma", "--structure", str(b), "--arity"]
    start = perf_counter()
    assert run_cli(argv + [str(10**7)]) == 3
    assert perf_counter() - start < 5
    assert "walk lemma cap: arity 10000000 > 100000" in capsys.readouterr().err
    monkeypatch.setattr(ordcsp.lab, "MAX_WALK_HALF_LENGTH", 4)
    assert run_cli(argv + ["5"]) == 3
    capsys.readouterr()
    code, data = run(capsys, *argv, "4")
    assert code == 0
    assert len(data["pairs"][0]["exact_walk"]["elements"]) == 9


def test_internal_error_exit(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("ordcsp.cli._cmd_preset", crash)
    assert run_cli(["preset", "--name", "qlt"]) == 4
    assert capsys.readouterr().err == "error: internal error: RuntimeError: boom\n"


def test_module_entry_point(capsys):
    # ``python -m ordcsp.cli`` runs main, whose sys.exit passes on the code.
    src = os.path.dirname(os.path.dirname(ordcsp.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-B", "-m", "ordcsp.cli", "preset", "--name"]
    done = subprocess.run(argv + ["qlt"], env=env, capture_output=True, text=True)
    assert run_cli(["preset", "--name", "qlt"]) == 0
    assert done.returncode == 0
    assert done.stdout == capsys.readouterr().out
    done = subprocess.run(argv + ["nope"], env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert "unknown preset 'nope'" in done.stderr


def test_usage_error_exit():
    assert run_cli(["frobnicate"]) == 2
    assert run_cli(["solve"]) == 2


def test_preset_file_equals_builtin(tmp_path, capsys, qlt_path):
    # Running on the written preset equals running on the builtin.
    inst = tmp_path / "i.json"
    write_json(
        inst,
        {
            "variables": ["x", "y"],
            "constraints": [{"rel": "Lt", "args": ["x", "y"]}],
        },
    )
    code, via_file = run(
        capsys, "solve", "--template", str(qlt_path), "--instance", str(inst),
        "--witness",
    )
    assert code == 0
    from ordcsp import Instance, preset, solve

    direct = solve(preset("qlt"), Instance(("x", "y"), (("Lt", ("x", "y")),)))
    assert via_file == direct.to_json_dict()


def test_determinism(tmp_path, capsys, qlt_path):
    outs = set()
    for _ in range(3):
        code, data = run(
            capsys, "sample", "--template", str(qlt_path), "--size", "4"
        )
        assert code == 0
        outs.add(json.dumps(data, sort_keys=True))
    assert len(outs) == 1


# Every subcommand on small fixed inputs: its exact stdout and exit code.
GOLDEN = [
    (
        "preset --name qlt",
        0,
        {'name': 'qlt',
         'kind': 'direct',
         'domain_formula': 'true',
         'equality_formula': '(eq 0 1)',
         'relations': [{'name': 'Lt', 'arity': 2, 'formula': '(lt 0 1)'}],
         'semilattice': 'min'},
    ),
    (
        "sample --template qlt.json --size 2",
        0,
        {'signature': [{'name': 'Lt', 'arity': 2}],
         'size': 2,
         'relations': {'Lt': [[0, 1]]}},
    ),
    (
        "sample --template gamma3.json --size 1 --sidecar side.json",
        0,
        {'signature': [{'name': 'M', 'arity': 2},
                       {'name': 'Ord', 'arity': 2}],
         'size': 2,
         'relations': {'M': [], 'Ord': [[0, 1]]},
         'labels': ['(0, 1)', '(1, 0)']},
    ),
    (
        "solve --template ord3.json --instance t.json",
        0,
        {'accept': True,
         'sample_size': 3,
         'domains': {'x': [1, 2], 'y': [0, 1, 2], 'z': [0, 1, 2]}},
    ),
    (
        "solve --template ord3.json --instance t.json --witness",
        0,
        {'accept': True,
         'sample_size': 3,
         'domains': {'x': [1, 2], 'y': [0, 1, 2], 'z': [0, 1, 2]},
         'witness': {'x': 1, 'y': 0, 'z': 0}},
    ),
    (
        "solve --template ord3.json --instance txxx.json --witness",
        1,
        {'accept': False, 'sample_size': 1},
    ),
    (
        "ac --instance k4.json --structure k3.json",
        0,
        {'accept': True,
         'domains': {'a': [0, 1, 2],
                     'b': [0, 1, 2],
                     'c': [0, 1, 2],
                     'd': [0, 1, 2]}},
    ),
    ("hom --from k4.json --to k3.json", 1, {'exists': False, 'mapping': None}),
    ("hom --from empty.json --to k2.json", 0, {'exists': True, 'mapping': {}}),
    ("hom --from size0.json --to k2.json", 0, {'exists': True, 'mapping': {}}),
    (
        "hom --from k3.json --to k3.json",
        0,
        {'exists': True, 'mapping': {'0': 0, '1': 1, '2': 2}},
    ),
    (
        "powerset --structure k2.json",
        0,
        {'signature': [{'name': 'E', 'arity': 2}],
         'size': 3,
         'relations': {'E': [[0, 1], [1, 0], [2, 2]]},
         'labels': ['{0}', '{1}', '{0,1}']},
    ),
    (
        "check-ts --structure chain.json --arity 2",
        0,
        {'arity': 2,
         'found': True,
         'table': {'arity': 2,
                   'entries': [{'subset': [0], 'value': 0},
                               {'subset': [1], 'value': 1},
                               {'subset': [0, 1], 'value': 0}]}},
    ),
    (
        "check-ts --structure k3.json --arity 2",
        1,
        {'arity': 2, 'found': False, 'table': None},
    ),
    (
        "check-semilattice --structure chain.json",
        0,
        {'found': True, 'table': {'size': 2, 'table': [[0, 0], [0, 1]]}},
    ),
    ("check-semilattice --structure k3.json", 1, {'found': False}),
    (
        "check-equiv --structure chain.json",
        0,
        {'set_hom': True,
         'ts_at_km': True,
         'ts_arity': 4,
         'semilattice': {'size': 2, 'table': [[0, 0], [0, 1]]},
         'consistent': True},
    ),
    (
        "check-equiv --structure k3.json",
        0,
        {'set_hom': False,
         'ts_at_km': False,
         'ts_arity': 6,
         'semilattice': None,
         'consistent': True},
    ),
    (
        "walk --from swap.json --to swap.json --size 3",
        0,
        {'found': True, 'walk': {'elements': [0, 1, 0], 'half_length': 1}},
    ),
    ("walk --from arc.json --to arc.json --size 3", 1, {'found': False}),
    (
        "walk-lemma --structure chain.json --arity 2",
        0,
        {'arity': 2,
         'pairs': [{'r': 'R',
                    's': 'R',
                    'exact_walk': {'elements': [0, 0, 0, 0, 0],
                                   'half_length': 2},
                    'shortest_walk': {'elements': [0, 0, 0],
                                      'half_length': 1},
                    'intersection_nonempty': True,
                    'violation': False}],
         'violations': 0},
    ),
    (
        "orbits --template gamma2.json --size 3",
        0,
        {'n': 3, 'class_count': 4, 'exactness': 'exact'},
    ),
]
SIDECAR = {"representatives": [[0, 1], [1, 0]], "base_grid_size": 2}


@pytest.fixture
def golden_inputs(tmp_path, monkeypatch):
    for name in ("qlt", "ord3", "gamma2", "gamma3"):
        data = ordcsp.preset(name).to_json_dict()
        write_json(tmp_path / f"{name}.json", data)
    write_json(tmp_path / "k2.json", complete_graph(2).to_json_dict())
    write_json(tmp_path / "k3.json", complete_graph(3).to_json_dict())
    for name, tuples in (
        ("chain", [[0, 0], [0, 1], [1, 1]]),
        ("swap", [[0, 1], [1, 0]]),
        ("arc", [[0, 1]]),
    ):
        write_json(
            tmp_path / f"{name}.json",
            {
                "signature": [{"name": "R", "arity": 2}],
                "size": 2,
                "relations": {"R": tuples},
            },
        )
    write_json(tmp_path / "empty.json", {"variables": [], "constraints": []})
    write_json(
        tmp_path / "size0.json",
        {"signature": [{"name": "E", "arity": 2}], "size": 0, "relations": {}},
    )
    vs = ["a", "b", "c", "d"]
    write_json(
        tmp_path / "k4.json",
        {
            "variables": vs,
            "constraints": [
                {"rel": "E", "args": [p, q]} for p in vs for q in vs if p != q
            ],
        },
    )
    for name, args in (("t", ["x", "y", "z"]), ("txxx", ["x", "x", "x"])):
        write_json(
            tmp_path / f"{name}.json",
            {
                "variables": sorted(set(args)),
                "constraints": [{"rel": "T", "args": args}],
            },
        )
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize(
    "argv, code, expected", GOLDEN, ids=[argv for argv, _, _ in GOLDEN]
)
def test_cli_golden(golden_inputs, capsys, argv, code, expected):
    assert run_cli(argv.split()) == code
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
    if "--sidecar" in argv:
        side = (golden_inputs / "side.json").read_text()
        assert side == json.dumps(SIDECAR, indent=2) + "\n"
