"""CLI surface: expression parsing, subcommands, exit codes, caching."""

import json
import re

import pytest

from metab.cli import MAX_NESTING, RunConfig, parse_ring_expr, run
from metab import fingrp
from metab.errors import ParseError
from metab.fingrp import IdealBasis
from metab.grpring import ring_make


def test_parse_ring_expr():
    ctx = ring_make(2, 2)
    one, a1, a2 = ctx.one(), ctx.monomial(1, 0), ctx.monomial(0, 1)
    assert parse_ring_expr("(1-a2)*(a1-1)", ctx) == (one - a2) * (a1 - one)
    assert parse_ring_expr("a1^0", ctx) == one
    assert parse_ring_expr("a1^2", ctx) == one  # exponents wrap mod m
    assert parse_ring_expr("  1 + a1 * a2 ", ctx) == one + a1 * a2
    assert parse_ring_expr("-a1", ctx) == -a1
    assert parse_ring_expr("a2^-1", ctx) == a2
    assert parse_ring_expr("3", ring_make(5, 2)) == ring_make(5, 2).scalar(3)


def test_parse_errors_carry_offsets():
    ctx = ring_make(2, 2)
    with pytest.raises(ParseError) as err:
        parse_ring_expr("1+", ctx)
    assert err.value.offset == 2
    with pytest.raises(ParseError):
        parse_ring_expr("(1+a1", ctx)
    with pytest.raises(ParseError):
        parse_ring_expr("1 1", ctx)
    with pytest.raises(ParseError):
        parse_ring_expr("b1", ctx)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(command="ring", max_group=0)


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-group", "0", "catalog"],
        ["--max-ring", "-1", "catalog"],
        ["ring", "3", "2"],
        ["orbits", "S3", "--level", "two"],
        ["no-such-command"],
    ],
    ids=["max-group-zero", "max-ring-negative", "missing-argument", "level-not-an-integer",
         "unknown-command"],
)
def test_configuration_errors_exit_3(capsys, argv):
    # at the parent the first two raised ValueError out of run (a traceback,
    # exit 1) and the rest exited 2, the budget code
    assert run(argv) == 3
    assert "error: " in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("opener", ["(", "-"])
def test_deep_nesting_is_a_parse_error(capsys, opener):
    # 1000 levels overflowed the recursion at the parent: exit 5
    expr = opener * 1000 + "1" + (")" * 1000 if opener == "(" else "")
    ctx = ring_make(2, 2)
    with pytest.raises(ParseError) as err:
        parse_ring_expr(expr, ctx)
    assert err.value.offset == MAX_NESTING
    assert run(["ring", "2", "2", "--", expr]) == 3
    assert "nesting deeper than" in capsys.readouterr().err
    shallow = opener * MAX_NESTING + "1" + (")" * MAX_NESTING if opener == "(" else "")
    assert parse_ring_expr(shallow, ctx) == ctx.one()


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_cmd_ring(capsys):
    code, doc = run_json(capsys, ["ring", "2", "2", "(1-a2)*(a1-1)"])
    assert code == 0
    assert doc["augmentation"] == 0
    assert doc["coeffs"] == [[1, 1], [1, 1]]
    assert doc["unit"] is False


def test_cmd_ring_parse_error(capsys):
    assert run(["ring", "2", "2", "1+"]) == 3
    assert "offset 2" in capsys.readouterr().err


def test_cmd_ring_bad_modulus(capsys):
    assert run(["ring", "1", "2", "1"]) == 3


def test_cmd_classify(capsys):
    code, doc = run_json(capsys, ["classify", "2", "2", "0", "1"])
    assert code == 0
    assert doc["verdict"]["verdict"] == "inner"
    assert doc["verdict"]["inner_exponents"] == [1, 0]
    code, doc = run_json(capsys, ["classify", "2", "2", "0", "0"])
    assert doc["verdict"]["inner_exponents"] == [0, 0]


def test_cmd_classify_exhaustive(capsys):
    code, doc = run_json(capsys, ["classify", "2", "2", "--exhaustive"])
    assert code == 0
    assert len(doc["rows"]) == 256
    kinds = {row["verdict"] for row in doc["rows"]}
    assert kinds == {"inner", "automorphism"}  # R(2,2) dets are all units


def test_exhaustive_rows_agree_with_per_pair_classify(capsys):
    from metab.iacalc import IAEndo, ia_classify

    code, doc = run_json(capsys, ["classify", "2", "2", "--exhaustive"])
    assert code == 0
    ctx = ring_make(2, 2)
    pairs = [(r1, r2) for r1 in ctx.all_elements() for r2 in ctx.all_elements()]
    assert len(doc["rows"]) == len(pairs)
    for row, (r1, r2) in zip(doc["rows"], pairs):
        verdict = ia_classify(IAEndo(r1, r2))
        assert row == {"r1": r1.vec().tolist(), "r2": r2.vec().tolist(),
                       "det": verdict.det.vec().tolist(), "verdict": verdict.kind}


def test_classify_exhaustive_checks_verdicts_on_w(capsys, monkeypatch):
    # with no monomial recognized, "inner" is missed; the conjugator check catches it
    monkeypatch.setattr("metab.iacalc.monomial_part", lambda x: None)
    assert run(["classify", "2", "2", "--exhaustive"]) == 4
    assert "conjugator search" in capsys.readouterr().err


def test_classify_exhaustive_checks_batched_determinants(capsys, monkeypatch):
    from metab import cli

    pair_dets = cli.pair_dets
    monkeypatch.setattr(cli, "pair_dets", lambda ctx, elems: (pair_dets(ctx, elems) + 1) % ctx.n)
    assert run(["classify", "2", "2", "--exhaustive"]) == 5
    assert "batched determinant" in capsys.readouterr().err


def test_cmd_orbits_s3(capsys):
    code, doc = run_json(capsys, ["orbits", "S3"])
    assert code == 0
    assert len(doc["classes"]) == 3
    assert doc["orbits"] == [[0, 1, 2]]


def test_cmd_orbits_with_level(capsys):
    code, doc = run_json(capsys, ["orbits", "S3", "--level", "6"])
    assert code == 0
    assert doc["certificate"]["verdict"] is True
    assert doc["stabilizers"][0]["order"] == 48


def test_cmd_orbits_unknown_group(capsys):
    assert run(["orbits", "NoSuchGroup"]) == 3
    err = capsys.readouterr().err
    assert "S3" in err and "Heis27" in err  # catalog listed


def test_cmd_components_s3(capsys, tmp_path):
    csv_path = tmp_path / "s3.csv"
    code, doc = run_json(capsys, ["components", "S3", "--csv", str(csv_path)])
    assert code == 0
    assert doc["classes"] == 3
    assert len(doc["components"]) == 1
    comp = doc["components"][0]
    assert comp["degree"] == 3 and comp["invariants"]["genus"] == 0
    assert doc["certificate"]["wohlfahrt"] == 2
    assert doc["ia_descent_samples"] > 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("group,")


def test_cmd_components_refuses_s4(capsys):
    assert run(["components", "S4"]) == 3
    assert "force" in capsys.readouterr().err
    code, doc = run_json(capsys, ["components", "S4", "--force"])
    assert code == 0
    assert doc["components"]


def test_cmd_certify(capsys):
    code, doc = run_json(capsys, ["certify", "Q8"])
    assert code == 0
    assert doc["e"] == 4 and doc["verdict"] is True and doc["gamma_e_contained"] is True


def test_cmd_catalog(capsys):
    code, doc = run_json(capsys, ["catalog"])
    assert code == 0
    names = [g["name"] for g in doc["groups"]]
    for required in ["S3", "D4", "D5", "D6", "Q8", "Heis27", "C7C3", "Z2xZ2", "Z8xZ8"]:
        assert required in names
    s3 = next(g for g in doc["groups"] if g["name"] == "S3")
    assert s3["metabelian"] is True and s3["order"] == 6


def test_budget_exit_code(capsys):
    assert run(["--max-group", "3", "orbits", "S3"]) == 2


def test_oversized_group_file_stops_at_the_table_limit(capsys, tmp_path, monkeypatch):
    # S9 has 362,880 elements; the parent closed all of them (725,760
    # perm_mul calls, 2.5 s) before refusing the group
    calls = 0
    perm_mul = fingrp.perm_mul

    def counted(p, q):
        nonlocal calls
        calls += 1
        return perm_mul(p, q)

    monkeypatch.setattr(fingrp, "perm_mul", counted)
    path = tmp_path / "s9.json"
    path.write_text(json.dumps({"name": "S9", "degree": 9, "gen1": [list(range(9))], "gen2": [[0, 1]]}))
    assert run(["orbits", str(path)]) == 2
    assert "table budget" in capsys.readouterr().err
    assert calls <= 2 * (fingrp.TABLE_LIMIT + 1)


def test_group_file_loading(capsys, tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(
        json.dumps({"name": "klein", "degree": 4, "gen1": [[0, 1]], "gen2": [[2, 3]]})
    )
    code, doc = run_json(capsys, ["orbits", str(path)])
    assert code == 0
    assert len(doc["classes"]) == 6


def test_cache_hit_identical(capsys, tmp_path):
    argv = ["--cache-dir", str(tmp_path), "components", "D4"]
    code1, doc1 = run_json(capsys, argv)
    cached_files = list(tmp_path.glob("table-*.json"))
    assert code1 == 0 and cached_files
    code2, doc2 = run_json(capsys, argv)
    assert code2 == 0
    assert doc1 == doc2


def test_corrupt_cache_recovers(capsys, tmp_path):
    argv = ["--cache-dir", str(tmp_path), "orbits", "S3"]
    code1, doc1 = run_json(capsys, argv)
    for f in tmp_path.glob("table-*.json"):
        f.write_text("{not json")
    code2, doc2 = run_json(capsys, argv)
    assert code2 == 0
    assert doc1 == doc2


def test_cached_table_failing_its_checks_is_recomputed(capsys, tmp_path):
    argv = ["--cache-dir", str(tmp_path), "orbits", "S3"]
    assert run(argv) == 0
    capsys.readouterr()
    (cache_file,) = tmp_path.glob("table-*.json")
    data = json.loads(cache_file.read_text())
    data["table"]["perm_s"] = [0] * len(data["table"]["perm_s"])
    cache_file.write_text(json.dumps(data))
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["orbits"] == [[0, 1, 2]]
    assert "corrupt cache" in captured.err


@pytest.mark.parametrize("command", ["orbits", "components"])
def test_cached_non_generating_representative_is_recomputed(capsys, tmp_path, command):
    argv = ["--cache-dir", str(tmp_path), command, "S3"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    (cache_file,) = tmp_path.glob("table-*.json")
    data = json.loads(cache_file.read_text())
    data["table"]["classes"][0] = [0, 0]
    cache_file.write_text(json.dumps(data))
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out) == doc
    assert "corrupt cache" in captured.err


@pytest.mark.parametrize("command", ["orbits", "components"])
def test_cached_relabelled_table_is_recomputed(capsys, tmp_path, command):
    # swapping two class labels in every move passes any check on the
    # permutations alone; at the parent, orbits printed wrong orbits with exit
    # 0 and components exited 4 on an orbit-stabilizer mismatch
    argv = ["--cache-dir", str(tmp_path), command, "C7C3"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    (cache_file,) = tmp_path.glob("table-*.json")
    data = json.loads(cache_file.read_text())
    table = data["table"]
    swap = {0: 3, 3: 0}

    def relabel(perm):
        out = list(perm)
        for x, y in enumerate(perm):
            out[swap.get(x, x)] = swap.get(y, y)
        return out

    table["perm_s"], table["perm_t"] = relabel(table["perm_s"]), relabel(table["perm_t"])
    table["perm_u"] = {u: relabel(p) for u, p in table["perm_u"].items()}
    cache_file.write_text(json.dumps(data))
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out) == doc
    assert "corrupt cache" in captured.err


@pytest.mark.parametrize(
    "content",
    [
        {"name": "g", "degree": 3, "gen1": [[0, 5]], "gen2": [[0, 1, 2]]},
        {"name": "g", "degree": 3, "gen1": 7, "gen2": [[0, 1, 2]]},
        [1, 2],
        {"name": "g", "degree": 3, "gen1": [["a", 1]], "gen2": [[0, 1, 2]]},
    ],
    ids=["point-out-of-range", "generator-not-a-list", "not-an-object", "point-not-an-integer"],
)
def test_malformed_group_file_exit_code(capsys, tmp_path, content):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(content))
    assert run(["orbits", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("self-check failed")

    monkeypatch.setattr("metab.cli.component_report", broken)
    assert run(["components", "S3"]) == 5
    assert "internal error: self-check failed" in capsys.readouterr().err


def test_components_checks_the_kernel_ideal_index(capsys, monkeypatch):
    # exit 0 at the parent, which never ran kernel_ideal from the CLI
    index = IdealBasis.additive_index
    monkeypatch.setattr(IdealBasis, "additive_index", lambda self: index(self) + 1)
    assert run(["components", "C7C3"]) == 4
    assert "[R : I] != |G'|" in capsys.readouterr().err


def test_components_checks_the_inertia_relation(capsys, monkeypatch):
    monkeypatch.setattr("metab.cli.inertia_relation_check", lambda mc, ideal: False)
    assert run(["components", "C7C3"]) == 4
    assert "inertia relation fails" in capsys.readouterr().err


def test_classify_checks_inner_verdict_against_conjugator(capsys, monkeypatch):
    # gamma_(0,1) is conjugation by x1; exit 0 at the parent
    assert run(["classify", "3", "2", "0", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setattr("metab.iacalc.find_conjugator", lambda e: None)
    assert run(["classify", "3", "2", "0", "1"]) == 4
    assert "conjugator search" in capsys.readouterr().err


def test_cache_file_is_named_by_hash_only(capsys, tmp_path):
    path = tmp_path / "group.json"
    path.write_text(
        json.dumps({"name": "../escaped", "degree": 3, "gen1": [[0, 1]], "gen2": [[0, 1, 2]]})
    )
    cache = tmp_path / "cache"
    argv = ["--cache-dir", str(cache), "orbits", str(path)]
    assert run(argv) == 0
    names = [f.name for f in cache.iterdir()]
    assert len(names) == 1 and re.fullmatch(r"table-[0-9a-f]{24}\.json", names[0])
    capsys.readouterr()
    assert run(argv) == 0
    assert "corrupt cache" not in capsys.readouterr().err


def test_byte_identical_reports(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["--out", str(out1), "components", "Q8"]) == 0
    assert run(["--out", str(out2), "components", "Q8"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
