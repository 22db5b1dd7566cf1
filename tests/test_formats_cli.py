import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

import pgroupoid as pg
from pgroupoid import fixtures
from pgroupoid.cli import build_parser, main
from pgroupoid.formats import (
    NAME,
    FormatError,
    emit_cat,
    emit_pgd,
    parse_cat,
    parse_pgd,
    parse_string_arg,
    parse_word,
)

from helpers import MODEL_FIXTURES, category_pool, groupoid_pool


# -- formats -----------------------------------------------------------------


def test_pgd_round_trip_all_fixtures():
    for name in MODEL_FIXTURES:
        model = fixtures.load_model(name)
        assert parse_pgd(emit_pgd(model)) == model


def test_pgd_emit_is_canonical_fixed_point():
    for name in ("na_square.pgd", "a_square.pgd", "na_pentagon.pgd"):
        text = fixtures.fixture_text(name)
        assert emit_pgd(parse_pgd(text)) == text


def test_pgd_self_inverse_round_trip():
    m = pg.TruncatedModel.symmetric(["o"], [("m", "o", "o")],
                                    self_inverse=["m"])
    text = emit_pgd(m)
    assert "edge m o o self" in text
    assert parse_pgd(text) == m


def _partner_renamed(nerve):
    """The nerve rebuilt from its edge pairs, each partner named f^."""
    rename = {}
    pairs, self_inverse = [], []
    for pair in nerve.edge_pairs():
        e = nerve.edge(pair[0])
        pairs.append((e.name, e.src, e.tgt))
        if len(pair) == 1:
            self_inverse.append(e.name)
        else:
            rename[pair[1]] = e.name + "^"
    triangles = [tuple(rename.get(x, x) for x in t) for t in nerve.triangles]
    return pg.TruncatedModel.symmetric(nerve.objects, pairs, triangles, self_inverse)


@pytest.mark.parametrize("group", [pg.cyclic_group(3), pg.cyclic_group(5),
                                   pg.pair_groupoid(["a", "b", "c"])],
                         ids=["Z3", "Z5", "pair(3)"])
def test_pgd_round_trip_renames_nerve_partners(group):
    nerve = pg.nerve_truncation(group)
    assert any(len(p) == 2 and p[1] != p[0] + "^" for p in nerve.edge_pairs())
    back = parse_pgd(emit_pgd(nerve))
    assert back.validate().ok
    assert back == _partner_renamed(nerve)
    assert emit_pgd(back) == emit_pgd(nerve)


def test_pgd_emit_refuses_a_partner_name_held_by_another_edge():
    # x's partner is y, and x^ is the partner of another loop z
    edges = [pg.Edge("1@o", "o", "o", inv="1@o", is_identity=True),
             pg.Edge("x", "o", "o", inv="y"), pg.Edge("y", "o", "o", inv="x"),
             pg.Edge("x^", "o", "o", inv="z"), pg.Edge("z", "o", "o", inv="x^")]
    model = pg.TruncatedModel("symmetric", ["o"], edges, [])
    with pytest.raises(FormatError, match=r"\('x', 'y'\).*x\^ names another edge"):
        emit_pgd(model)


def _named_models():
    yield from (pg.nerve_truncation(cat) for cat in groupoid_pool())
    for n in (3, 4):
        tris = pg.enumerate_triangulations(n)
        for t in tris:
            for t2 in tris:
                if pg.pair_classify(t, t2) != pg.INCOMPATIBLE:
                    yield pg.build_glued(t, t2).model
    yield from (fixtures.load_model(name) for name in MODEL_FIXTURES)


NAMED_MODELS = list(_named_models())
OBJECT_NAMES = ("o", "p'", "q_1", "s^", "t u", "1@v", "w\n", "")
EDGE_NAMES = ("a", "b'", "c_2", "e^", "f g", "1@h", "k-l", "m\n", "")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(NAMED_MODELS), st.data())
def test_pgd_round_trips_or_refuses_every_name(model, data):
    """A library model under hand-drawn names, some of which PGD cannot
    hold, round-trips through PGD (partners named f^) or is refused."""
    objects = data.draw(st.permutations(sorted({*OBJECT_NAMES, *model.objects})))
    objects = objects[:len(model.objects)]
    obj = dict(zip(model.objects, objects))
    names = model.nonidentity_edges()
    drawn = data.draw(st.permutations(sorted({*EDGE_NAMES, *names})))[:len(names)]
    keep_identity_names = data.draw(st.booleans())
    rename = dict(zip(names, drawn))
    for o in model.objects:
        old = pg.identity_name(o)
        rename[old] = old if keep_identity_names else pg.identity_name(obj[o])
    edges = [pg.Edge(rename[e.name], obj[e.src], obj[e.tgt],
                     inv=None if e.inv is None else rename[e.inv],
                     is_identity=e.is_identity) for e in model.edges.values()]
    triangles = [tuple(rename[x] for x in t) for t in model.triangles]
    named = pg.TruncatedModel(model.mode, objects, edges, triangles)
    readable = (all(NAME.fullmatch(o) for o in named.objects)
                and all(NAME.fullmatch(e) for e in named.nonidentity_edges())
                and all(e.name == pg.identity_name(e.src)
                        for e in named.edges.values() if e.is_identity))
    try:
        text = emit_pgd(named)
    except FormatError:
        assert not readable
        return
    back = parse_pgd(text)
    assert back == (_partner_renamed(named) if named.mode == "symmetric" else named)


def test_pgd_emit_refuses_unreadable_names():
    # the pair (a^, c) declares a^; parse_pgd refuses it as a declared name
    edges = [pg.Edge("1@o", "o", "o", inv="1@o", is_identity=True),
             pg.Edge("1@p", "p", "p", inv="1@p", is_identity=True),
             pg.Edge("a^", "o", "p", inv="c"), pg.Edge("c", "p", "o", inv="a^")]
    with pytest.raises(FormatError, match=r"edge 'a\^' has no PGD name"):
        emit_pgd(pg.TruncatedModel("symmetric", ["o", "p"], edges, []))
    with pytest.raises(FormatError, match=r"edge 'a b' has no PGD name"):
        emit_pgd(pg.TruncatedModel.symmetric(["o"], [("a b", "o", "o")]))
    with pytest.raises(FormatError, match=r"object 'o p' has no PGD name"):
        emit_pgd(pg.TruncatedModel.simplicial(["o p"], []))
    edges = [pg.Edge("e", "o", "o", inv="e", is_identity=True)]
    with pytest.raises(FormatError, match=r"identity 'e' is not named 1@o"):
        emit_pgd(pg.TruncatedModel("symmetric", ["o"], edges, []))


def test_pgd_parse_errors():
    with pytest.raises(FormatError):
        parse_pgd("mode symmetric\n")
    with pytest.raises(FormatError):
        parse_pgd("pgd 1\nobject a\n")  # missing mode
    with pytest.raises(FormatError):
        parse_pgd("pgd 1\nmode nonsense\n")
    with pytest.raises(FormatError):
        parse_pgd("pgd 1\nmode symmetric\nedge f a b\n")  # dangling objects
    with pytest.raises(FormatError):
        parse_pgd("pgd 1\nmode symmetric\nobject a\nobject a\n")
    with pytest.raises(FormatError):
        parse_pgd("pgd 1\nmode simplicial\nobject a\nedge f! a a\n")


def test_pgd_loader_orbit_closes():
    text = ("pgd 1\nmode symmetric\nobject 0\nobject 1\nobject 2\n"
            "edge f 0 1\nedge g 1 2\nedge h 0 2\ntri f g h\n")
    m = parse_pgd(text)
    assert len(m.triangles) == 6
    assert m.validate().ok


def test_pgd_loader_checks_validity():
    bad = ("pgd 1\nmode simplicial\nobject 0\nobject 1\nobject 2\n"
           "edge f 0 1\nedge g 1 2\nedge h 0 2\nedge h2 0 2\n"
           "tri f g h\ntri f g h2\n")
    with pytest.raises(FormatError):
        parse_pgd(bad)
    broken = parse_pgd(bad, check=False)
    assert not broken.validate().ok


def _category_data(cat):
    morphisms = {name: (m.src, m.tgt) for name, m in cat.morphisms.items()}
    table = {(g, f): cat.compose(g, f) for f in cat.morphisms for g in cat.morphisms
             if cat.composable(f, g)}
    return cat.objects, morphisms, table


def test_cat_round_trip():
    # each category reads back as an equal one or the emitter refuses it
    cats = [fixtures.load_category(name) for name in ("interval.cat", "z3.cat")]
    refused = []
    for cat in cats + category_pool():
        try:
            text = emit_cat(cat)
        except FormatError as exc:
            refused.append(str(exc))
            continue
        assert _category_data(parse_cat(text)) == _category_data(cat)
    # path_category names composites with a dot, which CAT names exclude
    assert len(refused) == 8
    assert all(msg.startswith("morphism '") and "." in msg for msg in refused)
    with pytest.raises(FormatError, match=r"morphism 'u\.v'"):
        emit_cat(pg.path_category(["0", "1", "2"], [("u", "0", "1"), ("v", "1", "2")]))
    with pytest.raises(FormatError, match="object 'a b'"):
        emit_cat(pg.FiniteCategory(["a b"], [], {}))


def test_emit_cat_refuses_names_with_a_trailing_newline():
    with pytest.raises(FormatError, match=r"object 'a\\n'"):
        emit_cat(pg.FiniteCategory(["a\n"], [], {}))
    loop = pg.FiniteCategory(["o"], [("f\n", "o", "o")], {("f\n", "f\n"): "1@o"})
    with pytest.raises(FormatError, match=r"morphism 'f\\n'"):
        emit_cat(loop)


def test_cat_parse_errors():
    with pytest.raises(FormatError):
        parse_cat("objects a\n")
    with pytest.raises(FormatError):
        parse_cat("cat 1\nobjects o\nmor x o o\n")  # missing composite x.x
    with pytest.raises(FormatError):
        parse_cat("cat 1\nobjects o\nmor x o o\nmor y o o\n"
                  "comp x x y\ncomp x y x\ncomp y x y\ncomp y y x\n")


def test_word_syntax():
    assert parse_word("a,b,c") == ("a", "b", "c")
    assert parse_word("f^,1@0") == ("f^", "1@0")
    assert parse_string_arg("(f,g)") == ("f", "g")
    assert parse_string_arg("()") == ()
    with pytest.raises(FormatError):
        parse_word("a,,b")


# -- cli ----------------------------------------------------------------------


def _fx(name):
    return str(fixtures.fixture_path(name))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_validate_pass(capsys):
    code, out = run_cli(capsys, "validate", _fx("na_square.pgd"))
    assert code == 0
    rec = json.loads(out)
    assert rec["command"] == "validate" and rec["verdict"] == "pass"
    assert rec["counts"] == {"objects": 4, "edges": 14, "triangles": 24}


def test_cli_validate_failure(tmp_path, capsys):
    bad = tmp_path / "bad.pgd"
    bad.write_text("pgd 1\nmode simplicial\nobject 0\nobject 1\nobject 2\n"
                   "edge f 0 1\nedge g 1 2\nedge h 0 2\nedge h2 0 2\n"
                   "tri f g h\ntri f g h2\n")
    code, out = run_cli(capsys, "validate", str(bad))
    assert code == 3
    assert "spine-collision" in out
    # symmetric: (f, 1@1, e) with e parallel to f collides with f's
    # degenerate spine; the closed table gives four such collisions
    bad.write_text("pgd 1\nmode symmetric\nobject 0\nobject 1\n"
                   "edge e 0 1\nedge f 0 1\ntri f 1@1 e\n")
    code, out = run_cli(capsys, "validate", str(bad))
    assert code == 3
    assert out == json.dumps({
        "command": "validate", "verdict": "fail",
        "witness": [
            "spine-collision: triangle (1@1,e^,f^) collides with the "
            "degenerate spine (1@1,e^) -> e^",
            "spine-collision: triangle (1@1,f^,e^) collides with the "
            "degenerate spine (1@1,f^) -> f^",
            "spine-collision: triangle (e,1@1,f) collides with the "
            "degenerate spine (e,1@1) -> e",
            "spine-collision: triangle (f,1@1,e) collides with the "
            "degenerate spine (f,1@1) -> f",
        ],
        "counts": {"objects": 2, "edges": 4, "triangles": 6},
    }) + "\n"


def test_cli_structure_error_names_the_first_written_triangle(tmp_path):
    # the symmetric loader closes the table only after checking what was
    # written, in sorted order, so the detail is the same for every hash seed
    bad = tmp_path / "bad.pgd"
    bad.write_text("pgd 1\nmode symmetric\nobject 0\nobject 1\nobject 2\n"
                   "edge f 0 1\nedge g 1 2\nedge h 0 2\ntri f g h\ntri g f h\n")
    src = pathlib.Path(pg.__file__).resolve().parents[1]
    lines = set()
    for seed in range(6):
        done = subprocess.run(
            [sys.executable, "-m", "pgroupoid.cli", "embeddable", str(bad),
             "--max-len", "3"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": str(seed)})
        assert done.returncode == 2
        lines.add(done.stdout)
    assert lines == {json.dumps({
        "command": "embeddable", "verdict": "input-error",
        "detail": "triangle (g,f,h) has mismatched endpoints"}) + "\n"}


def test_cli_validate_malformed_input(capsys):
    code, out = run_cli(capsys, "validate", "missing-file.pgd")
    assert code == 2
    assert json.loads(out)["verdict"] == "input-error"


def test_cli_embeddable_na_square(capsys):
    code, out = run_cli(capsys, "embeddable", _fx("na_square.pgd"),
                        "--max-len", "3")
    assert code == 3
    rec = json.loads(out)
    assert rec["witness"] == "s1,s2,s3"
    assert rec["values"] == ["lT", "lT'"]
    assert rec["bound"] == 3


def test_cli_embeddable_bound_below_range_is_input_error(capsys):
    code, out = run_cli(capsys, "embeddable", _fx("na_square.pgd"),
                        "--max-len", "1")
    assert code == 2
    assert len(out.strip().splitlines()) == 1
    rec = json.loads(out)
    assert rec["command"] == "embeddable"
    assert rec["verdict"] == "input-error"


def test_cli_embeddable_kind(capsys):
    code, out = run_cli(capsys, "embeddable", _fx("example2.pgd"),
                        "--max-len", "8")
    assert code == 0
    assert json.loads(out)["verdict"] == "kind-up-to-bound"


def test_cli_mountain(tmp_path, capsys):
    sym = tmp_path / "e1s.pgd"
    code, _ = run_cli(capsys, "symmetrize", _fx("example1.pgd"),
                      "-o", str(sym))
    assert code == 0
    code, out = run_cli(capsys, "mountain", str(sym), "f", "g",
                        "--max-len", "7")
    assert code == 0
    rec = json.loads(out)
    assert rec["witness"] == "p,q,r,e^,b,c"
    code, out = run_cli(capsys, "mountain", _fx("example2.pgd"), "f", "g",
                        "--max-len", "9")
    assert code == 3
    assert json.loads(out)["verdict"] == "absent"


def test_cli_tau(capsys):
    code, out = run_cli(capsys, "tau", _fx("na_square.pgd"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "generators: dT'_13 dT_02 lT lT' s1 s2 s3"
    assert len(lines) == 5


def test_cli_reflect_reduce(tmp_path, capsys):
    out_path = tmp_path / "r.pgd"
    code, out = run_cli(capsys, "reflect", _fx("na_square.pgd"),
                        "--max-len", "3", "-o", str(out_path))
    assert code == 0
    reflected = pg.load_pgd(out_path)
    assert pg.mean_scan(reflected, 3).is_kind

    code, out = run_cli(capsys, "reduce", _fx("na_square.pgd"),
                        "-o", str(tmp_path / "red.pgd"))
    assert code == 0
    assert json.loads(out)["counts"]["objects"] == 1


def test_cli_symmetrize_failure(tmp_path, capsys):
    bad = tmp_path / "loop.pgd"
    bad.write_text("pgd 1\nmode simplicial\nobject 0\nobject 1\n"
                   "edge f 0 1\nedge g 1 0\ntri f g 1@0\n")
    code, out = run_cli(capsys, "symmetrize", str(bad),
                        "-o", str(tmp_path / "x.pgd"))
    assert code == 3
    assert json.loads(out)["verdict"] == "fail"


def test_cli_na_and_pairs(tmp_path, capsys):
    out_path = tmp_path / "na.pgd"
    code, out = run_cli(capsys, "na", "3", "0", "1", "-o", str(out_path))
    assert code == 0
    built = pg.load_pgd(out_path)
    assert built == fixtures.load_model("na_square.pgd")

    code, out = run_cli(capsys, "na", "3", "0", "0", "-o", str(out_path))
    assert code == 2

    code, out = run_cli(capsys, "pairs", "4")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 25
    classes = [r["class"] for r in rows]
    assert classes.count("incompatible") == 11
    assert classes.count("compatible") == 4
    assert classes.count("well_behaved") == 10
    assert all(r["degree"] == 3 for r in rows if "degree" in r)


def test_cli_na_rejects_out_of_range_indices(tmp_path, capsys):
    out_path = tmp_path / "na.pgd"
    for i, j in (("-1", "0"), ("0", "-1"), ("2", "0"), ("0", "5")):
        code, out = run_cli(capsys, "na", "3", i, j, "-o", str(out_path))
        assert code == 2
        rec = json.loads(out)
        assert (rec["command"], rec["verdict"]) == ("na", "input-error")
    assert not out_path.exists()


def test_cli_reduce_of_a_model_without_objects_is_input_error(tmp_path, capsys):
    empty = tmp_path / "empty.pgd"
    empty.write_text("pgd 1\nmode symmetric\n")
    out_path = tmp_path / "out.pgd"
    code, out = run_cli(capsys, "reduce", str(empty), "-o", str(out_path))
    assert code == 2
    rec = json.loads(out)
    assert (rec["command"], rec["verdict"]) == ("reduce", "input-error")
    assert not out_path.exists()


def test_cli_output_into_a_missing_directory_is_input_error(tmp_path, capsys):
    target = str(tmp_path / "nodir" / "x.pgd")
    calls = (("na", "3", "0", "1"),
             ("reflect", _fx("na_square.pgd"), "--max-len", "3"),
             ("reduce", _fx("na_square.pgd")),
             ("symmetrize", _fx("example1.pgd")))
    for argv in calls:
        code, out = run_cli(capsys, *argv, "-o", target)
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert (rec["command"], rec["verdict"]) == (argv[0], "input-error")


def test_cli_load_errors_name_the_subcommand(tmp_path, capsys):
    for argv in (("validate", "missing.pgd"),
                 ("embeddable", "missing.pgd"),
                 ("monoid", "missing.cat", "--mult", "a", "b")):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        rec = json.loads(out)
        assert (rec["command"], rec["verdict"]) == (argv[0], "input-error")


def test_cli_files_that_are_not_utf8_are_input_errors(tmp_path, capsys):
    bad_pgd = tmp_path / "bad.pgd"
    bad_pgd.write_bytes(b"\xff\xfe\x00pgd 1\n")
    bad_cat = tmp_path / "bad.cat"
    bad_cat.write_bytes(b"\xff\xfe\x00cat 1\n")
    out_path = tmp_path / "out.pgd"
    calls = [(cmd, str(bad_pgd)) for cmd in ("validate", "embeddable", "tau",
                                             "orthogonal", "degree", "pregroup")]
    calls += [("mountain", str(bad_pgd), "f", "g")]
    calls += [(cmd, str(bad_pgd), "-o", str(out_path))
              for cmd in ("reflect", "reduce", "symmetrize")]
    calls += [("monoid", str(bad_cat), "--mult", "()", "()")]
    for argv in calls:
        code, out = run_cli(capsys, *argv)
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert (rec["command"], rec["verdict"]) == (argv[0], "input-error")
    assert not out_path.exists()


def test_cli_orthogonal(capsys):
    code, out = run_cli(capsys, "orthogonal", _fx("na_square.pgd"),
                        "--max-gon", "3")
    assert code == 3
    rec = json.loads(out)
    edge_map = rec["witness"]["edge_map"]
    assert all(k == v for k, v in edge_map.items())

    code, out = run_cli(capsys, "orthogonal", _fx("a_square.pgd"),
                        "--max-gon", "3")
    assert code == 0


def test_cli_orthogonal_refuses_gon_bounds_outside_the_gluing_range(capsys):
    for bound in ("-1", "0", "2", str(pg.polygon.MAX_GLUED_N + 1)):
        code, out = run_cli(capsys, "orthogonal", _fx("na_square.pgd"),
                            "--max-gon", bound)
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert (rec["command"], rec["verdict"]) == ("orthogonal", "input-error")
        assert str(pg.polygon.MAX_GLUED_N) in rec["detail"]


def test_cli_degree(capsys):
    code, out = run_cli(capsys, "degree", _fx("na_square.pgd"))
    assert code == 0
    assert json.loads(out)["verdict"] == "3"


def test_cli_monoid(capsys):
    code, out = run_cli(capsys, "monoid", _fx("interval.cat"),
                        "--mult", "(f)", "(f^)")
    assert code == 0
    assert json.loads(out)["witness"] == "()"
    code, out = run_cli(capsys, "monoid", _fx("interval.cat"),
                        "--mult", "(f)", "(f)")
    assert json.loads(out)["witness"] == "(f,f)"


def test_cli_pregroup(capsys):
    code, out = run_cli(capsys, "pregroup", _fx("na_square.pgd"))
    assert code == 3
    rec = json.loads(out)
    assert rec["witness"] == ["dT'_13", "s3^", "dT_02^"]


def test_cli_deterministic_output(capsys):
    first = run_cli(capsys, "pairs", "4")
    second = run_cli(capsys, "pairs", "4")
    assert first == second
    a = run_cli(capsys, "embeddable", _fx("na_pentagon.pgd"), "--max-len", "4")
    b = run_cli(capsys, "embeddable", _fx("na_pentagon.pgd"), "--max-len", "4")
    assert a == b


# -- the shared parser and usage errors -----------------------------------------


def test_cli_import_does_not_build_the_parser():
    src = pathlib.Path(pg.__file__).resolve().parents[1]
    code = ("import pgroupoid.cli as cli\n"
            "print(cli.build_parser.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)},
                          check=True)
    assert done.stdout.strip() == "0"


def test_cli_shared_parser_leaks_nothing_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    na_path = str(tmp_path / "na.pgd")
    calls = [
        ("embeddable", _fx("na_pentagon.pgd"), "--max-len", "3"),
        ("embeddable", _fx("na_pentagon.pgd")),
        ("mountain", _fx("na_square.pgd"), "lT", "lT'", "--max-len", "3"),
        ("mountain", _fx("na_square.pgd"), "lT", "lT'"),
        ("na", "3", "0", "1", "--variant", "a", "-o", na_path),
        ("na", "3", "0", "1", "-o", na_path),
        ("pairs", "3"),
        ("orthogonal", _fx("na_square.pgd"), "--max-gon", "3"),
        ("orthogonal", _fx("a_square.pgd"), "--max-gon", "3"),
        ("embeddable", _fx("na_square.pgd"), "--max-len", "x"),
        ("monoid", _fx("interval.cat"), "--mult", "(f)", "(f^)"),
    ]
    forward = {argv: run_cli(capsys, *argv) for argv in calls}
    backward = {argv: run_cli(capsys, *argv) for argv in reversed(calls)}
    assert forward == backward
    bounds = [json.loads(forward[argv][1]).get("bound") for argv in calls[:4]]
    assert bounds == [3, 6, 3, 6]
    assert json.loads(forward[calls[5]][1])["detail"]["variant"] == "na"
    assert forward[calls[9]][0] == 2


def test_cli_usage_errors_are_input_errors(capsys):
    calls = (("embeddable",),
             ("na", "3", "0", "1"),
             ("frobnicate",),
             (),
             ("pairs", "three"),
             ("na", "3", "0", "1", "--variant", "b", "-o", "x.pgd"),
             ("monoid", _fx("interval.cat"), "--mult", "(f)"),
             ("embeddable", _fx("na_square.pgd"), "--no-such-option"))
    for argv in calls:
        code, out = run_cli(capsys, *argv)
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["verdict"] == "input-error"
        assert rec["command"] == (argv[0] if argv and argv[0] != "frobnicate" else None)
        assert rec["detail"]
    _, out = run_cli(capsys, "frobnicate")
    assert "invalid choice: 'frobnicate'" in json.loads(out)["detail"]


def test_cli_help_still_prints_and_exits_zero(capsys):
    for argv in (["-h"], ["na", "--help"]):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pgroupoid")


# A well-formed call of each subcommand: its required tokens, then optional
# ones.  Every integer is small, and no file is opened, because parsing
# fails first on each drawn variant.
_CALLS = (
    (["validate", "f.pgd"], []),
    (["embeddable", "f.pgd"], ["--max-len", "4"]),
    (["mountain", "f.pgd", "f", "g"], ["--max-len", "4"]),
    (["tau", "f.pgd"], []),
    (["reflect", "f.pgd", "-o", "out.pgd"], ["--max-len", "4"]),
    (["reduce", "f.pgd", "-o", "out.pgd"], []),
    (["symmetrize", "f.pgd", "-o", "out.pgd"], []),
    (["na", "3", "0", "1", "-o", "out.pgd"], ["--variant", "a"]),
    (["pairs", "4"], []),
    (["orthogonal", "f.pgd"], ["--max-gon", "4"]),
    (["degree", "f.pgd"], []),
    (["monoid", "c.cat", "--mult", "(f)", "(f)"], []),
    (["pregroup", "f.pgd"], []),
)
_COMMANDS = {required[0] for required, _ in _CALLS}
_letters = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)


@st.composite
def _malformed_argv(draw):
    kind = draw(st.sampled_from(("missing", "unknown-command", "non-int",
                                 "unknown-option")))
    if kind == "unknown-command":
        word = draw(_letters.filter(lambda w: w not in _COMMANDS))
        return [word] + draw(st.lists(_letters, max_size=3))
    if kind == "missing":
        required, optional = draw(st.sampled_from(_CALLS))
        return required[:draw(st.integers(1, len(required) - 1))] + optional
    if kind == "non-int":
        required, optional = draw(st.sampled_from(
            [call for call in _CALLS if any(t.isdigit() for t in call[0] + call[1])]))
        argv = required + optional
        slot = draw(st.sampled_from([i for i, t in enumerate(argv) if t.isdigit()]))
        return argv[:slot] + [draw(_letters)] + argv[slot + 1:]
    required, optional = draw(st.sampled_from(_CALLS))
    argv = required + optional
    at = draw(st.integers(1, len(argv)))
    return argv[:at] + ["--zz-" + draw(_letters)] + argv[at:]


@settings(max_examples=150, deadline=None)
@given(_malformed_argv())
def test_cli_malformed_argv_gives_one_input_error_line(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    lines = buf.getvalue().splitlines()
    assert code == 2
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["verdict"] == "input-error"
    assert rec["command"] == (argv[0] if argv[0] in _COMMANDS else None)


def test_cli_pairs_refuses_n_above_the_limit_before_enumerating(monkeypatch, capsys):
    def no_enumeration(n):
        raise AssertionError("enumerated triangulations")

    monkeypatch.setattr(pg.polygon, "enumerate_triangulations", no_enumeration)
    start = time.perf_counter()
    code, out = run_cli(capsys, "pairs", "10")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert (rec["command"], rec["verdict"]) == ("pairs", "input-error")
    assert str(pg.polygon.MAX_GLUED_N) in rec["detail"]


@pytest.mark.parametrize("n", ["1", str(pg.polygon.MAX_GLUED_N + 2)])
def test_cli_na_refuses_n_outside_the_limit_before_enumerating(
        monkeypatch, capsys, tmp_path, n):
    def no_enumeration(n):
        raise AssertionError("enumerated triangulations")

    monkeypatch.setattr(pg.polygon, "enumerate_triangulations", no_enumeration)
    out_path = tmp_path / "na.pgd"
    start = time.perf_counter()
    code, out = run_cli(capsys, "na", n, "0", "1", "-o", str(out_path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert (rec["command"], rec["verdict"]) == ("na", "input-error")
    assert str(pg.polygon.MAX_GLUED_N) in rec["detail"]
    assert not out_path.exists()


# -- malformed PGD and CAT text -------------------------------------------------

_CAT_FIXTURES = ("interval.cat", "z3.cat")
_FIXTURE_TEXT = {name: fixtures.fixture_text(name)
                 for name in MODEL_FIXTURES + _CAT_FIXTURES}
_TOKENS = sorted({tok for text in _FIXTURE_TEXT.values() for tok in text.split()}
                 | {"x", "-1", "0", "^", "(", ",", "#"})


@st.composite
def _malformed_text(draw):
    """A bundled fixture with a few lines or tokens dropped, inserted or replaced."""
    name = draw(st.sampled_from(sorted(_FIXTURE_TEXT)))
    lines = _FIXTURE_TEXT[name].splitlines()
    token = st.sampled_from(_TOKENS)
    for _ in range(draw(st.integers(1, 4))):
        action = draw(st.sampled_from(("drop line", "insert line", "replace line",
                                       "drop token", "insert token",
                                       "replace token")))
        if action == "insert line" or not lines:
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, " ".join(draw(st.lists(token, min_size=1, max_size=4))))
            continue
        at = draw(st.integers(0, len(lines) - 1))
        if action == "drop line":
            del lines[at]
        elif action == "replace line":
            lines[at] = " ".join(draw(st.lists(token, max_size=4)))
        else:
            toks = lines[at].split()
            if action == "insert token" or not toks:
                toks.insert(draw(st.integers(0, len(toks))), draw(token))
            else:
                k = draw(st.integers(0, len(toks) - 1))
                if action == "drop token":
                    del toks[k]
                else:
                    toks[k] = draw(token)
            lines[at] = " ".join(toks)
    return name, "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(_malformed_text(), st.data())
def test_cli_malformed_files_keep_the_output_contract(case, data):
    name, text = case
    names = st.sampled_from(text.split())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        out_path = os.path.join(tmp, "out.pgd")
        with open(path, "w") as fh:
            fh.write(text)
        if name.endswith(".cat"):
            strings = [f"({data.draw(names)})", f"({data.draw(names)})"]
            calls = [["monoid", path, "--mult", *strings]]
        else:
            calls = [["validate", path], ["embeddable", path, "--max-len", "4"],
                     ["tau", path], ["degree", path], ["pregroup", path],
                     ["orthogonal", path, "--max-gon", "4"],
                     ["reduce", path, "-o", out_path],
                     ["symmetrize", path, "-o", out_path],
                     ["reflect", path, "--max-len", "4", "-o", out_path],
                     ["mountain", path, data.draw(names), data.draw(names),
                      "--max-len", "4"]]
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3), argv
            assert err.getvalue() == ""
            if argv[0] == "tau" and code == 0:
                continue  # success prints the presentation as free text
            lines = out.getvalue().splitlines()
            assert len(lines) == 1, argv
            assert json.loads(lines[0])["command"] == argv[0]
