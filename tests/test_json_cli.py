import json
from fractions import Fraction as F

import pytest

from distset import RSet, cantor_set, complete_to_metric_space, build_bridge_graph
from distset.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def mid2_path(tmp_path):
    return write_json(
        tmp_path, "mid2.json", cantor_set([F(1, 3), F(1, 3)]).to_json_obj()
    )


class TestSetCommands:
    def test_check_middle_third_fails_with_witness(self, capsys, mid2_path):
        code, out, _ = run_cli(capsys, "set", "check", "--input", mid2_path)
        assert code == 1
        obj = json.loads(out)
        assert obj["verdict"] == "Failed"
        assert obj["witness"] == {"a": "1/3", "b": "2/9", "c": "1/9"}
        assert obj["lhs"] == "1/3" and obj["rhs"] == "2/3"

    def test_check_grid_passes(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "grid.json", RSet([0, 1, 2, 3]).to_json_obj()
        )
        code, out, _ = run_cli(capsys, "set", "check", "--input", path)
        assert code == 0
        assert json.loads(out)["verdict"] == "PassedExhaustive"

    def test_approx_scale_truncate_union(self, capsys, tmp_path):
        unit = write_json(tmp_path, "unit.json", RSet([(0, 1)]).to_json_obj())
        code, out, _ = run_cli(
            capsys, "set", "approx", "--input", unit, "--eps", "13/50",
            "--r", "1/4",
        )
        assert code == 0
        assert json.loads(out)["intervals"] == [
            ["0", "0"], ["1/4", "1/4"], ["1/2", "1/2"],
            ["3/4", "3/4"], ["1", "1"],
        ]
        contained = write_json(
            tmp_path, "b.json", RSet([F(1, 3)]).to_json_obj()
        )
        code, out, _ = run_cli(
            capsys, "set", "approx", "--input", unit, "--eps", "1/8",
            "--b", contained,
        )
        assert code == 0
        assert ["1/3", "1/3"] in json.loads(out)["intervals"]
        code, out, _ = run_cli(
            capsys, "set", "scale", "--input", unit, "--c", "1/2"
        )
        assert json.loads(out)["intervals"] == [["0", "1/2"]]
        pts = write_json(
            tmp_path, "pts.json", RSet([0, 1, 2, 3]).to_json_obj()
        )
        code, out, _ = run_cli(
            capsys, "set", "truncate", "--input", pts, "--c", "2"
        )
        assert json.loads(out)["intervals"] == [
            ["0", "0"], ["1", "1"], ["2", "2"],
        ]
        two = write_json(tmp_path, "two.json", RSet([0, 1]).to_json_obj())
        code, out, _ = run_cli(
            capsys, "set", "union", "--input", two, "--l", "3", "--copies", "2"
        )
        assert json.loads(out)["intervals"] == [
            ["0", "0"], ["1", "1"], ["3", "3"], ["4", "4"],
        ]


class TestCantorCommand:
    def test_gen_two_rounds(self, capsys):
        code, out, _ = run_cli(capsys, "cantor", "gen", "--weights", "2/5,1/2")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["intervals"]) == 4
        assert RSet.from_json_obj(obj) == cantor_set([F(2, 5), F(1, 2)])

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "cantor", "gen", "--weights", "2/5,1/2")
        _, out2, _ = run_cli(capsys, "cantor", "gen", "--weights", "2/5,1/2")
        assert out1 == out2


class TestGraphCommands:
    def test_complete_desk(self, capsys, tmp_path, desk_bridge):
        graph = build_bridge_graph(desk_bridge)
        gpath = write_json(tmp_path, "g.json", graph.to_json_obj())
        code, out, _ = run_cli(capsys, "graph", "complete", "--graph", gpath)
        assert code == 0
        obj = json.loads(out)
        expected = complete_to_metric_space(graph).to_json_obj()
        assert obj == json.loads(json.dumps(expected))

    def test_check_failure_exit_code(self, capsys, tmp_path):
        bad = {
            "set": RSet([0, 1, 2, 3]).to_json_obj(),
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b", "1"], ["b", "c", "1"], ["a", "c", "3"]],
        }
        gpath = write_json(tmp_path, "bad.json", bad)
        code, out, _ = run_cli(capsys, "graph", "check", "--graph", gpath)
        assert code == 1
        assert json.loads(out)["verdict"] == "Failed"

    def test_shortcut_and_connect(self, capsys, tmp_path):
        g = {
            "set": RSet([0, 1, 2, 3]).to_json_obj(),
            "vertices": ["a", "c", "b"],
            "edges": [["a", "c", "1"], ["c", "b", "1"]],
        }
        gpath = write_json(tmp_path, "p.json", g)
        code, out, _ = run_cli(
            capsys, "graph", "shortcut", "--graph", gpath, "--a", "a",
            "--b", "b",
        )
        assert code == 0
        assert ["a", "b", "2"] in json.loads(out)["edges"]
        g2 = {
            "set": RSet([0, 1]).to_json_obj(),
            "vertices": ["a", "b"],
            "edges": [],
        }
        gpath2 = write_json(tmp_path, "iso.json", g2)
        code, out, _ = run_cli(
            capsys, "graph", "connect", "--graph", gpath2, "--r", "1"
        )
        assert code == 0
        assert json.loads(out)["edges"] == [["a", "b", "1"]]


class TestConstructCommands:
    def test_full_pipeline_and_copy(self, capsys, tmp_path, desk_bridge):
        bpath = write_json(tmp_path, "bridge.json", desk_bridge.to_json_obj())
        code, out, _ = run_cli(
            capsys, "construct", "bridge", "--input", bpath
        )
        assert code == 0 and len(json.loads(out)["edges"]) == 6
        code, out, _ = run_cli(
            capsys, "construct", "companion", "--input", bpath
        )
        assert code == 0
        assert json.loads(out)["dist"][0][1] == "2"
        code, out, _ = run_cli(
            capsys, "construct", "tree", "--input", bpath, "--depth", "3"
        )
        assert code == 0
        tree = json.loads(out)
        assert tree["branch_lengths"] == [1, 1, 3]
        code, out, _ = run_cli(
            capsys, "construct", "full", "--input", bpath, "--depth", "3"
        )
        assert code == 0
        full = json.loads(out)
        assert set(full) == {"H", "L", "depth"}
        code, out, _ = run_cli(
            capsys, "construct", "copy", "--input", bpath, "--depth", "3",
            "--embedding", "0,1,2",
        )
        assert code == 0
        copy = json.loads(out)
        assert copy["points"] == {"0": "t0", "1": "t0.1"}
        assert copy["r"] == "1"


class TestDepthFromJson:
    def test_construct_reads_depth_key(self, capsys, tmp_path, desk_bridge):
        obj = desk_bridge.to_json_obj()
        obj["depth"] = 3
        bpath = write_json(tmp_path, "bridge_depth.json", obj)
        code, out, _ = run_cli(capsys, "construct", "tree", "--input", bpath)
        assert code == 0
        assert json.loads(out)["depth"] == 3

    def test_missing_depth_is_an_input_error(self, capsys, tmp_path, desk_bridge):
        bpath = write_json(
            tmp_path, "bridge_plain.json", desk_bridge.to_json_obj()
        )
        code, _, err = run_cli(capsys, "construct", "tree", "--input", bpath)
        assert code == 2 and "depth" in err


class TestSpaceCommands:
    def test_build_notes_the_point_cap(self, capsys, tmp_path):
        # the cap stops {0, 1, 2, 3} at 3 points with the type {p0: 1}
        # unrealized: stdout and exit code as before, one note on stderr
        spath = write_json(tmp_path, "s.json", RSet([0, 1, 2, 3]).to_json_obj())
        code, out, err = run_cli(
            capsys, "space", "build", "--input", spath, "--max-points", "3"
        )
        assert code == 0 and len(json.loads(out)["points"]) == 3
        assert err.startswith("note: the point cap of 3 stopped the build")
        assert err.count("\n") == 1
        code, out, err = run_cli(
            capsys, "space", "build", "--input", spath, "--max-points", "60"
        )
        assert code == 0 and len(json.loads(out)["points"]) == 8
        assert err == ""

    def test_build_universal_extension(self, capsys, tmp_path):
        spath = write_json(tmp_path, "s.json", RSet([0, 1, 2]).to_json_obj())
        code, out, _ = run_cli(
            capsys, "space", "build", "--input", spath, "--max-points", "30",
            "--arity", "2", "--seed", "0",
        )
        assert code == 0
        space_obj = json.loads(out)
        _, again, _ = run_cli(
            capsys, "space", "build", "--input", spath, "--max-points", "30",
            "--arity", "2", "--seed", "0",
        )
        assert json.loads(again) == space_obj  # seeded build is reproducible
        mpath = write_json(tmp_path, "m.json", space_obj)
        code, out, _ = run_cli(
            capsys, "space", "universal", "--space", mpath, "--input", spath,
            "--n", "3",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "PassedExhaustive"
        code, out, _ = run_cli(
            capsys, "space", "extension", "--space", mpath, "--k", "1",
        )
        assert (code, json.loads(out)["verdict"]) == (0, "PassedExhaustive")

    def test_extension_failure_exits_1(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json", {
            "set": RSet([0, 1, 2]).to_json_obj(),
            "points": ["a", "m", "b"],
            "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
        })
        code, out, _ = run_cli(
            capsys, "space", "extension", "--space", path, "--k", "1",
        )
        assert code == 1
        assert json.loads(out) == {
            "check": "extension",
            "verdict": "Failed",
            "witness": {"domain": ["a"], "image": ["m"], "x": "b"},
            "lhs": None,
            "rhs": None,
            "note": "no point extends this partial isometry over x",
        }

    def test_color_and_oscillate_and_embed(self, capsys, tmp_path):
        space_obj = {
            "set": RSet([0, 1, 2]).to_json_obj(),
            "points": ["a", "m", "b"],
            "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
        }
        mpath = write_json(tmp_path, "m.json", space_obj)
        cpath = write_json(
            tmp_path, "c.json", {"parts": {"a": 0, "m": 0, "b": 0}}
        )
        tpath = write_json(
            tmp_path,
            "t.json",
            {
                "set": RSet([0, 1, 2]).to_json_obj(),
                "points": ["x", "y"],
                "dist": [["0", "1"], ["1", "0"]],
            },
        )
        code, out, _ = run_cli(
            capsys, "space", "color", "--space", mpath, "--coloring", cpath,
            "--target", tpath, "--eps", "0",
        )
        assert code == 0
        hit = json.loads(out)
        assert hit["found"] is True and hit["color"] == 0
        fpath = write_json(
            tmp_path, "f.json",
            {"values": {"a": "0", "m": "0", "b": "1"}},
        )
        code, out, _ = run_cli(
            capsys, "space", "oscillate", "--space", mpath, "--f", fpath,
            "--eps", "1/2", "--target", tpath,
        )
        assert code == 0
        assert json.loads(out)["found"] is True
        code, out, _ = run_cli(
            capsys, "space", "embed", "--space", mpath, "--points", "a,m,b",
        )
        assert code == 0
        assert json.loads(out)["map"] == ["a", "m", "b"]


class TestCliContract:
    def test_input_error_exit_2(self, capsys, tmp_path, desk_bridge):
        missing = str(tmp_path / "nope.json")
        code, _, err = run_cli(capsys, "set", "check", "--input", missing)
        assert code == 2
        assert "error:" in err
        grid = RSet([0, 1, 2, 3]).to_json_obj()
        graph = write_json(
            tmp_path, "g.json",
            {"set": grid, "vertices": ["a", "b"], "edges": [["a", "b", "1"]]},
        )
        space_obj = {
            "set": grid, "points": ["p", "q"], "dist": [["0", "1"], ["1", "0"]]
        }
        space = write_json(tmp_path, "m.json", space_obj)
        malformed = [
            ("graph", "shortcut", "--graph", graph, "--a", "zz", "--b", "a"),
            ("set", "check", "--input",
             write_json(tmp_path, "s.json", {"intervals": [1, 2]})),
            ("set", "check", "--input", write_json(
                tmp_path, "bool.json", {"intervals": [[False, True]]}
            )),
            ("graph", "check", "--graph", write_json(
                tmp_path, "e.json",
                {"set": grid, "vertices": ["a", "b"], "edges": [["a", "b"]]},
            )),
            ("space", "extension", "--k", "1", "--space", write_json(
                tmp_path, "d.json", {"set": grid, "points": ["p"], "dist": 5}
            )),
            ("space", "color", "--space", space, "--target", space,
             "--coloring",
             write_json(tmp_path, "c.json", {"parts": {"p": "red", "q": 0}})),
            ("space", "color", "--space", space, "--target", space,
             "--coloring", write_json(tmp_path, "cl.json", [["p", 0]])),
            ("space", "oscillate", "--space", space, "--target", space,
             "--eps", "1", "--f", write_json(tmp_path, "f.json", {"values": 5})),
            ("construct", "companion", "--input", write_json(
                tmp_path, "b.json",
                {"set": grid, "U": space_obj, "I": [0], "r": "1"},
            )),
            ("construct", "companion", "--input", write_json(
                tmp_path, "br.json",
                {"set": grid, "U": space_obj, "V": space_obj, "I": [0]},
            )),
            ("graph", "check", "--graph", write_json(
                tmp_path, "e5.json",
                {"set": grid, "vertices": ["a", "b"], "edges": 5},
            )),
            ("graph", "check", "--graph", write_json(
                tmp_path, "v5.json", {"set": grid, "vertices": 5, "edges": []}
            )),
            ("space", "extension", "--k", "1", "--space", write_json(
                tmp_path, "p5.json", {"set": grid, "points": 5, "dist": []}
            )),
            # a string or an object is never a list, and a colour is an
            # int, not a bool
            ("set", "check", "--input", write_json(
                tmp_path, "s02.json", {"intervals": ["02", [3, 3]]}
            )),
            ("set", "check", "--input", write_json(
                tmp_path, "s02d.json", {"intervals": [{"0": 1, "2": 5}, [3, 3]]}
            )),
            ("graph", "complete", "--graph", write_json(
                tmp_path, "vab.json",
                {"set": grid, "vertices": "ab", "edges": [["a", "b", "1"]]},
            )),
            ("graph", "complete", "--graph", write_json(
                tmp_path, "vabd.json", {
                    "set": grid, "vertices": {"a": 0, "b": 1},
                    "edges": [["a", "b", "1"]],
                },
            )),
            ("graph", "complete", "--graph", write_json(
                tmp_path, "eab.json",
                {"set": grid, "vertices": ["a", "b"], "edges": ["ab1"]},
            )),
            ("graph", "complete", "--graph", write_json(
                tmp_path, "eabd.json", {
                    "set": grid, "vertices": ["a", "b"],
                    "edges": [{"a": 0, "b": 0, "1": 0}],
                },
            )),
            ("space", "extension", "--k", "1", "--space", write_json(
                tmp_path, "pab.json", {**space_obj, "points": "pq"}
            )),
            ("space", "extension", "--k", "1", "--space", write_json(
                tmp_path, "d01.json", {**space_obj, "dist": ["01", "10"]}
            )),
            *[
                ("space", "color", "--space", space, "--target", space,
                 "--coloring", write_json(
                     tmp_path, f"c{n}.json", {"parts": {"p": colour, "q": 1}}
                 ))
                for n, colour in enumerate([1.5, True, "2"])
            ],
        ]
        bridge = desk_bridge.to_json_obj()
        for n, (key, value) in enumerate([
            ("depth", "x"), ("depth", 1.5), ("depth", True),
            ("I", 5), ("I", [0, "x"]), ("I", [0, True]),
        ]):
            path = write_json(tmp_path, f"bad{n}.json", {
                "depth": 2, **bridge, key: value,
            })
            for command in ("tree", "full", "copy"):
                extra = ("--embedding", "0,1") if command == "copy" else ()
                malformed.append(("construct", command, "--input", path, *extra))
        good = write_json(tmp_path, "good.json", {**bridge, "depth": 2})
        malformed.append(
            ("construct", "copy", "--input", good, "--embedding", "a,b")
        )
        latin1 = tmp_path / "latin1.json"  # not UTF-8
        latin1.write_bytes('{"intervals": [[0, 1]], "x": "\xe9"}'.encode("latin-1"))
        malformed.append(("set", "check", "--input", str(latin1)))
        for target in (tmp_path / "no" / "dir" / "x.json", tmp_path):
            malformed.append(
                ("cantor", "gen", "--weights", "1/2", "--output", str(target))
            )
        for argv in malformed:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: "), argv

    def test_bridge_input_rejections(self, capsys, tmp_path, desk_bridge):
        # U = u0, u1, u2 and V = v0, v1 over {0, 1, 2, 3}, I = [0, 1]
        bridge = desk_bridge.to_json_obj()
        wide = RSet([0, 1, 2, 3, 5]).to_json_obj()
        rows = [
            ({"I": [0]}, "index map must enumerate all points of V"),
            ({"I": [1, 1]}, "index map must be injective"),
            ({"I": [0, 3]}, "index map entries must be indices into U"),
            ({"V": {**bridge["V"], "points": ["u0", "v1"]}},
             "U and V must use disjoint point ids"),
            ({"r": "0"}, "r = 0 must be a positive member of the ground set"),
            ({"r": "5/2"},
             "r = 5/2 must be a positive member of the ground set"),
            ({"V": {"set": wide, "points": ["v0", "v1"],
                    "dist": [["0", "5"], ["5", "0"]]}},
             "distance 5 lies outside the ground set"),
        ]
        for n, (change, message) in enumerate(rows):
            path = write_json(tmp_path, f"bridge{n}.json", {**bridge, **change})
            code, out, err = run_cli(capsys, "construct", "bridge", "--input", path)
            assert (code, out, err) == (2, "", f"error: {message}\n"), change

    def test_output_file_and_pretty(self, capsys, tmp_path):
        out_path = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "cantor", "gen", "--weights", "1/2",
            "--output", str(out_path),
        )
        assert code == 0 and out == ""
        obj = json.loads(out_path.read_text())
        assert RSet.from_json_obj(obj) == cantor_set([F(1, 2)])
        code, pretty, _ = run_cli(
            capsys, "cantor", "gen", "--weights", "1/2", "--pretty"
        )
        assert "\n  " in pretty
        assert json.loads(pretty) == obj

    def test_round_trip_property(self, capsys, mid2_path):
        _, out, _ = run_cli(capsys, "set", "check", "--input", mid2_path)
        obj = json.loads(out)
        assert json.loads(json.dumps(obj)) == obj
