from __future__ import annotations

import collections
import hashlib
import json
import random
from operator import sub

import click
import pytest
from click.testing import CliRunner

from kostka import cli, config, kgr, lr, ryser
from kostka.cli import main
from kostka.errors import KostkaError, WidthCapExceeded
from kostka.kgr import SubtreeWitness, Vertex
from kostka.partitions import KostkaPair, dominates

WORKED = ["8,7,7,7,3,2", "7,7,4,4,4,4,4"]
CATALAN_16 = "3,2,1,-2,1,-2,-1,-1,2,-1,2,1,-2,-1,-1,-1"
CATALAN_IRREDUCIBLE = "2,3,-4,-1"
CATALAN_14 = "2,1,5,-1,-1,-4,1,1,1,-1,-1,-1,-1,-1"  # a c09 walk with a witness
CHECK_40 = ["8,7,6,5,4,4,3,2,1", ",".join(["2"] * 20)]  # 40 boxes, counted at the default cap
CATALAN_24 = "3,-1,1,1,-1,-1,-1,1,1,-2,-1,2,1,-1,-1,-1,1,2,-1,-1,1,1,-1,-2"


@pytest.fixture()
def runner() -> CliRunner:
    return CliRunner()


def run(runner: CliRunner, *args: str, env: dict | None = None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


class TestCheck:
    def test_positive_pair_json(self, runner):
        result = run(runner, "check", "4,2,1", "3,2,1,1", "-r", "4", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["in_cone"] is True
        assert payload["kostka_positive"] is True
        assert payload["kostka_count"] == 4

    def test_negative_pair(self, runner):
        result = run(runner, "check", "2,2", "3,1")
        assert result.exit_code == 1

    def test_rank_too_small(self, runner):
        result = run(runner, "check", "2,1", "1,1,1", "-r", "2")
        assert result.exit_code == 1

    def test_count_skipped_beyond_cap(self, runner, monkeypatch):
        monkeypatch.setattr(config, "BOX_CAP", 5)
        result = run(runner, "check", "4,2,1", "3,2,1,1", "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.output)["kostka_count"] is None

    def test_cap_boxes_reaches_the_count(self, runner, monkeypatch):
        # above the default counting cap of 40 boxes
        monkeypatch.setattr(config, "BOX_CAP", 45)
        result = run(runner, "check", "42", "42", "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.output)["kostka_count"] == 1

    def test_cap_environment_is_ignored(self, runner):
        result = run(
            runner,
            "check",
            "4,2,1",
            "3,2,1,1",
            "--format",
            "json",
            env={"KOSTKA_CAP_BOXES": "5"},
        )
        assert json.loads(result.output)["kostka_count"] == 4

    def test_malformed_partition_is_a_usage_error(self, runner):
        result = run(runner, "check", "1,2", "3")
        assert result.exit_code == 2

    def test_format_from_environment(self, runner):
        result = run(
            runner, "check", "1", "1", env={"KOSTKA_FORMAT": "json"}
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["in_cone"] is True

    def test_count_that_contradicts_dominance_exits_three(self, runner, monkeypatch):
        # (2,1) dominates (1,1,1), so a count of 0 is an internal fault
        monkeypatch.setattr(cli, "kostka_count", lambda lam, mu: 0)
        result = run(runner, "check", "2,1", "1,1,1")
        assert result.exit_code == 3
        assert "internal check failed" in result.output


class TestRyser:
    def test_json_payload(self, runner):
        result = run(runner, "ryser", *WORKED, "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert len(payload["chain"]) == 9
        assert payload["mu_star"] == [0, 3, 0, 0, 0, 0, 4]
        assert payload["shapes"][0] == [7, 7, 4, 4, 4, 4, 4]
        assert payload["shapes"][-1] == []
        assert payload["steps"][0] == {
            "kind": "shorten-rightmost",
            "length": 2,
            "new_length": 1,
        }
        assert payload["steps"][-1] == {"kind": "delete-column", "length": 6}

    def test_output_is_deterministic(self, runner):
        first = run(runner, "ryser", *WORKED, "--format", "json")
        second = run(runner, "ryser", *WORKED, "--format", "json")
        assert first.output == second.output

    def test_json_renders_no_text(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "render_matrix", lambda entries: pytest.fail("rendered"))
        assert run(runner, "ryser", *WORKED, "--format", "json").exit_code == 0

    def test_text_output_shows_chain(self, runner):
        result = run(runner, "ryser", "2", "1,1")
        assert "A^(0):" in result.output
        assert "A*:" in result.output

    def test_oversized_chain_is_a_usage_error(self, runner):
        # (100+1) * 100 rows * 100 columns = 1,010,000 cells > CELL_CAP
        result = run(runner, "ryser", "100", ",".join(["1"] * 100))
        assert result.exit_code == 2

    def test_star_matrix_is_built_once(self, runner, monkeypatch):
        calls = []
        real = ryser.star_matrix

        def spy(canonical):
            calls.append(canonical)
            return real(canonical)

        monkeypatch.setattr(ryser, "star_matrix", spy)
        result = run(runner, "ryser", *WORKED, "--format", "json")
        assert result.exit_code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("args", [WORKED, ["2", "1,1"], ["6,6,6", "6,6,6"]])
    def test_fixing_procedure_runs_once(self, runner, monkeypatch, args):
        # the chain is replayed from the canonical matrix, not recomputed
        calls = []
        real = ryser._fixing_stages

        def spy(pair):
            calls.append(pair)
            return real(pair)

        monkeypatch.setattr(ryser, "_fixing_stages", spy)
        for fmt in ("json", "text"):
            calls.clear()
            # a remembered matrix would skip the procedure altogether
            ryser._canonical.cache_clear()
            result = run(runner, "ryser", *args, "--format", fmt)
            assert result.exit_code == 0
            assert len(calls) == 1


class TestKgr:
    def test_json_graph(self, runner):
        result = run(runner, "kgr", *WORKED, "--format", "json")
        payload = json.loads(result.output)
        assert len(payload["arcs"]) == 20
        assert payload["connected"] is True
        assert payload["witness"]["columns"] == [2, 3, 4, 8]

    def test_dot_highlights_witness(self, runner):
        result = run(runner, "kgr", *WORKED, "--format", "dot")
        assert result.output.startswith("digraph")
        assert '"red"' in result.output

    def test_oversized_matrix_is_a_usage_error(self, runner, fixing_forbidden):
        # 1 row * 1,000,001 columns > CELL_CAP, refused before the fixing procedure
        result = run(runner, "kgr", "1000001", "1000001")
        assert result.exit_code == 2

    def test_text_lists_arcs(self, runner):
        result = run(runner, "kgr", "2,2", "2,1,1")
        assert "vertices:" in result.output


class TestReduce:
    def test_decomposable_but_not_fast(self, runner):
        result = run(runner, "reduce", "3,2,1", "2,2,1,1", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["fast"] is None
        assert payload["decomposition"]["small"]["lambda"] == [1, 1]
        assert payload["irreducible"] is False

    def test_fast_path_on_the_worked_pair(self, runner):
        result = run(runner, "reduce", *WORKED, "--format", "json")
        payload = json.loads(result.output)
        assert payload["fast"]["columns"] == [2, 3, 4, 8]
        assert payload["fast"]["kind"] == "sink-source"
        assert result.exit_code == 0

    def test_irreducible_pair_exits_one(self, runner):
        result = run(runner, "reduce", "2,2", "2,1,1", "--format", "json")
        assert result.exit_code == 1
        assert json.loads(result.output)["irreducible"] is True

    @pytest.mark.parametrize(
        "args, swept",
        [(WORKED, None), (["2,2", "2,1,1"], (1,))],
        ids=["fast-only", "sweep-only"],
    )
    def test_disagreeing_sweep_exits_three(self, runner, monkeypatch, args, swept):
        monkeypatch.setattr(cli, "matrix_reducible", lambda canonical: swept)
        result = run(runner, "reduce", *args)
        assert result.exit_code == 3
        assert "graph detection and the column sweep disagree" in result.output

    def test_sweep_past_its_cap_is_skipped(self, runner):
        # width 25 at rank 2: the sweep refuses before sweeping
        with pytest.raises(WidthCapExceeded):
            ryser.matrix_reducible(ryser.ryser_canonical(KostkaPair((25, 15), (20, 20))))
        result = run(runner, "reduce", "25,15", "20,20")
        assert result.exit_code == 0
        assert "internal" not in result.output

    def test_subtree_that_does_not_split_exits_three(self, runner, monkeypatch):
        # column 1 alone does not split the worked pair
        bad = SubtreeWitness(kind="component", vertices=(Vertex(7, 1, 1),), columns=(1,))
        monkeypatch.setattr(kgr, "find_conservative_subtree", lambda graph: bad)
        result = run(runner, "reduce", *WORKED)
        assert result.exit_code == 3
        assert "internal check failed" in result.output

    def test_cap_is_a_usage_error(self, runner, monkeypatch):
        monkeypatch.setattr(config, "SPLIT_CAP", 10)
        result = run(runner, "reduce", *WORKED)
        assert result.exit_code == 2

    def test_box_cap_is_checked_before_the_detector(self, runner, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "fast_reducibility", lambda pair: calls.append(pair))
        result = run(runner, "reduce", "41", "41")
        assert result.exit_code == 2
        assert calls == []

    def test_box_cap_ignores_the_check_environment(self, runner):
        result = run(runner, "reduce", *WORKED, env={"KOSTKA_CAP_BOXES": "5"})
        assert result.exit_code == 0
        result = run(runner, "reduce", "41", "41", env={"KOSTKA_CAP_BOXES": "1000"})
        assert result.exit_code == 2
        assert "exceeds cap 40" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["check", "32", "32", "--cap-boxes", "35"],
        ["reduce", "41", "41", "--cap-boxes", "50"],
        ["audit", "-r", "2", "--cap-boxes", "6"],
        ["catalan", CATALAN_16, "--cap-width", "40"],
    ],
    ids=["check", "reduce", "audit", "catalan"],
)
def test_cap_flags_are_usage_errors(runner, args):
    result = run(runner, *args)
    assert result.exit_code == 2
    assert "No such option" in result.output


@pytest.mark.parametrize("rank", ["-1", "-2"])
@pytest.mark.parametrize("command", ["check", "ryser", "kgr", "reduce"])
def test_negative_rank_is_a_usage_error(runner, command, rank):
    # an explicit rank is never read as the minimal one
    result = run(runner, command, "1", "1", "-r", rank)
    assert result.exit_code == 2
    assert f"{rank} is not in the range x>=0" in result.output


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# the exit code of each error class raised inside a command: 2 for an
# input refused up front, 3 for a failed internal check
EXIT_FAMILIES = {
    "RefusedInput": 2,
    "InvalidPartition": 2,
    "InvalidPair": 2,
    "InvalidSequence": 2,
    "InvalidInstance": 2,
    "InvalidTriple": 2,
    "ShapeError": 2,
    "SizeCapExceeded": 2,
    "WidthCapExceeded": 2,
    "RankCapExceeded": 2,
    "LengthCapExceeded": 2,
    "NotAWitness": 2,
    "AssertionFailure": 3,
    "InconsistentExtremalityTests": 3,
    "MalformedStarMatrix": 3,
    "AssertionError": 3,
}


@pytest.mark.parametrize(
    "error",
    [*_subclasses(KostkaError), AssertionError],
    ids=lambda error: error.__name__,
)
def test_each_error_class_has_an_exit_code(runner, error):
    # a new error class fails here until it is given a family
    @click.command()
    @cli._guarded
    def raising():
        raise error("raised")

    result = runner.invoke(raising, [], catch_exceptions=False)
    assert result.exit_code == EXIT_FAMILIES[error.__name__]
    assert "raised" in result.output


def test_width_cap_ignores_the_environment(runner):
    high = ",".join(["1000000"] * 12 + ["-1000000"] * 12)
    result = run(runner, "catalan", high, env={"KOSTKA_CAP_WIDTH": "10000000000"})
    assert result.exit_code == 2
    assert f"state bound 14388610 exceeds cap {config.STATE_CAP}" in result.output


# sha256 of stdout, pinned so that a reordered vertex, arc or matrix
# entry, or any other change to a command's printed answer, shows up as a
# changed digest
GOLDEN_BYTES = [
    ("kgr", WORKED, "text", 0, "a515b335db32f9b8d32378a7620404c30757896fd1f3a8b9e09c48089e5f3b1c"),
    ("kgr", WORKED, "json", 0, "78e631d0a9a25a13ebf9cb010fbc5f4d2eb2854650daebb66b5d60aae7a4e3eb"),
    ("kgr", WORKED, "dot", 0, "e75d5e8336d218fb95237bb0ca905bb2045fa839614b7b46ca73414f24c30432"),
    ("reduce", WORKED, "json", 0, "80d8ae24434801e6ee8ef3311b9a970a34a659f68e5157541ecedd6247f1a322"),
    ("ryser", WORKED, "json", 0, "84957bd8ebfd74fc42d3d5c2158e7a6d236de9dc77755af0a5dee118f452397e"),
    ("kgr", ["2", "1,1"], "text", 0, "c74ce7d5d4023191691535cd9a83847c49f0e250ab652baa914661e2bd97e990"),
    ("kgr", ["2", "1,1"], "json", 0, "ce3f6011b6b6d7d8d300c61c4e6250daf638ef693daa4c08afe0c4d82525ba2b"),
    ("kgr", ["2", "1,1"], "dot", 0, "52db8f219ce034b55683c2654eb39d25471aa669890f4cc0cddf81d7a4a6542f"),
    ("reduce", ["2", "1,1"], "json", 1, "95ae071882777b5c211133637dcbbf3059adfea03228cb2311ea76d86ac15d63"),
    ("ryser", ["2", "1,1"], "json", 0, "2e0fffbec28da7f43a9af0b6b5669d989f2f149a5a6516c5f0da3a54fae495fe"),
    ("check", ["4,2,1", "3,2,1,1"], "json", 0, "596a7d4639322ee0f32eac7f8529ab51f9a328fd68a7efb34065c9c1564c82d6"),
    ("check", ["41", "41"], "text", 0, "70a4289c98d9238102a391138c18ab98fff664160b078e480cc9d56f3fa7dcad"),
    ("check", CHECK_40, "text", 0, "640d064f58ab7e1a1b8cf9ead806eb8d09ed13b02e4d5753878a836acdf4677d"),
    ("reduce", WORKED, "text", 0, "6f4b7a7c8124accd5ec418827f079805cd0fd73e20b7d9a3e291c840fe6de5a0"),
    ("catalan", [CATALAN_16], "json", 0, "6a7286102eb747d29d8a275bde55adec46f6a1520484eb70a53fbf3746c80281"),
    ("catalan", [CATALAN_IRREDUCIBLE], "text", 1, "74bf65821061f67bf0541667212da663e897ee4b9a90fe421997de68412319ca"),
    ("catalan", [CATALAN_IRREDUCIBLE], "json", 1, "11afb787540be83e78b635769b84c0fd7d85c6f2af2d807af1d9598ef29d2ebc"),
    ("catalan", [CATALAN_14], "text", 0, "a2de6fe0cd1501c4945b17e35462965e528d76efa327f66403c67a4d10c60888"),
    ("catalan", [CATALAN_14], "json", 0, "44bd363580f4f949b8629cbdf96a2838b3c5bfb2e03b212c6bea43161c36c4c8"),
    ("catalan", [CATALAN_24], "json", 0, "c46ed0c7a9241b6cd260c0ec4dbe7be6c448989759648234b7d25875cc70fb1a"),
    ("audit", ["-r", "3"], "json", 0, "7e84fcd7ebd93c514a3a9a994bde2fd85a5a0a5732a27dde5e505169863317b5"),
    ("subsetsum", ["3,2,1 : 4"], "json", 0, "b97aa50896ceb29b777816dd90dd191a4ecee18f34542e89a8e92b42b5257a38"),
    ("subsetsum", ["3,2,1 : 4"], "text", 0, "44110180811558e7d33b86bb60068a46f9526bb332d4b94dab5ff70a64f5f32a"),
    ("subsetsum", ["2,2 : 3"], "text", 1, "4a8ce6e560f276bda3a289c97518470c34a7b7b330b0caad39d4096a015c4b41"),
    ("subsetsum", ["2,2 : 3"], "json", 1, "7f6c6294ccaa59731bb8a081418e2eb245d5a421b5475083c3fdbe4369e5c1e0"),
    ("subsetsum", ["4,3,3,1,1 : 6"], "json", 0, "9b55bf7636776aeecf80474014c9f4726196c24047aa4c1374c976542ca50399"),
    ("rays", ["-r", "30"], "text", 0, "8b6db832f2a3002eb48203b7bcaef5b349f37f173fa124e20afb595aef7f61e2"),
    ("rays", ["-r", "30"], "json", 0, "98f9f3a492cfd6341fd41bd22f3284ff0db813eec4850e76c1b73085c2a8b3f8"),
    ("lr-family", ["--k", "2"], "json", 0, "ff3e43f470f0aaab3f9d0e16f1f3f3005eefe849c1e1e167a27c98a1b456b173"),
    ("lr-family", ["--k", "3", "--growth-to", "8"], "text", 0, "ce556a5d8b1fca0b1aec75ba930705e453b92ddbb4611fc03fc00ab92267841d"),
    ("lr-family", ["--k", "5"], "json", 0, "62604a79ecb92e639d286079ce98a15ab61eeb04c0b6f3ea8ef7b4fb33ee0991"),
]


def _golden_id(command, args, fmt):
    if args is WORKED:
        name = "worked"
    elif args == ["2", "1,1"]:
        name = "2_11"
    elif args == [CATALAN_16]:
        name = "len16"
    elif args == [CATALAN_IRREDUCIBLE]:
        name = "irreducible"
    elif args == [CATALAN_14]:
        name = "len14"
    elif args == [CATALAN_24]:
        name = "len24"
    elif args is CHECK_40:
        name = "40boxes"
    else:
        name = "_".join(a.replace(",", "").replace(" ", "").lstrip("-") for a in args)
    return f"{command}-{name}-{fmt}"


@pytest.mark.parametrize(
    "command, pair, fmt, code, digest",
    GOLDEN_BYTES,
    ids=[_golden_id(c, p, f) for c, p, f, _, _ in GOLDEN_BYTES],
)
def test_golden_bytes(runner, command, pair, fmt, code, digest):
    result = run(runner, command, *pair, "--format", fmt)
    assert result.exit_code == code
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


class TestBasis:
    def test_rank_three_elements(self, runner):
        result = run(runner, "basis", "-r", "3", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["count"] == 8
        assert [[2, 1], [1, 1, 1]] in payload["elements"]
        assert payload["fixture"]["match"] is True

    def test_deterministic_output(self, runner):
        first = run(runner, "basis", "-r", "4", "--format", "json")
        second = run(runner, "basis", "-r", "4", "--format", "json")
        assert first.output == second.output

    def test_mismatched_fixture_exits_three(self, runner, tmp_path):
        from kostka.cone import hilbert_basis

        catalog = hilbert_basis(2)
        path = tmp_path / "basis_r2.json"
        catalog.save(path)
        data = json.loads(path.read_text())
        data["elements"] = data["elements"][:-1]
        data["count"] = 2
        import hashlib

        compact = json.dumps(data["elements"], separators=(",", ":"))
        data["sha256"] = hashlib.sha256(compact.encode()).hexdigest()
        path.write_text(json.dumps(data))

        result = runner.invoke(
            main, ["basis", "-r", "2", "--fixtures", str(tmp_path)]
        )
        assert result.exit_code == 3
        assert "mismatch" in result.output or "mismatch" in (result.stderr or "")

    @pytest.mark.parametrize(
        "form",
        [
            "not-json",
            "json-list",
            "no-sha256",
            "rank-text",
            "rank-null",
            "rank-float",
            "other-rank",
            "element-short",
            "element-int",
            "element-off-cone",
            "element-not-partition",
        ],
    )
    def test_malformed_fixture_exits_three(self, runner, tmp_path, form):
        from kostka.cone import hilbert_basis

        path = tmp_path / "basis_r2.json"
        hilbert_basis(2).save(path)
        catalog = json.loads(path.read_text())
        rest = catalog["elements"][1:]
        # each edit comes with a recomputed hash, so only the edited
        # field is wrong
        edits = {
            "rank-text": {"rank": "x"},
            "rank-null": {"rank": None},
            "rank-float": {"rank": 2.7},
            "other-rank": {"rank": 5},
            "element-short": {"elements": [[1], *rest]},
            "element-int": {"elements": [1, *rest]},
            "element-off-cone": {"elements": [[[1], [2]], *rest]},
            "element-not-partition": {"elements": [[[1, 2], [3]], *rest]},
        }
        if form in edits:
            catalog.update(edits[form])
            compact = json.dumps(catalog["elements"], separators=(",", ":"))
            catalog["sha256"] = hashlib.sha256(compact.encode()).hexdigest()
            path.write_text(json.dumps(catalog))
        else:
            del catalog["sha256"]
            texts = {"not-json": "{not json", "json-list": "[]", "no-sha256": json.dumps(catalog)}
            path.write_text(texts[form])
        result = run(runner, "basis", "-r", "2", "--fixtures", str(tmp_path))
        assert result.exit_code == 3
        assert f"internal check failed: {path}: " in result.output

    def test_missing_fixture_directory_still_computes(self, runner, tmp_path):
        result = run(
            runner, "basis", "-r", "2", "--fixtures", str(tmp_path), "--format", "json"
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["count"] == 3
        assert payload["fixture"] is None

    @pytest.mark.parametrize("via", ["flag", "environment"])
    def test_absent_fixture_directory_is_a_usage_error(self, runner, tmp_path, via):
        # a mistyped directory must not turn the fixture check off
        absent = str(tmp_path / "absent")
        if via == "flag":
            result = run(runner, "basis", "-r", "2", "--fixtures", absent)
        else:
            result = run(runner, "basis", "-r", "2", env={"KOSTKA_FIXTURES": absent})
        assert result.exit_code == 2
        assert f"Directory '{absent}' does not exist" in result.output

    def test_rank_cap_is_usage_error(self, runner):
        assert run(runner, "basis", "-r", "9").exit_code == 2
        assert run(runner, "basis", "-r", "0").exit_code == 2


class TestRays:
    def test_rank_ten_count(self, runner):
        result = run(runner, "rays", "-r", "10", "--format", "json")
        payload = json.loads(result.output)
        assert payload["count"] == 175
        assert payload["rays"][0]["primitive_lambda"] == [1]

    def test_text_format(self, runner):
        result = run(runner, "rays", "-r", "2")
        assert "3 extremal rays" in result.output

    def test_rank_cap_is_usage_error(self, runner):
        result = run(runner, "rays", "-r", str(config.RAY_RANK_CAP + 1))
        assert result.exit_code == 2
        assert f"exceeds cap {config.RAY_RANK_CAP}" in result.output

    def test_negative_rank_is_usage_error(self, runner):
        result = run(runner, "rays", "-r", "-3")
        assert result.exit_code == 2
        assert "rank -3 is negative" in result.output

    def test_rank_zero_has_no_rays(self, runner):
        result = run(runner, "rays", "-r", "0")
        assert result.exit_code == 0
        assert result.output == "rank 0: 0 extremal rays\n"


class TestAudit:
    def test_rank_two(self, runner):
        result = run(runner, "audit", "-r", "2", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["ok"] is True
        assert payload["basis_count"] == 3

    def test_box_cap_ignores_the_check_environment(self, runner):
        result = run(
            runner, "audit", "-r", "2", "--format", "json", env={"KOSTKA_CAP_BOXES": "5"}
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["box_cap"] == 6


class TestCatalan:
    def test_worked_sequence(self, runner):
        result = run(
            runner,
            "catalan",
            "3,2,1,-2,1,-2,-1,-1,2,-1,2,1,-2,-1,-1,-1",
            "--format",
            "json",
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["cost"] == 15
        assert payload["width"] == 16
        assert payload["reducible"] is True

    def test_irreducible_sequence_exits_one(self, runner):
        result = run(runner, "catalan", "1,1,-2", "--format", "json")
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["cost"] == 3
        assert payload["witness"] is None

    def test_prefix_sums_past_int64(self, runner):
        top = str(config.INT_CAP)
        result = run(runner, "catalan", ",".join([top] * 3 + ["-" + top] * 3), "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["reducible"] is True
        assert payload["witness"] == [1, 2, 4, 5]

    def test_long_sequence_is_answered(self, runner):
        result = run(runner, "catalan", ",".join(["1,-1"] * 13), "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.output)["witness"] == [1, 2]

    def test_invalid_sequence_is_usage_error(self, runner):
        assert run(runner, "catalan", "1,1").exit_code == 2
        assert run(runner, "catalan", "1,a,-1").exit_code == 2


class TestSubsetSum:
    def test_yes_instance(self, runner):
        result = run(runner, "subsetsum", "3,2,1 : 4", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["subset"] == [1, 3]
        assert payload["pair"]["lambda"] == [4, 3, 2, 1, 1, 1, 1]
        assert payload["decomposition"]["selected"]["lambda"] == [2, 1, 1]

    def test_no_instance(self, runner):
        assert run(runner, "subsetsum", "4,2 : 3").exit_code == 1

    def test_trivial_no_when_target_exceeds_total(self, runner):
        result = run(runner, "subsetsum", "2,1 : 9", "--format", "json")
        assert result.exit_code == 1
        assert json.loads(result.output)["trivial"] == "target exceeds total"

    def test_malformed_instances(self, runner):
        assert run(runner, "subsetsum", "3,2 4").exit_code == 2
        assert run(runner, "subsetsum", "a,b : 1").exit_code == 2

    @pytest.mark.parametrize(
        "instance, values", [("0,-5 : 1", "(0, -5)"), ("3,0 : 5", "(3, 0)")]
    )
    def test_nonpositive_values_are_refused_before_the_total(self, runner, instance, values):
        # the target exceeds the total, but the instance is not valid
        result = run(runner, "subsetsum", instance)
        assert result.exit_code == 2
        assert f"values must be positive: {values}" in result.output

    def test_huge_total_is_refused_before_the_pair(self, runner):
        result = run(runner, "subsetsum", "10000000000000 : 1")
        assert result.exit_code == 2
        assert "|lambda| = 20000000000001 exceeds cap 40" in result.output

    def test_trivial_no_bytes(self, runner):
        result = run(runner, "subsetsum", "2,1 : 9")
        assert result.exit_code == 1
        assert result.output == "no subset: target 9 exceeds total 3\n"


class TestLrFamily:
    def test_k_two(self, runner):
        result = run(runner, "lr-family", "--k", "2", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["coefficient"] == 1
        assert payload["exceeds_rank"] is False

    def test_growth_table(self, runner):
        result = run(
            runner, "lr-family", "--k", "2", "--growth-to", "6", "--format", "json"
        )
        payload = json.loads(result.output)
        ranks = [row["k"] for row in payload["growth"]]
        assert ranks == [2, 3, 4, 5, 6]

    def test_k_below_two_is_usage_error(self, runner):
        assert run(runner, "lr-family", "--k", "1").exit_code == 2

    @pytest.mark.parametrize("bound", ["-5", "0", "1"])
    def test_growth_to_below_two_is_usage_error(self, runner, bound):
        result = run(runner, "lr-family", "--k", "3", "--growth-to", bound)
        assert result.exit_code == 2
        assert "Usage:" in result.stderr
        assert "--growth-to" in result.stderr

    @pytest.mark.parametrize(
        "extra, rows", [([], 12), (["--growth-to", "3"], 3)], ids=["k12", "k12-growth-to-3"]
    )
    def test_one_growth_row_per_k(self, runner, monkeypatch, extra, rows):
        # the table's rows, plus the one row the family triple is checked against
        built = []
        row = lr.GrowthRow
        monkeypatch.setattr(lr, "GrowthRow", lambda **kw: built.append(kw) or row(**kw))
        assert run(runner, "lr-family", "--k", "12", *extra).exit_code == 0
        assert len(built) == rows

    @pytest.mark.parametrize("flag", ["--k", "--growth-to"])
    def test_family_cap_is_a_usage_error(self, runner, monkeypatch, flag):
        cap = config.FAMILY_CAP
        args = ["--k", "2", "--growth-to", str(cap)] if flag == "--growth-to" else ["--k", str(cap)]
        result = run(runner, "lr-family", *args, "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.output)["growth"][-1]["k"] == cap
        # one past the cap is refused before any row of the family is built
        built = []
        monkeypatch.setattr(lr, "LrTriple", lambda **kw: built.append(kw))
        monkeypatch.setattr(lr, "GrowthRow", lambda **kw: built.append(kw))
        args[-1] = str(cap + 1)
        result = run(runner, "lr-family", *args)
        assert result.exit_code == 2
        assert f"k = {cap + 1} exceeds cap {cap}" in result.output
        assert built == []


# --- the zero pair at a positive rank ------------------------------------


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "command, code", [("check", 0), ("ryser", 0), ("kgr", 0), ("reduce", 1)]
)
def test_zero_pair_at_positive_rank(runner, command, code, fmt):
    # the zero pair is a cone point at every rank; its matrix has rows but
    # no columns
    result = run(runner, command, "0", "0", "-r", "2", "--format", fmt)
    assert result.exit_code == code
    if fmt == "json":
        payload = json.loads(result.stdout)
        if command == "reduce":
            # irreducible points are nonzero: the zero pair has no
            # decomposition, yet is not irreducible
            assert payload["decomposition"] is None
            assert payload["irreducible"] is False
    elif command == "reduce":
        assert "decomposition search: zero pair\n" in result.stdout


def test_zero_width_rows_print_as_empty_lines(runner):
    result = run(runner, "ryser", "0", "0", "-r", "2")
    assert result.stdout.startswith("pair: (0 | 0; r=2)\nA^(0):\n\n\nA*:\n\n\nmu*: [0, 0]\n")
    payload = json.loads(run(runner, "ryser", "0", "0", "-r", "2", "--format", "json").stdout)
    assert payload["chain"] == [[[], []]]
    assert payload["shapes"] == [[]] and payload["steps"] == []


# --- a seeded contract fuzz over every subcommand -------------------------


def _fuzz_partition(rng) -> str:
    """An odd partition token: empty, zeros, a negative or malformed
    part, or parts at INT_CAP and one past it."""
    return rng.choice(
        [
            "", "0", "()", "2,0,1", "1,2", "-1", "2,-1", "a", "1.5", "1,,1", "1;1",
            f"{config.INT_CAP}", f"{config.INT_CAP + 1}", f"{config.INT_CAP},1",
        ]
    )


def _fuzz_pair(rng) -> list[str]:
    """Mostly two partitions of one size up to 12, the dominant one first
    when they are comparable, so most pairs are cone points; trailing
    zeros now and then."""
    if rng.random() < 0.25:
        return [_fuzz_partition(rng), _fuzz_partition(rng)]
    n = rng.randint(0, 12)
    sides = []
    for _ in range(2):
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
        parts = sorted(map(sub, [*cuts, n], [0, *cuts]), reverse=True) if n else []
        sides.append(parts + [0] * (rng.random() < 0.1))
    if not dominates(sides[0], sides[1]):
        sides.reverse()
    return [",".join(map(str, parts)) or "0" for parts in sides]


def _fuzz_rank(rng) -> list[str]:
    return [] if rng.random() < 0.3 else ["-r", str(rng.randint(-2, 12))]


def _fuzz_sequence(rng) -> str:
    """A Catalan token: mostly a small walk returning to zero, sometimes
    broken by a zero, a negative prefix, a malformed or an outsized entry."""
    if rng.random() < 0.7:
        entries, height = [], 0
        for _ in range(rng.randint(0, 9)):
            step = rng.randint(1, 3) if height == 0 or rng.random() < 0.5 else -rng.randint(1, height)
            entries.append(step)
            height += step
        if height:
            entries.append(-height)
        return ",".join(map(str, entries))
    return rng.choice(
        ["", "0", "1,0,-1", "-1,1", "1,1", "1,a", "1.5,-1.5", "1, -1",
         f"{config.INT_CAP},-{config.INT_CAP}", f"{config.INT_CAP + 1},-1"]
    )


def _fuzz_instance(rng) -> str:
    if rng.random() < 0.7:
        values = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
        target = rng.randint(0, sum(values) + 2)
        return f"{','.join(map(str, values))} : {target}"
    return rng.choice(
        ["3,2", "3,2 : x", "a : 1", " : 1", "0,1 : 1", "2,-1 : 1", "1 : -1",
         f"{config.INT_CAP} : 1", f"{config.INT_CAP + 1} : 1", "1.5 : 1"]
    )


def _fuzz_args(rng) -> list[str]:
    # the rank commands have few inputs, and audit and basis take the
    # most time, so they are drawn a third as often as the others
    command = rng.choices(
        ["check", "ryser", "kgr", "reduce", "catalan", "subsetsum", "lr-family",
         "basis", "rays", "audit"],
        weights=[3] * 7 + [1] * 3,
    )[0]
    formats = ["text", "json", "dot"] if command == "kgr" else ["text", "json"]
    tail = ["--format", rng.choice(formats)]
    if command in ("check", "ryser", "kgr", "reduce"):
        return [command, *_fuzz_pair(rng), *_fuzz_rank(rng), *tail]
    if command in ("basis", "rays", "audit"):
        # rank 8, the largest that basis and audit answer, takes them
        # 0.4 s and 1.1 s; its fixtures are checked by their own tests
        rank = rng.choice([r for r in range(-2, 13) if r != 8])
        return [command, "-r", str(rank), *tail]
    if command == "catalan":
        return [command, _fuzz_sequence(rng), *tail]
    if command == "subsetsum":
        return [command, _fuzz_instance(rng), *tail]
    k = ["--k", str(rng.choice([-1, 0, 1, *range(2, 13), config.FAMILY_CAP + 1]))]
    if rng.random() < 0.5:
        k += ["--growth-to", str(rng.choice([-1, 0, 1, 5, 12, config.FAMILY_CAP + 1]))]
    return [command, *k, *tail]


def test_contract_fuzz(runner):
    # no input may crash a command or fail an internal check: each exits
    # 0 or 1 with an answer (JSON that parses), or 2 with a usage message
    rng = random.Random(1)
    codes = collections.Counter()
    for _ in range(1000):
        args = _fuzz_args(rng)
        result = runner.invoke(main, args)
        assert result.exit_code in (0, 1, 2), (args, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            args,
            result.exception,
        )
        if result.exit_code == 2:
            assert "Usage:" in result.stderr, (args, result.output)
        elif args[-1] == "json":
            json.loads(result.stdout)
        codes[result.exit_code] += 1
    # every outcome is reached, so the draws are not all refused
    assert min(codes.values()) > 50, codes
