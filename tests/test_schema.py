import ast
import json
import random
from pathlib import Path

import pytest

import lego_forge
from lego_forge.schema import (
    DEFAULT_MAX_TURNS,
    CorpusError,
    RecordRejected,
    Trajectory,
    load_corpus,
    load_jsonl,
    save_corpus,
    validate_instance,
    validate_trajectory,
)

from conftest import bash_step, finish_step, make_instance, make_traj


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_empty_file_yields_empty_result(tmp_path):
    path = tmp_path / "instances.jsonl"
    path.write_text("", encoding="utf-8")
    result = load_corpus(path, "instances")
    assert result.records == []
    assert result.rejections == []


def test_three_valid_lines_load_in_order(tmp_path):
    insts = [make_instance(instance_id=f"inst-{i}") for i in range(3)]
    path = tmp_path / "instances.jsonl"
    save_corpus(insts, path)
    result = load_corpus(path, "instances")
    assert [r.instance_id for r in result.records] == ["inst-0", "inst-1", "inst-2"]
    assert result.rejections == []


def test_label_overlap_line_is_rejected_with_code(tmp_path):
    good = [make_instance(instance_id="a"), make_instance(instance_id="b")]
    bad = make_instance(
        instance_id="c",
        fail_to_pass=("tests/test_calc.py::test_add",),
        pass_to_pass=("tests/test_calc.py::test_add",),
    )
    path = tmp_path / "instances.jsonl"
    save_corpus([good[0], good[1], bad], path)
    result = load_corpus(path, "instances")
    assert [r.instance_id for r in result.records] == ["a", "b"]
    assert len(result.rejections) == 1
    rejection = result.rejections[0]
    assert rejection.line_no == 3
    assert "LABEL_OVERLAP" in rejection.codes


def test_save_corpus_empty_is_zero_byte_file(tmp_path):
    path = tmp_path / "out.jsonl"
    save_corpus([], path)
    assert path.read_bytes() == b""


def test_round_trip_identity_and_byte_stability(tmp_path):
    insts = [
        make_instance(instance_id=f"inst-{i}", difficulty="easy" if i % 2 else None)
        for i in range(5)
    ]
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    save_corpus(insts, first)
    loaded = load_corpus(first, "instances").records
    assert loaded == insts
    save_corpus(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    # Saving the same records twice is byte-identical.
    save_corpus(insts, second)
    assert first.read_bytes() == second.read_bytes()


def test_unknown_extra_fields_survive_round_trip(tmp_path):
    record = make_instance().to_record()
    record["pipeline_version"] = "v3"
    record["annotations"] = {"reviewed": True}
    path = tmp_path / "instances.jsonl"
    write_lines(path, [json.dumps(record)])
    loaded = load_corpus(path, "instances").records[0]
    assert loaded.extra == {"pipeline_version": "v3", "annotations": {"reviewed": True}}
    out = tmp_path / "again.jsonl"
    save_corpus([loaded], out)
    assert json.loads(out.read_text()) == record


def test_rejections_are_exhaustive_over_messy_file(tmp_path):
    rng = random.Random(7)
    lines = []
    expected_good = 0
    for i in range(40):
        roll = rng.random()
        if roll < 0.5:
            lines.append(json.dumps(make_instance(instance_id=f"ok-{i}").to_record()))
            expected_good += 1
        elif roll < 0.7:
            lines.append("{not json")
        elif roll < 0.85:
            lines.append(json.dumps({"instance_id": f"partial-{i}"}))
        else:
            bad = make_instance(instance_id=f"bad-{i}", fail_to_pass=())
            lines.append(json.dumps(bad.to_record()))
    path = tmp_path / "instances.jsonl"
    write_lines(path, lines)
    result = load_corpus(path, "instances")
    assert len(result.records) == expected_good
    assert len(result.records) + len(result.rejections) == len(lines)


def test_load_jsonl_reports_each_bad_line_by_number(tmp_path):
    def parse(record):
        if record.get("n") == 0:
            raise RecordRejected(("ZERO", "FALSY"), "ZERO; FALSY")
        if not isinstance(record.get("n"), int):
            raise ValueError("n must be an integer")
        return record["n"]

    path = tmp_path / "input.jsonl"
    write_lines(path, ['{"n": 1}', "", "[1, 2]", '{"n": "two"}', '{"n": 3', '{"n": 0}', " ", '{"n": 4}'])
    bad = [(3, ("BAD_JSON",)), (4, ("BAD_RECORD",)), (5, ("BAD_JSON",)), (6, ("ZERO", "FALSY"))]
    lenient = load_jsonl(path, parse)
    assert lenient.records == [1, 4]
    assert [(r.line_no, r.codes) for r in lenient.rejections] == bad
    strict = load_jsonl(path, parse, reject_blank=True)
    assert strict.records == [1, 4]
    assert [(r.line_no, r.codes) for r in strict.rejections] == sorted(
        bad + [(2, ("EMPTY_LINE",)), (7, ("EMPTY_LINE",))]
    )
    with pytest.raises(CorpusError):
        load_jsonl(tmp_path / "absent.jsonl", parse)


def test_lines_split_at_newline_only(tmp_path):
    # U+0085, U+2028 and U+2029 are written raw; CRLF line ends still read.
    traj = make_traj([bash_step(0, "ls", "a\x85b\u2028c\u2029d"), finish_step(1)])
    path = tmp_path / "trajectories.jsonl"
    save_corpus([traj, traj], path)
    assert "\u2028".encode() in path.read_bytes()
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    result = load_corpus(path, "trajectories")
    assert result.rejections == []
    assert result.records == [traj, traj]


def test_only_the_reader_decodes_json_lines():
    # Every stage input is decoded by schema.load_jsonl; the state file and
    # the verifier wire protocol are the only other JSON the program reads.
    found = []

    class Finder(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

        def visit_Attribute(self, node):
            if isinstance(node.value, ast.Name) and node.value.id == "json" and node.attr in ("load", "loads"):
                found.append(".".join(self.scope))
            self.generic_visit(node)

        def visit_ImportFrom(self, node):
            assert node.module != "json", ".".join(self.scope)

    for path in sorted(Path(lego_forge.__file__).parent.glob("*.py")):
        Finder(path.stem).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(found) == ["cli._read_state", "schema.load_jsonl", "tts.decode_score_response"]


def test_duplicate_real_image_rejected(tmp_path):
    a = make_instance(instance_id="a", origin="real", image_name="sandbox.shared")
    b = make_instance(instance_id="b", origin="real", image_name="sandbox.shared")
    path = tmp_path / "instances.jsonl"
    save_corpus([a, b], path)
    result = load_corpus(path, "instances")
    assert [r.instance_id for r in result.records] == ["a"]
    assert result.rejections[0].codes == ("DUPLICATE_IMAGE",)


def test_duplicate_instance_id_rejected(tmp_path):
    a = make_instance(instance_id="dup")
    b = make_instance(instance_id="dup", image_name="sandbox.other")
    path = tmp_path / "instances.jsonl"
    save_corpus([a, b], path)
    result = load_corpus(path, "instances")
    assert len(result.records) == 1
    assert result.rejections[0].codes == ("DUPLICATE_ID",)


def test_synthetic_instances_may_share_image(tmp_path):
    a = make_instance(instance_id="a", image_name="sandbox.shared")
    b = make_instance(instance_id="b", image_name="sandbox.shared")
    path = tmp_path / "instances.jsonl"
    save_corpus([a, b], path)
    assert len(load_corpus(path, "instances").records) == 2


def test_save_corpus_unwritable_path(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("occupied", encoding="utf-8")
    with pytest.raises(CorpusError):
        save_corpus([make_instance()], blocker / "sub" / "out.jsonl")


def test_parse_timestamp_accepts_z_and_naive_as_utc():
    from lego_forge.schema import parse_timestamp

    utc = parse_timestamp("2023-01-01T00:00:00+00:00")
    assert parse_timestamp("2023-01-01T00:00:00Z") == utc
    assert parse_timestamp("2023-01-01T00:00:00") == utc


def test_unknown_kind_raises():
    with pytest.raises(CorpusError):
        load_corpus("whatever.jsonl", "reports")


def test_missing_file_raises(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "nope.jsonl", "instances")


# -- validate_instance


def test_validate_well_formed_instance():
    assert validate_instance(make_instance()) == []


def test_validate_empty_f2p():
    assert validate_instance(make_instance(fail_to_pass=())) == ["EMPTY_F2P"]


def test_validate_corrupt_golden_patch():
    patch = make_instance().golden_patch
    corrupted = patch.replace("@@ -1,", "@@ !1,", 1)
    assert corrupted != patch
    codes = validate_instance(make_instance(golden_patch=corrupted))
    assert codes == ["BAD_PATCH"]


def test_validate_takes_the_callers_patch_verdict(monkeypatch):
    # A caller that has parsed the golden patch passes its verdict; the
    # patch is then not parsed again, and BAD_PATCH still follows the verdict.
    def no_parse(text):
        raise AssertionError("golden patch parsed again")

    monkeypatch.setattr("lego_forge.patch_analysis.parse_patch", no_parse)
    assert validate_instance(make_instance(), patch_parses=True) == []
    assert validate_instance(make_instance(), patch_parses=False) == ["BAD_PATCH"]
    assert validate_instance(make_instance(fail_to_pass=()), patch_parses=False) == [
        "EMPTY_F2P",
        "BAD_PATCH",
    ]


def test_validate_bad_timestamp_and_origin():
    inst = make_instance(origin="scraped", created_at="yesterday")
    codes = validate_instance(inst)
    assert "BAD_ORIGIN" in codes
    assert "BAD_TIMESTAMP" in codes


# -- trajectories


def make_simple_traj(**overrides):
    return make_traj(
        [bash_step(0, "ls", "calc.py"), finish_step(1)],
        **overrides,
    )


def test_trajectory_round_trip(tmp_path):
    traj = make_simple_traj(extra={"checkpoint": "epoch-1"})
    path = tmp_path / "trajectories.jsonl"
    save_corpus([traj], path)
    result = load_corpus(path, "trajectories")
    assert result.rejections == []
    assert result.records == [traj]


def test_trajectory_max_turns_must_be_an_integer():
    record = make_simple_traj().to_record()
    with pytest.raises(ValueError, match="'max_turns' has wrong type str"):
        Trajectory.from_record({**record, "max_turns": "100"})
    del record["max_turns"]
    assert Trajectory.from_record(record).max_turns == DEFAULT_MAX_TURNS


def test_trajectory_noncontiguous_steps_rejected():
    traj = make_simple_traj()
    broken = Trajectory(
        trajectory_id=traj.trajectory_id,
        instance_id=traj.instance_id,
        steps=(traj.steps[1],),
        final_patch="",
        turn_count=1,
        outcome="unclassified",
    )
    assert "NONCONTIGUOUS_STEPS" in validate_trajectory(broken)


def test_trajectory_finish_must_be_terminal():
    traj = make_traj([finish_step(0), bash_step(1, "ls")])
    assert "FINISH_NOT_TERMINAL" in validate_trajectory(traj)


def test_trajectory_turn_count_mismatch():
    traj = make_simple_traj()
    broken = Trajectory(
        trajectory_id="t",
        instance_id="i",
        steps=traj.steps,
        final_patch="",
        turn_count=5,
        outcome="unclassified",
    )
    assert "TURN_COUNT_MISMATCH" in validate_trajectory(broken)


def test_trajectory_unknown_tool_is_accepted():
    # Rolled-out trajectories may carry tools that curation prunes later.
    from conftest import tracker_step

    traj = make_traj([tracker_step(0), finish_step(1)])
    assert validate_trajectory(traj) == []
