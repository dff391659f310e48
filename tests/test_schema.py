import ast
import json
import random
from pathlib import Path

import pytest

import lego_forge
from lego_forge.schema import (
    DEFAULT_MAX_TURNS,
    AtomicWriter,
    CorpusError,
    IndexEntry,
    OffsetLookup,
    RecordRejected,
    Step,
    TaskInstance,
    ToolCall,
    Trajectory,
    load_corpus,
    load_jsonl,
    read_corpus,
    require,
    save_corpus,
    save_jsonl,
    validate_instance,
    validate_trajectory,
)

from conftest import assert_refuses_bad_fields, bash_step, finish_step, make_instance, make_traj


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


class Unencodable:
    def to_record(self):
        raise RuntimeError("cannot encode")


@pytest.mark.parametrize("write, third, error", [
    (save_corpus, Unencodable(), RuntimeError),
    (save_jsonl, {"text": "lone \ud800"}, UnicodeEncodeError),
], ids=["raising-to_record", "lone-surrogate"])
def test_streamed_write_that_fails_part_way_leaves_the_target(tmp_path, write, third, error):
    # The records are encoded into the temp file one at a time; one that
    # fails to encode propagates, keeps the old file, and leaves no temp file.
    first = make_traj([finish_step(0)]) if write is save_corpus else {"text": "ok"}
    path = tmp_path / "out.jsonl"
    path.write_bytes(b"old bytes\n")
    with pytest.raises(error):
        write([first, first, third, first], path)
    assert path.read_bytes() == b"old bytes\n"
    assert not list(tmp_path.glob(".out.jsonl.*.tmp"))


def test_atomic_writer_commits_or_discards_what_was_pushed(tmp_path):
    # Pieces pushed into a writer reach the target only on commit; a
    # discarded writer leaves the old target and no temp file.
    path = tmp_path / "out.jsonl"
    path.write_bytes(b"old bytes\n")
    dropped, kept = AtomicWriter(path), AtomicWriter(path)
    for writer in (dropped, kept):
        writer.write("new ")
        writer.write("bytes\n")
    assert len(list(tmp_path.glob(".out.jsonl.*.tmp"))) == 2
    dropped.discard()
    assert path.read_bytes() == b"old bytes\n"
    kept.commit()
    assert path.read_bytes() == b"new bytes\n"
    assert not list(tmp_path.glob(".out.jsonl.*.tmp"))


def test_save_jsonl_returns_the_line_count_of_a_generator(tmp_path):
    path = tmp_path / "out.jsonl"
    assert save_jsonl(({"n": n} for n in range(3)), path) == 3
    assert path.read_text(encoding="utf-8") == '{"n":0}\n{"n":1}\n{"n":2}\n'
    assert save_jsonl([], path) == 0 and path.read_bytes() == b""


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
    # A line that is not UTF-8 is BAD_JSON by its number; a U+2028 line is
    # blank, as str.strip calls it.
    path.write_bytes(b'{"n": 1}\n{"n": "\xff"}\n\xe2\x80\xa8\n{"n": 5}\n')
    for reject_blank, blank in ((False, []), (True, [(3, ("EMPTY_LINE",))])):
        result = load_jsonl(path, parse, reject_blank=reject_blank)
        assert result.records == [1, 5]
        assert [(r.line_no, r.codes) for r in result.rejections] == [(2, ("BAD_JSON",)), *blank]
        assert result.rejections[0].message.startswith("not UTF-8: 'utf-8' codec can't decode byte 0xff")


def test_load_jsonl_rejects_lone_surrogate_escapes(tmp_path):
    # A lone surrogate decodes but can never be written as UTF-8; a pair, or
    # an escaped backslash before "ud800", is ordinary text.
    path = tmp_path / "input.jsonl"
    write_lines(path, [
        r'{"t": "a\ud800b"}', r'{"t": "\udfff"}', r'{"\ud83d": 1}', r'{"t": ["ok", {"x": "\uDBFF"}]}',
        r'{"t": "\ud83d\ude00"}', r'{"t": "\\ud800"}', r'{"t": "\u00e9"}',
    ])
    result = load_jsonl(path, lambda record: record["t"])
    assert result.records == ["\U0001F600", "\\ud800", "\u00e9"]
    assert [(r.line_no, r.codes, r.message) for r in result.rejections] == [
        (n, ("BAD_JSON",), "lone surrogate") for n in (1, 2, 3, 4)
    ]


def test_load_jsonl_rejects_deep_nesting_and_huge_integers(tmp_path):
    # json.loads raises RecursionError for a line nested past the recursion
    # limit and a plain ValueError for an integer past int's digit limit;
    # both are BAD_JSON, and the lines after them still load.
    path = tmp_path / "input.jsonl"
    write_lines(path, ["[" * 200_000, '{"n": 1}', '{"n": ' + "7" * 5_000 + "}", '{"x": ' + "[" * 100_000 + "}",
                       '{"n": 2}'])
    result = load_jsonl(path, lambda record: record["n"])
    assert result.records == [1, 2]
    assert [(r.line_no, r.codes) for r in result.rejections] == [(n, ("BAD_JSON",)) for n in (1, 3, 4)]
    assert "recursion" in result.rejections[0].message and "digits" in result.rejections[1].message


def test_load_jsonl_rejects_non_finite_numbers(tmp_path):
    # json.loads takes NaN, Infinity and a number past the float range (as
    # inf), and json.dumps would write them back raw, which strict JSON
    # readers refuse; each is BAD_JSON, at any depth. A large finite number,
    # or one that underflows to 0, still loads.
    path = tmp_path / "input.jsonl"
    write_lines(path, ['{"n": NaN}', '{"n": Infinity}', '{"n": [{"m": -Infinity}]}', '{"n": 1e400}',
                       '{"n": -1E+309}', '{"n": 1.5e308}', '{"n": 1e-400}', '{"n": "NaN"}'])
    result = load_jsonl(path, lambda record: record["n"])
    assert result.records == [1.5e308, 0.0, "NaN"]
    assert [(r.line_no, r.codes) for r in result.rejections] == [(n, ("BAD_JSON",)) for n in range(1, 6)]
    assert all("is not a finite number" in r.message for r in result.rejections)


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
    # Every stage input is decoded by schema.read_jsonl, with the one strict
    # decoder schema builds, which also decodes an instance's or a final
    # report's line again when it is looked up by its offset; the state file
    # and the verifier wire protocol are the only other JSON the program reads.
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
            if isinstance(node.value, ast.Name) and (
                    node.value.id == "json" and node.attr in ("load", "loads", "JSONDecoder")
                    or node.value.id == "_DECODER"):
                found.append(".".join(self.scope))
            self.generic_visit(node)

        def visit_ImportFrom(self, node):
            assert node.module != "json", ".".join(self.scope)

    for path in sorted(Path(lego_forge.__file__).parent.glob("*.py")):
        Finder(path.stem).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(found) == ["cli._read_state", "schema", "schema.OffsetLookup.__getitem__",
                             "schema.read_jsonl", "tts.decode_score_response"]


STEP_FIELDS = ("index", "action", "observation", "phase", "error_flag", "tool", "arguments")


def test_no_code_assigns_to_a_step_or_tool_call_field():
    # Step and ToolCall are not frozen, so that they are cheaper to build;
    # they stay values because nothing in the package assigns to, deletes,
    # setattr's or object.__setattr__'s an attribute of one of their field
    # names (or of a name not known until run time), on any object.
    import dataclasses

    assert {f.name for cls in (Step, ToolCall) for f in dataclasses.fields(cls)} == set(STEP_FIELDS)
    found = []

    def targets(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            for item in node.elts:
                yield from targets(item)
        elif isinstance(node, ast.Starred):
            yield from targets(node.value)
        else:
            yield node

    for path in sorted(Path(lego_forge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Assign, ast.Delete)):
                written = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
                written = [node.target]
            elif isinstance(node, ast.withitem):
                written = [node.optional_vars]
            elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in (
                    "setattr", "__setattr__", "delattr", "__delattr__"):
                name = node.args[1] if len(node.args) > 1 else None
                if not (isinstance(name, ast.Constant) and name.value not in STEP_FIELDS):
                    found.append(f"{path.name}:{node.lineno}")
                continue
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for target in written if target is not None
                      for leaf in targets(target) if isinstance(leaf, ast.Attribute) and leaf.attr in STEP_FIELDS]
    assert found == []


def index_of(path):
    """The instances of corpus `path` and its index, both from one validating read."""
    rejections = []
    pairs = list(read_corpus(path, "instances", rejections, offsets=True))
    assert rejections == []
    return [inst for _, inst in pairs], {inst.instance_id: IndexEntry.of(inst, path, offset) for offset, inst in pairs}


def test_lookup_by_offset_equals_read_corpus(tmp_path):
    # Offsets count bytes, and lines split at "\n" only, so non-ASCII text,
    # U+2028 and an escaped "\r" in one line, or a raw "\r" between its
    # tokens, move no lookup of a later line.
    texts = ["na\u00efve caf\u00e9 \u2014 \u4e2d\u6587", "line\u2028separator\u2029paragraph\x85", "carriage\rreturn\r\n", "plain"]
    insts = [make_instance(instance_id=f"i{n}", problem_statement=text, extra={"note": text})
             for n, text in enumerate(texts)]
    path = tmp_path / "instances.jsonl"
    written = []
    save_corpus(insts, path, on_write=lambda inst, offset: written.append((inst, offset)))
    read, index = index_of(path)
    assert read == [inst for inst, _ in written] == insts
    assert [entry.offset for entry in index.values()] == [offset for _, offset in written]
    assert written[1][1] > len(path.read_text(encoding="utf-8").split("\n")[0]) + 1  # bytes, not characters
    path.write_bytes(path.read_bytes().replace(b',"repo":', b',\r"repo":'))  # JSON whitespace
    read, index = index_of(path)
    lookup = OffsetLookup(TaskInstance.from_record, index)
    assert [lookup[inst.instance_id] for inst in read] == read == insts
    assert [entry.issue_words for entry in index.values()] == [len(text.split()) for text in texts]
    assert lookup.get("absent") is None


def test_lookup_takes_an_id_from_the_first_index_that_holds_it(tmp_path):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    save_corpus([make_instance(instance_id=i, problem_statement=f"first {i}") for i in "ab"], first)
    save_corpus([make_instance(instance_id=i, problem_statement=f"second {i}") for i in "bc"], second)
    lookup = OffsetLookup(TaskInstance.from_record, index_of(first)[1], index_of(second)[1])
    assert {i: lookup[i].problem_statement for i in sorted(lookup)} == {
        "a": "first a", "b": "first b", "c": "second c"}
    # An entry need only start with (path, offset), and the parse is the caller's.
    pairs = [{i: entry[:2] for i, entry in index_of(path)[1].items()} for path in (first, second)]
    assert dict(OffsetLookup(lambda record: record["problem_statement"], *pairs)) == {
        "a": "first a", "b": "first b", "c": "second c"}


def test_lookup_keeps_no_instance_and_decodes_each_lookup(tmp_path):
    ids = ["a", "b"]
    path = tmp_path / "instances.jsonl"
    save_corpus([make_instance(instance_id=i) for i in ids], path)
    decoded = []

    def counting_from_record(record):
        decoded.append(record["instance_id"])
        return TaskInstance.from_record(record)

    lookup = OffsetLookup(counting_from_record, index_of(path)[1])
    first = lookup["a"]
    again = lookup["a"]
    assert again == first and again is not first
    assert lookup["b"].instance_id == "b"
    assert decoded == ["a", "a", "b"]


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
    # A builder that has parsed the golden patch seeds golden_stats; a seeded
    # golden_stats is not parsed again, and an unseeded patch that does not
    # parse is BAD_PATCH.
    from lego_forge.patch_analysis import PatchParseError

    def no_parse(text):
        raise PatchParseError("golden patch parsed again")

    stats = make_instance().golden_stats
    monkeypatch.setattr("lego_forge.patch_analysis.parse_patch", no_parse)
    seeded = make_instance(fail_to_pass=())
    object.__setattr__(seeded, "golden_stats", stats)
    assert validate_instance(seeded) == ["EMPTY_F2P"]
    assert validate_instance(make_instance(fail_to_pass=())) == ["EMPTY_F2P", "BAD_PATCH"]


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


@pytest.mark.parametrize("record, types, message", [
    ({}, str, "missing field 'k'"),
    ({"other": 1}, int, "missing field 'k'"),
    ({"k": 1}, str, "field 'k' has wrong type int"),
    ({"k": None}, dict, "field 'k' has wrong type NoneType"),
    ({"k": True}, int, "field 'k' has wrong type bool"),
    ({"k": False}, (int, float), "field 'k' has wrong type bool"),
    ({"k": 1.5}, int, "field 'k' has wrong type float"),
])
def test_require_refuses_with_the_field_and_the_type(record, types, message):
    with pytest.raises(ValueError) as caught:
        require(record, "k", types)
    assert str(caught.value) == message


@pytest.mark.parametrize("value, types", [
    ("x", str), (0, int), (True, bool), (False, (bool, int)), (2, (int, float)), (2.5, (int, float)),
    ([], list), ({}, dict), (None, type(None)),
])
def test_require_returns_the_value_itself(value, types):
    assert require({"k": value}, "k", types) is value


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


def test_step_error_flag_is_a_boolean_or_absent():
    # error_flag is read as a JSON boolean, never cast: "no" is not true.
    line = Step(0, ToolCall("execute_bash", {"command": "ls"}), "x", "other", True).to_record()
    assert_refuses_bad_fields(Step.from_record, line)
    for value in ("no", 0, 1, None):
        with pytest.raises(ValueError, match="'error_flag' has wrong type"):
            Step.from_record({**line, "error_flag": value})
    del line["error_flag"]
    assert Step.from_record(line).error_flag is False


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
