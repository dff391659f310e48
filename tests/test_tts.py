import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lego_forge.tts import (
    Candidate,
    DegenerateScoreError,
    InfeasibleBudgetError,
    LatencyModel,
    LineDelimitedVerifier,
    OracleVerifier,
    Rollouts,
    Scored,
    StubVerifier,
    VerifierScore,
    add_rollout,
    allocate,
    best_of_k,
    check_rankable,
    decode_score_response,
    encode_score_request,
    generative_score,
    iso_latency_contour,
    latency,
    regressive_score,
    select_top1,
    surface_point,
    tts_at_k,
)

from lego_forge.errors import ForgeError, ValidationFailure
from lego_forge.schema import RecordRejected, dumps_record

from conftest import assert_refuses_bad_fields


def candidate(instance_id, index, resolved, patch=None):
    return Candidate(
        instance_id=instance_id,
        rollout_index=index,
        trajectory_summary=f"summary {instance_id}#{index}",
        final_patch=patch if patch is not None else f"patch-{instance_id}-{index}",
        resolved=resolved,
    )


def scores(*values):
    return [VerifierScore(score=v, provenance="stub") for v in values]


# ---------------------------------------------------------------------------
# generative_score


def test_generative_score_already_normalized():
    assert generative_score(0.9, 0.1).score == pytest.approx(0.9, abs=1e-12)


def test_generative_score_normalizes():
    assert generative_score(0.03, 0.01).score == pytest.approx(0.75, abs=1e-12)


def test_generative_score_symmetry():
    assert generative_score(0.5, 0.5).score == pytest.approx(0.5, abs=1e-12)


def test_generative_score_degenerate_and_negative():
    with pytest.raises(DegenerateScoreError):
        generative_score(0.0, 0.0)
    with pytest.raises(ValueError):
        generative_score(-0.1, 0.5)


def test_generative_score_matches_formula_randomly():
    rng = random.Random(21)
    for _ in range(200):
        p_yes, p_no = rng.random(), rng.random()
        if p_yes + p_no == 0:
            continue
        assert generative_score(p_yes, p_no).score == pytest.approx(
            p_yes / (p_yes + p_no), abs=1e-12
        )


def test_score_bounds_enforced():
    with pytest.raises(ValueError):
        VerifierScore(score=1.5, provenance="stub")
    with pytest.raises(ValueError):
        regressive_score(-0.2)


# ---------------------------------------------------------------------------
# select_top1


def test_single_candidate_selected_regardless_of_score():
    only = candidate("i", 0, False)
    assert select_top1([only], scores(0.01)) is only


def test_maximal_score_wins():
    cands = [candidate("i", k, False) for k in range(3)]
    assert select_top1(cands, scores(0.2, 0.9, 0.4)) is cands[1]


def test_tie_breaks_to_lowest_rollout_index():
    cands = [candidate("i", 0, False), candidate("i", 1, True)]
    assert select_top1(cands, scores(0.7, 0.7)) is cands[0]


def test_selection_permutation_stable():
    rng = random.Random(3)
    cands = [candidate("i", k, False) for k in range(6)]
    vals = scores(0.5, 0.9, 0.9, 0.1, 0.9, 0.3)
    baseline = select_top1(cands, vals)
    for _ in range(20):
        order = list(range(6))
        rng.shuffle(order)
        shuffled = [cands[j] for j in order]
        shuffled_scores = [vals[j] for j in order]
        assert select_top1(shuffled, shuffled_scores) is baseline


def test_empty_selection_is_error():
    with pytest.raises(ValueError):
        select_top1([], [])


# ---------------------------------------------------------------------------
# tts_at_k


def oracle_pairs(flag_sets):
    verifier = OracleVerifier()
    out = []
    for i, flags in enumerate(flag_sets):
        cands = [candidate(f"inst{i}", k, resolved) for k, resolved in enumerate(flags)]
        out.append((cands, [verifier.score(c) for c in cands]))
    return out


def test_oracle_attains_pass_at_k():
    rng = random.Random(55)
    for k in (1, 2, 4, 8, 16):
        flag_sets = [[rng.random() < 0.3 for _ in range(k)] for _ in range(30)]
        metrics = tts_at_k(oracle_pairs(flag_sets))
        assert metrics["tts"] == metrics["pass"]


def test_hand_enumerated_three_instance_fixture():
    # Instance A: top score (0.9) sits on an unresolved candidate.
    # Instance B: top score (0.9) sits on a resolved candidate.
    # Instance C: nothing is resolved.
    cands_a = [candidate("a", k, r) for k, r in enumerate([False, True, False, False])]
    cands_b = [candidate("b", k, r) for k, r in enumerate([True, False, False, True])]
    cands_c = [candidate("c", k, False) for k in range(4)]
    pairs = [
        (cands_a, scores(0.9, 0.8, 0.1, 0.0)),
        (cands_b, scores(0.2, 0.3, 0.3, 0.9)),
        (cands_c, scores(0.6, 0.5, 0.4, 0.3)),
    ]
    metrics = tts_at_k(pairs)
    assert metrics["tts"] == pytest.approx(1 / 3)
    assert metrics["pass"] == pytest.approx(2 / 3)


def test_all_unresolved_gives_zero():
    pairs = oracle_pairs([[False, False], [False, False]])
    metrics = tts_at_k(pairs)
    assert metrics == {"tts": 0.0, "pass": 0.0}


def test_ragged_candidate_counts_rejected():
    pairs = oracle_pairs([[True, False], [True]])
    with pytest.raises(ValueError):
        tts_at_k(pairs)


def test_tts_never_exceeds_pass_with_arbitrary_scores():
    rng = random.Random(91)
    for _ in range(50):
        k = rng.choice([1, 2, 4, 8])
        pairs = []
        for i in range(12):
            cands = [candidate(f"i{i}", j, rng.random() < 0.4) for j in range(k)]
            pairs.append((cands, scores(*(rng.random() for _ in range(k)))))
        metrics = tts_at_k(pairs)
        assert metrics["tts"] <= metrics["pass"] + 1e-12


def test_oracle_tts_non_decreasing_on_nested_prefixes():
    rng = random.Random(12)
    flag_sets = [[rng.random() < 0.25 for _ in range(16)] for _ in range(40)]
    verifier = OracleVerifier()
    previous = -1.0
    for k in (1, 2, 4, 8, 16):
        pairs = []
        for i, flags in enumerate(flag_sets):
            cands = [candidate(f"i{i}", j, f) for j, f in enumerate(flags[:k])]
            pairs.append((cands, [verifier.score(c) for c in cands]))
        tts_value = tts_at_k(pairs)["tts"]
        assert tts_value >= previous
        previous = tts_value


def test_adversarial_verifier_picks_resolved_only_when_unavoidable():
    # Scores = 1 - oracle: the verifier prefers unresolved candidates, so
    # the selection resolves only when every candidate is resolved.
    rng = random.Random(44)
    pairs = []
    expected_hits = 0
    for i in range(60):
        flags = [rng.random() < 0.5 for _ in range(4)]
        cands = [candidate(f"i{i}", j, f) for j, f in enumerate(flags)]
        adversarial = scores(*(0.0 if f else 1.0 for f in flags))
        pairs.append((cands, adversarial))
        if all(flags):
            expected_hits += 1
    metrics = tts_at_k(pairs)
    assert metrics["tts"] == pytest.approx(expected_hits / 60)
    assert metrics["tts"] <= metrics["pass"]


# ---------------------------------------------------------------------------
# Rollout groups and best-of-K


def test_add_rollout_keeps_only_index_label_and_score():
    # Lines arrive in any order; each is scored once as it is added, and the
    # selection matches select_top1 over the full candidates.
    rng = random.Random(45)
    cands = [candidate(f"i{i}", j, rng.random() < 0.4) for i in range(12) for j in range(4)]
    rng.shuffle(cands)
    verifier = StubVerifier(seed=3)
    groups = {}
    for cand in cands:
        add_rollout(groups, cand.to_record(), verifier)
    assert check_rankable(groups, "rollouts.jsonl") is None
    # One state per instance: its rollout indices, its best candidate so far
    # (a Scored) and whether any candidate resolved.
    assert all(type(r) is Rollouts and type(r.best) is Scored and sorted(r.indices) == [0, 1, 2, 3]
               for r in groups.values())
    lines, metrics = best_of_k(groups)
    by_instance = {}
    for cand in sorted(cands, key=lambda c: c.rollout_index):
        by_instance.setdefault(cand.instance_id, []).append(cand)
    pairs = [(by_instance[iid], [verifier.score(c) for c in by_instance[iid]]) for iid in sorted(by_instance)]
    assert [(line["instance_id"], line["selected_rollout_index"], line["score"], line["resolved"])
            for line in lines] == [
        (c[0].instance_id, chosen.rollout_index, s[c.index(chosen)].score, chosen.resolved)
        for c, s in pairs for chosen in [select_top1(c, s)]
    ]
    assert metrics == {"k": 4, "instances": 12, **tts_at_k(pairs)}


def test_add_rollout_refuses_a_repeat_and_unrankable_names_the_causes():
    groups = {}
    with pytest.raises(ValidationFailure) as empty:
        check_rankable(groups, "r.jsonl")
    assert (empty.value.rejections, str(empty.value)) == ([
        {"file": "r.jsonl", "line_no": None, "instance_id": None, "codes": ["EMPTY_ROLLOUTS"],
         "message": "rollouts file holds no candidates"},
    ], "r.jsonl: no candidates")
    for iid, j in [("a", 0), ("a", 1), ("b", 0), ("b", 1), ("c", 0)]:
        add_rollout(groups, candidate(iid, j, False).to_record(), OracleVerifier())
    with pytest.raises(RecordRejected) as repeat:
        add_rollout(groups, candidate("a", 1, True).to_record(), OracleVerifier())
    assert repeat.value.codes == ("DUPLICATE_ROLLOUT_INDEX",)
    with pytest.raises(ValidationFailure) as ragged:
        check_rankable(groups, "r.jsonl")
    assert (ragged.value.rejections, str(ragged.value)) == ([
        {"file": "r.jsonl", "line_no": None, "instance_id": "c", "codes": ["RAGGED_ROLLOUTS"],
         "message": "1 candidate(s) where most instances have 2"},
    ], "r.jsonl: ragged candidate counts per instance: [1, 2]")


def test_add_rollout_reports_a_failing_verifier_as_no_bad_line():
    # read_jsonl turns a ValueError from a line parser into a rejection of
    # the line; a verifier's fault (here a malformed response: not JSON, not
    # an object, a probability or score that is not a number, or an integer
    # probability past the float range) comes out as a ForgeError instead,
    # never a TypeError, AttributeError or OverflowError.
    responses = ["not json", "5", '"p_yes"', "[0.5]", '{"score": null}', '{"score": true}',
                 '{"score": "0.5"}', '{"p_yes": 0.5, "p_no": "0.5"}', '{"p_yes": [1]}', '{"p_no": false}',
                 '{"p_yes": 1' + "0" * 400 + ', "p_no": 0.5}']
    for response in responses:
        verifier = LineDelimitedVerifier(lambda request: response)
        groups = {}
        with pytest.raises(ForgeError) as failed:
            add_rollout(groups, candidate("a", 0, True).to_record(), verifier)
        assert not isinstance(failed.value, ValueError), response
        if response == "not json":
            assert isinstance(failed.value.__cause__, json.JSONDecodeError)
        assert groups == {}, response


class PatchScore:
    """A verifier that reads each candidate's score from its patch text."""

    def score(self, cand):
        return VerifierScore(score=float(cand.final_patch), provenance="stub")


def fold_reference(records, verifier):
    """Each line's rejection, and every candidate with its score by instance
    and rollout_index, in the order the instances first arrive: what the
    fold replaces."""
    groups, rejections = {}, []
    for line_no, record in enumerate(records, start=1):
        cand = Candidate.from_record(record)
        seen = groups.setdefault(cand.instance_id, {})
        if cand.rollout_index in seen:
            rejections.append({"line_no": line_no, "codes": ["DUPLICATE_ROLLOUT_INDEX"],
                               "message": f"instance {cand.instance_id!r} repeats rollout_index {cand.rollout_index}"})
        else:
            seen[cand.rollout_index] = (cand, verifier.score(cand))
    return groups, rejections


def rankable_reference(groups, source):
    if not groups:
        return f"{source}: no candidates", [
            {"file": source, "line_no": None, "instance_id": None, "codes": ["EMPTY_ROLLOUTS"],
             "message": "rollouts file holds no candidates"}]
    sizes = Counter(len(seen) for seen in groups.values())
    if len(sizes) == 1:
        return None
    k = sizes.most_common(1)[0][0]
    return f"{source}: ragged candidate counts per instance: {sorted(sizes)}", [
        {"file": source, "line_no": None, "instance_id": iid, "codes": ["RAGGED_ROLLOUTS"],
         "message": f"{len(seen)} candidate(s) where most instances have {k}"}
        for iid, seen in groups.items() if len(seen) != k]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(lines=st.lists(st.tuples(st.sampled_from("abcd"), st.integers(0, 3),
                                st.sampled_from(["0.0", "0.5", "1.0"]), st.booleans()), max_size=20))
def test_fold_selects_and_rejects_as_select_top1_and_tts_at_k(lines):
    # Candidates arrive in any order, with tied scores, repeated rollout
    # indices and ragged or no instances. The fold keeps one state per
    # instance; its rejections, selection lines and metrics are the same
    # bytes as those of every candidate kept, select_top1 and tts_at_k.
    records = [candidate(iid, j, resolved, patch=score).to_record() for iid, j, score, resolved in lines]
    verifier = PatchScore()
    groups, rejections = {}, []
    for line_no, record in enumerate(records, start=1):
        try:
            add_rollout(groups, record, verifier)
        except RecordRejected as exc:
            rejections.append({"line_no": line_no, "codes": list(exc.codes), "message": str(exc)})
    reference, expected_rejections = fold_reference(records, verifier)
    assert dumps_record({"r": rejections}) == dumps_record({"r": expected_rejections})

    expected_failure = rankable_reference(reference, "rollouts.jsonl")
    if expected_failure is not None:
        with pytest.raises(ValidationFailure) as failed:
            check_rankable(groups, "rollouts.jsonl")
        assert dumps_record({"error": str(failed.value), "entries": failed.value.rejections}) == dumps_record(
            {"error": expected_failure[0], "entries": expected_failure[1]})
        return
    check_rankable(groups, "rollouts.jsonl")
    selection, metrics = best_of_k(groups)
    pairs = []
    expected_selection = []
    for iid in sorted(reference):
        kept = [reference[iid][j] for j in sorted(reference[iid])]
        cands, cand_scores = [c for c, _ in kept], [s for _, s in kept]
        chosen = select_top1(cands, cand_scores)
        score = cand_scores[cands.index(chosen)]
        expected_selection.append({"instance_id": iid, "selected_rollout_index": chosen.rollout_index,
                                   "score": score.score, "provenance": score.provenance,
                                   "resolved": chosen.resolved})
        pairs.append((cands, cand_scores))
    assert [dumps_record(line) for line in selection] == [dumps_record(line) for line in expected_selection]
    expected_metrics = {"k": len(pairs[0][0]), "instances": len(pairs), **tts_at_k(pairs)}
    assert dumps_record(metrics) == dumps_record(expected_metrics)


# ---------------------------------------------------------------------------
# Latency model


def test_latency_reference_points():
    model = LatencyModel(c=1.0, alpha=1.5, beta=0.5)
    assert latency(model, 1, 1) == pytest.approx(1.0)
    assert latency(model, 4, 1) == pytest.approx(8.0)
    assert latency(model, 4, 4) == pytest.approx(16.0)


def test_latency_strictly_monotone():
    rng = random.Random(77)
    for _ in range(100):
        model = LatencyModel(
            c=rng.uniform(0.1, 5.0),
            alpha=rng.uniform(1.01, 2.0),
            beta=rng.uniform(0.05, 0.95),
        )
        turns = rng.randrange(1, 200)
        rollouts = rng.randrange(1, 64)
        base = latency(model, turns, rollouts)
        assert latency(model, turns + 1, rollouts) > base
        assert latency(model, turns, rollouts + 1) > base


def test_exponent_ranges_enforced():
    with pytest.raises(ValueError):
        LatencyModel(alpha=1.0)  # must be super-linear
    with pytest.raises(ValueError):
        LatencyModel(alpha=2.5)
    with pytest.raises(ValueError):
        LatencyModel(beta=1.0)  # must be sub-linear
    with pytest.raises(ValueError):
        LatencyModel(beta=0.0)
    with pytest.raises(ValueError):
        LatencyModel(c=0.0)
    LatencyModel(alpha=2.0, beta=0.5)  # boundary alpha=2 allowed


# ---------------------------------------------------------------------------
# Allocation


def brute_force_allocate(model, budget, surface):
    best = None
    for (turns, rollouts), rate in surface.items():
        cost = latency(model, turns, rollouts)
        if cost > budget:
            continue
        if best is None:
            best = (turns, rollouts, cost, rate)
            continue
        _, best_k, best_cost, best_rate = best
        if rate > best_rate or (
            rate == best_rate and (cost < best_cost or (cost == best_cost and rollouts < best_k))
        ):
            best = (turns, rollouts, cost, rate)
    return best


def test_budget_below_cheapest_point_is_infeasible():
    model = LatencyModel()
    surface = {(10, 1): 0.2, (20, 1): 0.3}
    with pytest.raises(InfeasibleBudgetError):
        allocate(model, 1.0, surface)


def test_allocate_matches_brute_force_on_random_surfaces():
    rng = random.Random(2718)
    for _ in range(50):
        model = LatencyModel(
            c=rng.uniform(0.5, 2.0),
            alpha=rng.uniform(1.1, 2.0),
            beta=rng.uniform(0.2, 0.9),
        )
        turn_grid = sorted(rng.sample(range(10, 200), rng.randrange(3, 7)))
        k_grid = sorted(rng.sample(range(1, 32), rng.randrange(2, 6)))
        surface = {
            (t, k): round(rng.random(), 3) for t in turn_grid for k in k_grid
        }
        budget = latency(model, max(turn_grid), max(k_grid)) * rng.uniform(0.2, 1.1)
        expected = brute_force_allocate(model, budget, surface)
        if expected is None:
            with pytest.raises(InfeasibleBudgetError):
                allocate(model, budget, surface)
            continue
        plan, _ = allocate(model, budget, surface)
        assert (plan.turns, plan.rollouts) == expected[:2]
        assert plan.predicted_latency == pytest.approx(expected[2])
        assert plan.predicted_rate == pytest.approx(expected[3])


def saturating_surface():
    # Resolve rate saturates beyond 140 turns; extra rollouts always help.
    surface = {}
    base = {40: 0.30, 80: 0.38, 120: 0.41, 140: 0.43, 180: 0.43, 220: 0.43}
    for turns, rate in base.items():
        for k in (1, 2, 4, 8, 16, 32):
            surface[(turns, k)] = rate + 0.02 * math.log2(k)
    return surface


def test_saturated_surface_moves_plan_along_k_only():
    model = LatencyModel()
    surface = saturating_surface()
    plans = []
    for budget in (5000, 7000, 9500, 20000):
        plan, _ = allocate(model, budget, surface)
        plans.append(plan)
    turns_chosen = [p.turns for p in plans]
    rollouts_chosen = [p.rollouts for p in plans]
    # Turns pin at the saturation point; the budget buys rollouts instead.
    assert set(turns_chosen) == {140}
    assert rollouts_chosen == sorted(rollouts_chosen)
    assert rollouts_chosen[-1] > rollouts_chosen[0]


def test_contour_satisfies_the_latency_equation():
    model = LatencyModel()
    budget = 1000.0
    contour = iso_latency_contour(model, budget, [20, 40, 80, 160])
    ks = [k for _, k in contour]
    assert ks == sorted(ks, reverse=True)
    for turns, k in contour:
        assert model.c * turns**model.alpha * k**model.beta == pytest.approx(budget, rel=1e-9)


def test_a_point_too_large_for_a_float_fits_no_budget():
    # The power overflows a float: latency is infinite rather than an
    # OverflowError, so the point is never chosen and its contour K is 0.
    model = LatencyModel()
    huge = 10**400
    assert latency(model, huge, 1) == latency(model, 2, huge) == latency(model, 10**250, 1) == math.inf
    plan, contour = allocate(model, 100.0, {(huge, 1): 1.0, (4, 2): 0.5})
    assert (plan.turns, plan.rollouts) == (4, 2)
    assert contour[-1] == (huge, 0.0)
    with pytest.raises(InfeasibleBudgetError):
        allocate(model, 100.0, {(huge, 1): 1.0})


def test_a_contour_k_past_the_float_range_is_infinite():
    # budget / latency(T, 1) fits a float but its power 1 / beta does not:
    # the K is infinite rather than an OverflowError.
    model = LatencyModel()
    assert iso_latency_contour(model, 1e308, [1, 4]) == ((1, math.inf), (4, math.inf))
    plan, contour = allocate(model, 1e308, {(4, 2): 0.5})
    assert (plan.turns, plan.rollouts) == (4, 2) and contour == ((4, math.inf),)


# ---------------------------------------------------------------------------
# Verifiers and wire format


def test_stub_verifier_deterministic_and_seeded():
    cand = candidate("i", 0, False, patch="some patch text")
    first = StubVerifier(seed=0).score(cand)
    second = StubVerifier(seed=0).score(cand)
    other_seed = StubVerifier(seed=1).score(cand)
    assert first == second
    assert 0.0 <= first.score <= 1.0
    assert first.provenance == "stub"
    assert other_seed.score != first.score


def test_oracle_verifier_reads_ground_truth():
    assert OracleVerifier().score(candidate("i", 0, True)).score == 1.0
    assert OracleVerifier().score(candidate("i", 0, False)).score == 0.0


def test_wire_round_trip_generative_and_regressive():
    cand = candidate("inst-9", 3, False)
    request = json.loads(encode_score_request(cand))
    assert request == {
        "instance_id": "inst-9",
        "rollout_index": 3,
        "trajectory_summary": cand.trajectory_summary,
        "final_patch": cand.final_patch,
    }
    generative = decode_score_response('{"p_yes": 0.06, "p_no": 0.02}')
    assert generative.provenance == "generative"
    assert generative.score == pytest.approx(0.75, abs=1e-12)
    regressive = decode_score_response('{"score": 0.4}')
    assert regressive.provenance == "regressive"
    assert regressive.score == pytest.approx(0.4)


def test_line_delimited_verifier_uses_transport():
    def transport(line):
        request = json.loads(line)
        yes = 0.9 if "good" in request["final_patch"] else 0.1
        return json.dumps({"p_yes": yes, "p_no": 1 - yes})

    verifier = LineDelimitedVerifier(transport)
    assert verifier.score(candidate("i", 0, True, patch="good patch")).score == pytest.approx(0.9)
    assert verifier.score(candidate("i", 1, False, patch="bad patch")).score == pytest.approx(0.1)


@pytest.mark.parametrize("parse, line", [
    (surface_point, {"turns": 40, "rollouts": 2, "rate": 0.33}),
    (Candidate.from_record, candidate("i", 0, True).to_record()),
], ids=["surface_point", "Candidate.from_record"])
def test_line_parsers_refuse_bad_fields(parse, line):
    # A field of the wrong type is refused, never cast: no bool where an
    # integer belongs, no NaN rate.
    assert_refuses_bad_fields(parse, line)
