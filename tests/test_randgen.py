"""Random instance generator: determinism, structure, solvability labels."""

import re

import pytest

from prefhtn.errors import CapExceeded
from prefhtn.oracle import EnumerationCaps, enumerate_all
from prefhtn.randgen import (DEFAULT_CONSTRUCTS, QUANTIFIERS, GenConfig,
                             gen_files, gen_instance)


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_same_seed_same_texts(self, seed):
        a = gen_files(GenConfig(seed=seed))
        b = gen_files(GenConfig(seed=seed))
        assert a.domain_text == b.domain_text
        assert a.problem_text == b.problem_text
        assert a.preference_text == b.preference_text
        assert a.expected_solvable == b.expected_solvable

    def test_different_seeds_differ(self):
        texts = {gen_files(GenConfig(seed=s)).domain_text for s in range(8)}
        assert len(texts) > 1


class TestStructure:
    def test_depth_one_bodies_are_primitive(self):
        inst = gen_files(GenConfig(seed=3, max_depth=1))
        for method in inst.problem.domain.methods:
            assert all(st.primitive for st in method.subtasks)

    def test_emitted_text_round_trips(self):
        # gen_files builds the instance from its own emitted text, so the
        # parsed problem must agree with an independent re-parse
        from prefhtn.parser import parse_domain, parse_preference, parse_problem
        inst = gen_files(GenConfig(seed=11))
        dom = parse_domain(inst.domain_text, "<d>")
        prob = parse_problem(inst.problem_text, dom, "<p>")
        prob.preference = parse_preference(inst.preference_text, dom, "<f>")
        assert prob.init == inst.problem.init
        assert prob.network == inst.problem.network
        assert prob.preference == inst.problem.preference

    def test_config_validation(self):
        with pytest.raises(AssertionError):
            GenConfig(num_operators=0)
        with pytest.raises(AssertionError):
            GenConfig(max_depth=0)


class TestSolvabilityLabel:
    def test_labels_match_oracle_over_seeds(self):
        caps = EnumerationCaps(max_plans=50_000, max_seconds=120.0)
        for seed in range(30):
            problem, expected = gen_instance(GenConfig(seed=seed))
            try:
                count = enumerate_all(problem, caps).plan_count
            except CapExceeded as exc:
                count = exc.partial.plan_count  # cap hit => plans exist
            assert (count > 0) == expected, f"seed {seed}"

    def test_both_labels_occur(self):
        labels = {gen_instance(GenConfig(seed=s, unsolvable_rate=0.3))[1]
                  for s in range(20)}
        assert labels == {True, False}


class TestQuantifiers:
    def test_default_palette_has_none(self):
        assert DEFAULT_CONSTRUCTS.isdisjoint(QUANTIFIERS)
        for seed in range(30):
            inst = gen_files(GenConfig(seed=seed))
            assert "?" not in inst.domain_text + inst.preference_text

    def test_variables_reach_literals_and_operator_refs(self):
        # every operator takes ?x and every call binds it to a constant; a
        # quantifier's variable stands in literals and operator references
        constructs = DEFAULT_CONSTRUCTS | set(QUANTIFIERS)
        texts = []
        for seed in range(100):
            inst = gen_files(GenConfig(seed=seed, constructs=constructs))
            domain = inst.problem.domain
            assert all(op.params == ("?x",)
                       for op in domain.operators.values())
            calls = [t for m in domain.methods for t in m.subtasks
                     if t.primitive]
            assert all(re.fullmatch(r"c\d", " ".join(t.args)) for t in calls)
            texts.append(inst.preference_text)
        text = "\n".join(texts)
        assert len(re.findall(r"\((forall|exists) \(\?v0\)", text)) > 30
        assert re.search(r"\(p\d \?v\d\)", text)
        assert re.search(r"\(!op\d \?v\d\)", text)
        assert re.search(r"\((forall|exists) \(\?v1\)", text)  # nested
