"""Per-rule positive/negative fixtures for the custom AST lint pass."""

from __future__ import annotations

import textwrap

from repro.analysis.linter import SYNTAX_ERROR_RULE, lint_source
from repro.analysis.rules import DEFAULT_RULES, rule_ids

SIM_PATH = "src/repro/sim/example.py"
CORE_PATH = "src/repro/core/example.py"
TEST_PATH = "tests/sim/test_example.py"
STATS_PATH = "src/repro/sim/stats.py"


def findings_for(source: str, path: str = SIM_PATH):
    return lint_source(textwrap.dedent(source), path)


def ids_for(source: str, path: str = SIM_PATH):
    return [finding.rule_id for finding in findings_for(source, path)]


class TestRuleRegistry:
    def test_at_least_six_distinct_rule_ids(self):
        ids = rule_ids()
        assert len(set(ids)) == len(ids)
        assert len(ids) >= 6

    def test_every_rule_documents_itself(self):
        for rule in DEFAULT_RULES:
            assert rule.rule_id.startswith("REP")
            assert rule.name
            assert rule.description


class TestSyntaxError:
    def test_unparseable_file_is_a_finding(self):
        findings = findings_for("def broken(:\n")
        assert [f.rule_id for f in findings] == [SYNTAX_ERROR_RULE]
        assert "syntax error" in findings[0].message


class TestStatMutation:
    def test_external_counter_value_mutation_flagged(self):
        assert "REP101" in ids_for("meter.value += 1\n")

    def test_external_assignment_flagged(self):
        assert "REP101" in ids_for("acc.total = 0.0\n")

    def test_tuple_target_flagged(self):
        assert "REP101" in ids_for("acc.minimum, x = 0.0, 1\n")

    def test_self_mutation_allowed(self):
        source = """
        class Histogram:
            def observe(self, sample: float) -> None:
                self.count += 1
                self.total += sample
        """
        assert "REP101" not in ids_for(source)

    def test_stats_module_itself_exempt(self):
        assert "REP101" not in ids_for("acc.count += 1\n", STATS_PATH)

    def test_unrelated_attributes_allowed(self):
        assert "REP101" not in ids_for("stats.l1_hits += cache.hits\n")


class TestWallClock:
    def test_time_time_flagged_in_sim(self):
        assert "REP102" in ids_for("import time\nstart = time.time()\n")

    def test_perf_counter_flagged_in_sim(self):
        assert "REP102" in ids_for("import time\nstart = time.perf_counter()\n")

    def test_datetime_now_flagged_in_sim(self):
        source = "import datetime\nstamp = datetime.datetime.now()\n"
        assert "REP102" in ids_for(source)

    def test_tests_may_read_wall_clock(self):
        assert "REP102" not in ids_for("import time\nstart = time.time()\n", TEST_PATH)

    def test_sim_clock_advance_not_flagged(self):
        assert ids_for("clock.advance_to(5.0)\n") == []


class TestUnseededRandom:
    def test_global_random_flagged(self):
        assert "REP103" in ids_for("import random\nx = random.random()\n")

    def test_global_shuffle_flagged(self):
        assert "REP103" in ids_for("import random\nrandom.shuffle(items)\n")

    def test_unseeded_default_rng_flagged(self):
        assert "REP103" in ids_for("rng = np.random.default_rng()\n")

    def test_seeded_default_rng_allowed(self):
        assert "REP103" not in ids_for("rng = np.random.default_rng(42)\n")

    def test_seed_keyword_allowed(self):
        assert "REP103" not in ids_for("rng = np.random.default_rng(seed=7)\n")

    def test_legacy_numpy_global_flagged(self):
        assert "REP103" in ids_for("noise = np.random.randn(16)\n")

    def test_unseeded_random_class_flagged(self):
        assert "REP103" in ids_for("import random\nrng = random.Random()\n")

    def test_seeded_random_class_allowed(self):
        assert "REP103" not in ids_for("import random\nrng = random.Random(3)\n")

    def test_generator_method_allowed(self):
        assert "REP103" not in ids_for("jitter = rng.random((4, 4))\n")

    def test_tests_out_of_scope(self):
        assert "REP103" not in ids_for("import random\nrandom.random()\n", TEST_PATH)


class TestExceptionHygiene:
    def test_bare_except_flagged_everywhere(self):
        source = """
        try:
            step()
        except:
            raise RuntimeError("boom")
        """
        for path in (SIM_PATH, TEST_PATH):
            assert "REP104" in ids_for(source, path)

    def test_swallowed_exception_flagged(self):
        source = """
        try:
            step()
        except ValueError:
            pass
        """
        assert "REP105" in ids_for(source)

    def test_swallowed_ellipsis_flagged(self):
        source = """
        try:
            step()
        except ValueError:
            ...
        """
        assert "REP105" in ids_for(source)

    def test_handled_exception_allowed(self):
        source = """
        try:
            step()
        except ValueError as error:
            log(error)
        """
        assert ids_for(source) == []

    def test_bare_and_swallowed_both_fire(self):
        source = """
        try:
            step()
        except:
            pass
        """
        ids = ids_for(source)
        assert "REP104" in ids and "REP105" in ids


class TestFloatEquality:
    def test_cycle_equality_flagged(self):
        assert "REP106" in ids_for("ok = frame_cycles == baseline_cycles\n")

    def test_energy_attribute_equality_flagged(self):
        assert "REP106" in ids_for("ok = breakdown.energy != expected\n")

    def test_latency_call_equality_flagged(self):
        assert "REP106" in ids_for("ok = histogram.mean_latency() == 4.0\n")

    def test_ordering_comparisons_allowed(self):
        assert "REP106" not in ids_for("ok = frame_cycles >= baseline_cycles\n")

    def test_counts_are_not_quantities(self):
        assert "REP106" not in ids_for("ok = request_count == 0\n")

    def test_tests_out_of_scope(self):
        assert "REP106" not in ids_for("assert frame_cycles == 8.0\n", TEST_PATH)


class TestPublicAnnotations:
    def test_unannotated_public_function_flagged(self):
        findings = findings_for("def lookup(address):\n    return address\n",
                                CORE_PATH)
        ids = [f.rule_id for f in findings]
        assert ids.count("REP107") == 2  # missing return + missing param

    def test_annotated_public_function_allowed(self):
        source = "def lookup(address: int) -> int:\n    return address\n"
        assert "REP107" not in ids_for(source, CORE_PATH)

    def test_private_functions_exempt(self):
        assert "REP107" not in ids_for("def _helper(x):\n    return x\n", CORE_PATH)

    def test_self_parameter_exempt(self):
        source = """
        class Cache:
            def lookup(self, address: int) -> int:
                return address
        """
        assert "REP107" not in ids_for(source, CORE_PATH)

    def test_rule_scoped_to_model_packages(self):
        source = "def lookup(address):\n    return address\n"
        assert "REP107" not in ids_for(source, SIM_PATH)

    def test_kwonly_parameters_checked(self):
        source = "def lookup(*, address) -> int:\n    return 0\n"
        assert "REP107" in ids_for(source, CORE_PATH)


class TestNoqaEscapeHatch:
    def test_noqa_suppresses_named_rule(self):
        source = (
            "import time\n"
            "start = time.time()  # repro: noqa(REP102) -- profiling only\n"
        )
        assert ids_for(source) == []

    def test_noqa_is_rule_specific(self):
        source = (
            "import time\n"
            "start = time.time()  # repro: noqa(REP103)\n"
        )
        assert "REP102" in ids_for(source)

    def test_noqa_only_covers_its_line(self):
        source = (
            "import time\n"
            "a = time.time()  # repro: noqa(REP102)\n"
            "b = time.time()\n"
        )
        findings = findings_for(source)
        assert [f.line for f in findings] == [3]

    def test_noqa_accepts_multiple_rules(self):
        source = (
            "import time, random\n"
            "x = random.random() + time.time()  "
            "# repro: noqa(REP102, REP103) -- fixture\n"
        )
        assert ids_for(source) == []


class TestMonotonicOutsideObs:
    OBS_PATH = "src/repro/obs/tracer.py"

    def test_monotonic_flagged_in_sim(self):
        assert "REP108" in ids_for("import time\nt = time.monotonic()\n")

    def test_monotonic_ns_flagged(self):
        assert "REP108" in ids_for("import time\nt = time.monotonic_ns()\n")

    def test_flagged_outside_the_package_too(self):
        source = "import time\nt = time.monotonic()\n"
        assert "REP108" in ids_for(source, TEST_PATH)

    def test_obs_module_exempt(self):
        source = "import time\nt = time.monotonic()\n"
        assert "REP108" not in ids_for(source, self.OBS_PATH)

    def test_other_time_functions_not_flagged_by_rep108(self):
        assert "REP108" not in ids_for("import time\nt = time.time()\n")

    def test_noqa_suppresses(self):
        source = (
            "import time\n"
            "t = time.monotonic()  # repro: noqa(REP108, REP102) -- fixture\n"
        )
        assert ids_for(source) == []

    def test_wall_clock_rule_exempts_obs_package(self):
        # REP102's exemption must cover repro.obs: the tracer exists to
        # read the host clocks.
        source = "import time\nt = time.time()\n"
        assert "REP102" not in ids_for(source, self.OBS_PATH)


class TestFindingFormat:
    def test_location_and_rule_in_text(self):
        findings = findings_for("meter.value += 1\n")
        assert len(findings) == 1
        text = findings[0].format()
        assert text.startswith(f"{SIM_PATH}:1:")
        assert "REP101" in text

    def test_findings_sorted_by_position(self):
        source = (
            "import time\n"
            "b = time.time()\n"
            "meter.value += 1\n"
        )
        findings = findings_for(source)
        assert [f.line for f in findings] == sorted(f.line for f in findings)


class TestBarePoolMap:
    RUNNER_PATH = "src/repro/experiments/runner.py"

    def test_pool_map_flagged(self):
        source = """
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor() as pool:
            results = list(pool.map(work, items))
        """
        assert "REP109" in ids_for(source)

    def test_pool_submit_flagged(self):
        assert "REP109" in ids_for("future = pool.submit(work, item)\n")

    def test_executor_receiver_flagged(self):
        assert "REP109" in ids_for("executor.map(work, items)\n")

    def test_direct_constructor_call_flagged(self):
        source = "ProcessPoolExecutor(max_workers=2).submit(work, item)\n"
        assert "REP109" in ids_for(source)

    def test_flagged_in_tests_too(self):
        assert "REP109" in ids_for("pool.map(work, items)\n", TEST_PATH)

    def test_runner_module_exempt(self):
        # run_many is the one fan-out site: only its module may talk to
        # a raw executor, and its sibling modules may not.
        source = "future = pool.submit(work, item)\n"
        assert "REP109" not in ids_for(source, self.RUNNER_PATH)
        sibling = "src/repro/experiments/report.py"
        assert "REP109" in ids_for(source, sibling)

    def test_run_many_not_flagged(self):
        source = "results = runner.run_many(keys, jobs=4)\n"
        assert "REP109" not in ids_for(source)

    def test_unrelated_map_not_flagged(self):
        assert "REP109" not in ids_for("out = mapping.map(fn, xs)\n")
        assert "REP109" not in ids_for("out = map(fn, xs)\n")


class TestTimingExemptionsNarrowToObs:
    OBS_PATH = "src/repro/obs/tracer.py"
    RUNNER_PATH = "src/repro/experiments/runner.py"

    def test_monotonic_allowed_only_in_obs(self):
        # REP102 and REP108 exempt repro.obs alone; the module that
        # owns the process pool gets no timing exemption.
        source = "import time\nt = time.monotonic()\n"
        assert "REP108" not in ids_for(source, self.OBS_PATH)
        assert "REP102" not in ids_for(source, self.OBS_PATH)
        assert "REP108" in ids_for(source, self.RUNNER_PATH)
        assert "REP102" in ids_for(source, self.RUNNER_PATH)
