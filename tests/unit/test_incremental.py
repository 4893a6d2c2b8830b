"""Procedure fingerprints and incremental re-analysis.

Pins the two properties the warm analysis service rests on: fingerprints
cover exactly the dependency cone (editing a procedure changes its own and
its transitive callers' fingerprints, nobody else's), and the incremental
analyzer re-runs exactly the changed cone while producing verdicts
identical to a cold :func:`analyze_program`.
"""

from repro.core import (
    ChoraOptions,
    IncrementalAnalyzer,
    analyze_program,
    check_assertions,
)
from repro.lang import parse_program, procedure_fingerprints, fingerprint_cone

#: A three-level call chain plus a procedure off to the side: editing ``mid``
#: must invalidate {mid, main} and nothing else.
CHAIN = """
int side(int n) { assume(n >= 0); return n; }
int leaf(int n) { assume(n >= 0); return n + 1; }
int mid(int n) { assume(n >= 0); return leaf(n) + 1; }
int main(int n) { assume(n >= 0); int r = mid(n); assert(r >= 2); return r; }
"""

CHAIN_EDITED = CHAIN.replace("return leaf(n) + 1;", "return leaf(n) + 2;")

MUTUAL = """
int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }
int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }
int main(int n) { assume(n >= 0); return even(n); }
"""


class TestProcedureFingerprints:
    def test_stable_across_parses(self):
        first = procedure_fingerprints(parse_program(CHAIN))
        second = procedure_fingerprints(parse_program(CHAIN))
        assert first == second

    def test_whitespace_and_comments_do_not_matter(self):
        noisy = CHAIN.replace("return n + 1;", "return  n+1 ;  // comment\n")
        assert procedure_fingerprints(parse_program(noisy)) == procedure_fingerprints(
            parse_program(CHAIN)
        )

    def test_edit_changes_exactly_the_caller_cone(self):
        before = procedure_fingerprints(parse_program(CHAIN))
        after = procedure_fingerprints(parse_program(CHAIN_EDITED))
        changed = {name for name in after if after[name] != before.get(name)}
        assert changed == {"mid", "main"}
        changed_set, reusable = fingerprint_cone(before, after)
        assert changed_set == frozenset({"mid", "main"})
        assert reusable == frozenset({"side", "leaf"})

    def test_global_declarations_are_part_of_every_fingerprint(self):
        with_global = "int g = 1;\n" + CHAIN
        plain = procedure_fingerprints(parse_program(CHAIN))
        augmented = procedure_fingerprints(parse_program(with_global))
        assert all(augmented[name] != plain[name] for name in plain)

    def test_mutual_recursion_shares_component_material(self):
        prints = procedure_fingerprints(parse_program(MUTUAL))
        edited = procedure_fingerprints(
            parse_program(MUTUAL.replace("return odd(n - 1);", "return odd(n - 2);"))
        )
        # Editing one member of the SCC invalidates both members + callers.
        assert edited["even"] != prints["even"]
        assert edited["odd"] != prints["odd"]
        assert edited["main"] != prints["main"]

    def test_distinct_procedures_have_distinct_fingerprints(self):
        prints = procedure_fingerprints(parse_program(CHAIN))
        assert len(set(prints.values())) == len(prints)


class TestIncrementalAnalyzer:
    def test_repeated_program_is_fully_spliced(self):
        analyzer = IncrementalAnalyzer()
        analyzer.analyze(parse_program(CHAIN))
        assert set(analyzer.last_report.analyzed) == {"side", "leaf", "mid", "main"}
        analyzer.analyze(parse_program(CHAIN))
        assert analyzer.last_report.analyzed == ()
        assert set(analyzer.last_report.reused) == {"side", "leaf", "mid", "main"}

    def test_edit_reruns_only_the_dependency_cone(self):
        analyzer = IncrementalAnalyzer()
        analyzer.analyze(parse_program(CHAIN))
        analyzer.analyze(parse_program(CHAIN_EDITED))
        assert set(analyzer.last_report.analyzed) == {"mid", "main"}
        assert set(analyzer.last_report.reused) == {"side", "leaf"}

    def test_incremental_verdicts_match_cold_analysis(self):
        options = ChoraOptions()
        analyzer = IncrementalAnalyzer()
        analyzer.analyze(parse_program(CHAIN), options)
        warm = analyzer.analyze(parse_program(CHAIN_EDITED), options)
        cold = analyze_program(parse_program(CHAIN_EDITED), options)
        warm_outcomes = [
            (o.site.procedure, o.site.text, o.proved)
            for o in check_assertions(warm, options.abstraction)
        ]
        cold_outcomes = [
            (o.site.procedure, o.site.text, o.proved)
            for o in check_assertions(cold, options.abstraction)
        ]
        assert warm_outcomes == cold_outcomes

    def test_summaries_cover_every_procedure_when_spliced(self):
        analyzer = IncrementalAnalyzer()
        analyzer.analyze(parse_program(CHAIN))
        result = analyzer.analyze(parse_program(CHAIN))
        assert set(result.summaries) == {"side", "leaf", "mid", "main"}

    def test_options_are_part_of_the_store_key(self):
        analyzer = IncrementalAnalyzer()
        analyzer.analyze(parse_program(CHAIN), ChoraOptions())
        analyzer.analyze(parse_program(CHAIN), ChoraOptions(use_two_region=False))
        # Different options must not splice the other configuration's work.
        assert analyzer.last_report.reused == ()

    def test_store_capacity_is_bounded(self):
        analyzer = IncrementalAnalyzer(capacity=2)
        for offset in range(4):
            source = CHAIN.replace("return n + 1;", f"return n + {offset + 1};")
            analyzer.analyze(parse_program(source))
        assert analyzer.stats()["components"] <= 2


class TestKeepWarm:
    def test_keep_warm_suppresses_clearing(self):
        from repro.polyhedra.cache import clear_caches, keep_warm, register_cache

        table = register_cache("test-warmth")
        table.lookup("key", lambda: 42)
        with keep_warm():
            clear_caches()
            assert table.contains("key")
            clear_caches(force=True)
            assert not table.contains("key")
        table.lookup("key", lambda: 42)
        clear_caches()
        assert not table.contains("key")
