"""Per-rule fixture tests: every rule flags its seeded violation and
stays quiet on the compliant twin.

The fixtures are inline source strings (not files on disk), so the
repo-level lint run — which must be clean — never sees them.
"""

import textwrap

from repro.analysis import LintConfig, lint_source

STORE_PATH = "src/repro/cache/store.py"


def rule_ids(source: str, path: str = "src/repro/example.py", config=None):
    findings, _ = lint_source(textwrap.dedent(source), path, config or LintConfig())
    return [finding.rule_id for finding in findings]


# ----------------------------------------------------------------------
# RL001 — lock discipline
# ----------------------------------------------------------------------
class TestLockDiscipline:
    def test_flags_unlocked_store_mutation(self):
        source = """
        def prune(path):
            path.unlink()
        """
        assert rule_ids(source, path=STORE_PATH) == ["RL001"]

    def test_quiet_under_the_store_lock(self):
        source = """
        class GraphStore:
            def prune(self, path):
                with self._lock.held():
                    path.unlink()
        """
        assert rule_ids(source, path=STORE_PATH) == []

    def test_nested_statements_inherit_the_lock(self):
        source = """
        class GraphStore:
            def prune(self, paths):
                with self._lock.held():
                    for path in paths:
                        if path.exists():
                            path.unlink()
        """
        assert rule_ids(source, path=STORE_PATH) == []

    def test_non_lock_context_manager_does_not_count(self):
        source = """
        def rewrite(path):
            with open(path) as handle:
                path.write_text(handle.read())
        """
        assert rule_ids(source, path=STORE_PATH) == ["RL001"]

    def test_defaults_cover_the_segment_layer(self):
        # no [tool.repro-lint] block needed: the defaults alone hold the
        # segment module and its mutating calls
        source = """
        def write(segment, records):
            segment.append_records(records)
        """
        assert rule_ids(source, path="src/repro/cache/blockstore.py") == ["RL001"]

    def test_only_store_modules_are_in_scope(self):
        # the same unlocked unlink outside a store module is fine — tmp
        # files, test scaffolding, and atomic single-file writers abound
        source = """
        def cleanup(path):
            path.unlink()
        """
        assert rule_ids(source, path="src/repro/logs/loader.py") == []


# ----------------------------------------------------------------------
# RL002 — salted-hash hygiene
# ----------------------------------------------------------------------
class TestSaltedHashHygiene:
    def test_flags_salted_attribute_in_serialize_sink(self):
        source = """
        import json

        def save(node, handle):
            json.dump({"fp": node.fingerprint}, handle)
        """
        assert rule_ids(source) == ["RL002"]

    def test_flags_tainted_name_flow(self):
        source = """
        import json

        def save(node, handle):
            key = node.skeleton
            json.dump({"key": key}, handle)
        """
        assert rule_ids(source) == ["RL002"]

    def test_flags_return_from_to_dict(self):
        source = """
        def node_to_dict(node):
            return {"fingerprint": node.fingerprint}
        """
        assert rule_ids(source) == ["RL002"]

    def test_flags_return_from_getstate(self):
        source = """
        class Node:
            def __getstate__(self):
                return {"skeleton": self.skeleton}
        """
        assert rule_ids(source) == ["RL002"]

    def test_quiet_on_in_memory_use(self):
        # fingerprints as in-process dict keys are exactly what they are
        # for; only persistence is the violation
        source = """
        class Interner:
            def index_of(self, node):
                return self._by_fingerprint.get(node.fingerprint)
        """
        assert rule_ids(source) == []

    def test_quiet_on_stable_digest(self):
        source = """
        import json

        def save(node, handle):
            json.dump({"fp": stable_fingerprint(node)}, handle)
        """
        assert rule_ids(source) == []


# ----------------------------------------------------------------------
# RL003 — frozen-result immutability
# ----------------------------------------------------------------------
class TestFrozenResultImmutability:
    def test_flags_setattr_escape_hatch_outside_init(self):
        source = """
        class GenerationResult:
            def redact(self):
                object.__setattr__(self, "provenance", {})
        """
        assert rule_ids(source) == ["RL003"]

    def test_flags_mutation_of_annotated_parameter(self):
        source = """
        def publish(result: GenerationResult):
            result.provenance = {}
        """
        assert rule_ids(source) == ["RL003"]

    def test_flags_mutation_of_constructor_binding(self):
        source = """
        def build():
            run = PipelineRun()
            run.n_widgets = 3
            return run
        """
        assert rule_ids(source) == ["RL003"]

    def test_quiet_in_post_init(self):
        source = """
        class StageReport:
            def __post_init__(self):
                object.__setattr__(self, "stats", dict(self.stats))
        """
        assert rule_ids(source) == []

    def test_quiet_on_unrelated_classes(self):
        source = """
        def build(state: PipelineState):
            state.widgets = []
            return state
        """
        assert rule_ids(source) == []


# ----------------------------------------------------------------------
# RL005 — stage purity
# ----------------------------------------------------------------------
class TestStagePurity:
    def test_flags_module_state_mutation(self):
        source = """
        SEEN = {}

        class BadStage(Stage):
            def run(self, state):
                SEEN[state.source] = True
                return state
        """
        assert rule_ids(source) == ["RL005"]

    def test_flags_mutator_call_on_module_binding(self):
        source = """
        RESULTS = []

        class BadStage(Stage):
            def run(self, state):
                RESULTS.append(state)
                return state
        """
        assert rule_ids(source) == ["RL005"]

    def test_flags_global_rebinding(self):
        source = """
        class BadStage(Stage):
            def run(self, state):
                global COUNT
                COUNT = 1
                return state
        """
        assert rule_ids(source) == ["RL005"]

    def test_flags_bare_return(self):
        source = """
        class BadStage(Stage):
            def run(self, state):
                if not state.queries:
                    return
                return state
        """
        assert rule_ids(source) == ["RL005"]

    def test_flags_missing_return(self):
        source = """
        class BadStage(Stage):
            def run(self, state):
                state.record("noop")
        """
        assert rule_ids(source) == ["RL005"]

    def test_quiet_on_compliant_stage(self):
        source = """
        class GoodStage(Stage):
            def run(self, state):
                counts = {}
                counts["n"] = len(state.queries)
                state.record("good", **counts)
                return state
        """
        assert rule_ids(source) == []

    def test_quiet_on_raising_base(self):
        source = """
        class AbstractStage(Stage):
            def run(self, state):
                raise NotImplementedError
        """
        assert rule_ids(source) == []

    def test_non_stage_classes_are_out_of_scope(self):
        source = """
        SEEN = {}

        class Collector:
            def run(self, state):
                SEEN[state.source] = True
        """
        assert rule_ids(source) == []


# ----------------------------------------------------------------------
# RL006 — compiled-artifact hygiene
# ----------------------------------------------------------------------
COMPILER_PATH = "src/repro/compiler/incremental.py"


class TestCompiledArtifactHygiene:
    def test_flags_salted_node_read_in_to_state(self):
        source = """
        def page_to_state(page, query):
            return {"fp": query.fingerprint, "blocks": page.blocks}
        """
        assert rule_ids(source, path=COMPILER_PATH) == ["RL006"]

    def test_flags_tainted_name_flow_into_make_patch(self):
        source = """
        def make_patch(before, after, node):
            key = node.skeleton
            return {"base": key}
        """
        assert rule_ids(source, path=COMPILER_PATH) == ["RL006"]

    def test_flags_nested_node_receiver(self):
        source = """
        def to_state(self, interface):
            return {"q0": interface.initial_query.fingerprint}
        """
        assert rule_ids(source, path=COMPILER_PATH) == ["RL006"]

    def test_quiet_on_stable_compiled_fingerprints(self):
        # CompiledPage.fingerprint / WidgetArtifact.fingerprint hold the
        # process-stable sha256 digest; the attribute *name* alone is not
        # the violation
        source = """
        def to_state(self):
            return {"fingerprint": self.fingerprint}

        def make_patch(before, after):
            return {"base": before.fingerprint, "fingerprint": after.fingerprint}
        """
        assert rule_ids(source, path=COMPILER_PATH) == []

    def test_quiet_on_in_memory_proof_keys(self):
        # salted hashes as in-process memo keys are fine; only the
        # persisted payload builders are sinks
        source = """
        def render_combo(self, interface, query):
            proof_key = (interface.initial_query.fingerprint, query.fingerprint)
            return self._results[proof_key]
        """
        assert rule_ids(source, path=COMPILER_PATH) == []

    def test_only_compiler_modules_are_in_scope(self):
        source = """
        def to_state(query):
            return {"fp": query.fingerprint}
        """
        assert rule_ids(source, path="src/repro/api/session.py") == []


# ----------------------------------------------------------------------
# configuration reaches the rules
# ----------------------------------------------------------------------
def test_vocabulary_comes_from_the_config():
    config = LintConfig(
        store_modules=("*myapp/db.py",), store_mutating_calls=("wipe",)
    )
    source = """
    def clear(table):
        table.wipe()
    """
    assert rule_ids(source, path="src/myapp/db.py", config=config) == ["RL001"]
    assert rule_ids(source, path=STORE_PATH, config=config) == []
