"""Incremental compiler tests: byte-parity with the one-shot compiler,
artifact reuse, and the patch wire format.

The acceptance bar for the incremental refactor is *byte identity*: at
every append, folding the session's patch stream must render exactly the
page the reference compile (``tests/oracle.py``, blocks from scratch and
the product walk over results) produces, on every bundled log family.
What the page's composer answers is tested in ``test_composer.py``.
"""

import json
from itertools import islice, product
from pathlib import Path as FilePath

import pytest

from tests import oracle
from tests.core.test_merge_incremental import ALL_FAMILIES, _family_log
from tests.helpers import generate_iface
from repro.api import InterfaceSession
from repro.compiler import Database, Table, compile_html
from repro.compiler.incremental import (
    PATCH_VERSION,
    IncrementalCompiler,
    apply_patch,
    make_patch,
    page_html,
    widget_fingerprint,
)
from repro.errors import CompileError, LogError
from repro.logs import LISTING_6

GOLDEN = FilePath(__file__).parent / "golden_listing6.html"


@pytest.fixture
def interface():
    return generate_iface(list(LISTING_6))


# ----------------------------------------------------------------------
# golden page
# ----------------------------------------------------------------------
class TestGoldenPage:
    def test_listing6_page_matches_golden_file(self, interface):
        """The committed golden page pins the full output format — template,
        composer, widget blocks and their composer data, q0's tree — so
        any unintended byte change in either compiler path fails loudly.
        Regenerate deliberately by writing
        ``compile_html(generate_iface(list(LISTING_6)), title="Listing 6")``
        over the golden file."""
        page = compile_html(interface, title="Listing 6")
        assert page == GOLDEN.read_text(encoding="utf-8")
        assert oracle.compile_html(interface, title="Listing 6") == page

    def test_incremental_compiler_matches_golden_file(self, interface):
        compiler = IncrementalCompiler(title="Listing 6")
        page = compiler.compile(interface)
        assert page.html() == GOLDEN.read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# toggle buttons render as real checkboxes (the once-dead branch)
# ----------------------------------------------------------------------
class TestToggleCheckbox:
    def test_toggle_widget_renders_checkbox_control(self, interface):
        # LISTING_6 mines a slider and a presence toggle (Toggle TOP)
        names = [w.widget_type.name for w in interface.widgets]
        assert "toggle_button" in names
        page = compile_html(interface)
        assert 'type="checkbox"' in page
        # the checked state selects the subtree's choice index, recorded
        # in data-on for the page script
        assert 'data-on="' in page

    def test_checkbox_on_index_points_at_the_subtree_choice(self, interface):
        from repro.compiler.html import _checkbox_on_index, build_choice_list

        toggle = next(
            w for w in interface.widgets if w.widget_type.name == "toggle_button"
        )
        choices = build_choice_list(toggle)
        on_index = _checkbox_on_index(toggle, choices)
        assert on_index is not None
        assert choices[on_index] is not None  # a real subtree, not (none)
        assert not isinstance(choices[on_index], str)


# ----------------------------------------------------------------------
# patch-apply parity at every append, all bundled families
# ----------------------------------------------------------------------
class TestPatchParity:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_patch_stream_equals_full_recompile_at_every_append(self, family):
        asts = _family_log(family)
        session = InterfaceSession()
        state = None
        step = max(1, len(asts) // 5)
        for start in range(0, len(asts), step):
            result = session.append(asts[start : start + step])
            patch = session.compile_patch(limit=200)
            state = apply_patch(state, patch)
            assert page_html(state) == oracle.compile_html(
                result.interface, limit=200
            )

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_patch_stream_with_a_database_equals_full_recompile(self, family):
        """With a database the patches also carry the results delta
        (``closure_set``/``closure_del``, keyed by SQL text)."""
        asts = _family_log(family)
        db = TestClosureSlices._database()
        session = InterfaceSession()
        state = None
        step = max(1, len(asts) // 5)
        for start in range(0, len(asts), step):
            result = session.append(asts[start : start + step])
            patch = session.compile_patch(database=db, limit=200)
            state = apply_patch(state, patch)
            assert page_html(state) == oracle.compile_html(
                result.interface, database=db, limit=200
            )
        assert state["closure"]

    def test_compile_is_byte_identical_to_compile_html(self):
        asts = _family_log("onehot")
        session = InterfaceSession()
        for start in range(0, len(asts), 12):
            result = session.append(asts[start : start + 12])
            page = session.compile(limit=200)
            assert page == compile_html(result.interface, limit=200)
            assert page == oracle.compile_html(result.interface, limit=200)

    def test_noop_append_emits_an_empty_patch(self):
        asts = _family_log("onehot")
        session = InterfaceSession()
        session.append(asts[:20])
        session.compile_patch(limit=200)
        # re-compiling the unchanged interface patches nothing
        patch = session.compile_patch(limit=200)
        assert patch["kind"] == "patch"
        assert patch["blocks"] == {}
        assert patch["closure_set"] == {}
        assert patch["closure_del"] == []
        assert session._compiler.stats.pages_reused >= 1


# ----------------------------------------------------------------------
# per-widget artifacts
# ----------------------------------------------------------------------
class TestWidgetArtifacts:
    def test_clean_widget_artifacts_are_byte_stable_across_appends(self):
        """On the one-hot workload the nested f-subtree widgets stay
        clean: their artifacts must be reused (same object, same bytes),
        and only the hot widget re-renders."""
        asts = _family_log("onehot")
        session = InterfaceSession()
        session.append(asts[:14])
        session.compile(limit=200)
        compiler = session._compiler
        snapshot = {
            key: (art.fingerprint, art.kind, art.body)
            for key, art in compiler._artifacts.items()
        }
        rendered_before = compiler.stats.widgets_rendered
        session.append(asts[14:30])
        session.compile(limit=200)
        assert compiler.stats.widgets_reused > 0
        for key, (fingerprint, kind, body) in snapshot.items():
            art = compiler._artifacts[key]
            if art.fingerprint == fingerprint:
                # unchanged content hash => byte-identical rendering
                assert (art.kind, art.body) == (kind, body)
        # not everything re-rendered
        n_rendered = compiler.stats.widgets_rendered - rendered_before
        assert n_rendered < len(compiler._artifacts)

    def test_widget_fingerprint_is_content_addressed(self, interface):
        widgets = list(interface.widgets)
        fps = [widget_fingerprint(w) for w in widgets]
        assert len(set(fps)) == len(fps)
        # deterministic across calls (no process salt)
        assert fps == [widget_fingerprint(w) for w in widgets]


# ----------------------------------------------------------------------
# pre-evaluated results with a database
# ----------------------------------------------------------------------
class TestClosureSlices:
    @staticmethod
    def _database():
        db = Database()
        db.add(Table("t", ["a", "b", "x", "y", "z", "g", "m"], [(1, 2, 0, 1, 5, 7, 3)]))
        return db

    def test_parity_with_database(self):
        asts = _family_log("onehot")[:30]
        db = self._database()
        session = InterfaceSession()
        for start in range(0, len(asts), 10):
            result = session.append(asts[start : start + 10])
            incremental = session.compile(database=db, limit=120)
            assert incremental == oracle.compile_html(
                result.interface, database=db, limit=120
            )

    def test_clean_combinations_replay_instead_of_executing(self):
        asts = _family_log("onehot")
        db = self._database()
        session = InterfaceSession()
        session.append(asts[:14])
        session.compile(database=db, limit=150)
        compiler = session._compiler
        session.append(asts[14:24])
        executions_before = compiler.stats.executions
        replayed_before = compiler.stats.executions_replayed
        session.compile(database=db, limit=150)
        assert compiler.stats.executions_replayed > replayed_before
        # replayed results did not hit the database again
        n_executed = compiler.stats.executions - executions_before
        assert n_executed < len(compiler.page.closure)

    @pytest.mark.parametrize(
        "family, first, total", [("onehot", 14, 24), ("olap", 53, 80)]
    )
    def test_only_sql_new_to_the_page_executes(self, family, first, total):
        """Results replay by SQL text alone: a compile executes exactly
        the SQL texts the previous page did not hold (0 and 5 here, where
        a memo gated on closure proofs ran 5 and 25)."""
        asts = _family_log(family)
        db = self._database()
        session = InterfaceSession()
        session.append(asts[:first])
        session.compile(database=db, limit=150)
        compiler = session._compiler
        held = set(compiler.page.closure)
        session.append(asts[first:total])
        executions_before = compiler.stats.executions
        session.compile(database=db, limit=150)
        shown = set(compiler.page.closure)
        assert compiler.stats.executions - executions_before == len(shown - held)

    def test_each_sql_text_is_pre_evaluated_once(self):
        """Results are keyed by SQL text: the first 150 combinations of
        this one-hot page all compose ``SELECT g, SUM(m) FROM t GROUP BY
        g`` (the root toggle comes first and leaves q0, whose tree lacks
        the other widgets' paths), so the page holds one result, not 150
        copies of it."""
        asts = _family_log("onehot")[:14]
        db = self._database()
        session = InterfaceSession()
        result = session.append(asts)
        session.compile(database=db, limit=150)
        page = session._compiler.page
        ordered, choice_lists = oracle.page_widgets(result.interface)
        combos = product(*(range(len(choices)) for choices in choice_lists))
        distinct = {
            oracle.compose_sql(result.interface, ordered, choice_lists, combo)
            for combo in islice(combos, 150)
        }
        assert distinct == {"SELECT g, SUM(m) FROM t GROUP BY g"}
        assert len(page.closure) == len(distinct)
        assert set(page.closure) == distinct

    def test_database_switch_recreates_the_compiler(self):
        session = InterfaceSession()
        session.append_sql(list(LISTING_6))
        session.compile(limit=64)
        first = session._compiler
        session.compile(database=self._database(), limit=64)
        assert session._compiler is not first


# ----------------------------------------------------------------------
# caches bounded by the live page
# ----------------------------------------------------------------------
class TestCacheBounds:
    def _drive(self, database=None):
        """The one-hot warm-up, then 40 single-query appends, each
        followed by a patch folded into the subscriber's page."""
        asts = _family_log("onehot")
        session = InterfaceSession()
        session.append(asts[:8])
        state = apply_patch(None, session.compile_patch(database=database, limit=64))
        for query in asts[8:48]:
            result = session.append([query])
            state = apply_patch(
                state, session.compile_patch(database=database, limit=64)
            )
            assert page_html(state) == compile_html(
                result.interface, database=database, limit=64
            )
        return session, state, result

    def test_artifacts_stay_within_the_page(self):
        """The compiler keeps the artifacts of the live page's widgets
        only, however many widgets earlier pages had."""
        session, state, result = self._drive()
        compiler = session._compiler
        assert len(compiler._artifacts) == len(result.interface.widgets)
        assert page_html(state) == oracle.compile_html(result.interface, limit=64)

    def test_execution_results_stay_within_the_page(self):
        db = TestClosureSlices._database()
        session, state, result = self._drive(database=db)
        compiler = session._compiler
        assert compiler._results == compiler.page.closure
        assert len(compiler._results) <= 64
        assert page_html(state) == oracle.compile_html(
            result.interface, database=db, limit=64
        )


# ----------------------------------------------------------------------
# patch wire format
# ----------------------------------------------------------------------
class TestPatchWireFormat:
    def _page(self, statements, title="P"):
        compiler = IncrementalCompiler(title=title, limit=64)
        return compiler.compile(generate_iface(statements))

    def test_version_is_stamped_and_checked(self, interface):
        compiler = IncrementalCompiler(limit=64)
        page = compiler.compile(interface)
        state = page.to_state()
        assert state["version"] == PATCH_VERSION
        assert make_patch(None, page)["version"] == PATCH_VERSION
        with pytest.raises(CompileError, match="version"):
            apply_patch(None, {"version": PATCH_VERSION + 1, "kind": "page"})

    def test_patch_without_base_is_rejected(self, interface):
        page = self._page(list(LISTING_6))
        patch = make_patch(page, page)
        assert patch["kind"] == "patch"
        with pytest.raises(CompileError, match="base"):
            apply_patch(None, patch)

    def test_base_fingerprint_mismatch_is_rejected(self):
        page = self._page(list(LISTING_6))
        patch = make_patch(page, page)
        foreign = dict(page.to_state(), fingerprint="0" * 16)
        with pytest.raises(CompileError, match="mismatch"):
            apply_patch(foreign, patch)

    def test_title_change_forces_a_full_page_patch(self):
        before = self._page(list(LISTING_6), title="A")
        after = self._page(list(LISTING_6), title="B")
        patch = make_patch(before, after)
        assert patch["kind"] == "page"
        assert page_html(apply_patch(None, patch)) == after.html()

    def test_state_round_trips(self, interface):
        compiler = IncrementalCompiler(limit=64)
        page = compiler.compile(interface)
        # the state is plain JSON, and a full-page patch folds back to it
        state = json.loads(json.dumps(page.to_state()))
        assert apply_patch(None, make_patch(None, page)) == state
        assert page_html(state) == page.html()


# ----------------------------------------------------------------------
# session guards
# ----------------------------------------------------------------------
class TestSessionGuards:
    def test_compile_before_first_append_raises(self):
        session = InterfaceSession()
        with pytest.raises(LogError):
            session.compile()
        with pytest.raises(LogError):
            session.compile_patch()
