"""Closure membership and enumeration tests."""

from tests.helpers import generate_iface
from repro import parse_sql
from repro.api import InterfaceSession
from repro.core.closure import (
    ClosureCache,
    apply_widget_choice,
    enumerate_closure,
    expresses,
)
from repro.logs import LISTING_6, LISTING_7
from repro.sqlparser.render import render_sql



class TestMembershipListing6(object):
    def test_log_queries_expressible(self, listing6_interface):
        for sql in LISTING_6:
            assert listing6_interface.expresses(parse_sql(sql))

    def test_unseen_top_value_via_slider(self, listing6_interface):
        unseen = LISTING_6[1].replace("TOP 1 ", "TOP 7 ")
        assert listing6_interface.expresses(parse_sql(unseen))

    def test_out_of_range_top_rejected(self, listing6_interface):
        beyond = LISTING_6[1].replace("TOP 1 ", "TOP 999 ")
        assert not listing6_interface.expresses(parse_sql(beyond))

    def test_unrelated_query_rejected(self, listing6_interface):
        assert not listing6_interface.expresses(parse_sql("SELECT x FROM other"))


class TestMembershipListing7:
    def test_log_queries_expressible(self, listing7_interface):
        for sql in LISTING_7:
            assert listing7_interface.expresses(parse_sql(sql))

    def test_cross_product_generalisation(self, listing7_interface):
        """The combination {projection b, threshold 15} never occurs in
        Listing 7 but is in the closure (Section 4.5 discussion)."""
        unseen = parse_sql("SELECT * FROM (SELECT b FROM T WHERE b > 15)")
        assert listing7_interface.expresses(unseen)

    def test_nested_coverage_through_toggle(self, listing7_interface):
        """Expressing a subquery variant from the plain-table q0 needs the
        toggle + inner widgets composition."""
        assert listing7_interface.expresses(
            parse_sql("SELECT * FROM (SELECT a FROM T WHERE b > 20)")
        )


class TestClosureCache:
    """Positive proofs carry across membership queries in process, and
    only for the widget set they were proved against."""

    LOG = ["SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = 2",
           "SELECT a FROM t WHERE x = 5"]

    def test_proofs_carry_across_calls_for_one_widget_set(self):
        interface = generate_iface(self.LOG)
        cache = ClosureCache()
        target = parse_sql("SELECT a FROM t WHERE x = 2")
        assert expresses(interface.widgets, interface.initial_query, target, cache=cache)
        proven = dict(cache.proven_for(interface.widgets))
        assert proven and all(proven.values())
        assert expresses(interface.widgets, interface.initial_query, target, cache=cache)
        assert cache.proven_for(interface.widgets) == proven

    def test_another_widget_set_rearms_the_cache(self):
        interface = generate_iface(self.LOG)
        cache = ClosureCache()
        interface.expresses(parse_sql("SELECT a FROM t WHERE x = 2"), cache=cache)
        assert len(cache) > 0
        other = generate_iface(["SELECT b FROM u WHERE y = 1",
                                "SELECT b FROM u WHERE y = 2"])
        assert cache.proven_for(other.widgets) == {}

    def test_session_keeps_proofs_across_clean_appends(self):
        session = InterfaceSession()
        session.append_sql(self.LOG)
        assert session.expresses("SELECT a FROM t WHERE x = 3")
        widgets = session.interface.widgets
        proven = dict(session._closure_cache.proven_for(widgets))
        assert proven
        # a repeated query adds no diff: every widget comes back as the
        # same object, so the proofs survive the append
        session.append_sql([self.LOG[-1]])
        assert session.interface.widgets == widgets
        assert session._closure_cache.proven_for(session.interface.widgets) == proven


class TestEnumeration:
    def test_closure_contains_initial_query(self, listing6_interface):
        queries = list(listing6_interface.closure(limit=100))
        assert any(q.equals(listing6_interface.initial_query) for q in queries)

    def test_closure_entries_distinct(self, listing6_interface):
        queries = list(listing6_interface.closure(limit=100))
        prints = [q.fingerprint for q in queries]
        assert len(prints) == len(set(prints))

    def test_limit_respected(self, listing7_interface):
        assert len(list(listing7_interface.closure(limit=3))) <= 3

    def test_closure_members_expressible(self, listing7_interface):
        """Everything enumerated must pass the membership test."""
        for query in listing7_interface.closure(limit=50):
            assert listing7_interface.expresses(query), render_sql(query)

    def test_log_queries_in_enumerated_closure(self, listing6_interface):
        enumerated = {q.fingerprint for q in listing6_interface.closure(limit=1000)}
        for sql in LISTING_6:
            assert parse_sql(sql).fingerprint in enumerated


class TestApplyWidgetChoice:
    def _interface(self):
        return generate_iface(list(LISTING_6))

    def test_replace(self):
        interface = self._interface()
        slider = next(
            w for w in interface.widgets if w.widget_type.name == "slider"
        )
        with_top = parse_sql(LISTING_6[1])
        entry = next(iter(slider.domain.subtrees()))
        edited = apply_widget_choice(with_top, slider, entry)
        assert edited.get(slider.path).equals(entry)

    def test_insert_when_path_missing(self):
        interface = self._interface()
        toggle = next(
            w for w in interface.widgets if w.domain.includes_none
        )
        without_top = parse_sql(LISTING_6[0])
        entry = next(iter(toggle.domain.subtrees()))
        edited = apply_widget_choice(without_top, toggle, entry)
        assert edited.has_path(toggle.path)
        assert edited.get(toggle.path).node_type == "Top"

    def test_delete_with_none(self):
        interface = self._interface()
        toggle = next(w for w in interface.widgets if w.domain.includes_none)
        with_top = parse_sql(LISTING_6[1])
        edited = apply_widget_choice(with_top, toggle, None)
        assert edited.equals(parse_sql(LISTING_6[0]))

    def test_delete_noop_when_absent(self):
        interface = self._interface()
        toggle = next(w for w in interface.widgets if w.domain.includes_none)
        without_top = parse_sql(LISTING_6[0])
        assert apply_widget_choice(without_top, toggle, None) is without_top
