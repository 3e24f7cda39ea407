"""robots.txt REP matching: RFC 9309 longest-match semantics, group
selection, wildcards/anchors, crawl-delay/sitemaps, and the
distributed compliance audit."""

import pyarrow as pa
import pytest

from ocr_ray.functions.robotstxt import (RobotsRules,
                                         audit_crawl_compliance)

BASIC = """
# comments ignored
User-agent: *
Disallow: /private/
Disallow: /tmp
Allow: /private/public.html
Sitemap: http://example.com/sitemap.xml

User-agent: specialbot
Disallow: /
Allow: /welcome
Crawl-delay: 2.5
"""


class TestMatching:
    def test_basic_allow_disallow(self):
        r = RobotsRules(BASIC)
        assert r.allowed("/") is True
        assert r.allowed("/page.html") is True
        assert r.allowed("/private/a.html") is False
        assert r.allowed("/tmp") is False
        assert r.allowed("/tmpfile") is False     # prefix match
        assert r.allowed("/tmp/x") is False

    def test_longest_match_allow_override(self):
        r = RobotsRules(BASIC)
        # Allow /private/public.html (longer) beats Disallow /private/
        assert r.allowed("/private/public.html") is True

    def test_group_selection_most_specific(self):
        r = RobotsRules(BASIC)
        assert r.allowed("/page.html", agent="SpecialBot/1.0") is False
        assert r.allowed("/welcome", agent="SpecialBot/1.0") is True
        # unrelated agent falls back to *
        assert r.allowed("/page.html", agent="otherbot") is True

    def test_wildcards_and_anchor(self):
        r = RobotsRules("User-agent: *\n"
                        "Disallow: /*.php\n"
                        "Disallow: /fish*.html$\n")
        assert r.allowed("/index.php") is False
        assert r.allowed("/a/b/x.php") is False
        assert r.allowed("/php-guide") is True
        assert r.allowed("/fishing.html") is False
        assert r.allowed("/fishing.html.bak") is True  # $ anchored

    def test_allow_wins_equal_length(self):
        r = RobotsRules("User-agent: *\n"
                        "Disallow: /page\n"
                        "Allow: /page\n")
        assert r.allowed("/page") is True

    def test_empty_disallow_means_no_rule(self):
        r = RobotsRules("User-agent: *\nDisallow:\n")
        assert r.allowed("/anything") is True

    def test_shared_agent_group(self):
        r = RobotsRules("User-agent: a\nUser-agent: b\n"
                        "Disallow: /x\n")
        assert r.allowed("/x", agent="a") is False
        assert r.allowed("/x", agent="b") is False
        assert r.allowed("/x", agent="c") is True  # no * group

    def test_crawl_delay_and_sitemaps(self):
        r = RobotsRules(BASIC)
        assert r.delay_for("specialbot") == 2.5
        assert r.delay_for("otherbot") is None
        assert r.sitemaps == ["http://example.com/sitemap.xml"]

    def test_crawl_delay_comes_from_the_matched_group_only(self):
        """A specific group that matches the agent governs its
        Crawl-delay too: the ``*`` group's delay does not leak into it
        (RFC 9309 group selection, as ``allowed`` applies it)."""
        r = RobotsRules("User-agent: *\nCrawl-delay: 10\n\n"
                        "User-agent: fastbot\nDisallow: /x\n\n"
                        "User-agent: slowbot\nCrawl-delay: 3\n")
        assert r.delay_for("FastBot/2.0") is None
        assert r.delay_for("slowbot") == 3.0
        assert r.delay_for("otherbot") == 10.0
        assert r.delay_for() == 10.0

    def test_garbage_is_permissive(self):
        for junk in ["", "%%%\x00\x01", "no colons here at all"]:
            assert RobotsRules(junk).allowed("/x") is True


class TestDistributed:
    def test_compliance_audit(self, ray_session):
        import ray.data as rd

        robots = {
            "example.com": "User-agent: *\nDisallow: /private/\n",
            "blocked.org": "User-agent: *\nDisallow: /\n",
        }
        urls = ["http://example.com/ok",
                "http://sub.example.com/private/x",   # subdomain -> same eTLD+1
                "http://blocked.org/anything",
                "http://unlisted.net/whatever",
                None]
        ds = rd.from_arrow(pa.table({
            "url": pa.array(urls, pa.string()),
            "row": pa.array(range(5), pa.int64())})).repartition(2)
        df = (audit_crawl_compliance(ds, robots).to_pandas()
              .set_index("row"))
        assert df.loc[0, "robots_allowed"] == True          # noqa: E712
        assert df.loc[1, "robots_allowed"] == False         # noqa: E712
        assert df.loc[2, "robots_allowed"] == False         # noqa: E712
        assert df.loc[3, "robots_allowed"] == True          # noqa: E712
        assert df.loc[4, "robots_allowed"] == True          # noqa: E712

    def test_map_keyed_by_full_hostname(self, ray_session):
        """robots.txt is per host: a map keyed by the full hostname
        applies to that host's URLs, and only to them."""
        import ray.data as rd

        robots = {"blog.example.com": "User-agent: *\nDisallow: /drafts/\n"}
        urls = ["http://blog.example.com/drafts/a",
                "https://BLOG.example.com/drafts/b",
                "http://blog.example.com/post",
                "http://www.example.com/drafts/a"]
        ds = rd.from_arrow(pa.table({
            "url": pa.array(urls, pa.string()),
            "row": pa.array(range(4), pa.int64())}))
        df = (audit_crawl_compliance(ds, robots).to_pandas()
              .set_index("row"))
        assert list(df.sort_index()["robots_allowed"]) == \
            [False, False, True, True]
