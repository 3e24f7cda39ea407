"""robots.txt parsing + REP allow-matching — the third leg of the
crawl-politeness family (meta-robots flags and the domain blocklist
are the others): given each domain's robots.txt, which captured URLs
was the crawler actually allowed to fetch?

Implements the Robots Exclusion Protocol as specified in RFC 9309:

* groups: consecutive ``User-agent`` lines share the following rules;
  group selection picks the LONGEST user-agent token that is a
  case-insensitive substring of the product token, falling back to
  ``*``;
* rule matching: patterns match from the path start, ``*`` is a
  wildcard, ``$`` anchors the end; the rule with the LONGEST pattern
  (octet count, per the RFC) wins, ``Allow`` beating ``Disallow`` on
  ties; no matching rule -> allowed; empty ``Disallow:`` -> no rule;
* ``Crawl-delay`` (de-facto extension) and ``Sitemap`` lines are
  surfaced; unknown directives are ignored; an unparseable file
  yields the permissive default (matching major crawlers' behavior on
  5xx-less garbage).

``audit_crawl_compliance`` is the Dataset-side op: a broadcast
{domain: robots_txt} map (deployment-sized — one small file per
domain) checked per batch, map-only.

Reference analog: none — beyond-reference web-pipeline operator
(SURVEY.md §2.8 extension).
"""
from __future__ import annotations

import re
from urllib.parse import urlsplit

import pyarrow as pa


def _pattern_to_re(pat: str) -> re.Pattern:
    out = []
    anchored = pat.endswith("$")
    if anchored:
        pat = pat[:-1]
    for ch in pat:
        out.append(".*" if ch == "*" else re.escape(ch))
    return re.compile("^" + "".join(out) + ("$" if anchored else ""))


class RobotsRules:
    """Parsed robots.txt: per-agent rule groups + sitemaps."""

    def __init__(self, text: str):
        self.groups: dict[str, list[tuple[bool, str, re.Pattern]]] = {}
        self.crawl_delay: dict[str, float] = {}
        self.sitemaps: list[str] = []
        agents: list[str] = []
        last_was_agent = False
        try:
            for raw in (text or "").splitlines():
                line = raw.split("#", 1)[0].strip()
                if not line or ":" not in line:
                    continue
                key, val = line.split(":", 1)
                key = key.strip().lower()
                val = val.strip()
                if key == "user-agent":
                    if not last_was_agent:
                        agents = []
                    agents.append(val.lower())
                    self.groups.setdefault(val.lower(), [])
                    last_was_agent = True
                    continue
                last_was_agent = False
                if key in ("allow", "disallow"):
                    if not val and key == "disallow":
                        continue  # empty Disallow: no rule
                    for a in agents:
                        self.groups[a].append(
                            (key == "allow", val, _pattern_to_re(val)))
                elif key == "crawl-delay":
                    try:
                        for a in agents:
                            self.crawl_delay[a] = float(val)
                    except ValueError:
                        pass
                elif key == "sitemap":
                    self.sitemaps.append(val)
        except Exception:
            # permissive default on garbage, like major crawlers
            self.groups = {}

    def _group_for(self, agent: str) -> str | None:
        """The user-agent token of the group that governs ``agent``."""
        al = agent.lower()
        best, best_len = None, -1
        for ua in self.groups:
            if ua != "*" and ua in al and len(ua) > best_len:
                best, best_len = ua, len(ua)
        if best is None and "*" in self.groups:
            best = "*"
        return best

    def allowed(self, path: str, agent: str = "*") -> bool:
        """Longest-match REP decision for one URL path (include the
        query string if you want it matched)."""
        if not path.startswith("/"):
            path = "/" + path
        verdict, best_len = True, -1
        for allow, pat, rx in self.groups.get(self._group_for(agent), []):
            if rx.match(path) and len(pat) > best_len:
                verdict, best_len = allow, len(pat)
            elif rx.match(path) and len(pat) == best_len and allow:
                verdict = allow  # Allow wins ties
        return verdict

    def delay_for(self, agent: str = "*") -> float | None:
        """Crawl-delay of the group that governs ``agent`` (None if that
        group sets none — the ``*`` group's does not apply to it)."""
        return self.crawl_delay.get(self._group_for(agent))


def audit_crawl_compliance(ds, robots_by_domain: dict[str, str],
                           url_col: str = "url", agent: str = "*"):
    """Adds ``robots_allowed:bool`` per row — was fetching this URL
    permitted by its host's robots.txt?  The map may be keyed by full
    hostname (robots.txt is per host) or by registrable domain; the
    hostname is tried first.  Hosts absent from the map are allowed (no
    robots.txt == no restrictions).  The rules compile once per task
    from the broadcast map; matching is map-only."""
    from .urlnorm import registrable_domain

    compiled: dict[str, RobotsRules] = {}

    def check(batch: pa.Table) -> pa.Table:
        if not compiled:
            for d, t in robots_by_domain.items():
                compiled[d.lower()] = RobotsRules(t)
        out = []
        for u in batch[url_col].to_pylist():
            if not u:
                out.append(True)
                continue
            try:
                parts = urlsplit(u if "://" in u else "http://" + u)
            except ValueError:  # unparseable URL: no host, no rules
                out.append(True)
                continue
            rules = (compiled.get((parts.hostname or "").rstrip("."))
                     or compiled.get(registrable_domain(u)))
            if rules is None:
                out.append(True)
                continue
            path = parts.path or "/"
            if parts.query:
                path += "?" + parts.query
            out.append(rules.allowed(path, agent))
        return batch.append_column("robots_allowed",
                                   pa.array(out, pa.bool_()))

    return ds.map_batches(check, batch_format="pyarrow")
