"""Caller guard: every ``ocr_ray`` module must be imported by at least
one non-test file (the package itself, ``scripts/``, ``perfbench/``,
``__ray_entry__.py`` or ``bench.py``), and every top-level definition
in ``ocr_ray/`` must be reachable from those callers.  A module or a
definition only tests reach is dead code; it gets a caller or is
deleted with its tests.  A definition nothing reaches, tests included,
is refused outright.

The allowlists name what is still without a caller: reference
implementations and test helpers (``DEF_ALLOWLIST``) and the backlog of
definitions only tests reach (``TEST_ONLY``).  They may only shrink: a
listed entry that gains a caller or is deleted must leave its list."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWLIST = {
    "ocr_ray.functions.safemap":
        "ROADMAP item 4: per-doc isolation candidate, undecided",
    "ocr_ray.functions.robotstxt":
        "ROADMAP item 4: two ADVICE defects scheduled, undecided",
    "ocr_ray.kernels.pathsafe": "test-only backlog (TEST_ONLY)",
    "ocr_ray.sources.sitemap": "test-only backlog (TEST_ONLY)",
    "ocr_ray.functions.fingerprint": "test-only backlog (TEST_ONLY)",
    "ocr_ray.functions.stats": "test-only backlog (TEST_ONLY)",
    "ocr_ray.functions.incremental": "test-only backlog (TEST_ONLY)",
    "ocr_ray.functions.blocklist": "test-only backlog (TEST_ONLY)",
    "ocr_ray.functions.asof": "test-only backlog (TEST_ONLY)",
    "ocr_ray.functions.snapshot": "test-only backlog (TEST_ONLY)",
}

# (module, definition) -> the test that compares live code against it
# (a reference implementation), or that uses it as a test helper
DEF_ALLOWLIST = {
    ("ocr_ray.kernels.extract", "validate_spans"):
        "test_pipeline.py::TestValidateVectorized::"
        "test_vector_scalar_agreement",
    ("ocr_ray.kernels.ocr_sim", "_digest_stream"):
        "test_kernels.py::TestOcrDigest::test_block_equals_stream_prefix",
    ("ocr_ray.functions.cdc_chunk", "cdc_boundaries_reference"):
        "test_cdc_chunk.py::TestKernel::test_matches_reference",
    ("ocr_ray.functions.zorder", "morton2_reference"):
        "test_zorder.py::TestMortonKernel::test_matches_reference",
    ("ocr_ray.functions.fuzzyjoin", "fuzzy_join_brute"):
        "test_fuzzyjoin.py::TestFuzzyJoin::test_brute_force_parity",
    ("ocr_ray.functions.graph", "exact_knn_graph_local"):
        "test_knn_graph.py::TestExactAtFullProbe::"
        "test_matches_bruteforce_both_modes",
    ("ocr_ray.functions.corpus_prep", "BOILERPLATE_LINES_SQL"):
        "test_boilerplate_lines.py::TestBoilerplateLines::"
        "test_sql_parity_sf0001",
    ("ocr_ray.functions.textops", "TOP_TERMS_PER_LANG_SQL"):
        "test_text_extras.py::TestTopTermsPerLang::test_sql_parity_sf0001",
    ("ocr_ray.functions.token_index", "lookup_token_sql"):
        "test_token_index.py::TestTokenIndex::"
        "test_lookup_matches_sql_for_sampled_tokens",
    ("ocr_ray.golden", "assert_span_equal"):
        "test helper: test_pipeline.py, test_checkpoint.py, "
        "test_bucketize.py",
    ("ocr_ray.golden", "spans_fingerprint"):
        "test helper: test_golden.py, test_pipeline.py, test_benchgen.py",
    ("ocr_ray.fixtures", "write_corpus"):
        "test helper: test_checkpoint.py::TestRunReport",
    ("ocr_ray.fixtures", "documents_table"):
        "test helper: conftest.py::small_corpus",
    ("ocr_ray.functions.safemap", "safe_map_batches"):
        "module allowlisted above; test_safemap.py",
    ("ocr_ray.functions.safemap", "read_quarantine"):
        "module allowlisted above; test_safemap.py",
    ("ocr_ray.functions.safemap", "_write_quarantine"):
        "helper of safe_map_batches; test_safemap.py",
    ("ocr_ray.functions.robotstxt", "RobotsRules"):
        "module allowlisted above; test_robotstxt.py::TestMatching",
    ("ocr_ray.functions.robotstxt", "_pattern_to_re"):
        "helper of RobotsRules; test_robotstxt.py::TestMatching",
    ("ocr_ray.functions.robotstxt", "audit_crawl_compliance"):
        "module allowlisted above; test_robotstxt.py::TestDistributed",
}


# module -> space-separated definitions only tests reach: each is
# deleted together with the tests that cover it, a few tests at a time
TEST_ONLY = {
    "ocr_ray.functions.asof": "_asof_partition asof_pairs",
    "ocr_ray.functions.blocklist":
        "DEFAULT_BLOCKWORDS blocklist_doc_stats blocklist_pattern "
        "blocklist_sql blocklist_survivors",
    "ocr_ray.functions.bloom":
        "append_to_bloom_file bloom_contamination_check merge_blooms "
        "save_bloom",
    "ocr_ray.functions.bpe":
        "bpe_encode_word bpe_subword_counts build_bpe_vocab export_bpe_hf "
        "load_bpe_hf",
    "ocr_ray.functions.cdc_chunk": "cdc_shared_chunks",
    "ocr_ray.functions.corpus_prep":
        "CHUNK_DEDUP_STATS_SQL CHUNK_DOCUMENTS_SQL CONTAMINATION_SQL "
        "LANG_CHAR_QUANTILES_SQL PRIORITY_PRICE_QUANTILES_CONT_SQL "
        "QUALITY_FILTER_SQL STRATIFIED_SAMPLE_SQL _BIGRAM_ALPHABET "
        "_BIGRAM_DIM _BIGRAM_INDEX _bigram_ids _bm25_sql bm25_keyword_scores "
        "char_bigram_logprob_scores chunk_dedup_stats chunk_documents "
        "contamination_check lang_char_quantiles mixture_token_plan "
        "mixture_token_plan_sql priority_price_quantiles_cont "
        "quality_filter_stats sentence_chunk_batch sentence_chunk_documents "
        "stratified_sample_stats",
    "ocr_ray.functions.dedup":
        "DEDUP_SURVIVORS_SQL cluster_losers dedup_survivors "
        "dedup_survivors_by_quality dup_pairs_from_scan leakage_safe_split "
        "ngram_jaccard_pairs_ds",
    "ocr_ray.functions.dsir": "source_token_divergence",
    "ocr_ray.functions.editsim":
        "_OUT_SCHEMA edit_near_dup_pairs edit_verify_pairs",
    "ocr_ray.functions.events":
        "ERROR_CLICK_RANGE_SQL EVENTS_DAILY_DENSE_SQL EVENTS_HOURLY_SQL "
        "EVENTS_PIVOT_SQL EVENTS_UNPIVOT_SQL PIVOT_TYPES PROPS_K_SQL "
        "TOP_USERS_SQL TRAILING_WINDOW_SQL USER_ACTIVITY_SQL "
        "USER_PEAK_WINDOW_SQL assign_sessions events_daily_dense "
        "events_hourly_histogram events_type_pivot events_unpivot "
        "grouped_count_distinct grouped_top_k props_k_stats "
        "top_users_by_value user_activity_join user_peak_window_spend "
        "user_trailing_window_spend",
    "ocr_ray.functions.fingerprint": "_M64 table_fingerprint tables_equal",
    "ocr_ray.functions.graph":
        "RANK_SCALE connected_components document_pagerank mutual_knn_graph "
        "pagerank semantic_communities",
    "ocr_ray.functions.grouping": "EVENTS_CUBE_SQL cube events_type_year_cube",
    "ocr_ray.functions.histogram": "psi_drift",
    "ocr_ray.functions.incremental":
        "_N_FPREF _PREFIX_CHARS _SESS_STATE_SCHEMA _band_rows _session_meta "
        "agg_increment append_to_band_index build_band_index "
        "compact_band_index dedup_new_against_index increment_file_count "
        "init_agg_state init_session_state probe_band_paths read_agg_state "
        "recover_band_index session_state_result sessionize_increment",
    "ocr_ray.functions.intervals": "interval_overlap_pairs",
    "ocr_ray.functions.lm_filter":
        "_ctx_bigram_ids bigram_lm_counts doc_perplexity perplexity_buckets",
    "ocr_ray.functions.novelty": "_OUT_SCHEMA",
    "ocr_ray.functions.packing":
        "build_token_vocab export_packs_jsonl materialize_packs shuffle_packs",
    "ocr_ray.functions.pq": "append_to_pq_index knn_pq_batch",
    "ocr_ray.functions.quality_classifier":
        "nb_class_counts quality_classifier_scores",
    "ocr_ray.functions.redact":
        "pii_spans pii_spans_text redact_columns redact_pii",
    "ocr_ray.functions.relational":
        "DISTINCT_STATUS_SQL MERGE_CHANGESET_SQL MKTSEGMENT_SQL "
        "ORDERS_ROLLUP_SQL ORDER_PRIORITY_SQL PART_TYPE_SQL Q6_SQL "
        "bloom_pruned_join distinct_order_statuses melt merge_changeset "
        "merge_changeset_as_of_sql mktsegment_stats order_priority_counts "
        "orders_rollup part_type_stats q6_revenue_delta",
    "ocr_ray.functions.semdedup":
        "LOSER_SCHEMA semantic_dedup_losers semantic_dedup_survivors",
    "ocr_ray.functions.setops":
        "except_distinct intersect_all intersect_distinct",
    "ocr_ray.functions.similarity": "embedding_cluster_sample knn_ivf_batch",
    "ocr_ray.functions.sketches":
        "approx_counts approx_distinct approx_distinct_hll cm_estimate "
        "cm_hash cm_sketch grouped_approx_distinct_hll "
        "grouped_approx_quantiles grouped_heavy_hitters "
        "grouped_weighted_sample heavy_hitters stratified_fixed_sample "
        "weighted_sample",
    "ocr_ray.functions.snapshot":
        "CORPUS_DIFF_SQL _hashed corpus_diff corpus_diff_summary",
    "ocr_ray.functions.stats":
        "VALUE_ANOMALIES_SQL _RI_EDGES _SCALE correlation_matrix "
        "correlation_matrix_sql ols_fit ols_fit_sql ols_multi ri_check "
        "ri_check_sql value_anomalies",
    "ocr_ray.functions.textops":
        "DOC_CHAR_QUALITY_SQL DOC_FINGERPRINTS_SQL DOC_LANG_STATS_SQL "
        "DOC_LINE_STATS_SQL DOC_SAMPLE_SQL DOC_SOURCE_SQL "
        "DOC_TOKEN_COUNTS_SQL LANG_ID_SQL MIXED_LANGUAGE_SQL "
        "NORMALIZED_DEDUP_SQL _STOPWORDS _WS_COLLAPSE_RE _sql_list "
        "canonical_text_key degrade_payload doc_char_quality "
        "doc_compression_stats doc_fingerprints doc_lang_stats doc_line_stats "
        "doc_sample_stats doc_source_stats doc_summaries doc_token_counts "
        "lang_id mixed_language_stats normalized_dedup_groups "
        "regexp_extract_rows semantic_keyword_hits",
    "ocr_ray.functions.token_index": "search_all_tokens search_ranked",
    "ocr_ray.functions.tpch_more":
        "Q11_SQL Q12_SQL Q15_SQL Q16_SQL Q19_SQL Q9_SQL _HIGH_PRIORITIES "
        "_Q19_BANDS q11_important_brands q12_priority_counts "
        "q15_top_suppliers q16_supplier_counts q19_disjunctive_revenue "
        "q8_market_share q8_sql q9_profit_by_nation_year",
    "ocr_ray.functions.urlnorm":
        "canonicalize_url_batch domain_doc_stats filter_by_domains",
    "ocr_ray.functions.weblinks":
        "_LinkCollector _SKIP_SCHEMES anchor_text_counts extract_links "
        "extract_links_batch url_id warc_link_edges",
    "ocr_ray.functions.window":
        "_LAG_SCHEMA _MIX_B _ROLL_SCHEMA keyed_lag rolling_range_agg "
        "rolling_rows_agg",
    "ocr_ray.functions.winnow":
        "containment_dedup_losers containment_dedup_survivors "
        "winnow_containment_pairs",
    "ocr_ray.kernels.pathsafe": "_UNSAFE _WINDOWS_RESERVED safe_name",
    "ocr_ray.kernels.summarize":
        "MAX_INPUT_CHARS _SENT_SPLIT split_sentences summarize",
    "ocr_ray.kernels.vecsearch": "DIM VectorKeywordSearcher _embed",
    "ocr_ray.pipelines.corpus_pipeline":
        "_input_fingerprint prepare_corpus_checkpointed",
    "ocr_ray.sources.readers": "read_csv_documents",
    "ocr_ray.sources.sitemap":
        "_local_name frontier_coverage parse_sitemap_bytes read_sitemap_urls",
    "ocr_ray.stages.multimodal":
        "FrameSampler MediaPHasher hamming64 media_dup_pairs media_phashes "
        "phash64 sample_frames",
}

def _module_name(path: Path) -> str:
    parts = list(path.relative_to(ROOT).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_names(path: Path) -> set:
    """Dotted names a file imports, relative imports resolved."""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package.pop()
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level \
                else []
            mod = ".".join(base + ([node.module] if node.module else []))
            names.add(mod)
            names.update(f"{mod}.{a.name}" for a in node.names)
    return names


def _outside_callers() -> list:
    """Non-test caller files outside the package."""
    return [*(ROOT / "scripts").rglob("*.py"),
            *(p for p in (ROOT / "perfbench").rglob("*.py")
              if not p.name.startswith("test_")),
            ROOT / "__ray_entry__.py", ROOT / "bench.py"]


def _uncalled_modules() -> set:
    modules = {_module_name(p) for p in (ROOT / "ocr_ray").rglob("*.py")
               if p.name != "__init__.py"}
    callers = [*(ROOT / "ocr_ray").rglob("*.py"), *_outside_callers()]
    imported = set()
    for path in callers:
        own = _module_name(path)
        imported.update(n for n in _imported_names(path)
                        if n != own and not n.startswith(own + "."))
    return {m for m in modules
            if not any(n == m or n.startswith(m + ".") for n in imported)}


def _definitions(tree: ast.Module):
    """(name, node) for each top-level function, class and assignment to
    plain names (dunders excluded) of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) \
                and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            if all(isinstance(t, ast.Name) and not t.id.startswith("__")
                   for t in targets):
                for t in targets:
                    yield t.id, node


def _references(nodes) -> tuple:
    """Names the nodes mention (bare or as an attribute), and the
    (alias, original) pairs of their ``import ... as`` clauses."""
    names, aliases = set(), set()
    for top in nodes:
        for n in ast.walk(top):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.alias) and n.asname:
                aliases.add((n.asname, n.name.rsplit(".", 1)[-1]))
    return names, aliases


def _unreached_definitions(with_tests: bool = False) -> set:
    """(module, name) of the ``ocr_ray`` definitions no root reaches.

    Roots are the package's module-level code outside definitions and
    every outside caller file, plus every test file ``with_tests``.  A
    definition is reached when a root or
    the body of a reached definition mentions its name.  Matching is by
    name alone, so the scan over-approximates what is reached: it never
    flags live code."""
    defs, roots = {}, []
    for path in (ROOT / "ocr_ray").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module, owned = _module_name(path), set()
        for name, node in _definitions(tree):
            defs.setdefault((module, name), []).append(node)
            owned.add(id(node))
        roots += [n for n in tree.body if id(n) not in owned]
    files = _outside_callers()
    if with_tests:
        files += [*(ROOT / "tests").rglob("*.py"),
                  *(ROOT / "perfbench").rglob("test_*.py")]
    roots += [ast.parse(p.read_text(encoding="utf-8")) for p in files]
    names, aliases = _references(roots)
    reached = set()
    while True:
        names |= {orig for alias, orig in aliases if alias in names}
        new = [k for k in defs if k not in reached and k[1] in names]
        if not new:
            return set(defs) - reached
        reached.update(new)
        more, more_aliases = _references(n for k in new for n in defs[k])
        names |= more
        aliases |= more_aliases


def test_every_module_has_a_non_test_caller():
    uncalled = _uncalled_modules()
    new = sorted(uncalled - set(ALLOWLIST))
    assert not new, f"modules imported only by tests (add a caller or " \
                    f"delete them with their tests): {new}"
    stale = sorted(set(ALLOWLIST) - uncalled)
    assert not stale, f"allowlisted modules now have a caller or are " \
                      f"gone — remove them from ALLOWLIST: {stale}"


def test_scan_resolves_relative_imports():
    names = _imported_names(ROOT / "ocr_ray" / "state" / "checkpoint.py")
    assert "ocr_ray.pipelines.extract_pipeline" in names
    names = _imported_names(ROOT / "ocr_ray" / "sources" / "__init__.py")
    assert "ocr_ray.sources.readers" in names


def _test_only() -> set:
    return {(module, name) for module, names in TEST_ONLY.items()
            for name in names.split()}


def test_every_definition_has_a_caller():
    unreached = sorted(_unreached_definitions(with_tests=True))
    assert not unreached, f"definitions nothing reaches, tests included " \
                          f"(delete them): {unreached}"


def test_every_definition_has_a_non_test_caller():
    unreached = _unreached_definitions()
    listed = set(DEF_ALLOWLIST) | _test_only()
    assert not set(DEF_ALLOWLIST) & _test_only()
    new = sorted(unreached - listed)
    assert not new, f"definitions only tests reach (add a caller or " \
                    f"delete them with their tests): {new}"
    stale = sorted(listed - unreached)
    assert not stale, f"allowlisted definitions now have a caller or " \
                      f"are gone — remove them from DEF_ALLOWLIST or " \
                      f"TEST_ONLY: {stale}"


def test_definition_scan_follows_bodies():
    unreached = _unreached_definitions()
    # _digest_block is named only inside run_ocr's helpers' bodies
    assert ("ocr_ray.kernels.ocr_sim", "_digest_block") not in unreached
    assert ("ocr_ray.kernels.ocr_sim", "_digest_stream") in unreached
