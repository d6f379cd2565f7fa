"""Entered, declared, or removed: the call census as a gate (DESIGN.md 4k).

``results/call_census.txt`` is what ``make census`` (``scripts/call_census.py``)
writes: one ``module:qualname`` line for every ``def`` under ``src/repro``
that no front end entered — every ``repro-topk`` subcommand, the CI smoke
scripts and every ``bench/run.py`` workload.  A listed def stays only if it
falls in one class:

(i)   a declaration: a ``Protocol`` member, or a body that is only ``...``,
      ``pass`` or ``raise NotImplementedError`` (after any docstring; a
      docstring alone is a ``pass``);
(ii)  a dunder other than ``__init__`` and ``__post_init__``: the language
      calls it, not a front end;
(iii) a def in a module ``tests/test_reachability.py`` allowlists;
(iv)  a ``bench/`` patch target (``bench/spans.py::TARGETS``) or a name a file
      under ``bench/`` imports from ``repro``: the frozen benchmark needs it;
(v)   a key of :data:`DECLARED`, whose class is ``guard`` (outside-input
      validation, a typed refusal, a failure or recovery path, an exactness
      fallback), ``reference`` (a parity twin tests compare against) or
      ``design`` (its reason cites an Eq., Section, Algorithm, Fig. or a
      DESIGN.md / EXPERIMENTS.md row, but not DESIGN.md 4k, which only lists
      what is kept).  Each entry names the tier-1 test file
      that enters the def, and that file must mention it.

Everything else is deleted.  The comparison is two-sided: a listed def that
left ``src/`` fails, and so does a ``DECLARED`` key that is not listed, so the
table only shrinks.  A new def no front end enters fails only once the census
is regenerated (the nightly ``call-census`` job does that); tier-1 cannot run
the front ends.

Static: ``ast`` only, nothing imported, nothing run.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CENSUS = ROOT / "results" / "call_census.txt"

CLASSES = ("guard", "reference", "design")
CITES = re.compile(r"Eq\. ?\d|Section \d|Algorithm \d|Fig\. ?\d|DESIGN\.md|EXPERIMENTS\.md")
#: DESIGN.md 4k is where this gate's kept list is written down, so it is no reason.
SELF_CITE = re.compile(r"DESIGN\.md 4k\b")

#: Never-entered defs kept anyway: ``module:qualname`` -> (class, test, reason).
DECLARED: dict[str, tuple[str, str, str]] = {
    "repro.analysis.correctness:rounds_to_reach": (
        "design", "tests/analysis/test_correctness.py",
        "Eq. 3: the round count whose precision bound reaches a target",
    ),
    "repro.analysis.efficiency:sqrt_log_scaling_constant": (
        "design", "tests/analysis/test_efficiency.py",
        "Eq. 4: r_min / sqrt(log 1/eps), the Section 4.2 scaling claim",
    ),
    "repro.analysis.optimization:pareto_frontier": (
        "design", "tests/analysis/test_optimization.py",
        "Fig. 9's knee set (DESIGN.md row 25); the planner's grids are its grid",
    ),
    "repro.analysis.privacy_bounds:naive_average_lop_bound": (
        "design", "tests/analysis/test_privacy_bounds.py",
        "Eq. 5: LoP_naive > ln(n)/n",
    ),
    "repro.analysis.privacy_bounds:naive_estimator_average": (
        "design", "tests/analysis/test_paper_equations.py",
        "DESIGN.md 4: the estimator's naive expectation (H_n - 1)/n",
    ),
    "repro.analysis.privacy_bounds:naive_worst_case_lop": (
        "design", "tests/analysis/test_privacy_bounds.py",
        "Fig. 10(b): the naive starter's exposure 1 - 1/n",
    ),
    "repro.analysis.privacy_bounds:peak_lop_round": (
        "design", "tests/analysis/test_privacy_bounds.py",
        "Eq. 6: the round where the bound peaks (Figs. 5 and 7)",
    ),
    "repro.core.sampling:WordPool._split": (
        "guard", "tests/core/test_sampling.py",
        "exactness fallback: a stream past its harvest is served by a real Random",
    ),
    "repro.core.sampling:WordPool.randint": (
        "guard", "tests/core/test_sampling.py",
        "exactness fallback: a batch-kernel noise draw whose rejections outrun its block",
    ),
    "repro.core.schedule:ConstantCutoffSchedule.__post_init__": (
        "design", "tests/experiments/test_ablations.py",
        "EXPERIMENTS.md ablation test_schedule_shapes_all_converge_below_naive",
    ),
    "repro.core.schedule:ConstantCutoffSchedule.probability": (
        "design", "tests/core/test_schedule.py",
        "EXPERIMENTS.md ablation test_schedule_shapes_all_converge_below_naive",
    ),
    "repro.core.schedule:LinearSchedule.__post_init__": (
        "design", "tests/experiments/test_ablations.py",
        "EXPERIMENTS.md ablation test_schedule_shapes_all_converge_below_naive",
    ),
    "repro.core.schedule:LinearSchedule.probability": (
        "design", "tests/core/test_schedule.py",
        "EXPERIMENTS.md ablation test_schedule_shapes_all_converge_below_naive",
    ),
    "repro.core.topk_protocol:ProbabilisticTopKAlgorithm.rearm": (
        "guard", "tests/core/test_fault_tolerance.py",
        "recovery (Section 3.2): a survivor forgets the stalled round's insertions",
    ),
    "repro.database.database:PrivateDatabase.drop_table": (
        "guard", "tests/database/test_database.py",
        "failure path: database.io's all-or-nothing load rolls back with it",
    ),
    "repro.database.engines:ColumnarEngine.bottom_k_array": (
        "design", "tests/database/test_engine_summaries.py",
        "DESIGN.md 4j: the k > 64 read path, kept on purpose",
    ),
    "repro.database.engines:ColumnarEngine.column_values": (
        "design", "tests/database/test_engines.py",
        "DESIGN.md 4j: project is kept, database.io exports through it",
    ),
    "repro.database.engines:ColumnarEngine.rows": (
        "design", "tests/database/test_engines.py",
        "DESIGN.md 4j: scan is kept, database.io exports through it",
    ),
    "repro.database.engines:ColumnarEngine.top_k_array": (
        "design", "tests/database/test_engine_summaries.py",
        "DESIGN.md 4j: the k > 64 read path, kept on purpose",
    ),
    "repro.database.engines:RowStoreEngine.aggregate": (
        "reference", "tests/database/test_engines.py",
        "the row store every engine parity suite compares against",
    ),
    "repro.database.engines:RowStoreEngine.bottom_k": (
        "reference", "tests/database/test_engines.py",
        "the row store every engine parity suite compares against",
    ),
    "repro.database.engines:RowStoreEngine.rows": (
        "reference", "tests/database/test_engines.py",
        "the row store every engine parity suite compares against",
    ),
    "repro.database.engines:_NumericColumn._spill": (
        "guard", "tests/database/test_engines.py",
        "exactness fallback: a value no typed array holds spills the column",
    ),
    "repro.database.engines:_NumericColumn.all_values": (
        "design", "tests/database/test_engines.py",
        "DESIGN.md 4j: what scan and project read of a numeric column",
    ),
    "repro.database.engines:_NumericColumn.materialize": (
        "design", "tests/database/test_engine_summaries.py",
        "DESIGN.md 4j: the k > 64 and full-column decode",
    ),
    "repro.database.engines:_NumericColumn.storage": (
        "guard", "tests/database/test_engines.py",
        "exactness fallback: a spilled column's exact list",
    ),
    "repro.database.engines:_NumericColumn.valid_values": (
        "design", "tests/database/test_engine_summaries.py",
        "DESIGN.md 4j: the k > 64 read path, kept on purpose",
    ),
    "repro.database.engines:_ObjectColumn.__init__": (
        "design", "tests/database/test_engines.py",
        "DESIGN.md 4j: TEXT columns, which database.io loads and scan reads",
    ),
    "repro.database.engines:_ObjectColumn.all_values": (
        "design", "tests/database/test_engines.py",
        "DESIGN.md 4j: TEXT columns, which database.io loads and scan reads",
    ),
    "repro.database.schema:Column.validate": (
        "guard", "tests/database/test_table.py",
        "outside-input validation: a batch column its one type pass cannot clear",
    ),
    "repro.database.schema:Schema.validate_row": (
        "reference", "tests/database/test_table.py",
        "the row-at-a-time rule insert_many's column-wise check is tested against",
    ),
    "repro.database.table:Table.project": (
        "design", "tests/database/test_io.py",
        "DESIGN.md 4j: kept, database.io exports through it",
    ),
    "repro.database.table:Table.scan": (
        "design", "tests/database/test_io.py",
        "DESIGN.md 4j: kept, database.io exports through it",
    ),
    "repro.database.table:Table.version": (
        "design", "tests/database/test_engine_summaries.py",
        "DESIGN.md 4h: a batch lands with one version bump, all or nothing",
    ),
    "repro.experiments.runner:TrialError.__init__": (
        "guard", "tests/experiments/test_parallel.py",
        "typed failure: a trial that raised, with its index",
    ),
    "repro.experiments.runner:run_single_trial": (
        "guard", "tests/experiments/test_runner.py",
        "failure path: a failed block re-runs trial by trial to name the trial",
    ),
    "repro.extensions.ksecuresum:KSecureSumResult.segments": (
        "design", "tests/extensions/test_ksecuresum.py",
        "DESIGN.md 4f keeps Federation(secure_sum_segments=): k - 1 colluders",
    ),
    "repro.extensions.ksecuresum:_split": (
        "design", "tests/extensions/test_ksecuresum.py",
        "DESIGN.md 4f keeps Federation(secure_sum_segments=): k - 1 colluders",
    ),
    "repro.extensions.ksecuresum:run_k_secure_sum": (
        "design", "tests/extensions/test_ksecuresum.py",
        "DESIGN.md 4f keeps Federation(secure_sum_segments=): k - 1 colluders",
    ),
    "repro.federation.coordinator:Federation.deregister": (
        "design", "tests/federation/test_coordinator.py",
        "DESIGN.md 4g: a membership change drops the cache with its answers",
    ),
    "repro.federation.coordinator:Federation.register_domain": (
        "design", "tests/federation/test_coordinator.py",
        "DESIGN.md 4g: an attribute's public domain (Section 2) keys its DpRequest",
    ),
    "repro.network.failures:FailureInjector.crash": (
        "guard", "tests/network/test_failures.py",
        "failure path: crash-stop nodes (Section 3.2), kept by DESIGN.md 4j",
    ),
    "repro.network.failures:FailureInjector.recover": (
        "guard", "tests/network/test_failures.py",
        "failure path: an operator recovers a crashed node",
    ),
    "repro.network.failures:FailureInjector.schedule_crash": (
        "guard", "tests/network/test_failures.py",
        "failure path: a crash mid-run (Section 3.2)",
    ),
    "repro.network.node:ProtocolNode.rounds_completed": (
        "guard", "tests/network/test_node.py",
        "recovery (Section 3.2): which round stalled",
    ),
    "repro.network.ring:RingTopology.repair": (
        "guard", "tests/network/test_ring.py",
        "recovery (Section 3.2): splice a crashed node out of the ring",
    ),
    "repro.network.stats:TrafficStats.merge": (
        "design", "tests/network/test_stats.py",
        "DESIGN.md 4f: the k-secure-sum folds its passes' traffic with it",
    ),
    "repro.observability.trace:Tracer.close_span": (
        "reference", "tests/observability/test_trace.py",
        "the disabled tracer benchmarks/ measures the recorder against",
    ),
    "repro.observability.trace:Tracer.event": (
        "reference", "tests/observability/test_trace.py",
        "the disabled tracer benchmarks/ measures the recorder against",
    ),
    "repro.observability.trace:Tracer.new_trace": (
        "reference", "tests/observability/test_trace.py",
        "the disabled tracer benchmarks/ measures the recorder against",
    ),
    "repro.observability.trace:Tracer.open_span": (
        "reference", "tests/observability/test_trace.py",
        "the disabled tracer benchmarks/ measures the recorder against",
    ),
    "repro.planner.plan:expected_lop": (
        "guard", "tests/privacy/test_accounting.py",
        "typed refusal: the LoP a party or tenant budget draws, BudgetExhausted weighs it",
    ),
    "repro.planner.spec:prepared_clear": (
        "design", "tests/planner/test_spec.py",
        "DESIGN.md 4g: empties the prepared-form memo; compile counts start there",
    ),
    "repro.privacy.accounting:ExposureLedger.exposure": (
        "design", "tests/privacy/test_accounting.py",
        "a party's measured peak LoP (Eq. 1) summed over runs, kept apart from its meter",
    ),
    "repro.privacy.accounting:ExposureLedger.meter": (
        "guard", "tests/privacy/test_accounting.py",
        "typed refusal: a party's LoP meter, the one a party budget's refusal names",
    ),
    "repro.privacy.claims:RangeClaim.holds_for": (
        "design", "tests/privacy/test_claims.py",
        "Section 2.2 range claims (DESIGN.md row 6)",
    ),
    "repro.privacy.claims:RangeClaim.kind": (
        "design", "tests/privacy/test_claims.py",
        "Section 2.2 range claims (DESIGN.md row 6)",
    ),
    "repro.privacy.claims:RangeClaim.width": (
        "design", "tests/privacy/test_claims.py",
        "Section 2.2 range claims (DESIGN.md row 6)",
    ),
    "repro.privacy.claims:ValueClaim.holds_for": (
        "design", "tests/privacy/test_claims.py",
        "Section 2.2 value claims (DESIGN.md row 6)",
    ),
    "repro.privacy.claims:ValueClaim.kind": (
        "design", "tests/privacy/test_claims.py",
        "Section 2.2 value claims (DESIGN.md row 6)",
    ),
    "repro.privacy.dp:LaplaceMechanism.draw": (
        "design", "tests/privacy/test_dp.py",
        "DESIGN.md 4b: the mechanism calibrate_mechanism picks for REAL domains",
    ),
    "repro.privacy.groups:_validate_members": (
        "guard", "tests/privacy/test_groups.py",
        "input validation: a group the run never saw is refused",
    ),
    "repro.privacy.groups:group_lop": (
        "design", "tests/privacy/test_groups.py",
        "Section 2.2 group exposure (DESIGN.md row 26)",
    ),
    "repro.privacy.groups:group_round_lop": (
        "design", "tests/privacy/test_groups.py",
        "Section 2.2 group exposure (DESIGN.md row 26)",
    ),
    "repro.privacy.groups:is_m_anonymous": (
        "design", "tests/privacy/test_groups.py",
        "Section 2.2 m-anonymity (DESIGN.md row 26)",
    ),
    "repro.privacy.lop:item_round_lop": (
        "reference", "tests/privacy/test_lop.py",
        "Eq. 1 per item: the definition the exposure profile's loop must equal",
    ),
    "repro.privacy.precision:precision": (
        "design", "tests/privacy/test_precision.py",
        "Section 5.4's precision metric over plain sequences",
    ),
    "repro.service.errors:QueryFailed.__init__": (
        "guard", "tests/service/test_chaos.py",
        "typed failure: a batch that raised",
    ),
    "repro.service.gateway:QueryService._fail": (
        "guard", "tests/service/test_chaos.py",
        "failure path: settles a request with its typed error",
    ),
    "repro.sharding.federation:ShardedFederation._shard_of": (
        "guard", "tests/sharding/test_router_tenants.py",
        "input validation: no such shard",
    ),
    "repro.sharding.federation:ShardedFederation.deregister": (
        "design", "tests/sharding/test_router_tenants.py",
        "DESIGN.md 4g: a membership change drops the shard's cache",
    ),
    "repro.sharding.federation:ShardedFederation.members": (
        "design", "tests/sharding/test_one_plan_per_statement.py",
        "DESIGN.md 4o: the deployment's parties, which the plan stage no "
        "longer counts",
    ),
    "repro.sharding.federation:ShardedFederation.register": (
        "design", "tests/sharding/test_router_tenants.py",
        "DESIGN.md 4g: a membership change drops the shard's cache",
    ),
    "repro.sharding.federation:ShardedFederation.register_domain": (
        "design", "tests/federation/test_dp_release_rules.py",
        "DESIGN.md 4g: an attribute's public domain keys its DpRequest",
    ),
    "repro.sharding.federation:ShardedFederation.set_tenant": (
        "guard", "tests/sharding/test_router_tenants.py",
        "installs the tenant budgets whose refusals are typed",
    ),
    "repro.sharding.protocol:decode_error": (
        "guard", "tests/sharding/test_process_shards.py",
        "typed refusal: a worker's error arrives as its own type",
    ),
    "repro.sharding.protocol:encode_error": (
        "guard", "tests/sharding/test_process_shards.py",
        "typed refusal: a worker's error leaves as its own type",
    ),
    "repro.sharding.router:ShardRouter.set_tenant": (
        "guard", "tests/sharding/test_router_tenants.py",
        "installs the tenant budgets whose refusals are typed",
    ),
    "repro.sharding.router:TenantAccount.__post_init__": (
        "guard", "tests/sharding/test_router_tenants.py",
        "binds a tenant's meters to its budgets",
    ),
    "repro.sharding.router:TenantAccount.bind_policy": (
        "guard", "tests/sharding/test_router_tenants.py",
        "a new budget binds against the accrued history",
    ),
    "repro.sharding.router:TenantAccount.lop_spent": (
        "guard", "tests/sharding/test_router_tenants.py",
        "the tenant LoP BudgetExhausted weighs",
    ),
    "repro.sharding.router:TenantPolicy.__post_init__": (
        "guard", "tests/sharding/test_router_tenants.py",
        "outside-input validation of a tenant's budgets",
    ),
    "repro.sharding.shards:LocalShard.deregister": (
        "design", "tests/sharding/test_router_tenants.py",
        "DESIGN.md 4g: a membership change drops the shard's cache",
    ),
    "repro.sharding.shards:LocalShard.register": (
        "design", "tests/sharding/test_router_tenants.py",
        "DESIGN.md 4g: a membership change drops the shard's cache",
    ),
    "repro.sharding.shards:ProcessShard.deregister": (
        "design", "tests/sharding/test_fuzz_wire.py",
        "DESIGN.md 4g: a membership change drops the shard's cache",
    ),
    "repro.sharding.shards:ProcessShard.register": (
        "guard", "tests/sharding/test_fuzz_wire.py",
        "typed refusal: a live database cannot cross the wire",
    ),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_protocol(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(base, ast.Name) and base.id == "Protocol")
        or (isinstance(base, ast.Attribute) and base.attr == "Protocol")
        for base in node.bases
    )


def _declares_only(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    if not body:
        return True
    if len(body) != 1:
        return False
    (stmt,) = body
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


MODULES = {_module_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))}
TREES = {module: ast.parse(path.read_text()) for module, path in MODULES.items()}


def _assigned(tree: ast.Module, name: str) -> ast.expr | None:
    """The value a module assigns to ``name`` at top level, if it does."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return node.value
    return None


def _source_defs() -> dict[str, list[tuple[ast.AST, bool]]]:
    """``module:qualname`` -> [(def node, inside a Protocol class)], every def."""
    found: dict[str, list[tuple[ast.AST, bool]]] = {}
    for module, tree in TREES.items():

        def visit(node, prefix, protocol):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    key = f"{module}:{prefix}{child.name}"
                    found.setdefault(key, []).append((child, protocol))
                    visit(child, f"{prefix}{child.name}.<locals>.", False)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", _is_protocol(child))
                else:
                    visit(child, prefix, protocol)

        visit(tree, "", False)
    return found


def _allowed_modules() -> set[str]:
    """The keys of ``tests/test_reachability.py``'s ``ALLOWED``, read by ``ast``."""
    allowed = _assigned(
        ast.parse((ROOT / "tests" / "test_reachability.py").read_text()), "ALLOWED"
    )
    return {key.value for key in allowed.keys}


def _exports() -> dict[str, dict[str, str]]:
    """Package -> {name: defining module}, from each literal ``_EXPORTS`` map."""
    maps = {}
    for package, path in MODULES.items():
        exports = _assigned(TREES[package], "_EXPORTS") if path.name == "__init__.py" else None
        if exports is not None:
            maps[package] = {
                name: f"{package}.{submodule}"
                for submodule, names in ast.literal_eval(exports).items()
                for name in names
            }
    return maps


def _bench_needs() -> set[str]:
    """``module:qualname`` of every ``bench/spans.py`` target and bench import."""
    needed = set()
    targets = _assigned(ast.parse((ROOT / "bench" / "spans.py").read_text()), "TARGETS")
    for row in targets.elts:
        module, owner, attribute = (element.value for element in row.elts[1:4])
        needed.add(f"{module}:{owner}.{attribute}" if owner else f"{module}:{attribute}")
    exports = _exports()
    for path in sorted((ROOT / "bench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                for alias in node.names:
                    if f"{node.module}.{alias.name}" in MODULES:
                        continue
                    origin = exports.get(node.module, {}).get(alias.name, node.module)
                    needed.add(f"{origin}:{alias.name}")
    return needed


DEFS = _source_defs()
ALLOWED_MODULES = _allowed_modules()
BENCH_NEEDS = _bench_needs()


def _listed() -> list[str]:
    return CENSUS.read_text().splitlines()


def _automatic_class(key: str) -> str | None:
    """Which of rules (i)-(iv) keeps ``key``, or None."""
    module, qualname = key.split(":")
    name = qualname.rsplit(".", 1)[-1]
    nodes = DEFS[key]
    if all(protocol or _declares_only(node) for node, protocol in nodes):
        return "declaration"
    if name.startswith("__") and name.endswith("__") and name not in (
        "__init__", "__post_init__",
    ):
        return "dunder"
    if module in ALLOWED_MODULES:
        return "allowlisted module"
    if key in BENCH_NEEDS:
        return "bench"
    return None


def _mention(qualname: str) -> str:
    """The name a test that enters ``qualname`` has to spell."""
    parts = qualname.split(".")
    if parts[-1] in ("__init__", "__post_init__") and len(parts) > 1:
        return parts[-2]
    return parts[-1]


def test_census_is_sorted_unique_module_qualname_lines():
    listed = _listed()
    assert listed == sorted(set(listed)), "results/call_census.txt: sort it, no repeats"
    malformed = [line for line in listed if not re.fullmatch(r"repro[\w.]*:[\w.<>]+", line)]
    assert not malformed, f"not module:qualname: {malformed}"


def test_every_listed_def_exists():
    missing = [key for key in _listed() if key not in DEFS]
    assert not missing, (
        f"listed in results/call_census.txt but not in src/ (run `make census`): {missing}"
    )


def _is_class_or_constant(key: str) -> bool:
    module, name = key.split(":")
    return module in TREES and (
        any(isinstance(node, ast.ClassDef) and node.name == name for node in TREES[module].body)
        or _assigned(TREES[module], name) is not None
    )


def test_every_bench_target_and_import_exists():
    missing = sorted(
        key for key in BENCH_NEEDS if key not in DEFS and not _is_class_or_constant(key)
    )
    assert not missing, f"bench/ needs these and src/ lost them: {missing}"


def test_every_declared_key_is_listed():
    listed = set(_listed())
    stale = sorted(key for key in DECLARED if key not in listed)
    assert not stale, f"DECLARED but entered now, or gone (drop the entry): {stale}"


def test_every_listed_def_has_a_class():
    unclassified = [
        key for key in _listed()
        if key in DEFS and key not in DECLARED and _automatic_class(key) is None
    ]
    assert not unclassified, (
        f"{len(unclassified)} never-entered defs with no class "
        f"(enter, declare or delete them): {unclassified}"
    )


def test_every_declaration_is_well_formed():
    for key, (kind, test, reason) in DECLARED.items():
        assert kind in CLASSES, f"{key}: class {kind!r} is not one of {CLASSES}"
        assert reason, f"{key}: no reason"
        if kind == "design":
            assert CITES.search(reason), f"{key}: {reason!r} cites nothing"
            assert not SELF_CITE.search(reason), (
                f"{key}: {reason!r} cites the census's own kept list; cite the row "
                "that describes the design"
            )
        path = ROOT / test
        assert test.startswith("tests/") and path.is_file(), f"{key}: no test file {test}"
        name = _mention(key.split(":")[1])
        assert re.search(rf"\b{re.escape(name)}\b", path.read_text()), (
            f"{key}: {test} does not mention {name}"
        )
